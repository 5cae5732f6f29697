//! Property-based tests over the core data-structure invariants: the
//! distributed sort, owner functions, CSR storage, page cache, and the
//! visitor algorithms against serial references on arbitrary graphs.

use havoq::prelude::*;
use havoq_comm::FaultConfig;
use havoq_core::algorithms::bfs::UNREACHED;
use havoq_core::CheckpointSpec;
use havoq_graph::gen::permute::RandomPermutation;
use havoq_graph::sort::sort_edges_even;
use havoq_nvram::device::BlockDevice;
use havoq_util::testing::{run_cases, TestRng};

/// Arbitrary small symmetric graph: vertex count + undirected edge pairs.
fn arb_graph(rng: &mut TestRng) -> (u64, Vec<Edge>) {
    let n = rng.range(2, 60);
    let m = rng.range_usize(0, 200);
    let mut es: Vec<Edge> = (0..m).map(|_| Edge::new(rng.below(n), rng.below(n))).collect();
    for i in 0..m {
        let e = es[i];
        if !e.is_self_loop() {
            es.push(e.reversed());
        }
    }
    (n, es)
}

/// Serial frontier BFS levels from `source` over `n` vertices.
fn serial_bfs_levels(n: u64, edges: &[Edge], source: u64) -> Vec<u64> {
    let mut adj = vec![Vec::new(); n as usize];
    for e in edges {
        if !e.is_self_loop() {
            adj[e.src as usize].push(e.dst);
        }
    }
    let mut want = vec![UNREACHED; n as usize];
    want[source as usize] = 0;
    let mut frontier = vec![source];
    let mut l = 0;
    while !frontier.is_empty() {
        l += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &t in &adj[v as usize] {
                if want[t as usize] == UNREACHED {
                    want[t as usize] = l;
                    next.push(t);
                }
            }
        }
        frontier = next;
    }
    want
}

#[test]
fn permutation_is_a_bijection() {
    run_cases(24, |rng: &mut TestRng| {
        let n = rng.range(1, 5000);
        let seed = rng.next_u64();
        let p = RandomPermutation::new(n, seed);
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = p.apply(x);
            assert!(y < n);
            assert!(!seen[y as usize]);
            seen[y as usize] = true;
        }
    });
}

#[test]
fn distributed_sort_equals_serial_sort() {
    run_cases(24, |rng: &mut TestRng| {
        let (_n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 6);
        let sorted = CommWorld::run(p, |ctx| {
            let m = edges.len();
            let lo = m * ctx.rank() / p;
            let hi = m * (ctx.rank() + 1) / p;
            sort_edges_even(ctx, edges[lo..hi].to_vec())
        });
        let got: Vec<Edge> = sorted.into_iter().flatten().collect();
        let mut want = edges.clone();
        want.sort_unstable_by_key(|e| e.key());
        assert_eq!(got, want);
    });
}

#[test]
fn owner_functions_tile_every_vertex() {
    run_cases(24, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 6);
        let checks = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let mut ok = true;
            for v in 0..n {
                let v = VertexId(v);
                let (mn, mx) = (g.min_owner(v), g.max_owner(v));
                ok &= mn <= mx && mx < p;
                // this rank holds v iff it is inside the owner chain
                ok &= g.is_local(v) == (mn..=mx).contains(&ctx.rank());
            }
            // masters are unique
            let masters: u64 = (0..n).filter(|&v| g.is_master(VertexId(v))).count() as u64;
            (ok, ctx.all_reduce_sum(masters))
        });
        for (ok, master_total) in checks {
            assert!(ok);
            assert_eq!(master_total, n);
        }
    });
}

#[test]
fn distributed_bfs_equals_serial_bfs() {
    run_cases(24, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 6);
        let source = rng.below(n);
        let ghosts = rng.range_usize(0, 32);
        let want = serial_bfs_levels(n, &edges, source);
        // distributed
        let pieces = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let cfg = BfsConfig::default().with_ghosts(ghosts);
            let r = bfs(ctx, &g, VertexId(source), &cfg);
            g.local_vertices()
                .filter(|&v| g.is_master(v))
                .map(|v| (v.0, r.local_state[g.local_index(v)].length))
                .collect::<Vec<_>>()
        });
        let mut got = vec![UNREACHED; n as usize];
        for (v, lvl) in pieces.into_iter().flatten() {
            got[v as usize] = lvl;
        }
        assert_eq!(got, want);
    });
}

/// The per-vertex ghost filter is on in every default-config traversal of
/// a ghost-safe visitor whose state fits its record. With it, BFS levels,
/// CC labels and SSSP distances equal the serial references at p ∈
/// {1, 2, 3}. Half the cases move odd vertex ids up by 2^17, so pairs of
/// live vertices share a filter slot (the 2 MiB budget caps BFS and SSSP
/// at 2^16 slots, CC at 2^17) and every traversal goes through slot
/// takeovers.
#[test]
fn ghost_filtered_traversals_match_serial_references() {
    use havoq_core::algorithms::sssp::edge_weight;
    const SPREAD: u64 = 1 << 17;
    run_cases(10, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let (n, edges) = if rng.bool() {
            let spread = |v: u64| v / 2 + (v % 2) * SPREAD;
            let edges = edges.iter().map(|e| Edge::new(spread(e.src), spread(e.dst))).collect();
            (SPREAD + n.div_ceil(2), edges)
        } else {
            (n, edges)
        };
        let live: Vec<u64> = edges.iter().map(|e| e.src).collect();
        let source = if live.is_empty() { 0 } else { live[rng.range_usize(0, live.len())] };
        let cfg = SsspConfig::default();
        // serial references: BFS levels, min-id component labels, Dijkstra
        let levels = serial_bfs_levels(n, &edges, source);
        let mut label: Vec<u64> = (0..n).collect();
        loop {
            let mut changed = false;
            for e in &edges {
                let low = label[e.src as usize].min(label[e.dst as usize]);
                for v in [e.src, e.dst] {
                    changed |= std::mem::replace(&mut label[v as usize], low) != low;
                }
            }
            if !changed {
                break;
            }
        }
        let mut dist = vec![UNREACHED; n as usize];
        dist[source as usize] = 0;
        let mut heap = std::collections::BinaryHeap::from([std::cmp::Reverse((0u64, source))]);
        while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for e in edges.iter().filter(|e| e.src == v && !e.is_self_loop()) {
                let nd = d + edge_weight(v, e.dst, cfg.max_weight);
                if nd < dist[e.dst as usize] {
                    dist[e.dst as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, e.dst)));
                }
            }
        }
        for p in 1..=3 {
            let pieces = CommWorld::run(p, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default().with_num_vertices(n),
                );
                let b = bfs(ctx, &g, VertexId(source), &BfsConfig::default());
                let c = connected_components(ctx, &g, &CcConfig::default());
                let s = sssp(ctx, &g, VertexId(source), &cfg);
                let checked = ctx.all_reduce_sum(c.stats.ghost_checked);
                let pushed = ctx.all_reduce_sum(c.stats.visitors_pushed);
                assert_eq!(checked, pushed, "the filter checks every push");
                g.local_vertices()
                    .filter(|&v| g.is_master(v))
                    .map(|v| {
                        let li = g.local_index(v);
                        let state = [
                            b.local_state[li].length,
                            c.local_state[li].component,
                            s.local_state[li].distance,
                        ];
                        (v.0, state)
                    })
                    .collect::<Vec<_>>()
            });
            let mut got = vec![[UNREACHED; 3]; n as usize];
            for (v, state) in pieces.into_iter().flatten() {
                got[v as usize] = state;
            }
            for (v, state) in got.iter().enumerate() {
                let want = [levels[v], label[v], dist[v]];
                assert_eq!(*state, want, "p={p} n={n} vertex {v}: [bfs, cc, sssp]");
            }
        }
    });
}

/// Checkpointed traversals under random fault schedules *including rank
/// crashes*: the termination detector must never declare quiescence while
/// frames are in flight or a restored rank's replayed queue is undrained.
/// Both failure modes are observable — a frame the detector abandoned
/// breaks global `sent == received` conservation (the mailbox counters are
/// live and never rewound, so replayed post-restore traffic is counted on
/// both sides), and an unexecuted visitor leaves the fixpoint unconverged
/// against the serial reference.
#[test]
fn checkpointed_bfs_survives_random_crash_schedules() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let crash_total = AtomicU64::new(0);
    run_cases(16, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 6);
        let source = rng.below(n);
        let every = rng.range(1, 5);
        // random fault plan: always a hefty crash chance, sometimes the
        // full message-level chaos adversary stacked on top
        let mut faults = FaultConfig::quiet(rng.next_u64()).with_crash(rng.range(150, 600) as u16);
        if rng.bool() {
            faults = faults.with_delay(200, 6).with_reorder(200, 4).with_duplicate(80);
        }
        let want = serial_bfs_levels(n, &edges, source);
        // distributed, checkpointing every few visitors so small runs
        // still cross several crash-eligible epochs
        let pieces = CommWorld::run_with_faults(p, Some(faults), |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let cfg =
                BfsConfig::default().with_checkpoint(CheckpointSpec::default().with_every(every));
            let r = bfs(ctx, &g, VertexId(source), &cfg);
            let sent = ctx.all_reduce_sum(r.stats.payload_sent);
            let recv = ctx.all_reduce_sum(r.stats.payload_received);
            assert_eq!(sent, recv, "quiescence fired with frames in flight");
            let crashes = ctx.all_reduce_sum(r.stats.events[Event::Crash]);
            let restores = ctx.all_reduce_sum(r.stats.events[Event::Restore]);
            assert_eq!(
                restores,
                crashes * p as u64,
                "every rank must restore exactly once per crash event"
            );
            let states: Vec<(u64, u64)> = g
                .local_vertices()
                .filter(|&v| g.is_master(v))
                .map(|v| (v.0, r.local_state[g.local_index(v)].length))
                .collect();
            (states, crashes)
        });
        // crash count is an all-reduce, identical on every rank
        crash_total.fetch_add(pieces[0].1, Ordering::Relaxed);
        let mut got = vec![UNREACHED; n as usize];
        for (states, _) in pieces {
            for (v, lvl) in states {
                got[v as usize] = lvl;
            }
        }
        assert_eq!(got, want);
    });
    assert!(crash_total.load(Ordering::Relaxed) > 0, "sweep never exercised a crash");
}

/// Batched multi-source BFS against the serial frontier reference on
/// arbitrary graphs and *arbitrary query sets* — duplicate sources
/// allowed, every width up to 8 — under random fault schedules including
/// checkpointed rank crashes. Three properties per case:
///
/// - every query's level array equals the serial reference (parents are
///   schedule-dependent, so they are validated structurally instead);
/// - the per-query executed/pushed ledgers sum to the batch totals under
///   every schedule, fault plan and crash/restore cycle;
/// - at `threads = 1`, `restores == crashes × p` (the world-rewind
///   invariant the single-source belt pins).
#[test]
fn batched_bfs_matches_serial_reference_on_random_query_sets() {
    use havoq_core::batch::bfs_batch;
    run_cases(16, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 5);
        let k = rng.range_usize(1, 8);
        // duplicates allowed: two queries from the same source must both
        // be answered, identically
        let sources: Vec<VertexId> = (0..k).map(|_| VertexId(rng.below(n))).collect();
        // random fault schedule: none / message chaos / checkpointed crashes
        let (faults, ckpt_every) = match rng.range(0, 2) {
            1 => (Some(FaultConfig::chaos(rng.next_u64())), None),
            2 => (
                Some(FaultConfig::quiet(rng.next_u64()).with_crash(rng.range(150, 600) as u16)),
                Some(rng.range(1, 5)),
            ),
            _ => (None, None),
        };
        // serial frontier reference per query
        let want: Vec<Vec<u64>> =
            sources.iter().map(|s| serial_bfs_levels(n, &edges, s.0)).collect();
        // batched distributed run, all queries through one traversal
        let pieces = CommWorld::run_with_faults(p, faults, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let mut cfg = havoq_core::batch::BatchConfig::default();
            if let Some(every) = ckpt_every {
                cfg = cfg.with_checkpoint(CheckpointSpec::default().with_every(every));
            }
            let res = bfs_batch::<8>(ctx, &g, &sources, &cfg);
            res.ledger
                .check(sources.len())
                .unwrap_or_else(|e| panic!("ledger invariant broke: {e}"));
            let crashes = ctx.all_reduce_sum(res.stats.events[Event::Crash]);
            let restores = ctx.all_reduce_sum(res.stats.events[Event::Restore]);
            assert_eq!(
                restores,
                crashes * p as u64,
                "every rank must restore exactly once per crash event"
            );
            let states: Vec<Vec<(u64, u64)>> = (0..sources.len())
                .map(|qi| {
                    let report = validate_bfs(ctx, &g, sources[qi], &res.local_state[qi]);
                    assert!(
                        report.is_valid(),
                        "batched parents invalid for query {qi}: {report:?}"
                    );
                    g.local_vertices()
                        .filter(|&v| g.is_master(v))
                        .map(|v| (v.0, res.local_state[qi][g.local_index(v)].length))
                        .collect()
                })
                .collect();
            states
        });
        for (qi, want_q) in want.iter().enumerate() {
            let mut got = vec![UNREACHED; n as usize];
            for rank_states in &pieces {
                for &(v, lvl) in &rank_states[qi] {
                    got[v as usize] = lvl;
                }
            }
            assert_eq!(
                &got, want_q,
                "query {qi} (source {:?}) diverged from the serial reference",
                sources[qi]
            );
        }
    });
}

#[test]
fn replica_state_is_consistent_after_bfs() {
    run_cases(24, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(2, 6);
        // after termination, every replica of a split vertex must agree
        // with its master (BFS updates are monotone and fully propagated)
        let pieces = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
            g.local_vertices()
                .map(|v| (v.0, r.local_state[g.local_index(v)].length))
                .collect::<Vec<_>>()
        });
        let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (v, lvl) in pieces.into_iter().flatten() {
            if let Some(prev) = seen.insert(v, lvl) {
                assert_eq!(prev, lvl, "replica disagreement at vertex {v}");
            }
        }
    });
}

#[test]
fn distributed_kcore_equals_serial_peeling() {
    run_cases(24, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 5);
        let k = rng.range(1, 6);
        // serial peeling reference
        let mut adj = vec![Vec::new(); n as usize];
        for e in &edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        for a in adj.iter_mut() {
            a.sort_unstable();
            a.dedup();
        }
        let mut deg: Vec<u64> = adj.iter().map(|a| a.len() as u64).collect();
        let mut alive = vec![true; n as usize];
        let mut stack: Vec<u64> = (0..n).filter(|&v| deg[v as usize] < k).collect();
        for &v in &stack {
            alive[v as usize] = false;
        }
        while let Some(v) = stack.pop() {
            for &t in &adj[v as usize] {
                if alive[t as usize] {
                    deg[t as usize] -= 1;
                    if deg[t as usize] < k {
                        alive[t as usize] = false;
                        stack.push(t);
                    }
                }
            }
        }
        let want: u64 = alive.iter().filter(|&&a| a).count() as u64;
        let got = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            kcore(ctx, &g, k, &KCoreConfig::default()).alive_count
        });
        assert!(got.iter().all(|&c| c == want), "{got:?} != {want}");
    });
}

#[test]
fn distributed_triangles_equal_serial_count() {
    run_cases(24, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.range_usize(1, 5);
        use std::collections::HashSet;
        let mut adj: Vec<HashSet<u64>> = vec![HashSet::new(); n as usize];
        for e in &edges {
            if !e.is_self_loop() {
                adj[e.src as usize].insert(e.dst);
                adj[e.dst as usize].insert(e.src);
            }
        }
        let mut want = 0u64;
        for a in 0..n {
            for &b in &adj[a as usize] {
                if b <= a {
                    continue;
                }
                for &c in &adj[b as usize] {
                    if c > b && adj[a as usize].contains(&c) {
                        want += 1;
                    }
                }
            }
        }
        let got = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            triangle_count(ctx, &g, &TriangleConfig::default()).triangles
        });
        assert!(got.iter().all(|&t| t == want), "{got:?} != {want}");
    });
}

#[test]
fn edge_file_roundtrips() {
    run_cases(8, |rng: &mut TestRng| {
        let (_n, edges) = arb_graph(rng);
        let binary = rng.bool();
        let dir = std::env::temp_dir().join(format!("havoq-prop-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("e-{binary}.dat"));
        if binary {
            havoq_graph::io::write_binary(&path, &edges).unwrap();
            assert_eq!(havoq_graph::io::read_binary(&path).unwrap(), edges);
        } else {
            havoq_graph::io::write_text(&path, &edges).unwrap();
            assert_eq!(havoq_graph::io::read_text(&path).unwrap(), edges);
        }
    });
}

#[test]
fn page_cache_matches_memory_model() {
    run_cases(24, |rng: &mut TestRng| {
        use std::sync::Arc;
        let pages = rng.range_usize(1, 8);
        let nops = rng.range_usize(1, 200);
        let dev = Arc::new(havoq_nvram::device::MemDevice::new());
        let cache = PageCache::new(
            dev as Arc<dyn BlockDevice>,
            PageCacheConfig {
                page_size: 64,
                capacity_pages: pages.max(2),
                shards: 2,
                ..PageCacheConfig::default()
            },
        );
        let mut model = vec![0u8; 2048 + 1];
        for _ in 0..nops {
            let addr = rng.below(2048);
            if rng.bool() {
                let v = rng.u8();
                cache.write_at(addr, &[v]);
                model[addr as usize] = v;
            } else {
                let mut b = [0u8; 1];
                cache.read_at(addr, &mut b);
                assert_eq!(b[0], model[addr as usize]);
            }
        }
        // final flush + raw device readback agrees with the model
        cache.flush();
        let mut all = vec![0u8; model.len()];
        cache.read_at(0, &mut all);
        assert_eq!(all, model);
    });
}

/// Varint gap codec round-trip on arbitrary sorted `u64` lists: empty,
/// single, duplicate-heavy (dedup-off zero gaps), and extreme values up to
/// `u64::MAX` — bulk decode and the streaming decoder must both return the
/// input exactly.
#[test]
fn varint_gap_codec_roundtrips_arbitrary_sorted_lists() {
    use havoq_graph::varint;
    run_cases(64, |rng: &mut TestRng| {
        let len = rng.range_usize(0, 64);
        let mut targets = Vec::with_capacity(len);
        let mut cur = 0u64;
        for _ in 0..len {
            // mix of small gaps, zero gaps (duplicates) and huge jumps, with
            // a saturating tail that parks runs at u64::MAX
            cur = match rng.below(4) {
                0 => cur, // duplicate target (dedup: false)
                1 => cur.saturating_add(rng.below(3)),
                2 => cur.saturating_add(rng.below(1 << 20)),
                _ => cur.saturating_add(rng.next_u64() >> rng.below(8)),
            };
            targets.push(cur);
        }
        let mut buf = Vec::new();
        let appended = varint::encode_gaps(&targets, &mut buf);
        assert_eq!(appended, buf.len());
        let mut bulk = Vec::new();
        varint::decode_gaps(&buf, targets.len(), &mut bulk);
        assert_eq!(bulk, targets, "bulk decode diverged");
        let mut dec = varint::GapDecoder::new(&buf);
        for (i, &want) in targets.iter().enumerate() {
            assert_eq!(dec.next_target(), want, "streaming decode diverged at {i}");
        }
        assert_eq!(dec.consumed(), buf.len(), "stream must consume exactly the encoding");
    });
}

/// Compressed CSR equals the in-memory CSR on arbitrary graphs — with a
/// deliberately tiny page so encoded slices straddle page boundaries, with
/// duplicates kept (`dedup: false`) so zero gaps hit the decoder, and with
/// `scan_adj`'s early-exit counts included in the comparison.
#[test]
fn compressed_csr_matches_memory_on_arbitrary_graphs() {
    run_cases(32, |rng: &mut TestRng| {
        let (n, edges) = arb_graph(rng);
        let dedup = rng.bool();
        let page_size = [64usize, 128, 256][rng.range_usize(0, 3)];
        let base = GraphConfig { dedup, num_vertices: Some(n), ..GraphConfig::default() };
        let comp = GraphConfig {
            storage: havoq_graph::csr::CsrStorage::ExternalCompressed {
                profile: DeviceProfile::dram(),
                cache: PageCacheConfig {
                    page_size,
                    capacity_pages: 2,
                    shards: 1,
                    ..PageCacheConfig::default()
                },
            },
            ..base
        };
        let p = 1 + rng.range_usize(0, 2);
        let (edges_a, edges_b) = (edges.clone(), edges);
        let mem_view = CommWorld::run(p, move |ctx| {
            let g = DistGraph::build_replicated(ctx, &edges_a, PartitionStrategy::EdgeList, base);
            collect_adjacency_view(&g)
        });
        let comp_view = CommWorld::run(p, move |ctx| {
            let g = DistGraph::build_replicated(ctx, &edges_b, PartitionStrategy::EdgeList, comp);
            collect_adjacency_view(&g)
        });
        assert_eq!(comp_view, mem_view, "p={p} dedup={dedup} page={page_size}");
    });
}

/// Every observable of a rank's adjacency: slices, degrees, and early-exit
/// scan results for a few needles per vertex.
#[allow(clippy::type_complexity)]
fn collect_adjacency_view(g: &DistGraph) -> Vec<(u64, Vec<u64>, u64, Vec<(u64, Option<u64>)>)> {
    g.local_vertices()
        .map(|v| {
            let adj = g.with_adj(v, |a| a.to_vec());
            let scans = adj
                .iter()
                .copied()
                .chain([u64::MAX])
                .map(|needle| g.scan_adj(v, |t| t >= needle))
                .collect();
            (v.0, adj, g.local_out_degree(v), scans)
        })
        .collect()
}

/// The admission queue's scheduling invariants under arbitrary arrival
/// streams, batch capacities, backlog bounds, shed policies, deadlines
/// and service times, driven by an event-fed serving loop that offers each
/// arrival only once the event clock reaches it (an arrival that lands
/// during a batch's service is offered when that service completes):
///
/// - the event clock never runs backwards;
/// - service is FIFO — served arrival timestamps are globally
///   non-decreasing (the pending queue is time-ordered and only ever
///   popped from the front, under either shed policy);
/// - every recorded latency is exactly queue wait plus batch service
///   (`(start_clock + service) − at_ns`), and shed queries record none;
/// - conservation at every quiescent point: offered == served + shed +
///   still-pending;
/// - `peak_backlog` equals the externally observed maximum and never
///   exceeds the configured bound;
/// - with backlog B and capacity C, p99 latency is at most
///   max(B, ⌈B/C⌉ + 1) times the worst batch service: a query waits out
///   the service in progress when it arrives, then at most ⌈B/C⌉ batches
///   drain the queue ahead of it and itself.
#[test]
fn admission_queue_schedule_invariants_under_random_streams() {
    use havoq_core::batch::percentile_ns;
    run_cases(48, |rng: &mut TestRng| {
        let capacity = rng.range_usize(1, 7);
        let bounded = rng.bool();
        let backlog = bounded.then(|| rng.range_usize(1, 9));
        let policy = if rng.bool() { ShedPolicy::RejectNew } else { ShedPolicy::DropOldest };
        let mut aq = AdmissionQueue::new(capacity).with_shed_policy(policy);
        if let Some(b) = backlog {
            aq = aq.with_max_backlog(b);
        }

        let mut stream: Vec<Arrival> = Vec::new();
        let mut at = 0u64;
        for i in 0..rng.range_usize(0, 51) {
            at += rng.below(800);
            let mut a = Arrival::new(at, VertexId(i as u64));
            if rng.below(5) == 0 {
                a = a.with_deadline(at + rng.below(1500));
            }
            stream.push(a);
        }

        let mut next = 0usize;
        let mut observed_peak = 0usize;
        let mut served_ats: Vec<u64> = Vec::new();
        let mut expected_latencies: Vec<u64> = Vec::new();
        let mut worst_service = 0u64;
        let mut last_clock = aq.clock_ns();
        loop {
            while next < stream.len() && stream[next].at_ns <= aq.clock_ns() {
                aq.offer(stream[next]);
                observed_peak = observed_peak.max(aq.pending_len());
                next += 1;
            }
            if aq.pending_len() == 0 {
                if next >= stream.len() {
                    break;
                }
                aq.offer(stream[next]);
                observed_peak = observed_peak.max(aq.pending_len());
                next += 1;
                continue;
            }
            let admitted: Vec<Arrival> = aq.start_batch().to_vec();
            let start_clock = aq.clock_ns();
            assert!(start_clock >= last_clock, "clock ran backwards at batch start");
            let service = if admitted.is_empty() { 0 } else { 1 + rng.below(600) };
            worst_service = worst_service.max(service);
            for pair in admitted.windows(2) {
                assert!(pair[0].at_ns <= pair[1].at_ns, "batch not in FIFO order");
            }
            for a in &admitted {
                assert!(a.at_ns <= start_clock, "admitted a query from the future");
                assert!(a.deadline_ns > start_clock, "admitted a dead-on-arrival query");
                served_ats.push(a.at_ns);
                expected_latencies.push(start_clock + service - a.at_ns);
            }
            aq.finish_batch(service);
            assert!(aq.clock_ns() >= start_clock, "clock ran backwards at batch finish");
            last_clock = aq.clock_ns();
            let served = aq.latencies_ns().len() as u64;
            assert_eq!(
                aq.offered(),
                served + aq.shed_total() + aq.pending_len() as u64,
                "conservation violated (policy {policy:?}, backlog {backlog:?})"
            );
        }

        for pair in served_ats.windows(2) {
            assert!(pair[0] <= pair[1], "service order not FIFO across batches");
        }
        assert_eq!(aq.latencies_ns(), expected_latencies.as_slice(), "latency != wait + service");
        assert_eq!(aq.peak_backlog(), observed_peak, "peak_backlog != observed maximum");
        if let Some(b) = backlog {
            assert!(aq.peak_backlog() <= b, "backlog bound exceeded");
            let ceiling = b.max(b.div_ceil(capacity) + 1) as u64 * worst_service;
            let p99 = percentile_ns(aq.latencies_ns(), 99);
            assert!(
                p99 <= ceiling,
                "p99 {p99} above the latency ceiling {ceiling} (backlog {b}, capacity \
                 {capacity}, worst service {worst_service}, policy {policy:?})"
            );
        }
        assert_eq!(aq.offered(), stream.len() as u64, "offers lost");
        assert!(percentile_ns(aq.latencies_ns(), 100) >= percentile_ns(aq.latencies_ns(), 50));
    });
}

/// Without a backlog bound and without deadlines, the admission queue is
/// lossless: nothing is ever shed and every offered query is served with
/// a recorded latency.
#[test]
fn admission_queue_unbounded_is_lossless() {
    run_cases(24, |rng: &mut TestRng| {
        let mut aq = AdmissionQueue::new(rng.range_usize(1, 7));
        let mut at = 0u64;
        let stream: Vec<Arrival> = (0..rng.range_usize(1, 41))
            .map(|i| {
                at += rng.below(500);
                Arrival::new(at, VertexId(i as u64))
            })
            .collect();
        let mut next = 0usize;
        loop {
            while next < stream.len() && stream[next].at_ns <= aq.clock_ns() {
                assert!(aq.offer(stream[next]), "unbounded queue refused an offer");
                next += 1;
            }
            if aq.pending_len() == 0 {
                if next >= stream.len() {
                    break;
                }
                assert!(aq.offer(stream[next]), "unbounded queue refused an offer");
                next += 1;
                continue;
            }
            aq.start_batch();
            aq.finish_batch(1 + rng.below(400));
        }
        assert_eq!(aq.shed_total(), 0);
        assert_eq!(aq.latencies_ns().len(), stream.len());
        assert_eq!(aq.offered(), stream.len() as u64);
        assert_eq!(aq.pending_len(), 0);
    });
}
