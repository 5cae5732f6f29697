//! Figure 5: weak scaling of asynchronous BFS (the paper's BG/P Intrepid
//! experiment, 2^18 vertices per core up to 131K cores, compared against
//! the best known Graph500 Intrepid result).
//!
//! Simulation translation: ranks are threads on one physical core, so
//! wall-clock TEPS measures total work, not parallel speedup. The
//! weak-scaling claims that survive the translation — and that this binary
//! reports — are (a) per-rank visitor and payload counts stay ~flat as the
//! world grows with the workload, and (b) the 3D-routed mailbox keeps the
//! channel count per rank far below p-1. TEPS per rank is also printed for
//! completeness, along with the byte-level wire columns the framed mailbox
//! exposes: wire KiB per rank, mean frame fill, and backpressure stalls.

use havoq_bench::{csv_row, ms, pick, Experiment};
use havoq_comm::{CommWorld, Event, TopologyKind};
use havoq_core::algorithms::bfs::{bfs, level_digest, BfsConfig};
use havoq_core::direction::{direction_bfs, DirectionMode};
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;
use havoq_nvram::cache::PageCacheConfig;
use havoq_nvram::device::DeviceProfile;

fn main() {
    let per_rank_log2: u32 = pick(10, 12);
    let worlds: Vec<usize> = pick(vec![1, 4], vec![1, 2, 4, 8, 16, 32]);

    let mut exp = Experiment::begin(
        &[
            "Figure 5 — weak scaling of asynchronous BFS on RMAT graphs",
            &format!(
                "(2^{per_rank_log2} vertices per rank, edge factor 16, 3D-routed mailbox, 256 ghosts)"
            ),
        ],
        "fig05_bfs_weak.csv",
        &[
            "ranks", "scale", "MTEPS", "visitors/rank", "payload/rank", "max_channels", "depth",
            "KiB/rank", "fill%", "stalls",
        ],
        &[
            "ranks",
            "scale",
            "mteps",
            "visitors_per_rank",
            "payload_per_rank",
            "max_channels",
            "depth",
            "elapsed_ms",
            "wire_bytes_per_rank",
            "mean_frame_fill",
            "backpressure_stalls",
        ],
    );

    for &p in &worlds {
        let scale = per_rank_log2 + (p as f64).log2() as u32;
        let gen = RmatGenerator::graph500(scale);
        let mut cfg = BfsConfig::default();
        cfg.traversal.mailbox.topology = TopologyKind::Routed3D;

        let out = CommWorld::run(p, |ctx| {
            // each rank generates its slice of the directed edge list plus
            // the reversals of that slice; the union over ranks is the full
            // symmetrized list, and the build's distributed sort
            // redistributes it
            let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
            local.extend(local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()));
            let g =
                DistGraph::build(ctx, local, PartitionStrategy::EdgeList, GraphConfig::default());
            let r = bfs(ctx, &g, VertexId(0), &cfg);
            let visitors = ctx.all_reduce_sum(r.stats.visitors_executed);
            let payload = ctx.all_reduce_sum(r.stats.payload_sent);
            // byte-level wire totals (frame-weighted fill, in ppm so the
            // u64 all-reduce carries the fraction)
            let bytes = ctx.all_reduce_sum(r.stats.bytes_sent);
            let stalls = ctx.all_reduce_sum(r.stats.backpressure_stalls);
            let frames = ctx.all_reduce_sum(r.stats.frames_sent);
            let fill_ppm = ctx.all_reduce_sum(
                (r.stats.mean_frame_fill * r.stats.frames_sent as f64 * 1e6) as u64,
            );
            (r, visitors, payload, bytes, stalls, frames, fill_ppm)
        });
        let (r, visitors, payload, bytes, stalls, frames, fill_ppm) = &out[0];
        // channel reduction: max distinct destinations any rank used on the
        // traversal's transport (3D routing keeps this ~3 * p^(1/3))
        let max_channels = r.transport.max_channels_used();
        let elapsed = out.iter().map(|(r, ..)| r.elapsed).max().unwrap();
        let mteps = r.traversed_edges as f64 / elapsed.as_secs_f64() / 1e6;
        let fill = if *frames == 0 { 0.0 } else { *fill_ppm as f64 / 1e6 / *frames as f64 };
        exp.row2(
            &csv_row![
                p,
                scale,
                format!("{mteps:.2}"),
                visitors / p as u64,
                payload / p as u64,
                max_channels,
                r.max_level,
                bytes / p as u64 / 1024,
                format!("{:.1}", fill * 100.0),
                stalls
            ],
            &csv_row![
                p,
                scale,
                mteps,
                visitors / p as u64,
                payload / p as u64,
                max_channels,
                r.max_level,
                elapsed.as_secs_f64() * 1e3,
                bytes / p as u64,
                fill,
                stalls
            ],
        );
    }
    exp.finish(&[
        "Paper shape: near-linear weak scaling to 131K cores; our per-rank",
        "visitor/payload columns stay flat (the machine-independent analogue),",
        "while single-core wall-clock grows with total work as expected. The",
        "wire columns show what the framed mailbox actually shipped: bytes per",
        "rank track payload per rank, and the mean frame fill stays high while",
        "batch_size (not frame_bytes) is the binding flush trigger.",
    ]);

    threads_speedup_table(pick(10, 12));
    direction_table(pick(10, 12));
}

/// Companion table: direction-optimizing BFS (DESIGN.md §13) on the p=2
/// RMAT workload — the per-level `dir=top|bottom` trace of the Beamer
/// heuristic (`--direction` overrides the policy) with before/after TEPS
/// against forced top-down. Level fingerprints must be bit-identical
/// between the two schedules, asserted in-binary.
fn direction_table(scale: u32) {
    let p = 2usize;
    let mode = match havoq_bench::direction() {
        Some(DirectionMode::Async) | None => DirectionMode::Auto,
        Some(m) => m,
    };
    let gen = RmatGenerator::graph500(scale);

    let out = CommWorld::run(p, |ctx| {
        let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
        local.extend(local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()));
        let g = DistGraph::build(ctx, local, PartitionStrategy::EdgeList, GraphConfig::default());
        let run_one = |m: DirectionMode| {
            let cfg = BfsConfig::default().with_direction(m);
            let t = std::time::Instant::now();
            let run = direction_bfs(ctx, &g, VertexId(0), &cfg);
            let secs = ctx.all_reduce_max(t.elapsed().as_nanos() as u64) as f64 / 1e9;
            let fp = level_digest(&g, |li| run.result.local_state[li].length);
            (ctx.all_reduce_sum(fp), run, secs)
        };
        let (top_fp, top_run, top_secs) = run_one(DirectionMode::TopDown);
        let (fp, run, secs) = run_one(mode);
        assert_eq!(fp, top_fp, "{mode:?} level fingerprint diverged from forced top-down");
        (top_run, top_secs, run, secs)
    });
    let (top_run, top_secs, run, secs) = &out[0];

    let mut exp = Experiment::begin(
        &[
            "Figure 5 companion — direction-optimizing BFS",
            &format!("(p={p}, 2^{scale} vertices, {mode:?} vs forced top-down)"),
        ],
        "fig05_bfs_direction.csv",
        &["level", "dir", "frontier", "frontier_edges", "inspected", "candidates"],
        &["level", "dir", "frontier", "frontier_edges", "inspected", "candidates"],
    );
    for t in &run.trace {
        exp.row(&csv_row![
            t.level,
            t.dir.label(),
            t.frontier,
            t.frontier_edges,
            t.inspected,
            t.candidates
        ]);
    }
    let traversed = run.result.traversed_edges;
    let top_mteps = traversed as f64 / top_secs.max(1e-12) / 1e6;
    let mode_mteps = traversed as f64 / secs.max(1e-12) / 1e6;
    let ratio = top_run.edges_inspected as f64 / run.edges_inspected.max(1) as f64;
    let notes = [
        format!(
            "edge inspections: top-down {} vs {mode:?} {} ({ratio:.2}x fewer)",
            top_run.edges_inspected, run.edges_inspected
        ),
        format!("TEPS before/after: {top_mteps:.2} -> {mode_mteps:.2} MTEPS"),
        "level fingerprints bit-identical between schedules (asserted in-binary)".to_string(),
    ];
    let note_refs: Vec<&str> = notes.iter().map(String::as_str).collect();
    exp.finish(&note_refs);
}

/// Companion table: intra-rank worker-pool speedup (DESIGN.md §11) on the
/// p=2 RMAT workload. The graph is held semi-externally on the simulated
/// Fusion-io device at *real* (unscaled) page latency with a tight cache
/// budget, so every `visit` pays demand-paged adjacency reads that block
/// like real I/O — the latency the worker pool exists to overlap, exactly
/// the paper's use of multithreading to keep NAND busy. The BFS level
/// fingerprint must be bit-identical at every thread count, and a
/// fault-free run must keep every integrity counter at zero.
fn threads_speedup_table(scale: u32) {
    let p = 2usize;
    let thread_counts = [1usize, 2, 4];
    let gen = RmatGenerator::graph500(scale);
    // tight DRAM:data ratio so demand paging dominates per-visit cost
    let per_rank_bytes = (gen.num_edges() as usize * 2 * 8) / p;
    let cache_pages = (per_rank_bytes / 4096 / 4).max(16);

    let mut exp = Experiment::begin(
        &[
            "Figure 5 companion — intra-rank parallel visitor execution",
            &format!("(p={p}, 2^{scale} vertices, semi-external adjacency on simulated Fusion-io)"),
        ],
        "fig05_bfs_threads.csv",
        &["threads", "MTEPS", "speedup", "io_stall_ms", "time_ms"],
        &["threads", "mteps", "speedup", "io_stall_ms", "time_ms"],
    );

    let mut baseline = None;
    let mut fingerprints = Vec::new();
    for &threads in &thread_counts {
        let cfg = GraphConfig::external(
            DeviceProfile::fusion_io_realtime(),
            PageCacheConfig {
                page_size: 4096,
                capacity_pages: cache_pages,
                shards: 8,
                // demand paging only: readahead would serialize fills into
                // long single-worker bursts, which is exactly the latency
                // the worker pool is supposed to overlap instead
                readahead_pages: 0,
                ..PageCacheConfig::default()
            },
        );
        let mut bcfg = BfsConfig::default();
        bcfg.traversal.threads = threads;
        let out = CommWorld::run(p, |ctx| {
            let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
            local.extend(local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()));
            let g = DistGraph::build(ctx, local, PartitionStrategy::EdgeList, cfg);
            let r = bfs(ctx, &g, VertexId(0), &bcfg);
            let fp = level_digest(&g, |li| r.local_state[li].length);
            (r, fp)
        });
        let elapsed = out.iter().map(|(r, _)| r.elapsed).max().unwrap();
        let io_stall = out.iter().map(|(r, _)| r.stats.cache.io_stall()).max().unwrap();
        let traversed = out[0].0.traversed_edges;
        for (r, _) in &out {
            assert_eq!(
                (
                    r.stats.events[Event::CorruptDetected],
                    r.stats.events[Event::Nack],
                    r.stats.events[Event::Retransmit]
                ),
                (0, 0, 0),
                "fault-free run must not touch the recovery path (threads={threads})"
            );
        }
        fingerprints.push(out.iter().fold(0u64, |acc, (_, fp)| acc.wrapping_add(*fp)));
        let base = *baseline.get_or_insert(elapsed);
        let speedup = base.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        exp.row2(
            &csv_row![
                threads,
                havoq_bench::mteps(traversed, elapsed),
                format!("{speedup:.2}x"),
                ms(io_stall),
                ms(elapsed)
            ],
            &csv_row![
                threads,
                traversed as f64 / elapsed.as_secs_f64() / 1e6,
                speedup,
                io_stall.as_secs_f64() * 1e3,
                elapsed.as_secs_f64() * 1e3
            ],
        );
        if threads == *thread_counts.last().unwrap() && speedup < 1.5 {
            eprintln!(
                "WARNING: threads={threads} speedup {speedup:.2}x below the 1.5x target \
                 (oversubscribed or low-core host?)"
            );
        }
    }
    for (i, fp) in fingerprints.iter().enumerate() {
        assert_eq!(
            *fp, fingerprints[0],
            "threads={} changed the BFS level assignment",
            thread_counts[i]
        );
    }
    exp.finish(&[
        "The worker pool overlaps demand page fills across visitors inside",
        "each rank, so wall clock drops as threads grow while the traversal",
        "result (the level fingerprint) and the wire integrity counters are",
        "untouched: parallelism lives strictly between the coordinator's",
        "mailbox interactions.",
    ]);
}
