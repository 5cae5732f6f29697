//! Full Graph500-style benchmark run, the protocol behind the paper's
//! Figure 5 / Table II submissions: generate an RMAT graph, construct the
//! distributed data structure (timed), run BFS from a sample of random
//! search keys with nonzero degree, *validate every BFS tree*, and report
//! the TEPS statistics (min/harmonic-mean/max) the benchmark defines.
//!
//! The graph is constructed once and reused for every (search key ×
//! thread count) BFS: each key runs at every intra-rank worker-pool size
//! in the sweep (default 1/2/4; `--threads N` pins a single size), and a
//! per-thread-count TEPS summary table reports the worker-pool speedup at
//! the end. Every tree is validated at every thread count, and the
//! traversed-edge count per key must not depend on the thread count.
//!
//! Search keys come from [`havoq_bench::select_search_keys`]: distinct,
//! nonzero-degree, agreed on by every rank, and *loudly* failing (instead
//! of silently shrinking the key set) when the graph cannot supply them.
//!
//! `--batch K` switches to the batched multi-source mode (DESIGN.md §12):
//! the same keys run first through the sequential per-key loop and then
//! through [`QueryBatch`] in chunks of K sharing one traversal each. The
//! per-key results must be bit-identical (visited count, traversed edges,
//! max level, and the full level array fingerprint — asserted), and the
//! aggregate key throughput speedup of the batched pass is reported.

use havoq_bench::{csv_row, overhead_pct, pick, Experiment};
use std::time::Duration;

use havoq_comm::{CommWorld, Event, EventCounts, FaultConfig, RankCtx};
use havoq_core::algorithms::bfs::{bfs, level_digest, BfsConfig};
use havoq_core::algorithms::validate::validate_bfs;
use havoq_core::batch::{BatchConfig, QueryBatch, MAX_BATCH};
use havoq_core::direction::{direction_bfs, DirectionMode};
use havoq_core::CheckpointSpec;
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;

fn main() {
    match (havoq_bench::batch(), havoq_bench::direction()) {
        (Some(k), _) => run_batched(k),
        (None, Some(mode)) if mode != DirectionMode::Async => run_direction_compare(mode),
        _ => run_thread_sweep(),
    }
}

/// World digest of a BFS level array ([`level_digest`] summed over ranks):
/// identical level arrays (the schedule-invariant part of a BFS — parents
/// are not) yield identical digests on every rank.
fn level_fingerprint(ctx: &RankCtx, g: &DistGraph, length_of: impl Fn(usize) -> u64) -> u64 {
    ctx.all_reduce_sum(level_digest(g, length_of))
}

/// The slowest rank's elapsed time, in seconds — the number the aggregate
/// key-throughput comparison is honest about.
fn world_elapsed(ctx: &RankCtx, local: std::time::Duration) -> f64 {
    ctx.all_reduce_max(local.as_nanos() as u64) as f64 / 1e9
}

/// Announce the checkpoint and fault knobs, build the RMAT graph on
/// `ranks` ranks (under the lossy chaos plan when `--faults` is set), and
/// run `f` on every rank with the graph, its construction time and
/// `num_keys` search keys.
fn run_world<R: Send>(
    scale: u32,
    ranks: usize,
    num_keys: usize,
    f: impl Fn(&RankCtx, &DistGraph, Duration, &[VertexId]) -> R + Sync,
) -> Vec<R> {
    if let Some(e) = havoq_bench::checkpoint_every() {
        println!("checkpointing every {e} visitors/rank into the NVRAM store");
    }
    let fault_seed = havoq_bench::faults();
    if let Some(s) = fault_seed {
        println!(
            "fault injection: lossy chaos plan, seed {s:#x} \
             (frame corruption + loss healed by CRC + NACK/retransmit)"
        );
    }
    let gen = RmatGenerator::graph500(scale);
    CommWorld::run_with_faults(ranks, fault_seed.map(FaultConfig::lossy), |ctx| {
        let t0 = std::time::Instant::now();
        let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
        local.extend(local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()));
        let g = DistGraph::build(ctx, local, PartitionStrategy::EdgeList, GraphConfig::default());
        ctx.barrier();
        let construction = t0.elapsed();
        // distinct nonzero-degree search keys, agreed on by every rank;
        // fails loudly if the graph cannot supply `num_keys` of them
        let keys = havoq_bench::select_search_keys(ctx, &g, num_keys)
            .unwrap_or_else(|e| panic!("search-key selection failed: {e}"));
        f(ctx, &g, construction, &keys)
    })
}

/// The report line for the integrity machinery's world totals: injected
/// corruption/loss and the repair traffic that healed it.
fn integrity_note(over: &str, e: &EventCounts, validated: &str) -> String {
    format!(
        "integrity over {over}: {} corrupt frames detected, {} injected drops, \
         {} retransmits, {} NACKs (all repaired; {validated})",
        e[Event::CorruptDetected],
        e[Event::FaultDrop],
        e[Event::Retransmit],
        e[Event::Nack]
    )
}

/// The `--batch K` mode: sequential per-key pass, then the batched
/// multi-source pass over the same keys, bit-identical results asserted,
/// aggregate speedup reported.
fn run_batched(k: usize) {
    let k = k.clamp(1, MAX_BATCH);
    let scale: u32 = pick(9, 12);
    let ranks: usize = pick(2, 4);
    let num_keys: usize = pick(8, 64);
    let threads = havoq_bench::threads().unwrap_or(1).max(1);
    let spec = havoq_bench::checkpoint_every().map(|e| CheckpointSpec::default().with_every(e));

    println!(
        "Graph500 batched mode: RMAT scale {scale}, {ranks} ranks, {num_keys} keys, \
         batch width {k}, {threads} worker thread(s)/rank"
    );
    let results = run_world(scale, ranks, num_keys, |ctx, g, _, keys| {
        // --- sequential reference pass: one traversal per key ---
        // only the traversals are timed; validation and fingerprinting are
        // equivalence checks, not part of either pass's served throughput
        let mut events = EventCounts::default();
        let mut serial_local = std::time::Duration::ZERO;
        let mut serial = Vec::new(); // (visited, traversed, max_level, level_fp)
        for &key in keys {
            let mut bcfg = BfsConfig::default();
            bcfg.traversal.threads = threads;
            if let Some(s) = spec {
                bcfg = bcfg.with_checkpoint(s);
            }
            let t = std::time::Instant::now();
            let r = bfs(ctx, g, key, &bcfg);
            serial_local += t.elapsed();
            let report = validate_bfs(ctx, g, key, &r.local_state);
            assert!(report.is_valid(), "sequential tree for key {key:?} invalid: {report:?}");
            let fp = level_fingerprint(ctx, g, |li| r.local_state[li].length);
            serial.push((r.visited_count, r.traversed_edges, r.max_level, fp));
            events += r.stats.events;
        }
        let serial_secs = world_elapsed(ctx, serial_local);

        // --- batched pass: chunks of up to K keys share one traversal ---
        let mut batched_local = std::time::Duration::ZERO;
        let mut batched = Vec::new();
        let mut chunk_rows = Vec::new(); // (width, secs, traversed_sum)
        for chunk in keys.chunks(k) {
            let mut qb = QueryBatch::new(k);
            for &s in chunk {
                qb.try_admit(s).expect("chunk cannot exceed batch capacity");
            }
            let mut bc = BatchConfig::default().with_threads(threads);
            if let Some(s) = spec {
                bc = bc.with_checkpoint(s);
            }
            let tc = std::time::Instant::now();
            let res = qb.run_bfs(ctx, g, &bc);
            let chunk_elapsed = tc.elapsed();
            batched_local += chunk_elapsed;
            let chunk_secs = world_elapsed(ctx, chunk_elapsed);
            res.ledger.check(chunk.len()).expect("per-query ledger must sum to batch totals");
            let mut traversed_sum = 0u64;
            for (qi, &key) in chunk.iter().enumerate() {
                let agg = &res.per_query[qi];
                let report = validate_bfs(ctx, g, key, &res.local_state[qi]);
                assert!(report.is_valid(), "batched tree for key {key:?} invalid: {report:?}");
                let fp = level_fingerprint(ctx, g, |li| res.local_state[qi][li].length);
                batched.push((agg.visited_count, agg.traversed_edges, agg.max_level, fp));
                traversed_sum += agg.traversed_edges;
            }
            chunk_rows.push((chunk.len(), chunk_secs, traversed_sum));
            events += res.stats.events;
        }
        let batched_secs = world_elapsed(ctx, batched_local);

        let events = ctx.all_reduce_events(events);
        (keys.to_vec(), serial, batched, serial_secs, batched_secs, chunk_rows, events)
    });

    let (keys, serial, batched, serial_secs, batched_secs, chunk_rows, events) = &results[0];

    // bit-identical equivalence, the acceptance gate: every per-key
    // aggregate and the full level-array digest must match the sequential
    // reference exactly
    for (i, (s, b)) in serial.iter().zip(batched).enumerate() {
        assert_eq!(
            s, b,
            "key {:?}: batched (visited, traversed, max_level, level_fp) diverged from sequential",
            keys[i]
        );
    }

    let mut exp = Experiment::begin(
        &[&format!(
            "batched equivalence: {} keys bit-identical to the sequential reference",
            keys.len()
        )],
        "graph500_batch.csv",
        &["chunk", "width", "time_ms", "agg_MTEPS"],
    );
    for (i, (width, secs, traversed)) in chunk_rows.iter().enumerate() {
        let mteps = *traversed as f64 / secs.max(1e-12) / 1e6;
        exp.row(&csv_row![i, width, format!("{:.3}", secs * 1e3), format!("{mteps:.3}")]);
    }

    // aggregate key throughput: keys per second over the whole pass
    let serial_kps = keys.len() as f64 / serial_secs.max(1e-12);
    let batched_kps = keys.len() as f64 / batched_secs.max(1e-12);
    let speedup = batched_kps / serial_kps;
    let notes = [
        format!(
            "sequential pass: {} keys in {:.2} ms ({serial_kps:.1} keys/s)",
            keys.len(),
            serial_secs * 1e3
        ),
        format!(
            "batched pass (width {k}): {} keys in {:.2} ms ({batched_kps:.1} keys/s)",
            keys.len(),
            batched_secs * 1e3
        ),
        format!("aggregate key-throughput speedup: {speedup:.2}x"),
        integrity_note("both passes", events, "every tree validated"),
    ];
    exp.finish(&notes);
    if speedup < 2.0 {
        println!(
            "WARNING: batched speedup {speedup:.2}x below the 2x target \
             (expected on tiny quick-mode graphs where per-traversal setup dominates)"
        );
    }
}

/// The `--direction {top,bottom,auto}` mode (DESIGN.md §13): every search
/// key runs twice through the level-synchronous engine — forced top-down,
/// then the requested policy — asserting bit-identical level fingerprints
/// in-binary while reporting the edge-inspection and TEPS deltas, with a
/// per-level `dir=top|bottom` trace table per key.
fn run_direction_compare(mode: DirectionMode) {
    let scale: u32 = pick(10, 18);
    let ranks: usize = pick(2, 4);
    let num_keys: usize = pick(3, 8);
    let threads = havoq_bench::threads().unwrap_or(1).max(1);
    let ckpt_every = havoq_bench::checkpoint_every();

    println!(
        "Graph500 direction mode: {mode:?} vs forced top-down, RMAT scale {scale}, \
         {ranks} ranks, {num_keys} search keys, {threads} worker thread(s)/rank"
    );
    let results = run_world(scale, ranks, num_keys, |ctx, g, construction, keys| {
        let run_one = |key, m: DirectionMode| {
            let mut cfg = BfsConfig::default().with_direction(m).with_threads(threads);
            if let Some(every) = ckpt_every {
                cfg = cfg.with_checkpoint(CheckpointSpec::default().with_every(every));
            }
            let t = std::time::Instant::now();
            let run = direction_bfs(ctx, g, key, &cfg);
            let secs = world_elapsed(ctx, t.elapsed());
            let report = validate_bfs(ctx, g, key, &run.result.local_state);
            assert!(report.is_valid(), "{m:?} tree for key {key:?} invalid: {report:?}");
            let fp = level_fingerprint(ctx, g, |li| run.result.local_state[li].length);
            (fp, run.edges_inspected, run.result.traversed_edges, secs, run.trace)
        };

        let mut rows = Vec::new();
        for &key in keys {
            let (top_fp, top_insp, top_trav, top_secs, _) = run_one(key, DirectionMode::TopDown);
            let (fp, insp, trav, secs, trace) = run_one(key, mode);
            // the in-binary equivalence gate: identical level arrays
            assert_eq!(
                fp, top_fp,
                "key {key:?}: {mode:?} level fingerprint diverged from forced top-down"
            );
            assert_eq!(trav, top_trav, "key {key:?}: traversed-edge count diverged");
            rows.push((key.0, top_insp, insp, top_trav, top_secs, secs, trace));
        }
        (construction, rows)
    });

    let (construction, rows) = &results[0];
    let mut exp = Experiment::begin(
        &[&format!("construction time: {construction:?} (built once, reused for every BFS)")],
        "graph500_direction.csv",
        &["key", "top_insp", "mode_insp", "insp_ratio", "top_MTEPS", "mode_MTEPS", "sched"],
    );
    let mut top_total = 0u64;
    let mut mode_total = 0u64;
    for (key, top_insp, insp, trav, top_secs, secs, trace) in rows {
        top_total += top_insp;
        mode_total += insp;
        let ratio = *top_insp as f64 / (*insp).max(1) as f64;
        let top_mteps = *trav as f64 / top_secs.max(1e-12) / 1e6;
        let mode_mteps = *trav as f64 / secs.max(1e-12) / 1e6;
        let sched: String =
            trace.iter().map(|t| if t.dir.label() == "top" { 'T' } else { 'B' }).collect();
        let (ratio, top_mteps, mode_mteps) =
            (format!("{ratio:.3}"), format!("{top_mteps:.3}"), format!("{mode_mteps:.3}"));
        exp.row(&csv_row![key, top_insp, insp, ratio, top_mteps, mode_mteps, sched]);
    }

    // per-level direction traces: the dir=top|bottom column per key
    for (key, _, _, _, _, _, trace) in rows {
        println!("\nper-level trace, key {key}:");
        havoq_bench::print_header(&[
            "level",
            "dir",
            "frontier",
            "frontier_edges",
            "inspected",
            "candidates",
        ]);
        for t in trace {
            havoq_bench::print_row(&csv_row![
                t.level,
                t.dir.label(),
                t.frontier,
                t.frontier_edges,
                t.inspected,
                t.candidates
            ]);
        }
    }

    let aggregate_ratio = top_total as f64 / mode_total.max(1) as f64;
    let notes = [
        format!(
            "aggregate inspections: top-down {top_total}, {mode:?} {mode_total} \
             ({aggregate_ratio:.2}x fewer)"
        ),
        "level fingerprints and traversed-edge counts bit-identical to forced top-down on every \
         key (asserted in-binary)"
            .to_string(),
    ];
    exp.finish(&notes);

    // the acceptance gate: at Graph500 submission scale the heuristic must
    // cut edge inspections at least 3x on the RMAT workload
    if mode == DirectionMode::Auto && scale >= 18 {
        assert!(
            aggregate_ratio >= 3.0,
            "direction-optimizing BFS inspected only {aggregate_ratio:.2}x fewer edges than \
             top-down at scale {scale} (gate: >= 3x)"
        );
    }
}

/// The classic mode: per-key sequential BFS swept over worker-pool sizes.
fn run_thread_sweep() {
    let scale: u32 = pick(10, 14);
    let ranks: usize = pick(2, 8);
    let num_keys: usize = pick(4, 16); // official runs use 64
    let ckpt_every = havoq_bench::checkpoint_every();
    let tcs: Vec<usize> = match havoq_bench::threads() {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4],
    };

    println!("Graph500-style run: RMAT scale {scale}, {ranks} ranks, {num_keys} search keys");
    println!("intra-rank worker threads swept over {tcs:?} (same graph, same keys)");
    let results = run_world(scale, ranks, num_keys, |ctx, g, construction, keys| {
        let mut runs = Vec::new();
        for &key in keys {
            // the built graph is shared by every thread count for this key
            for &threads in &tcs {
                let mut bcfg = BfsConfig::default();
                bcfg.traversal.threads = threads;
                if let Some(every) = ckpt_every {
                    bcfg = bcfg.with_checkpoint(CheckpointSpec::default().with_every(every));
                }
                let r = bfs(ctx, g, key, &bcfg);
                let report = validate_bfs(ctx, g, key, &r.local_state);
                let wire_bytes = ctx.all_reduce_sum(r.stats.bytes_sent);
                // world totals of the event table for this run: injected
                // corruption/loss and the repair traffic that healed it
                let events = ctx.all_reduce_events(r.stats.events);
                runs.push((
                    key.0,
                    threads,
                    r.traversed_edges,
                    r.elapsed,
                    report.is_valid(),
                    wire_bytes,
                    r.stats.checkpoint_time,
                    events,
                ));
            }
        }
        (construction, runs)
    });

    let (construction, runs) = &results[0];
    let mut exp = Experiment::begin(
        &[&format!("construction time: {construction:?} (built once, reused for every BFS)")],
        "graph500_run.csv",
        &["key", "threads", "traversed", "time_ms", "MTEPS", "valid", "wire_KiB", "ckpt_ovh%"],
    );
    // per-thread-count TEPS populations for the summary table
    let mut teps_by_tc: Vec<Vec<f64>> = vec![Vec::new(); tcs.len()];
    let mut all_valid = true;
    let mut total_ck = std::time::Duration::ZERO;
    let mut total_elapsed = std::time::Duration::ZERO;
    let mut events = EventCounts::default();
    let mut traversed_by_key: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::new();
    for (i, (key, threads, traversed, _elapsed, valid, wire_bytes, _ck, run_events)) in
        runs.iter().enumerate()
    {
        events += *run_events;
        // the BFS tree may differ across thread counts (ties), but the
        // traversed-edge count is part of the traversal fingerprint and
        // must not
        let prev = traversed_by_key.entry(*key).or_insert(*traversed);
        assert_eq!(*prev, *traversed, "traversed edges for key {key} changed at threads={threads}");
        // use the slowest rank's elapsed (and checkpoint time) for this run
        let elapsed = results.iter().map(|(_, rs)| rs[i].3).max().unwrap();
        let ck_time = results.iter().map(|(_, rs)| rs[i].6).max().unwrap();
        let ck_ovh = overhead_pct(ck_time, elapsed);
        total_ck += ck_time;
        total_elapsed += elapsed;
        let t = *traversed as f64 / elapsed.as_secs_f64();
        teps_by_tc[tcs.iter().position(|tc| tc == threads).unwrap()].push(t);
        all_valid &= *valid;
        let (ms, mteps) = (elapsed.as_secs_f64() * 1e3, t / 1e6);
        let (ms, mteps, ck_ovh) =
            (format!("{ms:.3}"), format!("{mteps:.3}"), format!("{ck_ovh:.2}"));
        exp.row(&csv_row![key, threads, traversed, ms, mteps, valid, wire_bytes / 1024, ck_ovh]);
    }

    // per-thread-count TEPS summary: the Graph500 statistics at every
    // worker-pool size, plus harmonic-mean speedup over the serial rows
    println!();
    havoq_bench::print_header(&["threads", "min_MTEPS", "harm_MTEPS", "max_MTEPS", "speedup"]);
    // harmonic mean over the *finite, nonzero* TEPS population: a
    // zero-TEPS key (degenerate timer, empty traversal) is skipped loudly
    let harm = |ts: &[f64]| {
        let usable: Vec<f64> = ts.iter().copied().filter(|t| t.is_finite() && *t > 0.0).collect();
        let skipped = ts.len() - usable.len();
        if skipped > 0 {
            println!(
                "WARNING: {skipped} of {} TEPS samples zero or non-finite; \
                 excluded from the harmonic mean",
                ts.len()
            );
        }
        if usable.is_empty() {
            return 0.0;
        }
        usable.len() as f64 / usable.iter().map(|t| 1.0 / t).sum::<f64>()
    };
    let base_harm = harm(&teps_by_tc[0]).max(f64::MIN_POSITIVE);
    let mut summary_lines = Vec::new();
    for (tc, ts) in tcs.iter().zip(&teps_by_tc) {
        let min = ts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ts.iter().cloned().fold(0.0, f64::max);
        let h = harm(ts);
        havoq_bench::print_row(&csv_row![
            tc,
            format!("{:.2}", min / 1e6),
            format!("{:.2}", h / 1e6),
            format!("{:.2}", max / 1e6),
            format!("{:.2}x", h / base_harm)
        ]);
        summary_lines.push(format!(
            "threads={tc}: TEPS min/harm/max {:.2}/{:.2}/{:.2} MTEPS ({:.2}x)",
            min / 1e6,
            h / 1e6,
            max / 1e6,
            h / base_harm
        ));
    }

    let notes: Vec<String> = summary_lines
        .into_iter()
        .chain([
            format!(
                "checkpoint overhead over all runs: {:.2}%",
                overhead_pct(total_ck, total_elapsed)
            ),
            integrity_note("all runs", &events, "trees validated below"),
            format!("all trees valid: {all_valid}"),
        ])
        .collect();
    exp.finish(&notes);
    assert!(all_valid, "Graph500 validation failed");
}
