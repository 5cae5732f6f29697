//! Large-p probe: what one collective and one traversal cost in time and
//! resident memory as the world grows (ROADMAP item 6, step 1).
//!
//! A collective is O(p) messages; this prints what it actually costs, so a
//! per-call or per-traversal O(p²) allocation shows up as microseconds and
//! bytes that grow with p instead of as a slow `paper_rows` run.
//!
//! Usage: `cargo run --release --example large_p_probe [ROW]`
//!
//! Without arguments: the rows `all_reduce 2`, `all_reduce 16`,
//! `all_reduce 64` and `bfs 2` (scale-10 BFS ops), each in a child process
//! of its own so that memory one row frees cannot hide what the next one
//! leaks (a few seconds in all). `all_reduce P CALLS` overrides the call
//! count (40 000 / P): a leak grows with it, the allocator settling across
//! P threads does not. `world P` (e.g. 64 or 256): scale-12 BFS ops plus one
//! `kcore_decomposition` on P ranks, with RSS before and after (p = 256
//! took 3.3 GB at the parent of PR 24).

use std::time::Instant;

use havoq::prelude::*;

/// A `kB` field of `/proc/self/status` in bytes: `VmRSS` is the resident set
/// size now, `VmHWM` its peak so far. 0 off Linux, which turns the growth
/// columns into zeros, not errors.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'));
    line.and_then(|kb| kb.trim().trim_end_matches(" kB").parse::<u64>().ok())
        .map_or(0, |kb| kb << 10)
}

fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// `iters` timed `all_reduce_sum` calls after a warm-up; returns rank 0's
/// (µs per call, RSS bytes grown per call).
fn probe_all_reduce(p: usize, iters: u64) -> (f64, f64) {
    CommWorld::run(p, |ctx| {
        for i in 0..iters.min(200) {
            ctx.all_reduce_sum(i);
        }
        ctx.barrier();
        let (rss, t) = (rss_bytes(), Instant::now());
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(ctx.all_reduce_sum(i));
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / iters as f64;
        ctx.barrier();
        std::hint::black_box(acc);
        (us, rss_bytes().saturating_sub(rss) as f64 / iters as f64)
    })
    .remove(0)
}

/// `ops` BFS traversals of one scale-`scale` RMAT graph in one world;
/// returns rank 0's (ms per op, RSS bytes grown per op).
fn probe_bfs(p: usize, scale: u32, ops: u64) -> (f64, f64) {
    let edges = RmatGenerator::graph500(scale).symmetric_edges(42);
    CommWorld::run(p, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default(),
        );
        let run = |n: u64| {
            for i in 0..n {
                std::hint::black_box(bfs(ctx, &g, VertexId(i % 64), &BfsConfig::default()));
            }
        };
        run(ops.min(50));
        ctx.barrier();
        let (rss, t) = (rss_bytes(), Instant::now());
        run(ops);
        let ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;
        ctx.barrier();
        (ms, rss_bytes().saturating_sub(rss) as f64 / ops as f64)
    })
    .remove(0)
}

/// BFS ops plus one k-core decomposition on a `p`-rank world.
fn probe_world(p: usize) {
    let (scale, ops) = if p > 64 { (12, 3u64) } else { (12, 10) };
    let edges = RmatGenerator::graph500(scale).symmetric_edges(42);
    let mb = |b: u64| b as f64 / (1 << 20) as f64;
    let start = rss_bytes();
    let (bfs_ms, kcore_s, max_core) = CommWorld::run(p, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default(),
        );
        let t = Instant::now();
        for i in 0..ops {
            std::hint::black_box(bfs(ctx, &g, VertexId(i), &BfsConfig::default()));
        }
        let bfs_ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;
        let t = Instant::now();
        let d = kcore_decomposition(ctx, &g, &KCoreConfig::default());
        (bfs_ms, t.elapsed().as_secs_f64(), d.max_core)
    })
    .remove(0);
    println!(
        "p={p}: scale-{scale} BFS {bfs_ms:.1} ms/op x{ops}, kcore_decomposition {kcore_s:.1} s \
         (max core {max_core}), RSS {:.0} MB before the world, {:.0} MB at its peak",
        mb(start),
        mb(status_bytes("VmHWM"))
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = || args[1].parse().expect("rank count");
    match args.first().map(String::as_str) {
        None => {
            let rows = ["all_reduce 2", "all_reduce 16", "all_reduce 64", "bfs 2"];
            let exe = std::env::current_exe().expect("own path");
            for row in rows {
                let ok = std::process::Command::new(&exe).args(row.split(' ')).status();
                assert!(ok.is_ok_and(|s| s.success()), "row `{row}` failed");
            }
        }
        Some("all_reduce") => {
            let iters = args.get(2).map_or(40_000 / p() as u64, |n| n.parse().expect("call count"));
            let (us, grown) = probe_all_reduce(p(), iters);
            println!("p={}: all_reduce_sum x{iters}: {us:.2} us/call, RSS {grown:.1} B/call", p());
        }
        Some("bfs") => {
            let (ms, grown) = probe_bfs(p(), 10, 3000);
            println!("p={}: scale-10 BFS x3000: {ms:.3} ms/op, RSS {grown:.0} B/op", p());
        }
        Some("world") => probe_world(p()),
        Some(other) => panic!("unknown row `{other}` (all_reduce P [CALLS] | bfs P | world P)"),
    }
}
