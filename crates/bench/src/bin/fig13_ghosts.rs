//! Figure 13: percent improvement from ghost vertices vs. no ghosts.
//! Paper: 4096 BG/P cores, 2^30-vertex RMAT; 1 ghost already buys >12 %,
//! 512 ghosts ~19.5 %; all other BFS experiments use 256 ghosts per
//! partition.
//!
//! The simulation sweeps ghosts/partition and reports both the wall-clock
//! improvement and the machine-independent savings: payload messages
//! filtered before ever reaching the network, and the receive-hotspot
//! imbalance across ranks.
//!
//! Wall-clock honesty: shared-memory channels make a message as cheap as
//! the ghost-table lookup that would filter it, which hides the effect the
//! paper measures (BG/P's per-message receive overhead serializing at hub
//! masters). The sweep therefore runs under the mailbox's network cost
//! model (500 ns per delivered payload — conservative versus BG/P MPI's
//! multi-microsecond receive path).
//!
//! Rows k ≥ 1 also carry the per-vertex ghost filter behind the k hub
//! slots (DESIGN.md §5, item 9), which `ghosts = 0` turns off with them.
//! Every row must reach the k = 0 row's BFS level digest and send no more
//! payloads than it; the binary asserts both.

use havoq_bench::{csv_row, ms, pick, Experiment};
use havoq_comm::CommWorld;
use havoq_core::algorithms::bfs::{bfs, level_digest, BfsConfig};
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;

fn main() {
    let ranks: usize = pick(4, 8);
    let scale: u32 = pick(11, 14);
    let ghost_counts: &[usize] =
        pick(&[0, 16][..], &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512][..]);

    let mut exp = Experiment::begin(
        &[&format!("Figure 13 — ghost-vertex sweep (RMAT scale {scale}, {ranks} ranks)")],
        "fig13_ghosts.csv",
        &["ghosts", "time_ms", "improve%", "payload_sent", "filtered", "recv_imb"],
        &[
            "ghosts",
            "time_ms",
            "improvement_pct",
            "payload_sent",
            "ghost_filtered",
            "receive_imbalance",
        ],
    );

    let gen = RmatGenerator::graph500(scale);
    let mut base_ms = 0.0f64;
    // k = 0's level digest and payload count: what every other row must
    // reach, and must not exceed
    let mut base: Option<(u64, u64)> = None;
    for &k in ghost_counts {
        // best-of-3 to damp single-core scheduling noise
        let mut best: Option<(std::time::Duration, u64, u64, f64, u64)> = None;
        for _ in 0..3 {
            let out = CommWorld::run(ranks, |ctx| {
                let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
                local.extend(
                    local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()),
                );
                let g = DistGraph::build(
                    ctx,
                    local,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let mut cfg = BfsConfig::default().with_ghosts(k);
                cfg.traversal.mailbox.recv_cost_ns = 500;
                let r = bfs(ctx, &g, VertexId(0), &cfg);
                let digest = ctx.all_reduce_sum(level_digest(&g, |li| r.local_state[li].length));
                let sent = ctx.all_reduce_sum(r.stats.payload_sent);
                let filtered = ctx.all_reduce_sum(r.stats.ghost_filtered);
                let max_recv = ctx.all_reduce_max(r.stats.payload_received);
                let sum_recv = ctx.all_reduce_sum(r.stats.payload_received);
                let imbalance = max_recv as f64 / (sum_recv as f64 / ctx.size() as f64);
                (r.elapsed, sent, filtered, imbalance, digest)
            });
            let elapsed = out.iter().map(|o| o.0).max().unwrap();
            let cand = (elapsed, out[0].1, out[0].2, out[0].3, out[0].4);
            if best.map(|b| cand.0 < b.0).unwrap_or(true) {
                best = Some(cand);
            }
        }
        let (elapsed, sent, filtered, recv_imb, digest) = best.unwrap();
        let (base_digest, base_sent) = *base.get_or_insert((digest, sent));
        assert_eq!(digest, base_digest, "k={k}: BFS levels diverged from k=0");
        assert!(sent <= base_sent, "k={k}: {sent} payloads sent, more than k=0's {base_sent}");
        let t = elapsed.as_secs_f64() * 1e3;
        if k == 0 {
            base_ms = t;
        }
        let improve = 100.0 * (base_ms - t) / base_ms;
        exp.row2(
            &csv_row![
                k,
                ms(elapsed),
                format!("{improve:.1}"),
                sent,
                filtered,
                format!("{recv_imb:.3}")
            ],
            &csv_row![k, t, improve, sent, filtered, recv_imb],
        );
    }
    exp.finish(&[
        "Paper shape: a single ghost per partition already improves BFS by",
        ">12%, rising to ~19.5% at 512 ghosts. Here rows k >= 1 also carry the",
        "per-vertex filter behind the hub slots, so on a graph the filter",
        "covers, k = 1 already removes nearly every redundant payload and the",
        "paper's hub-count curve is no longer separable: the filtered column",
        "counts hub and filter drops together. Every row reached k = 0's BFS",
        "levels with no more payloads sent (asserted).",
    ]);
}
