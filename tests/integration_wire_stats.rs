//! Acceptance tests for the byte-framed wire layer, driven by fixed-seed
//! RMAT traffic:
//!
//! - **Item-level identity** — at the default configuration the frame
//!   packing must not change any item-level statistic: per-pair message
//!   and payload counts, the aggregation factor, and the channels used
//!   are byte-for-byte the same as with framing effectively disabled
//!   (`frame_bytes` huge, channels unbounded), because `batch_size`
//!   remains the binding flush trigger. A live asynchronous traversal's
//!   flush boundaries depend on thread scheduling, so the identity is
//!   checked on a deterministic lock-step exchange of the same fixed-seed
//!   RMAT edges (all sends, one flush, then drain); the BFS answer itself
//!   is additionally asserted identical across configurations.
//! - **Byte-level population** — the new statistics (bytes per pair,
//!   frames, fill ratio, stalls) are populated and self-consistent on a
//!   real fixed-seed RMAT BFS: global bytes sent == bytes received, the
//!   transport byte matrix sums to the mailbox totals, every mean frame
//!   fill lies in `(0, 1]` and no frame holds more than its capacity.
//! - **Backpressure** — with `channel_capacity = 1` the same traversal
//!   still terminates with identical results while recording stalls.

use havoq::prelude::*;
use havoq_comm::{ChannelStatsSnapshot, MailboxConfig, MailboxStatsSnapshot};
use havoq_core::algorithms::bfs::BfsVisitor;
use havoq_core::queue::TraversalStats;

const RANKS: usize = 4;
const SCALE: u32 = 10;

struct RankOutcome {
    levels: Vec<u64>,
    stats: TraversalStats,
    transport: ChannelStatsSnapshot,
}

/// Deterministic BFS-shaped traffic: every rank sends one record per edge
/// of its slice of the fixed-seed RMAT list, addressed by the destination
/// vertex, with all sends issued before the single flush and drain. Flush
/// boundaries then depend only on the configuration, never on scheduling.
fn deterministic_exchange(cfg: MailboxConfig) -> Vec<(MailboxStatsSnapshot, ChannelStatsSnapshot)> {
    let edges = havoq_graph::gen::rmat::RmatGenerator::graph500(SCALE).symmetric_edges(42);
    CommWorld::run(RANKS, move |ctx| {
        let mut mb = havoq_comm::Mailbox::<u64>::open(ctx, 7, cfg);
        let mut q = Quiescence::new(ctx, 7);
        for (i, e) in edges.iter().enumerate() {
            if i % RANKS == ctx.rank() {
                mb.send(e.dst as usize % RANKS, e.src ^ e.dst);
            }
        }
        let mut got = Vec::new();
        loop {
            if mb.poll(&mut got) == 0 {
                mb.flush();
                if q.poll(mb.sent_count(), mb.received_count(), mb.pending_out() == 0) {
                    break;
                }
            }
        }
        ctx.barrier();
        (mb.stats(), mb.transport_stats())
    })
}

fn run_bfs(mailbox: MailboxConfig) -> Vec<RankOutcome> {
    let edges = havoq_graph::gen::rmat::RmatGenerator::graph500(SCALE).symmetric_edges(42);
    CommWorld::run(RANKS, move |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default(),
        );
        let mut cfg = BfsConfig::default();
        cfg.traversal.mailbox = mailbox;
        let r = bfs(ctx, &g, VertexId(0), &cfg);
        let levels = g
            .local_vertices()
            .filter(|&v| g.is_master(v))
            .map(|v| r.local_state[g.local_index(v)].length)
            .collect();
        RankOutcome { levels, stats: r.stats, transport: r.transport }
    })
}

fn pair_matrices(snap: &ChannelStatsSnapshot) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let msgs = (0..RANKS).map(|s| (0..RANKS).map(|d| snap.msgs_between(s, d)).collect()).collect();
    let items =
        (0..RANKS).map(|s| (0..RANKS).map(|d| snap.items_between(s, d)).collect()).collect();
    (msgs, items)
}

#[test]
fn framing_preserves_item_level_stats() {
    let framed = deterministic_exchange(MailboxConfig::default());
    // Framing "off": frames big enough to never bind, channels unbounded.
    let unframed = deterministic_exchange(
        MailboxConfig::default().with_frame_bytes(1 << 22).with_channel_capacity(None),
    );

    // Item-level statistics are identical: per-pair message and payload
    // matrices, aggregation factor, channel counts.
    let (msgs_a, items_a) = pair_matrices(&framed[0].1);
    let (msgs_b, items_b) = pair_matrices(&unframed[0].1);
    assert_eq!(msgs_a, msgs_b, "per-pair message counts changed under framing");
    assert_eq!(items_a, items_b, "per-pair payload counts changed under framing");
    let (snap_a, snap_b) = (&framed[0].1, &unframed[0].1);
    assert_eq!(snap_a.max_channels_used(), snap_b.max_channels_used());
    assert!((snap_a.aggregation_factor() - snap_b.aggregation_factor()).abs() < 1e-12);
    // End-to-end payload counts agree too.
    let sent_a: u64 = framed.iter().map(|(m, _)| m.sent).sum();
    let sent_b: u64 = unframed.iter().map(|(m, _)| m.sent).sum();
    assert_eq!(sent_a, sent_b);

    // The BFS answer itself is unchanged by the frame configuration.
    let bfs_framed = run_bfs(MailboxConfig::default());
    let bfs_unframed =
        run_bfs(MailboxConfig::default().with_frame_bytes(1 << 22).with_channel_capacity(None));
    for (a, b) in bfs_framed.iter().zip(&bfs_unframed) {
        assert_eq!(a.levels, b.levels);
    }
}

#[test]
fn byte_level_stats_are_populated_and_consistent() {
    let out = run_bfs(MailboxConfig::default());

    let sent: u64 = out.iter().map(|o| o.stats.bytes_sent).sum();
    let received: u64 = out.iter().map(|o| o.stats.bytes_received).sum();
    let frames: u64 = out.iter().map(|o| o.stats.frames_sent).sum();
    assert!(sent > 0, "no wire bytes recorded");
    assert!(frames > 0, "no frames recorded");
    assert_eq!(sent, received, "wire bytes not conserved");

    // The transport's byte matrix is the same accounting, per (src, dst).
    assert_eq!(out[0].transport.total_bytes(), sent);

    // How full frames run depends on how often an idle flush ships a
    // partial one, i.e. on scheduling; that a fill is a fraction of a
    // frame, and that no frame carries more than a full one, does not.
    for (rank, o) in out.iter().enumerate() {
        let fill = o.stats.mean_frame_fill;
        if o.stats.frames_sent > 0 {
            assert!(fill > 0.0 && fill <= 1.0, "rank {rank}: mean frame fill {fill}");
        }
    }
    let per_frame = CommWorld::run(1, |ctx| {
        let mb = havoq_comm::Mailbox::<BfsVisitor>::open(ctx, 7, MailboxConfig::default());
        mb.frame_capacity_records() as u64
    })[0];
    let transport = &out[0].transport;
    assert!(
        transport.total_msgs() >= transport.total_items().div_ceil(per_frame),
        "{} frames cannot hold {} records at {per_frame} a frame",
        transport.total_msgs(),
        transport.total_items()
    );

    // No stalls at the default (deep) channel capacity.
    assert_eq!(out.iter().map(|o| o.stats.backpressure_stalls).sum::<u64>(), 0);
}

#[test]
fn tight_channel_capacity_stalls_but_terminates_identically() {
    let relaxed = run_bfs(MailboxConfig::default());
    let tight = run_bfs(MailboxConfig::default().with_channel_capacity(Some(1)));

    for (a, b) in relaxed.iter().zip(&tight) {
        assert_eq!(a.levels, b.levels, "backpressure changed the BFS result");
    }
    let stalls: u64 = tight.iter().map(|o| o.stats.backpressure_stalls).sum();
    assert!(stalls > 0, "capacity-1 channels recorded no backpressure stalls");

    // Item-level traffic is unchanged by the bounded channel: frame
    // boundaries are fixed by send order and batch_size, so the
    // deterministic exchange ships the same per-pair matrices.
    let ex_relaxed = deterministic_exchange(MailboxConfig::default());
    let ex_tight = deterministic_exchange(MailboxConfig::default().with_channel_capacity(Some(1)));
    let (msgs_a, items_a) = pair_matrices(&ex_relaxed[0].1);
    let (msgs_b, items_b) = pair_matrices(&ex_tight[0].1);
    assert_eq!(msgs_a, msgs_b);
    assert_eq!(items_a, items_b);
    let ex_stalls: u64 = ex_tight.iter().map(|(m, _)| m.backpressure_stalls).sum();
    assert!(ex_stalls > 0, "capacity-1 deterministic exchange recorded no stalls");
}
