//! Quickstart: generate a Graph500-style RMAT graph, partition it with the
//! paper's edge-list partitioning across simulated ranks, and run a
//! distributed asynchronous BFS.
//!
//! Usage: `cargo run --release --example quickstart [scale] [ranks]`

use havoq::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(14);
    let ranks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);

    println!("== havoq quickstart ==");
    println!("graph:  RMAT scale {scale} (Graph500 params), edge factor 16, symmetrized");
    println!("world:  {ranks} simulated ranks (threads)");

    let gen = RmatGenerator::graph500(scale);
    let edges = gen.symmetric_edges(42);
    println!("        {} vertices, {} directed edges", gen.num_vertices(), edges.len());

    let results = CommWorld::run(ranks, |ctx| {
        // every rank takes its slice and the build redistributes via the
        // distributed sample sort
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default(),
        );
        let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
        (r, g.csr().num_edges())
    });

    let (r0, _) = &results[0];
    println!("\n-- BFS from vertex 0 --");
    println!("visited vertices:   {}", r0.visited_count);
    println!("max BFS level:      {}", r0.max_level);
    println!("traversed edges:    {}", r0.traversed_edges);
    println!("harmonic TEPS:      {:.2} M", r0.teps() / 1e6);

    println!("\n-- per-rank balance (the paper's Figure 2 claim) --");
    let edge_counts: Vec<u64> = results.iter().map(|(_, e)| *e).collect();
    let max = *edge_counts.iter().max().unwrap() as f64;
    let mean = edge_counts.iter().sum::<u64>() as f64 / ranks as f64;
    println!("edges per rank:     {edge_counts:?}");
    println!(
        "imbalance (max/mean): {:.4}  (edge-list partitioning is even by construction)",
        max / mean
    );

    println!("\n-- visitor-queue statistics (rank 0) --");
    let s = &r0.stats;
    println!("visitors pushed:    {}", s.visitors_pushed);
    println!("visitors executed:  {}", s.visitors_executed);
    println!("ghost-filtered:     {} (pushes that never reached the mailbox)", s.ghost_filtered);
    println!("replica forwards:   {}", s.replica_forwards);
    println!("termination waves:  {}", s.termination_waves);
}
