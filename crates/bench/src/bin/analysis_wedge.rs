//! Wedge-sampling vs exact triangle counting (the extension the paper
//! names via reference \[13\]): accuracy and cost of the sampling estimator
//! as the sample budget grows, against the exact Algorithm 6/7 count.

use havoq_bench::{csv_row, ms, pick, Experiment};
use havoq_comm::CommWorld;
use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
use havoq_core::algorithms::wedge::approx_clustering;
use havoq_core::queue::TraversalConfig;
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;

fn main() {
    let scale: u32 = pick(9, 12);
    let ranks: usize = pick(2, 4);
    let budgets: &[u64] = pick(&[1_000, 10_000][..], &[1_000, 10_000, 100_000, 1_000_000][..]);

    let gen = RmatGenerator::graph500(scale);
    let edges = gen.symmetric_edges(42);

    println!("Wedge sampling vs exact triangle count (RMAT scale {scale}, {ranks} ranks)\n");

    // exact baseline
    let exact = CommWorld::run(ranks, |ctx| {
        let g = DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default(),
        );
        let r = triangle_count(ctx, &g, &TriangleConfig::default());
        (r.triangles, r.elapsed, ctx.all_reduce_sum(r.stats.visitors_executed))
    });
    let (exact_count, exact_time, exact_visitors) = exact[0];

    let mut exp = Experiment::begin(
        &[&format!("exact: {exact_count} triangles, {exact_visitors} visitors, {exact_time:?}")],
        "analysis_wedge.csv",
        &["samples", "estimate", "rel_err%", "visitors", "time_ms", "speedup"],
        &["samples", "estimate", "relative_error", "visitors", "time_ms", "speedup_vs_exact"],
    );
    for &budget in budgets {
        let out = CommWorld::run(ranks, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let r = approx_clustering(ctx, &g, budget, 7, &TraversalConfig::default());
            (r, ctx.all_reduce_sum(r.stats.visitors_executed))
        });
        let (r, visitors) = &out[0];
        let elapsed = out.iter().map(|o| o.0.elapsed).max().unwrap();
        let rel = (r.triangles_estimate - exact_count as f64).abs() / exact_count as f64;
        exp.row2(
            &csv_row![
                budget,
                format!("{:.0}", r.triangles_estimate),
                format!("{:.2}", rel * 100.0),
                visitors,
                ms(elapsed),
                format!("{:.1}x", exact_time.as_secs_f64() / elapsed.as_secs_f64())
            ],
            &csv_row![
                budget,
                r.triangles_estimate,
                rel,
                visitors,
                elapsed.as_secs_f64() * 1e3,
                exact_time.as_secs_f64() / elapsed.as_secs_f64()
            ],
        );
    }
    exp.finish(&[
        "Expected: error shrinks ~1/sqrt(samples); small budgets estimate",
        "hub-dominated triangle counts orders of magnitude faster than the",
        "exact O(|E| * d_max) traversal.",
    ]);
}
