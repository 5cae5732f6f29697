//! Ablation of the Section V-A locality optimization: visitors of equal
//! priority are ordered by vertex id so semi-external adjacency reads walk
//! the CSR pages sequentially. This binary runs external-memory BFS with
//! the ordering on and off and reports the page-cache hit rates and device
//! read counts — the quantity the optimization exists to improve.

use havoq_bench::{csv_row, ms, pick, Experiment};
use havoq_comm::CommWorld;
use havoq_core::algorithms::bfs::{bfs, BfsConfig};
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;
use havoq_nvram::cache::PageCacheConfig;
use havoq_nvram::device::DeviceProfile;

fn main() {
    let scale: u32 = pick(11, 14);
    let ranks: usize = pick(2, 4);
    // tight cache: 1/16 of the data, so ordering decides the hit rate
    let gen = RmatGenerator::graph500(scale);
    let cache_pages = ((gen.num_edges() as usize * 2 * 8) / ranks / 4096 / 16).max(8);

    let mut exp = Experiment::begin(
        &[
            "Section V-A ablation — vertex-id visitor ordering vs arrival order",
            &format!("(external-memory BFS, RMAT scale {scale}, {ranks} ranks, cache = data/16)"),
        ],
        "ablation_locality.csv",
        &["ordering", "hit_rate%", "dev_reads", "io_stall_ms", "time_ms", "MTEPS"],
        &["ordering", "hit_rate", "device_reads", "io_stall_ms", "time_ms", "mteps"],
    );

    for (name, locality) in [("vertex-id", true), ("arrival", false)] {
        let cfg = GraphConfig::external(
            DeviceProfile::fusion_io(),
            PageCacheConfig {
                page_size: 4096,
                capacity_pages: cache_pages,
                shards: 8,
                ..PageCacheConfig::default()
            },
        );
        let out = CommWorld::run(ranks, |ctx| {
            let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
            local.extend(local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()));
            let g = DistGraph::build(ctx, local, PartitionStrategy::EdgeList, cfg);
            let mut bcfg = BfsConfig::default();
            bcfg.traversal.locality_order = locality;
            let r = bfs(ctx, &g, VertexId(0), &bcfg);
            let dev = g.csr().cache().unwrap().device().stats();
            (r, dev)
        });
        let (r, dev) = &out[0];
        let cache = &r.stats.cache;
        let elapsed = out.iter().map(|o| o.0.elapsed).max().unwrap();
        // sync demand paging on purpose: the stall column shows how much
        // blocking I/O each ordering leaves on the access path
        let io_stall = out.iter().map(|o| o.0.stats.cache.io_stall()).max().unwrap();
        exp.row2(
            &csv_row![
                name,
                format!("{:.2}", 100.0 * cache.hit_rate()),
                dev.reads,
                ms(io_stall),
                ms(elapsed),
                havoq_bench::mteps(r.traversed_edges, elapsed)
            ],
            &csv_row![
                name,
                cache.hit_rate(),
                dev.reads,
                io_stall.as_secs_f64() * 1e3,
                elapsed.as_secs_f64() * 1e3,
                r.traversed_edges as f64 / elapsed.as_secs_f64() / 1e6
            ],
        );
    }
    exp.finish(&[
        "Paper claim (V-A): ordering equal-priority visitors by vertex id",
        "improves page-level locality of NVRAM-resident graph data; expect a",
        "higher hit rate and fewer device reads on the vertex-id row.",
    ]);
}
