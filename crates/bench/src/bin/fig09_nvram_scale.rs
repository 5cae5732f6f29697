//! Figure 9 (and the headline claim): effect of increasing external-memory
//! usage at fixed compute. Paper: 64 Hyperion nodes; growing the graph from
//! 34B edges (DRAM-resident) to 1T edges (10.8 TB on NAND Flash) costs only
//! 39 % of TEPS.
//!
//! Reproduction: ranks fixed; the graph doubles in scale while the page
//! cache stays at the size that fully holds the *smallest* graph — so the
//! largest run has 32x more data than "DRAM". We report TEPS relative to
//! the DRAM-resident baseline plus the cache hit rate that explains it.
//! Every external step also runs over the gap-compressed CSR at the same
//! cache budget (DESIGN.md §14): the `ext-comp` rows keep the hit rate
//! high for longer because the same pages hold several times more edges.

use havoq_bench::{csv_row, ms, pick, Experiment, StorageMode};
use havoq_comm::CommWorld;
use havoq_core::algorithms::bfs::{bfs, BfsConfig};
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;
use havoq_nvram::cache::PageCacheConfig;
use havoq_nvram::device::DeviceProfile;
use havoq_nvram::IoConfig;

fn main() {
    let ranks: usize = pick(2, 4);
    let base_scale: u32 = pick(10, 12);
    let steps: u32 = pick(2, 5); // up to 32x

    // cache sized to fully hold the base graph's targets per rank
    let base_edges = RmatGenerator::graph500(base_scale).num_edges() * 2;
    let cache_pages = ((base_edges as usize * 8) / ranks / 4096).max(16);

    let mut exp = Experiment::begin(
        &[
            "Figure 9 — growing data on fixed compute: DRAM-resident baseline vs",
            &format!(
                "up to {}x larger graphs on simulated Fusion-io ({ranks} ranks, cache fixed",
                1 << steps
            ),
            "at the base graph's size)",
        ],
        "fig09_nvram_scale.csv",
        &[
            "data_x",
            "storage",
            "scale",
            "MTEPS",
            "% of DRAM",
            "hit_rate%",
            "B/edge",
            "io_stall_ms",
            "time_ms",
        ],
        &[
            "data_multiple",
            "storage",
            "scale",
            "mteps",
            "fraction_of_dram",
            "hit_rate",
            "bytes_per_edge",
            "io_stall_ms",
            "time_ms",
        ],
    );

    let mut dram_teps = 0.0f64;
    for step in 0..=steps {
        let scale = base_scale + step;
        let gen = RmatGenerator::graph500(scale);
        // the DRAM-resident baseline, then — for the external steps — raw
        // u64 targets and the gap-compressed pool at the same cache budget
        let storages: &[StorageMode] = if step == 0 {
            &[StorageMode::Mem]
        } else {
            &[StorageMode::Ext, StorageMode::ExtCompressed]
        };
        for &storage in storages {
            let cfg = storage.graph_config(
                DeviceProfile::fusion_io(),
                PageCacheConfig {
                    page_size: 4096,
                    capacity_pages: cache_pages,
                    shards: 8,
                    readahead_pages: 8,
                    // the paper's flash tiers only pay off under concurrent
                    // async I/O — run external steps with the async engine
                    io: IoConfig::asynchronous(),
                    ..PageCacheConfig::default()
                },
            );
            let out = CommWorld::run(ranks, |ctx| {
                let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
                local.extend(
                    local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()),
                );
                let g = DistGraph::build(ctx, local, PartitionStrategy::EdgeList, cfg);
                let r = bfs(ctx, &g, VertexId(0), &BfsConfig::default());
                (r, g.csr().cache_stats())
            });
            let (r, cache) = &out[0];
            let elapsed = out.iter().map(|o| o.0.elapsed).max().unwrap();
            let teps = r.traversed_edges as f64 / elapsed.as_secs_f64();
            if step == 0 {
                dram_teps = teps;
            }
            let frac = 100.0 * teps / dram_teps;
            let hit =
                cache.map(|c| format!("{:.2}", 100.0 * c.hit_rate())).unwrap_or_else(|| "-".into());
            let io_stall = out.iter().map(|o| o.0.stats.cache.io_stall()).max().unwrap();
            let bytes_per_edge = {
                let (enc, edges) = out
                    .iter()
                    .map(|o| o.0.stats.csr)
                    .fold((0u64, 0u64), |a, s| (a.0 + s.encoded_bytes, a.1 + s.num_edges));
                if edges == 0 {
                    8.0
                } else {
                    enc as f64 / edges as f64
                }
            };
            exp.row2(
                &csv_row![
                    1u64 << step,
                    storage.label(),
                    scale,
                    format!("{:.2}", teps / 1e6),
                    format!("{frac:.0}%"),
                    hit,
                    format!("{bytes_per_edge:.2}"),
                    ms(io_stall),
                    ms(elapsed)
                ],
                &csv_row![
                    1u64 << step,
                    storage.label(),
                    scale,
                    teps / 1e6,
                    teps / dram_teps,
                    cache.map(|c| c.hit_rate()).unwrap_or(1.0),
                    bytes_per_edge,
                    io_stall.as_secs_f64() * 1e3,
                    elapsed.as_secs_f64() * 1e3
                ],
            );
        }
    }
    exp.finish(&[
        "Paper shape: TEPS declines moderately as data grows past DRAM —",
        "32x more data cost only 39% of TEPS on Hyperion. Expect the same",
        "gradual curve here, driven by the cache hit rate column. The",
        "ext-comp rows stretch the fixed cache budget several-fold further",
        "(B/edge well under the raw 8), so their hit rate and TEPS decay",
        "more slowly as the data outgrows DRAM.",
    ]);
}
