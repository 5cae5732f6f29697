//! Isolated layer probes: each times one library operation on inputs
//! shaped like the workloads' (default-config frames, real visitor
//! records, the workload graph's own adjacency lists) with nothing else
//! running, so its cost can be multiplied by a boundary count to estimate
//! the layer's share of an op. Run as part of every traced run.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::layers::{self, Storage};
use crate::reference::{derive_seed, KeyReference, RefGraph};
use crate::stats::median;
use crate::workloads::Workload;

/// Samples per probe, and the share of the run's `--seconds` one sample
/// aims to fill (15 ms of a 12 s run; the smoke run scales down with it).
const SAMPLES: usize = 5;
const SAMPLE_SHARE: f64 = 1.0 / 800.0;
/// Keys the single-rank BFS baseline runs.
const BASELINE_KEYS: usize = 8;

/// Median nanoseconds per iteration of `body(iters)`, after growing
/// `iters` from `min_iters` until one sample fills `target`.
fn median_ns_per_iter(
    target: Duration,
    min_iters: u64,
    mut body: impl FnMut(u64) -> Duration,
) -> f64 {
    let mut iters = min_iters;
    loop {
        let took = body(iters);
        if took >= target || iters >= 1 << 24 {
            break;
        }
        let grow = target.as_secs_f64() / took.as_secs_f64().max(1e-7);
        iters = (iters as f64 * grow.clamp(2.0, 64.0)).ceil() as u64;
    }
    let samples: Vec<f64> =
        (0..SAMPLES).map(|_| body(iters).as_nanos() as f64 / iters as f64).collect();
    median(&samples).expect("SAMPLES > 0")
}

/// Run every probe; the metric names are those of `manifest::PER_LAYER`.
pub fn run(
    w: &Workload,
    graph: &RefGraph,
    key_refs: &[KeyReference],
    seed: u64,
    seconds: f64,
) -> BTreeMap<&'static str, f64> {
    let target = Duration::from_secs_f64(seconds * SAMPLE_SHARE);
    let ns_per_iter = |min_iters, body: &mut dyn FnMut(u64) -> Duration| {
        median_ns_per_iter(target, min_iters, body)
    };
    let mut m = BTreeMap::new();
    let frame_bytes = layers::default_frame_bytes();
    let frame: Vec<u8> = (0..frame_bytes).map(|i| (i * 31 % 251) as u8).collect();
    m.insert(
        "util.crc.ns_per_kib",
        ns_per_iter(1, &mut |n| layers::probe_crc(&frame, n)) * 1024.0 / frame_bytes as f64,
    );
    m.insert(
        "comm.codec.seal_verify_ns_per_frame",
        ns_per_iter(1, &mut |n| layers::probe_seal_verify(frame_bytes, n)),
    );
    m.insert("comm.codec.record_roundtrip_ns", ns_per_iter(1, &mut layers::probe_record_roundtrip));
    // per rank: the time to send one payload and receive one
    m.insert("comm.mailbox.ns_per_payload", ns_per_iter(256, &mut layers::probe_mailbox_exchange));
    m.insert("comm.collectives.all_reduce_ns", ns_per_iter(1, &mut layers::probe_all_reduce));
    let mut waves_per_detection = 1.0;
    let detection_ns = ns_per_iter(1, &mut |n| {
        let (took, waves) = layers::probe_idle_termination(n);
        waves_per_detection = waves as f64 / n as f64;
        took
    });
    m.insert("comm.termination.idle_wave_ns", detection_ns / waves_per_detection);
    m.insert("util.parallel.broadcast_ns", ns_per_iter(1, &mut layers::probe_pool_broadcast));
    m.insert("nvram.cache.hit_ns", ns_per_iter(1, &mut layers::probe_cache_hit));
    m.insert("nvram.cache.miss_ns", ns_per_iter(1, &mut layers::probe_cache_miss));
    let sweep_ns = ns_per_iter(1, &mut layers::probe_cache_seq_read);
    m.insert(
        "nvram.cache.seq_read_mib_s",
        (layers::SEQ_SWEEP_BYTES >> 20) as f64 / (sweep_ns / 1e9),
    );
    m.insert("core.admission.ns_per_query", ns_per_iter(64, &mut layers::probe_admission));

    // the workload graph's own adjacency lists through the gap decoder
    let encoded = layers::encode_lists((0..graph.num_vertices()).map(|v| graph.adj(v)));
    m.insert(
        "graph.varint.decode_ns_per_edge",
        ns_per_iter(1, &mut |n| layers::probe_varint_decode(&encoded, n))
            / encoded.edges.max(1) as f64,
    );

    // the same graph on one rank, in memory and compressed behind the
    // cache: adjacency sweeps in vertex order, and the single-rank BFS
    // that has no wire and no pool
    let graph_seed = derive_seed(seed, 1);
    let raw_edge_bytes = graph.num_edges() * 8;
    let sweeps = layers::run_world(1, |rank| {
        let edges = layers::generate(rank, w.graph, graph_seed);
        let mem = layers::build(rank, edges, w.graph, Storage::Mem);
        let ms_per_key: Vec<f64> = key_refs
            .iter()
            .take(BASELINE_KEYS)
            .map(|r| {
                let t = std::time::Instant::now();
                let tree = layers::bfs_async(rank, &mem, r.key, 1);
                assert_eq!(tree.visited, r.visited, "single-rank baseline BFS disagrees");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let per_edge =
            |(took, edges): (Duration, u64)| took.as_nanos() as f64 / edges.max(1) as f64;
        let sweep = |f: &dyn Fn() -> (Duration, u64)| {
            median(&(0..SAMPLES).map(|_| per_edge(f())).collect::<Vec<_>>()).expect("SAMPLES > 0")
        };
        let adj_mem = sweep(&|| layers::probe_with_adj_sweep(&mem));
        drop(mem);
        let edges = layers::generate(rank, w.graph, graph_seed);
        let ext = layers::build(rank, edges, w.graph, Storage::ExtComp { raw_edge_bytes });
        let adj_ext = sweep(&|| layers::probe_with_adj_sweep(&ext));
        let scan_ext = sweep(&|| layers::probe_scan_adj_sweep(&ext));
        // a triangle workload has no search keys; its baseline reads 0
        (median(&ms_per_key).unwrap_or(0.0), adj_mem, adj_ext, scan_ext)
    });
    let (bfs_ms, adj_mem, adj_ext, scan_ext) = sweeps[0];
    m.insert("core.queue.bfs_ms_1rank_mem", bfs_ms);
    m.insert("graph.csr.adj_ns_per_edge_mem", adj_mem);
    m.insert("graph.csr.adj_ns_per_edge_extcomp", adj_ext);
    m.insert("graph.csr.scan_ns_per_edge_extcomp", scan_ext);
    m
}
