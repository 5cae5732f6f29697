//! The benchmark's declared surface: metric names, units, directions and
//! regression bounds, and the text of `../BENCHMARK.json`. One table, so
//! the binary's output, `--check-repeat` and the recorded file cannot
//! drift apart (a unit test compares them).

use crate::json::Json;

/// How long one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them, and none is ever zero.
///
/// One bound per metric has to hold on every workload, so the noisiest
/// workload sets it: `serve_mem`'s latency spreads 14 % across ten seeds
/// (queueing doubles the host's own +-5 % drift), while `tri_mem`'s op time
/// spreads 0.6 %. ISSUE 11 asked for bounds of at most 10 %; on this host
/// that would reject the benchmark itself. The README lists each
/// workload's measured spread, which is what a claim should be read against.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric, named `<crate>.<module>.<what>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workloads on which the value repeats bit for bit between two
    /// runs with one seed: a count of work the inputs determine, checked
    /// over five runs when the benchmark was defined. Everywhere else it
    /// is a time, or a count that moves with thread scheduling.
    pub exact_on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact_on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better, exact_on }
}

use Better::{Higher, Lower};

/// Timing-dependent on every workload.
const TIMING: &[&str] = &[];
/// Exact on every workload (zero where the layer is idle).
const EXACT: &[&str] = &[
    "g500_async_mem",
    "g500_async_t2_mem",
    "g500_async_extcomp",
    "g500_diropt_mem",
    "serve_mem",
    "tri_mem",
];
/// Visitor counts: exact where the schedule cannot change them (one rank
/// and one thread, level-synchronous rounds, or visitors that each run
/// exactly once); two asynchronous BFS ranks re-relax in arrival order.
const EXACT_VISITORS: &[&str] = &["g500_async_extcomp", "g500_diropt_mem", "tri_mem"];
/// Framing follows flush timing except under level-synchronous rounds.
const EXACT_FRAMES: &[&str] = &["g500_diropt_mem"];
const EXACT_SKEW: &[&str] = &["g500_diropt_mem", "tri_mem"];

pub const PER_LAYER: [PerLayer; 61] = [
    // isolated probes
    layer("util.crc.ns_per_kib", "ns/KiB", Lower, TIMING),
    layer("comm.codec.seal_verify_ns_per_frame", "ns/frame", Lower, TIMING),
    layer("comm.codec.record_roundtrip_ns", "ns", Lower, TIMING),
    layer("comm.mailbox.ns_per_payload", "ns/payload", Lower, TIMING),
    layer("comm.collectives.all_reduce_ns", "ns", Lower, TIMING),
    layer("comm.termination.idle_wave_ns", "ns", Lower, TIMING),
    layer("util.parallel.broadcast_ns", "ns", Lower, TIMING),
    layer("nvram.cache.hit_ns", "ns", Lower, TIMING),
    layer("nvram.cache.miss_ns", "ns", Lower, TIMING),
    layer("nvram.cache.seq_read_mib_s", "MiB/s", Higher, TIMING),
    layer("graph.varint.decode_ns_per_edge", "ns/edge", Lower, TIMING),
    layer("graph.csr.adj_ns_per_edge_mem", "ns/edge", Lower, TIMING),
    layer("graph.csr.adj_ns_per_edge_extcomp", "ns/edge", Lower, TIMING),
    layer("graph.csr.scan_ns_per_edge_extcomp", "ns/edge", Lower, TIMING),
    layer("core.queue.bfs_ms_1rank_mem", "ms", Lower, TIMING),
    layer("core.admission.ns_per_query", "ns/query", Lower, TIMING),
    // boundary timers
    layer("graph.gen.s", "s", Lower, TIMING),
    layer("graph.dist.build_s", "s", Lower, TIMING),
    layer("core.validate.s", "s/op", Lower, TIMING),
    // boundary counters, per op over the counter window
    layer("core.queue.visitors_executed", "count/op", Lower, EXACT_VISITORS),
    layer("core.queue.visitors_pushed", "count/op", Lower, EXACT_VISITORS),
    layer("core.queue.exec_per_s", "1/s", Higher, TIMING),
    layer("core.ghost.filtered_frac", "fraction", Higher, EXACT_FRAMES),
    layer("comm.mailbox.payload_sent", "count/op", Lower, EXACT_VISITORS),
    layer("comm.mailbox.bytes_sent", "B/op", Lower, EXACT_FRAMES),
    layer("comm.mailbox.frames_sent", "count/op", Lower, EXACT_FRAMES),
    layer("comm.mailbox.frame_fill", "fraction", Higher, EXACT_FRAMES),
    layer("comm.mailbox.backpressure_stalls", "count/op", Lower, TIMING),
    layer("comm.termination.waves", "count/op", Lower, TIMING),
    layer("comm.frontier.words_sent", "count/op", Lower, EXACT),
    layer("comm.rank_skew_frac", "fraction", Lower, EXACT_SKEW),
    layer("nvram.cache.hit_rate", "fraction", Higher, TIMING),
    layer("nvram.cache.misses", "count/op", Lower, TIMING),
    layer("nvram.cache.evictions", "count/op", Lower, TIMING),
    layer("nvram.cache.prefetches", "count/op", Higher, TIMING),
    layer("nvram.cache.dropped_prefetches", "count/op", Lower, TIMING),
    layer("nvram.io.stall_s", "s/op", Lower, TIMING),
    layer("nvram.io.evict_stall_s", "s/op", Lower, TIMING),
    layer("nvram.io.queue_peak", "count", Lower, TIMING),
    layer("graph.csr.adj_decodes", "count/op", Lower, EXACT),
    layer("graph.csr.decoded_bytes", "B/op", Lower, EXACT),
    layer("graph.csr.bytes_per_edge", "B/edge", Lower, EXACT),
    layer("core.direction.edges_inspected", "count/op", Lower, EXACT),
    layer("core.direction.top_levels", "count/op", Lower, EXACT),
    layer("core.direction.bottom_levels", "count/op", Lower, EXACT),
    layer("core.batch.occupancy_mean", "count", Higher, TIMING),
    layer("core.batch.service_ms_p50", "ms", Lower, TIMING),
    layer("core.batch.claims", "count/op", Lower, TIMING),
    layer("core.admission.wait_ms_p50", "ms", Lower, TIMING),
    layer("core.admission.peak_backlog", "count", Lower, TIMING),
    layer("core.admission.shed", "count", Lower, TIMING),
    // serving figures that only `serve_mem` has, so they cannot be
    // end-to-end metrics every workload reports
    layer("serve.slo_qps", "1/s", Higher, TIMING),
    layer("serve.lat_ms_p99", "ms", Lower, TIMING),
    layer("serve.shed_frac_over", "fraction", Lower, TIMING),
    // estimated shares of op time: probe cost x boundary count / op time
    layer("util.crc.est_share", "fraction", Lower, TIMING),
    layer("comm.mailbox.est_share", "fraction", Lower, TIMING),
    layer("graph.varint.est_share", "fraction", Lower, TIMING),
    layer("nvram.io.stall_share", "fraction", Lower, TIMING),
    layer("comm.collectives.est_share", "fraction", Lower, TIMING),
    layer("core.admission.wait_share", "fraction", Lower, TIMING),
    layer("trace.overhead_frac", "fraction", Lower, TIMING),
];

/// Names are at most 64 of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Units are at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// The text of `BENCHMARK.json` (`benchmark --emit-manifest`).
pub fn benchmark_json(workloads: &[(&str, &str)]) -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_validators() {
        for good in ["op_ms_p50", "comm.mailbox.ns_per_payload", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "has space", "slash/name", "µs", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "ns/KiB", "%", "count/op"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "seventeen-letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_meet_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
    }
}
