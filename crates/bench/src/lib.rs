//! Shared harness for the evaluation binaries.
//!
//! `paper_rows` prints the paper's figures as one table of
//! machine-independent counters and checks their shapes (see DESIGN.md's
//! per-experiment index); `graph500_run` and `qps_serve` drive the
//! Graph500 and serving runs. Each prints to stdout and writes a CSV under
//! `results/`. Set `HAVOQ_QUICK=1` to run the reduced sweeps of the two
//! drivers.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Pick the reduced-sweep parameter under `HAVOQ_QUICK` (any value but
/// `0`), the full one otherwise. `graph500_run` and `qps_serve` size their
/// workloads this way.
pub fn pick<T>(quick_val: T, full_val: T) -> T {
    if std::env::var("HAVOQ_QUICK").is_ok_and(|v| v != "0") {
        quick_val
    } else {
        full_val
    }
}

/// Value of the option `--name v` (or `--name=v`) in `args`; the first
/// occurrence wins. Every knob below is one parse of this.
fn flag_in(args: impl IntoIterator<Item = String>, name: &str) -> Option<String> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.strip_prefix("--").and_then(|a| a.strip_prefix(name)) {
            Some("") => return args.next(),
            Some(rest) if rest.starts_with('=') => return Some(rest[1..].to_string()),
            _ => {}
        }
    }
    None
}

/// [`flag_in`] over this process's command line.
fn flag(name: &str) -> Option<String> {
    flag_in(std::env::args(), name)
}

/// Checkpoint cadence for the traversal binaries: `--checkpoint-every N`
/// checkpoints every `N` executed visitors per rank so the run reports the
/// overhead of cutting and persisting traversal state. `None` (the
/// default) runs uncheckpointed.
pub fn checkpoint_every() -> Option<u64> {
    flag("checkpoint-every")?.parse().ok()
}

/// Wire-fault plan for the traversal binaries: `--faults SEED` runs every
/// traversal under the lossy chaos plan derived from `SEED` — delay,
/// reorder, duplicate, stall and slow-rank plus seeded frame corruption
/// and loss — so the CRC + NACK/retransmit machinery runs hot and its
/// recovery counters show up in the report. Seeds parse as decimal or
/// `0x`-prefixed hex. `None` (the default) runs fault-free.
pub fn faults() -> Option<u64> {
    parse_seed(&flag("faults")?)
}

/// Intra-rank worker threads for the traversal binaries: `--threads N`
/// runs every visitor queue with an `N`-thread worker pool per rank
/// (DESIGN.md §11). `None` (the default) leaves the queue on its serial
/// single-thread path.
pub fn threads() -> Option<usize> {
    flag("threads")?.parse().ok()
}

/// Admission backlog bound for the serving binaries: `--backlog N` caps
/// the admission queue at `N` pending queries; beyond it the shed policy
/// drops work instead of letting latency ramp without bound (DESIGN.md
/// §15). `None` (the default) leaves the backlog unbounded.
pub fn backlog() -> Option<usize> {
    flag("backlog")?.parse().ok()
}

/// Shed policy at the backlog bound: `--shed-policy reject-new` (default)
/// or `--shed-policy drop-oldest`. Only meaningful together with
/// [`backlog`].
pub fn shed_policy() -> Option<String> {
    flag("shed-policy")
}

/// Batched query width for the traversal binaries: `--batch K` runs search
/// keys through the multi-source batching layer, `K` queries per shared
/// traversal (DESIGN.md §12). `None` (the default) runs keys sequentially.
pub fn batch() -> Option<usize> {
    flag("batch")?.parse().ok()
}

/// BFS engine direction policy for the traversal binaries: `--direction
/// {top,bottom,auto,async}` selects the direction-optimizing
/// level-synchronous engine (DESIGN.md §13) instead of the asynchronous
/// visitor loop. `None` (the default) keeps the asynchronous engine; an
/// unknown token panics loudly rather than silently falling back.
pub fn direction() -> Option<havoq_core::direction::DirectionMode> {
    flag("direction").map(|v| {
        havoq_core::direction::DirectionMode::parse(&v)
            .unwrap_or_else(|| panic!("unknown --direction {v:?} (want top|bottom|auto|async)"))
    })
}

/// The Graph500 search-key seed the drivers share.
const SEARCH_KEY_SEED: u64 = 0x9E3779B97F4A7C15;

/// Select `num_keys` *distinct* search keys with nonzero degree (the
/// Graph500 rule), deterministically and collectively: every rank runs the
/// same xorshift probe sequence and the same degree-probe collectives, so
/// all ranks agree on the key set. When the `4 × num_keys` random probes
/// run out, a deterministic rescan of the whole vertex range fills the
/// list. `Err` reports how many usable keys exist when the graph has fewer
/// than requested.
pub fn select_search_keys(
    ctx: &havoq_comm::RankCtx,
    g: &havoq_graph::dist::DistGraph,
    num_keys: usize,
) -> Result<Vec<havoq_graph::types::VertexId>, String> {
    use havoq_graph::types::VertexId;
    let n = g.num_vertices();
    // degree probe: the key's master broadcasts whether it has edges
    let has_edges = |key: VertexId| {
        let deg = if g.is_master(key) { g.total_degree(key) } else { 0 };
        ctx.all_reduce_max(deg) > 0
    };
    let mut keys: Vec<VertexId> = Vec::new();
    let mut used = std::collections::HashSet::new();
    // phase 1: pseudo-random probes, 4 tries per requested key
    let mut state = SEARCH_KEY_SEED;
    let mut tried = 0;
    while keys.len() < num_keys && tried < num_keys * 4 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        tried += 1;
        let key = VertexId(state % n);
        if used.contains(&key.0) || !has_edges(key) {
            continue;
        }
        used.insert(key.0);
        keys.push(key);
    }
    // phase 2: deterministic rescan of the whole vertex range, so a small
    // graph yields every usable key instead of a silently short list
    let mut v = 0u64;
    while keys.len() < num_keys && v < n {
        if !used.contains(&v) && has_edges(VertexId(v)) {
            used.insert(v);
            keys.push(VertexId(v));
        }
        v += 1;
    }
    if keys.len() < num_keys {
        return Err(format!(
            "requested {num_keys} search keys but the graph has only {} distinct \
             vertices with edges (of {n} vertices)",
            keys.len()
        ));
    }
    Ok(keys)
}

/// Fault seeds accept decimal or `0x`-prefixed hex.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Checkpoint overhead as a percentage of the traversal wall clock.
pub fn overhead_pct(checkpoint_time: Duration, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        0.0
    } else {
        100.0 * checkpoint_time.as_secs_f64() / elapsed.as_secs_f64()
    }
}

/// `results/` directory beside the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HAVOQ_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// One experiment artifact: the console banner + table and the CSV under
/// `results/`, driven together so every binary emits both the same way.
///
/// The banner lines print verbatim, then a blank line, then the table
/// header; each row goes to both sinks with the same fields; `finish`
/// flushes the CSV and prints the closing notes.
pub struct Experiment {
    csv: BufWriter<File>,
    path: PathBuf,
}

impl Experiment {
    pub fn begin(banner: &[&str], csv_name: &str, cols: &[&str]) -> Self {
        for line in banner {
            println!("{line}");
        }
        println!();
        print_header(cols);
        let path = results_dir().join(csv_name);
        let mut csv = BufWriter::new(File::create(&path).expect("create csv"));
        writeln!(csv, "{}", cols.join(",")).expect("write csv header");
        Experiment { csv, path }
    }

    /// Emit one row to both the console table and the CSV.
    pub fn row(&mut self, fields: &[String]) {
        print_row(fields);
        writeln!(self.csv, "{}", fields.join(",")).expect("write csv row");
    }

    pub fn finish(mut self, notes: &[impl AsRef<str>]) {
        self.csv.flush().expect("flush csv");
        eprintln!("[csv] wrote {}", self.path.display());
        println!();
        for line in notes {
            println!("{}", line.as_ref());
        }
    }
}

/// Convenience macro building a row of stringified fields (an array, so it
/// coerces to `&[String]` without allocation noise).
#[macro_export]
macro_rules! csv_row {
    ($($v:expr),* $(,)?) => {
        [$(format!("{}", $v)),*]
    };
}

/// Print a right-aligned table row of width-14 columns.
pub fn print_row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Print a header row followed by a rule.
pub fn print_header(cols: &[&str]) {
    print_row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(15 * cols.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests toggle process-global environment variables; serialize
    // them so the parallel test runner can't interleave the mutations.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn pick_follows_quick_flag() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("HAVOQ_QUICK");
        assert_eq!(pick(1, 2), 2);
        std::env::set_var("HAVOQ_QUICK", "1");
        assert_eq!(pick(1, 2), 1);
        std::env::remove_var("HAVOQ_QUICK");
    }

    #[test]
    fn experiment_writes_both_sinks() {
        let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("HAVOQ_RESULTS", std::env::temp_dir().join("havoq-exp-test"));
        let mut exp = Experiment::begin(&["banner"], "exp.csv", &["a", "b"]);
        exp.row(&csv_row![1, 2]);
        exp.row(&csv_row![1.5, "x"]);
        exp.finish(&["note"]);
        let text = std::fs::read_to_string(results_dir().join("exp.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n1.5,x\n");
        std::env::remove_var("HAVOQ_RESULTS");
    }

    #[test]
    fn flags_parse_in_both_forms() {
        let args = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        let line = args("graph500_run --batch 32 --faults=0xBEEF --shed-policy drop-oldest");
        assert_eq!(flag_in(line.clone(), "batch").as_deref(), Some("32"));
        assert_eq!(flag_in(line.clone(), "faults").as_deref(), Some("0xBEEF"));
        assert_eq!(flag_in(line.clone(), "shed-policy").as_deref(), Some("drop-oldest"));
        assert_eq!(flag_in(line.clone(), "threads"), None);
        assert_eq!(flag_in(line, "shed"), None, "a flag is not matched by its prefix");
        assert_eq!(flag_in(args("bin --batch=8 --batch 9"), "batch").as_deref(), Some("8"));
        assert_eq!(flag_in(args("bin --batch"), "batch"), None, "value missing");
        // the test binary's own command line carries none of the knobs
        assert_eq!((faults(), batch(), direction()), (None, None, None));
    }

    #[test]
    fn fault_seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xBEEF"), Some(0xBEEF));
        assert_eq!(parse_seed("not-a-seed"), None);
    }

    /// Bench hygiene regression: key selection probes degrees through the
    /// DRAM degree table, so on compressed storage it must decode *zero*
    /// adjacency slices — decoding the full adjacency of every probed
    /// vertex would drag cold edge bytes through the cache before the
    /// timed run starts.
    #[test]
    fn search_key_selection_decodes_no_slices_on_compressed_storage() {
        use havoq_graph::csr::GraphConfig;
        use havoq_graph::dist::{DistGraph, PartitionStrategy};
        use havoq_graph::gen::rmat::RmatGenerator;
        use havoq_nvram::{DeviceProfile, PageCacheConfig};

        let gen = RmatGenerator::graph500(6);
        let edges = gen.symmetric_edges(99);
        let counts = havoq_comm::CommWorld::run(2, move |ctx| {
            let cache = PageCacheConfig {
                page_size: 256,
                capacity_pages: 8,
                shards: 1,
                ..PageCacheConfig::default()
            };
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::external_compressed(DeviceProfile::dram(), cache),
            );
            assert_eq!(select_search_keys(ctx, &g, 8).unwrap().len(), 8);
            g.csr().storage_snapshot().unwrap().adj_decodes
        });
        for decodes in counts {
            assert_eq!(decodes, 0, "key selection must not decode adjacency slices");
        }
    }

    /// The key-selection regression: a graph with only two non-isolated
    /// vertices must yield exactly those two when two keys are requested
    /// (the deterministic rescan fills what the random probes miss), and
    /// must fail *loudly* — not return a silently short list — when three
    /// are requested.
    #[test]
    fn search_key_selection_rescans_and_fails_loudly() {
        use havoq_graph::csr::GraphConfig;
        use havoq_graph::dist::{DistGraph, PartitionStrategy};
        use havoq_graph::types::Edge;

        // vertices 0 and 1 are connected; 2 and 3 are isolated
        let edges = vec![Edge::new(0, 1), Edge::new(1, 0)];
        let out = havoq_comm::CommWorld::run(2, move |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(4),
            );
            let ok = select_search_keys(ctx, &g, 2);
            let err = select_search_keys(ctx, &g, 3);
            (ok, err)
        });
        for (ok, err) in out {
            let mut keys: Vec<u64> = ok.expect("2 usable keys exist").iter().map(|k| k.0).collect();
            keys.sort_unstable();
            assert_eq!(keys, vec![0, 1], "rescan must find exactly the non-isolated vertices");
            let msg = err.expect_err("3 keys cannot exist on a 2-usable-vertex graph");
            assert!(msg.contains("only 2"), "error must report the usable count: {msg}");
        }
    }

    /// Key selection is collective and deterministic: every rank computes
    /// the identical key list, keys are distinct, and all have edges.
    #[test]
    fn search_key_selection_is_deterministic_across_ranks() {
        use havoq_graph::csr::GraphConfig;
        use havoq_graph::dist::{DistGraph, PartitionStrategy};
        use havoq_graph::gen::rmat::RmatGenerator;

        let gen = RmatGenerator::graph500(4);
        let edges = gen.symmetric_edges(42);
        let n = gen.num_vertices();
        let out = havoq_comm::CommWorld::run(3, move |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default().with_num_vertices(n),
            );
            select_search_keys(ctx, &g, 8).unwrap()
        });
        assert_eq!(out[0].len(), 8);
        for rank in &out {
            assert_eq!(rank, &out[0], "ranks disagree on the key set");
        }
        let mut uniq: Vec<u64> = out[0].iter().map(|k| k.0).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "selected keys must be distinct");
    }
}
