//! The repo's benchmark: six named workloads, five end-to-end metrics per
//! workload, per-layer counters and probes from a separate traced run.
//! See `README.md` beside `Cargo.toml` for every definition.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! benchmark --workload NAME --seed N --memory-phase            the memory phase alone (an untraced run starts it)
//! benchmark [--seed N] [--seconds S]                           every workload, untraced then traced
//! benchmark --check-repeat [--seed N] [--seconds S]            two untraced sets, compared to the bounds
//! benchmark --smoke                                            every workload and probe at toy size
//! benchmark --emit-manifest                                    the text of BENCHMARK.json
//! ```

mod json;
mod layers;
mod manifest;
mod memory;
mod probes;
mod reference;
mod stats;
mod trace;
mod watchdog;
mod workloads;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use manifest::{Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use watchdog::Watchdog;
use workloads::{RunOutput, Workload};

/// The development seed; claims are re-checked on the hold-out seed 1337.
const DEFAULT_SEED: u64 = 42;
/// A single workload run must end within the driver's 180 s limit: its
/// memory phase in a child process, then its set-ups and timed ops.
const MEMORY_WALL_CAP: Duration = Duration::from_secs(30);
const WORKLOAD_WALL_CAP: Duration = Duration::from_secs(135);
/// How much longer than its own cap a parent waits before it kills a child.
const CHILD_GRACE: Duration = Duration::from_secs(5);
const RESULTS_DIR: &str = "results";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    memory_phase: bool,
    check_repeat: bool,
    smoke: bool,
    emit_manifest: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        memory_phase: false,
        check_repeat: false,
        smoke: false,
        emit_manifest: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err(format!("--seconds {} is outside (0, 60]", a.seconds));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--memory-phase" => a.memory_phase = true,
            "--check-repeat" => a.check_repeat = true,
            "--smoke" => a.smoke = true,
            "--emit-manifest" => a.emit_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.emit_manifest {
        emit_manifest()
    } else if args.smoke {
        smoke(args.seed)
    } else if let (Some(name), true) = (&args.workload, args.memory_phase) {
        memory_phase(name, &args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else if args.check_repeat {
        check_repeat(&args)
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the text of `BENCHMARK.json`, refusing names and units the
/// driver would refuse.
fn emit_manifest() -> Result<bool, String> {
    let all = workloads::workloads(false);
    let list: Vec<(&str, &str)> = all.iter().map(|w| (w.name, w.why)).collect();
    let names = list.iter().map(|(n, _)| *n);
    let names =
        names.chain(END_TO_END.iter().map(|m| m.name)).chain(PER_LAYER.iter().map(|m| m.name));
    if let Some(bad) = names.into_iter().find(|n| !manifest::valid_name(n)) {
        return Err(format!("{bad:?} is not a valid name"));
    }
    let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
    if let Some(bad) = units.into_iter().find(|u| !manifest::valid_unit(u)) {
        return Err(format!("{bad:?} is not a valid unit"));
    }
    print!("{}", manifest::benchmark_json(&list).to_pretty());
    Ok(true)
}

/// The result line of one run: exactly the declared metrics of its mode,
/// each with its unit.
fn result_json(out: &RunOutput, trace: bool) -> Result<Json, String> {
    let declared: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push((name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn find_workload<'a>(all: &'a [Workload], name: &str) -> Result<&'a Workload, String> {
    all.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })
}

/// The memory phase of one workload, in this process: pin the allocator
/// before anything large is allocated, then print each op's peak RSS.
fn memory_phase(name: &str, args: &Args) -> Result<bool, String> {
    memory::pin_allocator_thresholds();
    let all = workloads::workloads(false);
    let w = find_workload(&all, name)?;
    let watchdog = Watchdog::start(w.name, MEMORY_WALL_CAP);
    let peaks = workloads::memory_phase(w, args.seed, &watchdog)?;
    drop(watchdog);
    let peaks = Json::Arr(peaks.into_iter().map(Json::Num).collect());
    println!("{}", Json::obj([("op_peaks_mb", peaks)]).to_line());
    Ok(true)
}

/// Record `peak_rss_mb` from the memory phase's readings.
fn push_peak_rss(out: &mut RunOutput, op_peaks_mb: &[f64]) -> Result<(), String> {
    let peak = workloads::peak_rss_metric(op_peaks_mb).ok_or("no peak RSS sample")?;
    out.notes.push(format!("memory phase peaks, MB: {op_peaks_mb:.1?}"));
    out.metrics.push(("peak_rss_mb", peak));
    Ok(())
}

/// Run one workload and print its result line: an untraced run's memory
/// phase in a child process, the rest in this one. Notes for the reader
/// go to stderr; stdout carries the one JSON line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let all = workloads::workloads(false);
    let w = find_workload(&all, name)?;
    let op_peaks_mb = if args.trace {
        None
    } else {
        let line = run_child(w, args, &["--memory-phase"], MEMORY_WALL_CAP)?;
        let Some(Json::Arr(peaks)) = line.get("op_peaks_mb") else {
            return Err(format!("{}: the memory phase printed no op_peaks_mb", w.name));
        };
        Some(peaks.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
    };
    let watchdog = Watchdog::start(w.name, WORKLOAD_WALL_CAP);
    let mut out = workloads::run(w, args.seed, args.seconds, args.trace, &watchdog)?;
    drop(watchdog);
    if let Some(peaks) = op_peaks_mb {
        push_peak_rss(&mut out, &peaks)?;
    }
    eprintln!(
        "{} seed {} seconds {} trace {}: {} attempted, {} failed",
        w.name, args.seed, args.seconds, args.trace as u8, out.attempted, out.failed
    );
    for line in out.failures.iter().chain(&out.notes) {
        eprintln!("  {line}");
    }
    if args.trace {
        let clock = match w.kernel {
            workloads::Kernel::Serve => {
                "query/wait/service spans are on the serving event clock; all others on the \
                 wall clock, ns since the run began"
            }
            _ => "wall clock, ns since the run began",
        };
        let path = format!("{RESULTS_DIR}/trace-{}.json", w.name);
        std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
        std::fs::write(&path, trace::to_json(w.name, args.seed, clock, &out.spans).to_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("  wrote {path} ({} spans)", out.spans.len());
    }
    println!("{}", result_json(&out, args.trace)?.to_line());
    Ok(true)
}

/// Re-execute this binary for one workload in the given mode, so that its
/// memory is its own and a hang can be killed; returns the parsed last
/// line of its output. `cap` is the child's own wall-clock cap.
fn run_child(w: &Workload, args: &Args, mode: &[&str], cap: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(mode)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    // the child's own watchdog fires first; this is the backstop
    let deadline = Instant::now() + cap + CHILD_GRACE;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("workload {} hung; killed", w.name));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read {} stdout: {e}", w.name))?;
    if !status.success() {
        return Err(format!("workload {} {mode:?} exited with {status}", w.name));
    }
    let line = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no result line")?;
    Json::parse(line).map_err(|e| format!("{} result line: {e}", w.name))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One set: every workload once, untraced or traced.
fn run_set(args: &Args, trace: bool) -> Result<Vec<(&'static str, Json)>, String> {
    let mut set = Vec::new();
    for w in workloads::workloads(false) {
        eprintln!("--- {} ({}) ---", w.name, if trace { "traced" } else { "untraced" });
        // the whole run: its memory phase, its own cap, and the grace it gives
        let cap = MEMORY_WALL_CAP + WORKLOAD_WALL_CAP + CHILD_GRACE;
        let mode = ["--trace", if trace { "1" } else { "0" }];
        set.push((w.name, run_child(&w, args, &mode, cap)?));
    }
    Ok(set)
}

fn all_correct(set: &[(&str, Json)]) -> bool {
    set.iter().all(|(_, r)| r.get("correct").and_then(Json::as_bool) == Some(true))
}

fn print_table(title: &str, names_units: &[(&str, &str)], set: &[(&str, Json)]) {
    println!("\n{title}");
    print!("{:<38}{:>10}", "metric", "unit");
    for (w, _) in set {
        print!("{:>20}", w);
    }
    println!();
    for (name, unit) in names_units {
        print!("{name:<38}{unit:>10}");
        for (_, r) in set {
            match metric_value(r, name) {
                Some(v) => print!("{:>20}", format!("{v:.6}")),
                None => print!("{:>20}", "-"),
            }
        }
        println!();
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_json(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("git_commit", Json::Str(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "workloads",
            Json::Arr(
                workloads::workloads(false)
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("ranks", Json::Num(w.ranks as f64)),
                            ("threads", Json::Num(w.threads as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Every workload untraced, then traced with the probes; print every
/// metric by name with its unit and record the lot under `results/`.
fn run_all(args: &Args) -> Result<bool, String> {
    let host = host_json(args);
    println!("{}", host.to_line());
    let untraced = run_set(args, false)?;
    let traced = run_set(args, true)?;
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    print_table("end-to-end metrics (untraced run)", &e2e, &untraced);
    print_table("per-layer metrics (traced run and probes)", &layers, &traced);
    let ok = all_correct(&untraced) && all_correct(&traced);
    println!("\nall results correct: {ok}");
    let record = Json::obj([
        ("host", host),
        ("untraced", Json::obj(untraced)),
        ("traced", Json::obj(traced)),
    ]);
    let path = format!("{RESULTS_DIR}/benchmark.json");
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    std::fs::write(&path, record.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(ok)
}

/// Run the untraced set twice back to back and hold each end-to-end
/// metric's change against its bound; then the traced set twice, where
/// every per-layer metric tagged exact must read the same both times.
fn check_repeat(args: &Args) -> Result<bool, String> {
    println!("{}", host_json(args).to_line());
    let first = run_set(args, false)?;
    let second = run_set(args, false)?;
    let traced = [run_set(args, true)?, run_set(args, true)?];
    let mut ok =
        all_correct(&first) && all_correct(&second) && traced.iter().all(|t| all_correct(t));
    println!(
        "\n{:<22}{:<14}{:>16}{:>16}{:>10}{:>8}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (metric_value(a, m.name), metric_value(b, m.name));
            let (Some(x), Some(y)) = (x, y) else {
                return Err(format!("{w}: metric {} missing from a result line", m.name));
            };
            // positive when the second run is worse
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if worse > m.bound { "EXCEEDS" } else { "" };
            ok &= worse <= m.bound;
            println!(
                "{w:<22}{:<14}{x:>16.4}{y:>16.4}{:>9.2}%{:>7.0}% {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    for ((w, a), (_, b)) in traced[0].iter().zip(&traced[1]) {
        for m in PER_LAYER.iter().filter(|m| m.exact_on.contains(w)) {
            let (x, y) = (metric_value(a, m.name), metric_value(b, m.name));
            if x != y || x.is_none() {
                ok = false;
                println!("{w:<22}{}: tagged exact, read {x:?} then {y:?}", m.name);
            }
        }
    }
    println!("\nrepeat within bounds, exact counters identical, all results correct: {ok}");
    Ok(ok)
}

/// Every workload, untraced and traced, and every probe, at toy size in
/// this process: keeps all of it compiling and running under `cargo test`.
fn smoke(seed: u64) -> Result<bool, String> {
    let t = Instant::now();
    for w in workloads::workloads(true) {
        for trace in [false, true] {
            let watchdog = Watchdog::start(w.name, Duration::from_secs(60));
            let mut out = workloads::run(&w, seed, 0.1, trace, &watchdog)?;
            if !trace {
                push_peak_rss(&mut out, &workloads::memory_phase(&w, seed, &watchdog)?)?;
            }
            drop(watchdog);
            result_json(&out, trace)?;
            if out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{} trace {}: {} of {} failed: {:?}",
                    w.name, trace as u8, out.failed, out.attempted, out.failures
                ));
            }
            if trace && out.spans.is_empty() {
                return Err(format!("{}: traced run recorded no span", w.name));
            }
        }
    }
    eprintln!("smoke: 6 workloads x 2 modes in {:?}", t.elapsed());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_and_probe() {
        assert_eq!(smoke(DEFAULT_SEED), Ok(true));
    }

    #[test]
    fn recorded_benchmark_json_matches_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let recorded = Json::parse(&std::fs::read_to_string(path).expect(path)).expect(path);
        let list: Vec<(&str, &str)> =
            workloads::workloads(false).iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(
            recorded,
            manifest::benchmark_json(&list),
            "run --emit-manifest > BENCHMARK.json"
        );
        assert!((2..=8).contains(&list.len()));
        for (name, why) in list {
            assert!(
                manifest::valid_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload tri_mem --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace, a.memory_phase),
            (Some("tri_mem"), 7, 3.0, true, false)
        );
        assert!(parse("--workload tri_mem --seed 7 --memory-phase").unwrap().memory_phase);
        let d = parse("").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, RUN_SECONDS as f64, false));
        for bad in ["--trace 2", "--seed x", "--seconds 0", "--seconds 61", "--bogus", "--seed"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut out = RunOutput {
            attempted: 10,
            failed: 0,
            failures: vec![],
            metrics: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            notes: vec![],
            spans: vec![],
        };
        let line = result_json(&out, false).unwrap().to_line();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = back.get("metrics") else { panic!("metrics is an object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metric_value(&back, "setup_s"), Some(1.5));
        out.metrics.pop();
        assert!(result_json(&out, false).is_err(), "a missing metric is an error, not a gap");
        assert!(result_json(&out, true).is_err());
    }
}
