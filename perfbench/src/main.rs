//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each repetition of a workload runs in a fresh child process (this
//! same executable with `--child`): the workloads crate keeps a
//! process-wide population cache, which would make repeats skip
//! population, and each repetition's peak RSS must be its own. The
//! parent repeats the workload until `--seconds` have passed, checks
//! every child's outputs and that all repetitions produced the same
//! `sim_digest`, prints every metric by name and unit, and ends with
//! one JSON line: medians of the end-to-end metrics (`--trace 0`), or
//! of the per-layer metrics of traced repetitions interleaved with
//! untraced ones (`--trace 1`).

mod clock;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{
    medians, run_metrics, sim_digest, MetricDef, END_TO_END, PAPER_FENCE_OVERHEAD_PCT,
    PAPER_SP_RESIDUAL_PCT, PER_LAYER,
};
use spans::Spans;
use workloads::{kv_crash, kv_stream, paper_grid, Ctx, KvSize, Outcome};

/// Table 1 scale divisor of the paper grid.
const GRID_SCALE: u64 = 200;
/// Each KV crash bundle: a few hundred keys, a hundred-odd mixed ops.
const KV_CRASH: KvSize = KvSize {
    init_keys: 256,
    ops: 150,
};
/// KV crash bundles per repetition.
const KV_CRASH_BUNDLES: u64 = 12;
/// The streamed update-heavy KV run, over a tree large enough that
/// population is a visible part of set-up.
const KV_STREAM: KvSize = KvSize {
    init_keys: 8_192,
    ops: 32_000,
};
/// Workers by default: one, so that a repetition's workers never
/// compete with each other for the host's cores and caches, and
/// kv-stream's recorder thread has a core of its own. `--jobs` raises
/// it, up to `available_parallelism`.
const DEFAULT_JOBS: usize = 1;
/// Fewest repetitions a run takes, however long they last.
const MIN_REPS: usize = 3;
/// A run starts no repetition that could end past this many seconds.
const RUN_LIMIT_S: f64 = 150.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperGrid,
    KvCrash,
    KvStream,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::KvCrash, Workload::KvStream];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::KvCrash => "kv-crash",
            Workload::KvStream => "kv-stream",
        }
    }

    fn run(self, ctx: &Ctx<'_>) -> Outcome {
        match self {
            Workload::PaperGrid => paper_grid(ctx, GRID_SCALE),
            Workload::KvCrash => kv_crash(ctx, KV_CRASH, KV_CRASH_BUNDLES),
            Workload::KvStream => kv_stream(ctx, KV_STREAM),
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut jobs = DEFAULT_JOBS;
    let mut child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?} is invalid");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= RUN_LIMIT_S) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--jobs" => {
                jobs = value.parse().map_err(|_| bad())?;
                if jobs == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (paper-grid, kv-crash or kv-stream)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        jobs,
        child,
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a traced child writes its Chrome trace: beside the executable,
/// inside the build directory.
fn trace_path(w: Workload, seed: u64) -> Option<PathBuf> {
    let dir = std::env::current_exe()
        .ok()?
        .parent()?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir.join(format!("{}-seed{seed}.json", w.name())))
}

/// One repetition, in this (child) process. Prints the line protocol
/// the parent parses: `metric NAME VALUE`, `checks ATTEMPTED FAILED`,
/// `digest HEX`, and one `fail WHAT` line per failed check.
fn child(args: &Args) -> ExitCode {
    let spans = Spans::new(args.trace, u64::from(std::process::id()));
    let cpu_started = clock::process_cpu_s();
    let started = Instant::now();
    let out = {
        let root = spans.enter("run", 0, 0);
        let ctx = Ctx {
            seed: args.seed,
            jobs: args.jobs,
            spans: &spans,
            root: root.id(),
        };
        args.workload.run(&ctx)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = clock::process_cpu_s() - cpu_started;
    let finished = spans.finished();
    let m = run_metrics(&out, wall_s, cpu_s, peak_rss_mb(), args.jobs, &finished);
    let mut text = String::new();
    for (k, v) in &m {
        let _ = writeln!(text, "metric {k} {v}");
    }
    let _ = writeln!(
        text,
        "checks {} {}",
        out.checks.attempted,
        out.checks.failures.len()
    );
    let _ = writeln!(text, "digest {:016x}", sim_digest(&out));
    for f in &out.checks.failures {
        let _ = writeln!(text, "fail {f}");
    }
    print!("{text}");
    if args.trace {
        match trace_path(args.workload, args.seed) {
            Some(p) => {
                if let Err(e) = std::fs::write(&p, spans.chrome_json(args.workload.name())) {
                    eprintln!("perfbench: cannot write {}: {e}", p.display());
                }
            }
            None => eprintln!("perfbench: no directory for the Chrome trace"),
        }
    }
    ExitCode::SUCCESS
}

/// What the parent learned from one child.
#[derive(Debug, Default)]
struct Rep {
    traced: bool,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failures: Vec<String>,
    digest: String,
}

fn parse_rep(stdout: &str, traced: bool) -> Result<Rep, String> {
    let mut rep = Rep {
        traced,
        ..Rep::default()
    };
    let mut saw_checks = false;
    for line in stdout.lines() {
        if let Some(what) = line.strip_prefix("fail ") {
            rep.failures.push(what.to_string());
            continue;
        }
        let bad = || format!("unexpected child output {line:?}");
        let f: Vec<&str> = line.split(' ').collect();
        match f[..] {
            ["metric", k, v] => {
                rep.metrics
                    .insert(k.to_string(), v.parse().map_err(|_| bad())?);
            }
            ["checks", a, _] => {
                rep.attempted = a.parse().map_err(|_| bad())?;
                saw_checks = true;
            }
            ["digest", d] => rep.digest = d.to_string(),
            _ => return Err(bad()),
        }
    }
    if !saw_checks || rep.digest.is_empty() {
        return Err("child output is incomplete".into());
    }
    Ok(rep)
}

fn spawn_rep(args: &Args, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--jobs", &args.jobs.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    parse_rep(&String::from_utf8_lossy(&out.stdout), traced)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.0 == name)
        .map_or("", |d| d.1)
}

fn json_metrics(defs: &[MetricDef], values: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|&(name, unit, _)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs repetitions until `--seconds` have passed (at least
/// [`MIN_REPS`]), stopping at the first one that fails to run.
fn run_reps(args: &Args) -> (Vec<Rep>, Option<String>) {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        // In a traced run repetitions alternate untraced/traced, so
        // stop only after a complete pair.
        let paired = !args.trace || reps.len().is_multiple_of(2);
        let enough = reps.len() >= MIN_REPS && elapsed >= args.seconds && paired;
        if enough || elapsed + longest > RUN_LIMIT_S {
            return (reps, None);
        }
        let traced = args.trace && reps.len() % 2 == 1;
        let t = Instant::now();
        let rep = match spawn_rep(args, traced) {
            Ok(rep) => rep,
            Err(e) => return (reps, Some(e)),
        };
        longest = longest.max(t.elapsed().as_secs_f64());
        let get = |k: &str| rep.metrics.get(k).copied().unwrap_or(0.0);
        eprintln!(
            "perfbench: repetition {} traced={traced} cpu_s={:.4} wall_s={:.4} setup_s={:.4} peak_rss_mb={:.1}",
            reps.len(),
            get("cpu_s"),
            get("wall_s"),
            get("setup_s"),
            get("peak_rss_mb")
        );
        reps.push(rep);
    }
}

fn show<'a>(label: &str, names: impl IntoIterator<Item = &'a str>, vals: &BTreeMap<String, f64>) {
    println!("{label}");
    for n in names {
        let v = vals.get(n).copied().unwrap_or(0.0);
        println!("  {n:<32} {v:>16.6} {}", unit_of(n));
    }
}

/// Runs the workload's repetitions, checks them, and reports.
fn parent(args: &Args) -> ExitCode {
    let (reps, error) = run_reps(args);
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    if let Some(e) = error {
        attempted += 1;
        failures.push(e);
    }
    let digest = reps.first().map_or("", |r| r.digest.as_str());
    for (i, r) in reps.iter().enumerate().skip(1) {
        attempted += 1;
        if r.digest != digest {
            failures.push(format!(
                "repetition {i} sim_digest {} differs from {digest}",
                r.digest
            ));
        }
    }
    let attempted = attempted.max(1);
    let fail_ratio = failures.len() as f64 / attempted as f64;

    let metrics_of = |traced: bool| -> Vec<&BTreeMap<String, f64>> {
        reps.iter()
            .filter(|r| r.traced == traced)
            .map(|r| &r.metrics)
            .collect()
    };
    let mut e2e = medians(&metrics_of(false));
    let mut layers = medians(&metrics_of(true));
    if let (Some(t), Some(u)) = (layers.get("wall_s"), e2e.get("wall_s")) {
        let overhead = 100.0 * (t / u - 1.0);
        layers.insert("bench.trace_overhead_pct".into(), overhead);
    }
    e2e.insert("fail_ratio".into(), fail_ratio);
    layers.insert("fail_ratio".into(), fail_ratio);

    let w = args.workload;
    println!(
        "perfbench {} seed={} reps={} (traced {}) jobs={} nproc={}",
        w.name(),
        args.seed,
        reps.len(),
        metrics_of(true).len(),
        args.jobs,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let extras = [
        "wall_s",
        "sim_uops_per_s",
        "fail_ratio",
        "crash_images_per_s",
        "kv_ops_per_s",
    ];
    show(
        "end-to-end (median of untraced repetitions):",
        END_TO_END.iter().map(|d| d.0).chain(extras),
        &e2e,
    );
    if w == Workload::PaperGrid {
        for (name, paper) in [
            ("fence_overhead_pct", PAPER_FENCE_OVERHEAD_PCT),
            ("sp_residual_pct", PAPER_SP_RESIDUAL_PCT),
        ] {
            let v = e2e.get(name).copied().unwrap_or(0.0);
            println!(
                "  {name:<32} {v:>16.6} % simulated (paper {paper:+.1} %, error {:+.2} pp)",
                v - paper
            );
        }
    }
    if args.trace {
        show(
            "per-layer (median of traced repetitions):",
            PER_LAYER.iter().map(|d| d.0),
            &layers,
        );
    }
    println!("  sim_digest {digest}");
    let correct = failures.is_empty() && !reps.is_empty();
    println!(
        "checks: {attempted} attempted, {} failed{}",
        failures.len(),
        if correct { "" } else { " -- FAIL" }
    );
    for f in failures.iter().take(20) {
        println!("  FAIL {f}");
    }
    let (names, values) = if args.trace {
        (&PER_LAYER[..], &layers)
    } else {
        (&END_TO_END[..], &e2e)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failures.len(),
        json_metrics(names, values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-grid|kv-crash|kv-stream --seed N \
                 [--seconds S] [--trace 0|1] [--jobs N]"
            );
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_protocol_round_trips() {
        let out = "metric wall_s 1.5\nmetric cpu.sims 77\nchecks 12 1\ndigest 00ff\nfail crash at 3: lost\n";
        let rep = parse_rep(out, true).expect("well-formed");
        assert!(rep.traced);
        assert_eq!(rep.metrics["wall_s"], 1.5);
        assert_eq!(rep.metrics["cpu.sims"], 77.0);
        assert_eq!(rep.attempted, 12);
        assert_eq!(rep.digest, "00ff");
        assert_eq!(rep.failures, vec!["crash at 3: lost".to_string()]);
        assert!(
            parse_rep("metric wall_s 1\n", false).is_err(),
            "no checks/digest"
        );
        assert!(parse_rep("checks 1 0\ndigest 1\nnoise\n", false).is_err());
    }

    #[test]
    fn result_metrics_are_json_numbers_with_units() {
        let vals: BTreeMap<String, f64> = [
            ("cpu_s".to_string(), 2.5),
            ("setup_s".to_string(), f64::NAN),
        ]
        .into();
        let json = json_metrics(&END_TO_END[..2], &vals);
        assert_eq!(
            json,
            "{\"cpu_s\": {\"value\": 2.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = parse("--workload kv-crash --seed 3 --seconds 30 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.trace, a.child),
            (Workload::KvCrash, 3, true, false)
        );
        assert!(parse("--workload kv-crash").is_err(), "seed required");
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload kv-crash --seed 1 --trace 2").is_err());
        assert!(parse("--workload kv-crash --seed 1 --jobs 0").is_err());
        assert!(parse("--workload kv-crash --seed 1 --seconds 0").is_err());
    }
}
