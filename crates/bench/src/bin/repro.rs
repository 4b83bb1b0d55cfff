//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <command> [--scale N] [--seed S] [--jobs J]
//!
//! Commands:
//!   all        every table and figure (plus the ablation study)
//!   table1 | table2 | table3
//!   fig8 | fig9 | fig10 | fig11 | fig12 | fig13 | fig14
//!   ablation   SP design-choice sensitivity (beyond the paper)
//!   incremental  full vs incremental logging on the B-tree (§3.2)
//!   flushmode  clwb vs clflushopt vs clflush (§2.2 footnote)
//!   trace <BENCH> <VARIANT>  inspect one recorded trace (uop mix)
//!   json       run the suite and print machine-readable JSON
//!   multicore  shared-data multi-core scaling study: concurrent
//!              persistent structures (Treiber stack, MS queue) over
//!              one coherent memory system, 1..4 cores x {baseline,
//!              SP256} x {contended, disjoint}, reporting worst-core
//!              cycles/op plus BLT conflict/rollback accounting as one
//!              `specpersist/multicore-v1` JSON line; exits non-zero
//!              unless the contended SP legs conflict and the disjoint
//!              legs stay conflict-free
//!   litmus     Px86 persistency-model validation: sweep the litmus
//!              catalog (plus seeded generated programs at generous
//!              scales) x {clwb, clflushopt, clflush}, checking every
//!              reachable post-crash state of the real stack — CrashSim
//!              at each persist boundary, both pipeline cores x
//!              {baseline, SP} — against the executable Px86 reference
//!              model, with the SP differential proving speculation
//!              never widens a reachable set; prints the per-program
//!              table plus one `specpersist/litmus-v1` JSON line; exits
//!              non-zero if any leg reaches a forbidden state (the
//!              minimized witness is in the report)
//!   kv         crash-recoverable KV storage engine: WAL + COW
//!              checkpointed B+tree under a mixed YCSB-style load —
//!              baseline-vs-SP cycles across a checkpoint-interval
//!              sweep, crash recovery fuzzed at every persist boundary
//!              (clean under Log+P+Sf, witness-minimized under Log,
//!              and a must-fail leg proving an elided WAL checksum is
//!              caught), plus a bounded-memory streamed-trace leg;
//!              prints the per-cell tables plus one
//!              `specpersist/kv-v1` JSON line; exits non-zero if any
//!              oracle fails or the SP legs regress
//!   optimize <BENCH> <VARIANT>  persist-path trace optimizer: detect
//!              redundant persist operations in one recorded trace
//!              (the same line flushed twice in an epoch, flushes
//!              never covered by a persist barrier, fences with
//!              nothing to order), elide them, replay the
//!              optimized trace on both pipeline cores x {baseline,
//!              SP} with the spp-obs probe attached, and prove safety
//!              by crashfuzzing every persist boundary of the
//!              optimized trace (plus an inverted leg eliding a
//!              required flush, which the oracle must catch); prints
//!              the before/after cycle + stall diff and one
//!              `specpersist/optimize-v1` JSON line; exits non-zero if
//!              any leg fails
//!   crashfuzz [all|log|logp|logpsf]  crash-consistency fuzzing, the
//!              workload-level half of the persist-semantics story
//!              (litmus is the model-level half): Log+P+Sf must recover
//!              at every crash point/reordering, Log and Log+P must
//!              each yield a minimized inconsistency witness; exits
//!              non-zero if either direction fails
//!   faultsim   deterministic hardware fault injection: every
//!              benchmark x variant x fault plan must commit exactly
//!              the fault-free architectural state (only cycle counts
//!              may move), crash verdicts must hold, and the
//!              forward-progress watchdog must convert a wedged run
//!              into a typed error; exits non-zero on any divergence
//!   profile <BENCH> <VARIANT>  cycle-resolved observability: replay
//!              one trace on the baseline and SP256 cores with the
//!              spp-obs probe attached, print the stall-attribution
//!              table plus one `specpersist/profile-v2` JSON line, and
//!              optionally export a Chrome trace (--trace-out); exits
//!              non-zero if the probe's attribution diverges from the
//!              machine's own stall counters
//!
//! Options:
//!   --scale N  divide Table 1's op counts by N (default 50; 1 = paper)
//!   --seed S   RNG seed (default 0x5EED)
//!   --jobs J   worker threads (default: all cores; 1 = serial)
//!   --model-knob K  (litmus; test-only) weaken one Px86 rule —
//!              `honest` (default) or `clflushopt-po` (pretend
//!              clflushopt is program-ordered like clflush); under a
//!              weakened model the checker must reach forbidden states,
//!              proving the harness would catch a real model violation
//!   --trace-out PATH  (profile) write the merged Chrome trace_event
//!              document to PATH (loadable in Perfetto or
//!              chrome://tracing)
//!
//! Invalid input (a malformed or zero --scale/--jobs, an unknown
//! command, flag, benchmark, variant, or leg, a positional argument the
//! command does not take, or a flag the command does not accept) exits
//! non-zero with a one-line `repro: ...` diagnostic on stderr. An
//! unknown command is reported before anything else is checked.
//!
//! Every trace is recorded exactly once per invocation and shared
//! across all simulator configurations (the `repro all` sweep replays
//! most traces several times). `--jobs` only changes wall time: the
//! report on stdout is byte-identical at every job count; stage
//! timings go to stderr.
//! ```

use std::cell::OnceCell;
use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

use spp_bench::litmus::ModelKnob;
use spp_bench::report;
use spp_bench::study::{run_study, staged, StudyReport};
use spp_bench::{BenchRun, Experiment, Harness};
use spp_workloads::BenchId;

const USAGE: &str = "usage: repro <all|table1|table2|table3|fig8..fig14|ablation|incremental|flushmode|trace|json|multicore|litmus|kv|optimize|crashfuzz|faultsim|profile> [--scale N] [--seed S] [--jobs J] [--trace-out PATH]";

/// [`Command::flags`] bit: `--model-knob`.
const MODEL_KNOB: u8 = 1;
/// [`Command::flags`] bit: `--trace-out`.
const TRACE_OUT: u8 = 1 << 1;

/// The command-scoped flags with their [`Command::flags`] bits, in the
/// order the scope check tests them and its error lists them.
const SCOPED_FLAGS: [(&str, u8); 2] = [("--model-knob", MODEL_KNOB), ("--trace-out", TRACE_OUT)];

/// One `repro` command: everything parsing, the scope check and
/// dispatch know about it.
#[derive(Debug)]
struct Command {
    name: &'static str,
    /// Positional arguments it takes; one more is a typed error.
    takes: usize,
    /// The command-scoped flags it accepts, as `MODEL_KNOB | ...`
    /// bits.
    flags: u8,
    /// Part of `repro all`, which runs these rows in table order.
    in_all: bool,
    run: fn(&Ctx) -> Result<ExitCode, CliError>,
}

/// Every `repro` command, in `USAGE` order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "all",         takes: 0, flags: 0,                     in_all: false, run: all_cmd },
    Command { name: "table1",      takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::table1(&c.harness.exp)) },
    Command { name: "table2",      takes: 0, flags: 0,                     in_all: true,  run: |_| print_ok(&report::table2()) },
    Command { name: "table3",      takes: 0, flags: 0,                     in_all: true,  run: |_| print_ok(&report::table3()) },
    Command { name: "fig8",        takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::fig8(suite(c))) },
    Command { name: "fig9",        takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::fig9(suite(c))) },
    Command { name: "fig10",       takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::fig10(suite(c))) },
    Command { name: "fig11",       takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::fig11(suite(c))) },
    Command { name: "fig12",       takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::fig12(suite(c))) },
    Command { name: "fig13",       takes: 0, flags: 0,                     in_all: true,  run: |c| stage(c, "fig13 SSB sweep", report::fig13) },
    Command { name: "fig14",       takes: 0, flags: 0,                     in_all: true,  run: |c| print_ok(&report::fig14(suite(c))) },
    Command { name: "ablation",    takes: 0, flags: 0,                     in_all: true,  run: |c| stage(c, "ablation", report::ablation) },
    Command { name: "incremental", takes: 0, flags: 0,                     in_all: true,  run: |c| stage(c, "logging comparison", report::incremental) },
    Command { name: "flushmode",   takes: 0, flags: 0,                     in_all: true,  run: |c| stage(c, "flush-mode ablation", report::flushmode) },
    Command { name: "trace",       takes: 2, flags: 0,                     in_all: false, run: trace_cmd },
    Command { name: "json",        takes: 0, flags: 0,                     in_all: false, run: |c| print_ok(&format!("{}\n", spp_bench::json::suite_json(suite(c)))) },
    Command { name: "multicore",   takes: 0, flags: 0,                     in_all: false, run: |c| study(c, || spp_bench::multicore::run_multicore(c.harness)) },
    Command { name: "litmus",      takes: 0, flags: MODEL_KNOB,            in_all: false, run: litmus_cmd },
    Command { name: "kv",          takes: 0, flags: 0,                     in_all: false, run: |c| study(c, || spp_bench::kv::run_kv(c.harness)) },
    Command { name: "optimize",    takes: 2, flags: 0,                     in_all: false, run: optimize_cmd },
    Command { name: "crashfuzz",   takes: 1, flags: 0,                     in_all: false, run: crashfuzz_cmd },
    Command { name: "faultsim",    takes: 0, flags: 0,                     in_all: false, run: faultsim_cmd },
    Command { name: "profile",     takes: 2, flags: TRACE_OUT,             in_all: false, run: profile_cmd },
];

/// A rejected invocation: every variant renders as one line, and every
/// variant exits non-zero. Parsing never panics on user input.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CliError {
    /// No command was given.
    NoCommand,
    /// The command word is not one `repro` knows.
    UnknownCommand(String),
    /// A `--`-prefixed word that is not one of `repro`'s flags.
    UnknownFlag(String),
    /// A flag's value is missing or unusable (non-numeric, negative,
    /// or below the flag's minimum).
    BadValue {
        flag: &'static str,
        given: String,
        want: &'static str,
    },
    /// The named command (`trace`, `profile` or `optimize`) needs a
    /// benchmark and a variant.
    MissingBenchArgs(&'static str),
    /// The benchmark abbreviation is not in Table 1.
    UnknownBench(String),
    /// The build-variant name is not one of the four builds.
    UnknownVariant(String),
    /// The crashfuzz leg name is not a known slice of the matrix.
    UnknownLeg(String),
    /// A command-scoped flag given to a command whose row does not
    /// accept it.
    FlagUnsupported {
        flag: &'static str,
        cmd: &'static str,
    },
    /// A positional argument past the ones the command takes.
    UnexpectedArg { arg: String, cmd: &'static str },
    /// The `--trace-out` file could not be written (after the report
    /// was printed).
    TraceOut { path: String, error: String },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => f.write_str("no command given"),
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::BadValue { flag, given, want } => {
                write!(f, "{flag} {given:?} is invalid (want {want})")
            }
            CliError::MissingBenchArgs(cmd) => {
                write!(
                    f,
                    "{cmd} needs <GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>"
                )
            }
            CliError::UnknownBench(b) => {
                write!(f, "unknown benchmark {b:?} (want GH|HM|LL|SS|AT|BT|RT)")
            }
            CliError::UnknownVariant(v) => {
                write!(f, "unknown variant {v:?} (want base|log|logp|logpsf)")
            }
            CliError::UnknownLeg(l) => {
                write!(f, "unknown crashfuzz leg {l:?} (want all|log|logp|logpsf)")
            }
            CliError::FlagUnsupported { flag, cmd } => {
                // The hint names, per scoped flag, the rows accepting it.
                write!(f, "{flag} is not supported by {cmd:?} (")?;
                for (i, (scoped, bit)) in SCOPED_FLAGS.into_iter().enumerate() {
                    let rows: Vec<&str> = COMMANDS
                        .iter()
                        .filter(|c| c.flags & bit != 0)
                        .map(|c| c.name)
                        .collect();
                    let sep = if i == 0 { "" } else { "; " };
                    write!(f, "{sep}{scoped}: {}", rows.join(", "))?;
                }
                f.write_str(")")
            }
            CliError::UnexpectedArg { arg, cmd } => {
                write!(f, "unexpected argument {arg:?} for {cmd:?}")
            }
            CliError::TraceOut { path, error } => write!(f, "--trace-out {path:?}: {error}"),
        }
    }
}

impl CliError {
    /// Whether the invocation itself is wrong (the usage line helps), as
    /// opposed to a valid invocation that failed while running.
    fn is_invocation_error(&self) -> bool {
        match self {
            CliError::NoCommand
            | CliError::UnknownCommand(_)
            | CliError::UnknownFlag(_)
            | CliError::BadValue { .. }
            | CliError::MissingBenchArgs(_)
            | CliError::UnknownBench(_)
            | CliError::UnknownVariant(_)
            | CliError::UnknownLeg(_)
            | CliError::FlagUnsupported { .. }
            | CliError::UnexpectedArg { .. } => true,
            CliError::TraceOut { .. } => false,
        }
    }
}

/// A parsed invocation.
#[derive(Debug)]
struct Cli {
    cmd: &'static Command,
    exp: Experiment,
    jobs: usize,
    model_knob: Option<ModelKnob>,
    trace_out: Option<String>,
    positional: Vec<String>,
}

/// Parses everything after the binary name. The first word must name a
/// row of [`COMMANDS`]. Flags may appear anywhere after it; any other
/// `--`-prefixed word is rejected, and all remaining words are
/// positional arguments for the command.
fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let Some(cmd) = args.first().map(String::as_str) else {
        return Err(CliError::NoCommand);
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or_else(|| CliError::UnknownCommand(cmd.to_string()))?;
    let mut exp = Experiment::default();
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut model_knob: Option<ModelKnob> = None;
    let mut trace_out: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 1;
    fn flag_value(
        flag: &'static str,
        args: &[String],
        i: usize,
        min: u64,
        want: &'static str,
    ) -> Result<u64, CliError> {
        let given = args.get(i + 1).cloned().unwrap_or_default();
        match given.parse::<u64>() {
            Ok(v) if v >= min => Ok(v),
            _ => Err(CliError::BadValue { flag, given, want }),
        }
    }
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                exp.scale = flag_value("--scale", args, i, 1, "an integer of at least 1")?;
                i += 2;
            }
            "--seed" => {
                exp.seed = flag_value("--seed", args, i, 0, "a non-negative integer")?;
                i += 2;
            }
            "--jobs" => {
                jobs = flag_value("--jobs", args, i, 1, "an integer of at least 1")? as usize;
                i += 2;
            }
            "--trace-out" => match args.get(i + 1) {
                Some(next) if !next.is_empty() && !next.starts_with("--") => {
                    trace_out = Some(next.clone());
                    i += 2;
                }
                _ => {
                    return Err(CliError::BadValue {
                        flag: "--trace-out",
                        given: args.get(i + 1).cloned().unwrap_or_default(),
                        want: "a file path",
                    })
                }
            },
            "--model-knob" => {
                let given = args.get(i + 1).cloned().unwrap_or_default();
                model_knob = Some(ModelKnob::parse(&given).ok_or(CliError::BadValue {
                    flag: "--model-knob",
                    given,
                    want: "honest or clflushopt-po",
                })?);
                i += 2;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::UnknownFlag(flag.to_string()));
            }
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    Ok(Cli {
        cmd,
        exp,
        jobs,
        model_knob,
        trace_out,
        positional,
    })
}

/// Rejects positionals and flags the command's row does not take
/// before any work starts.
fn check_flag_scope(cli: &Cli) -> Result<(), CliError> {
    let cmd = cli.cmd;
    // A stray word would otherwise be silently ignored: `repro fig8 LL`
    // would run the whole suite, reading as if it had filtered to LL.
    if let Some(arg) = cli.positional.get(cmd.takes) {
        return Err(CliError::UnexpectedArg {
            arg: arg.clone(),
            cmd: cmd.name,
        });
    }
    // In this order, so an invocation breaking two rules always reports
    // the same one.
    let given = [cli.model_knob.is_some(), cli.trace_out.is_some()];
    for ((flag, bit), given) in SCOPED_FLAGS.into_iter().zip(given) {
        if given && cmd.flags & bit == 0 {
            return Err(CliError::FlagUnsupported {
                flag,
                cmd: cmd.name,
            });
        }
    }
    Ok(())
}

/// The report verdict as an exit status.
fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{}", error_text(&e));
            ExitCode::FAILURE
        }
    }
}

/// What `repro` prints on stderr for a rejected invocation or a failed
/// run: the one-line diagnostic, then the usage line only when the
/// invocation itself was at fault.
fn error_text(e: &CliError) -> String {
    if e.is_invocation_error() {
        format!("repro: {e}\n{USAGE}")
    } else {
        format!("repro: {e}")
    }
}

/// What a command's `run` receives: the parsed invocation (flags and
/// positionals) and the harness.
struct Ctx<'a> {
    cli: &'a Cli,
    harness: &'a Harness,
    /// The Table 1 suite, run on first use (see [`suite`]).
    suite: OnceCell<Vec<BenchRun>>,
}

fn run(cli: Cli) -> Result<ExitCode, CliError> {
    check_flag_scope(&cli)?;
    let harness = Harness::new(cli.exp, cli.jobs);
    let ctx = Ctx {
        cli: &cli,
        harness: &harness,
        suite: OnceCell::new(),
    };
    (cli.cmd.run)(&ctx)
}

/// The Table 1 suite the figures read, run once per invocation however
/// many figures ask for it.
fn suite<'a>(c: &'a Ctx) -> &'a [BenchRun] {
    c.suite.get_or_init(|| {
        let h = c.harness;
        eprintln!(
            "# running suite at scale 1/{} (seed {:#x}, {} jobs)...",
            h.exp.scale, h.exp.seed, h.jobs
        );
        staged(h, "suite", || h.run_benches(&BenchId::ALL))
    })
}

/// Prints one report to stdout; the command succeeded.
fn print_ok(report: &str) -> Result<ExitCode, CliError> {
    print!("{report}");
    Ok(ExitCode::SUCCESS)
}

/// Prints the report `report` draws from the harness, run as the timed
/// stage `label`.
fn stage(c: &Ctx, label: &str, report: fn(&Harness) -> String) -> Result<ExitCode, CliError> {
    print_ok(&staged(c.harness, label, || report(c.harness)))
}

/// Runs the command's study, staged under the command's name, and
/// turns the report's verdict into the exit status.
fn study<R: StudyReport>(c: &Ctx, f: impl FnOnce() -> R) -> Result<ExitCode, CliError> {
    Ok(verdict(run_study(c.harness, c.cli.cmd.name, f)))
}

/// `repro all`: every row marked `in_all`, in table order, then the
/// multicore scaling stage and the trace-cache accounting.
fn all_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    let t0 = Instant::now();
    let h = c.harness;
    for cmd in COMMANDS.iter().filter(|cmd| cmd.in_all) {
        (cmd.run)(c)?;
    }
    stage(c, "multicore study", report::multicore)?;
    let s = h.cache_stats();
    eprintln!(
        "# trace cache: {} recordings, {} cached replays, {} keys, {} bytes",
        s.recordings, s.hits, s.entries, s.bytes
    );
    // The harness contract: a trace is recorded at most once per
    // key, no matter how many figures replay it.
    assert_eq!(
        s.recordings, s.entries,
        "each (bench, variant, scale, seed, flushmode) trace must be recorded exactly once"
    );
    eprintln!(
        "# total: {:.2}s ({} jobs)",
        t0.elapsed().as_secs_f64(),
        h.jobs
    );
    Ok(ExitCode::SUCCESS)
}

/// `repro optimize <BENCH> <VARIANT>`: the persist-path trace
/// optimizer — analyze one recorded trace for redundant persist
/// operations, elide them, replay the optimized trace on both pipeline
/// cores x {baseline, SP} with the spp-obs probe attached, and prove
/// the plan safe by crashfuzzing every persist boundary of the
/// optimized trace (plus the inverted leg eliding a required flush,
/// which the oracle must catch). Prints the before/after tables and one
/// `specpersist/optimize-v1` JSON line. Exits non-zero if any leg
/// fails.
fn optimize_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    let (id, variant) = bench_variant(c.cli)?;
    study(c, || {
        spp_bench::optimize::run_optimize(c.harness, id, variant)
    })
}

/// `repro crashfuzz [all|log|logp|logpsf]`: run the crash-consistency
/// fuzz matrix and print the text report plus one JSON line. Exits
/// non-zero when a must-pass cell violated its oracle, a must-fail
/// cell found no inconsistency, or the SP differential diverged.
fn crashfuzz_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::crashfuzz::{run_crashfuzz, Leg};
    let leg = match c.cli.positional.first() {
        None => Leg::All,
        Some(s) => Leg::parse(s).ok_or_else(|| CliError::UnknownLeg(s.clone()))?,
    };
    study(c, || run_crashfuzz(c.harness, leg))
}

/// `repro faultsim`: run the fault-injection matrix (benchmark x
/// variant x plan, both cores) on the `--jobs` workers, then the
/// watchdog-detection leg, and print the text report and one JSON line.
/// Exits non-zero if a faulted run changed committed state or a crash
/// verdict, a pair's simulation returned a typed error, a plan never
/// fired, or the watchdog failed to convert a wedged run into a typed
/// error.
fn faultsim_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    study(c, || spp_bench::faultsim::run_faultsim(c.harness))
}

/// `repro litmus [--model-knob K]`: Px86 persistency-model validation
/// — every litmus program x flush mode is one cell, run on the `--jobs`
/// workers and checked against the executable reference model on all
/// seven legs (CrashSim, both cores x {baseline, SP}, and the SP
/// differentials). Prints the
/// per-program table and one `specpersist/litmus-v1` JSON line. The
/// hidden `--model-knob` weakens one model rule so CI can prove the
/// checker actually fails when the model is wrong. Exits non-zero if
/// any leg reached a forbidden state.
fn litmus_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    let knob = c.cli.model_knob.unwrap_or_default();
    study(c, || spp_bench::litmus::run_litmus(c.harness, knob))
}

/// `repro profile <BENCH> <VARIANT> [--trace-out PATH]`: replay one
/// trace on the baseline and SP256 cores with the spp-obs probe
/// attached, print the stall-attribution table and one
/// `specpersist/profile-v2` JSON line, and optionally write the merged
/// Chrome trace. Exits non-zero if the probe's attribution diverges
/// from the machine's stall counters, or if the trace cannot be
/// written.
fn profile_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_bench::profile::run_profile;
    let (id, variant) = bench_variant(c.cli)?;
    let mut trace = None;
    let code = study(c, || {
        let rep = run_profile(c.harness, id, variant);
        trace = c
            .cli
            .trace_out
            .as_ref()
            .map(|path| (path, rep.chrome_trace()));
        rep
    })?;
    if let Some((path, trace)) = trace {
        std::fs::write(path, &trace).map_err(|e| CliError::TraceOut {
            path: path.clone(),
            error: e.to_string(),
        })?;
        eprintln!("# chrome trace: {path} ({} bytes)", trace.len());
    }
    Ok(code)
}

/// The `<BENCH> <VARIANT>` positionals of a command that takes them
/// (`optimize`, `profile` or `trace`).
fn bench_variant(cli: &Cli) -> Result<(BenchId, spp_pmem::Variant), CliError> {
    let (Some(bench), Some(variant)) = (cli.positional.first(), cli.positional.get(1)) else {
        return Err(CliError::MissingBenchArgs(cli.cmd.name));
    };
    let id = BenchId::ALL
        .iter()
        .copied()
        .find(|b| b.abbrev().eq_ignore_ascii_case(bench))
        .ok_or_else(|| CliError::UnknownBench(bench.clone()))?;
    let variant = spp_bench::parse_variant(variant)
        .ok_or_else(|| CliError::UnknownVariant(variant.clone()))?;
    Ok((id, variant))
}

/// `repro trace <BENCH> <VARIANT>`: record one trace and print its
/// micro-op mix and per-operation averages.
fn trace_cmd(c: &Ctx) -> Result<ExitCode, CliError> {
    use spp_workloads::{record_trace, BenchSpec, TraceSpec};
    let (id, variant) = bench_variant(c.cli)?;
    let exp = c.harness.exp;
    let spec = BenchSpec::scaled(id, exp.scale);
    let counts = record_trace(&TraceSpec::new(variant, spec, exp.seed)).counts;
    let ops = spec.sim_ops;
    println!(
        "{} / {} at scale 1/{} ({} ops recorded)",
        id.name(),
        variant,
        exp.scale,
        ops
    );
    println!("{:<22} {:>12} {:>10}", "class", "micro-ops", "per op");
    for (name, v) in [
        ("compute", counts.compute),
        ("loads", counts.loads),
        ("stores", counts.stores),
        ("flushes (clwb/...)", counts.flushes),
        ("pcommits", counts.pcommits),
        ("fences", counts.fences),
    ] {
        println!("{:<22} {:>12} {:>10.1}", name, v, v as f64 / ops as f64);
    }
    println!(
        "{:<22} {:>12} {:>10.1}",
        "TOTAL",
        counts.total(),
        counts.total() as f64 / ops as f64
    );
    println!("transactions: {}", counts.transactions);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    /// Parses and runs `words` as the binary does, minus the usage line.
    fn run_words(words: &[&str]) -> Result<ExitCode, CliError> {
        run(parse_args(&args(words))?)
    }

    #[test]
    fn defaults_apply_without_flags() {
        let cli = parse_args(&args(&["all"])).unwrap();
        assert_eq!(cli.cmd.name, "all");
        assert_eq!(cli.exp.scale, Experiment::default().scale);
        assert_eq!(cli.exp.seed, Experiment::default().seed);
        assert!(cli.jobs >= 1);
        assert!(cli.positional.is_empty());
    }

    #[test]
    fn flags_and_positionals_parse_anywhere() {
        let cli = parse_args(&args(&[
            "trace", "--scale", "200", "LL", "--seed", "9", "logpsf", "--jobs", "3",
        ]))
        .unwrap();
        assert_eq!(cli.cmd.name, "trace");
        assert_eq!(cli.exp.scale, 200);
        assert_eq!(cli.exp.seed, 9);
        assert_eq!(cli.jobs, 3);
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
    }

    #[test]
    fn zero_jobs_is_a_typed_error() {
        let e = parse_args(&args(&["all", "--jobs", "0"])).unwrap_err();
        assert_eq!(
            e,
            CliError::BadValue {
                flag: "--jobs",
                given: "0".to_string(),
                want: "an integer of at least 1",
            }
        );
    }

    #[test]
    fn zero_and_negative_scale_are_typed_errors() {
        for bad in ["0", "-3", "1.5", "lots", ""] {
            let e = parse_args(&args(&["all", "--scale", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--scale",
                        ..
                    }
                ),
                "--scale {bad:?} gave {e:?}"
            );
        }
    }

    #[test]
    fn missing_flag_value_is_a_typed_error() {
        let e = parse_args(&args(&["all", "--seed"])).unwrap_err();
        assert_eq!(
            e,
            CliError::BadValue {
                flag: "--seed",
                given: String::new(),
                want: "a non-negative integer",
            }
        );
    }

    #[test]
    fn no_command_is_a_typed_error() {
        assert_eq!(parse_args(&[]).unwrap_err(), CliError::NoCommand);
    }

    #[test]
    fn unknown_command_is_reported_before_any_other_check() {
        for words in [
            &["fig99", "--journal", "x"][..],
            &["fig99", "extra"],
            &["fig99", "--sacle", "5"],
            &["--scale", "5", "all"],
            &["soak", "--iters", "2"],
            &["journal", "check", "x.jsonl"],
        ] {
            assert_eq!(
                parse_args(&args(words)).unwrap_err(),
                CliError::UnknownCommand(words[0].into()),
                "{words:?}"
            );
        }
    }

    /// Whether the scope check lets `cmd` take `flag`.
    fn accepts(cmd: &str, flag: &str) -> bool {
        let value = match flag {
            "--model-knob" => "honest",
            _ => "t.json",
        };
        let cli = parse_args(&args(&[cmd, flag, value])).unwrap();
        !matches!(
            check_flag_scope(&cli),
            Err(CliError::FlagUnsupported { flag: f, .. }) if f == flag
        )
    }

    #[test]
    fn usage_lists_every_row_in_table_order() {
        // `fig8..fig14` stands for the run of figures.
        let list = USAGE.strip_prefix("usage: repro <").unwrap();
        let list = &list[..list.find('>').unwrap()];
        let mut named = Vec::new();
        for word in list.split('|') {
            match word.split_once("..") {
                Some((lo, hi)) => {
                    let fig = |w: &str| w.strip_prefix("fig").unwrap().parse::<u32>().unwrap();
                    named.extend((fig(lo)..=fig(hi)).map(|n| format!("fig{n}")));
                }
                None => named.push(word.to_string()),
            }
        }
        let rows: Vec<String> = COMMANDS.iter().map(|c| c.name.to_string()).collect();
        assert_eq!(named, rows);
    }

    #[test]
    fn flag_unsupported_hint_names_exactly_the_rows_taking_each_flag() {
        // One clause per scoped flag, in `SCOPED_FLAGS` order, listing
        // the rows whose scope check accepts it.
        let text = CliError::FlagUnsupported {
            flag: "--trace-out",
            cmd: "all",
        }
        .to_string();
        let help = text.split_once(" (").unwrap().1.strip_suffix(')').unwrap();
        let clauses: Vec<(&str, &str)> = help
            .split("; ")
            .map(|c| c.split_once(": ").unwrap())
            .collect();
        let flags: Vec<&str> = SCOPED_FLAGS.iter().map(|(f, _)| *f).collect();
        assert_eq!(clauses.iter().map(|(f, _)| *f).collect::<Vec<_>>(), flags);
        for (flag, list) in clauses {
            let listed: Vec<&str> = list.split(", ").collect();
            let taking: Vec<&str> = COMMANDS
                .iter()
                .map(|c| c.name)
                .filter(|c| accepts(c, flag))
                .collect();
            assert!(!taking.is_empty(), "{flag}");
            assert_eq!(listed, taking, "{flag}");
        }
    }

    #[test]
    fn unknown_flags_are_typed_errors() {
        // A misspelt flag must not fall through to the positionals,
        // where a command that takes none would silently ignore it.
        for words in [
            &["table2", "--sacle", "5"][..],
            &["all", "--sacle", "50"],
            &["all", "--bench-out", "b.json"],
            &["optimize", "LL", "logpsf", "--bench-out", "b.json"],
            &["fig8", "--trace-mem-cap", "1"],
            &["multicore", "--storm-bound", "8"],
            &["faultsim", "--journal", "run.jsonl"],
            &["faultsim", "--journal"],
            &["faultsim", "--iters", "2"],
            &["profile", "LL", "base", "--journal", "j.jsonl"],
        ] {
            let flag = words.iter().find(|w| w.starts_with("--")).unwrap();
            assert_eq!(
                parse_args(&args(words)).unwrap_err(),
                CliError::UnknownFlag(flag.to_string()),
                "{words:?}"
            );
        }
        assert_eq!(
            CliError::UnknownFlag("--sacle".into()).to_string(),
            "unknown flag \"--sacle\""
        );
    }

    /// One error of every variant.
    fn one_of_each_error() -> [CliError; 11] {
        [
            CliError::NoCommand,
            CliError::UnknownCommand("fig99".into()),
            CliError::UnknownFlag("--sacle".into()),
            CliError::BadValue {
                flag: "--jobs",
                given: "-2".into(),
                want: "an integer of at least 1",
            },
            CliError::MissingBenchArgs("trace"),
            CliError::UnknownBench("ZZ".into()),
            CliError::UnknownVariant("fast".into()),
            CliError::UnknownLeg("base".into()),
            CliError::FlagUnsupported {
                flag: "--trace-out",
                cmd: "all",
            },
            CliError::UnexpectedArg {
                arg: "LL".into(),
                cmd: "fig8",
            },
            CliError::TraceOut {
                path: "/x/t.json".into(),
                error: "No such file or directory (os error 2)".into(),
            },
        ]
    }

    #[test]
    fn every_error_renders_as_one_line() {
        for e in one_of_each_error() {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
    }

    /// A rejected invocation is followed by the usage line; a valid one
    /// that failed while running prints its diagnostic alone.
    #[test]
    fn only_invocation_errors_print_usage() {
        for e in one_of_each_error() {
            let runtime = matches!(e, CliError::TraceOut { .. });
            let text = error_text(&e);
            assert_eq!(text.lines().next(), Some(&*format!("repro: {e}")));
            assert_eq!(text.contains("usage:"), !runtime, "{e:?} prints {text:?}");
        }
    }

    #[test]
    fn stray_positionals_are_typed_errors() {
        // Every command with as many positionals as it takes passes the
        // scope check; one more is refused before any work starts.
        for cmd in COMMANDS {
            let mut words = vec![cmd.name];
            words.extend(std::iter::repeat_n("x", cmd.takes));
            assert!(
                check_flag_scope(&parse_args(&args(&words)).unwrap()).is_ok(),
                "{words:?}"
            );
            words.push("extra");
            assert_eq!(
                check_flag_scope(&parse_args(&args(&words)).unwrap()).unwrap_err(),
                CliError::UnexpectedArg {
                    arg: "extra".into(),
                    cmd: cmd.name,
                },
                "{words:?}"
            );
        }
        assert_eq!(
            CliError::UnexpectedArg {
                arg: "LL".into(),
                cmd: "fig8",
            }
            .to_string(),
            "unexpected argument \"LL\" for \"fig8\""
        );
    }

    #[test]
    fn model_knob_parses_validates_and_scopes_to_litmus() {
        let cli = parse_args(&args(&["litmus", "--model-knob", "clflushopt-po"])).unwrap();
        assert_eq!(cli.model_knob, Some(ModelKnob::ClflushOptProgramOrdered));
        assert!(check_flag_scope(&cli).is_ok());
        let cli = parse_args(&args(&["litmus", "--model-knob", "honest"])).unwrap();
        assert_eq!(cli.model_knob, Some(ModelKnob::Honest));
        for bad in ["", "tso", "--jobs"] {
            let e = parse_args(&args(&["litmus", "--model-knob", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--model-knob",
                        ..
                    }
                ),
                "--model-knob {bad:?} gave {e:?}"
            );
        }
        // Test-only means litmus-only: no other command may weaken the
        // model, even by accident.
        let cli = parse_args(&args(&["crashfuzz", "--model-knob", "honest"])).unwrap();
        assert_eq!(
            check_flag_scope(&cli).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--model-knob",
                cmd: "crashfuzz",
            }
        );
    }

    #[test]
    fn trace_cmd_rejects_unknown_names() {
        assert_eq!(
            run_words(&["trace", "ZZ", "base"]).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            run_words(&["trace", "LL", "fast"]).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            run_words(&["trace", "LL"]).unwrap_err(),
            CliError::MissingBenchArgs("trace")
        );
    }

    #[test]
    fn profile_flags_parse_and_scope_check() {
        // `--trace-out` with a value parses.
        let cli = parse_args(&args(&["profile", "LL", "logpsf", "--trace-out", "t.json"])).unwrap();
        assert_eq!(cli.cmd.name, "profile");
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert!(check_flag_scope(&cli).is_ok());
        // A missing or flag-like value is a typed error.
        for words in [
            vec!["profile", "LL", "base", "--trace-out"],
            vec!["profile", "LL", "base", "--trace-out", "--jobs"],
            vec!["profile", "LL", "base", "--trace-out", ""],
        ] {
            let e = parse_args(&args(&words)).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--trace-out",
                        ..
                    }
                ),
                "{words:?} gave {e:?}"
            );
        }
        // `--trace-out` is profile-only.
        for words in [
            vec!["all", "--trace-out", "t.json"],
            vec!["optimize", "LL", "logpsf", "--trace-out", "t.json"],
        ] {
            let cli = parse_args(&args(&words)).unwrap();
            assert_eq!(
                check_flag_scope(&cli).unwrap_err(),
                CliError::FlagUnsupported {
                    flag: "--trace-out",
                    cmd: words[0],
                },
                "{words:?}"
            );
        }
    }

    #[test]
    fn profile_cmd_rejects_unknown_names() {
        assert_eq!(
            run_words(&["profile", "ZZ", "base"]).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            run_words(&["profile", "LL", "fast"]).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            run_words(&["profile", "LL"]).unwrap_err(),
            CliError::MissingBenchArgs("profile")
        );
    }

    #[test]
    fn optimize_cmd_rejects_unknown_names() {
        assert_eq!(
            run_words(&["optimize", "ZZ", "base"]).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            run_words(&["optimize", "LL", "fast"]).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            run_words(&["optimize", "LL"]).unwrap_err().to_string(),
            "optimize needs <GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>"
        );
    }

    #[test]
    fn a_failed_trace_out_write_is_a_typed_error() {
        // The report still reaches stdout; the run then exits non-zero.
        let path = "/nonexistent/spp-repro/t.json";
        let e = run_words(&[
            "profile",
            "LL",
            "base",
            "--scale",
            "5000",
            "--jobs",
            "1",
            "--trace-out",
            path,
        ])
        .unwrap_err();
        assert!(
            matches!(e, CliError::TraceOut { path: ref p, .. } if p == path),
            "{e:?}"
        );
        assert!(
            e.to_string()
                .starts_with("--trace-out \"/nonexistent/spp-repro/t.json\": "),
            "{e}"
        );
    }

    #[test]
    fn unknown_crashfuzz_leg_is_a_typed_error() {
        assert_eq!(
            run_words(&["crashfuzz", "base"]).unwrap_err(),
            CliError::UnknownLeg("base".into())
        );
    }
}
