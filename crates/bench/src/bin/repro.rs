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
//!              `specpersist/multicore-v1` JSON line; journaled like
//!              faultsim, exits non-zero unless the contended SP legs
//!              conflict and the disjoint legs stay conflict-free
//!   litmus     Px86 persistency-model validation: sweep the litmus
//!              catalog (plus seeded generated programs at generous
//!              scales) x {clwb, clflushopt, clflush}, checking every
//!              reachable post-crash state of the real stack — CrashSim
//!              at each persist boundary, both pipeline cores x
//!              {baseline, SP} — against the executable Px86 reference
//!              model, with the SP differential proving speculation
//!              never widens a reachable set; prints the per-program
//!              table plus one `specpersist/litmus-v1` JSON line,
//!              journaled like faultsim; exits non-zero if any leg
//!              reaches a forbidden state (the minimized witness is in
//!              the report)
//!   kv         crash-recoverable KV storage engine: WAL + COW
//!              checkpointed B+tree under a mixed YCSB-style load —
//!              baseline-vs-SP cycles across a checkpoint-interval
//!              sweep, crash recovery fuzzed at every persist boundary
//!              (clean under Log+P+Sf, witness-minimized under Log,
//!              and a must-fail leg proving an elided WAL checksum is
//!              caught), plus a bounded-memory streamed-trace leg;
//!              prints the per-cell tables plus one
//!              `specpersist/kv-v1` JSON line, journaled like
//!              faultsim; exits non-zero if any oracle fails or the
//!              SP legs regress
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
//!              `specpersist/optimize-v1` JSON line, journaled like
//!              kv; exits non-zero if any leg fails
//!   journal check <PATH>  offline integrity walk of a journaled
//!              result manifest: verify every line's checksum and
//!              envelope, report damaged lines (bit flips, torn tail,
//!              truncation); exit 0 clean, 2 damage found, 1 missing
//!              or unreadable file
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
//!   soak [--iters N]  bounded endurance: loop the journaled faultsim
//!              matrix plus the must-pass crashfuzz leg under derived
//!              per-iteration seeds, re-verifying journal integrity
//!              every iteration; exits non-zero on any divergence or
//!              corrupt journal line
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
//!   --journal [PATH]  (faultsim/soak/profile/multicore/litmus/kv/
//!              optimize) record completed cells
//!              into the journaled result manifest at PATH (default:
//!              `.specpersist/journal-v1.jsonl`); a fresh run requires
//!              a fresh path
//!   --resume   (with --journal) replay verified cells from an existing
//!              journal instead of recomputing them; the resumed stdout
//!              is byte-identical to an uninterrupted run's
//!   --iters N  (soak) iteration count (default 4)
//!   --storm-bound N  (multicore) conflict-storm rollback budget per
//!              trace position before a core degrades to a typed
//!              ConflictStorm error (default 64; must be at least 1 —
//!              a zero budget would fail on the first legitimate
//!              conflict rollback)
//!   --model-knob K  (litmus; test-only) weaken one Px86 rule —
//!              `honest` (default) or `clflushopt-po` (pretend
//!              clflushopt is program-ordered like clflush); under a
//!              weakened model the checker must reach forbidden states,
//!              proving the harness would catch a real model violation
//!   --trace-out PATH  (profile) write the merged Chrome trace_event
//!              document to PATH (loadable in Perfetto or
//!              chrome://tracing)
//!   --trace-mem-cap BYTES  cap the bytes of recorded traces the
//!              harness may hold resident; a run that trips the cap
//!              fails with a typed one-line error (never an OOM kill)
//!              and dumps the per-trace byte footprint to stderr
//!
//! Invalid input (a malformed or zero --scale/--jobs, an unknown
//! command, flag, benchmark, variant, or leg, a positional argument the
//! command does not take, or contradictory journal flags) exits
//! non-zero with a one-line `repro: ...` diagnostic on stderr.
//!
//! Every trace is recorded exactly once per invocation and shared
//! across all simulator configurations (the `repro all` sweep replays
//! most traces several times). `--jobs` only changes wall time: the
//! report on stdout is byte-identical at every job count; stage
//! timings go to stderr.
//! ```

use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

use spp_bench::litmus::ModelKnob;
use spp_bench::report;
use spp_bench::study::{staged, StudyCli, StudyError, StudyRunner};
use spp_bench::{Experiment, Harness};
use spp_workloads::BenchId;

const USAGE: &str = "usage: repro <all|table1|table2|table3|fig8..fig14|ablation|incremental|flushmode|trace|json|multicore|litmus|kv|optimize|crashfuzz|faultsim|soak|profile|journal> [--scale N] [--seed S] [--jobs J] [--journal [PATH] [--resume]] [--iters N] [--storm-bound N] [--trace-out PATH] [--trace-mem-cap BYTES]; repro journal check <PATH>";

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
    /// `repro trace` needs a benchmark and a variant.
    MissingTraceArgs,
    /// `repro profile` needs a benchmark and a variant.
    MissingProfileArgs,
    /// `repro optimize` needs a benchmark and a variant.
    MissingOptimizeArgs,
    /// The benchmark abbreviation is not in Table 1.
    UnknownBench(String),
    /// The build-variant name is not one of the four builds.
    UnknownVariant(String),
    /// The crashfuzz leg name is not a known slice of the matrix.
    UnknownLeg(String),
    /// `--journal`/`--resume`/`--iters` given to a command that has no
    /// journal support.
    FlagUnsupported { flag: &'static str, cmd: String },
    /// `--resume` without `--journal`.
    ResumeNeedsJournal,
    /// The study façade refused to open the journal (resume
    /// discipline or I/O).
    Study(StudyError),
    /// `repro journal check` could not read the journal.
    Journal(String),
    /// `repro journal` needs the `check` subcommand and a path.
    MissingJournalCheckArgs,
    /// A positional argument past the ones the command takes.
    UnexpectedArg { arg: String, cmd: String },
    /// The trace cache grew past `--trace-mem-cap` (the wrapped
    /// [`spp_bench::TraceMemCap`] rendering).
    TraceMemCap(String),
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
            CliError::MissingTraceArgs => {
                f.write_str("trace needs <GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>")
            }
            CliError::MissingProfileArgs => {
                f.write_str("profile needs <GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>")
            }
            CliError::MissingOptimizeArgs => {
                f.write_str("optimize needs <GH|HM|LL|SS|AT|BT|RT> <base|log|logp|logpsf>")
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
                write!(f, "{flag} is not supported by {cmd:?} (journaled commands: faultsim, soak, profile, multicore, litmus, kv, optimize; --iters: soak; --storm-bound: multicore; --model-knob: litmus; --trace-out: profile; --trace-mem-cap: commands that fill the trace cache)")
            }
            CliError::ResumeNeedsJournal => f.write_str("--resume requires --journal <path>"),
            CliError::Study(e) => write!(f, "{e}"),
            CliError::Journal(e) => f.write_str(e),
            CliError::MissingJournalCheckArgs => f.write_str("journal needs check <PATH>"),
            CliError::UnexpectedArg { arg, cmd } => {
                write!(f, "unexpected argument {arg:?} for {cmd:?}")
            }
            CliError::TraceMemCap(e) => f.write_str(e),
        }
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    cmd: String,
    exp: Experiment,
    jobs: usize,
    journal: Option<String>,
    resume: bool,
    iters: Option<u64>,
    storm_bound: Option<u64>,
    model_knob: Option<ModelKnob>,
    trace_out: Option<String>,
    trace_mem_cap: Option<u64>,
    positional: Vec<String>,
}

/// Parses everything after the binary name. Flags may appear anywhere;
/// any other `--`-prefixed word is rejected, and all remaining words
/// are positional arguments for the command.
fn parse_args(args: &[String]) -> Result<Cli, CliError> {
    let Some(cmd) = args.first().cloned() else {
        return Err(CliError::NoCommand);
    };
    let mut exp = Experiment::default();
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut journal: Option<String> = None;
    let mut resume = false;
    let mut iters: Option<u64> = None;
    let mut storm_bound: Option<u64> = None;
    let mut model_knob: Option<ModelKnob> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_mem_cap: Option<u64> = None;
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
            "--journal" => {
                // The path is optional: bare `--journal` (end of args,
                // or another flag next) uses the conventional manifest
                // location. An explicit empty path is still an error.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        if next.is_empty() {
                            return Err(CliError::BadValue {
                                flag: "--journal",
                                given: String::new(),
                                want: "a file path",
                            });
                        }
                        journal = Some(next.clone());
                        i += 2;
                    }
                    _ => {
                        journal = Some(spp_bench::journal::DEFAULT_JOURNAL_PATH.to_string());
                        i += 1;
                    }
                }
            }
            "--resume" => {
                resume = true;
                i += 1;
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
            "--iters" => {
                iters = Some(flag_value(
                    "--iters",
                    args,
                    i,
                    1,
                    "an integer of at least 1",
                )?);
                i += 2;
            }
            "--storm-bound" => {
                // A zero budget would degrade a core on its first
                // legitimate conflict rollback, so the floor is 1.
                storm_bound = Some(flag_value(
                    "--storm-bound",
                    args,
                    i,
                    1,
                    "an integer of at least 1",
                )?);
                i += 2;
            }
            "--trace-mem-cap" => {
                // Zero would trip before the first recording; the
                // smallest honest budget is one byte.
                trace_mem_cap = Some(flag_value(
                    "--trace-mem-cap",
                    args,
                    i,
                    1,
                    "a byte count of at least 1",
                )?);
                i += 2;
            }
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
        journal,
        resume,
        iters,
        storm_bound,
        model_knob,
        trace_out,
        trace_mem_cap,
        positional,
    })
}

/// Rejects positionals and flags a command cannot honor, and
/// contradictory combinations, before any work starts.
fn check_flag_scope(cli: &Cli) -> Result<(), CliError> {
    // A stray word would otherwise be silently ignored: `repro fig8 LL`
    // would run the whole suite, reading as if it had filtered to LL.
    let takes = match cli.cmd.as_str() {
        "trace" | "profile" | "optimize" | "journal" => 2,
        "crashfuzz" => 1,
        _ => 0,
    };
    if let Some(arg) = cli.positional.get(takes) {
        return Err(CliError::UnexpectedArg {
            arg: arg.clone(),
            cmd: cli.cmd.clone(),
        });
    }
    let journaled = matches!(
        cli.cmd.as_str(),
        "faultsim" | "soak" | "profile" | "multicore" | "litmus" | "kv" | "optimize"
    );
    if cli.journal.is_some() && !journaled {
        return Err(CliError::FlagUnsupported {
            flag: "--journal",
            cmd: cli.cmd.clone(),
        });
    }
    if cli.resume && !journaled {
        return Err(CliError::FlagUnsupported {
            flag: "--resume",
            cmd: cli.cmd.clone(),
        });
    }
    if cli.iters.is_some() && cli.cmd != "soak" {
        return Err(CliError::FlagUnsupported {
            flag: "--iters",
            cmd: cli.cmd.clone(),
        });
    }
    if cli.storm_bound.is_some() && cli.cmd != "multicore" {
        return Err(CliError::FlagUnsupported {
            flag: "--storm-bound",
            cmd: cli.cmd.clone(),
        });
    }
    if cli.model_knob.is_some() && cli.cmd != "litmus" {
        return Err(CliError::FlagUnsupported {
            flag: "--model-knob",
            cmd: cli.cmd.clone(),
        });
    }
    if cli.trace_out.is_some() && cli.cmd != "profile" {
        return Err(CliError::FlagUnsupported {
            flag: "--trace-out",
            cmd: cli.cmd.clone(),
        });
    }
    // The cap governs the harness trace cache. `trace` replays one
    // recording to stdout, `soak` spawns child processes, `journal`
    // never simulates, the `table*` commands print static
    // configuration, `multicore`, `litmus` and `kv` record their traces
    // outside the cache, and `incremental` records its incremental-
    // logging B-tree outside it: the cap would miss some or all of
    // their trace bytes, so they refuse it instead of silently
    // under-counting.
    let uncached = matches!(
        cli.cmd.as_str(),
        "trace"
            | "soak"
            | "journal"
            | "table1"
            | "table2"
            | "table3"
            | "incremental"
            | "multicore"
            | "litmus"
            | "kv"
    );
    if cli.trace_mem_cap.is_some() && uncached {
        return Err(CliError::FlagUnsupported {
            flag: "--trace-mem-cap",
            cmd: cli.cmd.clone(),
        });
    }
    if cli.resume && cli.journal.is_none() {
        return Err(CliError::ResumeNeedsJournal);
    }
    Ok(())
}

impl From<StudyError> for CliError {
    fn from(e: StudyError) -> Self {
        CliError::Study(e)
    }
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
            eprintln!("repro: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(cli: Cli) -> Result<ExitCode, CliError> {
    check_flag_scope(&cli)?;
    let Cli {
        cmd,
        exp,
        jobs,
        journal,
        resume,
        iters,
        storm_bound,
        model_knob,
        trace_out,
        trace_mem_cap,
        positional,
    } = cli;
    if cmd == "journal" {
        // Pure file inspection: no harness, no simulations.
        return journal_cmd(&positional);
    }
    let study = StudyCli { journal, resume };
    let harness = Harness::new(exp, jobs);
    harness.set_trace_mem_cap(trace_mem_cap);
    let t0 = Instant::now();

    let needs_suite = matches!(
        cmd.as_str(),
        "all" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig14" | "json"
    );
    let runs = if needs_suite {
        eprintln!(
            "# running suite at scale 1/{} (seed {:#x}, {} jobs)...",
            exp.scale, exp.seed, jobs
        );
        staged("suite", Some(Harness::suite_sims(&BenchId::ALL)), || {
            harness.run_benches(&BenchId::ALL)
        })
    } else {
        Vec::new()
    };

    let code = match cmd.as_str() {
        "all" => {
            print!("{}", report::table1(&exp));
            print!("{}", report::table2());
            print!("{}", report::table3());
            print!("{}", report::fig8(&runs));
            print!("{}", report::fig9(&runs));
            print!("{}", report::fig10(&runs));
            print!("{}", report::fig11(&runs));
            print!("{}", report::fig12(&runs));
            print!("{}", fig13_stage(&harness));
            print!("{}", report::fig14(&runs));
            print!("{}", ablation_stage(&harness));
            print!("{}", incremental_stage(&harness));
            print!("{}", flushmode_stage(&harness));
            print!(
                "{}",
                staged(
                    "multicore study",
                    Some(spp_bench::multicore::CellSpec::all().len()),
                    || report::multicore(&harness)
                )
            );
            let s = harness.cache_stats();
            eprintln!(
                "# trace cache: {} recordings, {} cached replays, {} keys, {} bytes",
                s.recordings, s.hits, s.entries, s.bytes
            );
            if trace_mem_cap.is_some() {
                // A cap is in force: show where the bytes went,
                // heaviest trace first, so the budget can be tuned.
                for (k, bytes) in harness.trace_bytes_by_key() {
                    eprintln!("#   {bytes} bytes {}/{}/{}", k.id, k.variant, k.flush_mode);
                }
            }
            // The harness contract: a trace is recorded at most once per
            // key, no matter how many figures replay it.
            assert_eq!(
                s.recordings, s.entries,
                "each (bench, variant, scale, seed, flushmode) trace must be recorded exactly once"
            );
            eprintln!(
                "# total: {:.2}s ({} jobs)",
                t0.elapsed().as_secs_f64(),
                jobs
            );
            ExitCode::SUCCESS
        }
        "table1" => print_ok(&report::table1(&exp)),
        "table2" => print_ok(&report::table2()),
        "table3" => print_ok(&report::table3()),
        "fig8" => print_ok(&report::fig8(&runs)),
        "fig9" => print_ok(&report::fig9(&runs)),
        "fig10" => print_ok(&report::fig10(&runs)),
        "fig11" => print_ok(&report::fig11(&runs)),
        "fig12" => print_ok(&report::fig12(&runs)),
        "fig13" => print_ok(&fig13_stage(&harness)),
        "fig14" => print_ok(&report::fig14(&runs)),
        "ablation" => print_ok(&ablation_stage(&harness)),
        "incremental" => print_ok(&incremental_stage(&harness)),
        "flushmode" => print_ok(&flushmode_stage(&harness)),
        "json" => print_ok(&format!("{}\n", spp_bench::json::suite_json(&runs))),
        "multicore" => multicore_cmd(&harness, &study, storm_bound)?,
        "litmus" => litmus_cmd(&harness, &study, model_knob)?,
        "kv" => kv_cmd(&harness, &study)?,
        "optimize" => optimize_cmd(&harness, &positional, &study)?,
        "trace" => return trace_cmd(&positional, &exp).map(|()| ExitCode::SUCCESS),
        "crashfuzz" => crashfuzz_cmd(&harness, &positional, &study)?,
        "faultsim" => faultsim_cmd(&harness, &study)?,
        "soak" => return soak_cmd(&exp, jobs, iters, &study),
        "profile" => profile_cmd(&harness, &positional, &study, trace_out.as_deref())?,
        _ => return Err(CliError::UnknownCommand(cmd)),
    };
    check_trace_mem(&harness, code)
}

/// Prints one report to stdout; the command succeeded.
fn print_ok(report: &str) -> ExitCode {
    print!("{report}");
    ExitCode::SUCCESS
}

/// The Fig. 13 SSB sweep as a timed stage.
fn fig13_stage(h: &Harness) -> String {
    staged(
        "fig13 SSB sweep",
        Some(Harness::ssb_sims(&BenchId::ALL)),
        || report::fig13(h),
    )
}

/// The SP design-choice ablation as a timed stage.
fn ablation_stage(h: &Harness) -> String {
    staged(
        "ablation",
        Some(Harness::ablation_sims(&BenchId::ALL)),
        || report::ablation(h),
    )
}

/// The full-vs-incremental logging comparison as a timed stage.
fn incremental_stage(h: &Harness) -> String {
    staged("logging comparison", Some(Harness::logging_sims()), || {
        report::incremental(h)
    })
}

/// The flush-instruction ablation as a timed stage.
fn flushmode_stage(h: &Harness) -> String {
    let sims = Harness::flushmode_sims(&report::FLUSHMODE_BENCHES);
    staged("flush-mode ablation", Some(sims), || report::flushmode(h))
}

/// The `--trace-mem-cap` gate, applied after a command's work: a
/// tripped cap is a typed failure even when every stage succeeded —
/// the run held more trace bytes than the budget allowed, which is
/// exactly what the flag exists to catch. The per-key footprint goes
/// to stderr (heaviest first) so the offending traces are named.
fn check_trace_mem(harness: &Harness, code: ExitCode) -> Result<ExitCode, CliError> {
    match harness.trace_mem_exceeded() {
        None => Ok(code),
        Some(e) => {
            for (k, bytes) in harness.trace_bytes_by_key() {
                eprintln!("#   {bytes} bytes {}/{}/{}", k.id, k.variant, k.flush_mode);
            }
            Err(CliError::TraceMemCap(e.to_string()))
        }
    }
}

/// `repro kv [--journal PATH [--resume]]`: the
/// crash-recoverable KV storage-engine study — WAL + checkpointed
/// B+tree under a mixed YCSB-style load: baseline-vs-SP cycles across
/// a checkpoint-interval sweep, crashfuzz at every persist boundary
/// (clean under Log+P+Sf, witness-minimized under Log, and a
/// must-fail leg proving an elided WAL checksum is caught), plus the
/// bounded-memory streamed leg. Prints the per-cell tables and one
/// `specpersist/kv-v1` JSON line. With a journal, completed cells are
/// recorded and `--resume` replays them byte-identically. Exits
/// non-zero if any cell failed its oracle or the SP legs regressed.
fn kv_cmd(harness: &Harness, study: &StudyCli) -> Result<ExitCode, CliError> {
    use spp_bench::kv::{run_kv_opts, KvCellSpec};
    let runner = StudyRunner::new("kv", Some(KvCellSpec::all().len()), study)?;
    Ok(verdict(runner.run(|j| run_kv_opts(harness, j))))
}

/// `repro optimize <BENCH> <VARIANT> [--journal PATH [--resume]]`: the
/// persist-path trace optimizer — analyze one
/// recorded trace for redundant persist operations, elide them, replay
/// the optimized trace on both pipeline cores x {baseline, SP} with
/// the spp-obs probe attached, and prove the plan safe by crashfuzzing
/// every persist boundary of the optimized trace (plus the inverted
/// leg eliding a required flush, which the oracle must catch). Prints
/// the before/after tables and one `specpersist/optimize-v1` JSON
/// line. With a journal, completed cells are recorded and `--resume`
/// replays them byte-identically. Exits non-zero if any leg fails.
fn optimize_cmd(
    harness: &Harness,
    positional: &[String],
    study: &StudyCli,
) -> Result<ExitCode, CliError> {
    use spp_bench::optimize::{run_optimize_opts, OptimizeCellSpec};
    let (id, variant) = bench_variant(positional, CliError::MissingOptimizeArgs)?;
    let runner = StudyRunner::new("optimize", Some(OptimizeCellSpec::all().len()), study)?;
    Ok(verdict(
        runner.run(|j| run_optimize_opts(harness, id, variant, j)),
    ))
}

/// `repro journal check <PATH>`: offline integrity walk of a result
/// manifest. Re-reads every line, verifying the per-entry checksum
/// and envelope, and reports each damaged line (bit flip, truncation,
/// torn tail, bad schema) on stdout. As with a resume, a torn final
/// line is sealed so later appends cannot merge into it. Typed exit
/// codes: 0 when every line verified, 2 when damage was found, 1 when
/// the file is missing or unreadable.
fn journal_cmd(positional: &[String]) -> Result<ExitCode, CliError> {
    let (Some("check"), Some(path), None) = (
        positional.first().map(String::as_str),
        positional.get(1),
        positional.get(2),
    ) else {
        return Err(CliError::MissingJournalCheckArgs);
    };
    Ok(if journal_check(path)? == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// The walk behind [`journal_cmd`]: verifies every line, prints one
/// line per damaged entry plus a summary, and returns the damaged-line
/// count.
fn journal_check(path: &str) -> Result<usize, CliError> {
    // `Journal::open` creates absent files; a checker must not.
    if !std::path::Path::new(path).is_file() {
        return Err(CliError::Journal(format!(
            "journal {path:?} does not exist"
        )));
    }
    let (entries, damage) = spp_bench::Journal::verify(std::path::Path::new(path))
        .map_err(|e| CliError::Journal(e.to_string()))?;
    for e in &damage {
        println!("journal check: {e}");
    }
    println!(
        "journal check: {path}: {entries} entries ok, {} damaged",
        damage.len()
    );
    Ok(damage.len())
}

/// `repro crashfuzz [all|log|logp|logpsf]`: run the crash-consistency
/// fuzz matrix and print the text report plus one JSON line. Exits
/// non-zero when a must-pass cell violated its oracle, a must-fail
/// cell found no inconsistency, or the SP differential diverged.
fn crashfuzz_cmd(
    harness: &Harness,
    positional: &[String],
    study: &StudyCli,
) -> Result<ExitCode, CliError> {
    use spp_bench::crashfuzz::{run_crashfuzz, Leg};
    let leg = match positional.first() {
        None => Leg::All,
        Some(s) => Leg::parse(s).ok_or_else(|| CliError::UnknownLeg(s.clone()))?,
    };
    // Crash checks, not replays, dominate the stage: no sims rate.
    let runner = StudyRunner::new("crashfuzz", None, study)?;
    Ok(verdict(runner.run(|_| run_crashfuzz(harness, leg))))
}

/// `repro faultsim [--journal PATH [--resume]]`: run the
/// fault-injection matrix (benchmark x variant x plan, both cores)
/// plus the watchdog-detection leg on the supervised pool and print
/// the text report and one JSON line. With a journal, completed cells
/// are recorded and `--resume` replays them — the resumed stdout is
/// byte-identical to an uninterrupted run's. Exits non-zero if a
/// faulted run changed committed state or a crash verdict, a cell
/// exhausted its retry budget, a plan never fired, or the watchdog
/// failed to convert a wedged run into a typed error.
fn faultsim_cmd(harness: &Harness, study: &StudyCli) -> Result<ExitCode, CliError> {
    use spp_bench::faultsim::{run_faultsim_opts, stage_sims, FaultsimOpts};
    let runner = StudyRunner::new("faultsim", Some(stage_sims(&harness.exp)), study)?;
    Ok(verdict(runner.run(|j| {
        run_faultsim_opts(
            harness,
            FaultsimOpts {
                journal: j,
                ..FaultsimOpts::default()
            },
        )
    })))
}

/// `repro multicore [--journal PATH [--resume]]`: the shared-data
/// multi-core scaling study — Treiber-style stack and MS-style queue
/// over one coherent memory system, 1..4 cores x {baseline, SP256} x
/// {contended, disjoint}. Prints the scaling tables and one
/// `specpersist/multicore-v1` JSON line. With a journal, completed
/// cells are recorded and `--resume` replays them byte-identically.
/// Exits non-zero if any cell degraded, the contended SP legs produced
/// no BLT conflicts, or a disjoint leg conflicted. `--storm-bound`
/// tightens (or loosens) each core's conflict-storm rollback budget.
fn multicore_cmd(
    harness: &Harness,
    study: &StudyCli,
    storm_bound: Option<u64>,
) -> Result<ExitCode, CliError> {
    use spp_bench::multicore::{run_multicore_opts, CellSpec, MulticoreOpts};
    let runner = StudyRunner::new("multicore", Some(CellSpec::all().len()), study)?;
    Ok(verdict(runner.run(|j| {
        run_multicore_opts(
            harness,
            MulticoreOpts {
                journal: j,
                storm_bound,
            },
        )
    })))
}

/// `repro litmus [--journal PATH [--resume]] [--model-knob K]`: Px86
/// persistency-model validation — every litmus program x flush mode is
/// one supervised cell checked against the executable reference model
/// on all seven legs (CrashSim, both cores x {baseline, SP}, and the
/// SP differentials). Prints the per-program table and one
/// `specpersist/litmus-v1` JSON line. With a journal, completed cells
/// (including failed ones, witness and all) replay byte-identically.
/// The hidden `--model-knob` weakens one model rule so CI can prove
/// the checker actually fails when the model is wrong. Exits non-zero
/// if any leg reached a forbidden state.
fn litmus_cmd(
    harness: &Harness,
    study: &StudyCli,
    model_knob: Option<ModelKnob>,
) -> Result<ExitCode, CliError> {
    use spp_bench::litmus::{run_litmus_opts, stage_sims, LitmusOpts};
    let runner = StudyRunner::new("litmus", Some(stage_sims(&harness.exp)), study)?;
    Ok(verdict(runner.run(|j| {
        run_litmus_opts(
            harness,
            LitmusOpts {
                journal: j,
                knob: model_knob.unwrap_or_default(),
            },
        )
    })))
}

/// `repro soak [--iters N] [--journal PATH [--resume]]`: bounded
/// endurance over the journaled faultsim matrix plus the must-pass
/// crashfuzz leg, with per-iteration journal re-verification. Without
/// `--journal` the manifest lives in a pid-suffixed temp file that is
/// removed on success. Exits non-zero on any divergence, degraded
/// cell, or corrupt journal line.
fn soak_cmd(
    exp: &Experiment,
    jobs: usize,
    iters: Option<u64>,
    study: &StudyCli,
) -> Result<ExitCode, CliError> {
    use spp_bench::soak::{run_soak, DEFAULT_SOAK_ITERS};
    let iters = iters.unwrap_or(DEFAULT_SOAK_ITERS);
    let temp = study.journal.is_none().then(|| {
        let p = std::env::temp_dir().join(format!("spp-soak-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    });
    let journaled = StudyCli {
        journal: study
            .journal
            .clone()
            .or_else(|| temp.as_ref().map(|p| p.display().to_string())),
        resume: study.resume,
    };
    // Whole faultsim matrices plus crashfuzz legs: no sims rate.
    let runner = StudyRunner::new("soak", None, &journaled)?;
    let ok = runner.run(|j| run_soak(exp, jobs, iters, j.expect("soak always runs journaled")));
    if let (true, Some(p)) = (ok, temp) {
        let _ = std::fs::remove_file(p);
    }
    Ok(verdict(ok))
}

/// `repro profile <BENCH> <VARIANT> [--trace-out PATH] [--journal PATH
/// [--resume]]`: replay one trace on the baseline and SP256 cores with
/// the spp-obs probe attached, print the stall-attribution table and
/// one `specpersist/profile-v2` JSON line, and optionally write the
/// merged Chrome trace. With a journal the completed cell is recorded
/// (text, JSON and trace all in the payload) and `--resume` replays it
/// byte-identically. Exits non-zero if the probe's attribution diverges
/// from the machine's stall counters.
fn profile_cmd(
    harness: &Harness,
    positional: &[String],
    study: &StudyCli,
    trace_out: Option<&str>,
) -> Result<ExitCode, CliError> {
    use spp_bench::profile::{run_profile_opts, PROFILE_CONFIGS};
    let (id, variant) = bench_variant(positional, CliError::MissingProfileArgs)?;
    let runner = StudyRunner::new("profile", Some(PROFILE_CONFIGS.len()), study)?;
    let mut trace = String::new();
    let ok = runner.run(|j| {
        let run = run_profile_opts(harness, id, variant, j);
        trace.clone_from(&run.trace);
        run
    });
    if let Some(path) = trace_out {
        match std::fs::write(path, &trace) {
            Ok(()) => eprintln!("# chrome trace: {path} ({} bytes)", trace.len()),
            Err(e) => eprintln!("repro: --trace-out {path:?}: {e}"),
        }
    }
    Ok(verdict(ok))
}

/// The `<BENCH> <VARIANT>` positionals of `optimize`, `profile` and
/// `trace`; `missing` is the command's error when either is absent.
fn bench_variant(
    positional: &[String],
    missing: CliError,
) -> Result<(BenchId, spp_pmem::Variant), CliError> {
    let (Some(bench), Some(variant)) = (positional.first(), positional.get(1)) else {
        return Err(missing);
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
fn trace_cmd(positional: &[String], exp: &Experiment) -> Result<(), CliError> {
    use spp_workloads::{record_trace, BenchSpec, TraceSpec};
    let (id, variant) = bench_variant(positional, CliError::MissingTraceArgs)?;
    let spec = BenchSpec::scaled(id, exp.scale);
    let c = record_trace(&TraceSpec::new(variant, spec, exp.seed)).counts;
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
        ("compute", c.compute),
        ("loads", c.loads),
        ("stores", c.stores),
        ("flushes (clwb/...)", c.flushes),
        ("pcommits", c.pcommits),
        ("fences", c.fences),
    ] {
        println!("{:<22} {:>12} {:>10.1}", name, v, v as f64 / ops as f64);
    }
    println!(
        "{:<22} {:>12} {:>10.1}",
        "TOTAL",
        c.total(),
        c.total() as f64 / ops as f64
    );
    println!("transactions: {}", c.transactions);
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let cli = parse_args(&args(&["all"])).unwrap();
        assert_eq!(cli.cmd, "all");
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
        assert_eq!(cli.cmd, "trace");
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
    fn unknown_flags_are_typed_errors() {
        // A misspelt flag must not fall through to the positionals,
        // where a command that takes none would silently ignore it.
        for words in [
            &["table2", "--sacle", "5"][..],
            &["all", "--sacle", "50"],
            &["all", "--bench-out", "b.json"],
            &["optimize", "LL", "logpsf", "--bench-out", "b.json"],
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

    #[test]
    fn every_error_renders_as_one_line() {
        let errors = [
            CliError::NoCommand,
            CliError::UnknownCommand("fig99".into()),
            CliError::UnknownFlag("--sacle".into()),
            CliError::BadValue {
                flag: "--jobs",
                given: "-2".into(),
                want: "an integer of at least 1",
            },
            CliError::MissingTraceArgs,
            CliError::MissingProfileArgs,
            CliError::MissingOptimizeArgs,
            CliError::UnknownBench("ZZ".into()),
            CliError::UnknownVariant("fast".into()),
            CliError::UnknownLeg("base".into()),
            CliError::FlagUnsupported {
                flag: "--journal",
                cmd: "all".into(),
            },
            CliError::ResumeNeedsJournal,
            CliError::Study(StudyError::ResumeMissingJournal("/tmp/x.jsonl".into())),
            CliError::Journal("journal \"x\": denied".into()),
            CliError::MissingJournalCheckArgs,
            CliError::UnexpectedArg {
                arg: "LL".into(),
                cmd: "fig8".into(),
            },
            CliError::TraceMemCap("trace cache holds 9 bytes, exceeding --trace-mem-cap 1".into()),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
    }

    #[test]
    fn stray_positionals_are_typed_errors() {
        // Every command with as many positionals as it takes passes the
        // scope check; one more is refused before any work starts.
        for (cmd, takes) in [
            ("all", 0),
            ("table1", 0),
            ("table2", 0),
            ("table3", 0),
            ("fig8", 0),
            ("fig9", 0),
            ("fig10", 0),
            ("fig11", 0),
            ("fig12", 0),
            ("fig13", 0),
            ("fig14", 0),
            ("ablation", 0),
            ("incremental", 0),
            ("flushmode", 0),
            ("json", 0),
            ("multicore", 0),
            ("litmus", 0),
            ("kv", 0),
            ("faultsim", 0),
            ("soak", 0),
            ("crashfuzz", 1),
            ("trace", 2),
            ("profile", 2),
            ("optimize", 2),
            ("journal", 2),
        ] {
            let mut words = vec![cmd];
            words.extend(std::iter::repeat_n("x", takes));
            assert!(
                check_flag_scope(&parse_args(&args(&words)).unwrap()).is_ok(),
                "{words:?}"
            );
            words.push("extra");
            assert_eq!(
                check_flag_scope(&parse_args(&args(&words)).unwrap()).unwrap_err(),
                CliError::UnexpectedArg {
                    arg: "extra".into(),
                    cmd: cmd.into(),
                },
                "{words:?}"
            );
        }
        assert_eq!(
            CliError::UnexpectedArg {
                arg: "LL".into(),
                cmd: "fig8".into(),
            }
            .to_string(),
            "unexpected argument \"LL\" for \"fig8\""
        );
    }

    #[test]
    fn journal_flags_parse() {
        let cli = parse_args(&args(&[
            "faultsim",
            "--journal",
            "j.jsonl",
            "--resume",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert_eq!(cli.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.resume);
        assert!(check_flag_scope(&cli).is_ok());
        let cli = parse_args(&args(&["soak", "--iters", "3"])).unwrap();
        assert_eq!(cli.iters, Some(3));
        assert!(check_flag_scope(&cli).is_ok());
    }

    #[test]
    fn storm_bound_parses_validates_and_scopes_to_multicore() {
        let cli = parse_args(&args(&["multicore", "--storm-bound", "8"])).unwrap();
        assert_eq!(cli.storm_bound, Some(8));
        assert!(check_flag_scope(&cli).is_ok());
        // Zero (and junk) budgets are typed errors, not panics.
        for bad in ["0", "-1", "lots", ""] {
            let e = parse_args(&args(&["multicore", "--storm-bound", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--storm-bound",
                        ..
                    }
                ),
                "--storm-bound {bad:?} gave {e:?}"
            );
        }
        // The flag means nothing outside the multicore study.
        let cli = parse_args(&args(&["faultsim", "--storm-bound", "8"])).unwrap();
        assert_eq!(
            check_flag_scope(&cli).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--storm-bound",
                cmd: "faultsim".into(),
            }
        );
    }

    #[test]
    fn model_knob_parses_validates_and_scopes_to_litmus() {
        let cli = parse_args(&args(&["litmus", "--model-knob", "clflushopt-po"])).unwrap();
        assert_eq!(cli.model_knob, Some(ModelKnob::ClflushOptProgramOrdered));
        assert!(check_flag_scope(&cli).is_ok());
        let cli = parse_args(&args(&["litmus", "--model-knob", "honest"])).unwrap();
        assert_eq!(cli.model_knob, Some(ModelKnob::Honest));
        for bad in ["", "tso", "--journal"] {
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
                cmd: "crashfuzz".into(),
            }
        );
    }

    #[test]
    fn litmus_is_a_journaled_command() {
        let cli = parse_args(&args(&["litmus", "--journal", "j.jsonl", "--resume"])).unwrap();
        assert_eq!(cli.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.resume);
        assert!(check_flag_scope(&cli).is_ok());
    }

    #[test]
    fn resume_without_journal_is_a_typed_error() {
        let cli = parse_args(&args(&["faultsim", "--resume"])).unwrap();
        assert_eq!(
            check_flag_scope(&cli).unwrap_err(),
            CliError::ResumeNeedsJournal
        );
    }

    #[test]
    fn journal_flags_are_rejected_on_unjournaled_commands() {
        for (words, flag) in [
            (vec!["all", "--journal", "j.jsonl"], "--journal"),
            (vec!["fig8", "--resume"], "--resume"),
            (vec!["faultsim", "--iters", "2"], "--iters"),
        ] {
            let cli = parse_args(&args(&words)).unwrap();
            assert_eq!(
                check_flag_scope(&cli).unwrap_err(),
                CliError::FlagUnsupported {
                    flag,
                    cmd: words[0].to_string(),
                },
                "{words:?}"
            );
        }
    }

    #[test]
    fn journal_flag_values_are_validated() {
        // Bare `--journal` (end of args, or another flag next) falls
        // back to the conventional manifest location.
        let cli = parse_args(&args(&["faultsim", "--journal"])).unwrap();
        assert_eq!(
            cli.journal.as_deref(),
            Some(spp_bench::journal::DEFAULT_JOURNAL_PATH)
        );
        let cli = parse_args(&args(&["faultsim", "--journal", "--resume"])).unwrap();
        assert_eq!(
            cli.journal.as_deref(),
            Some(spp_bench::journal::DEFAULT_JOURNAL_PATH)
        );
        assert!(cli.resume);
        // An explicit empty path is still a typed error.
        let e = parse_args(&args(&["faultsim", "--journal", ""])).unwrap_err();
        assert!(
            matches!(
                e,
                CliError::BadValue {
                    flag: "--journal",
                    ..
                }
            ),
            "{e:?}"
        );
        let e = parse_args(&args(&["soak", "--iters", "0"])).unwrap_err();
        assert!(
            matches!(
                e,
                CliError::BadValue {
                    flag: "--iters",
                    ..
                }
            ),
            "{e:?}"
        );
    }

    #[test]
    fn trace_cmd_rejects_unknown_names() {
        let exp = Experiment::default();
        assert_eq!(
            trace_cmd(&args(&["ZZ", "base"]), &exp).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            trace_cmd(&args(&["LL", "fast"]), &exp).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            trace_cmd(&args(&["LL"]), &exp).unwrap_err(),
            CliError::MissingTraceArgs
        );
    }

    #[test]
    fn profile_flags_parse_and_scope_check() {
        // `--trace-out` with a value parses, and profile accepts the
        // journal flags (it is a journaled command).
        let cli = parse_args(&args(&[
            "profile",
            "LL",
            "logpsf",
            "--trace-out",
            "t.json",
            "--journal",
            "j.jsonl",
        ]))
        .unwrap();
        assert_eq!(cli.cmd, "profile");
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.journal.as_deref(), Some("j.jsonl"));
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
        let cli = parse_args(&args(&["all", "--trace-out", "t.json"])).unwrap();
        assert_eq!(
            check_flag_scope(&cli).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--trace-out",
                cmd: "all".into(),
            }
        );
    }

    #[test]
    fn profile_cmd_rejects_unknown_names() {
        let h = Harness::new(Experiment::default(), 1);
        let study = StudyCli::default();
        assert_eq!(
            profile_cmd(&h, &args(&["ZZ", "base"]), &study, None).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            profile_cmd(&h, &args(&["LL", "fast"]), &study, None).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            profile_cmd(&h, &args(&["LL"]), &study, None).unwrap_err(),
            CliError::MissingProfileArgs
        );
    }

    #[test]
    fn optimize_cmd_rejects_unknown_names() {
        let h = Harness::new(Experiment::default(), 1);
        let study = StudyCli::default();
        assert_eq!(
            optimize_cmd(&h, &args(&["ZZ", "base"]), &study).unwrap_err(),
            CliError::UnknownBench("ZZ".into())
        );
        assert_eq!(
            optimize_cmd(&h, &args(&["LL", "fast"]), &study).unwrap_err(),
            CliError::UnknownVariant("fast".into())
        );
        assert_eq!(
            optimize_cmd(&h, &args(&["LL"]), &study).unwrap_err(),
            CliError::MissingOptimizeArgs
        );
    }

    #[test]
    fn optimize_is_a_journaled_command() {
        let cli = parse_args(&args(&[
            "optimize",
            "LL",
            "logpsf",
            "--journal",
            "j.jsonl",
            "--resume",
            "--trace-mem-cap",
            "4096",
        ]))
        .unwrap();
        assert_eq!(cli.positional, args(&["LL", "logpsf"]));
        assert_eq!(cli.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.resume);
        assert_eq!(cli.trace_mem_cap, Some(4096));
        assert!(check_flag_scope(&cli).is_ok());
        // Profile-only flags stay profile-only.
        let cli = parse_args(&args(&[
            "optimize",
            "LL",
            "logpsf",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(
            check_flag_scope(&cli).unwrap_err(),
            CliError::FlagUnsupported {
                flag: "--trace-out",
                cmd: "optimize".into(),
            }
        );
    }

    #[test]
    fn unknown_crashfuzz_leg_is_a_typed_error() {
        let h = Harness::new(Experiment::default(), 1);
        assert_eq!(
            crashfuzz_cmd(&h, &args(&["base"]), &StudyCli::default()).unwrap_err(),
            CliError::UnknownLeg("base".into())
        );
    }

    #[test]
    fn kv_is_a_journaled_command() {
        let cli = parse_args(&args(&["kv", "--journal", "j.jsonl", "--resume"])).unwrap();
        assert_eq!(cli.journal.as_deref(), Some("j.jsonl"));
        assert!(cli.resume);
        assert!(check_flag_scope(&cli).is_ok());
    }

    #[test]
    fn trace_mem_cap_parses_validates_and_scopes() {
        for cmd in ["all", "fig8", "fig13", "profile", "crashfuzz", "faultsim"] {
            let cli = parse_args(&args(&[cmd, "--trace-mem-cap", "4096"])).unwrap();
            assert_eq!(cli.trace_mem_cap, Some(4096));
            assert!(check_flag_scope(&cli).is_ok(), "{cmd}");
        }
        for bad in ["0", "-1", "lots", ""] {
            let e = parse_args(&args(&["all", "--trace-mem-cap", bad])).unwrap_err();
            assert!(
                matches!(
                    e,
                    CliError::BadValue {
                        flag: "--trace-mem-cap",
                        ..
                    }
                ),
                "--trace-mem-cap {bad:?} gave {e:?}"
            );
        }
        // Commands that never route traces through the harness cache
        // reject the cap instead of silently ignoring it.
        for cmd in [
            "trace",
            "soak",
            "journal",
            "table1",
            "table2",
            "table3",
            "incremental",
            "multicore",
            "litmus",
            "kv",
        ] {
            let cli = parse_args(&args(&[cmd, "--trace-mem-cap", "4096"])).unwrap();
            assert_eq!(
                check_flag_scope(&cli).unwrap_err(),
                CliError::FlagUnsupported {
                    flag: "--trace-mem-cap",
                    cmd: cmd.into(),
                },
                "{cmd}"
            );
        }
    }

    #[test]
    fn a_tripped_trace_mem_cap_is_a_typed_error() {
        use spp_bench::TraceKey;
        use spp_pmem::Variant;
        use spp_workloads::BenchId;
        let exp = Experiment {
            scale: 2400,
            seed: 7,
        };
        let h = Harness::new(exp, 1);
        h.set_trace_mem_cap(Some(1));
        // One recording holds far more than one byte: the cap trips.
        let _ = h.trace(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        let e = check_trace_mem(&h, ExitCode::SUCCESS).unwrap_err();
        assert!(
            matches!(e, CliError::TraceMemCap(ref s) if s.contains("--trace-mem-cap 1")),
            "{e:?}"
        );
        // Without a cap the same recording passes the gate untouched.
        let h = Harness::new(exp, 1);
        let _ = h.trace(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        assert!(check_trace_mem(&h, ExitCode::SUCCESS).is_ok());
    }

    #[test]
    fn journal_check_wants_the_subcommand_and_a_path() {
        for words in [
            vec![],
            vec!["check"],
            vec!["check", "a", "b"],
            vec!["verify", "a"],
        ] {
            assert_eq!(
                journal_cmd(&args(&words)).unwrap_err(),
                CliError::MissingJournalCheckArgs,
                "{words:?}"
            );
        }
        // A missing file is an open error, not a silent empty manifest
        // (Journal::open would create it).
        assert!(matches!(
            journal_check("/nonexistent/spp-journal-check.jsonl").unwrap_err(),
            CliError::Journal(_)
        ));
    }

    #[test]
    fn journal_check_verifies_flags_truncation_and_bit_flips() {
        use spp_bench::{Journal, Supervisor};
        let mut p = std::env::temp_dir();
        p.push(format!(
            "spp-repro-journal-check-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        let j = Journal::open(&p).unwrap();
        Supervisor::new(1, Some(&j)).run_cells(
            &["kv/a", "kv/b", "kv/c"],
            |_, k| k.to_string(),
            |_, _| Ok(1),
            |ok| format!("{{\"ok\":{ok}}}"),
            |_, _| None,
        );
        drop(j);
        let path = p.display().to_string();
        // Pristine: every line verifies.
        assert_eq!(journal_check(&path).unwrap(), 0);
        // A kill mid-append leaves a torn final line: cut the last
        // entry in half. The damage localizes to that one line.
        let clean = std::fs::read(&p).unwrap();
        std::fs::write(&p, &clean[..clean.len() - 9]).unwrap();
        assert_eq!(journal_check(&path).unwrap(), 1);
        // A single flipped payload byte fails that entry's checksum.
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&p, &flipped).unwrap();
        assert!(journal_check(&path).unwrap() >= 1);
        std::fs::remove_file(&p).unwrap();
    }
}
