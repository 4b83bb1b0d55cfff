//! # spp-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (§5-§6): for each Table 1 benchmark it records traces in all four
//! build variants, replays them through the pipeline with and without
//! speculative persistence, and prints the same rows/series the paper
//! reports. See `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured comparison.
//!
//! Two properties make the sweep fast without changing a single
//! number:
//!
//! * **Trace caching** ([`cache`]): a trace is a pure function of
//!   `(benchmark, variant, scale, seed, flush mode)`, so the harness
//!   records each one exactly once and shares the frozen event stream
//!   (`Arc<[Event]>`) across every simulator configuration that
//!   replays it.
//! * **Deterministic parallelism** ([`parallel`]): simulations are
//!   independent pure functions of `(trace, config)`, fanned out
//!   across worker threads with results collected in input order —
//!   `--jobs N` output is bit-identical to `--jobs 1`.
//!
//! The `repro` binary drives it:
//!
//! ```text
//! repro all --scale 50          # every figure at 1/50 of Table 1 sizing
//! repro fig8 --scale 200        # just the headline overhead figure
//! repro all --jobs 8            # same bytes on stdout, less wall time
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod crashfuzz;
pub mod faultsim;
pub mod json;
pub mod kv;
pub mod litmus;
pub mod multicore;
pub mod optimize;
pub mod parallel;
pub mod profile;
pub mod report;
pub mod schema;
pub mod source;
pub mod stream;
pub mod study;

pub use cache::{trace_bytes, CacheStats, TraceCache, TraceKey};
pub use multicore::{MulticoreCell, MulticoreReport};
pub use parallel::run_indexed;

use std::sync::atomic::{AtomicUsize, Ordering};

use spp_cpu::{CpuConfig, SimResult, Simulator, SpConfig};
use spp_pmem::{Event, FlushMode, SharedTrace, TraceCounts, Variant};
use spp_workloads::{BenchId, BenchSpec};

use crate::json::JsonObject;

/// The lowercase variant key used in every machine-readable document
/// (`base`/`log`/`logp`/`logpsf`) — also what `repro` accepts on the
/// command line.
pub fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Base => "base",
        Variant::Log => "log",
        Variant::LogP => "logp",
        Variant::LogPSf => "logpsf",
    }
}

/// Parses a [`variant_key`] (case-insensitive; `log+p`/`log+p+sf`
/// spellings accepted) back to its [`Variant`].
pub fn parse_variant(s: &str) -> Option<Variant> {
    match s.to_ascii_lowercase().as_str() {
        "base" => Some(Variant::Base),
        "log" => Some(Variant::Log),
        "logp" | "log+p" => Some(Variant::LogP),
        "logpsf" | "log+p+sf" => Some(Variant::LogPSf),
        _ => None,
    }
}

/// A failed cell as a report lists it: its key, what went wrong and,
/// when the failure was a typed [`spp_cpu::SimError`], its diagnostic
/// snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's key.
    pub key: String,
    /// The failure reason.
    pub reason: String,
    /// The diagnostic snapshot as JSON
    /// ([`spp_cpu::DiagnosticSnapshot::to_json`]), if one was captured.
    pub snapshot: Option<String>,
}

impl CellFailure {
    /// The failure as one JSON object, `{"key","reason","snapshot"}`,
    /// with a `null` snapshot when none was captured.
    pub fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("key", &self.key)
            .str("reason", &self.reason)
            .nullable_raw("snapshot", self.snapshot.as_deref());
        o.render()
    }
}

/// Harness-wide parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Divisor applied to Table 1's `#InitOps`/`#SimOps` (1 = paper
    /// scale; the default harness uses 50).
    pub scale: u64,
    /// RNG seed shared by every run so operation streams match across
    /// variants.
    pub seed: u64,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            scale: 50,
            seed: 0x5EED,
        }
    }
}

/// One variant's trace-and-timing outcome.
#[derive(Debug, Clone, Copy)]
pub struct VariantRun {
    /// Micro-op counts of the recorded trace.
    pub counts: TraceCounts,
    /// Pipeline results without speculation.
    pub sim: SimResult,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BenchRun {
    /// Which benchmark.
    pub id: BenchId,
    /// The actual (scaled) sizing used.
    pub spec: BenchSpec,
    /// `Base` build.
    pub base: VariantRun,
    /// `Log` build.
    pub log: VariantRun,
    /// `Log+P` build.
    pub logp: VariantRun,
    /// `Log+P+Sf` build.
    pub logpsf: VariantRun,
    /// `Log+P+Sf` trace on the SP256 core.
    pub sp256: SimResult,
}

impl BenchRun {
    /// Execution-time overhead of `cycles` relative to the `Base` build.
    pub fn overhead(&self, cycles: u64) -> f64 {
        cycles as f64 / self.base.sim.cpu.cycles as f64 - 1.0
    }
}

/// The per-benchmark simulations of the main sweep, in [`BenchRun`]
/// field order: the four build variants on the baseline core, then the
/// `Log+P+Sf` trace on the SP256 core.
const SUITE_SIMS: [(Variant, bool); 5] = [
    (Variant::Base, false),
    (Variant::Log, false),
    (Variant::LogP, false),
    (Variant::LogPSf, false),
    (Variant::LogPSf, true),
];

/// The Fig. 13 SP cores: one per Table 3 SSB design point.
fn ssb_cores() -> Vec<CpuConfig> {
    spp_core::SSB_DESIGN_POINTS
        .iter()
        .map(|&(entries, _)| CpuConfig {
            sp: Some(SpConfig::with_ssb_entries(entries)),
            ..CpuConfig::baseline()
        })
        .collect()
}

/// The ablation SP cores, one per [`ABLATION_SETTINGS`] entry.
fn ablation_cores() -> Vec<CpuConfig> {
    ABLATION_SETTINGS
        .iter()
        .map(|&(combine_barrier, checkpoints)| CpuConfig {
            sp: Some(SpConfig {
                combine_barrier,
                checkpoints,
                ..SpConfig::paper_default()
            }),
            ..CpuConfig::baseline()
        })
        .collect()
}

/// The SP design-choice ablation settings `(combine_barrier,
/// checkpoints)`, in report column order: full SP256, no combined
/// barrier opcode, then 1/2/8 checkpoints.
pub const ABLATION_SETTINGS: [(bool, usize); 5] =
    [(true, 4), (false, 4), (true, 1), (true, 2), (true, 8)];

/// The evaluation harness: one [`Experiment`], one [`TraceCache`], and
/// a worker-thread budget.
///
/// Every experiment entry point on this type pulls traces through the
/// shared cache (each trace is recorded exactly once per harness, no
/// matter how many figures replay it) and fans independent simulations
/// out over up to `jobs` threads via [`run_indexed`], which returns
/// results in input order — so the report bytes are identical at any
/// job count. Every simulator replay it issues is counted as it runs,
/// so a stage's replay total is read off [`Harness::replays`] rather
/// than predicted.
#[derive(Debug, Default)]
pub struct Harness {
    /// Scale and seed shared by every run.
    pub exp: Experiment,
    /// Maximum worker threads for independent jobs (0 and 1 both mean
    /// serial, on the caller's thread).
    pub jobs: usize,
    cache: TraceCache,
    replays: AtomicUsize,
}

impl Harness {
    /// A harness with an empty trace cache.
    pub fn new(exp: Experiment, jobs: usize) -> Self {
        Harness {
            exp,
            jobs,
            cache: TraceCache::new(),
            replays: AtomicUsize::new(0),
        }
    }

    /// Simulator replays this harness has issued so far.
    pub fn replays(&self) -> usize {
        self.replays.load(Ordering::Relaxed)
    }

    /// Replays `events` on `cpu` through the [`Simulator`] façade and
    /// counts the replay, panicking on failure (the harness's recorded
    /// traces are known-good; a failure here is a harness bug, not an
    /// input problem).
    pub(crate) fn replay(&self, events: &[Event], cpu: &CpuConfig) -> SimResult {
        let r = match Simulator::new(events).config(*cpu).run() {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        };
        self.replays.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Trace-cache counter snapshot (recordings / cache hits / keys /
    /// bytes held).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The trace for `key`, recorded on first request and shared after.
    pub fn trace(&self, key: TraceKey) -> SharedTrace {
        self.cache.get(key)
    }

    /// Replays the keyed trace on `cpu`.
    fn sim(&self, key: TraceKey, cpu: &CpuConfig) -> (TraceCounts, SimResult) {
        let t = self.cache.get(key);
        (t.counts, self.replay(&t.events, cpu))
    }

    /// `Base`-build cycles on the baseline core (the denominator of
    /// every overhead figure).
    fn base_cycles(&self, id: BenchId) -> u64 {
        self.sim(
            TraceKey::new(id, Variant::Base, &self.exp),
            &CpuConfig::baseline(),
        )
        .1
        .cpu
        .cycles
    }

    /// Runs the Fig. 8-12/14 sweep for the given benchmarks: all four
    /// variants on the baseline core, plus SP256 on the `Log+P+Sf`
    /// trace — 5 simulations per benchmark, all run as one flat job
    /// list.
    pub fn run_benches(&self, ids: &[BenchId]) -> Vec<BenchRun> {
        let jobs: Vec<(BenchId, Variant, bool)> = ids
            .iter()
            .flat_map(|&id| SUITE_SIMS.iter().map(move |&(v, sp)| (id, v, sp)))
            .collect();
        let results = run_indexed(self.jobs, &jobs, |_, &(id, variant, sp)| {
            let cpu = if sp {
                CpuConfig::with_sp()
            } else {
                CpuConfig::baseline()
            };
            self.sim(TraceKey::new(id, variant, &self.exp), &cpu)
        });
        ids.iter()
            .zip(results.chunks_exact(SUITE_SIMS.len()))
            .map(|(&id, r)| BenchRun {
                id,
                spec: BenchSpec::scaled(id, self.exp.scale),
                base: VariantRun {
                    counts: r[0].0,
                    sim: r[0].1,
                },
                log: VariantRun {
                    counts: r[1].0,
                    sim: r[1].1,
                },
                logp: VariantRun {
                    counts: r[2].0,
                    sim: r[2].1,
                },
                logpsf: VariantRun {
                    counts: r[3].0,
                    sim: r[3].1,
                },
                sp256: r[4].1,
            })
            .collect()
    }

    /// `Log+P+Sf` overheads vs `Base` for the given benchmarks on each
    /// of `cores`, one row per benchmark.
    fn overhead_rows(&self, ids: &[BenchId], cores: &[CpuConfig]) -> Vec<Vec<f64>> {
        let bases = run_indexed(self.jobs, ids, |_, &id| self.base_cycles(id));
        let jobs: Vec<(usize, usize)> = (0..ids.len())
            .flat_map(|bi| (0..cores.len()).map(move |ci| (bi, ci)))
            .collect();
        let overheads = run_indexed(self.jobs, &jobs, |_, &(bi, ci)| {
            let key = TraceKey::new(ids[bi], Variant::LogPSf, &self.exp);
            let sim = self.sim(key, &cores[ci]).1;
            sim.cpu.cycles as f64 / bases[bi] as f64 - 1.0
        });
        overheads
            .chunks_exact(cores.len())
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Fig. 13 rows for the given benchmarks: the `Log+P+Sf` trace on
    /// SP cores with each Table 3 SSB size, as `(entries,
    /// overhead_vs_base)` pairs.
    pub fn ssb_table(&self, ids: &[BenchId]) -> Vec<(BenchId, Vec<(usize, f64)>)> {
        let rows = self.overhead_rows(ids, &ssb_cores());
        ids.iter()
            .zip(rows)
            .map(|(&id, os)| {
                let pts = spp_core::SSB_DESIGN_POINTS
                    .iter()
                    .zip(os)
                    .map(|(&(e, _), o)| (e, o))
                    .collect();
                (id, pts)
            })
            .collect()
    }

    /// [`ABLATION_SETTINGS`] overheads vs `Base` for the given
    /// benchmarks, one row per benchmark.
    pub fn ablation_table(&self, ids: &[BenchId]) -> Vec<(BenchId, [f64; 5])> {
        let rows = self.overhead_rows(ids, &ablation_cores());
        ids.iter()
            .zip(rows)
            .map(|(&id, os)| (id, [os[0], os[1], os[2], os[3], os[4]]))
            .collect()
    }

    /// Flush-instruction ablation rows (§2.2 footnote) for the given
    /// benchmarks: per [`FlushMode`], cycles per operation on the
    /// baseline and SP cores.
    pub fn flushmode_table(&self, ids: &[BenchId]) -> Vec<(BenchId, Vec<(u64, u64)>)> {
        let jobs: Vec<(BenchId, FlushMode, bool)> = ids
            .iter()
            .flat_map(|&id| {
                FlushMode::ALL
                    .iter()
                    .flat_map(move |&mode| [(id, mode, false), (id, mode, true)])
            })
            .collect();
        let cycles = run_indexed(self.jobs, &jobs, |_, &(id, mode, sp)| {
            let cpu = if sp {
                CpuConfig::with_sp()
            } else {
                CpuConfig::baseline()
            };
            let key = TraceKey::with_flush_mode(id, Variant::LogPSf, &self.exp, mode);
            let sim = self.sim(key, &cpu).1;
            sim.cpu.cycles / BenchSpec::scaled(id, self.exp.scale).sim_ops
        });
        ids.iter()
            .zip(cycles.chunks_exact(2 * FlushMode::ALL.len()))
            .map(|(&id, per_mode)| (id, per_mode.chunks_exact(2).map(|c| (c[0], c[1])).collect()))
            .collect()
    }

    /// Runs the full-vs-incremental logging ablation on the B-tree.
    ///
    /// The full-logging trace is the cached Table 1 B-tree `Log+P+Sf`
    /// recording. The incremental B-tree is a §3.2 what-if outside the
    /// Table 1 suite, so the trace cache does not hold its trace; it is
    /// recorded here from the same cached BT population. The two traces
    /// and four simulations share the harness's worker budget.
    pub fn run_logging_comparison(&self) -> LoggingComparison {
        let key = TraceKey::new(BenchId::BTree, Variant::LogPSf, &self.exp);
        let ts = key.trace_spec();
        let traces = run_indexed(self.jobs, &[false, true], |_, &incremental| {
            if incremental {
                spp_workloads::btree_inc::IncBTree::record_trace(&ts)
            } else {
                self.trace(key)
            }
        });
        let ops = ts.spec.sim_ops;
        let jobs = [(0, false), (0, true), (1, false), (1, true)];
        let sims = run_indexed(self.jobs, &jobs, |_, &(ti, sp): &(usize, bool)| {
            let cpu = if sp {
                CpuConfig::with_sp()
            } else {
                CpuConfig::baseline()
            };
            self.replay(&traces[ti].events, &cpu)
        });
        LoggingComparison {
            full_cycles: sims[0].cpu.cycles / ops,
            inc_cycles: sims[2].cpu.cycles / ops,
            full_sp_cycles: sims[1].cpu.cycles / ops,
            inc_sp_cycles: sims[3].cpu.cycles / ops,
            full_pcommits: traces[0].counts.pcommits as f64 / ops as f64,
            inc_pcommits: traces[1].counts.pcommits as f64 / ops as f64,
            full_stores: traces[0].counts.stores as f64 / ops as f64,
            inc_stores: traces[1].counts.stores as f64 / ops as f64,
        }
    }
}

/// Comparison of full vs incremental logging on the B-tree (§3.2,
/// Figs. 4-5): cycles, pcommits and logged volume per operation, on the
/// baseline and SP cores.
#[derive(Debug, Clone, Copy)]
pub struct LoggingComparison {
    /// Baseline-core cycles per op with full logging.
    pub full_cycles: u64,
    /// Baseline-core cycles per op with incremental logging.
    pub inc_cycles: u64,
    /// SP-core cycles per op with full logging.
    pub full_sp_cycles: u64,
    /// SP-core cycles per op with incremental logging.
    pub inc_sp_cycles: u64,
    /// pcommits per op, full logging.
    pub full_pcommits: f64,
    /// pcommits per op, incremental logging.
    pub inc_pcommits: f64,
    /// Store micro-ops per op (log volume proxy), full logging.
    pub full_stores: f64,
    /// Store micro-ops per op, incremental.
    pub inc_stores: f64,
}

/// Geometric mean of `(1 + overhead)` ratios, returned as an overhead
/// (the paper's aggregation for Fig. 8).
///
/// An overhead of −100% or beyond (ratio ≤ 0) has no finite logarithm;
/// such ratios are clamped to a tiny positive value so one pathological
/// input degrades the mean gracefully instead of poisoning it with NaN.
pub fn geomean_overhead(overheads: impl IntoIterator<Item = f64>) -> f64 {
    const MIN_RATIO: f64 = 1e-9;
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for o in overheads {
        log_sum += (1.0 + o).max(MIN_RATIO).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiment {
        Experiment {
            scale: 2000,
            seed: 1,
        }
    }

    #[test]
    fn geomean_matches_hand_example() {
        assert!(geomean_overhead([0.0, 0.0]).abs() < 1e-12);
        assert!((geomean_overhead([0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert_eq!(geomean_overhead(std::iter::empty()), 0.0);
    }

    #[test]
    fn geomean_is_finite_for_pathological_overheads() {
        // A −100% overhead means "took zero cycles" — impossible in a
        // real run, but the aggregation must not turn it into NaN.
        for os in [vec![-1.0], vec![-1.5, 0.2], vec![0.1, -1.0, 0.3]] {
            let g = geomean_overhead(os.iter().copied());
            assert!(g.is_finite(), "geomean of {os:?} must be finite, got {g}");
            assert!(g >= -1.0, "geomean of {os:?} is an overhead, got {g}");
        }
        // And clamping must not disturb healthy inputs.
        assert!((geomean_overhead([0.5, 0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn variant_ordering_holds_for_linked_list() {
        let r = Harness::new(tiny(), 1)
            .run_benches(&[BenchId::LinkedList])
            .remove(0);
        // The instrumentation ladder is structural, so it holds exactly
        // at any scale: each variant adds micro-ops (logging stores,
        // then flushes, then pcommit/fence pairs) on the same operation
        // stream.
        assert!(r.log.counts.total() > r.base.counts.total());
        assert!(r.logp.counts.total() > r.log.counts.total());
        assert!(r.logpsf.counts.total() > r.logp.counts.total());
        // Fences serialize retirement, so on identical cores the fenced
        // build can never be faster than the unfenced one — this pair
        // replays the *same structure* with strictly more ordering, so
        // it is deterministic even at tiny scales (unlike cross-variant
        // cycle ratios, whose traces differ block-for-block).
        assert!(r.logpsf.sim.cpu.cycles > r.logp.sim.cpu.cycles);
        // SP recovers most of the fence cost.
        assert!(r.sp256.cpu.cycles < r.logpsf.sim.cpu.cycles);
        // Committed micro-ops match the traces exactly.
        assert_eq!(r.sp256.cpu.committed_uops, r.logpsf.counts.total());
    }

    #[test]
    fn ssb_sweep_produces_all_design_points() {
        let h = Harness::new(
            Experiment {
                scale: 5000,
                seed: 1,
            },
            1,
        );
        let (id, pts) = h.ssb_table(&[BenchId::LinkedList]).remove(0);
        assert_eq!(id, BenchId::LinkedList);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].0, 32);
        assert_eq!(pts[5].0, 1024);
    }

    #[test]
    fn harness_records_each_suite_trace_exactly_once() {
        let h = Harness::new(
            Experiment {
                scale: 5000,
                seed: 1,
            },
            4,
        );
        let runs = h.run_benches(&BenchId::ALL);
        assert_eq!(runs.len(), 7);
        let s = h.cache_stats();
        // 7 benchmarks × 4 variants, despite 5 simulations each.
        assert_eq!(
            s.recordings, 28,
            "one recording per (bench, variant): {s:?}"
        );
        assert_eq!(s.entries, 28);
        assert_eq!(
            s.hits, 7,
            "the SP256 replay of each Log+P+Sf trace is a hit"
        );
        // A second full sweep records nothing new.
        h.run_benches(&BenchId::ALL);
        let s2 = h.cache_stats();
        assert_eq!(s2.recordings, 28, "re-running must not re-record: {s2:?}");
    }

    #[test]
    fn replay_counter_counts_every_stage_replay() {
        // Every `Harness::sim` is exactly one `TraceCache::get`, i.e. one
        // recording or one hit, so on a fresh harness a cached table's
        // replay count equals its cache traffic.
        let exp = Experiment {
            scale: 5000,
            seed: 1,
        };
        type Stage = fn(&Harness);
        let counted = |stage: Stage| {
            let h = Harness::new(exp, 2);
            stage(&h);
            let s = h.cache_stats();
            (h.replays(), (s.recordings + s.hits) as usize)
        };
        // The counts `repro all` prints: the suite is 28 recordings + 7
        // hits; each overhead table replays one `Base` trace per
        // benchmark beside its SP-core jobs.
        let tables: [(&str, Stage, usize); 4] = [
            ("suite", |h| drop(h.run_benches(&BenchId::ALL)), 35),
            ("fig13", |h| drop(h.ssb_table(&BenchId::ALL)), 49),
            ("ablation", |h| drop(h.ablation_table(&BenchId::ALL)), 42),
            (
                "flush-mode",
                |h| drop(h.flushmode_table(&crate::report::FLUSHMODE_BENCHES)),
                18,
            ),
        ];
        for (name, stage, want) in tables {
            assert_eq!(counted(stage), (want, want), "{name}");
        }
        // The incremental trace is not a trace-cache entry (it shares
        // only BT's setup-cache population): one cached trace, four
        // counted replays.
        assert_eq!(
            counted(|h| {
                h.run_logging_comparison();
            }),
            (4, 1),
            "logging comparison"
        );
    }
}
