//! The crash-recoverable KV storage-engine study (`repro kv`).
//!
//! Three legs over the COW-checkpointed B+tree engine
//! ([`spp_workloads::kv`]) running the YCSB-style mixed profile:
//!
//! * **Perf** — a sweep over the checkpoint interval (the engine's
//!   "checkpoint buffer depth": how many WAL records accumulate before
//!   a COW checkpoint quiesces them). Each interval is traced under the
//!   `Base` build (no persistence machinery — the reference), the
//!   `Log+P+Sf` build on the baseline core, and the same trace on the
//!   SP core, so the table reads out how much of the persist-barrier
//!   cost speculation hides as checkpoint pressure varies.
//! * **Crash** — `Log+P+Sf` bundles crashed at *every* persist boundary
//!   (plus sampled in-between points) must recover through full WAL
//!   replay at every point (must-pass); `Log` bundles (no ordering or
//!   durability machinery) must fail, and the failure is minimized to
//!   the lexicographically smallest `(crash_idx, seed)` witness.
//! * **Stream** — the chunked bounded-memory pipeline
//!   ([`crate::stream`]) replays a longer run and reports its
//!   deterministic peak-memory bound alongside throughput.
//!
//! Cells are pure functions of `(spec, scale, seed)` and run on the
//! [`Supervisor`]: results come back in input order (so `--jobs N`
//! output is byte-identical to `--jobs 1`), a panicking cell degrades
//! to one failed cell, and, when a [`Journal`] is attached, each cell
//! is recorded as it finishes so an interrupted study resumes without
//! recomputing finished cells — replayed output is byte-identical.

use spp_cpu::{CpuConfig, Simulator};
use spp_pmem::{FlushMode, PmemEnv, Variant};
use spp_workloads::kv::{record_kv_bundle, KvBundleSpec, KvMix, KvSpec, KvWorkload};

use crate::crashfuzz::{crash_points, first_violation, Witness, SEEDS_PER_POINT};
use crate::json::{self, Fields, Record};
use crate::schema;
use crate::stream::{run_kv_streamed, KvStreamSpec, STREAM_CHUNK_OPS};
use crate::supervisor::{settle, Supervisor};
use crate::{Harness, Journal};

/// Checkpoint intervals the perf leg sweeps (WAL records between COW
/// checkpoints — the engine's checkpoint-buffer depth).
pub const CKPT_SWEEP: [u64; 3] = [4, 16, 64];

/// Seeded bundles per crash leg: the must-pass and must-fail legs each
/// record this many bundles, at op-stream seed offsets `0..CRASH_BUNDLES`.
pub const CRASH_BUNDLES: u64 = 2;

/// Which (build, core) pair a perf cell measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfCfg {
    /// `Base` build on the baseline core — no persistence machinery.
    Ref,
    /// `Log+P+Sf` build on the baseline core.
    Baseline,
    /// `Log+P+Sf` build on the SP core.
    Sp,
}

impl PerfCfg {
    const ALL: [PerfCfg; 3] = [PerfCfg::Ref, PerfCfg::Baseline, PerfCfg::Sp];

    fn key(self) -> &'static str {
        match self {
            PerfCfg::Ref => "ref",
            PerfCfg::Baseline => "base",
            PerfCfg::Sp => "sp",
        }
    }

    fn variant(self) -> Variant {
        match self {
            PerfCfg::Ref => Variant::Base,
            _ => Variant::LogPSf,
        }
    }

    fn cpu(self) -> CpuConfig {
        match self {
            PerfCfg::Sp => CpuConfig::with_sp(),
            _ => CpuConfig::baseline(),
        }
    }
}

/// One configuration point of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCellSpec {
    /// Timing sweep cell.
    Perf {
        /// WAL records between checkpoints.
        ckpt_every: u64,
        /// Which build/core pair.
        cfg: PerfCfg,
    },
    /// `Log+P+Sf` crashed at every persist boundary must recover.
    MustPass {
        /// Seed offset for the bundle's op stream.
        seed_off: u64,
    },
    /// `Log` must fail, with a minimized witness.
    MustFail {
        /// Seed offset for the bundle's op stream.
        seed_off: u64,
    },
    /// `Log+P+Sf` with WAL record checksums elided must fail recovery:
    /// the leg proving the oracle verifies checksummed records rather
    /// than diffing pre/post state.
    ElideChecksum,
    /// The chunked bounded-memory pipeline leg.
    Stream,
}

impl KvCellSpec {
    /// Every cell of the study, in report order.
    pub fn all() -> Vec<KvCellSpec> {
        let mut v = Vec::new();
        for ckpt_every in CKPT_SWEEP {
            for cfg in PerfCfg::ALL {
                v.push(KvCellSpec::Perf { ckpt_every, cfg });
            }
        }
        for seed_off in 0..CRASH_BUNDLES {
            v.push(KvCellSpec::MustPass { seed_off });
        }
        for seed_off in 0..CRASH_BUNDLES {
            v.push(KvCellSpec::MustFail { seed_off });
        }
        v.push(KvCellSpec::ElideChecksum);
        v.push(KvCellSpec::Stream);
        v
    }
}

/// One measured cell. Fields a leg does not produce stay 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvCell {
    /// The configuration measured.
    pub spec: KvCellSpec,
    /// The cell's verdict (a must-fail cell is `ok` when it *found* its
    /// witness).
    pub ok: bool,
    /// Driver ops executed.
    pub ops: u64,
    /// Recorded events.
    pub events: u64,
    /// Simulated cycles (perf and stream legs).
    pub cycles: u64,
    /// WAL records appended.
    pub mutations: u64,
    /// COW checkpoints the run took (perf leg).
    pub checkpoints: u64,
    /// Crash points swept (crash legs).
    pub points: u64,
    /// `(crash_idx, seed)` schedules checked (crash legs).
    pub checks: u64,
    /// Chunks simulated (stream leg).
    pub chunks: u64,
    /// Deterministic peak-memory bound in bytes (stream leg).
    pub peak_bound: u64,
    /// The minimized witness (must-fail cells that did fail).
    pub witness: Option<Witness>,
    /// What went wrong, for a failed cell.
    pub error: Option<String>,
}

impl KvCell {
    pub(crate) fn empty(spec: KvCellSpec) -> Self {
        KvCell {
            spec,
            ok: false,
            ops: 0,
            events: 0,
            cycles: 0,
            mutations: 0,
            checkpoints: 0,
            points: 0,
            checks: 0,
            chunks: 0,
            peak_bound: 0,
            witness: None,
            error: None,
        }
    }
}

/// The study's full result set.
#[derive(Debug, Clone)]
pub struct KvReport {
    /// Scale divisor the cells were sized from.
    pub scale: u64,
    /// Base seed of the op streams.
    pub seed: u64,
    /// Every cell, in [`KvCellSpec::all`] order.
    pub cells: Vec<KvCell>,
    /// Cells served from the journal without recomputation.
    pub replayed: usize,
}

// --- sizing (scale is a divisor: bigger scale, smaller cells) ---------

fn perf_ops(scale: u64) -> u64 {
    (24_000 / scale.max(1)).clamp(96, 2_000)
}

fn perf_init_keys(scale: u64) -> u64 {
    (6_000 / scale.max(1)).clamp(48, 200)
}

fn crash_ops(scale: u64) -> u64 {
    (6_000 / scale.max(1)).clamp(40, 120)
}

fn stream_ops(scale: u64) -> u64 {
    (200_000 / scale.max(1)).clamp(768, 8_192)
}

fn perf_spec(scale: u64, seed: u64, ckpt_every: u64) -> KvSpec {
    KvSpec {
        init_keys: perf_init_keys(scale),
        ops: perf_ops(scale),
        ckpt_every,
        wal_cap: 2 * ckpt_every,
        seed,
        mix: KvMix::MIXED,
    }
}

fn crash_bundle(variant: Variant, h: &Harness, seed_off: u64, elide: bool) -> KvBundleSpec {
    KvBundleSpec {
        variant,
        flush_mode: FlushMode::default(),
        spec: KvSpec {
            init_keys: 32,
            ops: crash_ops(h.exp.scale),
            ckpt_every: 8,
            wal_cap: 16,
            seed: h.exp.seed.wrapping_add(seed_off),
            mix: KvMix::MIXED,
        },
        elide_checksum: elide,
    }
}

fn stream_spec(scale: u64, seed: u64) -> KvSpec {
    KvSpec {
        init_keys: 64,
        ops: stream_ops(scale),
        ckpt_every: 8,
        wal_cap: 16,
        seed,
        mix: KvMix::MIXED,
    }
}

fn cell_key(spec: &KvCellSpec, scale: u64, seed: u64) -> String {
    let leg = match spec {
        KvCellSpec::Perf { ckpt_every, cfg } => format!("perf/ck{ckpt_every}/{}", cfg.key()),
        KvCellSpec::MustPass { seed_off } => format!("crash/mustpass/s{seed_off}"),
        KvCellSpec::MustFail { seed_off } => format!("crash/mustfail/s{seed_off}"),
        KvCellSpec::ElideChecksum => "crash/elide".to_string(),
        KvCellSpec::Stream => "stream".to_string(),
    };
    format!("kv/{leg}/scale{scale}/seed{seed:#x}")
}

// --- cell execution ---------------------------------------------------

/// Records the mixed-profile trace for one perf cell and replays it.
fn run_perf_cell(h: &Harness, ckpt_every: u64, cfg: PerfCfg) -> KvCell {
    let spec = perf_spec(h.exp.scale, h.exp.seed, ckpt_every);
    let mut cell = KvCell::empty(KvCellSpec::Perf { ckpt_every, cfg });
    let mut env = PmemEnv::new(cfg.variant());
    env.set_flush_mode(FlushMode::default());
    let mut w = KvWorkload::new(spec);
    env.set_recording(false);
    w.setup(&mut env);
    env.set_recording(true);
    for op in 0..spec.ops {
        w.run_op(&mut env, op);
    }
    let trace = env.take_trace();
    cell.ops = spec.ops;
    cell.events = trace.events.len() as u64;
    cell.mutations = w.stats().mutations;
    cell.checkpoints = w.engine().checkpoints();
    match Simulator::new(&trace.events).config(cfg.cpu()).run() {
        Ok(r) => {
            cell.ok = true;
            cell.cycles = r.cpu.cycles;
        }
        Err(e) => cell.error = Some(e.to_string()),
    }
    cell
}

/// Crashes a `Log+P+Sf` bundle at every persist boundary (plus sampled
/// in-between points) under [`SEEDS_PER_POINT`] reorderings each; every
/// schedule must recover through full WAL replay.
fn run_must_pass_cell(h: &Harness, seed_off: u64) -> KvCell {
    let bundle = crash_bundle(Variant::LogPSf, h, seed_off, false);
    let mut cell = KvCell::empty(KvCellSpec::MustPass { seed_off });
    let b = record_kv_bundle(&bundle);
    let points = crash_points(b.events());
    cell.ops = bundle.spec.ops;
    cell.events = b.events().len() as u64;
    cell.mutations = b.mutation_count() as u64;
    cell.points = points.len() as u64;
    let (checks, witness) = first_violation(points, |p, s| b.check_crash(p, s));
    cell.checks = checks as u64;
    cell.ok = witness.is_none();
    cell.error = witness.map(|w| w.to_string());
    cell
}

/// Records `bundle` and scans its `(crash_idx, seed)` space in
/// lexicographic order for a recovery failure, which must exist: the
/// first hit is the minimal witness, and a clean scan fails the cell
/// with `miss`. The must-fail legs record `Log` (no ordering or
/// durability machinery); the elide leg records the must-pass build
/// with WAL record checksums elided, so recovery must lose
/// guaranteed-durable records somewhere.
fn run_witness_cell(spec: KvCellSpec, bundle: &KvBundleSpec, miss: &str) -> KvCell {
    let mut cell = KvCell::empty(spec);
    let b = record_kv_bundle(bundle);
    cell.ops = bundle.spec.ops;
    cell.events = b.events().len() as u64;
    cell.mutations = b.mutation_count() as u64;
    cell.points = b.events().len() as u64 + 1;
    let (checks, witness) = first_violation(0..=b.events().len(), |p, s| b.check_crash(p, s));
    cell.checks = checks as u64;
    cell.ok = witness.is_some();
    cell.error = (!cell.ok).then(|| miss.to_string());
    cell.witness = witness;
    cell
}

/// Runs the chunked pipeline leg and reports its deterministic numbers.
fn run_stream_cell(scale: u64, seed: u64) -> KvCell {
    let mut cell = KvCell::empty(KvCellSpec::Stream);
    let sspec = KvStreamSpec::new(stream_spec(scale, seed), Variant::LogPSf);
    cell.ops = sspec.spec.ops;
    match run_kv_streamed(&sspec, &CpuConfig::baseline()) {
        Ok(r) => {
            cell.ok = true;
            cell.events = r.events;
            cell.cycles = r.cycles;
            cell.mutations = r.mutations;
            cell.chunks = r.chunks;
            cell.peak_bound = r.peak_bound;
        }
        Err(e) => cell.error = Some(e.to_string()),
    }
    cell
}

fn run_cell(h: &Harness, spec: &KvCellSpec) -> KvCell {
    match *spec {
        KvCellSpec::Perf { ckpt_every, cfg } => run_perf_cell(h, ckpt_every, cfg),
        KvCellSpec::MustPass { seed_off } => run_must_pass_cell(h, seed_off),
        KvCellSpec::MustFail { seed_off } => run_witness_cell(
            *spec,
            &crash_bundle(Variant::Log, h, seed_off, false),
            "every schedule recovered, but Log must fail",
        ),
        KvCellSpec::ElideChecksum => run_witness_cell(
            *spec,
            &crash_bundle(Variant::LogPSf, h, 0, true),
            "recovery survived elided WAL checksums; the oracle is not checking them",
        ),
        KvCellSpec::Stream => run_stream_cell(h.exp.scale, h.exp.seed),
    }
}

// --- codec ------------------------------------------------------------

/// A cell as one JSON object: the report's `cells` element and the
/// journal payload. The spec fields lead and must match the cell's key.
impl Record for KvCell {
    fn fields(&mut self, f: &mut Fields<'_>) {
        match self.spec {
            KvCellSpec::Perf { ckpt_every, cfg } => {
                f.spec_str("leg", "perf");
                f.spec_int("ckpt_every", ckpt_every);
                f.spec_str("cfg", cfg.key());
            }
            KvCellSpec::MustPass { seed_off } => {
                f.spec_str("leg", "mustpass");
                f.spec_int("seed_off", seed_off);
            }
            KvCellSpec::MustFail { seed_off } => {
                f.spec_str("leg", "mustfail");
                f.spec_int("seed_off", seed_off);
            }
            KvCellSpec::ElideChecksum => f.spec_str("leg", "elide"),
            KvCellSpec::Stream => f.spec_str("leg", "stream"),
        }
        f.flag("ok", &mut self.ok);
        f.int("ops", &mut self.ops);
        f.int("events", &mut self.events);
        f.int("cycles", &mut self.cycles);
        f.int("mutations", &mut self.mutations);
        f.int("checkpoints", &mut self.checkpoints);
        f.int("points", &mut self.points);
        f.int("checks", &mut self.checks);
        f.int("chunks", &mut self.chunks);
        f.int("peak_bound", &mut self.peak_bound);
        f.opt_record("witness", &mut self.witness, Witness::blank);
        f.opt_str("error", &mut self.error);
    }
}

// --- the study --------------------------------------------------------

/// Runs the storage-engine study: every [`KvCellSpec::all`] cell on
/// the supervised pool, journaled when `journal` is attached.
pub fn run_kv_opts(h: &Harness, journal: Option<&Journal>) -> KvReport {
    let (scale, seed) = (h.exp.scale, h.exp.seed);
    let specs = KvCellSpec::all();
    let outcomes = Supervisor::new(h.jobs, journal).run_cells(
        &specs,
        |_, spec| cell_key(spec, scale, seed),
        |_, spec| Ok(run_cell(h, spec)),
        |spec| KvCell::empty(*spec),
    );
    let (cells, replayed) = settle(outcomes, |i, f| KvCell {
        error: Some(f.reason),
        ..KvCell::empty(specs[i])
    });
    KvReport {
        scale,
        seed,
        cells,
        replayed,
    }
}

impl KvReport {
    fn perf(&self, ckpt_every: u64, cfg: PerfCfg) -> &KvCell {
        self.cells
            .iter()
            .find(|c| c.spec == KvCellSpec::Perf { ckpt_every, cfg })
            .expect("KvCellSpec::all covers the perf grid")
    }

    /// The study's verdict: every cell ok (which for must-fail cells
    /// means the witness was found).
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
    }

    /// The human-readable tables.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== KV storage engine: COW-checkpointed B+tree + WAL, mixed profile =="
        );
        let _ = writeln!(
            s,
            "{} ops, {} initial keys, seed {:#x}",
            perf_ops(self.scale),
            perf_init_keys(self.scale),
            self.seed
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "-- persist-barrier cost vs checkpoint interval --");
        let _ = writeln!(
            s,
            "{:<6} {:>12} {:>12} {:>12} {:>9} {:>7}",
            "ckpt", "ref cycles", "baseline", "SP256", "SP saves", "ckpts"
        );
        for ckpt in CKPT_SWEEP {
            let r = self.perf(ckpt, PerfCfg::Ref);
            let b = self.perf(ckpt, PerfCfg::Baseline);
            let sp = self.perf(ckpt, PerfCfg::Sp);
            if !r.ok || !b.ok || !sp.ok {
                let _ = writeln!(
                    s,
                    "{ckpt:<6} degraded: {}",
                    r.error
                        .as_deref()
                        .or(b.error.as_deref())
                        .or(sp.error.as_deref())
                        .unwrap_or("unknown")
                );
                continue;
            }
            let saves = if b.cycles > 0 {
                (1.0 - sp.cycles as f64 / b.cycles as f64) * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "{:<6} {:>12} {:>12} {:>12} {:>8.0}% {:>7}",
                ckpt, r.cycles, b.cycles, sp.cycles, saves, b.checkpoints
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "-- crash legs (full WAL replay recovery) --");
        for c in &self.cells {
            match &c.spec {
                KvCellSpec::MustPass { seed_off } => {
                    let _ =
                        writeln!(
                        s,
                        "Log+P+Sf s{seed_off}: {} ({} points x {} seeds, {} checks, {} mutations)",
                        if c.ok { "recovered everywhere" } else { "FAILED" },
                        c.points,
                        SEEDS_PER_POINT,
                        c.checks,
                        c.mutations
                    );
                    if let Some(e) = &c.error {
                        let _ = writeln!(s, "  {e}");
                    }
                }
                KvCellSpec::MustFail { seed_off } => match &c.witness {
                    Some(w) => {
                        let _ = writeln!(
                            s,
                            "Log      s{seed_off}: witness (crash_idx {}, seed {}) {} \
                             after {} checks",
                            w.crash_idx, w.seed, w.kind, c.checks
                        );
                    }
                    None => {
                        let _ =
                            writeln!(s, "Log      s{seed_off}: FAILED — every schedule recovered");
                    }
                },
                KvCellSpec::ElideChecksum => match &c.witness {
                    Some(w) => {
                        let _ = writeln!(
                            s,
                            "no-cksum s0: witness (crash_idx {}, seed {}) {} after {} checks",
                            w.crash_idx, w.seed, w.kind, c.checks
                        );
                    }
                    None => {
                        let _ = writeln!(
                            s,
                            "no-cksum s0: FAILED — recovery never noticed the elided checksums"
                        );
                    }
                },
                _ => {}
            }
        }
        let _ = writeln!(s);
        if let Some(c) = self.cells.iter().find(|c| c.spec == KvCellSpec::Stream) {
            let _ = writeln!(s, "-- streamed (bounded-memory) leg --");
            if c.ok {
                let _ = writeln!(
                    s,
                    "{} ops in {} chunks of {}: {} events, {} cycles, peak-memory bound \
                     {} bytes",
                    c.ops, c.chunks, STREAM_CHUNK_OPS, c.events, c.cycles, c.peak_bound
                );
            } else {
                let _ = writeln!(
                    s,
                    "stream leg degraded: {}",
                    c.error.as_deref().unwrap_or("unknown")
                );
            }
        }
        let _ = writeln!(s, "kv: {}", if self.ok() { "PASS" } else { "FAIL" });
        s
    }

    /// The study as one `specpersist/kv-v1` document.
    pub fn render_json(&self) -> String {
        schema::emit(schema::KV, |root| {
            root.int("scale", self.scale)
                .int("seed", self.seed)
                .int("crash_seeds", SEEDS_PER_POINT)
                .int("stream_chunk_ops", STREAM_CHUNK_OPS)
                .int("ok", self.ok().into())
                .raw("cells", json::array(self.cells.iter().map(json::encode)));
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::Experiment;
    use spp_workloads::oracle::ViolationKind;

    fn harness() -> Harness {
        Harness::new(
            Experiment {
                scale: 2400,
                seed: 0x5EED,
            },
            2,
        )
    }

    #[test]
    fn study_passes_with_sp_savings_and_witnesses() {
        let h = harness();
        let rep = run_kv_opts(&h, None);
        assert_eq!(rep.cells.len(), KvCellSpec::all().len());
        assert!(rep.ok(), "{}", rep.render_text());
        for ckpt in CKPT_SWEEP {
            let r = rep.perf(ckpt, PerfCfg::Ref);
            let b = rep.perf(ckpt, PerfCfg::Baseline);
            let sp = rep.perf(ckpt, PerfCfg::Sp);
            assert!(
                r.cycles < b.cycles,
                "persistence machinery must cost cycles (ck{ckpt})"
            );
            assert!(
                sp.cycles <= b.cycles,
                "SP must not slow the persistent build down (ck{ckpt})"
            );
        }
        for c in &rep.cells {
            if let KvCellSpec::MustFail { .. } = c.spec {
                let w = c.witness.as_ref().unwrap();
                assert!(w.crash_idx <= c.events as usize);
            }
            if c.spec == KvCellSpec::ElideChecksum {
                // Every persist op is honest here — the only defect is
                // the elided record checksum, so the oracle must reject
                // the recovered *state*, not the tree structure.
                let w = c.witness.as_ref().unwrap();
                assert_eq!(w.kind, ViolationKind::StateMismatch, "{w:?}");
            }
        }
        assert!(rep.render_text().contains("kv: PASS"));
        assert!(rep
            .render_json()
            .starts_with("{\"schema\":\"specpersist/kv-v1\""));
    }

    #[test]
    fn jobs_do_not_change_the_bytes() {
        let a = run_kv_opts(&Harness::new(harness().exp, 1), None);
        let b = run_kv_opts(&Harness::new(harness().exp, 8), None);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
    }

    #[test]
    fn journaled_rerun_replays_byte_identically() {
        let mut p = std::env::temp_dir();
        p.push(format!("spp-kv-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let h = harness();
        let (text, json) = {
            let j = Journal::open(&p).unwrap();
            let rep = run_kv_opts(&h, Some(&j));
            assert_eq!(rep.replayed, 0, "first run computes everything");
            (rep.render_text(), rep.render_json())
        };
        let j = Journal::open(&p).unwrap();
        let rep = run_kv_opts(&h, Some(&j));
        assert_eq!(rep.replayed, rep.cells.len(), "every cell replays");
        assert_eq!(rep.render_text(), text, "replayed stdout byte-identical");
        assert_eq!(rep.render_json(), json);
        let _ = std::fs::remove_file(&p);
    }
}
