//! `repro litmus` — Px86 persistency-model validation.
//!
//! Drives the [`spp_litmus`] harness over [`run_indexed`]: every
//! litmus program (the curated catalog plus, at generous scales, seeded
//! generated programs) × every [`FlushMode`] is one cell, checked
//! against the executable Px86 reference model on all seven legs
//! (`CrashSim` per crash point, both pipeline cores × {baseline, SP}
//! against the allowed envelope, and the two SP differentials proving
//! speculation never widens a reachable set).
//!
//! Every checked cell, passing or failing, is one result whose `ok`
//! flags and lexicographically minimized `(interleaving, crash_idx,
//! seed)` witness carry the verdict, so the report can print the
//! counterexample; the JSON `failed` list names each failing cell once.
//! A pipeline leg that returns a typed simulation error fails its cell
//! with that error. Results come back in input order, so `--jobs`
//! changes wall time only.
//!
//! The `knob` argument weakens one model rule (test-only; see
//! [`ModelKnob`]): under the weakened model the checker *must* find
//! forbidden states, which is how the harness proves its own teeth.

pub use spp_litmus::ModelKnob;
use spp_litmus::{catalog, check_cell, generate, Witness};
use spp_pmem::FlushMode;
use spp_workloads::litmus::LitmusProgram;

use crate::json::{array, JsonObject};
use crate::schema;
use crate::{run_indexed, CellFailure, Experiment, Harness};

/// One checked cell's outcome (re-exported so the CLI and tests can
/// inspect legs and witnesses without depending on `spp-litmus`).
pub type LitmusCell = spp_litmus::CellOutcome;

/// Generated programs appended to the catalog at `scale` (shrinks with
/// the smoke divisor exactly like every other experiment's sizing; 0 at
/// smoke scales, 12 at paper scale).
pub fn gen_count(scale: u64) -> usize {
    ((240 / scale.max(1)) as usize).min(12)
}

/// The program list one `repro litmus` invocation sweeps: the curated
/// catalog, then [`gen_count`] seeded generated programs.
pub fn litmus_programs(exp: &Experiment) -> Vec<LitmusProgram> {
    let mut ps = catalog();
    ps.extend(generate(exp.seed, gen_count(exp.scale)));
    ps
}

/// The full `repro litmus` result set.
#[derive(Debug, Clone)]
pub struct LitmusReport {
    /// Scale the program list was sized from.
    pub scale: u64,
    /// Seed the generated programs derive from.
    pub seed: u64,
    /// Model weakening in effect.
    pub knob: ModelKnob,
    /// Programs swept (catalog + generated).
    pub programs: usize,
    /// Every cell, in `(program, flush-mode)` matrix order.
    pub cells: Vec<LitmusCell>,
}

fn cell_key(name: &str, mode: FlushMode, knob: ModelKnob) -> String {
    format!("litmus/{}/{}/{}", knob.key(), name, mode.mnemonic())
}

/// A cell as one JSON object, the report's `cells` element; `ok` is
/// computed from the leg flags.
pub fn cell_json(c: &LitmusCell) -> String {
    let mut o = JsonObject::new();
    o.str("program", &c.program)
        .str("rendered", &c.rendered)
        .str("flush", c.mode.mnemonic())
        .str("knob", c.knob.key())
        .int("interleavings", c.interleavings as u64)
        .int("allowed", c.allowed_states as u64)
        .int("reached", c.reached_states as u64)
        .flag("crashsim_ok", c.crashsim_ok)
        .flag("pipe_base_ok", c.pipe_base_ok)
        .flag("pipe_sp_ok", c.pipe_sp_ok)
        .flag("ref_base_ok", c.ref_base_ok)
        .flag("ref_sp_ok", c.ref_sp_ok)
        .flag("sp_differential_ok", c.sp_differential_ok)
        .flag("ref_sp_differential_ok", c.ref_sp_differential_ok)
        .flag("ok", c.ok())
        .opt_str("error", c.sim_error.as_deref())
        .opt_raw("witness", c.witness.as_ref().map(witness_json));
    o.render()
}

/// The witness, `{"leg","interleaving","crash_idx","seed","state"}`,
/// with a `null` seed when only enumeration reaches it.
fn witness_json(w: &Witness) -> String {
    let mut o = JsonObject::new();
    o.str("leg", w.leg)
        .int("interleaving", w.interleaving as u64)
        .int("crash_idx", w.crash_idx as u64)
        .nullable_int("seed", w.seed)
        .ints("state", &w.state);
    o.render()
}

fn fail_reason(c: &LitmusCell) -> String {
    if let Some(e) = &c.sim_error {
        return format!("simulation failed: {e}");
    }
    match &c.witness {
        Some(w) => format!(
            "forbidden state reached: leg {}, interleaving {}, crash_idx {}, seed {}, state {:?}",
            w.leg,
            w.interleaving,
            w.crash_idx,
            w.seed.map_or_else(|| "-".to_string(), |s| s.to_string()),
            w.state
        ),
        None => "cell failed without a witness".to_string(),
    }
}

/// Runs the litmus matrix: every program × flush mode, fanned out
/// deterministically over [`run_indexed`], under the model `knob`
/// (`Honest` in production; the CLI's hidden `--model-knob` weakens it
/// for the self-test leg).
pub fn run_litmus(h: &Harness, knob: ModelKnob) -> LitmusReport {
    let programs = litmus_programs(&h.exp);
    let items: Vec<(usize, FlushMode)> = (0..programs.len())
        .flat_map(|pi| FlushMode::ALL.iter().map(move |&m| (pi, m)))
        .collect();
    let cells = run_indexed(h.jobs, &items, |_, &(pi, mode)| {
        check_cell(&programs[pi], mode, knob)
    });
    LitmusReport {
        scale: h.exp.scale,
        seed: h.exp.seed,
        knob,
        programs: programs.len(),
        cells,
    }
}

impl LitmusReport {
    /// Did every cell pass all seven legs?
    pub fn ok(&self) -> bool {
        self.cells.iter().all(LitmusCell::ok)
    }

    /// Cells that reached a forbidden state (or degraded).
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.ok()).count()
    }

    /// The human-readable report (deterministic; stdout-destined).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== litmus (Px86 model validation, {} programs x {} flush modes, model {}) ==",
            self.programs,
            FlushMode::ALL.len(),
            self.knob.key()
        );
        let _ = writeln!(
            s,
            "{:<24} {:<11} {:>6} {:>8} {:>8}  verdict",
            "program", "flush", "ileav", "allowed", "reached"
        );
        for c in &self.cells {
            let verdict = if c.ok() {
                "ok: reachable \u{2286} allowed, SP \u{2286} baseline".to_string()
            } else if let Some(w) = &c.witness {
                format!(
                    "FAIL[{}]: witness (interleaving {}, crash_idx {}, seed {}) state {:?}",
                    w.leg,
                    w.interleaving,
                    w.crash_idx,
                    w.seed.map_or_else(|| "-".to_string(), |x| x.to_string()),
                    w.state
                )
            } else if let Some(e) = &c.sim_error {
                format!("FAIL: {e}")
            } else {
                "FAIL: no witness".to_string()
            };
            let _ = writeln!(
                s,
                "{:<24} {:<11} {:>6} {:>8} {:>8}  {}",
                c.program,
                c.mode.mnemonic(),
                c.interleavings,
                c.allowed_states,
                c.reached_states,
                verdict
            );
        }
        let _ = writeln!(
            s,
            "litmus: {} ({} cells, {} failed)",
            if self.ok() { "PASS" } else { "FAIL" },
            self.cells.len(),
            self.failed()
        );
        s
    }

    /// The study as one `specpersist/litmus-v1` document.
    pub fn render_json(&self) -> String {
        let failed = self.cells.iter().filter(|c| !c.ok()).map(|c| {
            CellFailure {
                key: cell_key(&c.program, c.mode, c.knob),
                reason: fail_reason(c),
                snapshot: None,
            }
            .json()
        });
        schema::emit(schema::LITMUS, |root| {
            root.int("scale", self.scale)
                .int("seed", self.seed)
                .str("knob", self.knob.key())
                .int("programs", self.programs as u64)
                .flag("ok", self.ok())
                .raw("cells", array(self.cells.iter().map(cell_json)))
                .raw("failed", array(failed));
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::json;

    fn smoke_harness(jobs: usize) -> Harness {
        Harness::new(
            Experiment {
                scale: 2400, // catalog-only sizing (gen_count == 0)
                seed: 7,
            },
            jobs,
        )
    }

    #[test]
    fn honest_matrix_passes_and_is_jobs_invariant() {
        let a = run_litmus(&smoke_harness(1), ModelKnob::Honest);
        let b = run_litmus(&smoke_harness(8), ModelKnob::Honest);
        assert!(a.ok(), "honest cells must all pass");
        assert_eq!(a.cells.len(), a.programs * FlushMode::ALL.len());
        assert!(a.programs >= 20, "catalog floor");
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        let doc = a.render_json();
        assert!(doc.starts_with("{\"schema\":\"specpersist/litmus-v1\""));
        assert!(a.render_text().contains("litmus: PASS"));
    }

    #[test]
    fn weakened_model_fails_with_witness_bearing_failed_records() {
        let rep = run_litmus(&smoke_harness(4), ModelKnob::ClflushOptProgramOrdered);
        assert!(!rep.ok(), "the weakened model must be caught");
        assert!(rep.failed() > 0);
        // The knob trap fails on the weak-flush modes and the failing
        // cell carries the minimized witness.
        let trap: Vec<&LitmusCell> = rep
            .cells
            .iter()
            .filter(|c| c.program == "knob-trap")
            .collect();
        assert_eq!(trap.len(), 3);
        for c in trap {
            if c.mode == FlushMode::Clflush {
                // The serializing flush really is program-ordered, so
                // the knob is a no-op there.
                assert!(c.ok(), "{}", c.mode.mnemonic());
            } else {
                assert!(fail_reason(c).contains("forbidden state"));
                let w = c.witness.as_ref().unwrap();
                assert_eq!(w.leg, "crashsim");
                assert!(w.seed.is_some());
                assert_eq!(w.state[0], 0, "x must be stale in the witness");
            }
        }
        // `failed` names each failing cell once, by key and reason; the
        // cell itself appears only in `cells`.
        let doc = json::parse(&rep.render_json()).unwrap();
        let failed = doc.get("failed").and_then(json::Value::as_arr).unwrap();
        assert_eq!(failed.len(), rep.failed());
        for f in failed {
            let key = f.get("key").and_then(json::Value::as_str).unwrap();
            assert!(key.starts_with("litmus/clflushopt-po/"), "{key}");
            assert!(f.get("reason").and_then(json::Value::as_str).is_some());
            assert_eq!(f.get("snapshot"), Some(&json::Value::Null));
        }
        assert!(rep.render_text().contains("litmus: FAIL"));
    }

    #[test]
    fn gen_count_scales_down_with_the_smoke_divisor() {
        assert_eq!(gen_count(1), 12);
        assert_eq!(gen_count(50), 4);
        assert_eq!(gen_count(2400), 0);
        let exp = Experiment { scale: 40, seed: 3 };
        let ps = litmus_programs(&exp);
        assert_eq!(ps.len(), catalog().len() + 6);
    }
}
