//! `repro profile` — the cycle-resolved stall/latency profile of one
//! benchmark cell, on the baseline and SP256 cores, through the
//! `spp-obs` probe layer.
//!
//! One recorded trace is replayed twice, each replay with a
//! [`Collector`] attached via the [`Simulator`](spp_cpu::Simulator)
//! façade. The report has three renderings:
//!
//! * a text stall table ([`ProfileReport::render_text`]): retirement
//!   stalls attributed to fence / SSB-full / checkpoint-full / backend
//!   causes, plus pcommit-latency, epoch-duration and fence-episode
//!   distributions and buffer occupancy;
//! * one `specpersist/profile-v2` JSON line
//!   ([`ProfileReport::render_json`]);
//! * a Chrome `trace_event` document ([`ProfileReport::chrome_trace`])
//!   with the two configurations as separate processes, loadable in
//!   Perfetto or `chrome://tracing`.
//!
//! The report self-validates: each configuration's four attribution
//! buckets must equal the machine's own stall counters exactly (they
//! are derived by counter-diffing in the pipeline, so any divergence is
//! a probe bug), and [`ProfileReport::ok`] gates the exit code.
//! Everything is deterministic — the collectors use stride reservoirs,
//! not RNG — so the bytes are identical at any `--jobs` count.
//!
//! The report is one cell, so `repro profile` takes no journal: a
//! killed run has no completed cell to replay.

use std::fmt::Write as _;

use spp_cpu::{CpuConfig, CpuStats, SimResult, Simulator};
use spp_obs::{
    merge_chrome_traces, Collector, LatencySummary, OccupancySummary, ProbeHandle, ProfileSummary,
    StallProfile, TraceSpan,
};
use spp_pmem::Variant;
use spp_workloads::BenchId;

use crate::json::{array, JsonObject};
use crate::parallel::run_indexed;
use crate::{variant_key, Experiment, Harness, TraceKey};

/// One profiled core configuration.
#[derive(Debug, Clone)]
pub struct ProfiledCell {
    /// Display label (`baseline` / `sp256`); also the Chrome process
    /// name.
    pub config: &'static str,
    /// The run's architectural result — byte-identical to an unprobed
    /// run (the probe-neutrality tests pin this).
    pub sim: SimResult,
    /// Everything the collector measured.
    pub summary: ProfileSummary,
    /// The collected Chrome spans (epochs, pcommits, fence stalls).
    pub spans: Vec<TraceSpan>,
}

/// The four-counter equality behind
/// [`ProfiledCell::attribution_coherent`], shared with the optimizer's
/// replay cells.
pub(crate) fn stalls_reconcile(s: &StallProfile, c: &CpuStats) -> bool {
    s.fence == c.fence_stall_cycles
        && s.ssb_full == c.ssb_full_stall_cycles
        && s.checkpoint_full == c.checkpoint_stall_cycles
        && s.backend == c.fetch_stall_cycles
}

impl ProfiledCell {
    /// Probe-vs-machine coherence: each attribution bucket must equal
    /// the machine's own stall counter (fence, SSB-full,
    /// checkpoint-full, backend), so the attributed total sums exactly
    /// to the machine's total stall cycles.
    pub fn attribution_coherent(&self) -> bool {
        stalls_reconcile(&self.summary.stalls, &self.sim.cpu)
    }

    /// The machine's total stall cycles (the attribution target).
    pub fn machine_stall_cycles(&self) -> u64 {
        let c = &self.sim.cpu;
        c.fence_stall_cycles
            + c.ssb_full_stall_cycles
            + c.checkpoint_stall_cycles
            + c.fetch_stall_cycles
    }
}

/// The `repro profile` report for one `(benchmark, variant)` cell.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Which benchmark.
    pub id: BenchId,
    /// Which build variant of its trace.
    pub variant: Variant,
    /// Scale and seed of the recording.
    pub exp: Experiment,
    /// Micro-ops in the profiled trace.
    pub trace_uops: u64,
    /// The profiled configurations, in [`PROFILE_CONFIGS`] order.
    pub cells: Vec<ProfiledCell>,
}

/// The profiled configurations, in report order: the stalling baseline
/// core, then SP256.
pub const PROFILE_CONFIGS: [(&str, bool); 2] = [("baseline", false), ("sp256", true)];

/// Replays the keyed trace once per [`PROFILE_CONFIGS`] entry with a
/// fresh [`Collector`] attached. Probe handles are `Rc`-based (not
/// `Send`), so each worker constructs its own collector inside the
/// closure; only plain data crosses the executor boundary.
pub fn run_profile(h: &Harness, id: BenchId, variant: Variant) -> ProfileReport {
    let trace = h.trace(TraceKey::new(id, variant, &h.exp));
    let cells = run_indexed(h.jobs, &PROFILE_CONFIGS, |_, &(config, sp)| {
        let cfg = if sp {
            CpuConfig::with_sp()
        } else {
            CpuConfig::baseline()
        };
        let collector = Collector::shared();
        let sim = match Simulator::new(&trace.events)
            .config(cfg)
            .probe(ProbeHandle::new(collector.clone()))
            .run()
        {
            Ok(r) => r,
            Err(e) => panic!("profile simulation failed: {e}"),
        };
        let c = collector.borrow();
        ProfiledCell {
            config,
            sim,
            summary: c.summary(),
            spans: c.spans().to_vec(),
        }
    });
    ProfileReport {
        id,
        variant,
        exp: h.exp,
        trace_uops: trace.counts.total(),
        cells,
    }
}

impl ProfileReport {
    /// `true` when every configuration's stall attribution matches the
    /// machine's counters exactly.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(ProfiledCell::attribution_coherent)
    }

    /// The human-readable stall table and distribution summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "profile: {} / {} at scale 1/{} (seed {:#x}, {} uops)",
            self.id.name(),
            self.variant,
            self.exp.scale,
            self.exp.seed,
            self.trace_uops
        );
        let _ = writeln!(
            s,
            "{:<9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}  attribution",
            "config", "cycles", "stalls", "fence", "ssb_full", "ckpt_full", "backend"
        );
        for c in &self.cells {
            let st = &c.summary.stalls;
            let _ = writeln!(
                s,
                "{:<9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}  {}",
                c.config,
                c.sim.cpu.cycles,
                c.machine_stall_cycles(),
                st.fence,
                st.ssb_full,
                st.checkpoint_full,
                st.backend,
                if c.attribution_coherent() {
                    "exact"
                } else {
                    "DIVERGED"
                }
            );
        }
        for c in &self.cells {
            let _ = writeln!(s, "{}:", c.config);
            for (name, l) in [
                ("pcommit latency", &c.summary.pcommit_latency),
                ("epoch duration", &c.summary.epoch_duration),
                ("fence episode", &c.summary.fence_episode),
            ] {
                let _ = writeln!(s, "  {:<16} {}", name, latency_text(l));
            }
            for (name, o) in [
                ("ssb occupancy", &c.summary.ssb),
                ("wpq occupancy", &c.summary.wpq),
                ("checkpoints", &c.summary.checkpoints),
            ] {
                let _ = writeln!(
                    s,
                    "  {:<16} mean {:.2}  high {}/{}  ({} transitions)",
                    name, o.mean, o.high_water, o.capacity, o.transitions
                );
            }
            let _ = writeln!(
                s,
                "  epochs {}/{} (begun/committed), rollbacks {}, pcommits {}, spans {} (+{} dropped), misordered {}",
                c.summary.epochs_begun,
                c.summary.epochs_committed,
                c.summary.rollbacks,
                c.summary.pcommits,
                c.spans.len(),
                c.summary.spans_dropped,
                c.summary.dropped_out_of_order
            );
        }
        let _ = writeln!(
            s,
            "profile: {} (stall attribution {} machine counters in {}/{} configs)",
            if self.ok() { "PASS" } else { "FAIL" },
            if self.ok() {
                "matches"
            } else {
                "DIVERGES from"
            },
            self.cells
                .iter()
                .filter(|c| c.attribution_coherent())
                .count(),
            self.cells.len()
        );
        s
    }

    /// One `specpersist/profile-v2` JSON line.
    pub fn render_json(&self) -> String {
        crate::schema::emit(crate::schema::PROFILE, |root| {
            root.str("bench", self.id.abbrev())
                .str("variant", variant_key(self.variant))
                .int("scale", self.exp.scale)
                .int("seed", self.exp.seed)
                .int("uops", self.trace_uops)
                .int("ok", self.ok().into())
                .raw("cells", array(self.cells.iter().map(cell_json)));
        })
    }

    /// The merged Chrome `trace_event` document: one process per
    /// configuration, aligned on the shared cycle axis.
    pub fn chrome_trace(&self) -> String {
        let groups: Vec<(&str, &[TraceSpan])> = self
            .cells
            .iter()
            .map(|c| (c.config, c.spans.as_slice()))
            .collect();
        merge_chrome_traces(&groups)
    }
}

/// Renders an order statistic, or `-` when nothing was observed — an
/// empty distribution is not a distribution of zeros.
fn stat_text(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn latency_text(l: &LatencySummary) -> String {
    if l.count == 0 {
        return "(none)".to_string();
    }
    format!(
        "count {}  mean {:.1}  p50 {}  p95 {}  p99 {}  max {}",
        l.count,
        l.mean,
        stat_text(l.p50),
        stat_text(l.p95),
        stat_text(l.p99),
        stat_text(l.max)
    )
}

fn stat_json(o: &mut JsonObject, key: &str, v: Option<u64>) {
    match v {
        Some(x) => o.int(key, x),
        None => o.raw(key, "null".to_string()),
    };
}

fn latency_json(l: &LatencySummary) -> String {
    let mut o = JsonObject::new();
    o.int("count", l.count).num("mean", l.mean);
    stat_json(&mut o, "p50", l.p50);
    stat_json(&mut o, "p95", l.p95);
    stat_json(&mut o, "p99", l.p99);
    stat_json(&mut o, "max", l.max);
    o.render()
}

fn occupancy_json(o: &OccupancySummary) -> String {
    let mut j = JsonObject::new();
    j.int("transitions", o.transitions)
        .num("mean", o.mean)
        .int("high_water", o.high_water as u64)
        .int("capacity", o.capacity as u64);
    j.render()
}

fn cell_json(c: &ProfiledCell) -> String {
    let st = &c.summary.stalls;
    let mut stalls = JsonObject::new();
    stalls
        .int("fence", st.fence)
        .int("ssb_full", st.ssb_full)
        .int("checkpoint_full", st.checkpoint_full)
        .int("backend", st.backend)
        .int("total", st.total())
        .int("machine_total", c.machine_stall_cycles())
        .int("coherent", c.attribution_coherent().into());
    let mut o = JsonObject::new();
    o.str("config", c.config)
        .int("cycles", c.sim.cpu.cycles)
        .int("committed_uops", c.sim.cpu.committed_uops)
        .raw("stalls", stalls.render())
        .raw("pcommit_latency", latency_json(&c.summary.pcommit_latency))
        .raw("epoch_duration", latency_json(&c.summary.epoch_duration))
        .raw("fence_episode", latency_json(&c.summary.fence_episode))
        .raw("ssb", occupancy_json(&c.summary.ssb))
        .raw("wpq", occupancy_json(&c.summary.wpq))
        .raw("checkpoints", occupancy_json(&c.summary.checkpoints))
        .int("epochs_begun", c.summary.epochs_begun)
        .int("epochs_committed", c.summary.epochs_committed)
        .int("rollbacks", c.summary.rollbacks)
        .int("pcommits", c.summary.pcommits)
        .int("spans", c.spans.len() as u64)
        .int("spans_dropped", c.summary.spans_dropped)
        .int("dropped_out_of_order", c.summary.dropped_out_of_order);
    o.render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn smoke_harness(jobs: usize) -> Harness {
        Harness::new(
            Experiment {
                scale: 2400,
                seed: 7,
            },
            jobs,
        )
    }

    #[test]
    fn attribution_sums_to_machine_stall_cycles() {
        let rep = run_profile(&smoke_harness(2), BenchId::LinkedList, Variant::LogPSf);
        assert_eq!(rep.cells.len(), 2);
        for c in &rep.cells {
            assert!(c.attribution_coherent(), "{}: {:?}", c.config, c.summary);
            assert_eq!(c.summary.stalls.total(), c.machine_stall_cycles());
        }
        assert!(rep.ok());
        // Non-vacuity: a fence-bearing trace stalls the baseline, and
        // SP256 opens epochs the probe must see.
        assert!(
            rep.cells[0].summary.stalls.fence > 0,
            "baseline never stalled"
        );
        assert!(
            rep.cells[1].summary.epochs_begun > 0,
            "sp256 never speculated"
        );
        assert_eq!(
            rep.cells[1].summary.epochs_begun,
            rep.cells[1].sim.cpu.epochs
        );
        assert_eq!(rep.cells[1].summary.pcommits, rep.cells[1].sim.cpu.pcommits);
    }

    #[test]
    fn report_is_identical_at_any_job_count() {
        let a = run_profile(&smoke_harness(1), BenchId::BTree, Variant::LogPSf);
        let b = run_profile(&smoke_harness(8), BenchId::BTree, Variant::LogPSf);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.chrome_trace(), b.chrome_trace());
    }

    #[test]
    fn json_line_carries_the_profile_schema() {
        let rep = run_profile(&smoke_harness(2), BenchId::HashMap, Variant::LogPSf);
        let j = rep.render_json();
        let v = crate::json::parse(&j).expect("must parse");
        assert_eq!(
            v.get("schema").and_then(crate::json::Value::as_str),
            Some(crate::schema::PROFILE)
        );
        assert_eq!(
            v.get("bench").and_then(crate::json::Value::as_str),
            Some("HM")
        );
        assert_eq!(v.get("ok").and_then(crate::json::Value::as_u64), Some(1));
        let cells = v
            .get("cells")
            .and_then(crate::json::Value::as_arr)
            .expect("cells");
        assert_eq!(cells.len(), 2);
        for c in cells {
            let st = c.get("stalls").expect("stalls");
            assert_eq!(
                st.get("total").and_then(crate::json::Value::as_u64),
                st.get("machine_total").and_then(crate::json::Value::as_u64)
            );
        }
    }

    #[test]
    fn chrome_trace_is_loadable_and_two_process() {
        let rep = run_profile(&smoke_harness(2), BenchId::LinkedList, Variant::LogPSf);
        let t = rep.chrome_trace();
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.ends_with("]}"));
        assert!(t.contains("\"args\":{\"name\":\"baseline\"}"));
        assert!(t.contains("\"args\":{\"name\":\"sp256\"}"));
        assert!(t.contains("\"pid\":1") && t.contains("\"pid\":2"));
        // Loadable = parseable JSON with the trace_event envelope.
        let v = crate::json::parse(&t).expect("trace must parse");
        assert!(v
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn text_report_names_every_section() {
        let rep = run_profile(&smoke_harness(2), BenchId::LinkedList, Variant::LogPSf);
        let t = rep.render_text();
        for key in [
            "profile: Linked-List",
            "baseline",
            "sp256",
            "pcommit latency",
            "fence episode",
            "ssb occupancy",
            "profile: PASS",
        ] {
            assert!(t.contains(key), "missing {key:?} in:\n{t}");
        }
    }
}
