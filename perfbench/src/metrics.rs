//! Metric names, units and directions, and the reduction of one child
//! run (its outcome and spans) to those metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{self_times, SpanRec};
use crate::stats::{median, percentile};
use crate::workloads::Outcome;

/// A metric's name, unit and better direction (`true` = higher).
pub type MetricDef = (&'static str, &'static str, bool);

/// End-to-end metrics, reported by untraced runs on every workload.
/// The times are process CPU time, which a busy shared host inflates
/// far less than wall time; wall time is a per-layer metric.
pub const END_TO_END: [MetricDef; 4] = [
    ("cpu_s", "s", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MB", false),
    ("sim_uops_per_cpu_s", "1/s", true),
];

/// Per-bench replay rates, in `BenchId::ALL` order.
pub const BENCH_RATES: [&str; 7] = [
    "cpu.events_per_s.GH",
    "cpu.events_per_s.HM",
    "cpu.events_per_s.LL",
    "cpu.events_per_s.SS",
    "cpu.events_per_s.AT",
    "cpu.events_per_s.BT",
    "cpu.events_per_s.RT",
];

/// Per-layer metrics, reported by traced runs on every workload; a
/// layer a workload bypasses reads 0 there.
pub const PER_LAYER: [MetricDef; 68] = [
    ("wall_s", "s", false),
    ("sim_uops_per_s", "1/s", true),
    ("workloads.populate_s", "s", false),
    ("workloads.populate_ns_per_op", "ns/op", false),
    ("workloads.record_s", "s", false),
    ("workloads.record_events", "count", false),
    ("workloads.record_events_per_s", "1/s", true),
    ("workloads.trace_bytes", "bytes", false),
    ("cache.recordings", "count", false),
    ("cache.hits", "count", true),
    ("cache.hit_ratio", "ratio", true),
    ("cache.bytes", "bytes", false),
    ("cpu.replay_s", "s", false),
    ("cpu.replay_baseline_s", "s", false),
    ("cpu.replay_sp_s", "s", false),
    ("cpu.sims", "count", false),
    ("cpu.events", "count", false),
    ("cpu.events_per_s", "1/s", true),
    ("cpu.uops_per_s", "1/s", true),
    ("cpu.events_per_s.GH", "1/s", true),
    ("cpu.events_per_s.HM", "1/s", true),
    ("cpu.events_per_s.LL", "1/s", true),
    ("cpu.events_per_s.SS", "1/s", true),
    ("cpu.events_per_s.AT", "1/s", true),
    ("cpu.events_per_s.BT", "1/s", true),
    ("cpu.events_per_s.RT", "1/s", true),
    ("cpu.sim_cycles", "cycles", false),
    ("cpu.committed_uops", "count", false),
    ("cpu.fence_stall_cycles", "cycles", false),
    ("cpu.fetch_stall_cycles", "cycles", false),
    ("cpu.ssb_full_stall_cycles", "cycles", false),
    ("cpu.checkpoint_stall_cycles", "cycles", false),
    ("cpu.rollbacks", "count", false),
    ("cpu.squashed_uops", "count", false),
    ("mem.hits_l1", "count", true),
    ("mem.hits_l2", "count", true),
    ("mem.hits_l3", "count", true),
    ("mem.mem_accesses", "count", false),
    ("mem.nvmm_reads", "count", false),
    ("mem.nvmm_writes", "count", false),
    ("mem.wpq_stall_cycles", "cycles", false),
    ("mem.pcommit_latency_total", "cycles", false),
    ("core.ssb_inserts", "count", false),
    ("core.ssb_full_rejections", "count", false),
    ("core.bloom_queries", "count", false),
    ("core.bloom_false_positives", "count", false),
    ("core.checkpoints_taken", "count", false),
    ("core.checkpoint_exhaustions", "count", false),
    ("core.blt_conflicts", "count", false),
    ("crash.boundaries", "count", false),
    ("crash.boundaries_s", "s", false),
    ("crash.checks", "count", false),
    ("crash.check_s", "s", false),
    ("crash.check_p50_ms", "ms", false),
    ("crash.check_p99_ms", "ms", false),
    ("crash.violations", "count", false),
    ("stream.chunks", "count", false),
    ("stream.events", "count", false),
    ("stream.wait_s", "s", false),
    ("stream.replay_s", "s", false),
    ("stream.peak_bytes", "bytes", false),
    ("stream.peak_bound", "bytes", false),
    ("bench.trace_overhead_pct", "%", false),
    ("bench.accounted_pct", "%", true),
    ("fence_overhead_pct", "%", false),
    ("sp_residual_pct", "%", false),
    ("crash_images_per_s", "1/s", true),
    ("kv_ops_per_s", "1/s", true),
];

/// The paper's headline figures (ISCA'17 §6): fences add 20.3% over
/// `Log+P`, and SP brings that to 3.6%.
pub const PAPER_FENCE_OVERHEAD_PCT: f64 = 20.3;
pub const PAPER_SP_RESIDUAL_PCT: f64 = 3.6;

/// Counts that are pure functions of the inputs: with the simulated
/// results they make up the run's `sim_digest`.
const DETERMINISTIC_COUNTS: [&str; 9] = [
    "workloads.record_events",
    "cache.recordings",
    "cache.bytes",
    "crash.boundaries",
    "crash.checks",
    "crash.violations",
    "stream.chunks",
    "stream.events",
    "stream.peak_bound",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over every simulated field of every replay, in canonical
/// order, and the deterministic counts.
pub fn sim_digest(out: &Outcome) -> u64 {
    let mut text = String::new();
    for r in &out.replays {
        let _ = write!(text, "{} {} {} {:?};", r.bench, r.sp, r.events, r.result);
    }
    for k in DETERMINISTIC_COUNTS {
        let _ = write!(text, "{k}={};", out.counts.get(k).copied().unwrap_or(0.0));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Simulated counters summed over every replay of the run.
fn sim_counters(out: &Outcome, m: &mut BTreeMap<&'static str, f64>) {
    let mut add = |k: &'static str, v: u64| *m.entry(k).or_default() += v as f64;
    for r in &out.replays {
        let s = &r.result;
        add("cpu.sim_cycles", s.cpu.cycles);
        add("cpu.committed_uops", s.cpu.committed_uops);
        add("cpu.fence_stall_cycles", s.cpu.fence_stall_cycles);
        add("cpu.fetch_stall_cycles", s.cpu.fetch_stall_cycles);
        add("cpu.ssb_full_stall_cycles", s.cpu.ssb_full_stall_cycles);
        add("cpu.checkpoint_stall_cycles", s.cpu.checkpoint_stall_cycles);
        add("cpu.rollbacks", s.cpu.rollbacks);
        add("cpu.squashed_uops", s.cpu.squashed_uops);
        add("mem.hits_l1", s.mem.hits_l1);
        add("mem.hits_l2", s.mem.hits_l2);
        add("mem.hits_l3", s.mem.hits_l3);
        add("mem.mem_accesses", s.mem.mem_accesses);
        add("mem.nvmm_reads", s.mc.nvmm_reads);
        add("mem.nvmm_writes", s.mc.nvmm_writes);
        add("mem.wpq_stall_cycles", s.mc.wpq_stall_cycles);
        add("mem.pcommit_latency_total", s.mc.pcommit_latency_total);
        add("core.ssb_inserts", s.ssb.inserts);
        add("core.ssb_full_rejections", s.ssb.full_rejections);
        add("core.bloom_queries", s.bloom.queries);
        add("core.bloom_false_positives", s.bloom.false_positives);
        add("core.checkpoints_taken", s.checkpoints.taken);
        add("core.checkpoint_exhaustions", s.checkpoints.exhaustions);
        add("core.blt_conflicts", s.blt.conflicts);
        add("cpu.events", r.events);
    }
}

/// Every metric one child run reports. Span-derived times are 0 when
/// the run was not traced; `bench.trace_overhead_pct` and `fail_ratio`
/// are filled in by the parent, which sees every repetition.
pub fn run_metrics(
    out: &Outcome,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    threads: usize,
    spans: &[SpanRec],
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.0, 0.0)).collect();
    for (k, v) in &out.counts {
        if m.contains_key(k) {
            m.insert(*k, *v);
        }
    }
    sim_counters(out, &mut m);
    let uops = m["cpu.committed_uops"];
    m.insert("cpu_s", cpu_s);
    m.insert("wall_s", wall_s);
    m.insert("setup_s", out.setup_s);
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("sim_uops_per_cpu_s", ratio(uops, cpu_s));
    m.insert("sim_uops_per_s", ratio(uops, wall_s));
    m.insert("cpu.sims", out.replays.len() as f64);

    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Indexed by span tag: 0 for KV traces, then Table 1 order.
    let mut replay_by_bench = [0.0f64; BENCH_RATES.len() + 1];
    let mut checks_ms = Vec::new();
    let mut total_self = 0.0;
    for (r, ns) in self_times(spans) {
        let s = ns as f64 * 1e-9;
        total_self += s;
        *by_name.entry(r.name).or_default() += s;
        if r.name.starts_with("cpu.replay") {
            replay_by_bench[r.tag as usize] += s;
        }
        if r.name == "crash.check" {
            checks_ms.push(r.dur_ns() as f64 * 1e-6);
        }
    }
    let t = |n: &str| by_name.get(n).copied().unwrap_or(0.0);
    let replay_s = t("cpu.replay_baseline") + t("cpu.replay_sp");
    m.insert("workloads.populate_s", t("workloads.populate"));
    m.insert("workloads.record_s", t("workloads.record"));
    m.insert("cpu.replay_baseline_s", t("cpu.replay_baseline"));
    m.insert("cpu.replay_sp_s", t("cpu.replay_sp"));
    m.insert("cpu.replay_s", replay_s);
    m.insert("crash.boundaries_s", t("crash.boundaries"));
    m.insert("crash.check_s", t("crash.check"));
    m.insert("stream.wait_s", t("stream.wait"));
    if m["stream.chunks"] > 0.0 {
        m.insert("stream.replay_s", replay_s);
    }
    let populate_ops = out
        .counts
        .get("workloads.populate_ops")
        .copied()
        .unwrap_or(0.0);
    m.insert(
        "workloads.populate_ns_per_op",
        ratio(t("workloads.populate") * 1e9, populate_ops),
    );
    m.insert(
        "workloads.record_events_per_s",
        ratio(m["workloads.record_events"], t("workloads.record")),
    );
    m.insert(
        "cache.hit_ratio",
        ratio(m["cache.hits"], m["cache.hits"] + m["cache.recordings"]),
    );
    m.insert("cpu.events_per_s", ratio(m["cpu.events"], replay_s));
    m.insert("cpu.uops_per_s", ratio(uops, replay_s));
    let mut events_by_bench = [0.0f64; BENCH_RATES.len() + 1];
    for r in &out.replays {
        events_by_bench[r.bench as usize] += r.events as f64;
    }
    for (i, name) in BENCH_RATES.iter().enumerate() {
        m.insert(name, ratio(events_by_bench[i + 1], replay_by_bench[i + 1]));
    }
    checks_ms.sort_by(f64::total_cmp);
    m.insert(
        "crash.check_p50_ms",
        percentile(&checks_ms, 50.0).unwrap_or(0.0),
    );
    m.insert(
        "crash.check_p99_ms",
        percentile(&checks_ms, 99.0).unwrap_or(0.0),
    );
    if !spans.is_empty() {
        m.insert(
            "bench.accounted_pct",
            100.0 * ratio(total_self, wall_s * threads as f64),
        );
    }
    if let Some((fence, residual)) = out.headline {
        m.insert("fence_overhead_pct", fence);
        m.insert("sp_residual_pct", residual);
    }
    m.insert("crash_images_per_s", ratio(m["crash.checks"], wall_s));
    m.insert(
        "kv_ops_per_s",
        ratio(out.counts.get("kv.ops").copied().unwrap_or(0.0), wall_s),
    );
    m
}

/// Per-metric medians over several runs' metric maps.
pub fn medians(runs: &[&BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = runs.iter().flat_map(|r| r.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = runs.iter().filter_map(|r| r.get(k).copied()).collect();
            (k.clone(), median(&vals))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_workloads::BenchId;

    #[test]
    fn per_layer_names_are_unique_and_cover_bench_rates() {
        let mut names: Vec<&str> = PER_LAYER.iter().chain(&END_TO_END).map(|d| d.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for r in BENCH_RATES {
            assert!(PER_LAYER.iter().any(|d| d.0 == r), "{r} missing");
        }
        for (id, name) in BenchId::ALL.iter().zip(BENCH_RATES) {
            assert!(name.ends_with(id.abbrev()), "{name} is not {id}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit_and_direction() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit, higher) in END_TO_END.iter().chain(&PER_LAYER) {
            let better = if *higher { "higher" } else { "lower" };
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
    }

    #[test]
    fn medians_take_each_key_across_runs() {
        let a: BTreeMap<String, f64> = [("x".to_string(), 1.0), ("y".to_string(), 5.0)].into();
        let b: BTreeMap<String, f64> = [("x".to_string(), 3.0)].into();
        let c: BTreeMap<String, f64> = [("x".to_string(), 2.0), ("y".to_string(), 7.0)].into();
        let m = medians(&[&a, &b, &c]);
        assert_eq!(m["x"], 2.0);
        assert_eq!(m["y"], 6.0);
    }
}
