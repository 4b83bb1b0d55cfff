//! The three benchmark workloads. Each one calls the repository's public
//! entry points, wraps every layer call in a span, checks the outputs,
//! and returns what a child process reports.

use std::collections::BTreeMap;

use spp_bench::source::{StreamingKvSource, TraceSource};
use spp_bench::stream::KvStreamSpec;
use spp_bench::{geomean_overhead, run_indexed, Experiment, TraceCache, TraceKey};
use spp_cpu::{CpuConfig, SimResult, Simulator, SpConfig};
use spp_pmem::{persist_boundaries, splitmix64, Event, FlushMode, Variant};
use spp_workloads::kv::{record_kv_bundle, KvBundleSpec, KvMix, KvSpec};
use spp_workloads::{record_trace, BenchId, BenchSpec, TraceSpec};

use crate::clock::process_cpu_s;
use crate::spans::{SpanId, Spans};

/// What a workload run needs from its caller.
pub struct Ctx<'a> {
    pub seed: u64,
    pub jobs: usize,
    pub spans: &'a Spans,
    pub root: SpanId,
}

/// Correctness checks: every one attempted, and the failures.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `failure` describes it if it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }
}

/// One simulator replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// 1-based index into `BenchId::ALL`, 0 for a KV trace.
    pub bench: u32,
    pub sp: bool,
    pub events: u64,
    pub result: SimResult,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// CPU seconds before the first measured replay or check.
    pub setup_s: f64,
    pub checks: Checks,
    /// Successful replays, in canonical (input) order.
    pub replays: Vec<Replay>,
    /// Per-layer counts that are not span times.
    pub counts: BTreeMap<&'static str, f64>,
    /// `(fence_overhead_pct, sp_residual_pct)` on the paper grid.
    pub headline: Option<(f64, f64)>,
}

/// The span tag of a Table 1 benchmark: its 1-based Table 1 position.
pub fn bench_tag(id: BenchId) -> u32 {
    BenchId::ALL
        .iter()
        .position(|&b| b == id)
        .map_or(0, |i| i as u32 + 1)
}

/// Replays `events` on `cpu` inside a `cpu.replay_*` span.
fn replay(
    ctx: &Ctx<'_>,
    parent: SpanId,
    bench: u32,
    events: &[Event],
    cpu: CpuConfig,
) -> Result<Replay, String> {
    let sp = cpu.sp.is_some();
    let name = if sp {
        "cpu.replay_sp"
    } else {
        "cpu.replay_baseline"
    };
    let _s = ctx.spans.enter(name, parent, bench);
    let result = Simulator::new(events)
        .config(cpu)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(Replay {
        bench,
        sp,
        events: events.len() as u64,
        result,
    })
}

/// Keeps an `Ok` replay; every replay counts as one check.
fn keep(out: &mut Outcome, what: &str, r: Result<Replay, String>) -> Option<Replay> {
    let r = r.map_err(|e| format!("{what}: simulation failed: {e}"));
    out.checks.check(r.as_ref().err().cloned());
    let r = r.ok()?;
    out.replays.push(r);
    Some(r)
}

/// Checks that an SP replay committed what the baseline replay of the
/// same trace committed.
fn check_same_uops(out: &mut Outcome, what: &str, base: &Replay, sp: &Replay) {
    let (b, s) = (base.result.cpu.committed_uops, sp.result.cpu.committed_uops);
    out.checks
        .check((b != s).then(|| format!("{what}: SP committed {s} uops, baseline {b}")));
}

/// Checks that SP256 took no more cycles than the baseline core on the
/// same `Log+P+Sf` trace.
fn check_sp_not_slower(out: &mut Outcome, what: &str, base: &Replay, sp: &Replay) {
    let (b, s) = (base.result.cpu.cycles, sp.result.cpu.cycles);
    out.checks.check(
        (s > b).then(|| format!("{what}: SP256 took {s} cycles, more than the baseline's {b}")),
    );
}

const VARIANTS: [Variant; 4] = [Variant::Base, Variant::Log, Variant::LogP, Variant::LogPSf];

/// Table 1 × the four build variants on the baseline core, `Log+P+Sf`
/// on SP256, and the Fig. 13 SSB sweep, with traces held in a
/// [`TraceCache`].
pub fn paper_grid(ctx: &Ctx<'_>, scale: u64) -> Outcome {
    let mut out = Outcome::default();
    let exp = Experiment {
        scale,
        seed: ctx.seed,
    };
    let cache = TraceCache::new();
    let started = process_cpu_s();
    {
        let setup = ctx.spans.enter("stage.setup", ctx.root, 0);
        // A zero-op recording runs only the population, which primes
        // the workloads crate's setup cache for the four real
        // recordings of each benchmark.
        let init_ops = run_indexed(ctx.jobs, &BenchId::ALL, |_, &id| {
            let spec = BenchSpec {
                sim_ops: 0,
                ..BenchSpec::scaled(id, scale)
            };
            let _s = ctx
                .spans
                .enter("workloads.populate", setup.id(), bench_tag(id));
            record_trace(&TraceSpec::new(Variant::Base, spec, ctx.seed));
            spec.init_ops
        });
        let keys: Vec<TraceKey> = BenchId::ALL
            .iter()
            .flat_map(|&id| VARIANTS.map(|v| TraceKey::new(id, v, &exp)))
            .collect();
        let events = run_indexed(ctx.jobs, &keys, |_, &k| {
            let _s = ctx
                .spans
                .enter("workloads.record", setup.id(), bench_tag(k.id));
            cache.get(k).events.len() as u64
        });
        out.counts.insert(
            "workloads.populate_ops",
            init_ops.iter().sum::<u64>() as f64,
        );
        out.counts
            .insert("workloads.record_events", events.iter().sum::<u64>() as f64);
    }
    out.setup_s = process_cpu_s() - started;

    // Per benchmark: the four variants on the baseline core, then the
    // Log+P+Sf trace on SP256 and on every Table 3 SSB size.
    const LOGP: usize = 2;
    const LOGPSF: usize = 3;
    const SP256: usize = 4;
    let mut cpus: Vec<(Variant, CpuConfig)> = VARIANTS
        .iter()
        .map(|&v| (v, CpuConfig::baseline()))
        .collect();
    cpus.push((Variant::LogPSf, CpuConfig::with_sp()));
    for &(entries, _) in &spp_core::SSB_DESIGN_POINTS {
        let cpu = CpuConfig {
            sp: Some(SpConfig::with_ssb_entries(entries)),
            ..CpuConfig::baseline()
        };
        cpus.push((Variant::LogPSf, cpu));
    }
    let cells: Vec<(BenchId, Variant, CpuConfig)> = BenchId::ALL
        .iter()
        .flat_map(|&id| cpus.iter().map(move |&(v, cpu)| (id, v, cpu)))
        .collect();
    let results = {
        let measure = ctx.spans.enter("stage.measure", ctx.root, 0);
        run_indexed(ctx.jobs, &cells, |_, &(id, v, cpu)| {
            let trace = {
                let _s = ctx.spans.enter("cache.get", measure.id(), bench_tag(id));
                cache.get(TraceKey::new(id, v, &exp))
            };
            replay(ctx, measure.id(), bench_tag(id), &trace.events, cpu)
        })
    };

    let mut fence = Vec::new();
    let mut residual = Vec::new();
    for (id, row) in BenchId::ALL.iter().zip(results.chunks_exact(cpus.len())) {
        let row: Vec<Option<Replay>> = row
            .iter()
            .zip(&cpus)
            .map(|(r, (v, cpu))| {
                let what = format!("{id}/{v:?}/sp={}", cpu.sp.is_some());
                keep(&mut out, &what, r.clone())
            })
            .collect();
        let (Some(logp), Some(logpsf)) = (row[LOGP], row[LOGPSF]) else {
            continue;
        };
        for sp in row[SP256..].iter().flatten() {
            check_same_uops(&mut out, &format!("{id}/LogPSf"), &logpsf, sp);
        }
        if let Some(sp256) = row[SP256] {
            check_sp_not_slower(&mut out, &id.to_string(), &logpsf, &sp256);
            let logp_cycles = logp.result.cpu.cycles as f64;
            fence.push(logpsf.result.cpu.cycles as f64 / logp_cycles - 1.0);
            residual.push(sp256.result.cpu.cycles as f64 / logp_cycles - 1.0);
        }
    }
    out.headline = Some((
        geomean_overhead(fence) * 100.0,
        geomean_overhead(residual) * 100.0,
    ));
    let stats = cache.stats();
    out.counts
        .insert("cache.recordings", stats.recordings as f64);
    out.counts.insert("cache.hits", stats.hits as f64);
    out.counts.insert("cache.bytes", stats.bytes as f64);
    out.counts
        .insert("workloads.trace_bytes", stats.bytes as f64);
    out
}

/// Sizing of the KV workloads.
#[derive(Debug, Clone, Copy)]
pub struct KvSize {
    pub init_keys: u64,
    pub ops: u64,
}

fn kv_spec(size: KvSize, seed: u64, mix: KvMix) -> KvSpec {
    KvSpec {
        init_keys: size.init_keys,
        ops: size.ops,
        ckpt_every: 8,
        wal_cap: 16,
        seed,
        mix,
    }
}

/// Crash-injection seeds per persist boundary.
pub const CRASH_SEEDS: u64 = 2;

/// Records `bundles` `Log+P+Sf` KV bundles under the mixed profile,
/// each from its own seed derived from the run's; replays each on the
/// baseline core and on SP256; then crashes every bundle at every
/// persist boundary under [`CRASH_SEEDS`] writeback schedules and
/// recovers. Many small bundles make the run's total work nearly
/// independent of the seed: one bundle's boundary count, and with it
/// its quadratic crash cost, varies widely from seed to seed.
pub fn kv_crash(ctx: &Ctx<'_>, size: KvSize, bundles: u64) -> Outcome {
    let mut out = Outcome::default();
    let specs: Vec<KvBundleSpec> = (0..bundles)
        .map(|k| KvBundleSpec {
            variant: Variant::LogPSf,
            flush_mode: FlushMode::default(),
            spec: kv_spec(
                size,
                splitmix64(ctx.seed ^ k.wrapping_mul(0x9E37_79B9)),
                KvMix::MIXED,
            ),
            elide_checksum: false,
        })
        .collect();
    let started = process_cpu_s();
    let recorded = {
        let setup = ctx.spans.enter("stage.setup", ctx.root, 0);
        run_indexed(ctx.jobs, &specs, |_, b| {
            let _s = ctx.spans.enter("workloads.record", setup.id(), 0);
            record_kv_bundle(b)
        })
    };
    out.setup_s = process_cpu_s() - started;
    let events: u64 = recorded.iter().map(|b| b.events().len() as u64).sum();
    out.counts.insert("workloads.record_events", events as f64);
    out.counts.insert(
        "workloads.trace_bytes",
        (events as usize * std::mem::size_of::<Event>()) as f64,
    );

    let measure = ctx.spans.enter("stage.measure", ctx.root, 0);
    let cells: Vec<(usize, CpuConfig)> = (0..recorded.len())
        .flat_map(|b| [(b, CpuConfig::baseline()), (b, CpuConfig::with_sp())])
        .collect();
    let replays = run_indexed(ctx.jobs, &cells, |_, &(b, cpu)| {
        replay(ctx, measure.id(), 0, recorded[b].events(), cpu)
    });
    for (b, pair) in replays.chunks_exact(2).enumerate() {
        let what = format!("kv bundle {b}");
        let base = keep(&mut out, &what, pair[0].clone());
        let sp = keep(&mut out, &what, pair[1].clone());
        if let (Some(base), Some(sp)) = (base, sp) {
            check_same_uops(&mut out, &what, &base, &sp);
            check_sp_not_slower(&mut out, &what, &base, &sp);
        }
    }

    let boundaries: Vec<Vec<usize>> = recorded
        .iter()
        .map(|b| {
            let _s = ctx.spans.enter("crash.boundaries", measure.id(), 0);
            persist_boundaries(b.events())
        })
        .collect();
    let schedules: Vec<(usize, usize, u64)> = boundaries
        .iter()
        .enumerate()
        .flat_map(|(b, points)| {
            points.iter().flat_map(move |&at| {
                (0..CRASH_SEEDS).map(move |k| (b, at, splitmix64(ctx.seed ^ k)))
            })
        })
        .collect();
    let verdicts = run_indexed(ctx.jobs, &schedules, |_, &(b, at, seed)| {
        let _s = ctx.spans.enter("crash.check", measure.id(), 0);
        recorded[b].check_crash(at, seed)
    });
    let mut violations = 0u64;
    for (&(b, at, seed), v) in schedules.iter().zip(verdicts) {
        violations += u64::from(v.is_err());
        out.checks.check(
            v.err()
                .map(|e| format!("bundle {b} crashed at {at} (seed {seed:#x}): {e}")),
        );
    }
    let n_boundaries: usize = boundaries.iter().map(Vec::len).sum();
    out.counts.insert("crash.boundaries", n_boundaries as f64);
    out.counts.insert("crash.checks", schedules.len() as f64);
    out.counts.insert("crash.violations", violations as f64);
    out.counts.insert("kv.ops", (bundles * size.ops) as f64);
    out
}

/// Driver ops per streamed chunk: `repro kv`'s pin, which keeps each
/// chunk cache-sized.
pub const STREAM_CHUNK_OPS: u64 = 256;

/// Streams an update-heavy KV run through the chunked recorder and
/// replays every chunk on SP256 as it arrives.
pub fn kv_stream(ctx: &Ctx<'_>, size: KvSize) -> Outcome {
    let mut out = Outcome::default();
    let sspec = KvStreamSpec {
        chunk_ops: STREAM_CHUNK_OPS,
        ..KvStreamSpec::new(
            kv_spec(size, ctx.seed, KvMix::UPDATE_HEAVY),
            Variant::LogPSf,
        )
    };
    let started = process_cpu_s();
    let mut src = StreamingKvSource::record(sspec);
    let mut next_chunk = |parent: SpanId| {
        let _s = ctx.spans.enter("stream.wait", parent, 0);
        src.next_chunk()
            .map(|c| c.map(std::borrow::Cow::into_owned))
    };
    let mut next = {
        let setup = ctx.spans.enter("stage.setup", ctx.root, 0);
        next_chunk(setup.id())
    };
    out.setup_s = process_cpu_s() - started;

    let (mut chunks, mut events) = (0u64, 0u64);
    {
        let measure = ctx.spans.enter("stage.measure", ctx.root, 0);
        loop {
            match next {
                Ok(Some(chunk)) => {
                    chunks += 1;
                    events += chunk.len() as u64;
                    let r = replay(ctx, measure.id(), 0, &chunk, CpuConfig::with_sp());
                    keep(&mut out, &format!("chunk {chunks}"), r);
                }
                Ok(None) => break,
                Err(e) => {
                    out.checks.check(Some(format!("stream: {e}")));
                    break;
                }
            }
            next = next_chunk(measure.id());
        }
    }
    let ops = src.stats().map_or(0, |s| s.ops);
    out.checks.check(
        (ops != size.ops)
            .then(|| format!("stream: recorded {ops} ops, the spec asks for {}", size.ops)),
    );
    let peak_bound = src.peak_bound();
    let gauge = src.gauge();
    // Dropping the source joins the recorder, so the gauge peak is final.
    drop(src);
    out.counts.insert("stream.chunks", chunks as f64);
    out.counts.insert("stream.events", events as f64);
    out.counts.insert("stream.peak_bound", peak_bound as f64);
    out.counts.insert("stream.peak_bytes", gauge.peak() as f64);
    out.counts.insert("workloads.record_events", events as f64);
    out.counts.insert(
        "workloads.trace_bytes",
        (events as usize * std::mem::size_of::<Event>()) as f64,
    );
    out.counts.insert("kv.ops", ops as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::sim_digest;

    fn digest_at(jobs: usize, run: impl Fn(&Ctx<'_>) -> Outcome) -> u64 {
        let spans = Spans::new(jobs > 1, 1);
        let ctx = Ctx {
            seed: 7,
            jobs,
            spans: &spans,
            root: 0,
        };
        let out = run(&ctx);
        assert!(out.checks.attempted > 0);
        assert_eq!(out.checks.failures, Vec::<String>::new());
        sim_digest(&out)
    }

    /// The digest is the same on every repeat, at one worker and at
    /// two, and traced or not.
    fn assert_stable(run: impl Fn(&Ctx<'_>) -> Outcome + Copy) {
        let one = digest_at(1, run);
        assert_eq!(one, digest_at(1, run), "repeat");
        assert_eq!(one, digest_at(2, run), "1 vs 2 workers");
    }

    #[test]
    fn paper_grid_digest_is_stable() {
        assert_stable(|ctx| paper_grid(ctx, 5000));
    }

    #[test]
    fn kv_crash_digest_is_stable() {
        let size = KvSize {
            init_keys: 32,
            ops: 60,
        };
        assert_stable(|ctx| kv_crash(ctx, size, 3));
    }

    #[test]
    fn kv_stream_digest_is_stable() {
        let size = KvSize {
            init_keys: 32,
            ops: 9000,
        };
        assert_stable(|ctx| kv_stream(ctx, size));
    }

    #[test]
    fn digest_sees_a_changed_seed() {
        let size = KvSize {
            init_keys: 32,
            ops: 60,
        };
        let spans = Spans::new(false, 1);
        let at = |seed| {
            let ctx = Ctx {
                seed,
                jobs: 1,
                spans: &spans,
                root: 0,
            };
            sim_digest(&kv_crash(&ctx, size, 2))
        };
        assert_ne!(at(1), at(2));
    }
}
