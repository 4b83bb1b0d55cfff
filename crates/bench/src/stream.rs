//! Streaming (chunked) trace recording and simulation.
//!
//! The whole-trace path (`record -> Vec<Event> -> simulate`) holds the
//! entire event stream in memory, so a 10M-op KV run would cost tens of
//! gigabytes. This module pipelines instead: a recorder thread runs the
//! KV workload and hands the trace over in fixed-size *chunks* through
//! a bounded queue; the simulator drains chunks as they arrive and
//! frees each one after replay. Peak memory is then a function of
//! `chunk_ops x queue depth`, **independent of trace length** — proven
//! by the [`spp_obs::MemGauge`] the pipeline threads through and by the
//! flat-memory test below.
//!
//! Backpressure: the queue is a `sync_channel` of `QUEUE_DEPTH` (2)
//! chunks, so a recorder that outruns the simulator blocks instead of
//! buffering unboundedly.
//!
//! Fidelity note: each chunk replays on a fresh pipeline, so a chunk
//! boundary acts as a full pipeline drain. That is a deliberate,
//! documented approximation — with `chunk_ops` pinned per study the
//! numbers are deterministic and comparable across configurations, and
//! the boundary cost is amortized over thousands of events per chunk.

use std::fmt;
use std::sync::mpsc;

use spp_cpu::{CpuConfig, Simulator};
use spp_obs::MemGauge;
use spp_pmem::{Event, PmemEnv, Variant};
use spp_workloads::kv::{KvSpec, KvWorkload};

/// Driver ops per chunk unless a spec overrides it (a pinned study
/// parameter: chunk boundaries drain the pipeline, so comparing runs
/// requires the same chunking).
pub const STREAM_CHUNK_OPS: u64 = 256;

/// Chunks in flight between the recorder and the simulator.
pub(crate) const QUEUE_DEPTH: usize = 2;

/// In-memory footprint the pipeline accounts for one chunk of events.
pub fn chunk_bytes(events: &[Event]) -> u64 {
    std::mem::size_of_val(events) as u64
}

/// Why a streamed run could not complete. Every variant renders as one
/// line and maps to a non-zero `repro` exit — never a panic or abort.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StreamError {
    /// A chunk's simulation degraded to a typed simulator error.
    Sim(String),
    /// The recorder thread died without sending its final summary.
    RecorderDied,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Sim(e) => write!(f, "chunk simulation: {e}"),
            StreamError::RecorderDied => f.write_str("recorder thread died mid-stream"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One streamed run's configuration.
#[derive(Debug, Clone)]
pub struct KvStreamSpec {
    /// Driver sizing (`ops` may be millions; that is the point).
    pub spec: KvSpec,
    /// Build variant to trace.
    pub variant: Variant,
    /// Driver operations per chunk.
    pub chunk_ops: u64,
}

impl KvStreamSpec {
    /// A streamed run of `spec` with the default chunking
    /// ([`STREAM_CHUNK_OPS`] ops per chunk).
    pub fn new(spec: KvSpec, variant: Variant) -> Self {
        KvStreamSpec {
            spec,
            variant,
            chunk_ops: STREAM_CHUNK_OPS,
        }
    }
}

/// What a completed streamed run measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Driver ops executed.
    pub ops: u64,
    /// Chunks simulated.
    pub chunks: u64,
    /// Events across all chunks.
    pub events: u64,
    /// Summed simulated cycles (per-chunk fresh pipeline; see the
    /// module docs for the boundary approximation).
    pub cycles: u64,
    /// Summed committed micro-ops.
    pub committed_uops: u64,
    /// Peak bytes of trace chunks held in memory at once, as measured
    /// by the gauge. Timing-dependent (how many chunks coexist depends
    /// on thread scheduling) — never let it reach stdout; use
    /// [`StreamReport::peak_bound`] for deterministic output.
    pub peak_bytes: u64,
    /// Deterministic upper bound on `peak_bytes`: the largest sum of
    /// any `QUEUE_DEPTH + 2` consecutive chunks (the queue, the chunk
    /// being simulated, and the chunk the recorder holds pre-send). A
    /// pure function of the spec, so it is the value reports and
    /// goldens carry.
    pub peak_bound: u64,
    /// Live keys in the engine when the run finished.
    pub final_count: u64,
    /// WAL records appended over the whole run.
    pub mutations: u64,
}

/// Sliding-window tracker for [`StreamReport::peak_bound`]: chunks are
/// produced and consumed in recording order, so every set of
/// simultaneously-held chunks is a window of at most `QUEUE_DEPTH + 2`
/// consecutive ones.
#[derive(Debug, Default)]
pub(crate) struct PeakBound {
    win: std::collections::VecDeque<u64>,
    sum: u64,
    max: u64,
}

impl PeakBound {
    pub(crate) fn push(&mut self, bytes: u64) {
        self.win.push_back(bytes);
        self.sum += bytes;
        if self.win.len() > QUEUE_DEPTH + 2 {
            self.sum -= self.win.pop_front().unwrap_or(0);
        }
        self.max = self.max.max(self.sum);
    }

    /// The largest window sum seen so far.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }
}

/// What the recorder sends per chunk.
pub(crate) enum ChunkMsg {
    /// One chunk of events, already gauged in.
    Events(Vec<Event>),
    /// Recording finished; final driver facts.
    Done {
        ops: u64,
        final_count: u64,
        mutations: u64,
    },
}

/// The recorder half of the chunked pipeline: runs the KV workload,
/// gauges each chunk in and hands it over through `tx`, and finishes
/// with [`ChunkMsg::Done`]. Owned by
/// [`crate::source::StreamingKvSource`], which spawns it on its own
/// thread; `run_kv_streamed` consumes it through the
/// [`crate::source::TraceSource`] trait.
pub(crate) fn record_chunks(
    sspec: &KvStreamSpec,
    gauge: &MemGauge,
    tx: &mpsc::SyncSender<ChunkMsg>,
) {
    let mut env = PmemEnv::new(sspec.variant);
    let mut w = KvWorkload::new(sspec.spec);
    env.set_recording(false);
    w.setup(&mut env);
    env.set_recording(true);
    let mut op = 0u64;
    while op < sspec.spec.ops {
        let end = (op + sspec.chunk_ops).min(sspec.spec.ops);
        while op < end {
            w.run_op(&mut env, op);
            op += 1;
        }
        // A streamed chunk is replayed, never crashed: its store values
        // are dropped with the rest of the trace.
        let events = env.take_trace().events;
        if events.is_empty() {
            continue;
        }
        gauge.acquire(chunk_bytes(&events));
        if tx.send(ChunkMsg::Events(events)).is_err() {
            return;
        }
    }
    let _ = tx.send(ChunkMsg::Done {
        ops: op,
        final_count: w.engine().count(),
        mutations: w.stats().mutations,
    });
}

/// Runs a KV workload through the chunked recorder/simulator pipeline.
///
/// Deterministic: every report field except the gauge-measured
/// [`StreamReport::peak_bytes`] is a pure function of `(sspec, cpu)` —
/// chunks are simulated strictly in recording order, and thread
/// interleaving only affects wall time and how many chunks happen to
/// coexist (always `<= peak_bound`).
///
/// # Errors
///
/// Returns the typed [`StreamError`] when a chunk's simulation degrades
/// or the recorder dies.
pub fn run_kv_streamed(sspec: &KvStreamSpec, cpu: &CpuConfig) -> Result<StreamReport, StreamError> {
    use crate::source::{StreamingKvSource, TraceSource as _};

    let mut src = StreamingKvSource::record(sspec.clone());
    let gauge = src.gauge();
    let mut report = StreamReport::default();
    while let Some(events) = src.next_chunk()? {
        simulate_chunk(&events, cpu, &mut report)?;
    }
    let stats = src.stats().ok_or(StreamError::RecorderDied)?;
    report.ops = stats.ops;
    report.final_count = stats.final_count;
    report.mutations = stats.mutations;
    report.peak_bound = src.peak_bound();
    // Join the recorder before reading the gauge peak so late
    // acquisitions are counted, exactly as the scoped join did.
    drop(src);
    report.peak_bytes = gauge.peak();
    Ok(report)
}

/// Replays one chunk on a fresh pipeline, folding its numbers into the
/// report.
fn simulate_chunk(
    events: &[Event],
    cpu: &CpuConfig,
    report: &mut StreamReport,
) -> Result<(), StreamError> {
    match Simulator::new(events).config(*cpu).run() {
        Ok(r) => {
            report.chunks += 1;
            report.events += events.len() as u64;
            report.cycles += r.cpu.cycles;
            report.committed_uops += r.cpu.committed_uops;
            Ok(())
        }
        Err(e) => Err(StreamError::Sim(e.to_string())),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tiny_spec(ops: u64) -> KvSpec {
        KvSpec {
            init_keys: 32,
            ops,
            ckpt_every: 8,
            wal_cap: 16,
            seed: 0xBEEF,
            mix: spp_workloads::kv::KvMix::MIXED,
        }
    }

    #[test]
    fn streamed_run_is_deterministic_and_chunked() {
        let s = KvStreamSpec {
            chunk_ops: 50,
            ..KvStreamSpec::new(tiny_spec(220), Variant::LogPSf)
        };
        let a = run_kv_streamed(&s, &CpuConfig::baseline()).unwrap();
        let b = run_kv_streamed(&s, &CpuConfig::baseline()).unwrap();
        // Everything but the gauge-measured peak is deterministic.
        assert_eq!(
            StreamReport { peak_bytes: 0, ..a },
            StreamReport { peak_bytes: 0, ..b },
            "same spec, same report"
        );
        assert_eq!(a.ops, 220);
        assert_eq!(a.chunks, 5, "220 ops at 50/chunk is 5 chunks");
        assert!(a.cycles > 0 && a.events > 0 && a.committed_uops > 0);
        assert!(a.peak_bytes > 0 && a.peak_bytes <= a.peak_bound);
    }

    #[test]
    fn peak_memory_is_flat_in_trace_length() {
        // 4x the ops, same chunking: the whole point of streaming.
        let short = KvStreamSpec {
            chunk_ops: 64,
            ..KvStreamSpec::new(tiny_spec(256), Variant::LogPSf)
        };
        let long = KvStreamSpec {
            chunk_ops: 64,
            ..KvStreamSpec::new(tiny_spec(1024), Variant::LogPSf)
        };
        let a = run_kv_streamed(&short, &CpuConfig::baseline()).unwrap();
        let b = run_kv_streamed(&long, &CpuConfig::baseline()).unwrap();
        assert_eq!(b.ops, 4 * a.ops);
        assert!(b.events > 3 * a.events, "more ops, more events");
        // Peak held chunk bytes must not grow with trace length: the
        // deterministic bound covers at most QUEUE_DEPTH + 2 chunks no
        // matter how many the run produces.
        let chunk_ceiling = 2 * a.peak_bound;
        assert!(
            b.peak_bound <= chunk_ceiling,
            "peak bound {} grew past {} on a 4x-longer trace",
            b.peak_bound,
            chunk_ceiling
        );
        assert!(a.peak_bytes <= a.peak_bound && b.peak_bytes <= b.peak_bound);
    }

    #[test]
    fn every_error_renders_as_one_line() {
        for e in [StreamError::Sim("wedged".into()), StreamError::RecorderDied] {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{e:?} renders {s:?}");
        }
    }
}
