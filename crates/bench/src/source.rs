//! Chunked access to a trace that is still being recorded.
//!
//! A whole recorded trace lives in the in-memory [`TraceCache`] and is
//! read as a slice. A long KV run instead streams through the
//! chunked recorder pipeline: bounded memory, events arrive in
//! recording-order chunks. [`TraceSource`] is that pipeline's
//! iterator-style contract — pull chunks until `Ok(None)` — and
//! [`StreamingKvSource`] implements it. The conformance test at the
//! bottom pins the load-bearing property: at every chunk size, the
//! concatenated chunks are **identical** to the same workload recorded
//! whole in memory.
//!
//! [`TraceCache`]: crate::cache::TraceCache

use std::borrow::Cow;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use spp_obs::MemGauge;
use spp_pmem::Event;

use crate::stream::{chunk_bytes, ChunkMsg, KvStreamSpec, PeakBound, StreamError, QUEUE_DEPTH};

/// Iterator-style access to a recorded event stream, chunk by chunk.
///
/// Contract: chunks arrive in recording order; concatenating every
/// chunk reproduces the full event stream exactly; after the first
/// `Ok(None)` the source is exhausted and stays exhausted. A streamed
/// source accounts the yielded chunk against its memory gauge until the
/// next call, so callers should drop each chunk before pulling the
/// next one.
pub trait TraceSource {
    /// Pulls the next chunk of events. `Ok(None)` means the stream is
    /// complete (not an error — a dead recorder is a typed
    /// [`StreamError`]).
    ///
    /// # Errors
    ///
    /// Returns the typed [`StreamError`] of the underlying transport,
    /// such as a dead recorder.
    fn next_chunk(&mut self) -> Result<Option<Cow<'_, [Event]>>, StreamError>;

    /// Drains the rest of the stream into one contiguous vector.
    ///
    /// # Errors
    ///
    /// Propagates the first [`StreamError`] the transport reports.
    fn collect_events(&mut self) -> Result<Vec<Event>, StreamError> {
        let mut out = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }
}

// --- streamed impl ----------------------------------------------------

/// The recorder's final driver facts, available once the stream has
/// drained cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Driver ops executed.
    pub ops: u64,
    /// Live keys in the engine when recording finished.
    pub final_count: u64,
    /// WAL records appended over the whole run.
    pub mutations: u64,
}

/// A [`TraceSource`] over the chunked recorder pipeline: the KV
/// workload records on its own thread and chunks arrive through a
/// bounded queue. Consumers pull chunks instead of owning the receive
/// loop.
#[derive(Debug)]
pub struct StreamingKvSource {
    rx: Option<mpsc::Receiver<ChunkMsg>>,
    recorder: Option<JoinHandle<()>>,
    gauge: Arc<MemGauge>,
    bound: PeakBound,
    outstanding: u64,
    stats: Option<StreamStats>,
}

impl StreamingKvSource {
    /// Starts recording `sspec` on a dedicated thread; chunks become
    /// available through [`TraceSource::next_chunk`] as they are
    /// produced.
    pub fn record(sspec: KvStreamSpec) -> Self {
        let gauge = Arc::new(MemGauge::new());
        let (tx, rx) = mpsc::sync_channel::<ChunkMsg>(QUEUE_DEPTH);
        let recorder_gauge = Arc::clone(&gauge);
        let recorder = std::thread::spawn(move || {
            crate::stream::record_chunks(&sspec, &recorder_gauge, &tx);
        });
        StreamingKvSource {
            rx: Some(rx),
            recorder: Some(recorder),
            gauge,
            bound: PeakBound::default(),
            outstanding: 0,
            stats: None,
        }
    }

    /// The gauge the pipeline accounts chunk memory against. Its peak
    /// is timing-dependent; read it after the source is dropped (which
    /// joins the recorder) for the final figure.
    pub fn gauge(&self) -> Arc<MemGauge> {
        Arc::clone(&self.gauge)
    }

    /// The recorder's final facts, `Some` once the stream drained
    /// cleanly to `Ok(None)`.
    pub fn stats(&self) -> Option<StreamStats> {
        self.stats
    }

    /// Deterministic upper bound on peak held chunk bytes (the largest
    /// sum of any `QUEUE_DEPTH + 2` consecutive chunks seen so far).
    pub fn peak_bound(&self) -> u64 {
        self.bound.max()
    }

    /// Releases the gauge accounting of the previously yielded chunk.
    fn settle(&mut self) {
        if self.outstanding > 0 {
            self.gauge.release(self.outstanding);
            self.outstanding = 0;
        }
    }
}

impl TraceSource for StreamingKvSource {
    fn next_chunk(&mut self) -> Result<Option<Cow<'_, [Event]>>, StreamError> {
        self.settle();
        if self.stats.is_some() {
            return Ok(None);
        }
        let msg = match self.rx.as_ref() {
            Some(rx) => rx.recv().map_err(|_| StreamError::RecorderDied)?,
            None => return Err(StreamError::RecorderDied),
        };
        match msg {
            ChunkMsg::Events(events) => {
                let bytes = chunk_bytes(&events);
                self.bound.push(bytes);
                self.outstanding = bytes;
                Ok(Some(Cow::Owned(events)))
            }
            ChunkMsg::Done {
                ops,
                final_count,
                mutations,
            } => {
                self.stats = Some(StreamStats {
                    ops,
                    final_count,
                    mutations,
                });
                Ok(None)
            }
        }
    }
}

impl Drop for StreamingKvSource {
    fn drop(&mut self) {
        self.settle();
        // Closing the queue unblocks a recorder mid-send; join it so no
        // recording outlives its source.
        drop(self.rx.take());
        if let Some(h) = self.recorder.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spp_cpu::CpuConfig;
    use spp_pmem::{PmemEnv, Variant};
    use spp_workloads::kv::{KvMix, KvSpec, KvWorkload};

    fn tiny_stream(ops: u64) -> KvStreamSpec {
        let spec = KvSpec {
            init_keys: 32,
            ops,
            ckpt_every: 8,
            wal_cap: 16,
            seed: 0xBEEF,
            mix: KvMix::MIXED,
        };
        KvStreamSpec {
            chunk_ops: 50,
            ..KvStreamSpec::new(spec, Variant::LogPSf)
        }
    }

    /// Records the same workload the streamed recorder runs, but
    /// monolithically in memory — the `TraceCache` representation.
    fn record_monolithic(sspec: &KvStreamSpec) -> Vec<Event> {
        let mut env = PmemEnv::new(sspec.variant);
        let mut w = KvWorkload::new(sspec.spec);
        env.set_recording(false);
        w.setup(&mut env);
        env.set_recording(true);
        for op in 0..sspec.spec.ops {
            w.run_op(&mut env, op);
        }
        env.take_trace().events
    }

    #[test]
    fn streamed_chunks_concatenate_to_the_monolithic_recording() {
        let ops = 220;
        let mem_events = record_monolithic(&tiny_stream(ops));
        for chunk_ops in [1, 7, 50, ops, ops + 1] {
            let sspec = KvStreamSpec {
                chunk_ops,
                ..tiny_stream(ops)
            };
            let mut streamed = StreamingKvSource::record(sspec.clone());
            let streamed_events = streamed.collect_events().unwrap();
            assert_eq!(
                mem_events, streamed_events,
                "chunk_ops {chunk_ops}: same events in same order"
            );
            let stats = streamed.stats().expect("clean drain carries stats");
            assert_eq!(stats.ops, ops);
            assert!(stats.mutations > 0);
            assert!(streamed.next_chunk().unwrap().is_none(), "fused after Done");

            let rep = crate::stream::run_kv_streamed(&sspec, &CpuConfig::baseline()).unwrap();
            assert_eq!(
                rep.events,
                mem_events.len() as u64,
                "chunk_ops {chunk_ops}: no events lost at the seams"
            );
        }
    }

    #[test]
    fn the_streamed_pipeline_consumes_the_source_it_exports() {
        // `run_kv_streamed` is now a TraceSource consumer; its numbers
        // must not have moved relative to a hand-rolled drain.
        let sspec = tiny_stream(220);
        let rep = crate::stream::run_kv_streamed(&sspec, &CpuConfig::baseline()).unwrap();
        assert_eq!(rep.ops, 220);
        assert_eq!(rep.chunks, 5, "220 ops at 50/chunk is 5 chunks");
        let total = record_monolithic(&sspec).len();
        assert_eq!(rep.events, total as u64, "no events lost at the seam");
    }

    #[test]
    fn dropping_a_streaming_source_midway_joins_the_recorder() {
        let mut src = StreamingKvSource::record(tiny_stream(500));
        let first = src.next_chunk().unwrap();
        assert!(first.is_some(), "recorder produced at least one chunk");
        drop(first);
        drop(src); // must not hang or leak the recorder thread
    }
}
