//! The trace cache: every workload trace is recorded exactly once per
//! harness and shared immutably across all simulator configurations
//! that replay it.
//!
//! Recording a trace means running the full functional workload
//! (populate + measured ops + verification) — for the paper's sweep
//! that used to happen up to three times per `(benchmark, variant)`
//! pair (the suite, the SSB sweep, and the ablation each re-recorded).
//! The cache keys traces by everything that determines the event
//! stream bit-for-bit ([`TraceKey`]); a per-key [`OnceLock`] guarantees
//! exactly-once recording even when many worker threads ask for the
//! same trace concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use spp_pmem::{Event, FlushMode, SharedTrace, Variant};
use spp_workloads::{record_trace, BenchId, BenchSpec, TraceSpec};

use crate::Experiment;

/// Bytes held by one cached trace (the frozen `Arc<Vec<Event>>`
/// payload, 16 bytes per timing-only event; bookkeeping overhead is
/// negligible next to it).
pub fn trace_bytes(t: &SharedTrace) -> u64 {
    (t.events.len() * std::mem::size_of::<Event>()) as u64
}

/// Everything that determines a recorded trace bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Which benchmark.
    pub id: BenchId,
    /// The build variant.
    pub variant: Variant,
    /// The Table 1 scale divisor (sizing follows via [`BenchSpec::scaled`]).
    pub scale: u64,
    /// RNG seed of the operation stream.
    pub seed: u64,
    /// Which flush instruction the build emits.
    pub flush_mode: FlushMode,
}

impl TraceKey {
    /// The key for `(id, variant)` under an experiment's scale and seed,
    /// with the default `clwb` flush instruction.
    pub fn new(id: BenchId, variant: Variant, exp: &Experiment) -> Self {
        TraceKey {
            id,
            variant,
            scale: exp.scale,
            seed: exp.seed,
            flush_mode: FlushMode::default(),
        }
    }

    /// Same, with an explicit flush instruction (the §2.2 ablation).
    pub fn with_flush_mode(
        id: BenchId,
        variant: Variant,
        exp: &Experiment,
        flush_mode: FlushMode,
    ) -> Self {
        TraceKey {
            flush_mode,
            ..Self::new(id, variant, exp)
        }
    }

    /// The recording spec this key denotes.
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec {
            variant: self.variant,
            spec: BenchSpec::scaled(self.id, self.scale),
            seed: self.seed,
            flush_mode: self.flush_mode,
        }
    }
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Traces actually recorded (functional workload runs).
    pub recordings: u64,
    /// Requests served from an already-recorded trace.
    pub hits: u64,
    /// Distinct keys present.
    pub entries: u64,
    /// Total bytes held by the cached event streams.
    pub bytes: u64,
}

impl CacheStats {
    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.recordings + self.hits
    }
}

/// A thread-safe, exactly-once trace store.
///
/// The outer map only guards slot creation; recording itself happens
/// under the slot's [`OnceLock`], so two threads asking for *different*
/// traces record in parallel while two threads asking for the *same*
/// trace serialize (one records, the other waits and shares).
#[derive(Debug, Default)]
pub struct TraceCache {
    slots: Mutex<HashMap<TraceKey, Arc<OnceLock<SharedTrace>>>>,
    recordings: AtomicU64,
    hits: AtomicU64,
    bytes: AtomicU64,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the trace for `key`, recording it on first request.
    pub fn get(&self, key: TraceKey) -> SharedTrace {
        let slot = {
            let mut slots = self.slots.lock().expect("trace cache poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut recorded_here = false;
        let trace = slot.get_or_init(|| {
            recorded_here = true;
            self.recordings.fetch_add(1, Ordering::Relaxed);
            record_trace(&key.trace_spec())
        });
        if recorded_here {
            self.bytes.fetch_add(trace_bytes(trace), Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        trace.clone()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            recordings: self.recordings.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.slots.lock().expect("trace cache poisoned").len() as u64,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_exp() -> Experiment {
        Experiment {
            scale: 5000,
            seed: 1,
        }
    }

    #[test]
    fn second_request_is_a_hit_sharing_the_allocation() {
        let cache = TraceCache::new();
        let key = TraceKey::new(BenchId::LinkedList, Variant::LogPSf, &tiny_exp());
        let a = cache.get(key);
        let b = cache.get(key);
        assert!(
            Arc::ptr_eq(&a.events, &b.events),
            "hit must share the recording"
        );
        let s = cache.stats();
        assert_eq!((s.recordings, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_record_separately() {
        let cache = TraceCache::new();
        let exp = tiny_exp();
        cache.get(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        cache.get(TraceKey::new(BenchId::LinkedList, Variant::LogPSf, &exp));
        cache.get(TraceKey {
            seed: 99,
            ..TraceKey::new(BenchId::LinkedList, Variant::LogPSf, &exp)
        });
        cache.get(TraceKey::with_flush_mode(
            BenchId::LinkedList,
            Variant::LogPSf,
            &exp,
            FlushMode::Clflush,
        ));
        let s = cache.stats();
        assert_eq!((s.recordings, s.hits, s.entries), (4, 0, 4));
    }

    #[test]
    fn cached_trace_equals_a_fresh_recording() {
        let cache = TraceCache::new();
        let key = TraceKey::new(BenchId::LinkedList, Variant::LogPSf, &tiny_exp());
        let cached = cache.get(key);
        let fresh = record_trace(&key.trace_spec());
        assert_eq!(&cached.events[..], &fresh.events[..]);
        assert_eq!(cached.counts, fresh.counts);
    }

    #[test]
    fn byte_accounting_sums_per_key_footprints() {
        let cache = TraceCache::new();
        let exp = tiny_exp();
        let a = cache.get(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        let b = cache.get(TraceKey::new(BenchId::LinkedList, Variant::LogPSf, &exp));
        let s = cache.stats();
        assert_eq!(s.bytes, trace_bytes(&a) + trace_bytes(&b));
        // A hit does not double-count.
        cache.get(TraceKey::new(BenchId::LinkedList, Variant::Base, &exp));
        assert_eq!(cache.stats().bytes, s.bytes);
    }

    #[test]
    fn concurrent_requests_record_exactly_once() {
        let cache = TraceCache::new();
        let key = TraceKey::new(BenchId::LinkedList, Variant::LogPSf, &tiny_exp());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.get(key));
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.recordings, 1, "exactly one thread may record");
        assert_eq!(stats.hits, 7);
    }
}
