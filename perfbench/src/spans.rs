//! Host-time spans recorded around the calls the benchmark makes into
//! each layer, kept in memory and reduced to per-layer self time when
//! the run ends.
//!
//! A span has a name (the layer it times), a start and end on one
//! monotonic clock, the span that caused it, the thread it ran on and a
//! small tag (the Table 1 benchmark a replay belongs to). When tracing
//! is off, [`Spans::enter`] returns an inert guard and reads no clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spp_obs::{chrome_trace_json, TraceSpan};

/// Identifies a span within one run; 0 is "no span" (the root's parent).
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub tag: u32,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store of one run.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'s> {
    spans: &'s Spans,
    rec: Option<SpanRec>,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of work it causes (0 when
    /// tracing is off).
    pub fn id(&self) -> SpanId {
        self.rec.map_or(0, |r| r.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_ns = self.spans.now_ns();
            self.spans
                .done
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(rec);
        }
    }
}

fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Spans {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Spans {
            enabled,
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    pub fn enter(&self, name: &'static str, parent: SpanId, tag: u32) -> SpanGuard<'_> {
        let rec = self.enabled.then(|| SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            tag,
            tid: thread_tid(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        SpanGuard { spans: self, rec }
    }

    /// Every finished span, in id order.
    pub fn finished(&self) -> Vec<SpanRec> {
        let mut v = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        v.sort_by_key(|r| r.id);
        v
    }

    /// The spans as a Chrome `trace_event` document (microseconds; the
    /// span's tag is rendered into its name).
    pub fn chrome_json(&self, process: &str) -> String {
        let spans: Vec<TraceSpan> = self
            .finished()
            .iter()
            .map(|r| TraceSpan {
                tid: r.tid,
                start: r.start_ns / 1000,
                dur: r.dur_ns() / 1000,
                name: r.name,
                arg: u64::from(r.tag),
            })
            .collect();
        let pid = u32::try_from(self.run_id % u64::from(u32::MAX)).unwrap_or(0);
        chrome_trace_json(process, pid, &spans)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover. Children running in parallel
/// on several threads cover an interval once, so a parent waiting on a
/// fan-out has no self time while its children are busy.
pub fn self_times(spans: &[SpanRec]) -> Vec<(SpanRec, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for r in spans {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, r.end_ns));
    }
    spans
        .iter()
        .map(|r| {
            let covered = children
                .get_mut(&r.id)
                .map_or(0, |c| covered_ns(r.start_ns, r.end_ns, c));
            (*r, r.dur_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: SpanId, parent: SpanId, name: &'static str, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            tag: 0,
            tid: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall_when_serial() {
        let spans = [
            rec(1, 0, "run", 0, 100),
            rec(2, 1, "a", 10, 30),
            rec(3, 1, "b", 40, 90),
            rec(4, 3, "c", 50, 60),
        ];
        let st: Vec<u64> = self_times(&spans).iter().map(|p| p.1).collect();
        assert_eq!(st, vec![30, 20, 40, 10]);
        assert_eq!(
            st.iter().sum::<u64>(),
            100,
            "serial self times tile the root"
        );
    }

    #[test]
    fn parallel_children_cover_their_union_once() {
        // Two workers busy over [0,50) and [10,80) under a stage [0,100):
        // the stage's self time is the uncovered [80,100), and the self
        // times add up to thread-time (130 busy + 20 stage-only).
        let spans = [
            rec(1, 0, "stage", 0, 100),
            rec(2, 1, "w", 0, 50),
            rec(3, 1, "w", 10, 80),
        ];
        let st: Vec<u64> = self_times(&spans).iter().map(|p| p.1).collect();
        assert_eq!(st, vec![20, 50, 70]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            rec(1, 0, "p", 10, 20),
            rec(2, 1, "x", 0, 12),
            rec(3, 1, "y", 18, 40),
        ];
        assert_eq!(self_times(&spans)[0].1, 6);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let s = Spans::new(false, 1);
        {
            let g = s.enter("x", 0, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(s.finished().is_empty());
    }

    #[test]
    fn enabled_spans_nest_and_export() {
        let s = Spans::new(true, 7);
        {
            let root = s.enter("run", 0, 0);
            let _child = s.enter("cpu.replay_sp", root.id(), 3);
        }
        let f = s.finished();
        assert_eq!(f.len(), 2);
        assert_eq!(f[1].parent, f[0].id);
        let json = s.chrome_json("perfbench");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("cpu.replay_sp"));
    }
}
