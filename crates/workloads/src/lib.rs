//! # spp-workloads — the paper's benchmark suite (Table 1)
//!
//! Seven single-threaded persistent data structures with write-ahead
//! logging failure safety, exactly the suite of §3 of *"Hiding the Long
//! Latency of Persist Barriers Using Speculative Execution"* (ISCA '17):
//!
//! | Abbrev | Benchmark | Operation |
//! |---|---|---|
//! | GH | [`graph`] | insert or delete edges |
//! | HM | [`hashmap`] | insert or delete entries (with resizing) |
//! | LL | [`linked_list`] | insert or delete nodes (max 1024) |
//! | SS | [`string_swap`] | swap 256-byte strings |
//! | AT | [`avl`] | insert or delete nodes (full logging) |
//! | BT | [`btree`] | insert or delete nodes (full logging) |
//! | RT | [`rbtree`] | insert or delete nodes (full logging) |
//!
//! Every operation searches a random key and deletes it if present,
//! inserts it otherwise (String Swap swaps two random entries). Each
//! structure keeps all state in the persistent address space of a
//! [`PmemEnv`], sizes nodes to one 64-byte cache block, and runs each
//! operation as one [`Staged`] transaction (four persist barriers, §3.1).
//!
//! ```
//! use spp_pmem::Variant;
//! use spp_workloads::{record_trace, BenchId, BenchSpec, TraceSpec};
//!
//! let spec = BenchSpec { id: BenchId::LinkedList, init_ops: 100, sim_ops: 50 };
//! let trace = record_trace(&TraceSpec::new(Variant::LogPSf, spec, 42));
//! assert!(trace.counts.pcommits >= 4 * 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avl;
pub mod btree;
pub mod btree_inc;
pub mod driver;
pub mod graph;
pub mod hashmap;
pub mod kv;
pub mod linked_list;
pub mod litmus;
pub mod oracle;
pub mod rbtree;
pub mod shared;
pub mod spec;
mod staged;
pub mod string_swap;
pub mod zipf;

use std::any::Any;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_pmem::{FlushMode, PmemEnv, SharedTrace, Space, Trace, Variant};

pub use shared::{shared_trace, SharedKind, SharedSpec};
pub use spec::{BenchId, BenchSpec};
pub use staged::Staged;

/// What a benchmark operation did (used by crash tests to track the
/// expected logical state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// A key was inserted.
    Inserted(u64),
    /// A key was deleted.
    Deleted(u64),
    /// Two string-array entries were swapped.
    Swapped(u64, u64),
    /// The operation had no effect (e.g. the linked list hit its
    /// 1024-node cap on an insert).
    Noop,
}

/// Structural summary returned by a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifySummary {
    /// The structure's logical keys, sorted. (String Swap reports each
    /// entry's embedded original index; the graph encodes edges as
    /// `from << 32 | to`.)
    pub keys: Vec<u64>,
    /// The structure's recorded element count.
    pub size: u64,
}

/// A structural-invariant violation found during verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError(String);

impl VerifyError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        VerifyError(msg.into())
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "structure verification failed: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// A persistent data-structure benchmark.
///
/// Implementations keep *all* structure state in the persistent address
/// space (reachable from the root directory), so [`verify`](Self::verify)
/// can run against any memory image — including post-crash, post-recovery
/// images that the live workload object never saw. `Any` lets a recorder
/// recover the concrete structure from a cached population (the
/// incremental-logging B-tree wraps BT's).
pub trait Workload: Any + fmt::Debug + Send + Sync {
    /// Which Table 1 benchmark this is.
    fn id(&self) -> BenchId;

    /// Clones the workload object behind its trait object (used by the
    /// setup cache to replay the measured phase from a shared populated
    /// image).
    fn clone_box(&self) -> Box<dyn Workload>;

    /// Creates the structure and populates it with `init_ops` operations
    /// (the paper's fast-forward phase; callers typically disable trace
    /// recording around this).
    fn setup(&mut self, env: &mut PmemEnv, rng: &mut StdRng, init_ops: u64);

    /// Runs one measured operation.
    fn run_op(&mut self, env: &mut PmemEnv, rng: &mut StdRng, op_id: u64) -> OpOutcome;

    /// Checks every structural invariant against `space` and returns the
    /// logical contents.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first violated invariant.
    fn verify(&self, space: &Space) -> Result<VerifySummary, VerifyError>;
}

/// Instantiates the named benchmark.
pub fn make_workload(id: BenchId) -> Box<dyn Workload> {
    match id {
        BenchId::Graph => Box::new(graph::Graph::new()),
        BenchId::HashMap => Box::new(hashmap::HashMap::new()),
        BenchId::LinkedList => Box::new(linked_list::LinkedList::new()),
        BenchId::StringSwap => Box::new(string_swap::StringSwap::new()),
        BenchId::AvlTree => Box::new(avl::AvlTree::new()),
        BenchId::BTree => Box::new(btree::BTree::new()),
        BenchId::RbTree => Box::new(rbtree::RbTree::new()),
    }
}

/// Identifies one recordable trace: everything that determines the
/// event stream bit-for-bit. Two equal `TraceSpec`s always produce
/// identical traces, which is what makes trace caching sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceSpec {
    /// The build variant.
    pub variant: Variant,
    /// Benchmark and sizing.
    pub spec: BenchSpec,
    /// RNG seed for the operation stream.
    pub seed: u64,
    /// Which flush instruction the build emits.
    pub flush_mode: FlushMode,
}

impl TraceSpec {
    /// A spec with the default (`clwb`) flush instruction.
    pub fn new(variant: Variant, spec: BenchSpec, seed: u64) -> Self {
        TraceSpec {
            variant,
            spec,
            seed,
            flush_mode: FlushMode::default(),
        }
    }
}

/// Records one benchmark trace and freezes it for concurrent replay.
///
/// This is the one recorder of benchmark traces: it populates the
/// structure in fast-forward (through the process-wide setup cache),
/// records the measured operations in their application context, and
/// verifies the final structure. The immutable, timing-only
/// [`SharedTrace`] can then be replayed by many simulator
/// configurations in parallel. The §3.2 incremental-logging B-tree
/// ([`IncBTree::record_trace`](btree_inc::IncBTree::record_trace))
/// records through the same path, from BT's cached population.
///
/// # Panics
///
/// Panics if the final structure fails verification — that would be a
/// bug in this crate, never an expected outcome.
pub fn record_trace(ts: &TraceSpec) -> SharedTrace {
    record(ts, |w| w).into_shared()
}

/// [`record_trace`] before its store values are dropped. `policy` turns
/// the cached, populated workload into the one that runs the measured
/// phase: itself, or the same structure under another logging scheme.
fn record(ts: &TraceSpec, policy: impl FnOnce(Box<dyn Workload>) -> Box<dyn Workload>) -> Trace {
    let (mut env, rng, w) = populated_setup(ts);
    env.set_variant(ts.variant);
    env.set_flush_mode(ts.flush_mode);
    measure(env, rng, policy(w), ts)
}

/// The measured phase of a recording: the application-context
/// driver (created after population, as pre-existing application
/// state), `ts.spec.sim_ops` recorded operations, and a final
/// structural verification.
fn measure(mut env: PmemEnv, mut rng: StdRng, mut w: Box<dyn Workload>, ts: &TraceSpec) -> Trace {
    env.set_recording(true);
    let mut drv = driver::Driver::new(&mut env, &mut rng);
    for op in 0..ts.spec.sim_ops {
        drv.before_op(&mut env);
        w.run_op(&mut env, &mut rng, op);
    }
    let trace = env.take_trace();

    if let Err(e) = w.verify(env.space()) {
        panic!("{} final image invalid: {e}", ts.spec.id);
    }
    trace
}

/// Key of one cached fast-forward population: everything that
/// determines the post-setup functional state. The build variant and
/// flush mode are deliberately absent — with recording off they gate
/// only event emission and undo-log writes, and the undo log is never
/// read outside an open transaction, so every variant records its
/// measured phase from the same populated image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SetupKey {
    id: BenchId,
    init_ops: u64,
    seed: u64,
}

#[derive(Debug)]
struct CachedSetup {
    env: PmemEnv,
    rng: StdRng,
    workload: Box<dyn Workload>,
}

type SetupSlot = std::sync::Arc<std::sync::OnceLock<CachedSetup>>;

fn setup_cache() -> &'static std::sync::Mutex<std::collections::HashMap<SetupKey, SetupSlot>> {
    static CACHE: std::sync::OnceLock<
        std::sync::Mutex<std::collections::HashMap<SetupKey, SetupSlot>>,
    > = std::sync::OnceLock::new();
    CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()))
}

/// Returns a freshly cloned post-population state for `ts`: environment,
/// RNG (mid-stream, exactly as `setup` left it), and workload object.
///
/// The population itself runs at most once per [`SetupKey`] and is
/// executed under [`Variant::Base`]: with recording off a variant's only
/// functional footprint is the undo-log bytes it writes, which nothing
/// reads until a transaction is open, so skipping them yields a
/// functionally equivalent image at a fraction of the cost. The caller
/// rebrands the clone to the requested variant before recording.
fn populated_setup(ts: &TraceSpec) -> (PmemEnv, StdRng, Box<dyn Workload>) {
    let key = SetupKey {
        id: ts.spec.id,
        init_ops: ts.spec.init_ops,
        seed: ts.seed,
    };
    let slot = {
        let mut map = match setup_cache().lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.entry(key).or_default().clone()
    };
    let cached = slot.get_or_init(|| {
        let mut env = PmemEnv::new(Variant::Base);
        let mut rng = StdRng::seed_from_u64(key.seed);
        let mut w = make_workload(key.id);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, key.init_ops);
        CachedSetup {
            env,
            rng,
            workload: w,
        }
    });
    (
        cached.env.clone(),
        cached.rng.clone(),
        cached.workload.clone_box(),
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for per-structure unit tests.

    use super::*;
    use std::collections::BTreeSet;

    /// Records `w`'s trace under `ts` with a fresh population under
    /// `ts.variant` and `ts.flush_mode`: the reference the setup cache's
    /// shortcut is checked against.
    pub fn record_uncached(mut w: Box<dyn Workload>, ts: &TraceSpec) -> Trace {
        let mut env = PmemEnv::new(ts.variant);
        env.set_flush_mode(ts.flush_mode);
        let mut rng = StdRng::seed_from_u64(ts.seed);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, ts.spec.init_ops);
        measure(env, rng, w, ts)
    }

    /// Drives `sim_ops` operations against both the workload and a
    /// `BTreeSet` oracle, checking outcome agreement and invariants
    /// periodically.
    pub fn oracle_check(id: BenchId, variant: Variant, init_ops: u64, sim_ops: u64, seed: u64) {
        let mut env = PmemEnv::new(variant);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = make_workload(id);
        env.set_recording(false);
        w.setup(&mut env, &mut rng, init_ops);

        // Bootstrap the oracle from the verified initial contents.
        let init = w.verify(env.space()).expect("post-init verify");
        let mut oracle: BTreeSet<u64> = init.keys.iter().copied().collect();
        assert_eq!(oracle.len() as u64, init.size, "{id}: init size mismatch");

        for op in 0..sim_ops {
            match w.run_op(&mut env, &mut rng, op) {
                OpOutcome::Inserted(k) => {
                    assert!(oracle.insert(k), "{id}: inserted key {k} already present");
                }
                OpOutcome::Deleted(k) => {
                    assert!(oracle.remove(&k), "{id}: deleted key {k} was absent");
                }
                OpOutcome::Swapped(_, _) | OpOutcome::Noop => {}
            }
            if op % 16 == 0 || op + 1 == sim_ops {
                let s = match w.verify(env.space()) {
                    Ok(s) => s,
                    Err(e) => panic!("{id} op {op}: {e}"),
                };
                let got: BTreeSet<u64> = s.keys.iter().copied().collect();
                assert_eq!(s.keys.len(), got.len(), "{id}: duplicate keys reported");
                assert_eq!(got, oracle, "{id}: keys diverged at op {op}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record_uncached;

    /// The setup cache populates under `Variant::Base` and rebrands the
    /// clone (see [`SetupKey`]); that shortcut must record exactly the
    /// events an uncached population under the real variant and flush
    /// mode would.
    #[test]
    fn cached_population_records_the_uncached_events() {
        for id in BenchId::ALL {
            let spec = BenchSpec::scaled(id, 2500);
            for variant in Variant::ALL {
                for flush_mode in FlushMode::ALL {
                    for seed in [1, 0x5EED] {
                        let ts = TraceSpec {
                            variant,
                            spec,
                            seed,
                            flush_mode,
                        };
                        assert!(
                            record_uncached(make_workload(id), &ts).events
                                == *record_trace(&ts).events,
                            "{id}/{variant}/{flush_mode}/seed {seed}: setup cache diverged"
                        );
                    }
                }
            }
        }
    }

    /// Every Table 1 recording keeps one value per store, in every
    /// variant: the store-dense side vector a crash trace reads.
    #[test]
    fn every_bench_records_one_value_per_store() {
        for id in BenchId::ALL {
            for variant in Variant::ALL {
                let t = record(
                    &TraceSpec::new(variant, BenchSpec::scaled(id, 2500), 1),
                    |w| w,
                );
                let stores = t
                    .events
                    .iter()
                    .filter(|e| matches!(e, spp_pmem::Event::Store { .. }))
                    .count();
                assert!(stores > 0, "{id}/{variant} stores nothing");
                assert_eq!(t.values.len() as u64, t.counts.stores, "{id}/{variant}");
                assert_eq!(t.values.len(), stores, "{id}/{variant}");
            }
        }
    }
}
