//! Deterministic hardware fault injection.
//!
//! A [`FaultSpec`] is a *plan*: per-site per-mille rates and magnitude
//! bounds for transient hardware adversity — NVMM latency spikes, WPQ
//! backpressure, bounded bank stalls, delayed/duplicated `pcommit`
//! acknowledgements, and SSB/checkpoint exhaustion pressure. Each
//! injection point owns an independent splitmix64 counter stream seeded
//! from `(spec.seed, component salt, site)`, so the faults drawn by a
//! simulation are a pure function of the spec and the simulation's own
//! decision sequence: runs are reproducible and `--jobs`-invariant, and
//! the same plan replayed on the same trace injects the same faults.
//!
//! Faults are *timing-only* by construction. They stretch latencies and
//! deny resources for a cycle at a time; they never drop, reorder, or
//! corrupt a request. The `repro faultsim` harness mechanizes the
//! resulting invariant: a faulted run must commit exactly the same
//! architectural work as a fault-free run — only cycle counts may move.

use spp_pmem::splitmix64;

use crate::config::Cycle;

/// One injected fault, as drawn at an injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A transient NVMM read-latency spike of `extra` cycles.
    NvmmReadSpike {
        /// Additional read latency.
        extra: Cycle,
    },
    /// A transient NVMM write-latency spike of `extra` cycles.
    NvmmWriteSpike {
        /// Additional write latency.
        extra: Cycle,
    },
    /// Transient WPQ backpressure: `held` slots are unavailable for this
    /// admission (e.g. claimed by refresh or a peer requester).
    WpqBackpressure {
        /// Slots denied to this admission.
        held: usize,
    },
    /// A bounded bank stall: the granted bank starts `extra` cycles late.
    BankStall {
        /// Extra cycles before the bank accepts the write.
        extra: Cycle,
    },
    /// The `pcommit` acknowledgement is delayed `extra` cycles on its way
    /// back to the core.
    PcommitAckDelay {
        /// Extra cycles before the ack arrives.
        extra: Cycle,
    },
    /// The `pcommit` acknowledgement is delivered twice; the duplicate
    /// arrives `redelivery` cycles after the first and must be tolerated
    /// (it may cost cycles, never correctness).
    PcommitAckDuplicate {
        /// Lag of the duplicate behind the real ack.
        redelivery: Cycle,
    },
    /// Transient SSB pressure: `held` entries are unavailable this cycle.
    SsbPressure {
        /// SSB slots denied this cycle.
        held: usize,
    },
    /// Transient checkpoint-buffer pressure: no checkpoint may be
    /// allocated this cycle even if one is architecturally free.
    CheckpointPressure,
}

/// Injection sites, each with an independent deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// NVMM read path ([`Fault::NvmmReadSpike`]).
    NvmmRead,
    /// NVMM write path ([`Fault::NvmmWriteSpike`]).
    NvmmWrite,
    /// WPQ admission ([`Fault::WpqBackpressure`]).
    WpqAdmit,
    /// Bank grant ([`Fault::BankStall`]).
    BankGrant,
    /// `pcommit` ack return ([`Fault::PcommitAckDelay`]).
    AckReturn,
    /// `pcommit` ack duplication ([`Fault::PcommitAckDuplicate`]).
    AckDuplicate,
    /// SSB allocation ([`Fault::SsbPressure`]).
    SsbAlloc,
    /// Checkpoint allocation ([`Fault::CheckpointPressure`]).
    CheckpointAlloc,
}

const NUM_SITES: usize = 8;

/// A seeded fault plan: per-mille rates and magnitude bounds per site.
///
/// All rates are per-mille (0 = never, 1000 = every opportunity); all
/// magnitudes are inclusive upper bounds, drawn uniformly in
/// `1..=bound`. The plan is `Copy`/`Eq` so it can ride inside
/// `MemConfig` without disturbing config comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Seed of every injection stream.
    pub seed: u64,
    /// NVMM read-spike rate (per-mille per read).
    pub read_spike_pm: u16,
    /// Largest read spike, cycles.
    pub read_spike_max: Cycle,
    /// NVMM write-spike rate (per-mille per writeback).
    pub write_spike_pm: u16,
    /// Largest write spike, cycles.
    pub write_spike_max: Cycle,
    /// WPQ-backpressure rate (per-mille per admission).
    pub wpq_pressure_pm: u16,
    /// WPQ slots held away from a pressured admission.
    pub wpq_held_slots: usize,
    /// Bank-stall rate (per-mille per grant).
    pub bank_stall_pm: u16,
    /// Largest bank stall, cycles.
    pub bank_stall_max: Cycle,
    /// Ack-delay rate (per-mille per pcommit).
    pub ack_delay_pm: u16,
    /// Largest ack delay, cycles.
    pub ack_delay_max: Cycle,
    /// Ack-duplication rate (per-mille per pcommit).
    pub ack_duplicate_pm: u16,
    /// Largest duplicate-redelivery lag, cycles.
    pub ack_duplicate_max: Cycle,
    /// SSB-pressure rate (per-mille per allocation attempt).
    pub ssb_pressure_pm: u16,
    /// SSB slots held away while pressured.
    pub ssb_held_slots: usize,
    /// Checkpoint-pressure rate (per-mille per allocation attempt).
    pub checkpoint_pressure_pm: u16,
}

impl FaultSpec {
    /// A plan that injects nothing (useful as a struct-literal base).
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            read_spike_pm: 0,
            read_spike_max: 0,
            write_spike_pm: 0,
            write_spike_max: 0,
            wpq_pressure_pm: 0,
            wpq_held_slots: 0,
            bank_stall_pm: 0,
            bank_stall_max: 0,
            ack_delay_pm: 0,
            ack_delay_max: 0,
            ack_duplicate_pm: 0,
            ack_duplicate_max: 0,
            ssb_pressure_pm: 0,
            ssb_held_slots: 0,
            checkpoint_pressure_pm: 0,
        }
    }

    /// A low-rate plan: rare, small disturbances — the "background
    /// radiation" leg of `repro faultsim`.
    pub fn quiet(seed: u64) -> Self {
        FaultSpec {
            read_spike_pm: 3,
            read_spike_max: 200,
            write_spike_pm: 3,
            write_spike_max: 400,
            wpq_pressure_pm: 2,
            wpq_held_slots: 96,
            bank_stall_pm: 2,
            bank_stall_max: 200,
            ack_delay_pm: 5,
            ack_delay_max: 500,
            ack_duplicate_pm: 3,
            ack_duplicate_max: 300,
            ssb_pressure_pm: 2,
            ssb_held_slots: 192,
            checkpoint_pressure_pm: 2,
            ..FaultSpec::none(seed)
        }
    }

    /// A high-rate plan: frequent, large disturbances at every site —
    /// the adversarial leg of `repro faultsim`.
    pub fn storm(seed: u64) -> Self {
        FaultSpec {
            read_spike_pm: 60,
            read_spike_max: 1500,
            write_spike_pm: 60,
            write_spike_max: 2500,
            wpq_pressure_pm: 40,
            wpq_held_slots: 126,
            bank_stall_pm: 40,
            bank_stall_max: 1000,
            ack_delay_pm: 120,
            ack_delay_max: 4000,
            ack_duplicate_pm: 60,
            ack_duplicate_max: 2000,
            ssb_pressure_pm: 50,
            ssb_held_slots: 255,
            checkpoint_pressure_pm: 50,
            ..FaultSpec::none(seed)
        }
    }

    /// A deliberate-livelock fixture: SSB and checkpoint allocation are
    /// denied on *every* attempt. A pipeline that is already speculating
    /// can never make retirement progress again, which proves the
    /// watchdog converts livelock into a typed error. A run that starts
    /// fresh does finish: the first checkpoint is denied, so speculation
    /// never begins, and every blocked fence waits out its persist
    /// operations instead.
    pub fn wedge(seed: u64) -> Self {
        FaultSpec {
            ssb_pressure_pm: 1000,
            ssb_held_slots: usize::MAX,
            checkpoint_pressure_pm: 1000,
            ..FaultSpec::none(seed)
        }
    }

    /// Does the plan deny SSB or checkpoint resources? (The pipeline
    /// retries such stalls cycle-by-cycle instead of sleeping until the
    /// next scheduled event, since the denial can clear on any retry.)
    pub fn denies_resources(&self) -> bool {
        self.ssb_pressure_pm > 0 || self.checkpoint_pressure_pm > 0
    }

    /// Validating constructor (the workspace-wide `try_new` idiom):
    /// returns the plan unchanged if every rate is a legal per-mille
    /// value. The presets ([`FaultSpec::none`], [`FaultSpec::quiet`],
    /// [`FaultSpec::storm`], [`FaultSpec::wedge`]) are valid by
    /// construction; hand-built plans should pass through here.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError::RateOutOfRange`] naming the first field
    /// whose rate exceeds 1000 per-mille.
    pub fn try_new(spec: FaultSpec) -> Result<FaultSpec, FaultSpecError> {
        let rates = [
            ("read_spike_pm", spec.read_spike_pm),
            ("write_spike_pm", spec.write_spike_pm),
            ("wpq_pressure_pm", spec.wpq_pressure_pm),
            ("bank_stall_pm", spec.bank_stall_pm),
            ("ack_delay_pm", spec.ack_delay_pm),
            ("ack_duplicate_pm", spec.ack_duplicate_pm),
            ("ssb_pressure_pm", spec.ssb_pressure_pm),
            ("checkpoint_pressure_pm", spec.checkpoint_pressure_pm),
        ];
        for (field, pm) in rates {
            if pm > 1000 {
                return Err(FaultSpecError::RateOutOfRange { field, pm });
            }
        }
        Ok(spec)
    }
}

/// A structurally invalid [`FaultSpec`], rejected at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSpecError {
    /// A per-mille rate exceeded 1000 (more than "every opportunity").
    RateOutOfRange {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        pm: u16,
    },
}

impl core::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultSpecError::RateOutOfRange { field, pm } => {
                write!(f, "{field} is per-mille (0..=1000), got {pm}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Counts of injected faults (and the cycles they directly added).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// NVMM read spikes injected.
    pub read_spikes: u64,
    /// NVMM write spikes injected.
    pub write_spikes: u64,
    /// WPQ-backpressure events injected.
    pub wpq_pressure: u64,
    /// Bank stalls injected.
    pub bank_stalls: u64,
    /// Delayed pcommit acks.
    pub ack_delays: u64,
    /// Duplicated pcommit acks.
    pub ack_duplicates: u64,
    /// SSB allocation denials.
    pub ssb_pressure: u64,
    /// Checkpoint allocation denials.
    pub checkpoint_pressure: u64,
    /// Latency directly added by spikes/stalls/delays, cycles.
    pub extra_cycles: u64,
}

impl FaultStats {
    /// Total faults injected across every site.
    pub fn total(&self) -> u64 {
        self.read_spikes
            + self.write_spikes
            + self.wpq_pressure
            + self.bank_stalls
            + self.ack_delays
            + self.ack_duplicates
            + self.ssb_pressure
            + self.checkpoint_pressure
    }

    /// Field-wise sum (combining the memory- and pipeline-side streams).
    pub fn merged(self, o: FaultStats) -> FaultStats {
        FaultStats {
            read_spikes: self.read_spikes + o.read_spikes,
            write_spikes: self.write_spikes + o.write_spikes,
            wpq_pressure: self.wpq_pressure + o.wpq_pressure,
            bank_stalls: self.bank_stalls + o.bank_stalls,
            ack_delays: self.ack_delays + o.ack_delays,
            ack_duplicates: self.ack_duplicates + o.ack_duplicates,
            ssb_pressure: self.ssb_pressure + o.ssb_pressure,
            checkpoint_pressure: self.checkpoint_pressure + o.checkpoint_pressure,
            extra_cycles: self.extra_cycles + o.extra_cycles,
        }
    }
}

/// Stream salt for the memory-controller injection sites.
pub const MEM_STREAM: u64 = 0x4D45_4D43_5452_4C00; // "MEMCTRL"

/// Stream salt for the pipeline injection sites.
pub const PIPE_STREAM: u64 = 0x5049_5045_4C49_4E45; // "PIPELINE"

/// Live injection state: one splitmix64 counter stream per site.
///
/// Each `draw` advances only its own site's counter, so the fault
/// sequence observed at a site depends only on the spec, the stream
/// salt, and how many times that site has been consulted — not on
/// scheduling, threading, or other sites' activity.
#[derive(Debug, Clone)]
pub struct FaultState {
    spec: FaultSpec,
    stream_seeds: [u64; NUM_SITES],
    counters: [u64; NUM_SITES],
    stats: FaultStats,
}

impl FaultState {
    /// Creates the injection state for `spec` under a component salt
    /// ([`MEM_STREAM`] or [`PIPE_STREAM`]).
    pub fn new(spec: FaultSpec, salt: u64) -> Self {
        let mut stream_seeds = [0u64; NUM_SITES];
        for (i, s) in stream_seeds.iter_mut().enumerate() {
            *s = splitmix64(spec.seed ^ salt ^ ((i as u64 + 1) << 56));
        }
        FaultState {
            spec,
            stream_seeds,
            counters: [0; NUM_SITES],
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Advances `site`'s stream; `Some(entropy)` when the event fires.
    fn roll(&mut self, site: FaultSite, pm: u16) -> Option<u64> {
        if pm == 0 {
            return None;
        }
        let i = site as usize;
        let n = self.counters[i];
        self.counters[i] = n + 1;
        let x =
            splitmix64(self.stream_seeds[i].wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        if x % 1000 < u64::from(pm) {
            Some(splitmix64(x))
        } else {
            None
        }
    }

    fn magnitude(entropy: u64, max: Cycle) -> Cycle {
        if max == 0 {
            0
        } else {
            1 + entropy % max
        }
    }

    /// Consults `site` once; returns the fault to apply, if any. Updates
    /// injection statistics for fired faults.
    pub fn draw(&mut self, site: FaultSite) -> Option<Fault> {
        let spec = self.spec;
        let fault = match site {
            FaultSite::NvmmRead => {
                self.roll(site, spec.read_spike_pm)
                    .map(|e| Fault::NvmmReadSpike {
                        extra: Self::magnitude(e, spec.read_spike_max),
                    })
            }
            FaultSite::NvmmWrite => {
                self.roll(site, spec.write_spike_pm)
                    .map(|e| Fault::NvmmWriteSpike {
                        extra: Self::magnitude(e, spec.write_spike_max),
                    })
            }
            FaultSite::WpqAdmit => {
                self.roll(site, spec.wpq_pressure_pm)
                    .map(|_| Fault::WpqBackpressure {
                        held: spec.wpq_held_slots,
                    })
            }
            FaultSite::BankGrant => self
                .roll(site, spec.bank_stall_pm)
                .map(|e| Fault::BankStall {
                    extra: Self::magnitude(e, spec.bank_stall_max),
                }),
            FaultSite::AckReturn => {
                self.roll(site, spec.ack_delay_pm)
                    .map(|e| Fault::PcommitAckDelay {
                        extra: Self::magnitude(e, spec.ack_delay_max),
                    })
            }
            FaultSite::AckDuplicate => {
                self.roll(site, spec.ack_duplicate_pm)
                    .map(|e| Fault::PcommitAckDuplicate {
                        redelivery: Self::magnitude(e, spec.ack_duplicate_max),
                    })
            }
            FaultSite::SsbAlloc => {
                self.roll(site, spec.ssb_pressure_pm)
                    .map(|_| Fault::SsbPressure {
                        held: spec.ssb_held_slots,
                    })
            }
            FaultSite::CheckpointAlloc => self
                .roll(site, spec.checkpoint_pressure_pm)
                .map(|_| Fault::CheckpointPressure),
        };
        if let Some(f) = fault {
            match f {
                Fault::NvmmReadSpike { extra } => {
                    self.stats.read_spikes += 1;
                    self.stats.extra_cycles += extra;
                }
                Fault::NvmmWriteSpike { extra } => {
                    self.stats.write_spikes += 1;
                    self.stats.extra_cycles += extra;
                }
                Fault::WpqBackpressure { .. } => self.stats.wpq_pressure += 1,
                Fault::BankStall { extra } => {
                    self.stats.bank_stalls += 1;
                    self.stats.extra_cycles += extra;
                }
                Fault::PcommitAckDelay { extra } => {
                    self.stats.ack_delays += 1;
                    self.stats.extra_cycles += extra;
                }
                Fault::PcommitAckDuplicate { .. } => self.stats.ack_duplicates += 1,
                Fault::SsbPressure { .. } => self.stats.ssb_pressure += 1,
                Fault::CheckpointPressure => self.stats.checkpoint_pressure += 1,
            }
        }
        fault
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn try_new_accepts_presets_and_rejects_illegal_rates() {
        for spec in [
            FaultSpec::none(1),
            FaultSpec::quiet(1),
            FaultSpec::storm(1),
            FaultSpec::wedge(1),
        ] {
            assert_eq!(FaultSpec::try_new(spec), Ok(spec));
        }
        let bad = FaultSpec {
            ack_delay_pm: 1001,
            ..FaultSpec::none(1)
        };
        let err = FaultSpec::try_new(bad).unwrap_err();
        assert_eq!(
            err,
            FaultSpecError::RateOutOfRange {
                field: "ack_delay_pm",
                pm: 1001
            }
        );
        assert!(err.to_string().contains("ack_delay_pm"));
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let spec = FaultSpec::storm(7);
        let mut a = FaultState::new(spec, MEM_STREAM);
        let mut b = FaultState::new(spec, MEM_STREAM);
        // Interleave differently across sites: per-site sequences must
        // still agree, because every site owns its own counter.
        let mut seq_a = Vec::new();
        for _ in 0..200 {
            seq_a.push(a.draw(FaultSite::NvmmWrite));
        }
        let mut seq_b = Vec::new();
        for i in 0..200 {
            if i % 3 == 0 {
                let _ = b.draw(FaultSite::NvmmRead);
            }
            seq_b.push(b.draw(FaultSite::NvmmWrite));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = FaultState::new(FaultSpec::storm(1), MEM_STREAM);
        let mut b = FaultState::new(FaultSpec::storm(2), MEM_STREAM);
        let sa: Vec<_> = (0..300).map(|_| a.draw(FaultSite::AckReturn)).collect();
        let sb: Vec<_> = (0..300).map(|_| b.draw(FaultSite::AckReturn)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut s = FaultState::new(FaultSpec::storm(3), PIPE_STREAM);
        let n = 10_000;
        let fired = (0..n)
            .filter(|_| s.draw(FaultSite::AckReturn).is_some())
            .count();
        // 120‰ nominal; allow a generous band.
        assert!((800..=1600).contains(&fired), "fired {fired}/{n}");
        assert_eq!(s.stats().ack_delays as usize, fired);
        assert!(s.stats().extra_cycles > 0);
    }

    #[test]
    fn magnitudes_are_bounded_and_positive() {
        let spec = FaultSpec::storm(9);
        let mut s = FaultState::new(spec, MEM_STREAM);
        for _ in 0..5_000 {
            if let Some(Fault::NvmmWriteSpike { extra }) = s.draw(FaultSite::NvmmWrite) {
                assert!((1..=spec.write_spike_max).contains(&extra));
            }
        }
    }

    #[test]
    fn none_plan_never_fires_and_wedge_always_denies() {
        let mut none = FaultState::new(FaultSpec::none(4), MEM_STREAM);
        for _ in 0..1000 {
            assert_eq!(none.draw(FaultSite::NvmmWrite), None);
            assert_eq!(none.draw(FaultSite::CheckpointAlloc), None);
        }
        assert_eq!(none.stats().total(), 0);
        let mut wedge = FaultState::new(FaultSpec::wedge(4), PIPE_STREAM);
        for _ in 0..100 {
            assert_eq!(
                wedge.draw(FaultSite::CheckpointAlloc),
                Some(Fault::CheckpointPressure)
            );
            assert!(matches!(
                wedge.draw(FaultSite::SsbAlloc),
                Some(Fault::SsbPressure { held: usize::MAX })
            ));
        }
        assert!(FaultSpec::wedge(4).denies_resources());
        assert!(!FaultSpec::none(4).denies_resources());
    }

    #[test]
    fn merged_stats_sum_fieldwise() {
        let a = FaultStats {
            read_spikes: 1,
            extra_cycles: 10,
            ..FaultStats::default()
        };
        let b = FaultStats {
            read_spikes: 2,
            ack_duplicates: 3,
            extra_cycles: 5,
            ..FaultStats::default()
        };
        let m = a.merged(b);
        assert_eq!(m.read_spikes, 3);
        assert_eq!(m.ack_duplicates, 3);
        assert_eq!(m.extra_cycles, 15);
        assert_eq!(m.total(), 6);
    }
}
