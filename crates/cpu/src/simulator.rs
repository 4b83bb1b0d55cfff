//! The unified simulation façade.
//!
//! [`Simulator`] is the one front door to a simulation run: it owns the
//! trace, the configuration, an optional pre-built memory system, and an
//! optional observability probe, validates everything up front, and
//! returns a typed result. It is the only public way to build and run
//! a pipeline; step-level callers take the built [`Pipeline`] from
//! [`Simulator::build`]:
//!
//! ```
//! use spp_cpu::{CpuConfig, Simulator};
//! use spp_pmem::Event;
//!
//! let events = [Event::Compute(16)];
//! let r = Simulator::new(&events)
//!     .config(CpuConfig::with_sp())
//!     .run()
//!     .expect("valid config");
//! assert_eq!(r.cpu.committed_uops, 16);
//! ```

use spp_mem::MemorySystem;
use spp_obs::ProbeHandle;
use spp_pmem::Event;

use crate::config::CpuConfig;
use crate::error::{DiagnosticSnapshot, SimError, SimErrorKind};
use crate::pipeline::Pipeline;
use crate::stats::SimResult;

/// Builder for one simulation run over a recorded micro-op trace.
///
/// Defaults: [`CpuConfig::baseline`], a private memory system derived
/// from the configuration, and no probe. Every setter consumes and
/// returns the builder; [`Simulator::run`] (or [`Simulator::build`] for
/// step-level control) finishes it.
#[derive(Debug)]
pub struct Simulator<'t> {
    events: &'t [Event],
    cfg: CpuConfig,
    mem: Option<MemorySystem>,
    probe: ProbeHandle,
}

impl<'t> Simulator<'t> {
    /// Starts a builder over `events` with the baseline configuration.
    pub fn new(events: &'t [Event]) -> Self {
        Simulator {
            events,
            cfg: CpuConfig::baseline(),
            mem: None,
            probe: ProbeHandle::disabled(),
        }
    }

    /// Sets the core configuration (baseline, SP256, or a custom point).
    pub fn config(mut self, cfg: CpuConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Supplies an explicitly constructed memory system — e.g. one
    /// sharing its memory controller with other cores. Without this the
    /// simulator builds a private one from the configuration.
    pub fn memory(mut self, mem: MemorySystem) -> Self {
        self.mem = Some(mem);
        self
    }

    /// Attaches an observability probe (see `spp-obs`). Probes observe
    /// epoch lifecycle, pcommit latency, fence stalls, and buffer
    /// occupancy; they never change simulated timing or architectural
    /// state.
    pub fn probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Validates the configuration and builds the pipeline without
    /// running it (for step-level tests and harnesses).
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::InvalidConfig`] if the memory
    /// configuration is structurally invalid.
    pub fn build(self) -> Result<Pipeline<'t>, SimError> {
        let invalid = |error| SimError {
            kind: SimErrorKind::InvalidConfig { error },
            snapshot: Box::new(DiagnosticSnapshot::default()),
        };
        let mem = match self.mem {
            Some(m) => {
                // An explicit memory system was already validated at its
                // own construction; still reject a contradictory core
                // config early.
                self.cfg.mem.validate().map_err(invalid)?;
                m
            }
            None => MemorySystem::try_new(self.cfg.mem).map_err(invalid)?,
        };
        let mut p = Pipeline::with_memory(self.events, self.cfg, mem);
        if self.probe.is_enabled() {
            p.set_probe(self.probe);
        }
        Ok(p)
    }

    /// Builds the pipeline and runs it to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::InvalidConfig`] for a rejected
    /// configuration, or the pipeline's [`SimError`] (watchdog expiry,
    /// deadlock, broken invariant) if the run fails.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.build()?.try_run()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use spp_mem::{shared_mem_ctrl, MemConfig, MemConfigError};
    use spp_obs::Collector;
    use spp_pmem::PAddr;

    fn barrier_trace(n: u64) -> Vec<Event> {
        let mut ev = Vec::new();
        for i in 0..n {
            let a = PAddr::new(4096 + i * 64);
            ev.push(Event::Store { addr: a, size: 8 });
            ev.push(Event::Clwb { addr: a });
            ev.push(Event::Sfence);
            ev.push(Event::Pcommit);
            ev.push(Event::Sfence);
            ev.push(Event::Compute(50));
        }
        ev
    }

    #[test]
    fn facade_matches_direct_pipeline() {
        let t = barrier_trace(20);
        for cfg in [CpuConfig::baseline(), CpuConfig::with_sp()] {
            let direct = Pipeline::new(&t, cfg).try_run().unwrap();
            let facade = Simulator::new(&t).config(cfg).run().unwrap();
            assert_eq!(direct, facade);
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_the_first_cycle() {
        let t = barrier_trace(1);
        let cfg = CpuConfig {
            mem: MemConfig {
                nvmm_banks: 0,
                ..MemConfig::paper()
            },
            ..CpuConfig::baseline()
        };
        let err = Simulator::new(&t).config(cfg).run().unwrap_err();
        assert_eq!(
            err.kind,
            SimErrorKind::InvalidConfig {
                error: MemConfigError::ZeroBanks
            }
        );
        assert!(err.to_string().contains("nvmm_banks"));
    }

    #[test]
    fn explicit_memory_system_is_used() {
        let t = barrier_trace(10);
        let cfg = CpuConfig::baseline();
        let mc = shared_mem_ctrl(cfg.mem).unwrap();
        let r = Simulator::new(&t)
            .config(cfg)
            .memory(MemorySystem::with_shared_mc(cfg.mem, mc.clone()))
            .run()
            .unwrap();
        // The shared controller saw this core's traffic.
        assert_eq!(mc.borrow().stats().pcommits, r.mc.pcommits);
        assert!(r.mc.pcommits > 0);
    }

    #[test]
    fn probe_attaches_and_observes_without_changing_the_result() {
        let t = barrier_trace(20);
        let plain = Simulator::new(&t)
            .config(CpuConfig::with_sp())
            .run()
            .unwrap();
        let collector = Collector::shared();
        let probed = Simulator::new(&t)
            .config(CpuConfig::with_sp())
            .probe(ProbeHandle::new(collector.clone()))
            .run()
            .unwrap();
        assert_eq!(plain, probed);
        let summary = collector.borrow().summary();
        assert!(summary.epochs_begun > 0, "probe must see epochs");
        assert!(summary.pcommits > 0, "probe must see pcommits");
        assert_eq!(summary.epochs_begun, probed.cpu.epochs);
    }
}
