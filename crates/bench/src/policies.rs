//! Scheduling policies under test, by name.

use themis_baselines::{Drf, Gandiva, Slaq, Tiresias};
use themis_core::actors::DistributedThemisScheduler;
use themis_core::config::ThemisConfig;
use themis_core::scheduler::ThemisScheduler;
use themis_protocol::network::LogMode;
use themis_sim::engine::SimConfig;
use themis_sim::scheduler::Scheduler;

/// A scheduling policy that can be instantiated for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Themis with a given configuration.
    Themis(ThemisConfig),
    /// Themis in distributed mode: the same auction, but every round runs
    /// as the §3.1 message exchange between an Arbiter actor and per-app
    /// Agent actors on the causal, fault-injecting actor transport
    /// (`themis_core::actors`). Picks up the scenario's `FaultConfig`
    /// through [`Policy::build_with`], and supports transport-level
    /// record/replay through [`Policy::build_with_log`].
    ThemisDist(ThemisConfig),
    /// The Gandiva placement-greedy emulation.
    Gandiva,
    /// The Tiresias least-attained-service emulation.
    Tiresias,
    /// The SLAQ quality-driven emulation.
    Slaq,
    /// Instantaneous dominant-resource fairness.
    Drf,
}

impl Policy {
    /// Themis with the paper's recommended defaults (`f = 0.8`).
    pub fn themis_default() -> Policy {
        Policy::Themis(ThemisConfig::default())
    }

    /// Distributed-mode Themis with the paper's recommended defaults.
    pub fn themis_dist_default() -> Policy {
        Policy::ThemisDist(ThemisConfig::default())
    }

    /// The four policies compared in the paper's macro-benchmarks
    /// (Figures 5–7), in presentation order.
    pub fn macrobenchmark_set() -> Vec<Policy> {
        vec![
            Policy::themis_default(),
            Policy::Gandiva,
            Policy::Slaq,
            Policy::Tiresias,
        ]
    }

    /// Every policy the sweep engine can run: both Themis modes plus all
    /// four baselines, in presentation order.
    pub fn all() -> Vec<Policy> {
        vec![
            Policy::themis_default(),
            Policy::themis_dist_default(),
            Policy::Gandiva,
            Policy::Slaq,
            Policy::Tiresias,
            Policy::Drf,
        ]
    }

    /// Parses a policy by its display name (as printed by [`Policy::name`]).
    /// A parsed Themis carries the default config; scenario knobs are
    /// applied by `Scenario::instantiate`.
    pub fn parse(name: &str) -> Option<Policy> {
        Policy::all().into_iter().find(|p| p.name() == name)
    }

    /// Whether this is the Themis auction in either mode (the policies the
    /// scenario fairness-knob and ρ-error axes apply to).
    pub fn is_themis(&self) -> bool {
        matches!(self, Policy::Themis(_) | Policy::ThemisDist(_))
    }

    /// Whether this is the message-driven distributed mode (the only
    /// policy the scenario fault axis applies to).
    pub fn is_distributed(&self) -> bool {
        matches!(self, Policy::ThemisDist(_))
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Themis(_) => "themis",
            Policy::ThemisDist(_) => "themis-dist",
            Policy::Gandiva => "gandiva",
            Policy::Tiresias => "tiresias",
            Policy::Slaq => "slaq",
            Policy::Drf => "drf",
        }
    }

    /// Instantiates the scheduler with default engine plumbing (reliable
    /// transport for distributed mode).
    pub fn build(&self) -> Box<dyn Scheduler> {
        self.build_with(&SimConfig::default())
    }

    /// Instantiates the scheduler for a concrete engine configuration.
    /// Distributed-mode Themis picks up `sim.fault` — this is how a
    /// scenario's fault axis reaches the transport layer — and SLAQ values
    /// GPUs over `sim.lease_duration`; every other policy ignores the
    /// engine config.
    pub fn build_with(&self, sim: &SimConfig) -> Box<dyn Scheduler> {
        self.build_with_log(sim, LogMode::Off)
    }

    /// Like [`Policy::build_with`], but additionally wires a transport
    /// [`LogMode`] into distributed-mode Themis: `Record` transcribes every
    /// send/deliver/timer decision into a `MessageLog`, `Replay` re-executes
    /// a previous run from its log alone. Every other policy has no
    /// transport, so the mode is ignored.
    pub fn build_with_log(&self, sim: &SimConfig, mode: LogMode) -> Box<dyn Scheduler> {
        match self {
            Policy::Themis(config) => Box::new(ThemisScheduler::new(*config)),
            Policy::ThemisDist(config) => {
                let mut scheduler =
                    DistributedThemisScheduler::with_log_mode(*config, sim.fault, mode);
                if let Some(deadline) = sim.bid_deadline {
                    scheduler = scheduler.with_bid_deadline(deadline);
                }
                Box::new(scheduler)
            }
            Policy::Gandiva => Box::new(Gandiva::new()),
            Policy::Tiresias => Box::new(Tiresias::new()),
            Policy::Slaq => Box::new(Slaq::new(sim.lease_duration)),
            Policy::Drf => Box::new(Drf::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_builders() {
        for policy in Policy::macrobenchmark_set() {
            let scheduler = policy.build();
            assert_eq!(scheduler.name(), policy.name());
        }
        assert_eq!(Policy::Drf.build().name(), "drf");
    }

    #[test]
    fn macrobenchmark_set_has_four_policies() {
        let set = Policy::macrobenchmark_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].name(), "themis");
    }

    #[test]
    fn parse_round_trips_every_policy() {
        for policy in Policy::all() {
            assert_eq!(Policy::parse(policy.name()), Some(policy));
        }
        assert_eq!(Policy::parse("nope"), None);
        assert_eq!(Policy::all().len(), 6);
    }

    #[test]
    fn only_themis_is_themis() {
        assert!(Policy::themis_default().is_themis());
        assert!(Policy::themis_dist_default().is_themis());
        for policy in [Policy::Gandiva, Policy::Slaq, Policy::Tiresias, Policy::Drf] {
            assert!(!policy.is_themis());
        }
    }

    #[test]
    fn only_dist_is_distributed() {
        assert!(Policy::themis_dist_default().is_distributed());
        assert_eq!(Policy::themis_dist_default().build().name(), "themis-dist");
        for policy in Policy::macrobenchmark_set() {
            assert!(!policy.is_distributed());
        }
    }
}
