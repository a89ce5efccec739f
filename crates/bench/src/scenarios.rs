//! Declarative simulation scenarios and the cartesian scenario matrix.
//!
//! The paper's evaluation (§8) is a *matrix* of experiments: contention
//! levels × fairness-knob settings × lease durations × estimator error ×
//! placement-sensitivity mixes, each run for Themis and four baselines.
//! This module makes that matrix a first-class value:
//!
//! * [`Scenario`] pins down one simulation cell — cluster shape, trace
//!   configuration, fairness/lease/error knobs and the seeds — and can
//!   [`run`](Scenario::run) any [`Policy`] on it deterministically; its
//!   [`id`](Scenario::id) is its only serialization, parsed back by
//!   [`Scenario::from_id`],
//! * [`Matrix`] is a grid of scenarios grown from one base scenario by one
//!   [`axis`](Matrix::axis) step per varied axis,
//! * the named matrices ([`Matrix::smoke`], [`Matrix::full`],
//!   [`Matrix::stress`], [`Matrix::faults`], [`Matrix::scale`],
//!   [`Matrix::hetero`], [`Matrix::service`], [`Matrix::soak`],
//!   [`Matrix::storm`]; [`Matrix::NAMED`]) are the sweeps `themis sweep`
//!   and CI run.
//!
//! The simulated figures in [`crate::experiments`] are cell tables over
//! scenarios: each figure lists the `(scenario, policy)` cells its rows
//! read, and the figure runner simulates every distinct cell once.

use crate::policies::Policy;
use parking_lot::Mutex;
use std::sync::Arc;
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_cluster::topology::{ClusterSpec, GpuGeneration};
use themis_core::config::ThemisConfig;
use themis_protocol::fault::FaultConfig;
use themis_protocol::log::MessageLog;
use themis_protocol::network::LogMode;
use themis_sim::arrivals::{ArrivalProcess, ArrivalShape};
use themis_sim::engine::{Engine, SimConfig};
use themis_sim::metrics::SimReport;
use themis_sim::service::{ServiceConfig, ServiceEngine, ServiceReport, StreamSource};
use themis_sim::window::SteadyConfig;
use themis_workload::app::AppSpec;
use themis_workload::stream::TraceStream;
use themis_workload::trace::{TraceConfig, TraceGenerator};

/// The GPU-generation mix of a scenario's cluster: which speed classes the
/// machines cycle through (see [`ClusterSpec::with_generation_cycle`]).
///
/// This is the heterogeneity axis of the scenario matrix. [`GenMix::Uniform`]
/// reproduces the paper's identical-GPU fleet exactly (every machine at the
/// reference speed 1.0), so uniform cells are byte-identical to the
/// pre-heterogeneity sweep; the mixed values open the axis the paper's §8
/// leaves closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GenMix {
    /// Every machine at the reference generation (speed 1.0) — the paper's
    /// uniform fleet.
    #[default]
    Uniform,
    /// Two generations at a 2:1 speed ratio, alternating per machine
    /// (Volta 2.0 / Pascal 1.0).
    TwoGen,
    /// Three generations at 4:2:1 speeds cycling per machine
    /// (Volta 2.0 / Pascal 1.0 / Kepler 0.5).
    ThreeGen,
}

impl GenMix {
    /// Every mix, uniform first.
    pub const ALL: [GenMix; 3] = [GenMix::Uniform, GenMix::TwoGen, GenMix::ThreeGen];

    /// Stable identifier used in scenario ids and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            GenMix::Uniform => "uni",
            GenMix::TwoGen => "2gen",
            GenMix::ThreeGen => "3gen",
        }
    }

    /// Parses the identifier produced by [`GenMix::name`].
    pub fn parse(name: &str) -> Option<GenMix> {
        GenMix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The machine-generation cycle this mix assigns round-robin.
    pub fn cycle(&self) -> &'static [GpuGeneration] {
        match self {
            GenMix::Uniform => &[GpuGeneration::Pascal],
            GenMix::TwoGen => &[GpuGeneration::Volta, GpuGeneration::Pascal],
            GenMix::ThreeGen => &[
                GpuGeneration::Volta,
                GpuGeneration::Pascal,
                GpuGeneration::Kepler,
            ],
        }
    }
}

impl std::fmt::Display for GenMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The burst shape of a service-mode cell's arrival process — which
/// time-varying rate modulation the open-system [`ArrivalProcess`] applies.
/// Concrete shape parameters (cycle period, storm position) are derived
/// from the cell's horizon in [`ServiceShape::arrival_shape`], so the axis
/// stays a single stable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceShape {
    /// Constant-rate Poisson arrivals.
    #[default]
    Poisson,
    /// A day/night cycle: the rate swings ±80% over a period of a quarter
    /// of the horizon (so every cell sees several full cycles).
    Diurnal,
    /// A flash crowd: 4× the base rate for one eighth of the horizon,
    /// starting a quarter of the way in.
    Flash,
}

impl ServiceShape {
    /// Every shape, stationary first.
    pub const ALL: [ServiceShape; 3] = [
        ServiceShape::Poisson,
        ServiceShape::Diurnal,
        ServiceShape::Flash,
    ];

    /// Stable identifier used in scenario ids and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceShape::Poisson => "poisson",
            ServiceShape::Diurnal => "diurnal",
            ServiceShape::Flash => "flash",
        }
    }

    /// Parses the identifier produced by [`ServiceShape::name`].
    pub fn parse(name: &str) -> Option<ServiceShape> {
        ServiceShape::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The concrete arrival-process shape for a cell with this horizon.
    pub fn arrival_shape(&self, horizon: Time) -> ArrivalShape {
        match self {
            ServiceShape::Poisson => ArrivalShape::Poisson,
            ServiceShape::Diurnal => ArrivalShape::Diurnal {
                period: horizon / 4.0,
                amplitude: 0.8,
            },
            ServiceShape::Flash => ArrivalShape::FlashCrowd {
                at: horizon / 4.0,
                width: horizon / 8.0,
                factor: 4.0,
            },
        }
    }
}

impl std::fmt::Display for ServiceShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The service-mode axis of a scenario. When present, the cell runs the
/// open-system [`ServiceEngine`] (continuous admission/retirement, rolling
/// windows, incremental rounds) instead of the batch engine, and the
/// scenario's `apps` count is ignored — the arrival stream is unbounded up
/// to the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceAxis {
    /// Burst shape of the arrival process.
    pub shape: ServiceShape,
    /// Arrival-rate multiplier over the scenario's trace mean inter-arrival
    /// time — the utilization target of the open system. Values below 1
    /// under-load the cluster (the incremental hot path's home turf);
    /// values above 1 run it in sustained overload.
    pub rate: f64,
    /// Admission/simulation horizon in simulated minutes.
    pub horizon_minutes: f64,
}

impl ServiceAxis {
    /// A service axis with the given shape, rate and horizon.
    pub fn new(shape: ServiceShape, rate: f64, horizon_minutes: f64) -> ServiceAxis {
        assert!(rate > 0.0, "service arrival rate must be positive");
        assert!(horizon_minutes > 0.0, "service horizon must be positive");
        ServiceAxis {
            shape,
            rate,
            horizon_minutes,
        }
    }
}

/// The storm axis of a scenario. When present, every app in the trace
/// arrives at time zero — the all-at-once fan-in that stresses the
/// Arbiter's inbox — and the auction's round deadline is overridden with
/// the axis value. Combined with the `FaultConfig` arbiter-service-time
/// and batching knobs this is the grid the `storm` matrix sweeps: how
/// does per-round completion degrade as the message storm grows with app
/// count, and does coalescing (or a longer deadline) buy it back?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormAxis {
    /// Round (bid) deadline in minutes; ρ reports are due at half of it.
    /// The actor runtime's default is 0.5 (30 s).
    pub bid_deadline_minutes: f64,
}

impl StormAxis {
    /// A storm axis with the given round deadline.
    pub fn new(bid_deadline_minutes: f64) -> StormAxis {
        assert!(
            bid_deadline_minutes > 0.0,
            "storm bid deadline must be positive"
        );
        StormAxis {
            bid_deadline_minutes,
        }
    }
}

/// The cluster shapes scenarios can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterKind {
    /// The paper's simulated 256-GPU heterogeneous cluster (§8.1).
    Sim256,
    /// The paper's 50-GPU testbed (durations scaled 1/5, §8.3).
    Testbed50,
    /// A small 16-GPU rack (1 rack × 4 machines × 4 GPUs) for smoke tests
    /// and property tests where contention is easy to provoke.
    Rack16,
    /// A synthetic 1024-GPU cluster (16 racks × 16 machines × 4 GPUs) for
    /// scale studies beyond the paper's evaluation.
    Scale1024,
    /// A synthetic 4096-GPU cluster (32 racks × 32 machines × 4 GPUs) —
    /// the `scale` matrix's largest cell. Only tractable with the dense
    /// arena-backed scheduler core.
    Scale4096,
}

impl ClusterKind {
    /// All cluster kinds, in size order.
    pub const ALL: [ClusterKind; 5] = [
        ClusterKind::Rack16,
        ClusterKind::Testbed50,
        ClusterKind::Sim256,
        ClusterKind::Scale1024,
        ClusterKind::Scale4096,
    ];

    /// Stable identifier used in scenario ids and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterKind::Sim256 => "sim256",
            ClusterKind::Testbed50 => "testbed50",
            ClusterKind::Rack16 => "rack16",
            ClusterKind::Scale1024 => "scale1024",
            ClusterKind::Scale4096 => "scale4096",
        }
    }

    /// Parses the identifier produced by [`ClusterKind::name`].
    pub fn parse(name: &str) -> Option<ClusterKind> {
        ClusterKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the concrete topology.
    pub fn spec(&self) -> ClusterSpec {
        match self {
            ClusterKind::Sim256 => ClusterSpec::heterogeneous_256(),
            ClusterKind::Testbed50 => ClusterSpec::testbed_50(),
            ClusterKind::Rack16 => ClusterSpec::homogeneous(1, 4, 4),
            ClusterKind::Scale1024 => ClusterSpec::synthetic(16, 16, 4),
            ClusterKind::Scale4096 => ClusterSpec::synthetic(32, 32, 4),
        }
    }

    /// The trace configuration the paper pairs with this cluster:
    /// full-length durations for the simulated cluster, 1/5-scaled
    /// durations for the 50-GPU testbed, the small rack and the synthetic
    /// scale clusters (the scale matrix studies round cost, not long-run
    /// convergence, so short jobs keep its wall-clock in seconds).
    pub fn base_trace_config(&self) -> TraceConfig {
        match self {
            ClusterKind::Sim256 => TraceConfig::default(),
            ClusterKind::Testbed50
            | ClusterKind::Rack16
            | ClusterKind::Scale1024
            | ClusterKind::Scale4096 => TraceConfig::testbed(),
        }
    }
}

/// One fully specified simulation cell, minus the policy.
///
/// Two scenarios with equal fields produce byte-identical traces and — for
/// a fixed policy — byte-identical [`SimReport`]s; that determinism is what
/// the sweep baseline in CI leans on.
///
/// ```
/// use themis_bench::policies::Policy;
/// use themis_bench::scenarios::{ClusterKind, GenMix, Scenario};
///
/// // A contended 16-GPU cell on a two-generation cluster, run end to end.
/// let scenario = Scenario::new(ClusterKind::Rack16, 3, 42)
///     .with_contention(2.0)
///     .with_gen_mix(GenMix::TwoGen);
/// assert_eq!(scenario.cluster_spec().total_gpus(), 16);
/// assert!(!scenario.cluster_spec().is_unit_speed());
///
/// let report = scenario.run(Policy::themis_default());
/// assert_eq!(report.finished_apps(), 3);
/// // Same axes ⇒ byte-identical report (the CI determinism contract).
/// assert_eq!(report, scenario.run(Policy::themis_default()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Cluster shape.
    pub cluster: ClusterKind,
    /// GPU-generation mix applied to the cluster (the heterogeneity axis).
    pub gen_mix: GenMix,
    /// Number of apps in the generated trace.
    pub apps: usize,
    /// Contention factor: arrival rate multiplier (§8.4.2; 2.0 halves the
    /// mean inter-arrival time).
    pub contention: f64,
    /// Fraction of network-intensive (placement-sensitive) apps (§8.4.1).
    pub network_fraction: f64,
    /// Themis fairness knob `f` (§8.2). Ignored by the baselines.
    pub fairness_knob: f64,
    /// Lease duration in minutes (§8.2).
    pub lease_minutes: f64,
    /// Relative ρ-estimation error θ injected into Themis bids (§8.4.3).
    /// Ignored by the baselines.
    pub rho_error: f64,
    /// Fraction of apps arriving in bursts (trace knob; 0 = pure Poisson).
    pub burst_fraction: f64,
    /// Fraction of jobs demanding 8 GPUs (trace knob; 0 = paper workload).
    pub heavy_job_fraction: f64,
    /// Transport fault injection for the distributed-mode policy
    /// (`themis-dist`): message-drop probability, delivery delay and the
    /// agent-crash schedule. Ignored by every in-process policy. The
    /// fault RNG seed is derived from `scheduler_seed` at run time, so a
    /// cell stays a pure function of its axis values.
    pub fault: FaultConfig,
    /// Trace-generator seed.
    pub seed: u64,
    /// Seed for the scheduler's internal tie-breaking / error-injection
    /// randomness. Kept separate from the trace seed so the experiment
    /// views can reproduce the paper figures exactly.
    pub scheduler_seed: u64,
    /// Service-mode axis: `None` (the default) runs the closed-system batch
    /// engine; `Some` runs the open-system service engine instead (see
    /// [`Scenario::run_service`]).
    pub service: Option<ServiceAxis>,
    /// Storm axis: `None` (the default) leaves arrivals and the round
    /// deadline alone; `Some` collapses every arrival to time zero and
    /// overrides the auction's bid deadline (see [`StormAxis`]).
    pub storm: Option<StormAxis>,
}

impl Scenario {
    /// A scenario on `cluster` with `apps` apps and the paper's default
    /// knobs (contention 1×, 40% network-intensive, `f = 0.8`, 20-minute
    /// lease, no error, pure Poisson arrivals, no heavy jobs).
    pub fn new(cluster: ClusterKind, apps: usize, seed: u64) -> Scenario {
        Scenario {
            cluster,
            gen_mix: GenMix::Uniform,
            apps,
            contention: 1.0,
            network_fraction: 0.4,
            fairness_knob: 0.8,
            lease_minutes: 20.0,
            rho_error: 0.0,
            burst_fraction: 0.0,
            heavy_job_fraction: 0.0,
            fault: FaultConfig::reliable(),
            seed,
            scheduler_seed: 0,
            service: None,
            storm: None,
        }
    }

    /// Sets the contention factor.
    pub fn with_contention(mut self, factor: f64) -> Scenario {
        self.contention = factor;
        self
    }

    /// Sets the network-intensive app fraction.
    pub fn with_network_fraction(mut self, fraction: f64) -> Scenario {
        self.network_fraction = fraction;
        self
    }

    /// Sets the Themis fairness knob.
    pub fn with_fairness_knob(mut self, f: f64) -> Scenario {
        self.fairness_knob = f;
        self
    }

    /// Sets the lease duration in minutes.
    pub fn with_lease_minutes(mut self, lease: f64) -> Scenario {
        self.lease_minutes = lease;
        self
    }

    /// Sets the ρ-error injection range.
    pub fn with_rho_error(mut self, theta: f64) -> Scenario {
        self.rho_error = theta;
        self
    }

    /// Sets the scheduler-internal seed.
    pub fn with_scheduler_seed(mut self, seed: u64) -> Scenario {
        self.scheduler_seed = seed;
        self
    }

    /// Sets the transport fault injection for distributed-mode cells.
    pub fn with_fault(mut self, fault: FaultConfig) -> Scenario {
        self.fault = fault;
        self
    }

    /// Sets the GPU-generation mix of the cluster.
    pub fn with_gen_mix(mut self, gen_mix: GenMix) -> Scenario {
        self.gen_mix = gen_mix;
        self
    }

    /// Switches the scenario to service mode with the given axis.
    pub fn with_service(mut self, axis: ServiceAxis) -> Scenario {
        self.service = Some(axis);
        self
    }

    /// Switches the scenario to storm mode with the given axis.
    pub fn with_storm(mut self, axis: StormAxis) -> Scenario {
        self.storm = Some(axis);
        self
    }

    /// The concrete cluster topology this scenario runs on: the cluster
    /// kind's base spec with the generation mix applied. [`GenMix::Uniform`]
    /// yields the base spec unchanged (every constructor already builds
    /// reference-generation machines), preserving speed-1.0 purity.
    pub fn cluster_spec(&self) -> ClusterSpec {
        match self.gen_mix {
            GenMix::Uniform => self.cluster.spec(),
            mix => self.cluster.spec().with_generation_cycle(mix.cycle()),
        }
    }

    /// The scenario's one serialization, parsed back by
    /// [`Scenario::from_id`]: the cluster name, then a `-<tag><value>`
    /// component for every axis whose value differs from
    /// [`Scenario::new`]'s, in a fixed order (`docs/ARCHITECTURE.md` lists
    /// the tags). `a` (apps) and `s` (seed) are always written; `i`, the
    /// scheduler seed, defaults to `s`. A default never appears, so a new
    /// axis changes no existing id.
    ///
    /// ```
    /// use themis_bench::scenarios::{ClusterKind, Scenario};
    ///
    /// let s = Scenario::new(ClusterKind::Testbed50, 8, 42)
    ///     .with_contention(2.0)
    ///     .with_scheduler_seed(42);
    /// assert_eq!(s.id(), "testbed50-a8-x2-s42");
    /// assert_eq!(Scenario::from_id(&s.id()), Ok(s));
    /// ```
    pub fn id(&self) -> String {
        let default = Scenario::new(self.cluster, self.apps, self.seed)
            .with_scheduler_seed(self.seed)
            .components();
        let mut id = self.cluster.name().to_string();
        for ((tag, value), (_, default)) in self.components().into_iter().zip(default) {
            if value != default || tag == 'a' || tag == 's' {
                id.push('-');
                id.push(tag);
                id.push_str(&value);
            }
        }
        id
    }

    /// Every id component as `(tag, value)`, in id order; an absent
    /// service or storm axis reads as empty.
    fn components(&self) -> [(char, String); 25] {
        let (f, service, storm) = (&self.fault, self.service, self.storm);
        let axis = |value: Option<String>| value.unwrap_or_default();
        [
            ('g', self.gen_mix.to_string()),
            ('a', self.apps.to_string()),
            ('x', self.contention.to_string()),
            ('n', self.network_fraction.to_string()),
            ('f', self.fairness_knob.to_string()),
            ('l', self.lease_minutes.to_string()),
            ('e', self.rho_error.to_string()),
            ('b', self.burst_fraction.to_string()),
            ('h', self.heavy_job_fraction.to_string()),
            ('d', f.drop_probability.to_string()),
            ('y', f.delay.as_minutes().to_string()),
            ('c', format!("{}x{}", f.crash_period, f.crash_rounds)),
            ('j', f.jitter.as_minutes().to_string()),
            ('w', f.bandwidth.to_string()),
            (
                'p',
                format!("{}x{}", f.partition_period, f.partition_rounds),
            ),
            ('o', f.failover_period.to_string()),
            ('q', f.seed.to_string()),
            ('s', self.seed.to_string()),
            ('i', self.scheduler_seed.to_string()),
            ('u', f.arbiter_service_time.as_minutes().to_string()),
            ('k', f.arbiter_batch.to_string()),
            ('v', axis(service.map(|a| a.shape.to_string()))),
            ('r', axis(service.map(|a| a.rate.to_string()))),
            ('z', axis(service.map(|a| a.horizon_minutes.to_string()))),
            ('t', axis(storm.map(|a| a.bid_deadline_minutes.to_string()))),
        ]
    }

    /// Parses an id written by [`Scenario::id`]. Hostile input is an `Err`
    /// naming the offending tag, never a panic: an unknown, repeated or
    /// missing tag, a non-finite number, a fraction (network, fairness knob,
    /// burst, heavy job, drop) outside `[0, 1]`, a ρ error outside `[0, 1)`,
    /// a negative time or bandwidth, a non-positive contention, lease,
    /// service rate, horizon or storm deadline, or a non-canonical spelling.
    /// The numeric domains are the ones the trace generator, the Themis
    /// config and the engine assert on, so a parsed id does not panic there
    /// either.
    pub fn from_id(id: &str) -> Result<Scenario, String> {
        const UNIT: (fn(f64) -> bool, &str) = (|x| (0.0..=1.0).contains(&x), "in [0, 1]");
        const BELOW_ONE: (fn(f64) -> bool, &str) = (|x| (0.0..1.0).contains(&x), "in [0, 1)");
        const NON_NEGATIVE: (fn(f64) -> bool, &str) = (|x| x >= 0.0, "non-negative");
        const POSITIVE: (fn(f64) -> bool, &str) = (|x| x > 0.0, "positive");
        fn num(tag: char, v: &str, (ok, rule): (fn(f64) -> bool, &str)) -> Result<f64, String> {
            match v.parse::<f64>() {
                Err(_) => Err(format!("tag '{tag}': {v:?} is not a number")),
                Ok(x) if !x.is_finite() => Err(format!("tag '{tag}': {v:?} is not finite")),
                Ok(x) if !ok(x) => Err(format!("tag '{tag}': {v} must be {rule}")),
                Ok(x) => Ok(x),
            }
        }
        fn int(tag: char, v: &str) -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("tag '{tag}': {v:?} is not a non-negative integer"))
        }
        fn pair(tag: char, v: &str) -> Result<(u64, u64), String> {
            let (period, rounds) = v.split_once('x').unwrap_or((v, ""));
            Ok((int(tag, period)?, int(tag, rounds)?))
        }
        fn minutes(tag: char, v: &str) -> Result<Time, String> {
            Ok(Time::minutes(num(tag, v, NON_NEGATIVE)?))
        }

        let mut pieces = id.split('-').peekable();
        let name = pieces.next().unwrap_or_default();
        let cluster = ClusterKind::parse(name)
            .ok_or_else(|| format!("id must start with a cluster name, got {name:?}"))?;
        let mut s = Scenario::new(cluster, 0, 0);
        let (mut apps, mut seed, mut scheduler_seed) = (None, None, None);
        let (mut shape, mut rate, mut horizon) = (None, None, None);
        let (f, mut seen) = (&mut s.fault, String::new());
        while let Some(piece) = pieces.next() {
            let tag = piece.chars().next().ok_or("empty component")?;
            if seen.contains(tag) {
                return Err(format!("tag '{tag}' repeated"));
            }
            seen.push(tag);
            let mut value = piece[tag.len_utf8()..].to_string();
            // A piece starting with a digit is the rest of a negative
            // number ("x-1").
            while let Some(rest) = pieces.next_if(|p| p.starts_with(|c: char| c.is_ascii_digit())) {
                value = format!("{value}-{rest}");
            }
            let v = value.as_str();
            match tag {
                'g' => {
                    s.gen_mix = GenMix::parse(v)
                        .ok_or_else(|| format!("tag 'g': unknown generation mix {v:?}"))?;
                }
                'a' => apps = Some(int(tag, v)?),
                'x' => s.contention = num(tag, v, POSITIVE)?,
                'n' => s.network_fraction = num(tag, v, UNIT)?,
                'f' => s.fairness_knob = num(tag, v, UNIT)?,
                'l' => s.lease_minutes = num(tag, v, POSITIVE)?,
                'e' => s.rho_error = num(tag, v, BELOW_ONE)?,
                'b' => s.burst_fraction = num(tag, v, UNIT)?,
                'h' => s.heavy_job_fraction = num(tag, v, UNIT)?,
                'd' => f.drop_probability = num(tag, v, UNIT)?,
                'y' => f.delay = minutes(tag, v)?,
                'c' => (f.crash_period, f.crash_rounds) = pair(tag, v)?,
                'j' => f.jitter = minutes(tag, v)?,
                'w' => f.bandwidth = num(tag, v, NON_NEGATIVE)?,
                'p' => (f.partition_period, f.partition_rounds) = pair(tag, v)?,
                'o' => f.failover_period = int(tag, v)?,
                'q' => f.seed = int(tag, v)?,
                's' => seed = Some(int(tag, v)?),
                'i' => scheduler_seed = Some(int(tag, v)?),
                'u' => f.arbiter_service_time = minutes(tag, v)?,
                'k' => f.arbiter_batch = int(tag, v)?,
                'v' => {
                    shape = Some(
                        ServiceShape::parse(v)
                            .ok_or_else(|| format!("tag 'v': unknown service shape {v:?}"))?,
                    );
                }
                'r' => rate = Some(num(tag, v, POSITIVE)?),
                'z' => horizon = Some(num(tag, v, POSITIVE)?),
                // Built as a literal, not via the asserting constructor.
                't' => {
                    s.storm = Some(StormAxis {
                        bid_deadline_minutes: num(tag, v, POSITIVE)?,
                    });
                }
                _ => return Err(format!("unknown tag '{tag}'")),
            }
        }
        let apps = apps.ok_or("missing tag 'a' (apps)")?;
        s.apps = usize::try_from(apps).map_err(|_| format!("tag 'a': {apps} apps do not fit"))?;
        s.seed = seed.ok_or("missing tag 's' (seed)")?;
        s.scheduler_seed = scheduler_seed.unwrap_or(s.seed);
        s.service = match (shape, rate, horizon) {
            (None, None, None) => None,
            (Some(shape), Some(rate), Some(horizon_minutes)) => Some(ServiceAxis {
                shape,
                rate,
                horizon_minutes,
            }),
            _ => return Err("tags 'v', 'r' and 'z' (the service axis) come together".into()),
        };
        let canonical = s.id();
        if canonical != id {
            return Err(format!(
                "{id:?} is not canonical: the scenario it names is written {canonical:?}"
            ));
        }
        Ok(s)
    }

    /// The trace configuration this scenario generates apps from.
    pub fn trace_config(&self) -> TraceConfig {
        let mut config = self
            .cluster
            .base_trace_config()
            .with_num_apps(self.apps)
            .with_seed(self.seed)
            .with_network_intensive_fraction(self.network_fraction)
            .with_contention(self.contention)
            .with_heavy_job_fraction(self.heavy_job_fraction);
        if self.burst_fraction > 0.0 {
            config = config.with_burstiness(self.burst_fraction);
        }
        config
    }

    /// Generates the (deterministic) trace. A storm scenario collapses
    /// every arrival to time zero *after* generation, so the trace RNG
    /// stream — and with it every job's shape — is untouched by the axis.
    pub fn trace(&self) -> Vec<AppSpec> {
        let mut trace = TraceGenerator::new(self.trace_config()).generate();
        if self.storm.is_some() {
            for spec in &mut trace {
                spec.arrival = Time::ZERO;
            }
        }
        trace
    }

    /// The engine configuration: the scenario's lease, the paper's 1-minute
    /// checkpoint overhead, the experiment harness's 2M-minute horizon and
    /// the fault plumbing for distributed-mode cells (the fault RNG is
    /// seeded from the scheduler seed). The engine retries a round lost to
    /// message faults exactly when the fault config is not reliable.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = SimConfig::default()
            .with_lease(Time::minutes(self.lease_minutes))
            .with_max_sim_time(Time::minutes(2_000_000.0))
            .with_faults(
                self.fault
                    .with_seed(self.scheduler_seed.wrapping_add(self.fault.seed)),
            );
        if let Some(storm) = &self.storm {
            config = config
                .with_bid_deadline(Time::minutes(storm.bid_deadline_minutes))
                // Storm cells measure round completion under congestion,
                // not long-run convergence. A reliable storm finishes in a
                // few thousand simulated minutes; a congested Arbiter can
                // starve apps for hundreds of thousands, so the horizon is
                // capped — a cell that hits it reports unfinished apps,
                // which is itself the degradation signal.
                .with_max_sim_time(Time::minutes(Matrix::STORM_HORIZON_MINUTES));
        }
        config
    }

    /// Applies the scenario's Themis knobs to a policy. Themis picks up the
    /// fairness knob, ρ-error and scheduler seed; baselines are returned
    /// unchanged (they have no tunables).
    pub fn instantiate(&self, policy: Policy) -> Policy {
        let themis_config = || {
            ThemisConfig::default()
                .with_fairness_knob(self.fairness_knob)
                .with_rho_error(self.rho_error)
                .with_seed(self.scheduler_seed)
        };
        match policy {
            Policy::Themis(_) => Policy::Themis(themis_config()),
            Policy::ThemisDist(_) => Policy::ThemisDist(themis_config()),
            other => other,
        }
    }

    /// Runs `policy` on this scenario to completion.
    pub fn run(&self, policy: Policy) -> SimReport {
        self.run_on_trace(policy, self.trace())
    }

    /// Runs `policy` on a prebuilt trace (which must come from
    /// [`Scenario::trace`]). Callers comparing several policies on one
    /// scenario generate the trace once and clone it, instead of
    /// regenerating it per policy.
    pub fn run_on_trace(&self, policy: Policy, trace: Vec<AppSpec>) -> SimReport {
        self.run_on_trace_with_log(policy, trace, LogMode::Off)
    }

    /// Runs `policy` on a prebuilt trace with an explicit transport
    /// [`LogMode`]. Only distributed-mode Themis has a transport; every
    /// other policy ignores the mode (see `Policy::build_with_log`).
    pub fn run_on_trace_with_log(
        &self,
        policy: Policy,
        trace: Vec<AppSpec>,
        mode: LogMode,
    ) -> SimReport {
        let cluster = Cluster::new(self.cluster_spec());
        let config = self.sim_config();
        Engine::new(
            cluster,
            trace,
            self.instantiate(policy).build_with_log(&config, mode),
            config,
        )
        .run()
    }

    /// Runs `policy` to completion while transcribing every transport
    /// decision — send fates, deliveries, timers — into the returned
    /// [`MessageLog`]. For a non-distributed policy the log comes back
    /// empty: only the actor transport makes decisions worth recording.
    pub fn run_recorded(&self, policy: Policy) -> (SimReport, MessageLog) {
        let log = Arc::new(Mutex::new(MessageLog::new()));
        let report =
            self.run_on_trace_with_log(policy, self.trace(), LogMode::record(Arc::clone(&log)));
        let log = Arc::try_unwrap(log)
            .expect("engine dropped its log handle at run end")
            .into_inner();
        (report, log)
    }

    /// Re-runs `policy` taking every transport decision from `log` instead
    /// of the fault RNG. A faithful log reproduces the recorded run
    /// byte-for-byte (the replay-gate invariant); a divergent, truncated
    /// or corrupted log panics with a record-index diagnostic.
    pub fn run_replayed(&self, policy: Policy, log: MessageLog) -> SimReport {
        self.run_on_trace_with_log(policy, self.trace(), LogMode::replay(Arc::new(log)))
    }

    /// The service-engine configuration of a service-mode scenario: the
    /// axis horizon, a heartbeat of half the lease (so windowed metrics
    /// keep moving through idle stretches), and rolling-window/steady-state
    /// parameters scaled to the horizon. The ρ window is a quarter of the
    /// horizon and the detector asks for few samples in it: apps on these
    /// traces live for hundreds of simulated minutes, so retirements — the
    /// only source of achieved-ρ samples — are scarce, and a tight window
    /// would starve the detector no matter how stable the system is. The
    /// backlog-swing guard, not the ρ band, is what separates a storm from
    /// steady state. Panics if the scenario has no service axis.
    pub fn service_config(&self) -> ServiceConfig {
        let axis = self
            .service
            .expect("service_config() needs a service axis (use with_service)");
        let horizon = Time::minutes(axis.horizon_minutes);
        ServiceConfig {
            horizon,
            tick_interval: Some(Time::minutes(self.lease_minutes / 2.0)),
            window: horizon / 4.0,
            steady: SteadyConfig {
                warmup: horizon / 8.0,
                check_interval: horizon / 40.0,
                min_samples: 3,
                tolerance: 0.5,
                consecutive: 3,
                backlog_slack: 4,
            },
        }
    }

    /// Runs `policy` on this scenario's service axis: an open-system run
    /// where the [`ArrivalProcess`] (seeded from the scenario seed,
    /// modulated by the axis shape) paces an unbounded [`TraceStream`] of
    /// apps into the [`ServiceEngine`] until the horizon. Incremental
    /// rounds are enabled — schedulers that support the skip contract get
    /// the hot path, everything else transparently runs every auction.
    /// Panics if the scenario has no service axis.
    pub fn run_service(&self, policy: Policy) -> ServiceReport {
        let axis = self
            .service
            .expect("run_service() needs a service axis (use with_service)");
        let horizon = Time::minutes(axis.horizon_minutes);
        let trace_config = self.trace_config();
        let mean = trace_config.mean_interarrival / axis.rate;
        let arrivals = ArrivalProcess::new(axis.shape.arrival_shape(horizon), mean, self.seed);
        let source = StreamSource::new(arrivals, TraceStream::new(trace_config), horizon);
        let cluster = Cluster::new(self.cluster_spec());
        let sim = self.sim_config().with_incremental(true);
        let scheduler = self.instantiate(policy).build_with(&sim);
        ServiceEngine::new(cluster, scheduler, sim, self.service_config(), source).run()
    }
}

/// A declarative scenario matrix: the scenarios of a grid and the policies
/// to run on each.
///
/// A matrix grows from one base scenario ([`Matrix::new`]) by one
/// [`axis`](Matrix::axis) step per varied axis, later axes varying
/// fastest, so [`Matrix::expand`] is the cartesian product in axis order.
/// Axes that only affect Themis (`fairness_knob`, `rho_error`) or only the
/// distributed mode (`fault`) are deduped per baseline by
/// [`Matrix::cells`]: a baseline runs only their first value, since the
/// remaining combinations would be byte-identical re-runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Name of the matrix ("smoke", "full", ...), recorded in the report.
    pub name: String,
    /// Every scenario of the grid, in expansion order.
    pub scenarios: Vec<Scenario>,
    /// Policies to run on every scenario.
    pub policies: Vec<Policy>,
}

impl Matrix {
    /// A one-scenario matrix to grow axes on: `cluster` with `apps` apps,
    /// trace and scheduler seed `seed`, every other axis at
    /// [`Scenario::new`]'s default.
    pub fn new(
        name: &str,
        cluster: ClusterKind,
        apps: usize,
        seed: u64,
        policies: Vec<Policy>,
    ) -> Matrix {
        Matrix {
            name: name.to_string(),
            scenarios: vec![Scenario::new(cluster, apps, seed).with_scheduler_seed(seed)],
            policies,
        }
    }

    /// Crosses every scenario with every value of one more axis, the new
    /// axis varying fastest. `set` applies one value: a `Scenario::with_*`
    /// method, or a closure for a field without one.
    pub fn axis<T: Copy>(mut self, values: &[T], set: impl Fn(Scenario, T) -> Scenario) -> Matrix {
        let set = &set;
        self.scenarios = (self.scenarios.iter())
            .flat_map(|s| values.iter().map(move |&value| set(s.clone(), value)))
            .collect();
        self
    }

    /// The CI smoke matrix: small, pinned-seed, covers the contention,
    /// fairness-knob and burstiness axes on the 16-GPU rack. This is the
    /// matrix `BENCH_BASELINE.json` is generated from; keep it fast — CI
    /// runs it on every push.
    pub fn smoke() -> Matrix {
        Matrix::new("smoke", ClusterKind::Rack16, 6, 42, Policy::all())
            .axis(&[1.0, 2.0], Scenario::with_contention)
            .axis(&[0.8, 0.2], Scenario::with_fairness_knob)
            .axis(&[0.0, 0.5], |s, burst_fraction| Scenario {
                burst_fraction,
                ..s
            })
    }

    /// The paper-shaped evaluation matrix on the 50-GPU testbed: contention
    /// × placement mix × fairness knob × estimator error × two seeds.
    /// Hours of simulated sweep — run it locally, not in CI.
    pub fn full() -> Matrix {
        Matrix::new("full", ClusterKind::Testbed50, 20, 42, Policy::all())
            .axis(&[1.0, 2.0, 4.0], Scenario::with_contention)
            .axis(&[0.0, 0.5, 1.0], Scenario::with_network_fraction)
            .axis(&[0.2, 0.8], Scenario::with_fairness_knob)
            .axis(&[0.0, 0.1], Scenario::with_rho_error)
            .axis(&[42, 43], |s, seed| {
                Scenario { seed, ..s }.with_scheduler_seed(seed)
            })
    }

    /// A stress matrix for the new workload knobs: bursty arrivals and
    /// heavy 8-GPU jobs under elevated contention.
    pub fn stress() -> Matrix {
        Matrix::new("stress", ClusterKind::Testbed50, 10, 42, Policy::all())
            .axis(&[2.0], Scenario::with_contention)
            .axis(&[0.0, 0.5, 0.9], |s, burst_fraction| Scenario {
                burst_fraction,
                ..s
            })
            .axis(&[0.0, 0.3], |s, heavy_job_fraction| Scenario {
                heavy_job_fraction,
                ..s
            })
    }

    /// The control-plane robustness matrix: distributed-mode Themis under
    /// escalating transport faults (message drops, delivery delay and
    /// jitter, constrained link bandwidth, agent crashes, network
    /// partitions, Arbiter failover), with in-process Themis on the
    /// reliable point as the degradation reference. The delay cell sits at
    /// 5 s — under the actor runtime a round completes only when the
    /// one-way delay stays within a quarter of the 30 s bid deadline, so
    /// 5 s exercises slow-but-completing rounds while the combined cell
    /// stresses the deadline itself. Pinned seed — CI gates it exactly
    /// against `BENCH_FAULTS_BASELINE.json`, so a protocol regression
    /// fails fast.
    pub fn faults() -> Matrix {
        let policies = vec![Policy::themis_default(), Policy::themis_dist_default()];
        Matrix::new("faults", ClusterKind::Rack16, 6, 42, policies)
            .axis(&[2.0], Scenario::with_contention)
            .axis(
                &[
                    FaultConfig::reliable(),
                    FaultConfig::reliable().with_drop_probability(0.2),
                    FaultConfig::reliable().with_delay(Time::seconds(5.0)),
                    // Reordering: small fixed delay, dominant jitter.
                    FaultConfig::reliable()
                        .with_delay(Time::seconds(2.0))
                        .with_jitter(Time::seconds(6.0)),
                    // Serialized links: offers/bids queue behind each other.
                    FaultConfig::reliable().with_bandwidth(120.0),
                    // Split-and-heal partitions every 4th round, 2 rounds long.
                    FaultConfig::reliable().with_partition(4, 2),
                    // Arbiter crash-failover every 6th round voids in-flight Wins.
                    FaultConfig::reliable().with_failover(6),
                    FaultConfig::reliable()
                        .with_drop_probability(0.3)
                        .with_delay(Time::seconds(5.0))
                        .with_crash(5, 2),
                ],
                Scenario::with_fault,
            )
    }

    /// The scale matrix: synthetic 1024- and 4096-GPU clusters under
    /// 100- and 500-app traces — cluster sizes far beyond the paper's 256
    /// GPUs, only tractable with the dense arena-backed scheduler core
    /// (the auction's exact solver hands over to the greedy fallback, and
    /// the whole matrix finishes in seconds in release). Runs Themis plus
    /// the cheapest baseline (Tiresias/LAS) as a non-auction engine-loop
    /// reference; the quadratic greedy baselines (Gandiva, DRF, SLAQ)
    /// would dominate the wall-clock and measure themselves, not the
    /// auction core. Its metrics are gated against
    /// `BENCH_SCALE_BASELINE.json`; its host time is the `scale_batch`
    /// workload of `benchmark/`.
    pub fn scale() -> Matrix {
        let policies = vec![Policy::themis_default(), Policy::Tiresias];
        Matrix::new("scale", ClusterKind::Scale1024, 100, 42, policies)
            .axis(
                &[ClusterKind::Scale1024, ClusterKind::Scale4096],
                |s, cluster| Scenario { cluster, ..s },
            )
            .axis(&[100, 500], |s, apps| Scenario { apps, ..s })
    }

    /// Themis and all four in-process baselines.
    fn themis_and_baselines() -> Vec<Policy> {
        vec![
            Policy::themis_default(),
            Policy::Gandiva,
            Policy::Slaq,
            Policy::Tiresias,
            Policy::Drf,
        ]
    }

    /// The heterogeneity matrix: the full generation-mix axis (uniform /
    /// two-generation 2:1 / three-generation 4:2:1) under two contention
    /// levels on the 16-GPU rack, for Themis and all four baselines.
    /// Pinned seed — CI gates it exactly against
    /// `BENCH_HETERO_BASELINE.json`; the uniform column doubles as a
    /// standing speed-1.0-purity witness (its metrics must match the same
    /// cells of any uniform matrix).
    pub fn hetero() -> Matrix {
        Matrix::new(
            "hetero",
            ClusterKind::Rack16,
            6,
            42,
            Self::themis_and_baselines(),
        )
        .axis(&GenMix::ALL, Scenario::with_gen_mix)
        .axis(&[1.0, 2.0], Scenario::with_contention)
    }

    /// The horizon (simulated minutes) of a `service` matrix cell; the
    /// nightly `soak` matrix runs 10× this. Sized so the sustained-overload
    /// cells (~75 admitted apps on the 16-GPU rack) stay tractable in the
    /// debug-mode determinism test as well as the release CI gate.
    pub const SERVICE_HORIZON_MINUTES: f64 = 1_000.0;

    /// The open-system service matrix: burst shape × utilization target on
    /// the 16-GPU rack, for Themis and all four in-process baselines. The
    /// 0.25 rate is a mostly-idle cluster (the incremental hot path's
    /// skip-ratio showcase); 1.5 is sustained overload. Pinned seed — CI
    /// gates it exactly against `BENCH_SERVICE_BASELINE.json`.
    /// Distributed-mode Themis is excluded: its scheduler doubles as the
    /// actor-runtime pump, so service cells would measure the transport,
    /// not the service loop.
    pub fn service() -> Matrix {
        let axes: Vec<ServiceAxis> = (ServiceShape::ALL.into_iter())
            .flat_map(|shape| {
                [0.25, 1.5].map(|rate| ServiceAxis::new(shape, rate, Self::SERVICE_HORIZON_MINUTES))
            })
            .collect();
        Matrix::new(
            "service",
            ClusterKind::Rack16,
            6,
            42,
            Self::themis_and_baselines(),
        )
        .axis(&axes, Scenario::with_service)
    }

    /// The nightly long-soak matrix: sustained overload (Poisson, 1.5×)
    /// over a horizon 10× the service matrix's, for Themis and the cheapest
    /// baseline. Minutes of wall-clock — run it from the nightly scheduled
    /// CI job (or locally), never on push/PR.
    pub fn soak() -> Matrix {
        let policies = vec![Policy::themis_default(), Policy::Tiresias];
        let horizon = 10.0 * Self::SERVICE_HORIZON_MINUTES;
        Matrix::new("soak", ClusterKind::Rack16, 6, 42, policies).axis(
            &[ServiceAxis::new(ServiceShape::Poisson, 1.5, horizon)],
            Scenario::with_service,
        )
    }

    /// The simulated-time cap of a storm cell (see
    /// [`Scenario::sim_config`]). Every *converging* storm cell ends well
    /// inside it (the slowest, Rack16 × 32 apps at the 4× deadline, ends
    /// near 5,600 simulated minutes); a *collapsed* cell — an over-capacity
    /// inbox whose backlog diverges, e.g. Scale1024 × 32 apps unbatched at
    /// the default deadline — runs to exactly this cap, so the cap also
    /// bounds that cell's wall-clock (its event cost is linear in the
    /// horizon).
    pub const STORM_HORIZON_MINUTES: f64 = 7_500.0;

    /// The per-message Arbiter service time of the storm matrix's
    /// congested cells, in seconds. Chosen so the server stays *stable*
    /// (five phases × 32 messages × 0.25 s ≈ 40 s of work per ~60 s round
    /// cadence) while the ρ fan-in still overruns its deadline at 32 apps:
    /// the query fan-out plus the serialized report fan-in take
    /// 2 × 32 × 0.25 s = 16 s, just past the default 15 s ρ half-deadline —
    /// while an 8-app storm (4 s) clears it comfortably. Batching (4
    /// coalesced sends each way) and the 4× deadline each restore headroom.
    ///
    /// Stability additionally depends on the *round cadence*, which is a
    /// cluster property: Rack16 auctions roughly once a simulated minute,
    /// so 40 s of service work per round leaves slack, while Scale1024's
    /// dense lease traffic fires rounds back-to-back and the same 32-app
    /// unbatched load is over capacity — the backlog diverges, every round
    /// misses, and the cell runs to the horizon cap with its apps starved.
    /// That collapse is deliberate: it is the matrix's existence proof that
    /// an uncoalesced Arbiter inbox does not survive cluster scale, and
    /// both remedies under test (batching, deadline scaling) restore it to
    /// near-zero missed rounds.
    pub const STORM_SERVICE_SECONDS: f64 = 0.25;

    /// The coalescing factor of the storm matrix's batched cells.
    pub const STORM_BATCH: u64 = 8;

    /// The Arbiter-backpressure storm matrix: every app arrives at time
    /// zero (trace arrivals collapsed, job shapes untouched) on three
    /// cluster scales, and distributed-mode Themis auctions the whole
    /// population at once under three Arbiter regimes — free (the control:
    /// must be metric-identical to an unstormed reliable run of the same
    /// trace), congested ([`Matrix::STORM_SERVICE_SECONDS`] per message,
    /// M/D/1-style inbox), and congested-but-coalesced (the same service
    /// time with [`Matrix::STORM_BATCH`]-way `RhoBatch`/`OfferBatch`/
    /// `WinBatch` messages) — each at the default 30 s round deadline and
    /// at a 4× one. Pinned seed — CI gates it exactly against
    /// `BENCH_STORM_BASELINE.json`. This is the experiment behind the
    /// ROADMAP question "does the round deadline need to scale with
    /// cluster size?": compare the missed-round rate across the deadline
    /// columns as the app count grows.
    pub fn storm() -> Matrix {
        let congested = FaultConfig::reliable()
            .with_arbiter_service_time(Time::seconds(Self::STORM_SERVICE_SECONDS));
        let clusters = [
            ClusterKind::Rack16,
            ClusterKind::Testbed50,
            ClusterKind::Scale1024,
        ];
        let faults = [
            FaultConfig::reliable(),
            congested,
            congested.with_arbiter_batch(Self::STORM_BATCH),
        ];
        Matrix::new(
            "storm",
            ClusterKind::Rack16,
            8,
            42,
            vec![Policy::themis_dist_default()],
        )
        .axis(&clusters, |s, cluster| Scenario { cluster, ..s })
        .axis(&[8, 32], |s, apps| Scenario { apps, ..s })
        .axis(&faults, Scenario::with_fault)
        .axis(
            &[StormAxis::new(0.5), StormAxis::new(2.0)],
            Scenario::with_storm,
        )
    }

    /// Names accepted by [`Matrix::by_name`].
    pub const NAMED: [&'static str; 9] = [
        "smoke", "full", "stress", "faults", "scale", "hetero", "service", "soak", "storm",
    ];

    /// Looks up a named matrix.
    pub fn by_name(name: &str) -> Option<Matrix> {
        match name {
            "smoke" => Some(Matrix::smoke()),
            "full" => Some(Matrix::full()),
            "stress" => Some(Matrix::stress()),
            "faults" => Some(Matrix::faults()),
            "scale" => Some(Matrix::scale()),
            "hetero" => Some(Matrix::hetero()),
            "service" => Some(Matrix::service()),
            "soak" => Some(Matrix::soak()),
            "storm" => Some(Matrix::storm()),
            _ => None,
        }
    }

    /// The scenarios of the grid, in expansion order.
    pub fn expand(&self) -> Vec<Scenario> {
        self.scenarios.clone()
    }

    /// The concrete `(scenario, policy)` cells of the sweep, with
    /// byte-identical baseline re-runs along policy-specific axes deduped
    /// against the first scenario, which holds every axis's first value: a
    /// non-Themis policy only runs scenarios holding its `fairness_knob`
    /// and `rho_error`, and a non-distributed policy only its `fault`
    /// (transport faults cannot touch an in-process scheduler).
    pub fn cells(&self) -> Vec<(Scenario, Policy)> {
        let Some(first) = self.scenarios.first() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for scenario in &self.scenarios {
            let themis_axes = (scenario.fairness_knob, scenario.rho_error)
                != (first.fairness_knob, first.rho_error);
            let fault_axis = scenario.fault != first.fault;
            for &policy in &self.policies {
                if (themis_axes && !policy.is_themis()) || (fault_axis && !policy.is_distributed())
                {
                    continue;
                }
                out.push((scenario.clone(), policy));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn expansion_is_the_cartesian_product() {
        let matrix = Matrix::smoke();
        let scenarios = matrix.expand();
        // Contention × fairness knob × burstiness, two values each.
        assert_eq!(scenarios.len(), 2 * 2 * 2);
        // Ids are unique.
        let ids: std::collections::BTreeSet<String> = scenarios.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), scenarios.len());
    }

    #[test]
    fn cells_dedupe_baselines_along_themis_axes() {
        let matrix = Matrix::smoke();
        let cells = matrix.cells();
        let themis = cells.iter().filter(|(_, p)| p.name() == "themis").count();
        let dist = cells
            .iter()
            .filter(|(_, p)| p.name() == "themis-dist")
            .count();
        let gandiva = cells.iter().filter(|(_, p)| p.name() == "gandiva").count();
        // Both Themis modes run every scenario; each baseline skips the
        // extra fairness-knob value.
        assert_eq!(themis, matrix.expand().len());
        assert_eq!(dist, themis);
        assert_eq!(gandiva, themis / 2);
        // Every baseline cell uses the first knob value.
        for (scenario, policy) in &cells {
            if !policy.is_themis() {
                assert_eq!(scenario.fairness_knob, matrix.scenarios[0].fairness_knob);
            }
        }
    }

    #[test]
    fn named_matrices_resolve() {
        for name in Matrix::NAMED {
            let matrix = Matrix::by_name(name).expect("named matrix exists");
            assert_eq!(matrix.name, name);
            assert!(!matrix.cells().is_empty());
            // Every scenario's id is unique and parses back to it.
            let scenarios = matrix.expand();
            let ids: std::collections::BTreeSet<String> =
                scenarios.iter().map(Scenario::id).collect();
            assert_eq!(ids.len(), scenarios.len(), "{name}: duplicate ids");
            for scenario in scenarios {
                assert_eq!(Scenario::from_id(&scenario.id()).as_ref(), Ok(&scenario));
            }
        }
        assert!(Matrix::by_name("nope").is_none());
    }

    #[test]
    fn scenario_roundtrips_cluster_names() {
        for kind in ClusterKind::ALL {
            assert_eq!(ClusterKind::parse(kind.name()), Some(kind));
            assert!(kind.spec().total_gpus() > 0);
        }
        assert_eq!(ClusterKind::parse("nope"), None);
        assert_eq!(ClusterKind::Rack16.spec().total_gpus(), 16);
    }

    #[test]
    fn scenario_id_encodes_axes() {
        // An id elides every default; the scheduler seed's is the trace
        // seed, so `new`'s 0 shows as `i0`.
        let base = Scenario::new(ClusterKind::Rack16, 6, 42);
        assert_eq!(base.clone().with_scheduler_seed(42).id(), "rack16-a6-s42");
        assert_eq!(base.id(), "rack16-a6-s42-i0");
        let s = Scenario::new(ClusterKind::Testbed50, 8, 7)
            .with_contention(2.0)
            .with_fairness_knob(0.4)
            .with_scheduler_seed(7);
        let faults = FaultConfig::reliable()
            .with_drop_probability(0.25)
            .with_crash(5, 2)
            .with_partition(4, 2)
            .with_failover(6);
        for (scenario, id) in [
            (s.clone(), "testbed50-a8-x2-f0.4-s7"),
            (
                s.clone().with_fault(faults),
                "testbed50-a8-x2-f0.4-d0.25-c5x2-p4x2-o6-s7",
            ),
            // A crash schedule with one half zero is not the default.
            (
                s.clone()
                    .with_fault(FaultConfig::reliable().with_crash(0, 3)),
                "testbed50-a8-x2-f0.4-c0x3-s7",
            ),
            (
                s.with_gen_mix(GenMix::TwoGen),
                "testbed50-g2gen-a8-x2-f0.4-s7",
            ),
        ] {
            assert_eq!(scenario.id(), id);
            assert_eq!(Scenario::from_id(id), Ok(scenario));
        }
    }

    /// A scenario with every axis at a random value or, a third of the
    /// time each, its default.
    fn random_scenario(seed: u64) -> Scenario {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut r = |hi: f64| rng.gen_range(0..3) as f64 * rng.gen_range(0.0..hi) / 2.0;
        let mut s = Scenario::new(
            ClusterKind::ALL[r(5.0) as usize],
            r(1e3) as usize,
            r(1e18) as u64,
        );
        s.gen_mix = GenMix::ALL[r(3.0) as usize];
        for x in [&mut s.contention, &mut s.lease_minutes] {
            if r(1.0) > 0.0 {
                *x = 0.01 + r(60.0);
            }
        }
        // Fractions, and ρ error: r(1.0) lies in [0, 1).
        for x in [
            &mut s.network_fraction,
            &mut s.fairness_knob,
            &mut s.rho_error,
            &mut s.burst_fraction,
            &mut s.heavy_job_fraction,
        ] {
            if r(1.0) > 0.0 {
                *x = r(1.0);
            }
        }
        s.fault = FaultConfig::reliable()
            .with_drop_probability(r(1.0))
            .with_delay(Time::seconds(r(100.0)))
            .with_jitter(Time::seconds(r(100.0)))
            .with_bandwidth(r(500.0))
            .with_crash(r(3.0) as u64, r(3.0) as u64)
            .with_partition(r(3.0) as u64, r(3.0) as u64)
            .with_failover(r(3.0) as u64)
            .with_seed(r(1e18) as u64)
            .with_arbiter_service_time(Time::seconds(r(2.0)))
            .with_arbiter_batch(r(16.0) as u64);
        s.scheduler_seed = [s.seed, 0, 7][r(3.0) as usize];
        s.service = (r(1.0) > 0.0).then(|| {
            let shape = ServiceShape::ALL[r(3.0) as usize];
            ServiceAxis::new(shape, 0.01 + r(4.0), 1.0 + r(2e4))
        });
        s.storm = (r(1.0) > 0.0).then(|| StormAxis::new(0.01 + r(4.0)));
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]

        /// `from_id` inverts `id` on every axis. Verified to fail under a
        /// seeded mutation: with the writer skipping the `j` (jitter) tag,
        /// a jittered scenario parses back jitter-free.
        #[test]
        fn from_id_inverts_id(seed in 0u64..u64::MAX) {
            let scenario = random_scenario(seed);
            prop_assert_eq!(Scenario::from_id(&scenario.id()), Ok(scenario.clone()), "{}", scenario.id());
        }
    }

    #[test]
    fn instantiate_applies_knobs_to_themis_only() {
        let s = Scenario::new(ClusterKind::Rack16, 4, 1)
            .with_fairness_knob(0.3)
            .with_rho_error(0.1)
            .with_scheduler_seed(9);
        match s.instantiate(Policy::themis_default()) {
            Policy::Themis(cfg) => {
                assert_eq!(cfg.fairness_knob, 0.3);
                assert_eq!(cfg.rho_error_theta, 0.1);
                assert_eq!(cfg.seed, 9);
            }
            other => panic!("expected Themis, got {other:?}"),
        }
        match s.instantiate(Policy::themis_dist_default()) {
            Policy::ThemisDist(cfg) => {
                assert_eq!(cfg.fairness_knob, 0.3);
                assert_eq!(cfg.seed, 9);
            }
            other => panic!("expected ThemisDist, got {other:?}"),
        }
        assert_eq!(s.instantiate(Policy::Drf), Policy::Drf);
    }

    #[test]
    fn fault_axis_reaches_only_distributed_cells() {
        let matrix = Matrix::faults();
        let cells = matrix.cells();
        // In-process Themis runs only the reliable (first) fault value;
        // themis-dist runs the whole axis.
        let dist = cells.iter().filter(|(_, p)| p.is_distributed()).count();
        let in_process = cells.iter().filter(|(_, p)| !p.is_distributed()).count();
        assert_eq!(dist, matrix.scenarios.len());
        assert_eq!(in_process, 1);
        for (scenario, policy) in &cells {
            if !policy.is_distributed() {
                assert!(scenario.fault.is_reliable());
            }
        }
        // Faulty scenarios seed the fault RNG, and the engine retries the
        // rounds their lost messages void: every app still finishes.
        let faulty = Scenario::new(ClusterKind::Rack16, 2, 1)
            .with_scheduler_seed(5)
            .with_fault(FaultConfig::reliable().with_drop_probability(0.5));
        assert_eq!(faulty.sim_config().fault.seed, 5);
        let report = faulty.run(Policy::themis_dist_default());
        assert_eq!(report.unfinished_apps(), 0);
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let s = Scenario::new(ClusterKind::Rack16, 3, 5);
        let a = s.run(Policy::themis_default());
        let b = s.run(Policy::themis_default());
        assert_eq!(a, b);
        assert!(a.scheduling_rounds > 0);
    }

    #[test]
    fn gen_mix_round_trips_and_builds_mixed_specs() {
        for mix in GenMix::ALL {
            assert_eq!(GenMix::parse(mix.name()), Some(mix));
            assert!(!mix.cycle().is_empty());
            assert_eq!(mix.to_string(), mix.name());
        }
        assert_eq!(GenMix::parse("4gen"), None);
        assert_eq!(GenMix::default(), GenMix::Uniform);

        let s = Scenario::new(ClusterKind::Rack16, 2, 1);
        // Uniform: the base spec, untouched.
        assert_eq!(s.cluster_spec(), ClusterKind::Rack16.spec());
        assert!(s.cluster_spec().is_unit_speed());
        // Mixed: same topology, different speeds.
        let mixed = s.with_gen_mix(GenMix::ThreeGen).cluster_spec();
        assert_eq!(mixed.total_gpus(), 16);
        assert_eq!(mixed.uniform_generation(), None);
        assert!(mixed.total_speed() != 16.0);
    }

    #[test]
    fn hetero_matrix_covers_the_mix_axis_for_every_policy() {
        let matrix = Matrix::hetero();
        assert_eq!(
            matrix.scenarios.len(),
            3 * 2,
            "3 mixes x 2 contention levels"
        );
        assert_eq!(matrix.policies.len(), 5, "themis + all four baselines");
        let cells = matrix.cells();
        // Every policy runs every mix (no dedupe along the hetero axis).
        for policy in &matrix.policies {
            for mix in GenMix::ALL {
                assert!(
                    cells
                        .iter()
                        .any(|(s, p)| p.name() == policy.name() && s.gen_mix == mix),
                    "{} missing a {} cell",
                    policy.name(),
                    mix
                );
            }
        }
        assert_eq!(
            cells.len(),
            matrix.expand().len() * matrix.policies.len(),
            "no dedupe applies: every policy runs the full expansion"
        );
    }

    #[test]
    fn service_matrix_covers_the_shape_rate_grid_for_every_policy() {
        let matrix = Matrix::service();
        assert_eq!(matrix.scenarios.len(), 6, "3 shapes x 2 rates");
        assert_eq!(matrix.policies.len(), 5, "themis + all four baselines");
        assert!(
            matrix.policies.iter().all(|p| !p.is_distributed()),
            "distributed mode opts out of incremental rounds and is excluded"
        );
        let cells = matrix.cells();
        // Every policy runs every (shape, rate) point: the service axis is
        // policy-agnostic, so no dedupe applies along it.
        for policy in &matrix.policies {
            for shape in ServiceShape::ALL {
                for rate in [0.25, 1.5] {
                    assert!(
                        cells.iter().any(|(s, p)| {
                            p.name() == policy.name()
                                && s.service
                                    .is_some_and(|a| a.shape == shape && a.rate == rate)
                        }),
                        "{} missing the ({shape}, {rate}) cell",
                        policy.name()
                    );
                }
            }
        }
        assert_eq!(cells.len(), matrix.expand().len() * matrix.policies.len());
        // Every cell carries the axis, and ids encode it.
        for (scenario, _) in &cells {
            let axis = scenario
                .service
                .expect("service matrix cells carry the axis");
            assert_eq!(axis.horizon_minutes, Matrix::SERVICE_HORIZON_MINUTES);
            assert!(scenario.id().ends_with(&format!(
                "-v{}-r{}-z{}",
                axis.shape,
                axis.rate,
                Matrix::SERVICE_HORIZON_MINUTES
            )));
        }
    }

    #[test]
    fn soak_matrix_is_the_long_horizon_overload_cell() {
        let matrix = Matrix::soak();
        let axis = matrix.scenarios[0]
            .service
            .expect("soak carries one service axis");
        assert_eq!(axis.shape, ServiceShape::Poisson);
        assert_eq!(axis.rate, 1.5);
        assert_eq!(
            axis.horizon_minutes,
            10.0 * Matrix::SERVICE_HORIZON_MINUTES,
            "the nightly soak runs 10x the service horizon"
        );
        assert_eq!(matrix.cells().len(), 2, "themis + one baseline");
    }

    #[test]
    fn service_axis_round_trips_through_the_id_suffix() {
        let s = Scenario::new(ClusterKind::Rack16, 6, 42).with_scheduler_seed(42);
        let base_id = s.id();
        assert_eq!(base_id, "rack16-a6-s42");
        let with_axis = s.with_service(ServiceAxis::new(ServiceShape::Diurnal, 1.5, 2_000.0));
        assert_eq!(
            with_axis.id(),
            format!("{base_id}-vdiurnal-r1.5-z2000"),
            "the suffix appends; closed-system ids are untouched"
        );
        assert_eq!(Scenario::from_id(&with_axis.id()), Ok(with_axis));
        // The benchmark's open-system cells: no apps, scheduler seed 0.
        let open = Scenario::new(ClusterKind::Testbed50, 0, 42).with_service(ServiceAxis::new(
            ServiceShape::Poisson,
            1.0,
            500.0,
        ));
        assert_eq!(open.id(), "testbed50-a0-s42-i0-vpoisson-r1-z500");
        assert_eq!(Scenario::from_id(&open.id()), Ok(open));
        for shape in ServiceShape::ALL {
            assert_eq!(ServiceShape::parse(shape.name()), Some(shape));
            assert_eq!(shape.to_string(), shape.name());
        }
        assert_eq!(ServiceShape::parse("wavy"), None);
    }

    #[test]
    fn storm_matrix_covers_the_backpressure_grid() {
        let matrix = Matrix::storm();
        // Rack16 through Scale1024 × 8 and 32 apps × free, congested and
        // congested-but-coalesced × default and 4x round deadline.
        let clusters: std::collections::BTreeSet<_> =
            matrix.scenarios.iter().map(|s| s.cluster.name()).collect();
        assert_eq!(clusters.len(), 3);
        assert!(matrix.scenarios.iter().all(|s| [8, 32].contains(&s.apps)));
        assert!(
            matrix.policies.iter().all(|p| p.is_distributed()),
            "only distributed mode has an Arbiter inbox to congest"
        );
        let cells = matrix.cells();
        assert_eq!(cells.len(), 3 * 2 * 3 * 2);
        for (scenario, _) in &cells {
            let axis = scenario.storm.expect("storm matrix cells carry the axis");
            assert!(axis.bid_deadline_minutes == 0.5 || axis.bid_deadline_minutes == 2.0);
        }
        // The three Arbiter regimes are all present.
        assert!(cells.iter().any(|(s, _)| s.fault.is_reliable()));
        assert!(cells.iter().any(|(s, _)| {
            s.fault.arbiter_service_time > Time::ZERO && s.fault.arbiter_batch == 0
        }));
        assert!(cells.iter().any(|(s, _)| {
            s.fault.arbiter_service_time > Time::ZERO
                && s.fault.arbiter_batch == Matrix::STORM_BATCH
        }));
    }

    #[test]
    fn storm_axis_round_trips_through_the_id_suffix() {
        let s = Scenario::new(ClusterKind::Rack16, 6, 42).with_scheduler_seed(42);
        let base_id = s.id();
        assert_eq!(
            base_id, "rack16-a6-s42",
            "arbiter and storm suffixes are conditional"
        );
        let stormed = s.clone().with_storm(StormAxis::new(0.5));
        assert_eq!(stormed.id(), format!("{base_id}-t0.5"));
        let congested = stormed.with_fault(
            FaultConfig::reliable()
                .with_arbiter_service_time(Time::seconds(0.3))
                .with_arbiter_batch(8),
        );
        assert_eq!(congested.id(), format!("{base_id}-u0.005-k8-t0.5"));
        assert_eq!(Scenario::from_id(&congested.id()), Ok(congested));
    }

    #[test]
    fn storm_collapses_arrivals_but_not_job_shapes() {
        let s = Scenario::new(ClusterKind::Rack16, 6, 42);
        let plain = s.trace();
        let stormed = s.clone().with_storm(StormAxis::new(0.5)).trace();
        assert!(
            plain.iter().any(|spec| spec.arrival > Time::ZERO),
            "the unstormed trace staggers arrivals"
        );
        assert!(stormed.iter().all(|spec| spec.arrival == Time::ZERO));
        // Same trace RNG stream: only the arrivals differ.
        assert_eq!(plain.len(), stormed.len());
        for (mut p, q) in plain.into_iter().zip(stormed) {
            p.arrival = Time::ZERO;
            assert_eq!(p, q, "the storm axis must not perturb job shapes");
        }
    }

    #[test]
    fn storm_sim_config_carries_deadline_and_horizon() {
        let s = Scenario::new(ClusterKind::Rack16, 6, 42).with_storm(StormAxis::new(2.0));
        let config = s.sim_config();
        assert_eq!(config.bid_deadline, Some(Time::minutes(2.0)));
        assert_eq!(
            config.max_sim_time,
            Time::minutes(Matrix::STORM_HORIZON_MINUTES)
        );
        // A congested Arbiter is a fault: the engine retries (on an
        // unreliable transport) so a fully-missed round is re-attempted.
        let congested =
            s.with_fault(FaultConfig::reliable().with_arbiter_service_time(Time::seconds(0.25)));
        assert!(!congested.sim_config().fault.is_reliable());
        // Batching alone is not a fault; no retry, no id noise beyond -k.
        let batched = Scenario::new(ClusterKind::Rack16, 6, 42)
            .with_fault(FaultConfig::reliable().with_arbiter_batch(8));
        assert!(batched.sim_config().fault.is_reliable());
    }

    #[test]
    fn uniform_mix_cells_match_the_speed_blind_run() {
        // The purity witness in miniature: a uniform-mix scenario is the
        // *same cell* as the pre-heterogeneity scenario, report for report.
        let s = Scenario::new(ClusterKind::Rack16, 3, 7).with_contention(2.0);
        let uniform = s.clone().with_gen_mix(GenMix::Uniform);
        for policy in [Policy::themis_default(), Policy::Tiresias] {
            assert_eq!(s.run(policy), uniform.run(policy));
        }
    }
}
