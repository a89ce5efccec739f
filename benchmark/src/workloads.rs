//! The four workloads: their cell lists, how `--seed` shapes the inputs,
//! and how one cell is set up, run and checked.
//!
//! **Inputs.** Every workload is a list of *pinned* cells followed by a
//! few *seeded* cells. Pinned cells draw their apps from the repo's own
//! generators with [`PINNED_SEED`] and leave every scheduler and fault RNG
//! at its committed seed, so they repeat bit for bit under any `--seed`:
//! the exact metrics (allocations, simulated outcomes) are taken over them
//! alone. Seeded cells are smaller copies of the same scenarios whose trace
//! and RNG seeds all derive from `--seed`; they count toward the host
//! timings and the correctness checks only. The split exists because the
//! simulator is chaotic: swapping two neighbouring arrivals moves a cell's
//! allocation count by 3–5 % and re-seeding the fault RNG moves
//! `dist_faults` by 28 % (measured, see README), far outside any useful
//! regression bound.

use crate::alloc;
use crate::probe::{self, CallStats, Probe, ShadowStats};
use crate::trace::Tracer;
use std::time::Instant;
use themis_bench::policies::Policy;
use themis_bench::scenarios::{ClusterKind, Matrix, Scenario, ServiceAxis, ServiceShape};
use themis_cluster::cluster::Cluster;
use themis_cluster::time::Time;
use themis_core::actors::DistributedThemisScheduler;
use themis_core::config::ThemisConfig;
use themis_core::scheduler::ThemisScheduler;
use themis_protocol::network::LogMode;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::arrivals::ArrivalProcess;
use themis_sim::engine::Engine;
use themis_sim::metrics::SimReport;
use themis_sim::scheduler::{AllocationDecision, Scheduler};
use themis_sim::service::{AppSource, ReplaySource, ServiceEngine, ServiceReport, StreamSource};
use themis_workload::app::AppSpec;
use themis_workload::stream::TraceStream;

/// Trace seed of every pinned cell.
const PINNED_SEED: u64 = 42;

/// Simulated-minute horizon of the `service_open` cells.
const SERVICE_HORIZON_MINUTES: f64 = 800.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScaleBatch,
    ArbiterRounds,
    DistFaults,
    ServiceOpen,
}

/// The fixed amount of work of one run. `reps` is N at the reference
/// `--seconds`; nothing in a run loops on the clock.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Timed repetitions at [`REFERENCE_SECONDS`].
    pub reps: usize,
    /// Set-up passes (K), run after the timed repetitions.
    pub setup_passes: usize,
    /// A shadow round runs on every k-th call that has something to auction.
    pub shadow_every: u64,
    /// `--check` only: a quarter of the `scale_batch` apps, half the service
    /// horizon, three of the eight fault cells and a twentieth of the
    /// `arbiter_rounds` calls, so every code path of a run is exercised in
    /// a few seconds.
    pub smoke: bool,
}

/// The `--seconds` value `Sizing::reps` is committed for.
pub const REFERENCE_SECONDS: u64 = 15;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScaleBatch,
        Workload::ArbiterRounds,
        Workload::DistFaults,
        Workload::ServiceOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleBatch => "scale_batch",
            Workload::ArbiterRounds => "arbiter_rounds",
            Workload::DistFaults => "dist_faults",
            Workload::ServiceOpen => "service_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed constants. `check` shrinks everything to a smoke run.
    pub fn sizing(self, check: bool) -> Sizing {
        let (reps, setup_passes, shadow_every) = match self {
            _ if check => (1, 2, 1),
            Workload::ScaleBatch => (7, 1_000, 4),
            Workload::ArbiterRounds => (7, 40, 4),
            Workload::DistFaults => (5, 2_500, 16),
            Workload::ServiceOpen => (6, 5_000, 4),
        };
        Sizing {
            reps,
            setup_passes,
            shadow_every,
            smoke: check,
        }
    }
}

fn themis_config(scenario: &Scenario) -> ThemisConfig {
    match scenario.instantiate(Policy::themis_default()) {
        Policy::Themis(config) => config,
        other => unreachable!("instantiate keeps the policy kind, got {other:?}"),
    }
}

/// One frozen `(now, cluster, arena)` state `arbiter_rounds` calls
/// `ThemisScheduler::schedule` on.
pub struct FrozenState {
    scenario: Scenario,
    occupied: bool,
    /// `schedule` calls per repetition (M).
    pub calls: usize,
    now: Time,
    /// What building the cluster and the trace cost (a set-up pass adds the
    /// total and the arena/occupation/scheduler remainder).
    built: SetupSample,
    cluster: Cluster,
    arena: AppArena,
}

impl FrozenState {
    fn build(scenario: &Scenario, occupied: bool, calls: usize) -> Self {
        let t0 = Instant::now();
        let mut cluster = Cluster::new(scenario.cluster_spec());
        let t1 = Instant::now();
        let trace = scenario.trace();
        let t2 = Instant::now();
        // The last arrival: every app is present and none has run.
        let now = trace.iter().map(|a| a.arrival).fold(Time::ZERO, Time::max);
        let arena: AppArena = trace
            .into_iter()
            .map(AppRuntime::with_default_hpo)
            .collect();
        if occupied {
            // Apply one round's decisions for the even-numbered apps, so
            // offers are fragmented and half the apps have a footprint.
            let lease = now + Time::minutes(scenario.lease_minutes);
            let mut scheduler = ThemisScheduler::new(themis_config(scenario));
            for decision in scheduler.schedule(now, &cluster, &arena) {
                if decision.app.0 % 2 == 0 {
                    for gpu in decision.gpus {
                        cluster
                            .allocate(gpu, decision.app, decision.job, now, lease)
                            .expect("the round's own decisions name free GPUs");
                    }
                }
            }
        }
        FrozenState {
            scenario: scenario.clone(),
            occupied,
            calls,
            now,
            built: SetupSample {
                cluster_ns: ns_between(t0, t1),
                trace_ns: ns_between(t1, t2),
                gpus: cluster.total_gpus(),
                apps: arena.len(),
                jobs: arena.iter().map(|a| a.spec.num_jobs()).sum(),
                ..SetupSample::default()
            },
            cluster,
            arena,
        }
    }

    /// A call fails if its decisions exceed an app's unmet demand, or leave
    /// a GPU free beside unmet demand. (Busy and duplicate GPUs are counted
    /// by the probe.)
    fn call_is_valid(&self, decisions: &[AllocationDecision]) -> bool {
        let mut granted = vec![0usize; self.arena.len()];
        for decision in decisions {
            match granted.get_mut(decision.app.index()) {
                Some(g) => *g += decision.gpus.len(),
                None => return false,
            }
        }
        let mut unmet_left = 0;
        for runtime in self.arena.iter() {
            let unmet = runtime.unmet_demand(&self.cluster);
            let got = granted[runtime.id().index()];
            if got > unmet {
                return false;
            }
            unmet_left += unmet - got;
        }
        let free_left = self.cluster.free_gpu_count() - granted.iter().sum::<usize>();
        free_left == 0 || unmet_left == 0
    }
}

/// One unit of a repetition, timed on its own.
pub struct Cell {
    /// Whether the cell's inputs derive from `--seed` (see the module docs).
    pub seeded: bool,
    pub work: Work,
}

/// What a cell runs.
pub enum Work {
    /// `Engine::run` over a batch trace (in-process policy or `themis-dist`).
    Engine {
        scenario: Scenario,
        policy: Policy,
        trace: Vec<AppSpec>,
        /// `Some` on a seeded cell: the trace is cut to this many jobs.
        job_budget: Option<usize>,
    },
    /// `ServiceEngine::run` over an open-system arrival history.
    Service {
        scenario: Scenario,
        trace: Vec<AppSpec>,
        job_budget: Option<usize>,
    },
    /// A batch of direct `schedule` calls on a frozen state.
    Rounds(Box<FrozenState>),
}

/// What the cell's measured call returned. Equal outcomes across
/// repetitions are the in-run determinism check.
#[derive(PartialEq)]
pub enum Outcome {
    Sim(Box<SimReport>),
    Service(Box<ServiceReport>),
    Rounds(Vec<Vec<AllocationDecision>>),
}

impl Outcome {
    pub fn sim(&self) -> Option<&SimReport> {
        match self {
            Outcome::Sim(report) => Some(report),
            Outcome::Service(report) => Some(&report.sim),
            Outcome::Rounds(_) => None,
        }
    }
}

/// Message-layer counters read off the distributed scheduler after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DistCounters {
    pub control_rounds: u64,
    pub completed_rounds: u64,
    pub voided_wins: u64,
    pub stale_messages: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped_fault: u64,
    pub dropped_partition: u64,
}

/// Everything one execution of one cell produced.
pub struct CellRun {
    /// Host time of the measured call.
    pub wall_ns: u64,
    /// The measured call cut at every policy-call boundary: lead-in, call
    /// 0, gap, call 1, …, tail (`2 × calls + 1` entries summing to
    /// `wall_ns`). The trajectory is deterministic, so segment `k` is the
    /// same work in every repetition and can be minimized on its own.
    pub segments: Vec<u64>,
    /// Heap requests / bytes requested inside the measured call.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Span name of the policy call: which layer the policy lives in.
    pub layer: &'static str,
    pub calls: CallStats,
    pub shadow: ShadowStats,
    pub outcome: Outcome,
    pub dist: Option<DistCounters>,
    /// Units attempted (apps simulated, or calls) and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl CellRun {
    fn new<T, S: Scheduler>(
        m: Measured<T>,
        probe: Probe<'_, S>,
        attempted: u64,
        failed: u64,
        dist: Option<DistCounters>,
        outcome: impl FnOnce(T) -> Outcome,
    ) -> CellRun {
        CellRun {
            wall_ns: m.wall_ns,
            segments: segments(&m, &probe.stats),
            allocs: m.allocs,
            alloc_bytes: m.alloc_bytes,
            layer: probe.layer(),
            shadow: probe.shadow_stats(),
            calls: probe.stats,
            outcome: outcome(m.value),
            dist,
            attempted,
            failed,
        }
    }

    /// Host time inside the policy calls: the odd segments.
    pub fn decision_ns(&self) -> u64 {
        self.segments.iter().skip(1).step_by(2).sum()
    }
}

/// Host time of one set-up pass, split by the layer constructed.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSample {
    pub total_ns: u64,
    pub cluster_ns: u64,
    pub trace_ns: u64,
    pub engine_ns: u64,
    pub gpus: usize,
    pub apps: usize,
    pub jobs: usize,
}

impl SetupSample {
    /// From the instants before the cluster, before the trace, before the
    /// engine and after it.
    fn timed([t0, t1, t2, t3]: [Instant; 4], gpus: usize, apps: usize, jobs: usize) -> Self {
        SetupSample {
            total_ns: ns_between(t0, t3),
            cluster_ns: ns_between(t0, t1),
            trace_ns: ns_between(t1, t2),
            engine_ns: ns_between(t2, t3),
            gpus,
            apps,
            jobs,
        }
    }
}

/// How a cell is run: which tracer, and whether shadow rounds are on.
pub struct RunContext<'t> {
    pub tracer: &'t Tracer,
    pub shadow_every: Option<u64>,
}

struct Measured<T> {
    value: T,
    start: Instant,
    end: Instant,
    wall_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Times `f` and counts its heap requests, inside a span called `span`.
fn measure<T>(tracer: &Tracer, span: &'static str, f: impl FnOnce() -> T) -> Measured<T> {
    let open = tracer.begin(span);
    let (allocs0, bytes0) = alloc::snapshot();
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    let (allocs1, bytes1) = alloc::snapshot();
    tracer.end(open);
    Measured {
        value,
        start,
        end,
        wall_ns: ns_between(start, end),
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

fn segments<T>(m: &Measured<T>, calls: &CallStats) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 * calls.marks.len() + 1);
    let mut cursor = m.start;
    for &(start, end) in &calls.marks {
        out.push(ns_between(cursor, start));
        out.push(ns_between(start, end));
        cursor = end;
    }
    out.push(ns_between(cursor, m.end));
    out
}

impl Cell {
    pub fn label(&self) -> String {
        match &self.work {
            Work::Engine {
                scenario, policy, ..
            } => format!("{}/{}", scenario.id(), policy.name()),
            Work::Service { scenario, .. } => format!("{}/themis", scenario.id()),
            Work::Rounds(state) => format!(
                "{}-{}x{}/themis",
                state.scenario.id(),
                if state.occupied { "half" } else { "empty" },
                state.calls
            ),
        }
    }

    /// Engine rounds (or direct calls) a run of this cell performed.
    pub fn rounds(run: &CellRun) -> u64 {
        run.outcome
            .sim()
            .map_or(run.calls.calls, |sim| sim.scheduling_rounds)
    }

    fn probe<'t, S: Scheduler>(
        ctx: &RunContext<'t>,
        inner: S,
        span: &'static str,
        themis: Option<ThemisConfig>,
    ) -> Probe<'t, S> {
        let probe = Probe::new(inner, span, ctx.tracer);
        match (ctx.shadow_every, themis) {
            (Some(every), Some(config)) => probe.with_shadow(config, every),
            _ => probe,
        }
    }

    /// Builds the cell's inputs and runs its measured call once.
    pub fn run(&self, ctx: &RunContext<'_>) -> CellRun {
        match &self.work {
            Work::Engine {
                scenario,
                policy,
                trace,
                ..
            } => {
                let config = scenario.sim_config();
                let themis = themis_config(scenario);
                if policy.is_distributed() {
                    let mut inner = DistributedThemisScheduler::with_log_mode(
                        themis,
                        config.fault,
                        LogMode::Off,
                    );
                    if let Some(deadline) = config.bid_deadline {
                        inner = inner.with_bid_deadline(deadline);
                    }
                    let mut probe = Self::probe(ctx, inner, probe::ACTORS, Some(themis));
                    let m = Self::engine_run(ctx, scenario, trace, &mut probe);
                    let (stats, net) = (probe.inner.stats(), probe.inner.net_stats());
                    let dist = DistCounters {
                        control_rounds: stats.rounds,
                        completed_rounds: stats.completed_rounds,
                        voided_wins: stats.voided_wins,
                        stale_messages: stats.stale_messages,
                        sent: net.sent,
                        delivered: net.delivered,
                        dropped_fault: net.dropped_fault,
                        dropped_partition: net.dropped_partition,
                    };
                    Self::batch_run(m, probe, Some(dist), trace.len() as u64)
                } else {
                    let inner = scenario.instantiate(*policy).build_with(&config);
                    let (span, themis) = match policy {
                        Policy::Themis(_) => (probe::CORE, Some(themis)),
                        _ => (probe::BASELINE, None),
                    };
                    let mut probe = Self::probe(ctx, inner, span, themis);
                    let m = Self::engine_run(ctx, scenario, trace, &mut probe);
                    Self::batch_run(m, probe, None, trace.len() as u64)
                }
            }
            Work::Service {
                scenario, trace, ..
            } => {
                let sim = scenario.sim_config().with_incremental(true);
                let inner = scenario
                    .instantiate(Policy::themis_default())
                    .build_with(&sim);
                let mut probe = Self::probe(ctx, inner, probe::CORE, Some(themis_config(scenario)));
                let engine = ServiceEngine::new(
                    Cluster::new(scenario.cluster_spec()),
                    &mut probe,
                    sim,
                    scenario.service_config(),
                    ReplaySource::new(trace.clone()),
                );
                let m = measure(ctx.tracer, "simulator.service.run", || engine.run());
                // An open system ends at its horizon with apps in flight;
                // that is not a failure.
                let (attempted, failed) = (m.value.admitted, probe.stats.violations);
                CellRun::new(m, probe, attempted, failed, None, |report| {
                    Outcome::Service(Box::new(report))
                })
            }
            Work::Rounds(state) => {
                let config = themis_config(&state.scenario);
                let mut probe =
                    Self::probe(ctx, ThemisScheduler::new(config), probe::CORE, Some(config));
                let m = measure(ctx.tracer, "bench.rounds", || {
                    let mut all = Vec::with_capacity(state.calls);
                    for _ in 0..state.calls {
                        all.push(probe.call(state.now, &state.cluster, &state.arena));
                    }
                    all
                });
                let invalid = m.value.iter().filter(|d| !state.call_is_valid(d)).count() as u64;
                let failed = invalid + probe.stats.violations;
                CellRun::new(m, probe, state.calls as u64, failed, None, Outcome::Rounds)
            }
        }
    }

    fn engine_run<S: Scheduler>(
        ctx: &RunContext<'_>,
        scenario: &Scenario,
        trace: &[AppSpec],
        probe: &mut Probe<'_, S>,
    ) -> Measured<SimReport> {
        let engine = Engine::new(
            Cluster::new(scenario.cluster_spec()),
            trace.to_vec(),
            probe,
            scenario.sim_config(),
        );
        measure(ctx.tracer, "simulator.engine.run", || engine.run())
    }

    fn batch_run<S: Scheduler>(
        m: Measured<SimReport>,
        probe: Probe<'_, S>,
        dist: Option<DistCounters>,
        apps: u64,
    ) -> CellRun {
        // A batch cell must finish every app; a conservation violation
        // fails the whole cell.
        let failed = if probe.stats.violations > 0 {
            apps
        } else {
            m.value.unfinished_apps() as u64
        };
        CellRun::new(m, probe, apps, failed, dist, |report| {
            Outcome::Sim(Box::new(report))
        })
    }

    /// One set-up pass: constructs this cell's inputs from scratch through
    /// the public constructors and drops them.
    pub fn setup(&self) -> SetupSample {
        let t0 = Instant::now();
        match &self.work {
            Work::Engine {
                scenario,
                policy,
                job_budget,
                ..
            } => {
                let cluster = Cluster::new(scenario.cluster_spec());
                let t1 = Instant::now();
                let trace = cut_to_jobs(scenario.trace(), *job_budget);
                let t2 = Instant::now();
                let (gpus, apps) = (cluster.total_gpus(), trace.len());
                let jobs = trace.iter().map(AppSpec::num_jobs).sum();
                let config = scenario.sim_config();
                let scheduler = scenario.instantiate(*policy).build_with(&config);
                let engine = Engine::new(cluster, trace, scheduler, config);
                std::hint::black_box(&engine);
                SetupSample::timed([t0, t1, t2, Instant::now()], gpus, apps, jobs)
            }
            Work::Service {
                scenario,
                job_budget,
                ..
            } => {
                let cluster = Cluster::new(scenario.cluster_spec());
                let t1 = Instant::now();
                let trace = cut_to_jobs(service_arrivals(scenario), *job_budget);
                let t2 = Instant::now();
                let (gpus, apps) = (cluster.total_gpus(), trace.len());
                let jobs = trace.iter().map(AppSpec::num_jobs).sum();
                let sim = scenario.sim_config().with_incremental(true);
                let scheduler = scenario
                    .instantiate(Policy::themis_default())
                    .build_with(&sim);
                let engine = ServiceEngine::new(
                    cluster,
                    scheduler,
                    sim,
                    scenario.service_config(),
                    ReplaySource::new(trace),
                );
                std::hint::black_box(&engine);
                SetupSample::timed([t0, t1, t2, Instant::now()], gpus, apps, jobs)
            }
            Work::Rounds(state) => {
                let rebuilt = FrozenState::build(&state.scenario, state.occupied, state.calls);
                let scheduler = ThemisScheduler::new(themis_config(&state.scenario));
                std::hint::black_box((&rebuilt, &scheduler));
                let total_ns = ns_between(t0, Instant::now());
                SetupSample {
                    total_ns,
                    engine_ns: total_ns - rebuilt.built.cluster_ns - rebuilt.built.trace_ns,
                    ..rebuilt.built
                }
            }
        }
    }
}

/// The arrival history a service scenario's own `StreamSource` produces up
/// to the horizon, materialized once so every repetition replays it.
fn service_arrivals(scenario: &Scenario) -> Vec<AppSpec> {
    let axis = scenario
        .service
        .expect("service cells carry a service axis");
    let horizon = Time::minutes(axis.horizon_minutes);
    let trace_config = scenario.trace_config();
    let mean = trace_config.mean_interarrival / axis.rate;
    let arrivals = ArrivalProcess::new(axis.shape.arrival_shape(horizon), mean, scenario.seed);
    let mut source = StreamSource::new(arrivals, TraceStream::new(trace_config), horizon);
    std::iter::from_fn(|| source.next_app()).collect()
}

/// `(cluster, apps, fairness knob, calls per repetition at empty, at half)`
/// of the `arbiter_rounds` states. Calls are sized so each state costs
/// roughly the same host time per repetition.
const ROUND_STATES: [(ClusterKind, usize, f64, usize, usize); 6] = [
    (ClusterKind::Rack16, 12, 0.8, 680, 680),
    (ClusterKind::Testbed50, 12, 0.8, 340, 340),
    (ClusterKind::Sim256, 32, 0.8, 136, 170),
    (ClusterKind::Sim256, 100, 0.8, 51, 68),
    (ClusterKind::Sim256, 100, 0.0, 13, 17),
    (ClusterKind::Scale1024, 500, 0.8, 8, 11),
];

/// Apps in the pinned `scale_batch` trace / drawn for the seeded one before
/// its job budget cuts it.
const SCALE_APPS: usize = 120;
const SCALE_SEEDED_APPS: usize = 60;
/// Job budgets of the seeded traces.
const SCALE_SEEDED_JOBS: usize = 300;
const DIST_SEEDED_JOBS: usize = 120;
const SERVICE_SEEDED_JOBS: usize = 150;

/// Indices into the `faults` matrix of the cells `dist_faults` also runs on
/// a seeded trace: reliable, partition, failover (drops and delays make a
/// cell's round count swing by ±50 % from seed to seed).
const DIST_SEEDED: [usize; 3] = [0, 5, 6];
const DIST_SEEDED_APPS: usize = 24;

/// Cuts a seeded cell's arrivals to the shortest prefix holding `job_budget`
/// jobs. App sizes are heavy-tailed, so a fixed app count (or a fixed
/// horizon) lets a seeded cell's cost swing several-fold from seed to seed;
/// a fixed job count keeps the seeded share of a run roughly level.
fn cut_to_jobs(mut trace: Vec<AppSpec>, job_budget: Option<usize>) -> Vec<AppSpec> {
    if let Some(budget) = job_budget {
        let mut jobs = 0;
        let keep = trace
            .iter()
            .take_while(|app| {
                let under = jobs < budget;
                jobs += app.num_jobs();
                under
            })
            .count();
        trace.truncate(keep);
    }
    trace
}

fn engine_cell(job_budget: Option<usize>, scenario: Scenario, policy: Policy) -> Cell {
    let trace = cut_to_jobs(scenario.trace(), job_budget);
    Cell {
        seeded: job_budget.is_some(),
        work: Work::Engine {
            scenario,
            policy,
            trace,
            job_budget,
        },
    }
}

fn service_cell(
    job_budget: Option<usize>,
    shape: ServiceShape,
    rate: f64,
    seed: u64,
    horizon_minutes: f64,
) -> Cell {
    let scenario = Scenario::new(ClusterKind::Testbed50, 0, seed)
        .with_scheduler_seed(if job_budget.is_some() { seed } else { 0 })
        .with_service(ServiceAxis::new(shape, rate, horizon_minutes));
    let trace = cut_to_jobs(service_arrivals(&scenario), job_budget);
    Cell {
        seeded: job_budget.is_some(),
        work: Work::Service {
            scenario,
            trace,
            job_budget,
        },
    }
}

/// Builds the workload's cells: the pinned ones, then the ones from `seed`.
pub fn cells(workload: Workload, seed: u64, sizing: &Sizing) -> Vec<Cell> {
    let both = [Policy::themis_default(), Policy::Tiresias];
    match workload {
        Workload::ScaleBatch => {
            let apps = if sizing.smoke {
                SCALE_APPS / 4
            } else {
                SCALE_APPS
            };
            let pinned = Scenario::new(ClusterKind::Scale1024, apps, PINNED_SEED);
            let mut cells: Vec<Cell> = both
                .into_iter()
                .map(|policy| engine_cell(None, pinned.clone(), policy))
                .collect();
            let seeded = Scenario::new(ClusterKind::Scale1024, SCALE_SEEDED_APPS, seed)
                .with_scheduler_seed(seed);
            let budget = Some(SCALE_SEEDED_JOBS);
            cells.extend(
                both.into_iter()
                    .map(|p| engine_cell(budget, seeded.clone(), p)),
            );
            cells
        }
        Workload::ArbiterRounds => {
            let scaled = |calls: usize| if sizing.smoke { calls / 20 } else { calls }.max(1);
            let mut cells = Vec::new();
            for (cluster, apps, knob, empty_calls, half_calls) in ROUND_STATES {
                let scenario = Scenario::new(cluster, apps, PINNED_SEED).with_fairness_knob(knob);
                for (occupied, calls) in [(false, empty_calls), (true, half_calls)] {
                    cells.push(Cell {
                        seeded: false,
                        work: Work::Rounds(Box::new(FrozenState::build(
                            &scenario,
                            occupied,
                            scaled(calls),
                        ))),
                    });
                }
            }
            for (cluster, apps, knob, empty_calls, _) in ROUND_STATES {
                let scenario = Scenario::new(cluster, apps, seed)
                    .with_fairness_knob(knob)
                    .with_scheduler_seed(seed);
                cells.push(Cell {
                    seeded: true,
                    work: Work::Rounds(Box::new(FrozenState::build(
                        &scenario,
                        false,
                        scaled(empty_calls / 8),
                    ))),
                });
            }
            cells
        }
        Workload::DistFaults => {
            let committed = Matrix::faults().expand();
            let dist = Policy::themis_dist_default();
            let mut cells: Vec<Cell> = committed
                .iter()
                .enumerate()
                .filter(|(index, _)| !sizing.smoke || DIST_SEEDED.contains(index))
                .map(|(_, scenario)| engine_cell(None, scenario.clone(), dist))
                .collect();
            for index in DIST_SEEDED {
                let scenario = Scenario {
                    seed,
                    apps: DIST_SEEDED_APPS,
                    ..committed[index].clone()
                }
                .with_scheduler_seed(seed);
                cells.push(engine_cell(Some(DIST_SEEDED_JOBS), scenario, dist));
            }
            cells
        }
        Workload::ServiceOpen => {
            let horizon = if sizing.smoke {
                SERVICE_HORIZON_MINUTES / 2.0
            } else {
                SERVICE_HORIZON_MINUTES
            };
            let budget = Some(SERVICE_SEEDED_JOBS);
            vec![
                service_cell(None, ServiceShape::Poisson, 1.0, PINNED_SEED, horizon),
                service_cell(None, ServiceShape::Flash, 0.5, PINNED_SEED, horizon),
                service_cell(None, ServiceShape::Poisson, 0.25, PINNED_SEED, horizon),
                service_cell(budget, ServiceShape::Poisson, 1.0, seed, horizon),
            ]
        }
    }
}

const REFERENCE_APPS: usize = 12;

/// Reference simulations run once, untimed, for checks and for the
/// simulated metrics of a workload that has no timeline of its own:
///
/// * `dist_faults`: in-process Themis on the reliable cell's trace, which
///   the reliable distributed cell must reproduce;
/// * `arbiter_rounds`: full in-process runs over the traces of the pinned
///   states with at most [`REFERENCE_APPS`] apps, so a change to the
///   auction that alters scheduling outcomes shows in the simulated metrics
///   of the workload that prices it.
pub fn reference_reports(workload: Workload, cells: &[Cell]) -> Vec<SimReport> {
    let run = |scenario: &Scenario, trace: &[AppSpec]| {
        scenario.run_on_trace(Policy::themis_default(), trace.to_vec())
    };
    match workload {
        Workload::DistFaults => match cells.first().map(|c| &c.work) {
            Some(Work::Engine {
                scenario, trace, ..
            }) => vec![run(scenario, trace)],
            _ => Vec::new(),
        },
        Workload::ArbiterRounds => cells
            .iter()
            .filter(|cell| !cell.seeded)
            .filter_map(|cell| match &cell.work {
                Work::Rounds(state) if !state.occupied && state.arena.len() <= REFERENCE_APPS => {
                    let trace: Vec<AppSpec> =
                        state.arena.iter().map(|rt| rt.spec.clone()).collect();
                    Some(run(&state.scenario, &trace))
                }
                _ => None,
            })
            .collect(),
        Workload::ScaleBatch | Workload::ServiceOpen => Vec::new(),
    }
}

/// Whether the reliable distributed cell's report equals the in-process
/// reference, modulo the scheduler name and the control-plane block.
pub fn dist_matches_reference(dist: &SimReport, reference: &SimReport) -> bool {
    let mut dist = dist.clone();
    dist.scheduler.clone_from(&reference.scheduler);
    let complete = dist
        .control
        .take()
        .is_some_and(|c| c.completed_rounds == c.rounds);
    complete && dist == *reference
}
