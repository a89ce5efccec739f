//! The measuring `Scheduler` wrapper. It sits between the engine and the
//! policy, so everything it records is observed from outside the program:
//! host time per `schedule` call (two `Instant::now()` per round, on in
//! every run), work counters, per-round GPU conservation, and — in a traced
//! run only — a *shadow round* that re-executes the Themis pipeline step by
//! step with its own Agents and Arbiter to attribute the call's time.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::AppId;
use themis_cluster::time::Time;
use themis_core::agent::Agent;
use themis_core::arbiter::{AppStatus, Arbiter};
use themis_core::auction::{partial_allocation, SolverKind};
use themis_core::config::ThemisConfig;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, ControlPlaneStats, Scheduler};

/// Span names of the policy call, one per layer a policy can live in.
pub const CORE: &str = "core.schedule";
pub const ACTORS: &str = "core.actors.schedule";
pub const BASELINE: &str = "baselines.schedule";

/// What the wrapper saw over one cell run.
#[derive(Debug, Default, Clone)]
pub struct CallStats {
    /// `schedule` calls.
    pub calls: u64,
    /// When every inner `schedule` call began and ended, in call order.
    pub marks: Vec<(Instant, Instant)>,
    /// Calls that returned at least one decision.
    pub useful_calls: u64,
    /// GPUs named by all decisions.
    pub gpus_granted: u64,
    /// Σ over calls of the arena size — the outside proxy for apps scanned.
    pub apps_x_rounds: u64,
    /// Largest arena seen.
    pub arena_peak: usize,
    /// Decisions naming a GPU that was busy at decision time or named twice
    /// in the same round.
    pub violations: u64,
}

/// Host time of the shadow rounds' steps, and the real calls beside them.
#[derive(Debug, Default, Clone)]
pub struct ShadowStats {
    /// Shadow rounds executed.
    pub rounds: u64,
    pub free_vector_ns: u64,
    pub rho_ns: u64,
    pub rho_apps: u64,
    pub bids_ns: u64,
    pub tables: u64,
    pub rows: u64,
    pub solve_ns: u64,
    pub run_auction_ns: u64,
    pub exact_rounds: u64,
    pub greedy_rounds: u64,
    /// The real scheduler's time on exactly the shadowed calls.
    pub real_ns: u64,
}

/// The Themis pipeline rebuilt from public parts. It shares no state with
/// the scheduler under test: its Agents, Arbiter and their RNGs are its own.
struct Shadow {
    config: ThemisConfig,
    every: u64,
    arbiter: Arbiter,
    agents: BTreeMap<AppId, Agent>,
    eligible_calls: u64,
    stats: ShadowStats,
}

impl Shadow {
    fn agent(&mut self, app: AppId) -> &mut Agent {
        let config = self.config;
        self.agents
            .entry(app)
            .or_insert_with(|| Agent::new(app, &config))
    }

    /// Runs one shadow round if this is the k-th call with something to
    /// auction. Returns whether it ran.
    fn round(&mut self, tracer: &Tracer, now: Time, cluster: &Cluster, apps: &AppArena) -> bool {
        // The span also covers the eligibility scan, so the shadow's whole
        // cost is a child of the engine span, never engine self time.
        let span = tracer.begin("shadow");
        let eligible = cluster.free_gpu_count() > 0
            && apps
                .iter()
                .any(|a| a.is_schedulable(now) && a.unmet_demand(cluster) > 0);
        if eligible {
            self.eligible_calls += 1;
        }
        if !eligible || !(self.eligible_calls - 1).is_multiple_of(self.every) {
            tracer.end(span);
            return false;
        }

        let t0 = Instant::now();
        let offer = cluster.free_vector();
        let t1 = Instant::now();
        tracer.leaf("cluster.free_vector", t0, t1);

        let mut statuses: Vec<AppStatus> = Vec::new();
        for runtime in apps.iter().filter(|a| a.is_schedulable(now)) {
            let app = runtime.id();
            let rho = self.agent(app).current_rho(now, runtime, cluster).rho;
            statuses.push(AppStatus {
                app,
                rho,
                unmet_demand: runtime.unmet_demand(cluster),
                footprint: cluster.gpus_of_app(app).machines(cluster.spec()),
            });
        }
        let t2 = Instant::now();
        tracer.leaf("core.rho_probe", t1, t2);

        let participants = self.arbiter.select_participants(&statuses);
        let t3 = Instant::now();
        let mut bids = Vec::new();
        for app in &participants {
            let bid = self
                .agent(*app)
                .prepare_bid(now, &apps[*app], cluster, &offer);
            if !bid.is_empty() {
                bids.push(bid);
            }
        }
        let t4 = Instant::now();
        tracer.leaf("core.bids", t3, t4);

        let solved = std::hint::black_box(partial_allocation(&bids, &offer));
        let t5 = Instant::now();
        tracer.leaf("core.auction.solve", t4, t5);

        let outcome = std::hint::black_box(self.arbiter.run_auction(
            &offer,
            &statuses,
            &participants,
            &bids,
            cluster.spec(),
        ));
        let t6 = Instant::now();
        tracer.leaf("core.arbiter.run_auction", t5, t6);
        tracer.end(span);

        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        let s = &mut self.stats;
        s.rounds += 1;
        s.free_vector_ns += ns(t0, t1);
        s.rho_ns += ns(t1, t2);
        s.rho_apps += statuses.len() as u64;
        s.bids_ns += ns(t3, t4);
        s.tables += bids.len() as u64;
        s.rows += bids.iter().map(|b| b.entries.len() as u64).sum::<u64>();
        s.solve_ns += ns(t4, t5);
        s.run_auction_ns += ns(t5, t6);
        if !bids.is_empty() {
            match solved.solver {
                SolverKind::Exact => s.exact_rounds += 1,
                SolverKind::Greedy => s.greedy_rounds += 1,
            }
        }
        drop(outcome);
        true
    }
}

/// The wrapper. Generic over the inner scheduler so a distributed cell can
/// read `net_stats()`/`stats()` off `inner` after the run.
pub struct Probe<'t, S> {
    pub inner: S,
    pub stats: CallStats,
    /// Span name of the inner call (the layer the policy lives in).
    span: &'static str,
    tracer: &'t Tracer,
    shadow: Option<Shadow>,
    /// Scratch for the duplicate-GPU check, indexed by GPU id.
    named: Vec<bool>,
}

impl<'t, S: Scheduler> Probe<'t, S> {
    pub fn new(inner: S, span: &'static str, tracer: &'t Tracer) -> Self {
        Probe {
            inner,
            stats: CallStats::default(),
            span,
            tracer,
            shadow: None,
            named: Vec::new(),
        }
    }

    /// Adds a shadow round on every `every`-th call that has something to
    /// auction. Only a traced run asks for this.
    pub fn with_shadow(mut self, config: ThemisConfig, every: u64) -> Self {
        self.shadow = Some(Shadow {
            config,
            every: every.max(1),
            arbiter: Arbiter::new(config),
            agents: BTreeMap::new(),
            eligible_calls: 0,
            stats: ShadowStats::default(),
        });
        self
    }

    /// The span name (layer) of the inner call.
    pub fn layer(&self) -> &'static str {
        self.span
    }

    pub fn shadow_stats(&self) -> ShadowStats {
        self.shadow
            .as_ref()
            .map(|s| s.stats.clone())
            .unwrap_or_default()
    }

    /// One measured call. Public so the `arbiter_rounds` cells, which have
    /// no engine, drive the wrapper directly.
    pub fn call(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let tracer = self.tracer;
        let shadowed = match &mut self.shadow {
            Some(shadow) => shadow.round(tracer, now, cluster, apps),
            None => false,
        };
        let start = Instant::now();
        let decisions = self.inner.schedule(now, cluster, apps);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        tracer.leaf(self.span, start, end);
        if shadowed {
            if let Some(shadow) = &mut self.shadow {
                shadow.stats.real_ns += ns;
            }
        }

        let s = &mut self.stats;
        s.calls += 1;
        s.marks.push((start, end));
        s.apps_x_rounds += apps.len() as u64;
        s.arena_peak = s.arena_peak.max(apps.len());
        if !decisions.is_empty() {
            s.useful_calls += 1;
            self.named.resize(cluster.total_gpus(), false);
            for gpu in decisions.iter().flat_map(|d| &d.gpus) {
                s.gpus_granted += 1;
                match self.named.get_mut(gpu.index()) {
                    Some(seen) if !*seen && cluster.is_free(*gpu) => *seen = true,
                    _ => s.violations += 1,
                }
            }
            for gpu in decisions.iter().flat_map(|d| &d.gpus) {
                if let Some(seen) = self.named.get_mut(gpu.index()) {
                    *seen = false;
                }
            }
        }
        decisions
    }
}

// Implemented on `&mut Probe` so the engine, which consumes its scheduler,
// borrows the wrapper and the caller reads the counters after `run()`.
impl<S: Scheduler> Scheduler for &mut Probe<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        self.call(now, cluster, apps)
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn supports_incremental(&self) -> bool {
        self.inner.supports_incremental()
    }

    fn control_stats(&self) -> Option<ControlPlaneStats> {
        self.inner.control_stats()
    }
}
