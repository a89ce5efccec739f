//! The event-driven simulation engine.
//!
//! The engine owns the cluster, the per-app runtimes and the event queue,
//! and drives an arbitrary [`Scheduler`] policy through the workload:
//!
//! 1. pop the next event (app arrival, lease expiry, projected job finish),
//! 2. advance every running job's training progress to the event time,
//! 3. reclaim expired leases and release GPUs of converged / killed jobs,
//! 4. let each app's hyper-parameter scheduler kill jobs,
//! 5. run a scheduling round: the policy assigns free GPUs to jobs, leases
//!    are granted, checkpoint/restore penalties are applied to jobs whose
//!    placement changed, and follow-up events are enqueued.
//!
//! The engine is deterministic: identical inputs produce identical reports.

use crate::app_runtime::{AppRuntime, HeldScratch};
use crate::arena::AppArena;
use crate::events::{EventKind, EventQueue};
use crate::metrics::SimReport;
use crate::scheduler::Scheduler;
use std::collections::BTreeSet;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId};
use themis_cluster::time::Time;
use themis_protocol::fault::FaultConfig;
use themis_workload::app::AppSpec;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Lease duration for every granted GPU (the paper settles on 20
    /// minutes, §8.2).
    pub lease_duration: Time,
    /// Checkpoint + container-restart overhead applied to a job whose GPU
    /// set changes (the paper measures ~35–60 s total, §8.3.2).
    pub checkpoint_overhead: Time,
    /// Hard cap on simulated time; apps unfinished at the cap are reported
    /// as unfinished.
    pub max_sim_time: Time,
    /// Transport fault injection for message-driven (distributed-mode)
    /// schedulers — the plumbing point between a scenario and the
    /// scheduler built for it (see `Policy::build_with` in `themis-bench`).
    /// The engine reads only whether it is reliable: under an unreliable
    /// transport, a round that grants nothing while free GPUs and unmet
    /// demand both exist enqueues a retry a minute later (doubling on
    /// consecutive idle retries), so a round fully lost to message faults
    /// cannot drain the event queue and strand unfinished apps. Defaults to
    /// [`FaultConfig::reliable`], the classic purely event-driven behavior.
    pub fault: FaultConfig,
    /// Per-round bid deadline override for the distributed protocol modes
    /// (storm scenarios shrink or stretch it to probe deadline scaling).
    /// `None` keeps each scheduler's own default (30 s). The engine itself
    /// never reads this — policy builders pass it to the scheduler they
    /// construct.
    pub bid_deadline: Option<Time>,
    /// Incremental round hot path: skip the policy call on a round where
    /// the offer set is clean (no arrival, no lease reclaim, no GPU
    /// release since the last auction) *and* no grant is possible (zero
    /// free GPUs, or no schedulable app with unmet demand), provided the
    /// scheduler opts in via
    /// [`Scheduler::supports_incremental`].
    /// Observationally pure by construction — skipped rounds still count
    /// toward `scheduling_rounds`, so reports are byte-identical with the
    /// flag on or off. Defaults to `false` (the classic batch behavior);
    /// service mode turns it on to keep heartbeat rounds cheap.
    pub incremental: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            lease_duration: Time::minutes(20.0),
            checkpoint_overhead: Time::minutes(1.0),
            max_sim_time: Time::minutes(1_000_000.0),
            fault: FaultConfig::reliable(),
            bid_deadline: None,
            incremental: false,
        }
    }
}

impl SimConfig {
    /// Overrides the lease duration.
    ///
    /// # Panics
    /// Panics unless `lease` is positive: every grant's expiry event would
    /// land at or before the round that granted it, and the clock would
    /// never move past it.
    pub fn with_lease(mut self, lease: Time) -> Self {
        assert!(lease > Time::ZERO, "lease duration must be positive");
        self.lease_duration = lease;
        self
    }

    /// Overrides the checkpoint/restart overhead.
    pub fn with_checkpoint_overhead(mut self, overhead: Time) -> Self {
        self.checkpoint_overhead = overhead;
        self
    }

    /// Overrides the simulation time cap.
    pub fn with_max_sim_time(mut self, cap: Time) -> Self {
        self.max_sim_time = cap;
        self
    }

    /// Sets the transport fault injection for distributed-mode schedulers.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Overrides the distributed protocol's per-round bid deadline.
    pub fn with_bid_deadline(mut self, deadline: Time) -> Self {
        assert!(deadline > Time::ZERO, "bid deadline must be positive");
        self.bid_deadline = Some(deadline);
        self
    }

    /// Enables (or disables) the incremental round hot path.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }
}

/// The discrete-event simulation engine, generic over the scheduling policy.
pub struct Engine<S: Scheduler> {
    cluster: Cluster,
    apps: AppArena,
    scheduler: S,
    config: SimConfig,
    now: Time,
    events: EventQueue,
    peak_contention: f64,
    scheduling_rounds: u64,
    /// A retry event is already queued (at most one outstanding).
    retry_pending: bool,
    /// Times with a scheduler-requested wakeup already queued, so repeated
    /// `next_wakeup` answers do not flood the queue with duplicates.
    pending_wakeups: BTreeSet<Time>,
    /// Consecutive rounds that granted nothing while demand existed; drives
    /// the exponential retry backoff.
    idle_retries: u32,
    /// The offer set may have changed since the last auction actually ran:
    /// an app arrived (or was admitted mid-run), a lease was reclaimed, or
    /// a finished/killed job released GPUs. While clean, a round where no
    /// grant is possible may skip the policy call (incremental mode).
    offer_dirty: bool,
    /// Rounds in which the policy was actually invoked.
    auctions_run: u64,
    /// Rounds in which the incremental hot path skipped the policy call.
    auctions_skipped: u64,
    /// Per-round scratch, kept for its capacity: the buffers an app's held
    /// jobs are re-derived through when its allocation moved, this round's
    /// successful grants and reclaimed leases keyed `(app, job, gpu)`, and
    /// one app's finish projections.
    scratch: HeldScratch,
    granted: Vec<(AppId, JobId, GpuId)>,
    reclaimed: Vec<(AppId, JobId, GpuId)>,
    projections: Vec<(JobId, Time)>,
}

impl<S: Scheduler> Engine<S> {
    /// Creates an engine from app *specs*, attaching the default
    /// hyper-parameter scheduler to each app.
    pub fn new(cluster: Cluster, trace: Vec<AppSpec>, scheduler: S, config: SimConfig) -> Self {
        let runtimes = trace
            .into_iter()
            .map(AppRuntime::with_default_hpo)
            .collect();
        Self::with_runtimes(cluster, runtimes, scheduler, config)
    }

    /// Creates an engine from pre-built app runtimes (e.g. with custom HPO
    /// schedulers attached). Whatever a runtime derived from another cluster
    /// is dropped ([`AppRuntime::forget_holdings`]).
    pub fn with_runtimes(
        cluster: Cluster,
        runtimes: Vec<AppRuntime>,
        scheduler: S,
        config: SimConfig,
    ) -> Self {
        let apps = AppArena::from_runtimes(runtimes.into_iter().map(entering));
        Engine {
            cluster,
            apps,
            scheduler,
            config,
            now: Time::ZERO,
            events: EventQueue::new(),
            peak_contention: 0.0,
            scheduling_rounds: 0,
            retry_pending: false,
            pending_wakeups: BTreeSet::new(),
            idle_retries: 0,
            offer_dirty: true,
            auctions_run: 0,
            auctions_skipped: 0,
            scratch: HeldScratch::default(),
            granted: Vec::new(),
            reclaimed: Vec::new(),
            projections: Vec::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Read access to the cluster (useful in tests).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Read access to the app runtimes (useful in tests).
    pub fn apps(&self) -> &AppArena {
        &self.apps
    }

    /// `(auctions run, auctions skipped)`: how many rounds actually invoked
    /// the policy versus how many the incremental hot path short-circuited.
    /// The two always sum to the report's `scheduling_rounds`.
    pub fn auction_counts(&self) -> (u64, u64) {
        (self.auctions_run, self.auctions_skipped)
    }

    /// Runs the simulation to completion (all apps finished, the event queue
    /// drained, or the time cap reached) and returns the report.
    pub fn run(mut self) -> SimReport {
        let arrivals: Vec<(Time, AppId)> = self
            .apps
            .iter()
            .map(|rt| (rt.spec.arrival, rt.id()))
            .collect();
        for (arrival, app) in arrivals {
            self.events.push(arrival, EventKind::AppArrival(app));
        }

        while let Some(event) = self.events.pop() {
            if event.time > self.config.max_sim_time {
                self.advance_to(self.config.max_sim_time);
                break;
            }
            self.note_event(&event);
            self.advance_to(event.time);
            self.process_round();
            if self.all_finished() {
                break;
            }
        }

        self.into_report()
    }

    /// Event-queue bookkeeping that must happen when an event is consumed,
    /// shared between the batch loop and the service-mode stepper.
    fn note_event(&mut self, event: &crate::events::Event) {
        match event.kind {
            // A firing projection is consumed; a fresh one will be pushed if
            // the job is still running after this round.
            EventKind::JobFinish(app, job) => {
                if let Some(rt) = self.apps.get_mut(app) {
                    let queued = &mut rt.scheduled_finish;
                    if let Ok(i) = queued.binary_search_by_key(&job, |(j, _)| *j) {
                        queued.remove(i);
                    }
                }
            }
            // A new app changes the demand side of the offer.
            EventKind::AppArrival(_) => self.offer_dirty = true,
            EventKind::Retry => self.retry_pending = false,
            EventKind::Wakeup => {
                self.pending_wakeups.remove(&event.time);
            }
            EventKind::LeaseExpiry | EventKind::Tick => {}
        }
    }

    // ------------------------------------------------------------------
    // Service-mode (open-system) API. The batch `run` above fully owns the
    // engine; these entry points let `ServiceEngine` drive the same round
    // machinery under a continuous arrival stream.
    // ------------------------------------------------------------------

    /// The time of the earliest pending event, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// `true` once every app currently in the arena has finished. O(1).
    pub fn all_finished(&self) -> bool {
        self.apps.unfinished() == 0
    }

    /// Admits a batch of apps sharing one arrival time into a running
    /// simulation: advances to the arrival, inserts every runtime, then
    /// processes one scheduling round per admitted app — exactly the event
    /// sequence the batch engine produces for same-time arrivals (all
    /// runtimes visible from the first round, one round per arrival event).
    pub fn admit(&mut self, runtimes: Vec<AppRuntime>) {
        let Some(first) = runtimes.first() else {
            return;
        };
        let arrival = first.spec.arrival;
        assert!(
            arrival >= self.now,
            "admitted app arrives at {arrival:?}, before current time {:?}",
            self.now
        );
        assert!(
            runtimes.iter().all(|rt| rt.spec.arrival == arrival),
            "admit() takes one same-arrival-time batch"
        );
        let rounds = runtimes.len();
        self.advance_to(arrival);
        for rt in runtimes {
            let replaced = self.apps.insert(entering(rt));
            assert!(replaced.is_none(), "admitted app id already in the arena");
        }
        for _ in 0..rounds {
            self.offer_dirty = true;
            self.process_round();
        }
    }

    /// Pops and processes the earliest pending event if it is due at or
    /// before `horizon`. Returns `false` (without touching the clock) when
    /// the queue is empty or the next event lies beyond the horizon.
    pub fn step_due(&mut self, horizon: Time) -> bool {
        match self.events.peek_time() {
            Some(t) if t <= horizon => {}
            _ => return false,
        }
        let event = self.events.pop().expect("peeked event exists");
        self.note_event(&event);
        self.advance_to(event.time);
        self.process_round();
        true
    }

    /// Schedules a heartbeat [`Tick`](EventKind::Tick) round at `at`.
    /// Service mode uses these to keep windowed metrics and steady-state
    /// checks moving through event-free stretches; with `incremental` set,
    /// a tick on a clean offer set costs no policy call.
    pub fn push_tick(&mut self, at: Time) {
        self.events.push(at, EventKind::Tick);
    }

    /// Removes every finished app from the arena and returns their outcomes
    /// in id order. An app's outcome is frozen the moment it finishes
    /// (timelines and accumulators no longer move), so retiring it early is
    /// observationally identical to keeping it until the end of the run.
    pub fn retire_finished(&mut self) -> Vec<crate::metrics::AppOutcome> {
        self.apps
            .take_finished()
            .iter()
            .map(crate::metrics::AppOutcome::from_runtime)
            .collect()
    }

    /// Final bookkeeping and report extraction over the apps still in the
    /// arena. (Service mode merges these with the outcomes it collected at
    /// retirement time.)
    pub fn into_report(mut self) -> SimReport {
        // Final bookkeeping so completion metrics reflect the end state.
        for rt in self.apps.iter_mut() {
            rt.try_finish(self.now);
        }
        let control = self.scheduler.control_stats();
        SimReport::from_apps(
            self.scheduler.name(),
            &self.apps,
            self.now,
            self.peak_contention,
            self.scheduling_rounds,
        )
        .with_control(control)
    }

    /// Advances training progress of every running job to time `t`: a walk
    /// over the active apps that hold GPUs (an app that arrived since the
    /// last round holds none yet), each over its cached held jobs.
    fn advance_to(&mut self, t: Time) {
        let dt = t - self.now;
        if dt > Time::ZERO {
            let Engine {
                cluster,
                apps,
                scratch,
                ..
            } = self;
            for i in 0..apps.active_ids().len() {
                let app_id = apps.active_ids()[i];
                if cluster.gpus_held_by(app_id) > 0 {
                    apps[app_id].advance_with(cluster, self.now, dt, scratch);
                }
            }
        }
        self.now = t;
    }

    /// Whether some active app still wants GPUs beyond what it holds.
    fn has_unmet_demand(&self) -> bool {
        self.apps
            .active()
            .any(|a| a.unmet_demand(&self.cluster) > 0)
    }

    /// One full post-event processing + scheduling round. Every per-app
    /// pass below walks the arena's active list (arrived, unfinished, id
    /// order): an app that has not arrived is not in the system yet, and a
    /// finished app holds no GPUs and has a frozen timeline.
    fn process_round(&mut self) {
        let now = self.now;
        self.apps.activate_arrived(now);
        // Reclaims and releases below only ever *free* GPUs, so a changed
        // free count after steps 1–2 is exactly "the offer set changed".
        let free_before = self.cluster.free_gpu_count();

        // 1. Reclaim expired leases, remembering them so that an immediate
        //    re-grant of the same GPUs (a lease renewal) does not pay the
        //    checkpoint penalty.
        self.reclaimed.clear();
        self.reclaimed.extend(
            self.cluster
                .reclaim_expired_leases(now)
                .iter()
                .map(|lease| (lease.app, lease.job, lease.gpu)),
        );

        // 2. Release GPUs of converged jobs, run each app's HPO scheduler,
        //    release GPUs of killed jobs, and detect app completion.
        let mut app_finished = false;
        for i in 0..self.apps.active_ids().len() {
            let app_id = self.apps.active_ids()[i];
            let rt = &mut self.apps[app_id];
            // Converged jobs give up their GPUs. Only advance finishes a job
            // that holds GPUs — kills and app completion release on the spot
            // below — so only an app whose advance converged one is scanned.
            if std::mem::take(&mut rt.may_hold_finished) {
                self.cluster.release_jobs_where(app_id, |job| {
                    rt.job(job).is_some_and(|(spec, p)| p.is_finished(spec))
                });
            }
            // HPO decisions (kills, priority changes). Called every round
            // even without progress: `AppScheduler::update` is not
            // idempotent.
            if !rt.is_finished() {
                let killed = rt.run_hpo(now);
                if !killed.is_empty() {
                    self.cluster
                        .release_jobs_where(app_id, |job| killed.contains(&job));
                }
            }
            if rt.try_finish(now) {
                // Defensive: an app that finished must hold no GPUs.
                self.cluster.release_app(app_id);
                rt.record_gpu_count(now, 0);
                app_finished = true;
            }
        }
        if app_finished {
            self.apps.settle_finished();
        }

        if self.cluster.free_gpu_count() != free_before {
            self.offer_dirty = true;
        }

        // 3. Track contention.
        let demand: usize = self.apps.active().map(|a| a.total_demand()).sum();
        let contention = demand as f64 / self.cluster.total_gpus().max(1) as f64;
        if contention > self.peak_contention {
            self.peak_contention = contention;
        }

        // 4. Run the policy and apply its decisions. The incremental hot
        //    path skips the call on a clean offer set when no grant is
        //    possible anyway — every opted-in policy provably early-returns
        //    with no decisions, no RNG draws and no state changes in exactly
        //    that state, so the skip is observationally pure. The round
        //    still counts toward `scheduling_rounds`, keeping reports
        //    byte-identical with the flag on or off.
        let skip_auction = self.config.incremental
            && !self.offer_dirty
            && self.scheduler.supports_incremental()
            && (self.cluster.free_gpu_count() == 0 || !self.has_unmet_demand());
        let decisions = if skip_auction {
            self.auctions_skipped += 1;
            Vec::new()
        } else {
            self.auctions_run += 1;
            self.offer_dirty = false;
            self.scheduler.schedule(now, &self.cluster, &self.apps)
        };
        self.scheduling_rounds += 1;
        let lease_expiry = now + self.config.lease_duration;
        self.granted.clear();
        for decision in decisions {
            // Decisions for an app that is gone or finished, or for a job
            // it does not have or that is finished, are dropped.
            let grantable = self.apps.get(decision.app).is_some_and(|rt| {
                rt.is_schedulable(now)
                    && rt
                        .job(decision.job)
                        .is_some_and(|(spec, p)| !p.is_finished(spec))
            });
            if !grantable {
                continue;
            }
            for gpu in decision.gpus {
                if self
                    .cluster
                    .allocate(gpu, decision.app, decision.job, now, lease_expiry)
                    .is_ok()
                {
                    self.granted.push((decision.app, decision.job, gpu));
                }
            }
        }
        let new_leases = !self.granted.is_empty();

        // Renewing exactly the GPUs a job already held is not a placement
        // change; anything else pays the checkpoint/restart overhead
        // (provided the job had progressed at all). A job granted GPUs this
        // round is unfinished, so nothing but step 1 took GPUs from it: its
        // GPU set is unchanged exactly when what it was granted is what was
        // reclaimed from it.
        self.granted.sort_unstable();
        self.reclaimed.sort_unstable();
        for grants in self.granted.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (app_id, job_id, _) = grants[0];
            let lo = self
                .reclaimed
                .partition_point(|r| (r.0, r.1) < (app_id, job_id));
            let len = self.reclaimed[lo..].partition_point(|r| (r.0, r.1) == (app_id, job_id));
            let is_renewal = grants == &self.reclaimed[lo..lo + len];
            let rt = &mut self.apps[app_id];
            let had_progress = rt.progress[&job_id].iterations_done > 0.0;
            if !is_renewal && had_progress && self.config.checkpoint_overhead > Time::ZERO {
                rt.restart_until
                    .insert(job_id, now + self.config.checkpoint_overhead);
            }
        }

        // 5. Enqueue follow-up events and record timelines.
        if new_leases {
            self.events.push(lease_expiry, EventKind::LeaseExpiry);
            self.idle_retries = 0;
        } else if !self.config.fault.is_reliable() {
            // A round that granted nothing while free GPUs and unmet demand
            // both exist is (for a message-driven scheduler) a round lost to
            // transport faults: re-attempt it after a backoff instead of
            // letting the event queue drain with apps stranded.
            let starved = self.cluster.free_gpu_count() > 0 && self.has_unmet_demand();
            if starved && !self.retry_pending {
                let backoff = Time::minutes(1.0) * f64::from(1u32 << self.idle_retries.min(16));
                self.events.push(now + backoff, EventKind::Retry);
                self.retry_pending = true;
                self.idle_retries = self.idle_retries.saturating_add(1);
            }
        }
        // Projected completion events for every job that currently holds
        // GPUs, walking each app's cached held jobs rather than its job
        // specs. The projections are deduplicated: a new event is only
        // pushed when the projection differs from the last one we enqueued,
        // so the queue stays linear in the number of real state changes. A
        // job that holds nothing (or finished) drops out of
        // `scheduled_finish`.
        let Engine {
            cluster,
            apps,
            events,
            scratch,
            projections,
            ..
        } = self;
        for i in 0..apps.active_ids().len() {
            let app_id = apps.active_ids()[i];
            let rt = &mut apps[app_id];
            rt.record_gpu_count(now, cluster.gpus_held_by(app_id));
            rt.held.refresh(cluster, &rt.spec, scratch);
            projections.clear();
            let mut queued = rt.scheduled_finish.iter().copied().peekable();
            for held in rt.held_jobs() {
                let job_spec = &rt.spec.jobs[held.pos];
                let progress = &rt.progress.as_slice()[held.pos];
                if progress.is_finished(job_spec) {
                    continue;
                }
                let job = job_spec.id;
                while queued.next_if(|(j, _)| *j < job).is_some() {}
                let already = queued.next_if(|(j, _)| *j == job).map(|(_, at)| at);
                // Projections must stay symmetric with AppRuntime::advance,
                // so they use the same held-job facts and the same
                // generation-weighted effective rate.
                let mut eta = progress.time_to_complete_weighted(
                    job_spec,
                    held.gpus,
                    held.usable_speed,
                    held.locality,
                );
                if let Some(restart) = rt.restart_until.as_slice()[held.pos] {
                    if restart > now {
                        eta += restart - now;
                    }
                }
                let finish = now + eta;
                let keep = match already {
                    // An unreachable finish leaves the queued projection be.
                    _ if !eta.is_finite() => already,
                    // Re-push when the projection moved by more than a
                    // hundredth of a minute (avoids float-noise churn).
                    Some(prev) if (prev - finish).as_minutes().abs() <= 0.01 => already,
                    _ => {
                        events.push(finish, EventKind::JobFinish(app_id, job));
                        Some(finish)
                    }
                };
                projections.extend(keep.map(|at| (job, at)));
            }
            std::mem::swap(&mut rt.scheduled_finish, projections);
        }

        // 6. An actor-based scheduler may have a message delivery or a
        //    protocol timer due at a time no workload event lands on; queue
        //    a wakeup so the actor runtime is driven there (deduplicated
        //    per timestamp).
        if let Some(wake) = self.scheduler.next_wakeup() {
            if wake > now && self.pending_wakeups.insert(wake) {
                self.events.push(wake, EventKind::Wakeup);
            }
        }
    }
}

/// A runtime entering an engine keeps nothing it derived from another
/// cluster.
fn entering(mut rt: AppRuntime) -> AppRuntime {
    rt.forget_holdings();
    rt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{pick_gpus_packed, split_among_jobs, AllocationDecision};
    use themis_cluster::ids::JobId;
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;
    use themis_workload::trace::{TraceConfig, TraceGenerator};

    /// A simple work-conserving FIFO policy used to exercise the engine: it
    /// walks schedulable apps in arrival order and packs free GPUs onto
    /// their jobs through a borrowed `ClusterView` (no per-round clone).
    struct FifoScheduler;

    impl Scheduler for FifoScheduler {
        fn name(&self) -> &'static str {
            "fifo"
        }

        fn schedule(
            &mut self,
            now: Time,
            cluster: &Cluster,
            apps: &AppArena,
        ) -> Vec<AllocationDecision> {
            use themis_cluster::view::ClusterState;
            let mut shadow = cluster.view();
            let mut out = Vec::new();
            let mut order: Vec<&AppRuntime> =
                apps.iter().filter(|a| a.is_schedulable(now)).collect();
            order.sort_by(|a, b| {
                a.spec
                    .arrival
                    .cmp(&b.spec.arrival)
                    .then(a.id().cmp(&b.id()))
            });
            for app in order {
                let want = app.unmet_demand(&shadow);
                if want == 0 {
                    continue;
                }
                let budget = want.min(shadow.free_gpu_count());
                for (job, count) in split_among_jobs(app, &shadow, budget) {
                    let prefer = shadow.gpus_of_job(app.id(), job).machines(shadow.spec());
                    let gpus = pick_gpus_packed(&shadow, count, &prefer);
                    for gpu in &gpus {
                        shadow.allocate(*gpu, app.id(), job).expect("gpu was free");
                    }
                    if !gpus.is_empty() {
                        out.push(AllocationDecision {
                            app: app.id(),
                            job,
                            gpus,
                        });
                    }
                }
            }
            out
        }
    }

    fn single_job_app(id: u32, arrival: f64, iterations: f64, gpus: usize) -> AppSpec {
        let job = JobSpec::new(
            JobId(0),
            ModelArch::ResNet50,
            iterations,
            Time::minutes(0.1),
            gpus,
        );
        AppSpec::single_job(AppId(id), Time::minutes(arrival), job)
    }

    #[test]
    fn single_app_runs_to_completion() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        // 400 iterations * 0.1 min / 4 GPUs = 10 minutes of ideal time.
        let trace = vec![single_job_app(0, 0.0, 400.0, 4)];
        let report = Engine::new(cluster, trace, FifoScheduler, SimConfig::default()).run();
        assert_eq!(report.finished_apps(), 1);
        let outcome = &report.apps[0];
        let ct = outcome.completion_time.unwrap().as_minutes();
        assert!(
            (ct - 10.0).abs() < 0.5,
            "completion time {ct} should be ~10min"
        );
        // Alone on the cluster, rho should be ~1.
        assert!((outcome.rho.unwrap() - 1.0).abs() < 0.1);
        // 4 GPUs on one machine (PCIe) score 0.9 (`Locality::Machine`).
        assert!(outcome.placement_score >= 0.9 - 1e-9);
    }

    #[test]
    fn two_apps_contend_for_gpus() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let trace = vec![
            single_job_app(0, 0.0, 400.0, 4),
            single_job_app(1, 0.0, 400.0, 4),
        ];
        let report = Engine::new(
            cluster,
            trace,
            FifoScheduler,
            SimConfig::default().with_checkpoint_overhead(Time::ZERO),
        )
        .run();
        assert_eq!(report.finished_apps(), 2);
        // With FIFO, app 0 runs first (≈10 min), app 1 waits for the lease
        // to expire before getting the GPUs, so it finishes much later.
        let rho1 = report.apps[1].rho.unwrap();
        assert!(rho1 > 1.5, "second app must be delayed, rho = {rho1}");
        assert!(report.peak_contention >= 2.0);
        assert!(report.total_gpu_time.as_minutes() > 0.0);
    }

    #[test]
    fn late_arrivals_are_not_scheduled_early() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let trace = vec![single_job_app(0, 30.0, 100.0, 2)];
        let report = Engine::new(cluster, trace, FifoScheduler, SimConfig::default()).run();
        let outcome = &report.apps[0];
        assert!(outcome.finished_at.unwrap() >= Time::minutes(30.0));
        // Completion time counts from arrival, not from t=0.
        assert!(outcome.completion_time.unwrap().as_minutes() < 20.0);
    }

    #[test]
    fn max_sim_time_caps_the_run() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 1));
        // One enormous job that cannot finish within the cap.
        let trace = vec![single_job_app(0, 0.0, 1e9, 1)];
        let report = Engine::new(
            cluster,
            trace,
            FifoScheduler,
            SimConfig::default().with_max_sim_time(Time::minutes(100.0)),
        )
        .run();
        assert_eq!(report.finished_apps(), 0);
        assert_eq!(report.unfinished_apps(), 1);
        assert!(report.end_time <= Time::minutes(100.0) + Time::minutes(1e-6));
    }

    #[test]
    fn multi_job_apps_finish_via_hyperband() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::new(
                    JobId(i),
                    ModelArch::ResNet50,
                    400.0 + 100.0 * i as f64,
                    Time::minutes(0.1),
                    2,
                )
            })
            .collect();
        let trace = vec![AppSpec::new(AppId(0), Time::ZERO, jobs)];
        let report = Engine::new(cluster, trace, FifoScheduler, SimConfig::default()).run();
        assert_eq!(report.finished_apps(), 1);
        // The app must finish no later than its longest job would take alone.
        let ct = report.apps[0].completion_time.unwrap().as_minutes();
        assert!(ct < 700.0 * 0.1 / 2.0 * 4.0, "completion time {ct}");
    }

    /// A scheduler that never grants anything — stands in for a
    /// message-driven round in which every message was dropped.
    struct NullScheduler;

    impl Scheduler for NullScheduler {
        fn name(&self) -> &'static str {
            "null"
        }

        fn schedule(
            &mut self,
            _now: Time,
            _cluster: &Cluster,
            _apps: &AppArena,
        ) -> Vec<AllocationDecision> {
            Vec::new()
        }
    }

    #[test]
    fn retry_interval_keeps_rescheduling_after_lost_rounds() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let trace = vec![single_job_app(0, 0.0, 100.0, 2)];
        let config = SimConfig::default().with_max_sim_time(Time::minutes(10_000.0));
        // Reliable transport, no retries: the arrival event is the only
        // event, the null scheduler grants nothing, and the queue drains
        // after one round.
        let no_retry = Engine::new(cluster.clone(), trace.clone(), NullScheduler, config).run();
        assert_eq!(no_retry.scheduling_rounds, 1);
        // A lossy transport: rounds keep firing on the backoff schedule
        // until the time cap, and the run still terminates.
        let lossy = config.with_faults(FaultConfig::reliable().with_drop_probability(0.5));
        let with_retry = Engine::new(cluster, trace, NullScheduler, lossy).run();
        assert!(
            with_retry.scheduling_rounds > 5,
            "expected several retry rounds, got {}",
            with_retry.scheduling_rounds
        );
        assert_eq!(with_retry.unfinished_apps(), 1);
        assert!(with_retry.end_time <= Time::minutes(10_000.0) + Time::minutes(1e-6));
    }

    /// A scheduler that grants nothing but asks to be woken one minute
    /// after every round until a horizon — stands in for an actor runtime
    /// with pending message deliveries.
    struct WakeupProbe {
        last: Time,
        until: Time,
    }

    impl Scheduler for WakeupProbe {
        fn name(&self) -> &'static str {
            "wakeup-probe"
        }

        fn schedule(
            &mut self,
            now: Time,
            _cluster: &Cluster,
            _apps: &AppArena,
        ) -> Vec<AllocationDecision> {
            self.last = now;
            Vec::new()
        }

        fn next_wakeup(&self) -> Option<Time> {
            (self.last < self.until).then(|| self.last + Time::minutes(1.0))
        }
    }

    #[test]
    fn scheduler_wakeups_drive_extra_rounds() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 1, 4));
        let trace = vec![single_job_app(0, 0.0, 1e9, 1)];
        let report = Engine::new(
            cluster,
            trace,
            WakeupProbe {
                last: Time::minutes(-1.0),
                until: Time::minutes(10.0),
            },
            SimConfig::default().with_max_sim_time(Time::minutes(10_000.0)),
        )
        .run();
        // The arrival round at t=0 plus one wakeup-driven round per minute
        // through t=10; after that `next_wakeup` returns `None` and the
        // queue drains instead of looping forever.
        assert_eq!(report.scheduling_rounds, 11);
        assert_eq!(report.end_time, Time::minutes(10.0));
    }

    /// A lease ending at or before its grant would queue its expiry at the
    /// current time (or in the past) forever; `with_lease` refuses it.
    #[test]
    #[should_panic(expected = "lease duration must be positive")]
    fn a_non_positive_lease_is_refused() {
        let _ = SimConfig::default().with_lease(Time::ZERO);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let run = || {
            let cluster = Cluster::new(ClusterSpec::heterogeneous_256());
            let trace = TraceGenerator::new(TraceConfig::default().with_num_apps(10).with_seed(3))
                .generate();
            Engine::new(cluster, trace, FifoScheduler, SimConfig::default()).run()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn small_trace_completes_on_large_cluster() {
        let cluster = Cluster::new(ClusterSpec::heterogeneous_256());
        let trace =
            TraceGenerator::new(TraceConfig::default().with_num_apps(8).with_seed(11)).generate();
        let report = Engine::new(
            cluster,
            trace,
            FifoScheduler,
            SimConfig::default().with_max_sim_time(Time::minutes(200_000.0)),
        )
        .run();
        assert_eq!(report.unfinished_apps(), 0, "all apps should finish");
        // On an over-provisioned cluster apps can *beat* their ideal time
        // (T_ID conservatively ignores early termination by the HPO
        // framework), so ρ < 1 is legitimate here (observed ≈ 0.61). The
        // upper bound still catches starvation regressions: a delayed app
        // on an idle cluster pushes max ρ well past 2.
        let max_fairness = report.max_fairness().unwrap();
        assert!(
            max_fairness > 0.0 && max_fairness < 2.0,
            "unexpected max fairness {max_fairness} on an over-provisioned cluster"
        );
        assert!(report.scheduling_rounds > 0);
    }
}
