//! Property tests: the dense and indexed structures agree with the ordered
//! reference models they replaced.
//!
//! The PR that introduced the dense scheduler core swapped `GpuAlloc` from
//! a `BTreeSet<GpuId>` to a sorted vector and `FreeVector` from a
//! `BTreeMap<MachineId, usize>` to a machine-indexed count vector, with the
//! explicit contract that every observable behavior — membership, counts,
//! iteration order, set algebra — is unchanged. These tests drive both
//! representations through randomized operation sequences against the old
//! ordered-tree types as the model, so any divergence (a broken merge, a
//! stale cached total, a trailing-zero equality bug) fails here before it
//! can perturb a scheduling decision.
//!
//! The change-proportional engine round made the same kind of swap four
//! more times, and the second half of this file holds the code it deleted
//! as reference models: the `held_before` snapshot behind lease-renewal
//! detection, the full-table lease scan, the eager curve fit, and the
//! `BTreeMap`-keyed per-job state. A last test pins that none of the dense
//! tables depends on ids being dense.
//!
//! The round that re-derives only what changed deleted three more pieces,
//! kept in the last section as reference models: the regroup-every-round
//! advance and projection, the every-round scan for finished jobs that
//! hold GPUs, and the `BTreeMap`-keyed, loss-first HyperBand. Each of its
//! four properties was checked to fail under a seeded mutation:
//!
//! * (a) cached holdings ≡ a fresh regroup — fails when
//!   `Cluster::clear_assignment` does not bump the app's allocation epoch;
//! * (b) no finished job holds a GPU after step 2 — fails when advance
//!   converges a held job without raising `may_hold_finished`;
//! * (c) dense HyperBand ≡ the map model — fails when `HyperBand::update`
//!   zips its estimators with the active jobs only;
//! * (d) a runtime entering an engine re-derives its holdings — fails
//!   when `with_runtimes`/`admit` skip `AppRuntime::forget_holdings`.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use themis_bench::policies::Policy;
use themis_bench::scenarios::{ClusterKind, GenMix, Scenario};
use themis_cluster::alloc::{FreeVector, GpuAlloc};
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId, MachineId};
use themis_cluster::lease::{Lease, LeaseTable};
use themis_cluster::placement::{spread, Locality};
use themis_cluster::time::Time;
use themis_cluster::topology::{ClusterSpec, GpuGeneration};
use themis_cluster::view::ClusterState;
use themis_hpo::api::{AppScheduler, JobViews};
use themis_hpo::estimator::WorkEstimator;
use themis_hpo::hyperband::HyperBand;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::engine::{Engine, SimConfig};
use themis_sim::metrics::SimReport;
use themis_sim::scheduler::{AllocationDecision, Scheduler};
use themis_workload::app::AppSpec;
use themis_workload::job::{JobProgress, JobSpec};
use themis_workload::loss::{fit_power_law, LossCurve};
use themis_workload::models::ModelArch;
use themis_workload::trace::{TraceConfig, TraceGenerator};

/// The shared test topology: 3 racks × 4 machines × 4 GPUs = 48 GPUs,
/// so random ids in `0..64` also exercise unknown-GPU handling.
fn spec() -> ClusterSpec {
    ClusterSpec::homogeneous(3, 4, 4)
}

fn model_per_machine(model: &BTreeSet<u32>, spec: &ClusterSpec) -> BTreeMap<MachineId, usize> {
    let mut counts = BTreeMap::new();
    for gpu in model {
        if let Some(machine) = spec.machine_of(GpuId(*gpu)) {
            *counts.entry(machine).or_insert(0) += 1;
        }
    }
    counts
}

/// Checks every observable of a `GpuAlloc` against the `BTreeSet` model.
fn assert_alloc_matches(alloc: &GpuAlloc, model: &BTreeSet<u32>, spec: &ClusterSpec) {
    assert_eq!(alloc.len(), model.len());
    assert_eq!(alloc.is_empty(), model.is_empty());
    let dense: Vec<u32> = alloc.iter().map(|g| g.0).collect();
    let reference: Vec<u32> = model.iter().copied().collect();
    assert_eq!(dense, reference, "iteration order must match the BTreeSet");
    assert_eq!(alloc.per_machine(spec), model_per_machine(model, spec));
    let machines: BTreeSet<MachineId> = model
        .iter()
        .filter_map(|g| spec.machine_of(GpuId(*g)))
        .collect();
    assert_eq!(alloc.machines(spec), machines);
    for gpu in 0..70u32 {
        assert_eq!(alloc.contains(GpuId(gpu)), model.contains(&gpu));
    }
}

/// Checks every observable of a `FreeVector` against the `BTreeMap` model.
fn assert_vector_matches(vector: &FreeVector, model: &BTreeMap<u32, usize>) {
    let model_nonzero: Vec<(MachineId, usize)> = model
        .iter()
        .filter(|(_, c)| **c > 0)
        .map(|(m, c)| (MachineId(*m), *c))
        .collect();
    assert_eq!(vector.total(), model.values().sum::<usize>());
    assert_eq!(vector.is_empty(), vector.total() == 0);
    assert_eq!(
        vector.iter().collect::<Vec<_>>(),
        model_nonzero,
        "iteration order must match the BTreeMap"
    );
    assert_eq!(
        vector.machines().collect::<Vec<_>>(),
        model_nonzero.iter().map(|(m, _)| *m).collect::<Vec<_>>()
    );
    for machine in 0..40u32 {
        assert_eq!(
            vector.on_machine(MachineId(machine)),
            model.get(&machine).copied().unwrap_or(0),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized insert/remove sequences keep the dense `GpuAlloc` in
    /// lock-step with a `BTreeSet` model, and union agrees with the
    /// model's.
    #[test]
    fn gpu_alloc_agrees_with_btree_set_model(
        ops in prop::collection::vec((0u8..2, 0u32..64), 0..120),
        other in prop::collection::vec(0u32..64, 0..40),
    ) {
        let spec = spec();
        let mut alloc = GpuAlloc::empty();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for (op, gpu) in ops {
            match op {
                0 => prop_assert_eq!(alloc.insert(GpuId(gpu)), model.insert(gpu)),
                _ => prop_assert_eq!(alloc.remove(GpuId(gpu)), model.remove(&gpu)),
            }
            assert_alloc_matches(&alloc, &model, &spec);
        }

        // Union with a second randomized set.
        let other_alloc = GpuAlloc::from_gpus(other.iter().map(|g| GpuId(*g)));
        let other_model: BTreeSet<u32> = other.into_iter().collect();
        assert_alloc_matches(
            &alloc.union(&other_alloc),
            &model.union(&other_model).copied().collect(),
            &spec,
        );
        // Round-trip through the constructor preserves equality.
        prop_assert_eq!(&GpuAlloc::from_gpus(alloc.iter()), &alloc);
    }

    /// Randomized set/add-assign/sub-assign sequences keep the dense
    /// `FreeVector` in lock-step with a `BTreeMap` model, including the
    /// "machines with zero count are omitted" equality semantics; a
    /// subtraction takes at most what the machine has, as `sub_assign`
    /// requires, and the model's saturating one is the same.
    #[test]
    fn free_vector_agrees_with_btree_map_model(
        ops in prop::collection::vec((0u8..3, 0u32..24, 0usize..6), 0..80),
    ) {
        let mut vector = FreeVector::empty();
        let mut model: BTreeMap<u32, usize> = BTreeMap::new();
        for (op, machine, count) in ops {
            let m = MachineId(machine);
            match op {
                0 => {
                    vector.set(m, count);
                    if count == 0 {
                        model.remove(&machine);
                    } else {
                        model.insert(machine, count);
                    }
                }
                1 => {
                    let delta = FreeVector::from_counts([(m, count)]);
                    vector.add_assign(&delta);
                    if count > 0 {
                        *model.entry(machine).or_insert(0) += count;
                    }
                }
                _ => {
                    let delta = FreeVector::from_counts([(m, count.min(vector.on_machine(m)))]);
                    vector.sub_assign(&delta);
                    if count > 0 {
                        if let Some(current) = model.get_mut(&machine) {
                            *current = current.saturating_sub(count);
                            if *current == 0 {
                                model.remove(&machine);
                            }
                        }
                    }
                }
            }
            assert_vector_matches(&vector, &model);
        }

        // Equality matches the sparse model's: rebuilding from the nonzero
        // pairs yields an equal vector regardless of mutation history.
        let rebuilt = FreeVector::from_counts(vector.iter());
        prop_assert_eq!(&rebuilt, &vector);
        // contains_vector agrees with a per-machine comparison.
        prop_assert!(vector.contains_vector(&rebuilt));
    }

    /// `add_assign` matches the per-machine sum of the two vectors,
    /// computed on a `BTreeMap` model.
    #[test]
    fn free_vector_add_assign_agrees_with_add(
        counts in prop::collection::vec((0u32..24, 0usize..5), 0..12),
        extra in prop::collection::vec((0u32..24, 1usize..5), 0..12),
    ) {
        let vector = FreeVector::from_counts(counts.iter().map(|(m, c)| (MachineId(*m), *c)));
        let delta = FreeVector::from_counts(extra.iter().map(|(m, c)| (MachineId(*m), *c)));
        let mut sum: BTreeMap<MachineId, usize> = BTreeMap::new();
        for (machine, count) in vector.iter().chain(delta.iter()) {
            *sum.entry(machine).or_insert(0) += count;
        }
        let mut in_place = vector.clone();
        in_place.add_assign(&delta);
        prop_assert_eq!(in_place, FreeVector::from_counts(sum));
    }
}

// ---------------------------------------------------------------------
// Reference models for the change-proportional engine round.
// ---------------------------------------------------------------------

/// A policy driven by a byte script: for every unfinished job (app-id then
/// job-id order) one byte decides whether to grant, how many GPUs, and
/// whether to take the lowest or the highest free ids. Lowest-first
/// re-grants exactly what a lease expiry just freed (a renewal);
/// highest-first moves the job (a restart). A byte with bit 6 set lets the
/// job grow up to two GPUs past its max parallelism.
struct Scripted {
    script: Vec<u8>,
    cursor: usize,
}

impl Scripted {
    fn next_byte(&mut self) -> u8 {
        let byte = self.script[self.cursor % self.script.len()];
        self.cursor += 1;
        byte
    }
}

impl Scheduler for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let mut shadow = cluster.view();
        let mut out = Vec::new();
        for app in apps.iter().filter(|a| a.is_schedulable(now)) {
            for job in app.active_jobs() {
                let byte = self.next_byte();
                let held = shadow.gpus_of_job(app.id(), job).len();
                let over_cap = if byte & 0x40 != 0 { 2 } else { 0 };
                let want = (app.effective_max_parallelism(job) + over_cap).saturating_sub(held);
                let free = shadow.free_gpus();
                if byte.is_multiple_of(3) || want == 0 || free.is_empty() {
                    continue;
                }
                let count = (1 + usize::from(byte / 8) % want).min(free.len());
                let gpus: Vec<GpuId> = if byte & 4 == 0 {
                    free[..count].to_vec()
                } else {
                    free[free.len() - count..].to_vec()
                };
                for gpu in &gpus {
                    shadow.allocate(*gpu, app.id(), job).expect("gpu was free");
                }
                out.push(AllocationDecision {
                    app: app.id(),
                    job,
                    gpus,
                });
            }
        }
        out
    }
}

type Holdings = BTreeMap<(AppId, JobId), BTreeSet<GpuId>>;

/// The deleted `Cluster::jobs_of_app`: every `(job, gpu)` pair of the app
/// sorted, then cut into one ascending allocation per job.
fn jobs_of_app(cluster: &Cluster, app: AppId) -> BTreeMap<JobId, GpuAlloc> {
    let mut pairs: Vec<(JobId, GpuId)> = cluster
        .gpus_of_app(app)
        .iter()
        .map(|gpu| (cluster.assignment(gpu).expect("held gpu").job, gpu))
        .collect();
    pairs.sort_unstable();
    pairs
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| {
            let gpus = run.iter().map(|(_, gpu)| *gpu).collect();
            (run[0].0, GpuAlloc::from_sorted(gpus))
        })
        .collect()
}

/// The deleted `held_before` snapshot: every holding of every app.
fn snapshot_holdings<S: Scheduler>(engine: &Engine<S>) -> Holdings {
    let mut held = Holdings::new();
    for rt in engine.apps().iter() {
        for (job, alloc) in jobs_of_app(engine.cluster(), rt.id()) {
            held.insert((rt.id(), job), alloc.iter().collect());
        }
    }
    held
}

fn restart_penalties<S: Scheduler>(engine: &Engine<S>) -> BTreeMap<(AppId, JobId), Option<Time>> {
    engine
        .apps()
        .iter()
        .flat_map(|rt| {
            rt.restart_until
                .iter()
                .map(|(job, until)| ((rt.id(), job), *until))
        })
        .collect()
}

/// What an app's cached [`HeldJob`](themis_sim::app_runtime::HeldJob)s
/// say, one `(job, gpus, locality, usable speed)` per GPU-holding job.
type HeldFacts = Vec<(JobId, usize, Locality, f64)>;

fn cached_holdings(rt: &AppRuntime) -> HeldFacts {
    rt.held_jobs()
        .iter()
        .map(|h| (rt.spec.jobs[h.pos].id, h.gpus, h.locality, h.usable_speed))
        .collect()
}

/// The deleted regroup-every-round derivation: the same facts computed
/// from scratch off the sorted per-job grouping, through `spread` and
/// `capped_speed`.
fn regrouped_holdings(cluster: &Cluster, rt: &AppRuntime) -> HeldFacts {
    jobs_of_app(cluster, rt.id())
        .into_iter()
        .map(|(job, alloc)| {
            let cap = rt.job_spec(job).expect("held job exists").max_parallelism;
            let speed = cluster.spec().capped_speed(&alloc, cap);
            (job, alloc.len(), spread(&alloc, cluster.spec()), speed)
        })
        .collect()
}

/// Drives an engine under a [`Scripted`] policy one round at a time —
/// admitting apps and retiring finished ones as service mode does,
/// stepping events in between — and checks two rules after each round:
///
/// * every job's `restart_until` against the old renewal rule: a job that
///   was granted GPUs this round pays the checkpoint overhead unless the
///   set it holds now equals the set it held before the round (and it had
///   made progress at all);
/// * every active app's cached held jobs against a fresh regroup.
struct RenewalChecker {
    engine: Engine<Scripted>,
    /// Apps not admitted yet, earliest arrival first.
    pending: Vec<AppRuntime>,
    overhead: Time,
    /// Rounds × jobs that paid the overhead so far.
    restarts: usize,
}

impl RenewalChecker {
    fn new(mut specs: Vec<AppSpec>, topology: ClusterSpec, script: Vec<u8>) -> Self {
        let overhead = Time::minutes(1.0);
        let config = SimConfig::default()
            .with_lease(Time::minutes(20.0))
            .with_checkpoint_overhead(overhead);
        let cluster = Cluster::new(topology);
        specs.sort_by_key(|spec| (spec.arrival, spec.id));
        RenewalChecker {
            engine: Engine::with_runtimes(
                cluster,
                Vec::new(),
                Scripted { script, cursor: 0 },
                config,
            ),
            pending: specs
                .into_iter()
                .map(AppRuntime::with_default_hpo)
                .collect(),
            overhead,
            restarts: 0,
        }
    }

    /// Runs every round due at or before `horizon`, arrivals winning ties.
    fn run(&mut self, horizon: Time) {
        loop {
            let held_before = snapshot_holdings(&self.engine);
            let mut expected = restart_penalties(&self.engine);
            let next_arrival = self.pending.first().map(|rt| rt.spec.arrival);
            let next_event = self.engine.next_event_time();
            match next_arrival {
                Some(at) if at <= horizon && next_event.is_none_or(|e| at <= e) => {
                    self.engine.admit(vec![self.pending.remove(0)]);
                }
                _ if self.engine.step_due(horizon) => {}
                _ => return,
            }
            self.engine.retire_finished();
            let engine = &self.engine;
            let now = engine.now();
            for rt in engine.apps().active() {
                assert_eq!(
                    cached_holdings(rt),
                    regrouped_holdings(engine.cluster(), rt),
                    "app {} after the round at {now}",
                    rt.id()
                );
            }
            for ((app, job), new_set) in snapshot_holdings(engine) {
                let granted_now = new_set.iter().any(|gpu| {
                    let lease = engine.cluster().leases().lease(*gpu);
                    lease.expect("held gpu is leased").granted_at == now
                });
                let is_renewal = held_before.get(&(app, job)) == Some(&new_set);
                let had_progress = engine.apps()[app].progress[&job].iterations_done > 0.0;
                if granted_now && !is_renewal && had_progress {
                    expected.insert((app, job), Some(now + self.overhead));
                    self.restarts += 1;
                }
            }
            let actual = restart_penalties(engine);
            // A retired app is gone; a just-admitted app's jobs start
            // without a penalty.
            expected.retain(|(app, _), _| engine.apps().contains(*app));
            for key in actual.keys() {
                expected.entry(*key).or_insert(None);
            }
            assert_eq!(actual, expected, "round at {now}");
        }
    }
}

fn long_job(id: u32, iterations: f64, max_par: usize) -> JobSpec {
    JobSpec::new(
        JobId(id),
        ModelArch::ResNet50,
        iterations,
        Time::minutes(0.1),
        max_par,
    )
}

/// The issue's worked example. A job acquires GPU {0} at t = 0 and {1, 2}
/// at t = 5, so at t = 20 only the lease on {0} runs out. Re-granting {0}
/// is a free renewal; granting {7} instead moves the job and pays.
#[test]
fn partial_expiry_regrant_is_free_and_a_move_pays() {
    for (regrant, moved) in [(1, false), (5, true)] {
        let specs = vec![
            AppSpec::single_job(AppId(0), Time::ZERO, long_job(0, 1e6, 3)),
            // A second arrival only to cause a round at t = 5; its own job
            // is never granted anything (byte 0).
            AppSpec::single_job(AppId(1), Time::minutes(5.0), long_job(0, 1e6, 1)),
        ];
        // One byte per unfinished job per round. t = 0: app 0 takes one
        // GPU, lowest free (1). t = 5: app 0 takes two, lowest free (8).
        // t = 20: app 0 takes one — lowest free (1) is GPU 0 again, highest
        // free (5) is GPU 7.
        let mut script = vec![1, 8, 0, regrant, 0];
        script.extend([0; 8]);
        let mut checker = RenewalChecker::new(specs, ClusterSpec::homogeneous(1, 1, 8), script);
        checker.run(Time::minutes(19.0));
        let job_gpus = |c: &RenewalChecker| c.engine.cluster().gpus_of_job(AppId(0), JobId(0));
        assert_eq!(
            job_gpus(&checker).as_slice(),
            &[GpuId(0), GpuId(1), GpuId(2)]
        );
        // Growing from {0} to {0, 1, 2} at t = 5 was a placement change.
        assert_eq!(checker.restarts, 1);
        checker.run(Time::minutes(20.0));
        let last = if moved { GpuId(7) } else { GpuId(0) };
        assert!(job_gpus(&checker).contains(last));
        assert_eq!(checker.restarts, 1 + usize::from(moved));
        let penalty = checker.engine.apps()[AppId(0)].restart_until[&JobId(0)];
        let paid_at = if moved { 20.0 } else { 5.0 };
        assert_eq!(penalty, Some(Time::minutes(paid_at + 1.0)));
    }
}

/// The old `LeaseTable`: a per-GPU map scanned in full.
#[derive(Default)]
struct ScanLeaseModel {
    leases: BTreeMap<GpuId, Lease>,
}

impl ScanLeaseModel {
    fn expired(&self, now: Time) -> Vec<Lease> {
        self.leases
            .values()
            .filter(|l| l.expires_at <= now)
            .copied()
            .collect()
    }

    fn reclaim_expired(&mut self, now: Time) -> Vec<Lease> {
        let expired = self.expired(now);
        for lease in &expired {
            self.leases.remove(&lease.gpu);
        }
        expired
    }

    fn next_expiry(&self) -> Option<Time> {
        self.leases.values().map(|l| l.expires_at).min()
    }
}

/// The old `WorkEstimator`: refits on every retained observation.
#[derive(Default)]
struct EagerFitModel {
    samples: Vec<(f64, f64)>,
    fitted: Option<LossCurve>,
}

impl EagerFitModel {
    fn observe(&mut self, iteration: f64, loss: f64) {
        if let Some((last_it, _)) = self.samples.last() {
            if (iteration - last_it).abs() < 1e-9 {
                return;
            }
        }
        self.samples.push((iteration, loss));
        if self.samples.len() > 256 {
            let mut keep_odd = false;
            self.samples.retain(|_| {
                keep_odd = !keep_odd;
                keep_odd
            });
        }
        if self.samples.len() >= 3 {
            self.fitted = fit_power_law(&self.samples);
        }
    }

    fn projected_total_iterations(&self, spec: &JobSpec) -> Option<f64> {
        match &self.fitted {
            Some(curve) => curve.iterations_to_target(spec.target_loss),
            None => Some(spec.total_iterations),
        }
    }
}

/// The old per-job state of `AppRuntime`: maps keyed by job id, and the
/// accessors written against them.
struct MapRuntimeModel {
    jobs: Vec<JobSpec>,
    progress: BTreeMap<JobId, JobProgress>,
}

impl MapRuntimeModel {
    fn job(&self, id: JobId) -> Option<&JobSpec> {
        self.jobs.iter().find(|j| j.id == id)
    }

    fn is_finished(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| self.progress[&j.id].is_finished(j))
    }

    fn active_jobs(&self) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|j| !self.progress[&j.id].is_finished(j))
            .map(|j| j.id)
            .collect()
    }

    fn effective_max_parallelism(&self, job: JobId) -> usize {
        self.job(job).map(|j| j.max_parallelism).unwrap_or(0)
    }

    fn total_demand(&self) -> usize {
        self.active_jobs()
            .iter()
            .map(|j| self.effective_max_parallelism(*j))
            .sum()
    }
}

/// Renumbers a trace's app ids to `3, 70, 137, …` and every app's job ids to
/// `5, 9, 13, …` — monotone, so every id-ordered iteration visits the same
/// apps and jobs in the same order.
fn sparsify(trace: &[AppSpec]) -> Vec<AppSpec> {
    trace
        .iter()
        .map(|app| {
            let mut app = app.clone();
            app.id = AppId(3 + 67 * app.id.0);
            for job in &mut app.jobs {
                job.id = JobId(5 + 4 * job.id.0);
            }
            app
        })
        .collect()
}

fn densified(mut report: SimReport) -> SimReport {
    for outcome in &mut report.apps {
        outcome.app = AppId((outcome.app.0 - 3) / 67);
    }
    report
}

/// Ids need not be dense: the position-indexed tables fall back to a
/// search, the arena and the cluster's per-app index only grow, and nothing
/// panics. A sparse-id trace must produce the report of the same trace
/// numbered from zero.
#[test]
fn sparse_ids_produce_the_dense_report() {
    let trace = TraceGenerator::new(
        TraceConfig::default()
            .with_num_apps(8)
            .with_contention(2.0)
            .with_seed(5),
    )
    .generate();
    assert!(
        trace.iter().any(|a| a.num_jobs() > 1),
        "HPO must be exercised"
    );
    let sparse = sparsify(&trace);
    assert_eq!(sparse[1].id, AppId(70));
    assert_eq!(sparse[1].jobs[0].id, JobId(5));
    for policy in [Policy::themis_default(), Policy::Tiresias, Policy::Slaq] {
        let run = |trace: Vec<AppSpec>| {
            let cluster = Cluster::new(ClusterSpec::homogeneous(2, 2, 4));
            Engine::new(cluster, trace, policy.build(), SimConfig::default()).run()
        };
        let dense = run(trace.clone());
        assert_eq!(dense.unfinished_apps(), 0);
        assert_eq!(densified(run(sparse.clone())), dense, "{}", policy.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Renewal detection from what was reclaimed and granted this round
    /// agrees with comparing every job's GPU set before and after, over
    /// random grant scripts: arrivals at different times stagger the lease
    /// expiries, so jobs lose part of their GPUs and get the same or other
    /// ones back; short jobs converge and HyperBand kills some, so finished
    /// jobs release GPUs mid-sequence.
    #[test]
    fn renewal_rule_agrees_with_held_before_model(
        script in prop::collection::vec(0u8..=255, 8..48),
        arrivals in prop::collection::vec(0u32..40, 2..5),
        gpus in 5usize..12,
    ) {
        let topology = ClusterSpec::homogeneous(1, 1, gpus);
        let mut checker = RenewalChecker::new(scripted_specs(&arrivals), topology, script);
        checker.run(Time::minutes(400.0));
        prop_assert!(checker.pending.is_empty());
    }

    /// The expiry-ordered lease index agrees with a full scan of the
    /// per-GPU map under random grant / revoke / reclaim, after a fixed
    /// opening that reaches out-of-order grants, stale keys inside a
    /// reclaim and a GPU revoked and re-granted at the same expiry.
    #[test]
    fn lease_expiry_index_agrees_with_full_scan_model(
        ops in prop::collection::vec((0u8..4, 0u32..24, 0u32..60), 0..160),
    ) {
        let mut table = LeaseTable::new();
        let mut model = ScanLeaseModel::default();
        // Every case opens with the three states lazy deletion must get
        // right, then runs its random operations from there.
        let prologue = [
            (0, 0, 30),
            // Grants earlier than the latest queued expiry.
            (0, 1, 10),
            (0, 2, 20),
            (0, 3, 15),
            // GPU 3 extended: its key at 15 is stale.
            (0, 3, 45),
            // GPU 0 revoked, then re-granted at the same expiry: two keys
            // look live.
            (2, 0, 0),
            (0, 0, 30),
            (2, 2, 0),
            // A reclaim that walks past stale keys (15 and 20), then one
            // that meets GPU 0's doubled key.
            (3, 0, 25),
            (3, 0, 30),
        ];
        for (op, gpu, minute) in prologue.into_iter().chain(ops) {
            let at = Time::minutes(f64::from(minute));
            let gpu = GpuId(gpu);
            match op {
                0 | 1 => {
                    let lease = Lease {
                        gpu,
                        app: AppId(gpu.0 % 3),
                        job: JobId(gpu.0 % 2),
                        granted_at: Time::ZERO,
                        expires_at: at,
                    };
                    prop_assert_eq!(table.grant(lease), model.leases.insert(gpu, lease));
                }
                2 => prop_assert_eq!(table.revoke(gpu), model.leases.remove(&gpu)),
                _ => {
                    prop_assert_eq!(table.expired(at), model.expired(at));
                    prop_assert_eq!(table.reclaim_expired(at), model.reclaim_expired(at));
                }
            }
            prop_assert_eq!(table.next_expiry(), model.next_expiry());
            prop_assert_eq!(table.len(), model.leases.len());
            prop_assert_eq!(
                table.iter().collect::<Vec<_>>(),
                model.leases.values().collect::<Vec<_>>()
            );
        }
        // Equality is that of the per-GPU map, whatever the history.
        prop_assert_eq!(&LeaseTable::from(model.leases.clone()), &table);
        prop_assert_eq!(BTreeMap::from(table), model.leases);
    }

    /// Fitting on first read gives the fit refitting on every observation
    /// gave, at whatever points the fit is read — including across the
    /// 256-sample thinning boundary and with repeated iterations dropped.
    #[test]
    fn lazy_fit_agrees_with_eager_fit(
        steps in prop::collection::vec((0u8..4, 0.2f64..6.0), 250..700),
        exponent in 0.2f64..0.9,
    ) {
        let mut spec = long_job(0, 5_000.0, 4);
        spec.loss_curve = LossCurve { floor: 0.05, scale: 2.0, exponent };
        let mut lazy = WorkEstimator::new();
        let mut eager = EagerFitModel::default();
        let mut iteration = 0.0;
        for (kind, advance) in steps {
            // One observation in four repeats the previous iteration.
            if kind != 0 {
                iteration += advance;
            }
            let loss = spec.loss_curve.loss_at(iteration);
            lazy.observe(iteration, loss);
            eager.observe(iteration, loss);
            prop_assert_eq!(lazy.num_samples(), eager.samples.len());
            // Read on a third of the steps only, so most fits are skipped.
            if kind == 1 {
                prop_assert_eq!(lazy.fitted_curve(), eager.fitted.as_ref());
                prop_assert_eq!(
                    lazy.projected_total_iterations(&spec),
                    eager.projected_total_iterations(&spec)
                );
            }
        }
        prop_assert_eq!(lazy.fitted_curve(), eager.fitted.as_ref());
    }

    /// The position-indexed per-job tables answer `is_finished`,
    /// `active_jobs`, `effective_max_parallelism` and `total_demand` as the
    /// id-keyed maps did, under random progress and kills — for dense,
    /// sparse and unordered job ids alike.
    #[test]
    fn dense_job_state_agrees_with_btree_map_model(
        numbering in 0u8..3,
        num_jobs in 1usize..9,
        ops in prop::collection::vec((0u8..2, 0usize..9, 1usize..12), 0..40),
    ) {
        let id_of = |pos: usize| match numbering {
            0 => JobId(pos as u32),
            1 => JobId(5 + 4 * pos as u32),
            _ => JobId(40 - 3 * pos as u32),
        };
        let jobs: Vec<JobSpec> = (0..num_jobs)
            .map(|pos| long_job(id_of(pos).0, 100.0, 1 + pos % 4))
            .collect();
        let mut model = MapRuntimeModel {
            progress: jobs.iter().map(|j| (j.id, JobProgress::new())).collect(),
            jobs: jobs.clone(),
        };
        let mut rt = AppRuntime::with_default_hpo(AppSpec::new(AppId(0), Time::ZERO, jobs));
        for (op, pos, amount) in ops {
            let job = id_of(pos % num_jobs);
            match op {
                0 => {
                    let done = 10.0 * amount as f64;
                    rt.progress.get_mut(&job).unwrap().iterations_done = done;
                    model.progress.get_mut(&job).unwrap().iterations_done = done;
                }
                _ => {
                    rt.progress.get_mut(&job).unwrap().kill(Time::ZERO);
                    model.progress.get_mut(&job).unwrap().kill(Time::ZERO);
                }
            }
            prop_assert_eq!(rt.is_finished(), model.is_finished());
            prop_assert_eq!(rt.active_jobs(), model.active_jobs());
            prop_assert_eq!(rt.total_demand(), model.total_demand());
            for probe in 0..45 {
                let probe = JobId(probe);
                prop_assert_eq!(rt.job_spec(probe), model.job(probe));
                prop_assert_eq!(
                    rt.effective_max_parallelism(probe),
                    model.effective_max_parallelism(probe)
                );
                prop_assert_eq!(rt.progress.get(&probe), model.progress.get(&probe));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reference models for the round that re-derives only what changed.
// ---------------------------------------------------------------------

/// Proptest cases for the properties below: 64 in debug tier-1, 1,024 in
/// the release CI job.
fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 })
}

/// A policy wrapper that asserts, every time the engine asks for
/// decisions — right after step 2 of the round — that no finished job
/// holds a GPU. The deleted every-round release scan made that true by
/// brute force; release on convergence must keep it true.
struct FinishedJobsHoldNothing {
    inner: Box<dyn Scheduler>,
}

impl Scheduler for FinishedJobsHoldNothing {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        for rt in apps.iter() {
            for (job, alloc) in jobs_of_app(cluster, rt.id()) {
                let (spec, progress) = rt.job(job).expect("held job exists");
                assert!(
                    !progress.is_finished(spec),
                    "{}: app {} job {job} is finished but holds {} GPUs at {now}",
                    self.inner.name(),
                    rt.id(),
                    alloc.len()
                );
            }
        }
        self.inner.schedule(now, cluster, apps)
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }
}

/// The old `HyperBand`: estimators in a `BTreeMap` keyed by job id, and
/// every observation evaluating the loss curve before the estimator drops
/// it as a repeat.
struct MapHyperBandModel {
    rung_iterations: f64,
    next_rung: f64,
    estimators: BTreeMap<JobId, WorkEstimator>,
}

impl MapHyperBandModel {
    fn new(rung_iterations: f64) -> Self {
        MapHyperBandModel {
            rung_iterations,
            next_rung: rung_iterations,
            estimators: BTreeMap::new(),
        }
    }

    fn update(&mut self, jobs: JobViews<'_>) -> Vec<JobId> {
        let mut active = 0usize;
        let mut all_reached = true;
        for job in jobs.iter().filter(|j| j.is_active()) {
            let loss = job.progress.current_loss(job.spec);
            self.estimators
                .entry(job.id())
                .or_default()
                .observe(job.progress.iterations_done, loss);
            active += 1;
            all_reached &= job.progress.iterations_done >= self.next_rung;
        }
        if active <= 1 || !all_reached {
            return Vec::new();
        }
        let mut ranked: Vec<(JobId, f64)> = jobs
            .iter()
            .filter(|j| j.is_active())
            .map(|j| {
                let projected = self
                    .estimators
                    .get(&j.id())
                    .and_then(|e| e.projected_total_iterations(j.spec))
                    .unwrap_or(f64::INFINITY);
                (j.id(), projected)
            })
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let survivors = ((ranked.len() as f64 / 2.0).ceil() as usize).max(1);
        self.next_rung += self.rung_iterations;
        ranked.iter().skip(survivors).map(|(id, _)| *id).collect()
    }
}

/// A small, contended trace whose apps have several jobs each, so the
/// scripted runs see HyperBand kills as well as convergence.
fn scripted_specs(arrivals: &[u32]) -> Vec<AppSpec> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, arrival)| {
            let jobs = (0..1 + i as u32 % 3)
                .map(|j| long_job(j, 300.0 + 900.0 * f64::from(j), 2 + i % 2))
                .collect();
            AppSpec::new(AppId(i as u32), Time::minutes(f64::from(*arrival)), jobs)
        })
        .collect()
}

proptest! {
    #![proptest_config(cases())]

    /// (a) After every round of a scripted run, each active app's cached
    /// held jobs equal a fresh regroup of the cluster: job, GPU count,
    /// locality and usable speed. Two racks of mixed-generation machines
    /// make locality and speed vary, and jobs granted past their max
    /// parallelism take the fastest-`cap` speed rule; staggered arrivals
    /// give partial lease expiries and same-round renewals; multi-job apps
    /// converge, are killed by HyperBand and finish; apps are admitted and
    /// retired as in service mode. Of every three apps, the second numbers
    /// its jobs sparsely (5, 9, …) and the third in descending order
    /// (40, 37, …).
    #[test]
    fn cached_holdings_agree_with_a_fresh_regroup(
        script in prop::collection::vec(0u8..=255, 8..48),
        arrivals in prop::collection::vec(0u32..40, 2..6),
        machines in 1usize..4,
    ) {
        let topology = ClusterSpec::homogeneous(2, machines, 3)
            .with_generation_cycle(&GpuGeneration::ALL);
        let mut specs = scripted_specs(&arrivals);
        for (i, app) in specs.iter_mut().enumerate() {
            for (pos, job) in app.jobs.iter_mut().enumerate() {
                job.id = match i % 3 {
                    0 => job.id,
                    1 => JobId(5 + 4 * pos as u32),
                    _ => JobId(40 - 3 * pos as u32),
                };
            }
        }
        let mut checker = RenewalChecker::new(specs, topology, script);
        checker.run(Time::minutes(400.0));
        prop_assert!(checker.pending.is_empty());
    }

    /// (b) Once step 2 of a round has run, no finished job holds a GPU —
    /// for Themis, the four baselines and reliable `themis-dist`, on random
    /// small traces over uniform and mixed-generation clusters.
    #[test]
    fn finished_jobs_hold_no_gpus_after_step_two(
        policy in 0usize..6,
        mix in 0usize..3,
        apps in 2usize..6,
        contention in 1u8..4,
        short_lease in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let scenario = Scenario::new(ClusterKind::Rack16, apps, seed)
            .with_gen_mix(GenMix::ALL[mix])
            .with_contention(f64::from(contention))
            .with_lease_minutes(if short_lease == 1 { 5.0 } else { 20.0 });
        let policy = Policy::all()[policy];
        let config = scenario.sim_config().with_max_sim_time(Time::minutes(30_000.0));
        let guard = FinishedJobsHoldNothing {
            inner: scenario.instantiate(policy).build_with(&config),
        };
        let cluster = Cluster::new(scenario.cluster_spec());
        let report = Engine::new(cluster, scenario.trace(), guard, config).run();
        prop_assert!(report.scheduling_rounds > 0);
    }

    /// (c) The dense, dedupe-first `HyperBand` returns the updates the
    /// `BTreeMap`-keyed, loss-first one did, call for call, on random
    /// progress scripts: jobs that stall (repeated observations), converge
    /// or are killed, steps large enough to pass two rungs at once, and
    /// dense, sparse or unordered job ids.
    #[test]
    fn dense_hyperband_agrees_with_map_model(
        numbering in 0u8..3,
        exponents in prop::collection::vec(0.15f64..0.95, 2..9),
        rung in 10u8..60,
        steps in prop::collection::vec(prop::collection::vec(0u8..8, 9), 1..40),
    ) {
        let id_of = |pos: usize| match numbering {
            0 => JobId(pos as u32),
            1 => JobId(5 + 4 * pos as u32),
            _ => JobId(40 - 3 * pos as u32),
        };
        let specs: Vec<JobSpec> = exponents
            .iter()
            .enumerate()
            .map(|(pos, exponent)| {
                let mut spec = long_job(id_of(pos).0, 400.0 + 100.0 * pos as f64, 4);
                spec.loss_curve = LossCurve { floor: 0.0, scale: 2.0, exponent: *exponent };
                spec
            })
            .collect();
        let mut dense = HyperBand::new(f64::from(rung));
        let mut model = MapHyperBandModel::new(f64::from(rung));
        let mut progress = vec![JobProgress::new(); specs.len()];
        for (round, moves) in steps.iter().enumerate() {
            // 0-2: stall; 3-6: a few iterations; 7: a jump past two rungs.
            for ((spec, p), step) in specs.iter().zip(&mut progress).zip(moves) {
                if !p.is_finished(spec) {
                    p.iterations_done = match step {
                        0..=2 => p.iterations_done,
                        3..=6 => p.iterations_done + f64::from(*step) * 3.5,
                        _ => p.iterations_done + 2.5 * f64::from(rung),
                    }
                    .min(spec.total_iterations);
                }
            }
            let now = Time::minutes(round as f64);
            let views = JobViews::new(&specs, &progress);
            let kill = dense.update(now, views);
            prop_assert_eq!(&kill, &model.update(views), "round {}", round);
            for job in &kill {
                progress[specs.iter().position(|s| s.id == *job).unwrap()].kill(now);
            }
        }
    }
}

/// (d) A runtime handed to an engine re-derives its held jobs from the
/// engine's cluster. The runtime below was advanced by hand on a cluster
/// where its job holds two GPUs of one machine; the engine's cluster gives
/// it two GPUs on different racks, after the same number of allocations —
/// so the app's allocation epoch is equal on both and only the reset on
/// entry tells the caches apart. Both entry doors are checked:
/// `with_runtimes` and service-mode `admit`.
#[test]
fn a_runtime_entering_an_engine_rederives_its_holdings() {
    let topology = ClusterSpec::homogeneous(2, 1, 2);
    let holding = |gpus: [u32; 2]| {
        let mut cluster = Cluster::new(topology.clone());
        for gpu in gpus {
            cluster
                .allocate(
                    GpuId(gpu),
                    AppId(0),
                    JobId(0),
                    Time::ZERO,
                    Time::minutes(20.0),
                )
                .unwrap();
        }
        cluster
    };
    let (by_hand, engine_cluster) = (holding([0, 1]), holding([0, 2]));
    assert_eq!(
        by_hand.allocation_epoch(AppId(0)),
        engine_cluster.allocation_epoch(AppId(0))
    );
    let advanced = || {
        let spec = AppSpec::single_job(AppId(0), Time::ZERO, long_job(0, 1e6, 2));
        let mut rt = AppRuntime::with_default_hpo(spec);
        rt.advance(&by_hand, Time::ZERO, Time::minutes(1.0));
        assert_eq!(cached_holdings(&rt), regrouped_holdings(&by_hand, &rt));
        rt
    };
    let hand_locality = cached_holdings(&advanced())[0].2;
    // A second app whose admission drives one round at t = 1 with a policy
    // that grants nothing.
    let newcomer = || {
        let spec = AppSpec::single_job(AppId(1), Time::minutes(1.0), long_job(0, 1e6, 2));
        AppRuntime::with_default_hpo(spec)
    };
    let idle = || Scripted {
        script: vec![0],
        cursor: 0,
    };
    let check = |engine: &Engine<Scripted>| {
        let rt = &engine.apps()[AppId(0)];
        let fresh = regrouped_holdings(engine.cluster(), rt);
        assert_ne!(fresh[0].2, hand_locality);
        assert_eq!(cached_holdings(rt), fresh);
    };

    let mut engine = Engine::with_runtimes(
        engine_cluster.clone(),
        vec![advanced()],
        idle(),
        SimConfig::default(),
    );
    engine.admit(vec![newcomer()]);
    check(&engine);

    let mut engine =
        Engine::with_runtimes(engine_cluster, Vec::new(), idle(), SimConfig::default());
    engine.admit(vec![advanced()]);
    check(&engine);
}
