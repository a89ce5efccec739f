//! Property tests: the one-pass policy call agrees with the code it replaced.
//!
//! `Agent::prepare_bid` used to rebuild everything per table row — pick the
//! packed subset by sorting the whole offer, clone the holdings map, run the
//! greedy job distribution over every job and estimate ρ from the resulting
//! maps — `Agent::current_rho` went through the same maps,
//! `ThemisScheduler::schedule` probed every schedulable app whether or not
//! it could take a GPU, and `Arbiter::run_auction` rescanned every status up
//! to four times per leftover GPU. All of that now lives here, verbatim, as
//! reference models. The contract is observational purity: every `f64` equal
//! with `==`, every RNG draw in the same place, every decision the same.
//!
//! Each property was checked to fail under seeded mutations of the new
//! code: (a) dropping the job-id tie-break of the visiting order, adding
//! the speed-up terms in visiting instead of `estimates()` order, packing
//! without the footprint preference, drawing the error only for a
//! non-empty table; (b) letting jobs with no work left skip their share;
//! (c) skipping apps with unmet demand ≤ 1 instead of 0, handing the bid a
//! ρ other than the probe's, materialising a machine's last free GPUs
//! instead of its first, ignoring held GPUs in `distribute_award`; (d) not
//! adding an app granted on the drained machine to the local tier, keeping
//! an app listed after its demand reached zero, not deducting auction
//! awards from the demands.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use themis_cluster::alloc::FreeVector;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId, MachineId};
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;
use themis_cluster::topology::{ClusterSpec, GpuGeneration};
use themis_cluster::view::{ClusterState, ClusterView};
use themis_core::agent::Agent;
use themis_core::arbiter::{AppStatus, Arbiter, LeftoverRecipients};
use themis_core::auction::partial_allocation;
use themis_core::config::ThemisConfig;
use themis_core::rho::{
    estimate_rho_for_aggregate, greedy_job_distribution, JobShare, RhoEstimate,
};
use themis_core::scheduler::ThemisScheduler;
use themis_hpo::api::{AppScheduler, JobEstimate, JobViews, SchedulerUpdate};
use themis_protocol::bid::BidTable;
use themis_sim::app_runtime::AppRuntime;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, Scheduler};
use themis_workload::app::AppSpec;
use themis_workload::job::JobSpec;
use themis_workload::models::ModelArch;

/// The vendored proptest stub reads no environment, so the case count is
/// chosen by build profile: CI's release run does the full count.
fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 })
}

// ---------------------------------------------------------------------------
// Reference models: the parent commit's code, unchanged.
// ---------------------------------------------------------------------------

fn ref_ideal_running_time(estimates: &[JobEstimate]) -> Time {
    estimates
        .iter()
        .filter(|e| e.max_parallelism > 0)
        .map(|e| Time::minutes(e.total_work.as_minutes() / e.max_parallelism as f64))
        .max()
        .unwrap_or(Time::ZERO)
}

fn ref_share_locality(share: &JobShare, spec: &ClusterSpec) -> Locality {
    let machines: Vec<MachineId> = share
        .iter()
        .filter(|(_, c)| *c > 0)
        .map(|(m, _)| *m)
        .collect();
    match machines.len() {
        0 | 1 => {
            if let Some(machine) = machines.first().and_then(|m| spec.machine(*m)) {
                let count: usize = share.iter().map(|(_, c)| *c).sum();
                if count <= machine.slot_size {
                    Locality::Slot
                } else {
                    Locality::Machine
                }
            } else {
                Locality::Slot
            }
        }
        _ => {
            let racks: BTreeSet<_> = machines
                .iter()
                .filter_map(|m| spec.machine(*m).map(|ms| ms.rack))
                .collect();
            if racks.len() <= 1 {
                Locality::Rack
            } else {
                Locality::CrossRack
            }
        }
    }
}

fn ref_greedy_job_distribution(
    estimates: &[JobEstimate],
    aggregate: &BTreeMap<MachineId, usize>,
    spec: &ClusterSpec,
) -> BTreeMap<JobId, JobShare> {
    let mut remaining: BTreeMap<MachineId, usize> = aggregate
        .iter()
        .filter(|(_, c)| **c > 0)
        .map(|(m, c)| (*m, *c))
        .collect();
    let mut order: Vec<&JobEstimate> = estimates.iter().collect();
    order.sort_by(|a, b| a.work_left.cmp(&b.work_left).then(a.job.cmp(&b.job)));

    let speed = |m: MachineId| spec.machine_speed(m).unwrap_or(1.0);
    let mut shares: BTreeMap<JobId, JobShare> = BTreeMap::new();
    for est in order {
        let mut need = est.max_parallelism;
        let mut share: JobShare = Vec::new();
        while need > 0 {
            let Some((&machine, &avail)) =
                remaining.iter().filter(|(_, c)| **c > 0).max_by(|a, b| {
                    a.1.cmp(b.1)
                        .then_with(|| speed(*a.0).total_cmp(&speed(*b.0)))
                        .then_with(|| b.0.cmp(a.0))
                })
            else {
                break;
            };
            let take = need.min(avail);
            share.push((machine, take));
            *remaining.get_mut(&machine).expect("machine present") -= take;
            need -= take;
        }
        if !share.is_empty() {
            shares.insert(est.job, share);
        }
    }
    shares
}

fn ref_share_speed(share: &JobShare, cap: usize, spec: &ClusterSpec) -> f64 {
    let mut by_speed: Vec<(f64, usize)> = share
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(machine, count)| (spec.machine_speed(*machine).unwrap_or(1.0), *count))
        .collect();
    by_speed.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut left = cap;
    let mut speed = 0.0;
    for (machine_speed, count) in by_speed {
        if left == 0 {
            break;
        }
        let take = count.min(left);
        speed += machine_speed * take as f64;
        left -= take;
    }
    speed
}

fn ref_estimate_rho(
    estimates: &[JobEstimate],
    elapsed: Time,
    shares: &BTreeMap<JobId, JobShare>,
    spec: &ClusterSpec,
) -> RhoEstimate {
    let t_id = ref_ideal_running_time(estimates);
    let mut total_work_left = Time::ZERO;
    let mut aggregate_speedup = 0.0;
    for est in estimates {
        if est.work_left <= Time::ZERO {
            continue;
        }
        total_work_left += est.work_left;
        let share = shares.get(&est.job);
        let gpus: usize = share.map(|s| s.iter().map(|(_, c)| *c).sum()).unwrap_or(0);
        if gpus == 0 {
            continue;
        }
        let share = share.expect("gpus > 0 implies share");
        let locality = ref_share_locality(share, spec);
        let usable = gpus.min(est.max_parallelism.max(1));
        let usable_speed = ref_share_speed(share, usable, spec);
        aggregate_speedup +=
            est.sensitivity
                .effective_speedup_weighted(usable, usable_speed, locality);
    }
    let t_sh = if total_work_left <= Time::ZERO {
        elapsed
    } else if aggregate_speedup <= 0.0 {
        Time::INFINITY
    } else {
        elapsed + Time::minutes(total_work_left.as_minutes() / aggregate_speedup)
    };
    let rho = if t_id > Time::ZERO {
        t_sh.as_minutes() / t_id.as_minutes()
    } else {
        1.0
    };
    RhoEstimate { rho, t_sh, t_id }
}

fn ref_pick_packed_subset(
    offer: &FreeVector,
    k: usize,
    prefer: &BTreeMap<MachineId, usize>,
    spec: &ClusterSpec,
) -> FreeVector {
    let speed = |m: MachineId| spec.machine_speed(m).unwrap_or(1.0);
    let mut machines: Vec<(MachineId, usize)> = offer.iter().collect();
    machines.sort_by(|a, b| {
        let a_pref = prefer.contains_key(&a.0);
        let b_pref = prefer.contains_key(&b.0);
        b_pref
            .cmp(&a_pref)
            .then(b.1.cmp(&a.1))
            .then_with(|| speed(b.0).total_cmp(&speed(a.0)))
            .then(a.0.cmp(&b.0))
    });
    let mut remaining = k;
    let mut chosen: Vec<(MachineId, usize)> = Vec::new();
    for (machine, avail) in machines {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(avail);
        chosen.push((machine, take));
        remaining -= take;
    }
    FreeVector::from_counts(chosen)
}

/// The parent commit's Agent: same seed derivation, same draw.
struct RefAgent {
    app: AppId,
    max_bid_entries: usize,
    rho_error_theta: f64,
    rng: SmallRng,
}

impl RefAgent {
    fn new(app: AppId, config: &ThemisConfig) -> Self {
        RefAgent {
            app,
            max_bid_entries: config.max_bid_entries,
            rho_error_theta: config.rho_error_theta,
            rng: SmallRng::seed_from_u64(config.seed ^ (u64::from(app.0) << 17)),
        }
    }

    fn current_aggregate(&self, cluster: &Cluster) -> BTreeMap<MachineId, usize> {
        cluster
            .gpus_of_app(self.app)
            .per_machine(cluster.spec())
            .into_iter()
            .collect()
    }

    fn current_rho(&self, now: Time, runtime: &AppRuntime, cluster: &Cluster) -> RhoEstimate {
        let estimates = runtime.estimates();
        let elapsed = (now - runtime.spec.arrival).clamp_non_negative();
        let aggregate = self.current_aggregate(cluster);
        let shares = ref_greedy_job_distribution(&estimates, &aggregate, cluster.spec());
        ref_estimate_rho(&estimates, elapsed, &shares, cluster.spec())
    }

    fn prepare_bid(
        &mut self,
        now: Time,
        runtime: &AppRuntime,
        cluster: &Cluster,
        offer: &FreeVector,
    ) -> BidTable {
        let estimates = runtime.estimates();
        let elapsed = (now - runtime.spec.arrival).clamp_non_negative();
        let spec = cluster.spec();
        let current = self.current_aggregate(cluster);
        let current_rho = ref_estimate_rho(
            &estimates,
            elapsed,
            &ref_greedy_job_distribution(&estimates, &current, spec),
            spec,
        )
        .rho;

        let mut table = BidTable::empty(self.app, current_rho);
        let demand: usize = estimates.iter().map(|e| e.max_parallelism).sum();
        let held: usize = current.values().sum();
        let unmet = demand.saturating_sub(held);
        let max_k = unmet.min(offer.total()).min(self.max_bid_entries);
        for k in 1..=max_k {
            let subset = ref_pick_packed_subset(offer, k, &current, spec);
            if subset.total() < k {
                break;
            }
            let mut aggregate = current.clone();
            for (machine, count) in subset.iter() {
                *aggregate.entry(machine).or_insert(0) += count;
            }
            let shares = ref_greedy_job_distribution(&estimates, &aggregate, spec);
            let rho = ref_estimate_rho(&estimates, elapsed, &shares, spec).rho;
            table.push(subset, rho);
        }

        if self.rho_error_theta > 0.0 {
            let error = self
                .rng
                .gen_range(-self.rho_error_theta..=self.rho_error_theta);
            table = table.with_rho_error(error);
        }
        table
    }

    fn distribute_award(
        &self,
        runtime: &AppRuntime,
        cluster: &ClusterView<'_>,
        award: &FreeVector,
    ) -> BTreeMap<JobId, JobShare> {
        let estimates = runtime.estimates();
        let aggregate: BTreeMap<MachineId, usize> = award.iter().collect();
        let adjusted: Vec<JobEstimate> = estimates
            .into_iter()
            .map(|mut e| {
                let held = cluster.gpus_of_job(self.app, e.job).len();
                e.max_parallelism = e.max_parallelism.saturating_sub(held);
                e
            })
            .filter(|e| e.max_parallelism > 0)
            .collect();
        ref_greedy_job_distribution(&adjusted, &aggregate, cluster.spec())
    }
}

fn ref_materialize_grant(
    agent: &RefAgent,
    shadow: &mut ClusterView<'_>,
    runtime: &AppRuntime,
    grant: &FreeVector,
) -> Vec<AllocationDecision> {
    let app = runtime.id();
    let shares = agent.distribute_award(runtime, shadow, grant);
    let mut decisions = Vec::new();
    for (job, share) in shares {
        let mut gpus: Vec<GpuId> = Vec::new();
        for (machine, count) in share {
            let free = shadow.free_gpus_on(machine);
            for gpu in free.into_iter().take(count) {
                if shadow.allocate(gpu, app, job).is_ok() {
                    gpus.push(gpu);
                }
            }
        }
        if !gpus.is_empty() {
            decisions.push(AllocationDecision { app, job, gpus });
        }
    }
    decisions
}

/// The leftover bookkeeping of the parent commit's `run_auction`: every
/// pick rescans every status, tier by tier.
struct RefLeftovers<'a> {
    statuses: &'a [AppStatus],
    order: Vec<(AppId, usize)>,
    demand: Vec<usize>,
    grants: Vec<FreeVector>,
    participants: Vec<AppId>,
}

impl<'a> RefLeftovers<'a> {
    fn new(
        statuses: &'a [AppStatus],
        participants: &[AppId],
        winners: &BTreeMap<AppId, FreeVector>,
    ) -> Self {
        let mut order: Vec<(AppId, usize)> = statuses
            .iter()
            .enumerate()
            .map(|(idx, s)| (s.app, idx))
            .collect();
        order.sort_unstable();
        let mut demand = vec![0; statuses.len()];
        for &(app, idx) in &order {
            let granted = winners.get(&app).map(|w| w.total()).unwrap_or(0);
            demand[idx] = statuses[idx].unmet_demand.saturating_sub(granted);
        }
        let mut participants = participants.to_vec();
        participants.sort_unstable();
        RefLeftovers {
            statuses,
            order,
            demand,
            grants: vec![FreeVector::empty(); statuses.len()],
            participants,
        }
    }

    /// The candidate vector the parent handed to `choose` (empty where it
    /// returned `None` without drawing).
    fn candidates(&self, machine: MachineId) -> Vec<(AppId, usize)> {
        for tier in 0..4u8 {
            let mut candidates = Vec::new();
            for &(app, idx) in &self.order {
                if self.demand[idx] == 0 {
                    continue;
                }
                let outside = self.participants.binary_search(&app).is_err();
                let on_machine = || {
                    self.statuses[idx].footprint.contains(&machine)
                        || self.grants[idx].on_machine(machine) > 0
                };
                let eligible = match tier {
                    0 => outside && on_machine(),
                    1 => outside,
                    2 => on_machine(),
                    _ => true,
                };
                if eligible {
                    candidates.push((app, idx));
                }
            }
            if !candidates.is_empty() {
                return candidates;
            }
        }
        Vec::new()
    }

    fn grant(&mut self, machine: MachineId, idx: usize) {
        let grant = &mut self.grants[idx];
        grant.set(machine, grant.on_machine(machine) + 1);
        self.demand[idx] = self.demand[idx].saturating_sub(1);
    }

    fn into_grants(self) -> BTreeMap<AppId, FreeVector> {
        self.order
            .iter()
            .filter(|(_, idx)| !self.grants[*idx].is_empty())
            .map(|(app, idx)| (*app, self.grants[*idx].clone()))
            .collect()
    }
}

/// Leftover machines in the order `run_auction` drains them.
fn drain_order(leftover: &FreeVector, spec: &ClusterSpec) -> Vec<MachineId> {
    let mut machines: Vec<MachineId> = leftover.machines().collect();
    machines.sort_by(|a, b| {
        spec.machine_speed(*b)
            .unwrap_or(1.0)
            .total_cmp(&spec.machine_speed(*a).unwrap_or(1.0))
            .then(a.cmp(b))
    });
    machines
}

/// The parent commit's Arbiter, as far as a round's grants go.
struct RefArbiter {
    rng: SmallRng,
}

impl RefArbiter {
    fn new(config: &ThemisConfig) -> Self {
        RefArbiter {
            rng: SmallRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// `(winners, leftover grants)` of one round.
    fn run_auction(
        &mut self,
        offer: &FreeVector,
        statuses: &[AppStatus],
        participants: &[AppId],
        bids: &[BidTable],
        spec: &ClusterSpec,
    ) -> (BTreeMap<AppId, FreeVector>, BTreeMap<AppId, FreeVector>) {
        let auction = partial_allocation(bids, offer);
        let mut winners: BTreeMap<AppId, FreeVector> = BTreeMap::new();
        for award in &auction.awards {
            if !award.awarded.is_empty() {
                winners.insert(award.app, award.awarded.clone());
            }
        }
        let mut state = RefLeftovers::new(statuses, participants, &winners);
        let mut leftover = auction.leftover.clone();
        for machine in drain_order(&leftover, spec) {
            while leftover.on_machine(machine) > 0 {
                let Some(&(_, idx)) = state.candidates(machine).choose(&mut self.rng) else {
                    break;
                };
                state.grant(machine, idx);
                leftover.set(machine, leftover.on_machine(machine) - 1);
            }
        }
        (winners, state.into_grants())
    }
}

/// The parent commit's `ThemisScheduler`: a status for every schedulable
/// app, the early return after the probe, each bid rebuilding its context.
struct RefScheduler {
    config: ThemisConfig,
    arbiter: RefArbiter,
    /// `select_participants` is stateless and unchanged; only it is used.
    selector: Arbiter,
    agents: BTreeMap<AppId, RefAgent>,
}

impl RefScheduler {
    fn new(config: ThemisConfig) -> Self {
        RefScheduler {
            arbiter: RefArbiter::new(&config),
            selector: Arbiter::new(config),
            agents: BTreeMap::new(),
            config,
        }
    }

    fn agent_for(&mut self, app: AppId) -> &mut RefAgent {
        let config = self.config;
        self.agents
            .entry(app)
            .or_insert_with(|| RefAgent::new(app, &config))
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let offer = cluster.free_vector();
        if offer.is_empty() {
            return Vec::new();
        }
        let mut statuses: Vec<AppStatus> = Vec::new();
        for runtime in apps.iter().filter(|a| a.is_schedulable(now)) {
            let app = runtime.id();
            let rho = self.agent_for(app).current_rho(now, runtime, cluster).rho;
            statuses.push(AppStatus {
                app,
                rho,
                unmet_demand: runtime.unmet_demand(cluster),
                footprint: cluster.gpus_of_app(app).machines(cluster.spec()),
            });
        }
        if statuses.iter().all(|s| s.unmet_demand == 0) {
            return Vec::new();
        }
        let participants = self.selector.select_participants(&statuses);
        let mut bids: Vec<BidTable> = Vec::new();
        for app in &participants {
            let bid = self
                .agent_for(*app)
                .prepare_bid(now, &apps[*app], cluster, &offer);
            if !bid.is_empty() {
                bids.push(bid);
            }
        }
        let (mut grants, leftover_grants) =
            self.arbiter
                .run_auction(&offer, &statuses, &participants, &bids, cluster.spec());
        for (app, extra) in leftover_grants {
            match grants.get_mut(&app) {
                Some(won) => won.add_assign(&extra),
                None => {
                    grants.insert(app, extra);
                }
            }
        }
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        for (app, grant) in grants {
            let Some(runtime) = apps.get(app) else {
                continue;
            };
            let agent = self.agent_for(app);
            decisions.extend(ref_materialize_grant(agent, &mut shadow, runtime, &grant));
        }
        decisions
    }
}

// ---------------------------------------------------------------------------
// Random states.
// ---------------------------------------------------------------------------

/// Uniform and mixed-generation clusters, with machines of unequal size.
fn random_spec(rng: &mut SmallRng) -> ClusterSpec {
    let cycles: [&[GpuGeneration]; 3] = [
        &[GpuGeneration::Pascal, GpuGeneration::Volta],
        &[
            GpuGeneration::Volta,
            GpuGeneration::Pascal,
            GpuGeneration::Kepler,
        ],
        &[GpuGeneration::Ampere, GpuGeneration::Kepler],
    ];
    let spec = match rng.gen_range(0..4u8) {
        0 => ClusterSpec::homogeneous(
            rng.gen_range(1..4),
            rng.gen_range(1..5),
            rng.gen_range(1..9),
        ),
        1 => ClusterSpec::testbed_50(),
        _ => {
            let mut b = ClusterSpec::builder();
            for _ in 0..rng.gen_range(1..4usize) {
                let (big, small) = (rng.gen_range(1..4), rng.gen_range(0..3));
                b = b.rack(|r| r.machines(big, 4).machines(small, 2));
            }
            b.build()
        }
    };
    if rng.gen_range(0..2u8) == 0 {
        spec
    } else {
        spec.with_generation_cycle(cycles[rng.gen_range(0..cycles.len())])
    }
}

/// An app scheduler that reports whatever estimates it was given: the way
/// to put a job with no work left, or estimates out of job order, in front
/// of an Agent (the default reports active jobs only, in job order).
#[derive(Debug)]
struct Scripted(Vec<JobEstimate>);

impl AppScheduler for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn update(&mut self, _now: Time, _jobs: JobViews<'_>) -> SchedulerUpdate {
        SchedulerUpdate::none()
    }

    fn estimates(&self, _jobs: JobViews<'_>) -> Vec<JobEstimate> {
        self.0.clone()
    }
}

/// A multi-job app in a random mid-run state: partial progress, converged
/// and killed jobs, parallelism overrides, equal-work ties. Up to 40 jobs,
/// so the visiting order is sorted on both sides of the 20-element cut-over
/// of `slice::sort_by`.
fn random_app(rng: &mut SmallRng, id: u32) -> AppRuntime {
    let num_jobs = match rng.gen_range(0..4u8) {
        0 => 1,
        1 => rng.gen_range(21..41usize),
        _ => rng.gen_range(2..13usize),
    };
    let model = ModelArch::ALL[rng.gen_range(0..ModelArch::ALL.len())];
    let iterations = [200.0, 500.0, 1000.0][rng.gen_range(0..3usize)];
    // Job ids ascend with position in generated traces; a third of the
    // apps get them shuffled, so "by job id" and "by position" differ.
    let mut ids: Vec<u32> = (0..num_jobs as u32).collect();
    if rng.gen_range(0..3u8) == 0 {
        ids.shuffle(rng);
    }
    let jobs: Vec<JobSpec> = ids
        .into_iter()
        .map(|id| {
            // Mostly one model and size per app, as a hyper-parameter sweep
            // has: many jobs tie on work left.
            let (model, iterations) = if rng.gen_range(0..4u8) == 0 {
                (
                    ModelArch::ALL[rng.gen_range(0..ModelArch::ALL.len())],
                    iterations * rng.gen_range(0.5..2.0),
                )
            } else {
                (model, iterations)
            };
            JobSpec::new(
                JobId(id),
                model,
                iterations,
                Time::minutes(0.1),
                rng.gen_range(1..7),
            )
        })
        .collect();
    let arrival = Time::minutes(rng.gen_range(0.0..50.0));
    let spec = AppSpec::new(AppId(id), arrival, jobs);
    let mut rt = if rng.gen_range(0..4u8) == 0 {
        // Estimates for some of the jobs, in any order, a quarter of them
        // with nothing left to do.
        let mut estimates: Vec<JobEstimate> = spec
            .jobs
            .iter()
            .filter_map(|job| {
                let work_left = match rng.gen_range(0..4u8) {
                    0 => Time::ZERO,
                    _ => job.total_work() * rng.gen_range(0.05..1.0),
                };
                (rng.gen_range(0..5u8) > 0).then_some(JobEstimate {
                    job: job.id,
                    total_work: job.total_work(),
                    work_left,
                    max_parallelism: job.max_parallelism,
                    sensitivity: job.sensitivity(),
                })
            })
            .collect();
        estimates.shuffle(rng);
        AppRuntime::new(spec, Box::new(Scripted(estimates)))
    } else {
        AppRuntime::with_default_hpo(spec)
    };
    for pos in 0..num_jobs {
        let spec = rt.spec.jobs[pos].clone();
        let progress = &mut rt.progress.as_mut_slice()[pos];
        match rng.gen_range(0..8u8) {
            0 => progress.kill(Time::minutes(60.0)),
            1 => {
                // Run to convergence.
                progress.advance(&spec, Time::minutes(1e9), 1, Locality::Slot);
                progress.mark_finished(Time::minutes(60.0));
            }
            2 | 3 => {
                progress.advance(
                    &spec,
                    Time::minutes(rng.gen_range(1.0..40.0)),
                    rng.gen_range(1..4),
                    Locality::Machine,
                );
            }
            _ => {}
        }
        if rng.gen_range(0..6u8) == 0 {
            rt.max_par_override
                .insert(spec.id, rng.gen_range(0..9usize));
        }
    }
    rt
}

struct State {
    now: Time,
    cluster: Cluster,
    apps: AppArena,
}

/// A cluster in which a random share of the GPUs is held, by random jobs of
/// random apps: fragmented offers, apps with and without a footprint, apps
/// with and without unmet demand.
fn random_state(rng: &mut SmallRng) -> State {
    let mut cluster = Cluster::new(random_spec(rng));
    let num_apps = rng.gen_range(1..9u32);
    let runtimes: Vec<AppRuntime> = (0..num_apps).map(|id| random_app(rng, id)).collect();
    let occupancy = rng.gen_range(0.0..0.9);
    for gpu in cluster.free_gpus() {
        if rng.gen_range(0.0..1.0) >= occupancy {
            continue;
        }
        // Runs of neighbouring GPUs go to one job, as packing leaves them.
        let rt = &runtimes[rng.gen_range(0..runtimes.len())];
        let job = rt.spec.jobs[rng.gen_range(0..rt.spec.jobs.len())].id;
        cluster
            .allocate(gpu, rt.id(), job, Time::ZERO, Time::minutes(1e6))
            .unwrap();
    }
    State {
        now: Time::minutes(rng.gen_range(50.0..200.0)),
        cluster,
        apps: AppArena::from_runtimes(runtimes),
    }
}

/// A sub-offer of what is free; now and then with a machine the spec does
/// not know, which both sides must treat as reference-speed and slot-local.
fn random_offer(rng: &mut SmallRng, cluster: &Cluster) -> FreeVector {
    let free = cluster.free_vector();
    let mut offer = match rng.gen_range(0..3u8) {
        0 => free,
        _ => FreeVector::from_counts(
            free.iter()
                .map(|(machine, count)| (machine, rng.gen_range(0..=count))),
        ),
    };
    if rng.gen_range(0..8u8) == 0 {
        let unknown = MachineId(cluster.spec().total_machines() as u32 + 1);
        offer.set(unknown, rng.gen_range(1..5));
    }
    offer
}

fn random_config(rng: &mut SmallRng) -> ThemisConfig {
    let config = ThemisConfig::default()
        .with_seed(rng.gen_range(0..u64::MAX))
        .with_max_bid_entries([1, 5, 16][rng.gen_range(0..3usize)])
        .with_fairness_knob([0.0, 0.5, 0.8][rng.gen_range(0..3usize)]);
    if rng.gen_range(0..2u8) == 0 {
        config.with_rho_error(0.1)
    } else {
        config
    }
}

fn apply(cluster: &mut Cluster, decisions: &[AllocationDecision], now: Time) {
    for decision in decisions {
        for gpu in &decision.gpus {
            cluster
                .allocate(
                    *gpu,
                    decision.app,
                    decision.job,
                    now,
                    now + Time::minutes(20.0),
                )
                .expect("decisions name free GPUs");
        }
    }
}

proptest! {
    #![proptest_config(cases())]

    /// (a) `prepare_bid` ≡ the per-row rebuild, table for table and draw
    /// for draw: each Agent bids twice, first on an offer that is empty
    /// half of the time (an empty table still draws), so the second table
    /// is equal only if the first call left the RNG where the old one did.
    #[test]
    fn prepare_bid_agrees_with_the_per_row_rebuild(case in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(case);
        let state = random_state(&mut rng);
        let config = random_config(&mut rng);
        for runtime in state.apps.iter() {
            let mut agent = Agent::new(runtime.id(), &config);
            let mut reference = RefAgent::new(runtime.id(), &config);
            let first = if rng.gen_range(0..2u8) == 0 {
                FreeVector::empty()
            } else {
                random_offer(&mut rng, &state.cluster)
            };
            for offer in [first, random_offer(&mut rng, &state.cluster)] {
                let new = agent.prepare_bid(state.now, runtime, &state.cluster, &offer);
                let old = reference.prepare_bid(state.now, runtime, &state.cluster, &offer);
                prop_assert_eq!(new, old);
            }
        }
    }

    /// (b) `current_rho` ≡ the map-based probe, and the public
    /// distribution and estimator, which now share the kernel's pieces,
    /// still return what they returned.
    #[test]
    fn current_rho_agrees_with_the_map_based_probe(case in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(case);
        let state = random_state(&mut rng);
        let config = ThemisConfig::default();
        let spec = state.cluster.spec();
        for runtime in state.apps.iter() {
            let new = Agent::new(runtime.id(), &config)
                .current_rho(state.now, runtime, &state.cluster);
            let old = RefAgent::new(runtime.id(), &config)
                .current_rho(state.now, runtime, &state.cluster);
            prop_assert_eq!(new, old);

            let estimates = runtime.estimates();
            let aggregate: BTreeMap<MachineId, usize> = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let machine = rng.gen_range(0..spec.total_machines() as u32 + 2);
                    (MachineId(machine), rng.gen_range(0..7usize))
                })
                .collect();
            let shares = greedy_job_distribution(&estimates, &aggregate, spec);
            prop_assert_eq!(
                &shares,
                &ref_greedy_job_distribution(&estimates, &aggregate, spec)
            );
            let elapsed = Time::minutes(rng.gen_range(0.0..100.0));
            prop_assert_eq!(
                estimate_rho_for_aggregate(&estimates, elapsed, &aggregate, spec),
                ref_estimate_rho(&estimates, elapsed, &shares, spec)
            );
        }
    }

    /// (c) `schedule` without the satisfied apps ≡ the all-apps status
    /// list. Three calls per scheduler, decisions applied in between: the
    /// first satisfies some apps, and the later calls agree only if every
    /// Agent RNG and the Arbiter RNG were left in the same state.
    #[test]
    fn schedule_agrees_with_the_all_apps_status_list(case in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(case);
        let State { mut now, mut cluster, apps } = random_state(&mut rng);
        let config = random_config(&mut rng);
        let mut new = ThemisScheduler::new(config);
        let mut old = RefScheduler::new(config);
        for _ in 0..3 {
            let decisions = new.schedule(now, &cluster, &apps);
            prop_assert_eq!(&decisions, &old.schedule(now, &cluster, &apps));
            apply(&mut cluster, &decisions, now);
            // Free a few GPUs so the next call has something to hand out.
            for gpu in 0..cluster.total_gpus() as u32 {
                if rng.gen_range(0..4u8) == 0 && !cluster.is_free(GpuId(gpu)) {
                    cluster.release(GpuId(gpu)).unwrap();
                }
            }
            now += Time::minutes(5.0);
        }
    }

    /// (d) The recipient index ≡ the four-tier rescan: the same candidate
    /// vector at every pick of a lock-step drain, and — through the real
    /// `run_auction` with the Arbiter's seed — the same round twice over.
    #[test]
    fn leftover_index_agrees_with_the_four_tier_rescan(case in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(case);
        let spec = random_spec(&mut rng);
        let machines = spec.total_machines() as u32;
        // Statuses in no particular order, with gaps in the app ids.
        let mut app_ids: Vec<u32> = (0..rng.gen_range(1..12u32)).map(|a| a * 3).collect();
        app_ids.shuffle(&mut rng);
        let statuses: Vec<AppStatus> = app_ids
            .iter()
            .map(|app| AppStatus {
                app: AppId(*app),
                rho: rng.gen_range(1.0..50.0),
                unmet_demand: rng.gen_range(0..5),
                footprint: (0..rng.gen_range(0..4u8))
                    .map(|_| MachineId(rng.gen_range(0..machines)))
                    .collect(),
            })
            .collect();
        let participants: Vec<AppId> = statuses
            .iter()
            .filter(|s| s.unmet_demand > 0 && rng.gen_range(0..3u8) == 0)
            .map(|s| s.app)
            .collect();
        let leftover = FreeVector::from_counts(
            (0..machines).map(|m| (MachineId(m), rng.gen_range(0..4usize))),
        );

        // Lock-step, with auction winners taken out of the demands.
        let winners: BTreeMap<AppId, FreeVector> = participants
            .iter()
            .filter_map(|app| {
                let won = FreeVector::from_counts([(MachineId(0), rng.gen_range(1..3usize))]);
                (rng.gen_range(0..2u8) == 0).then_some((*app, won))
            })
            .collect();
        let mut old = RefLeftovers::new(&statuses, &participants, &winners);
        let mut new = LeftoverRecipients::default();
        new.reset(&statuses, &participants, &winners);
        for machine in drain_order(&leftover, &spec) {
            new.drain(machine);
            for _ in 0..leftover.on_machine(machine) {
                let candidates = old.candidates(machine);
                prop_assert_eq!(new.candidates(), candidates.as_slice());
                let Some(&pick) = candidates.choose(&mut rng) else {
                    break;
                };
                old.grant(machine, pick.1);
                new.grant(pick);
            }
        }

        // Whole rounds, no bids: the offer is the leftover. The second
        // round agrees only if the first left the RNG in the same state
        // (and the reused buffers clean).
        let config = ThemisConfig::default().with_seed(case);
        let mut arbiter = Arbiter::new(config);
        let mut reference = RefArbiter::new(&config);
        for _ in 0..2 {
            let outcome = arbiter.run_auction(&leftover, &statuses, &participants, &[], &spec);
            let (winners, grants) =
                reference.run_auction(&leftover, &statuses, &participants, &[], &spec);
            prop_assert_eq!(outcome.winners, winners);
            prop_assert_eq!(outcome.leftover_grants, grants);
        }
    }
}
