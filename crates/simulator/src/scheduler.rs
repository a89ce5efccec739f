//! The cross-app scheduler interface and shared placement helpers.
//!
//! Every policy evaluated in the paper — Themis itself (`themis-core`) and
//! the Gandiva / Tiresias / SLAQ / DRF baselines (`themis-baselines`) —
//! implements [`Scheduler`]: at every scheduling event the engine hands the
//! policy the current cluster state and the dense app arena, and the policy
//! returns concrete GPU-to-job assignments for (a subset of) the free GPUs.
//!
//! The placement helpers are generic over
//! [`ClusterState`], so policies call them against a borrowed
//! [`themis_cluster::view::ClusterView`] shadow instead of cloning the
//! cluster per round.

use crate::app_runtime::AppRuntime;
use crate::arena::AppArena;
use std::collections::{BTreeMap, BTreeSet};
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId, MachineId};
use themis_cluster::time::Time;
use themis_cluster::view::ClusterState;

/// One allocation decision: grant these GPUs to this job of this app for the
/// next lease period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationDecision {
    /// The app receiving the GPUs.
    pub app: AppId,
    /// The job (within the app) the GPUs are assigned to.
    pub job: JobId,
    /// The concrete GPUs granted. Must be free in the cluster at decision
    /// time; the engine validates this.
    pub gpus: Vec<GpuId>,
}

/// Control-plane round counters reported by message-driven schedulers.
///
/// The distributed Themis modes run each auction round as a real message
/// exchange with phase deadlines; these counters summarize how the protocol
/// fared — how many rounds ran, how many collected every queried ρ report
/// in time, and how much traffic missed its phase. In-process policies have
/// no control plane and report nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlPlaneStats {
    /// Auction rounds started.
    pub rounds: u64,
    /// Rounds in which every queried agent's ρ report arrived by the ρ
    /// deadline (a round with nobody to query counts as complete).
    pub completed_rounds: u64,
    /// ρ reports that missed their round's ρ deadline.
    pub missed_rho_reports: u64,
    /// Offered participants whose bid or pass missed the bid deadline.
    pub missed_bids: u64,
    /// Win notifications voided (lost in transit past the win deadline, or
    /// wiped by an Arbiter failover).
    pub voided_wins: u64,
}

impl ControlPlaneStats {
    /// Fraction of started rounds that lost at least one ρ report to the
    /// deadline; `None` before any round has run.
    pub fn missed_round_rate(&self) -> Option<f64> {
        (self.rounds > 0).then(|| 1.0 - self.completed_rounds as f64 / self.rounds as f64)
    }
}

/// A cross-app scheduling policy.
pub trait Scheduler {
    /// Short name used in reports ("themis", "gandiva", "tiresias", ...).
    fn name(&self) -> &'static str;

    /// Called at every scheduling event (app arrival, lease expiry, job
    /// completion). Returns the allocations to apply. GPUs not covered by
    /// any decision stay free until the next event.
    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision>;

    /// The next simulated time at which this scheduler has internal work
    /// pending — a message delivery or a protocol timer for the actor-based
    /// distributed mode. The engine queries this after every round and
    /// enqueues a [`Wakeup`](crate::events::EventKind::Wakeup) event so the
    /// work is processed even when no workload event lands on that time.
    /// Purely event-driven policies (the default) have none.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }

    /// Whether the engine may skip calling [`schedule`](Scheduler::schedule)
    /// on a round where the offer set is clean and no grant is possible
    /// (zero free GPUs, or no schedulable app with unmet demand).
    ///
    /// Returning `true` is a purity contract: in exactly that state,
    /// `schedule` must return no decisions *and* leave the policy's
    /// observable behavior unchanged — no RNG draws, no internal state that
    /// a later round's decisions depend on. Every in-process policy in this
    /// workspace satisfies it (they all early-return before consuming
    /// randomness or mutating per-round state). Message-driven schedulers
    /// must override this to `false`: their `schedule` call doubles as the
    /// actor runtime's pump, and skipping it would stall pending message
    /// deliveries and protocol timers.
    fn supports_incremental(&self) -> bool {
        true
    }

    /// Control-plane round counters, for schedulers that run a real message
    /// protocol. The engine copies them into the final
    /// [`SimReport`](crate::metrics::SimReport) so benchmarks can report
    /// missed-round rates. In-process policies (the default) report `None`.
    fn control_stats(&self) -> Option<ControlPlaneStats> {
        None
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        (**self).schedule(now, cluster, apps)
    }

    fn next_wakeup(&self) -> Option<Time> {
        (**self).next_wakeup()
    }

    fn supports_incremental(&self) -> bool {
        (**self).supports_incremental()
    }

    fn control_stats(&self) -> Option<ControlPlaneStats> {
        (**self).control_stats()
    }
}

/// Picks `count` free GPUs, packing them as tightly as possible:
///
/// 1. prefer a machine that already hosts GPUs in `prefer_machines` and can
///    fit the whole request,
/// 2. otherwise the machine with the fewest free GPUs that still fits the
///    whole request (best-fit, reduces fragmentation),
/// 3. otherwise spill across machines of one rack, then across racks.
///
/// Ties at every step break toward the lowest machine id.
///
/// Returns fewer than `count` GPUs only if the cluster does not have enough
/// free GPUs in total.
pub fn pick_gpus_packed<C: ClusterState>(
    cluster: &C,
    count: usize,
    prefer_machines: &BTreeSet<MachineId>,
) -> Vec<GpuId> {
    if count == 0 {
        return Vec::new();
    }
    let spec = cluster.spec();
    // Free GPUs per machine.
    let mut free_by_machine: BTreeMap<MachineId, Vec<GpuId>> = BTreeMap::new();
    for gpu in cluster.free_gpus() {
        if let Some(m) = spec.machine_of(gpu) {
            free_by_machine.entry(m).or_default().push(gpu);
        }
    }

    // 1. A preferred machine that fits the whole request: fewest free GPUs
    //    first (best fit).
    let preferred_fit = prefer_machines
        .iter()
        .filter_map(|m| free_by_machine.get(m).map(|gpus| (*m, gpus.len())))
        .filter(|(_, n)| *n >= count)
        .min_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    if let Some((machine, _)) = preferred_fit {
        return free_by_machine[&machine]
            .iter()
            .take(count)
            .copied()
            .collect();
    }

    // 2. Best-fit single machine.
    let best_fit = free_by_machine
        .iter()
        .filter(|(_, gpus)| gpus.len() >= count)
        .min_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| a.0.cmp(b.0)));
    if let Some((_, gpus)) = best_fit {
        return gpus.iter().take(count).copied().collect();
    }

    // 3. Spill: fill machines rack by rack, preferring racks with the most
    //    free GPUs so the allocation stays within as few racks as possible,
    //    and preferring preferred machines first within a rack.
    let mut rack_free: BTreeMap<_, usize> = BTreeMap::new();
    for (machine, gpus) in &free_by_machine {
        if let Some(m) = spec.machine(*machine) {
            *rack_free.entry(m.rack).or_insert(0) += gpus.len();
        }
    }
    let mut racks: Vec<_> = rack_free.into_iter().collect();
    racks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut chosen = Vec::with_capacity(count);
    for (rack, _) in racks {
        let mut machines: Vec<_> = free_by_machine
            .iter()
            .filter(|(m, _)| spec.machine(**m).map(|ms| ms.rack) == Some(rack))
            .collect();
        // Preferred machines first, then most-free first (pack densely).
        machines.sort_by(|a, b| {
            let ap = prefer_machines.contains(a.0);
            let bp = prefer_machines.contains(b.0);
            bp.cmp(&ap)
                .then(b.1.len().cmp(&a.1.len()))
                .then(a.0.cmp(b.0))
        });
        for (_, gpus) in machines {
            for gpu in gpus {
                if chosen.len() == count {
                    return chosen;
                }
                chosen.push(*gpu);
            }
        }
    }
    chosen
}

/// Splits an app-level GPU budget among the app's active jobs.
///
/// An app finishes when its fastest job converges (the best model has been
/// identified), so the budget is handed out to jobs in order of *least work
/// left* first, each receiving up to its remaining unmet parallelism.
/// Returns `(job, gpu_count)` pairs with positive counts.
pub fn split_among_jobs<C: ClusterState>(
    app: &AppRuntime,
    cluster: &C,
    budget: usize,
) -> Vec<(JobId, usize)> {
    // Active jobs ordered by the work they still have to do (ascending).
    let mut order: Vec<JobId> = app.active_jobs();
    order.sort_by(|a, b| {
        let wa = app
            .job_spec(*a)
            .map(|s| app.progress[a].work_left(s))
            .unwrap_or(Time::ZERO);
        let wb = app
            .job_spec(*b)
            .map(|s| app.progress[b].work_left(s))
            .unwrap_or(Time::ZERO);
        wa.cmp(&wb).then(a.cmp(b))
    });

    let mut budget = budget;
    let mut granted: Vec<(JobId, usize)> = Vec::new();
    for job in order {
        if budget == 0 {
            break;
        }
        let held = cluster.gpus_of_job(app.id(), job).len();
        let unmet = app.effective_max_parallelism(job).saturating_sub(held);
        let take = unmet.min(budget);
        if take > 0 {
            granted.push((job, take));
            budget -= take;
        }
    }
    granted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_runtime::AppRuntime;
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    fn cluster() -> Cluster {
        // 2 racks, 2 machines each, 4 GPUs per machine.
        Cluster::new(ClusterSpec::homogeneous(2, 2, 4))
    }

    #[test]
    fn packed_pick_prefers_single_machine() {
        let c = cluster();
        let gpus = pick_gpus_packed(&c, 4, &BTreeSet::new());
        assert_eq!(gpus.len(), 4);
        let machines: BTreeSet<_> = gpus
            .iter()
            .filter_map(|g| c.spec().machine_of(*g))
            .collect();
        assert_eq!(machines.len(), 1, "4 GPUs should fit on one machine");
    }

    #[test]
    fn packed_pick_respects_preference() {
        let c = cluster();
        let prefer: BTreeSet<MachineId> = [MachineId(3)].into_iter().collect();
        let gpus = pick_gpus_packed(&c, 2, &prefer);
        assert!(gpus
            .iter()
            .all(|g| c.spec().machine_of(*g) == Some(MachineId(3))));
    }

    #[test]
    fn packed_pick_spills_within_rack_first() {
        let mut c = cluster();
        // Occupy 2 GPUs on every machine so no machine can fit 4.
        for machine in 0..4u32 {
            let free = c.free_gpus_on(MachineId(machine));
            for gpu in free.into_iter().take(2) {
                c.allocate(gpu, AppId(9), JobId(0), Time::ZERO, Time::minutes(10.0))
                    .unwrap();
            }
        }
        let gpus = pick_gpus_packed(&c, 4, &BTreeSet::new());
        assert_eq!(gpus.len(), 4);
        let racks: BTreeSet<_> = gpus.iter().filter_map(|g| c.spec().rack_of(*g)).collect();
        assert_eq!(racks.len(), 1, "should stay within one rack: {gpus:?}");
    }

    #[test]
    fn packed_pick_returns_partial_when_scarce() {
        let mut c = cluster();
        for gpu in c.free_gpus().into_iter().skip(3) {
            c.allocate(gpu, AppId(9), JobId(0), Time::ZERO, Time::minutes(10.0))
                .unwrap();
        }
        let gpus = pick_gpus_packed(&c, 8, &BTreeSet::new());
        assert_eq!(gpus.len(), 3);
        assert!(pick_gpus_packed(&c, 0, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn packed_pick_sees_view_overlays() {
        let c = cluster();
        let mut view = c.view();
        // Tentatively fill machine 0 through the view; the next packed pick
        // must avoid it.
        for gpu in view.free_gpus_on(MachineId(0)) {
            view.allocate(gpu, AppId(9), JobId(0)).unwrap();
        }
        let gpus = pick_gpus_packed(&view, 4, &BTreeSet::new());
        assert_eq!(gpus.len(), 4);
        assert!(gpus
            .iter()
            .all(|g| c.spec().machine_of(*g) != Some(MachineId(0))));
    }

    #[test]
    fn packed_pick_breaks_fit_ties_toward_the_lower_machine_id() {
        let c = cluster();
        let on = |gpus: &[GpuId]| -> BTreeSet<MachineId> {
            gpus.iter()
                .filter_map(|g| c.spec().machine_of(*g))
                .collect()
        };
        // All four idle machines fit 4 GPUs equally well: the best-fit tie
        // goes to machine 0.
        let gpus = pick_gpus_packed(&c, 4, &BTreeSet::new());
        assert_eq!(on(&gpus), [MachineId(0)].into_iter().collect());
        // Two preferred machines tie the same way: machine 1 before 3.
        let prefer: BTreeSet<MachineId> = [MachineId(3), MachineId(1)].into_iter().collect();
        let gpus = pick_gpus_packed(&c, 4, &prefer);
        assert_eq!(on(&gpus), [MachineId(1)].into_iter().collect());
    }

    fn app_with_jobs(pars: &[usize]) -> AppRuntime {
        let jobs = pars
            .iter()
            .enumerate()
            .map(|(i, p)| {
                JobSpec::new(
                    JobId(i as u32),
                    ModelArch::ResNet50,
                    100.0,
                    Time::minutes(0.1),
                    *p,
                )
            })
            .collect();
        AppRuntime::with_default_hpo(AppSpec::new(AppId(0), Time::ZERO, jobs))
    }

    #[test]
    fn split_respects_max_parallelism() {
        let app = app_with_jobs(&[2, 4]);
        let c = cluster();
        let split = split_among_jobs(&app, &c, 10);
        let total: usize = split.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 6, "cannot exceed aggregate max parallelism");
        for (job, n) in split {
            assert!(n <= app.effective_max_parallelism(job));
        }
    }

    #[test]
    fn split_serves_the_shortest_job_first() {
        // Two identical jobs: the tie breaks toward the lower id, which gets
        // the whole budget up to its parallelism limit (the app finishes as
        // soon as its fastest job converges, so concentrating helps).
        let app = app_with_jobs(&[4, 4]);
        let c = cluster();
        let split: BTreeMap<JobId, usize> = split_among_jobs(&app, &c, 4).into_iter().collect();
        assert_eq!(split[&JobId(0)], 4);
        assert_eq!(split.get(&JobId(1)), None);
        // A larger budget spills over to the second job.
        let split: BTreeMap<JobId, usize> = split_among_jobs(&app, &c, 6).into_iter().collect();
        assert_eq!(split[&JobId(0)], 4);
        assert_eq!(split[&JobId(1)], 2);
    }

    #[test]
    fn split_accounts_for_already_held_gpus() {
        let app = app_with_jobs(&[4]);
        let mut c = cluster();
        for gpu in c.free_gpus().into_iter().take(3) {
            c.allocate(gpu, AppId(0), JobId(0), Time::ZERO, Time::minutes(10.0))
                .unwrap();
        }
        let split = split_among_jobs(&app, &c, 4);
        assert_eq!(split, vec![(JobId(0), 1)], "only one more GPU is useful");
    }
}
