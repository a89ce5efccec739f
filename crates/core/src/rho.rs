//! The finish-time fairness metric ρ and its estimator.
//!
//! ρ = T_sh / T_id: the ratio of the app's (estimated) running time in the
//! shared cluster to its running time in a dedicated cluster (§3). The
//! Agent estimates ρ for candidate allocations following the steps of §5.2:
//!
//! 1. aggregate the candidate GPUs with the GPUs the app already holds,
//! 2. distribute the aggregate among the app's jobs greedily and
//!    placement-sensitively,
//! 3. `T_sh = elapsed + Σ_j W'_j / Σ_j (G_eff_j · S_j(placement))` — the
//!    app's aggregate remaining work over the aggregate effective
//!    throughput of the allocation (`rho_from`),
//! 4. `T_id = max_j (W_j / G_ideal_j)` with perfect placement — the
//!    slowest job at its maximum parallelism ([`ideal_running_time`]),
//! 5. ρ = T_sh / T_id.
//!
//! The paper's §5.2 writes both halves as a `min_j` (the job with the best
//! hyper-parameters ends the app); for single-job apps the three forms
//! coincide. For multi-job apps an aggregate `T_sh` over a `max_j` `T_id`
//! is what the code computes and is under review — see `ROADMAP.md`,
//! "Find out why Themis only ties LAS here", suspect (b).
//!
//! Steps 2–5 exist once, as the pieces of `RhoKernel`: the Agent's probe
//! and every row of its bid table go through the kernel, which keeps its
//! supply in a small dense buffer, places only the jobs that receive GPUs
//! and allocates nothing when warm. [`greedy_job_distribution`] and
//! [`estimate_rho`] are the same pieces behind map-shaped interfaces, for
//! callers that need the job-level shares themselves.

use std::collections::BTreeMap;
use themis_cluster::ids::{JobId, MachineId, RackId};
use themis_cluster::placement::Locality;
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_hpo::api::JobEstimate;

/// The result of a ρ estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RhoEstimate {
    /// The finish-time fairness metric (lower is better; unbounded when the
    /// app holds no GPUs and would never finish).
    pub rho: f64,
    /// Estimated shared running time T_sh (elapsed + remaining).
    pub t_sh: Time,
    /// Ideal dedicated-cluster running time T_id.
    pub t_id: Time,
}

/// A job-level share of an aggregate allocation: how many GPUs the job gets
/// on which machines.
pub type JobShare = Vec<(MachineId, usize)>;

/// Ideal (dedicated-cluster) running time `T_id` from per-job estimates:
/// every exploration job runs concurrently at its maximum parallelism with
/// perfect placement, so the app's ideal time is governed by the slowest
/// job (`max_j W_j / G_ideal_j`). For single-job apps this coincides with
/// the paper's §5.2 `min` formulation.
pub fn ideal_running_time(estimates: &[JobEstimate]) -> Time {
    estimates
        .iter()
        .filter(|e| e.max_parallelism > 0)
        .map(|e| Time::minutes(e.total_work.as_minutes() / e.max_parallelism as f64))
        .max()
        .unwrap_or(Time::ZERO)
}

/// GPUs on one machine as the greedy distribution sees them: a count plus
/// the topology facts every pick reads, looked up once. A job's share is a
/// slice of these with `count` = GPUs taken there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Supply {
    pub(crate) machine: MachineId,
    pub(crate) count: usize,
    speed: f64,
    /// `None` for a machine the spec does not know.
    rack: Option<RackId>,
    slot_size: usize,
}

impl Supply {
    /// An unknown machine runs at the reference speed and never spans a
    /// slot boundary.
    pub(crate) fn new(machine: MachineId, count: usize, spec: &ClusterSpec) -> Self {
        let known = spec.machine(machine);
        Supply {
            machine,
            count,
            speed: known.map_or(1.0, |m| m.speed()),
            rack: known.map(|m| m.rack),
            slot_size: known.map_or(usize::MAX, |m| m.slot_size),
        }
    }
}

/// A share as [`Supply`] picks, dropping its zero-count entries.
fn picks_of(share: &JobShare, spec: &ClusterSpec) -> Vec<Supply> {
    share
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(machine, count)| Supply::new(*machine, *count, spec))
        .collect()
}

/// The locality of a job share, approximated from machine placement (the
/// slot structure of machines is credited when the whole share fits within
/// one slot of one machine).
pub fn share_locality(share: &JobShare, spec: &ClusterSpec) -> Locality {
    locality_of(&picks_of(share, spec))
}

fn locality_of(picks: &[Supply]) -> Locality {
    match picks {
        [] => Locality::Slot,
        [only] if only.count <= only.slot_size => Locality::Slot,
        [_] => Locality::Machine,
        _ => {
            let mut racks = picks.iter().filter_map(|p| p.rack);
            let first = racks.next();
            if racks.all(|rack| Some(rack) == first) {
                Locality::Rack
            } else {
                Locality::CrossRack
            }
        }
    }
}

/// The order the greedy distribution visits jobs in: increasing work left,
/// then job id (then position, which makes the unstable sort the stable
/// one).
fn visiting_order(order: &mut Vec<usize>, estimates: &[JobEstimate]) {
    order.clear();
    order.extend(0..estimates.len());
    order.sort_unstable_by(|&a, &b| {
        let (ea, eb) = (&estimates[a], &estimates[b]);
        ea.work_left
            .cmp(&eb.work_left)
            .then(ea.job.cmp(&eb.job))
            .then(a.cmp(&b))
    });
}

/// The greedy placement itself. Visits `estimates` in `order`; each job
/// takes what it can use from the machine with the most remaining GPUs —
/// fastest generation, then lowest id on ties, a total order, so how `work`
/// is laid out cannot change a pick — and `on_share(position, picks)` sees
/// every job that received GPUs. Stops when the supply is gone. `work`
/// must hold no zero-count entry and no machine twice.
fn place_greedily(
    estimates: &[JobEstimate],
    order: &[usize],
    work: &mut Vec<Supply>,
    picks: &mut Vec<Supply>,
    mut on_share: impl FnMut(usize, &mut [Supply]),
) {
    let mut left: usize = work.iter().map(|s| s.count).sum();
    for &pos in order {
        if left == 0 {
            break;
        }
        let mut need = estimates[pos].max_parallelism;
        picks.clear();
        while need > 0 && left > 0 {
            let best = (0..work.len())
                .max_by(|&a, &b| {
                    let (a, b) = (&work[a], &work[b]);
                    a.count
                        .cmp(&b.count)
                        .then_with(|| a.speed.total_cmp(&b.speed))
                        .then_with(|| b.machine.cmp(&a.machine))
                })
                .expect("supply left means a machine is left");
            let take = need.min(work[best].count);
            picks.push(Supply {
                count: take,
                ..work[best]
            });
            work[best].count -= take;
            if work[best].count == 0 {
                work.swap_remove(best);
            }
            need -= take;
            left -= take;
        }
        if !picks.is_empty() {
            on_share(pos, picks);
        }
    }
}

/// Greedily distributes an aggregate per-machine GPU allocation among jobs
/// in a placement-sensitive manner (§5.2 step 4, "the AGENT computes the
/// job-level allocation in a greedy manner").
///
/// Because the app finishes when its fastest job converges, jobs are
/// visited in order of *increasing* work left — the job that determines the
/// app's finish time is packed first. Each job takes as many GPUs as it can
/// use from the machine with the most remaining GPUs — breaking ties toward
/// the machine with the *faster* GPU generation, so on a mixed cluster the
/// finish-time-critical job lands on the fastest silicon — spilling to
/// further machines only when necessary. On a uniform-speed cluster every
/// speed comparison ties and the distribution is the speed-blind one.
pub fn greedy_job_distribution(
    estimates: &[JobEstimate],
    aggregate: &BTreeMap<MachineId, usize>,
    spec: &ClusterSpec,
) -> BTreeMap<JobId, JobShare> {
    let mut work: Vec<Supply> = aggregate
        .iter()
        .filter(|(_, count)| **count > 0)
        .map(|(machine, count)| Supply::new(*machine, *count, spec))
        .collect();
    let mut order = Vec::new();
    visiting_order(&mut order, estimates);
    let mut shares: BTreeMap<JobId, JobShare> = BTreeMap::new();
    place_greedily(
        estimates,
        &order,
        &mut work,
        &mut Vec::new(),
        |pos, picks| {
            let share = picks.iter().map(|p| (p.machine, p.count)).collect();
            shares.insert(estimates[pos].job, share);
        },
    );
    shares
}

/// Aggregate speed of the `cap` fastest GPUs of a job share — the
/// `Σ speed_i` term of the effective-throughput model (all GPUs of one
/// machine share a generation). `min(total, cap) as f64` exactly on a
/// uniform-speed cluster. Reorders `picks` fastest first.
fn capped_speed(picks: &mut [Supply], cap: usize) -> f64 {
    // Stable, so equal-speed machines add up in share order.
    picks.sort_by(|a, b| b.speed.total_cmp(&a.speed));
    let mut left = cap;
    let mut speed = 0.0;
    for pick in picks.iter() {
        if left == 0 {
            break;
        }
        let take = pick.count.min(left);
        speed += pick.speed * take as f64;
        left -= take;
    }
    speed
}

/// One job's term of `Σ_j G_eff_j · S_j(placement)`, from its share.
fn share_speedup(est: &JobEstimate, picks: &mut [Supply]) -> f64 {
    let gpus: usize = picks.iter().map(|p| p.count).sum();
    let locality = locality_of(picks);
    let usable = gpus.min(est.max_parallelism.max(1));
    let usable_speed = capped_speed(picks, usable);
    est.sensitivity
        .effective_speedup_weighted(usable, usable_speed, locality)
}

/// Σ `work_left` over the jobs that have any, in `estimates` order.
fn total_work_left(estimates: &[JobEstimate]) -> Time {
    let mut total = Time::ZERO;
    for est in estimates.iter().filter(|e| e.work_left > Time::ZERO) {
        total += est.work_left;
    }
    total
}

/// Steps 3–5: ρ from the app's remaining work and aggregate speed-up.
fn rho_from(
    t_id: Time,
    elapsed: Time,
    total_work_left: Time,
    aggregate_speedup: f64,
) -> RhoEstimate {
    let t_sh = if total_work_left <= Time::ZERO {
        // Everything has converged or been terminated: the app's running
        // time is the time that has already elapsed.
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

/// Estimates ρ for an app given per-job estimates, the elapsed time since
/// the app arrived, and a job-level allocation (shares of machines).
///
/// The shared running time is estimated as
/// `T_sh = elapsed + Σ_j W'_j / Σ_j (G_eff_j · S_j(placement))` with
/// `G_eff_j = Σ_i speed_i` over the job's share: the app's aggregate
/// remaining exploration work divided by the aggregate *generation-weighted*
/// effective throughput of the candidate allocation. On a uniform-speed
/// cluster `G_eff = G` and this is exactly the paper's §5.2 step-4 formula;
/// on a mixed-generation cluster a fast-GPU share is worth proportionally
/// more, which is what makes the Agents' bids speed-aware. For
/// hyper-parameter-sweep apps it models the app time-sharing its GPUs
/// across the surviving jobs until the exploration has run its course,
/// which is how the simulator (and a real HyperBand deployment) behaves.
/// The estimate stays homogeneous of degree one in the allocation — the
/// property the truthfulness proof of the partial-allocation mechanism
/// relies on (§5.1). `T_id` stays defined on reference-speed GPUs, so ρ on
/// a fast share can legitimately dip below its uniform-cluster value.
pub fn estimate_rho(
    estimates: &[JobEstimate],
    elapsed: Time,
    shares: &BTreeMap<JobId, JobShare>,
    spec: &ClusterSpec,
) -> RhoEstimate {
    let mut aggregate_speedup = 0.0;
    for est in estimates.iter().filter(|e| e.work_left > Time::ZERO) {
        let mut picks = shares
            .get(&est.job)
            .map(|share| picks_of(share, spec))
            .unwrap_or_default();
        if !picks.is_empty() {
            aggregate_speedup += share_speedup(est, &mut picks);
        }
    }
    rho_from(
        ideal_running_time(estimates),
        elapsed,
        total_work_left(estimates),
        aggregate_speedup,
    )
}

/// Convenience: estimate ρ for an aggregate per-machine allocation, running
/// the greedy job distribution first.
pub fn estimate_rho_for_aggregate(
    estimates: &[JobEstimate],
    elapsed: Time,
    aggregate: &BTreeMap<MachineId, usize>,
    spec: &ClusterSpec,
) -> RhoEstimate {
    let shares = greedy_job_distribution(estimates, aggregate, spec);
    estimate_rho(estimates, elapsed, &shares, spec)
}

/// Reusable buffers of the ρ kernel. Whoever evaluates ρ round after round
/// keeps one; they grow to the largest app seen (jobs, machines in one
/// supply) and never with the cluster.
#[derive(Debug, Default)]
pub(crate) struct RhoKernel {
    order: Vec<usize>,
    work: Vec<Supply>,
    picks: Vec<Supply>,
    /// `(estimate position, speed-up term)` of the jobs holding a share.
    speedups: Vec<(usize, f64)>,
}

impl RhoKernel {
    /// Fixes what every candidate allocation of one app has in common:
    /// `T_id`, Σ `work_left` and — from the first non-empty supply on — the
    /// visiting order.
    pub(crate) fn begin<'a>(
        &'a mut self,
        estimates: &'a [JobEstimate],
        elapsed: Time,
    ) -> RhoEval<'a> {
        RhoEval {
            estimates,
            elapsed,
            t_id: ideal_running_time(estimates),
            total_work_left: total_work_left(estimates),
            ordered: false,
            kernel: self,
        }
    }
}

/// ρ of one app, as a function of the GPUs it would hold.
#[derive(Debug)]
pub(crate) struct RhoEval<'a> {
    estimates: &'a [JobEstimate],
    elapsed: Time,
    t_id: Time,
    total_work_left: Time,
    /// Whether `kernel.order` is this app's visiting order yet.
    ordered: bool,
    kernel: &'a mut RhoKernel,
}

impl RhoEval<'_> {
    /// ρ with `supply` (no machine twice) distributed greedily among the
    /// app's jobs. Costs the jobs that receive GPUs, not the jobs the app
    /// has; the speed-up terms are added in `estimates` order, as
    /// [`estimate_rho`] adds them.
    pub(crate) fn rho_of(&mut self, supply: &[Supply]) -> RhoEstimate {
        let RhoKernel {
            order,
            work,
            picks,
            speedups,
        } = &mut *self.kernel;
        let estimates = self.estimates;
        work.clear();
        work.extend(supply.iter().filter(|s| s.count > 0));
        if !work.is_empty() && !self.ordered {
            // An app that holds nothing is probed without ever sorting.
            visiting_order(order, estimates);
            self.ordered = true;
        }
        speedups.clear();
        place_greedily(estimates, order, work, picks, |pos, picks| {
            // A converged job still takes its share; it adds no speed-up.
            if estimates[pos].work_left > Time::ZERO {
                speedups.push((pos, share_speedup(&estimates[pos], picks)));
            }
        });
        speedups.sort_unstable_by_key(|(pos, _)| *pos);
        let mut aggregate_speedup = 0.0;
        for (_, speedup) in speedups.iter() {
            aggregate_speedup += speedup;
        }
        rho_from(
            self.t_id,
            self.elapsed,
            self.total_work_left,
            aggregate_speedup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::models::ModelArch;

    fn est(
        job: u32,
        total_min: f64,
        left_min: f64,
        max_par: usize,
        model: ModelArch,
    ) -> JobEstimate {
        JobEstimate {
            job: JobId(job),
            total_work: Time::minutes(total_min),
            work_left: Time::minutes(left_min),
            max_parallelism: max_par,
            sensitivity: model.sensitivity(),
        }
    }

    fn spec() -> ClusterSpec {
        // 2 racks × 2 machines × 4 GPUs, slot size 2.
        ClusterSpec::homogeneous(2, 2, 4)
    }

    #[test]
    fn ideal_running_time_is_dedicated_cluster_time() {
        let estimates = vec![
            est(0, 100.0, 100.0, 4, ModelArch::ResNet50),
            est(1, 300.0, 300.0, 2, ModelArch::ResNet50),
        ];
        // job0: 100/4 = 25; job1: 300/2 = 150. With both jobs running
        // concurrently in a dedicated cluster the app takes 150 minutes.
        assert_eq!(ideal_running_time(&estimates), Time::minutes(150.0));
    }

    #[test]
    fn no_allocation_gives_unbounded_rho() {
        let estimates = vec![est(0, 100.0, 100.0, 4, ModelArch::ResNet50)];
        let rho = estimate_rho(&estimates, Time::minutes(10.0), &BTreeMap::new(), &spec());
        assert!(rho.rho.is_infinite());
        assert_eq!(rho.t_id, Time::minutes(25.0));
    }

    #[test]
    fn full_ideal_allocation_at_arrival_gives_rho_one() {
        let estimates = vec![est(0, 100.0, 100.0, 4, ModelArch::ResNet50)];
        let aggregate: BTreeMap<MachineId, usize> = [(MachineId(0), 4)].into();
        let rho = estimate_rho_for_aggregate(&estimates, Time::ZERO, &aggregate, &spec());
        // 4 GPUs on one machine, ResNet50 machine-locality S≈0.99 → ρ ≈ 1.01.
        assert!(rho.rho >= 1.0);
        assert!(rho.rho < 1.1, "rho {} should be close to 1", rho.rho);
    }

    #[test]
    fn spreading_a_sensitive_model_raises_rho() {
        let estimates = vec![est(0, 100.0, 100.0, 4, ModelArch::Vgg16)];
        let packed: BTreeMap<MachineId, usize> = [(MachineId(0), 4)].into();
        let spread: BTreeMap<MachineId, usize> = [
            (MachineId(0), 1),
            (MachineId(1), 1),
            (MachineId(2), 1),
            (MachineId(3), 1),
        ]
        .into();
        let spec = spec();
        let rho_packed = estimate_rho_for_aggregate(&estimates, Time::ZERO, &packed, &spec);
        let rho_spread = estimate_rho_for_aggregate(&estimates, Time::ZERO, &spread, &spec);
        assert!(
            rho_spread.rho > 1.5 * rho_packed.rho,
            "VGG16 spread across racks ({}) must be much worse than packed ({})",
            rho_spread.rho,
            rho_packed.rho
        );
    }

    #[test]
    fn insensitive_model_barely_cares_about_spread() {
        let estimates = vec![est(0, 100.0, 100.0, 4, ModelArch::ResNet50)];
        let packed: BTreeMap<MachineId, usize> = [(MachineId(0), 4)].into();
        let spread: BTreeMap<MachineId, usize> = [(MachineId(0), 2), (MachineId(2), 2)].into();
        let spec = spec();
        let rho_packed = estimate_rho_for_aggregate(&estimates, Time::ZERO, &packed, &spec);
        let rho_spread = estimate_rho_for_aggregate(&estimates, Time::ZERO, &spread, &spec);
        assert!(rho_spread.rho / rho_packed.rho < 1.15);
    }

    #[test]
    fn elapsed_time_increases_rho() {
        let estimates = vec![est(0, 100.0, 50.0, 4, ModelArch::ResNet50)];
        let aggregate: BTreeMap<MachineId, usize> = [(MachineId(0), 4)].into();
        let spec = spec();
        let early = estimate_rho_for_aggregate(&estimates, Time::minutes(10.0), &aggregate, &spec);
        let late = estimate_rho_for_aggregate(&estimates, Time::minutes(100.0), &aggregate, &spec);
        assert!(late.rho > early.rho);
        assert!(late.t_sh > early.t_sh);
    }

    #[test]
    fn more_gpus_never_hurt_rho() {
        let estimates = vec![
            est(0, 100.0, 80.0, 4, ModelArch::Vgg16),
            est(1, 200.0, 150.0, 4, ModelArch::Vgg16),
        ];
        let spec = spec();
        let small: BTreeMap<MachineId, usize> = [(MachineId(0), 2)].into();
        let large: BTreeMap<MachineId, usize> = [(MachineId(0), 4), (MachineId(1), 4)].into();
        let rho_small = estimate_rho_for_aggregate(&estimates, Time::minutes(5.0), &small, &spec);
        let rho_large = estimate_rho_for_aggregate(&estimates, Time::minutes(5.0), &large, &spec);
        assert!(rho_large.rho <= rho_small.rho + 1e-9);
    }

    #[test]
    fn greedy_distribution_respects_max_parallelism_and_supply() {
        let estimates = vec![
            est(0, 100.0, 100.0, 4, ModelArch::ResNet50),
            est(1, 300.0, 300.0, 2, ModelArch::ResNet50),
        ];
        let aggregate: BTreeMap<MachineId, usize> = [(MachineId(0), 4), (MachineId(1), 1)].into();
        let shares = greedy_job_distribution(&estimates, &aggregate, &spec());
        let total: usize = shares
            .values()
            .flat_map(|s| s.iter().map(|(_, c)| *c))
            .sum();
        assert!(total <= 5);
        for (job, share) in &shares {
            let est = estimates.iter().find(|e| e.job == *job).unwrap();
            let count: usize = share.iter().map(|(_, c)| *c).sum();
            assert!(count <= est.max_parallelism);
        }
        // The job with the least work left (job 0, which determines the
        // app's finish time) is served first and gets the densest machine.
        assert_eq!(shares[&JobId(0)][0].0, MachineId(0));
    }

    #[test]
    fn fast_gpu_share_lowers_rho() {
        use themis_cluster::topology::GpuGeneration;
        // Machine 0 is Volta (2.0), machine 1 is Pascal (1.0); same rack.
        let mixed =
            ClusterSpec::synthetic_mixed(1, 2, 4, &[GpuGeneration::Volta, GpuGeneration::Pascal]);
        let estimates = vec![est(0, 100.0, 100.0, 4, ModelArch::ResNet50)];
        let fast: BTreeMap<MachineId, usize> = [(MachineId(0), 4)].into();
        let slow: BTreeMap<MachineId, usize> = [(MachineId(1), 4)].into();
        let rho_fast = estimate_rho_for_aggregate(&estimates, Time::ZERO, &fast, &mixed);
        let rho_slow = estimate_rho_for_aggregate(&estimates, Time::ZERO, &slow, &mixed);
        // Same GPU count, same locality: the Volta share is worth 2x.
        assert!(
            (rho_slow.rho / rho_fast.rho - 2.0).abs() < 1e-9,
            "fast {} vs slow {}",
            rho_fast.rho,
            rho_slow.rho
        );
        // And the slow share matches the uniform-cluster estimate exactly:
        // T_id is defined on reference-speed GPUs.
        let uniform = ClusterSpec::synthetic(1, 2, 4);
        let rho_uniform = estimate_rho_for_aggregate(&estimates, Time::ZERO, &slow, &uniform);
        assert_eq!(rho_slow, rho_uniform);
    }

    #[test]
    fn greedy_distribution_breaks_count_ties_toward_faster_machines() {
        use themis_cluster::topology::GpuGeneration;
        // Machine 0 Pascal, machine 1 Volta, equal counts on offer.
        let mixed =
            ClusterSpec::synthetic_mixed(1, 2, 4, &[GpuGeneration::Pascal, GpuGeneration::Volta]);
        let estimates = vec![est(0, 100.0, 100.0, 4, ModelArch::ResNet50)];
        let aggregate: BTreeMap<MachineId, usize> = [(MachineId(0), 4), (MachineId(1), 4)].into();
        let shares = greedy_job_distribution(&estimates, &aggregate, &mixed);
        // The finish-time-critical job is packed onto the Volta machine.
        assert_eq!(shares[&JobId(0)], vec![(MachineId(1), 4)]);
        // On the uniform cluster the same tie goes to the lower machine id
        // (the speed-blind behavior).
        let uniform = ClusterSpec::synthetic(1, 2, 4);
        let shares = greedy_job_distribution(&estimates, &aggregate, &uniform);
        assert_eq!(shares[&JobId(0)], vec![(MachineId(0), 4)]);
    }

    #[test]
    fn share_locality_levels() {
        let spec = spec();
        assert_eq!(
            share_locality(&vec![(MachineId(0), 2)], &spec),
            Locality::Slot
        );
        assert_eq!(
            share_locality(&vec![(MachineId(0), 4)], &spec),
            Locality::Machine
        );
        assert_eq!(
            share_locality(&vec![(MachineId(0), 2), (MachineId(1), 2)], &spec),
            Locality::Rack
        );
        assert_eq!(
            share_locality(&vec![(MachineId(0), 2), (MachineId(2), 2)], &spec),
            Locality::CrossRack
        );
        assert_eq!(share_locality(&Vec::new(), &spec), Locality::Slot);
    }

    #[test]
    fn finished_app_rho_is_elapsed_over_ideal() {
        let estimates = vec![est(0, 100.0, 0.0, 4, ModelArch::ResNet50)];
        let rho = estimate_rho(&estimates, Time::minutes(50.0), &BTreeMap::new(), &spec());
        assert!((rho.rho - 2.0).abs() < 1e-9);
    }
}
