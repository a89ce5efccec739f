//! The per-app Agent.
//!
//! An Agent is co-located with each app's hyper-parameter tuning framework
//! (§3.1). It answers the Arbiter's ρ probes and, when the app is invited
//! into an auction, prepares a single bid: a valuation table mapping
//! candidate subsets of the offered GPUs to the new ρ the app would achieve
//! with them (§5.2). The Agent also performs the job-level greedy
//! distribution of whatever the app wins.
//!
//! Probe and bid are one computation at different supplies: what the app
//! holds, and what it holds plus the first `k` GPUs of the offer in the
//! app's packing order. Both go through `RhoKernel` over an
//! `AppContext` that is built once per app per scheduling call.

use crate::config::ThemisConfig;
use crate::rho::{greedy_job_distribution, RhoEstimate, RhoKernel, Supply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use themis_cluster::alloc::FreeVector;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, JobId, MachineId};
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_cluster::view::ClusterState;
use themis_hpo::api::JobEstimate;
use themis_protocol::bid::BidTable;
use themis_sim::app_runtime::AppRuntime;

/// What an app's probe and its bid both read, computed once: the HPO
/// framework's per-job estimates, the time since arrival and the app's
/// holdings per machine (ascending machine id).
#[derive(Debug)]
pub(crate) struct AppContext {
    pub(crate) estimates: Vec<JobEstimate>,
    pub(crate) elapsed: Time,
    pub(crate) holdings: Vec<(MachineId, usize)>,
}

impl AppContext {
    pub(crate) fn new(app: AppId, now: Time, runtime: &AppRuntime, cluster: &Cluster) -> Self {
        AppContext {
            estimates: runtime.estimates(),
            elapsed: (now - runtime.spec.arrival).clamp_non_negative(),
            holdings: cluster.machine_counts_of_app(app).collect(),
        }
    }

    /// The app's current ρ: the kernel at the supply the app holds.
    pub(crate) fn current_rho(&self, spec: &ClusterSpec, scratch: &mut BidScratch) -> RhoEstimate {
        scratch.fill_supply(&self.holdings, spec);
        scratch
            .kernel
            .begin(&self.estimates, self.elapsed)
            .rho_of(&scratch.supply)
    }
}

/// Reusable buffers for probes and bids. None grows with the cluster: the
/// supply holds an app's machines plus at most one per table row, the
/// packing order at most one machine per row.
#[derive(Debug, Default)]
pub(crate) struct BidScratch {
    kernel: RhoKernel,
    supply: Vec<Supply>,
    packing: Vec<Packed>,
}

impl BidScratch {
    fn fill_supply(&mut self, holdings: &[(MachineId, usize)], spec: &ClusterSpec) {
        self.supply.clear();
        self.supply.extend(
            holdings
                .iter()
                .map(|(machine, count)| Supply::new(*machine, *count, spec)),
        );
    }
}

/// An offered machine, keyed for the packing order.
#[derive(Debug, Clone, Copy)]
struct Packed {
    /// The app already holds GPUs here.
    preferred: bool,
    count: usize,
    speed: f64,
    machine: MachineId,
}

impl Packed {
    /// The order candidate subsets fill machines in: the app's current
    /// footprint first, then machines with the most offered GPUs, then — on
    /// a mixed-generation cluster — machines with the faster GPUs (at equal
    /// locality a fast-GPU offer is worth more ρ per GPU, so the subsets
    /// the Agent values should contain the fastest silicon available), then
    /// lowest id. Uniform-speed clusters tie on every speed comparison and
    /// get the speed-blind order.
    fn packs_before(&self, other: &Packed) -> Ordering {
        other
            .preferred
            .cmp(&self.preferred)
            .then(other.count.cmp(&self.count))
            .then_with(|| other.speed.total_cmp(&self.speed))
            .then(self.machine.cmp(&other.machine))
    }
}

/// The first `rows` machines of `offer` in packing order. The order does
/// not depend on how many GPUs are wanted, so the most tightly-packed `k`
/// GPUs are the `k`-GPU prefix of it for every `k`, and `rows` GPUs never
/// reach past `rows` machines.
fn packing_prefix(
    packing: &mut Vec<Packed>,
    offer: &FreeVector,
    holdings: &[(MachineId, usize)],
    rows: usize,
    spec: &ClusterSpec,
) {
    packing.clear();
    let mut held = holdings.iter().map(|(machine, _)| *machine).peekable();
    for (machine, count) in offer.iter() {
        while held.next_if(|h| *h < machine).is_some() {}
        let candidate = Packed {
            preferred: held.peek() == Some(&machine),
            count,
            speed: spec.machine_speed(machine).unwrap_or(1.0),
            machine,
        };
        if packing.len() == rows {
            let last = packing.last().expect("rows > 0");
            if candidate.packs_before(last) != Ordering::Less {
                continue;
            }
            packing.pop();
        }
        let at = packing.partition_point(|p| p.packs_before(&candidate) == Ordering::Less);
        packing.insert(at, candidate);
    }
}

/// The per-app Agent.
#[derive(Debug)]
pub struct Agent {
    /// The app this Agent represents.
    pub app: AppId,
    max_bid_entries: usize,
    rho_error_theta: f64,
    rng: SmallRng,
}

impl Agent {
    /// Creates an Agent for an app using the scheduler-wide configuration.
    pub fn new(app: AppId, config: &ThemisConfig) -> Self {
        Agent {
            app,
            max_bid_entries: config.max_bid_entries,
            rho_error_theta: config.rho_error_theta,
            rng: SmallRng::seed_from_u64(config.seed ^ (u64::from(app.0) << 17)),
        }
    }

    /// Estimates the app's *current* ρ (with the GPUs it already holds),
    /// answering the Arbiter's step-1 probe.
    pub fn current_rho(&self, now: Time, runtime: &AppRuntime, cluster: &Cluster) -> RhoEstimate {
        AppContext::new(self.app, now, runtime, cluster)
            .current_rho(cluster.spec(), &mut BidScratch::default())
    }

    /// Prepares the bid table in response to an offer (§5.2).
    ///
    /// Candidate subsets are generated by, for every total GPU count `k` up
    /// to the app's unmet demand, picking the most tightly-packed `k` GPUs
    /// available in the offer (preferring machines the app already uses).
    /// Each subset is valued by re-estimating ρ with the aggregate
    /// (existing + candidate) allocation.
    pub fn prepare_bid(
        &mut self,
        now: Time,
        runtime: &AppRuntime,
        cluster: &Cluster,
        offer: &FreeVector,
    ) -> BidTable {
        let context = AppContext::new(self.app, now, runtime, cluster);
        let mut scratch = BidScratch::default();
        let current_rho = context.current_rho(cluster.spec(), &mut scratch).rho;
        self.bid(&context, current_rho, cluster.spec(), offer, &mut scratch)
    }

    /// [`Agent::prepare_bid`] for a caller that has probed the app already
    /// and holds its context and current ρ.
    pub(crate) fn bid(
        &mut self,
        context: &AppContext,
        current_rho: f64,
        spec: &ClusterSpec,
        offer: &FreeVector,
        scratch: &mut BidScratch,
    ) -> BidTable {
        let AppContext {
            estimates,
            elapsed,
            holdings,
        } = context;
        let mut table = BidTable::empty(self.app, current_rho);
        let demand: usize = estimates.iter().map(|e| e.max_parallelism).sum();
        let held: usize = holdings.iter().map(|(_, count)| count).sum();
        let unmet = demand.saturating_sub(held);
        let rows = unmet.min(offer.total()).min(self.max_bid_entries);
        if rows > 0 {
            table.entries.reserve_exact(rows);
            packing_prefix(&mut scratch.packing, offer, holdings, rows, spec);
            scratch.fill_supply(holdings, spec);
            let mut eval = scratch.kernel.begin(estimates, *elapsed);
            // Row k is row k − 1 plus one GPU from the machine at the
            // cursor: aggregate = existing + candidate subset.
            let mut subset = FreeVector::empty();
            for packed in &scratch.packing {
                let wanted = rows - table.len();
                if wanted == 0 {
                    break;
                }
                let at = match holdings.binary_search_by_key(&packed.machine, |h| h.0) {
                    Ok(held_at) => held_at,
                    Err(_) => {
                        scratch.supply.push(Supply::new(packed.machine, 0, spec));
                        scratch.supply.len() - 1
                    }
                };
                for taken in 1..=packed.count.min(wanted) {
                    scratch.supply[at].count += 1;
                    subset.set(packed.machine, taken);
                    let rho = eval.rho_of(&scratch.supply).rho;
                    table.push(subset.clone(), rho);
                }
            }
        }

        // One draw per bid, after the rows, whether or not there are any.
        if self.rho_error_theta > 0.0 {
            let error = self
                .rng
                .gen_range(-self.rho_error_theta..=self.rho_error_theta);
            table = table.with_rho_error(error);
        }
        table
    }

    /// Splits GPUs the app won (as per-machine counts) among its jobs,
    /// greedily and placement-sensitively, returning per-job shares.
    /// Generic over [`ClusterState`] so the round's shadow view can be
    /// passed during materialization.
    pub fn distribute_award<C: ClusterState>(
        &self,
        runtime: &AppRuntime,
        cluster: &C,
        award: &FreeVector,
    ) -> BTreeMap<JobId, Vec<(MachineId, usize)>> {
        let aggregate: BTreeMap<MachineId, usize> = award.iter().collect();
        // Account for GPUs jobs already hold: reduce each job's residual
        // parallelism before distributing the award.
        let mut held: BTreeMap<JobId, usize> = BTreeMap::new();
        for gpu in cluster.gpus_of_app(self.app).iter() {
            let job = cluster.assignment(gpu).expect("held gpu is assigned").job;
            *held.entry(job).or_insert(0) += 1;
        }
        let adjusted: Vec<JobEstimate> = runtime
            .estimates()
            .into_iter()
            .map(|mut e| {
                let held = held.get(&e.job).copied().unwrap_or(0);
                e.max_parallelism = e.max_parallelism.saturating_sub(held);
                e
            })
            .filter(|e| e.max_parallelism > 0)
            .collect();
        greedy_job_distribution(&adjusted, &aggregate, cluster.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::GpuId;
    use themis_cluster::topology::ClusterSpec;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::homogeneous(2, 2, 4))
    }

    fn runtime(id: u32, model: ModelArch, jobs: usize, max_par: usize) -> AppRuntime {
        let jobs = (0..jobs)
            .map(|i| {
                let mut j =
                    JobSpec::new(JobId(i as u32), model, 1000.0, Time::minutes(0.1), max_par);
                j.model = model;
                j
            })
            .collect();
        AppRuntime::with_default_hpo(AppSpec::new(AppId(id), Time::ZERO, jobs))
    }

    #[test]
    fn current_rho_is_unbounded_without_gpus() {
        let cluster = cluster();
        let rt = runtime(0, ModelArch::ResNet50, 1, 4);
        let agent = Agent::new(AppId(0), &ThemisConfig::default());
        let rho = agent.current_rho(Time::minutes(10.0), &rt, &cluster);
        assert!(rho.rho.is_infinite());
    }

    #[test]
    fn current_rho_reflects_held_gpus() {
        let mut cluster = cluster();
        for gpu in 0..4u32 {
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
        let rt = runtime(0, ModelArch::ResNet50, 1, 4);
        let agent = Agent::new(AppId(0), &ThemisConfig::default());
        let rho = agent.current_rho(Time::ZERO, &rt, &cluster);
        assert!(rho.rho.is_finite());
        assert!(
            rho.rho < 1.1,
            "ideal allocation should give rho ~1, got {}",
            rho.rho
        );
    }

    #[test]
    fn bid_table_has_monotone_rhos() {
        let cluster = cluster();
        let rt = runtime(0, ModelArch::Vgg16, 2, 4);
        let mut agent = Agent::new(AppId(0), &ThemisConfig::default());
        let offer = cluster.free_vector();
        let table = agent.prepare_bid(Time::minutes(5.0), &rt, &cluster, &offer);
        assert!(!table.is_empty());
        assert!(
            table.len() <= 8,
            "bounded by unmet demand of 8, got {}",
            table.len()
        );
        // More GPUs never increase rho.
        for w in table.entries.windows(2) {
            assert!(w[1].resources.total() > w[0].resources.total());
            assert!(w[1].rho <= w[0].rho + 1e-9);
        }
        // Every entry improves on the (unbounded) current rho.
        for e in &table.entries {
            assert!(e.rho < f64::INFINITY);
        }
    }

    #[test]
    fn bid_entries_fit_within_offer() {
        let mut cluster = cluster();
        // Only machine 3 has free GPUs (2 of them).
        for gpu in cluster.free_gpus() {
            if cluster.spec().machine_of(gpu) != Some(MachineId(3)) {
                cluster
                    .allocate(gpu, AppId(9), JobId(0), Time::ZERO, Time::minutes(20.0))
                    .unwrap();
            }
        }
        for gpu in cluster.free_gpus_on(MachineId(3)).into_iter().take(2) {
            cluster
                .allocate(gpu, AppId(9), JobId(0), Time::ZERO, Time::minutes(20.0))
                .unwrap();
        }
        let offer = cluster.free_vector();
        assert_eq!(offer.total(), 2);
        let rt = runtime(0, ModelArch::ResNet50, 1, 4);
        let mut agent = Agent::new(AppId(0), &ThemisConfig::default());
        let table = agent.prepare_bid(Time::ZERO, &rt, &cluster, &offer);
        assert!(table.len() <= 2);
        for e in &table.entries {
            assert!(offer.contains_vector(&e.resources));
        }
    }

    #[test]
    fn max_bid_entries_caps_table_size() {
        let cluster = Cluster::new(ClusterSpec::homogeneous(4, 4, 4));
        let rt = runtime(0, ModelArch::ResNet50, 16, 4);
        let mut agent = Agent::new(AppId(0), &ThemisConfig::default().with_max_bid_entries(5));
        let offer = cluster.free_vector();
        let table = agent.prepare_bid(Time::ZERO, &rt, &cluster, &offer);
        assert!(table.len() <= 5);
    }

    #[test]
    fn error_injection_perturbs_rho() {
        let cluster = cluster();
        let rt = runtime(0, ModelArch::ResNet50, 1, 4);
        let offer = cluster.free_vector();
        let clean = Agent::new(AppId(0), &ThemisConfig::default()).prepare_bid(
            Time::ZERO,
            &rt,
            &cluster,
            &offer,
        );
        let noisy = Agent::new(
            AppId(0),
            &ThemisConfig::default().with_rho_error(0.2).with_seed(1),
        )
        .prepare_bid(Time::ZERO, &rt, &cluster, &offer);
        assert_eq!(clean.len(), noisy.len());
        let differs = clean
            .entries
            .iter()
            .zip(noisy.entries.iter())
            .any(|(a, b)| (a.rho - b.rho).abs() > 1e-9);
        assert!(differs, "error injection must perturb at least one entry");
        // The perturbation is bounded by theta.
        for (a, b) in clean.entries.iter().zip(noisy.entries.iter()) {
            let rel = (b.rho - a.rho).abs() / a.rho;
            assert!(rel <= 0.2 + 1e-9);
        }
    }

    #[test]
    fn largest_rho_errors_keep_bid_values_finite_and_positive() {
        let cluster = cluster();
        let rt = runtime(0, ModelArch::ResNet50, 1, 4);
        let offer = cluster.free_vector();
        for seed in 0..64 {
            let config = ThemisConfig::default().with_rho_error(0.99).with_seed(seed);
            let table = Agent::new(AppId(0), &config).prepare_bid(
                Time::minutes(5.0),
                &rt,
                &cluster,
                &offer,
            );
            assert!(!table.is_empty());
            // Holding nothing, the app's current rho is unbounded: it must
            // stay so, not turn into NaN.
            assert_eq!(table.current_rho, f64::INFINITY);
            for entry in &table.entries {
                assert!(
                    entry.rho.is_finite() && entry.rho > 0.0,
                    "rho {}",
                    entry.rho
                );
                assert!(entry.value().is_finite() && entry.value() > 0.0);
            }
        }
    }

    #[test]
    fn bids_prefer_faster_machines_at_equal_packing() {
        use themis_cluster::topology::{ClusterSpec, GpuGeneration};
        // Machines 0/2 Pascal, machines 1/3 Volta; everything free.
        let cluster = Cluster::new(ClusterSpec::synthetic_mixed(
            2,
            2,
            4,
            &[GpuGeneration::Pascal, GpuGeneration::Volta],
        ));
        let rt = runtime(0, ModelArch::ResNet50, 1, 4);
        let mut agent = Agent::new(AppId(0), &ThemisConfig::default());
        let offer = cluster.free_vector();
        let table = agent.prepare_bid(Time::ZERO, &rt, &cluster, &offer);
        assert!(!table.is_empty());
        // Every candidate subset draws from the Volta machines first.
        for entry in &table.entries {
            for (machine, count) in entry.resources.iter() {
                if count > 0 {
                    assert_eq!(
                        cluster.spec().machine_speed(machine),
                        Some(2.0),
                        "subset {entry:?} uses a slow machine while fast ones are free"
                    );
                }
            }
        }
    }

    #[test]
    fn distribute_award_respects_job_limits() {
        let cluster = cluster();
        let rt = runtime(0, ModelArch::Vgg16, 2, 2);
        let agent = Agent::new(AppId(0), &ThemisConfig::default());
        let award = FreeVector::from_counts([(MachineId(0), 3), (MachineId(1), 2)]);
        let shares = agent.distribute_award(&rt, &cluster, &award);
        let total: usize = shares
            .values()
            .flat_map(|s| s.iter().map(|(_, c)| *c))
            .sum();
        assert!(total <= 4, "two jobs with max_par 2 can use at most 4 GPUs");
        for (job, share) in &shares {
            let count: usize = share.iter().map(|(_, c)| *c).sum();
            assert!(count <= rt.effective_max_parallelism(*job));
        }
    }
}
