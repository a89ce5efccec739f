//! The per-app Agent.
//!
//! An Agent is co-located with each app's hyper-parameter tuning framework
//! (§3.1). It answers the Arbiter's ρ probes and, when the app is invited
//! into an auction, prepares a single bid: a valuation table mapping
//! candidate subsets of the offered GPUs to the new ρ the app would achieve
//! with them (§5.2).
//!
//! Probe and bid are one computation at different supplies: what the app
//! holds, and what it holds plus the first `k` GPUs of the offer in the
//! app's packing order. Both go through `RhoKernel` over an `AppContext`
//! that borrows what one probe read.

use crate::config::ThemisConfig;
use crate::rho::{RhoEstimate, RhoKernel, Supply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use themis_cluster::alloc::FreeVector;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, MachineId};
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_hpo::api::JobEstimate;
use themis_protocol::bid::BidTable;
use themis_sim::app_runtime::AppRuntime;

/// Maximum number of candidate subsets an Agent enumerates per bid table.
/// Bounds the §8.3.2 bid-preparation cost.
pub const MAX_BID_ENTRIES: usize = 16;

/// What an app's probe and its bid both read: the HPO framework's per-job
/// estimates, the time since arrival and the app's holdings per machine
/// (ascending machine id), borrowed from whoever read them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AppContext<'a> {
    pub(crate) estimates: &'a [JobEstimate],
    pub(crate) elapsed: Time,
    pub(crate) holdings: &'a [(MachineId, usize)],
}

impl AppContext<'_> {
    /// The app's current ρ: the kernel at the supply the app holds.
    pub(crate) fn current_rho(&self, spec: &ClusterSpec, scratch: &mut BidScratch) -> RhoEstimate {
        scratch.fill_supply(self.holdings, spec);
        scratch
            .kernel
            .begin(self.estimates, self.elapsed)
            .rho_of(&scratch.supply)
    }
}

/// Every probe of one scheduling call, read into two flat buffers — the
/// apps' estimates back to back, and their holdings — that the returned
/// contexts borrow. Kept by the scheduler, so a warm call reads its apps
/// without allocating.
#[derive(Debug, Default)]
pub(crate) struct Probes {
    estimates: Vec<JobEstimate>,
    holdings: Vec<(MachineId, usize)>,
    /// Per probed app, in probe order: its estimates and holdings as
    /// `[start, end)` of the two buffers, and its time since arrival.
    apps: Vec<(usize, usize, usize, usize, Time)>,
}

impl Probes {
    /// Forgets every probe; keeps the buffers.
    pub(crate) fn clear(&mut self) {
        self.estimates.clear();
        self.holdings.clear();
        self.apps.clear();
    }

    /// Reads one app, the next probe in number, and returns what it read.
    pub(crate) fn push(
        &mut self,
        now: Time,
        runtime: &AppRuntime,
        cluster: &Cluster,
    ) -> AppContext<'_> {
        let (estimates, holdings) = (self.estimates.len(), self.holdings.len());
        runtime.estimates_into(&mut self.estimates);
        self.holdings
            .extend(cluster.machine_counts_of_app(runtime.id()));
        self.apps.push((
            estimates,
            self.estimates.len(),
            holdings,
            self.holdings.len(),
            (now - runtime.spec.arrival).clamp_non_negative(),
        ));
        self.context(self.apps.len() - 1)
    }

    /// What probe number `idx` read.
    pub(crate) fn context(&self, idx: usize) -> AppContext<'_> {
        let (estimates, estimates_end, holdings, holdings_end, elapsed) = self.apps[idx];
        AppContext {
            estimates: &self.estimates[estimates..estimates_end],
            elapsed,
            holdings: &self.holdings[holdings..holdings_end],
        }
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
    /// The candidate subset of the row being valued.
    subset: FreeVector,
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

/// The buffers of one Agent call at a time, for a caller that answers ρ
/// probes and offers message by message, as the actor runtime does. Each
/// call reads its app into the buffers' `Probes`, forgetting the last one,
/// and values it through `BidScratch` — the probe and bid path of the
/// in-process scheduler — so a warm call allocates for the table it
/// returns, not for the jobs it reads.
#[derive(Debug, Default)]
pub struct AgentBuffers {
    probes: Probes,
    scratch: BidScratch,
}

impl AgentBuffers {
    /// Reads `runtime`'s app alone into the probes; the scratch values it.
    pub(crate) fn probe(
        &mut self,
        now: Time,
        runtime: &AppRuntime,
        cluster: &Cluster,
    ) -> (AppContext<'_>, &mut BidScratch) {
        self.probes.clear();
        (self.probes.push(now, runtime, cluster), &mut self.scratch)
    }

    /// [`Agent::current_rho`] through these buffers.
    pub fn current_rho(
        &mut self,
        now: Time,
        runtime: &AppRuntime,
        cluster: &Cluster,
    ) -> RhoEstimate {
        let (context, scratch) = self.probe(now, runtime, cluster);
        context.current_rho(cluster.spec(), scratch)
    }

    /// [`Agent::prepare_bid`] of `agent` through these buffers.
    pub fn prepare_bid(
        &mut self,
        agent: &mut Agent,
        now: Time,
        runtime: &AppRuntime,
        cluster: &Cluster,
        offer: &FreeVector,
    ) -> BidTable {
        let (context, scratch) = self.probe(now, runtime, cluster);
        let spec = cluster.spec();
        let current_rho = context.current_rho(spec, scratch).rho;
        let mut table = BidTable::empty(agent.app, current_rho);
        agent.bid(context, current_rho, spec, offer, scratch, &mut table);
        table
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
    rho_error_theta: f64,
    rng: SmallRng,
}

impl Agent {
    /// Creates an Agent for an app using the scheduler-wide configuration.
    pub fn new(app: AppId, config: &ThemisConfig) -> Self {
        Agent {
            app,
            rho_error_theta: config.rho_error_theta,
            rng: SmallRng::seed_from_u64(config.seed ^ (u64::from(app.0) << 17)),
        }
    }

    /// Estimates the app's *current* ρ (with the GPUs it already holds),
    /// answering the Arbiter's step-1 probe. The one-shot form of
    /// [`AgentBuffers::current_rho`]: the same path, on fresh buffers.
    pub fn current_rho(&self, now: Time, runtime: &AppRuntime, cluster: &Cluster) -> RhoEstimate {
        AgentBuffers::default().current_rho(now, runtime, cluster)
    }

    /// Prepares the bid table in response to an offer (§5.2). The one-shot
    /// form of [`AgentBuffers::prepare_bid`]: the same path, on fresh
    /// buffers.
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
        AgentBuffers::default().prepare_bid(self, now, runtime, cluster, offer)
    }

    /// [`Agent::prepare_bid`] for a caller that has probed the app already
    /// and holds its context and current ρ: refills `table`, a table from
    /// the caller's pool, in place — its rows' subsets are overwritten,
    /// not reallocated.
    pub(crate) fn bid(
        &mut self,
        context: AppContext<'_>,
        current_rho: f64,
        spec: &ClusterSpec,
        offer: &FreeVector,
        scratch: &mut BidScratch,
        table: &mut BidTable,
    ) {
        let AppContext {
            estimates,
            elapsed,
            holdings,
        } = context;
        table.app = self.app;
        table.current_rho = current_rho;
        let demand: usize = estimates.iter().map(|e| e.max_parallelism).sum();
        let held: usize = holdings.iter().map(|(_, count)| count).sum();
        let unmet = demand.saturating_sub(held);
        let rows = unmet.min(offer.total()).min(MAX_BID_ENTRIES);
        table.entries.truncate(rows);
        table.entries.reserve_exact(rows - table.entries.len());
        if rows > 0 {
            packing_prefix(&mut scratch.packing, offer, holdings, rows, spec);
            scratch.fill_supply(holdings, spec);
            scratch.subset.clear();
            let mut eval = scratch.kernel.begin(estimates, elapsed);
            // Row k is row k − 1 plus one GPU from the machine at the
            // cursor: aggregate = existing + candidate subset.
            let mut row = 0;
            for packed in &scratch.packing {
                let wanted = rows - row;
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
                    scratch.subset.set(packed.machine, taken);
                    let rho = eval.rho_of(&scratch.supply).rho;
                    match table.entries.get_mut(row) {
                        Some(entry) => {
                            entry.resources.clone_from(&scratch.subset);
                            entry.rho = rho;
                        }
                        None => table.push(scratch.subset.clone(), rho),
                    }
                    row += 1;
                }
            }
            table.entries.truncate(row);
        }

        // One draw per bid, after the rows, whether or not there are any.
        if self.rho_error_theta > 0.0 {
            let error = self
                .rng
                .gen_range(-self.rho_error_theta..=self.rho_error_theta);
            table.apply_rho_error(error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::{GpuId, JobId};
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
        let offer = cluster.free_vector();
        // Unmet demand (16 jobs × 4) and the offer (64 GPUs) both exceed
        // the cap, so the cap alone sets the table size.
        assert!(rt.unmet_demand(&cluster) > MAX_BID_ENTRIES);
        assert!(offer.total() > MAX_BID_ENTRIES);
        let mut agent = Agent::new(AppId(0), &ThemisConfig::default());
        let table = agent.prepare_bid(Time::ZERO, &rt, &cluster, &offer);
        assert_eq!(table.len(), MAX_BID_ENTRIES);
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
}
