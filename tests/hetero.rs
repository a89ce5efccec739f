//! The heterogeneity contract, pinned as tests:
//!
//! * **speed-1.0 purity** — a spec pushed through the generation machinery
//!   with every machine at the reference speed produces `SimReport`s
//!   *identical* to the untouched homogeneous spec, for every policy,
//!   across randomized smoke-matrix scenarios (the whole speed-aware
//!   scheduling path must be observationally pure at uniform speed),
//! * **faster-GPU preference is conservative** — on a mixed-generation
//!   cluster every policy's preference for fast silicon still hands out
//!   only free GPUs, never one twice, and lands on the fastest machines
//!   when locality ties,
//! * the `hetero` matrix matches the committed
//!   `BENCH_HETERO_BASELINE.json` byte for byte — the same gate the
//!   `scenario-matrix` CI job enforces, with the uniform column doubling
//!   as a standing purity witness.

use proptest::prelude::*;
use std::collections::BTreeSet;
use themis_bench::policies::Policy;
use themis_bench::report::check_baseline;
use themis_bench::scenarios::{ClusterKind, GenMix, Matrix, Scenario};
use themis_bench::sweep::run_sweep;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::GpuId;
use themis_cluster::time::Time;
use themis_cluster::topology::GpuGeneration;
use themis_sim::arena::AppArena;
use themis_sim::engine::Engine;
use themis_sim::scheduler::{AllocationDecision, Scheduler};

/// The purity pool: every smoke-matrix scenario × every policy (the smoke
/// matrix covers contention, fairness-knob and burstiness axes).
fn purity_cells() -> Vec<(Scenario, Policy)> {
    Matrix::smoke().cells()
}

/// Runs one cell on an explicit cluster spec.
fn run_on_spec(
    scenario: &Scenario,
    policy: Policy,
    spec: themis_cluster::topology::ClusterSpec,
) -> themis_sim::metrics::SimReport {
    let config = scenario.sim_config();
    Engine::new(
        Cluster::new(spec),
        scenario.trace(),
        scenario.instantiate(policy).build_with(&config),
        config,
    )
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A speed-1.0-everywhere *heterogeneous* spec — the homogeneous
    /// topology explicitly rebuilt through `with_generation_cycle` at the
    /// reference generation — must be indistinguishable from the
    /// homogeneous spec: identical `SimReport`s, cell by cell.
    #[test]
    fn unit_speed_hetero_spec_reproduces_homogeneous_reports(index in 0usize..5000) {
        let cells = purity_cells();
        let (scenario, policy) = cells[index % cells.len()].clone();
        let homogeneous = scenario.cluster.spec();
        let unit_hetero = scenario
            .cluster
            .spec()
            .with_generation_cycle(&[GpuGeneration::Pascal]);
        prop_assert_eq!(&unit_hetero, &homogeneous, "the specs themselves must be equal");
        let a = run_on_spec(&scenario, policy, homogeneous);
        let b = run_on_spec(&scenario, policy, unit_hetero);
        prop_assert_eq!(
            a,
            b,
            "unit-speed heterogeneity changed {} on {}",
            policy.name(),
            scenario.id()
        );
    }
}

/// Faster-GPU preference never violates GPU conservation: on a
/// mixed-generation cluster, one scheduling round per policy hands out
/// only existing, free GPUs, never the same GPU twice — and when every
/// machine ties on locality, the fast machines are the ones granted.
#[test]
fn faster_gpu_preference_conserves_gpus() {
    // Volta/Pascal alternating per machine (the 2:1 mix).
    let scenario = Scenario::new(ClusterKind::Rack16, 4, 17)
        .with_contention(2.0)
        .with_gen_mix(GenMix::TwoGen);
    let spec = scenario.cluster_spec();
    for policy in [
        Policy::themis_default(),
        Policy::themis_dist_default(),
        Policy::Gandiva,
        Policy::Slaq,
        Policy::Tiresias,
        Policy::Drf,
    ] {
        let config = scenario.sim_config();
        let cluster = Cluster::new(spec.clone());
        let apps: AppArena = scenario
            .trace()
            .into_iter()
            .map(themis_sim::app_runtime::AppRuntime::with_default_hpo)
            .collect();
        let mut scheduler = scenario.instantiate(policy).build_with(&config);
        // Schedule at a time every app has arrived at.
        let decisions: Vec<AllocationDecision> =
            scheduler.schedule(Time::minutes(10_000.0), &cluster, &apps);
        assert!(!decisions.is_empty(), "{} granted nothing", policy.name());
        let mut granted: BTreeSet<GpuId> = BTreeSet::new();
        for decision in &decisions {
            for gpu in &decision.gpus {
                assert!(
                    cluster.is_free(*gpu),
                    "{} granted non-free {gpu:?}",
                    policy.name()
                );
                assert!(
                    granted.insert(*gpu),
                    "{} granted {gpu:?} twice",
                    policy.name()
                );
            }
        }
        assert!(granted.len() <= cluster.total_gpus());
        // With demand below capacity impossible here (contention 2x), the
        // whole cluster is handed out; otherwise the *fast* half must be
        // fully used before any slow GPU is left idle by a speed-aware
        // policy. Both cases reduce to: every Volta GPU is granted.
        let volta: BTreeSet<GpuId> = spec
            .all_gpus()
            .filter(|g| spec.speed_of(*g) == Some(2.0))
            .collect();
        assert!(
            volta.is_subset(&granted),
            "{} left fast GPUs idle while granting slow ones: granted {granted:?}",
            policy.name()
        );
    }
}

/// The `hetero` matrix is gated exactly against its committed baseline,
/// mirroring the smoke and faults gates. The uniform column is a standing
/// speed-1.0-purity witness: those cells' metrics can only change when the
/// *scheduling* behavior changes, never when the heterogeneity model does.
#[test]
fn hetero_sweep_matches_committed_baseline() {
    let matrix = Matrix::hetero();
    let report = run_sweep(&matrix, 2);
    let baseline = check_baseline(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_HETERO_BASELINE.json"
        ),
        Some(&report),
        1e-9,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        report.to_canonical_string(),
        baseline.to_canonical_string(),
        "hetero sweep canonical JSON is not byte-identical to BENCH_HETERO_BASELINE.json"
    );
    // Mixed-generation cells genuinely differ from their uniform siblings —
    // the axis is open, not decorative: with more aggregate speed the same
    // trace finishes sooner.
    for policy in ["themis", "tiresias"] {
        let cell = |mix: &str| {
            report
                .cells
                .iter()
                .find(|c| {
                    c.policy == policy
                        && c.scenario.gen_mix.name() == mix
                        && c.scenario.contention == 2.0
                })
                .unwrap_or_else(|| panic!("{policy}/{mix} cell exists"))
        };
        let uni = cell("uni");
        let two = cell("2gen");
        assert!(
            two.metrics.avg_jct_minutes.unwrap() < uni.metrics.avg_jct_minutes.unwrap(),
            "{policy}: a 1.5x-faster fleet must lower mean JCT"
        );
    }
}
