//! End-to-end reproduction checks: the *shape* of the paper's headline
//! results must hold on the simulator (who wins, by roughly what factor),
//! even though absolute numbers differ from the authors' testbed.

use themis_bench::experiments::{cells, fig2, run_experiment, Scale, Table};
use themis_bench::policies::Policy;

/// One simulated figure's table.
fn figure(id: &str, scale: Scale) -> Table {
    run_experiment(id, scale).expect("known experiment")
}

/// A moderate scale that keeps each test to a few seconds while leaving
/// enough contention for the comparisons to be meaningful.
fn scale() -> Scale {
    Scale {
        sim_apps: 8,
        testbed_apps: 8,
        seed: 42,
    }
}

#[test]
fn themis_wins_on_max_fairness() {
    // Figure 5a's headline: Themis has the lowest worst-case finish-time
    // fairness of all schedulers.
    let table = figure("fig5a", scale());
    let mut by_name = std::collections::BTreeMap::new();
    for (i, row) in table.rows.iter().enumerate() {
        by_name.insert(row[0].clone(), table.cell_f64(i, "max_rho").unwrap());
    }
    let themis = by_name["themis"];
    for (name, value) in &by_name {
        if name != "themis" {
            assert!(
                themis <= *value * 1.2,
                "themis ({themis:.2}) must not be materially worse than {name} ({value:.2})"
            );
        }
    }
    // And it should be a clear improvement over at least one baseline.
    let worst_baseline = by_name
        .iter()
        .filter(|(n, _)| n.as_str() != "themis")
        .map(|(_, v)| *v)
        .fold(f64::MIN, f64::max);
    assert!(
        worst_baseline / themis > 1.2,
        "themis ({themis:.2}) should clearly beat the worst baseline ({worst_baseline:.2})"
    );
}

#[test]
fn themis_jains_index_is_competitive() {
    // Figure 5b: Themis has the best (or tied-best) Jain's index; Tiresias
    // comes closest.
    let table = figure("fig5b", scale());
    let mut by_name = std::collections::BTreeMap::new();
    for (i, row) in table.rows.iter().enumerate() {
        by_name.insert(row[0].clone(), table.cell_f64(i, "jains_index").unwrap());
    }
    let themis = by_name["themis"];
    assert!(themis > 0.5, "themis Jain's index {themis}");
    for (name, value) in &by_name {
        assert!(
            themis >= value - 0.15,
            "themis ({themis:.3}) must be competitive with {name} ({value:.3})"
        );
    }
}

#[test]
fn placement_sensitivity_figure2_shape() {
    // VGG16 collapses when spread across machines; ResNet50 does not.
    let table = fig2();
    let vgg = table.cell_f64(0, "slowdown").unwrap();
    let resnet = table.cell_f64(4, "slowdown").unwrap();
    assert!(vgg > 1.5 && resnet < 1.1, "vgg {vgg}, resnet {resnet}");
}

#[test]
fn network_intensive_apps_grow_the_gap_over_tiresias() {
    // Figure 9a: the improvement factor of Themis over Tiresias grows as
    // the workload becomes more network intensive.
    let table = figure(
        "fig9a",
        Scale {
            sim_apps: 6,
            testbed_apps: 6,
            seed: 7,
        },
    );
    let first = table.cell_f64(0, "improvement_factor").unwrap();
    let last = table
        .cell_f64(table.rows.len() - 1, "improvement_factor")
        .unwrap();
    assert!(
        last >= first * 0.9,
        "improvement at 100% network-intensive ({last:.2}) should not collapse vs 0% ({first:.2})"
    );
    assert!(
        last >= 0.95,
        "themis must roughly match or beat tiresias when all apps are network-intensive (got {last:.2})"
    );
}

#[test]
fn contention_hurts_tiresias_fairness_more() {
    // Figure 10: Jain's index degrades faster for Tiresias than Themis as
    // contention increases.
    let table = figure(
        "fig10",
        Scale {
            sim_apps: 6,
            testbed_apps: 6,
            seed: 13,
        },
    );
    let themis_high = table.cell_f64(table.rows.len() - 1, "themis_jain").unwrap();
    let tiresias_high = table
        .cell_f64(table.rows.len() - 1, "tiresias_jain")
        .unwrap();
    assert!(
        themis_high >= tiresias_high - 0.1,
        "at 4x contention themis ({themis_high:.3}) should hold up at least as well as tiresias ({tiresias_high:.3})"
    );
}

#[test]
fn rho_errors_do_not_blow_up_fairness() {
    // Figure 11: even 20% error in bid valuations leaves max fairness in
    // the same ballpark as the error-free run.
    let table = figure(
        "fig11",
        Scale {
            sim_apps: 6,
            testbed_apps: 6,
            seed: 21,
        },
    );
    let clean = table.cell_f64(0, "max_rho").unwrap();
    let noisy = table.cell_f64(table.rows.len() - 1, "max_rho").unwrap();
    assert!(
        noisy <= clean * 1.75,
        "20% valuation error ({noisy:.2}) must not massively degrade fairness vs clean ({clean:.2})"
    );
}

#[test]
fn macrobenchmark_reports_are_complete() {
    // The macro-benchmark cells: the testbed under each of the four
    // policies Figures 5–7 compare.
    for (scenario, policy) in cells(&["fig5a"], Scale::tiny()) {
        let report = scenario.run(policy);
        assert_eq!(
            report.unfinished_apps(),
            0,
            "{}: all apps must finish at tiny scale",
            policy.name()
        );
        assert!(report.scheduling_rounds > 0);
        assert_eq!(report.scheduler, policy.name());
    }
}

#[test]
fn every_policy_name_is_unique() {
    let names: std::collections::BTreeSet<&str> = [
        Policy::themis_default(),
        Policy::Gandiva,
        Policy::Tiresias,
        Policy::Slaq,
        Policy::Drf,
    ]
    .iter()
    .map(|p| p.name())
    .collect();
    assert_eq!(names.len(), 5);
}
