//! Evaluation metrics.
//!
//! The paper's evaluation (§8.1, "Metrics") reports:
//!
//! * **Max fairness** — the worst finish-time fairness ρ across apps
//!   (lower is better; ideal equals the cluster contention level),
//! * **Jain's fairness index** over ρ values (closer to 1 is better),
//! * **Placement score** — how tightly packed each app's GPUs were,
//! * **GPU time** — total GPU-minutes consumed (lower = more efficient),
//! * **App completion times** and their distribution.
//!
//! [`SimReport`] gathers all of these from the engine's final state.

use crate::app_runtime::AppRuntime;
use crate::arena::AppArena;
use crate::scheduler::ControlPlaneStats;
use themis_cluster::ids::AppId;
use themis_cluster::time::Time;

/// Per-app outcome extracted at the end of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// The app.
    pub app: AppId,
    /// Arrival time.
    pub arrival: Time,
    /// Finish time, if the app completed before the simulation ended.
    pub finished_at: Option<Time>,
    /// Completion time (finish − arrival), if finished.
    pub completion_time: Option<Time>,
    /// Ideal (dedicated-cluster) running time T_ID.
    pub ideal_running_time: Time,
    /// Achieved finish-time fairness ρ = completion_time / T_ID.
    pub rho: Option<f64>,
    /// GPU-minutes of service the app received.
    pub attained_service: Time,
    /// Duration-weighted average placement score of the app's allocations.
    pub placement_score: f64,
    /// Whether the app trains a network-intensive model.
    pub network_intensive: bool,
    /// Timeline of the app's GPU count (time, GPUs held).
    pub gpu_timeline: Vec<(Time, usize)>,
}

impl AppOutcome {
    /// Extracts the outcome from an app's runtime state. Once an app has
    /// finished, every field here is frozen (the engine neither advances
    /// nor re-records a finished app), so service mode extracts outcomes at
    /// retirement time and gets exactly what an end-of-run extraction
    /// would.
    pub fn from_runtime(rt: &AppRuntime) -> Self {
        AppOutcome {
            app: rt.id(),
            arrival: rt.spec.arrival,
            finished_at: rt.finished_at,
            completion_time: rt.completion_time(),
            ideal_running_time: rt.spec.ideal_running_time(),
            rho: rt.achieved_rho(),
            attained_service: rt.attained_service,
            placement_score: rt.average_placement_score(),
            network_intensive: rt.spec.is_network_intensive(),
            gpu_timeline: rt.gpu_timeline.clone(),
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Name of the scheduling policy that produced this report.
    pub scheduler: String,
    /// Per-app outcomes, in app-id order.
    pub apps: Vec<AppOutcome>,
    /// Total GPU time consumed across all apps (GPU-minutes).
    pub total_gpu_time: Time,
    /// Simulated time at which the run ended.
    pub end_time: Time,
    /// Peak contention observed: aggregate GPU demand of active apps divided
    /// by cluster size (the paper reports 4.76× for its testbed workload).
    pub peak_contention: f64,
    /// Number of scheduling rounds (auctions) that were run.
    pub scheduling_rounds: u64,
    /// Control-plane round counters, present only for message-driven
    /// schedulers (the distributed Themis modes). See
    /// [`ControlPlaneStats`].
    pub control: Option<ControlPlaneStats>,
}

impl SimReport {
    /// Builds a report from the engine's final app states.
    pub fn from_apps(
        scheduler: &str,
        apps: &AppArena,
        end_time: Time,
        peak_contention: f64,
        scheduling_rounds: u64,
    ) -> Self {
        let outcomes: Vec<AppOutcome> = apps.iter().map(AppOutcome::from_runtime).collect();
        let total_gpu_time = outcomes
            .iter()
            .fold(Time::ZERO, |acc, o| acc + o.attained_service);
        SimReport {
            scheduler: scheduler.to_string(),
            apps: outcomes,
            total_gpu_time,
            end_time,
            peak_contention,
            scheduling_rounds,
            control: None,
        }
    }

    /// Attaches the scheduler's control-plane counters (the engine calls
    /// this when building the final report).
    #[must_use]
    pub fn with_control(mut self, control: Option<ControlPlaneStats>) -> Self {
        self.control = control;
        self
    }

    /// Splices retirement-time outcomes back into a report over the apps
    /// that were still live at the end of a service run, restoring global
    /// app-id order and re-deriving `total_gpu_time` with the same
    /// id-ordered fold [`from_apps`](SimReport::from_apps) uses — so a
    /// merged service report is byte-identical to the batch report over the
    /// same history.
    pub fn with_merged_outcomes(mut self, mut retired: Vec<AppOutcome>) -> Self {
        self.apps.append(&mut retired);
        self.apps.sort_by_key(|o| o.app);
        self.total_gpu_time = self
            .apps
            .iter()
            .fold(Time::ZERO, |acc, o| acc + o.attained_service);
        self
    }

    /// ρ values of all finished apps.
    pub fn rhos(&self) -> Vec<f64> {
        self.apps.iter().filter_map(|a| a.rho).collect()
    }

    /// The worst (maximum) finish-time fairness across finished apps — the
    /// paper's "Max Fairness" metric. `None` if no app finished.
    pub fn max_fairness(&self) -> Option<f64> {
        self.rhos().into_iter().fold(None, |acc, r| match acc {
            None => Some(r),
            Some(m) => Some(m.max(r)),
        })
    }

    /// Jain's fairness index over the finished apps' ρ values:
    /// `(Σρ)² / (n · Σρ²)`. Closer to 1 means lower variance.
    pub fn jains_index(&self) -> Option<f64> {
        let rhos = self.rhos();
        if rhos.is_empty() {
            return None;
        }
        let n = rhos.len() as f64;
        let sum: f64 = rhos.iter().sum();
        let sum_sq: f64 = rhos.iter().map(|r| r * r).sum();
        if sum_sq == 0.0 {
            return Some(1.0);
        }
        Some(sum * sum / (n * sum_sq))
    }

    /// Mean completion time over finished apps.
    pub fn mean_completion_time(&self) -> Option<Time> {
        let cts: Vec<Time> = self.apps.iter().filter_map(|a| a.completion_time).collect();
        if cts.is_empty() {
            return None;
        }
        let total = cts.iter().fold(Time::ZERO, |acc, t| acc + *t);
        Some(total / cts.len() as f64)
    }

    /// Empirical CDF of completion times: `(minutes, fraction of apps)`.
    pub fn completion_time_cdf(&self) -> Vec<(f64, f64)> {
        let mut cts: Vec<f64> = self
            .apps
            .iter()
            .filter_map(|a| a.completion_time.map(|t| t.as_minutes()))
            .collect();
        cts.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let n = cts.len();
        cts.into_iter()
            .enumerate()
            .map(|(i, t)| (t, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Empirical CDF of per-app placement scores (finished apps only).
    pub fn placement_score_cdf(&self) -> Vec<(f64, f64)> {
        let mut scores: Vec<f64> = self
            .apps
            .iter()
            .filter(|a| a.finished_at.is_some())
            .map(|a| a.placement_score)
            .collect();
        scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let n = scores.len();
        scores
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Mean per-app placement score over finished apps.
    pub fn mean_placement_score(&self) -> Option<f64> {
        let scores: Vec<f64> = self
            .apps
            .iter()
            .filter(|a| a.finished_at.is_some())
            .map(|a| a.placement_score)
            .collect();
        if scores.is_empty() {
            None
        } else {
            Some(scores.iter().sum::<f64>() / scores.len() as f64)
        }
    }

    /// Number of apps that finished within the simulation horizon.
    pub fn finished_apps(&self) -> usize {
        self.apps.iter().filter(|a| a.finished_at.is_some()).count()
    }

    /// Number of apps that did not finish (e.g. the simulation hit its time
    /// cap first).
    pub fn unfinished_apps(&self) -> usize {
        self.apps.len() - self.finished_apps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        app: u32,
        rho: Option<f64>,
        ct: Option<f64>,
        score: f64,
        service: f64,
    ) -> AppOutcome {
        AppOutcome {
            app: AppId(app),
            arrival: Time::ZERO,
            finished_at: ct.map(Time::minutes),
            completion_time: ct.map(Time::minutes),
            ideal_running_time: Time::minutes(10.0),
            rho,
            attained_service: Time::minutes(service),
            placement_score: score,
            network_intensive: false,
            gpu_timeline: Vec::new(),
        }
    }

    fn report(outcomes: Vec<AppOutcome>) -> SimReport {
        let total = outcomes
            .iter()
            .fold(Time::ZERO, |acc, o| acc + o.attained_service);
        SimReport {
            scheduler: "test".into(),
            apps: outcomes,
            total_gpu_time: total,
            end_time: Time::minutes(100.0),
            peak_contention: 2.0,
            scheduling_rounds: 5,
            control: None,
        }
    }

    #[test]
    fn max_fairness_and_jain() {
        let r = report(vec![
            outcome(0, Some(2.0), Some(20.0), 1.0, 40.0),
            outcome(1, Some(4.0), Some(40.0), 0.8, 60.0),
            outcome(2, None, None, 1.0, 0.0),
        ]);
        assert_eq!(r.max_fairness(), Some(4.0));
        // Jain over {2, 4}: (6)^2 / (2 * 20) = 36/40 = 0.9
        assert!((r.jains_index().unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(r.finished_apps(), 2);
        assert_eq!(r.unfinished_apps(), 1);
    }

    #[test]
    fn jain_is_one_for_equal_rhos() {
        let r = report(vec![
            outcome(0, Some(3.0), Some(30.0), 1.0, 10.0),
            outcome(1, Some(3.0), Some(30.0), 1.0, 10.0),
        ]);
        assert!((r.jains_index().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_no_metrics() {
        let r = report(vec![outcome(0, None, None, 1.0, 0.0)]);
        assert_eq!(r.max_fairness(), None);
        assert_eq!(r.jains_index(), None);
        assert_eq!(r.mean_completion_time(), None);
        assert!(r.completion_time_cdf().is_empty());
    }

    #[test]
    fn cdfs_are_sorted_and_end_at_one() {
        let r = report(vec![
            outcome(0, Some(1.0), Some(30.0), 0.9, 10.0),
            outcome(1, Some(2.0), Some(10.0), 0.6, 10.0),
            outcome(2, Some(3.0), Some(20.0), 1.0, 10.0),
        ]);
        let cdf = r.completion_time_cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0].0, 10.0);
        assert!((cdf[2].1 - 1.0).abs() < 1e-12);
        let pcdf = r.placement_score_cdf();
        assert_eq!(pcdf[0].0, 0.6);
        assert!((pcdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!((r.mean_placement_score().unwrap() - (0.9 + 0.6 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_completion_and_gpu_time() {
        let r = report(vec![
            outcome(0, Some(1.0), Some(30.0), 1.0, 100.0),
            outcome(1, Some(2.0), Some(10.0), 1.0, 50.0),
        ]);
        assert_eq!(r.mean_completion_time(), Some(Time::minutes(20.0)));
        assert_eq!(r.total_gpu_time, Time::minutes(150.0));
    }
}
