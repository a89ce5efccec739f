//! Themis configuration.

use serde::{Deserialize, Serialize};
use themis_cluster::time::Time;

/// Tunables of the Themis scheduler studied in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThemisConfig {
    /// The fairness knob `f ∈ [0, 1]` (§3.1 step 2, §8.2): available
    /// resources are offered to the `1 − f` fraction of apps with the worst
    /// finish-time fairness. Higher `f` gives stronger fairness guarantees;
    /// lower `f` gives the Arbiter more placement choices. The paper
    /// recommends `f = 0.8`.
    pub fairness_knob: f64,
    /// Maximum number of candidate subsets an Agent enumerates per bid
    /// table. Bounds the §8.3.2 bid-preparation cost.
    pub max_bid_entries: usize,
    /// Relative error injected into every reported ρ, drawn uniformly from
    /// `[-θ, +θ]` per app per auction (the paper's §8.4.3 robustness
    /// experiment). Zero disables injection.
    pub rho_error_theta: f64,
    /// Seed for the scheduler's internal randomness (leftover-allocation
    /// tie-breaking and error injection).
    pub seed: u64,
    /// Lease duration assumed when estimating how long a candidate
    /// allocation will be held. Informational only — the engine enforces
    /// the actual lease; this mirrors the paper's 20-minute default.
    pub lease_duration: Time,
}

impl Default for ThemisConfig {
    fn default() -> Self {
        ThemisConfig {
            fairness_knob: 0.8,
            max_bid_entries: 16,
            rho_error_theta: 0.0,
            seed: 0,
            lease_duration: Time::minutes(20.0),
        }
    }
}

impl ThemisConfig {
    /// Sets the fairness knob `f`.
    ///
    /// # Panics
    /// Panics if `f` is outside `[0, 1]`.
    pub fn with_fairness_knob(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fairness knob must be in [0, 1]");
        self.fairness_knob = f;
        self
    }

    /// Sets the ρ-error injection range θ.
    ///
    /// # Panics
    /// Panics if θ is outside `[0, 1)`: a reported ρ is the estimate times
    /// `1 + error`, which must stay positive over the whole range.
    pub fn with_rho_error(mut self, theta: f64) -> Self {
        assert!((0.0..1.0).contains(&theta), "error range must be in [0, 1)");
        self.rho_error_theta = theta;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum number of bid-table entries.
    pub fn with_max_bid_entries(mut self, entries: usize) -> Self {
        assert!(entries > 0, "at least one bid entry is required");
        self.max_bid_entries = entries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendations() {
        let c = ThemisConfig::default();
        assert_eq!(c.fairness_knob, 0.8);
        assert_eq!(c.lease_duration, Time::minutes(20.0));
        assert_eq!(c.rho_error_theta, 0.0);
    }

    #[test]
    fn builder_methods() {
        let c = ThemisConfig::default()
            .with_fairness_knob(0.5)
            .with_rho_error(0.2)
            .with_seed(9)
            .with_max_bid_entries(8);
        assert_eq!(c.fairness_knob, 0.5);
        assert_eq!(c.rho_error_theta, 0.2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_bid_entries, 8);
    }

    #[test]
    #[should_panic(expected = "fairness knob")]
    fn invalid_knob_rejected() {
        let _ = ThemisConfig::default().with_fairness_knob(1.5);
    }

    #[test]
    #[should_panic(expected = "error range")]
    fn rho_error_of_one_or_more_rejected() {
        let _ = ThemisConfig::default().with_rho_error(1.0);
    }
}
