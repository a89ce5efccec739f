//! Bid tables.
//!
//! In response to a resource offer, each Agent prepares a single bid: a
//! valuation function `V` that maps every resource subset it is interested
//! in to the new finish-time-fairness metric ρ the app would achieve with
//! that subset (§3.1, Figure 3b; §5.1 "Inputs"). Because the resource
//! subsets are discrete, `V` is represented as a table with one row per
//! candidate subset; one row always covers the empty allocation with the
//! app's *current* ρ.

use themis_cluster::alloc::FreeVector;
use themis_cluster::ids::AppId;

/// One row of a bid table: a candidate resource subset and the ρ the app
/// estimates it would achieve if granted that subset (in addition to the
/// GPUs it already holds) until completion.
#[derive(Debug, Clone, PartialEq)]
pub struct BidEntry {
    /// The requested subset of the offer, as per-machine GPU counts.
    pub resources: FreeVector,
    /// Estimated finish-time fairness ρ with this subset added.
    pub rho: f64,
}

impl BidEntry {
    /// The bid's *value* to the partial-allocation auction. ρ is a
    /// lower-is-better metric, so the auction maximizes `1/ρ` (see
    /// `PAPER.md`, "Partial-allocation auction with hidden payments"). An
    /// unbounded ρ (an app with no allocation and no prospects) has value 0.
    pub fn value(&self) -> f64 {
        if self.rho.is_finite() && self.rho > 0.0 {
            1.0 / self.rho
        } else {
            0.0
        }
    }
}

/// A complete bid from one app: its current ρ plus a valuation table over
/// candidate subsets of the offered resources.
#[derive(Debug, Clone, PartialEq)]
pub struct BidTable {
    /// The app submitting the bid.
    pub app: AppId,
    /// The app's finish-time fairness with *no* additional allocation
    /// (the table row with an all-zeros subset).
    pub current_rho: f64,
    /// Candidate subsets and their estimated ρ values.
    pub entries: Vec<BidEntry>,
}

impl BidTable {
    /// Creates a bid table with no candidate entries.
    pub fn empty(app: AppId, current_rho: f64) -> Self {
        BidTable {
            app,
            current_rho,
            entries: Vec::new(),
        }
    }

    /// Adds a candidate entry.
    pub fn push(&mut self, resources: FreeVector, rho: f64) {
        self.entries.push(BidEntry { resources, rho });
    }

    /// Number of candidate entries (excluding the implicit empty row).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no candidate entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of receiving nothing (the implicit empty row).
    pub fn baseline_value(&self) -> f64 {
        BidEntry {
            resources: FreeVector::empty(),
            rho: self.current_rho,
        }
        .value()
    }

    /// The best (lowest-ρ) entry, if any.
    pub fn best_entry(&self) -> Option<&BidEntry> {
        self.entries
            .iter()
            .min_by(|a, b| a.rho.partial_cmp(&b.rho).expect("rho is never NaN"))
    }

    /// The entry exactly matching a resource subset, if present.
    pub fn entry_for(&self, resources: &FreeVector) -> Option<&BidEntry> {
        self.entries.iter().find(|e| &e.resources == resources)
    }

    /// Applies a multiplicative error to every ρ in the table (used by the
    /// paper's §8.4.3 sensitivity experiment on bid-valuation error).
    pub fn with_rho_error(mut self, relative_error: f64) -> Self {
        let factor = 1.0 + relative_error;
        self.current_rho *= factor;
        for e in &mut self.entries {
            e.rho *= factor;
        }
        self
    }

    /// Checks the paper's homogeneity assumption on one pair of entries:
    /// scaling an allocation by `k` should scale its value by `k` (i.e.
    /// divide ρ by `k`). Returns the relative deviation.
    pub fn homogeneity_deviation(small: &BidEntry, large: &BidEntry, k: f64) -> f64 {
        let expected = small.rho / k;
        if expected == 0.0 {
            return 0.0;
        }
        ((large.rho - expected) / expected).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::MachineId;

    fn fv(pairs: &[(u32, usize)]) -> FreeVector {
        FreeVector::from_counts(pairs.iter().map(|(m, c)| (MachineId(*m), *c)))
    }

    #[test]
    fn value_is_inverse_rho() {
        let e = BidEntry {
            resources: fv(&[(0, 2)]),
            rho: 4.0,
        };
        assert!((e.value() - 0.25).abs() < 1e-12);
        let unbounded = BidEntry {
            resources: FreeVector::empty(),
            rho: f64::INFINITY,
        };
        assert_eq!(unbounded.value(), 0.0);
    }

    #[test]
    fn best_entry_has_lowest_rho() {
        let mut table = BidTable::empty(AppId(1), 8.0);
        table.push(fv(&[(0, 1)]), 6.0);
        table.push(fv(&[(0, 2)]), 3.0);
        table.push(fv(&[(1, 2)]), 5.0);
        assert_eq!(table.len(), 3);
        assert_eq!(table.best_entry().unwrap().rho, 3.0);
        assert!(table.baseline_value() < table.best_entry().unwrap().value());
    }

    #[test]
    fn entry_lookup_by_resources() {
        let mut table = BidTable::empty(AppId(1), 8.0);
        table.push(fv(&[(0, 1)]), 6.0);
        assert!(table.entry_for(&fv(&[(0, 1)])).is_some());
        assert!(table.entry_for(&fv(&[(0, 2)])).is_none());
    }

    #[test]
    fn rho_error_scales_all_entries() {
        let mut table = BidTable::empty(AppId(1), 4.0);
        table.push(fv(&[(0, 1)]), 2.0);
        let noisy = table.clone().with_rho_error(0.1);
        assert!((noisy.current_rho - 4.4).abs() < 1e-12);
        assert!((noisy.entries[0].rho - 2.2).abs() < 1e-12);
        // Zero error is the identity.
        assert_eq!(table.clone().with_rho_error(0.0), table);
    }

    #[test]
    fn homogeneity_check() {
        // Doubling the allocation should halve rho.
        let small = BidEntry {
            resources: fv(&[(0, 1)]),
            rho: 6.0,
        };
        let large = BidEntry {
            resources: fv(&[(0, 2)]),
            rho: 3.0,
        };
        assert!(BidTable::homogeneity_deviation(&small, &large, 2.0) < 1e-12);
        let bad = BidEntry {
            resources: fv(&[(0, 2)]),
            rho: 5.0,
        };
        assert!(BidTable::homogeneity_deviation(&small, &bad, 2.0) > 0.5);
    }
}
