//! The partial allocation (PA) auction mechanism.
//!
//! Given one bid table per far-from-fair app, the Arbiter picks winning,
//! mutually disjoint resource subsets (§5.1, Pseudocode 2):
//!
//! 1. **Proportional-fair allocation** — choose at most one bid entry per
//!    app, subject to per-machine capacity, maximizing the Nash product of
//!    the apps' valuations (equivalently the sum of log-values). The result
//!    is Pareto-efficient.
//! 2. **Hidden payments** — to make truthful reporting of valuations the
//!    dominant strategy, app *i* only receives a fraction
//!    `c_i = Π_{j≠i} V_j(pf) / Π_{j≠i} V_j(pf without i)` of its
//!    proportional-fair allocation; the rest is withheld.
//! 3. **Leftovers** — withheld GPUs (at most a `1/e` fraction in the worst
//!    case) are handed out work-conservingly outside the auction.
//!
//! Valuations are `V = 1/ρ` (see `PAPER.md`, "Partial-allocation auction
//! with hidden payments"): maximizing the product of
//! `1/ρ` is exactly minimizing the product of the bidders' finish-time
//! fairness metrics.

use std::collections::BTreeMap;
use themis_cluster::alloc::FreeVector;
use themis_cluster::ids::AppId;
use themis_protocol::bid::BidTable;

/// Floor applied to valuations so that an app with an unbounded ρ (value 0)
/// does not collapse the Nash product to zero. Chosen far below any
/// realistic `1/ρ`.
const VALUE_FLOOR: f64 = 1e-12;

/// Which solver computed the proportional-fair assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Unpruned exhaustive search over every per-app entry choice
    /// (optimal; there is no bound, so the cost is the full `Π (entries+1)`).
    Exact,
    /// Greedy assignment plus local-search improvement (used when the
    /// search space is too large for the exact solver).
    Greedy,
}

/// The winning allocation for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct Award {
    /// The app.
    pub app: AppId,
    /// The proportional-fair subset the app won before hidden payments.
    pub proportional_fair: FreeVector,
    /// The hidden-payment factor `c_i ∈ (0, 1]`.
    pub payment_factor: f64,
    /// The final subset after applying the hidden payment (per-machine
    /// counts scaled down by `c_i`, rounded towards zero).
    pub awarded: FreeVector,
    /// The ρ the app bid for its proportional-fair subset.
    pub rho: f64,
}

/// The full result of a partial-allocation auction.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionResult {
    /// Per-app awards (apps that won nothing are omitted).
    pub awards: Vec<Award>,
    /// Resources offered but not awarded (hidden payments and unwanted
    /// GPUs); to be allocated work-conservingly outside the auction.
    pub leftover: FreeVector,
    /// Which solver was used.
    pub solver: SolverKind,
}

impl AuctionResult {
    /// Total number of GPUs awarded across apps.
    pub fn total_awarded(&self) -> usize {
        self.awards.iter().map(|a| a.awarded.total()).sum()
    }

    /// The award for a specific app, if it won anything.
    pub fn award_for(&self, app: AppId) -> Option<&Award> {
        self.awards.iter().find(|a| a.app == app)
    }
}

/// An assignment of (at most) one bid-entry index per app.
type Assignment = BTreeMap<AppId, usize>;

/// Scales a proportional-fair subset by the hidden-payment factor `c`.
///
/// The paper treats allocations as divisible; with whole GPUs a naive
/// per-machine floor can round a heavily-charged winner down to *zero* GPUs,
/// starving exactly the far-from-fair app the auction meant to help. We
/// instead round the *total* GPU count (half-up) and take that many GPUs
/// from the subset's machines densest-first, so the winner keeps a packed
/// core of its proportional-fair allocation.
fn scale_subset(pf: &FreeVector, c: f64) -> FreeVector {
    let target = ((pf.total() as f64) * c).round() as usize;
    if target == 0 {
        return FreeVector::empty();
    }
    if target >= pf.total() {
        return pf.clone();
    }
    let mut machines: Vec<(themis_cluster::ids::MachineId, usize)> = pf.iter().collect();
    // Densest machines first so the kept GPUs stay packed.
    machines.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut remaining = target;
    let mut kept = Vec::new();
    for (machine, count) in machines {
        if remaining == 0 {
            break;
        }
        let take = count.min(remaining);
        kept.push((machine, take));
        remaining -= take;
    }
    FreeVector::from_counts(kept)
}

fn entry_value(table: &BidTable, entry: Option<usize>) -> f64 {
    let v = match entry {
        Some(idx) => table.entries[idx].value(),
        None => table.baseline_value(),
    };
    v.max(VALUE_FLOOR)
}

fn assignment_log_value(bids: &[&BidTable], assignment: &Assignment) -> f64 {
    bids.iter()
        .map(|t| entry_value(t, assignment.get(&t.app).copied()).ln())
        .sum()
}

fn assignment_fits(bids: &[&BidTable], assignment: &Assignment, offer: &FreeVector) -> bool {
    let mut used = FreeVector::empty();
    for table in bids {
        if let Some(idx) = assignment.get(&table.app) {
            used = used.add(&table.entries[*idx].resources);
        }
    }
    offer.contains_vector(&used)
}

/// Exhaustive search over per-app entry choices (including "nothing"),
/// maximizing the sum of log-values subject to capacity. Exponential in the
/// number of apps, so only used when `Π (entries+1)` is small.
fn solve_exact(bids: &[&BidTable], offer: &FreeVector) -> Assignment {
    fn recurse(
        bids: &[&BidTable],
        idx: usize,
        remaining: &FreeVector,
        current: &mut Assignment,
        current_log: f64,
        best: &mut (f64, Assignment),
    ) {
        if idx == bids.len() {
            if current_log > best.0 {
                *best = (current_log, current.clone());
            }
            return;
        }
        let table = bids[idx];
        // Option A: this app receives nothing.
        recurse(
            bids,
            idx + 1,
            remaining,
            current,
            current_log + entry_value(table, None).ln(),
            best,
        );
        // Option B: each feasible entry.
        for (i, entry) in table.entries.iter().enumerate() {
            if remaining.contains_vector(&entry.resources) {
                let next_remaining = remaining.saturating_sub(&entry.resources);
                current.insert(table.app, i);
                recurse(
                    bids,
                    idx + 1,
                    &next_remaining,
                    current,
                    current_log + entry_value(table, Some(i)).ln(),
                    best,
                );
                current.remove(&table.app);
            }
        }
    }

    let mut best = (f64::NEG_INFINITY, Assignment::new());
    let mut current = Assignment::new();
    recurse(bids, 0, offer, &mut current, 0.0, &mut best);
    best.1
}

/// Greedy assignment (largest marginal log-value gain first) followed by a
/// round of single-app local-search improvements.
fn solve_greedy(bids: &[&BidTable], offer: &FreeVector) -> Assignment {
    let mut assignment = Assignment::new();
    let mut remaining = offer.clone();

    loop {
        let mut best: Option<(AppId, usize, f64)> = None;
        for table in bids {
            if assignment.contains_key(&table.app) {
                continue;
            }
            let base = entry_value(table, None).ln();
            for (i, entry) in table.entries.iter().enumerate() {
                if !remaining.contains_vector(&entry.resources) {
                    continue;
                }
                let gain = entry_value(table, Some(i)).ln() - base;
                if gain <= 0.0 {
                    continue;
                }
                match best {
                    Some((_, _, g)) if gain <= g => {}
                    _ => best = Some((table.app, i, gain)),
                }
            }
        }
        let Some((app, idx, _)) = best else { break };
        let table = bids.iter().find(|t| t.app == app).expect("app has a bid");
        remaining = remaining.saturating_sub(&table.entries[idx].resources);
        assignment.insert(app, idx);
    }

    // Local search: try replacing each app's entry (or lack of one) with a
    // better feasible alternative, until no single change improves the
    // Nash product.
    let mut improved = true;
    while improved {
        improved = false;
        for table in bids {
            let current_choice = assignment.get(&table.app).copied();
            // Capacity not counting this app's current entry.
            let mut used_by_others = FreeVector::empty();
            for other in bids {
                if other.app == table.app {
                    continue;
                }
                if let Some(i) = assignment.get(&other.app) {
                    used_by_others = used_by_others.add(&other.entries[*i].resources);
                }
            }
            let available = offer.saturating_sub(&used_by_others);
            let current_value = entry_value(table, current_choice).ln();
            let mut best_alternative: Option<(Option<usize>, f64)> = None;
            for candidate in std::iter::once(None).chain((0..table.entries.len()).map(Some)) {
                if let Some(i) = candidate {
                    if !available.contains_vector(&table.entries[i].resources) {
                        continue;
                    }
                }
                let value = entry_value(table, candidate).ln();
                if value > current_value + 1e-12 {
                    match best_alternative {
                        Some((_, v)) if value <= v => {}
                        _ => best_alternative = Some((candidate, value)),
                    }
                }
            }
            if let Some((choice, _)) = best_alternative {
                match choice {
                    Some(i) => {
                        assignment.insert(table.app, i);
                    }
                    None => {
                        assignment.remove(&table.app);
                    }
                }
                improved = true;
            }
        }
    }
    assignment
}

/// Solves the proportional-fair assignment, choosing the exact solver when
/// the search space is small enough.
fn solve(bids: &[&BidTable], offer: &FreeVector) -> (Assignment, SolverKind) {
    const EXACT_SEARCH_LIMIT: f64 = 20_000.0;
    let space: f64 = bids.iter().map(|t| (t.entries.len() + 1) as f64).product();
    if space <= EXACT_SEARCH_LIMIT {
        (solve_exact(bids, offer), SolverKind::Exact)
    } else {
        (solve_greedy(bids, offer), SolverKind::Greedy)
    }
}

/// Runs the partial-allocation mechanism over a set of bids for an offer.
///
/// Set `apply_hidden_payments = false` to ablate the truth-telling payment
/// (the full proportional-fair allocation is then awarded directly).
pub fn partial_allocation_with(
    bids: &[BidTable],
    offer: &FreeVector,
    apply_hidden_payments: bool,
) -> AuctionResult {
    if bids.is_empty() || offer.is_empty() {
        return AuctionResult {
            awards: Vec::new(),
            leftover: offer.clone(),
            solver: SolverKind::Exact,
        };
    }

    let bids: Vec<&BidTable> = bids.iter().collect();
    let (assignment, solver) = solve(&bids, offer);

    // Π_{j≠i} V_j under the chosen assignment, per excluded app i, is
    // recomputed from scratch per app below via re-solving without i.
    let full_log = assignment_log_value(&bids, &assignment);
    debug_assert!(assignment_fits(&bids, &assignment, offer));

    let mut awards = Vec::new();
    let mut used = FreeVector::empty();
    let mut others: Vec<&BidTable> = Vec::with_capacity(bids.len());
    for &table in &bids {
        let Some(&entry_idx) = assignment.get(&table.app) else {
            continue;
        };
        let entry = &table.entries[entry_idx];
        if entry.resources.is_empty() {
            continue;
        }

        let payment_factor = if apply_hidden_payments {
            // Numerator: Π_{j≠i} V_j under the PF assignment with i present.
            let log_without_i_present = full_log - entry_value(table, Some(entry_idx)).ln();
            // Denominator: Π_{j≠i} V_j under the PF assignment computed
            // without app i participating at all.
            others.clear();
            others.extend(bids.iter().filter(|t| t.app != table.app));
            let (assignment_without_i, _) = solve(&others, offer);
            let log_without_i = assignment_log_value(&others, &assignment_without_i);
            let ratio = (log_without_i_present - log_without_i).exp();
            ratio.clamp(0.0, 1.0)
        } else {
            1.0
        };

        let awarded = scale_subset(&entry.resources, payment_factor);
        used = used.add(&awarded);
        awards.push(Award {
            app: table.app,
            proportional_fair: entry.resources.clone(),
            payment_factor,
            awarded,
            rho: entry.rho,
        });
    }

    let leftover = offer.saturating_sub(&used);
    AuctionResult {
        awards,
        leftover,
        solver,
    }
}

/// Runs the partial-allocation mechanism with hidden payments enabled (the
/// paper's mechanism).
pub fn partial_allocation(bids: &[BidTable], offer: &FreeVector) -> AuctionResult {
    partial_allocation_with(bids, offer, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::MachineId;

    fn fv(pairs: &[(u32, usize)]) -> FreeVector {
        FreeVector::from_counts(pairs.iter().map(|(m, c)| (MachineId(*m), *c)))
    }

    /// A bid table whose entries follow the homogeneous `rho/k` scaling the
    /// paper assumes: current_rho / gpus.
    fn scaling_bid(app: u32, current_rho: f64, machine: u32, max_gpus: usize) -> BidTable {
        let mut table = BidTable::empty(AppId(app), current_rho);
        for g in 1..=max_gpus {
            table.push(fv(&[(machine, g)]), current_rho / g as f64);
        }
        table
    }

    #[test]
    fn empty_inputs_produce_no_awards() {
        let result = partial_allocation(&[], &fv(&[(0, 4)]));
        assert!(result.awards.is_empty());
        assert_eq!(result.leftover, fv(&[(0, 4)]));
        let result = partial_allocation(&[scaling_bid(0, 4.0, 0, 2)], &FreeVector::empty());
        assert!(result.awards.is_empty());
    }

    #[test]
    fn single_bidder_wins_its_best_entry() {
        let offer = fv(&[(0, 4)]);
        let bids = vec![scaling_bid(0, 8.0, 0, 4)];
        let result = partial_allocation(&bids, &offer);
        assert_eq!(result.awards.len(), 1);
        let award = &result.awards[0];
        assert_eq!(award.proportional_fair, fv(&[(0, 4)]));
        // A single bidder faces no competition, so it pays nothing hidden.
        assert!((award.payment_factor - 1.0).abs() < 1e-9);
        assert_eq!(award.awarded.total(), 4);
        assert!(result.leftover.is_empty());
    }

    #[test]
    fn disjoint_demands_both_win_fully() {
        let offer = fv(&[(0, 4), (1, 4)]);
        let bids = vec![scaling_bid(0, 8.0, 0, 4), scaling_bid(1, 8.0, 1, 4)];
        let result = partial_allocation(&bids, &offer);
        assert_eq!(result.awards.len(), 2);
        for award in &result.awards {
            // No contention on either machine → no hidden payment.
            assert!(
                (award.payment_factor - 1.0).abs() < 1e-9,
                "factor {}",
                award.payment_factor
            );
            assert_eq!(award.awarded.total(), 4);
        }
        assert_eq!(result.total_awarded(), 8);
    }

    #[test]
    fn contention_awards_the_needier_app_and_charges_it() {
        // Both apps want the same 4 GPUs; app 0 is much farther from fair
        // (higher current rho), so the Nash product is maximized by giving
        // the GPUs to... whichever yields the larger relative improvement.
        // Both improve by the same multiplicative factor, so the solver may
        // pick either — but the hidden payment must be strictly less than 1
        // because the loser's valuation is hurt by the winner's presence.
        let offer = fv(&[(0, 4)]);
        let bids = vec![scaling_bid(0, 100.0, 0, 4), scaling_bid(1, 10.0, 0, 4)];
        let result = partial_allocation(&bids, &offer);
        assert!(!result.awards.is_empty(), "someone must win the machine");
        for award in &result.awards {
            assert!(
                award.payment_factor < 1.0,
                "contention must induce a hidden payment (got {})",
                award.payment_factor
            );
            assert!(award.payment_factor > 0.0);
        }
        assert_eq!(
            result.total_awarded() + result.leftover.total(),
            4,
            "awarded + leftover covers the whole offer"
        );
    }

    #[test]
    fn awards_never_exceed_offer() {
        let offer = fv(&[(0, 2), (1, 3)]);
        let bids = vec![
            scaling_bid(0, 20.0, 0, 2),
            scaling_bid(1, 15.0, 1, 3),
            scaling_bid(2, 30.0, 1, 3),
        ];
        let result = partial_allocation(&bids, &offer);
        let mut used = FreeVector::empty();
        for award in &result.awards {
            used = used.add(&award.awarded);
        }
        assert!(offer.contains_vector(&used));
        assert_eq!(used.total() + result.leftover.total(), offer.total());
    }

    #[test]
    fn pareto_efficiency_no_wasted_entry_for_lone_bidder() {
        // With one bidder and plenty of supply, the solver must pick the
        // entry with the highest value (the most GPUs).
        let offer = fv(&[(0, 4), (1, 4)]);
        let mut table = BidTable::empty(AppId(0), 8.0);
        table.push(fv(&[(0, 2)]), 4.0);
        table.push(fv(&[(0, 4)]), 2.0);
        table.push(fv(&[(0, 4), (1, 4)]), 1.0);
        let result = partial_allocation(&[table], &offer);
        assert_eq!(result.awards[0].proportional_fair.total(), 8);
    }

    #[test]
    fn truthfulness_overbidding_does_not_increase_award() {
        // App 1 lies by reporting rho values 10x worse (higher) than truth.
        // Because of the hidden payment, its awarded GPUs must not exceed
        // what truthful bidding obtains.
        let offer = fv(&[(0, 4)]);
        let truthful = vec![scaling_bid(0, 20.0, 0, 4), scaling_bid(1, 20.0, 0, 4)];
        let lying = vec![scaling_bid(0, 20.0, 0, 4), {
            let mut t = scaling_bid(1, 200.0, 0, 4);
            // keep its true baseline: the lie is in the table entries only
            t.current_rho = 20.0;
            t
        }];
        let truthful_award = partial_allocation(&truthful, &offer)
            .award_for(AppId(1))
            .map(|a| a.awarded.total())
            .unwrap_or(0);
        let lying_award = partial_allocation(&lying, &offer)
            .award_for(AppId(1))
            .map(|a| a.awarded.total())
            .unwrap_or(0);
        assert!(
            lying_award <= truthful_award.max(1),
            "lying ({lying_award}) must not beat truth ({truthful_award})"
        );
    }

    #[test]
    fn hidden_payments_can_be_disabled_for_ablation() {
        let offer = fv(&[(0, 4)]);
        let bids = vec![scaling_bid(0, 100.0, 0, 4), scaling_bid(1, 10.0, 0, 4)];
        let with = partial_allocation_with(&bids, &offer, true);
        let without = partial_allocation_with(&bids, &offer, false);
        assert!(without
            .awards
            .iter()
            .all(|a| (a.payment_factor - 1.0).abs() < 1e-12));
        assert!(without.total_awarded() >= with.total_awarded());
    }

    #[test]
    fn greedy_solver_kicks_in_for_large_instances() {
        // 40 apps x 4 entries ≫ exact limit.
        let offer = FreeVector::from_counts((0..40u32).map(|m| (MachineId(m), 4)));
        let bids: Vec<BidTable> = (0..40u32)
            .map(|i| scaling_bid(i, 50.0, i % 40, 4))
            .collect();
        // entries = 4 → space = 5^40, greedy required.
        let result = partial_allocation(&bids, &offer);
        assert_eq!(result.solver, SolverKind::Greedy);
        assert!(result.total_awarded() > 0);
        // Per-machine feasibility.
        let mut used = FreeVector::empty();
        for a in &result.awards {
            used = used.add(&a.awarded);
        }
        assert!(offer.contains_vector(&used));
    }

    /// A table whose row `k` is the first `k` GPUs of `machines`, valued
    /// with a sub-linear speed-up so the solver has real trade-offs.
    fn prefix_bid(app: u32, current_rho: f64, machines: &[(u32, usize)], rows: usize) -> BidTable {
        let mut table = BidTable::empty(AppId(app), current_rho);
        let mut subset = FreeVector::empty();
        let mut slots = machines
            .iter()
            .flat_map(|(m, count)| std::iter::repeat_n(MachineId(*m), *count));
        for k in 1..=rows {
            let machine = slots.next().expect("enough GPUs for the rows");
            subset.set(machine, subset.on_machine(machine) + 1);
            table.push(subset.clone(), current_rho / (k as f64).powf(0.9));
        }
        table
    }

    /// The hidden-payment factors as they were computed before the
    /// leave-one-out solve borrowed its tables: deep-clone every other
    /// bidder's table and run the mechanism on the copies.
    fn payment_factors_by_cloning(bids: &[BidTable], offer: &FreeVector) -> Vec<(AppId, f64)> {
        let log_value = |tables: &[BidTable], pf: &AuctionResult| -> f64 {
            tables
                .iter()
                .map(|t| {
                    let value = match pf.award_for(t.app) {
                        Some(award) => t.entry_for(&award.proportional_fair).unwrap().value(),
                        None => t.baseline_value(),
                    };
                    value.max(VALUE_FLOOR).ln()
                })
                .sum()
        };
        let pf = partial_allocation_with(bids, offer, false);
        let full_log = log_value(bids, &pf);
        pf.awards
            .iter()
            .map(|award| {
                let own = bids.iter().find(|t| t.app == award.app).unwrap();
                let own_value = own.entry_for(&award.proportional_fair).unwrap().value();
                let others: Vec<BidTable> = bids
                    .iter()
                    .filter(|t| t.app != award.app)
                    .cloned()
                    .collect();
                let without = partial_allocation_with(&others, offer, false);
                let ratio =
                    (full_log - own_value.max(VALUE_FLOOR).ln() - log_value(&others, &without))
                        .exp();
                (award.app, ratio.clamp(0.0, 1.0))
            })
            .collect()
    }

    #[test]
    fn borrowed_leave_one_out_matches_the_cloning_version() {
        // Three bidders x 16 rows: the exact solver's largest in-cap search.
        let offer = fv(&[(0, 8), (1, 8), (2, 8)]);
        let exact = vec![
            prefix_bid(0, 40.0, &[(0, 8), (1, 8)], 16),
            prefix_bid(1, 25.0, &[(1, 8), (2, 8)], 16),
            prefix_bid(2, 60.0, &[(2, 8), (0, 8)], 16),
        ];
        // Eight bidders x 8 rows: greedy, with and without each bidder.
        let wide = FreeVector::from_counts((0..6u32).map(|m| (MachineId(m), 4)));
        let greedy: Vec<BidTable> = (0..8u32)
            .map(|i| prefix_bid(i, 20.0 + 7.0 * i as f64, &[(i % 6, 4), ((i + 1) % 6, 4)], 8))
            .collect();
        for (bids, offer, solver) in [
            (&exact, &offer, SolverKind::Exact),
            (&greedy, &wide, SolverKind::Greedy),
        ] {
            let result = partial_allocation(bids, offer);
            assert_eq!(result.solver, solver);
            assert!(result.awards.iter().any(|a| a.payment_factor < 1.0));
            let factors: Vec<(AppId, f64)> = result
                .awards
                .iter()
                .map(|a| (a.app, a.payment_factor))
                .collect();
            assert_eq!(factors, payment_factors_by_cloning(bids, offer));
            // The awards follow from the factors.
            for award in &result.awards {
                assert_eq!(
                    award.awarded,
                    scale_subset(&award.proportional_fair, award.payment_factor)
                );
            }
        }
    }

    #[test]
    fn leftover_fraction_is_bounded_in_practice() {
        // The PA mechanism guarantees at most 1/e leftover in the worst
        // case; on a typical contended instance it should be far less than
        // half the offer.
        let offer = fv(&[(0, 4), (1, 4), (2, 4)]);
        let bids = vec![
            scaling_bid(0, 30.0, 0, 4),
            scaling_bid(1, 25.0, 1, 4),
            scaling_bid(2, 40.0, 2, 4),
            scaling_bid(3, 35.0, 0, 4),
        ];
        let result = partial_allocation(&bids, &offer);
        assert!(
            (result.leftover.total() as f64) <= 0.5 * offer.total() as f64,
            "leftover {} of {}",
            result.leftover.total(),
            offer.total()
        );
    }
}
