//! Property test: the in-place auction solver agrees with the code it
//! replaced.
//!
//! `solve_exact` used to clone the remaining offer at every search node and
//! the whole `BTreeMap<AppId, usize>` assignment at every improving leaf,
//! and `solve_greedy` rebuilt the offer after every pick. The solvers now
//! walk one offer with `sub_assign`/`add_assign` undo and index the
//! assignment by bid position. The parent's map-based solvers and mechanism
//! live here, verbatim apart from `FreeVector` arithmetic spelled out, as a
//! reference model: same solver kind, same awards, the same payment factors
//! to the last bit, the same leftover.
//!
//! Both solvers now also read one table of log-values, computed once per
//! auction and shared with the leave-one-out solves, and stop scanning a
//! nested table (each row containing the one before it) at its first row
//! that does not fit.
//!
//! Checked to fail under seeded mutations of the new code: the exact
//! search's leaf comparison `>` turned into `>=` (a later equal optimum
//! replaces the first), the `add_assign` undo after a subtree dropped
//! (later siblings see too little capacity), and the row cut applied to
//! every table, nested or not.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use themis_cluster::alloc::FreeVector;
use themis_cluster::ids::{AppId, MachineId};
use themis_core::auction::{partial_allocation, SolverKind};
use themis_protocol::bid::BidTable;

/// The vendored proptest stub reads no environment, so the case count is
/// chosen by build profile: CI's release run does the full count.
fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 })
}

// ---------------------------------------------------------------------------
// Reference model: the parent commit's auction, unchanged.
// ---------------------------------------------------------------------------

const VALUE_FLOOR: f64 = 1e-12;
const EXACT_SEARCH_LIMIT: f64 = 20_000.0;

type Assignment = BTreeMap<AppId, usize>;

fn fv(pairs: impl IntoIterator<Item = (u32, usize)>) -> FreeVector {
    FreeVector::from_counts(pairs.into_iter().map(|(m, c)| (MachineId(m), c)))
}

/// The parent's `FreeVector::add`.
fn add(a: &FreeVector, b: &FreeVector) -> FreeVector {
    FreeVector::from_counts(a.iter().chain(b.iter()))
}

/// The parent's `FreeVector::saturating_sub`.
fn saturating_sub(a: &FreeVector, b: &FreeVector) -> FreeVector {
    FreeVector::from_counts(
        a.iter()
            .map(|(machine, count)| (machine, count.saturating_sub(b.on_machine(machine)))),
    )
}

fn scale_subset(pf: &FreeVector, c: f64) -> FreeVector {
    let target = ((pf.total() as f64) * c).round() as usize;
    if target == 0 {
        return FreeVector::empty();
    }
    if target >= pf.total() {
        return pf.clone();
    }
    let mut machines: Vec<(MachineId, usize)> = pf.iter().collect();
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

fn ref_solve_exact(bids: &[&BidTable], offer: &FreeVector) -> Assignment {
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
        recurse(
            bids,
            idx + 1,
            remaining,
            current,
            current_log + entry_value(table, None).ln(),
            best,
        );
        for (i, entry) in table.entries.iter().enumerate() {
            if remaining.contains_vector(&entry.resources) {
                let next_remaining = saturating_sub(remaining, &entry.resources);
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

fn ref_solve_greedy(bids: &[&BidTable], offer: &FreeVector) -> Assignment {
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
        remaining = saturating_sub(&remaining, &table.entries[idx].resources);
        assignment.insert(app, idx);
    }
    assignment
}

fn ref_solve(bids: &[&BidTable], offer: &FreeVector) -> (Assignment, SolverKind) {
    let space: f64 = bids.iter().map(|t| (t.entries.len() + 1) as f64).product();
    if space <= EXACT_SEARCH_LIMIT {
        (ref_solve_exact(bids, offer), SolverKind::Exact)
    } else {
        (ref_solve_greedy(bids, offer), SolverKind::Greedy)
    }
}

/// One award as `(app, proportional-fair subset, c_i, awarded, ρ)`.
type RefAward = (AppId, FreeVector, f64, FreeVector, f64);

/// `(awards, leftover, solver)` of the parent's `partial_allocation`.
fn ref_partial_allocation(
    bids: &[BidTable],
    offer: &FreeVector,
) -> (Vec<RefAward>, FreeVector, SolverKind) {
    if bids.is_empty() || offer.is_empty() {
        return (Vec::new(), offer.clone(), SolverKind::Exact);
    }
    let bids: Vec<&BidTable> = bids.iter().collect();
    let (assignment, solver) = ref_solve(&bids, offer);
    let full_log = assignment_log_value(&bids, &assignment);
    let mut awards = Vec::new();
    let mut used = FreeVector::empty();
    for &table in &bids {
        let Some(&entry_idx) = assignment.get(&table.app) else {
            continue;
        };
        let entry = &table.entries[entry_idx];
        if entry.resources.is_empty() {
            continue;
        }
        let log_without_i_present = full_log - entry_value(table, Some(entry_idx)).ln();
        let others: Vec<&BidTable> = bids
            .iter()
            .copied()
            .filter(|t| t.app != table.app)
            .collect();
        let (assignment_without_i, _) = ref_solve(&others, offer);
        let log_without_i = assignment_log_value(&others, &assignment_without_i);
        let payment_factor = (log_without_i_present - log_without_i)
            .exp()
            .clamp(0.0, 1.0);
        let awarded = scale_subset(&entry.resources, payment_factor);
        used = add(&used, &awarded);
        awards.push((
            table.app,
            entry.resources.clone(),
            payment_factor,
            awarded,
            entry.rho,
        ));
    }
    (awards, saturating_sub(offer, &used), solver)
}

// ---------------------------------------------------------------------------
// Random instances.
// ---------------------------------------------------------------------------

/// Up to 6 machines of 1–4 GPUs and 1–8 bidders (app ids with gaps, in no
/// particular order). Half of the instances are sized for the exact solver
/// (at most 4 bidders × 8 rows), half for the greedy one (6–8 bidders ×
/// 6–12 rows). Every row is a non-empty subset of the offer. A third of the
/// tables are nested prefixes, consecutive rows now and then equal; in the
/// rest a fifth of the rows repeat an earlier row's subset. Row ρs are a
/// few multiples of the bidder's current ρ, so values tie and some rows are
/// worth less than nothing (or exactly nothing).
fn random_instance(rng: &mut SmallRng) -> (Vec<BidTable>, FreeVector) {
    let machines: Vec<(u32, usize)> = (0..rng.gen_range(1..=6u32))
        .map(|m| (m, rng.gen_range(1..=4usize)))
        .collect();
    let (bidders, rows) = if rng.gen_range(0..2u8) == 0 {
        (rng.gen_range(1..=4u32), 0..=8usize)
    } else {
        (rng.gen_range(6..=8u32), 6..=12usize)
    };
    let mut apps: Vec<u32> = (0..bidders)
        .map(|a| a * 3 + rng.gen_range(0..3u32))
        .collect();
    if rng.gen_range(0..2u8) == 0 {
        apps.reverse();
    }
    let tables = apps
        .into_iter()
        .map(|app| {
            let current_rho = [2.0, 4.0, 8.0, f64::INFINITY][rng.gen_range(0..4usize)];
            let finite = if current_rho.is_finite() {
                current_rho
            } else {
                16.0
            };
            let mut table = BidTable::empty(AppId(app), current_rho);
            // A third of the tables are nested, as an Agent's packed
            // prefixes are: each row is the one before it plus up to two
            // GPUs the offer still has, or the same subset again.
            let nested = rng.gen_range(0..3u8) == 0;
            for _ in 0..rng.gen_range(rows.clone()) {
                let resources = match table.entries.len() {
                    n if nested => {
                        let mut subset = match n {
                            0 => fv([(machines[0].0, 1)]),
                            _ => table.entries[n - 1].resources.clone(),
                        };
                        for _ in 0..rng.gen_range(0..=2u8) {
                            let (m, cap) = machines[rng.gen_range(0..machines.len())];
                            let machine = MachineId(m);
                            let held = subset.on_machine(machine);
                            subset.set(machine, (held + 1).min(cap));
                        }
                        subset
                    }
                    n if n > 0 && rng.gen_range(0..5u8) == 0 => {
                        table.entries[rng.gen_range(0..n)].resources.clone()
                    }
                    _ => {
                        let mut subset: Vec<(u32, usize)> = machines
                            .iter()
                            .map(|&(m, cap)| (m, rng.gen_range(0..=cap)))
                            .collect();
                        subset[0].1 = subset[0].1.max(1);
                        fv(subset)
                    }
                };
                let rho = finite * [0.25, 0.5, 1.0, 1.5][rng.gen_range(0..4usize)];
                table.push(resources, rho);
            }
            table
        })
        .collect();
    (tables, fv(machines))
}

/// The generator reaches both solvers, so the property compares the exact
/// search and the greedy pass, not only one of them, and it builds nested
/// tables with equal consecutive rows, so the solvers' row cut is exercised
/// where it is tightest.
#[test]
fn the_generator_reaches_both_solvers() {
    let (mut exact, mut greedy, mut repeats) = (0, 0, 0);
    for case in 0..64 {
        let (bids, offer) = random_instance(&mut SmallRng::seed_from_u64(case));
        match partial_allocation(&bids, &offer).solver {
            SolverKind::Exact => exact += 1,
            SolverKind::Greedy => greedy += 1,
        }
        for table in &bids {
            let rows = &table.entries;
            let nested = rows
                .windows(2)
                .all(|w| w[1].resources.contains_vector(&w[0].resources));
            let repeat = rows.windows(2).any(|w| w[1].resources == w[0].resources);
            repeats += usize::from(nested && repeat && rows.len() > 2);
        }
    }
    assert!(exact > 0 && greedy > 0, "exact {exact}, greedy {greedy}");
    assert!(repeats > 0, "no nested table repeats a row");
}

proptest! {
    #![proptest_config(cases())]

    /// `partial_allocation` ≡ the map-based mechanism: solver kind, every
    /// award field (payment factors compared with `==`) and the leftover.
    #[test]
    fn partial_allocation_agrees_with_the_map_based_solver(case in 0u64..u64::MAX) {
        let (bids, offer) = random_instance(&mut SmallRng::seed_from_u64(case));
        let new = partial_allocation(&bids, &offer);
        let (awards, leftover, solver) = ref_partial_allocation(&bids, &offer);
        prop_assert_eq!(new.solver, solver);
        let new_awards: Vec<RefAward> = new
            .awards
            .iter()
            .map(|a| {
                let pf = a.proportional_fair.clone();
                (a.app, pf, a.payment_factor, a.awarded.clone(), a.rho)
            })
            .collect();
        prop_assert_eq!(new_awards, awards);
        prop_assert_eq!(new.leftover, leftover);
    }
}
