//! The central Arbiter.
//!
//! The Arbiter is the bottom level of Themis's two-level architecture
//! (§3.1): it pools reclaimed GPUs, probes every app's Agent for its
//! finish-time fairness, offers the pooled GPUs to the `1 − f` fraction of
//! apps that are farthest from fair, runs the partial-allocation auction
//! over their bids, and finally hands out any leftover GPUs (the hidden
//! payments and unwanted capacity) to apps outside the auction in a
//! placement-sensitive, work-conserving way (§5.1 "Leftover Allocation").

use crate::auction::{AuctionResult, AuctionScratch};
use crate::config::ThemisConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use themis_cluster::alloc::FreeVector;
use themis_cluster::ids::{AppId, MachineId};
use themis_cluster::topology::ClusterSpec;
use themis_protocol::bid::BidTable;

/// A snapshot of one app's scheduling status, as seen by the Arbiter before
/// an auction round.
#[derive(Debug, Clone, PartialEq)]
pub struct AppStatus {
    /// The app.
    pub app: AppId,
    /// The app's current finish-time fairness (∞ when it has no GPUs and no
    /// prospects).
    pub rho: f64,
    /// GPUs the app could still use productively.
    pub unmet_demand: usize,
    /// Machines on which the app currently holds GPUs (used to place
    /// leftover GPUs next to existing allocations).
    pub footprint: BTreeSet<MachineId>,
}

/// The outcome of one auction round.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// Monotonically increasing round number.
    pub round: u64,
    /// Apps that were offered the resources (the worst-off `1 − f`).
    pub participants: Vec<AppId>,
    /// Final auction awards per app (after hidden payments).
    pub winners: BTreeMap<AppId, FreeVector>,
    /// Work-conserving grants of leftover GPUs to apps outside the auction.
    pub leftover_grants: BTreeMap<AppId, FreeVector>,
    /// The raw partial-allocation result (for inspection / overhead
    /// benchmarks).
    pub auction: AuctionResult,
}

impl AuctionOutcome {
    /// Every grant made this round: auction awards plus leftover grants,
    /// merged per app. Consumes the outcome and *drains* both maps into
    /// the result — no `FreeVector` is cloned.
    pub fn into_all_grants(self) -> BTreeMap<AppId, FreeVector> {
        let mut grants = self.winners;
        for (app, extra) in self.leftover_grants {
            match grants.entry(app) {
                std::collections::btree_map::Entry::Occupied(mut won) => {
                    won.get_mut().add_assign(&extra);
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(extra);
                }
            }
        }
        grants
    }
}

/// Who may receive a leftover GPU, kept current while one round's leftovers
/// are handed out (§5.1 "Leftover Allocation").
///
/// A leftover GPU on a machine goes to the best non-empty tier of: apps
/// outside the auction that are already on the machine; apps outside the
/// auction; apps on the machine; anyone — always among apps with demand
/// left, in ascending app order, the tie broken at random by the caller. An
/// app is *on* a machine if its footprint covers it or it was granted a
/// leftover there this round. The two machine-blind tiers are maintained
/// lists; the two local tiers filter the few apps on the machine being
/// drained. Buffers are reused from round to round.
#[derive(Debug, Default)]
pub struct LeftoverRecipients {
    /// Remaining unmet demand per status index.
    demand: Vec<usize>,
    /// Per status index: the app is not an auction participant.
    outside: Vec<bool>,
    /// `(app, status index)` of every app with demand left, by app.
    anyone: Vec<(AppId, usize)>,
    /// The entries of `anyone` outside the auction.
    outsiders: Vec<(AppId, usize)>,
    /// `(machine, app, status index)` for every footprint machine of every
    /// app that entered the round with demand, sorted.
    footprints: Vec<(MachineId, AppId, usize)>,
    /// Apps on the machine being drained, by app.
    local: Vec<(AppId, usize)>,
    /// A filtered local tier.
    candidates: Vec<(AppId, usize)>,
    /// The round's participants, sorted for membership tests.
    participants: Vec<AppId>,
}

impl LeftoverRecipients {
    /// Starts a round: `statuses[i]` still wants its unmet demand minus
    /// what `winners` awards it.
    pub fn reset(
        &mut self,
        statuses: &[AppStatus],
        participants: &[AppId],
        winners: &BTreeMap<AppId, FreeVector>,
    ) {
        self.participants.clear();
        self.participants.extend_from_slice(participants);
        self.participants.sort_unstable();
        self.demand.clear();
        self.outside.clear();
        self.anyone.clear();
        self.footprints.clear();
        for (idx, status) in statuses.iter().enumerate() {
            let granted = winners.get(&status.app).map_or(0, |w| w.total());
            let demand = status.unmet_demand.saturating_sub(granted);
            self.demand.push(demand);
            self.outside
                .push(self.participants.binary_search(&status.app).is_err());
            if demand > 0 {
                self.anyone.push((status.app, idx));
                self.footprints
                    .extend(status.footprint.iter().map(|m| (*m, status.app, idx)));
            }
        }
        self.anyone.sort_unstable();
        self.footprints.sort_unstable();
        let outside = &self.outside;
        self.outsiders.clear();
        self.outsiders
            .extend(self.anyone.iter().filter(|(_, idx)| outside[*idx]));
    }

    /// Turns to the leftover GPUs of `machine`. Each machine is drained at
    /// most once per round.
    pub fn drain(&mut self, machine: MachineId) {
        let from = self.footprints.partition_point(|(m, ..)| *m < machine);
        self.local.clear();
        self.local.extend(
            self.footprints[from..]
                .iter()
                .take_while(|(m, ..)| *m == machine)
                .map(|(_, app, idx)| (*app, *idx)),
        );
    }

    /// The apps the next GPU of the machine being drained is drawn from:
    /// the best non-empty tier, ascending by app; empty when no app has
    /// demand left.
    pub fn candidates(&mut self) -> &[(AppId, usize)] {
        // Outside the auction first. Either way the local tier is a subset
        // of the machine-blind tier that follows it.
        let outsiders_only = !self.outsiders.is_empty();
        let (demand, outside) = (&self.demand, &self.outside);
        let local = self.local.iter().copied();
        self.candidates.clear();
        self.candidates.extend(
            local.filter(|(_, idx)| demand[*idx] > 0 && (outside[*idx] || !outsiders_only)),
        );
        if !self.candidates.is_empty() {
            &self.candidates
        } else if outsiders_only {
            &self.outsiders
        } else {
            &self.anyone
        }
    }

    /// Records that `recipient`, one of the current candidates, received a
    /// GPU of the machine being drained.
    pub fn grant(&mut self, recipient: (AppId, usize)) {
        let (_, idx) = recipient;
        if let Err(at) = self.local.binary_search(&recipient) {
            self.local.insert(at, recipient);
        }
        self.demand[idx] -= 1;
        if self.demand[idx] == 0 {
            let unlist = |list: &mut Vec<(AppId, usize)>| {
                let at = list.binary_search(&recipient).expect("had demand");
                list.remove(at);
            };
            unlist(&mut self.anyone);
            if self.outside[idx] {
                unlist(&mut self.outsiders);
            }
        }
    }
}

/// The central Arbiter.
#[derive(Debug)]
pub struct Arbiter {
    config: ThemisConfig,
    round: u64,
    rng: SmallRng,
    recipients: LeftoverRecipients,
    /// Leftover grants per status index (vectors are reused across rounds).
    grants: Vec<FreeVector>,
    /// The mechanism's solve buffers, reused across rounds.
    auction: AuctionScratch,
}

impl Arbiter {
    /// Creates an Arbiter with the given configuration.
    pub fn new(config: ThemisConfig) -> Self {
        Arbiter {
            round: 0,
            rng: SmallRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            recipients: LeftoverRecipients::default(),
            grants: Vec::new(),
            auction: AuctionScratch::default(),
            config,
        }
    }

    /// Selects the auction participants: the `1 − f` fraction of apps with
    /// the worst (highest) ρ among those that can actually use more GPUs.
    /// At least one app participates whenever any app has unmet demand.
    pub fn select_participants(&self, statuses: &[AppStatus]) -> Vec<AppId> {
        // Sized up front: one allocation however many apps there are.
        let mut candidates: Vec<&AppStatus> = Vec::with_capacity(statuses.len());
        candidates.extend(statuses.iter().filter(|s| s.unmet_demand > 0));
        if candidates.is_empty() {
            return Vec::new();
        }
        candidates.sort_by(|a, b| {
            b.rho
                .partial_cmp(&a.rho)
                .expect("rho is never NaN")
                .then(a.app.cmp(&b.app))
        });
        let fraction = 1.0 - self.config.fairness_knob;
        let count =
            ((candidates.len() as f64 * fraction).ceil() as usize).clamp(1, candidates.len());
        candidates.into_iter().take(count).map(|s| s.app).collect()
    }

    /// Runs one auction round over the provided bids and assigns leftovers.
    ///
    /// `statuses` must cover every app that can still take a GPU,
    /// participants and non-participants (an app without unmet demand may
    /// be left out: it neither bids nor receives a leftover); `bids` are
    /// the tables received from the
    /// participants' Agents. Leftover GPUs are handed out machine by
    /// machine in id order. `_spec`, the cluster topology, is unread; it
    /// stays in the signature because out-of-workspace callers (the
    /// benchmark harness) pass it.
    pub fn run_auction(
        &mut self,
        offer: &FreeVector,
        statuses: &[AppStatus],
        participants: &[AppId],
        bids: &[BidTable],
        _spec: &ClusterSpec,
    ) -> AuctionOutcome {
        self.round += 1;
        let auction = self.auction.run(bids, offer);
        let mut winners: BTreeMap<AppId, FreeVector> = BTreeMap::new();
        for award in &auction.awards {
            if !award.awarded.is_empty() {
                winners.insert(award.app, award.awarded.clone());
            }
        }

        // Leftover allocation (§5.1 step 3): one GPU at a time, to apps that
        // did not participate in the auction, preferring apps that already
        // have an allocation on the GPU's machine; ties broken at random.
        // If no outside app can take a GPU, fall back to participants with
        // remaining unmet demand so the allocation stays work-conserving.
        self.recipients.reset(statuses, participants, &winners);
        for grant in &mut self.grants {
            grant.clear();
        }
        if self.grants.len() < statuses.len() {
            self.grants.resize_with(statuses.len(), FreeVector::empty);
        }

        for (machine, count) in auction.leftover.iter() {
            self.recipients.drain(machine);
            for _ in 0..count {
                let Some(&recipient) = self.recipients.candidates().choose(&mut self.rng) else {
                    break;
                };
                self.recipients.grant(recipient);
                let (app, idx) = recipient;
                debug_assert_eq!(statuses[idx].app, app);
                let grant = &mut self.grants[idx];
                grant.set(machine, grant.on_machine(machine) + 1);
            }
        }
        let leftover_grants: BTreeMap<AppId, FreeVector> = statuses
            .iter()
            .zip(&self.grants)
            .filter(|(_, grant)| !grant.is_empty())
            .map(|(status, grant)| (status.app, grant.clone()))
            .collect();

        AuctionOutcome {
            round: self.round,
            participants: participants.to_vec(),
            winners,
            leftover_grants,
            auction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-machine × 8-GPU spec covering every machine id the
    /// tests hand out leftovers on.
    fn spec() -> ClusterSpec {
        ClusterSpec::synthetic(1, 4, 8)
    }

    fn status(app: u32, rho: f64, demand: usize, footprint: &[u32]) -> AppStatus {
        AppStatus {
            app: AppId(app),
            rho,
            unmet_demand: demand,
            footprint: footprint.iter().map(|m| MachineId(*m)).collect(),
        }
    }

    fn fv(pairs: &[(u32, usize)]) -> FreeVector {
        FreeVector::from_counts(pairs.iter().map(|(m, c)| (MachineId(*m), *c)))
    }

    /// GPUs granted by a round: auction awards plus leftover grants.
    fn total_granted(outcome: &AuctionOutcome) -> usize {
        let grants = outcome
            .winners
            .values()
            .chain(outcome.leftover_grants.values());
        grants.map(FreeVector::total).sum()
    }

    fn scaling_bid(app: u32, current_rho: f64, machine: u32, max_gpus: usize) -> BidTable {
        let mut table = BidTable::empty(AppId(app), current_rho);
        for g in 1..=max_gpus {
            table.push(fv(&[(machine, g)]), current_rho / g as f64);
        }
        table
    }

    #[test]
    fn participant_selection_takes_worst_one_minus_f() {
        let arbiter = Arbiter::new(ThemisConfig::default().with_fairness_knob(0.5));
        let statuses = vec![
            status(0, 10.0, 4, &[]),
            status(1, 2.0, 4, &[]),
            status(2, 8.0, 4, &[]),
            status(3, f64::INFINITY, 4, &[]),
        ];
        let participants = arbiter.select_participants(&statuses);
        // 1 - f = 0.5 → 2 of 4 apps, the two with the worst rho.
        assert_eq!(participants, vec![AppId(3), AppId(0)]);
    }

    #[test]
    fn apps_without_demand_never_participate() {
        let arbiter = Arbiter::new(ThemisConfig::default().with_fairness_knob(0.0));
        let statuses = vec![status(0, 10.0, 0, &[]), status(1, 5.0, 2, &[])];
        let participants = arbiter.select_participants(&statuses);
        assert_eq!(participants, vec![AppId(1)]);
        // And with no demand at all, nobody participates.
        assert!(arbiter
            .select_participants(&[status(0, 10.0, 0, &[])])
            .is_empty());
    }

    #[test]
    fn at_least_one_app_participates_even_with_f_one() {
        let arbiter = Arbiter::new(ThemisConfig::default().with_fairness_knob(1.0));
        let statuses = vec![status(0, 10.0, 4, &[]), status(1, 20.0, 4, &[])];
        let participants = arbiter.select_participants(&statuses);
        assert_eq!(participants, vec![AppId(1)]);
    }

    #[test]
    fn auction_awards_and_leftovers_cover_the_offer() {
        let mut arbiter = Arbiter::new(ThemisConfig::default());
        let offer = fv(&[(0, 4), (1, 4)]);
        let statuses = vec![
            status(0, 50.0, 4, &[]),
            status(1, 40.0, 4, &[]),
            status(2, 5.0, 8, &[1]),
        ];
        let participants = vec![AppId(0), AppId(1)];
        let bids = vec![scaling_bid(0, 50.0, 0, 4), scaling_bid(1, 40.0, 1, 4)];
        let outcome = arbiter.run_auction(&offer, &statuses, &participants, &bids, &spec());
        assert_eq!(outcome.round, 1);
        // Both bidders target disjoint machines, so both win fully and no
        // leftovers remain for app 2.
        assert_eq!(outcome.winners[&AppId(0)].total(), 4);
        assert_eq!(outcome.winners[&AppId(1)].total(), 4);
        assert_eq!(total_granted(&outcome), 8);
    }

    #[test]
    fn leftovers_go_to_non_participants_near_their_footprint() {
        let mut arbiter = Arbiter::new(ThemisConfig::default());
        let offer = fv(&[(0, 4), (1, 2)]);
        // Participant 0 only bids on machine 0; machine 1 is leftover.
        let statuses = vec![
            status(0, 50.0, 4, &[]),
            status(1, 2.0, 4, &[1]), // non-participant with footprint on machine 1
            status(2, 3.0, 4, &[0]), // non-participant with footprint elsewhere
        ];
        let participants = vec![AppId(0)];
        let bids = vec![scaling_bid(0, 50.0, 0, 4)];
        let outcome = arbiter.run_auction(&offer, &statuses, &participants, &bids, &spec());
        assert_eq!(outcome.winners[&AppId(0)].total(), 4);
        // Machine 1's two GPUs go to app 1 (footprint match).
        let grant = outcome
            .leftover_grants
            .get(&AppId(1))
            .expect("app 1 gets leftovers");
        assert_eq!(grant.on_machine(MachineId(1)), 2);
        assert!(!outcome.leftover_grants.contains_key(&AppId(2)));
    }

    #[test]
    fn leftovers_fall_back_to_participants_when_no_one_else_wants_them() {
        let mut arbiter = Arbiter::new(ThemisConfig::default());
        let offer = fv(&[(0, 2), (1, 2)]);
        // Only one app in the system; it bids on machine 0 only.
        let statuses = vec![status(0, 50.0, 8, &[])];
        let participants = vec![AppId(0)];
        let bids = vec![scaling_bid(0, 50.0, 0, 2)];
        let outcome = arbiter.run_auction(&offer, &statuses, &participants, &bids, &spec());
        // Machine 1's GPUs still end up with app 0 (work conservation).
        let total = total_granted(&outcome);
        assert_eq!(total, 4);
    }

    #[test]
    fn grants_never_exceed_offer() {
        let mut arbiter = Arbiter::new(ThemisConfig::default());
        let offer = fv(&[(0, 3), (1, 1)]);
        let statuses = vec![
            status(0, 50.0, 8, &[]),
            status(1, 40.0, 8, &[]),
            status(2, 4.0, 8, &[0]),
        ];
        let participants = vec![AppId(0), AppId(1)];
        let bids = vec![scaling_bid(0, 50.0, 0, 3), scaling_bid(1, 40.0, 0, 3)];
        let outcome = arbiter.run_auction(&offer, &statuses, &participants, &bids, &spec());
        assert_eq!(total_granted(&outcome), offer.total(), "work conserving");
        let mut total = FreeVector::empty();
        for grant in outcome.into_all_grants().values() {
            total.add_assign(grant);
        }
        assert!(offer.contains_vector(&total));
        assert_eq!(total.total(), offer.total());
    }

    #[test]
    fn leftovers_are_placed_in_machine_id_order() {
        // No bids at all, so the whole offer is leftover; the lone app's
        // demand covers only half of it, and machine 0's GPUs must be the
        // half that lands.
        let mut arbiter = Arbiter::new(ThemisConfig::default());
        let offer = fv(&[(0, 8), (1, 8)]);
        let statuses = vec![status(0, 5.0, 8, &[])];
        let outcome = arbiter.run_auction(&offer, &statuses, &[], &[], &spec());
        let grant = outcome
            .leftover_grants
            .get(&AppId(0))
            .expect("app 0 takes leftovers");
        assert_eq!(grant.total(), 8);
        assert_eq!(grant.on_machine(MachineId(0)), 8);
    }
}
