//! Protocol messages exchanged between the Arbiter and the per-app Agents.
//!
//! The five steps of a Themis scheduling round (§3.1, Figure 3a) map to the
//! message types below:
//!
//! 1. Arbiter → all Agents: [`ArbiterToAgent::QueryRho`]
//! 2. Agents → Arbiter: [`AgentToArbiter::Rho`]
//! 3. Arbiter → worst-off 1−f Agents: [`ArbiterToAgent::Offer`]
//! 4. Agents → Arbiter: [`AgentToArbiter::Bid`]
//! 5. Arbiter → winning Agents: [`ArbiterToAgent::Win`]
//!
//! Lease expiry notifications round out the lifecycle.
//!
//! ## Coalesced (batch) messages
//!
//! Under Arbiter congestion ([`FaultConfig::arbiter_service_time`]) every
//! message pays a service-time slot at the Arbiter's inbox, so an
//! O(apps) storm of individual ρ replies or Win notices queues for
//! O(apps) service slots. The batch variants — [`AgentToArbiter::RhoBatch`],
//! [`ArbiterToAgent::OfferBatch`] and [`ArbiterToAgent::WinBatch`] — carry
//! the same payloads coalesced into one message per agent chunk, dropping
//! the per-round message count to O(batches). They are pure containers:
//! receivers unpack them into the exact per-app messages they coalesce, so
//! enabling batching changes delivery *timing*, never auction semantics.
//!
//! [`FaultConfig::arbiter_service_time`]: crate::fault::FaultConfig::arbiter_service_time

use crate::bid::BidTable;
use themis_cluster::alloc::FreeVector;
use themis_cluster::ids::{AppId, GpuId, JobId};
use themis_cluster::time::Time;

/// A resource offer from the Arbiter: the per-machine free-GPU vector that
/// is being auctioned, together with the auction round it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferMsg {
    /// Monotonically increasing auction round number.
    pub round: u64,
    /// Time at which the auction is run.
    pub now: Time,
    /// The free resources being auctioned.
    pub resources: FreeVector,
    /// Deadline by which the Agent must reply with a bid.
    pub reply_by: Time,
}

/// An Agent's report of its app's current finish-time fairness.
#[derive(Debug, Clone, PartialEq)]
pub struct RhoReport {
    /// The auction round whose [`ArbiterToAgent::QueryRho`] this answers.
    /// Lets the Arbiter discard reports that arrive after their round's bid
    /// deadline (a delayed reply must not masquerade as a current one).
    pub round: u64,
    /// The reporting app.
    pub app: AppId,
    /// Current estimate of ρ = T_sh / T_id.
    pub rho: f64,
}

/// A winning-allocation notification: concrete GPUs granted to one job of
/// the winning app. The lease on them is the engine's.
#[derive(Debug, Clone, PartialEq)]
pub struct WinNotification {
    /// Auction round this allocation was decided in.
    pub round: u64,
    /// The winning app.
    pub app: AppId,
    /// The job within the app the Arbiter assigned the GPUs to (the app's
    /// own scheduler may redistribute among its jobs).
    pub job: JobId,
    /// The concrete GPUs granted.
    pub gpus: Vec<GpuId>,
}

/// Messages flowing from the Arbiter to an Agent.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbiterToAgent {
    /// Step 1: ask the Agent for its app's current ρ estimate.
    QueryRho {
        /// Auction round the query belongs to.
        round: u64,
    },
    /// Step 3: offer available resources for bidding.
    Offer(OfferMsg),
    /// Step 5: notify the Agent of a winning allocation.
    Win(WinNotification),
    /// A lease held by the app has expired; the GPUs have been reclaimed.
    LeaseExpired {
        /// The GPUs that were reclaimed.
        gpus: Vec<GpuId>,
        /// When the reclamation happened.
        at: Time,
    },
    /// Step 3, coalesced: one offer addressed to a chunk of participants.
    /// Each recipient listed in `apps` treats it exactly as an
    /// [`Offer`](Self::Offer) to itself.
    OfferBatch {
        /// The shared offer (round, resources, reply-by).
        offer: OfferMsg,
        /// The participants this chunk addresses.
        apps: Vec<AppId>,
    },
    /// Step 5, coalesced: every win notification of the round bound for a
    /// chunk of winners. Each recipient applies only the entries whose
    /// `app` is its own.
    WinBatch {
        /// Auction round these allocations were decided in.
        round: u64,
        /// The coalesced win notifications, in decision order.
        wins: Vec<WinNotification>,
    },
}

/// Messages flowing from an Agent to the Arbiter.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentToArbiter {
    /// Step 2: report the app's current ρ.
    Rho(RhoReport),
    /// Step 4: submit the bid table for the current offer.
    Bid {
        /// Auction round the bid responds to.
        round: u64,
        /// The valuation table.
        table: BidTable,
    },
    /// Decline to bid in this round (e.g. the app has no runnable work).
    Pass {
        /// Auction round being passed on.
        round: u64,
        /// The passing app.
        app: AppId,
    },
    /// Step 2, coalesced: the ρ reports of one agent chunk, forwarded in
    /// a single message by the chunk member that completed the set. Never
    /// sent empty.
    RhoBatch {
        /// The auction round all coalesced reports answer.
        round: u64,
        /// The chunk's reports, in app-id order.
        reports: Vec<RhoReport>,
    },
}

impl AgentToArbiter {
    /// The app that sent this message. For a [`RhoBatch`](Self::RhoBatch)
    /// (which carries several apps' reports) this is the first coalesced
    /// report's app; batches are never sent empty.
    pub fn app(&self) -> AppId {
        match self {
            AgentToArbiter::Rho(r) => r.app,
            AgentToArbiter::Bid { table, .. } => table.app,
            AgentToArbiter::Pass { app, .. } => *app,
            AgentToArbiter::RhoBatch { reports, .. } => {
                reports.first().expect("batches are never empty").app
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_cluster::ids::MachineId;

    #[test]
    fn agent_messages_know_their_app() {
        let rho = AgentToArbiter::Rho(RhoReport {
            round: 6,
            app: AppId(4),
            rho: 2.5,
        });
        assert_eq!(rho.app(), AppId(4));

        let bid = AgentToArbiter::Bid {
            round: 1,
            table: BidTable::empty(AppId(7), 3.0),
        };
        assert_eq!(bid.app(), AppId(7));

        let pass = AgentToArbiter::Pass {
            round: 2,
            app: AppId(9),
        };
        assert_eq!(pass.app(), AppId(9));
    }

    #[test]
    fn batch_messages_know_their_round_and_app() {
        let batch = ArbiterToAgent::OfferBatch {
            offer: OfferMsg {
                round: 11,
                now: Time::minutes(1.0),
                resources: FreeVector::from_counts([(MachineId(0), 2)]),
                reply_by: Time::minutes(1.5),
            },
            apps: vec![AppId(0), AppId(3)],
        };
        match batch {
            ArbiterToAgent::OfferBatch { offer, apps } => {
                assert_eq!(offer.round, 11);
                assert_eq!(apps, vec![AppId(0), AppId(3)]);
            }
            _ => panic!("wrong variant"),
        }

        // A batch speaks for the first app it coalesces.
        let rhos = AgentToArbiter::RhoBatch {
            round: 13,
            reports: vec![
                RhoReport {
                    round: 13,
                    app: AppId(2),
                    rho: 1.5,
                },
                RhoReport {
                    round: 13,
                    app: AppId(5),
                    rho: 0.5,
                },
            ],
        };
        assert_eq!(rhos.app(), AppId(2));
        match rhos {
            AgentToArbiter::RhoBatch { round, reports } => {
                assert_eq!(round, 13);
                assert!(reports.iter().all(|r| r.round == round));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn win_notification_round_trips_fields() {
        let win = WinNotification {
            round: 5,
            app: AppId(1),
            job: JobId(2),
            gpus: vec![GpuId(3), GpuId(4)],
        };
        let msg = ArbiterToAgent::Win(win.clone());
        match msg {
            ArbiterToAgent::Win(w) => assert_eq!(w, win),
            _ => panic!("wrong variant"),
        }
    }
}
