//! The actor-based distributed Themis scheduler: the §3.1 auction as an
//! event-driven message protocol on a causal [`Network`].
//!
//! Where the in-process
//! [`ThemisScheduler`](crate::scheduler::ThemisScheduler) calls the Arbiter
//! and the Agents as plain Rust objects at a single engine instant, this
//! module runs the Arbiter and one Agent per app as **actors**: every
//! protocol step is a message with a real delivery time
//! (`send + size/bandwidth + delay + jitter`), and the round advances only
//! when deliveries and deadline timers fire. Rounds therefore overlap in
//! simulated time — a slow Agent's Bid genuinely races the bid deadline,
//! a `Win` notification can still be in flight while the next round's ρ
//! queries go out, and a whole fault family (partitions healing
//! mid-round, message reordering via jitter, Arbiter failover, bandwidth
//! backpressure) is expressible.
//!
//! ## Round state machine (Arbiter side)
//!
//! ```text
//! start round r ── QueryRho ──▶ CollectRho ── all ρ in, or rho-deadline ──▶
//!   CollectBids (Offer to worst-off 1−f) ── all bids in, or bid-deadline ──▶
//!   auction → reserve GPUs → Win ──▶ pending wins ── Win delivered ──▶ grant
//!                                        └─ win-deadline, Win lost ──▶ void
//! ```
//!
//! The phase deadlines split the 30 s bid deadline: ρ reports must arrive
//! by `start + deadline/2`, bids and Wins by `start + deadline`. A round
//! completes iff each one-way leg fits its phase, i.e. one-way delays up
//! to `deadline/4` succeed; anything slower degrades to missed rounds,
//! never to a wedged engine.
//!
//! GPUs granted by an auction are **reserved** until their `Win` is
//! delivered (grant takes effect) or the win deadline passes (grant is
//! voided, GPUs return to the next offer) — a lost `Win` can delay an
//! app, never leak a GPU, even across an Arbiter failover that voids all
//! in-flight wins.
//!
//! With [`FaultConfig::arbiter_service_time`] the Arbiter's mailbox
//! becomes a single-server queue: every message to or from the Arbiter
//! pays one service slot, so an N-agent ρ fan-in queues for N slots and
//! replies can miss the phase deadline purely from congestion.
//! [`FaultConfig::arbiter_batch`] opts this scheduler into coalesced
//! messages — chunked `QueryRho` fan-out, [`ArbiterToAgent::OfferBatch`],
//! [`AgentToArbiter::RhoBatch`] (forwarded by the chunk member whose
//! delivery completed the chunk) and [`ArbiterToAgent::WinBatch`] — which
//! cut the per-round Arbiter message count from O(apps) to
//! O(apps / batch) without changing auction semantics.
//!
//! With [`FaultConfig::reliable`] every message delivers instantly, the
//! whole cascade collapses back into one engine instant, and the decision
//! stream is identical to the in-process
//! [`ThemisScheduler`](crate::scheduler::ThemisScheduler) —
//! `tests/dist_equivalence.rs` pins that over the smoke matrix. Every
//! transport decision can be transcribed to a
//! [`MessageLog`](themis_protocol::log::MessageLog) and replayed
//! byte-identically; see [`LogMode`].

use crate::agent::{Agent, AgentBuffers};
use crate::arbiter::{AppStatus, Arbiter};
use crate::config::ThemisConfig;
use crate::rho::AwardSplit;
use crate::scheduler::materialize_grant;
use std::collections::{BTreeMap, BTreeSet};
use themis_cluster::alloc::FreeVector;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId, JobId};
use themis_cluster::time::Time;
use themis_protocol::actor::{ActorId, TimerWheel};
use themis_protocol::bid::BidTable;
use themis_protocol::fault::FaultConfig;
use themis_protocol::log::SendFate;
use themis_protocol::messages::{
    AgentToArbiter, ArbiterToAgent, OfferMsg, RhoReport, WinNotification,
};
use themis_protocol::network::{LogMode, NetMsg, Network};
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, ControlPlaneStats, Scheduler};

/// Counters describing how the message flow fared across rounds. Purely
/// observational — used by tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Rounds attempted (a round with an empty offer is not attempted).
    pub rounds: u64,
    /// Rounds in which every queried agent's ρ report arrived in time (a
    /// round with nobody to query counts as complete). `rounds −
    /// completed_rounds` is the missed-round count the storm matrix
    /// reports.
    pub completed_rounds: u64,
    /// ρ queries whose report never arrived by the bid deadline.
    pub missed_rho_reports: u64,
    /// Offers whose bid (or pass) never arrived by the bid deadline.
    pub missed_bids: u64,
    /// Win notifications lost in transit; their grants were voided.
    pub voided_wins: u64,
    /// Messages discarded because they belonged to an earlier round.
    pub stale_messages: u64,
    /// Agent-rounds spent crashed.
    pub crashed_agent_rounds: u64,
    /// Arbiter failovers: the standby Arbiter took over, voiding every
    /// in-flight Win notification.
    pub failovers: u64,
}

impl DistStats {
    /// The subset of counters reported to the engine as
    /// [`ControlPlaneStats`].
    pub fn control(&self) -> ControlPlaneStats {
        ControlPlaneStats {
            rounds: self.rounds,
            completed_rounds: self.completed_rounds,
            missed_rho_reports: self.missed_rho_reports,
            missed_bids: self.missed_bids,
            voided_wins: self.voided_wins,
        }
    }
}

/// Every protocol message, wrapped so one [`Network`] carries both
/// directions. Sizes are abstract units for the bandwidth model: offers
/// and bid tables are bulky, queries and acks are small.
#[derive(Debug, Clone)]
enum ProtoMsg {
    ToAgent(ArbiterToAgent),
    ToArbiter(AgentToArbiter),
}

impl NetMsg for ProtoMsg {
    fn log_tag(&self) -> String {
        match self {
            ProtoMsg::ToAgent(ArbiterToAgent::QueryRho { round }) => {
                format!("query-rho:r{round}")
            }
            ProtoMsg::ToAgent(ArbiterToAgent::Offer(o)) => format!("offer:r{}", o.round),
            ProtoMsg::ToAgent(ArbiterToAgent::Win(w)) => {
                format!("win:r{}:a{}:j{}", w.round, w.app.0, w.job.0)
            }
            ProtoMsg::ToAgent(ArbiterToAgent::LeaseExpired { gpus, .. }) => {
                format!("lease-expired:g{}", gpus.len())
            }
            ProtoMsg::ToAgent(ArbiterToAgent::OfferBatch { offer, apps }) => {
                format!("offer-batch:r{}:n{}", offer.round, apps.len())
            }
            ProtoMsg::ToAgent(ArbiterToAgent::WinBatch { round, wins }) => {
                format!("win-batch:r{}:n{}", round, wins.len())
            }
            ProtoMsg::ToArbiter(AgentToArbiter::Rho(r)) => {
                format!("rho:r{}:a{}", r.round, r.app.0)
            }
            ProtoMsg::ToArbiter(AgentToArbiter::RhoBatch { round, reports }) => {
                format!("rho-batch:r{}:n{}", round, reports.len())
            }
            ProtoMsg::ToArbiter(AgentToArbiter::Bid { round, table }) => {
                format!("bid:r{}:a{}", round, table.app.0)
            }
            ProtoMsg::ToArbiter(AgentToArbiter::Pass { round, app }) => {
                format!("pass:r{}:a{}", round, app.0)
            }
        }
    }

    fn size_units(&self) -> u64 {
        match self {
            ProtoMsg::ToAgent(ArbiterToAgent::Offer(_))
            | ProtoMsg::ToAgent(ArbiterToAgent::OfferBatch { .. })
            | ProtoMsg::ToArbiter(AgentToArbiter::Bid { .. }) => 4,
            ProtoMsg::ToAgent(ArbiterToAgent::Win(_)) => 2,
            // A batch is as bulky as the messages it coalesces — batching
            // saves per-message service slots, never wire bytes.
            ProtoMsg::ToAgent(ArbiterToAgent::WinBatch { wins, .. }) => {
                (2 * wins.len() as u64).max(1)
            }
            ProtoMsg::ToArbiter(AgentToArbiter::RhoBatch { reports, .. }) => {
                (reports.len() as u64).max(1)
            }
            _ => 1,
        }
    }
}

/// Protocol deadline timers, keyed by the round they belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deadline {
    /// End of the ρ-collection phase of a round.
    Rho(u64),
    /// End of the bid-collection phase (the auction runs no later than
    /// this).
    Bid(u64),
    /// Win notifications of a round not delivered by now void their
    /// grants.
    Win(u64),
}

impl Deadline {
    fn tag(self) -> String {
        match self {
            Deadline::Rho(r) => format!("rho-deadline:r{r}"),
            Deadline::Bid(r) => format!("bid-deadline:r{r}"),
            Deadline::Win(r) => format!("win-deadline:r{r}"),
        }
    }
}

/// The Agent actor: per-app protocol state.
struct AgentActor {
    agent: Agent,
    /// The actor is offline through the end of round `crashed_until - 1`.
    crashed_until: u64,
    /// Lease-expiry notices observed over the actor's lifetime.
    lease_notices: u64,
}

/// Which phase of a round the Arbiter is collecting replies for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    CollectRho,
    CollectBids,
}

/// One chunk of a batched QueryRho fan-out: how many of the chunk's
/// deliveries are still outstanding, and the ρ reports collected so far.
/// When the count hits zero the chunk member that completed it forwards
/// the reports as one [`AgentToArbiter::RhoBatch`].
struct RhoChunk {
    /// QueryRho deliveries (per the send fates) not yet processed. Drops
    /// never count — a fully-dropped chunk simply never reports, and the
    /// ρ deadline absorbs it.
    outstanding: usize,
    reports: Vec<RhoReport>,
}

/// Arbiter-side state of the round in flight (at most one).
struct RoundState {
    round: u64,
    phase: Phase,
    /// The resources offered this round (free GPUs minus reservations at
    /// round start).
    offer: FreeVector,
    /// Hard end of the round: bids and Wins must land by here.
    bid_deadline: Time,
    /// Agents queried for ρ this round.
    queried: Vec<AppId>,
    rhos: BTreeMap<AppId, f64>,
    /// Batched-mode ρ coalescing state (empty when batching is off).
    rho_chunks: Vec<RhoChunk>,
    /// Which chunk each queried app belongs to.
    chunk_of: BTreeMap<AppId, usize>,
    /// World view frozen when the bid phase opened.
    statuses: Vec<AppStatus>,
    participants: Vec<AppId>,
    tables: BTreeMap<AppId, BidTable>,
    passed: BTreeSet<AppId>,
}

/// A grant whose `Win` notification is still in flight.
struct PendingWin {
    round: u64,
    decision: AllocationDecision,
}

/// The Themis cross-app scheduler running each auction round as an
/// event-driven actor protocol (see the module docs).
pub struct DistributedThemisScheduler {
    config: ThemisConfig,
    fault: FaultConfig,
    bid_deadline: Time,
    arbiter: Arbiter,
    /// Next round number to start (round numbering survives failover).
    round: u64,
    agents: BTreeMap<AppId, AgentActor>,
    net: Network<ProtoMsg>,
    timers: TimerWheel<Deadline>,
    state: Option<RoundState>,
    /// Grants awaiting Win delivery; their GPUs are in `reserved`.
    pending_wins: Vec<PendingWin>,
    /// Confirmed decisions not yet handed to the engine.
    ready: Vec<AllocationDecision>,
    /// GPUs promised to in-flight Wins: excluded from offers and shadows
    /// until the Win is confirmed or voided.
    reserved: BTreeMap<GpuId, (AppId, JobId)>,
    /// An active partition heals at the start of this round.
    partition_until: u64,
    /// Per-app GPU sets as last observed, for LeaseExpired notifications.
    observed_gpus: BTreeMap<AppId, BTreeSet<GpuId>>,
    stats: DistStats,
    /// What an Agent call reads — probes, bids, and a winner's estimates
    /// as they stand when its grant is materialized — and the award split,
    /// kept across messages and auctions.
    buffers: AgentBuffers,
    split: AwardSplit,
}

impl std::fmt::Debug for DistributedThemisScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedThemisScheduler")
            .field("config", &self.config)
            .field("fault", &self.fault)
            .field("round", &self.round)
            .field("pending_wins", &self.pending_wins.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl DistributedThemisScheduler {
    /// Creates an actor-based distributed scheduler with the given Themis
    /// tunables and network fault model. `FaultConfig::reliable()`
    /// reproduces the in-process
    /// [`ThemisScheduler`](crate::scheduler::ThemisScheduler) exactly.
    pub fn new(config: ThemisConfig, fault: FaultConfig) -> Self {
        Self::with_log_mode(config, fault, LogMode::Off)
    }

    /// Like [`new`](Self::new), but transcribing (or replaying) every
    /// transport decision per the given [`LogMode`].
    pub fn with_log_mode(config: ThemisConfig, fault: FaultConfig, mode: LogMode) -> Self {
        DistributedThemisScheduler {
            arbiter: Arbiter::new(config),
            fault,
            bid_deadline: Time::seconds(30.0),
            round: 0,
            agents: BTreeMap::new(),
            net: Network::new(fault, mode),
            timers: TimerWheel::new(),
            state: None,
            pending_wins: Vec::new(),
            ready: Vec::new(),
            reserved: BTreeMap::new(),
            partition_until: 0,
            observed_gpus: BTreeMap::new(),
            stats: DistStats::default(),
            buffers: AgentBuffers::default(),
            split: AwardSplit::default(),
            config,
        }
    }

    /// Overrides the per-round bid deadline (default 30 s). The ρ phase
    /// ends at half of it; one-way delays up to a quarter of it complete
    /// rounds.
    #[must_use]
    pub fn with_bid_deadline(mut self, deadline: Time) -> Self {
        assert!(deadline > Time::ZERO, "bid deadline must be positive");
        self.bid_deadline = deadline;
        self
    }

    /// Message-flow counters accumulated so far.
    pub fn stats(&self) -> &DistStats {
        &self.stats
    }

    /// Delivery/drop counters of the underlying network.
    pub fn net_stats(&self) -> themis_protocol::network::NetStats {
        self.net.stats()
    }

    /// GPUs currently reserved for in-flight Win notifications.
    pub fn reserved_gpus(&self) -> usize {
        self.reserved.len()
    }

    /// The free vector minus GPUs promised to in-flight or just-confirmed
    /// grants the engine has not applied yet.
    fn effective_free(&self, cluster: &Cluster) -> FreeVector {
        let mut free = cluster.free_vector();
        let spec = cluster.spec();
        let withheld = self
            .reserved
            .keys()
            .copied()
            .chain(self.ready.iter().flat_map(|d| d.gpus.iter().copied()));
        for gpu in withheld {
            if let Some(machine) = spec.machine_of(gpu) {
                let n = free.on_machine(machine);
                free.set(machine, n.saturating_sub(1));
            }
        }
        free
    }

    fn cancel_timer(&mut self, kind: Deadline) {
        self.timers.retain(|t| *t != kind);
    }

    fn arm_timer(&mut self, now: Time, fire_at: Time, kind: Deadline) {
        self.net.note_timer(now, fire_at, &kind.tag());
        self.timers.schedule(fire_at, kind);
    }

    /// Processes every network delivery and timer due at or before `now`,
    /// in global time order (deliveries before timers at equal times),
    /// until the actor system is quiescent.
    fn pump(&mut self, now: Time, cluster: &Cluster, apps: &AppArena) {
        loop {
            let net_at = self.net.next_event_time().filter(|t| *t <= now);
            let timer_at = self.timers.next_time().filter(|t| *t <= now);
            let deliver_first = match (net_at, timer_at) {
                (None, None) => return,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(n), Some(t)) => n <= t,
            };
            if deliver_first {
                let (at, _seq, src, dst, msg) =
                    self.net.pop_due(now).expect("due delivery observed");
                self.deliver(at, src, dst, msg, cluster, apps);
            } else {
                let (at, kind) = self.timers.pop_due(now).expect("due timer observed");
                self.fire_timer(at, kind, cluster, apps);
            }
        }
    }

    /// Dispatches one delivered message to its destination actor.
    fn deliver(
        &mut self,
        at: Time,
        _src: ActorId,
        dst: ActorId,
        msg: ProtoMsg,
        cluster: &Cluster,
        apps: &AppArena,
    ) {
        match (dst.app(), msg) {
            (None, ProtoMsg::ToArbiter(msg)) => self.arbiter_receive(at, msg, cluster, apps),
            (Some(app), ProtoMsg::ToAgent(msg)) => self.agent_receive(at, app, msg, cluster, apps),
            // A message routed to the wrong kind of actor cannot happen
            // with this scheduler's send sites.
            _ => unreachable!("misrouted protocol message"),
        }
    }

    /// The Agent actor's handler: answer ρ queries, bid on offers,
    /// acknowledge Wins (by confirming the pending grant) and count lease
    /// notices. A crashed agent ignores round-scoped traffic — except that
    /// in batched mode even a silent agent's QueryRho delivery still
    /// decrements its chunk's outstanding count (the chunk must not wait
    /// forever for a reply that will never exist).
    fn agent_receive(
        &mut self,
        at: Time,
        app: AppId,
        msg: ArbiterToAgent,
        cluster: &Cluster,
        apps: &AppArena,
    ) {
        let Some(actor) = self.agents.get_mut(&app) else {
            return;
        };
        if let ArbiterToAgent::LeaseExpired { .. } = msg {
            actor.lease_notices += 1;
            return;
        }
        let round = match &msg {
            ArbiterToAgent::QueryRho { round } => *round,
            ArbiterToAgent::Offer(o) => o.round,
            ArbiterToAgent::OfferBatch { offer, .. } => offer.round,
            ArbiterToAgent::Win(w) => w.round,
            ArbiterToAgent::WinBatch { round, .. } => *round,
            ArbiterToAgent::LeaseExpired { .. } => unreachable!("handled above"),
        };
        let crashed = actor.crashed_until > round;
        if let ArbiterToAgent::QueryRho { round } = msg {
            // A report exists only from a live, unfinished agent; crashed
            // or finished ones stay silent (their chunk slot still
            // resolves below).
            let report = match apps.get(app) {
                Some(runtime) if !crashed && !runtime.is_finished() => {
                    let rho = self.buffers.current_rho(at, runtime, cluster).rho;
                    Some(RhoReport { round, app, rho })
                }
                _ => None,
            };
            if self.fault.arbiter_batch > 0 {
                self.note_rho_chunk_delivery(at, round, app, report);
            } else if let Some(report) = report {
                self.net.send(
                    at,
                    ActorId::agent(app),
                    ActorId::ARBITER,
                    ProtoMsg::ToArbiter(AgentToArbiter::Rho(report)),
                );
            }
            return;
        }
        if crashed {
            // Crashed for this round: the message evaporates (a lost Win
            // is voided by the win deadline, never granted blind).
            return;
        }
        let Some(runtime) = apps.get(app) else {
            return;
        };
        match msg {
            ArbiterToAgent::Offer(offer) | ArbiterToAgent::OfferBatch { offer, .. } => {
                // A batched offer reads exactly like an individual one: the
                // recipient is addressed by construction, the app list only
                // names the chunk.
                if runtime.is_finished() {
                    return;
                }
                let actor = self.agents.get_mut(&app).expect("actor exists");
                let table = self.buffers.prepare_bid(
                    &mut actor.agent,
                    at,
                    runtime,
                    cluster,
                    &offer.resources,
                );
                let reply = if table.is_empty() {
                    AgentToArbiter::Pass { round, app }
                } else {
                    AgentToArbiter::Bid { round, table }
                };
                self.net.send(
                    at,
                    ActorId::agent(app),
                    ActorId::ARBITER,
                    ProtoMsg::ToArbiter(reply),
                );
            }
            ArbiterToAgent::Win(win) => self.confirm_win(&win),
            ArbiterToAgent::WinBatch { wins, .. } => {
                // Apply only this agent's entries; the rest of the batch
                // belongs to the chunk's other winners.
                for win in wins.iter().filter(|w| w.app == app) {
                    self.confirm_win(win);
                }
            }
            ArbiterToAgent::QueryRho { .. } | ArbiterToAgent::LeaseExpired { .. } => {
                unreachable!("handled above")
            }
        }
    }

    /// Confirms one delivered win: move the grant from pending to ready and
    /// release its reservation (the engine will allocate the GPUs for real
    /// when we return them).
    fn confirm_win(&mut self, win: &WinNotification) {
        if let Some(idx) = self.pending_wins.iter().position(|p| {
            p.round == win.round && p.decision.app == win.app && p.decision.job == win.job
        }) {
            let pending = self.pending_wins.remove(idx);
            for gpu in &pending.decision.gpus {
                self.reserved.remove(gpu);
            }
            let round = pending.round;
            self.ready.push(pending.decision);
            if !self.pending_wins.iter().any(|p| p.round == round) {
                self.cancel_timer(Deadline::Win(round));
            }
        } else {
            self.stats.stale_messages += 1;
        }
    }

    /// Batched-mode chunk bookkeeping for one QueryRho delivery: record the
    /// report (if the agent produced one), and when the chunk's last
    /// outstanding delivery resolves, forward the collected reports to the
    /// Arbiter as a single [`AgentToArbiter::RhoBatch`] from the completing
    /// live member. A chunk whose members were all silent sends nothing.
    fn note_rho_chunk_delivery(
        &mut self,
        at: Time,
        round: u64,
        app: AppId,
        report: Option<RhoReport>,
    ) {
        let Some(state) = self.state.as_mut().filter(|s| s.round == round) else {
            // The round moved on (ρ deadline passed): a report now would be
            // stale at the Arbiter anyway, so the delivery just evaporates.
            return;
        };
        let Some(&idx) = state.chunk_of.get(&app) else {
            return;
        };
        let chunk = &mut state.rho_chunks[idx];
        if chunk.outstanding == 0 {
            return;
        }
        chunk.outstanding -= 1;
        if let Some(report) = report {
            chunk.reports.push(report);
        }
        if chunk.outstanding == 0 && !chunk.reports.is_empty() {
            let mut reports = std::mem::take(&mut chunk.reports);
            reports.sort_by_key(|r| r.app);
            let src = ActorId::agent(reports.last().expect("nonempty").app);
            self.net.send(
                at,
                src,
                ActorId::ARBITER,
                ProtoMsg::ToArbiter(AgentToArbiter::RhoBatch { round, reports }),
            );
        }
    }

    /// The Arbiter actor's handler: collect ρ reports and bids for the
    /// round in flight; anything else is stale.
    fn arbiter_receive(
        &mut self,
        at: Time,
        msg: AgentToArbiter,
        cluster: &Cluster,
        apps: &AppArena,
    ) {
        let Some((round, phase)) = self.state.as_ref().map(|s| (s.round, s.phase)) else {
            self.stats.stale_messages += 1;
            return;
        };
        match msg {
            AgentToArbiter::Rho(report) if report.round == round && phase == Phase::CollectRho => {
                let state = self.state.as_mut().expect("round in flight");
                state.rhos.insert(report.app, report.rho);
                if state.rhos.len() == state.queried.len() {
                    self.advance_to_bids(at, cluster, apps);
                }
            }
            AgentToArbiter::RhoBatch { round: r, reports }
                if r == round && phase == Phase::CollectRho =>
            {
                let state = self.state.as_mut().expect("round in flight");
                for report in reports {
                    state.rhos.insert(report.app, report.rho);
                }
                if state.rhos.len() == state.queried.len() {
                    self.advance_to_bids(at, cluster, apps);
                }
            }
            AgentToArbiter::Bid { round: r, table }
                if r == round && phase == Phase::CollectBids =>
            {
                let state = self.state.as_mut().expect("round in flight");
                state.tables.insert(table.app, table);
                self.try_run_auction(at, cluster, apps);
            }
            AgentToArbiter::Pass { round: r, app } if r == round && phase == Phase::CollectBids => {
                let state = self.state.as_mut().expect("round in flight");
                state.passed.insert(app);
                self.try_run_auction(at, cluster, apps);
            }
            _ => self.stats.stale_messages += 1,
        }
    }

    fn fire_timer(&mut self, at: Time, kind: Deadline, cluster: &Cluster, apps: &AppArena) {
        match kind {
            Deadline::Rho(round) => {
                if self
                    .state
                    .as_ref()
                    .is_some_and(|s| s.round == round && s.phase == Phase::CollectRho)
                {
                    self.advance_to_bids(at, cluster, apps);
                }
            }
            Deadline::Bid(round) => {
                if self
                    .state
                    .as_ref()
                    .is_some_and(|s| s.round == round && s.phase == Phase::CollectBids)
                {
                    self.run_auction(at, cluster, apps);
                }
            }
            Deadline::Win(round) => self.void_pending_wins_of_round(round),
        }
    }

    /// Voids every still-pending win of `round`: the GPUs return to the
    /// pool (unreserved) and are re-auctioned in a later round.
    fn void_pending_wins_of_round(&mut self, round: u64) {
        let before = self.pending_wins.len();
        self.pending_wins.retain(|p| {
            if p.round != round {
                return true;
            }
            for gpu in &p.decision.gpus {
                self.reserved.remove(gpu);
            }
            false
        });
        self.stats.voided_wins += (before - self.pending_wins.len()) as u64;
    }

    /// Closes the ρ phase: freeze the world view from the reports that
    /// made it, then offer to the worst-off `1 − f` fraction.
    fn advance_to_bids(&mut self, at: Time, cluster: &Cluster, apps: &AppArena) {
        let mut state = self.state.take().expect("round in flight");
        let round = state.round;
        self.cancel_timer(Deadline::Rho(round));
        state.phase = Phase::CollectBids;
        let missed = state
            .queried
            .iter()
            .filter(|app| !state.rhos.contains_key(app))
            .count() as u64;
        self.stats.missed_rho_reports += missed;
        if missed == 0 {
            self.stats.completed_rounds += 1;
        }
        let mut statuses: Vec<AppStatus> = Vec::new();
        for (&app, &rho) in &state.rhos {
            let Some(runtime) = apps.get(app) else {
                continue;
            };
            if !runtime.is_schedulable(at) {
                continue;
            }
            statuses.push(AppStatus {
                app,
                rho,
                unmet_demand: runtime.unmet_demand(cluster),
                footprint: cluster.gpus_of_app(app).machines(cluster.spec()),
            });
        }
        if statuses.iter().all(|s| s.unmet_demand == 0) {
            // Nobody needs anything (or nobody answered): the round ends
            // without an auction, exactly like the in-process early
            // return. `state` is dropped here.
            return;
        }
        let participants = self.arbiter.select_participants(&statuses);
        let offer_msg = OfferMsg {
            round,
            now: at,
            resources: state.offer.clone(),
            reply_by: state.bid_deadline,
        };
        let bid_deadline = state.bid_deadline;
        state.statuses = statuses;
        state.participants = participants.clone();
        self.state = Some(state);
        let batch = self.fault.arbiter_batch as usize;
        if batch > 0 {
            for chunk in participants.chunks(batch) {
                let dsts: Vec<ActorId> = chunk.iter().map(|&a| ActorId::agent(a)).collect();
                self.net.send_multi(
                    at,
                    ActorId::ARBITER,
                    &dsts,
                    ProtoMsg::ToAgent(ArbiterToAgent::OfferBatch {
                        offer: offer_msg.clone(),
                        apps: chunk.to_vec(),
                    }),
                );
            }
        } else {
            for &app in &participants {
                self.net.send(
                    at,
                    ActorId::ARBITER,
                    ActorId::agent(app),
                    ProtoMsg::ToAgent(ArbiterToAgent::Offer(offer_msg.clone())),
                );
            }
        }
        // Some status has unmet demand, so `select_participants` chose at
        // least one app and the round waits for its bid.
        self.arm_timer(at, bid_deadline, Deadline::Bid(round));
    }

    /// Runs the auction early if every participant has bid or passed.
    fn try_run_auction(&mut self, at: Time, cluster: &Cluster, apps: &AppArena) {
        let state = self.state.as_ref().expect("round in flight");
        let complete = state
            .participants
            .iter()
            .all(|app| state.tables.contains_key(app) || state.passed.contains(app));
        if complete {
            let round = state.round;
            self.cancel_timer(Deadline::Bid(round));
            self.run_auction(at, cluster, apps);
        }
    }

    /// Step 5: the partial-allocation auction over whatever arrived,
    /// grants reserved behind in-flight Win notifications.
    fn run_auction(&mut self, at: Time, cluster: &Cluster, apps: &AppArena) {
        let mut state = self.state.take().expect("round in flight");
        let round = state.round;
        for app in &state.participants {
            if !state.tables.contains_key(app) && !state.passed.contains(app) {
                self.stats.missed_bids += 1;
            }
        }
        // Bids in participant (worst-ρ-first) order, as the in-process
        // scheduler submits them.
        let bids: Vec<BidTable> = state
            .participants
            .iter()
            .filter_map(|app| state.tables.remove(app))
            .collect();
        let outcome = self.arbiter.run_auction(
            &state.offer,
            &state.statuses,
            &state.participants,
            &bids,
            cluster.spec(),
        );
        // The shadow starts from the *current* cluster and pre-allocates
        // every GPU already promised elsewhere (in-flight wins, confirmed
        // but unapplied grants), so overlapping rounds can never hand out
        // the same GPU twice.
        let mut shadow = cluster.view();
        for (&gpu, &(app, job)) in &self.reserved {
            let _ = shadow.allocate(gpu, app, job);
        }
        for decision in &self.ready {
            for &gpu in &decision.gpus {
                let _ = shadow.allocate(gpu, decision.app, decision.job);
            }
        }
        let mut decisions = Vec::new();
        for (app, grant) in outcome.into_all_grants() {
            let Some(runtime) = apps.get(app) else {
                continue;
            };
            let (context, _) = self.buffers.probe(at, runtime, cluster);
            materialize_grant(
                app,
                context.estimates,
                &mut shadow,
                &grant,
                &mut self.split,
                &mut decisions,
            );
        }
        // Notify winners; each grant stays reserved until its Win lands.
        let any = !decisions.is_empty();
        let win_of = |d: &AllocationDecision| WinNotification {
            round,
            app: d.app,
            job: d.job,
            gpus: d.gpus.clone(),
        };
        let batch = self.fault.arbiter_batch as usize;
        if batch > 0 {
            // Chunk the *winners* (in decision order); each chunk's batch
            // carries every win bound for a chunk member, and each member
            // filters out its own on delivery.
            let mut winners: Vec<AppId> = Vec::new();
            for d in &decisions {
                if !winners.contains(&d.app) {
                    winners.push(d.app);
                }
            }
            for chunk in winners.chunks(batch) {
                let wins: Vec<WinNotification> = decisions
                    .iter()
                    .filter(|d| chunk.contains(&d.app))
                    .map(win_of)
                    .collect();
                let dsts: Vec<ActorId> = chunk.iter().map(|&a| ActorId::agent(a)).collect();
                self.net.send_multi(
                    at,
                    ActorId::ARBITER,
                    &dsts,
                    ProtoMsg::ToAgent(ArbiterToAgent::WinBatch { round, wins }),
                );
            }
        } else {
            for decision in &decisions {
                self.net.send(
                    at,
                    ActorId::ARBITER,
                    ActorId::agent(decision.app),
                    ProtoMsg::ToAgent(ArbiterToAgent::Win(win_of(decision))),
                );
            }
        }
        for decision in decisions {
            for &gpu in &decision.gpus {
                self.reserved.insert(gpu, (decision.app, decision.job));
            }
            self.pending_wins.push(PendingWin { round, decision });
        }
        if any {
            self.arm_timer(at, state.bid_deadline, Deadline::Win(round));
        }
    }

    /// Starts a new round if none is in flight and there is anything left
    /// to offer; applies the failover / partition / crash schedules and
    /// lease notices at the round boundary.
    fn maybe_start_round(&mut self, now: Time, cluster: &Cluster, apps: &AppArena) {
        if self.state.is_some() {
            return;
        }
        let offer = self.effective_free(cluster);
        if offer.is_empty() {
            return;
        }
        let round = self.round;
        self.round += 1;
        self.stats.rounds += 1;

        let schedulable: Vec<AppId> = apps
            .iter()
            .filter(|a| a.is_schedulable(now))
            .map(|a| a.id())
            .collect();
        for &app in &schedulable {
            self.agents.entry(app).or_insert_with(|| AgentActor {
                agent: Agent::new(app, &self.config),
                crashed_until: 0,
                lease_notices: 0,
            });
        }
        self.apply_failover_schedule(round);
        self.apply_partition_schedule(round);
        self.apply_crash_schedule(round);
        self.send_lease_notices(now, cluster);

        let bid_deadline = now + self.bid_deadline;
        let rho_deadline = now + self.bid_deadline * 0.5;
        let batch = self.fault.arbiter_batch as usize;
        let mut rho_chunks: Vec<RhoChunk> = Vec::new();
        let mut chunk_of: BTreeMap<AppId, usize> = BTreeMap::new();
        if batch > 0 {
            for chunk in schedulable.chunks(batch) {
                let dsts: Vec<ActorId> = chunk.iter().map(|&a| ActorId::agent(a)).collect();
                let fates = self.net.send_multi(
                    now,
                    ActorId::ARBITER,
                    &dsts,
                    ProtoMsg::ToAgent(ArbiterToAgent::QueryRho { round }),
                );
                // Only deliveries can resolve a chunk slot: a dropped query
                // never arrives, so it must not be waited for.
                let outstanding = fates
                    .iter()
                    .filter(|f| matches!(f, SendFate::Deliver { .. }))
                    .count();
                let idx = rho_chunks.len();
                for &app in chunk {
                    chunk_of.insert(app, idx);
                }
                rho_chunks.push(RhoChunk {
                    outstanding,
                    reports: Vec::new(),
                });
            }
        } else {
            for &app in &schedulable {
                self.net.send(
                    now,
                    ActorId::ARBITER,
                    ActorId::agent(app),
                    ProtoMsg::ToAgent(ArbiterToAgent::QueryRho { round }),
                );
            }
        }
        self.state = Some(RoundState {
            round,
            phase: Phase::CollectRho,
            offer,
            bid_deadline,
            queried: schedulable,
            rhos: BTreeMap::new(),
            rho_chunks,
            chunk_of,
            statuses: Vec::new(),
            participants: Vec::new(),
            tables: BTreeMap::new(),
            passed: BTreeSet::new(),
        });
        if self.state.as_ref().expect("just set").queried.is_empty() {
            // No one to ask: close the ρ phase immediately (the round
            // ends without an auction, like the in-process early return).
            self.advance_to_bids(now, cluster, apps);
        } else {
            self.arm_timer(now, rho_deadline, Deadline::Rho(round));
        }
    }

    /// Arbiter failover: the standby takes over with no memory of
    /// in-flight Wins — they are voided (GPUs return to the pool), and
    /// the auction state is rebuilt from scratch.
    fn apply_failover_schedule(&mut self, round: u64) {
        if self.fault.failover_period == 0 || !round.is_multiple_of(self.fault.failover_period) {
            return;
        }
        self.stats.failovers += 1;
        let voided = self.pending_wins.len() as u64;
        for pending in self.pending_wins.drain(..) {
            for gpu in &pending.decision.gpus {
                self.reserved.remove(gpu);
            }
        }
        self.stats.voided_wins += voided;
        self.timers.retain(|t| !matches!(t, Deadline::Win(_)));
        self.arbiter = Arbiter::new(self.config);
    }

    /// Partition injection: every `partition_period`-th round the upper
    /// half of the Agents (by app id) is cut off for `partition_rounds`
    /// rounds, then the partition heals. Messages already in flight when
    /// the cut happens still deliver — only traffic crossing an *active*
    /// partition is lost.
    fn apply_partition_schedule(&mut self, round: u64) {
        if self.fault.partition_period == 0 || self.fault.partition_rounds == 0 {
            return;
        }
        if !self.net.isolated().is_empty() && round >= self.partition_until {
            self.net.heal_partition();
        }
        if round.is_multiple_of(self.fault.partition_period) && self.agents.len() >= 2 {
            let ids: Vec<AppId> = self.agents.keys().copied().collect();
            let isolated: BTreeSet<ActorId> = ids[ids.len() / 2..]
                .iter()
                .map(|&app| ActorId::agent(app))
                .collect();
            self.net.set_partition(isolated);
            self.partition_until = round + self.fault.partition_rounds;
        }
    }

    /// Crash injection: every `crash_period`-th round, the next actor in
    /// app-id order goes offline for `crash_rounds` rounds.
    fn apply_crash_schedule(&mut self, round: u64) {
        if self.fault.crash_period == 0 || self.fault.crash_rounds == 0 || self.agents.is_empty() {
            return;
        }
        if round.is_multiple_of(self.fault.crash_period) {
            let victim_idx = (round / self.fault.crash_period) as usize % self.agents.len();
            let victim = *self.agents.keys().nth(victim_idx).expect("index in range");
            let actor = self.agents.get_mut(&victim).expect("actor exists");
            actor.crashed_until = actor.crashed_until.max(round + self.fault.crash_rounds);
        }
        self.stats.crashed_agent_rounds += self
            .agents
            .values()
            .filter(|a| a.crashed_until > round)
            .count() as u64;
    }

    /// Notifies Agents of GPUs they lost since the previous round (lease
    /// expiry, job completion or HPO kill — all reclamations look the
    /// same from the Agent's side).
    fn send_lease_notices(&mut self, now: Time, cluster: &Cluster) {
        let apps: Vec<AppId> = self.agents.keys().copied().collect();
        for app in apps {
            let current: BTreeSet<GpuId> = cluster.gpus_of_app(app).iter().collect();
            if let Some(previous) = self.observed_gpus.get(&app) {
                let lost: Vec<GpuId> = previous.difference(&current).copied().collect();
                if !lost.is_empty() {
                    self.net.send(
                        now,
                        ActorId::ARBITER,
                        ActorId::agent(app),
                        ProtoMsg::ToAgent(ArbiterToAgent::LeaseExpired {
                            gpus: lost,
                            at: now,
                        }),
                    );
                }
            }
            self.observed_gpus.insert(app, current);
        }
    }

    #[cfg(test)]
    fn lease_notices(&self, app: AppId) -> u64 {
        self.agents.get(&app).map_or(0, |a| a.lease_notices)
    }
}

impl Scheduler for DistributedThemisScheduler {
    fn name(&self) -> &'static str {
        "themis-dist"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        // Drive the actors through everything due by now (message
        // deliveries, phase deadlines), possibly completing in-flight
        // rounds…
        self.pump(now, cluster, apps);
        // …then start a new round if none is in flight and something is
        // free. With zero-latency reliable links the whole round cascades
        // through this second pump within the same instant.
        self.maybe_start_round(now, cluster, apps);
        self.pump(now, cluster, apps);
        std::mem::take(&mut self.ready)
    }

    fn next_wakeup(&self) -> Option<Time> {
        match (self.net.next_event_time(), self.timers.next_time()) {
            (Some(n), Some(t)) => Some(n.min(t)),
            (n, t) => n.or(t),
        }
    }

    /// `schedule` doubles as the actor-runtime pump: even a round that can
    /// grant nothing must deliver due messages and fire timers, so skipping
    /// the call would change behaviour.
    fn supports_incremental(&self) -> bool {
        false
    }

    fn control_stats(&self) -> Option<ControlPlaneStats> {
        Some(self.stats.control())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ThemisScheduler;
    use themis_cluster::topology::ClusterSpec;
    use themis_sim::app_runtime::AppRuntime;
    use themis_workload::app::AppSpec;
    use themis_workload::job::JobSpec;
    use themis_workload::models::ModelArch;

    fn world(napps: u32) -> (Cluster, AppArena) {
        let cluster = Cluster::new(ClusterSpec::homogeneous(1, 2, 4));
        let apps: AppArena = (0..napps)
            .map(|i| {
                let job = JobSpec::new(JobId(0), ModelArch::ResNet50, 400.0, Time::minutes(0.1), 4);
                AppRuntime::with_default_hpo(AppSpec::single_job(AppId(i), Time::ZERO, job))
            })
            .collect();
        (cluster, apps)
    }

    #[test]
    fn reliable_round_matches_in_process_decisions() {
        let (cluster, apps) = world(3);
        let config = ThemisConfig::default().with_seed(7);
        let mut in_process = ThemisScheduler::new(config);
        let mut dist = DistributedThemisScheduler::new(config, FaultConfig::reliable());
        let now = Time::minutes(5.0);
        let a = in_process.schedule(now, &cluster, &apps);
        let b = dist.schedule(now, &cluster, &apps);
        assert_eq!(a, b, "reliable actors must reproduce in-process Themis");
        assert!(!b.is_empty());
        // The actor system is quiescent: no wakeup needed, nothing
        // reserved or pending.
        assert_eq!(dist.next_wakeup(), None);
        assert_eq!(dist.reserved_gpus(), 0);
        let stats = dist.stats();
        assert_eq!(stats.missed_rho_reports, 0);
        assert_eq!(stats.missed_bids, 0);
        assert_eq!(stats.voided_wins, 0);
    }

    /// A batch is as bulky as the singletons it coalesces: n wins cost n
    /// `Win`s, n reports cost n `Rho`s, and an empty batch costs one unit.
    #[test]
    fn a_batch_costs_what_its_singletons_cost() {
        let win = |app: u32| WinNotification {
            round: 1,
            app: AppId(app),
            job: JobId(0),
            gpus: vec![GpuId(app)],
        };
        let rho = |app: u32| RhoReport {
            round: 1,
            app: AppId(app),
            rho: 2.0,
        };
        let one_win = ProtoMsg::ToAgent(ArbiterToAgent::Win(win(0))).size_units();
        let one_rho = ProtoMsg::ToArbiter(AgentToArbiter::Rho(rho(0))).size_units();
        for n in 0..5u32 {
            let cost = |unit: u64| if n == 0 { 1 } else { u64::from(n) * unit };
            let wins = ProtoMsg::ToAgent(ArbiterToAgent::WinBatch {
                round: 1,
                wins: (0..n).map(win).collect(),
            });
            assert_eq!(wins.size_units(), cost(one_win), "{n} wins");
            let reports = ProtoMsg::ToArbiter(AgentToArbiter::RhoBatch {
                round: 1,
                reports: (0..n).map(rho).collect(),
            });
            assert_eq!(reports.size_units(), cost(one_rho), "{n} reports");
        }
    }

    /// With a 5 s one-way delay every leg fits its phase: the round
    /// completes 25 s after it started, driven by wakeup-time `schedule`
    /// calls — the decisions arrive *later* in simulated time, unlike the
    /// in-process scheduler's.
    #[test]
    fn delayed_round_completes_across_wakeups() {
        let (cluster, apps) = world(2);
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable().with_delay(Time::seconds(5.0)),
        );
        let t0 = Time::minutes(1.0);
        assert!(
            dist.schedule(t0, &cluster, &apps).is_empty(),
            "with 5 s latency no decision can exist at round start"
        );
        let mut decisions = Vec::new();
        let mut last = t0;
        let mut steps = 0;
        while let Some(wake) = dist.next_wakeup() {
            assert!(wake >= last, "wakeups advance monotonically");
            last = wake;
            decisions.extend(dist.schedule(wake, &cluster, &apps));
            // Stop as soon as the first round's grants landed.
            if !decisions.is_empty() {
                break;
            }
            steps += 1;
            assert!(steps < 20, "round never completed");
        }
        assert!(!decisions.is_empty());
        // Query +5s, ρ +10s, offer +15s, bid +20s, win +25s: the round
        // completed a full five-leg exchange, 25 s after it started (up
        // to float accumulation across the five legs).
        let expected = t0 + Time::seconds(25.0);
        assert!(
            (last.as_minutes() - expected.as_minutes()).abs() < 1e-9,
            "expected completion near {expected:?}, got {last:?}"
        );
        assert_eq!(dist.stats().voided_wins, 0);
        assert_eq!(dist.stats().missed_rho_reports, 0);
        assert_eq!(dist.reserved_gpus(), 0);
    }

    /// A one-way delay beyond the ρ deadline makes every agent miss every
    /// round; nothing is granted and nothing wedges.
    #[test]
    fn over_delayed_rounds_are_missed_not_wedged() {
        let (cluster, apps) = world(2);
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable().with_delay(Time::seconds(20.0)),
        );
        let mut now = Time::minutes(1.0);
        for _ in 0..6 {
            assert!(dist.schedule(now, &cluster, &apps).is_empty());
            now = dist.next_wakeup().expect("replies or deadlines pending");
        }
        assert!(dist.stats().rounds >= 2);
        assert!(dist.stats().missed_rho_reports > 0);
        assert!(dist.stats().stale_messages > 0, "late replies are stale");
    }

    #[test]
    fn fully_lossy_link_never_wedges_a_round() {
        let (cluster, apps) = world(2);
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable().with_drop_probability(1.0),
        );
        let mut now = Time::minutes(1.0);
        for _ in 0..10 {
            assert!(dist.schedule(now, &cluster, &apps).is_empty());
            now = dist
                .next_wakeup()
                .unwrap_or(now + Time::minutes(1.0))
                .max(now + Time::seconds(1.0));
        }
        assert!(dist.stats().rounds >= 2);
        assert!(dist.stats().missed_rho_reports >= 2 * dist.stats().rounds - 2);
    }

    #[test]
    fn crash_schedule_takes_one_agent_offline_round_robin() {
        let (cluster, apps) = world(2);
        // Every round, one agent crashes for exactly that round.
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable().with_crash(1, 1),
        );
        // Round 0 crashes app 0 (victim index 0); its ρ never arrives, so
        // the round completes at the ρ deadline with app 1 alone.
        let mut d0 = dist.schedule(Time::minutes(1.0), &cluster, &apps);
        while d0.is_empty() {
            let wake = dist.next_wakeup().expect("deadline pending");
            d0 = dist.schedule(wake, &cluster, &apps);
        }
        assert!(d0.iter().all(|d| d.app == AppId(1)), "app 0 is offline");
        assert!(!d0.is_empty(), "the surviving agent still wins GPUs");
        assert!(dist.stats().crashed_agent_rounds >= 1);
    }

    /// Drives the scheduler until quiescent-enough, then jumps past the
    /// last possible win deadline so every reservation must have resolved
    /// (confirmed or voided).
    fn drive_then_drain(
        dist: &mut DistributedThemisScheduler,
        cluster: &Cluster,
        apps: &AppArena,
        iterations: usize,
    ) -> usize {
        let mut now = Time::minutes(1.0);
        let mut granted = 0;
        for _ in 0..iterations {
            granted += dist.schedule(now, cluster, apps).len();
            now = dist
                .next_wakeup()
                .unwrap_or(now + Time::minutes(1.0))
                .max(now);
        }
        // Every win sent so far has a deadline no later than its round's
        // start + 30 s ≤ now + 30 s; one call past that resolves them all,
        // and the round it starts cannot reach its own auction within the
        // same instant under a faulty config.
        granted += dist
            .schedule(now + Time::seconds(31.0), cluster, apps)
            .len();
        granted
    }

    #[test]
    fn lossy_reservations_always_drain() {
        let (cluster, apps) = world(1);
        // Half of all messages vanish: some Win notifications are lost in
        // transit, and their grants must be voided by the win deadline —
        // a lost Win may delay the app, never leak a GPU.
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable()
                .with_drop_probability(0.5)
                .with_delay(Time::seconds(5.0))
                .with_seed(3),
        );
        drive_then_drain(&mut dist, &cluster, &apps, 200);
        assert!(dist.stats().rounds > 10);
        assert_eq!(
            dist.reserved_gpus(),
            0,
            "reservations must drain via delivery or win-deadline voiding"
        );
        let s = dist.stats();
        assert!(
            s.voided_wins + s.missed_bids + s.missed_rho_reports > 0,
            "a 50% loss rate must visibly degrade the protocol"
        );
    }

    #[test]
    fn partition_voids_cross_cut_traffic_then_heals() {
        let (cluster, apps) = world(4);
        // Partition every round 0 mod 2 for 1 round: agents 2,3 are cut
        // off half the time.
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable().with_partition(2, 1),
        );
        drive_then_drain(&mut dist, &cluster, &apps, 12);
        assert!(dist.net_stats().dropped_partition > 0, "cut traffic lost");
        assert!(dist.net_stats().delivered > 0, "healed traffic flows");
        assert_eq!(dist.reserved_gpus(), 0, "no reservation leaks");
    }

    #[test]
    fn failover_voids_pending_wins_and_counts() {
        let (cluster, apps) = world(2);
        let mut dist = DistributedThemisScheduler::new(
            ThemisConfig::default(),
            FaultConfig::reliable()
                .with_delay(Time::seconds(5.0))
                .with_failover(2),
        );
        drive_then_drain(&mut dist, &cluster, &apps, 30);
        assert!(dist.stats().failovers > 0, "failovers fired");
        assert_eq!(dist.reserved_gpus(), 0, "failover released reservations");
    }

    #[test]
    fn lease_notices_flow_to_agents() {
        let (mut cluster, apps) = world(1);
        let mut dist =
            DistributedThemisScheduler::new(ThemisConfig::default(), FaultConfig::reliable());
        let d = dist.schedule(Time::minutes(1.0), &cluster, &apps);
        // Apply the decisions with a short lease, then expire it.
        for decision in &d {
            for gpu in &decision.gpus {
                cluster
                    .allocate(
                        *gpu,
                        decision.app,
                        decision.job,
                        Time::minutes(1.0),
                        Time::minutes(2.0),
                    )
                    .unwrap();
            }
        }
        dist.schedule(Time::minutes(1.5), &cluster, &apps);
        cluster.reclaim_expired_leases(Time::minutes(10.0));
        dist.schedule(Time::minutes(10.0), &cluster, &apps);
        assert!(
            dist.lease_notices(AppId(0)) > 0,
            "agent must be told its GPUs were reclaimed"
        );
    }
}
