//! The simulated network that owns every Arbiter↔Agent link.
//!
//! The paper's prototype speaks gRPC (§7); here one in-memory [`Network`]
//! carries both directions of every link, and it is *causal*: a message
//! sent at `t` is delivered at
//! `t' = max(t, link busy) + size/bandwidth + delay + jitter`, and the
//! caller drives deliveries from a discrete-event loop via
//! [`Network::pop_due`] / [`Network::next_event_time`]. Rounds therefore
//! overlap in simulated time and a slow Agent's Bid genuinely races the
//! bid deadline.
//!
//! With [`FaultConfig::arbiter_service_time`] set, the Arbiter itself
//! becomes a congestion point: every message it sends or receives passes
//! through one shared single-server queue (`max(arrival, server busy) +
//! service_time`, the same serialization shape as the per-link bandwidth
//! model), so a broadcast to N Agents costs N egress slots and an
//! all-agent reply storm drains one service time at a time.
//! [`Network::send_multi`] is the coalescing escape hatch: one service
//! slot for a whole destination group.
//!
//! Every decision the network makes — each send with its fate (delivery
//! time or drop), each delivery — is appended to a
//! [`MessageLog`] when recording, and *taken from*
//! the log (bypassing the RNG) when replaying. See [`LogMode`].
//!
//! ```
//! use themis_cluster::time::Time;
//! use themis_protocol::actor::ActorId;
//! use themis_protocol::fault::FaultConfig;
//! use themis_protocol::network::{LogMode, NetMsg, Network};
//!
//! struct Ping;
//! impl NetMsg for Ping {
//!     fn log_tag(&self) -> String {
//!         "ping".to_string()
//!     }
//! }
//!
//! let fault = FaultConfig::reliable().with_delay(Time::seconds(5.0));
//! let mut net: Network<Ping> = Network::new(fault, LogMode::Off);
//! net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Ping);
//!
//! // Nothing is visible before the latency elapses…
//! assert_eq!(net.next_event_time(), Some(Time::seconds(5.0)));
//! assert!(net.pop_due(Time::seconds(4.0)).is_none());
//! // …then the delivery pops in (time, send-order) order.
//! let (at, _seq, src, dst, _msg) = net.pop_due(Time::seconds(5.0)).unwrap();
//! assert_eq!((at, src, dst), (Time::seconds(5.0), ActorId::ARBITER, ActorId(0)));
//! ```

use crate::actor::ActorId;
use crate::fault::FaultConfig;
use crate::log::{LogRecord, MessageLog, ReplayCursor, SendFate};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use themis_cluster::time::Time;

/// A message that can travel through the [`Network`].
pub trait NetMsg {
    /// Stable, whitespace-free tag identifying the message in the log
    /// (e.g. `offer:r3`). Two runs of the same scenario must produce the
    /// same tags in the same order.
    fn log_tag(&self) -> String;

    /// Message size in abstract units, charged against the link bandwidth
    /// ([`FaultConfig::bandwidth`] units per minute). Defaults to 1.
    fn size_units(&self) -> u64 {
        1
    }
}

/// Whether (and how) the network transcribes its decisions.
#[derive(Clone, Default)]
pub enum LogMode {
    /// No transcript.
    #[default]
    Off,
    /// Append every decision to the shared log.
    Record(Arc<Mutex<MessageLog>>),
    /// Take every decision from the log, validating each against the run.
    Replay(ReplayCursor),
}

impl LogMode {
    /// Record mode writing into `log`.
    pub fn record(log: Arc<Mutex<MessageLog>>) -> Self {
        LogMode::Record(log)
    }

    /// Replay mode reading from `log`.
    pub fn replay(log: Arc<MessageLog>) -> Self {
        LogMode::Replay(ReplayCursor::new(log))
    }
}

impl fmt::Debug for LogMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogMode::Off => write!(f, "Off"),
            LogMode::Record(_) => write!(f, "Record(..)"),
            LogMode::Replay(cursor) => write!(f, "Replay(pos={})", cursor.position()),
        }
    }
}

/// Counters kept by the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted for delivery.
    pub sent: u64,
    /// Messages handed to their destination actor.
    pub delivered: u64,
    /// Messages dropped by random fault injection.
    pub dropped_fault: u64,
    /// Messages dropped at an active partition boundary.
    pub dropped_partition: u64,
}

/// The event-driven message fabric between the Arbiter and its Agents.
///
/// See the module docs for the delivery model. All randomness (drop
/// decisions, jitter) comes from one RNG seeded by
/// [`FaultConfig::seed`], so identical scenarios produce identical
/// message histories.
pub struct Network<M> {
    fault: FaultConfig,
    rng: SmallRng,
    /// In-flight messages keyed by `(delivery time, send seq)` — the
    /// deterministic delivery order.
    in_flight: BTreeMap<(Time, u64), (ActorId, ActorId, M)>,
    next_seq: u64,
    /// Per directed link: when the link finishes transferring the last
    /// message it accepted (bandwidth modelling).
    busy_until: BTreeMap<(ActorId, ActorId), Time>,
    /// When the Arbiter's single-server mailbox frees up again
    /// ([`FaultConfig::arbiter_service_time`]). One shared server for both
    /// directions: egress serialization and ingress absorption queue on
    /// the same Arbiter CPU, which is what makes an all-agent reply storm
    /// take `N × service_time` to drain. Only consulted live — replay
    /// takes delivery times from the log.
    arbiter_busy_until: Time,
    /// Actors currently cut off by a partition. A message is dropped when
    /// exactly one of `{src, dst}` is isolated.
    isolated: BTreeSet<ActorId>,
    mode: LogMode,
    stats: NetStats,
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("in_flight", &self.in_flight.len())
            .field("isolated", &self.isolated)
            .field("mode", &self.mode)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<M: NetMsg> Network<M> {
    /// Creates a network with the given fault model and log mode.
    pub fn new(fault: FaultConfig, mode: LogMode) -> Self {
        Network {
            fault,
            rng: SmallRng::seed_from_u64(fault.seed),
            in_flight: BTreeMap::new(),
            next_seq: 0,
            busy_until: BTreeMap::new(),
            arbiter_busy_until: Time::ZERO,
            isolated: BTreeSet::new(),
            mode,
            stats: NetStats::default(),
        }
    }

    /// Sends `msg` from `src` to `dst` at time `now` and returns its fate.
    ///
    /// In [`LogMode::Replay`] the fate (drop or delivery time) is taken
    /// from the log instead of the RNG; a mismatch with what the log
    /// recorded panics with a replay-divergence diagnostic.
    pub fn send(&mut self, now: Time, src: ActorId, dst: ActorId, msg: M) -> SendFate {
        self.send_leg(now, None, src, dst, msg)
    }

    /// Sends one broadcast message to every destination: the Arbiter
    /// serializes it **once** (one [`FaultConfig::arbiter_service_time`]
    /// slot for the whole group), then every destination gets an
    /// independent wire leg — its own drop draw, jitter draw, seq and log
    /// record, exactly as if sent individually. This is the fan-out side
    /// of message coalescing: `⌈N/B⌉` `send_multi` calls charge the
    /// Arbiter `⌈N/B⌉` service slots where `N` individual [`Network::send`]
    /// calls would charge `N`.
    ///
    /// Returns the per-destination fates in `dsts` order.
    pub fn send_multi(&mut self, now: Time, src: ActorId, dsts: &[ActorId], msg: M) -> Vec<SendFate>
    where
        M: Clone,
    {
        if dsts.is_empty() {
            return Vec::new();
        }
        // The one shared service slot. Skipped in replay — delivery times
        // there come from the log, so the live server model is never
        // consulted and must not mutate state.
        let floor = match self.mode {
            LogMode::Replay(_) => now,
            _ => self.arbiter_egress_floor(now, src),
        };
        dsts.iter()
            .map(|&dst| self.send_leg(now, Some(floor), src, dst, msg.clone()))
            .collect()
    }

    /// One point-to-point send. `wire_floor` is the earliest time the wire
    /// leg may start: `None` charges the sender's own Arbiter egress
    /// service slot (the plain [`Network::send`] path), `Some(t)` reuses a
    /// slot already charged by [`Network::send_multi`].
    fn send_leg(
        &mut self,
        now: Time,
        wire_floor: Option<Time>,
        src: ActorId,
        dst: ActorId,
        msg: M,
    ) -> SendFate {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tag = msg.log_tag();
        let fate = match &mut self.mode {
            LogMode::Replay(cursor) => cursor.expect_send(seq, now, src, dst, &tag),
            _ => {
                let floor = match wire_floor {
                    Some(t) => t,
                    None => self.arbiter_egress_floor(now, src),
                };
                let fate = self.decide_fate(now, floor, src, dst, &msg);
                if let LogMode::Record(log) = &self.mode {
                    log.lock().push(LogRecord::Send {
                        seq,
                        at: now,
                        src,
                        dst,
                        tag,
                        fate,
                    });
                }
                fate
            }
        };
        match fate {
            SendFate::Deliver { at } => {
                self.stats.sent += 1;
                self.in_flight.insert((at, seq), (src, dst, msg));
            }
            SendFate::DropFault => self.stats.dropped_fault += 1,
            SendFate::DropPartition => self.stats.dropped_partition += 1,
        }
        fate
    }

    /// Charges one Arbiter service slot starting no earlier than `t` and
    /// returns when it completes: `max(t, server busy) + service_time`.
    fn arbiter_service(&mut self, t: Time) -> Time {
        let start = t.max(self.arbiter_busy_until);
        self.arbiter_busy_until = start + self.fault.arbiter_service_time;
        self.arbiter_busy_until
    }

    /// Egress side of the service model: a message the Arbiter sends must
    /// first be serialized by its single-threaded server, so the wire leg
    /// cannot start before the service slot completes. Dropped messages
    /// still paid for serialization — the wire lost them afterwards.
    fn arbiter_egress_floor(&mut self, now: Time, src: ActorId) -> Time {
        if src == ActorId::ARBITER && self.fault.arbiter_service_time > Time::ZERO {
            self.arbiter_service(now)
        } else {
            now
        }
    }

    /// The live (non-replay) fate decision: partition check, drop draw,
    /// then the causal delivery time
    /// `max(wire_floor, link busy) + size/bandwidth + delay + jitter`,
    /// plus — for messages addressed to the Arbiter — the inbox queue
    /// delay `max(arrival, server busy) + service_time`.
    fn decide_fate(
        &mut self,
        _now: Time,
        wire_floor: Time,
        src: ActorId,
        dst: ActorId,
        msg: &M,
    ) -> SendFate {
        if self.isolated.contains(&src) != self.isolated.contains(&dst) {
            return SendFate::DropPartition;
        }
        let p = self.fault.drop_probability;
        if p > 0.0 && self.rng.gen::<f64>() < p {
            return SendFate::DropFault;
        }
        let busy = self
            .busy_until
            .get(&(src, dst))
            .copied()
            .unwrap_or(Time::ZERO);
        let start = wire_floor.max(busy);
        let transfer = if self.fault.bandwidth > 0.0 {
            Time::minutes(msg.size_units() as f64 / self.fault.bandwidth)
        } else {
            Time::ZERO
        };
        if self.fault.bandwidth > 0.0 {
            self.busy_until.insert((src, dst), start + transfer);
        }
        let jitter = if self.fault.jitter > Time::ZERO {
            self.fault.jitter * self.rng.gen::<f64>()
        } else {
            Time::ZERO
        };
        let arrival = start + transfer + self.fault.delay + jitter;
        // Ingress side of the service model: the Arbiter's mailbox is an
        // M/D/1-style queue — a message is only *delivered* (visible to
        // the Arbiter actor) once the server has absorbed it.
        let at = if dst == ActorId::ARBITER && self.fault.arbiter_service_time > Time::ZERO {
            self.arbiter_service(arrival)
        } else {
            arrival
        };
        SendFate::Deliver { at }
    }

    /// The earliest pending delivery time, if any — the network's
    /// contribution to the scheduler's next-wakeup request.
    pub fn next_event_time(&self) -> Option<Time> {
        self.in_flight.keys().next().map(|(t, _)| *t)
    }

    /// Pops the earliest in-flight message due at or before `now`, as
    /// `(delivery time, seq, src, dst, msg)`. Deliveries pop in
    /// `(delivery time, send order)` order, which keeps jittered
    /// reorderings deterministic.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, u64, ActorId, ActorId, M)> {
        let key = *self.in_flight.keys().next().filter(|(t, _)| *t <= now)?;
        let (src, dst, msg) = self.in_flight.remove(&key).expect("key just observed");
        let (at, seq) = key;
        match &mut self.mode {
            LogMode::Record(log) => log.lock().push(LogRecord::Deliver { seq, at }),
            LogMode::Replay(cursor) => cursor.expect_deliver(seq, at),
            LogMode::Off => {}
        }
        self.stats.delivered += 1;
        Some((at, seq, src, dst, msg))
    }

    /// Transcribes a timer armed by the actor runtime (`tag` must be
    /// stable and whitespace-free). Timers are part of the log so a replay
    /// validates deadline decisions, not just message fates.
    pub fn note_timer(&mut self, now: Time, fire_at: Time, tag: &str) {
        match &mut self.mode {
            LogMode::Record(log) => log.lock().push(LogRecord::Timer {
                at: now,
                fire_at,
                tag: tag.to_string(),
            }),
            LogMode::Replay(cursor) => cursor.expect_timer(now, fire_at, tag),
            LogMode::Off => {}
        }
    }

    /// Cuts `isolated` off from everyone else: messages crossing the
    /// boundary (in either direction) are dropped at send time with
    /// [`SendFate::DropPartition`]. Messages already in flight are *not*
    /// killed — they were on the wire before the cut.
    pub fn set_partition(&mut self, isolated: BTreeSet<ActorId>) {
        self.isolated = isolated;
    }

    /// Heals any active partition.
    pub fn heal_partition(&mut self) {
        self.isolated.clear();
    }

    /// Actors currently isolated by a partition.
    pub fn isolated(&self) -> &BTreeSet<ActorId> {
        &self.isolated
    }

    /// Delivery/drop counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(&'static str, u64);

    impl NetMsg for Msg {
        fn log_tag(&self) -> String {
            self.0.to_string()
        }

        fn size_units(&self) -> u64 {
            self.1
        }
    }

    fn drain(net: &mut Network<Msg>, now: Time) -> Vec<(Time, &'static str)> {
        std::iter::from_fn(|| net.pop_due(now))
            .map(|(at, _, _, _, m)| (at, m.0))
            .collect()
    }

    #[test]
    fn reliable_network_delivers_instantly_in_send_order() {
        let mut net = Network::new(FaultConfig::reliable(), LogMode::Off);
        net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Msg("a", 1));
        net.send(Time::ZERO, ActorId::ARBITER, ActorId(1), Msg("b", 1));
        assert_eq!(
            drain(&mut net, Time::ZERO),
            vec![(Time::ZERO, "a"), (Time::ZERO, "b")]
        );
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn delay_drop_and_seed_decide_each_message_fate() {
        // A delayed message is invisible strictly before `send + delay`
        // and visible exactly at it.
        let (sent_at, delay) = (Time::minutes(7.0), Time::minutes(3.0));
        let mut net = Network::new(FaultConfig::reliable().with_delay(delay), LogMode::Off);
        net.send(sent_at, ActorId::ARBITER, ActorId(0), Msg("m", 42));
        assert!(net.pop_due(sent_at + delay - Time::seconds(1.0)).is_none());
        let due = net.pop_due(sent_at + delay).map(|(at, .., m)| (at, m.1));
        assert_eq!(due, Some((sent_at + delay, 42)));

        // 200 numbered messages, one per minute, through a lossy link.
        const N: u64 = 200;
        let survivors = |drop_probability: f64, seed: u64| {
            let fault = FaultConfig::reliable()
                .with_drop_probability(drop_probability)
                .with_seed(seed);
            let mut net = Network::new(fault, LogMode::Off);
            for i in 0..N {
                let at = Time::minutes(i as f64);
                net.send(at, ActorId(0), ActorId::ARBITER, Msg("m", i));
            }
            let got: Vec<u64> = std::iter::from_fn(|| net.pop_due(Time::INFINITY))
                .map(|(.., m)| m.1)
                .collect();
            // Whatever the loss rate, drops never corrupt: what arrives
            // is an in-order subset of what was sent, every message is
            // accounted for, and nothing stays queued.
            assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO, no duplicate");
            assert!(got.iter().all(|v| *v < N), "no phantom message");
            let stats = net.stats();
            assert_eq!(stats.sent, got.len() as u64);
            assert_eq!(stats.sent + stats.dropped_fault, N);
            assert!(net.in_flight.is_empty());
            got
        };
        for (drop_probability, delivered) in [(0.0, N..=N), (1.0, 0..=0), (0.4, 90..=150)] {
            let got = survivors(drop_probability, 3).len() as u64;
            assert!(delivered.contains(&got), "p={drop_probability}: {got}");
        }
        // Fates are a function of the seed alone.
        assert_eq!(survivors(0.4, 3), survivors(0.4, 3));
        assert_ne!(survivors(0.4, 3), survivors(0.4, 4));
    }

    #[test]
    fn bandwidth_serializes_messages_on_a_link() {
        // 2 units/minute; each message is 4 units => 2 minutes on the wire.
        let fault = FaultConfig::reliable().with_bandwidth(2.0);
        let mut net = Network::new(fault, LogMode::Off);
        let a = ActorId::ARBITER;
        net.send(Time::ZERO, a, ActorId(0), Msg("first", 4));
        net.send(Time::ZERO, a, ActorId(0), Msg("second", 4));
        // A different link is not affected by this link's backlog.
        net.send(Time::ZERO, a, ActorId(1), Msg("other", 4));
        assert_eq!(
            drain(&mut net, Time::minutes(10.0)),
            vec![
                (Time::minutes(2.0), "first"),
                (Time::minutes(2.0), "other"),
                (Time::minutes(4.0), "second"),
            ]
        );
    }

    #[test]
    fn jitter_can_reorder_messages_deterministically() {
        let fault = FaultConfig::reliable()
            .with_jitter(Time::minutes(5.0))
            .with_seed(3);
        let history = |seed: u64| {
            let mut net = Network::new(fault.with_seed(seed), LogMode::Off);
            for i in 0..20 {
                net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Msg("m", i));
            }
            std::iter::from_fn(|| net.pop_due(Time::INFINITY))
                .map(|(at, seq, ..)| (at, seq))
                .collect::<Vec<_>>()
        };
        let h = history(3);
        assert_eq!(h, history(3), "jitter is deterministic per seed");
        assert_ne!(h, history(4));
        // With 20 draws over a 5-minute window, at least one pair must
        // have popped out of send order.
        assert!(
            h.windows(2).any(|w| w[1].1 < w[0].1),
            "expected a reordering in {h:?}"
        );
        // Yet delivery times pop monotonically.
        assert!(h.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn partition_drops_crossing_messages_until_healed() {
        let mut net = Network::new(FaultConfig::reliable(), LogMode::Off);
        net.set_partition([ActorId(1)].into_iter().collect());
        let fate = net.send(Time::ZERO, ActorId::ARBITER, ActorId(1), Msg("cut", 1));
        assert_eq!(fate, SendFate::DropPartition);
        // Isolated-to-isolated and healthy-to-healthy both still flow.
        assert!(matches!(
            net.send(Time::ZERO, ActorId(1), ActorId(1), Msg("self", 1)),
            SendFate::Deliver { .. }
        ));
        assert!(matches!(
            net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Msg("ok", 1)),
            SendFate::Deliver { .. }
        ));
        net.heal_partition();
        assert!(matches!(
            net.send(Time::ZERO, ActorId::ARBITER, ActorId(1), Msg("back", 1)),
            SendFate::Deliver { .. }
        ));
        assert_eq!(net.stats().dropped_partition, 1);
    }

    #[test]
    fn record_then_replay_reproduces_fates_without_rng() {
        let fault = FaultConfig::reliable()
            .with_drop_probability(0.5)
            .with_jitter(Time::seconds(30.0))
            .with_seed(11);
        let log = Arc::new(Mutex::new(MessageLog::new()));
        let mut recorded = Vec::new();
        {
            let mut net = Network::new(fault, LogMode::record(Arc::clone(&log)));
            for i in 0..50 {
                recorded.push(net.send(
                    Time::minutes(i as f64),
                    ActorId::ARBITER,
                    ActorId(0),
                    Msg("m", 1),
                ));
            }
            while net.pop_due(Time::INFINITY).is_some() {}
        }
        let log = Arc::new(Arc::try_unwrap(log).unwrap().into_inner());
        // Replay with a *different* seed: fates must still match, because
        // they come from the log, not the RNG.
        let mut net = Network::new(fault.with_seed(999), LogMode::replay(Arc::clone(&log)));
        for (i, expected) in recorded.iter().enumerate() {
            let fate = net.send(
                Time::minutes(i as f64),
                ActorId::ARBITER,
                ActorId(0),
                Msg("m", 1),
            );
            assert_eq!(fate, *expected);
        }
        while net.pop_due(Time::INFINITY).is_some() {}
    }

    #[test]
    fn arbiter_inbox_serializes_fan_in() {
        // Three agents answer at the same instant; the Arbiter's server
        // absorbs one message per minute, so deliveries queue at 1, 2, 3.
        let fault = FaultConfig::reliable().with_arbiter_service_time(Time::minutes(1.0));
        let mut net = Network::new(fault, LogMode::Off);
        for i in 0..3 {
            net.send(Time::ZERO, ActorId(i), ActorId::ARBITER, Msg("rho", 1));
        }
        assert_eq!(
            drain(&mut net, Time::minutes(10.0)),
            vec![
                (Time::minutes(1.0), "rho"),
                (Time::minutes(2.0), "rho"),
                (Time::minutes(3.0), "rho"),
            ]
        );
        // Agent-to-agent traffic never touches the Arbiter's server.
        let mut net = Network::new(fault, LogMode::Off);
        net.send(Time::ZERO, ActorId(0), ActorId(1), Msg("peer", 1));
        assert_eq!(
            drain(&mut net, Time::minutes(10.0)),
            vec![(Time::ZERO, "peer")]
        );
    }

    #[test]
    fn arbiter_egress_charges_per_send_but_once_per_multi() {
        let fault = FaultConfig::reliable().with_arbiter_service_time(Time::minutes(1.0));
        // Individual sends: the broadcast costs N service slots.
        let mut net = Network::new(fault, LogMode::Off);
        for i in 0..3 {
            net.send(Time::ZERO, ActorId::ARBITER, ActorId(i), Msg("q", 1));
        }
        assert_eq!(
            drain(&mut net, Time::minutes(10.0))
                .into_iter()
                .map(|(at, _)| at)
                .collect::<Vec<_>>(),
            vec![Time::minutes(1.0), Time::minutes(2.0), Time::minutes(3.0)]
        );
        // One send_multi: one slot, every destination hears it together.
        let mut net = Network::new(fault, LogMode::Off);
        let dsts: Vec<ActorId> = (0..3).map(ActorId).collect();
        let fates = net.send_multi(Time::ZERO, ActorId::ARBITER, &dsts, Msg("q", 1));
        assert_eq!(fates.len(), 3);
        assert_eq!(
            drain(&mut net, Time::minutes(10.0))
                .into_iter()
                .map(|(at, _)| at)
                .collect::<Vec<_>>(),
            vec![Time::minutes(1.0); 3]
        );
        // Egress and ingress share the server: a reply arriving while the
        // Arbiter is still serializing its broadcast waits its turn.
        let mut net = Network::new(fault, LogMode::Off);
        net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Msg("q", 1));
        net.send(Time::ZERO, ActorId(1), ActorId::ARBITER, Msg("rho", 1));
        assert_eq!(
            drain(&mut net, Time::minutes(10.0)),
            vec![(Time::minutes(1.0), "q"), (Time::minutes(2.0), "rho")]
        );
    }

    #[test]
    fn send_multi_records_and_replays_per_destination_fates() {
        let fault = FaultConfig::reliable()
            .with_drop_probability(0.4)
            .with_arbiter_service_time(Time::seconds(2.0))
            .with_seed(17);
        let dsts: Vec<ActorId> = (0..8).map(ActorId).collect();
        let log = Arc::new(Mutex::new(MessageLog::new()));
        let recorded;
        {
            let mut net = Network::new(fault, LogMode::record(Arc::clone(&log)));
            recorded = net.send_multi(Time::ZERO, ActorId::ARBITER, &dsts, Msg("q", 1));
            while net.pop_due(Time::INFINITY).is_some() {}
        }
        let log = Arc::new(Arc::try_unwrap(log).unwrap().into_inner());
        // A different seed cannot change replayed fates: they come from the
        // log, and the live server model is never consulted.
        let mut net = Network::new(fault.with_seed(4242), LogMode::replay(log));
        let replayed = net.send_multi(Time::ZERO, ActorId::ARBITER, &dsts, Msg("q", 1));
        assert_eq!(replayed, recorded);
        while net.pop_due(Time::INFINITY).is_some() {}
    }

    #[test]
    #[should_panic(expected = "replay divergence")]
    fn replay_with_diverging_traffic_panics() {
        let log = Arc::new(Mutex::new(MessageLog::new()));
        {
            let mut net = Network::new(FaultConfig::reliable(), LogMode::record(Arc::clone(&log)));
            net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Msg("real", 1));
        }
        let log = Arc::new(Arc::try_unwrap(log).unwrap().into_inner());
        let mut net = Network::new(FaultConfig::reliable(), LogMode::replay(log));
        net.send(Time::ZERO, ActorId::ARBITER, ActorId(0), Msg("imposter", 1));
    }
}
