//! Actor identities and the deterministic timer wheel.
//!
//! The actor runtime addresses every protocol participant — the Arbiter
//! and one Agent per app — by an [`ActorId`]. Messages between actors
//! travel through the [`Network`](crate::network::Network); local
//! deadlines (rho-report deadline, bid deadline, Win-confirmation
//! deadline) are armed on a [`TimerWheel`] and fire in deterministic
//! `(time, insertion)` order.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use themis_cluster::ids::AppId;
use themis_cluster::time::Time;

/// Identity of a protocol actor.
///
/// Agents use their app id directly; the Arbiter is the reserved id
/// [`ActorId::ARBITER`]. The `Display`/`FromStr` forms (`arb`, `n<k>`)
/// are what appears in [`MessageLog`](crate::log::MessageLog) text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The Arbiter's reserved actor id.
    pub const ARBITER: ActorId = ActorId(u32::MAX);

    /// The actor id of the Agent managing `app`.
    pub fn agent(app: AppId) -> ActorId {
        assert!(app.0 != u32::MAX, "app id {} collides with ARBITER", app.0);
        ActorId(app.0)
    }

    /// The app this Agent actor manages, or `None` for the Arbiter.
    pub fn app(self) -> Option<AppId> {
        (self != Self::ARBITER).then_some(AppId(self.0))
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Self::ARBITER {
            write!(f, "arb")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

impl FromStr for ActorId {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "arb" {
            return Ok(Self::ARBITER);
        }
        let n = s.strip_prefix('n').ok_or(())?;
        // Reject non-canonical spellings ("n007") so parse(display(x)) is
        // the only accepted form.
        let id: u32 = n.parse().map_err(|_| ())?;
        if id == u32::MAX || n != id.to_string() {
            return Err(());
        }
        Ok(ActorId(id))
    }
}

/// A deterministic set of pending timers.
///
/// Timers fire in `(fire time, insertion order)` order; `pop_due` hands
/// them out one at a time so the caller can interleave timer firings with
/// network deliveries in global time order.
#[derive(Debug, Clone, Default)]
pub struct TimerWheel<T> {
    timers: BTreeMap<(Time, u64), T>,
    next_seq: u64,
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            timers: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Arms a timer to fire at `fire_at`.
    pub fn schedule(&mut self, fire_at: Time, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.insert((fire_at, seq), item);
    }

    /// The earliest pending fire time.
    pub fn next_time(&self) -> Option<Time> {
        self.timers.keys().next().map(|(t, _)| *t)
    }

    /// Pops the earliest timer with `fire_at <= now`, if any.
    pub fn pop_due(&mut self, now: Time) -> Option<(Time, T)> {
        let key = *self.timers.keys().next().filter(|(t, _)| *t <= now)?;
        let item = self.timers.remove(&key).expect("key just observed");
        Some((key.0, item))
    }

    /// Cancels every timer for which `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.timers.retain(|_, item| keep(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_ids_round_trip_through_display() {
        for id in [ActorId::ARBITER, ActorId(0), ActorId(42)] {
            assert_eq!(id.to_string().parse::<ActorId>(), Ok(id));
        }
        assert_eq!(ActorId::agent(AppId(7)), ActorId(7));
        assert_eq!(ActorId(7).app(), Some(AppId(7)));
        assert_eq!(ActorId::ARBITER.app(), None);
        assert!("n007".parse::<ActorId>().is_err());
        assert!("x3".parse::<ActorId>().is_err());
        assert!("n4294967295".parse::<ActorId>().is_err());
    }

    #[test]
    fn timers_fire_in_time_then_insertion_order() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(Time::minutes(2.0), "b");
        wheel.schedule(Time::minutes(1.0), "a");
        wheel.schedule(Time::minutes(2.0), "c");
        assert_eq!(wheel.next_time(), Some(Time::minutes(1.0)));
        assert_eq!(wheel.pop_due(Time::minutes(0.5)), None);
        assert_eq!(
            wheel.pop_due(Time::minutes(5.0)),
            Some((Time::minutes(1.0), "a"))
        );
        assert_eq!(
            wheel.pop_due(Time::minutes(5.0)),
            Some((Time::minutes(2.0), "b"))
        );
        assert_eq!(
            wheel.pop_due(Time::minutes(5.0)),
            Some((Time::minutes(2.0), "c"))
        );
        assert_eq!(wheel.next_time(), None);
    }

    #[test]
    fn retain_cancels_matching_timers() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(Time::minutes(1.0), 1u32);
        wheel.schedule(Time::minutes(2.0), 2u32);
        wheel.schedule(Time::minutes(3.0), 1u32);
        wheel.retain(|t| *t != 1);
        assert_eq!(wheel.pop_due(Time::INFINITY), Some((Time::minutes(2.0), 2)));
        assert_eq!(wheel.next_time(), None);
    }
}
