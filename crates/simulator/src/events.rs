//! The simulator's event queue.
//!
//! Three kinds of events drive the simulation forward: an app arriving, a
//! GPU lease expiring (which triggers a new auction / scheduling round), and
//! a job's projected completion. Events at the same timestamp are processed
//! in insertion order, which keeps the whole simulation deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use themis_cluster::ids::{AppId, JobId};
use themis_cluster::time::Time;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An app from the trace arrives and becomes schedulable.
    AppArrival(AppId),
    /// At least one GPU lease expires at this time; the engine reclaims
    /// expired leases and runs a scheduling round.
    LeaseExpiry,
    /// A job is projected to finish at this time (validated when the event
    /// fires — allocations may have changed since it was scheduled).
    JobFinish(AppId, JobId),
    /// A periodic scheduling tick (used when the cluster is idle but apps
    /// are waiting).
    Tick,
    /// A retry of a scheduling round that granted nothing while demand and
    /// free GPUs both existed. Only scheduled under an unreliable
    /// [`SimConfig::fault`](crate::engine::SimConfig::fault) —
    /// distributed-mode schedulers need it so a round lost to message
    /// faults is re-attempted instead of wedging the event queue.
    Retry,
    /// A wakeup requested by the scheduler itself via
    /// [`Scheduler::next_wakeup`](crate::scheduler::Scheduler::next_wakeup):
    /// a message delivery or protocol timer is due at this time and the
    /// actor runtime needs a scheduling call to process it. The engine
    /// deduplicates wakeups per timestamp.
    Wakeup,
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: Time,
    /// Tie-breaking sequence number (insertion order).
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earlier times pop first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of [`Event`]s.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::minutes(30.0), EventKind::LeaseExpiry);
        q.push(Time::minutes(10.0), EventKind::AppArrival(AppId(0)));
        q.push(
            Time::minutes(20.0),
            EventKind::JobFinish(AppId(0), JobId(1)),
        );
        assert_eq!(q.peek_time(), Some(Time::minutes(10.0)));
        assert_eq!(q.pop().unwrap().kind, EventKind::AppArrival(AppId(0)));
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::JobFinish(AppId(0), JobId(1))
        );
        assert_eq!(q.pop().unwrap().kind, EventKind::LeaseExpiry);
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::minutes(5.0);
        q.push(t, EventKind::AppArrival(AppId(0)));
        q.push(t, EventKind::AppArrival(AppId(1)));
        q.push(t, EventKind::AppArrival(AppId(2)));
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            vec![
                EventKind::AppArrival(AppId(0)),
                EventKind::AppArrival(AppId(1)),
                EventKind::AppArrival(AppId(2)),
            ]
        );
    }

    #[test]
    fn infinity_sorts_last() {
        let mut q = EventQueue::new();
        q.push(Time::INFINITY, EventKind::Tick);
        q.push(Time::minutes(1.0), EventKind::LeaseExpiry);
        assert_eq!(q.pop().unwrap().kind, EventKind::LeaseExpiry);
        assert_eq!(q.pop().unwrap().kind, EventKind::Tick);
    }
}
