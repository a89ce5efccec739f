//! Fault injection for a distributed-mode scheduling run.
//!
//! The paper's prototype reports its gRPC overhead as negligible (§8.3.2);
//! what the reproduction exercises is the protocol's robustness — a slow or
//! silent Agent must not stall an auction. [`FaultConfig`] is the one
//! description of what can go wrong.

use themis_cluster::time::Time;

/// Fault-injection configuration for a whole distributed-mode scheduling
/// run, handed down through the scenario plumbing.
///
/// The [`Network`](crate::network::Network) interprets the per-message
/// fields: `drop_probability`, `delay`, `jitter`, `bandwidth`, `seed` and
/// the Arbiter mailbox model (`arbiter_service_time`). The crash, partition
/// and failover fields describe *process* faults rather than link faults:
/// the actor scheduler (`themis_core::actors`) takes an Agent offline for
/// `crash_rounds` consecutive auction rounds every `crash_period` rounds,
/// cuts half the Agents off, or replaces the Arbiter, and opts into
/// `arbiter_batch` coalescing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that a sent message is silently dropped.
    pub drop_probability: f64,
    /// Fixed delivery delay added to every message.
    pub delay: Time,
    /// RNG seed for the drop decisions (determinism for tests).
    pub seed: u64,
    /// Every `crash_period`-th auction round, one Agent (cycling through
    /// apps in id order) crashes. `0` disables crash injection.
    pub crash_period: u64,
    /// How many consecutive rounds a crashed Agent stays silent.
    pub crash_rounds: u64,
    /// Extra per-message delivery delay drawn uniformly from
    /// `[0, jitter]`. Non-zero jitter reorders messages on a link.
    pub jitter: Time,
    /// Link bandwidth in message size-units per minute. Messages serialize
    /// on a link: a message starts transfer only when the previous one on
    /// the same directed link finished. `0.0` means infinite bandwidth.
    pub bandwidth: f64,
    /// Every `partition_period`-th auction round the cluster splits: the
    /// upper half of the Agents (by app id) is cut off from the Arbiter
    /// for `partition_rounds` rounds, then the partition heals. `0`
    /// disables partitions.
    pub partition_period: u64,
    /// How many consecutive rounds a partition lasts.
    pub partition_rounds: u64,
    /// Every `failover_period`-th auction round the Arbiter crashes and a
    /// standby takes over with no memory of in-flight Wins (which are
    /// voided, never leaked). `0` disables failover injection.
    pub failover_period: u64,
    /// Per-message service time of the Arbiter process. The Arbiter's
    /// mailbox becomes an M/D/1-style queue: every message it sends or
    /// receives occupies its single server for this long, so a fan-in storm
    /// of N replies takes N service times to absorb and later replies can
    /// overshoot the round deadlines. Interpreted by the actor-based
    /// [`Network`](crate::network::Network); `Time::ZERO` disables the
    /// model entirely (observationally pure).
    pub arbiter_service_time: Time,
    /// Maximum messages coalesced per batched protocol message. When the
    /// actor scheduler opts into batching (`> 0`), broadcast fan-out and
    /// ρ-report fan-in travel as `⌈N/B⌉` batch messages instead of `N`
    /// singletons, each charging the Arbiter one service slot. `0`
    /// disables batching. The knob alone injects no fault — it only
    /// matters once `arbiter_service_time` makes messages expensive.
    pub arbiter_batch: u64,
}

/// The default is [`FaultConfig::reliable`]: no drops, zero latency, no
/// crashes — a link that delivers every message instantly, in FIFO order.
impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_probability: 0.0,
            delay: Time::ZERO,
            seed: 0,
            crash_period: 0,
            crash_rounds: 0,
            jitter: Time::ZERO,
            bandwidth: 0.0,
            partition_period: 0,
            partition_rounds: 0,
            failover_period: 0,
            arbiter_service_time: Time::ZERO,
            arbiter_batch: 0,
        }
    }
}

impl FaultConfig {
    /// A perfectly reliable, zero-latency link (same as `Default`).
    pub fn reliable() -> Self {
        Self::default()
    }

    /// A lossy link dropping messages with the given probability.
    pub fn lossy(drop_probability: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&drop_probability));
        FaultConfig {
            drop_probability,
            seed,
            ..Self::default()
        }
    }

    /// A link with a fixed delivery delay.
    pub fn delayed(delay: Time) -> Self {
        FaultConfig {
            delay,
            ..Self::default()
        }
    }

    /// `true` when this configuration injects no fault of any kind. A
    /// crash or partition schedule needs both a period and a duration;
    /// either being zero disables it. Finite bandwidth counts as a fault:
    /// it serializes messages and so perturbs delivery times, and a
    /// non-zero Arbiter service time does the same at the Arbiter's
    /// mailbox. `arbiter_batch` alone injects nothing: coalescing only
    /// changes message granularity, never drops or delays anything.
    pub fn is_reliable(&self) -> bool {
        self.drop_probability == 0.0
            && self.delay == Time::ZERO
            && self.jitter == Time::ZERO
            && self.bandwidth == 0.0
            && self.arbiter_service_time == Time::ZERO
            && (self.crash_period == 0 || self.crash_rounds == 0)
            && (self.partition_period == 0 || self.partition_rounds == 0)
            && self.failover_period == 0
    }

    /// Sets the message-drop probability.
    ///
    /// # Panics
    /// Panics if the probability is outside `[0, 1]`.
    #[must_use]
    pub fn with_drop_probability(mut self, drop_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0, 1]"
        );
        self.drop_probability = drop_probability;
        self
    }

    /// Sets the fixed delivery delay.
    #[must_use]
    pub fn with_delay(mut self, delay: Time) -> Self {
        assert!(delay >= Time::ZERO, "delay must be non-negative");
        self.delay = delay;
        self
    }

    /// Sets the RNG seed for the drop decisions.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables crash injection: every `period`-th round one Agent goes
    /// silent for `rounds` rounds (see the type-level docs).
    #[must_use]
    pub fn with_crash(mut self, period: u64, rounds: u64) -> Self {
        self.crash_period = period;
        self.crash_rounds = rounds;
        self
    }

    /// Sets the per-message delivery jitter (uniform in `[0, jitter]`).
    #[must_use]
    pub fn with_jitter(mut self, jitter: Time) -> Self {
        assert!(jitter >= Time::ZERO, "jitter must be non-negative");
        self.jitter = jitter;
        self
    }

    /// Sets the link bandwidth in size-units per minute (`0.0` = infinite).
    #[must_use]
    pub fn with_bandwidth(mut self, bandwidth: f64) -> Self {
        assert!(
            bandwidth >= 0.0 && bandwidth.is_finite(),
            "bandwidth must be finite and non-negative"
        );
        self.bandwidth = bandwidth;
        self
    }

    /// Enables partition injection: every `period`-th round the upper half
    /// of the Agents is cut off from the Arbiter for `rounds` rounds.
    #[must_use]
    pub fn with_partition(mut self, period: u64, rounds: u64) -> Self {
        self.partition_period = period;
        self.partition_rounds = rounds;
        self
    }

    /// Enables Arbiter failover injection every `period`-th round.
    #[must_use]
    pub fn with_failover(mut self, period: u64) -> Self {
        self.failover_period = period;
        self
    }

    /// Sets the Arbiter's per-message service time (`Time::ZERO` disables
    /// the mailbox-queue model).
    #[must_use]
    pub fn with_arbiter_service_time(mut self, service_time: Time) -> Self {
        assert!(
            service_time >= Time::ZERO,
            "arbiter service time must be non-negative"
        );
        self.arbiter_service_time = service_time;
        self
    }

    /// Sets the maximum messages per batched protocol message (`0`
    /// disables batching).
    #[must_use]
    pub fn with_arbiter_batch(mut self, batch: u64) -> Self {
        self.arbiter_batch = batch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructors_compose() {
        let fault = FaultConfig::reliable()
            .with_drop_probability(0.25)
            .with_delay(Time::seconds(10.0))
            .with_seed(7)
            .with_crash(4, 2);
        assert_eq!(fault.drop_probability, 0.25);
        assert_eq!(fault.delay, Time::seconds(10.0));
        assert_eq!(fault.seed, 7);
        assert_eq!((fault.crash_period, fault.crash_rounds), (4, 2));
        assert!(!fault.is_reliable());
        assert!(FaultConfig::default().is_reliable());
        // Seed alone does not make a link faulty.
        assert!(FaultConfig::reliable().with_seed(5).is_reliable());
        // A degenerate crash schedule (zero period or zero duration)
        // injects nothing and is therefore still reliable.
        assert!(FaultConfig::reliable().with_crash(5, 0).is_reliable());
        assert!(FaultConfig::reliable().with_crash(0, 3).is_reliable());
    }

    #[test]
    fn actor_fault_builders_compose() {
        let fault = FaultConfig::reliable()
            .with_jitter(Time::seconds(6.0))
            .with_bandwidth(120.0)
            .with_partition(4, 2)
            .with_failover(6);
        assert_eq!(fault.jitter, Time::seconds(6.0));
        assert_eq!(fault.bandwidth, 120.0);
        assert_eq!((fault.partition_period, fault.partition_rounds), (4, 2));
        assert_eq!(fault.failover_period, 6);
        assert!(!fault.is_reliable());
        // Each axis alone already makes the config faulty…
        assert!(!FaultConfig::reliable()
            .with_jitter(Time::seconds(1.0))
            .is_reliable());
        assert!(!FaultConfig::reliable().with_bandwidth(10.0).is_reliable());
        assert!(!FaultConfig::reliable().with_partition(3, 1).is_reliable());
        assert!(!FaultConfig::reliable().with_failover(5).is_reliable());
        // …but a degenerate partition schedule injects nothing.
        assert!(FaultConfig::reliable().with_partition(3, 0).is_reliable());
        assert!(FaultConfig::reliable().with_partition(0, 2).is_reliable());
    }

    #[test]
    fn arbiter_backpressure_builders_compose() {
        let fault = FaultConfig::reliable()
            .with_arbiter_service_time(Time::seconds(0.5))
            .with_arbiter_batch(16);
        assert_eq!(fault.arbiter_service_time, Time::seconds(0.5));
        assert_eq!(fault.arbiter_batch, 16);
        // A congested Arbiter perturbs delivery times, so it is a fault…
        assert!(!fault.is_reliable());
        assert!(!FaultConfig::reliable()
            .with_arbiter_service_time(Time::seconds(0.1))
            .is_reliable());
        // …but batching alone only changes message granularity.
        assert!(FaultConfig::reliable().with_arbiter_batch(8).is_reliable());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn out_of_range_drop_probability_rejected() {
        let _ = FaultConfig::reliable().with_drop_probability(1.5);
    }
}
