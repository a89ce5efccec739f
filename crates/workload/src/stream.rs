//! Open-ended (streaming) trace generation for service mode.
//!
//! A batch trace fixes `num_apps` up front; a long-running open system
//! instead pulls apps one at a time for as long as its horizon lasts.
//! [`TraceStream`] wraps a [`TraceGenerator`] with a cursor:
//! [`next_app_at`](TraceStream::next_app_at) takes the arrival time from
//! the caller (service mode's arrival process), so only the app-attribute
//! draws consume the generator's RNG. Apps get dense sequential ids
//! starting at zero, which the simulator's arena indexing relies on.

use crate::app::AppSpec;
use crate::trace::{TraceConfig, TraceGenerator};
use themis_cluster::ids::AppId;
use themis_cluster::time::Time;

/// An unbounded stream of app specs over a [`TraceGenerator`].
#[derive(Debug)]
pub struct TraceStream {
    generator: TraceGenerator,
    next_id: u32,
    clock: Time,
}

impl TraceStream {
    /// Creates a stream from a trace configuration. The `num_apps` field of
    /// the config is ignored — the stream is unbounded.
    pub fn new(config: TraceConfig) -> Self {
        TraceStream {
            generator: TraceGenerator::new(config),
            next_id: 0,
            clock: Time::ZERO,
        }
    }

    /// Generates the next app with a caller-supplied arrival time (service
    /// mode pairs this with an
    /// `ArrivalProcess`). Arrival times must be non-decreasing.
    pub fn next_app_at(&mut self, arrival: Time) -> AppSpec {
        assert!(
            arrival >= self.clock,
            "arrival times fed to a stream must be non-decreasing"
        );
        self.clock = arrival;
        self.next_spec(arrival)
    }

    fn next_spec(&mut self, arrival: Time) -> AppSpec {
        let id = AppId(self.next_id);
        self.next_id = self.next_id.checked_add(1).expect("app id space exhausted");
        self.generator.generate_app(id, arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn externally_paced_stream_uses_the_given_arrivals() {
        let mut stream = TraceStream::new(TraceConfig::default().with_seed(4));
        let a = stream.next_app_at(Time::minutes(5.0));
        let b = stream.next_app_at(Time::minutes(5.0));
        let c = stream.next_app_at(Time::minutes(42.0));
        assert_eq!(a.arrival, Time::minutes(5.0));
        assert_eq!(b.arrival, Time::minutes(5.0));
        assert_eq!(c.arrival, Time::minutes(42.0));
        assert_eq!(
            (a.id, b.id, c.id),
            (AppId(0), AppId(1), AppId(2)),
            "ids are dense and sequential"
        );
    }

    #[test]
    fn externally_paced_stream_is_deterministic() {
        let run = || {
            let mut stream = TraceStream::new(TraceConfig::default().with_seed(77));
            (0..10)
                .map(|i| stream.next_app_at(Time::minutes(10.0 * i as f64)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_arrivals_are_rejected() {
        let mut stream = TraceStream::new(TraceConfig::default());
        let _ = stream.next_app_at(Time::minutes(10.0));
        let _ = stream.next_app_at(Time::minutes(5.0));
    }
}
