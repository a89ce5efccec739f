//! Unbounded arrival processes for the open-system service mode.
//!
//! A closed (batch) run materializes a finite trace up front; service mode
//! instead draws arrival times from an [`ArrivalProcess`] for as long as
//! the run's horizon lasts. Three shapes cover the scenario family the
//! paper's closed traces cannot express:
//!
//! * [`ArrivalShape::Poisson`] — a stationary Poisson process (exponential
//!   inter-arrival gaps at a constant rate), the steady-state baseline;
//! * [`ArrivalShape::Diurnal`] — a sinusoidally rate-modulated process
//!   modelling the day/night load swing of a shared cluster;
//! * [`ArrivalShape::FlashCrowd`] — a stationary process with one bounded
//!   interval at a multiplied rate: an arrival storm against which the
//!   steady-state detector must *not* report convergence.
//!
//! Every process owns a [`SmallRng`] derived from an explicit seed, draws
//! nothing at construction time, and consumes exactly one draw per
//! arrival — so pinned seeds give bit-reproducible arrival sequences, and
//! two processes with the same seed but different shapes stay comparable
//! draw-for-draw.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use themis_cluster::time::Time;
use themis_workload::distributions::sample_exponential;

/// The shape of the arrival rate over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Constant rate: exponential inter-arrival gaps with the configured
    /// mean.
    Poisson,
    /// Sinusoidal rate modulation with the given period: the instantaneous
    /// rate is `base × (1 + amplitude × sin(2πt/period))`, clamped so it
    /// never drops below 10% of the base rate. `amplitude` in `[0, 1]`.
    Diurnal {
        /// Length of one full day/night cycle.
        period: Time,
        /// Relative swing of the rate around its base (0 = flat, 1 = the
        /// trough nearly stalls).
        amplitude: f64,
    },
    /// A stationary process whose rate is multiplied by `factor` while
    /// `t ∈ [at, at + width)` — a bounded arrival storm.
    FlashCrowd {
        /// Start of the storm.
        at: Time,
        /// Duration of the storm.
        width: Time,
        /// Rate multiplier during the storm (e.g. 8.0).
        factor: f64,
    },
}

impl ArrivalShape {
    /// The rate multiplier at simulated time `t` (1.0 = the base rate).
    fn modulation(&self, t: Time) -> f64 {
        match *self {
            ArrivalShape::Poisson => 1.0,
            ArrivalShape::Diurnal { period, amplitude } => {
                let phase = 2.0 * std::f64::consts::PI * t.as_minutes() / period.as_minutes();
                (1.0 + amplitude * phase.sin()).max(0.1)
            }
            ArrivalShape::FlashCrowd { at, width, factor } => {
                if t >= at && t < at + width {
                    factor
                } else {
                    1.0
                }
            }
        }
    }
}

/// A deterministic, unbounded stream of arrival times.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    shape: ArrivalShape,
    mean_interarrival: Time,
    rng: SmallRng,
    clock: Time,
}

impl ArrivalProcess {
    /// Creates a process with the given shape, base mean inter-arrival gap
    /// and seed. Panics on a non-positive mean.
    pub fn new(shape: ArrivalShape, mean_interarrival: Time, seed: u64) -> Self {
        assert!(
            mean_interarrival > Time::ZERO,
            "mean inter-arrival must be positive"
        );
        ArrivalProcess {
            shape,
            mean_interarrival,
            // Decorrelate from the workload generator, which seeds its rng
            // with the raw scenario seed.
            rng: SmallRng::seed_from_u64(seed ^ 0xA55A_1234_5678_9ABC),
            clock: Time::ZERO,
        }
    }

    /// Draws the next absolute arrival time (strictly non-decreasing). The
    /// rate modulation is sampled at the current clock: a draw landing
    /// inside a flash crowd or a diurnal peak uses that instant's rate,
    /// which keeps the sampler one-draw-per-arrival and fully
    /// deterministic.
    pub fn next_arrival(&mut self) -> Time {
        let rate_scale = self.shape.modulation(self.clock);
        let mean = self.mean_interarrival.as_minutes() / rate_scale;
        let gap = sample_exponential(&mut self.rng, mean);
        self.clock += Time::minutes(gap);
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_until(process: &mut ArrivalProcess, horizon: Time) -> Vec<Time> {
        let mut out = Vec::new();
        loop {
            let t = process.next_arrival();
            if t > horizon {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn poisson_is_deterministic_and_roughly_calibrated() {
        let horizon = Time::minutes(100_000.0);
        let mean = Time::minutes(20.0);
        let poisson = |seed| ArrivalProcess::new(ArrivalShape::Poisson, mean, seed);
        let a = collect_until(&mut poisson(7), horizon);
        let b = collect_until(&mut poisson(7), horizon);
        assert_eq!(a, b, "pinned seed must reproduce the arrival sequence");
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals non-decreasing"
        );
        // ~5000 expected arrivals; allow a generous CLT band.
        let n = a.len() as f64;
        assert!(
            (4500.0..5500.0).contains(&n),
            "poisson arrival count {n} far from expectation"
        );
        let other_seed = collect_until(&mut poisson(8), horizon);
        assert_ne!(a, other_seed, "different seeds give different sequences");
    }

    #[test]
    fn diurnal_peak_half_outdraws_trough_half() {
        let period = Time::minutes(1440.0);
        let mut process = ArrivalProcess::new(
            ArrivalShape::Diurnal {
                period,
                amplitude: 0.9,
            },
            Time::minutes(10.0),
            3,
        );
        // sin is positive on the first half of each cycle, negative on the
        // second: count arrivals falling in each half over many cycles.
        let horizon = Time::minutes(1440.0 * 50.0);
        let arrivals = collect_until(&mut process, horizon);
        let half = period.as_minutes() / 2.0;
        let (mut peak, mut trough) = (0usize, 0usize);
        for t in &arrivals {
            if t.as_minutes() % period.as_minutes() < half {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "diurnal peak half ({peak}) should clearly outdraw the trough half ({trough})"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_storm() {
        let at = Time::minutes(500.0);
        let width = Time::minutes(100.0);
        let mut process = ArrivalProcess::new(
            ArrivalShape::FlashCrowd {
                at,
                width,
                factor: 10.0,
            },
            Time::minutes(10.0),
            11,
        );
        let arrivals = collect_until(&mut process, Time::minutes(1100.0));
        let in_storm = arrivals
            .iter()
            .filter(|t| **t >= at && **t < at + width)
            .count();
        let outside = arrivals.len() - in_storm;
        // The storm window is 1/11 of the horizon but runs 10× hot: it must
        // hold a disproportionate share of the arrivals.
        assert!(
            in_storm as f64 > outside as f64 * 0.5,
            "storm window holds {in_storm} of {} arrivals — not a storm",
            arrivals.len()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_interarrival_is_rejected() {
        let _ = ArrivalProcess::new(ArrivalShape::Poisson, Time::ZERO, 1);
    }
}
