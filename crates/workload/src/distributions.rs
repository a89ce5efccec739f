//! Random samplers used by the trace generator.
//!
//! The allowed dependency set does not include `rand_distr`, so the few
//! distributions the trace needs (exponential inter-arrival times for a
//! Poisson arrival process, log-normal task durations for a long-tailed
//! duration distribution, and discrete empirical distributions) are
//! implemented here from `rand` primitives.

use rand::Rng;

/// Samples an exponentially-distributed value with the given mean
/// (inverse-CDF method). Used for Poisson-process inter-arrival times
/// (the paper models app arrivals as Poisson with a mean inter-arrival time
/// of 20 minutes, §8.1).
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "mean must be positive");
    // u in (0, 1]: avoid ln(0).
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// Samples a standard normal variate using the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a log-normal variate parameterized by the *median* and a shape
/// parameter `sigma` (the std-dev of the underlying normal). The median
/// parameterization makes it easy to match the paper's reported medians
/// (e.g. 59-minute median task duration with a long tail).
pub fn sample_lognormal_median<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "median must be positive");
    assert!(sigma >= 0.0, "sigma must be non-negative");
    let mu = median.ln();
    (mu + sigma * sample_standard_normal(rng)).exp()
}

/// A discrete distribution over arbitrary items with explicit weights.
#[derive(Debug, Clone)]
pub struct Discrete<T> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T: Clone> Discrete<T> {
    /// Builds a discrete distribution from `(item, weight)` pairs.
    ///
    /// # Panics
    /// Panics if no pair has a positive weight.
    pub fn new(pairs: impl IntoIterator<Item = (T, f64)>) -> Self {
        let mut items = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0.0;
        for (item, weight) in pairs {
            assert!(weight >= 0.0, "weights must be non-negative");
            if weight > 0.0 {
                total += weight;
                items.push(item);
                cumulative.push(total);
            }
        }
        assert!(total > 0.0, "at least one weight must be positive");
        Discrete { items, cumulative }
    }

    /// Samples one item according to the weights.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let x: f64 = rng.gen::<f64>() * total;
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i,
        };
        self.items[idx.min(self.items.len() - 1)].clone()
    }
}

/// Computes the empirical quantile `q` (in `[0,1]`) of a data set.
/// Used by trace statistics and tests to check medians / percentiles.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let mean = 20.0;
        let sum: f64 = (0..n).map(|_| sample_exponential(&mut rng, mean)).sum();
        let empirical = sum / n as f64;
        assert!(
            (empirical - mean).abs() < 1.0,
            "empirical mean {empirical} too far from {mean}"
        );
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = SmallRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_lognormal_median(&mut rng, 59.0, 1.0))
            .collect();
        let median = quantile(&samples, 0.5);
        assert!(
            (median - 59.0).abs() < 5.0,
            "empirical median {median} too far from 59"
        );
        // Long tail: the 95th percentile is far above the median.
        assert!(quantile(&samples, 0.95) > 2.0 * median);
    }

    #[test]
    fn discrete_respects_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        let dist = Discrete::new([("a", 0.75), ("b", 0.25), ("c", 0.0)]);
        assert_eq!(dist.items.len(), 2, "zero-weight items are dropped");
        let n = 10_000;
        let a_count = (0..n).filter(|_| dist.sample(&mut rng) == "a").count();
        let frac = a_count as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "fraction of 'a' was {frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn discrete_requires_positive_weight() {
        let _ = Discrete::new([("a", 0.0)]);
    }

    #[test]
    fn quantile_basics() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                sample_exponential(&mut a, 10.0),
                sample_exponential(&mut b, 10.0)
            );
        }
    }
}
