//! Best-of-N and percentile helpers for host timings (nanoseconds).

/// Fastest, median and slowest of one cell's timed repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub min: u64,
    pub median: u64,
    pub max: u64,
}

/// Summarizes a non-empty sample set.
pub fn spread(samples: &[u64]) -> Spread {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Spread {
        min: sorted[0],
        median: percentile(&sorted, 0.5),
        max: sorted[sorted.len() - 1],
    }
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index of the fastest sample (first one on ties).
pub fn argmin(samples: &[u64]) -> usize {
    let mut best = 0;
    for (i, s) in samples.iter().enumerate() {
        if *s < samples[best] {
            best = i;
        }
    }
    best
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did not run).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        let s = spread(&[30, 10, 20]);
        assert_eq!((s.min, s.median, s.max), (10, 20, 30));
        assert_eq!(argmin(&[3, 1, 1]), 1);
    }
}
