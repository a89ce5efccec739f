//! Training-loss convergence curves.
//!
//! Hyper-parameter tuning frameworks (HyperBand, HyperDrive) decide which
//! jobs to keep or kill by inspecting each job's loss curve and projecting
//! the number of iterations still needed to reach the target accuracy
//! (§5.2, "Work estimation"). Real convergence depends on gradients we do
//! not compute; instead each job carries an analytic [`LossCurve`] that the
//! tuning frameworks observe point-by-point — exercising exactly the same
//! curve-fitting code path the paper describes.

/// An analytic loss curve `loss(iteration)`.
///
/// Two families are supported, mirroring the "best-fit sub-linear or
/// super-linear curve" fitting in the paper's HyperBand implementation (§7):
///
/// * **Power law**: `loss(k) = floor + scale · (k+1)^(-exponent)` — the
///   classic sub-linear training curve.
/// * **Exponential**: `loss(k) = floor + scale · exp(-rate · k)` — faster
///   (super-linear in log space) convergence.
///
/// Jobs with a higher `floor` than the target accuracy will never converge;
/// the tuning framework is expected to classify them as poor and kill them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossCurve {
    /// `loss(k) = floor + scale * (k+1)^(-exponent)`
    PowerLaw {
        /// Asymptotic loss the curve converges to.
        floor: f64,
        /// Initial amplitude above the floor.
        scale: f64,
        /// Decay exponent (> 0); larger means faster convergence.
        exponent: f64,
    },
    /// `loss(k) = floor + scale * exp(-rate * k)`
    Exponential {
        /// Asymptotic loss the curve converges to.
        floor: f64,
        /// Initial amplitude above the floor.
        scale: f64,
        /// Decay rate (> 0); larger means faster convergence.
        rate: f64,
    },
}

impl LossCurve {
    /// A typical well-behaved power-law curve reaching ~0.1 loss.
    pub fn typical() -> Self {
        LossCurve::PowerLaw {
            floor: 0.05,
            scale: 2.0,
            exponent: 0.5,
        }
    }

    /// A curve for a poor hyper-parameter choice: converges to a loss floor
    /// above the usual target, so it should be killed by the tuner.
    pub fn poor() -> Self {
        LossCurve::PowerLaw {
            floor: 0.8,
            scale: 1.5,
            exponent: 0.3,
        }
    }

    /// The loss after `iteration` iterations (0-based).
    pub fn loss_at(&self, iteration: f64) -> f64 {
        let it = iteration.max(0.0);
        match *self {
            LossCurve::PowerLaw {
                floor,
                scale,
                exponent,
            } => floor + scale * (it + 1.0).powf(-exponent),
            LossCurve::Exponential { floor, scale, rate } => floor + scale * (-rate * it).exp(),
        }
    }

    /// The asymptotic floor of the curve.
    pub fn floor(&self) -> f64 {
        match *self {
            LossCurve::PowerLaw { floor, .. } => floor,
            LossCurve::Exponential { floor, .. } => floor,
        }
    }

    /// Whether the curve can ever reach `target` loss.
    pub fn can_reach(&self, target: f64) -> bool {
        self.floor() < target
    }

    /// The (fractional) iteration at which the curve first reaches `target`
    /// loss, or `None` if the target is below the curve's floor.
    pub fn iterations_to_target(&self, target: f64) -> Option<f64> {
        if !self.can_reach(target) {
            return None;
        }
        match *self {
            LossCurve::PowerLaw {
                floor,
                scale,
                exponent,
            } => {
                // target = floor + scale*(k+1)^-e  =>  k = (scale/(target-floor))^(1/e) - 1
                let k = (scale / (target - floor)).powf(1.0 / exponent) - 1.0;
                Some(k.max(0.0))
            }
            LossCurve::Exponential { floor, scale, rate } => {
                // target = floor + scale*exp(-r k)  =>  k = ln(scale/(target-floor))/r
                let k = ((scale / (target - floor)).ln() / rate).max(0.0);
                Some(k)
            }
        }
    }

    /// Loss improvement (decrease) obtained by advancing from iteration
    /// `from` to iteration `to`. Used by the SLAQ baseline, which allocates
    /// GPUs to maximize aggregate loss reduction.
    pub fn loss_reduction(&self, from: f64, to: f64) -> f64 {
        (self.loss_at(from) - self.loss_at(to)).max(0.0)
    }
}

/// Fits a power-law curve `loss(k) = scale * (k+1)^(-exponent)` (zero floor)
/// to observed `(iteration, loss)` samples by least squares in log-log
/// space. This is the work-estimation path the paper's profiler implements
/// by parsing TensorFlow logs (§7); app schedulers use the fitted curve to
/// project iterations-to-target.
///
/// Returns `None` if fewer than two valid samples are provided or the fit
/// degenerates.
pub fn fit_power_law(samples: &[(f64, f64)]) -> Option<LossCurve> {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(k, l)| *l > 0.0 && *k >= 0.0)
        .map(|(k, l)| ((k + 1.0).ln(), l.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let exponent = -slope;
    let scale = intercept.exp();
    if !(exponent.is_finite() && scale.is_finite()) || exponent <= 0.0 || scale <= 0.0 {
        return None;
    }
    Some(LossCurve::PowerLaw {
        floor: 0.0,
        scale,
        exponent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_monotone_decreasing() {
        for curve in [LossCurve::typical(), LossCurve::poor()] {
            let mut prev = f64::INFINITY;
            for k in 0..100 {
                let l = curve.loss_at(k as f64 * 10.0);
                assert!(l <= prev, "loss must not increase");
                assert!(l >= curve.floor());
                prev = l;
            }
        }
    }

    #[test]
    fn iterations_to_target_inverts_loss_at() {
        let curve = LossCurve::typical();
        let target = 0.3;
        let k = curve.iterations_to_target(target).unwrap();
        let loss = curve.loss_at(k);
        assert!(
            (loss - target).abs() < 1e-9,
            "loss({k}) = {loss} != {target}"
        );
    }

    #[test]
    fn unreachable_target_returns_none() {
        let poor = LossCurve::poor();
        assert!(!poor.can_reach(0.5));
        assert_eq!(poor.iterations_to_target(0.5), None);
        // A target above the floor is reachable.
        assert!(poor.iterations_to_target(1.0).is_some());
    }

    #[test]
    fn exponential_curve_behaves() {
        let curve = LossCurve::Exponential {
            floor: 0.1,
            scale: 3.0,
            rate: 0.01,
        };
        assert!((curve.loss_at(0.0) - 3.1).abs() < 1e-12);
        let k = curve.iterations_to_target(0.5).unwrap();
        assert!((curve.loss_at(k) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn loss_reduction_is_non_negative() {
        let curve = LossCurve::typical();
        assert!(curve.loss_reduction(0.0, 100.0) > 0.0);
        assert_eq!(curve.loss_reduction(100.0, 100.0), 0.0);
        // Going backwards clamps to zero rather than producing negative values.
        assert_eq!(curve.loss_reduction(100.0, 0.0), 0.0);
    }

    #[test]
    fn fit_power_law_recovers_parameters() {
        let truth = LossCurve::PowerLaw {
            floor: 0.0,
            scale: 2.5,
            exponent: 0.6,
        };
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|k| {
                let k = k as f64 * 20.0;
                (k, truth.loss_at(k))
            })
            .collect();
        let fitted = fit_power_law(&samples).unwrap();
        match fitted {
            LossCurve::PowerLaw {
                scale, exponent, ..
            } => {
                assert!((scale - 2.5).abs() < 0.05, "scale {scale}");
                assert!((exponent - 0.6).abs() < 0.02, "exponent {exponent}");
            }
            _ => panic!("expected power law"),
        }
    }

    #[test]
    fn fit_power_law_rejects_degenerate_input() {
        assert!(fit_power_law(&[]).is_none());
        assert!(fit_power_law(&[(0.0, 1.0)]).is_none());
        assert!(fit_power_law(&[(0.0, 1.0), (0.0, 1.0)]).is_none());
        // Negative losses are filtered out.
        assert!(fit_power_law(&[(0.0, -1.0), (1.0, -0.5)]).is_none());
    }
}
