//! The Laplace mechanism (Section 2.3 of the paper).
//!
//! A real-valued function `f` with L1 global sensitivity `Δf` is made
//! ε-differentially private by adding noise drawn from the Laplace
//! distribution with mean 0 and scale `λ = Δf / ε` to its output (to every
//! coordinate, when `f` is vector valued and `Δf` bounds the L1 distance of
//! the whole output vector).
//!
//! Sampling uses the inverse-CDF transform on a `rand` uniform, so no extra
//! dependency is required and all draws are reproducible from the caller's
//! seeded RNG.

use rand::Rng;

use crate::error::PrivacyError;
use crate::Result;

/// Draws one sample from the Laplace distribution with mean 0 and scale `b`.
///
/// Uses the inverse CDF: for `u ~ Uniform(-0.5, 0.5)`,
/// `x = -b * sign(u) * ln(1 - 2|u|)`. Private to the crate: callers add
/// noise through [`LaplaceMechanism`], which checks ε and the sensitivity.
///
/// # Panics
///
/// Debug-asserts that `b` is positive and finite.
pub(crate) fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(
        scale.is_finite() && scale > 0.0,
        "Laplace scale must be positive"
    );
    // `gen::<f64>()` is uniform in [0, 1), so u is in [-0.5, 0.5); guard the
    // reachable -0.5 endpoint to avoid ln(0) = -inf.
    let mut u: f64 = rng.gen::<f64>() - 0.5;
    if u == -0.5 {
        u = -0.499_999_999_999;
    }
    let magnitude = (1.0 - 2.0 * u.abs()).ln();
    -scale * u.signum() * magnitude
}

/// A configured Laplace mechanism: ε and the L1 global sensitivity of the
/// query it will be applied to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism for privacy parameter `epsilon` and L1 sensitivity
    /// `sensitivity`.
    pub fn new(epsilon: f64, sensitivity: f64) -> Result<Self> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(PrivacyError::InvalidEpsilon(epsilon));
        }
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(PrivacyError::InvalidSensitivity(sensitivity));
        }
        Ok(Self {
            epsilon,
            sensitivity,
        })
    }

    /// The Laplace scale `λ = Δf / ε` that will be used.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Adds Laplace noise to a single scalar.
    pub fn randomize<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        value + sample_laplace(rng, self.scale())
    }

    /// Adds independent Laplace noise to every element of a vector.
    ///
    /// The configured sensitivity must bound the L1 distance between the whole
    /// output vectors on neighboring inputs (as is the case for the count
    /// vectors `Q_F` and `Q_X` in the paper).
    pub fn randomize_vec<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        values.iter().map(|&v| self.randomize(v, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_parameters() {
        assert!(LaplaceMechanism::new(1.0, 1.0).is_ok());
        assert!(matches!(
            LaplaceMechanism::new(0.0, 1.0),
            Err(PrivacyError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            LaplaceMechanism::new(-1.0, 1.0),
            Err(PrivacyError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            LaplaceMechanism::new(f64::NAN, 1.0),
            Err(PrivacyError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            LaplaceMechanism::new(1.0, 0.0),
            Err(PrivacyError::InvalidSensitivity(_))
        ));
        assert!(matches!(
            LaplaceMechanism::new(1.0, f64::INFINITY),
            Err(PrivacyError::InvalidSensitivity(_))
        ));
    }

    #[test]
    fn scale_is_sensitivity_over_epsilon() {
        let m = LaplaceMechanism::new(0.5, 2.0).unwrap();
        assert!((m.scale() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sample_mean_and_spread_match_distribution() {
        // Laplace(0, b) has mean 0 and variance 2b²; check empirically.
        let mut rng = StdRng::seed_from_u64(42);
        let b = 3.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, b)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "empirical mean {mean} too far from 0");
        assert!(
            (var - 2.0 * b * b).abs() / (2.0 * b * b) < 0.05,
            "variance {var} off"
        );
    }

    #[test]
    fn sample_sign_is_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let positives = (0..n)
            .filter(|_| sample_laplace(&mut rng, 1.0) > 0.0)
            .count() as f64
            / n as f64;
        assert!((positives - 0.5).abs() < 0.01);
    }

    #[test]
    fn randomize_vec_has_expected_length_and_is_deterministic_per_seed() {
        let m = LaplaceMechanism::new(1.0, 1.0).unwrap();
        let vals = vec![1.0, 2.0, 3.0];
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let a = m.randomize_vec(&vals, &mut rng1);
        let b = m.randomize_vec(&vals, &mut rng2);
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "same seed must give identical noise");
        let mut rng3 = StdRng::seed_from_u64(10);
        let c = m.randomize_vec(&vals, &mut rng3);
        assert_ne!(a, c, "different seeds should give different noise");
    }

    #[test]
    fn noise_magnitude_scales_with_epsilon() {
        // Smaller epsilon (stronger privacy) must yield larger average noise.
        let mut rng = StdRng::seed_from_u64(5);
        let strong = LaplaceMechanism::new(0.1, 1.0).unwrap();
        let weak = LaplaceMechanism::new(10.0, 1.0).unwrap();
        let n = 20_000;
        let avg = |m: &LaplaceMechanism, rng: &mut StdRng| {
            (0..n).map(|_| (m.randomize(0.0, rng)).abs()).sum::<f64>() / n as f64
        };
        let strong_noise = avg(&strong, &mut rng);
        let weak_noise = avg(&weak, &mut rng);
        assert!(strong_noise > 10.0 * weak_noise);
    }
}
