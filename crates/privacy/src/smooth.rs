//! Smooth sensitivity (Nissim, Raskhodnikova & Smith), specialised for the
//! attribute–edge correlation query `Q_F` (Appendix B.1 of the paper).
//!
//! The β-smooth sensitivity of a function `f` at input `D` is
//! `S*_{f,β}(D) = max_t e^{−tβ} · LS^t_f(D)`, where `LS^t_f(D)` is the largest
//! local sensitivity over all inputs within distance `t` of `D`. Adding
//! Laplace noise of scale `2 S*_{f,β}(D) / ε` with `β = ε / (2 ln(2/δ))`
//! satisfies (ε, δ)-differential privacy.
//!
//! For `Q_F` the paper derives (Proposition 4):
//! `S*_{Q_F,β}(G) = max_t e^{−tβ} · min(2 d_max + 2t, 2n − 2)`,
//! with the closed form of Corollary 5. This module implements that closed
//! form and a generic maximiser for other local-sensitivity-at-distance
//! profiles (used by the node-DP extension in `agmdp-core`). The noise itself
//! is the ordinary [`LaplaceMechanism`](crate::LaplaceMechanism) with
//! sensitivity `2 S*`, built after [`beta`] has checked ε and δ.

use crate::error::PrivacyError;
use crate::Result;

/// The smooth-sensitivity parameter `β = ε / (2 ln(2/δ))` used with
/// Laplace noise (Nissim et al., Lemma 2.6 / the paper's Section 2.3).
pub fn beta(epsilon: f64, delta: f64) -> Result<f64> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(PrivacyError::InvalidEpsilon(epsilon));
    }
    check_delta(delta)?;
    Ok(epsilon / (2.0 * (2.0 / delta).ln()))
}

/// The δ rule of [`beta`]: the δ of an (ε, δ) guarantee must lie in (0, 1).
pub fn check_delta(delta: f64) -> Result<()> {
    if delta > 0.0 && delta < 1.0 {
        Ok(())
    } else {
        Err(PrivacyError::InvalidDelta(delta))
    }
}

/// Closed-form β-smooth sensitivity of `Q_F` (Corollary 5).
///
/// * `d_max` — maximum degree of the input graph.
/// * `n` — number of nodes.
/// * `beta` — the smoothing parameter.
///
/// The local sensitivity at distance `t` is `min(2 d_max + 2t, 2n − 2)`; the
/// maximiser of `e^{−tβ}(2 d_max + 2t)` over real `t ≥ 0` is
/// `t* = 1/β − d_max`, giving `2 d_max` when `d_max ≥ 1/β` and
/// `(2/β) e^{β d_max − 1}` otherwise, always capped by `2n − 2`.
#[must_use]
pub fn smooth_sensitivity_qf(d_max: usize, n: usize, beta: f64) -> f64 {
    let d_max = d_max as f64;
    let cap = (2.0 * n as f64 - 2.0).max(0.0);
    if cap == 0.0 {
        return 0.0;
    }
    let unsaturated = if beta <= 0.0 {
        cap
    } else if d_max >= 1.0 / beta {
        2.0 * d_max
    } else {
        (2.0 / beta) * (beta * d_max - 1.0).exp()
    };
    unsaturated.min(cap).max(2.0 * d_max.min(cap / 2.0))
}

/// Generic smooth-sensitivity maximiser: `max_{0 <= t <= t_max} e^{−tβ} · ls(t)`.
///
/// `ls` must be a non-decreasing local-sensitivity-at-distance profile; the
/// caller chooses `t_max` as the distance at which the profile saturates
/// (beyond saturation the exponential decay only shrinks the product, so the
/// maximum over all `t` equals the maximum over `0..=t_max`).
#[must_use]
pub fn smooth_bound<F>(ls_at_distance: F, beta: f64, t_max: usize) -> f64
where
    F: Fn(usize) -> f64,
{
    let mut best: f64 = 0.0;
    for t in 0..=t_max {
        let v = (-(t as f64) * beta).exp() * ls_at_distance(t);
        if v > best {
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_formula_and_validation() {
        let b = beta(1.0, 0.01).unwrap();
        assert!((b - 1.0 / (2.0 * (200.0f64).ln())).abs() < 1e-12);
        assert!(beta(0.0, 0.1).is_err());
        assert!(beta(1.0, 0.0).is_err());
        assert!(beta(1.0, 1.0).is_err());
        assert!(beta(1.0, 1.5).is_err());
    }

    #[test]
    fn qf_smooth_sensitivity_high_degree_regime() {
        // When d_max >= 1/beta the maximum is at t = 0: S* = 2 d_max.
        let b = 0.1;
        assert!((smooth_sensitivity_qf(20, 1_000, b) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn qf_smooth_sensitivity_low_degree_regime() {
        // d_max < 1/beta: S* = (2/beta) e^{beta*d_max - 1} > 2 d_max.
        let b = 0.01;
        let d_max = 10;
        let expected = (2.0 / b) * (b * 10.0 - 1.0f64).exp();
        let got = smooth_sensitivity_qf(d_max, 100_000, b);
        assert!((got - expected).abs() < 1e-9);
        assert!(got > 2.0 * d_max as f64);
    }

    #[test]
    fn qf_smooth_sensitivity_is_capped_by_2n_minus_2() {
        let got = smooth_sensitivity_qf(10, 12, 1e-6);
        assert!(got <= 2.0 * 12.0 - 2.0 + 1e-9);
        // Degenerate graphs.
        assert_eq!(smooth_sensitivity_qf(0, 0, 0.1), 0.0);
        assert_eq!(smooth_sensitivity_qf(0, 1, 0.1), 0.0);
    }

    #[test]
    fn qf_smooth_sensitivity_at_least_local_sensitivity() {
        // S* must never be below the true local sensitivity 2*d_max (capped).
        for &(d, n) in &[(5usize, 100usize), (50, 100), (99, 100), (1, 2)] {
            for &b in &[0.001, 0.05, 0.5, 5.0] {
                let s = smooth_sensitivity_qf(d, n, b);
                let ls = (2.0 * d as f64).min(2.0 * n as f64 - 2.0);
                assert!(
                    s + 1e-9 >= ls,
                    "S*={s} < LS={ls} for d={d}, n={n}, beta={b}"
                );
            }
        }
    }

    #[test]
    fn generic_smooth_bound_matches_closed_form() {
        let d_max = 7usize;
        let n = 5_000usize;
        let b = 0.02;
        let ls = |t: usize| (2.0 * d_max as f64 + 2.0 * t as f64).min(2.0 * n as f64 - 2.0);
        let generic = smooth_bound(ls, b, n);
        let closed = smooth_sensitivity_qf(d_max, n, b);
        // The generic bound maximises over integers only, so it can be at most
        // slightly below the real-valued closed form.
        assert!(generic <= closed + 1e-9);
        assert!((generic - closed).abs() / closed < 0.02);
    }
}
