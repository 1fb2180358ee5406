//! Complementary cumulative distribution functions (CCDFs).
//!
//! Figures 2 and 3 of the paper plot, on log–log axes, the fraction of nodes
//! whose degree (respectively local clustering coefficient) is *greater than*
//! a given x-value. [`ccdf_points`] turns a sample vector into that curve.

use serde::Serialize;

/// One point of a CCDF curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CcdfPoint {
    /// The x-value (a degree, clustering coefficient, …).
    pub value: f64,
    /// Fraction of samples strictly greater than `value`.
    pub fraction_greater: f64,
}

/// Computes the empirical CCDF of `samples`.
///
/// The returned points are sorted by increasing `value` and contain one entry
/// per distinct sample value. An empty input yields an empty curve.
#[must_use]
pub fn ccdf_points(samples: &[f64]) -> Vec<CcdfPoint> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < sorted.len() {
        let v = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == v {
            j += 1;
        }
        out.push(CcdfPoint {
            value: v,
            fraction_greater: (sorted.len() - j) as f64 / n,
        });
        i = j;
    }
    out
}

/// Evaluates a CCDF curve at an arbitrary `x`: the fraction of samples
/// strictly greater than `x` (step-wise interpolation).
#[must_use]
pub fn ccdf_at(points: &[CcdfPoint], x: f64) -> f64 {
    // Points are sorted by value; find the last point with value <= x.
    match points.iter().rposition(|p| p.value <= x) {
        Some(idx) => points[idx].fraction_greater,
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_of_simple_sample() {
        let pts = ccdf_points(&[1.0, 1.0, 2.0, 3.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(
            pts[0],
            CcdfPoint {
                value: 1.0,
                fraction_greater: 0.5
            }
        );
        assert_eq!(
            pts[1],
            CcdfPoint {
                value: 2.0,
                fraction_greater: 0.25
            }
        );
        assert_eq!(
            pts[2],
            CcdfPoint {
                value: 3.0,
                fraction_greater: 0.0
            }
        );
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing() {
        let pts = ccdf_points(&[5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 1.0]);
        for w in pts.windows(2) {
            assert!(w[0].value < w[1].value);
            assert!(w[0].fraction_greater >= w[1].fraction_greater);
        }
        assert_eq!(pts.last().unwrap().fraction_greater, 0.0);
    }

    #[test]
    fn ccdf_empty_input() {
        assert!(ccdf_points(&[]).is_empty());
    }

    #[test]
    fn ccdf_evaluation_between_points() {
        let pts = ccdf_points(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(ccdf_at(&pts, 0.5), 1.0); // below every sample
        assert_eq!(ccdf_at(&pts, 1.0), 0.75);
        assert_eq!(ccdf_at(&pts, 3.0), 0.5); // between 2 and 4
        assert_eq!(ccdf_at(&pts, 100.0), 0.0);
    }
}
