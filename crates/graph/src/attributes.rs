//! Attribute schemas and the `f_w` / `F_w` configuration encodings.
//!
//! The paper assumes every node carries a `w`-dimensional *binary* attribute
//! vector `x_i ∈ {0,1}^w` (Section 2.1). Two bijections are used throughout:
//!
//! * `f_w(x_i)` maps a node's attribute vector to one of `2^w` **node
//!   configurations** (the set `Y_w`).
//! * `F_w(x_i, x_j)` maps the unordered pair of attribute vectors on an edge to
//!   one of `C(2^w + 1, 2)` **edge configurations** (the set `Y^F_w`) — the
//!   number of unordered pairs with repetition of node configurations.
//!
//! We represent an attribute vector compactly as a `u32` code whose bit `j` is
//! attribute `x_{ij}`; `f_w` is then the identity on the code and `F_w` is a
//! dense triangular pair index. [`AttributeSchema`] owns the width `w` and the
//! derived cardinalities so downstream code never recomputes them.

use serde::Serialize;

use crate::error::GraphError;

/// Index of a node attribute configuration, i.e. an element of `Y_w`.
pub type NodeConfigIndex = usize;

/// Index of an edge attribute configuration, i.e. an element of `Y^F_w`.
pub type EdgeConfigIndex = usize;

/// Describes the attribute space of a graph: `w` binary attributes per node.
///
/// The schema is cheap to copy and is stored inside every [`crate::AttributedGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct AttributeSchema {
    width: usize,
}

impl AttributeSchema {
    /// Creates a schema with `width` binary attributes per node.
    ///
    /// `width` may be zero (an unattributed graph); it is capped at 16 to keep
    /// the `2^w`-sized configuration tables practical, mirroring the paper's
    /// observation that error grows exponentially with `w`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 16`.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(
            width <= 16,
            "attribute width {width} exceeds supported maximum of 16"
        );
        Self { width }
    }

    /// The number of binary attributes per node, `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// `|Y_w| = 2^w`: the number of distinct node attribute configurations.
    #[must_use]
    pub fn num_node_configs(&self) -> usize {
        1usize << self.width
    }

    /// `|Y^F_w| = C(2^w + 1, 2)`: the number of distinct unordered edge
    /// attribute configurations (pairs with repetition).
    #[must_use]
    pub fn num_edge_configs(&self) -> usize {
        let y = self.num_node_configs();
        y * (y + 1) / 2
    }

    /// Validates that `code` is a legal attribute code under this schema.
    pub fn validate_code(&self, code: u32) -> Result<(), GraphError> {
        if (code as usize) < self.num_node_configs() {
            Ok(())
        } else {
            Err(GraphError::AttributeCodeOutOfRange {
                code,
                width: self.width,
            })
        }
    }

    /// `f_w`: maps an attribute code to its node-configuration index.
    ///
    /// With the compact code representation this is the identity, but it is
    /// kept as an explicit function so call sites mirror the paper's notation.
    #[must_use]
    pub fn node_config(&self, code: u32) -> NodeConfigIndex {
        debug_assert!((code as usize) < self.num_node_configs());
        code as usize
    }

    /// `F_w`: maps the unordered pair of attribute codes on an edge to its
    /// edge-configuration index in `0..num_edge_configs()`.
    ///
    /// The mapping ignores edge direction: `edge_config(a, b) == edge_config(b, a)`.
    #[must_use]
    pub fn edge_config(&self, code_a: u32, code_b: u32) -> EdgeConfigIndex {
        let (lo, hi) = if code_a <= code_b {
            (code_a as usize, code_b as usize)
        } else {
            (code_b as usize, code_a as usize)
        };
        debug_assert!(hi < self.num_node_configs());
        // Dense triangular index over unordered pairs (lo <= hi):
        // all pairs with smaller `lo` come first.
        let y = self.num_node_configs();
        // Number of pairs whose smaller element is < lo:
        //   sum_{t=0}^{lo-1} (y - t) = lo*y - lo*(lo-1)/2
        lo * y - lo * (lo.saturating_sub(1)) / 2 + (hi - lo)
    }

    /// Inverse of [`Self::edge_config`]: returns the unordered pair
    /// `(lo, hi)` of node-configuration codes for an edge-configuration index.
    ///
    /// Returns `None` if `index` is out of range.
    #[must_use]
    pub fn edge_config_pair(&self, index: EdgeConfigIndex) -> Option<(u32, u32)> {
        if index >= self.num_edge_configs() {
            return None;
        }
        let y = self.num_node_configs();
        let mut lo = 0usize;
        let mut base = 0usize;
        loop {
            let row = y - lo; // number of pairs with this smaller element
            if index < base + row {
                let hi = lo + (index - base);
                return Some((lo as u32, hi as u32));
            }
            base += row;
            lo += 1;
        }
    }

    /// Extracts attribute `j` (0 or 1) from a code.
    pub fn attribute_of(&self, code: u32, j: usize) -> Result<u8, GraphError> {
        if j >= self.width {
            return Err(GraphError::AttributeIndexOutOfRange {
                index: j,
                width: self.width,
            });
        }
        Ok(((code >> j) & 1) as u8)
    }

    /// Builds a code from a slice of binary attribute values (`values[j]` is `x_{ij}`).
    pub fn code_from_bits(&self, values: &[u8]) -> Result<u32, GraphError> {
        if values.len() != self.width {
            return Err(GraphError::InvalidParameter(format!(
                "expected {} attribute values, got {}",
                self.width,
                values.len()
            )));
        }
        let mut code = 0u32;
        for (j, &v) in values.iter().enumerate() {
            if v > 1 {
                return Err(GraphError::InvalidParameter(format!(
                    "attribute values must be binary, got {v} at position {j}"
                )));
            }
            code |= u32::from(v) << j;
        }
        Ok(code)
    }

    /// Expands a code into its vector of binary attribute values.
    #[must_use]
    pub fn bits_from_code(&self, code: u32) -> Vec<u8> {
        (0..self.width).map(|j| ((code >> j) & 1) as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_match_paper_formulas() {
        // Paper: for w = 2 binary attributes there are 2^2 = 4 node configs and
        // C(2^2+1, 2) = C(5,2) = 10 edge configs ("ten probabilities", footnote 6).
        let s = AttributeSchema::new(2);
        assert_eq!(s.num_node_configs(), 4);
        assert_eq!(s.num_edge_configs(), 10);

        let s1 = AttributeSchema::new(1);
        assert_eq!(s1.num_node_configs(), 2);
        assert_eq!(s1.num_edge_configs(), 3);

        let s0 = AttributeSchema::new(0);
        assert_eq!(s0.num_node_configs(), 1);
        assert_eq!(s0.num_edge_configs(), 1);

        let s3 = AttributeSchema::new(3);
        assert_eq!(s3.num_node_configs(), 8);
        assert_eq!(s3.num_edge_configs(), 36);
    }

    #[test]
    #[should_panic(expected = "exceeds supported maximum")]
    fn width_is_capped() {
        let _ = AttributeSchema::new(17);
    }

    #[test]
    fn edge_config_is_symmetric_and_bijective() {
        for w in 0..=4 {
            let s = AttributeSchema::new(w);
            let y = s.num_node_configs() as u32;
            let mut seen = vec![false; s.num_edge_configs()];
            for a in 0..y {
                for b in a..y {
                    let idx = s.edge_config(a, b);
                    assert_eq!(idx, s.edge_config(b, a), "F_w must ignore direction");
                    assert!(idx < s.num_edge_configs());
                    assert!(
                        !seen[idx],
                        "F_w must be injective on unordered pairs (w={w}, a={a}, b={b})"
                    );
                    seen[idx] = true;
                    assert_eq!(s.edge_config_pair(idx), Some((a, b)));
                }
            }
            assert!(seen.into_iter().all(|x| x), "F_w must be surjective");
        }
    }

    #[test]
    fn edge_config_pair_out_of_range_is_none() {
        let s = AttributeSchema::new(2);
        assert_eq!(s.edge_config_pair(10), None);
        assert!(s.edge_config_pair(9).is_some());
    }

    #[test]
    fn code_roundtrips_through_bits() {
        let s = AttributeSchema::new(3);
        for code in 0..8u32 {
            let bits = s.bits_from_code(code);
            assert_eq!(s.code_from_bits(&bits).unwrap(), code);
        }
    }

    #[test]
    fn code_from_bits_rejects_bad_input() {
        let s = AttributeSchema::new(2);
        assert!(s.code_from_bits(&[0, 1, 1]).is_err());
        assert!(s.code_from_bits(&[0, 2]).is_err());
    }

    #[test]
    fn attribute_of_extracts_bits() {
        let s = AttributeSchema::new(2);
        let code = s.code_from_bits(&[1, 0]).unwrap();
        assert_eq!(s.attribute_of(code, 0).unwrap(), 1);
        assert_eq!(s.attribute_of(code, 1).unwrap(), 0);
        assert!(s.attribute_of(code, 2).is_err());
    }

    #[test]
    fn validate_code_enforces_range() {
        let s = AttributeSchema::new(2);
        assert!(s.validate_code(3).is_ok());
        assert!(s.validate_code(4).is_err());
    }
}
