//! Categorical-attribute binarisation (Section 7, "Non-Binary Attributes").
//!
//! The paper's framework works on binary attribute vectors, and notes that
//! categorical or bucketed continuous attributes can be supported "by simply
//! converting each attribute to a series of binary attributes, one per
//! category or range" (e.g. marital status → `isMarried`, `isDivorced`,
//! `isSingleOrWidowed`). [`CategoricalEncoder`] implements that conversion:
//! it owns a list of categorical attribute definitions, computes the total
//! binary width `w`, and maps per-node category selections to/from the compact
//! attribute codes used by [`crate::AttributedGraph`].

use serde::{Deserialize, Serialize};

use crate::attributes::AttributeSchema;
use crate::error::GraphError;
use crate::Result;

/// One categorical attribute: a name plus its category labels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoricalAttribute {
    /// Attribute name (e.g. `"marital_status"`).
    pub name: String,
    /// Category labels, in the order of their one-hot bit positions.
    pub categories: Vec<String>,
}

impl CategoricalAttribute {
    /// Creates a categorical attribute with at least one category.
    pub fn new(name: impl Into<String>, categories: &[&str]) -> Result<Self> {
        if categories.is_empty() {
            return Err(GraphError::InvalidParameter(
                "a categorical attribute needs at least one category".to_string(),
            ));
        }
        Ok(Self {
            name: name.into(),
            categories: categories.iter().map(|s| (*s).to_string()).collect(),
        })
    }
}

/// Encodes a set of categorical attributes as the one-hot binary attribute
/// vector the AGM framework operates on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoricalEncoder {
    attributes: Vec<CategoricalAttribute>,
    /// Bit offset of every attribute within the binary vector.
    offsets: Vec<usize>,
    width: usize,
}

impl CategoricalEncoder {
    /// Builds an encoder; the total one-hot width (sum of category counts)
    /// must not exceed the 16-bit limit of [`AttributeSchema`].
    pub fn new(attributes: Vec<CategoricalAttribute>) -> Result<Self> {
        let mut offsets = Vec::with_capacity(attributes.len());
        let mut width = 0usize;
        for a in &attributes {
            offsets.push(width);
            width += a.categories.len();
        }
        if width > 16 {
            return Err(GraphError::InvalidParameter(format!(
                "one-hot width {width} exceeds the supported maximum of 16 binary attributes"
            )));
        }
        Ok(Self {
            attributes,
            offsets,
            width,
        })
    }

    /// The binary attribute schema implied by the encoding.
    #[must_use]
    pub fn schema(&self) -> AttributeSchema {
        AttributeSchema::new(self.width)
    }

    /// Total number of binary attributes `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The categorical attribute definitions.
    #[must_use]
    pub fn attributes(&self) -> &[CategoricalAttribute] {
        &self.attributes
    }

    /// Encodes one category selection per attribute (by category label) into a
    /// compact attribute code.
    pub fn encode_labels(&self, labels: &[&str]) -> Result<u32> {
        if labels.len() != self.attributes.len() {
            return Err(GraphError::InvalidParameter(format!(
                "expected {} category labels, got {}",
                self.attributes.len(),
                labels.len()
            )));
        }
        let mut code = 0u32;
        for ((attr, offset), &label) in self.attributes.iter().zip(&self.offsets).zip(labels) {
            let pos = attr
                .categories
                .iter()
                .position(|c| c == label)
                .ok_or_else(|| {
                    GraphError::InvalidParameter(format!(
                        "unknown category '{label}' for attribute '{}'",
                        attr.name
                    ))
                })?;
            code |= 1u32 << (offset + pos);
        }
        Ok(code)
    }

    /// Encodes one category selection per attribute (by category index).
    pub fn encode_indices(&self, indices: &[usize]) -> Result<u32> {
        if indices.len() != self.attributes.len() {
            return Err(GraphError::InvalidParameter(format!(
                "expected {} category indices, got {}",
                self.attributes.len(),
                indices.len()
            )));
        }
        let mut code = 0u32;
        for ((attr, offset), &idx) in self.attributes.iter().zip(&self.offsets).zip(indices) {
            if idx >= attr.categories.len() {
                return Err(GraphError::InvalidParameter(format!(
                    "category index {idx} out of range for attribute '{}'",
                    attr.name
                )));
            }
            code |= 1u32 << (offset + idx);
        }
        Ok(code)
    }

    /// Decodes a compact attribute code back into one category label per
    /// attribute. Codes that do not have exactly one bit set per attribute
    /// (which can arise from independently sampled synthetic attribute
    /// vectors) decode to the lowest set category, or the first category if
    /// none is set — mirroring how an analyst would read a one-hot vector.
    #[must_use]
    pub fn decode(&self, code: u32) -> Vec<&str> {
        self.attributes
            .iter()
            .zip(&self.offsets)
            .map(|(attr, &offset)| {
                let slice = (code >> offset) & ((1u32 << attr.categories.len()) - 1);
                let pos = slice.trailing_zeros() as usize;
                if slice == 0 || pos >= attr.categories.len() {
                    attr.categories[0].as_str()
                } else {
                    attr.categories[pos].as_str()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::GraphView;

    fn marital_and_age() -> CategoricalEncoder {
        CategoricalEncoder::new(vec![
            CategoricalAttribute::new("marital", &["married", "divorced", "single_or_widowed"])
                .unwrap(),
            CategoricalAttribute::new("age", &["<=30", ">30"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn width_is_sum_of_category_counts() {
        let enc = marital_and_age();
        assert_eq!(enc.width(), 5);
        assert_eq!(enc.schema().width(), 5);
        assert_eq!(enc.attributes().len(), 2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = marital_and_age();
        let code = enc.encode_labels(&["divorced", ">30"]).unwrap();
        assert_eq!(enc.decode(code), vec!["divorced", ">30"]);
        let code2 = enc.encode_indices(&[2, 0]).unwrap();
        assert_eq!(enc.decode(code2), vec!["single_or_widowed", "<=30"]);
        assert_ne!(code, code2);
        // Every valid code fits the schema.
        enc.schema().validate_code(code).unwrap();
        enc.schema().validate_code(code2).unwrap();
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let enc = marital_and_age();
        assert!(enc.encode_labels(&["married"]).is_err());
        assert!(enc.encode_labels(&["widowed", ">30"]).is_err());
        assert!(enc.encode_indices(&[0, 5]).is_err());
        assert!(CategoricalAttribute::new("empty", &[]).is_err());
        // Width cap.
        let too_wide = CategoricalEncoder::new(vec![
            CategoricalAttribute::new("a", &["1", "2", "3", "4", "5", "6", "7", "8", "9"]).unwrap(),
            CategoricalAttribute::new("b", &["1", "2", "3", "4", "5", "6", "7", "8", "9"]).unwrap(),
        ]);
        assert!(too_wide.is_err());
    }

    #[test]
    fn decode_tolerates_non_one_hot_codes() {
        let enc = marital_and_age();
        // All-zero code decodes to the first category of each attribute.
        assert_eq!(enc.decode(0), vec!["married", "<=30"]);
        // Multiple bits set: the lowest category wins.
        let messy = 0b11011u32;
        let decoded = enc.decode(messy);
        assert_eq!(decoded.len(), 2);
    }

    #[test]
    fn encoder_integrates_with_attributed_graph() {
        use crate::AttributedGraph;
        let enc = marital_and_age();
        let mut g = AttributedGraph::new(2, enc.schema());
        let code = enc.encode_labels(&["married", "<=30"]).unwrap();
        g.set_attribute_code(0, code).unwrap();
        assert_eq!(enc.decode(g.attribute_code(0)), vec!["married", "<=30"]);
    }
}
