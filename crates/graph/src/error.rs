//! Error types for the graph substrate.

use std::fmt;

/// Errors produced by graph construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id was out of range for the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The number of nodes in the graph.
        num_nodes: usize,
    },
    /// A self-loop was requested; the paper's graphs are simple.
    SelfLoop {
        /// The node on which the self-loop was attempted.
        node: u32,
    },
    /// The edge already exists (multi-edges are not allowed in a simple graph).
    DuplicateEdge {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// The requested edge does not exist.
    MissingEdge {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// An attribute code exceeded the schema's `2^w` configurations.
    AttributeCodeOutOfRange {
        /// The offending code.
        code: u32,
        /// The attribute width `w`.
        width: usize,
    },
    /// An attribute index exceeded the schema width.
    AttributeIndexOutOfRange {
        /// The offending attribute position.
        index: usize,
        /// The attribute width `w`.
        width: usize,
    },
    /// A parameter was invalid (empty graph, zero width, etc.).
    InvalidParameter(String),
    /// Failure while parsing or writing the text interchange format.
    Format(String),
    /// A binary graph file did not start with the `.agb` magic bytes.
    BadMagic,
    /// A binary graph file declared a format version this build cannot read.
    UnsupportedVersion {
        /// The version recorded in the file header.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// A binary graph file ended before the declared payload was complete.
    TruncatedBinary {
        /// Bytes the header implies the file must contain.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The trailing checksum of a binary graph file does not match its
    /// contents (bit rot or an interrupted write).
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum computed over the file's contents.
        computed: u64,
    },
    /// An underlying I/O error (carried as a string so the error stays `Clone + Eq`).
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node id {node} out of range for graph with {num_nodes} nodes"
                )
            }
            GraphError::SelfLoop { node } => {
                write!(
                    f,
                    "self-loop on node {node} is not allowed in a simple graph"
                )
            }
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge ({u}, {v}) already exists")
            }
            GraphError::MissingEdge { u, v } => write!(f, "edge ({u}, {v}) does not exist"),
            GraphError::AttributeCodeOutOfRange { code, width } => {
                write!(f, "attribute code {code} out of range for width {width}")
            }
            GraphError::AttributeIndexOutOfRange { index, width } => {
                write!(f, "attribute index {index} out of range for width {width}")
            }
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            GraphError::Format(msg) => write!(f, "format error: {msg}"),
            GraphError::BadMagic => {
                write!(f, "not a binary graph file (missing AGB magic bytes)")
            }
            GraphError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported binary graph version {found} (this build reads up to {supported})"
                )
            }
            GraphError::TruncatedBinary { expected, actual } => {
                write!(
                    f,
                    "truncated binary graph file: expected {expected} bytes, found {actual}"
                )
            }
            GraphError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "binary graph checksum mismatch: file records {stored:#018x}, contents hash to {computed:#018x}"
                )
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(err: std::io::Error) -> Self {
        GraphError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 7,
            num_nodes: 3,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));

        let e = GraphError::SelfLoop { node: 2 };
        assert!(e.to_string().contains("self-loop"));

        let e = GraphError::DuplicateEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("already exists"));

        let e = GraphError::MissingEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("does not exist"));

        let e = GraphError::AttributeCodeOutOfRange { code: 9, width: 2 };
        assert!(e.to_string().contains("attribute code"));

        let e = GraphError::AttributeIndexOutOfRange { index: 5, width: 2 };
        assert!(e.to_string().contains("attribute index"));

        let e = GraphError::InvalidParameter("w must be positive".into());
        assert!(e.to_string().contains("w must be positive"));

        let e = GraphError::Format("bad header".into());
        assert!(e.to_string().contains("bad header"));
    }

    #[test]
    fn io_error_converts() {
        let io_err = std::io::Error::new(std::io::ErrorKind::NotFound, "missing file");
        let e: GraphError = io_err.into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(e.to_string().contains("missing file"));
    }

    #[test]
    fn error_is_clone_and_eq() {
        let a = GraphError::DuplicateEdge { u: 1, v: 2 };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
