//! # agmdp-graph
//!
//! Attributed simple-graph substrate for the AGM-DP reproduction
//! ("Publishing Attributed Social Graphs with Formal Privacy Guarantees",
//! Jorgensen, Yu & Cormode, SIGMOD 2016).
//!
//! The paper models a social network as an undirected, unweighted simple graph
//! `G = (N, E, X)` where every node carries a `w`-dimensional binary attribute
//! vector. This crate provides:
//!
//! * [`AttributedGraph`] — the mutable build-phase graph, with dense `u32`
//!   node ids, one sorted adjacency list per node and per-node attribute
//!   codes. It keeps no edge list: edges enumerate in lexicographic order,
//!   the canonical edge ordering edge truncation walks ([`truncation`]),
//!   and TriCycLe keeps its sampler's insertion order for the oldest-edge
//!   rule itself.
//! * [`FrozenGraph`] — the one immutable CSR graph every read-side consumer
//!   takes: frozen from an [`AttributedGraph`], deserialised from `.agb`
//!   bytes, or memory-mapped from an `.agb` file and read in place
//!   ([`FrozenGraph::open`] / [`FrozenGraph::open_trusted`]).
//! * [`GraphView`] — the one read API. Both representations implement it,
//!   so every analysis function and DP learner accepts either (see the
//!   [`frozen`] module docs for the freeze contract).
//! * [`AttributeSchema`] / attribute-code helpers implementing the paper's
//!   `f_w` (node-configuration) and `F_w` (edge-configuration) encodings.
//! * Structural analyses used throughout the paper: degree sequences and
//!   distributions ([`degree`]), triangle and wedge counting ([`triangles`]),
//!   local/global clustering coefficients ([`clustering`]), connected
//!   components and orphan detection ([`components`]).
//! * The edge-truncation operator µ(G, k) of Definition 2 ([`truncation`]).
//! * Induced subgraphs and random node partitions used by the
//!   sample-and-aggregate mechanism ([`subgraph`]).
//! * The plain-text and binary `.agb` interchange formats ([`io`]).
//!
//! The crate is deterministic: it contains no randomness of its own (random
//! partitioning takes a caller-provided shuffled order), so all DP guarantees
//! and experiments remain reproducible from the seeds used upstream.
//!
//! ## Quick example
//!
//! ```
//! use agmdp_graph::{AttributeSchema, AttributedGraph, GraphView};
//!
//! // A 4-node graph with w = 2 binary attributes per node.
//! let schema = AttributeSchema::new(2);
//! let mut g = AttributedGraph::new(4, schema);
//! g.set_attribute_code(0, 0b00).unwrap();
//! g.set_attribute_code(1, 0b01).unwrap();
//! g.set_attribute_code(2, 0b11).unwrap();
//! g.set_attribute_code(3, 0b01).unwrap();
//! g.add_edge(0, 1).unwrap();
//! g.add_edge(1, 2).unwrap();
//! g.add_edge(2, 0).unwrap();
//! g.add_edge(2, 3).unwrap();
//!
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(agmdp_graph::triangles::count_triangles(&g), 1);
//! ```

// `deny` rather than `forbid`: the `mmap` module is the one sanctioned
// exception (raw `mmap`/`munmap` bindings and the byte→word reinterpretation
// of the zero-copy load path — the container has no libc or bytemuck crate),
// and `forbid` would reject even its scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod attributes;
pub mod builder;
pub mod categorical;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod error;
pub mod frozen;
pub mod graph;
pub mod io;
#[allow(unsafe_code)]
mod mmap;
pub mod subgraph;
pub mod triangles;
pub mod truncation;
pub mod view;

pub use attributes::{AttributeSchema, EdgeConfigIndex, NodeConfigIndex};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use frozen::FrozenGraph;
pub use graph::{AttributedGraph, Edge, NodeId};
pub use view::GraphView;

/// The name the repository benchmark (`perfbench/`) uses for a graph opened
/// from an `.agb` file: the same [`FrozenGraph`].
pub type MappedGraph = FrozenGraph;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
