//! # agmdp-service — the multi-tenant AGM-DP synthesis server
//!
//! Turns the one-shot synthesis pipeline into a long-running JSON-over-HTTP
//! service that answers many requests fast and provably within budget:
//!
//! * **Dataset registry** ([`registry`]) — named graphs, loaded once and
//!   shared across requests.
//! * **Privacy-budget ledger** ([`ledger`]) — one total ε per dataset,
//!   enforced under concurrency via [`agmdp_privacy::PrivacyBudget`]
//!   (sequential composition, Theorem 2 of the paper) and persisted through a
//!   write-ahead journal so cumulative spends survive restarts. Requests that
//!   would exceed the remaining budget are refused with a `402` before any
//!   mechanism runs.
//! * **Fitted-parameter cache** ([`cache`]) — learning `Θ̃` is the only
//!   ε-spending step; re-sampling from already-released parameters is pure
//!   post-processing and costs no ε. Repeat requests hit the cache, skip the
//!   DP learning entirely and leave the ledger untouched.
//! * **Release store** ([`store`]) — the on-disk counterpart of the cache:
//!   every completed job writes its released graph as a content-addressed
//!   `.agb` artifact, and a repeat `/synthesize` for the same key is served
//!   straight from the store — no job runs, no ε is drawn — surviving
//!   restarts and re-sending the release byte-for-byte (zero-copy via the
//!   mmap load path).
//! * **Utility store** ([`evalstore`]) — every completed job's release is
//!   compared against its original (`agmdp_eval::UtilityReport`, ε-free
//!   post-processing) and aggregated per dataset, so `GET /evaluate` reports
//!   the utility of what the server released alongside the ledger's record
//!   of what it cost.
//! * **HTTP server** ([`server`]) — an event-driven front end: one reactor
//!   thread running a nonblocking readiness loop ([`reactor`], over the raw
//!   epoll shim in [`sys`], so the server runs on Linux) with
//!   per-connection HTTP/1.1 keep-alive state machines ([`conn`]), a
//!   bounded job queue into a fixed worker pool, explicit load shedding
//!   (`429`/`503` + `Retry-After`, [`ratelimit`]), and per-connection
//!   read/write/idle deadlines. The container has no crates.io access, so
//!   there is no tokio; [`http`] and [`json`] are the minimal
//!   framing/parsing the endpoints need.
//! * **Observability** ([`telemetry`]) — every request, cache outcome, and
//!   synthesis stage is recorded into an `agmdp_obs` metrics registry served
//!   at `GET /metrics`, with optional JSON access/span logging to stderr.
//!   Stage timings cross the determinism boundary through the clock-free
//!   `StageObserver` hooks; all clock reads stay on this side of it.
//!
//! ## Quickstart
//!
//! ```
//! use agmdp_service::engine::{SynthesisEngine, SynthesisRequest};
//! use agmdp_service::ledger::BudgetLedger;
//!
//! let engine = SynthesisEngine::new(BudgetLedger::in_memory());
//! engine
//!     .register_dataset("toy", agmdp_datasets::toy_social_graph(), 1.0)
//!     .unwrap();
//!
//! // Cold request: draws ε = 0.5 from the ledger and fits Θ̃.
//! let outcome = engine.synthesize(&SynthesisRequest::new("toy", 0.5, 7)).unwrap();
//! assert!(!outcome.cache_hit);
//!
//! // Same request again: cache hit, no additional ε (post-processing).
//! let again = engine.synthesize(&SynthesisRequest::new("toy", 0.5, 7)).unwrap();
//! assert!(again.cache_hit);
//! assert_eq!(again.epsilon_spent, 0.0);
//! assert!((engine.ledger().status("toy").unwrap().spent - 0.5).abs() < 1e-12);
//! ```
//!
//! To serve over HTTP, see [`server::start`] or the `agmdp serve` subcommand.

// `deny` rather than `forbid`: the [`sys`] module is the one sanctioned
// exception (raw epoll syscall bindings — the container has no libc
// crate), and `forbid` would reject even its scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod conn;
pub mod engine;
pub mod error;
pub mod evalstore;
pub mod http;
pub mod jobs;
pub mod json;
pub mod ledger;
pub mod ratelimit;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod store;
#[allow(unsafe_code)]
pub mod sys;
pub mod telemetry;

pub use engine::{SynthesisEngine, SynthesisOutcome, SynthesisRequest};
pub use error::ServiceError;
pub use ledger::{BudgetLedger, BudgetStatus};
pub use server::{start, ServerHandle, ServiceConfig};
pub use store::{ReleaseStore, StoredRelease};
pub use telemetry::{StageTimer, Telemetry};
