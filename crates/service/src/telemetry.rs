//! Service-side observability: the clock-owning half of the stage-observer
//! seam, plus the request/engine metric families.
//!
//! The deterministic crates emit [`SynthesisStage`] boundaries through
//! `agmdp_models::observe::StageObserver` without ever reading a clock;
//! [`StageTimer`] is the implementation that actually calls
//! `Instant::now`, records the elapsed time into the
//! `agmdp_stage_duration_seconds` histogram, and writes one JSON span line
//! per stage. All wall-clock reads of the synthesis path live in this
//! module (and `server.rs` for whole-request latency) — exactly the lint
//! boundary `docs/INVARIANTS.md` draws.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use agmdp_models::observe::{StageObserver, SynthesisStage};
use agmdp_obs::{Counter, IdSource, MetricsRegistry, TraceSink, LATENCY_BUCKETS_S};

/// Shared observability state: one metrics registry plus one trace sink,
/// owned by the engine and shared with the server.
#[derive(Debug)]
pub struct Telemetry {
    metrics: Arc<MetricsRegistry>,
    sink: TraceSink,
    request_ids: IdSource,
    run_ids: IdSource,
    /// The fit-cache admission counters, registered once so `GET /healthz`
    /// and `GET /metrics` read the same values.
    fit_cache_hits: Arc<Counter>,
    fit_cache_misses: Arc<Counter>,
    /// Refinement passes that jobs resumed from a checkpoint did not rerun.
    passes_skipped: Arc<Counter>,
}

impl Telemetry {
    /// Telemetry writing trace lines through `sink` (metrics are always
    /// collected; only tracing is optional).
    #[must_use]
    pub fn new(sink: TraceSink) -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let fit_cache_hits = metrics.counter(
            "agmdp_fit_cache_hits_total",
            "Admissions satisfied by the fitted-parameter cache (no \u{3b5} spent).",
            &[],
        );
        let fit_cache_misses = metrics.counter(
            "agmdp_fit_cache_misses_total",
            "Admissions that drew \u{3b5} from the ledger for a cold fit.",
            &[],
        );
        let passes_skipped = metrics.counter(
            "agmdp_refinement_passes_skipped_total",
            "Refinement passes that jobs resumed from a fit-cache checkpoint did not rerun.",
            &[],
        );
        Self {
            metrics,
            sink,
            request_ids: IdSource::new(),
            run_ids: IdSource::new(),
            fit_cache_hits,
            fit_cache_misses,
            passes_skipped,
        }
    }

    /// Metrics-only telemetry: no trace output. The default for embedded
    /// engines, tests, and benches.
    #[must_use]
    pub fn quiet() -> Self {
        Self::new(TraceSink::disabled())
    }

    /// The metrics registry backing `GET /metrics`.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The trace sink (copyable handle).
    #[must_use]
    pub fn sink(&self) -> TraceSink {
        self.sink
    }

    /// Allocates a request ID for the access log.
    #[must_use]
    pub fn next_request_id(&self) -> u64 {
        self.request_ids.next_id()
    }

    /// Allocates a run ID tying one synthesis run's spans together.
    #[must_use]
    pub fn next_run_id(&self) -> u64 {
        self.run_ids.next_id()
    }

    /// Records one served request: count by endpoint/method/status, latency
    /// by endpoint.
    pub fn record_request(&self, endpoint: &str, method: &str, status: u16, seconds: f64) {
        self.metrics
            .counter(
                "agmdp_requests_total",
                "Requests served, by endpoint, method, and status.",
                &[
                    ("endpoint", endpoint),
                    ("method", method),
                    ("status", &status.to_string()),
                ],
            )
            .inc();
        self.metrics
            .histogram(
                "agmdp_request_duration_seconds",
                "Wall-clock request latency, by endpoint.",
                &[("endpoint", endpoint)],
                LATENCY_BUCKETS_S,
            )
            .observe(seconds);
    }

    /// Records a fit-cache admission outcome.
    pub fn record_fit_cache(&self, hit: bool) {
        if hit {
            self.fit_cache_hits.inc();
        } else {
            self.fit_cache_misses.inc();
        }
    }

    /// `(hits, misses)` of the fit cache since start-up.
    #[must_use]
    pub fn fit_cache_counts(&self) -> (u64, u64) {
        (self.fit_cache_hits.get(), self.fit_cache_misses.get())
    }

    /// Records the refinement passes a resumed job did not rerun.
    pub fn record_passes_skipped(&self, passes: u64) {
        self.passes_skipped.add(passes);
    }

    /// Records one admission that blocked on an identical in-flight fit.
    pub fn record_single_flight_wait(&self) {
        self.metrics
            .counter(
                "agmdp_single_flight_waits_total",
                "Admissions that waited for an identical in-flight fit.",
                &[],
            )
            .inc();
    }

    /// Records one load-shedding event. `reason` is one of the fixed shed
    /// policy labels (`max_conns`, `queue_full`, `rate_limit`, `job_slots`)
    /// — see the shed table in `reactor.rs`.
    pub fn record_shed(&self, reason: &str) {
        self.metrics
            .counter(
                "agmdp_http_sheds_total",
                "Requests or connections refused by load shedding, by reason.",
                &[("reason", reason)],
            )
            .inc();
    }

    /// Records one connection timeout. `kind` is `read` (slowloris 408),
    /// `write` (stalled reader) or `idle` (keep-alive rotation).
    pub fn record_conn_timeout(&self, kind: &str) {
        self.metrics
            .counter(
                "agmdp_conn_timeouts_total",
                "Connections timed out by the reactor, by deadline kind.",
                &[("kind", kind)],
            )
            .inc();
    }

    /// Records a keep-alive connection serving a request beyond its first.
    pub fn record_keepalive_reuse(&self) {
        self.metrics
            .counter(
                "agmdp_keepalive_reuse_total",
                "Requests served on an already-used keep-alive connection.",
                &[],
            )
            .inc();
    }

    /// Records a release-store lookup. A hit also accounts the artifact
    /// bytes served straight from the store (the release is re-sent
    /// byte-for-byte at zero \u{3b5} — post-processing invariance).
    pub fn record_release_store(&self, hit: bool, bytes: u64) {
        if hit {
            self.metrics
                .counter(
                    "agmdp_release_store_hits_total",
                    "Synthesis requests served from the content-addressed release store (no job run, no \u{3b5} spent).",
                    &[],
                )
                .inc();
            self.metrics
                .counter(
                    "agmdp_release_store_bytes_total",
                    "Bytes of .agb release artifacts served from the store.",
                    &[],
                )
                .add(bytes);
        } else {
            self.metrics
                .counter(
                    "agmdp_release_store_misses_total",
                    "Synthesis requests that found no stored release for their key.",
                    &[],
                )
                .inc();
        }
    }

    /// Records a finished background job.
    pub fn record_job_outcome(&self, completed: bool) {
        self.metrics
            .counter(
                "agmdp_jobs_finished_total",
                "Background synthesis jobs finished, by outcome.",
                &[("outcome", if completed { "completed" } else { "failed" })],
            )
            .inc();
    }

    /// Records one timed pipeline stage (called by [`StageTimer`]).
    fn record_stage(&self, run_id: u64, stage: SynthesisStage, seconds: f64) {
        self.metrics
            .histogram(
                "agmdp_stage_duration_seconds",
                "Synthesis pipeline stage durations (fit / attr_sample / edge_sample / rewire / freeze / serialize / score).",
                &[("stage", stage.name())],
                LATENCY_BUCKETS_S,
            )
            .observe(seconds);
        self.sink
            .event("span")
            .u64("run", run_id)
            .str("stage", stage.name())
            .f64("secs", seconds)
            .emit();
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::quiet()
    }
}

/// Live front-end occupancy, shared between the reactor (which mutates it)
/// and `GET /metrics` (which reads it into gauges at scrape time). Plain
/// atomics rather than registry gauges so the hot accept/dispatch path
/// never touches the metrics registry's locks.
#[derive(Debug, Default)]
pub struct FrontendStats {
    open_conns: AtomicUsize,
    queued_jobs: AtomicUsize,
}

impl FrontendStats {
    /// A connection was accepted and registered.
    pub fn conn_opened(&self) {
        self.open_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// A registered connection was dropped.
    pub fn conn_closed(&self) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently registered with the reactor.
    #[must_use]
    pub fn open_conns(&self) -> usize {
        self.open_conns.load(Ordering::Relaxed)
    }

    /// A request entered the bounded job queue.
    pub fn job_queued(&self) {
        self.queued_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// A request left the queue (picked up, completed, or shed).
    pub fn job_dequeued(&self) {
        self.queued_jobs.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently queued or being handled by HTTP workers.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.queued_jobs.load(Ordering::Relaxed)
    }
}

/// The clock-owning [`StageObserver`]: stamps `Instant::now` at stage
/// boundaries and feeds durations into [`Telemetry`]. One instance per
/// synthesis run; stages arrive strictly paired and non-nested on the
/// run's thread, so a single slot of interior state suffices.
#[derive(Debug)]
pub struct StageTimer<'a> {
    telemetry: &'a Telemetry,
    run_id: u64,
    current: Mutex<Option<(SynthesisStage, Instant)>>,
}

impl<'a> StageTimer<'a> {
    /// A timer reporting into `telemetry` under `run_id`.
    #[must_use]
    pub fn new(telemetry: &'a Telemetry, run_id: u64) -> Self {
        Self {
            telemetry,
            run_id,
            current: Mutex::new(None),
        }
    }
}

impl StageObserver for StageTimer<'_> {
    fn stage_start(&self, stage: SynthesisStage) {
        let mut slot = self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some((stage, Instant::now()));
    }

    fn stage_end(&self, stage: SynthesisStage) {
        let started = self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some((open, at)) = started {
            if open == stage {
                self.telemetry
                    .record_stage(self.run_id, stage, at.elapsed().as_secs_f64());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_metrics_accumulate_by_label() {
        let t = Telemetry::quiet();
        t.record_request("/healthz", "GET", 200, 0.001);
        t.record_request("/healthz", "GET", 200, 0.002);
        t.record_request("/synthesize", "POST", 202, 0.010);
        let text = t.metrics().render();
        assert!(text.contains(
            "agmdp_requests_total{endpoint=\"/healthz\",method=\"GET\",status=\"200\"} 2"
        ));
        assert!(text.contains(
            "agmdp_requests_total{endpoint=\"/synthesize\",method=\"POST\",status=\"202\"} 1"
        ));
        assert!(text.contains("agmdp_request_duration_seconds_count{endpoint=\"/healthz\"} 2"));
    }

    #[test]
    fn cache_and_wait_counters() {
        let t = Telemetry::quiet();
        // Both fit-cache families are exported from start-up.
        let text = t.metrics().render();
        assert!(text.contains("agmdp_fit_cache_hits_total 0"));
        assert!(text.contains("agmdp_fit_cache_misses_total 0"));
        assert!(text.contains("agmdp_refinement_passes_skipped_total 0"));
        t.record_fit_cache(false);
        t.record_fit_cache(true);
        t.record_fit_cache(true);
        t.record_single_flight_wait();
        t.record_passes_skipped(3);
        t.record_passes_skipped(0);
        let text = t.metrics().render();
        assert!(text.contains("agmdp_fit_cache_hits_total 2"));
        assert!(text.contains("agmdp_fit_cache_misses_total 1"));
        assert_eq!(t.fit_cache_counts(), (2, 1));
        assert!(text.contains("agmdp_single_flight_waits_total 1"));
        assert!(text.contains("agmdp_refinement_passes_skipped_total 3"));
    }

    #[test]
    fn stage_timer_records_paired_stages_only() {
        let t = Telemetry::quiet();
        let timer = StageTimer::new(&t, 1);
        timer.stage_start(SynthesisStage::Fit);
        timer.stage_end(SynthesisStage::Fit);
        // Unpaired end: ignored.
        timer.stage_end(SynthesisStage::Rewire);
        let text = t.metrics().render();
        assert!(text.contains("agmdp_stage_duration_seconds_count{stage=\"fit\"} 1"));
        assert!(!text.contains("stage=\"rewire\""));
    }

    #[test]
    fn ids_are_independent_streams() {
        let t = Telemetry::quiet();
        assert_eq!(t.next_request_id(), 1);
        assert_eq!(t.next_request_id(), 2);
        assert_eq!(t.next_run_id(), 1);
    }
}
