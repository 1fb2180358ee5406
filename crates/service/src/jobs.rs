//! Asynchronous synthesis jobs.
//!
//! `POST /synthesize` performs budget admission synchronously (so over-budget
//! requests are refused *before* anything runs) and then hands the actual
//! fit + sampling to a background thread, returning a job id immediately.
//! Clients poll `GET /jobs/:id`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::engine::SynthesisOutcome;

/// Lifecycle of one synthesis job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is fitting/sampling.
    Running,
    /// Finished; the outcome is available. Shared, so a poll copies a
    /// pointer rather than the release's graph text.
    Completed(Arc<SynthesisOutcome>),
    /// The pipeline failed after admission.
    Failed(String),
}

impl JobState {
    /// Status token used in JSON responses.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed(_) => "completed",
            JobState::Failed(_) => "failed",
        }
    }
}

/// How many jobs a store keeps by default before evicting finished ones.
const DEFAULT_CAPACITY: usize = 1024;

/// Thread-safe job table with monotonically increasing ids.
///
/// Finished jobs (completed or failed) are evicted oldest-first once the
/// table exceeds its capacity, so a long-running server does not accumulate
/// every outcome (which can carry a full graph text) forever. Queued and
/// running jobs are never evicted.
#[derive(Debug)]
pub struct JobStore {
    jobs: Mutex<BTreeMap<u64, JobState>>,
    next_id: AtomicU64,
    capacity: usize,
}

impl Default for JobStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl JobStore {
    /// An empty store with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store evicting finished jobs beyond `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The table, recovered from poisoning: every update is one insert plus
    /// evictions, so the table stays consistent even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, JobState>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a queued job, returning its id.
    pub fn create(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut jobs = self.lock();
        jobs.insert(id, JobState::Queued);
        Self::evict_finished(&mut jobs, self.capacity);
        id
    }

    /// Transitions a job to a new state.
    pub fn set(&self, id: u64, state: JobState) {
        let mut jobs = self.lock();
        jobs.insert(id, state);
        Self::evict_finished(&mut jobs, self.capacity);
    }

    fn evict_finished(jobs: &mut BTreeMap<u64, JobState>, capacity: usize) {
        while jobs.len() > capacity {
            // BTreeMap iterates ids ascending, i.e. oldest job first.
            let oldest_finished = jobs
                .iter()
                .find(|(_, state)| matches!(state, JobState::Completed(_) | JobState::Failed(_)))
                .map(|(id, _)| *id);
            match oldest_finished {
                Some(id) => jobs.remove(&id),
                None => break, // everything live: never evict queued/running
            };
        }
    }

    /// The state of a job, or `None` for an id that was never issued.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<JobState> {
        self.lock().get(&id).cloned()
    }

    /// Number of currently queued and currently running jobs — the live
    /// queue depth exported at `GET /metrics`.
    #[must_use]
    pub fn live_counts(&self) -> (usize, usize) {
        let jobs = self.lock();
        let queued = jobs
            .values()
            .filter(|s| matches!(s, JobState::Queued))
            .count();
        let running = jobs
            .values()
            .filter(|s| matches!(s, JobState::Running))
            .count();
        (queued, running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_ids() {
        let store = JobStore::new();
        let a = store.create();
        let b = store.create();
        assert_ne!(a, b);
        assert_eq!(store.get(a).unwrap(), JobState::Queued);
        store.set(a, JobState::Running);
        assert_eq!(store.get(a).unwrap().status(), "running");
        store.set(a, JobState::Failed("boom".into()));
        assert!(matches!(store.get(a).unwrap(), JobState::Failed(_)));
        assert!(store.get(999).is_none());
    }

    #[test]
    fn a_poisoned_table_keeps_serving() {
        let store = std::sync::Arc::new(JobStore::new());
        let id = store.create();
        let holder = std::sync::Arc::clone(&store);
        let panicked = std::thread::spawn(move || {
            let _table = holder.lock();
            panic!("job table holder panicked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(store.jobs.is_poisoned());
        store.set(id, JobState::Running);
        assert_eq!(store.get(id), Some(JobState::Running));
        assert_eq!(store.live_counts(), (0, 1));
        assert_eq!(store.create(), id + 1);
    }

    #[test]
    fn finished_jobs_are_evicted_oldest_first_beyond_capacity() {
        let store = JobStore::with_capacity(2);
        let ids: Vec<u64> = (0..5).map(|_| store.create()).collect();
        for &id in &ids {
            store.set(id, JobState::Failed("done".into()));
        }
        // Only the 2 newest finished jobs survive.
        assert!(store.get(ids[0]).is_none());
        assert!(store.get(ids[1]).is_none());
        assert!(store.get(ids[2]).is_none());
        assert!(store.get(ids[3]).is_some());
        assert!(store.get(ids[4]).is_some());
    }

    #[test]
    fn live_jobs_are_never_evicted() {
        let store = JobStore::with_capacity(1);
        let a = store.create();
        let b = store.create();
        store.set(a, JobState::Running);
        let c = store.create();
        // Over capacity but nothing is finished: everything stays.
        assert!(store.get(a).is_some());
        assert!(store.get(b).is_some());
        assert!(store.get(c).is_some());
        // Finishing one makes it the eviction candidate on the next insert.
        store.set(b, JobState::Failed("x".into()));
        store.create();
        assert!(store.get(b).is_none());
        assert!(store.get(a).is_some());
    }
}
