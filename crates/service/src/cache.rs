//! The fitted-parameter cache.
//!
//! Learning `Θ̃_X`, `Θ̃_F`, `Θ̃_M` is the ε-spending step of the pipeline; the
//! sampled parameters are *released* values. By post-processing invariance
//! (Theorem 2's second half), re-sampling graphs from an already-released
//! parameter set costs **no additional ε** — so the service caches fitted
//! parameters keyed by everything that influences the fit: dataset, ε, its
//! split (implied by the model kind), the structural model, the correlation
//! estimator (with its own parameters), and the learning seed. Repeat
//! requests hit the cache, skip the DP learning step entirely and draw
//! nothing from the ledger.
//!
//! The same table tracks the fits in flight. A cold admission claims its
//! key in the same locked step as the lookup; identical admissions that
//! arrive while it fits wait for the publish and ride it as cache hits, so
//! concurrent identical cold requests draw ε once.
//!
//! Each entry also owns its key's refinement trajectory: the checkpoint
//! jobs on these parameters recorded after each pass of Algorithm 3 (see
//! [`RefinementCheckpoint`]). Requests sharing a fit key sample from the
//! same seed and differ only in their refinement iterations, so a later job
//! resumes after the deepest pass it shares with an earlier one instead of
//! replaying it. A checkpoint holds the public sampling RNG, the attribute
//! seed drawn from it and `Θ̃`-derived acceptance probabilities — nothing
//! read from the input graph or the fit's noise — and is evicted with its
//! entry.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use agmdp_core::correlations_dp::CorrelationMethod;
use agmdp_core::workflow::{LearnedParameters, Privacy, RefinementCheckpoint, StructuralModelKind};

/// Cache key: every input that influences the fitted `Θ̃` triple.
///
/// `Ord` so the cache and the in-flight set can live in B-tree containers,
/// whose iteration order is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FitKey {
    /// Dataset name.
    pub dataset: String,
    /// Exact ε of the request (IEEE-754 bits; `None` for non-private fits).
    pub epsilon_bits: Option<u64>,
    /// Structural model (determines the budget split — Section 5).
    pub model: StructuralModelKind,
    /// Canonical token for the correlation estimator and its parameters.
    pub method: String,
    /// Seed of the learning RNG.
    pub seed: u64,
}

impl FitKey {
    /// Builds a key from request parameters.
    #[must_use]
    pub fn new(
        dataset: &str,
        privacy: Privacy,
        model: StructuralModelKind,
        method: CorrelationMethod,
        seed: u64,
    ) -> Self {
        let epsilon_bits = match privacy {
            Privacy::NonPrivate => None,
            Privacy::Dp { epsilon } => Some(epsilon.to_bits()),
        };
        Self {
            dataset: dataset.to_string(),
            epsilon_bits,
            model,
            method: method_token(method),
            seed,
        }
    }
}

/// Canonical, collision-free text form of a correlation method. Float
/// parameters are rendered as their bit pattern so distinct values can never
/// alias.
#[must_use]
pub fn method_token(method: CorrelationMethod) -> String {
    match method {
        CorrelationMethod::EdgeTruncation { k: None } => "truncation:k=auto".to_string(),
        CorrelationMethod::EdgeTruncation { k: Some(k) } => format!("truncation:k={k}"),
        CorrelationMethod::SmoothSensitivity { delta } => {
            format!("smooth:delta_bits={:016x}", delta.to_bits())
        }
        CorrelationMethod::SampleAggregate { group_size } => {
            format!("sample-aggregate:g={group_size}")
        }
        CorrelationMethod::NaiveLaplace => "naive".to_string(),
    }
}

/// How many fitted parameter sets a cache holds by default before evicting
/// the oldest insertion.
const DEFAULT_CAPACITY: usize = 256;

/// One published fit and the refinement checkpoints recorded under it.
struct Entry {
    params: Arc<LearnedParameters>,
    /// At most one checkpoint per pass, keyed by pass; the request cap on
    /// refinement iterations bounds the passes.
    trajectory: BTreeMap<usize, RefinementCheckpoint<StdRng>>,
}

struct CacheInner {
    // BTreeMap, not HashMap: nothing iterates the entries today, but keeping
    // the container ordered means a future debug dump or eviction-policy
    // change cannot introduce hash-order nondeterminism (see
    // docs/INVARIANTS.md).
    entries: BTreeMap<FitKey, Entry>,
    /// Insertion order for eviction (oldest at the front).
    order: VecDeque<FitKey>,
    /// Keys an admission has claimed and is fitting (see [`FitClaim`]).
    in_flight: BTreeSet<FitKey>,
}

/// Thread-safe fitted-parameter cache and single-flight table.
///
/// One mutex guards both the published parameter sets and the keys being
/// fitted, so a lookup and a claim are one atomic step: no publish can slip
/// between them. Publishing and releasing a claim both wake the admissions
/// waiting on the condvar.
///
/// Bounded: once `capacity` parameter sets are cached, the oldest insertion
/// is evicted. Evicting is always privacy-safe — a later identical request
/// simply pays ε again through the ledger, exactly like its first release —
/// but without a bound a long-running multi-tenant server would accumulate
/// one fitted parameter set per distinct (dataset, ε, model, method, seed)
/// forever.
#[derive(Debug)]
pub struct FitCache {
    inner: Mutex<CacheInner>,
    /// Signalled when a key is published or a claim is released.
    changed: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("len", &self.entries.len())
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

/// The outcome of [`FitCache::lookup_or_claim`].
#[derive(Debug)]
pub enum Lookup {
    /// The parameters are published: re-sampling them costs no ε.
    Hit(Arc<LearnedParameters>),
    /// The caller now holds the key's claim and fits it.
    Claimed(FitClaim),
    /// Another admission held the claim for the whole wait. The caller fits
    /// without a claim (it may pay twice for one key, but never hangs).
    TimedOut,
}

/// The claim on one key's fit. At most one exists per key; dropping it —
/// after the fit is published, after a failed fit, or with an abandoned
/// admission — is the only way the key is released, so waiters can then
/// claim it themselves.
#[derive(Debug)]
pub struct FitClaim {
    cache: Arc<FitCache>,
    key: FitKey,
}

impl Drop for FitClaim {
    fn drop(&mut self) {
        self.cache.lock().in_flight.remove(&self.key);
        self.cache.changed.notify_all();
    }
}

impl Default for FitCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FitCache {
    /// An empty cache with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache evicting beyond `capacity` parameter sets.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                entries: BTreeMap::new(),
                order: VecDeque::new(),
                in_flight: BTreeSet::new(),
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The table, recovered from poisoning: no update can stop partway, so
    /// the table stays consistent even if a lock holder panicked.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up fitted parameters without claiming or waiting.
    #[must_use]
    pub fn peek(&self, key: &FitKey) -> Option<Arc<LearnedParameters>> {
        self.lock()
            .entries
            .get(key)
            .map(|entry| Arc::clone(&entry.params))
    }

    /// Returns the published parameters for `key`, or claims the key for
    /// the caller to fit. While another admission holds the claim, waits up
    /// to `max_wait` for it to publish (a hit) or to drop its claim
    /// unpublished (the caller claims). `on_wait` runs once, under the
    /// cache lock, before the first wait.
    pub fn lookup_or_claim(
        self: &Arc<Self>,
        key: &FitKey,
        max_wait: Duration,
        on_wait: impl FnOnce(),
    ) -> Lookup {
        let started = Instant::now();
        let mut on_wait = Some(on_wait);
        let mut inner = self.lock();
        loop {
            if let Some(entry) = inner.entries.get(key) {
                return Lookup::Hit(Arc::clone(&entry.params));
            }
            if inner.in_flight.insert(key.clone()) {
                return Lookup::Claimed(FitClaim {
                    cache: Arc::clone(self),
                    key: key.clone(),
                });
            }
            let remaining = max_wait.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                return Lookup::TimedOut;
            }
            if let Some(on_wait) = on_wait.take() {
                on_wait();
            }
            inner = self
                .changed
                .wait_timeout(inner, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Publishes fitted parameters (last writer wins — both writers paid ε,
    /// so keeping either is privacy-safe, and the winner starts an empty
    /// trajectory), evicting the oldest insertion beyond capacity, and wakes
    /// the admissions waiting on any key. It leaves every claim in place:
    /// only its holder releases one.
    pub fn insert(&self, key: FitKey, params: Arc<LearnedParameters>) {
        let mut inner = self.lock();
        let entry = Entry {
            params,
            trajectory: BTreeMap::new(),
        };
        if inner.entries.insert(key.clone(), entry).is_none() {
            inner.order.push_back(key);
        }
        while inner.entries.len() > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.entries.remove(&oldest);
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// The deepest checkpoint recorded for `key` under `params` that a run
    /// of `iterations` refinement iterations can resume from (its pass lies
    /// below `iterations`). `None` once the entry is evicted or holds other
    /// parameters.
    #[must_use]
    pub fn checkpoint(
        &self,
        key: &FitKey,
        params: &Arc<LearnedParameters>,
        iterations: usize,
    ) -> Option<RefinementCheckpoint<StdRng>> {
        let inner = self.lock();
        let entry = inner.entries.get(key)?;
        if !Arc::ptr_eq(&entry.params, params) {
            return None;
        }
        let (_, checkpoint) = entry.trajectory.range(..iterations).next_back()?;
        Some(checkpoint.clone())
    }

    /// Records the checkpoint a job on `params` reached. Kept only while
    /// `key`'s entry holds those parameters, and only the first checkpoint
    /// of each pass (every job on one entry walks the same trajectory).
    pub fn record_checkpoint(
        &self,
        key: &FitKey,
        params: &Arc<LearnedParameters>,
        checkpoint: RefinementCheckpoint<StdRng>,
    ) {
        let mut inner = self.lock();
        if let Some(entry) = inner.entries.get_mut(key) {
            if Arc::ptr_eq(&entry.params, params) {
                entry
                    .trajectory
                    .entry(checkpoint.pass)
                    .or_insert(checkpoint);
            }
        }
    }

    /// Number of cached parameter sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agmdp_core::workflow::{learn_parameters, AgmConfig};
    use agmdp_datasets::toy_social_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fit() -> Arc<LearnedParameters> {
        let graph = toy_social_graph();
        let config = AgmConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        Arc::new(learn_parameters(&graph, &config, &mut rng).unwrap())
    }

    fn key(seed: u64) -> FitKey {
        FitKey::new(
            "toy",
            Privacy::Dp { epsilon: 1.0 },
            StructuralModelKind::TriCycLe,
            CorrelationMethod::default(),
            seed,
        )
    }

    fn claim(cache: &Arc<FitCache>, key: &FitKey) -> FitClaim {
        match cache.lookup_or_claim(key, Duration::ZERO, || {}) {
            Lookup::Claimed(claim) => claim,
            other => panic!("expected a claim on {key:?}, got {other:?}"),
        }
    }

    fn times_out(cache: &Arc<FitCache>, key: &FitKey) -> bool {
        matches!(
            cache.lookup_or_claim(key, Duration::ZERO, || {}),
            Lookup::TimedOut
        )
    }

    #[test]
    fn claim_lifecycle() {
        let cache = Arc::new(FitCache::with_capacity(1));
        let params = fit();

        // While a key is claimed, a zero-wait lookup times out.
        let holder = claim(&cache, &key(1));
        assert!(times_out(&cache, &key(1)));

        // A claim dropped unpublished (a failed fit) lets the next lookup
        // claim the key.
        drop(holder);
        let holder = claim(&cache, &key(1));

        // A lookup waiting on the claimed key returns a hit as soon as the
        // key is published, while the claim is still held.
        let (waiting_tx, waiting_rx) = std::sync::mpsc::channel();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.lookup_or_claim(&key(1), Duration::from_secs(60), || {
                    waiting_tx.send(()).unwrap();
                })
            })
        };
        // `on_wait` runs under the cache lock, so this publish can only
        // take the lock once the waiter is inside its wait.
        waiting_rx.recv().unwrap();
        cache.insert(key(1), Arc::clone(&params));
        assert!(matches!(waiter.join().unwrap(), Lookup::Hit(_)));
        assert!(matches!(
            cache.lookup_or_claim(&key(1), Duration::ZERO, || {}),
            Lookup::Hit(_)
        ));

        // A publish from an admission without the claim (one whose wait
        // timed out) leaves the holder's claim in place: once the entry is
        // evicted, lookups wait on the claim again until its holder drops it.
        cache.insert(key(1), Arc::clone(&params));
        cache.insert(key(2), params);
        assert!(cache.peek(&key(1)).is_none(), "capacity 1 evicted key 1");
        assert!(times_out(&cache, &key(1)));
        drop(holder);
        let _reclaimed = claim(&cache, &key(1));
    }

    fn checkpoint(pass: usize, mark: f64) -> RefinementCheckpoint<StdRng> {
        RefinementCheckpoint {
            pass,
            rng: StdRng::seed_from_u64(0),
            attribute_master: 0,
            acceptance: vec![mark],
        }
    }

    /// The pass and mark of the checkpoint a run of `iterations` resumes from.
    fn resumes(
        cache: &FitCache,
        params: &Arc<LearnedParameters>,
        iterations: usize,
    ) -> Option<(usize, f64)> {
        let found = cache.checkpoint(&key(1), params, iterations)?;
        Some((found.pass, found.acceptance[0]))
    }

    #[test]
    fn entries_own_one_checkpoint_per_pass_under_their_parameters() {
        let cache = FitCache::with_capacity(1);
        let params = fit();
        // Nothing is recorded for a key with no entry.
        cache.record_checkpoint(&key(1), &params, checkpoint(0, 0.0));
        cache.insert(key(1), Arc::clone(&params));
        assert_eq!(resumes(&cache, &params, 5), None);
        for pass in [0, 1, 3] {
            cache.record_checkpoint(&key(1), &params, checkpoint(pass, 1.0));
        }
        // The first checkpoint of a pass stays.
        cache.record_checkpoint(&key(1), &params, checkpoint(1, 2.0));
        assert_eq!(resumes(&cache, &params, 1), Some((0, 1.0)));
        assert_eq!(resumes(&cache, &params, 2), Some((1, 1.0)));
        assert_eq!(resumes(&cache, &params, 3), Some((1, 1.0)));
        assert_eq!(resumes(&cache, &params, 64), Some((3, 1.0)));
        assert_eq!(resumes(&cache, &params, 0), None);

        // Equal parameters published again are another fit: they start an
        // empty trajectory, and the old ones neither read nor record.
        let republished = Arc::new((*params).clone());
        cache.insert(key(1), Arc::clone(&republished));
        assert_eq!(resumes(&cache, &republished, 64), None);
        cache.record_checkpoint(&key(1), &params, checkpoint(0, 1.0));
        assert_eq!(resumes(&cache, &republished, 64), None);
        cache.record_checkpoint(&key(1), &republished, checkpoint(2, 3.0));
        assert_eq!(resumes(&cache, &params, 64), None);
        assert_eq!(resumes(&cache, &republished, 64), Some((2, 3.0)));

        // Eviction takes the trajectory with the entry.
        cache.insert(key(2), Arc::clone(&params));
        assert_eq!(resumes(&cache, &republished, 64), None);
    }

    #[test]
    fn keys_distinguish_every_fit_input() {
        let base = FitKey::new(
            "toy",
            Privacy::Dp { epsilon: 1.0 },
            StructuralModelKind::TriCycLe,
            CorrelationMethod::EdgeTruncation { k: None },
            7,
        );
        let variants = [
            FitKey::new(
                "other",
                Privacy::Dp { epsilon: 1.0 },
                StructuralModelKind::TriCycLe,
                CorrelationMethod::EdgeTruncation { k: None },
                7,
            ),
            FitKey::new(
                "toy",
                Privacy::Dp { epsilon: 0.5 },
                StructuralModelKind::TriCycLe,
                CorrelationMethod::EdgeTruncation { k: None },
                7,
            ),
            FitKey::new(
                "toy",
                Privacy::NonPrivate,
                StructuralModelKind::TriCycLe,
                CorrelationMethod::EdgeTruncation { k: None },
                7,
            ),
            FitKey::new(
                "toy",
                Privacy::Dp { epsilon: 1.0 },
                StructuralModelKind::Fcl,
                CorrelationMethod::EdgeTruncation { k: None },
                7,
            ),
            FitKey::new(
                "toy",
                Privacy::Dp { epsilon: 1.0 },
                StructuralModelKind::TriCycLe,
                CorrelationMethod::EdgeTruncation { k: Some(5) },
                7,
            ),
            FitKey::new(
                "toy",
                Privacy::Dp { epsilon: 1.0 },
                StructuralModelKind::TriCycLe,
                CorrelationMethod::EdgeTruncation { k: None },
                8,
            ),
        ];
        for variant in &variants {
            assert_ne!(&base, variant);
        }
    }

    #[test]
    fn capacity_evicts_oldest_insertion() {
        let cache = FitCache::with_capacity(2);
        let params = fit();
        cache.insert(key(1), Arc::clone(&params));
        cache.insert(key(2), Arc::clone(&params));
        cache.insert(key(3), Arc::clone(&params));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(&key(1)).is_none(), "oldest insertion evicted");
        assert!(cache.peek(&key(2)).is_some());
        assert!(cache.peek(&key(3)).is_some());
        // Re-inserting an existing key does not grow the order queue.
        cache.insert(key(3), params);
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(&key(2)).is_some());
    }

    #[test]
    fn method_tokens_are_collision_free() {
        let tokens = [
            method_token(CorrelationMethod::EdgeTruncation { k: None }),
            method_token(CorrelationMethod::EdgeTruncation { k: Some(32) }),
            method_token(CorrelationMethod::SmoothSensitivity { delta: 1e-6 }),
            method_token(CorrelationMethod::SmoothSensitivity { delta: 1e-7 }),
            method_token(CorrelationMethod::SampleAggregate { group_size: 32 }),
            method_token(CorrelationMethod::NaiveLaplace),
        ];
        for (i, a) in tokens.iter().enumerate() {
            for b in &tokens[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
