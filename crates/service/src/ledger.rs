//! The persistent, thread-safe privacy-budget ledger.
//!
//! Every dataset registered with the service carries one total ε; concurrent
//! synthesis requests draw it down through [`BudgetLedger::spend`], which
//! wraps [`agmdp_privacy::PrivacyBudget`] (sequential composition, Theorem 2)
//! behind a mutex and a write-ahead journal. Each accepted spend is appended
//! to the journal and fsynced *while the lock is held*, so the on-disk record
//! is never behind the in-memory accountant by more than the entry being
//! written, and a restarted server replays the journal to exactly the ε each
//! dataset has already consumed.
//!
//! Journal format (line-oriented, `#` comments ignored):
//!
//! ```text
//! # agmdp budget ledger v1
//! open <dataset> <total-as-f64-bits-hex> <human-readable-total>
//! spend <dataset> <epsilon-as-f64-bits-hex> <human-readable-epsilon>
//! ```
//!
//! ε values are journaled as the hex of their IEEE-754 bits so replay is
//! bit-exact; the trailing decimal rendering must agree with the bits, so a
//! damaged line cannot replay as a different ε.
//!
//! A spend is acknowledged only once its line, newline included, is synced.
//! A crash mid-append leaves an unterminated final line that was never
//! acknowledged, so [`BudgetLedger::open`] drops it: replay skips it and the
//! journal is truncated to its last newline before anything is appended.
//! A complete line that does not parse refuses the journal.
//!
//! A poisoned lock fails closed for writers: once a holder has panicked,
//! [`BudgetLedger::register`] and [`BudgetLedger::spend`] answer
//! [`ServiceError::Ledger`] and move no ε until a restart replays the
//! journal. Readers recover the lock, since a read cannot spend ε.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use agmdp_privacy::PrivacyBudget;

use crate::error::{validate_dataset_name, ServiceError};

/// Point-in-time budget state of one dataset.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BudgetStatus {
    /// Total ε granted at registration.
    pub total: f64,
    /// ε consumed so far.
    pub spent: f64,
    /// ε still available.
    pub remaining: f64,
}

struct LedgerInner {
    budgets: BTreeMap<String, PrivacyBudget>,
    journal: Option<File>,
}

/// A thread-safe, optionally file-persisted multi-dataset budget accountant.
pub struct BudgetLedger {
    inner: Mutex<LedgerInner>,
    path: Option<PathBuf>,
}

impl std::fmt::Debug for BudgetLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetLedger")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl BudgetLedger {
    /// An in-memory ledger (no persistence): budgets die with the process.
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            inner: Mutex::new(LedgerInner {
                budgets: BTreeMap::new(),
                journal: None,
            }),
            path: None,
        }
    }

    /// Opens (or creates) a journal-backed ledger at `path`, replaying any
    /// existing entries so previously spent ε survives restarts. A torn
    /// final line is dropped (see the module docs); creating the journal
    /// fsyncs its directory, so the file itself survives a crash.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ServiceError> {
        let path = path.as_ref().to_path_buf();
        let fail = |what: &str, e: &dyn std::fmt::Display| {
            ServiceError::Ledger(format!("{what} {}: {e}", path.display()))
        };
        let mut budgets = BTreeMap::new();
        let existed = path.exists();
        let mut torn = None;
        if existed {
            let bytes = std::fs::read(&path).map_err(|e| fail("read", &e))?;
            let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            if complete < bytes.len() {
                torn = Some((complete, bytes.len() - complete));
            }
            let text = std::str::from_utf8(bytes.get(..complete).unwrap_or_default())
                .map_err(|e| fail("read", &e))?;
            for (lineno, line) in text.lines().enumerate() {
                replay_line(&mut budgets, line).map_err(|msg| {
                    ServiceError::Ledger(format!("{} line {}: {msg}", path.display(), lineno + 1))
                })?;
            }
        }
        let mut journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| fail("append", &e))?;
        if let Some((complete, len)) = torn {
            journal
                .set_len(complete as u64)
                .and_then(|()| journal.sync_data())
                .map_err(|e| fail("truncate", &e))?;
            eprintln!(
                "ledger {}: dropped an unterminated final line of {len} bytes (never acknowledged)",
                path.display()
            );
        }
        let is_new = journal.metadata().map_err(|e| fail("stat", &e))?.len() == 0;
        if is_new {
            journal
                .write_all(b"# agmdp budget ledger v1\n")
                .and_then(|()| journal.sync_data())
                .map_err(|e| fail("header", &e))?;
        }
        if !existed {
            let dir = match path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            };
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| fail("sync the directory of", &e))?;
        }
        Ok(Self {
            inner: Mutex::new(LedgerInner {
                budgets,
                journal: Some(journal),
            }),
            path: Some(path),
        })
    }

    /// The state for a write; a poisoned lock refuses it (see the module
    /// docs).
    fn lock_for_write(&self) -> Result<MutexGuard<'_, LedgerInner>, ServiceError> {
        self.inner.lock().map_err(|_| {
            ServiceError::Ledger(
                "lock poisoned by a panicked holder; no budget moves until a restart replays the journal"
                    .to_string(),
            )
        })
    }

    /// The state for a read, recovered from poisoning.
    fn lock_for_read(&self) -> MutexGuard<'_, LedgerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The journal path, if this ledger is persistent.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Registers a dataset with a total ε budget, journaling the grant.
    ///
    /// Re-registering an existing dataset is idempotent when the total
    /// matches (the common restart path: the journal already holds the grant
    /// and its spends); a mismatched total is a conflict.
    pub fn register(&self, dataset: &str, total_epsilon: f64) -> Result<(), ServiceError> {
        validate_dataset_name(dataset)?;
        let budget = PrivacyBudget::new(total_epsilon).map_err(|e| {
            ServiceError::InvalidRequest(format!("invalid budget for '{dataset}': {e}"))
        })?;
        let mut inner = self.lock_for_write()?;
        if let Some(existing) = inner.budgets.get(dataset) {
            if existing.total() == total_epsilon {
                return Ok(());
            }
            return Err(ServiceError::DatasetConflict(format!(
                "'{dataset}' already has a total budget of {} (requested {total_epsilon})",
                existing.total()
            )));
        }
        append_entry(&mut inner.journal, "open", dataset, total_epsilon)?;
        inner.budgets.insert(dataset.to_string(), budget);
        Ok(())
    }

    /// Draws `epsilon` from the dataset's budget, journaling the spend.
    ///
    /// The in-memory accountant and the journal are updated under one lock
    /// acquisition; the journal line is written and fsynced *before* the spend
    /// is considered granted, so a crash can lose an unused grant (the
    /// conservative direction) but never an executed one.
    pub fn spend(&self, dataset: &str, epsilon: f64) -> Result<(), ServiceError> {
        let mut inner = self.lock_for_write()?;
        let LedgerInner { budgets, journal } = &mut *inner;
        let budget = budgets
            .get_mut(dataset)
            .ok_or_else(|| ServiceError::UnknownDataset(dataset.to_string()))?;
        // Probe on a copy first: the journal must never record a refused
        // spend, and the budget must not move if journaling fails.
        let mut probe = budget.clone();
        probe.spend(epsilon).map_err(|e| match e {
            agmdp_privacy::PrivacyError::BudgetExceeded {
                requested,
                remaining,
            } => ServiceError::BudgetExhausted {
                dataset: dataset.to_string(),
                requested,
                remaining,
            },
            other => ServiceError::InvalidRequest(other.to_string()),
        })?;
        append_entry(journal, "spend", dataset, epsilon)?;
        *budget = probe;
        Ok(())
    }

    /// The budget state of one dataset.
    #[must_use]
    pub fn status(&self, dataset: &str) -> Option<BudgetStatus> {
        self.lock_for_read()
            .budgets
            .get(dataset)
            .map(|b| BudgetStatus {
                total: b.total(),
                spent: b.spent(),
                remaining: b.remaining(),
            })
    }

    /// All registered dataset names with their budget states.
    #[must_use]
    pub fn statuses(&self) -> Vec<(String, BudgetStatus)> {
        self.lock_for_read()
            .budgets
            .iter()
            .map(|(name, b)| {
                (
                    name.clone(),
                    BudgetStatus {
                        total: b.total(),
                        spent: b.spent(),
                        remaining: b.remaining(),
                    },
                )
            })
            .collect()
    }
}

fn append_entry(
    journal: &mut Option<File>,
    op: &str,
    dataset: &str,
    epsilon: f64,
) -> Result<(), ServiceError> {
    let Some(journal) = journal.as_mut() else {
        return Ok(());
    };
    let line = format!("{op} {dataset} {:016x} {epsilon}\n", epsilon.to_bits());
    journal
        .write_all(line.as_bytes())
        .and_then(|()| journal.sync_data())
        .map_err(|e| ServiceError::Ledger(format!("journal write failed: {e}")))
}

fn replay_line(budgets: &mut BTreeMap<String, PrivacyBudget>, line: &str) -> Result<(), String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(());
    }
    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
    let [op, dataset, bits_hex, decimal] = fields.as_slice() else {
        return Err(format!(
            "expected 4 fields (op, dataset, bits, decimal), found {}",
            fields.len()
        ));
    };
    let bits = u64::from_str_radix(bits_hex, 16).map_err(|_| "invalid epsilon bits")?;
    if decimal.parse::<f64>().map(f64::to_bits) != Ok(bits) {
        return Err(format!(
            "epsilon bits {bits_hex} disagree with the decimal '{decimal}'"
        ));
    }
    let epsilon = f64::from_bits(bits);
    match *op {
        "open" => {
            let budget = PrivacyBudget::new(epsilon).map_err(|e| format!("invalid total: {e}"))?;
            if budgets.insert((*dataset).to_string(), budget).is_some() {
                return Err(format!("dataset '{dataset}' opened twice"));
            }
            Ok(())
        }
        "spend" => budgets
            .get_mut(*dataset)
            .ok_or_else(|| format!("spend before open for '{dataset}'"))?
            .spend(epsilon)
            .map_err(|e| format!("replayed spend rejected: {e}")),
        other => Err(format!("unknown journal op '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("agmdp_ledger_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}_{}.ledger", std::process::id()))
    }

    #[test]
    fn in_memory_ledger_tracks_and_refuses() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("toy", 1.0).unwrap();
        ledger.spend("toy", 0.4).unwrap();
        ledger.spend("toy", 0.4).unwrap();
        let status = ledger.status("toy").unwrap();
        assert!((status.spent - 0.8).abs() < 1e-12);
        assert!((status.remaining - 0.2).abs() < 1e-12);
        match ledger.spend("toy", 0.4) {
            Err(ServiceError::BudgetExhausted { remaining, .. }) => {
                assert!((remaining - 0.2).abs() < 1e-12);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // A refused spend must not move the accountant.
        assert!((ledger.status("toy").unwrap().spent - 0.8).abs() < 1e-12);
        assert!(matches!(
            ledger.spend("nope", 0.1),
            Err(ServiceError::UnknownDataset(_))
        ));
    }

    #[test]
    fn register_is_idempotent_on_same_total_only() {
        let ledger = BudgetLedger::in_memory();
        ledger.register("d", 2.0).unwrap();
        ledger.spend("d", 1.0).unwrap();
        ledger.register("d", 2.0).unwrap(); // same total: no-op
        assert!((ledger.status("d").unwrap().spent - 1.0).abs() < 1e-12);
        assert!(matches!(
            ledger.register("d", 3.0),
            Err(ServiceError::DatasetConflict(_))
        ));
        assert!(ledger.register("bad name", 1.0).is_err());
        assert!(ledger.register("d2", -1.0).is_err());
    }

    #[test]
    fn journal_replay_restores_exact_state() {
        let path = temp_journal("replay");
        std::fs::remove_file(&path).ok();
        {
            let ledger = BudgetLedger::open(&path).unwrap();
            ledger.register("a", 1.0).unwrap();
            ledger.register("b", 0.3).unwrap();
            // Epsilons chosen to exercise bit-exact round-tripping.
            ledger.spend("a", 0.1 + 0.2).unwrap();
            ledger.spend("b", 0.3 / 7.0).unwrap();
        }
        let reopened = BudgetLedger::open(&path).unwrap();
        let a = reopened.status("a").unwrap();
        assert_eq!(a.total, 1.0);
        assert_eq!(a.spent, 0.1 + 0.2);
        let b = reopened.status("b").unwrap();
        assert_eq!(b.spent, 0.3 / 7.0);
        // Spending continues from the replayed state.
        assert!(matches!(
            reopened.spend("b", 0.3),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_poisoned_ledger_fails_closed_for_writers_and_keeps_reading() {
        let path = temp_journal("poisoned");
        std::fs::remove_file(&path).ok();
        let ledger = std::sync::Arc::new(BudgetLedger::open(&path).unwrap());
        ledger.register("d", 1.0).unwrap();
        ledger.spend("d", 0.25).unwrap();
        let journal = std::fs::read(&path).unwrap();
        let holder = std::sync::Arc::clone(&ledger);
        let panicked = std::thread::spawn(move || {
            let _inner = holder.inner.lock();
            panic!("ledger holder panicked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(ledger.inner.is_poisoned());

        assert!(matches!(
            ledger.spend("d", 0.25),
            Err(ServiceError::Ledger(_))
        ));
        assert!(matches!(
            ledger.register("e", 1.0),
            Err(ServiceError::Ledger(_))
        ));
        // Reads still answer, and neither refused write moved ε or wrote a
        // journal line.
        assert_eq!(ledger.status("d").unwrap().spent, 0.25);
        assert_eq!(ledger.statuses().len(), 1);
        assert_eq!(std::fs::read(&path).unwrap(), journal);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_journals_are_rejected() {
        for (tag, contents) in [
            ("spend_before_open", "spend x 3fe0000000000000 0.5\n"),
            ("bad_op", "grant x 3fe0000000000000 0.5\n"),
            ("bad_bits", "open x zzzz 0.5\n"),
            ("truncated", "open x\n"),
            (
                "double_open",
                "open x 3fe0000000000000 0.5\nopen x 3fe0000000000000 0.5\n",
            ),
        ] {
            let path = temp_journal(tag);
            std::fs::write(&path, contents).unwrap();
            assert!(
                BudgetLedger::open(&path).is_err(),
                "journal {tag:?} should be rejected"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A journal holding `open toy 2` and then `tail`, written as a crash
    /// could leave it.
    fn journal_with_tail(tag: &str, tail: &str) -> PathBuf {
        let path = temp_journal(tag);
        let open = format!("open toy {:016x} 2\n", 2f64.to_bits());
        std::fs::write(&path, format!("# agmdp budget ledger v1\n{open}{tail}")).unwrap();
        path
    }

    /// An unterminated final line was never acknowledged: replay drops it,
    /// and the next spend starts a line of its own, so it survives every
    /// later restart.
    #[test]
    fn a_torn_tail_never_hides_a_later_spend() {
        // Cut after the bits field (a 0.1 spend), and inside the bits field.
        for (tag, tail) in [
            ("torn_after_bits", "spend toy 3fb999999999999a "),
            ("torn_in_bits", "spend toy 3fb99"),
        ] {
            let path = journal_with_tail(tag, tail);
            let ledger = BudgetLedger::open(&path).unwrap();
            assert_eq!(ledger.status("toy").unwrap().spent, 0.0, "{tag}");
            ledger.spend("toy", 1.0).unwrap();
            drop(ledger);
            for _ in 0..2 {
                let reopened = BudgetLedger::open(&path).unwrap();
                assert_eq!(reopened.status("toy").unwrap().spent, 1.0, "{tag}");
            }
            let journal = std::fs::read_to_string(&path).unwrap();
            assert!(!journal.contains(tail), "{tag}: {journal:?}");
            assert!(journal.ends_with(" 1\n"), "{tag}: {journal:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_complete_malformed_line_still_refuses_to_start() {
        for (tag, line) in [
            ("short_bits", "spend toy 3fb99\n"),
            ("no_decimal", "spend toy 3fb999999999999a\n"),
            ("extra_field", "spend toy 3fb999999999999a 0.1 0.1\n"),
            ("decimal_disagrees", "spend toy 3fb999999999999a 0.2\n"),
        ] {
            let path = journal_with_tail(tag, line);
            let before = std::fs::read(&path).unwrap();
            assert!(BudgetLedger::open(&path).is_err(), "{tag}");
            // A refused journal is left as it was.
            assert_eq!(std::fs::read(&path).unwrap(), before, "{tag}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let path = temp_journal("comments");
        std::fs::write(
            &path,
            "# agmdp budget ledger v1\n\nopen x 3fe0000000000000 0.5\n",
        )
        .unwrap();
        let ledger = BudgetLedger::open(&path).unwrap();
        assert_eq!(ledger.status("x").unwrap().total, 0.5);
        std::fs::remove_file(&path).ok();
    }
}
