//! The correctness gate: operation accounting, release verification through
//! the verified `.agb` tier, and the cross-run digest ledger.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use agmdp_graph::MappedGraph;

use crate::stats::digest;

/// Counts operations attempted and failed; keeps the first few failure
/// messages for the report.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one operation; a failed one is counted with its reason.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }
}

/// Fails with `message` unless `cond` holds.
pub fn ensure(cond: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(message())
    }
}

/// Opens a released `.agb` artifact through the verified tier (checksum and
/// structure), checks its node count (and edge count, when known) and
/// returns the digest of its bytes.
pub fn verify_release(path: &Path, nodes: usize, edges: Option<usize>) -> Result<String, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read release {}: {e}", path.display()))?;
    let graph = MappedGraph::open(path)
        .map_err(|e| format!("release {} fails verification: {e}", path.display()))?;
    let view = graph.view();
    ensure(view.num_nodes() == nodes, || {
        format!(
            "release {} has {} nodes, input has {nodes}",
            path.display(),
            view.num_nodes()
        )
    })?;
    if let Some(edges) = edges {
        ensure(view.num_edges() == edges, || {
            format!(
                "release {} has {} edges, job reported {edges}",
                path.display(),
                view.num_edges()
            )
        })?;
    }
    Ok(digest(&bytes))
}

/// Release digests by request key, kept in the work directory so that every
/// run of the same checkout — traced or not, any workload seed — checks a
/// repeated request against the bytes released the first time.
#[derive(Debug)]
pub struct DigestLedger {
    path: PathBuf,
    entries: BTreeMap<String, String>,
    dirty: bool,
}

impl DigestLedger {
    pub fn load(path: PathBuf) -> Self {
        let entries = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|line| {
                let (key, value) = line.split_once(' ')?;
                Some((key.to_string(), value.to_string()))
            })
            .collect();
        Self {
            path,
            entries,
            dirty: false,
        }
    }

    /// Checks `digest` against the one recorded for `key`, recording it if
    /// this is the key's first release.
    pub fn check(&mut self, key: &str, digest: &str) -> Result<(), String> {
        match self.entries.get(key) {
            Some(known) if known != digest => Err(format!(
                "release {key} has digest {digest}, an earlier run released {known}"
            )),
            Some(_) => Ok(()),
            None => {
                self.entries.insert(key.to_string(), digest.to_string());
                self.dirty = true;
                Ok(())
            }
        }
    }

    /// Writes the ledger back (staged and renamed) if it grew.
    pub fn save(&self) -> std::io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let text: String = self
            .entries
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect();
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_flags_a_changed_digest() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("digests.txt");
        let mut ledger = DigestLedger::load(path.clone());
        ledger.check("a", "1").unwrap();
        ledger.save().unwrap();
        let mut again = DigestLedger::load(path);
        assert!(again.check("a", "1").is_ok());
        assert!(again.check("a", "2").is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
