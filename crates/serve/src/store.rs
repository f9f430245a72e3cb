//! The crash-safe result store: completed renders survive daemon
//! death.
//!
//! One file per distinct request key (`v1|target|scale|sweep`), named
//! by the key's FNV-1a 64 hash, written through the same
//! tmp→fsync→rename + seal-header path the checkpoint store uses
//! ([`membw_runner::persist`]). A daemon killed with SIGKILL and
//! restarted serves every previously completed request from here —
//! checksum-verified — instead of recomputing; a torn or bit-flipped
//! entry fails the seal check, is quarantined to a `.corrupt`
//! generation for the next recompute to replace, and never reaches a
//! client.

use membw_core::runner::counters::{self, Counter};
use membw_core::runner::{faultio, persist};
use serde::json::Value;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// See the [module docs](self).
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) the store at `dir`, sweeping orphaned
    /// `*.tmp` files from interrupted writes and bounding the
    /// `*.corrupt` quarantine backlog.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        faultio::create_dir_all(dir)?;
        persist::sweep_orphaned_tmp(dir);
        let dropped = persist::sweep_corrupt_retention(dir, persist::CORRUPT_KEEP_DEFAULT);
        counters::add(Counter::RetentionDropped, dropped as u64);
        Ok(ResultStore {
            dir: dir.to_path_buf(),
        })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", persist::fnv64(key)))
    }

    /// The verified stdout for `key`, if a sealed entry exists.
    ///
    /// A missing file is a plain miss. A file that fails the seal
    /// check, does not parse, or carries a *different* key (hash
    /// collision) is quarantined and reported as a miss — the caller
    /// recomputes and overwrites.
    pub fn load(&self, key: &str) -> Option<String> {
        let path = self.path_for(key);
        let text = std::fs::read_to_string(&path).ok()?;
        match Self::decode(&text, key) {
            Some(stdout) => Some(stdout),
            None => {
                let quarantine = persist::quarantine_path(&path);
                counters::add(Counter::Quarantined, 1);
                eprintln!(
                    "serve: store entry {} failed verification; quarantined to {}",
                    path.display(),
                    quarantine.display()
                );
                let _ = faultio::rename(&path, &quarantine);
                None
            }
        }
    }

    fn decode(text: &str, key: &str) -> Option<String> {
        let body = persist::unseal(text)?;
        let v: Value = serde_json::from_str(body).ok()?;
        if v.get("key")?.as_str()? != key {
            return None;
        }
        Some(v.get("stdout")?.as_str()?.to_string())
    }

    /// Durably persist `stdout` as the result for `key`
    /// (tmp→fsync→rename, FNV-sealed). Overwrites any previous entry.
    ///
    /// # Errors
    ///
    /// The failed filesystem step, its path, and the OS error.
    pub fn save(&self, key: &str, stdout: &str) -> Result<(), persist::PersistError> {
        let body = Value::Object(vec![
            ("key".to_string(), key.to_value()),
            ("stdout".to_string(), stdout.to_value()),
        ]);
        let json = serde_json::to_string(&body).expect("value tree serializes");
        let sealed = persist::seal(&json);
        persist::write_atomic(&self.path_for(key), sealed.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("membw_serve_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_round_trips_across_reopen() {
        let dir = tmpdir("rt");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.load("v1|table7|test|stack"), None);
        store
            .save("v1|table7|test|stack", "Table 7\n\"quoted\"\n")
            .unwrap();
        assert_eq!(
            store.load("v1|table7|test|stack").as_deref(),
            Some("Table 7\n\"quoted\"\n")
        );
        // A fresh handle (daemon restart) sees the same entry.
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(
            reopened.load("v1|table7|test|stack").as_deref(),
            Some("Table 7\n\"quoted\"\n")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_miss() {
        let dir = tmpdir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        store.save("k", "payload\n").unwrap();
        let path = store.path_for("k");
        // Flip a payload byte under the seal.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("payload", "tampered");
        std::fs::write(&path, text).unwrap();
        assert_eq!(store.load("k"), None, "tampered entry must miss");
        assert!(!path.exists(), "entry was quarantined away");
        assert!(
            path.with_extension("json.corrupt").exists(),
            "quarantine file exists"
        );
        // Recompute path: save again, load works.
        store.save("k", "payload\n").unwrap();
        assert_eq!(store.load("k").as_deref(), Some("payload\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_a_miss_not_a_wrong_answer() {
        let dir = tmpdir("mismatch");
        let store = ResultStore::open(&dir).unwrap();
        store.save("key-a", "A\n").unwrap();
        // Simulate a hash collision: move key-a's file to key-b's slot.
        std::fs::rename(store.path_for("key-a"), store.path_for("key-b")).unwrap();
        assert_eq!(
            store.load("key-b"),
            None,
            "a sealed entry for a different key must never be served"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files() {
        let dir = tmpdir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join("0123456789abcdef.json.tmp");
        std::fs::write(&orphan, "torn write").unwrap();
        let _ = ResultStore::open(&dir).unwrap();
        assert!(!orphan.exists(), "orphaned tmp swept on open");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
