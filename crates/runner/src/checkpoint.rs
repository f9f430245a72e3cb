//! Matrix checkpointing: persist completed job results so an
//! interrupted campaign resumes instead of recomputing.
//!
//! # Layout
//!
//! ```text
//! <root>/<label>-<fnv64(key) as hex>/
//!     meta.json     {"key": "<full key>", "jobs": N}
//!     <index>.json  one archived job result per completed job
//! ```
//!
//! The key encodes everything the job matrix depends on (target, scale,
//! matrix shape — workload seeds are compile-time constants covered by
//! the key's version tag), so a config change lands in a different
//! directory and can never replay stale results. A `meta.json` mismatch
//! within a directory (hash collision or layout change) wipes the
//! directory rather than trusting it.
//!
//! # Integrity
//!
//! Every `<index>.json` carries a content checksum header:
//!
//! ```text
//! #membw-ckpt fnv64=0123456789abcdef
//! { ...the archived JSON body... }
//! ```
//!
//! On load the body is re-hashed; a mismatch (bit rot, a torn write
//! that survived rename, manual editing) **quarantines** the artifact —
//! it is renamed to `<index>.json.corrupt`, a structured warning names
//! it on stderr, and the job is recomputed. Corrupt checkpoints are
//! therefore never served, and never crash a campaign.
//!
//! Writes go through a temp file that is fsynced and then renamed, so a
//! job killed mid-write (or a full disk) leaves no torn `<index>.json`
//! behind; a failed write degrades to "no checkpoint" with a warning
//! naming the operation, path, and OS error (`ENOSPC` included).
//! Orphaned `*.tmp` files from a killed run are swept when the batch
//! directory is reopened. Because every job is a pure function of its
//! index and the serialization round trip is lossless (bit-exact
//! floats), a resumed run's merged output is byte-identical to an
//! uninterrupted one at any thread count.

use crate::counters::{self, Counter};
use crate::persist;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Where checkpoints live and whether existing ones may be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Root directory (`repro` uses `results/.checkpoint`).
    pub root: PathBuf,
    /// Replay completed results from a previous run (`--resume`).
    /// When false, everything is recomputed and checkpoints are
    /// overwritten in place.
    pub resume: bool,
}

/// Keep only filesystem-safe characters from a batch label.
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// One batch's open checkpoint directory.
#[derive(Debug)]
pub(crate) struct Store {
    dir: PathBuf,
    resume: bool,
    /// Set once a save fails, so the warning prints once per batch.
    write_warned: Mutex<bool>,
}

impl Store {
    /// Open (creating or validating) the checkpoint directory for a
    /// batch, sweeping any orphaned `*.tmp` files a killed run left
    /// behind. Returns `None` — checkpointing disabled, jobs just run —
    /// if the directory cannot be prepared; the campaign must not fail
    /// because its checkpoint store is unavailable.
    pub(crate) fn open(
        cfg: &CheckpointConfig,
        label: &str,
        key: &str,
        jobs: usize,
    ) -> Option<Store> {
        let dir = cfg
            .root
            .join(format!("{}-{:016x}", slug(label), persist::fnv64(key)));
        let meta = serde_json::to_string(&Meta {
            key: key.to_string(),
            jobs: jobs as u64,
        })
        .expect("meta serializes");
        let meta_path = dir.join("meta.json");
        match std::fs::read_to_string(&meta_path) {
            Ok(existing) if existing == meta => {}
            Ok(_) => {
                // Same directory name, different batch identity: never
                // trust its contents.
                let _ = std::fs::remove_dir_all(&dir);
                write_meta(&dir, &meta_path, &meta)?;
            }
            Err(_) => write_meta(&dir, &meta_path, &meta)?,
        }
        persist::sweep_orphaned_tmp(&dir);
        persist::sweep_corrupt_retention(&dir, persist::CORRUPT_KEEP_DEFAULT);
        Some(Store {
            dir,
            resume: cfg.resume,
            write_warned: Mutex::new(false),
        })
    }

    /// Load job `i`'s archived result, if resuming and present.
    ///
    /// An artifact whose checksum header is missing, malformed, or
    /// wrong — or whose verified body still fails to deserialize — is
    /// quarantined (renamed to `<i>.json.corrupt`, with a stderr
    /// warning) and reported as "not checkpointed", so the job is
    /// recomputed rather than served corrupt data.
    pub(crate) fn load<T: Deserialize>(&self, i: usize) -> Option<T> {
        if !self.resume {
            return None;
        }
        let path = self.dir.join(format!("{i}.json"));
        let text = std::fs::read_to_string(&path).ok()?;
        let parsed = persist::unseal(&text).and_then(|body| serde_json::from_str(body).ok());
        if parsed.is_none() {
            self.quarantine(&path);
        }
        parsed
    }

    /// Rename a failed-verification artifact aside (`<path>.corrupt`,
    /// `<path>.corrupt-2`, …) so it is preserved for inspection but
    /// never consulted again; the retention sweep on the next open
    /// bounds how many generations accumulate.
    fn quarantine(&self, path: &Path) {
        let corrupt = persist::quarantine_path(path);
        counters::add(Counter::CheckpointQuarantined, 1);
        match crate::faultio::rename(path, &corrupt) {
            Ok(()) => eprintln!(
                "warning: checkpoint {} failed verification; quarantined to {} and recomputing",
                path.display(),
                corrupt.display()
            ),
            Err(e) => {
                // Last resort: make sure the bad artifact cannot be
                // replayed on the next resume either.
                let _ = crate::faultio::remove_file(path);
                eprintln!(
                    "warning: checkpoint {} failed verification and could not be quarantined \
                     ({e}); removed and recomputing",
                    path.display()
                );
            }
        }
    }

    /// Persist job `i`'s result with a content checksum, via an fsynced
    /// temp file + rename. Failure to write (`ENOSPC`, permissions, a
    /// short write) degrades to "no checkpoint" with a single stderr
    /// warning naming the operation, path, and OS error — it never
    /// fails the job.
    pub(crate) fn save<T: Serialize>(&self, i: usize, value: &T) {
        let body = serde_json::to_string_pretty(value).expect("job result serializes");
        let sealed = persist::seal(&body);
        let fin = self.dir.join(format!("{i}.json"));
        if let Err((context, path, e)) = persist::write_atomic(&fin, sealed.as_bytes()) {
            let mut warned = self.write_warned.lock().expect("warn flag");
            if !*warned {
                *warned = true;
                eprintln!(
                    "warning: cannot {context} at {} ({e}); resume disabled for this batch",
                    path.display()
                );
            }
        }
    }
}

fn write_meta(dir: &Path, meta_path: &Path, meta: &str) -> Option<()> {
    crate::faultio::create_dir_all(dir).ok()?;
    // Atomic + fsynced like every other artifact: a crash mid-meta must
    // not leave a directory whose identity file is torn (a torn meta
    // would wipe the directory's completed checkpoints on reopen).
    match persist::write_atomic(meta_path, meta.as_bytes()) {
        Ok(()) => Some(()),
        Err((context, path, e)) => {
            eprintln!(
                "warning: cannot {context} at {} ({e}); checkpointing disabled for this batch",
                path.display()
            );
            None
        }
    }
}

#[derive(Serialize)]
struct Meta {
    key: String,
    jobs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("membw_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_job_results() {
        let root = tmp("round");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "t8", "v1/t8/test/7", 7).expect("open");
        assert_eq!(store.load::<u64>(3), None, "nothing archived yet");
        store.save(3, &42u64);
        assert_eq!(store.load::<u64>(3), Some(42));
        // resume=false ignores existing archives but still writes.
        let store = Store::open(
            &CheckpointConfig {
                root: root.clone(),
                resume: false,
            },
            "t8",
            "v1/t8/test/7",
            7,
        )
        .expect("open");
        assert_eq!(store.load::<u64>(3), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn key_change_invalidates_the_directory() {
        let root = tmp("invalid");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "t8", "v1/a", 4).expect("open");
        store.save(0, &1u64);
        let dir = store.dir.clone();
        // Forge a different meta under the same directory name.
        std::fs::write(dir.join("meta.json"), "{\"key\": \"other\", \"jobs\": 4}").unwrap();
        let store = Store::open(&cfg, "t8", "v1/a", 4).expect("open");
        assert_eq!(store.load::<u64>(0), None, "stale results wiped");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_archive_is_quarantined_not_trusted() {
        let root = tmp("corrupt");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "x", "v1/x", 2).expect("open");
        std::fs::write(store.dir.join("0.json"), "{ not json").unwrap();
        let quarantined = || counters::get(Counter::CheckpointQuarantined);
        let before = quarantined();
        assert_eq!(store.load::<u64>(0), None);
        assert_eq!(quarantined(), before + 1);
        assert!(
            store.dir.join("0.json.corrupt").exists(),
            "bad artifact preserved under quarantine"
        );
        assert!(!store.dir.join("0.json").exists());
        // A second load sees nothing (no double quarantine, no crash).
        assert_eq!(store.load::<u64>(0), None);
        assert_eq!(quarantined(), before + 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let root = tmp("flip");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "x", "v1/flip", 1).expect("open");
        store.save(0, &1234567u64);
        let path = store.dir.join("0.json");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a digit inside the JSON body: still valid JSON, wrong
        // value — only the checksum can catch it.
        let pos = bytes.len() - 2;
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load::<u64>(0),
            None,
            "checksum must reject a silently-altered body"
        );
        assert!(store.dir.join("0.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn headerless_legacy_artifacts_are_quarantined() {
        let root = tmp("legacy");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "x", "v1/legacy", 1).expect("open");
        // A pre-checksum artifact: valid JSON, no header. Unverifiable
        // bytes are never replayed into results.
        std::fs::write(store.dir.join("0.json"), "7").unwrap();
        assert_eq!(store.load::<u64>(0), None);
        assert!(store.dir.join("0.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn orphaned_tmp_files_are_swept_on_open() {
        let root = tmp("orphan");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "x", "v1/orphan", 2).expect("open");
        let orphan = store.dir.join("1.json.tmp");
        std::fs::write(&orphan, "half-written").unwrap();
        let store = Store::open(&cfg, "x", "v1/orphan", 2).expect("reopen");
        assert!(!orphan.exists(), "reopen sweeps orphaned tmp files");
        assert_eq!(store.load::<u64>(1), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn labels_are_slugged() {
        assert_eq!(slug("fig3/SPEC92 (test)"), "fig3_SPEC92__test_");
    }

    #[test]
    fn repeated_quarantines_keep_distinct_generations() {
        let root = tmp("regen");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "x", "v1/regen", 1).expect("open");
        for gen in ["first bad", "second bad"] {
            std::fs::write(store.dir.join("0.json"), gen).unwrap();
            assert_eq!(store.load::<u64>(0), None);
        }
        assert!(store.dir.join("0.json.corrupt").exists());
        assert!(
            store.dir.join("0.json.corrupt-2").exists(),
            "second failure must not overwrite the first generation"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_bounds_the_quarantine_backlog() {
        let root = tmp("rebound");
        let cfg = CheckpointConfig {
            root: root.clone(),
            resume: true,
        };
        let store = Store::open(&cfg, "x", "v1/rebound", 1).expect("open");
        for gen in 0..6 {
            std::fs::write(store.dir.join("0.json"), format!("bad {gen}")).unwrap();
            assert_eq!(store.load::<u64>(0), None);
        }
        let count = |dir: &std::path::Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|e| e.path().to_string_lossy().contains(".corrupt"))
                .count()
        };
        assert_eq!(count(&store.dir), 6);
        let store = Store::open(&cfg, "x", "v1/rebound", 1).expect("reopen");
        assert_eq!(
            count(&store.dir),
            crate::persist::CORRUPT_KEEP_DEFAULT,
            "reopen trims the backlog to the newest generations"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
