//! Durable artifact persistence: the one place that knows how to get
//! bytes onto disk so that a crash — at any instant — leaves either the
//! previous artifact or the new one, never a torn hybrid.
//!
//! Three layers, each usable on its own:
//!
//! * **Atomic writes** — [`write_atomic`] writes to a `*.tmp` sibling,
//!   fsyncs, then renames onto the destination. A process killed
//!   mid-write leaves only the orphaned temp file, which
//!   [`sweep_orphaned_tmp`] removes the next time the directory is
//!   opened.
//! * **Content seals** — [`seal`] prefixes a body with its FNV-1a 64
//!   checksum (`#membw-ckpt fnv64=…`); [`unseal`] verifies and strips
//!   it. Bit rot, manual edits, and torn writes that somehow survive
//!   the rename are all caught at read time.
//! * **Quarantine retention** — artifacts that fail verification are
//!   renamed aside with [`quarantine_path`] (never deleted, so they can
//!   be inspected) and [`sweep_corrupt_retention`] bounds how many
//!   quarantined generations a flaky disk can accumulate per artifact.
//!
//! The checkpoint store (PR 4), the `repro` JSON archives, and the
//! `membw serve` result store all persist through this module, so their
//! crash-safety stories are literally the same code path. Every
//! filesystem operation goes through [`faultio`], so
//! `MEMBW_FAULT`'s `io:` directives — short writes, injected `ENOSPC`, failing
//! `fsync`, torn renames, a crash at any I/O point — exercises exactly
//! the code production runs.
//!
//! Temp files are named `<artifact>.p<pid>.tmp`, so the orphan sweep
//! can tell a *dead* writer's leftovers (swept) from a *live* sibling
//! process writing into the same directory (left alone).

use crate::faultio::{self, Dir, DurableFile};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a over a string — stable across runs and platforms
/// (unlike `DefaultHasher`, which makes no cross-version promise).
pub fn fnv64(s: &str) -> u64 {
    fnv64_bytes(s.as_bytes())
}

/// FNV-1a over raw bytes (the content checksum of sealed artifacts).
pub fn fnv64_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum header prefix of a sealed artifact.
pub const SEAL_HEADER: &str = "#membw-ckpt fnv64=";

/// Prefix `body` with its content checksum header.
pub fn seal(body: &str) -> String {
    format!("{SEAL_HEADER}{:016x}\n{body}", fnv64_bytes(body.as_bytes()))
}

/// Split a sealed artifact into its verified body, or `None` if the
/// header is missing/malformed or the checksum does not match.
pub fn unseal(text: &str) -> Option<&str> {
    let rest = text.strip_prefix(SEAL_HEADER)?;
    let (hex, body) = rest.split_once('\n')?;
    let stored = u64::from_str_radix(hex, 16).ok()?;
    (stored == fnv64_bytes(body.as_bytes())).then_some(body)
}

/// A failed persistence step: which operation failed, on which path,
/// and the OS error — the same shape `MembwError::Io` renders.
pub type PersistError = (&'static str, PathBuf, std::io::Error);

/// The temp sibling this process writes `fin` through:
/// `<fin>.p<pid>.tmp`. The embedded PID lets [`sweep_orphaned_tmp`]
/// distinguish a dead writer's leftovers from a live one's in-flight
/// file.
pub fn tmp_path(fin: &Path) -> PathBuf {
    let mut tmp = fin.as_os_str().to_owned();
    tmp.push(format!(".p{}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

/// Write `bytes` to `fin` durably: create `<fin>.p<pid>.tmp`, write,
/// fsync, rename onto `fin`, fsync the parent directory. A crash at any
/// point leaves either the old `fin` (plus at worst an orphaned temp
/// file) or the complete new one.
///
/// # Errors
///
/// Names the failed operation and path (`ENOSPC`, permissions, short
/// writes included); the temp file is removed on failure. Sync errors
/// are returned from the explicit `fsync` calls here — never deferred
/// to a file-handle drop that cannot report them.
pub fn write_atomic(fin: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_path(fin);
    let result = write_atomic_at(&tmp, fin, bytes);
    if result.is_err() {
        let _ = faultio::remove_file(&tmp);
    }
    result
}

fn write_atomic_at(tmp: &Path, fin: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut f = DurableFile::create(tmp)
        .map_err(|e| ("create artifact temp file", tmp.to_path_buf(), e))?;
    f.write_all(bytes)
        .map_err(|e| ("write artifact", tmp.to_path_buf(), e))?;
    // fsync before rename: otherwise a crash can leave a renamed but
    // empty/short file, which is exactly the torn artifact the rename
    // is meant to rule out.
    f.sync_all()
        .map_err(|e| ("fsync artifact", tmp.to_path_buf(), e))?;
    drop(f);
    faultio::rename(tmp, fin).map_err(|e| ("publish artifact", fin.to_path_buf(), e))?;
    // fsync the directory so the new *entry* survives power loss too; a
    // crash before this point replays the old artifact, which is fine.
    if let Some(parent) = fin.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir =
            Dir::open(parent).map_err(|e| ("open artifact directory", parent.to_path_buf(), e))?;
        dir.sync_all()
            .map_err(|e| ("fsync artifact directory", parent.to_path_buf(), e))?;
    }
    Ok(())
}

/// The PID embedded in a `<artifact>.p<pid>.tmp` name, if the name has
/// that shape. Legacy bare `*.tmp` names yield `None`.
fn tmp_owner_pid(name: &str) -> Option<u32> {
    let stem = name.strip_suffix(".tmp")?;
    let (_, pid) = stem.rsplit_once(".p")?;
    pid.parse().ok()
}

/// True when the process that owns a temp file is still alive (Linux:
/// `/proc/<pid>` exists). On platforms without `/proc` every owner
/// looks dead, which degrades to the historical sweep-everything
/// behaviour.
fn tmp_owner_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Remove `*.tmp` leftovers from a process that was killed mid-save,
/// returning how many were removed. A temp file whose embedded PID
/// belongs to a still-running process is an in-flight write by a live
/// sibling and is left alone; bare legacy `*.tmp` names (no PID) are
/// always swept.
pub fn sweep_orphaned_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "tmp") {
            continue;
        }
        let owner = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(tmp_owner_pid);
        if owner.is_some_and(tmp_owner_alive) {
            continue;
        }
        if faultio::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Default number of quarantined generations kept per artifact by
/// [`sweep_corrupt_retention`].
pub const CORRUPT_KEEP_DEFAULT: usize = 3;

/// A fresh quarantine destination for `path`: `<path>.corrupt` if free,
/// else `<path>.corrupt-2`, `<path>.corrupt-3`, … so repeated failures
/// of the same artifact keep distinct generations (which the retention
/// sweep then bounds) instead of silently overwriting the evidence.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let base = {
        let mut s = path.as_os_str().to_owned();
        s.push(".corrupt");
        PathBuf::from(s)
    };
    if !base.exists() {
        return base;
    }
    for n in 2u64.. {
        let mut s = path.as_os_str().to_owned();
        s.push(format!(".corrupt-{n}"));
        let candidate = PathBuf::from(s);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("some quarantine suffix is always free")
}

/// The quarantine family an artifact belongs to: `x.json.corrupt` and
/// `x.json.corrupt-7` both map to `x.json`.
fn corrupt_base(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let (base, suffix) = name.rsplit_once(".corrupt")?;
    if suffix.is_empty()
        || suffix
            .strip_prefix('-')
            .is_some_and(|n| n.parse::<u64>().is_ok())
    {
        Some(base.to_string())
    } else {
        None
    }
}

/// Bound the quarantine backlog in `dir`: for each artifact, keep the
/// `keep` newest `*.corrupt` generations (by modification time, then
/// name) and delete the rest, logging what was dropped. Returns the
/// number of files removed. A flaky disk can therefore never grow a
/// results directory without bound.
pub fn sweep_corrupt_retention(dir: &Path, keep: usize) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    // Group quarantine files by the artifact they came from.
    let mut families: std::collections::BTreeMap<String, Vec<PathBuf>> =
        std::collections::BTreeMap::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if let Some(base) = corrupt_base(&path) {
            families.entry(base).or_default().push(path);
        }
    }
    let mut dropped = 0usize;
    for (base, mut paths) in families {
        if paths.len() <= keep {
            continue;
        }
        // Newest first: modification time descending, then name
        // descending as the deterministic tie-break (generation
        // suffixes grow over time).
        paths.sort_by(|a, b| {
            let mt = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
            mt(b).cmp(&mt(a)).then_with(|| b.cmp(a))
        });
        let excess = paths.split_off(keep);
        let n = excess.len();
        for p in &excess {
            let _ = std::fs::remove_file(p);
        }
        dropped += n;
        eprintln!(
            "warning: quarantine retention dropped {n} older corrupt artifact(s) of {base} \
             under {} (keeping the {keep} newest)",
            dir.display()
        );
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("membw_persist_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: on-disk layouts depend on these values never moving.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn seal_unseal_roundtrip_and_reject() {
        let sealed = seal("{\"x\": 1}");
        assert!(sealed.starts_with(SEAL_HEADER));
        assert_eq!(unseal(&sealed), Some("{\"x\": 1}"));
        let tampered = sealed.replace('1', "2");
        assert_eq!(unseal(&tampered), None);
        assert_eq!(unseal("#membw-ckpt fnv64=zz\nbody"), None);
        assert_eq!(unseal("no header at all"), None);
    }

    #[test]
    fn write_atomic_publishes_and_cleans_tmp() {
        let dir = tmpdir("atomic");
        let fin = dir.join("out.json");
        write_atomic(&fin, b"hello").unwrap();
        assert_eq!(std::fs::read(&fin).unwrap(), b"hello");
        assert!(!tmp_path(&fin).exists());
        // Overwrite in place is atomic too.
        write_atomic(&fin, b"world").unwrap();
        assert_eq!(std::fs::read(&fin).unwrap(), b"world");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_failure_names_operation_and_path() {
        let dir = tmpdir("atomic_fail");
        let fin = dir.join("no/such/dir/out.json");
        let (ctx, path, _) = write_atomic(&fin, b"x").unwrap_err();
        assert_eq!(ctx, "create artifact temp file");
        let name = path.to_string_lossy().into_owned();
        assert!(
            name.contains("out.json.p") && name.ends_with(".tmp"),
            "temp name carries the artifact and writer pid: {name}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_swept() {
        let dir = tmpdir("sweep");
        std::fs::write(dir.join("a.json.tmp"), "half").unwrap();
        std::fs::write(dir.join("b.json"), "whole").unwrap();
        assert_eq!(sweep_orphaned_tmp(&dir), 1);
        assert!(!dir.join("a.json.tmp").exists());
        assert!(dir.join("b.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_spares_a_live_writers_tmp_and_claims_dead_ones() {
        let dir = tmpdir("liveness");
        // Our own in-flight write: the sweep must not race us.
        let alive = tmp_path(&dir.join("mine.json"));
        std::fs::write(&alive, "in flight").unwrap();
        // A writer that no longer exists (PIDs are bounded well below
        // this on Linux), and a pre-PID legacy name.
        let dead = dir.join("theirs.json.p999999999.tmp");
        std::fs::write(&dead, "orphan").unwrap();
        let legacy = dir.join("old.json.tmp");
        std::fs::write(&legacy, "orphan").unwrap();
        assert_eq!(sweep_orphaned_tmp(&dir), 2);
        assert!(alive.exists(), "live sibling's tmp must survive the sweep");
        assert!(!dead.exists());
        assert!(!legacy.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_owner_pid_parses_only_the_pid_shape() {
        assert_eq!(tmp_owner_pid("x.json.p1234.tmp"), Some(1234));
        assert_eq!(tmp_owner_pid("x.json.tmp"), None);
        assert_eq!(tmp_owner_pid("x.json.pabc.tmp"), None);
        assert_eq!(tmp_owner_pid("x.json.p12"), None);
    }

    #[test]
    fn quarantine_paths_never_collide() {
        let dir = tmpdir("qpath");
        let artifact = dir.join("3.json");
        let q1 = quarantine_path(&artifact);
        assert!(q1.to_string_lossy().ends_with("3.json.corrupt"));
        std::fs::write(&q1, "gen1").unwrap();
        let q2 = quarantine_path(&artifact);
        assert!(q2.to_string_lossy().ends_with("3.json.corrupt-2"));
        std::fs::write(&q2, "gen2").unwrap();
        let q3 = quarantine_path(&artifact);
        assert!(q3.to_string_lossy().ends_with("3.json.corrupt-3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_base_groups_generations() {
        assert_eq!(
            corrupt_base(Path::new("/x/3.json.corrupt")),
            Some("3.json".into())
        );
        assert_eq!(
            corrupt_base(Path::new("/x/3.json.corrupt-12")),
            Some("3.json".into())
        );
        assert_eq!(corrupt_base(Path::new("/x/3.json")), None);
        assert_eq!(corrupt_base(Path::new("/x/3.json.corrupted")), None);
    }

    #[test]
    fn retention_keeps_the_newest_n_per_artifact() {
        let dir = tmpdir("retention");
        // Five generations of one artifact, two of another; mtimes are
        // too coarse to distinguish here, so the name tie-break rules.
        for name in [
            "0.json.corrupt",
            "0.json.corrupt-2",
            "0.json.corrupt-3",
            "0.json.corrupt-4",
            "0.json.corrupt-5",
            "1.json.corrupt",
            "1.json.corrupt-2",
        ] {
            std::fs::write(dir.join(name), name).unwrap();
        }
        let dropped = sweep_corrupt_retention(&dir, 3);
        assert_eq!(dropped, 2, "five generations of 0.json minus three kept");
        assert!(dir.join("0.json.corrupt-5").exists());
        assert!(dir.join("0.json.corrupt-4").exists());
        assert!(dir.join("0.json.corrupt-3").exists());
        assert!(!dir.join("0.json.corrupt-2").exists());
        assert!(!dir.join("0.json.corrupt").exists());
        // The under-bound family is untouched.
        assert!(dir.join("1.json.corrupt").exists());
        assert!(dir.join("1.json.corrupt-2").exists());
        // Idempotent: a second sweep drops nothing.
        assert_eq!(sweep_corrupt_retention(&dir, 3), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
