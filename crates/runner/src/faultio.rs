//! The storage facade every durable write in the workspace goes
//! through: the `io:` domain of the [`fault`] plan.
//!
//! The durability story built by the checkpoint store, the `.mwtr`
//! writer, the signature store, and the `membw serve` result store is a
//! *claim* until something actually makes `write(2)` return short,
//! `fsync` fail, or the process die between `rename` and the next line.
//! Every operation performed here — create, raw write, fsync, rename,
//! remove, mkdir — is one io point, so `tests/crash_consistency.rs` can
//! enumerate every io point of a workload and kill the process at each
//! one, reaching states like "temp file created but empty", "half the
//! payload written", "fsynced but not renamed", and "renamed but the
//! directory not yet fsynced".
//!
//! With no `io:` directive installed the facade is pass-through: one
//! relaxed atomic load per operation, no counting, no bookkeeping.

use crate::fault::{self, injected, Domain, FaultPlan, Op, IO};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn current() -> Option<Arc<FaultPlan>> {
    fault::active(IO)
}

fn io_point(plan: &FaultPlan, op: &str, path: &Path) {
    fault::point(plan, Domain::Io, format_args!("{op} {}", path.display()));
}

/// A file opened for durable writing through the fault plan. Wraps
/// create/write/fsync; [`rename`], [`remove_file`], [`create_dir_all`]
/// and [`Dir`] cover the rest of the durable-write vocabulary.
#[derive(Debug)]
pub struct DurableFile {
    file: std::fs::File,
    path: PathBuf,
}

impl DurableFile {
    /// Create (truncating) `path` for writing. One io point.
    ///
    /// # Errors
    ///
    /// The underlying create error.
    pub fn create(path: &Path) -> io::Result<DurableFile> {
        if let Some(plan) = current() {
            io_point(&plan, "create", path);
        }
        Ok(DurableFile {
            file: std::fs::File::create(path)?,
            path: path.to_path_buf(),
        })
    }

    /// Write all of `buf`, retrying interrupted and short writes. Under
    /// an active plan each raw write attempt is one io point; `eintr`,
    /// `shortwrite`, and `enospc` inject here.
    ///
    /// # Errors
    ///
    /// The underlying (or injected) write error; `EINTR` is always
    /// retried, a short write always continued.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let Some(plan) = current() else {
            return self.file.write_all(buf);
        };
        let mut rest = buf;
        // One mid-buffer boundary is enough to prove the loop and to
        // give crash plans a torn-write state to land on.
        let mut split_pending = (plan.io.shortwrite || plan.io_stepped()) && rest.len() >= 2;
        let mut eintr_pending = plan.io.eintr;
        while !rest.is_empty() {
            let nth_write = fault::ordinal(Op::Write);
            io_point(&plan, "write", &self.path);
            let attempt: io::Result<usize> = if eintr_pending {
                eintr_pending = false;
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected EINTR ({})", fault::FAULT_ENV),
                ))
            } else if plan.io.enospc.hits(nth_write) {
                Err(injected("ENOSPC: no space left on device"))
            } else {
                let take = if split_pending {
                    split_pending = false;
                    (rest.len() / 2).max(1)
                } else {
                    rest.len()
                };
                self.file.write_all(&rest[..take]).map(|()| take)
            };
            match attempt {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Fsync the file. One io point; `fsyncfail` injects here. The
    /// error is returned — never deferred to a drop that cannot report
    /// it.
    ///
    /// # Errors
    ///
    /// The underlying (or injected) fsync error.
    pub fn sync_all(&self) -> io::Result<()> {
        sync(&self.file, &self.path, "fsync")
    }
}

/// Fsync `file`: one io point, where `fsyncfail` injects.
fn sync(file: &std::fs::File, path: &Path, op: &str) -> io::Result<()> {
    let Some(plan) = current() else {
        return file.sync_all();
    };
    let nth = fault::ordinal(Op::Fsync);
    io_point(&plan, op, path);
    if plan.io.fsyncfail.hits(nth) {
        return Err(injected(format_args!("{op} failure")));
    }
    file.sync_all()
}

/// A directory handle for rename durability: after publishing via
/// [`rename`], fsyncing the parent directory makes the new directory
/// entry itself survive power loss.
#[derive(Debug)]
pub struct Dir {
    file: std::fs::File,
    path: PathBuf,
}

impl Dir {
    /// Open `path` (a directory) for fsync.
    ///
    /// # Errors
    ///
    /// The underlying open error.
    pub fn open(path: &Path) -> io::Result<Dir> {
        Ok(Dir {
            file: std::fs::File::open(path)?,
            path: path.to_path_buf(),
        })
    }

    /// Fsync the directory. One io point; `fsyncfail` injects here
    /// too (directory fsync fails the same way file fsync does).
    ///
    /// # Errors
    ///
    /// The underlying (or injected) fsync error.
    pub fn sync_all(&self) -> io::Result<()> {
        sync(&self.file, &self.path, "fsyncdir")
    }
}

/// Rename `from` onto `to`. One io point; `tornrename` injects here:
/// half the source bytes land at the destination and the call fails,
/// simulating the torn publish of a non-atomic filesystem.
///
/// # Errors
///
/// The underlying (or injected) rename error.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    let Some(plan) = current() else {
        return std::fs::rename(from, to);
    };
    let nth = fault::ordinal(Op::Rename);
    io_point(&plan, "rename", to);
    if plan.io.tornrename.hits(nth) {
        let bytes = std::fs::read(from).unwrap_or_default();
        let _ = std::fs::write(to, &bytes[..bytes.len() / 2]);
        let _ = std::fs::remove_file(from);
        return Err(injected("torn rename"));
    }
    std::fs::rename(from, to)
}

/// Remove `path`. One io point (so crash plans cover sweep/cleanup
/// states); no fault directive targets removes.
///
/// # Errors
///
/// The underlying remove error.
pub fn remove_file(path: &Path) -> io::Result<()> {
    if let Some(plan) = current() {
        io_point(&plan, "remove", path);
    }
    std::fs::remove_file(path)
}

/// Create `path` and its ancestors. One io point.
///
/// # Errors
///
/// The underlying mkdir error.
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    if let Some(plan) = current() {
        io_point(&plan, "mkdir", path);
    }
    std::fs::create_dir_all(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{read_count, set_plan, TEST_PLAN_LOCK};

    fn with_plan<R>(spec: &str, f: impl FnOnce() -> R) -> R {
        let _guard = TEST_PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_plan(Some(FaultPlan::parse(spec).expect("test spec")));
        let out = f();
        set_plan(None);
        out
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("membw_faultio_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn eintr_and_shortwrite_are_transparent_to_a_correct_loop() {
        let dir = tmpdir("transparent");
        let path = dir.join("payload");
        let body = b"0123456789abcdef0123456789abcdef";
        with_plan("io:eintr, io:shortwrite", || {
            let mut f = DurableFile::create(&path).unwrap();
            f.write_all(body).unwrap();
            f.sync_all().unwrap();
        });
        assert_eq!(std::fs::read(&path).unwrap(), body, "bytes unchanged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_and_fsyncfail_inject_errors() {
        let dir = tmpdir("errs");
        with_plan("io:enospc", || {
            let mut f = DurableFile::create(&dir.join("a")).unwrap();
            let e = f.write_all(b"xx").unwrap_err();
            assert!(e.to_string().contains("ENOSPC"), "{e}");
        });
        with_plan("io:fsyncfail", || {
            let mut f = DurableFile::create(&dir.join("b")).unwrap();
            f.write_all(b"xx").unwrap();
            let e = f.sync_all().unwrap_err();
            assert!(e.to_string().contains("injected fsync"), "{e}");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rename_leaves_half_the_bytes_and_fails() {
        let dir = tmpdir("torn");
        let src = dir.join("src");
        let dst = dir.join("dst");
        std::fs::write(&src, b"0123456789").unwrap();
        with_plan("io:tornrename", || {
            let e = rename(&src, &dst).unwrap_err();
            assert!(e.to_string().contains("torn rename"), "{e}");
        });
        assert!(!src.exists(), "torn rename consumes the source");
        assert_eq!(std::fs::read(&dst).unwrap(), b"01234", "half published");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn count_mode_enumerates_points() {
        let dir = tmpdir("count");
        let counter = dir.join("points");
        let spec = format!("count:{}", counter.display());
        with_plan(&spec, || {
            let mut f = DurableFile::create(&dir.join("x")).unwrap();
            f.write_all(b"0123456789").unwrap(); // stepped: two raw writes
            f.sync_all().unwrap();
            rename(&dir.join("x"), &dir.join("y")).unwrap();
        });
        assert_eq!(
            read_count(&counter, Domain::Io),
            Some(5),
            "create + 2 writes + fsync + rename"
        );
        assert_eq!(read_count(&counter, Domain::Net), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nth_selection_spares_other_operations() {
        let dir = tmpdir("nth");
        with_plan("io:enospc:2", || {
            // Ordinals restart at plan installation, so "the second
            // write" is deterministic no matter what ran before.
            let mut f = DurableFile::create(&dir.join("a")).unwrap();
            f.write_all(b"first").unwrap(); // write #1: fine
            let e = f.write_all(b"second").unwrap_err(); // write #2: injected
            assert!(e.to_string().contains("ENOSPC"), "{e}");
            f.write_all(b"third").unwrap(); // later writes unaffected
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
