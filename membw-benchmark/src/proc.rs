//! Hermetic child processes: a private temp root, a scrubbed
//! environment, and peak-RSS accounting through `wait4`.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Prefix of every variable that changes how `repro` behaves (`MEMBW_JOBS`,
/// `MEMBW_TRACE_CACHE_MB`, `MEMBW_MEM_BUDGET_MB`, `MEMBW_SWEEP_VERIFY`,
/// `MEMBW_IO_FAULT`, `MEMBW_NET_FAULT`, `MEMBW_SERVE_FAULT`, `MEMBW_FAULT_*`).
pub const ENV_PREFIX: &str = "MEMBW_";

/// The `MEMBW_*` variables of this process, which no child inherits.
pub fn scrubbed_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(ENV_PREFIX))
        .collect();
    v.sort();
    v
}

/// A command with every `MEMBW_*` variable removed, run from `cwd`.
pub fn command(program: &Path, cwd: &Path) -> Command {
    let mut cmd = Command::new(program);
    for k in scrubbed_vars() {
        cmd.env_remove(k);
    }
    cmd.current_dir(cwd).stdin(Stdio::null());
    cmd
}

/// The directory every file of a run lives under, relative to the
/// working directory (so Unix socket paths stay short). Removed on drop.
pub struct TempRoot {
    path: PathBuf,
    next: std::sync::atomic::AtomicUsize,
}

const TEMP_PARENT: &str = ".membw-benchmark-tmp";

impl TempRoot {
    pub fn new() -> std::io::Result<Self> {
        let path = Path::new(TEMP_PARENT).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot {
            path,
            next: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// A fresh, empty directory under the root.
    pub fn fresh(&self, tag: &str) -> std::io::Result<PathBuf> {
        let n = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = self.path.join(format!("{tag}{n}"));
        std::fs::create_dir_all(&d)?;
        Ok(d)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while a
        // concurrent run still owns a sibling).
        let _ = std::fs::remove_dir(TEMP_PARENT);
    }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    pub maxrss_kb: i64,
}

fn decode(status: i32, ru: &RUsage) -> Exit {
    let exited = status & 0x7f == 0;
    Exit {
        code: exited.then_some((status >> 8) & 0xff),
        maxrss_kb: ru.maxrss_kb,
    }
}

/// Reap `pid`, blocking (or polling once, with `hang == false`).
fn reap(pid: u32, hang: bool) -> std::io::Result<Option<Exit>> {
    let mut status = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // wait4(2) expects (`int` and Linux's 64-bit `struct rusage`);
        // `pid` is a child of this process that nothing else reaps.
        let r = unsafe {
            wait4(
                pid as i32,
                &mut status,
                if hang { 0 } else { WNOHANG },
                &mut ru,
            )
        };
        match r {
            0 => return Ok(None),
            r if r > 0 => return Ok(Some(decode(status, &ru))),
            _ => {
                let e = std::io::Error::last_os_error();
                if e.kind() != std::io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }
}

fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers; `pid` names a child this
    // process has not reaped yet, so it cannot have been recycled.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// One finished child: its stdout, exit, and wall time from spawn to reap.
pub struct Finished {
    pub stdout: Vec<u8>,
    pub exit: Exit,
    pub wall: Duration,
}

/// Spawn `cmd` with stdout captured and stderr appended to `log`, read
/// stdout to its end, and reap the child with `wait4`.
pub fn run(mut cmd: Command, log: &Path) -> std::io::Result<Finished> {
    let err = std::fs::File::create(log)?;
    cmd.stdout(Stdio::piped()).stderr(err);
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = reap(child.id(), true)?.expect("blocking wait4 returns the child");
    let wall = t0.elapsed();
    read?;
    Ok(Finished { stdout, exit, wall })
}

/// The last lines of a child's stderr log, for error messages.
pub fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(6)..].join(" | ")
}

/// A long-running child (the serve daemon): SIGTERMed and reaped on drop.
pub struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    pub fn spawn(mut cmd: Command, log: &Path) -> std::io::Result<Self> {
        let err = std::fs::File::create(log)?;
        cmd.stdout(Stdio::null()).stderr(err);
        Ok(Daemon {
            child: Some(cmd.spawn()?),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon not stopped").id()
    }

    /// Peak resident set (`VmHWM`) so far, in KiB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Whether the daemon already exited (it should not have).
    pub fn exited(&mut self) -> Option<Exit> {
        let pid = self.child.as_ref()?.id();
        match reap(pid, false) {
            Ok(Some(e)) => {
                self.child = None;
                Some(e)
            }
            _ => None,
        }
    }

    /// SIGTERM, then reap; SIGKILL if the drain takes over ten seconds.
    pub fn stop(&mut self) -> Option<Exit> {
        let child = self.child.take()?;
        let pid = child.id();
        signal(pid, SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reap(pid, false) {
                Ok(Some(e)) => return Some(e),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    signal(pid, SIGKILL);
                    return reap(pid, true).ok().flatten();
                }
                Err(_) => return None,
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}
