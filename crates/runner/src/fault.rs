//! The one deterministic fault-plan engine behind every test hook in the
//! workspace: storage faults, wire faults, and per-job faults share one
//! grammar, one parser, one installed plan, and one point counter per
//! domain (io, net).
//!
//! # `MEMBW_FAULT` grammar
//!
//! A comma-separated plan. Every directive carries its domain prefix,
//! except the one domain-less `count:PATH`:
//!
//! | directive | effect |
//! |-----------|--------|
//! | `io:enospc[:N]` | write operations fail as if the disk were full (only the N-th with `:N`) |
//! | `io:eintr` | the first attempt of every logical write returns `EINTR` (proves the retry loop) |
//! | `io:shortwrite` | raw writes take half the buffer (proves the short-write loop) |
//! | `io:fsyncfail[:N]` | file and directory fsyncs fail |
//! | `io:tornrename[:N]` | a rename publishes half the source bytes, then fails |
//! | `io:crash@K` | abort (exit 134) immediately before io point K |
//! | `net:acceptfail[:N]` | accepting a connection fails; the serve loop must survive |
//! | `net:tornframe@K` | one-shot: the reply is severed after exactly K bytes |
//! | `net:stallwrite[:MS]` | every write stalls MS ms first (default [`DEFAULT_STALL_MS`]) |
//! | `net:disconnect@K` | the peer vanishes at net point K |
//! | `net:crash@K` | abort (exit 134) immediately before net point K |
//! | `job:panic@LABEL:IDX` | the matching job panics on every attempt |
//! | `job:slow@LABEL:IDX:MS` | the matching job sleeps MS ms (cancel-aware) before running |
//! | `job:cancel@LABEL:IDX` | dispatching the matching job cancels the run context's token |
//! | `count:PATH` | no faults; after every point, PATH holds each domain's running total |
//!
//! `IDX` is a job index of the batch `LABEL` (`"table8"`,
//! `"fig3/SPEC92"`, …) or `*` for every job of it, so a job fault is a
//! pure function of the matrix position. Entries are trimmed once, here.
//!
//! # Points
//!
//! The `io` and `net` domains number their points from 1 under an
//! installed plan, independently: every operation through
//! [`faultio`](crate::faultio) (create, raw write, fsync, rename,
//! remove, mkdir) is one io point, and every accept, raw read, and raw
//! write through `serve::net` is one net point. A directive of one
//! domain therefore never renumbers the other, and `count:PATH` (read
//! back with [`read_count`]) enumerates exactly the numbering `crash@K`
//! and `disconnect@K` then fire on. While an io plan has `crash@K` or
//! `count:`, and under every net plan, logical writes are split in two
//! so points also land mid-write.
//!
//! Installing a plan restarts every point and ordinal at 1. With no plan
//! each hook costs one relaxed atomic load of a per-domain bit mask.
//!
//! A malformed plan is an error naming `MEMBW_FAULT` and a refusal to
//! start (exit 2), never a silently ignored hook; so is any of the six
//! retired per-hook variables, whose error gives the new spelling.

use crate::cancel::CancelReason;
use crate::context::RunContext;
use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

/// Environment variable carrying the fault plan.
pub const FAULT_ENV: &str = "MEMBW_FAULT";

/// `net:stallwrite` without an explicit duration stalls this long.
pub const DEFAULT_STALL_MS: u64 = 50;

const GRAMMAR: &str = "io:enospc[:N]|eintr|shortwrite|fsyncfail[:N]|tornrename[:N]|crash@K, \
     net:acceptfail[:N]|tornframe@K|stallwrite[:MS]|disconnect@K|crash@K, \
     job:panic@LABEL:IDX|slow@LABEL:IDX:MS|cancel@LABEL:IDX, count:PATH";

/// The retired per-hook variables and the prefix each of their entries
/// takes under [`FAULT_ENV`]. `MEMBW_SERVE_FAULT` has none: it chose
/// the soak harness's adversarial clients, which are now fixed, so no
/// plan means the same thing.
const RETIRED: [(&str, Option<&str>); 6] = [
    ("MEMBW_IO_FAULT", Some("io:")),
    ("MEMBW_NET_FAULT", Some("net:")),
    ("MEMBW_FAULT_INJECT", Some("job:panic@")),
    ("MEMBW_FAULT_SLOW", Some("job:slow@")),
    ("MEMBW_FAULT_CANCEL", Some("job:cancel@")),
    ("MEMBW_SERVE_FAULT", None),
];

/// A point domain. Each numbers its points independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Storage operations through [`faultio`](crate::faultio).
    Io = 0,
    /// Socket operations through `serve::net`.
    Net = 1,
}

impl Domain {
    fn name(self) -> &'static str {
        match self {
            Domain::Io => "io",
            Domain::Net => "net",
        }
    }
}

// Bits of the installed plan's domain mask.
pub(crate) const IO: u8 = 1;
const NET: u8 = 2;
const JOB: u8 = 4;
/// Set until the environment has been read.
const UNREAD: u8 = 8;

/// Which operations of one kind a directive selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Select {
    /// Directive absent.
    #[default]
    Off,
    /// Every operation of the kind.
    All,
    /// Only the N-th operation of the kind (1-based, under this plan).
    Nth(u64),
}

impl Select {
    /// True when the directive fires on the `n`-th operation.
    pub(crate) fn hits(self, n: u64) -> bool {
        match self {
            Select::Off => false,
            Select::All => true,
            Select::Nth(k) => k == n,
        }
    }
}

/// The `io:` directives other than `crash@K`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct IoFaults {
    pub(crate) enospc: Select,
    pub(crate) fsyncfail: Select,
    pub(crate) tornrename: Select,
    pub(crate) eintr: bool,
    pub(crate) shortwrite: bool,
}

/// The `net:` directives other than `crash@K`.
#[derive(Debug, Clone, PartialEq, Default)]
struct NetFaults {
    acceptfail: Select,
    tornframe_at: Option<u64>,
    stall_ms: Option<u64>,
    disconnect_at: Option<u64>,
}

/// What a `job:` directive does; ordered so that, for one job, a cancel
/// fires before a delay and a delay before a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum JobAction {
    Cancel,
    Slow(u64),
    Panic,
}

#[derive(Debug, Clone, PartialEq)]
struct JobFault {
    action: JobAction,
    label: String,
    /// `None` selects every job of the batch (`*`).
    index: Option<usize>,
}

/// A parsed [`FAULT_ENV`] plan. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    count_to: Option<PathBuf>,
    /// `crash@K` per [`Domain`].
    crash_at: [Option<u64>; 2],
    pub(crate) io: IoFaults,
    net: NetFaults,
    jobs: Vec<JobFault>,
}

fn positive(arg: &str) -> Result<u64, &'static str> {
    arg.parse::<u64>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or("the ordinal or point must be a positive integer")
}

/// `name` selects every operation of its kind, `name:N` only the N-th;
/// `None` when `d` is not this directive at all.
fn select(d: &str, name: &str) -> Option<Result<Select, &'static str>> {
    match d.strip_prefix(name)? {
        "" => Some(Ok(Select::All)),
        rest => Some(positive(rest.strip_prefix(':')?).map(Select::Nth)),
    }
}

impl FaultPlan {
    /// Strictly parse a [`FAULT_ENV`] plan.
    ///
    /// # Errors
    ///
    /// Names the variable, the offending entry, and the grammar.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim) {
            plan.add(entry).map_err(|why| {
                format!("invalid {FAULT_ENV} entry {entry:?}: {why} (expected {GRAMMAR})")
            })?;
        }
        plan.jobs.sort_by_key(|j| j.action);
        Ok(plan)
    }

    fn add(&mut self, entry: &str) -> Result<(), &'static str> {
        if let Some(path) = entry.strip_prefix("count:") {
            if path.is_empty() {
                return Err("count: needs a file path");
            }
            self.count_to = Some(PathBuf::from(path));
            Ok(())
        } else if let Some(d) = entry.strip_prefix("io:") {
            self.add_io(d)
        } else if let Some(d) = entry.strip_prefix("net:") {
            self.add_net(d)
        } else if let Some(d) = entry.strip_prefix("job:") {
            self.add_job(d)
        } else {
            Err("a directive needs an io:, net: or job: domain prefix")
        }
    }

    fn add_io(&mut self, d: &str) -> Result<(), &'static str> {
        let io = &mut self.io;
        match d {
            "eintr" => io.eintr = true,
            "shortwrite" => io.shortwrite = true,
            _ => {
                if let Some(s) = select(d, "enospc") {
                    io.enospc = s?;
                } else if let Some(s) = select(d, "fsyncfail") {
                    io.fsyncfail = s?;
                } else if let Some(s) = select(d, "tornrename") {
                    io.tornrename = s?;
                } else if let Some(k) = d.strip_prefix("crash@") {
                    self.crash_at[Domain::Io as usize] = Some(positive(k)?);
                } else {
                    return Err("unknown io directive");
                }
            }
        }
        Ok(())
    }

    fn add_net(&mut self, d: &str) -> Result<(), &'static str> {
        let net = &mut self.net;
        if d == "stallwrite" {
            net.stall_ms = Some(DEFAULT_STALL_MS);
        } else if let Some(ms) = d.strip_prefix("stallwrite:") {
            net.stall_ms = Some(
                ms.parse()
                    .map_err(|_| "stallwrite:MS needs whole milliseconds")?,
            );
        } else if let Some(s) = select(d, "acceptfail") {
            net.acceptfail = s?;
        } else if let Some(k) = d.strip_prefix("tornframe@") {
            net.tornframe_at = Some(positive(k)?);
        } else if let Some(k) = d.strip_prefix("disconnect@") {
            net.disconnect_at = Some(positive(k)?);
        } else if let Some(k) = d.strip_prefix("crash@") {
            self.crash_at[Domain::Net as usize] = Some(positive(k)?);
        } else {
            return Err("unknown net directive");
        }
        Ok(())
    }

    fn add_job(&mut self, d: &str) -> Result<(), &'static str> {
        let (action, sel) = if let Some(sel) = d.strip_prefix("panic@") {
            (JobAction::Panic, sel)
        } else if let Some(sel) = d.strip_prefix("cancel@") {
            (JobAction::Cancel, sel)
        } else if let Some(rest) = d.strip_prefix("slow@") {
            let (sel, ms) = rest.rsplit_once(':').ok_or("slow@ needs LABEL:IDX:MS")?;
            let ms = ms
                .parse()
                .map_err(|_| "slow@LABEL:IDX:MS needs whole milliseconds")?;
            (JobAction::Slow(ms), sel)
        } else {
            return Err("unknown job directive");
        };
        let (label, index) = sel
            .rsplit_once(':')
            .ok_or("a job selector needs LABEL:IDX")?;
        if label.is_empty() {
            return Err("empty batch label");
        }
        let index = match index {
            "*" => None,
            i => Some(
                i.parse()
                    .map_err(|_| "IDX is neither a job number nor '*'")?,
            ),
        };
        self.jobs.push(JobFault {
            action,
            label: label.to_string(),
            index,
        });
        Ok(())
    }

    /// The domains whose hooks this plan needs.
    fn mask(&self) -> u8 {
        let counting = self.count_to.is_some();
        let mut mask = 0;
        if counting
            || self.crash_at[Domain::Io as usize].is_some()
            || self.io != IoFaults::default()
        {
            mask |= IO;
        }
        if counting
            || self.crash_at[Domain::Net as usize].is_some()
            || self.net != NetFaults::default()
        {
            mask |= NET;
        }
        if !self.jobs.is_empty() {
            mask |= JOB;
        }
        mask
    }

    /// True when logical writes are split in two so that an io crash
    /// (or the count) can land mid-write.
    pub(crate) fn io_stepped(&self) -> bool {
        self.crash_at[Domain::Io as usize].is_some() || self.count_to.is_some()
    }
}

/// The error for a retired variable: the new spelling when every entry
/// translates, else the grammar.
fn retired(name: &str, spec: &str, prefix: Option<&str>) -> String {
    let Some(prefix) = prefix else {
        return format!(
            "{name} is retired: the soak adversaries are fixed; \
             storage and wire faults are {FAULT_ENV}=io:… / net:… ({GRAMMAR})"
        );
    };
    let respelled: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .map(|e| {
            if e.starts_with("count:") {
                e.to_string()
            } else {
                format!("{prefix}{e}")
            }
        })
        .collect();
    let respelled = respelled.join(",");
    match FaultPlan::parse(&respelled) {
        Ok(_) => format!("{name} is retired: use {FAULT_ENV}={respelled}"),
        Err(_) => format!("{name} is retired: use {FAULT_ENV} ({GRAMMAR})"),
    }
}

fn plan_from_env() -> Result<Option<FaultPlan>, String> {
    for (name, prefix) in RETIRED {
        if let Ok(spec) = std::env::var(name) {
            return Err(retired(name, &spec, prefix));
        }
    }
    std::env::var(FAULT_ENV)
        .ok()
        .map(|spec| FaultPlan::parse(&spec))
        .transpose()
}

/// Validate the environment's fault configuration without installing
/// it. Drivers call this before starting work and exit 2 on error.
///
/// # Errors
///
/// A malformed [`FAULT_ENV`] plan, or a retired variable that is set.
pub fn validate_env() -> Result<(), String> {
    plan_from_env().map(drop)
}

// ---------------------------------------------------------------------
// Plan installation, ordinals, and the point counter.

static MASK: AtomicU8 = AtomicU8::new(UNREAD);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
static ENV_READ: Once = Once::new();
static COUNT_FILE: Mutex<()> = Mutex::new(());

/// Points executed per [`Domain`] under the installed plan.
static POINTS: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];
/// Per-kind operation ordinals under the installed plan.
static OPS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
static REPLY_BYTES: AtomicU64 = AtomicU64::new(0);
static TORN_FIRED: AtomicBool = AtomicBool::new(false);

/// Operation kinds a `:N` selector counts.
#[derive(Clone, Copy)]
pub(crate) enum Op {
    Write,
    Fsync,
    Rename,
    Accept,
}

/// Count one operation of `op`'s kind; returns its 1-based ordinal.
pub(crate) fn ordinal(op: Op) -> u64 {
    OPS[op as usize].fetch_add(1, Ordering::SeqCst) + 1
}

fn install(plan: Option<FaultPlan>) {
    let mut slot = PLAN.lock().expect("fault plan");
    // `io:enospc:N` means the N-th write under *this* plan: in-process
    // harnesses install plans repeatedly and must not inherit progress.
    for counter in POINTS.iter().chain(&OPS).chain([&REPLY_BYTES]) {
        counter.store(0, Ordering::SeqCst);
    }
    TORN_FIRED.store(false, Ordering::SeqCst);
    MASK.store(plan.as_ref().map_or(0, FaultPlan::mask), Ordering::SeqCst);
    *slot = plan.map(Arc::new);
}

/// Install (or with `None` clear) the process-wide plan, overriding
/// whatever [`FAULT_ENV`] said. In-process test harnesses use this.
pub fn set_plan(plan: Option<FaultPlan>) {
    ENV_READ.call_once(|| {}); // disarm the env initializer
    install(plan);
}

/// The installed plan, when it has directives for the domain `bit`.
pub(crate) fn active(bit: u8) -> Option<Arc<FaultPlan>> {
    // Relaxed suffices: the mask publishes no data of its own; the plan
    // it gates is read under the `PLAN` mutex.
    let mut mask = MASK.load(Ordering::Relaxed);
    if mask & UNREAD != 0 {
        ENV_READ.call_once(|| match plan_from_env() {
            Ok(plan) => install(plan),
            Err(e) => {
                // A library honours the drivers' contract: refuse to
                // run rather than silently ignore an injection hook.
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        });
        mask = MASK.load(Ordering::Relaxed);
    }
    if mask & bit == 0 {
        return None;
    }
    PLAN.lock().expect("fault plan").clone()
}

/// Count one point of `domain`; honour `count:` and `crash@K`. Returns
/// the point's number.
pub(crate) fn point(plan: &FaultPlan, domain: Domain, what: impl Display) -> u64 {
    let k = POINTS[domain as usize].fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(file) = &plan.count_to {
        // Totals are read under the lock, so the last write always
        // holds the final counts. Plain fs on purpose: the bookkeeping
        // file is not part of the workload under test.
        let _guard = COUNT_FILE.lock().unwrap_or_else(|e| e.into_inner());
        let totals = format!(
            "io {}\nnet {}\n",
            POINTS[0].load(Ordering::SeqCst),
            POINTS[1].load(Ordering::SeqCst)
        );
        let _ = std::fs::write(file, totals);
    }
    if plan.crash_at[domain as usize] == Some(k) {
        eprintln!(
            "{FAULT_ENV}: injected crash at {} point {k} (before {what})",
            domain.name()
        );
        std::process::abort();
    }
    k
}

/// `domain`'s total as recorded in a `count:PATH` file.
pub fn read_count(path: &Path, domain: Domain) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (name, n) = line.split_once(' ')?;
        (name == domain.name()).then(|| n.parse().ok())?
    })
}

pub(crate) fn injected(what: impl Display) -> io::Error {
    io::Error::other(format!("injected {what} ({FAULT_ENV})"))
}

// ---------------------------------------------------------------------
// The net hooks `serve::net` threads through its stream facade.

/// Accept hook: one net point; `acceptfail` and `crash@K` inject here.
///
/// # Errors
///
/// The injected accept failure.
pub fn net_accept() -> io::Result<()> {
    let Some(plan) = active(NET) else {
        return Ok(());
    };
    let nth = ordinal(Op::Accept);
    point(&plan, Domain::Net, "accept");
    if plan.net.acceptfail.hits(nth) {
        return Err(injected("accept failure"));
    }
    Ok(())
}

/// Read hook: one net point; `disconnect@K` and `crash@K` inject here.
///
/// # Errors
///
/// The injected disconnect: the caller severs the stream and returns it.
pub fn net_read() -> io::Result<()> {
    let Some(plan) = active(NET) else {
        return Ok(());
    };
    let k = point(&plan, Domain::Net, "read");
    if plan.net.disconnect_at == Some(k) {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("injected disconnect at net point {k} ({FAULT_ENV})"),
        ));
    }
    Ok(())
}

/// Write hook for a buffer of `len` bytes: one net point; `stallwrite`,
/// `disconnect@K`, `tornframe@K`, and `crash@K` inject here. Returns
/// how many bytes the raw write may take.
///
/// # Errors
///
/// The injected disconnect or torn frame: the caller severs the stream
/// and returns it.
pub fn net_write(len: usize) -> io::Result<usize> {
    let Some(plan) = active(NET) else {
        return Ok(len);
    };
    if let Some(ms) = plan.net.stall_ms {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let k = point(&plan, Domain::Net, "write");
    if plan.net.disconnect_at == Some(k) {
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            format!("injected disconnect at net point {k} ({FAULT_ENV})"),
        ));
    }
    // Every net plan steps its writes, not just `crash@K`/`count:`: the
    // numbering `count:` enumerates must be the one `disconnect@K` fires on.
    let mut limit = if len >= 2 { len / 2 } else { len };
    if let Some(offset) = plan.net.tornframe_at {
        if !TORN_FIRED.load(Ordering::SeqCst) {
            let written = REPLY_BYTES.load(Ordering::SeqCst);
            if written >= offset {
                // One-shot: this connection tears; the retry's writes
                // pass untouched so bounded backoff can converge.
                TORN_FIRED.store(true, Ordering::SeqCst);
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("injected torn frame after {written} reply byte(s) ({FAULT_ENV})"),
                ));
            }
            // Cut exactly at the offset: the peer sees a K-byte prefix.
            limit = limit.min((offset - written) as usize);
        }
    }
    Ok(limit)
}

/// Record `n` reply bytes actually written (drives `tornframe@K`).
pub fn net_wrote(n: usize) {
    if MASK.load(Ordering::Relaxed) & NET != 0 {
        REPLY_BYTES.fetch_add(n as u64, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// The job hook the run engine calls at dispatch.

/// Sleep `ms` milliseconds in 50 ms slices, polling the run context's
/// cancel token between slices: an injected delay never holds a drain
/// hostage.
fn cancellable_sleep(ms: u64) {
    let ctx = RunContext::current();
    let token = &ctx.cancel;
    let mut remaining = Duration::from_millis(ms);
    const SLICE: Duration = Duration::from_millis(50);
    while !remaining.is_zero() {
        token.check();
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
    token.check();
}

/// Apply the plan's `job:` directives for job `index` of batch `label`.
///
/// # Panics
///
/// Deliberately, on `job:panic@`; the engine's catch_unwind turns it
/// into a per-job failure. A `job:cancel@` match cancels the run
/// context's token and unwinds through the normal cancellation poll.
pub(crate) fn on_dispatch(label: &str, index: usize) {
    let Some(plan) = active(JOB) else {
        return;
    };
    let hits = plan
        .jobs
        .iter()
        .filter(|j| j.label == label && j.index.is_none_or(|i| i == index));
    for job in hits {
        match job.action {
            JobAction::Cancel => RunContext::current()
                .cancel
                .cancel(CancelReason::Interrupted),
            JobAction::Slow(ms) => cancellable_sleep(ms),
            JobAction::Panic => panic!("injected fault at {label}:{index} ({FAULT_ENV})"),
        }
    }
}

/// Serializes the crate's tests that install the process-wide plan.
#[cfg(test)]
pub(crate) static TEST_PLAN_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    #[test]
    fn grammar_table() {
        for good in [
            "io:enospc",
            "io:enospc:3",
            "io:eintr",
            "io:shortwrite",
            "io:fsyncfail",
            "io:fsyncfail:1",
            "io:tornrename",
            "io:tornrename:2",
            "io:crash@7",
            "net:acceptfail",
            "net:acceptfail:3",
            "net:tornframe@17",
            "net:stallwrite",
            "net:stallwrite:5",
            "net:disconnect@2",
            "net:crash@9",
            "job:panic@table8:3",
            "job:panic@fig3/SPEC92:*",
            "job:slow@table7:1:1200",
            "job:cancel@table7:*",
            "count:/tmp/points",
        ] {
            FaultPlan::parse(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
        let combo =
            FaultPlan::parse(" io:enospc:3 , net:acceptfail, io:crash@4,net:crash@9").unwrap();
        assert_eq!(combo.io.enospc, Select::Nth(3));
        assert_eq!(combo.net.acceptfail, Select::All);
        assert_eq!(combo.crash_at, [Some(4), Some(9)], "crash@K per domain");
        assert_eq!(combo.mask(), IO | NET);
        assert_eq!(
            FaultPlan::parse("net:stallwrite").unwrap().net.stall_ms,
            Some(DEFAULT_STALL_MS)
        );
        assert_eq!(FaultPlan::parse("count:/p").unwrap().mask(), IO | NET);

        for bad in [
            "",
            "io:enospc:0",
            "net:crash@",
            "job:slow@t:1:x",
            "disk:enospc",
            "enospc",
            "io:enospcc",
            "io:enospc:",
            "io:crash@0",
            "net:tornframe@x",
            "net:stallwrite:x",
            "net:disconnect@0",
            "job:panic@table8",
            "job:panic@:3",
            "job:cancel@table8:x",
            "job:slow@table8:3",
            "count:",
            "io:eintr;io:shortwrite",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(e.contains(FAULT_ENV), "{bad:?} -> {e}");
        }

        for (name, spec, spelling) in [
            ("MEMBW_IO_FAULT", "enospc", "MEMBW_FAULT=io:enospc"),
            (
                "MEMBW_NET_FAULT",
                "disconnect@1",
                "MEMBW_FAULT=net:disconnect@1",
            ),
            (
                "MEMBW_FAULT_INJECT",
                "table8:*",
                "MEMBW_FAULT=job:panic@table8:*",
            ),
            (
                "MEMBW_FAULT_SLOW",
                "table7:1:500",
                "MEMBW_FAULT=job:slow@table7:1:500",
            ),
            (
                "MEMBW_FAULT_CANCEL",
                "table7:1",
                "MEMBW_FAULT=job:cancel@table7:1",
            ),
            (
                "MEMBW_SERVE_FAULT",
                "enospc",
                "the soak adversaries are fixed",
            ),
        ] {
            let (_, prefix) = RETIRED.iter().find(|r| r.0 == name).expect("retired");
            let e = retired(name, spec, *prefix);
            assert!(e.contains(name) && e.contains(spelling), "{e}");
        }
    }

    #[test]
    fn count_file_reads_back_per_domain() {
        let path = std::env::temp_dir().join(format!("membw_fault_count_{}", std::process::id()));
        std::fs::write(&path, "io 37\nnet 5\n").unwrap();
        assert_eq!(read_count(&path, Domain::Io), Some(37));
        assert_eq!(read_count(&path, Domain::Net), Some(5));
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_count(&path, Domain::Io), None);
    }

    #[test]
    fn spaced_job_directives_all_fire() {
        let _guard = TEST_PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = "job:slow@fig3/SPEC92:*:1, job:slow@table7:0:60, job:panic@table8:2";
        set_plan(Some(FaultPlan::parse(plan).unwrap()));
        let t0 = Instant::now();
        on_dispatch("table7", 0);
        let slept = t0.elapsed();
        let panicked = catch_unwind(|| on_dispatch("table8", 2)).is_err();
        let spared = catch_unwind(|| on_dispatch("table8", 3)).is_ok();
        set_plan(None);
        assert!(
            slept >= Duration::from_millis(60),
            "second entry fired: {slept:?}"
        );
        assert!(panicked, "third entry fired");
        assert!(spared, "other jobs are spared");
    }

    #[test]
    fn cancellable_sleep_aborts_early_when_cancelled() {
        let token = crate::CancelToken::new();
        token.cancel(CancelReason::Interrupted);
        let t0 = Instant::now();
        let unwound = RunContext {
            cancel: token,
            ..RunContext::clone(&RunContext::current())
        }
        .scope(|| catch_unwind(AssertUnwindSafe(|| cancellable_sleep(10_000))).is_err());
        assert!(unwound, "a cancelled sleep must unwind");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "must not serve the full injected delay"
        );
    }
}
