//! The untraced run: a workload's end-to-end metrics, measured on the
//! real `repro` binary from outside.
//!
//! A run repeats one cycle until its seconds are up, so every metric's
//! samples are spread over the whole run and a few seconds of host
//! contention cannot land on one metric alone. CLI workloads spawn one
//! `repro` process per answer; `serve-mixed` queries `repro serve`
//! daemons it sets up first.

use crate::gate;
use crate::proc::{self, Daemon, Finished, TempRoot};
use crate::spec::{self, Workload, JOBS_N, SCALE};
use crate::stats::{self, Rng};
use membw_core::service::ServiceRequest;
use membw_serve::{client, Endpoint};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Daemon set-ups per serve run; `setup_s` is their median.
const SETUPS: usize = 3;
/// CLI start-up answers per cycle; `setup_s` is their median. They take
/// a millisecond or two each, so many fit.
const STARTUPS: usize = 10;
/// The cheapest target: a `repro` process rendering it is mostly start-up.
const STARTUP_TARGET: &str = "extrapolate";
/// Fewest cycles per run.
const MIN_CYCLES: usize = 2;
/// Seconds of serve store hits per second of the cycle's miss sets.
const HITS_PER_COLD: f64 = 0.1;
/// The serve hit mix: table7/8/9 share 0.6, fig3 0.35, fig4 0.05.
const HIT_MIX: [(&str, f64); 5] = [
    ("table7", 0.2),
    ("table8", 0.2),
    ("table9", 0.2),
    ("fig3", 0.35),
    ("fig4", 0.05),
];
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Where and how long to run.
pub struct Env {
    pub repro: PathBuf,
    pub root: TempRoot,
    pub seconds: f64,
    pub quick: bool,
}

/// Ops attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one op; `true` if it succeeded.
    pub fn op(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 10 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }
}

/// Raw samples of one run.
#[derive(Debug, Default)]
pub struct Samples {
    pub wall_j1: Vec<f64>,
    pub wall_jn: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub setup: Vec<f64>,
    /// Extra numbers for the table and `results.json`, not bounded.
    pub notes: Vec<(String, f64)>,
    /// Extra lines for the table (a percentile that is not reported says
    /// why here).
    pub remarks: Vec<String>,
}

fn kib_to_mb(kib: u64) -> f64 {
    kib as f64 * 1024.0 / 1e6
}

/// The measured phase: cycles, each with a seeded jobs-1/jobs-N pair of
/// cold answers, until the run's seconds are up.
struct Cycles {
    t0: Instant,
    c0: Instant,
    n: usize,
    seconds: f64,
    quick: bool,
}

impl Cycles {
    fn new(env: &Env) -> Self {
        let now = Instant::now();
        Cycles {
            t0: now,
            c0: now,
            n: 0,
            seconds: env.seconds,
            quick: env.quick,
        }
    }

    /// The jobs settings of the next cycle's cold answers, or `None` once
    /// another cycle would overrun the run (after at least `MIN_CYCLES`;
    /// `--quick` runs one cycle, jobs N first).
    fn next(&mut self, rng: &mut Rng) -> Option<[usize; 2]> {
        if self.n > 0 {
            let last = self.c0.elapsed().as_secs_f64();
            let elapsed = self.t0.elapsed().as_secs_f64();
            if self.quick || (self.n >= MIN_CYCLES && elapsed + last > self.seconds) {
                return None;
            }
        }
        self.n += 1;
        self.c0 = Instant::now();
        Some(if self.quick {
            [JOBS_N, 1]
        } else {
            rng.jobs_pair(JOBS_N)
        })
    }

    /// How long this cycle's store hits run (`--quick`: one per client).
    fn hit_secs(&self) -> f64 {
        if self.quick {
            return 0.0;
        }
        self.c0.elapsed().as_secs_f64() * HITS_PER_COLD
    }
}

// ---------------------------------------------------------------- CLI

fn cli_args(targets: &[&str], jobs: usize) -> Vec<String> {
    let mut a: Vec<String> = ["--scale", SCALE, "--jobs", &jobs.to_string()]
        .map(String::from)
        .to_vec();
    a.extend(["--checkpoint-dir", "ck"].map(String::from));
    a.extend(targets.iter().map(|t| t.to_string()));
    a
}

/// One cold `repro` process over `targets` in a fresh directory, checked
/// against the output gate.
pub(crate) fn cli_op(env: &Env, targets: &[&str], jobs: usize) -> Result<Finished, String> {
    let what = format!("repro --jobs {jobs} {}", targets.join(" "));
    let dir = env
        .root
        .fresh("cli")
        .map_err(|e| format!("{what}: temp dir: {e}"))?;
    let mut cmd = proc::command(&env.repro, &dir);
    cmd.args(cli_args(targets, jobs));
    let log = dir.join("stderr.log");
    let f = proc::run(cmd, &log).map_err(|e| format!("{what}: spawn: {e}"));
    let checked = f.and_then(|f| {
        if f.exit.code != Some(0) {
            return Err(format!(
                "{what}: exit {:?}: {}",
                f.exit.code,
                proc::log_tail(&log)
            ));
        }
        let leaves = spec::expand(targets);
        gate::check_cli(&leaves, &f.stdout).map_err(|e| format!("{what}: {e}"))?;
        Ok(f)
    });
    let _ = std::fs::remove_dir_all(&dir);
    checked
}

pub fn run_cli(env: &Env, w: &Workload, rng: &mut Rng, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    let mut cycles = Cycles::new(env);
    while let Some(order) = cycles.next(rng) {
        // Set-up: processes that render only the cheapest target, i.e.
        // what every invocation pays before its first real job.
        for _ in 0..if env.quick { 1 } else { STARTUPS } {
            if let Ok(f) = cli_op(env, &[STARTUP_TARGET], JOBS_N).map_err(|e| tally.op(Err(e))) {
                tally.op(Ok(()));
                s.setup.push(f.wall.as_secs_f64());
            }
        }
        for jobs in order {
            let Ok(f) = cli_op(env, w.targets, jobs).map_err(|e| tally.op(Err(e))) else {
                continue;
            };
            tally.op(Ok(()));
            let wall = f.wall.as_secs_f64();
            if jobs == 1 {
                s.wall_j1.push(wall);
            } else {
                s.wall_jn.push(wall);
                s.rss_mb.push(kib_to_mb(f.exit.maxrss_kb.max(0) as u64));
            }
        }
    }
    s
}

// -------------------------------------------------------------- serve

/// A daemon with its private directory (socket, store, checkpoints).
pub(crate) struct Served {
    pub(crate) daemon: Daemon,
    pub(crate) dir: PathBuf,
    pub(crate) ep: Endpoint,
    pub(crate) jobs: usize,
}

pub(crate) fn start(env: &Env, jobs: usize) -> Result<Served, String> {
    let dir = env
        .root
        .fresh("serve")
        .map_err(|e| format!("temp dir: {e}"))?;
    let mut cmd = proc::command(&env.repro, &dir);
    cmd.args(["serve", "--socket", "s.sock", "--store", "store"]);
    cmd.args(["--checkpoint-dir", "ck", "--jobs", &jobs.to_string()]);
    let log = dir.join("stderr.log");
    let mut daemon = Daemon::spawn(cmd, &log).map_err(|e| format!("spawn serve: {e}"))?;
    let ep = Endpoint::Unix(dir.join("s.sock"));
    let t0 = Instant::now();
    while ep.connect().is_err() {
        if daemon.exited().is_some() || t0.elapsed() > Duration::from_secs(30) {
            return Err(format!(
                "serve --jobs {jobs} never listened: {}",
                proc::log_tail(&log)
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Served {
        daemon,
        dir,
        ep,
        jobs,
    })
}

/// One query, checked against the gate; its round trip in ms.
fn ask(ep: &Endpoint, target: &str) -> Result<f64, String> {
    let mut req = ServiceRequest::new(target);
    req.scale = SCALE.to_string();
    let t0 = Instant::now();
    let resp = client::query(ep, &req, Some(REPLY_TIMEOUT))
        .map_err(|e| format!("{target}: transport: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    gate::check_reply(target, &resp)?;
    Ok(ms)
}

/// Send `targets` one after another; the wall time if all succeeded.
fn answer_set(sv: &Served, targets: &[&str], tally: &mut Tally) -> Option<f64> {
    let t0 = Instant::now();
    let mut ok = true;
    for t in targets {
        let r = ask(&sv.ep, t).map(|_| ());
        ok &= tally.op(r.map_err(|e| format!("serve --jobs {}: {e}", sv.jobs)));
    }
    ok.then(|| t0.elapsed().as_secs_f64())
}

/// Delete the files in the store and checkpoint trees, keeping every
/// directory: the daemon keeps using them (and always resumes from
/// checkpoints, so stale files would turn a miss into a replay).
fn wipe_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            wipe_files(&p);
        } else {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Store hits in the seeded mix from two closed-loop clients, each
/// blocking on its reply, until `secs` have passed (at least one each).
/// Appends `(mix index, ms)` per hit and returns the seconds spent.
fn hits(
    ep: &Endpoint,
    secs: f64,
    rngs: &mut [Rng; 2],
    out: &mut Vec<(usize, f64)>,
    tally: &mut Tally,
) -> f64 {
    let weights: Vec<f64> = HIT_MIX.iter().map(|(_, p)| *p).collect();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let per_client: Vec<(Vec<(usize, f64)>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .map(|rng| {
                let weights = &weights;
                scope.spawn(move || {
                    let (mut lat, mut tally) = (Vec::new(), Tally::default());
                    loop {
                        let k = rng.weighted(weights);
                        if let Ok(ms) = ask(ep, HIT_MIX[k].0).map_err(|e| tally.op(Err(e))) {
                            tally.op(Ok(()));
                            lat.push((k, ms));
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (lat, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hit client thread"))
            .collect()
    });
    for (lat, t) in per_client {
        out.extend(lat);
        tally.merge(t);
    }
    t0.elapsed().as_secs_f64()
}

/// The hit phase's numbers: every median and percentile with its count.
fn hit_notes(s: &mut Samples, hit: &[(usize, f64)], secs: f64) {
    let all: Vec<f64> = hit.iter().map(|h| h.1).collect();
    s.notes.push(("hit_n".into(), all.len() as f64));
    s.notes.push((
        "hit_rps".into(),
        all.len() as f64 / secs.max(f64::MIN_POSITIVE),
    ));
    if !all.is_empty() {
        s.notes.push(("hit_p50_ms".into(), stats::median(&all)));
    }
    match stats::percentile(&all, 90.0) {
        Ok(p) => s.notes.push(("hit_p90_ms".into(), p)),
        Err(why) => s.remarks.push(format!("hit_p90_ms: {why}")),
    }
    for (k, (target, _)) in HIT_MIX.iter().enumerate() {
        let v: Vec<f64> = hit.iter().filter(|h| h.0 == k).map(|h| h.1).collect();
        if !v.is_empty() {
            s.notes.push((format!("hit_n.{target}"), v.len() as f64));
            s.notes
                .push((format!("hit_p50_ms.{target}"), stats::median(&v)));
        }
    }
}

pub fn run_serve(env: &Env, w: &Workload, rng: &mut Rng, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    let leaves = spec::expand(w.targets);

    // Set-up: spawn a jobs-N daemon and answer the cold set. Each
    // daemon's peak RSS is read in that same state; the last daemon
    // stays up for the measured phases. The cold set keeps the
    // workload's order: the peak depends on which traces are resident
    // when each target renders, so a seeded order would make it vary.
    let mut served: Option<Served> = None;
    for _ in 0..if env.quick { 1 } else { SETUPS } {
        // Dropping the previous daemon SIGTERMs and reaps it.
        served = None;
        let t0 = Instant::now();
        match start(env, JOBS_N) {
            Ok(sv) => {
                if answer_set(&sv, &leaves, tally).is_some() {
                    s.setup.push(t0.elapsed().as_secs_f64());
                }
                if let Some(kb) = sv.daemon.vm_hwm_kb() {
                    s.rss_mb.push(kib_to_mb(kb));
                }
                served = Some(sv);
            }
            Err(e) => {
                tally.op(Err(e));
            }
        }
    }
    let Some(jn) = served else {
        return s;
    };
    // The jobs-1 daemon needs its trace arenas resident too; its cold
    // set is warm-up, reported in results.json only.
    let t1 = Instant::now();
    let j1 = match start(env, 1) {
        Ok(sv) => {
            answer_set(&sv, &leaves, tally);
            s.notes
                .push(("j1_warmup_s".into(), t1.elapsed().as_secs_f64()));
            Some(sv)
        }
        Err(e) => {
            tally.op(Err(e));
            None
        }
    };

    // Each cycle: a miss set — the files in the store and checkpoint
    // dirs deleted, the five targets asked again in a seeded order — on
    // the jobs-N and on the jobs-1 daemon, then store hits on the jobs-N
    // daemon.
    let mut rngs = [rng.fork(1), rng.fork(2)];
    let (mut hit, mut hit_secs) = (Vec::new(), 0.0);
    let mut cycles = Cycles::new(env);
    while let Some(order) = cycles.next(rng) {
        for jobs in order {
            let Some(sv) = (if jobs == 1 { j1.as_ref() } else { Some(&jn) }) else {
                continue;
            };
            wipe_files(&sv.dir.join("store"));
            wipe_files(&sv.dir.join("ck"));
            let targets = rng.shuffled(&leaves);
            if let Some(wall) = answer_set(sv, &targets, tally) {
                if jobs == 1 {
                    s.wall_j1.push(wall);
                } else {
                    s.wall_jn.push(wall);
                }
            }
        }
        hit_secs += hits(&jn.ep, cycles.hit_secs(), &mut rngs, &mut hit, tally);
    }
    hit_notes(&mut s, &hit, hit_secs);
    // Dropping `jn` and `j1` SIGTERMs and reaps both daemons.
    s
}
