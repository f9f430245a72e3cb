//! `repro`: regenerate every table and figure of Burger, Goodman & Kägi
//! (ISCA 1996).
//!
//! ```text
//! repro [--scale test|small|full] [--jobs N] [--json DIR]
//!       [--retries N] [--job-timeout SECS] [--deadline SECS]
//!       [--mem-budget MB] [--resume | --no-resume]
//!       [--checkpoint-dir DIR] [--audit off|warn|strict]
//!       [--sweep stack|direct] <target>...
//!
//! repro serve [--socket PATH | --listen tcp:PORT] [--max-inflight N]
//!             [--queue N] [--store DIR] [--checkpoint-dir DIR]
//!             [--jobs N] [--mem-budget MB] [--read-timeout-ms N]
//!
//! repro query [--socket PATH|tcp:HOST:PORT] [--scale S] [--sweep M]
//!             [--audit L] [--deadline-ms N] [--priority P] <target>...
//! ```
//!
//! The targets are the names in `membw_core::targets::TARGETS` plus
//! `all`; `repro --help` prints that list.
//!
//! `repro serve` keeps a resident daemon answering the same questions
//! over newline-delimited JSON (see `membw_core::service`), with
//! request coalescing, a crash-safe result store, backpressure, and a
//! SIGTERM drain; `repro query` is its line client. A query's stdout is
//! byte-identical to the CLI run of the same `(target, scale, sweep)`
//! because both sides print `membw_core::targets::render_target`.
//!
//! `--sweep` selects how the traffic suites (`fig4`, `table7`,
//! `table8`, `table9`) cover their capacity axes: `stack` (default)
//! runs the one-pass multi-configuration sweep engine, `direct` runs
//! one independent simulation per configuration. Output is
//! byte-identical between the modes; `direct` is the cross-check
//! oracle (`SweepMode` in `crates/sweep`, the one place an engine is
//! chosen), and the `MEMBW_SWEEP_VERIFY=1` environment variable makes
//! a `stack` run recheck every job in direct mode through the one
//! cross-check helper, `membw_core::error::sweep_jobs`, and report any
//! divergence through the auditor.
//!
//! `--analytic` (and `repro serve --analytic`, `repro query
//! --analytic-rel`) are retired: they exit 2 with the reason, the way
//! the retired fault variables do.
//!
//! `--jobs N` (or the `MEMBW_JOBS` environment variable) sets the run
//! engine's thread count. Experiment output on stdout is byte-identical
//! at every setting; wall-clock and throughput accounting goes to
//! stderr after the targets finish.
//!
//! The campaign is fault-tolerant: a job that panics or exceeds
//! `--job-timeout` fails alone (after `--retries` extra attempts), its
//! target is skipped, every other target still runs, a failure summary
//! lands on stderr, and the exit status is nonzero. Completed jobs are
//! checkpointed under `--checkpoint-dir` (default
//! `results/.checkpoint`); rerun with `--resume` to pick up an
//! interrupted campaign without recomputing finished jobs.
//!
//! The campaign is also interruptible: SIGINT/SIGTERM request a drain
//! (in-flight jobs cancel cooperatively, completed work flushes through
//! the durable checkpoint path, exit code 130; a second signal
//! force-exits), `--deadline SECS` bounds the whole invocation's wall
//! clock the same way (exit code 124), and `--mem-budget MB` (or
//! `MEMBW_MEM_BUDGET_MB`) keeps the invocation inside a memory budget
//! by serializing job admission instead of OOMing. All three preserve
//! stdout byte-identity: a cancelled run resumed with `--resume`, or a
//! budgeted run, prints exactly what an undisturbed run prints.

use membw_core::audit;
use membw_core::report::{self, TargetTiming};
use membw_core::runner;
use membw_core::runner::counters::{self, Counter};
use membw_core::runner::persist;
use membw_core::runner::{CheckpointConfig, Governor, RunContext};
use membw_core::service::{store_hit_permille, ServiceRequest, ServiceResponse};
use membw_core::sweep::SweepMode;
use membw_core::targets::{self, parse_scale, validate_target, ALL_TARGETS, TARGETS};
use membw_core::workloads::Scale;
use membw_core::MembwError;
use membw_serve::{client, serve, Endpoint, ResultStore, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    scale: Scale,
    json_dir: Option<PathBuf>,
    targets: Vec<String>,
    resume: bool,
    checkpoint_dir: PathBuf,
    deadline: Option<Duration>,
    sweep: SweepMode,
}

/// Why the analytic lane's flags are refused.
const ANALYTIC_RETIRED: &str = "the analytic fast lane is retired: its fig3 bounds \
     (900-990 permille) never fit a client's tolerance and its predictions disagreed \
     with simulation; drop the flag to get the simulated answer";

/// The retired trace-cache budget variable, and why it is refused.
const TRACE_CACHE_MB_ENV: &str = "MEMBW_TRACE_CACHE_MB";
const TRACE_CACHE_RETIRED: &str = "the trace cache is retired: regenerating a \
     benchmark's stream costs no more time than replaying a recording, and the \
     recordings kept about 5 MB resident for the whole run; unset the variable";

/// Reject malformed environment configuration up front, before any
/// target runs or the daemon binds: the lazy readers would otherwise
/// only warn and fall back, or silently read a bad value as off.
/// `repro` and `repro serve` both call this, so their checks cannot
/// drift apart. Returns the `MEMBW_MEM_BUDGET_MB` budget, if set.
fn validate_env() -> Result<Option<u64>, String> {
    if let Ok(v) = std::env::var(TRACE_CACHE_MB_ENV) {
        return Err(format!("{TRACE_CACHE_MB_ENV}={v:?}: {TRACE_CACHE_RETIRED}"));
    }
    if let Ok(v) = std::env::var(runner::JOBS_ENV) {
        runner::parse_jobs(&v)?;
    }
    if let Ok(v) = std::env::var(membw_core::sweep::SWEEP_VERIFY_ENV) {
        membw_core::sweep::parse_verify(&v)?;
    }
    runner::validate_fault_env()?;
    std::env::var(runner::MEM_BUDGET_MB_ENV)
        .ok()
        .map(|v| runner::parse_mem_budget_mb(&v))
        .transpose()
}

/// The `--jobs` value: [`runner::parse_jobs`], naming the flag.
fn parse_jobs_flag(v: Option<&str>) -> Result<usize, String> {
    let v = v.ok_or("--jobs needs a count")?;
    runner::parse_jobs(v).map_err(|e| e.replace(runner::JOBS_ENV, "--jobs"))
}

/// Install a memory governor budgeted at `mb` MiB in the process-wide
/// run context.
fn install_mem_budget(mb: u64) {
    RunContext::configure(|c| c.governor = Arc::new(Governor::with_budget_mb(mb)));
}

/// The value of `flag` as a positive number of seconds that a
/// `Duration` can hold.
fn parse_seconds(flag: &str, v: Option<String>) -> Result<Duration, String> {
    let v = v.ok_or_else(|| format!("{flag} needs seconds"))?;
    let secs: f64 = v
        .parse()
        .map_err(|_| format!("{flag} needs seconds, got '{v}'"))?;
    if secs.is_nan() || secs <= 0.0 {
        return Err(format!("{flag} needs a positive number of seconds"));
    }
    Duration::try_from_secs_f64(secs)
        .map_err(|_| format!("{flag} needs a number of seconds a duration can hold, got '{v}'"))
}

fn parse_args() -> Result<Options, String> {
    let mut scale = Scale::Small;
    let mut json_dir = None;
    let mut targets = Vec::new();
    let mut resume = false;
    let mut checkpoint_dir = PathBuf::from("results/.checkpoint");
    let mut deadline = None;
    let mut mem_budget_mb: Option<u64> = None;
    let mut sweep = SweepMode::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = parse_scale(&v)?;
            }
            "--jobs" => runner::set_jobs(parse_jobs_flag(args.next().as_deref())?),
            "--json" => {
                let v = args.next().ok_or("--json needs a directory")?;
                json_dir = Some(PathBuf::from(v));
            }
            "--retries" => {
                let v = args.next().ok_or("--retries needs a count")?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("--retries needs a non-negative integer, got '{v}'"))?;
                RunContext::configure(|c| c.retries = n);
            }
            "--job-timeout" => {
                let d = parse_seconds("--job-timeout", args.next())?;
                RunContext::configure(|c| c.job_timeout = Some(d));
            }
            "--deadline" => deadline = Some(parse_seconds("--deadline", args.next())?),
            "--mem-budget" => {
                let v = args.next().ok_or("--mem-budget needs whole MiB")?;
                let mb = runner::parse_mem_budget_mb(&v)
                    .map_err(|e| e.replace(runner::MEM_BUDGET_MB_ENV, "--mem-budget"))?;
                mem_budget_mb = Some(mb);
            }
            "--audit" => {
                let v = args
                    .next()
                    .ok_or("--audit needs a level (off|warn|strict)")?;
                let level: audit::AuditLevel = v.parse()?;
                audit::set_level(level);
            }
            "--sweep" => {
                let v = args.next().ok_or("--sweep needs a mode (stack|direct)")?;
                sweep = SweepMode::parse(&v)?;
            }
            "--analytic" => return Err(format!("--analytic: {ANALYTIC_RETIRED}")),
            "--resume" => resume = true,
            "--no-resume" => resume = false,
            "--checkpoint-dir" => {
                let v = args.next().ok_or("--checkpoint-dir needs a directory")?;
                checkpoint_dir = PathBuf::from(v);
            }
            "--help" | "-h" => {
                println!("usage: repro [--scale test|small|full] [--jobs N] [--json DIR]");
                println!("             [--retries N] [--job-timeout SECS] [--deadline SECS]");
                println!("             [--mem-budget MB] [--resume|--no-resume]");
                println!("             [--checkpoint-dir DIR] [--audit off|warn|strict]");
                println!("             [--sweep stack|direct] <target>...");
                println!("       repro serve [--socket PATH|--listen tcp:PORT] ... (see repro serve --help)");
                println!("       repro query [--socket PATH] <target>...         (see repro query --help)");
                println!("targets: {} all", TARGETS.join(" "));
                println!("--jobs N (default: MEMBW_JOBS or all cores) sets run-engine threads;");
                println!("stdout is byte-identical at every setting.");
                println!("--retries N retries a panicked job N more times (default 0;");
                println!("timed-out and cancelled jobs are never retried);");
                println!("--job-timeout SECS marks jobs failed past a per-job deadline;");
                println!("--deadline SECS drains the whole invocation at a wall-clock bound");
                println!("(finished work stays checkpointed; exit code 124);");
                println!(
                    "--mem-budget MB (or {}) bounds memory by degrading",
                    runner::MEM_BUDGET_MB_ENV
                );
                println!("(throttled, one-at-a-time job admission; 0 = strictest);");
                println!("--resume replays completed jobs archived under --checkpoint-dir");
                println!("(default results/.checkpoint) by a previous, possibly interrupted run.");
                println!("--audit LEVEL checks the paper's invariants on every target:");
                println!("off skips them, warn (default) reports violations on stderr,");
                println!("strict fails the target; a summary lands on stderr either way.");
                println!("--sweep MODE picks the traffic suites' capacity-axis engine:");
                println!("stack (default) = one-pass multi-configuration sweep engine,");
                println!("direct = one simulation per configuration (the one oracle,");
                println!("SweepMode in crates/sweep); output is byte-identical either way.");
                println!(
                    "{}=1 makes a stack run recheck every job in direct mode",
                    membw_core::sweep::SWEEP_VERIFY_ENV
                );
                println!("through the one cross-check helper, membw_core::error::sweep_jobs:");
                println!("one bit-exact sweep-exact audit check per job.");
                println!("{TRACE_CACHE_MB_ENV} is retired (traces are regenerated, never cached).");
                println!("SIGINT/SIGTERM request a graceful drain (second signal force-exits).");
                println!("exit codes: 0 ok, 1 target/job failures, 2 usage error,");
                println!("            124 deadline exceeded, 130 interrupted,");
                println!(
                    "            134 aborted at an injected {}=io:crash@K point.",
                    runner::fault::FAULT_ENV
                );
                std::process::exit(0);
            }
            t if !t.starts_with('-') => targets.push(t.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // The flag wins over the environment when both are present.
    let env_mb = validate_env()?;
    let mem_budget_mb = mem_budget_mb.or(env_mb);
    if let Some(mb) = mem_budget_mb {
        install_mem_budget(mb);
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    for t in &targets {
        validate_target(t)?;
    }
    Ok(Options {
        scale,
        json_dir,
        targets,
        resume,
        checkpoint_dir,
        deadline,
        sweep,
    })
}

/// Run one leaf target, recording one [`TargetTiming`] on success.
fn run_target(
    opts: &Options,
    target: &str,
    timings: &mut Vec<TargetTiming>,
) -> Result<(), MembwError> {
    let wall_start = Instant::now();
    let metrics_before = runner::metrics();
    let uops_before = counters::get(Counter::Uops);
    run_leaf(opts, target)?;
    let delta = runner::metrics_delta(metrics_before, runner::metrics());
    timings.push(TargetTiming {
        target: target.to_string(),
        wall: wall_start.elapsed(),
        jobs: delta.jobs,
        busy: delta.busy(),
        uops: counters::get(Counter::Uops) - uops_before,
    });
    Ok(())
}

fn run_leaf(opts: &Options, target: &str) -> Result<(), MembwError> {
    if target == "dump" {
        // Dump every benchmark's reference stream as .mwtr files — the
        // one target with filesystem side effects instead of a
        // rendering, so it stays out of the shared renderer.
        let dir = opts
            .json_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("traces"));
        runner::faultio::create_dir_all(&dir)
            .map_err(|e| MembwError::io("create trace directory", dir.clone(), e))?;
        use membw_core::trace::io::save_workload;
        use membw_core::workloads::{suite92, suite95};
        for b in suite92(opts.scale).iter().chain(suite95(opts.scale).iter()) {
            let path = dir.join(format!("{}.mwtr", b.name()));
            let n = save_workload(b.workload(), &path).map_err(|e| MembwError::Trace {
                path: path.clone(),
                source: e,
            })?;
            println!("wrote {} ({n} refs)", path.display());
        }
        return Ok(());
    }
    let rendered = targets::render_target(target, opts.scale, opts.sweep)?;
    print!("{}", rendered.stdout);
    if let Some(dir) = &opts.json_dir {
        runner::faultio::create_dir_all(dir)
            .map_err(|e| MembwError::io("create JSON directory", dir.clone(), e))?;
        for a in &rendered.artifacts {
            let path = dir.join(format!("{}.json", a.name));
            // Archives go through the same tmp→fsync→rename path as
            // checkpoints: a crash mid-write can leave a stray .tmp,
            // never a torn .json that parses as a truncated result.
            persist::write_atomic(&path, a.json.as_bytes())
                .map_err(|(step, p, e)| MembwError::io(step, p, e))?;
            eprintln!("  [wrote {}]", path.display());
        }
    }
    Ok(())
}

fn serve_usage() {
    println!("usage: repro serve [--socket PATH | --listen tcp:PORT|tcp:HOST:PORT]");
    println!("                   [--max-inflight N] [--queue N] [--conn-limit N]");
    println!("                   [--store DIR] [--checkpoint-dir DIR]");
    println!("                   [--jobs N] [--mem-budget MB] [--read-timeout-ms N]");
    println!("                   [--supervise]");
    println!("Resident daemon speaking newline-delimited JSON requests");
    println!("  {{\"target\":\"table7\",\"scale\":\"small\",\"sweep\":\"stack\",");
    println!("    \"audit\":\"warn\",\"deadline_ms\":0,\"priority\":0}}");
    println!("over a Unix socket (default results/membw.sock) or TCP.");
    println!("--max-inflight N requests render concurrently (default 2; each still");
    println!("parallelizes its own job matrix under --jobs); --queue N more wait");
    println!("FIFO-within-priority before clients get a busy response.");
    println!("Completed renders persist (checksummed, tmp+fsync+rename) under");
    println!("--store (default results/.serve-store): a killed-and-restarted");
    println!("daemon answers warm requests from the store without recomputing.");
    println!("SIGTERM drains gracefully: in-flight work checkpoints under");
    println!("--checkpoint-dir, new clients get a draining response, exit 0.");
    println!("Query target 'stats' for the daemon's counters.");
    println!("--supervise runs the daemon under a restarting parent: a crashed");
    println!("daemon (SIGKILL, abort, injected crash@K) is respawned with");
    println!("bounded deterministic backoff (50ms doubling, cap 2s); 5 fast");
    println!("crashes in a row give up loudly with exit 1. Restarted children");
    println!("run with MEMBW_FAULT cleared (injected faults test one");
    println!("generation, not the healed service) and report their");
    println!("generation as the stats counter supervisor_restarts.");
    println!("exit codes: 0 clean drain, 1 fatal/crash-loop give-up, 2 usage,");
    println!("            130 interrupted (SIGTERM/SIGINT),");
    println!("            134 MEMBW_FAULT=net:crash@K or io:crash@K abort.");
}

/// `repro serve --supervise`: spawn and babysit `repro serve` (same
/// argv minus the flag) per the supervision state machine in
/// [`membw_serve::supervisor`].
fn cmd_serve_supervised(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate the repro binary to supervise: {e}");
            return 1;
        }
    };
    let child_args: Vec<String> = argv
        .iter()
        .filter(|a| *a != "--supervise")
        .cloned()
        .collect();
    // The parent validates nothing itself: a config typo makes the
    // child exit 2 and the supervisor propagates it without looping.
    runner::install_signal_drain();
    let cancel = runner::global_cancel_token();
    membw_serve::supervisor::supervise(
        |restarts| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("serve");
            cmd.args(&child_args);
            if restarts > 0 {
                // An injected fault plan tests one daemon generation;
                // the restarted service must come back clean, or a
                // deterministic crash@K would re-fire at the same point
                // every generation and the loop detector would give up
                // on a fault that was, by construction, transient.
                cmd.env_remove(runner::fault::FAULT_ENV);
            }
            cmd
        },
        &membw_serve::SupervisorConfig::default(),
        &cancel,
    )
}

fn cmd_serve(argv: &[String]) -> i32 {
    if argv.iter().any(|a| a == "--supervise") {
        return cmd_serve_supervised(argv);
    }
    let mut endpoint = Endpoint::Unix(PathBuf::from("results/membw.sock"));
    let mut config = ServeConfig::default();
    let mut store_dir = PathBuf::from("results/.serve-store");
    let mut checkpoint_dir = PathBuf::from("results/.checkpoint");
    let mut mem_budget_mb: Option<u64> = None;
    let mut args = argv.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(a) = args.next() {
            match a.as_str() {
                "--socket" => {
                    let v = args.next().ok_or("--socket needs a path")?;
                    endpoint = Endpoint::Unix(PathBuf::from(v));
                }
                "--listen" => {
                    let v = args
                        .next()
                        .ok_or("--listen needs tcp:PORT or tcp:HOST:PORT")?;
                    endpoint = Endpoint::parse(v)?;
                }
                "--max-inflight" => {
                    let v = args.next().ok_or("--max-inflight needs a count")?;
                    config.max_inflight =
                        v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                            format!("--max-inflight needs a positive integer, got '{v}'")
                        })?;
                }
                "--queue" => {
                    let v = args.next().ok_or("--queue needs a count")?;
                    config.queue_bound =
                        v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                            format!("--queue needs a positive integer, got '{v}'")
                        })?;
                }
                "--conn-limit" => {
                    let v = args.next().ok_or("--conn-limit needs a count")?;
                    config.conn_limit =
                        v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                            format!("--conn-limit needs a positive integer, got '{v}'")
                        })?;
                }
                "--read-timeout-ms" => {
                    let v = args.next().ok_or("--read-timeout-ms needs milliseconds")?;
                    let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        format!("--read-timeout-ms needs positive milliseconds, got '{v}'")
                    })?;
                    config.read_timeout = Duration::from_millis(ms);
                }
                "--store" => {
                    let v = args.next().ok_or("--store needs a directory")?;
                    store_dir = PathBuf::from(v);
                }
                "--checkpoint-dir" => {
                    let v = args.next().ok_or("--checkpoint-dir needs a directory")?;
                    checkpoint_dir = PathBuf::from(v);
                }
                "--jobs" => runner::set_jobs(parse_jobs_flag(args.next().map(String::as_str))?),
                "--mem-budget" => {
                    let v = args.next().ok_or("--mem-budget needs whole MiB")?;
                    let mb = runner::parse_mem_budget_mb(v)
                        .map_err(|e| e.replace(runner::MEM_BUDGET_MB_ENV, "--mem-budget"))?;
                    mem_budget_mb = Some(mb);
                }
                "--analytic" => return Err(format!("serve --analytic: {ANALYTIC_RETIRED}")),
                "--help" | "-h" => {
                    serve_usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown serve flag {other}")),
            }
        }
        let env_mb = validate_env()?;
        mem_budget_mb = mem_budget_mb.or(env_mb);
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return 2;
    }
    if let Some(mb) = mem_budget_mb {
        install_mem_budget(mb);
    }
    // SIGINT/SIGTERM request the drain; a second signal force-exits.
    runner::install_signal_drain();
    // Requests always resume from checkpoints: an interrupted render
    // picks up where the drained daemon left off.
    runner::set_checkpoint(Some(CheckpointConfig {
        root: checkpoint_dir,
        resume: true,
    }));
    let store = match ResultStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "error: cannot open result store {}: {e}",
                store_dir.display()
            );
            return 1;
        }
    };
    let listener = match endpoint.listen() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot listen on {}: {e}", endpoint.display());
            return 1;
        }
    };
    // Warn-only: a daemon without a pidfile still serves, but the
    // orphaned-tmp sweeps lose their liveness cross-check for it.
    match membw_serve::net::write_pidfile(&endpoint) {
        Ok(Some(path)) => eprintln!("serve: pid {} at {}", std::process::id(), path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: cannot write pidfile: {e}"),
    }
    eprintln!(
        "serve: listening on {} (max-inflight {}, queue {}, store {})",
        endpoint.display(),
        config.max_inflight,
        config.queue_bound,
        store_dir.display()
    );
    let server = Arc::new(Server::new(config, store));
    let cancel = runner::global_cancel_token();
    let served = match serve(&server, listener, &cancel) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            return 1;
        }
    };
    if let Some(path) = endpoint.socket_path() {
        let _ = runner::faultio::remove_file(path);
    }
    membw_serve::net::remove_pidfile(&endpoint);
    eprintln!("serve: drained cleanly after {served} connection(s)");
    0
}

fn query_usage() {
    println!("usage: repro query [--socket PATH|tcp:HOST:PORT] [--scale test|small|full]");
    println!("                   [--sweep stack|direct] [--audit off|warn|strict]");
    println!("                   [--deadline-ms N] [--priority P] [--retries N]");
    println!("                   <target>...");
    println!("Sends one request per target to a repro serve daemon and prints each");
    println!("ok response's stdout payload (byte-identical to the CLI run);");
    println!("source/job accounting goes to stderr.");
    println!("The pseudo-target 'stats' prints the daemon's counters as name value");
    println!("pairs on one line, then store_hit_permille.");
    println!("--retries N retries retryable outcomes (busy, transient errors,");
    println!("torn replies, connection resets — e.g. a daemon restarting under");
    println!("serve --supervise) up to N times with bounded exponential backoff");
    println!("(50ms doubling, cap 2s); the converged answer is byte-identical");
    println!("to a fault-free run. 0 (default) fails fast on the first error.");
    println!("exit codes: 0 ok, 1 error response or transport failure,");
    println!("            2 usage error, 3 busy, 4 draining.");
}

fn cmd_query(argv: &[String]) -> i32 {
    let mut endpoint_spec = "results/membw.sock".to_string();
    let mut template = ServiceRequest::new("");
    let mut targets_req: Vec<String> = Vec::new();
    let mut retries: u32 = 0;
    let mut args = argv.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(a) = args.next() {
            match a.as_str() {
                "--socket" => {
                    endpoint_spec = args
                        .next()
                        .ok_or("--socket needs a path or tcp: spec")?
                        .clone();
                }
                "--scale" => {
                    template.scale = args.next().ok_or("--scale needs a value")?.clone();
                }
                "--sweep" => {
                    template.sweep = args.next().ok_or("--sweep needs a mode")?.clone();
                }
                "--audit" => {
                    template.audit = args.next().ok_or("--audit needs a level")?.clone();
                }
                "--deadline-ms" => {
                    let v = args.next().ok_or("--deadline-ms needs milliseconds")?;
                    template.deadline_ms = v
                        .parse::<u64>()
                        .map_err(|_| format!("--deadline-ms needs milliseconds, got '{v}'"))?;
                }
                "--priority" => {
                    let v = args.next().ok_or("--priority needs 0-255")?;
                    template.priority = v
                        .parse::<u8>()
                        .map_err(|_| format!("--priority needs 0-255, got '{v}'"))?;
                }
                "--analytic-rel" => {
                    return Err(format!("query --analytic-rel: {ANALYTIC_RETIRED}"))
                }
                "--retries" => {
                    let v = args.next().ok_or("--retries needs a count")?;
                    retries = v
                        .parse::<u32>()
                        .map_err(|_| format!("--retries needs a count, got '{v}'"))?;
                }
                "--help" | "-h" => {
                    query_usage();
                    std::process::exit(0);
                }
                t if !t.starts_with('-') => targets_req.push(t.to_string()),
                other => return Err(format!("unknown query flag {other}")),
            }
        }
        if targets_req.is_empty() {
            return Err("query needs at least one target".to_string());
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return 2;
    }
    let endpoint = match Endpoint::parse(&endpoint_spec) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    for target in &targets_req {
        let mut req = template.clone();
        req.target = target.clone();
        let resp = if retries == 0 {
            match client::query(&endpoint, &req, None) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "error: query '{target}' against {}: {e}",
                        endpoint.display()
                    );
                    return 1;
                }
            }
        } else {
            let policy = client::Backoff {
                attempts: retries.saturating_add(1),
                ..client::Backoff::default()
            };
            match client::query_with_backoff(&endpoint, &req, None, &policy) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!(
                        "error: query '{target}' against {}: {e}",
                        endpoint.display()
                    );
                    return 1;
                }
            }
        };
        match resp {
            ServiceResponse::Ok {
                source,
                fnv64,
                jobs,
                resumed,
                stdout,
                ..
            } => {
                let actual = format!("{:016x}", persist::fnv64(&stdout));
                if actual != fnv64 {
                    eprintln!(
                        "error: query '{target}': response checksum mismatch \
                         (claimed {fnv64}, payload hashes to {actual})"
                    );
                    return 1;
                }
                print!("{stdout}");
                eprintln!("query: {target}: source: {source} ({jobs} job(s), {resumed} resumed)");
            }
            ServiceResponse::Stats(stats) => {
                let mut line = String::from("stats:");
                for (name, v) in &stats.0 {
                    line.push_str(&format!(" {name} {v}"));
                }
                println!("{line} store_hit_permille {}", store_hit_permille(&stats));
            }
            ServiceResponse::Busy { queued, bound } => {
                eprintln!("query: {target}: busy ({queued} queued, bound {bound}); retry later");
                return 3;
            }
            ServiceResponse::Draining => {
                eprintln!("query: {target}: daemon is draining; retry after restart");
                return 4;
            }
            ServiceResponse::Error {
                kind,
                message,
                cell,
                retry_after_ms,
            } => {
                match cell {
                    Some(cell) => {
                        eprintln!("error: query '{target}': [{kind}] {message} (cell: {cell})");
                    }
                    None => eprintln!("error: query '{target}': [{kind}] {message}"),
                }
                if let Some(ms) = retry_after_ms {
                    eprintln!("query: {target}: transient; retry after {ms} ms");
                }
                return 1;
            }
        }
    }
    0
}

/// Pin glibc malloc's mmap threshold at its own 128 KiB default.
///
/// glibc raises the threshold whenever an mmapped chunk is freed, up to
/// 32 MiB, after which every allocation below it comes from the brk
/// heap. A finished job's freed buffers there are seldom returned, so
/// the resident set climbs above the live heap. Setting the threshold
/// once turns the rise off: large buffers stay mmapped and go back to
/// the kernel when freed. The CLI, `serve`, `query` and supervised
/// children all start here.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only updates allocator parameters; it is called
    // once, before this process starts any thread, with a parameter and
    // value glibc documents as valid. It returns 0 on failure, which
    // leaves glibc's dynamic threshold in place: nothing to handle.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => std::process::exit(cmd_serve(&argv[1..])),
        Some("query") => std::process::exit(cmd_query(&argv[1..])),
        _ => {}
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // From here on SIGINT/SIGTERM request a drain instead of killing the
    // process; a second signal force-exits with code 130.
    runner::install_signal_drain();
    let cancel = runner::global_cancel_token();
    if let Some(d) = opts.deadline {
        cancel.set_deadline(d);
    }
    runner::set_checkpoint(Some(CheckpointConfig {
        root: opts.checkpoint_dir.clone(),
        resume: opts.resume,
    }));
    let leaves: Vec<&str> = opts
        .targets
        .iter()
        .flat_map(|t| {
            if t == "all" {
                ALL_TARGETS.to_vec()
            } else {
                vec![t.as_str()]
            }
        })
        .collect();
    let mut timings = Vec::new();
    let mut failed_targets: Vec<String> = Vec::new();
    let mut skipped_targets: Vec<String> = Vec::new();
    for t in leaves {
        // Once a drain is requested (signal or deadline) no further
        // target starts; already-finished targets keep their stdout.
        if cancel.is_cancelled() {
            skipped_targets.push(t.to_string());
            continue;
        }
        // A failed target never aborts the campaign: report it on
        // stderr (stdout stays byte-identical for healthy targets) and
        // keep going.
        if let Err(e) = run_target(&opts, t, &mut timings) {
            failed_targets.push(t.to_string());
            eprintln!("error: target '{t}': {e}");
            let jobs = e.failed_jobs();
            if !jobs.is_empty() {
                eprintln!("{}", report::failure_table(t, jobs).render());
            }
        }
    }
    if !timings.is_empty() {
        eprintln!();
        eprintln!(
            "{}",
            report::timing_table(&timings, RunContext::current().jobs).render()
        );
    }
    let audit_targets = counters::get(Counter::AuditTargets);
    if audit_targets > 0 || audit::configured_level() != audit::AuditLevel::Off {
        eprintln!(
            "audit[{}]: {} check(s) across {} target(s), {} violation(s); \
             {} artifact(s) quarantined",
            audit::configured_level().as_str(),
            counters::get(Counter::AuditChecks),
            audit_targets,
            counters::get(Counter::AuditViolations),
            counters::get(Counter::CheckpointQuarantined),
        );
    }
    let ctx = RunContext::current();
    if ctx.governor.limited() {
        let s = ctx.governor.stats();
        eprintln!(
            "governor[{} MiB]: finished at level {}; {} escalation event(s), \
             {} throttled admission(s)",
            s.budget_bytes.unwrap_or(0) / (1024 * 1024),
            s.level,
            s.events,
            s.throttled_admissions,
        );
    }
    if let Some(reason) = cancel.cancel_reason() {
        // Partial-run summary: what finished, what the drain cut short,
        // and how to pick the campaign back up.
        let cancelled_jobs = runner::metrics().cancelled;
        eprintln!(
            "repro: cancelled ({reason}): {} target(s) completed, {} failed or cut short \
             ({} job(s) cancelled in flight), {} never started; completed jobs are \
             checkpointed under {} — rerun with --resume to finish",
            timings.len(),
            failed_targets.len(),
            cancelled_jobs,
            skipped_targets.len(),
            opts.checkpoint_dir.display()
        );
        std::process::exit(match reason {
            runner::CancelReason::Interrupted => 130,
            runner::CancelReason::DeadlineExceeded => 124,
        });
    }
    if !failed_targets.is_empty() {
        eprintln!(
            "repro: {} target(s) failed: {}; completed jobs are checkpointed under {} — rerun with --resume to reuse them",
            failed_targets.len(),
            failed_targets.join(", "),
            opts.checkpoint_dir.display()
        );
        std::process::exit(1);
    }
}
