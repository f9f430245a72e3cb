//! Wire-level "never a wrong answer" proof: inject a fault at *every*
//! enumerated net point of a store-cold and a store-warm exchange —
//! including hard-aborting the daemon mid-request under supervision —
//! and prove the client contract holds at jobs 1 and 8:
//!
//! > under any injected wire fault, a client observes either the
//! > correct reply bytes or a retryable (typed-transient/transport)
//! > failure whose bounded retry converges to bytes identical to a
//! > fault-free run — never a wrong answer, never a hung slot.
//!
//! Mirrors `tests/crash_consistency.rs`: the daemon runs as a real
//! subprocess (this test binary re-executed with the `child_daemon`
//! test selected and driver env vars set), `MEMBW_FAULT=count:PATH`
//! enumerates the exchange's net points, then each directive explores
//! them. The fault plan lives only in the daemon's environment, so the
//! parent's client sockets stay pass-through and the enumeration is
//! exactly the daemon-side fault surface.
//!
//! Fault-free byte identity is asserted too: every converged answer is
//! compared against `targets::render_target` — the same renderer the
//! CLI prints from — so "correct bytes" means CLI-identical bytes.

use membw_core::runner::counters::Counter;
use membw_core::runner::fault::{self, Domain, FAULT_ENV};
use membw_core::service::{ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::supervisor::{supervise, SupervisorConfig};
use membw_serve::{client, Endpoint, ResultStore};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Driver env vars for the subprocess daemon. Unset → `child_daemon`
/// passes as a no-op in a normal `cargo test` run.
const SOCKET_ENV: &str = "MEMBW_WIRE_SOCKET";
const STORE_ENV: &str = "MEMBW_WIRE_STORE";
const JOBS_ENV: &str = "MEMBW_WIRE_JOBS";

/// The exchange under proof: cheap enough that exploring every net
/// point at two job counts stays fast, real enough to cross the full
/// request→validate→triage→render→store→reply path.
const TARGET: &str = "table2";

fn request() -> ServiceRequest {
    let mut req = ServiceRequest::new(TARGET);
    req.scale = "test".to_string();
    req
}

fn reference_stdout() -> String {
    targets::render_target(TARGET, Scale::Test, SweepMode::Stack)
        .expect("reference render")
        .stdout
}

fn base_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("membw_wire_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Subprocess entry: a real daemon over a Unix socket, driven by env
/// vars, serving until SIGTERM (or an injected `crash@K` abort).
#[test]
fn child_daemon() {
    let Ok(socket) = std::env::var(SOCKET_ENV) else {
        return;
    };
    let store_dir = std::env::var(STORE_ENV).expect("store dir env");
    let jobs: usize = std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    membw_core::runner::set_jobs(jobs);
    membw_core::runner::install_signal_drain();
    let endpoint = Endpoint::Unix(PathBuf::from(&socket));
    let store = ResultStore::open(Path::new(&store_dir)).expect("open store");
    let config = membw_serve::ServeConfig {
        max_inflight: 2,
        queue_bound: 8,
        conn_limit: 16,
        read_timeout: Duration::from_secs(2),
        max_frame: 64 * 1024,
    };
    let server = std::sync::Arc::new(membw_serve::Server::new(config, store));
    let listener = endpoint.listen().expect("listen");
    // Pidfile last: its existence is the parent's readiness signal
    // (probe connects would consume accept points and skew the
    // enumeration, so the parent never dials until it means it).
    membw_serve::net::write_pidfile(&endpoint).expect("pidfile");
    let cancel = membw_core::runner::global_cancel_token();
    membw_serve::serve(&server, listener, &cancel).expect("serve loop");
    membw_serve::net::remove_pidfile(&endpoint);
}

/// One daemon generation's spawn configuration.
struct DaemonSpec {
    socket: PathBuf,
    store: PathBuf,
    jobs: usize,
    fault: Option<String>,
}

impl DaemonSpec {
    fn command(&self) -> Command {
        let exe = std::env::current_exe().expect("own test binary");
        let mut cmd = Command::new(exe);
        // --nocapture: libtest's capture buffer would die with the
        // process and swallow the crash announcement.
        cmd.args([
            "child_daemon",
            "--exact",
            "--test-threads=1",
            "--quiet",
            "--nocapture",
        ]);
        // Clean slate: no fault plan or driver var may leak in from
        // the outer environment.
        for var in [
            SOCKET_ENV,
            STORE_ENV,
            JOBS_ENV,
            FAULT_ENV,
            membw_serve::supervisor::RESTARTS_ENV,
        ] {
            cmd.env_remove(var);
        }
        cmd.env(SOCKET_ENV, &self.socket);
        cmd.env(STORE_ENV, &self.store);
        cmd.env(JOBS_ENV, self.jobs.to_string());
        if let Some(plan) = &self.fault {
            cmd.env(FAULT_ENV, plan);
        }
        cmd.stdout(std::process::Stdio::null());
        cmd.stderr(std::process::Stdio::piped());
        cmd
    }

    fn spawn(&self) -> std::process::Child {
        self.command().spawn().expect("spawn daemon child")
    }

    fn pidfile(&self) -> PathBuf {
        let mut os = self.socket.as_os_str().to_os_string();
        os.push(".pid");
        PathBuf::from(os)
    }
}

/// Wait until the daemon has published its pidfile (written after the
/// listener is bound) — readiness without probe connections.
fn wait_pidfile(spec: &DaemonSpec, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while !spec.pidfile().exists() {
        assert!(
            Instant::now() < deadline,
            "daemon never published {} — did the child fail to start?",
            spec.pidfile().display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn read_pid(spec: &DaemonSpec) -> u32 {
    std::fs::read_to_string(spec.pidfile())
        .expect("read pidfile")
        .trim()
        .parse()
        .expect("pidfile holds a PID")
}

/// SIGTERM the daemon (drain path) and reap the child process.
fn terminate(spec: &DaemonSpec, child: &mut std::process::Child) {
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let _ = spec;
    let out = child.wait().expect("reap daemon child");
    assert!(
        out.success(),
        "daemon child must drain cleanly, got {out:?}"
    );
}

/// Pre-seed a store directory so the exchange is a warm store hit.
fn seed_store(dir: &Path, stdout: &str) {
    let store = ResultStore::open(dir).expect("open store for seeding");
    store
        .save(&request().coalesce_key(), stdout)
        .expect("seed store entry");
}

/// The successful-exchange stdout a response must carry.
fn ok_stdout(resp: &ServiceResponse, what: &str) -> String {
    match resp {
        ServiceResponse::Ok { stdout, .. } => stdout.clone(),
        other => panic!("{what}: expected ok, got {other:?}"),
    }
}

/// Enumerate the net points of one full exchange under `count:PATH`.
fn enumerate_points(tag: &str, jobs: usize, warm: bool, reference: &str) -> u64 {
    let base = base_dir(tag);
    let count_file = base.join("netpoints");
    let spec = DaemonSpec {
        socket: base.join("d.sock"),
        store: base.join("store"),
        jobs,
        fault: Some(format!("count:{}", count_file.display())),
    };
    if warm {
        seed_store(&spec.store, reference);
    }
    let mut child = spec.spawn();
    wait_pidfile(&spec, Duration::from_secs(30));
    let endpoint = Endpoint::Unix(spec.socket.clone());
    let resp = client::query(&endpoint, &request(), Some(Duration::from_secs(120)))
        .expect("enumeration exchange");
    assert_eq!(
        ok_stdout(&resp, "enumeration"),
        reference,
        "count plan must not perturb the answer"
    );
    // Let the server consume the client's EOF (its final net point)
    // before stopping the count.
    std::thread::sleep(Duration::from_millis(300));
    terminate(&spec, &mut child);
    let n = fault::read_count(&count_file, Domain::Net).expect("count file holds the net total");
    let _ = std::fs::remove_dir_all(&base);
    assert!(
        n >= 4,
        "an exchange has at least accept+read+write+eof: {n}"
    );
    n
}

/// The core contract assertion: run one exchange against a daemon with
/// `plan` installed. The first attempt must yield either the correct
/// bytes or a retryable failure; in the latter case bounded backoff
/// against the same daemon must converge to the correct bytes.
fn assert_converges(tag: &str, jobs: usize, warm: bool, plan: &str, reference: &str) {
    let base = base_dir(tag);
    let spec = DaemonSpec {
        socket: base.join("d.sock"),
        store: base.join("store"),
        jobs,
        fault: Some(plan.to_string()),
    };
    if warm {
        seed_store(&spec.store, reference);
    }
    let mut child = spec.spawn();
    wait_pidfile(&spec, Duration::from_secs(30));
    let endpoint = Endpoint::Unix(spec.socket.clone());
    let what = format!("{plan} jobs={jobs} warm={warm}");
    match client::query(&endpoint, &request(), Some(Duration::from_secs(120))) {
        Ok(resp) if client::retryable(&resp) || matches!(resp, ServiceResponse::Busy { .. }) => {
            converge(&endpoint, reference, &what);
        }
        Ok(resp) => {
            // A response that is not retryable must already be the
            // correct answer — a wrong or mangled "ok" here is exactly
            // the bug class this proof exists to exclude.
            assert_eq!(ok_stdout(&resp, &what), reference, "{what}");
        }
        Err(e) => {
            assert!(
                client::transport_retryable(&e),
                "{what}: transport failure must be classified retryable: {e}"
            );
            converge(&endpoint, reference, &what);
        }
    }
    terminate(&spec, &mut child);
    let _ = std::fs::remove_dir_all(&base);
}

/// Bounded-backoff retry until the correct bytes appear.
fn converge(endpoint: &Endpoint, reference: &str, what: &str) {
    let policy = client::Backoff {
        initial: Duration::from_millis(25),
        factor: 2,
        cap: Duration::from_millis(500),
        attempts: 10,
    };
    let resp = client::query_with_backoff(
        endpoint,
        &request(),
        Some(Duration::from_secs(120)),
        &policy,
    )
    .unwrap_or_else(|e| panic!("{what}: bounded retry must converge: {e}"));
    assert_eq!(
        ok_stdout(&resp, what),
        reference,
        "{what}: retry must converge to fault-free bytes"
    );
}

/// Explore `disconnect@K` at every enumerated point, cold and warm.
fn explore_disconnects(jobs: usize) {
    let reference = reference_stdout();
    for warm in [false, true] {
        let heat = if warm { "warm" } else { "cold" };
        let n = enumerate_points(&format!("count_{heat}_j{jobs}"), jobs, warm, &reference);
        // Every point, concurrently: each exploration owns its daemon,
        // socket, and store, so they only contend for CPU.
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for k in 1..=n {
                let reference = &reference;
                handles.push((
                    k,
                    scope.spawn(move || {
                        assert_converges(
                            &format!("disc_{heat}_j{jobs}_k{k}"),
                            jobs,
                            warm,
                            &format!("net:disconnect@{k}"),
                            reference,
                        );
                    }),
                ));
            }
            let mut failures = Vec::new();
            for (k, h) in handles {
                if let Err(e) = h.join() {
                    let msg = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "opaque panic".to_string());
                    failures.push(format!("disconnect@{k} ({heat}, jobs {jobs}): {msg}"));
                }
            }
            assert!(
                failures.is_empty(),
                "contract violated at {} of {n} points:\n{}",
                failures.len(),
                failures.join("\n")
            );
        });
    }
}

#[test]
fn disconnect_at_every_point_jobs1() {
    explore_disconnects(1);
}

#[test]
fn disconnect_at_every_point_jobs8() {
    explore_disconnects(8);
}

/// Torn frames at byte offsets spanning the reply (first byte, inside
/// the envelope, inside the payload), plus injected accept failures
/// and stalled writes — each must converge.
#[test]
fn torn_frames_accept_failures_and_stalls_converge() {
    let reference = reference_stdout();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, (plan, jobs, warm)) in [
            ("net:tornframe@1", 1, false),
            ("net:tornframe@30", 1, true),
            ("net:tornframe@150", 8, false),
            ("net:tornframe@150", 1, true),
            ("net:acceptfail:1", 1, false),
            ("net:acceptfail:1", 8, true),
            ("net:stallwrite:10", 1, true),
            ("net:stallwrite:10", 8, false),
        ]
        .into_iter()
        .enumerate()
        {
            let reference = &reference;
            handles.push(scope.spawn(move || {
                assert_converges(&format!("mix{i}"), jobs, warm, plan, reference);
            }));
        }
        for h in handles {
            h.join().expect("mixed wire-fault exploration");
        }
    });
}

/// `crash@K` under supervision: the daemon hard-aborts mid-request at
/// point K (exit 134 — PR 9's convention), the supervisor restarts it
/// with deterministic backoff, the restarted generation rebinds the
/// stale socket and republishes the pidfile, and the client's bounded
/// retry converges to the fault-free bytes. The restart is visible to
/// clients as the `supervisor_restarts` stats counter.
fn explore_supervised_crashes(jobs: usize, warm: bool) {
    let reference = reference_stdout();
    let heat = if warm { "warm" } else { "cold" };
    let n = enumerate_points(&format!("scount_{heat}_j{jobs}"), jobs, warm, &reference);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for k in 1..=n {
            let reference = &reference;
            handles.push((
                k,
                scope.spawn(move || {
                    supervised_crash_converges(k, jobs, warm, reference);
                }),
            ));
        }
        let mut failures = Vec::new();
        for (k, h) in handles {
            if let Err(e) = h.join() {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic".to_string());
                failures.push(format!("crash@{k} ({heat}, jobs {jobs}): {msg}"));
            }
        }
        assert!(
            failures.is_empty(),
            "supervised-crash contract violated at {} of {n} points:\n{}",
            failures.len(),
            failures.join("\n")
        );
    });
}

fn supervised_crash_converges(k: u64, jobs: usize, warm: bool, reference: &str) {
    let heat = if warm { "warm" } else { "cold" };
    let base = base_dir(&format!("crash_{heat}_j{jobs}_k{k}"));
    let spec = DaemonSpec {
        socket: base.join("d.sock"),
        store: base.join("store"),
        jobs,
        fault: None,
    };
    if warm {
        seed_store(&spec.store, reference);
    }
    let what = format!("crash@{k} jobs={jobs} warm={warm}");

    // The supervisor loop runs in its own thread; generation 0 carries
    // the crash plan, every restarted generation runs clean — the fault
    // is transient by construction, so supervision must heal it.
    let sup_cfg = SupervisorConfig {
        max_fast_crashes: 3,
        healthy_after: Duration::from_millis(100),
        backoff_initial: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
    };
    let cancel = membw_core::runner::CancelToken::new();
    let sup = {
        let spec = DaemonSpec {
            socket: spec.socket.clone(),
            store: spec.store.clone(),
            jobs,
            fault: None,
        };
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            supervise(
                |restarts| {
                    let gen_spec = DaemonSpec {
                        socket: spec.socket.clone(),
                        store: spec.store.clone(),
                        jobs: spec.jobs,
                        fault: if restarts == 0 {
                            Some(format!("net:crash@{k}"))
                        } else {
                            None
                        },
                    };
                    gen_spec.command()
                },
                &sup_cfg,
                &cancel,
            )
        })
    };

    wait_pidfile(&spec, Duration::from_secs(30));
    let endpoint = Endpoint::Unix(spec.socket.clone());

    // The exchange that drives the daemon into its crash point. If the
    // crash lands after the reply (e.g. the EOF read), the first
    // attempt legitimately succeeds; otherwise the failure must be
    // retryable and converge across the restart.
    match client::query(&endpoint, &request(), Some(Duration::from_secs(120))) {
        Ok(resp) if !client::retryable(&resp) => {
            assert_eq!(ok_stdout(&resp, &what), reference, "{what}");
        }
        Ok(_) => converge(&endpoint, reference, &what),
        Err(e) => {
            assert!(
                client::transport_retryable(&e),
                "{what}: must be retryable: {e}"
            );
            converge(&endpoint, reference, &what);
        }
    }

    // Whatever the crash point, generation 0 aborts once the exchange
    // (or its EOF) reaches point K, so by now — possibly after a short
    // wait — the answering daemon is generation 1+ and says so.
    let policy = client::Backoff {
        initial: Duration::from_millis(25),
        factor: 2,
        cap: Duration::from_millis(500),
        attempts: 12,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let restarts_seen = loop {
        let mut stats_req = ServiceRequest::new(STATS_TARGET);
        stats_req.scale = "test".to_string();
        match client::query_with_backoff(
            &endpoint,
            &stats_req,
            Some(Duration::from_secs(30)),
            &policy,
        ) {
            Ok(ServiceResponse::Stats(s)) if s.get(Counter::SupervisorRestarts) >= 1 => {
                break s.get(Counter::SupervisorRestarts);
            }
            Ok(_) | Err(_) => {
                assert!(
                    Instant::now() < deadline,
                    "{what}: generation 1 never reported supervisor_restarts >= 1"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert!(restarts_seen >= 1, "{what}");

    // A fresh client against the healed service still gets exact bytes.
    converge(&endpoint, reference, &format!("{what} (post-heal)"));

    // Stop: TERM the live generation; its clean exit ends supervision.
    let pid = read_pid(&spec);
    let _ = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status();
    let code = sup.join().expect("supervisor thread");
    assert_eq!(code, 0, "{what}: supervisor must end 0 after a clean drain");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn supervised_crash_at_every_point_jobs1_cold() {
    explore_supervised_crashes(1, false);
}

#[test]
fn supervised_crash_at_every_point_jobs1_warm() {
    explore_supervised_crashes(1, true);
}

#[test]
fn supervised_crash_at_every_point_jobs8_cold() {
    explore_supervised_crashes(8, false);
}

#[test]
fn supervised_crash_at_every_point_jobs8_warm() {
    explore_supervised_crashes(8, true);
}
