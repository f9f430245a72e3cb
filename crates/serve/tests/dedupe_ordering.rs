//! Coalescing proof: N concurrent identical requests trigger exactly
//! one simulation run and N byte-identical responses — at engine
//! `--jobs 1` and `--jobs 8` — and the `stats` counters say so: one
//! render, N−1 coalesced, then store hits.
//!
//! The run engine's process-global job counter is the witness: a burst
//! of N identical requests must advance it by exactly the job count of
//! a *single* render, and a second burst (store now warm) must not
//! advance it at all.
//!
//! Determinism scheme: the server gets one dispatcher worker, and a
//! blocker request (whose first inner job is slowed via
//! a `job:slow@` fault plan) occupies it while the burst arrives. Every
//! burst request therefore passes the dedupe map while the shared
//! computation is still queued, so coalescing is guaranteed rather
//! than raced for.

use membw_core::runner;
use membw_core::service::{source, ServeStats, ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::{ResultStore, ServeConfig, Server};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const N: usize = 6;
const BURST_TARGET: &str = "table7";
const BLOCKER_TARGET: &str = "table8";

/// Jobs one solo render of `target` costs at the current ambient
/// `--jobs` setting (no store, no dispatcher — the reference cost).
fn solo_jobs(target: &str) -> (u64, String) {
    let before = runner::metrics();
    let rendered =
        targets::render_target(target, Scale::Test, SweepMode::Stack).expect("solo render");
    let delta = runner::metrics_delta(before, runner::metrics());
    (delta.jobs, rendered.stdout)
}

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

fn burst(server: &Arc<Server>, req: &ServiceRequest, n: usize) -> Vec<ServiceResponse> {
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let srv = Arc::clone(server);
            let req = req.clone();
            let gate = Arc::clone(&barrier);
            std::thread::spawn(move || {
                gate.wait();
                srv.handle_request(&req)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("burst thread"))
        .collect()
}

fn stats(server: &Server) -> ServeStats {
    match server.handle_request(&ServiceRequest::new(STATS_TARGET)) {
        ServiceResponse::Stats(s) => s,
        other => panic!("stats request must get stats, got {}", response_bytes(&other)),
    }
}

fn response_bytes(resp: &ServiceResponse) -> String {
    serde_json::to_string(resp).expect("serialize response")
}

fn assert_ok_with(resp: &ServiceResponse, want_source: &str, want_stdout: &str) {
    match resp {
        ServiceResponse::Ok {
            source: s, stdout, ..
        } => {
            assert_eq!(s, want_source, "unexpected source");
            assert_eq!(
                stdout, want_stdout,
                "stdout must be byte-identical to the CLI render"
            );
        }
        other => panic!("expected ok response, got {}", response_bytes(other)),
    }
}

/// One full phase at the current ambient `--jobs` setting.
fn run_phase(phase: &str) {
    let dir = std::env::temp_dir().join(format!("membw_dedupe_{}_{}", phase, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (jobs_blocker, blocker_stdout) = solo_jobs(BLOCKER_TARGET);
    let (jobs_burst, want_stdout) = solo_jobs(BURST_TARGET);
    assert!(jobs_burst > 0, "burst target must cost at least one job");

    let config = ServeConfig {
        max_inflight: 1, // single worker: the blocker serializes admission
        ..ServeConfig::default()
    };
    let store = ResultStore::open(&dir).expect("open store");
    let server = Arc::new(Server::new(config, store));

    // Occupy the lone worker: the blocker's first inner job sleeps (see
    // the `job:slow@` plan below), so the burst's shared computation stays
    // queued while all N requests coalesce onto it.
    let before = runner::metrics();
    let blocker = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.handle_request(&request(BLOCKER_TARGET)))
    };
    std::thread::sleep(Duration::from_millis(200));

    let responses = burst(&server, &request(BURST_TARGET), N);
    let blocker_resp = blocker.join().expect("blocker thread");
    let delta = runner::metrics_delta(before, runner::metrics());

    assert_ok_with(&blocker_resp, source::COMPUTED, &blocker_stdout);
    assert_eq!(
        delta.jobs,
        jobs_blocker + jobs_burst,
        "N={N} coalesced requests must cost exactly one render's jobs \
         (phase {phase}: blocker {jobs_blocker} + one burst render {jobs_burst})"
    );

    let first = response_bytes(&responses[0]);
    for (i, resp) in responses.iter().enumerate() {
        assert_ok_with(resp, source::COMPUTED, &want_stdout);
        assert_eq!(
            response_bytes(resp),
            first,
            "burst response {i} must be byte-identical to response 0 (phase {phase})"
        );
    }
    // The blocker and the burst leader rendered; every follower joined.
    let s = stats(&server);
    assert_eq!(
        (s.simulated, s.coalesced, s.store),
        (2, N as u64 - 1, 0),
        "phase {phase}: {s:?}"
    );

    // One repeat: answered from the store, and counted as a store hit.
    let repeat = server.handle_request(&request(BURST_TARGET));
    assert_ok_with(&repeat, source::STORE, &want_stdout);
    let s = stats(&server);
    assert_eq!(
        (s.simulated, s.coalesced, s.store),
        (2, N as u64 - 1, 1),
        "phase {phase}: {s:?}"
    );
    // 1 store hit out of 2 + (N − 1) + 1 answered requests.
    assert_eq!(s.store_hit_permille(), 1000 / (N as u64 + 2), "phase {phase}");

    // Second burst: the store is warm, so zero jobs run and every
    // response is an identical store hit.
    let before = runner::metrics();
    let warm = burst(&server, &request(BURST_TARGET), N);
    let delta = runner::metrics_delta(before, runner::metrics());
    assert_eq!(
        delta.jobs, 0,
        "warm burst must not run any job (phase {phase})"
    );
    let first = response_bytes(&warm[0]);
    for resp in &warm {
        assert_ok_with(resp, source::STORE, &want_stdout);
        assert_eq!(response_bytes(resp), first);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce_at_jobs_1_and_8() {
    // The whole proof lives in one #[test]: the job counter is
    // process-global, so concurrent tests would pollute the deltas.
    let plan = runner::fault::FaultPlan::parse(&format!("job:slow@{BLOCKER_TARGET}:0:700"));
    runner::fault::set_plan(Some(plan.expect("fault plan")));
    runner::set_jobs(1);
    run_phase("jobs1");
    runner::set_jobs(8);
    run_phase("jobs8");
    runner::fault::set_plan(None);
}
