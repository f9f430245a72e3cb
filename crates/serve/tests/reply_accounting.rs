//! What the daemon reports about its own work: an `ok` reply's `jobs`
//! count only that request's render, and a connection refused at
//! `conn_limit` shows up in the `stats` reply.

use membw_core::runner::counters::{Counter, Snapshot};
use membw_core::runner::fault::{self, FaultPlan};
use membw_core::runner::{self, CancelReason, CancelToken};
use membw_core::service::{ServiceRequest, ServiceResponse};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::{serve, Endpoint, ResultStore, ServeConfig, Server, Stream};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("membw_accounting_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

/// The `jobs` of an `ok` reply.
fn jobs_of(resp: &ServiceResponse) -> u64 {
    match resp {
        ServiceResponse::Ok { jobs, .. } => *jobs,
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn overlapping_renders_report_only_their_own_jobs() {
    // What one render costs alone, by the process-wide job counter.
    let solo = |target: &str| {
        let before = runner::metrics();
        targets::render_target(target, Scale::Test, SweepMode::Stack).expect("solo render");
        runner::metrics_delta(before, runner::metrics()).jobs
    };
    let (solo8, solo7) = (solo("table8"), solo("table7"));

    // Two dispatcher workers (the default): each render's first job
    // sleeps, so table7 starts while table8 still runs and table8's
    // remaining jobs run during table7's sleep.
    let dir = scratch("overlap");
    let store = ResultStore::open(&dir).expect("open store");
    let server = Arc::new(Server::new(ServeConfig::default(), store));
    let plan = FaultPlan::parse("job:slow@table8:0:800, job:slow@table7:0:1600");
    fault::set_plan(Some(plan.expect("fault plan")));
    let first = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.handle_request(&request("table8")))
    };
    std::thread::sleep(Duration::from_millis(200));
    let second = server.handle_request(&request("table7"));
    let first = first.join().expect("table8 thread");
    fault::set_plan(None);

    assert_eq!(jobs_of(&first), solo8, "table8 reply counts table8's jobs");
    assert_eq!(jobs_of(&second), solo7, "table7 reply counts table7's jobs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ask for `stats` on the open connection `conn`.
fn stats_on(conn: &mut BufReader<Stream>) -> Snapshot {
    let frame = serde_json::to_string(&ServiceRequest::new("stats")).expect("frame");
    conn.get_mut()
        .write_all(format!("{frame}\n").as_bytes())
        .expect("send stats");
    let mut line = String::new();
    conn.read_line(&mut line).expect("stats reply");
    match serde_json::from_str(&line).expect("parse reply") {
        ServiceResponse::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn connections_refused_at_the_conn_limit_count_as_rejected() {
    let dir = scratch("conn_limit");
    let endpoint = Endpoint::Unix(dir.join("limit.sock"));
    let config = ServeConfig {
        conn_limit: 1,
        ..ServeConfig::default()
    };
    let store = ResultStore::open(&dir.join("store")).expect("open store");
    let server = Arc::new(Server::new(config, store));
    let listener = endpoint.listen().expect("listen");
    let cancel = CancelToken::new();
    let serve_thread = {
        let (srv, token) = (Arc::clone(&server), cancel.clone());
        std::thread::spawn(move || serve(&srv, listener, &token))
    };

    // Once it has answered, the held connection owns the only slot.
    let mut held = BufReader::new(endpoint.connect().expect("connect"));
    let base = stats_on(&mut held);
    let mut refused = BufReader::new(endpoint.connect().expect("connect"));
    let mut line = String::new();
    refused.read_line(&mut line).expect("busy reply");
    match serde_json::from_str(&line).expect("parse reply") {
        ServiceResponse::Busy { bound: 1, .. } => {}
        other => panic!("expected busy at the limit, got {other:?}"),
    }
    let after = stats_on(&mut held);
    assert_eq!(
        after.get(Counter::Rejected) - base.get(Counter::Rejected),
        1,
        "the refused connection is counted"
    );

    drop(held);
    cancel.cancel(CancelReason::Interrupted);
    serve_thread
        .join()
        .expect("serve thread")
        .expect("serve loop");
    let _ = std::fs::remove_dir_all(&dir);
}
