//! The tentpole soak: adversarial clients hammer a live daemon while
//! well-formed clients keep querying. Acceptance criteria (from the
//! design): every response a well-formed client receives is either a
//! byte-exact match of the CLI output for its request or a well-formed
//! structured error; the daemon never crashes; the drain completes
//! with completed work durably persisted and no stray `.tmp` files.
//!
//! The adversaries are slow-loris drips and duplicate bursts; a
//! `job:panic@` fault plan is aimed at one target (`table8`) so the
//! request-level fault-isolation pillar is exercised end to end: that
//! target's render fails with a structured `jobs-failed` error while
//! every other request — on the same daemon, some at the same moment —
//! stays byte-perfect.

use membw_core::runner::fault::{self, FaultPlan};
use membw_core::runner::{self, CancelReason, CancelToken};
use membw_core::service::{error_kind, ServiceRequest, ServiceResponse};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::{chaos, client, serve, Endpoint, ResultStore, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

/// Cheap, distinct targets the well-formed clients rotate through.
const GOOD_TARGETS: [&str; 6] = [
    "fig1",
    "table1",
    "table2",
    "table3",
    "params",
    "extrapolate",
];
/// The render the chaos clients keep poking at.
const CHAOS_TARGET: &str = "table7";
/// The render a `job:panic@` directive makes panic inside the engine.
const FAILING_TARGET: &str = "table8";

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

fn expected_stdout() -> HashMap<&'static str, String> {
    GOOD_TARGETS
        .iter()
        .chain([CHAOS_TARGET].iter())
        .map(|t| {
            let rendered =
                targets::render_target(t, Scale::Test, SweepMode::Stack).expect("reference render");
            (*t, rendered.stdout)
        })
        .collect()
}

/// A response a well-formed client may legitimately see: a byte-exact
/// result, or a well-formed busy/structured error. Anything else fails
/// the soak.
fn check_well_formed(
    target: &str,
    resp: &ServiceResponse,
    expected: &HashMap<&'static str, String>,
) {
    match resp {
        ServiceResponse::Ok { stdout, fnv64, .. } => {
            assert_eq!(
                stdout, &expected[target],
                "target {target}: ok response must be byte-exact CLI output"
            );
            let actual = format!("{:016x}", runner::persist::fnv64(stdout));
            assert_eq!(
                &actual, fnv64,
                "target {target}: response checksum must match payload"
            );
        }
        ServiceResponse::Busy { bound, .. } => {
            assert!(*bound > 0, "busy response must carry its bound");
        }
        ServiceResponse::Error { kind, message, .. } => {
            assert!(
                !kind.is_empty() && !message.is_empty(),
                "structured error must carry kind and message"
            );
        }
        ServiceResponse::Draining => {
            panic!("target {target}: got draining before the drain started");
        }
        ServiceResponse::Stats(_) => {
            panic!("target {target}: stats response to a non-stats request");
        }
    }
}

/// Raw client: one line out, one line back.
fn raw_exchange(endpoint: &Endpoint, line: &str) -> ServiceResponse {
    let mut s = endpoint.connect().expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(line.as_bytes()).unwrap();
    s.write_all(b"\n").unwrap();
    s.flush().unwrap();
    let mut reader = BufReader::new(s);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read response line");
    serde_json::from_str(reply.trim()).expect("well-formed response JSON")
}

#[test]
fn soak_daemon_survives_chaos_and_drains_clean() {
    // Engine-level fault injection on one target only: its requests
    // must fail structurally, nobody else's.
    let plan = FaultPlan::parse(&format!("job:panic@{FAILING_TARGET}:*")).expect("fault plan");
    fault::set_plan(Some(plan));
    let expected = expected_stdout();

    let base = std::env::temp_dir().join(format!("membw_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let store_dir = base.join("store");
    let endpoint = Endpoint::Unix(base.join("soak.sock"));

    let config = ServeConfig {
        max_inflight: 1,
        queue_bound: 2, // small on purpose: bursts should brush the busy path
        conn_limit: 32,
        read_timeout: Duration::from_millis(400), // quick slow-loris verdicts
        max_frame: 2048,
    };
    let store = ResultStore::open(&store_dir).expect("open store");
    let server = Arc::new(Server::new(config, store));
    let cancel = CancelToken::new();
    let listener = endpoint.listen().expect("listen");
    let serve_thread = {
        let srv = Arc::clone(&server);
        let token = cancel.clone();
        std::thread::spawn(move || serve(&srv, listener, &token))
    };
    assert!(
        client::wait_ready(&endpoint, Duration::from_secs(10)),
        "daemon never came up"
    );

    // --- Chaos + well-formed traffic, concurrently. -------------------
    let chaos_line = serde_json::to_string(&request(CHAOS_TARGET)).unwrap();
    let chaos_thread = {
        let ep = endpoint.clone();
        let line = chaos_line.clone();
        std::thread::spawn(move || {
            (0..3)
                .map(|round| {
                    chaos::slowloris(&ep, &line);
                    (round, chaos::dupburst(&ep, 8, &line))
                })
                .collect::<Vec<_>>()
        })
    };
    let good_threads: Vec<_> = GOOD_TARGETS
        .iter()
        .map(|t| {
            let ep = endpoint.clone();
            std::thread::spawn(move || -> Vec<(&'static str, ServiceResponse)> {
                (0..4)
                    .map(|_| {
                        (
                            *t,
                            client::query(&ep, &request(t), Some(Duration::from_secs(60)))
                                .expect("query"),
                        )
                    })
                    .collect()
            })
        })
        .collect();

    for h in good_threads {
        for (target, resp) in h.join().expect("well-formed client thread") {
            check_well_formed(target, &resp, &expected);
        }
    }
    let dup_replies = chaos_thread.join().expect("chaos thread");
    assert!(!dup_replies.is_empty(), "dupburst mode must have run");
    for (round, replies) in &dup_replies {
        for line in replies {
            let resp: ServiceResponse = serde_json::from_str(line).expect("dupburst reply parses");
            check_well_formed(CHAOS_TARGET, &resp, &expected);
        }
        // Burst clients that got answers must all have the same bytes
        // unless some were refused busy (different, still well-formed).
        let oks: Vec<&String> = replies
            .iter()
            .filter(|l| l.contains("\"status\":\"ok\""))
            .collect();
        for l in &oks {
            assert_eq!(
                *l, oks[0],
                "dupburst round {round}: ok replies must be byte-identical"
            );
        }
    }

    // --- Malformed clients get structured errors, not a dead daemon. --
    match raw_exchange(&endpoint, "this is not json") {
        ServiceResponse::Error { kind, .. } => assert_eq!(kind, error_kind::BAD_REQUEST),
        other => panic!("malformed JSON should yield bad-request, got {other:?}"),
    }
    match raw_exchange(&endpoint, r#"{"target":"nosuchfigure"}"#) {
        ServiceResponse::Error { kind, .. } => assert_eq!(kind, error_kind::UNKNOWN_TARGET),
        other => panic!("unknown target should yield unknown-target, got {other:?}"),
    }
    {
        // A frame longer than max_frame without a newline.
        let mut s = endpoint.connect().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&vec![b'x'; 4096]).unwrap();
        s.flush().unwrap();
        let mut reader = BufReader::new(s);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        match serde_json::from_str::<ServiceResponse>(reply.trim()).expect("frame error parses") {
            ServiceResponse::Error { kind, .. } => assert_eq!(kind, error_kind::FRAME_TOO_LONG),
            other => panic!("oversized frame should yield frame-too-long, got {other:?}"),
        }
    }

    // --- Fault isolation end to end: the injected target fails with a
    // structured error; the daemon and everyone else are unaffected. --
    match raw_exchange(
        &endpoint,
        &serde_json::to_string(&request(FAILING_TARGET)).unwrap(),
    ) {
        ServiceResponse::Error { kind, message, .. } => {
            assert_eq!(
                kind,
                error_kind::JOBS_FAILED,
                "injected engine faults surface as jobs-failed: {message}"
            );
        }
        other => panic!("fault-injected render should fail structurally, got {other:?}"),
    }
    let resp = client::query(
        &endpoint,
        &request(CHAOS_TARGET),
        Some(Duration::from_secs(60)),
    )
    .unwrap();
    check_well_formed(CHAOS_TARGET, &resp, &expected);
    fault::set_plan(None);

    // --- Drain. -------------------------------------------------------
    cancel.cancel(CancelReason::Interrupted);
    let served = serve_thread
        .join()
        .expect("serve thread")
        .expect("serve loop exits cleanly");
    assert!(served > 0, "the soak must have served connections");
    assert!(
        matches!(
            server.handle_request(&request(CHAOS_TARGET)),
            ServiceResponse::Draining
        ),
        "post-drain requests must be refused as draining"
    );

    // Durability: completed results persisted, no torn or temporary
    // files left behind.
    let mut entries = 0;
    for e in std::fs::read_dir(&store_dir).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "stray temp file in store: {name}");
        assert!(
            !name.contains(".corrupt"),
            "quarantined entry in a crash-free soak: {name}"
        );
        if name.ends_with(".json") {
            entries += 1;
        }
    }
    assert!(entries > 0, "completed renders must be durably persisted");
    let _ = std::fs::remove_dir_all(&base);
}
