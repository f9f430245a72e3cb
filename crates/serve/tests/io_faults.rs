//! Server-side I/O fault soak: injected ENOSPC and fsync failures
//! while a live daemon serves.
//!
//! The durability contract under an injected storage fault is strict:
//! the *answer* is still byte-exact (the render happened; only the
//! warm-restart cache misses out), nothing half-written is ever
//! published, and every loss is visible — `save_failures` moves for
//! failed saves, `quarantined` moves for entries that rot on disk.
//! This lives in its own test binary because the fault plan is
//! process-global ([`fault::set_plan`]); sharing a process with the
//! chaos soak would race the plans.

use membw_core::runner::counters::{Counter, Snapshot};
use membw_core::runner::fault::{self, FaultPlan};
use membw_core::runner::{persist, CancelReason, CancelToken};
use membw_core::service::{ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::{client, serve, Endpoint, ResultStore, ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

fn reference(target: &str) -> String {
    targets::render_target(target, Scale::Test, SweepMode::Stack)
        .expect("reference render")
        .stdout
}

/// The Ok reply a faulted exchange must still produce, byte-exact.
fn assert_ok_exact(resp: ServiceResponse, expected: &str, what: &str) {
    match resp {
        ServiceResponse::Ok { stdout, .. } => {
            assert_eq!(stdout, expected, "{what}: bytes must survive the fault");
        }
        other => panic!("{what}: expected ok despite the storage fault, got {other:?}"),
    }
}

#[test]
fn storage_faults_move_counters_never_bytes() {
    let base = std::env::temp_dir().join(format!("membw_io_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let store_dir = base.join("store");
    let endpoint = Endpoint::Unix(base.join("io.sock"));

    let config = ServeConfig {
        max_inflight: 1,
        queue_bound: 4,
        conn_limit: 8,
        read_timeout: Duration::from_millis(400),
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

    let stats = |label: &str| -> Snapshot {
        match client::query(
            &endpoint,
            &request(STATS_TARGET),
            Some(Duration::from_secs(10)),
        )
        .expect("stats query")
        {
            ServiceResponse::Stats(s) => s,
            other => panic!("{label}: expected stats, got {other:?}"),
        }
    };
    assert_eq!(stats("baseline").get(Counter::SaveFailures), 0);

    // One exchange while `spec` fails durable writes in the whole
    // (in-process) daemon.
    let faulted = |spec: &str, target: &str| -> ServiceResponse {
        fault::set_plan(Some(FaultPlan::parse(spec).expect("fault plan")));
        let resp = client::query(&endpoint, &request(target), Some(Duration::from_secs(60)));
        fault::set_plan(None);
        resp.expect("faulted exchange")
    };

    // --- ENOSPC during a full exchange: answer served, save lost. ----
    let resp = faulted("io:enospc", "table2");
    assert_ok_exact(resp, &reference("table2"), "enospc");

    // --- fsyncfail: the classic silently-swallowed error must not be.
    let resp = faulted("io:fsyncfail", "table3");
    assert_ok_exact(resp, &reference("table3"), "fsyncfail");

    let after = stats("after faults");
    assert_eq!(
        after.get(Counter::SaveFailures),
        2,
        "each faulted save must be counted, not swallowed"
    );
    assert_eq!(after.get(Counter::Quarantined), 0, "no entry rotted yet");

    // Neither failed save may have published anything: both requests
    // are store misses now and recompute to the same bytes.
    let key2 = request("table2").coalesce_key();
    let entry2 = store_dir.join(format!("{:016x}.json", persist::fnv64(&key2)));
    assert!(
        !entry2.exists(),
        "a failed save must publish nothing (found {})",
        entry2.display()
    );
    match client::query(&endpoint, &request("table2"), Some(Duration::from_secs(60))).unwrap() {
        ServiceResponse::Ok { stdout, source, .. } => {
            assert_eq!(stdout, reference("table2"));
            assert_eq!(
                source,
                membw_core::service::source::COMPUTED,
                "failed save cannot be a store hit"
            );
        }
        other => panic!("fault-free requery must succeed, got {other:?}"),
    }
    assert!(entry2.exists(), "the fault-free save publishes durably");

    // --- Rot the published entry: quarantined moves, bytes do not. ---
    let mut bytes = std::fs::read(&entry2).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01; // any body bit-flip breaks the FNV seal
    std::fs::write(&entry2, bytes).unwrap();
    match client::query(&endpoint, &request("table2"), Some(Duration::from_secs(60))).unwrap() {
        ServiceResponse::Ok { stdout, .. } => assert_eq!(
            stdout,
            reference("table2"),
            "a rotted entry is recomputed, never served"
        ),
        other => panic!("recompute after quarantine must succeed, got {other:?}"),
    }
    let end = stats("after quarantine");
    assert_eq!(
        end.get(Counter::Quarantined),
        1,
        "the rotted entry must be counted"
    );

    // --- Drain: no stray temp files despite the injected failures. ---
    cancel.cancel(CancelReason::Interrupted);
    serve_thread
        .join()
        .expect("serve thread")
        .expect("serve loop exits cleanly");
    for e in std::fs::read_dir(&store_dir).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "stray temp file: {name}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
