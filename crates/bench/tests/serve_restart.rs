//! Crash-restart proof for `repro serve` (satellite d): SIGKILL the
//! daemon mid-render, restart it on the same directories, and verify
//!
//! * warm requests answer from the checksummed result store with the
//!   exact bytes of the pre-crash answer,
//! * the interrupted render resumes from the engine checkpoint
//!   (`resumed > 0`) and still produces byte-identical output,
//! * a final SIGTERM drains the daemon to exit code 0 with no stray
//!   `.tmp` files.
//!
//! The daemon is the real binary (`CARGO_BIN_EXE_repro`), killed with
//! a real SIGKILL — nothing in-process to soften the crash.

use membw_core::service::{source, ServiceRequest, ServiceResponse};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::{client, Endpoint};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WARM_TARGET: &str = "table7";
const LONG_TARGET: &str = "fig3";
/// Slows every inner job of fig3's first suite so the SIGKILL lands
/// mid-render with some jobs checkpointed and some not.
const SLOW_SPEC: &str = "job:slow@fig3/spec92:*:150";

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req
}

fn spawn_daemon(base: &Path, sock: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--socket",
            sock.to_str().unwrap(),
            "--store",
            base.join("store").to_str().unwrap(),
            "--checkpoint-dir",
            base.join("ckpt").to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .env("MEMBW_FAULT", SLOW_SPEC)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve")
}

/// Wait until the checkpoint tree holds at least one archived job
/// (`<index>.json` under a `<label>-<hash>` directory) for the *long*
/// target — the warm target checkpoints too, so an unfiltered scan
/// would fire before the render we intend to interrupt has started.
fn wait_for_checkpoint(root: &Path, label_prefix: &str, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if let Ok(dirs) = std::fs::read_dir(root) {
            for d in dirs.flatten() {
                if !d.file_name().to_string_lossy().starts_with(label_prefix) {
                    continue;
                }
                if let Ok(files) = std::fs::read_dir(d.path()) {
                    for f in files.flatten() {
                        let name = f.file_name().to_string_lossy().into_owned();
                        if name.ends_with(".json") && name != "meta.json" {
                            return true;
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

fn query_ok(endpoint: &Endpoint, target: &str) -> (String, String, u64) {
    let resp = client::query(endpoint, &request(target), Some(Duration::from_secs(120)))
        .expect("query transport");
    match resp {
        ServiceResponse::Ok {
            source,
            stdout,
            resumed,
            ..
        } => (source, stdout, resumed),
        other => panic!("expected ok for {target}, got {other:?}"),
    }
}

#[test]
fn sigkill_restart_serves_warm_hits_and_resumes_checkpointed_work() {
    let base = std::env::temp_dir().join(format!("membw_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let sock = base.join("daemon.sock");
    let endpoint = Endpoint::Unix(sock.clone());

    // --- First life: answer one request, die mid-way through another.
    let mut daemon = spawn_daemon(&base, &sock);
    assert!(
        client::wait_ready(&endpoint, Duration::from_secs(30)),
        "daemon never came up"
    );

    let (src, warm_stdout, _) = query_ok(&endpoint, WARM_TARGET);
    assert_eq!(src, source::COMPUTED, "first answer is a cold compute");

    // Fire the long render and abandon the connection; the daemon keeps
    // computing and checkpointing inner jobs.
    let fire = {
        let ep = endpoint.clone();
        std::thread::spawn(move || {
            let _ = client::query(&ep, &request(LONG_TARGET), Some(Duration::from_secs(1)));
        })
    };
    assert!(
        wait_for_checkpoint(&base.join("ckpt"), "fig3_", Duration::from_secs(60)),
        "no inner job checkpointed before the kill"
    );
    daemon.kill().expect("SIGKILL daemon"); // Child::kill is SIGKILL on unix
    daemon.wait().expect("reap daemon");
    let _ = fire.join();

    // --- Second life: same directories, stale socket file and all.
    let mut daemon = spawn_daemon(&base, &sock);
    assert!(
        client::wait_ready(&endpoint, Duration::from_secs(30)),
        "restart never came up"
    );

    // Warm hit: served from the sealed store, byte-identical.
    let (src, stdout, _) = query_ok(&endpoint, WARM_TARGET);
    assert_eq!(src, source::STORE, "restart must answer from the store");
    assert_eq!(
        stdout, warm_stdout,
        "store hit must be byte-identical to the pre-crash answer"
    );

    // Interrupted render: recomputed, resuming the checkpointed jobs,
    // and byte-identical to an undisturbed CLI render.
    let (src, stdout, resumed) = query_ok(&endpoint, LONG_TARGET);
    assert_eq!(src, source::COMPUTED, "the killed render was never stored");
    assert!(
        resumed > 0,
        "restarted render must resume checkpointed jobs (resumed={resumed})"
    );
    let reference = targets::render_target(LONG_TARGET, Scale::Test, SweepMode::Stack)
        .expect("reference render")
        .stdout;
    assert_eq!(
        stdout, reference,
        "resumed render must be byte-identical to a fresh one"
    );

    // --- SIGTERM drain: exit 0, no temp files anywhere.
    let pid = daemon.id();
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let exit = daemon.wait().expect("wait for drain");
    assert_eq!(exit.code(), Some(0), "SIGTERM drain must exit 0");

    for dir in [base.join("store"), base.join("ckpt")] {
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                assert!(
                    !name.ends_with(".tmp"),
                    "stray temp file after drain: {name}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
