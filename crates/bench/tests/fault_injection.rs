//! Fault tolerance of the `repro` binary itself: an injected job fault
//! fails its target alone, healthy targets' stdout stays byte-identical
//! at any `--jobs` setting, the failure summary names the job, the exit
//! status is nonzero, and an interrupted campaign resumed with
//! `--resume` produces byte-identical JSON archives.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run the `repro` binary with `args` and extra environment `envs`,
/// pointing its checkpoint store at `ckpt`.
fn repro(args: &[&str], envs: &[(&str, &str)], ckpt: &std::path::Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .arg("--checkpoint-dir")
        .arg(ckpt)
        .env_remove("MEMBW_FAULT")
        .env_remove("MEMBW_JOBS");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("repro spawns")
}

fn stdout_str(o: &Output) -> String {
    String::from_utf8(o.stdout.clone()).expect("utf8 stdout")
}

fn stderr_str(o: &Output) -> String {
    String::from_utf8(o.stderr.clone()).expect("utf8 stderr")
}

/// A unique scratch directory per test.
fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("membw_repro_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

#[test]
fn faulted_target_fails_alone_with_identical_healthy_stdout() {
    let dir = scratch("fault_alone");
    // Clean reference: table7 only, serial.
    let clean = repro(
        &["--scale", "test", "--jobs", "1", "table7"],
        &[],
        &dir.join("ckpt-clean"),
    );
    assert!(clean.status.success(), "clean run: {}", stderr_str(&clean));
    let clean_stdout = stdout_str(&clean);
    assert!(clean_stdout.contains("Table 7"), "sanity: table7 printed");

    // Faulted: table7 plus a fig4 whose job 3 panics — at both ends of
    // the thread-count spectrum the healthy target's stdout must not
    // move by a byte.
    for jobs in ["1", "8"] {
        let faulted = repro(
            &["--scale", "test", "--jobs", jobs, "table7", "fig4"],
            &[("MEMBW_FAULT", "job:panic@fig4:3")],
            &dir.join(format!("ckpt-fault-{jobs}")),
        );
        assert!(
            !faulted.status.success(),
            "a failed target must make the exit status nonzero"
        );
        assert_eq!(
            stdout_str(&faulted),
            clean_stdout,
            "healthy stdout byte-identical at --jobs {jobs}"
        );
        let err = stderr_str(&faulted);
        assert!(err.contains("fig4:3"), "summary names the job: {err}");
        assert!(
            err.contains("injected fault"),
            "summary carries the panic message: {err}"
        );
        assert!(
            err.contains("FAILED jobs"),
            "failure summary table rendered: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_resumes_to_byte_identical_archives() {
    let dir = scratch("resume");
    let ckpt = dir.join("ckpt");

    // Run 1: table8 with job 5 failing — the campaign is "interrupted"
    // (exits nonzero, no JSON archived), but the healthy jobs are
    // checkpointed.
    let json1 = dir.join("json-interrupted");
    let run1 = repro(
        &[
            "--scale",
            "test",
            "table8",
            "--json",
            json1.to_str().expect("utf8 path"),
        ],
        &[("MEMBW_FAULT", "job:panic@table8:5")],
        &ckpt,
    );
    assert!(!run1.status.success(), "interrupted run exits nonzero");
    assert!(
        !json1.join("table8.json").exists(),
        "a failed target archives nothing"
    );

    // Run 2: --resume with a fault now injected at job 0. Job 0 was
    // checkpointed by run 1, so it replays from the archive and the
    // injection never executes — proof the resume path is live; only
    // the previously failed job 5 recomputes (now healthy).
    let json2 = dir.join("json-resumed");
    let run2 = repro(
        &[
            "--scale",
            "test",
            "table8",
            "--resume",
            "--json",
            json2.to_str().expect("utf8 path"),
        ],
        &[("MEMBW_FAULT", "job:panic@table8:0")],
        &ckpt,
    );
    assert!(
        run2.status.success(),
        "resumed run succeeds (job 0 replayed, job 5 recomputed): {}",
        stderr_str(&run2)
    );

    // Reference: one uninterrupted run in a fresh checkpoint dir.
    let json3 = dir.join("json-clean");
    let run3 = repro(
        &[
            "--scale",
            "test",
            "table8",
            "--json",
            json3.to_str().expect("utf8 path"),
        ],
        &[],
        &dir.join("ckpt-fresh"),
    );
    assert!(run3.status.success(), "{}", stderr_str(&run3));

    let resumed = std::fs::read(json2.join("table8.json")).expect("resumed archive");
    let fresh = std::fs::read(json3.join("table8.json")).expect("fresh archive");
    assert_eq!(
        resumed, fresh,
        "resumed JSON archive byte-identical to the uninterrupted run"
    );
    assert_eq!(
        stdout_str(&run2),
        stdout_str(&run3),
        "resumed stdout byte-identical too"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_target_suggests_the_nearest_name() {
    let dir = scratch("suggest");
    let out = repro(&["tabel8"], &[], &dir.join("ckpt"));
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr_str(&out);
    assert!(
        err.contains("did you mean 'table8'"),
        "suggestion rendered: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_lists_every_target() {
    let dir = scratch("help");
    let out = repro(&["--help"], &[], &dir.join("ckpt"));
    assert_eq!(out.status.code(), Some(0));
    let help = stdout_str(&out);
    let listed: Vec<&str> = help
        .lines()
        .find_map(|l| l.strip_prefix("targets: "))
        .expect("a targets line")
        .split_whitespace()
        .collect();
    for t in membw_core::targets::TARGETS.iter().chain(&["all"]) {
        assert!(listed.contains(t), "--help omits {t}: {listed:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seconds_too_large_for_a_duration_are_a_usage_error() {
    let dir = scratch("huge_secs");
    for (flag, secs) in [("--deadline", "1e30"), ("--job-timeout", "1e300")] {
        let out = repro(&[flag, secs, "fig1"], &[], &dir.join("ckpt"));
        let err = stderr_str(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} {secs} exits 2: {err}");
        assert!(err.contains(flag), "error names {flag}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_analytic_flags_are_usage_errors_that_say_why() {
    let dir = scratch("analytic_retired");
    let json = dir.join("json");
    let json_arg = json.to_str().expect("utf8 path");
    let ckpt = dir.join("ckpt");
    let ckpt_arg = ckpt.to_str().expect("utf8 path");
    let sock = dir.join("membw.sock");
    let sock_arg = sock.to_str().expect("utf8 path");
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf8 path");
    let run = ["--scale", "test", "--checkpoint-dir", ckpt_arg];
    let cases: [(&str, Vec<&str>); 5] = [
        (
            "--analytic",
            [&run[..], &["--analytic", "only", "fig3"]].concat(),
        ),
        (
            "--analytic",
            [
                &run[..],
                &["--analytic", "assist", "fig3", "--json", json_arg],
            ]
            .concat(),
        ),
        (
            "--analytic",
            [&run[..], &["--analytic", "off", "fig1"]].concat(),
        ),
        (
            "serve --analytic",
            vec![
                "serve",
                "--socket",
                sock_arg,
                "--store",
                store_arg,
                "--checkpoint-dir",
                ckpt_arg,
                "--analytic",
                "assist",
            ],
        ),
        (
            "query --analytic-rel",
            vec![
                "query",
                "--socket",
                sock_arg,
                "--analytic-rel",
                "600",
                "fig3",
            ],
        ),
    ];
    for (flag, args) in cases {
        // A daemon that accepted the flag would serve forever: bound
        // the wait, then kill it and fail.
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .env_remove("MEMBW_FAULT")
            .env_remove("MEMBW_JOBS")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro spawns");
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("wait").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("repro {args:?} ran instead of exiting");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect output");
        let err = stderr_str(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2: {err}");
        assert!(err.contains(flag), "{args:?}: error names {flag}: {err}");
        assert!(
            err.contains("retired"),
            "{args:?}: error says retired: {err}"
        );
        assert!(
            err.contains("simulation"),
            "{args:?}: error says why: {err}"
        );
        assert!(stdout_str(&out).is_empty(), "{args:?}: nothing rendered");
    }
    assert!(!json.exists(), "no JSON directory created");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `repro serve` on a socket and store under `dir` with the extra
/// flags `args` and environment `envs`, expecting it to exit on its own
/// (a daemon that started would serve forever: it is killed after a
/// generous bound and the test fails).
fn serve_expecting_exit(dir: &std::path::Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("serve")
        .arg("--socket")
        .arg(dir.join("membw.sock"))
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .args(args)
        .env_remove("MEMBW_FAULT")
        .env_remove("MEMBW_JOBS")
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("repro serve spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("repro serve {args:?} with {envs:?} started instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect stderr")
}

#[test]
fn serve_rejects_malformed_environment_like_the_cli() {
    let dir = scratch("serve_env");
    for (var, bad) in [
        ("MEMBW_SWEEP_VERIFY", "yes"),
        ("MEMBW_TRACE_CACHE_MB", "lots"),
    ] {
        let out = serve_expecting_exit(&dir, &[], &[(var, bad)]);
        assert_eq!(out.status.code(), Some(2), "{var}={bad} is a usage error");
        let err = stderr_str(&out);
        assert!(err.contains(var), "error names {var}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_jobs_is_a_usage_error_on_both_subcommands() {
    let dir = scratch("zero_jobs");
    let cli = repro(
        &["--scale", "test", "--jobs", "0", "table1"],
        &[],
        &dir.join("ckpt"),
    );
    let serve = serve_expecting_exit(&dir, &["--jobs", "0"], &[]);
    for (name, out) in [("repro", cli), ("repro serve", serve)] {
        assert_eq!(out.status.code(), Some(2), "{name} --jobs 0 exits 2");
        let err = stderr_str(&out);
        assert!(err.contains("invalid --jobs value \"0\""), "{name}: {err}");
        assert!(stdout_str(&out).is_empty(), "{name}: nothing rendered");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_json_dir_fails_with_the_path_and_continues() {
    let dir = scratch("unwritable");
    // A file where the JSON directory should go: create_dir_all fails.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let bad_json = blocker.join("sub");
    let out = repro(
        &[
            "--scale",
            "test",
            "table2",
            "params",
            "--json",
            bad_json.to_str().expect("utf8 path"),
        ],
        &[],
        &dir.join("ckpt"),
    );
    assert!(!out.status.success(), "archive failure exits nonzero");
    let err = stderr_str(&out);
    assert!(
        err.contains("create JSON directory"),
        "error names the operation: {err}"
    );
    assert!(
        err.contains(bad_json.to_str().unwrap()),
        "error names the path: {err}"
    );
    // The campaign kept going: `params` (which never archives JSON)
    // still printed after table2's archive failed.
    let stdout = stdout_str(&out);
    assert!(
        stdout.contains("Tables 4-5: machine parameters"),
        "later targets still run: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
