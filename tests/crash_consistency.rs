//! Crash-point recovery proof: hard-abort at *every* enumerated I/O
//! point of a checkpointed run, restart, and prove nothing durable was
//! lost and nothing torn is ever served.
//!
//! The fault-injecting I/O layer (`membw_runner::faultio`) numbers
//! every durable-write step — create, write, fsync, rename, directory
//! fsync — process-wide. `MEMBW_FAULT=count:PATH` enumerates them;
//! `io:crash@K` calls `abort()` immediately before point K, which is the
//! strongest crash model short of pulling power: no destructors, no
//! flushes, no unwinding.
//!
//! The harness re-runs this test binary as a subprocess (the `child_*`
//! tests below, which no-op unless their driver env vars are set) so
//! each crash kills a real process and recovery starts from a real
//! restart. Invariants checked after every crash point K:
//!
//! * every published checkpoint artifact still unseals (atomic rename
//!   means torn bytes can only live in `*.tmp`, never in `*.json`);
//! * a `--resume` rerun completes and its rendered output + JSON are
//!   byte-identical to an undisturbed run — at `--jobs 1` and 8;
//! * orphaned `*.tmp` files from the dead process are swept on reopen;
//! * the serve result store never loses a previously sealed entry and
//!   never serves a half-visible one.

use membw_core::run_fig3;
use membw_core::runner::fault::{self, Domain, FAULT_ENV};
use membw_core::runner::{self, persist, CheckpointConfig};
use membw_core::sim::Experiment;
use membw_core::workloads::{Scale, Suite};
use membw_serve::ResultStore;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Driver env vars for the subprocess children. Unset → the child
/// tests pass as no-ops in a normal `cargo test` run.
const FIG3_DIR_ENV: &str = "MEMBW_CRASH_FIG3_DIR";
const STORE_DIR_ENV: &str = "MEMBW_CRASH_STORE_DIR";
const JOBS_ENV: &str = "MEMBW_CRASH_JOBS";
const RESUME_ENV: &str = "MEMBW_CRASH_RESUME";

fn base_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("membw_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The workload under crash test: a real checkpointed fig3 run, small
/// enough (two experiments, test scale) that exploring every I/O point
/// stays fast, large enough to exercise meta writes, many artifacts,
/// and multi-job interleavings.
fn child_fig3_body(dir: &Path, jobs: usize, resume: bool) {
    runner::set_jobs(jobs);
    runner::set_checkpoint(Some(CheckpointConfig {
        root: dir.join("ckpt"),
        resume,
    }));
    let result = run_fig3::run_suite(Suite::Spec92, Scale::Test, &[Experiment::A, Experiment::F])
        .expect("fig3 suite");
    let table = run_fig3::render(&result, "crash probe").render();
    let json = serde_json::to_string(&result).expect("result serializes");
    // Deliberately plain fs: the probe output is scratch, not a durable
    // artifact, so it must not perturb the enumerated I/O points.
    std::fs::write(dir.join("out.txt"), format!("{table}\n{json}\n")).unwrap();
}

/// Subprocess entry: a checkpointed fig3 run driven by env vars.
#[test]
fn child_fig3() {
    let Ok(dir) = std::env::var(FIG3_DIR_ENV) else {
        return;
    };
    let jobs: usize = std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let resume = std::env::var(RESUME_ENV).is_ok_and(|v| v == "1");
    child_fig3_body(Path::new(&dir), jobs, resume);
}

/// Subprocess entry: a serve result-store round-trip driven by env
/// vars. `k-alpha` overwrites a pre-seeded entry; `k-beta` is new.
#[test]
fn child_store() {
    let Ok(dir) = std::env::var(STORE_DIR_ENV) else {
        return;
    };
    let store = ResultStore::open(Path::new(&dir)).expect("open store");
    store.save("k-alpha", "alpha v2\n").expect("save k-alpha");
    store.save("k-beta", "beta payload\n").expect("save k-beta");
}

/// Run one child test in a subprocess with the given env, returning
/// its exit status and captured stderr.
fn run_child(test_name: &str, envs: &[(&str, String)]) -> (std::process::ExitStatus, String) {
    let exe = std::env::current_exe().expect("own test binary");
    let mut cmd = Command::new(exe);
    // --nocapture: libtest's output capture would swallow the abort
    // announcement (the buffer dies with the process).
    cmd.args([
        test_name,
        "--exact",
        "--test-threads=1",
        "--quiet",
        "--nocapture",
    ]);
    // A clean slate: nothing from the outer environment may leak a
    // fault plan or driver var into the child.
    for var in [FIG3_DIR_ENV, STORE_DIR_ENV, JOBS_ENV, RESUME_ENV, FAULT_ENV] {
        cmd.env_remove(var);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn child");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_clean_exit(test_name: &str, status: std::process::ExitStatus, stderr: &str) {
    assert!(
        status.success(),
        "{test_name} child failed ({status:?}):\n{stderr}"
    );
}

/// True when the child died at the injected abort (SIGABRT), false on
/// a clean exit. Anything else fails the test.
fn crashed_at_injection(status: std::process::ExitStatus, stderr: &str) -> bool {
    use std::os::unix::process::ExitStatusExt;
    if status.success() {
        return false;
    }
    assert_eq!(
        status.signal(),
        Some(libc_sigabrt()),
        "child must die at the injected abort, not otherwise ({status:?}):\n{stderr}"
    );
    assert!(
        stderr.contains("MEMBW_FAULT: injected crash at io point"),
        "abort must announce its point:\n{stderr}"
    );
    true
}

/// SIGABRT's number, without a libc dependency.
fn libc_sigabrt() -> i32 {
    6
}

/// Every published artifact in a checkpoint tree must unseal; torn
/// bytes may only ever live in `*.tmp` files.
fn assert_tree_publishable(root: &Path) {
    if !root.exists() {
        return; // crashed before the first mkdir: nothing published
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap() {
            let e = e.unwrap();
            let path = e.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let name = e.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") || name.contains(".corrupt") {
                continue; // inspectable debris, never served
            }
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|err| panic!("unreadable artifact {}: {err}", path.display()));
            if name == "meta.json" {
                // Meta is raw JSON compared byte-for-byte on reopen; a
                // torn meta would poison identity checks.
                serde_json::from_str::<serde::json::Value>(&text)
                    .unwrap_or_else(|err| panic!("torn meta {}: {err}", path.display()));
            } else if name.ends_with(".json") {
                assert!(
                    persist::unseal(&text).is_some(),
                    "published artifact {} fails its seal after a crash",
                    path.display()
                );
            }
        }
    }
}

fn assert_no_tmp(root: &Path) {
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in std::fs::read_dir(&dir).unwrap() {
            let e = e.unwrap();
            let path = e.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let name = e.file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "orphaned tmp survived the resumed run: {}",
                path.display()
            );
        }
    }
}

/// Count the child workload's I/O points by running it once in
/// enumeration mode.
fn count_points(test_name: &str, dir_env: &str, dir: &Path) -> u64 {
    let count_file = dir.join("points.count");
    let (status, stderr) = run_child(
        test_name,
        &[
            (dir_env, dir.join("work").display().to_string()),
            (JOBS_ENV, "1".to_string()),
            (FAULT_ENV, format!("count:{}", count_file.display())),
        ],
    );
    assert_clean_exit(test_name, status, &stderr);
    fault::read_count(&count_file, Domain::Io).expect("count file records the io total")
}

#[test]
fn fig3_recovers_from_a_crash_at_every_io_point() {
    let base = base_dir("fig3");

    // --- Reference: undisturbed runs at jobs 1 and 8 are identical. --
    let ref_dir = base.join("ref1");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let (status, stderr) = run_child(
        "child_fig3",
        &[
            (FIG3_DIR_ENV, ref_dir.display().to_string()),
            (JOBS_ENV, "1".to_string()),
        ],
    );
    assert_clean_exit("reference jobs=1", status, &stderr);
    let reference = std::fs::read(ref_dir.join("out.txt")).expect("reference output");

    let ref8_dir = base.join("ref8");
    std::fs::create_dir_all(&ref8_dir).unwrap();
    let (status, stderr) = run_child(
        "child_fig3",
        &[
            (FIG3_DIR_ENV, ref8_dir.display().to_string()),
            (JOBS_ENV, "8".to_string()),
        ],
    );
    assert_clean_exit("reference jobs=8", status, &stderr);
    assert_eq!(
        std::fs::read(ref8_dir.join("out.txt")).unwrap(),
        reference,
        "undisturbed output must be byte-identical at jobs 1 and 8"
    );

    // --- Enumerate the workload's I/O points. ------------------------
    let count_dir = base.join("count");
    std::fs::create_dir_all(&count_dir).unwrap();
    let total = count_points("child_fig3", FIG3_DIR_ENV, &count_dir);
    assert!(
        total >= 20,
        "a checkpointed fig3 run must enumerate a real I/O surface, got {total}"
    );

    // --- Crash at every point K, then prove recovery. ----------------
    // Parallel over worker threads: each K owns a private directory.
    // The resumed run alternates jobs 1 / jobs 8 so recovery identity
    // is proven at both ends of the parallelism range.
    let ks: Vec<u64> = (1..=total).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let failures = std::sync::Mutex::new(Vec::<String>::new());
    let workers = 8usize;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&k) = ks.get(i) else { break };
                let result = std::panic::catch_unwind(|| explore_crash_point(&base, k, &reference));
                if let Err(p) = result {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic".to_string());
                    failures.lock().unwrap().push(format!("K={k}: {msg}"));
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(
        failures.is_empty(),
        "{} of {total} crash points failed recovery:\n{}",
        failures.len(),
        failures.join("\n")
    );

    // Past the last point the plan never fires: a clean run again.
    let beyond_dir = base.join("beyond");
    std::fs::create_dir_all(&beyond_dir).unwrap();
    let (status, stderr) = run_child(
        "child_fig3",
        &[
            (FIG3_DIR_ENV, beyond_dir.display().to_string()),
            (JOBS_ENV, "1".to_string()),
            (FAULT_ENV, format!("io:crash@{}", total + 1000)),
        ],
    );
    assert_clean_exit("crash beyond the last point", status, &stderr);
    assert_eq!(
        std::fs::read(beyond_dir.join("out.txt")).unwrap(),
        reference
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// One crash point: abort at K, check the debris, resume, check the
/// bytes.
fn explore_crash_point(base: &Path, k: u64, reference: &[u8]) {
    let dir = base.join(format!("k{k}"));
    std::fs::create_dir_all(&dir).unwrap();
    let (status, stderr) = run_child(
        "child_fig3",
        &[
            (FIG3_DIR_ENV, dir.display().to_string()),
            (JOBS_ENV, "1".to_string()),
            (FAULT_ENV, format!("io:crash@{k}")),
        ],
    );
    assert!(
        crashed_at_injection(status, &stderr),
        "K={k}: the plan must fire within the enumerated range"
    );
    // Debris rule: everything published is still sealed.
    assert_tree_publishable(&dir.join("ckpt"));
    // Restart with resume: completed work replays, the rest re-runs,
    // and the output is byte-identical to an undisturbed run.
    let resume_jobs = if k.is_multiple_of(2) { 8 } else { 1 };
    let (status, stderr) = run_child(
        "child_fig3",
        &[
            (FIG3_DIR_ENV, dir.display().to_string()),
            (JOBS_ENV, resume_jobs.to_string()),
            (RESUME_ENV, "1".to_string()),
        ],
    );
    assert_clean_exit("resume", status, &stderr);
    let out = std::fs::read(dir.join("out.txt")).unwrap();
    assert_eq!(
        out, reference,
        "K={k}: resumed output (jobs {resume_jobs}) diverged from the reference"
    );
    // The dead process's orphaned tmps were swept by the reopen.
    assert_no_tmp(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_store_survives_a_crash_at_every_io_point() {
    let base = base_dir("store");

    // Enumerate the store round-trip's I/O surface.
    let count_dir = base.join("count");
    std::fs::create_dir_all(&count_dir).unwrap();
    // Pre-seed k-alpha in the same dir the child will reuse, exactly
    // as the exploration runs do, so the count matches them.
    let work = count_dir.join("work");
    ResultStore::open(&work)
        .unwrap()
        .save("k-alpha", "alpha v1\n")
        .unwrap();
    let total = count_points("child_store", STORE_DIR_ENV, &count_dir);
    assert!(
        total >= 8,
        "two sealed saves must enumerate a real I/O surface, got {total}"
    );

    for k in 1..=total {
        let dir = base.join(format!("k{k}"));
        let store = ResultStore::open(&dir).expect("seed store");
        store.save("k-alpha", "alpha v1\n").expect("seed k-alpha");
        drop(store);
        let (status, stderr) = run_child(
            "child_store",
            &[
                (STORE_DIR_ENV, dir.display().to_string()),
                (FAULT_ENV, format!("io:crash@{k}")),
            ],
        );
        assert!(
            crashed_at_injection(status, &stderr),
            "K={k}: the plan must fire within the enumerated range"
        );
        // Restart: the store must still serve every sealed entry and
        // never a torn one.
        let store = ResultStore::open(&dir).expect("reopen after crash");
        let alpha = store.load("k-alpha");
        assert!(
            alpha.as_deref() == Some("alpha v1\n") || alpha.as_deref() == Some("alpha v2\n"),
            "K={k}: a sealed entry was lost or torn: {alpha:?}"
        );
        let beta = store.load("k-beta");
        assert!(
            beta.is_none() || beta.as_deref() == Some("beta payload\n"),
            "K={k}: half-visible entry served: {beta:?}"
        );
        // No quarantine can have happened: atomic publication means a
        // crash leaves debris in `*.tmp`, never a torn `*.json`.
        for e in std::fs::read_dir(&dir).unwrap() {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !name.contains(".corrupt"),
                "K={k}: crash debris was quarantined as corrupt: {name}"
            );
            assert!(
                !name.ends_with(".tmp"),
                "K={k}: reopen must sweep the dead process's tmp: {name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}
