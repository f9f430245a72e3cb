//! Cancellation, deadlines, and the memory governor end to end at the
//! library level: a run cancelled mid-batch leaves a durable checkpoint
//! and, resumed, renders byte-identically to an uninterrupted run at
//! any `--jobs` setting; a deadline cancels with its own reason; a
//! zero memory budget degrades the run without changing a byte of
//! output.

use membw::runner::{
    checkpointed, fault, metrics, metrics_delta, with_checkpoint, with_jobs, CancelToken,
    CheckpointConfig, Governor, RunContext,
};
use membw::sim::{Decomposition, Experiment, MemSystemStats};
use membw::workloads::{Scale, Suite};
use membw::{run_fig3, run_table7, run_table8};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The fault plan is process-global; tests that install one must not
/// overlap.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Install a `MEMBW_FAULT` plan for the guard's lifetime.
struct PlanGuard;

impl PlanGuard {
    fn set(spec: &str) -> Self {
        fault::set_plan(Some(fault::FaultPlan::parse(spec).expect("fault plan")));
        PlanGuard
    }
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::set_plan(None);
    }
}

/// A unique throwaway checkpoint root, removed on drop.
struct TempCheckpoint(PathBuf);

impl TempCheckpoint {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "membw-cancel-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        TempCheckpoint(dir)
    }

    fn config(&self, resume: bool) -> Option<CheckpointConfig> {
        Some(CheckpointConfig {
            root: self.0.clone(),
            resume,
        })
    }
}

impl Drop for TempCheckpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cancelled_run_resumes_byte_identically_at_any_jobs_setting() {
    let _lock = PLAN_LOCK.lock().unwrap();
    let (_, clean_table) =
        with_jobs(1, || run_table7::run(Scale::Test)).expect("clean run succeeds");
    let clean = clean_table.render();

    for jobs in [1, 8] {
        let ckpt = TempCheckpoint::new("resume");

        // Phase 1: the injected cancel fires when job table7:1
        // dispatches; the batch drains, completed jobs land in the
        // checkpoint, and the failure table names the cancellation.
        {
            let _plan = PlanGuard::set("job:cancel@table7:1");
            let token = CancelToken::new();
            let err = RunContext {
                jobs,
                checkpoint: ckpt.config(false),
                cancel: token.clone(),
                ..RunContext::clone(&RunContext::current())
            }
            .scope(|| run_table7::run(Scale::Test))
            .expect_err("the cancelled batch must surface an error");
            assert!(token.is_cancelled(), "the injected cancel tripped");
            let failures = err.failed_jobs();
            assert!(!failures.is_empty(), "at least the injected job drains");
            assert!(
                failures.iter().any(|f| f.error.contains("cancelled")),
                "failures name the cancellation: {failures:?}"
            );
            assert!(
                failures.iter().all(|f| f.attempts <= 1),
                "cancelled jobs are never retried: {failures:?}"
            );
        }

        // Phase 2: resume under a fresh (live) token. Checkpointed jobs
        // replay, drained jobs recompute, and stdout is byte-identical
        // to the run that was never interrupted.
        let (_, resumed) = with_checkpoint(ckpt.config(true), || {
            with_jobs(jobs, || run_table7::run(Scale::Test))
        })
        .expect("the resumed run completes");
        assert_eq!(
            resumed.render(),
            clean,
            "resumed output must be byte-identical at jobs={jobs}"
        );
    }
}

#[test]
fn deadline_cancels_with_its_own_reason_and_rerun_is_identical() {
    let _lock = PLAN_LOCK.lock().unwrap();
    let (_, clean_table) =
        with_jobs(1, || run_table8::run(Scale::Test)).expect("clean run succeeds");
    let clean = clean_table.render();

    // An already-expired deadline cancels every job before dispatch.
    let token = CancelToken::new();
    token.set_deadline(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    let err = RunContext {
        jobs: 4,
        cancel: token.clone(),
        ..RunContext::clone(&RunContext::current())
    }
    .scope(|| run_table8::run(Scale::Test))
    .expect_err("the expired deadline must cancel the batch");
    assert!(token.is_cancelled());
    let failures = err.failed_jobs();
    assert!(!failures.is_empty());
    assert!(
        failures
            .iter()
            .all(|f| f.error.contains("deadline exceeded")),
        "deadline cancellations carry their reason: {failures:?}"
    );
    assert!(
        failures.iter().all(|f| f.attempts == 0),
        "jobs cancelled before dispatch report zero attempts: {failures:?}"
    );

    // Outside the expired token the same target runs clean and
    // byte-identical.
    let (_, rerun) = with_jobs(4, || run_table8::run(Scale::Test)).expect("rerun completes");
    assert_eq!(rerun.render(), clean);
}

#[test]
fn zero_mem_budget_degrades_without_changing_output() {
    let _lock = PLAN_LOCK.lock().unwrap();
    let (_, clean7) = with_jobs(1, || run_table7::run(Scale::Test)).expect("clean table7");
    let (_, clean8) = with_jobs(1, || run_table8::run(Scale::Test)).expect("clean table8");

    // The strictest possible budget: the governor must throttle job
    // admission instead of exceeding it, and the science must not
    // notice.
    let gov = Arc::new(Governor::with_budget_mb(0));
    let (t7, t8) = RunContext {
        jobs: 8,
        governor: Arc::clone(&gov),
        ..RunContext::clone(&RunContext::current())
    }
    .scope(|| {
        let (_, t7) = run_table7::run(Scale::Test).expect("budgeted table7");
        let (_, t8) = run_table8::run(Scale::Test).expect("budgeted table8");
        (t7, t8)
    });
    assert_eq!(t7.render(), clean7.render(), "table7 byte-identical");
    assert_eq!(t8.render(), clean8.render(), "table8 byte-identical");

    let stats = gov.stats();
    assert_eq!(stats.budget_bytes, Some(0));
    assert_ne!(
        stats.level, "normal",
        "a zero budget forces degradation: {stats:?}"
    );
    assert!(
        stats.events >= 1,
        "escalations are recorded as loud events: {stats:?}"
    );
}

#[test]
fn v1_fig3_checkpoint_is_not_resumed_into_the_grouped_job_layout() {
    let _lock = PLAN_LOCK.lock().unwrap();
    let render = |r: &run_fig3::Fig3Result| run_fig3::render(r, "Figure 3").render();
    let clean = render(
        &run_fig3::run_suite(Suite::Spec92, Scale::Test, &Experiment::ALL).expect("clean run"),
    );

    // A store in the v1 layout — one job per (benchmark, experiment),
    // 42 for SPEC92 — whose every archived result is poisoned. Were it
    // replayed into the (benchmark, core) layout, the render would
    // change.
    let ckpt = TempCheckpoint::new("fig3-v1");
    let poison = Decomposition {
        t_p: 1,
        t_i: 2,
        t: 3,
        f_p: 1.0 / 3.0,
        f_l: 1.0 / 3.0,
        f_b: 1.0 / 3.0,
        full_mem: MemSystemStats::default(),
        uops: 1,
    };
    let archived = with_checkpoint(ckpt.config(false), || {
        checkpointed(
            "fig3/SPEC92",
            "v1/fig3/SPEC92/Test/7x[A,B,C,D,E,F]",
            42,
            |_| (poison, 0.5, 0.25),
        )
    });
    assert!(archived.iter().all(Result::is_ok));
    let v1_dirs = std::fs::read_dir(&ckpt.0).unwrap().count();
    assert_eq!(v1_dirs, 1, "the v1 store is on disk");

    // Resuming recomputes every job and renders byte-identically.
    let before = metrics();
    let resumed = with_checkpoint(ckpt.config(true), || {
        run_fig3::run_suite(Suite::Spec92, Scale::Test, &Experiment::ALL)
    })
    .expect("resumed run");
    assert_eq!(
        metrics_delta(before, metrics()).resumed,
        0,
        "nothing replayed"
    );
    assert_eq!(render(&resumed), clean, "full recompute, byte-identical");

    // The v2 store lands beside the v1 one, and a second resume
    // replays all 21 (benchmark, core) jobs from it.
    assert_eq!(std::fs::read_dir(&ckpt.0).unwrap().count(), 2);
    let before = metrics();
    let again = with_checkpoint(ckpt.config(true), || {
        run_fig3::run_suite(Suite::Spec92, Scale::Test, &Experiment::ALL)
    })
    .expect("second resume");
    assert_eq!(metrics_delta(before, metrics()).resumed, 21);
    assert_eq!(render(&again), clean);
}
