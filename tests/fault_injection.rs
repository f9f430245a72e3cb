//! Fault tolerance end to end at the library level: an injected
//! per-job panic (or stall) fails that job alone — siblings complete,
//! unaffected batches render byte-identically with or without the
//! fault at any `--jobs` setting, and the failure is reported as a
//! typed error naming the job.

use membw::runner::{fault, with_jobs, RunContext};
use membw::workloads::Scale;
use membw::{run_table7, run_table8};
use std::sync::Mutex;
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

#[test]
fn injected_panic_fails_one_job_and_names_it() {
    let _lock = PLAN_LOCK.lock().unwrap();
    let _plan = PlanGuard::set("job:panic@table7:2");
    for jobs in [1, 8] {
        let err = with_jobs(jobs, || run_table7::run(Scale::Test))
            .expect_err("the injected fault must surface");
        let failures = err.failed_jobs();
        assert_eq!(failures.len(), 1, "exactly the injected job fails");
        let f = &failures[0];
        assert_eq!(f.label, "table7");
        assert_eq!(f.index, 2);
        assert_eq!(f.attempts, 1, "no retries configured");
        assert!(!f.job.is_empty(), "failure names the benchmark");
        assert!(
            f.error.contains("injected fault at table7:2"),
            "panic message preserved: {}",
            f.error
        );
    }
}

#[test]
fn unaffected_batches_render_byte_identically_under_a_fault() {
    let _lock = PLAN_LOCK.lock().unwrap();
    let (_, clean_serial) =
        with_jobs(1, || run_table8::run(Scale::Test)).expect("clean run succeeds");
    let clean = clean_serial.render();

    // A fault in table7 must not perturb table8's output in any way,
    // serial or parallel — the injection hooks key on the batch label.
    let _plan = PlanGuard::set("job:panic@table7:0");
    assert!(
        with_jobs(1, || run_table7::run(Scale::Test)).is_err(),
        "the fault is live"
    );
    for jobs in [1, 8] {
        let (_, faulted) =
            with_jobs(jobs, || run_table8::run(Scale::Test)).expect("table8 is healthy");
        assert_eq!(
            faulted.render(),
            clean,
            "table8 must be byte-identical with the table7 fault live at jobs={jobs}"
        );
    }
}

#[test]
fn injected_stall_trips_the_job_deadline() {
    let _lock = PLAN_LOCK.lock().unwrap();
    // Job 1 sleeps 1.2 s against a 300 ms deadline; healthy Test-scale
    // jobs finish well inside it.
    let _plan = PlanGuard::set("job:slow@table7:1:1200");
    let err = RunContext {
        jobs: 4,
        job_timeout: Some(Duration::from_millis(300)),
        ..RunContext::clone(&RunContext::current())
    }
    .scope(|| run_table7::run(Scale::Test))
    .expect_err("the stalled job must be marked failed");
    let failures = err.failed_jobs();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].index, 1);
    assert!(
        failures[0].error.contains("deadline"),
        "timeout reported as a deadline overrun: {}",
        failures[0].error
    );
}
