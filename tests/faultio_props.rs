//! Property tests for the fault-injecting I/O layer's two sharpest
//! recovery guarantees:
//!
//! * the orphaned-tmp sweep NEVER removes a temp file whose writing
//!   process is still alive, for any artifact name or PID shape — a
//!   sweep that raced a live writer would tear an in-flight atomic
//!   publish;
//! * a torn rename (old contents destroyed, new contents half-written)
//!   NEVER yields a servable entry — the seal check catches every
//!   half-visible prefix, for any payload.
//!
//! The torn-rename properties install a process-global fault plan
//! ([`fault::set_plan`]), so this lives in its own test binary and
//! plan users serialize on one mutex.

use membw::runner::{fault, persist};
use membw_serve::ResultStore;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes tests that install the process-global fault plan.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Distinct scratch dir per proptest case (cases run re-entrantly).
static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "membw_fprops_{tag}_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run `f` with `spec` installed as the process-global plan. The
/// caller must already hold [`PLAN_LOCK`] for its whole test body —
/// including any seeding I/O — so another case's plan can never tear
/// this case's setup writes.
fn with_plan<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    fault::set_plan(Some(fault::FaultPlan::parse(spec).expect("spec parses")));
    let out = f();
    fault::set_plan(None);
    out
}

/// Artifact-name strategy: realistic checkpoint/store shapes plus
/// adversarial ones (dots, embedded `.p`, digit runs).
fn name_strategy() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.p";
    prop::collection::vec(0usize..CHARS.len(), 1..12).prop_map(|idx| {
        let mut s: String = idx.iter().map(|&i| CHARS[i] as char).collect();
        s.push_str(".json");
        s
    })
}

/// Printable payload strategy (no regex support in the vendored shim).
fn payload_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 1..200)
        .prop_map(|v| String::from_utf8(v).expect("printable ASCII"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Liveness guard: a temp file carrying a live PID (ours) survives
    /// every sweep; the same name with a dead PID, and bare legacy
    /// `.tmp` names, are always claimed.
    #[test]
    fn sweep_never_claims_a_live_writers_tmp(name in name_strategy(), dead_pid in 400_000_000u32..=u32::MAX) {
        let dir = case_dir("sweep");
        let live = dir.join(format!("{name}.p{}.tmp", std::process::id()));
        let dead = dir.join(format!("{name}.x.p{dead_pid}.tmp"));
        let bare = dir.join(format!("{name}.tmp"));
        for p in [&live, &dead, &bare] {
            std::fs::write(p, b"in flight").unwrap();
        }
        let swept = persist::sweep_orphaned_tmp(&dir);
        prop_assert_eq!(swept, 2, "exactly the dead and bare tmps");
        prop_assert!(live.exists(), "live writer's tmp must survive the sweep");
        prop_assert!(!dead.exists(), "dead writer's tmp must be claimed");
        prop_assert!(!bare.exists(), "legacy bare tmp must be claimed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Torn rename vs. the seal: for any payload, a rename that leaves
    /// half the new bytes over the old entry must fail loudly, and the
    /// debris must never unseal.
    #[test]
    fn torn_rename_never_leaves_a_servable_artifact(payload in payload_strategy()) {
        let _guard = PLAN_LOCK.lock().unwrap();
        let dir = case_dir("torn");
        let fin = dir.join("artifact.json");
        let old = persist::seal("{\"v\": \"old\"}");
        persist::write_atomic(&fin, old.as_bytes()).expect("seed");
        let new = persist::seal(&format!("{{\"v\": {payload:?}}}"));
        let err = with_plan("io:tornrename", || {
            persist::write_atomic(&fin, new.as_bytes())
        });
        prop_assert!(err.is_err(), "a torn publish must be reported");
        let debris = std::fs::read_to_string(&fin).unwrap();
        if debris != old {
            // The old entry was destroyed mid-swap: the remains must
            // fail verification, so no reader ever serves them.
            prop_assert!(
                persist::unseal(&debris).is_none(),
                "half-visible artifact must never unseal: {debris:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// End to end through the serve store: after a torn overwrite, a
    /// load either quarantines (miss) or returns the OLD payload —
    /// never any prefix of the new one.
    #[test]
    fn store_never_serves_a_half_visible_entry(payload in payload_strategy()) {
        let _guard = PLAN_LOCK.lock().unwrap();
        let dir = case_dir("store");
        let store = ResultStore::open(&dir).expect("open");
        store.save("key", "old payload\n").expect("seed");
        let err = with_plan("io:tornrename", || store.save("key", &payload));
        prop_assert!(err.is_err(), "the torn save must be reported");
        match store.load("key") {
            None => {} // quarantined: the recompute path replaces it
            Some(served) => prop_assert_eq!(
                served,
                "old payload\n".to_string(),
                "only the old sealed payload may ever be served"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
