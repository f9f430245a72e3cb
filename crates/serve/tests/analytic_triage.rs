//! Serve-side triage of the analytic fast lane, exercised directly
//! through `Server::handle_request` (no sockets):
//!
//! * a client whose tolerance admits the model's bound gets a
//!   microsecond `source=analytic` answer with full provenance (model
//!   version + bound), and the memoized prediction cache answers the
//!   repeat without recomputing;
//! * a client that opts out (`analytic_rel_permille: 0`), a target
//!   without a model (table7, fig4, table8), or a bound looser than the
//!   tolerance all fall back to real simulation — byte-identical to the
//!   CLI render;
//! * a lane-on server answers every request the lane does not take
//!   byte-identically to a lane-off server;
//! * the `stats` pseudo-target reports the triage counters.
//!
//! Replies carry the process-wide `jobs` counter delta, so the tests run
//! one at a time behind [`serial`]: a concurrent test's jobs would leak
//! into another's whole-reply comparison.

use membw_core::fastpath;
use membw_core::service::{source, ServiceRequest, ServiceResponse, STATS_TARGET};
use membw_core::sweep::SweepMode;
use membw_core::targets;
use membw_core::workloads::Scale;
use membw_serve::{ResultStore, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

const ANALYTIC_TARGET: &str = "fig3";
const SIMULATED_TARGET: &str = "table8"; // no analytic model: always simulates
/// Targets that lost their analytic model: they simulate like table8.
const UNMODELLED_TARGETS: [&str; 2] = ["table7", "fig4"];
/// Generous tolerance: every analytic render at test scale fits.
const WIDE_TOLERANCE: u32 = 100_000;

/// Hold for a whole test: serializes this binary's tests (see the module
/// docs). A panicking test poisons the lock without invalidating it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn request(target: &str, tolerance: u32) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = "test".to_string();
    req.analytic_rel_permille = tolerance;
    req
}

fn server(tag: &str, analytic: bool) -> (Server, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "membw_triage_{tag}_{}_{}",
        if analytic { "on" } else { "off" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        analytic,
        ..ServeConfig::default()
    };
    let store = ResultStore::open(&dir).expect("open store");
    (Server::new(config, store), dir)
}

fn stats(server: &Server) -> membw_core::service::ServeStats {
    match server.handle_request(&ServiceRequest::new(STATS_TARGET)) {
        ServiceResponse::Stats(s) => s,
        other => panic!("stats request must get a stats response, got {other:?}"),
    }
}

#[test]
fn tolerant_clients_get_analytic_answers_with_provenance() {
    let _serial = serial();
    let (server, dir) = server("hit", true);
    let expected = fastpath::render_target_analytic(ANALYTIC_TARGET, Scale::Test)
        .expect("supported target")
        .rendered
        .stdout;

    for round in 0..2 {
        // Round 0 computes the prediction; round 1 must be served from
        // the memoized cache — same counters either way.
        match server.handle_request(&request(ANALYTIC_TARGET, WIDE_TOLERANCE)) {
            ServiceResponse::Ok {
                source: s,
                model,
                bound_rel_permille,
                stdout,
                jobs,
                ..
            } => {
                assert_eq!(s, source::ANALYTIC, "round {round}");
                assert_eq!(
                    model.as_deref(),
                    Some(membw_core::analytic::ecm::MODEL_VERSION),
                    "round {round}: analytic answer must name its model"
                );
                let bound = bound_rel_permille.expect("analytic answer must carry its bound");
                assert!(
                    0 < bound && bound <= u64::from(WIDE_TOLERANCE),
                    "round {round}: bound {bound} must fit the client tolerance"
                );
                assert_eq!(stdout, expected, "round {round}: analytic bytes");
                assert_eq!(jobs, 0, "round {round}: no simulation jobs ran");
            }
            other => panic!("round {round}: expected analytic ok, got {other:?}"),
        }
    }
    let s = stats(&server);
    assert_eq!((s.analytic, s.simulated), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opt_outs_loose_bounds_and_unmodelled_targets_simulate() {
    let _serial = serial();
    let (server, dir) = server("fallback", true);
    let reference = targets::render_target(ANALYTIC_TARGET, Scale::Test, SweepMode::Stack)
        .expect("reference render")
        .stdout;

    // analytic_rel_permille: 0 is an explicit opt-out.
    match server.handle_request(&request(ANALYTIC_TARGET, 0)) {
        ServiceResponse::Ok {
            source: s,
            model,
            stdout,
            ..
        } => {
            assert_eq!(s, source::COMPUTED);
            assert_eq!(model, None, "simulated answers carry no model");
            assert_eq!(
                stdout, reference,
                "simulation must be byte-identical to the CLI"
            );
        }
        other => panic!("expected simulated ok, got {other:?}"),
    }

    // A tolerance tighter than the model's bound forces simulation too
    // (every analytic render at test scale has a bound over 1 permille);
    // the store now answers this repeat — still a real result.
    match server.handle_request(&request(ANALYTIC_TARGET, 1)) {
        ServiceResponse::Ok { source: s, .. } => assert_eq!(s, source::STORE),
        other => panic!("expected store ok, got {other:?}"),
    }

    // No analytic model at all: simulate, whatever the tolerance says.
    for target in [SIMULATED_TARGET].into_iter().chain(UNMODELLED_TARGETS) {
        match server.handle_request(&request(target, WIDE_TOLERANCE)) {
            ServiceResponse::Ok { source: s, .. } => assert_eq!(s, source::COMPUTED, "{target}"),
            other => panic!("{target}: expected simulated ok, got {other:?}"),
        }
    }

    let s = stats(&server);
    assert_eq!(s.analytic, 0, "no analytic answers were admissible");
    assert_eq!(s.simulated, 4);
    assert_eq!(s.store, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_fast_lane_is_byte_identical_to_a_plain_server() {
    let _serial = serial();
    let (plain, plain_dir) = server("plain", false);
    let (lane_on, lane_on_dir) = server("lane", true);
    // An opted-out request for the modelled target, and a target the
    // lane has no model for even at a tolerance that admits anything.
    for req in [
        request(ANALYTIC_TARGET, 0),
        request(UNMODELLED_TARGETS[0], WIDE_TOLERANCE),
    ] {
        let target = req.target.clone();
        let a = plain.handle_request(&req);
        let b = lane_on.handle_request(&req);
        let (a, b) = (
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
        );
        assert_eq!(
            a, b,
            "{target}: a lane-on server must answer what the lane skips like a lane-off one"
        );
        assert!(
            a.contains("\"computed\""),
            "{target}: both must have simulated"
        );
    }
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&lane_on_dir);
}
