//! Integration tests for the analytic ECM fast path: predictor
//! determinism (property-tested over random workloads), the
//! `analytic-bound` invariant over every simulated Figure 3 cell under
//! `--audit strict` at two job counts, and byte-identity of assisted
//! simulation against the plain (`--analytic off`) output.

use membw::analytic::ecm::{self, AnalyticMode};
use membw::audit::{self, AuditLevel};
use membw::fastpath;
use membw::runner;
use membw::sim::{Experiment, MachineSpec};
use membw::sweep::SweepMode;
use membw::targets;
use membw::trace::signature::compute_signature;
use membw::trace::{MemRef, VecWorkload};
use membw::workloads::Scale;
use proptest::prelude::*;

fn all_specs() -> Vec<MachineSpec> {
    Experiment::ALL
        .into_iter()
        .flat_map(|e| [MachineSpec::spec92(e), MachineSpec::spec95(e)])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The predictor is a pure function of the signature: recomputing
    /// the signature and re-predicting yields bit-identical output for
    /// every machine spec, and every emitted prediction is finite,
    /// non-negative, and carries a bound.
    #[test]
    fn predictor_is_deterministic_and_always_bounded(
        refs in prop::collection::vec((0u64..4096, prop::bool::ANY), 40..300),
    ) {
        let refs: Vec<MemRef> = refs
            .iter()
            .map(|&(slot, write)| {
                if write {
                    MemRef::write(slot * 4, 4)
                } else {
                    MemRef::read(slot * 4, 4)
                }
            })
            .collect();
        let w = VecWorkload::new("prop", refs);
        let sig_a = compute_signature("prop", "Test", &w);
        let sig_b = compute_signature("prop", "Test", &w);
        prop_assert_eq!(&sig_a, &sig_b, "signature computation must be deterministic");

        for spec in all_specs() {
            let cfg = fastpath::ecm_config(&spec);
            let p = ecm::predict_time(&sig_a.kernel, &cfg)
                .expect("signature covers every machine-spec block size");
            let q = ecm::predict_time(&sig_b.kernel, &cfg).expect("same inputs");
            prop_assert_eq!(p.cycles.to_bits(), q.cycles.to_bits());
            prop_assert_eq!(p.bound.to_bits(), q.bound.to_bits());
            prop_assert!(p.cycles.is_finite() && p.cycles >= 0.0);
            prop_assert!(p.bound.is_finite() && p.bound > 0.0);
            let sum = p.t_p + p.t_l + p.t_b;
            prop_assert!(
                (sum - p.cycles).abs() <= 1e-9 * p.cycles.max(1.0),
                "decomposition must sum to the total: {} vs {}",
                sum,
                p.cycles
            );
        }
    }
}

/// `analytic-bound` holds on every simulated Figure 3 cell at test
/// scale: under `--audit strict` a single violation turns the render
/// into an error, at one job and at eight.
#[test]
fn analytic_bound_holds_on_every_fig3_cell() {
    for jobs in [1usize, 8] {
        runner::set_jobs(jobs);
        let result = ecm::with_mode(AnalyticMode::Assist, || {
            audit::with_level(AuditLevel::Strict, || {
                targets::render_target("fig3", Scale::Test, SweepMode::Stack)
            })
        });
        assert!(
            result.is_ok(),
            "analytic-bound violated on fig3 at --jobs {jobs}: {:?}",
            result.err()
        );
    }
}

/// Assist mode only audits — it must never perturb the simulated
/// output. This is the library-level form of the CLI guarantee that
/// `--analytic off` (the default) stays byte-identical to the seed.
#[test]
fn assist_mode_never_changes_simulated_bytes() {
    for target in fastpath::ANALYTIC_TARGETS {
        let off = ecm::with_mode(AnalyticMode::Off, || {
            targets::render_target(target, Scale::Test, SweepMode::Stack)
        })
        .expect("plain render");
        let assist = ecm::with_mode(AnalyticMode::Assist, || {
            audit::with_level(AuditLevel::Warn, || {
                targets::render_target(target, Scale::Test, SweepMode::Stack)
            })
        })
        .expect("assisted render");
        assert_eq!(
            off.stdout, assist.stdout,
            "{target}: assist mode changed the simulated bytes"
        );
        assert_eq!(
            off.artifacts.len(),
            assist.artifacts.len(),
            "{target}: assist mode changed the artifact set"
        );
    }
}

/// The analytic rendering is deliberately distinct from simulation:
/// labelled with the model version so a prediction can never be
/// mistaken for a measurement.
#[test]
fn analytic_renders_carry_the_model_label() {
    for target in fastpath::ANALYTIC_TARGETS {
        let r = fastpath::render_target_analytic(target, Scale::Test).expect("supported target");
        assert!(
            r.rendered.stdout.contains(ecm::MODEL_VERSION),
            "{target}: analytic output must name its model version"
        );
        assert!(
            r.worst_rel.is_finite(),
            "{target}: worst_rel must be finite"
        );
    }
}
