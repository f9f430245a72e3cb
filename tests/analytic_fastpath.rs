//! Integration tests for the ECM model the benchmark still times:
//! predictor determinism (property-tested over random workloads) and
//! the model label on its Figure 3 rendering.

use membw::analytic::ecm;
use membw::fastpath;
use membw::sim::{Experiment, MachineSpec};
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
