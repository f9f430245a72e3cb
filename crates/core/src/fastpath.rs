//! The analytic fast path: machine-spec bridge, the assist-mode audit
//! hook, and the analytic-only Figure 3 renderer.
//!
//! Three entry points, one per `--analytic` mode consumer:
//!
//! * [`ecm_config`] converts a full [`MachineSpec`] into the slice the
//!   ECM predictor reads;
//! * `assist_fig3` is called by `run_fig3` after simulation to feed
//!   every simulated cell and its prediction through the auditor's
//!   `analytic-bound` invariant;
//! * [`render_target_analytic`] renders a supported target from
//!   signatures alone — microseconds of arithmetic, no trace arena,
//!   admitted to the memory governor as *light* work (no arena
//!   accounting, never throttled).
//!
//! Analytic output is deliberately **not** byte-compatible with the
//! simulated tables: every analytic table is labelled with the model
//! version and carries a ± relative-bound column, so a prediction can
//! never be mistaken for a measurement.

use crate::audit::Auditor;
use crate::report::Table;
use crate::run_fig3::Fig3Cell;
use crate::targets::RenderedTarget;
use membw_analytic::ecm::{self, AnalyticMode, EcmConfig, MODEL_VERSION};
use membw_runner::ambient_governor;
use membw_sim::{Experiment, MachineSpec};
use membw_workloads::{suite92, suite95, Benchmark, Scale, Suite};

/// `true` when the current thread runs with `--analytic assist`.
pub fn assist_enabled() -> bool {
    ecm::configured_mode() == AnalyticMode::Assist
}

/// The targets [`render_target_analytic`] can answer.
pub const ANALYTIC_TARGETS: [&str; 1] = ["fig3"];

/// Whether `target` has an analytic rendering.
pub fn analytic_supported(target: &str) -> bool {
    ANALYTIC_TARGETS.contains(&target)
}

/// The slice of a machine specification the ECM model consumes.
pub fn ecm_config(spec: &MachineSpec) -> EcmConfig {
    EcmConfig {
        in_order: spec.core == membw_sim::CoreKind::InOrder,
        blocking: spec.mem.blocking,
        tagged_prefetch: spec.mem.tagged_prefetch,
        issue_width: u64::from(spec.issue_width),
        mispredict_penalty: spec.mispredict_penalty,
        l1_bytes: spec.mem.l1_bytes,
        l1_block: spec.mem.l1_block,
        l2_bytes: spec.mem.l2_bytes,
        l2_block: spec.mem.l2_block,
        l2_latency: spec.mem.l2_latency,
        mem_latency: spec.mem.mem_latency,
        bus1_bytes_per_cycle: spec.mem.bus1_width as f64 / spec.mem.bus1_ratio.max(1) as f64,
        bus2_bytes_per_cycle: spec.mem.bus2_width as f64 / spec.mem.bus2_ratio.max(1) as f64,
    }
}

fn spec_for(suite: Suite, e: Experiment) -> MachineSpec {
    match suite {
        Suite::Spec92 => MachineSpec::spec92(e),
        Suite::Spec95 => MachineSpec::spec95(e),
    }
}

fn calibrating() -> bool {
    std::env::var("MEMBW_ANALYTIC_CALIBRATE").is_ok_and(|v| v == "1")
}

fn calibrate_line(cell: &str, predicted: f64, bound: f64, simulated: f64) {
    if calibrating() {
        let rel_err = if simulated != 0.0 {
            (predicted - simulated).abs() / simulated
        } else {
            f64::INFINITY
        };
        eprintln!(
            "calibrate[fig3] {cell}: pred={predicted:.1} sim={simulated:.1} \
             rel_err={rel_err:.3} bound={bound:.1}"
        );
    }
}

/// Assist hook for Figure 3: check every simulated decomposition cell
/// against the predicted total cycle count.
pub(crate) fn assist_fig3(
    audit: &mut Auditor,
    suite: Suite,
    benchmarks: &[Benchmark],
    cells: &[Fig3Cell],
) {
    for b in benchmarks {
        let sig = b.signature();
        for c in cells.iter().filter(|c| c.benchmark == b.name()) {
            let Some(&e) = Experiment::ALL.iter().find(|e| e.label() == c.experiment) else {
                continue;
            };
            let cfg = ecm_config(&spec_for(suite, e));
            let Some(pred) = ecm::predict_time(&sig.kernel, &cfg) else {
                continue;
            };
            let cell = format!("{}/{}", c.benchmark, c.experiment);
            let simulated = c.decomposition.t as f64;
            calibrate_line(&cell, pred.cycles, pred.bound, simulated);
            audit.analytic_bound(&cell, pred.model, pred.cycles, pred.bound, simulated);
        }
    }
}

/// One analytic rendering plus the worst relative bound across its
/// cells (the serve triage signal).
pub struct AnalyticRender {
    /// The rendered output (stdout + artifacts, like a simulated run).
    pub rendered: RenderedTarget,
    /// Worst `bound / prediction` over every rendered cell.
    pub worst_rel: f64,
    /// Model version that produced the render (serve provenance).
    pub model: &'static str,
}

fn fig3_analytic(scale: Scale) -> AnalyticRender {
    let mut out = RenderedTarget {
        stdout: String::new(),
        artifacts: Vec::new(),
    };
    let mut worst_rel = 0.0f64;
    for (suite, label) in [(Suite::Spec92, "SPEC92"), (Suite::Spec95, "SPEC95")] {
        let benchmarks = match suite {
            Suite::Spec92 => suite92(scale),
            Suite::Spec95 => suite95(scale),
        };
        let mut table = Table::new(
            format!("Figure 3 ({label} benchmarks) — analytic {MODEL_VERSION} prediction"),
            [
                "Benchmark",
                "Exp",
                "Norm. time",
                "f_P",
                "f_L",
                "f_B",
                "±rel",
            ]
            .map(String::from)
            .to_vec(),
        );
        for b in &benchmarks {
            let sig = b.signature();
            let spec_a = spec_for(suite, Experiment::A);
            let base = ecm::predict_time(&sig.kernel, &ecm_config(&spec_a))
                .expect("signature covers the Table 4-5 block sizes");
            let base_tp_seconds = base.t_p / spec_a.cpu_mhz as f64;
            for e in Experiment::ALL {
                let spec = spec_for(suite, e);
                let pred = ecm::predict_time(&sig.kernel, &ecm_config(&spec))
                    .expect("signature covers the Table 4-5 block sizes");
                worst_rel = worst_rel.max(pred.rel_bound());
                let seconds = pred.cycles / spec.cpu_mhz as f64;
                table.row(vec![
                    b.name().to_string(),
                    e.label().to_string(),
                    format!("{:.2}", seconds / base_tp_seconds),
                    format!("{:.2}", pred.t_p / pred.cycles),
                    format!("{:.2}", pred.t_l / pred.cycles),
                    format!("{:.2}", pred.t_b / pred.cycles),
                    format!("{:.2}", pred.rel_bound()),
                ]);
            }
        }
        out.stdout.push_str(&table.render());
        out.stdout.push('\n');
    }
    AnalyticRender {
        rendered: out,
        worst_rel,
        model: ecm::MODEL_VERSION,
    }
}

/// Render `target` from trace signatures alone.
///
/// Returns `None` for targets without an analytic model (the caller
/// falls back to simulation). The computation is admitted to the
/// memory governor as *light* work: it holds no trace arena, so it
/// never counts toward the degradation ladder's in-flight estimate.
pub fn render_target_analytic(target: &str, scale: Scale) -> Option<AnalyticRender> {
    if !analytic_supported(target) {
        return None;
    }
    let _light = ambient_governor().admit_light();
    // `ANALYTIC_TARGETS` is `["fig3"]`.
    Some(fig3_analytic(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecm_config_mirrors_the_machine_spec() {
        let spec = MachineSpec::spec92(Experiment::A);
        let cfg = ecm_config(&spec);
        assert!(cfg.in_order);
        assert!(cfg.blocking);
        assert!(!cfg.tagged_prefetch);
        assert_eq!(cfg.l1_bytes, 128 * 1024);
        assert_eq!(cfg.l2_latency, 9);
        assert_eq!(cfg.mispredict_penalty, spec.mispredict_penalty);
        assert!((cfg.bus1_bytes_per_cycle - 16.0 / 3.0).abs() < 1e-12);
        let f = ecm_config(&MachineSpec::spec95(Experiment::F));
        assert!(!f.in_order);
        assert!(f.tagged_prefetch);
    }

    #[test]
    fn analytic_targets_are_a_subset_of_renderables() {
        for t in ANALYTIC_TARGETS {
            assert!(crate::targets::renderable(t), "{t}");
            assert!(analytic_supported(t));
        }
        assert!(!analytic_supported("table7"));
        assert!(!analytic_supported("fig4"));
        assert!(!analytic_supported("dump"));
    }

    #[test]
    fn analytic_renders_are_deterministic_and_labelled() {
        let a = render_target_analytic("fig3", Scale::Test).expect("supported");
        let b = render_target_analytic("fig3", Scale::Test).expect("supported");
        assert_eq!(a.rendered.stdout, b.rendered.stdout);
        assert!(a.rendered.stdout.contains(MODEL_VERSION));
        assert!(a.worst_rel.is_finite());
        assert_eq!(a.worst_rel.to_bits(), b.worst_rel.to_bits());
        assert!(render_target_analytic("table7", Scale::Test).is_none());
        assert!(render_target_analytic("fig4", Scale::Test).is_none());
    }
}
