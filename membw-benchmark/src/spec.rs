//! What the benchmark measures: its workloads, the end-to-end metrics
//! every run reports, and the per-layer metrics of a traced run with the
//! end-to-end metric and workload each one is predicted to move.
//!
//! `BENCHMARK.json` at the repository root lists the same names with
//! their bounds; `membw-benchmark check` proves the two agree.

/// Jobs N: the engine width the `--jobs N` half of every pair runs at.
pub const JOBS_N: usize = 2;

/// The scale every workload runs at.
pub const SCALE: &str = "test";

/// One workload: a named set of `repro` targets and how they are driven.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Targets as given on the `repro` command line (`all` expands to
    /// `membw_core::targets::ALL_TARGETS`).
    pub targets: &'static [&'static str],
    /// Driven through a `repro serve` daemon instead of CLI processes.
    pub serve: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig3-timing",
        targets: &["fig3"],
        serve: false,
    },
    Workload {
        name: "traffic-sweep",
        targets: &["table7", "table8", "fig4", "table9"],
        serve: false,
    },
    Workload {
        name: "campaign",
        targets: &["all"],
        serve: false,
    },
    Workload {
        name: "serve-mixed",
        targets: &["fig3", "fig4", "table7", "table8", "table9"],
        serve: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The leaf targets a `repro` command line renders, in output order.
pub fn expand<'a>(targets: &[&'a str]) -> Vec<&'a str> {
    targets
        .iter()
        .flat_map(|t| {
            if *t == "all" {
                membw_core::targets::ALL_TARGETS.to_vec()
            } else {
                vec![*t]
            }
        })
        .collect()
}

/// Whether a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric (tracing off).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

/// The bounded end-to-end metrics: every untraced run reports these, and
/// `BENCHMARK.json` lists them with their bounds.
pub const END_TO_END: [Metric; 2] = [
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        meaning: "median peak resident set at --jobs N: wait4 ru_maxrss of a cold repro \
                  process (CLI), VmHWM of each set-up daemon once its cold set is answered \
                  (serve)",
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        meaning: "median set-up: a repro --jobs N process that renders only the cheapest \
                  target, ten per cycle (CLI); daemon spawn until the cold set is \
                  answered, three times per run (serve)",
    },
];

/// End-to-end numbers that are measured, printed with their sample
/// counts and kept in `results.json`, but not bounded: on the host the
/// baseline was taken on they drift with host load by more than the
/// 10% bound within a run's time (README.md records the spreads).
pub const UNBOUNDED: [Metric; 5] = [
    Metric {
        name: "wall_j1_s",
        unit: "s",
        better: Lower,
        meaning: "median wall time of one cold answer at --jobs 1: a repro process (CLI), \
                  or the miss set on a --jobs 1 daemon whose traces are resident (serve)",
    },
    Metric {
        name: "wall_jN_s",
        unit: "s",
        better: Lower,
        meaning: "the same at --jobs N (N = 2)",
    },
    Metric {
        name: "hit_p50_ms",
        unit: "ms",
        better: Lower,
        meaning: "median round trip of a serve store hit under two closed-loop clients",
    },
    Metric {
        name: "hit_p90_ms",
        unit: "ms",
        better: Lower,
        meaning: "its p90, when at least 10 hits lie beyond it",
    },
    Metric {
        name: "hit_rps",
        unit: "1/s",
        better: Higher,
        meaning: "store hits answered per second by the two clients",
    },
];

/// A per-layer metric of the traced run, with its prediction.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public calls the number is timed around.
    pub measured_by: &'static str,
    /// Each end-to-end metric, bounded or not, a change in this layer
    /// should move, with the workloads it should move it on.
    pub moves: &'static [(&'static str, &'static [&'static str])],
    /// End-to-end metrics or workloads on which no change is predicted.
    pub flat: &'static [&'static str],
}

const ALL: &[&str] = &["fig3-timing", "traffic-sweep", "campaign", "serve-mixed"];
const CLI: &[&str] = &["fig3-timing", "traffic-sweep", "campaign"];
const SERVE: &[&str] = &["serve-mixed"];
const SIM_ON: &[&str] = &["fig3-timing", "campaign", "serve-mixed"];
const SWEEP_ON: &[&str] = &["traffic-sweep", "serve-mixed"];
const HITS: &[&str] = &["hit_p50_ms", "hit_p90_ms", "hit_rps"];

/// Cold answers of the CLI workloads, and the serve set-up that renders
/// the cold set.
const COLD_CLI_SETUP_SERVE: &[(&str, &[&str])] =
    &[("wall_j1_s", CLI), ("wall_jN_s", CLI), ("setup_s", SERVE)];
const SIM: &[(&str, &[&str])] = &[("wall_j1_s", SIM_ON), ("wall_jN_s", SIM_ON)];
const SWEEP: &[(&str, &[&str])] = &[("wall_j1_s", SWEEP_ON), ("wall_jN_s", SWEEP_ON)];
const MTC: &[(&str, &[&str])] = &[("wall_j1_s", SWEEP_ON)];
const WALL_ALL: &[(&str, &[&str])] = &[("wall_j1_s", ALL), ("wall_jN_s", ALL)];
const HIT_LATENCY: &[(&str, &[&str])] = &[("hit_p50_ms", SERVE), ("hit_rps", SERVE)];
const HIT_TAIL: &[(&str, &[&str])] = &[("hit_p90_ms", SERVE)];
const JOBS_N_CLI: &[(&str, &[&str])] = &[("wall_jN_s", CLI)];
const LEDGER: &[(&str, &[&str])] = &[("wall_j1_s", ALL)];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    measured_by: &'static str,
    moves: &'static [(&'static str, &'static [&'static str])],
    flat: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        measured_by,
        moves,
        flat,
    }
}

pub const LAYERS: [Layer; 37] = [
    layer(
        "workloads.generate_s",
        "s",
        Lower,
        "Workload::generate into CountSink, every SPEC92/95 benchmark",
        COLD_CLI_SETUP_SERVE,
        HITS,
    ),
    layer(
        "trace.record_s",
        "s",
        Lower,
        "RecordedTrace::record, every SPEC92/95 benchmark",
        COLD_CLI_SETUP_SERVE,
        HITS,
    ),
    layer(
        "trace.record_uops_per_s",
        "1/s",
        Higher,
        "uops recorded per second by those calls",
        COLD_CLI_SETUP_SERVE,
        HITS,
    ),
    layer(
        "trace.replay_uops_per_s",
        "1/s",
        Higher,
        "replay of every RecordedTrace into CountSink",
        &[("wall_j1_s", &["fig3-timing"])],
        HITS,
    ),
    layer(
        "trace.collect_refs_s",
        "s",
        Lower,
        "Workload::collect_mem_refs, once per table7/table8/fig4 job",
        &[("wall_j1_s", &["traffic-sweep"])],
        &["fig3-timing"],
    ),
    layer(
        "trace.bytes_per_uop",
        "B/uop",
        Lower,
        "arena_bytes / len over every recorded trace",
        &[("peak_rss_mb", ALL)],
        &[],
    ),
    layer(
        "sim.ruu_uops_per_s",
        "1/s",
        Higher,
        "sim::decompose per (benchmark, experiment) on out-of-order machines",
        SIM,
        &["traffic-sweep"],
    ),
    layer(
        "sim.inorder_uops_per_s",
        "1/s",
        Higher,
        "sim::decompose per (benchmark, experiment) on in-order machines",
        SIM,
        &["traffic-sweep"],
    ),
    layer(
        "sim.uops",
        "count",
        Lower,
        "uops simulated by those calls (three timing runs per call)",
        SIM,
        &["traffic-sweep"],
    ),
    layer(
        "cache.direct_refs_per_s",
        "1/s",
        Higher,
        "Cache::access over every SPEC92 reference at each run_table7::SIZES size",
        &[("wall_j1_s", &["campaign"])],
        &["fig3-timing"],
    ),
    layer(
        "sweep.lru_s",
        "s",
        Lower,
        "sweep_lru over the table7 and table8 sizes and the fig4 capacity axes",
        SWEEP,
        &["fig3-timing"],
    ),
    layer(
        "sweep.lru_refs_per_s",
        "1/s",
        Higher,
        "references swept per second by those calls",
        SWEEP,
        &["fig3-timing"],
    ),
    layer(
        "mtc.next_use_s",
        "s",
        Lower,
        "NextUseIndex::build per SPEC92 benchmark at the MTC block size",
        MTC,
        &["fig3-timing"],
    ),
    layer(
        "mtc.min_sweep_s",
        "s",
        Lower,
        "min_sweep for the table8 rows and the fig4 MTC curves",
        MTC,
        &["fig3-timing"],
    ),
    layer(
        "mtc.min_sweep_refs_per_s",
        "1/s",
        Higher,
        "references per second through those calls",
        MTC,
        &["fig3-timing"],
    ),
    layer(
        "mtc.factor_gaps_s",
        "s",
        Lower,
        "factors::factor_gaps per SPEC92 benchmark (table9)",
        MTC,
        &["fig3-timing"],
    ),
    layer(
        "analytic.predict_time_ns",
        "ns",
        Lower,
        "ecm::predict_time per (benchmark, experiment); the lane is off by default",
        &[],
        ALL,
    ),
    layer(
        "analytic.render_target_us",
        "us",
        Lower,
        "fastpath::render_target_analytic for fig3, table7 and fig4, signatures warm",
        &[],
        ALL,
    ),
    layer(
        "analytic.signature_s",
        "s",
        Lower,
        "compute_signature, every SPEC92/95 benchmark",
        &[],
        ALL,
    ),
    layer(
        "core.render_cold_s",
        "s",
        Lower,
        "targets::render_target of the workload's targets, first call in a fresh worker",
        COLD_CLI_SETUP_SERVE,
        HITS,
    ),
    layer(
        "core.render_warm_s",
        "s",
        Lower,
        "the same, second call (trace arenas resident)",
        &[("wall_j1_s", SERVE), ("wall_jN_s", SERVE)],
        HITS,
    ),
    layer(
        "core.format_s",
        "s",
        Lower,
        "Table::render + serde_json::to_string_pretty of the run_* results",
        WALL_ALL,
        HITS,
    ),
    layer(
        "core.audit_s",
        "s",
        Lower,
        "warm render under audit level warn minus the same under off",
        &[("wall_j1_s", &["fig3-timing", "campaign"])],
        &["peak_rss_mb"],
    ),
    layer(
        "runner.jobs",
        "count",
        Lower,
        "runner::metrics() job delta around a jobs-N render",
        JOBS_N_CLI,
        &["wall_j1_s"],
    ),
    layer(
        "runner.parallel_efficiency",
        "ratio",
        Higher,
        "busy / (wall x N) from the runner::metrics() delta around a jobs-N render",
        JOBS_N_CLI,
        &["wall_j1_s"],
    ),
    layer(
        "runner.persist_s",
        "s",
        Lower,
        "persist::write_atomic of every checkpoint file a cold render left behind",
        WALL_ALL,
        HITS,
    ),
    layer(
        "serve.socket_rtt_us",
        "us",
        Lower,
        "client::query(stats) against a live repro serve daemon",
        HIT_LATENCY,
        CLI,
    ),
    layer(
        "serve.store_load_us",
        "us",
        Lower,
        "ResultStore::load per target",
        HIT_LATENCY,
        CLI,
    ),
    layer(
        "serve.store_save_ms",
        "ms",
        Lower,
        "ResultStore::save per target",
        &[
            ("wall_j1_s", SERVE),
            ("wall_jN_s", SERVE),
            ("setup_s", SERVE),
        ],
        CLI,
    ),
    layer(
        "serve.handle_hit_us",
        "us",
        Lower,
        "in-process Server::handle_request on a store hit, per target",
        HIT_LATENCY,
        CLI,
    ),
    layer(
        "serve.reply_encode_us",
        "us",
        Lower,
        "serde_json::to_string of a ServiceResponse, per target",
        HIT_TAIL,
        CLI,
    ),
    layer(
        "serve.reply_decode_us",
        "us",
        Lower,
        "serde_json::from_str of that reply line, per target",
        HIT_TAIL,
        CLI,
    ),
    layer(
        "serve.reply_bytes",
        "B",
        Lower,
        "mean reply line length over the workload's targets",
        HIT_TAIL,
        CLI,
    ),
    layer(
        "ledger.wall_j1_s",
        "s",
        Lower,
        "wall time of one cold repro --jobs 1 process over the workload's targets",
        LEDGER,
        &[],
    ),
    layer(
        "ledger.layers_s",
        "s",
        Lower,
        "sum of the layer self times replaying the workload's job matrix",
        LEDGER,
        &[],
    ),
    layer(
        "ledger.unexplained_s",
        "s",
        Lower,
        "ledger.wall_j1_s minus ledger.layers_s: work no public call reproduces",
        LEDGER,
        &[],
    ),
    layer(
        "ledger.span_overhead_ns",
        "ns",
        Lower,
        "cost of opening and closing one empty span",
        &[],
        ALL,
    ),
];
