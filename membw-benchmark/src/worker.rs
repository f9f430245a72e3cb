//! The traced worker: a fresh process at `--jobs 1` that renders a
//! workload's targets and then replays their job matrix through the
//! layers' public functions, one span per call.
//!
//! The spans under `bench.ledger` replay exactly the work of the
//! workload's cold render that public calls can reproduce; their self
//! times make up `ledger.layers_s`. Everything else a `repro` process
//! does (start-up, the auditor, plots, targets no public call
//! reproduces) stays in `ledger.unexplained_s`, unestimated. The spans
//! under `bench.canonical` replay the rest of fig3/table7/table8/fig4/
//! table9, so every workload reports each layer's rate over the same
//! inputs.

use crate::e2e::Tally;
use crate::gate;
use crate::spec::{Workload, JOBS_N};
use crate::tracer::{self, Span, Tracer};
use membw_core::analytic::ecm;
use membw_core::audit::{self, AuditLevel};
use membw_core::cache::{Associativity, Cache, CacheConfig};
use membw_core::fastpath;
use membw_core::mtc::factors::factor_gaps;
use membw_core::mtc::{min_sweep, MinConfig, MinWritePolicy, NextUseIndex};
use membw_core::runner::{self, persist, CheckpointConfig};
use membw_core::service::{ServiceRequest, ServiceResponse};
use membw_core::sim::{decompose, CoreKind, Experiment, MachineSpec};
use membw_core::sweep::{sweep_lru, SweepMode, SweepSpec};
use membw_core::targets;
use membw_core::trace::signature::compute_signature;
use membw_core::trace::{CountSink, MemRef, RecordedTrace, Workload as _};
use membw_core::workloads::{suite92, suite95, Benchmark, Scale, Suite};
use membw_core::{run_fig3, run_fig4, run_table7, run_table8, run_table9};
use membw_serve::{ResultStore, ServeConfig, Server};
use serde::json::Value;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Targets whose job matrix public calls reproduce.
pub const REPLAYED: [&str; 5] = ["fig3", "table7", "table8", "fig4", "table9"];

/// Span names that count toward `ledger.layers_s`.
pub const LEDGER_LAYERS: [&str; 9] = [
    "trace.record",
    "trace.collect_refs",
    "sim.inorder",
    "sim.ruu",
    "sweep.lru",
    "mtc.min_sweep",
    "mtc.factor_gaps",
    "core.format",
    "runner.persist",
];

/// The layer metrics a worker pass reports, in order; the parent adds
/// [`crate::traced::PARENT_VALUES`].
pub const WORKER_VALUES: [&str; 34] = [
    "workloads.generate_s",
    "trace.record_s",
    "trace.record_uops_per_s",
    "trace.replay_uops_per_s",
    "trace.collect_refs_s",
    "trace.bytes_per_uop",
    "sim.ruu_uops_per_s",
    "sim.inorder_uops_per_s",
    "sim.uops",
    "cache.direct_refs_per_s",
    "sweep.lru_s",
    "sweep.lru_refs_per_s",
    "mtc.next_use_s",
    "mtc.min_sweep_s",
    "mtc.min_sweep_refs_per_s",
    "mtc.factor_gaps_s",
    "analytic.predict_time_ns",
    "analytic.render_target_us",
    "analytic.signature_s",
    "core.render_cold_s",
    "core.render_warm_s",
    "core.format_s",
    "core.audit_s",
    "runner.jobs",
    "runner.parallel_efficiency",
    "runner.persist_s",
    "serve.store_load_us",
    "serve.store_save_ms",
    "serve.handle_hit_us",
    "serve.reply_encode_us",
    "serve.reply_decode_us",
    "serve.reply_bytes",
    "ledger.layers_s",
    "ledger.span_overhead_ns",
];

/// Fig. 4's panel benchmarks (as `run_fig4` picks them).
const FIG4_PANELS: [&str; 3] = ["compress", "eqntott", "swm"];

/// Repetitions of the microsecond-scale calls.
const REPS: usize = 30;

/// Recorded traces, one per benchmark, recorded on first use as the
/// process-wide trace cache does.
#[derive(Default)]
struct Traces(HashMap<String, Arc<RecordedTrace>>);

impl Traces {
    fn get(&mut self, t: &mut Tracer, b: &Benchmark) -> Arc<RecordedTrace> {
        if let Some(tr) = self.0.get(b.name()) {
            return Arc::clone(tr);
        }
        let tr = Arc::new(t.span("trace.record", |_| RecordedTrace::record(b.workload())));
        t.tag("benchmark", b.name());
        t.tag("uops", tr.len() as u64);
        self.0.insert(b.name().to_string(), Arc::clone(&tr));
        tr
    }
}

fn collect(t: &mut Tracer, trace: &RecordedTrace) -> Vec<MemRef> {
    let refs = t.span("trace.collect_refs", |_| trace.collect_mem_refs());
    t.tag("refs", refs.len() as u64);
    refs
}

fn lru(t: &mut Tracer, spec: &SweepSpec, caps: &[u64], refs: &[MemRef]) {
    black_box(t.span("sweep.lru", |_| sweep_lru(spec, caps, refs)));
    t.tag("refs", refs.len() as u64);
}

fn min(t: &mut Tracer, cfgs: &[MinConfig], refs: &[MemRef]) {
    black_box(t.span("mtc.min_sweep", |_| min_sweep(cfgs, refs)));
    t.tag("refs", refs.len() as u64);
}

struct Suites {
    s92: Vec<Benchmark>,
    s95: Vec<Benchmark>,
}

/// Replay one target's job matrix, in the order its `run_*` runs it.
fn replay(target: &str, t: &mut Tracer, traces: &mut Traces, s: &Suites) {
    match target {
        "fig3" => {
            for (suite, benches) in [(Suite::Spec92, &s.s92), (Suite::Spec95, &s.s95)] {
                for b in benches {
                    let trace = traces.get(t, b);
                    for e in Experiment::ALL {
                        let spec = match suite {
                            Suite::Spec92 => MachineSpec::spec92(e),
                            Suite::Spec95 => MachineSpec::spec95(e),
                        };
                        let name = match spec.core {
                            CoreKind::InOrder => "sim.inorder",
                            CoreKind::OutOfOrder => "sim.ruu",
                        };
                        let d = t.span(name, |_| decompose(&*trace, &spec));
                        // Three timing runs per decomposition (§3.1).
                        t.tag("uops", 3 * d.uops);
                        t.tag("cell", format!("{}/{}", b.name(), e.label()));
                    }
                }
            }
        }
        "table7" => {
            for b in &s.s92 {
                let trace = traces.get(t, b);
                let refs = collect(t, &trace);
                lru(t, &SweepSpec::new(32), &run_table7::SIZES, &refs);
            }
        }
        "table8" => {
            for b in &s.s92 {
                let trace = traces.get(t, b);
                let refs = collect(t, &trace);
                let included: Vec<u64> = run_table7::SIZES
                    .iter()
                    .copied()
                    .filter(|&c| c < b.footprint_bytes)
                    .collect();
                lru(t, &SweepSpec::new(32), &included, &refs);
                let cfgs: Vec<MinConfig> = included.iter().map(|&c| MinConfig::mtc(c)).collect();
                min(t, &cfgs, &refs);
            }
        }
        "fig4" => {
            let caps = run_fig4::sizes();
            for name in FIG4_PANELS {
                let b = s
                    .s92
                    .iter()
                    .find(|b| b.name() == name)
                    .expect("fig4 panel benchmark is in SPEC92");
                let trace = traces.get(t, b);
                // One job per curve, each collecting its own references.
                for block in run_fig4::BLOCK_SIZES {
                    let refs = collect(t, &trace);
                    let spec = SweepSpec::new(block).associativity(Associativity::Ways(4));
                    lru(t, &spec, &caps, &refs);
                }
                for write in [MinWritePolicy::Allocate, MinWritePolicy::Validate] {
                    let refs = collect(t, &trace);
                    let cfgs: Vec<MinConfig> = caps
                        .iter()
                        .map(|&c| MinConfig::new(c, 4, write, true))
                        .collect();
                    min(t, &cfgs, &refs);
                }
            }
        }
        "table9" => {
            for b in &s.s92 {
                let trace = traces.get(t, b);
                let cap = run_table9::capacity_for(b.name());
                black_box(t.span("mtc.factor_gaps", |_| factor_gaps(&*trace, cap)));
                t.tag("refs", trace.num_mem_refs() as u64);
            }
        }
        _ => {}
    }
}

/// Re-derive a replayed target's results from the cold checkpoint and
/// time only their formatting: table text and pretty JSON.
fn format(target: &str, t: &mut Tracer, cold: &Path) -> Result<(), String> {
    let resume = Some(CheckpointConfig {
        root: cold.to_path_buf(),
        resume: true,
    });
    let err = |e: membw_core::MembwError| format!("{target}: resumed run failed: {e}");
    runner::with_checkpoint(resume, || match target {
        "fig3" => {
            for suite in [Suite::Spec92, Suite::Spec95] {
                let res = t.span("bench.resume", |_| {
                    run_fig3::run_suite(suite, Scale::Test, &Experiment::ALL)
                });
                let res = res.map_err(err)?;
                t.span("core.format", |_| {
                    black_box(run_fig3::render(&res, "Figure 3").render());
                    black_box(run_fig3::render_table6(&res).render());
                    black_box(serde_json::to_string_pretty(&res).ok());
                });
            }
            Ok(())
        }
        "table7" => {
            let (res, table) = t
                .span("bench.resume", |_| {
                    run_table7::run_with(Scale::Test, SweepMode::Stack)
                })
                .map_err(err)?;
            t.span("core.format", |_| {
                black_box(table.render());
                black_box(serde_json::to_string_pretty(&res).ok());
            });
            Ok(())
        }
        "table8" => {
            let (res, table) = t
                .span("bench.resume", |_| {
                    run_table8::run_with(Scale::Test, SweepMode::Stack)
                })
                .map_err(err)?;
            t.span("core.format", |_| {
                black_box(table.render());
                black_box(serde_json::to_string_pretty(&res).ok());
            });
            Ok(())
        }
        "fig4" => {
            let (panels, tables) = t
                .span("bench.resume", |_| {
                    run_fig4::run_with(Scale::Test, SweepMode::Stack)
                })
                .map_err(err)?;
            t.span("core.format", |_| {
                for table in &tables {
                    black_box(table.render());
                }
                black_box(serde_json::to_string_pretty(&panels).ok());
            });
            Ok(())
        }
        "table9" => {
            let (res, tables) = t
                .span("bench.resume", |_| {
                    run_table9::run_with(Scale::Test, SweepMode::Stack)
                })
                .map_err(err)?;
            t.span("core.format", |_| {
                for table in &tables {
                    black_box(table.render());
                }
                black_box(serde_json::to_string_pretty(&res).ok());
            });
            Ok(())
        }
        _ => Ok(()),
    })
}

/// Rewrite every checkpoint file a render left in `from` into `to`,
/// through the same durable path the run engine used.
fn rewrite(t: &mut Tracer, from: &Path, to: &Path) -> Result<(), String> {
    let mut stack = vec![from.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                stack.push(p);
                continue;
            }
            let bytes = std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let dst = to.join(p.strip_prefix(from).expect("walk stays under the root"));
            std::fs::create_dir_all(dst.parent().expect("file has a parent"))
                .map_err(|e| format!("{}: {e}", dst.display()))?;
            t.span("runner.persist", |_| persist::write_atomic(&dst, &bytes))
                .map_err(|(step, path, e)| format!("{step} {}: {e}", path.display()))?;
            t.tag("bytes", bytes.len() as u64);
        }
    }
    Ok(())
}

/// Render every leaf once inside spans named `name`, checking each
/// stdout against its digest.
fn render_all(t: &mut Tracer, name: &str, leaves: &[&str], tally: &mut Tally) -> Vec<String> {
    let mut outs = Vec::new();
    for target in leaves {
        let r = t.span(name, |_| {
            targets::render_target(target, Scale::Test, SweepMode::Stack)
        });
        t.tag("target", *target);
        match r {
            Ok(rendered) => {
                tally.op(gate::check_target(target, rendered.stdout.as_bytes()));
                outs.push(rendered.stdout);
            }
            Err(e) => {
                tally.op(Err(format!("{target}: render failed: {e}")));
                outs.push(String::new());
            }
        }
    }
    outs
}

fn checkpoint(root: &str) {
    runner::set_checkpoint(Some(CheckpointConfig {
        root: root.into(),
        resume: false,
    }));
}

fn request(target: &str) -> ServiceRequest {
    let mut req = ServiceRequest::new(target);
    req.scale = crate::spec::SCALE.to_string();
    req
}

/// The result-store, request-handler and wire-format layers, in
/// process, over the workload's rendered outputs.
fn serve_layers(
    t: &mut Tracer,
    leaves: &[&str],
    outs: &[String],
    tally: &mut Tally,
) -> Result<f64, String> {
    let store = ResultStore::open(Path::new("store")).map_err(|e| format!("store: {e}"))?;
    for (target, stdout) in leaves.iter().zip(outs) {
        let key = request(target).coalesce_key();
        for _ in 0..3 {
            t.span("serve.store_save", |_| store.save(&key, stdout))
                .map_err(|(step, path, e)| format!("{step} {}: {e}", path.display()))?;
        }
        for _ in 0..REPS {
            let got = t.span("serve.store_load", |_| store.load(&key));
            if got.as_ref() != Some(stdout) {
                return Err(format!("{target}: store returned other bytes"));
            }
        }
    }
    let server = Server::new(
        ServeConfig::default(),
        ResultStore::open(Path::new("store")).map_err(|e| format!("store: {e}"))?,
    );
    let mut line_bytes = 0usize;
    for target in leaves {
        let req = request(target);
        let mut resp = None;
        for _ in 0..REPS {
            resp = Some(t.span("serve.handle_hit", |_| server.handle_request(&req)));
        }
        let resp = resp.expect("REPS > 0");
        tally.op(gate::check_reply(target, &resp));
        let mut line = String::new();
        for _ in 0..REPS {
            line = t.span("serve.reply_encode", |_| {
                serde_json::to_string(&resp).expect("responses serialize")
            });
        }
        line_bytes += line.len() + 1;
        for _ in 0..REPS {
            let back = t.span("serve.reply_decode", |_| {
                serde_json::from_str::<ServiceResponse>(&line)
            });
            if back.as_ref().ok() != Some(&resp) {
                return Err(format!("{target}: reply did not round-trip"));
            }
        }
    }
    Ok(line_bytes as f64 / leaves.len() as f64)
}

/// The analytic fast path's costs (the serve lane is off by default,
/// so no workload exercises it; this is its baseline).
fn analytic(t: &mut Tracer, traces: &Traces, s: &Suites) {
    for (suite, benches) in [(Suite::Spec92, &s.s92), (Suite::Spec95, &s.s95)] {
        for b in benches {
            let trace = &traces.0[b.name()];
            let sig = t.span("analytic.signature", |_| {
                compute_signature(b.name(), b.variant(), &**trace)
            });
            let cfgs: Vec<ecm::EcmConfig> = Experiment::ALL
                .iter()
                .map(|&e| {
                    fastpath::ecm_config(&match suite {
                        Suite::Spec92 => MachineSpec::spec92(e),
                        Suite::Spec95 => MachineSpec::spec95(e),
                    })
                })
                .collect();
            let calls = 200 * cfgs.len();
            t.span("analytic.predict_time", |_| {
                for _ in 0..200 {
                    for cfg in &cfgs {
                        black_box(ecm::predict_time(black_box(&sig.kernel), cfg));
                    }
                }
            });
            t.tag("calls", calls as u64);
        }
    }
    for target in fastpath::ANALYTIC_TARGETS {
        // The first call computes and stores the signatures it reads.
        t.span("bench.analytic_warmup", |_| {
            black_box(fastpath::render_target_analytic(target, Scale::Test))
        });
        for _ in 0..REPS {
            t.span("analytic.render_target", |_| {
                black_box(fastpath::render_target_analytic(target, Scale::Test))
            });
        }
    }
}

/// Per-layer costs no target's matrix exposes on its own.
fn probes(t: &mut Tracer, traces: &Traces, s: &Suites) {
    for b in s.s92.iter().chain(&s.s95) {
        let mut sink = CountSink::new();
        t.span("workloads.generate", |_| b.workload().generate(&mut sink));
        t.tag("uops", sink.uops);
        let mut sink = CountSink::new();
        let trace = &traces.0[b.name()];
        t.span("trace.replay", |_| trace.generate(&mut sink));
        t.tag("uops", sink.uops);
    }
    let block = MinConfig::mtc(run_table7::SIZES[0]).block_size;
    for b in &s.s92 {
        let refs = traces.0[b.name()].collect_mem_refs();
        black_box(t.span("mtc.next_use", |_| NextUseIndex::build(&refs, block)));
        for size in run_table7::SIZES {
            let cfg = CacheConfig::builder(size, 32)
                .build()
                .expect("table7 geometries are valid");
            t.span("cache.direct", |_| {
                let mut cache = Cache::new(cfg);
                for &r in &refs {
                    black_box(cache.access(r));
                }
                black_box(cache.flush())
            });
            t.tag("refs", refs.len() as u64);
        }
    }
}

fn span_overhead_ns() -> f64 {
    const N: usize = 10_000;
    let per: Vec<f64> = (0..5)
        .map(|_| {
            let mut t = Tracer::default();
            let t0 = Instant::now();
            for _ in 0..N {
                t.span("empty", |_| ());
            }
            t0.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    crate::stats::median(&per)
}

/// What one worker pass reports to its parent.
pub struct Report {
    pub tally: Tally,
    pub values: Vec<(String, f64)>,
    pub ledger: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

/// Run the traced pass for `w` in the current directory.
pub fn run(w: &Workload) -> Report {
    runner::set_jobs(1);
    let leaves = crate::spec::expand(w.targets);
    let mut tally = Tally::default();
    let mut t = Tracer::default();

    checkpoint("ck-cold");
    let outs = t.span("bench.render", |t| {
        render_all(t, "core.render_cold", &leaves, &mut tally)
    });
    checkpoint("ck-warm");
    t.span("bench.render", |t| {
        render_all(t, "core.render_warm", &leaves, &mut tally)
    });
    t.span("bench.render", |t| {
        audit::with_level(AuditLevel::Off, || {
            render_all(t, "bench.render_warm_off", &leaves, &mut tally)
        })
    });
    checkpoint("ck-jobs-n");
    let before = runner::metrics();
    let t0 = Instant::now();
    runner::with_jobs(JOBS_N, || {
        t.span("bench.render", |t| {
            render_all(t, "bench.render_jobs_n", &leaves, &mut tally)
        })
    });
    let jn_wall = t0.elapsed().as_secs_f64();
    let delta = runner::metrics_delta(before, runner::metrics());
    runner::set_checkpoint(None);

    let suites = Suites {
        s92: suite92(Scale::Test),
        s95: suite95(Scale::Test),
    };
    let mut traces = Traces::default();
    let replayed: Vec<&str> = leaves
        .iter()
        .copied()
        .filter(|l| REPLAYED.contains(l))
        .collect();
    t.span("bench.ledger", |t| {
        for target in &replayed {
            replay(target, t, &mut traces, &suites);
        }
        for target in &replayed {
            tally.op(format(target, t, Path::new("ck-cold")));
        }
        tally.op(rewrite(t, Path::new("ck-cold"), Path::new("ck-persist")));
    });
    t.span("bench.canonical", |t| {
        for target in REPLAYED.iter().filter(|r| !replayed.contains(r)) {
            replay(target, t, &mut traces, &suites);
        }
    });
    t.span("bench.probes", |t| {
        probes(t, &traces, &suites);
        analytic(t, &traces, &suites);
    });
    let reply_bytes = t.span("bench.serve", |t| {
        serve_layers(t, &leaves, &outs, &mut tally)
    });
    let reply_bytes = match reply_bytes {
        Ok(b) => b,
        Err(e) => {
            tally.op(Err(e));
            0.0
        }
    };

    let spans = t.spans().to_vec();
    let self_t = tracer::self_times(&spans);
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    };
    let count = |name: &str, key: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count(key))
            .sum::<u64>() as f64
    };
    let median_of = |name: &str, scale: f64| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * scale)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    };
    let rate = |name: &str, key: &str| count(name, key) / sum(name);
    // Self time per layer the workload's ledger replays (layers it never
    // calls are left out rather than reported as zero).
    let ledger: Vec<(String, f64)> = LEDGER_LAYERS
        .iter()
        .filter_map(|layer| {
            let own: Vec<f64> = spans
                .iter()
                .enumerate()
                .filter(|(i, s)| s.name == *layer && tracer::under(&spans, *i, "bench.ledger"))
                .map(|(i, _)| self_t[i])
                .collect();
            (!own.is_empty()).then(|| (layer.to_string(), own.iter().sum()))
        })
        .collect();
    let (arena, uops) = traces.0.values().fold((0u64, 0u64), |(a, u), tr| {
        (a + tr.arena_bytes(), u + tr.len() as u64)
    });
    let predict_calls = count("analytic.predict_time", "calls");
    let values: Vec<(&str, f64)> = vec![
        ("workloads.generate_s", sum("workloads.generate")),
        ("trace.record_s", sum("trace.record")),
        ("trace.record_uops_per_s", rate("trace.record", "uops")),
        ("trace.replay_uops_per_s", rate("trace.replay", "uops")),
        ("trace.collect_refs_s", sum("trace.collect_refs")),
        ("trace.bytes_per_uop", arena as f64 / uops as f64),
        ("sim.ruu_uops_per_s", rate("sim.ruu", "uops")),
        ("sim.inorder_uops_per_s", rate("sim.inorder", "uops")),
        (
            "sim.uops",
            count("sim.ruu", "uops") + count("sim.inorder", "uops"),
        ),
        ("cache.direct_refs_per_s", rate("cache.direct", "refs")),
        ("sweep.lru_s", sum("sweep.lru")),
        ("sweep.lru_refs_per_s", rate("sweep.lru", "refs")),
        ("mtc.next_use_s", sum("mtc.next_use")),
        ("mtc.min_sweep_s", sum("mtc.min_sweep")),
        ("mtc.min_sweep_refs_per_s", rate("mtc.min_sweep", "refs")),
        ("mtc.factor_gaps_s", sum("mtc.factor_gaps")),
        (
            "analytic.predict_time_ns",
            sum("analytic.predict_time") * 1e9 / predict_calls,
        ),
        (
            "analytic.render_target_us",
            median_of("analytic.render_target", 1e6),
        ),
        ("analytic.signature_s", sum("analytic.signature")),
        ("core.render_cold_s", sum("core.render_cold")),
        ("core.render_warm_s", sum("core.render_warm")),
        ("core.format_s", sum("core.format")),
        (
            "core.audit_s",
            sum("core.render_warm") - sum("bench.render_warm_off"),
        ),
        ("runner.jobs", delta.jobs as f64),
        (
            "runner.parallel_efficiency",
            delta.busy().as_secs_f64() / (jn_wall * JOBS_N as f64),
        ),
        ("runner.persist_s", sum("runner.persist")),
        ("serve.store_load_us", median_of("serve.store_load", 1e6)),
        ("serve.store_save_ms", median_of("serve.store_save", 1e3)),
        ("serve.handle_hit_us", median_of("serve.handle_hit", 1e6)),
        (
            "serve.reply_encode_us",
            median_of("serve.reply_encode", 1e6),
        ),
        (
            "serve.reply_decode_us",
            median_of("serve.reply_decode", 1e6),
        ),
        ("serve.reply_bytes", reply_bytes),
        ("ledger.layers_s", ledger.iter().map(|(_, s)| s).sum()),
        ("ledger.span_overhead_ns", span_overhead_ns()),
    ];
    assert!(
        values.iter().map(|(k, _)| *k).eq(WORKER_VALUES),
        "worker values out of step with WORKER_VALUES"
    );
    Report {
        tally,
        values: values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        ledger,
        spans,
    }
}

impl Report {
    /// One JSON line for the parent process.
    pub fn to_json(&self) -> String {
        let pairs = |v: &[(String, f64)]| {
            Value::Object(
                v.iter()
                    .map(|(k, x)| (k.clone(), Value::Float(*x)))
                    .collect(),
            )
        };
        let body = Value::Object(vec![
            ("attempted".into(), Value::UInt(self.tally.attempted)),
            ("failed".into(), Value::UInt(self.tally.failed)),
            (
                "errors".into(),
                Value::Array(self.tally.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("values".into(), pairs(&self.values)),
            ("ledger".into(), pairs(&self.ledger)),
            (
                "spans".into(),
                Value::Array(
                    self.spans
                        .iter()
                        .map(|s| tracer::to_value(s, 0, 0))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&body).expect("value trees serialize")
    }

    pub fn from_json(line: &str) -> Result<Report, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("worker output: {e}"))?;
        let pairs = |key: &str| -> Vec<(String, f64)> {
            match v.get(key) {
                Some(Value::Object(kv)) => kv
                    .iter()
                    .filter_map(|(k, x)| number(x).map(|x| (k.clone(), x)))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let count = |key: &str| v.get(key).and_then(number).unwrap_or(0.0) as u64;
        Ok(Report {
            tally: Tally {
                attempted: count("attempted"),
                failed: count("failed"),
                errors: v
                    .get("errors")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|f| f.as_str().map(String::from))
                    .collect(),
            },
            values: pairs("values"),
            ledger: pairs("ledger"),
            spans: v
                .get("spans")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(tracer::from_value)
                .collect(),
        })
    }
}

/// A JSON number as `f64` (the shim keeps integers apart from floats).
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}
