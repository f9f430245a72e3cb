//! The traced run: per-layer metrics and the time ledger.
//!
//! Each pass times one cold `repro --jobs 1` process over the workload's
//! targets, then starts a fresh worker process (`membw-benchmark
//! worker`) that calls the layers' public functions under spans, then
//! times `stats` round trips against a live daemon. Per pass,
//! `ledger.unexplained_s = ledger.wall_j1_s - ledger.layers_s`; every
//! reported value is the median over passes.

use crate::e2e::{self, Env, Tally};
use crate::proc;
use crate::report::Reported;
use crate::spec::{Workload, LAYERS};
use crate::stats;
use crate::tracer::{self, Span};
use crate::worker::Report;
use membw_core::service::{ServiceRequest, ServiceResponse, STATS_TARGET};
use serde::json::Value;
use std::time::{Duration, Instant};

/// Layer metrics this process adds to the worker's.
pub const PARENT_VALUES: [&str; 3] = [
    "serve.socket_rtt_us",
    "ledger.wall_j1_s",
    "ledger.unexplained_s",
];

const RTT_QUERIES: usize = 200;

pub struct Traced {
    pub metrics: Vec<Reported>,
    /// Per-layer self times of the ledger (median over passes).
    pub ledger: Vec<(String, f64)>,
    pub spans: Vec<Value>,
    pub passes: usize,
}

fn worker_pass(env: &Env, w: &Workload) -> Result<Report, String> {
    let dir = env
        .root
        .fresh("worker")
        .map_err(|e| format!("temp dir: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = proc::command(&exe, &dir);
    cmd.args(["worker", "--workload", w.name]);
    // Signatures the analytic layer computes stay in the worker's dir.
    cmd.env(membw_core::trace::signature::SIG_DIR_ENV, "sigs");
    let log = dir.join("stderr.log");
    let f = proc::run(cmd, &log).map_err(|e| format!("worker: spawn: {e}"))?;
    if f.exit.code != Some(0) {
        return Err(format!(
            "worker exit {:?}: {}",
            f.exit.code,
            proc::log_tail(&log)
        ));
    }
    let text = String::from_utf8_lossy(&f.stdout);
    let report = Report::from_json(text.lines().last().unwrap_or_default());
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Median `stats` round trip against a fresh jobs-1 daemon, in µs.
fn socket_rtt_us(env: &Env, tally: &mut Tally) -> Option<f64> {
    let sv = e2e::start(env, 1).map_err(|e| tally.op(Err(e))).ok()?;
    let req = ServiceRequest::new(STATS_TARGET);
    let mut rtts = Vec::with_capacity(RTT_QUERIES);
    for _ in 0..RTT_QUERIES {
        let t0 = Instant::now();
        let r = membw_serve::client::query(&sv.ep, &req, Some(Duration::from_secs(10)));
        let rtt = t0.elapsed().as_secs_f64() * 1e6;
        let ok = match r {
            Ok(ServiceResponse::Stats(_)) => Ok(()),
            Ok(other) => Err(format!("stats: unexpected reply {other:?}")),
            Err(e) => Err(format!("stats: transport: {e}")),
        };
        if tally.op(ok) {
            rtts.push(rtt);
        }
    }
    (!rtts.is_empty()).then(|| stats::median(&rtts))
}

/// Spans on this run's clock, with ids unique across passes.
struct SpanLog {
    start: Instant,
    next_id: u64,
    out: Vec<Value>,
}

impl SpanLog {
    fn parent(&mut self, name: &str, pass: usize, t0: Instant, t1: Instant) {
        let ns = |t: Instant| t.duration_since(self.start).as_nanos() as u64;
        let s = Span {
            id: 0,
            parent: None,
            name: name.to_string(),
            start_ns: ns(t0),
            end_ns: ns(t1),
            attrs: Vec::new(),
        };
        self.out.push(tracer::to_value(&s, pass, self.next_id));
        self.next_id += 1;
    }

    /// A worker's spans, shifted from its own epoch to `at`.
    fn worker(&mut self, spans: &[Span], pass: usize, at: Instant) {
        let shift = at.duration_since(self.start).as_nanos() as u64;
        for s in spans {
            let mut s = s.clone();
            s.start_ns += shift;
            s.end_ns += shift;
            self.out.push(tracer::to_value(&s, pass, self.next_id));
        }
        self.next_id += spans.len() as u64;
    }
}

pub fn run(env: &Env, w: &Workload, tally: &mut Tally) -> Traced {
    let mut log = SpanLog {
        start: Instant::now(),
        next_id: 0,
        out: Vec::new(),
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    let mut ledger: Vec<(String, Vec<f64>)> = Vec::new();
    let mut passes = 0;
    loop {
        let p0 = Instant::now();
        let mut pass: Vec<(String, f64)> = Vec::new();
        // The wall time the ledger accounts for: a cold jobs-1 process.
        let wall = e2e::cli_op(env, w.targets, 1)
            .map_err(|e| tally.op(Err(e)))
            .ok()
            .map(|f| {
                tally.op(Ok(()));
                f.wall.as_secs_f64()
            });
        let c1 = Instant::now();
        log.parent("bench.cli_j1", passes, p0, c1);
        match worker_pass(env, w) {
            Ok(report) => {
                tally.merge(report.tally);
                pass.extend(report.values);
                for (k, v) in report.ledger {
                    match ledger.iter_mut().find(|(n, _)| *n == k) {
                        Some((_, vs)) => vs.push(v),
                        None => ledger.push((k, vec![v])),
                    }
                }
                log.worker(&report.spans, passes, c1);
            }
            Err(e) => {
                tally.op(Err(e));
            }
        }
        let r0 = Instant::now();
        if let Some(rtt) = socket_rtt_us(env, tally) {
            pass.push(("serve.socket_rtt_us".into(), rtt));
        }
        log.parent("serve.socket_rtt", passes, r0, Instant::now());
        let layers = pass
            .iter()
            .find(|(k, _)| k == "ledger.layers_s")
            .map(|p| p.1);
        if let (Some(wall), Some(layers)) = (wall, layers) {
            pass.push(("ledger.wall_j1_s".into(), wall));
            pass.push(("ledger.unexplained_s".into(), wall - layers));
        }
        for (k, v) in pass {
            match LAYERS.iter().position(|l| l.name == k) {
                Some(i) if v.is_finite() => values[i].push(v),
                _ => {}
            }
        }
        passes += 1;
        let elapsed = log.start.elapsed().as_secs_f64();
        if env.quick || elapsed + p0.elapsed().as_secs_f64() > env.seconds {
            break;
        }
    }
    // A layer metric no pass measured is left out, never reported as 0.
    let metrics = LAYERS
        .iter()
        .zip(&values)
        .filter_map(|(l, vs)| {
            if vs.is_empty() {
                tally.op(Err(format!("{}: no value measured", l.name)));
                return None;
            }
            let summary = stats::summarize(vs);
            Some(Reported {
                name: l.name,
                unit: l.unit,
                value: summary.median,
                summary: Some(summary),
                note: String::new(),
            })
        })
        .collect();
    Traced {
        metrics,
        ledger: ledger
            .into_iter()
            .map(|(k, vs)| (k, stats::median(&vs)))
            .collect(),
        spans: log.out,
        passes,
    }
}
