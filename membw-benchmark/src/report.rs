//! Turning samples into the reported metrics: the human-readable table,
//! the one-line JSON result, and `results.json`.

use crate::e2e::{Samples, Tally};
use crate::spec::{self, END_TO_END, UNBOUNDED};
use crate::stats::{self, Summary};
use serde::json::Value;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The distribution behind `value`, when it is a median.
    pub summary: Option<Summary>,
    /// A p90 (or why there is none), sample bases, and similar.
    pub note: String,
}

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&UNBOUNDED)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("metric is declared in spec::END_TO_END or spec::UNBOUNDED")
}

/// A median metric, or `None` when nothing was measured: a metric with
/// no samples is left out of every report rather than read as 0.
fn median_metric(name: &'static str, samples: &[f64], note: String) -> Option<Reported> {
    let summary = (!samples.is_empty()).then(|| stats::summarize(samples))?;
    Some(Reported {
        name,
        unit: e2e_unit(name),
        value: summary.median,
        summary: Some(summary),
        note,
    })
}

fn p90_note(samples: &[f64], unit: &str) -> String {
    match stats::percentile(samples, 90.0) {
        Ok(p) => format!("p90 {p:.4} {unit}"),
        Err(why) => why,
    }
}

/// The bounded end-to-end metrics of an untraced run that have samples,
/// in `END_TO_END` order.
pub fn end_to_end(s: &Samples) -> Vec<Reported> {
    [
        median_metric("peak_rss_mb", &s.rss_mb, String::new()),
        median_metric("setup_s", &s.setup, p90_note(&s.setup, "s")),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// The wall times of an untraced run: printed and kept in `results.json`
/// but not in the result line (see `spec::UNBOUNDED`).
pub fn wall_times(s: &Samples) -> Vec<Reported> {
    let note = |v: &[f64]| format!("not bounded; {}", p90_note(v, "s"));
    [
        median_metric("wall_j1_s", &s.wall_j1, note(&s.wall_j1)),
        median_metric("wall_jN_s", &s.wall_jn, note(&s.wall_jn)),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Print the table of one workload's metrics.
pub fn print_table(
    title: &str,
    metrics: &[Reported],
    notes: &[(String, f64)],
    remarks: &[String],
    tally: &Tally,
) {
    println!("== {title} ==");
    println!(
        "{:<28} {:>16} {:<6} {:>6} {:>7}  note",
        "metric", "value", "unit", "n", "IQR%"
    );
    for m in metrics {
        let (n, iqr) = match m.summary {
            Some(s) => (s.n.to_string(), format!("{:.1}", s.iqr_rel() * 100.0)),
            None => ("-".into(), "-".into()),
        };
        println!(
            "{:<28} {:>16.6} {:<6} {:>6} {:>7}  {}",
            m.name, m.value, m.unit, n, iqr, m.note
        );
    }
    for (k, v) in notes {
        println!("{k:<28} {v:>16.6}");
    }
    for r in remarks {
        println!("{r}");
    }
    println!(
        "ops: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for e in &tally.errors {
        println!("  failed: {e}");
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values keep all their digits; one that is not a finite number is
/// left out (JSON has no spelling for it).
pub fn json_line(correct: bool, tally: &Tally, metrics: &[(String, Reported)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, m)| m.value.is_finite())
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// One workload's entry in `results.json`.
pub fn workload_value(
    workload: &str,
    traced: bool,
    metrics: &[Reported],
    tally: &Tally,
    notes: &[(String, f64)],
    extra: Vec<(String, Value)>,
) -> Value {
    let metric = |m: &Reported| {
        let mut fields = vec![
            ("value".to_string(), Value::Float(m.value)),
            ("unit".to_string(), Value::Str(m.unit.to_string())),
        ];
        if let Some(s) = m.summary {
            fields.push(("n".into(), Value::UInt(s.n as u64)));
            fields.push(("q1".into(), Value::Float(s.q1)));
            fields.push(("q3".into(), Value::Float(s.q3)));
            fields.push(("iqr_rel".into(), Value::Float(s.iqr_rel())));
        }
        if !m.note.is_empty() {
            fields.push(("note".into(), Value::Str(m.note.clone())));
        }
        let about = END_TO_END
            .iter()
            .chain(&UNBOUNDED)
            .find(|x| x.name == m.name)
            .map(|x| x.meaning)
            .or_else(|| {
                spec::LAYERS
                    .iter()
                    .find(|x| x.name == m.name)
                    .map(|x| x.measured_by)
            });
        if let Some(about) = about {
            fields.push(("about".into(), Value::Str(about.to_string())));
        }
        (m.name.to_string(), Value::Object(fields))
    };
    let mut fields = vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("traced".to_string(), Value::Bool(traced)),
        (
            "metrics".to_string(),
            Value::Object(metrics.iter().map(metric).collect()),
        ),
        (
            "ops".to_string(),
            Value::Object(vec![
                ("attempted".into(), Value::UInt(tally.attempted)),
                ("failed".into(), Value::UInt(tally.failed)),
                (
                    "errors".into(),
                    Value::Array(tally.errors.iter().cloned().map(Value::Str).collect()),
                ),
            ]),
        ),
        (
            "notes".to_string(),
            Value::Object(
                notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ),
    ];
    fields.extend(extra);
    Value::Object(fields)
}

/// Facts about the host and the hermetic set-up, for `results.json`.
pub fn host_value(scrubbed: &[String]) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("kernel".into(), Value::Str(kernel)),
        ("jobs_n".into(), Value::UInt(spec::JOBS_N as u64)),
        ("scale".into(), Value::Str(spec::SCALE.into())),
        (
            "scrubbed_env".into(),
            Value::Object(vec![
                ("prefix".into(), Value::Str(crate::proc::ENV_PREFIX.into())),
                (
                    "removed".into(),
                    Value::Array(scrubbed.iter().cloned().map(Value::Str).collect()),
                ),
            ]),
        ),
        (
            "temp_root".into(),
            Value::Str("removed at exit; nothing written under results/".into()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let s = Samples {
            wall_j1: vec![2.0, 1.0, 3.0],
            wall_jn: vec![1.0],
            rss_mb: vec![30.0],
            setup: vec![1.5, 1.25],
            ..Samples::default()
        };
        assert_eq!(wall_times(&s)[0].value, 2.0);
        let m = end_to_end(&s);
        assert_eq!(m[1].value, 1.375);
        let tally = Tally {
            attempted: 7,
            failed: 0,
            errors: Vec::new(),
        };
        let named: Vec<(String, Reported)> =
            m.into_iter().map(|r| (r.name.to_string(), r)).collect();
        let line = json_line(true, &tally, &named);
        let v: Value = serde_json::from_str(&line).expect("the line is JSON");
        let Value::Object(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("attempted").and_then(crate::worker::number),
            Some(7.0)
        );
        let metrics = v.get("metrics").unwrap();
        for e in END_TO_END {
            let entry = metrics.get(e.name).expect(e.name);
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(e.unit));
        }
    }

    #[test]
    fn a_metric_without_samples_is_left_out_not_zero() {
        let s = Samples {
            wall_jn: vec![1.0],
            setup: vec![0.5],
            ..Samples::default()
        };
        let m = end_to_end(&s);
        assert!(m.iter().all(|r| r.name != "peak_rss_mb"), "{m:?}");
        assert!(wall_times(&s).iter().all(|r| r.name != "wall_j1_s"));
        let mut nan = m[0].clone();
        nan.value = f64::NAN;
        let line = json_line(false, &Tally::default(), &[("x".into(), nan)]);
        assert!(line.ends_with("\"metrics\": {}}"), "{line}");
        assert!(line.contains("\"attempted\": 0"), "{line}");
    }
}
