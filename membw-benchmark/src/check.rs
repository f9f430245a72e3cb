//! `membw-benchmark check`: `BENCHMARK.json` against what this harness
//! emits and predicts.

use crate::spec::{END_TO_END, LAYERS, UNBOUNDED, WORKLOADS};
use crate::traced::PARENT_VALUES;
use crate::worker::WORKER_VALUES;
use serde::json::Value;

/// The regression bound of every end-to-end metric: 10% of the median.
const MAX_BOUND: f64 = 0.10;
/// `setup_s` is the one metric the `BENCHMARK.json` format requires on
/// every workload, so it cannot be dropped when it drifts by more than
/// 10%; the format gives it the largest bound it allows.
const MAX_SETUP_BOUND: f64 = 0.25;

/// `[A-Za-z0-9_.-]+`
fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// `(name, unit, better)` of every entry of a list, sorted.
fn listed(entries: &[Value]) -> Vec<(&str, &str, &str)> {
    let mut v: Vec<(&str, &str, &str)> = entries
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    v.sort_unstable();
    v
}

/// Every problem with `text` as this benchmark's `BENCHMARK.json`.
pub fn problems(text: &str) -> Vec<String> {
    let v: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not JSON: {e}")],
    };
    let list = |key: &str| v.get(key).and_then(Value::as_array).unwrap_or(&[]);
    let (workloads, e2e, layers) = (list("workloads"), list("end_to_end"), list("per_layer"));
    let mut p = Vec::new();

    let mut names: Vec<&str> = Vec::new();
    for entry in workloads.iter().chain(e2e).chain(layers) {
        let n = str_of(entry, "name");
        if !is_name(n) {
            p.push(format!("bad name '{n}'"));
        }
        if names.contains(&n) {
            p.push(format!("name '{n}' used twice"));
        }
        names.push(n);
    }
    if e2e.len() > 16 {
        p.push(format!("{} end-to-end metrics, at most 16", e2e.len()));
    }
    if layers.len() > 128 {
        p.push(format!("{} per-layer metrics, at most 128", layers.len()));
    }
    for w in workloads {
        if str_of(w, "why").trim().is_empty() {
            p.push(format!("workload '{}' has no why", str_of(w, "name")));
        }
    }
    for m in e2e {
        let name = str_of(m, "name");
        let max = if name == "setup_s" {
            MAX_SETUP_BOUND
        } else {
            MAX_BOUND
        };
        let bound = m.get("bound").and_then(crate::worker::number);
        if !bound.is_some_and(|b| b > 0.0 && b <= max) {
            p.push(format!("{name}: bound {bound:?} outside (0, {max}]"));
        }
    }

    let mut emitted: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    emitted.sort_unstable();
    if listed(e2e) != emitted {
        p.push(format!(
            "end-to-end metrics listed {:?}, emitted {emitted:?}",
            listed(e2e)
        ));
    }
    let mut emitted: Vec<(&str, &str, &str)> = LAYERS
        .iter()
        .map(|l| (l.name, l.unit, l.better.as_str()))
        .collect();
    emitted.sort_unstable();
    if listed(layers) != emitted {
        p.push(format!(
            "per-layer metrics listed {:?}, emitted {emitted:?}",
            listed(layers)
        ));
    }
    p.extend(predictions());
    p
}

/// Every layer metric names the end-to-end metric and workload it
/// should move, or the workloads it must leave flat; and the traced run
/// emits exactly the declared layer metrics.
fn predictions() -> Vec<String> {
    let mut p = Vec::new();
    let metric = |n: &str| END_TO_END.iter().chain(&UNBOUNDED).any(|m| m.name == n);
    let workload = |n: &str| WORKLOADS.iter().any(|w| w.name == n);
    for l in LAYERS {
        if l.moves.is_empty() && !l.flat.iter().any(|f| workload(f)) {
            p.push(format!("{}: predicts nothing", l.name));
        }
        for (m, on) in l.moves {
            if !metric(m) {
                p.push(format!("{}: moves unknown metric '{m}'", l.name));
            }
            if on.is_empty() {
                p.push(format!("{}: names no workload where it moves {m}", l.name));
            }
            for w in on.iter().filter(|w| !workload(w)) {
                p.push(format!("{}: names unknown workload '{w}'", l.name));
            }
        }
        for f in l.flat.iter().filter(|f| !metric(f) && !workload(f)) {
            p.push(format!("{}: flat on unknown '{f}'", l.name));
        }
    }
    let mut emitted: Vec<&str> = WORKER_VALUES
        .iter()
        .chain(&PARENT_VALUES)
        .copied()
        .collect();
    let mut declared: Vec<&str> = LAYERS.iter().map(|l| l.name).collect();
    emitted.sort_unstable();
    declared.sort_unstable();
    if emitted != declared {
        p.push(format!(
            "traced run emits {emitted:?}, spec declares {declared:?}"
        ));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn committed_benchmark_json_passes() {
        assert_eq!(problems(COMMITTED), Vec::<String>::new());
    }

    #[test]
    fn violations_are_reported() {
        let wide = COMMITTED.replacen("\"bound\": 0.1}", "\"bound\": 0.25}", 1);
        let e = problems(&wide);
        assert!(e.iter().any(|e| e.contains("peak_rss_mb: bound")), "{e:?}");
        let wider = COMMITTED.replacen("\"bound\": 0.25}", "\"bound\": 0.3}", 1);
        let e = problems(&wider);
        assert!(e.iter().any(|e| e.contains("setup_s: bound")), "{e:?}");
        let renamed = COMMITTED.replacen("\"peak_rss_mb\"", "\"peak rss\"", 1);
        let e = problems(&renamed);
        assert!(e.iter().any(|e| e.contains("bad name")), "{e:?}");
        assert!(
            e.iter().any(|e| e.contains("end-to-end metrics listed")),
            "{e:?}"
        );
        let no_why = COMMITTED.replacen("\"why\": \"", "\"why\": \" \", \"was\": \"", 1);
        assert!(problems(&no_why).iter().any(|e| e.contains("no why")));
        assert!(!problems("[").is_empty());
    }

    #[test]
    fn names_follow_the_grammar() {
        assert!(is_name("sim.ruu_uops_per_s") && is_name("fig3-timing"));
        assert!(!is_name("a b") && !is_name("") && !is_name("µs"));
    }
}
