//! `membw-benchmark`: one benchmark for `repro` and `repro serve`.
//!
//! ```text
//! membw-benchmark [run|trace] [--workload NAME]... [--seed N] [--seconds S]
//!                 [--trace 0|1] [--quick]
//! membw-benchmark check [BENCHMARK.json]
//! ```
//!
//! `run` (the default) measures the end-to-end metrics of each named
//! workload (all four when none is named) with tracing off; `trace`, or
//! `--trace 1`, measures the per-layer metrics and the time ledger
//! instead. Either prints a table per workload, writes `results.json`
//! (and `spans.json` when tracing) next to the build, and prints one
//! JSON result as the last line of stdout. The `repro` binary is taken
//! from the same directory as this executable. See README.md.

mod check;
mod e2e;
mod gate;
mod proc;
mod report;
mod spec;
mod stats;
mod traced;
mod tracer;
mod worker;

use report::Reported;
use serde::json::Value;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: membw-benchmark [run|trace] [--workload NAME]... [--seed N] [--seconds S]
                       [--trace 0|1] [--quick]
       membw-benchmark check [BENCHMARK.json]
workloads: fig3-timing traffic-sweep campaign serve-mixed (default: all)
--seconds S (default 20) bounds the measured phase of each workload;
--quick takes one sample per metric to smoke-test the harness and the
output gate (its numbers are not measurements).";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(argv: &[String], trace: bool) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        trace,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workloads
                    .push(spec::workload(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number, got '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got '{v}'")),
                };
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = spec::WORKLOADS.iter().collect();
    }
    Ok(args)
}

/// `<target dir>/membw-benchmark/`: results sit next to the build.
fn results_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("membw-benchmark"))
}

fn print_ledger(t: &traced::Traced) {
    let wall = t
        .metrics
        .iter()
        .find(|m| m.name == "ledger.wall_j1_s")
        .map_or(0.0, |m| m.value);
    println!(
        "ledger: median self time over {} pass(es), share of ledger.wall_j1_s",
        t.passes
    );
    for (layer, secs) in &t.ledger {
        let share = if wall > 0.0 { secs / wall * 100.0 } else { 0.0 };
        println!("  {layer:<22} {secs:>10.4} s {share:>6.1}%");
    }
}

fn cmd_run(argv: &[String], trace: bool) -> ExitCode {
    let args = match parse(argv, trace) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let repro = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("repro"),
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    if !repro.is_file() {
        eprintln!(
            "error: {} not found; build it with cargo build --release -p membw-bench --bin repro",
            repro.display()
        );
        return ExitCode::from(1);
    }
    let root = match proc::TempRoot::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot create the temp root: {e}");
            return ExitCode::from(1);
        }
    };
    if args.quick {
        eprintln!("warning: --quick takes one sample per metric; its numbers are not measurements");
    }
    let env = e2e::Env {
        repro,
        root,
        seconds: args.seconds,
        quick: args.quick,
    };
    let scrubbed = proc::scrubbed_vars();
    let mut total = e2e::Tally::default();
    let mut line_metrics: Vec<(String, Reported)> = Vec::new();
    let mut complete = true;
    let mut entries = Vec::new();
    let mut spans = Vec::new();
    let many = args.workloads.len() > 1;
    for (i, w) in args.workloads.iter().enumerate() {
        let mut rng = stats::Rng::new(args.seed).fork(i as u64);
        let mut tally = e2e::Tally::default();
        let mode = if args.trace { "traced" } else { "untraced" };
        let title = format!(
            "{} (seed {}, {} s, {mode})",
            w.name, args.seed, args.seconds
        );
        // The metrics of the result line; the table and results.json get
        // the untraced run's wall times too.
        let metrics = if args.trace {
            let t = traced::run(&env, w, &mut tally);
            let notes = vec![("passes".to_string(), t.passes as f64)];
            report::print_table(&title, &t.metrics, &notes, &[], &tally);
            print_ledger(&t);
            let ledger = Value::Object(
                t.ledger
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            );
            let extra = vec![("ledger_self_s".to_string(), ledger)];
            entries.push(report::workload_value(
                w.name, true, &t.metrics, &tally, &notes, extra,
            ));
            spans.extend(t.spans);
            complete &= t.metrics.len() == spec::LAYERS.len();
            t.metrics
        } else {
            let s = if w.serve {
                e2e::run_serve(&env, w, &mut rng, &mut tally)
            } else {
                e2e::run_cli(&env, w, &mut rng, &mut tally)
            };
            let metrics = report::end_to_end(&s);
            let shown = [metrics.clone(), report::wall_times(&s)].concat();
            report::print_table(&title, &shown, &s.notes, &s.remarks, &tally);
            entries.push(report::workload_value(
                w.name,
                false,
                &shown,
                &tally,
                &s.notes,
                Vec::new(),
            ));
            complete &= metrics.len() == spec::END_TO_END.len();
            metrics
        };
        for m in metrics {
            let name = if many {
                format!("{}.{}", w.name, m.name)
            } else {
                m.name.to_string()
            };
            line_metrics.push((name, m));
        }
        total.merge(tally);
    }
    drop(env);

    let results = Value::Object(vec![
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(args.seconds)),
        ("quick".into(), Value::Bool(args.quick)),
        ("host".into(), report::host_value(&scrubbed)),
        ("workloads".into(), Value::Array(entries)),
    ]);
    if let Some(dir) = results_dir() {
        let mut files = vec![("results.json", results)];
        if args.trace {
            files.push(("spans.json", Value::Array(spans)));
        }
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            for (name, v) in &files {
                let text = serde_json::to_string_pretty(v).expect("value trees serialize");
                std::fs::write(dir.join(name), text)?;
            }
            Ok(())
        });
        match written {
            Ok(()) => eprintln!("wrote {}", dir.join("results.json").display()),
            Err(e) => eprintln!("warning: cannot write results under {}: {e}", dir.display()),
        }
    }
    if total.attempted == 0 {
        eprintln!("error: no op was attempted, so there is no result");
        return ExitCode::from(1);
    }
    // A metric with no samples is missing from the line, and the run is
    // not correct.
    let correct = total.failed == 0 && complete;
    println!("{}", report::json_line(correct, &total, &line_metrics));
    ExitCode::SUCCESS
}

fn cmd_worker(argv: &[String]) -> ExitCode {
    let w = match argv {
        [flag, name] if flag == "--workload" => spec::workload(name),
        _ => None,
    };
    let Some(w) = w else {
        eprintln!("usage: membw-benchmark worker --workload NAME");
        return ExitCode::from(2);
    };
    println!("{}", worker::run(w).to_json());
    ExitCode::SUCCESS
}

fn cmd_check(argv: &[String]) -> ExitCode {
    let path = argv.first().map_or("BENCHMARK.json", String::as_str);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let problems = check::problems(&text);
    for p in &problems {
        println!("{path}: {p}");
    }
    if problems.is_empty() {
        println!(
            "{path}: ok ({} workloads, {} end-to-end and {} per-layer metrics)",
            spec::WORKLOADS.len(),
            spec::END_TO_END.len(),
            spec::LAYERS.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&argv[1..], false),
        Some("trace") => cmd_run(&argv[1..], true),
        Some("check") => cmd_check(&argv[1..]),
        Some("worker") => cmd_worker(&argv[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => cmd_run(&argv, false),
    }
}
