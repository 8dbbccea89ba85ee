//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints each metric by name and unit, then, as
//! the last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes the spans to `.perfbench/trace-<workload>-<seed>.jsonl`).
//! Exits 1 when any output was wrong, 2 on bad arguments.

use perfbench::{run, Params, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut p = Params {
        seed: 1,
        seconds: 10.0,
        // Batch threads, daemon workers and client connections: the
        // workloads are defined for two.
        threads: 2,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| p.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v: f64| p.seconds = v).is_ok() && p.seconds >= 0.0,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    p.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let result = match run(&workload, &p) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };

    if p.trace {
        let path = format!(".perfbench/trace-{workload}-{}.jsonl", p.seed);
        let written = std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::write(&path, result.trace.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    }
    for problem in &result.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }
    let names: &[(&str, &str)] = if p.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in names {
        let value = result.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("{workload:>15} {name:<22} {value:>16.6} {unit}");
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = result.correct(p.trace);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
