//! The benchmark's own checks, on the inputs `BENCHMARK.json` measures,
//! one pass each (`--seconds 0`): every workload runs correctly, its work
//! counts and quality totals repeat exactly across runs and thread counts,
//! each workload exercises the layers it was chosen for, and
//! `BENCHMARK.json` names exactly the metrics and workloads the program
//! reports. The whole file takes a few minutes in release mode.

use dra_core::telemetry::{parse_json, Json};
use perfbench::{run, Params, RunResult, END_TO_END, PER_LAYER, WORKLOADS};

fn one_pass(workload: &str, threads: usize, trace: bool) -> RunResult {
    let p = Params {
        seed: 7,
        seconds: 0.0,
        threads,
        trace,
    };
    let r = run(workload, &p).expect("known workload");
    assert_eq!(r.failed, 0, "{workload}: {:?}", r.problems);
    assert!(r.correct(trace), "{workload}: {:?}", r.metrics);
    r
}

/// The metrics that must repeat exactly: work counts, the cache hit
/// rate, and the quality totals.
fn exact(r: &RunResult) -> Vec<(&'static str, f64)> {
    r.metrics
        .iter()
        .filter(|(name, _)| {
            [
                ".evals", ".fetched", ".insts", "vregs", ".repairs", ".lines",
            ]
            .iter()
            .any(|s| name.ends_with(s))
                || name.starts_with("gen_")
                || **name == "session.hit_rate"
        })
        .map(|(n, v)| (*n, *v))
        .collect()
}

/// Run `workload` traced at 1 thread and twice at 2, and untraced at 1
/// and 2; the exact metrics must agree. Returns a 2-thread traced run.
fn repeats_exactly(workload: &str) -> RunResult {
    let one = one_pass(workload, 1, true);
    let two = one_pass(workload, 2, true);
    let again = one_pass(workload, 2, true);
    assert!(exact(&one).len() >= 10, "{workload}");
    assert_eq!(exact(&one), exact(&two), "{workload}: 1 vs 2 threads");
    assert_eq!(exact(&two), exact(&again), "{workload}: two runs");
    let untraced: Vec<_> = [1, 2].map(|t| exact(&one_pass(workload, t, false))).into();
    assert_eq!(
        untraced[0], untraced[1],
        "{workload}: untraced, 1 vs 2 threads"
    );
    two
}

#[test]
fn paper_matrix_repeats_and_remaps() {
    let r = repeats_exactly("paper-matrix");
    assert!(r.metrics["remap.evals"] > 0.0);
    assert!(r.metrics["sim.fetched"] > 0.0);
}

#[test]
fn corpus_sim_repeats_and_simulates() {
    let r = repeats_exactly("corpus-sim");
    assert!(r.metrics["sim.fetched"] > 0.0);
}

#[test]
fn compile_direct_repeats_and_never_remaps_or_simulates() {
    let r = repeats_exactly("compile-direct");
    assert_eq!(r.metrics["remap.evals"], 0.0, "compile-direct never remaps");
    assert_eq!(
        r.metrics["sim.fetched"], 0.0,
        "compile-direct never simulates"
    );
    assert!(r.metrics["checker.insts"] > 0.0);
}

#[test]
fn serve_mix_repeats_and_hits_three_in_four() {
    let r = repeats_exactly("serve-mix");
    assert_eq!(r.metrics["session.hit_rate"], 0.75);
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let obj = doc.as_obj().expect("object");
    let names = |key: &str| -> Vec<(String, String)> {
        match &obj[key] {
            Json::Arr(items) => items
                .iter()
                .map(|m| {
                    let m = m.as_obj().expect("metric object");
                    let get = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (get("name"), get("unit"))
                })
                .collect(),
            _ => panic!("{key} is not a list"),
        }
    };
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), want(&END_TO_END));
    assert_eq!(names("per_layer"), want(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
}
