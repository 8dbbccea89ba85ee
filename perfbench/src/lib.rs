//! The repository's benchmark: four fixed workloads over the differential
//! register allocation pipeline, each reporting end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! | workload | what runs | the layer it stresses |
//! |---|---|---|
//! | `paper-matrix` | 10 mibench-like benchmarks × 6 approaches, 1000 remap starts | `remap` |
//! | `corpus-sim` | 100 generated functions per builtin profile, `adaptive`, simulated | `sim` |
//! | `compile-direct` | 1000 generated functions per profile, `baseline` + `o-spill`, not simulated | `parse`, `alloc`, `checker` |
//! | `serve-mix` | an in-process daemon, 2 closed-loop clients, 25% cold / 75% cached requests | `session`, `serve` |
//!
//! The benchmark calls each layer only through its public function and
//! records spans around those calls in its own code (`trace`,
//! `compose`); no span sits inside the program. Every simulated
//! program's return value is checked against a reference interpreter of
//! the source (`oracle`), and every traced cell must produce exactly
//! what the untraced pipeline produced. Every end-to-end time is divided
//! by how much slower than a reference the shared host ran while it was
//! measured, as timed by a fixed kernel between cells (`calib`).

mod batch;
mod calib;
mod compose;
mod oracle;
mod serve_mix;
mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = ["paper-matrix", "corpus-sim", "compile-direct", "serve-mix"];

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("functions_per_s", "functions/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("gen_code_bits", "bits"),
];

/// Per-layer metrics (traced run), with units. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("parse.ns_per_line", "ns"),
    ("parse.lines", "count"),
    ("parse.share", "fraction"),
    ("alloc.ns_per_vreg", "ns"),
    ("alloc.vregs", "count"),
    ("alloc.spilled_vregs", "count"),
    ("alloc.share", "fraction"),
    ("remap.ns_per_eval", "ns"),
    ("remap.evals", "count"),
    ("remap.share", "fraction"),
    ("encode.ns_per_inst", "ns"),
    ("encode.insts", "count"),
    ("encode.repairs", "count"),
    ("encode.share", "fraction"),
    ("checker.ns_per_inst", "ns"),
    ("checker.insts", "count"),
    ("checker.share", "fraction"),
    ("sim.ns_per_fetched", "ns"),
    ("sim.fetched", "count"),
    ("sim.share", "fraction"),
    ("batch.utilization", "fraction"),
    ("batch.slowest_cell_ms", "ms"),
    ("session.hit_rate", "fraction"),
    ("session.hit_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("trace.overhead", "fraction"),
    ("gen_cycles", "cycles"),
    ("gen_dyn_slr", "count"),
    ("calib.slowdown", "ratio"),
];

/// How a workload is run.
#[derive(Clone, Debug)]
pub struct Params {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time; work repeats in whole passes until it is spent
    /// (at least one pass).
    pub seconds: f64,
    /// Batch threads, daemon workers and client connections.
    pub threads: usize,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (compiles, requests).
    pub attempted: u64,
    /// Operations that failed: errors, checker rejections, degraded
    /// functions, wrong answers, outputs that differ between passes or
    /// from the untraced pipeline, shed requests.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// One line per failure kind, for the report.
    pub problems: Vec<String>,
    /// The spans of a traced run.
    pub trace: trace::Trace,
}

impl RunResult {
    /// Record a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Every metric of the run's kind is present and finite, and no
    /// operation failed.
    pub fn correct(&self, trace: bool) -> bool {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        self.failed == 0
            && self.attempted > 0
            && self.metrics.len() == names.len()
            && names
                .iter()
                .all(|n| self.metrics.get(n).is_some_and(|v| v.is_finite()))
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    dra_core::corpus::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Run one workload by name.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, p: &Params) -> Result<RunResult, String> {
    match workload {
        "paper-matrix" => Ok(batch::run(p, batch::paper_matrix)),
        "corpus-sim" => Ok(batch::run(p, batch::corpus_sim)),
        "compile-direct" => Ok(batch::run(p, batch::compile_direct)),
        "serve-mix" => Ok(serve_mix::run(p)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
