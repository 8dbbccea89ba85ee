//! The three batch workloads: a fixed list of cells (program text ×
//! approach) run through `dra_core::run_batch` in whole passes.

use crate::compose::{run_traced, run_untraced, CellOut, Counts, SIX_APPROACHES};
use crate::stats::{median, mix, quantile, shuffle};
use crate::trace::{Trace, Tracer};
use crate::{calib, oracle, peak_rss_mib, Params, RunResult};
use dra_core::corpus::corpus_setup;
use dra_core::{run_batch, Approach, LowEndSetup};
use dra_ir::Program;
use dra_workloads::{builtin_profiles, generate_from_profile};
use std::time::Instant;

/// Set-up samples a run takes at least.
const SETUP_MIN_SAMPLES: usize = 5;
/// Each set-up sample times enough builds back to back to last about this
/// long (s), so a set-up of a few milliseconds is not timed one build at a
/// time.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Times a workload's set-up. One untimed warm-up build gives the inputs
/// the run uses. After it, each [`sample`](Self::sample) times a group of
/// builds back to back (see [`SETUP_SAMPLE_S`]) and records the time per
/// build; the builds are discarded outside the timed region. The untraced
/// runs take one sample after each pass (or round), so that `setup_s`, like
/// the pass times, sees the host across the whole run rather than in its
/// first second, and scale it by that pass's [`calib::slowdown`].
pub struct SetupTimer<B, D> {
    build: B,
    discard: D,
    group: usize,
    samples: Vec<f64>,
}

impl<T, B, D> SetupTimer<B, D>
where
    B: FnMut() -> Result<T, String>,
    D: FnMut(T) -> Result<(), String>,
{
    /// Make the warm-up build; return the timer and what it built.
    pub fn start(mut build: B, discard: D) -> Result<(Self, T), String> {
        let t0 = Instant::now();
        let built = build()?;
        let warmup = t0.elapsed().as_secs_f64();
        let group = ((SETUP_SAMPLE_S / warmup.max(1e-6)).ceil() as usize).clamp(1, 1000);
        let timer = SetupTimer {
            build,
            discard,
            group,
            samples: Vec::new(),
        };
        Ok((timer, built))
    }

    /// Take one sample while the host runs `slowdown` times slower than
    /// the reference.
    pub fn sample(&mut self, slowdown: f64) -> Result<(), String> {
        let mut built = Vec::with_capacity(self.group);
        let t0 = Instant::now();
        for _ in 0..self.group {
            built.push((self.build)()?);
        }
        self.samples
            .push(t0.elapsed().as_secs_f64() / self.group as f64 / slowdown);
        built.into_iter().try_for_each(&mut self.discard)
    }

    /// Take samples up to [`SETUP_MIN_SAMPLES`], at `slowdown`; return
    /// their median (s).
    pub fn finish(mut self, slowdown: f64) -> Result<f64, String> {
        while self.samples.len() < SETUP_MIN_SAMPLES {
            self.sample(slowdown)?;
        }
        Ok(median(&self.samples))
    }
}

/// A batch workload's inputs.
pub struct BatchSpec {
    /// Source programs.
    pub texts: Vec<String>,
    /// Functions in each source program.
    pub funcs: Vec<usize>,
    /// Cells: (index into `texts`, approach).
    pub cells: Vec<(usize, Approach)>,
    /// The pipeline configuration every cell compiles under.
    pub setup: LowEndSetup,
    /// Whether cells simulate (and are checked against the oracle).
    pub simulate: bool,
}

fn base_setup(mut setup: LowEndSetup, p: &Params) -> LowEndSetup {
    setup.check = true;
    setup.batch_threads = p.threads;
    setup.remap_threads = 1;
    setup
}

/// `paper-matrix`: the 10 mibench-like benchmarks × 6 approaches under
/// the paper's setup (greedy remap search, 1000 starts). The programs
/// are fixed; the seed only orders the cells.
pub fn paper_matrix(p: &Params) -> BatchSpec {
    let setup = base_setup(LowEndSetup::default(), p);
    let names = dra_workloads::benchmark_names();
    let programs: Vec<Program> = names.iter().map(|n| dra_workloads::benchmark(n)).collect();
    let (texts, funcs) = render(&programs);
    let mut cells: Vec<(usize, Approach)> = (0..texts.len())
        .flat_map(|ti| SIX_APPROACHES.map(|a| (ti, a)))
        .collect();
    shuffle(&mut cells, p.seed);
    BatchSpec {
        texts,
        funcs,
        cells,
        setup,
        simulate: true,
    }
}

/// Program texts and their function counts.
fn render(programs: &[Program]) -> (Vec<String>, Vec<usize>) {
    programs
        .iter()
        .map(|p| (p.to_string(), p.funcs.len()))
        .unzip()
}

/// Generator seed of the corpus workloads: the repository's default
/// corpus seed (`drac corpus`). The programs are fixed so that every
/// `--seed` compiles the same work and the `gen_*` quality totals repeat
/// exactly; `--seed` orders the cells, which decides which thread runs
/// each cell and when.
pub const CORPUS_SEED: u64 = 0;

/// Generate `per_profile` functions from each builtin profile at
/// [`CORPUS_SEED`], as program texts and function counts.
fn profile_corpus(per_profile: usize) -> (Vec<String>, Vec<usize>) {
    let programs: Vec<Program> = builtin_profiles()
        .iter()
        .flat_map(|profile| {
            generate_from_profile(profile, CORPUS_SEED, per_profile)
                .expect("builtin profiles are valid")
        })
        .collect();
    render(&programs)
}

/// `corpus-sim`: 100 generated functions per builtin profile, compiled
/// and simulated under `adaptive` with the corpus setup (24 starts).
pub fn corpus_sim(p: &Params) -> BatchSpec {
    let (texts, funcs) = profile_corpus(100);
    let mut cells: Vec<(usize, Approach)> = (0..texts.len())
        .map(|ti| (ti, Approach::Adaptive))
        .collect();
    shuffle(&mut cells, p.seed);
    BatchSpec {
        texts,
        funcs,
        cells,
        setup: base_setup(corpus_setup(), p),
        simulate: true,
    }
}

/// `compile-direct`: 1000 generated functions per builtin profile,
/// compiled under `baseline` and `o-spill` with the checker on; never
/// remapped, never simulated.
pub fn compile_direct(p: &Params) -> BatchSpec {
    let (texts, funcs) = profile_corpus(1000);
    let mut cells: Vec<(usize, Approach)> = (0..texts.len())
        .flat_map(|ti| [(ti, Approach::Baseline), (ti, Approach::OSpill)])
        .collect();
    shuffle(&mut cells, p.seed);
    BatchSpec {
        texts,
        funcs,
        cells,
        setup: base_setup(corpus_setup(), p),
        simulate: false,
    }
}

/// One untraced pass: every cell once, in the order `order_seed`
/// shuffles them to, so that across passes each cell runs beside
/// different cells. Each cell is timed around its pipeline call, with
/// calibration slices between cells. Returns, by cell, the outputs and
/// latencies (ns), then the pass wall time without the slices (ns) and
/// the host's [`calib::slowdown`] during the pass.
pub fn untraced_pass(
    spec: &BatchSpec,
    threads: usize,
    order_seed: u64,
) -> (Vec<Result<CellOut, String>>, Vec<u64>, u64, f64) {
    let mut order: Vec<usize> = (0..spec.cells.len()).collect();
    shuffle(&mut order, order_seed);
    let t0 = Instant::now();
    let results = run_batch(&order, threads, |_, &ci| {
        let (ti, approach) = spec.cells[ci];
        let c0 = Instant::now();
        let r = run_untraced(&spec.texts[ti], approach, &spec.setup, spec.simulate);
        let lat = c0.elapsed().as_nanos() as u64;
        (r, lat, calib::maybe_slice())
    });
    let wall = t0.elapsed().as_nanos() as u64;
    let mut by_cell: Vec<Option<(Result<CellOut, String>, u64)>> =
        (0..order.len()).map(|_| None).collect();
    let mut slices = Vec::new();
    for (&ci, (r, lat, slice)) in order.iter().zip(results) {
        by_cell[ci] = Some((r, lat));
        slices.extend(slice);
    }
    let (outs, lats) = by_cell
        .into_iter()
        .map(|c| c.expect("every cell runs once"))
        .unzip();
    let busy = threads.min(spec.cells.len()).max(1) as u64;
    let net = wall.saturating_sub(slices.iter().sum::<u64>() / busy);
    (outs, lats, net, calib::slowdown(&slices))
}

/// One traced pass: every cell once through the span-recording
/// composition. Appends a `batch` span (with the cells as children) to
/// `trace`; returns outputs, the pass's layer counts and its wall time.
pub fn traced_pass(
    spec: &BatchSpec,
    threads: usize,
    origin: Instant,
    pass: u64,
    trace: &mut Trace,
) -> (Vec<Result<CellOut, String>>, Counts, u64) {
    let start = origin.elapsed().as_nanos() as u64;
    let n = spec.cells.len() as u64;
    let results = run_batch(&spec.cells, threads, |ci, &(ti, approach)| {
        let mut tr = Tracer::new(origin, pass * n + ci as u64);
        let mut counts = Counts::default();
        tr.enter("cell");
        let r = run_traced(
            &spec.texts[ti],
            approach,
            &spec.setup,
            spec.simulate,
            &mut tr,
            &mut counts,
        );
        tr.exit();
        (r, counts, tr.into_spans())
    });
    let end = origin.elapsed().as_nanos() as u64;
    let root = trace.push_root("batch", start, end, pass);
    let mut total = Counts::default();
    let mut outs = Vec::with_capacity(results.len());
    for (r, c, spans) in results {
        total.add(&c);
        trace.absorb(spans, Some(root));
        outs.push(r);
    }
    (outs, total, end - start)
}

/// Check a pass's outputs: no cell failed or degraded, and each produced
/// what it produced in the first untraced pass (`reference`, absent while
/// that pass itself is checked). Every cell counts as one attempted
/// operation.
fn check_pass(
    spec: &BatchSpec,
    outs: &[Result<CellOut, String>],
    reference: Option<&[Result<CellOut, String>]>,
    what: &str,
    res: &mut RunResult,
) {
    res.attempted += outs.len() as u64;
    for (ci, o) in outs.iter().enumerate() {
        let (ti, approach) = spec.cells[ci];
        let cell = format!("cell {ci} (text {ti}, {})", approach.label());
        match o {
            Err(e) => res.fail(format!("{what} {cell}: {e}")),
            Ok(out) if out.degrade_events > 0 => res.fail(format!(
                "{what} {cell}: the degradation lattice fired ({} events)",
                out.degrade_events
            )),
            Ok(out) => {
                let same = match reference.map(|r| &r[ci]) {
                    Some(Ok(want)) => want.same_output(out),
                    Some(Err(_)) => false,
                    None => true,
                };
                if !same {
                    res.fail(format!(
                        "{what} {cell}: output differs from the first untraced pass"
                    ));
                }
            }
        }
    }
}

/// Run every source program through the reference interpreter and
/// compare each simulated cell's return value. Runs outside any timed
/// region.
fn check_oracle(
    spec: &BatchSpec,
    threads: usize,
    outs: &[Result<CellOut, String>],
    passes: u64,
    res: &mut RunResult,
) {
    let want = run_batch(&spec.texts, threads, |_, text| {
        let prog = dra_ir::parse::parse_program(text).map_err(|e| e.to_string())?;
        oracle::interpret(&prog, &spec.setup.args, spec.setup.machine.max_steps)
    });
    for (ci, o) in outs.iter().enumerate() {
        let (ti, approach) = spec.cells[ci];
        let Ok(out) = o else { continue };
        let got = out.sim.as_ref().and_then(|s| s.ret_value);
        match &want[ti] {
            Ok(w) if *w == got => {}
            Ok(w) => {
                for _ in 0..passes {
                    res.fail(format!(
                        "cell {ci} (text {ti}, {}): returned {got:?}, the reference interpreter {w:?}",
                        approach.label()
                    ));
                }
            }
            Err(e) => res.fail(format!("text {ti}: reference interpreter failed: {e}")),
        }
    }
}

/// Quality totals of one pass: code bits, simulated cycles, dynamic
/// `set_last_reg` count.
fn quality(outs: &[Result<CellOut, String>]) -> (u64, u64, u64) {
    let mut q = (0, 0, 0);
    for out in outs.iter().flatten() {
        q.0 += out.code_bits;
        if let Some(s) = &out.sim {
            q.1 += s.cycles;
            q.2 += s.dynamic_set_last_regs;
        }
    }
    q
}

/// Run a batch workload: the untraced run measures the end-to-end
/// metrics; the traced run alternates untraced and traced passes and
/// measures the per-layer metrics.
pub fn run(p: &Params, build: fn(&Params) -> BatchSpec) -> RunResult {
    let (mut setup_timer, spec) =
        SetupTimer::start(|| Ok(build(p)), |_| Ok(())).expect("building a batch spec cannot fail");
    let funcs: usize = spec.cells.iter().map(|&(ti, _)| spec.funcs[ti]).sum();
    let threads = p.threads.max(1);
    let mut res = RunResult::default();
    let mut first: Vec<Result<CellOut, String>> = Vec::new();
    // Untraced pass times (s): as measured, and divided by the pass's
    // host slowdown.
    let mut untraced_walls: Vec<f64> = Vec::new();
    let mut scaled_walls: Vec<f64> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    // Every cell compile's latency (ms), divided by its pass's host
    // slowdown.
    let mut lats: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut counts = Counts::default();
    let origin = Instant::now();
    let mut measured = 0.0;
    loop {
        let pass = untraced_walls.len() as u64;
        let (outs, cell_lats, wall, slowdown) = untraced_pass(&spec, threads, mix(p.seed, pass));
        measured += wall as f64 / 1e9;
        untraced_walls.push(wall as f64 / 1e9);
        scaled_walls.push(wall as f64 / 1e9 / slowdown);
        slowdowns.push(slowdown);
        eprintln!(
            "perfbench: untraced pass {}: {:.3} s, host slowdown {slowdown:.3}",
            untraced_walls.len(),
            wall as f64 / 1e9
        );
        lats.extend(cell_lats.iter().map(|&ns| ns as f64 / 1e6 / slowdown));
        if first.is_empty() {
            check_pass(&spec, &outs, None, "untraced", &mut res);
            first = outs;
        } else {
            check_pass(&spec, &outs, Some(&first), "untraced", &mut res);
        }
        if !p.trace {
            setup_timer
                .sample(slowdown)
                .expect("building a batch spec cannot fail");
        }
        if p.trace {
            let pass = traced_walls.len() as u64;
            let (outs, c, wall) = traced_pass(&spec, threads, origin, pass, &mut res.trace);
            measured += wall as f64 / 1e9;
            traced_walls.push(wall as f64 / 1e9);
            eprintln!(
                "perfbench: traced pass {}: {:.3} s",
                traced_walls.len(),
                wall as f64 / 1e9
            );
            check_pass(&spec, &outs, Some(&first), "traced", &mut res);
            if pass == 0 {
                counts = c;
            } else if c != counts {
                res.fail(format!(
                    "traced pass {pass}: layer counts changed: {c:?} vs {counts:?}"
                ));
            }
        }
        if measured >= p.seconds {
            break;
        }
    }
    let passes = (untraced_walls.len() + traced_walls.len()) as u64;
    if spec.simulate {
        check_oracle(&spec, threads, &first, passes, &mut res);
    }
    let (code_bits, cycles, dyn_slr) = quality(&first);
    let m = &mut res.metrics;
    if !p.trace {
        let setup_s = setup_timer
            .finish(median(&slowdowns))
            .expect("building a batch spec cannot fail");
        m.insert("setup_s", setup_s);
        // One pass's work over the median scaled pass time, so that a few
        // slow seconds of a busy host do not move the run's figure.
        m.insert("functions_per_s", funcs as f64 / median(&scaled_walls));
        // The quantiles are over every cell compile of every pass; since
        // each pass runs the cells in another order, a cell's latency is
        // taken beside several different neighbours.
        m.insert("cold_p50_ms", quantile(&lats, 0.5));
        m.insert("cold_p90_ms", quantile(&lats, 0.9));
        m.insert("peak_rss_mib", peak_rss_mib());
        m.insert("gen_code_bits", code_bits as f64);
        return res;
    }
    layer_metrics(&mut res, &counts, traced_walls.len() as f64);
    let m = &mut res.metrics;
    let busy_threads = threads.min(spec.cells.len()).max(1) as f64;
    let utilization =
        res.trace.total("cell") as f64 / (busy_threads * res.trace.total("batch") as f64);
    m.insert("batch.utilization", utilization);
    let slowest: Vec<f64> = res
        .trace
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "batch")
        .map(|(bi, _)| {
            res.trace
                .spans
                .iter()
                .filter(|s| s.parent == Some(bi))
                .map(|s| s.dur())
                .max()
                .unwrap_or(0) as f64
                / 1e6
        })
        .collect();
    m.insert("batch.slowest_cell_ms", median(&slowest));
    m.insert("session.hit_rate", 0.0);
    m.insert("session.hit_ms", 0.0);
    m.insert("serve.service_ms", 0.0);
    m.insert("serve.wait_ms", 0.0);
    m.insert(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls) - 1.0,
    );
    m.insert("gen_cycles", cycles as f64);
    m.insert("gen_dyn_slr", dyn_slr as f64);
    m.insert("calib.slowdown", median(&slowdowns));
    res
}

/// The per-layer metrics shared by every workload: for each layer, ns per
/// unit of work (self time over all `passes` traced passes ÷ one pass's
/// count × passes), the count itself (one pass), and the share of cell
/// time.
pub fn layer_metrics(res: &mut RunResult, counts: &Counts, passes: f64) {
    let by = res.trace.self_by_name();
    let cell_ns = res.trace.total("cell") as f64;
    let ns = |layer: &str| by.get(layer).copied().unwrap_or(0) as f64;
    let per = |layer: &str, count: u64| {
        if count == 0 {
            0.0
        } else {
            ns(layer) / (count as f64 * passes)
        }
    };
    let share = |layer: &str| {
        if cell_ns > 0.0 {
            ns(layer) / cell_ns
        } else {
            0.0
        }
    };
    let m = &mut res.metrics;
    m.insert("parse.ns_per_line", per("parse", counts.lines));
    m.insert("parse.lines", counts.lines as f64);
    m.insert("parse.share", share("parse"));
    m.insert("alloc.ns_per_vreg", per("alloc", counts.vregs));
    m.insert("alloc.vregs", counts.vregs as f64);
    m.insert("alloc.spilled_vregs", counts.spilled_vregs as f64);
    m.insert("alloc.share", share("alloc"));
    m.insert("remap.ns_per_eval", per("remap", counts.evals));
    m.insert("remap.evals", counts.evals as f64);
    m.insert("remap.share", share("remap"));
    m.insert("encode.ns_per_inst", per("encode", counts.encoded_insts));
    m.insert("encode.insts", counts.encoded_insts as f64);
    m.insert("encode.repairs", counts.repairs as f64);
    m.insert("encode.share", share("encode"));
    m.insert("checker.ns_per_inst", per("checker", counts.checker_insts));
    m.insert("checker.insts", counts.checker_insts as f64);
    m.insert("checker.share", share("checker"));
    m.insert("sim.ns_per_fetched", per("sim", counts.fetched));
    m.insert("sim.fetched", counts.fetched as f64);
    m.insert("sim.share", share("sim"));
}
