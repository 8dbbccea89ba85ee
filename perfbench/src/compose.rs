//! The two ways the benchmark compiles one cell.
//!
//! * [`run_untraced`] calls the pipeline's own entry points
//!   (`compile_and_run_source`, or parse + `compile_program_telemetry` for
//!   cells that are not simulated). End-to-end metrics time these.
//! * [`run_traced`] makes the same sequence of layer calls that the
//!   pipeline's approach dispatch makes, itself, with a span around each
//!   layer's public function and the layer's work counted where it
//!   happens. Per-layer metrics come from these spans.
//!
//! Both return a [`CellOut`]; [`CellOut::same_output`] must hold between
//! the two for every cell, or the composition no longer matches the
//! pipeline.

use crate::trace::Tracer;
use dra_core::lowend::compile_program_telemetry;
use dra_core::{compile_and_run_source, Approach, LowEndRun, LowEndSetup, Telemetry};
use dra_encoding::{
    insert_set_last_reg, insert_set_last_reg_program, verify_function, verify_program,
    EncodingConfig,
};
use dra_ir::{BlockId, Function, Program};
use dra_isa::code_size_bits;
use dra_regalloc::{
    allocate_program, check_allocation, check_function_encoding, remap_function, remap_program,
    AllocConfig, AllocationRecord, Allocator, AllocatorStats, CheckStats, Coalescing, DenseIrc,
    Ospill, RemapStats,
};
use std::collections::HashMap;

/// Every approach the low-end experiment compares, in the paper's order
/// plus the per-function `adaptive` extension.
pub const SIX_APPROACHES: [Approach; 6] = [
    Approach::Baseline,
    Approach::Remapping,
    Approach::Select,
    Approach::OSpill,
    Approach::Coalesce,
    Approach::Adaptive,
];

/// Simulated outcome of a compiled program.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOut {
    /// Cycles on the 5-stage machine.
    pub cycles: u64,
    /// Dynamic spill accesses.
    pub dynamic_spills: u64,
    /// Dynamic `set_last_reg` fetches.
    pub dynamic_set_last_regs: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// The entry function's return value.
    pub ret_value: Option<i64>,
    /// Entry-function block trace.
    pub entry_trace: Vec<BlockId>,
    /// Per-(function, block) execution counts.
    pub block_counts: HashMap<(u32, u32), u64>,
}

/// What one compiled cell produced.
#[derive(Clone, Debug)]
pub struct CellOut {
    /// The approach it was compiled under.
    pub approach: Approach,
    /// The compiled program.
    pub program: Program,
    /// Per-function remapping statistics.
    pub remap: Vec<RemapStats>,
    /// Code size in bits.
    pub code_bits: u64,
    /// The simulated run, for cells that simulate.
    pub sim: Option<SimOut>,
    /// Sum of the `degrade.*` counters (always 0 for the composition,
    /// which has no degradation lattice).
    pub degrade_events: u64,
}

impl CellOut {
    /// The outputs of an untraced pipeline run.
    pub fn from_run(run: LowEndRun) -> CellOut {
        let degrade_events = degrade_events(&run.telemetry);
        CellOut {
            approach: run.approach,
            code_bits: run.code_bits,
            remap: run.remap,
            sim: Some(SimOut {
                cycles: run.cycles,
                dynamic_spills: run.dynamic_spills,
                dynamic_set_last_regs: run.dynamic_set_last_regs,
                icache_misses: run.icache_misses,
                dcache_misses: run.dcache_misses,
                ret_value: run.ret_value,
                entry_trace: run.entry_trace,
                block_counts: run.block_counts,
            }),
            program: run.program,
            degrade_events,
        }
    }

    /// The cell as the pipeline's [`LowEndRun`] (empty telemetry), so
    /// that the daemon's result rendering can be applied to it.
    ///
    /// # Panics
    ///
    /// On a cell that was not simulated.
    pub fn to_run(&self) -> LowEndRun {
        let sim = self.sim.clone().expect("only simulated cells form a run");
        LowEndRun {
            approach: self.approach,
            spill_insts: self.program.count_insts(|i| i.is_spill()),
            set_last_regs: self.program.count_insts(|i| i.is_set_last_reg()),
            total_insts: self.program.num_insts(),
            code_bits: self.code_bits,
            cycles: sim.cycles,
            dynamic_spills: sim.dynamic_spills,
            dynamic_set_last_regs: sim.dynamic_set_last_regs,
            icache_misses: sim.icache_misses,
            dcache_misses: sim.dcache_misses,
            ret_value: sim.ret_value,
            remap: self.remap.clone(),
            entry_trace: sim.entry_trace,
            block_counts: sim.block_counts,
            telemetry: Telemetry::new(),
            program: self.program.clone(),
        }
    }

    /// Whether `other` produced the same output as `self`: the compiled
    /// program, its code size, the simulated run, and each function's
    /// remap search outcome — everything but wall-clock time.
    pub fn same_output(&self, other: &CellOut) -> bool {
        let search = |c: &CellOut| -> Vec<_> {
            c.remap
                .iter()
                .map(|r| {
                    (
                        r.evaluations,
                        r.starts_run,
                        r.winner,
                        r.degraded,
                        r.cost_after.to_bits(),
                    )
                })
                .collect()
        };
        self.approach == other.approach
            && self.code_bits == other.code_bits
            && self.sim == other.sim
            && search(self) == search(other)
            && self.program == other.program
    }
}

fn degrade_events(t: &Telemetry) -> u64 {
    t.counters()
        .iter()
        .filter(|(k, _)| k.starts_with("degrade."))
        .map(|(_, v)| v)
        .sum()
}

/// Parse and validate program text the way `compile_and_run_source`
/// does.
fn parse_checked(text: &str) -> Result<Program, String> {
    let p = dra_ir::parse::parse_program(text).map_err(|e| format!("parse: {e}"))?;
    for (fi, f) in p.funcs.iter().enumerate() {
        dra_ir::validate::validate_function(f).map_err(|e| format!("validate f{fi}: {e}"))?;
    }
    dra_ir::validate::validate_program(&p).map_err(|e| format!("validate: {e}"))?;
    Ok(p)
}

/// Compile one cell through the pipeline's public entry points, with no
/// spans. `simulate` selects `compile_and_run_source` (the full pipeline);
/// otherwise the text is parsed, validated and compiled with
/// `compile_program_telemetry`, which stops before simulation.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn run_untraced(
    text: &str,
    approach: Approach,
    setup: &LowEndSetup,
    simulate: bool,
) -> Result<CellOut, String> {
    if simulate {
        let run = compile_and_run_source(text, approach, setup).map_err(|e| e.to_string())?;
        return Ok(CellOut::from_run(run));
    }
    let mut program = parse_checked(text)?;
    let mut t = Telemetry::new();
    let remap = compile_program_telemetry(&mut program, approach, setup, None, &mut t)
        .map_err(|e| e.to_string())?;
    Ok(CellOut {
        approach,
        code_bits: code_size_bits(&program, &setup.machine.geometry),
        program,
        remap,
        sim: None,
        degrade_events: degrade_events(&t),
    })
}

/// Work done by each layer, counted at the call sites of
/// [`run_traced`]. Each is a pure function of the inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Source lines parsed.
    pub lines: u64,
    /// Virtual registers of the functions handed to the allocator.
    pub vregs: u64,
    /// Values the allocator sent to memory.
    pub spilled_vregs: u64,
    /// Remap-search swap evaluations.
    pub evals: u64,
    /// Instructions of the functions that went through repair + verify.
    pub encoded_insts: u64,
    /// `set_last_reg` instructions the repair pass inserted.
    pub repairs: u64,
    /// Instructions the symbolic checker checked.
    pub checker_insts: u64,
    /// Instructions the simulator fetched.
    pub fetched: u64,
}

impl Counts {
    /// Add `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.lines += o.lines;
        self.vregs += o.vregs;
        self.spilled_vregs += o.spilled_vregs;
        self.evals += o.evals;
        self.encoded_insts += o.encoded_insts;
        self.repairs += o.repairs;
        self.checker_insts += o.checker_insts;
        self.fetched += o.fetched;
    }
}

fn vregs_of(fs: &[Function]) -> u64 {
    fs.iter().map(|f| f.vreg_count as u64).sum()
}

fn alloc_config(setup: &LowEndSetup, differential: bool, regs: u16) -> AllocConfig {
    let mut cfg = if differential {
        AllocConfig::differential(setup.diff)
    } else {
        AllocConfig::baseline(regs)
    };
    cfg.call_clobbers = setup.call_clobbers.clone();
    cfg
}

/// Allocate a whole program with one engine under an `alloc` span.
fn alloc_program(
    engine: &dyn Allocator,
    p: &mut Program,
    cfg: &AllocConfig,
    record: bool,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Result<Vec<Option<AllocationRecord>>, String> {
    c.vregs += vregs_of(&p.funcs);
    let (stats, recs) = tr
        .leaf("alloc", || allocate_program(engine, p, cfg, record))
        .map_err(|e| format!("allocation: {e}"))?;
    c.spilled_vregs += stats.spilled() as u64;
    Ok(recs)
}

/// Allocate one function with the dense IRC engine under an `alloc` span.
fn alloc_function(
    f: &mut Function,
    cfg: &AllocConfig,
    record: bool,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Result<Option<AllocationRecord>, String> {
    c.vregs += f.vreg_count as u64;
    let (stats, rec): (AllocatorStats, _) = tr
        .leaf("alloc", || DenseIrc.allocate_fn(f, cfg, record))
        .map_err(|e| format!("allocation: {e}"))?;
    c.spilled_vregs += stats.spilled() as u64;
    Ok(rec)
}

/// Compile one cell by calling each layer's public function in the order
/// the pipeline's approach dispatch does (including `adaptive`'s
/// per-function split by register pressure), with a span around every
/// call: `parse`, `alloc`, `remap`, `encode`, `checker`, `sim`.
///
/// # Errors
///
/// The first layer failure, rendered. The composition has no degradation
/// lattice: where the pipeline would have degraded, this fails.
pub fn run_traced(
    text: &str,
    approach: Approach,
    setup: &LowEndSetup,
    simulate: bool,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Result<CellOut, String> {
    c.lines += text.lines().count() as u64;
    let mut p = tr.leaf("parse", || parse_checked(text))?;
    let record = setup.check;
    let enc = EncodingConfig::new(setup.diff);
    let remap_cfg = setup.remap_config();
    let mut remap: Vec<RemapStats> = Vec::new();
    let mut records: Vec<Option<AllocationRecord>> = Vec::new();
    let mut enc_flags = vec![approach.is_differential(); p.funcs.len()];
    match approach {
        Approach::Baseline | Approach::OSpill => {
            let cfg = alloc_config(setup, false, setup.direct_regs);
            let engine: &dyn Allocator = if approach == Approach::OSpill {
                &Ospill
            } else {
                &DenseIrc
            };
            records = alloc_program(engine, &mut p, &cfg, record, tr, c)?;
        }
        Approach::Remapping | Approach::Select | Approach::Coalesce => {
            let cfg = alloc_config(setup, approach != Approach::Remapping, setup.diff.reg_n());
            let engine: &dyn Allocator = if approach == Approach::Coalesce {
                &Coalescing
            } else {
                &DenseIrc
            };
            records = alloc_program(engine, &mut p, &cfg, record, tr, c)?;
            remap = tr.leaf("remap", || remap_program(&mut p, &remap_cfg));
        }
        Approach::Adaptive => {
            for (fi, f) in p.funcs.iter_mut().enumerate() {
                let pressure = tr.leaf("alloc", || dra_ir::liveness::max_pressure_of(f));
                let differential = pressure > setup.direct_regs as usize;
                enc_flags[fi] = differential;
                let cfg = alloc_config(setup, differential, setup.direct_regs);
                records.push(alloc_function(f, &cfg, record, tr, c)?);
                if differential {
                    remap.push(tr.leaf("remap", || remap_function(f, &remap_cfg)));
                    let repair = tr.leaf("encode", || insert_set_last_reg(f, &enc));
                    c.repairs += repair.inserted as u64;
                    c.encoded_insts += f.num_insts() as u64;
                    tr.leaf("encode", || verify_function(f, &enc))
                        .map_err(|e| format!("encoding: {e}"))?;
                }
            }
        }
    }
    if approach.is_differential() {
        let repair = tr.leaf("encode", || insert_set_last_reg_program(&mut p, &enc));
        c.repairs += repair.inserted as u64;
        c.encoded_insts += p.num_insts() as u64;
        tr.leaf("encode", || verify_program(&p, &enc))
            .map_err(|e| format!("encoding: {e}"))?;
    }
    c.evals += remap.iter().map(|r| r.evaluations).sum::<u64>();
    if setup.check {
        for (fi, f) in p.funcs.iter().enumerate() {
            let rec = records.get(fi).and_then(|r| r.as_ref());
            let stats = tr
                .leaf("checker", || {
                    let mut stats = CheckStats::default();
                    if let Some(rec) = rec {
                        stats.merge(&check_allocation(f, rec)?);
                    }
                    if enc_flags[fi] {
                        stats.merge(&check_function_encoding(f, &enc)?);
                    }
                    Ok::<_, dra_regalloc::CheckError>(stats)
                })
                .map_err(|e| format!("checker: {e}"))?;
            c.checker_insts += stats.insts as u64;
        }
    }
    let sim = if simulate {
        let r = tr
            .leaf("sim", || dra_sim::simulate(&p, &setup.machine, &setup.args))
            .map_err(|e| format!("simulation: {e}"))?;
        c.fetched += r.insts_fetched;
        Some(SimOut {
            cycles: r.cycles,
            dynamic_spills: r.spill_accesses,
            dynamic_set_last_regs: r.set_last_regs,
            icache_misses: r.icache_misses,
            dcache_misses: r.dcache_misses,
            ret_value: r.ret_value,
            entry_trace: r.entry_trace,
            block_counts: r.block_counts,
        })
    } else {
        None
    };
    Ok(CellOut {
        approach,
        code_bits: code_size_bits(&p, &setup.machine.geometry),
        program: p,
        remap,
        sim,
        degrade_events: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn composition_matches_the_pipeline_for_every_approach() {
        let setup = LowEndSetup {
            remap_starts: 16,
            remap_threads: 1,
            check: true,
            ..LowEndSetup::default()
        };
        let text = dra_workloads::benchmark("sha").to_string();
        for approach in SIX_APPROACHES {
            for simulate in [true, false] {
                let want = run_untraced(&text, approach, &setup, simulate).unwrap();
                let mut tr = Tracer::new(Instant::now(), 0);
                let mut c = Counts::default();
                let got = run_traced(&text, approach, &setup, simulate, &mut tr, &mut c).unwrap();
                assert!(want.same_output(&got), "{}", approach.label());
                assert_eq!(want.degrade_events, 0);
                assert!(c.lines > 0 && c.vregs > 0 && c.checker_insts > 0);
                assert_eq!(c.fetched > 0, simulate);
            }
        }
    }
}
