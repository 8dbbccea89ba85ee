//! The functional + timing executor for the low-end machine.
//!
//! Executes fully-allocated [`Program`]s instruction by instruction,
//! maintaining architectural state (register files, memory, a call stack)
//! while charging cycles per the 5-stage in-order model:
//!
//! * every instruction word fetched goes through the I-cache;
//! * loads/stores (including spill traffic) go through the D-cache;
//! * `set_last_reg` occupies a fetch/decode slot (1 cycle + I-cache) but
//!   never executes — the paper's "removed after decoding";
//! * taken branches, calls, returns, multiplies and divides pay their
//!   configured penalties; a load feeding the next instruction pays the
//!   load-use interlock.
//!
//! Each activation gets a fresh register file and a private spill-slot
//! frame (see DESIGN.md §4 — calling-convention pressure is modeled through
//! the allocator's `call_clobbers` instead of architectural clobbering).
//!
//! [`simulate`] first lowers the program once into a flat [`Image`]: one
//! slot per static instruction holding its decoded operation, fetch
//! address, word count and the set of registers it reads, with an end
//! marker after every block. Execution then runs from the image, so no
//! fetch re-derives a static fact (DESIGN.md §8, "Predecoded simulator").

use crate::cache::Cache;
use crate::lowend::LowEndConfig;
use dra_ir::{BinOp, BlockId, Cond, Inst, Program, Reg};
use dra_isa::words_for_inst;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The step cap was exceeded (runaway program).
    StepLimit {
        /// The configured cap.
        max_steps: u64,
    },
    /// An instruction referenced a virtual register.
    VirtualRegister {
        /// Function index.
        func: u32,
    },
    /// Return from the entry activation with a pending call stack
    /// underflow or malformed control transfer.
    ControlError {
        /// Description.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StepLimit { max_steps } => {
                write!(f, "exceeded {max_steps} simulated instructions")
            }
            SimError::VirtualRegister { func } => {
                write!(f, "unallocated virtual register in f{func}")
            }
            SimError::ControlError { what } => write!(f, "control error: {what}"),
        }
    }
}

impl Error for SimError {}

/// Measured outcome of one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Instructions fetched (including `set_last_reg`).
    pub insts_fetched: u64,
    /// Instructions executed (excluding `set_last_reg`).
    pub insts_executed: u64,
    /// Dynamic spill loads + stores.
    pub spill_accesses: u64,
    /// Dynamic `set_last_reg` count.
    pub set_last_regs: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Value returned by the entry function (if any).
    pub ret_value: Option<i64>,
    /// Dynamic block trace of the entry function's outermost activation
    /// (capped; used by encoding round-trip tests).
    pub entry_trace: Vec<BlockId>,
    /// Execution count per `(function, block)` — the profile that
    /// Section 4's "profile information could be incorporated" feeds back
    /// into the adjacency-graph weights.
    pub block_counts: HashMap<(u32, u32), u64>,
}

impl SimResult {
    /// The deterministic scalar measurements as `(name, value)` pairs,
    /// named for the telemetry registry (`sim.*`). The simulator is fully
    /// deterministic, so these are pure functions of the simulated
    /// program and machine configuration.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("sim.cycles", self.cycles),
            ("sim.insts_fetched", self.insts_fetched),
            ("sim.insts_executed", self.insts_executed),
            ("sim.spill_accesses", self.spill_accesses),
            ("sim.set_last_regs", self.set_last_regs),
            ("sim.icache_misses", self.icache_misses),
            ("sim.dcache_misses", self.dcache_misses),
        ]
    }
}

const TRACE_CAP: usize = 4096;
/// Each activation's spill frame is this many bytes apart on the stack.
const FRAME_BYTES: u64 = 1 << 12;
/// Stack area base address (grows upward, frames never freed-and-reused
/// within one simulation for address stability).
const STACK_BASE: u64 = 0x4000_0000;

/// A decoded operation. Register operands are physical register numbers
/// and block targets are image block indices; an instruction with any
/// virtual operand decodes to [`Op::Virtual`].
#[derive(Clone, Copy)]
enum Op {
    Bin {
        op: BinOp,
        dst: u8,
        lhs: u8,
        rhs: u8,
    },
    BinImm {
        op: BinOp,
        dst: u8,
        src: u8,
        imm: i64,
    },
    Mov {
        dst: u8,
        src: u8,
    },
    MovImm {
        dst: u8,
        imm: i64,
    },
    GetParam {
        dst: u8,
        index: u8,
    },
    Load {
        dst: u8,
        base: u8,
        offset: u64,
    },
    Store {
        src: u8,
        base: u8,
        offset: u64,
    },
    /// `offset` is the slot's byte offset in the frame.
    SpillLoad {
        dst: u8,
        offset: u64,
    },
    SpillStore {
        src: u8,
        offset: u64,
    },
    Br {
        target: u32,
    },
    CondBr {
        cond: Cond,
        lhs: u8,
        rhs: u8,
        then_bb: u32,
        else_bb: u32,
    },
    /// Argument registers are `Image::call_args[args..args + nargs]`.
    Call {
        callee: u32,
        args: u32,
        nargs: u32,
        ret: Option<u8>,
    },
    Ret {
        value: Option<u8>,
    },
    SetLastReg,
    Nop,
    /// Reads or writes a virtual register: fails when executed.
    Virtual,
    /// One past the last instruction of block `block`: running into it
    /// fails (the block fell off its end).
    End {
        block: u32,
    },
}

/// One static instruction of the image.
struct Slot {
    op: Op,
    /// Byte address of the first instruction word.
    addr: u64,
    /// Instruction words fetched through the I-cache.
    words: u32,
    /// Bit `n` set iff the instruction reads physical register number `n`
    /// (numbers of 64 and up are never loaded to, so they are left out).
    uses: u64,
}

/// A program lowered for execution. Functions and blocks are laid out in
/// program order; image block `func_base[f] + b` is block `b` of function
/// `f`, and its slots start at `block_start` of it.
struct Image {
    slots: Vec<Slot>,
    block_start: Vec<u32>,
    /// Per function, the image index of its block 0; one extra entry
    /// holds the total block count.
    func_base: Vec<u32>,
    /// Per function, the image index of its entry block.
    entry_block: Vec<u32>,
    call_args: Vec<u8>,
}

impl Image {
    /// Lower `p`, rejecting any branch target, callee or entry block out
    /// of range.
    fn lower(p: &Program, cfg: &LowEndConfig) -> Result<Self, SimError> {
        let nfuncs = p.funcs.len();
        if p.entry as usize >= nfuncs {
            return Err(control(format!(
                "entry function f{} out of range ({nfuncs} functions)",
                p.entry
            )));
        }
        let mut func_base = Vec::with_capacity(nfuncs + 1);
        let mut entry_block = Vec::with_capacity(nfuncs);
        let mut nblocks = 0u32;
        for f in &p.funcs {
            if f.entry.index() >= f.blocks.len() {
                return Err(control(format!(
                    "{}: entry block {} out of range ({} blocks)",
                    f.name,
                    f.entry,
                    f.blocks.len()
                )));
            }
            func_base.push(nblocks);
            entry_block.push(nblocks + f.entry.0);
            nblocks += f.blocks.len() as u32;
        }
        func_base.push(nblocks);

        let word_bytes = (cfg.geometry.word_bits / 8) as u64;
        let mut image = Image {
            slots: Vec::with_capacity(p.num_insts() + nblocks as usize),
            block_start: Vec::with_capacity(nblocks as usize),
            func_base,
            entry_block,
            call_args: Vec::new(),
        };
        let mut addr = 0u64;
        for (fi, f) in p.funcs.iter().enumerate() {
            let base = image.func_base[fi];
            for (bi, b) in f.blocks.iter().enumerate() {
                image.block_start.push(image.slots.len() as u32);
                let target = |t: BlockId| -> Result<u32, SimError> {
                    if t.index() < f.blocks.len() {
                        Ok(base + t.0)
                    } else {
                        Err(control(format!(
                            "{} {}: branch target {t} out of range ({} blocks)",
                            f.name,
                            BlockId(bi as u32),
                            f.blocks.len()
                        )))
                    }
                };
                for inst in &b.insts {
                    let op = match inst {
                        Inst::Br { target: t } => Some(Op::Br {
                            target: target(*t)?,
                        }),
                        Inst::CondBr {
                            cond,
                            lhs,
                            rhs,
                            then_bb,
                            else_bb,
                        } => {
                            let (then_bb, else_bb) = (target(*then_bb)?, target(*else_bb)?);
                            phys(*lhs).zip(phys(*rhs)).map(|(lhs, rhs)| Op::CondBr {
                                cond: *cond,
                                lhs,
                                rhs,
                                then_bb,
                                else_bb,
                            })
                        }
                        Inst::Call { callee, args, ret } => {
                            if *callee as usize >= nfuncs {
                                return Err(control(format!(
                                    "{} {}: callee f{callee} out of range ({nfuncs} functions)",
                                    f.name,
                                    BlockId(bi as u32)
                                )));
                            }
                            image.lower_call(*callee, args, *ret)
                        }
                        _ => decode(inst),
                    };
                    let uses = inst.uses().iter().fold(0u64, |m, r| match r {
                        Reg::Phys(pr) if pr.number() < 64 => m | 1 << pr.number(),
                        _ => m,
                    });
                    let words = words_for_inst(inst, &cfg.geometry);
                    image.slots.push(Slot {
                        op: op.unwrap_or(Op::Virtual),
                        addr,
                        words,
                        uses,
                    });
                    addr += words as u64 * word_bytes;
                }
                image.slots.push(Slot {
                    op: Op::End { block: bi as u32 },
                    addr,
                    words: 0,
                    uses: 0,
                });
            }
        }
        Ok(image)
    }

    /// Decode a call (`None` if it names a virtual register).
    fn lower_call(&mut self, callee: u32, args: &[Reg], ret: Option<Reg>) -> Option<Op> {
        let regs = args.iter().map(|&r| phys(r)).collect::<Option<Vec<u8>>>()?;
        let ret = match ret {
            Some(r) => Some(phys(r)?),
            None => None,
        };
        let start = self.call_args.len() as u32;
        self.call_args.extend(regs);
        Some(Op::Call {
            callee,
            args: start,
            nargs: args.len() as u32,
            ret,
        })
    }

    /// Entry image block of function `func`, and its first slot.
    fn entry(&self, func: u32) -> (u32, u32) {
        let block = self.entry_block[func as usize];
        (block, self.block_start[block as usize])
    }

    /// Convert dense per-image-block counts to the public map, keyed by
    /// `(function, block)` and holding only blocks that ran.
    fn block_counts(&self, counts: &[u64]) -> HashMap<(u32, u32), u64> {
        let mut map = HashMap::new();
        for (fi, w) in self.func_base.windows(2).enumerate() {
            for (b, &n) in counts[w[0] as usize..w[1] as usize].iter().enumerate() {
                if n > 0 {
                    map.insert((fi as u32, b as u32), n);
                }
            }
        }
        map
    }
}

fn control(what: String) -> SimError {
    SimError::ControlError { what }
}

fn phys(r: Reg) -> Option<u8> {
    r.as_phys().map(|pr| pr.number())
}

/// Decode a non-control instruction (`None` if it names a virtual
/// register). Branches and calls are decoded by [`Image::lower`], which
/// resolves their targets.
fn decode(inst: &Inst) -> Option<Op> {
    Some(match *inst {
        Inst::Bin { op, dst, lhs, rhs } => Op::Bin {
            op,
            dst: phys(dst)?,
            lhs: phys(lhs)?,
            rhs: phys(rhs)?,
        },
        Inst::BinImm { op, dst, src, imm } => Op::BinImm {
            op,
            dst: phys(dst)?,
            src: phys(src)?,
            imm: imm as i64,
        },
        Inst::Mov { dst, src } => Op::Mov {
            dst: phys(dst)?,
            src: phys(src)?,
        },
        Inst::MovImm { dst, imm } => Op::MovImm {
            dst: phys(dst)?,
            imm: imm as i64,
        },
        Inst::GetParam { dst, index } => Op::GetParam {
            dst: phys(dst)?,
            index,
        },
        Inst::Load { dst, base, offset } => Op::Load {
            dst: phys(dst)?,
            base: phys(base)?,
            offset: offset as i64 as u64,
        },
        Inst::Store { src, base, offset } => Op::Store {
            src: phys(src)?,
            base: phys(base)?,
            offset: offset as i64 as u64,
        },
        Inst::SpillLoad { dst, slot } => Op::SpillLoad {
            dst: phys(dst)?,
            offset: slot.0 as u64 * 8,
        },
        Inst::SpillStore { src, slot } => Op::SpillStore {
            src: phys(src)?,
            offset: slot.0 as u64 * 8,
        },
        Inst::Ret { value } => Op::Ret {
            value: match value {
                Some(r) => Some(phys(r)?),
                None => None,
            },
        },
        Inst::SetLastReg { .. } => Op::SetLastReg,
        Inst::Nop => Op::Nop,
        Inst::Br { .. } | Inst::CondBr { .. } | Inst::Call { .. } => {
            unreachable!("control transfers are decoded with their targets")
        }
    })
}

/// Words per 4 KiB memory page.
const PAGE_WORDS: usize = 512;

/// Word-addressed data memory in 4 KiB pages, allocated on first write.
/// Words never written read 0. The page of the previous access is
/// remembered, so runs of accesses to one page skip the page lookup.
struct Memory {
    index: HashMap<u64, u32>,
    pages: Vec<Box<[i64; PAGE_WORDS]>>,
    /// Page number and `pages` index of the previous access to an
    /// allocated page (`u64::MAX`: none).
    last: (u64, u32),
}

impl Memory {
    fn new() -> Self {
        Memory {
            index: HashMap::new(),
            pages: Vec::new(),
            last: (u64::MAX, 0),
        }
    }

    /// Page number and word index of the word-aligned address `a`.
    #[inline]
    fn split(a: u64) -> (u64, usize) {
        (a >> 12, (a >> 3) as usize % PAGE_WORDS)
    }

    #[inline]
    fn read(&mut self, a: u64) -> i64 {
        let (page, word) = Self::split(a);
        if page != self.last.0 {
            match self.index.get(&page) {
                Some(&i) => self.last = (page, i),
                None => return 0,
            }
        }
        self.pages[self.last.1 as usize][word]
    }

    #[inline]
    fn write(&mut self, a: u64, v: i64) {
        let (page, word) = Self::split(a);
        if page != self.last.0 {
            let pages = &mut self.pages;
            let i = *self.index.entry(page).or_insert_with(|| {
                pages.push(Box::new([0; PAGE_WORDS]));
                pages.len() as u32 - 1
            });
            self.last = (page, i);
        }
        self.pages[self.last.1 as usize][word] = v;
    }
}

struct Activation {
    func: u32,
    /// Image slot of the next instruction.
    pc: u32,
    regs: [i64; 64],
    frame_base: u64,
    /// This activation's arguments are `args[args_base..args_end]` of the
    /// shared argument stack.
    args_base: usize,
    args_end: usize,
    /// Register receiving the callee's return value.
    ret_to: Option<u8>,
}

/// Execute `p` from its entry function with `args`.
///
/// # Errors
///
/// See [`SimError`]. A branch target, callee or entry block out of range
/// is rejected before execution starts; every other error is raised when
/// the offending instruction is reached.
pub fn simulate(p: &Program, cfg: &LowEndConfig, args: &[i64]) -> Result<SimResult, SimError> {
    let image = Image::lower(p, cfg)?;
    let word_bytes = (cfg.geometry.word_bits / 8) as u64;
    let slr_per_cycle = cfg.slr_per_cycle.max(1);

    let mut icache = Cache::new(cfg.icache);
    let mut dcache = Cache::new(cfg.dcache);
    let mut mem = Memory::new();
    let mut res = SimResult::default();
    let mut counts = vec![0u64; image.block_start.len()];
    let mut arg_stack: Vec<i64> = args.to_vec();

    let mut next_frame = STACK_BASE;
    let (entry_block, entry_pc) = image.entry(p.entry);
    let mut act = Activation {
        func: p.entry,
        pc: entry_pc,
        regs: [0; 64],
        frame_base: next_frame,
        args_base: 0,
        args_end: args.len(),
        ret_to: None,
    };
    let mut callers: Vec<Activation> = Vec::new();
    next_frame += FRAME_BYTES;
    res.entry_trace.push(p.entry_func().entry);
    counts[entry_block as usize] += 1;

    // Load-use interlock state: bit `n` set iff the previous instruction
    // loaded register number `n`.
    let mut pending_load: u64 = 0;
    // Fractional accounting for decode-removed set_last_reg slots.
    let mut slr_budget: u64 = 0;

    loop {
        if res.insts_fetched >= cfg.max_steps {
            return Err(SimError::StepLimit {
                max_steps: cfg.max_steps,
            });
        }
        let slot = &image.slots[act.pc as usize];

        // Fetch: every word of the instruction goes through the I-cache.
        let mut cycles = 1; // base CPI of the in-order scalar
        let mut addr = slot.addr;
        for _ in 0..slot.words {
            cycles += icache.access_cost(addr);
            addr += word_bytes;
        }
        res.insts_fetched += 1;

        // Load-use interlock check.
        if slot.uses & pending_load != 0 {
            cycles += cfg.load_use_penalty;
        }
        pending_load = 0;

        let r = &mut act.regs;
        let mut next: Option<u32> = None; // branch target (image block)
        match slot.op {
            Op::SetLastReg => {
                // Consumed at decode; no execute, no architectural effect.
                // The front end absorbs `slr_per_cycle` of these per
                // fetch-decode cycle, so only every n-th one stalls.
                res.set_last_regs += 1;
                slr_budget += 1;
                let occupancy = if slr_budget >= slr_per_cycle {
                    slr_budget = 0;
                    1
                } else {
                    0
                };
                res.cycles += cycles - 1 + occupancy;
                act.pc += 1;
                continue;
            }
            Op::Bin { op, dst, lhs, rhs } => {
                r[dst as usize] = op.eval(r[lhs as usize], r[rhs as usize]);
                cycles += op_latency(cfg, op);
            }
            Op::BinImm { op, dst, src, imm } => {
                r[dst as usize] = op.eval(r[src as usize], imm);
                cycles += op_latency(cfg, op);
            }
            Op::Mov { dst, src } => r[dst as usize] = r[src as usize],
            Op::MovImm { dst, imm } => r[dst as usize] = imm,
            Op::GetParam { dst, index } => {
                let i = act.args_base + index as usize;
                r[dst as usize] = if i < act.args_end { arg_stack[i] } else { 0 };
            }
            Op::Load { dst, base, offset } => {
                let a = (r[base as usize] as u64).wrapping_add(offset) & !7; // word-aligned memory
                cycles += cfg.load_extra + dcache.access_cost(a);
                r[dst as usize] = mem.read(a);
                pending_load = 1 << dst;
            }
            Op::Store { src, base, offset } => {
                let a = (r[base as usize] as u64).wrapping_add(offset) & !7;
                cycles += cfg.store_extra + dcache.access_cost(a);
                mem.write(a, r[src as usize]);
            }
            Op::SpillLoad { dst, offset } => {
                let a = act.frame_base + offset;
                cycles += cfg.load_extra + dcache.access_cost(a);
                r[dst as usize] = mem.read(a);
                pending_load = 1 << dst;
                res.spill_accesses += 1;
            }
            Op::SpillStore { src, offset } => {
                let a = act.frame_base + offset;
                cycles += cfg.store_extra + dcache.access_cost(a);
                mem.write(a, r[src as usize]);
                res.spill_accesses += 1;
            }
            Op::Br { target } => {
                cycles += cfg.taken_branch_penalty.saturating_sub(1);
                next = Some(target);
            }
            Op::CondBr {
                cond,
                lhs,
                rhs,
                then_bb,
                else_bb,
            } => {
                let taken = cond.eval(r[lhs as usize], r[rhs as usize]);
                if taken {
                    cycles += cfg.taken_branch_penalty;
                }
                next = Some(if taken { then_bb } else { else_bb });
            }
            Op::Call {
                callee,
                args,
                nargs,
                ret,
            } => {
                cycles += cfg.call_penalty;
                let args_base = arg_stack.len();
                let arg_regs = &image.call_args[args as usize..(args + nargs) as usize];
                arg_stack.extend(arg_regs.iter().map(|&a| r[a as usize]));
                act.pc += 1; // resume after the call
                let (block, pc) = image.entry(callee);
                let callee_act = Activation {
                    func: callee,
                    pc,
                    regs: [0; 64],
                    frame_base: next_frame,
                    args_base,
                    args_end: arg_stack.len(),
                    ret_to: ret,
                };
                next_frame += FRAME_BYTES;
                res.insts_executed += 1;
                res.cycles += cycles;
                counts[block as usize] += 1;
                callers.push(std::mem::replace(&mut act, callee_act));
                continue;
            }
            Op::Ret { value } => {
                cycles += cfg.call_penalty;
                let v = value.map(|v| r[v as usize]);
                res.insts_executed += 1;
                res.cycles += cycles;
                arg_stack.truncate(act.args_base);
                let ret_to = act.ret_to;
                match callers.pop() {
                    Some(caller) => {
                        act = caller;
                        if let (Some(dst), Some(v)) = (ret_to, v) {
                            act.regs[dst as usize] = v;
                        }
                    }
                    None => {
                        res.ret_value = v;
                        res.icache_misses = icache.misses();
                        res.dcache_misses = dcache.misses();
                        res.block_counts = image.block_counts(&counts);
                        return Ok(res);
                    }
                }
                continue;
            }
            Op::Nop => {}
            Op::Virtual => return Err(SimError::VirtualRegister { func: act.func }),
            Op::End { block } => {
                return Err(control(format!(
                    "fell off the end of {} {}",
                    p.funcs[act.func as usize].name,
                    BlockId(block)
                )))
            }
        }

        res.insts_executed += 1;
        res.cycles += cycles;
        match next {
            Some(b) => {
                act.pc = image.block_start[b as usize];
                counts[b as usize] += 1;
                if callers.is_empty() && res.entry_trace.len() < TRACE_CAP {
                    res.entry_trace
                        .push(BlockId(b - image.func_base[act.func as usize]));
                }
            }
            None => act.pc += 1,
        }
    }
}

fn op_latency(cfg: &LowEndConfig, op: BinOp) -> u64 {
    match op {
        BinOp::Mul => cfg.mul_latency,
        BinOp::Div | BinOp::Rem => cfg.div_latency,
        _ => 0,
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use dra_ir::{Cond, FunctionBuilder, PReg};

    fn phys(n: u8) -> Reg {
        Reg::Phys(PReg(n))
    }

    /// Build a tiny physical-register program: returns 6*7.
    fn mul_prog() -> Program {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 6 });
        b.push(Inst::MovImm { dst: phys(1), imm: 7 });
        b.push(Inst::Bin {
            op: BinOp::Mul,
            dst: phys(2),
            lhs: phys(0),
            rhs: phys(1),
        });
        b.ret(Some(phys(2)));
        Program::single(b.finish())
    }

    #[test]
    fn computes_correct_result() {
        let r = simulate(&mul_prog(), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(42));
        assert_eq!(r.insts_executed, 4);
        assert!(r.cycles >= 4);
    }

    #[test]
    fn multiply_costs_extra_cycles() {
        let cfg = LowEndConfig::default();
        let with_mul = simulate(&mul_prog(), &cfg, &[]).unwrap();

        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 6 });
        b.push(Inst::MovImm { dst: phys(1), imm: 7 });
        b.push(Inst::Bin {
            op: BinOp::Add,
            dst: phys(2),
            lhs: phys(0),
            rhs: phys(1),
        });
        b.ret(Some(phys(2)));
        let with_add = simulate(&Program::single(b.finish()), &cfg, &[]).unwrap();
        assert_eq!(
            with_mul.cycles - with_add.cycles,
            cfg.mul_latency,
            "identical programs except the ALU op"
        );
    }

    #[test]
    fn loop_executes_correct_iteration_count() {
        // acc = sum(0..10) via a counted loop.
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 0 }); // i
        b.push(Inst::MovImm { dst: phys(1), imm: 0 }); // acc
        b.push(Inst::MovImm { dst: phys(2), imm: 10 }); // n
        let h = b.new_block();
        let body = b.new_block();
        let ex = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.push(Inst::CondBr {
            cond: Cond::Lt,
            lhs: phys(0),
            rhs: phys(2),
            then_bb: body,
            else_bb: ex,
        });
        b.switch_to(body);
        b.push(Inst::Bin {
            op: BinOp::Add,
            dst: phys(1),
            lhs: phys(1),
            rhs: phys(0),
        });
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(0),
            src: phys(0),
            imm: 1,
        });
        b.br(h);
        b.switch_to(ex);
        b.ret(Some(phys(1)));
        let p = Program::single(b.finish());
        let r = simulate(&p, &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(45));
        // Trace follows the loop: entry, then (h, body)*10, h, exit.
        assert_eq!(r.entry_trace.first(), Some(&BlockId(0)));
        assert_eq!(r.entry_trace.iter().filter(|&&b| b == body).count(), 10);
    }

    #[test]
    fn memory_roundtrip_through_dcache() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm {
            dst: phys(0),
            imm: 0x100,
        });
        b.push(Inst::MovImm { dst: phys(1), imm: 99 });
        b.push(Inst::Store {
            src: phys(1),
            base: phys(0),
            offset: 8,
        });
        b.push(Inst::Load {
            dst: phys(2),
            base: phys(0),
            offset: 8,
        });
        b.ret(Some(phys(2)));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(99));
        assert_eq!(r.dcache_misses, 1, "cold miss on the store, hit on the load");
    }

    #[test]
    fn spill_accesses_counted_and_roundtrip() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 7 });
        b.push(Inst::SpillStore {
            src: phys(0),
            slot: dra_ir::SpillSlot(0),
        });
        b.push(Inst::MovImm { dst: phys(0), imm: 0 });
        b.push(Inst::SpillLoad {
            dst: phys(1),
            slot: dra_ir::SpillSlot(0),
        });
        b.ret(Some(phys(1)));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(7));
        assert_eq!(r.spill_accesses, 2);
    }

    #[test]
    fn set_last_reg_fetches_but_does_not_execute() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::SetLastReg {
            class: dra_ir::RegClass::Int,
            value: 0,
            delay: 0,
        });
        b.push(Inst::MovImm { dst: phys(0), imm: 1 });
        b.ret(Some(phys(0)));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.set_last_regs, 1);
        assert_eq!(r.insts_fetched, 3);
        assert_eq!(r.insts_executed, 2);
        assert_eq!(r.ret_value, Some(1));
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        // main: r0 = 20; r1 = call add3(r0); ret r1
        let mut m = FunctionBuilder::new("main");
        m.push(Inst::MovImm { dst: phys(0), imm: 20 });
        m.push(Inst::Call {
            callee: 1,
            args: vec![phys(0)],
            ret: Some(phys(1)),
        });
        m.ret(Some(phys(1)));
        // add3(x) = x + 3, with params via GetParam.
        let mut c = FunctionBuilder::new("add3");
        c.push(Inst::GetParam { dst: phys(0), index: 0 });
        c.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(1),
            src: phys(0),
            imm: 3,
        });
        c.ret(Some(phys(1)));
        let p = Program {
            funcs: vec![m.finish(), c.finish()],
            entry: 0,
        };
        let r = simulate(&p, &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.ret_value, Some(23));
    }

    #[test]
    fn entry_args_via_getparam() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::GetParam { dst: phys(0), index: 0 });
        b.ret(Some(phys(0)));
        let r = simulate(
            &Program::single(b.finish()),
            &LowEndConfig::default(),
            &[1234],
        )
        .unwrap();
        assert_eq!(r.ret_value, Some(1234));
    }

    #[test]
    fn runaway_program_hits_step_limit() {
        let mut b = FunctionBuilder::new("main");
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let cfg = LowEndConfig {
            max_steps: 1000,
            ..LowEndConfig::default()
        };
        let r = simulate(&Program::single(b.finish()), &cfg, &[]);
        assert!(matches!(r, Err(SimError::StepLimit { .. })));
    }

    #[test]
    fn virtual_register_rejected() {
        let mut b = FunctionBuilder::new("main");
        let v = b.new_vreg();
        b.mov_imm(v, 1);
        b.ret(Some(v.into()));
        let r = simulate(&Program::single(b.finish()), &LowEndConfig::default(), &[]);
        assert!(matches!(r, Err(SimError::VirtualRegister { .. })));
    }

    #[test]
    fn load_use_interlock_charged() {
        let cfg = LowEndConfig::default();
        // Load immediately used.
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 64 });
        b.push(Inst::Load {
            dst: phys(1),
            base: phys(0),
            offset: 0,
        });
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(2),
            src: phys(1),
            imm: 1,
        });
        b.ret(Some(phys(2)));
        let tight = simulate(&Program::single(b.finish()), &cfg, &[]).unwrap();

        // Same, but with a nop between load and use.
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 64 });
        b.push(Inst::Load {
            dst: phys(1),
            base: phys(0),
            offset: 0,
        });
        b.push(Inst::Nop);
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(2),
            src: phys(1),
            imm: 1,
        });
        b.ret(Some(phys(2)));
        let relaxed = simulate(&Program::single(b.finish()), &cfg, &[]).unwrap();
        // The nop costs 1 fetch cycle but saves the interlock bubble:
        // net equal cycles.
        assert_eq!(tight.cycles + 1, relaxed.cycles + cfg.load_use_penalty);
    }

    /// `main` calls `f1`, which writes a virtual register.
    fn virtual_dst_in_callee() -> Program {
        let mut m = FunctionBuilder::new("main");
        m.push(Inst::Call {
            callee: 1,
            args: vec![],
            ret: None,
        });
        m.ret(None);
        let mut c = FunctionBuilder::new("f1");
        let v = c.new_vreg();
        c.mov_imm(v, 1);
        c.ret(None);
        Program {
            funcs: vec![m.finish(), c.finish()],
            entry: 0,
        }
    }

    #[test]
    fn virtual_register_names_the_executing_function() {
        let r = simulate(&virtual_dst_in_callee(), &LowEndConfig::default(), &[]);
        assert_eq!(r, Err(SimError::VirtualRegister { func: 1 }));
    }

    /// A two-function program (`main` calls `leaf`) for corrupting.
    fn two_funcs() -> Program {
        let mut m = FunctionBuilder::new("main");
        let next = m.new_block();
        m.br(next);
        m.switch_to(next);
        m.push(Inst::Call {
            callee: 1,
            args: vec![],
            ret: None,
        });
        m.ret(None);
        let mut c = FunctionBuilder::new("leaf");
        c.ret(None);
        Program {
            funcs: vec![m.finish(), c.finish()],
            entry: 0,
        }
    }

    fn control_error(p: &Program) -> String {
        match simulate(p, &LowEndConfig::default(), &[]) {
            Err(SimError::ControlError { what }) => what,
            other => panic!("expected a control error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_branch_target_is_rejected() {
        // `main` has 2 blocks and `leaf` 1; image block 2 would be
        // `leaf`'s entry, so a dense counter must not absorb the target.
        let mut p = two_funcs();
        p.funcs[0].blocks[0].insts[0] = Inst::Br { target: BlockId(2) };
        assert_eq!(
            control_error(&p),
            "main bb0: branch target bb2 out of range (2 blocks)"
        );

        let mut p = two_funcs();
        p.funcs[0].blocks[0].insts[0] = Inst::CondBr {
            cond: Cond::Eq,
            lhs: phys(0),
            rhs: phys(0),
            then_bb: BlockId(1),
            else_bb: BlockId(9),
        };
        assert_eq!(
            control_error(&p),
            "main bb0: branch target bb9 out of range (2 blocks)"
        );
    }

    #[test]
    fn out_of_range_callee_is_rejected() {
        let mut p = two_funcs();
        p.funcs[0].blocks[1].insts[0] = Inst::Call {
            callee: 2,
            args: vec![],
            ret: None,
        };
        assert_eq!(
            control_error(&p),
            "main bb1: callee f2 out of range (2 functions)"
        );
    }

    #[test]
    fn out_of_range_entry_block_is_rejected() {
        let mut p = two_funcs();
        p.funcs[1].entry = BlockId(1);
        assert_eq!(
            control_error(&p),
            "leaf: entry block bb1 out of range (1 blocks)"
        );

        let mut p = two_funcs();
        p.entry = 2;
        assert_eq!(
            control_error(&p),
            "entry function f2 out of range (2 functions)"
        );
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use dra_ir::{Cond, FunctionBuilder, PReg};

    fn phys(n: u8) -> Reg {
        Reg::Phys(PReg(n))
    }

    #[test]
    fn block_counts_record_loop_iterations() {
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: phys(0), imm: 0 });
        b.push(Inst::MovImm { dst: phys(1), imm: 7 });
        let h = b.new_block();
        let body = b.new_block();
        let ex = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.push(Inst::CondBr {
            cond: Cond::Lt,
            lhs: phys(0),
            rhs: phys(1),
            then_bb: body,
            else_bb: ex,
        });
        b.switch_to(body);
        b.push(Inst::BinImm {
            op: BinOp::Add,
            dst: phys(0),
            src: phys(0),
            imm: 1,
        });
        b.br(h);
        b.switch_to(ex);
        b.ret(None);
        let p = Program::single(b.finish());
        let r = simulate(&p, &LowEndConfig::default(), &[]).unwrap();
        assert_eq!(r.block_counts[&(0, h.0)], 8, "7 taken + 1 exit test");
        assert_eq!(r.block_counts[&(0, body.0)], 7);
        assert_eq!(r.block_counts[&(0, ex.0)], 1);
        assert_eq!(r.block_counts[&(0, 0)], 1, "entry executed once");
    }

    #[test]
    fn slr_pairs_share_fetch_cycles() {
        // With slr_per_cycle = 2, back-to-back set_last_regs cost one
        // cycle per pair.
        let build = |n: usize| {
            let mut b = FunctionBuilder::new("main");
            for _ in 0..n {
                b.push(Inst::SetLastReg {
                    class: dra_ir::RegClass::Int,
                    value: 0,
                    delay: 0,
                });
            }
            b.push(Inst::MovImm { dst: phys(0), imm: 1 });
            b.ret(Some(phys(0)));
            Program::single(b.finish())
        };
        let cfg = LowEndConfig::default();
        let none = simulate(&build(0), &cfg, &[]).unwrap();
        let four = simulate(&build(4), &cfg, &[]).unwrap();
        assert_eq!(
            four.cycles - none.cycles,
            2,
            "4 decode-removed instructions absorb into 2 cycles"
        );
        assert_eq!(four.set_last_regs, 4);
    }

    #[test]
    fn slr_full_cost_when_front_end_narrow() {
        let mut b = FunctionBuilder::new("main");
        for _ in 0..4 {
            b.push(Inst::SetLastReg {
                class: dra_ir::RegClass::Int,
                value: 0,
                delay: 0,
            });
        }
        b.push(Inst::MovImm { dst: phys(0), imm: 1 });
        b.ret(Some(phys(0)));
        let p = Program::single(b.finish());
        let narrow_cfg = LowEndConfig {
            slr_per_cycle: 1, // single-issue fetch: every slr stalls
            ..LowEndConfig::default()
        };
        let narrow = simulate(&p, &narrow_cfg, &[]).unwrap();
        let wide_cfg = LowEndConfig {
            slr_per_cycle: 2,
            ..LowEndConfig::default()
        };
        let wide = simulate(&p, &wide_cfg, &[]).unwrap();
        assert_eq!(narrow.cycles - wide.cycles, 2);
    }
}
