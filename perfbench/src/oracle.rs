//! Reference interpreter for programs *before* register allocation.
//!
//! It gives every simulated compiled program an answer that the compiler
//! never touched: the source program runs here on virtual registers, and
//! the compiled program must return the same value in the simulator. The
//! value semantics mirror `dra_sim::simulate` (fresh zeroed registers per
//! activation, word-aligned memory that reads 0 until written, a private
//! spill frame per activation, out-of-range parameters read 0); there is
//! no cycle model and no cache.

use dra_ir::{Inst, Program, Reg};
use std::collections::HashMap;

/// Spill frames sit this many bytes apart, from this base (as in the
/// simulator, so a source program that spills addresses the same words).
const FRAME_BYTES: u64 = 1 << 12;
const STACK_BASE: u64 = 0x4000_0000;

struct Frame {
    func: usize,
    block: usize,
    inst: usize,
    vregs: Vec<i64>,
    pregs: [i64; 64],
    frame_base: u64,
    args: Vec<i64>,
    ret_to: Option<Reg>,
}

impl Frame {
    fn new(
        p: &Program,
        func: usize,
        frame_base: u64,
        args: Vec<i64>,
        ret_to: Option<Reg>,
    ) -> Frame {
        let f = &p.funcs[func];
        Frame {
            func,
            block: f.entry.index(),
            inst: 0,
            vregs: vec![0; f.vreg_count as usize],
            pregs: [0; 64],
            frame_base,
            args,
            ret_to,
        }
    }

    fn read(&self, r: Reg) -> i64 {
        match r {
            Reg::Virt(v) => self.vregs.get(v.index()).copied().unwrap_or(0),
            Reg::Phys(p) => self.pregs[p.index()],
        }
    }

    fn write(&mut self, r: Reg, value: i64) {
        match r {
            Reg::Virt(v) => {
                if v.index() >= self.vregs.len() {
                    self.vregs.resize(v.index() + 1, 0);
                }
                self.vregs[v.index()] = value;
            }
            Reg::Phys(p) => self.pregs[p.index()] = value,
        }
    }
}

/// Run `p` from its entry function with `args`; returns the entry
/// function's return value.
///
/// # Errors
///
/// A description when more than `max_steps` instructions execute or
/// control leaves a block without a terminator.
pub fn interpret(p: &Program, args: &[i64], max_steps: u64) -> Result<Option<i64>, String> {
    let mut mem: HashMap<u64, i64> = HashMap::new();
    let mut next_frame = STACK_BASE;
    let mut stack = vec![Frame::new(
        p,
        p.entry as usize,
        next_frame,
        args.to_vec(),
        None,
    )];
    next_frame += FRAME_BYTES;
    let mut steps = 0u64;
    while let Some(fr) = stack.last_mut() {
        steps += 1;
        if steps > max_steps {
            return Err(format!("exceeded {max_steps} interpreted instructions"));
        }
        let f = &p.funcs[fr.func];
        let Some(inst) = f.blocks[fr.block].insts.get(fr.inst) else {
            return Err(format!("fell off the end of a block in {}", f.name));
        };
        fr.inst += 1;
        match inst {
            Inst::Bin { op, dst, lhs, rhs } => {
                let v = op.eval(fr.read(*lhs), fr.read(*rhs));
                fr.write(*dst, v);
            }
            Inst::BinImm { op, dst, src, imm } => {
                let v = op.eval(fr.read(*src), *imm as i64);
                fr.write(*dst, v);
            }
            Inst::Mov { dst, src } => {
                let v = fr.read(*src);
                fr.write(*dst, v);
            }
            Inst::MovImm { dst, imm } => fr.write(*dst, *imm as i64),
            Inst::GetParam { dst, index } => {
                let v = fr.args.get(*index as usize).copied().unwrap_or(0);
                fr.write(*dst, v);
            }
            Inst::Load { dst, base, offset } => {
                let a = (fr.read(*base) as u64).wrapping_add(*offset as i64 as u64) & !7;
                let v = mem.get(&a).copied().unwrap_or(0);
                fr.write(*dst, v);
            }
            Inst::Store { src, base, offset } => {
                let a = (fr.read(*base) as u64).wrapping_add(*offset as i64 as u64) & !7;
                mem.insert(a, fr.read(*src));
            }
            Inst::SpillLoad { dst, slot } => {
                let v = mem
                    .get(&(fr.frame_base + slot.0 as u64 * 8))
                    .copied()
                    .unwrap_or(0);
                fr.write(*dst, v);
            }
            Inst::SpillStore { src, slot } => {
                mem.insert(fr.frame_base + slot.0 as u64 * 8, fr.read(*src));
            }
            Inst::Br { target } => {
                fr.block = target.index();
                fr.inst = 0;
            }
            Inst::CondBr {
                cond,
                lhs,
                rhs,
                then_bb,
                else_bb,
            } => {
                let taken = cond.eval(fr.read(*lhs), fr.read(*rhs));
                fr.block = if taken {
                    then_bb.index()
                } else {
                    else_bb.index()
                };
                fr.inst = 0;
            }
            Inst::Call { callee, args, ret } => {
                let vals = args.iter().map(|&a| fr.read(a)).collect();
                let callee = Frame::new(p, *callee as usize, next_frame, vals, *ret);
                next_frame += FRAME_BYTES;
                stack.push(callee);
            }
            Inst::Ret { value } => {
                let v = value.map(|r| fr.read(r));
                let ret_to = fr.ret_to;
                stack.pop();
                match stack.last_mut() {
                    Some(caller) => {
                        if let (Some(dst), Some(v)) = (ret_to, v) {
                            caller.write(dst, v);
                        }
                    }
                    None => return Ok(v),
                }
            }
            Inst::SetLastReg { .. } | Inst::Nop => {}
        }
    }
    Err("empty call stack".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_sim::{simulate, LowEndConfig};

    #[test]
    fn matches_the_simulator_on_every_mibench_program() {
        // The compiled baseline program runs in the simulator; its source
        // runs here. Both must agree.
        let setup = dra_core::LowEndSetup::default();
        for name in dra_workloads::benchmark_names() {
            let src = dra_workloads::benchmark(name);
            let want = interpret(&src, &[], 200_000_000).unwrap();
            let mut p = src.clone();
            dra_core::lowend::compile_program(&mut p, dra_core::Approach::Baseline, &setup)
                .unwrap();
            let got = simulate(&p, &LowEndConfig::default(), &[])
                .unwrap()
                .ret_value;
            assert_eq!(want, got, "{name}");
        }
    }

    #[test]
    fn runaway_programs_are_reported() {
        let mut b = dra_ir::FunctionBuilder::new("main");
        let l = b.new_block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let p = Program::single(b.finish());
        assert!(interpret(&p, &[], 1000).is_err());
    }
}
