//! Backward liveness analysis.
//!
//! Liveness runs over a unified *entity* space so the allocators can treat
//! precolored physical registers and virtual registers uniformly: entities
//! `0..vreg_count` are virtual registers, entities `vreg_count ..
//! vreg_count + MAX_PREGS` are physical registers.

use crate::bitset::BitSet;
use crate::block::BlockId;
use crate::function::Function;
use crate::reg::{PReg, Reg, VReg};

/// Upper bound on physical register numbers tracked by liveness (the paper
/// sweeps `RegN` up to 64 in Table 2).
pub const MAX_PREGS: usize = 64;

/// Map a register operand to its dense entity index.
pub fn reg_to_entity(r: Reg, vreg_count: u32) -> usize {
    match r {
        Reg::Virt(v) => v.index(),
        Reg::Phys(p) => {
            assert!(p.index() < MAX_PREGS, "physical register {p} out of range");
            vreg_count as usize + p.index()
        }
    }
}

/// Inverse of [`reg_to_entity`].
pub fn entity_to_reg(e: usize, vreg_count: u32) -> Reg {
    if e < vreg_count as usize {
        Reg::Virt(VReg(e as u32))
    } else {
        Reg::Phys(PReg((e - vreg_count as usize) as u8))
    }
}

/// Per-block live-in/live-out sets.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// `live_in[b]`: entities live at the start of block `b`.
    pub live_in: Vec<BitSet>,
    /// `live_out[b]`: entities live at the end of block `b`.
    pub live_out: Vec<BitSet>,
    /// Size of the entity space (`vreg_count + MAX_PREGS`).
    pub num_entities: usize,
    /// Copied from the analyzed function.
    pub vreg_count: u32,
}

impl Liveness {
    /// Run the backward dataflow to a fixed point.
    ///
    /// The solver is a predecessor-driven worklist: blocks are seeded in
    /// postorder (successors before predecessors, the fastest direction
    /// for a backward problem) and a block re-enters the list only when
    /// one of its successors' `live_in` actually changed. Transfer
    /// functions run in two reused scratch [`BitSet`]s, so the worklist
    /// loop itself allocates nothing.
    ///
    /// Values returned by the function (`Ret`) are uses; function
    /// parameters are treated as live-in to the entry block by virtue of
    /// having no dominating def — callers that care should consult
    /// [`Liveness::live_in`] of the entry.
    pub fn compute(f: &Function) -> Liveness {
        let nb = f.num_blocks();
        let ne = f.vreg_count as usize + MAX_PREGS;
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen_b: Vec<BitSet> = Vec::with_capacity(nb);
        let mut kill_b: Vec<BitSet> = Vec::with_capacity(nb);
        for b in &f.blocks {
            let mut g = BitSet::new(ne);
            let mut k = BitSet::new(ne);
            for inst in &b.insts {
                for u in inst.uses() {
                    let e = reg_to_entity(u, f.vreg_count);
                    if !k.contains(e) {
                        g.insert(e);
                    }
                }
                for d in inst.defs() {
                    k.insert(reg_to_entity(d, f.vreg_count));
                }
            }
            gen_b.push(g);
            kill_b.push(k);
        }

        let mut live_in = vec![BitSet::new(ne); nb];
        let mut live_out = vec![BitSet::new(ne); nb];
        // Seed the stack so the first pops come in postorder: pushing the
        // RPO forward means the deepest (last) blocks pop first.
        let rpo = f.reverse_postorder();
        let mut stack: Vec<usize> = rpo.iter().map(|b| b.index()).collect();
        let mut on_stack = BitSet::new(nb.max(1));
        let mut reachable = BitSet::new(nb.max(1));
        for &bi in &stack {
            on_stack.insert(bi);
            reachable.insert(bi);
        }
        let mut out = BitSet::new(ne);
        let mut inn = BitSet::new(ne);
        while let Some(bi) = stack.pop() {
            on_stack.remove(bi);
            out.clear();
            for &s in &f.blocks[bi].succs {
                out.union_with(&live_in[s.index()]);
            }
            // in = gen ∪ (out − kill)
            inn.copy_from(&out);
            inn.subtract(&kill_b[bi]);
            inn.union_with(&gen_b[bi]);
            live_out[bi].copy_from(&out);
            if inn != live_in[bi] {
                live_in[bi].copy_from(&inn);
                for &p in &f.blocks[bi].preds {
                    // Only reachable blocks participate (matching the RPO
                    // sweep this replaced).
                    if reachable.contains(p.index()) && on_stack.insert(p.index()) {
                        stack.push(p.index());
                    }
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            num_entities: ne,
            vreg_count: f.vreg_count,
        }
    }

    /// Live set at block entry.
    pub fn block_live_in(&self, b: BlockId) -> &BitSet {
        &self.live_in[b.index()]
    }

    /// Live set at block exit.
    pub fn block_live_out(&self, b: BlockId) -> &BitSet {
        &self.live_out[b.index()]
    }

    /// Walk a block backwards, invoking `visit(inst_index, &live_after)`
    /// with the set of entities live immediately *after* each instruction,
    /// then updating the set across the instruction. This is the primitive
    /// interference-graph construction and pressure measurement build on.
    pub fn for_each_inst_reverse(
        &self,
        f: &Function,
        b: BlockId,
        mut visit: impl FnMut(usize, &BitSet),
    ) {
        let mut live = self.live_out[b.index()].clone();
        let insts = &f.blocks[b.index()].insts;
        for (i, inst) in insts.iter().enumerate().rev() {
            visit(i, &live);
            for d in inst.defs() {
                live.remove(reg_to_entity(d, self.vreg_count));
            }
            for u in inst.uses() {
                live.insert(reg_to_entity(u, self.vreg_count));
            }
        }
    }

    /// Maximum number of simultaneously-live *virtual* registers across
    /// every program point (MAXLIVE), the quantity the optimal spiller
    /// drives below `RegN`.
    ///
    /// Maintains a running live count across the backward sweep instead
    /// of popcounting the whole set at every instruction: one O(entities)
    /// scan per block, then O(1) per operand. The program points visited
    /// (block entry plus after-each-instruction) are exactly the ones the
    /// per-point popcount version visited, so the result is unchanged —
    /// this was the first superlinear corner the 10k-vreg corpus profiles
    /// surfaced.
    pub fn max_pressure(&self, f: &Function) -> usize {
        let vc = self.vreg_count as usize;
        let mut max = 0;
        let mut live = BitSet::new(self.num_entities);
        for (b, _) in f.iter_blocks() {
            live.copy_from(&self.live_out[b.index()]);
            let mut count = live.iter().filter(|&e| e < vc).count();
            max = max.max(count);
            // Walking backwards, the set after each step is the live-before
            // of that instruction — i.e. the live-after of its predecessor,
            // ending at the block's live-in.
            for inst in f.blocks[b.index()].insts.iter().rev() {
                for d in inst.defs() {
                    let e = reg_to_entity(d, self.vreg_count);
                    if live.remove(e) && e < vc {
                        count -= 1;
                    }
                }
                for u in inst.uses() {
                    let e = reg_to_entity(u, self.vreg_count);
                    if live.insert(e) && e < vc {
                        count += 1;
                    }
                }
                max = max.max(count);
            }
        }
        max
    }
}

/// MAXLIVE of `f` in one call: `Liveness::compute(f).max_pressure(f)`.
pub fn max_pressure_of(f: &Function) -> usize {
    Liveness::compute(f).max_pressure(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Cond};

    #[test]
    fn entity_roundtrip() {
        let vc = 10;
        for r in [Reg::Virt(VReg(0)), Reg::Virt(VReg(9)), Reg::Phys(PReg(0)), Reg::Phys(PReg(63))] {
            assert_eq!(entity_to_reg(reg_to_entity(r, vc), vc), r);
        }
    }

    #[test]
    fn straight_line_liveness() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        b.mov_imm(x, 1);
        b.bin_imm(BinOp::Add, y, x.into(), 2);
        b.ret(Some(y.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        assert!(l.block_live_in(BlockId(0)).is_empty());
        assert!(l.block_live_out(BlockId(0)).is_empty());
    }

    #[test]
    fn loop_carried_value_is_live_around_backedge() {
        let mut b = FunctionBuilder::new("f");
        let i = b.new_vreg();
        let n = b.new_vreg();
        b.mov_imm(i, 0);
        b.mov_imm(n, 10);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        b.cond_br(Cond::Lt, i.into(), n.into(), body, exit);
        b.switch_to(body);
        b.bin_imm(BinOp::Add, i, i.into(), 1);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let l = Liveness::compute(&f);
        let ie = reg_to_entity(i.into(), f.vreg_count);
        let ne = reg_to_entity(n.into(), f.vreg_count);
        assert!(l.block_live_in(header).contains(ie));
        assert!(l.block_live_in(header).contains(ne));
        assert!(l.block_live_out(body).contains(ie), "i live around backedge");
        assert!(l.block_live_out(body).contains(ne), "n live around backedge");
        assert!(!l.block_live_in(exit).contains(ie));
    }

    #[test]
    fn dead_def_is_not_live() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let dead = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov_imm(dead, 2);
        b.ret(Some(x.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let mut seen_dead_live = false;
        let de = reg_to_entity(dead.into(), f.vreg_count);
        l.for_each_inst_reverse(&f, BlockId(0), |_, live| {
            seen_dead_live |= live.contains(de);
        });
        assert!(!seen_dead_live);
    }

    #[test]
    fn physical_regs_participate() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        b.push(crate::inst::Inst::Mov {
            dst: x.into(),
            src: Reg::Phys(PReg(0)),
        });
        b.ret(Some(x.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let pe = reg_to_entity(Reg::Phys(PReg(0)), f.vreg_count);
        assert!(l.block_live_in(BlockId(0)).contains(pe), "p0 is live-in");
    }

    #[test]
    fn max_pressure_counts_overlap() {
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..5).map(|_| b.new_vreg()).collect();
        for (k, &v) in vs.iter().enumerate() {
            b.mov_imm(v, k as i32);
        }
        let sum = b.new_vreg();
        b.mov_imm(sum, 0);
        for &v in &vs {
            b.bin(BinOp::Add, sum, sum.into(), v.into());
        }
        b.ret(Some(sum.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        // All 5 values plus the accumulator overlap right after sum's init.
        assert!(l.max_pressure(&f) >= 5);
    }

    #[test]
    fn diamond_join_merges_liveness() {
        let mut b = FunctionBuilder::new("f");
        let c = b.new_vreg();
        let x = b.new_vreg();
        b.mov_imm(c, 0);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Cond::Eq, c.into(), c.into(), t, e);
        b.switch_to(t);
        b.mov_imm(x, 1);
        b.br(j);
        b.switch_to(e);
        b.mov_imm(x, 2);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(x.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let xe = reg_to_entity(x.into(), f.vreg_count);
        assert!(l.block_live_in(j).contains(xe));
        assert!(l.block_live_out(t).contains(xe));
        assert!(
            !l.block_live_in(t).contains(xe),
            "x defined on both arms, not live into them"
        );
    }
}
