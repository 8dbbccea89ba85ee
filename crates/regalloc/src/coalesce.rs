//! Differential coalesce (Section 7) — approach 3.
//!
//! Runs on top of the optimal-spilling pipeline: after the spill phase
//! guarantees pressure ≤ `RegN`, the program still contains moves (from the
//! source program and from live-range splitting). The paper's algorithm
//! (Figure 9) repeatedly:
//!
//! 1. tries every remaining coalescible move,
//! 2. for each, *tentatively* merges the two live ranges, rebuilds and
//!    simplifies the interference graph, runs **differential select**, and
//!    records the total cost (differential-encoding cost plus the cost of
//!    the remaining moves — a `set_last_reg` is priced like a move),
//! 3. commits the single coalescence with the biggest cost reduction,
//! 4. stops when nothing improves the cost or every candidate would make
//!    the graph uncolorable.
//!
//! The final differential-select coloring is then applied.

use crate::dense::ColorSet;
use crate::interference::InterferenceGraph;
use crate::irc::{irc_allocate_recorded, AllocConfig, AllocError, AllocStats, SelectStrategy, SpillMetric};
use crate::ospill::reduce_pressure;
use dra_adjgraph::{build_vreg_adjacency, AdjacencyGraph, AdjacencyIndex, DiffParams};
use dra_ir::{Function, Inst, Liveness, PReg, Program, Reg, RegClass, VReg};

/// How each coalesce candidate is evaluated (ablation D3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoalesceEval {
    /// The paper's Figure 9: tentatively merge, rebuild + simplify + run
    /// differential select, score the complete assignment. `O(moves²)`
    /// colorings overall.
    #[default]
    Full,
    /// Incremental: score a candidate by the adjacency-cost delta of
    /// recoloring the merged node under the *current* base coloring, plus
    /// the move weight saved. One coloring per committed merge instead of
    /// one per candidate.
    Incremental,
}

/// Configuration for differential coalesce.
#[derive(Clone, Debug)]
pub struct CoalesceConfig {
    /// Differential parameters; `params.reg_n()` is the color count.
    pub params: DiffParams,
    /// Register class being allocated.
    pub class: RegClass,
    /// Physical registers clobbered by calls.
    pub call_clobbers: Vec<PReg>,
    /// Relative cost of one move (and one `set_last_reg`) in the objective;
    /// the paper treats them as equal.
    pub move_cost: f64,
    /// Upper bound on candidate evaluations per round — the full
    /// rebuild-and-select evaluation is `O(moves²)` overall (Section 7), so
    /// very move-heavy functions are truncated to the best `eval_limit`
    /// candidates by a cheap pre-score.
    pub eval_limit: usize,
    /// Safety cap on spill rounds if coloring unexpectedly fails.
    pub max_rounds: u32,
    /// Candidate evaluation strategy (ablation D3).
    pub eval: CoalesceEval,
}

impl CoalesceConfig {
    /// Defaults for the given differential parameters.
    pub fn new(params: DiffParams) -> Self {
        CoalesceConfig {
            params,
            class: RegClass::Int,
            call_clobbers: Vec::new(),
            move_cost: 1.0,
            eval_limit: 48,
            max_rounds: 64,
            eval: CoalesceEval::Full,
        }
    }
}

/// Statistics from a differential-coalesce allocation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoalesceStats {
    /// Live ranges spilled by the pressure phase.
    pub pressure_spills: usize,
    /// Extra spills forced during coloring (normally 0).
    pub coloring_spills: usize,
    /// Moves committed (coalesced away) by the differential loop.
    pub moves_coalesced: usize,
    /// Final differential cost of the chosen assignment.
    pub final_cost: f64,
    /// Stats of the final IRC coloring pass (work counters + phase
    /// timings; `moves_coalesced`/`spilled_vregs` are already folded into
    /// the fields above).
    pub irc: AllocStats,
}

/// The [`AllocConfig`] for the final IRC coloring pass. Built once per
/// `coalesce_allocate`/`coalesce_allocate_program` call — this is where
/// `call_clobbers` gets cloned, so the program-level wrapper pays for it
/// once instead of once per function.
fn irc_config(cfg: &CoalesceConfig) -> AllocConfig {
    AllocConfig {
        k: cfg.params.reg_n(),
        params: cfg.params,
        strategy: SelectStrategy::Differential,
        call_clobbers: cfg.call_clobbers.clone(),
        class: cfg.class,
        spill_metric: SpillMetric::GlobalCoverage,
        max_rounds: cfg.max_rounds,
    }
}

/// Allocate `f` with differential coalesce.
///
/// # Errors
///
/// [`AllocError::DidNotConverge`] if repeated fallback spilling exceeds
/// `cfg.max_rounds`.
pub fn coalesce_allocate(
    f: &mut Function,
    cfg: &CoalesceConfig,
) -> Result<CoalesceStats, AllocError> {
    coalesce_allocate_with(f, cfg, &irc_config(cfg), false).map(|(stats, _)| stats)
}

/// [`coalesce_allocate`] with optional
/// [`AllocationRecord`](crate::allocator::AllocationRecord) capture. The
/// record is taken by the final IRC pass, i.e. *after* the Figure 9
/// coalescing loop has merged vregs and deleted their moves — the
/// checker verifies the final substitution; vreg-level merges are
/// validated upstream by the simulator equivalence suite.
///
/// # Errors
///
/// Same as [`coalesce_allocate`].
pub fn coalesce_allocate_recorded(
    f: &mut Function,
    cfg: &CoalesceConfig,
    record: bool,
) -> Result<(CoalesceStats, Option<crate::allocator::AllocationRecord>), AllocError> {
    coalesce_allocate_with(f, cfg, &irc_config(cfg), record)
}

/// [`coalesce_allocate`] with the final-pass IRC configuration supplied
/// by the caller (so batch drivers amortize its construction).
fn coalesce_allocate_with(
    f: &mut Function,
    cfg: &CoalesceConfig,
    irc_cfg: &AllocConfig,
    record: bool,
) -> Result<(CoalesceStats, Option<crate::allocator::AllocationRecord>), AllocError> {
    let k = cfg.params.reg_n();
    let mut stats = CoalesceStats {
        pressure_spills: reduce_pressure(f, cfg.class, k as usize, 512).len(),
        ..CoalesceStats::default()
    };

    // The differential coalesce loop (Figure 9).
    loop {
        let view = GraphView::of(f, cfg);
        let best = best_coalesce(&view, cfg);
        view.ig.recycle();
        match best {
            Some((dst, src)) => {
                commit_coalesce(f, dst, src);
                stats.moves_coalesced += 1;
            }
            None => break,
        }
    }

    // Final coloring: hand the merged function to iterated register
    // coalescing with the differential select stage. IRC both removes any
    // remaining profitable moves and handles residual spills far better
    // than a plain simplify/select pass.
    let (irc_stats, rec) = irc_allocate_recorded(f, irc_cfg, record)?;
    stats.coloring_spills += irc_stats.spilled_vregs;
    stats.moves_coalesced += irc_stats.moves_coalesced;
    stats.irc = irc_stats;
    stats.final_cost = dra_adjgraph::build_preg_adjacency(f, cfg.class, k)
        .assignment_cost(|n| Some(n as u8), cfg.params);
    Ok((stats, rec))
}

/// Allocate a whole program with differential coalesce.
///
/// # Errors
///
/// Propagates the first [`AllocError`] from any function.
pub fn coalesce_allocate_program(
    p: &mut Program,
    cfg: &CoalesceConfig,
) -> Result<CoalesceStats, AllocError> {
    let irc_cfg = irc_config(cfg);
    let mut total = CoalesceStats::default();
    for f in &mut p.funcs {
        let (s, _) = coalesce_allocate_with(f, cfg, &irc_cfg, false)?;
        total.pressure_spills += s.pressure_spills;
        total.coloring_spills += s.coloring_spills;
        total.moves_coalesced += s.moves_coalesced;
        total.final_cost += s.final_cost;
        total.irc.rounds = total.irc.rounds.max(s.irc.rounds);
        total.irc.spilled_vregs += s.irc.spilled_vregs;
        total.irc.moves_coalesced += s.irc.moves_coalesced;
        total.irc.liveness_nanos += s.irc.liveness_nanos;
        total.irc.build_nanos += s.irc.build_nanos;
        total.irc.color_nanos += s.irc.color_nanos;
        total.irc.simplify_steps += s.irc.simplify_steps;
        total.irc.coalesce_steps += s.irc.coalesce_steps;
        total.irc.freeze_steps += s.irc.freeze_steps;
        total.irc.spill_selects += s.irc.spill_selects;
    }
    Ok(total)
}

/// One round of the differential coalesce loop: pick the cheapest
/// profitable move to merge, or `None` when no candidate improves on the
/// base coloring (or the base graph is uncolorable).
fn best_coalesce(view: &GraphView, cfg: &CoalesceConfig) -> Option<(VReg, VReg)> {
    let candidates = view.coalesce_candidates(cfg.eval_limit);
    if candidates.is_empty() {
        return None;
    }
    // Base graph uncolorable: fall through to spilling in the caller.
    let base_cost = view.color_cost(None, cfg)?;
    let mut best: Option<(VReg, VReg, f64)> = None;
    match cfg.eval {
        CoalesceEval::Full => {
            for &(dst, src) in &candidates {
                if let Some(cost) = view.color_cost(Some((dst, src)), cfg) {
                    // Coalescing removes one move of weight
                    // `move_cost` * frequency; the cost function
                    // already includes remaining move weight, so
                    // `cost` is directly comparable.
                    if cost < base_cost - 1e-9
                        && best.is_none_or(|(_, _, bc)| cost < bc)
                    {
                        best = Some((dst, src, cost));
                    }
                }
            }
        }
        CoalesceEval::Incremental => {
            // One base coloring; per-candidate O(degree) delta.
            let (colors, _) = view.try_color(None, cfg)?;
            for &(dst, src) in &candidates {
                let Some(cd) = colors[dst.index()] else { continue };
                let assign_base = |node: u32| {
                    if node >= view.vreg_count {
                        Some((node - view.vreg_count) as u8)
                    } else {
                        colors[node as usize]
                    }
                };
                let assign_merged = |node: u32| {
                    if node == src.0 {
                        Some(cd)
                    } else {
                        assign_base(node)
                    }
                };
                let before = view.adj_index.node_cost(src.0, assign_base, cfg.params);
                let after = view.adj_index.node_cost(src.0, assign_merged, cfg.params);
                let move_w = view
                    .moves
                    .iter()
                    .find(|(d, s, _)| (*d, *s) == (dst, src))
                    .map(|&(_, _, w)| w)
                    .unwrap_or(cfg.move_cost);
                let delta = after - before - move_w;
                let score = base_cost + delta;
                if delta < -1e-9 && best.is_none_or(|(_, _, bc)| score < bc) {
                    best = Some((dst, src, score));
                }
            }
        }
    }
    best.map(|(dst, src, _)| (dst, src))
}

/// Physically merge `src` into `dst`: rewrite uses and drop trivial moves.
fn commit_coalesce(f: &mut Function, dst: VReg, src: VReg) {
    for b in &mut f.blocks {
        for i in &mut b.insts {
            i.map_regs(|r| {
                if r.as_virt() == Some(src) {
                    Reg::Virt(dst)
                } else {
                    r
                }
            });
        }
        b.insts.retain(|i| {
            !matches!(i, Inst::Mov { dst: d, src: s } if d == s)
        });
    }
    f.recompute_cfg();
}


/// A snapshot of interference + adjacency for tentative evaluations.
struct GraphView {
    ig: InterferenceGraph,
    adj: AdjacencyGraph,
    adj_index: AdjacencyIndex,
    vreg_count: u32,
    class_vregs: Vec<u32>,
    moves: Vec<(VReg, VReg, f64)>, // dst, src, weight
}

impl GraphView {
    fn of(f: &Function, cfg: &CoalesceConfig) -> GraphView {
        let liveness = Liveness::compute(f);
        let ig = InterferenceGraph::build(f, &liveness, cfg.class, &cfg.call_clobbers);
        let adj = build_vreg_adjacency(f, cfg.class);
        let adj_index = adj.index();
        let class_vregs: Vec<u32> = (0..f.vreg_count)
            .filter(|&v| f.vreg_classes[v as usize] == cfg.class)
            .filter(|&v| ig.use_def_weight[v as usize] > 0.0 || ig.degree(v) > 0)
            .collect();
        // Move list with block frequencies as weights.
        let mut moves = Vec::new();
        for (_, blk) in f.iter_blocks() {
            for i in &blk.insts {
                if let Inst::Mov { dst, src } = i {
                    if let (Some(d), Some(s)) = (dst.as_virt(), src.as_virt()) {
                        if f.vreg_class(d) == cfg.class && d != s {
                            moves.push((d, s, blk.freq * cfg.move_cost));
                        }
                    }
                }
            }
        }
        GraphView {
            ig,
            adj,
            adj_index,
            vreg_count: f.vreg_count,
            class_vregs,
            moves,
        }
    }

    /// Non-interfering move pairs, best `limit` by a cheap pre-score
    /// (weight of the move — heavier moves are worth more to remove).
    fn coalesce_candidates(&self, limit: usize) -> Vec<(VReg, VReg)> {
        let mut cands: Vec<(VReg, VReg, f64)> = self
            .moves
            .iter()
            .filter(|(d, s, _)| !self.ig.interferes(d.0, s.0))
            .map(|&(d, s, w)| (d, s, w))
            .collect();
        cands.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        cands.truncate(limit);
        cands.into_iter().map(|(d, s, _)| (d, s)).collect()
    }

    /// Run simplify + differential select on the (optionally merged) graph;
    /// returns the total objective — differential cost plus remaining move
    /// weight — or `None` when uncolorable.
    fn color_cost(&self, merge: Option<(VReg, VReg)>, cfg: &CoalesceConfig) -> Option<f64> {
        let (colors, diff_cost) = self.try_color(merge, cfg)?;
        let _ = colors;
        // Moves whose endpoints got the same color vanish for free; the
        // rest stay. The merged move (if any) is gone by construction.
        let mut remaining = 0.0;
        for &(d, s, w) in &self.moves {
            if let Some((md, ms)) = merge {
                if (d, s) == (md, ms) {
                    continue;
                }
            }
            let alias = |v: VReg| -> u32 {
                if let Some((md, ms)) = merge {
                    if v == ms {
                        return md.0;
                    }
                }
                v.0
            };
            let (ca, cb) = (colors_at(&colors, alias(d)), colors_at(&colors, alias(s)));
            if ca.is_some() && ca == cb {
                continue;
            }
            remaining += w;
        }
        Some(diff_cost + remaining)
    }

    /// Chaitin-Briggs simplify with optimistic push, then differential
    /// select. Returns per-vreg colors and the differential cost.
    fn try_color(
        &self,
        merge: Option<(VReg, VReg)>,
        cfg: &CoalesceConfig,
    ) -> Option<(Vec<Option<u8>>, f64)> {
        let k = cfg.params.reg_n() as usize;
        let alias = |v: u32| -> u32 {
            if let Some((d, s)) = merge {
                if v == s.0 {
                    return d.0;
                }
            }
            v
        };

        // Effective node set after aliasing: a membership array plus an
        // ascending id list (the iteration order the old sorted set had).
        let mut node_set = vec![false; self.vreg_count as usize];
        for &v in &self.class_vregs {
            node_set[alias(v) as usize] = true;
        }
        let nodes: Vec<u32> = (0..self.vreg_count)
            .filter(|&v| node_set[v as usize])
            .collect();
        // Distinct effective neighbors of `v`, gathered into a reused
        // scratch with epoch-marked dedup. Order is irrelevant to every
        // consumer (degree counts, saturating decrements, color-mask
        // removal), so losing the old set's sortedness changes nothing.
        let mut mark = vec![0u32; self.ig.num_nodes()];
        let mut epoch = 0u32;
        let mut gather = |v: u32, out: &mut Vec<u32>| {
            epoch += 1;
            out.clear();
            mark[v as usize] = epoch; // excludes a == v, like the old filter
            let second = match merge {
                Some((d, s)) if v == d.0 => Some(s.0),
                _ => None,
            };
            for orig in std::iter::once(v).chain(second) {
                for n in self.ig.neighbors(orig) {
                    let a = if n < self.vreg_count { alias(n) } else { n };
                    if mark[a as usize] != epoch {
                        mark[a as usize] = epoch;
                        out.push(a);
                    }
                }
            }
        };

        // Simplify: repeatedly remove min-degree node (optimistic when all
        // are >= k). Degrees live in a dense per-vreg array; like the map
        // it replaces, popped nodes keep their (now meaningless) entries
        // and keep absorbing saturating decrements.
        let mut deg = vec![0usize; self.vreg_count as usize];
        let mut scratch: Vec<u32> = Vec::new();
        for &v in &nodes {
            gather(v, &mut scratch);
            deg[v as usize] = scratch
                .iter()
                .filter(|&&n| n >= self.vreg_count || node_set[n as usize])
                .count();
        }
        let mut remaining = crate::dense::OrderedIndexSet::new(self.vreg_count as usize);
        for &v in &nodes {
            remaining.insert(v);
        }
        let mut stack = Vec::with_capacity(nodes.len());
        while !remaining.is_empty() {
            // Prefer a node with degree < k; otherwise push optimistically
            // the one with the lowest spill attractiveness. One ascending
            // pass: first sub-k node wins, else the first strict minimum —
            // exactly the old `find(..).or_else(min_by_key(..))` pair.
            let mut found = None;
            let mut min: Option<(u32, usize)> = None;
            for v in remaining.iter() {
                let d = deg[v as usize];
                if d < k {
                    found = Some(v);
                    break;
                }
                if min.is_none_or(|(_, md)| d < md) {
                    min = Some((v, d));
                }
            }
            let next = found.or(min.map(|(v, _)| v)).expect("nonempty");
            remaining.remove(next);
            stack.push(next);
            gather(next, &mut scratch);
            for &n in &scratch {
                if n < self.vreg_count && node_set[n as usize] {
                    deg[n as usize] = deg[n as usize].saturating_sub(1);
                }
            }
        }

        // Select with the differential chooser.
        let mut colors: Vec<Option<u8>> = vec![None; self.vreg_count as usize];
        while let Some(v) = stack.pop() {
            let mut ok = ColorSet::below(k as u8);
            gather(v, &mut scratch);
            for &n in &scratch {
                if n >= self.vreg_count {
                    // Precolored physical register.
                    ok.remove((n - self.vreg_count) as u8);
                } else if let Some(c) = colors[n as usize] {
                    ok.remove(c);
                }
            }
            if ok.is_empty() {
                return None;
            }
            // Differential select on the adjacency graph.
            let mut best = ok.first().expect("nonempty");
            let mut best_cost = f64::INFINITY;
            for c in ok.iter() {
                let cost = self.adj_index.node_cost(
                    v,
                    |node| {
                        let a = if node < self.vreg_count {
                            alias(node)
                        } else {
                            node
                        };
                        if a == v {
                            Some(c)
                        } else if a >= self.vreg_count {
                            Some((a - self.vreg_count) as u8)
                        } else {
                            colors[a as usize]
                        }
                    },
                    cfg.params,
                );
                if cost < best_cost {
                    best_cost = cost;
                    best = c;
                }
            }
            colors[v as usize] = Some(best);
        }
        // Propagate to merged node.
        if let Some((d, s)) = merge {
            colors[s.index()] = colors[d.index()];
        }

        // Total differential cost of the assignment.
        let diff_cost = self.adj.assignment_cost(
            |node| {
                if node >= self.vreg_count {
                    Some((node - self.vreg_count) as u8)
                } else {
                    colors[alias(node) as usize]
                }
            },
            cfg.params,
        );
        Some((colors, diff_cost))
    }


}

fn colors_at(colors: &[Option<u8>], v: u32) -> Option<u8> {
    colors.get(v as usize).copied().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_ir::{BinOp, FunctionBuilder};

    fn movey_function() -> Function {
        let mut b = FunctionBuilder::new("movey");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.mov(z, y.into());
        b.ret(Some(z.into()));
        b.finish()
    }

    #[test]
    fn chains_of_moves_coalesce() {
        let mut f = movey_function();
        let cfg = CoalesceConfig::new(DiffParams::new(8, 8));
        let stats = coalesce_allocate(&mut f, &cfg).unwrap();
        assert!(f.is_fully_physical());
        assert_eq!(f.count_insts(|i| i.is_move()), 0, "all moves gone:\n{f}");
        assert!(stats.moves_coalesced >= 1);
    }

    #[test]
    fn allocation_valid_under_pressure() {
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..9).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for &v in &vs {
            b.bin(BinOp::Add, s, s.into(), v.into());
        }
        b.ret(Some(s.into()));
        let mut f = b.finish();
        let cfg = CoalesceConfig::new(DiffParams::direct(4));
        let stats = coalesce_allocate(&mut f, &cfg).unwrap();
        assert!(f.is_fully_physical());
        assert!(stats.pressure_spills > 0);
        for i in f.iter_insts() {
            for r in i.accesses() {
                assert!(r.expect_phys().number() < 4);
            }
        }
    }

    #[test]
    fn final_cost_reported() {
        let mut f = movey_function();
        let cfg = CoalesceConfig::new(DiffParams::lowend_12_8());
        let stats = coalesce_allocate(&mut f, &cfg).unwrap();
        assert!(stats.final_cost >= 0.0);
    }

    #[test]
    fn program_level_wrapper() {
        let mut p = Program::single(movey_function());
        let cfg = CoalesceConfig::new(DiffParams::new(8, 8));
        let stats = coalesce_allocate_program(&mut p, &cfg).unwrap();
        assert!(p.funcs[0].is_fully_physical());
        assert!(stats.moves_coalesced >= 1);
    }

    #[test]
    fn interfering_move_not_coalesced() {
        // y = x but both later used together: merging would be unsound.
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.bin_imm(BinOp::Add, y, y.into(), 5); // y diverges from x
        b.bin(BinOp::Add, z, x.into(), y.into());
        b.ret(Some(z.into()));
        let mut f = b.finish();
        let cfg = CoalesceConfig::new(DiffParams::new(8, 8));
        coalesce_allocate(&mut f, &cfg).unwrap();
        // The x->y move must survive with distinct registers.
        let mv = f
            .iter_insts()
            .find_map(|i| match i {
                Inst::Mov { dst, src } => Some((dst.expect_phys(), src.expect_phys())),
                _ => None,
            })
            .expect("move survives");
        assert_ne!(mv.0, mv.1);
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;
    use dra_ir::FunctionBuilder;

    fn movey() -> Function {
        let mut b = FunctionBuilder::new("movey");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.mov(z, y.into());
        b.ret(Some(z.into()));
        b.finish()
    }

    #[test]
    fn incremental_eval_also_coalesces() {
        let mut f = movey();
        let cfg = CoalesceConfig {
            eval: CoalesceEval::Incremental,
            ..CoalesceConfig::new(DiffParams::new(8, 8))
        };
        let stats = coalesce_allocate(&mut f, &cfg).unwrap();
        assert!(f.is_fully_physical());
        assert_eq!(f.count_insts(|i| i.is_move()), 0, "moves gone:\n{f}");
        assert!(stats.moves_coalesced >= 1);
    }

    #[test]
    fn incremental_matches_full_on_simple_input() {
        let run = |eval: CoalesceEval| {
            let mut f = movey();
            let cfg = CoalesceConfig {
                eval,
                ..CoalesceConfig::new(DiffParams::lowend_12_8())
            };
            let s = coalesce_allocate(&mut f, &cfg).unwrap();
            (s.moves_coalesced, f.count_insts(|i| i.is_move()))
        };
        let full = run(CoalesceEval::Full);
        let inc = run(CoalesceEval::Incremental);
        assert_eq!(full.1, inc.1, "both eliminate every move here");
    }
}
