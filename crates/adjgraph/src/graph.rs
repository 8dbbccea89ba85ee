//! The adjacency graph data structure (Definition 2).

use crate::params::DiffParams;
use std::collections::BTreeMap;

/// A directed weighted adjacency graph over dense node ids `0..n`.
///
/// Self-loops are never stored: an access pair `(v, v)` always encodes as
/// difference 0 and costs nothing (Section 4: "we do not draw any
/// self-looped edge … because they are always covered").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdjacencyGraph {
    n: usize,
    /// `(from, to) -> weight`; BTreeMap for deterministic iteration.
    edges: BTreeMap<(u32, u32), f64>,
}

impl AdjacencyGraph {
    /// An empty graph over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        AdjacencyGraph {
            n,
            edges: BTreeMap::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of distinct directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add `w` to the weight of edge `from -> to`. Self-loops are dropped.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn add_edge(&mut self, from: u32, to: u32, w: f64) {
        assert!((from as usize) < self.n, "node {from} out of range");
        assert!((to as usize) < self.n, "node {to} out of range");
        if from == to {
            return;
        }
        *self.edges.entry((from, to)).or_insert(0.0) += w;
    }

    /// The weight of `from -> to` (0 if absent).
    pub fn weight(&self, from: u32, to: u32) -> f64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0.0)
    }

    /// Iterate over `(from, to, weight)` in deterministic order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.edges.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// Total weight over all edges (an upper bound on differential cost).
    pub fn total_weight(&self) -> f64 {
        self.edges.values().sum()
    }

    /// Edges incident to `node` (either direction), as `(from, to, w)`,
    /// without allocating: the hot-path variant of [`Self::incident_edges`].
    pub fn incident_edges_iter(&self, node: u32) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.iter_edges().filter(move |&(a, b, _)| a == node || b == node)
    }

    /// Collect the edges incident to `node` into a caller-owned scratch
    /// buffer (cleared first), so repeated queries reuse one allocation.
    pub fn incident_edges_into(&self, node: u32, buf: &mut Vec<(u32, u32, f64)>) {
        buf.clear();
        buf.extend(self.incident_edges_iter(node));
    }

    /// Edges incident to `node` (either direction), as `(from, to, w)`.
    ///
    /// Allocates a fresh `Vec` per call; inner loops should prefer
    /// [`Self::incident_edges_iter`] or [`Self::incident_edges_into`].
    pub fn incident_edges(&self, node: u32) -> Vec<(u32, u32, f64)> {
        self.incident_edges_iter(node).collect()
    }

    /// The differential cost of a register-number assignment: the summed
    /// weight of edges violating condition (3). Nodes mapped to `None`
    /// (e.g. spilled live ranges) contribute nothing.
    pub fn assignment_cost(
        &self,
        assign: impl Fn(u32) -> Option<u8>,
        params: DiffParams,
    ) -> f64 {
        let mut cost = 0.0;
        for (&(a, b), &w) in &self.edges {
            if let (Some(ra), Some(rb)) = (assign(a), assign(b)) {
                if !params.in_range(ra, rb) {
                    cost += w;
                }
            }
        }
        cost
    }

    /// Cost contributed by edges incident to `node` only — used by
    /// differential select when scoring one candidate color.
    pub fn node_cost(
        &self,
        node: u32,
        assign: impl Fn(u32) -> Option<u8>,
        params: DiffParams,
    ) -> f64 {
        let mut cost = 0.0;
        for (a, b, w) in self.incident_edges_iter(node) {
            if let (Some(ra), Some(rb)) = (assign(a), assign(b)) {
                if !params.in_range(ra, rb) {
                    cost += w;
                }
            }
        }
        cost
    }

    /// Merge node `b` into node `a` (coalescing): every edge touching `b`
    /// is redirected to `a`; resulting self-loops vanish (difference 0).
    pub fn merge_nodes(&mut self, a: u32, b: u32) {
        assert!((a as usize) < self.n && (b as usize) < self.n);
        if a == b {
            return;
        }
        let old = std::mem::take(&mut self.edges);
        for ((x, y), w) in old {
            let nx = if x == b { a } else { x };
            let ny = if y == b { a } else { y };
            if nx == ny {
                continue;
            }
            *self.edges.entry((nx, ny)).or_insert(0.0) += w;
        }
    }

    /// Out-degree plus in-degree of `node` in distinct edges.
    pub fn degree(&self, node: u32) -> usize {
        self.incident_edges_iter(node).count()
    }

    /// Build a per-node incidence index for fast repeated [`AdjacencyIndex::node_cost`]
    /// queries (the inner loop of differential select and coalesce).
    pub fn index(&self) -> AdjacencyIndex {
        let mut per_node = vec![Vec::new(); self.n];
        for (&(a, b), &w) in &self.edges {
            per_node[a as usize].push((a, b, w));
            per_node[b as usize].push((a, b, w));
        }
        AdjacencyIndex { per_node }
    }
}

/// Incidence-indexed adjacency graph: `node_cost` in time proportional to
/// the node's degree rather than the whole edge set.
#[derive(Clone, Debug, Default)]
pub struct AdjacencyIndex {
    per_node: Vec<Vec<(u32, u32, f64)>>,
}

impl AdjacencyIndex {
    /// Cost of the edges incident to `node` under `assign` — identical to
    /// [`AdjacencyGraph::node_cost`], but O(degree).
    pub fn node_cost(
        &self,
        node: u32,
        assign: impl Fn(u32) -> Option<u8>,
        params: DiffParams,
    ) -> f64 {
        let mut cost = 0.0;
        for &(a, b, w) in &self.per_node[node as usize] {
            if let (Some(ra), Some(rb)) = (assign(a), assign(b)) {
                if !params.in_range(ra, rb) {
                    cost += w;
                }
            }
        }
        cost
    }

    /// Number of nodes in the index.
    pub fn num_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Exact cost change of swapping the register numbers assigned to
    /// nodes `x` and `y` under the register vector `rv` (node `i` holds
    /// number `rv[i]`), in time `O(deg(x) + deg(y))`.
    ///
    /// Only edges incident to `x` or `y` can change violation status under
    /// the swap; edges incident to **both** (the `x↔y` edges) appear in
    /// both incidence lists and are counted once, by skipping them during
    /// the `y` pass. Returns `cost(after) - cost(before)`, so a profitable
    /// swap has a negative delta.
    ///
    /// # Panics
    ///
    /// Panics if `rv` is shorter than the node count or `x`/`y` are out of
    /// range.
    pub fn swap_delta(&self, rv: &[u8], x: u32, y: u32, params: DiffParams) -> f64 {
        if x == y {
            return 0.0;
        }
        let before = |n: u32| rv[n as usize];
        let after = |n: u32| {
            if n == x {
                rv[y as usize]
            } else if n == y {
                rv[x as usize]
            } else {
                rv[n as usize]
            }
        };
        let mut delta = 0.0;
        for &(a, b, w) in &self.per_node[x as usize] {
            let was = !params.in_range(before(a), before(b));
            let is = !params.in_range(after(a), after(b));
            delta += (is as i8 - was as i8) as f64 * w;
        }
        for &(a, b, w) in &self.per_node[y as usize] {
            if a == x || b == x {
                continue; // already counted in the x pass
            }
            let was = !params.in_range(before(a), before(b));
            let is = !params.in_range(after(a), after(b));
            delta += (is as i8 - was as i8) as f64 * w;
        }
        delta
    }

    /// Total weight of edges incident to `node`.
    pub fn incident_weight(&self, node: u32) -> f64 {
        self.per_node[node as usize].iter().map(|&(_, _, w)| w).sum()
    }

    /// The edges incident to `node` as an owned-by-the-index slice — the
    /// allocation-free counterpart of [`AdjacencyGraph::incident_edges`].
    /// Edges between two nodes appear in both endpoints' slices.
    pub fn incident(&self, node: u32) -> &[(u32, u32, f64)] {
        &self.per_node[node as usize]
    }

    /// Exact cost change of rotating register numbers along `cycle`: node
    /// `cycle[i]` takes the number previously held by `cycle[(i+1) % k]`
    /// (a left rotation of the value sequence). A 2-cycle is exactly
    /// [`Self::swap_delta`]. Runs in `O(sum of deg(cycle[i]) * k)` with no
    /// allocation; `k` is expected to be small (3..=8).
    ///
    /// Each edge with multiple in-cycle endpoints appears in several
    /// incidence lists; it is charged only at the smallest in-cycle
    /// position among its endpoints, so every edge counts exactly once.
    /// Returns `cost(after) - cost(before)`; profitable rotations are
    /// negative.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` has repeated nodes (debug builds), or if any node
    /// is out of range of `rv`.
    pub fn cycle_delta(&self, rv: &[u8], cycle: &[u32], params: DiffParams) -> f64 {
        let k = cycle.len();
        if k < 2 {
            return 0.0;
        }
        debug_assert!(
            (0..k).all(|i| (i + 1..k).all(|j| cycle[i] != cycle[j])),
            "cycle must not repeat nodes: {cycle:?}"
        );
        // Position of `n` in the cycle, if any; linear scan — k is small.
        let pos = |n: u32| cycle.iter().position(|&c| c == n);
        let after = |n: u32| match pos(n) {
            Some(p) => rv[cycle[(p + 1) % k] as usize],
            None => rv[n as usize],
        };
        let mut delta = 0.0;
        for (i, &node) in cycle.iter().enumerate() {
            for &(a, b, w) in &self.per_node[node as usize] {
                let other = if a == node { b } else { a };
                // Charge the edge at its smallest in-cycle endpoint
                // position; `other`'s position only matters when smaller.
                if matches!(pos(other), Some(p) if p < i) {
                    continue;
                }
                let was = !params.in_range(rv[a as usize], rv[b as usize]);
                let is = !params.in_range(after(a), after(b));
                delta += (is as i8 - was as i8) as f64 * w;
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loops_dropped() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(1, 1, 5.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.weight(1, 1), 0.0);
    }

    #[test]
    fn weights_accumulate() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 1.0);
        assert_eq!(g.weight(0, 1), 2.0);
        assert_eq!(g.weight(1, 0), 0.0, "directed");
        assert_eq!(g.total_weight(), 2.0);
    }

    #[test]
    fn figure5_example_zero_cost_solution() {
        // Figure 5.d: edges (L1,L2)x2, (L2,L3), (L3,L4), (L4,L1), (L2,L5),
        // (L5,L4), (L4,L6); RegN=3, DiffN=2; Figure 5.e's solution has 0
        // cost: L1=0 L2=1 L3=2 L4=0 L5=2 L6=1.
        let mut g = AdjacencyGraph::new(6);
        g.add_edge(0, 1, 2.0); // L1 -> L2 twice
        g.add_edge(1, 2, 1.0); // L2 -> L3
        g.add_edge(2, 3, 1.0); // L3 -> L4
        g.add_edge(3, 0, 1.0); // L4 -> L1
        g.add_edge(1, 4, 1.0); // L2 -> L5
        g.add_edge(4, 3, 1.0); // L5 -> L4
        g.add_edge(3, 5, 1.0); // L4 -> L6
        let params = DiffParams::new(3, 2);
        let solution = [0u8, 1, 2, 0, 2, 1];
        let cost = g.assignment_cost(|n| Some(solution[n as usize]), params);
        assert_eq!(cost, 0.0, "paper's Figure 5.e solution is cost-free");
    }

    #[test]
    fn violating_assignment_counts_weight() {
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(0, 1, 3.0);
        let params = DiffParams::new(4, 2);
        // 0 -> 1 with regs 0 -> 2: difference 2 >= DiffN.
        let cost = g.assignment_cost(|n| Some(if n == 0 { 0 } else { 2 }), params);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn unassigned_nodes_cost_nothing() {
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(0, 1, 3.0);
        let params = DiffParams::new(4, 2);
        let cost = g.assignment_cost(|n| if n == 0 { Some(0) } else { None }, params);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn node_cost_scopes_to_incident_edges() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0); // violating below
        g.add_edge(1, 2, 1.0); // violating below
        let params = DiffParams::new(8, 2);
        let assign = |n: u32| Some(match n {
            0 => 0u8,
            1 => 4,
            _ => 1,
        });
        // Edge 0->1: diff 4 (violates); edge 1->2: diff 5 (violates).
        assert_eq!(g.node_cost(0, assign, params), 1.0);
        assert_eq!(g.node_cost(1, assign, params), 2.0);
        assert_eq!(g.assignment_cost(assign, params), 2.0);
    }

    #[test]
    fn merge_redirects_and_drops_self_loops() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 1, 4.0);
        g.merge_nodes(2, 1); // 1 absorbed into 2
        assert_eq!(g.weight(0, 2), 1.0);
        assert_eq!(g.weight(2, 2), 0.0, "self-loop dropped");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn degree_counts_both_directions() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 0, 1.0);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.incident_edges(0).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_bounds() {
        AdjacencyGraph::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    fn index_node_cost_matches_graph_node_cost() {
        let mut g = AdjacencyGraph::new(5);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(3, 1, 4.0);
        g.add_edge(2, 4, 1.5);
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let assign = |n: u32| Some((n as u8 * 3) % 8);
        for node in 0..5 {
            assert_eq!(
                g.node_cost(node, assign, params),
                idx.node_cost(node, assign, params),
                "node {node}"
            );
        }
        assert_eq!(idx.num_nodes(), 5);
    }

    #[test]
    fn incident_weight_sums_both_directions() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(2, 0, 3.0);
        let idx = g.index();
        assert_eq!(idx.incident_weight(0), 5.0);
        assert_eq!(idx.incident_weight(1), 2.0);
        assert_eq!(idx.incident_weight(2), 3.0);
    }

    #[test]
    fn swap_delta_matches_full_recost() {
        // Dense-ish graph including x<->y edges in both directions, so the
        // double-count path is exercised.
        let mut g = AdjacencyGraph::new(6);
        let edges = [
            (0u32, 1u32, 2.0),
            (1, 0, 1.0),
            (1, 2, 1.5),
            (2, 3, 4.0),
            (3, 1, 0.5),
            (4, 5, 2.5),
            (0, 5, 3.0),
            (2, 0, 1.0),
        ];
        for (a, b, w) in edges {
            g.add_edge(a, b, w);
        }
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let rv: Vec<u8> = vec![5, 0, 7, 2, 4, 1];
        for x in 0..6u32 {
            for y in 0..6u32 {
                let mut swapped = rv.clone();
                swapped.swap(x as usize, y as usize);
                let full_before = g.assignment_cost(|n| Some(rv[n as usize]), params);
                let full_after = g.assignment_cost(|n| Some(swapped[n as usize]), params);
                let delta = idx.swap_delta(&rv, x, y, params);
                assert!(
                    (delta - (full_after - full_before)).abs() < 1e-12,
                    "swap ({x},{y}): delta {delta} vs full {}",
                    full_after - full_before
                );
            }
        }
    }

    #[test]
    fn swap_delta_self_swap_is_zero() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        let idx = g.index();
        let params = DiffParams::new(4, 1);
        let rv = [0u8, 3, 1];
        for n in 0..3 {
            assert_eq!(idx.swap_delta(&rv, n, n, params), 0.0);
        }
    }

    #[test]
    fn swap_delta_counts_mutual_edge_once() {
        // Only edges between x and y: the naive two-pass sum would double
        // the delta; the skip in the y pass must prevent that.
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(0, 1, 3.0);
        g.add_edge(1, 0, 2.0);
        let idx = g.index();
        let params = DiffParams::new(8, 2);
        // rv = [0, 6]: both edges violate (diffs 6 and 2 mod-wrap out of
        // range). Swapping changes nothing for a 2-node graph (the pair of
        // numbers is the same set), so delta must be the exact full-recost
        // difference, not twice it.
        let rv = [0u8, 6];
        let before = g.assignment_cost(|n| Some(rv[n as usize]), params);
        let after = g.assignment_cost(|n| Some(rv[1 - n as usize]), params);
        assert_eq!(idx.swap_delta(&rv, 0, 1, params), after - before);
    }

    #[test]
    fn incident_edges_into_reuses_buffer() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 0, 3.0);
        g.add_edge(2, 3, 5.0);
        let mut buf = Vec::new();
        g.incident_edges_into(0, &mut buf);
        assert_eq!(buf, g.incident_edges(0));
        g.incident_edges_into(3, &mut buf);
        assert_eq!(buf, vec![(2, 3, 5.0)], "buffer cleared between queries");
    }

    fn dense_test_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(6);
        let edges = [
            (0u32, 1u32, 2.0),
            (1, 0, 1.0),
            (1, 2, 1.5),
            (2, 3, 4.0),
            (3, 1, 0.5),
            (4, 5, 2.5),
            (0, 5, 3.0),
            (2, 0, 1.0),
            (3, 5, 1.25),
        ];
        for (a, b, w) in edges {
            g.add_edge(a, b, w);
        }
        g
    }

    #[test]
    fn cycle_delta_matches_full_recost() {
        let g = dense_test_graph();
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let rv: Vec<u8> = vec![5, 0, 7, 2, 4, 1];
        let cycles: &[&[u32]] = &[
            &[0, 1, 2],
            &[2, 1, 0],
            &[1, 3, 5],
            &[0, 2, 4, 5],
            &[5, 4, 3, 2, 1],
            &[0, 1, 2, 3, 4, 5],
        ];
        for cycle in cycles {
            let mut rotated = rv.clone();
            let k = cycle.len();
            for (i, &n) in cycle.iter().enumerate() {
                rotated[n as usize] = rv[cycle[(i + 1) % k] as usize];
            }
            let before = g.assignment_cost(|n| Some(rv[n as usize]), params);
            let after = g.assignment_cost(|n| Some(rotated[n as usize]), params);
            let delta = idx.cycle_delta(&rv, cycle, params);
            assert!(
                (delta - (after - before)).abs() < 1e-12,
                "cycle {cycle:?}: delta {delta} vs full {}",
                after - before
            );
        }
    }

    #[test]
    fn cycle_delta_two_cycle_equals_swap_delta() {
        let g = dense_test_graph();
        let idx = g.index();
        let params = DiffParams::new(8, 2);
        let rv: Vec<u8> = vec![3, 6, 0, 1, 7, 4];
        for x in 0..6u32 {
            for y in 0..6u32 {
                if x == y {
                    continue;
                }
                let swap = idx.swap_delta(&rv, x, y, params);
                let cyc = idx.cycle_delta(&rv, &[x, y], params);
                assert!((swap - cyc).abs() < 1e-12, "({x},{y}): {swap} vs {cyc}");
            }
        }
    }

    #[test]
    fn cycle_delta_trivial_cycles_are_zero() {
        let g = dense_test_graph();
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let rv: Vec<u8> = vec![5, 0, 7, 2, 4, 1];
        assert_eq!(idx.cycle_delta(&rv, &[], params), 0.0);
        assert_eq!(idx.cycle_delta(&rv, &[3], params), 0.0);
    }

    #[test]
    fn sum_of_node_costs_double_counts_assignment_cost() {
        // Every violating edge is incident to exactly two nodes, so the
        // node-cost sum equals twice the assignment cost.
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        let params = DiffParams::new(8, 2);
        let assign = |n: u32| Some([0u8, 5, 1, 7][n as usize]);
        let total = g.assignment_cost(assign, params);
        let sum: f64 = (0..4).map(|n| g.node_cost(n, assign, params)).sum();
        assert_eq!(sum, 2.0 * total);
    }
}
