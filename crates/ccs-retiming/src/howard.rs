//! Howard's policy-iteration algorithm for the maximum cycle ratio —
//! the kernel behind
//! [`iteration_bound`](crate::iteration_bound::iteration_bound).
//!
//! The maximum cycle ratio of a CSDFG is
//! `max over cycles C of T(C) / D(C)` with `T` the total computation
//! time and `D` the total delay count.  Howard's algorithm works one
//! strongly connected component at a time.  It maintains a *policy*
//! (one internal out-edge per node) and evaluates every node's
//! `(ratio, value)` pair with respect to the unique cycle its policy
//! path reaches.  Then it improves the policy in two phases until
//! fixpoint: any node with a successor of strictly larger ratio
//! switches to the best such successor; only when no ratio can
//! improve does a node switch for a strictly larger value at the same
//! ratio.
//!
//! All arithmetic is exact.  A ratio is a [`Ratio`]; a value is an
//! integer scaled by its ratio's denominator (nodes are only compared
//! by value when their ratios are equal, hence share a denominator).
//! Each cycle's values are anchored at its smallest node, so an
//! unchanged cycle keeps its values between rounds.  With that anchor
//! every round raises each node's `(ratio, value)` lexicographically
//! and strictly raises some node's, so no policy repeats and the
//! iteration terminates.  At the fixpoint the ratio is constant on the
//! component and every cycle's ratio is at most it, so it is the
//! component's maximum cycle ratio.

use crate::iteration_bound::Ratio;
use ccs_model::Csdfg;

/// Computes the maximum cycle ratio of `g` by policy iteration.
///
/// Returns `None` for acyclic graphs.
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (the ratio would be infinite).
pub fn max_cycle_ratio_howard(g: &Csdfg) -> Option<Ratio> {
    assert!(g.check_legal().is_ok(), "illegal CSDFG: zero-delay cycle");
    max_cycle_ratio(g)
}

/// [`max_cycle_ratio_howard`] on a graph already known to be legal.
pub(crate) fn max_cycle_ratio(g: &Csdfg) -> Option<Ratio> {
    use ccs_graph::algo::scc::tarjan_scc;
    let mut comp = Component::new(g.graph().node_bound());
    let mut best: Option<Ratio> = None;
    for scc in tarjan_scc(g.graph()) {
        if let Some(r) = comp.max_ratio(g, &scc) {
            best = Some(best.map_or(r, |b| b.max(r)));
        }
    }
    best
}

/// An internal edge of the component, in local node indices.
#[derive(Clone, Copy)]
struct Arc {
    to: usize,
    delay: u64,
}

/// One strongly connected component in local indices, plus the policy
/// and evaluation buffers.  Reused across the components of a graph.
struct Component {
    /// Local index of each graph node in the current component.
    local: Vec<Option<usize>>,
    time: Vec<u64>,
    /// CSR of internal out-arcs: node `v`'s arcs are
    /// `arcs[start[v]..start[v + 1]]`, in the graph's out-edge order.
    start: Vec<usize>,
    arcs: Vec<Arc>,
    /// The policy: one arc index per node.
    policy: Vec<usize>,
    /// Ratio of the cycle each node's policy path reaches.
    ratio: Vec<Ratio>,
    /// Each node's value, scaled by `ratio[v].den`.
    value: Vec<i128>,
    state: Vec<Visit>,
    stack: Vec<usize>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Visit {
    New,
    OnPath,
    Done,
}

impl Component {
    fn new(node_bound: usize) -> Self {
        Component {
            local: vec![None; node_bound],
            time: Vec::new(),
            start: Vec::new(),
            arcs: Vec::new(),
            policy: Vec::new(),
            ratio: Vec::new(),
            value: Vec::new(),
            state: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The maximum cycle ratio of `scc`, `None` if it has no cycle
    /// (a single node without a self-loop).
    fn max_ratio(&mut self, g: &Csdfg, scc: &[ccs_model::NodeId]) -> Option<Ratio> {
        self.load(g, scc);
        if self.arcs.is_empty() {
            return None;
        }
        let n = scc.len();
        // Initial policy: the internal out-arc with the largest delay
        // (heuristically close to the final policy for low ratios).
        self.policy.clear();
        for v in 0..n {
            let arcs = self.start[v]..self.start[v + 1];
            let best = arcs
                .max_by_key(|&a| self.arcs[a].delay)
                .expect("every node of a cyclic SCC has an internal out-edge");
            self.policy.push(best);
        }
        loop {
            self.evaluate();
            if !self.improve_ratios() && !self.improve_values() {
                return Some(self.ratio[0]);
            }
        }
    }

    /// Loads `scc` into local indices and resets the evaluation buffers.
    fn load(&mut self, g: &Csdfg, scc: &[ccs_model::NodeId]) {
        for (i, &v) in scc.iter().enumerate() {
            self.local[v.index()] = Some(i);
        }
        self.time.clear();
        self.start.clear();
        self.arcs.clear();
        for &v in scc {
            self.time.push(u64::from(g.time(v)));
            self.start.push(self.arcs.len());
            for e in g.out_deps(v) {
                if let Some(to) = self.local[g.endpoints(e).1.index()] {
                    let delay = u64::from(g.delay(e));
                    self.arcs.push(Arc { to, delay });
                }
            }
        }
        self.start.push(self.arcs.len());
        for &v in scc {
            self.local[v.index()] = None;
        }
        let n = scc.len();
        self.ratio.clear();
        self.ratio.resize(n, Ratio::new(0, 1));
        self.value.clear();
        self.value.resize(n, 0);
    }

    /// `den·t(v) - num·d(a)`: the scaled weight of arc `a` out of `v`
    /// at ratio `r`.
    fn weight(&self, v: usize, a: usize, r: Ratio) -> i128 {
        i128::from(r.den) * i128::from(self.time[v])
            - i128::from(r.num) * i128::from(self.arcs[a].delay)
    }

    /// Evaluates the policy: every node's ratio and scaled value.
    fn evaluate(&mut self) {
        let n = self.time.len();
        self.state.clear();
        self.state.resize(n, Visit::New);
        for s in 0..n {
            if self.state[s] == Visit::Done {
                continue;
            }
            // Walk the policy path until it meets a visited node.
            let mut cur = s;
            while self.state[cur] == Visit::New {
                self.state[cur] = Visit::OnPath;
                self.stack.push(cur);
                cur = self.arcs[self.policy[cur]].to;
            }
            if self.state[cur] == Visit::OnPath {
                let cut = self.stack.iter().rposition(|&v| v == cur).expect("on path");
                self.evaluate_cycle(cut);
            }
            // The rest of the path feeds an evaluated node: unwind it
            // successor first.
            while let Some(v) = self.stack.pop() {
                if self.state[v] == Visit::Done {
                    continue;
                }
                let a = self.policy[v];
                let w = self.arcs[a].to;
                let r = self.ratio[w];
                self.ratio[v] = r;
                self.value[v] = self.weight(v, a, r) + self.value[w];
                self.state[v] = Visit::Done;
            }
        }
    }

    /// Evaluates the cycle `stack[cut..]` (each node's policy arc leads
    /// to the next, the last back to the first).
    fn evaluate_cycle(&mut self, cut: usize) {
        let cycle = &self.stack[cut..];
        let (mut t, mut d) = (0u64, 0u64);
        for &v in cycle {
            t += self.time[v];
            d += self.arcs[self.policy[v]].delay;
        }
        debug_assert!(d > 0, "zero-delay cycle escaped the legality check");
        let r = Ratio::new(t, d);
        let len = cycle.len();
        let anchor = (0..len).min_by_key(|&i| cycle[i]).expect("non-empty cycle");
        self.ratio[cycle[anchor]] = r;
        self.value[cycle[anchor]] = 0;
        self.state[cycle[anchor]] = Visit::Done;
        // Unwind backwards from the anchor; the cycle's scaled weights
        // sum to zero, so the anchor's own equation holds too.
        for k in 1..len {
            let i = (anchor + len - k) % len;
            let (v, w) = (self.stack[cut + i], self.stack[cut + (i + 1) % len]);
            self.ratio[v] = r;
            self.value[v] = self.weight(v, self.policy[v], r) + self.value[w];
            self.state[v] = Visit::Done;
        }
    }

    /// Phase one: every node with a successor of strictly larger ratio
    /// switches to its best one.  Returns whether any node switched.
    fn improve_ratios(&mut self) -> bool {
        let mut changed = false;
        for v in 0..self.time.len() {
            let mut best = (self.ratio[v], self.policy[v]);
            for a in self.start[v]..self.start[v + 1] {
                let r = self.ratio[self.arcs[a].to];
                if r > best.0 {
                    best = (r, a);
                }
            }
            if best.1 != self.policy[v] {
                self.policy[v] = best.1;
                changed = true;
            }
        }
        changed
    }

    /// Phase two (no ratio can improve): every node switches to the arc
    /// of strictly largest value among successors at its own ratio.
    /// Returns whether any node switched.
    fn improve_values(&mut self) -> bool {
        let mut changed = false;
        for v in 0..self.time.len() {
            let r = self.ratio[v];
            let mut best = (self.value[v], self.policy[v]);
            for a in self.start[v]..self.start[v + 1] {
                let w = self.arcs[a].to;
                if self.ratio[w] != r {
                    continue;
                }
                let value = self.weight(v, a, r) + self.value[w];
                if value > best.0 {
                    best = (value, a);
                }
            }
            if best.1 != self.policy[v] {
                self.policy[v] = best.1;
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_loop() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        assert_eq!(max_cycle_ratio_howard(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn picks_the_critical_cycle() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap(); // ratio 1
        g.add_dep(c, c, 2, 1).unwrap(); // ratio 5/2
        g.add_dep(a, c, 0, 1).unwrap();
        assert_eq!(max_cycle_ratio_howard(&g), Some(Ratio::new(5, 2)));
    }

    #[test]
    fn acyclic_gives_none() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 2, 1).unwrap();
        assert_eq!(max_cycle_ratio_howard(&g), None);
    }

    #[test]
    fn agrees_with_lambda_search_on_overlapping_cycles() {
        let mut g = Csdfg::new();
        let n: Vec<_> = (0..5)
            .map(|i| g.add_task(format!("v{i}"), (i % 3 + 1) as u32).unwrap())
            .collect();
        g.add_dep(n[0], n[1], 0, 1).unwrap();
        g.add_dep(n[1], n[2], 0, 1).unwrap();
        g.add_dep(n[2], n[0], 2, 1).unwrap();
        g.add_dep(n[1], n[3], 0, 1).unwrap();
        g.add_dep(n[3], n[0], 1, 1).unwrap();
        g.add_dep(n[3], n[4], 0, 1).unwrap();
        g.add_dep(n[4], n[3], 3, 1).unwrap();
        // Cycles: 0-1-2 (T=6,D=2 -> 3), 0-1-3 (T=4,D=1 -> 4), 3-4 (T=3,D=3 -> 1).
        assert_eq!(max_cycle_ratio_howard(&g), Some(Ratio::new(4, 1)));
        assert_eq!(
            max_cycle_ratio_howard(&g),
            crate::iteration_bound::oracle::iteration_bound(&g)
        );
    }

    #[test]
    fn agrees_on_the_paper_example() {
        let g = {
            let mut g = Csdfg::new();
            let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
                .iter()
                .map(|n| {
                    let t = if *n == "B" || *n == "E" { 2 } else { 1 };
                    g.add_task(*n, t).unwrap()
                })
                .collect();
            let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
            g.add_dep(a, b, 0, 1).unwrap();
            g.add_dep(a, c, 0, 1).unwrap();
            g.add_dep(a, e, 0, 1).unwrap();
            g.add_dep(b, d, 0, 1).unwrap();
            g.add_dep(b, e, 0, 2).unwrap();
            g.add_dep(c, e, 0, 1).unwrap();
            g.add_dep(d, a, 3, 3).unwrap();
            g.add_dep(d, f, 0, 2).unwrap();
            g.add_dep(e, f, 0, 1).unwrap();
            g.add_dep(f, e, 1, 1).unwrap();
            g
        };
        assert_eq!(max_cycle_ratio_howard(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn ratios_stay_exact_at_u32_times() {
        // Two cycles whose ratios differ by far less than f64 can see at
        // this magnitude: (2^32-1)·3/3 vs ((2^32-1)·3 + 1)/3.
        let mut g = Csdfg::new();
        let big = u32::MAX;
        let ids: Vec<_> = (0..6)
            .map(|i| g.add_task(format!("v{i}"), big).unwrap())
            .collect();
        g.add_dep(ids[0], ids[1], 1, 1).unwrap();
        g.add_dep(ids[1], ids[2], 1, 1).unwrap();
        g.add_dep(ids[2], ids[0], 1, 1).unwrap();
        let small = g.add_task("s", 1).unwrap();
        g.add_dep(ids[3], ids[4], 1, 1).unwrap();
        g.add_dep(ids[4], small, 0, 1).unwrap();
        g.add_dep(small, ids[5], 0, 1).unwrap();
        g.add_dep(ids[5], ids[3], 2, 1).unwrap();
        let expected = Ratio::new(3 * u64::from(big) + 1, 3);
        assert_eq!(max_cycle_ratio_howard(&g), Some(expected));
    }

    #[test]
    #[should_panic(expected = "illegal CSDFG")]
    fn zero_delay_cycle_panics() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        let _ = max_cycle_ratio_howard(&g);
    }
}
