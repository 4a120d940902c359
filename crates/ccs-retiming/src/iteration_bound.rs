//! The iteration bound (maximum cycle ratio) of a CSDFG.
//!
//! For a cyclic data-flow graph the *iteration bound*
//! `B = max over cycles C of  T(C) / D(C)`
//! (total computation time over total delay count) lower-bounds the
//! achievable steady-state initiation interval of any schedule, no
//! matter how many processors are available and ignoring communication.
//! The experiment harness uses it to report how close cyclo-compaction
//! gets to the algorithmic optimum.
//!
//! Implementation: Howard's policy iteration per strongly connected
//! component ([`crate::howard`]), in exact integer arithmetic, gives
//! the ratio.  [`critical_cycle`] then runs one exact Bellman–Ford at
//! that ratio: under edge weights `num·d(e) - den·t(src(e))` the graph
//! has no negative cycle, and the edges its shortest-path potentials
//! make tight carry only zero-weight cycles, each of which attains the
//! bound.  The potentials are the shortest distances from a virtual
//! source, unique for the ratio, so the witness depends on the ratio
//! alone.

use ccs_model::Csdfg;
use std::fmt;

/// An exact non-negative rational, kept in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub num: u64,
    /// Denominator (non-zero).
    pub den: u64,
}

impl Ratio {
    /// Builds `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "zero denominator");
        let g = gcd(num.max(1), den);
        let g = if num == 0 { den } else { g };
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Floating approximation.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Smallest integer `>= self` — the minimum integral initiation
    /// interval implied by this bound.
    pub fn ceil(self) -> u64 {
        self.num.div_ceil(self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.num as u128 * other.den as u128).cmp(&(other.num as u128 * self.den as u128))
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Computes the iteration bound of `g`.
///
/// Returns `None` for acyclic graphs (no cycle, no bound).
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (illegal CSDFG — the bound
/// would be infinite).
pub fn iteration_bound(g: &Csdfg) -> Option<Ratio> {
    assert!(
        g.check_legal().is_ok(),
        "iteration bound undefined: graph has a zero-delay cycle"
    );
    crate::howard::max_cycle_ratio(g)
}

/// The iteration bound together with a *witness*: one critical cycle
/// `C` (as a node sequence, `[a, b, c]` meaning `a -> b -> c -> a`)
/// attaining `T(C)/D(C) = B`.
///
/// Returns `None` for acyclic graphs.  Deterministic: the tight-edge
/// sub-graph is scanned in node/edge id order, so the same graph
/// always yields the same witness.
///
/// # Panics
///
/// Panics if `g` has a zero-delay cycle (illegal CSDFG).
pub fn critical_cycle(g: &Csdfg) -> Option<(Ratio, Vec<ccs_graph::NodeId>)> {
    let r = iteration_bound(g)?;
    let weight = |e| {
        let (u, _) = g.endpoints(e);
        i128::from(r.num) * i128::from(g.delay(e)) - i128::from(r.den) * i128::from(g.time(u))
    };
    // Potentials for the exact bound exist (no cycle exceeds it);
    // tight edges (pot[v] == pot[u] + w) form a sub-graph whose every
    // cycle is zero-weight, i.e. attains exactly ratio r.
    let pot = shortest_potentials(g, weight).expect("no cycle exceeds the iteration bound");
    let graph = g.graph();
    let cycle = ccs_graph::algo::cycles::find_cycle_filtered(graph, |e| {
        let (u, v) = graph.edge_endpoints(e);
        pot[v.index()] == pot[u.index()] + weight(e)
    })
    .expect("a cycle attains the iteration bound");
    Some((r, cycle))
}

/// Shortest distances from a virtual source joined to every node by a
/// zero-weight edge, under the exact weights `weight(e)`: the largest
/// potentials with `pot[v] <= pot[u] + weight(u -> v)` and `pot <= 0`.
/// `None` on a negative cycle.
///
/// A FIFO worklist Bellman–Ford.  Pass `k` of the queue settles every
/// node whose shortest path has `k` edges, so without a negative cycle
/// no node is queued more than `n` times.
fn shortest_potentials(g: &Csdfg, weight: impl Fn(ccs_graph::EdgeId) -> i128) -> Option<Vec<i128>> {
    let graph = g.graph();
    let n = graph.node_count();
    let mut pot = vec![0i128; graph.node_bound()];
    let mut queued = vec![false; graph.node_bound()];
    let mut pushes = vec![0usize; graph.node_bound()];
    let mut queue: std::collections::VecDeque<ccs_graph::NodeId> = g.tasks().collect();
    for v in g.tasks() {
        queued[v.index()] = true;
        pushes[v.index()] = 1;
    }
    while let Some(u) = queue.pop_front() {
        queued[u.index()] = false;
        for e in g.out_deps(u) {
            let v = graph.edge_target(e);
            let cand = pot[u.index()] + weight(e);
            if cand < pot[v.index()] {
                pot[v.index()] = cand;
                if !queued[v.index()] {
                    pushes[v.index()] += 1;
                    if pushes[v.index()] > n {
                        return None;
                    }
                    queued[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    Some(pot)
}

/// The λ-bisection the bound was computed with before Howard's
/// iteration replaced it, kept as the test oracle for
/// [`iteration_bound`] and [`critical_cycle`].
///
/// A candidate ratio `λ` is too small iff the graph with edge weights
/// `λ·d(e) - t(src(e))` has a negative cycle.  The oracle
/// binary-searches `λ`, recovers the exact rational via a bounded
/// continued-fraction expansion (the bound is `D(C) <= total delay`,
/// so the denominator is small) and verifies it with negative-cycle
/// tests.  Floating point: exact only while the weights stay below
/// 2^53, which the oracle's callers keep to.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Ratio;
    use ccs_graph::algo::paths::feasible_potentials;
    use ccs_model::Csdfg;

    /// `true` iff some cycle has `T(C)/D(C) > num/den`, via
    /// negative-cycle detection on weights `num·d(e) - den·t(src(e))`.
    fn exceeds(g: &Csdfg, num: u64, den: u64) -> bool {
        feasible_potentials(g.graph(), |e| {
            let (u, _) = g.endpoints(e);
            num as f64 * f64::from(g.delay(e)) - den as f64 * f64::from(g.time(u))
        })
        .is_err()
    }

    /// The iteration bound by λ bisection.
    pub(crate) fn iteration_bound(g: &Csdfg) -> Option<Ratio> {
        use ccs_graph::algo::cycles::has_cycle;
        if !has_cycle(g.graph()) {
            return None;
        }
        assert!(
            g.check_legal().is_ok(),
            "iteration bound undefined: graph has a zero-delay cycle"
        );

        let d_total: u64 = g.total_delay();
        let t_total: u64 = g.total_time();
        // Binary search on λ: exceeds(λ) is monotone decreasing in λ.
        let (mut lo, mut hi) = (0.0f64, t_total as f64 + 1.0);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            // mid as rational approx for the exact test: scale by 2^20.
            let den = 1u64 << 20;
            let num = (mid * den as f64) as u64;
            if exceeds(g, num, den) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // The exact bound is a rational with denominator <= d_total.
        let candidate = best_rational(0.5 * (lo + hi), d_total.max(1));
        // Verify and adjust: the bound B satisfies !exceeds(B) and
        // exceeds(B - 1/(den*d_total)) — nudge if the approximation
        // landed one step off.
        let mut best: Option<Ratio> = None;
        for (dn, dd) in [(0i64, 0i64), (-1, 0), (1, 0), (0, 1), (0, -1)] {
            let num = candidate.num as i64 + dn;
            let den = candidate.den as i64 + dd;
            if num < 0 || den <= 0 {
                continue;
            }
            let r = Ratio::new(num as u64, den as u64);
            if !exceeds(g, r.num, r.den) && is_tight(g, r) {
                best = Some(match best {
                    Some(b) if b <= r => b,
                    _ => r,
                });
            }
        }
        best.or_else(|| {
            // Fallback: exhaustive scan over all denominators (small graphs).
            for den in 1..=d_total {
                for num in 0..=t_total * den {
                    let r = Ratio::new(num, den);
                    if !exceeds(g, r.num, r.den) && is_tight(g, r) {
                        return Some(r);
                    }
                }
            }
            None
        })
    }

    /// The bound and its witness from floating-point potentials.
    pub(crate) fn critical_cycle(g: &Csdfg) -> Option<(Ratio, Vec<ccs_graph::NodeId>)> {
        let r = iteration_bound(g)?;
        let pot = feasible_potentials(g.graph(), |e| {
            let (u, _) = g.endpoints(e);
            r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u))
        })
        .ok()?;
        let graph = g.graph();
        let cycle = ccs_graph::algo::cycles::find_cycle_filtered(graph, |e| {
            let (u, v) = graph.edge_endpoints(e);
            let w = r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u));
            (pot[v.index()] - pot[u.index()] - w).abs() < 1e-6
        })?;
        Some((r, cycle))
    }

    /// `true` iff some cycle attains ratio exactly `r` (there is a
    /// zero-weight cycle under weights `r.num·d - r.den·t`).
    fn is_tight(g: &Csdfg, r: Ratio) -> bool {
        let Ok(pot) = feasible_potentials(g.graph(), |e| {
            let (u, _) = g.endpoints(e);
            r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u))
        }) else {
            return false;
        };
        // Tight edges: pot[v] == pot[u] + w(e). A cycle of tight edges
        // is a critical cycle.
        let graph = g.graph();
        let tight = |e| {
            let (u, v) = graph.edge_endpoints(e);
            let w = r.num as f64 * f64::from(g.delay(e)) - r.den as f64 * f64::from(g.time(u));
            (pot[v.index()] - pot[u.index()] - w).abs() < 1e-6
        };
        !ccs_graph::algo::topo::is_acyclic_filtered(graph, tight)
    }

    /// Best rational approximation of `x` with denominator `<= max_den`
    /// (continued fractions).
    fn best_rational(x: f64, max_den: u64) -> Ratio {
        let mut a = x.floor();
        let (mut p0, mut q0, mut p1, mut q1) = (1u64, 0u64, a as u64, 1u64);
        let mut frac = x - a;
        for _ in 0..64 {
            if frac.abs() < 1e-12 {
                break;
            }
            let inv = 1.0 / frac;
            a = inv.floor();
            frac = inv - a;
            let p2 = (a as u64).saturating_mul(p1).saturating_add(p0);
            let q2 = (a as u64).saturating_mul(q1).saturating_add(q0);
            if q2 > max_den {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
        }
        Ratio::new(p1, q1.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        let r = Ratio::new(6, 4);
        assert_eq!((r.num, r.den), (3, 2));
        assert_eq!(r.to_string(), "3/2");
        assert_eq!(r.ceil(), 2);
        assert_eq!(Ratio::new(4, 2).to_string(), "2");
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::new(0, 3));
    }

    #[test]
    fn simple_loop_bound() {
        // A(1) -> B(2) -> A with 1 delay: bound = 3/1.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn two_delays_halve_the_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 2)));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // Cycle 1: A->B->A, T=3, D=3 => 1. Cycle 2: C->C self loop T=5 D=2 => 5/2.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        g.add_dep(c, c, 2, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        assert_eq!(iteration_bound(&g), Some(Ratio::new(5, 2)));
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        assert_eq!(iteration_bound(&g), None);
    }

    #[test]
    fn paper_fig1_bound() {
        // Cycles: A->B->D->A (T=4, D=3), E->F->E (T=3, D=1),
        // A->E->F? F->E only; A->C->E->F->E no (E->F->E is the only F cycle
        // through delay) — also A->E..? no edge back to A except D->A.
        // Other cycle: A->B->E? E has no edge to D or A. So max(4/3, 3/1) = 3.
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
        assert_eq!(iteration_bound(&g), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn bound_is_invariant_under_rotation() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 2).unwrap();
        let b = g.add_task("B", 3).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 2, 1).unwrap();
        let before = iteration_bound(&g).unwrap();
        let rotated = crate::retiming::rotate(&g, &[a]).unwrap();
        let after = iteration_bound(&rotated).unwrap();
        assert_eq!(before, after);
        assert_eq!(before, Ratio::new(6, 2));
    }

    #[test]
    fn slowdown_divides_the_bound() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 3).unwrap();
        g.add_dep(a, a, 1, 1).unwrap();
        let b1 = iteration_bound(&g).unwrap();
        assert_eq!(b1, Ratio::new(3, 1));
        let g3 = ccs_model::transform::slowdown(&g, 3);
        let b3 = iteration_bound(&g3).unwrap();
        assert_eq!(b3, Ratio::new(1, 1));
    }

    #[test]
    fn critical_cycle_witnesses_the_bound() {
        // Cycle 1: A->B->A, T=3, D=3 => 1. Cycle 2: C self loop, 5/2.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 2).unwrap();
        let c = g.add_task("C", 5).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 3, 1).unwrap();
        g.add_dep(c, c, 2, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        let (r, cycle) = critical_cycle(&g).unwrap();
        assert_eq!(r, Ratio::new(5, 2));
        assert_eq!(cycle, vec![c]);
        // The witness attains the bound exactly.
        let t: u64 = cycle.iter().map(|&v| u64::from(g.time(v))).sum();
        assert_eq!(Ratio::new(t, 2), r);
    }

    #[test]
    fn critical_cycle_none_for_acyclic() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        assert!(critical_cycle(&g).is_none());
    }

    #[test]
    #[should_panic(expected = "zero-delay cycle")]
    fn zero_delay_cycle_panics() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 0, 1).unwrap();
        let _ = iteration_bound(&g);
    }
}
