//! The target machine: a set of PEs plus a hop-distance matrix.

use crate::pe::Pe;
use std::collections::VecDeque;
use std::fmt;

/// A target parallel machine.
///
/// The paper models communication as *store-and-forward over
/// contention-free links* (Definition 3.5): sending the data of an edge
/// with volume `m` from `p_i` to `p_j` costs
/// `M(p_i, p_j) = hops(p_i, p_j) * m` control steps, zero when
/// `p_i == p_j`.  A `Machine` therefore only needs the undirected link
/// set and the all-pairs hop distances derived from it.
///
/// ```
/// use ccs_topology::{Machine, Pe};
/// let m = Machine::mesh(2, 2); // the paper's Figure 1(a)
/// assert_eq!(m.num_pes(), 4);
/// assert_eq!(m.distance(Pe(0), Pe(3)), 2);
/// assert_eq!(m.comm_cost(Pe(0), Pe(3), 3), 6);
/// assert_eq!(m.comm_cost(Pe(2), Pe(2), 9), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Machine {
    name: String,
    n: usize,
    /// Row-major `n*n` hop distances. `u32::MAX` = unreachable.
    dist: Vec<u32>,
    /// Undirected links, each stored once with `a < b`.
    links: Vec<(usize, usize)>,
    /// Cached at construction: `true` when every PE can reach every
    /// other PE.  Makes [`Machine::is_connected`] O(1) so schedulers
    /// can reject disconnected machines once at entry instead of
    /// re-checking (or asserting) inside the candidate-scan hot path.
    connected: bool,
}

impl Machine {
    /// Builds a machine from an explicit undirected link list.
    ///
    /// Links are deduplicated; self-links are ignored.  Distances come
    /// from per-source BFS.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a link endpoint is out of range.
    pub fn from_links(name: impl Into<String>, n: usize, links: &[(usize, usize)]) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut norm: Vec<(usize, usize)> = Vec::new();
        // Set-based dedup: the dense builders (`complete`, `ncube`)
        // emit O(n^2) links, so a linear `contains` scan here made
        // construction quadratic in the link count.  `norm` still
        // records first-seen order for a stable public link list.
        let mut seen: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for &(a, b) in links {
            assert!(a < n && b < n, "link ({a},{b}) out of range for {n} PEs");
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if seen.insert(key) {
                norm.push(key);
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        let mut dist = vec![u32::MAX; n * n];
        for src in 0..n {
            let mut queue = VecDeque::new();
            dist[src * n + src] = 0;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                let du = dist[src * n + u];
                for &v in &adj[u] {
                    if dist[src * n + v] == u32::MAX {
                        dist[src * n + v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        let connected = dist.iter().all(|&d| d != u32::MAX);
        Machine {
            name: name.into(),
            n,
            dist,
            links: norm,
            connected,
        }
    }

    /// An idealized PRAM-style machine: `n` PEs, fully linked, and
    /// *zero* hop distance between every pair — all communication is
    /// free.  This is not a physical topology; it exists so that the
    /// communication-oblivious baselines (classic list scheduling and
    /// Chao–LaPaugh–Sha rotation scheduling) can be expressed as
    /// "schedule against the ideal machine, then legalize on the real
    /// one".
    pub fn ideal(n: usize) -> Self {
        assert!(n > 0, "a machine needs at least one PE");
        let mut links = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                links.push((a, b));
            }
        }
        Machine {
            name: format!("Ideal {n}"),
            n,
            dist: vec![0; n * n],
            links,
            connected: true,
        }
    }

    /// Machine name (e.g. `"2-D Mesh 4x2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processing elements.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.n
    }

    /// Iterator over all PEs in index order.
    pub fn pes(&self) -> impl Iterator<Item = Pe> + '_ {
        (0..self.n).map(Pe::from_index)
    }

    /// Hop distance between two PEs (0 for `a == b`).
    ///
    /// Connectivity is a *construction-time* property: it is computed
    /// once by [`Machine::from_links`] and exposed through the O(1)
    /// [`Machine::is_connected`], which schedulers check at entry.
    /// The hot path here is therefore a branch-free table read in
    /// release builds; debug builds still panic on a cross-partition
    /// query so misuse surfaces in tests.
    #[inline]
    pub fn distance(&self, a: Pe, b: Pe) -> u32 {
        let d = self.dist[a.index() * self.n + b.index()];
        debug_assert!(
            d != u32::MAX,
            "machine {:?} is disconnected between {a} and {b}",
            self.name
        );
        d
    }

    /// The full hop-distance row of `from`: `dist_row(p)[q.index()]`
    /// is `distance(p, q)`.  Distances are symmetric (links are
    /// undirected), so one row serves both send and receive costs.
    ///
    /// This is the bulk entry point of the candidate scan: the
    /// remapper hoists one row per resolved edge and scales it by the
    /// edge volume once, turning the per-PE `comm`/`lb`/`ub` sweeps
    /// into indexed adds with no multiplies.
    ///
    /// ```
    /// use ccs_topology::{Machine, Pe};
    /// let m = Machine::mesh(2, 2);
    /// assert_eq!(m.dist_row(Pe(0)), &[0, 1, 1, 2]);
    /// ```
    #[inline]
    pub fn dist_row(&self, from: Pe) -> &[u32] {
        let i = from.index() * self.n;
        &self.dist[i..i + self.n]
    }

    /// Hop distance between two PEs without the connectivity panic of
    /// [`Machine::distance`]: `None` when the PEs lie in different
    /// partitions of a disconnected machine or an index is out of
    /// range.  This is the entry point diagnostics code uses — it must
    /// report unreachable pairs, not die on them.
    #[inline]
    pub fn try_distance(&self, a: Pe, b: Pe) -> Option<u32> {
        if a.index() >= self.n || b.index() >= self.n {
            return None;
        }
        match self.dist[a.index() * self.n + b.index()] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// Communication cost `hops * volume` without the connectivity
    /// panic: `None` when [`Machine::try_distance`] is `None`.
    #[inline]
    pub fn try_comm_cost(&self, from: Pe, to: Pe, volume: u32) -> Option<u32> {
        self.try_distance(from, to).map(|d| d * volume)
    }

    /// `true` if every PE can reach every other PE.  O(1): cached at
    /// construction.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// All unordered PE pairs with no connecting path (empty for a
    /// connected machine).  Reported pairs satisfy `a < b`.
    pub fn unreachable_pairs(&self) -> Vec<(Pe, Pe)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                if self.dist[a * self.n + b] == u32::MAX {
                    out.push((Pe::from_index(a), Pe::from_index(b)));
                }
            }
        }
        out
    }

    /// The paper's communication function
    /// `M(p_i, p_j) = hops * volume` (Definition 3.5).
    #[inline]
    pub fn comm_cost(&self, from: Pe, to: Pe, volume: u32) -> u32 {
        self.distance(from, to) * volume
    }

    /// Undirected links, each reported once with the smaller index first.
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// Degree (number of attached links) of a PE.
    pub fn degree(&self, p: Pe) -> usize {
        let i = p.index();
        self.links
            .iter()
            .filter(|&&(a, b)| a == i || b == i)
            .count()
    }

    /// Maximum hop distance over all PE pairs.
    pub fn diameter(&self) -> u32 {
        let mut best = 0;
        for a in 0..self.n {
            for b in 0..self.n {
                let d = self.dist[a * self.n + b];
                if d != u32::MAX {
                    best = best.max(d);
                }
            }
        }
        best
    }

    /// Mean hop distance over ordered distinct PE pairs.
    pub fn mean_distance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut count = 0u64;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    total += u64::from(self.dist[a * self.n + b]);
                    count += 1;
                }
            }
        }
        total as f64 / count as f64
    }

    /// Graphviz rendering of the link graph.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph machine {{");
        for p in 0..self.n {
            let _ = writeln!(out, "  pe{};", p + 1);
        }
        for &(a, b) in &self.links {
            let _ = writeln!(out, "  pe{} -- pe{};", a + 1, b + 1);
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} PEs, {} links, diameter {})",
            self.name,
            self.n,
            self.links.len(),
            self.diameter()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_links_dedups_and_symmetrizes() {
        let m = Machine::from_links("t", 3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        assert_eq!(m.links().len(), 2);
        assert_eq!(m.distance(Pe(0), Pe(2)), 2);
        assert_eq!(m.distance(Pe(2), Pe(0)), 2);
        assert_eq!(m.distance(Pe(1), Pe(1)), 0);
    }

    #[test]
    fn comm_cost_multiplies_volume() {
        let m = Machine::from_links("t", 3, &[(0, 1), (1, 2)]);
        assert_eq!(m.comm_cost(Pe(0), Pe(2), 5), 10);
        assert_eq!(m.comm_cost(Pe(0), Pe(0), 5), 0);
    }

    #[test]
    fn degree_and_diameter() {
        let m = Machine::from_links("path4", 4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(m.degree(Pe(0)), 1);
        assert_eq!(m.degree(Pe(1)), 2);
        assert_eq!(m.diameter(), 3);
        assert!(m.is_connected());
    }

    #[test]
    fn disconnected_machine_detected() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(
            m.unreachable_pairs(),
            vec![
                (Pe(0), Pe(2)),
                (Pe(0), Pe(3)),
                (Pe(1), Pe(2)),
                (Pe(1), Pe(3))
            ]
        );
    }

    #[test]
    fn try_distance_is_total() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(m.try_distance(Pe(0), Pe(1)), Some(1));
        assert_eq!(m.try_distance(Pe(0), Pe(3)), None);
        assert_eq!(m.try_distance(Pe(0), Pe(9)), None); // out of range
        assert_eq!(m.try_comm_cost(Pe(0), Pe(1), 5), Some(5));
        assert_eq!(m.try_comm_cost(Pe(1), Pe(2), 5), None);
        let c = Machine::complete(3);
        assert!(c.unreachable_pairs().is_empty());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "distance() is a branch-free table read in release builds"
    )]
    fn distance_across_partition_panics_in_debug() {
        let m = Machine::from_links("two islands", 4, &[(0, 1), (2, 3)]);
        let _ = m.distance(Pe(0), Pe(3));
    }

    #[test]
    fn dist_row_matches_distance() {
        let m = Machine::from_links("path4", 4, &[(0, 1), (1, 2), (2, 3)]);
        for a in m.pes() {
            let row = m.dist_row(a);
            assert_eq!(row.len(), m.num_pes());
            for b in m.pes() {
                assert_eq!(row[b.index()], m.distance(a, b));
                // Undirected links: rows are symmetric.
                assert_eq!(row[b.index()], m.dist_row(b)[a.index()]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let _ = Machine::from_links("bad", 2, &[(0, 5)]);
    }

    #[test]
    fn mean_distance_of_triangle() {
        let m = Machine::from_links("k3", 3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((m.mean_distance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_and_dot() {
        let m = Machine::from_links("demo", 2, &[(0, 1)]);
        assert!(m.to_string().contains("demo (2 PEs, 1 links, diameter 1)"));
        let dot = m.to_dot();
        assert!(dot.contains("pe1 -- pe2"));
    }

    #[test]
    fn single_pe_machine() {
        let m = Machine::from_links("uni", 1, &[]);
        assert_eq!(m.diameter(), 0);
        assert_eq!(m.mean_distance(), 0.0);
        assert!(m.is_connected());
    }
}
