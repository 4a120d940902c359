//! # ccs-retiming
//!
//! The retiming substrate under the ICPP'95 cyclo-compaction scheduler.
//!
//! * [`Retiming`] — retiming vectors in the paper's sign convention
//!   (`r(v)` delays drawn from incoming edges and pushed to outgoing
//!   edges), with legality checking, application, normalization and the
//!   [`rotate`] operation of Definition 4.1;
//! * [`prologue`] / [`epilogue`] — the pre-/post-loop instruction
//!   multiplicities implied by a retiming (§2 of the paper);
//! * [`iteration_bound`](iteration_bound::iteration_bound) — the
//!   maximum cycle ratio `max_C T(C)/D(C)`, an architecture-independent
//!   lower bound on any schedule's initiation interval, computed by
//!   Howard's policy iteration ([`howard`]) in exact arithmetic;
//!   [`critical_cycle`] adds one exact Bellman–Ford for its witness;
//! * [`clock_period`] — Leiserson–Saxe `FEAS`-based
//!   minimum clock-period retiming, the analytic optimum rotation-based
//!   compaction is measured against.  The search tests the floor
//!   `max(max t(v), ceil(B))` first; [`wd`] (`OPT1`) is the independent
//!   cross-check.
//!
//! The kernels they replaced (a λ bisection for the bound, a `FEAS`
//! that clones the graph every round) survive in test builds only, as
//! the oracles the property tests compare against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock_period;
pub mod howard;
pub mod iteration_bound;
mod retiming;
pub mod wd;

pub use clock_period::{critical_chain, min_clock_period};
pub use howard::max_cycle_ratio_howard;
pub use iteration_bound::{critical_cycle, iteration_bound, Ratio};
pub use retiming::{epilogue, prologue, rotate, rotate_in_place, unrotate_in_place, Retiming};
pub use wd::{min_clock_period_wd, WdMatrices};

#[cfg(test)]
mod proptests {
    use super::*;
    use ccs_model::Csdfg;
    use proptest::prelude::*;

    /// Random legal CSDFG with task times drawn by `times`: forward
    /// edges may carry 0..3 delays, backward edges always >= 1.
    fn arb_csdfg_timed<S>(nodes: std::ops::Range<usize>, times: S) -> impl Strategy<Value = Csdfg>
    where
        S: Strategy<Value = u32> + Clone + 'static,
    {
        nodes.prop_flat_map(move |n| {
            let times = proptest::collection::vec(times.clone(), n);
            let edges = proptest::collection::vec((0..n, 0..n, 0u32..3, 1u32..3), 1..n * 2);
            (times, edges).prop_map(move |(times, edges)| {
                let mut g = Csdfg::new();
                let ids: Vec<_> = times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| g.add_task(format!("v{i}"), t).unwrap())
                    .collect();
                for (a, b, d, c) in edges {
                    let delay = if a < b { d } else { d.max(1) };
                    g.add_dep(ids[a], ids[b], delay, c).unwrap();
                }
                g
            })
        })
    }

    /// Small task times: every oracle is exact on these.
    fn arb_csdfg() -> impl Strategy<Value = Csdfg> {
        arb_csdfg_timed(2..24, 1u32..5)
    }

    /// Task times at or above 2^31: two of them overflow a `u32` sum,
    /// and the float oracles lose exactness.
    fn arb_heavy_csdfg() -> impl Strategy<Value = Csdfg> {
        arb_csdfg_timed(2..9, (1u32 << 31)..=u32::MAX)
    }

    /// `T(C)/D(C)` of the node cycle `[a, b, ..]`, taking the smallest
    /// delay among parallel edges (the largest ratio the node sequence
    /// attains).
    fn cycle_ratio(g: &Csdfg, cycle: &[ccs_model::NodeId]) -> Ratio {
        let t: u64 = cycle.iter().map(|&v| u64::from(g.time(v))).sum();
        let d: u64 = (0..cycle.len())
            .map(|i| {
                let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
                g.out_deps(u)
                    .filter(|&e| g.endpoints(e).1 == v)
                    .map(|e| u64::from(g.delay(e)))
                    .min()
                    .expect("consecutive cycle nodes share an edge")
            })
            .sum();
        Ratio::new(t, d)
    }

    /// The maximum cycle ratio by enumerating every elementary cycle:
    /// exact at any task time, exponential, so for small graphs only.
    fn brute_force_ratio(g: &Csdfg) -> Option<Ratio> {
        ccs_graph::algo::cycles::elementary_cycles(g.graph(), usize::MAX)
            .iter()
            .map(|cycle| cycle_ratio(g, cycle))
            .max()
    }

    proptest! {
        #[test]
        fn legal_retimings_preserve_legality(g in arb_csdfg()) {
            let (_, r) = clock_period::min_clock_period(&g);
            prop_assert!(r.is_legal(&g));
            let retimed = r.apply(&g);
            prop_assert!(retimed.check_legal().is_ok());
        }

        #[test]
        fn min_period_never_exceeds_initial(g in arb_csdfg()) {
            let initial = clock_period::clock_period(&g);
            let (best, _) = clock_period::min_clock_period(&g);
            prop_assert!(best <= initial);
            let heaviest = g.tasks().map(|v| u64::from(g.time(v))).max().unwrap();
            prop_assert!(best >= heaviest);
        }

        #[test]
        fn iteration_bound_invariant_under_min_period_retiming(g in arb_csdfg()) {
            let before = iteration_bound(&g);
            let (_, r) = clock_period::min_clock_period(&g);
            let after = iteration_bound(&r.apply(&g));
            prop_assert_eq!(before, after);
        }

        #[test]
        fn min_period_at_least_iteration_bound(g in arb_csdfg()) {
            if let Some(b) = iteration_bound(&g) {
                let (best, _) = clock_period::min_clock_period(&g);
                // Φ >= ceil(B) because a period below the bound would
                // sustain an initiation interval below it.
                prop_assert!(best >= b.ceil());
            }
        }

        #[test]
        fn rotation_of_delay_guarded_roots_is_legal(g in arb_csdfg()) {
            // Nodes whose incoming edges all carry delays can be rotated.
            let rotatable: Vec<_> = g
                .tasks()
                .filter(|&v| g.in_deps(v).all(|e| g.delay(e) >= 1))
                .collect();
            if !rotatable.is_empty() {
                let rotated = rotate(&g, &rotatable).unwrap();
                prop_assert!(rotated.check_legal().is_ok());
                prop_assert_eq!(iteration_bound(&rotated), iteration_bound(&g));
            }
        }

        #[test]
        fn iteration_bound_matches_bisection_oracle(g in arb_csdfg()) {
            prop_assert_eq!(iteration_bound(&g), iteration_bound::oracle::iteration_bound(&g));
        }

        #[test]
        fn critical_cycle_matches_oracle_witness(g in arb_csdfg()) {
            prop_assert_eq!(critical_cycle(&g), iteration_bound::oracle::critical_cycle(&g));
        }

        #[test]
        fn min_clock_period_matches_clone_feas_oracle(g in arb_csdfg()) {
            prop_assert_eq!(
                clock_period::min_clock_period(&g),
                clock_period::oracle::min_clock_period(&g)
            );
        }

        #[test]
        fn feas_matches_oracle_at_every_period(g in arb_csdfg()) {
            let heaviest = g.tasks().map(|v| u64::from(g.time(v))).max().unwrap();
            for c in heaviest.saturating_sub(1)..=clock_period::clock_period(&g) {
                prop_assert_eq!(
                    clock_period::feasible(&g, c),
                    clock_period::oracle::feasible(&g, c),
                    "period {}",
                    c
                );
            }
        }

        #[test]
        fn heavy_bounds_are_exact(g in arb_heavy_csdfg()) {
            let bound = iteration_bound(&g);
            prop_assert_eq!(bound, brute_force_ratio(&g));
            if let Some((r, cycle)) = critical_cycle(&g) {
                prop_assert_eq!(Some(r), bound);
                prop_assert_eq!(cycle_ratio(&g, &cycle), r);
            }
            let (period, r) = clock_period::min_clock_period(&g);
            prop_assert_eq!((period, r.clone()), clock_period::oracle::min_clock_period(&g));
            prop_assert_eq!(period, wd::min_clock_period_wd(&g).0);
            prop_assert_eq!(clock_period::clock_period(&r.apply(&g)), period);
            if let Some(b) = bound {
                prop_assert!(period >= b.ceil());
            }
        }

        #[test]
        fn wd_and_feas_agree_on_min_period(g in arb_csdfg()) {
            let (feas, _) = clock_period::min_clock_period(&g);
            let (wd_p, r) = wd::min_clock_period_wd(&g);
            prop_assert_eq!(feas, wd_p);
            prop_assert!(r.is_legal(&g));
            prop_assert_eq!(clock_period::clock_period(&r.apply(&g)), wd_p);
        }

        #[test]
        fn prologue_epilogue_cover_all_offsets(g in arb_csdfg()) {
            let (_, mut r) = clock_period::min_clock_period(&g);
            r.normalize(&g);
            let max = g.tasks().map(|v| r.get(v)).max().unwrap_or(0);
            let pro: u64 = prologue(&g, &r).iter().map(|&(_, k)| u64::from(k)).sum();
            let epi: u64 = epilogue(&g, &r).iter().map(|&(_, k)| u64::from(k)).sum();
            // Every node appears max times in prologue+epilogue combined.
            prop_assert_eq!(pro + epi, max as u64 * g.task_count() as u64);
        }
    }

    /// The paper catalogue and `random_manype`-sized random graphs: the
    /// kernels agree with their oracles on the inputs the scheduler and
    /// the benchmark actually certify.
    #[test]
    fn kernels_match_oracles_on_catalogue_and_large_random_graphs() {
        use ccs_workloads::random::{random_csdfg, RandomGraphConfig};
        let mut graphs: Vec<(String, Csdfg)> = ccs_workloads::all_workloads()
            .iter()
            .map(|w| (w.name.to_string(), w.build()))
            .collect();
        for (i, nodes) in [64usize, 96, 128].into_iter().enumerate() {
            let config = RandomGraphConfig {
                nodes,
                back_edges: nodes / 3,
                ..Default::default()
            };
            graphs.push((format!("random{nodes}"), random_csdfg(config, 7 + i as u64)));
        }
        for (name, g) in &graphs {
            assert_eq!(
                critical_cycle(g),
                iteration_bound::oracle::critical_cycle(g),
                "{name}"
            );
            assert_eq!(
                clock_period::min_clock_period(g),
                clock_period::oracle::min_clock_period(g),
                "{name}"
            );
        }
    }
}
