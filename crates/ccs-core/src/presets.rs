//! Named configurations, including the historical special case the
//! paper grew out of.
//!
//! The authors' earlier algorithm (Tongsima/Passos/Sha, ICCD'94,
//! reference \[13\] of the paper) handled *unit-time* data-flow graphs on
//! *completely connected* architectures; cyclo-compaction generalizes
//! it to general-time graphs and arbitrary topologies.  [`iccd94`]
//! reconstructs that special case as a configuration of the general
//! algorithm.

use crate::compact::{cyclo_compact, CompactConfig, Compaction};
use crate::remap::{RemapConfig, RemapMode};
use ccs_model::{Csdfg, ModelError};
use ccs_topology::Machine;

/// The paper's default setup: remapping with relaxation, single-row
/// rotation, a generous pass budget.
pub fn paper_default() -> CompactConfig {
    CompactConfig::default()
}

/// Strict Theorem-4.4 mode: remapping without relaxation (lengths are
/// monotone non-increasing; search stops at the first stall).
pub fn strict() -> CompactConfig {
    CompactConfig {
        remap: RemapConfig {
            mode: RemapMode::WithoutRelaxation,
            max_growth: 0,
            rows_per_pass: 1,
        },
        ..Default::default()
    }
}

/// `true` when every task of `g` takes exactly one control step — the
/// unit-time restriction of the ICCD'94 predecessor.
pub fn is_unit_time(g: &Csdfg) -> bool {
    g.tasks().all(|v| g.time(v) == 1)
}

/// The ICCD'94 special case: schedules a *unit-time* graph on a
/// completely connected machine of `pes` processors using the general
/// cyclo-compaction algorithm.
///
/// # Errors
///
/// Returns `ModelError::ZeroTime` with the offending task's name when
/// the graph is not unit-time (the historical algorithm does not apply),
/// or the underlying scheduling error.
pub fn iccd94(g: &Csdfg, pes: usize) -> Result<Compaction, ModelError> {
    if let Some(bad) = g.tasks().find(|&v| g.time(v) != 1) {
        // Reuse the closest existing error kind; the name pinpoints the
        // non-unit-time task.
        return Err(ModelError::ZeroTime(format!(
            "{} (t={}): ICCD'94 mode requires unit-time tasks",
            g.name(bad),
            g.time(bad)
        )));
    }
    let machine = Machine::complete(pes);
    cyclo_compact(g, &machine, paper_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_loop() -> Csdfg {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        let c = g.add_task("C", 1).unwrap();
        g.add_dep(a, b, 0, 2).unwrap();
        g.add_dep(b, c, 0, 1).unwrap();
        g.add_dep(c, a, 2, 1).unwrap();
        g
    }

    #[test]
    fn unit_time_detection() {
        let g = unit_loop();
        assert!(is_unit_time(&g));
        let mut g2 = Csdfg::new();
        g2.add_task("X", 2).unwrap();
        assert!(!is_unit_time(&g2));
    }

    #[test]
    fn iccd94_schedules_unit_graphs() {
        let g = unit_loop();
        let r = iccd94(&g, 3).unwrap();
        // Iteration bound 3/2 -> floor 2.
        assert!(r.best_length >= 2);
        assert!(r.best_length <= r.initial_length);
        let m = Machine::complete(3);
        assert!(ccs_schedule::validate(&r.graph, &m, &r.schedule).is_ok());
    }

    #[test]
    fn iccd94_rejects_general_time() {
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("Big", 3).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 1, 1).unwrap();
        let err = iccd94(&g, 2).unwrap_err();
        assert!(err.to_string().contains("Big"));
        assert!(err.to_string().contains("unit-time"));
    }

    #[test]
    fn strict_preset_is_monotone() {
        let g = unit_loop();
        let m = Machine::linear_array(3);
        let r = cyclo_compact(&g, &m, strict()).unwrap();
        let mut prev = r.initial_length;
        for rec in &r.history {
            if !rec.reverted {
                assert!(rec.length <= prev);
                prev = rec.length;
            }
        }
    }

    #[test]
    fn presets_differ_only_in_remap_policy() {
        let p = paper_default();
        let s = strict();
        assert_eq!(p.passes, s.passes);
        assert_ne!(p.remap.mode, s.remap.mode);
    }
}
