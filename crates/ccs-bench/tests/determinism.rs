//! Determinism guarantees the perf work must not break: `cyclo_compact`
//! output schedules are identical (placements, lengths, and pass
//! history — not just final lengths) across repeated runs, and the
//! parallel sweep driver returns byte-identical reports at any thread
//! count.

use ccs_bench::experiments::random_sweep;
use ccs_bench::{compact_grid, compact_grid_metered, run_many};
use ccs_core::{cyclo_compact, CompactConfig};
use ccs_topology::Machine;

/// Canonical textual encoding of everything observable about a
/// compaction result: every placement plus the per-pass history.
fn encode(r: &ccs_core::Compaction) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "init={} best={}", r.initial_length, r.best_length).unwrap();
    for (node, slot) in r.schedule.placements() {
        writeln!(
            out,
            "{} pe{} cs{}+{}",
            node.index(),
            slot.pe.index(),
            slot.start,
            slot.duration
        )
        .unwrap();
    }
    for rec in &r.history {
        writeln!(
            out,
            "pass {} len {} reverted {} rotated {:?}",
            rec.pass,
            rec.length,
            rec.reverted,
            rec.rotated.iter().map(|v| v.index()).collect::<Vec<_>>()
        )
        .unwrap();
    }
    out
}

fn machine_suite() -> Vec<Machine> {
    vec![
        Machine::linear_array(8),
        Machine::mesh(4, 2),
        Machine::complete(8),
        Machine::hypercube(3),
    ]
}

#[test]
fn cyclo_compact_is_run_to_run_deterministic() {
    for w in ccs_workloads::all_workloads() {
        let g = w.build();
        for machine in machine_suite() {
            let a = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            let b = cyclo_compact(&g, &machine, CompactConfig::default()).expect("legal");
            assert_eq!(
                encode(&a),
                encode(&b),
                "{} on {} differs between runs",
                w.name,
                machine.name()
            );
        }
    }
}

#[test]
fn sweep_driver_is_thread_count_invariant() {
    // The rayon stand-in (and upstream rayon's indexed collect) returns
    // results in input order; pin the thread count via the same env var
    // both honor and compare full reports.
    let run_at = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let sweep = format!("{:?}", random_sweep(&[12, 16], 3));
        let grid = format!(
            "{:?}",
            compact_grid(
                &ccs_workloads::all_workloads(),
                &machine_suite(),
                &[CompactConfig::default()],
            )
        );
        let many: Vec<u64> = run_many((0..97u64).collect(), |x| x * x);
        std::env::remove_var("RAYON_NUM_THREADS");
        (sweep, grid, many)
    };
    let one = run_at("1");
    let four = run_at("4");
    let eight = run_at("8");
    assert_eq!(one, four, "1 vs 4 threads");
    assert_eq!(one, eight, "1 vs 8 threads");
}

#[test]
fn metered_sweep_counters_are_thread_count_invariant() {
    // The per-cell MetricsSink observes the (deterministic) event
    // stream of its own cell only, so serializing every cell with
    // `MeteredCell::to_value` — counters, never histograms — must give
    // byte-identical JSON at any thread count.
    let run_at = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let cells = compact_grid_metered(
            &ccs_workloads::all_workloads(),
            &machine_suite(),
            &[CompactConfig::default()],
        );
        std::env::remove_var("RAYON_NUM_THREADS");
        let values: Vec<_> = cells.iter().map(ccs_bench::MeteredCell::to_value).collect();
        serde_json::to_string_pretty(&serde::Value::Array(values)).expect("serialize")
    };
    let one = run_at("1");
    let four = run_at("4");
    let eight = run_at("8");
    assert_eq!(one, four, "metered counters: 1 vs 4 threads");
    assert_eq!(one, eight, "metered counters: 1 vs 8 threads");
    // A sweep worth pinning is one that actually metered something.
    assert!(one.contains("\"traffic_cost\""), "{one}");
}
