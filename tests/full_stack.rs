//! Cross-crate integration: every workload x every machine family,
//! through the full pipeline (model -> schedule -> validate -> retime
//! -> simulate), plus serialization round trips.

use cyclosched::model::{parser, spec::CsdfgSpec, transform};
use cyclosched::prelude::*;

fn all_machines() -> Vec<Machine> {
    let mut m = Machine::paper_suite();
    m.extend([
        Machine::torus(2, 3),
        Machine::star(5),
        Machine::binary_tree(7),
        Machine::complete(3),
        Machine::linear_array(2),
    ]);
    m
}

#[test]
fn every_workload_on_every_machine() {
    for w in cyclosched::workloads::all_workloads() {
        let g = w.build();
        for machine in all_machines() {
            let r = cyclo_compact(&g, &machine, CompactConfig::default())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, machine.name()));
            validate(&r.graph, &machine, &r.schedule)
                .unwrap_or_else(|v| panic!("{} on {}: {v:?}", w.name, machine.name()));
            assert!(r.best_length <= r.initial_length);
            let replay = replay_static(&r.graph, &machine, &r.schedule, 8);
            assert!(replay.is_valid(), "{} on {}", w.name, machine.name());
        }
    }
}

#[test]
fn slowdown_workloads_schedule_cleanly() {
    for name in ["elliptic", "lattice"] {
        let base = cyclosched::workloads::workload_by_name(name)
            .unwrap()
            .build();
        let g = transform::slowdown(&base, 3);
        for machine in Machine::paper_suite() {
            let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
            validate(&r.graph, &machine, &r.schedule).unwrap();
            // Slow-down creates slack: the compacted schedule must beat
            // the start-up schedule on every machine.
            assert!(
                r.best_length < r.initial_length,
                "{name} on {}: {} !< {}",
                machine.name(),
                r.best_length,
                r.initial_length
            );
        }
    }
}

#[test]
fn compacted_length_respects_iteration_bound_after_slowdown() {
    let base = cyclosched::workloads::workload_by_name("lattice")
        .unwrap()
        .build();
    for f in 1..=4u32 {
        let g = transform::slowdown(&base, f);
        let bound = iteration_bound(&g).unwrap();
        let r = cyclo_compact(&g, &Machine::complete(8), CompactConfig::default()).unwrap();
        assert!(u64::from(r.best_length) >= bound.ceil(), "slowdown {f}");
    }
}

#[test]
fn graphs_survive_text_and_spec_round_trips_through_the_scheduler() {
    let g = cyclosched::workloads::paper::fig7_example();
    let machine = Machine::mesh(4, 2);
    let direct = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();

    // text format
    let text = parser::write(&g);
    let g2 = parser::parse(&text).unwrap();
    let via_text = cyclo_compact(&g2, &machine, CompactConfig::default()).unwrap();
    assert_eq!(via_text.best_length, direct.best_length);

    // serde spec
    let spec = CsdfgSpec::from(&g);
    let g3 = spec.build().unwrap();
    let via_spec = cyclo_compact(&g3, &machine, CompactConfig::default()).unwrap();
    assert_eq!(via_spec.best_length, direct.best_length);
}

#[test]
fn unfolded_graphs_still_schedule() {
    let base = cyclosched::workloads::paper::fig1_example();
    let g = transform::unfold(&base, 2);
    let machine = Machine::mesh(2, 2);
    let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
    validate(&r.graph, &machine, &r.schedule).unwrap();
    // 2 iterations per schedule: per-iteration cost is length/2.
    assert!(r.best_length >= 2);
}

#[test]
fn random_graph_stress() {
    use cyclosched::workloads::{random_csdfg, RandomGraphConfig};
    let cfg = RandomGraphConfig {
        nodes: 24,
        back_edges: 8,
        ..Default::default()
    };
    for seed in 0..12 {
        let g = random_csdfg(cfg, seed);
        let machine = Machine::hypercube(3);
        let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
        validate(&r.graph, &machine, &r.schedule).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
        let replay = replay_static(&r.graph, &machine, &r.schedule, 6);
        assert!(replay.is_valid(), "seed {seed}");
        let st = run_self_timed(&r.graph, &machine, &r.schedule, 30);
        assert!(
            st.initiation_interval <= f64::from(r.best_length) + 1e-9,
            "seed {seed}"
        );
    }
}

#[test]
fn minimum_clock_period_lower_bounds_single_cycle_machines() {
    // On an ideal machine with unlimited PEs, the compacted length can
    // approach the min clock period; it can never beat the iteration
    // bound ceiling.
    let g = cyclosched::workloads::paper::fig1_example();
    let (phi, _) = cyclosched::retiming::clock_period::min_clock_period(&g);
    let machine = Machine::ideal(6);
    let r = cyclo_compact(&g, &machine, CompactConfig::default()).unwrap();
    let bound = iteration_bound(&g).unwrap();
    assert!(u64::from(r.best_length) >= bound.ceil());
    // phi is itself >= the bound's ceiling.
    assert!(phi >= bound.ceil());
}
