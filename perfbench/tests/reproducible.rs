//! The benchmark's own checks: every workload reproduces its work
//! counts and quality exactly, and the smoke mode passes.

use cyclosched_perfbench::smoke::{smoke, Contract};
use cyclosched_perfbench::{run, Config, Workload};

fn once(workload: Workload, seed: u64) -> cyclosched_perfbench::Report {
    let r = run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace: true,
    })
    .expect("run completes");
    assert_eq!(r.failed, 0, "{}: {:?}", workload.name(), r.errors);
    r
}

fn value(r: &cyclosched_perfbench::Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn two_runs_reproduce_counts_and_quality() {
    for w in Workload::ALL {
        let (a, b) = (once(w, 5), once(w, 5));
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.ratio_sum, b.ratio_sum, "{}", w.name());
        for name in [
            "optimal_share",
            "schedule_digest",
            "ccs-core.compact.passes_run",
        ] {
            assert_eq!(value(&a, name), value(&b, name), "{}: {name}", w.name());
        }
        if w == Workload::RandomManype {
            assert_eq!(value(&a, "ccs-core.compact.passes_after_floor"), 0.0);
        } else {
            // The paper suite: 10 graphs x 4 machines x 64 passes.
            assert_eq!(a.counts.passes_run, 2560, "{}", w.name());
        }
    }
}

#[test]
fn smoke_mode_passes() {
    let contract = Contract::load().expect("BENCHMARK.json is readable");
    smoke(&contract, 1, 0.0).expect("smoke check");
}
