//! End-to-end benchmark of the cyclosched scheduling pipeline.
//!
//! One process, one caller, closed loop: each round runs every job of
//! the workload once, in a seed-derived order, and the next job starts
//! when the previous one returns.  See `README.md` for the workloads,
//! the metrics and which layer should move which metric.

#![forbid(unsafe_code)]

pub mod measure;
pub mod smoke;
pub mod spans;
pub mod workload;

pub use measure::{run, Config, Metric, Report};
pub use workload::Workload;

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
