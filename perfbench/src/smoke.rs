//! Smoke mode: every workload briefly, in both modes and on two seeds,
//! checked against the metric lists of `BENCHMARK.json`.

use crate::measure::{run, Config, Report};
use crate::workload::Workload;
use serde::Value;

/// The declared metrics: `(name, unit)` per list.
pub struct Contract {
    /// `end_to_end`, printed by untraced runs.
    pub end_to_end: Vec<(String, String)>,
    /// `per_layer`, printed by traced runs.
    pub per_layer: Vec<(String, String)>,
}

/// `BENCHMARK.json` at the repository root.
pub const CONTRACT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

impl Contract {
    /// Reads the metric lists from `BENCHMARK.json`.
    pub fn load() -> Result<Contract, String> {
        let text =
            std::fs::read_to_string(CONTRACT_PATH).map_err(|e| format!("{CONTRACT_PATH}: {e}"))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{CONTRACT_PATH}: {e:?}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                    field("name")
                        .zip(field("unit"))
                        .ok_or(format!("BENCHMARK.json: `{key}` entry without name/unit"))
                })
                .collect()
        };
        Ok(Contract {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

fn names_units(r: &Report) -> Vec<(String, String)> {
    let mut v: Vec<_> = r
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

fn check_declared(what: &str, r: &Report, declared: &[(String, String)]) -> Result<(), String> {
    let mut want = declared.to_vec();
    want.sort();
    let got = names_units(r);
    if got != want {
        let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
        let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
        return Err(format!(
            "{what}: metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    Ok(())
}

/// Runs the smoke check and returns the printed lines, or the first
/// failed assertion.
///
/// Per workload it runs seed `seed` untraced and traced and seed
/// `seed + 1` in both modes, each for `seconds`, and asserts that:
/// every declared metric is printed with its declared unit and no
/// other; no job fails (`failed_share == 0`); the second seed prints
/// the same metric names; and the two runs of `seed` reproduce the
/// work counts, schedule digest, `mean_period_ratio` and
/// `optimal_share` exactly.
pub fn smoke(contract: &Contract, seed: u64, seconds: f64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let go = |seed: u64, trace: bool| -> Result<Report, String> {
            let r = run(&Config {
                workload: w,
                seed,
                seconds,
                trace,
            })?;
            if r.failed != 0 {
                return Err(format!(
                    "{} seed {seed}: {} of {} jobs failed: {:?}",
                    w.name(),
                    r.failed,
                    r.attempted,
                    r.errors
                ));
            }
            Ok(r)
        };
        let (e2e, layer) = (go(seed, false)?, go(seed, true)?);
        let (e2e_b, layer_b) = (go(seed + 1, false)?, go(seed + 1, true)?);
        let name = w.name();
        check_declared(&format!("{name} end-to-end"), &e2e, &contract.end_to_end)?;
        check_declared(&format!("{name} per-layer"), &layer, &contract.per_layer)?;
        if names_units(&e2e_b) != names_units(&e2e) || names_units(&layer_b) != names_units(&layer)
        {
            return Err(format!("{name}: seed {} prints other metrics", seed + 1));
        }
        let value = |r: &Report, n: &str| r.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        if value(&layer, "failed_share") != Some(0.0) {
            return Err(format!("{name}: failed_share is not 0"));
        }
        if (e2e.counts, e2e.ratio_sum, e2e.digest) != (layer.counts, layer.ratio_sum, layer.digest)
        {
            return Err(format!(
                "{name}: two runs of seed {seed} disagree on work counts or quality"
            ));
        }
        for r in [&e2e, &layer] {
            for m in &r.metrics {
                lines.push(format!(
                    "{name:<14} {:<42} {:>16} {}",
                    m.name, m.value, m.unit
                ));
            }
        }
    }
    Ok(lines)
}
