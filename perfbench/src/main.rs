//! `perfbench`: runs one workload and prints its metrics as the last
//! line of standard output.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//! perfbench --smoke [--seed N] [--seconds S]
//! ```
//!
//! Exit codes: 0 after a run (its `correct` field says whether every
//! output passed the oracles), 1 when the smoke check fails or a run
//! cannot be made, 2 on a usage error.

use cyclosched_perfbench::smoke::{smoke, Contract};
use cyclosched_perfbench::{result_json, run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
       perfbench --smoke [--seed N] [--seconds S]
workloads: paper_certify, random_manype, traced_report";

/// Where a traced run writes its spans unless `--spans` says otherwise.
const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !a.smoke && a.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The remap engine runs on one thread.  The vendored rayon spawns
    // fresh threads for every 256-PE scan and reads the cgroup CPU quota
    // each time it is not told a thread count; on a few shared cores
    // that measures the host's scheduler, not the program.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    if args.smoke {
        let checked = Contract::load().and_then(|c| smoke(&c, args.seed, args.seconds.min(1.0)));
        return match checked {
            Ok(lines) => {
                for l in lines {
                    println!("{l}");
                }
                println!("smoke: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    let config = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("failed: {e}");
    }
    eprintln!(
        "{}: {} job runs, {} failed; jobs_per_s and job_ms_p50 take each of {} jobs at its \
         fastest of {} runs; job_ms_p99 is over {} untraced job runs, each rescaled to the \
         fastest round",
        workload.name(),
        report.attempted,
        report.failed,
        report.jobs,
        report.runs_per_job,
        report.samples
    );
    if let Some(log) = &report.spans {
        let path = args.spans.unwrap_or_else(|| {
            PathBuf::from(SPANS_DIR).join(format!("spans-{}-{}.json", workload.name(), args.seed))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, log.to_json()));
        if let Err(e) = written {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} ({} spans)", path.display(), log.spans().len());
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
