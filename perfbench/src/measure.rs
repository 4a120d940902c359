//! One benchmark run: set-up, a checked reference round, then timed
//! rounds in a closed loop with one caller.
//!
//! On a shared 2-core host, neighbours slow the host by up to half for
//! stretches of seconds to minutes.  The timings therefore report the
//! run at its fastest host speed.  `jobs_per_s` and `job_ms_p50` take
//! each distinct job at its fastest run: over two sets of ten 30-s runs,
//! the median over all runs of `paper_certify` moved from 1.19 to
//! 0.91 ms, while the median of per-job minima stayed within
//! 0.68-0.75 ms.  `job_ms_p99` keeps every run, rescaled from its
//! round's host speed to the fastest: a round takes well under a
//! second, so the host slows its jobs alike, while a job that stalls
//! alone stays slow; unscaled, the p99 of `random_manype` and
//! `paper_certify` spread 17-33% of its median within sets of five to
//! ten runs.  `setup_s` is the median of the set-ups run before each
//! round, rescaled by that round's host speed alike.

use crate::spans::{NoSpans, Phase, SpanLog, Tracer};
use crate::workload::{self, check, run_job, run_probes, Counts, Setup, Workload};
use std::time::{Duration, Instant};

/// Rounds to run even when `seconds` is up: one untraced and, when
/// tracing, one traced.
const MIN_ROUNDS: usize = 2;

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the job order.
    pub seed: u64,
    /// Measurement time after the reference round.
    pub seconds: f64,
    /// `false`: end-to-end metrics, no spans.  `true`: per-layer
    /// metrics from alternating untraced and traced rounds.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produces.
pub struct Report {
    /// Job runs attempted, the reference round included.
    pub attempted: u64,
    /// Job runs that errored, failed an oracle, or whose output
    /// differed from the checked reference output.
    pub failed: u64,
    /// Metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Work counts of one round (deterministic).
    pub counts: Counts,
    /// Sum of per-job period ratios in job-id order (deterministic).
    pub ratio_sum: f64,
    /// Digest of every schedule of one round, in job-id order.
    pub digest: u64,
    /// Distinct jobs per round.
    pub jobs: usize,
    /// Untraced timed runs per job; `jobs_per_s` and `job_ms_p50` take
    /// each job at the fastest of them.
    pub runs_per_job: usize,
    /// Untraced timed job runs behind `job_ms_p99`.
    pub samples: usize,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
    /// The span log of a traced run.
    pub spans: Option<SpanLog>,
}

/// Median of `xs` (0 when empty).
fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` of `xs` (0 when empty).
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Outcome bookkeeping shared by every round.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Job latencies in seconds: per job id, and in the order they ran;
/// and the time of the set-up before each round.
struct Latencies {
    per_job: Vec<Vec<f64>>,
    in_order: Vec<f64>,
    setups: Vec<f64>,
}

impl Latencies {
    fn new(jobs: usize) -> Latencies {
        Latencies {
            per_job: vec![Vec::new(); jobs],
            in_order: Vec::new(),
            setups: Vec::new(),
        }
    }

    fn push(&mut self, job: usize, s: f64) {
        self.per_job[job].push(s);
        self.in_order.push(s);
    }

    fn fastest(&self) -> Vec<f64> {
        self.per_job
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// One round with every job at its fastest run, in seconds.
    fn fastest_round(&self) -> f64 {
        self.fastest().iter().sum()
    }

    /// Per round, the factor that rescales its times to the fastest
    /// host speed: the fastest round over the round's own total.
    fn round_scales(&self) -> impl Iterator<Item = f64> + '_ {
        let best = self.fastest_round();
        self.in_order
            .chunks_exact(self.per_job.len())
            .map(move |round| best / round.iter().sum::<f64>())
    }

    /// 99th percentile over every run, in milliseconds, of its latency
    /// rescaled to the fastest host speed.
    fn rescaled_p99_ms(&self) -> f64 {
        let ms: Vec<f64> = self
            .in_order
            .chunks_exact(self.per_job.len())
            .zip(self.round_scales())
            .flat_map(|(round, scale)| round.iter().map(move |s| s * scale * 1e3))
            .collect();
        percentile(&ms, 99.0)
    }

    /// Median set-up time, each rescaled by the round after it.
    fn rescaled_setup_s(&self) -> f64 {
        let s: Vec<f64> = self
            .setups
            .iter()
            .zip(self.round_scales())
            .map(|(s, scale)| s * scale)
            .collect();
        median(&s)
    }
}

/// Runs one set-up, its spans going to `log` when tracing; returns it
/// with its time in seconds.
fn timed_setup(w: Workload, log: Option<&mut SpanLog>, rep: usize) -> Result<(Setup, f64), String> {
    let t = Instant::now();
    let s = match log {
        Some(log) => {
            log.start_job(Phase::Setup, rep as u32, 0);
            workload::setup(w, log)
        }
        None => workload::setup(w, &mut NoSpans),
    }?;
    Ok((s, t.elapsed().as_secs_f64()))
}

/// Runs the benchmark once.
pub fn run(config: &Config) -> Result<Report, String> {
    let w = config.workload;
    let mut log = config.trace.then(SpanLog::default);

    // The machines and inputs of this set-up serve every job; one more
    // set-up runs, timed, before every round.
    let (setup, _) = timed_setup(w, log.as_mut(), 0)?;
    let jobs = setup.jobs();
    let order = workload::job_order(jobs, config.seed);

    // Reference round: every distinct job once, in job-id order,
    // checked by the oracles.
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut counts = Counts::default();
    let mut ratio_sum = 0.0;
    let mut digest = workload::FNV_BASIS;
    // `reference[j]`: the digest of job `j`'s schedule, once checked.
    let mut reference: Vec<Option<u64>> = vec![None; jobs];
    for (j, slot) in reference.iter_mut().enumerate() {
        let (input, machine) = setup.job(j);
        tally.attempted += 1;
        let out = match run_job(w, input, machine, &mut NoSpans) {
            Ok(out) => out,
            Err(e) => {
                tally.fail(format!("job {j}: {e}"));
                continue;
            }
        };
        let (facts, verdict) = match log.as_mut() {
            Some(log) => {
                log.start_job(Phase::Oracle, 0, j as u32);
                check(w, input, machine, &out, log)
            }
            None => check(w, input, machine, &out, &mut NoSpans),
        };
        counts.add(&facts.counts);
        ratio_sum += facts.period_ratio;
        digest = workload::fnv(digest, &(j as u64).to_le_bytes());
        digest = workload::fnv(digest, &facts.digest.to_le_bytes());
        match verdict {
            Ok(()) => *slot = Some(facts.digest),
            Err(e) => tally.fail(format!("job {j}: {e}")),
        }
    }
    // Peak RSS after a fixed amount of work in a fixed order: the
    // allocator's fragmentation, and so the peak, depends on job order.
    let rss_mb = peak_rss_mb()?;

    // Timed rounds.  A traced run alternates untraced and traced rounds.
    let mut untraced = Latencies::new(jobs);
    let mut traced = Latencies::new(jobs);
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut round = 0usize;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        let is_traced = config.trace && round % 2 == 1;
        let (_, setup_time) = timed_setup(w, log.as_mut(), round + 1)?;
        if !is_traced {
            untraced.setups.push(setup_time);
        }
        for &j in &order {
            let (input, machine) = setup.job(j);
            tally.attempted += 1;
            let res = match (is_traced, log.as_mut()) {
                (true, Some(log)) => {
                    log.start_job(Phase::Round, round as u32, j as u32);
                    let root = log.begin("job");
                    let t = Instant::now();
                    let res = run_job(w, input, machine, log);
                    traced.push(j, t.elapsed().as_secs_f64());
                    log.end(root);
                    if let Ok(out) = &res {
                        run_probes(w, out.graph(input), machine, log);
                    }
                    res
                }
                _ => {
                    let t = Instant::now();
                    let res = run_job(w, input, machine, &mut NoSpans);
                    untraced.push(j, t.elapsed().as_secs_f64());
                    res
                }
            };
            // Untimed: the output must be the oracle-checked reference.
            match (res, &reference[j]) {
                (Ok(out), Some(d)) if workload::schedule_digest(&out.result) == *d => {}
                (Ok(_), Some(_)) => tally.fail(format!("job {j}: schedule changed between rounds")),
                (Ok(_), None) => tally.fail(format!("job {j}: reference run failed")),
                (Err(e), _) => tally.fail(format!("job {j}: {e}")),
            }
        }
        round += 1;
    }

    let metrics = match &log {
        Some(log) => layer_metrics(
            &setup,
            &counts,
            digest,
            &tally,
            log,
            traced.fastest_round() - untraced.fastest_round(),
        ),
        None => {
            let fastest_ms: Vec<f64> = untraced.fastest().iter().map(|s| s * 1e3).collect();
            vec![
                metric("jobs_per_s", jobs as f64 / untraced.fastest_round(), "1/s"),
                metric("job_ms_p50", median(&fastest_ms), "ms"),
                metric("job_ms_p99", untraced.rescaled_p99_ms(), "ms"),
                metric(
                    "mean_period_ratio",
                    ratio_sum / counts.jobs.max(1) as f64,
                    "ratio",
                ),
                metric("setup_s", untraced.rescaled_setup_s(), "s"),
                metric("peak_rss_mb", rss_mb, "MiB"),
            ]
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        counts,
        ratio_sum,
        digest,
        jobs,
        runs_per_job: untraced.per_job.iter().map(Vec::len).min().unwrap_or(0),
        samples: untraced.in_order.len(),
        errors: tally.errors,
        spans: log,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Span names reported as `<name>.busy_ms`: self time per job.
const BUSY_PER_JOB: [&str; 12] = [
    "ccs-model.parse",
    "ccs-analyze.analyze_graph",
    "ccs-analyze.analyze_machine",
    "ccs-analyze.analyze_cross",
    "ccs-core.startup_schedule",
    "ccs-core.cyclo_compact",
    "ccs-schedule.validate",
    "ccs-bounds.certify",
    "ccs-retiming.iteration_bound",
    "ccs-trace.record",
    "ccs-profile.build",
    "ccs-report.render_report",
];

fn layer_metrics(
    setup: &Setup,
    counts: &Counts,
    digest: u64,
    tally: &Tally,
    log: &SpanLog,
    span_overhead_s: f64,
) -> Vec<Metric> {
    let jobs = setup.jobs() as f64;
    let ms = |phase: Phase, name: &str| log.fastest_self_ns(phase, name) / 1e6;
    let mut out: Vec<Metric> = BUSY_PER_JOB
        .iter()
        .map(|name| {
            metric(
                &format!("{name}.busy_ms"),
                ms(Phase::Round, name) / jobs,
                "ms",
            )
        })
        .collect();
    out.push(metric(
        "ccs-sim.replay_static.busy_ms",
        ms(Phase::Oracle, "ccs-sim.replay_static") / jobs,
        "ms",
    ));
    out.push(metric(
        "ccs-topology.parse_spec.busy_ms",
        ms(Phase::Setup, "ccs-topology.parse_spec"),
        "ms",
    ));
    out.push(metric(
        "ccs-topology.hop_entries",
        setup.hop_entries() as f64,
        "count",
    ));
    let c = counts;
    let passes = c.passes_run.max(1) as f64;
    out.push(metric(
        "ccs-core.compact.pass_ms",
        (ms(Phase::Round, "ccs-core.cyclo_compact")
            - ms(Phase::Round, "ccs-core.startup_schedule"))
            / passes,
        "ms",
    ));
    // `record` wraps a traced compaction; the probe runs the same
    // compaction untraced, so the difference is the cost of the events.
    let trace_overhead = if setup.workload == Workload::TracedReport {
        (ms(Phase::Round, "ccs-trace.record") - ms(Phase::Round, "ccs-core.cyclo_compact")) / jobs
    } else {
        0.0
    };
    out.push(metric("ccs-trace.overhead_ms", trace_overhead, "ms"));
    for (name, v) in [
        ("ccs-core.compact.passes_run", c.passes_run),
        ("ccs-core.compact.passes_accepted", c.passes_accepted),
        ("ccs-core.compact.passes_after_best", c.passes_after_best),
        ("ccs-core.compact.passes_after_floor", c.passes_after_floor),
        ("ccs-trace.record.events", c.events),
        ("ccs-report.html_bytes", c.html_bytes),
        ("ccs-model.parse.bytes", c.parsed_bytes),
        ("ccs-bounds.verdict_optimal", c.verdict_optimal),
        ("ccs-bounds.verdict_gap", c.verdict_gap),
        ("ccs-bounds.verdict_exceeded", c.verdict_exceeded),
    ] {
        out.push(metric(name, v as f64, "count"));
    }
    out.push(metric(
        "ccs-core.compact.useful_pass_ratio",
        (c.passes_run - c.passes_after_best) as f64 / passes,
        "ratio",
    ));
    out.push(metric(
        "optimal_share",
        c.verdict_optimal as f64 / c.jobs.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    out.push(metric(
        "schedule_digest",
        f64::from((digest ^ (digest >> 32)) as u32),
        "hash",
    ));
    out.push(metric(
        "bench.span_overhead_ms",
        span_overhead_s / jobs * 1e3,
        "ms",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latencies_fold_fastest_and_rescale_rounds() {
        // Two rounds of two jobs; job 1 stalls in the second round.
        let mut l = Latencies::new(2);
        for (j, s) in [(0, 1.0), (1, 3.0), (1, 9.0), (0, 1.0)] {
            l.push(j, s);
        }
        assert_eq!(l.fastest(), vec![1.0, 3.0]);
        assert_eq!(l.fastest_round(), 4.0);
        // Round totals 4 and 10 scale by 1 and 0.4: 1000, 3000, 3600
        // and 400 ms, so the stall stays in the tail.
        assert!((l.rescaled_p99_ms() - 3582.0).abs() < 1e-6);
        // A host twice as slow in one round leaves the tail unchanged.
        let mut h = Latencies::new(2);
        for (j, s) in [(0, 1.0), (1, 3.0), (1, 6.0), (0, 2.0)] {
            h.push(j, s);
        }
        assert!((h.rescaled_p99_ms() - 3000.0).abs() < 1e-6);
        // Set-ups before those rounds, rescaled by 1 and 0.5.
        h.setups = vec![0.1, 0.4];
        assert!((h.rescaled_setup_s() - 0.15).abs() < 1e-12);
    }
}
