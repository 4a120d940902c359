//! The three workloads: their inputs, their set-up, one job, and the
//! oracles that check a job's output.
//!
//! A job mirrors one `cyclosched` invocation (or one library sweep
//! cell) and calls each layer's public functions inside a span named
//! `<crate>.<function>`; see `README.md` for the job models.

use crate::spans::{span, Tracer};
use ccs_bounds::{OptimalityReport, Verdict};
use ccs_core::compact::PassRecord;
use ccs_core::{cyclo_compact, startup_schedule, CompactConfig, Compaction, StartupConfig};
use ccs_model::{parser, Csdfg, NodeId};
use ccs_topology::{parse_spec, Machine};
use ccs_workloads::{random_csdfg, RandomGraphConfig};
use std::hint::black_box;

/// The paper's four 8-PE machines, as `--machine` specs.
const PAPER_MACHINES: [&str; 4] = ["linear:8", "mesh:4x2", "complete:8", "hypercube:3"];

/// Many-PE machines: three 64-PE machines stay below the remap
/// engine's 128-PE parallel fan-out threshold, `mesh:16x16` is above it.
/// The benchmark runs rayon on one thread, so its scan of 256 PEs runs
/// on the caller's thread as well.
const MANY_PE_MACHINES: [&str; 4] = ["mesh:8x8", "complete:64", "hypercube:6", "mesh:16x16"];

/// Random graphs per `random_manype` round, sized evenly from
/// `RANDOM_NODES.0` to `RANDOM_NODES.1`.
const RANDOM_GRAPHS: usize = 8;
const RANDOM_NODES: (usize, usize) = (64, 128);

/// Generator seed of the `random_manype` graphs.  Fixed, not taken from
/// `--seed`: the per-pass cost of a random graph depends on its
/// structure so much that eight graphs drawn per seed moved
/// `jobs_per_s` by a third between seeds, far beyond any usable bound.
const RANDOM_GRAPH_SEED: u64 = 0x00c5_c5ed;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `cyclosched schedule G --machine M --certify` over the catalogue.
    PaperCertify,
    /// The library sweep path on seeded random graphs and many-PE machines.
    RandomManype,
    /// `cyclosched schedule G --machine M --report out.html` over the catalogue.
    TracedReport,
}

impl Workload {
    /// Every workload, in the order the smoke mode runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCertify,
        Workload::RandomManype,
        Workload::TracedReport,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCertify => "paper_certify",
            Workload::RandomManype => "random_manype",
            Workload::TracedReport => "traced_report",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn specs(self) -> &'static [&'static str] {
        match self {
            Workload::RandomManype => &MANY_PE_MACHINES,
            Workload::PaperCertify | Workload::TracedReport => &PAPER_MACHINES,
        }
    }
}

/// One input graph, as its job receives it.
pub(crate) enum Input {
    /// Graph text, parsed by the job (the CLI reads a file).
    Text { name: String, text: String },
    /// An in-memory graph (the library sweep path).
    Graph { name: String, graph: Csdfg },
}

impl Input {
    fn name(&self) -> &str {
        match self {
            Input::Text { name, .. } | Input::Graph { name, .. } => name,
        }
    }
}

/// SplitMix64: a small, fixed mixer for seed-derived choices.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The input graphs of `workload`: the `ccs-workloads` catalogue
/// written to text, or random graphs drawn with [`RANDOM_GRAPH_SEED`].
fn load_inputs(workload: Workload) -> Vec<Input> {
    match workload {
        Workload::PaperCertify | Workload::TracedReport => ccs_workloads::all_workloads()
            .into_iter()
            .map(|w| Input::Text {
                name: w.name.to_string(),
                text: parser::write(&w.build()),
            })
            .collect(),
        Workload::RandomManype => (0..RANDOM_GRAPHS)
            .map(|i| {
                let span = RANDOM_NODES.1 - RANDOM_NODES.0;
                let nodes = RANDOM_NODES.0 + span * i / (RANDOM_GRAPHS - 1);
                let config = RandomGraphConfig {
                    nodes,
                    back_edges: nodes / 3,
                    ..Default::default()
                };
                let graph_seed = mix(RANDOM_GRAPH_SEED ^ mix(i as u64));
                Input::Graph {
                    name: format!("random{nodes}-{graph_seed:016x}"),
                    graph: random_csdfg(config, graph_seed),
                }
            })
            .collect(),
    }
}

/// The job order every round of a run follows: a Fisher-Yates
/// shuffle of the job identifiers, driven by `seed`.  The seed changes
/// nothing else; the inputs are fixed per workload.
pub(crate) fn job_order(jobs: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    let mut state = seed;
    for i in (1..jobs).rev() {
        state = mix(state);
        let j = usize::try_from(state % (i as u64 + 1)).expect("index below job count");
        order.swap(i, j);
    }
    order
}

/// What set-up makes before the first job: the machines, built from
/// their specs, and the input graphs.
pub(crate) struct Setup {
    /// The workload it was made for.
    pub workload: Workload,
    /// Machines in spec order.
    pub machines: Vec<Machine>,
    /// Input graphs; job `j` runs graph `j / machines` on machine
    /// `j % machines`.
    pub graphs: Vec<Input>,
}

impl Setup {
    /// Number of distinct jobs, one per (graph, machine) pair.
    pub fn jobs(&self) -> usize {
        self.graphs.len() * self.machines.len()
    }

    /// The input graph and machine of job `job`.
    pub fn job(&self, job: usize) -> (&Input, &Machine) {
        let m = self.machines.len();
        (&self.graphs[job / m], &self.machines[job % m])
    }

    /// Dense hop-table entries held by the machines (`PEs²` each).
    pub fn hop_entries(&self) -> u64 {
        self.machines
            .iter()
            .map(|m| (m.num_pes() as u64).pow(2))
            .sum()
    }
}

/// Builds the machines of `workload` from their specs and loads its
/// input graphs.
pub(crate) fn setup<T: Tracer>(workload: Workload, tr: &mut T) -> Result<Setup, String> {
    let machines = workload
        .specs()
        .iter()
        .map(|spec| {
            span(tr, "ccs-topology.parse_spec", || parse_spec(spec))
                .map_err(|e| format!("{spec}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        workload,
        machines,
        graphs: load_inputs(workload),
    })
}

/// What one job hands back for checking and counting.
pub(crate) struct JobOut {
    /// The graph the job parsed, for the catalogue workloads.
    pub parsed: Option<Csdfg>,
    /// Input bytes parsed.
    pub parsed_bytes: usize,
    /// The compaction result.
    pub result: Compaction,
    /// The optimality certificate, when the job certifies.
    pub certificate: Option<OptimalityReport>,
    /// Events `ccs_trace::record` captured (traced_report only).
    pub events: usize,
    /// The rendered flight-recorder page (traced_report only).
    pub html: Option<String>,
}

impl JobOut {
    /// The job's input graph.
    pub fn graph<'a>(&'a self, input: &'a Input) -> &'a Csdfg {
        match (&self.parsed, input) {
            (Some(g), _) | (None, Input::Graph { graph: g, .. }) => g,
            (None, Input::Text { .. }) => unreachable!("text inputs are parsed by their job"),
        }
    }
}

/// Parses and checks a graph the way `cyclosched schedule` loads it.
fn load<T: Tracer>(text: &str, machine: &Machine, tr: &mut T) -> Result<Csdfg, String> {
    let g = span(tr, "ccs-model.parse", || parser::parse(text))
        .map_err(|e| format!("parse error: {e}"))?;
    let report = span(tr, "ccs-analyze.analyze_graph", || {
        ccs_analyze::analyze_graph(&g)
    });
    if report.has_errors() {
        return Err(format!("graph analysis: {}", report.render_human()));
    }
    g.check_legal().map_err(|e| format!("illegal graph: {e}"))?;
    let mut report = span(tr, "ccs-analyze.analyze_machine", || {
        ccs_analyze::analyze_machine(machine)
    });
    report.merge(span(tr, "ccs-analyze.analyze_cross", || {
        ccs_analyze::analyze_cross(&g, machine)
    }));
    if report.has_errors() {
        return Err(format!("machine analysis: {}", report.render_human()));
    }
    Ok(g)
}

fn validate<T: Tracer>(r: &Compaction, machine: &Machine, tr: &mut T) -> Result<(), String> {
    span(tr, "ccs-schedule.validate", || {
        ccs_schedule::validate(&r.graph, machine, &r.schedule)
    })
    .map_err(|v| format!("invalid schedule: {v:?}"))
}

/// Runs one job of `workload` on `input` and `machine`.
pub(crate) fn run_job<T: Tracer>(
    workload: Workload,
    input: &Input,
    machine: &Machine,
    tr: &mut T,
) -> Result<JobOut, String> {
    let config = CompactConfig::default();
    match (workload, input) {
        (Workload::RandomManype, Input::Graph { graph, .. }) => {
            let result = span(tr, "ccs-core.cyclo_compact", || {
                cyclo_compact(graph, machine, config)
            })
            .map_err(|e| format!("scheduling failed: {e}"))?;
            validate(&result, machine, tr)?;
            Ok(JobOut {
                parsed: None,
                parsed_bytes: 0,
                result,
                certificate: None,
                events: 0,
                html: None,
            })
        }
        (Workload::PaperCertify, Input::Text { text, .. }) => {
            let g = load(text, machine, tr)?;
            let result = span(tr, "ccs-core.cyclo_compact", || {
                cyclo_compact(&g, machine, config)
            })
            .map_err(|e| format!("scheduling failed: {e}"))?;
            validate(&result, machine, tr)?;
            let certificate = span(tr, "ccs-bounds.certify", || {
                ccs_bounds::certify(&g, machine, &result.schedule)
            });
            Ok(JobOut {
                parsed: Some(g),
                parsed_bytes: text.len(),
                result,
                certificate: Some(certificate),
                events: 0,
                html: None,
            })
        }
        (Workload::TracedReport, Input::Text { name, text }) => {
            let g = load(text, machine, tr)?;
            let (outcome, events) = span(tr, "ccs-trace.record", || {
                ccs_trace::record(|| cyclo_compact(&g, machine, config))
            });
            let result = outcome.map_err(|e| format!("scheduling failed: {e}"))?;
            validate(&result, machine, tr)?;
            let profile = span(tr, "ccs-profile.build", || {
                ccs_profile::build(&events, machine)
            });
            let certificate = span(tr, "ccs-bounds.certify", || {
                ccs_bounds::certify(&g, machine, &result.schedule)
            });
            let title = format!("{name} on {}", machine.name());
            let html = span(tr, "ccs-report.render_report", || {
                ccs_report::render_report(
                    &ccs_report::ReportInput {
                        title: &title,
                        events: &events,
                        machine,
                        profile: &profile,
                        certificate: Some(&certificate),
                    },
                    |n| {
                        result
                            .graph
                            .name(NodeId::from_index(n as usize))
                            .to_string()
                    },
                )
            });
            Ok(JobOut {
                parsed: Some(g),
                parsed_bytes: text.len(),
                result,
                certificate: Some(certificate),
                events: events.len(),
                html: Some(html),
            })
        }
        _ => unreachable!("set-up loads the inputs of its own workload"),
    }
}

/// Standalone layer calls timed in traced rounds next to a job (not
/// part of it): start-up scheduling and the iteration bound, and for
/// `traced_report` the untraced compaction its `record` call wraps.
pub(crate) fn run_probes<T: Tracer>(workload: Workload, g: &Csdfg, machine: &Machine, tr: &mut T) {
    let config = CompactConfig::default();
    black_box(span(tr, "ccs-core.startup_schedule", || {
        startup_schedule(g, machine, StartupConfig::default())
    }))
    .ok();
    black_box(span(tr, "ccs-retiming.iteration_bound", || {
        ccs_retiming::iteration_bound(g)
    }));
    if workload == Workload::TracedReport {
        black_box(span(tr, "ccs-core.cyclo_compact", || {
            cyclo_compact(g, machine, config)
        }))
        .ok();
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
pub(crate) fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Offset basis of [`fnv`].
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The schedule as `cyclosched schedule --csv` prints it.
fn schedule_csv(r: &Compaction) -> String {
    ccs_schedule::to_csv(&r.graph, &r.schedule)
}

/// Digest of a job's schedule; equal digests mean byte-equal CSV.
pub(crate) fn schedule_digest(r: &Compaction) -> u64 {
    fnv(FNV_BASIS, schedule_csv(r).as_bytes())
}

/// Work counts of one job, taken from its outputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Jobs counted.
    pub jobs: u64,
    /// Compaction passes run.
    pub passes_run: u64,
    /// Passes not rolled back.
    pub passes_accepted: u64,
    /// Passes run after the final best length was first reached.
    pub passes_after_best: u64,
    /// Passes run after the length first met the `ccs-bounds` floor.
    pub passes_after_floor: u64,
    /// Events `ccs_trace::record` captured.
    pub events: u64,
    /// Bytes of rendered HTML.
    pub html_bytes: u64,
    /// Bytes of graph text parsed.
    pub parsed_bytes: u64,
    /// Certificates graded optimal.
    pub verdict_optimal: u64,
    /// Certificates graded with a gap.
    pub verdict_gap: u64,
    /// Certificates graded bound-exceeded (always a bug).
    pub verdict_exceeded: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.jobs += other.jobs;
        self.passes_run += other.passes_run;
        self.passes_accepted += other.passes_accepted;
        self.passes_after_best += other.passes_after_best;
        self.passes_after_floor += other.passes_after_floor;
        self.events += other.events;
        self.html_bytes += other.html_bytes;
        self.parsed_bytes += other.parsed_bytes;
        self.verdict_optimal += other.verdict_optimal;
        self.verdict_gap += other.verdict_gap;
        self.verdict_exceeded += other.verdict_exceeded;
    }
}

/// Passes run after the schedule length first reached `target` or
/// less; every pass when the start-up schedule already did.
fn passes_after(history: &[PassRecord], initial: u32, target: u64) -> u64 {
    if u64::from(initial) <= target {
        return history.len() as u64;
    }
    history
        .iter()
        .position(|r| u64::from(r.length) <= target)
        .map_or(0, |i| (history.len() - i - 1) as u64)
}

/// What the oracles established about one job's output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Facts {
    /// Digest of the schedule ([`schedule_digest`]).
    pub digest: u64,
    /// Work counts.
    pub counts: Counts,
    /// Best length over the strongest `ccs-bounds` floor.
    pub period_ratio: f64,
}

/// Replay iterations beyond the largest edge delay, so that every edge
/// is checked against produced (not pre-loaded) tokens.
const REPLAY_EXTRA_ITERATIONS: u32 = 4;

/// Derives one job's facts and checks its output against oracles that
/// do not share its code path.  Untimed.  The facts come back even when
/// an oracle fails, so that verdict counts include the failure.
///
/// - `ccs_schedule::validate` accepts the schedule;
/// - `ccs_sim::replay_static` replays it without a late arrival at
///   exactly its static length;
/// - its `ccs-bounds` verdict is not `BoundExceeded`;
/// - for `traced_report`, `check_html` accepts the page and the traced
///   schedule's CSV equals an untraced run's byte for byte.
pub(crate) fn check<T: Tracer>(
    workload: Workload,
    input: &Input,
    machine: &Machine,
    out: &JobOut,
    tr: &mut T,
) -> (Facts, Result<(), String>) {
    let g = out.graph(input);
    let r = &out.result;
    let certificate = match &out.certificate {
        Some(c) => c.clone(),
        None => ccs_bounds::certify(g, machine, &r.schedule),
    };
    let floor = certificate.bounds.best_value().max(1);
    let facts = Facts {
        digest: schedule_digest(r),
        counts: Counts {
            jobs: 1,
            passes_run: r.history.len() as u64,
            passes_accepted: r.history.iter().filter(|p| !p.reverted).count() as u64,
            passes_after_best: passes_after(&r.history, r.initial_length, u64::from(r.best_length)),
            passes_after_floor: passes_after(&r.history, r.initial_length, floor),
            events: out.events as u64,
            html_bytes: out.html.as_ref().map_or(0, |h| h.len() as u64),
            parsed_bytes: out.parsed_bytes as u64,
            verdict_optimal: u64::from(certificate.verdict == Verdict::Optimal),
            verdict_gap: u64::from(certificate.verdict == Verdict::Gap),
            verdict_exceeded: u64::from(certificate.verdict == Verdict::BoundExceeded),
        },
        period_ratio: f64::from(r.best_length) / floor as f64,
    };
    let name = input.name();
    let mut oracles = || -> Result<(), String> {
        ccs_schedule::validate(&r.graph, machine, &r.schedule)
            .map_err(|v| format!("{name}: validate rejects the schedule: {v:?}"))?;
        let iterations =
            r.graph.deps().map(|e| r.graph.delay(e)).max().unwrap_or(0) + REPLAY_EXTRA_ITERATIONS;
        let replay = span(tr, "ccs-sim.replay_static", || {
            ccs_sim::replay_static(&r.graph, machine, &r.schedule, iterations)
        });
        if !replay.is_valid()
            || replay.period != r.best_length
            || r.schedule.length() != r.best_length
        {
            return Err(format!(
                "{name}: replay at period {} finds {} late arrivals (claimed length {})",
                replay.period,
                replay.violations.len(),
                r.best_length
            ));
        }
        if certificate.verdict == Verdict::BoundExceeded {
            return Err(format!(
                "{name}: period {} beats a proven bound {}",
                r.best_length,
                certificate.bounds.best_value()
            ));
        }
        if workload == Workload::TracedReport {
            let html = out.html.as_deref().unwrap_or_default();
            ccs_report::check::check_html(html)
                .map_err(|errs| format!("{name}: report-check: {}", errs.join("; ")))?;
            let untraced = cyclo_compact(g, machine, CompactConfig::default())
                .map_err(|e| format!("{name}: untraced run failed: {e}"))?;
            if schedule_csv(&untraced) != schedule_csv(r) {
                return Err(format!(
                    "{name}: traced schedule differs from the untraced one"
                ));
            }
        }
        Ok(())
    };
    (facts, oracles())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(length: u32) -> PassRecord {
        PassRecord {
            pass: 0,
            rotated: Vec::new(),
            length,
            reverted: false,
            wall_ms: 0.0,
        }
    }

    #[test]
    fn passes_after_counts_from_first_reach() {
        let h: Vec<_> = [9, 8, 7, 7, 8, 7].into_iter().map(rec).collect();
        assert_eq!(passes_after(&h, 10, 7), 3);
        assert_eq!(passes_after(&h, 10, 6), 0);
        assert_eq!(passes_after(&h, 7, 7), 6);
    }

    #[test]
    fn seed_changes_job_order_only() {
        assert_eq!(job_order(32, 1), job_order(32, 1));
        assert_ne!(job_order(32, 1), job_order(32, 2));
        let mut sorted = job_order(32, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        let text = |w: Workload| -> Vec<String> {
            load_inputs(w)
                .iter()
                .map(|g| match g {
                    Input::Graph { graph, .. } => parser::write(graph),
                    Input::Text { text, .. } => text.clone(),
                })
                .collect()
        };
        assert_eq!(text(Workload::RandomManype), text(Workload::RandomManype));
        let sizes: Vec<usize> = load_inputs(Workload::RandomManype)
            .iter()
            .map(|g| match g {
                Input::Graph { graph, .. } => graph.task_count(),
                Input::Text { .. } => 0,
            })
            .collect();
        assert_eq!(sizes.first(), Some(&64));
        assert_eq!(sizes.last(), Some(&128));
        assert_eq!(load_inputs(Workload::PaperCertify).len(), 10);
    }
}
