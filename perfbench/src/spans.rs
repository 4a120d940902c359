//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The job code is generic over [`Tracer`]: the untraced rounds run it
//! with [`NoSpans`], whose methods compile to nothing, so end-to-end
//! timings carry no tracing cost.  The traced rounds run it with
//! [`SpanLog`], which keeps every span in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where a span was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One set-up repetition (machine construction).
    Setup,
    /// The untimed oracle pass over the reference round.
    Oracle,
    /// A traced measurement round.
    Round,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Oracle => "oracle",
            Phase::Round => "round",
        }
    }
}

/// Opens and closes spans; see the module docs.
pub(crate) trait Tracer {
    /// Opens a span named `name`, child of the innermost open span.
    fn begin(&mut self, name: &'static str) -> usize;
    /// Closes the span `begin` returned.
    fn end(&mut self, span: usize);
}

/// Runs `f` inside a span named `name`.
pub(crate) fn span<T: Tracer, R>(tracer: &mut T, name: &'static str, f: impl FnOnce() -> R) -> R {
    let s = tracer.begin(name);
    let out = f();
    tracer.end(s);
    out
}

/// The tracer of untraced runs: records nothing.
pub(crate) struct NoSpans;

impl Tracer for NoSpans {
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) -> usize {
        0
    }

    #[inline(always)]
    fn end(&mut self, _span: usize) {}
}

/// One closed span.  Spans of one job share `job`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, `<crate>.<function>`, or `job` for a whole job.
    pub name: &'static str,
    /// Identifier shared by every span of one job run.
    pub job: u32,
    /// The distinct job that ran (the same in every round).
    pub key: u32,
    /// Phase the job ran in.
    pub phase: Phase,
    /// Set-up repetition or round number within the phase.
    pub round: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct SpanLog {
    t0: Instant,
    job: u32,
    key: u32,
    phase: Phase,
    round: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            t0: Instant::now(),
            job: 0,
            key: 0,
            phase: Phase::Setup,
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Starts a run of distinct job `key`: later spans get a fresh
    /// job identifier.
    pub(crate) fn start_job(&mut self, phase: Phase, round: u32, key: u32) {
        debug_assert!(self.open.is_empty(), "a job started inside a span");
        self.job += 1;
        self.key = key;
        self.phase = phase;
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the time its child
    /// spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time of `name` in `phase`, in nanoseconds, taking each
    /// distinct job at its fastest run: the sum over jobs of the
    /// minimum over rounds of the job's total self time in `name`
    /// spans.  A run without a `name` span counts as 0.
    pub(crate) fn fastest_self_ns(&self, phase: Phase, name: &str) -> f64 {
        let mut per_run: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if s.phase == phase {
                let total = per_run.entry((s.key, s.round)).or_default();
                if s.name == name {
                    *total += ns;
                }
            }
        }
        let mut fastest: BTreeMap<u32, u64> = BTreeMap::new();
        for ((key, _), ns) in per_run {
            let best = fastest.entry(key).or_insert(u64::MAX);
            *best = (*best).min(ns);
        }
        fastest.values().map(|&ns| ns as f64).sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"key\":{},\"phase\":\"{}\",\
                 \"round\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.job,
                s.key,
                s.phase.name(),
                s.round,
                s.start_ns,
                s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

impl Tracer for SpanLog {
    fn begin(&mut self, name: &'static str) -> usize {
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            key: self.key,
            phase: self.phase,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(ix);
        ix
    }

    fn end(&mut self, span: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span), "spans must close innermost first");
        self.spans[span].end_ns = self.now_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let mut runs = Vec::new();
        for (round, sleep_ms) in [(0, 4), (1, 2)] {
            log.start_job(Phase::Round, round, 7);
            let job = log.begin("job");
            let a = log.begin("a");
            std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            log.end(a);
            log.end(job);
            runs.push((job, a));
        }
        let self_ns = log.self_ns();
        let (job, a) = runs[1];
        assert_eq!(log.spans()[a].parent, Some(job));
        assert_eq!(
            self_ns[job],
            log.spans()[job].dur_ns() - log.spans()[a].dur_ns()
        );
        let fastest = log.fastest_self_ns(Phase::Round, "a");
        assert_eq!(fastest, self_ns[runs[0].1].min(self_ns[a]) as f64);
        assert!(fastest >= 2e6);
        assert_eq!(log.fastest_self_ns(Phase::Round, "absent"), 0.0);
        assert!(log.to_json().contains("\"key\":7"));
    }
}
