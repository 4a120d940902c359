//! Deterministic single-file HTML/SVG flight recorder for one
//! cyclo-compaction scheduling run.
//!
//! [`render_report`] folds a recorded `ccs-trace` event stream plus
//! the run's [`CommProfile`] and (optionally) its `ccs-bounds`
//! optimality certificate into one self-contained HTML document with
//! four panels:
//!
//! 1. `#schedule` — a start-up Gantt SVG and one strip per accepted
//!    rotate-remap pass showing the rotated nodes' new placements,
//!    with hover titles naming the candidate scan's `AN`-window
//!    verdicts for every PE considered.
//! 2. `#heatmaps` — a link-load heatmap SVG per accepted phase,
//!    rendered from that phase's edge ledger.
//! 3. `#trajectory` — the pass trajectory table (length, comm/compute
//!    balance) and per-pass ledger diffs: which edges' hop·volume
//!    moved, where, and by how much.
//! 4. `#certificate` — the schedule graded against the proven period
//!    floors, witnesses inline.
//!
//! The page streams into one `String`, sized once from the run's
//! content: every panel renderer appends to it (`&mut String` in,
//! nothing out) through [`html::document`] and [`html::section`], and
//! link loads for every accepted phase share one
//! [`LinkRoutes`](ccs_profile::LinkRoutes) of the machine.
//!
//! Everything is a pure function of the inputs: no wall-clock content,
//! no randomness, byte-identical across thread counts.  All dynamic
//! text passes through the one audited [`html::esc`] adaptor, which
//! escapes as it writes; the Gantt grid loops append integers with
//! [`html::push_uint`] at sites marked `ESCAPED:` (digits cannot form
//! markup).  The rendered artifact is re-validated by `report-check`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod diff;
pub mod fold;
pub mod grid;
pub mod html;

use ccs_bounds::{OptimalityReport, Verdict as BoundsVerdict, Witness};
use ccs_profile::render::{heatmap_panel, PanelOptions};
use ccs_profile::{diff_ledgers, link_loads, route_label, CommProfile, EdgeTraffic, LinkRoutes};
use ccs_topology::Machine;
use ccs_trace::TimedEvent;
use fold::{PassStory, Remap, RunStory};
use html::{esc, push_uint};
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

/// Ledger-diff rows shown per pass in the trajectory panel.
pub const DIFF_TOP_K: usize = 8;

/// Everything one report needs, borrowed from the caller.
pub struct ReportInput<'a> {
    /// Report title (workload + machine, typically).
    pub title: &'a str,
    /// The recorded event stream of the run.
    pub events: &'a [TimedEvent],
    /// The machine the run targeted.
    pub machine: &'a Machine,
    /// The communication profile folded from the same events.
    pub profile: &'a CommProfile,
    /// The optimality certificate for the achieved period, if graded.
    pub certificate: Option<&'a OptimalityReport>,
}

/// Gantt geometry: control-step cell width, PE row height, margins.
const CW: u32 = 16;
const RH: u32 = 18;
const G_LEFT: u32 = 44;
const G_TOP: u32 = 24;

/// One bar of a Gantt strip.
struct Bar<'a> {
    pe: u32,
    cs: u32,
    duration: u32,
    rotated: bool,
    /// The node's name.
    label: String,
    /// The re-placement a pass strip draws; `None` for a start-up bar.
    remap: Option<&'a Remap>,
}

/// Appends a bar's hover title, escaped: a start-up bar names its
/// slot, a pass bar its whole re-placement story.
fn bar_title(out: &mut String, b: &Bar<'_>) {
    if let Some(r) = b.remap {
        remap_title(out, r, &b.label);
        return;
    }
    let _ = write!(
        out,
        "{}",
        esc(format_args!(
            "{} -> PE{}, cs {}..{}",
            b.label,
            b.pe + 1,
            b.cs,
            b.cs + b.duration
        ))
    );
    if b.rotated {
        out.push_str("\nrotated during compaction");
    }
}

fn gantt_svg(
    out: &mut String,
    caption: impl fmt::Display,
    pes: u32,
    length: u32,
    bars: &[Bar<'_>],
) {
    let length = length.max(1);
    let width = G_LEFT + length * CW + 8;
    let height = G_TOP + pes.max(1) * RH + 6;
    let _ = writeln!(
        out,
        "<svg class=\"gantt\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" role=\"img\">"
    );
    let _ = writeln!(
        out,
        "<text class=\"g-cap\" x=\"4\" y=\"14\">{}</text>",
        esc(caption)
    );
    // Control-step grid and axis labels (thinned on long schedules).
    // ESCAPED: the grid and axis loops write fixed markup around
    // integers (coordinates, control steps, PE numbers); digits cannot
    // carry markup.
    let tick = (length / 12).max(1);
    for cs in 0..=length {
        let x = G_LEFT + cs * CW;
        out.push_str("<line class=\"g-grid\" x1=\"");
        push_uint(out, x);
        out.push_str("\" y1=\"");
        push_uint(out, G_TOP);
        out.push_str("\" x2=\"");
        push_uint(out, x);
        out.push_str("\" y2=\"");
        push_uint(out, G_TOP + pes * RH);
        out.push_str("\"/>\n");
        if cs % tick == 0 && cs < length {
            out.push_str("<text class=\"g-ax\" x=\"");
            push_uint(out, x + 2);
            out.push_str("\" y=\"");
            push_uint(out, G_TOP - 4);
            out.push_str("\">");
            push_uint(out, cs);
            out.push_str("</text>\n");
        }
    }
    for pe in 0..pes {
        out.push_str("<text class=\"g-ax\" x=\"2\" y=\"");
        push_uint(out, G_TOP + pe * RH + 12);
        out.push_str("\">PE");
        push_uint(out, pe + 1);
        out.push_str("</text>\n");
    }
    for b in bars {
        let x = G_LEFT + b.cs * CW;
        let y = G_TOP + b.pe * RH + 2;
        let w = (b.duration.max(1) * CW).saturating_sub(1).max(2);
        let class = if b.rotated { "g-rot" } else { "g-rect" };
        let _ = write!(
            out,
            "<rect class=\"{class}\" x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{}\"><title>",
            RH - 4
        );
        bar_title(out, b);
        out.push_str("</title></rect>\n");
        if w >= 18 {
            let _ = writeln!(
                out,
                "<text class=\"g-lbl\" x=\"{}\" y=\"{}\">{}</text>",
                x + 3,
                y + 11,
                esc(&b.label)
            );
        }
    }
    out.push_str("</svg>\n");
}

/// Appends the escaped hover title of one re-placement: the chosen
/// slot, the runner-up, and the candidate scan's `AN`-window verdicts.
fn remap_title(out: &mut String, r: &Remap, node: &str) {
    let _ = write!(
        out,
        "{}",
        esc(format_args!(
            "{node} -> PE{}, cs {}..{} (target {}, impact {}, comm {})",
            r.pe + 1,
            r.cs,
            r.cs + r.duration,
            r.target,
            r.impact,
            r.comm
        ))
    );
    if let Some(ru) = &r.runner_up {
        let _ = write!(out, "{}", esc(format_args!("\nrunner-up: {ru}")));
    }
    if !r.candidates.is_empty() {
        out.push_str("\ncandidate scan (AN windows):");
        for c in &r.candidates {
            let _ = write!(
                out,
                "{}",
                esc(format_args!(
                    "\n  PE{}: window [{}, {}], comm {} -> {}",
                    c.pe + 1,
                    c.lb,
                    c.ub,
                    c.comm,
                    c.verdict
                ))
            );
        }
    }
}

fn names_of(nodes: &[u32], mut name: impl FnMut(u32) -> String) -> String {
    let v: Vec<String> = nodes.iter().map(|&n| name(n)).collect();
    v.join(", ")
}

fn schedule_section(out: &mut String, story: &RunStory, mut name: impl FnMut(u32) -> String) {
    let rotated_ever: BTreeSet<u32> = story
        .passes
        .iter()
        .flat_map(|p| p.rotated.iter().copied())
        .collect();
    let bars: Vec<Bar<'_>> = story
        .startup
        .iter()
        .map(|s| Bar {
            pe: s.pe,
            cs: s.cs,
            duration: s.duration,
            rotated: rotated_ever.contains(&s.node),
            label: name(s.node),
            remap: None,
        })
        .collect();
    gantt_svg(
        out,
        format_args!(
            "start-up schedule (pass 0): length {}",
            story.startup_length
        ),
        story.pes,
        story.startup_length,
        &bars,
    );
    for p in &story.passes {
        if p.accepted {
            pass_strip(out, p, story.pes, &mut name);
        } else {
            let _ = writeln!(
                out,
                "<p>pass {} <span class=\"reverted\">reverted</span>: \
                 length would be {}, rotated J = {{{}}} rolled back</p>",
                esc(p.pass),
                esc(p.length),
                esc(names_of(&p.rotated, &mut name))
            );
        }
    }
}

fn pass_strip(out: &mut String, p: &PassStory, pes: u32, mut name: impl FnMut(u32) -> String) {
    let bars: Vec<Bar<'_>> = p
        .remaps
        .iter()
        .map(|r| Bar {
            pe: r.pe,
            cs: r.cs,
            duration: r.duration,
            rotated: true,
            label: name(r.node),
            remap: Some(r),
        })
        .collect();
    let span = bars
        .iter()
        .map(|b| b.cs + b.duration)
        .max()
        .unwrap_or(0)
        .max(p.length);
    let mut caption = format!(
        "pass {} accepted: length {} -> {}, rotated J = {{{}}}",
        p.pass,
        p.prev_len,
        p.length,
        names_of(&p.rotated, &mut name)
    );
    if p.no_slots > 0 {
        let _ = write!(
            caption,
            " ({} failed attempt(s) retried longer)",
            p.no_slots
        );
    }
    gantt_svg(out, &caption, pes, span, &bars);
}

fn ledger_comm(edges: &[EdgeTraffic]) -> u64 {
    edges
        .iter()
        .map(|e| e.cost())
        .fold(0u64, u64::saturating_add)
}

/// A phase's display name: `start-up (pass 0)` or `pass N`.
#[derive(Clone, Copy)]
pub(crate) struct Phase(pub(crate) u32);

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => f.write_str("start-up (pass 0)"),
            pass => write!(f, "pass {pass}"),
        }
    }
}

fn heatmaps_section(out: &mut String, profile: &CommProfile, routes: &LinkRoutes) {
    if profile.pass_ledgers.is_empty() {
        out.push_str("<p>no accepted phases recorded</p>\n");
        return;
    }
    let can_route = routes.table().is_some();
    for l in &profile.pass_ledgers {
        heatmap_panel(
            out,
            format_args!(
                "{}: length {}, comm {}",
                Phase(l.pass),
                l.length,
                ledger_comm(&l.edges)
            ),
            profile.pes,
            &l.edges,
            &link_loads(routes, &l.edges),
            PanelOptions {
                routable: can_route,
                ..PanelOptions::default()
            },
        );
    }
}

fn trajectory_section(
    out: &mut String,
    profile: &CommProfile,
    routes: &LinkRoutes,
    mut name: impl FnMut(u32) -> String,
) {
    out.push_str(
        "<table>\n<thead><tr><th class=\"l\">phase</th><th class=\"l\">outcome</th>\
         <th>length</th><th>comm</th><th>crossing</th><th>local</th></tr></thead>\n<tbody>\n",
    );
    for p in &profile.passes {
        let outcome = if p.accepted {
            "<span class=\"accepted\">accepted</span>"
        } else {
            "<span class=\"reverted\">reverted</span>"
        };
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td class=\"l\">{outcome}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(Phase(p.pass)),
            esc(p.length),
            esc(p.comm),
            esc(p.crossing),
            esc(p.local)
        );
    }
    out.push_str("</tbody>\n</table>\n");
    let _ = writeln!(
        out,
        "<p>compute {} cells, best-schedule comm {} (hop-weighted)</p>",
        esc(profile.compute),
        esc(profile.total_comm)
    );

    for pair in profile.pass_ledgers.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        let deltas = diff_ledgers(&prev.edges, &cur.edges);
        let (a, b) = (ledger_comm(&prev.edges), ledger_comm(&cur.edges));
        let shift = i64::try_from(b).unwrap_or(i64::MAX) - i64::try_from(a).unwrap_or(i64::MAX);
        let _ = writeln!(
            out,
            "<h3>ledger diff: {} -> {}</h3>",
            esc(Phase(prev.pass)),
            esc(Phase(cur.pass))
        );
        let _ = writeln!(
            out,
            "<p>comm {} -> {} ({}), {} of {} edge(s) moved</p>",
            esc(a),
            esc(b),
            esc(format_args!("{shift:+}")),
            esc(deltas.len()),
            esc(cur.edges.len())
        );
        if deltas.is_empty() {
            continue;
        }
        out.push_str(
            "<table>\n<thead><tr><th class=\"l\">edge</th><th class=\"l\">route before</th>\
             <th class=\"l\">route after</th><th>cost before</th><th>cost after</th>\
             <th>shift</th></tr></thead>\n<tbody>\n",
        );
        for d in deltas.iter().take(DIFF_TOP_K) {
            let _ = writeln!(
                out,
                "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(format_args!(
                    "e{} {}->{}",
                    d.after.edge,
                    name(d.after.src),
                    name(d.after.dst)
                )),
                esc(route_label(routes.table(), &d.before)),
                esc(route_label(routes.table(), &d.after)),
                esc(d.before.cost()),
                esc(d.after.cost()),
                esc(format_args!("{:+}", d.delta()))
            );
        }
        out.push_str("</tbody>\n</table>\n");
        if deltas.len() > DIFF_TOP_K {
            let _ = writeln!(
                out,
                "<p>({} more changed edge(s) not shown)</p>",
                esc(deltas.len() - DIFF_TOP_K)
            );
        }
    }
}

fn witness_label(w: &Witness) -> String {
    match w {
        Witness::Cycle { nodes, ratio } => {
            format!("cycle {} (ratio {ratio})", nodes.join(" -> "))
        }
        Witness::Resource {
            total_compute,
            usable_pes,
            heaviest,
            shared_pair,
        } => {
            let mut s = format!("W={total_compute} over {usable_pes} PE(s), heaviest {heaviest}");
            if let Some((a, b)) = shared_pair {
                let _ = write!(s, "; {a} and {b} must share a PE");
            }
            s
        }
        Witness::Chain { nodes, total_time } => {
            format!(
                "zero-delay chain {} (time {total_time})",
                nodes.join(" -> ")
            )
        }
        Witness::Cut {
            pes_used,
            compute_floor,
            comm_floor,
            edge,
            route,
        } => {
            let mut s =
                format!("{pes_used} PE(s): compute floor {compute_floor}, comm floor {comm_floor}");
            if let Some((a, b)) = edge {
                // ESCAPED: builds a plain-text label; the certificate
                // table routes it through esc() at the render site.
                let _ = write!(s, "; cheapest crossing {a}->{b}");
            }
            if !route.is_empty() {
                let hops: Vec<String> = route.iter().map(|p| format!("PE{}", p + 1)).collect();
                let _ = write!(s, " via {}", hops.join(">"));
            }
            s
        }
    }
}

fn certificate_section(out: &mut String, report: Option<&OptimalityReport>) {
    let Some(r) = report else {
        out.push_str("<p>no certificate was computed for this run</p>\n");
        return;
    };
    let best = r.bounds.best_value();
    out.push_str(
        "<table>\n<thead><tr><th class=\"l\">bound</th><th>floor</th>\
         <th class=\"l\">witness</th></tr></thead>\n<tbody>\n",
    );
    for c in r.bounds.certificates() {
        let binding = if c.value == best {
            " class=\"binding\""
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "<tr{binding}><td class=\"l\">{}</td><td>{}</td><td class=\"l\">{}</td></tr>",
            esc(c.kind.name()),
            esc(c.value),
            esc(witness_label(&c.witness))
        );
    }
    out.push_str("</tbody>\n</table>\n");
    match r.verdict {
        BoundsVerdict::Optimal => {
            let _ = writeln!(
                out,
                "<p>period {}: <span class=\"accepted\">PROVABLY OPTIMAL</span> \
                 — meets the strongest floor {}</p>",
                esc(r.period),
                esc(best)
            );
        }
        BoundsVerdict::Gap => {
            let _ = writeln!(
                out,
                "<p>period {}: within {} step(s) of the strongest proven floor {} (gap {}%)</p>",
                esc(r.period),
                esc(r.gap),
                esc(best),
                esc(format_args!("{:.1}", r.gap_pct))
            );
        }
        BoundsVerdict::BoundExceeded => {
            let _ = writeln!(
                out,
                "<p>period {}: <span class=\"reverted\">BELOW A PROVEN BOUND</span> \
                 — certifier or scheduler bug</p>",
                esc(r.period)
            );
        }
    }
    let _ = writeln!(
        out,
        "<details><summary>full certificate</summary>\n<pre>{}</pre>\n</details>",
        esc(r.render_human())
    );
}

/// The bytes [`render_report`] writes for a run, estimated from the
/// counts that size each panel — matrix cells and links per heatmap,
/// grid lines and bars per Gantt strip, rows of the trajectory — at
/// their typical line lengths, so the page buffer is allocated once,
/// close to its final size.
fn page_size_hint(story: &RunStory, profile: &CommProfile, machine: &Machine) -> usize {
    let pes = story.pes as usize;
    let strip = |length: u32, bars: usize, candidates: usize| {
        let length = length as usize;
        320 + (length + 1) * 60
            + (length.min(24) + 1) * 46
            + pes * 48
            + bars * 170
            + candidates * 46
    };
    let mut schedule = strip(story.startup_length, story.startup.len(), 0);
    for p in &story.passes {
        schedule += if p.accepted {
            let candidates = p.remaps.iter().map(|r| r.candidates.len()).sum();
            strip(p.length, p.remaps.len(), candidates)
        } else {
            200
        };
    }
    let panel = 512 + pes * 128 + pes * pes * 120 + machine.links().len() * 244;
    let heatmaps = profile.pass_ledgers.len() * panel;
    // A ledger diff shows at most `DIFF_TOP_K` rows: bound it by that.
    let diffs: usize = profile
        .pass_ledgers
        .iter()
        .map(|l| 300 + l.edges.len().min(DIFF_TOP_K) * 140)
        .sum();
    let trajectory = profile.passes.len() * 140 + diffs;
    html::STYLE.len() + 4096 + schedule + heatmaps + trajectory
}

/// Renders the complete report document.  `name` resolves node indices
/// to human names (the graph's node names, typically).
///
/// The page streams into one buffer: every section appends straight to
/// it, and the buffer is sized once from the run's content.
pub fn render_report(input: &ReportInput<'_>, mut name: impl FnMut(u32) -> String) -> String {
    let story = fold::fold(input.events);
    let routes = LinkRoutes::new(input.machine);
    let accepted = story.accepted_passes().count();
    let mut out = String::with_capacity(page_size_hint(&story, input.profile, input.machine));
    html::document(
        &mut out,
        input.title,
        format_args!(
            "{} task(s) on {} PE(s) ({}); start-up length {} -> best {} after {} pass(es), {} accepted",
            story.tasks,
            story.pes,
            input.machine.name(),
            story.startup_length,
            story.best_length,
            story.passes_run,
            accepted
        ),
        |out| {
            html::section(
                out,
                "schedule",
                "Schedule: start-up placement and accepted passes",
                |out| schedule_section(out, &story, &mut name),
            );
            html::section(
                out,
                "heatmaps",
                "Link-load heatmaps per accepted phase",
                |out| heatmaps_section(out, input.profile, &routes),
            );
            html::section(
                out,
                "trajectory",
                "Pass trajectory and ledger diffs",
                |out| trajectory_section(out, input.profile, &routes, &mut name),
            );
            html::section(out, "certificate", "Optimality certificate", |out| {
                certificate_section(out, input.certificate)
            });
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_trace::Event;

    fn te(event: Event) -> TimedEvent {
        TimedEvent { ns: 0, event }
    }

    fn tiny_events() -> Vec<TimedEvent> {
        vec![
            te(Event::StartupBegin { tasks: 2, pes: 2 }),
            te(Event::StartupPlace {
                node: 0,
                pe: 0,
                cs: 0,
                duration: 1,
            }),
            te(Event::StartupPlace {
                node: 1,
                pe: 1,
                cs: 1,
                duration: 1,
            }),
            te(Event::StartupEnd { length: 2 }),
            te(Event::CompactEnd {
                initial: 2,
                best: 2,
                passes: 0,
            }),
        ]
    }

    #[test]
    fn report_shell_carries_all_four_sections() {
        let m = Machine::linear_array(2);
        let events = tiny_events();
        let profile = ccs_profile::build(&events, &m);
        let html = render_report(
            &ReportInput {
                title: "tiny on line2",
                events: &events,
                machine: &m,
                profile: &profile,
                certificate: None,
            },
            |n| format!("n{n}"),
        );
        for id in ["schedule", "heatmaps", "trajectory", "certificate"] {
            assert!(
                html.contains(&format!("<section id=\"{id}\">")),
                "missing section {id}"
            );
        }
        assert!(html.contains("start-up schedule (pass 0): length 2"));
        assert!(html.contains("no certificate was computed"));
    }

    #[test]
    fn hostile_node_names_are_escaped_everywhere() {
        let m = Machine::linear_array(2);
        let events = tiny_events();
        let profile = ccs_profile::build(&events, &m);
        let html = render_report(
            &ReportInput {
                title: "t",
                events: &events,
                machine: &m,
                profile: &profile,
                certificate: None,
            },
            |n| format!("<b>&n{n}</b>"),
        );
        assert!(!html.contains("<b>"), "raw node name leaked into markup");
        assert!(html.contains("&lt;b&gt;&amp;n0&lt;/b&gt;"));
    }

    #[test]
    fn gantt_viewbox_matches_width_and_height() {
        let mut svg = String::new();
        gantt_svg(&mut svg, "cap", 2, 3, &[]);
        let w = G_LEFT + 3 * CW + 8;
        let h = G_TOP + 2 * RH + 6;
        assert!(svg.contains(&format!(
            "width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\""
        )));
    }
}
