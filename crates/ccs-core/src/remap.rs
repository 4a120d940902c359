//! One rotate-and-remap pass (paper §4: `Rotate-Remap` and
//! `Remapping`).
//!
//! Rotation deallocates the first row of the schedule table and retimes
//! those nodes by `+1` (always legal: a node at control step 1 cannot
//! have a zero-delay incoming edge).  Remapping then re-places each
//! rotated node at the best `(processor, control step)` permitted by
//! the anticipation function `AN` (Lemma 4.2) for a *target* schedule
//! length, preferring one control step shorter than before.

use ccs_model::{Csdfg, NodeId};
use ccs_retiming::{rotate_in_place, unrotate_in_place};
use ccs_schedule::{required_length, Schedule, Slot};
use ccs_topology::{Machine, Pe};
use ccs_trace::{Event, Off, Probe, RunnerUp, Tls, Verdict};

/// Raw `u32` index of a node, for event payloads.  (Node indices are
/// backed by `u32` so the fallback is unreachable; `try_from` keeps
/// the remap hot path free of `as` casts.)
#[inline]
pub(crate) fn nid(v: NodeId) -> u32 {
    u32::try_from(v.index()).unwrap_or(u32::MAX)
}

/// Per-pass hot-path counters behind [`Event::PassStats`].  Only
/// maintained when the probe is active — every increment is gated on
/// `P::ACTIVE`, so the disabled path carries no bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    /// Resolved edges swept in `scan` (per PE × target).
    pub edges_swept: u64,
    /// Candidate slots probed via `earliest_free`.
    pub slots_probed: u64,
    /// Per-node scratch resolutions reused across targets.
    pub scratch_reuses: u64,
    /// Invariant-oracle invocations (0 unless the oracle is compiled
    /// in; see `oracle::ENABLED`).
    pub oracle_calls: u64,
}

impl Counters {
    /// The corresponding [`Event::PassStats`] payload.
    pub fn stats_event(self) -> Event {
        Event::PassStats {
            edges_swept: self.edges_swept,
            slots_probed: self.slots_probed,
            scratch_reuses: self.scratch_reuses,
            oracle_calls: self.oracle_calls,
        }
    }
}

/// Remapping policy (Definition 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RemapMode {
    /// Never allow the schedule to grow: if the rotated nodes cannot be
    /// re-placed within the previous length, the pass is abandoned and
    /// the previous schedule kept (this is what makes Theorem 4.4 —
    /// monotone non-increase — hold).
    WithoutRelaxation,
    /// Allow intermediate growth (bounded by
    /// [`RemapConfig::max_growth`]); the driver keeps the best schedule
    /// seen, so temporary growth can unlock shorter schedules later.
    #[default]
    WithRelaxation,
}

/// Options for a rotate-remap pass.
#[derive(Clone, Copy, Debug)]
pub struct RemapConfig {
    /// Relaxation policy.
    pub mode: RemapMode,
    /// With relaxation: how many control steps beyond the previous
    /// length the intermediate schedule may grow.
    pub max_growth: u32,
    /// How many leading schedule rows to rotate per pass (the paper
    /// rotates one; larger values are the multi-row extension — bigger
    /// moves per pass, coarser search).  Clamped to the current
    /// schedule length.
    pub rows_per_pass: u32,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig {
            mode: RemapMode::default(),
            max_growth: 8,
            rows_per_pass: 1,
        }
    }
}

/// Result of one rotate-remap pass.
#[derive(Clone, Debug)]
pub struct PassOutcome {
    /// The schedule after the pass (equal to the input when `reverted`).
    pub schedule: Schedule,
    /// The (retimed) graph after the pass.
    pub graph: Csdfg,
    /// Nodes that were rotated this pass.
    pub rotated: Vec<NodeId>,
    /// `true` when the pass could not re-place the rotated nodes within
    /// the mode's length budget and was rolled back.
    pub reverted: bool,
}

/// Result of one in-place rotate-remap pass
/// ([`rotate_remap_in_place`]).  On revert the borrowed graph and
/// schedule are restored to their pre-pass state, so no cloned copies
/// need to travel back to the caller.
#[derive(Clone, Debug)]
pub struct InPlaceOutcome {
    /// Nodes that were rotated this pass.
    pub rotated: Vec<NodeId>,
    /// `true` when the pass could not re-place the rotated nodes within
    /// the mode's length budget and was rolled back.
    pub reverted: bool,
}

/// Performs one rotation + remapping pass on `(g, sched)`, allocating
/// fresh copies for the outcome.  Thin cloning wrapper around
/// [`rotate_remap_in_place`] for callers that want to keep the inputs.
///
/// `sched` must be a valid schedule of `g` on `machine` (callers in
/// this crate always pass validated schedules; debug builds re-assert).
pub fn rotate_remap(
    g: &Csdfg,
    machine: &Machine,
    sched: &Schedule,
    config: RemapConfig,
) -> PassOutcome {
    let mut graph = g.clone();
    let mut schedule = sched.clone();
    let out = rotate_remap_in_place(&mut graph, machine, &mut schedule, config);
    PassOutcome {
        schedule,
        graph,
        rotated: out.rotated,
        reverted: out.reverted,
    }
}

/// Performs one rotation + remapping pass directly on `(g, sched)`.
///
/// On success the borrowed graph carries the rotation's retiming delta
/// and the schedule holds the remapped placements.  On revert both are
/// rolled back in place — rotated slots are restored from a saved
/// first-rows snapshot (the only per-pass allocation proportional to
/// the rotation set, not the whole table) and the rotation is undone
/// edge-by-edge, so a failed pass costs no full-graph or full-table
/// clone.
///
/// `sched` must be a valid schedule of `g` on `machine` (callers in
/// this crate always pass validated schedules; debug builds re-assert).
pub fn rotate_remap_in_place(
    g: &mut Csdfg,
    machine: &Machine,
    sched: &mut Schedule,
    config: RemapConfig,
) -> InPlaceOutcome {
    // One dispatch per pass: with no sink installed the `Off` probe
    // monomorphizes every instrumentation site away and this is the
    // exact pre-tracing code path.
    if ccs_trace::installed() {
        remap_probed(g, machine, sched, config, &mut Tls)
    } else {
        remap_probed(g, machine, sched, config, &mut Off)
    }
}

/// [`rotate_remap_in_place`] instrumented against probe `P` (the
/// driver threads one probe through the whole run so dispatch happens
/// once per `cyclo_compact`, not once per pass).
pub(crate) fn remap_probed<P: Probe>(
    g: &mut Csdfg,
    machine: &Machine,
    sched: &mut Schedule,
    config: RemapConfig,
    probe: &mut P,
) -> InPlaceOutcome {
    let mut counters = Counters::default();
    // Connectivity is a construction-time property (cached, O(1));
    // past this point the hot path reads the hop table branch-free.
    debug_assert!(
        machine.is_connected(),
        "cannot remap on disconnected machine {}",
        machine.name()
    );
    crate::oracle::verify("rotate_remap_in_place: entry", g, machine, sched);
    if P::ACTIVE {
        counters.oracle_calls += u64::from(crate::oracle::ENABLED);
    }
    let prev_len = sched.length();
    let rows = config.rows_per_pass.clamp(1, prev_len.max(1));
    let mut rotated = sched.rows_upto(rows);
    rotated.sort_by_key(|&v| {
        (
            sched.cb(v).unwrap_or(0),
            sched.pe(v).map(|p| p.index()).unwrap_or(0),
            v.index(),
        )
    });

    // Rotation (Definition 4.1). Legal by construction: a node in the
    // first `rows` rows can only have zero-delay in-edges from other
    // nodes in those rows (their producers finish even earlier), so
    // every in-edge from outside the set carries a delay.
    if rotate_in_place(g, &rotated).is_err() {
        // Unreachable for valid schedules; treat as a no-op pass
        // (`rotate_in_place` leaves `g` untouched on error).
        return InPlaceOutcome {
            rotated,
            reverted: true,
        };
    }
    if P::ACTIVE {
        probe.emit(Event::Rotate {
            nodes: rotated.iter().map(|&v| nid(v)).collect(),
        });
    }

    // Snapshot the rotated nodes' slots so a revert can restore them
    // without a table clone.
    let saved: Vec<(NodeId, Slot)> = rotated
        .iter()
        // INVARIANT: the rotation set came from rows_upto, which only
        // yields placed nodes, and nothing was removed since.
        .map(|&v| (v, sched.slot(v).expect("rotated nodes are placed")))
        .collect();
    sched.drop_and_shift_by(&rotated, rows);

    // Targets to try, in order of preference: one step shorter first.
    let targets: Vec<u32> = match config.mode {
        RemapMode::WithoutRelaxation => vec![prev_len.saturating_sub(1).max(1), prev_len],
        RemapMode::WithRelaxation => (0..=config.max_growth + 1)
            .map(|d| (prev_len.saturating_sub(1).max(1)) + d)
            .collect(),
    };

    // Hoist each rotated node's adjacency (endpoints, delay, volume)
    // out of the graph once per pass; `scan` then only touches
    // flat slices instead of re-walking edge lists per (PE, target).
    let adjacency = hoist_adjacency(g, &rotated);
    let mut scratch = Scratch::default();
    let mut failed = false;
    'remap: for (&v, adj) in rotated.iter().zip(&adjacency) {
        let duration = g.time(v);
        // Placements only change between nodes, so neighbour slots can
        // be resolved once per node and reused across PEs and targets.
        scratch.resolve(adj, sched, machine);
        let mut attempts: u64 = 0;
        for &target in &targets {
            if P::ACTIVE {
                counters.scratch_reuses += u64::from(attempts > 0);
                attempts += 1;
            }
            if let Some(found) = scan(
                machine,
                sched,
                duration,
                &mut scratch,
                target,
                nid(v),
                probe,
                &mut counters,
            ) {
                sched
                    .place(v, found.pe, found.cs, duration)
                    // INVARIANT: scan only returns slots that
                    // earliest_free reported free for `duration`.
                    .expect("position checked free");
                if P::ACTIVE {
                    probe.emit(Event::Placed {
                        node: nid(v),
                        pe: found.pe.0,
                        cs: found.cs,
                        duration,
                        target,
                        impact: found.impact,
                        comm: found.comm,
                        runner_up: found.runner_up,
                    });
                }
                continue 'remap;
            }
            if P::ACTIVE {
                probe.emit(Event::NoSlot {
                    node: nid(v),
                    target,
                });
            }
        }
        failed = true;
        break;
    }

    if !failed {
        // Cover the projected schedule lengths by appending empty steps.
        let required = required_length(g, machine, sched);
        if config.mode != RemapMode::WithoutRelaxation || required <= prev_len {
            if P::ACTIVE && required > sched.length() {
                probe.emit(Event::SlackRepair {
                    required,
                    occupied: sched.length(),
                });
            }
            sched.pad_to(required);
            crate::oracle::verify("rotate_remap_in_place: accepted remap", g, machine, sched);
            // Attribution snapshot of the accepted placement: where
            // every edge's communication lands after this pass.
            crate::traffic::emit_edge_traffic(g, machine, sched, probe);
            if P::ACTIVE {
                counters.oracle_calls += u64::from(crate::oracle::ENABLED);
                probe.emit(counters.stats_event());
            }
            return InPlaceOutcome {
                rotated,
                reverted: false,
            };
        }
    }

    // Roll back in place: un-place whatever was re-placed so far (some
    // rotated nodes may not have been when the remap failed), undo the
    // renumbering shift, restore the saved first rows and the original
    // padding, and un-rotate the graph.
    for &(v, _) in &saved {
        sched.remove(v);
    }
    sched.shift_later(rows);
    for &(v, s) in &saved {
        sched
            .place(v, s.pe, s.start, s.duration)
            // INVARIANT: these exact cells were freed by the removes
            // above; restoring the pre-pass placement cannot collide.
            .expect("restoring original placement");
    }
    sched.trim_padding();
    sched.pad_to(prev_len);
    unrotate_in_place(g, &rotated);
    crate::oracle::verify("rotate_remap_in_place: rollback", g, machine, sched);
    if P::ACTIVE {
        counters.oracle_calls += u64::from(crate::oracle::ENABLED);
        probe.emit(counters.stats_event());
    }
    InPlaceOutcome {
        rotated,
        reverted: true,
    }
}

/// Adjacency of one rotated node, hoisted out of the graph once per
/// pass: `(neighbour, delay, volume)` for every non-self edge.  Self
/// loops are excluded everywhere the remapper looks (they constrain
/// only via PSL of the node against itself, which the paper folds into
/// `required_length`).
struct NodeAdj {
    /// Incoming non-self edges as `(producer, delay, volume)`.
    ins: Vec<(NodeId, u32, u32)>,
    /// Outgoing non-self edges as `(consumer, delay, volume)`.
    outs: Vec<(NodeId, u32, u32)>,
}

/// Builds the per-node adjacency cache for the rotated set.
fn hoist_adjacency(g: &Csdfg, nodes: &[NodeId]) -> Vec<NodeAdj> {
    nodes
        .iter()
        .map(|&v| {
            let mut ins = Vec::new();
            for e in g.in_deps(v) {
                let (u, _) = g.endpoints(e);
                if u != v {
                    ins.push((u, g.delay(e), g.volume(e)));
                }
            }
            let mut outs = Vec::new();
            for e in g.out_deps(v) {
                let (_, w) = g.endpoints(e);
                if w != v {
                    outs.push((w, g.delay(e), g.volume(e)));
                }
            }
            NodeAdj { ins, outs }
        })
        .collect()
}

/// One edge to an already-placed neighbour, resolved against the
/// current table: `step` is `CE(u)` for in-edges and `CB(w)` for
/// out-edges.
#[derive(Clone, Copy)]
struct PlacedEdge {
    /// Edge delay `d_r(e)`.
    k: i64,
    /// Data volume.
    vol: u32,
    /// The neighbour's processor.
    pe: Pe,
    /// `CE(u)` (in-edge) or `CB(w)` (out-edge).
    step: i64,
}

/// Reusable per-node buffers for [`scan`]: resolved placed neighbours,
/// the per-PE total traffic `comm` (the column sums of every edge's
/// volume-scaled hop-distance row, hoisted once per node so it is
/// shared across every target the remapper tries), and the per-PE
/// `AN` bound columns the scan refills per target.
#[derive(Default)]
struct Scratch {
    ins: Vec<PlacedEdge>,
    outs: Vec<PlacedEdge>,
    comm: Vec<u32>,
    lb: Vec<i64>,
    ub: Vec<i64>,
}

impl Scratch {
    /// Resolves `adj` against the current table, keeping only edges
    /// whose neighbour is placed (unplaced neighbours never constrain),
    /// and accumulates the per-PE traffic columns from each edge's
    /// volume-scaled hop-distance row ([`Machine::dist_row`]; distances
    /// are symmetric, so one row serves in- and out-edges alike).
    /// Every buffer is `clear`ed before refilling, so a node with fewer
    /// resolved edges than its predecessor can never observe stale
    /// slots (regression-tested below).
    fn resolve(&mut self, adj: &NodeAdj, table: &Schedule, machine: &Machine) {
        self.ins.clear();
        for &(u, k, vol) in &adj.ins {
            let (Some(ce_u), Some(pu)) = (table.ce(u), table.pe(u)) else {
                continue;
            };
            self.ins.push(PlacedEdge {
                k: i64::from(k),
                vol,
                pe: pu,
                step: i64::from(ce_u),
            });
        }
        self.outs.clear();
        for &(w, k, vol) in &adj.outs {
            let (Some(cb_w), Some(pw)) = (table.cb(w), table.pe(w)) else {
                continue;
            };
            self.outs.push(PlacedEdge {
                k: i64::from(k),
                vol,
                pe: pw,
                step: i64::from(cb_w),
            });
        }
        self.comm.clear();
        self.comm.resize(machine.num_pes(), 0);
        for e in self.ins.iter().chain(&self.outs) {
            let vol = e.vol;
            for (sum, &d) in self.comm.iter_mut().zip(machine.dist_row(e.pe)) {
                *sum += d * vol;
            }
        }
    }
}

/// Projected schedule length of one loop-carried edge (Lemma 4.3):
/// `ceil((M + CE(u) - CB(w) + 1) / k)`.  The single-division fast
/// path is shared with the schedule checker so the scheduler and the
/// validator can never disagree on rounding.
#[inline]
fn psl(m: i64, ce: i64, cb: i64, k: i64) -> i64 {
    ccs_schedule::psl_value(m, ce, cb, k)
}

/// The winning placement found by [`scan`], with the ranking
/// components the tracing layer reports (`impact`, `comm`) and the
/// second-best candidate for the `--explain` narrative.
struct Placement {
    /// Start control step.
    cs: u32,
    /// Chosen processor.
    pe: Pe,
    /// Schedule length this placement forces (Lemma 4.3).
    impact: u32,
    /// Total communication traffic.
    comm: u32,
    /// Second-best candidate under the same ranking (only tracked when
    /// the probe is active; always `None` otherwise).
    runner_up: Option<RunnerUp>,
}

/// A candidate's full ranking key `(impact, cs, comm, pe index)`;
/// lexicographic minimum wins, and the trailing PE index makes the
/// minimum unique.
type CandKey = (u32, u32, u32, u32);

/// The candidate scan: finds the cheapest feasible `(control step,
/// processor)` for the node whose resolved neighbourhood is in
/// `scratch`, under final-schedule-length `target`, or `None`.
///
/// For every processor the anticipation function gives the first
/// control step that satisfies all *placed* predecessors:
///
/// `AN(v, p) = max_e { M(PE(u), p) + CE(u) + 1 - d_r(e) * target }`
///
/// (Lemma 4.2 with `L - 1` generalized to `target`; a zero-delay edge
/// contributes plain precedence `CE(u) + M + 1`).  Placed successors
/// bound `CE(v)` from above through their own projected schedule
/// lengths.
///
/// Candidates are ranked by `(length impact, cs, traffic, pe index)`.
/// The driving objective is the schedule length the placement forces —
/// the max of the node's own end step and the projected schedule
/// lengths (Lemma 4.3) of its loop-carried edges to placed neighbours.
/// Control step breaks ties (earlier leaves room for later rotations),
/// then total data movement, then processor index.  Ranking by length
/// impact rather than raw `cs` stops the greedy from scattering tasks
/// across dense machines: a remote slot one step earlier is worthless
/// if its communication inflates a projected schedule length.
///
/// The `AN` bounds are computed column-major: one tight add-and-
/// accumulate loop per resolved edge over its hop-distance row
/// (indexed adds, no hop-matrix branch — the compiler vectorizes
/// these), instead of re-walking the edge list once per PE.  Per-PE
/// traffic comes from the column sums [`Scratch::comm`].
///
/// With the no-op probe, branch-and-bound then decides per PE whether
/// the expensive part — the free-window scan and the PSL sweep — can be
/// skipped: every component of the eventual key is bounded below by
/// what is already fixed (`cs` by the anticipation bound and the PE's
/// free cursor, `impact` by the end step of that earliest window,
/// `comm` and `pe` exactly), and component-wise `>=` implies
/// lexicographic `>=`.  A PE is pruned only when even its floor key
/// fails to *strictly* beat the incumbent — precisely the candidates an
/// unpruned sweep would discard too — so winner and tie-breaks are
/// bit-identical (asserted against the plain reference sweep on every
/// call in this crate's tests).
///
/// With an active probe nothing is pruned: every PE emits an
/// [`Event::Candidate`] carrying the `AN` bounds and the rejection
/// reason, the hot-path counters are bumped, and the second-best
/// feasible slot is tracked for the placement's `runner_up`.
#[allow(clippy::too_many_arguments)]
fn scan<P: Probe>(
    machine: &Machine,
    table: &Schedule,
    duration: u32,
    scratch: &mut Scratch,
    target: u32,
    node: u32,
    probe: &mut P,
    counters: &mut Counters,
) -> Option<Placement> {
    let target_len = i64::from(target);
    let dur = i64::from(duration);
    let n = machine.num_pes();
    let Scratch {
        ins,
        outs,
        comm: comm_col,
        lb: lb_col,
        ub: ub_col,
    } = scratch;
    // Lower bound on CB(v) per PE from placed predecessors (Lemma 4.2)
    // and upper bound on CE(v) from placed successors and the target.
    lb_col.clear();
    lb_col.resize(n, 1);
    for e in ins.iter() {
        let base = e.step + 1 - e.k * target_len;
        let vol = e.vol;
        for (l, &d) in lb_col.iter_mut().zip(machine.dist_row(e.pe)) {
            *l = (*l).max(i64::from(d * vol) + base);
        }
    }
    ub_col.clear();
    ub_col.resize(n, target_len);
    for e in outs.iter() {
        let base = e.k * target_len + e.step - 1;
        let vol = e.vol;
        for (u, &d) in ub_col.iter_mut().zip(machine.dist_row(e.pe)) {
            *u = (*u).min(base - i64::from(d * vol));
        }
    }
    let mut best: Option<CandKey> = None;
    // Runner-up slot for the explain narrative (probe-gated).
    let mut second: Option<CandKey> = None;
    let columns = lb_col.iter().zip(ub_col.iter()).zip(comm_col.iter());
    for (p, ((&lb, &ub), &comm)) in columns.enumerate() {
        let pe = Pe::from_index(p);
        let candidate = |verdict| Event::Candidate {
            node,
            target,
            pe: pe.0,
            lb,
            ub,
            comm,
            verdict,
        };
        if P::ACTIVE {
            counters.edges_swept += (ins.len() + outs.len()) as u64;
        }
        if lb > ub {
            if P::ACTIVE {
                probe.emit(candidate(Verdict::Infeasible));
            }
            continue;
        }
        // INVARIANT: lb <= ub <= target at this point (checked above)
        // and target is a u32, so the clamped value always fits.
        let from = u32::try_from(lb.max(1)).expect("clamped positive");
        if !P::ACTIVE {
            if let Some(incumbent) = best {
                let floor = from.max(table.free_cursor(pe));
                let impact_floor = u32::try_from(i64::from(floor) + dur - 1).unwrap_or(u32::MAX);
                if (impact_floor, floor, comm, pe.0) >= incumbent {
                    continue;
                }
            }
        }
        let cs = table.earliest_free(pe, from, duration);
        if P::ACTIVE {
            counters.slots_probed += 1;
        }
        let ce_v = i64::from(cs) + dur - 1;
        if ce_v > ub {
            if P::ACTIVE {
                probe.emit(candidate(Verdict::NoFreeSlot));
            }
            continue;
        }
        // Length impact: the node's own end step and the PSL of every
        // loop-carried edge to a placed neighbour.
        let mut needed = ce_v;
        for e in ins.iter().filter(|e| e.k > 0) {
            let m = i64::from(machine.dist_row(e.pe)[p] * e.vol);
            needed = needed.max(psl(m, e.step, i64::from(cs), e.k));
        }
        for e in outs.iter().filter(|e| e.k > 0) {
            let m = i64::from(machine.dist_row(e.pe)[p] * e.vol);
            needed = needed.max(psl(m, ce_v, e.step, e.k));
        }
        // Saturating conversion: PSL terms are sums of u32 quantities
        // and cannot meaningfully exceed u32::MAX; if one ever does,
        // the candidate simply ranks last instead of panicking.
        let impact = u32::try_from(needed.max(0)).unwrap_or(u32::MAX);
        let key = (impact, cs, comm, pe.0);
        let leads = best.is_none_or(|b| key < b);
        if P::ACTIVE {
            probe.emit(candidate(if leads {
                Verdict::Leading { cs, impact }
            } else {
                Verdict::Feasible { cs, impact }
            }));
            // The displaced best (or the losing candidate) competes
            // for the runner-up slot.
            let contender = if leads { best } else { Some(key) };
            if let Some(c) = contender {
                if second.is_none_or(|s| c < s) {
                    second = Some(c);
                }
            }
        }
        if leads {
            best = Some(key);
        }
    }
    #[cfg(test)]
    assert_eq!(
        best,
        reference_scan(machine, table, duration, ins, outs, target),
        "candidate scan diverged from the reference sweep"
    );
    best.map(|(impact, cs, comm, pe)| Placement {
        cs,
        pe: Pe(pe),
        impact,
        comm,
        runner_up: second.map(|(impact, cs, comm, pe)| RunnerUp {
            pe,
            cs,
            impact,
            comm,
        }),
    })
}

/// The plain full sweep: recomputes each edge's communication cost per
/// candidate PE via [`Machine::comm_cost`] and prunes nothing.  Test
/// oracle for [`scan`]'s column-major bounds and pruning.
#[cfg(test)]
fn reference_scan(
    machine: &Machine,
    table: &Schedule,
    duration: u32,
    ins: &[PlacedEdge],
    outs: &[PlacedEdge],
    target: u32,
) -> Option<CandKey> {
    let target_len = i64::from(target);
    let mut best: Option<CandKey> = None;
    for pe in machine.pes() {
        let m_ins: Vec<u32> = ins
            .iter()
            .map(|e| machine.comm_cost(e.pe, pe, e.vol))
            .collect();
        let m_outs: Vec<u32> = outs
            .iter()
            .map(|e| machine.comm_cost(pe, e.pe, e.vol))
            .collect();
        let comm: u32 = m_ins.iter().chain(&m_outs).sum();
        let lb = ins
            .iter()
            .zip(&m_ins)
            .map(|(e, &m)| i64::from(m) + e.step + 1 - e.k * target_len)
            .fold(1, i64::max);
        let ub = outs
            .iter()
            .zip(&m_outs)
            .map(|(e, &m)| e.k * target_len + e.step - i64::from(m) - 1)
            .fold(target_len, i64::min);
        if lb > ub {
            continue;
        }
        let from = u32::try_from(lb.max(1)).expect("clamped positive");
        let cs = table.earliest_free(pe, from, duration);
        let ce_v = i64::from(cs) + i64::from(duration) - 1;
        if ce_v > ub {
            continue;
        }
        let mut needed = ce_v;
        for (e, &m) in ins.iter().zip(&m_ins) {
            if e.k > 0 {
                needed = needed.max(psl(i64::from(m), e.step, i64::from(cs), e.k));
            }
        }
        for (e, &m) in outs.iter().zip(&m_outs) {
            if e.k > 0 {
                needed = needed.max(psl(i64::from(m), ce_v, e.step, e.k));
            }
        }
        let impact = u32::try_from(needed.max(0)).unwrap_or(u32::MAX);
        let key = (impact, cs, comm, pe.0);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::startup::{startup_schedule, StartupConfig};
    use ccs_schedule::validate;

    fn fig1() -> (Csdfg, Vec<NodeId>, Machine) {
        let mut g = Csdfg::new();
        let ids: Vec<_> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|n| {
                let t = if *n == "B" || *n == "E" { 2 } else { 1 };
                g.add_task(*n, t).unwrap()
            })
            .collect();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(a, c, 0, 1).unwrap();
        g.add_dep(a, e, 0, 1).unwrap();
        g.add_dep(b, d, 0, 1).unwrap();
        g.add_dep(b, e, 0, 2).unwrap();
        g.add_dep(c, e, 0, 1).unwrap();
        g.add_dep(d, a, 3, 3).unwrap();
        g.add_dep(d, f, 0, 2).unwrap();
        g.add_dep(e, f, 0, 1).unwrap();
        g.add_dep(f, e, 1, 1).unwrap();
        (g, ids, Machine::mesh(2, 2))
    }

    #[test]
    fn first_pass_rotates_a_and_shrinks() {
        let (g, n, m) = fig1();
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        assert_eq!(s.length(), 7);
        let out = rotate_remap(&g, &m, &s, RemapConfig::default());
        assert!(!out.reverted);
        assert_eq!(out.rotated, vec![n[0]]); // A was the only cs1 node
                                             // The paper's first pass lands at 6 control steps.
        assert_eq!(out.schedule.length(), 6);
        assert!(validate(&out.graph, &m, &out.schedule).is_ok());
        // Figure 1(c): D->A now carries 2 delays, A->B/C/E carry 1.
        let da = out.graph.graph().find_edge(n[3], n[0]).unwrap();
        assert_eq!(out.graph.delay(da), 2);
    }

    #[test]
    fn without_relaxation_never_grows() {
        let (g, _, m) = fig1();
        let mut s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let mut graph = g;
        let cfg = RemapConfig {
            mode: RemapMode::WithoutRelaxation,
            max_growth: 0,
            rows_per_pass: 1,
        };
        for _ in 0..10 {
            let prev = s.length();
            let out = rotate_remap(&graph, &m, &s, cfg);
            assert!(out.schedule.length() <= prev, "grew from {prev}");
            assert!(validate(&out.graph, &m, &out.schedule).is_ok());
            if out.reverted {
                break;
            }
            s = out.schedule;
            graph = out.graph;
        }
    }

    #[test]
    fn repeated_passes_reach_paper_length_five() {
        // Figure 3(b): after three passes the example reaches 5 control
        // steps on the 2x2 mesh.
        let (g, _, m) = fig1();
        let mut s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let mut graph = g;
        let mut best = s.length();
        for _ in 0..8 {
            let out = rotate_remap(&graph, &m, &s, RemapConfig::default());
            if out.reverted {
                break;
            }
            s = out.schedule;
            graph = out.graph;
            best = best.min(s.length());
        }
        assert!(best <= 5, "expected <= 5 control steps, got {best}");
    }

    #[test]
    fn pass_preserves_task_count() {
        let (g, _, m) = fig1();
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let out = rotate_remap(&g, &m, &s, RemapConfig::default());
        assert_eq!(out.schedule.placed_count(), g.task_count());
    }

    #[test]
    fn multi_row_rotation_is_valid_and_competitive() {
        let (g, _, m) = fig1();
        for rows in 1..=3u32 {
            let cfg = RemapConfig {
                rows_per_pass: rows,
                ..Default::default()
            };
            let mut graph = g.clone();
            let mut s = startup_schedule(&graph, &m, StartupConfig::default()).unwrap();
            let mut best = s.length();
            for _ in 0..12 {
                let out = rotate_remap(&graph, &m, &s, cfg);
                assert!(
                    validate(&out.graph, &m, &out.schedule).is_ok(),
                    "rows={rows}: invalid schedule"
                );
                if out.reverted {
                    break;
                }
                graph = out.graph;
                s = out.schedule;
                best = best.min(s.length());
            }
            assert!(best <= 6, "rows={rows}: best {best}");
        }
    }

    #[test]
    fn rotating_more_rows_than_length_rotates_everything() {
        let (g, _, m) = fig1();
        let s = startup_schedule(&g, &m, StartupConfig::default()).unwrap();
        let cfg = RemapConfig {
            rows_per_pass: 99,
            ..Default::default()
        };
        let out = rotate_remap(&g, &m, &s, cfg);
        if !out.reverted {
            assert_eq!(out.rotated.len(), g.task_count());
            assert!(validate(&out.graph, &m, &out.schedule).is_ok());
        }
    }

    #[test]
    fn scratch_resolve_cannot_leak_stale_slots() {
        // A node with fewer resolved edges than its predecessor must
        // not see the predecessor's edges or traffic columns (`resize`
        // alone never shrinks a buffer).  Resolve a fat node, then a
        // thin one, and check every buffer is exactly sized and freshly
        // filled.
        let mut g = Csdfg::new();
        let hub = g.add_task("hub", 1).unwrap();
        let spokes: Vec<_> = (0..5)
            .map(|i| g.add_task(format!("s{i}"), 1).unwrap())
            .collect();
        for &s in &spokes {
            g.add_dep(s, hub, 1, 7).unwrap();
            g.add_dep(hub, s, 1, 7).unwrap();
        }
        let thin = g.add_task("thin", 1).unwrap();
        g.add_dep(spokes[0], thin, 1, 2).unwrap();
        g.add_dep(thin, spokes[0], 1, 2).unwrap();

        let m = Machine::mesh(2, 2);
        let mut sched = Schedule::new(m.num_pes());
        for (i, &s) in spokes.iter().enumerate() {
            // INVARIANT: distinct (pe, cs) cells by construction.
            sched
                .place(
                    s,
                    Pe::from_index(i % 4),
                    u32::try_from(i / 4 + 1).unwrap(),
                    1,
                )
                .unwrap();
        }

        let adj = hoist_adjacency(&g, &[hub, thin]);
        let mut scratch = Scratch::default();
        scratch.resolve(&adj[0], &sched, &m);
        assert_eq!(scratch.ins.len(), 5);
        assert_eq!(scratch.outs.len(), 5);
        assert_eq!(scratch.comm.len(), m.num_pes());
        // Poison the reusable column, as a stale sweep would see it.
        scratch.comm.fill(u32::MAX);

        scratch.resolve(&adj[1], &sched, &m);
        assert_eq!(scratch.ins.len(), 1, "thin node resolves one in-edge");
        assert_eq!(scratch.outs.len(), 1, "outs must shrink with the node");
        assert_eq!(scratch.comm.len(), m.num_pes());
        // The comm column is rebuilt from the thin node's own edges:
        // one in- and one out-edge to spoke0 on PE 0, volume 2 each,
        // so every column is 4 * dist_row(0).
        let expect: Vec<u32> = m.dist_row(Pe(0)).iter().map(|&d| d * 4).collect();
        assert_eq!(scratch.comm, expect);
    }

    #[test]
    fn empty_first_row_pass_compresses() {
        // Hand-build a schedule whose first row is empty: the pass
        // shifts everything up for free.
        let mut g = Csdfg::new();
        let a = g.add_task("A", 1).unwrap();
        let b = g.add_task("B", 1).unwrap();
        g.add_dep(a, b, 0, 1).unwrap();
        g.add_dep(b, a, 2, 1).unwrap();
        let m = Machine::complete(2);
        let mut s = Schedule::new(2);
        s.place(a, Pe(0), 2, 1).unwrap();
        s.place(b, Pe(0), 3, 1).unwrap();
        assert!(validate(&g, &m, &s).is_ok());
        let out = rotate_remap(&g, &m, &s, RemapConfig::default());
        assert!(!out.reverted);
        assert!(out.rotated.is_empty());
        assert_eq!(out.schedule.cb(a), Some(1));
        assert_eq!(out.schedule.length(), 2);
    }
}
