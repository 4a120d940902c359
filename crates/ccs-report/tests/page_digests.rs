//! Byte-identity pins for every page the report renderers draw on the
//! paper cells: the 10 catalogue workloads × the four 8-PE machines
//! `linear:8`, `mesh:4x2`, `complete:8`, `hypercube:3`, each compacted
//! under a trace recorder with the default configuration.
//!
//! * one single-run page (`--report`) per cell — 40 digests;
//! * one two-run page (`--report-diff`) per workload and machine
//!   pair — 60 digests;
//! * the sweep grid dashboard over all 40 cells — one digest per
//!   build kind, since its counters include the invariant oracle's.
//!
//! Each page is pinned by its FNV-1a 64-bit digest.  The tables were
//! computed from the renderers as they stood before the streaming
//! rewrite, so a renderer change that moves a single byte of any page
//! fails here.  To print the current tables after an intentional
//! change to the page format:
//!
//! ```text
//! PRINT_PAGE_DIGESTS=1 cargo test -p ccs-report --test page_digests -- --nocapture
//! ```

use ccs_bounds::OptimalityReport;
use ccs_core::compact::{cyclo_compact, CompactConfig, Compaction};
use ccs_profile::CommProfile;
use ccs_report::diff::{render_diff_report, DiffInput, DiffSide};
use ccs_report::grid::{render_grid_report, GridCellView};
use ccs_report::{check::check_html, render_report, ReportInput};
use ccs_topology::{parse_spec, Machine};
use ccs_trace::metrics::MetricsSink;
use ccs_trace::{Sink, TimedEvent};
use std::sync::OnceLock;

const MACHINES: [&str; 4] = ["linear:8", "mesh:4x2", "complete:8", "hypercube:3"];

/// FNV-1a 64-bit over the page bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One recorded paper cell.
struct Cell {
    workload: &'static str,
    spec: &'static str,
    machine: Machine,
    result: Compaction,
    events: Vec<TimedEvent>,
    profile: CommProfile,
    certificate: OptimalityReport,
}

impl Cell {
    fn name(&self, n: u32) -> String {
        self.result
            .graph
            .name(ccs_graph::NodeId::from_index(n as usize))
            .to_string()
    }

    fn side(&self) -> DiffSide<'_> {
        DiffSide {
            label: self.spec,
            events: &self.events,
            machine: &self.machine,
            profile: &self.profile,
            certificate: Some(&self.certificate),
        }
    }
}

/// The 40 cells, recorded once and shared by every test here.
fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut out = Vec::new();
        for w in ccs_workloads::all_workloads() {
            for spec in MACHINES {
                let graph = w.build();
                let machine = parse_spec(spec).expect("paper machine spec");
                let (outcome, events) =
                    ccs_trace::record(|| cyclo_compact(&graph, &machine, CompactConfig::default()));
                let result = outcome.expect("catalogue workloads are legal");
                let profile = ccs_profile::build(&events, &machine);
                let certificate = ccs_bounds::certify_period(&graph, &machine, result.best_length);
                out.push(Cell {
                    workload: w.name,
                    spec,
                    machine,
                    result,
                    events,
                    profile,
                    certificate,
                });
            }
        }
        out
    })
}

fn report_page(c: &Cell) -> String {
    render_report(
        &ReportInput {
            title: &format!("{} on {}", c.workload, c.machine.name()),
            events: &c.events,
            machine: &c.machine,
            profile: &c.profile,
            certificate: Some(&c.certificate),
        },
        |n| c.name(n),
    )
}

fn diff_page(a: &Cell, b: &Cell) -> String {
    render_diff_report(
        &DiffInput {
            title: &format!("{}: {} vs {}", a.workload, a.spec, b.spec),
            a: a.side(),
            b: b.side(),
        },
        |n| a.name(n),
    )
}

fn grid_page(cells: &[Cell]) -> String {
    let views: Vec<GridCellView> = cells
        .iter()
        .map(|c| {
            let mut sink = MetricsSink::new();
            for te in &c.events {
                sink.event(te.event.clone());
            }
            let (bound, bound_kind) = match c.certificate.bounds.best() {
                Some(cert) => (cert.value, cert.kind.name()),
                None => (0, "none"),
            };
            let gap = u64::from(c.result.best_length).saturating_sub(bound);
            GridCellView {
                workload: c.workload.to_string(),
                machine: c.spec.to_string(),
                config_ix: 0,
                initial: c.result.initial_length,
                best: c.result.best_length,
                bound: u32::try_from(bound).unwrap_or(u32::MAX),
                bound_kind: bound_kind.to_string(),
                gap: u32::try_from(gap).unwrap_or(u32::MAX),
                gap_pct: if bound == 0 {
                    0.0
                } else {
                    gap as f64 * 100.0 / bound as f64
                },
                counters: sink.into_metrics().counters.into_iter().collect(),
                pes: c.profile.pes,
                edges: c.profile.edges.clone(),
                links: c.profile.links.clone(),
                routable: ccs_profile::routable(&c.machine),
            }
        })
        .collect();
    render_grid_report("paper cells sweep", &views)
}

/// Compares `actual` digests against the pinned table, printing the
/// whole current table when asked to (or on drift, to ease review).
fn check_table(what: &str, actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let print = std::env::var_os("PRINT_PAGE_DIGESTS").is_some();
    if print {
        println!("// {what}");
        for (key, d) in actual {
            println!("    (\"{key}\", 0x{d:016x}),");
        }
    }
    let keys: Vec<&str> = actual.iter().map(|(k, _)| k.as_str()).collect();
    let pinned_keys: Vec<&str> = pinned.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, pinned_keys, "{what}: page set changed");
    let drifted: Vec<&str> = actual
        .iter()
        .zip(pinned)
        .filter(|((_, a), (_, p))| a != p)
        .map(|((k, _), _)| k.as_str())
        .collect();
    assert!(
        drifted.is_empty(),
        "{what}: {} page(s) changed bytes: {drifted:?}",
        drifted.len()
    );
}

#[test]
fn single_run_pages_are_byte_identical() {
    let actual: Vec<(String, u64)> = cells()
        .iter()
        .map(|c| {
            let page = report_page(c);
            let key = format!("{}/{}", c.workload, c.spec);
            check_html(&page).unwrap_or_else(|e| panic!("{key}: {e:?}"));
            // The page buffer is sized once from the run's content: it
            // ends within 25% of the page (a short estimate would have
            // regrown it to about double, a generous guess oversized it).
            assert!(
                page.capacity() <= page.len() / 4 * 5,
                "{key}: {} bytes in a {}-byte buffer",
                page.len(),
                page.capacity()
            );
            (key, fnv64(page.as_bytes()))
        })
        .collect();
    check_table("single-run pages", &actual, &REPORT_DIGESTS);
}

#[test]
fn diff_pages_are_byte_identical() {
    let cells = cells();
    let mut actual = Vec::new();
    for w in cells.chunks(MACHINES.len()) {
        for (i, a) in w.iter().enumerate() {
            for b in &w[i + 1..] {
                let page = diff_page(a, b);
                check_html(&page)
                    .unwrap_or_else(|e| panic!("{}: {}/{}: {e:?}", a.workload, a.spec, b.spec));
                let key = format!("{}/{}/{}", a.workload, a.spec, b.spec);
                actual.push((key, fnv64(page.as_bytes())));
            }
        }
    }
    check_table("diff pages", &actual, &DIFF_DIGESTS);
}

#[test]
fn grid_dashboard_is_byte_identical() {
    let page = grid_page(cells());
    let facts = check_html(&page).unwrap_or_else(|e| panic!("grid: {e:?}"));
    assert_eq!(facts.grid_cells, cells().len());
    // The tiles' hover titles list each cell's trace counters, and
    // `oracle_calls` counts the invariant oracle, which runs only in
    // builds that enable it (debug, or the `paranoid` feature).
    let pinned = if ccs_core::oracle::ENABLED {
        GRID_DIGEST_WITH_ORACLE
    } else {
        GRID_DIGEST_WITHOUT_ORACLE
    };
    check_table(
        "grid dashboard",
        &[("grid".to_string(), fnv64(page.as_bytes()))],
        &pinned,
    );
}

const REPORT_DIGESTS: [(&str, u64); 40] = [
    ("fig1/linear:8", 0x015339d976682830),
    ("fig1/mesh:4x2", 0xfb4a53a60cd23fbc),
    ("fig1/complete:8", 0x5446c9e8f664a932),
    ("fig1/hypercube:3", 0x67b45fd982a4d882),
    ("fig7/linear:8", 0xa752d76c3c4f8254),
    ("fig7/mesh:4x2", 0xa9cf93dbec9c0dc9),
    ("fig7/complete:8", 0x6a3097b6b1f99023),
    ("fig7/hypercube:3", 0x59e7db2f5b813a28),
    ("elliptic/linear:8", 0x16686a711cf9f8d9),
    ("elliptic/mesh:4x2", 0x055d0c88973d4774),
    ("elliptic/complete:8", 0x9af679341b118a7f),
    ("elliptic/hypercube:3", 0x14d4474c973daac4),
    ("lattice/linear:8", 0x0b297246503f9cc7),
    ("lattice/mesh:4x2", 0x94eb1421f6c763a2),
    ("lattice/complete:8", 0x4996eca24a40f9ca),
    ("lattice/hypercube:3", 0xe29371c46630005a),
    ("fir/linear:8", 0x63bc9651ac01fbc4),
    ("fir/mesh:4x2", 0xaa35037e3f3ea628),
    ("fir/complete:8", 0x7104b7e7fb5cb539),
    ("fir/hypercube:3", 0xc61a275a8a6eeade),
    ("iir/linear:8", 0x40c60cf755949e05),
    ("iir/mesh:4x2", 0x8bd794f391ef0e8e),
    ("iir/complete:8", 0xdf8c9d3a7893b8d9),
    ("iir/hypercube:3", 0x347cc53801a367eb),
    ("diffeq/linear:8", 0x3a6d75984da3103b),
    ("diffeq/mesh:4x2", 0x1210691674c9c2b3),
    ("diffeq/complete:8", 0xe5355d06ab1f812d),
    ("diffeq/hypercube:3", 0xde837a8d412720fe),
    ("correlator/linear:8", 0x06c89b4b64714d5e),
    ("correlator/mesh:4x2", 0x34f05176d1dcbb7a),
    ("correlator/complete:8", 0x45846c5c8da26154),
    ("correlator/hypercube:3", 0x95e4f7fb5167b7f2),
    ("allpole/linear:8", 0x8ccb9eb21dd0f379),
    ("allpole/mesh:4x2", 0x546b8daf5a8b7704),
    ("allpole/complete:8", 0x6dba4b24bf5668c0),
    ("allpole/hypercube:3", 0x0d96734ceb4fb82f),
    ("volterra/linear:8", 0xa38229fcca9396c0),
    ("volterra/mesh:4x2", 0x985aeb8b98779eed),
    ("volterra/complete:8", 0x26270c09e8fd63c2),
    ("volterra/hypercube:3", 0xe6c57f7ba037717b),
];

const DIFF_DIGESTS: [(&str, u64); 60] = [
    ("fig1/linear:8/mesh:4x2", 0x72869cd6dc915cf0),
    ("fig1/linear:8/complete:8", 0x6fa6e7927c873204),
    ("fig1/linear:8/hypercube:3", 0xe8846e2433cd06dc),
    ("fig1/mesh:4x2/complete:8", 0x62982221631f0e4a),
    ("fig1/mesh:4x2/hypercube:3", 0xfcbe3fa898d04da4),
    ("fig1/complete:8/hypercube:3", 0xb4c63ec6d5d370c4),
    ("fig7/linear:8/mesh:4x2", 0x684861bd1cb7256d),
    ("fig7/linear:8/complete:8", 0xa171da895c369096),
    ("fig7/linear:8/hypercube:3", 0xc5287788713aa99c),
    ("fig7/mesh:4x2/complete:8", 0x35f10062afb07273),
    ("fig7/mesh:4x2/hypercube:3", 0x81d0aeeeff6a921f),
    ("fig7/complete:8/hypercube:3", 0xc4a5eee05795f9b8),
    ("elliptic/linear:8/mesh:4x2", 0x4fffcdcebe1db235),
    ("elliptic/linear:8/complete:8", 0x316fb219e37c60e1),
    ("elliptic/linear:8/hypercube:3", 0xebe629384017d075),
    ("elliptic/mesh:4x2/complete:8", 0x9477fd175d1eb6cb),
    ("elliptic/mesh:4x2/hypercube:3", 0x637ed12b1f3fe164),
    ("elliptic/complete:8/hypercube:3", 0x12187b0446a28269),
    ("lattice/linear:8/mesh:4x2", 0x7a61cb86eefee005),
    ("lattice/linear:8/complete:8", 0x754c4bb041e0b28d),
    ("lattice/linear:8/hypercube:3", 0xc27df3113efab1ee),
    ("lattice/mesh:4x2/complete:8", 0xea6a06050d0ff60b),
    ("lattice/mesh:4x2/hypercube:3", 0xf6663ca4cccfc7bc),
    ("lattice/complete:8/hypercube:3", 0x7001406ef3cc2f63),
    ("fir/linear:8/mesh:4x2", 0x97b670d3ea36914e),
    ("fir/linear:8/complete:8", 0xa48ca21c491df542),
    ("fir/linear:8/hypercube:3", 0xdaa56fcff31e119f),
    ("fir/mesh:4x2/complete:8", 0xf87981f5b28a70a8),
    ("fir/mesh:4x2/hypercube:3", 0x093c0b97d5676d8a),
    ("fir/complete:8/hypercube:3", 0x267832082daddf65),
    ("iir/linear:8/mesh:4x2", 0x826e7812866e8514),
    ("iir/linear:8/complete:8", 0x1adadfc6d5c0ba58),
    ("iir/linear:8/hypercube:3", 0x303ef122a87551e0),
    ("iir/mesh:4x2/complete:8", 0x0ea503aabaaf0e2d),
    ("iir/mesh:4x2/hypercube:3", 0x703641b467900717),
    ("iir/complete:8/hypercube:3", 0xb6fbda5c9934a8d0),
    ("diffeq/linear:8/mesh:4x2", 0x8032d7b1a73612ad),
    ("diffeq/linear:8/complete:8", 0x6b8c63acf6f16a23),
    ("diffeq/linear:8/hypercube:3", 0x4a971fa933e624bd),
    ("diffeq/mesh:4x2/complete:8", 0xc717ce59e80ff6d5),
    ("diffeq/mesh:4x2/hypercube:3", 0x173cc3e38ba1ac98),
    ("diffeq/complete:8/hypercube:3", 0xe545654c33335b53),
    ("correlator/linear:8/mesh:4x2", 0x5c00f7a983b9548f),
    ("correlator/linear:8/complete:8", 0xd9e20bca5c5875d7),
    ("correlator/linear:8/hypercube:3", 0xe389743fb330997f),
    ("correlator/mesh:4x2/complete:8", 0x4317da7fc26ecd1f),
    ("correlator/mesh:4x2/hypercube:3", 0x37cd8719df6f6946),
    ("correlator/complete:8/hypercube:3", 0x2ee5fe3f0bac8345),
    ("allpole/linear:8/mesh:4x2", 0x848c809fab56061e),
    ("allpole/linear:8/complete:8", 0x249003eaac1215cc),
    ("allpole/linear:8/hypercube:3", 0xcf57292113c94eba),
    ("allpole/mesh:4x2/complete:8", 0x89b13762eebeb417),
    ("allpole/mesh:4x2/hypercube:3", 0x124c11f85527ec92),
    ("allpole/complete:8/hypercube:3", 0x7b670224fd26330c),
    ("volterra/linear:8/mesh:4x2", 0x55059451c2b9acbe),
    ("volterra/linear:8/complete:8", 0x8c8f36067389903f),
    ("volterra/linear:8/hypercube:3", 0xdc2f4d856e7b934f),
    ("volterra/mesh:4x2/complete:8", 0x3b7e1399e15e8c3c),
    ("volterra/mesh:4x2/hypercube:3", 0xcbe1c606439d8359),
    ("volterra/complete:8/hypercube:3", 0x6466924a22e26083),
];

const GRID_DIGEST_WITH_ORACLE: [(&str, u64); 1] = [("grid", 0x449342d12d9b4a54)];

const GRID_DIGEST_WITHOUT_ORACLE: [(&str, u64); 1] = [("grid", 0xc53877e39aeed81a)];
