//! The per-file rule catalogue, evaluated over [`SourceFile`] views.
//!
//! Every rule searches the **code view** (comments and string-literal
//! contents blanked by the lexer), so `// .unwrap()` in a comment and
//! `".unwrap()"` in a string can never trip a rule — and `x.unwrap()`
//! after a `"https://..."` literal can never hide behind one.
//! Justification escapes (`INVARIANT:`, `ORDERED:`, `ESCAPED:`,
//! `CLOCK:`, `ENV:`, `IDENTITY:`) are searched in the **comment
//! view**, so a justification must really be a comment.
//!
//! See `DESIGN.md` §14 for the rule-by-rule catalogue with scopes and
//! escapes.

use crate::view::SourceFile;
use crate::{Finding, JUSTIFICATION_WINDOW};

/// Rule identifier for unchecked `.unwrap()` / `.expect(`.
pub const RULE_UNWRAP: &str = "no-unchecked-unwrap";
/// Rule identifier for truncating `as` casts in the remap hot path.
pub const RULE_CAST: &str = "no-truncating-cast";
/// Rule identifier for missing crate-root lint headers.
pub const RULE_HEADER: &str = "lib-header";
/// Rule identifier for stdio print macros in library code.
pub const RULE_PRINT: &str = "no-println-in-libs";
/// Rule identifier for unguarded `probe.emit(` sites in `ccs-core`.
pub const RULE_PROBE: &str = "probe-emit-guarded";
/// Rule identifier for panicking macros in hot-path functions.
pub const RULE_HOT_ASSERT: &str = "hot-path-no-assert";
/// Rule identifier for unordered hash containers in library code.
pub const RULE_UNORDERED: &str = "no-unordered-iteration";
/// Rule identifier for unescaped interpolation into HTML/SVG output.
pub const RULE_ESCAPED: &str = "escaped-html-output";
/// Rule identifier for wall-clock reads in library code.
pub const RULE_CLOCK: &str = "no-wall-clock-in-libs";
/// Rule identifier for environment reads in library code.
pub const RULE_ENV: &str = "no-env-read-in-libs";
/// Rule identifier for machine/run-identity reads in library code.
pub const RULE_IDENTITY: &str = "no-machine-identity-in-libs";

/// Sources whose string formatting lands in HTML/SVG artifacts and
/// falls under [`RULE_ESCAPED`]: the report crate (single-run, diff
/// and grid pages), the profile renderer, and the bench crate's grid
/// dashboard / trajectory sparkline module.
const HTML_OUTPUT_ROOTS: [&str; 3] = [
    "crates/ccs-report/src",
    "crates/ccs-profile/src/render.rs",
    "crates/ccs-bench/src/report.rs",
];

/// Containers whose iteration order is nondeterministic.
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// The innermost-loop functions that must stay panic-free in release
/// builds, as `(file, function)` pairs.
const HOT_PATH_FNS: [(&str, &str); 3] = [
    ("crates/ccs-core/src/remap.rs", "scan"),
    ("crates/ccs-schedule/src/table.rs", "earliest_free"),
    ("crates/ccs-topology/src/machine.rs", "distance"),
];

/// Panicking macros banned inside hot-path functions.  Matched at a
/// token boundary, so `debug_assert!(` — whose release-build expansion
/// is empty — does not trip the `assert!(` pattern.
const PANIC_MACROS: [&str; 4] = ["assert!(", "assert_eq!(", "assert_ne!(", "panic!("];

/// The crate whose emission sites fall under [`RULE_PROBE`].
const PROBE_ROOT: &str = "crates/ccs-core/src";

/// Print macros banned in library code, longest pattern first so the
/// reported name is exact (`eprintln!(` contains `println!(`).
const PRINT_MACROS: [&str; 4] = ["eprintln!(", "println!(", "eprint!(", "print!("];

/// Crates whose non-test code falls under [`RULE_UNWRAP`].
const PANIC_HYGIENE_ROOTS: [&str; 2] = ["crates/ccs-core/src", "crates/ccs-schedule/src"];

/// The one file under [`RULE_CAST`].
const CAST_FILE: &str = "crates/ccs-core/src/remap.rs";

/// Truncating integer casts (widening casts and `as usize`/`as u64`
/// on u32 sources are fine; these can silently drop bits).
const TRUNCATING_CASTS: [&str; 6] = [
    " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
];

/// Wall-clock constructors banned in library code: both produce
/// machine-dependent quantities that must never reach deterministic,
/// fingerprinted output.  The sanctioned sites (`ccs-trace`'s
/// `Recorder` / `MetricsSink` timestamps and `PassRecord::wall_ms`)
/// carry a `// CLOCK:` justification.
const CLOCK_CALLS: [&str; 2] = ["Instant::now", "SystemTime::now"];

/// Environment reads banned in library code (matched after `env::`):
/// configuration belongs in binaries and CLI flags, not in code whose
/// output is fingerprinted or golden-pinned.
const ENV_READS: [&str; 6] = ["var", "vars", "var_os", "vars_os", "args", "args_os"];

/// Machine/run-identity sources banned in library code: each leaks a
/// value that differs between runs or hosts into code whose output
/// must be byte-stable.
const IDENTITY_CALLS: [&str; 3] = ["process::id", "thread::current", "available_parallelism"];

/// Lints one source file given its repo-relative path (with `/`
/// separators) and contents.  Pure function — unit-testable on
/// fixture strings.
pub fn lint_source(rel: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if rel.ends_with("/src/lib.rs") && !rel.starts_with("vendor/") {
        lint_lib_header(rel, text, &mut out);
    }
    let hygiene = PANIC_HYGIENE_ROOTS.iter().any(|p| rel.starts_with(p));
    let cast = rel == CAST_FILE;
    let library = library_code(rel);
    let probe = rel.starts_with(PROBE_ROOT);
    let html_out = HTML_OUTPUT_ROOTS.iter().any(|p| rel.starts_with(p));
    let hot_fns: Vec<&str> = HOT_PATH_FNS
        .iter()
        .filter(|(file, _)| *file == rel)
        .map(|&(_, name)| name)
        .collect();
    if !hygiene && !cast && !library && !probe && !html_out && hot_fns.is_empty() {
        return out;
    }

    let sf = SourceFile::new(rel, text);
    let guard_mask = if probe {
        sf.active_guard_mask(text)
    } else {
        Vec::new()
    };
    let hot_mask = sf.fn_body_mask(text, &hot_fns);

    for i in 0..sf.num_lines() {
        if sf.test_mask[i] {
            continue;
        }
        let code: &str = &sf.code_lines[i];
        if probe && code.contains("probe.emit(") && !guard_mask[i] {
            out.push(finding(
                rel,
                i + 1,
                RULE_PROBE,
                "`probe.emit(..)` outside an `if P::ACTIVE` guard; wrap the \
                 emission (and its argument construction) so the `Off` probe \
                 compiles the site away"
                    .to_string(),
            ));
        }
        if hygiene {
            if let Some(call) = unchecked_call(code) {
                if !justified(&sf, i, "INVARIANT:") {
                    out.push(finding(
                        rel,
                        i + 1,
                        RULE_UNWRAP,
                        format!(
                            "`{call}` in non-test scheduler code without an \
                             `// INVARIANT:` justification; return a typed error \
                             or document why the panic is unreachable"
                        ),
                    ));
                }
            }
        }
        if library {
            if let Some(mac) = PRINT_MACROS.iter().find(|pat| code.contains(*pat)) {
                out.push(finding(
                    rel,
                    i + 1,
                    RULE_PRINT,
                    format!(
                        "`{}` in library code; report through return values, \
                         the ccs-trace event stream, or a `Display` impl instead",
                        mac.trim_end_matches('(')
                    ),
                ));
            }
            if !code.trim_start().starts_with("use ") {
                if let Some(ty) = UNORDERED_TYPES.iter().find(|t| contains_type(code, t)) {
                    if !justified(&sf, i, "ORDERED:") {
                        out.push(finding(
                            rel,
                            i + 1,
                            RULE_UNORDERED,
                            format!(
                                "`{ty}` in library code: its iteration order is \
                                 nondeterministic and this codebase's output is \
                                 byte-stable — use `BTree{}` (or collect-and-sort), \
                                 or add an `// ORDERED:` comment explaining why the \
                                 order never escapes",
                                &ty[4..]
                            ),
                        ));
                    }
                }
            }
            if let Some(call) = CLOCK_CALLS.iter().find(|pat| code.contains(*pat)) {
                if !justified(&sf, i, "CLOCK:") {
                    out.push(finding(
                        rel,
                        i + 1,
                        RULE_CLOCK,
                        format!(
                            "`{call}` in library code: wall-clock values are \
                             machine-dependent and must never feed deterministic \
                             output — keep clocks in the sanctioned sinks \
                             (`Recorder`/`MetricsSink`/`wall_ms`) and justify \
                             the site with a `// CLOCK:` comment"
                        ),
                    ));
                }
            }
            if let Some(read) = env_read(code) {
                if !justified(&sf, i, "ENV:") {
                    out.push(finding(
                        rel,
                        i + 1,
                        RULE_ENV,
                        format!(
                            "`{read}` in library code: environment reads belong \
                             in binaries and CLI flags, not in code that feeds \
                             fingerprinted output — plumb the value through a \
                             config struct, or justify with a `// ENV:` comment"
                        ),
                    ));
                }
            }
            if let Some(call) = IDENTITY_CALLS.iter().find(|pat| code.contains(*pat)) {
                if !justified(&sf, i, "IDENTITY:") {
                    out.push(finding(
                        rel,
                        i + 1,
                        RULE_IDENTITY,
                        format!(
                            "`{call}` in library code: process/thread/host \
                             identity differs between runs and must never feed \
                             byte-stable output — hoist it to a binary, or \
                             justify with an `// IDENTITY:` comment"
                        ),
                    ));
                }
            }
        }
        if html_out && sf.string_lines[i].contains(">{") {
            let lo = i.saturating_sub(JUSTIFICATION_WINDOW);
            let hi = (i + JUSTIFICATION_WINDOW).min(sf.num_lines() - 1);
            let escaped = (lo..=hi).any(|j| {
                sf.code_lines[j].contains("esc(") || sf.comment_lines[j].contains("ESCAPED:")
            });
            if !escaped {
                out.push(finding(
                    rel,
                    i + 1,
                    RULE_ESCAPED,
                    "interpolation into HTML/SVG content position without the \
                     audited `esc(..)` helper nearby; route the value through \
                     `ccs_profile::render::esc` (or justify with `// ESCAPED:`)"
                        .to_string(),
                ));
            }
        }
        if hot_mask[i] {
            if let Some(mac) = PANIC_MACROS.iter().find(|pat| contains_token(code, pat)) {
                out.push(finding(
                    rel,
                    i + 1,
                    RULE_HOT_ASSERT,
                    format!(
                        "`{}` inside a hot-path function; release builds must stay \
                         branch-free here — use `debug_assert!` or hoist the check \
                         to construction time",
                        mac.trim_end_matches('(')
                    ),
                ));
            }
        }
        if cast {
            for pat in TRUNCATING_CASTS {
                if code.contains(pat) {
                    out.push(finding(
                        rel,
                        i + 1,
                        RULE_CAST,
                        format!(
                            "truncating `{}` cast in the remap hot path; \
                             use `try_from` and handle (or justify) the failure",
                            pat.trim_start()
                        ),
                    ));
                }
            }
        }
    }
    out
}

fn finding(rel: &str, line: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        file: rel.to_string(),
        line,
        rule,
        message,
    }
}

/// `true` when a justification `tag` appears in a comment on line `i`
/// or within [`JUSTIFICATION_WINDOW`] lines above it.
fn justified(sf: &SourceFile, i: usize, tag: &str) -> bool {
    let lo = i.saturating_sub(JUSTIFICATION_WINDOW);
    (lo..=i).any(|j| sf.comment_lines[j].contains(tag))
}

/// Whether `rel` is library code: any `.rs` file in `crates/*/src/**`
/// or the root `src/`, excluding binary targets (`src/bin/**`, the
/// root `src/main.rs`), the `xtask` tool, and vendored stand-ins.
pub fn library_code(rel: &str) -> bool {
    if rel.starts_with("crates/xtask/") || rel.starts_with("vendor/") {
        return false;
    }
    if rel.contains("/src/bin/") {
        return false;
    }
    if rel.starts_with("crates/") {
        return rel.contains("/src/");
    }
    rel.starts_with("src/") && rel != "src/main.rs"
}

/// Checks the crate-root lint headers: both attributes must be present
/// **as code** (a commented-out header does not count).
fn lint_lib_header(rel: &str, text: &str, out: &mut Vec<Finding>) {
    let sf = SourceFile::new(rel, text);
    let joined = sf.code_lines.join("\n");
    let compact: String = joined.chars().filter(|c| !c.is_whitespace()).collect();
    for (required, needle) in [
        ("#![warn(missing_docs)]", "#![warn(missing_docs)]"),
        ("#![forbid(unsafe_code)]", "#![forbid(unsafe_code)]"),
    ] {
        if !compact.contains(needle) {
            out.push(finding(
                rel,
                0,
                RULE_HEADER,
                format!("crate root does not declare `{required}`"),
            ));
        }
    }
}

/// The unchecked call present in a code-view line, if any.
/// `unwrap_or*` and `expect_err` are checked alternatives, not panics
/// on the happy path's inverse, and are allowed.
fn unchecked_call(code: &str) -> Option<&'static str> {
    if code.contains(".unwrap()") {
        return Some(".unwrap()");
    }
    // `.expect(` but not `.expect_err(`.
    let mut rest = code;
    while let Some(pos) = rest.find(".expect") {
        let after = &rest[pos + ".expect".len()..];
        if after.starts_with('(') {
            return Some(".expect(");
        }
        rest = after;
    }
    None
}

/// The environment read present in a code-view line, if any: a
/// `use std::env` import, or `env::<read>(`-shaped call.
fn env_read(code: &str) -> Option<String> {
    if contains_token(code, "std::env") {
        return Some("std::env".to_string());
    }
    for read in ENV_READS {
        let pat = format!("env::{read}(");
        if contains_token(code, &pat) {
            return Some(format!("env::{read}"));
        }
    }
    None
}

/// `true` when `code` contains `pat` at a token boundary (the
/// preceding character is not part of an identifier) — so
/// `debug_assert!(` does not count as an `assert!(` occurrence.
fn contains_token(code: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let abs = start + pos;
        let boundary = code[..abs]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return true;
        }
        start = abs + pat.len();
    }
    false
}

/// `true` when `code` mentions the type name `pat` as a whole token:
/// bounded on both sides by non-identifier characters, so `HashMap`
/// does not match inside `MyHashMapExt`.
fn contains_type(code: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let abs = start + pos;
        let before = code[..abs]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after = code[abs + pat.len()..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before && after {
            return true;
        }
        start = abs + pat.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const HYGIENE_FILE: &str = "crates/ccs-core/src/demo.rs";
    const LIB_FILE: &str = "crates/ccs-workloads/src/demo.rs";

    #[test]
    fn bare_unwrap_is_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_UNWRAP);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn bare_expect_is_flagged_but_expect_err_is_not() {
        let src = "fn f(x: Result<u32, ()>) -> u32 {\n    x.expect(\"boom\")\n}\n";
        assert_eq!(lint_source(HYGIENE_FILE, src).len(), 1);
        let src = "fn f(x: Result<u32, ()>) {\n    let _ = x.expect_err(\"fine\");\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn invariant_comment_justifies() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   // INVARIANT: x is Some by construction (see caller).\n    \
                   x.unwrap()\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
        // Same-line justification also accepted.
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // INVARIANT: non-empty\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn unwrap_or_family_is_allowed() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n    \
                   #[test]\n    \
                   fn t() { Some(1).unwrap(); }\n\
                   }\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn unwrap_after_test_block_is_still_flagged() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n    \
                   fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   fn g() { Some(1).unwrap(); }\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn commented_unwrap_is_ignored() {
        let src = "fn f() {\n    // calls .unwrap() eventually\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn other_crates_are_not_under_the_unwrap_rule() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_source("crates/ccs-workloads/src/demo.rs", src).is_empty());
    }

    #[test]
    fn truncating_cast_in_remap_is_flagged() {
        let src = "fn f(x: i64) -> u32 {\n    x as u32\n}\n";
        let f = lint_source("crates/ccs-core/src/remap.rs", src);
        assert!(f.iter().any(|f| f.rule == RULE_CAST && f.line == 2));
        // Widening / usize casts are fine.
        let src = "fn f(x: u32) -> u64 {\n    let _ = x as usize;\n    x as u64\n}\n";
        let f = lint_source("crates/ccs-core/src/remap.rs", src);
        assert!(f.iter().all(|f| f.rule != RULE_CAST), "{f:?}");
    }

    #[test]
    fn print_macros_in_library_code_are_flagged() {
        let src = "fn f() {\n    println!(\"hi\");\n    eprintln!(\"oh\");\n}\n";
        let f = lint_source(LIB_FILE, src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == RULE_PRINT));
        assert!(f[0].message.contains("`println!`"));
        assert!(f[1].message.contains("`eprintln!`"));
        // Root library files are covered too.
        assert_eq!(lint_source("src/cli.rs", src).len(), 2);
    }

    #[test]
    fn print_macros_in_binaries_tests_and_xtask_are_allowed() {
        let src = "fn main() {\n    println!(\"hi\");\n}\n";
        assert!(lint_source("crates/ccs-bench/src/bin/bench_hotpath.rs", src).is_empty());
        assert!(lint_source("src/main.rs", src).is_empty());
        assert!(lint_source("crates/xtask/src/main.rs", src).is_empty());
        assert!(lint_source("crates/ccs-core/tests/e2e.rs", src).is_empty());
        let in_test = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                       fn t() { println!(\"dbg\"); }\n}\n";
        assert!(lint_source(LIB_FILE, in_test).is_empty());
        // Commented mentions are fine.
        let comment = "fn f() {\n    // never println!(..) here\n}\n";
        assert!(lint_source(LIB_FILE, comment).is_empty());
    }

    #[test]
    fn unguarded_probe_emit_is_flagged() {
        let src = "fn f<P: Probe>(probe: &mut P) {\n    probe.emit(Event::Rotate { nodes: vec![] });\n}\n";
        let f = lint_source("crates/ccs-core/src/demo.rs", src);
        assert!(
            f.iter().any(|f| f.rule == RULE_PROBE && f.line == 2),
            "{f:?}"
        );
        // Other crates may structure their probes differently.
        assert!(lint_source("crates/ccs-trace/src/demo.rs", src)
            .iter()
            .all(|f| f.rule != RULE_PROBE));
    }

    #[test]
    fn guarded_probe_emit_is_allowed() {
        let multi = "fn f<P: Probe>(probe: &mut P) {\n    \
                     if P::ACTIVE {\n        \
                     probe.emit(Event::Rotate { nodes: vec![] });\n    \
                     }\n}\n";
        assert!(lint_source("crates/ccs-core/src/demo.rs", multi)
            .iter()
            .all(|f| f.rule != RULE_PROBE));
        let single = "fn f<P: Probe>(probe: &mut P) {\n    if P::ACTIVE { probe.emit(ev()); }\n}\n";
        assert!(lint_source("crates/ccs-core/src/demo.rs", single)
            .iter()
            .all(|f| f.rule != RULE_PROBE));
        // An emission *after* the guarded block is unguarded again.
        let after = "fn f<P: Probe>(probe: &mut P) {\n    \
                     if P::ACTIVE {\n        \
                     probe.emit(ev());\n    \
                     }\n    \
                     probe.emit(ev());\n}\n";
        let f = lint_source("crates/ccs-core/src/demo.rs", after);
        assert!(
            f.iter().any(|f| f.rule == RULE_PROBE && f.line == 5),
            "{f:?}"
        );
        // Test code is exempt.
        let in_test = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                       fn t<P: Probe>(probe: &mut P) { probe.emit(ev()); }\n}\n";
        assert!(lint_source("crates/ccs-core/src/demo.rs", in_test)
            .iter()
            .all(|f| f.rule != RULE_PROBE));
    }

    #[test]
    fn assert_in_hot_path_fn_is_flagged() {
        let src = "fn scan<P: Probe>(x: u32) -> u32 {\n    \
                   assert!(x > 0);\n    \
                   x\n}\n";
        let f = lint_source("crates/ccs-core/src/remap.rs", src);
        assert!(
            f.iter().any(|f| f.rule == RULE_HOT_ASSERT && f.line == 2),
            "{f:?}"
        );
        let src = "pub fn earliest_free(&self) -> u32 {\n    panic!(\"no slot\");\n}\n";
        let f = lint_source("crates/ccs-schedule/src/table.rs", src);
        assert!(
            f.iter().any(|f| f.rule == RULE_HOT_ASSERT && f.line == 2),
            "{f:?}"
        );
        let src = "pub fn distance(&self, a: Pe, b: Pe) -> u32 {\n    \
                   assert_eq!(a.0, b.0);\n    0\n}\n";
        let f = lint_source("crates/ccs-topology/src/machine.rs", src);
        assert!(
            f.iter().any(|f| f.rule == RULE_HOT_ASSERT && f.line == 2),
            "{f:?}"
        );
    }

    #[test]
    fn debug_assert_in_hot_path_fn_is_allowed() {
        let src = "pub fn distance(&self, a: Pe, b: Pe) -> u32 {\n    \
                   debug_assert!(a.0 < 4);\n    \
                   debug_assert_eq!(self.n, 4);\n    0\n}\n";
        let f = lint_source("crates/ccs-topology/src/machine.rs", src);
        assert!(f.iter().all(|f| f.rule != RULE_HOT_ASSERT), "{f:?}");
    }

    #[test]
    fn asserts_outside_hot_path_fns_are_allowed() {
        // Same file, different function: not under the rule.
        let src = "pub fn try_distance(&self) -> u32 {\n    assert!(true);\n    0\n}\n\
                   fn rebuild(&mut self) {\n    assert!(self.ok());\n}\n";
        let f = lint_source("crates/ccs-topology/src/machine.rs", src);
        assert!(f.iter().all(|f| f.rule != RULE_HOT_ASSERT), "{f:?}");
        // A hot-path fn name in an uncovered file is not under the rule.
        let src = "fn scan() {\n    assert!(true);\n}\n";
        assert!(lint_source("crates/ccs-bench/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != RULE_HOT_ASSERT));
    }

    #[test]
    fn assert_after_hot_path_fn_is_allowed() {
        let src = "pub fn earliest_free(&self) -> u32 {\n    \
                   self.cursor\n}\n\
                   fn other(&self) {\n    assert!(self.ok());\n}\n";
        let f = lint_source("crates/ccs-schedule/src/table.rs", src);
        assert!(f.iter().all(|f| f.rule != RULE_HOT_ASSERT), "{f:?}");
    }

    #[test]
    fn unordered_containers_in_library_code_are_flagged() {
        let src = "fn f() {\n    let mut m: std::collections::HashMap<u32, u32> = \
                   std::collections::HashMap::new();\n    m.insert(1, 2);\n}\n";
        let f = lint_source(LIB_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_UNORDERED);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("BTreeMap"), "{}", f[0].message);
        let src =
            "fn f() {\n    let s = std::collections::HashSet::<u32>::new();\n    drop(s);\n}\n";
        let f = lint_source("src/cli.rs", src);
        assert!(f.iter().any(|f| f.rule == RULE_UNORDERED), "{f:?}");
    }

    #[test]
    fn ordered_comment_justifies_hash_containers() {
        let above = "fn f() {\n    \
                     // ORDERED: lookup-only; never iterated, order cannot escape.\n    \
                     let m = std::collections::HashMap::<u32, u32>::new();\n    drop(m);\n}\n";
        assert!(lint_source(LIB_FILE, above).is_empty());
        let same_line =
            "fn f() {\n    let m = HashMap::<u32, u32>::new(); // ORDERED: lookup-only\n    drop(m);\n}\n";
        assert!(lint_source(LIB_FILE, same_line).is_empty());
    }

    #[test]
    fn unordered_rule_skips_imports_tests_binaries_and_btrees() {
        let import = "use std::collections::HashMap;\n\nfn f() {}\n";
        assert!(lint_source(LIB_FILE, import).is_empty());
        let src = "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n    drop(m);\n}\n";
        assert!(lint_source("crates/ccs-bench/src/bin/bench_hotpath.rs", src).is_empty());
        assert!(lint_source("src/main.rs", src).is_empty());
        let in_test = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                       fn t() { let _ = std::collections::HashMap::<u32, u32>::new(); }\n}\n";
        assert!(lint_source(LIB_FILE, in_test).is_empty());
        let btree = "fn f() {\n    let m = std::collections::BTreeMap::<u32, u32>::new();\n    drop(m);\n}\n";
        assert!(lint_source(LIB_FILE, btree).is_empty());
        // A type that merely contains the name is not a hit.
        let ext = "struct MyHashMapExt;\nfn f(_: MyHashMapExt) {}\n";
        assert!(lint_source(LIB_FILE, ext).is_empty());
    }

    #[test]
    fn unescaped_html_interpolation_is_flagged() {
        let src = "fn f(out: &mut String, v: &str) {\n    \
                   let _ = write!(out, \"<td>{v}</td>\");\n}\n";
        let f = lint_source("crates/ccs-report/src/lib.rs", src);
        assert!(
            f.iter().any(|f| f.rule == RULE_ESCAPED && f.line == 2),
            "{f:?}"
        );
        // The profile's SVG renderer is in scope too.
        let f = lint_source("crates/ccs-profile/src/render.rs", src);
        assert!(f.iter().any(|f| f.rule == RULE_ESCAPED), "{f:?}");
    }

    #[test]
    fn esc_on_or_near_the_statement_satisfies_the_rule() {
        let same = "fn f(out: &mut String, v: &str) {\n    \
                    let _ = write!(out, \"<td>{}</td>\", esc(v));\n}\n";
        assert!(lint_source("crates/ccs-report/src/lib.rs", same)
            .iter()
            .all(|f| f.rule != RULE_ESCAPED));
        // Multi-line write!: the literal and the esc() call are on
        // different lines, inside the justification window.
        let near = "fn f(out: &mut String, v: &str) {\n    \
                    let _ = write!(\n        out,\n        \
                    \"<td>{}</td>\",\n        esc(v)\n    );\n}\n";
        assert!(lint_source("crates/ccs-report/src/lib.rs", near)
            .iter()
            .all(|f| f.rule != RULE_ESCAPED));
        let justified = "fn f(out: &mut String, n: u32) {\n    \
                         // ESCAPED: n is a number, no markup characters possible\n    \
                         let _ = write!(out, \"<td>{n}</td>\");\n}\n";
        assert!(lint_source("crates/ccs-report/src/lib.rs", justified)
            .iter()
            .all(|f| f.rule != RULE_ESCAPED));
    }

    #[test]
    fn escape_rule_scope_excludes_other_crates_and_tests() {
        let src = "fn f(out: &mut String, v: &str) {\n    \
                   let _ = write!(out, \"<td>{v}</td>\");\n}\n";
        assert!(lint_source("crates/ccs-profile/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != RULE_ESCAPED));
        assert!(lint_source("src/cli.rs", src)
            .iter()
            .all(|f| f.rule != RULE_ESCAPED));
        let in_test = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                       fn t() { let _ = format!(\"<td>{}</td>\", 1); }\n}\n";
        assert!(lint_source("crates/ccs-report/src/lib.rs", in_test)
            .iter()
            .all(|f| f.rule != RULE_ESCAPED));
    }

    #[test]
    fn lib_header_rule() {
        let good = "//! docs\n#![warn(missing_docs)]\n#![forbid(unsafe_code)]\n";
        assert!(lint_source("crates/ccs-foo/src/lib.rs", good).is_empty());
        let bad = "//! docs\n";
        let f = lint_source("crates/ccs-foo/src/lib.rs", bad);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == RULE_HEADER));
        // Vendored stand-ins are exempt.
        assert!(lint_source("vendor/serde/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn commented_out_lib_header_does_not_count() {
        let bad = "//! docs\n// #![warn(missing_docs)]\n// #![forbid(unsafe_code)]\n";
        let f = lint_source("crates/ccs-foo/src/lib.rs", bad);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == RULE_HEADER));
    }

    // ---- new determinism rules -------------------------------------

    #[test]
    fn wall_clock_in_library_code_is_flagged() {
        let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
        let f = lint_source(LIB_FILE, src);
        assert!(
            f.iter().any(|f| f.rule == RULE_CLOCK && f.line == 2),
            "{f:?}"
        );
        let src = "fn f() -> u64 {\n    let t = SystemTime::now();\n    0\n}\n";
        assert!(lint_source(LIB_FILE, src)
            .iter()
            .any(|f| f.rule == RULE_CLOCK));
    }

    #[test]
    fn clock_comment_justifies_and_binaries_are_exempt() {
        let justified = "fn f() -> Instant {\n    \
                         // CLOCK: recorder timestamps never reach fingerprinted output.\n    \
                         Instant::now()\n}\n";
        assert!(lint_source(LIB_FILE, justified)
            .iter()
            .all(|f| f.rule != RULE_CLOCK));
        let src = "fn main() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
        assert!(lint_source("crates/ccs-bench/src/bin/bench_hotpath.rs", src).is_empty());
        let in_test = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                       fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert!(lint_source(LIB_FILE, in_test).is_empty());
    }

    #[test]
    fn env_reads_in_library_code_are_flagged() {
        let call = "fn f() -> Option<String> {\n    std::env::var(\"HOME\").ok()\n}\n";
        let f = lint_source(LIB_FILE, call);
        assert!(f.iter().any(|f| f.rule == RULE_ENV && f.line == 2), "{f:?}");
        let import = "use std::env;\n\nfn f() -> Vec<String> {\n    env::args().collect()\n}\n";
        let f = lint_source(LIB_FILE, import);
        assert!(f.iter().any(|f| f.rule == RULE_ENV), "{f:?}");
    }

    #[test]
    fn env_escape_and_scope() {
        let justified = "fn f() -> Option<String> {\n    \
                         // ENV: documented debug knob, read once at startup, never in output.\n    \
                         std::env::var(\"CCS_DEBUG\").ok()\n}\n";
        assert!(lint_source(LIB_FILE, justified)
            .iter()
            .all(|f| f.rule != RULE_ENV));
        // Binaries read the environment freely.
        let src = "fn main() {\n    let _ = std::env::args();\n}\n";
        assert!(lint_source("crates/ccs-bench/src/bin/bench_hotpath.rs", src).is_empty());
        assert!(lint_source("src/main.rs", src).is_empty());
        // An unrelated `env` identifier is not an environment read.
        let other = "fn f(env: &Env) -> u32 {\n    env.lookup(3)\n}\n";
        assert!(lint_source(LIB_FILE, other).is_empty());
    }

    #[test]
    fn machine_identity_in_library_code_is_flagged() {
        let src = "fn f() -> u32 {\n    std::process::id()\n}\n";
        assert!(lint_source(LIB_FILE, src)
            .iter()
            .any(|f| f.rule == RULE_IDENTITY));
        let src = "fn f() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        assert!(lint_source(LIB_FILE, src)
            .iter()
            .any(|f| f.rule == RULE_IDENTITY));
        let justified = "fn f() -> u32 {\n    \
                         // IDENTITY: feeds the log file name only, never the ledger.\n    \
                         std::process::id()\n}\n";
        assert!(lint_source(LIB_FILE, justified)
            .iter()
            .all(|f| f.rule != RULE_IDENTITY));
    }

    // ---- lexer regressions: blind spots of the old line engine -----
    //
    // Each case here produced a wrong answer (either direction) under
    // line heuristics; the token engine pins the correct behaviour.

    #[test]
    fn unwrap_inside_string_literal_is_not_flagged() {
        let src = "fn f() -> &'static str {\n    \"call .unwrap() on it\"\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn unwrap_after_a_string_on_the_same_line_is_flagged() {
        let src = "fn f(m: &Map) -> u32 {\n    *m.get(\"key\").unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn unwrap_inside_multiline_block_comment_is_not_flagged() {
        let src = "fn f() {}\n/*\n   old code: x.unwrap()\n*/\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
    }

    #[test]
    fn nested_block_comment_close_is_tracked() {
        // With naive (non-nesting) block tracking the outer comment
        // "closes" at the inner `*/` and the real unwrap below would
        // be read as commented out — or the comment text as code.
        let src =
            "/* outer /* inner */ still comment */\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn raw_string_containing_comment_markers_is_inert() {
        // The `//` inside the raw string is not a comment: the unwrap
        // after the literal on the same line is live code.
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    let _ = r#\"// not a comment\"#; x.unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn justification_tag_inside_a_string_does_not_justify() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   let _ = \"INVARIANT: fake\";\n    \
                   x.unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_UNWRAP);
    }

    #[test]
    fn cfg_test_inside_string_does_not_mask_following_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   let _ = \"#[cfg(test)]\";\n    \
                   x.unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn lifetimes_are_not_string_openers() {
        // A naive quote tracker pairs `'a` with the next `'` and blanks
        // real code as "string contents".
        let src = "fn f<'a>(x: &'a Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn char_literal_quote_does_not_open_a_string() {
        let src = "fn f(c: char, x: Option<u32>) -> u32 {\n    if c == '\"' { return 0; }\n    x.unwrap()\n}\n";
        let f = lint_source(HYGIENE_FILE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn println_inside_string_literal_is_not_flagged() {
        let src = "fn f() -> &'static str {\n    \"use println!(..) for that\"\n}\n";
        assert!(lint_source(LIB_FILE, src).is_empty());
    }

    #[test]
    fn multiline_string_contents_are_not_code() {
        let src =
            "fn f() -> &'static str {\n    \"line one\n    x.unwrap()\n    println!(..)\"\n}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
        assert!(lint_source(LIB_FILE, src).is_empty());
    }

    #[test]
    fn doc_comment_examples_are_not_code() {
        let src = "/// Call `x.unwrap()` after checking, or:\n\
                   /// ```\n\
                   /// let v = std::collections::HashMap::<u32, u32>::new();\n\
                   /// ```\n\
                   fn f() {}\n";
        assert!(lint_source(HYGIENE_FILE, src).is_empty());
        assert!(lint_source(LIB_FILE, src).is_empty());
    }
}
