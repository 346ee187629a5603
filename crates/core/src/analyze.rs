//! Self-hosted registry lints: source-level drift detection.
//!
//! The repo maintains several registries whose entries are only useful
//! while the rest of the tree keeps its side of the bargain — a coverage
//! point that nothing emits, a bug mutant no hook injects or no test
//! detects, a benchmark field no gate checks is silent rot. The
//! `coddtest-analyze` binary (and [`analyze_repo`], which backs it) lints
//! the sources themselves:
//!
//! * **coverage-point-unused** — every const registered in the
//!   `coverage_points!` block of `crates/coddb/src/coverage.rs` must be
//!   emitted (`pt::NAME`) somewhere in the engine outside the registry
//!   file itself.
//! * **mutant-unhooked** — every variant in the `ALL` array of each
//!   mutant family (each enum with an `impl Mutant for <Enum>` line in
//!   `bugs.rs`) must be referenced by engine code outside `bugs.rs` (the
//!   injection hook).
//! * **mutant-untested** — every variant must be referenced by a
//!   detection test: named in a test file, or swept via its family's
//!   `::ALL` array from a test file.
//! * **bench-field-ungated** — every `*_speedup` / `*_overhead` field in
//!   `BENCH_engine.json` must have a row in the `GATED_FIELDS` table of
//!   `crates/bench/src/lib.rs`, which `bench_engine` enforces on every
//!   run.
//! * **mutant-read-unrecorded** — engine code (`crates/coddb/src` outside
//!   `bugs.rs`) and the oracle modules read the mutant registry only
//!   through its recording hook accessor `active`, so every read that
//!   can steer a run lands in the consult record `rerun_test` prunes
//!   replays by. A call of any of the registry's other readers there
//!   (with or without a turbofish) fails the lint, as does resetting the
//!   record.
//! * **oracle-report-outside-case** — oracle modules other than `lib.rs`
//!   build bug reports only through `Case`, so every report lists the
//!   statements its test ran, in run order. A `BugReport { .. }` struct
//!   literal there fails the lint.
//!
//! All parsing is plain text scanning with token-boundary checks — no
//! external dependencies, deterministic, and fast enough for CI.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One registry-drift finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Stable lint identifier (e.g. `"mutant-unhooked"`).
    pub lint: &'static str,
    /// The drifted entry (const, variant, or field name).
    pub subject: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// The result of one full lint run.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeReport {
    pub findings: Vec<LintFinding>,
    /// How many entries each lint examined (lint name → count), so a
    /// clean report is distinguishable from a report that checked
    /// nothing.
    pub checked: BTreeMap<&'static str, usize>,
}

impl AnalyzeReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render as human-readable text (one line per finding plus a
    /// summary line).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}: {} — {}\n", f.lint, f.subject, f.detail));
        }
        let total: usize = self.checked.values().sum();
        out.push_str(&format!(
            "{} finding(s) across {} checked entries ({})\n",
            self.findings.len(),
            total,
            self.checked
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
        out
    }

    /// Render as machine-readable JSON (hand-rolled; the workspace has no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let findings = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"lint\":\"{}\",\"subject\":\"{}\",\"detail\":\"{}\"}}",
                    esc(f.lint),
                    esc(&f.subject),
                    esc(&f.detail)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let checked = self
            .checked
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"clean\":{},\"findings\":[{findings}],\"checked\":{{{checked}}}}}",
            self.is_clean()
        )
    }
}

/// Can `c` continue an identifier?
fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Does `needle` occur in `hay` as a whole token (the character after
/// each occurrence is not part of an identifier)? Guards against prefix
/// collisions like `pt::EXEC_SORT` matching `pt::EXEC_SORT_POSITIONAL`.
fn token_match(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let end = from + pos + needle.len();
        let boundary = hay[end..].chars().next().is_none_or(|c| !is_ident(c));
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// Does `line` call `name` or refer to it by path (`name(`, `name::<` or
/// `::name`, with `name` a whole identifier)?
fn names_fn(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + name.len()..]);
        !before.ends_with(is_ident)
            && (after.starts_with('(')
                || after.starts_with("::<")
                || (before.ends_with("::") && !after.starts_with(is_ident)))
    })
}

/// Does `line` open a `BugReport { .. }` struct literal?
fn opens_report_literal(line: &str) -> bool {
    line.match_indices("BugReport").any(|(at, name)| {
        !line[..at].ends_with(is_ident) && line[at + name.len()..].trim_start().starts_with('{')
    })
}

/// The 1-based numbered lines of `src` that are not line comments.
fn code_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
}

/// Recursively collect `.rs` files under `dir` (sorted for determinism).
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn read_files(paths: &[PathBuf]) -> io::Result<Vec<(PathBuf, String)>> {
    paths
        .iter()
        .map(|p| Ok((p.clone(), fs::read_to_string(p)?)))
        .collect()
}

/// Parse the `coverage_points! { NAME = "label"; ... }` block.
fn parse_coverage_points(src: &str) -> Vec<String> {
    let Some(start) = src.find("coverage_points! {") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in src[start..].lines().skip(1) {
        let line = line.trim();
        if line == "}" {
            break;
        }
        if let Some((name, rest)) = line.split_once('=') {
            let name = name.trim();
            if rest.trim_start().starts_with('"')
                && !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// The mutant families: the enums named by the `impl Mutant for <Enum>`
/// lines of `bugs.rs`.
fn parse_mutant_families(src: &str) -> Vec<&str> {
    src.lines()
        .filter_map(|line| line.trim().strip_prefix("impl Mutant for "))
        .map(|rest| &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())])
        .collect()
}

/// Parse one family's `pub const ALL: [<Enum>; N] = [ ... ];` array,
/// returning the variant names.
fn parse_all_array(src: &str, enum_name: &str) -> Vec<String> {
    let marker = format!("pub const ALL: [{enum_name};");
    let Some(start) = src.find(&marker) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let prefix = format!("{enum_name}::");
    for line in src[start..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with("];") {
            break;
        }
        if let Some(rest) = line.strip_prefix(&prefix) {
            out.push(rest.trim_end_matches(',').trim().to_string());
        }
    }
    out
}

/// The string literals of the `GATED_FIELDS` table: its shape and field
/// names.
fn parse_gated_fields(src: &str) -> std::collections::BTreeSet<String> {
    let Some(start) = src.find("pub const GATED_FIELDS") else {
        return Default::default();
    };
    let table = &src[start..];
    let table = &table[..table.find("];").unwrap_or(table.len())];
    table
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The oracle modules of `crates/core/src`: the oracles `make_oracle`
/// builds and the `Session` they run through.
const ORACLE_MODULES: [&str; 8] = [
    "lib.rs",
    "codd.rs",
    "dqe.rs",
    "eet.rs",
    "norec.rs",
    "recover.rs",
    "tlp.rs",
    "verify.rs",
];

/// The registry's readers that record no consult, and the record's reset.
const UNRECORDED_READS: [&str; 4] = [
    "is_clean",
    "enabled",
    "shares_mutant_with",
    "take_consulted",
];

/// Run every lint against the repository at `root`.
pub fn analyze_repo(root: &Path) -> io::Result<AnalyzeReport> {
    let mut report = AnalyzeReport::default();
    let engine_src = read_files(&rs_files(&root.join("crates/coddb/src"))?)?;

    // Test corpus: integration test files of every crate, plus source
    // files with in-file test modules (unit tests count as detection
    // tests — the validator differential suite lives in both forms).
    let mut test_corpus: Vec<(PathBuf, String)> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.exists() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        crate_dirs.sort();
        for c in crate_dirs {
            test_corpus.extend(read_files(&rs_files(&c.join("tests"))?)?);
            for (p, s) in read_files(&rs_files(&c.join("src"))?)? {
                if s.contains("#[cfg(test)]") {
                    test_corpus.push((p, s));
                }
            }
        }
    }

    // --- coverage-point-unused -------------------------------------------
    let coverage_src = engine_src
        .iter()
        .find(|(p, _)| p.ends_with("coverage.rs"))
        .map(|(_, s)| s.as_str())
        .unwrap_or("");
    let points = parse_coverage_points(coverage_src);
    report.checked.insert("coverage-point-unused", points.len());
    for name in &points {
        let emitted = engine_src
            .iter()
            .any(|(p, s)| !p.ends_with("coverage.rs") && token_match(s, &format!("pt::{name}")));
        if !emitted {
            report.findings.push(LintFinding {
                lint: "coverage-point-unused",
                subject: name.clone(),
                detail: "registered in coverage_points! but never emitted by the engine".into(),
            });
        }
    }

    // --- mutant-unhooked / mutant-untested -------------------------------
    let bugs_src = engine_src
        .iter()
        .find(|(p, _)| p.ends_with("bugs.rs"))
        .map(|(_, s)| s.as_str())
        .unwrap_or("");
    let mut hook_checked = 0;
    for enum_name in parse_mutant_families(bugs_src) {
        let variants = parse_all_array(bugs_src, enum_name);
        hook_checked += variants.len();
        let all_swept = test_corpus
            .iter()
            .any(|(_, s)| token_match(s, &format!("{enum_name}::ALL")));
        for v in &variants {
            let qualified = format!("{enum_name}::{v}");
            let hooked = engine_src
                .iter()
                .any(|(p, s)| !p.ends_with("bugs.rs") && token_match(s, &qualified));
            if !hooked {
                report.findings.push(LintFinding {
                    lint: "mutant-unhooked",
                    subject: qualified.clone(),
                    detail: "listed in the registry's ALL array but never injected by engine code"
                        .into(),
                });
            }
            let tested = all_swept || test_corpus.iter().any(|(_, s)| token_match(s, &qualified));
            if !tested {
                report.findings.push(LintFinding {
                    lint: "mutant-untested",
                    subject: qualified,
                    detail: "no detection test names this mutant or sweeps its registry's ALL"
                        .into(),
                });
            }
        }
    }
    report.checked.insert("mutant-unhooked", hook_checked);
    report.checked.insert("mutant-untested", hook_checked);

    // --- mutant-read-unrecorded ------------------------------------------
    let oracle_paths: Vec<PathBuf> = ORACLE_MODULES
        .iter()
        .map(|m| root.join("crates/core/src").join(m))
        .filter(|p| p.exists())
        .collect();
    let oracle_src = read_files(&oracle_paths)?;
    let scanned: Vec<&(PathBuf, String)> = engine_src
        .iter()
        .filter(|(p, _)| !p.ends_with("bugs.rs"))
        .chain(&oracle_src)
        .collect();
    report
        .checked
        .insert("mutant-read-unrecorded", scanned.len());
    for (path, src) in scanned {
        for (no, line) in code_lines(src) {
            let read = UNRECORDED_READS.iter().find(|m| names_fn(line, m));
            if let Some(m) = read {
                let rel = path.strip_prefix(root).unwrap_or(path);
                report.findings.push(LintFinding {
                    lint: "mutant-read-unrecorded",
                    subject: format!("{}:{no}", rel.display()),
                    detail: format!(
                        "`{m}` reads the mutant registry without recording a consult; \
                         engine and oracle code must use the hook accessor `active`"
                    ),
                });
            }
        }
    }

    // --- oracle-report-outside-case --------------------------------------
    let oracles: Vec<&(PathBuf, String)> = oracle_src
        .iter()
        .filter(|(p, _)| !p.ends_with("lib.rs"))
        .collect();
    report
        .checked
        .insert("oracle-report-outside-case", oracles.len());
    for (path, src) in oracles {
        for (no, _) in code_lines(src).filter(|(_, line)| opens_report_literal(line)) {
            let rel = path.strip_prefix(root).unwrap_or(path);
            report.findings.push(LintFinding {
                lint: "oracle-report-outside-case",
                subject: format!("{}:{no}", rel.display()),
                detail: "a `BugReport` literal in an oracle module; oracles report through \
                         `Case`, which lists the statements the test ran"
                    .into(),
            });
        }
    }

    // --- bench-field-ungated ---------------------------------------------
    let bench_json = fs::read_to_string(root.join("BENCH_engine.json")).unwrap_or_default();
    let gate_table = parse_gated_fields(
        &fs::read_to_string(root.join("crates/bench/src/lib.rs")).unwrap_or_default(),
    );
    // A set: the same shape can recur across nested sections (one gate
    // covers every occurrence of the field name).
    let mut gated_fields = std::collections::BTreeSet::new();
    for line in bench_json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, _)) = rest.split_once('"') else {
            continue;
        };
        if key.ends_with("_speedup") || key.ends_with("_overhead") {
            gated_fields.insert(key.to_string());
        }
    }
    report
        .checked
        .insert("bench-field-ungated", gated_fields.len());
    for field in &gated_fields {
        if !gate_table.contains(field) {
            report.findings.push(LintFinding {
                lint: "bench-field-ungated",
                subject: field.clone(),
                detail: "benchmark field in BENCH_engine.json has no GATED_FIELDS row in \
                         crates/bench/src/lib.rs"
                    .into(),
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The lint suite's acceptance gate: the repository at HEAD is
    /// drift-free. Any registry drift a future change introduces fails
    /// here (and in CI via scripts/analyze_check) instead of rotting.
    #[test]
    fn repo_at_head_is_clean() {
        let report = analyze_repo(&repo_root()).unwrap();
        assert!(report.is_clean(), "{}", report.to_text());
        // And the run actually examined every registry.
        assert!(report.checked["coverage-point-unused"] > 100);
        assert_eq!(report.checked["mutant-unhooked"], 45 + 11 + 5 + 5);
        assert!(report.checked["bench-field-ungated"] >= 8);
        assert!(report.checked["mutant-read-unrecorded"] > 20);
        assert_eq!(report.checked["oracle-report-outside-case"], 7);
    }

    /// A deliberately-broken fixture repo: an unemitted coverage point,
    /// an unhooked + untested mutant, an ungated bench field, unrecorded
    /// registry reads in engine and oracle code and a bug report built
    /// outside `Case` must each produce their finding.
    #[test]
    fn broken_fixture_fails_every_lint() {
        let dir = std::env::temp_dir().join(format!("coddtest-analyze-{}", std::process::id()));
        let src = dir.join("crates/coddb/src");
        fs::create_dir_all(&src).unwrap();
        let bench_src = dir.join("crates/bench/src");
        fs::create_dir_all(&bench_src).unwrap();
        fs::write(
            src.join("coverage.rs"),
            "coverage_points! {\n    USED_POINT = \"a\";\n    GHOST_POINT = \"b\";\n}\n",
        )
        .unwrap();
        fs::write(src.join("exec.rs"), "fn f() { hit(pt::USED_POINT); }\n").unwrap();
        fs::write(
            src.join("bugs.rs"),
            "impl Mutant for BugId {}\n\
             pub const ALL: [BugId; 2] = [\n    BugId::Hooked,\n    BugId::Ghost,\n];\n",
        )
        .unwrap();
        fs::write(
            src.join("hooks.rs"),
            "fn g(b: &B) { b.active(BugId::Hooked); }\n",
        )
        .unwrap();
        fs::write(
            src.join("gate.rs"),
            "// b.is_clean() in a comment is fine\nfn h(b: &B) -> bool { b.is_clean() }\n",
        )
        .unwrap();
        let oracles = dir.join("crates/core/src");
        fs::create_dir_all(&oracles).unwrap();
        fs::write(
            oracles.join("tlp.rs"),
            "fn o(b: &B) { let _ = b.enabled::<IndexBugId>().count(); take_consulted(); }\n\
             fn r() -> TestOutcome { TestOutcome::Bug(BugReport { kind: K }) }\n\
             // BugReport { kind: K } in a comment is fine\n",
        )
        .unwrap();
        fs::write(
            oracles.join("lib.rs"),
            "fn report(k: K) -> BugReport { BugReport { kind: k } }\n",
        )
        .unwrap();
        let tests = dir.join("crates/coddb/tests");
        fs::create_dir_all(&tests).unwrap();
        fs::write(
            tests.join("detect.rs"),
            "fn t() { probe(BugId::Hooked); }\n",
        )
        .unwrap();
        fs::write(
            dir.join("BENCH_engine.json"),
            "{\n\"gated_speedup\": 2.0,\n\"ghost_speedup\": 2.0\n}\n",
        )
        .unwrap();
        fs::write(
            bench_src.join("lib.rs"),
            "pub const GATED_FIELDS: &[(&str, &str)] = &[\n    (\"s\", \"gated_speedup\"),\n];\n",
        )
        .unwrap();

        let report = analyze_repo(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();

        let lints: Vec<(&str, &str)> = report
            .findings
            .iter()
            .map(|f| (f.lint, f.subject.as_str()))
            .collect();
        assert!(
            lints.contains(&("coverage-point-unused", "GHOST_POINT")),
            "{lints:?}"
        );
        assert!(
            lints.contains(&("mutant-unhooked", "BugId::Ghost")),
            "{lints:?}"
        );
        assert!(
            lints.contains(&("mutant-untested", "BugId::Ghost")),
            "{lints:?}"
        );
        assert!(
            lints.contains(&("bench-field-ungated", "ghost_speedup")),
            "{lints:?}"
        );
        assert!(
            lints.contains(&("mutant-read-unrecorded", "crates/coddb/src/gate.rs:2")),
            "{lints:?}"
        );
        assert!(
            lints.contains(&("mutant-read-unrecorded", "crates/core/src/tlp.rs:1")),
            "{lints:?}"
        );
        assert_eq!(
            lints
                .iter()
                .filter(|(l, _)| *l == "mutant-read-unrecorded")
                .count(),
            2,
            "one finding per offending line, none for comments or hook reads: {lints:?}"
        );
        // Only `Case` in lib.rs builds reports; comments do not count.
        let outside_case: Vec<&str> = lints
            .iter()
            .filter(|(l, _)| *l == "oracle-report-outside-case")
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(outside_case, ["crates/core/src/tlp.rs:2"], "{lints:?}");
        // The healthy entries stay clean.
        assert!(!lints.iter().any(|(_, s)| *s == "USED_POINT"));
        assert!(!lints.iter().any(|(_, s)| *s == "BugId::Hooked"));
        assert!(!lints.iter().any(|(_, s)| *s == "gated_speedup"));
        assert!(!report.is_clean());
        // JSON output carries the same findings.
        let json = report.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("GHOST_POINT"));
    }

    #[test]
    fn unrecorded_read_matching_respects_identifiers() {
        assert!(names_fn("ctx.bugs.enabled().next()", "enabled"));
        assert!(names_fn(".map(BugRegistry::enabled)", "enabled"));
        assert!(names_fn("let c = take_consulted();", "take_consulted"));
        assert!(names_fn("bugs.enabled::<IndexBugId>().count()", "enabled"));
        assert!(!names_fn("ctx.bugs.enabled_index()", "enabled"));
        assert!(!names_fn("use m::enabled_set;", "enabled"));
        assert!(!names_fn("tr.is_enabled()", "enabled"));
        assert!(!names_fn("let enabled = 1;", "enabled"));
    }

    #[test]
    fn token_matching_respects_boundaries() {
        assert!(token_match("hit(pt::EXEC_SORT);", "pt::EXEC_SORT"));
        assert!(!token_match(
            "hit(pt::EXEC_SORT_POSITIONAL);",
            "pt::EXEC_SORT"
        ));
        assert!(token_match(
            "a(pt::EXEC_SORT_POSITIONAL); b(pt::EXEC_SORT)",
            "pt::EXEC_SORT"
        ));
    }
}
