//! Differential testing of the ordered-index seek path: every statement
//! runs through both access modes — [`AccessMode::Indexed`] (planner-
//! selected range/prefix seeks with sort elimination) and
//! [`AccessMode::ScanOnly`] (every seek forced back to a sequential scan
//! plus the baseline filter) — and must produce byte-identical results,
//! identical coverage bitsets and **identical fuel consumption**, over
//! NULL-heavy / duplicate / mixed-class data, DML-interleaved scripts,
//! every dialect, and every injected engine mutant. A separate battery
//! checks that each [`IndexBugId`] seek-path mutant *does* diverge on the
//! indexed engine while staying silent under ScanOnly.

use coddb::bugs::BugRegistry;
use coddb::{AccessMode, BugId, Database, Dialect, IndexBugId};

/// Seek-path workout: single- and two-column indexes over NULL-heavy,
/// duplicate-heavy data; point / range / prefix probes; residual
/// conjuncts (erroring ones included); matching and non-matching ORDER
/// BY; DML interleaved so maintenance and re-planning are exercised.
const SCRIPT: &[&str] = &[
    "CREATE TABLE t (k INT, v INT, s TEXT)",
    "INSERT INTO t VALUES (1, 10, 'a'), (NULL, 20, 'b'), (2, NULL, NULL), \
     (2, 30, 'c'), (5, 40, 'd'), (NULL, NULL, 'e'), (3, 50, 'a'), (0, 60, 'f'), \
     (2, 70, 'g'), (5, 80, NULL)",
    "CREATE INDEX ik ON t (k)",
    "CREATE INDEX ikv ON t (k, v)",
    // Point and range seeks, NULL keys dropped by the re-check.
    "SELECT * FROM t WHERE k = 2",
    "SELECT * FROM t WHERE k > 1",
    "SELECT * FROM t WHERE k >= 2",
    "SELECT * FROM t WHERE k < 2",
    "SELECT * FROM t WHERE k <= 0",
    "SELECT * FROM t WHERE k = 99",
    "SELECT * FROM t WHERE k IS NULL",
    // Literal on the left (flipped ops) and alias-qualified columns.
    "SELECT * FROM t WHERE 2 = k",
    "SELECT * FROM t WHERE 1 < k",
    "SELECT * FROM t AS x WHERE x.k >= 3",
    // Two-column prefixes: eq+eq, eq+range.
    "SELECT * FROM t WHERE k = 2 AND v = 30",
    "SELECT * FROM t WHERE k = 2 AND v > 20",
    "SELECT * FROM t WHERE k = 5 AND v <= 80",
    // Residual conjuncts beyond the consumed prefix.
    "SELECT * FROM t WHERE k = 2 AND s = 'c'",
    "SELECT * FROM t WHERE k > 0 AND v % 20 = 0",
    "SELECT * FROM t WHERE k = 2 AND v > 20 AND s IS NOT NULL",
    // Erroring residuals: the error and everything observed before it
    // must land identically in both modes.
    "SELECT * FROM t WHERE k >= 0 AND 100 / v > 1",
    "SELECT * FROM t WHERE k = 2 AND 10 / (v - 30) = 1",
    // Sort elimination: full consumption + matching ORDER BY, both
    // directions, DISTINCT, LIMIT, and a bare ordered full seek.
    "SELECT * FROM t WHERE k > 1 ORDER BY k",
    "SELECT * FROM t WHERE k >= 0 ORDER BY k DESC",
    "SELECT * FROM t ORDER BY k",
    "SELECT * FROM t ORDER BY k DESC LIMIT 3",
    "SELECT DISTINCT k FROM t ORDER BY k",
    "SELECT k, v FROM t ORDER BY k, v",
    "SELECT k, v FROM t WHERE k = 2 ORDER BY k, v DESC",
    // ORDER BY the seek cannot satisfy: the sort must still run.
    "SELECT * FROM t WHERE k > 1 ORDER BY v",
    "SELECT * FROM t WHERE k = 2 ORDER BY s",
    // Aggregates / joins over seeks (seek under a plain FROM only).
    "SELECT COUNT(*), SUM(v) FROM t WHERE k = 2",
    "SELECT k, COUNT(*) FROM t WHERE k > 0 GROUP BY k ORDER BY 1",
    // DML maintenance: inserts, re-keying updates, deletes — then the
    // same probes again over the mutated table.
    "INSERT INTO t VALUES (2, 25, 'h'), (NULL, 90, 'i'), (7, 5, 'j')",
    "SELECT * FROM t WHERE k = 2 ORDER BY k, v",
    "UPDATE t SET k = 4 WHERE v = 30",
    "SELECT * FROM t WHERE k = 4",
    "SELECT * FROM t WHERE k = 2 AND v > 20",
    "UPDATE t SET v = v + 1 WHERE k = 5",
    "SELECT * FROM t WHERE k = 5 AND v > 80",
    "DELETE FROM t WHERE k = 2 AND v > 60",
    "SELECT * FROM t WHERE k = 2 ORDER BY k DESC",
    "DELETE FROM t WHERE k IS NULL",
    "SELECT COUNT(*) FROM t",
    "SELECT * FROM t WHERE k >= 0 ORDER BY k",
    // DML through seeks: UPDATE and DELETE take the access path a SELECT
    // with the same WHERE clause takes — point, range with a residual,
    // re-keying the seeked column, duplicate keys, erroring residuals.
    "UPDATE t SET v = v + 100 WHERE k = 3",
    "DELETE FROM t WHERE k = 0",
    "UPDATE t SET s = 'r' WHERE k > 1 AND v < 60",
    "UPDATE t SET s = 'w' WHERE k = 2 AND v > 20 AND s IS NOT NULL",
    "UPDATE t SET k = k + 10 WHERE k = 4",
    "SELECT * FROM t WHERE k = 14",
    "INSERT INTO t VALUES (6, 1, 'x'), (6, 2, 'y'), (6, NULL, 'z'), (6, 3, NULL), (8, 0, 'o')",
    "DELETE FROM t WHERE k = 6 AND v > 1",
    "SELECT * FROM t WHERE k = 6",
    "DELETE FROM t WHERE k = 8 AND 100 / v > 1",
    "DELETE FROM t WHERE k >= 0 AND 100 / v > 1",
    "SELECT * FROM t WHERE k >= 0 ORDER BY k",
    // DROP INDEX: probes fall back to scans and still agree.
    "DROP INDEX ikv",
    "SELECT * FROM t WHERE k = 4 AND v = 30",
    "SELECT k, v FROM t ORDER BY k, v",
];

/// Mixed-class key columns: TEXT values among INTs must trip the runtime
/// exactness gate (seek falls back to the scan on both modes), and
/// TEXT-uniform columns must still seek — with dialect-specific
/// comparison/coercion semantics intact either way.
const MIXED_SCRIPT: &[&str] = &[
    "CREATE TABLE m (k, s TEXT)",
    "INSERT INTO m VALUES (1, 'a'), ('5', 'b'), (2, 'c'), (NULL, 'd'), \
     (2.5, 'e'), ('abc', 'f'), (3, 'a')",
    "CREATE INDEX imk ON m (k)",
    "CREATE INDEX ims ON m (s)",
    // Mixed-class key probes: the gate must refuse the seek.
    "SELECT * FROM m WHERE k > 1",
    "SELECT * FROM m WHERE k = 2",
    "SELECT * FROM m WHERE k = '5'",
    "SELECT * FROM m WHERE k <= 2.5",
    "SELECT * FROM m ORDER BY k",
    // TEXT-uniform key, TEXT probe: seeks. Non-TEXT probe: refused.
    "SELECT * FROM m WHERE s = 'a'",
    "SELECT * FROM m WHERE s > 'b' ORDER BY s",
    "SELECT * FROM m WHERE s < 'd' ORDER BY s DESC",
    "SELECT * FROM m WHERE s = 1",
    // Numeric Int/Real unification under one key slot.
    "CREATE TABLE n (k INT)",
    "INSERT INTO n VALUES (1), (2), (2), (3), (NULL)",
    "CREATE INDEX ink ON n (k)",
    "SELECT * FROM n WHERE k = 2.0",
    "SELECT * FROM n WHERE k > 1.5 ORDER BY k",
    "SELECT * FROM n WHERE k >= 2 ORDER BY k DESC",
];

fn run_script(
    dialect: Dialect,
    bugs: BugRegistry,
    mode: AccessMode,
    script: &[&str],
) -> (Vec<String>, Vec<&'static str>, u64) {
    let mut db = Database::with_bugs(dialect, bugs);
    db.set_access_mode(mode);
    let mut outcomes = Vec::new();
    for sql in script {
        match coddb::parser::parse_statements(sql) {
            Ok(stmts) => {
                for stmt in &stmts {
                    outcomes.push(match db.execute(stmt) {
                        Ok(out) => format!("{out:?}"),
                        Err(e) => format!("error: {e}"),
                    });
                }
            }
            // Dialect-independent parse behaviour; keep slots aligned.
            Err(e) => outcomes.push(format!("parse error: {e}")),
        }
    }
    (outcomes, db.coverage().hit_points(), db.fuel_used())
}

fn assert_modes_agree(dialect: Dialect, bugs: fn() -> BugRegistry, script: &[&str], tag: &str) {
    let (idx_out, idx_cov, idx_fuel) = run_script(dialect, bugs(), AccessMode::Indexed, script);
    let (scan_out, scan_cov, scan_fuel) = run_script(dialect, bugs(), AccessMode::ScanOnly, script);
    assert_eq!(idx_out.len(), scan_out.len(), "[{tag}] statement counts");
    for (i, (a, b)) in idx_out.iter().zip(scan_out.iter()).enumerate() {
        assert_eq!(
            a,
            b,
            "[{tag}] access modes disagree on {dialect:?} statement {i} ({:?})",
            script.get(i)
        );
    }
    assert_eq!(
        idx_cov, scan_cov,
        "[{tag}] coverage bitsets diverge between access modes on {dialect:?}"
    );
    assert_eq!(
        idx_fuel, scan_fuel,
        "[{tag}] fuel accounting diverges between access modes on {dialect:?}"
    );
}

#[test]
fn indexed_matches_scan_only_on_every_dialect() {
    for dialect in Dialect::ALL {
        assert_modes_agree(dialect, BugRegistry::none, SCRIPT, "clean");
        assert_modes_agree(dialect, BugRegistry::none, MIXED_SCRIPT, "mixed");
    }
}

/// Under every engine mutant the two access modes must still agree: a
/// mutant may change results, but it must change them identically on the
/// seek path and the scan baseline (seek selection is gated off for the
/// mutants that hook index-scan or WHERE-shape contexts).
#[test]
fn indexed_matches_scan_only_under_every_engine_mutant() {
    for bug in BugId::ALL {
        let make = move || BugRegistry::only(bug);
        let (idx_out, idx_cov, idx_fuel) =
            run_script(bug.dialect(), make(), AccessMode::Indexed, SCRIPT);
        let (scan_out, scan_cov, scan_fuel) =
            run_script(bug.dialect(), make(), AccessMode::ScanOnly, SCRIPT);
        for (i, (a, b)) in idx_out.iter().zip(scan_out.iter()).enumerate() {
            assert_eq!(
                a,
                b,
                "access modes disagree under {bug:?} on statement {i} ({:?})",
                SCRIPT.get(i)
            );
        }
        assert_eq!(
            idx_cov, scan_cov,
            "coverage bitsets diverge between access modes under {bug:?}"
        );
        assert_eq!(
            idx_fuel, scan_fuel,
            "fuel accounting diverges between access modes under {bug:?}"
        );
    }
}

/// Every index mutant must fire somewhere in the workout script on the
/// indexed engine — and stay silent under ScanOnly, where no seek (and
/// no seek-path hook) ever runs.
#[test]
fn every_index_mutant_fires_indexed_and_is_silent_scan_only() {
    for bug in IndexBugId::ALL {
        let clean = run_script(
            Dialect::Sqlite,
            BugRegistry::none(),
            AccessMode::Indexed,
            SCRIPT,
        );
        let buggy = run_script(
            Dialect::Sqlite,
            BugRegistry::only(bug),
            AccessMode::Indexed,
            SCRIPT,
        );
        assert_ne!(
            clean.0, buggy.0,
            "{bug:?} never fires in the seek workout script"
        );

        let clean_scan = run_script(
            Dialect::Sqlite,
            BugRegistry::none(),
            AccessMode::ScanOnly,
            SCRIPT,
        );
        let buggy_scan = run_script(
            Dialect::Sqlite,
            BugRegistry::only(bug),
            AccessMode::ScanOnly,
            SCRIPT,
        );
        assert_eq!(
            clean_scan.0, buggy_scan.0,
            "{bug:?} fired under ScanOnly — seek-path mutants must live on the seek path"
        );
    }
}

/// Pinpoint divergence checks: one minimal scenario per index mutant, on
/// a fresh database, asserting the *shape* of the wrong answer.
#[test]
fn index_mutant_divergence_scenarios() {
    let query = |bugs: BugRegistry, script: &[&str], probe: &str| -> Vec<String> {
        let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
        for sql in script {
            db.execute_sql(sql).unwrap();
        }
        let rel = db.query_sql(probe).unwrap();
        rel.rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    };
    let setup: &[&str] = &[
        "CREATE TABLE t (k INT, v INT)",
        "INSERT INTO t VALUES (1, 10), (2, 20), (2, 21), (3, 30), (NULL, 40)",
        "CREATE INDEX ik ON t (k)",
    ];

    // RangeBoundOffByOne: `>=` drops the boundary key.
    let clean = query(
        BugRegistry::none(),
        setup,
        "SELECT v FROM t WHERE k >= 2 ORDER BY v",
    );
    let buggy = query(
        BugRegistry::only(IndexBugId::RangeBoundOffByOne),
        setup,
        "SELECT v FROM t WHERE k >= 2 ORDER BY v",
    );
    assert_eq!(clean.len(), 3);
    assert_eq!(buggy.len(), 1, "boundary rows should be dropped: {buggy:?}");

    // EqSeekMissesDuplicates: only the first duplicate survives.
    let buggy = query(
        BugRegistry::only(IndexBugId::EqSeekMissesDuplicates),
        setup,
        "SELECT v FROM t WHERE k = 2 ORDER BY v",
    );
    assert_eq!(buggy.len(), 1, "duplicates should be dropped: {buggy:?}");

    // PrefixSeekIgnoresResidual: NULL-key rows leak through.
    let buggy = query(
        BugRegistry::only(IndexBugId::PrefixSeekIgnoresResidual),
        setup,
        "SELECT v FROM t WHERE k > 0",
    );
    assert_eq!(buggy.len(), 5, "NULL-key row should leak: {buggy:?}");

    // SortElimWrongDirection: DESC comes back ascending.
    let buggy = query(
        BugRegistry::only(IndexBugId::SortElimWrongDirection),
        setup,
        "SELECT k FROM t WHERE k >= 1 ORDER BY k DESC",
    );
    assert_eq!(buggy, vec!["Int(1)", "Int(2)", "Int(2)", "Int(3)"]);

    // StaleEntryAfterUpdate: the index keeps the pre-update key, so the
    // seek finds the old key and misses the new one.
    let dml: &[&str] = &[
        "CREATE TABLE t (k INT, v INT)",
        "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
        "CREATE INDEX ik ON t (k)",
        "UPDATE t SET k = 9 WHERE v = 20",
    ];
    let clean = query(BugRegistry::none(), dml, "SELECT v FROM t WHERE k = 9");
    assert_eq!(clean.len(), 1);
    let buggy = query(
        BugRegistry::only(IndexBugId::StaleEntryAfterUpdate),
        dml,
        "SELECT v FROM t WHERE k = 9",
    );
    assert!(
        buggy.is_empty(),
        "stale index should miss the row: {buggy:?}"
    );
}

/// Access modes must agree statement-for-statement even when the fuel
/// budget runs out mid-script: the seek path charges the full scan ledger
/// (FROM charge up front, skipped rows replayed at the filter), so
/// exhaustion lands on the same statement with the same totals.
#[test]
fn fuel_exhaustion_agrees_across_access_modes() {
    for fuel in [11u64, 37, 83, 300] {
        let run = |mode: AccessMode| {
            let mut db = Database::new(Dialect::Sqlite);
            db.set_access_mode(mode);
            db.set_fuel_limit(fuel);
            let mut outcomes = Vec::new();
            for sql in [
                "CREATE TABLE t (k INT)",
                "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10)",
                "CREATE INDEX ik ON t (k)",
                "SELECT COUNT(*) FROM t WHERE k > 7",
                "SELECT * FROM t WHERE k = 3",
                "SELECT * FROM t WHERE k >= 2 ORDER BY k DESC",
            ] {
                for stmt in &coddb::parser::parse_statements(sql).unwrap() {
                    outcomes.push(match db.execute(stmt) {
                        Ok(out) => format!("{out:?}"),
                        Err(e) => format!("error: {e}"),
                    });
                }
            }
            (outcomes, db.fuel_used())
        };
        let idx = run(AccessMode::Indexed);
        let scan = run(AccessMode::ScanOnly);
        assert_eq!(idx.0, scan.0, "outcomes diverge at fuel limit {fuel}");
        assert_eq!(idx.1, scan.1, "fuel accounting diverges at limit {fuel}");
    }
}

/// The workout script, DML seeks included, at the fuel limits above:
/// every statement must exhaust or finish identically in both modes, with
/// the same totals.
#[test]
fn script_fuel_exhaustion_agrees_across_access_modes() {
    for fuel in [11u64, 37, 83, 300] {
        for dialect in [Dialect::Sqlite, Dialect::Cockroach] {
            let run = |mode: AccessMode| {
                let mut db = Database::new(dialect);
                db.set_access_mode(mode);
                db.set_fuel_limit(fuel);
                let mut outcomes = Vec::new();
                // DROP INDEX does not parse: skip it, so both indexes stay.
                for stmts in SCRIPT
                    .iter()
                    .filter_map(|sql| coddb::parser::parse_statements(sql).ok())
                {
                    for stmt in &stmts {
                        outcomes.push(match db.execute(stmt) {
                            Ok(out) => format!("{out:?}"),
                            Err(e) => format!("error: {e}"),
                        });
                    }
                }
                (outcomes, db.coverage().hit_points(), db.fuel_used())
            };
            let idx = run(AccessMode::Indexed);
            let scan = run(AccessMode::ScanOnly);
            assert_eq!(
                idx.0, scan.0,
                "{dialect:?} outcomes diverge at fuel limit {fuel}"
            );
            assert_eq!(
                idx.1, scan.1,
                "{dialect:?} coverage diverges at fuel limit {fuel}"
            );
            assert_eq!(idx.2, scan.2, "{dialect:?} fuel diverges at limit {fuel}");
        }
    }
}
