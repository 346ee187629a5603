//! Validator differential suite: for every engine and index mutant, the
//! static verifier ([`coddb::validate`], via [`Database::verify_select`])
//! must either stay silent (a runtime-only bug the plan tree cannot show)
//! or fire with a stable, reproducible diagnostic — and the statically-
//! detectable subset is pinned in a golden test.

use coddb::validate::Violation;
use coddb::{BugId, BugRegistry, Database, Dialect, IndexBugId};

/// DDL/DML that materializes every trigger shape the planner-adjacent
/// mutants need: a physical single-column index for range and ordered
/// seeks, plus a second table for outer-join pushdown.
const SETUP: &[&str] = &[
    "CREATE TABLE t (k INT, v INT)",
    "INSERT INTO t VALUES (1, 10), (2, 20), (2, 21), (3, 30), (NULL, 40)",
    "CREATE INDEX ik ON t (k)",
    "CREATE TABLE r (k INT, w INT)",
    "INSERT INTO r VALUES (2, 200), (3, 300)",
];

/// Probe queries covering the invariants the verifier re-derives: a range
/// seek (bound tightening), an eliminated DESC sort (direction), an
/// equality seek over duplicates, a residual prefix seek, a hash join
/// with a residual conjunct, and a LEFT JOIN with a right-side WHERE
/// conjunct (illegal pushdown bait).
const PROBES: &[&str] = &[
    "SELECT v FROM t WHERE k >= 2",
    "SELECT v FROM t WHERE k = 2",
    "SELECT v FROM t WHERE k > 0",
    "SELECT k FROM t ORDER BY k DESC",
    "SELECT t.v FROM t JOIN r ON t.k = r.k AND t.v < r.w",
    "SELECT t.v FROM t LEFT JOIN r ON t.k = r.k WHERE r.w > 0",
];

/// Run the verifier over every probe under one registry; returns all
/// violations (probe-tagged) in probe order.
fn sweep(bugs: BugRegistry) -> Vec<(usize, Violation)> {
    let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
    for sql in SETUP {
        db.execute_sql(sql).unwrap();
    }
    let mut out = Vec::new();
    for (i, probe) in PROBES.iter().enumerate() {
        let q = coddb::parser::parse_select(probe).unwrap();
        for v in db.verify_select(&q).unwrap() {
            out.push((i, v));
        }
    }
    out
}

#[test]
fn clean_engine_produces_zero_violations() {
    let found = sweep(BugRegistry::none());
    assert!(found.is_empty(), "clean engine flagged: {found:?}");
}

/// Golden pin of the statically-detectable subset: exactly these mutants
/// corrupt the plan tree itself (everything else is runtime-only), and
/// each fires with the expected invariant code.
#[test]
fn statically_detectable_mutants_are_pinned() {
    let static_engine: Vec<BugId> = BugId::ALL
        .into_iter()
        .filter(|&b| !sweep(BugRegistry::only(b)).is_empty())
        .collect();
    assert_eq!(
        static_engine,
        [BugId::DuckdbPushdownLeftJoin],
        "statically-detectable engine mutant set drifted"
    );
    let static_index: Vec<IndexBugId> = IndexBugId::ALL
        .into_iter()
        .filter(|&b| !sweep(BugRegistry::only(b)).is_empty())
        .collect();
    assert_eq!(
        static_index,
        [
            IndexBugId::RangeBoundOffByOne,
            IndexBugId::SortElimWrongDirection
        ],
        "statically-detectable index mutant set drifted"
    );

    // And each fires with the expected invariant code.
    let codes = |found: Vec<(usize, Violation)>| -> Vec<&'static str> {
        found.into_iter().map(|(_, v)| v.code).collect::<Vec<_>>()
    };
    assert!(
        codes(sweep(BugRegistry::only(BugId::DuckdbPushdownLeftJoin))).contains(&"filter-position")
    );
    assert!(
        codes(sweep(BugRegistry::only(IndexBugId::RangeBoundOffByOne)))
            .contains(&"seek-prefix-mismatch")
    );
    assert!(
        codes(sweep(BugRegistry::only(IndexBugId::SortElimWrongDirection)))
            .contains(&"sort-elim-direction")
    );
}

/// Every mutant's verifier output is deterministic: two fresh sweeps
/// produce identical violation lists (codes, details and probe
/// attribution), so a campaign finding reproduces from its seeds.
#[test]
fn verifier_diagnostics_are_stable_under_every_mutant() {
    for bug in BugId::ALL {
        let a = sweep(BugRegistry::only(bug));
        let b = sweep(BugRegistry::only(bug));
        assert_eq!(a, b, "unstable diagnostics under {bug:?}");
    }
    for bug in IndexBugId::ALL {
        let a = sweep(BugRegistry::only(bug));
        let b = sweep(BugRegistry::only(bug));
        assert_eq!(a, b, "unstable diagnostics under {bug:?}");
    }
}
