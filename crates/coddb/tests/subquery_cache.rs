//! The per-statement subquery plan/bind/result cache: correlated
//! subqueries must re-evaluate per outer row (plan reused, result not),
//! non-correlated results are memoized within a statement but never
//! survive a statement boundary or DML, and the caches must not swallow
//! the context-sensitive mutants (notably the name-collision binding
//! redirect, which turns a seemingly non-correlated subquery correlated).

use coddb::bugs::BugRegistry;
use coddb::{BugId, Database, Dialect, Value};

fn setup() -> Database {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE outer_t (a INT);
         CREATE TABLE inner_t (b INT);
         INSERT INTO outer_t VALUES (1), (2), (3), (4);
         INSERT INTO inner_t VALUES (10), (20), (30)",
    )
    .unwrap();
    db
}

#[test]
fn noncorrelated_subquery_memoizes_within_a_statement() {
    let mut db = setup();
    let rel = db
        .query_sql("SELECT a FROM outer_t WHERE a * 10 <= (SELECT MAX(b) FROM inner_t)")
        .unwrap();
    assert_eq!(rel.rows.len(), 3, "{rel:?}");
    let hits = db.coverage().hit_points();
    assert!(
        hits.contains(&"exec::subq_result_memo_hit"),
        "4 outer rows must share one subquery evaluation: {hits:?}"
    );
    assert!(hits.contains(&"exec::subq_plan_cache_hit"), "{hits:?}");
}

#[test]
fn correlated_subquery_reevaluates_per_outer_row() {
    let mut db = setup();
    // The subquery's value depends on the outer row; memoizing it would
    // collapse every row to the first row's answer.
    let rel = db
        .query_sql(
            "SELECT a, (SELECT COUNT(*) FROM inner_t WHERE b > a * 10) FROM outer_t ORDER BY a",
        )
        .unwrap();
    let counts: Vec<i64> = rel.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    assert_eq!(counts, vec![2, 1, 0, 0], "{rel:?}");
    assert!(
        !db.coverage()
            .hit_points()
            .contains(&"exec::subq_result_memo_hit"),
        "a correlated subquery must never hit the result memo"
    );
    // The *plan* is still reused across outer rows.
    assert!(db
        .coverage()
        .hit_points()
        .contains(&"exec::subq_plan_cache_hit"));
}

#[test]
fn memoized_results_do_not_survive_dml() {
    let mut db = setup();
    let q = "SELECT COUNT(*) FROM outer_t WHERE a * 10 <= (SELECT MAX(b) FROM inner_t)";
    assert_eq!(db.query_sql(q).unwrap().scalar().unwrap().as_i64(), Some(3));
    // DML between statements changes the subquery's source table; the
    // next statement must see fresh data (caches are per-statement).
    db.execute_sql("DELETE FROM inner_t WHERE b > 15").unwrap();
    assert_eq!(db.query_sql(q).unwrap().scalar().unwrap().as_i64(), Some(1));
    db.execute_sql("INSERT INTO inner_t VALUES (40)").unwrap();
    assert_eq!(db.query_sql(q).unwrap().scalar().unwrap().as_i64(), Some(4));
}

#[test]
fn conditionally_correlated_subquery_is_not_memoized() {
    // The outer reference hides behind a short-circuiting AND: the first
    // inner rows never touch it, but full evaluation does — the runtime
    // detector must still see the read and keep per-row evaluation.
    let mut db = setup();
    let rel = db
        .query_sql(
            "SELECT a, (SELECT COUNT(*) FROM inner_t WHERE b >= 10 AND b > a * 10)
             FROM outer_t ORDER BY a",
        )
        .unwrap();
    let counts: Vec<i64> = rel.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    assert_eq!(counts, vec![2, 1, 0, 0], "{rel:?}");
}

#[test]
fn name_collision_mutant_still_fires_through_the_cache() {
    // Under TidbCorrelatedNameCollision a bare column that shadows an
    // outer name is bound to the outer row — turning a non-correlated
    // subquery correlated at runtime. The tracker follows the redirected
    // read, so the mutant's per-row effect must not be memoized away.
    let setup = "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (100), (200);
         INSERT INTO t1 VALUES (7)";
    let sql = "SELECT (SELECT MAX(c0) FROM t1) FROM t0 ORDER BY 1";
    let bug = BugId::TidbCorrelatedNameCollision;

    let mut clean = Database::new(bug.dialect());
    clean.execute_sql(setup).unwrap();
    let c = clean.query_sql(sql).unwrap();
    assert_eq!(
        c.rows.iter().map(|r| r[0].as_i64()).collect::<Vec<_>>(),
        vec![Some(7), Some(7)]
    );

    let mut buggy = Database::with_bugs(bug.dialect(), BugRegistry::only(bug));
    buggy.execute_sql(setup).unwrap();
    let b = buggy.query_sql(sql).unwrap();
    assert_eq!(
        b.rows.iter().map(|r| r[0].as_i64()).collect::<Vec<_>>(),
        vec![Some(100), Some(200)],
        "the mutant must read each outer row, not a memoized first answer"
    );
}

#[test]
fn correlated_subquery_memoizes_per_outer_key() {
    // 8 outer rows but only 3 distinct keys: the subquery must execute
    // once per key (keyed memo), not once per row — and the per-key
    // answers must still be exact.
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE outer_t (grp INT);
         CREATE TABLE inner_t (b INT);
         INSERT INTO outer_t VALUES (1), (2), (3), (1), (2), (1), (3), (2);
         INSERT INTO inner_t VALUES (10), (20), (25), (30)",
    )
    .unwrap();
    let rel = db
        .query_sql("SELECT grp, (SELECT COUNT(*) FROM inner_t WHERE b > grp * 10) FROM outer_t")
        .unwrap();
    let counts: Vec<(i64, i64)> = rel
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(
        counts,
        vec![
            (1, 3),
            (2, 2),
            (3, 0),
            (1, 3),
            (2, 2),
            (1, 3),
            (3, 0),
            (2, 2)
        ],
        "{rel:?}"
    );
    let hits = db.coverage().hit_points();
    assert!(
        hits.contains(&"exec::subq_keyed_memo_hit"),
        "repeated outer keys must reuse the keyed memo: {hits:?}"
    );
    // 3 distinct keys -> 3 executions (misses), 5 keyed hits.
    assert_eq!(db.subquery_memo_stats(), (5, 3));
}

#[test]
fn keyed_memo_does_not_survive_statements_or_dml() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE outer_t (grp INT);
         CREATE TABLE inner_t (b INT);
         INSERT INTO outer_t VALUES (1), (1), (2);
         INSERT INTO inner_t VALUES (10), (20)",
    )
    .unwrap();
    let q = "SELECT grp, (SELECT COUNT(*) FROM inner_t WHERE b > grp * 10) FROM outer_t";
    let first = db.query_sql(q).unwrap();
    assert_eq!(
        first.rows.iter().map(|r| r[1].as_i64()).collect::<Vec<_>>(),
        vec![Some(1), Some(1), Some(0)]
    );
    // DML invalidates by construction: caches die with the statement.
    db.execute_sql("INSERT INTO inner_t VALUES (30), (40)")
        .unwrap();
    let second = db.query_sql(q).unwrap();
    assert_eq!(
        second
            .rows
            .iter()
            .map(|r| r[1].as_i64())
            .collect::<Vec<_>>(),
        vec![Some(3), Some(3), Some(2)],
        "a later statement must see fresh table state, not stale keyed memos"
    );
}

#[test]
fn name_collision_mutant_widens_the_memo_key() {
    // Repeated outer values under TidbCorrelatedNameCollision: the
    // redirected read joins the memo key, so equal outer values may share
    // one execution — and must still produce the redirected per-row
    // answer, while distinct values must not collapse.
    let setup = "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (100), (100), (200);
         INSERT INTO t1 VALUES (7)";
    let sql = "SELECT (SELECT MAX(c0) FROM t1) FROM t0 ORDER BY 1";
    let bug = BugId::TidbCorrelatedNameCollision;

    let mut buggy = Database::with_bugs(bug.dialect(), BugRegistry::only(bug));
    buggy.execute_sql(setup).unwrap();
    let b = buggy.query_sql(sql).unwrap();
    assert_eq!(
        b.rows.iter().map(|r| r[0].as_i64()).collect::<Vec<_>>(),
        vec![Some(100), Some(100), Some(200)],
        "the widened key must keep the mutant's per-row redirection exact"
    );
}

#[test]
fn memo_counters_accumulate_across_statements() {
    let mut db = setup();
    assert_eq!(db.subquery_memo_stats(), (0, 0));
    // Non-correlated: 1 execution, 3 result-memo hits (4 outer rows).
    db.query_sql("SELECT a FROM outer_t WHERE a * 10 <= (SELECT MAX(b) FROM inner_t)")
        .unwrap();
    assert_eq!(db.subquery_memo_stats(), (3, 1));
    // Correlated over 4 distinct keys: 4 more executions, no hits.
    db.query_sql("SELECT a, (SELECT COUNT(*) FROM inner_t WHERE b > a * 10) FROM outer_t")
        .unwrap();
    assert_eq!(db.subquery_memo_stats(), (3, 5));
}

#[test]
fn explain_prints_the_memo_strategy() {
    let mut db = setup();
    let keyed = db
        .explain_sql(
            "SELECT a FROM outer_t WHERE a < (SELECT MAX(b) FROM inner_t WHERE b > outer_t.a)",
        )
        .unwrap();
    assert!(
        keyed.contains("SUBQUERY MEMO(keyed: 1 slots)"),
        "one outer slot expected:\n{keyed}"
    );
    // A *bare* outer reference classifies too: `a` is no column of
    // inner_t, so it must count as an outer slot.
    let bare = db
        .explain_sql("SELECT a FROM outer_t WHERE a < (SELECT MAX(b) FROM inner_t WHERE b > a)")
        .unwrap();
    assert!(
        bare.contains("SUBQUERY MEMO(keyed: 1 slots)"),
        "bare outer reference must be a keyed slot:\n{bare}"
    );
    let full = db
        .explain_sql("SELECT a FROM outer_t WHERE a < (SELECT MAX(b) FROM inner_t)")
        .unwrap();
    assert!(full.contains("SUBQUERY MEMO(full)"), "{full}");
}

#[test]
fn memoized_results_match_expected_rows() {
    // A cache-heavy workload: IN-list, scalar, EXISTS and correlated
    // aggregate subqueries, each checked against its literal answer.
    let int = Value::Int;
    let queries: [(&str, Vec<Vec<Value>>); 4] = [
        (
            "SELECT a FROM outer_t WHERE a IN (SELECT b / 10 FROM inner_t) ORDER BY a",
            vec![vec![int(1)], vec![int(2)], vec![int(3)]],
        ),
        (
            "SELECT a, (SELECT COUNT(*) FROM inner_t) FROM outer_t ORDER BY a",
            (1..=4).map(|a| vec![int(a), int(3)]).collect(),
        ),
        (
            "SELECT a FROM outer_t WHERE EXISTS (SELECT 1 FROM inner_t WHERE b = a * 10) ORDER BY a",
            vec![vec![int(1)], vec![int(2)], vec![int(3)]],
        ),
        (
            "SELECT a FROM outer_t WHERE a < (SELECT AVG(b) FROM inner_t WHERE b >= a) ORDER BY a",
            (1..=4).map(|a| vec![int(a)]).collect(),
        ),
    ];
    for (sql, want) in queries {
        assert_eq!(setup().query_sql(sql).unwrap().rows, want, "{sql}");
    }
}

#[test]
fn memo_sharing_does_not_depend_on_heap_address_reuse() {
    // Equal subqueries bound at depth 0 are separate bound forms, freed
    // when their operator ends. A later bind must never inherit a memo
    // entry because its copy happened to land on a freed address: the
    // statement's fuel and memo counts must repeat on every fresh
    // database, whatever the heap looks like.
    let setup = "CREATE TABLE t0 (c0 INT, c1 INT, c2 REAL);
         INSERT INTO t0 VALUES (63, -35, -943.8), (-24, -74, 251.9)";
    let sql = "SELECT (SELECT AVG(t0.c0) FROM t0) FROM t0 \
               WHERE ((SELECT AVG(t0.c0) FROM t0) \
               * (SELECT AVG(t0.c0) FROM t0 WHERE (t0.c0 <> t0.c1))) <> 0";
    let mut outcomes = std::collections::BTreeSet::new();
    let mut heap_noise = Vec::new();
    for run in 0..200 {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql(setup).unwrap();
        heap_noise.push(vec![run as u8; 8 * (1 + run % 5)]);
        let before = db.fuel_used();
        let rel = db.query_sql(sql).unwrap();
        outcomes.insert((
            db.fuel_used() - before,
            db.subquery_memo_stats(),
            format!("{rel:?}"),
        ));
    }
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
}
