//! Integration tests for the binding pass: name-resolution errors, outer
//! (correlated) references, expected results across query shapes, and
//! regression proofs that the context-sensitive bug hooks survive binding.

use coddb::bugs::{BugId, BugRegistry};
use coddb::{Database, Dialect, Error, Value};

fn db_with(setup: &str) -> Database {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(setup).unwrap();
    db
}

#[test]
fn unknown_column_is_a_catalog_error_even_on_empty_tables() {
    // Binding is static: resolution failures surface once per query, with
    // or without rows to scan (real engines reject these at prepare time).
    let mut db = db_with("CREATE TABLE t0 (c0 INT)");
    for sql in ["SELECT nope FROM t0", "SELECT * FROM t0 WHERE nope = 1"] {
        match db.query_sql(sql) {
            Err(Error::Catalog(m)) => assert!(m.contains("no such column"), "{sql}: {m}"),
            other => panic!("{sql}: expected catalog error, got {other:?}"),
        }
    }
    // ORDER BY keys bind lazily (only when there are rows to sort).
    db.execute_sql("INSERT INTO t0 VALUES (1)").unwrap();
    assert!(matches!(
        db.query_sql("SELECT c0 FROM t0 ORDER BY t0.nope"),
        Err(Error::Catalog(_))
    ));
}

#[test]
fn ambiguous_bare_column_is_rejected_and_qualification_fixes_it() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (1); INSERT INTO t1 VALUES (2)",
    );
    match db.query_sql("SELECT c0 FROM t0, t1") {
        Err(Error::Catalog(m)) => assert!(m.contains("ambiguous"), "{m}"),
        other => panic!("expected ambiguity error, got {other:?}"),
    }
    let rel = db.query_sql("SELECT t1.c0 FROM t0, t1").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn correlated_outer_references_bind_across_scopes() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (1), (2), (3); INSERT INTO t1 VALUES (2), (3), (4)",
    );
    // The subquery's t1.c0 is local, the outer t0.c0 crosses a scope.
    let rel = db
        .query_sql(
            "SELECT c0 FROM t0 WHERE EXISTS (SELECT 1 FROM t1 WHERE t1.c0 = t0.c0) ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
}

#[test]
fn bound_pipeline_returns_expected_rows_across_query_shapes() {
    let mut db = db_with(
        "CREATE TABLE t0 (c0 INT, c1 TEXT, c2 REAL);
         CREATE TABLE t1 (c0 INT, c1 TEXT);
         CREATE INDEX i0 ON t0 (c0);
         INSERT INTO t0 VALUES (1, 'a', 1.5), (2, 'b', 22.5), (17, 'c', 7.25), (NULL, 'd', NULL);
         INSERT INTO t1 VALUES (2, 'x'), (17, 'y'), (99, 'z')",
    );
    let int = Value::Int;
    let text = |s: &str| Value::Text(s.into());
    let shapes: [(&str, Vec<Vec<Value>>); 8] = [
        (
            "SELECT COUNT(*) FROM t0 WHERE c0 % 3 = 1 AND c2 > 10.0",
            vec![vec![int(0)]],
        ),
        ("SELECT COUNT(*) FROM t0 WHERE c0 > 1", vec![vec![int(2)]]),
        (
            "SELECT t0.c1, t1.c1 FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 ORDER BY 1",
            vec![vec![text("b"), text("x")], vec![text("c"), text("y")]],
        ),
        (
            "SELECT c0 % 7, COUNT(*), AVG(c2) FROM t0 GROUP BY c0 % 7 HAVING COUNT(*) >= 1",
            vec![
                vec![Value::Null, int(1), Value::Null],
                vec![int(1), int(1), Value::Real(1.5)],
                vec![int(2), int(1), Value::Real(22.5)],
                vec![int(3), int(1), Value::Real(7.25)],
            ],
        ),
        (
            "SELECT COUNT(*) FROM t1 WHERE t1.c0 < (SELECT AVG(t0.c0) FROM t0 WHERE t0.c0 = t1.c0) + 10",
            vec![vec![int(2)]],
        ),
        (
            "SELECT c0 FROM t0 WHERE c0 IN (SELECT c0 FROM t1) ORDER BY c0 DESC",
            vec![vec![int(17)], vec![int(2)]],
        ),
        (
            "SELECT c0 FROM t0 WHERE c0 < 30 UNION SELECT c0 FROM t1 ORDER BY 1",
            vec![vec![int(1)], vec![int(2)], vec![int(17)], vec![int(99)]],
        ),
        (
            "SELECT DISTINCT CASE WHEN c0 > 2 THEN 'hi' ELSE c1 END FROM t0 ORDER BY 1 LIMIT 3",
            vec![vec![text("a")], vec![text("b")], vec![text("d")]],
        ),
    ];
    for (sql, want) in shapes {
        assert_eq!(db.query_sql(sql).unwrap().rows, want, "{sql}");
    }
}

#[test]
fn correlated_name_collision_hook_survives_binding() {
    // Regression for the TidbCorrelatedNameCollision mutant through the
    // bound pipeline: the binder records the alternative outer binding, so
    // enabling the mutant still flips the subquery's bare column to the
    // outer row — the divergence the `codd` oracle detects.
    let setup = "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (5); INSERT INTO t1 VALUES (1), (2)";
    let sql = "SELECT (SELECT MAX(c0) FROM t1) FROM t0";

    let mut clean = db_with(setup);
    let clean_rel = clean.query_sql(sql).unwrap();
    assert_eq!(clean_rel.rows, vec![vec![Value::Int(2)]]);

    let mut buggy = Database::with_bugs(
        Dialect::Tidb,
        BugRegistry::only(BugId::TidbCorrelatedNameCollision),
    );
    buggy.execute_sql(setup).unwrap();
    let buggy_rel = buggy.query_sql(sql).unwrap();
    assert_eq!(
        buggy_rel.rows,
        vec![vec![Value::Int(5)]],
        "mutant must bind the bare c0 to the outer t0 row"
    );
}

#[test]
fn between_text_affinity_hook_survives_binding() {
    // SqliteBetweenTextAffinity stays a runtime branch on the row value's
    // type: '5' BETWEEN 1 AND 9 only matches under the mutant.
    let setup = "CREATE TABLE t (c); INSERT INTO t VALUES ('5')";
    let sql = "SELECT * FROM t WHERE c BETWEEN 1 AND 9";

    let mut clean = db_with(setup);
    assert!(clean.query_sql(sql).unwrap().rows.is_empty());

    let mut buggy = Database::with_bugs(
        Dialect::Sqlite,
        BugRegistry::only(BugId::SqliteBetweenTextAffinity),
    );
    buggy.execute_sql(setup).unwrap();
    assert_eq!(buggy.query_sql(sql).unwrap().rows.len(), 1);
}

#[test]
fn dml_binds_once_and_still_fires_statement_hooks() {
    let mut db = db_with("CREATE TABLE t (v INT, w INT); INSERT INTO t VALUES (1, 10), (2, 20)");
    db.execute_sql("UPDATE t SET w = v * 100 WHERE v = 2")
        .unwrap();
    let rel = db.query_sql("SELECT w FROM t ORDER BY v").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(10)], vec![Value::Int(200)]]);
    // Unknown column in a DML WHERE is a bind-time catalog error.
    assert!(matches!(
        db.execute_sql("DELETE FROM t WHERE nope = 1"),
        Err(Error::Catalog(_))
    ));
}
