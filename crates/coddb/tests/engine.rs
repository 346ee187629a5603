//! End-to-end engine tests: SQL text in, relations out.
//!
//! Several tests replay the paper's listings against a *clean* engine and
//! assert the semantically correct answers; the bug-mutant behaviours are
//! covered separately in `bug_witnesses.rs`.

use coddb::value::Value;
use coddb::{Database, Dialect, Error, EvalMode, ExecOutcome};

fn db() -> Database {
    Database::new(Dialect::Sqlite)
}

fn rows(db: &mut Database, sql: &str) -> Vec<Vec<Value>> {
    db.query_sql(sql)
        .unwrap_or_else(|e| panic!("query {sql:?} failed: {e}"))
        .rows
        .iter()
        .map(|r| r.to_vec())
        .collect()
}

fn scalar(db: &mut Database, sql: &str) -> Value {
    let rel = db
        .query_sql(sql)
        .unwrap_or_else(|e| panic!("query {sql:?} failed: {e}"));
    rel.scalar()
        .unwrap_or_else(|| panic!("not scalar: {rel:?}"))
        .clone()
}

#[test]
fn create_insert_select_roundtrip() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t0 (c0 INT, c1 TEXT)").unwrap();
    db.execute_sql("INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (NULL, 'c')")
        .unwrap();
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM t0"), Value::Int(3));
    assert_eq!(scalar(&mut db, "SELECT COUNT(c0) FROM t0"), Value::Int(2));
    let r = rows(&mut db, "SELECT c1 FROM t0 WHERE c0 = 2");
    assert_eq!(r, vec![vec![Value::Text("b".into())]]);
}

#[test]
fn where_null_semantics_drop_rows() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (c INT); INSERT INTO t VALUES (1), (NULL), (3)")
        .unwrap();
    // NULL comparisons are unknown, so only c=1 matches.
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(*) FROM t WHERE c < 2"),
        Value::Int(1)
    );
    // IS NULL finds the null row.
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(*) FROM t WHERE c IS NULL"),
        Value::Int(1)
    );
    // NOT (c < 2) keeps only c=3 (NULL still unknown).
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(*) FROM t WHERE NOT c < 2"),
        Value::Int(1)
    );
}

#[test]
fn listing2_correlated_subquery_average() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t0 (ID INT, score INT, classID INT);
         INSERT INTO t0 VALUES (0, 90, 1), (1, 80, 1), (2, 83, 2)",
    )
    .unwrap();
    // Students above their class average: class 1 avg 85 -> student 0.
    let r = rows(
        &mut db,
        "SELECT x.ID FROM t0 AS x WHERE x.score > \
         (SELECT AVG(y.score) FROM t0 AS y WHERE x.classID = y.classID)",
    );
    assert_eq!(r, vec![vec![Value::Int(0)]]);
}

#[test]
fn listing4_left_join_null_padding() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (0); INSERT INTO t1 VALUES (1)",
    )
    .unwrap();
    let r = rows(
        &mut db,
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 IS NULL",
    );
    assert_eq!(r, vec![vec![Value::Int(0), Value::Null]]);
    // The paper's auxiliary query (Listing 4, query A).
    let r = rows(
        &mut db,
        "SELECT t1.c0, t1.c0 IS NULL FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0",
    );
    assert_eq!(r, vec![vec![Value::Null, Value::Int(1)]]);
    // The folded query (Listing 4, query F) produces the same result as O.
    let r = rows(
        &mut db,
        "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE \
         CASE WHEN t1.c0 IS NULL THEN 1 END",
    );
    assert_eq!(r, vec![vec![Value::Int(0), Value::Null]]);
}

#[test]
fn listing1_clean_engine_is_consistent() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t0 (c0);
         INSERT INTO t0 (c0) VALUES (1);
         CREATE INDEX i0 ON t0 (c0 > 0);
         CREATE VIEW v0 (c0) AS SELECT AVG(t0.c0) FROM t0 GROUP BY 1 > t0.c0",
    )
    .unwrap();
    let o = scalar(
        &mut db,
        "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE \
         (SELECT COUNT(*) FROM v0 WHERE v0.c0 BETWEEN 0 AND 0)",
    );
    let a = scalar(
        &mut db,
        "SELECT COUNT(*) FROM v0 WHERE v0.c0 BETWEEN 0 AND 0",
    );
    // v0 holds AVG = 1.0, not in [0,0]; the subquery counts 0 rows, so the
    // predicate is falsy and O must be 0 — on a clean engine O equals the
    // folded query.
    assert_eq!(a, Value::Int(0));
    assert_eq!(o, Value::Int(0));
    let f = scalar(&mut db, "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE 0");
    assert_eq!(o, f);
}

#[test]
fn group_by_having_and_aggregates() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE g (k INT, v INT);
         INSERT INTO g VALUES (1, 10), (1, 20), (2, 5), (2, NULL), (3, 7)",
    )
    .unwrap();
    let r = rows(
        &mut db,
        "SELECT k, COUNT(*), SUM(v) FROM g GROUP BY k ORDER BY k",
    );
    assert_eq!(
        r,
        vec![
            vec![Value::Int(1), Value::Int(2), Value::Int(30)],
            vec![Value::Int(2), Value::Int(2), Value::Int(5)],
            vec![Value::Int(3), Value::Int(1), Value::Int(7)],
        ]
    );
    let r = rows(
        &mut db,
        "SELECT k FROM g GROUP BY k HAVING COUNT(*) > 1 ORDER BY k",
    );
    assert_eq!(r, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    // Aggregate over empty input: one group with SUM NULL / COUNT 0.
    let r = rows(
        &mut db,
        "SELECT COUNT(*), SUM(v), AVG(v) FROM g WHERE k > 99",
    );
    assert_eq!(r, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
    // ... but grouped aggregation over empty input yields no rows.
    let r = rows(&mut db, "SELECT k, COUNT(*) FROM g WHERE k > 99 GROUP BY k");
    assert!(r.is_empty());
}

#[test]
fn avg_returns_real_and_total_returns_zero() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    assert_eq!(scalar(&mut db, "SELECT AVG(v) FROM t"), Value::Real(1.5));
    assert_eq!(
        scalar(&mut db, "SELECT TOTAL(v) FROM t WHERE v > 10"),
        Value::Real(0.0)
    );
    assert_eq!(
        scalar(&mut db, "SELECT SUM(v) FROM t WHERE v > 10"),
        Value::Null
    );
}

#[test]
fn set_operations() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE a (v INT); CREATE TABLE b (v INT);
         INSERT INTO a VALUES (1), (2), (2); INSERT INTO b VALUES (2), (3)",
    )
    .unwrap();
    let union = rows(&mut db, "SELECT v FROM a UNION SELECT v FROM b ORDER BY 1");
    assert_eq!(
        union,
        vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(3)]
        ]
    );
    let union_all = rows(&mut db, "SELECT v FROM a UNION ALL SELECT v FROM b");
    assert_eq!(union_all.len(), 5);
    let inter = rows(&mut db, "SELECT v FROM a INTERSECT SELECT v FROM b");
    assert_eq!(inter, vec![vec![Value::Int(2)]]);
    let except = rows(&mut db, "SELECT v FROM a EXCEPT SELECT v FROM b");
    assert_eq!(except, vec![vec![Value::Int(1)]]);
}

#[test]
fn ctes_and_derived_tables_and_values() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (5)")
        .unwrap();
    assert_eq!(
        scalar(
            &mut db,
            "WITH w AS (SELECT v + 1 AS u FROM t) SELECT u FROM w"
        ),
        Value::Int(6)
    );
    assert_eq!(
        scalar(&mut db, "SELECT d.x FROM (SELECT v * 2 AS x FROM t) AS d"),
        Value::Int(10)
    );
    let r = rows(
        &mut db,
        "SELECT * FROM (VALUES (1, 'a'), (2, 'b')) AS vt (n, s) ORDER BY n",
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r[0], vec![Value::Int(1), Value::Text("a".into())]);
    // A CTE defined over VALUES.
    assert_eq!(
        scalar(&mut db, "WITH w (n) AS (VALUES (7)) SELECT n FROM w"),
        Value::Int(7)
    );
}

#[test]
fn views_expand_like_their_query() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3);
         CREATE VIEW big (x) AS SELECT v FROM t WHERE v >= 2",
    )
    .unwrap();
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM big"), Value::Int(2));
    assert_eq!(scalar(&mut db, "SELECT MAX(x) FROM big"), Value::Int(3));
}

#[test]
fn indexed_by_does_not_change_results() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (3), (1), (2);
         CREATE INDEX iv ON t (v)",
    )
    .unwrap();
    let plain = db.query_sql("SELECT v FROM t WHERE v > 1").unwrap();
    let forced = db
        .query_sql("SELECT v FROM t INDEXED BY iv WHERE v > 1")
        .unwrap();
    assert!(plain.multiset_eq(&forced));
}

/// An index scan emits rows in storage order, like a plain scan, so
/// `ORDER BY` ties resolve identically on both. Here `WHERE t1.c1` is the
/// indexed expression (an INDEX SCAN) and its double negation is not (a
/// SCAN); both keep the rows c1 = -60, -70, -86, and the two NULL-c0 rows
/// tie for the first place under `ORDER BY c0`.
#[test]
fn index_scan_breaks_order_by_ties_like_a_plain_scan() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t1 (c0 INT, c1 INT);
         INSERT INTO t1 VALUES (64, NULL), (NULL, -60), (-40, -70), (NULL, -86);
         CREATE INDEX i1 ON t1 (c1)",
    )
    .unwrap();
    let indexed = "SELECT * FROM t1 WHERE t1.c1 ORDER BY c0 ASC LIMIT 1";
    let scanned = "SELECT * FROM t1 WHERE (NOT (NOT t1.c1)) ORDER BY c0 ASC LIMIT 1";
    assert!(db.explain_sql(indexed).unwrap().contains("INDEX SCAN"));
    assert!(!db.explain_sql(scanned).unwrap().contains("INDEX SCAN"));
    let first = vec![vec![Value::Null, Value::Int(-60)]];
    assert_eq!(rows(&mut db, indexed), first);
    assert_eq!(rows(&mut db, scanned), first);
}

#[test]
fn optimized_and_unoptimized_agree_on_clean_engine() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t (a INT, b TEXT);
         INSERT INTO t VALUES (1, 'x'), (2, NULL), (-3, 'y');
         CREATE INDEX ia ON t (a)",
    )
    .unwrap();
    for sql in [
        "SELECT * FROM t WHERE a > 0",
        "SELECT * FROM t WHERE (1 < 2) AND a <= 2",
        "SELECT * FROM t WHERE b IS NULL OR a = 1",
        "SELECT COUNT(*) FROM t WHERE a BETWEEN -5 AND 5",
    ] {
        let q = coddb::parser::parse_select(sql).unwrap();
        let opt = db.query(&q).unwrap();
        let unopt = db.query_unoptimized(&q).unwrap();
        assert!(opt.multiset_eq(&unopt), "optimizer changed {sql}");
    }
}

#[test]
fn update_and_delete() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (k INT, v INT); INSERT INTO t VALUES (1,1),(2,2),(3,3)")
        .unwrap();
    let out = db
        .execute_sql("UPDATE t SET v = v * 10 WHERE k >= 2")
        .unwrap();
    assert_eq!(out[0], ExecOutcome::Affected(2));
    assert_eq!(scalar(&mut db, "SELECT SUM(v) FROM t"), Value::Int(51));
    let out = db.execute_sql("DELETE FROM t WHERE v = 20").unwrap();
    assert_eq!(out[0], ExecOutcome::Affected(1));
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM t"), Value::Int(2));
}

#[test]
fn insert_select_moves_rows() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE src (v INT); CREATE TABLE dst (v INT);
         INSERT INTO src VALUES (1), (2), (3);
         INSERT INTO dst SELECT v FROM src WHERE v > 1",
    )
    .unwrap();
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM dst"), Value::Int(2));
}

#[test]
fn not_null_constraint_enforced() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT NOT NULL)").unwrap();
    let err = db.execute_sql("INSERT INTO t VALUES (NULL)").unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
}

#[test]
fn strict_dialect_rejects_type_mismatches() {
    let mut db = Database::new(Dialect::Duckdb);
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    // Non-boolean predicate.
    assert!(matches!(
        db.query_sql("SELECT * FROM t WHERE 1"),
        Err(Error::Type(_))
    ));
    // Boolean predicate is fine.
    assert_eq!(
        db.query_sql("SELECT * FROM t WHERE v > 0")
            .unwrap()
            .row_count(),
        1
    );
    // TEXT vs INT comparison is rejected.
    assert!(matches!(
        db.query_sql("SELECT * FROM t WHERE v > 'a'"),
        Err(Error::Type(_))
    ));
    // Untyped columns are rejected.
    assert!(matches!(
        db.execute_sql("CREATE TABLE u (c0)"),
        Err(Error::Type(_))
    ));
}

#[test]
fn sqlite_flexible_typing_compares_by_class() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v); INSERT INTO t VALUES (1), ('abc')")
        .unwrap();
    // In SQLite any TEXT sorts above any number.
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(*) FROM t WHERE v > 999999"),
        Value::Int(1)
    );
}

#[test]
fn mysql_coerces_text_numerically() {
    let mut db = Database::new(Dialect::Mysql);
    db.execute_sql("CREATE TABLE t (v TEXT); INSERT INTO t VALUES ('10'), ('2')")
        .unwrap();
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(*) FROM t WHERE v > 5"),
        Value::Int(1)
    );
}

#[test]
fn division_semantics_by_dialect() {
    let mut sqlite = Database::new(Dialect::Sqlite);
    assert_eq!(
        sqlite.query_sql("SELECT 7 / 2").unwrap().scalar(),
        Some(&Value::Int(3))
    );
    assert_eq!(
        sqlite.query_sql("SELECT 1 / 0").unwrap().scalar(),
        Some(&Value::Null)
    );

    let mut duck = Database::new(Dialect::Duckdb);
    assert_eq!(
        duck.query_sql("SELECT 7 / 2").unwrap().scalar(),
        Some(&Value::Real(3.5))
    );
    assert!(matches!(
        duck.query_sql("SELECT 1 / 0"),
        Err(Error::Eval(_))
    ));
}

#[test]
fn quantified_comparisons() {
    let mut db = Database::new(Dialect::Mysql);
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    assert_eq!(
        scalar(&mut db, "SELECT 2 = ANY (SELECT v FROM t)"),
        Value::Int(1)
    );
    assert_eq!(
        scalar(&mut db, "SELECT 9 = ANY (SELECT v FROM t)"),
        Value::Int(0)
    );
    assert_eq!(
        scalar(&mut db, "SELECT 0 < ALL (SELECT v FROM t)"),
        Value::Int(1)
    );
    // SQLite profile rejects ANY/ALL (paper §3.3).
    let mut sq = Database::new(Dialect::Sqlite);
    sq.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    assert!(matches!(
        sq.query_sql("SELECT 1 = ANY (SELECT v FROM t)"),
        Err(Error::Unsupported(_))
    ));
}

#[test]
fn exists_and_in_subquery() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    assert_eq!(
        scalar(&mut db, "SELECT EXISTS (SELECT v FROM t WHERE v = 2)"),
        Value::Int(1)
    );
    assert_eq!(
        scalar(&mut db, "SELECT NOT EXISTS (SELECT v FROM t WHERE v = 9)"),
        Value::Int(1)
    );
    assert_eq!(
        scalar(&mut db, "SELECT 2 IN (SELECT v FROM t)"),
        Value::Int(1)
    );
    assert_eq!(
        scalar(&mut db, "SELECT 9 NOT IN (SELECT v FROM t)"),
        Value::Int(1)
    );
    // NULL semantics of IN.
    assert_eq!(
        scalar(&mut db, "SELECT NULL IN (SELECT v FROM t)"),
        Value::Null
    );
}

#[test]
fn scalar_subquery_cardinality_errors() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (1); INSERT INTO t1 VALUES (2), (3)",
    )
    .unwrap();
    // Listing 5: more than one row.
    let err = db
        .query_sql("SELECT t0.c0, (SELECT t1.c0 FROM t1 WHERE t1.c0 > t0.c0) FROM t0")
        .unwrap_err();
    assert!(matches!(err, Error::SubqueryCardinality(_)), "{err}");
    // Listing 5: more than one column.
    let err = db
        .query_sql("SELECT t0.c0, (SELECT t1.c0, t1.c0 FROM t1 WHERE t1.c0 = 2) FROM t0")
        .unwrap_err();
    assert!(matches!(err, Error::SubqueryCardinality(_)), "{err}");
    // Empty scalar subquery is NULL, not an error.
    assert_eq!(
        scalar(
            &mut db,
            "SELECT (SELECT t1.c0 FROM t1 WHERE t1.c0 > 99) IS NULL"
        ),
        Value::Int(1)
    );
}

#[test]
fn order_by_limit_offset() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (3), (1), (2)")
        .unwrap();
    let r = rows(&mut db, "SELECT v FROM t ORDER BY v DESC LIMIT 2");
    assert_eq!(r, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    let r = rows(&mut db, "SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 1");
    assert_eq!(r, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    // Positional and expression ORDER BY.
    let r = rows(&mut db, "SELECT v, -v FROM t ORDER BY 2");
    assert_eq!(r[0][0], Value::Int(3));
    let r = rows(&mut db, "SELECT v FROM t ORDER BY v % 2, v");
    assert_eq!(
        r,
        vec![
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Int(3)]
        ]
    );
}

#[test]
fn full_and_right_joins_pad_both_sides() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE l (v INT); CREATE TABLE r (v INT);
         INSERT INTO l VALUES (1), (2); INSERT INTO r VALUES (2), (3)",
    )
    .unwrap();
    let full = rows(&mut db, "SELECT * FROM l FULL OUTER JOIN r ON l.v = r.v");
    assert_eq!(full.len(), 3);
    let right = rows(&mut db, "SELECT * FROM l RIGHT JOIN r ON l.v = r.v");
    assert_eq!(right.len(), 2);
    assert!(right
        .iter()
        .any(|row| row[0] == Value::Null && row[1] == Value::Int(3)));
}

#[test]
fn ambiguous_and_unknown_columns_error() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE a (v INT); CREATE TABLE b (v INT);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (1)",
    )
    .unwrap();
    assert!(matches!(
        db.query_sql("SELECT v FROM a CROSS JOIN b"),
        Err(Error::Catalog(_))
    ));
    assert!(matches!(
        db.query_sql("SELECT nope FROM a"),
        Err(Error::Catalog(_))
    ));
}

#[test]
fn distinct_dedups() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (1), (2), (NULL), (NULL)")
        .unwrap();
    assert_eq!(rows(&mut db, "SELECT DISTINCT v FROM t").len(), 3);
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(DISTINCT v) FROM t"),
        Value::Int(2)
    );
}

#[test]
fn case_expressions() {
    let mut db = db();
    db.execute_sql("CREATE TABLE grade (score INT); INSERT INTO grade VALUES (100), (80), (60)")
        .unwrap();
    // Listing 3 of the paper.
    let r = rows(
        &mut db,
        "SELECT score, CASE WHEN score = 100 THEN 'A' \
         WHEN score >= 80 AND score < 100 THEN 'B' ELSE 'C' END FROM grade ORDER BY score DESC",
    );
    assert_eq!(
        r,
        vec![
            vec![Value::Int(100), Value::Text("A".into())],
            vec![Value::Int(80), Value::Text("B".into())],
            vec![Value::Int(60), Value::Text("C".into())],
        ]
    );
    // Operand form + missing ELSE yields NULL.
    assert_eq!(
        scalar(&mut db, "SELECT CASE 5 WHEN 4 THEN 1 END IS NULL"),
        Value::Int(1)
    );
}

#[test]
fn functions_behave() {
    let mut db = db();
    assert_eq!(
        db.query_sql("SELECT LENGTH('abc')").unwrap().scalar(),
        Some(&Value::Int(3))
    );
    assert_eq!(
        db.query_sql("SELECT ABS(-4)").unwrap().scalar(),
        Some(&Value::Int(4))
    );
    assert_eq!(
        db.query_sql("SELECT UPPER('ab') || LOWER('CD')")
            .unwrap()
            .scalar(),
        Some(&Value::Text("ABcd".into()))
    );
    assert_eq!(
        db.query_sql("SELECT COALESCE(NULL, NULL, 7)")
            .unwrap()
            .scalar(),
        Some(&Value::Int(7))
    );
    assert_eq!(
        db.query_sql("SELECT NULLIF(3, 3)").unwrap().scalar(),
        Some(&Value::Null)
    );
    assert_eq!(
        db.query_sql("SELECT IIF(1 < 2, 'y', 'n')")
            .unwrap()
            .scalar(),
        Some(&Value::Text("y".into()))
    );
    assert_eq!(
        db.query_sql("SELECT TYPEOF(1.5)").unwrap().scalar(),
        Some(&Value::Text("real".into()))
    );
    assert_eq!(
        db.query_sql("SELECT ROUND(2.567, 1)").unwrap().scalar(),
        Some(&Value::Real(2.6))
    );
    assert_eq!(
        db.query_sql("SELECT SIGN(-9)").unwrap().scalar(),
        Some(&Value::Int(-1))
    );
    assert_eq!(
        db.query_sql("SELECT INSTR('hello', 'll')")
            .unwrap()
            .scalar(),
        Some(&Value::Int(3))
    );
    assert_eq!(
        db.query_sql("SELECT SUBSTR('hello', 2, 3)")
            .unwrap()
            .scalar(),
        Some(&Value::Text("ell".into()))
    );
    assert_eq!(
        db.query_sql("SELECT SUBSTR('hello', -3)").unwrap().scalar(),
        Some(&Value::Text("llo".into()))
    );
    // VERSION is dialect-specific.
    let v = db.query_sql("SELECT VERSION()").unwrap();
    assert!(matches!(v.scalar(), Some(Value::Text(s)) if s.contains("codddb")));
}

#[test]
fn like_is_dialect_sensitive() {
    let mut sqlite = Database::new(Dialect::Sqlite);
    assert_eq!(
        sqlite
            .query_sql("SELECT 'ABC' LIKE 'abc'")
            .unwrap()
            .scalar(),
        Some(&Value::Int(1))
    );
    let mut duck = Database::new(Dialect::Duckdb);
    assert_eq!(
        duck.query_sql("SELECT 'ABC' LIKE 'abc'").unwrap().scalar(),
        Some(&Value::Bool(false))
    );
}

#[test]
fn integer_overflow_is_a_clean_error() {
    let mut db = db();
    let err = db.query_sql("SELECT 9223372036854775807 + 1").unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
    assert_eq!(err.severity(), coddb::Severity::Expected);
}

#[test]
fn group_by_positional_and_expression() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3), (4)")
        .unwrap();
    // Listing-1 style: GROUP BY over a boolean expression.
    let r = rows(&mut db, "SELECT COUNT(*) FROM t GROUP BY v > 2 ORDER BY 1");
    assert_eq!(r, vec![vec![Value::Int(2)], vec![Value::Int(2)]]);
    // Positional.
    let r = rows(
        &mut db,
        "SELECT v % 2, COUNT(*) FROM t GROUP BY 1 ORDER BY 1",
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn plan_fingerprints_differ_across_shapes() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    db.query_sql("SELECT * FROM t WHERE v = 1").unwrap();
    let fp1 = db.last_plan_fingerprint().unwrap();
    db.query_sql("SELECT * FROM t WHERE v = 2").unwrap();
    let fp2 = db.last_plan_fingerprint().unwrap();
    assert_eq!(fp1, fp2, "same shape, different constants");
    db.query_sql("SELECT * FROM t WHERE v IN (SELECT v FROM t)")
        .unwrap();
    let fp3 = db.last_plan_fingerprint().unwrap();
    assert_ne!(fp1, fp3, "subquery changes the plan shape");
}

#[test]
fn snapshot_restore_roundtrip() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let snap = db.snapshot();
    db.execute_sql("DELETE FROM t").unwrap();
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM t"), Value::Int(0));
    db.restore(snap);
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM t"), Value::Int(1));
}

#[test]
fn fuel_exhaustion_reports_hang() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT)").unwrap();
    for chunk in 0..10 {
        let vals: Vec<String> = (0..100).map(|i| format!("({})", chunk * 100 + i)).collect();
        db.execute_sql(&format!("INSERT INTO t VALUES {}", vals.join(",")))
            .unwrap();
    }
    db.set_fuel_limit(1_000);
    let err = db
        .query_sql("SELECT COUNT(*) FROM t AS a CROSS JOIN t AS b")
        .unwrap_err();
    assert!(matches!(err, Error::Hang));
}

/// A bare comparison is charged like any other WHERE clause, in both
/// eval modes: it hangs after the same fuel as the same comparison over
/// an arithmetic operand, and an erroring operand fails after the same
/// fuel too (the first row's unit is charged before its error).
#[test]
fn bare_comparison_charges_fuel_like_any_where_clause() {
    for mode in [EvalMode::Vectorized, EvalMode::RowAtATime] {
        let mut db = db();
        db.set_eval_mode(mode);
        db.execute_sql("CREATE TABLE t (a INT)").unwrap();
        db.execute_sql("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10)")
            .unwrap();
        // How a query fails, and the fuel it used.
        let fail = |db: &mut Database, sql: &str| {
            let before = db.fuel_used();
            let err = db.query_sql(sql).unwrap_err();
            (err.to_string(), db.fuel_used() - before)
        };
        db.set_fuel_limit(15);
        let bare = fail(&mut db, "SELECT COUNT(*) FROM t WHERE a > 3");
        let arith = fail(&mut db, "SELECT COUNT(*) FROM t WHERE a + 0 > 3");
        assert_eq!(bare.0, Error::Hang.to_string(), "{mode:?}");
        assert_eq!(
            bare, arith,
            "{mode:?}: a bare comparison hangs like any clause"
        );
        assert_eq!(bare.1, 15, "{mode:?}: the hang drains the budget");

        db.set_fuel_limit(1_000);
        let bare = fail(
            &mut db,
            "SELECT COUNT(*) FROM t WHERE a > 9223372036854775807 + 1",
        );
        let arith = fail(
            &mut db,
            "SELECT COUNT(*) FROM t WHERE a + 0 > 9223372036854775807 + 1",
        );
        assert_eq!(
            bare, arith,
            "{mode:?}: a bare comparison fails like any clause"
        );
        assert_eq!(bare.1, 11, "{mode:?}: the scan, then the first row");
    }
}

#[test]
fn coverage_accumulates_over_queries() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let before = db.coverage().hit_count();
    db.query_sql("SELECT v FROM t WHERE v > 0 GROUP BY v HAVING COUNT(*) >= 1")
        .unwrap();
    assert!(db.coverage().hit_count() > before);
    assert!(db.coverage().percent() > 0.0);
}
