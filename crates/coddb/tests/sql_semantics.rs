//! A broad battery of SQL semantics checks for CoddDB — three-valued
//! logic truth tables, set-operation edge cases, nested views and CTE
//! chains, DML corner cases, cast matrices and dialect differences.
//! These pin down exactly the behaviours the oracles rely on.

use coddb::value::Value;
use coddb::{Database, Dialect, Error};

fn db() -> Database {
    Database::new(Dialect::Sqlite)
}

fn scalar(db: &mut Database, sql: &str) -> Value {
    let rel = db.query_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rel.scalar()
        .unwrap_or_else(|| panic!("not scalar: {sql}"))
        .clone()
}

// ---------------------------------------------------------------------------
// Three-valued logic.
// ---------------------------------------------------------------------------

#[test]
fn and_or_not_truth_tables() {
    let mut db = db();
    // (lhs, rhs, AND, OR) with 1 = TRUE, 0 = FALSE, NULL = unknown.
    let cases = [
        ("1", "1", Value::Int(1), Value::Int(1)),
        ("1", "0", Value::Int(0), Value::Int(1)),
        ("0", "0", Value::Int(0), Value::Int(0)),
        ("1", "NULL", Value::Null, Value::Int(1)),
        ("0", "NULL", Value::Int(0), Value::Null),
        ("NULL", "NULL", Value::Null, Value::Null),
    ];
    for (a, b, and, or) in cases {
        assert_eq!(
            scalar(&mut db, &format!("SELECT {a} AND {b}")),
            and,
            "{a} AND {b}"
        );
        assert_eq!(
            scalar(&mut db, &format!("SELECT {b} AND {a}")),
            and,
            "{b} AND {a}"
        );
        assert_eq!(
            scalar(&mut db, &format!("SELECT {a} OR {b}")),
            or,
            "{a} OR {b}"
        );
        assert_eq!(
            scalar(&mut db, &format!("SELECT {b} OR {a}")),
            or,
            "{b} OR {a}"
        );
    }
    assert_eq!(scalar(&mut db, "SELECT NOT NULL"), Value::Null);
    assert_eq!(scalar(&mut db, "SELECT NOT 0"), Value::Int(1));
}

#[test]
fn comparison_null_propagation() {
    let mut db = db();
    for op in ["=", "<>", "<", "<=", ">", ">="] {
        assert_eq!(scalar(&mut db, &format!("SELECT 1 {op} NULL")), Value::Null);
        assert_eq!(
            scalar(&mut db, &format!("SELECT NULL {op} NULL")),
            Value::Null
        );
    }
    // IS / IS NOT are null-safe.
    assert_eq!(scalar(&mut db, "SELECT NULL IS NULL"), Value::Int(1));
    assert_eq!(scalar(&mut db, "SELECT 1 IS NULL"), Value::Int(0));
    assert_eq!(scalar(&mut db, "SELECT NULL IS 1"), Value::Int(0));
    assert_eq!(scalar(&mut db, "SELECT 2 IS 2"), Value::Int(1));
    assert_eq!(scalar(&mut db, "SELECT 2 IS NOT 3"), Value::Int(1));
}

#[test]
fn between_is_sugar_for_two_comparisons() {
    let mut db = db();
    assert_eq!(scalar(&mut db, "SELECT 5 BETWEEN 1 AND 9"), Value::Int(1));
    assert_eq!(scalar(&mut db, "SELECT 0 BETWEEN 1 AND 9"), Value::Int(0));
    assert_eq!(
        scalar(&mut db, "SELECT 5 NOT BETWEEN 1 AND 9"),
        Value::Int(0)
    );
    // NULL bound makes the result unknown unless decided by the other arm.
    assert_eq!(scalar(&mut db, "SELECT 5 BETWEEN NULL AND 9"), Value::Null);
    assert_eq!(
        scalar(&mut db, "SELECT 10 BETWEEN NULL AND 9"),
        Value::Int(0)
    );
    assert_eq!(scalar(&mut db, "SELECT NULL BETWEEN 1 AND 9"), Value::Null);
}

#[test]
fn in_list_null_semantics() {
    let mut db = db();
    assert_eq!(scalar(&mut db, "SELECT 2 IN (1, 2, 3)"), Value::Int(1));
    assert_eq!(scalar(&mut db, "SELECT 9 IN (1, 2, 3)"), Value::Int(0));
    assert_eq!(scalar(&mut db, "SELECT 9 IN (1, NULL)"), Value::Null);
    assert_eq!(scalar(&mut db, "SELECT 1 IN (1, NULL)"), Value::Int(1));
    assert_eq!(scalar(&mut db, "SELECT NULL IN (1, 2)"), Value::Null);
    assert_eq!(scalar(&mut db, "SELECT 9 NOT IN (1, NULL)"), Value::Null);
    assert_eq!(scalar(&mut db, "SELECT 1 NOT IN (1, NULL)"), Value::Int(0));
}

// ---------------------------------------------------------------------------
// Relational features.
// ---------------------------------------------------------------------------

#[test]
fn view_on_view_expands_recursively() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3), (4);
         CREATE VIEW big (x) AS SELECT v FROM t WHERE v >= 2;
         CREATE VIEW bigger (y) AS SELECT x FROM big WHERE x >= 3",
    )
    .unwrap();
    assert_eq!(
        scalar(&mut db, "SELECT COUNT(*) FROM bigger"),
        Value::Int(2)
    );
    assert_eq!(scalar(&mut db, "SELECT MIN(y) FROM bigger"), Value::Int(3));
}

#[test]
fn cte_chain_sees_previous_ctes() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    assert_eq!(
        scalar(
            &mut db,
            "WITH a AS (SELECT v + 1 AS x FROM t), \
                  b AS (SELECT x * 10 AS y FROM a) \
             SELECT SUM(y) FROM b"
        ),
        Value::Int(50)
    );
}

#[test]
fn cte_shadows_table_of_same_name() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (100)")
        .unwrap();
    assert_eq!(
        scalar(&mut db, "WITH t (v) AS (VALUES (1)) SELECT v FROM t"),
        Value::Int(1),
        "the CTE wins over the base table"
    );
}

#[test]
fn subquery_sees_outer_ctes() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    assert_eq!(
        scalar(
            &mut db,
            "WITH w (x) AS (VALUES (2)) \
             SELECT COUNT(*) FROM t WHERE t.v IN (SELECT x FROM w)"
        ),
        Value::Int(1)
    );
}

#[test]
fn set_ops_with_empty_sides() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let q = db
        .query_sql("SELECT v FROM t WHERE v > 9 UNION SELECT v FROM t")
        .unwrap();
    assert_eq!(q.row_count(), 1);
    let q = db
        .query_sql("SELECT v FROM t EXCEPT SELECT v FROM t")
        .unwrap();
    assert!(q.is_empty());
    let q = db
        .query_sql("SELECT v FROM t INTERSECT SELECT v FROM t WHERE v > 9")
        .unwrap();
    assert!(q.is_empty());
}

#[test]
fn set_op_arity_mismatch_is_expected_error() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2)")
        .unwrap();
    let err = db
        .query_sql("SELECT a, b FROM t UNION SELECT a FROM t")
        .unwrap_err();
    assert_eq!(err.severity(), coddb::Severity::Expected);
}

#[test]
fn union_dedup_treats_null_rows_as_identical() {
    let mut db = db();
    let q = db.query_sql("SELECT NULL UNION SELECT NULL").unwrap();
    assert_eq!(
        q.row_count(),
        1,
        "set-semantics UNION collapses NULL duplicates"
    );
    let q = db.query_sql("SELECT NULL UNION ALL SELECT NULL").unwrap();
    assert_eq!(q.row_count(), 2);
}

#[test]
fn cross_join_with_on_acts_as_inner() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE a (v INT); CREATE TABLE b (v INT);
         INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (2), (3)",
    )
    .unwrap();
    let q = db
        .query_sql("SELECT * FROM a CROSS JOIN b ON a.v = b.v")
        .unwrap();
    assert_eq!(
        q.row_count(),
        1,
        "Listing-8 style CROSS JOIN ... ON filters pairs"
    );
}

#[test]
fn join_on_null_condition_drops_pair() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE a (v INT); CREATE TABLE b (v INT);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (NULL)",
    )
    .unwrap();
    let inner = db
        .query_sql("SELECT * FROM a INNER JOIN b ON a.v = b.v")
        .unwrap();
    assert!(inner.is_empty(), "unknown ON is not a match");
    let left = db
        .query_sql("SELECT * FROM a LEFT JOIN b ON a.v = b.v")
        .unwrap();
    assert_eq!(left.rows, vec![vec![Value::Int(1), Value::Null]]);
}

#[test]
fn table_wildcard_projects_one_side() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (2, 3)",
    )
    .unwrap();
    let q = db.query_sql("SELECT b.* FROM a CROSS JOIN b").unwrap();
    assert_eq!(q.columns, vec!["y", "z"]);
    assert_eq!(q.rows, vec![vec![Value::Int(2), Value::Int(3)]]);
    assert!(matches!(
        db.query_sql("SELECT missing.* FROM a CROSS JOIN b"),
        Err(Error::Catalog(_))
    ));
}

// ---------------------------------------------------------------------------
// DML corners.
// ---------------------------------------------------------------------------

#[test]
fn insert_with_column_subset_fills_nulls() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (a INT, b TEXT, c REAL)")
        .unwrap();
    db.execute_sql("INSERT INTO t (c, a) VALUES (1.5, 7)")
        .unwrap();
    let q = db.query_sql("SELECT a, b, c FROM t").unwrap();
    assert_eq!(
        q.rows,
        vec![vec![Value::Int(7), Value::Null, Value::Real(1.5)]]
    );
}

#[test]
fn insert_arity_mismatch_is_expected_error() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
    let err = db.execute_sql("INSERT INTO t VALUES (1)").unwrap_err();
    assert_eq!(err.severity(), coddb::Severity::Expected);
    let err = db
        .execute_sql("INSERT INTO t (a) VALUES (1, 2)")
        .unwrap_err();
    assert_eq!(err.severity(), coddb::Severity::Expected);
}

#[test]
fn update_sets_evaluate_against_pre_state() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();
    // Swap-style update: b reads the pre-update a.
    db.execute_sql("UPDATE t SET a = b, b = a").unwrap();
    let q = db.query_sql("SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(
        q.rows,
        vec![
            vec![Value::Int(10), Value::Int(1)],
            vec![Value::Int(20), Value::Int(2)],
        ]
    );
}

/// UPDATE runs its WHERE stage over every row before it evaluates any
/// SET expression, as a SELECT filters before it projects: row 2's
/// division by zero in the WHERE clause is reported, not row 1's integer
/// overflow in the SET. Binding still resolves the WHERE clause first.
#[test]
fn update_reports_errors_in_select_order() {
    let mut db = Database::new(Dialect::Cockroach);
    db.execute_sql("CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 1), (0, 5)")
        .unwrap();
    let select = db
        .execute_sql("SELECT 9223372036854775807 + b FROM t WHERE 10 / a > 0")
        .unwrap_err();
    let update = db
        .execute_sql("UPDATE t SET b = 9223372036854775807 + b WHERE 10 / a > 0")
        .unwrap_err();
    assert_eq!(update, select);
    assert!(update.to_string().contains("division by zero"), "{update}");

    let unbound = db
        .execute_sql("UPDATE t SET b = nope2 WHERE nope1 = 1")
        .unwrap_err();
    assert!(unbound.to_string().contains("nope1"), "{unbound}");
}

#[test]
fn delete_without_where_empties_table() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    let out = db.execute_sql("DELETE FROM t").unwrap();
    assert_eq!(out[0].affected(), Some(3));
    assert_eq!(scalar(&mut db, "SELECT COUNT(*) FROM t"), Value::Int(0));
}

#[test]
fn dml_on_views_is_rejected() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (1);
         CREATE VIEW w (v) AS SELECT v FROM t",
    )
    .unwrap();
    assert!(db.execute_sql("INSERT INTO w VALUES (2)").is_err());
    assert!(db.execute_sql("DELETE FROM w").is_err());
    assert!(db.execute_sql("UPDATE w SET v = 3").is_err());
}

#[test]
fn drop_table_then_query_errors() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT)").unwrap();
    db.execute_sql("DROP TABLE t").unwrap();
    assert!(matches!(
        db.query_sql("SELECT * FROM t"),
        Err(Error::Catalog(_))
    ));
    assert!(db.execute_sql("DROP TABLE IF EXISTS t").is_ok());
}

// ---------------------------------------------------------------------------
// Casts and functions.
// ---------------------------------------------------------------------------

#[test]
fn cast_matrix_lenient() {
    let mut db = db();
    assert_eq!(
        scalar(&mut db, "SELECT CAST('12abc' AS INT)"),
        Value::Int(12)
    );
    assert_eq!(scalar(&mut db, "SELECT CAST(3.9 AS INT)"), Value::Int(3));
    assert_eq!(scalar(&mut db, "SELECT CAST(7 AS REAL)"), Value::Real(7.0));
    assert_eq!(
        scalar(&mut db, "SELECT CAST(42 AS TEXT)"),
        Value::Text("42".into())
    );
    assert_eq!(scalar(&mut db, "SELECT CAST(NULL AS INT)"), Value::Null);
    assert_eq!(
        scalar(&mut db, "SELECT CAST('true' AS BOOLEAN)"),
        Value::Bool(true)
    );
}

#[test]
fn cast_matrix_strict() {
    let mut db = Database::new(Dialect::Cockroach);
    assert_eq!(scalar(&mut db, "SELECT CAST('12' AS INT)"), Value::Int(12));
    assert!(db.query_sql("SELECT CAST('12abc' AS INT)").is_err());
    assert!(db.query_sql("SELECT CAST('x' AS REAL)").is_err());
    assert_eq!(
        scalar(&mut db, "SELECT CAST(0 AS BOOLEAN)"),
        Value::Bool(false)
    );
}

#[test]
fn function_arity_errors_are_expected() {
    let mut db = db();
    for sql in [
        "SELECT LENGTH()",
        "SELECT LENGTH('a', 'b')",
        "SELECT ABS()",
        "SELECT NULLIF(1)",
        "SELECT IIF(1, 2)",
        "SELECT COALESCE()",
        "SELECT VERSION(1)",
    ] {
        let err = db.query_sql(sql).unwrap_err();
        assert_eq!(err.severity(), coddb::Severity::Expected, "{sql}");
    }
}

#[test]
fn null_propagation_through_functions() {
    let mut db = db();
    for sql in [
        "SELECT LENGTH(NULL)",
        "SELECT ABS(NULL)",
        "SELECT UPPER(NULL)",
        "SELECT ROUND(NULL)",
        "SELECT SIGN(NULL)",
        "SELECT INSTR(NULL, 'a')",
        "SELECT SUBSTR(NULL, 1)",
        "SELECT NULL || 'x'",
    ] {
        assert_eq!(scalar(&mut db, sql), Value::Null, "{sql}");
    }
}

#[test]
fn aggregate_misuse_is_an_expected_error() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let err = db
        .query_sql("SELECT v FROM t WHERE COUNT(*) > 0")
        .unwrap_err();
    assert_eq!(err.severity(), coddb::Severity::Expected);
}

// ---------------------------------------------------------------------------
// Dialect differences the generators rely on.
// ---------------------------------------------------------------------------

#[test]
fn concat_requires_text_only_under_strict() {
    let mut lenient = Database::new(Dialect::Mysql);
    assert_eq!(
        scalar(&mut lenient, "SELECT 1 || 2"),
        Value::Text("12".into())
    );
    let mut strict = Database::new(Dialect::Duckdb);
    assert!(matches!(
        strict.query_sql("SELECT 1 || 2"),
        Err(Error::Type(_))
    ));
    assert_eq!(
        strict.query_sql("SELECT 'a' || 'b'").unwrap().scalar(),
        Some(&Value::Text("ab".into()))
    );
}

#[test]
fn boolean_literals_per_dialect() {
    // Comparisons yield INTEGER on flexible dialects, BOOLEAN on strict.
    let mut sqlite = Database::new(Dialect::Sqlite);
    assert_eq!(scalar(&mut sqlite, "SELECT 1 < 2"), Value::Int(1));
    let mut crdb = Database::new(Dialect::Cockroach);
    assert_eq!(scalar(&mut crdb, "SELECT 1 < 2"), Value::Bool(true));
}

#[test]
fn version_strings_differ_per_dialect() {
    let mut seen = std::collections::BTreeSet::new();
    for d in Dialect::ALL {
        let mut db = Database::new(d);
        let v = scalar(&mut db, "SELECT VERSION()");
        match v {
            Value::Text(s) => assert!(seen.insert(s)),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(seen.len(), 5);
}

#[test]
fn mod_and_division_corners() {
    let mut db = db();
    assert_eq!(scalar(&mut db, "SELECT 7 % 3"), Value::Int(1));
    assert_eq!(scalar(&mut db, "SELECT -7 % 3"), Value::Int(-1));
    assert_eq!(scalar(&mut db, "SELECT 7 % 0"), Value::Null, "SQLite: NULL");
    assert_eq!(
        scalar(&mut db, "SELECT -9223372036854775807 - 1"),
        Value::Int(i64::MIN)
    );
    let err = db
        .query_sql("SELECT (-9223372036854775807 - 1) / -1")
        .unwrap_err();
    assert_eq!(
        err.severity(),
        coddb::Severity::Expected,
        "i64::MIN / -1 overflows"
    );
}

#[test]
fn order_by_desc_with_nulls_first_total_order() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (2), (NULL), (1)")
        .unwrap();
    let asc = db.query_sql("SELECT v FROM t ORDER BY v").unwrap();
    assert_eq!(
        asc.rows,
        vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Int(2)]]
    );
    let desc = db.query_sql("SELECT v FROM t ORDER BY v DESC").unwrap();
    assert_eq!(
        desc.rows,
        vec![vec![Value::Int(2)], vec![Value::Int(1)], vec![Value::Null]]
    );
}

#[test]
fn limit_negative_and_zero() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    assert_eq!(
        db.query_sql("SELECT v FROM t LIMIT 0").unwrap().row_count(),
        0
    );
    assert_eq!(
        db.query_sql("SELECT v FROM t LIMIT -1")
            .unwrap()
            .row_count(),
        0
    );
    assert_eq!(
        db.query_sql("SELECT v FROM t LIMIT 99")
            .unwrap()
            .row_count(),
        2
    );
    assert!(db.query_sql("SELECT v FROM t LIMIT 'x'").is_err());
}

#[test]
fn queries_executed_counter_advances() {
    let mut db = db();
    let before = db.queries_executed();
    db.execute_sql("CREATE TABLE t (v INT)").unwrap();
    db.execute_sql("INSERT INTO t VALUES (1)").unwrap();
    db.query_sql("SELECT * FROM t").unwrap();
    assert!(db.queries_executed() >= before + 3);
}

#[test]
fn group_by_group_key_appears_once_per_group() {
    let mut db = db();
    db.execute_sql(
        "CREATE TABLE t (k TEXT, v INT);
         INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 3), (NULL, 4), (NULL, 5)",
    )
    .unwrap();
    let q = db
        .query_sql("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 2")
        .unwrap();
    // NULL forms its own group.
    assert_eq!(q.row_count(), 3);
    assert!(q
        .rows
        .iter()
        .any(|r| r[0] == Value::Null && r[1] == Value::Int(9)));
}

#[test]
fn having_without_group_by_filters_single_group() {
    let mut db = db();
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    let q = db
        .query_sql("SELECT COUNT(*) FROM t HAVING COUNT(*) > 5")
        .unwrap();
    assert!(q.is_empty());
    let q = db
        .query_sql("SELECT COUNT(*) FROM t HAVING COUNT(*) = 2")
        .unwrap();
    assert_eq!(q.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn having_without_group_by_or_aggregate_groups_all_rows() {
    // SQLite ≥ 3.39: a HAVING clause alone makes the query an aggregate
    // over one group, its bare columns taken from the group's first row.
    for dialect in [Dialect::Sqlite, Dialect::Mysql, Dialect::Duckdb] {
        let mut db = Database::new(dialect);
        db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
        let rows = |db: &mut Database, sql: &str| db.query_sql(sql).unwrap().rows;
        assert!(rows(&mut db, "SELECT v FROM t HAVING v > 100").is_empty());
        assert!(rows(&mut db, "SELECT v FROM t HAVING 1 = 0").is_empty());
        assert_eq!(
            rows(&mut db, "SELECT v FROM t HAVING v < 100"),
            vec![vec![Value::Int(1)]],
            "{dialect:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// IN (subquery) over a memoized result.
// ---------------------------------------------------------------------------

#[test]
fn in_subquery_over_a_full_memo_matches_the_comparison_loop() {
    // A non-correlated `IN (subquery)` answers every outer row after the
    // first from its full memo, by binary search where the value classes
    // allow; the correlated form re-runs per outer row and compares the
    // probe with each value. Both must agree on every mix of classes and
    // probe, in every dialect: the same rows or the same error, and the
    // same IN coverage points.
    let results = [
        "(1), (2), (3)",
        "(3), (NULL), (1)",
        "('b'), (NULL), ('a')",
        "(NULL), (NULL)",
        "(1), (2.5), (NULL)",
        "(2.0), (3.5)",
        "(1), ('1'), (NULL)",
        "('a'), (1)",
        "(TRUE), (NULL)",
        "(1), (TRUE)",
    ];
    let probes = [
        "1", "2", "4", "'a'", "'1'", "'c'", "2.0", "2.5", "NULL", "TRUE",
    ];
    for dialect in Dialect::ALL {
        for values in results {
            for probe in probes {
                let full = format!("SELECT id, {probe} IN (VALUES {values}) FROM o ORDER BY id");
                let looped = format!(
                    "SELECT id, {probe} IN (SELECT column1 FROM (VALUES {values}) AS v \
                     WHERE o.id = o.id) FROM o ORDER BY id"
                );
                let run = |sql: &str| {
                    let mut db = Database::new(dialect);
                    db.execute_sql("CREATE TABLE o (id INT); INSERT INTO o VALUES (1), (2), (3)")
                        .unwrap();
                    let out = db
                        .query_sql(sql)
                        .map(|rel| rel.rows)
                        .map_err(|e| e.to_string());
                    let points: Vec<&str> = db
                        .coverage()
                        .hit_points()
                        .into_iter()
                        .filter(|p| p.starts_with("eval::in_subq"))
                        .collect();
                    (out, points)
                };
                assert_eq!(run(&full), run(&looped), "{dialect}: {full}");
            }
        }
    }
}
