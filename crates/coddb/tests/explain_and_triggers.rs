//! EXPLAIN output tests plus *negative* trigger tests: every
//! context-sensitive logic mutant must stay silent outside its trigger
//! context — the property the whole Table 2 detectability matrix rests on.

use coddb::bugs::BugRegistry;
use coddb::{BugId, Database, Dialect};

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

#[test]
fn explain_shows_access_paths() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (1);
         CREATE INDEX iv ON t (v)",
    )
    .unwrap();
    let plain = db.explain_sql("SELECT * FROM t").unwrap();
    assert!(plain.contains("SCAN t AS t"), "{plain}");
    // A bare-column index turns a sargable probe into a range seek.
    let probe = db.explain_sql("SELECT * FROM t WHERE v > 0").unwrap();
    assert!(
        probe.contains("INDEX SEEK t AS t USING iv (1 key(s), range)"),
        "{probe}"
    );
    // A matching ORDER BY runs the seek in key order and skips the sort.
    let sorted = db
        .explain_sql("SELECT * FROM t WHERE v > 0 ORDER BY v")
        .unwrap();
    assert!(
        sorted.contains("INDEX SEEK t AS t USING iv (1 key(s), range, ordered)"),
        "{sorted}"
    );
    let desc = db.explain_sql("SELECT * FROM t ORDER BY v DESC").unwrap();
    assert!(
        desc.contains("INDEX SEEK t AS t USING iv (0 key(s), full, ordered, reverse)"),
        "{desc}"
    );
    // Expression indexes keep the plain index scan.
    db.execute_sql("CREATE INDEX ie ON t (v > 0)").unwrap();
    let legacy = db.explain_sql("SELECT * FROM t WHERE v IS NULL").unwrap();
    assert!(legacy.contains("SCAN t AS t"), "{legacy}");
}

#[test]
fn explain_shows_joins_subplans_and_ctes() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (1);
         CREATE VIEW w (z) AS SELECT x FROM a",
    )
    .unwrap();
    let joined = db
        .explain_sql("SELECT COUNT(*) FROM a LEFT JOIN b ON a.x = b.y GROUP BY a.x")
        .unwrap();
    assert!(joined.contains("HASH (1 key(s)) LEFT JOIN"), "{joined}");
    assert!(
        joined.contains("AGGREGATE (group by 1 expr(s))"),
        "{joined}"
    );
    // Non-equi ON predicates keep the nested loop.
    let nested = db
        .explain_sql("SELECT COUNT(*) FROM a INNER JOIN b ON a.x < b.y")
        .unwrap();
    assert!(nested.contains("NESTED LOOP INNER JOIN"), "{nested}");
    let view = db.explain_sql("SELECT * FROM w").unwrap();
    assert!(view.contains("VIEW w"), "{view}");
    let cte = db
        .explain_sql("WITH c (k) AS (VALUES (1)) SELECT k FROM c ORDER BY k LIMIT 1")
        .unwrap();
    assert!(cte.contains("MATERIALIZE CTE c"), "{cte}");
    assert!(cte.contains("CTE SCAN c AS c"), "{cte}");
    assert!(cte.contains("SORT (1 key(s))"), "{cte}");
    assert!(cte.contains("LIMIT/OFFSET"), "{cte}");
}

#[test]
fn explain_shows_pushed_filters() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (1)",
    )
    .unwrap();
    let plan = db
        .explain_sql("SELECT * FROM a INNER JOIN b ON a.x = b.y WHERE a.x > 0 AND b.y > 0")
        .unwrap();
    assert!(plan.contains("PUSHED FILTER"), "{plan}");
}

#[test]
fn explain_annotates_clause_vectorization() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (v INT, s TEXT); INSERT INTO t VALUES (1, 'x')")
        .unwrap();
    // A vectorizable filter and projection.
    let plan = db
        .explain_sql("SELECT v + 1 FROM t WHERE v % 2 = 1 AND s LIKE 'x%'")
        .unwrap();
    assert!(
        plan.contains("FILTER (((v % 2) = 1) AND (s LIKE 'x%')) [VEC]"),
        "{plan}"
    );
    assert!(plan.contains("PROJECT (1 item(s)) [VEC]"), "{plan}");
    // Subqueries fall back row-at-a-time.
    let sub = db
        .explain_sql("SELECT v FROM t WHERE v IN (SELECT v FROM t)")
        .unwrap();
    assert!(sub.contains("[ROW(subquery)]"), "{sub}");
    // Aggregate group keys annotate on the AGGREGATE line.
    let agg = db
        .explain_sql("SELECT v % 3, COUNT(*) FROM t GROUP BY v % 3")
        .unwrap();
    assert!(
        agg.contains("AGGREGATE (group by 1 expr(s)) [VEC]"),
        "{agg}"
    );
    // An active mutant hooking a shape forces its fallback.
    let mut hooked = Database::with_bugs(
        Dialect::Tidb,
        BugRegistry::only(BugId::TidbInValueListWhere),
    );
    hooked.execute_sql("CREATE TABLE t (v INT)").unwrap();
    let plan = hooked
        .explain_sql("SELECT v FROM t WHERE v IN (1, 2)")
        .unwrap();
    assert!(plan.contains("[ROW(mutant-hooked IN list)]"), "{plan}");
    // Disabled eval mode annotates every clause.
    db.set_eval_mode(coddb::EvalMode::RowAtATime);
    let plan = db.explain_sql("SELECT v FROM t WHERE v > 0").unwrap();
    assert!(plan.contains("[ROW(row-at-a-time eval mode)]"), "{plan}");
}

#[test]
fn explain_shows_the_top_level_and_filter_mutant_runs_row_at_a_time() {
    // The mutant keeps a row whose top-level AND is NULL — a filter-site
    // hook the chunk filter does not model.
    let mut db = Database::with_bugs(
        Dialect::Cockroach,
        BugRegistry::only(BugId::CockroachAndNullTopConjunct),
    );
    db.execute_sql("CREATE TABLE t0 (c0 INT, c1 INT)").unwrap();
    let plan = db
        .explain_sql("SELECT c0 FROM t0 WHERE c0 > 0 AND c1 > 1")
        .unwrap();
    assert!(
        plan.contains("FILTER ((c0 > 0) AND (c1 > 1)) [ROW(mutant-hooked AND filter)]"),
        "{plan}"
    );
}

#[test]
fn explain_shows_the_indexed_comparison_mutant_runs_row_at_a_time() {
    // The mutant keeps a NULL comparison over index-scanned rows: the
    // FILTER's input is the INDEX SCAN, so the filter runs row-at-a-time.
    let mut db = Database::with_bugs(
        Dialect::Sqlite,
        BugRegistry::only(BugId::SqliteIndexedCmpNullTrue),
    );
    db.execute_sql(
        "CREATE TABLE t0 (c0 INT, c1 INT); INSERT INTO t0 VALUES (1, 10), (NULL, 20);
         CREATE INDEX i0 ON t0 (c0 > 0)",
    )
    .unwrap();
    let sql = "SELECT c1 FROM t0 WHERE c0 > 0";
    let plan = db.explain_sql(sql).unwrap();
    assert!(plan.contains("INDEX SCAN t0 AS t0 USING i0"), "{plan}");
    assert!(
        plan.contains("FILTER (c0 > 0) [ROW(mutant-hooked indexed comparison)]"),
        "{plan}"
    );
    // The row path ran: the mutant kept the NULL-key row.
    assert_eq!(db.query_sql(sql).unwrap().rows.len(), 2);
}

#[test]
fn explain_notes_a_filter_over_an_index_seek_as_over_a_scan() {
    // A seek's rows go through the scan's filter kernels, so the WHERE
    // clause's note is the same whether the executor seeks (Indexed) or
    // scans (ScanOnly).
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE t (v INT, w INT); CREATE INDEX i ON t (v);
         INSERT INTO t VALUES (1, 10), (3, 30), (5, 50)",
    )
    .unwrap();
    let sql = "SELECT w FROM t WHERE v = 3";
    let plan = db.explain_sql(sql).unwrap();
    assert!(
        plan.contains("INDEX SEEK t AS t USING i (1 key(s), point)"),
        "{plan}"
    );
    assert!(plan.contains("FILTER (v = 3) [VEC]"), "{plan}");
    db.set_access_mode(coddb::AccessMode::ScanOnly);
    let plan = db.explain_sql(sql).unwrap();
    assert!(plan.contains("FILTER (v = 3) [VEC]"), "{plan}");

    // The filter-site gate applies to a seek's rows too: under the AND
    // mutant the seeked WHERE clause runs row-at-a-time in both modes.
    let mut db = Database::with_bugs(
        Dialect::Cockroach,
        BugRegistry::only(BugId::CockroachAndNullTopConjunct),
    );
    db.execute_sql(
        "CREATE TABLE t (v INT, w INT); CREATE INDEX i ON t (v);
         INSERT INTO t VALUES (1, 10), (3, 30), (5, 50)",
    )
    .unwrap();
    let sql = "SELECT w FROM t WHERE v = 3 AND w > 0";
    for mode in [coddb::AccessMode::Indexed, coddb::AccessMode::ScanOnly] {
        db.set_access_mode(mode);
        let plan = db.explain_sql(sql).unwrap();
        assert!(
            plan.contains("INDEX SEEK t AS t USING i (1 key(s), point)"),
            "{plan}"
        );
        assert!(
            plan.contains("FILTER ((v = 3) AND (w > 0)) [ROW(mutant-hooked AND filter)]"),
            "{mode:?}: {plan}"
        );
    }
}

#[test]
fn explain_shows_a_having_only_aggregate_groups() {
    // An aggregate in HAVING alone makes the core grouped, as it does in
    // the executor: the projection runs per group, not over chunks.
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let plan = db
        .explain_sql("SELECT v + 1 FROM t HAVING COUNT(*) > 0")
        .unwrap();
    assert!(
        plan.contains("PROJECT (1 item(s))\n"),
        "grouped projections carry no note:\n{plan}"
    );
    assert!(
        plan.contains("AGGREGATE (group by 0 expr(s), having)"),
        "{plan}"
    );
}

#[test]
fn explain_classifies_positional_group_keys_as_the_executor_does() {
    // `GROUP BY 1` groups by the first select item, here a subquery,
    // which the executor evaluates row-at-a-time.
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (v INT, w INT); INSERT INTO t VALUES (1, 2)")
        .unwrap();
    let plan = db
        .explain_sql("SELECT (SELECT MAX(w) FROM t), COUNT(*) FROM t GROUP BY 1")
        .unwrap();
    assert!(
        plan.contains("AGGREGATE (group by 1 expr(s)) [ROW(subquery)]"),
        "{plan}"
    );
}

#[test]
fn explain_of_an_out_of_range_group_position_fails_like_the_executor() {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let sql = "SELECT v FROM t GROUP BY 2";
    let explained = db.explain_sql(sql).unwrap_err();
    assert_eq!(explained, db.query_sql(sql).unwrap_err());
    assert!(
        explained.to_string().contains("out of range"),
        "{explained}"
    );
}

// ---------------------------------------------------------------------------
// Negative trigger tests: mutants are silent outside their context.
// ---------------------------------------------------------------------------

/// Run one query on a clean and a single-mutant engine over the same
/// state; results must be identical (the mutant must not fire).
fn assert_silent(bug: BugId, setup: &str, sql: &str) {
    let mut clean = Database::new(bug.dialect());
    let mut buggy = Database::with_bugs(bug.dialect(), BugRegistry::only(bug));
    clean.execute_sql(setup).unwrap();
    buggy.execute_sql(setup).unwrap();
    let c = clean
        .query_sql(sql)
        .unwrap_or_else(|e| panic!("clean {sql}: {e}"));
    let b = buggy
        .query_sql(sql)
        .unwrap_or_else(|e| panic!("buggy {sql}: {e}"));
    assert!(
        c.multiset_eq(&b),
        "{bug:?} fired outside its trigger context on {sql}\nclean: {c:?}\nbuggy: {b:?}"
    );
}

#[test]
fn like_case_fold_is_silent_in_projection_and_nested() {
    let setup = "CREATE TABLE t (s TEXT); INSERT INTO t VALUES ('ABC')";
    // Projection placement: not the WHERE top level.
    assert_silent(
        BugId::SqliteLikeCaseFold,
        setup,
        "SELECT s LIKE 'abc' FROM t",
    );
    // Nested under NOT: not top level.
    assert_silent(
        BugId::SqliteLikeCaseFold,
        setup,
        "SELECT * FROM t WHERE NOT (s LIKE 'abc')",
    );
}

#[test]
fn in_value_list_bug_is_silent_when_nested() {
    let setup = "CREATE TABLE t0 (c0 INT); INSERT INTO t0 VALUES (1)";
    assert_silent(
        BugId::TidbInValueListWhere,
        setup,
        "SELECT * FROM t0 WHERE NOT (c0 NOT IN (1))",
    );
    assert_silent(
        BugId::TidbInValueListWhere,
        setup,
        "SELECT c0 IN (1) FROM t0",
    );
}

#[test]
fn indexed_cmp_bug_needs_the_index_path() {
    // Without an index the comparison is evaluated correctly.
    assert_silent(
        BugId::SqliteIndexedCmpNullTrue,
        "CREATE TABLE t (c INT); INSERT INTO t VALUES (1), (NULL)",
        "SELECT * FROM t WHERE c > 0",
    );
}

#[test]
fn agg_subquery_bug_needs_index_and_aggregate() {
    let setup = "CREATE TABLE t0 (c0); INSERT INTO t0 VALUES (1);
         CREATE INDEX i0 ON t0 (c0 > 0)";
    // Non-aggregate subquery under the index: silent.
    assert_silent(
        BugId::SqliteAggSubqueryIndexedWhere,
        setup,
        "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE (SELECT c0 FROM t0 LIMIT 1)",
    );
    // Aggregate subquery without the index: silent.
    assert_silent(
        BugId::SqliteAggSubqueryIndexedWhere,
        setup,
        "SELECT COUNT(*) FROM t0 WHERE (SELECT COUNT(*) FROM t0 WHERE FALSE)",
    );
}

#[test]
fn case_cte_bug_needs_a_cte_source() {
    assert_silent(
        BugId::CockroachCaseNullFromCte,
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (1)",
        "SELECT CASE WHEN NULL THEN 1 ELSE 0 END FROM t",
    );
}

#[test]
fn any_bug_is_silent_over_values_lists() {
    assert_silent(
        BugId::CockroachAnyNonValuesSubquery,
        "CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2), (3)",
        "SELECT 2 = ANY (VALUES (1), (2), (3))",
    );
}

#[test]
fn avg_bug_is_silent_at_top_level() {
    assert_silent(
        BugId::CockroachAvgNestedReverse,
        "CREATE TABLE t (v REAL); INSERT INTO t VALUES (100000000.0), (7.0)",
        "SELECT AVG(v) FROM t",
    );
}

#[test]
fn insert_version_bug_is_silent_for_plain_selects_and_values() {
    let bug = BugId::TidbInsertSelectVersion;
    let setup = "CREATE TABLE t0 (c0 INT); INSERT INTO t0 VALUES (1);
         CREATE TABLE ot0 (c0 INT)";
    let mut buggy = Database::with_bugs(bug.dialect(), BugRegistry::only(bug));
    buggy.execute_sql(setup).unwrap();
    // INSERT ... SELECT without VERSION(): inserts normally.
    buggy
        .execute_sql("INSERT INTO ot0 SELECT c0 FROM t0")
        .unwrap();
    assert_eq!(
        buggy
            .query_sql("SELECT COUNT(*) FROM ot0")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64(),
        Some(1)
    );
    // Plain VALUES insert with VERSION() in an expression elsewhere: fine.
    buggy.execute_sql("INSERT INTO ot0 VALUES (2)").unwrap();
    assert_eq!(
        buggy
            .query_sql("SELECT COUNT(*) FROM ot0")
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64(),
        Some(2)
    );
}

#[test]
fn pushdown_bug_is_silent_without_a_left_join() {
    assert_silent(
        BugId::DuckdbPushdownLeftJoin,
        "CREATE TABLE l (v INT); CREATE TABLE r (v INT);
         INSERT INTO l VALUES (1), (2); INSERT INTO r VALUES (2), (3)",
        "SELECT * FROM l INNER JOIN r ON l.v = r.v WHERE r.v IS NULL",
    );
}

#[test]
fn distinct_group_bug_needs_both_distinct_and_group_by() {
    let setup = "CREATE TABLE t (k INT); INSERT INTO t VALUES (1), (2), (2), (3)";
    assert_silent(
        BugId::DuckdbDistinctGroupByDrop,
        setup,
        "SELECT DISTINCT k FROM t",
    );
    assert_silent(
        BugId::DuckdbDistinctGroupByDrop,
        setup,
        "SELECT k FROM t GROUP BY k",
    );
}

#[test]
fn name_collision_bug_is_silent_for_qualified_refs() {
    assert_silent(
        BugId::TidbCorrelatedNameCollision,
        "CREATE TABLE t0 (c0 INT); CREATE TABLE t1 (c0 INT);
         INSERT INTO t0 VALUES (5); INSERT INTO t1 VALUES (1), (2)",
        "SELECT (SELECT MAX(t1.c0) FROM t1) FROM t0",
    );
}

#[test]
fn every_logic_mutant_is_silent_on_a_neutral_probe() {
    // A probe that touches none of the trigger contexts: plain arithmetic
    // projection over a single-row table.
    for bug in BugId::logic_bugs() {
        assert_silent(
            bug,
            "CREATE TABLE neutral (n INT); INSERT INTO neutral VALUES (3)",
            "SELECT n + 1, n * 2 FROM neutral",
        );
    }
}
