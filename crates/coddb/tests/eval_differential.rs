//! Differential testing of the vectorized chunk evaluator: every
//! statement runs through both eval modes — [`EvalMode::Vectorized`]
//! (chunk-at-a-time kernels with per-chunk scalar fallback) and
//! [`EvalMode::RowAtATime`] (the interpreter baseline) — and must
//! produce byte-identical results, identical coverage bitsets and
//! **identical fuel consumption**, over NULL-heavy data, erroring
//! expressions, DML-interleaved shared rows, every dialect, and every
//! injected mutant.

use coddb::bugs::BugRegistry;
use coddb::{BugId, Database, Dialect, EvalMode};

/// Statements stressing every vectorized kernel plus its fallbacks.
/// Strict dialects reject several of these — errors must agree too.
const SCRIPT: &[&str] = &[
    "CREATE TABLE t (a INT, b TEXT, c REAL, d BOOLEAN)",
    // NULL-heavy data, duplicates, negative values, empty strings.
    "INSERT INTO t VALUES (1, 'one', 1.5, TRUE), (NULL, NULL, NULL, NULL), \
     (2, 'two', NULL, FALSE), (2, NULL, 2.5, TRUE), (-3, 'THREE', -3.5, NULL), \
     (NULL, '', 0.0, FALSE), (7, 'one', 7.25, TRUE), (0, '12abc', 4.0, NULL)",
    // Plain filters: comparisons, AND/OR short circuits over NULLs.
    "SELECT * FROM t WHERE a > 1",
    "SELECT * FROM t WHERE a % 2 = 0 AND c > 1.0",
    "SELECT * FROM t WHERE a < 0 OR c >= 4.0",
    "SELECT * FROM t WHERE NOT (a = 2)",
    "SELECT * FROM t WHERE d",
    // Erroring expressions: division by zero (dialect-dependent), lazy
    // branches that skip the error for some rows, integer overflow.
    "SELECT * FROM t WHERE 10 / a > 2",
    "SELECT * FROM t WHERE a > 0 AND 10 / a > 2",
    "SELECT * FROM t WHERE a = 0 OR 10 % a = 1",
    "SELECT a + 9223372036854775807 FROM t",
    "SELECT * FROM t WHERE a + 9223372036854775807 > 0",
    "SELECT -a, ABS(a), SIGN(c) FROM t",
    // Mixed-class comparisons (MySQL coerces, strict dialects error,
    // SQLite ranks classes) — the TEXT-mix fallback paths.
    "SELECT * FROM t WHERE b > 1",
    "SELECT * FROM t WHERE a = '2'",
    "SELECT b || 'x', b || a FROM t",
    // BETWEEN / IN / IS NULL / LIKE / CASE / IIF / COALESCE kernels.
    "SELECT * FROM t WHERE a BETWEEN 0 AND 2",
    "SELECT * FROM t WHERE c NOT BETWEEN 0.0 AND 2.0",
    "SELECT * FROM t WHERE a IN (1, 2, NULL)",
    "SELECT * FROM t WHERE a NOT IN (7)",
    "SELECT * FROM t WHERE a IN ()",
    "SELECT * FROM t WHERE b IS NULL",
    "SELECT * FROM t WHERE b IS NOT NULL",
    "SELECT * FROM t WHERE b LIKE '%o%'",
    "SELECT * FROM t WHERE b NOT LIKE 't_o'",
    "SELECT CASE WHEN a > 1 THEN 'big' WHEN a IS NULL THEN 'null' ELSE 'small' END FROM t",
    "SELECT CASE a WHEN 2 THEN 'two' WHEN 10 / 0 THEN 'boom' END FROM t",
    "SELECT IIF(a > 0, c, a), COALESCE(a, c, 99), NULLIF(a, 2) FROM t",
    "SELECT LENGTH(b), UPPER(b), LOWER(b), INSTR(b, 'o'), SUBSTR(b, 2, 2), SUBSTR(b, -2) FROM t",
    "SELECT ROUND(c, 1), ROUND(c), TYPEOF(a) FROM t",
    "SELECT CAST(a AS TEXT), CAST(c AS INT), CAST(d AS INT) FROM t",
    "SELECT CAST(b AS INT) FROM t",
    "SELECT CAST(b AS BOOLEAN) FROM t",
    "SELECT CAST(b AS REAL) FROM t",
    // Unary operators, binary IS, VERSION() and `||` over non-TEXT
    // operands (strict dialects reject them).
    "SELECT -b FROM t",
    "SELECT NOT a FROM t",
    "SELECT a IS 2, b IS NOT 'one', VERSION() FROM t",
    "SELECT * FROM t WHERE a IS NOT 2",
    "SELECT a || c, d || a FROM t",
    // Wrong-arity calls: the arity check raises the error.
    "SELECT LENGTH(b, b) FROM t",
    "SELECT SUBSTR(b) FROM t",
    "SELECT ROUND() FROM t",
    "SELECT COALESCE() FROM t",
    "SELECT IIF(a, 1) FROM t",
    // Grouped aggregation: single INT key, non-INT key, expression keys,
    // multi-key, HAVING, DISTINCT aggregates, empty input.
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 1",
    "SELECT b, COUNT(*), SUM(a), AVG(c) FROM t GROUP BY b ORDER BY 1",
    "SELECT a % 3, MIN(c), MAX(c), TOTAL(a) FROM t GROUP BY a % 3 ORDER BY 1",
    "SELECT a, d, COUNT(*) FROM t GROUP BY a, d ORDER BY 1, 2",
    "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY 1",
    "SELECT COUNT(DISTINCT a), AVG(DISTINCT c) FROM t",
    "SELECT a, COUNT(*) FROM t WHERE a > 100 GROUP BY a",
    "SELECT c, COUNT(*) FROM t GROUP BY c ORDER BY 1",
    // Erroring aggregate arguments (group order != row order).
    "SELECT a, SUM(10 / a) FROM t GROUP BY a ORDER BY 1",
    // Aggregate *computation* erroring mid-group-loop after argument
    // evaluation succeeded: the first group's SUM overflows while a
    // later group holds a NULL argument — the row-at-a-time walk never
    // reaches that later group's members, so batched argument coverage
    // must not leak their bits.
    "CREATE TABLE big (g INT, c INT)",
    "INSERT INTO big VALUES (0, 9223372036854775806), (0, 5), (1, NULL), (1, 2)",
    "SELECT g, SUM(c + 0) FROM big GROUP BY g",
    "SELECT g, SUM(c + 0) FROM big GROUP BY g HAVING COUNT(*) > 0",
    // DISTINCT projection, set ops, sorting on expressions.
    "SELECT DISTINCT a FROM t ORDER BY a",
    "SELECT a FROM t WHERE a > 0 UNION SELECT a FROM t WHERE a < 0 ORDER BY 1",
    "SELECT a, c FROM t ORDER BY a % 2, c",
    // Subqueries (row-at-a-time fallback on both modes) mixed with
    // vectorizable outer clauses.
    "SELECT * FROM t WHERE a > (SELECT MIN(a) FROM t) AND c > 0.0",
    "SELECT a, (SELECT COUNT(*) FROM t AS u WHERE u.a = t.a) FROM t ORDER BY 1",
    // DML between SELECTs: predicates bind per statement, caches reset.
    "UPDATE t SET c = c + 1.0 WHERE a = 2",
    "SELECT * FROM t WHERE c > 2.0",
    "DELETE FROM t WHERE a IS NULL AND d IS NULL",
    "SELECT COUNT(*) FROM t",
    "INSERT INTO t SELECT a, b, c, d FROM t WHERE a % 2 = 1",
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 1",
];

fn run_script(
    dialect: Dialect,
    bugs: BugRegistry,
    mode: EvalMode,
    script: &[&str],
) -> (Vec<String>, Vec<&'static str>, u64) {
    let mut db = Database::with_bugs(dialect, bugs);
    db.set_eval_mode(mode);
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
    let (vec_out, vec_cov, vec_fuel) = run_script(dialect, bugs(), EvalMode::Vectorized, script);
    let (row_out, row_cov, row_fuel) = run_script(dialect, bugs(), EvalMode::RowAtATime, script);
    assert_eq!(vec_out.len(), row_out.len(), "[{tag}] statement counts");
    for (i, (v, r)) in vec_out.iter().zip(row_out.iter()).enumerate() {
        assert_eq!(
            v, r,
            "[{tag}] eval modes disagree on {dialect:?} statement {i}"
        );
    }
    assert_eq!(
        vec_cov, row_cov,
        "[{tag}] coverage bitsets diverge between eval modes on {dialect:?}"
    );
    assert_eq!(
        vec_fuel, row_fuel,
        "[{tag}] fuel accounting diverges between eval modes on {dialect:?}"
    );
}

/// A DML-interleaved script: SELECT shapes that stress row sharing
/// (scans, joins over duplicates, correlated and non-correlated
/// subqueries, CTE reuse, sorting on shared rows) alternate with
/// INSERT/UPDATE/DELETE that mutate the very rows earlier statements
/// shared — copy-on-write must keep each statement's view isolated.
const SHARED_ROW_SCRIPT: &[&str] = &[
    "CREATE TABLE t (a INT, b TEXT, c REAL)",
    "CREATE TABLE u (a INT, b TEXT)",
    // Duplicate rows on purpose: shared scans must not collapse them.
    "INSERT INTO t VALUES (1, 'x', 1.5), (1, 'x', 1.5), (2, 'y', 2.5), \
     (2, 'y', 2.5), (3, 'z', 3.5), (NULL, 'n', 0.5)",
    "INSERT INTO u VALUES (1, 'x'), (2, 'q'), (2, 'q'), (4, 'w'), (NULL, 'n')",
    "SELECT * FROM t",
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 1",
    "SELECT DISTINCT a, b FROM t ORDER BY a, b",
    "SELECT * FROM t INNER JOIN u ON t.a = u.a",
    "SELECT * FROM t LEFT JOIN u ON t.a = u.a ORDER BY t.c",
    // Correlated subquery: per-outer-key memo + shared FROM result.
    "SELECT a, (SELECT COUNT(*) FROM u WHERE u.a = t.a) FROM t ORDER BY a",
    // Non-correlated subquery: full result memo.
    "SELECT COUNT(*) FROM t WHERE a IN (SELECT a FROM u WHERE a > 1)",
    "SELECT a FROM t WHERE c < (SELECT 2.6) ORDER BY a",
    // CTE scanned twice (reuse counter must advance identically).
    "WITH w (k) AS (SELECT a FROM u WHERE a > 1) \
     SELECT * FROM w INNER JOIN w AS w2 ON w.k = w2.k",
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY 1",
    // DML between the SELECTs: COW writes against previously shared rows.
    "UPDATE t SET b = 'updated' WHERE a = 1",
    "SELECT * FROM t ORDER BY a, c",
    "DELETE FROM u WHERE a = 2",
    "SELECT COUNT(*) FROM u",
    "INSERT INTO t VALUES (5, 'v', 5.5)",
    "SELECT a, (SELECT COUNT(*) FROM u WHERE u.a = t.a) FROM t ORDER BY a",
    "UPDATE t SET c = c + 1.0 WHERE a IN (SELECT a FROM u)",
    "SELECT * FROM t ORDER BY a, c",
    "DELETE FROM t WHERE a IS NULL",
    "SELECT COUNT(*) FROM t",
];

#[test]
fn vectorized_matches_row_at_a_time_on_every_dialect() {
    for dialect in Dialect::ALL {
        assert_modes_agree(dialect, BugRegistry::none, SCRIPT, "clean");
        assert_modes_agree(dialect, BugRegistry::none, SHARED_ROW_SCRIPT, "shared-rows");
    }
}

/// Trigger contexts for the context-sensitive mutants: index scans,
/// views, CTEs, joins, subqueries, set operations — so an active mutant
/// actually fires during the differential run (the classifier must then
/// route its hooked shapes through the authentic interpreter on both
/// modes identically).
const MUTANT_SCRIPT: &[&str] = &[
    "CREATE TABLE t0 (c0 INT, c1 TEXT, c2 REAL)",
    "INSERT INTO t0 VALUES (1, 'abc', 1.5), (NULL, 'x', 2.5), (2, '5', 0.0), \
     (5, NULL, 862827606027206657.0), (0, 'ABC', -1.0)",
    "CREATE TABLE t1 (c0 INT)",
    "INSERT INTO t1 VALUES (1), (2), (2), (NULL)",
    "CREATE INDEX i0 ON t0 (c0)",
    "CREATE VIEW v0 (x) AS SELECT c0 FROM t1",
    "SELECT * FROM t0 WHERE c0 > 0",
    "SELECT * FROM t0 WHERE c0 BETWEEN 1 AND 9",
    "SELECT * FROM t0 WHERE c1 BETWEEN 1 AND 9",
    "SELECT * FROM t0 WHERE c1 LIKE 'abc'",
    "SELECT * FROM t0 WHERE c1 NOT LIKE 'a%'",
    "SELECT * FROM t0 WHERE c0 IN (1, 5)",
    "SELECT * FROM t0 WHERE c0 IN (0, 862827606027206657)",
    "SELECT * FROM t0 WHERE c0 IS NULL",
    "SELECT * FROM t0 WHERE FALSE OR c0 > 0",
    "SELECT * FROM t0 WHERE NULL AND c0 > 0",
    "SELECT * FROM t0 WHERE c1 > 2",
    "SELECT c0 + 9223372036854775807 FROM t0 WHERE c0 = 1",
    "SELECT CASE WHEN NULL THEN 1 ELSE 0 END FROM t0",
    "SELECT CASE c0 WHEN 0 THEN 0 WHEN 1 THEN 1 WHEN 2 THEN 2 WHEN 3 THEN 3 \
     WHEN 4 THEN 4 WHEN 5 THEN 5 WHEN 6 THEN 6 WHEN 7 THEN 7 WHEN 8 THEN 8 \
     ELSE -1 END FROM t0",
    "WITH w AS (SELECT c0 FROM t1) \
     SELECT CASE WHEN NULL THEN 1 ELSE 0 END FROM t0, w",
    "SELECT ROUND(c2, 11), SUBSTR(c1, -2), UPPER(c1) FROM t0",
    "SELECT CAST(c1 AS INT) FROM t0 WHERE c0 = 2",
    "SELECT (SELECT MAX(c0) FROM t1) FROM t0",
    "SELECT COUNT(*) FROM t0 WHERE (SELECT COUNT(*) FROM t1 WHERE FALSE)",
    "SELECT * FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0",
    "SELECT * FROM t0 LEFT JOIN v0 ON v0.x = 99",
    "SELECT * FROM t0 CROSS JOIN t1 ON (EXISTS (SELECT c0 FROM t1 WHERE FALSE))",
    "SELECT 2 = ANY (SELECT c0 FROM t1)",
    "SELECT (SELECT AVG(c2) FROM t0) FROM t1",
    "SELECT c0 FROM t1 UNION SELECT 'a'",
    "SELECT DISTINCT c0 FROM t1 GROUP BY c0",
    "SELECT c2, COUNT(*) FROM t0 GROUP BY c2",
    "SELECT c0, COUNT(*) FROM t1 GROUP BY c0 HAVING COUNT(*) > (SELECT 0)",
    "SELECT c0 FROM t1 WHERE (SELECT TRUE) = TRUE",
    "UPDATE t0 SET c1 = 'upd' WHERE c0 IN (1)",
    "DELETE FROM t1 WHERE c0 > 5",
    "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE \
     (SELECT COUNT(*) FROM v0 WHERE v0.x BETWEEN 0 AND 0)",
    // Plan-time, join-strategy, set-op and internal-error triggers.
    "SELECT * FROM t0 WHERE (c0 % -3) = 1",
    "SELECT * FROM t0 INNER JOIN t1 ON TRUE WHERE t0.c0 NOT BETWEEN t0.c0 AND NULL",
    "SELECT t0.* FROM t0 FULL OUTER JOIN t1 ON t0.c0 = t1.c0",
    "SELECT c0 FROM t1 INTERSECT SELECT c0 FROM t1",
    "SELECT CAST(c1 AS INT) FROM t0 WHERE c0 = 1",
    "WITH w AS (SELECT c0 FROM t1) SELECT * FROM w AS x CROSS JOIN w AS y",
    "SELECT COUNT(*) FROM t0 FULL OUTER JOIN t1 ON t0.c0 = t1.c0 \
     GROUP BY t0.c0 HAVING COUNT(*) >= 1",
    "SELECT CASE WHEN TRUE THEN (SELECT 7) ELSE 0 END FROM t0",
    "SELECT * FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 WHERE t1.c0 IS NULL",
    "SELECT * FROM t0 AS a INNER JOIN t0 AS b ON a.c0 < b.c0 AND a.c2 > b.c2",
    "SELECT * FROM t0 AS a INNER JOIN t0 AS b ON a.c0 < b.c2",
    "SELECT COUNT(*) FROM t1 AS a INNER JOIN t1 AS b ON a.c0 = b.c0 \
     INNER JOIN t1 AS c ON b.c0 = c.c0 INNER JOIN t1 AS d ON c.c0 = d.c0",
    "SELECT DISTINCT c0 FROM t1 UNION SELECT c0 FROM t1",
    "SELECT * FROM t0 WHERE c1 LIKE '%%%a'",
    "SELECT * FROM t0 WHERE c1 LIKE 'a\\'",
    "SELECT (SELECT AVG(DISTINCT c0) FROM t1 WHERE c0 > 100) IS NULL FROM t0",
    "SELECT c0 FROM t1 UNION SELECT 9 ORDER BY 1",
    "CREATE TABLE ot0 (c0 INT)",
    "INSERT INTO ot0 SELECT c0 FROM t1 WHERE VERSION() >= c0",
    "SELECT COUNT(*) FROM ot0",
    "CREATE INDEX ic ON t0 (c1 || c2)",
    "SELECT * FROM t0 INDEXED BY ic WHERE c1 LIKE 'upd%'",
    // Subquery clauses whose bare column shadows an outer one (the
    // name-collision mutant redirects it): a WHERE, a group key, a
    // projection and an aggregate argument.
    "SELECT c0 FROM t0 WHERE c0 IN (SELECT c0 FROM t1 WHERE c0 > 1)",
    "SELECT c0 FROM t0 WHERE c0 IN (SELECT c0 FROM t1 GROUP BY c0)",
    "SELECT c0, (SELECT c0 + 1 FROM t1 WHERE t1.c0 = 2) FROM t0",
    "SELECT c0, (SELECT SUM(c0 + 1) FROM t1) FROM t0",
];

#[test]
fn vectorized_matches_row_at_a_time_under_every_mutant() {
    for bug in BugId::ALL {
        let make = move || BugRegistry::only(bug);
        let (vec_out, vec_cov, vec_fuel) =
            run_script(bug.dialect(), make(), EvalMode::Vectorized, MUTANT_SCRIPT);
        let (row_out, row_cov, row_fuel) =
            run_script(bug.dialect(), make(), EvalMode::RowAtATime, MUTANT_SCRIPT);
        for (i, (v, r)) in vec_out.iter().zip(row_out.iter()).enumerate() {
            assert_eq!(
                v,
                r,
                "eval modes disagree under {bug:?} on statement {i} ({:?})",
                MUTANT_SCRIPT.get(i)
            );
        }
        assert_eq!(
            vec_cov, row_cov,
            "coverage bitsets diverge between eval modes under {bug:?}"
        );
        assert_eq!(
            vec_fuel, row_fuel,
            "fuel accounting diverges between eval modes under {bug:?}"
        );
    }
}

/// Every mutant must still fire on the (default) vectorized engine: its
/// hooked shapes are classification-rejected to the authentic
/// interpreter, so the buggy engine diverges from a clean one exactly as
/// it did row-at-a-time.
#[test]
fn every_mutant_still_fires_under_vectorized_evaluation() {
    for bug in BugId::ALL {
        let clean = run_script(
            bug.dialect(),
            BugRegistry::none(),
            EvalMode::Vectorized,
            MUTANT_SCRIPT,
        );
        let buggy = run_script(
            bug.dialect(),
            BugRegistry::only(bug),
            EvalMode::Vectorized,
            MUTANT_SCRIPT,
        );
        assert_ne!(
            clean.0, buggy.0,
            "{bug:?} no longer fires anywhere in the mutant workout script"
        );
    }
}

/// Error-path scenarios checked on a *fresh* database each, so a
/// coverage bit leaked by the vectorized path cannot hide behind a bit
/// an earlier statement already set (coverage is an idempotent bitset —
/// the long script above can mask single-bit divergences).
#[test]
fn error_scenarios_agree_on_fresh_databases() {
    let scenarios: &[&[&str]] = &[
        // Aggregate computation errors mid-group-loop after argument
        // evaluation succeeded; the later group's NULL member must not
        // leak eval::arith_null into coverage.
        &[
            "CREATE TABLE big (g INT, c INT)",
            "INSERT INTO big VALUES (0, 9223372036854775806), (0, 5), (1, NULL), (1, 2)",
            "SELECT g, SUM(c + 0) FROM big GROUP BY g",
        ],
        // Same shape, erroring in a *later* group: the earlier group's
        // argument bits must still fire.
        &[
            "CREATE TABLE big (g INT, c INT)",
            "INSERT INTO big VALUES (0, NULL), (1, 9223372036854775806), (1, 5)",
            "SELECT g, SUM(c + 0) FROM big GROUP BY g",
        ],
        // HAVING errors after aggregates; both groups' args evaluated.
        &[
            "CREATE TABLE big (g INT, c INT)",
            "INSERT INTO big VALUES (0, 1), (1, NULL)",
            "SELECT g, SUM(c + 0) FROM big GROUP BY g HAVING 1 / g > 0",
        ],
        // Filter errors mid-scan: rows after the erroring row must fire
        // nothing (chunk fallback re-runs row-at-a-time).
        &[
            "CREATE TABLE t (a INT, b TEXT)",
            "INSERT INTO t VALUES (2, 'x'), (0, 'y'), (NULL, 'z')",
            "SELECT * FROM t WHERE 10 / a > 1",
        ],
        // Projection errors mid-chunk.
        &[
            "CREATE TABLE t (a INT)",
            "INSERT INTO t VALUES (5), (0), (NULL)",
            "SELECT 10 % a FROM t",
        ],
        // Group-key evaluation errors mid-chunk.
        &[
            "CREATE TABLE t (a INT)",
            "INSERT INTO t VALUES (5), (0), (NULL)",
            "SELECT 10 / a, COUNT(*) FROM t GROUP BY 10 / a",
        ],
        // Erroring DML: fuel consumed before the error must be counted
        // (and equally) in both modes.
        &[
            "CREATE TABLE t (a INT)",
            "INSERT INTO t VALUES (5), (0), (2)",
            "UPDATE t SET a = a + 1 WHERE 10 / a > 1",
            "DELETE FROM t WHERE 10 % a = 0",
            "INSERT INTO t SELECT 10 / a FROM t",
            "SELECT COUNT(*) FROM t",
        ],
        // Bare comparisons over more than one chunk: the 8-row table
        // doubled to 1,024 rows fills the first chunk, a TEXT value
        // (strict dialects refuse it) and a NULL open the second, and one
        // more doubling fills it and spills into a third. Both
        // orientations, a TEXT literal and an erroring invariant side.
        &[
            "CREATE TABLE t (a INT, b TEXT)",
            "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, NULL), (4, 'four'), \
             (5, 'one'), (6, ''), (7, 'seven'), (8, 'one')",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t SELECT * FROM t",
            "INSERT INTO t VALUES ('x', 'one')",
            "INSERT INTO t VALUES (NULL, NULL)",
            "INSERT INTO t SELECT * FROM t",
            "SELECT * FROM t WHERE a > 5",
            "SELECT * FROM t WHERE 5 < a",
            "SELECT COUNT(*) FROM t WHERE b = 'one'",
            "SELECT COUNT(*) FROM t WHERE a > 9223372036854775807 + 1",
            "DELETE FROM t WHERE 5 < a",
            "SELECT COUNT(*) FROM t",
        ],
    ];
    for dialect in Dialect::ALL {
        for (i, scenario) in scenarios.iter().enumerate() {
            let (vec_out, vec_cov, vec_fuel) =
                run_script(dialect, BugRegistry::none(), EvalMode::Vectorized, scenario);
            let (row_out, row_cov, row_fuel) =
                run_script(dialect, BugRegistry::none(), EvalMode::RowAtATime, scenario);
            assert_eq!(
                vec_out, row_out,
                "outcomes diverge on {dialect:?} scenario {i}"
            );
            assert_eq!(
                vec_cov, row_cov,
                "coverage diverges on {dialect:?} scenario {i}"
            );
            assert_eq!(
                vec_fuel, row_fuel,
                "fuel diverges on {dialect:?} scenario {i}"
            );
        }
    }
}

/// Fuel exhaustion must hang at exactly the same statement with exactly
/// the same accounting: the chunked paths check the budget covers a
/// whole chunk before charging it, falling back to the per-row loop
/// (which charges row by row) when it does not.
#[test]
fn fuel_exhaustion_agrees_across_eval_modes() {
    for fuel in [7u64, 23, 61, 200] {
        let run = |mode: EvalMode| {
            let mut db = Database::new(Dialect::Sqlite);
            db.set_eval_mode(mode);
            db.set_fuel_limit(fuel);
            let mut outcomes = Vec::new();
            for sql in [
                "CREATE TABLE t (a INT)",
                "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10)",
                "SELECT COUNT(*) FROM t WHERE a % 2 = 1",
                "SELECT COUNT(*) FROM t WHERE a > 3",
                "SELECT a * 2 FROM t",
                "SELECT a, COUNT(*) FROM t GROUP BY a",
            ] {
                for stmt in &coddb::parser::parse_statements(sql).unwrap() {
                    outcomes.push(match db.execute(stmt) {
                        Ok(out) => format!("{out:?}"),
                        Err(e) => format!("error: {e}"),
                    });
                }
            }
            (outcomes, db.coverage().hit_points(), db.fuel_used())
        };
        let vec = run(EvalMode::Vectorized);
        let row = run(EvalMode::RowAtATime);
        assert_eq!(vec.0, row.0, "outcomes diverge at fuel limit {fuel}");
        assert_eq!(vec.1, row.1, "coverage diverges at fuel limit {fuel}");
        assert_eq!(vec.2, row.2, "fuel accounting diverges at limit {fuel}");
    }
}
