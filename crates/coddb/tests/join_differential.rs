//! Differential testing of the two join strategies: every join-shaped
//! query runs through both the hash-join path ([`JoinMode::Auto`]) and
//! the nested loop ([`JoinMode::NestedLoop`]) and must produce identical
//! results — not just as multisets but row for row, since the hash join
//! is specified to emit in nested-loop order (left-major, right index
//! ascending). Covers NULL keys, duplicate-key fan-out, residual
//! conjuncts, all join kinds, and the runtime mixed-class fallbacks.

use coddb::{Database, Dialect, JoinMode};

fn db_with(dialect: Dialect, mode: JoinMode, setup: &str) -> Database {
    let mut db = Database::new(dialect);
    db.set_join_mode(mode);
    db.execute_sql(setup).unwrap();
    db
}

/// Run `sql` under both join modes; results (or errors) must agree, and
/// result rows must arrive in the same order.
fn assert_join_differential(dialect: Dialect, setup: &str, sql: &str) {
    let mut hash_db = db_with(dialect, JoinMode::Auto, setup);
    let mut nested_db = db_with(dialect, JoinMode::NestedLoop, setup);
    let h = hash_db.query_sql(sql);
    let n = nested_db.query_sql(sql);
    match (h, n) {
        (Ok(h), Ok(n)) => {
            assert_eq!(
                h.rows, n.rows,
                "hash and nested-loop joins disagree on {sql}\nhash: {h:?}\nnested: {n:?}"
            );
        }
        (Err(_), Err(_)) => {} // both reject (e.g. strict cross-class compare)
        (h, n) => panic!("divergent outcome on {sql}\nhash: {h:?}\nnested: {n:?}"),
    }
}

const SETUP: &str = "
    CREATE TABLE l (a INT, b TEXT, c REAL);
    CREATE TABLE r (a INT, b TEXT, c REAL);
    INSERT INTO l VALUES
        (1, 'x', 1.0), (2, 'y', 2.5), (2, 'y', 2.5), (3, 'z', 3.0),
        (NULL, 'n', 4.0), (5, NULL, NULL), (7, 'w', 7.5);
    INSERT INTO r VALUES
        (2, 'y', 2.5), (2, 'q', 2.0), (3, 'z', 9.0), (4, 'w', 4.0),
        (NULL, 'n', 1.0), (5, NULL, 5.0), (5, 'v', 5.5);
";

const JOIN_QUERIES: &[&str] = &[
    // Plain single-key equi joins, every kind.
    "SELECT * FROM l INNER JOIN r ON l.a = r.a",
    "SELECT * FROM l LEFT JOIN r ON l.a = r.a",
    "SELECT * FROM l RIGHT JOIN r ON l.a = r.a",
    "SELECT * FROM l FULL JOIN r ON l.a = r.a",
    // Swapped key sides must be recognized too.
    "SELECT * FROM l INNER JOIN r ON r.a = l.a",
    // Text keys, including a NULL on both sides.
    "SELECT * FROM l LEFT JOIN r ON l.b = r.b",
    // Multi-key.
    "SELECT * FROM l INNER JOIN r ON l.a = r.a AND l.b = r.b",
    // Equi key plus non-equi residual.
    "SELECT * FROM l INNER JOIN r ON l.a = r.a AND l.c < r.c",
    "SELECT * FROM l FULL JOIN r ON l.a = r.a AND l.c < r.c",
    // Computed key expressions.
    "SELECT * FROM l INNER JOIN r ON l.a + 1 = r.a",
    "SELECT * FROM l LEFT JOIN r ON l.a * 2 = r.a + r.a",
    // Constant conjunct riding along.
    "SELECT * FROM l INNER JOIN r ON l.a = r.a AND 1 = 1",
    // Mixed-class key (INT vs TEXT): runtime fallback territory.
    "SELECT * FROM l INNER JOIN r ON l.a = r.b",
    // INT key against a REAL key: numeric cross-class equality.
    "SELECT * FROM l INNER JOIN r ON l.a = r.c",
    // Non-equi ON: planner never hashes, but run it anyway.
    "SELECT * FROM l INNER JOIN r ON l.a < r.a",
    // Join feeding aggregation and dedup.
    "SELECT COUNT(*) FROM l INNER JOIN r ON l.a = r.a",
    "SELECT DISTINCT l.a FROM l INNER JOIN r ON l.a = r.a ORDER BY l.a",
];

#[test]
fn hash_join_matches_nested_loop_on_every_shape() {
    for dialect in [
        Dialect::Sqlite,
        Dialect::Mysql,
        Dialect::Duckdb,
        Dialect::Cockroach,
    ] {
        for sql in JOIN_QUERIES {
            assert_join_differential(dialect, SETUP, sql);
        }
    }
}

#[test]
fn hash_path_is_actually_taken() {
    let mut db = db_with(Dialect::Sqlite, JoinMode::Auto, SETUP);
    db.query_sql("SELECT * FROM l INNER JOIN r ON l.a = r.a")
        .unwrap();
    let hits = db.coverage().hit_points();
    assert!(hits.contains(&"exec::hash_join_build"), "{hits:?}");
    assert!(hits.contains(&"exec::hash_join_null_key"), "{hits:?}");
    assert!(hits.contains(&"plan::hash_join_keys"), "{hits:?}");
}

#[test]
fn nested_mode_never_builds_a_hash_table() {
    let mut db = db_with(Dialect::Sqlite, JoinMode::NestedLoop, SETUP);
    db.query_sql("SELECT * FROM l INNER JOIN r ON l.a = r.a")
        .unwrap();
    assert!(!db
        .coverage()
        .hit_points()
        .contains(&"exec::hash_join_build"));
}

#[test]
fn null_keys_never_match_and_duplicates_fan_out() {
    let mut db = db_with(Dialect::Sqlite, JoinMode::Auto, SETUP);
    // l has a=2 twice, r has a=2 twice: 2x2 fan-out. NULLs on both sides
    // must not pair with each other.
    let rel = db
        .query_sql("SELECT l.a FROM l INNER JOIN r ON l.a = r.a")
        .unwrap();
    let twos = rel
        .rows
        .iter()
        .filter(|row| row[0].as_i64() == Some(2))
        .count();
    assert_eq!(twos, 4, "duplicate keys must chain: {rel:?}");
    assert!(
        rel.rows.iter().all(|row| !row[0].is_null()),
        "NULL keys must never match: {rel:?}"
    );
    // ... but NULL-keyed rows surface as padding under outer joins.
    let padded = db
        .query_sql("SELECT l.a, r.a FROM l LEFT JOIN r ON l.a = r.a ORDER BY 1")
        .unwrap();
    assert!(
        padded
            .rows
            .iter()
            .any(|row| row[0].is_null() && row[1].is_null()),
        "NULL-keyed left row must be padded: {padded:?}"
    );
}

#[test]
fn mixed_class_keys_fall_back_at_runtime() {
    // INT keys on one side vs TEXT keys on the other: equality is
    // pairwise-coercive (MySQL) or an error (strict dialects), so the
    // executor must delegate to the nested loop.
    let mut db = db_with(Dialect::Mysql, JoinMode::Auto, SETUP);
    let rel = db
        .query_sql("SELECT COUNT(*) FROM l INNER JOIN r ON l.a = r.b")
        .unwrap();
    assert!(db
        .coverage()
        .hit_points()
        .contains(&"exec::hash_join_fallback"));
    // MySQL coerces the text side numerically: no 'y'/'q'/... parses to a
    // matching number, so the join is empty — but via the nested loop.
    assert_eq!(rel.scalar().unwrap().as_i64(), Some(0));
}

#[test]
fn big_int_real_mix_falls_back() {
    let setup = "
        CREATE TABLE bl (k INT); CREATE TABLE br (k REAL);
        INSERT INTO bl VALUES (9007199254740993), (9007199254740992), (1);
        INSERT INTO br VALUES (9007199254740992.0), (1.0);
    ";
    // 2^53 + 1 compares equal to 2^53 as REAL under f64 semantics; hash
    // keys cannot express that, so the executor must fall back — and the
    // two modes must agree on the (f64-rounded) match set.
    assert_join_differential(
        Dialect::Sqlite,
        setup,
        "SELECT COUNT(*) FROM bl INNER JOIN br ON bl.k = br.k",
    );
    let mut db = db_with(Dialect::Sqlite, JoinMode::Auto, setup);
    let rel = db
        .query_sql("SELECT COUNT(*) FROM bl INNER JOIN br ON bl.k = br.k")
        .unwrap();
    assert!(db
        .coverage()
        .hit_points()
        .contains(&"exec::hash_join_fallback"));
    assert_eq!(rel.scalar().unwrap().as_i64(), Some(3));
}

#[test]
fn erroring_key_exprs_defer_to_nested_loop_semantics() {
    // A key expression that errors (division by zero under a strict
    // dialect) must behave exactly like the nested loop: with an empty
    // opposite side there are zero probed pairs, so the ON is never
    // evaluated and the query SUCCEEDS with no rows; with a non-empty
    // opposite side both modes error.
    let setup = "
        CREATE TABLE el (x INT, y INT); CREATE TABLE er (z INT);
        INSERT INTO el VALUES (1, 0);
    ";
    let sql = "SELECT * FROM el INNER JOIN er ON el.x / el.y = er.z";
    assert_join_differential(Dialect::Cockroach, setup, sql);
    let mut db = db_with(Dialect::Cockroach, JoinMode::Auto, setup);
    assert_eq!(db.query_sql(sql).unwrap().rows.len(), 0);

    let populated = format!("{setup} INSERT INTO er VALUES (3);");
    assert_join_differential(Dialect::Cockroach, &populated, sql);
    let mut db = db_with(Dialect::Cockroach, JoinMode::Auto, &populated);
    assert!(db.query_sql(sql).is_err(), "probed pair must still error");
}

#[test]
fn erroring_residuals_keep_nested_loop_semantics() {
    // A residual conjunct ahead of the key in the ON conjunction is
    // evaluated by the nested loop on every probed pair — including
    // key-mismatched ones — so it can error (integer overflow) where a
    // hash join that skips those pairs would not. Key recognition stops
    // at the first residual conjunct, so this shape must run identically
    // (here: error in both modes).
    let setup = "
        CREATE TABLE ol (a INT, big INT); CREATE TABLE orr (a INT);
        INSERT INTO ol VALUES (1, 0), (99, 9223372036854775807);
        INSERT INTO orr VALUES (1);
    ";
    let sql = "SELECT * FROM ol INNER JOIN orr ON ol.big + 1 > 0 AND ol.a = orr.a";
    assert_join_differential(Dialect::Sqlite, setup, sql);
    let mut db = db_with(Dialect::Sqlite, JoinMode::Auto, setup);
    assert!(db.query_sql(sql).is_err(), "overflow must surface");

    // Key first, residual second: nested-loop short-circuit provably
    // skips the residual on key-false pairs, so the hash join applies —
    // but only while no NULL key is present (NULL does not short-circuit
    // AND); with a NULL key the executor must fall back.
    let key_first = "SELECT * FROM ol INNER JOIN orr ON ol.a = orr.a AND ol.big + 1 > 0";
    assert_join_differential(Dialect::Sqlite, setup, key_first);
    let null_setup = format!("{setup} INSERT INTO ol VALUES (NULL, 9223372036854775807);");
    assert_join_differential(Dialect::Sqlite, &null_setup, key_first);
    let mut db = db_with(Dialect::Sqlite, JoinMode::Auto, &null_setup);
    assert!(
        db.query_sql(key_first).is_err(),
        "NULL-keyed pair still reaches the erroring residual"
    );
    assert!(db
        .coverage()
        .hit_points()
        .contains(&"exec::hash_join_fallback"));
}

#[test]
fn seeded_value_grid_differential() {
    // A deterministic pseudo-random grid of int/real/text/null keys on
    // both sides, joined under every kind — a broader net than the
    // hand-written cases.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    let lit = |x: i64| match x % 5 {
        0 => "NULL".to_string(),
        1 | 2 => format!("{}", x % 7),
        3 => format!("{}.5", x % 4),
        _ => format!("'s{}'", x % 3),
    };
    let mut l_rows = Vec::new();
    let mut r_rows = Vec::new();
    for _ in 0..25 {
        l_rows.push(format!("({}, {})", lit(next()), lit(next())));
        r_rows.push(format!("({}, {})", lit(next()), lit(next())));
    }
    let setup = format!(
        "CREATE TABLE gl (k, v); CREATE TABLE gr (k, v);
         INSERT INTO gl VALUES {};
         INSERT INTO gr VALUES {};",
        l_rows.join(","),
        r_rows.join(",")
    );
    for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
        for on in [
            "gl.k = gr.k",
            "gl.k = gr.k AND gl.v = gr.v",
            "gl.k = gr.k AND gl.v <> gr.v",
        ] {
            let sql = format!("SELECT * FROM gl {kind} JOIN gr ON {on}");
            assert_join_differential(Dialect::Sqlite, &setup, &sql);
        }
    }
}

#[test]
fn int_key_grid_stays_on_the_hash_path() {
    // INT keys only, so the key classes never force the nested loop: every
    // query below runs the build table and its duplicate-key chains. Keys
    // come from small ranges, so duplicates interleave on both sides; `k`
    // and `j` hold NULLs, `n` and `m` never do, and the residual cases key
    // on `n` and `m` alone (a NULL key beside a residual falls back by
    // design).
    let mut state = 0x1D_0C0DDu64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut lit = |m: u64, nulls: bool| match next(m + u64::from(nulls)) {
        x if x == m => "NULL".to_string(),
        x => x.to_string(),
    };
    let mut rows = |n: usize| {
        (0..n)
            .map(|_| {
                format!(
                    "({}, {}, {}, {}, {})",
                    lit(4, true),
                    lit(3, true),
                    lit(4, false),
                    lit(2, false),
                    lit(5, true)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let (l_rows, r_rows) = (rows(30), rows(24));
    let setup = format!(
        "CREATE TABLE il (k INT, j INT, n INT, m INT, v INT);
         CREATE TABLE ir (k INT, j INT, n INT, m INT, v INT);
         INSERT INTO il VALUES {l_rows};
         INSERT INTO ir VALUES {r_rows};"
    );
    for dialect in [Dialect::Sqlite, Dialect::Cockroach] {
        for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
            for on in [
                "il.k = ir.k",
                "il.k = ir.k AND il.j = ir.j",
                "il.n = ir.n",
                "il.n = ir.n AND il.m = ir.m",
                "il.n = ir.n AND il.v < ir.v",
                "il.n = ir.n AND il.m = ir.m AND il.v <> ir.v",
            ] {
                let sql = format!("SELECT * FROM il {kind} JOIN ir ON {on}");
                assert_join_differential(dialect, &setup, &sql);
                let mut db = db_with(dialect, JoinMode::Auto, &setup);
                assert!(db.query_sql(&sql).is_ok(), "{dialect:?}: {sql}");
                let hits = db.coverage().hit_points();
                assert!(
                    hits.contains(&"exec::hash_join_build")
                        && !hits.contains(&"exec::hash_join_fallback"),
                    "{dialect:?}: {sql} left the hash path: {hits:?}"
                );
            }
        }
    }
}
