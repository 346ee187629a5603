//! Proof that the hot row loops perform **zero heap allocation per
//! row**: a counting global allocator observes (1) a 10k-row filter loop
//! over a bound predicate — the expression path — and (2) the full
//! plan→bind→exec pipeline of a pure filter scan, whose allocation count
//! must not grow with the row count now that scans hand out shared rows
//! instead of cloning table storage. Later cases cover the vectorized
//! filter, the DML WHERE stage, the index seek, the hash join and
//! subqueries, whose runs allocate only their result.
//!
//! This file deliberately contains a single test — the allocation counter
//! is process-global, and a concurrently running test would inflate it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use coddb::ast::{BinaryOp, Expr};
use coddb::bind::Binder;
use coddb::bugs::BugRegistry;
use coddb::catalog::Catalog;
use coddb::coverage::Coverage;
use coddb::eval::{eval_bound, Clause, ExprCtx};
use coddb::exec::{ColMeta, CteEnv, EngineCtx, EvalEnv, Frame, Schema, StmtKind};
use coddb::value::{Row, Value};
use coddb::{Database, Dialect};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn expression_path_allocates_nothing_per_row() {
    // `c0 % 3 = 1 AND c2 > 10.0` — the engine_exec seq_filter predicate.
    let pred = Expr::and(
        Expr::eq(
            Expr::bin(BinaryOp::Mod, Expr::col("t0", "c0"), Expr::lit(3i64)),
            Expr::lit(1i64),
        ),
        Expr::bin(BinaryOp::Gt, Expr::col("t0", "c2"), Expr::lit(10.5)),
    );

    let schema = Schema {
        cols: vec![
            ColMeta::new(Some("t0"), "c0"),
            ColMeta::new(Some("t0"), "c1"),
            ColMeta::new(Some("t0"), "c2"),
        ],
    };
    let rows: Vec<Row> = (0..10_000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Text(format!("r{i}")),
                Value::Real(i as f64 + 0.5),
            ])
        })
        .collect();

    let catalog = Catalog::new();
    let bugs = BugRegistry::none();
    let cov = Coverage::new();
    let ctx = EngineCtx::new(
        &catalog,
        Dialect::Sqlite,
        &bugs,
        &cov,
        true,
        StmtKind::Select,
        u64::MAX,
    );
    let ctes = CteEnv::root();

    // Bind once.
    let scopes = [&schema];
    let mut binder = Binder::new(&scopes, 0);
    let bound = binder.bind(&pred).unwrap();

    let run = |expected_hits: i64| {
        let mut hits = 0i64;
        for row in &rows {
            let frames = [Frame {
                schema: &schema,
                row,
            }];
            let env = EvalEnv {
                ctx: &ctx,
                scopes: &frames,
                aggs: None,
                ctes: &ctes,
                info: ExprCtx::new(Clause::Where),
            };
            let v = eval_bound(&bound, env).unwrap();
            if v == Value::Int(1) {
                hits += 1;
            }
        }
        assert_eq!(hits, expected_hits);
    };

    // Rows with c0 % 3 == 1 and c0 + 0.5 > 10.5: c0 in {13, 16, ..., 9999}.
    let expected = (11..10_000).filter(|i| i % 3 == 1).count() as i64;

    // Warm up (coverage bits, lazy anything), then measure.
    run(expected);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run(expected);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "bound evaluation of a 10k-row filter must not allocate"
    );
}

/// Whole-pipeline check: a pure filter scan (`SELECT COUNT(*) FROM t
/// WHERE ...`, no projection of row values) allocates a constant amount
/// regardless of how many rows it scans — the scan hands out shared rows
/// (refcount bumps), never per-row clones. Measured as the allocation
/// delta between a small and a 4x larger table; a per-row cost of even
/// one allocation would show up as ~15k extra.
fn scan_path_allocates_nothing_per_row() {
    let build = |n: i64| {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (c0 INT, c1 TEXT, c2 REAL)")
            .unwrap();
        for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|v| format!("({v}, 'r{v}', {v}.5)"))
                .collect();
            db.execute_sql(&format!("INSERT INTO t VALUES {}", rows.join(",")))
                .unwrap();
        }
        db
    };
    let sql = "SELECT COUNT(*) FROM t WHERE c0 % 3 = 1 AND c2 > 10.5";
    let measure = |db: &mut Database, expected: i64| {
        // Warm up (parses, plans once, settles lazy init), then measure
        // one full query through the public API.
        let q = coddb::parser::parse_select(sql).unwrap();
        let warm = db.query(&q).unwrap();
        assert_eq!(warm.scalar().unwrap().as_i64(), Some(expected));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rel = db.query(&q).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(rel.scalar().unwrap().as_i64(), Some(expected));
        after - before
    };

    let expected = |n: i64| (11..n).filter(|i| i % 3 == 1).count() as i64;
    let mut small = build(5_000);
    let mut large = build(20_000);
    let small_allocs = measure(&mut small, expected(5_000));
    let large_allocs = measure(&mut large, expected(20_000));

    // Constant-factor slack only: Vec growth differences and the single
    // group's member/value buffers are size-dependent allocations but
    // O(1) in count.
    assert!(
        large_allocs <= small_allocs + 8,
        "scanning 4x the rows must not allocate per row: \
         {small_allocs} allocs at 5k rows vs {large_allocs} at 20k"
    );
}

/// The vectorized filter path must allocate O(chunks), not O(rows): its
/// kernel buffers come from a per-statement pool that is recycled across
/// chunks, so a 4x larger table (4x the chunks) must not cost
/// proportionally more allocations. The predicates here are
/// classified-vectorizable and run through the public query API under the
/// default [`coddb::EvalMode::Vectorized`]: one through AND/OR selection
/// vectors, arithmetic and comparison kernels, and a bare comparison
/// through the root-comparison kernel, which keeps all but 11 rows in
/// the WHERE stage's one kept-position buffer.
fn vectorized_filter_allocates_o_chunks_not_o_rows() {
    let build = |n: i64| {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (c0 INT, c1 TEXT, c2 REAL)")
            .unwrap();
        for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|v| format!("({v}, 'r{v}', {v}.5)"))
                .collect();
            db.execute_sql(&format!("INSERT INTO t VALUES {}", rows.join(",")))
                .unwrap();
        }
        db
    };
    let mut small = build(5_000); // 5 chunks of 1024
    let mut large = build(20_000); // 20 chunks
    let mixed = |n: i64| {
        (0..n)
            .filter(|v| (v % 3 == 1 || v % 5 == 2) && (*v as f64 + 0.5) + 1.5 > 12.0)
            .count() as i64
    };
    for (sql, small_kept, large_kept) in [
        // Or + And + arithmetic + comparisons: several kernel nodes, so
        // a per-node-per-chunk buffer leak would multiply visibly.
        (
            "SELECT COUNT(*) FROM t WHERE (c0 % 3 = 1 OR c0 % 5 = 2) AND c2 + 1.5 > 12.0",
            mixed(5_000),
            mixed(20_000),
        ),
        (
            "SELECT COUNT(*) FROM t WHERE c0 > 10",
            5_000 - 11,
            20_000 - 11,
        ),
    ] {
        let q = coddb::parser::parse_select(sql).unwrap();
        let measure = |db: &mut Database, expected: i64| {
            let warm = db.query(&q).unwrap();
            assert_eq!(warm.scalar().unwrap().as_i64(), Some(expected));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rel = db.query(&q).unwrap();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(rel.scalar().unwrap().as_i64(), Some(expected));
            after - before
        };
        let small_allocs = measure(&mut small, small_kept);
        let large_allocs = measure(&mut large, large_kept);
        // 15 extra chunks x several kernel nodes: an O(rows) — or even an
        // unpooled O(chunks x nodes) — implementation would add hundreds
        // of allocations; the pooled pipeline adds a constant few.
        assert!(
            large_allocs <= small_allocs + 16,
            "`{sql}`: vectorized filter must allocate O(chunks) with pooled buffers: \
             {small_allocs} allocs at 5k rows vs {large_allocs} at 20k"
        );
    }
}

/// UPDATE and DELETE filter through the same WHERE stage as a SELECT:
/// a statement whose WHERE clause keeps no row allocates a constant
/// amount however many rows it filters — one through the root-comparison
/// kernel, one through the chunk kernel's general path.
fn dml_where_stage_allocates_nothing_per_row() {
    let build = |n: i64| {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (c0 INT, c1 TEXT, c2 REAL)")
            .unwrap();
        for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|v| format!("({v}, 'r{v}', {v}.5)"))
                .collect();
            db.execute_sql(&format!("INSERT INTO t VALUES {}", rows.join(",")))
                .unwrap();
        }
        db
    };
    for sql in [
        "UPDATE t SET c1 = 'u' WHERE c0 < 0",
        "DELETE FROM t WHERE c0 % 3 = 7 AND c2 > 10.5",
    ] {
        let stmt = &coddb::parser::parse_statements(sql).unwrap()[0];
        let measure = |db: &mut Database| {
            assert_eq!(db.execute(stmt).unwrap().affected(), Some(0));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let out = db.execute(stmt).unwrap();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(out.affected(), Some(0));
            after - before
        };
        let small_allocs = measure(&mut build(5_000));
        let large_allocs = measure(&mut build(20_000));
        assert!(
            large_allocs <= small_allocs + 16,
            "`{sql}` must not allocate per row: \
             {small_allocs} allocs at 5k rows vs {large_allocs} at 20k"
        );
    }
}

/// An index seek allocates a constant amount however many rows it emits:
/// the index flattens the matching postings into one buffer, and the
/// emitted rows go through the scan's filter kernels — all at once when
/// the comparison alone is the WHERE clause, in storage-ordered runs when
/// a residual conjunct follows it.
fn seek_allocates_nothing_per_row() {
    let build = |n: i64| {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (c0 INT, c1 TEXT, c2 REAL); CREATE INDEX i0 ON t (c0)")
            .unwrap();
        for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|v| format!("({v}, 'r{v}', {v}.5)"))
                .collect();
            db.execute_sql(&format!("INSERT INTO t VALUES {}", rows.join(",")))
                .unwrap();
        }
        db
    };
    for (sql, keeps_all) in [
        ("SELECT COUNT(*) FROM t WHERE c0 >= 0", true),
        ("SELECT COUNT(*) FROM t WHERE c0 >= 0 AND c2 < 0", false),
    ] {
        let q = coddb::parser::parse_select(sql).unwrap();
        let measure = |db: &mut Database, n: i64| {
            let expected = if keeps_all { n } else { 0 };
            assert!(
                db.explain(&q).unwrap().contains("INDEX SEEK"),
                "`{sql}` must seek"
            );
            let warm = db.query(&q).unwrap();
            assert_eq!(warm.scalar().unwrap().as_i64(), Some(expected));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rel = db.query(&q).unwrap();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(rel.scalar().unwrap().as_i64(), Some(expected));
            after - before
        };
        let small_allocs = measure(&mut build(5_000), 5_000);
        let large_allocs = measure(&mut build(20_000), 20_000);
        assert!(
            large_allocs <= small_allocs + 16,
            "`{sql}` must not allocate per row: \
             {small_allocs} allocs at 5k rows vs {large_allocs} at 20k"
        );
    }
}

/// A hash join allocates its output rows and a fixed number of buffers,
/// whatever its input sizes: both sides' keys go into one flat buffer
/// each, and the build table chains duplicate keys through one array.
/// The key columns overlap in exactly 100 values at either size, so the
/// output (and, with the residual, the candidate pairs it evaluates) is
/// the same size too.
fn hash_join_allocates_nothing_per_row() {
    // a.k = 0..n; b.k = n-100..2n-100, so keys n-100..n-1 match. b.w is
    // above a.v exactly for odd keys, so the residual keeps half.
    let build = |n: i64| {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE a (k INT, v INT); CREATE TABLE b (k INT, w INT)")
            .unwrap();
        for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
            let a: Vec<String> = chunk.iter().map(|k| format!("({k}, {k})")).collect();
            let b: Vec<String> = chunk
                .iter()
                .map(|i| {
                    let k = i + n - 100;
                    format!("({k}, {})", k + k % 2)
                })
                .collect();
            db.execute_sql(&format!(
                "INSERT INTO a VALUES {}; INSERT INTO b VALUES {}",
                a.join(","),
                b.join(",")
            ))
            .unwrap();
        }
        db
    };
    for (sql, expected) in [
        ("SELECT COUNT(*) FROM a INNER JOIN b ON a.k = b.k", 100),
        (
            "SELECT COUNT(*) FROM a INNER JOIN b ON a.k = b.k AND a.v < b.w",
            50,
        ),
    ] {
        let q = coddb::parser::parse_select(sql).unwrap();
        let measure = |db: &mut Database| {
            assert!(
                db.explain(&q).unwrap().contains("HASH (1 key(s))"),
                "`{sql}` must hash join"
            );
            let warm = db.query(&q).unwrap();
            assert_eq!(warm.scalar().unwrap().as_i64(), Some(expected));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rel = db.query(&q).unwrap();
            let after = ALLOCATIONS.load(Ordering::Relaxed);
            assert_eq!(rel.scalar().unwrap().as_i64(), Some(expected));
            after - before
        };
        let small_allocs = measure(&mut build(5_000));
        let large_allocs = measure(&mut build(20_000));
        assert!(
            large_allocs <= small_allocs + 16,
            "`{sql}` must not allocate per row: \
             {small_allocs} allocs at 5k rows vs {large_allocs} at 20k"
        );
    }
}

/// A subquery pays only for its result. Each run of a correlated
/// subquery that seeks by its outer key allocates at most 12 times: its
/// result relation, its memo entry and the memo's amortized growth, and
/// nothing for the seek, the skipped-class replay, the filter or the
/// aggregate around them. A memo hit, keyed or full, allocates nothing
/// per outer row.
fn subquery_runs_allocate_only_their_result() {
    // `t0`: 200 rows indexed on `c0`. `o`: `keys` distinct keys `k`,
    // each on `per_key` rows.
    let build = |keys: i64, per_key: i64| {
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql(
            "CREATE TABLE t0 (c0 INT, c1 TEXT); CREATE INDEX i0 ON t0 (c0);
             CREATE TABLE o (k INT, v INT)",
        )
        .unwrap();
        let inner: Vec<String> = (0..200).map(|v| format!("({v}, 'r{v}')")).collect();
        let outer: Vec<String> = (0..keys * per_key)
            .map(|i| format!("({}, {})", i % keys, i % 7))
            .collect();
        db.execute_sql(&format!(
            "INSERT INTO t0 VALUES {}; INSERT INTO o VALUES {}",
            inner.join(","),
            outer.join(",")
        ))
        .unwrap();
        db
    };
    let measure = |db: &mut Database, sql: &str| {
        let q = coddb::parser::parse_select(sql).unwrap();
        let warm = db.query(&q).unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rel = db.query(&q).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(rel, warm, "`{sql}`");
        after - before
    };

    // The correlated subquery seeks `i0` by `o.k` on every run: 10
    // against 40 distinct keys, one outer row each.
    let correlated =
        "SELECT COUNT(*) FROM o WHERE o.v < (SELECT AVG(t0.c0) FROM t0 WHERE t0.c0 = o.k)";
    let mut few = build(10, 1);
    let body = coddb::parser::parse_select("SELECT AVG(t0.c0) FROM t0 WHERE t0.c0 = o.k").unwrap();
    assert!(
        few.explain(&body).unwrap().contains("INDEX SEEK"),
        "the correlated subquery must seek"
    );
    let few_allocs = measure(&mut few, correlated);
    let many_allocs = measure(&mut build(40, 1), correlated);
    assert!(
        many_allocs <= few_allocs + 12 * 30,
        "a correlated run must allocate at most 12 times: \
         {few_allocs} allocs at 10 keys vs {many_allocs} at 40"
    );

    // Memo hits: 6 keys on 40 against 160 outer rows each, for the keyed
    // memo, and the full memo of a non-correlated IN and scalar subquery.
    for sql in [
        correlated,
        "SELECT COUNT(*) FROM o WHERE v IN (SELECT c0 FROM t0 WHERE c0 > 3)",
        "SELECT COUNT(*) FROM o WHERE v < (SELECT AVG(c0) FROM t0)",
    ] {
        let small_allocs = measure(&mut build(6, 40), sql);
        let large_allocs = measure(&mut build(6, 160), sql);
        assert!(
            large_allocs <= small_allocs + 8,
            "`{sql}`: a memo hit must not allocate per outer row: \
             {small_allocs} allocs at 240 rows vs {large_allocs} at 960"
        );
    }
}

#[test]
fn hot_row_loops_allocate_nothing_per_row() {
    expression_path_allocates_nothing_per_row();
    scan_path_allocates_nothing_per_row();
    vectorized_filter_allocates_o_chunks_not_o_rows();
    dml_where_stage_allocates_nothing_per_row();
    seek_allocates_nothing_per_row();
    hash_join_allocates_nothing_per_row();
    subquery_runs_allocate_only_their_result();
}
