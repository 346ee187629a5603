//! Shared helpers for the table/figure harness binaries.
//!
//! Each binary regenerates one artefact of the paper's evaluation section
//! and prints the measured values next to the paper's reported numbers,
//! where the paper has them. `bench_engine` records the engine perf
//! trajectory (`BENCH_engine.json`) from the shapes defined here.

use coddb::{Database, Dialect};

/// The engine benchmark query shapes, shared by the `bench_engine` runner
/// that records the checked-in perf trajectory (`BENCH_engine.json`) and
/// the `durable-sql` benchmark workload — one definition so the
/// trajectory stays comparable across PRs.
pub const QUERY_SHAPES: &[(&str, &str)] = &[
    (
        "seq_filter",
        "SELECT COUNT(*) FROM t0 WHERE c0 % 3 = 1 AND c2 > 10.0",
    ),
    ("index_probe", "SELECT COUNT(*) FROM t0 WHERE c0 > 150"),
    (
        "join",
        "SELECT COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0",
    ),
    (
        "group_agg",
        "SELECT c0 % 7, COUNT(*), AVG(c2) FROM t0 GROUP BY c0 % 7",
    ),
    (
        "subquery_correlated",
        "SELECT COUNT(*) FROM t1 WHERE t1.c0 < \
         (SELECT AVG(t0.c0) FROM t0 WHERE t0.c0 = t1.c0)",
    ),
    (
        "subquery_noncorrelated",
        "SELECT COUNT(*) FROM t0 WHERE c0 IN (SELECT c0 FROM t1 WHERE c0 > 5)",
    ),
    (
        "subquery_cached",
        "SELECT COUNT(*) FROM t0 WHERE c2 < (SELECT AVG(c0) FROM t1) \
         AND c0 <> (SELECT MAX(c0) FROM t1)",
    ),
    (
        "set_op",
        "SELECT c0 FROM t0 WHERE c0 < 30 UNION SELECT c0 FROM t1",
    ),
    (
        "join_large",
        "SELECT COUNT(*) FROM t2 INNER JOIN t3 ON t2.c0 = t3.c0",
    ),
    // Wide rows: before shared rows, every scanned row deep-cloned 10
    // values (two of them TEXT) into the pipeline per query.
    (
        "seq_filter_wide",
        "SELECT COUNT(*) FROM t4 WHERE c0 % 3 = 1 AND c9 > 10.0",
    ),
    // Few distinct outer keys: the keyed subquery memo executes the
    // correlated subquery once per key (6), not once per outer row (240).
    (
        "subquery_correlated_lowcard",
        "SELECT COUNT(*) FROM t5 WHERE t5.v < (SELECT AVG(t0.c0) FROM t0 WHERE t0.c0 % 6 = t5.grp)",
    ),
    // Highly selective predicate: the vectorized AND evaluates its right
    // arm over a thin selection vector (~4 of 200 lanes).
    (
        "seq_filter_selective",
        "SELECT COUNT(*) FROM t0 WHERE c0 % 50 = 7 AND c2 > 10.0",
    ),
    // Wide grouped aggregation: five aggregates over the 10-column table,
    // exercising batched aggregate-argument evaluation per slot.
    (
        "group_agg_wide",
        "SELECT c0 % 5, COUNT(*), AVG(c2), SUM(c3), MIN(c8), MAX(c9) \
         FROM t4 GROUP BY c0 % 5",
    ),
    // Selective range over the 3000-row indexed table: the seek emits
    // ~40 postings (the consumed conjunct alone bounds the key range)
    // where the ScanOnly baseline filters all 3000 rows.
    ("index_range_scan", "SELECT COUNT(*) FROM t6 WHERE k < 40"),
    // Ordered seek with sort elimination: the index emits the tail of the
    // key range already ordered, so the LIMIT sees presorted rows; the
    // ScanOnly baseline scans, filters, and sorts before limiting.
    (
        "order_by_indexed",
        "SELECT * FROM t6 WHERE k > 2980 ORDER BY k LIMIT 10",
    ),
];

/// The campaign-runner shape: `bench_engine` times a whole `codd` campaign
/// through `run_campaign` vs `run_campaign_parallel` and records
/// `parallel_vs_serial_speedup` (plus the thread and core counts — the
/// speedup is core-bound) in `BENCH_engine.json`. Not a SQL shape, so it
/// lives outside [`QUERY_SHAPES`].
pub const CAMPAIGN_PARALLEL_SHAPE: &str = "campaign_parallel";

/// The durable-storage shapes: `bench_engine` times per-statement WAL
/// commit overhead (`wal_commit_ns_per_iter`, against a volatile baseline)
/// and full log replay (`recovery_replay_ns_per_iter`) so the storage
/// layer's cost rides the same checked-in trajectory as the query shapes.
/// Not SQL shapes, so they live outside [`QUERY_SHAPES`].
pub const WAL_COMMIT_SHAPE: &str = "wal_commit";
pub const RECOVERY_REPLAY_SHAPE: &str = "recovery_replay";

/// The checkpoint shapes: `bench_engine` times a full
/// [`coddb::Database::checkpoint`] over a populated catalog
/// (`checkpoint_write_ns_per_iter`, with the snapshot size recorded) and
/// snapshot+suffix recovery against full genesis replay of the same
/// workload (`recovery_replay_checkpointed_ns_per_iter`, with the
/// `checkpointed_vs_genesis_speedup` that justifies checkpointing at
/// all). Not SQL shapes, so they live outside [`QUERY_SHAPES`].
pub const CHECKPOINT_WRITE_SHAPE: &str = "checkpoint_write";
pub const RECOVERY_REPLAY_CHECKPOINTED_SHAPE: &str = "recovery_replay_checkpointed";

/// The media-fault shapes: `bench_engine` times a full
/// [`coddb::recovery::scrub_images`] pass over a checkpointed log +
/// snapshot pair (`scrub_ns_per_iter`, with the scanned byte count as
/// `scrub_bytes`) and the clean-abort path of a statement hitting a full
/// disk (`nospace_abort_ns_per_iter`, against the unconstrained commit as
/// `unlimited_ns_per_iter`, ratio recorded as `abort_overhead`). Not SQL
/// shapes, so they live outside [`QUERY_SHAPES`].
pub const SCRUB_THROUGHPUT_SHAPE: &str = "scrub_throughput";
pub const WAL_COMMIT_NOSPACE_SHAPE: &str = "wal_commit_nospace";

/// The index-maintenance shape: `bench_engine` times the same DML batch
/// against an indexed and an unindexed copy of one table and records the
/// per-statement `index_maintenance_overhead` — the write-side price of
/// the ordered index layer, riding the same trajectory as the read-side
/// seek speedups. Both copies run under [`coddb::AccessMode::ScanOnly`],
/// so a WHERE clause the index could seek does not mix a read-side saving
/// into the ratio. Not a SQL shape, so it lives outside [`QUERY_SHAPES`].
pub const DML_INDEX_MAINTENANCE_SHAPE: &str = "dml_index_maintenance";

/// The DML-by-key shape: `bench_engine` times an UPDATE and a DELETE by
/// key on the 3000-row indexed `t6` of [`engine_setup`], per statement,
/// through the index seek their WHERE clauses take (`bound_ns_per_iter`)
/// and with [`coddb::AccessMode::ScanOnly`] forced (`scan_ns_per_iter`),
/// and records `indexed_vs_scan_speedup`. Not a SELECT, so it lives
/// outside [`QUERY_SHAPES`].
pub const DML_BY_KEY_SHAPE: &str = "dml_by_key";

/// The residual-seek shape: a range seek on the 3000-row indexed `t6` of
/// [`engine_setup`] with a residual conjunct, so its WHERE stage takes
/// the seek's storage-ordered path (runs of emitted rows between the
/// skipped classes' representatives), where every indexed shape of
/// [`QUERY_SHAPES`] takes the one-deduction path. `bench_engine` times it
/// as it times those shapes, as planned and with
/// [`coddb::AccessMode::ScanOnly`] forced, and records
/// `indexed_vs_scan_speedup`. It lives outside [`QUERY_SHAPES`], which
/// also sets the `durable-sql` benchmark's read mix.
pub const INDEX_SEEK_RESIDUAL_SHAPE: (&str, &str) = (
    "index_seek_residual",
    "SELECT COUNT(*) FROM t6 WHERE k < 300 AND v <> 'v7'",
);

/// The trajectory fields a measurement must record, one (shape, field)
/// row per acceptance metric: parallel runner, chunk eval, hash join, WAL
/// and recovery, checkpoints, ordered-index seeks (SELECT and DML), index
/// maintenance, scrub and the disk-full abort. `bench_engine` fails when
/// a shape it measured lacks its row's field ([`missing_gated_fields`]),
/// and the `coddtest-analyze` bench lint requires every `*_speedup` /
/// `*_overhead` field of `BENCH_engine.json` to have a row here.
pub const GATED_FIELDS: &[(&str, &str)] = &[
    (CAMPAIGN_PARALLEL_SHAPE, "parallel_vs_serial_speedup"),
    ("seq_filter", "vectorized_vs_row_speedup"),
    ("join", "hash_vs_nested_speedup"),
    (WAL_COMMIT_SHAPE, "wal_commit_ns_per_iter"),
    (WAL_COMMIT_SHAPE, "durable_overhead"),
    (RECOVERY_REPLAY_SHAPE, "recovery_replay_ns_per_iter"),
    (CHECKPOINT_WRITE_SHAPE, "checkpoint_write_ns_per_iter"),
    (
        RECOVERY_REPLAY_CHECKPOINTED_SHAPE,
        "recovery_replay_checkpointed_ns_per_iter",
    ),
    (
        RECOVERY_REPLAY_CHECKPOINTED_SHAPE,
        "checkpointed_vs_genesis_speedup",
    ),
    ("index_probe", "indexed_vs_scan_speedup"),
    ("index_range_scan", "indexed_vs_scan_speedup"),
    ("order_by_indexed", "indexed_vs_scan_speedup"),
    (INDEX_SEEK_RESIDUAL_SHAPE.0, "indexed_vs_scan_speedup"),
    (DML_INDEX_MAINTENANCE_SHAPE, "index_maintenance_overhead"),
    (DML_BY_KEY_SHAPE, "indexed_vs_scan_speedup"),
    (SCRUB_THROUGHPUT_SHAPE, "scrub_ns_per_iter"),
    (WAL_COMMIT_NOSPACE_SHAPE, "abort_overhead"),
];

/// The [`GATED_FIELDS`] rows a `bench_engine` JSON output breaks: the
/// shape was measured (its object is present) but lacks the field.
pub fn missing_gated_fields(json: &str) -> Vec<(&'static str, &'static str)> {
    GATED_FIELDS
        .iter()
        .copied()
        .filter(|(shape, field)| {
            json.find(&format!("\"{shape}\": {{")).is_some_and(|at| {
                let object = &json[at..];
                let object = &object[..object.find('}').unwrap_or(object.len())];
                !object.contains(&format!("\"{field}\":"))
            })
        })
        .collect()
}

/// Shapes whose dominant operator is a join — `bench_engine` additionally
/// times these with [`coddb::JoinMode::NestedLoop`] forced, recording the
/// hash-join speedup over the bound nested loop.
pub fn is_join_shape(name: &str) -> bool {
    name.starts_with("join")
}

/// Shapes whose access path is an index seek — `bench_engine`
/// additionally times these with [`coddb::AccessMode::ScanOnly`] forced,
/// recording `scan_ns_per_iter` and the `indexed_vs_scan_speedup` of the
/// planner-selected seek over the full-scan pipeline (for
/// `order_by_indexed` that includes the eliminated sort).
pub fn is_indexed_shape(name: &str) -> bool {
    name == INDEX_SEEK_RESIDUAL_SHAPE.0
        || matches!(
            name,
            "index_probe" | "index_range_scan" | "order_by_indexed"
        )
}

/// Shapes dominated by vectorizable clause evaluation — `bench_engine`
/// additionally times these with [`coddb::EvalMode::RowAtATime`] forced,
/// recording the chunked evaluator's speedup over the row-at-a-time
/// interpreter on otherwise identical machinery.
pub fn is_vec_shape(name: &str) -> bool {
    matches!(
        name,
        "seq_filter" | "seq_filter_selective" | "seq_filter_wide" | "group_agg" | "group_agg_wide"
    )
}

/// The database state the engine benchmark shapes run against.
pub fn engine_setup() -> Database {
    let mut db = Database::new(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t0 (c0 INT, c1 TEXT, c2 REAL)")
        .unwrap();
    db.execute_sql("CREATE TABLE t1 (c0 INT, c1 TEXT)").unwrap();
    db.execute_sql("CREATE INDEX i0 ON t0 (c0)").unwrap();
    for chunk in 0..4 {
        let rows: Vec<String> = (0..50)
            .map(|i| {
                let v = chunk * 50 + i;
                format!("({v}, 'r{v}', {v}.5)")
            })
            .collect();
        db.execute_sql(&format!("INSERT INTO t0 VALUES {}", rows.join(",")))
            .unwrap();
    }
    let rows: Vec<String> = (0..40).map(|i| format!("({i}, 'x{i}')")).collect();
    db.execute_sql(&format!("INSERT INTO t1 VALUES {}", rows.join(",")))
        .unwrap();
    // Scaled build/probe sides for the `join_large` shape: 600 x 400 rows
    // (240k probed pairs for the nested loop), with duplicate keys and a
    // sprinkling of NULL keys to exercise the hash join's chaining and
    // NULL-never-matches paths.
    db.execute_sql("CREATE TABLE t2 (c0 INT); CREATE TABLE t3 (c0 INT)")
        .unwrap();
    for chunk in 0..6 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let v = chunk * 100 + i;
                if v % 97 == 0 {
                    "(NULL)".to_string()
                } else {
                    format!("({})", v % 500)
                }
            })
            .collect();
        db.execute_sql(&format!("INSERT INTO t2 VALUES {}", rows.join(",")))
            .unwrap();
    }
    for chunk in 0..4 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let v = chunk * 100 + i;
                if v % 89 == 0 {
                    "(NULL)".to_string()
                } else {
                    format!("({v})")
                }
            })
            .collect();
        db.execute_sql(&format!("INSERT INTO t3 VALUES {}", rows.join(",")))
            .unwrap();
    }
    // Wide table for the `seq_filter_wide` shape: 10 columns (TEXT among
    // them), 300 rows — per-row cloning cost scales with row width, row
    // sharing does not.
    db.execute_sql(
        "CREATE TABLE t4 (c0 INT, c1 TEXT, c2 REAL, c3 INT, c4 TEXT, \
         c5 REAL, c6 INT, c7 INT, c8 REAL, c9 REAL)",
    )
    .unwrap();
    for chunk in 0..3 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let v = chunk * 100 + i;
                format!(
                    "({v}, 'name{v}', {v}.25, {}, 'tag{}', {}.5, {}, {}, {}.75, {v}.5)",
                    v * 2,
                    v % 17,
                    v % 7,
                    v % 3,
                    v + 1,
                    v % 13
                )
            })
            .collect();
        db.execute_sql(&format!("INSERT INTO t4 VALUES {}", rows.join(",")))
            .unwrap();
    }
    // Low-cardinality correlated outer for `subquery_correlated_lowcard`:
    // 240 rows over 6 distinct grouping keys.
    db.execute_sql("CREATE TABLE t5 (grp INT, v INT)").unwrap();
    for chunk in 0..2 {
        let rows: Vec<String> = (0..120)
            .map(|i| {
                let v = chunk * 120 + i;
                format!("({}, {})", v % 6, v % 150)
            })
            .collect();
        db.execute_sql(&format!("INSERT INTO t5 VALUES {}", rows.join(",")))
            .unwrap();
    }
    // Larger indexed table for the seek shapes: 3000 distinct keys, so a
    // selective range probe touches ~1% of what the full scan filters.
    db.execute_sql("CREATE TABLE t6 (k INT, v TEXT)").unwrap();
    db.execute_sql("CREATE INDEX i6 ON t6 (k)").unwrap();
    for chunk in 0..30 {
        let rows: Vec<String> = (0..100)
            .map(|i| {
                let v = chunk * 100 + i;
                format!("({v}, 'v{v}')")
            })
            .collect();
        db.execute_sql(&format!("INSERT INTO t6 VALUES {}", rows.join(",")))
            .unwrap();
    }
    db
}

/// Parse `--budget N` / first positional integer from argv, with default.
pub fn arg_budget(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--budget" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    args.get(1).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Parse `--seed N` from argv, with default.
pub fn arg_seed(default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--seed" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    default
}

/// Render a simple aligned table.
pub struct Table {
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format a large count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(2086646), "2,086,646");
    }

    #[test]
    fn gated_fields_apply_to_measured_shapes_only() {
        let json = r#"{
  "shapes": {
    "seq_filter": {
      "bound_ns_per_iter": 5
    },
    "join": {
      "hash_vs_nested_speedup": 2.0
    },
    "join_large": {
      "bound_ns_per_iter": 9
    }
  }
}"#;
        assert_eq!(
            missing_gated_fields(json),
            vec![("seq_filter", "vectorized_vs_row_speedup")]
        );
    }

    #[test]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }
}
