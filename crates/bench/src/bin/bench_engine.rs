//! Perf-trajectory runner: times the engine benchmark shapes and writes
//! `BENCH_engine.json` so successive PRs can track the execution
//! pipeline's speed over time. Join shapes are additionally timed with
//! the nested loop forced (hash-join speedup), vectorization-dominated
//! shapes with row-at-a-time evaluation forced
//! (`vectorized_vs_row_speedup`), and index-seek shapes,
//! `index_seek_residual` and `dml_by_key` included, with
//! `AccessMode::ScanOnly` forced (`indexed_vs_scan_speedup`).
//!
//! Run with: `cargo run --release -p coddtest-bench --bin bench_engine`
//! (optionally `-- --out <path>`; `-- --quick` shrinks the measurement
//! windows for CI smoke runs, which are about compilation + execution
//! health, not stable numbers; `-- --shapes a,b,c` measures only the
//! named shapes — unknown names are an error, which is what lets CI
//! catch a silently renamed or dropped shape). A measured shape that
//! lacks one of its `GATED_FIELDS` fails the run, naming shape and field.

use std::time::{Duration, Instant};

use coddb::ast::Select;
use coddb::bugs::BugRegistry;
use coddb::recovery::scrub_images;
use coddb::wal::{MediaMode, MediaPlan, StorageMode};
use coddb::{AccessMode, Database, Dialect, EvalMode, JoinMode, StorageSite};
use coddtest::make_oracle;
use coddtest::runner::{run_campaign, run_campaign_parallel, CampaignConfig};
use coddtest_bench::{
    engine_setup as setup, is_indexed_shape, is_join_shape, is_vec_shape, missing_gated_fields,
    CAMPAIGN_PARALLEL_SHAPE, CHECKPOINT_WRITE_SHAPE, DML_BY_KEY_SHAPE, DML_INDEX_MAINTENANCE_SHAPE,
    INDEX_SEEK_RESIDUAL_SHAPE, QUERY_SHAPES, RECOVERY_REPLAY_CHECKPOINTED_SHAPE,
    RECOVERY_REPLAY_SHAPE, SCRUB_THROUGHPUT_SHAPE, WAL_COMMIT_NOSPACE_SHAPE, WAL_COMMIT_SHAPE,
};

/// Worker threads for the `campaign_parallel` shape (the evaluation's
/// reference point: the differential suite proves byte-identical results,
/// this records the wall-clock win).
const CAMPAIGN_THREADS: usize = 4;

struct Windows {
    warmup: Duration,
    window: Duration,
    runs: usize,
}

const FULL: Windows = Windows {
    warmup: Duration::from_millis(60),
    window: Duration::from_millis(120),
    runs: 5,
};

const QUICK: Windows = Windows {
    warmup: Duration::from_millis(5),
    window: Duration::from_millis(15),
    runs: 3,
};

/// Median-of-runs ns/iter of a repeatable query: see [`measure_iters`].
fn measure(db: &mut Database, q: &Select, w: &Windows) -> f64 {
    measure_iters(w, || {
        std::hint::black_box(db.query(q).unwrap());
    })
}

/// Median-of-runs ns/iter of a repeatable unit of work: warm up, then
/// take the median of several fixed-duration measurement windows (robust
/// against scheduler noise).
fn measure_iters(w: &Windows, mut iter: impl FnMut()) -> f64 {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < w.warmup {
        iter();
        warm_iters += 1;
    }
    let per_iter = (w.warmup.as_nanos() as u64 / warm_iters.max(1)).max(1);
    let batch = (200_000 / per_iter).clamp(1, 5_000);

    let mut samples = Vec::with_capacity(w.runs);
    for _ in 0..w.runs {
        let mut iters = 0u64;
        let start = Instant::now();
        while start.elapsed() < w.window {
            for _ in 0..batch {
                iter();
            }
            iters += batch;
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[w.runs / 2]
}

/// Median-of-runs wall clock for a one-shot workload (a whole campaign,
/// not a repeatable query), in nanoseconds.
fn measure_campaign(runs: usize, mut work: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        work();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_engine.json")
        .to_string();
    let quick = args.iter().any(|a| a == "--quick");
    let windows = if quick { QUICK } else { FULL };
    // --shapes a,b,c: measure a subset; unknown names abort (shape-drop
    // guard — a renamed shape must not silently vanish from the output).
    let shape_filter: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--shapes")
        .and_then(|i| args.get(i + 1))
        .map(|csv| csv.split(',').map(|s| s.trim().to_string()).collect());
    if let Some(filter) = &shape_filter {
        let known: Vec<&str> = QUERY_SHAPES
            .iter()
            .chain([&INDEX_SEEK_RESIDUAL_SHAPE])
            .map(|(name, _)| *name)
            .chain([
                CAMPAIGN_PARALLEL_SHAPE,
                WAL_COMMIT_SHAPE,
                RECOVERY_REPLAY_SHAPE,
                CHECKPOINT_WRITE_SHAPE,
                RECOVERY_REPLAY_CHECKPOINTED_SHAPE,
                DML_INDEX_MAINTENANCE_SHAPE,
                DML_BY_KEY_SHAPE,
                SCRUB_THROUGHPUT_SHAPE,
                WAL_COMMIT_NOSPACE_SHAPE,
            ])
            .collect();
        for want in filter {
            if !known.iter().any(|name| name == want) {
                eprintln!(
                    "bench_engine: unknown shape in --shapes: {want}\navailable shapes: {}",
                    known.join(", ")
                );
                std::process::exit(1);
            }
        }
    }

    let mut entries = Vec::new();
    for (name, sql) in QUERY_SHAPES.iter().chain([&INDEX_SEEK_RESIDUAL_SHAPE]) {
        if let Some(filter) = &shape_filter {
            if !filter.iter().any(|f| f == name) {
                continue;
            }
        }
        let q = coddb::parser::parse_select(sql).unwrap();

        let mut bound_db = setup();
        let bound_ns = measure(&mut bound_db, &q, &windows);

        let mut extra = String::new();
        let mut extra_log = String::new();
        if is_join_shape(name) {
            // The forced nested loop isolates the hash join's
            // contribution.
            let mut nested_db = setup();
            nested_db.set_join_mode(JoinMode::NestedLoop);
            let nested_ns = measure(&mut nested_db, &q, &windows);
            let hash_speedup = nested_ns / bound_ns;
            extra.push_str(&format!(
                ",\n      \"bound_nested_loop_ns_per_iter\": {nested_ns:.0},\n      \"hash_vs_nested_speedup\": {hash_speedup:.2}"
            ));
            extra_log.push_str(&format!(
                "   nested {nested_ns:>12.0} ns/iter   hash speedup {hash_speedup:>5.2}x"
            ));
        }
        if is_indexed_shape(name) {
            // The ScanOnly baseline isolates the index access path's
            // contribution: same bind-once machinery, seeks forced back
            // to full scans (plus the un-eliminated sort where the seek
            // order satisfied ORDER BY).
            let mut scan_db = setup();
            scan_db.set_access_mode(AccessMode::ScanOnly);
            let scan_ns = measure(&mut scan_db, &q, &windows);
            let idx_speedup = scan_ns / bound_ns;
            extra.push_str(&format!(
                ",\n      \"scan_ns_per_iter\": {scan_ns:.0},\n      \"indexed_vs_scan_speedup\": {idx_speedup:.2}"
            ));
            extra_log.push_str(&format!(
                "   scan-only {scan_ns:>12.0} ns/iter   seek speedup {idx_speedup:>5.2}x"
            ));
        }
        if is_vec_shape(name) {
            // The row-at-a-time interpreter isolates the chunked
            // evaluator's contribution on otherwise identical machinery.
            let mut row_db = setup();
            row_db.set_eval_mode(EvalMode::RowAtATime);
            let row_ns = measure(&mut row_db, &q, &windows);
            let vec_speedup = row_ns / bound_ns;
            extra.push_str(&format!(
                ",\n      \"row_eval_ns_per_iter\": {row_ns:.0},\n      \"vectorized_vs_row_speedup\": {vec_speedup:.2}"
            ));
            extra_log.push_str(&format!(
                "   row-eval {row_ns:>12.0} ns/iter   vec speedup {vec_speedup:>5.2}x"
            ));
        }
        println!("{name:<24} bound {bound_ns:>12.0} ns/iter{extra_log}");
        entries.push(format!(
            "    {:?}: {{\n      \"bound_ns_per_iter\": {:.0}{}\n    }}",
            name, bound_ns, extra
        ));
    }

    // campaign_parallel: whole-campaign wall clock, sequential runner vs
    // the 4-thread parallel runner (same oracle, same seed — the
    // differential suite proves the results byte-identical, so this is a
    // pure scheduling measurement). Speedup tracks available cores: a
    // single-core runner records ~1.0x, which is why the core count is
    // part of the record.
    let run_campaign_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == CAMPAIGN_PARALLEL_SHAPE));
    if run_campaign_shape {
        let cfg = CampaignConfig {
            tests: if quick { 120 } else { 600 },
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let runs = windows.runs;
        let serial_ns = measure_campaign(runs, || {
            let mut oracle = make_oracle("codd").unwrap();
            std::hint::black_box(run_campaign(oracle.as_mut(), &cfg));
        });
        let parallel_ns = measure_campaign(runs, || {
            std::hint::black_box(run_campaign_parallel("codd", &cfg, CAMPAIGN_THREADS).unwrap());
        });
        let speedup = serial_ns / parallel_ns;
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        println!(
            "{CAMPAIGN_PARALLEL_SHAPE:<24} serial {serial_ns:>12.0} ns/iter   parallel {parallel_ns:>12.0} ns/iter   speedup {speedup:>5.2}x ({CAMPAIGN_THREADS} threads, {cores} core(s))"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"serial_ns_per_iter\": {:.0},\n      \"parallel_ns_per_iter\": {:.0},\n      \"parallel_vs_serial_speedup\": {:.2},\n      \"threads\": {},\n      \"cores\": {}\n    }}",
            CAMPAIGN_PARALLEL_SHAPE, serial_ns, parallel_ns, speedup, CAMPAIGN_THREADS, cores
        ));
    }

    // wal_commit: per-statement cost of durable execution (encode + frame +
    // append + commit marker) against the identical volatile run — the
    // storage layer's logging overhead, isolated from query execution.
    let run_wal_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == WAL_COMMIT_SHAPE));
    if run_wal_shape {
        let dml = coddb::parser::parse_statements(
            "INSERT INTO w VALUES (1, 'x'), (2, 'y'), (3, 'z');
             UPDATE w SET b = 'z' WHERE a >= 2;
             DELETE FROM w WHERE a < 10",
        )
        .unwrap();
        let batch = if quick { 300 } else { 3_000 };
        let total_stmts = (batch * dml.len()) as f64;
        let run_mode = |mode: StorageMode| {
            measure_campaign(windows.runs, || {
                let mut db = Database::new(Dialect::Sqlite);
                db.execute_sql("CREATE TABLE w (a INT, b TEXT)").unwrap();
                db.set_storage_mode(mode);
                for _ in 0..batch {
                    for s in &dml {
                        std::hint::black_box(db.execute(s).unwrap());
                    }
                }
            }) / total_stmts
        };
        let durable_ns = run_mode(StorageMode::Durable);
        let volatile_ns = run_mode(StorageMode::Volatile);
        let overhead = durable_ns / volatile_ns;
        println!(
            "{WAL_COMMIT_SHAPE:<24} durable {durable_ns:>12.0} ns/iter   volatile {volatile_ns:>12.0} ns/iter   overhead {overhead:>5.2}x"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"wal_commit_ns_per_iter\": {:.0},\n      \"volatile_ns_per_iter\": {:.0},\n      \"durable_overhead\": {:.2}\n    }}",
            WAL_COMMIT_SHAPE, durable_ns, volatile_ns, overhead
        ));
    }

    // dml_index_maintenance: the identical INSERT/UPDATE/DELETE batch
    // against an indexed and an unindexed copy of one table — the
    // write-side price of keeping the ordered index layer current,
    // recorded per statement like the WAL overhead above. The DELETE's
    // WHERE clause would seek on the indexed copy: both copies scan, so
    // the ratio prices maintenance alone.
    let run_dml_index_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == DML_INDEX_MAINTENANCE_SHAPE));
    if run_dml_index_shape {
        let dml = coddb::parser::parse_statements(
            "INSERT INTO m VALUES (1, 'x'), (52, 'y'), (103, 'z');
             UPDATE m SET k = k + 1 WHERE k % 3 = 0;
             DELETE FROM m WHERE k > 190",
        )
        .unwrap();
        let batch = if quick { 100 } else { 1_000 };
        let total_stmts = (batch * dml.len()) as f64;
        let run_table = |with_index: bool| {
            measure_campaign(windows.runs, || {
                let mut db = Database::new(Dialect::Sqlite);
                db.set_access_mode(AccessMode::ScanOnly);
                db.execute_sql("CREATE TABLE m (k INT, v TEXT)").unwrap();
                if with_index {
                    db.execute_sql("CREATE INDEX im ON m (k)").unwrap();
                }
                let seed_rows: Vec<String> =
                    (0..200).map(|i| format!("({i}, 'seed{i}')")).collect();
                db.execute_sql(&format!("INSERT INTO m VALUES {}", seed_rows.join(",")))
                    .unwrap();
                for _ in 0..batch {
                    for s in &dml {
                        std::hint::black_box(db.execute(s).unwrap());
                    }
                }
            }) / total_stmts
        };
        let indexed_ns = run_table(true);
        let unindexed_ns = run_table(false);
        let overhead = indexed_ns / unindexed_ns;
        println!(
            "{DML_INDEX_MAINTENANCE_SHAPE:<24} indexed {indexed_ns:>12.0} ns/iter   unindexed {unindexed_ns:>12.0} ns/iter   overhead {overhead:>5.2}x"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"indexed_dml_ns_per_iter\": {:.0},\n      \"unindexed_dml_ns_per_iter\": {:.0},\n      \"index_maintenance_overhead\": {:.2}\n    }}",
            DML_INDEX_MAINTENANCE_SHAPE, indexed_ns, unindexed_ns, overhead
        ));
    }

    // dml_by_key: an UPDATE and a DELETE by key on the 3000-row indexed
    // t6, per statement. The WHERE clause takes the index seek; the
    // ScanOnly twin filters every row. The UPDATE rewrites one row to the
    // same value and the DELETE matches nothing, so every iteration sees
    // the same table.
    let run_dml_by_key_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == DML_BY_KEY_SHAPE));
    if run_dml_by_key_shape {
        let dml = coddb::parser::parse_statements(
            "UPDATE t6 SET v = 'u' WHERE k = 1234;
             DELETE FROM t6 WHERE k = -1",
        )
        .unwrap();
        let run_mode = |mode: AccessMode| {
            let mut db = setup();
            db.set_access_mode(mode);
            measure_iters(&windows, || {
                for s in &dml {
                    std::hint::black_box(db.execute(s).unwrap());
                }
            }) / dml.len() as f64
        };
        let bound_ns = run_mode(AccessMode::Indexed);
        let scan_ns = run_mode(AccessMode::ScanOnly);
        let speedup = scan_ns / bound_ns;
        println!(
            "{DML_BY_KEY_SHAPE:<24} bound {bound_ns:>12.0} ns/iter   scan-only {scan_ns:>12.0} ns/iter   seek speedup {speedup:>5.2}x"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"bound_ns_per_iter\": {:.0},\n      \"scan_ns_per_iter\": {:.0},\n      \"indexed_vs_scan_speedup\": {:.2}\n    }}",
            DML_BY_KEY_SHAPE, bound_ns, scan_ns, speedup
        ));
    }

    // recovery_replay: scan + replay of a fixed durable log image into a
    // fresh engine — the crash-recovery path the differential oracle
    // exercises, timed end to end.
    let run_recovery_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == RECOVERY_REPLAY_SHAPE));
    // The shared churn workload for the replay shapes: 120 iterations of
    // INSERT/UPDATE/DELETE traffic, optionally checkpointed late in the
    // history so the log holds only a short suffix past the snapshot.
    let build_churn = |checkpoint_at: Option<usize>| {
        let mut db = Database::new(Dialect::Sqlite);
        db.set_storage_mode(StorageMode::Durable);
        db.execute_sql("CREATE TABLE r0 (a INT, b TEXT); CREATE TABLE r1 (a INT)")
            .unwrap();
        for i in 0..120 {
            db.execute_sql(&format!(
                "INSERT INTO r0 VALUES ({i}, 'row{i}'), ({}, 'alt{i}');
                 INSERT INTO r1 VALUES ({});
                 UPDATE r0 SET b = 'u{i}' WHERE a = {i};
                 DELETE FROM r1 WHERE a < {}",
                i + 1000,
                i * 3,
                i * 3 - 30
            ))
            .unwrap();
            if checkpoint_at == Some(i) {
                db.checkpoint().unwrap();
            }
        }
        db
    };
    if run_recovery_shape {
        let db = build_churn(None);
        let image = db.wal().expect("durable").image().to_vec();
        let batch = if quick { 10 } else { 60 };
        let replay_ns = measure_campaign(windows.runs, || {
            for _ in 0..batch {
                std::hint::black_box(
                    coddb::recovery::recover(&image, &[], Dialect::Sqlite, &BugRegistry::none())
                        .unwrap(),
                );
            }
        }) / batch as f64;
        println!(
            "{RECOVERY_REPLAY_SHAPE:<24} replay {replay_ns:>12.0} ns/iter   image {} bytes",
            image.len()
        );
        entries.push(format!(
            "    {:?}: {{\n      \"recovery_replay_ns_per_iter\": {:.0},\n      \"image_bytes\": {}\n    }}",
            RECOVERY_REPLAY_SHAPE,
            replay_ns,
            image.len()
        ));
    }

    // checkpoint_write: full cost of one Database::checkpoint() over the
    // churned catalog — snapshot serialization + seal + marker + log
    // truncation — with the size of a single snapshot recorded.
    let run_ckpt_write_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == CHECKPOINT_WRITE_SHAPE));
    if run_ckpt_write_shape {
        let mut once = build_churn(None);
        once.checkpoint().unwrap();
        let snapshot_bytes = once.wal().expect("durable").snapshot_image().len();
        let mut db = build_churn(None);
        let batch = if quick { 5 } else { 30 };
        let ckpt_ns = measure_campaign(windows.runs, || {
            for _ in 0..batch {
                std::hint::black_box(db.checkpoint().unwrap());
            }
        }) / batch as f64;
        println!(
            "{CHECKPOINT_WRITE_SHAPE:<24} checkpoint {ckpt_ns:>8.0} ns/iter   snapshot {snapshot_bytes} bytes"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"checkpoint_write_ns_per_iter\": {:.0},\n      \"snapshot_bytes\": {}\n    }}",
            CHECKPOINT_WRITE_SHAPE, ckpt_ns, snapshot_bytes
        ));
    }

    // recovery_replay_checkpointed: snapshot + log-suffix recovery of the
    // same churn workload, checkpointed late in the history, against the
    // genesis replay of the identical un-checkpointed history — the
    // wall-clock case for checkpointing at all.
    let run_ckpt_replay_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == RECOVERY_REPLAY_CHECKPOINTED_SHAPE));
    if run_ckpt_replay_shape {
        let genesis_db = build_churn(None);
        let genesis_image = genesis_db.wal().expect("durable").image().to_vec();
        let ckpt_db = build_churn(Some(110));
        let wal = ckpt_db.wal().expect("durable");
        let (log_image, snap_image) = (wal.image().to_vec(), wal.snapshot_image().to_vec());
        let batch = if quick { 10 } else { 60 };
        let genesis_ns = measure_campaign(windows.runs, || {
            for _ in 0..batch {
                std::hint::black_box(
                    coddb::recovery::recover(
                        &genesis_image,
                        &[],
                        Dialect::Sqlite,
                        &BugRegistry::none(),
                    )
                    .unwrap(),
                );
            }
        }) / batch as f64;
        let ckpt_ns = measure_campaign(windows.runs, || {
            for _ in 0..batch {
                std::hint::black_box(
                    coddb::recovery::recover(
                        &log_image,
                        &snap_image,
                        Dialect::Sqlite,
                        &BugRegistry::none(),
                    )
                    .unwrap(),
                );
            }
        }) / batch as f64;
        let speedup = genesis_ns / ckpt_ns;
        println!(
            "{RECOVERY_REPLAY_CHECKPOINTED_SHAPE:<24} ckpt {ckpt_ns:>8.0} ns/iter   genesis {genesis_ns:>8.0} ns/iter   speedup {speedup:>5.2}x"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"recovery_replay_checkpointed_ns_per_iter\": {:.0},\n      \"genesis_replay_ns_per_iter\": {:.0},\n      \"checkpointed_vs_genesis_speedup\": {:.2},\n      \"suffix_bytes\": {},\n      \"snapshot_bytes\": {}\n    }}",
            RECOVERY_REPLAY_CHECKPOINTED_SHAPE,
            ckpt_ns,
            genesis_ns,
            speedup,
            log_image.len(),
            snap_image.len()
        ));
    }

    // scrub_throughput: a full offline integrity pass (frame walk +
    // checksum verification + snapshot-seal structure check) over the
    // checkpointed churn images — the cost of asking "is this disk
    // lying to me", per pass, with the scanned byte count recorded.
    let run_scrub_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == SCRUB_THROUGHPUT_SHAPE));
    if run_scrub_shape {
        let db = build_churn(Some(110));
        let wal = db.wal().expect("durable");
        let (log_image, snap_image) = (wal.image().to_vec(), wal.snapshot_image().to_vec());
        let scrub_bytes = log_image.len() + snap_image.len();
        let batch = if quick { 10 } else { 60 };
        let scrub_ns = measure_campaign(windows.runs, || {
            for _ in 0..batch {
                let report = scrub_images(&log_image, &snap_image, &BugRegistry::none());
                assert!(report.clean(), "churn images must scrub clean");
                std::hint::black_box(report);
            }
        }) / batch as f64;
        println!(
            "{SCRUB_THROUGHPUT_SHAPE:<24} scrub {scrub_ns:>12.0} ns/iter   {scrub_bytes} bytes"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"scrub_ns_per_iter\": {:.0},\n      \"scrub_bytes\": {}\n    }}",
            SCRUB_THROUGHPUT_SHAPE, scrub_ns, scrub_bytes
        ));
    }

    // wal_commit_nospace: the clean-abort path of a statement hitting a
    // full disk (append refused, catalog state rolled back, session still
    // serving) against the identical statement committing unconstrained —
    // graceful degradation must not cost more than the commit it refuses.
    let run_nospace_shape = shape_filter
        .as_ref()
        .is_none_or(|f| f.iter().any(|s| s == WAL_COMMIT_NOSPACE_SHAPE));
    if run_nospace_shape {
        let ins =
            &coddb::parser::parse_statements("INSERT INTO w VALUES (1, 'x'), (2, 'y'), (3, 'z')")
                .unwrap()[0];
        let batch = if quick { 300 } else { 3_000 };
        let unlimited_ns = measure_campaign(windows.runs, || {
            let mut db = Database::new(Dialect::Sqlite);
            db.execute_sql("CREATE TABLE w (a INT, b TEXT)").unwrap();
            db.set_storage_mode(StorageMode::Durable);
            for _ in 0..batch {
                std::hint::black_box(db.execute(ins).unwrap());
            }
        }) / batch as f64;
        let nospace_ns = measure_campaign(windows.runs, || {
            let mut db = Database::new(Dialect::Sqlite);
            db.execute_sql("CREATE TABLE w (a INT, b TEXT)").unwrap();
            db.set_storage_mode(StorageMode::Durable);
            let full = db.wal().expect("durable").ops();
            db.set_media_plan(MediaPlan {
                site: StorageSite::Log,
                mode: MediaMode::NoSpace { at_op: full },
            });
            for _ in 0..batch {
                std::hint::black_box(db.execute(ins).unwrap_err());
            }
        }) / batch as f64;
        let overhead = nospace_ns / unlimited_ns;
        println!(
            "{WAL_COMMIT_NOSPACE_SHAPE:<24} abort {nospace_ns:>12.0} ns/iter   unlimited {unlimited_ns:>12.0} ns/iter   overhead {overhead:>5.2}x"
        );
        entries.push(format!(
            "    {:?}: {{\n      \"nospace_abort_ns_per_iter\": {:.0},\n      \"unlimited_ns_per_iter\": {:.0},\n      \"abort_overhead\": {:.2}\n    }}",
            WAL_COMMIT_NOSPACE_SHAPE, nospace_ns, unlimited_ns, overhead
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"engine_exec\",\n  \"unit\": \"ns/iter\",\n  \"shapes\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    // A renamed or dropped gated field fails the run instead of silently
    // leaving the trajectory.
    let missing = missing_gated_fields(&json);
    for (shape, field) in &missing {
        eprintln!("bench_engine: {shape} output is missing {field}");
    }
    if !missing.is_empty() {
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
