//! Durable-storage integration: the exhaustive crash-point grid.
//!
//! For every operation index the `FaultPlan` can name over a
//! DML-interleaved script — and every fault mode at that index, under
//! every checkpoint schedule — the recovered database must be
//! byte-identical to a never-crashed engine that executed only the
//! committed prefix, recovering from the newest durable snapshot (not
//! genesis) whenever one survives. The grid runs under all five dialect
//! profiles, and every recovery-path mutant must produce at least one
//! divergence somewhere in the same grid.

use coddb::bugs::{BugRegistry, MediaBugId};
use coddb::error::StorageSite;
use coddb::recovery::{recover_detailed, recovery_divergence};
use coddb::wal::{FaultMode, FaultPlan, MediaMode, MediaPlan, StorageMode, READ_RETRY_CAP};
use coddb::{ast::Statement, AccessMode, Database, Dialect, RecoveryBugId};

/// Checkpoint schedules the grid sweeps: one mid-script checkpoint, and
/// two checkpoints bracketing most of the DML. (The empty schedule is the
/// original genesis grid, kept as its own test.)
const SCHEDULES: [&[usize]; 2] = [&[3], &[0, 6]];

/// Dialect-neutral script interleaving DDL with multi-row DML, including
/// a zero-row DELETE (commit marker with no effect record) and a DROP.
const SCRIPT: &str = "
    CREATE TABLE t0 (c0 INT, c1 TEXT);
    INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (3, 'c');
    CREATE TABLE t1 (c0 INT NOT NULL);
    INSERT INTO t1 SELECT c0 FROM t0 WHERE c0 > 1;
    CREATE INDEX i0 ON t0 (c0 > 1);
    UPDATE t0 SET c1 = 'z' WHERE c0 >= 2;
    DELETE FROM t0 WHERE c0 = 2;
    CREATE VIEW v0 (n) AS SELECT COUNT(*) FROM t0;
    INSERT INTO t0 VALUES (4, NULL);
    UPDATE t1 SET c0 = c0 * 10;
    DELETE FROM t1 WHERE c0 > 100;
    DROP TABLE t1;
";

const DIALECTS: [Dialect; 5] = [
    Dialect::Sqlite,
    Dialect::Mysql,
    Dialect::Cockroach,
    Dialect::Duckdb,
    Dialect::Tidb,
];

fn script() -> Vec<Statement> {
    coddb::parser::parse_statements(SCRIPT).expect("corpus script parses")
}

/// Count the WAL operations the script produces under a dialect and
/// checkpoint schedule, by executing it durably with no faults.
fn total_ops_with(stmts: &[Statement], dialect: Dialect, checkpoints: &[usize]) -> u64 {
    let mut db = Database::new(dialect);
    db.set_storage_mode(StorageMode::Durable);
    for (i, s) in stmts.iter().enumerate() {
        db.execute(s).expect("corpus script executes cleanly");
        if checkpoints.contains(&i) {
            db.checkpoint().expect("corpus checkpoint succeeds");
        }
    }
    db.wal().expect("durable").ops()
}

fn total_ops(stmts: &[Statement], dialect: Dialect) -> u64 {
    total_ops_with(stmts, dialect, &[])
}

/// Execute the script durably under `plan`, checkpointing per schedule;
/// returns the crashed database (the surviving images and ground truth).
fn faulted_run(
    stmts: &[Statement],
    dialect: Dialect,
    checkpoints: &[usize],
    plan: FaultPlan,
) -> Database {
    let mut db = Database::new(dialect);
    db.set_storage_mode(StorageMode::Durable);
    db.set_fault_plan(plan);
    for (i, s) in stmts.iter().enumerate() {
        let _ = db.execute(s);
        if checkpoints.contains(&i) {
            let _ = db.checkpoint();
        }
    }
    db
}

/// Every fault mode at a given op, with deterministic but varied
/// selectors.
fn modes_at(op: u64) -> [FaultMode; 3] {
    [
        FaultMode::Lost,
        FaultMode::Torn {
            keep_sel: op * 7 + 3,
        },
        FaultMode::Corrupt { byte_sel: op + 1 },
    ]
}

#[test]
fn exhaustive_fault_grid_recovers_exactly_the_committed_prefix() {
    let stmts = script();
    for dialect in DIALECTS {
        let total = total_ops(&stmts, dialect);
        assert!(total > 20, "{dialect}: corpus too small ({total} ops)");
        // crash_op == total means the crash never fires: the clean-log
        // case rides the same grid.
        for op in 0..=total {
            for mode in modes_at(op) {
                let plan = FaultPlan { crash_op: op, mode };
                let diverged = recovery_divergence(
                    &stmts,
                    &[],
                    &plan,
                    &MediaPlan::none(),
                    dialect,
                    &BugRegistry::none(),
                );
                assert_eq!(
                    diverged,
                    None,
                    "{dialect}: recovery diverged under {}",
                    plan.describe()
                );
            }
        }
    }
}

#[test]
fn exhaustive_checkpointed_grid_recovers_exactly_the_committed_prefix() {
    // The checkpointed half of the grid: every crash point — including
    // ops inside snapshot writes and the truncation steps — × every fault
    // mode × every dialect × every schedule. The divergence helper also
    // enforces the snapshot contract per cell: recovery must base itself
    // on exactly the newest durable snapshot (never genesis when one
    // survives, never a torn or stale one).
    let stmts = script();
    for dialect in DIALECTS {
        for checkpoints in SCHEDULES {
            let total = total_ops_with(&stmts, dialect, checkpoints);
            assert!(
                total > total_ops(&stmts, dialect),
                "{dialect}: checkpoints added no ops"
            );
            for op in 0..=total {
                for mode in modes_at(op) {
                    let plan = FaultPlan { crash_op: op, mode };
                    let diverged = recovery_divergence(
                        &stmts,
                        checkpoints,
                        &plan,
                        &MediaPlan::none(),
                        dialect,
                        &BugRegistry::none(),
                    );
                    assert_eq!(
                        diverged,
                        None,
                        "{dialect}: checkpointed recovery diverged under {} \
                         (checkpoints {checkpoints:?})",
                        plan.describe()
                    );
                }
            }
        }
    }
}

#[test]
fn grid_recovers_from_snapshot_exactly_when_one_is_durable() {
    // Writer-side ground truth, checked end to end: for every crash cell,
    // recovery's chosen base equals the newest snapshot whose seal landed
    // before the crash — and both the snapshot path and the genesis
    // fallback actually occur somewhere in the grid.
    let stmts = script();
    let dialect = Dialect::Sqlite;
    let checkpoints: &[usize] = &[3];
    let total = total_ops_with(&stmts, dialect, checkpoints);
    let mut from_snapshot = 0u32;
    let mut from_genesis = 0u32;
    for op in 0..=total {
        for mode in modes_at(op) {
            let plan = if op == total {
                FaultPlan::none()
            } else {
                FaultPlan { crash_op: op, mode }
            };
            let db = faulted_run(&stmts, dialect, checkpoints, plan);
            let wal = db.wal().unwrap();
            let truth = wal.durable_snapshot_stmts();
            let (_, info) = recover_detailed(
                wal.image(),
                wal.snapshot_image(),
                dialect,
                &BugRegistry::none(),
            )
            .unwrap();
            assert_eq!(
                info.snapshot_stmts, truth,
                "op {op}: base {:?} != durable snapshot {:?}",
                info.snapshot_stmts, truth
            );
            match truth {
                Some(_) => from_snapshot += 1,
                None => from_genesis += 1,
            }
        }
    }
    assert!(from_snapshot > 0, "no cell recovered from a snapshot");
    assert!(from_genesis > 0, "no cell exercised the genesis fallback");
}

#[test]
fn every_recovery_mutant_diverges_somewhere_in_the_grid() {
    // Every recovery mutant — the five log-replay ones and the
    // checkpoint-path ones — across the genesis schedule and both
    // checkpointed schedules. Each must diverge in at least one cell.
    let stmts = script();
    let dialect = Dialect::Sqlite;
    let schedules: [&[usize]; 3] = [&[], SCHEDULES[0], SCHEDULES[1]];
    for bug in RecoveryBugId::ALL {
        let bugs = BugRegistry::only(bug);
        let mut hit = false;
        'grid: for checkpoints in schedules {
            let total = total_ops_with(&stmts, dialect, checkpoints);
            for op in 0..=total {
                for mode in modes_at(op) {
                    let plan = if op == total {
                        FaultPlan::none()
                    } else {
                        FaultPlan { crash_op: op, mode }
                    };
                    if recovery_divergence(
                        &stmts,
                        checkpoints,
                        &plan,
                        &MediaPlan::none(),
                        dialect,
                        &bugs,
                    )
                    .is_some()
                    {
                        hit = true;
                        break 'grid;
                    }
                }
            }
        }
        assert!(hit, "{} never diverged across the grid", bug.name());
    }
}

/// Every media fault site × mode the plan can express over a scenario:
/// bit rot at scattered positions in either image, transient read faults
/// on both sides of the retry cap, permanent read faults, and disk-full
/// at every append op.
fn media_cells(total: u64) -> Vec<MediaPlan> {
    let mut cells = Vec::new();
    for site in [StorageSite::Log, StorageSite::Snapshot] {
        // Bit selectors scattered by a prime so rot lands in length
        // fields, checksums, tags and values alike (the selector wraps
        // modulo the image's bit length).
        for k in 0..24u64 {
            cells.push(MediaPlan {
                site,
                mode: MediaMode::Rot {
                    bit_sel: k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                },
            });
        }
        for failures in 1..=READ_RETRY_CAP + 2 {
            cells.push(MediaPlan {
                site,
                mode: MediaMode::TransientRead { failures },
            });
        }
        cells.push(MediaPlan {
            site,
            mode: MediaMode::PermanentRead,
        });
    }
    for at_op in 0..=total {
        cells.push(MediaPlan {
            site: StorageSite::Log,
            mode: MediaMode::NoSpace { at_op },
        });
    }
    cells
}

#[test]
fn exhaustive_media_grid_is_detected_or_identical() {
    // The media half of the grid: every media fault site × mode × dialect
    // on a checkpointed scenario must be either detected (scrub finding /
    // structured storage error) or harmless (recovery byte-identical to
    // the committed-prefix oracle, salvage landing on a sound prefix).
    let stmts = script();
    let checkpoints: &[usize] = &[3];
    for dialect in DIALECTS {
        let total = total_ops_with(&stmts, dialect, checkpoints);
        for media in media_cells(total) {
            let diverged = recovery_divergence(
                &stmts,
                checkpoints,
                &FaultPlan::none(),
                &media,
                dialect,
                &BugRegistry::none(),
            );
            assert_eq!(
                diverged,
                None,
                "{dialect}: media fault neither detected nor harmless under {}",
                media.describe()
            );
        }
    }
}

#[test]
fn crash_and_media_faults_compose_in_the_same_grid() {
    // Both fault axes at once, sampled: a write-path crash tears the tail
    // while the media plan rots the at-rest image / fails reads / fills
    // the disk. The detect-or-identical contract must hold per cell.
    let stmts = script();
    let dialect = Dialect::Sqlite;
    let checkpoints: &[usize] = &[3];
    let total = total_ops_with(&stmts, dialect, checkpoints);
    for op in (0..total).step_by(7) {
        for mode in modes_at(op) {
            let plan = FaultPlan { crash_op: op, mode };
            for media in [
                MediaPlan {
                    site: StorageSite::Log,
                    mode: MediaMode::Rot {
                        bit_sel: op.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    },
                },
                MediaPlan {
                    site: StorageSite::Snapshot,
                    mode: MediaMode::Rot {
                        bit_sel: op.wrapping_add(41),
                    },
                },
                MediaPlan {
                    site: StorageSite::Log,
                    mode: MediaMode::TransientRead {
                        failures: (op % (READ_RETRY_CAP as u64 + 2) + 1) as u32,
                    },
                },
                MediaPlan {
                    site: StorageSite::Snapshot,
                    mode: MediaMode::NoSpace { at_op: op / 2 },
                },
            ] {
                let diverged = recovery_divergence(
                    &stmts,
                    checkpoints,
                    &plan,
                    &media,
                    dialect,
                    &BugRegistry::none(),
                );
                assert_eq!(
                    diverged,
                    None,
                    "composed faults broke the contract: {} + {}",
                    plan.describe(),
                    media.describe()
                );
            }
        }
    }
}

#[test]
fn every_media_mutant_diverges_somewhere_in_the_media_grid() {
    // Each of the five media-fault mutants must produce at least one
    // divergence across the media grid — and the divergence must vanish
    // on the clean engine (the cell is a true mutant witness).
    let stmts = script();
    let dialect = Dialect::Sqlite;
    let checkpoints: &[usize] = &[3];
    let total = total_ops_with(&stmts, dialect, checkpoints);
    for bug in MediaBugId::ALL {
        let bugs = BugRegistry::only(bug);
        let mut witness = None;
        for media in media_cells(total) {
            if recovery_divergence(
                &stmts,
                checkpoints,
                &FaultPlan::none(),
                &media,
                dialect,
                &bugs,
            )
            .is_some()
            {
                witness = Some(media);
                break;
            }
        }
        let media = witness
            .unwrap_or_else(|| panic!("{} never diverged across the media grid", bug.name()));
        assert_eq!(
            recovery_divergence(
                &stmts,
                checkpoints,
                &FaultPlan::none(),
                &media,
                dialect,
                &BugRegistry::none()
            ),
            None,
            "{}: witness cell {} also fails on a clean engine",
            bug.name(),
            media.describe()
        );
    }
}

#[test]
fn engine_mutants_cancel_out_of_the_checkpointed_differential() {
    // An injected engine mutant corrupts the faulted and reference runs
    // identically — snapshots serialize the post-mutant in-memory state
    // exactly like WAL records do — so the checkpointed differential
    // stays quiet on a sample of the grid.
    let stmts = script();
    let bugs = BugRegistry::only(coddb::BugId::SqliteLikeCaseFold);
    let dialect = Dialect::Sqlite;
    for checkpoints in SCHEDULES {
        let total = total_ops_with(&stmts, dialect, checkpoints);
        for op in (0..=total).step_by(5) {
            for mode in modes_at(op) {
                let plan = if op == total {
                    FaultPlan::none()
                } else {
                    FaultPlan { crash_op: op, mode }
                };
                assert_eq!(
                    recovery_divergence(
                        &stmts,
                        checkpoints,
                        &plan,
                        &MediaPlan::none(),
                        dialect,
                        &bugs
                    ),
                    None,
                    "engine mutant leaked into the checkpointed differential at op {op}"
                );
            }
        }
    }
}

#[test]
fn durable_mode_never_changes_query_semantics() {
    let stmts = script();
    for dialect in DIALECTS {
        let mut volatile = Database::new(dialect);
        let mut durable = Database::new(dialect);
        durable.set_storage_mode(StorageMode::Durable);
        for s in &stmts {
            let a = volatile.execute(s).expect("volatile");
            let b = durable.execute(s).expect("durable");
            assert_eq!(a, b, "{dialect}: outcomes diverge on {s}");
        }
        assert_eq!(volatile.dump_state(), durable.dump_state());
    }
}

/// Indexed-table cell of the grid: a script whose table carries a
/// bare-column ordered index — real [`OrdIndex`] seek data, unlike the
/// expression index in [`SCRIPT`], which is metadata-only — with DML that
/// forces index maintenance (re-keying update, delete) into the log.
const INDEXED_SCRIPT: &str = "
    CREATE TABLE ti (k INT, s TEXT);
    CREATE INDEX ik ON ti (k);
    INSERT INTO ti VALUES (1, 'a'), (NULL, 'b'), (2, NULL), (2, 'c'), (5, 'd');
    UPDATE ti SET k = 4 WHERE s = 'c';
    INSERT INTO ti VALUES (0, 'e'), (2, 'f'), (NULL, 'g');
    DELETE FROM ti WHERE k = 5;
";

/// Seek-eligible probes run over the recovered state: point, range,
/// ordered (sort-eliminated), and residual-conjunct shapes.
const SEEK_PROBES: &[&str] = &[
    "SELECT * FROM ti WHERE k = 2",
    "SELECT * FROM ti WHERE k > 1",
    "SELECT * FROM ti WHERE k >= 0 ORDER BY k",
    "SELECT * FROM ti WHERE k < 4 ORDER BY k DESC",
    "SELECT COUNT(*) FROM ti WHERE k = 2 AND s IS NOT NULL",
    "SELECT * FROM ti ORDER BY k LIMIT 3",
];

#[test]
fn indexed_table_grid_recovers_and_seeks_match_scan_only() {
    // Two contracts per crash cell: (1) the committed-prefix oracle holds
    // with index maintenance interleaved in the log, and (2) the index
    // rebuilt after replay serves seeks byte-identically — results,
    // coverage bitsets, and fuel — to a ScanOnly run over the same
    // recovered images.
    let stmts = coddb::parser::parse_statements(INDEXED_SCRIPT).expect("indexed script parses");
    for dialect in DIALECTS {
        let total = total_ops(&stmts, dialect);
        for op in 0..=total {
            let plan = FaultPlan {
                crash_op: op,
                mode: FaultMode::Lost,
            };
            assert_eq!(
                recovery_divergence(
                    &stmts,
                    &[],
                    &plan,
                    &MediaPlan::none(),
                    dialect,
                    &BugRegistry::none()
                ),
                None,
                "{dialect}: indexed-table recovery diverged under {}",
                plan.describe()
            );
            let db = faulted_run(&stmts, dialect, &[], plan);
            let wal = db.wal().unwrap();
            let probe = |mode: AccessMode| {
                let (mut rec, _) = recover_detailed(
                    wal.image(),
                    wal.snapshot_image(),
                    dialect,
                    &BugRegistry::none(),
                )
                .unwrap();
                // Whenever CREATE INDEX committed, replay must have
                // rebuilt the ordered data, not just the definition.
                if let Some(ix) = rec.catalog().index("ik") {
                    assert!(
                        ix.data.is_some(),
                        "{dialect} op {op}: recovered index has no seek data"
                    );
                }
                rec.set_access_mode(mode);
                let mut out = Vec::new();
                for sql in SEEK_PROBES {
                    out.push(match rec.execute_sql(sql) {
                        Ok(o) => format!("{o:?}"),
                        Err(e) => format!("error: {e}"),
                    });
                }
                (out, rec.coverage().hit_points(), rec.fuel_used())
            };
            let (idx_out, idx_cov, idx_fuel) = probe(AccessMode::Indexed);
            let (scan_out, scan_cov, scan_fuel) = probe(AccessMode::ScanOnly);
            assert_eq!(
                idx_out, scan_out,
                "{dialect} op {op}: post-recovery seeks disagree with ScanOnly"
            );
            assert_eq!(
                idx_cov, scan_cov,
                "{dialect} op {op}: post-recovery coverage diverges"
            );
            assert_eq!(
                idx_fuel, scan_fuel,
                "{dialect} op {op}: post-recovery fuel diverges"
            );
        }
    }
}

#[test]
fn seeded_fault_plans_reproduce_their_scenario_exactly() {
    let stmts = script();
    let dialect = Dialect::Duckdb;
    let total = total_ops(&stmts, dialect);
    for seed in 0..32u64 {
        let a = FaultPlan::seeded(seed, total);
        let b = FaultPlan::seeded(seed, total);
        assert_eq!(a, b, "seed {seed} not deterministic");
        // The scenario itself reproduces end-to-end: same seed, same
        // surviving image, same recovered state.
        let run = |plan: FaultPlan| {
            let mut db = Database::new(dialect);
            db.set_storage_mode(StorageMode::Durable);
            db.set_fault_plan(plan);
            for s in &stmts {
                let _ = db.execute(s);
            }
            (
                db.wal().unwrap().image().to_vec(),
                db.wal().unwrap().committed_statements(),
            )
        };
        let (img_a, com_a) = run(a);
        let (img_b, com_b) = run(b);
        assert_eq!(img_a, img_b, "seed {seed}: images differ");
        assert_eq!(com_a, com_b, "seed {seed}: commit counts differ");
        let rec_a = coddb::recovery::recover(&img_a, &[], dialect, &BugRegistry::none()).unwrap();
        let rec_b = coddb::recovery::recover(&img_b, &[], dialect, &BugRegistry::none()).unwrap();
        assert_eq!(rec_a.dump_state(), rec_b.dump_state());
    }
}

/// A schedule long enough to reclaim: the third and fourth checkpoints
/// each drop the oldest snapshot before writing their own, so the grid's
/// op range holds two reclaim ops (the first two checkpoints reclaim
/// nothing, and a reclaim that frees nothing is no op).
const LONG_SCHEDULE: &[usize] = &[0, 3, 6, 9];

#[test]
fn long_schedule_grid_recovers_exactly_and_crashes_at_the_reclaim() {
    // Every crash point × fault mode × dialect over four checkpoints:
    // the committed-prefix and newest-durable-snapshot contracts hold
    // when the crash lands on a snapshot reclaim too, and the grid
    // really has cells that crash there.
    let stmts = script();
    let mut reclaim_cells = 0u32;
    for dialect in DIALECTS {
        let total = total_ops_with(&stmts, dialect, LONG_SCHEDULE);
        for op in 0..=total {
            for mode in modes_at(op) {
                let plan = FaultPlan { crash_op: op, mode };
                let diverged = recovery_divergence(
                    &stmts,
                    LONG_SCHEDULE,
                    &plan,
                    &MediaPlan::none(),
                    dialect,
                    &BugRegistry::none(),
                );
                assert_eq!(
                    diverged,
                    None,
                    "{dialect}: recovery diverged under {} (checkpoints {LONG_SCHEDULE:?})",
                    plan.describe()
                );
                let db = faulted_run(&stmts, dialect, LONG_SCHEDULE, plan);
                if db.wal().unwrap().crash_site() == Some(coddb::wal::CrashSite::Reclaim) {
                    reclaim_cells += 1;
                }
            }
        }
    }
    // Two reclaim ops × three fault modes × five dialects.
    assert_eq!(reclaim_cells, 30, "cells crashing at a snapshot reclaim");
}

#[test]
fn long_schedule_media_grid_is_detected_or_identical() {
    // The media grid over four checkpoints: rot and read faults strike a
    // snapshot file the reclaims keep at two generations, and disk-full
    // lands on every op, reclaims included. Every fault is detected or
    // harmless.
    let stmts = script();
    for dialect in DIALECTS {
        let total = total_ops_with(&stmts, dialect, LONG_SCHEDULE);
        for media in media_cells(total) {
            let diverged = recovery_divergence(
                &stmts,
                LONG_SCHEDULE,
                &FaultPlan::none(),
                &media,
                dialect,
                &BugRegistry::none(),
            );
            assert_eq!(
                diverged,
                None,
                "{dialect}: media fault neither detected nor harmless under {} \
                 (checkpoints {LONG_SCHEDULE:?})",
                media.describe()
            );
        }
    }
}

#[test]
fn reclaiming_the_newest_snapshot_diverges_on_the_long_schedule() {
    // The ReclaimNewestSnapshot mutant leaves no sealed snapshot on file
    // while the next one is written: a crash there recovers from genesis
    // over a truncated log.
    let stmts = script();
    let dialect = Dialect::Sqlite;
    let bugs = BugRegistry::only(RecoveryBugId::ReclaimNewestSnapshot);
    let total = total_ops_with(&stmts, dialect, LONG_SCHEDULE);
    let mut diverged = 0u32;
    for op in 0..=total {
        for mode in modes_at(op) {
            let plan = FaultPlan { crash_op: op, mode };
            if recovery_divergence(
                &stmts,
                LONG_SCHEDULE,
                &plan,
                &MediaPlan::none(),
                dialect,
                &bugs,
            )
            .is_some()
            {
                diverged += 1;
            }
        }
    }
    assert!(
        diverged > 0,
        "the mutant never diverged on {LONG_SCHEDULE:?}"
    );
}

#[test]
fn row_records_that_do_not_fit_their_table_fail_recovery_without_panicking() {
    // Every frame of these images verifies and every statement commits,
    // yet one row record does not fit its table: a row narrower than the
    // table (whose index keys the missing column), an update of a column
    // past the table's width, and deletes whose positions are out of
    // order, repeated or out of range. Replay must end in an error, never
    // a panic or a silently wrong table. The row also goes through a
    // sealed snapshot, which recovery loads through the same writes.
    use coddb::value::Value;
    use coddb::wal::{Wal, WalRecord};
    let t = || "t".to_string();
    let schema = ["CREATE TABLE t (a INT, b INT)", "CREATE INDEX ib ON t (b)"];
    let rows: Vec<Vec<Value>> = (1..=3)
        .map(|i| vec![Value::Int(i), Value::Int(10 * i)])
        .collect();
    let bad = [
        WalRecord::InsertRow {
            table: t(),
            row: vec![Value::Int(4)],
        },
        WalRecord::UpdateRow {
            table: t(),
            row_idx: 0,
            cols: vec![2],
            vals: vec![Value::Int(9)],
        },
        WalRecord::DeleteRows {
            table: t(),
            rows: vec![1, 0],
        },
        WalRecord::DeleteRows {
            table: t(),
            rows: vec![0, 0],
        },
        WalRecord::DeleteRows {
            table: t(),
            rows: vec![0, 3],
        },
    ];
    for rec in &bad {
        let mut w = Wal::new(FaultPlan::none());
        for sql in schema {
            w.append(&WalRecord::Ddl { sql: sql.into() }).unwrap();
            w.commit_statement().unwrap();
        }
        for row in &rows {
            w.append(&WalRecord::InsertRow {
                table: t(),
                row: row.clone(),
            })
            .unwrap();
        }
        w.commit_statement().unwrap();
        w.append(rec).unwrap();
        w.commit_statement().unwrap();
        let got = coddb::recovery::recover(w.image(), &[], Dialect::Sqlite, &BugRegistry::none());
        assert!(got.is_err(), "log replay accepted {rec:?}");
    }

    let mut w = Wal::new(FaultPlan::none());
    let mut body: Vec<WalRecord> = schema
        .iter()
        .map(|sql| WalRecord::Ddl {
            sql: sql.to_string(),
        })
        .collect();
    body.push(bad[0].clone());
    w.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx: 2 })
        .unwrap();
    for rec in &body {
        w.append_snapshot(rec).unwrap();
    }
    w.append_snapshot(&WalRecord::SnapshotEnd {
        stmt_idx: 2,
        records: body.len() as u64,
    })
    .unwrap();
    let got = coddb::recovery::recover(
        &[],
        w.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    );
    assert!(got.is_err(), "snapshot load accepted {:?}", bad[0]);
}

#[test]
fn an_update_with_fewer_values_than_columns_fails_recovery() {
    // A checksummed, committed UpdateRow that names columns [0, 1] but
    // carries one value: replay must not apply it as a partial update
    // (the row (1, 2) coming back as (9, 2)); the record fails to decode.
    use coddb::value::Value;
    use coddb::wal::{Wal, WalRecord};
    let mut w = Wal::new(FaultPlan::none());
    w.append(&WalRecord::Ddl {
        sql: "CREATE TABLE t (a INT, b INT)".into(),
    })
    .unwrap();
    w.commit_statement().unwrap();
    w.append(&WalRecord::InsertRow {
        table: "t".into(),
        row: vec![Value::Int(1), Value::Int(2)],
    })
    .unwrap();
    w.commit_statement().unwrap();
    w.append(&WalRecord::UpdateRow {
        table: "t".into(),
        row_idx: 0,
        cols: vec![0, 1],
        vals: vec![Value::Int(9)],
    })
    .unwrap();
    w.commit_statement().unwrap();
    let got = coddb::recovery::recover(w.image(), &[], Dialect::Sqlite, &BugRegistry::none());
    assert!(
        got.is_err(),
        "a torn update recovered: {:?}",
        got.map(|db| db.dump_state())
    );
}
