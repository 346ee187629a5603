//! Checkpoint-path integration: snapshot+suffix recovery, fallback to the
//! previous sealed snapshot, and the fuel-accounting contract of replay.
//!
//! The exhaustive grid lives in `wal_recovery.rs`; this suite pins the
//! *qualitative* behaviors the grid only checks in aggregate — which base
//! recovery chose, what the snapshot file looks like after a mid-run
//! crash, and that recovery neither charges execution fuel nor behaves
//! differently when the writer ran under a tight fuel limit.

use coddb::bugs::BugRegistry;
use coddb::recovery::{recover, recover_detailed, scan_snapshots};
use coddb::wal::{FaultMode, FaultPlan, StorageMode};
use coddb::{ast::Statement, AccessMode, Database, Dialect};

fn parse(sql: &str) -> Vec<Statement> {
    coddb::parser::parse_statements(sql).expect("script parses")
}

fn durable(dialect: Dialect) -> Database {
    let mut db = Database::new(dialect);
    db.set_storage_mode(StorageMode::Durable);
    db
}

/// Execute `script` durably under `plan`, checkpointing after the
/// statement indices in `checkpoints`.
fn run_with(
    script: &[Statement],
    checkpoints: &[usize],
    plan: FaultPlan,
    dialect: Dialect,
) -> Database {
    let mut db = durable(dialect);
    db.set_fault_plan(plan);
    for (i, s) in script.iter().enumerate() {
        let _ = db.execute(s);
        if checkpoints.contains(&i) {
            let _ = db.checkpoint();
        }
    }
    db
}

#[test]
fn pre_checkpoint_world_recovers_from_genesis() {
    let mut db = durable(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    let w = db.wal().unwrap();
    assert!(w.snapshot_image().is_empty());
    let (rec, info) = recover_detailed(
        w.image(),
        w.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    assert_eq!(info.snapshot_stmts, None, "no checkpoint yet: genesis");
    assert_eq!(info.snapshots_scanned, 0);
    assert_eq!(rec.dump_state(), db.dump_state());
}

#[test]
fn crash_in_suffix_recovers_from_snapshot_plus_suffix() {
    let script = parse(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1), (2);
         INSERT INTO t VALUES (3);
         INSERT INTO t VALUES (4)",
    );
    // Checkpoint after stmt 1; count ops, then crash in the log suffix
    // (the very last op: stmt 3's commit marker is lost).
    let clean = run_with(&script, &[1], FaultPlan::none(), Dialect::Sqlite);
    let total = clean.wal().unwrap().ops();
    let crashed = run_with(
        &script,
        &[1],
        FaultPlan {
            crash_op: total - 1,
            mode: FaultMode::Lost,
        },
        Dialect::Sqlite,
    );
    let w = crashed.wal().unwrap();
    assert_eq!(w.durable_snapshot_stmts(), Some(2));
    assert_eq!(w.committed_statements(), 3, "stmt 3's commit was the crash");
    let (rec, info) = recover_detailed(
        w.image(),
        w.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    assert_eq!(info.snapshot_stmts, Some(2), "base is the snapshot");
    let rows = &rec.catalog().table("t").unwrap().rows;
    let vals: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            coddb::Value::Int(i) => i,
            ref v => panic!("unexpected {v:?}"),
        })
        .collect();
    assert_eq!(vals, vec![1, 2, 3], "committed prefix, uncommitted 4 gone");
}

#[test]
fn crash_between_marker_and_truncation_does_not_double_apply() {
    let script = parse(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1), (2)",
    );
    // The truncation is the checkpoint's last op. Crash exactly there:
    // the marker and the whole pre-checkpoint log survive together, so
    // replay must skip every commit the snapshot already covers.
    let clean = run_with(&script, &[1], FaultPlan::none(), Dialect::Sqlite);
    let total = clean.wal().unwrap().ops();
    let crashed = run_with(
        &script,
        &[1],
        FaultPlan {
            crash_op: total - 1,
            mode: FaultMode::Lost,
        },
        Dialect::Sqlite,
    );
    let w = crashed.wal().unwrap();
    assert_eq!(
        w.crash_site(),
        Some(coddb::wal::CrashSite::Truncate),
        "the crash must land on the truncation step"
    );
    assert!(!w.image().is_empty(), "truncation lost: log survives whole");
    let (rec, info) = recover_detailed(
        w.image(),
        w.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    assert_eq!(info.snapshot_stmts, Some(2));
    assert_eq!(
        rec.catalog().table("t").unwrap().rows.len(),
        2,
        "overlapped commits must not double-apply"
    );
    assert_eq!(rec.dump_state(), clean.dump_state());
}

#[test]
fn torn_second_snapshot_falls_back_to_the_first() {
    let script = parse(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1);
         INSERT INTO t VALUES (2)",
    );
    // Find the second checkpoint's snapshot-write window by crashing at
    // every op and looking for: first seal durable, second not.
    let clean = run_with(&script, &[0, 2], FaultPlan::none(), Dialect::Sqlite);
    let total = clean.wal().unwrap().ops();
    let mut exercised = false;
    for op in 0..total {
        let crashed = run_with(
            &script,
            &[0, 2],
            FaultPlan {
                crash_op: op,
                mode: FaultMode::Torn { keep_sel: op + 1 },
            },
            Dialect::Sqlite,
        );
        let w = crashed.wal().unwrap();
        if w.durable_snapshot_stmts() != Some(1) {
            continue;
        }
        exercised = true;
        let snaps = scan_snapshots(w.snapshot_image(), &BugRegistry::none()).unwrap();
        let (_, info) = recover_detailed(
            w.image(),
            w.snapshot_image(),
            Dialect::Sqlite,
            &BugRegistry::none(),
        )
        .unwrap();
        assert_eq!(
            info.snapshot_stmts,
            Some(1),
            "op {op}: must fall back to the first sealed snapshot \
             ({} snapshots on file)",
            snaps.len()
        );
    }
    assert!(exercised, "no crash point left only the first seal durable");
}

#[test]
fn the_snapshot_file_keeps_at_most_two_generations() {
    // Each checkpoint reclaims every snapshot before the newest sealed
    // one: after k checkpoints the file holds min(k, 2) sealed snapshots,
    // the newest two, and the cut lands exactly on a begin frame.
    use coddb::wal::{decode_record, WalRecord, FRAME_HEADER};

    let mut db = durable(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT)").unwrap();
    for k in 1..=6u64 {
        db.execute_sql(&format!("INSERT INTO t VALUES ({k})"))
            .unwrap();
        let covered = db.checkpoint().unwrap();
        let w = db.wal().unwrap();
        let image = w.snapshot_image();
        let snaps = scan_snapshots(image, &BugRegistry::none()).unwrap();
        assert!(snaps.iter().all(|s| s.sealed), "k={k}: unsealed snapshot");
        let stmts: Vec<u64> = snaps.iter().map(|s| s.stmt_idx).collect();
        // Checkpoint i covers i + 1 statements: the CREATE and i inserts.
        let want: Vec<u64> = (k.max(2) - 1..=k).map(|i| i + 1).collect();
        assert_eq!(stmts, want, "k={k}: the newest min(k, 2) snapshots");
        assert_eq!(stmts.last(), Some(&covered));
        let len = u32::from_le_bytes(image[..4].try_into().unwrap()) as usize;
        let first = decode_record(&image[FRAME_HEADER..FRAME_HEADER + len]).unwrap();
        assert!(
            matches!(first, WalRecord::SnapshotBegin { .. }),
            "k={k}: the file starts with {first:?}"
        );
        let (rec, info) =
            recover_detailed(w.image(), image, Dialect::Sqlite, &BugRegistry::none()).unwrap();
        assert_eq!(info.snapshot_stmts, Some(covered));
        assert_eq!(rec.dump_state(), db.dump_state());
    }
}

#[test]
fn crash_at_the_reclaim_leaves_the_snapshot_file_unchanged() {
    use coddb::wal::CrashSite;

    let script = parse(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1);
         INSERT INTO t VALUES (2);
         INSERT INTO t VALUES (3)",
    );
    // The third checkpoint's reclaim is its first op, right after the
    // ops of everything before it.
    let before = run_with(&script[..3], &[0, 1], FaultPlan::none(), Dialect::Sqlite);
    let reclaim_op = before.wal().unwrap().ops();
    let image_before = before.wal().unwrap().snapshot_image().to_vec();
    for mode in [
        FaultMode::Lost,
        FaultMode::Torn { keep_sel: 3 },
        FaultMode::Corrupt { byte_sel: 3 },
    ] {
        let crashed = run_with(
            &script,
            &[0, 1, 2],
            FaultPlan {
                crash_op: reclaim_op,
                mode,
            },
            Dialect::Sqlite,
        );
        let w = crashed.wal().unwrap();
        assert_eq!(w.crash_site(), Some(CrashSite::Reclaim), "{mode:?}");
        assert_eq!(
            w.snapshot_image(),
            &image_before[..],
            "{mode:?}: a crash at the reclaim must reclaim nothing"
        );
        assert_eq!(w.durable_snapshot_stmts(), Some(2));
        let (rec, info) = recover_detailed(
            w.image(),
            w.snapshot_image(),
            Dialect::Sqlite,
            &BugRegistry::none(),
        )
        .unwrap();
        assert_eq!(info.snapshot_stmts, Some(2), "{mode:?}: base is the newest");
        assert_eq!(info.snapshots_scanned, 2);
        assert_eq!(rec.dump_state(), before.dump_state());
    }
}

#[test]
fn snapshot_plus_suffix_rebuilds_indexes_that_seek_like_scan_only() {
    // Ordered-index data is never serialized — not in WAL records, not in
    // snapshots — so a database rebuilt from snapshot+suffix must
    // reconstruct it deterministically from the recovered rows. The
    // recovered engine must actually *plan* seeks, and those seeks must
    // agree byte-identically with the ScanOnly baseline over the same
    // images, at every crash point in the suffix.
    let script = parse(
        "CREATE TABLE t (k INT, s TEXT);
         CREATE INDEX ik ON t (k);
         INSERT INTO t VALUES (1, 'a'), (NULL, 'b'), (2, NULL), (2, 'c'), (5, 'd');
         UPDATE t SET k = 4 WHERE s = 'c';
         INSERT INTO t VALUES (0, 'e'), (2, 'f'), (NULL, 'g');
         DELETE FROM t WHERE k = 5",
    );
    const PROBES: &[&str] = &[
        "SELECT * FROM t WHERE k = 2",
        "SELECT * FROM t WHERE k > 1 ORDER BY k",
        "SELECT * FROM t WHERE k < 4 ORDER BY k DESC",
        "SELECT COUNT(*) FROM t WHERE k = 2 AND s IS NOT NULL",
    ];
    // Checkpoint after the bulk insert: the snapshot holds index *rows*
    // but no index data; every later crash recovers snapshot + suffix.
    let checkpoints = &[2usize];
    let clean = run_with(&script, checkpoints, FaultPlan::none(), Dialect::Sqlite);
    let total = clean.wal().unwrap().ops();
    let mut from_snapshot = 0u32;
    for op in 0..=total {
        let plan = FaultPlan {
            crash_op: op,
            mode: FaultMode::Lost,
        };
        let crashed = run_with(&script, checkpoints, plan, Dialect::Sqlite);
        let w = crashed.wal().unwrap();
        let probe = |mode: AccessMode| {
            let (mut rec, info) = recover_detailed(
                w.image(),
                w.snapshot_image(),
                Dialect::Sqlite,
                &BugRegistry::none(),
            )
            .unwrap();
            if let Some(ix) = rec.catalog().index("ik") {
                assert!(
                    ix.data.is_some(),
                    "op {op}: recovered index definition has no seek data"
                );
            }
            rec.set_access_mode(mode);
            let mut out = Vec::new();
            for sql in PROBES {
                out.push(match rec.execute_sql(sql) {
                    Ok(o) => format!("{o:?}"),
                    Err(e) => format!("error: {e}"),
                });
            }
            (out, rec.coverage().hit_points(), rec.fuel_used(), info)
        };
        let (idx_out, idx_cov, idx_fuel, info) = probe(AccessMode::Indexed);
        let (scan_out, scan_cov, scan_fuel, _) = probe(AccessMode::ScanOnly);
        if info.snapshot_stmts.is_some() {
            from_snapshot += 1;
        }
        assert_eq!(
            idx_out, scan_out,
            "op {op}: post-recovery seeks disagree with ScanOnly"
        );
        assert_eq!(idx_cov, scan_cov, "op {op}: coverage diverges");
        assert_eq!(idx_fuel, scan_fuel, "op {op}: fuel diverges");
    }
    assert!(
        from_snapshot > 0,
        "no cell actually recovered from the snapshot"
    );
    // The clean recovery must plan a real seek over the rebuilt index.
    let w = clean.wal().unwrap();
    let (mut rec, _) = recover_detailed(
        w.image(),
        w.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    let explain = rec.explain_sql("SELECT * FROM t WHERE k = 2").unwrap();
    assert!(
        explain.contains("INDEX SEEK"),
        "recovered engine does not seek:\n{explain}"
    );
}

#[test]
fn recovery_charges_no_fuel() {
    // Replay is physical for DML and re-executes only DDL (which consumes
    // no fuel): a recovered engine reports zero fuel even when the writer
    // burned plenty.
    let mut db = durable(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1), (2), (3), (4);
         UPDATE t SET a = a + 1 WHERE a > 0;
         DELETE FROM t WHERE a > 4",
    )
    .unwrap();
    assert!(db.fuel_used() > 0, "writer burned fuel");
    db.checkpoint().unwrap();
    db.execute_sql("INSERT INTO t VALUES (9)").unwrap();
    let w = db.wal().unwrap();
    let rec = recover(
        w.image(),
        w.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    assert_eq!(rec.dump_state(), db.dump_state());
    assert_eq!(rec.fuel_used(), 0, "replay must not charge execution fuel");
}

#[test]
fn checkpoint_consumes_no_fuel_and_preserves_state() {
    let mut db = durable(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)")
        .unwrap();
    let fuel_before = db.fuel_used();
    let state_before = db.dump_state();
    db.checkpoint().unwrap();
    assert_eq!(db.fuel_used(), fuel_before, "checkpoint is fuel-free");
    assert_eq!(db.dump_state(), state_before, "checkpoint is state-free");
}

#[test]
fn tight_fuel_limits_recover_identically() {
    // A writer under a tight fuel limit errors some statements (logging
    // nothing for them); recovery must reconstruct exactly the surviving
    // committed prefix — the same state an in-memory engine under the
    // same limit holds — and must not trip any limit itself.
    let script = parse(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1), (2), (3), (4), (5), (6);
         UPDATE t SET a = a * 2 WHERE a > 1;
         INSERT INTO t VALUES (7);
         DELETE FROM t WHERE a > 100",
    );
    for limit in [1u64, 3, 6, 20, 1000] {
        for checkpoints in [&[][..], &[1][..]] {
            let mut w = durable(Dialect::Sqlite);
            w.set_fuel_limit(limit);
            let mut failures = 0;
            for (i, s) in script.iter().enumerate() {
                if w.execute(s).is_err() {
                    failures += 1;
                }
                if checkpoints.contains(&i) {
                    w.checkpoint().unwrap();
                }
            }
            // Reference: the same limit, in-memory only.
            let mut r = Database::new(Dialect::Sqlite);
            r.set_fuel_limit(limit);
            let mut ref_failures = 0;
            for s in &script {
                if r.execute(s).is_err() {
                    ref_failures += 1;
                }
            }
            assert_eq!(failures, ref_failures, "limit {limit}: fuel trips differ");
            let wal = w.wal().unwrap();
            let rec = recover(
                wal.image(),
                wal.snapshot_image(),
                Dialect::Sqlite,
                &BugRegistry::none(),
            )
            .unwrap();
            assert_eq!(
                rec.dump_state(),
                r.dump_state(),
                "limit {limit}, checkpoints {checkpoints:?}: recovered state diverges"
            );
            assert_eq!(rec.fuel_used(), 0, "limit {limit}: replay charged fuel");
        }
    }
}

// ---------------------------------------------------------------------------
// Media-fault degradation: disk-full aborts, bounded-retry reads, scrub.
// ---------------------------------------------------------------------------

#[test]
fn nospace_aborts_the_statement_cleanly_and_the_session_keeps_serving() {
    use coddb::error::{Error, Severity, StorageFaultKind};
    use coddb::wal::{MediaMode, MediaPlan};

    let mut db = durable(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let full_at = db.wal().unwrap().ops();
    db.set_media_plan(MediaPlan {
        site: coddb::error::StorageSite::Log,
        mode: MediaMode::NoSpace { at_op: full_at },
    });

    // The next DML is refused by the medium: structured error, Expected
    // severity (graceful degradation, not a bug signal), no state change.
    let err = db.execute_sql("INSERT INTO t VALUES (2)").unwrap_err();
    match &err {
        Error::Storage(se) => {
            assert!(
                matches!(se.kind, StorageFaultKind::NoSpace { .. }),
                "{se:?}"
            );
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
    assert_eq!(err.severity(), Severity::Expected);
    assert_eq!(err.category(), "storage");
    assert_eq!(
        db.catalog().table("t").unwrap().rows.len(),
        1,
        "aborted INSERT must not land"
    );

    // The session keeps serving reads, and later writes keep failing —
    // the disk stays full.
    db.execute_sql("SELECT * FROM t").unwrap();
    assert!(db.execute_sql("INSERT INTO t VALUES (3)").is_err());
    assert_eq!(db.wal().unwrap().committed_statements(), 2);

    // Recovery sees exactly the committed prefix.
    let wal = db.wal().unwrap();
    let rec = recover(
        wal.image(),
        wal.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    assert_eq!(rec.dump_state(), db.dump_state());
}

#[test]
fn nospace_rolls_back_ddl_catalog_mutations() {
    use coddb::error::Error;
    use coddb::wal::{MediaMode, MediaPlan};

    let mut db = durable(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT)").unwrap();
    let full_at = db.wal().unwrap().ops();
    db.set_media_plan(MediaPlan {
        site: coddb::error::StorageSite::Log,
        mode: MediaMode::NoSpace { at_op: full_at },
    });

    // DDL mutates the catalog before logging; a refused append must roll
    // that mutation back — the un-logged table would otherwise vanish on
    // recovery while the live session still saw it.
    let err = db.execute_sql("CREATE TABLE u (x INT)").unwrap_err();
    assert!(matches!(err, Error::Storage(_)), "{err:?}");
    assert!(
        db.catalog().table("u").is_err(),
        "rolled-back DDL left the table in the catalog"
    );
    db.execute_sql("SELECT * FROM t").unwrap();
}

#[test]
fn scrub_quarantines_bit_rot_and_salvage_recovers_a_prefix() {
    use coddb::error::StorageSite;
    use coddb::recovery::{recover_with_policy, RecoveryPolicy};
    use coddb::wal::{MediaMode, MediaPlan};

    let mut db = durable(Dialect::Sqlite);
    db.execute_sql(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1);
         INSERT INTO t VALUES (2);
         INSERT INTO t VALUES (3)",
    )
    .unwrap();
    // Rot a bit in the middle of the at-rest log image.
    let log_bits = db.wal().unwrap().image().len() as u64 * 8;
    db.set_media_plan(MediaPlan {
        site: StorageSite::Log,
        mode: MediaMode::Rot {
            bit_sel: log_bits / 2,
        },
    });
    db.degrade_media();

    let report = db.scrub().unwrap();
    assert!(!report.clean(), "rot went unnoticed");
    assert!(
        report.damage().next().is_some(),
        "mid-image rot must be damage, not a tail artifact: {:?}",
        report.findings
    );
    assert!(report.findings.iter().all(|f| f.site == StorageSite::Log));

    // Salvage recovers a committed prefix (never past the damage).
    let wal = db.wal().unwrap();
    let (rec, _) = recover_with_policy(
        wal.image(),
        wal.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
        RecoveryPolicy::Salvage,
    )
    .unwrap();
    let rows = rec.catalog().table("t").map(|t| t.rows.len()).unwrap_or(0);
    assert!(rows < 3, "salvage kept state past the damage ({rows} rows)");
}

#[test]
fn transient_reads_heal_within_the_cap_and_fail_stop_beyond() {
    use coddb::error::{Error, Severity, StorageFaultKind};
    use coddb::wal::{MediaMode, MediaPlan, READ_RETRY_CAP};

    let mut db = durable(Dialect::Sqlite);
    db.execute_sql("CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
        .unwrap();

    // Within the cap: the bounded retry schedule heals the fault and
    // scrub completes.
    db.set_media_plan(MediaPlan {
        site: coddb::error::StorageSite::Log,
        mode: MediaMode::TransientRead {
            failures: READ_RETRY_CAP,
        },
    });
    db.degrade_media();
    let report = db.scrub().unwrap();
    assert!(
        report.clean(),
        "healed read left findings: {:?}",
        report.findings
    );

    // Beyond the cap: a structured read fault surfaces instead of a hang
    // or a silent empty image.
    db.set_media_plan(MediaPlan {
        site: coddb::error::StorageSite::Log,
        mode: MediaMode::TransientRead {
            failures: READ_RETRY_CAP + 1,
        },
    });
    db.degrade_media();
    let err = db.scrub().unwrap_err();
    match &err {
        Error::Storage(se) => match se.kind {
            StorageFaultKind::ReadFault {
                attempts,
                permanent,
            } => {
                assert_eq!(attempts, READ_RETRY_CAP + 1);
                assert!(!permanent);
            }
            other => panic!("expected a read fault, got {other:?}"),
        },
        other => panic!("expected a storage error, got {other:?}"),
    }
    assert_eq!(err.severity(), Severity::Expected);
}

#[test]
fn scrub_requires_durable_storage() {
    let mut db = Database::new(Dialect::Sqlite);
    assert!(
        db.scrub().is_err(),
        "volatile engines have nothing to scrub"
    );
}

#[test]
fn recovered_ordered_indexes_equal_a_build_over_the_recovered_rows() {
    // Recovery keeps every ordered index in step with each replayed row
    // write instead of rebuilding it afterwards, and `dump_state` does
    // not show index data. So at every crash point of the indexed
    // snapshot-plus-suffix scenario, clean and under each recovery
    // mutant, each recovered index must equal one built afresh over the
    // recovered rows.
    use coddb::index::OrdIndex;
    use coddb::recovery::write_phase;
    use coddb::wal::MediaPlan;
    use coddb::RecoveryBugId;
    let script = parse(
        "CREATE TABLE t (k INT, s TEXT);
         CREATE INDEX ik ON t (k);
         INSERT INTO t VALUES (1, 'a'), (NULL, 'b'), (2, NULL), (2, 'c'), (5, 'd');
         UPDATE t SET k = 4 WHERE s = 'c';
         INSERT INTO t VALUES (0, 'e'), (2, 'f'), (NULL, 'g');
         DELETE FROM t WHERE k = 5",
    );
    let checkpoints = &[2usize];
    let registries = std::iter::once(("clean", BugRegistry::none())).chain(
        RecoveryBugId::ALL
            .into_iter()
            .map(|b| (b.name(), BugRegistry::only(b))),
    );
    let mut checked = 0u32;
    for (label, bugs) in registries {
        let run = |plan: &FaultPlan| {
            let media = MediaPlan::none();
            write_phase(
                &script,
                checkpoints,
                plan,
                &media,
                Dialect::Sqlite,
                &bugs,
                None,
            )
            .1
        };
        let total = run(&FaultPlan::none()).ops();
        for op in 0..=total {
            for mode in [
                FaultMode::Lost,
                FaultMode::Torn { keep_sel: 5 },
                FaultMode::Corrupt { byte_sel: 2 },
            ] {
                let w = run(&FaultPlan { crash_op: op, mode });
                let Ok(rec) = recover(w.image(), w.snapshot_image(), Dialect::Sqlite, &bugs) else {
                    continue;
                };
                let cat = rec.catalog();
                for name in cat.index_names() {
                    let ix = cat.index(name).unwrap();
                    let Some(data) = &ix.data else { continue };
                    let built = OrdIndex::build(cat.table(&ix.table).unwrap(), data.cols.clone());
                    assert_eq!(
                        data, &built,
                        "{label}, op {op}, {mode:?}: index {name} differs from a rebuild"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "no recovered index was checked");
}
