//! Crash-recovery differential testing over checkpointed storage: find a
//! checkpoint-path recovery bug end to end.
//!
//! This walks the full durable-storage pipeline: a checkpoint taken
//! mid-script (snapshot serialized to its own disk, marker logged, log
//! truncated), a crash injected in the log suffix past the checkpoint,
//! recovery from snapshot + suffix — then an engine whose recovery path
//! carries an injected checkpoint mutant, a `recover`-oracle campaign
//! whose seeded crash points land inside snapshot writes and truncations
//! too, attribution back to the recovery mutant, and reduction of the
//! crash scenario along all four axes (script, checkpoint schedule,
//! fault plan, media plan).
//!
//! It then walks the media-fault axis end to end: at-rest bit rot in the
//! log image, a scrub that quarantines the damage, the salvage-vs-fail-
//! stop recovery policies, and a campaign that catches a media mutant
//! (salvage replaying *past* the damage) and attributes it into its own
//! mutant family.
//!
//! Run with: `cargo run --example crash_recovery`

use coddb::bugs::BugRegistry;
use coddb::recovery::{
    recover_detailed, recover_with_policy, recovery_divergence, scrub_images, write_phase,
    RecoveryPolicy,
};
use coddb::wal::{FaultMode, FaultPlan, MediaPlan, FRAME_HEADER};
use coddb::{Dialect, MediaBugId, RecoveryBugId};
use coddtest::reduce::{recovery_still_failing, reduce_recovery, RecoveryCase};
use coddtest::runner::{attribute_bugs, run_campaign, CampaignConfig};

fn main() {
    // 1. The happy path: execute durably, checkpoint mid-script, crash in
    //    the suffix, and recover from snapshot + log suffix — not genesis.
    let script = coddb::parser::parse_statements(
        "CREATE TABLE accounts (id INT, balance INT);
         INSERT INTO accounts VALUES (1, 100), (2, 250), (3, 40);
         UPDATE accounts SET balance = balance + 10 WHERE id = 3;
         INSERT INTO accounts VALUES (4, 75);
         DELETE FROM accounts WHERE balance < 60",
    )
    .unwrap();
    let checkpoints = [2usize]; // checkpoint after the UPDATE

    // Dry run to learn how many disk operations the checkpointed run
    // makes, then crash on the very last one (stmt 4's commit marker).
    let run = |plan: &FaultPlan| {
        let (media, bugs) = (MediaPlan::none(), BugRegistry::none());
        let (_, wal) = write_phase(
            &script,
            &checkpoints,
            plan,
            &media,
            Dialect::Sqlite,
            &bugs,
            None,
        );
        wal
    };
    let dry = run(&FaultPlan::none());
    assert_eq!(dry.committed_statements(), script.len() as u64);
    let total_ops = dry.ops();
    let wal = run(&FaultPlan {
        crash_op: total_ops - 1,
        mode: FaultMode::Lost,
    });
    println!(
        "crashed at op {}/{}: log {} bytes, snapshot {} bytes, durable snapshot at stmt {:?}",
        total_ops - 1,
        total_ops,
        wal.image().len(),
        wal.snapshot_image().len(),
        wal.durable_snapshot_stmts()
    );
    let (recovered, info) = recover_detailed(
        wal.image(),
        wal.snapshot_image(),
        Dialect::Sqlite,
        &BugRegistry::none(),
    )
    .unwrap();
    println!(
        "recovered from snapshot at stmt {:?} + {} suffix record(s) ({} snapshot(s) scanned):",
        info.snapshot_stmts, info.log_records, info.snapshots_scanned
    );
    let mut recovered = recovered;
    let rel = recovered
        .query_sql("SELECT id, balance FROM accounts")
        .unwrap();
    for row in &rel.rows {
        println!("  account {} balance {}", row[0], row[1]);
    }
    assert!(
        info.snapshot_stmts.is_some(),
        "must not fall back to genesis"
    );
    println!();

    // 2. Inject a checkpoint-path mutant: recovery prefers the *oldest*
    //    sealed snapshot, silently rolling the database back in time.
    let bug = RecoveryBugId::StaleSnapshotPreferred;
    println!(
        "injected recovery bug: {} — {}\n",
        bug.name(),
        bug.description()
    );

    // 3. Campaign: each test generates a schema + DML script, draws a
    //    seeded checkpoint schedule, executes it durably, crashes the
    //    storage at a seeded operation (which may land inside a snapshot
    //    write or the truncation step), recovers from the surviving
    //    snapshot + log images, and compares against a never-crashed
    //    engine holding exactly the committed prefix.
    let cfg = CampaignConfig {
        bugs: BugRegistry::only(bug),
        tests: 2_000,
        stop_on_first_bug: true,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    let mut oracle = coddtest::make_oracle("recover").expect("recover oracle");
    let mut result = run_campaign(oracle.as_mut(), &cfg);
    let finding = result.findings.first().expect("campaign finds the bug");
    println!(
        "found after {} tests at (state {}, test {}):",
        result.tests_run, finding.state_idx, finding.test_idx
    );
    println!("{}\n", finding.report.to_display());

    // 4. Attribute: re-run the finding's coordinates under each enabled
    //    mutant alone — it must reproduce under the recovery mutant.
    attribute_bugs(&mut result, &cfg, "recover");
    let finding = &result.findings[0];
    println!("attributed to: {:?}\n", finding.attributed_recovery);
    assert!(finding.attributed_recovery.contains(&bug));

    // 5. Reduce a hand-written crash scenario: shrink the script, drop
    //    checkpoints, and simplify the fault plan while recovery still
    //    diverges. The stale-snapshot mutant needs two checkpoints to
    //    misbehave, so reduction must keep exactly two.
    let case = RecoveryCase {
        script: coddb::parser::parse_statements(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1);
             CREATE TABLE noise (z TEXT);
             INSERT INTO t VALUES (2);
             INSERT INTO noise VALUES ('x')",
        )
        .unwrap(),
        checkpoints: vec![0, 1, 3],
        plan: FaultPlan {
            crash_op: 40,
            mode: FaultMode::Corrupt { byte_sel: 0 },
        },
        media: MediaPlan::none(),
    };
    let bugs = BugRegistry::only(bug);
    assert!(recovery_still_failing(&case, Dialect::Sqlite, &bugs));
    let reduced = reduce_recovery(&case, Dialect::Sqlite, &bugs);
    println!(
        "reduced: {} -> {} statement(s), checkpoints {:?} -> {:?}, plan {} -> {}",
        case.script.len(),
        reduced.script.len(),
        case.checkpoints,
        reduced.checkpoints,
        case.plan.describe(),
        reduced.plan.describe()
    );
    for s in &reduced.script {
        println!("  {s};");
    }
    assert!(recovery_divergence(
        &reduced.script,
        &reduced.checkpoints,
        &reduced.plan,
        &MediaPlan::none(),
        Dialect::Sqlite,
        &bugs
    )
    .is_some());
    println!("\nreduced scenario still recovers incorrectly.\n");

    // 6. The media-fault axis: rot a bit in the *at-rest* log image — the
    //    kind of corruption no write-path check could have seen — then
    //    scrub, and contrast the two recovery policies. The clean run
    //    from step 1's dry engine committed all five statements.
    let mut log = dry.image().to_vec();
    let snap = dry.snapshot_image().to_vec();
    log[FRAME_HEADER] ^= 0x04; // first payload byte of the first suffix frame
    let report = scrub_images(&log, &snap, &BugRegistry::none());
    println!(
        "scrub after bit rot: {} log frame(s), {} snapshot frame(s), {} finding(s):",
        report.log_frames,
        report.snapshot_frames,
        report.findings.len()
    );
    for f in &report.findings {
        println!(
            "  [{}] {:?} at offset {}: {}",
            if f.tail { "tail" } else { "DAMAGE" },
            f.site,
            f.offset,
            f.reason
        );
    }
    assert!(!report.clean(), "scrub must quarantine the rot");

    // Fail-stop refuses the damaged image outright; salvage truncates at
    // the damage and recovers a committed *prefix* — here the snapshot
    // state, with the rotted log suffix dropped.
    let failstop = recover_with_policy(
        &log,
        &snap,
        Dialect::Sqlite,
        &BugRegistry::none(),
        RecoveryPolicy::FailStop,
    );
    match &failstop {
        Err(e) => println!("fail-stop: refused the image: {e}"),
        Ok(_) => panic!("fail-stop must refuse non-tail damage"),
    }
    let (mut salvaged, sinfo) = recover_with_policy(
        &log,
        &snap,
        Dialect::Sqlite,
        &BugRegistry::none(),
        RecoveryPolicy::Salvage,
    )
    .expect("salvage recovers a prefix");
    let rel = salvaged
        .query_sql("SELECT id, balance FROM accounts")
        .unwrap();
    println!(
        "salvage: recovered from snapshot at stmt {:?}, dropped the rotted suffix, {} row(s):",
        sinfo.snapshot_stmts,
        rel.rows.len()
    );
    for row in &rel.rows {
        println!("  account {} balance {}", row[0], row[1]);
    }
    println!();

    // 7. A media mutant — salvage that replays *past* a corrupt frame,
    //    resurrecting effects the damage should have quarantined — is
    //    hunted by the same `recover` campaign: its seeded media axis
    //    flips bits, injects read faults and fills the disk, and the
    //    detect-or-identical oracle flags any fault that is neither.
    let mbug = MediaBugId::SalvagePastCorruptCommit;
    println!(
        "injected media bug: {} — {}\n",
        mbug.name(),
        mbug.description()
    );
    let cfg = CampaignConfig {
        bugs: BugRegistry::only(mbug),
        tests: 2_000,
        stop_on_first_bug: true,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    let mut oracle = coddtest::make_oracle("recover").expect("recover oracle");
    let mut result = run_campaign(oracle.as_mut(), &cfg);
    let finding = result.findings.first().expect("campaign finds the bug");
    println!(
        "found after {} tests at (state {}, test {}):",
        result.tests_run, finding.state_idx, finding.test_idx
    );
    println!("{}\n", finding.report.to_display());
    attribute_bugs(&mut result, &cfg, "recover");
    let finding = &result.findings[0];
    println!(
        "attributed to media mutant(s): {:?}",
        finding.attributed_media
    );
    assert!(finding.attributed_media.contains(&mbug));
    assert!(finding.attributed_recovery.is_empty() && finding.attributed.is_empty());
    println!("\nmedia fault detected, attributed and reproducible — done.");
}
