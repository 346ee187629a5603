//! Property-based hostile-image fuzzing of the recovery pipeline.
//!
//! The recovery path consumes disk images written by a crashed process —
//! nothing about them can be trusted. These properties feed
//! [`coddb::recovery::scan_log`], [`scan_snapshots`] and [`recover`]
//! arbitrary byte soup, truncations of genuine images, and bit-flipped
//! genuine images, and assert the pipeline *never panics*: every input is
//! answered with `Ok` (clean truncation at the first damaged frame) or a
//! structured `Err` — the scan/replay layer must not index out of bounds,
//! overflow a length read, or over-allocate on a hostile frame header.
//! On damaged genuine images they also check that scrub and the scans
//! read the same frames.

use proptest::prelude::*;

use coddb::bugs::{BugRegistry, MediaBugId};
use coddb::recovery::{recover, scan_log, scan_snapshots, scrub_images};
use coddb::wal::StorageMode;
use coddb::{Database, Dialect, StorageSite};

/// A genuine checkpointed run: returns `(log_image, snapshot_image)`.
fn genuine_images(seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut db = Database::new(Dialect::ALL[(seed % 5) as usize]);
    db.set_storage_mode(StorageMode::Durable);
    db.execute_sql(
        "CREATE TABLE t0 (c0 INT, c1 TEXT);
         INSERT INTO t0 VALUES (1, 'a'), (2, 'b'), (3, 'c')",
    )
    .unwrap();
    db.checkpoint().unwrap();
    db.execute_sql(
        "UPDATE t0 SET c1 = 'z' WHERE c0 >= 2;
         DELETE FROM t0 WHERE c0 = 2;
         INSERT INTO t0 VALUES (4, NULL)",
    )
    .unwrap();
    let w = db.wal().unwrap();
    (w.image().to_vec(), w.snapshot_image().to_vec())
}

/// Scrub and recovery read the same frames: a log scan that succeeds
/// keeps exactly the frames scrub verifies, and a snapshot image scrub
/// finds nothing wrong with scans to sealed snapshots only.
fn assert_scrub_reads_the_scanned_frames(log: &[u8], snap: &[u8], bugs: &BugRegistry) {
    let report = scrub_images(log, snap, bugs);
    if let Ok(records) = scan_log(log, bugs) {
        assert_eq!(records.len(), report.log_frames, "{:?}", report.findings);
    }
    let snaps = scan_snapshots(snap, bugs);
    if report
        .findings
        .iter()
        .all(|f| f.site != StorageSite::Snapshot)
    {
        assert!(
            snaps.is_ok_and(|snaps| snaps.iter().all(|s| s.sealed)),
            "scrub found no snapshot damage, but the scan disagrees"
        );
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_scanners(
        log in prop::collection::vec(any::<u8>(), 0..256),
        snap in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let bugs = BugRegistry::none();
        // Err or Ok both fine; panics/aborts are the only failure.
        let _ = scan_log(&log, &bugs);
        let _ = scan_snapshots(&snap, &bugs);
        let _ = recover(&log, &snap, Dialect::Sqlite, &bugs);
    }

    #[test]
    fn truncations_of_genuine_images_scan_to_a_clean_prefix(
        seed in any::<u64>(),
        cut_log in any::<u64>(),
        cut_snap in any::<u64>(),
    ) {
        let bugs = BugRegistry::none();
        let (log, snap) = genuine_images(seed);
        let full = scan_log(&log, &bugs).unwrap();
        let log_cut = &log[..(cut_log as usize) % (log.len() + 1)];
        let snap_cut = &snap[..(cut_snap as usize) % (snap.len() + 1)];
        // A truncated genuine log scans to a *prefix* of the full record
        // stream — torn tails drop records, never invent or reorder them.
        let part = scan_log(log_cut, &bugs).unwrap();
        prop_assert!(part.len() <= full.len());
        for (a, b) in part.iter().zip(full.iter()) {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_scrub_reads_the_scanned_frames(log_cut, snap_cut, &bugs);
        let _ = recover(log_cut, snap_cut, Dialect::Sqlite, &bugs);
    }

    #[test]
    fn bit_flips_in_genuine_images_never_panic_recovery(
        seed in any::<u64>(),
        flip_log in any::<u64>(),
        flip_snap in any::<u64>(),
    ) {
        let bugs = BugRegistry::none();
        let (mut log, mut snap) = genuine_images(seed);
        if !log.is_empty() {
            let i = (flip_log as usize / 8) % log.len();
            log[i] ^= 1 << (flip_log % 8);
        }
        if !snap.is_empty() {
            let i = (flip_snap as usize / 8) % snap.len();
            snap[i] ^= 1 << (flip_snap % 8);
        }
        assert_scrub_reads_the_scanned_frames(&log, &snap, &bugs);
        let _ = recover(&log, &snap, Dialect::Sqlite, &bugs);
    }

    #[test]
    fn hostile_frame_headers_never_panic_or_overallocate(
        len_word in any::<u32>(),
        crc_word in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        // A frame header promising up to 4 GiB of payload over a tiny
        // image must be rejected by bounds checks, not trusted by an
        // allocation or a slice index.
        let bugs = BugRegistry::none();
        let mut img = Vec::new();
        img.extend_from_slice(&len_word.to_le_bytes());
        img.extend_from_slice(&crc_word.to_le_bytes());
        img.extend_from_slice(&tail);
        let _ = scan_log(&img, &bugs);
        let _ = scan_snapshots(&img, &bugs);
        let _ = recover(&img, &img, Dialect::Sqlite, &bugs);
    }

    #[test]
    fn mid_log_bit_flips_satisfy_detect_or_identical(
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        // At-rest corruption anywhere in the log must be *detected* (scrub
        // finding or a structured recovery error) or *harmless* (recovery
        // byte-identical to the un-flipped baseline). A clean scrub paired
        // with a divergent recovery is the silent-wrong-recovery failure
        // mode this suite exists to catch.
        let bugs = BugRegistry::none();
        let (log, snap) = genuine_images(seed);
        let dialect = Dialect::ALL[(seed % 5) as usize];
        let base = recover(&log, &snap, dialect, &bugs).unwrap();
        let mut rotted = log.clone();
        prop_assert!(!rotted.is_empty());
        let i = (flip as usize / 8) % rotted.len();
        rotted[i] ^= 1 << (flip % 8);
        let report = scrub_images(&rotted, &snap, &bugs);
        match recover(&rotted, &snap, dialect, &bugs) {
            Err(_) => {} // detected: structured error
            Ok(db) => {
                if report.clean() {
                    prop_assert_eq!(
                        db.dump_state(),
                        base.dump_state(),
                        "undetected log bit flip changed the recovered state"
                    );
                }
            }
        }
    }

    #[test]
    fn mid_snapshot_bit_flips_satisfy_detect_or_identical(
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let bugs = BugRegistry::none();
        let (log, snap) = genuine_images(seed);
        let dialect = Dialect::ALL[(seed % 5) as usize];
        let base = recover(&log, &snap, dialect, &bugs).unwrap();
        let mut rotted = snap.clone();
        prop_assert!(!rotted.is_empty());
        let i = (flip as usize / 8) % rotted.len();
        rotted[i] ^= 1 << (flip % 8);
        let report = scrub_images(&log, &rotted, &bugs);
        match recover(&log, &rotted, dialect, &bugs) {
            Err(_) => {}
            Ok(db) => {
                if report.clean() {
                    prop_assert_eq!(
                        db.dump_state(),
                        base.dump_state(),
                        "undetected snapshot bit flip changed the recovered state"
                    );
                }
            }
        }
    }

    #[test]
    fn scrub_never_panics_under_any_media_mutant(
        log in prop::collection::vec(any::<u8>(), 0..128),
        snap in prop::collection::vec(any::<u8>(), 0..128),
        which in any::<u64>(),
    ) {
        // Media mutants weaken scrub and salvage validation, widening the
        // set of bytes that reach the decoders — no panic allowed anywhere.
        let bug = MediaBugId::ALL[(which as usize) % MediaBugId::ALL.len()];
        let bugs = BugRegistry::only_media(bug);
        let _ = scan_log(&log, &bugs);
        let _ = scan_snapshots(&snap, &bugs);
        let _ = scrub_images(&log, &snap, &bugs);
        let _ = recover(&log, &snap, Dialect::Sqlite, &bugs);
    }

    #[test]
    fn scanners_never_panic_under_any_recovery_mutant(
        log in prop::collection::vec(any::<u8>(), 0..128),
        snap in prop::collection::vec(any::<u8>(), 0..128),
        which in any::<u64>(),
    ) {
        // Mutants weaken validation (e.g. skipping checksum verification),
        // which widens the set of images that reach the decoder — the
        // no-panic guarantee must survive every one of them.
        let bug = coddb::RecoveryBugId::ALL[(which as usize) % coddb::RecoveryBugId::ALL.len()];
        let bugs = BugRegistry::only_recovery(bug);
        let _ = scan_log(&log, &bugs);
        let _ = scan_snapshots(&snap, &bugs);
        let _ = recover(&log, &snap, Dialect::Sqlite, &bugs);
    }
}
