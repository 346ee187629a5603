//! Crash recovery: load the newest sealed snapshot, then replay the WAL
//! suffix into it.
//!
//! Both scans and [`scrub_images`] read images through `wal::frames`, the
//! only frame reader, and keep only their own policy for what a damaged
//! frame means. Recovery is three-phase, like a real checkpointing
//! redo-WAL:
//!
//! 1. **Snapshot scan** ([`scan_snapshots`]) walks the snapshot file's
//!    frames, groups them into [`Snapshot`]s (a `SnapshotBegin` … body …
//!    `SnapshotEnd` run is *sealed* only when the end marker matches the
//!    begin marker's `stmt_idx` and its declared record count; scrub
//!    checks seals with the same grouping), and recovery bases itself on
//!    the **newest sealed** snapshot — an unsealed trailing snapshot is a
//!    writer that died mid-checkpoint and must be ignored, falling back
//!    to the previous sealed snapshot or genesis.
//! 2. **Log scan** ([`scan_log`]) walks the surviving log image frame by
//!    frame. The scan stops — truncating the log — at the first
//!    incomplete header, truncated payload, or checksum mismatch:
//!    everything past the damage is, by the fault model, the torn tail of
//!    the crashing write.
//! 3. **Replay** buffers effect records per statement and applies them
//!    only when the statement's commit marker is reached; commits the
//!    snapshot already covers (`stmt_idx <` the snapshot's coverage)
//!    discard their effects instead of double-applying. Effects whose
//!    commit never became durable are discarded — recovery reconstructs
//!    *exactly* the committed prefix, byte-identical to a never-crashed
//!    engine that executed only those statements, whether the base is a
//!    snapshot or genesis.
//!
//! The [`RecoveryBugId`] mutants are seeded into these phases the way
//! [`crate::bugs::BugId`] mutants are seeded into the planner/executor, so
//! campaigns can hunt recovery bugs the way they hunt optimizer bugs.

use crate::bugs::{BugRegistry, MediaBugId, RecoveryBugId};
use crate::database::Database;
use crate::dialect::Dialect;
use crate::error::{Error, Result, StorageError, StorageFaultKind, StorageSite};
use crate::value::Row;
use crate::wal::{
    decode_record, frames, FaultPlan, Frame, MediaPlan, StorageMode, WalRecord, READ_RETRY_CAP,
};

/// Parse the surviving log image into the sequence of intact records,
/// truncating at the first sign of damage.
pub fn scan_log(image: &[u8], bugs: &BugRegistry) -> Result<Vec<WalRecord>> {
    let mut out = Vec::new();
    for (_, frame) in frames(image) {
        match frame {
            // Dangling header bytes: the tail of a write that died before
            // even its length prefix was complete.
            Frame::DanglingHeader(rest) => {
                if bugs.recovery_active(RecoveryBugId::TornTailAsComplete) {
                    return Err(Error::Internal(format!(
                        "wal scan: {} dangling tail byte(s) decoded as a record",
                        rest.len()
                    )));
                }
            }
            // Torn payload: the final frame is shorter than its own length
            // prefix claims.
            Frame::TornPayload { present, .. } => {
                if bugs.recovery_active(RecoveryBugId::TornTailAsComplete) {
                    out.push(decode_record(present).map_err(|e| {
                        Error::Internal(format!("wal scan: torn tail decoded as complete: {e}"))
                    })?);
                }
            }
            Frame::Whole { payload, intact } => {
                if !intact && !bugs.recovery_active(RecoveryBugId::SkipChecksumVerify) {
                    if bugs.media_active(MediaBugId::SalvagePastCorruptCommit) {
                        // Mutant: salvage skips the damaged frame and keeps
                        // scanning, replaying records *past* the corruption
                        // — the suffix may now describe effects whose
                        // context is gone.
                        continue;
                    }
                    // Checksum mismatch: the crashing write landed
                    // full-length but damaged. Truncate here — salvage may
                    // drop a suffix, never replay across damage.
                    break;
                }
                out.push(
                    decode_record(payload).map_err(|e| {
                        Error::Internal(format!("wal scan: undecodable record: {e}"))
                    })?,
                );
            }
        }
    }
    Ok(out)
}

/// One snapshot parsed out of the snapshot file: its declared statement
/// coverage, its body records, and whether its end marker sealed it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The first `stmt_idx` commits are contained in this snapshot.
    pub stmt_idx: u64,
    /// The serialized state: DDL history in execution order, then each
    /// table's rows.
    pub body: Vec<WalRecord>,
    /// A matching [`WalRecord::SnapshotEnd`] (same `stmt_idx`, correct
    /// record count) made this snapshot durable. Unsealed snapshots are
    /// writers that died mid-checkpoint.
    pub sealed: bool,
}

/// Parse the snapshot file into its snapshots, oldest first. The walk
/// truncates at the first damaged frame (which, by the fault model, can
/// only be the trailing write of the crashing checkpoint), and stray
/// frames outside a `SnapshotBegin`/`SnapshotEnd` pair are skipped — a
/// hostile image must produce an error or a clean parse, never a panic.
pub fn scan_snapshots(image: &[u8], bugs: &BugRegistry) -> Result<Vec<Snapshot>> {
    let mut records = Vec::new();
    for (offset, frame) in frames(image) {
        // A torn or dangling trailing frame: the checkpoint writer died
        // mid-write.
        let Frame::Whole { payload, intact } = frame else {
            break;
        };
        if !intact && !bugs.recovery_active(RecoveryBugId::SkipSnapshotChecksum) {
            break;
        }
        let rec = decode_record(payload)
            .map_err(|e| Error::Internal(format!("snapshot scan: undecodable record: {e}")))?;
        records.push((offset, rec));
    }
    Ok(group_snapshots(records).0)
}

/// Group the snapshot file's records, each tagged with its frame's byte
/// offset, into [`Snapshot`]s, oldest first, and report every break of
/// the `SnapshotBegin` … body … `SnapshotEnd` structure as a
/// [`ScrubFinding`] at the offending frame. A begin while a group is open
/// abandons the open group (it never sealed); an end seals the open group
/// only when its `stmt_idx` and record count match the group's; stray
/// ends and body records outside a group are skipped. Only a *trailing*
/// unsealed group is a crash artifact (reported at its begin frame);
/// every other finding is damage.
fn group_snapshots(records: Vec<(usize, WalRecord)>) -> (Vec<Snapshot>, Vec<ScrubFinding>) {
    let mut snaps = Vec::new();
    let mut findings = Vec::new();
    let mut damage = |offset, reason| {
        findings.push(ScrubFinding {
            site: StorageSite::Snapshot,
            offset,
            reason,
            tail: false,
        })
    };
    // The open group, with its begin frame's offset.
    let mut open: Option<(usize, Snapshot)> = None;
    for (offset, rec) in records {
        match rec {
            WalRecord::SnapshotBegin { stmt_idx } => {
                if let Some((_, abandoned)) = open.take() {
                    damage(
                        offset,
                        "snapshot group abandoned by a new begin (never sealed)".into(),
                    );
                    snaps.push(abandoned);
                }
                let snap = Snapshot {
                    stmt_idx,
                    body: Vec::new(),
                    sealed: false,
                };
                open = Some((offset, snap));
            }
            WalRecord::SnapshotEnd { stmt_idx, records } => match open.take() {
                Some((_, mut snap)) => {
                    let (begin, count) = (snap.stmt_idx, snap.body.len() as u64);
                    snap.sealed = begin == stmt_idx && count == records;
                    if !snap.sealed {
                        damage(
                            offset,
                            format!(
                                "snapshot seal mismatch: begin stmt_idx={begin} with {count} \
                                 record(s), seal declares stmt_idx={stmt_idx} with {records}"
                            ),
                        );
                    }
                    snaps.push(snap);
                }
                None => damage(offset, "stray snapshot seal with no open group".into()),
            },
            body => match open.as_mut() {
                Some((_, snap)) => snap.body.push(body),
                None => damage(offset, "stray record outside any snapshot group".into()),
            },
        }
    }
    if let Some((begin, snap)) = open {
        findings.push(ScrubFinding {
            site: StorageSite::Snapshot,
            offset: begin,
            reason: "trailing unsealed snapshot (writer died mid-checkpoint)".into(),
            tail: true,
        });
        snaps.push(snap);
    }
    (snaps, findings)
}

/// Pick the recovery base among the scanned snapshots: the newest sealed
/// one, or `None` for genesis. The checkpoint-path mutants hook here.
fn choose_snapshot<'a>(snaps: &'a [Snapshot], bugs: &BugRegistry) -> Option<&'a Snapshot> {
    if bugs.recovery_active(RecoveryBugId::AcceptTornSnapshot) {
        // Mutant: a trailing unsealed snapshot (writer died mid-
        // checkpoint) is used as the base anyway.
        if let Some(last) = snaps.last() {
            if !last.sealed {
                return Some(last);
            }
        }
    }
    let mut sealed = snaps.iter().filter(|s| s.sealed);
    if bugs.recovery_active(RecoveryBugId::StaleSnapshotPreferred) {
        // Mutant: the oldest sealed snapshot wins instead of the newest.
        return sealed.next();
    }
    sealed.next_back()
}

/// Rebuild the snapshot's state into `db` by applying its body records in
/// order: the DDL history re-executes, then the physical rows land.
fn apply_snapshot(db: &mut Database, snap: &Snapshot) -> Result<()> {
    for rec in &snap.body {
        apply_effect(db, rec).map_err(|e| Error::Internal(format!("snapshot replay: {e}")))?;
    }
    Ok(())
}

/// Apply one effect record to the recovered store. DML effects are
/// physical; DDL re-executes its logged SQL against the recovered catalog.
fn apply_effect(db: &mut Database, rec: &WalRecord) -> Result<()> {
    match rec {
        WalRecord::Ddl { sql } => {
            let stmts = crate::parser::parse_statements(sql)
                .map_err(|e| Error::Internal(format!("wal replay: DDL does not re-parse: {e}")))?;
            for s in &stmts {
                db.execute(s).map_err(|e| {
                    Error::Internal(format!("wal replay: DDL does not re-execute: {e}"))
                })?;
            }
            Ok(())
        }
        WalRecord::InsertRow { table, row } => {
            let t = db.catalog_mut().table_mut(table)?;
            t.rows.push(Row::new(row.clone()));
            Ok(())
        }
        WalRecord::UpdateRow {
            table,
            row_idx,
            cols,
            vals,
        } => {
            let t = db.catalog_mut().table_mut(table)?;
            let i = *row_idx as usize;
            if i >= t.rows.len() {
                return Err(Error::Internal(format!(
                    "wal replay: update of row {i} but table {table} has {} rows",
                    t.rows.len()
                )));
            }
            for (c, v) in cols.iter().zip(vals.iter()) {
                let ci = *c as usize;
                if ci >= t.columns.len() {
                    return Err(Error::Internal(format!(
                        "wal replay: update of column {ci} but table {table} has {} columns",
                        t.columns.len()
                    )));
                }
                t.rows[i].set(ci, v.clone());
            }
            Ok(())
        }
        WalRecord::DeleteRows { table, rows } => {
            let t = db.catalog_mut().table_mut(table)?;
            for &r in rows.iter().rev() {
                let i = r as usize;
                if i >= t.rows.len() {
                    return Err(Error::Internal(format!(
                        "wal replay: delete of row {i} but table {table} has {} rows",
                        t.rows.len()
                    )));
                }
                t.rows.remove(i);
            }
            Ok(())
        }
        WalRecord::Commit { .. } => Err(Error::Internal(
            "wal replay: commit marker reached apply_effect".into(),
        )),
        // Checkpoint and snapshot markers are never effects; a hostile
        // image that smuggles one into an effect position must produce an
        // error, not a panic or a silent state change.
        WalRecord::CheckpointComplete { .. } => Err(Error::Internal(
            "wal replay: checkpoint marker reached apply_effect".into(),
        )),
        WalRecord::SnapshotBegin { .. } | WalRecord::SnapshotEnd { .. } => Err(Error::Internal(
            "wal replay: snapshot marker reached apply_effect".into(),
        )),
    }
}

/// Replay scanned log records into `db` on top of a base state covering
/// the first `base_stmts` commits (`None` = genesis). Effects buffer per
/// statement and apply at their commit marker; commits the base already
/// contains discard their effects (a truncation that never happened must
/// not double-apply); uncommitted effects are discarded.
fn replay_into(
    db: &mut Database,
    base_stmts: Option<u64>,
    records: &[WalRecord],
    bugs: &BugRegistry,
) -> Result<()> {
    let last_commit = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Commit { .. }));
    let mut pending: Vec<&WalRecord> = Vec::new();
    // Commits applied on top of the base must be contiguous. A gap means
    // the image lost a committed statement in the middle (at-rest damage,
    // or a rotted seal forcing fallback to a stale base): replaying past
    // it would apply effects whose context is gone. Drop the suffix — a
    // sound salvage never resurrects effects past missing history.
    let mut next = base_stmts.unwrap_or(0);
    for (i, rec) in records.iter().enumerate() {
        match rec {
            WalRecord::Commit { stmt_idx } => {
                if let Some(base) = base_stmts {
                    if *stmt_idx < base
                        && !bugs.recovery_active(RecoveryBugId::ReplayFromWrongOffset)
                    {
                        // The snapshot already contains this statement:
                        // the log overlaps the base (a crash landed
                        // between the checkpoint marker and the
                        // truncation). Discard, don't double-apply.
                        pending.clear();
                        continue;
                    }
                }
                if bugs.recovery_active(RecoveryBugId::DropLastCommit) && Some(i) == last_commit {
                    // Mutant: the final durability point vanishes; its
                    // effects stay pending (i.e. uncommitted).
                    continue;
                }
                if *stmt_idx > next {
                    // Contiguity gap: statement `next` is missing from the
                    // replayable history. Salvage stops here.
                    pending.clear();
                    break;
                }
                if bugs.recovery_active(RecoveryBugId::ReorderCommitEffects) {
                    pending.reverse();
                }
                for e in pending.drain(..) {
                    apply_effect(db, e)?;
                }
                next = stmt_idx + 1;
            }
            // The checkpoint durability marker carries no effect; it
            // survives in the log only when the crash beat the truncation.
            WalRecord::CheckpointComplete { .. } => {}
            effect => pending.push(effect),
        }
    }
    if bugs.recovery_active(RecoveryBugId::ReplayUncommitted) {
        for e in pending.drain(..) {
            apply_effect(db, e)?;
        }
    }
    // Row effects were applied physically, bypassing the per-DML index
    // maintenance hooks: rebuild every ordered index from the recovered
    // rows. Deterministic — build order is catalog order, key order is
    // value order — so a recovered engine's seek behaviour is
    // byte-identical to the never-crashed reference's.
    db.catalog_mut().rebuild_index_data();
    Ok(())
}

/// What [`recover_detailed`] did, for assertions and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Statement coverage of the snapshot recovery based itself on, or
    /// `None` when it replayed from genesis.
    pub snapshot_stmts: Option<u64>,
    /// Snapshots parsed out of the snapshot file (sealed or not).
    pub snapshots_scanned: usize,
    /// Intact records parsed out of the log image.
    pub log_records: usize,
}

/// Recover a database from the surviving log and snapshot images: scan
/// the snapshot file, base on the newest sealed snapshot (genesis when
/// there is none — an empty `snap_image` is the pre-checkpoint world),
/// then replay the log suffix on top.
pub fn recover(
    log_image: &[u8],
    snap_image: &[u8],
    dialect: Dialect,
    bugs: &BugRegistry,
) -> Result<Database> {
    recover_detailed(log_image, snap_image, dialect, bugs).map(|(db, _)| db)
}

/// [`recover`], also reporting which base it chose and what it scanned.
pub fn recover_detailed(
    log_image: &[u8],
    snap_image: &[u8],
    dialect: Dialect,
    bugs: &BugRegistry,
) -> Result<(Database, RecoveryInfo)> {
    let snaps = scan_snapshots(snap_image, bugs)?;
    let base = choose_snapshot(&snaps, bugs);
    let mut db = Database::new(dialect);
    if let Some(s) = base {
        apply_snapshot(&mut db, s)?;
    }
    let records = scan_log(log_image, bugs)?;
    replay_into(&mut db, base.map(|s| s.stmt_idx), &records, bugs)?;
    let info = RecoveryInfo {
        snapshot_stmts: base.map(|s| s.stmt_idx),
        snapshots_scanned: snaps.len(),
        log_records: records.len(),
    };
    Ok((db, info))
}

/// The crash-recovery differential, shared by the `recover` oracle, the
/// reducer and the recovery suites: execute `script` on a durable engine
/// under the write-path crash `plan` and the orthogonal `media` plan,
/// calling [`Database::checkpoint`] after each statement index listed in
/// `checkpoints` (0-based; indices past the script are ignored), recover
/// the surviving images, and compare against a never-crashed, never-
/// checkpointed engine that executed only the committed prefix.
/// Returns `Some(detail)` on a divergence, `None` otherwise.
///
/// Both executions run under the same `bugs` registry, so injected
/// *engine* mutants corrupt both sides identically and cancel out; only
/// *recovery* and *media* mutants (or a genuine storage defect) can
/// produce a divergence.
///
/// **Crash-only contract** (`media` injects nothing): recovery must
/// succeed, base itself on exactly the newest snapshot whose seal became
/// durable before the crash ([`crate::wal::Wal::durable_snapshot_stmts`]
/// — recovering correct bytes from genesis when a valid checkpoint
/// survived is a divergence too), and reproduce the committed prefix
/// byte for byte. Any failure is a divergence.
///
/// **Detect-or-identical contract** (`media` injects at-rest bit rot, read
/// faults with bounded retry, or disk-full appends): every injected fault
/// is either **detected** (a scrub finding or a structured
/// [`StorageError`]) or **harmless** (the live writer and the recovered
/// engine are byte-identical to the committed prefix). When damage is
/// detected and the recovered state is not the full prefix, the salvage
/// must still equal *some* committed prefix — a recovered state matching
/// no prefix means salvage resurrected or corrupted effects past the
/// damage. Silent wrong recovery is the finding.
pub fn recovery_divergence(
    script: &[crate::ast::Statement],
    checkpoints: &[usize],
    plan: &FaultPlan,
    media: &MediaPlan,
    dialect: Dialect,
    bugs: &BugRegistry,
) -> Option<String> {
    let durable_run =
        |plan: FaultPlan, media: MediaPlan, ckpts: &[usize], stop_at: Option<u64>| -> Database {
            let mut db = Database::with_bugs(dialect, bugs.clone());
            db.set_storage_mode(StorageMode::Durable);
            db.set_fault_plan(plan);
            db.set_media_plan(media);
            for (i, s) in script.iter().enumerate() {
                if let Some(c) = stop_at {
                    if db.wal().map(|w| w.committed_statements()) == Some(c) {
                        break;
                    }
                }
                let _ = db.execute(s);
                if ckpts.contains(&i) {
                    let _ = db.checkpoint();
                }
            }
            db
        };
    // The committed-prefix oracle: the same script with no faults and no
    // checkpoints (a pure storage-layer operation), stopped after `k`
    // commits.
    let reference = |k: u64| -> Option<Database> {
        let db = durable_run(FaultPlan::none(), MediaPlan::none(), &[], Some(k));
        (db.wal().expect("durable").committed_statements() == k).then_some(db)
    };

    let faults = media.faults();
    let faulted = durable_run(plan.clone(), *media, checkpoints, None);
    let wal = faulted.wal().expect("durable");
    let committed = wal.committed_statements();
    let durable_snap = wal.durable_snapshot_stmts();
    let context = {
        let media = if faults {
            format!(", {}", media.describe())
        } else {
            String::new()
        };
        let site = wal
            .crash_site()
            .map(|s| format!(", crashed during {}", s.label()))
            .unwrap_or_default();
        let ckpts = if checkpoints.is_empty() {
            String::new()
        } else {
            format!(", checkpoints after stmts {checkpoints:?}")
        };
        format!("{}{media}{site}{ckpts}", plan.describe())
    };

    let Some(want) = reference(committed).map(|db| db.dump_state()) else {
        return Some(format!(
            "reference run cannot reach {committed} commits ({context})"
        ));
    };

    // Live-writer check: a media fault on the append path (disk full)
    // must abort the statement cleanly — the serving engine stays exactly
    // at the committed prefix. Only meaningful when the writer survived.
    if faults && !wal.crashed() {
        let live = faulted.dump_state();
        if live != want {
            return Some(format!(
                "writer state diverges from the committed prefix after a media fault \
                 (committed={committed}, {context}):\n--- expected ---\n{want}\n--- live ---\n{live}"
            ));
        }
    }

    // At-rest degradation between shutdown and recovery, on a copy of the
    // writer's disks: bit rot lands in the images, read faults arm on the
    // faulted site's disk (both are no-ops without a media fault).
    let mut at_rest = wal.clone();
    at_rest.degrade_at_rest();
    let must_fail = media.read_must_fail();
    let log_read = at_rest.read_log_image(bugs).map(<[u8]>::to_vec);
    let snap_read = at_rest.read_snapshot_image(bugs);
    let (log_bytes, snap_bytes) = match (log_read, snap_read) {
        (Ok(l), Ok(s)) => {
            if must_fail {
                // The fault cannot heal within the bounded schedule, yet
                // the read came back: the retry cap was ignored.
                return Some(format!(
                    "retry contract violated: a read that must exceed the retry cap \
                     (cap {READ_RETRY_CAP}) succeeded ({context})"
                ));
            }
            (l, s)
        }
        (Err(e), _) | (_, Err(e)) => {
            if must_fail {
                // Graceful fail-stop on an unreadable medium: detected.
                return None;
            }
            // A transient fault within the retry budget must heal.
            return Some(format!(
                "recovery failed: {} ({context})",
                Error::Storage(e)
            ));
        }
    };

    // Scrub decides detection, and only under a media fault: a crash's
    // torn tail is a finding too, but it never excuses a crash-only
    // divergence.
    let detected = faults && !scrub_images(&log_bytes, snap_bytes, bugs).clean();

    let (recovered, info) = match recover_detailed(&log_bytes, snap_bytes, dialect, bugs) {
        Ok(x) => x,
        // Fail-stop on damage scrub also saw: detected.
        Err(_) if detected => return None,
        Err(e) => return Some(format!("recovery failed: {e} ({context})")),
    };

    // With damage detected, it may legitimately have forced a different
    // snapshot base.
    if !detected && info.snapshot_stmts != durable_snap {
        return Some(format!(
            "recovery based itself on snapshot {:?} but the newest durable \
             snapshot covers {:?} ({context})",
            info.snapshot_stmts, durable_snap
        ));
    }

    let got = recovered.dump_state();
    if got == want {
        return None;
    }
    if !detected {
        let what = if faults {
            "silent wrong recovery: media damage went undetected and recovery diverged"
        } else {
            "recovered state diverges"
        };
        return Some(format!(
            "{what} from the committed prefix (committed={committed}, {context}):\n\
             --- expected ---\n{want}\n--- recovered ---\n{got}"
        ));
    }
    // Damage was detected and the full prefix is gone: the salvage must
    // equal SOME shorter committed prefix — never a state no committed
    // history ever produced.
    for k in (0..committed).rev() {
        if reference(k).is_some_and(|r| r.dump_state() == got) {
            return None;
        }
    }
    Some(format!(
        "salvage resurrected or corrupted state past the damage: recovered state \
         matches no committed prefix (committed={committed}, {context}):\n\
         --- committed prefix ---\n{want}\n--- recovered ---\n{got}"
    ))
}

/// One damaged or suspicious region found by [`scrub_images`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Which image the finding is in.
    pub site: StorageSite,
    /// Byte offset of the damaged frame (or region start) in its image.
    pub offset: usize,
    /// Human-readable diagnosis.
    pub reason: String,
    /// `true` when the damage is consistent with an ordinary crash
    /// artifact at the end of the image (torn tail, dangling header,
    /// unsealed trailing snapshot). Tail findings are quarantined but do
    /// not force fail-stop: recovery truncates them by design. Non-tail
    /// findings are mid-image damage only at-rest corruption can produce.
    pub tail: bool,
}

/// What [`Database::scrub`] / [`scrub_images`] verified and found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Intact frames verified in the log image.
    pub log_frames: usize,
    /// Intact frames verified in the snapshot image.
    pub snapshot_frames: usize,
    /// Damaged or suspicious regions, in image order (log first).
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// No findings at all: every frame checksum and snapshot seal
    /// verified, and no crash artifacts were present.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings that cannot be explained as crash artifacts — evidence of
    /// at-rest corruption (or a scrub mutant's blind spot).
    pub fn damage(&self) -> impl Iterator<Item = &ScrubFinding> {
        self.findings.iter().filter(|f| !f.tail)
    }
}

/// Walk one image frame by frame, verifying checksums, and decode what
/// verifies. Returns the decoded records tagged with their frames' byte
/// offsets; damage is appended to `findings`.
fn scrub_frames(
    site: StorageSite,
    image: &[u8],
    bugs: &BugRegistry,
    findings: &mut Vec<ScrubFinding>,
) -> Vec<(usize, WalRecord)> {
    let mut records = Vec::new();
    let mut walk = frames(image).peekable();
    while let Some((offset, frame)) = walk.next() {
        let finding = |reason, tail| ScrubFinding {
            site,
            offset,
            reason,
            tail,
        };
        match frame {
            Frame::DanglingHeader(rest) => findings.push(finding(
                format!("dangling frame header ({} byte(s))", rest.len()),
                true,
            )),
            Frame::TornPayload { declared, present } => findings.push(finding(
                format!(
                    "torn frame: payload declares {declared} byte(s), {} present",
                    present.len()
                ),
                true,
            )),
            Frame::Whole { payload, intact } => {
                if !intact && !bugs.media_active(MediaBugId::SkipScrubChecksum) {
                    findings.push(finding("frame checksum mismatch".into(), false));
                    if let Some(&(next, _)) = walk.peek() {
                        findings.push(ScrubFinding {
                            site,
                            offset: next,
                            reason: format!(
                                "unverifiable suffix ({} byte(s) past damaged frame)",
                                image.len() - next
                            ),
                            tail: false,
                        });
                    }
                    break;
                }
                match decode_record(payload) {
                    Ok(rec) => records.push((offset, rec)),
                    Err(e) => {
                        findings.push(finding(format!("undecodable record: {e}"), false));
                        break;
                    }
                }
            }
        }
    }
    records
}

/// Verify every frame checksum in both images and every snapshot seal,
/// producing a quarantine report. Scrub never mutates anything and never
/// panics on hostile bytes; it classifies each finding as a *tail*
/// artifact (an ordinary crashing write — recovery truncates these by
/// design) or mid-image *damage* (at-rest corruption). The
/// [`MediaBugId::SkipScrubChecksum`] mutant hooks the checksum step.
pub fn scrub_images(log_image: &[u8], snap_image: &[u8], bugs: &BugRegistry) -> ScrubReport {
    let mut findings = Vec::new();
    let log_frames = scrub_frames(StorageSite::Log, log_image, bugs, &mut findings).len();
    let snap_records = scrub_frames(StorageSite::Snapshot, snap_image, bugs, &mut findings);
    let snapshot_frames = snap_records.len();
    findings.extend(group_snapshots(snap_records).1);
    ScrubReport {
        log_frames,
        snapshot_frames,
        findings,
    }
}

/// What recovery does when scrub finds mid-image damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Recover the longest sound committed prefix, dropping an
    /// unreplayable suffix. Never replays across damage and never
    /// resurrects effects past a corrupt commit.
    #[default]
    Salvage,
    /// Refuse to recover at all when scrub reports mid-image damage:
    /// surface a structured [`StorageError`] instead. Tail artifacts
    /// (ordinary torn crashing writes) do not trigger fail-stop.
    FailStop,
}

/// [`recover_detailed`] behind a damage policy: `FailStop` scrubs first
/// and refuses damaged images with [`Error::Storage`]; `Salvage` is plain
/// [`recover_detailed`] (whose scan already truncates at damage).
pub fn recover_with_policy(
    log_image: &[u8],
    snap_image: &[u8],
    dialect: Dialect,
    bugs: &BugRegistry,
    policy: RecoveryPolicy,
) -> Result<(Database, RecoveryInfo)> {
    if policy == RecoveryPolicy::FailStop {
        let report = scrub_images(log_image, snap_image, bugs);
        let damage: Vec<&ScrubFinding> = report.damage().collect();
        if let Some(first) = damage.first() {
            return Err(Error::Storage(StorageError {
                site: first.site,
                kind: StorageFaultKind::Corrupted {
                    findings: damage.len(),
                },
            }));
        }
    }
    recover_detailed(log_image, snap_image, dialect, bugs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_record, FaultMode, Wal, FRAME_HEADER};

    fn durable_db() -> Database {
        let mut db = Database::new(Dialect::Sqlite);
        db.set_storage_mode(StorageMode::Durable);
        db
    }

    fn run_sql(db: &mut Database, sql: &str) {
        db.execute_sql(sql).unwrap();
    }

    #[test]
    fn clean_log_recovers_byte_identically() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z');
             CREATE INDEX i ON t (a);
             CREATE VIEW v (n) AS SELECT COUNT(*) FROM t;
             UPDATE t SET b = 'q' WHERE a > 1;
             DELETE FROM t WHERE a = 2",
        );
        let image = db.wal().unwrap().image().to_vec();
        let rec = recover(&image, &[], Dialect::Sqlite, &BugRegistry::none()).unwrap();
        assert_eq!(rec.dump_state(), db.dump_state());
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)",
        );
        let mut image = db.wal().unwrap().image().to_vec();
        // Append half of another frame by hand.
        let extra = {
            let mut w = Wal::new(FaultPlan {
                crash_op: 0,
                mode: FaultMode::Torn { keep_sel: 11 },
            });
            w.append(&WalRecord::InsertRow {
                table: "t".into(),
                row: vec![crate::value::Value::Int(9)],
            })
            .unwrap();
            w.image().to_vec()
        };
        image.extend_from_slice(&extra);
        let rec = recover(&image, &[], Dialect::Sqlite, &BugRegistry::none()).unwrap();
        assert_eq!(rec.dump_state(), db.dump_state());
    }

    #[test]
    fn checksum_mismatch_truncates_the_log() {
        let mut db = durable_db();
        run_sql(&mut db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)");
        let committed_image = db.wal().unwrap().image().to_vec();
        // A corrupted full-length frame after the good prefix.
        let mut image = committed_image.clone();
        let mut w = Wal::new(FaultPlan {
            crash_op: 0,
            mode: FaultMode::Corrupt { byte_sel: 3 },
        });
        w.append(&WalRecord::InsertRow {
            table: "t".into(),
            row: vec![crate::value::Value::Int(7)],
        })
        .unwrap();
        image.extend_from_slice(w.image());
        let rec = recover(&image, &[], Dialect::Sqlite, &BugRegistry::none()).unwrap();
        let reference =
            recover(&committed_image, &[], Dialect::Sqlite, &BugRegistry::none()).unwrap();
        assert_eq!(rec.dump_state(), reference.dump_state());
    }

    #[test]
    fn uncommitted_effects_are_discarded() {
        // Effects with no commit marker: build the image by hand.
        let mut w = Wal::new(FaultPlan::none());
        w.append(&WalRecord::Ddl {
            sql: "CREATE TABLE t (a INT)".into(),
        })
        .unwrap();
        w.commit_statement().unwrap();
        w.append(&WalRecord::InsertRow {
            table: "t".into(),
            row: vec![crate::value::Value::Int(1)],
        })
        .unwrap();
        // ... crash before the commit marker.
        let rec = recover(w.image(), &[], Dialect::Sqlite, &BugRegistry::none()).unwrap();
        assert_eq!(rec.catalog().table("t").unwrap().rows.len(), 0);

        // The ReplayUncommitted mutant applies them anyway.
        let buggy = recover(
            w.image(),
            &[],
            Dialect::Sqlite,
            &BugRegistry::only_recovery(RecoveryBugId::ReplayUncommitted),
        )
        .unwrap();
        assert_eq!(buggy.catalog().table("t").unwrap().rows.len(), 1);
    }

    #[test]
    fn reorder_mutant_reverses_multi_row_inserts() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3)",
        );
        let image = db.wal().unwrap().image().to_vec();
        let buggy = recover(
            &image,
            &[],
            Dialect::Sqlite,
            &BugRegistry::only_recovery(RecoveryBugId::ReorderCommitEffects),
        )
        .unwrap();
        let vals: Vec<_> = buggy.catalog().table("t").unwrap().rows.clone();
        assert_eq!(
            vals.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![
                crate::value::Value::Int(3),
                crate::value::Value::Int(2),
                crate::value::Value::Int(1)
            ]
        );
    }

    #[test]
    fn drop_last_commit_mutant_loses_the_final_statement() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO t VALUES (2)",
        );
        let image = db.wal().unwrap().image().to_vec();
        let buggy = recover(
            &image,
            &[],
            Dialect::Sqlite,
            &BugRegistry::only_recovery(RecoveryBugId::DropLastCommit),
        )
        .unwrap();
        assert_eq!(buggy.catalog().table("t").unwrap().rows.len(), 1);
    }

    #[test]
    fn skip_checksum_mutant_accepts_corrupt_records() {
        // A corrupted frame: clean scan truncates, mutant scan accepts
        // (decoding either garbage or an error — both are wrong).
        let mut w = Wal::new(FaultPlan {
            crash_op: 2,
            mode: FaultMode::Corrupt { byte_sel: 9 },
        });
        w.append(&WalRecord::Ddl {
            sql: "CREATE TABLE t (a INT)".into(),
        })
        .unwrap();
        w.commit_statement().unwrap();
        w.append(&WalRecord::InsertRow {
            table: "t".into(),
            row: vec![crate::value::Value::Int(5)],
        })
        .unwrap();
        let clean = scan_log(w.image(), &BugRegistry::none()).unwrap();
        assert_eq!(clean.len(), 2, "corrupt record truncated");
        let buggy = scan_log(
            w.image(),
            &BugRegistry::only_recovery(RecoveryBugId::SkipChecksumVerify),
        );
        match buggy {
            Ok(recs) => assert_ne!(
                recs.get(2),
                Some(&encode_record(&clean[0])).map(|_| &clean[0])
            ),
            Err(e) => assert!(e.to_string().contains("wal scan")),
        }
    }

    #[test]
    fn divergence_helper_is_clean_on_a_correct_engine() {
        let script = crate::parser::parse_statements(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1), (2), (3);
             UPDATE t SET a = a * 10 WHERE a >= 2;
             DELETE FROM t WHERE a = 20",
        )
        .unwrap();
        // Every crash point, every mode.
        let mut db = Database::new(Dialect::Sqlite);
        db.set_storage_mode(StorageMode::Durable);
        for s in &script {
            db.execute(s).unwrap();
        }
        let total = db.wal().unwrap().ops();
        assert!(total > 0);
        for op in 0..total {
            for mode in [
                FaultMode::Lost,
                FaultMode::Torn { keep_sel: 5 },
                FaultMode::Corrupt { byte_sel: 2 },
            ] {
                let plan = FaultPlan { crash_op: op, mode };
                assert_eq!(
                    recovery_divergence(
                        &script,
                        &[],
                        &plan,
                        &MediaPlan::none(),
                        Dialect::Sqlite,
                        &BugRegistry::none()
                    ),
                    None,
                    "divergence at {plan:?}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_recovers_from_snapshot_plus_suffix() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y');
             CREATE VIEW v (n) AS SELECT COUNT(*) FROM t",
        );
        db.checkpoint().unwrap();
        run_sql(
            &mut db,
            "INSERT INTO t VALUES (3, 'z'); DELETE FROM t WHERE a = 1",
        );
        let w = db.wal().unwrap();
        assert_eq!(w.durable_snapshot_stmts(), Some(3));
        let (rec, info) = recover_detailed(
            w.image(),
            w.snapshot_image(),
            Dialect::Sqlite,
            &BugRegistry::none(),
        )
        .unwrap();
        assert_eq!(info.snapshot_stmts, Some(3), "recovery used the snapshot");
        assert_eq!(rec.dump_state(), db.dump_state());
    }

    #[test]
    fn truncation_bounds_the_replayable_log() {
        let mut db = durable_db();
        run_sql(&mut db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)");
        let genesis_len = db.wal().unwrap().image().len();
        assert!(genesis_len > 0);
        db.checkpoint().unwrap();
        assert!(db.wal().unwrap().image().is_empty(), "log truncated");
        run_sql(&mut db, "INSERT INTO t VALUES (2)");
        assert!(db.wal().unwrap().image().len() < genesis_len, "suffix only");
    }

    #[test]
    fn ddl_history_snapshot_restores_drops_and_views() {
        // Schema history with a drop: snapshot-based recovery must rebuild
        // the post-drop catalog, not resurrect the dropped table.
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE gone (z INT);
             CREATE TABLE t (a INT);
             INSERT INTO t VALUES (7);
             CREATE INDEX i ON t (a);
             DROP TABLE gone",
        );
        db.checkpoint().unwrap();
        let w = db.wal().unwrap();
        let rec = recover(
            w.image(),
            w.snapshot_image(),
            Dialect::Sqlite,
            &BugRegistry::none(),
        )
        .unwrap();
        assert!(rec.catalog().table("gone").is_err());
        assert_eq!(rec.dump_state(), db.dump_state());
    }

    #[test]
    fn torn_snapshot_falls_back_to_previous_base() {
        // Two checkpoints; the fault plan kills a body write of the second
        // snapshot. Recovery must fall back to the first sealed snapshot
        // (clean reader) — the AcceptTornSnapshot mutant uses the torn one.
        let script = crate::parser::parse_statements(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1);
             INSERT INTO t VALUES (2);
             INSERT INTO t VALUES (3)",
        )
        .unwrap();
        // Dry run with checkpoints after stmts 1 and 3 to find the op
        // range of the second snapshot.
        let mut db = durable_db();
        for (i, s) in script.iter().enumerate() {
            db.execute(s).unwrap();
            if i == 1 || i == 3 {
                db.checkpoint().unwrap();
            }
        }
        let total = db.wal().unwrap().ops();
        let mut fell_back = false;
        for op in 0..total {
            let plan = FaultPlan {
                crash_op: op,
                mode: FaultMode::Lost,
            };
            assert_eq!(
                recovery_divergence(
                    &script,
                    &[1, 3],
                    &plan,
                    &MediaPlan::none(),
                    Dialect::Sqlite,
                    &BugRegistry::none()
                ),
                None,
                "clean fallback diverged at op {op}"
            );
            // Re-derive whether this op landed inside the second snapshot:
            // writer ground truth says the newest durable seal is still
            // the first checkpoint's.
            let mut f = Database::new(Dialect::Sqlite);
            f.set_storage_mode(StorageMode::Durable);
            f.set_fault_plan(plan);
            for (i, s) in script.iter().enumerate() {
                let _ = f.execute(s);
                if i == 1 || i == 3 {
                    let _ = f.checkpoint();
                }
            }
            if f.wal().unwrap().durable_snapshot_stmts() == Some(2) && f.wal().unwrap().crashed() {
                fell_back = true;
            }
        }
        assert!(fell_back, "no crash point exercised the fallback path");
    }

    #[test]
    fn scrub_is_clean_on_intact_images_and_classifies_tail_vs_damage() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)",
        );
        db.checkpoint().unwrap();
        run_sql(&mut db, "INSERT INTO t VALUES (3)");
        let log = db.wal().unwrap().image().to_vec();
        let snap = db.wal().unwrap().snapshot_image().to_vec();

        let report = scrub_images(&log, &snap, &BugRegistry::none());
        assert!(report.clean(), "intact images: {:?}", report.findings);
        assert!(report.log_frames > 0);
        assert!(report.snapshot_frames > 0);

        // Dangling tail bytes are a crash artifact, not damage.
        let mut torn = log.clone();
        torn.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        let report = scrub_images(&torn, &snap, &BugRegistry::none());
        assert!(!report.clean());
        assert_eq!(report.damage().count(), 0, "tail artifact is not damage");
        assert!(report.findings[0].tail);
        assert!(report.findings[0].reason.contains("dangling"));

        // A mid-image bit flip is damage, and the suffix past it is
        // reported unverifiable.
        let mut rotted = log.clone();
        let mid = FRAME_HEADER + 1; // inside the first frame's payload
        rotted[mid] ^= 0x40;
        let report = scrub_images(&rotted, &snap, &BugRegistry::none());
        assert!(report.damage().count() >= 1, "{:?}", report.findings);
        assert!(report
            .damage()
            .any(|f| f.reason.contains("checksum mismatch")));
        assert!(report.damage().any(|f| f.reason.contains("unverifiable")));

        // The SkipScrubChecksum mutant goes blind on the same image.
        let blind = scrub_images(
            &rotted,
            &snap,
            &BugRegistry::only_media(MediaBugId::SkipScrubChecksum),
        );
        assert!(
            blind.damage().count() < report.damage().count(),
            "mutant scrub must miss checksum damage"
        );
    }

    #[test]
    fn scrub_flags_snapshot_seal_violations() {
        // An unsealed trailing group is a crash artifact; a seal whose
        // declared record count disagrees with the body is damage. Each
        // finding sits at its frame's byte offset: the trailing group's
        // begin, the mismatched seal.
        let mut w = Wal::new(FaultPlan::none());
        w.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx: 1 })
            .unwrap();
        w.append_snapshot(&WalRecord::SnapshotEnd {
            stmt_idx: 1,
            records: 0,
        })
        .unwrap();
        let begin = w.snapshot_image().len();
        w.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx: 2 })
            .unwrap();
        w.append_snapshot(&WalRecord::InsertRow {
            table: "t".into(),
            row: vec![crate::value::Value::Int(1)],
        })
        .unwrap();
        let trailing = w.snapshot_image().to_vec();
        let report = scrub_images(&[], &trailing, &BugRegistry::none());
        assert!(!report.clean());
        assert_eq!(report.damage().count(), 0);
        assert!(report.findings.iter().any(|f| f.tail
            && f.site == StorageSite::Snapshot
            && f.reason.contains("mid-checkpoint")
            && f.offset == begin));

        w.append_snapshot(&WalRecord::SnapshotEnd {
            stmt_idx: 2,
            records: 7, // body has 1 record
        })
        .unwrap();
        let mismatched = w.snapshot_image().to_vec();
        let report = scrub_images(&[], &mismatched, &BugRegistry::none());
        assert!(
            report
                .damage()
                .any(|f| f.reason.contains("seal mismatch") && f.offset == trailing.len()),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn fail_stop_refuses_damage_salvage_recovers_the_prefix() {
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO t VALUES (2)",
        );
        let mut log = db.wal().unwrap().image().to_vec();
        // Rot the final frame's payload (the last statement's commit).
        *log.last_mut().unwrap() ^= 0xFF;

        match recover_with_policy(
            &log,
            &[],
            Dialect::Sqlite,
            &BugRegistry::none(),
            RecoveryPolicy::FailStop,
        ) {
            Err(Error::Storage(StorageError {
                site: StorageSite::Log,
                kind: StorageFaultKind::Corrupted { findings },
            })) => assert!(findings >= 1),
            Err(other) => panic!("expected fail-stop storage error, got {other:?}"),
            Ok(_) => panic!("fail-stop accepted a damaged image"),
        }

        let (salvaged, _) = recover_with_policy(
            &log,
            &[],
            Dialect::Sqlite,
            &BugRegistry::none(),
            RecoveryPolicy::Salvage,
        )
        .unwrap();
        // The damaged commit is dropped; the prefix survives.
        assert_eq!(salvaged.catalog().table("t").unwrap().rows.len(), 1);

        // FailStop still accepts an ordinary torn tail.
        let clean = db.wal().unwrap().image().to_vec();
        let mut torn = clean.clone();
        torn.extend_from_slice(&[0x01, 0x02]);
        let (rec, _) = recover_with_policy(
            &torn,
            &[],
            Dialect::Sqlite,
            &BugRegistry::none(),
            RecoveryPolicy::FailStop,
        )
        .unwrap();
        assert_eq!(rec.dump_state(), db.dump_state());
    }

    #[test]
    fn replay_drops_the_suffix_past_a_commit_gap() {
        // Commit 1 is missing from the history: replaying commit 2 on top
        // of commit 0 would apply effects whose context is gone.
        let records = vec![
            WalRecord::Ddl {
                sql: "CREATE TABLE t (a INT)".into(),
            },
            WalRecord::Commit { stmt_idx: 0 },
            WalRecord::InsertRow {
                table: "t".into(),
                row: vec![crate::value::Value::Int(2)],
            },
            WalRecord::Commit { stmt_idx: 2 },
        ];
        let mut db = Database::new(Dialect::Sqlite);
        replay_into(&mut db, None, &records, &BugRegistry::none()).unwrap();
        assert_eq!(
            db.catalog().table("t").unwrap().rows.len(),
            0,
            "suffix past the gap must be dropped"
        );
    }

    #[test]
    fn salvage_past_corrupt_commit_mutant_replays_across_damage() {
        // Three inserts in one statement; rot the middle row's frame. The
        // clean scan truncates; the mutant skips the damaged frame and
        // keeps replaying — committing a statement with a missing effect.
        let mut db = durable_db();
        run_sql(
            &mut db,
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3); INSERT INTO t VALUES (4)",
        );
        let log = db.wal().unwrap().image().to_vec();
        // Find the frame encoding the row (2) insert and rot its payload.
        let needle = encode_record(&WalRecord::InsertRow {
            table: "t".into(),
            row: vec![crate::value::Value::Int(2)],
        });
        let at = log
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("row 2 frame present");
        let mut rotted = log.clone();
        rotted[at] ^= 0x01; // flip a payload bit: the frame checksum breaks

        let clean = recover(&rotted, &[], Dialect::Sqlite, &BugRegistry::none()).unwrap();
        assert_eq!(
            clean.catalog().table("t").unwrap().rows.len(),
            0,
            "sound salvage drops everything from the damaged statement on"
        );

        let buggy = recover(
            &rotted,
            &[],
            Dialect::Sqlite,
            &BugRegistry::only_media(MediaBugId::SalvagePastCorruptCommit),
        )
        .unwrap();
        assert_eq!(
            buggy.catalog().table("t").unwrap().rows.len(),
            3,
            "mutant resurrects the suffix with a row missing"
        );
    }

    #[test]
    fn checkpoint_mutants_diverge_and_ground_truth_catches_base_lies() {
        let script = crate::parser::parse_statements(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1);
             INSERT INTO t VALUES (2);
             INSERT INTO t VALUES (3)",
        )
        .unwrap();
        let mut db = durable_db();
        for (i, s) in script.iter().enumerate() {
            db.execute(s).unwrap();
            if i == 1 || i == 2 {
                db.checkpoint().unwrap();
            }
        }
        let total = db.wal().unwrap().ops();
        for bug in [
            RecoveryBugId::TruncateBeforeMarker,
            RecoveryBugId::ReplayFromWrongOffset,
            RecoveryBugId::AcceptTornSnapshot,
            RecoveryBugId::StaleSnapshotPreferred,
            RecoveryBugId::SkipSnapshotChecksum,
        ] {
            let bugs = BugRegistry::only_recovery(bug);
            let mut hit = false;
            for op in 0..=total {
                for mode in [
                    FaultMode::Lost,
                    FaultMode::Torn { keep_sel: 5 },
                    FaultMode::Corrupt { byte_sel: 2 },
                ] {
                    let plan = if op == total {
                        FaultPlan::none()
                    } else {
                        FaultPlan { crash_op: op, mode }
                    };
                    if recovery_divergence(
                        &script,
                        &[1, 2],
                        &plan,
                        &MediaPlan::none(),
                        Dialect::Sqlite,
                        &bugs,
                    )
                    .is_some()
                    {
                        hit = true;
                    }
                }
            }
            assert!(hit, "{} never diverged across the grid", bug.name());
        }
    }
}
