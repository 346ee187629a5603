//! Write-ahead log over a simulated disk with deterministic fault injection.
//!
//! The durable storage layer follows the engine's differential-mode
//! pattern (`set_join_mode` / `set_eval_mode` / ...): when a [`Database`]
//! runs with [`StorageMode::Durable`], every DML/DDL *effect* is appended
//! to a [`Wal`] as a checksummed, length-prefixed redo record, followed by
//! a commit marker per statement — while the in-memory catalog remains the
//! byte-exact baseline. [`crate::recovery`] replays the log into a fresh
//! store and must reconstruct exactly the committed prefix.
//!
//! # Record framing
//!
//! Each record is framed as `[u32 len][u32 fnv1a(payload)][payload]`, all
//! little-endian. The payload starts with a one-byte tag followed by the
//! record's fields; values serialize with `Real` as raw IEEE-754 bits so
//! recovery is bit-exact. `frames` is the only reader of this framing:
//! recovery's log and snapshot scans and scrub all walk images through it.
//!
//! # Fault model
//!
//! [`SimDisk`] is an in-memory byte file. Writes pass through a
//! [`FaultPlan`]: a deterministic, seeded choice of *which* append dies
//! (`crash_op`, counted in records) and *how* ([`FaultMode`]):
//!
//! * [`FaultMode::Lost`] — the write never reaches the disk (a crash
//!   *before* the write; at a commit record this is a crash after the
//!   effects but before the durability point),
//! * [`FaultMode::Torn`] — a proper prefix of the frame lands (a torn
//!   tail, mid-record crash),
//! * [`FaultMode::Corrupt`] — the full frame lands with one payload bit
//!   flipped (a latent media error the recovery checksum must catch).
//!
//! Everything appended before `crash_op` is durable; nothing after it is.
//! The fault plan's seed is part of the stable reproduction contract, like
//! `state_seed`/`test_seed` in the campaign runner: the same
//! `(script, fault_seed)` pair rebuilds the same log image in any build.
//!
//! # Checkpoints
//!
//! [`Database::checkpoint`](crate::Database::checkpoint) bounds replay
//! cost: it serializes the whole committed state as a framed, checksummed
//! **snapshot** to a second [`SimDisk`] file ([`Wal::snapshot_image`]),
//! seals it between [`WalRecord::SnapshotBegin`] and
//! [`WalRecord::SnapshotEnd`] markers, records a
//! [`WalRecord::CheckpointComplete`] durability marker in the log, and
//! then truncates the log to the suffix after that marker
//! ([`Wal::truncate_log`]). Snapshot frames and the truncation step ride
//! the **same operation counter** as log appends, so a seeded
//! [`FaultPlan`] lands crashes inside snapshot writes and between the
//! marker and the truncation exactly the way it lands them inside DML
//! traffic — the torn-snapshot and early-truncation bug classes become
//! ordinary grid cells. A crash at the truncation op means the process
//! died before truncating: the log survives from its previous origin
//! (every fault mode behaves the same there — truncation either happened
//! or it did not).
//!
//! The snapshot file holds at most **two generations**. Before it writes
//! a new snapshot, a checkpoint reclaims every byte in front of the
//! newest durable sealed snapshot ([`Wal::reclaim_snapshots`]), so the
//! file holds [newest, in flight] while the new snapshot is written and
//! [previous, newest] once it is sealed. The older generation is what
//! recovery falls back to when the newest one is torn or damaged. The
//! reclaim is one more operation on the shared counter, all-or-nothing
//! like the truncation (a crash there leaves the file as it was), and it
//! writes nothing, so a full disk never refuses it. A reclaim that would
//! free no byte is no operation at all: the first two checkpoints of a
//! run reclaim nothing, so a run with at most two checkpoints numbers its
//! operations as if the step did not exist.
//!
//! [`Database`]: crate::Database

use crate::bugs::{BugRegistry, MediaBugId};
use crate::error::{StorageError, StorageFaultKind, StorageSite};
use crate::value::Value;

/// How a [`Database`](crate::Database) persists effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// In-memory only (the default): no WAL, no recovery surface.
    #[default]
    Volatile,
    /// Every DML/DDL effect is redo-logged through the simulated disk;
    /// the in-memory catalog stays the baseline.
    Durable,
}

/// How the crashing write manifests on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The write never reaches the disk.
    Lost,
    /// A proper prefix of the frame lands; `keep_sel` deterministically
    /// selects how many bytes (at least 1, never the whole frame).
    Torn { keep_sel: u64 },
    /// The whole frame lands with one payload bit flipped; `byte_sel`
    /// deterministically selects the byte.
    Corrupt { byte_sel: u64 },
}

/// A deterministic crash schedule: the `crash_op`-th append (0-based) dies
/// per `mode`; every earlier append is durable, every later one is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the append that crashes. `u64::MAX` (or any index the run
    /// never reaches) means the process survives the whole script.
    pub crash_op: u64,
    pub mode: FaultMode,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that never crashes.
    pub fn none() -> FaultPlan {
        FaultPlan {
            crash_op: u64::MAX,
            mode: FaultMode::Lost,
        }
    }

    /// Does this plan ever fire (assuming enough appends happen)?
    pub fn crashes(&self) -> bool {
        self.crash_op != u64::MAX
    }

    /// Deterministically derive a plan from a seed, given the total number
    /// of appends a fault-free run performs (measure it with a dry run
    /// under [`FaultPlan::none`]). `crash_op` is drawn from `0..=total_ops`
    /// — the `total_ops` case never fires, so seeded campaigns also
    /// exercise clean full-log recovery.
    pub fn seeded(seed: u64, total_ops: u64) -> FaultPlan {
        if total_ops == 0 {
            return FaultPlan::none();
        }
        let mut s = seed;
        let crash_op = splitmix64(&mut s) % (total_ops + 1);
        let mode = match splitmix64(&mut s) % 3 {
            0 => FaultMode::Lost,
            1 => FaultMode::Torn {
                keep_sel: splitmix64(&mut s),
            },
            _ => FaultMode::Corrupt {
                byte_sel: splitmix64(&mut s),
            },
        };
        if crash_op == total_ops {
            return FaultPlan::none();
        }
        FaultPlan { crash_op, mode }
    }

    /// Human-readable summary for reports.
    pub fn describe(&self) -> String {
        if !self.crashes() {
            return "no crash".to_string();
        }
        let mode = match self.mode {
            FaultMode::Lost => "lost write".to_string(),
            FaultMode::Torn { keep_sel } => format!("torn write (keep_sel={keep_sel})"),
            FaultMode::Corrupt { byte_sel } => format!("corrupt write (byte_sel={byte_sel})"),
        };
        format!("crash at op {}: {mode}", self.crash_op)
    }
}

/// Maximum *extra* read attempts the bounded retry schedule allows: a read
/// is tried at most `READ_RETRY_CAP + 1` times before the storage layer
/// surfaces a structured [`StorageError`]. A transient fault that heals
/// within the cap is invisible to callers; one that does not is
/// indistinguishable from a permanent fault and must fail stop.
pub const READ_RETRY_CAP: u32 = 3;

/// A read-path media fault armed on a [`SimDisk`].
///
/// Faults are *per call*: every [`SimDisk::read_with_retry`] call starts
/// its own attempt counter, so a transient fault with `failures <= cap`
/// heals inside every read (scrub and recovery alike) and one with
/// `failures > cap` deterministically exhausts every read's retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The first `failures` attempts of every read fail, then it heals.
    Transient { failures: u32 },
    /// Every attempt fails, forever.
    Permanent,
}

/// How a seeded [`MediaPlan`] damages the medium — the second, orthogonal
/// fault axis next to [`FaultPlan`]'s write-path crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaMode {
    /// No media fault.
    None,
    /// At-rest bit rot: between shutdown and recovery, one bit anywhere in
    /// the site's byte image flips (`bit_sel` selects which, modulo the
    /// image's bit length).
    Rot { bit_sel: u64 },
    /// Reads of the site fail `failures` times per read, then heal.
    TransientRead { failures: u32 },
    /// Reads of the site never succeed.
    PermanentRead,
    /// The disk is full: the `at_op`-th append (0-based, shared op counter
    /// with the crash schedule) and every later one return `NoSpace`.
    NoSpace { at_op: u64 },
}

/// A deterministic media-fault schedule, seeded like [`FaultPlan`]. One
/// plan names one fault site (log or snapshot file) and one [`MediaMode`];
/// campaigns draw both axes independently so write-path crashes and media
/// faults compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaPlan {
    /// Which file the fault strikes (`Rot`/read faults are per-site;
    /// `NoSpace` refuses appends to either file once `at_op` is reached).
    pub site: StorageSite,
    pub mode: MediaMode,
}

impl MediaPlan {
    /// A plan with no media fault.
    pub fn none() -> MediaPlan {
        MediaPlan {
            site: StorageSite::Log,
            mode: MediaMode::None,
        }
    }

    /// Does this plan inject any fault at all?
    pub fn faults(&self) -> bool {
        self.mode != MediaMode::None
    }

    /// Deterministically derive a plan from a seed, given the total number
    /// of appends a fault-free run performs. Roughly 3/8 of seeds draw no
    /// fault, so seeded media campaigns keep exercising the clean path.
    pub fn seeded(seed: u64, total_ops: u64) -> MediaPlan {
        let mut s = seed;
        let site = if splitmix64(&mut s).is_multiple_of(2) {
            StorageSite::Log
        } else {
            StorageSite::Snapshot
        };
        let mode = match splitmix64(&mut s) % 8 {
            0..=2 => MediaMode::None,
            3 | 4 => MediaMode::Rot {
                bit_sel: splitmix64(&mut s),
            },
            5 => MediaMode::TransientRead {
                // 1..=6: both the must-heal (<= cap) and must-fail-stop
                // (> cap) regimes occur across a seed sweep.
                failures: 1 + (splitmix64(&mut s) % 6) as u32,
            },
            6 => MediaMode::PermanentRead,
            _ => MediaMode::NoSpace {
                at_op: splitmix64(&mut s) % (total_ops + 1),
            },
        };
        MediaPlan { site, mode }
    }

    /// Human-readable summary for reports, in the style of
    /// [`FaultPlan::describe`].
    pub fn describe(&self) -> String {
        let site = self.site.label();
        match self.mode {
            MediaMode::None => "no media fault".to_string(),
            MediaMode::Rot { bit_sel } => {
                format!("media: bit rot in {site} image (bit_sel={bit_sel})")
            }
            MediaMode::TransientRead { failures } => format!(
                "media: transient read fault at {site} (fails {failures}x per read, retry cap {READ_RETRY_CAP})"
            ),
            MediaMode::PermanentRead => format!("media: permanent read fault at {site}"),
            MediaMode::NoSpace { at_op } => format!("media: disk full at append op {at_op}"),
        }
    }

    /// Apply at-rest bit rot to the site's byte image (no-op for other
    /// modes or an empty image). Models damage accrued between shutdown
    /// and recovery, outside any write the fault plan could kill.
    fn rot_images(&self, log: &mut [u8], snap: &mut [u8]) {
        if let MediaMode::Rot { bit_sel } = self.mode {
            let img: &mut [u8] = match self.site {
                StorageSite::Log => log,
                StorageSite::Snapshot => snap,
            };
            if img.is_empty() {
                return;
            }
            let bit = (bit_sel as usize) % (img.len() * 8);
            img[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Must a bounded-retry read of the faulted site fail under this plan?
    /// (`Transient` beyond the cap, or `Permanent`.) This is the retry
    /// contract's ground truth: a read that must fail but succeeds — or
    /// must heal but fails — is a divergence.
    pub fn read_must_fail(&self) -> bool {
        match self.mode {
            MediaMode::TransientRead { failures } => failures > READ_RETRY_CAP,
            MediaMode::PermanentRead => true,
            _ => false,
        }
    }
}

/// An in-memory byte-file model of the durable medium. Only the [`Wal`]
/// writes to it; everything it holds is, by definition, what survived the
/// crash. A [`ReadFault`] can be armed on the disk, after which every
/// read must go through the bounded retry schedule of
/// [`SimDisk::read_with_retry`].
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    data: Vec<u8>,
    read_fault: Option<ReadFault>,
    read_attempts: u64,
}

impl SimDisk {
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// The surviving byte image (what recovery gets to read). Bypasses the
    /// read-fault model — use [`SimDisk::read_with_retry`] on a
    /// fault-armed disk.
    pub fn contents(&self) -> &[u8] {
        &self.data
    }

    fn clear(&mut self) {
        self.data.clear();
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Arm (or clear) a read fault on this disk.
    pub fn set_read_fault(&mut self, fault: Option<ReadFault>) {
        self.read_fault = fault;
    }

    /// Total read attempts made across all [`SimDisk::read_with_retry`]
    /// calls — lets tests pin the retry schedule exactly.
    pub fn read_attempts(&self) -> u64 {
        self.read_attempts
    }

    /// Read the whole image through the bounded deterministic retry
    /// schedule: up to [`READ_RETRY_CAP`] retries (cap + 1 attempts per
    /// call), after which a structured [`StorageError`] surfaces. The
    /// attempt counter is per call, so a transient fault behaves
    /// identically for every caller (scrub, recovery, ...).
    pub fn read_with_retry(
        &mut self,
        site: StorageSite,
        bugs: &BugRegistry,
    ) -> Result<&[u8], StorageError> {
        // Mutant: treats the first failed attempt as permanent data loss
        // instead of walking the retry schedule.
        let max_attempts = if bugs.active(MediaBugId::TransientFaultAsPermanentLoss) {
            1
        } else {
            READ_RETRY_CAP + 1
        };
        // Mutant: retries transient faults forever instead of failing
        // stop at the cap (terminates once the fault heals, so the bug is
        // a silent success where the contract demands a structured error).
        let ignore_cap = bugs.active(MediaBugId::RetryCapIgnored);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.read_attempts += 1;
            let ok = match self.read_fault {
                None => true,
                Some(ReadFault::Transient { failures }) => attempts > failures,
                Some(ReadFault::Permanent) => false,
            };
            if ok {
                return Ok(&self.data);
            }
            let exhausted = attempts >= max_attempts;
            let transient = matches!(self.read_fault, Some(ReadFault::Transient { .. }));
            if exhausted && !(ignore_cap && transient) {
                return Err(StorageError {
                    site,
                    kind: StorageFaultKind::ReadFault {
                        attempts,
                        permanent: matches!(self.read_fault, Some(ReadFault::Permanent)),
                    },
                });
            }
        }
    }
}

/// One redo record. DML effects are *physical* (the rows/cells the engine
/// actually wrote), so replay needs no re-evaluation and reproduces the
/// committed state byte-for-byte even under injected engine mutants; DDL
/// is logged as rendered SQL and re-executed against the recovered
/// catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A completed DDL statement, as SQL text.
    Ddl { sql: String },
    /// One row appended to `table` (a multi-row INSERT logs one record
    /// per row, giving the fault plan per-row crash points).
    InsertRow { table: String, row: Vec<Value> },
    /// One row's cell updates: `cols[i]` receives `vals[i]`.
    UpdateRow {
        table: String,
        row_idx: u64,
        cols: Vec<u32>,
        vals: Vec<Value>,
    },
    /// Rows removed from `table`, as ascending pre-delete indices.
    DeleteRows { table: String, rows: Vec<u64> },
    /// Durability point of statement `stmt_idx`: all effects logged since
    /// the previous commit become visible to recovery.
    Commit { stmt_idx: u64 },
    /// Log-side checkpoint durability marker: a snapshot covering the
    /// first `stmt_idx` committed statements is complete on the snapshot
    /// file. Written after the snapshot's [`WalRecord::SnapshotEnd`] and
    /// before the log is truncated; it survives in the log only when the
    /// process dies between the marker and the truncation.
    CheckpointComplete { stmt_idx: u64 },
    /// Snapshot-file record: opens a snapshot covering the first
    /// `stmt_idx` committed statements.
    SnapshotBegin { stmt_idx: u64 },
    /// Snapshot-file record: seals a snapshot. `records` counts the body
    /// records between this marker and its `SnapshotBegin`; a snapshot
    /// without a matching end marker is incomplete (the writer died
    /// mid-snapshot) and must be ignored by recovery.
    SnapshotEnd { stmt_idx: u64, records: u64 },
}

const TAG_DDL: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_SNAP_BEGIN: u8 = 7;
const TAG_SNAP_END: u8 = 8;

const VTAG_NULL: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_REAL: u8 = 2;
const VTAG_TEXT: u8 = 3;
const VTAG_BOOL_FALSE: u8 = 4;
const VTAG_BOOL_TRUE: u8 = 5;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VTAG_NULL),
        Value::Int(i) => {
            out.push(VTAG_INT);
            put_u64(out, *i as u64);
        }
        Value::Real(r) => {
            out.push(VTAG_REAL);
            put_u64(out, r.to_bits());
        }
        Value::Text(s) => {
            out.push(VTAG_TEXT);
            put_str(out, s);
        }
        Value::Bool(false) => out.push(VTAG_BOOL_FALSE),
        Value::Bool(true) => out.push(VTAG_BOOL_TRUE),
    }
}

fn put_values(out: &mut Vec<u8>, vals: &[Value]) {
    put_u32(out, vals.len() as u32);
    for v in vals {
        put_value(out, v);
    }
}

/// Serialize a record to its (unframed) payload bytes.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Ddl { sql } => {
            out.push(TAG_DDL);
            put_str(&mut out, sql);
        }
        WalRecord::InsertRow { table, row } => {
            out.push(TAG_INSERT);
            put_str(&mut out, table);
            put_values(&mut out, row);
        }
        WalRecord::UpdateRow {
            table,
            row_idx,
            cols,
            vals,
        } => {
            out.push(TAG_UPDATE);
            put_str(&mut out, table);
            put_u64(&mut out, *row_idx);
            put_u32(&mut out, cols.len() as u32);
            for c in cols {
                put_u32(&mut out, *c);
            }
            put_values(&mut out, vals);
        }
        WalRecord::DeleteRows { table, rows } => {
            out.push(TAG_DELETE);
            put_str(&mut out, table);
            put_u32(&mut out, rows.len() as u32);
            for r in rows {
                put_u64(&mut out, *r);
            }
        }
        WalRecord::Commit { stmt_idx } => {
            out.push(TAG_COMMIT);
            put_u64(&mut out, *stmt_idx);
        }
        WalRecord::CheckpointComplete { stmt_idx } => {
            out.push(TAG_CHECKPOINT);
            put_u64(&mut out, *stmt_idx);
        }
        WalRecord::SnapshotBegin { stmt_idx } => {
            out.push(TAG_SNAP_BEGIN);
            put_u64(&mut out, *stmt_idx);
        }
        WalRecord::SnapshotEnd { stmt_idx, records } => {
            out.push(TAG_SNAP_END);
            put_u64(&mut out, *stmt_idx);
            put_u64(&mut out, *records);
        }
    }
    out
}

/// Bounds-checked payload reader: a corrupted or torn payload must decode
/// to a clean error, never panic or read out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.u8()? {
            VTAG_NULL => Ok(Value::Null),
            VTAG_INT => Ok(Value::Int(self.u64()? as i64)),
            VTAG_REAL => Ok(Value::Real(f64::from_bits(self.u64()?))),
            VTAG_TEXT => Ok(Value::Text(self.str()?)),
            VTAG_BOOL_FALSE => Ok(Value::Bool(false)),
            VTAG_BOOL_TRUE => Ok(Value::Bool(true)),
            t => Err(format!("unknown value tag {t}")),
        }
    }

    fn values(&mut self) -> Result<Vec<Value>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Deserialize a payload produced by [`encode_record`]. Errors (rather
/// than panics) on anything malformed — recovery surfaces them as
/// internal errors when a mutant lets a bad payload through.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = Reader::new(payload);
    let rec = match r.u8()? {
        TAG_DDL => WalRecord::Ddl { sql: r.str()? },
        TAG_INSERT => WalRecord::InsertRow {
            table: r.str()?,
            row: r.values()?,
        },
        TAG_UPDATE => {
            let table = r.str()?;
            let row_idx = r.u64()?;
            let ncols = r.u32()? as usize;
            let mut cols = Vec::new();
            for _ in 0..ncols {
                cols.push(r.u32()?);
            }
            let vals = r.values()?;
            // Each named column receives one value: an update whose lists
            // differ in length is torn, not a partial update.
            if vals.len() != cols.len() {
                return Err(format!(
                    "update names {} column(s) but carries {} value(s)",
                    cols.len(),
                    vals.len()
                ));
            }
            WalRecord::UpdateRow {
                table,
                row_idx,
                cols,
                vals,
            }
        }
        TAG_DELETE => {
            let table = r.str()?;
            let n = r.u32()? as usize;
            let mut rows = Vec::new();
            for _ in 0..n {
                rows.push(r.u64()?);
            }
            WalRecord::DeleteRows { table, rows }
        }
        TAG_COMMIT => WalRecord::Commit { stmt_idx: r.u64()? },
        TAG_CHECKPOINT => WalRecord::CheckpointComplete { stmt_idx: r.u64()? },
        TAG_SNAP_BEGIN => WalRecord::SnapshotBegin { stmt_idx: r.u64()? },
        TAG_SNAP_END => WalRecord::SnapshotEnd {
            stmt_idx: r.u64()?,
            records: r.u64()?,
        },
        t => return Err(format!("unknown record tag {t}")),
    };
    if !r.done() {
        return Err(format!(
            "trailing garbage: {} bytes past record end",
            payload.len() - r.pos
        ));
    }
    Ok(rec)
}

/// FNV-1a over the payload — cheap, dependency-free, and a single flipped
/// bit always changes it.
pub fn checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in payload {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Size of the `[len][checksum]` frame header.
pub const FRAME_HEADER: usize = 8;

/// One frame of a log or snapshot image, as [`frames`] reads it.
#[derive(Debug)]
pub(crate) enum Frame<'a> {
    /// A frame whose whole payload landed; `intact` says whether the
    /// payload matches its stored checksum.
    Whole { payload: &'a [u8], intact: bool },
    /// Fewer than [`FRAME_HEADER`] bytes remain: a write died before its
    /// header was complete. Always the last frame of an image.
    DanglingHeader(&'a [u8]),
    /// The payload is shorter than its length prefix declares: a write
    /// died mid-payload, leaving `present`. Always the last frame of an
    /// image.
    TornPayload { declared: usize, present: &'a [u8] },
}

/// Walk an image written by [`Wal`]'s appends frame by frame, yielding
/// each frame's byte offset with the frame. The only reader of the frame
/// format: recovery's log and snapshot scans and scrub each apply their
/// own policy to what it yields. Never panics, whatever the bytes.
pub(crate) fn frames(image: &[u8]) -> impl Iterator<Item = (usize, Frame<'_>)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let at = pos;
        let rest = &image[at..];
        if rest.is_empty() {
            return None;
        }
        // Only a whole frame moves on: a dangling or torn one ends the walk.
        pos = image.len();
        let Some((header, body)) = rest.split_first_chunk::<FRAME_HEADER>() else {
            return Some((at, Frame::DanglingHeader(rest)));
        };
        let [l0, l1, l2, l3, s0, s1, s2, s3] = *header;
        let declared = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let Some(payload) = body.get(..declared) else {
            return Some((
                at,
                Frame::TornPayload {
                    declared,
                    present: body,
                },
            ));
        };
        pos = at + FRAME_HEADER + declared;
        let intact = checksum(payload) == u32::from_le_bytes([s0, s1, s2, s3]);
        Some((at, Frame::Whole { payload, intact }))
    })
}

/// Which durable operation the fault plan killed. Checkpointing threads
/// snapshot frames, the snapshot reclaim and the truncation step through
/// the same op counter as log appends, so a seeded crash can land in four
/// places; reports name the site so a repro is readable without decoding
/// the op index by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// A log append (DML/DDL effect, commit, or checkpoint marker).
    Log,
    /// A snapshot-file append (begin/body/end frame).
    Snapshot,
    /// The log-truncation step after a checkpoint marker.
    Truncate,
    /// The snapshot-reclaim step at the start of a checkpoint.
    Reclaim,
}

impl CrashSite {
    /// Short human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CrashSite::Log => "log append",
            CrashSite::Snapshot => "snapshot write",
            CrashSite::Truncate => "log truncation",
            CrashSite::Reclaim => "snapshot reclaim",
        }
    }
}

/// The write-ahead log: an append-only sequence of framed records on a
/// [`SimDisk`], with the fault plan applied per append. The writer also
/// tracks the ground truth the recovery differential compares against:
/// how many commit markers became durable (`committed_statements`) —
/// deliberately computed at append time, independent of anything
/// `recovery.rs` later parses out of the image.
#[derive(Debug, Clone)]
pub struct Wal {
    disk: SimDisk,
    /// The snapshot file checkpoints serialize to. Shares the op counter
    /// (and thus the fault plan's crash schedule) with the log disk.
    snap: SimDisk,
    plan: FaultPlan,
    /// The media-fault schedule (orthogonal to `plan`'s crash schedule).
    media: MediaPlan,
    /// Appends attempted while the simulated process was alive.
    ops: u64,
    /// Commit markers durably written (the committed-prefix length).
    committed: u64,
    /// Statements whose commit marker was *attempted* (durable or not);
    /// numbers the next commit record.
    stmts_logged: u64,
    /// Writer-side checkpoint ground truth: the `stmt_idx` of the newest
    /// [`WalRecord::SnapshotEnd`] that became durable before the crash —
    /// the snapshot a correct recovery must load (None = genesis).
    last_snapshot_stmts: Option<u64>,
    /// Snapshot-file offset of the newest durable
    /// [`WalRecord::SnapshotBegin`] frame: where the snapshot being
    /// written starts.
    open_begin: usize,
    /// Snapshot-file offset of the begin frame of the newest durable
    /// sealed snapshot, noted when its seal lands. Every byte before it
    /// is an older generation that [`Wal::reclaim_snapshots`] drops.
    sealed_begin: usize,
    crashed: bool,
    crash_site: Option<CrashSite>,
}

impl Wal {
    pub fn new(plan: FaultPlan) -> Wal {
        Wal {
            disk: SimDisk::new(),
            snap: SimDisk::new(),
            plan,
            media: MediaPlan::none(),
            ops: 0,
            committed: 0,
            stmts_logged: 0,
            last_snapshot_stmts: None,
            open_begin: 0,
            sealed_begin: 0,
            crashed: false,
            crash_site: None,
        }
    }

    /// Replace the fault plan (counters keep running). Call before any
    /// appends to schedule the crash for a whole run.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replace the media-fault schedule. Call before any appends so a
    /// `NoSpace` op threshold covers the whole run.
    pub fn set_media_plan(&mut self, media: MediaPlan) {
        self.media = media;
    }

    pub fn media(&self) -> &MediaPlan {
        &self.media
    }

    /// Total appends attempted before the crash (equals the run's total
    /// record count when no crash fires — the dry-run measurement
    /// [`FaultPlan::seeded`] needs).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Commit markers that became durable: the number of statements a
    /// correct recovery must reconstruct, exactly.
    pub fn committed_statements(&self) -> u64 {
        self.committed
    }

    /// Has the fault plan fired? Once crashed, the WAL silently drops all
    /// further appends (the simulated process is dead; the in-memory
    /// engine lives on as the differential baseline).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The surviving log image.
    pub fn image(&self) -> &[u8] {
        self.disk.contents()
    }

    /// The surviving snapshot-file image (empty until a checkpoint runs).
    pub fn snapshot_image(&self) -> &[u8] {
        self.snap.contents()
    }

    /// Statements whose commit marker was attempted so far — the
    /// `stmt_idx` coverage a snapshot taken *now* would declare.
    pub fn statements_logged(&self) -> u64 {
        self.stmts_logged
    }

    /// Writer-side checkpoint ground truth: the `stmt_idx` of the newest
    /// snapshot whose [`WalRecord::SnapshotEnd`] seal became durable
    /// before the crash, or `None` when recovery must start from genesis.
    pub fn durable_snapshot_stmts(&self) -> Option<u64> {
        self.last_snapshot_stmts
    }

    /// Where the fault plan fired, if it did.
    pub fn crash_site(&self) -> Option<CrashSite> {
        self.crash_site
    }

    /// Append one framed record to `site`'s file through the fault plan
    /// and the media plan. `Err(NoSpace)` means the disk refused the
    /// append: nothing was written, the op counter did not advance, and
    /// the caller must abort the in-flight statement cleanly.
    fn append_frame(&mut self, rec: &WalRecord, site: StorageSite) -> Result<(), StorageError> {
        if self.crashed {
            return Ok(());
        }
        if let MediaMode::NoSpace { at_op } = self.media.mode {
            if self.ops >= at_op {
                return Err(StorageError {
                    site,
                    kind: StorageFaultKind::NoSpace { op: self.ops },
                });
            }
        }
        let op = self.ops;
        self.ops += 1;
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, checksum(&payload));
        frame.extend_from_slice(&payload);
        let disk = match site {
            StorageSite::Log => &mut self.disk,
            StorageSite::Snapshot => &mut self.snap,
        };

        if op < self.plan.crash_op {
            let at = disk.len();
            disk.write(&frame);
            match (site, rec) {
                (StorageSite::Log, WalRecord::Commit { .. }) => self.committed += 1,
                (StorageSite::Snapshot, WalRecord::SnapshotBegin { .. }) => self.open_begin = at,
                (StorageSite::Snapshot, WalRecord::SnapshotEnd { stmt_idx, .. }) => {
                    self.last_snapshot_stmts = Some(*stmt_idx);
                    self.sealed_begin = self.open_begin;
                }
                _ => {}
            }
            return Ok(());
        }
        // This append is the crash point: the simulated process dies
        // during the write. Nothing from this op counts as durable.
        self.crashed = true;
        self.crash_site = Some(match site {
            StorageSite::Log => CrashSite::Log,
            StorageSite::Snapshot => CrashSite::Snapshot,
        });
        let written: Option<Vec<u8>> = match self.plan.mode {
            FaultMode::Lost => None,
            FaultMode::Torn { keep_sel } => {
                let keep = 1 + (keep_sel as usize) % (frame.len() - 1);
                Some(frame[..keep].to_vec())
            }
            FaultMode::Corrupt { byte_sel } => {
                let i = FRAME_HEADER + (byte_sel as usize) % payload.len();
                frame[i] ^= 0x40;
                Some(frame)
            }
        };
        if let Some(bytes) = written {
            disk.write(&bytes);
        }
        Ok(())
    }

    /// Append one record to the log through the fault plan.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        self.append_frame(rec, StorageSite::Log)
    }

    /// Append one record to the snapshot file through the fault plan.
    /// Rides the same op counter as log appends, so seeded crash points
    /// land inside snapshot writes.
    pub fn append_snapshot(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        self.append_frame(rec, StorageSite::Snapshot)
    }

    /// Drop every snapshot-file byte before the begin frame of the newest
    /// durable sealed snapshot, so that a checkpoint writing its snapshot
    /// next leaves two generations on file. With `drop_newest` (the
    /// [`crate::bugs::RecoveryBugId::ReclaimNewestSnapshot`] mutant) that
    /// snapshot goes too: the whole file is dropped.
    ///
    /// Like [`Wal::truncate_log`], the reclaim is one fault-plan
    /// operation and all-or-nothing: a crash here means the process died
    /// before reclaiming, and the file survives whole. It writes nothing,
    /// so a full disk never refuses it. A reclaim that would free no byte
    /// is not an operation: the op counter does not move.
    pub fn reclaim_snapshots(&mut self, drop_newest: bool) {
        let cut = if drop_newest {
            self.snap.len()
        } else {
            self.sealed_begin
        };
        if self.crashed || cut == 0 {
            return;
        }
        let op = self.ops;
        self.ops += 1;
        if op < self.plan.crash_op {
            self.snap.data.drain(..cut);
            self.sealed_begin = 0;
        } else {
            self.crashed = true;
            self.crash_site = Some(CrashSite::Reclaim);
        }
    }

    /// Discard the replayable log after a durable checkpoint marker. The
    /// truncation is itself one fault-plan operation: a crash here means
    /// the process died *before* truncating, so the whole log survives
    /// (truncation is all-or-nothing for every fault mode — there is no
    /// torn or corrupt variant of deleting a file's contents).
    pub fn truncate_log(&mut self) {
        if self.crashed {
            return;
        }
        let op = self.ops;
        self.ops += 1;
        if op < self.plan.crash_op {
            self.disk.clear();
        } else {
            self.crashed = true;
            self.crash_site = Some(CrashSite::Truncate);
        }
    }

    /// Append the commit marker for the statement whose effects were just
    /// logged. On `NoSpace` the marker did not land and the statement
    /// number is *not* consumed: the caller aborts the statement and the
    /// next one commits under the same index.
    pub fn commit_statement(&mut self) -> Result<(), StorageError> {
        let stmt_idx = self.stmts_logged;
        self.append(&WalRecord::Commit { stmt_idx })?;
        self.stmts_logged += 1;
        Ok(())
    }

    /// Apply the media plan's at-rest damage to the stored images and arm
    /// any read fault on the faulted site's disk. Models the time between
    /// shutdown and recovery; call once after the writer is done.
    pub fn degrade_at_rest(&mut self) {
        self.media
            .rot_images(&mut self.disk.data, &mut self.snap.data);
        let fault = match self.media.mode {
            MediaMode::TransientRead { failures } => Some(ReadFault::Transient { failures }),
            MediaMode::PermanentRead => Some(ReadFault::Permanent),
            _ => None,
        };
        match self.media.site {
            StorageSite::Log => self.disk.set_read_fault(fault),
            StorageSite::Snapshot => self.snap.set_read_fault(fault),
        }
    }

    /// Read the log image through the bounded retry schedule.
    pub fn read_log_image(&mut self, bugs: &BugRegistry) -> Result<&[u8], StorageError> {
        self.disk.read_with_retry(StorageSite::Log, bugs)
    }

    /// Read the snapshot image through the bounded retry schedule.
    pub fn read_snapshot_image(&mut self, bugs: &BugRegistry) -> Result<&[u8], StorageError> {
        self.snap.read_with_retry(StorageSite::Snapshot, bugs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimDisk {
        /// A disk pre-loaded with an at-rest image, ready for fault-armed
        /// reads.
        fn from_bytes(data: Vec<u8>) -> SimDisk {
            SimDisk {
                data,
                ..SimDisk::default()
            }
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Ddl {
                sql: "CREATE TABLE t (c INT)".into(),
            },
            WalRecord::InsertRow {
                table: "t".into(),
                row: vec![
                    Value::Null,
                    Value::Int(-7),
                    Value::Real(2.5),
                    Value::Text("héllo %_".into()),
                    Value::Bool(true),
                    Value::Bool(false),
                ],
            },
            WalRecord::UpdateRow {
                table: "t".into(),
                row_idx: 3,
                cols: vec![0, 2],
                vals: vec![Value::Int(1), Value::Real(-0.0)],
            },
            WalRecord::DeleteRows {
                table: "t".into(),
                rows: vec![0, 5, 9],
            },
            WalRecord::Commit { stmt_idx: 42 },
            WalRecord::CheckpointComplete { stmt_idx: 42 },
            WalRecord::SnapshotBegin { stmt_idx: 42 },
            WalRecord::SnapshotEnd {
                stmt_idx: 42,
                records: 17,
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            let back = decode_record(&payload).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn real_values_round_trip_bit_exact() {
        for bits in [0u64, f64::NAN.to_bits(), (-0.0f64).to_bits(), 0x7FF8_0123] {
            let rec = WalRecord::InsertRow {
                table: "t".into(),
                row: vec![Value::Real(f64::from_bits(bits))],
            };
            match decode_record(&encode_record(&rec)).unwrap() {
                WalRecord::InsertRow { row, .. } => match row[0] {
                    Value::Real(r) => assert_eq!(r.to_bits(), bits),
                    ref other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_decodes_to_error() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            for cut in 0..payload.len() {
                assert!(
                    decode_record(&payload[..cut]).is_err(),
                    "prefix of len {cut} of {rec:?} decoded"
                );
            }
        }
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let payload = encode_record(&sample_records()[1]);
        let sum = checksum(&payload);
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn fault_plan_none_never_crashes() {
        let mut wal = Wal::new(FaultPlan::none());
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        assert!(!wal.crashed());
        assert_eq!(wal.ops(), 8);
        assert_eq!(wal.committed_statements(), 1);
        assert_eq!(wal.crash_site(), None);
    }

    #[test]
    fn lost_fault_drops_the_op_and_everything_after() {
        let mut wal = Wal::new(FaultPlan {
            crash_op: 2,
            mode: FaultMode::Lost,
        });
        let recs = sample_records();
        let mut clean = Wal::new(FaultPlan::none());
        for rec in &recs[..2] {
            clean.append(rec).unwrap();
        }
        for rec in &recs {
            wal.append(rec).unwrap();
        }
        assert!(wal.crashed());
        assert_eq!(wal.image(), clean.image(), "durable prefix is ops 0..2");
        assert_eq!(wal.committed_statements(), 0, "the commit op never landed");
    }

    #[test]
    fn torn_fault_writes_a_proper_prefix() {
        let recs = sample_records();
        for keep_sel in 0..64u64 {
            let mut wal = Wal::new(FaultPlan {
                crash_op: 1,
                mode: FaultMode::Torn { keep_sel },
            });
            let mut clean = Wal::new(FaultPlan::none());
            clean.append(&recs[0]).unwrap();
            let full = clean.image().len();
            for rec in &recs {
                wal.append(rec).unwrap();
            }
            let torn_len = wal.image().len() - full;
            let frame_len = FRAME_HEADER + encode_record(&recs[1]).len();
            assert!(torn_len >= 1 && torn_len < frame_len, "torn_len={torn_len}");
            assert_eq!(&wal.image()[..full], clean.image());
        }
    }

    #[test]
    fn corrupt_fault_lands_full_length_but_fails_checksum() {
        let recs = sample_records();
        for byte_sel in 0..32u64 {
            let mut wal = Wal::new(FaultPlan {
                crash_op: 0,
                mode: FaultMode::Corrupt { byte_sel },
            });
            wal.append(&recs[1]).unwrap();
            let payload_len = encode_record(&recs[1]).len();
            assert_eq!(wal.image().len(), FRAME_HEADER + payload_len);
            let stored = u32::from_le_bytes(wal.image()[4..8].try_into().unwrap());
            assert_ne!(checksum(&wal.image()[8..]), stored);
        }
    }

    #[test]
    fn snapshot_appends_share_the_op_counter() {
        // Ops: log(0), snap begin(1), snap end(2), log(3). A crash_op of 2
        // must land on the snapshot seal, leaving the log intact and the
        // snapshot unsealed.
        let mut wal = Wal::new(FaultPlan {
            crash_op: 2,
            mode: FaultMode::Lost,
        });
        wal.append(&WalRecord::Ddl { sql: "x".into() }).unwrap();
        wal.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx: 1 })
            .unwrap();
        wal.append_snapshot(&WalRecord::SnapshotEnd {
            stmt_idx: 1,
            records: 0,
        })
        .unwrap();
        wal.append(&WalRecord::Commit { stmt_idx: 1 }).unwrap();
        assert!(wal.crashed());
        assert_eq!(wal.crash_site(), Some(CrashSite::Snapshot));
        assert_eq!(wal.durable_snapshot_stmts(), None, "seal never landed");
        assert!(!wal.snapshot_image().is_empty(), "begin frame is durable");
        assert_eq!(wal.committed_statements(), 0);
    }

    #[test]
    fn durable_snapshot_seal_records_ground_truth() {
        let mut wal = Wal::new(FaultPlan::none());
        wal.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx: 3 })
            .unwrap();
        wal.append_snapshot(&WalRecord::SnapshotEnd {
            stmt_idx: 3,
            records: 0,
        })
        .unwrap();
        assert_eq!(wal.durable_snapshot_stmts(), Some(3));
        // A seal written to the *log* (hostile/mutant image) never counts.
        wal.append(&WalRecord::SnapshotEnd {
            stmt_idx: 9,
            records: 0,
        })
        .unwrap();
        assert_eq!(wal.durable_snapshot_stmts(), Some(3));
    }

    #[test]
    fn truncate_clears_log_and_counts_one_op() {
        let mut wal = Wal::new(FaultPlan::none());
        wal.append(&WalRecord::Ddl { sql: "x".into() }).unwrap();
        wal.append(&WalRecord::Commit { stmt_idx: 0 }).unwrap();
        assert!(!wal.image().is_empty());
        wal.truncate_log();
        assert!(wal.image().is_empty());
        assert_eq!(wal.ops(), 3);
        assert_eq!(wal.committed_statements(), 1, "ground truth survives");
    }

    #[test]
    fn crash_at_truncation_leaves_log_intact_for_every_mode() {
        for mode in [
            FaultMode::Lost,
            FaultMode::Torn { keep_sel: 5 },
            FaultMode::Corrupt { byte_sel: 5 },
        ] {
            let mut wal = Wal::new(FaultPlan { crash_op: 2, mode });
            wal.append(&WalRecord::Ddl { sql: "x".into() }).unwrap();
            wal.append(&WalRecord::Commit { stmt_idx: 0 }).unwrap();
            let before = wal.image().to_vec();
            wal.truncate_log();
            assert!(wal.crashed());
            assert_eq!(wal.crash_site(), Some(CrashSite::Truncate));
            assert_eq!(wal.image(), &before[..], "truncation must be lost");
        }
    }

    #[test]
    fn reclaim_keeps_the_newest_seal_and_counts_an_op_only_when_it_frees_bytes() {
        let seal = |wal: &mut Wal, stmt_idx| {
            wal.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx })
                .unwrap();
            wal.append_snapshot(&WalRecord::SnapshotEnd {
                stmt_idx,
                records: 0,
            })
            .unwrap();
        };
        let mut wal = Wal::new(FaultPlan::none());
        wal.reclaim_snapshots(false);
        seal(&mut wal, 1);
        wal.reclaim_snapshots(false);
        assert_eq!(wal.ops(), 2, "nothing older than the newest seal: no op");
        let first = wal.snapshot_image().len();
        seal(&mut wal, 2);
        let newest = wal.snapshot_image()[first..].to_vec();
        wal.reclaim_snapshots(false);
        assert_eq!(wal.ops(), 5);
        assert_eq!(wal.snapshot_image(), &newest[..], "only the newest is left");
        assert_eq!(wal.durable_snapshot_stmts(), Some(2));
        // The ReclaimNewestSnapshot mutant's reclaim empties the file.
        wal.reclaim_snapshots(true);
        assert!(wal.snapshot_image().is_empty());
        assert_eq!(wal.ops(), 6);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let a = FaultPlan::seeded(seed, 10);
            let b = FaultPlan::seeded(seed, 10);
            assert_eq!(a, b);
            assert!(!a.crashes() || a.crash_op < 10);
        }
        assert!(!FaultPlan::seeded(99, 0).crashes());
        // All three modes (and the no-crash case) occur over a seed sweep.
        let mut lost = 0;
        let mut torn = 0;
        let mut corrupt = 0;
        let mut none = 0;
        for seed in 0..200u64 {
            match FaultPlan::seeded(seed, 10) {
                p if !p.crashes() => none += 1,
                FaultPlan {
                    mode: FaultMode::Lost,
                    ..
                } => lost += 1,
                FaultPlan {
                    mode: FaultMode::Torn { .. },
                    ..
                } => torn += 1,
                FaultPlan {
                    mode: FaultMode::Corrupt { .. },
                    ..
                } => corrupt += 1,
            }
        }
        assert!(lost > 0 && torn > 0 && corrupt > 0 && none > 0);
    }

    #[test]
    fn fault_plan_seeded_streams_are_pinned() {
        // Golden values: the seed → plan mapping is part of the repro
        // contract (a finding's fault_seed must rebuild the same plan in
        // any build on any platform). If this test breaks, the seed
        // scheme changed and every recorded repro coordinate is invalid.
        assert_eq!(
            FaultPlan::seeded(0, 10),
            FaultPlan {
                crash_op: 1,
                mode: FaultMode::Lost
            }
        );
        assert_eq!(
            FaultPlan::seeded(1, 10),
            FaultPlan {
                crash_op: 9,
                mode: FaultMode::Torn {
                    keep_sel: 17911839290282890590
                }
            }
        );
        assert_eq!(
            FaultPlan::seeded(2, 10),
            FaultPlan {
                crash_op: 6,
                mode: FaultMode::Corrupt {
                    byte_sel: 10987583248141275951
                }
            }
        );
        assert_eq!(FaultPlan::seeded(4, 10), FaultPlan::none());
    }

    #[test]
    fn media_plan_seeded_streams_are_pinned() {
        // Golden values for the media axis — same contract as the fault
        // plan's pinned stream.
        assert_eq!(
            MediaPlan::seeded(0, 10),
            MediaPlan {
                site: StorageSite::Snapshot,
                mode: MediaMode::Rot {
                    bit_sel: 487617019471545679
                }
            }
        );
        assert_eq!(
            MediaPlan::seeded(2, 10),
            MediaPlan {
                site: StorageSite::Log,
                mode: MediaMode::None
            }
        );
        assert_eq!(
            MediaPlan::seeded(10, 10),
            MediaPlan {
                site: StorageSite::Log,
                mode: MediaMode::PermanentRead
            }
        );
        assert_eq!(
            MediaPlan::seeded(20, 10),
            MediaPlan {
                site: StorageSite::Log,
                mode: MediaMode::TransientRead { failures: 2 }
            }
        );
        assert_eq!(
            MediaPlan::seeded(23, 10),
            MediaPlan {
                site: StorageSite::Log,
                mode: MediaMode::NoSpace { at_op: 1 }
            }
        );
    }

    #[test]
    fn media_plan_seeded_covers_every_mode_and_both_retry_regimes() {
        let mut none = 0;
        let mut rot = 0;
        let mut heal = 0; // transient within the cap
        let mut beyond = 0; // transient beyond the cap
        let mut permanent = 0;
        let mut nospace = 0;
        for seed in 0..400u64 {
            let p = MediaPlan::seeded(seed, 10);
            assert_eq!(p, MediaPlan::seeded(seed, 10), "deterministic");
            match p.mode {
                MediaMode::None => none += 1,
                MediaMode::Rot { .. } => rot += 1,
                MediaMode::TransientRead { failures } => {
                    assert!((1..=6).contains(&failures));
                    if failures <= READ_RETRY_CAP {
                        heal += 1;
                    } else {
                        beyond += 1;
                    }
                }
                MediaMode::PermanentRead => permanent += 1,
                MediaMode::NoSpace { at_op } => {
                    assert!(at_op <= 10);
                    nospace += 1;
                }
            }
        }
        assert!(
            none > 0 && rot > 0 && heal > 0 && beyond > 0 && permanent > 0 && nospace > 0,
            "none={none} rot={rot} heal={heal} beyond={beyond} permanent={permanent} nospace={nospace}"
        );
    }

    #[test]
    fn read_retry_heals_transient_faults_within_the_cap() {
        let bugs = BugRegistry::none();
        for failures in 1..=READ_RETRY_CAP {
            let mut disk = SimDisk::from_bytes(vec![1, 2, 3]);
            disk.set_read_fault(Some(ReadFault::Transient { failures }));
            let got = disk
                .read_with_retry(StorageSite::Log, &bugs)
                .unwrap()
                .to_vec();
            assert_eq!(got, vec![1, 2, 3]);
            assert_eq!(disk.read_attempts(), (failures + 1) as u64);
            // Per-call semantics: a second read pays the same schedule.
            disk.read_with_retry(StorageSite::Log, &bugs).unwrap();
            assert_eq!(disk.read_attempts(), 2 * (failures + 1) as u64);
        }
    }

    #[test]
    fn read_retry_fails_stop_beyond_the_cap_and_on_permanent_faults() {
        let bugs = BugRegistry::none();
        let mut disk = SimDisk::from_bytes(vec![9]);
        disk.set_read_fault(Some(ReadFault::Transient {
            failures: READ_RETRY_CAP + 1,
        }));
        let err = disk.read_with_retry(StorageSite::Log, &bugs).unwrap_err();
        assert_eq!(
            err.kind,
            StorageFaultKind::ReadFault {
                attempts: READ_RETRY_CAP + 1,
                permanent: false
            }
        );

        let mut disk = SimDisk::from_bytes(vec![9]);
        disk.set_read_fault(Some(ReadFault::Permanent));
        let err = disk
            .read_with_retry(StorageSite::Snapshot, &bugs)
            .unwrap_err();
        assert_eq!(err.site, StorageSite::Snapshot);
        assert_eq!(
            err.kind,
            StorageFaultKind::ReadFault {
                attempts: READ_RETRY_CAP + 1,
                permanent: true
            }
        );
    }

    #[test]
    fn read_retry_mutants_break_the_contract_in_opposite_directions() {
        // TransientFaultAsPermanentLoss: gives up on the first failure of
        // a fault the retry schedule must heal.
        let bugs = BugRegistry::only(MediaBugId::TransientFaultAsPermanentLoss);
        let mut disk = SimDisk::from_bytes(vec![7]);
        disk.set_read_fault(Some(ReadFault::Transient { failures: 1 }));
        let err = disk.read_with_retry(StorageSite::Log, &bugs).unwrap_err();
        assert_eq!(
            err.kind,
            StorageFaultKind::ReadFault {
                attempts: 1,
                permanent: false
            }
        );

        // RetryCapIgnored: silently retries a transient fault past the cap
        // where the contract demands a structured error...
        let bugs = BugRegistry::only(MediaBugId::RetryCapIgnored);
        let mut disk = SimDisk::from_bytes(vec![7]);
        disk.set_read_fault(Some(ReadFault::Transient {
            failures: READ_RETRY_CAP + 3,
        }));
        assert!(disk.read_with_retry(StorageSite::Log, &bugs).is_ok());
        assert_eq!(disk.read_attempts(), (READ_RETRY_CAP + 4) as u64);
        // ...but still terminates (with an error) on a permanent fault.
        let mut disk = SimDisk::from_bytes(vec![7]);
        disk.set_read_fault(Some(ReadFault::Permanent));
        assert!(disk.read_with_retry(StorageSite::Log, &bugs).is_err());
    }

    #[test]
    fn nospace_refuses_the_nth_append_and_every_later_one() {
        let mut wal = Wal::new(FaultPlan::none());
        wal.set_media_plan(MediaPlan {
            site: StorageSite::Log,
            mode: MediaMode::NoSpace { at_op: 2 },
        });
        wal.append(&WalRecord::Ddl { sql: "a".into() }).unwrap();
        wal.commit_statement().unwrap();
        assert_eq!(wal.committed_statements(), 1);
        let before = wal.image().to_vec();
        let err = wal.append(&WalRecord::Ddl { sql: "b".into() }).unwrap_err();
        assert_eq!(err.site, StorageSite::Log);
        assert_eq!(err.kind, StorageFaultKind::NoSpace { op: 2 });
        // Nothing landed, the op counter did not advance, and later
        // appends (to either file) keep failing.
        assert_eq!(wal.image(), &before[..]);
        assert_eq!(wal.ops(), 2);
        assert!(wal.commit_statement().is_err());
        assert!(wal
            .append_snapshot(&WalRecord::SnapshotBegin { stmt_idx: 1 })
            .is_err());
        assert_eq!(wal.committed_statements(), 1);
        assert_eq!(wal.statements_logged(), 1, "failed commit keeps its index");
        assert!(!wal.crashed(), "disk-full is degradation, not a crash");
    }

    #[test]
    fn degrade_at_rest_applies_rot_and_arms_read_faults() {
        let mut wal = Wal::new(FaultPlan::none());
        wal.append(&WalRecord::Ddl { sql: "x".into() }).unwrap();
        let clean = wal.image().to_vec();

        let mut rotted = wal.clone();
        rotted.set_media_plan(MediaPlan {
            site: StorageSite::Log,
            mode: MediaMode::Rot { bit_sel: 13 },
        });
        rotted.degrade_at_rest();
        let dirty = rotted.image().to_vec();
        assert_ne!(dirty, clean);
        let diff: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] != dirty[i]).collect();
        assert_eq!(diff.len(), 1, "exactly one byte differs");
        assert_eq!(
            (clean[diff[0]] ^ dirty[diff[0]]).count_ones(),
            1,
            "exactly one bit flipped"
        );

        let mut faulted = wal.clone();
        faulted.set_media_plan(MediaPlan {
            site: StorageSite::Log,
            mode: MediaMode::PermanentRead,
        });
        faulted.degrade_at_rest();
        let bugs = BugRegistry::none();
        assert!(faulted.read_log_image(&bugs).is_err());
        assert!(
            faulted.read_snapshot_image(&bugs).is_ok(),
            "other site unhurt"
        );
    }

    #[test]
    fn media_describe_names_site_mode_and_retry_cap() {
        assert_eq!(MediaPlan::none().describe(), "no media fault");
        let p = MediaPlan {
            site: StorageSite::Snapshot,
            mode: MediaMode::TransientRead { failures: 5 },
        };
        let d = p.describe();
        assert!(d.contains("snapshot"), "{d}");
        assert!(d.contains("fails 5x"), "{d}");
        assert!(d.contains("retry cap 3"), "{d}");
        let p = MediaPlan {
            site: StorageSite::Log,
            mode: MediaMode::NoSpace { at_op: 7 },
        };
        assert!(p.describe().contains("disk full at append op 7"));
    }
}
