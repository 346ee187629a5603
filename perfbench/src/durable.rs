//! The `durable-sql` workload: SQL text through `parse_statements` and
//! `Database::execute` on the engine benchmark tables (200 to 3,000 rows)
//! in `StorageMode::Durable`. The `QUERY_SHAPES` reads are interleaved
//! with INSERT/UPDATE/DELETE writes, with a `checkpoint()` at a fixed
//! statement interval; the round ends by scrubbing and recovering the
//! final log and snapshot images.

use std::collections::BTreeSet;
use std::time::Instant;

use coddb::ast::Statement;
use coddb::parser::parse_statements;
use coddb::plan::{plan_select, PlanCtx};
use coddb::recovery::recover_detailed;
use coddb::{scrub_images, BugRegistry, Database, ExecOutcome, Relation, StorageMode};
use coddtest_bench::{engine_setup, QUERY_SHAPES};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::Tracer;
use crate::Round;

/// Statements in one round.
const STMTS: usize = 4000;
/// A checkpoint runs after every this many statements: 8 per round,
/// leaving a 400-statement log suffix for recovery to replay.
const CHECKPOINT_EVERY: usize = 450;
/// Scrub + recover repetitions over the final images of a round.
const RECOVER_REPS: usize = 3;
/// Every this many reads, the result is compared with `query_unoptimized`
/// (outside the timed region).
const CHECK_EVERY_READ: usize = 25;
/// Statements of the warm-up in one set-up.
const WARMUP_STMTS: usize = 400;

/// One generated statement: is it a read, and its SQL text.
struct Stmt {
    read: bool,
    sql: String,
}

/// Live keys of one table, so that writes hit existing rows and table
/// sizes stay within one row of their set-up size.
struct Keys {
    live: Vec<i64>,
    next: i64,
    base: usize,
}

impl Keys {
    fn new(n: i64) -> Keys {
        Keys {
            live: (0..n).collect(),
            next: n,
            base: n as usize,
        }
    }

    fn pick(&self, rng: &mut StdRng) -> i64 {
        self.live[rng.random_range(0..self.live.len())]
    }

    /// Insert a fresh key when at or below the set-up size, else delete a
    /// live one. Returns `(inserted, key)`.
    fn churn(&mut self, rng: &mut StdRng) -> (bool, i64) {
        if self.live.len() <= self.base {
            let k = self.next;
            self.next += 1;
            self.live.push(k);
            (true, k)
        } else {
            let i = rng.random_range(0..self.live.len());
            (false, self.live.swap_remove(i))
        }
    }
}

/// What one script slot holds: a `QUERY_SHAPES` index, or a write kind.
#[derive(Clone, Copy)]
enum Slot {
    Read(usize),
    Write(u32),
}

/// Write kinds, taken in turn; kinds 4 and 5 both churn t6, the
/// 3,000-row indexed table.
const WRITE_KINDS: u32 = 7;

/// The statement script of one round: 70 % reads, each `QUERY_SHAPES`
/// query the same number of times (±1), and 30 % writes over t0, t1, t4
/// and t6, each kind the same number of times (±1). Only the order and the
/// keys are drawn from `seed`, so every round runs the same mix, and tail
/// latency does not depend on how often a seed drew the heaviest query.
fn script(seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = StdRng::seed_from_u64(seed);
    let reads = n * 7 / 10;
    let mut slots: Vec<Slot> = (0..n)
        .map(|i| {
            if i < reads {
                Slot::Read(i % QUERY_SHAPES.len())
            } else {
                Slot::Write((i - reads) as u32 % WRITE_KINDS)
            }
        })
        .collect();
    for i in (1..n).rev() {
        slots.swap(i, rng.random_range(0..i + 1));
    }
    let (mut t0, mut t1, mut t6) = (Keys::new(200), Keys::new(40), Keys::new(3000));
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        let kind = match slot {
            Slot::Read(shape) => {
                out.push(Stmt {
                    read: true,
                    sql: QUERY_SHAPES[shape].1.to_string(),
                });
                continue;
            }
            Slot::Write(kind) => kind,
        };
        let sql = match kind {
            0 => match t0.churn(&mut rng) {
                (true, k) => format!("INSERT INTO t0 VALUES ({k}, 'r{k}', {k}.5)"),
                (false, k) => format!("DELETE FROM t0 WHERE c0 = {k}"),
            },
            1 => format!(
                "UPDATE t0 SET c2 = c2 + 1.5 WHERE c0 = {}",
                t0.pick(&mut rng)
            ),
            2 => match t1.churn(&mut rng) {
                (true, k) => format!("INSERT INTO t1 VALUES ({k}, 'x{k}')"),
                (false, k) => format!("DELETE FROM t1 WHERE c0 = {k}"),
            },
            3 => format!(
                "UPDATE t4 SET c3 = c3 + 1, c9 = c9 + 0.25 WHERE c0 = {}",
                rng.random_range(0..300i64)
            ),
            4 | 5 => match t6.churn(&mut rng) {
                (true, k) => format!("INSERT INTO t6 VALUES ({k}, 'v{k}')"),
                (false, k) => format!("DELETE FROM t6 WHERE k = {k}"),
            },
            _ => format!("UPDATE t6 SET v = 'u{i}' WHERE k = {}", t6.pick(&mut rng)),
        };
        out.push(Stmt { read: false, sql });
    }
    out
}

/// The engine benchmark tables in durable mode, with a first checkpoint
/// so that the snapshot holds the set-up state.
fn setup_db() -> Database {
    let mut db = engine_setup();
    db.set_storage_mode(StorageMode::Durable);
    db.checkpoint().expect("checkpoint of the set-up state");
    db
}

/// Set-up: build the durable tables and run a warm-up script on them.
/// Returns its wall time.
pub fn setup(seed: u64) -> f64 {
    let start = Instant::now();
    let mut db = setup_db();
    for s in script(seed, WARMUP_STMTS) {
        let stmts = parse_statements(&s.sql).expect("generated SQL parses");
        db.execute(&stmts[0]).expect("generated SQL executes");
    }
    start.elapsed().as_secs_f64()
}

fn sorted_rows(rel: &Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn wal_lens(db: &Database) -> (usize, usize) {
    db.wal()
        .map(|w| (w.image().len(), w.snapshot_image().len()))
        .unwrap_or((0, 0))
}

/// One round on a fresh durable database: the script, then
/// [`RECOVER_REPS`] scrub + recover passes over the final images.
pub fn round(seed: u64, tr: &mut Tracer) -> Round {
    let mut round = Round::default();
    let stmts = script(seed, STMTS);
    let mut db = setup_db();
    let traced = tr.enabled();
    let (_, snap_start) = wal_lens(&db);
    let commits_start = db.wal().map_or(0, |w| w.committed_statements());
    let (mut parse_calls, mut plan_calls, mut checkpoints, mut reads) = (0u64, 0u64, 0u64, 0usize);
    let (mut log_bytes, mut user_bytes, mut fuel, mut memo_hits, mut memo_misses) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut untimed_s = 0.0;

    let root = tr.begin("round", 0);
    let start = Instant::now();
    for (i, s) in stmts.iter().enumerate() {
        let req = i as u64 + 1;
        let t0 = Instant::now();
        let (log_before, _) = if traced { wal_lens(&db) } else { (0, 0) };
        let fuel_before = db.fuel_used();
        let (hits_before, misses_before) = db.subquery_memo_stats();

        let p = tr.begin("coddb.parser", req);
        let parsed = parse_statements(&s.sql);
        tr.end(p);
        parse_calls += 1;
        let stmt = match parsed {
            Ok(mut v) if v.len() == 1 => v.remove(0),
            other => {
                round.failed += 1;
                round
                    .errors
                    .push(format!("{:?} parsing {}", other.err(), s.sql));
                continue;
            }
        };

        // The engine plans inside `execute`; the traced run measures
        // planning with a separate `plan_select` call just before it and
        // books that duration as the plan child of the execute span. The
        // separate call itself is tracing overhead (`trace.shadow_plan`).
        let mut plan_ns = None;
        if traced {
            if let Statement::Select(q) = &stmt {
                let sh = tr.begin("trace.shadow_plan", req);
                let (a, pctx) = (
                    tr.stamp(),
                    PlanCtx {
                        catalog: db.catalog(),
                        dialect: db.dialect(),
                        bugs: db.bugs(),
                        cov: db.coverage(),
                        optimize: true,
                    },
                );
                let _ = std::hint::black_box(plan_select(q, &pctx, &BTreeSet::new()));
                plan_ns = Some((a, tr.stamp()));
                tr.end(sh);
                plan_calls += 1;
            }
        }
        let e = tr.begin(
            if s.read {
                "coddb.exec.select"
            } else {
                "coddb.exec.dml"
            },
            req,
        );
        let out = db.execute(&stmt);
        if let Some((a, b)) = plan_ns {
            tr.record_child("coddb.plan", e, req, a, b);
        }
        tr.end(e);
        let mut ckpt_ms = None;
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let c = tr.begin("coddb.checkpoint", req);
            let tc = Instant::now();
            if let Err(err) = db.checkpoint() {
                round.failed += 1;
                round.errors.push(format!("checkpoint failed: {err}"));
            }
            ckpt_ms = Some(tc.elapsed().as_secs_f64() * 1e3);
            tr.end(c);
            checkpoints += 1;
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        round.latencies_us.push(us);
        round.sample(if s.read { "read_us" } else { "write_us" }, us);
        if let Some(ms) = ckpt_ms {
            round.sample("checkpoint_ms", ms);
        }
        if traced {
            let (log_after, _) = wal_lens(&db);
            // A checkpoint truncates the log; count only appended bytes.
            log_bytes += log_after.saturating_sub(log_before) as u64;
            let (hits_after, misses_after) = db.subquery_memo_stats();
            memo_hits += hits_after - hits_before;
            memo_misses += misses_after - misses_before;
            fuel += db.fuel_used() - fuel_before;
        }
        if !s.read {
            user_bytes += s.sql.len() as u64;
        }
        round.attempted += 1;
        match out {
            Err(err) => {
                round.failed += 1;
                round.errors.push(format!("{err} executing {}", s.sql));
            }
            Ok(ExecOutcome::Rows(rel)) if s.read => {
                reads += 1;
                if reads % CHECK_EVERY_READ == 0 {
                    // Not the program's work: its own span, left out of the
                    // wall time that per-layer shares are taken of.
                    let c = tr.begin("bench.check", req);
                    let tc = Instant::now();
                    if let Statement::Select(q) = &stmt {
                        match db.query_unoptimized(q) {
                            Ok(reference) if sorted_rows(&reference) == sorted_rows(&rel) => {}
                            other => {
                                round.failed += 1;
                                round.errors.push(format!(
                                    "{} differs from the unoptimized result: {:?}",
                                    s.sql,
                                    other.map(|r| r.rows.len())
                                ));
                            }
                        }
                    }
                    untimed_s += tc.elapsed().as_secs_f64();
                    tr.end(c);
                }
            }
            Ok(_) if s.read => {
                round.failed += 1;
                round.errors.push(format!("{} returned no rows", s.sql));
            }
            Ok(_) => {}
        }
    }
    round.query_s = start.elapsed().as_secs_f64() - untimed_s;

    // Scrub and recover the final images, repeatedly, as a restart would.
    let w = db.wal().expect("durable mode");
    let (log, snap) = (w.image(), w.snapshot_image());
    let mut recovered = None;
    let rec_start = Instant::now();
    for _ in 0..RECOVER_REPS {
        let t = Instant::now();
        let s = tr.begin("coddb.recovery.scrub", 0);
        let report = scrub_images(log, snap, &BugRegistry::none());
        tr.end(s);
        let s = tr.begin("coddb.recovery.recover", 0);
        let rec = recover_detailed(log, snap, db.dialect(), &BugRegistry::none());
        tr.end(s);
        round.sample("recover_ms", t.elapsed().as_secs_f64() * 1e3);
        if !report.clean() {
            round
                .errors
                .push("scrub found damage on undamaged images".into());
        }
        recovered = Some(rec);
    }
    round.wall_s = round.query_s + rec_start.elapsed().as_secs_f64();
    tr.end(root);
    round.spans = tr.take();
    round.tests = stmts.len() as u64;
    round.queries = reads as u64;

    // Recovery must rebuild exactly the live state.
    let image_bytes = (log.len() + snap.len()) as f64;
    round.attempted += 1;
    match recovered.expect("at least one recovery") {
        Ok((mut rdb, info)) => {
            if rdb.dump_state() != db.dump_state() {
                round.failed += 1;
                round
                    .errors
                    .push("recovered state differs from the live state".into());
            }
            round.count(
                "coddb.recovery.snapshots_scanned",
                info.snapshots_scanned as f64,
            );
            round.count("coddb.recovery.log_records", info.log_records as f64);
            // Live data size: one snapshot of the recovered state.
            rdb.set_storage_mode(StorageMode::Durable);
            if rdb.checkpoint().is_ok() {
                let live = rdb.wal().map_or(0, |w| w.snapshot_image().len()) as f64;
                round.sample("space_amp", image_bytes / live.max(1.0));
            }
        }
        Err(err) => {
            round.failed += 1;
            round.errors.push(format!("recovery failed: {err}"));
        }
    }
    let (_, snap_end) = wal_lens(&db);
    let commits = db.wal().map_or(0, |w| w.committed_statements()) - commits_start;
    round.count("coddb.parser.calls", parse_calls as f64);
    round.count("coddb.plan.calls", plan_calls as f64);
    round.count("coddb.checkpoint.calls", checkpoints as f64);
    round.count("coddb.exec.fuel", fuel as f64);
    round.count("coddb.exec.memo_hits", memo_hits as f64);
    round.count("coddb.exec.memo_misses", memo_misses as f64);
    round.count("coddb.wal.log_bytes", log_bytes as f64);
    round.count(
        "coddb.wal.snapshot_bytes",
        snap_end.saturating_sub(snap_start) as f64,
    );
    round.count("coddb.wal.commits", commits as f64);
    round.count("coddb.wal.user_bytes", user_bytes as f64);
    round
}
