//! The crash-recovery differential oracle.
//!
//! Each test is a self-contained crash scenario: generate a schema-plus-
//! data script with a DML tail, draw a deterministic checkpoint schedule
//! (0–3 [`coddb::Database::checkpoint`] calls at seeded statement
//! positions), count the WAL operations the checkpointed run produces
//! (a fault-free [`coddb::recovery::write_phase`]), draw a deterministic
//! [`FaultPlan`] over that range — so seeded crashes land inside snapshot
//! writes, the snapshot reclaim and the truncation step, not just DML
//! traffic —
//! and check, via [`coddb::recovery::recovery_divergence`], that recovering
//! the surviving snapshot + log-suffix images reconstructs *exactly* the
//! committed prefix a never-crashed engine would hold, from exactly the
//! newest durable snapshot.
//!
//! The session's [`coddb::BugRegistry`] rides along into both sides of
//! the differential: injected *engine* mutants corrupt the faulted run
//! and the reference run identically (the WAL logs post-bug effects), so
//! they cancel out, while *recovery* mutants
//! ([`coddb::bugs::RecoveryBugId`]) hook only the scan/replay path and
//! surface as divergences — campaigns hunt recovery bugs with the same
//! machinery they use for optimizer bugs.
//!
//! Reproduction follows the campaign contract: the script seed and fault
//! seed are drawn from the test's seeded rng, so a `(campaign_seed,
//! state_idx, test_idx)` coordinate re-derives the exact crash scenario,
//! and every finding records both seeds.

use coddb::ast::{Expr, InsertSource, Statement};
use coddb::recovery::{recovery_divergence, write_phase};
use coddb::wal::{FaultPlan, MediaPlan};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use sqlgen::state::{generate_state, random_value};
use sqlgen::{GenConfig, SchemaInfo};

use crate::{Case, Oracle, ReportKind, Session, TestOutcome};

/// The crash-recovery oracle.
#[derive(Debug, Default)]
pub struct Recover;

/// Generation profile for the per-test crash script: small states so each
/// test stays cheap, DML-heavy so crash points land inside interesting
/// multi-record statements.
fn script_gen_config() -> GenConfig {
    GenConfig {
        max_tables: 2,
        max_rows: 4,
        ..GenConfig::default()
    }
}

/// Append a randomized DML tail to the generated schema script so the log
/// interleaves DDL with multi-row INSERT/UPDATE/DELETE traffic.
fn push_dml_tail(script: &mut Vec<Statement>, schema: &SchemaInfo, rng: &mut StdRng) {
    let tables = schema.base_tables();
    if tables.is_empty() {
        return;
    }
    let n = rng.random_range(3..=8usize);
    for _ in 0..n {
        let t = tables[rng.random_range(0..tables.len())];
        let filter = |rng: &mut StdRng| -> Option<Expr> {
            if t.columns.is_empty() || rng.random_bool(0.3) {
                return None;
            }
            let (name, ty) = &t.columns[rng.random_range(0..t.columns.len())];
            Some(Expr::eq(
                Expr::bare_col(name.clone()),
                Expr::lit(random_value(rng, *ty)),
            ))
        };
        match rng.random_range(0..3u32) {
            0 => {
                let rows = (0..rng.random_range(1..=3usize))
                    .map(|_| {
                        t.columns
                            .iter()
                            .map(|(_, ty)| Expr::lit(random_value(rng, *ty)))
                            .collect()
                    })
                    .collect();
                script.push(Statement::Insert {
                    table: t.name.clone(),
                    columns: Vec::new(),
                    source: InsertSource::Values(rows),
                });
            }
            1 => {
                let (name, ty) = &t.columns[rng.random_range(0..t.columns.len())];
                script.push(Statement::Update {
                    table: t.name.clone(),
                    sets: vec![(name.clone(), Expr::lit(random_value(rng, *ty)))],
                    where_clause: filter(rng),
                });
            }
            _ => {
                script.push(Statement::Delete {
                    table: t.name.clone(),
                    where_clause: filter(rng),
                });
            }
        }
    }
}

impl Oracle for Recover {
    fn name(&self) -> &'static str {
        "recover"
    }

    fn run_one(
        &mut self,
        session: &mut Session,
        _schema: &SchemaInfo,
        rng: &mut dyn Rng,
    ) -> TestOutcome {
        let script_seed = rng.next_u64();
        let fault_seed = rng.next_u64();
        let ckpt_seed = rng.next_u64();
        // Drawn after the existing seeds so their streams stay stable: a
        // pre-media campaign coordinate still derives the same script,
        // fault plan and checkpoint schedule.
        let media_seed = rng.next_u64();
        let dialect = session.dialect();
        let bugs = session.db.bugs().clone();

        let mut srng = StdRng::seed_from_u64(script_seed);
        let (mut script, script_schema) = generate_state(&mut srng, dialect, &script_gen_config());
        push_dml_tail(&mut script, &script_schema, &mut srng);

        // Draw the checkpoint schedule: 0–3 checkpoints, uniformly. Most
        // scenarios checkpoint mid-script so crashes land in snapshot
        // writes and the truncation step too, and from the third
        // checkpoint on in the snapshot reclaim; a quarter stay
        // checkpoint-free so the pure genesis path keeps its coverage.
        let mut crng = StdRng::seed_from_u64(ckpt_seed);
        let n_ckpts = crng.random_range(0..4u32);
        let mut checkpoints: Vec<usize> = (0..n_ckpts)
            .map(|_| crng.random_range(0..script.len()))
            .collect();
        checkpoints.sort_unstable();
        checkpoints.dedup();

        // Count the crash points this scenario exposes: a durable dry run
        // under the same mutants and the same checkpoint schedule, no
        // faults — snapshot frames and truncations count as ops too.
        let (_, probe) = write_phase(
            &script,
            &checkpoints,
            &FaultPlan::none(),
            &MediaPlan::none(),
            dialect,
            &bugs,
            None,
        );
        let total_ops = probe.ops();
        if total_ops == 0 {
            return TestOutcome::Skipped("script produced no durable operations".into());
        }

        let plan = FaultPlan::seeded(fault_seed, total_ops);
        let mplan = MediaPlan::seeded(media_seed, total_ops);
        match recovery_divergence(&script, &checkpoints, &plan, &mplan, dialect, &bugs) {
            None => TestOutcome::Pass,
            Some(detail) => {
                // A recovery *error* is always a bug here — unlike query
                // errors, there is no "expected" way for replaying a log
                // the engine itself wrote to fail — so it maps straight to
                // an internal-error report rather than through
                // `Case::error`'s severity filter.
                let kind = if detail.starts_with("recovery failed:") {
                    ReportKind::InternalError
                } else {
                    ReportKind::LogicDiscrepancy
                };
                let mut case = Case::new("recover");
                for stmt in script {
                    case.note("script", stmt);
                }
                case.bug(
                    kind,
                    format!(
                        "{detail}\nrepro: script_seed={script_seed:#x} fault_seed={fault_seed:#x} \
                         ckpt_seed={ckpt_seed:#x} media_seed={media_seed:#x} {} \
                         checkpoints={checkpoints:?}\n{}",
                        plan.describe(),
                        mplan.describe()
                    ),
                )
            }
        }
    }
}

/// A harness-validation oracle that deterministically panics on a slice of
/// its tests — it exists so the campaign runners' panic isolation
/// (`catch_unwind` → `Crash`-kind finding) has a reproducible trigger.
/// Never use it to test an engine.
#[derive(Debug, Default)]
pub struct PanicProbe;

impl Oracle for PanicProbe {
    fn name(&self) -> &'static str {
        "panic-probe"
    }

    fn run_one(
        &mut self,
        _session: &mut Session,
        _schema: &SchemaInfo,
        rng: &mut dyn Rng,
    ) -> TestOutcome {
        if rng.next_u64().is_multiple_of(16) {
            panic!("injected oracle panic (harness validation)");
        }
        TestOutcome::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coddb::bugs::BugRegistry;
    use coddb::{Database, Dialect};

    #[test]
    fn clean_engine_passes_many_seeded_scenarios() {
        let mut db = Database::new(Dialect::Sqlite);
        let mut session = Session::new(&mut db);
        let schema = SchemaInfo::default();
        let mut oracle = Recover;
        let mut rng = StdRng::seed_from_u64(0xD15C);
        let mut completed = 0;
        for _ in 0..40 {
            match oracle.run_one(&mut session, &schema, &mut rng) {
                TestOutcome::Bug(r) => panic!("clean engine diverged: {}", r.to_display()),
                TestOutcome::Pass => completed += 1,
                TestOutcome::Skipped(_) => {}
            }
        }
        assert!(completed > 30, "only {completed}/40 scenarios completed");
    }

    #[test]
    fn engine_mutants_cancel_out_of_the_differential() {
        // An injected *engine* bug corrupts the faulted and reference runs
        // identically, so the recovery differential stays quiet — it hunts
        // recovery bugs, not logic bugs the other oracles own.
        let bugs = BugRegistry::only(coddb::BugId::CockroachOrShortCircuitFalse);
        let mut db = Database::with_bugs(Dialect::Cockroach, bugs);
        let mut session = Session::new(&mut db);
        let schema = SchemaInfo::default();
        let mut oracle = Recover;
        let mut rng = StdRng::seed_from_u64(0xABCD);
        for _ in 0..25 {
            if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                panic!(
                    "engine mutant leaked into recovery differential: {}",
                    r.to_display()
                );
            }
        }
    }

    #[test]
    fn recovery_mutant_is_caught() {
        let bugs = BugRegistry::only(coddb::RecoveryBugId::ReorderCommitEffects);
        let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
        let mut session = Session::new(&mut db);
        let schema = SchemaInfo::default();
        let mut oracle = Recover;
        let mut rng = StdRng::seed_from_u64(1);
        let hit = (0..60).any(|_| oracle.run_one(&mut session, &schema, &mut rng).is_bug());
        assert!(hit, "reorder mutant never surfaced in 60 scenarios");
    }

    #[test]
    fn checkpoint_mutant_is_caught() {
        // A checkpoint-path mutant needs scenarios whose seeded schedule
        // actually checkpoints (and, for this one, twice) — the oracle's
        // cadence must provide them within an ordinary campaign slice.
        let bugs = BugRegistry::only(coddb::RecoveryBugId::StaleSnapshotPreferred);
        let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
        let mut session = Session::new(&mut db);
        let schema = SchemaInfo::default();
        let mut oracle = Recover;
        let mut rng = StdRng::seed_from_u64(7);
        let hit = (0..120).any(|_| oracle.run_one(&mut session, &schema, &mut rng).is_bug());
        assert!(hit, "stale-snapshot mutant never surfaced in 120 scenarios");
    }

    #[test]
    fn media_mutants_are_caught() {
        // Every media-fault mutant must surface within an ordinary
        // campaign slice: seeded media plans cover bit rot, both read-
        // fault regimes and disk-full appends.
        for bug in coddb::bugs::MediaBugId::ALL {
            let bugs = BugRegistry::only(bug);
            let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
            let mut session = Session::new(&mut db);
            let schema = SchemaInfo::default();
            let mut oracle = Recover;
            let mut rng = StdRng::seed_from_u64(11);
            let hit = (0..250).any(|_| oracle.run_one(&mut session, &schema, &mut rng).is_bug());
            assert!(hit, "{} never surfaced in 250 scenarios", bug.name());
        }
    }

    #[test]
    fn finding_detail_names_the_media_plan() {
        let bugs = BugRegistry::only(coddb::bugs::MediaBugId::SalvagePastCorruptCommit);
        let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
        let mut session = Session::new(&mut db);
        let schema = SchemaInfo::default();
        let mut oracle = Recover;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..250 {
            if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                assert!(
                    r.detail.contains("media_seed="),
                    "media seed missing: {}",
                    r.detail
                );
                assert!(
                    r.detail.contains("media:"),
                    "media describe missing: {}",
                    r.detail
                );
                return;
            }
        }
        panic!("salvage mutant never surfaced in 250 scenarios");
    }

    #[test]
    fn finding_detail_names_the_fault_plan_and_schedule() {
        let bugs = BugRegistry::only(coddb::RecoveryBugId::ReplayUncommitted);
        let mut db = Database::with_bugs(Dialect::Sqlite, bugs);
        let mut session = Session::new(&mut db);
        let schema = SchemaInfo::default();
        let mut oracle = Recover;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..120 {
            if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                assert!(
                    r.detail.contains("crash at op"),
                    "describe() missing: {}",
                    r.detail
                );
                assert!(
                    r.detail.contains("ckpt_seed="),
                    "ckpt seed missing: {}",
                    r.detail
                );
                assert!(
                    r.detail.contains("checkpoints="),
                    "schedule missing: {}",
                    r.detail
                );
                return;
            }
        }
        panic!("replay-uncommitted mutant never surfaced in 120 scenarios");
    }
}
