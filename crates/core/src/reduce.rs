//! Delta-debugging reducer for bug-inducing test cases.
//!
//! The paper reduces every case before reporting ("we manually reduced the
//! bug-inducing test cases", citing Zeller & Hildebrandt's
//! simplifying-and-isolating work). This module automates the two most
//! effective reductions for CODDTest cases:
//!
//! 1. **statement reduction** — drop setup statements while the original
//!    and folded queries still disagree,
//! 2. **expression shrinking** — replace sub-expressions of the original
//!    query's predicate with simpler nodes while the discrepancy persists.
//!
//! Crash-recovery findings reduce through the same discipline
//! ([`reduce_recovery`]): drop script statements, drop checkpoint
//! positions, and simplify the [`FaultPlan`] while the case still
//! *recovers incorrectly* — the recovered state diverges from the
//! committed prefix — under the given mutants and recovers correctly on a
//! clean engine.

use coddb::ast::{Expr, Select, Statement};
use coddb::bugs::BugRegistry;
use coddb::recovery::recovery_divergence;
use coddb::value::Value;
use coddb::wal::{FaultMode, FaultPlan, MediaMode, MediaPlan};
use coddb::{Database, Dialect};

/// A reducible CODDTest case: setup + the disagreeing query pair.
#[derive(Debug, Clone)]
pub struct ReducibleCase {
    pub setup: Vec<Statement>,
    pub original: Select,
    pub folded: Select,
}

impl ReducibleCase {
    /// Total size proxy (statement count + rendered query length).
    pub fn size(&self) -> usize {
        self.setup.len() * 100 + self.original.to_string().len()
    }
}

/// Does the case still reproduce a *mutant-caused* logic discrepancy?
///
/// Two conditions must hold, mirroring how a reporter validates a reduced
/// case against a fixed build:
///
/// 1. on the buggy engine both queries succeed and **disagree**,
/// 2. on a clean engine both queries succeed and **agree** (otherwise the
///    shrink merely produced two inequivalent queries, losing the bug).
pub fn still_failing(case: &ReducibleCase, dialect: Dialect, bugs: &BugRegistry) -> bool {
    let run = |bugs: BugRegistry| -> Option<(coddb::Relation, coddb::Relation)> {
        let mut db = Database::with_bugs(dialect, bugs);
        for s in &case.setup {
            if db.execute(s).is_err() {
                return None;
            }
        }
        let o = db.query(&case.original).ok()?;
        let f = db.query(&case.folded).ok()?;
        Some((o, f))
    };
    let Some((bo, bf)) = run(bugs.clone()) else {
        return false;
    };
    let Some((co, cf)) = run(BugRegistry::none()) else {
        return false;
    };
    !bo.multiset_eq(&bf) && co.multiset_eq(&cf)
}

/// Reduce a failing case to a (locally) minimal one. The result is
/// guaranteed to still fail.
pub fn reduce(case: &ReducibleCase, dialect: Dialect, bugs: &BugRegistry) -> ReducibleCase {
    assert!(
        still_failing(case, dialect, bugs),
        "cannot reduce a passing case"
    );
    let mut current = case.clone();

    // Phase 1: drop setup statements.
    drop_to_fixpoint(
        &mut current,
        |c| c.setup.len(),
        |c, i| {
            c.setup.remove(i);
        },
        |c| still_failing(c, dialect, bugs),
    );

    // Phase 2: shrink the original query's WHERE expression; mirror every
    // accepted shrink in the folded query when the same subtree exists.
    if let Some(where_clause) = current.original.core().and_then(|c| c.where_clause.clone()) {
        let shrunk = shrink_expr(&where_clause, &mut |e| {
            let mut candidate = current.clone();
            if let Some(core) = candidate.original.core_mut() {
                core.where_clause = Some(e.clone());
            }
            still_failing(&candidate, dialect, bugs)
        });
        if let Some(core) = current.original.core_mut() {
            core.where_clause = Some(shrunk);
        }
    }

    debug_assert!(still_failing(&current, dialect, bugs));
    current
}

/// A reducible crash-recovery case: the executed script, the checkpoint
/// schedule (statement indices after which the run checkpointed), and the
/// fault plan that crashed it.
#[derive(Debug, Clone)]
pub struct RecoveryCase {
    pub script: Vec<Statement>,
    /// 0-based statement indices after which [`coddb::Database::checkpoint`]
    /// ran; empty for a genesis-replay case.
    pub checkpoints: Vec<usize>,
    pub plan: FaultPlan,
    /// The orthogonal media-fault axis (at-rest rot, read faults,
    /// disk-full appends); [`MediaPlan::none`] for a pure crash case.
    pub media: MediaPlan,
}

impl RecoveryCase {
    /// Total size proxy: statement count, then checkpoint count, then a
    /// small penalty for a crash plan more complex than a clean lost
    /// write, then one for any media fault beyond a plain disk-full.
    pub fn size(&self) -> usize {
        let mode_cost = match self.plan.mode {
            _ if !self.plan.crashes() => 0,
            FaultMode::Lost => 1,
            FaultMode::Torn { .. } | FaultMode::Corrupt { .. } => 2,
        };
        let media_cost = match self.media.mode {
            MediaMode::None => 0,
            MediaMode::NoSpace { .. } => 1,
            MediaMode::Rot { .. } | MediaMode::TransientRead { .. } | MediaMode::PermanentRead => 2,
        };
        self.script.len() * 100 + self.checkpoints.len() * 10 + mode_cost + media_cost
    }
}

/// Does the case still *recover incorrectly* — mirror of [`still_failing`]
/// for crash-recovery findings?
///
/// 1. under `bugs`, recovery of the crashed script diverges from the
///    committed prefix, and
/// 2. on a clean engine the same scenario recovers exactly (otherwise the
///    shrink produced a script that fails for an unrelated reason).
pub fn recovery_still_failing(case: &RecoveryCase, dialect: Dialect, bugs: &BugRegistry) -> bool {
    // One differential serves both kinds of case: without a media fault
    // it holds the case to the crash-only contract.
    recovery_divergence(
        &case.script,
        &case.checkpoints,
        &case.plan,
        &case.media,
        dialect,
        bugs,
    )
    .is_some()
        && recovery_divergence(
            &case.script,
            &case.checkpoints,
            &case.plan,
            &case.media,
            dialect,
            &BugRegistry::none(),
        )
        .is_none()
}

/// Fault plans simpler than `plan`, most-simple first: no crash at all,
/// then a plain lost write at an earlier operation, then the same fault
/// mode moved earlier, then the same crash point downgraded to a lost
/// write.
fn simpler_plans(plan: &FaultPlan) -> Vec<FaultPlan> {
    if !plan.crashes() {
        // A non-crashing plan is already minimal.
        return Vec::new();
    }
    let mut out = vec![FaultPlan::none()];
    for op in 0..plan.crash_op {
        out.push(FaultPlan {
            crash_op: op,
            mode: FaultMode::Lost,
        });
    }
    if !matches!(plan.mode, FaultMode::Lost) {
        for op in 0..plan.crash_op {
            out.push(FaultPlan {
                crash_op: op,
                mode: plan.mode,
            });
        }
        out.push(FaultPlan {
            crash_op: plan.crash_op,
            mode: FaultMode::Lost,
        });
    }
    out
}

/// Media plans simpler than `media`, most-simple first: no media fault at
/// all, then a transient read fault that heals sooner, or a disk that
/// fills earlier (a smaller `at_op` means less committed history before
/// the refusal). Bit rot and permanent read faults have no intermediate
/// shrink beyond removal.
fn simpler_media(media: &MediaPlan) -> Vec<MediaPlan> {
    if !media.faults() {
        return Vec::new();
    }
    let mut out = vec![MediaPlan::none()];
    match media.mode {
        MediaMode::TransientRead { failures } => {
            for f in 1..failures {
                out.push(MediaPlan {
                    site: media.site,
                    mode: MediaMode::TransientRead { failures: f },
                });
            }
        }
        MediaMode::NoSpace { at_op } => {
            for op in 0..at_op {
                out.push(MediaPlan {
                    site: media.site,
                    mode: MediaMode::NoSpace { at_op: op },
                });
            }
        }
        MediaMode::None | MediaMode::Rot { .. } | MediaMode::PermanentRead => {}
    }
    out
}

/// Reduce a failing crash-recovery case to a (locally) minimal one,
/// shrinking both the script and the fault plan. The result is guaranteed
/// to still recover incorrectly.
pub fn reduce_recovery(case: &RecoveryCase, dialect: Dialect, bugs: &BugRegistry) -> RecoveryCase {
    assert!(
        recovery_still_failing(case, dialect, bugs),
        "cannot reduce a passing case"
    );
    let mut current = case.clone();
    let fails = |c: &RecoveryCase| recovery_still_failing(c, dialect, bugs);
    // Statement removal shifts every later operation index, which can move
    // the crash out from under the divergence — and a simpler plan can
    // make more statements droppable (likewise for checkpoint positions).
    // So the phases alternate to a joint fixpoint rather than running once
    // each.
    loop {
        // Phase 1: drop script statements. Dropping statement `i` shifts
        // the checkpoint schedule with it: positions before `i` are
        // untouched, later ones slide down one.
        let mut changed = drop_to_fixpoint(
            &mut current,
            |c| c.script.len(),
            |c, i| {
                c.script.remove(i);
                c.checkpoints = remap_checkpoints(&c.checkpoints, i, c.script.len());
            },
            fails,
        );

        // Phase 2: drop checkpoint positions — a finding that only needs
        // one of its checkpoints (or none) should report the simpler
        // schedule.
        changed |= drop_to_fixpoint(
            &mut current,
            |c| c.checkpoints.len(),
            |c, i| {
                c.checkpoints.remove(i);
            },
            fails,
        );

        // Phase 3: simplify the fault plan (first — i.e. simplest —
        // candidate that still fails wins).
        for plan in simpler_plans(&current.plan) {
            let candidate = RecoveryCase {
                plan,
                ..current.clone()
            };
            if fails(&candidate) {
                current = candidate;
                changed = true;
                break;
            }
        }

        // Phase 4: simplify the media plan the same way.
        for media in simpler_media(&current.media) {
            let candidate = RecoveryCase {
                media,
                ..current.clone()
            };
            if fails(&candidate) {
                current = candidate;
                changed = true;
                break;
            }
        }

        if !changed {
            break;
        }
    }
    debug_assert!(fails(&current));
    current
}

/// Greedy one-at-a-time deletion, shared by every list axis the reducers
/// shrink: for each of the `len(case)` elements, try a copy of `case` with
/// element `i` removed by `remove`, keep it whenever `fails` accepts it
/// (the next element then shifts into slot `i`), and repeat whole passes
/// until one drops nothing. Returns whether anything was dropped.
fn drop_to_fixpoint<C: Clone>(
    case: &mut C,
    len: impl Fn(&C) -> usize,
    remove: impl Fn(&mut C, usize),
    fails: impl Fn(&C) -> bool,
) -> bool {
    let mut dropped = false;
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < len(case) {
            let mut candidate = case.clone();
            remove(&mut candidate, i);
            if fails(&candidate) {
                *case = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            return dropped;
        }
        dropped = true;
    }
}

/// Shift a checkpoint schedule across the removal of statement `removed`:
/// positions before it stay, later ones slide down one, and anything
/// falling off the script is dropped. A checkpoint *at* the removed
/// statement moves to the previous statement (or is dropped at the
/// script's head) — it keeps checkpointing "here-ish" rather than
/// silently rebinding to the next statement's effects.
fn remap_checkpoints(checkpoints: &[usize], removed: usize, new_len: usize) -> Vec<usize> {
    let mut out: Vec<usize> = checkpoints
        .iter()
        .filter_map(|&c| {
            if c < removed {
                Some(c)
            } else if c == 0 {
                None
            } else {
                Some(c - 1)
            }
        })
        .filter(|&c| c < new_len)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Candidate replacements for a node: its children (hoisting) and simple
/// literals.
fn shrink_candidates(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    match e {
        Expr::Binary { left, right, .. } => {
            out.push((**left).clone());
            out.push((**right).clone());
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
            out.push((**expr).clone())
        }
        Expr::Between { expr, .. } => out.push((**expr).clone()),
        Expr::InList { expr, .. } => out.push((**expr).clone()),
        Expr::Case {
            whens, else_expr, ..
        } => {
            for (_, t) in whens {
                out.push(t.clone());
            }
            if let Some(el) = else_expr {
                out.push((**el).clone());
            }
        }
        _ => {}
    }
    if !matches!(e, Expr::Literal(_)) {
        out.push(Expr::Literal(Value::Int(1)));
        out.push(Expr::Literal(Value::Int(0)));
    }
    out
}

/// Greedily shrink an expression while `check` keeps returning true for
/// the candidate.
fn shrink_expr(expr: &Expr, check: &mut impl FnMut(&Expr) -> bool) -> Expr {
    let mut current = expr.clone();
    loop {
        let mut progressed = false;
        for candidate in shrink_candidates(&current) {
            if candidate != current && check(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use coddb::parser::{parse_select, parse_statements};
    use coddb::BugId;

    /// A hand-built failing case with redundant setup for the Listing-1
    /// mutant.
    fn listing1_case() -> ReducibleCase {
        let setup = parse_statements(
            "CREATE TABLE t0 (c0);
             INSERT INTO t0 (c0) VALUES (1);
             CREATE TABLE unrelated (x INT);
             INSERT INTO unrelated VALUES (42);
             CREATE INDEX i0 ON t0 (c0 > 0);
             CREATE VIEW v0 (c0) AS SELECT AVG(t0.c0) FROM t0 GROUP BY 1 > t0.c0",
        )
        .unwrap();
        let original = parse_select(
            "SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE \
             (SELECT COUNT(*) FROM v0 WHERE v0.c0 BETWEEN 0 AND 0)",
        )
        .unwrap();
        let folded = parse_select("SELECT COUNT(*) FROM t0 INDEXED BY i0 WHERE 0").unwrap();
        ReducibleCase {
            setup,
            original,
            folded,
        }
    }

    #[test]
    fn reduction_removes_unrelated_statements() {
        let bugs = BugRegistry::only(BugId::SqliteAggSubqueryIndexedWhere);
        let case = listing1_case();
        assert!(still_failing(&case, Dialect::Sqlite, &bugs));
        let reduced = reduce(&case, Dialect::Sqlite, &bugs);
        assert!(still_failing(&reduced, Dialect::Sqlite, &bugs));
        assert!(
            reduced.setup.len() < case.setup.len(),
            "unrelated table should be dropped"
        );
        let rendered: Vec<String> = reduced.setup.iter().map(|s| s.to_string()).collect();
        assert!(
            rendered.iter().all(|s| !s.contains("unrelated")),
            "unrelated statements survived: {rendered:?}"
        );
    }

    #[test]
    fn reduction_keeps_failure_invariant() {
        let bugs = BugRegistry::only(BugId::SqliteAggSubqueryIndexedWhere);
        let reduced = reduce(&listing1_case(), Dialect::Sqlite, &bugs);
        // The essential statements survive.
        let rendered: Vec<String> = reduced.setup.iter().map(|s| s.to_string()).collect();
        assert!(rendered.iter().any(|s| s.contains("CREATE INDEX")));
        assert!(rendered.iter().any(|s| s.contains("CREATE VIEW")));
    }

    #[test]
    #[should_panic(expected = "cannot reduce a passing case")]
    fn reducing_a_passing_case_panics() {
        let case = listing1_case();
        reduce(&case, Dialect::Sqlite, &BugRegistry::none());
    }

    /// A crash-recovery case under the replay-uncommitted mutant: the
    /// corrupted final commit leaves an uncommitted INSERT in the image,
    /// which the mutant wrongly applies. Reduction must shrink both axes —
    /// the script to the one statement whose effect the mutant leaks, and
    /// the fault plan from a corrupt write deep in the log to a plain lost
    /// write at the earliest divergent operation — while the case keeps
    /// recovering incorrectly at its fault point.
    #[test]
    fn recovery_reduction_shrinks_script_and_fault_plan() {
        let bugs = BugRegistry::only_recovery(coddb::RecoveryBugId::ReplayUncommitted);
        let case = RecoveryCase {
            script: parse_statements(
                "CREATE TABLE t (a INT);
                 INSERT INTO t VALUES (1);
                 INSERT INTO t VALUES (2)",
            )
            .unwrap(),
            checkpoints: vec![],
            // Op 5 is the final INSERT's commit marker: it lands corrupted,
            // so the INSERT's effect record survives uncommitted.
            plan: FaultPlan {
                crash_op: 5,
                mode: FaultMode::Corrupt { byte_sel: 0 },
            },
            media: MediaPlan::none(),
        };
        assert!(recovery_still_failing(&case, Dialect::Sqlite, &bugs));
        let reduced = reduce_recovery(&case, Dialect::Sqlite, &bugs);
        assert!(recovery_still_failing(&reduced, Dialect::Sqlite, &bugs));
        assert_eq!(
            reduced.script.len(),
            1,
            "only one statement is needed to leak an uncommitted effect: {:?}",
            reduced
                .script
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            reduced.plan,
            FaultPlan {
                crash_op: 1,
                mode: FaultMode::Lost,
            },
            "the corrupt write should downgrade to the earliest lost commit"
        );
        assert!(reduced.size() < case.size());
    }

    /// The drop-last-commit mutant diverges with no crash at all; the
    /// reducer keeps the (already minimal) no-crash plan and strips the
    /// script down to a single statement.
    #[test]
    fn recovery_reduction_drops_unrelated_statements() {
        let bugs = BugRegistry::only_recovery(coddb::RecoveryBugId::DropLastCommit);
        let case = RecoveryCase {
            script: parse_statements(
                "CREATE TABLE t (a INT);
                 INSERT INTO t VALUES (1);
                 CREATE TABLE unrelated (x INT);
                 INSERT INTO unrelated VALUES (9)",
            )
            .unwrap(),
            checkpoints: vec![],
            plan: FaultPlan::none(),
            media: MediaPlan::none(),
        };
        assert!(recovery_still_failing(&case, Dialect::Sqlite, &bugs));
        let reduced = reduce_recovery(&case, Dialect::Sqlite, &bugs);
        assert!(recovery_still_failing(&reduced, Dialect::Sqlite, &bugs));
        assert_eq!(
            reduced.script.len(),
            1,
            "one committed statement suffices: {:?}",
            reduced
                .script
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        assert!(!reduced.plan.crashes(), "the no-crash plan is minimal");
    }

    #[test]
    #[should_panic(expected = "cannot reduce a passing case")]
    fn reducing_a_passing_recovery_case_panics() {
        let case = RecoveryCase {
            script: parse_statements("CREATE TABLE t (a INT)").unwrap(),
            checkpoints: vec![],
            plan: FaultPlan::none(),
            media: MediaPlan::none(),
        };
        reduce_recovery(&case, Dialect::Sqlite, &BugRegistry::none());
    }

    /// A checkpoint-path mutant case reduces along the checkpoint axis
    /// too: the stale-snapshot mutant needs two checkpoints to diverge, so
    /// the reducer must keep both while still shrinking the script.
    #[test]
    fn recovery_reduction_shrinks_the_checkpoint_axis() {
        let bugs = BugRegistry::only_recovery(coddb::RecoveryBugId::StaleSnapshotPreferred);
        let case = RecoveryCase {
            script: parse_statements(
                "CREATE TABLE t (a INT);
                 INSERT INTO t VALUES (1);
                 CREATE TABLE unrelated (x INT);
                 INSERT INTO t VALUES (2);
                 INSERT INTO t VALUES (3)",
            )
            .unwrap(),
            checkpoints: vec![0, 1, 3],
            plan: FaultPlan::none(),
            media: MediaPlan::none(),
        };
        assert!(recovery_still_failing(&case, Dialect::Sqlite, &bugs));
        let reduced = reduce_recovery(&case, Dialect::Sqlite, &bugs);
        assert!(recovery_still_failing(&reduced, Dialect::Sqlite, &bugs));
        assert!(reduced.size() < case.size());
        assert!(
            reduced.script.len() < case.script.len(),
            "script should shrink: {:?}",
            reduced
                .script
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            reduced.checkpoints.len(),
            2,
            "the stale-snapshot mutant needs exactly two checkpoints: {:?}",
            reduced.checkpoints
        );
        // The drop-one-checkpoint candidates must have been tried and
        // rejected — one checkpoint alone cannot make the mutant pick a
        // stale base.
        for i in 0..reduced.checkpoints.len() {
            let mut weaker = reduced.clone();
            weaker.checkpoints.remove(i);
            assert!(
                !recovery_still_failing(&weaker, Dialect::Sqlite, &bugs),
                "reduction left a droppable checkpoint at {i}"
            );
        }
    }

    /// A media-axis case reduces along its own dimension: the retry-cap
    /// mutant only needs a transient fault slower than the cap, so the
    /// failure count shrinks to `READ_RETRY_CAP + 1` and the script — the
    /// fault is orthogonal to it — drops away entirely.
    #[test]
    fn recovery_reduction_shrinks_the_media_axis() {
        use coddb::error::StorageSite;
        use coddb::wal::READ_RETRY_CAP;
        let bugs = BugRegistry::only_media(coddb::bugs::MediaBugId::RetryCapIgnored);
        let case = RecoveryCase {
            script: parse_statements(
                "CREATE TABLE t (a INT);
                 INSERT INTO t VALUES (1);
                 CREATE TABLE unrelated (x INT)",
            )
            .unwrap(),
            checkpoints: vec![],
            plan: FaultPlan::none(),
            media: MediaPlan {
                site: StorageSite::Log,
                mode: MediaMode::TransientRead { failures: 9 },
            },
        };
        assert!(recovery_still_failing(&case, Dialect::Sqlite, &bugs));
        let reduced = reduce_recovery(&case, Dialect::Sqlite, &bugs);
        assert!(recovery_still_failing(&reduced, Dialect::Sqlite, &bugs));
        assert_eq!(
            reduced.media.mode,
            MediaMode::TransientRead {
                failures: READ_RETRY_CAP + 1
            },
            "the slowest still-failing transient fault is one past the cap"
        );
        assert!(
            reduced.script.is_empty(),
            "the read-path fault needs no script at all: {:?}",
            reduced
                .script
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        );
        assert!(reduced.size() < case.size());
    }

    #[test]
    fn shrink_expr_hoists_children() {
        // Shrinks (1 AND (x > 0)) all the way down to the bare column when
        // the check only demands a column reference to stay present.
        let e = Expr::and(
            Expr::lit(1i64),
            Expr::bin(
                coddb::ast::BinaryOp::Gt,
                Expr::bare_col("x"),
                Expr::lit(0i64),
            ),
        );
        let shrunk = shrink_expr(&e, &mut |c| {
            let mut has_col = false;
            coddb::ast::visit::walk_expr_shallow(c, &mut |n| {
                if matches!(n, Expr::Column(_)) {
                    has_col = true;
                }
            });
            has_col
        });
        assert_eq!(shrunk.to_string(), "x");
    }
}
