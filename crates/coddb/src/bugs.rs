//! Injectable bug mutants.
//!
//! The paper found 45 previously-unknown bugs in five DBMSs (Table 1):
//! 24 logic bugs, 14 internal errors, 2 crashes and 5 hangs. Since this
//! reproduction cannot re-find bugs in the real systems offline, CoddDB
//! carries 45 *injectable mutants*, one per bug class, each modelled on a
//! bug the paper describes (Listings 1 and 6–11 are all represented).
//!
//! Every mutant is **context-sensitive**: it corrupts behaviour only under
//! specific query shapes (clause, statement kind, optimizer decisions,
//! expression shape), exactly like real planner/executor bugs. This is what
//! makes the oracle comparison meaningful — folding an expression (CODDTest)
//! changes the context and un-triggers the mutant, while the baselines'
//! rewrites only escape a characteristic subset:
//!
//! * **NoREC** detects a mutant iff the corruption differs between the
//!   WHERE-filter path and the projection path (or between optimized and
//!   unoptimized plans).
//! * **TLP** detects a mutant iff the corruption is shape-sensitive enough
//!   that `NOT p` / `p IS NULL` wrappers change whether it fires, or it
//!   corrupts aggregation/DISTINCT.
//! * **DQE** detects a mutant iff the corruption differs across
//!   SELECT/UPDATE/DELETE.
//!
//! The resulting detectability matrix reproduces Table 2 of the paper:
//! NoREC 11, TLP 12, DQE 4, and 11 logic bugs only CODDTest can find.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;

use crate::dialect::Dialect;

/// Kind of injected bug, matching the paper's Table 1 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugKind {
    Logic,
    InternalError,
    Crash,
    Hang,
}

impl BugKind {
    pub fn label(self) -> &'static str {
        match self {
            BugKind::Logic => "logic",
            BugKind::InternalError => "internal error",
            BugKind::Crash => "crash",
            BugKind::Hang => "hang",
        }
    }
}

/// Baseline oracles used in the paper's Table 2 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineOracle {
    NoRec,
    Tlp,
    Dqe,
}

/// Every injectable bug. Names are prefixed by the dialect whose emulated
/// system exhibited the modelled bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(clippy::enum_variant_names)]
pub enum BugId {
    // ---------------- SQLite: 6 logic + 1 internal -----------------------
    /// Listing 1: WHERE contains an aggregate subquery with GROUP BY while
    /// the outer scan is indexed; the subquery's value is misevaluated.
    SqliteAggSubqueryIndexedWhere,
    /// Listing 8: an `EXISTS` over an empty result used as a JOIN `ON`
    /// predicate is treated as TRUE.
    SqliteExistsJoinOnEmpty,
    /// Second ON-clause bug: an `ON` predicate that references only
    /// view-sourced columns under an outer join is treated as TRUE.
    SqliteJoinOnViewLeftTrue,
    /// Under an index scan, a comparison that evaluates to NULL keeps the
    /// row (optimized SELECT only).
    SqliteIndexedCmpNullTrue,
    /// Top-level `BETWEEN` on a TEXT value with numeric bounds wrongly
    /// applies numeric affinity in the WHERE of a SELECT (the correct
    /// storage-class comparison places TEXT above all numbers).
    SqliteBetweenTextAffinity,
    /// Top-level `LIKE` in the WHERE of a SELECT matches case-sensitively
    /// (SQLite's LIKE is ASCII case-insensitive).
    SqliteLikeCaseFold,
    /// `||` applied to TEXT and REAL inside an indexed-expression
    /// evaluation raises an internal error.
    SqliteInternalConcatIndexedExpr,

    // ---------------- MySQL: 1 logic + 1 internal ------------------------
    /// The 14-year-latency bug class: a top-level TEXT-vs-INT comparison in
    /// a WHERE filter compares bytes instead of coercing numerically.
    /// (In UPDATE/DELETE the same comparison raises a semantic error, so
    /// DQE cannot observe the logic bug — §4.2.)
    MysqlTextIntCompareWhere,
    /// UNION between INT and TEXT columns fails type unification with an
    /// internal error.
    MysqlInternalUnionTypeUnify,

    // ------- CockroachDB: 7 logic + 4 internal + 2 hang ------------------
    /// Listing 7: a searched CASE whose WHEN condition is literal NULL
    /// takes the THEN branch — but only when the CASE reads a column
    /// sourced from a CTE.
    CockroachCaseNullFromCte,
    /// `expr op ANY (subquery)` evaluates with ALL semantics unless the
    /// subquery is a bare VALUES list.
    CockroachAnyNonValuesSubquery,
    /// AVG evaluated inside a nested subquery accumulates in reverse row
    /// order with float32 rounding (the paper's argument-order AVG bug).
    CockroachAvgNestedReverse,
    /// Listing 9: an IN value list containing an INT8-range literal makes
    /// the whole IN evaluate to FALSE, in SELECT statements only.
    CockroachInBigIntValueList,
    /// The optimizer constant-folds `x NOT BETWEEN a AND b` with a NULL
    /// bound to TRUE when the query has a join.
    CockroachConstFoldNotBetweenNull,
    /// A top-level AND whose arm evaluates NULL keeps the row in WHERE
    /// filters (all statements).
    CockroachAndNullTopConjunct,
    /// A top-level OR with a constant-FALSE left arm short-circuits the
    /// whole filter to FALSE in SELECT WHERE filters.
    CockroachOrShortCircuitFalse,
    /// `%` with a negative right operand under constant folding.
    CockroachInternalNegMod,
    /// `t.*` wildcard expansion under a FULL OUTER JOIN.
    CockroachInternalFullJoinWildcard,
    /// INTERSECT over rows containing NULL.
    CockroachInternalIntersectNull,
    /// Strict CAST of a non-numeric TEXT to INT raises internal error
    /// instead of a clean conversion error.
    CockroachInternalCastTextInt,
    /// A CTE referenced twice in the same FROM clause loops the executor.
    CockroachHangCteReuse,
    /// FULL OUTER JOIN combined with HAVING loops the executor.
    CockroachHangFullJoinHaving,

    // ------- DuckDB: 5 logic + 2 internal + 2 crash + 3 hang -------------
    /// A scalar subquery's result is coerced through the wrong type before
    /// a comparison: booleans invert, integers come back sign-flipped.
    DuckdbSubqueryBoolCoerce,
    /// A CASE with a subquery in a THEN arm incorrectly takes the ELSE arm.
    DuckdbCaseSubqueryElse,
    /// SELECT DISTINCT combined with GROUP BY drops the last group.
    DuckdbDistinctGroupByDrop,
    /// Filter pushdown below the right side of a LEFT JOIN removes
    /// NULL-padded rows.
    DuckdbPushdownLeftJoin,
    /// Top-level `NOT LIKE` in WHERE filters evaluates as plain LIKE.
    DuckdbNotLikeTopLevel,
    /// Listing 11: integer-addition overflow in a projection raises an
    /// internal error instead of a clean overflow error.
    DuckdbInternalOverflowAddProj,
    /// GROUP BY on a REAL key with more than two distinct groups.
    DuckdbInternalGroupByRealMany,
    /// IEJoin crash #1: a join ON with two inequality conditions
    /// (index out of bounds in the paper).
    DuckdbCrashIEJoinRange,
    /// IEJoin crash #2: an inequality join mixing INT and REAL operands
    /// (type mismatch in the paper).
    DuckdbCrashIEJoinTypes,
    /// Three or more chained joins loop the executor.
    DuckdbHangTripleJoin,
    /// UNION (distinct) under a DISTINCT select loops the executor.
    DuckdbHangDistinctUnion,
    /// A LIKE pattern with three consecutive `%` wildcards loops the
    /// matcher.
    DuckdbHangLikePercents,

    // ---------------- TiDB: 5 logic + 6 internal -------------------------
    /// Listing 6: INSERT ... SELECT whose WHERE calls VERSION() inserts
    /// nothing although the SELECT returns rows.
    TidbInsertSelectVersion,
    /// A non-correlated subquery whose column names collide with the outer
    /// query is misinterpreted as correlated.
    TidbCorrelatedNameCollision,
    /// AVG(DISTINCT x) inside a nested subquery returns 0 instead of NULL
    /// for empty input.
    TidbAvgDistinctNestedZero,
    /// Listing 10: a top-level IN value list in WHERE filters evaluates to
    /// FALSE (consistently across statements, so DQE misses it).
    TidbInValueListWhere,
    /// Top-level `IS NULL` over a non-literal operand is inverted in WHERE
    /// filters.
    TidbIsNullTopLevelInverted,
    /// LIKE pattern ending in an escape character.
    TidbInternalLikeEscape,
    /// SUBSTR with a negative start index.
    TidbInternalSubstrNegative,
    /// ROUND with a precision argument larger than 10.
    TidbInternalRoundHuge,
    /// CASE expressions with more than eight WHEN arms.
    TidbInternalCaseManyWhens,
    /// A correlated subquery under HAVING fails decorrelation.
    TidbInternalHavingCorrelated,
    /// A set operation combined with positional ORDER BY.
    TidbInternalSetOpOrderBy,
}

impl BugId {
    /// Every injectable bug, in a stable order.
    pub const ALL: [BugId; 45] = [
        BugId::SqliteAggSubqueryIndexedWhere,
        BugId::SqliteExistsJoinOnEmpty,
        BugId::SqliteJoinOnViewLeftTrue,
        BugId::SqliteIndexedCmpNullTrue,
        BugId::SqliteBetweenTextAffinity,
        BugId::SqliteLikeCaseFold,
        BugId::SqliteInternalConcatIndexedExpr,
        BugId::MysqlTextIntCompareWhere,
        BugId::MysqlInternalUnionTypeUnify,
        BugId::CockroachCaseNullFromCte,
        BugId::CockroachAnyNonValuesSubquery,
        BugId::CockroachAvgNestedReverse,
        BugId::CockroachInBigIntValueList,
        BugId::CockroachConstFoldNotBetweenNull,
        BugId::CockroachAndNullTopConjunct,
        BugId::CockroachOrShortCircuitFalse,
        BugId::CockroachInternalNegMod,
        BugId::CockroachInternalFullJoinWildcard,
        BugId::CockroachInternalIntersectNull,
        BugId::CockroachInternalCastTextInt,
        BugId::CockroachHangCteReuse,
        BugId::CockroachHangFullJoinHaving,
        BugId::DuckdbSubqueryBoolCoerce,
        BugId::DuckdbCaseSubqueryElse,
        BugId::DuckdbDistinctGroupByDrop,
        BugId::DuckdbPushdownLeftJoin,
        BugId::DuckdbNotLikeTopLevel,
        BugId::DuckdbInternalOverflowAddProj,
        BugId::DuckdbInternalGroupByRealMany,
        BugId::DuckdbCrashIEJoinRange,
        BugId::DuckdbCrashIEJoinTypes,
        BugId::DuckdbHangTripleJoin,
        BugId::DuckdbHangDistinctUnion,
        BugId::DuckdbHangLikePercents,
        BugId::TidbInsertSelectVersion,
        BugId::TidbCorrelatedNameCollision,
        BugId::TidbAvgDistinctNestedZero,
        BugId::TidbInValueListWhere,
        BugId::TidbIsNullTopLevelInverted,
        BugId::TidbInternalLikeEscape,
        BugId::TidbInternalSubstrNegative,
        BugId::TidbInternalRoundHuge,
        BugId::TidbInternalCaseManyWhens,
        BugId::TidbInternalHavingCorrelated,
        BugId::TidbInternalSetOpOrderBy,
    ];

    /// Which emulated system exhibits this bug.
    pub fn dialect(self) -> Dialect {
        use BugId::*;
        match self {
            SqliteAggSubqueryIndexedWhere
            | SqliteExistsJoinOnEmpty
            | SqliteJoinOnViewLeftTrue
            | SqliteIndexedCmpNullTrue
            | SqliteBetweenTextAffinity
            | SqliteLikeCaseFold
            | SqliteInternalConcatIndexedExpr => Dialect::Sqlite,
            MysqlTextIntCompareWhere | MysqlInternalUnionTypeUnify => Dialect::Mysql,
            CockroachCaseNullFromCte
            | CockroachAnyNonValuesSubquery
            | CockroachAvgNestedReverse
            | CockroachInBigIntValueList
            | CockroachConstFoldNotBetweenNull
            | CockroachAndNullTopConjunct
            | CockroachOrShortCircuitFalse
            | CockroachInternalNegMod
            | CockroachInternalFullJoinWildcard
            | CockroachInternalIntersectNull
            | CockroachInternalCastTextInt
            | CockroachHangCteReuse
            | CockroachHangFullJoinHaving => Dialect::Cockroach,
            DuckdbSubqueryBoolCoerce
            | DuckdbCaseSubqueryElse
            | DuckdbDistinctGroupByDrop
            | DuckdbPushdownLeftJoin
            | DuckdbNotLikeTopLevel
            | DuckdbInternalOverflowAddProj
            | DuckdbInternalGroupByRealMany
            | DuckdbCrashIEJoinRange
            | DuckdbCrashIEJoinTypes
            | DuckdbHangTripleJoin
            | DuckdbHangDistinctUnion
            | DuckdbHangLikePercents => Dialect::Duckdb,
            TidbInsertSelectVersion
            | TidbCorrelatedNameCollision
            | TidbAvgDistinctNestedZero
            | TidbInValueListWhere
            | TidbIsNullTopLevelInverted
            | TidbInternalLikeEscape
            | TidbInternalSubstrNegative
            | TidbInternalRoundHuge
            | TidbInternalCaseManyWhens
            | TidbInternalHavingCorrelated
            | TidbInternalSetOpOrderBy => Dialect::Tidb,
        }
    }

    /// The Table 1 category of this bug.
    pub fn kind(self) -> BugKind {
        use BugId::*;
        match self {
            SqliteInternalConcatIndexedExpr
            | MysqlInternalUnionTypeUnify
            | CockroachInternalNegMod
            | CockroachInternalFullJoinWildcard
            | CockroachInternalIntersectNull
            | CockroachInternalCastTextInt
            | DuckdbInternalOverflowAddProj
            | DuckdbInternalGroupByRealMany
            | TidbInternalLikeEscape
            | TidbInternalSubstrNegative
            | TidbInternalRoundHuge
            | TidbInternalCaseManyWhens
            | TidbInternalHavingCorrelated
            | TidbInternalSetOpOrderBy => BugKind::InternalError,
            DuckdbCrashIEJoinRange | DuckdbCrashIEJoinTypes => BugKind::Crash,
            CockroachHangCteReuse
            | CockroachHangFullJoinHaving
            | DuckdbHangTripleJoin
            | DuckdbHangDistinctUnion
            | DuckdbHangLikePercents => BugKind::Hang,
            _ => BugKind::Logic,
        }
    }

    /// Which state-of-the-art baseline oracles can detect this logic bug,
    /// per the manual-analysis methodology of §4.2 (empirically validated
    /// by the `table2_oracle_matrix` harness). Empty for the 11 bugs only
    /// CODDTest finds, and for non-logic bugs (which any oracle surfaces
    /// as an error when its queries reach the trigger).
    pub fn baseline_detectable(self) -> &'static [BaselineOracle] {
        use BaselineOracle::*;
        use BugId::*;
        match self {
            SqliteIndexedCmpNullTrue => &[NoRec, Tlp],
            SqliteBetweenTextAffinity => &[NoRec, Tlp, Dqe],
            SqliteLikeCaseFold => &[NoRec, Tlp, Dqe],
            MysqlTextIntCompareWhere => &[NoRec, Tlp],
            CockroachInBigIntValueList => &[Tlp, Dqe],
            CockroachConstFoldNotBetweenNull => &[NoRec],
            CockroachAndNullTopConjunct => &[NoRec, Tlp],
            CockroachOrShortCircuitFalse => &[NoRec, Tlp, Dqe],
            DuckdbDistinctGroupByDrop => &[Tlp],
            DuckdbPushdownLeftJoin => &[NoRec, Tlp],
            DuckdbNotLikeTopLevel => &[NoRec, Tlp],
            TidbInValueListWhere => &[NoRec, Tlp],
            TidbIsNullTopLevelInverted => &[NoRec, Tlp],
            _ => &[],
        }
    }

    /// Human-readable description (one line).
    pub fn description(self) -> &'static str {
        use BugId::*;
        match self {
            SqliteAggSubqueryIndexedWhere => {
                "aggregate subquery with GROUP BY misevaluated under indexed outer scan (Listing 1)"
            }
            SqliteExistsJoinOnEmpty => {
                "EXISTS over empty result treated as TRUE in JOIN ON (Listing 8)"
            }
            SqliteJoinOnViewLeftTrue => {
                "ON predicate over view columns treated as TRUE under outer join"
            }
            SqliteIndexedCmpNullTrue => "NULL comparison keeps row under index scan",
            SqliteBetweenTextAffinity => "BETWEEN on TEXT value wrongly applies numeric affinity",
            SqliteLikeCaseFold => "LIKE matches case-sensitively in SELECT WHERE",
            SqliteInternalConcatIndexedExpr => {
                "TEXT||REAL inside indexed expression: internal error"
            }
            MysqlTextIntCompareWhere => "TEXT vs INT comparison uses byte order in WHERE filters",
            MysqlInternalUnionTypeUnify => "UNION of INT and TEXT: internal type-unification error",
            CockroachCaseNullFromCte => {
                "CASE WHEN NULL takes THEN branch for CTE-sourced rows (Listing 7)"
            }
            CockroachAnyNonValuesSubquery => {
                "ANY uses ALL semantics unless operand is a VALUES list"
            }
            CockroachAvgNestedReverse => {
                "AVG in nested subquery accumulates reversed with f32 rounding"
            }
            CockroachInBigIntValueList => {
                "IN list with INT8-range literal returns FALSE in SELECT (Listing 9)"
            }
            CockroachConstFoldNotBetweenNull => {
                "optimizer folds NOT BETWEEN with NULL bound to TRUE"
            }
            CockroachAndNullTopConjunct => "top-level AND with NULL arm keeps row in WHERE",
            CockroachOrShortCircuitFalse => "top-level OR with constant FALSE arm drops right arm",
            CockroachInternalNegMod => {
                "% by negative operand under constant folding: internal error"
            }
            CockroachInternalFullJoinWildcard => "t.* under FULL OUTER JOIN: internal error",
            CockroachInternalIntersectNull => "INTERSECT over NULL rows: internal error",
            CockroachInternalCastTextInt => {
                "strict CAST of non-numeric TEXT to INT: internal error"
            }
            CockroachHangCteReuse => "CTE referenced twice in one FROM: executor loops",
            CockroachHangFullJoinHaving => "FULL JOIN with HAVING: executor loops",
            DuckdbSubqueryBoolCoerce => "scalar subquery result mistyped before comparison",
            DuckdbCaseSubqueryElse => "CASE with subquery THEN arm takes ELSE",
            DuckdbDistinctGroupByDrop => "SELECT DISTINCT with GROUP BY drops last group",
            DuckdbPushdownLeftJoin => "filter pushdown below LEFT JOIN removes padded rows",
            DuckdbNotLikeTopLevel => "top-level NOT LIKE evaluates as LIKE",
            DuckdbInternalOverflowAddProj => {
                "integer overflow in projection: internal error (Listing 11)"
            }
            DuckdbInternalGroupByRealMany => "GROUP BY REAL with >2 groups: internal error",
            DuckdbCrashIEJoinRange => "IEJoin with two inequality conditions: crash (index OOB)",
            DuckdbCrashIEJoinTypes => {
                "IEJoin inequality over mixed INT/REAL: crash (type mismatch)"
            }
            DuckdbHangTripleJoin => ">=3 chained joins: executor loops",
            DuckdbHangDistinctUnion => "UNION under DISTINCT: executor loops",
            DuckdbHangLikePercents => "LIKE with three consecutive %: matcher loops",
            TidbInsertSelectVersion => {
                "INSERT..SELECT with VERSION() in WHERE inserts nothing (Listing 6)"
            }
            TidbCorrelatedNameCollision => {
                "non-correlated subquery with colliding names treated as correlated"
            }
            TidbAvgDistinctNestedZero => {
                "AVG(DISTINCT) in nested subquery returns 0 for empty input"
            }
            TidbInValueListWhere => "top-level IN value list returns FALSE in WHERE (Listing 10)",
            TidbIsNullTopLevelInverted => "top-level IS NULL inverted in WHERE filters",
            TidbInternalLikeEscape => "LIKE pattern ending in escape: internal error",
            TidbInternalSubstrNegative => "SUBSTR with negative start: internal error",
            TidbInternalRoundHuge => "ROUND with precision > 10: internal error",
            TidbInternalCaseManyWhens => "CASE with >8 WHEN arms: internal error",
            TidbInternalHavingCorrelated => "correlated subquery under HAVING: internal error",
            TidbInternalSetOpOrderBy => "set operation with positional ORDER BY: internal error",
        }
    }

    /// All bugs belonging to one dialect profile.
    pub fn for_dialect(dialect: Dialect) -> Vec<BugId> {
        BugId::ALL
            .iter()
            .copied()
            .filter(|b| b.dialect() == dialect)
            .collect()
    }

    /// All logic bugs (the 24 the paper's oracle comparison targets).
    pub fn logic_bugs() -> Vec<BugId> {
        BugId::ALL
            .iter()
            .copied()
            .filter(|b| b.kind() == BugKind::Logic)
            .collect()
    }

    /// Short stable identifier, e.g. for report keys.
    pub fn name(self) -> &'static str {
        use BugId::*;
        match self {
            SqliteAggSubqueryIndexedWhere => "sqlite-agg-subquery-indexed-where",
            SqliteExistsJoinOnEmpty => "sqlite-exists-join-on-empty",
            SqliteJoinOnViewLeftTrue => "sqlite-join-on-view-left-true",
            SqliteIndexedCmpNullTrue => "sqlite-indexed-cmp-null-true",
            SqliteBetweenTextAffinity => "sqlite-between-text-affinity",
            SqliteLikeCaseFold => "sqlite-like-case-fold",
            SqliteInternalConcatIndexedExpr => "sqlite-internal-concat-indexed-expr",
            MysqlTextIntCompareWhere => "mysql-text-int-compare-where",
            MysqlInternalUnionTypeUnify => "mysql-internal-union-type-unify",
            CockroachCaseNullFromCte => "cockroach-case-null-from-cte",
            CockroachAnyNonValuesSubquery => "cockroach-any-non-values-subquery",
            CockroachAvgNestedReverse => "cockroach-avg-nested-reverse",
            CockroachInBigIntValueList => "cockroach-in-bigint-value-list",
            CockroachConstFoldNotBetweenNull => "cockroach-const-fold-not-between-null",
            CockroachAndNullTopConjunct => "cockroach-and-null-top-conjunct",
            CockroachOrShortCircuitFalse => "cockroach-or-short-circuit-false",
            CockroachInternalNegMod => "cockroach-internal-neg-mod",
            CockroachInternalFullJoinWildcard => "cockroach-internal-full-join-wildcard",
            CockroachInternalIntersectNull => "cockroach-internal-intersect-null",
            CockroachInternalCastTextInt => "cockroach-internal-cast-text-int",
            CockroachHangCteReuse => "cockroach-hang-cte-reuse",
            CockroachHangFullJoinHaving => "cockroach-hang-full-join-having",
            DuckdbSubqueryBoolCoerce => "duckdb-subquery-bool-coerce",
            DuckdbCaseSubqueryElse => "duckdb-case-subquery-else",
            DuckdbDistinctGroupByDrop => "duckdb-distinct-group-by-drop",
            DuckdbPushdownLeftJoin => "duckdb-pushdown-left-join",
            DuckdbNotLikeTopLevel => "duckdb-not-like-top-level",
            DuckdbInternalOverflowAddProj => "duckdb-internal-overflow-add-proj",
            DuckdbInternalGroupByRealMany => "duckdb-internal-group-by-real-many",
            DuckdbCrashIEJoinRange => "duckdb-crash-iejoin-range",
            DuckdbCrashIEJoinTypes => "duckdb-crash-iejoin-types",
            DuckdbHangTripleJoin => "duckdb-hang-triple-join",
            DuckdbHangDistinctUnion => "duckdb-hang-distinct-union",
            DuckdbHangLikePercents => "duckdb-hang-like-percents",
            TidbInsertSelectVersion => "tidb-insert-select-version",
            TidbCorrelatedNameCollision => "tidb-correlated-name-collision",
            TidbAvgDistinctNestedZero => "tidb-avg-distinct-nested-zero",
            TidbInValueListWhere => "tidb-in-value-list-where",
            TidbIsNullTopLevelInverted => "tidb-is-null-top-level-inverted",
            TidbInternalLikeEscape => "tidb-internal-like-escape",
            TidbInternalSubstrNegative => "tidb-internal-substr-negative",
            TidbInternalRoundHuge => "tidb-internal-round-huge",
            TidbInternalCaseManyWhens => "tidb-internal-case-many-whens",
            TidbInternalHavingCorrelated => "tidb-internal-having-correlated",
            TidbInternalSetOpOrderBy => "tidb-internal-set-op-order-by",
        }
    }
}

/// Injectable recovery-path mutants, seeded into `crate::recovery` the way
/// [`BugId`] mutants are seeded into the planner/executor. They live in a
/// separate enum because [`BugId::ALL`] reproduces the paper's Table 1/2
/// counts exactly (45 bugs); the recovery mutants model the crash-safety
/// bug class the paper's logic oracles cannot see, hunted by the `recover`
/// differential oracle instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryBugId {
    /// Log scan accepts records whose checksum does not match, replaying
    /// corrupted payloads instead of truncating at the damage.
    SkipChecksumVerify,
    /// Log scan treats a torn tail (a partial frame at end of log) as a
    /// complete record instead of truncating it.
    TornTailAsComplete,
    /// Replay applies effect records that were never followed by a commit
    /// marker (replays past the committed prefix).
    ReplayUncommitted,
    /// Replay applies each commit's buffered effects in reverse order
    /// (visible as reordered rows for multi-row statements).
    ReorderCommitEffects,
    /// Replay ignores the final commit marker in the log, losing the last
    /// committed statement.
    DropLastCommit,
    /// Checkpoint truncates the log *before* writing the snapshot and the
    /// marker: a crash inside the snapshot write loses both the snapshot
    /// and the log suffix it was meant to replace.
    TruncateBeforeMarker,
    /// Replay ignores the snapshot's statement coverage and re-applies
    /// every log commit from offset zero, double-applying statements the
    /// snapshot already contains.
    ReplayFromWrongOffset,
    /// Snapshot scan uses a trailing unsealed snapshot (the writer died
    /// mid-snapshot) as the recovery base instead of falling back to the
    /// previous sealed one.
    AcceptTornSnapshot,
    /// Snapshot scan prefers the *oldest* sealed snapshot over the newest,
    /// losing every statement checkpointed after the first one once the
    /// log has been truncated.
    StaleSnapshotPreferred,
    /// Snapshot scan accepts snapshot frames whose checksum does not
    /// match, rebuilding the base state from corrupted payloads.
    SkipSnapshotChecksum,
    /// Checkpoint's snapshot reclaim drops the newest sealed snapshot
    /// along with the older generations: until the new snapshot seals,
    /// the file holds no snapshot to recover from while the log holds
    /// only the suffix after it, so a crash inside the snapshot write
    /// loses every statement that snapshot covered.
    ReclaimNewestSnapshot,
}

impl RecoveryBugId {
    /// Every recovery mutant, in a stable order.
    pub const ALL: [RecoveryBugId; 11] = [
        RecoveryBugId::SkipChecksumVerify,
        RecoveryBugId::TornTailAsComplete,
        RecoveryBugId::ReplayUncommitted,
        RecoveryBugId::ReorderCommitEffects,
        RecoveryBugId::DropLastCommit,
        RecoveryBugId::TruncateBeforeMarker,
        RecoveryBugId::ReplayFromWrongOffset,
        RecoveryBugId::AcceptTornSnapshot,
        RecoveryBugId::StaleSnapshotPreferred,
        RecoveryBugId::SkipSnapshotChecksum,
        RecoveryBugId::ReclaimNewestSnapshot,
    ];

    /// The dominant symptom category: a wrong-data recovery is a logic
    /// bug, a replay that chokes on damage it should have truncated is an
    /// internal error. (Some mutants can surface either way depending on
    /// where the fault plan strikes; the `recover` oracle reports whatever
    /// it observes.)
    pub fn kind(self) -> BugKind {
        match self {
            RecoveryBugId::TornTailAsComplete => BugKind::InternalError,
            _ => BugKind::Logic,
        }
    }

    /// Short stable identifier, e.g. for report keys.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryBugId::SkipChecksumVerify => "recovery-skip-checksum-verify",
            RecoveryBugId::TornTailAsComplete => "recovery-torn-tail-as-complete",
            RecoveryBugId::ReplayUncommitted => "recovery-replay-uncommitted",
            RecoveryBugId::ReorderCommitEffects => "recovery-reorder-commit-effects",
            RecoveryBugId::DropLastCommit => "recovery-drop-last-commit",
            RecoveryBugId::TruncateBeforeMarker => "recovery-truncate-before-marker",
            RecoveryBugId::ReplayFromWrongOffset => "recovery-replay-from-wrong-offset",
            RecoveryBugId::AcceptTornSnapshot => "recovery-accept-torn-snapshot",
            RecoveryBugId::StaleSnapshotPreferred => "recovery-stale-snapshot-preferred",
            RecoveryBugId::SkipSnapshotChecksum => "recovery-skip-snapshot-checksum",
            RecoveryBugId::ReclaimNewestSnapshot => "recovery-reclaim-newest-snapshot",
        }
    }

    /// Human-readable description (one line).
    pub fn description(self) -> &'static str {
        match self {
            RecoveryBugId::SkipChecksumVerify => {
                "log scan skips checksum verification, replaying corrupt records"
            }
            RecoveryBugId::TornTailAsComplete => "log scan treats a torn tail as a complete record",
            RecoveryBugId::ReplayUncommitted => "replay applies uncommitted effect records",
            RecoveryBugId::ReorderCommitEffects => {
                "replay applies a commit's effects in reverse order"
            }
            RecoveryBugId::DropLastCommit => "replay ignores the final commit marker",
            RecoveryBugId::TruncateBeforeMarker => {
                "checkpoint truncates the log before the snapshot and marker are durable"
            }
            RecoveryBugId::ReplayFromWrongOffset => {
                "replay re-applies log commits the snapshot already covers"
            }
            RecoveryBugId::AcceptTornSnapshot => {
                "snapshot scan uses an unsealed trailing snapshot as the recovery base"
            }
            RecoveryBugId::StaleSnapshotPreferred => {
                "snapshot scan prefers the oldest sealed snapshot over the newest"
            }
            RecoveryBugId::SkipSnapshotChecksum => {
                "snapshot scan skips checksum verification on snapshot frames"
            }
            RecoveryBugId::ReclaimNewestSnapshot => {
                "checkpoint reclaims the newest sealed snapshot before the next one seals"
            }
        }
    }
}

/// Injectable index-path mutants, seeded into the physical ordered-index
/// maintenance and seek paths ([`crate::index`], the executor's
/// `IndexSeek` arm) the way [`RecoveryBugId`] mutants are seeded into
/// recovery. They live in their own enum for the same reason: [`BugId`]
/// reproduces the paper's Table 1/2 counts exactly, while these model the
/// access-path bug class the indexed-vs-ScanOnly differential hunts.
///
/// All five *shrink, corrupt or suppress* the seek's row set — mutants
/// that merely enlarge it would be invisible, because the full original
/// WHERE clause is re-applied over whatever the seek returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IndexBugId {
    /// UPDATE skips index maintenance: the ordered structure keeps the
    /// pre-update key, so later seeks probe stale entries.
    StaleEntryAfterUpdate,
    /// Range seeks treat inclusive bounds as exclusive (`>=` as `>`,
    /// `<=` as `<`), dropping the boundary rows.
    RangeBoundOffByOne,
    /// The seek path skips the residual WHERE re-check entirely, leaking
    /// NULL-key rows and residual-failing rows into the result.
    PrefixSeekIgnoresResidual,
    /// DESC sort elimination emits key groups in ascending order anyway
    /// (visible through `ORDER BY ... DESC`, most sharply with LIMIT).
    SortElimWrongDirection,
    /// Equality seeks return only the first posting of each matching
    /// key, dropping duplicate-key rows.
    EqSeekMissesDuplicates,
}

impl IndexBugId {
    /// Every index mutant, in a stable order.
    pub const ALL: [IndexBugId; 5] = [
        IndexBugId::StaleEntryAfterUpdate,
        IndexBugId::RangeBoundOffByOne,
        IndexBugId::PrefixSeekIgnoresResidual,
        IndexBugId::SortElimWrongDirection,
        IndexBugId::EqSeekMissesDuplicates,
    ];

    /// All index mutants surface as wrong results, never as errors.
    pub fn kind(self) -> BugKind {
        BugKind::Logic
    }

    /// Short stable identifier, e.g. for report keys.
    pub fn name(self) -> &'static str {
        match self {
            IndexBugId::StaleEntryAfterUpdate => "index-stale-entry-after-update",
            IndexBugId::RangeBoundOffByOne => "index-range-bound-off-by-one",
            IndexBugId::PrefixSeekIgnoresResidual => "index-seek-drops-residual",
            IndexBugId::SortElimWrongDirection => "index-sort-elim-wrong-direction",
            IndexBugId::EqSeekMissesDuplicates => "index-eq-seek-misses-duplicates",
        }
    }

    /// Human-readable description (one line).
    pub fn description(self) -> &'static str {
        match self {
            IndexBugId::StaleEntryAfterUpdate => {
                "UPDATE skips index maintenance, leaving stale ordered-index entries"
            }
            IndexBugId::RangeBoundOffByOne => {
                "range seeks treat inclusive bounds as exclusive, dropping boundary rows"
            }
            IndexBugId::PrefixSeekIgnoresResidual => {
                "seeks skip the residual WHERE re-check, leaking NULL-key and residual rows"
            }
            IndexBugId::SortElimWrongDirection => {
                "DESC sort elimination emits index key groups in ascending order"
            }
            IndexBugId::EqSeekMissesDuplicates => {
                "equality seeks return only the first posting per key, dropping duplicates"
            }
        }
    }
}

/// Injectable media-fault-handling mutants, seeded into the storage
/// layer's degradation machinery (`crate::wal`'s bounded-retry reads, the
/// `NoSpace` abort path, `crate::recovery`'s scrub and salvage passes) the
/// way [`RecoveryBugId`] mutants are seeded into replay. They model the
/// class of bugs where a system *mishandles its own fault handling*: the
/// media fault itself is injected environment, the bug is reacting to it
/// with silent wrong behavior instead of detection or graceful
/// degradation. Hunted by the detect-or-identical contract of
/// `recovery_divergence`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MediaBugId {
    /// Scrub skips frame-checksum verification, reporting a damaged image
    /// as clean — recovery then silently replays rotted payloads that a
    /// clean scrub would have quarantined.
    SkipScrubChecksum,
    /// Salvage skips a checksum-failing frame and keeps scanning, replaying
    /// effects *past* the damage instead of dropping the unreplayable
    /// suffix (salvage must never resurrect state beyond a corrupt frame).
    SalvagePastCorruptCommit,
    /// The engine treats a `NoSpace` append failure as a successful
    /// commit: the in-memory state mutates although the WAL refused the
    /// record, so the live session diverges from the committed prefix.
    NoSpaceTreatedAsCommitted,
    /// The read path gives up after the first failed attempt, reporting a
    /// transient fault the bounded retry schedule must heal as permanent
    /// data loss.
    TransientFaultAsPermanentLoss,
    /// The read path retries transient faults forever instead of failing
    /// stop at the cap: a fault beyond the retry budget heals silently
    /// where the contract demands a structured error.
    RetryCapIgnored,
}

impl MediaBugId {
    /// Every media mutant, in a stable order.
    pub const ALL: [MediaBugId; 5] = [
        MediaBugId::SkipScrubChecksum,
        MediaBugId::SalvagePastCorruptCommit,
        MediaBugId::NoSpaceTreatedAsCommitted,
        MediaBugId::TransientFaultAsPermanentLoss,
        MediaBugId::RetryCapIgnored,
    ];

    /// The dominant symptom category: most media mutants surface as wrong
    /// state (logic); giving up on a healable read surfaces as a recovery
    /// failure (internal error).
    pub fn kind(self) -> BugKind {
        match self {
            MediaBugId::TransientFaultAsPermanentLoss => BugKind::InternalError,
            _ => BugKind::Logic,
        }
    }

    /// Short stable identifier, e.g. for report keys.
    pub fn name(self) -> &'static str {
        match self {
            MediaBugId::SkipScrubChecksum => "media-skip-scrub-checksum",
            MediaBugId::SalvagePastCorruptCommit => "media-salvage-past-corrupt-commit",
            MediaBugId::NoSpaceTreatedAsCommitted => "media-nospace-treated-as-committed",
            MediaBugId::TransientFaultAsPermanentLoss => "media-transient-fault-as-permanent-loss",
            MediaBugId::RetryCapIgnored => "media-retry-cap-ignored",
        }
    }

    /// Human-readable description (one line).
    pub fn description(self) -> &'static str {
        match self {
            MediaBugId::SkipScrubChecksum => {
                "scrub skips frame checksums, reporting damaged images as clean"
            }
            MediaBugId::SalvagePastCorruptCommit => {
                "salvage replays effects past a checksum-failing frame"
            }
            MediaBugId::NoSpaceTreatedAsCommitted => {
                "a NoSpace append failure is treated as a successful commit"
            }
            MediaBugId::TransientFaultAsPermanentLoss => {
                "the read path reports a healable transient fault as permanent loss"
            }
            MediaBugId::RetryCapIgnored => {
                "the read path retries transient faults past the bounded cap"
            }
        }
    }
}

/// One family of injectable mutants: [`BugId`], [`RecoveryBugId`],
/// [`IndexBugId`] or [`MediaBugId`]. A mutant's type names its family,
/// so [`BugRegistry`] serves all four through one set of generic methods.
///
/// Sealed: a registry has one mask slot per family, exactly four, so a
/// family from outside this module would index past them.
pub trait Mutant: sealed::Sealed + Copy + 'static {
    /// The family's slot among a registry's masks.
    const SLOT: usize;
    /// Every mutant of the family in declaration order, which is the
    /// enum's `ALL`: bit `i` of the family's mask is `MEMBERS[i]`.
    const MEMBERS: &'static [Self];
    /// This mutant's bit, its index in [`MEMBERS`](Self::MEMBERS).
    fn bit(self) -> usize;
}

mod sealed {
    pub trait Sealed {}
}

impl sealed::Sealed for BugId {}
impl Mutant for BugId {
    const SLOT: usize = 0;
    const MEMBERS: &'static [Self] = &Self::ALL;
    fn bit(self) -> usize {
        self as usize
    }
}

impl sealed::Sealed for RecoveryBugId {}
impl Mutant for RecoveryBugId {
    const SLOT: usize = 1;
    const MEMBERS: &'static [Self] = &Self::ALL;
    fn bit(self) -> usize {
        self as usize
    }
}

impl sealed::Sealed for IndexBugId {}
impl Mutant for IndexBugId {
    const SLOT: usize = 2;
    const MEMBERS: &'static [Self] = &Self::ALL;
    fn bit(self) -> usize {
        self as usize
    }
}

impl sealed::Sealed for MediaBugId {}
impl Mutant for MediaBugId {
    const SLOT: usize = 3;
    const MEMBERS: &'static [Self] = &Self::ALL;
    fn bit(self) -> usize {
        self as usize
    }
}

/// The set of currently enabled mutants — engine mutants ([`BugId`]),
/// recovery mutants ([`RecoveryBugId`]), index mutants ([`IndexBugId`])
/// and media mutants ([`MediaBugId`]) side by side, so one registry
/// describes a whole campaign's buggy build. [`only`](Self::only),
/// [`enable`](Self::enable), [`active`](Self::active) and
/// [`enabled`](Self::enabled) serve every [`Mutant`] family alike: the
/// mutant's type names its family.
///
/// # Every read records
///
/// The hook accessor [`active`](Self::active) records the mutant it was
/// asked about in a per-thread set, which [`take_consulted`] returns and
/// resets. Engine and oracle code reads the registry through `active`
/// only (the `mutant-read-unrecorded` lint of `coddtest-analyze` checks
/// it). So a run that never asks about a mutant runs exactly as it would
/// with that mutant enabled: enabling a mutant can change nothing until
/// the engine first asks whether it is on. The runner's `rerun_test`
/// skips replays on this basis.
///
/// Two reads in the engine do not record. Both are debug-build validator
/// gates and go through one debug-only accessor, `validator_gate`: the
/// plan and bind validators run only on a clean registry, and the
/// index-seek replay assertion only when no index mutant is enabled. They
/// can change a verdict only when the clean engine fails its own
/// validator. The other non-recording reads ([`enabled`](Self::enabled),
/// [`is_clean`](Self::is_clean),
/// [`shares_mutant_with`](Self::shares_mutant_with), `Debug`) serve the
/// harnesses that configure runs.
#[derive(Clone, Default)]
pub struct BugRegistry {
    /// One bitmask per family, indexed by [`Mutant::SLOT`].
    masks: [u64; 4],
}

const _: () = assert!(
    BugId::ALL.len() <= 64
        && RecoveryBugId::ALL.len() <= 64
        && IndexBugId::ALL.len() <= 64
        && MediaBugId::ALL.len() <= 64
);

thread_local! {
    /// The mutants this thread's hook accessor was asked about since the
    /// last [`take_consulted`], as [`BugRegistry`] masks.
    static CONSULTED: [Cell<u64>; 4] = const { [const { Cell::new(0) }; 4] };
}

/// The mutants this thread's hook accessor was asked about since the
/// last call, as a registry, and reset the record.
pub fn take_consulted() -> BugRegistry {
    BugRegistry {
        masks: CONSULTED.with(|c| c.each_ref().map(Cell::take)),
    }
}

/// Which mutants a debug-build validator gate checks for.
#[cfg(debug_assertions)]
#[derive(Clone, Copy)]
pub(crate) enum ValidatorScope {
    /// Any mutant: the plan and bind validators.
    AnyMutant,
    /// Index mutants: the index-seek replay assertion.
    IndexMutants,
}

impl BugRegistry {
    /// A clean engine: no injected bugs.
    pub fn none() -> Self {
        Self::default()
    }

    /// No mutant of any family is enabled.
    pub fn is_clean(&self) -> bool {
        self.masks == [0; 4]
    }

    /// Does any mutant enabled here also appear in `other`?
    pub fn shares_mutant_with(&self, other: &BugRegistry) -> bool {
        self.masks.iter().zip(&other.masks).any(|(a, b)| a & b != 0)
    }

    /// `true` when no mutant in `scope` is enabled, so a debug-build
    /// validator's clean-engine assertion applies. Mutant-corrupted plans
    /// are invalid *by design*, and flagging them is the campaign
    /// oracle's job, not an assertion failure. The one engine read that
    /// records nothing (see the type docs).
    #[cfg(debug_assertions)]
    pub(crate) fn validator_gate(&self, scope: ValidatorScope) -> bool {
        match scope {
            ValidatorScope::AnyMutant => self.is_clean(),
            ValidatorScope::IndexMutants => self.masks[IndexBugId::SLOT] == 0,
        }
    }

    /// Enable every engine mutant belonging to `dialect` (the Table 1
    /// campaign configuration).
    pub fn all_for_dialect(dialect: Dialect) -> Self {
        let mut reg = Self::default();
        for b in BugId::for_dialect(dialect) {
            reg.enable(b);
        }
        reg
    }

    /// Enable exactly one mutant (the per-bug configuration of Table 2
    /// and of attribution).
    pub fn only<M: Mutant>(bug: M) -> Self {
        let mut reg = Self::default();
        reg.enable(bug);
        reg
    }

    pub fn enable<M: Mutant>(&mut self, bug: M) {
        self.masks[M::SLOT] |= 1 << bug.bit();
    }

    /// Is `bug` enabled? The hook accessor: records the question.
    #[inline]
    pub fn active<M: Mutant>(&self, bug: M) -> bool {
        let mask = 1u64 << bug.bit();
        CONSULTED.with(|c| c[M::SLOT].set(c[M::SLOT].get() | mask));
        self.masks[M::SLOT] & mask != 0
    }

    /// The enabled mutants of family `M`, in declaration order.
    pub fn enabled<M: Mutant>(&self) -> impl Iterator<Item = M> {
        let mask = self.masks[M::SLOT];
        M::MEMBERS
            .iter()
            .enumerate()
            .filter(move |&(i, _)| (mask >> i) & 1 == 1)
            .map(|(_, &m)| m)
    }
}

/// Lists each family's enabled mutants.
impl fmt::Debug for BugRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn set<M: Mutant + Ord>(reg: &BugRegistry) -> BTreeSet<M> {
            reg.enabled().collect()
        }
        f.debug_struct("BugRegistry")
            .field("active", &set::<BugId>(self))
            .field("recovery", &set::<RecoveryBugId>(self))
            .field("index", &set::<IndexBugId>(self))
            .field("media", &set::<MediaBugId>(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_match_paper() {
        // Table 1 of the paper: per-DBMS bug counts by category.
        let count = |d: Dialect, k: BugKind| {
            BugId::ALL
                .iter()
                .filter(|b| b.dialect() == d && b.kind() == k)
                .count()
        };
        assert_eq!(count(Dialect::Sqlite, BugKind::Logic), 6);
        assert_eq!(count(Dialect::Sqlite, BugKind::InternalError), 1);
        assert_eq!(count(Dialect::Mysql, BugKind::Logic), 1);
        assert_eq!(count(Dialect::Mysql, BugKind::InternalError), 1);
        assert_eq!(count(Dialect::Cockroach, BugKind::Logic), 7);
        assert_eq!(count(Dialect::Cockroach, BugKind::InternalError), 4);
        assert_eq!(count(Dialect::Cockroach, BugKind::Hang), 2);
        assert_eq!(count(Dialect::Duckdb, BugKind::Logic), 5);
        assert_eq!(count(Dialect::Duckdb, BugKind::InternalError), 2);
        assert_eq!(count(Dialect::Duckdb, BugKind::Crash), 2);
        assert_eq!(count(Dialect::Duckdb, BugKind::Hang), 3);
        assert_eq!(count(Dialect::Tidb, BugKind::Logic), 5);
        assert_eq!(count(Dialect::Tidb, BugKind::InternalError), 6);
        assert_eq!(BugId::ALL.len(), 45);
        assert_eq!(BugId::logic_bugs().len(), 24);
    }

    #[test]
    fn table2_detectability_matches_paper() {
        // Table 2: NoREC 11, TLP 12, DQE 4, only-CODDTest 11.
        let logic = BugId::logic_bugs();
        let by = |o: BaselineOracle| {
            logic
                .iter()
                .filter(|b| b.baseline_detectable().contains(&o))
                .count()
        };
        assert_eq!(by(BaselineOracle::NoRec), 11, "NoREC-detectable");
        assert_eq!(by(BaselineOracle::Tlp), 12, "TLP-detectable");
        assert_eq!(by(BaselineOracle::Dqe), 4, "DQE-detectable");
        let only_codd = logic
            .iter()
            .filter(|b| b.baseline_detectable().is_empty())
            .count();
        assert_eq!(only_codd, 11, "only-CODDTest");
    }

    /// Each family's members as `(name, description, kind)`, in
    /// declaration order.
    fn families() -> [Vec<(&'static str, &'static str, BugKind)>; 4] {
        [
            BugId::ALL
                .map(|m| (m.name(), m.description(), m.kind()))
                .to_vec(),
            RecoveryBugId::ALL
                .map(|m| (m.name(), m.description(), m.kind()))
                .to_vec(),
            IndexBugId::ALL
                .map(|m| (m.name(), m.description(), m.kind()))
                .to_vec(),
            MediaBugId::ALL
                .map(|m| (m.name(), m.description(), m.kind()))
                .to_vec(),
        ]
    }

    /// The four families keep their sizes (the engine family is Table 1's
    /// 45), and every mutant has a description and a name no other
    /// mutant of any family shares.
    #[test]
    fn families_have_their_sizes_and_unique_names() {
        let families = families();
        assert_eq!(families.each_ref().map(Vec::len), [45, 11, 5, 5]);
        let mut names = BTreeSet::new();
        for &(name, description, _) in families.iter().flatten() {
            assert!(!name.is_empty() && !description.is_empty());
            assert!(names.insert(name), "duplicate name {name}");
        }
        assert!(
            families[IndexBugId::SLOT]
                .iter()
                .all(|&(_, _, kind)| kind == BugKind::Logic),
            "every index mutant is a logic bug"
        );
    }

    /// How many mutants of each family `reg` enables, where `enabled`
    /// and `active` must agree.
    fn sizes(reg: &BugRegistry) -> [usize; 4] {
        fn size<M: Mutant>(reg: &BugRegistry) -> usize {
            let n = reg.enabled::<M>().count();
            assert_eq!(M::MEMBERS.iter().filter(|&&m| reg.active(m)).count(), n);
            n
        }
        [
            size::<BugId>(reg),
            size::<RecoveryBugId>(reg),
            size::<IndexBugId>(reg),
            size::<MediaBugId>(reg),
        ]
    }

    /// `only`, `enable`, `active` and `enabled` serve family `M` without
    /// touching the other three, and `enabled` lists mutants in
    /// declaration order whatever order they were enabled in.
    fn check_family<M: Mutant + Ord + fmt::Debug>() {
        let all = M::MEMBERS;
        let mut sorted = all.to_vec();
        sorted.sort();
        assert_eq!(sorted, all, "MEMBERS is in declaration order");
        let mut alone = [0; 4];
        alone[M::SLOT] = 1;

        let (first, last) = (all[0], all[all.len() - 1]);
        let only = BugRegistry::only(last);
        assert!(!only.is_clean());
        assert!(only.active(last) && !only.active(first));
        assert_eq!(only.enabled::<M>().collect::<Vec<_>>(), [last]);
        assert_eq!(sizes(&only), alone);

        let mut reg = BugRegistry::none();
        assert!(reg.is_clean());
        for &m in all.iter().rev().step_by(2) {
            reg.enable(m);
        }
        let mut expected: Vec<M> = all.iter().rev().step_by(2).copied().collect();
        expected.sort();
        assert_eq!(reg.enabled::<M>().collect::<Vec<_>>(), expected);
        alone[M::SLOT] = expected.len();
        assert_eq!(sizes(&reg), alone);
    }

    #[test]
    fn registry_serves_each_family_alone() {
        check_family::<BugId>();
        check_family::<RecoveryBugId>();
        check_family::<IndexBugId>();
        check_family::<MediaBugId>();
        assert_eq!(
            format!("{:?}", BugRegistry::only(BugId::SqliteLikeCaseFold)),
            "BugRegistry { active: {SqliteLikeCaseFold}, recovery: {}, index: {}, media: {} }"
        );
        let mut reg = BugRegistry::only(BugId::TidbInternalSetOpOrderBy);
        reg.enable(BugId::SqliteLikeCaseFold);
        reg.enable(RecoveryBugId::DropLastCommit);
        reg.enable(IndexBugId::RangeBoundOffByOne);
        reg.enable(MediaBugId::RetryCapIgnored);
        assert_eq!(
            format!("{reg:?}"),
            "BugRegistry { active: {SqliteLikeCaseFold, TidbInternalSetOpOrderBy}, \
             recovery: {DropLastCommit}, index: {RangeBoundOffByOne}, \
             media: {RetryCapIgnored} }"
        );
    }

    #[test]
    fn all_for_dialect_covers_exactly_that_dialect() {
        let reg = BugRegistry::all_for_dialect(Dialect::Duckdb);
        assert_eq!(reg.enabled::<BugId>().count(), 12);
        assert!(reg
            .enabled::<BugId>()
            .all(|b| b.dialect() == Dialect::Duckdb));
    }

    /// The hook accessor records what it was asked, enabled or not;
    /// `take_consulted()` hands the record over and starts a new one.
    #[test]
    fn take_consulted_returns_the_questions_and_resets() {
        take_consulted();
        let reg = BugRegistry::only(BugId::SqliteLikeCaseFold);
        assert!(reg.active(BugId::SqliteLikeCaseFold));
        assert!(!reg.active(BugId::TidbInternalSetOpOrderBy));
        assert!(!reg.active(RecoveryBugId::DropLastCommit));
        assert!(!reg.active(IndexBugId::RangeBoundOffByOne));
        assert!(!reg.active(MediaBugId::RetryCapIgnored));
        let consulted = take_consulted();
        assert_eq!(
            consulted.enabled::<BugId>().collect::<Vec<_>>(),
            [BugId::SqliteLikeCaseFold, BugId::TidbInternalSetOpOrderBy]
        );
        assert_eq!(
            consulted.enabled::<RecoveryBugId>().collect::<Vec<_>>(),
            [RecoveryBugId::DropLastCommit]
        );
        assert_eq!(
            consulted.enabled::<IndexBugId>().collect::<Vec<_>>(),
            [IndexBugId::RangeBoundOffByOne]
        );
        assert_eq!(
            consulted.enabled::<MediaBugId>().collect::<Vec<_>>(),
            [MediaBugId::RetryCapIgnored]
        );
        assert!(reg.shares_mutant_with(&consulted));
        assert!(!BugRegistry::only(BugId::SqliteLikeCaseFold)
            .shares_mutant_with(&BugRegistry::only(BugId::TidbInternalSetOpOrderBy)));
        assert!(take_consulted().is_clean(), "the take reset the record");
    }

    #[test]
    fn non_logic_bugs_have_no_baseline_entry() {
        for b in BugId::ALL {
            if b.kind() != BugKind::Logic {
                assert!(b.baseline_detectable().is_empty());
            }
        }
    }
}
