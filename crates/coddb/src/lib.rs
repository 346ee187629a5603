// The coverage-point registry macro recurses once per registered point.
#![recursion_limit = "512"]

//! # CoddDB — the device-under-test substrate for the CODDTest reproduction
//!
//! An in-memory relational SQL engine built from scratch:
//!
//! * typed values with SQL three-valued logic ([`value`]),
//! * a full AST with renderer and recursive-descent parser ([`ast`],
//!   [`parser`]),
//! * a catalog with tables, views and expression indexes ([`catalog`]),
//! * a planner with constant folding, predicate pushdown, index
//!   selection and equi-join key recognition, producing fingerprintable
//!   physical plans ([`plan`]),
//! * a binding pass resolving names to ordinals once per query ([`bind`]),
//! * an executor covering joins (build/probe hash joins on bound key
//!   ordinals, with a nested-loop fallback), grouping, subqueries
//!   (correlated and non-correlated, behind a per-statement
//!   plan/bind/result cache), CTEs, set operations and DML
//!   ([`exec`], [`eval`]),
//! * five dialect profiles emulating the paper's target systems
//!   ([`dialect`]),
//! * 45 injectable bug mutants mirroring the paper's Table 1 ([`bugs`]),
//!   plus separate families of recovery-path mutants
//!   ([`bugs::RecoveryBugId`]), index mutants ([`bugs::IndexBugId`]) and
//!   media-fault mutants ([`bugs::MediaBugId`]); each family is a
//!   [`bugs::Mutant`], and one [`BugRegistry`] serves all four through
//!   one hook accessor, [`BugRegistry::active`], which records every
//!   read,
//! * a branch-point coverage registry for the Table 3 metric
//!   ([`coverage`]),
//! * a durable storage layer: a checksummed redo log written through a
//!   simulated disk with deterministic crash injection ([`wal`]) and a
//!   recovery replayer that reconstructs exactly the committed prefix
//!   ([`recovery`]).
//!
//! The public entry point is [`Database`].
//!
//! ## The plan → bind → vectorize → exec phase contract
//!
//! A statement passes through four stages, the first three running
//! **once per statement** so that per-row work stays allocation-free:
//!
//! 1. **plan** ([`plan::plan_select`]): the AST is lowered to a
//!    [`plan::SelectPlan`] — views expanded, CTE references resolved and,
//!    with the optimizer on, constant folding / predicate pushdown / index
//!    selection applied. Plans still carry AST expressions ([`ast::Expr`]):
//!    plan shapes are what [`plan::fingerprint`] hashes, and the
//!    shape-sensitive bug mutants pattern-match them.
//! 2. **bind** ([`bind::Binder`]): as the executor instantiates each
//!    operator (and therefore knows the operator's input [`exec::Schema`]),
//!    every clause expression is compiled to a [`bind::BoundExpr`]: column
//!    names resolve to `(scope hop, ordinal)` pairs, aggregates get value
//!    slots, and bug-hook trigger shapes are precomputed. Name-resolution
//!    errors (unknown/ambiguous columns) surface here, once per query —
//!    matching real engines, where name resolution is static.
//! 3. **vectorize** ([`vec_eval`]): each clause is classified as
//!    chunk-vectorizable or not by one classifier over its AST
//!    ([`vec_eval::classify`]). Vectorizable filters, projections,
//!    group keys and aggregate arguments then evaluate the bound form
//!    **column-at-a-time over fixed-size row chunks** (1024 rows),
//!    with selection vectors keeping `AND`/`OR`/`CASE`/`COALESCE`/`IIF`
//!    laziness exact and per-chunk scratch coverage merged only on
//!    success; a WHERE clause whose root is a comparison classifies each
//!    row straight from the comparison's two operands. The fallback
//!    taxonomy — evaluated row-at-a-time exactly as before — is: (a)
//!    subqueries and aggregate slots (they re-enter the executor), (b)
//!    any shape a currently *active* mutant hooks (the hook must run on
//!    the authentic interpreter), (c) MySQL UPDATE/DELETE comparisons (a
//!    per-pair dialect rule), (d) chunks containing a lane whose
//!    evaluation errors (the rerun raises the exact scalar error with
//!    exact coverage and fuel), and (e) chunks the fuel budget cannot
//!    cover whole. A WHERE clause's root comparison is exempt from the
//!    comparison gates of (b) and (c), whose MySQL rules act only on a
//!    lane that pairs TEXT with a number: its chunk kernel aborts on such
//!    a lane, and the chunk falls back as in (d). `EXPLAIN` annotates
//!    each clause `[VEC]` or `[ROW(<reason>)]` by asking the executor's
//!    own classifier and plan facts (grouping, group keys, index-scan
//!    input); only the runtime fallbacks (d), (e) and a seek falling back
//!    to a scan make the annotation a prediction.
//!    [`Database::set_eval_mode`]`(`[`EvalMode::RowAtATime`]`)` disables
//!    the stage wholesale for differential testing
//!    (`coddb/tests/eval_differential.rs`: byte-identical results,
//!    coverage bitsets and fuel across modes, dialects and mutants).
//! 4. **exec** ([`exec`]): row loops evaluate bound expressions via
//!    [`eval::eval_bound`] against a reused frame stack — zero heap
//!    allocation per row for name resolution. Rows themselves are
//!    **shared, copy-on-write** ([`value::Row`] is `Rc<[Value]>`-backed):
//!    scans hand out refcount bumps to table / CTE storage instead of
//!    cloning, joins and projections freeze freshly built value vectors
//!    into shared slices, and DML writes copy only when a snapshot or
//!    in-flight relation still holds the row. Joins with recognized
//!    equality keys run as build/probe hash joins over the bound key
//!    ordinals (SQL NULL-key semantics; duplicates chain in right-row
//!    order, so the output keeps the nested loop's order; no allocation
//!    per input row beyond TEXT keys; the nested loop remains for
//!    non-equi predicates, runtime mixed-class keys, and differential
//!    testing via [`Database::set_join_mode`]). Subqueries are planned
//!    and bound lazily at evaluation time (with the outer scopes in
//!    place) — but only **once per statement**: a per-statement cache
//!    keyed by subquery AST identity reuses the compiled plan and
//!    bindings across evaluations, and result memoization is two-tier,
//!    driven by a runtime correlation detector that records exactly which
//!    outer slots an evaluation read. No outer reads → the full result
//!    relation is memoized; outer reads → results are **memoized per
//!    outer key** (the values of precisely those slots), so a correlated
//!    subquery over K distinct outer keys executes K times, not once per
//!    outer row — `EXPLAIN` annotates the predicted strategy
//!    (`MEMO(full)` / `MEMO(keyed: n slots)`) and
//!    [`Database::subquery_memo_stats`] counts hits and misses.
//!    Cacheable FROM subtrees (no CTE scans, derived tables or embedded
//!    subqueries) also materialize once per statement and are shared
//!    across a correlated subquery's re-instantiations. All caches die
//!    at the statement boundary, so DML can never leak stale results.
//!
//! Three execution-mode switches select a non-optimizing *reference
//! engine* per axis, in the NoREC sense: [`JoinMode::NestedLoop`] (via
//! [`Database::set_join_mode`]) disables the hash join,
//! [`EvalMode::RowAtATime`] (via [`Database::set_eval_mode`]) disables
//! the vectorized kernels, and [`AccessMode::ScanOnly`] (via
//! [`Database::set_access_mode`]) disables index seeks. Each reference
//! must agree with the default engine on results and coverage bitsets
//! (`join_differential.rs`), and the latter two on fuel as well
//! (`eval_differential.rs`, `index_differential.rs`). The row
//! interpreter and the kernels share every value rule ([`eval`]
//! module docs), so `RowAtATime` checks the vectorized *strategy* —
//! selection vectors, lazy lanes, root-comparison classes, chunk abort —
//! not a second copy of SQL semantics.
//!
//! ## Ordered index access paths
//!
//! `CREATE INDEX` on bare columns additionally builds a physical ordered
//! structure ([`index::OrdIndex`]: a B-tree map from composite key to
//! storage positions), maintained exactly by the catalog's row writes
//! (`append_rows`, `set_cells`, `remove_rows`), which INSERT / UPDATE /
//! DELETE and WAL or snapshot recovery alike go through. The planner
//! ([`plan`]) turns a **prefix** of the WHERE clause's
//! conjuncts — `col <cmp> probe` on the index's leading columns, at
//! most one range — into a [`plan::FromPlan::IndexSeek`] access path,
//! and satisfies a matching `ORDER BY` by emitting in key order and
//! skipping the sort (sort elimination; `EXPLAIN` prints the seek shape
//! and `ordered` / `reverse` flags). A probe is a literal or, inside a
//! correlated subquery, an outer column ([`plan::SeekProbe`]): each run
//! of the subquery seeks by the current outer key, so a subquery over K
//! outer keys reads the rows of K key groups instead of filtering the
//! whole inner table K times. UPDATE and DELETE reach their rows
//! through the same seek and the same WHERE stage.
//!
//! The path is **observation-exact**, not merely result-exact: a
//! runtime gate falls back to the scan for a run whose probe value is
//! NULL or is not comparison-uniform with every probed key column's
//! stored values (no TEXT against a number, where dialect rules, not
//! the key order, decide a comparison), an outer probe's value is read
//! from the outer row without entering the subquery memo's correlation
//! detector (the filter stage's own evaluation of the consumed conjunct
//! notes the outer slot, exactly when the scan's would), and the filter
//! stage runs the emitted rows through the scan's own filter kernels and
//! replays what the baseline would have observed for the rows the seek
//! skipped — their fuel, and the
//! authentic drop-path coverage bits fired once per skipped outcome
//! class via a representative evaluation ([`exec`]'s `seek_filter`).
//! Because consumed conjuncts are a prefix of a left-associated `AND`,
//! a skipped row's clause value is FALSE before any residual conjunct
//! runs, so residual errors, coverage and fuel land identically in both
//! modes.
//! [`Database::set_access_mode`]`(`[`AccessMode::ScanOnly`]`)` forces
//! every seek back to the baseline scan for differential testing
//! (`coddb/tests/index_differential.rs`: byte-identical results,
//! coverage bitsets and fuel), and a dedicated mutant scheme
//! ([`bugs::IndexBugId`]) injects seek-path bugs — stale entries after
//! UPDATE, off-by-one range bounds, dropped duplicates, ignored
//! residuals, wrong sort-elimination direction — for the campaign to
//! hunt.
//!
//! ## The storage / WAL / recovery layer
//!
//! [`Database::set_storage_mode`]`(`[`wal::StorageMode::Durable`]`)`
//! attaches a write-ahead log following the same differential-mode
//! pattern as the mode switches above: the in-memory catalog remains the
//! baseline store, and the WAL additionally records every DML/DDL
//! *effect* — per-row inserts, per-row update images, delete row sets,
//! DDL statement text — each statement sealed by a commit marker. Frames
//! are length-prefixed and checksummed ([`wal::Wal`]), written through an
//! in-memory byte-file model ([`wal::SimDisk`]) whose [`wal::FaultPlan`]
//! can deterministically crash the engine before a write (the record is
//! lost), mid-record (a torn tail survives), or after the write but
//! before the durability point (the commit marker is lost). Recovery
//! ([`recovery::recover`]) scans the surviving image — truncating at the
//! first torn or checksum-damaged frame — and replays effects per
//! statement at their commit markers, discarding uncommitted work: the
//! recovered state must be **byte-identical** ([`Database::dump_state`])
//! to a never-crashed engine that executed only the committed prefix.
//!
//! **Checkpoints.** [`Database::checkpoint`] bounds replay work by
//! serializing the full logical state to a second [`wal::SimDisk`]: a
//! `SnapshotBegin{stmt_idx}` frame, then one `Ddl` frame per DDL the
//! engine has ever executed (in original order, drops included) and one
//! `InsertRow` frame per live catalog row (tables in name order, rows in
//! physical order — both deterministic), sealed by a
//! `SnapshotEnd{stmt_idx, records}` whose record count makes torn bodies
//! detectable. Only then does a `CheckpointComplete{stmt_idx}` marker go
//! to the *log* and the log get truncated — each of these is its own
//! crashable disk operation, sharing the log's operation counter so one
//! [`wal::FaultPlan`] range covers DML traffic, snapshot writes and the
//! truncation step alike. The snapshot disk keeps two generations: each
//! checkpoint first reclaims every snapshot older than the newest sealed
//! one ([`wal::Wal::reclaim_snapshots`], one more crashable operation
//! once it has bytes to free), so the previous snapshot stays on file as
//! the fallback and the file does not grow with the run's length.
//!
//! **The snapshot + suffix contract.** Recovery
//! ([`recovery::recover_detailed`]) scans the snapshot disk through the
//! same frame reader as the log (`wal::frames`, the only one; scrub
//! reads through it too), keeps only *sealed* snapshots
//! (matching `stmt_idx` and exact record count), loads the newest one,
//! and then replays the log suffix — skipping any commit whose statement
//! index the snapshot already covers (a crash between the marker and the
//! truncation leaves both images whole, and replaying the overlap would
//! double-apply effects). A torn or corrupt newest snapshot falls back
//! to the previous sealed one; no sealed snapshot at all falls back to
//! genesis replay. The contract is exact, not best-effort: the chosen
//! base must equal the writer-side ground truth
//! ([`wal::Wal::durable_snapshot_stmts`] — the newest seal that reached
//! the disk before the crash), and the crash-recovery differential
//! ([`recovery::recovery_divergence`]) reports a mismatch
//! as a divergence even when the final state happens to agree.
//!
//! **Checkpoint determinism.** Checkpoints are part of a scenario's
//! coordinates: a checkpoint schedule is a sorted list of statement
//! indices, snapshot serialization order is fully determined by the
//! catalog (no iteration-order or clock dependence), and every disk
//! operation a checkpoint performs is counted. Identical `(script,
//! schedule, FaultPlan)` triples therefore produce byte-identical log
//! *and* snapshot images — which is what lets the `recover` oracle carry
//! a `ckpt_seed` alongside `script_seed`/`fault_seed` in findings, and
//! lets the reducer shrink the checkpoint schedule as a first-class
//! axis.
//!
//! **Fault-injection determinism contract:** crash points are data, not
//! chance. [`wal::FaultPlan::seeded`]`(seed, total_ops)` derives the
//! crash op and fault mode purely from its arguments, so a `FaultPlan`
//! seed reproduces a crash scenario exactly the way `state_seed` /
//! `test_seed` reproduce a campaign test — fault seeds are part of the
//! same stable reproduction contract, and findings carry them for
//! replay. The recovery-path mutants ([`bugs::RecoveryBugId`]) hook the
//! scan and replay phases so campaigns hunt recovery bugs the way they
//! hunt optimizer bugs — without disturbing the Table 1 scheme.
//!
//! ## The media-fault model
//!
//! Crash injection ([`wal::FaultPlan`]) models a *process* dying; the
//! media-fault model ([`wal::MediaPlan`]) models the *disk* misbehaving,
//! and the two axes compose in one scenario. A `MediaPlan` is seeded by
//! the same splitmix64 scheme as a `FaultPlan` (`media_seed` rides in
//! findings next to the other seeds) and injects exactly one of:
//!
//! * **at-rest bit rot** ([`wal::MediaMode::Rot`]): a deterministic bit
//!   flip applied to the log or snapshot image *between* shutdown and
//!   recovery — corruption no write-path check could have seen;
//! * **read faults** ([`wal::MediaMode::TransientRead`] /
//!   [`wal::MediaMode::PermanentRead`]): [`wal::SimDisk::read_with_retry`]
//!   fails the first *k* attempts of every read (healing if
//!   `k <= `[`wal::READ_RETRY_CAP`]) or fails forever. The **retry
//!   contract** is bounded and deterministic: at most
//!   `READ_RETRY_CAP + 1` attempts, then a structured
//!   [`error::StorageError`] with the attempt count — never a hang, never
//!   an unbounded loop, and a success past the cap is itself a bug (the
//!   `RetryCapIgnored` mutant);
//! * **disk-full** ([`wal::MediaMode::NoSpace`]): the N-th append returns
//!   `NoSpace` and the disk stays full. The engine **degrades
//!   gracefully**: the statement aborts cleanly (catalog state rolled
//!   back, nothing marked committed), the session keeps serving reads,
//!   and recovery sees exactly the committed prefix.
//!
//! **Scrub.** [`Database::scrub`] (offline: [`recovery::scrub_images`])
//! walks every frame on both disks verifying checksums and snapshot
//! seals, and returns a quarantine report ([`recovery::ScrubReport`])
//! classifying each finding as *tail* (an ordinary crash artifact — a
//! torn frame or unsealed trailing snapshot) or *damage* (mid-image
//! corruption no crash can explain).
//!
//! **Salvage vs. fail-stop.** [`recovery::recover_with_policy`] chooses
//! what damage means: [`recovery::RecoveryPolicy::FailStop`] scrubs
//! first and refuses the image on any non-tail finding;
//! [`recovery::RecoveryPolicy::Salvage`] (the default behavior of
//! [`recovery::recover`]) truncates at the first damaged frame and may
//! therefore *drop a committed suffix* — but must never resurrect or
//! invent effects past the damage: salvaged state must equal **some**
//! committed prefix of the original history.
//!
//! **The detect-or-identical oracle.** Under a media plan, the same
//! differential ([`recovery::recovery_divergence`]) holds every injected media
//! fault to one standard: it must be *detected* (a scrub finding or a
//! structured storage error) or *harmless* (recovery byte-identical to
//! the committed-prefix reference). Detected-and-degraded is fine —
//! that is what salvage is for — but **silent wrong recovery** (clean
//! scrub, no error, divergent state) is always a finding, as is salvaged
//! state matching no committed prefix. The [`bugs::MediaBugId`] mutants
//! break exactly these promises so campaigns prove the oracle can see
//! them.
//!
//! ## Plan invariants (the static verifier)
//!
//! The planner promises the executor a set of structural invariants, and
//! [`validate`] re-derives each one from the plan tree and the catalog
//! alone — never from the bug registry, so a mutant-corrupted plan cannot
//! bless itself. The checked invariants:
//!
//! * **Seek placement** — [`plan::FromPlan::IndexSeek`] appears only at
//!   the root of a core's FROM tree, over a physical (bare-column) index
//!   of the scanned table.
//! * **Seek justification** — the consumed key prefix is exactly what the
//!   WHERE clause's leading conjuncts probe: key column *j* matched by
//!   conjunct *j* with the same comparison operator and the same probe (a
//!   non-NULL literal or an outer column, [`plan::SeekProbe`]), at most
//!   `plan::MAX_SEEK_KEYS` keys, at most one trailing
//!   range, range operator a real comparison. (Consumed conjuncts stay in
//!   the WHERE clause, so the plan carries its own justification.)
//! * **Sort-elimination legality** — an `ordered` seek implies the
//!   re-derived elimination decision holds: a bare core body with no
//!   grouping/aggregation, a fully-consumed predicate, uniform sort
//!   direction, bare sort keys resolving through the output-name table to
//!   exactly the index's key columns — and the seek's `reverse` flag
//!   equals the ORDER BY direction.
//! * **Hash-join shape** — recognized key pairs are side-pure over
//!   disjoint alias sets, form a prefix of the `ON` conjunction (each
//!   conjunct an equality matching its pair in either orientation), and
//!   the residual is exactly the unconsumed conjuncts, subquery-free.
//! * **Pushdown placement** — a pushed filter ([`plan::FromPlan::Filtered`])
//!   sits only directly below an inner/cross join child and reads only
//!   from its own input subtree (outer-join pushdown changes semantics).
//! * **EXPLAIN faithfulness** — every plan operator surfaces in the
//!   rendered annotation (seeks, index scans, hash joins, nested loops,
//!   pushed filters, CTE materializations, sorts); under-rendering is a
//!   violation.
//! * **Bound-form bounds** — every [`bind::BoundColumn`] (and recorded
//!   collision alternative) points inside the binder's scope stack, and
//!   every aggregate slot indexes the clause's per-group value table
//!   ([`validate::validate_bound`]).
//!
//! Debug builds assert these at the plan and bind seams for every
//! statement (clean engines only — mutant-corrupted plans are invalid by
//! design), the `verify` campaign oracle in `crates/core` reports
//! violations as findings without executing a row, and
//! [`Database::verify_select`] exposes the pass directly.

pub mod ast;
pub mod bind;
pub mod bugs;
mod cache;
pub mod catalog;
pub mod coverage;
pub mod dialect;
pub mod error;
pub mod eval;
pub mod exec;
pub mod index;
pub mod parser;
pub mod plan;
pub mod recovery;
pub mod validate;
pub mod value;
pub mod vec_eval;
pub mod wal;

mod database;

pub use bugs::{BugId, BugKind, BugRegistry, IndexBugId, MediaBugId, RecoveryBugId};
pub use database::{AccessMode, Database, ExecOutcome};
pub use dialect::Dialect;
pub use error::{Error, Result, Severity, StorageError, StorageFaultKind, StorageSite};
pub use exec::{EvalMode, JoinMode};
pub use recovery::{
    recover_with_policy, recovery_divergence, scrub_images, RecoveryPolicy, ScrubFinding,
    ScrubReport,
};
pub use value::{DataType, Relation, Row, Value};
pub use wal::{
    FaultMode, FaultPlan, MediaMode, MediaPlan, ReadFault, StorageMode, Wal, READ_RETRY_CAP,
};
