//! The public engine facade.
//!
//! [`Database`] owns a catalog, a dialect profile, a bug registry and a
//! coverage accumulator, and executes statements (from ASTs or SQL text).
//! Oracles use [`Database::query`] / [`Database::query_unoptimized`] plus
//! [`Database::last_plan_fingerprint`] and the snapshot/restore pair.

use crate::ast::{InsertSource, Statement};
use crate::bugs::{BugId, BugRegistry, IndexBugId, MediaBugId, RecoveryBugId};
use crate::catalog::Catalog;
use crate::coverage::{pt, Coverage};
use crate::dialect::Dialect;
use crate::error::{Error, Result};
use crate::eval::{eval_expr, Clause, ExprCtx};
use crate::exec::{
    self, CteEnv, EngineCtx, EvalEnv, EvalMode, Frame, JoinMode, Prepared, StmtKind,
};
use crate::plan::FromPlan;
use crate::recovery::ScrubReport;
use crate::value::{Relation, Row, Value};
use crate::wal::{FaultPlan, MediaPlan, StorageMode, Wal, WalRecord};

/// Default execution fuel per statement (row-operations budget). Generated
/// workloads stay far below this; injected hang bugs exhaust it.
pub const DEFAULT_FUEL: u64 = 4_000_000;

/// How the executor reaches table rows when the planner picked an
/// ordered-index access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Execute planner-selected [`crate::plan::FromPlan::IndexSeek`]
    /// nodes as ordered-index range/point seeks (default).
    #[default]
    Indexed,
    /// Execute every `IndexSeek`, of a SELECT or of an UPDATE/DELETE
    /// WHERE clause, as a full sequential scan with the baseline filter —
    /// kept for differential testing of the seek path
    /// (`coddb/tests/index_differential.rs`: byte-identical results,
    /// coverage bitsets and fuel across modes) and as the scan baseline
    /// in `BENCH_engine.json`.
    ScanOnly,
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A SELECT result.
    Rows(Relation),
    /// Rows affected by DML.
    Affected(usize),
    /// DDL completed.
    Ddl,
}

impl ExecOutcome {
    pub fn rows(&self) -> Option<&Relation> {
        match self {
            ExecOutcome::Rows(r) => Some(r),
            _ => None,
        }
    }
    pub fn affected(&self) -> Option<usize> {
        match self {
            ExecOutcome::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// An in-memory CoddDB database instance.
pub struct Database {
    catalog: Catalog,
    dialect: Dialect,
    bugs: BugRegistry,
    coverage: Coverage,
    fuel_limit: u64,
    join_mode: JoinMode,
    eval_mode: EvalMode,
    access_mode: AccessMode,
    last_plan_fp: Option<u64>,
    queries_executed: u64,
    subq_memo_hits: u64,
    subq_memo_misses: u64,
    fuel_used: u64,
    /// Attached write-ahead log; `Some` iff the storage mode is
    /// [`StorageMode::Durable`].
    wal: Option<Wal>,
    /// Every completed DDL statement, as rendered SQL, in execution order
    /// (drops included). [`Database::checkpoint`] replays this history
    /// into the snapshot so the recovered catalog's schema — views,
    /// indexes, tombstoned tables — is rebuilt by the same re-execution
    /// path WAL replay uses, with no dependency-ordering reconstruction.
    ddl_history: Vec<String>,
}

impl Database {
    /// A clean database (no injected bugs) under the given dialect.
    pub fn new(dialect: Dialect) -> Self {
        Self::with_bugs(dialect, BugRegistry::none())
    }

    /// A database with an explicit mutant configuration.
    pub fn with_bugs(dialect: Dialect, bugs: BugRegistry) -> Self {
        Database {
            catalog: Catalog::new(),
            dialect,
            bugs,
            coverage: Coverage::new(),
            fuel_limit: DEFAULT_FUEL,
            join_mode: JoinMode::default(),
            eval_mode: EvalMode::default(),
            access_mode: AccessMode::default(),
            last_plan_fp: None,
            queries_executed: 0,
            subq_memo_hits: 0,
            subq_memo_misses: 0,
            fuel_used: 0,
            wal: None,
            ddl_history: Vec::new(),
        }
    }

    pub fn dialect(&self) -> Dialect {
        self.dialect
    }
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }
    pub fn bugs(&self) -> &BugRegistry {
        &self.bugs
    }
    pub fn set_fuel_limit(&mut self, fuel: u64) {
        self.fuel_limit = fuel;
    }

    /// Select the physical join strategy: [`JoinMode::Auto`] (default)
    /// hash-joins recognized equality keys, [`JoinMode::NestedLoop`]
    /// forces the nested loop everywhere — kept for differential testing
    /// of the two paths and as a benchmarking baseline.
    pub fn set_join_mode(&mut self, mode: JoinMode) {
        self.join_mode = mode;
    }

    pub fn join_mode(&self) -> JoinMode {
        self.join_mode
    }

    /// Select how clause expressions evaluate over operator input rows:
    /// [`EvalMode::Vectorized`] (default) runs classified-vectorizable
    /// expressions chunk-at-a-time through [`crate::vec_eval`],
    /// [`EvalMode::RowAtATime`] forces the row-at-a-time interpreter
    /// everywhere — kept for differential testing of the vectorized path
    /// (mirroring [`Database::set_join_mode`]) and as a baseline.
    pub fn set_eval_mode(&mut self, mode: EvalMode) {
        self.eval_mode = mode;
    }

    pub fn eval_mode(&self) -> EvalMode {
        self.eval_mode
    }

    /// Select how planner-chosen index access paths execute:
    /// [`AccessMode::Indexed`] (default) runs `IndexSeek` nodes as
    /// ordered range/point seeks with sort elimination,
    /// [`AccessMode::ScanOnly`] forces them back to full scans plus the
    /// baseline filter — kept for differential testing of the seek path
    /// (mirroring [`Database::set_eval_mode`]) and as a baseline.
    pub fn set_access_mode(&mut self, mode: AccessMode) {
        self.access_mode = mode;
    }

    pub fn access_mode(&self) -> AccessMode {
        self.access_mode
    }

    /// Total execution fuel consumed by statements so far (row-work
    /// units). The vectorized and row-at-a-time evaluation modes must
    /// account fuel identically — `eval_differential.rs` asserts it.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Subquery result-memo accounting accumulated across statements:
    /// `(hits, misses)`. A hit is a full-result or keyed-memo reuse; a
    /// miss is an actual subquery execution.
    pub fn subquery_memo_stats(&self) -> (u64, u64) {
        (self.subq_memo_hits, self.subq_memo_misses)
    }

    /// Switch storage modes. Entering `Durable` attaches a fresh WAL
    /// (under a no-fault plan) that logs every subsequent DML/DDL effect;
    /// the in-memory catalog remains the baseline store either way,
    /// mirroring how the join/eval/access mode switches keep one
    /// behavioural baseline per axis. Returning to `Volatile` drops the
    /// log.
    pub fn set_storage_mode(&mut self, mode: StorageMode) {
        match mode {
            StorageMode::Durable => {
                if self.wal.is_none() {
                    self.wal = Some(Wal::new(FaultPlan::none()));
                }
            }
            StorageMode::Volatile => self.wal = None,
        }
    }

    /// Install the crash plan on the attached WAL. A no-op in volatile
    /// mode; call [`Database::set_storage_mode`] first.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Some(w) = self.wal.as_mut() {
            w.set_plan(plan);
        }
    }

    /// Install the media-fault plan on the attached WAL. A no-op in
    /// volatile mode; call [`Database::set_storage_mode`] first.
    pub fn set_media_plan(&mut self, plan: MediaPlan) {
        if let Some(w) = self.wal.as_mut() {
            w.set_media_plan(plan);
        }
    }

    /// Apply the media plan's at-rest damage (bit rot, read-fault arming)
    /// to the stored images — models the time between shutdown and
    /// recovery. A no-op in volatile mode.
    pub fn degrade_media(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            w.degrade_at_rest();
        }
    }

    /// Verify every log frame checksum and snapshot seal, reading both
    /// images through the bounded retry schedule, and return the
    /// quarantine report. Errors in volatile mode, or with a structured
    /// [`Error::Storage`] when the medium itself cannot be read.
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        let bugs = self.bugs.clone();
        let Some(w) = self.wal.as_mut() else {
            return Err(Error::Internal(
                "scrub requires durable storage mode".into(),
            ));
        };
        let log = w.read_log_image(&bugs).map_err(Error::from)?.to_vec();
        let snap = w.read_snapshot_image(&bugs).map_err(Error::from)?.to_vec();
        Ok(crate::recovery::scrub_images(&log, &snap, &bugs))
    }

    /// The attached write-ahead log, when in durable mode.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Detach the write-ahead log and return to volatile mode. A volatile
    /// database has logged nothing, so it hands back an empty log.
    pub(crate) fn detach_wal(&mut self) -> Wal {
        self.wal
            .take()
            .unwrap_or_else(|| Wal::new(FaultPlan::none()))
    }

    /// Mutable catalog access for the recovery replayer (same-crate
    /// only): replay applies logged row effects through the catalog's row
    /// writes, bypassing the executor.
    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Render the full logical state — catalog shape plus every stored
    /// row — as a deterministic, byte-comparable string. The
    /// crash-recovery oracle compares a recovered engine against a
    /// never-crashed reference with this; `Real` values print as raw
    /// IEEE-754 bits so the comparison is exact rather than
    /// lossy-decimal.
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in self.catalog.tables() {
            let cols: Vec<String> = t
                .columns
                .iter()
                .map(|c| {
                    format!(
                        "{} {}{}",
                        c.name,
                        c.ty,
                        if c.not_null { " NOT NULL" } else { "" }
                    )
                })
                .collect();
            let _ = writeln!(out, "table {} ({})", t.name, cols.join(", "));
            for row in &t.rows {
                let vals: Vec<String> = row.iter().map(dump_value).collect();
                let _ = writeln!(out, "  [{}]", vals.join(", "));
            }
        }
        for name in self.catalog.view_names() {
            let v = self.catalog.view(name).expect("listed view");
            let _ = writeln!(
                out,
                "view {} ({}) AS {}",
                v.name,
                v.columns.join(", "),
                v.query
            );
        }
        for name in self.catalog.index_names() {
            let i = self.catalog.index(name).expect("listed index");
            let keys = i
                .exprs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "index {} ON {} ({}){}",
                i.name,
                i.table,
                keys,
                if i.unique { " UNIQUE" } else { "" }
            );
        }
        out
    }

    /// Log one statement's effect records (drawn only in durable mode),
    /// then its commit marker, its durability point. A refused append
    /// (disk full) aborts the statement with a storage error, and the
    /// caller leaves the catalog as it was — unless the
    /// NoSpaceTreatedAsCommitted mutant, consulted only then, swallows the
    /// failure so the caller keeps effects the log never recorded.
    fn log_statement(&mut self, records: impl IntoIterator<Item = WalRecord>) -> Result<()> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        let logged = records
            .into_iter()
            .try_for_each(|r| w.append(&r))
            .and_then(|()| w.commit_statement());
        match logged {
            Ok(()) => Ok(()),
            Err(_) if self.bugs.active(MediaBugId::NoSpaceTreatedAsCommitted) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Run a DDL statement's catalog mutation with WAL-abort rollback: in
    /// durable mode the pre-statement catalog is pinned, and a refused
    /// WAL append (disk full) restores it so the session keeps serving
    /// with the statement cleanly aborted. DDL records carry the
    /// statement's SQL text (the Display round-trip); replay re-parses
    /// and re-executes it against the recovered catalog.
    fn run_ddl<F>(&mut self, stmt: &Statement, apply: F) -> Result<ExecOutcome>
    where
        F: FnOnce(&mut Catalog) -> Result<()>,
    {
        let undo = if self.wal.is_some() {
            Some(self.catalog.clone())
        } else {
            None
        };
        apply(&mut self.catalog)?;
        let sql = stmt.to_string();
        let record = || WalRecord::Ddl { sql: sql.clone() };
        if let Err(e) = self.log_statement(std::iter::once_with(record)) {
            if let Some(prev) = undo {
                self.catalog = prev;
            }
            return Err(e);
        }
        self.ddl_history.push(sql);
        Ok(ExecOutcome::Ddl)
    }

    /// Checkpoint the durable state: reclaim the snapshot generations
    /// older than the newest sealed one ([`Wal::reclaim_snapshots`]),
    /// serialize the full catalog (schema history + every base-table row)
    /// as a framed snapshot to the WAL's snapshot file, record the
    /// [`WalRecord::CheckpointComplete`] durability marker in the log, and
    /// truncate the log to the suffix after the marker. Recovery then
    /// loads the newest sealed snapshot and replays only that suffix. The
    /// snapshot file holds at most two snapshots, the previous one and
    /// the newest, however many checkpoints a run takes.
    ///
    /// The snapshot body is deterministic: the DDL history in execution
    /// order, then each table's rows in catalog (name) order — so two
    /// engines in identical states write byte-identical snapshots.
    /// Checkpointing never touches the in-memory catalog and consumes no
    /// fuel; it is purely a storage-layer operation.
    ///
    /// Returns the statement coverage of the snapshot (the `stmt_idx` the
    /// checkpoint marker declares). Errors in volatile mode.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let Some(w) = self.wal.as_mut() else {
            return Err(Error::Internal(
                "checkpoint requires durable storage mode".into(),
            ));
        };
        // Mutant: truncate the log *before* the snapshot exists. Correct
        // order writes snapshot → marker → truncate; truncating first
        // loses the suffix whenever the crash lands inside the snapshot.
        let truncate_early = self.bugs.active(RecoveryBugId::TruncateBeforeMarker);
        // Mutant: the reclaim drops the newest sealed snapshot as well, so
        // until the new snapshot seals there is none to recover from.
        let drop_newest = self.bugs.active(RecoveryBugId::ReclaimNewestSnapshot);
        w.reclaim_snapshots(drop_newest);
        if truncate_early {
            w.truncate_log();
        }
        let stmt_idx = w.statements_logged();
        // A refused append (disk full) aborts the checkpoint before the
        // truncation: the log keeps its full replay suffix and the
        // half-written snapshot group is unsealed, which recovery already
        // ignores — a failed checkpoint degrades to no checkpoint.
        w.append_snapshot(&WalRecord::SnapshotBegin { stmt_idx })?;
        let mut records: u64 = 0;
        for sql in &self.ddl_history {
            w.append_snapshot(&WalRecord::Ddl { sql: sql.clone() })?;
            records += 1;
        }
        for t in self.catalog.tables() {
            for row in &t.rows {
                w.append_snapshot(&WalRecord::InsertRow {
                    table: t.name.clone(),
                    row: row.to_vec(),
                })?;
                records += 1;
            }
        }
        w.append_snapshot(&WalRecord::SnapshotEnd { stmt_idx, records })?;
        w.append(&WalRecord::CheckpointComplete { stmt_idx })?;
        if !truncate_early {
            w.truncate_log();
        }
        Ok(stmt_idx)
    }

    /// Run one statement's fallible work over a fresh execution context,
    /// then fold the context's fuel and subquery-memo counters into the
    /// database-lifetime totals whatever the work returned, so an
    /// erroring statement is accounted like a finished one. The work
    /// reads the catalog and the mutant registry through the context.
    fn with_stmt_ctx<T>(
        &mut self,
        optimize: bool,
        stmt: StmtKind,
        work: impl FnOnce(&EngineCtx) -> Result<T>,
    ) -> Result<T> {
        let mut ctx = EngineCtx::new(
            &self.catalog,
            self.dialect,
            &self.bugs,
            &self.coverage,
            optimize,
            stmt,
            self.fuel_limit,
        );
        ctx.force_nested_loop = self.join_mode == JoinMode::NestedLoop;
        ctx.vectorize = self.eval_mode == EvalMode::Vectorized;
        ctx.scan_only = self.access_mode == AccessMode::ScanOnly;
        let res = work(&ctx);
        let used = self.fuel_limit - ctx.fuel_left();
        let (hits, misses) = (ctx.subq_memo_hits.get(), ctx.subq_memo_misses.get());
        self.fuel_used += used;
        self.subq_memo_hits += hits;
        self.subq_memo_misses += misses;
        res
    }

    /// Number of statements executed so far (Table 3 accounting).
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed
    }

    /// Fingerprint of the most recently planned SELECT.
    pub fn last_plan_fingerprint(&self) -> Option<u64> {
        self.last_plan_fp
    }

    /// Snapshot the data (catalog) for later restore — used by oracles that
    /// mutate state (DQE) and by the relation-folding CODDTest mode.
    pub fn snapshot(&self) -> Catalog {
        self.catalog.clone()
    }

    pub fn restore(&mut self, snapshot: Catalog) {
        self.catalog = snapshot;
    }

    /// Parse and execute every statement in a SQL script.
    pub fn execute_sql(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = crate::parser::parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            out.push(self.execute(s)?);
        }
        Ok(out)
    }

    /// Execute one statement with the optimizer on.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        self.execute_with(stmt, true)
    }

    /// Execute one statement, controlling optimization (NoREC's reference
    /// execution passes `optimize = false`).
    ///
    /// UPDATE and DELETE find their rows through the WHERE stage a SELECT
    /// uses: with the optimizer on, the table is reached by the index seek
    /// a SELECT with the same WHERE clause would take, and the same filter
    /// kernels return the storage positions of the rows to change. The
    /// WHERE clause is evaluated over every row before any SET
    /// expression, so a statement reports errors in a SELECT's order.
    pub fn execute_with(&mut self, stmt: &Statement, optimize: bool) -> Result<ExecOutcome> {
        self.queries_executed += 1;
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if !self.dialect.allows_untyped_columns()
                    && columns.iter().any(|c| c.ty == crate::value::DataType::Any)
                {
                    return Err(Error::Type(format!(
                        "{} requires typed columns",
                        self.dialect
                    )));
                }
                self.run_ddl(stmt, |cat| {
                    cat.create_table(name, columns.clone(), *if_not_exists)
                })
            }
            Statement::DropTable { name, if_exists } => {
                self.run_ddl(stmt, |cat| cat.drop_table(name, *if_exists))
            }
            Statement::CreateView {
                name,
                columns,
                query,
            } => self.run_ddl(stmt, |cat| {
                cat.create_view(name, columns.clone(), query.clone())
            }),
            Statement::CreateIndex {
                name,
                table,
                exprs,
                unique,
            } => self.run_ddl(stmt, |cat| {
                cat.create_index(name, table, exprs.clone(), *unique)
            }),
            Statement::Select(q) => {
                let rel = self.run_select(q, optimize)?;
                Ok(ExecOutcome::Rows(rel))
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                let n = self.run_insert(table, columns, source, optimize)?;
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let (w, access) = self.plan_dml(table, where_clause.as_ref(), optimize)?;
                let n = self.run_update(table, sets, w.as_ref(), &access)?;
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let (w, access) = self.plan_dml(table, where_clause.as_ref(), optimize)?;
                let n = self.run_delete(table, w.as_ref(), &access)?;
                Ok(ExecOutcome::Affected(n))
            }
        }
    }

    /// Run a SELECT with the optimizer on.
    pub fn query(&mut self, q: &crate::ast::Select) -> Result<Relation> {
        self.queries_executed += 1;
        self.run_select(q, true)
    }

    /// Run a SELECT with the optimizer off (NoREC reference execution).
    pub fn query_unoptimized(&mut self, q: &crate::ast::Select) -> Result<Relation> {
        self.queries_executed += 1;
        self.run_select(q, false)
    }

    /// The optimizing planner's view of this database.
    fn plan_ctx(&self) -> crate::plan::PlanCtx<'_> {
        crate::plan::PlanCtx {
            catalog: &self.catalog,
            dialect: self.dialect,
            bugs: &self.bugs,
            cov: &self.coverage,
            optimize: true,
        }
    }

    /// Plan a SELECT and render its physical plan (the engine's EXPLAIN).
    pub fn explain(&self, q: &crate::ast::Select) -> Result<String> {
        let plan = crate::plan::plan_select(q, &self.plan_ctx(), &Default::default())?;
        // Subqueries are annotated with their predicted memo strategy, and
        // each clause with its predicted evaluation mode: [VEC] or
        // [ROW(<reason>)].
        let vec = if self.eval_mode == EvalMode::RowAtATime {
            crate::plan::VecNote::Disabled("row-at-a-time eval mode")
        } else {
            crate::plan::VecNote::Predict {
                bugs: &self.bugs,
                dialect: self.dialect,
            }
        };
        crate::plan::explain_full(&plan, Some(&self.catalog), vec)
    }

    /// Statically verify a SELECT's physical plan against the engine's
    /// plan invariants ([`crate::validate`]) without executing a row.
    /// Planning consults the active bug registry, so a planner mutant's
    /// corruption shows up in the returned violations; a clean engine
    /// must always return an empty list.
    pub fn verify_select(&self, q: &crate::ast::Select) -> Result<Vec<crate::validate::Violation>> {
        let plan = crate::plan::plan_select(q, &self.plan_ctx(), &Default::default())?;
        Ok(crate::validate::validate_plan(&plan, &self.catalog))
    }

    /// Parse and explain a single SELECT.
    pub fn explain_sql(&mut self, sql: &str) -> Result<String> {
        let q = crate::parser::parse_select(sql)?;
        self.explain(&q)
    }

    /// Parse a single SELECT from SQL text and run it.
    pub fn query_sql(&mut self, sql: &str) -> Result<Relation> {
        let stmts = crate::parser::parse_statements(sql)?;
        match stmts.as_slice() {
            [Statement::Select(q)] => self.query(q),
            _ => Err(Error::Parse("expected exactly one SELECT statement".into())),
        }
    }

    /// Plan an UPDATE/DELETE's WHERE clause and access path. With the
    /// optimizer on, the predicate runs through the same constant-folding
    /// pass as SELECT filters (a real planner folds all three identically;
    /// the paper's §4.2 oracle analysis relies on that consistency), and
    /// the table is reached by the index seek the SELECT rule
    /// ([`crate::plan::select_seek`]) picks for that predicate, if any.
    fn plan_dml(
        &self,
        table: &str,
        where_clause: Option<&crate::ast::Expr>,
        optimize: bool,
    ) -> Result<(Option<crate::ast::Expr>, FromPlan)> {
        let scan = FromPlan::SeqScan {
            table: table.to_string(),
            alias: table.to_string(),
        };
        if !optimize {
            return Ok((where_clause.cloned(), scan));
        }
        let pctx = self.plan_ctx();
        let w = where_clause
            .map(|w| crate::plan::fold_dml_predicate(w.clone(), &pctx))
            .transpose()?;
        let access = crate::plan::select_seek(scan, w.as_ref(), &pctx);
        Ok((w, access))
    }

    // Statement accounting happens in the callers (`execute_with`,
    // `query`, `query_unoptimized`) so a SELECT through `execute()` is
    // counted exactly once.
    fn run_select(&mut self, q: &crate::ast::Select, optimize: bool) -> Result<Relation> {
        let (rel, fp) =
            self.with_stmt_ctx(optimize, StmtKind::Select, |ctx| exec::run_query(q, ctx))?;
        self.last_plan_fp = Some(fp);
        Ok(rel)
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: &[String],
        source: &InsertSource,
        optimize: bool,
    ) -> Result<usize> {
        // Resolve the target column mapping first.
        let (col_indices, col_count, col_defs) = {
            let t = self.catalog.table(table)?;
            let defs = t.columns.clone();
            let indices: Vec<usize> = if columns.is_empty() {
                (0..defs.len()).collect()
            } else {
                columns
                    .iter()
                    .map(|c| {
                        t.column_index(c).ok_or_else(|| {
                            Error::Catalog(format!("no such column {c} in table {table}"))
                        })
                    })
                    .collect::<Result<_>>()?
            };
            (indices, defs.len(), defs)
        };

        // Evaluate the source rows.
        let source_rows = match source {
            InsertSource::Values(rows) => {
                self.coverage.hit(pt::EXEC_INSERT_VALUES);
                self.with_stmt_ctx(optimize, StmtKind::Insert, |ctx| {
                    let ctes = CteEnv::root();
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        let mut vals = Vec::with_capacity(row.len());
                        for e in row {
                            let env = EvalEnv {
                                ctx,
                                scopes: &[],
                                aggs: None,
                                ctes: &ctes,
                                info: ExprCtx::new(Clause::SelectList),
                            };
                            vals.push(eval_expr(e, env)?);
                        }
                        out.push(Row::new(vals));
                    }
                    Ok(out)
                })?
            }
            InsertSource::Query(q) => {
                self.coverage.hit(pt::EXEC_INSERT_SELECT);
                // Bug hook: TidbInsertSelectVersion (Listing 6) — the
                // SELECT's rows never reach the table when its WHERE calls
                // VERSION().
                let mut has_version = false;
                crate::ast::visit::walk_select_exprs(q, &mut |e| {
                    if matches!(
                        e,
                        crate::ast::Expr::Func {
                            func: crate::ast::FuncName::Version,
                            ..
                        }
                    ) {
                        has_version = true;
                    }
                });
                self.with_stmt_ctx(optimize, StmtKind::Insert, |ctx| {
                    let (rel, _) = exec::run_query(q, ctx)?;
                    Ok(
                        if has_version && ctx.bugs.active(BugId::TidbInsertSelectVersion) {
                            Vec::new()
                        } else {
                            rel.rows
                        },
                    )
                })?
            }
        };

        // Type-check and write.
        let mut staged = Vec::with_capacity(source_rows.len());
        for row in &source_rows {
            if row.len() != col_indices.len() {
                return Err(Error::Eval(format!(
                    "table {table} expects {} values, got {}",
                    col_indices.len(),
                    row.len()
                )));
            }
            let mut new_row: Vec<Value> = vec![Value::Null; col_count];
            for (v, &idx) in row.iter().zip(col_indices.iter()) {
                let def = &col_defs[idx];
                if self.dialect.strict_types() && !v.is_null() && !def.ty.accepts(v.data_type()) {
                    return Err(Error::Type(format!(
                        "cannot insert {} into column {} of type {}",
                        v.data_type(),
                        def.name,
                        def.ty
                    )));
                }
                new_row[idx] = v.clone();
            }
            for (i, def) in col_defs.iter().enumerate() {
                if def.not_null && new_row[i].is_null() {
                    return Err(Error::Eval(format!(
                        "NOT NULL constraint failed: {table}.{}",
                        def.name
                    )));
                }
            }
            staged.push(Row::new(new_row));
        }
        let n = staged.len();
        // Validation is complete: log each staged row, then the statement's
        // durability point. A zero-row INSERT still logs its commit marker
        // so the committed-statement count stays aligned with execution.
        // A refused append (disk full) aborts the statement *before* any
        // catalog mutation: nothing to roll back, the session keeps
        // serving, and recovery sees exactly the committed prefix.
        self.log_statement(staged.iter().map(|row| WalRecord::InsertRow {
            table: table.to_string(),
            row: row.to_vec(),
        }))?;
        self.catalog.append_rows(table, staged)?;
        Ok(n)
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, crate::ast::Expr)],
        where_clause: Option<&crate::ast::Expr>,
        access: &FromPlan,
    ) -> Result<usize> {
        let (matches, updates) = self.with_stmt_ctx(false, StmtKind::Update, |ctx| {
            let t = ctx.catalog.table(table)?;
            let schema = exec::table_schema(t, &t.name);
            let set_indices: Vec<usize> = sets
                .iter()
                .map(|(c, _)| {
                    t.column_index(c).ok_or_else(|| {
                        Error::Catalog(format!("no such column {c} in table {table}"))
                    })
                })
                .collect::<Result<_>>()?;

            // Bind the WHERE predicate, then every SET expression, once
            // per statement; the WHERE stage runs over every row before
            // any SET expression is evaluated, as in a SELECT.
            let pred = where_clause
                .map(|w| Prepared::new(w, &[], &schema, 0, ctx))
                .transpose()?;
            let set_exprs: Vec<Prepared> = sets
                .iter()
                .map(|(_, e)| Prepared::new(e, &[], &schema, 0, ctx))
                .collect::<Result<_>>()?;
            let matches = exec::dml_targets(t, &schema, access, pred.as_ref(), ctx)?;

            let ctes = CteEnv::root();
            let mut updates = Vec::with_capacity(matches.len());
            for &i in &matches {
                let frames = [Frame {
                    schema: &schema,
                    row: &t.rows[i],
                }];
                let mut cells = Vec::with_capacity(set_exprs.len());
                for (e, &c) in set_exprs.iter().zip(&set_indices) {
                    let env = EvalEnv {
                        ctx,
                        scopes: &frames,
                        aggs: None,
                        ctes: &ctes,
                        info: ExprCtx::new(Clause::SelectList),
                    };
                    cells.push((c, e.eval(env)?));
                }
                updates.push(cells);
            }
            Ok((matches, updates))
        })?;

        self.coverage.hit(if matches.is_empty() {
            pt::EXEC_UPDATE_NOMATCH
        } else {
            pt::EXEC_UPDATE_MATCH
        });
        let record = |(&i, cells): (&usize, &Vec<(usize, Value)>)| WalRecord::UpdateRow {
            table: table.to_string(),
            row_idx: i as u64,
            cols: cells.iter().map(|&(c, _)| c as u32).collect(),
            vals: cells.iter().map(|(_, v)| v.clone()).collect(),
        };
        self.log_statement(matches.iter().zip(&updates).map(record))?;
        // Bug hook: StaleEntryAfterUpdate — the ordered index keeps the
        // pre-update key entries (and misses the new ones).
        let stale = self.bugs.active(IndexBugId::StaleEntryAfterUpdate);
        for (&i, cells) in matches.iter().zip(updates) {
            self.catalog.set_cells(table, i, cells, !stale)?;
        }
        Ok(matches.len())
    }

    fn run_delete(
        &mut self,
        table: &str,
        where_clause: Option<&crate::ast::Expr>,
        access: &FromPlan,
    ) -> Result<usize> {
        let matches = self.with_stmt_ctx(false, StmtKind::Delete, |ctx| {
            let t = ctx.catalog.table(table)?;
            let schema = exec::table_schema(t, &t.name);
            let pred = where_clause
                .map(|w| Prepared::new(w, &[], &schema, 0, ctx))
                .transpose()?;
            exec::dml_targets(t, &schema, access, pred.as_ref(), ctx)
        })?;
        self.coverage.hit(if matches.is_empty() {
            pt::EXEC_DELETE_NOMATCH
        } else {
            pt::EXEC_DELETE_MATCH
        });
        let record = || WalRecord::DeleteRows {
            table: table.to_string(),
            rows: matches.iter().map(|&i| i as u64).collect(),
        };
        self.log_statement((!matches.is_empty()).then(record))?;
        self.catalog.remove_rows(table, &matches)?;
        Ok(matches.len())
    }
}

/// Exact single-value rendering for [`Database::dump_state`]: `Real`
/// prints its raw bit pattern, so two states compare equal iff they are
/// bit-identical.
fn dump_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(n) => format!("i{n}"),
        Value::Real(r) => format!("r{:016x}", r.to_bits()),
        Value::Text(s) => format!("{s:?}"),
        Value::Bool(b) => b.to_string(),
    }
}
