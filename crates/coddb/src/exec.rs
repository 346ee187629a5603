//! Plan execution.
//!
//! A materializing executor: each operator produces a vector of shared
//! copy-on-write rows ([`Row`]). Scans are zero-copy — a base-table,
//! index or CTE scan hands out refcount bumps to storage instead of
//! cloning values — and cacheable FROM subtrees are materialized once
//! per statement and reused across a correlated subquery's
//! re-instantiations (`exec_from`). Joins with
//! planner-recognized equality keys run as build/probe hash joins over
//! bound key ordinals (`hash_join`), falling back to the nested loop
//! for non-equi predicates, mutant-forced ON rewrites, and runtime
//! key-class mixes where hash equality cannot reproduce SQL `=`.
//! Correlated subqueries receive the outer row scopes as a stack of
//! [`Frame`]s; their plans and bindings are compiled once per statement,
//! non-correlated results are memoized whole, and correlated results are
//! memoized per outer key — the runtime detector records exactly which
//! outer slots an evaluation read, and those slots' values key the memo
//! ([`exec_subquery`], `crate::cache`). CTEs are materialized once per
//! SELECT and shared through a chained [`CteEnv`]. A fuel counter bounds
//! total row work so that injected hang bugs (and any accidental
//! blow-ups) surface as [`Error::Hang`] instead of wedging a campaign.
//!
//! SELECT, UPDATE and DELETE share one WHERE stage (`where_stage`). Its
//! input is a FROM result or the rows of an ordered-index seek
//! (`seek_probe`, the access path `plan::select_seek` picks for the
//! WHERE clause). One set of kernels evaluates the clause over either
//! input (`apply_filter`: the filter-site mutant gate, then the
//! comparison fast path, the chunk kernel or the row loop); around a
//! seek's rows, `seek_filter` adds only a fuel and coverage ledger for
//! the rows the seek skipped. The kernels return the positions of the
//! rows they keep. A SELECT turns those positions into rows; UPDATE and
//! DELETE change the rows at those storage positions (`dml_targets`).

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::ast::{AggFunc, BinaryOp, Expr, JoinKind, Select, SelectItem, SetOp, SortOrder};
use crate::bind::{bind_join_keys, Binder, BoundExpr};
#[cfg(debug_assertions)]
use crate::bugs::ValidatorScope;
use crate::bugs::{BugId, BugRegistry, IndexBugId};
use crate::cache::{get_or_build, GroupedBindings, ProjBindings, StmtCaches, SubqEntry};
use crate::catalog::{Catalog, TableDef};
use crate::coverage::{pt, Coverage};
use crate::dialect::Dialect;
use crate::error::{Error, Result};
use crate::eval::{
    compute_aggregate, eval_bound, eval_expr, truthiness, AggValues, Clause, ExprCtx,
};
use crate::plan::{self, BodyPlan, CorePlan, FromPlan, PlanCtx, SelectPlan};
use crate::value::{OrdRow, OrdValue, Relation, Row, Value};

/// Physical join strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinMode {
    /// Hash join on recognized equality keys, nested loop otherwise
    /// (default).
    #[default]
    Auto,
    /// Force the nested loop everywhere — kept for differential testing
    /// of the hash-join path and as a benchmarking baseline.
    NestedLoop,
}

/// How clause expressions are evaluated over operator input rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Chunk-at-a-time vectorized kernels ([`crate::vec_eval`]) for
    /// classified-vectorizable expressions, with an exact per-chunk
    /// row-at-a-time fallback (default).
    #[default]
    Vectorized,
    /// Row-at-a-time interpretation everywhere — kept for differential
    /// testing of the vectorized path (`coddb/tests/eval_differential.rs`)
    /// and as the `vectorized_vs_row` benchmarking baseline.
    RowAtATime,
}

/// Which statement kind is executing (several mutants key on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    Select,
    Insert,
    Update,
    Delete,
}

/// Shared execution context for one statement.
pub struct EngineCtx<'a> {
    pub catalog: &'a Catalog,
    pub dialect: Dialect,
    pub bugs: &'a BugRegistry,
    pub cov: &'a Coverage,
    pub optimize: bool,
    pub stmt: StmtKind,
    /// Force nested-loop joins (see [`JoinMode::NestedLoop`]).
    pub force_nested_loop: bool,
    /// Baseline mode: execute `IndexSeek` nodes as full sequential scans
    /// (see [`crate::database::AccessMode::ScanOnly`]).
    pub scan_only: bool,
    /// Vectorized chunk evaluation enabled (see [`EvalMode`]).
    pub vectorize: bool,
    /// Reusable buffers for the vectorized kernels — one pool per
    /// statement, so chunk evaluation allocates O(1) buffers total.
    pub(crate) vec_pool: RefCell<crate::vec_eval::Pool>,
    fuel: Cell<u64>,
    /// Per-statement plan / binding / result caches.
    pub(crate) caches: StmtCaches,
    /// The innermost executing subquery's scope floor: frames strictly
    /// below it belong to outer queries. Column evaluation records every
    /// read below the floor in [`Self::outer_reads`] — the runtime
    /// correlation detector behind subquery result memoization. 0 (the
    /// top level, and [`Self::untracked`] regions) disables recording.
    pub(crate) outer_floor: Cell<usize>,
    /// Outer slots `(absolute frame index, column ordinal)` read since
    /// the innermost [`exec_subquery`] swap — deduplicated, tiny.
    pub(crate) outer_reads: RefCell<Vec<(u32, u32)>>,
    /// Statement-scoped subquery memo accounting (full + keyed hits vs.
    /// executions), surfaced through `Database::subquery_memo_stats`.
    pub(crate) subq_memo_hits: Cell<u64>,
    pub(crate) subq_memo_misses: Cell<u64>,
}

impl<'a> EngineCtx<'a> {
    pub fn new(
        catalog: &'a Catalog,
        dialect: Dialect,
        bugs: &'a BugRegistry,
        cov: &'a Coverage,
        optimize: bool,
        stmt: StmtKind,
        fuel: u64,
    ) -> Self {
        EngineCtx {
            catalog,
            dialect,
            bugs,
            cov,
            optimize,
            stmt,
            force_nested_loop: false,
            scan_only: false,
            vectorize: true,
            vec_pool: RefCell::new(crate::vec_eval::Pool::default()),
            fuel: Cell::new(fuel),
            caches: StmtCaches::default(),
            outer_floor: Cell::new(0),
            outer_reads: RefCell::new(Vec::new()),
            subq_memo_hits: Cell::new(0),
            subq_memo_misses: Cell::new(0),
        }
    }

    /// Record a column read at absolute frame index `fi`: below the
    /// current subquery's scope floor it is an outer read and enters the
    /// correlation detector's slot set. The floor comparison is the whole
    /// hot-path cost — outside subqueries the floor is 0 and nothing
    /// records.
    #[inline]
    pub(crate) fn note_column_read(&self, fi: usize, index: usize) {
        if fi < self.outer_floor.get() {
            let mut reads = self.outer_reads.borrow_mut();
            let slot = (fi as u32, index as u32);
            if !reads.contains(&slot) {
                reads.push(slot);
            }
        }
    }

    /// Fuel still available (the chunked paths check the budget covers a
    /// whole chunk before charging it, so exhaustion mid-chunk falls back
    /// to the per-row loop and hangs at exactly the scalar row).
    #[inline]
    pub(crate) fn fuel_left(&self) -> u64 {
        self.fuel.get()
    }

    /// Spend `n` units of row work; exceeding the budget is a hang.
    #[inline]
    pub fn consume_fuel(&self, n: u64) -> Result<()> {
        let left = self.fuel.get();
        if left < n {
            return Err(Error::Hang);
        }
        self.fuel.set(left - n);
        Ok(())
    }

    /// Spend `n` units of row work one row at a time, as a row loop does:
    /// when the budget runs out partway, the rows before that point are
    /// still charged, so the fuel drains to zero before the hang.
    #[inline]
    pub(crate) fn drain_fuel(&self, n: u64) -> Result<()> {
        let left = self.fuel.get();
        if left < n {
            self.fuel.set(0);
            return Err(Error::Hang);
        }
        self.fuel.set(left - n);
        Ok(())
    }

    /// May a binding built at this subquery depth enter the pointer-keyed
    /// caches? Depth-0 operators execute exactly once per statement (only
    /// `exec_subquery` re-enters execution, and it bumps the depth), so
    /// caching them is pure overhead.
    pub(crate) fn bindings_cacheable(&self, depth: u32) -> bool {
        depth > 0
    }

    /// Run `f` with the correlation tracker suspended. FROM-clause
    /// internals (join keys and ON predicates, pushed filters, index
    /// expressions, derived tables, CTE bodies) evaluate on *rootless*
    /// frame stacks that do not contain the enclosing subquery's outer
    /// frames — their frame indexes start at 0, so counting them would
    /// falsely mark the subquery correlated. They also *cannot* read
    /// outer frames (not in scope), so dropping their observations is
    /// exact; any nested subquery inside re-arms the tracker for its own
    /// scope before its own memoization decision.
    pub(crate) fn untracked<T>(&self, f: impl FnOnce() -> T) -> T {
        let prev = self.outer_floor.replace(0);
        let out = f();
        self.outer_floor.set(prev);
        out
    }

    pub fn plan_ctx(&self) -> PlanCtx<'a> {
        PlanCtx {
            catalog: self.catalog,
            dialect: self.dialect,
            bugs: self.bugs,
            cov: self.cov,
            optimize: self.optimize,
        }
    }
}

/// Metadata of one output column of a relation in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMeta {
    /// Qualifying alias (lowercase), if any.
    pub table: Option<String>,
    /// Column name (lowercase).
    pub name: String,
    /// True when the column came from an expanded view.
    pub from_view: bool,
    /// True when the column came from a CTE scan.
    pub from_cte: bool,
}

impl ColMeta {
    /// Case-normalize names once, at schema construction — the binder and
    /// the legacy by-name lookup both rely on `table`/`name` being
    /// lowercase so per-lookup comparisons never allocate.
    pub fn new(table: Option<&str>, name: &str) -> ColMeta {
        ColMeta {
            table: table.map(str::to_ascii_lowercase),
            name: name.to_ascii_lowercase(),
            from_view: false,
            from_cte: false,
        }
    }

    pub fn from_view(mut self, from_view: bool) -> ColMeta {
        self.from_view = from_view;
        self
    }

    pub fn from_cte(mut self, from_cte: bool) -> ColMeta {
        self.from_cte = from_cte;
        self
    }
}

/// Schema of a relation in flight.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    pub cols: Vec<ColMeta>,
}

impl Schema {
    fn concat(mut self, other: Schema) -> Schema {
        self.cols.extend(other.cols);
        self
    }
}

/// One visible row scope (innermost scope is the last frame).
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    pub schema: &'a Schema,
    pub row: &'a [Value],
}

/// Materialized CTEs visible to the current query, chained to enclosing
/// queries' CTEs.
pub struct CteEnv<'a> {
    parent: Option<&'a CteEnv<'a>>,
    entries: Vec<(String, Rc<CteData>)>,
}

/// A materialized CTE.
pub struct CteData {
    pub columns: Vec<String>,
    pub rel: Relation,
    reads: Cell<u32>,
}

impl CteEnv<'static> {
    pub fn root() -> Self {
        CteEnv {
            parent: None,
            entries: Vec::new(),
        }
    }
}

impl<'a> CteEnv<'a> {
    fn lookup(&self, name: &str) -> Option<Rc<CteData>> {
        for (n, data) in self.entries.iter().rev() {
            if n == name {
                return Some(Rc::clone(data));
            }
        }
        self.parent.and_then(|p| p.lookup(name))
    }

    /// All visible CTE names (used to seed subquery planning).
    pub fn names(&self) -> std::collections::BTreeSet<String> {
        let mut out = self.parent.map(|p| p.names()).unwrap_or_default();
        out.extend(self.entries.iter().map(|(n, _)| n.clone()));
        out
    }

    /// True when no CTE is visible anywhere up the chain (the common
    /// case — lets cache verification skip name comparison entirely).
    pub fn is_empty_chain(&self) -> bool {
        self.entries.is_empty() && self.parent.is_none_or(|p| p.is_empty_chain())
    }

    /// Is `name` visible in this environment?
    fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name) || self.parent.is_some_and(|p| p.contains(name))
    }

    /// Is every visible name contained in `names`?
    fn names_subset_of(&self, names: &std::collections::BTreeSet<String>) -> bool {
        self.entries.iter().all(|(n, _)| names.contains(n))
            && self.parent.is_none_or(|p| p.names_subset_of(names))
    }
}

/// Evaluation environment handed to the expression evaluator.
#[derive(Clone, Copy)]
pub struct EvalEnv<'a> {
    pub ctx: &'a EngineCtx<'a>,
    pub scopes: &'a [Frame<'a>],
    pub aggs: Option<&'a AggValues>,
    pub ctes: &'a CteEnv<'a>,
    pub info: ExprCtx,
}

impl<'a> EvalEnv<'a> {
    /// Environment for child sub-expressions (clears `top_level`).
    pub fn child(self) -> Self {
        EvalEnv {
            info: self.info.child(),
            ..self
        }
    }
}

/// A clause expression compiled once per *statement*: the AST is kept
/// (borrowed — operator inputs outlive their row loops) for the
/// shape-sensitive bug hooks and the vectorization classifier, the bound
/// form is what the row loop and the chunk kernels evaluate. The bound
/// form is shared through the per-statement binding cache, so a
/// subquery's clause expressions are not re-bound for every outer-row
/// re-instantiation of its operators.
pub(crate) struct Prepared<'p> {
    ast: &'p Expr,
    bound: Rc<BoundExpr>,
}

impl<'p> Prepared<'p> {
    /// Bind `expr` against the scope stack (outermost schema first),
    /// reusing the statement's binding cache when possible. Cache keys
    /// are expression addresses: sound because every expression routed
    /// through here lives for the whole statement (statement AST, catalog
    /// index expressions, the executing plan, or a plan retained by the
    /// subquery cache — see [`crate::cache`]), and because a given
    /// expression site always binds against the same scope schemas within
    /// one statement. Binding decides nothing about vectorization: call
    /// sites ask the classifier about the clause's AST ([`vectorizable`]).
    pub(crate) fn new(
        expr: &'p Expr,
        scopes: &[&Schema],
        depth: u32,
        ctx: &EngineCtx,
    ) -> Result<Prepared<'p>> {
        let bound = get_or_build(
            &ctx.caches.bound,
            ctx.bindings_cacheable(depth),
            expr as *const Expr as usize,
            || {
                let mut binder = Binder::new(scopes, depth);
                Ok(Rc::new(binder.bind(expr)?))
            },
        )?;
        // Debug builds verify every bound clause at the bind seam: scope
        // hops and ordinals in bounds, and no aggregate slots (this path
        // rejects aggregates). Clean engines only — mutant behavior is
        // the campaign's business. The gate records no consult; it can
        // change a replay's verdict only when the clean engine fails this
        // validator.
        #[cfg(debug_assertions)]
        if ctx.bugs.validator_gate(ValidatorScope::AnyMutant) {
            let violations = crate::validate::validate_bound(&bound, scopes, None);
            assert!(
                violations.is_empty(),
                "binder produced an out-of-bounds form for `{expr}`: {violations:?}"
            );
        }
        Ok(Prepared { bound, ast: expr })
    }

    /// Wrap an already-bound form (used by the cached projection path).
    pub(crate) fn from_bound(ast: &'p Expr, bound: Rc<BoundExpr>) -> Prepared<'p> {
        Prepared { ast, bound }
    }

    pub(crate) fn ast(&self) -> &Expr {
        self.ast
    }

    pub(crate) fn bound(&self) -> &BoundExpr {
        &self.bound
    }

    /// Evaluate for one row: a bound-form walk with zero name resolution.
    #[inline]
    pub(crate) fn eval(&self, env: EvalEnv) -> Result<Value> {
        eval_bound(&self.bound, env)
    }
}

/// May the clause expression `e`, at subquery depth `depth`, take the
/// vectorized path? The question `EXPLAIN` asks too
/// ([`crate::vec_eval::classify`]).
fn vectorizable(e: &Expr, ctx: &EngineCtx, depth: u32) -> bool {
    crate::vec_eval::classify(e, ctx.bugs, ctx.dialect, ctx.stmt, depth).is_ok()
}

/// Scope schemas for binding: the schemas of the outer frames plus the
/// local schema, outermost first.
fn bind_scopes<'a>(outer_scopes: &'a [Frame<'a>], local: &'a Schema) -> Vec<&'a Schema> {
    let mut scopes: Vec<&Schema> = Vec::with_capacity(outer_scopes.len() + 1);
    scopes.extend(outer_scopes.iter().map(|f| f.schema));
    scopes.push(local);
    scopes
}

/// A reusable frame stack: the outer frames plus one local slot that
/// [`set_local_row`] repoints per row — no per-row allocation.
fn frame_stack<'a>(outer_scopes: &'a [Frame<'a>], local: &'a Schema) -> Vec<Frame<'a>> {
    let mut frames = Vec::with_capacity(outer_scopes.len() + 1);
    frames.extend_from_slice(outer_scopes);
    frames.push(Frame {
        schema: local,
        row: &[],
    });
    frames
}

#[inline]
fn set_local_row<'a>(frames: &mut [Frame<'a>], schema: &'a Schema, row: &'a [Value]) {
    *frames.last_mut().expect("frame stack has a local slot") = Frame { schema, row };
}

/// Execute a subquery from inside expression evaluation, with the current
/// scopes as outer context.
///
/// The subquery's plan is compiled once per statement (keyed by AST
/// identity, verified structurally — see `crate::cache`). Result
/// memoization is two-tier, driven by the runtime correlation detector:
///
/// * an evaluation that reads **no** outer column proves the subquery
///   non-correlated — its full result relation is memoized and every
///   later evaluation within the statement returns the shared relation;
/// * an evaluation that reads outer columns records exactly **which**
///   slots it read, and the result is memoized keyed by those slots'
///   values — a correlated subquery over K distinct outer keys executes
///   K times, not once per outer row. A keyed hit is sound because a
///   deterministic execution that agrees with the cached one on every
///   value it actually read must follow the identical path (including
///   reads redirected by the name-collision mutant, which the detector
///   tracks at the load site and therefore folds into the key).
pub fn exec_subquery(query: &Rc<Select>, env: EvalEnv) -> Result<Rc<Relation>> {
    let ctx = env.ctx;
    let entry = match ctx
        .caches
        .subq_get(query)
        .filter(|e| cte_env_matches(&e.cte_names, env.ctes))
    {
        Some(entry) => {
            ctx.cov.hit(pt::EXEC_SUBQ_PLAN_HIT);
            entry
        }
        None => {
            let pctx = ctx.plan_ctx();
            let cte_names = env.ctes.names();
            let plan = Rc::new(plan::plan_select(query, &pctx, &cte_names)?);
            let entry = Rc::new(SubqEntry::new(Rc::clone(query), cte_names, plan));
            ctx.caches.subq_insert(Rc::clone(&entry));
            entry
        }
    };

    if let Some(rel) = entry.result.borrow().clone() {
        ctx.cov.hit(pt::EXEC_SUBQ_RESULT_HIT);
        ctx.subq_memo_hits.set(ctx.subq_memo_hits.get() + 1);
        return Ok(rel);
    }

    // Keyed memo: a previous execution read exactly some outer slot set;
    // if the current outer rows carry the same values in those slots, the
    // cached result is the answer. The slots the cached execution read
    // still count as reads for the *enclosing* subquery's detector.
    if let Some(rel) = entry.keyed_lookup(env.scopes, |fi, ci| {
        ctx.note_column_read(fi as usize, ci as usize)
    }) {
        ctx.cov.hit(pt::EXEC_SUBQ_KEYED_HIT);
        ctx.subq_memo_hits.set(ctx.subq_memo_hits.get() + 1);
        return Ok(rel);
    }

    // Execute, recording every read below this subquery's scope floor
    // (column evaluation tracks the frames it touches — including reads
    // redirected by the name-collision mutant).
    let floor = env.scopes.len();
    let prev_floor = ctx.outer_floor.replace(floor);
    let prev_reads = ctx.outer_reads.take();
    let out = exec_select_plan(&entry.plan, ctx, env.ctes, env.scopes, env.info.depth + 1);
    let observed = ctx.outer_reads.replace(prev_reads);
    ctx.outer_floor.set(prev_floor);
    // Propagate outer reads to the enclosing subquery's detector (its
    // floor check drops reads that are local to it).
    for &(fi, ci) in &observed {
        ctx.note_column_read(fi as usize, ci as usize);
    }
    let rel = Rc::new(out?);
    ctx.subq_memo_misses.set(ctx.subq_memo_misses.get() + 1);
    if observed.is_empty() {
        // No outer column read: a deterministic function of table state,
        // which cannot change within the statement — memoize fully.
        *entry.result.borrow_mut() = Some(Rc::clone(&rel));
    } else {
        entry.keyed_insert(observed, env.scopes, Rc::clone(&rel));
    }
    Ok(rel)
}

/// Does the CTE-name snapshot a cached subquery plan was compiled under
/// still describe the current environment? Compares name *sets* (chain
/// shadowing collapses, exactly like [`CteEnv::names`]) without
/// allocating — this runs on every subquery evaluation, including
/// result-memo hits of per-outer-row correlated subqueries.
fn cte_env_matches(names: &std::collections::BTreeSet<String>, env: &CteEnv) -> bool {
    if names.is_empty() {
        return env.is_empty_chain();
    }
    env.names_subset_of(names) && names.iter().all(|n| env.contains(n))
}

/// Plan and execute a top-level SELECT; returns the result and the plan
/// fingerprint (Table 3's "unique query plans" metric).
pub fn run_query(select: &Select, ctx: &EngineCtx) -> Result<(Relation, u64)> {
    let pctx = ctx.plan_ctx();
    let plan = plan::plan_select(select, &pctx, &std::collections::BTreeSet::new())?;
    let fp = plan::fingerprint(&plan);
    let root = CteEnv::root();
    let rel = exec_select_plan(&plan, ctx, &root, &[], 0)?;
    Ok((rel, fp))
}

/// Execute a planned SELECT.
pub fn exec_select_plan(
    plan: &SelectPlan,
    ctx: &EngineCtx,
    outer_ctes: &CteEnv,
    outer_scopes: &[Frame],
    depth: u32,
) -> Result<Relation> {
    // Materialize CTEs in definition order; each sees its predecessors.
    let mut local: Vec<(String, Rc<CteData>)> = Vec::with_capacity(plan.ctes.len());
    for (name, columns, cte_plan) in &plan.ctes {
        let env = CteEnv {
            parent: Some(outer_ctes),
            entries: local.clone(),
        };
        ctx.cov.hit(pt::EXEC_CTE_EVAL);
        let rel = ctx.untracked(|| exec_select_plan(cte_plan, ctx, &env, &[], depth))?;
        let cols = if columns.is_empty() {
            rel.columns.clone()
        } else {
            if columns.len() != rel.columns.len() {
                return Err(Error::Catalog(format!(
                    "CTE {name} declares {} columns but its query returns {}",
                    columns.len(),
                    rel.columns.len()
                )));
            }
            columns.iter().map(|c| c.to_ascii_lowercase()).collect()
        };
        local.push((
            name.clone(),
            Rc::new(CteData {
                columns: cols,
                rel,
                reads: Cell::new(0),
            }),
        ));
    }
    let ctes = CteEnv {
        parent: Some(outer_ctes),
        entries: local,
    };

    // Bug hook: TidbInternalSetOpOrderBy.
    if matches!(plan.body, BodyPlan::SetOp { .. })
        && plan
            .order_by
            .iter()
            .any(|o| matches!(o.expr, Expr::Literal(Value::Int(_))))
        && ctx.bugs.active(BugId::TidbInternalSetOpOrderBy)
    {
        return Err(Error::Internal(
            "cannot resolve positional ORDER BY over set operation".into(),
        ));
    }

    let (mut rel, pre_rows, pre_from) = exec_body(&plan.body, ctx, &ctes, outer_scopes, depth)?;

    // ORDER BY. When the FROM result is an index seek that ran in key
    // order (`SeekInfo::ordered` — the *runtime* signal, absent whenever
    // the exactness gate or ScanOnly mode fell back to a plain scan),
    // the rows already carry the planner-proven output order and the
    // sort is skipped. `sort_relation` charges no fuel and the
    // branch-point bit is hit either way, so the elimination is
    // observation-free.
    if !plan.order_by.is_empty() {
        ctx.cov.hit(pt::EXEC_SORT);
        let pre_ordered = pre_from
            .as_ref()
            .and_then(|f| f.seek.as_ref())
            .is_some_and(|s| s.ordered);
        if !pre_ordered {
            sort_relation(
                &mut rel,
                pre_rows,
                pre_from.as_ref().map(|f| &f.schema),
                plan,
                ctx,
                &ctes,
                outer_scopes,
                depth,
            )?;
        }
    }

    // OFFSET / LIMIT.
    if let Some(off) = &plan.offset {
        ctx.cov.hit(pt::EXEC_OFFSET);
        let n = eval_limit_operand(off, ctx, &ctes, outer_scopes, depth, "OFFSET")?;
        rel.rows.drain(..n.min(rel.rows.len()));
    }
    if let Some(lim) = &plan.limit {
        ctx.cov.hit(pt::EXEC_LIMIT);
        let n = eval_limit_operand(lim, ctx, &ctes, outer_scopes, depth, "LIMIT")?;
        rel.rows.truncate(n);
    }

    if rel.rows.is_empty() {
        ctx.cov.hit(pt::EXEC_EMPTY_RELATION);
    }
    Ok(rel)
}

fn eval_limit_operand(
    e: &Expr,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    outer_scopes: &[Frame],
    depth: u32,
    what: &str,
) -> Result<usize> {
    let env = EvalEnv {
        ctx,
        scopes: outer_scopes,
        aggs: None,
        ctes,
        info: ExprCtx {
            depth,
            ..ExprCtx::new(Clause::Limit)
        },
    };
    let v = eval_expr(e, env)?;
    match v.as_i64() {
        Some(n) if n >= 0 => Ok(n as usize),
        Some(_) => Ok(0),
        None => Err(Error::Eval(format!("{what} must be an integer"))),
    }
}

/// How one ORDER BY item produces its sort key; decided once per sort.
enum SortKey<'p> {
    /// `ORDER BY 2` — positional reference into the output row.
    Positional(usize),
    /// A bare column naming an output column (alias match).
    Output(usize),
    /// An expression bound against the pre-projection scope.
    Expr(Prepared<'p>),
}

#[allow(clippy::too_many_arguments)]
fn sort_relation<'p>(
    rel: &mut Relation,
    pre_rows: Option<Vec<Row>>,
    pre_schema: Option<&Schema>,
    plan: &'p SelectPlan,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    outer_scopes: &[Frame],
    depth: u32,
) -> Result<()> {
    if rel.rows.is_empty() {
        return Ok(());
    }

    // Classify and bind each key once.
    let mut key_sources: Vec<(SortKey, bool)> = Vec::with_capacity(plan.order_by.len());
    for item in &plan.order_by {
        let desc = item.order == SortOrder::Desc;
        let prepare_expr = |e: &'p Expr| -> Result<SortKey<'p>> {
            match pre_schema {
                Some(schema) => {
                    let scopes = bind_scopes(outer_scopes, schema);
                    Ok(SortKey::Expr(Prepared::new(e, &scopes, depth, ctx)?))
                }
                None => Err(Error::Eval(format!(
                    "cannot resolve ORDER BY expression {e}"
                ))),
            }
        };
        let src = match &item.expr {
            Expr::Literal(Value::Int(k)) => {
                ctx.cov.hit(pt::EXEC_SORT_POSITIONAL);
                let idx = (*k - 1) as usize;
                if *k < 1 || idx >= rel.columns.len() {
                    return Err(Error::Eval(format!(
                        "ORDER BY position {k} is out of range"
                    )));
                }
                SortKey::Positional(idx)
            }
            Expr::Column(c) if c.table.is_none() => {
                // Prefer an output-column (alias) match, then fall back
                // to the pre-projection scope.
                match rel
                    .columns
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(&c.column))
                {
                    Some(idx) => SortKey::Output(idx),
                    None => prepare_expr(&item.expr)?,
                }
            }
            e => prepare_expr(e)?,
        };
        key_sources.push((src, desc));
    }

    // Compute sort keys per output row.
    let mut keyed: Vec<(Vec<(OrdValue, bool)>, Row)> = Vec::with_capacity(rel.rows.len());
    {
        let mut frames = match pre_schema {
            Some(schema) => frame_stack(outer_scopes, schema),
            None => Vec::new(),
        };
        for (i, row) in rel.rows.iter().enumerate() {
            let mut keys = Vec::with_capacity(key_sources.len());
            for (src, desc) in &key_sources {
                let v = match src {
                    SortKey::Positional(idx) | SortKey::Output(idx) => row[*idx].clone(),
                    SortKey::Expr(prepared) => match (&pre_rows, pre_schema) {
                        (Some(rows), Some(schema)) if i < rows.len() => {
                            set_local_row(&mut frames, schema, &rows[i]);
                            let env = EvalEnv {
                                ctx,
                                scopes: &frames,
                                aggs: None,
                                ctes,
                                info: ExprCtx {
                                    depth,
                                    ..ExprCtx::new(Clause::OrderBy)
                                },
                            };
                            prepared.eval(env)?
                        }
                        _ => {
                            return Err(Error::Eval(format!(
                                "cannot resolve ORDER BY expression {}",
                                prepared.ast()
                            )))
                        }
                    },
                };
                keys.push((OrdValue(v), *desc));
            }
            keyed.push((keys, row.clone()));
        }
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for ((a, desc), (b, _)) in ka.iter().zip(kb.iter()) {
            let ord = a.cmp(b);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rel.rows = keyed.into_iter().map(|(_, r)| r).collect();
    Ok(())
}

/// A body's output: the relation plus, when available, the pre-projection
/// rows and FROM result (whose schema ORDER BY expressions bind against).
type BodyOutput = (Relation, Option<Vec<Row>>, Option<Rc<FromResult>>);

/// Execute a body plan.
fn exec_body(
    body: &BodyPlan,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    outer_scopes: &[Frame],
    depth: u32,
) -> Result<BodyOutput> {
    match body {
        BodyPlan::Core(core) => exec_core(core, ctx, ctes, outer_scopes, depth),
        BodyPlan::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let (l, _, _) = exec_body(left, ctx, ctes, outer_scopes, depth)?;
            let (r, _, _) = exec_body(right, ctx, ctes, outer_scopes, depth)?;
            let rel = exec_set_op(*op, *all, l, r, ctx, left, right)?;
            Ok((rel, None, None))
        }
        BodyPlan::Values(rows) => {
            ctx.cov.hit(pt::EXEC_VALUES_ROWS);
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                ctx.consume_fuel(1)?;
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    let env = EvalEnv {
                        ctx,
                        scopes: outer_scopes,
                        aggs: None,
                        ctes,
                        info: ExprCtx {
                            depth,
                            ..ExprCtx::new(Clause::SelectList)
                        },
                    };
                    vals.push(eval_expr(e, env)?);
                }
                out.push(Row::new(vals));
            }
            let arity = rows.first().map(|r| r.len()).unwrap_or(0);
            let columns = (1..=arity).map(|i| format!("column{i}")).collect();
            Ok((Relation { columns, rows: out }, None, None))
        }
    }
}

fn core_is_distinct(body: &BodyPlan) -> bool {
    match body {
        BodyPlan::Core(c) => c.distinct,
        BodyPlan::SetOp { left, right, .. } => core_is_distinct(left) || core_is_distinct(right),
        BodyPlan::Values(_) => false,
    }
}

fn exec_set_op(
    op: SetOp,
    all: bool,
    left: Relation,
    right: Relation,
    ctx: &EngineCtx,
    left_body: &BodyPlan,
    right_body: &BodyPlan,
) -> Result<Relation> {
    if !left.rows.is_empty() && !right.rows.is_empty() && left.columns.len() != right.columns.len()
    {
        return Err(Error::Eval(format!(
            "SELECTs to the left and right of {} do not have the same number of result columns",
            op.sql_name()
        )));
    }
    // Bug hook: MysqlInternalUnionTypeUnify.
    if ctx.bugs.active(BugId::MysqlInternalUnionTypeUnify) && op == SetOp::Union {
        let lt = left.column_types();
        let rt = right.column_types();
        let clash = lt.iter().zip(rt.iter()).any(|(a, b)| {
            matches!(
                (a, b),
                (crate::value::DataType::Int, crate::value::DataType::Text)
                    | (crate::value::DataType::Text, crate::value::DataType::Int)
            )
        });
        if clash {
            return Err(Error::Internal("failed to unify UNION column types".into()));
        }
    }
    // Bug hook: DuckdbHangDistinctUnion.
    if ctx.bugs.active(BugId::DuckdbHangDistinctUnion)
        && op == SetOp::Union
        && !all
        && (core_is_distinct(left_body) || core_is_distinct(right_body))
    {
        return Err(Error::Hang);
    }
    // Bug hook: CockroachInternalIntersectNull.
    if ctx.bugs.active(BugId::CockroachInternalIntersectNull)
        && op == SetOp::Intersect
        && (left.rows.iter().any(|r| r.iter().any(Value::is_null))
            || right.rows.iter().any(|r| r.iter().any(Value::is_null)))
    {
        return Err(Error::Internal(
            "NULL row reached INTERSECT hash table".into(),
        ));
    }

    ctx.consume_fuel((left.rows.len() + right.rows.len()) as u64)?;
    let columns = if left.columns.is_empty() {
        right.columns.clone()
    } else {
        left.columns.clone()
    };
    let rows = match (op, all) {
        (SetOp::Union, true) => {
            ctx.cov.hit(pt::EXEC_UNION_ALL);
            let mut rows = left.rows;
            rows.extend(right.rows);
            rows
        }
        (SetOp::Union, false) => {
            ctx.cov.hit(pt::EXEC_UNION);
            let mut rows = left.rows;
            rows.extend(right.rows);
            dedup_rows(rows)
        }
        (SetOp::Intersect, _) => {
            ctx.cov.hit(pt::EXEC_INTERSECT);
            let rset: std::collections::BTreeSet<OrdRow> =
                right.rows.into_iter().map(OrdRow).collect();
            let rows: Vec<Row> = left
                .rows
                .into_iter()
                .filter(|r| rset.contains(&OrdRow(r.clone())))
                .collect();
            dedup_rows(rows)
        }
        (SetOp::Except, _) => {
            ctx.cov.hit(pt::EXEC_EXCEPT);
            let rset: std::collections::BTreeSet<OrdRow> =
                right.rows.into_iter().map(OrdRow).collect();
            let rows: Vec<Row> = left
                .rows
                .into_iter()
                .filter(|r| !rset.contains(&OrdRow(r.clone())))
                .collect();
            dedup_rows(rows)
        }
    };
    Ok(Relation { columns, rows })
}

fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if seen.insert(OrdRow(r.clone())) {
            out.push(r);
        }
    }
    out
}

/// Runtime record of an executed index seek, consumed by [`exec_core`]'s
/// WHERE stage for coverage/fuel parity with the ScanOnly baseline (see
/// [`seek_filter`]).
#[derive(Clone)]
pub(crate) struct SeekInfo {
    /// Storage positions of the emitted rows, aligned with the result
    /// rows (ascending when the seek is unordered).
    positions: Vec<usize>,
    /// Table row count at seek time (`positions.len()` + skipped rows).
    total: usize,
    /// Catalog name of the seeked index — [`seek_filter`] computes the
    /// skipped-class representatives from it on demand, exact or lazy
    /// depending on which charging regime the baseline filter would use.
    index: String,
    /// Key-column ordinals of that index (for synthetic rep rows).
    key_cols: Vec<usize>,
    /// The consumed equality probes, post bug hooks.
    eq: Vec<Value>,
    /// The consumed range probe, post bug hooks.
    range_probe: Option<(BinaryOp, Value)>,
    /// Rows arrived in index-key order: the ORDER BY sort may be skipped.
    ordered: bool,
    /// Bug hook [`IndexBugId::PrefixSeekIgnoresResidual`]: the WHERE
    /// stage (wrongly) trusts the seek output wholesale.
    filter_suppressed: bool,
}

/// Result of executing a FROM clause. Shared (behind `Rc`) across
/// operator re-instantiations via the per-statement FROM-result cache —
/// rows are [`Row`]-shared, so a reuse is a refcount bump per row.
#[derive(Clone)]
pub(crate) struct FromResult {
    schema: Schema,
    rows: Vec<Row>,
    /// `Some` when the rows came from an executed index seek.
    seek: Option<SeekInfo>,
}

fn exec_core(
    core: &CorePlan,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    outer_scopes: &[Frame],
    depth: u32,
) -> Result<BodyOutput> {
    // Hang hooks keyed on FROM shape.
    if let Some(from) = &core.from {
        if from.reuses_cte() && ctx.bugs.active(BugId::CockroachHangCteReuse) {
            return Err(Error::Hang);
        }
        if from.join_count() >= 3 && ctx.bugs.active(BugId::DuckdbHangTripleJoin) {
            return Err(Error::Hang);
        }
    }

    let fr: Rc<FromResult> = match &core.from {
        Some(f) => ctx.untracked(|| exec_from(f, ctx, ctes, depth))?,
        None => Rc::new(FromResult {
            schema: Schema::default(),
            rows: vec![Row::new(Vec::new())],
            seek: None,
        }),
    };
    let schema = &fr.schema;

    let from = core.from.as_ref();
    let base_info = ExprCtx {
        clause: Clause::Where,
        top_level: true,
        via_index: from.is_some_and(FromPlan::reads_index_scan),
        from_has_cte: from.is_some_and(FromPlan::reads_cte),
        depth,
    };

    // Bug hook: CockroachHangFullJoinHaving.
    if core.having.is_some()
        && from.is_some_and(FromPlan::has_full_join)
        && ctx.bugs.active(BugId::CockroachHangFullJoinHaving)
    {
        return Err(Error::Hang);
    }

    // WHERE: bound once against the FROM schema plus the outer scopes.
    // Shared rows: pulling the input out of a (possibly cached) result is
    // a refcount bump per row, never a value copy.
    let rows: Vec<Row> = match &core.where_clause {
        Some(pred) => {
            let prepared = Prepared::new(pred, &bind_scopes(outer_scopes, schema), depth, ctx)?;
            let f = Filter {
                pred: &prepared,
                schema,
                ctx,
                ctes,
                outer_scopes,
                info: base_info,
            };
            let kept = where_stage(f, &fr.rows, fr.seek.as_ref())?;
            kept.into_iter().map(|i| fr.rows[i].clone()).collect()
        }
        None => fr.rows.clone(),
    };

    if core.is_grouped() {
        let (rel, reps) = exec_grouped(core, rows, schema, ctx, ctes, outer_scopes, base_info)?;
        let rel = maybe_distinct(rel, core.distinct, ctx)?;
        return Ok((rel, Some(reps), Some(fr)));
    }

    // Plain projection: every output expression is expanded and bound
    // once per statement (the per-statement cache makes re-instantiation
    // of a subquery's projection free), then the row loop is pure
    // bound-form evaluation.
    ctx.cov.hit(pt::EXEC_PROJECT);
    let proj = projection_bindings(core, schema, ctx, outer_scopes, depth)?;
    let columns = proj.columns.clone();
    let prepared: Vec<Prepared> = proj
        .exprs
        .iter()
        .zip(proj.bound.iter())
        .map(|(e, b)| Prepared::from_bound(e, Rc::clone(b)))
        .collect();
    let mut out_rows = Vec::with_capacity(rows.len());
    {
        let proj_info = ExprCtx {
            clause: Clause::SelectList,
            ..base_info
        };
        let use_vec = ctx.vectorize
            && !rows.is_empty()
            && prepared.iter().all(|p| vectorizable(p.ast(), ctx, depth));
        let bounds: Vec<&BoundExpr> = prepared.iter().map(|p| p.bound()).collect();
        let mut frames = frame_stack(outer_scopes, schema);
        let mut start = 0usize;
        while start < rows.len() {
            let end = (start + crate::vec_eval::CHUNK).min(rows.len());
            let chunk = &rows[start..end];
            if use_vec
                && ctx.fuel_left() >= chunk.len() as u64
                && crate::vec_eval::project_chunk(&bounds, chunk, outer_scopes, ctx, &mut out_rows)
            {
                ctx.consume_fuel(chunk.len() as u64)?;
                start = end;
                continue;
            }
            for row in chunk {
                ctx.consume_fuel(1)?;
                set_local_row(&mut frames, schema, row);
                let mut out = Vec::with_capacity(prepared.len());
                for p in &prepared {
                    let env = EvalEnv {
                        ctx,
                        scopes: &frames,
                        aggs: None,
                        ctes,
                        info: proj_info,
                    };
                    out.push(p.eval(env)?);
                }
                out_rows.push(Row::new(out));
            }
            start = end;
        }
    }
    let rel = Relation {
        columns,
        rows: out_rows,
    };
    let rel = maybe_distinct(rel, core.distinct, ctx)?;
    Ok((rel, Some(rows), Some(fr)))
}

fn maybe_distinct(mut rel: Relation, distinct: bool, ctx: &EngineCtx) -> Result<Relation> {
    if distinct {
        ctx.cov.hit(pt::EXEC_DISTINCT_DEDUP);
        ctx.consume_fuel(rel.rows.len() as u64)?;
        rel.rows = dedup_rows(rel.rows);
    }
    Ok(rel)
}

/// Expand SELECT items into output column names plus one expression per
/// output column.
fn expand_items(
    core: &CorePlan,
    schema: &Schema,
    ctx: &EngineCtx,
) -> Result<(Vec<String>, Vec<Expr>)> {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &core.items {
        match item {
            SelectItem::Wildcard => {
                ctx.cov.hit(pt::EXEC_WILDCARD);
                if schema.cols.is_empty() {
                    return Err(Error::Eval("SELECT * with no FROM clause".into()));
                }
                for col in &schema.cols {
                    columns.push(col.name.clone());
                    exprs.push(Expr::Column(crate::ast::ColumnRef {
                        table: col.table.clone(),
                        column: col.name.clone(),
                    }));
                }
            }
            SelectItem::TableWildcard(t) => {
                ctx.cov.hit(pt::EXEC_WILDCARD);
                // Bug hook: CockroachInternalFullJoinWildcard.
                if ctx.bugs.active(BugId::CockroachInternalFullJoinWildcard)
                    && core.from.as_ref().is_some_and(FromPlan::has_full_join)
                {
                    return Err(Error::Internal(
                        "cannot expand table wildcard over FULL JOIN".into(),
                    ));
                }
                let tl = t.to_ascii_lowercase();
                let mut found = false;
                for col in &schema.cols {
                    if col.table.as_deref() == Some(tl.as_str()) {
                        found = true;
                        columns.push(col.name.clone());
                        exprs.push(Expr::Column(crate::ast::ColumnRef {
                            table: col.table.clone(),
                            column: col.name.clone(),
                        }));
                    }
                }
                if !found {
                    return Err(Error::Catalog(format!("no such table: {t}")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(crate::ast::output_column_name(expr, alias.as_deref()));
                exprs.push(expr.clone());
            }
        }
    }
    if columns.is_empty() {
        return Err(Error::Parse(
            "SELECT requires at least one result column".into(),
        ));
    }
    Ok((columns, exprs))
}

/// How each aggregate argument evaluates inside the group loop when
/// vectorized evaluation is enabled. Decided once per statement, applied
/// per group — batching is **per group** so that coverage merges exactly
/// when the row-at-a-time walk would have evaluated that group's
/// members (a mid-loop error in `compute_aggregate` or HAVING must not
/// leave bits from groups the scalar walk never reaches).
enum BatchedArg {
    /// Non-distinct `COUNT(*)`: member count, no value vector.
    CountStarFast,
    /// `COUNT(DISTINCT *)`: the dummy-1 vector the scalar loop builds.
    CountStarValues,
    /// Bare local column: gather members' values straight from the rows.
    ColRef(usize),
    /// Classified-vectorizable argument: the group's member rows form
    /// one chunk, with per-group scratch merge and per-group fallback.
    Vectorized,
    /// Row-at-a-time member loop (unclassified, or `RowAtATime` mode).
    Scalar,
}

/// Grouped execution: grouping, aggregate computation, HAVING, projection.
/// Returns the output relation and one representative pre-projection row
/// per output row (for ORDER BY expressions).
#[allow(clippy::too_many_arguments)]
fn exec_grouped(
    core: &CorePlan,
    rows: Vec<Row>,
    schema: &Schema,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    outer_scopes: &[Frame],
    base_info: ExprCtx,
) -> Result<(Relation, Vec<Row>)> {
    // Group keys, projection, HAVING and aggregate slots are resolved and
    // bound once per statement (cached across re-instantiations of a
    // subquery's grouping operator).
    let gb = grouped_bindings(core, schema, ctx, outer_scopes, base_info.depth)?;
    let group_exprs = &gb.group_exprs;
    let group_preds: Vec<Prepared> = gb
        .group_exprs
        .iter()
        .zip(gb.group_bound.iter())
        .map(|(e, b)| Prepared::from_bound(e, Rc::clone(b)))
        .collect();

    // Partition rows into groups (BTreeMap keeps key order deterministic).
    // Single-key vectorized grouping fills `single_groups` instead (bare
    // `OrdValue` keys, no per-row key-vector allocation), and while every
    // key seen is an INT it uses `int_groups` (plain `i64` keys — the
    // common GROUP BY shape, ~2.5x cheaper to probe). The first non-INT
    // key migrates `int_groups` into `single_groups` (INT ordering and
    // first-seen key retention are identical across the three maps, so
    // the resulting group list is bit-identical whichever map served).
    let mut groups: BTreeMap<Vec<OrdValue>, Vec<usize>> = BTreeMap::new();
    let mut single_groups: BTreeMap<OrdValue, Vec<usize>> = BTreeMap::new();
    let mut int_groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    let mut int_ok = true;
    fn single_key_insert(
        v: Value,
        idx: usize,
        int_ok: &mut bool,
        int_groups: &mut BTreeMap<i64, Vec<usize>>,
        single_groups: &mut BTreeMap<OrdValue, Vec<usize>>,
    ) {
        if *int_ok {
            if let Value::Int(k) = v {
                int_groups.entry(k).or_default().push(idx);
                return;
            }
            *int_ok = false;
            for (k, m) in std::mem::take(int_groups) {
                single_groups.insert(OrdValue(Value::Int(k)), m);
            }
        }
        single_groups.entry(OrdValue(v)).or_default().push(idx);
    }
    if group_preds.is_empty() {
        if rows.is_empty() {
            ctx.cov.hit(pt::EXEC_GROUP_EMPTY_INPUT);
        } else {
            ctx.cov.hit(pt::EXEC_GROUP_SINGLE);
        }
        groups.insert(Vec::new(), (0..rows.len()).collect());
    } else {
        ctx.cov.hit(pt::EXEC_GROUP_MULTI);
        let key_info = ExprCtx {
            clause: Clause::GroupBy,
            ..base_info
        };
        let use_vec = ctx.vectorize
            && !rows.is_empty()
            && group_preds
                .iter()
                .all(|g| vectorizable(g.ast(), ctx, base_info.depth));
        let mut frames = frame_stack(outer_scopes, schema);
        // Reused across chunks: one value column per group expression.
        let mut key_cols: Vec<Vec<Value>> = vec![Vec::new(); group_preds.len()];
        // Single-key grouping keys the map by a bare `OrdValue`, skipping
        // the per-row key-vector allocation (the dominant grouping cost);
        // the singleton wrapper is rebuilt once per *group* when the
        // group list materializes.
        let single = use_vec && group_preds.len() == 1;
        let mut start = 0usize;
        while start < rows.len() {
            let end = (start + crate::vec_eval::CHUNK).min(rows.len());
            let chunk = &rows[start..end];
            let mut vectorized = false;
            if use_vec && ctx.fuel_left() >= chunk.len() as u64 {
                // One scratch accumulator for every key expression of the
                // chunk — merged only when all of them succeed.
                let scratch = Coverage::new();
                key_cols.iter_mut().for_each(Vec::clear);
                vectorized = group_preds.iter().zip(key_cols.iter_mut()).all(|(g, col)| {
                    crate::vec_eval::eval_chunk_into(
                        g.bound(),
                        chunk,
                        outer_scopes,
                        ctx,
                        &scratch,
                        col,
                    )
                });
                if vectorized {
                    ctx.cov.merge(&scratch);
                    ctx.consume_fuel(chunk.len() as u64)?;
                    if single {
                        for (lane, v) in key_cols[0].drain(..).enumerate() {
                            single_key_insert(
                                v,
                                start + lane,
                                &mut int_ok,
                                &mut int_groups,
                                &mut single_groups,
                            );
                        }
                    } else {
                        for lane in 0..chunk.len() {
                            let mut key = Vec::with_capacity(group_preds.len());
                            for col in &mut key_cols {
                                key.push(OrdValue(std::mem::replace(&mut col[lane], Value::Null)));
                            }
                            groups.entry(key).or_default().push(start + lane);
                        }
                    }
                }
            }
            if !vectorized {
                for (i, row) in chunk.iter().enumerate() {
                    ctx.consume_fuel(1)?;
                    set_local_row(&mut frames, schema, row);
                    if single {
                        let env = EvalEnv {
                            ctx,
                            scopes: &frames,
                            aggs: None,
                            ctes,
                            info: key_info,
                        };
                        let v = group_preds[0].eval(env)?;
                        single_key_insert(
                            v,
                            start + i,
                            &mut int_ok,
                            &mut int_groups,
                            &mut single_groups,
                        );
                        continue;
                    }
                    let mut key = Vec::with_capacity(group_preds.len());
                    for g in &group_preds {
                        let env = EvalEnv {
                            ctx,
                            scopes: &frames,
                            aggs: None,
                            ctes,
                            info: key_info,
                        };
                        key.push(OrdValue(g.eval(env)?));
                    }
                    groups.entry(key).or_default().push(start + i);
                }
            }
            start = end;
        }
        // Grouping over an empty input with GROUP BY yields no groups.
    }

    // Bug hook: DuckdbInternalGroupByRealMany (`int_groups` keys are
    // INTs by construction and can never satisfy the REAL condition).
    if groups.len() + single_groups.len() + int_groups.len() > 2
        && ctx.bugs.active(BugId::DuckdbInternalGroupByRealMany)
        && (groups
            .keys()
            .any(|k| k.iter().any(|v| matches!(v.0, Value::Real(_))))
            || single_groups.keys().any(|k| matches!(k.0, Value::Real(_))))
    {
        return Err(Error::Internal(
            "REAL group key misaligned in hash table".into(),
        ));
    }

    // Bug hook: TidbInternalHavingCorrelated — a subquery under HAVING.
    if core.having.as_ref().is_some_and(Expr::contains_subquery)
        && ctx.bugs.active(BugId::TidbInternalHavingCorrelated)
    {
        return Err(Error::Internal(
            "failed to decorrelate subquery in HAVING".into(),
        ));
    }

    // A singleton `OrdValue` (or plain `i64`) orders exactly like its
    // one-element key vector, so every source yields the identical group
    // order.
    let mut group_list: Vec<(Vec<OrdValue>, Vec<usize>)> = if !int_groups.is_empty() {
        int_groups
            .into_iter()
            .map(|(k, m)| (vec![OrdValue(Value::Int(k))], m))
            .collect()
    } else if !single_groups.is_empty() {
        single_groups
            .into_iter()
            .map(|(k, m)| (vec![k], m))
            .collect()
    } else {
        groups.into_iter().collect()
    };

    // Bug hook: DuckdbDistinctGroupByDrop — DISTINCT + GROUP BY drops the
    // last group. The rewrite rule pattern-matches plain grouping
    // expressions, so a CASE-shaped group key escapes it (which is what
    // lets a folded query expose the discrepancy).
    if core.distinct
        && !core.group_by.is_empty()
        && group_list.len() > 1
        && !matches!(group_exprs.first(), Some(Expr::Case { .. }))
        && ctx.bugs.active(BugId::DuckdbDistinctGroupByDrop)
    {
        group_list.pop();
    }

    let columns = gb.columns.clone();
    let bound_projs = &gb.bound_projs;
    let bound_having = &gb.bound_having;
    let agg_specs = &gb.agg_specs;

    // Batched aggregate-argument evaluation mode, decided once per spec.
    // Evaluation itself happens per group inside the loop below, so its
    // coverage merges exactly when the scalar walk evaluates that
    // group's members, and a dropped group (`DuckdbDistinctGroupByDrop`)
    // or a mid-loop error leaves later groups untouched in both modes.
    // Argument evaluation charges no fuel in either path (the group
    // loop's per-group charge is unchanged).
    let spec_modes: Vec<BatchedArg> = agg_specs
        .iter()
        .map(|spec| {
            if !ctx.vectorize {
                return BatchedArg::Scalar;
            }
            if spec.func == AggFunc::CountStar {
                return if spec.distinct {
                    BatchedArg::CountStarValues
                } else {
                    BatchedArg::CountStarFast
                };
            }
            match (&spec.arg, &spec.call) {
                (Some(arg), Expr::Agg { arg: Some(ast), .. })
                    if vectorizable(ast, ctx, base_info.depth) =>
                {
                    if let BoundExpr::Column(c) = arg {
                        if c.up == 0 {
                            return BatchedArg::ColRef(c.index as usize);
                        }
                    }
                    BatchedArg::Vectorized
                }
                _ => BatchedArg::Scalar,
            }
        })
        .collect();

    let mut out_rows: Vec<Row> = Vec::with_capacity(group_list.len());
    let mut rep_rows: Vec<Row> = Vec::with_capacity(group_list.len());
    let empty_row = Row::new(vec![Value::Null; schema.cols.len()]);
    let mut frames = frame_stack(outer_scopes, schema);

    for (_key, members) in &group_list {
        ctx.consume_fuel(1 + members.len() as u64)?;
        // Compute aggregates for this group, one value per slot. The
        // group's member rows form one chunk for vectorized arguments,
        // built lazily (shared refcount bumps) and reused across specs.
        let mut member_chunk: Option<Vec<Row>> = None;
        let mut aggs: AggValues = Vec::with_capacity(agg_specs.len());
        for (si, spec) in agg_specs.iter().enumerate() {
            let mut values: Option<Vec<Value>> = match &spec_modes[si] {
                // Non-distinct COUNT(*) needs only the member count —
                // `compute_aggregate`'s arm hits one bit and returns
                // the length, reproduced here without the value vec.
                BatchedArg::CountStarFast => {
                    ctx.cov.hit(pt::AGG_COUNT_STAR);
                    aggs.push(Value::Int(members.len() as i64));
                    continue;
                }
                BatchedArg::CountStarValues => Some(vec![Value::Int(1); members.len()]),
                BatchedArg::ColRef(idx) => {
                    // The scalar loop hits the column's coverage point
                    // (and records the correlation read) once per
                    // member; once per non-empty group is the same
                    // bitset and the same deduplicated slot set.
                    if !members.is_empty() {
                        ctx.cov.hit(pt::EVAL_COLUMN_LOCAL);
                        ctx.note_column_read(outer_scopes.len(), *idx);
                    }
                    Some(members.iter().map(|&ri| rows[ri][*idx].clone()).collect())
                }
                BatchedArg::Vectorized if !members.is_empty() => {
                    let chunk = member_chunk.get_or_insert_with(|| {
                        members.iter().map(|&ri| rows[ri].clone()).collect()
                    });
                    let arg = spec.arg.as_ref().expect("vectorized spec has an argument");
                    let scratch = Coverage::new();
                    let mut out = Vec::with_capacity(members.len());
                    if crate::vec_eval::eval_chunk_into(
                        arg,
                        chunk,
                        outer_scopes,
                        ctx,
                        &scratch,
                        &mut out,
                    ) {
                        ctx.cov.merge(&scratch);
                        Some(out)
                    } else {
                        // An erroring lane: this spec re-runs its member
                        // loop row-at-a-time (exact error and coverage).
                        None
                    }
                }
                BatchedArg::Vectorized | BatchedArg::Scalar => None,
            };
            let values = match values.take() {
                Some(v) => v,
                None => {
                    let mut values = Vec::with_capacity(members.len());
                    for &ri in members {
                        set_local_row(&mut frames, schema, &rows[ri]);
                        let v = match (spec.func, &spec.arg) {
                            (AggFunc::CountStar, _) => Value::Int(1),
                            (_, Some(a)) => {
                                let env = EvalEnv {
                                    ctx,
                                    scopes: &frames,
                                    aggs: None,
                                    ctes,
                                    info: ExprCtx {
                                        clause: Clause::SelectList,
                                        ..base_info
                                    },
                                };
                                eval_bound(a, env)?
                            }
                            (_, None) => {
                                return Err(Error::Parse(format!(
                                    "{}() requires an argument",
                                    spec.func.sql_name()
                                )))
                            }
                        };
                        values.push(v);
                    }
                    values
                }
            };
            let rep = members.first().map(|&i| &rows[i]).unwrap_or(&empty_row);
            set_local_row(&mut frames, schema, rep);
            let env = EvalEnv {
                ctx,
                scopes: &frames,
                aggs: None,
                ctes,
                info: ExprCtx {
                    clause: Clause::SelectList,
                    ..base_info
                },
            };
            let v = compute_aggregate(spec.func, spec.distinct, values, env)?;
            aggs.push(v);
        }

        // Representative row: bare columns take the group's first row
        // (SQLite "bare column in aggregate query" semantics).
        let rep: &Row = members.first().map(|&i| &rows[i]).unwrap_or(&empty_row);

        // HAVING.
        if let Some(h) = bound_having {
            set_local_row(&mut frames, schema, rep);
            let env = EvalEnv {
                ctx,
                scopes: &frames,
                aggs: Some(&aggs),
                ctes,
                info: ExprCtx {
                    clause: Clause::Having,
                    top_level: true,
                    ..base_info
                },
            };
            let hv = eval_bound(h, env)?;
            if truthiness(&hv, ctx.dialect, ctx.cov)? != Some(true) {
                ctx.cov.hit(pt::EXEC_HAVING_DROP);
                continue;
            }
            ctx.cov.hit(pt::EXEC_HAVING_PASS);
        }

        // Projection.
        set_local_row(&mut frames, schema, rep);
        let mut out = Vec::with_capacity(bound_projs.len());
        for e in bound_projs {
            let env = EvalEnv {
                ctx,
                scopes: &frames,
                aggs: Some(&aggs),
                ctes,
                info: ExprCtx {
                    clause: Clause::SelectList,
                    ..base_info
                },
            };
            out.push(eval_bound(e, env)?);
        }
        out_rows.push(Row::new(out));
        rep_rows.push(rep.clone());
    }

    Ok((
        Relation {
            columns,
            rows: out_rows,
        },
        rep_rows,
    ))
}

/// In grouped execution only explicit expressions are allowed (CoddDB
/// restricts wildcards to non-aggregated queries, matching common DBMS
/// behaviour for grouped queries).
fn expand_items_grouped(core: &CorePlan) -> Result<(Vec<String>, Vec<Expr>)> {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &core.items {
        match item {
            SelectItem::Expr { expr, alias } => {
                columns.push(crate::ast::output_column_name(expr, alias.as_deref()));
                exprs.push(expr.clone());
            }
            _ => {
                return Err(Error::Eval(
                    "wildcards are not supported in aggregated queries".into(),
                ))
            }
        }
    }
    if columns.is_empty() {
        return Err(Error::Parse(
            "SELECT requires at least one result column".into(),
        ));
    }
    Ok((columns, exprs))
}

/// Expand and bind a plain projection, once per statement. Keyed by the
/// core plan's address (stable: the executing plan lives for the whole
/// statement, and subquery plans are retained by the statement cache).
fn projection_bindings(
    core: &CorePlan,
    schema: &Schema,
    ctx: &EngineCtx,
    outer_scopes: &[Frame],
    depth: u32,
) -> Result<Rc<ProjBindings>> {
    let key = core as *const CorePlan as usize;
    get_or_build(&ctx.caches.proj, ctx.bindings_cacheable(depth), key, || {
        let (columns, exprs) = expand_items(core, schema, ctx)?;
        let scopes = bind_scopes(outer_scopes, schema);
        let bound = exprs
            .iter()
            .map(|e| {
                let mut binder = Binder::new(&scopes, depth);
                Ok(Rc::new(binder.bind(e)?))
            })
            .collect::<Result<_>>()?;
        Ok(Rc::new(ProjBindings {
            columns,
            exprs,
            bound,
        }))
    })
}

/// Resolve and bind the grouped-execution state (group keys, projection,
/// HAVING, aggregate slots), once per statement — same keying rules as
/// [`projection_bindings`].
fn grouped_bindings(
    core: &CorePlan,
    schema: &Schema,
    ctx: &EngineCtx,
    outer_scopes: &[Frame],
    depth: u32,
) -> Result<Rc<GroupedBindings>> {
    let key = core as *const CorePlan as usize;
    get_or_build(
        &ctx.caches.grouped,
        ctx.bindings_cacheable(depth),
        key,
        || {
            let group_exprs = core.group_keys()?;
            let scopes = bind_scopes(outer_scopes, schema);
            // Group keys bind in non-aggregate scope (aggregates are illegal
            // in GROUP BY), each through its own binder like any clause root.
            let group_bound: Vec<Rc<BoundExpr>> = group_exprs
                .iter()
                .map(|g| {
                    let mut binder = Binder::new(&scopes, depth);
                    Ok(Rc::new(binder.bind(g)?))
                })
                .collect::<Result<_>>()?;
            // Bind projection items and HAVING through one binder so every
            // distinct aggregate expression gets a single slot; the per-group
            // value table is indexed by those slots.
            let (columns, proj_exprs) = expand_items_grouped(core)?;
            let mut binder = Binder::new(&scopes, depth);
            let bound_projs: Vec<BoundExpr> = proj_exprs
                .iter()
                .map(|e| binder.bind_aggregate(e))
                .collect::<Result<_>>()?;
            let bound_having = match &core.having {
                Some(h) => Some(binder.bind_aggregate(h)?),
                None => None,
            };
            let agg_specs = binder.into_agg_specs();
            // Debug builds verify the grouped bound forms: group keys are
            // aggregate-free, and every aggregate slot in the projection /
            // HAVING indexes the collected spec table. Clean engines only,
            // through the same unrecorded gate as the bind seam above.
            #[cfg(debug_assertions)]
            if ctx.bugs.validator_gate(ValidatorScope::AnyMutant) {
                let mut violations = Vec::new();
                for g in &group_bound {
                    violations.extend(crate::validate::validate_bound(g, &scopes, None));
                }
                for b in bound_projs.iter().chain(bound_having.iter()) {
                    violations.extend(crate::validate::validate_bound(
                        b,
                        &scopes,
                        Some(agg_specs.len()),
                    ));
                }
                assert!(
                    violations.is_empty(),
                    "binder produced an out-of-bounds grouped form: {violations:?}"
                );
            }
            Ok(Rc::new(GroupedBindings {
                group_exprs,
                group_bound,
                columns,
                bound_projs,
                bound_having,
                agg_specs,
            }))
        },
    )
}

/// Is a bound expression invariant across the rows of the local frame —
/// no local column loads, no aggregate slots, and no subqueries (whose
/// bodies this walker does not analyze)? An invariant expression
/// evaluates to the same value (or the same error) for every row of one
/// operator instantiation.
fn row_invariant(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Column(c) => c.up > 0,
        BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::Scalar { .. }
        | BoundExpr::Quantified { .. }
        | BoundExpr::Agg { .. } => false,
        _ => {
            let mut invariant = true;
            e.for_each_child(&mut |child| invariant = invariant && row_invariant(child));
            invariant
        }
    }
}

/// The `column <cmp> row-invariant` shape of a bound predicate, in either
/// orientation: its comparison, the local column's ordinal, the invariant
/// side, and whether the column is the left operand. A local column with
/// a recorded collision alternative does not fit (the name-collision
/// mutant may redirect its loads).
fn column_cmp_invariant(pred: &BoundExpr) -> Option<(BinaryOp, usize, &BoundExpr, bool)> {
    let BoundExpr::Binary { op, left, right } = pred else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    let local_col = |e: &BoundExpr| match e {
        BoundExpr::Column(c) if c.up == 0 && c.collision_alt.is_none() => Some(c.index as usize),
        _ => None,
    };
    match (local_col(left), local_col(right)) {
        (Some(ord), _) if row_invariant(right) => Some((*op, ord, right, true)),
        (_, Some(ord)) if row_invariant(left) => Some((*op, ord, left, false)),
        _ => None,
    }
}

/// A WHERE clause bound for one input — the predicate, the schema of the
/// rows it filters, the outer scopes and CTEs it may read, and its
/// evaluation context — as the WHERE-stage kernels take it.
#[derive(Clone, Copy)]
struct Filter<'f> {
    pred: &'f Prepared<'f>,
    schema: &'f Schema,
    ctx: &'f EngineCtx<'f>,
    ctes: &'f CteEnv<'f>,
    outer_scopes: &'f [Frame<'f>],
    info: ExprCtx,
}

impl<'f> Filter<'f> {
    /// The predicate's truth value on `row`, evaluated on `frames` (a
    /// [`frame_stack`] over this filter's scopes).
    fn truth<'r>(&self, frames: &mut [Frame<'r>], row: &'r [Value]) -> Result<Option<bool>>
    where
        'f: 'r,
    {
        set_local_row(frames, self.schema, row);
        let env = EvalEnv {
            ctx: self.ctx,
            scopes: frames,
            aggs: None,
            ctes: self.ctes,
            info: self.info,
        };
        truthiness(&self.pred.eval(env)?, self.ctx.dialect, self.ctx.cov)
    }
}

/// Short-circuit filter for `column <cmp> row-invariant` predicates (and
/// the flipped orientation) — the dominant shape of correlated subquery
/// filters, where the invariant side reads only outer columns.
///
/// The invariant side is evaluated **once**; each row then classifies by
/// a direct [`Value::sql_cmp`], skipping the per-row interpreter walk.
/// Exactness:
///
/// * For operand pairs that never mix TEXT with another storage class,
///   [`crate::eval::compare`] reduces to `sql_cmp` — a pure function with
///   no dialect coercion, no errors and no mutant hooks. Any TEXT /
///   non-TEXT mix among non-NULL operands falls back to the per-row loop
///   (which then reproduces MySQL-family coercion, strict-dialect type
///   errors and the `MysqlTextIntCompareWhere` hook bit for bit).
/// * The filter-site mutants are gated off by the caller: [`apply_filter`]
///   asks `vec_eval::gates::filter` before it tries this path, and an
///   active `SqliteIndexedCmpNullTrue` over index-scanned rows sends the
///   comparison to the row loop. `CockroachAndNullTopConjunct` needs an
///   AND root, never a bare comparison; `DuckdbSubqueryBoolCoerce` needs
///   a subquery operand, which `row_invariant` excludes; local columns
///   with a recorded collision alternative are rejected (the
///   name-collision mutant may redirect their loads).
/// * Coverage parity: one representative row per outcome class
///   (pass/drop/null) re-runs the full per-row evaluation, firing exactly
///   the (idempotent) coverage bits the plain loop would. Fuel: the whole
///   input's charge (`fuel`, one unit per row of a scan) in one refusable
///   call, so a short budget hangs with its fuel untouched.
///
/// Returns the indexes of the kept rows, or `None` when the predicate
/// does not fit — caller runs the per-row loop.
fn apply_cmp_filter_fast(f: Filter, rows: &[Row], fuel: u64) -> Result<Option<Vec<usize>>> {
    use crate::eval::cmp_matches;

    if rows.is_empty() {
        return Ok(None);
    }
    let Some((op, ord, invariant, col_is_left)) = column_cmp_invariant(f.pred.bound()) else {
        return Ok(None);
    };

    // Evaluate the invariant side once. Errors surface exactly as the
    // per-row loop's first row would (rows is non-empty); its coverage
    // bits and outer-read records are the same every row, so once is
    // enough.
    let mut frames = frame_stack(f.outer_scopes, f.schema);
    set_local_row(&mut frames, f.schema, &rows[0]);
    let env = EvalEnv {
        ctx: f.ctx,
        scopes: &frames,
        aggs: None,
        ctes: f.ctes,
        info: f.info,
    };
    let inv_val = eval_bound(invariant, env.child())?;

    // Any TEXT / non-TEXT mix among non-NULL operands leaves `sql_cmp`
    // territory (coercion, strict errors, mutants) — exact path instead.
    // This pre-pass runs before fuel is charged so a fallback consumes
    // exactly what the per-row loop will.
    let inv_null = inv_val.is_null();
    let inv_text = matches!(inv_val, Value::Text(_));
    if !inv_null {
        for row in rows {
            let v = &row[ord];
            if !v.is_null() && matches!(v, Value::Text(_)) != inv_text {
                return Ok(None);
            }
        }
    }

    f.ctx.consume_fuel(fuel)?;
    let mut out: Vec<usize> = Vec::new();
    // Representative row per outcome class: pass, drop, null.
    let mut reps: [Option<usize>; 3] = [None; 3];
    for (i, row) in rows.iter().enumerate() {
        let v = &row[ord];
        let class = if inv_null || v.is_null() {
            2
        } else {
            let o = if col_is_left {
                v.sql_cmp(&inv_val)
            } else {
                inv_val.sql_cmp(v)
            };
            match o {
                Some(o) if cmp_matches(op, o) => 0,
                _ => 1,
            }
        };
        if reps[class].is_none() {
            reps[class] = Some(i);
        }
        if class == 0 {
            out.push(i);
        }
    }

    // Fire the authentic per-row coverage bits once per outcome class by
    // running the real evaluation on a representative row (bits are
    // idempotent, and within a class every row takes the identical path).
    for (class, rep) in reps.iter().enumerate() {
        let Some(ri) = *rep else { continue };
        let t = f.truth(&mut frames, &rows[ri])?;
        f.ctx.cov.hit(match t {
            Some(true) => pt::EXEC_FILTER_PASS,
            Some(false) => pt::EXEC_FILTER_DROP,
            None => pt::EXEC_FILTER_NULL,
        });
        debug_assert_eq!(
            t,
            [Some(true), Some(false), None][class],
            "fast filter classification diverged from evaluation"
        );
    }
    Ok(Some(out))
}

/// Where the input rows of a WHERE-stage kernel sit in storage, which
/// sets their fuel charge: what the ScanOnly twin's row loop charges for
/// the same stretch of storage.
#[derive(Clone, Copy)]
enum Placement<'p> {
    /// A FROM result: one unit per row.
    Contiguous,
    /// A run of rows an index seek emitted, at the ascending storage
    /// positions `pos`, after the rows the seek's ledger has charged up
    /// to position `from`. A scan charges the skipped rows in between one
    /// unit each, so each row costs one unit plus one per skipped row
    /// before it.
    SeekRun { pos: &'p [usize], from: usize },
}

impl Placement<'_> {
    /// The fuel charge of input rows `a..b`.
    fn cost(self, a: usize, b: usize) -> u64 {
        match self {
            _ if a == b => 0,
            Placement::Contiguous => (b - a) as u64,
            Placement::SeekRun { pos, from } => {
                let start = if a == 0 { from } else { pos[a - 1] + 1 };
                (pos[b - 1] + 1 - start) as u64
            }
        }
    }
}

/// Apply a WHERE filter, including the filter-site bug hooks, to `rows`
/// placed in storage as `at`, and return the indexes of the kept rows in
/// ascending order. Its kernels are the only code that evaluates a WHERE
/// clause over rows, for scans and seeks alike. A `column <cmp>
/// row-invariant` predicate takes [`apply_cmp_filter_fast`]; a
/// classified-vectorizable one evaluates chunk-at-a-time through
/// [`crate::vec_eval`], with an exact per-chunk fallback to the row loop
/// on any erroring lane or insufficient fuel; everything else, and any
/// filter an active filter-site mutant hooks (`vec_eval::gates::filter`),
/// runs the row loop with a reused frame stack.
///
/// A run of seek rows ([`Placement::SeekRun`]) is charged as the scan
/// twin charges the same stretch of storage: a chunk costs its rows plus
/// the skipped rows between them, and the row loop charges each row
/// together with the skipped rows before it, draining the fuel to zero
/// when the budget runs out partway ([`EngineCtx::drain_fuel`]). So a
/// hang lands on the row where the scan's does.
fn apply_filter(f: Filter, rows: &[Row], at: Placement) -> Result<Vec<usize>> {
    let ctx = f.ctx;
    // An active filter-site mutant keeps the rows whose predicate is
    // NULL. Neither the fast path nor the chunk filter models that, so
    // such a filter runs row-at-a-time.
    let keeps_null =
        crate::vec_eval::gates::filter(f.pred.ast(), f.info.via_index, ctx.bugs).is_err();
    if !keeps_null {
        if let Some(out) = apply_cmp_filter_fast(f, rows, at.cost(0, rows.len()))? {
            return Ok(out);
        }
    }
    let use_vec = ctx.vectorize
        && !rows.is_empty()
        && !keeps_null
        && vectorizable(f.pred.ast(), ctx, f.info.depth);

    let mut keep = vec![false; rows.len()];
    let mut frames = frame_stack(f.outer_scopes, f.schema);
    let mut start = 0usize;
    while start < rows.len() {
        let end = (start + crate::vec_eval::CHUNK).min(rows.len());
        let chunk = &rows[start..end];
        // The budget must cover the whole chunk up front: a fuel
        // exhaustion must hang at exactly the row the per-row loop
        // would reach, so short-budget chunks take the scalar loop.
        let fuel = at.cost(start, end);
        if use_vec
            && ctx.fuel_left() >= fuel
            && crate::vec_eval::filter_chunk(
                f.pred.bound(),
                chunk,
                f.outer_scopes,
                ctx,
                &mut keep[start..end],
            )
        {
            ctx.consume_fuel(fuel)?;
            start = end;
            continue;
        }
        // Row-at-a-time (fallback) loop for this chunk. A failed
        // vectorized attempt may have set some keep flags: reset.
        for k in &mut keep[start..end] {
            *k = false;
        }
        for (i, row) in chunk.iter().enumerate() {
            ctx.drain_fuel(at.cost(start + i, start + i + 1))?;
            let t = f.truth(&mut frames, row)?;

            // Bug hooks SqliteIndexedCmpNullTrue and
            // CockroachAndNullTopConjunct (`vec_eval::gates::filter`).
            if t.is_none() && keeps_null {
                keep[start + i] = true;
                continue;
            }

            match t {
                Some(true) => {
                    ctx.cov.hit(pt::EXEC_FILTER_PASS);
                    keep[start + i] = true;
                }
                Some(false) => ctx.cov.hit(pt::EXEC_FILTER_DROP),
                None => ctx.cov.hit(pt::EXEC_FILTER_NULL),
            }
        }
        start = end;
    }
    Ok(kept(&keep))
}

/// The indexes of the set keep flags, ascending.
fn kept(keep: &[bool]) -> Vec<usize> {
    (0..keep.len()).filter(|&i| keep[i]).collect()
}

/// The WHERE stage of SELECT, UPDATE and DELETE: filter `rows` — a FROM
/// result, or the rows an index seek emitted (`seek`) — and return the
/// indexes of the kept rows, in emission order. Both go through
/// [`apply_filter`]'s kernels: a FROM result directly, a seek's rows
/// inside [`seek_filter`]'s fuel and coverage ledger.
fn where_stage(f: Filter, rows: &[Row], seek: Option<&SeekInfo>) -> Result<Vec<usize>> {
    match seek {
        // Bug hook: PrefixSeekIgnoresResidual — the seek output is
        // (wrongly) trusted wholesale. Binding still ran, so name
        // resolution errors surface as usual.
        Some(seek) if seek.filter_suppressed => Ok((0..rows.len()).collect()),
        Some(seek) => seek_filter(f, rows, seek),
        None => apply_filter(f, rows, Placement::Contiguous),
    }
}

/// The rows an UPDATE or DELETE targets: the ascending storage positions
/// of the rows of `t` (bound to `schema`) that `pred` keeps, every row
/// when there is no WHERE clause. `access` is the statement's access
/// path: the `SeqScan` or `IndexSeek` that [`plan::select_seek`] picks
/// for a SELECT with the same WHERE clause. The seek is probed by the
/// same [`seek_probe`] as a SELECT's FROM stage, and the rows go through
/// the same [`where_stage`]; unlike a SELECT, the statement charges no
/// FROM-stage fuel, only the WHERE stage's one unit per table row.
pub(crate) fn dml_targets(
    t: &TableDef,
    schema: &Schema,
    access: &FromPlan,
    pred: Option<&Prepared>,
    ctx: &EngineCtx,
) -> Result<Vec<usize>> {
    let Some(pred) = pred else {
        ctx.consume_fuel(t.rows.len() as u64)?;
        return Ok((0..t.rows.len()).collect());
    };
    let seek = match access {
        FromPlan::IndexSeek {
            index,
            eq,
            range,
            ordered,
            reverse,
            ..
        } => seek_probe(t, index, eq, range, *ordered, *reverse, ctx),
        _ => None,
    };
    let ctes = CteEnv::root();
    let f = Filter {
        pred,
        schema,
        ctx,
        ctes: &ctes,
        outer_scopes: &[],
        info: ExprCtx::new(Clause::Where),
    };
    match seek {
        Some(seek) => {
            let rows: Vec<Row> = seek.positions.iter().map(|&p| t.rows[p].clone()).collect();
            let kept = where_stage(f, &rows, Some(&seek))?;
            Ok(kept.into_iter().map(|i| seek.positions[i]).collect())
        }
        None => where_stage(f, &t.rows, None),
    }
}

/// The WHERE stage over an index seek's rows: a fuel and coverage ledger
/// around [`apply_filter`]'s kernels, which evaluate the emitted rows.
/// For every row the seek skipped, the ledger replays the observable
/// effects the ScanOnly twin produces: one fuel unit per row, and the
/// authentic drop-path coverage bits, fired once per skipped outcome
/// class by evaluating the predicate on the class's representative row
/// (the same within-class invariant [`apply_cmp_filter_fast`] rests on).
/// The representatives are the only rows this function evaluates itself.
/// Every skipped row has a FALSE consumed conjunct, and the consumed
/// conjuncts are a prefix of the clause, so a representative evaluation
/// never reads non-key columns and never errors.
///
/// Where the scan twin takes the comparison fast path (a bare
/// `column <cmp> row-invariant` predicate), the stage cannot fail once
/// its whole charge is granted. So it refuses a short budget with the
/// fuel untouched, as the fast path does, then charges the skipped rows
/// in one deduction, replays any member of each class, and hands all
/// emitted rows to `apply_filter` at once. Otherwise an erroring
/// residual conjunct or a fuel exhaustion can stop the stage partway,
/// and the ledger walks storage order: the emitted rows go to
/// `apply_filter` as the runs between representatives
/// ([`Placement::SeekRun`]), each representative is charged and
/// replayed at its storage position, and the skipped rows after the last
/// of them are charged at the end. An error and an exhaustion then both
/// surface with exactly the coverage and fuel the scan twin accumulates
/// up to the same row. An ordered seek changes only the emission order:
/// its rows are sorted into storage order for the walk, and the kept
/// indexes come back in the seek's key order.
fn seek_filter(f: Filter, rows: &[Row], seek: &SeekInfo) -> Result<Vec<usize>> {
    let ctx = f.ctx;
    // With an index mutant active the skip set is deliberately wrong, so
    // a representative may well evaluate non-FALSE — that divergence is
    // the campaign's signal, not a replay defect. The gate records no
    // consult; it can change a replay's verdict only when the clean
    // engine fails this assertion.
    #[cfg(debug_assertions)]
    let assert_reps = ctx.bugs.validator_gate(ValidatorScope::IndexMutants);
    #[cfg(not(debug_assertions))]
    let assert_reps = false;

    // The scan twin's charging regime. A seek's rows are no index scan,
    // so the filter-site gate never sends a bare comparison to the row
    // loop here, and the seek's exactness gate rules out the fast path's
    // TEXT-mix fallback (the probe column is class-uniform): the shape
    // alone decides. Either regime charges exactly `seek.total`.
    debug_assert!(!f.info.via_index, "an index seek's rows are no index scan");
    let bulk = column_cmp_invariant(f.pred.bound()).is_some();
    if bulk && ctx.fuel_left() < seek.total as u64 {
        return Err(Error::Hang);
    }

    // Skipped-class representatives, synthesized on demand: the class
    // key's values at the key columns, NULL elsewhere — safe because
    // consumed conjuncts read key columns only and the FALSE one
    // short-circuits the rest of the clause. On the bulk path the whole
    // stage is infallible, so replay order against the emitted rows is
    // unobservable and any class member serves (`lazy`, one bounded
    // index probe per class); the storage-order walk needs each class's
    // first row in storage order, where a fuel exhaustion would cut the
    // scan twin's ledger.
    let data = ctx
        .catalog
        .index(&seek.index)
        .and_then(|i| i.data.as_ref())
        .expect("seeked index vanished mid-statement");
    let reps: Vec<(usize, Row)> = data
        .skip_reps(&seek.eq, seek.range_probe.clone(), bulk)
        .into_iter()
        .map(|(p, key)| {
            let mut vals = vec![Value::Null; f.schema.cols.len()];
            for (&c, ov) in seek.key_cols.iter().zip(key) {
                vals[c] = ov.0;
            }
            (p, Row::new(vals))
        })
        .collect();
    let mut frames = frame_stack(f.outer_scopes, f.schema);
    let mut replay = |k: usize| -> Result<()> {
        let t = f.truth(&mut frames, &reps[k].1)?;
        ctx.cov.hit(pt::EXEC_FILTER_DROP);
        if assert_reps {
            assert_eq!(
                t,
                Some(false),
                "index seek skipped a row the WHERE clause keeps"
            );
        }
        Ok(())
    };

    if bulk {
        // Cannot fail: the refusal above granted the whole charge.
        ctx.consume_fuel((seek.total - rows.len()) as u64)?;
        for k in 0..reps.len() {
            replay(k)?;
        }
        return apply_filter(f, rows, Placement::Contiguous);
    }

    // Storage order: an unordered seek emits in it; an ordered seek's
    // rows are sorted back into it, and `order` maps them to emission
    // order.
    let order: Option<Vec<usize>> = seek.ordered.then(|| {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_unstable_by_key(|&i| seek.positions[i]);
        order
    });
    let (rows, pos): (Cow<[Row]>, Cow<[usize]>) = match &order {
        Some(order) => (
            order.iter().map(|&i| rows[i].clone()).collect(),
            order.iter().map(|&i| seek.positions[i]).collect(),
        ),
        None => (Cow::Borrowed(rows), Cow::Borrowed(&seek.positions)),
    };

    // The walk: before each representative (and the table's end), the
    // run of emitted rows below it; then the skipped rows up to it, its
    // own row and its replay.
    let mut kept_rows = Vec::new();
    let mut a = 0; // first row of the next run
    let mut from = 0; // storage position after the last charged row
    for k in 0..=reps.len() {
        let end = reps.get(k).map_or(seek.total, |&(p, _)| p);
        let b = a + pos[a..].partition_point(|&p| p < end);
        let run = Placement::SeekRun {
            pos: &pos[a..b],
            from,
        };
        let run_kept = apply_filter(f, &rows[a..b], run)?;
        kept_rows.extend(run_kept.into_iter().map(|i| a + i));
        if b > a {
            from = pos[b - 1] + 1;
        }
        if k < reps.len() {
            ctx.drain_fuel((end + 1 - from) as u64)?;
            replay(k)?;
            from = end + 1;
        } else {
            ctx.drain_fuel((end - from) as u64)?;
        }
        a = b;
    }

    // Emission keeps the seek's own order (storage order, or key order
    // for sort elimination): the kept indexes follow the seek's rows.
    Ok(match order {
        Some(order) => {
            let mut keep = vec![false; order.len()];
            for j in kept_rows {
                keep[order[j]] = true;
            }
            kept(&keep)
        }
        None => kept_rows,
    })
}

/// Probe the ordered index of an `IndexSeek` access path over `t` for
/// the storage positions its consumed conjuncts can reach. `None` when
/// the seek is refused at run time — [`EngineCtx::scan_only`], or a probe
/// whose storage class the index's key values do not share — and the
/// caller scans instead.
fn seek_probe(
    t: &TableDef,
    index: &str,
    eq: &[Value],
    range: &Option<(BinaryOp, Value)>,
    ordered: bool,
    reverse: bool,
    ctx: &EngineCtx,
) -> Option<SeekInfo> {
    let data = ctx.catalog.index(index).and_then(|i| i.data.as_ref())?;
    // Runtime exactness gate, mirroring the fast-filter discipline: for
    // each consumed key column, the probe's TEXT-ness must be uniform
    // with every non-NULL key value, or ordered-key comparison could
    // disagree with SQL comparison.
    let exact = eq
        .iter()
        .chain(range.iter().map(|(_, v)| v))
        .enumerate()
        .all(|(j, v)| {
            let s = &data.stats[j];
            if matches!(v, Value::Text(_)) {
                s.text == s.nonnull
            } else {
                s.text == 0
            }
        });
    if ctx.scan_only || !exact {
        return None;
    }
    // The RangeBoundOffByOne and SortElimWrongDirection hooks corrupt the
    // *plan* (see `plan::select_seek` and `plan::eliminate_sort`): the
    // executor faithfully runs the seek it was handed.
    // Bug hook: EqSeekMissesDuplicates — equality seeks return only the
    // first row of each duplicate key group.
    let dedup = ctx.bugs.active(IndexBugId::EqSeekMissesDuplicates);
    let out = data.seek(eq, range.clone(), ordered, reverse, dedup);
    Some(SeekInfo {
        positions: out.emit,
        total: t.rows.len(),
        index: index.to_string(),
        key_cols: data.cols.clone(),
        eq: eq.to_vec(),
        range_probe: range.clone(),
        ordered,
        filter_suppressed: ctx.bugs.active(IndexBugId::PrefixSeekIgnoresResidual),
    })
}

/// The schema of a base table's rows, qualified by `alias`.
pub(crate) fn table_schema(t: &TableDef, alias: &str) -> Schema {
    Schema {
        cols: t
            .columns
            .iter()
            .map(|c| ColMeta::new(Some(alias), &c.name))
            .collect(),
    }
}

/// May this FROM subtree's materialized result be shared across operator
/// re-instantiations? Conservative: base-table scans, joins and pushed
/// filters qualify; CTE scans are excluded (an external CTE's read
/// counter — and its `exec::cte_reuse` coverage — must advance per
/// instantiation), and derived tables, VALUES and subquery-bearing
/// predicates are excluded because they may reach CTEs or arbitrary
/// nested evaluation the walker does not analyze.
fn from_result_cacheable(from: &FromPlan, ctx: &EngineCtx) -> bool {
    match from {
        FromPlan::SeqScan { .. } => true,
        FromPlan::IndexScan { index, .. } => ctx
            .catalog
            .index(index)
            .is_some_and(|i| !i.exprs.iter().any(Expr::contains_subquery)),
        FromPlan::IndexSeek { .. } => true,
        FromPlan::Derived { .. } | FromPlan::ValuesScan { .. } | FromPlan::CteScan { .. } => false,
        FromPlan::Join {
            on,
            hash_keys,
            residual,
            left,
            right,
            ..
        } => {
            from_result_cacheable(left, ctx)
                && from_result_cacheable(right, ctx)
                && !on.as_ref().is_some_and(Expr::contains_subquery)
                && !residual.as_ref().is_some_and(Expr::contains_subquery)
                && !hash_keys
                    .iter()
                    .any(|(l, r)| l.contains_subquery() || r.contains_subquery())
        }
        FromPlan::Filtered { input, pred, .. } => {
            from_result_cacheable(input, ctx) && !pred.contains_subquery()
        }
    }
}

/// Execute a FROM subtree. FROM internals evaluate on rootless frame
/// stacks (no outer columns in scope), so the result is a deterministic
/// function of table state — for cacheable subtrees (see
/// [`from_result_cacheable`]) it is materialized once per statement and
/// shared across the per-outer-key re-instantiations of a correlated
/// subquery.
fn exec_from(
    from: &FromPlan,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    depth: u32,
) -> Result<Rc<FromResult>> {
    let cacheable = ctx.bindings_cacheable(depth) && from_result_cacheable(from, ctx);
    get_or_build(
        &ctx.caches.from_results,
        cacheable,
        from as *const FromPlan as usize,
        || Ok(Rc::new(exec_from_uncached(from, ctx, ctes, depth)?)),
    )
}

fn exec_from_uncached(
    from: &FromPlan,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    depth: u32,
) -> Result<FromResult> {
    match from {
        FromPlan::SeqScan { table, alias } => {
            let t = ctx.catalog.table(table)?;
            ctx.consume_fuel(t.rows.len() as u64)?;
            // Zero-copy scan: hand out shared references to table storage.
            Ok(FromResult {
                schema: table_schema(t, alias),
                rows: t.rows.clone(),
                seek: None,
            })
        }
        FromPlan::IndexScan {
            table,
            alias,
            index,
        } => {
            let t = ctx.catalog.table(table)?;
            let idx = ctx
                .catalog
                .index(index)
                .ok_or_else(|| Error::Catalog(format!("no such index: {index}")))?;
            ctx.consume_fuel(2 * t.rows.len() as u64)?;
            let schema = table_schema(t, alias);
            // Evaluate the indexed expressions (bound once) per row — their
            // errors and coverage are the scan's observable index work —
            // but emit rows in storage order, row- and order-identical to
            // a seq scan, so ORDER BY ties resolve the same either way.
            let prepared: Vec<Prepared> = idx
                .exprs
                .iter()
                .map(|e| Prepared::new(e, &[&schema], depth, ctx))
                .collect::<Result<_>>()?;
            let info = ExprCtx {
                depth,
                ..ExprCtx::new(Clause::IndexExpr)
            };
            for row in &t.rows {
                let frames = [Frame {
                    schema: &schema,
                    row,
                }];
                for p in &prepared {
                    p.eval(EvalEnv {
                        ctx,
                        scopes: &frames,
                        aggs: None,
                        ctes,
                        info,
                    })?;
                }
            }
            Ok(FromResult {
                schema,
                rows: t.rows.clone(),
                seek: None,
            })
        }
        FromPlan::IndexSeek {
            table,
            alias,
            index,
            eq,
            range,
            ordered,
            reverse,
        } => {
            let t = ctx.catalog.table(table)?;
            // Same FROM-stage charge as a seq scan: the seek's fuel
            // saving is accounted at the filter stage (the skipped rows'
            // filter units are replayed there), keeping the total ledger
            // identical to the ScanOnly baseline.
            ctx.consume_fuel(t.rows.len() as u64)?;
            let seek = seek_probe(t, index, eq, range, *ordered, *reverse, ctx);
            // A refused seek is a plain scan with no seek metadata — the
            // filter runs the baseline path and ORDER BY still sorts.
            let rows = match &seek {
                Some(seek) => seek.positions.iter().map(|&p| t.rows[p].clone()).collect(),
                None => t.rows.clone(),
            };
            Ok(FromResult {
                schema: table_schema(t, alias),
                rows,
                seek,
            })
        }
        FromPlan::Derived {
            plan,
            alias,
            columns,
            from_view,
        } => {
            let rel = exec_select_plan(plan, ctx, ctes, &[], depth)?;
            let names: Vec<String> = if columns.is_empty() {
                rel.columns.iter().map(|c| c.to_ascii_lowercase()).collect()
            } else {
                if columns.len() != rel.columns.len() {
                    return Err(Error::Catalog(format!(
                        "{alias} declares {} columns but its query returns {}",
                        columns.len(),
                        rel.columns.len()
                    )));
                }
                columns.iter().map(|c| c.to_ascii_lowercase()).collect()
            };
            let schema = Schema {
                cols: names
                    .iter()
                    .map(|name| ColMeta::new(Some(alias), name).from_view(*from_view))
                    .collect(),
            };
            Ok(FromResult {
                schema,
                rows: rel.rows,
                seek: None,
            })
        }
        FromPlan::ValuesScan {
            rows,
            alias,
            columns,
        } => {
            ctx.cov.hit(pt::EXEC_VALUES_ROWS);
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                ctx.consume_fuel(1)?;
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    let env = EvalEnv {
                        ctx,
                        scopes: &[],
                        aggs: None,
                        ctes,
                        info: ExprCtx {
                            depth,
                            ..ExprCtx::new(Clause::SelectList)
                        },
                    };
                    vals.push(eval_expr(e, env)?);
                }
                out.push(Row::new(vals));
            }
            let arity = rows.first().map(|r| r.len()).unwrap_or(0);
            let names: Vec<String> = if columns.is_empty() {
                (1..=arity).map(|i| format!("column{i}")).collect()
            } else {
                if columns.len() != arity {
                    return Err(Error::Catalog(format!(
                        "{alias} declares {} columns but VALUES has {arity}",
                        columns.len()
                    )));
                }
                columns.clone()
            };
            let schema = Schema {
                cols: names
                    .iter()
                    .map(|name| ColMeta::new(Some(alias), name))
                    .collect(),
            };
            Ok(FromResult {
                schema,
                rows: out,
                seek: None,
            })
        }
        FromPlan::CteScan { name, alias } => {
            let data = ctes
                .lookup(name)
                .ok_or_else(|| Error::Catalog(format!("no such CTE: {name}")))?;
            if data.reads.get() > 0 {
                ctx.cov.hit(pt::EXEC_CTE_REUSE);
            }
            data.reads.set(data.reads.get() + 1);
            ctx.consume_fuel(data.rel.rows.len() as u64)?;
            let schema = Schema {
                cols: data
                    .columns
                    .iter()
                    .map(|c| ColMeta::new(Some(alias), c).from_cte(true))
                    .collect(),
            };
            Ok(FromResult {
                schema,
                rows: data.rel.rows.clone(),
                seek: None,
            })
        }
        FromPlan::Join {
            kind,
            on,
            hash_keys,
            residual,
            left,
            right,
        } => {
            let l = exec_from(left, ctx, ctes, depth)?;
            let r = exec_from(right, ctx, ctes, depth)?;
            // The ON predicate reads the joined rows: never index-scanned
            // as such, CTE-sourced when either side is.
            let info = ExprCtx {
                clause: Clause::JoinOn,
                top_level: true,
                via_index: false,
                from_has_cte: from.reads_cte(),
                depth,
            };
            exec_join(
                *kind,
                on.as_ref(),
                hash_keys,
                residual.as_ref(),
                &l,
                &r,
                ctx,
                ctes,
                info,
            )
        }
        FromPlan::Filtered {
            input,
            pred,
            is_clause_root,
        } => {
            let input_res = exec_from(input, ctx, ctes, depth)?;
            // An uncached input is uniquely owned and moves out; a cached
            // (shared) one clones, which for shared rows is a refcount
            // bump per row plus the schema.
            let mut res =
                Rc::try_unwrap(input_res).unwrap_or_else(|shared| FromResult::clone(&shared));
            // A pushed predicate is still the clause's top-level
            // expression only if it was the entire WHERE clause;
            // conjunction fragments are not.
            let info = ExprCtx {
                clause: Clause::Where,
                top_level: *is_clause_root,
                via_index: input.reads_index_scan(),
                from_has_cte: input.reads_cte(),
                depth,
            };
            let prepared = Prepared::new(pred, &[&res.schema], depth, ctx)?;
            let f = Filter {
                pred: &prepared,
                schema: &res.schema,
                ctx,
                ctes,
                outer_scopes: &[],
                info,
            };
            let kept = apply_filter(f, &res.rows, Placement::Contiguous)?;
            res.rows = kept.into_iter().map(|i| res.rows[i].clone()).collect();
            Ok(res)
        }
    }
}

fn is_inequality(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Binary { op, .. }
            if matches!(op, crate::ast::BinaryOp::Lt | crate::ast::BinaryOp::Le
                | crate::ast::BinaryOp::Gt | crate::ast::BinaryOp::Ge)
    )
}

/// Concatenate two row halves into a fresh output row.
fn concat_row(l: &[Value], r: &[Value]) -> Row {
    let mut out = Vec::with_capacity(l.len() + r.len());
    out.extend_from_slice(l);
    out.extend_from_slice(r);
    Row::new(out)
}

/// A row padded with NULLs on the right (unmatched left row of an outer
/// join).
fn pad_right(l: &[Value], n: usize) -> Row {
    let mut out = Vec::with_capacity(l.len() + n);
    out.extend_from_slice(l);
    out.extend(std::iter::repeat_with(|| Value::Null).take(n));
    Row::new(out)
}

/// A row padded with NULLs on the left (unmatched right row).
fn pad_left(n: usize, r: &[Value]) -> Row {
    let mut out = Vec::with_capacity(n + r.len());
    out.extend(std::iter::repeat_with(|| Value::Null).take(n));
    out.extend_from_slice(r);
    Row::new(out)
}

#[allow(clippy::too_many_arguments)]
fn exec_join(
    kind: JoinKind,
    on: Option<&Expr>,
    hash_keys: &[(Expr, Expr)],
    residual: Option<&Expr>,
    left: &FromResult,
    right: &FromResult,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    info: ExprCtx,
) -> Result<FromResult> {
    let depth = info.depth;
    let schema = left.schema.clone().concat(right.schema.clone());
    let lw = left.schema.cols.len();
    let rw = right.schema.cols.len();

    // Crash hooks: the DuckDB IEJoin bugs (both fixed upstream; modelled
    // here as Error::Crash instead of a process abort).
    if let Some(on_expr) = on {
        if let Expr::Binary {
            op: crate::ast::BinaryOp::And,
            left: a,
            right: b,
        } = on_expr
        {
            if is_inequality(a)
                && is_inequality(b)
                && ctx.bugs.active(BugId::DuckdbCrashIEJoinRange)
            {
                return Err(Error::Crash(
                    "segmentation fault in IEJoin (index out of bounds)".into(),
                ));
            }
        }
        if is_inequality(on_expr) && ctx.bugs.active(BugId::DuckdbCrashIEJoinTypes) {
            if let (Some(lrow), Some(rrow)) = (left.rows.first(), right.rows.first()) {
                let combined = concat_row(lrow, rrow);
                if let Expr::Binary {
                    left: a, right: b, ..
                } = on_expr
                {
                    let frames = [Frame {
                        schema: &schema,
                        row: &combined,
                    }];
                    let env = EvalEnv {
                        ctx,
                        scopes: &frames,
                        aggs: None,
                        ctes,
                        info: ExprCtx {
                            depth,
                            ..ExprCtx::new(Clause::JoinOn)
                        },
                    };
                    let av = eval_expr(a, env).unwrap_or(Value::Null);
                    let bv = eval_expr(b, env).unwrap_or(Value::Null);
                    let mixed = matches!(
                        (&av, &bv),
                        (Value::Int(_), Value::Real(_)) | (Value::Real(_), Value::Int(_))
                    );
                    if mixed {
                        return Err(Error::Crash(
                            "segmentation fault in IEJoin (operand type mismatch)".into(),
                        ));
                    }
                }
            }
        }
    }

    // Bug hook: SqliteJoinOnViewLeftTrue — a *comparison* ON predicate
    // that reads a view-sourced column is treated as TRUE under outer
    // joins (the rewrite pattern-matches bare comparisons, so a folded
    // CASE predicate escapes it).
    let on_forced_true = match (on, kind) {
        (Some(pred), JoinKind::Left | JoinKind::Full)
            if ctx.bugs.active(BugId::SqliteJoinOnViewLeftTrue)
                && matches!(pred, Expr::Binary { op, .. } if op.is_comparison()) =>
        {
            pred.shallow_column_refs().iter().any(|c| {
                schema.cols.iter().any(|col| {
                    col.from_view
                        && col.name == c.column.to_ascii_lowercase()
                        && match &c.table {
                            Some(t) => {
                                col.table.as_deref() == Some(t.to_ascii_lowercase().as_str())
                            }
                            None => true,
                        }
                })
            })
        }
        _ => false,
    };

    // Hash path: the planner recognized equality keys. Falls through to
    // the nested loop when the mutant above forces the ON true (the
    // nested loop implements that), when nested loops are forced for
    // differential testing, or when the key
    // values' storage classes break hash-key transitivity at runtime.
    if !hash_keys.is_empty() && !on_forced_true && !ctx.force_nested_loop {
        if let Some(rows) = hash_join(
            kind, hash_keys, residual, left, right, &schema, ctx, ctes, depth, info,
        )? {
            return Ok(FromResult {
                schema,
                rows,
                seek: None,
            });
        }
        ctx.cov.hit(pt::EXEC_HASH_JOIN_FALLBACK);
    }

    // Bind the ON predicate once against the combined schema; the probe
    // loop below evaluates the bound form per row pair.
    let on_prepared = match on {
        Some(pred) => Some(Prepared::new(pred, &[&schema], depth, ctx)?),
        None => None,
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];

    for lrow in &left.rows {
        let mut matched = false;
        for (ri, rrow) in right.rows.iter().enumerate() {
            ctx.consume_fuel(1)?;
            let combined = concat_row(lrow, rrow);
            let is_match = if on_forced_true {
                true
            } else {
                match &on_prepared {
                    None => true,
                    Some(pred) => {
                        let frames = [Frame {
                            schema: &schema,
                            row: &combined,
                        }];
                        let env = EvalEnv {
                            ctx,
                            scopes: &frames,
                            aggs: None,
                            ctes,
                            info,
                        };
                        let v = pred.eval(env)?;
                        truthiness(&v, ctx.dialect, ctx.cov)? == Some(true)
                    }
                }
            };
            if is_match {
                ctx.cov.hit(pt::EXEC_JOIN_PROBE_MATCH);
                matched = true;
                right_matched[ri] = true;
                rows.push(combined);
            } else {
                ctx.cov.hit(pt::EXEC_JOIN_PROBE_MISS);
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            ctx.cov.hit(pt::EXEC_JOIN_PAD_LEFT);
            rows.push(pad_right(lrow, rw));
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in right.rows.iter().enumerate() {
            if !right_matched[ri] {
                ctx.cov.hit(pt::EXEC_JOIN_PAD_RIGHT);
                rows.push(pad_left(lw, rrow));
            }
        }
    }

    Ok(FromResult {
        schema,
        rows,
        seek: None,
    })
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// The largest magnitude at which every i64 is exactly representable as
/// f64 (2^53). Above it, SQL's int↔real comparison — which goes through
/// f64 — stops being transitive, so hash keying is unsound and the join
/// falls back to the nested loop.
const MAX_EXACT_INT: u64 = 1 << 53;

/// A join-key value normalized so that `JoinKey` equality coincides with
/// SQL `=` (when [`KeyClassStats::hashable`] holds for the key column).
/// NULL has no key: a NULL never equals anything, so NULL-keyed rows skip
/// the table entirely (and surface only as outer-join padding).
#[derive(PartialEq, Eq, Hash)]
enum JoinKey {
    Int(i64),
    Real(u64),
    Text(String),
    Bool(bool),
}

fn join_key(v: &Value) -> Option<JoinKey> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(JoinKey::Int(*i)),
        Value::Bool(b) => Some(JoinKey::Bool(*b)),
        Value::Text(s) => Some(JoinKey::Text(s.clone())),
        Value::Real(r) => {
            // An integral real keys with the ints it compares equal to.
            // The bit-exact round trip keeps -0.0 (not SQL-equal to
            // integer 0 under `total_cmp`) and out-of-range reals (not
            // equal to the saturated int) on distinct keys.
            let i = *r as i64;
            if (i as f64).to_bits() == r.to_bits() {
                Some(JoinKey::Int(i))
            } else {
                Some(JoinKey::Real(r.to_bits()))
            }
        }
    }
}

/// Storage classes observed across both sides of one key column. The
/// hash table is usable only when per-pair comparison is guaranteed to
/// agree with key equality in every dialect: text mixed with any other
/// class coerces pairwise (MySQL-family) or errors (strict dialects), and
/// reals mixed with over-2^53 ints compare with f64 rounding — all
/// non-transitive, all delegated to the nested loop.
#[derive(Default)]
struct KeyClassStats {
    text: bool,
    boolean: bool,
    int: bool,
    real: bool,
    big_int: bool,
    null: bool,
}

impl KeyClassStats {
    fn note(&mut self, v: &Value) {
        match v {
            Value::Null => self.null = true,
            Value::Int(i) => {
                self.int = true;
                if i.unsigned_abs() > MAX_EXACT_INT {
                    self.big_int = true;
                }
            }
            Value::Real(_) => self.real = true,
            Value::Text(_) => self.text = true,
            Value::Bool(_) => self.boolean = true,
        }
    }

    fn hashable(&self) -> bool {
        if self.text && (self.int || self.real || self.boolean) {
            return false;
        }
        !(self.real && self.big_int)
    }
}

/// Build/probe hash join over the bound key ordinals: build a `Value`-keyed
/// table on the right input, probe it with the left input, and evaluate
/// the residual ON conjuncts per key-matching candidate. Emits rows in
/// the exact order of the nested loop (left-major, right index ascending)
/// so the two strategies are row-for-row interchangeable. Returns
/// `Ok(None)` when runtime key classes force the nested-loop fallback.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    kind: JoinKind,
    hash_keys: &[(Expr, Expr)],
    residual: Option<&Expr>,
    left: &FromResult,
    right: &FromResult,
    schema: &Schema,
    ctx: &EngineCtx,
    ctes: &CteEnv,
    depth: u32,
    info: ExprCtx,
) -> Result<Option<Vec<Row>>> {
    let lw = left.schema.cols.len();
    let rw = right.schema.cols.len();
    let nkeys = hash_keys.len();
    // Key bindings are per-statement state: a join inside a correlated
    // subquery re-executes per outer row, but its keys bind once. The
    // `hash_keys` buffer lives in the (retained) plan, so its address is
    // a sound cache key under the same rules as `Prepared::new`.
    let bound_keys = get_or_build(
        &ctx.caches.join_keys,
        ctx.bindings_cacheable(depth),
        hash_keys.as_ptr() as usize,
        || {
            Ok(Rc::new(bind_join_keys(
                hash_keys,
                &left.schema,
                &right.schema,
                depth,
            )?))
        },
    )?;
    let (lbound, rbound) = (&bound_keys.0, &bound_keys.1);

    // Key expressions evaluate once per row (not per pair), in the same
    // context the nested loop hands to ON sub-expressions.
    let key_info = info.child();

    // A key-expression evaluation error aborts the hash strategy and
    // delegates to the nested loop, which reproduces the nested-loop
    // error semantics exactly: per probed pair, in left-major order —
    // and *no* error at all when the opposite side is empty.
    let mut stats: Vec<KeyClassStats> = (0..nkeys).map(|_| KeyClassStats::default()).collect();
    let eval_keys = |rows: &[Row],
                     side_schema: &Schema,
                     bound: &[BoundExpr],
                     stats: &mut [KeyClassStats]|
     -> Option<Vec<Vec<Value>>> {
        let mut out = Vec::with_capacity(rows.len());
        let mut frames = frame_stack(&[], side_schema);
        for row in rows {
            set_local_row(&mut frames, side_schema, row);
            let mut keys = Vec::with_capacity(bound.len());
            for (k, b) in bound.iter().enumerate() {
                let env = EvalEnv {
                    ctx,
                    scopes: &frames,
                    aggs: None,
                    ctes,
                    info: key_info,
                };
                match eval_bound(b, env) {
                    Ok(v) => {
                        stats[k].note(&v);
                        keys.push(v);
                    }
                    Err(_) => return None,
                }
            }
            out.push(keys);
        }
        Some(out)
    };
    let Some(rvals) = eval_keys(&right.rows, &right.schema, rbound, &mut stats) else {
        return Ok(None);
    };
    let Some(lvals) = eval_keys(&left.rows, &left.schema, lbound, &mut stats) else {
        return Ok(None);
    };
    if stats.iter().any(|s| !s.hashable()) {
        return Ok(None);
    }
    // Skip-exactness (see `recognize_hash_join`): a NULL key does not
    // short-circuit the ON conjunction, so with a residual present the
    // nested loop would still evaluate it on NULL-keyed pairs — pairs the
    // hash join never visits. Delegate those joins to the nested loop.
    if residual.is_some() && stats.iter().any(|s| s.null) {
        return Ok(None);
    }

    // Fuel is charged only once the hash path commits — a fallback must
    // not leave JoinMode::Auto with less fuel than the nested loop alone
    // would have.
    ctx.consume_fuel((left.rows.len() + right.rows.len()) as u64)?;

    // Build on the right side; duplicate keys chain in row order.
    ctx.cov.hit(pt::EXEC_HASH_JOIN_BUILD);
    let mut table: HashMap<Vec<JoinKey>, Vec<usize>> = HashMap::with_capacity(right.rows.len());
    let mut saw_null_key = false;
    'build: for (ri, keys) in rvals.iter().enumerate() {
        let mut norm = Vec::with_capacity(nkeys);
        for v in keys {
            match join_key(v) {
                Some(k) => norm.push(k),
                None => {
                    saw_null_key = true;
                    continue 'build;
                }
            }
        }
        table.entry(norm).or_default().push(ri);
    }

    // Residual ON conjuncts, bound once against the combined schema.
    // Fragments of the original conjunction are never the clause root.
    let residual_prepared = match residual {
        Some(pred) => Some(Prepared::new(pred, &[schema], depth, ctx)?),
        None => None,
    };
    let residual_info = info.child();

    let mut rows: Vec<Row> = Vec::new();
    let mut right_matched = vec![false; right.rows.len()];
    for (li, lrow) in left.rows.iter().enumerate() {
        let mut matched = false;
        let mut norm = Vec::with_capacity(nkeys);
        let mut has_null = false;
        for v in &lvals[li] {
            match join_key(v) {
                Some(k) => norm.push(k),
                None => {
                    has_null = true;
                    break;
                }
            }
        }
        if has_null {
            saw_null_key = true;
        } else if let Some(candidates) = table.get(&norm) {
            for &ri in candidates {
                ctx.consume_fuel(1)?;
                let combined = concat_row(lrow, &right.rows[ri]);
                let keep = match &residual_prepared {
                    None => true,
                    Some(pred) => {
                        let frames = [Frame {
                            schema,
                            row: &combined,
                        }];
                        let env = EvalEnv {
                            ctx,
                            scopes: &frames,
                            aggs: None,
                            ctes,
                            info: residual_info,
                        };
                        let v = pred.eval(env)?;
                        truthiness(&v, ctx.dialect, ctx.cov)? == Some(true)
                    }
                };
                if keep {
                    ctx.cov.hit(pt::EXEC_JOIN_PROBE_MATCH);
                    matched = true;
                    right_matched[ri] = true;
                    rows.push(combined);
                }
            }
        }
        if !matched {
            ctx.cov.hit(pt::EXEC_JOIN_PROBE_MISS);
            if matches!(kind, JoinKind::Left | JoinKind::Full) {
                ctx.cov.hit(pt::EXEC_JOIN_PAD_LEFT);
                rows.push(pad_right(lrow, rw));
            }
        }
    }
    if saw_null_key {
        ctx.cov.hit(pt::EXEC_HASH_JOIN_NULL_KEY);
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in right.rows.iter().enumerate() {
            if !right_matched[ri] {
                ctx.cov.hit(pt::EXEC_JOIN_PAD_RIGHT);
                rows.push(pad_left(lw, rrow));
            }
        }
    }
    Ok(Some(rows))
}
