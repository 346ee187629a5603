//! Query planning.
//!
//! The planner lowers a [`Select`] AST into a [`SelectPlan`]: views are
//! expanded, CTE references resolved, and — when optimization is enabled —
//! three rewrites run:
//!
//! 1. **constant folding** of filter expressions (the very optimization the
//!    CODDTest oracle scrutinizes from the outside),
//! 2. **predicate pushdown** through inner/cross joins,
//! 3. **index selection** (forced by `INDEXED BY`, or chosen when a
//!    top-level conjunct matches an expression index).
//!
//! NoREC's reference execution runs with `optimize = false`, skipping all
//! three. [`fingerprint`] hashes the plan *shape* (operators, join kinds,
//! access paths, expression skeletons) — the "unique query plans" metric of
//! Table 3 and Figure 3.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use crate::ast::visit::{for_each_child, for_each_child_mut};
use crate::ast::{
    BinaryOp, ColumnRef, Expr, JoinKind, OrderItem, Select, SelectBody, SelectCore, SelectItem,
    SetOp, TableExpr,
};
#[cfg(debug_assertions)]
use crate::bugs::ValidatorScope;
use crate::bugs::{BugId, BugRegistry, IndexBugId};
use crate::catalog::{Catalog, RelationKind};
use crate::coverage::{pt, Coverage};
use crate::dialect::Dialect;
use crate::error::{Error, Result};
use crate::value::Value;

/// Planning context.
pub struct PlanCtx<'a> {
    pub catalog: &'a Catalog,
    pub dialect: Dialect,
    pub bugs: &'a BugRegistry,
    pub cov: &'a Coverage,
    pub optimize: bool,
}

/// Physical FROM-clause plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FromPlan {
    /// Full scan of a base table in storage order.
    SeqScan { table: String, alias: String },
    /// Scan of a base table through an expression index: the executor
    /// evaluates the index expressions per row (the index-scan context
    /// several mutants key on) and emits rows in storage order, exactly
    /// like a sequential scan — so `ORDER BY` ties resolve the same way
    /// whether or not a predicate matched the index.
    IndexScan {
        table: String,
        alias: String,
        index: String,
    },
    /// Range/point seek on a physical ordered index (bare-column keys
    /// only). The executor probes the index's `OrdIndex` for the rows the
    /// consumed key prefix can reach; the *full* original WHERE clause is
    /// still evaluated over them, so consumed conjuncts stay in
    /// `CorePlan::where_clause` and the seek only has to be a superset-
    /// exact pre-filter (rows a consumed conjunct makes FALSE are the only
    /// ones it may skip). Each probe is a literal or an outer column
    /// ([`SeekProbe`]): a correlated subquery seeks by the current outer
    /// key on every run, and a run whose probe value is NULL or of the
    /// wrong class scans instead. Unordered seeks emit rows in storage
    /// order; `ordered` seeks emit in index-key order and license the
    /// executor to skip the ORDER BY sort.
    IndexSeek {
        table: String,
        alias: String,
        /// Index name (lowercase catalog key).
        index: String,
        /// Equality probes for the leading key columns.
        eq: Vec<SeekProbe>,
        /// Optional range probe on the next key column.
        range: Option<(BinaryOp, SeekProbe)>,
        /// Emit in index-key order (sort elimination) instead of storage
        /// order.
        ordered: bool,
        /// With `ordered`: emit key groups in descending order (DESC).
        reverse: bool,
    },
    /// A derived table (or expanded view).
    Derived {
        plan: Box<SelectPlan>,
        alias: String,
        /// Optional output column renames (view / CTE column lists).
        columns: Vec<String>,
        /// True when this node came from expanding a view reference.
        from_view: bool,
    },
    /// Table value constructor.
    ValuesScan {
        rows: Vec<Vec<Expr>>,
        alias: String,
        columns: Vec<String>,
    },
    /// Reference to a materialized CTE.
    CteScan { name: String, alias: String },
    /// Join of two FROM subtrees. The executor picks the physical
    /// strategy: when `hash_keys` is non-empty it builds a hash table on
    /// the bound key ordinals (build side = right input) and probes it
    /// with the left input; otherwise — and whenever the key values mix
    /// storage classes in a way that breaks hash-key transitivity — it
    /// runs the classic nested loop over `on`.
    Join {
        kind: JoinKind,
        on: Option<Expr>,
        /// Equi-join key pairs recognized from the ON conjunction: each
        /// `(left, right)` expression reads only its own input side.
        /// Non-empty keys select the hash-join strategy in the executor.
        hash_keys: Vec<(Expr, Expr)>,
        /// ON conjuncts not covered by `hash_keys`, evaluated per
        /// key-matching candidate pair. Always `None` when `hash_keys`
        /// is empty (the executor then evaluates `on` itself).
        residual: Option<Expr>,
        left: Box<FromPlan>,
        right: Box<FromPlan>,
    },
    /// A filter pushed below its original position. `is_clause_root` is
    /// true when the pushed predicate is the *entire* original WHERE
    /// clause (it then still evaluates as the clause's top-level
    /// expression; fragments of a conjunction do not).
    Filtered {
        input: Box<FromPlan>,
        pred: Expr,
        is_clause_root: bool,
    },
}

/// The value side of a seek's consumed conjunct `col <cmp> probe`.
#[derive(Debug, Clone, PartialEq)]
pub enum SeekProbe {
    /// A non-NULL literal.
    Literal(Value),
    /// A column qualified by an alias other than the scanned table's: it
    /// cannot resolve in the seek's own scope, so it names a column of an
    /// enclosing query (or none, and binding the WHERE clause fails). The
    /// executor reads its current value from the outer row on each run.
    Outer(ColumnRef),
}

impl FromPlan {
    /// Does any node whose rows flow into this one satisfy `f`? The walk
    /// follows joins and pushed filters; a derived table's plan is
    /// opaque.
    fn any_input<'a>(&'a self, f: &mut impl FnMut(&'a FromPlan) -> bool) -> bool {
        f(self)
            || match self {
                FromPlan::Join { left, right, .. } => left.any_input(f) || right.any_input(f),
                FromPlan::Filtered { input, .. } => input.any_input(f),
                _ => false,
            }
    }

    /// Do the rows arrive through an index scan? Seeks do not count:
    /// they hand the WHERE stage a pre-filtered row set instead.
    pub fn reads_index_scan(&self) -> bool {
        self.any_input(&mut |f| matches!(f, FromPlan::IndexScan { .. }))
    }

    /// Do the rows come (in part) from a CTE?
    pub fn reads_cte(&self) -> bool {
        self.any_input(&mut |f| matches!(f, FromPlan::CteScan { .. }))
    }

    /// Is some CTE scanned twice (a CTE joined with itself)?
    pub fn reuses_cte(&self) -> bool {
        let mut scanned = Vec::new();
        self.any_input(&mut |f| match f {
            FromPlan::CteScan { name, .. } if scanned.contains(&name) => true,
            FromPlan::CteScan { name, .. } => {
                scanned.push(name);
                false
            }
            _ => false,
        })
    }

    /// Does the subtree contain a FULL JOIN?
    pub fn has_full_join(&self) -> bool {
        self.any_input(&mut |f| {
            matches!(
                f,
                FromPlan::Join {
                    kind: JoinKind::Full,
                    ..
                }
            )
        })
    }

    /// Join nodes in the subtree, not counting those inside derived
    /// tables.
    pub fn join_count(&self) -> usize {
        match self {
            FromPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            FromPlan::Filtered { input, .. } => input.join_count(),
            _ => 0,
        }
    }
}

/// Physical plan of one select core.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePlan {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Option<FromPlan>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl CorePlan {
    /// Does the core run grouped? A GROUP BY, an aggregate in the select
    /// list or a HAVING clause makes it so; without a GROUP BY all rows
    /// form one group (SQLite semantics, bare columns from its first
    /// row).
    pub fn is_grouped(&self) -> bool {
        !self.group_by.is_empty()
            || self.having.is_some()
            || self.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
    }

    /// The GROUP BY keys, with a positional entry (`GROUP BY 2`) replaced
    /// by the select-list expression it names.
    pub fn group_keys(&self) -> Result<Vec<Expr>> {
        self.group_by
            .iter()
            .map(|g| match g {
                Expr::Literal(Value::Int(k)) => {
                    let item = usize::try_from(*k)
                        .ok()
                        .and_then(|k| self.items.get(k.checked_sub(1)?))
                        .ok_or_else(|| {
                            Error::Eval(format!("GROUP BY position {k} out of range"))
                        })?;
                    match item {
                        SelectItem::Expr { expr, .. } => Ok(expr.clone()),
                        _ => Err(Error::Eval(
                            "GROUP BY position must reference an expression".into(),
                        )),
                    }
                }
                other => Ok(other.clone()),
            })
            .collect()
    }
}

/// Physical plan of a select body.
#[allow(clippy::large_enum_variant)] // Core dominates; plans are built once per query
#[derive(Debug, Clone, PartialEq)]
pub enum BodyPlan {
    Core(CorePlan),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<BodyPlan>,
        right: Box<BodyPlan>,
    },
    Values(Vec<Vec<Expr>>),
}

/// Physical plan of a full SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// CTEs in definition order: (name, column renames, plan).
    pub ctes: Vec<(String, Vec<String>, SelectPlan)>,
    pub body: BodyPlan,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

impl SelectPlan {
    /// Count join nodes in the whole plan (hang-bug trigger input).
    pub fn join_count(&self) -> usize {
        fn from_joins(f: &FromPlan) -> usize {
            match f {
                FromPlan::Join { left, right, .. } => 1 + from_joins(left) + from_joins(right),
                FromPlan::Filtered { input, .. } => from_joins(input),
                FromPlan::Derived { plan, .. } => plan.join_count(),
                _ => 0,
            }
        }
        fn body_joins(b: &BodyPlan) -> usize {
            match b {
                BodyPlan::Core(c) => c.from.as_ref().map(from_joins).unwrap_or(0),
                BodyPlan::SetOp { left, right, .. } => body_joins(left) + body_joins(right),
                BodyPlan::Values(_) => 0,
            }
        }
        body_joins(&self.body)
            + self
                .ctes
                .iter()
                .map(|(_, _, p)| p.join_count())
                .sum::<usize>()
    }
}

/// Plan a SELECT statement. `outer_ctes` holds the CTE names visible from
/// enclosing queries (their materialized values live in the executor's CTE
/// environment).
pub fn plan_select(
    select: &Select,
    pctx: &PlanCtx,
    outer_ctes: &BTreeSet<String>,
) -> Result<SelectPlan> {
    let mut visible = outer_ctes.clone();
    let mut ctes = Vec::with_capacity(select.with.len());
    for cte in &select.with {
        // A CTE body sees previously defined CTEs (non-recursive).
        let plan = plan_select(&cte.query, pctx, &visible)?;
        visible.insert(cte.name.to_ascii_lowercase());
        ctes.push((cte.name.to_ascii_lowercase(), cte.columns.clone(), plan));
    }
    let body = plan_body(&select.body, pctx, &visible)?;
    let mut plan = SelectPlan {
        ctes,
        body,
        order_by: select.order_by.clone(),
        limit: select.limit.clone(),
        offset: select.offset.clone(),
    };
    if pctx.optimize {
        eliminate_sort(&mut plan, pctx);
    }
    // Debug builds sweep the static verifier over every plan the engine
    // produces, so the whole test + fuzz corpus exercises it for free.
    // Clean engines only: mutant-corrupted plans are invalid by design,
    // and flagging them is the campaign oracle's job, not an assertion.
    // The gate records no consult; it can change a replay's verdict only
    // when the clean engine fails this validator.
    #[cfg(debug_assertions)]
    if pctx.bugs.validator_gate(ValidatorScope::AnyMutant) {
        let violations = crate::validate::validate_plan(&plan, pctx.catalog);
        assert!(
            violations.is_empty(),
            "clean engine planned an invalid statement: {violations:?}"
        );
    }
    Ok(plan)
}

fn plan_body(body: &SelectBody, pctx: &PlanCtx, ctes: &BTreeSet<String>) -> Result<BodyPlan> {
    match body {
        SelectBody::Core(core) => Ok(BodyPlan::Core(plan_core(core, pctx, ctes)?)),
        SelectBody::SetOp {
            op,
            all,
            left,
            right,
        } => Ok(BodyPlan::SetOp {
            op: *op,
            all: *all,
            left: Box::new(plan_body(left, pctx, ctes)?),
            right: Box::new(plan_body(right, pctx, ctes)?),
        }),
        SelectBody::Values(rows) => {
            if rows.is_empty() {
                return Err(Error::Parse("VALUES requires at least one row".into()));
            }
            let arity = rows[0].len();
            if rows.iter().any(|r| r.len() != arity) {
                return Err(Error::Eval(
                    "all VALUES rows must have the same arity".into(),
                ));
            }
            Ok(BodyPlan::Values(rows.clone()))
        }
    }
}

fn plan_core(core: &SelectCore, pctx: &PlanCtx, ctes: &BTreeSet<String>) -> Result<CorePlan> {
    let mut from = match &core.from {
        Some(te) => Some(plan_table_expr(te, pctx, ctes)?),
        None => {
            pctx.cov.hit(pt::PLAN_NO_FROM);
            None
        }
    };

    let mut where_clause = core.where_clause.clone();
    let mut having = core.having.clone();

    if pctx.optimize {
        let in_join_query = from.as_ref().is_some_and(|f| f.join_count() > 0);
        if let Some(w) = &mut where_clause {
            fold_expr(w, pctx, in_join_query)?;
        }
        if let Some(h) = &mut having {
            fold_expr(h, pctx, in_join_query)?;
        }
        // Trivial-filter elimination. Strict dialects only treat BOOLEAN
        // literals as predicates; a numeric filter must still raise its
        // runtime type error, so it is never eliminated there.
        if let Some(Expr::Literal(v)) = &where_clause {
            let strict = pctx.dialect.strict_types();
            match v {
                Value::Bool(true) => {
                    pctx.cov.hit(pt::PLAN_FILTER_TRUE_ELIM);
                    where_clause = None;
                }
                Value::Int(1) if !strict => {
                    pctx.cov.hit(pt::PLAN_FILTER_TRUE_ELIM);
                    where_clause = None;
                }
                Value::Bool(false) | Value::Null => {
                    pctx.cov.hit(pt::PLAN_FILTER_FALSE);
                }
                Value::Int(0) if !strict => {
                    pctx.cov.hit(pt::PLAN_FILTER_FALSE);
                }
                _ => {}
            }
        }
        // Predicate pushdown through joins.
        if from.is_some() && where_clause.is_some() {
            let (new_from, residual) =
                push_down(from.take().unwrap(), where_clause.take().unwrap(), pctx);
            from = Some(new_from);
            where_clause = residual;
        }
        // Access-path selection on single-table scans: first try a
        // physical index seek over a sargable conjunct prefix, then the
        // expression-index scan.
        if let Some(f) = from.take() {
            let f = select_seek(f, where_clause.as_ref(), pctx);
            from = Some(select_index(f, where_clause.as_ref(), pctx)?);
        }
    }

    Ok(CorePlan {
        distinct: core.distinct,
        items: core.items.clone(),
        from,
        where_clause,
        group_by: core.group_by.clone(),
        having,
    })
}

/// Constant-fold a DML WHERE predicate (UPDATE/DELETE go through the same
/// folding pass as SELECT filters in a real planner).
pub fn fold_dml_predicate(mut expr: Expr, pctx: &PlanCtx) -> Result<Expr> {
    fold_expr(&mut expr, pctx, false)?;
    Ok(expr)
}

fn plan_table_expr(te: &TableExpr, pctx: &PlanCtx, ctes: &BTreeSet<String>) -> Result<FromPlan> {
    match te {
        TableExpr::Named {
            name,
            alias,
            indexed_by,
        } => {
            let key = name.to_ascii_lowercase();
            let alias_name = alias
                .clone()
                .unwrap_or_else(|| name.clone())
                .to_ascii_lowercase();
            if ctes.contains(&key) {
                pctx.cov.hit(pt::PLAN_CTE_SCAN);
                if indexed_by.is_some() {
                    return Err(Error::Catalog(format!(
                        "cannot use INDEXED BY on CTE {name}"
                    )));
                }
                return Ok(FromPlan::CteScan {
                    name: key,
                    alias: alias_name,
                });
            }
            match pctx.catalog.resolve_relation(name)? {
                RelationKind::Table => {
                    pctx.cov.hit(pt::PLAN_SEQ_SCAN);
                    let mut plan = FromPlan::SeqScan {
                        table: key.clone(),
                        alias: alias_name.clone(),
                    };
                    if let Some(idx) = indexed_by {
                        // INDEXED BY is a hard directive (SQLite semantics,
                        // and Listing 1's original query relies on it), so
                        // it applies with the optimizer off too.
                        let index = pctx
                            .catalog
                            .index(idx)
                            .ok_or_else(|| Error::Catalog(format!("no such index: {idx}")))?;
                        if !index.table.eq_ignore_ascii_case(name) {
                            return Err(Error::Catalog(format!(
                                "index {idx} does not belong to table {name}"
                            )));
                        }
                        pctx.cov.hit(pt::PLAN_INDEX_FORCED);
                        plan = FromPlan::IndexScan {
                            table: key,
                            alias: alias_name,
                            index: idx.to_ascii_lowercase(),
                        };
                    }
                    Ok(plan)
                }
                RelationKind::View => {
                    pctx.cov.hit(pt::PLAN_VIEW_EXPAND);
                    if indexed_by.is_some() {
                        return Err(Error::Catalog(format!(
                            "cannot use INDEXED BY on view {name}"
                        )));
                    }
                    let view = pctx.catalog.view(name).expect("resolved as view");
                    let sub = plan_select(&view.query, pctx, &BTreeSet::new())?;
                    Ok(FromPlan::Derived {
                        plan: Box::new(sub),
                        alias: alias_name,
                        columns: view.columns.clone(),
                        from_view: true,
                    })
                }
            }
        }
        TableExpr::Derived { query, alias } => {
            pctx.cov.hit(pt::PLAN_DERIVED);
            let sub = plan_select(query, pctx, ctes)?;
            Ok(FromPlan::Derived {
                plan: Box::new(sub),
                alias: alias.to_ascii_lowercase(),
                columns: Vec::new(),
                from_view: false,
            })
        }
        TableExpr::Values {
            rows,
            alias,
            columns,
        } => {
            pctx.cov.hit(pt::PLAN_VALUES_SCAN);
            if rows.is_empty() {
                return Err(Error::Parse("VALUES requires at least one row".into()));
            }
            let arity = rows[0].len();
            if rows.iter().any(|r| r.len() != arity) {
                return Err(Error::Eval(
                    "all VALUES rows must have the same arity".into(),
                ));
            }
            Ok(FromPlan::ValuesScan {
                rows: rows.clone(),
                alias: alias.to_ascii_lowercase(),
                columns: columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
            })
        }
        TableExpr::Join {
            left,
            right,
            kind,
            on,
        } => {
            pctx.cov.hit(match kind {
                JoinKind::Inner => pt::PLAN_JOIN_INNER,
                JoinKind::Left => pt::PLAN_JOIN_LEFT,
                JoinKind::Right => pt::PLAN_JOIN_RIGHT,
                JoinKind::Full => pt::PLAN_JOIN_FULL,
                JoinKind::Cross => pt::PLAN_JOIN_CROSS,
            });
            let left = Box::new(plan_table_expr(left, pctx, ctes)?);
            let right = Box::new(plan_table_expr(right, pctx, ctes)?);
            // Equi-key recognition runs with and without the optimizer:
            // the hash join is an execution strategy with semantics
            // identical to the nested loop, so NoREC's unoptimized
            // reference execution must take the same path.
            let (hash_keys, residual) = match on {
                Some(pred) => recognize_hash_join(pred, &left, &right, pctx),
                None => (Vec::new(), None),
            };
            Ok(FromPlan::Join {
                kind: *kind,
                on: on.clone(),
                hash_keys,
                residual,
                left,
                right,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant sub-expressions of a filter expression in place. Mirrors
/// the very optimization CODDTest emulates from the outside.
fn fold_expr(expr: &mut Expr, pctx: &PlanCtx, in_join_query: bool) -> Result<()> {
    // Bug hook: CockroachConstFoldNotBetweenNull — the optimizer "folds"
    // a NOT BETWEEN with a NULL bound to TRUE in join queries, although the
    // expression is not constant at all.
    if let Expr::Between {
        negated: true,
        low,
        high,
        ..
    } = &*expr
    {
        let null_bound = matches!(low.as_ref(), Expr::Literal(Value::Null))
            || matches!(high.as_ref(), Expr::Literal(Value::Null));
        if in_join_query && null_bound && pctx.bugs.active(BugId::CockroachConstFoldNotBetweenNull)
        {
            *expr = Expr::Literal(truthy_literal(pctx.dialect));
            return Ok(());
        }
    }
    // Bug hook: CockroachInternalNegMod — folding `x % -k` raises an
    // internal error.
    if let Expr::Binary {
        op: BinaryOp::Mod,
        right,
        ..
    } = &*expr
    {
        if matches!(right.as_ref(), Expr::Literal(Value::Int(k)) if *k < 0)
            && pctx.bugs.active(BugId::CockroachInternalNegMod)
        {
            return Err(Error::Internal(
                "constant folding of % with negative modulus".into(),
            ));
        }
    }

    // Bug hook companion: the Listing-9 mutant's planner cannot lower IN
    // value lists with INT8-range members, so it skips constant-folding
    // any subtree containing an IN list — keeping plan-time and run-time
    // behaviour consistent (NoREC therefore sees no asymmetry).
    if pctx.bugs.active(BugId::CockroachInBigIntValueList) && contains_in_list(expr) {
        pctx.cov.hit(pt::PLAN_FOLD_SKIPPED);
        return fold_children(expr, pctx, in_join_query);
    }

    if expr.is_constant() {
        match crate::eval::eval_const(expr, pctx) {
            Ok(v) => {
                pctx.cov.hit(pt::PLAN_FOLD_CONST);
                *expr = Expr::Literal(v);
            }
            Err(e) if e.severity() == crate::error::Severity::BugSignal => return Err(e),
            Err(_) => {
                // Expressions that error at fold time (overflow, strict type
                // mismatch, ...) are left for runtime, like real planners do.
                pctx.cov.hit(pt::PLAN_FOLD_SKIPPED);
            }
        }
        return Ok(());
    }
    fold_children(expr, pctx, in_join_query)
}

/// Fold each immediate child in source order, stopping at the first
/// error. Subqueries are planned lazily, so neither they nor the operand
/// of `IN (subquery)` / `ANY` / `ALL` are folded here; neither are
/// aggregate arguments.
fn fold_children(expr: &mut Expr, pctx: &PlanCtx, in_join_query: bool) -> Result<()> {
    if matches!(
        expr,
        Expr::InSubquery { .. } | Expr::Quantified { .. } | Expr::Agg { .. }
    ) {
        return Ok(());
    }
    let mut folded = Ok(());
    for_each_child_mut(expr, &mut |child| {
        if folded.is_ok() {
            folded = fold_expr(child, pctx, in_join_query);
        }
    });
    folded
}

fn contains_in_list(expr: &Expr) -> bool {
    let mut found = false;
    crate::ast::visit::walk_expr_shallow(expr, &mut |e| {
        if matches!(e, Expr::InList { .. }) {
            found = true;
        }
    });
    found
}

fn truthy_literal(dialect: Dialect) -> Value {
    if dialect.strict_types() {
        Value::Bool(true)
    } else {
        Value::Int(1)
    }
}

// ---------------------------------------------------------------------------
// Equi-join recognition
// ---------------------------------------------------------------------------

/// Split an ON predicate into hash-join key pairs plus a residual.
///
/// A conjunct `l = r` becomes a key pair when one side reads only the
/// left input's aliases and the other only the right input's (sides are
/// swapped into `(left, right)` order; equality is symmetric). Constant
/// sides qualify too — they hash to a single bucket, which is still
/// correct. Conjuncts with subqueries, aggregates or bare column
/// references stay in the residual, evaluated per key-matching pair.
///
/// Skip-exactness: the hash join never evaluates the residual on pairs
/// whose keys mismatch, so it must be provable that the nested loop
/// would not have evaluated it (and hence surfaced its errors or
/// subquery side effects) either. AND short-circuits only on FALSE, in
/// conjunct order — therefore key recognition stops at the first
/// residual conjunct (keys form a prefix: a false key short-circuits
/// everything after it), residuals containing subqueries veto the
/// rewrite entirely, and the executor falls back at runtime when a
/// residual coexists with NULL key values (a NULL key does not
/// short-circuit, so the nested loop would still reach the residual).
fn recognize_hash_join(
    on: &Expr,
    left: &FromPlan,
    right: &FromPlan,
    pctx: &PlanCtx,
) -> (Vec<(Expr, Expr)>, Option<Expr>) {
    let mut left_aliases = BTreeSet::new();
    let mut right_aliases = BTreeSet::new();
    collect_aliases(left, &mut left_aliases);
    collect_aliases(right, &mut right_aliases);
    // An alias visible on both sides makes side attribution ambiguous
    // (the nested loop's combined-schema binding would reject such a
    // reference; per-side binding would silently pick one) — bail out.
    if !left_aliases.is_disjoint(&right_aliases) {
        return (Vec::new(), None);
    }

    let mut keys = Vec::new();
    let mut rest = Vec::new();
    for conj in split_conjuncts(on) {
        // Keys must form a prefix of the conjunction (see doc comment).
        if rest.is_empty() {
            if let Expr::Binary {
                op: BinaryOp::Eq,
                left: l,
                right: r,
            } = &conj
            {
                if refers_only_to(l, &left_aliases) && refers_only_to(r, &right_aliases) {
                    keys.push((l.as_ref().clone(), r.as_ref().clone()));
                    continue;
                }
                if refers_only_to(l, &right_aliases) && refers_only_to(r, &left_aliases) {
                    keys.push((r.as_ref().clone(), l.as_ref().clone()));
                    continue;
                }
            }
        }
        rest.push(conj);
    }
    if keys.is_empty() || rest.iter().any(|e| e.contains_subquery()) {
        return (Vec::new(), None);
    }
    pctx.cov.hit(pt::PLAN_HASH_JOIN);
    (keys, conjoin(rest))
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Split a predicate into top-level conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

pub(crate) fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
    let mut it = parts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, Expr::and))
}

/// Aliases produced by a FROM subtree.
pub(crate) fn collect_aliases(plan: &FromPlan, out: &mut BTreeSet<String>) {
    match plan {
        FromPlan::SeqScan { alias, .. }
        | FromPlan::IndexScan { alias, .. }
        | FromPlan::IndexSeek { alias, .. }
        | FromPlan::Derived { alias, .. }
        | FromPlan::ValuesScan { alias, .. }
        | FromPlan::CteScan { alias, .. } => {
            out.insert(alias.clone());
        }
        FromPlan::Join { left, right, .. } => {
            collect_aliases(left, out);
            collect_aliases(right, out);
        }
        FromPlan::Filtered { input, .. } => collect_aliases(input, out),
    }
}

/// Can a conjunct be evaluated using only the given aliases? Conservative:
/// bare (unqualified) column references and subqueries block pushdown.
pub(crate) fn refers_only_to(expr: &Expr, aliases: &BTreeSet<String>) -> bool {
    if expr.contains_subquery() || expr.contains_aggregate() {
        return false;
    }
    expr.shallow_column_refs().iter().all(|c| match &c.table {
        Some(t) => aliases.contains(&t.to_ascii_lowercase()),
        None => false,
    })
}

/// Push WHERE conjuncts below joins where legal (inner/cross only —
/// pushing below the preserved side of an outer join changes semantics).
/// The `DuckdbPushdownLeftJoin` mutant "also" pushes below the null-padded
/// right side of a LEFT JOIN, which is exactly the illegal rewrite.
fn push_down(from: FromPlan, where_clause: Expr, pctx: &PlanCtx) -> (FromPlan, Option<Expr>) {
    let FromPlan::Join {
        kind,
        on,
        hash_keys,
        residual,
        left,
        right,
    } = from
    else {
        return (from, Some(where_clause));
    };

    let mut left_aliases = BTreeSet::new();
    let mut right_aliases = BTreeSet::new();
    collect_aliases(&left, &mut left_aliases);
    collect_aliases(&right, &mut right_aliases);

    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut residual_preds = Vec::new();

    let push_left_legal = matches!(kind, JoinKind::Inner | JoinKind::Cross);
    let conjuncts = split_conjuncts(&where_clause);
    let whole_clause = conjuncts.len() == 1;

    for conj in conjuncts {
        // The buggy LEFT-JOIN pushdown pattern-matches simple predicates;
        // CASE expressions escape it (so the CODDTest folded query stays
        // correct while the original is corrupted).
        let push_right_legal = matches!(kind, JoinKind::Inner | JoinKind::Cross)
            || (kind == JoinKind::Left
                && pctx.bugs.active(BugId::DuckdbPushdownLeftJoin)
                && !matches!(conj, Expr::Case { .. }));
        if push_left_legal && refers_only_to(&conj, &left_aliases) {
            pctx.cov.hit(pt::PLAN_PUSHDOWN_APPLIED);
            left_preds.push(conj);
        } else if push_right_legal && refers_only_to(&conj, &right_aliases) {
            pctx.cov.hit(pt::PLAN_PUSHDOWN_APPLIED);
            right_preds.push(conj);
        } else {
            if !matches!(kind, JoinKind::Inner | JoinKind::Cross)
                && (refers_only_to(&conj, &left_aliases) || refers_only_to(&conj, &right_aliases))
            {
                pctx.cov.hit(pt::PLAN_PUSHDOWN_BLOCKED_OUTER);
            }
            residual_preds.push(conj);
        }
    }

    let left = match conjoin(left_preds) {
        Some(p) => Box::new(FromPlan::Filtered {
            input: left,
            pred: p,
            is_clause_root: whole_clause,
        }),
        None => left,
    };
    let right = match conjoin(right_preds) {
        Some(p) => Box::new(FromPlan::Filtered {
            input: right,
            pred: p,
            is_clause_root: whole_clause,
        }),
        None => right,
    };
    (
        FromPlan::Join {
            kind,
            on,
            hash_keys,
            residual,
            left,
            right,
        },
        conjoin(residual_preds),
    )
}

// ---------------------------------------------------------------------------
// Index seek selection and sort elimination
// ---------------------------------------------------------------------------

/// Maximum key columns a seek consumes (a leading run of equality probes
/// with one optional trailing range probe).
pub(crate) const MAX_SEEK_KEYS: usize = 2;

/// Mutants whose trigger shapes run through the legacy indexed paths (or
/// through correlated-name planning): seek selection must not reroute
/// them, so it stands down entirely while any is active.
fn seek_gated(pctx: &PlanCtx) -> bool {
    pctx.bugs.active(BugId::SqliteAggSubqueryIndexedWhere)
        || pctx.bugs.active(BugId::SqliteIndexedCmpNullTrue)
        || pctx.bugs.active(BugId::SqliteInternalConcatIndexedExpr)
        || pctx.bugs.active(BugId::TidbCorrelatedNameCollision)
}

/// A sargable conjunct: `col <cmp> probe` (either operand order) over a
/// bare or `alias`-qualified column, where the probe is a non-NULL
/// literal or a column qualified by another alias, an outer reference
/// ([`SeekProbe`]). Returns the lowercase column name, the comparison
/// normalized to column-on-the-left, and the probe.
pub(crate) fn sargable(conj: &Expr, alias: &str) -> Option<(String, BinaryOp, SeekProbe)> {
    let Expr::Binary { op, left, right } = conj else {
        return None;
    };
    if !matches!(
        op,
        BinaryOp::Eq | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
    ) {
        return None;
    }
    let local = |c: &ColumnRef| {
        c.table
            .as_deref()
            .is_none_or(|t| t.eq_ignore_ascii_case(alias))
    };
    let col_of = |e: &Expr| -> Option<String> {
        let Expr::Column(c) = e else { return None };
        local(c).then(|| c.column.to_ascii_lowercase())
    };
    let probe_of = |e: &Expr| -> Option<SeekProbe> {
        match e {
            Expr::Literal(v) if !v.is_null() => Some(SeekProbe::Literal(v.clone())),
            Expr::Column(c) if !local(c) => Some(SeekProbe::Outer(c.clone())),
            _ => None,
        }
    };
    let flip = |op: BinaryOp| match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Le => BinaryOp::Ge,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::Ge => BinaryOp::Le,
        other => other,
    };
    if let (Some(col), Some(probe)) = (col_of(left), probe_of(right)) {
        return Some((col, *op, probe));
    }
    Some((col_of(right)?, flip(*op), probe_of(left)?))
}

/// Turn a bare single-table scan into an [`FromPlan::IndexSeek`] when a
/// *prefix* of the WHERE conjuncts probes a physical index's leading key
/// columns, each with a literal or an outer column ([`sargable`]). Only a
/// prefix qualifies: the executor's coverage/fuel replay for skipped rows
/// relies on every conjunct *before* the failing one reading key columns
/// only. The consumed conjuncts stay in the WHERE clause — the seek is a
/// pre-filter, not a substitute.
pub(crate) fn select_seek(plan: FromPlan, where_clause: Option<&Expr>, pctx: &PlanCtx) -> FromPlan {
    if seek_gated(pctx) {
        return plan;
    }
    let FromPlan::SeqScan { table, alias } = &plan else {
        return plan;
    };
    let Some(filter) = where_clause else {
        return plan;
    };
    let Ok(t) = pctx.catalog.table(table) else {
        return plan;
    };
    // Splitting clones the clause: skip it when no index could be probed.
    let indexes = pctx.catalog.indexes_for_table(table);
    if indexes.iter().all(|i| i.data.is_none()) {
        return plan;
    }
    let conjs = split_conjuncts(filter);
    // (consumed conjuncts, index name, eq-prefix probes, trailing range)
    type SeekCandidate = (usize, String, Vec<SeekProbe>, Option<(BinaryOp, SeekProbe)>);
    let mut best: Option<SeekCandidate> = None;
    for index in indexes {
        let Some(data) = &index.data else { continue };
        let mut eq = Vec::new();
        let mut range = None;
        for conj in conjs.iter().take(MAX_SEEK_KEYS) {
            let Some((col, op, v)) = sargable(conj, alias) else {
                break;
            };
            let Some(&key_col) = data.cols.get(eq.len()) else {
                break;
            };
            if !t.columns[key_col].name.eq_ignore_ascii_case(&col) {
                break;
            }
            if op == BinaryOp::Eq {
                eq.push(v);
            } else {
                // Bug hook: RangeBoundOffByOne — the planner tightens
                // inclusive range bounds to exclusive while building the
                // seek, so the corrupted bound is visible in the plan tree
                // (the WHERE clause keeps the original operator).
                let op = if pctx.bugs.active(IndexBugId::RangeBoundOffByOne) {
                    match op {
                        BinaryOp::Ge => BinaryOp::Gt,
                        BinaryOp::Le => BinaryOp::Lt,
                        o => o,
                    }
                } else {
                    op
                };
                range = Some((op, v));
                break;
            }
        }
        let consumed = eq.len() + usize::from(range.is_some());
        // Best = most consumed key columns; ties go to the first index in
        // name order (the catalog iterates name-ascending).
        if consumed > 0 && best.as_ref().is_none_or(|(c, ..)| consumed > *c) {
            best = Some((consumed, index.name.to_ascii_lowercase(), eq, range));
        }
    }
    match best {
        Some((_, index, eq, range)) => {
            pctx.cov.hit(pt::PLAN_INDEX_SEEK);
            FromPlan::IndexSeek {
                table: table.clone(),
                alias: alias.clone(),
                index,
                eq,
                range,
                ordered: false,
                reverse: false,
            }
        }
        None => plan,
    }
}

/// Satisfy ORDER BY via an ordered index seek when the emission order
/// provably equals the sorted order: single-core body, no grouping or
/// aggregation, plain bare-column output items, ORDER BY naming the
/// *full* key column list of the access path's index in order with one
/// uniform direction, and no residual WHERE work beyond the seek's
/// consumed conjuncts (index-order emission changes the row evaluation
/// order, which an erroring residual conjunct could observe).
fn eliminate_sort(plan: &mut SelectPlan, pctx: &PlanCtx) {
    if plan.order_by.is_empty() || seek_gated(pctx) {
        return;
    }
    let BodyPlan::Core(core) = &mut plan.body else {
        return;
    };
    if core.is_grouped() {
        return;
    }
    let desc = plan.order_by[0].order == crate::ast::SortOrder::Desc;
    if plan
        .order_by
        .iter()
        .any(|o| (o.order == crate::ast::SortOrder::Desc) != desc)
    {
        return;
    }
    // Every sort key must be a bare, unqualified column (the executor's
    // sort then resolves it by output name — no expression evaluation,
    // which could consume coverage the eliminated path would miss).
    let mut key_names = Vec::with_capacity(plan.order_by.len());
    for o in &plan.order_by {
        match &o.expr {
            Expr::Column(c) if c.table.is_none() => key_names.push(c.column.clone()),
            _ => return,
        }
    }
    // The access path: an existing seek whose WHERE is fully consumed, or
    // a bare scan with no WHERE at all (upgraded to a full-range seek).
    let table = match core.from.as_ref() {
        Some(FromPlan::IndexSeek {
            table, eq, range, ..
        }) => {
            let consumed = eq.len() + usize::from(range.is_some());
            let total = core
                .where_clause
                .as_ref()
                .map(|w| split_conjuncts(w).len())
                .unwrap_or(0);
            if consumed != total {
                return;
            }
            table.clone()
        }
        Some(FromPlan::SeqScan { table, .. }) => {
            if core.where_clause.is_some() {
                return;
            }
            table.clone()
        }
        _ => return,
    };
    let Ok(t) = pctx.catalog.table(&table) else {
        return;
    };
    // The output-name table the executor's sort resolves against, each
    // name mapped to its underlying storage column ordinal.
    let outputs: Vec<(&str, usize)> =
        if core.items.len() == 1 && matches!(core.items[0], SelectItem::Wildcard) {
            t.columns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name.as_str(), i))
                .collect()
        } else {
            let mut out = Vec::with_capacity(core.items.len());
            for item in &core.items {
                let SelectItem::Expr { expr, alias } = item else {
                    return;
                };
                let Expr::Column(c) = expr else { return };
                if c.table.is_some() {
                    return;
                }
                let Some(ord) = t.column_index(&c.column) else {
                    return;
                };
                out.push((alias.as_deref().unwrap_or(c.column.as_str()), ord));
            }
            out
        };
    // Resolve each ORDER BY name exactly as the executor's sort does:
    // first case-insensitive output-name match.
    let mut ordinals = Vec::with_capacity(key_names.len());
    for name in &key_names {
        let Some((_, ord)) = outputs.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) else {
            return;
        };
        ordinals.push(*ord);
    }
    match core.from.as_mut() {
        Some(FromPlan::IndexSeek {
            index,
            ordered,
            reverse,
            ..
        }) => {
            let cols_match = pctx
                .catalog
                .index(index)
                .and_then(|i| i.data.as_ref())
                .is_some_and(|d| d.cols == ordinals);
            if !cols_match {
                return;
            }
            *ordered = true;
            // Bug hook: SortElimWrongDirection — the planner eliminates a
            // DESC sort but records an ascending seek, so the wrong
            // direction is visible in the plan tree.
            *reverse = desc && !pctx.bugs.active(IndexBugId::SortElimWrongDirection);
            pctx.cov.hit(pt::PLAN_SORT_ELIM);
        }
        Some(from @ FromPlan::SeqScan { .. }) => {
            let chosen = pctx
                .catalog
                .indexes_for_table(&table)
                .into_iter()
                .find(|i| i.data.as_ref().is_some_and(|d| d.cols == ordinals));
            let Some(idx) = chosen else { return };
            let FromPlan::SeqScan { alias, .. } = &*from else {
                unreachable!()
            };
            *from = FromPlan::IndexSeek {
                table: table.clone(),
                alias: alias.clone(),
                index: idx.name.to_ascii_lowercase(),
                eq: Vec::new(),
                range: None,
                ordered: true,
                // Bug hook: SortElimWrongDirection (see the seek arm above).
                reverse: desc && !pctx.bugs.active(IndexBugId::SortElimWrongDirection),
            };
            pctx.cov.hit(pt::PLAN_INDEX_SEEK);
            pctx.cov.hit(pt::PLAN_SORT_ELIM);
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Index selection
// ---------------------------------------------------------------------------

/// Choose an index scan for a bare single-table FROM when a top-level
/// WHERE conjunct matches one of the table's expression indexes.
fn select_index(plan: FromPlan, where_clause: Option<&Expr>, pctx: &PlanCtx) -> Result<FromPlan> {
    let FromPlan::SeqScan { table, alias } = &plan else {
        return Ok(plan);
    };
    let Some(filter) = where_clause else {
        return Ok(plan);
    };
    for conj in split_conjuncts(filter) {
        for index in pctx.catalog.indexes_for_table(table) {
            if index_matches(&conj, &index.exprs[0], alias) {
                pctx.cov.hit(pt::PLAN_INDEX_SCAN);
                return Ok(FromPlan::IndexScan {
                    table: table.clone(),
                    alias: alias.clone(),
                    index: index.name.to_ascii_lowercase(),
                });
            }
        }
    }
    Ok(plan)
}

/// Does a conjunct make the given index usable? Either the conjunct *is*
/// the indexed expression, or it is a `col op literal` probe against an
/// index on `col`.
fn index_matches(conj: &Expr, index_expr: &Expr, alias: &str) -> bool {
    let norm = normalize_for_index(conj, alias);
    let idx = normalize_for_index(index_expr, alias);
    norm == idx
        || matches!(&norm, Expr::Binary { op, left, right }
            if op.is_comparison()
                && matches!(left.as_ref(), Expr::Column(_))
                && matches!(right.as_ref(), Expr::Literal(_))
                && *left.as_ref() == idx)
}

/// Strip table qualifiers equal to `alias` so index expressions (stored
/// with bare columns) compare structurally with query predicates. The
/// operand of `IN (subquery)` / `ANY` / `ALL` and aggregate arguments are
/// left as written.
fn normalize_for_index(expr: &Expr, alias: &str) -> Expr {
    fn rec(e: &mut Expr, alias: &str) {
        match e {
            Expr::Column(c) => {
                if c.table
                    .as_deref()
                    .is_some_and(|t| t.eq_ignore_ascii_case(alias))
                {
                    c.table = None;
                }
                c.column = c.column.to_ascii_lowercase();
            }
            Expr::InSubquery { .. } | Expr::Quantified { .. } | Expr::Agg { .. } => {}
            _ => for_each_child_mut(e, &mut |child| rec(child, alias)),
        }
    }
    let mut e = expr.clone();
    rec(&mut e, alias);
    e
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// Render a plan as an indented operator tree (the engine's `EXPLAIN`
/// output). The text intentionally shows what the fingerprint hashes:
/// access paths, join kinds, aggregation and subplan structure. Fails
/// where the executor would fail to lower the plan: a positional GROUP
/// BY entry that names no select-list expression.
pub fn explain(plan: &SelectPlan) -> Result<String> {
    explain_full(plan, None, VecNote::Off)
}

/// How EXPLAIN annotates clause vectorization.
#[derive(Clone, Copy)]
pub enum VecNote<'a> {
    /// No vectorization annotations (bare [`explain`]).
    Off,
    /// Vectorized evaluation disabled wholesale
    /// ([`crate::exec::EvalMode::RowAtATime`]); every clause annotates
    /// `ROW(<reason>)`.
    Disabled(&'static str),
    /// Classify each clause expression with the executor's own
    /// classifier ([`crate::vec_eval::classify`]) against the active
    /// mutant set. Runtime conditions (erroring lanes, fuel exhaustion)
    /// can still fall back; the annotation is a prediction.
    Predict {
        bugs: &'a BugRegistry,
        dialect: Dialect,
    },
}

/// How EXPLAIN renders: the catalog — when present, bare column
/// references classify against the actual columns of the subquery's
/// relations — and the vectorization annotation mode.
#[derive(Clone, Copy)]
struct ExplainCtx<'a> {
    catalog: Option<&'a Catalog>,
    vec: VecNote<'a>,
}

/// [`explain`], annotating every subquery with its predicted result-memo
/// strategy (`MEMO(full)` / `MEMO(keyed: n slots)`) and each clause
/// expression `[VEC]` or `[ROW(<reason>)]` per `vec`. The memo
/// prediction is the static mirror of the runtime correlation detector:
/// column references that cannot resolve against any relation named
/// inside the subquery are outer slots and become the memo key (the
/// runtime detector — which also sees mutant-redirected reads — stays
/// authoritative).
pub fn explain_full(plan: &SelectPlan, catalog: Option<&Catalog>, vec: VecNote) -> Result<String> {
    let mut out = String::new();
    let ectx = ExplainCtx { catalog, vec };
    explain_select(plan, 0, ectx, &mut out)?;
    out.pop(); // trailing newline
    Ok(out)
}

/// The signature of [`crate::vec_eval::classify`] and `classify_filter`.
type Classifier = fn(
    &Expr,
    &BugRegistry,
    Dialect,
    crate::exec::StmtKind,
    u32,
) -> std::result::Result<(), &'static str>;

/// The `[VEC]` / `[ROW(<reason>)]` suffix for a clause made of `exprs`
/// (a predicate, a projection's items, an aggregation's group keys):
/// `[VEC]` only when `classify` accepts every expression, else the first
/// fallback reason.
///
/// Depth 0 is correct for every clause EXPLAIN renders: derived tables
/// and CTE bodies execute at the enclosing statement's subquery depth,
/// and expression subqueries — the only depth>0 contexts — surface as
/// one-line memo notes whose internal clauses are never rendered.
fn vec_note<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    classify: Classifier,
    ectx: ExplainCtx,
) -> String {
    match ectx.vec {
        VecNote::Off => String::new(),
        VecNote::Disabled(reason) => format!(" [ROW({reason})]"),
        VecNote::Predict { bugs, dialect } => {
            let stmt = crate::exec::StmtKind::Select;
            match exprs
                .into_iter()
                .try_for_each(|e| classify(e, bugs, dialect, stmt, 0))
            {
                Ok(()) => " [VEC]".into(),
                Err(reason) => format!(" [ROW({reason})]"),
            }
        }
    }
}

/// The suffix for a WHERE or pushed filter over `input`: the filter-site
/// gate decides first, then the executor's WHERE classifier. A WHERE
/// over an index seek runs the same filter kernels as one over a scan,
/// so the note does not depend on the access mode.
fn filter_note(pred: &Expr, input: Option<&FromPlan>, ectx: ExplainCtx) -> String {
    if let VecNote::Predict { bugs, .. } = ectx.vec {
        let via_index = input.is_some_and(FromPlan::reads_index_scan);
        if let Err(reason) = crate::vec_eval::gates::filter(pred, via_index, bugs) {
            return format!(" [ROW({reason})]");
        }
    }
    vec_note([pred], crate::vec_eval::classify_filter, ectx)
}

/// The output column names a SELECT is statically known to produce.
/// Sets `unknown` when enumeration is incomplete (wildcards).
fn select_output_columns(
    q: &Select,
    out: &mut std::collections::BTreeSet<String>,
    unknown: &mut bool,
) {
    fn body_cols(
        b: &crate::ast::SelectBody,
        out: &mut std::collections::BTreeSet<String>,
        unknown: &mut bool,
    ) {
        match b {
            crate::ast::SelectBody::Core(core) => {
                for item in &core.items {
                    match item {
                        SelectItem::Expr { expr, alias } => {
                            out.insert(crate::ast::output_column_name(expr, alias.as_deref()));
                        }
                        _ => *unknown = true,
                    }
                }
            }
            crate::ast::SelectBody::SetOp { left, .. } => body_cols(left, out, unknown),
            crate::ast::SelectBody::Values(rows) => {
                let arity = rows.first().map(|r| r.len()).unwrap_or(0);
                out.extend((1..=arity).map(|i| format!("column{i}")));
            }
        }
    }
    body_cols(&q.body, out, unknown);
}

/// Collect the column names every relation inside `q` contributes —
/// what bare references can resolve against locally. Sets `unknown`
/// when some relation's columns cannot be enumerated statically.
fn local_columns(
    q: &Select,
    catalog: &Catalog,
    out: &mut std::collections::BTreeSet<String>,
    unknown: &mut bool,
) {
    for cte in &q.with {
        if cte.columns.is_empty() {
            select_output_columns(&cte.query, out, unknown);
        } else {
            out.extend(cte.columns.iter().map(|c| c.to_ascii_lowercase()));
        }
        local_columns(&cte.query, catalog, out, unknown);
    }
    fn from_cols(
        te: &crate::ast::TableExpr,
        catalog: &Catalog,
        out: &mut std::collections::BTreeSet<String>,
        unknown: &mut bool,
    ) {
        match te {
            crate::ast::TableExpr::Named { name, .. } => {
                if let Ok(t) = catalog.table(name) {
                    out.extend(t.column_names().iter().map(|c| c.to_ascii_lowercase()));
                } else if let Some(v) = catalog.view(name) {
                    if v.columns.is_empty() {
                        select_output_columns(&v.query, out, unknown);
                    } else {
                        out.extend(v.columns.iter().map(|c| c.to_ascii_lowercase()));
                    }
                } else {
                    // A CTE reference (columns collected from `with`
                    // above / the enclosing query) or a missing relation.
                    *unknown = true;
                }
            }
            crate::ast::TableExpr::Derived { query, .. } => {
                select_output_columns(query, out, unknown);
                local_columns(query, catalog, out, unknown);
            }
            crate::ast::TableExpr::Values { rows, columns, .. } => {
                if columns.is_empty() {
                    let arity = rows.first().map(|r| r.len()).unwrap_or(0);
                    out.extend((1..=arity).map(|i| format!("column{i}")));
                } else {
                    out.extend(columns.iter().map(|c| c.to_ascii_lowercase()));
                }
            }
            crate::ast::TableExpr::Join { left, right, .. } => {
                from_cols(left, catalog, out, unknown);
                from_cols(right, catalog, out, unknown);
            }
        }
    }
    fn body_from_cols(
        b: &crate::ast::SelectBody,
        catalog: &Catalog,
        out: &mut std::collections::BTreeSet<String>,
        unknown: &mut bool,
    ) {
        match b {
            crate::ast::SelectBody::Core(core) => {
                if let Some(f) = &core.from {
                    from_cols(f, catalog, out, unknown);
                }
            }
            crate::ast::SelectBody::SetOp { left, right, .. } => {
                body_from_cols(left, catalog, out, unknown);
                body_from_cols(right, catalog, out, unknown);
            }
            crate::ast::SelectBody::Values(_) => {}
        }
    }
    body_from_cols(&q.body, catalog, out, unknown);
    crate::ast::visit::walk_select_exprs(q, &mut |e| {
        if let Expr::InSubquery { query, .. }
        | Expr::Exists { query, .. }
        | Expr::Scalar(query)
        | Expr::Quantified { query, .. } = e
        {
            let mut nested_unknown = false;
            body_from_cols(&query.body, catalog, out, &mut nested_unknown);
            if nested_unknown {
                *unknown = true;
            }
        }
    });
}

/// Collect every relation name or alias defined anywhere inside a
/// subquery (its FROM trees, CTE names, and nested subqueries) — the
/// names local column references can resolve against.
fn local_aliases(q: &Select, out: &mut std::collections::BTreeSet<String>) {
    for cte in &q.with {
        out.insert(cte.name.to_ascii_lowercase());
        local_aliases(&cte.query, out);
    }
    fn from_aliases(te: &crate::ast::TableExpr, out: &mut std::collections::BTreeSet<String>) {
        match te {
            crate::ast::TableExpr::Named { name, alias, .. } => {
                out.insert(
                    alias
                        .as_deref()
                        .unwrap_or(name.as_str())
                        .to_ascii_lowercase(),
                );
            }
            crate::ast::TableExpr::Derived { alias, query } => {
                out.insert(alias.to_ascii_lowercase());
                local_aliases(query, out);
            }
            crate::ast::TableExpr::Values { alias, .. } => {
                out.insert(alias.to_ascii_lowercase());
            }
            crate::ast::TableExpr::Join { left, right, .. } => {
                from_aliases(left, out);
                from_aliases(right, out);
            }
        }
    }
    fn body_aliases(b: &crate::ast::SelectBody, out: &mut std::collections::BTreeSet<String>) {
        match b {
            crate::ast::SelectBody::Core(core) => {
                if let Some(f) = &core.from {
                    from_aliases(f, out);
                }
            }
            crate::ast::SelectBody::SetOp { left, right, .. } => {
                body_aliases(left, out);
                body_aliases(right, out);
            }
            crate::ast::SelectBody::Values(_) => {}
        }
    }
    body_aliases(&q.body, out);
    // Nested subqueries introduce their own scopes; their aliases are
    // still "inside" q for the purpose of q's outer slots.
    crate::ast::visit::walk_select_exprs(q, &mut |e| {
        if let Expr::InSubquery { query, .. }
        | Expr::Exists { query, .. }
        | Expr::Scalar(query)
        | Expr::Quantified { query, .. } = e
        {
            let mut nested = std::collections::BTreeSet::new();
            body_aliases(&query.body, &mut nested);
            for cte in &query.with {
                nested.insert(cte.name.to_ascii_lowercase());
            }
            out.extend(nested);
        }
    });
}

/// Statically count a subquery's outer slots: distinct qualified column
/// references whose qualifier names no relation inside the subquery,
/// plus bare references that name no column of any local relation (when
/// the catalog lets those columns be enumerated — and every bare
/// reference for FROM-less probes). The runtime detector — which also
/// sees reads the name-collision mutant redirects — is authoritative;
/// this is the planner's prediction for EXPLAIN.
fn static_outer_slots(q: &Select, catalog: Option<&Catalog>) -> usize {
    let mut aliases = std::collections::BTreeSet::new();
    local_aliases(q, &mut aliases);
    // Bare references resolve against the local columns when these are
    // statically enumerable; otherwise they are assumed local.
    let mut cols = std::collections::BTreeSet::new();
    let mut cols_unknown = catalog.is_none();
    if let Some(catalog) = catalog {
        local_columns(q, catalog, &mut cols, &mut cols_unknown);
    }
    let mut outer: std::collections::BTreeSet<(String, String)> = std::collections::BTreeSet::new();
    crate::ast::visit::walk_select_exprs(q, &mut |e| {
        if let Expr::Column(c) = e {
            let col = c.column.to_ascii_lowercase();
            match &c.table {
                Some(t) => {
                    let t = t.to_ascii_lowercase();
                    if !aliases.contains(&t) {
                        outer.insert((t, col));
                    }
                }
                None => {
                    if aliases.is_empty() || (!cols_unknown && !cols.contains(&col)) {
                        outer.insert((String::new(), col));
                    }
                }
            }
        }
    });
    outer.len()
}

/// The EXPLAIN annotation line for one subquery.
fn memo_note(q: &Select, ectx: ExplainCtx) -> String {
    match static_outer_slots(q, ectx.catalog) {
        0 => "SUBQUERY MEMO(full)".into(),
        n => format!("SUBQUERY MEMO(keyed: {n} slots)"),
    }
}

/// Append one annotation line per subquery directly inside `e`.
fn memo_notes(e: &Expr, indent: usize, ectx: ExplainCtx, out: &mut String) {
    crate::ast::visit::walk_expr_shallow(e, &mut |node| {
        if let Expr::InSubquery { query, .. }
        | Expr::Exists { query, .. }
        | Expr::Scalar(query)
        | Expr::Quantified { query, .. } = node
        {
            pad(indent, out);
            out.push_str(&memo_note(query, ectx));
            out.push('\n');
        }
    });
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn explain_select(
    plan: &SelectPlan,
    indent: usize,
    ectx: ExplainCtx,
    out: &mut String,
) -> Result<()> {
    for (name, _, cte) in &plan.ctes {
        pad(indent, out);
        out.push_str(&format!("MATERIALIZE CTE {name}\n"));
        explain_select(cte, indent + 1, ectx, out)?;
    }
    if !plan.order_by.is_empty() {
        pad(indent, out);
        out.push_str(&format!("SORT ({} key(s))\n", plan.order_by.len()));
    }
    if plan.limit.is_some() || plan.offset.is_some() {
        pad(indent, out);
        out.push_str("LIMIT/OFFSET\n");
    }
    explain_body(&plan.body, indent, ectx, out)
}

fn explain_body(body: &BodyPlan, indent: usize, ectx: ExplainCtx, out: &mut String) -> Result<()> {
    match body {
        BodyPlan::Core(core) => {
            pad(indent, out);
            let grouped = core.is_grouped();
            let mut label = String::from("PROJECT");
            if core.distinct {
                label.push_str(" DISTINCT");
            }
            // Grouped cores project per group (row-at-a-time by design);
            // the vectorization note then sits on AGGREGATE.
            let proj_note = if grouped {
                String::new()
            } else {
                vec_note(
                    core.items.iter().filter_map(|i| match i {
                        SelectItem::Expr { expr, .. } => Some(expr),
                        _ => None,
                    }),
                    crate::vec_eval::classify,
                    ectx,
                )
            };
            out.push_str(&format!(
                "{label} ({} item(s)){proj_note}\n",
                core.items.len()
            ));
            for item in &core.items {
                if let SelectItem::Expr { expr, .. } = item {
                    memo_notes(expr, indent + 1, ectx, out);
                }
            }
            if grouped {
                pad(indent + 1, out);
                let keys = core.group_keys()?;
                out.push_str(&format!(
                    "AGGREGATE (group by {} expr(s){}){}\n",
                    keys.len(),
                    if core.having.is_some() {
                        ", having"
                    } else {
                        ""
                    },
                    vec_note(&keys, crate::vec_eval::classify, ectx)
                ));
                if let Some(h) = &core.having {
                    memo_notes(h, indent + 2, ectx, out);
                }
            }
            if let Some(w) = &core.where_clause {
                pad(indent + 1, out);
                let note = filter_note(w, core.from.as_ref(), ectx);
                out.push_str(&format!("FILTER {w}{note}\n"));
                memo_notes(w, indent + 2, ectx, out);
            }
            match &core.from {
                Some(f) => explain_from(f, indent + 1, ectx, out)?,
                None => {
                    pad(indent + 1, out);
                    out.push_str("SINGLE ROW\n");
                }
            }
        }
        BodyPlan::SetOp {
            op,
            all,
            left,
            right,
        } => {
            pad(indent, out);
            out.push_str(&format!(
                "{}{}\n",
                op.sql_name(),
                if *all { " ALL" } else { "" }
            ));
            explain_body(left, indent + 1, ectx, out)?;
            explain_body(right, indent + 1, ectx, out)?;
        }
        BodyPlan::Values(rows) => {
            pad(indent, out);
            out.push_str(&format!("VALUES ({} row(s))\n", rows.len()));
        }
    }
    Ok(())
}

fn explain_from(from: &FromPlan, indent: usize, ectx: ExplainCtx, out: &mut String) -> Result<()> {
    match from {
        FromPlan::SeqScan { table, alias } => {
            pad(indent, out);
            out.push_str(&format!("SCAN {table} AS {alias}\n"));
        }
        FromPlan::IndexScan {
            table,
            alias,
            index,
        } => {
            pad(indent, out);
            out.push_str(&format!("INDEX SCAN {table} AS {alias} USING {index}\n"));
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
            pad(indent, out);
            let n = eq.len() + usize::from(range.is_some());
            let shape = if range.is_some() {
                "range"
            } else if eq.is_empty() {
                "full"
            } else {
                "point"
            };
            out.push_str(&format!(
                "INDEX SEEK {table} AS {alias} USING {index} ({n} key(s), {shape}{}{})\n",
                if *ordered { ", ordered" } else { "" },
                if *reverse { ", reverse" } else { "" }
            ));
        }
        FromPlan::Derived {
            plan,
            alias,
            from_view,
            ..
        } => {
            pad(indent, out);
            out.push_str(&format!(
                "{} {alias}\n",
                if *from_view { "VIEW" } else { "DERIVED" }
            ));
            explain_select(plan, indent + 1, ectx, out)?;
        }
        FromPlan::ValuesScan { rows, alias, .. } => {
            pad(indent, out);
            out.push_str(&format!("VALUES SCAN {alias} ({} row(s))\n", rows.len()));
        }
        FromPlan::CteScan { name, alias } => {
            pad(indent, out);
            out.push_str(&format!("CTE SCAN {name} AS {alias}\n"));
        }
        FromPlan::Join {
            kind,
            on,
            hash_keys,
            left,
            right,
            ..
        } => {
            pad(indent, out);
            let strategy = if hash_keys.is_empty() {
                "NESTED LOOP".to_string()
            } else {
                format!("HASH ({} key(s))", hash_keys.len())
            };
            out.push_str(&format!(
                "{strategy} {}{}\n",
                kind.sql_name(),
                on.as_ref().map(|o| format!(" ON {o}")).unwrap_or_default()
            ));
            if let Some(on) = on {
                memo_notes(on, indent + 1, ectx, out);
            }
            explain_from(left, indent + 1, ectx, out)?;
            explain_from(right, indent + 1, ectx, out)?;
        }
        FromPlan::Filtered { input, pred, .. } => {
            pad(indent, out);
            let note = filter_note(pred, Some(input), ectx);
            out.push_str(&format!("PUSHED FILTER {pred}{note}\n"));
            memo_notes(pred, indent + 1, ectx, out);
            explain_from(input, indent + 1, ectx, out)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Plan fingerprints
// ---------------------------------------------------------------------------

/// Hash the *plan-relevant* shape of a plan: operators, join kinds,
/// access paths, aggregation structure — and, crucially, the recursive
/// shapes of embedded subqueries, which real planners compile into
/// distinct subplans. Pure scalar expression structure (`a+b > c` vs
/// `a*b < c`) does **not** contribute: a real DBMS executes both with the
/// same plan. This is what makes subquery-bearing workloads cover vastly
/// more unique plans (Table 3, Figure 3).
pub fn fingerprint(plan: &SelectPlan) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    hash_select(plan, &mut h);
    h.finish()
}

fn hash_select(plan: &SelectPlan, h: &mut impl Hasher) {
    0xA0u8.hash(h);
    plan.ctes.len().hash(h);
    for (name, cols, p) in &plan.ctes {
        name.hash(h);
        cols.len().hash(h);
        hash_select(p, h);
    }
    hash_body(&plan.body, h);
    plan.order_by.len().hash(h);
    for o in &plan.order_by {
        (o.order == crate::ast::SortOrder::Desc).hash(h);
        hash_expr_shape(&o.expr, h);
    }
    plan.limit.is_some().hash(h);
    plan.offset.is_some().hash(h);
}

fn hash_body(body: &BodyPlan, h: &mut impl Hasher) {
    match body {
        BodyPlan::Core(core) => {
            0xB0u8.hash(h);
            core.distinct.hash(h);
            core.items.len().hash(h);
            for item in &core.items {
                match item {
                    SelectItem::Wildcard => 0u8.hash(h),
                    SelectItem::TableWildcard(_) => 1u8.hash(h),
                    SelectItem::Expr { expr, .. } => {
                        2u8.hash(h);
                        hash_expr_shape(expr, h);
                    }
                }
            }
            match &core.from {
                Some(f) => {
                    1u8.hash(h);
                    hash_from(f, h);
                }
                None => 0u8.hash(h),
            }
            match &core.where_clause {
                Some(w) => {
                    1u8.hash(h);
                    hash_expr_shape(w, h);
                }
                None => 0u8.hash(h),
            }
            core.group_by.len().hash(h);
            for g in &core.group_by {
                hash_expr_shape(g, h);
            }
            core.having.is_some().hash(h);
            if let Some(having) = &core.having {
                hash_expr_shape(having, h);
            }
        }
        BodyPlan::SetOp {
            op,
            all,
            left,
            right,
        } => {
            0xB1u8.hash(h);
            (*op as u8).hash(h);
            all.hash(h);
            hash_body(left, h);
            hash_body(right, h);
        }
        BodyPlan::Values(rows) => {
            0xB2u8.hash(h);
            rows.len().hash(h);
            rows.first().map(|r| r.len()).unwrap_or(0).hash(h);
        }
    }
}

fn hash_from(from: &FromPlan, h: &mut impl Hasher) {
    match from {
        FromPlan::SeqScan { table, .. } => {
            0xC0u8.hash(h);
            table.hash(h);
        }
        FromPlan::IndexScan { table, index, .. } => {
            0xC1u8.hash(h);
            table.hash(h);
            index.hash(h);
        }
        FromPlan::IndexSeek {
            table,
            index,
            eq,
            range,
            ordered,
            reverse,
            ..
        } => {
            // Shape only: key arity and range operator, never the probe
            // constants (real planners share a plan across parameters).
            0xC7u8.hash(h);
            table.hash(h);
            index.hash(h);
            eq.len().hash(h);
            match range {
                Some((op, _)) => {
                    1u8.hash(h);
                    (*op as u8).hash(h);
                }
                None => 0u8.hash(h),
            }
            ordered.hash(h);
            reverse.hash(h);
        }
        FromPlan::Derived {
            plan, from_view, ..
        } => {
            0xC2u8.hash(h);
            from_view.hash(h);
            hash_select(plan, h);
        }
        FromPlan::ValuesScan { rows, .. } => {
            0xC3u8.hash(h);
            rows.len().hash(h);
        }
        FromPlan::CteScan { name, .. } => {
            0xC4u8.hash(h);
            name.hash(h);
        }
        FromPlan::Join {
            kind,
            on,
            left,
            right,
            ..
        } => {
            0xC5u8.hash(h);
            (*kind as u8).hash(h);
            match on {
                Some(on) => {
                    1u8.hash(h);
                    hash_expr_shape(on, h);
                }
                None => 0u8.hash(h),
            }
            hash_from(left, h);
            hash_from(right, h);
        }
        FromPlan::Filtered { input, pred, .. } => {
            0xC6u8.hash(h);
            hash_expr_shape(pred, h);
            hash_from(input, h);
        }
    }
}

/// Contribute an expression's *plan-relevant* structure to the hash.
///
/// Real planners compile scalar arithmetic into opaque filter/projection
/// programs: `a+b > c` and `a*b < c` execute with the same plan. What
/// changes the plan is relational structure — subqueries (each becomes a
/// subplan, with its own access paths), `EXISTS`/`IN`/quantified operators
/// (semi-join strategies), and which relations a predicate touches. Only
/// those contribute here; everything else hashes to a fixed token.
pub fn hash_expr_shape(expr: &Expr, h: &mut impl Hasher) {
    let mut subqueries: Vec<(u8, &Select)> = Vec::new();
    collect_plan_relevant(expr, &mut subqueries);
    subqueries.len().hash(h);
    for (kind, q) in subqueries {
        kind.hash(h);
        hash_select_shape(q, h);
    }
}

/// Collect the subquery-bearing nodes of an expression, each after the
/// nodes of its own children (not descending into the subqueries
/// themselves — their structure is hashed recursively via
/// `hash_select_shape`).
fn collect_plan_relevant<'a>(expr: &'a Expr, out: &mut Vec<(u8, &'a Select)>) {
    for_each_child(expr, &mut |child| collect_plan_relevant(child, out));
    match expr {
        Expr::InSubquery { query, .. } => out.push((1, query)),
        Expr::Exists { query, .. } => out.push((2, query)),
        Expr::Scalar(query) => out.push((3, query)),
        Expr::Quantified {
            quantifier, query, ..
        } => out.push((4 + *quantifier as u8, query)),
        _ => {}
    }
}

/// Hash the plan shape of an un-planned subquery (the planner plans
/// subqueries lazily, so fingerprints use the AST's relational structure:
/// FROM shape, aggregation, set operations, and nested subqueries).
fn hash_select_shape(select: &Select, h: &mut impl Hasher) {
    0xD0u8.hash(h);
    select.with.len().hash(h);
    for cte in &select.with {
        hash_select_shape(&cte.query, h);
    }
    fn table(te: &crate::ast::TableExpr, h: &mut impl Hasher) {
        match te {
            crate::ast::TableExpr::Named {
                name, indexed_by, ..
            } => {
                0u8.hash(h);
                name.to_ascii_lowercase().hash(h);
                indexed_by.is_some().hash(h);
            }
            crate::ast::TableExpr::Derived { query, .. } => {
                1u8.hash(h);
                hash_select_shape(query, h);
            }
            crate::ast::TableExpr::Values { rows, .. } => {
                2u8.hash(h);
                rows.first().map(|r| r.len()).unwrap_or(0).hash(h);
            }
            crate::ast::TableExpr::Join {
                left,
                right,
                kind,
                on,
            } => {
                3u8.hash(h);
                (*kind as u8).hash(h);
                table(left, h);
                table(right, h);
                if let Some(on) = on {
                    hash_expr_shape(on, h);
                }
            }
        }
    }
    fn body(b: &SelectBody, h: &mut impl Hasher) {
        match b {
            SelectBody::Core(c) => {
                0u8.hash(h);
                c.distinct.hash(h);
                c.items.len().hash(h);
                let aggregated = c.items.iter().any(|i| match i {
                    SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                    _ => false,
                });
                aggregated.hash(h);
                for item in &c.items {
                    if let SelectItem::Expr { expr, .. } = item {
                        hash_expr_shape(expr, h);
                    }
                }
                match &c.from {
                    Some(f) => {
                        1u8.hash(h);
                        table(f, h);
                    }
                    None => 0u8.hash(h),
                }
                match &c.where_clause {
                    Some(w) => {
                        1u8.hash(h);
                        hash_expr_shape(w, h);
                    }
                    None => 0u8.hash(h),
                }
                c.group_by.len().hash(h);
                c.having.is_some().hash(h);
                if let Some(hv) = &c.having {
                    hash_expr_shape(hv, h);
                }
            }
            SelectBody::SetOp {
                op,
                all,
                left,
                right,
            } => {
                1u8.hash(h);
                (*op as u8).hash(h);
                all.hash(h);
                body(left, h);
                body(right, h);
            }
            SelectBody::Values(rows) => {
                2u8.hash(h);
                rows.len().hash(h);
            }
        }
    }
    body(&select.body, h);
    select.order_by.len().hash(h);
    select.limit.is_some().hash(h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::value::DataType;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "t0",
            vec![
                ColumnDef {
                    name: "c0".into(),
                    ty: DataType::Int,
                    not_null: false,
                },
                ColumnDef {
                    name: "c1".into(),
                    ty: DataType::Int,
                    not_null: false,
                },
            ],
            false,
        )
        .unwrap();
        cat.create_index("i0", "t0", vec![Expr::bare_col("c0")], false)
            .unwrap();
        cat
    }

    fn pctx<'a>(
        cat: &'a Catalog,
        bugs: &'a BugRegistry,
        cov: &'a Coverage,
        optimize: bool,
    ) -> PlanCtx<'a> {
        PlanCtx {
            catalog: cat,
            dialect: Dialect::Sqlite,
            bugs,
            cov,
            optimize,
        }
    }

    fn simple_select(where_clause: Option<Expr>) -> Select {
        Select::from_core(SelectCore {
            items: vec![SelectItem::Wildcard],
            from: Some(TableExpr::named("t0")),
            where_clause,
            ..SelectCore::default()
        })
    }

    #[test]
    fn index_selected_for_matching_probe() {
        // A bare-column index on the probed column upgrades the scan to
        // a range seek (the IndexScan remains for expression indexes —
        // see `expr_index_keeps_index_scan`).
        let cat = setup();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, true);
        let sel = simple_select(Some(Expr::bin(
            BinaryOp::Gt,
            Expr::col("t0", "c0"),
            Expr::lit(5i64),
        )));
        let plan = plan_select(&sel, &ctx, &BTreeSet::new()).unwrap();
        match plan.body {
            BodyPlan::Core(c) => match c.from {
                Some(FromPlan::IndexSeek {
                    ref eq,
                    ref range,
                    ordered,
                    reverse,
                    ..
                }) => {
                    assert!(eq.is_empty());
                    assert!(matches!(
                        range,
                        Some((BinaryOp::Gt, SeekProbe::Literal(Value::Int(5))))
                    ));
                    assert!(!ordered);
                    assert!(!reverse);
                }
                ref other => panic!("expected IndexSeek, got {other:?}"),
            },
            _ => panic!("expected core"),
        }
    }

    #[test]
    fn expr_index_keeps_index_scan() {
        // Expression indexes have no physical ordered structure: the
        // probe-match heuristic still picks the IndexScan.
        let mut cat = setup();
        cat.create_index(
            "i1",
            "t0",
            vec![Expr::bin(
                BinaryOp::Gt,
                Expr::bare_col("c1"),
                Expr::lit(0i64),
            )],
            false,
        )
        .unwrap();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, true);
        let sel = simple_select(Some(Expr::bin(
            BinaryOp::Gt,
            Expr::col("t0", "c1"),
            Expr::lit(0i64),
        )));
        let plan = plan_select(&sel, &ctx, &BTreeSet::new()).unwrap();
        match plan.body {
            BodyPlan::Core(c) => {
                assert!(matches!(c.from, Some(FromPlan::IndexScan { .. })));
            }
            _ => panic!("expected core"),
        }
    }

    #[test]
    fn no_index_without_optimizer() {
        let cat = setup();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, false);
        let sel = simple_select(Some(Expr::bin(
            BinaryOp::Gt,
            Expr::col("t0", "c0"),
            Expr::lit(5i64),
        )));
        let plan = plan_select(&sel, &ctx, &BTreeSet::new()).unwrap();
        match plan.body {
            BodyPlan::Core(c) => assert!(matches!(c.from, Some(FromPlan::SeqScan { .. }))),
            _ => panic!("expected core"),
        }
    }

    #[test]
    fn constant_filter_folds_and_eliminates() {
        let cat = setup();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, true);
        let sel = simple_select(Some(Expr::bin(
            BinaryOp::Lt,
            Expr::lit(1i64),
            Expr::lit(2i64),
        )));
        let plan = plan_select(&sel, &ctx, &BTreeSet::new()).unwrap();
        match plan.body {
            BodyPlan::Core(c) => assert!(c.where_clause.is_none(), "TRUE filter eliminated"),
            _ => panic!("expected core"),
        }
        // Folding enters a comparison's operands, but neither the operand
        // of an IN subquery nor an aggregate's argument.
        let folded = |sql: &str| {
            let sel = crate::parser::parse_select(sql).unwrap();
            match plan_select(&sel, &ctx, &BTreeSet::new()).unwrap().body {
                BodyPlan::Core(c) => (c.where_clause, c.having),
                _ => panic!("expected core"),
            }
        };
        let expr = |sql: &str| Some(crate::parser::parse_expr(sql).unwrap());
        assert_eq!(
            folded("SELECT * FROM t0 WHERE c1 > 1 + 1").0,
            expr("c1 > 2")
        );
        assert_eq!(
            folded("SELECT * FROM t0 WHERE (1 + 1) IN (SELECT c0 FROM t0)").0,
            expr("(1 + 1) IN (SELECT c0 FROM t0)")
        );
        assert_eq!(
            folded("SELECT COUNT(*) FROM t0 HAVING SUM(1 + 1) > 1 + 1").1,
            expr("SUM(1 + 1) > 2")
        );
    }

    #[test]
    fn fingerprints_are_plan_relevant() {
        let cat = setup();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, false);
        let plan_of =
            |e: Expr| plan_select(&simple_select(Some(e)), &ctx, &BTreeSet::new()).unwrap();
        // Scalar expression differences do NOT change the plan (a real
        // DBMS runs `c1 = 1` and `c1 < 999` with the same scan + filter).
        let a = plan_of(Expr::eq(Expr::col("t0", "c1"), Expr::lit(1i64)));
        let b = plan_of(Expr::bin(
            BinaryOp::Lt,
            Expr::col("t0", "c1"),
            Expr::lit(999i64),
        ));
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "scalar shape is not plan-relevant"
        );
        // A subquery embeds a subplan and does change the fingerprint; two
        // structurally different subqueries differ from each other too.
        let sub1 = Select::scalar_probe(Expr::lit(1i64));
        let mut sub2 = Select::from_core(SelectCore {
            items: vec![SelectItem::Expr {
                expr: Expr::count_star(),
                alias: None,
            }],
            from: Some(TableExpr::named("t0")),
            ..SelectCore::default()
        });
        let c = plan_of(Expr::eq(Expr::Scalar(Box::new(sub1)), Expr::lit(1i64)));
        let d = plan_of(Expr::eq(
            Expr::Scalar(Box::new(sub2.clone())),
            Expr::lit(1i64),
        ));
        assert_ne!(
            fingerprint(&a),
            fingerprint(&c),
            "subquery changes the plan"
        );
        assert_ne!(
            fingerprint(&c),
            fingerprint(&d),
            "different subplans differ"
        );
        // Aggregation structure inside the subquery is plan-relevant.
        sub2.core_mut().unwrap().group_by = vec![Expr::col("t0", "c0")];
        let e = plan_of(Expr::eq(Expr::Scalar(Box::new(sub2)), Expr::lit(1i64)));
        assert_ne!(
            fingerprint(&d),
            fingerprint(&e),
            "GROUP BY changes the subplan"
        );
    }

    #[test]
    fn pushdown_through_inner_join_only() {
        let mut cat = setup();
        cat.create_table(
            "t1",
            vec![ColumnDef {
                name: "c0".into(),
                ty: DataType::Int,
                not_null: false,
            }],
            false,
        )
        .unwrap();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, true);
        let join = TableExpr::Join {
            left: Box::new(TableExpr::named("t0")),
            right: Box::new(TableExpr::named("t1")),
            kind: JoinKind::Left,
            on: Some(Expr::eq(Expr::col("t0", "c0"), Expr::col("t1", "c0"))),
        };
        let sel = Select::from_core(SelectCore {
            items: vec![SelectItem::Wildcard],
            from: Some(join),
            where_clause: Some(Expr::is_null(Expr::col("t1", "c0"))),
            ..SelectCore::default()
        });
        let plan = plan_select(&sel, &ctx, &BTreeSet::new()).unwrap();
        match plan.body {
            BodyPlan::Core(c) => {
                // LEFT JOIN blocks pushdown of the right-side predicate.
                assert!(c.where_clause.is_some());
                match c.from.unwrap() {
                    FromPlan::Join { right, .. } => {
                        assert!(matches!(*right, FromPlan::SeqScan { .. }))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            _ => panic!("expected core"),
        }
    }

    #[test]
    fn pushdown_bug_pushes_below_left_join() {
        let mut cat = setup();
        cat.create_table(
            "t1",
            vec![ColumnDef {
                name: "c0".into(),
                ty: DataType::Int,
                not_null: false,
            }],
            false,
        )
        .unwrap();
        let mut bugs = BugRegistry::none();
        bugs.enable(BugId::DuckdbPushdownLeftJoin);
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, true);
        let join = TableExpr::Join {
            left: Box::new(TableExpr::named("t0")),
            right: Box::new(TableExpr::named("t1")),
            kind: JoinKind::Left,
            on: Some(Expr::eq(Expr::col("t0", "c0"), Expr::col("t1", "c0"))),
        };
        let sel = Select::from_core(SelectCore {
            items: vec![SelectItem::Wildcard],
            from: Some(join),
            where_clause: Some(Expr::is_null(Expr::col("t1", "c0"))),
            ..SelectCore::default()
        });
        let plan = plan_select(&sel, &ctx, &BTreeSet::new()).unwrap();
        match plan.body {
            BodyPlan::Core(c) => {
                assert!(c.where_clause.is_none(), "predicate illegally pushed");
                match c.from.unwrap() {
                    FromPlan::Join { right, .. } => {
                        assert!(matches!(*right, FromPlan::Filtered { .. }))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            _ => panic!("expected core"),
        }
    }

    #[test]
    fn indexed_by_unknown_index_errors() {
        let cat = setup();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let ctx = pctx(&cat, &bugs, &cov, true);
        let sel = Select::from_core(SelectCore {
            items: vec![SelectItem::Wildcard],
            from: Some(TableExpr::Named {
                name: "t0".into(),
                alias: None,
                indexed_by: Some("nope".into()),
            }),
            ..SelectCore::default()
        });
        assert!(matches!(
            plan_select(&sel, &ctx, &BTreeSet::new()),
            Err(Error::Catalog(_))
        ));
    }
}
