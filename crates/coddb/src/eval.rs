//! Scalar expression evaluation.
//!
//! Implements SQL three-valued logic, dialect-dependent coercion rules
//! (§3.3 of the paper: SQLite/MySQL convert freely, CockroachDB/DuckDB are
//! strict), subquery evaluation (delegated back to [`crate::exec`]), and
//! most of the injected logic-bug trigger points.
//!
//! The evaluator operates on the *bound* expression form
//! ([`crate::bind::BoundExpr`]): column references are `(scope hop,
//! ordinal)` pairs resolved once per query by the binder, so
//! [`eval_bound`] performs no name resolution — and no heap allocation
//! for it — per row. [`eval_expr`] is the bind-and-evaluate convenience
//! wrapper for expressions evaluated once per statement.
//!
//! Evaluation threads an [`ExprCtx`] carrying the *context* of the
//! expression — clause, statement kind, whether rows arrived via an index
//! scan, whether the FROM reads a CTE, and the subquery nesting depth.
//! Real DBMS logic bugs are context-sensitive in exactly these dimensions,
//! which is what the mutants key on.
//!
//! ## Value rules
//!
//! What one operator or function makes of its operand *values* —
//! truthiness, comparison, arithmetic, casts, text conversion, LIKE, IN,
//! BETWEEN and the function bodies — lives in one place: the `pub(crate)`
//! rule functions below ([`truthiness`], [`compare`], `eval_arith`,
//! `eval_cast`, `func_value`, ...). The interpreter calls them once
//! per row and the chunk kernels ([`crate::vec_eval`]) once per lane, so
//! the two evaluators cannot drift apart. A rule takes the dialect and the
//! [`Coverage`] to record into, returns the interpreter's `Result`, and
//! never reads the clause context: the mutant hooks, which do, stay at
//! their call sites in [`eval_bound`].

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::ast::{AggFunc, BinaryOp, Expr, FuncName, Quantifier, SelectBody, UnaryOp};
use crate::bind::{Binder, BoundExpr};
use crate::bugs::BugId;
use crate::coverage::{pt, Coverage};
use crate::dialect::Dialect;
use crate::error::{Error, Result};
use crate::exec::{EngineCtx, EvalEnv, StmtKind};
use crate::plan::PlanCtx;
use crate::value::{DataType, Value};

/// Which clause an expression is being evaluated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    Where,
    SelectList,
    JoinOn,
    Having,
    GroupBy,
    OrderBy,
    IndexExpr,
    Limit,
    /// Planner-side constant folding (no clause-specific bugs fire here).
    ConstFold,
}

/// Context of the expression being evaluated.
#[derive(Debug, Clone, Copy)]
pub struct ExprCtx {
    pub clause: Clause,
    /// True only for the root node of the clause's expression.
    pub top_level: bool,
    /// Rows reaching this expression came through an index scan.
    pub via_index: bool,
    /// The enclosing FROM clause reads at least one CTE.
    pub from_has_cte: bool,
    /// Subquery nesting depth of the enclosing SELECT (0 = top statement).
    pub depth: u32,
}

impl ExprCtx {
    pub fn new(clause: Clause) -> Self {
        ExprCtx {
            clause,
            top_level: true,
            via_index: false,
            from_has_cte: false,
            depth: 0,
        }
    }

    /// Context for child sub-expressions: everything is inherited except
    /// `top_level`.
    pub fn child(self) -> Self {
        ExprCtx {
            top_level: false,
            ..self
        }
    }
}

/// SQL truth values.
pub type Bool3 = Option<bool>;

/// Convert a value to a SQL truth value under the dialect.
#[inline]
pub fn truthiness(v: &Value, dialect: Dialect, cov: &Coverage) -> Result<Bool3> {
    match v {
        Value::Null => {
            cov.hit(pt::EVAL_TRUTHY_NULL);
            Ok(None)
        }
        Value::Bool(b) => {
            cov.hit(pt::EVAL_TRUTHY_BOOL);
            Ok(Some(*b))
        }
        other => {
            if dialect.strict_types() {
                return Err(Error::Type(format!(
                    "expected a boolean predicate, got {}",
                    other.data_type()
                )));
            }
            cov.hit(pt::EVAL_TRUTHY_NUMERIC);
            Ok(Some(other.coerce_f64() != 0.0))
        }
    }
}

/// Render a truth value as a SQL value (INTEGER 0/1 on flexible-typing
/// dialects, BOOLEAN on strict ones — matching what the emulated systems
/// return for comparisons).
#[inline]
pub fn bool3_to_value(b: Bool3, dialect: Dialect) -> Value {
    match b {
        None => Value::Null,
        Some(t) => {
            if dialect.strict_types() {
                Value::Bool(t)
            } else {
                Value::Int(t as i64)
            }
        }
    }
}

fn not3(b: Bool3) -> Bool3 {
    b.map(|t| !t)
}

/// Evaluate a constant expression during planning. The expression is
/// bound against an empty scope stack (constants reference no columns).
pub fn eval_const(expr: &Expr, pctx: &PlanCtx) -> Result<Value> {
    let ctx = EngineCtx::new(
        pctx.catalog,
        pctx.dialect,
        pctx.bugs,
        pctx.cov,
        false,
        StmtKind::Select,
        u64::MAX,
    );
    let ctes = crate::exec::CteEnv::root();
    let env = EvalEnv {
        ctx: &ctx,
        scopes: &[],
        aggs: None,
        ctes: &ctes,
        info: ExprCtx::new(Clause::ConstFold),
    };
    eval_expr(expr, env)
}

/// Bind and evaluate an AST expression in one step.
///
/// This re-resolves every column name on every call, so the executor
/// uses it only for expressions evaluated once per statement; hot loops
/// bind once with [`Binder`] and then call [`eval_bound`] per row.
pub fn eval_expr(expr: &Expr, env: EvalEnv) -> Result<Value> {
    let schemas: Vec<&crate::exec::Schema> = env.scopes.iter().map(|f| f.schema).collect();
    let mut binder = Binder::new(&schemas, env.info.depth);
    let bound = binder.bind(expr)?;
    eval_bound(&bound, env)
}

/// Evaluate a bound expression under the given environment.
pub fn eval_bound(expr: &BoundExpr, env: EvalEnv) -> Result<Value> {
    let ctx = env.ctx;
    match expr {
        BoundExpr::Literal(v) => {
            ctx.cov.hit(pt::EVAL_LITERAL);
            Ok(v.clone())
        }
        BoundExpr::Column(c) => {
            // The binder resolved the name once; the per-row work is an
            // optional bug-hook branch plus two indexed loads.
            let (mut up, mut index) = (c.up as usize, c.index as usize);
            if let Some((alt_up, alt_index)) = c.collision_alt {
                if ctx.bugs.active(BugId::TidbCorrelatedNameCollision) {
                    up = alt_up as usize;
                    index = alt_index as usize;
                }
            }
            ctx.cov.hit(if up == 0 {
                pt::EVAL_COLUMN_LOCAL
            } else {
                pt::EVAL_COLUMN_OUTER
            });
            let fi = env.scopes.len() - 1 - up;
            // Correlation detector for subquery result memoization: a read
            // below the enclosing subquery's scope floor is an outer read
            // and joins the memo key's slot set — including reads the
            // name-collision mutant redirects.
            ctx.note_column_read(fi, index);
            let frame = &env.scopes[fi];
            Ok(frame.row[index].clone())
        }
        BoundExpr::Unary { op, expr } => {
            let v = eval_bound(expr, env.child())?;
            eval_unary(*op, &v, ctx.dialect, ctx.cov)
        }
        BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, env),
        BoundExpr::Between {
            expr: e,
            low,
            high,
            negated,
        } => {
            ctx.cov.hit(if *negated {
                pt::EVAL_BETWEEN_NEG
            } else {
                pt::EVAL_BETWEEN
            });
            let v = eval_bound(e, env.child())?;
            let lo = eval_bound(low, env.child())?;
            let hi = eval_bound(high, env.child())?;
            // Bug hook: SqliteBetweenTextAffinity — a top-level BETWEEN on
            // a TEXT value with numeric bounds wrongly applies numeric
            // affinity (SQLite's correct storage-class comparison places
            // any TEXT above any number, so the range never matches).
            if ctx.bugs.active(BugId::SqliteBetweenTextAffinity)
                && env.info.top_level
                && env.info.clause == Clause::Where
                && ctx.stmt == StmtKind::Select
                && !*negated
                && matches!(v, Value::Text(_))
            {
                if let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) {
                    let x = v.coerce_f64();
                    return Ok(bool3_to_value(Some(x >= lo && x <= hi), ctx.dialect));
                }
            }
            between_value(&v, &lo, &hi, *negated, ctx.dialect)
        }
        BoundExpr::InList {
            expr: e,
            list,
            negated,
        } => eval_in_list(e, list, *negated, env),
        BoundExpr::InSubquery {
            expr: e,
            query,
            negated,
        } => {
            let v = eval_bound(e, env.child())?;
            let rel = crate::exec::exec_subquery(query, env)?;
            if !rel.rows.is_empty() && rel.columns.len() != 1 {
                return Err(Error::SubqueryCardinality(
                    "IN subquery must return one column".into(),
                ));
            }
            // SQL: `x IN (empty set)` is FALSE even for NULL x.
            if rel.rows.is_empty() {
                ctx.cov.hit(pt::EVAL_IN_SUBQ_MISS);
                return Ok(bool3_to_value(Some(*negated), ctx.dialect));
            }
            // A fully memoized result answers by binary search where the
            // value classes allow it (`cache::Membership`).
            let memo = ctx.caches.subq_entry(&query.entry);
            let b = match memo.and_then(|m| m.memo_in(&rel, &v)) {
                Some(b) => b,
                None => {
                    let mut any_null = false;
                    let mut hit = false;
                    for row in &rel.rows {
                        match compare(&v, &row[0], ctx.dialect)? {
                            Some(Ordering::Equal) => {
                                hit = true;
                                break;
                            }
                            None => any_null = true,
                            _ => {}
                        }
                    }
                    if hit {
                        Some(true)
                    } else if v.is_null() || any_null {
                        None
                    } else {
                        Some(false)
                    }
                }
            };
            ctx.cov.hit(match b {
                Some(true) => pt::EVAL_IN_SUBQ_HIT,
                None => pt::EVAL_IN_SUBQ_NULL,
                Some(false) => pt::EVAL_IN_SUBQ_MISS,
            });
            Ok(bool3_to_value(
                if *negated { not3(b) } else { b },
                ctx.dialect,
            ))
        }
        BoundExpr::Exists { query, negated } => {
            let rel = crate::exec::exec_subquery(query, env)?;
            let mut exists = !rel.rows.is_empty();
            // Bug hook: SqliteExistsJoinOnEmpty — an empty EXISTS inside a
            // JOIN ON clause is treated as TRUE (Listing 8).
            if ctx.bugs.active(BugId::SqliteExistsJoinOnEmpty)
                && env.info.clause == Clause::JoinOn
                && !exists
            {
                exists = true;
            }
            ctx.cov.hit(if exists {
                pt::EVAL_EXISTS_TRUE
            } else {
                pt::EVAL_EXISTS_FALSE
            });
            Ok(bool3_to_value(Some(exists != *negated), ctx.dialect))
        }
        BoundExpr::Scalar {
            query,
            has_aggregate,
        } => {
            // Bug hook: SqliteAggSubqueryIndexedWhere (Listing 1) — an
            // aggregate subquery with GROUP BY in the WHERE of an
            // index-scanned query is misevaluated. The trigger shape is
            // precomputed by the binder.
            if ctx.bugs.active(BugId::SqliteAggSubqueryIndexedWhere)
                && env.info.clause == Clause::Where
                && env.info.via_index
                && *has_aggregate
            {
                return Ok(Value::Int(1));
            }
            let rel = crate::exec::exec_subquery(query, env)?;
            if rel.rows.is_empty() {
                ctx.cov.hit(pt::EVAL_SCALAR_SUBQ_EMPTY);
                return Ok(Value::Null);
            }
            if rel.rows.len() > 1 {
                return Err(Error::SubqueryCardinality(
                    "subquery returns more than 1 row".into(),
                ));
            }
            if rel.columns.len() != 1 {
                return Err(Error::SubqueryCardinality(
                    "operand should contain 1 column".into(),
                ));
            }
            ctx.cov.hit(pt::EVAL_SCALAR_SUBQ);
            Ok(rel.rows[0][0].clone())
        }
        BoundExpr::Quantified {
            op,
            quantifier,
            expr: e,
            query,
        } => {
            if !ctx.dialect.supports_quantified() {
                return Err(Error::Unsupported(format!(
                    "{} does not support ANY/ALL",
                    ctx.dialect
                )));
            }
            let v = eval_bound(e, env.child())?;
            let rel = crate::exec::exec_subquery(query, env)?;
            if !rel.rows.is_empty() && rel.columns.len() != 1 {
                return Err(Error::SubqueryCardinality(
                    "quantified subquery must return one column".into(),
                ));
            }
            let mut quant = *quantifier;
            // Bug hook: CockroachAnyNonValuesSubquery — ANY evaluates with
            // ALL semantics unless the subquery is a bare VALUES list.
            if ctx.bugs.active(BugId::CockroachAnyNonValuesSubquery)
                && quant == Quantifier::Any
                && !matches!(query.ast.body, SelectBody::Values(_))
            {
                quant = Quantifier::All;
            }
            ctx.cov.hit(match quant {
                Quantifier::Any => pt::EVAL_QUANT_ANY,
                Quantifier::All => pt::EVAL_QUANT_ALL,
            });
            let mut any_null = false;
            let mut any_true = false;
            let mut any_false = false;
            for row in &rel.rows {
                match compare(&v, &row[0], ctx.dialect)? {
                    None => any_null = true,
                    Some(ord) => {
                        if cmp_matches(op.as_binary(), ord) {
                            any_true = true;
                        } else {
                            any_false = true;
                        }
                    }
                }
            }
            let b = match quant {
                Quantifier::Any => {
                    if any_true {
                        Some(true)
                    } else if any_null {
                        None
                    } else {
                        Some(false)
                    }
                }
                Quantifier::All => {
                    if any_false {
                        Some(false)
                    } else if any_null {
                        None
                    } else {
                        Some(true)
                    }
                }
            };
            Ok(bool3_to_value(b, ctx.dialect))
        }
        BoundExpr::Case {
            operand,
            whens,
            else_expr,
            then_subquery,
        } => {
            // Bug hook: TidbInternalCaseManyWhens.
            if whens.len() > 8 && ctx.bugs.active(BugId::TidbInternalCaseManyWhens) {
                return Err(Error::Internal(
                    "CASE arm limit exceeded in plan cache".into(),
                ));
            }
            // Bug hook: DuckdbCaseSubqueryElse — a THEN arm containing a
            // subquery makes the CASE take the ELSE arm (shape precomputed
            // by the binder).
            if else_expr.is_some()
                && *then_subquery
                && ctx.bugs.active(BugId::DuckdbCaseSubqueryElse)
            {
                ctx.cov.hit(pt::EVAL_CASE_ELSE);
                return eval_bound(else_expr.as_ref().unwrap(), env.child());
            }
            match operand {
                Some(op) => {
                    ctx.cov.hit(pt::EVAL_CASE_OPERAND);
                    let base = eval_bound(op, env.child())?;
                    for (w, t) in whens {
                        let wv = eval_bound(w, env.child())?;
                        if compare(&base, &wv, ctx.dialect)? == Some(Ordering::Equal) {
                            return eval_bound(t, env.child());
                        }
                    }
                }
                None => {
                    ctx.cov.hit(pt::EVAL_CASE_SEARCHED);
                    for (w, t) in whens {
                        // Bug hook: CockroachCaseNullFromCte (Listing 7) —
                        // `WHEN NULL` takes the THEN branch when the query
                        // reads from a CTE.
                        if env.info.from_has_cte
                            && matches!(w, BoundExpr::Literal(Value::Null))
                            && ctx.bugs.active(BugId::CockroachCaseNullFromCte)
                        {
                            return eval_bound(t, env.child());
                        }
                        let wv = eval_bound(w, env.child())?;
                        if truthiness(&wv, ctx.dialect, ctx.cov)? == Some(true) {
                            return eval_bound(t, env.child());
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => {
                    ctx.cov.hit(pt::EVAL_CASE_ELSE);
                    eval_bound(e, env.child())
                }
                None => {
                    ctx.cov.hit(pt::EVAL_CASE_NO_MATCH);
                    Ok(Value::Null)
                }
            }
        }
        BoundExpr::Func { func, args } => eval_func(*func, args, env),
        BoundExpr::Agg { slot, .. } => match env.aggs {
            Some(aggs) => aggs
                .get(*slot as usize)
                .cloned()
                .ok_or_else(|| Error::Internal("aggregate value not precomputed".into())),
            None => Err(Error::Eval("misuse of aggregate function".into())),
        },
        BoundExpr::Cast { expr: e, ty } => {
            let v = eval_bound(e, env.child())?;
            let cast = eval_cast(&v, *ty, ctx.dialect, ctx.cov);
            // Bug hook: CockroachInternalCastTextInt — a TEXT that fails
            // to parse as INT raises an internal error.
            if let (Err(_), DataType::Int, Value::Text(s)) = (&cast, ty, &v) {
                if ctx.bugs.active(BugId::CockroachInternalCastTextInt) {
                    return Err(Error::Internal(format!(
                        "could not lower cast of {s:?} to INT"
                    )));
                }
            }
            cast
        }
        BoundExpr::IsNull { expr: e, negated } => {
            let v = eval_bound(e, env.child())?;
            let mut b = v.is_null();
            // Bug hook: TidbIsNullTopLevelInverted.
            if ctx.bugs.active(BugId::TidbIsNullTopLevelInverted)
                && env.info.top_level
                && env.info.clause == Clause::Where
                && !matches!(e.as_ref(), BoundExpr::Literal(_))
            {
                b = !b;
            }
            Ok(bool3_to_value(Some(b != *negated), ctx.dialect))
        }
        BoundExpr::Like {
            expr: e,
            pattern,
            negated,
        } => {
            let v = eval_bound(e, env.child())?;
            let p = eval_bound(pattern, env.child())?;
            let Some((text, pat)) = like_operands(&v, &p, ctx.dialect, ctx.cov)? else {
                return Ok(Value::Null);
            };
            // Bug hook: TidbInternalLikeEscape.
            if ctx.bugs.active(BugId::TidbInternalLikeEscape) && pat.ends_with('\\') {
                return Err(Error::Internal("dangling escape in LIKE pattern".into()));
            }
            // Bug hook: DuckdbHangLikePercents.
            if ctx.bugs.active(BugId::DuckdbHangLikePercents) && pat.contains("%%%") {
                return Err(Error::Hang);
            }
            let mut case_insensitive = ctx.dialect.like_case_insensitive();
            // Bug hook: SqliteLikeCaseFold — top-level LIKE in a SELECT's
            // WHERE matches case-sensitively.
            if ctx.bugs.active(BugId::SqliteLikeCaseFold)
                && env.info.top_level
                && env.info.clause == Clause::Where
                && ctx.stmt == StmtKind::Select
            {
                case_insensitive = false;
            }
            // Bug hook: DuckdbNotLikeTopLevel — top-level NOT LIKE in WHERE
            // evaluates as plain LIKE.
            let negated = *negated
                && !(ctx.bugs.active(BugId::DuckdbNotLikeTopLevel)
                    && env.info.top_level
                    && env.info.clause == Clause::Where);
            Ok(like_value(
                &text,
                &pat,
                case_insensitive,
                negated,
                ctx.dialect,
                ctx.cov,
            ))
        }
    }
}

fn and3(a: Bool3, b: Bool3) -> Bool3 {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Bool3, b: Bool3) -> Bool3 {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn eval_binary(op: BinaryOp, left: &BoundExpr, right: &BoundExpr, env: EvalEnv) -> Result<Value> {
    let ctx = env.ctx;
    let (dialect, cov) = (ctx.dialect, ctx.cov);
    match op {
        BinaryOp::And | BinaryOp::Or => {
            // Bug hook: CockroachOrShortCircuitFalse — a top-level OR in a
            // SELECT's WHERE whose left arm is a constant FALSE literal
            // short-circuits the whole filter to FALSE.
            if op == BinaryOp::Or
                && ctx.bugs.active(BugId::CockroachOrShortCircuitFalse)
                && env.info.top_level
                && env.info.clause == Clause::Where
                && ctx.stmt == StmtKind::Select
            {
                if let BoundExpr::Literal(v) = left {
                    if matches!(v, Value::Bool(false) | Value::Int(0)) {
                        return Ok(bool3_to_value(Some(false), dialect));
                    }
                }
            }
            let lb = truthiness(&eval_bound(left, env.child())?, dialect, cov)?;
            if lb == short_circuit_truth(op) {
                cov.hit(if op == BinaryOp::And {
                    pt::EVAL_AND_SHORT
                } else {
                    pt::EVAL_OR_SHORT
                });
                return Ok(bool3_to_value(lb, dialect));
            }
            let rb = truthiness(&eval_bound(right, env.child())?, dialect, cov)?;
            Ok(and_or_value(op, lb, rb, dialect, cov))
        }
        BinaryOp::Is | BinaryOp::IsNot => {
            cov.hit(pt::EVAL_IS_OP);
            let lv = eval_bound(left, env.child())?;
            let rv = eval_bound(right, env.child())?;
            Ok(is_value(op, &lv, &rv, dialect))
        }
        _ if op.is_comparison() => {
            let lv = eval_bound(left, env.child())?;
            let rv = eval_bound(right, env.child())?;
            // Bug hook: DuckdbSubqueryBoolCoerce — a boolean result of a
            // scalar subquery is "coerced" before the comparison,
            // inverting it.
            let lv = coerce_subquery_bool(lv, left, ctx);
            let rv = coerce_subquery_bool(rv, right, ctx);
            let ord = compare_with_bugs(&lv, &rv, ctx, env)?;
            Ok(cmp_value(op, ord, dialect, cov))
        }
        BinaryOp::Concat => {
            cov.hit(pt::EVAL_CONCAT);
            let lv = eval_bound(left, env.child())?;
            let rv = eval_bound(right, env.child())?;
            // Bug hook: SqliteInternalConcatIndexedExpr.
            if ctx.bugs.active(BugId::SqliteInternalConcatIndexedExpr)
                && env.info.clause == Clause::IndexExpr
                && matches!(
                    (&lv, &rv),
                    (Value::Text(_), Value::Real(_)) | (Value::Real(_), Value::Text(_))
                )
            {
                return Err(Error::Internal(
                    "affinity confusion in indexed expression".into(),
                ));
            }
            eval_concat(&lv, &rv, dialect)
        }
        _ => {
            debug_assert!(op.is_arithmetic());
            let lv = eval_bound(left, env.child())?;
            let rv = eval_bound(right, env.child())?;
            let out = eval_arith(op, &lv, &rv, dialect, cov);
            // Bug hook: DuckdbInternalOverflowAddProj (Listing 11) —
            // overflow in a projection raises an internal error instead
            // of a clean one (`+` fails with `Error::Eval` only on
            // overflow).
            if let (Err(Error::Eval(_)), Some(a), Some(b)) = (&out, lv.as_i64(), rv.as_i64()) {
                if op == BinaryOp::Add
                    && ctx.bugs.active(BugId::DuckdbInternalOverflowAddProj)
                    && env.info.clause == Clause::SelectList
                {
                    return Err(Error::Internal(format!(
                        "Overflow in addition of INT64 ({a} + {b})!"
                    )));
                }
            }
            out
        }
    }
}

/// The left-operand truth value that decides `AND` (FALSE) or `OR`
/// (TRUE) without evaluating the right operand.
#[inline]
pub(crate) fn short_circuit_truth(op: BinaryOp) -> Bool3 {
    Some(op == BinaryOp::Or)
}

/// `AND` / `OR` over two truth values (the left one did not
/// short-circuit).
#[inline]
pub(crate) fn and_or_value(
    op: BinaryOp,
    l: Bool3,
    r: Bool3,
    dialect: Dialect,
    cov: &Coverage,
) -> Value {
    let b = if op == BinaryOp::And {
        and3(l, r)
    } else {
        or3(l, r)
    };
    if b.is_none() {
        cov.hit(if op == BinaryOp::And {
            pt::EVAL_AND_NULL
        } else {
            pt::EVAL_OR_NULL
        });
    }
    bool3_to_value(b, dialect)
}

/// `IS` / `IS NOT`: identity, so `NULL IS NULL` holds.
#[inline]
pub(crate) fn is_value(op: BinaryOp, a: &Value, b: &Value, dialect: Dialect) -> Value {
    bool3_to_value(Some(a.is_identical(b) == (op == BinaryOp::Is)), dialect)
}

/// Unary `-` and `NOT`.
pub(crate) fn eval_unary(
    op: UnaryOp,
    v: &Value,
    dialect: Dialect,
    cov: &Coverage,
) -> Result<Value> {
    match op {
        UnaryOp::Neg => {
            cov.hit(pt::EVAL_NEG);
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => i
                    .checked_neg()
                    .map(Value::Int)
                    .ok_or_else(|| Error::Eval("integer overflow in negation".into())),
                Value::Real(r) => Ok(Value::Real(-r)),
                other if dialect.strict_types() => {
                    Err(Error::Type(format!("cannot negate {}", other.data_type())))
                }
                other => Ok(Value::Real(-other.coerce_f64())),
            }
        }
        UnaryOp::Not => {
            cov.hit(pt::EVAL_NOT);
            let b = truthiness(v, dialect, cov)?;
            Ok(bool3_to_value(not3(b), dialect))
        }
    }
}

fn coerce_subquery_bool(v: Value, e: &BoundExpr, ctx: &EngineCtx) -> Value {
    if matches!(e, BoundExpr::Scalar { .. }) && ctx.bugs.active(BugId::DuckdbSubqueryBoolCoerce) {
        // The modelled bug mishandles the subquery's return type before a
        // comparison: booleans invert, integers come back sign-flipped.
        match v {
            Value::Bool(b) => return Value::Bool(!b),
            Value::Int(i) => return Value::Int(-i),
            other => return other,
        }
    }
    v
}

pub(crate) fn cmp_matches(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::Ne => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Le => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Ge => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// A comparison's result from its operands' ordering (`None`: a NULL
/// operand).
#[inline]
pub(crate) fn cmp_value(
    op: BinaryOp,
    ord: Option<Ordering>,
    dialect: Dialect,
    cov: &Coverage,
) -> Value {
    let b = ord.map(|o| cmp_matches(op, o));
    cov.hit(match b {
        Some(true) => pt::EVAL_CMP_TRUE,
        Some(false) => pt::EVAL_CMP_FALSE,
        None => pt::EVAL_CMP_NULL,
    });
    bool3_to_value(b, dialect)
}

/// Dialect-aware SQL comparison.
///
/// * Strict dialects demand compatible operand classes.
/// * MySQL/TiDB coerce TEXT numerically when compared with a number.
/// * SQLite compares across storage classes by class rank.
#[inline]
pub fn compare(a: &Value, b: &Value, dialect: Dialect) -> Result<Option<Ordering>> {
    // Numeric pairs and TEXT pairs compare the same way in every dialect
    // (strict dialects accept them, MySQL-family coercion only touches
    // TEXT against a number): these arms are `sql_cmp` without the class
    // dispatch below.
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => return Ok(None),
        (Value::Int(x), Value::Int(y)) => return Ok(Some(x.cmp(y))),
        (Value::Int(x), Value::Real(y)) => return Ok(Some((*x as f64).total_cmp(y))),
        (Value::Real(x), Value::Int(y)) => return Ok(Some(x.total_cmp(&(*y as f64)))),
        (Value::Real(x), Value::Real(y)) => return Ok(Some(x.total_cmp(y))),
        (Value::Text(x), Value::Text(y)) => return Ok(Some(x.cmp(y))),
        _ => {}
    }
    let (at, bt) = (a.data_type(), b.data_type());
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Real | DataType::Bool);
    if dialect.strict_types() {
        let compatible = at == bt || (numeric(at) && numeric(bt));
        if !compatible {
            return Err(Error::Type(format!("cannot compare {at} with {bt}")));
        }
    }
    // MySQL-family numeric coercion of text.
    if matches!(dialect, Dialect::Mysql | Dialect::Tidb) {
        let is_text = |v: &Value| matches!(v, Value::Text(_));
        if (is_text(a) && numeric(bt)) || (numeric(at) && is_text(b)) {
            return Ok(Some(a.coerce_f64().total_cmp(&b.coerce_f64())));
        }
    }
    Ok(a.sql_cmp(b))
}

/// Does the pair compare TEXT with a number? The pairs the MySQL
/// cross-type rules of `compare_with_bugs` act on.
pub(crate) fn text_number_pair(a: &Value, b: &Value) -> bool {
    let is_text = |v: &Value| matches!(v, Value::Text(_));
    let is_num = |v: &Value| matches!(v, Value::Int(_) | Value::Real(_));
    (is_text(a) && is_num(b)) || (is_num(a) && is_text(b))
}

fn compare_with_bugs(
    a: &Value,
    b: &Value,
    ctx: &EngineCtx,
    env: EvalEnv,
) -> Result<Option<Ordering>> {
    // MySQL dialect rule (not a bug): cross-type TEXT/number comparisons
    // are rejected in UPDATE/DELETE (§4.2: the DQE semantic-error case).
    if ctx.dialect == Dialect::Mysql
        && matches!(ctx.stmt, StmtKind::Update | StmtKind::Delete)
        && env.info.clause == Clause::Where
        && text_number_pair(a, b)
    {
        return Err(Error::Type(
            "cross-type comparison is not permitted in UPDATE/DELETE".into(),
        ));
    }
    // Bug hook: MysqlTextIntCompareWhere — a top-level TEXT-vs-INT
    // comparison in a WHERE filter compares by storage class instead of
    // coercing numerically.
    if ctx.bugs.active(BugId::MysqlTextIntCompareWhere)
        && env.info.top_level
        && env.info.clause == Clause::Where
        && text_number_pair(a, b)
    {
        return Ok(a.sql_cmp(b)); // class-rank comparison: text > number
    }
    compare(a, b, ctx.dialect)
}

/// `v [NOT] BETWEEN lo AND hi`.
pub(crate) fn between_value(
    v: &Value,
    lo: &Value,
    hi: &Value,
    negated: bool,
    dialect: Dialect,
) -> Result<Value> {
    let ge_low = compare(v, lo, dialect)?.map(|o| o != Ordering::Less);
    let le_high = compare(v, hi, dialect)?.map(|o| o != Ordering::Greater);
    let b = and3(ge_low, le_high);
    Ok(bool3_to_value(if negated { not3(b) } else { b }, dialect))
}

fn eval_in_list(e: &BoundExpr, list: &[BoundExpr], negated: bool, env: EvalEnv) -> Result<Value> {
    let ctx = env.ctx;
    let v = eval_bound(e, env.child())?;

    // Bug hook: TidbInValueListWhere (Listing 10) — a top-level IN value
    // list in a WHERE filter evaluates to FALSE (in every statement kind,
    // which is why DQE cannot see it).
    if ctx.bugs.active(BugId::TidbInValueListWhere)
        && env.info.top_level
        && env.info.clause == Clause::Where
        && !negated
    {
        return Ok(bool3_to_value(Some(false), ctx.dialect));
    }

    // Evaluate all items up front (lists are short); the Listing-9 bug
    // hook below is keyed on the item *values*.
    let mut items = Vec::with_capacity(list.len());
    for item in list {
        items.push(eval_bound(item, env.child())?);
    }

    // Bug hook: CockroachInBigIntValueList (Listing 9) — an IN list with an
    // INT8-range value mis-lowers as a top-level SELECT predicate or
    // projection, but not in UPDATE/DELETE — which is how DQE catches it
    // while NoREC cannot (NoREC's two queries mis-lower identically; the
    // planner also refuses to constant-fold such lists, see plan.rs).
    if ctx.bugs.active(BugId::CockroachInBigIntValueList)
        && ctx.stmt == StmtKind::Select
        && env.info.top_level
        && matches!(env.info.clause, Clause::Where | Clause::SelectList)
        && items
            .iter()
            .any(|i| matches!(i, Value::Int(k) if k.unsigned_abs() > u32::MAX as u64))
    {
        return Ok(bool3_to_value(Some(negated), ctx.dialect));
    }
    in_list_value(&v, items.iter(), negated, ctx.dialect, ctx.cov)
}

/// `v [NOT] IN (items)` over evaluated items. SQL: `x IN ()` over an
/// empty list is FALSE even for NULL x.
pub(crate) fn in_list_value<'i>(
    v: &Value,
    items: impl ExactSizeIterator<Item = &'i Value>,
    negated: bool,
    dialect: Dialect,
    cov: &Coverage,
) -> Result<Value> {
    let empty = items.len() == 0;
    let mut any_null = v.is_null() && !empty;
    let mut hit = false;
    if !v.is_null() {
        for iv in items {
            match compare(v, iv, dialect)? {
                Some(Ordering::Equal) => {
                    hit = true;
                    break;
                }
                None => any_null = true,
                _ => {}
            }
        }
    }
    let b = if hit {
        cov.hit(pt::EVAL_IN_LIST_HIT);
        Some(true)
    } else if any_null {
        cov.hit(pt::EVAL_IN_LIST_NULL);
        None
    } else {
        cov.hit(pt::EVAL_IN_LIST_MISS);
        Some(false)
    };
    Ok(bool3_to_value(if negated { not3(b) } else { b }, dialect))
}

/// Binary arithmetic (`+ - * / %`). Every error — strict type errors,
/// overflow, erroring division by zero — is `Err`; integer overflow also
/// records its coverage point first.
#[inline]
pub(crate) fn eval_arith(
    op: BinaryOp,
    lv: &Value,
    rv: &Value,
    dialect: Dialect,
    cov: &Coverage,
) -> Result<Value> {
    // Integer operands of an integer operation; an INTEGER pair needs
    // none of the NULL, strictness or class checks.
    let ints = match (lv, rv) {
        (Value::Int(a), Value::Int(b)) => Some((*a, *b)),
        _ => {
            if lv.is_null() || rv.is_null() {
                cov.hit(pt::EVAL_ARITH_NULL);
                return Ok(Value::Null);
            }
            if dialect.strict_types() {
                let numeric = |v: &Value| matches!(v, Value::Int(_) | Value::Real(_));
                if !numeric(lv) || !numeric(rv) {
                    return Err(Error::Type(format!(
                        "cannot apply {op} to {} and {}",
                        lv.data_type(),
                        rv.data_type()
                    )));
                }
            }
            match (lv, rv) {
                (Value::Int(_) | Value::Bool(_), Value::Int(_) | Value::Bool(_)) => {
                    Some((lv.as_i64().unwrap(), rv.as_i64().unwrap()))
                }
                _ => None,
            }
        }
    };
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => match ints {
            Some((a, b)) => {
                cov.hit(pt::EVAL_ARITH_INT);
                let r = match op {
                    BinaryOp::Add => a.checked_add(b),
                    BinaryOp::Sub => a.checked_sub(b),
                    _ => a.checked_mul(b),
                };
                r.map(Value::Int).ok_or_else(|| {
                    cov.hit(pt::EVAL_ARITH_OVERFLOW);
                    Error::Eval(format!("integer overflow: {a} {op} {b}"))
                })
            }
            None => {
                cov.hit(pt::EVAL_ARITH_REAL);
                let a = lv.coerce_f64();
                let b = rv.coerce_f64();
                let r = match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    _ => a * b,
                };
                Ok(finite_or_null(r))
            }
        },
        BinaryOp::Div => {
            let b_num = rv.coerce_f64();
            if b_num == 0.0 {
                return div_by_zero(dialect, cov);
            }
            match ints {
                Some((a, b)) if !dialect.int_div_yields_real() => {
                    cov.hit(pt::EVAL_ARITH_INT);
                    a.checked_div(b)
                        .map(Value::Int)
                        .ok_or_else(|| Error::Eval("integer overflow in division".into()))
                }
                _ => {
                    cov.hit(pt::EVAL_ARITH_REAL);
                    Ok(finite_or_null(lv.coerce_f64() / b_num))
                }
            }
        }
        BinaryOp::Mod => {
            let int = |v: &Value| v.as_i64().unwrap_or_else(|| v.coerce_f64() as i64);
            let (a, b) = ints.unwrap_or_else(|| (int(lv), int(rv)));
            if b == 0 {
                return div_by_zero(dialect, cov);
            }
            cov.hit(pt::EVAL_ARITH_INT);
            a.checked_rem(b)
                .map(Value::Int)
                .ok_or_else(|| Error::Eval("integer overflow in modulo".into()))
        }
        _ => unreachable!("not arithmetic"),
    }
}

fn div_by_zero(dialect: Dialect, cov: &Coverage) -> Result<Value> {
    if dialect.div_by_zero_is_null() {
        cov.hit(pt::EVAL_DIV_ZERO_NULL);
        Ok(Value::Null)
    } else {
        cov.hit(pt::EVAL_DIV_ZERO_ERROR);
        Err(Error::Eval("division by zero".into()))
    }
}

fn finite_or_null(r: f64) -> Value {
    if r.is_finite() {
        Value::Real(r)
    } else {
        // CoddDB maps non-finite reals to NULL (documented simplification;
        // the paper's generator likewise eschews extreme floats to avoid
        // false alarms).
        Value::Null
    }
}

/// The text of a string operand of `op` (strict dialects reject
/// non-TEXT operands).
pub(crate) fn value_to_text<'v>(v: &'v Value, dialect: Dialect, op: &str) -> Result<Cow<'v, str>> {
    match v {
        Value::Text(s) => Ok(Cow::Borrowed(s)),
        other if !dialect.strict_types() => Ok(Cow::Owned(other.to_string())),
        other => Err(Error::Type(format!(
            "{op} expects TEXT, got {}",
            other.data_type()
        ))),
    }
}

/// `a || b`.
pub(crate) fn eval_concat(a: &Value, b: &Value, dialect: Dialect) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let l = value_to_text(a, dialect, "||")?;
    let r = value_to_text(b, dialect, "||")?;
    Ok(Value::Text(format!("{l}{r}")))
}

/// LIKE's text operands, or `None` (recorded) when either is NULL.
pub(crate) fn like_operands<'v>(
    v: &'v Value,
    p: &'v Value,
    dialect: Dialect,
    cov: &Coverage,
) -> Result<Option<(Cow<'v, str>, Cow<'v, str>)>> {
    if v.is_null() || p.is_null() {
        cov.hit(pt::EVAL_LIKE_NULL);
        return Ok(None);
    }
    Ok(Some((
        value_to_text(v, dialect, "LIKE")?,
        value_to_text(p, dialect, "LIKE")?,
    )))
}

/// `text [NOT] LIKE pat` over [`like_operands`].
pub(crate) fn like_value(
    text: &str,
    pat: &str,
    case_insensitive: bool,
    negated: bool,
    dialect: Dialect,
    cov: &Coverage,
) -> Value {
    let matched = like_match(text, pat, case_insensitive);
    cov.hit(if matched {
        pt::EVAL_LIKE_MATCH
    } else {
        pt::EVAL_LIKE_NOMATCH
    });
    bool3_to_value(Some(matched != negated), dialect)
}

/// `CAST(v AS ty)`: NULL casts to NULL before any coverage is recorded.
pub(crate) fn eval_cast(
    v: &Value,
    ty: DataType,
    dialect: Dialect,
    cov: &Coverage,
) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let strict = dialect.strict_types();
    match ty {
        DataType::Int => {
            cov.hit(pt::EVAL_CAST_INT);
            match v {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Real(r) => Ok(Value::Int(*r as i64)),
                Value::Text(s) if strict => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| Error::Eval(format!("could not parse {s:?} as INT"))),
                _ => Ok(Value::Int(v.coerce_f64() as i64)),
            }
        }
        DataType::Real => {
            cov.hit(pt::EVAL_CAST_REAL);
            match v {
                Value::Real(r) => Ok(Value::Real(*r)),
                Value::Int(i) => Ok(Value::Real(*i as f64)),
                Value::Bool(b) => Ok(Value::Real(*b as i64 as f64)),
                Value::Text(s) if strict => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Real)
                    .map_err(|_| Error::Eval(format!("could not parse {s:?} as REAL"))),
                _ => Ok(Value::Real(v.coerce_f64())),
            }
        }
        DataType::Text => {
            cov.hit(pt::EVAL_CAST_TEXT);
            Ok(Value::Text(v.to_string()))
        }
        DataType::Bool => {
            cov.hit(pt::EVAL_CAST_BOOL);
            match v {
                Value::Bool(b) => Ok(Value::Bool(*b)),
                Value::Int(i) => Ok(Value::Bool(*i != 0)),
                Value::Real(r) => Ok(Value::Bool(*r != 0.0)),
                Value::Text(s) => match s.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Ok(Value::Bool(true)),
                    "false" | "f" | "0" => Ok(Value::Bool(false)),
                    _ if !strict => Ok(Value::Bool(v.coerce_f64() != 0.0)),
                    _ => Err(Error::Eval(format!("could not parse {s:?} as BOOLEAN"))),
                },
                Value::Null => unreachable!(),
            }
        }
        DataType::Any => Ok(v.clone()),
    }
}

/// Check a call's argument count and record the function's coverage
/// point — the one arity table both evaluators consult before any
/// argument evaluates.
pub(crate) fn enter_func(func: FuncName, nargs: usize, cov: &Coverage) -> Result<()> {
    use FuncName::*;
    let (ok, want, point) = match func {
        Length => (nargs == 1, "1", pt::EVAL_FUNC_LENGTH),
        Abs => (nargs == 1, "1", pt::EVAL_FUNC_ABS),
        Upper => (nargs == 1, "1", pt::EVAL_FUNC_UPPER),
        Lower => (nargs == 1, "1", pt::EVAL_FUNC_LOWER),
        Typeof => (nargs == 1, "1", pt::EVAL_FUNC_TYPEOF),
        Sign => (nargs == 1, "1", pt::EVAL_FUNC_SIGN),
        Nullif => (nargs == 2, "2", pt::EVAL_FUNC_NULLIF),
        Instr => (nargs == 2, "2", pt::EVAL_FUNC_INSTR),
        Iif => (nargs == 3, "3", pt::EVAL_FUNC_IIF),
        Coalesce => (nargs >= 1, ">=1", pt::EVAL_FUNC_COALESCE),
        Version => (nargs == 0, "0", pt::EVAL_FUNC_VERSION),
        Round => ((1..=2).contains(&nargs), "1 or 2", pt::EVAL_FUNC_ROUND),
        Substr => ((2..=3).contains(&nargs), "2 or 3", pt::EVAL_FUNC_SUBSTR),
    };
    if !ok {
        return Err(Error::Eval(format!(
            "wrong number of arguments to function {}() (expected {want}, got {nargs})",
            func.sql_name()
        )));
    }
    cov.hit(point);
    Ok(())
}

fn eval_func(func: FuncName, args: &[BoundExpr], env: EvalEnv) -> Result<Value> {
    let ctx = env.ctx;
    enter_func(func, args.len(), ctx.cov)?;
    let arg = |i: usize| eval_bound(&args[i], env.child());
    match func {
        FuncName::Coalesce => {
            for a in args {
                let v = eval_bound(a, env.child())?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        FuncName::Iif => {
            if truthiness(&arg(0)?, ctx.dialect, ctx.cov)? == Some(true) {
                arg(1)
            } else {
                arg(2)
            }
        }
        FuncName::Round => {
            let v = arg(0)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let p = if args.len() == 2 { Some(arg(1)?) } else { None };
            // Bug hook: TidbInternalRoundHuge.
            if ctx.bugs.active(BugId::TidbInternalRoundHuge)
                && p.as_ref().and_then(Value::as_i64).is_some_and(|p| p > 10)
            {
                return Err(Error::Internal(
                    "ROUND precision exceeds decimal window".into(),
                ));
            }
            round_value(&v, p.as_ref(), ctx.dialect)
        }
        FuncName::Substr => {
            let s = arg(0)?;
            let start = arg(1)?;
            if s.is_null() || start.is_null() {
                return Ok(Value::Null);
            }
            let text = value_to_text(&s, ctx.dialect, "SUBSTR")?;
            // Bug hook: TidbInternalSubstrNegative.
            if ctx.bugs.active(BugId::TidbInternalSubstrNegative)
                && start.as_i64().is_some_and(|st| st < 0)
            {
                return Err(Error::Internal(
                    "negative SUBSTR offset underflows cursor".into(),
                ));
            }
            let take = if args.len() == 3 { Some(arg(2)?) } else { None };
            Ok(substr_value(&text, &start, take.as_ref()))
        }
        _ => match args {
            [] => func_value(func, &[], ctx.dialect),
            [a] => func_value(func, &[&eval_bound(a, env.child())?], ctx.dialect),
            [a, b] => {
                let a = eval_bound(a, env.child())?;
                let b = eval_bound(b, env.child())?;
                func_value(func, &[&a, &b], ctx.dialect)
            }
            _ => unreachable!("no eager function takes three arguments"),
        },
    }
}

/// The body of every function but COALESCE and IIF (control flow) and
/// ROUND and SUBSTR (a NULL leading argument skips the trailing ones;
/// see [`round_value`] and [`substr_value`]) over its evaluated
/// arguments, after [`enter_func`].
pub(crate) fn func_value(func: FuncName, args: &[&Value], dialect: Dialect) -> Result<Value> {
    use FuncName::*;
    match (func, args) {
        (Length | Abs | Upper | Lower | Sign, [Value::Null])
        | (Instr, [Value::Null, _] | [_, Value::Null]) => Ok(Value::Null),
        (Length, [v]) => {
            let s = value_to_text(v, dialect, "LENGTH")?;
            Ok(Value::Int(s.chars().count() as i64))
        }
        (Abs, [v]) => match v {
            Value::Int(i) => i
                .checked_abs()
                .map(Value::Int)
                .ok_or_else(|| Error::Eval("integer overflow in ABS".into())),
            Value::Real(r) => Ok(Value::Real(r.abs())),
            other if !dialect.strict_types() => Ok(Value::Real(other.coerce_f64().abs())),
            other => Err(Error::Type(format!(
                "ABS expects a number, got {}",
                other.data_type()
            ))),
        },
        (Upper | Lower, [v]) => {
            let s = value_to_text(v, dialect, func.sql_name())?;
            Ok(Value::Text(if func == Upper {
                s.to_uppercase()
            } else {
                s.to_lowercase()
            }))
        }
        (Nullif, [a, b]) => {
            if compare(a, b, dialect)? == Some(Ordering::Equal) {
                Ok(Value::Null)
            } else {
                Ok((*a).clone())
            }
        }
        (Typeof, [v]) => Ok(Value::Text(
            match v {
                Value::Null => "null",
                Value::Int(_) => "integer",
                Value::Real(_) => "real",
                Value::Text(_) => "text",
                Value::Bool(_) => "boolean",
            }
            .into(),
        )),
        (Version, []) => Ok(Value::Text(dialect.version_string().into())),
        (Sign, [v]) => {
            let x = numeric_arg(v, "SIGN", dialect)?;
            Ok(Value::Int(if x > 0.0 {
                1
            } else if x < 0.0 {
                -1
            } else {
                0
            }))
        }
        (Instr, [a, b]) => {
            let hay = value_to_text(a, dialect, "INSTR")?;
            let needle = value_to_text(b, dialect, "INSTR")?;
            let pos = hay
                .find(&*needle)
                .map(|byte| hay[..byte].chars().count() as i64 + 1)
                .unwrap_or(0);
            Ok(Value::Int(pos))
        }
        _ => unreachable!("{func:?} is sequenced by its evaluator or has the wrong arity"),
    }
}

/// A numeric function argument (flexible-typing dialects coerce TEXT).
fn numeric_arg(v: &Value, func: &str, dialect: Dialect) -> Result<f64> {
    match v.as_f64() {
        Some(x) => Ok(x),
        None if !dialect.strict_types() => Ok(v.coerce_f64()),
        None => Err(Error::Type(format!(
            "{func} expects a number, got {}",
            v.data_type()
        ))),
    }
}

/// ROUND over a non-NULL value and its precision argument, if any; a
/// NULL precision yields NULL.
pub(crate) fn round_value(v: &Value, p: Option<&Value>, dialect: Dialect) -> Result<Value> {
    let p = match p {
        Some(Value::Null) => return Ok(Value::Null),
        Some(p) => p.as_i64().unwrap_or(0),
        None => 0,
    };
    let x = numeric_arg(v, "ROUND", dialect)?;
    let factor = 10f64.powi(p.clamp(-15, 15) as i32);
    Ok(finite_or_null((x * factor).round() / factor))
}

/// SUBSTR over the text of a non-NULL string, a non-NULL start and the
/// length argument, if any; a NULL length yields NULL. SQLite semantics:
/// 1-based, and a negative start counts from the end.
pub(crate) fn substr_value(text: &str, start: &Value, take: Option<&Value>) -> Value {
    let take = match take {
        Some(Value::Null) => return Value::Null,
        Some(t) => Some(t.as_i64().unwrap_or(0).max(0)),
        None => None,
    };
    let chars: Vec<char> = text.chars().collect();
    let len = chars.len() as i64;
    let start = start.as_i64().unwrap_or(1);
    let begin = if start > 0 {
        start - 1
    } else if start < 0 {
        (len + start).max(0)
    } else {
        0
    };
    let begin = begin.clamp(0, len) as usize;
    let end = (begin + take.unwrap_or(len) as usize).min(chars.len());
    Value::Text(chars[begin..end].iter().collect())
}

/// SQL LIKE pattern matching (`%` and `_`), iterative with backtracking.
pub fn like_match(text: &str, pattern: &str, case_insensitive: bool) -> bool {
    let norm = |s: &str| {
        if case_insensitive {
            s.to_lowercase().chars().collect::<Vec<char>>()
        } else {
            s.chars().collect()
        }
    };
    let t = norm(text);
    let p = norm(pattern);
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        // `%` must be treated as a wildcard before any literal match —
        // otherwise a literal '%' in the *text* would consume it.
        if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

// ---------------------------------------------------------------------------
// Aggregate computation (used by the executor's grouping stage).
// ---------------------------------------------------------------------------

/// Precomputed aggregate values for one group, indexed by the slot the
/// binder assigned to each distinct aggregate expression
/// ([`crate::bind::AggSpec`]).
pub type AggValues = Vec<Value>;

/// Compute one aggregate over the values of its argument for a group.
/// `values` holds the evaluated argument per row (empty for COUNT(*), which
/// passes one dummy entry per row); the computation may reorder or drain
/// it, and leaves the buffer to the caller for reuse.
pub fn compute_aggregate(
    func: AggFunc,
    distinct: bool,
    values: &mut Vec<Value>,
    env: EvalEnv,
) -> Result<Value> {
    let ctx = env.ctx;
    if distinct {
        ctx.cov.hit(pt::AGG_DISTINCT);
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup_by(|a, b| a.is_identical(b));
    }
    match func {
        AggFunc::CountStar => {
            ctx.cov.hit(pt::AGG_COUNT_STAR);
            Ok(Value::Int(values.len() as i64))
        }
        AggFunc::Count => {
            ctx.cov.hit(pt::AGG_COUNT);
            Ok(Value::Int(
                values.iter().filter(|v| !v.is_null()).count() as i64
            ))
        }
        AggFunc::Min | AggFunc::Max => {
            ctx.cov.hit(if func == AggFunc::Min {
                pt::AGG_MIN
            } else {
                pt::AGG_MAX
            });
            let mut best: Option<Value> = None;
            for v in values.drain(..) {
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = if func == AggFunc::Min {
                            v.total_cmp(&b) == Ordering::Less
                        } else {
                            v.total_cmp(&b) == Ordering::Greater
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            if best.is_none() {
                ctx.cov.hit(pt::AGG_EMPTY);
            }
            Ok(best.unwrap_or(Value::Null))
        }
        AggFunc::Sum | AggFunc::Total | AggFunc::Avg => {
            // One counting pass instead of materializing the non-NULL
            // subset: the value order seen by every later loop (and so
            // every error and overflow site) is unchanged.
            let mut nonnull_count = 0usize;
            let mut all_int = true;
            for v in values.iter() {
                if !v.is_null() {
                    nonnull_count += 1;
                    if !matches!(v, Value::Int(_) | Value::Bool(_)) {
                        all_int = false;
                    }
                }
            }
            if nonnull_count == 0 {
                ctx.cov.hit(pt::AGG_EMPTY);
                // Bug hook: TidbAvgDistinctNestedZero — AVG(DISTINCT) over
                // empty input inside a nested subquery returns 0.
                if func == AggFunc::Avg
                    && distinct
                    && env.info.depth > 0
                    && ctx.bugs.active(BugId::TidbAvgDistinctNestedZero)
                {
                    return Ok(Value::Int(0));
                }
                return Ok(match func {
                    AggFunc::Total => Value::Real(0.0),
                    _ => Value::Null,
                });
            }
            if func == AggFunc::Sum && all_int {
                ctx.cov.hit(pt::AGG_SUM_INT);
                let mut acc: i64 = 0;
                for v in values.iter().filter(|v| !v.is_null()) {
                    acc = acc
                        .checked_add(v.as_i64().unwrap())
                        .ok_or_else(|| Error::Eval("integer overflow in SUM".into()))?;
                }
                return Ok(Value::Int(acc));
            }
            // Real accumulation: fold over *sorted* values so that the
            // result is a deterministic function of the input multiset
            // regardless of scan order.
            let mut reals = ctx.bufs.reals.take();
            for v in values.iter().filter(|v| !v.is_null()) {
                match v.as_f64() {
                    Some(x) => reals.push(x),
                    None if !ctx.dialect.strict_types() => reals.push(v.coerce_f64()),
                    None => {
                        return Err(Error::Type(format!(
                            "{} expects numbers, got {}",
                            func.sql_name(),
                            v.data_type()
                        )))
                    }
                }
            }
            // Bug hook: CockroachAvgNestedReverse — inside a nested
            // subquery, AVG accumulates in reverse arrival order with f32
            // rounding at each step (the argument-order AVG bug).
            if func == AggFunc::Avg
                && env.info.depth > 0
                && ctx.bugs.active(BugId::CockroachAvgNestedReverse)
            {
                ctx.cov.hit(pt::AGG_AVG);
                let mut acc: f32 = 0.0;
                for x in reals.iter().rev() {
                    acc += *x as f32;
                }
                return Ok(Value::Real(acc as f64 / reals.len() as f64));
            }
            reals.sort_by(|a, b| a.total_cmp(b));
            let sum: f64 = reals.iter().sum();
            let n = reals.len();
            ctx.bufs.reals.give(reals);
            match func {
                AggFunc::Sum => {
                    ctx.cov.hit(pt::AGG_SUM_REAL);
                    Ok(finite_or_null(sum))
                }
                AggFunc::Total => {
                    ctx.cov.hit(pt::AGG_TOTAL);
                    Ok(finite_or_null(sum))
                }
                AggFunc::Avg => {
                    ctx.cov.hit(pt::AGG_AVG);
                    Ok(finite_or_null(sum / n as f64))
                }
                _ => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matcher_basics() {
        assert!(like_match("hello", "h%o", false));
        assert!(like_match("hello", "_ello", false));
        assert!(!like_match("hello", "h_o", false));
        assert!(like_match("", "%", false));
        assert!(!like_match("abc", "", false));
        assert!(like_match("abc", "%%c", false));
        assert!(like_match("HeLLo", "hello", true));
        assert!(!like_match("HeLLo", "hello", false));
        assert!(like_match("a%b", "a%b", false));
    }

    #[test]
    fn like_matcher_pathological_patterns_terminate() {
        let text = "a".repeat(200);
        assert!(like_match(&text, "%a%a%a%a%a%", false));
        assert!(!like_match(&text, "%a%a%b", false));
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(not3(None), None);
    }
}
