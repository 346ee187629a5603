//! Vectorized (chunk-at-a-time) batch expression evaluation.
//!
//! The bind-once pipeline compiles clause expressions to [`BoundExpr`]
//! once per statement; this module evaluates them **column-at-a-time over
//! fixed-size row chunks** (`CHUNK` rows) instead of row-at-a-time
//! through per-row [`crate::exec::Frame`] indirection. Each kernel walks
//! one expression node once per chunk and loops over the active lanes in
//! a tight loop, amortizing interpreter dispatch, environment
//! construction and coverage bookkeeping across the whole chunk.
//!
//! ## Exactness contract
//!
//! The vectorized path must be indistinguishable from the row-at-a-time
//! interpreter ([`crate::eval::eval_bound`]): byte-identical results,
//! identical coverage bitsets, exact fuel accounting, and every injected
//! mutant still firing. Three mechanisms enforce that:
//!
//! 1. **Classification** ([`classify`]): an expression takes the
//!    vectorized path only when no lane can diverge from the scalar
//!    walk. Subqueries and aggregate slots are never vectorized (their
//!    evaluation re-enters the executor), and any shape a currently
//!    *active* mutant hooks falls back row-at-a-time, so the mutant's
//!    context-sensitive branch runs on the authentic interpreter. It is
//!    one walker over the clause AST, called by the executor before it
//!    runs a clause's chunks and by `EXPLAIN` for the clause's `VEC` /
//!    `ROW(<reason>)` note, so the two cannot disagree. It reads the AST
//!    rather than the bound form because `EXPLAIN` has no runtime
//!    schemas to bind against, and the bound form mirrors the AST node
//!    for node ([`crate::bind`]).
//! 2. **Selection vectors**: `AND`/`OR`, `CASE`, `COALESCE` and `IIF`
//!    evaluate lazy operands only over the lanes that reach them —
//!    exactly the rows the scalar short-circuit would evaluate — so an
//!    erroring branch that scalar evaluation skips is skipped here too,
//!    and coverage points fire for a node iff at least one lane reaches
//!    it (coverage bits are idempotent, so per-class chunk hits equal
//!    the union of per-row hits).
//! 3. **Error masking + whole-chunk fallback**: kernels record coverage
//!    into a *scratch* accumulator and abort the chunk on the first lane
//!    whose scalar evaluation would error. The caller then re-runs the
//!    entire chunk row-at-a-time: the first erroring row raises the
//!    exact scalar error, rows before it fire their authentic coverage
//!    bits, and rows after it fire nothing — matching the scalar loop's
//!    abort point bit for bit. The scratch accumulator is merged into
//!    the real one only when the whole chunk succeeds.
//!
//! Fuel is charged by the executor per chunk (after checking the budget
//! covers the chunk, so exhaustion falls back to the per-row loop and
//! hangs at exactly the row the scalar pipeline would).
//!
//! ## One copy of the value rules
//!
//! The kernels implement no SQL value rule of their own. Per lane they
//! call the rule functions the interpreter calls per row
//! ([`crate::eval`] module docs): [`truthiness`], [`compare`] and
//! `cmp_value`, `eval_arith`, `eval_cast`, `eval_unary`,
//! `is_value`, `eval_concat`, `like_operands` and `like_value`,
//! `between_value`, `in_list_value`, `and_or_value`, and for
//! function calls `enter_func` (the one arity table), `func_value`,
//! `round_value` and `substr_value`. A rule's `Err` becomes an
//! `Abort`; the rerun raises it again from the same rule, so error
//! text has one source. What this module adds is what makes evaluation
//! vectorized: classification, selection vectors with lazy
//! short-circuit lanes, operand fusion, the buffer pool, whole-chunk
//! abort and the chunk drivers.
//!
//! Coverage stays exact because a rule records into the accumulator it
//! is handed — the statement's coverage from the interpreter, the
//! chunk's scratch accumulator (`ChunkEval::cov`) from a kernel. The
//! same value yields the same points whichever evaluator asks, the
//! kernels ask for exactly the lanes the scalar walk reaches, and bits
//! are idempotent, so a successful chunk's scratch holds the union of
//! the per-row hits. `coddb/tests/eval_differential.rs` cross-checks
//! the two evaluators over NULL-heavy data, erroring expressions, all
//! dialects and every mutant.

use std::cmp::Ordering;

use crate::ast::{BinaryOp, Expr, FuncName};
use crate::bind::{BoundColumn, BoundExpr};
use crate::bugs::{BugId, BugRegistry};
use crate::coverage::{pt, Coverage};
use crate::dialect::Dialect;
use crate::error::Error;
use crate::eval::{
    and_or_value, between_value, bool3_to_value, cmp_value, compare, enter_func, eval_arith,
    eval_cast, eval_concat, eval_unary, func_value, in_list_value, is_value, like_operands,
    like_value, round_value, short_circuit_truth, substr_value, truthiness, value_to_text, Bool3,
};
use crate::exec::{EngineCtx, Frame, StmtKind};
use crate::value::{Row, Value};

/// Rows per chunk fed to the vectorized kernels.
pub(crate) const CHUNK: usize = 1024;

// ---------------------------------------------------------------------------
// Classification: which expressions may take the vectorized path.
// ---------------------------------------------------------------------------

/// Mutant gates shared by the executor and `EXPLAIN` that sit outside
/// expression classification.
pub(crate) mod gates {
    use super::*;

    /// The filter-site mutants hook the WHERE stage itself rather than an
    /// expression node, and `Err` means one keeps the rows whose
    /// predicate is NULL: `SqliteIndexedCmpNullTrue` a comparison's over
    /// index-scanned rows, `CockroachAndNullTopConjunct` a top-level
    /// AND's. The chunk filter models neither, so such a filter runs
    /// row-at-a-time. `via_index` is whether the filter's input arrives
    /// through an index scan ([`crate::plan::FromPlan::reads_index_scan`]).
    pub(crate) fn filter(
        pred: &Expr,
        via_index: bool,
        bugs: &BugRegistry,
    ) -> Result<(), &'static str> {
        match pred {
            Expr::Binary { op, .. }
                if op.is_comparison()
                    && via_index
                    && bugs.active(BugId::SqliteIndexedCmpNullTrue) =>
            {
                Err("mutant-hooked indexed comparison")
            }
            Expr::Binary {
                op: BinaryOp::And, ..
            } if bugs.active(BugId::CockroachAndNullTopConjunct) => Err("mutant-hooked AND filter"),
            _ => Ok(()),
        }
    }
}

/// May the clause expression `e` take the vectorized path? `Err` carries
/// the fallback reason. This is the one classifier: the executor asks it
/// before running a clause's chunks, and `EXPLAIN` asks it for each
/// clause's `[VEC]` / `[ROW(<reason>)]` note. `depth` is the clause's
/// subquery depth (0 = the top statement).
///
/// Subqueries and aggregate slots are rejected unconditionally, because
/// their evaluation re-enters the executor. Any shape a currently
/// *active* mutant hooks is rejected too, so the hook runs on the
/// authentic interpreter; an inactive hook is a dead branch the kernels
/// need not model.
pub fn classify(
    e: &Expr,
    bugs: &BugRegistry,
    dialect: Dialect,
    stmt: StmtKind,
    depth: u32,
) -> Result<(), &'static str> {
    let rec = |e: &Expr| classify(e, bugs, dialect, stmt, depth);
    let gate = |hooks: &[BugId], reason: &'static str| {
        if hooks.iter().any(|&b| bugs.active(b)) {
            Err(reason)
        } else {
            Ok(())
        }
    };
    match e {
        Expr::Literal(_) => Ok(()),
        // Inside a subquery the binder may record a collision alternative
        // for a bare column, which the name-collision mutant switches to
        // at runtime. Rejecting every bare column there rejects a
        // superset of those.
        Expr::Column(c) if c.table.is_none() && depth > 0 => gate(
            &[BugId::TidbCorrelatedNameCollision],
            "name-collision mutant",
        ),
        Expr::Column(_) => Ok(()),
        Expr::Unary { expr, .. } => rec(expr),
        Expr::Binary { op, left, right } => {
            match op {
                BinaryOp::Or => gate(&[BugId::CockroachOrShortCircuitFalse], "mutant-hooked OR")?,
                BinaryOp::Concat => gate(
                    &[BugId::SqliteInternalConcatIndexedExpr],
                    "mutant-hooked concat",
                )?,
                BinaryOp::Add => gate(
                    &[BugId::DuckdbInternalOverflowAddProj],
                    "mutant-hooked addition",
                )?,
                op if op.is_comparison() => {
                    gate(
                        &[BugId::MysqlTextIntCompareWhere],
                        "mutant-hooked comparison",
                    )?;
                    // MySQL rejects cross-type TEXT/number comparisons in
                    // UPDATE and DELETE (the DQE semantic-error dialect
                    // rule) — a per-pair runtime decision the kernels do
                    // not model.
                    if dialect == Dialect::Mysql
                        && matches!(stmt, StmtKind::Update | StmtKind::Delete)
                    {
                        return Err("dialect DML comparison");
                    }
                }
                _ => {}
            }
            rec(left)?;
            rec(right)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            gate(&[BugId::SqliteBetweenTextAffinity], "mutant-hooked BETWEEN")?;
            rec(expr)?;
            rec(low)?;
            rec(high)
        }
        Expr::InList { expr, list, .. } => {
            gate(
                &[
                    BugId::TidbInValueListWhere,
                    BugId::CockroachInBigIntValueList,
                ],
                "mutant-hooked IN list",
            )?;
            rec(expr)?;
            list.iter().try_for_each(rec)
        }
        Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::Scalar(_)
        | Expr::Quantified { .. } => Err("subquery"),
        Expr::Agg { .. } => Err("aggregate"),
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => {
            gate(
                &[
                    BugId::TidbInternalCaseManyWhens,
                    BugId::CockroachCaseNullFromCte,
                    BugId::DuckdbCaseSubqueryElse,
                ],
                "mutant-hooked CASE",
            )?;
            if let Some(o) = operand {
                rec(o)?;
            }
            for (w, t) in whens {
                rec(w)?;
                rec(t)?;
            }
            else_expr.as_deref().map_or(Ok(()), rec)
        }
        Expr::Func { func, args } => {
            match func {
                FuncName::Round => gate(&[BugId::TidbInternalRoundHuge], "mutant-hooked ROUND")?,
                FuncName::Substr => {
                    gate(&[BugId::TidbInternalSubstrNegative], "mutant-hooked SUBSTR")?
                }
                _ => {}
            }
            args.iter().try_for_each(rec)
        }
        Expr::Cast { expr, .. } => {
            gate(&[BugId::CockroachInternalCastTextInt], "mutant-hooked CAST")?;
            rec(expr)
        }
        Expr::IsNull { expr, .. } => {
            gate(
                &[BugId::TidbIsNullTopLevelInverted],
                "mutant-hooked IS NULL",
            )?;
            rec(expr)
        }
        Expr::Like { expr, pattern, .. } => {
            gate(
                &[
                    BugId::TidbInternalLikeEscape,
                    BugId::DuckdbHangLikePercents,
                    BugId::SqliteLikeCaseFold,
                    BugId::DuckdbNotLikeTopLevel,
                ],
                "mutant-hooked LIKE",
            )?;
            rec(expr)?;
            rec(pattern)
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk evaluation machinery.
// ---------------------------------------------------------------------------

/// A lane whose scalar evaluation would error: the chunk aborts and the
/// caller re-runs it row-at-a-time (which raises the exact error at the
/// exact row, with exact coverage and fuel).
struct Abort;

impl From<Error> for Abort {
    fn from(_: Error) -> Abort {
        Abort
    }
}

/// Columnar result of one expression node over a chunk's active lanes.
enum Col {
    /// Lane-invariant (literals, outer-scope columns).
    Const(Value),
    /// One value per lane; only active lanes are meaningful.
    Dense(Vec<Value>),
}

impl Col {
    #[inline]
    fn get(&self, lane: u32) -> &Value {
        match self {
            Col::Const(v) => v,
            Col::Dense(vs) => &vs[lane as usize],
        }
    }
}

/// A kernel operand: either a fused local-column read (values come
/// straight from the chunk's rows, no materialized copy) or a
/// materialized column. Fusing is exact — a local column load has no
/// error path, and its coverage hit / correlation-detector record fire
/// when the operand is built.
enum Operand {
    ColRef(usize),
    Mat(Col),
}

impl Operand {
    #[inline]
    fn get<'v>(&'v self, rows: &'v [Row], lane: u32) -> &'v Value {
        match self {
            Operand::ColRef(i) => &rows[lane as usize][*i],
            Operand::Mat(c) => c.get(lane),
        }
    }

    fn konst(&self) -> Option<&Value> {
        match self {
            Operand::Mat(Col::Const(v)) => Some(v),
            _ => None,
        }
    }
}

/// Reusable buffers: one pool per statement (held by the engine context),
/// so the vectorized pipeline allocates O(1) buffers per operator rather
/// than O(chunks) — `coddb/tests/no_per_row_alloc.rs` pins this down.
#[derive(Default)]
pub(crate) struct Pool {
    vals: Vec<Vec<Value>>,
    sels: Vec<Vec<u32>>,
    b3s: Vec<Vec<Bool3>>,
}

impl Pool {
    fn vals(&mut self, len: usize) -> Vec<Value> {
        let mut v = self.vals.pop().unwrap_or_default();
        v.clear();
        v.resize(len, Value::Null);
        v
    }
    fn sel(&mut self) -> Vec<u32> {
        let mut s = self.sels.pop().unwrap_or_default();
        s.clear();
        s
    }
    fn b3s(&mut self, len: usize) -> Vec<Bool3> {
        let mut b = self.b3s.pop().unwrap_or_default();
        b.clear();
        b.resize(len, None);
        b
    }
    fn give(&mut self, col: Col) {
        if let Col::Dense(v) = col {
            self.vals.push(v);
        }
    }
    fn give_vals(&mut self, v: Vec<Value>) {
        self.vals.push(v);
    }
    fn give_sel(&mut self, s: Vec<u32>) {
        self.sels.push(s);
    }
    fn give_b3(&mut self, b: Vec<Bool3>) {
        self.b3s.push(b);
    }
}

/// One chunk's evaluation state: the chunk rows, the (fixed) outer
/// scopes, the scratch coverage accumulator and the statement's buffer
/// pool.
struct ChunkEval<'a, 'e> {
    ctx: &'e EngineCtx<'a>,
    cov: &'e Coverage,
    rows: &'e [Row],
    outer: &'e [Frame<'e>],
    pool: &'e mut Pool,
}

impl<'a, 'e> ChunkEval<'a, 'e> {
    /// Evaluate `e` over the active lanes. `sel` must be non-empty: a
    /// node is entered only when at least one lane reaches it, which is
    /// what keeps per-node coverage hits equal to the scalar union.
    fn eval(&mut self, e: &BoundExpr, sel: &[u32]) -> Result<Col, Abort> {
        debug_assert!(!sel.is_empty(), "kernels require at least one active lane");
        let (d, cov) = (self.ctx.dialect, self.cov);
        match e {
            BoundExpr::Literal(v) => {
                cov.hit(pt::EVAL_LITERAL);
                Ok(Col::Const(v.clone()))
            }
            BoundExpr::Column(c) => self.load_column(c, sel),
            BoundExpr::Unary { op, expr } => self.map1(expr, sel, |v| eval_unary(*op, v, d, cov)),
            BoundExpr::Binary { op, left, right } => self.binary(*op, left, right, sel),
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => self.between(expr, low, high, *negated, sel),
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => self.in_list(expr, list, *negated, sel),
            BoundExpr::Case {
                operand,
                whens,
                else_expr,
                ..
            } => self.case(operand.as_deref(), whens, else_expr.as_deref(), sel),
            BoundExpr::Func { func, args } => self.func(*func, args, sel),
            BoundExpr::Cast { expr, ty } => self.map1(expr, sel, |v| eval_cast(v, *ty, d, cov)),
            BoundExpr::IsNull { expr, negated } => self.map1(expr, sel, |v| {
                Ok(bool3_to_value(Some(v.is_null() != *negated), d))
            }),
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let ci = d.like_case_insensitive();
                self.map2(expr, pattern, sel, |v, p| {
                    Ok(match like_operands(v, p, d, cov)? {
                        Some((text, pat)) => like_value(&text, &pat, ci, *negated, d, cov),
                        None => Value::Null,
                    })
                })
            }
            // Classification keeps these off the vectorized path.
            BoundExpr::InSubquery { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::Scalar { .. }
            | BoundExpr::Quantified { .. }
            | BoundExpr::Agg { .. } => {
                debug_assert!(false, "unclassified expression reached the vectorized path");
                Err(Abort)
            }
        }
    }

    fn load_column(&mut self, c: &BoundColumn, sel: &[u32]) -> Result<Col, Abort> {
        let (up, index) = (c.up as usize, c.index as usize);
        let nscopes = self.outer.len() + 1;
        let fi = nscopes - 1 - up;
        self.cov.hit(if up == 0 {
            pt::EVAL_COLUMN_LOCAL
        } else {
            pt::EVAL_COLUMN_OUTER
        });
        // The correlation detector dedups slots, so recording once per
        // chunk equals recording once per row. Recording on the real
        // context is sound even if the chunk later aborts: the scalar
        // rerun re-records the same slots (or the statement errors).
        self.ctx.note_column_read(fi, index);
        if up == 0 {
            let mut out = self.pool.vals(self.rows.len());
            for &lane in sel {
                out[lane as usize] = self.rows[lane as usize][index].clone();
            }
            Ok(Col::Dense(out))
        } else {
            // Outer frames are fixed across the chunk: lane-invariant.
            Ok(Col::Const(self.outer[fi].row[index].clone()))
        }
    }

    fn binary(
        &mut self,
        op: BinaryOp,
        left: &BoundExpr,
        right: &BoundExpr,
        sel: &[u32],
    ) -> Result<Col, Abort> {
        let (d, cov) = (self.ctx.dialect, self.cov);
        match op {
            BinaryOp::And | BinaryOp::Or => self.and_or(op, left, right, sel),
            BinaryOp::Is | BinaryOp::IsNot => {
                cov.hit(pt::EVAL_IS_OP);
                self.map2(left, right, sel, |a, b| Ok(is_value(op, a, b, d)))
            }
            _ if op.is_comparison() => self.map2(left, right, sel, |a, b| {
                Ok(cmp_value(op, compare(a, b, d)?, d, cov))
            }),
            BinaryOp::Concat => {
                cov.hit(pt::EVAL_CONCAT);
                self.map2(left, right, sel, |a, b| eval_concat(a, b, d))
            }
            _ => self.map2(left, right, sel, |a, b| eval_arith(op, a, b, d, cov)),
        }
    }

    /// `AND` / `OR` with exact short-circuit laziness: the right operand
    /// evaluates only over lanes the scalar walk would reach.
    fn and_or(
        &mut self,
        op: BinaryOp,
        left: &BoundExpr,
        right: &BoundExpr,
        sel: &[u32],
    ) -> Result<Col, Abort> {
        let (d, cov) = (self.ctx.dialect, self.cov);
        let short = short_circuit_truth(op);
        let l = self.eval(left, sel)?;
        let mut lb = self.pool.b3s(self.rows.len());
        let mut rhs_sel = self.pool.sel();
        for &lane in sel {
            let t = truthiness(l.get(lane), d, cov)?;
            lb[lane as usize] = t;
            if t != short {
                rhs_sel.push(lane);
            }
        }
        self.pool.give(l);
        let mut out = self.pool.vals(self.rows.len());
        if rhs_sel.len() < sel.len() {
            cov.hit(if op == BinaryOp::And {
                pt::EVAL_AND_SHORT
            } else {
                pt::EVAL_OR_SHORT
            });
            let short_val = bool3_to_value(short, d);
            for &lane in sel {
                if lb[lane as usize] == short {
                    out[lane as usize] = short_val.clone();
                }
            }
        }
        if !rhs_sel.is_empty() {
            let r = self.eval(right, &rhs_sel)?;
            for &lane in &rhs_sel {
                let rb = truthiness(r.get(lane), d, cov)?;
                out[lane as usize] = and_or_value(op, lb[lane as usize], rb, d, cov);
            }
            self.pool.give(r);
        }
        self.pool.give_b3(lb);
        self.pool.give_sel(rhs_sel);
        Ok(Col::Dense(out))
    }

    fn between(
        &mut self,
        expr: &BoundExpr,
        low: &BoundExpr,
        high: &BoundExpr,
        negated: bool,
        sel: &[u32],
    ) -> Result<Col, Abort> {
        self.cov.hit(if negated {
            pt::EVAL_BETWEEN_NEG
        } else {
            pt::EVAL_BETWEEN
        });
        let v = self.operand(expr, sel)?;
        let lo = self.operand(low, sel)?;
        let hi = self.operand(high, sel)?;
        let d = self.ctx.dialect;
        let mut out = self.pool.vals(self.rows.len());
        let rows = self.rows;
        for &lane in sel {
            let (x, l, h) = (v.get(rows, lane), lo.get(rows, lane), hi.get(rows, lane));
            out[lane as usize] = between_value(x, l, h, negated, d)?;
        }
        self.release_operand(v);
        self.release_operand(lo);
        self.release_operand(hi);
        Ok(Col::Dense(out))
    }

    fn in_list(
        &mut self,
        expr: &BoundExpr,
        list: &[BoundExpr],
        negated: bool,
        sel: &[u32],
    ) -> Result<Col, Abort> {
        let v = self.operand(expr, sel)?;
        // Like the scalar walk, every item evaluates before comparison.
        let mut items = Vec::with_capacity(list.len());
        for item in list {
            items.push(self.eval(item, sel)?);
        }
        let (d, cov) = (self.ctx.dialect, self.cov);
        let mut out = self.pool.vals(self.rows.len());
        for &lane in sel {
            let lv = v.get(self.rows, lane);
            let lane_items = items.iter().map(|c| c.get(lane));
            out[lane as usize] = in_list_value(lv, lane_items, negated, d, cov)?;
        }
        self.release_operand(v);
        for item in items {
            self.pool.give(item);
        }
        Ok(Col::Dense(out))
    }

    fn case(
        &mut self,
        operand: Option<&BoundExpr>,
        whens: &[(BoundExpr, BoundExpr)],
        else_expr: Option<&BoundExpr>,
        sel: &[u32],
    ) -> Result<Col, Abort> {
        let (d, cov) = (self.ctx.dialect, self.cov);
        let mut out = self.pool.vals(self.rows.len());
        let mut active = self.pool.sel();
        active.extend_from_slice(sel);
        let mut next = self.pool.sel();
        let mut matched = self.pool.sel();
        let base = match operand {
            Some(o) => {
                cov.hit(pt::EVAL_CASE_OPERAND);
                Some(self.eval(o, sel)?)
            }
            None => {
                cov.hit(pt::EVAL_CASE_SEARCHED);
                None
            }
        };
        for (w, t) in whens {
            if active.is_empty() {
                break;
            }
            let wv = self.eval(w, &active)?;
            next.clear();
            matched.clear();
            for &lane in &active {
                let is_match = match &base {
                    Some(b) => compare(b.get(lane), wv.get(lane), d)? == Some(Ordering::Equal),
                    None => truthiness(wv.get(lane), d, cov)? == Some(true),
                };
                if is_match {
                    matched.push(lane);
                } else {
                    next.push(lane);
                }
            }
            self.pool.give(wv);
            if !matched.is_empty() {
                let tv = self.eval(t, &matched)?;
                self.scatter(tv, &matched, &mut out);
            }
            std::mem::swap(&mut active, &mut next);
        }
        if let Some(b) = base {
            self.pool.give(b);
        }
        if !active.is_empty() {
            match else_expr {
                Some(e) => {
                    cov.hit(pt::EVAL_CASE_ELSE);
                    let ev = self.eval(e, &active)?;
                    self.scatter(ev, &active, &mut out);
                }
                // Unmatched lanes stay NULL.
                None => cov.hit(pt::EVAL_CASE_NO_MATCH),
            }
        }
        self.pool.give_sel(active);
        self.pool.give_sel(next);
        self.pool.give_sel(matched);
        Ok(Col::Dense(out))
    }

    fn func(&mut self, func: FuncName, args: &[BoundExpr], sel: &[u32]) -> Result<Col, Abort> {
        let (d, cov) = (self.ctx.dialect, self.cov);
        enter_func(func, args.len(), cov)?;
        match func {
            FuncName::Coalesce => {
                let mut out = self.pool.vals(self.rows.len());
                let mut active = self.pool.sel();
                active.extend_from_slice(sel);
                let mut next = self.pool.sel();
                for a in args {
                    if active.is_empty() {
                        break;
                    }
                    let v = self.eval(a, &active)?;
                    next.clear();
                    for &lane in &active {
                        let val = v.get(lane);
                        if val.is_null() {
                            next.push(lane);
                        } else {
                            out[lane as usize] = val.clone();
                        }
                    }
                    self.pool.give(v);
                    std::mem::swap(&mut active, &mut next);
                }
                self.pool.give_sel(active);
                self.pool.give_sel(next);
                Ok(Col::Dense(out))
            }
            FuncName::Iif => {
                let c = self.eval(&args[0], sel)?;
                let mut then_sel = self.pool.sel();
                let mut else_sel = self.pool.sel();
                for &lane in sel {
                    if truthiness(c.get(lane), d, cov)? == Some(true) {
                        then_sel.push(lane);
                    } else {
                        else_sel.push(lane);
                    }
                }
                self.pool.give(c);
                let mut out = self.pool.vals(self.rows.len());
                if !then_sel.is_empty() {
                    let tv = self.eval(&args[1], &then_sel)?;
                    self.scatter(tv, &then_sel, &mut out);
                }
                if !else_sel.is_empty() {
                    let ev = self.eval(&args[2], &else_sel)?;
                    self.scatter(ev, &else_sel, &mut out);
                }
                self.pool.give_sel(then_sel);
                self.pool.give_sel(else_sel);
                Ok(Col::Dense(out))
            }
            // The trailing arguments evaluate only for the lanes whose
            // leading ones are non-NULL (the scalar walk returns early).
            FuncName::Round | FuncName::Substr => {
                let lead = if func == FuncName::Round { 1 } else { 2 };
                let mut cols = Vec::with_capacity(args.len());
                for a in &args[..lead] {
                    cols.push(self.eval(a, sel)?);
                }
                let mut live = self.pool.sel();
                live.extend(
                    sel.iter()
                        .filter(|&&l| cols.iter().all(|c| !c.get(l).is_null())),
                );
                let tail = match args.get(lead) {
                    Some(a) if !live.is_empty() => Some(self.eval(a, &live)?),
                    _ => None,
                };
                let mut out = self.pool.vals(self.rows.len());
                for &lane in &live {
                    let last = tail.as_ref().map(|c| c.get(lane));
                    let first = cols[0].get(lane);
                    out[lane as usize] = if func == FuncName::Round {
                        round_value(first, last, d)?
                    } else {
                        let text = value_to_text(first, d, "SUBSTR")?;
                        substr_value(&text, cols[1].get(lane), last)
                    };
                }
                cols.into_iter().chain(tail).for_each(|c| self.pool.give(c));
                self.pool.give_sel(live);
                Ok(Col::Dense(out))
            }
            _ => match args {
                [] => Ok(Col::Const(func_value(func, &[], d)?)),
                [a] => self.map1(a, sel, |v| func_value(func, &[v], d)),
                [a, b] => self.map2(a, b, sel, |x, y| func_value(func, &[x, y], d)),
                _ => unreachable!("no eager function takes three arguments"),
            },
        }
    }

    /// Build a kernel operand: local columns fuse into direct row reads
    /// (their coverage hit and correlation record fire here, once —
    /// identical to the materialized load), everything else evaluates.
    fn operand(&mut self, e: &BoundExpr, sel: &[u32]) -> Result<Operand, Abort> {
        if let BoundExpr::Column(c) = e {
            if c.up == 0 {
                let index = c.index as usize;
                self.cov.hit(pt::EVAL_COLUMN_LOCAL);
                self.ctx.note_column_read(self.outer.len(), index);
                return Ok(Operand::ColRef(index));
            }
        }
        Ok(Operand::Mat(self.eval(e, sel)?))
    }

    fn release_operand(&mut self, op: Operand) {
        if let Operand::Mat(c) = op {
            self.pool.give(c);
        }
    }

    /// Evaluate one operand and apply a per-lane value rule to it; an
    /// erroring lane aborts the chunk.
    fn map1(
        &mut self,
        e: &BoundExpr,
        sel: &[u32],
        mut f: impl FnMut(&Value) -> crate::error::Result<Value>,
    ) -> Result<Col, Abort> {
        let v = self.operand(e, sel)?;
        let out = match v.konst() {
            Some(a) => Col::Const(f(a)?),
            None => {
                let mut out = self.pool.vals(self.rows.len());
                for &lane in sel {
                    out[lane as usize] = f(v.get(self.rows, lane))?;
                }
                Col::Dense(out)
            }
        };
        self.release_operand(v);
        Ok(out)
    }

    /// [`Self::map1`] over two operands, evaluated left to right.
    fn map2(
        &mut self,
        left: &BoundExpr,
        right: &BoundExpr,
        sel: &[u32],
        mut f: impl FnMut(&Value, &Value) -> crate::error::Result<Value>,
    ) -> Result<Col, Abort> {
        let l = self.operand(left, sel)?;
        let r = self.operand(right, sel)?;
        let out = if let (Some(a), Some(b)) = (l.konst(), r.konst()) {
            Col::Const(f(a, b)?)
        } else {
            let mut out = self.pool.vals(self.rows.len());
            for &lane in sel {
                out[lane as usize] = f(l.get(self.rows, lane), r.get(self.rows, lane))?;
            }
            Col::Dense(out)
        };
        self.release_operand(l);
        self.release_operand(r);
        Ok(out)
    }

    /// Move a column's values into `out` at the given lanes.
    fn scatter(&mut self, src: Col, lanes: &[u32], out: &mut [Value]) {
        match src {
            Col::Const(v) => {
                for &lane in lanes {
                    out[lane as usize] = v.clone();
                }
            }
            Col::Dense(mut vs) => {
                for &lane in lanes {
                    out[lane as usize] = std::mem::replace(&mut vs[lane as usize], Value::Null);
                }
                self.pool.give_vals(vs);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk drivers (called from the executor).
// ---------------------------------------------------------------------------

/// Vectorized WHERE filter over one chunk: sets `keep[lane]` for passing
/// lanes and fires the exact filter/truthiness coverage. `false` means
/// the chunk must re-run row-at-a-time (an erroring lane, or a strict
/// truthiness error); nothing has been merged into the real coverage and
/// `keep` contents are unspecified in that case.
pub(crate) fn filter_chunk(
    pred: &BoundExpr,
    rows: &[Row],
    outer: &[Frame],
    ctx: &EngineCtx,
    keep: &mut [bool],
) -> bool {
    debug_assert_eq!(rows.len(), keep.len());
    let scratch = Coverage::new();
    let mut pool = ctx.vec_pool.borrow_mut();
    let mut sel = pool.sel();
    sel.extend(0..rows.len() as u32);
    let mut ce = ChunkEval {
        ctx,
        cov: &scratch,
        rows,
        outer,
        pool: &mut pool,
    };
    let Ok(col) = ce.eval(pred, &sel) else {
        return false;
    };
    for &lane in &sel {
        let Ok(t) = truthiness(col.get(lane), ctx.dialect, &scratch) else {
            return false;
        };
        match t {
            Some(true) => {
                scratch.hit(pt::EXEC_FILTER_PASS);
                keep[lane as usize] = true;
            }
            Some(false) => scratch.hit(pt::EXEC_FILTER_DROP),
            None => scratch.hit(pt::EXEC_FILTER_NULL),
        }
    }
    pool.give(col);
    pool.give_sel(sel);
    ctx.cov.merge(&scratch);
    true
}

/// Vectorized projection over one chunk: evaluates every output
/// expression column-at-a-time, then assembles output rows. On success
/// the chunk's rows are appended to `out_rows` and coverage merged; on
/// `false` nothing was appended and the caller re-runs the chunk
/// row-at-a-time.
pub(crate) fn project_chunk(
    bounds: &[&BoundExpr],
    rows: &[Row],
    outer: &[Frame],
    ctx: &EngineCtx,
    out_rows: &mut Vec<Row>,
) -> bool {
    let scratch = Coverage::new();
    let mut pool = ctx.vec_pool.borrow_mut();
    let mut sel = pool.sel();
    sel.extend(0..rows.len() as u32);
    let mut ce = ChunkEval {
        ctx,
        cov: &scratch,
        rows,
        outer,
        pool: &mut pool,
    };
    let mut cols = Vec::with_capacity(bounds.len());
    for b in bounds {
        match ce.eval(b, &sel) {
            Ok(c) => cols.push(c),
            Err(Abort) => return false,
        }
    }
    for lane in 0..rows.len() {
        let mut vals = Vec::with_capacity(cols.len());
        for c in &mut cols {
            vals.push(match c {
                Col::Const(v) => v.clone(),
                Col::Dense(vs) => std::mem::replace(&mut vs[lane], Value::Null),
            });
        }
        out_rows.push(Row::new(vals));
    }
    for c in cols {
        pool.give(c);
    }
    pool.give_sel(sel);
    ctx.cov.merge(&scratch);
    true
}

/// Evaluate one bound expression over a chunk, appending one value per
/// row to `out` in row order. Coverage goes to `scratch` — the caller
/// decides when (whether) to merge, which lets grouped execution make
/// its aggregate-argument pre-evaluation all-or-nothing.
pub(crate) fn eval_chunk_into(
    bound: &BoundExpr,
    rows: &[Row],
    outer: &[Frame],
    ctx: &EngineCtx,
    scratch: &Coverage,
    out: &mut Vec<Value>,
) -> bool {
    let mut pool = ctx.vec_pool.borrow_mut();
    let mut sel = pool.sel();
    sel.extend(0..rows.len() as u32);
    let mut ce = ChunkEval {
        ctx,
        cov: scratch,
        rows,
        outer,
        pool: &mut pool,
    };
    let ok = match ce.eval(bound, &sel) {
        Ok(Col::Const(v)) => {
            out.extend(std::iter::repeat_with(|| v.clone()).take(rows.len()));
            true
        }
        Ok(Col::Dense(mut vs)) => {
            out.append(&mut vs);
            pool.give_vals(vs);
            true
        }
        Err(Abort) => false,
    };
    pool.give_sel(sel);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::BugRegistry;

    #[test]
    fn classify_rejects_subqueries_hooked_shapes_and_shadowable_columns() {
        let bugs = BugRegistry::none();
        let d = Dialect::Sqlite;
        let ok = Expr::and(
            Expr::eq(Expr::bare_col("a"), Expr::lit(1i64)),
            Expr::bin(BinaryOp::Gt, Expr::bare_col("b"), Expr::lit(2i64)),
        );
        assert!(classify(&ok, &bugs, d, StmtKind::Select, 0).is_ok());
        assert_eq!(
            classify(&Expr::count_star(), &bugs, d, StmtKind::Select, 0),
            Err("aggregate")
        );
        let mut hooked = BugRegistry::none();
        hooked.enable(BugId::TidbInValueListWhere);
        let in_list = Expr::InList {
            expr: Box::new(Expr::bare_col("a")),
            list: vec![Expr::lit(1i64)],
            negated: false,
        };
        assert!(classify(&in_list, &bugs, d, StmtKind::Select, 0).is_ok());
        assert_eq!(
            classify(&in_list, &hooked, d, StmtKind::Select, 0),
            Err("mutant-hooked IN list")
        );
        // Under the name-collision mutant, a bare column inside a
        // subquery may be redirected to a shadowed outer column; a
        // qualified one, or any column of the top statement, cannot.
        let collision = BugRegistry::only(BugId::TidbCorrelatedNameCollision);
        let (bare, qualified) = (Expr::bare_col("a"), Expr::col("t0", "a"));
        assert_eq!(
            classify(&bare, &collision, d, StmtKind::Select, 1),
            Err("name-collision mutant")
        );
        assert!(classify(&qualified, &collision, d, StmtKind::Select, 1).is_ok());
        assert!(classify(&bare, &collision, d, StmtKind::Select, 0).is_ok());
        assert!(classify(&bare, &bugs, d, StmtKind::Select, 1).is_ok());
    }

    #[test]
    fn classify_rejects_mysql_dml_comparisons() {
        let bugs = BugRegistry::none();
        let cmp = Expr::eq(Expr::bare_col("a"), Expr::lit(1i64));
        assert!(classify(&cmp, &bugs, Dialect::Mysql, StmtKind::Select, 0).is_ok());
        assert_eq!(
            classify(&cmp, &bugs, Dialect::Mysql, StmtKind::Update, 0),
            Err("dialect DML comparison")
        );
    }
}
