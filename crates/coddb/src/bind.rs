//! The binding pass: compile expressions once, evaluate many times.
//!
//! CoddDB executes a statement in three phases (see the crate docs for the
//! full contract):
//!
//! 1. **plan** ([`crate::plan`]) lowers the AST to a [`crate::plan::SelectPlan`],
//! 2. **bind** (this module) compiles each clause expression against the
//!    schemas in scope, and
//! 3. **exec** ([`crate::exec`]) streams rows through the bound form.
//!
//! Binding resolves every [`ColumnRef`] to a `(scope hop, column ordinal)`
//! pair — one case-normalized name lookup per *query*, instead of a
//! lowercased `String` allocation plus a linear scope scan per *row* — and
//! precomputes everything else the evaluator would otherwise rediscover
//! per row: aggregate slots, subquery-shape flags for the bug hooks, and
//! the alternative outer binding the `TidbCorrelatedNameCollision` mutant
//! switches to at runtime. The produced [`BoundExpr`] mirrors [`Expr`]
//! node for node, so the context-sensitive mutants in [`crate::eval`]
//! keep pattern-matching the same shapes; subqueries stay as AST
//! ([`Select`]) and are planned + bound lazily at evaluation time, exactly
//! like the planner treats them. [`BoundExpr`]'s children are listed in
//! one place, its `for_each_child`, which the executor's invariance test
//! and the bound-form checks of [`crate::validate`] walk.
//!
//! Name-resolution errors (unknown or ambiguous columns) surface at bind
//! time — once per query — matching real engines, where name resolution
//! is static.

use std::rc::Rc;

use crate::ast::{
    AggFunc, BinaryOp, ColumnRef, CompareOp, Expr, FuncName, Quantifier, Select, SelectItem,
    UnaryOp,
};
use crate::error::{Error, Result};
use crate::exec::Schema;
use crate::value::{DataType, Value};

/// A column reference resolved to a frame hop and ordinal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundColumn {
    /// Scope hops from the innermost frame (0 = local scope).
    pub up: u16,
    /// Column ordinal within that frame's schema.
    pub index: u16,
    /// Alternative binding recorded for the `TidbCorrelatedNameCollision`
    /// mutant: a bare name that resolved locally but shadows an outer
    /// column. The evaluator switches to it only when the mutant is
    /// active, keeping the hook a runtime branch.
    pub collision_alt: Option<(u16, u16)>,
}

/// One aggregate computed per group; `slot` indexes the per-group value
/// table handed to the evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate call as written (an [`Expr::Agg`]). Slots are
    /// deduplicated by it, and the vectorization classifier reads its
    /// argument.
    pub call: Expr,
    pub func: AggFunc,
    pub distinct: bool,
    /// Bound argument (`None` for `COUNT(*)` and for malformed calls,
    /// which the executor rejects when a group is actually computed).
    pub arg: Option<BoundExpr>,
}

/// A subquery operand of a bound expression. Its body stays AST and is
/// planned at evaluation time; the node also keeps the statement's cache
/// entry for it once its first evaluation has made one, so later
/// evaluations reach the plan and the result memo directly. Clones of a
/// bound expression share the node (it sits behind an `Rc`), and with it
/// the entry.
#[derive(Debug)]
pub struct BoundSubquery {
    /// The subquery as written.
    pub ast: Select,
    pub(crate) entry: crate::cache::SubqCell,
}

impl BoundSubquery {
    fn new(ast: &Select) -> Rc<BoundSubquery> {
        Rc::new(BoundSubquery {
            ast: ast.clone(),
            entry: Default::default(),
        })
    }
}

/// Two bound subqueries are equal when they were bound from equal ASTs.
impl PartialEq for BoundSubquery {
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

/// An [`Expr`] with all name resolution and per-row bookkeeping
/// precomputed. Shapes mirror [`Expr`] so the injected bug hooks keep
/// matching structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    Column(BoundColumn),
    Unary {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        op: BinaryOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<BoundExpr>,
        query: Rc<BoundSubquery>,
        negated: bool,
    },
    Exists {
        query: Rc<BoundSubquery>,
        negated: bool,
    },
    Scalar {
        query: Rc<BoundSubquery>,
        /// Precomputed trigger shape for `SqliteAggSubqueryIndexedWhere`
        /// (the evaluator previously re-walked the subquery per row).
        has_aggregate: bool,
    },
    Quantified {
        op: CompareOp,
        quantifier: Quantifier,
        expr: Box<BoundExpr>,
        query: Rc<BoundSubquery>,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        whens: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
        /// Precomputed trigger shape for `DuckdbCaseSubqueryElse`.
        then_subquery: bool,
    },
    Func {
        func: FuncName,
        args: Vec<BoundExpr>,
    },
    Agg {
        /// Index into the per-group aggregate value table.
        slot: u16,
        func: AggFunc,
        distinct: bool,
    },
    Cast {
        expr: Box<BoundExpr>,
        ty: DataType,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
}

impl BoundExpr {
    /// Apply `f` to each immediate child, in source order — the one list
    /// of a bound node's children. Subquery bodies stay AST and are not
    /// children; the operand of `IN (subquery)` and `ANY`/`ALL` is.
    pub(crate) fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a BoundExpr)) {
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Column(_)
            | BoundExpr::Exists { .. }
            | BoundExpr::Scalar { .. }
            | BoundExpr::Agg { .. } => {}
            BoundExpr::Unary { expr, .. }
            | BoundExpr::InSubquery { expr, .. }
            | BoundExpr::Quantified { expr, .. }
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. } => f(expr),
            BoundExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            BoundExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            BoundExpr::Case {
                operand,
                whens,
                else_expr,
                ..
            } => {
                if let Some(o) = operand {
                    f(o);
                }
                for (w, t) in whens {
                    f(w);
                    f(t);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            BoundExpr::Func { args, .. } => args.iter().for_each(f),
            BoundExpr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
        }
    }
}

/// Bind the recognized hash-join key pairs of a join: each left-side key
/// expression resolves against the left input's schema and each
/// right-side expression against the right input's, yielding the bound
/// column ordinals the executor's build/probe loops evaluate once per
/// *row* (instead of once per row pair, as the nested loop does).
///
/// Aggregate calls are illegal in ON clauses, so keys bind through
/// [`Binder::bind`] — exactly the rule the nested-loop path applies to
/// the whole ON predicate.
pub fn bind_join_keys(
    keys: &[(Expr, Expr)],
    left: &Schema,
    right: &Schema,
    depth: u32,
) -> Result<(Vec<BoundExpr>, Vec<BoundExpr>)> {
    let lscopes: [&Schema; 1] = [left];
    let rscopes: [&Schema; 1] = [right];
    let mut lbinder = Binder::new(&lscopes, depth);
    let mut rbinder = Binder::new(&rscopes, depth);
    let mut lbound = Vec::with_capacity(keys.len());
    let mut rbound = Vec::with_capacity(keys.len());
    for (l, r) in keys {
        lbound.push(lbinder.bind(l)?);
        rbound.push(rbinder.bind(r)?);
    }
    Ok((lbound, rbound))
}

/// The Listing-1 trigger shape: does the subquery project an aggregate?
pub fn subquery_has_aggregate(q: &Select) -> bool {
    let Some(core) = q.core() else { return false };
    core.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    })
}

/// Compiles expressions against a stack of scope schemas (outermost
/// first; the innermost scope is last, mirroring [`crate::exec::Frame`]
/// order at evaluation time).
pub struct Binder<'a> {
    scopes: &'a [&'a Schema],
    /// Subquery nesting depth of the enclosing SELECT (0 = top statement);
    /// the collision-alt hook only applies inside subqueries.
    depth: u32,
    /// Distinct aggregate calls seen so far, in slot order. Dedup is by
    /// structural equality of the call's AST ([`AggSpec::call`]), so each
    /// distinct aggregate is computed once per group.
    agg_specs: Vec<AggSpec>,
    /// Whether aggregate calls are legal in the expression being bound.
    in_aggregate_scope: bool,
}

impl<'a> Binder<'a> {
    pub fn new(scopes: &'a [&'a Schema], depth: u32) -> Self {
        Binder {
            scopes,
            depth,
            agg_specs: Vec::new(),
            in_aggregate_scope: false,
        }
    }

    /// Bind an expression in which aggregate calls are illegal (WHERE,
    /// JOIN ON, GROUP BY keys, ...).
    pub fn bind(&mut self, expr: &Expr) -> Result<BoundExpr> {
        self.in_aggregate_scope = false;
        self.bind_expr(expr)
    }

    /// Bind a grouped-context expression (SELECT items, HAVING): aggregate
    /// calls are collected into slots.
    pub fn bind_aggregate(&mut self, expr: &Expr) -> Result<BoundExpr> {
        self.in_aggregate_scope = true;
        let bound = self.bind_expr(expr);
        self.in_aggregate_scope = false;
        bound
    }

    /// The aggregate specs collected by [`Binder::bind_aggregate`], in
    /// slot order.
    pub fn into_agg_specs(self) -> Vec<AggSpec> {
        self.agg_specs
    }

    fn bind_expr(&mut self, expr: &Expr) -> Result<BoundExpr> {
        Ok(match expr {
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Column(c) => BoundExpr::Column(self.resolve(c)?),
            Expr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_expr(expr)?),
            },
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(self.bind_expr(left)?),
                right: Box::new(self.bind_expr(right)?),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(self.bind_expr(expr)?),
                low: Box::new(self.bind_expr(low)?),
                high: Box::new(self.bind_expr(high)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind_expr(expr)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => BoundExpr::InSubquery {
                expr: Box::new(self.bind_expr(expr)?),
                query: BoundSubquery::new(query),
                negated: *negated,
            },
            Expr::Exists { query, negated } => BoundExpr::Exists {
                query: BoundSubquery::new(query),
                negated: *negated,
            },
            Expr::Scalar(query) => BoundExpr::Scalar {
                has_aggregate: subquery_has_aggregate(query),
                query: BoundSubquery::new(query),
            },
            Expr::Quantified {
                op,
                quantifier,
                expr,
                query,
            } => BoundExpr::Quantified {
                op: *op,
                quantifier: *quantifier,
                expr: Box::new(self.bind_expr(expr)?),
                query: BoundSubquery::new(query),
            },
            Expr::Case {
                operand,
                whens,
                else_expr,
            } => BoundExpr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.bind_expr(o)?)),
                    None => None,
                },
                whens: whens
                    .iter()
                    .map(|(w, t)| Ok::<_, Error>((self.bind_expr(w)?, self.bind_expr(t)?)))
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e)?)),
                    None => None,
                },
                then_subquery: whens.iter().any(|(_, t)| t.contains_subquery()),
            },
            Expr::Func { func, args } => BoundExpr::Func {
                func: *func,
                args: args
                    .iter()
                    .map(|a| self.bind_expr(a))
                    .collect::<Result<_>>()?,
            },
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                if !self.in_aggregate_scope {
                    return Err(Error::Eval("misuse of aggregate function".into()));
                }
                let slot = match self.agg_specs.iter().position(|s| s.call == *expr) {
                    Some(i) => i,
                    None => {
                        // Aggregate arguments evaluate per input row, where
                        // nested aggregates are illegal.
                        self.in_aggregate_scope = false;
                        let bound_arg = match arg {
                            Some(a) => Some(self.bind_expr(a)?),
                            None => None,
                        };
                        self.in_aggregate_scope = true;
                        self.agg_specs.push(AggSpec {
                            call: expr.clone(),
                            func: *func,
                            distinct: *distinct,
                            arg: bound_arg,
                        });
                        self.agg_specs.len() - 1
                    }
                };
                BoundExpr::Agg {
                    slot: slot as u16,
                    func: *func,
                    distinct: *distinct,
                }
            }
            Expr::Cast { expr, ty } => BoundExpr::Cast {
                expr: Box::new(self.bind_expr(expr)?),
                ty: *ty,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(self.bind_expr(expr)?),
                pattern: Box::new(self.bind_expr(pattern)?),
                negated: *negated,
            },
        })
    }

    /// Resolve a column reference against the scope stack, innermost
    /// scope first. Comparison is case-insensitive without allocating:
    /// schema names are normalized to lowercase at construction
    /// ([`crate::exec::ColMeta::new`]).
    pub(crate) fn resolve(&self, c: &ColumnRef) -> Result<BoundColumn> {
        let mut found: Option<(usize, usize)> = None; // (hops up, ordinal)
        for (up, frame) in self.scopes.iter().rev().enumerate() {
            let mut matches = frame.cols.iter().enumerate().filter(|(_, col)| {
                col.name.eq_ignore_ascii_case(&c.column)
                    && match &c.table {
                        Some(t) => col
                            .table
                            .as_deref()
                            .is_some_and(|ct| ct.eq_ignore_ascii_case(t)),
                        None => true,
                    }
            });
            if let Some((idx, _)) = matches.next() {
                if matches.next().is_some() {
                    return Err(Error::Catalog(format!("ambiguous column name: {c}")));
                }
                found = Some((up, idx));
                break;
            }
        }
        let (up, index) = found.ok_or_else(|| Error::Catalog(format!("no such column: {c}")))?;

        // TidbCorrelatedNameCollision: a bare column that resolves in the
        // subquery's own scope but shares its name with an outer column is
        // wrongly bound to the outer row when the mutant is active.
        let mut collision_alt = None;
        if c.table.is_none() && up == 0 && self.scopes.len() > 1 && self.depth > 0 {
            for (outer_up, frame) in self.scopes.iter().rev().enumerate().skip(1) {
                if let Some(idx) = frame
                    .cols
                    .iter()
                    .position(|col| col.name.eq_ignore_ascii_case(&c.column))
                {
                    collision_alt = Some((outer_up as u16, idx as u16));
                    break;
                }
            }
        }

        Ok(BoundColumn {
            up: up as u16,
            index: index as u16,
            collision_alt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ColMeta, Schema};

    fn schema(cols: &[(&str, &str)]) -> Schema {
        Schema {
            cols: cols.iter().map(|(t, n)| ColMeta::new(Some(t), n)).collect(),
        }
    }

    #[test]
    fn resolves_local_then_outer() {
        let outer = schema(&[("t1", "a"), ("t1", "b")]);
        let inner = schema(&[("t0", "a"), ("t0", "c")]);
        let scopes: Vec<&Schema> = vec![&outer, &inner];
        let mut b = Binder::new(&scopes, 1);

        match b.bind(&Expr::bare_col("C")).unwrap() {
            BoundExpr::Column(c) => {
                assert_eq!((c.up, c.index), (0, 1));
                assert_eq!(c.collision_alt, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match b.bind(&Expr::bare_col("b")).unwrap() {
            BoundExpr::Column(c) => assert_eq!((c.up, c.index), (1, 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn records_collision_alt_for_shadowed_bare_names() {
        let outer = schema(&[("t1", "a")]);
        let inner = schema(&[("t0", "a")]);
        let scopes: Vec<&Schema> = vec![&outer, &inner];
        let mut b = Binder::new(&scopes, 1);
        match b.bind(&Expr::bare_col("a")).unwrap() {
            BoundExpr::Column(c) => {
                assert_eq!((c.up, c.index), (0, 0));
                assert_eq!(c.collision_alt, Some((1, 0)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Qualified references never record the hook binding.
        match b.bind(&Expr::col("t0", "a")).unwrap() {
            BoundExpr::Column(c) => assert_eq!(c.collision_alt, None),
            other => panic!("unexpected {other:?}"),
        }
        // At depth 0 (not a subquery) the hook cannot fire.
        let mut top = Binder::new(&scopes, 0);
        match top.bind(&Expr::bare_col("a")).unwrap() {
            BoundExpr::Column(c) => assert_eq!(c.collision_alt, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ambiguous_and_missing_columns_error() {
        let s = schema(&[("t0", "a"), ("t1", "a")]);
        let scopes: Vec<&Schema> = vec![&s];
        let mut b = Binder::new(&scopes, 0);
        assert!(
            matches!(b.bind(&Expr::bare_col("a")), Err(Error::Catalog(m)) if m.contains("ambiguous"))
        );
        assert!(
            matches!(b.bind(&Expr::bare_col("zz")), Err(Error::Catalog(m)) if m.contains("no such column"))
        );
        // A qualifier disambiguates.
        assert!(b.bind(&Expr::col("t1", "a")).is_ok());
    }

    #[test]
    fn aggregates_get_deduplicated_slots() {
        let s = schema(&[("t0", "a")]);
        let scopes: Vec<&Schema> = vec![&s];
        let mut b = Binder::new(&scopes, 0);
        let sum = Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::bare_col("a"))),
            distinct: false,
        };
        let count = Expr::count_star();
        let e = Expr::and(
            Expr::eq(sum.clone(), Expr::lit(1i64)),
            Expr::eq(
                Expr::bin(BinaryOp::Add, sum.clone(), count.clone()),
                Expr::lit(2i64),
            ),
        );
        let bound = b.bind_aggregate(&e).unwrap();
        let specs = b.into_agg_specs();
        assert_eq!(specs.len(), 2, "SUM(a) deduplicated, COUNT(*) separate");
        assert_eq!(specs[0].func, AggFunc::Sum);
        assert_eq!(specs[1].func, AggFunc::CountStar);
        // Both SUM occurrences share slot 0.
        let mut slots = Vec::new();
        fn walk(e: &BoundExpr, out: &mut Vec<u16>) {
            match e {
                BoundExpr::Agg { slot, .. } => out.push(*slot),
                BoundExpr::Binary { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                _ => {}
            }
        }
        walk(&bound, &mut slots);
        assert_eq!(slots, vec![0, 0, 1]);
    }

    #[test]
    fn aggregates_outside_aggregate_scope_error() {
        let s = schema(&[("t0", "a")]);
        let scopes: Vec<&Schema> = vec![&s];
        let mut b = Binder::new(&scopes, 0);
        assert!(matches!(
            b.bind(&Expr::count_star()),
            Err(Error::Eval(m)) if m.contains("misuse of aggregate")
        ));
    }
}
