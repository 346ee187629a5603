//! AST traversal and rewriting.
//!
//! This module is the one place that knows an [`Expr`]'s children:
//! [`for_each_child`] and [`for_each_child_mut`] list them, and every
//! other walker (folding, index matching, plan fingerprints, the
//! oracles' rewrites) is policy over those two. Subquery bodies are not
//! children; [`walk_expr_deep`] reaches them separately. The bound form
//! [`crate::bind::BoundExpr`] lists its own children next to its type.
//!
//! [`replace_in_select`] / [`replace_in_statement`] implement the paper's
//! `ReplaceExpr` (Algorithm 1, line 13): constant propagation swaps the
//! selected expression `φ` for its folded result `Rφ` *in place* in the AST,
//! matching by structural equality.

use super::{Expr, InsertSource, Select, SelectBody, SelectCore, SelectItem, Statement, TableExpr};

/// Visit `expr` and all sub-expressions, but do **not** descend into
/// subqueries (they open a new name scope).
pub fn walk_expr_shallow(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    for_each_child(expr, &mut |child| walk_expr_shallow(child, f));
}

/// Visit `expr` and all sub-expressions including those inside subqueries.
pub fn walk_expr_deep(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    for_each_child(expr, &mut |child| walk_expr_deep(child, f));
    for_each_subquery(expr, &mut |q| walk_select_exprs(q, f));
}

/// Visit every expression appearing anywhere in a `SELECT` (deeply).
pub fn walk_select_exprs(select: &Select, f: &mut impl FnMut(&Expr)) {
    for cte in &select.with {
        walk_select_exprs(&cte.query, f);
    }
    walk_body_exprs(&select.body, f);
    for item in &select.order_by {
        walk_expr_deep(&item.expr, f);
    }
    if let Some(l) = &select.limit {
        walk_expr_deep(l, f);
    }
    if let Some(o) = &select.offset {
        walk_expr_deep(o, f);
    }
}

fn walk_body_exprs(body: &SelectBody, f: &mut impl FnMut(&Expr)) {
    match body {
        SelectBody::Core(core) => walk_core_exprs(core, f),
        SelectBody::SetOp { left, right, .. } => {
            walk_body_exprs(left, f);
            walk_body_exprs(right, f);
        }
        SelectBody::Values(rows) => {
            for row in rows {
                for e in row {
                    walk_expr_deep(e, f);
                }
            }
        }
    }
}

fn walk_core_exprs(core: &SelectCore, f: &mut impl FnMut(&Expr)) {
    for item in &core.items {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr_deep(expr, f);
        }
    }
    if let Some(from) = &core.from {
        walk_table_exprs(from, f);
    }
    if let Some(w) = &core.where_clause {
        walk_expr_deep(w, f);
    }
    for g in &core.group_by {
        walk_expr_deep(g, f);
    }
    if let Some(h) = &core.having {
        walk_expr_deep(h, f);
    }
}

fn walk_table_exprs(te: &TableExpr, f: &mut impl FnMut(&Expr)) {
    match te {
        TableExpr::Named { .. } => {}
        TableExpr::Derived { query, .. } => walk_select_exprs(query, f),
        TableExpr::Values { rows, .. } => {
            for row in rows {
                for e in row {
                    walk_expr_deep(e, f);
                }
            }
        }
        TableExpr::Join {
            left, right, on, ..
        } => {
            walk_table_exprs(left, f);
            walk_table_exprs(right, f);
            if let Some(on) = on {
                walk_expr_deep(on, f);
            }
        }
    }
}

/// Apply `f` to each *immediate* child expression (not into subqueries),
/// in source order. The operand of `IN (subquery)` and `ANY`/`ALL` and an
/// aggregate's argument are children; walkers that must not enter them
/// say so in their own match arm.
pub fn for_each_child<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    match expr {
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Unary { expr, .. } => f(expr),
        Expr::Binary { left, right, .. } => {
            f(left);
            f(right);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            f(expr);
            f(low);
            f(high);
        }
        Expr::InList { expr, list, .. } => {
            f(expr);
            for e in list {
                f(e);
            }
        }
        Expr::InSubquery { expr, .. } => f(expr),
        Expr::Exists { .. } => {}
        Expr::Scalar(_) => {}
        Expr::Quantified { expr, .. } => f(expr),
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => {
            if let Some(op) = operand {
                f(op);
            }
            for (w, t) in whens {
                f(w);
                f(t);
            }
            if let Some(e) = else_expr {
                f(e);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                f(a);
            }
        }
        Expr::Cast { expr, .. } => f(expr),
        Expr::IsNull { expr, .. } => f(expr),
        Expr::Like { expr, pattern, .. } => {
            f(expr);
            f(pattern);
        }
    }
}

/// Apply `f` to each subquery directly attached to this expression node.
fn for_each_subquery(expr: &Expr, f: &mut impl FnMut(&Select)) {
    match expr {
        Expr::InSubquery { query, .. }
        | Expr::Exists { query, .. }
        | Expr::Scalar(query)
        | Expr::Quantified { query, .. } => f(query),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Mutable rewriting (constant propagation).
// ---------------------------------------------------------------------------

/// Replace every occurrence of `target` (structural equality) in `expr`
/// with `replacement`, descending into subqueries. Returns the number of
/// replacements performed.
pub fn replace_in_expr(expr: &mut Expr, target: &Expr, replacement: &Expr) -> usize {
    if expr == target {
        *expr = replacement.clone();
        return 1;
    }
    let mut count = 0;
    for_each_child_mut(expr, &mut |child| {
        count += replace_in_expr(child, target, replacement);
    });
    for_each_subquery_mut(expr, &mut |q| {
        count += replace_in_select(q, target, replacement);
    });
    count
}

/// Replace `target` throughout a `SELECT` statement.
pub fn replace_in_select(select: &mut Select, target: &Expr, replacement: &Expr) -> usize {
    let mut count = 0;
    for cte in &mut select.with {
        count += replace_in_select(&mut cte.query, target, replacement);
    }
    count += replace_in_body(&mut select.body, target, replacement);
    for item in &mut select.order_by {
        count += replace_in_expr(&mut item.expr, target, replacement);
    }
    if let Some(l) = &mut select.limit {
        count += replace_in_expr(l, target, replacement);
    }
    if let Some(o) = &mut select.offset {
        count += replace_in_expr(o, target, replacement);
    }
    count
}

fn replace_in_body(body: &mut SelectBody, target: &Expr, replacement: &Expr) -> usize {
    match body {
        SelectBody::Core(core) => replace_in_core(core, target, replacement),
        SelectBody::SetOp { left, right, .. } => {
            replace_in_body(left, target, replacement) + replace_in_body(right, target, replacement)
        }
        SelectBody::Values(rows) => rows
            .iter_mut()
            .flat_map(|row| row.iter_mut())
            .map(|e| replace_in_expr(e, target, replacement))
            .sum(),
    }
}

fn replace_in_core(core: &mut SelectCore, target: &Expr, replacement: &Expr) -> usize {
    let mut count = 0;
    for item in &mut core.items {
        if let SelectItem::Expr { expr, .. } = item {
            count += replace_in_expr(expr, target, replacement);
        }
    }
    if let Some(from) = &mut core.from {
        count += replace_in_table(from, target, replacement);
    }
    if let Some(w) = &mut core.where_clause {
        count += replace_in_expr(w, target, replacement);
    }
    for g in &mut core.group_by {
        count += replace_in_expr(g, target, replacement);
    }
    if let Some(h) = &mut core.having {
        count += replace_in_expr(h, target, replacement);
    }
    count
}

fn replace_in_table(te: &mut TableExpr, target: &Expr, replacement: &Expr) -> usize {
    match te {
        TableExpr::Named { .. } => 0,
        TableExpr::Derived { query, .. } => replace_in_select(query, target, replacement),
        TableExpr::Values { rows, .. } => rows
            .iter_mut()
            .flat_map(|row| row.iter_mut())
            .map(|e| replace_in_expr(e, target, replacement))
            .sum(),
        TableExpr::Join {
            left, right, on, ..
        } => {
            let mut count = replace_in_table(left, target, replacement)
                + replace_in_table(right, target, replacement);
            if let Some(on) = on {
                count += replace_in_expr(on, target, replacement);
            }
            count
        }
    }
}

/// Replace `target` throughout any statement.
pub fn replace_in_statement(stmt: &mut Statement, target: &Expr, replacement: &Expr) -> usize {
    match stmt {
        Statement::Select(s) => replace_in_select(s, target, replacement),
        Statement::Insert { source, .. } => match source {
            InsertSource::Values(rows) => rows
                .iter_mut()
                .flat_map(|row| row.iter_mut())
                .map(|e| replace_in_expr(e, target, replacement))
                .sum(),
            InsertSource::Query(q) => replace_in_select(q, target, replacement),
        },
        Statement::Update {
            sets, where_clause, ..
        } => {
            let mut count = 0;
            for (_, e) in sets {
                count += replace_in_expr(e, target, replacement);
            }
            if let Some(w) = where_clause {
                count += replace_in_expr(w, target, replacement);
            }
            count
        }
        Statement::Delete { where_clause, .. } => where_clause
            .as_mut()
            .map(|w| replace_in_expr(w, target, replacement))
            .unwrap_or(0),
        Statement::CreateView { query, .. } => replace_in_select(query, target, replacement),
        Statement::CreateIndex { exprs, .. } => exprs
            .iter_mut()
            .map(|e| replace_in_expr(e, target, replacement))
            .sum(),
        Statement::CreateTable { .. } | Statement::DropTable { .. } => 0,
    }
}

/// [`for_each_child`] over mutable children, for in-place rewrites.
pub fn for_each_child_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match expr {
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Unary { expr, .. } => f(expr),
        Expr::Binary { left, right, .. } => {
            f(left);
            f(right);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            f(expr);
            f(low);
            f(high);
        }
        Expr::InList { expr, list, .. } => {
            f(expr);
            for e in list {
                f(e);
            }
        }
        Expr::InSubquery { expr, .. } => f(expr),
        Expr::Exists { .. } => {}
        Expr::Scalar(_) => {}
        Expr::Quantified { expr, .. } => f(expr),
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => {
            if let Some(op) = operand {
                f(op);
            }
            for (w, t) in whens {
                f(w);
                f(t);
            }
            if let Some(e) = else_expr {
                f(e);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                f(a);
            }
        }
        Expr::Cast { expr, .. } => f(expr),
        Expr::IsNull { expr, .. } => f(expr),
        Expr::Like { expr, pattern, .. } => {
            f(expr);
            f(pattern);
        }
    }
}

fn for_each_subquery_mut(expr: &mut Expr, f: &mut impl FnMut(&mut Select)) {
    match expr {
        Expr::InSubquery { query, .. }
        | Expr::Exists { query, .. }
        | Expr::Scalar(query)
        | Expr::Quantified { query, .. } => f(query),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;

    #[test]
    fn replace_swaps_matching_subtree() {
        let phi = Expr::bin(BinaryOp::Gt, Expr::col("t", "c"), Expr::lit(0i64));
        let mut host = Expr::and(phi.clone(), Expr::lit(true));
        let n = replace_in_expr(&mut host, &phi, &Expr::lit(false));
        assert_eq!(n, 1);
        assert_eq!(host, Expr::and(Expr::lit(false), Expr::lit(true)));
    }

    #[test]
    fn replace_descends_into_subqueries() {
        let phi = Expr::col("t", "c");
        let sub = Select::scalar_probe(phi.clone());
        let mut host = Expr::Scalar(Box::new(sub));
        let n = replace_in_expr(&mut host, &phi, &Expr::lit(9i64));
        assert_eq!(n, 1);
        match host {
            Expr::Scalar(q) => {
                let core = q.core().unwrap();
                match &core.items[0] {
                    SelectItem::Expr { expr, .. } => assert_eq!(*expr, Expr::lit(9i64)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replace_in_statement_reaches_where_clause() {
        let phi = Expr::bin(BinaryOp::Lt, Expr::bare_col("c"), Expr::lit(5i64));
        let mut stmt = Statement::Delete {
            table: "t".into(),
            where_clause: Some(phi.clone()),
        };
        let n = replace_in_statement(&mut stmt, &phi, &Expr::lit(true));
        assert_eq!(n, 1);
        match stmt {
            Statement::Delete { where_clause, .. } => {
                assert_eq!(where_clause, Some(Expr::lit(true)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replace_counts_multiple_occurrences() {
        let phi = Expr::lit(1i64);
        let mut host = Expr::and(phi.clone(), phi.clone());
        let n = replace_in_expr(&mut host, &phi, &Expr::lit(2i64));
        assert_eq!(n, 2);
    }

    #[test]
    fn walk_select_visits_order_by_and_limit() {
        let mut s = Select::scalar_probe(Expr::lit(1i64));
        s.order_by.push(crate::ast::OrderItem {
            expr: Expr::lit(2i64),
            order: crate::ast::SortOrder::Asc,
        });
        s.limit = Some(Expr::lit(3i64));
        let mut seen = Vec::new();
        walk_select_exprs(&s, &mut |e| {
            if let Expr::Literal(v) = e {
                seen.push(v.clone());
            }
        });
        assert_eq!(seen.len(), 3);
    }
}
