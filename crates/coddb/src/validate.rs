//! Plan-IR verification: statically reject illegal plans before execution.
//!
//! The planner ([`crate::plan`]) promises a set of structural invariants to
//! the executor — seek probes justified by the WHERE clause, sort
//! elimination only when index order provably equals sorted order, hash
//! keys side-pure and prefix-closed, filters never pushed below the
//! null-padded side of an outer join. The executor *trusts* these
//! invariants; a planner defect therefore corrupts results silently. This
//! module re-derives each invariant from the plan tree and the catalog
//! alone — deliberately **without** consulting the bug registry, so a
//! mutant-corrupted plan cannot bless itself — and reports every breach as
//! a [`Violation`] with a stable invariant code.
//!
//! Three consumers:
//!
//! 1. debug builds assert a clean engine never plans a violation
//!    (hooked at the end of [`crate::plan::plan_select`], so every
//!    existing test and fuzz run sweeps the verifier for free),
//! 2. the `verify` campaign oracle (crates/core) flags violations as
//!    findings — catching planner mutants *without executing a row*,
//! 3. the validator differential suite pins which mutants are statically
//!    detectable and which are runtime-only.
//!
//! The checked invariants are enumerated in the crate docs
//! ("Plan invariants", [`crate`]).

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{BinaryOp, Expr, JoinKind, OrderItem, SelectItem, SortOrder};
use crate::bind::BoundExpr;
use crate::catalog::{Catalog, TableDef};
use crate::exec::Schema;
use crate::index::OrdIndex;
use crate::plan::{
    collect_aliases, conjoin, explain_full, refers_only_to, sargable, split_conjuncts, BodyPlan,
    CorePlan, FromPlan, SelectPlan, VecNote, MAX_SEEK_KEYS,
};
use crate::value::Value;

/// One invariant breach. `code` is a stable machine-readable identifier
/// (campaign findings and golden tests key on it); `detail` is the
/// human-readable specifics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub code: &'static str,
    pub detail: String,
}

impl Violation {
    fn new(code: &'static str, detail: impl Into<String>) -> Violation {
        Violation {
            code,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.detail)
    }
}

/// Verify every structural invariant of a planned statement. Returns all
/// breaches found (empty = the plan is well-formed). Pure: reads only the
/// plan tree and the catalog.
pub fn validate_plan(plan: &SelectPlan, catalog: &Catalog) -> Vec<Violation> {
    let mut out = Vec::new();
    check_select(plan, catalog, &mut out);
    check_explain(plan, catalog, &mut out);
    out
}

fn check_select(plan: &SelectPlan, catalog: &Catalog, out: &mut Vec<Violation>) {
    for (_, _, cte) in &plan.ctes {
        check_select(cte, catalog, out);
    }
    check_body(&plan.body, &plan.order_by, catalog, out);
}

fn check_body(
    body: &BodyPlan,
    order_by: &[OrderItem],
    catalog: &Catalog,
    out: &mut Vec<Violation>,
) {
    match body {
        BodyPlan::Core(core) => check_core(core, order_by, catalog, out),
        BodyPlan::SetOp { left, right, .. } => {
            // Sort elimination requires a bare core body: an ordered seek
            // inside a set-operation branch can never be legal, which the
            // empty ORDER BY context below enforces.
            check_body(left, &[], catalog, out);
            check_body(right, &[], catalog, out);
        }
        BodyPlan::Values(_) => {}
    }
}

/// Where a FROM node sits, for position-sensitive invariants.
#[derive(Clone, Copy, PartialEq)]
enum Pos {
    /// The root of a core's FROM tree.
    CoreRoot,
    /// Direct child of a join of the given kind.
    JoinChild(JoinKind),
    /// Anywhere else (e.g. under a pushed filter).
    Other,
}

fn check_core(
    core: &CorePlan,
    order_by: &[OrderItem],
    catalog: &Catalog,
    out: &mut Vec<Violation>,
) {
    let Some(from) = &core.from else { return };
    if let FromPlan::IndexSeek {
        table,
        alias,
        index,
        eq,
        range,
        ordered,
        reverse,
    } = from
    {
        check_seek(
            SeekView {
                table,
                alias,
                index,
                eq,
                range: range.as_ref(),
                ordered: *ordered,
                reverse: *reverse,
            },
            core,
            order_by,
            catalog,
            out,
        );
    }
    check_from(from, Pos::CoreRoot, catalog, out);
}

fn check_from(from: &FromPlan, pos: Pos, catalog: &Catalog, out: &mut Vec<Violation>) {
    match from {
        FromPlan::SeqScan { .. } | FromPlan::ValuesScan { .. } | FromPlan::CteScan { .. } => {}
        FromPlan::IndexScan { table, index, .. } => match catalog.index(index) {
            None => out.push(Violation::new(
                "seek-index-missing",
                format!("INDEX SCAN references unknown index {index}"),
            )),
            Some(def) if !def.table.eq_ignore_ascii_case(table) => {
                out.push(Violation::new(
                    "seek-index-wrong-table",
                    format!(
                        "INDEX SCAN of {table} uses index {index} of table {}",
                        def.table
                    ),
                ));
            }
            Some(_) => {}
        },
        FromPlan::IndexSeek { table, index, .. } => {
            // Seeks only upgrade a core's root scan; the WHERE-clause
            // justification (checked in `check_seek`) is meaningless
            // anywhere else in the tree.
            if pos != Pos::CoreRoot {
                out.push(Violation::new(
                    "seek-position",
                    format!("INDEX SEEK of {table} USING {index} below the FROM root"),
                ));
            }
        }
        FromPlan::Derived { plan, .. } => check_select(plan, catalog, out),
        FromPlan::Filtered { input, pred, .. } => {
            match pos {
                // A pushed filter is legal only directly below an
                // inner/cross join: pushing below the preserved or
                // null-padded side of an outer join changes semantics
                // (exactly the `DuckdbPushdownLeftJoin` corruption).
                Pos::JoinChild(JoinKind::Inner) | Pos::JoinChild(JoinKind::Cross) => {}
                _ => out.push(Violation::new(
                    "filter-position",
                    format!("pushed filter `{pred}` outside an inner/cross join child"),
                )),
            }
            let mut aliases = BTreeSet::new();
            collect_aliases(input, &mut aliases);
            if !refers_only_to(pred, &aliases) {
                out.push(Violation::new(
                    "filter-scope",
                    format!("pushed filter `{pred}` reads outside its input subtree"),
                ));
            }
            check_from(input, Pos::Other, catalog, out);
        }
        FromPlan::Join {
            kind,
            on,
            hash_keys,
            residual,
            left,
            right,
        } => {
            check_hash_join(on.as_ref(), hash_keys, residual.as_ref(), left, right, out);
            check_from(left, Pos::JoinChild(*kind), catalog, out);
            check_from(right, Pos::JoinChild(*kind), catalog, out);
        }
    }
}

/// Hash-join legality: keys side-pure over disjoint alias sets, keys a
/// prefix of the ON conjunction (AND short-circuits in conjunct order),
/// residual exactly the remaining conjuncts and free of subqueries.
fn check_hash_join(
    on: Option<&Expr>,
    hash_keys: &[(Expr, Expr)],
    residual: Option<&Expr>,
    left: &FromPlan,
    right: &FromPlan,
    out: &mut Vec<Violation>,
) {
    if hash_keys.is_empty() {
        if residual.is_some() {
            out.push(Violation::new(
                "join-residual-orphan",
                "residual predicate without hash keys",
            ));
        }
        return;
    }
    let Some(on) = on else {
        out.push(Violation::new(
            "join-hash-prefix",
            "hash keys recognized without an ON predicate",
        ));
        return;
    };
    let mut left_aliases = BTreeSet::new();
    let mut right_aliases = BTreeSet::new();
    collect_aliases(left, &mut left_aliases);
    collect_aliases(right, &mut right_aliases);
    if !left_aliases.is_disjoint(&right_aliases) {
        out.push(Violation::new(
            "join-hash-sides",
            "hash join over inputs with overlapping alias sets",
        ));
        return;
    }
    for (l, r) in hash_keys {
        if !refers_only_to(l, &left_aliases) || !refers_only_to(r, &right_aliases) {
            out.push(Violation::new(
                "join-hash-sides",
                format!("hash key pair `{l}` = `{r}` is not side-pure"),
            ));
        }
    }
    let conjs = split_conjuncts(on);
    if conjs.len() < hash_keys.len() {
        out.push(Violation::new(
            "join-hash-prefix",
            format!(
                "{} hash key(s) from a {}-conjunct ON predicate",
                hash_keys.len(),
                conjs.len()
            ),
        ));
        return;
    }
    for (conj, (kl, kr)) in conjs.iter().zip(hash_keys.iter()) {
        let matches_pair = match conj {
            Expr::Binary {
                op: BinaryOp::Eq,
                left: cl,
                right: cr,
            } => {
                (cl.as_ref() == kl && cr.as_ref() == kr) || (cl.as_ref() == kr && cr.as_ref() == kl)
            }
            _ => false,
        };
        if !matches_pair {
            out.push(Violation::new(
                "join-hash-prefix",
                format!("ON conjunct `{conj}` does not justify hash key `{kl}` = `{kr}`"),
            ));
        }
    }
    let rest: Vec<Expr> = conjs.into_iter().skip(hash_keys.len()).collect();
    if conjoin(rest).as_ref() != residual {
        out.push(Violation::new(
            "join-hash-prefix",
            "residual predicate differs from the unconsumed ON conjuncts",
        ));
    }
    if residual.is_some_and(|r| r.contains_subquery()) {
        out.push(Violation::new(
            "join-residual-subquery",
            "hash-join residual contains a subquery",
        ));
    }
}

/// Borrowed view of one `FromPlan::IndexSeek`.
struct SeekView<'a> {
    table: &'a str,
    alias: &'a str,
    index: &'a str,
    eq: &'a [Value],
    range: Option<&'a (BinaryOp, Value)>,
    ordered: bool,
    reverse: bool,
}

/// Re-derive the seek's justification: the consumed key prefix must be
/// exactly what the WHERE clause's leading conjuncts probe (same columns,
/// same comparison operators, same literals), within the engine's key
/// budget, over a physical index of the scanned table.
fn check_seek(
    seek: SeekView,
    core: &CorePlan,
    order_by: &[OrderItem],
    catalog: &Catalog,
    out: &mut Vec<Violation>,
) {
    let Some(def) = catalog.index(seek.index) else {
        out.push(Violation::new(
            "seek-index-missing",
            format!("INDEX SEEK references unknown index {}", seek.index),
        ));
        return;
    };
    if !def.table.eq_ignore_ascii_case(seek.table) {
        out.push(Violation::new(
            "seek-index-wrong-table",
            format!(
                "INDEX SEEK of {} uses index {} of table {}",
                seek.table, seek.index, def.table
            ),
        ));
        return;
    }
    let Some(data) = &def.data else {
        out.push(Violation::new(
            "seek-index-unphysical",
            format!("INDEX SEEK over expression index {}", seek.index),
        ));
        return;
    };
    let Ok(t) = catalog.table(seek.table) else {
        out.push(Violation::new(
            "seek-index-missing",
            format!("INDEX SEEK of unknown table {}", seek.table),
        ));
        return;
    };
    let consumed = seek.eq.len() + usize::from(seek.range.is_some());
    if consumed > MAX_SEEK_KEYS || consumed > data.cols.len() {
        out.push(Violation::new(
            "seek-key-overflow",
            format!(
                "{consumed} consumed key(s), budget {MAX_SEEK_KEYS}, index has {}",
                data.cols.len()
            ),
        ));
        return;
    }
    if consumed == 0 && !seek.ordered {
        out.push(Violation::new(
            "seek-empty",
            "unordered seek consuming no key columns",
        ));
    }
    if seek
        .eq
        .iter()
        .chain(seek.range.iter().map(|(_, v)| v))
        .any(Value::is_null)
    {
        out.push(Violation::new("seek-null-probe", "NULL seek probe value"));
    }
    if let Some((op, _)) = seek.range {
        if !matches!(
            op,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        ) {
            out.push(Violation::new(
                "seek-range-op",
                format!("range probe with non-comparison operator {op:?}"),
            ));
        }
    }

    // The consumed conjuncts stay in the WHERE clause (the seek is a
    // pre-filter, not a substitute), so the plan itself carries its own
    // justification: leading conjunct j must probe key column j with the
    // seek's exact operator and literal.
    let conjs = core
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();
    if conjs.len() < consumed {
        out.push(Violation::new(
            "seek-prefix-mismatch",
            format!(
                "seek consumes {consumed} conjunct(s) but WHERE has {}",
                conjs.len()
            ),
        ));
    } else {
        let key_col = |j: usize| -> Option<&str> {
            data.cols
                .get(j)
                .and_then(|&c| t.columns.get(c))
                .map(|c| c.name.as_str())
        };
        for (j, val) in seek.eq.iter().enumerate() {
            let justified = matches!(
                (sargable(&conjs[j], seek.alias), key_col(j)),
                (Some((col, BinaryOp::Eq, v)), Some(key)) if v == *val && key.eq_ignore_ascii_case(&col)
            );
            if !justified {
                out.push(Violation::new(
                    "seek-prefix-mismatch",
                    format!(
                        "eq probe {val:?} on key column {j} is not justified by conjunct `{}`",
                        conjs[j]
                    ),
                ));
            }
        }
        if let Some((rop, rv)) = seek.range {
            let j = seek.eq.len();
            let justified = matches!(
                (sargable(&conjs[j], seek.alias), key_col(j)),
                (Some((col, op, v)), Some(key))
                    if op == *rop && v == *rv && key.eq_ignore_ascii_case(&col)
            );
            if !justified {
                out.push(Violation::new(
                    "seek-prefix-mismatch",
                    format!(
                        "range probe {rop:?} {rv:?} on key column {j} is not justified by conjunct `{}`",
                        conjs[j]
                    ),
                ));
            }
        }
    }

    if seek.ordered {
        match sort_elim_legal(core, order_by, consumed, conjs.len(), t, data) {
            Err(reason) => out.push(Violation::new(
                "sort-elim-illegal",
                format!("ordered seek USING {}: {reason}", seek.index),
            )),
            Ok(desc) => {
                if seek.reverse != desc {
                    out.push(Violation::new(
                        "sort-elim-direction",
                        format!(
                            "ORDER BY is {} but the ordered seek emits {}",
                            if desc { "DESC" } else { "ASC" },
                            if seek.reverse {
                                "descending"
                            } else {
                                "ascending"
                            },
                        ),
                    ));
                }
            }
        }
    } else if seek.reverse {
        out.push(Violation::new(
            "sort-elim-direction",
            "reverse emission on an unordered seek",
        ));
    }
}

/// Re-derive the sort-elimination decision: emission order provably equals
/// sorted order. Returns the required direction (`true` = DESC) or the
/// reason the elimination is illegal. Mirrors the legality rules of
/// `plan::eliminate_sort` but is derived independently from the plan tree.
fn sort_elim_legal(
    core: &CorePlan,
    order_by: &[OrderItem],
    consumed: usize,
    total_conjuncts: usize,
    t: &TableDef,
    data: &OrdIndex,
) -> Result<bool, String> {
    if order_by.is_empty() {
        return Err("no ORDER BY to eliminate".into());
    }
    if core.is_grouped() {
        return Err("grouping or aggregation re-orders emission".into());
    }
    if consumed != total_conjuncts {
        return Err(format!(
            "residual WHERE work ({total_conjuncts} conjunct(s), {consumed} consumed)"
        ));
    }
    let desc = order_by[0].order == SortOrder::Desc;
    if order_by
        .iter()
        .any(|o| (o.order == SortOrder::Desc) != desc)
    {
        return Err("mixed sort directions".into());
    }
    let mut key_names = Vec::with_capacity(order_by.len());
    for o in order_by {
        match &o.expr {
            Expr::Column(c) if c.table.is_none() => key_names.push(c.column.as_str()),
            other => return Err(format!("non-bare sort key `{other}`")),
        }
    }
    // The output-name table the executor's sort would resolve against.
    let outputs: Vec<(&str, usize)> =
        if core.items.len() == 1 && matches!(core.items[0], SelectItem::Wildcard) {
            t.columns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.name.as_str(), i))
                .collect()
        } else {
            let mut outs = Vec::with_capacity(core.items.len());
            for item in &core.items {
                let SelectItem::Expr { expr, alias } = item else {
                    return Err("non-column output item".into());
                };
                let Expr::Column(c) = expr else {
                    return Err(format!("non-column output item `{expr}`"));
                };
                if c.table.is_some() {
                    return Err(format!("qualified output column `{expr}`"));
                }
                let Some(ord) = t.column_index(&c.column) else {
                    return Err(format!("output column `{expr}` not in table"));
                };
                outs.push((alias.as_deref().unwrap_or(c.column.as_str()), ord));
            }
            outs
        };
    let mut ordinals = Vec::with_capacity(key_names.len());
    for name in &key_names {
        let Some((_, ord)) = outputs.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)) else {
            return Err(format!("sort key `{name}` not in the output-name table"));
        };
        ordinals.push(*ord);
    }
    if ordinals != data.cols {
        return Err(format!(
            "sort ordinals {ordinals:?} differ from index key columns {:?}",
            data.cols
        ));
    }
    Ok(desc)
}

// ---------------------------------------------------------------------------
// EXPLAIN faithfulness
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OpCounts {
    seeks: usize,
    index_scans: usize,
    hash_joins: usize,
    nested_loops: usize,
    pushed_filters: usize,
    ctes: usize,
    sorts: usize,
}

/// Every plan operator must surface in the rendered EXPLAIN: a dropped
/// line means the annotation lies about the physical plan. Rendered counts
/// may *exceed* the walk (SQL text literals can contain operator-shaped
/// text), so only under-rendering is a violation.
fn check_explain(plan: &SelectPlan, catalog: &Catalog, out: &mut Vec<Violation>) {
    // EXPLAIN fails only where the executor fails too (a GROUP BY
    // position naming no expression): there is no rendering to check.
    let Ok(text) = explain_full(plan, Some(catalog), VecNote::Off) else {
        return;
    };
    let mut want = OpCounts::default();
    count_select(plan, &mut want);
    let rendered = |prefix: &str| {
        text.lines()
            .filter(|l| l.trim_start().starts_with(prefix))
            .count()
    };
    let checks: [(&str, usize); 7] = [
        ("INDEX SEEK ", want.seeks),
        ("INDEX SCAN ", want.index_scans),
        ("HASH (", want.hash_joins),
        ("NESTED LOOP", want.nested_loops),
        ("PUSHED FILTER ", want.pushed_filters),
        ("MATERIALIZE CTE ", want.ctes),
        ("SORT (", want.sorts),
    ];
    for (prefix, expected) in checks {
        let got = rendered(prefix);
        if got < expected {
            out.push(Violation::new(
                "explain-missing-op",
                format!("EXPLAIN renders {got} `{prefix}` line(s), plan has {expected}"),
            ));
        }
    }
}

fn count_select(plan: &SelectPlan, c: &mut OpCounts) {
    c.ctes += plan.ctes.len();
    for (_, _, cte) in &plan.ctes {
        count_select(cte, c);
    }
    if !plan.order_by.is_empty() {
        c.sorts += 1;
    }
    count_body(&plan.body, c);
}

fn count_body(body: &BodyPlan, c: &mut OpCounts) {
    match body {
        BodyPlan::Core(core) => {
            if let Some(f) = &core.from {
                count_from(f, c);
            }
        }
        BodyPlan::SetOp { left, right, .. } => {
            count_body(left, c);
            count_body(right, c);
        }
        BodyPlan::Values(_) => {}
    }
}

fn count_from(from: &FromPlan, c: &mut OpCounts) {
    match from {
        FromPlan::SeqScan { .. } | FromPlan::ValuesScan { .. } | FromPlan::CteScan { .. } => {}
        FromPlan::IndexScan { .. } => c.index_scans += 1,
        FromPlan::IndexSeek { .. } => c.seeks += 1,
        FromPlan::Derived { plan, .. } => count_select(plan, c),
        FromPlan::Filtered { input, .. } => {
            c.pushed_filters += 1;
            count_from(input, c);
        }
        FromPlan::Join {
            hash_keys,
            left,
            right,
            ..
        } => {
            if hash_keys.is_empty() {
                c.nested_loops += 1;
            } else {
                c.hash_joins += 1;
            }
            count_from(left, c);
            count_from(right, c);
        }
    }
}

// ---------------------------------------------------------------------------
// Bound-form verification
// ---------------------------------------------------------------------------

/// Verify a bound expression against its binder scopes: every resolved
/// column (and recorded collision alternative) must point inside the scope
/// stack, and aggregate slots must index the per-group value table
/// (`agg_slots`; `None` = aggregates are illegal in this clause). Scopes
/// are outermost-first, exactly as handed to [`crate::bind::Binder::new`].
pub fn validate_bound(
    bound: &BoundExpr,
    scopes: &[&Schema],
    agg_slots: Option<usize>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    walk_bound(bound, scopes, agg_slots, &mut out);
    out
}

fn check_hop(up: u16, index: u16, scopes: &[&Schema], what: &str, out: &mut Vec<Violation>) {
    // `up` counts hops from the innermost frame; scopes are outermost-first.
    let Some(frame) = scopes.iter().rev().nth(up as usize) else {
        out.push(Violation::new(
            "bound-scope-hop",
            format!(
                "{what} hops {up} scope(s) up, only {} in scope",
                scopes.len()
            ),
        ));
        return;
    };
    if (index as usize) >= frame.cols.len() {
        out.push(Violation::new(
            "bound-ordinal",
            format!(
                "{what} ordinal {index} out of range for a {}-column frame",
                frame.cols.len()
            ),
        ));
    }
}

fn walk_bound(
    bound: &BoundExpr,
    scopes: &[&Schema],
    agg_slots: Option<usize>,
    out: &mut Vec<Violation>,
) {
    match bound {
        BoundExpr::Column(c) => {
            check_hop(c.up, c.index, scopes, "bound column", out);
            if let Some((up, index)) = c.collision_alt {
                check_hop(up, index, scopes, "collision alternative", out);
            }
        }
        BoundExpr::Agg { slot, .. } => match agg_slots {
            None => out.push(Violation::new(
                "bound-agg-slot",
                "aggregate in a non-aggregate clause",
            )),
            Some(n) if (*slot as usize) >= n => out.push(Violation::new(
                "bound-agg-slot",
                format!("aggregate slot {slot} out of range for {n} spec(s)"),
            )),
            Some(_) => {}
        },
        _ => {}
    }
    // Subquery bodies stay AST; they are planned, bound, and verified
    // lazily at evaluation time.
    bound.for_each_child(&mut |child| walk_bound(child, scopes, agg_slots, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ColumnDef, ColumnRef};
    use crate::bind::BoundColumn;
    use crate::bugs::BugRegistry;
    use crate::coverage::Coverage;
    use crate::exec::ColMeta;
    use crate::plan::{plan_select, PlanCtx};
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let col = |n: &str| ColumnDef {
            name: n.into(),
            ty: DataType::Int,
            not_null: false,
        };
        c.create_table("t", vec![col("k"), col("v")], false)
            .unwrap();
        c.create_index(
            "ik",
            "t",
            vec![Expr::Column(ColumnRef {
                table: None,
                column: "k".into(),
            })],
            false,
        )
        .unwrap();
        c
    }

    fn plan(catalog: &Catalog, sql: &str) -> SelectPlan {
        let q = crate::parser::parse_select(sql).unwrap();
        let bugs = BugRegistry::none();
        let cov = Coverage::new();
        let pctx = PlanCtx {
            catalog,
            dialect: crate::Dialect::Sqlite,
            bugs: &bugs,
            cov: &cov,
            optimize: true,
        };
        plan_select(&q, &pctx, &BTreeSet::new()).unwrap()
    }

    fn codes(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.code).collect()
    }

    fn root_from(plan: &mut SelectPlan) -> &mut FromPlan {
        match &mut plan.body {
            BodyPlan::Core(core) => core.from.as_mut().unwrap(),
            _ => panic!("expected core body"),
        }
    }

    #[test]
    fn clean_plans_validate() {
        let c = catalog();
        for sql in [
            "SELECT v FROM t WHERE k >= 2",
            "SELECT v FROM t WHERE k = 1 AND v > 0",
            "SELECT k FROM t ORDER BY k DESC",
            "SELECT * FROM t a JOIN t b ON a.k = b.k AND a.v < b.v WHERE a.v > 0",
            "SELECT (SELECT MAX(v) FROM t) FROM t GROUP BY k",
        ] {
            let p = plan(&c, sql);
            assert!(validate_plan(&p, &c).is_empty(), "false positive on {sql}");
        }
    }

    #[test]
    fn tightened_range_bound_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT v FROM t WHERE k >= 2");
        match root_from(&mut p) {
            FromPlan::IndexSeek { range, .. } => {
                let (_, v) = range.take().unwrap();
                *range = Some((BinaryOp::Gt, v)); // WHERE says >=
            }
            other => panic!("expected a range seek, got {other:?}"),
        }
        assert!(codes(&validate_plan(&p, &c)).contains(&"seek-prefix-mismatch"));
    }

    #[test]
    fn mangled_eq_probe_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT v FROM t WHERE k = 2");
        match root_from(&mut p) {
            FromPlan::IndexSeek { eq, .. } => eq[0] = Value::Int(3),
            other => panic!("expected an eq seek, got {other:?}"),
        }
        assert!(codes(&validate_plan(&p, &c)).contains(&"seek-prefix-mismatch"));
    }

    #[test]
    fn key_budget_overflow_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT v FROM t WHERE k = 2");
        match root_from(&mut p) {
            FromPlan::IndexSeek { eq, .. } => {
                eq.extend([Value::Int(3), Value::Int(4)]);
            }
            other => panic!("expected an eq seek, got {other:?}"),
        }
        assert!(codes(&validate_plan(&p, &c)).contains(&"seek-key-overflow"));
    }

    #[test]
    fn wrong_sort_direction_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT k FROM t ORDER BY k DESC");
        match root_from(&mut p) {
            FromPlan::IndexSeek {
                ordered, reverse, ..
            } => {
                assert!(*ordered && *reverse, "expected a reverse ordered seek");
                *reverse = false; // ORDER BY is DESC
            }
            other => panic!("expected an ordered seek, got {other:?}"),
        }
        assert!(codes(&validate_plan(&p, &c)).contains(&"sort-elim-direction"));
    }

    #[test]
    fn filter_pushed_below_outer_join_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT * FROM t a JOIN t b ON a.k = b.k WHERE a.v > 0");
        match root_from(&mut p) {
            FromPlan::Join { kind, left, .. } => {
                assert!(
                    matches!(**left, FromPlan::Filtered { .. }),
                    "expected the WHERE conjunct pushed into the left child"
                );
                *kind = JoinKind::Left;
            }
            other => panic!("expected a join, got {other:?}"),
        }
        assert!(codes(&validate_plan(&p, &c)).contains(&"filter-position"));
    }

    #[test]
    fn seek_below_a_join_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT v FROM t WHERE k >= 2");
        let from = root_from(&mut p);
        let seek = std::mem::replace(
            from,
            FromPlan::SeqScan {
                table: "t".into(),
                alias: "t2".into(),
            },
        );
        *from = FromPlan::Join {
            kind: JoinKind::Cross,
            on: None,
            hash_keys: Vec::new(),
            residual: None,
            left: Box::new(seek),
            right: Box::new(FromPlan::SeqScan {
                table: "t".into(),
                alias: "t2".into(),
            }),
        };
        assert!(codes(&validate_plan(&p, &c)).contains(&"seek-position"));
    }

    #[test]
    fn dropped_hash_residual_is_rejected() {
        let c = catalog();
        let mut p = plan(&c, "SELECT * FROM t a JOIN t b ON a.k = b.k AND a.v < b.v");
        match root_from(&mut p) {
            FromPlan::Join {
                hash_keys,
                residual,
                ..
            } => {
                assert!(!hash_keys.is_empty() && residual.is_some());
                *residual = None; // the unconsumed conjunct vanishes
            }
            other => panic!("expected a hash join, got {other:?}"),
        }
        assert!(codes(&validate_plan(&p, &c)).contains(&"join-hash-prefix"));
    }

    fn schema(n: usize) -> Schema {
        Schema {
            cols: (0..n)
                .map(|i| ColMeta {
                    table: None,
                    name: format!("c{i}"),
                    from_view: false,
                    from_cte: false,
                })
                .collect(),
        }
    }

    #[test]
    fn bound_column_bounds_are_checked() {
        let s = schema(2);
        let scopes: Vec<&Schema> = vec![&s];
        let col = |up, index| {
            BoundExpr::Column(BoundColumn {
                up,
                index,
                collision_alt: None,
            })
        };
        assert!(validate_bound(&col(0, 1), &scopes, None).is_empty());
        assert_eq!(
            codes(&validate_bound(&col(0, 5), &scopes, None)),
            ["bound-ordinal"]
        );
        assert_eq!(
            codes(&validate_bound(&col(2, 0), &scopes, None)),
            ["bound-scope-hop"]
        );
        let alt = BoundExpr::Column(BoundColumn {
            up: 0,
            index: 0,
            collision_alt: Some((3, 0)),
        });
        assert_eq!(
            codes(&validate_bound(&alt, &scopes, None)),
            ["bound-scope-hop"]
        );
    }

    #[test]
    fn aggregate_slots_are_checked() {
        let s = schema(1);
        let scopes: Vec<&Schema> = vec![&s];
        let agg = BoundExpr::Agg {
            slot: 2,
            func: crate::ast::AggFunc::Sum,
            distinct: false,
        };
        assert_eq!(
            codes(&validate_bound(&agg, &scopes, None)),
            ["bound-agg-slot"]
        );
        assert_eq!(
            codes(&validate_bound(&agg, &scopes, Some(2))),
            ["bound-agg-slot"]
        );
        assert!(validate_bound(&agg, &scopes, Some(3)).is_empty());
    }
}
