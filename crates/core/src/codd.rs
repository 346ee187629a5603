//! The CODDTest oracle (the paper's contribution, Algorithm 1).
//!
//! One test of the predicate mode:
//!
//! 1. generate a FROM context and a random expression φ over its columns
//!    (step ②),
//! 2. **constant-fold** φ through an *auxiliary query* — `SELECT φ` for
//!    independent expressions, `SELECT {cᵢ}, φ FROM ...` (same joins) for
//!    dependent ones (step ③),
//! 3. build the *original query* `O` placing φ inside a predicate of a
//!    WHERE / JOIN ON / GROUP BY / HAVING clause or a DML statement
//!    (step ④),
//! 4. **constant-propagate**: `F = O[φ/Rφ]`, where `Rφ` is a literal, an
//!    IN value list, a `VALUES` list, or a per-row `CASE` mapping
//!    (step ⑤),
//! 5. any discrepancy between `E(O)` and `E(F)` is a bug.
//!
//! The relation mode implements §3.4: a non-correlated subquery used as a
//! relation (INSERT target table, derived table, or CTE) is folded into a
//! table value constructor.

use coddb::ast::visit::for_each_child_mut;
use coddb::ast::{
    BinaryOp, Cte, Expr, InsertSource, JoinKind, Quantifier, Select, SelectBody, SelectCore,
    SelectItem, Statement, TableExpr,
};
use coddb::value::{DataType, Relation, Value};
use coddb::Dialect;
use rand::RngExt;
use sqlgen::expr::{ExprGen, GeneratedExpr};
use sqlgen::query::{build_random_query, gen_from_context, FromContext};
use sqlgen::{GenConfig, SchemaInfo};

use crate::{Case, Oracle, Session, TestOutcome};

const ORACLE_NAME: &str = "codd";

/// Where the original query places the predicate containing φ (§3.3:
/// "the generated predicate can be used in any SQL statement where a
/// predicate is required").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    Where,
    JoinOn,
    GroupBy,
    Having,
    Update,
    Delete,
}

/// Result of constant folding: replace `target` with `replacement` inside
/// the original query.
struct Fold {
    target: Expr,
    replacement: Expr,
}

/// The CODDTest oracle.
pub struct CoddTest {
    config: GenConfig,
    /// Probability of running a §3.4 relation-folding test instead of a
    /// predicate test.
    relation_prob: f64,
    /// Regenerate φ until it contains a subquery ("CODDTest & Subquery"
    /// configuration of Table 3).
    require_subquery: bool,
}

impl Default for CoddTest {
    fn default() -> Self {
        CoddTest {
            config: GenConfig::default(),
            relation_prob: 0.2,
            require_subquery: false,
        }
    }
}

impl CoddTest {
    /// "CODDTest & Expression": expressions without subqueries (Table 3).
    pub fn expressions_only() -> Self {
        CoddTest {
            config: GenConfig::expressions_only(),
            relation_prob: 0.0,
            require_subquery: false,
        }
    }

    /// "CODDTest & Subquery": only subquery-bearing expressions (Table 3).
    pub fn subqueries_only() -> Self {
        CoddTest {
            config: GenConfig::default(),
            relation_prob: 0.25,
            require_subquery: true,
        }
    }

    /// Custom generator configuration (Figures 2/3 MaxDepth sweeps).
    pub fn with_config(config: GenConfig) -> Self {
        let relation_prob = if config.allow_subqueries { 0.2 } else { 0.0 };
        CoddTest {
            config,
            relation_prob,
            require_subquery: false,
        }
    }

    // -- folding (step ③) -------------------------------------------------

    /// Choose what to fold and do it: either the whole φ, or — preferred
    /// when present — a non-correlated subquery node *inside* φ (the
    /// paper's primary fold target; "non-correlated subqueries were our
    /// initial test focus", §4.1).
    fn fold(
        &self,
        s: &mut Session,
        case: &mut Case,
        phi: &GeneratedExpr,
        aux_from: Option<&TableExpr>,
        scope_aliases: &[String],
        rng: &mut dyn rand::Rng,
    ) -> Result<Fold, TestOutcome> {
        let candidates = noncorrelated_subquery_nodes(&phi.expr, scope_aliases);
        let node_prob = if phi.is_independent() { 0.5 } else { 0.7 };
        if !candidates.is_empty() && rng.random_bool(node_prob) {
            let node = candidates[rng.random_range(0..candidates.len())].clone();
            return self.fold_expr_node(s, case, &node);
        }
        if phi.is_independent() {
            self.fold_expr_node(s, case, &phi.expr)
        } else {
            self.fold_dependent(s, case, phi, aux_from.expect("dependent φ requires a FROM"))
        }
    }

    /// Fold one independent expression node to a constant or constant
    /// list (§3.1). Non-correlated subqueries are extracted and executed
    /// directly ("the SELECT keyword can be omitted").
    fn fold_expr_node(
        &self,
        s: &mut Session,
        case: &mut Case,
        node: &Expr,
    ) -> Result<Fold, TestOutcome> {
        let dialect = s.dialect();
        let replacement = match node {
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let rel = case.query(s, "auxiliary", (**query).clone())?;
                if rel.rows.is_empty() {
                    // `x IN (∅)` is FALSE; `x NOT IN (∅)` is TRUE.
                    bool_literal(*negated, dialect)
                } else {
                    Expr::InList {
                        expr: expr.clone(),
                        list: rel
                            .rows
                            .iter()
                            .map(|r| Expr::Literal(r[0].clone()))
                            .collect(),
                        negated: *negated,
                    }
                }
            }
            Expr::Quantified {
                op,
                quantifier,
                expr,
                query,
            } => {
                let rel = case.query(s, "auxiliary", (**query).clone())?;
                if rel.rows.is_empty() {
                    // ANY over ∅ is FALSE, ALL over ∅ is TRUE.
                    bool_literal(*quantifier == Quantifier::All, dialect)
                } else {
                    // Fold the subquery into a table value constructor
                    // (flexible dialects would use the UNION encoding the
                    // paper describes; CoddDB accepts VALUES everywhere).
                    let rows: Vec<Vec<Expr>> = rel
                        .rows
                        .iter()
                        .map(|r| vec![Expr::Literal(r[0].clone())])
                        .collect();
                    Expr::Quantified {
                        op: *op,
                        quantifier: *quantifier,
                        expr: expr.clone(),
                        query: Box::new(Select {
                            with: Vec::new(),
                            body: SelectBody::Values(rows),
                            order_by: Vec::new(),
                            limit: None,
                            offset: None,
                        }),
                    }
                }
            }
            Expr::Exists { query, negated } => {
                let rel = case.query(s, "auxiliary", (**query).clone())?;
                let exists = !rel.rows.is_empty();
                bool_literal(exists != *negated, dialect)
            }
            Expr::Scalar(query) => {
                let rel = case.query(s, "auxiliary", (**query).clone())?;
                let value = match rel.scalar() {
                    Some(v) => v.clone(),
                    None if rel.rows.is_empty() => Value::Null,
                    None => {
                        return Err(TestOutcome::Skipped("auxiliary subquery not scalar".into()))
                    }
                };
                Expr::Literal(value)
            }
            other => {
                // Plain independent expression: `SELECT φ` (Algorithm 1,
                // line 4).
                let aux = Select::scalar_probe(other.clone());
                let rel = case.query(s, "auxiliary", aux)?;
                let value = rel
                    .scalar()
                    .cloned()
                    .ok_or_else(|| TestOutcome::Skipped("auxiliary not scalar".into()))?;
                Expr::Literal(value)
            }
        };
        Ok(Fold {
            target: node.clone(),
            replacement,
        })
    }

    /// Dependent expressions fold to a per-row mapping rendered as a CASE
    /// expression keyed by `{cᵢ}` (§3.2). The auxiliary query replicates
    /// the original query's FROM clause (same joins).
    fn fold_dependent(
        &self,
        s: &mut Session,
        case: &mut Case,
        phi: &GeneratedExpr,
        aux_from: &TableExpr,
    ) -> Result<Fold, TestOutcome> {
        let mut items: Vec<SelectItem> = phi
            .refs
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::col(c.table.clone(), c.column.clone()),
                alias: None,
            })
            .collect();
        items.push(SelectItem::Expr {
            expr: phi.expr.clone(),
            alias: None,
        });
        let aux = Select::from_core(SelectCore {
            items,
            from: Some(aux_from.clone()),
            ..SelectCore::default()
        });
        let rel = case.query(s, "auxiliary", aux)?;
        if rel.rows.is_empty() {
            // E.g. an INNER JOIN with an always-false condition; the paper
            // discards such tests (§3.2).
            return Err(TestOutcome::Skipped("empty auxiliary result".into()));
        }
        if rel.rows.len() > 256 {
            return Err(TestOutcome::Skipped("auxiliary mapping too large".into()));
        }

        // Build the CASE mapping. `IS` gives null-safe key matching
        // (Listing 4: `CASE WHEN t1.c0 is NULL THEN 1 END`).
        let nkeys = phi.refs.len();
        let mut whens: Vec<(Expr, Expr)> = Vec::new();
        let mut seen: Vec<&[Value]> = Vec::new();
        for row in &rel.rows {
            let key = &row[..nkeys];
            if seen
                .iter()
                .any(|k| k.iter().zip(key.iter()).all(|(a, b)| a.is_identical(b)))
            {
                continue;
            }
            seen.push(key);
            let mut cond: Option<Expr> = None;
            for (c, v) in phi.refs.iter().zip(key.iter()) {
                let eq = Expr::bin(
                    BinaryOp::Is,
                    Expr::col(c.table.clone(), c.column.clone()),
                    Expr::Literal(v.clone()),
                );
                cond = Some(match cond {
                    None => eq,
                    Some(prev) => Expr::and(prev, eq),
                });
            }
            let result = Expr::Literal(row[nkeys].clone());
            whens.push((cond.expect("dependent φ has at least one key"), result));
        }

        Ok(Fold {
            target: phi.expr.clone(),
            replacement: Expr::Case {
                operand: None,
                whens,
                else_expr: None,
            },
        })
    }

    // -- original-query construction (step ④) ------------------------------

    fn choose_placement(
        &self,
        rng: &mut dyn rand::Rng,
        from: &FromContext,
        phi: &GeneratedExpr,
        schema: &SchemaInfo,
    ) -> Placement {
        let mut options = vec![Placement::Where, Placement::Where, Placement::Where];
        if from.has_join {
            options.push(Placement::JoinOn);
            options.push(Placement::JoinOn);
        }
        options.push(Placement::GroupBy);
        if phi.is_independent() {
            options.push(Placement::Having);
        }
        if !from.has_join {
            let base_ok = schema
                .table(&from.relations[0].1)
                .map(|t| !t.is_view)
                .unwrap_or(false);
            if base_ok {
                options.push(Placement::Update);
                options.push(Placement::Delete);
            }
        }
        options[rng.random_range(0..options.len())]
    }

    /// Wrap φ into the predicate of the original query: either φ itself or
    /// a random composition (§3.3 "randomly generate predicates that
    /// contain or correspond to φ").
    fn compose_predicate(
        &self,
        rng: &mut dyn rand::Rng,
        phi: &Expr,
        from: &FromContext,
        schema: &SchemaInfo,
        dialect: Dialect,
    ) -> Expr {
        if rng.random_bool(0.7) {
            return phi.clone();
        }
        let cfg = GenConfig {
            allow_subqueries: false,
            max_depth: 1,
            ..self.config.clone()
        };
        let mut extra_gen = ExprGen::new(dialect, &cfg, schema, &from.scope);
        let extra = extra_gen.gen_predicate(rng, 1);
        match rng.random_range(0..3) {
            0 => Expr::and(phi.clone(), extra),
            1 => Expr::and(extra, phi.clone()),
            _ => Expr::or(phi.clone(), extra),
        }
    }

    fn predicate_test(
        &self,
        s: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        let dialect = s.dialect();
        let from = gen_from_context(rng, schema, &self.config, dialect);

        // Step ②: generate φ.
        let mut gen = ExprGen::new(dialect, &self.config, schema, &from.scope);
        let mut phi = gen.gen_phi(rng);
        if self.require_subquery {
            for _ in 0..10 {
                if phi.expr.contains_subquery() {
                    break;
                }
                phi = gen.gen_phi(rng);
            }
            if !phi.expr.contains_subquery() {
                return Err(TestOutcome::Skipped("no subquery generated".into()));
            }
        }

        let placement = self.choose_placement(rng, &from, &phi, schema);

        // Step ③: constant folding. When φ is the JOIN ON predicate, the
        // auxiliary query must *not* replicate the join (§3.2): φ is
        // evaluated against the pre-join row pairs, i.e. a cross join.
        let aux_from = match placement {
            Placement::JoinOn => cross_version(&from.table_expr),
            _ => from.table_expr.clone(),
        };
        let aliases: Vec<String> = from
            .relations
            .iter()
            .map(|(a, _)| a.to_ascii_lowercase())
            .collect();
        let mut case = Case::new(ORACLE_NAME);
        let fold = self.fold(s, &mut case, &phi, Some(&aux_from), &aliases, rng)?;

        // Step ④/⑤: build O, derive F, compare.
        match placement {
            Placement::Where => {
                let p = self.compose_predicate(rng, &phi.expr, &from, schema, dialect);
                let original = build_random_query(rng, &from, Some(p));
                self.check_select_pair(s, case, original, &fold)
            }
            Placement::JoinOn => {
                let p = self.compose_predicate(rng, &phi.expr, &from, schema, dialect);
                let TableExpr::Join {
                    left, right, kind, ..
                } = from.table_expr.clone()
                else {
                    return Err(TestOutcome::Skipped("join placement without join".into()));
                };
                // CROSS JOIN takes the predicate as an INNER ON (SQLite
                // accepts this; Listing 8 uses it).
                let kind = if kind == JoinKind::Cross {
                    JoinKind::Inner
                } else {
                    kind
                };
                let joined = FromContext {
                    table_expr: TableExpr::Join {
                        left,
                        right,
                        kind,
                        on: Some(p),
                    },
                    ..from.clone()
                };
                let original = build_random_query(rng, &joined, None);
                self.check_select_pair(s, case, original, &fold)
            }
            Placement::GroupBy => {
                // Group by the folded expression itself when it is a
                // scalar subquery (its *value* is then the group key), and
                // project the key alongside COUNT(*): value-level
                // corruption — e.g. precision bugs in nested aggregates —
                // surfaces directly in the result rows.
                let key = if matches!(fold.target, Expr::Scalar(_)) {
                    fold.target.clone()
                } else {
                    phi.expr.clone()
                };
                let original = Select::from_core(SelectCore {
                    // Occasionally DISTINCT — DISTINCT + GROUP BY is a bug
                    // class of its own (DuckDB, Table 1).
                    distinct: rng.random_bool(0.3),
                    items: vec![
                        SelectItem::Expr {
                            expr: key.clone(),
                            alias: Some("k".into()),
                        },
                        SelectItem::Expr {
                            expr: Expr::count_star(),
                            alias: None,
                        },
                    ],
                    from: Some(from.table_expr.clone()),
                    group_by: vec![key],
                    ..SelectCore::default()
                });
                self.check_select_pair(s, case, original, &fold)
            }
            Placement::Having => {
                let key = &from.scope[rng.random_range(0..from.scope.len())];
                let original = Select::from_core(SelectCore {
                    items: vec![SelectItem::Expr {
                        expr: Expr::count_star(),
                        alias: None,
                    }],
                    from: Some(from.table_expr.clone()),
                    group_by: vec![Expr::col(key.table.clone(), key.column.clone())],
                    having: Some(phi.expr.clone()),
                    ..SelectCore::default()
                });
                self.check_select_pair(s, case, original, &fold)
            }
            Placement::Update | Placement::Delete => {
                self.check_dml_pair(s, case, &from, placement, &phi.expr, &fold, schema)
            }
        }
    }

    /// Execute original and folded SELECTs and compare result multisets.
    fn check_select_pair(
        &self,
        s: &mut Session,
        mut case: Case,
        original: Select,
        fold: &Fold,
    ) -> Result<TestOutcome, TestOutcome> {
        let mut folded = original.clone();
        let replaced =
            coddb::ast::visit::replace_in_select(&mut folded, &fold.target, &fold.replacement);
        if replaced == 0 {
            return Err(TestOutcome::Skipped("φ not found in original query".into()));
        }
        let o_rel = case.query(s, "original", original)?;
        let f_rel = case.query(s, "folded", folded)?;
        Ok(case.check(o_rel.multiset_eq(&f_rel), || {
            format!(
                "original returned {} row(s), folded returned {} row(s):\nO: {}\nF: {}",
                o_rel.row_count(),
                f_rel.row_count(),
                o_rel.to_table_string(),
                f_rel.to_table_string()
            )
        }))
    }

    /// §3.3: predicates can be placed in UPDATE/DELETE; compare affected
    /// row counts of the original and folded statements on identical
    /// snapshots.
    #[allow(clippy::too_many_arguments)]
    fn check_dml_pair(
        &self,
        s: &mut Session,
        mut case: Case,
        from: &FromContext,
        placement: Placement,
        phi: &Expr,
        fold: &Fold,
        schema: &SchemaInfo,
    ) -> Result<TestOutcome, TestOutcome> {
        let table = from.relations[0].1.clone();
        let first_col = schema
            .table(&table)
            .and_then(|t| t.columns.first().map(|(c, _)| c.clone()))
            .unwrap_or_else(|| "c0".into());

        let build = |pred: Expr| -> Statement {
            match placement {
                Placement::Update => Statement::Update {
                    table: table.clone(),
                    sets: vec![(first_col.clone(), Expr::bare_col(first_col.clone()))],
                    where_clause: Some(pred),
                },
                _ => Statement::Delete {
                    table: table.clone(),
                    where_clause: Some(pred),
                },
            }
        };
        let original = build(phi.clone());
        let mut folded = original.clone();
        let replaced =
            coddb::ast::visit::replace_in_statement(&mut folded, &fold.target, &fold.replacement);
        if replaced == 0 {
            return Err(TestOutcome::Skipped("φ not found in DML statement".into()));
        }

        let snapshot = s.db.snapshot();
        let o_res = case.execute(s, "original", original);
        s.db.restore(snapshot.clone());
        let o_n = o_res?.affected().unwrap_or(0);
        let f_res = case.execute(s, "folded", folded);
        s.db.restore(snapshot);
        let f_n = f_res?.affected().unwrap_or(0);
        Ok(case.check(o_n == f_n, || {
            format!("original affected {o_n} row(s), folded affected {f_n}")
        }))
    }

    // -- relation folding (§3.4) -------------------------------------------

    fn relation_test(
        &self,
        s: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        let dialect = s.dialect();
        let bases = schema.base_tables();
        if bases.is_empty() {
            return Err(TestOutcome::Skipped("no base table".into()));
        }
        let base = bases[rng.random_range(0..bases.len())].clone();

        // A non-correlated subquery whose rows feed the relation. With
        // some probability use the Listing-6 shape (VERSION() predicate).
        let scope = base.columns_as(&base.name);
        let inner_pred = if rng.random_bool(0.25) {
            scope
                .iter()
                .find(|c| matches!(c.ty, DataType::Int | DataType::Real | DataType::Any))
                .map(|c| {
                    Expr::bin(
                        BinaryOp::Ge,
                        Expr::Func {
                            func: coddb::ast::FuncName::Version,
                            args: vec![],
                        },
                        Expr::col(c.table.clone(), c.column.clone()),
                    )
                })
        } else if rng.random_bool(0.6) {
            let cfg = GenConfig {
                allow_subqueries: false,
                ..self.config.clone()
            };
            let mut gen = ExprGen::new(dialect, &cfg, schema, &scope);
            Some(gen.gen_predicate(rng, 2))
        } else {
            None
        };
        let items: Vec<SelectItem> = base
            .columns
            .iter()
            .enumerate()
            .map(|(i, (c, _))| SelectItem::Expr {
                expr: Expr::col(base.name.clone(), c.clone()),
                alias: Some(format!("c{i}")),
            })
            .collect();
        let subquery = Select::from_core(SelectCore {
            items,
            from: Some(TableExpr::named(base.name.clone())),
            where_clause: inner_pred,
            ..SelectCore::default()
        });

        // Materialize (this is the constant folding of the relation).
        let mut case = Case::new(ORACLE_NAME);
        let rel = case.query(s, "subquery", subquery.clone())?;
        if rel.rows.is_empty() {
            return Err(TestOutcome::Skipped(
                "subquery returned no rows (§3.4 needs non-empty)".into(),
            ));
        }
        let mut types = rel.column_types();
        for t in &mut types {
            if *t == DataType::Any && !dialect.allows_untyped_columns() {
                *t = DataType::Int; // all-NULL column: any type stores NULL
            }
        }
        let columns: Vec<String> = (0..rel.columns.len()).map(|i| format!("c{i}")).collect();

        // The outer query: projection of all relation columns plus an
        // optional predicate over them (identical in O and F).
        let rel_scope: Vec<sqlgen::ColumnInfo> = columns
            .iter()
            .zip(types.iter())
            .map(|(c, ty)| sqlgen::ColumnInfo {
                table: "rel0".into(),
                column: c.clone(),
                ty: *ty,
            })
            .collect();
        let outer_pred = if rng.random_bool(0.5) {
            let cfg = GenConfig {
                allow_subqueries: false,
                ..self.config.clone()
            };
            let mut gen = ExprGen::new(dialect, &cfg, schema, &rel_scope);
            let p = gen.gen_predicate(rng, 2);
            // Sometimes wrap in the Listing-7 shape: a searched CASE with
            // a literal-NULL condition reading the relation's columns.
            if rng.random_bool(0.3) {
                let other = gen.gen_predicate(rng, 1);
                Some(Expr::Case {
                    operand: None,
                    whens: vec![(Expr::null(), other)],
                    else_expr: Some(Box::new(p)),
                })
            } else {
                Some(p)
            }
        } else {
            None
        };

        let o_mode = rng.random_range(0..3);
        let f_mode = rng.random_range(0..3);
        // Occasionally reference the relation twice in one FROM (a
        // self-cross-join); applied to both sides so results stay
        // equivalent. Exercises repeated CTE materialization.
        let self_join = rel.rows.len() <= 8 && rng.random_bool(0.2);

        let values_rows: Vec<Vec<Expr>> = rel
            .rows
            .iter()
            .map(|r| r.iter().map(|v| Expr::Literal(v.clone())).collect())
            .collect();

        let o_rel = self.run_relation_side(
            s,
            &mut case,
            o_mode,
            &columns,
            &types,
            RelationSource::Query(&subquery),
            &outer_pred,
            self_join,
        )?;
        let f_rel = self.run_relation_side(
            s,
            &mut case,
            f_mode,
            &columns,
            &types,
            RelationSource::Values(&values_rows),
            &outer_pred,
            self_join,
        )?;
        Ok(case.check(o_rel.multiset_eq(&f_rel), || {
            format!(
                "original relation returned {} row(s), folded returned {}:\nO: {}\nF: {}",
                o_rel.row_count(),
                f_rel.row_count(),
                o_rel.to_table_string(),
                f_rel.to_table_string()
            )
        }))
    }

    /// Build and query one side of a relation test: a real table filled by
    /// INSERT, a derived table, or a CTE. With `self_join`, the relation
    /// is read twice (`rel AS ra CROSS JOIN rel AS rb`) and projected from
    /// the first alias — semantically the relation repeated |rel| times.
    #[allow(clippy::too_many_arguments)]
    fn run_relation_side(
        &self,
        s: &mut Session,
        case: &mut Case,
        mode: usize,
        columns: &[String],
        types: &[DataType],
        source: RelationSource,
        outer_pred: &Option<Expr>,
        self_join: bool,
    ) -> Result<Relation, TestOutcome> {
        // The original side reads the subquery, the folded side its rows.
        let (name, label) = match source {
            RelationSource::Query(_) => ("ot0", "original"),
            RelationSource::Values(_) => ("ft0", "folded"),
        };
        let proj_alias = if self_join { "ra" } else { name };
        let items: Vec<SelectItem> = columns
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::col(proj_alias, c.clone()),
                alias: None,
            })
            .collect();
        // Requalify the outer predicate for this side's projection alias.
        let pred = outer_pred
            .as_ref()
            .map(|p| requalify(p.clone(), proj_alias));
        let from_of = |name: &str| -> TableExpr {
            if self_join {
                TableExpr::Join {
                    left: Box::new(TableExpr::aliased(name, "ra")),
                    right: Box::new(TableExpr::aliased(name, "rb")),
                    kind: JoinKind::Cross,
                    on: None,
                }
            } else {
                TableExpr::named(name)
            }
        };

        match mode {
            0 => {
                // Table mode: CREATE TABLE + INSERT + SELECT + DROP. The
                // paper notes the extra statements (and, for subquery
                // sources, a type-probing query) raise CODDTest's QPT.
                let defs: Vec<coddb::ast::ColumnDef> = columns
                    .iter()
                    .zip(types.iter())
                    .map(|(c, ty)| coddb::ast::ColumnDef {
                        name: c.clone(),
                        ty: *ty,
                        not_null: false,
                    })
                    .collect();
                let create = Statement::CreateTable {
                    name: name.into(),
                    columns: defs,
                    if_not_exists: false,
                };
                let insert = Statement::Insert {
                    table: name.into(),
                    columns: Vec::new(),
                    source: match &source {
                        RelationSource::Query(q) => InsertSource::Query((*q).clone()),
                        RelationSource::Values(rows) => InsertSource::Values((*rows).to_vec()),
                    },
                };
                let select = Select::from_core(SelectCore {
                    items,
                    from: Some(from_of(name)),
                    where_clause: pred,
                    ..SelectCore::default()
                });
                let drop = Statement::DropTable {
                    name: name.into(),
                    if_exists: true,
                };
                let result = case
                    .execute(s, "create", create)
                    .and_then(|_| case.execute(s, "insert", insert))
                    .and_then(|_| case.query(s, label, select));
                // Always restore the state (paper: "additional statements
                // ... to create and drop tables to maintain the database
                // state").
                let _ = case.execute(s, "drop", drop);
                result
            }
            1 => {
                // Derived-table mode.
                let from = match &source {
                    RelationSource::Query(q) => TableExpr::Derived {
                        query: Box::new((*q).clone()),
                        alias: name.into(),
                    },
                    RelationSource::Values(rows) => TableExpr::Values {
                        rows: (*rows).to_vec(),
                        alias: name.into(),
                        columns: columns.to_vec(),
                    },
                };
                // A derived SELECT's output columns are already c0..cn
                // (aliased in the subquery); VALUES uses the column list.
                let select = Select::from_core(SelectCore {
                    items,
                    from: Some(from),
                    where_clause: pred,
                    ..SelectCore::default()
                });
                case.query(s, label, select)
            }
            _ => {
                // CTE mode.
                let cte_query = match &source {
                    RelationSource::Query(q) => (*q).clone(),
                    RelationSource::Values(rows) => Select {
                        with: Vec::new(),
                        body: SelectBody::Values((*rows).to_vec()),
                        order_by: Vec::new(),
                        limit: None,
                        offset: None,
                    },
                };
                let select = Select {
                    with: vec![Cte {
                        name: name.into(),
                        columns: columns.to_vec(),
                        query: cte_query,
                    }],
                    body: SelectBody::Core(SelectCore {
                        items,
                        from: Some(from_of(name)),
                        where_clause: pred,
                        ..SelectCore::default()
                    }),
                    order_by: Vec::new(),
                    limit: None,
                    offset: None,
                };
                case.query(s, label, select)
            }
        }
    }
}

enum RelationSource<'a> {
    Query(&'a Select),
    Values(&'a [Vec<Expr>]),
}

/// Requalify every column reference in an outer predicate to `alias`.
/// Relation-mode predicates are generated without subqueries; the operand
/// of `IN (subquery)` / `ANY` / `ALL` and aggregate arguments are left as
/// written.
fn requalify(mut p: Expr, alias: &str) -> Expr {
    fn rec(e: &mut Expr, alias: &str) {
        match e {
            Expr::Column(c) => c.table = Some(alias.to_string()),
            Expr::InSubquery { .. } | Expr::Quantified { .. } | Expr::Agg { .. } => {}
            _ => for_each_child_mut(e, &mut |child| rec(child, alias)),
        }
    }
    rec(&mut p, alias);
    p
}

/// Collect the subquery-bearing nodes of φ whose inner query does not
/// reference the outer scope (fold candidates per §3.1: "the expression φ
/// can be a non-correlated subquery, which computes a constant result").
fn noncorrelated_subquery_nodes(phi: &Expr, scope_aliases: &[String]) -> Vec<Expr> {
    let mut out = Vec::new();
    coddb::ast::visit::walk_expr_shallow(phi, &mut |e| {
        let query = match e {
            Expr::Scalar(q) => Some(q),
            Expr::InSubquery { query, .. } => Some(query),
            Expr::Exists { query, .. } => Some(query),
            Expr::Quantified { query, .. } => Some(query),
            _ => None,
        };
        if let Some(q) = query {
            if !subquery_references_scope(q, scope_aliases) && !out.contains(e) {
                out.push(e.clone());
            }
        }
    });
    out
}

/// Does a subquery reference any column qualified by an outer-scope alias
/// (i.e. is it correlated)?
fn subquery_references_scope(q: &Select, scope_aliases: &[String]) -> bool {
    let mut found = false;
    coddb::ast::visit::walk_select_exprs(q, &mut |e| {
        if let Expr::Column(c) = e {
            if let Some(t) = &c.table {
                if scope_aliases.iter().any(|a| a.eq_ignore_ascii_case(t)) {
                    found = true;
                }
            }
        }
    });
    found
}

/// Replace the *top-level* join with a cross join (used for the auxiliary
/// query when φ is that join's predicate — §3.2: "the expression φ would
/// be evaluated with the row values before the JOIN operation"). Joins
/// below the top one stay intact: their outputs — including any
/// NULL-padded outer-join rows — are exactly the candidate rows φ sees.
fn cross_version(te: &TableExpr) -> TableExpr {
    match te {
        TableExpr::Join { left, right, .. } => TableExpr::Join {
            left: left.clone(),
            right: right.clone(),
            kind: JoinKind::Cross,
            on: None,
        },
        other => other.clone(),
    }
}

fn bool_literal(b: bool, dialect: Dialect) -> Expr {
    if dialect.strict_types() {
        Expr::lit(b)
    } else {
        Expr::lit(b as i64)
    }
}

impl Oracle for CoddTest {
    fn name(&self) -> &'static str {
        if self.require_subquery {
            "codd-subquery"
        } else if !self.config.allow_subqueries {
            "codd-expression"
        } else {
            ORACLE_NAME
        }
    }

    fn run_one(
        &mut self,
        session: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> TestOutcome {
        let relation_mode = self.relation_prob > 0.0 && rng.random_bool(self.relation_prob);
        let outcome = if relation_mode {
            self.relation_test(session, schema, rng)
        } else {
            self.predicate_test(session, schema, rng)
        };
        outcome.unwrap_or_else(|early| early)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coddb::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqlgen::state::generate_state;

    /// Run `n` CODDTest tests on a clean engine; there must be no false
    /// alarms (the paper reports zero after the float/typing mitigations).
    fn assert_no_false_alarms(dialect: Dialect, oracle: &mut CoddTest, n: u64) {
        let mut states = 0;
        let mut tests = 0u64;
        let mut state_seed = 0u64;
        while tests < n {
            let mut rng = StdRng::seed_from_u64(9000 + state_seed);
            state_seed += 1;
            states += 1;
            let (stmts, schema) = generate_state(&mut rng, dialect, &GenConfig::default());
            let mut db = Database::new(dialect);
            for st in &stmts {
                db.execute(st).unwrap();
            }
            let mut session = Session::new(&mut db);
            for _ in 0..16 {
                tests += 1;
                let outcome = oracle.run_one(&mut session, &schema, &mut rng);
                if let TestOutcome::Bug(report) = outcome {
                    panic!(
                        "false alarm on clean {dialect} engine (state {states}):\n{}",
                        report.to_display()
                    );
                }
                if tests >= n {
                    break;
                }
            }
        }
    }

    #[test]
    fn no_false_alarms_on_clean_sqlite() {
        assert_no_false_alarms(Dialect::Sqlite, &mut CoddTest::default(), 400);
    }

    #[test]
    fn no_false_alarms_on_clean_strict_dialects() {
        assert_no_false_alarms(Dialect::Cockroach, &mut CoddTest::default(), 250);
        assert_no_false_alarms(Dialect::Duckdb, &mut CoddTest::default(), 250);
    }

    #[test]
    fn no_false_alarms_on_clean_mysql_tidb() {
        assert_no_false_alarms(Dialect::Mysql, &mut CoddTest::default(), 250);
        assert_no_false_alarms(Dialect::Tidb, &mut CoddTest::default(), 250);
    }

    #[test]
    fn no_false_alarms_expression_and_subquery_configs() {
        assert_no_false_alarms(Dialect::Sqlite, &mut CoddTest::expressions_only(), 250);
        assert_no_false_alarms(Dialect::Sqlite, &mut CoddTest::subqueries_only(), 250);
    }

    #[test]
    fn cross_version_strips_join_kind_and_on() {
        let join = TableExpr::Join {
            left: Box::new(TableExpr::named("a")),
            right: Box::new(TableExpr::named("b")),
            kind: JoinKind::Left,
            on: Some(Expr::lit(true)),
        };
        match cross_version(&join) {
            TableExpr::Join {
                kind: JoinKind::Cross,
                on: None,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn requalify_rewrites_all_references() {
        let p = Expr::and(
            Expr::bin(BinaryOp::Gt, Expr::col("rel0", "c0"), Expr::lit(1i64)),
            Expr::is_null(Expr::col("rel0", "c1")),
        );
        let q = requalify(p, "ft0");
        let mut tables = Vec::new();
        coddb::ast::visit::walk_expr_shallow(&q, &mut |e| {
            if let Expr::Column(c) = e {
                tables.push(c.table.clone());
            }
        });
        assert!(tables.iter().all(|t| t.as_deref() == Some("ft0")));
        // Every child arm: CASE operand, WHEN, THEN and ELSE, BETWEEN
        // bounds, IN-list items, LIKE pattern and function arguments.
        let p = coddb::parser::parse_expr(
            "CASE c0 WHEN c1 THEN c2 ELSE c3 END BETWEEN c4 AND c5 \
             AND c6 IN (c7, c8) AND c9 LIKE c10 AND ABS(c11) > 0",
        )
        .unwrap();
        let q = requalify(p, "ft0");
        let mut tables = Vec::new();
        coddb::ast::visit::walk_expr_shallow(&q, &mut |e| {
            if let Expr::Column(c) = e {
                tables.push(c.table.clone());
            }
        });
        assert_eq!(tables, vec![Some("ft0".to_string()); 12]);
    }
}
