//! TLP baseline — Ternary Logic Partitioning (Rigger & Su, OOPSLA 2020).
//!
//! For any row exactly one of `p`, `NOT p`, `p IS NULL` is TRUE, so a
//! query without the predicate must equal the multiset union of the three
//! partitioning queries. Beyond the WHERE mode, TLP tests aggregates
//! (`COUNT`/`SUM`/`MIN`/`MAX`), `DISTINCT` and `HAVING` — the scope the
//! CODDTest paper credits it with. Like NoREC, it has no subquery support.

use coddb::ast::{AggFunc, Expr, Select, SelectBody, SelectCore, SelectItem, SetOp};
use coddb::value::{Relation, Row, Value};
use rand::RngExt;
use sqlgen::expr::ExprGen;
use sqlgen::query::{gen_from_context, FromContext};
use sqlgen::{GenConfig, SchemaInfo};

use crate::{Case, Oracle, Session, TestOutcome};

const ORACLE_NAME: &str = "tlp";

/// The TLP oracle.
pub struct Tlp {
    config: GenConfig,
}

impl Default for Tlp {
    fn default() -> Self {
        Tlp {
            config: GenConfig::expressions_only(),
        }
    }
}

/// The report labels of the three partitioning queries.
const PARTITION_LABELS: [&str; 3] = ["partition 0", "partition 1", "partition 2"];

/// The three partitioning predicates.
fn partitions(p: &Expr) -> [Expr; 3] {
    [
        p.clone(),
        Expr::not(p.clone()),
        Expr::IsNull {
            expr: Box::new(p.clone()),
            negated: false,
        },
    ]
}

impl Tlp {
    fn where_mode(
        &self,
        s: &mut Session,
        from: &FromContext,
        p: &Expr,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        let items: Vec<SelectItem> = from
            .scope
            .iter()
            .map(|c| SelectItem::Expr {
                expr: Expr::col(c.table.clone(), c.column.clone()),
                alias: None,
            })
            .collect();
        let base = |w: Option<Expr>| {
            Select::from_core(SelectCore {
                items: items.clone(),
                from: Some(from.table_expr.clone()),
                where_clause: w,
                ..SelectCore::default()
            })
        };
        let parts = partitions(p);

        let mut case = Case::new(ORACLE_NAME);
        let all_rel = case.query(s, "unpartitioned", base(None))?;

        // Mostly run the partitions as one UNION ALL query, occasionally
        // as three separate queries — the paper measures TLP's QPT at
        // 2.23, i.e. the single-query mode dominates.
        let mut combined = Relation::new(all_rel.columns.clone());
        if rng.random_bool(0.85) {
            let [p0, p1, p2] = parts;
            let union = Select {
                with: Vec::new(),
                body: SelectBody::SetOp {
                    op: SetOp::Union,
                    all: true,
                    left: Box::new(SelectBody::SetOp {
                        op: SetOp::Union,
                        all: true,
                        left: Box::new(core_of(base(Some(p0)))),
                        right: Box::new(core_of(base(Some(p1)))),
                    }),
                    right: Box::new(core_of(base(Some(p2)))),
                },
                order_by: Vec::new(),
                limit: None,
                offset: None,
            };
            combined.rows = case.query(s, "partitions (UNION ALL)", union)?.rows;
        } else {
            for (label, part) in PARTITION_LABELS.into_iter().zip(parts) {
                combined
                    .rows
                    .extend(case.query(s, label, base(Some(part)))?.rows);
            }
        }

        Ok(case.check(all_rel.multiset_eq(&combined), || {
            format!(
                "unpartitioned {} row(s) != partitions {} row(s)",
                all_rel.row_count(),
                combined.row_count()
            )
        }))
    }

    fn aggregate_mode(
        &self,
        s: &mut Session,
        from: &FromContext,
        p: &Expr,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        // Pick an aggregate over a column (COUNT also works over any).
        let col = &from.scope[rng.random_range(0..from.scope.len())];
        let func =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max][rng.random_range(0..4)];
        if matches!(func, AggFunc::Sum)
            && !matches!(
                col.ty,
                coddb::DataType::Int | coddb::DataType::Real | coddb::DataType::Any
            )
        {
            return Err(TestOutcome::Skipped("SUM needs a numeric column".into()));
        }
        let agg = Expr::Agg {
            func,
            arg: Some(Box::new(Expr::col(col.table.clone(), col.column.clone()))),
            distinct: false,
        };
        let base = |w: Option<Expr>| {
            Select::from_core(SelectCore {
                items: vec![SelectItem::Expr {
                    expr: agg.clone(),
                    alias: None,
                }],
                from: Some(from.table_expr.clone()),
                where_clause: w,
                ..SelectCore::default()
            })
        };
        let mut case = Case::new(ORACLE_NAME);
        let scalar = |r: Relation| r.scalar().cloned().unwrap_or(Value::Null);
        let whole_v = scalar(case.query(s, "whole aggregate", base(None))?);
        let mut parts_vals = Vec::new();
        for (label, part) in PARTITION_LABELS.into_iter().zip(partitions(p)) {
            parts_vals.push(scalar(case.query(s, label, base(Some(part)))?));
        }
        let combined = match func {
            AggFunc::Count => {
                let sum: i64 = parts_vals.iter().filter_map(|v| v.as_i64()).sum();
                Value::Int(sum)
            }
            AggFunc::Sum => {
                let nonnull: Vec<&Value> = parts_vals.iter().filter(|v| !v.is_null()).collect();
                if nonnull.is_empty() {
                    Value::Null
                } else if nonnull.iter().all(|v| matches!(v, Value::Int(_))) {
                    // Accumulate host-side in i128: if the combined sum
                    // exceeds i64, the whole-table SUM would have errored
                    // (and the test been skipped) anyway.
                    let total: i128 = nonnull
                        .iter()
                        .filter_map(|v| v.as_i64())
                        .map(i128::from)
                        .sum();
                    match i64::try_from(total) {
                        Ok(v) => Value::Int(v),
                        Err(_) => {
                            return Err(TestOutcome::Skipped("partition SUM overflow".into()))
                        }
                    }
                } else {
                    Value::Real(nonnull.iter().filter_map(|v| v.as_f64()).sum())
                }
            }
            AggFunc::Min => parts_vals
                .iter()
                .filter(|v| !v.is_null())
                .cloned()
                .min_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
            _ => parts_vals
                .iter()
                .filter(|v| !v.is_null())
                .cloned()
                .max_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
        };
        let equal = match (&whole_v, &combined) {
            (Value::Real(a), Value::Real(b)) => (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            (a, b) => a.is_identical(b),
        };
        Ok(case.check(equal, || {
            format!("whole {whole_v:?} != combined partitions {combined:?}")
        }))
    }

    fn distinct_mode(
        &self,
        s: &mut Session,
        from: &FromContext,
        p: &Expr,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        let col = &from.scope[0];
        // Half the time also GROUP BY the projected column — the result
        // set is identical, but it exercises the DISTINCT + GROUP BY
        // machinery (a DuckDB bug class of Table 1).
        let with_group_by = rng.random_bool(0.5);
        let base = |w: Option<Expr>| {
            let key = Expr::col(col.table.clone(), col.column.clone());
            Select::from_core(SelectCore {
                distinct: true,
                items: vec![SelectItem::Expr {
                    expr: key.clone(),
                    alias: None,
                }],
                from: Some(from.table_expr.clone()),
                where_clause: w,
                group_by: if with_group_by { vec![key] } else { Vec::new() },
                ..SelectCore::default()
            })
        };
        let mut case = Case::new(ORACLE_NAME);
        let whole_rel = case.query(s, "whole DISTINCT", base(None))?;
        // Set-union the partition results.
        let mut seen: Vec<Value> = Vec::new();
        for (label, part) in PARTITION_LABELS.into_iter().zip(partitions(p)) {
            for row in case.query(s, label, base(Some(part)))?.rows {
                if !seen.iter().any(|v| v.is_identical(&row[0])) {
                    seen.push(row[0].clone());
                }
            }
        }
        let combined = Relation {
            columns: whole_rel.columns.clone(),
            rows: seen.into_iter().map(|v| Row::new(vec![v])).collect(),
        };
        Ok(case.check(whole_rel.multiset_eq(&combined), || {
            format!(
                "whole DISTINCT {} value(s) != partition union {}",
                whole_rel.row_count(),
                combined.row_count()
            )
        }))
    }

    fn having_mode(
        &self,
        s: &mut Session,
        from: &FromContext,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        // HAVING partitions over an aggregate predicate.
        let key = &from.scope[rng.random_range(0..from.scope.len())];
        let key_expr = Expr::col(key.table.clone(), key.column.clone());
        let p = Expr::bin(
            [coddb::ast::BinaryOp::Gt, coddb::ast::BinaryOp::Le][rng.random_range(0..2)],
            Expr::count_star(),
            Expr::lit(rng.random_range(0i64..3)),
        );
        let base = |h: Option<Expr>| {
            Select::from_core(SelectCore {
                items: vec![SelectItem::Expr {
                    expr: key_expr.clone(),
                    alias: None,
                }],
                from: Some(from.table_expr.clone()),
                group_by: vec![key_expr.clone()],
                having: h,
                ..SelectCore::default()
            })
        };
        let mut case = Case::new(ORACLE_NAME);
        let whole_rel = case.query(s, "all groups", base(None))?;
        let mut combined = Relation::new(whole_rel.columns.clone());
        for (label, part) in PARTITION_LABELS.into_iter().zip(partitions(&p)) {
            combined
                .rows
                .extend(case.query(s, label, base(Some(part)))?.rows);
        }
        Ok(case.check(whole_rel.multiset_eq(&combined), || {
            format!(
                "all groups {} != HAVING partitions {}",
                whole_rel.row_count(),
                combined.row_count()
            )
        }))
    }
}

fn core_of(s: Select) -> SelectBody {
    s.body
}

impl Oracle for Tlp {
    fn name(&self) -> &'static str {
        ORACLE_NAME
    }

    fn run_one(
        &mut self,
        s: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> TestOutcome {
        let dialect = s.dialect();
        let from = gen_from_context(rng, schema, &self.config, dialect);
        let mut gen = ExprGen::new(dialect, &self.config, schema, &from.scope);
        let p = gen.gen_predicate(rng, self.config.max_depth.max(1));

        let outcome = match rng.random_range(0..10) {
            0..=6 => self.where_mode(s, &from, &p, rng),
            7 => self.aggregate_mode(s, &from, &p, rng),
            8 => self.distinct_mode(s, &from, &p, rng),
            _ => self.having_mode(s, &from, rng),
        };
        outcome.unwrap_or_else(|early| early)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coddb::{Database, Dialect};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqlgen::state::generate_state;

    #[test]
    fn no_false_alarms_on_clean_engines() {
        for dialect in Dialect::ALL {
            let mut oracle = Tlp::default();
            for seed in 0..25u64 {
                let mut rng = StdRng::seed_from_u64(11_000 + seed);
                let (stmts, schema) = generate_state(&mut rng, dialect, &GenConfig::default());
                let mut db = Database::new(dialect);
                for st in &stmts {
                    db.execute(st).unwrap();
                }
                let mut session = Session::new(&mut db);
                for _ in 0..12 {
                    if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                        panic!("TLP false alarm on clean {dialect}:\n{}", r.to_display());
                    }
                }
            }
        }
    }

    #[test]
    fn partition_shapes() {
        let p = Expr::bin(
            coddb::ast::BinaryOp::Gt,
            Expr::bare_col("c"),
            Expr::lit(1i64),
        );
        let [a, b, c] = partitions(&p);
        assert_eq!(a.to_string(), "(c > 1)");
        assert_eq!(b.to_string(), "(NOT (c > 1))");
        assert_eq!(c.to_string(), "((c > 1) IS NULL)");
    }

    #[test]
    fn detects_distinct_group_bug_through_distinct_mode() {
        // DuckdbDistinctGroupByDrop corrupts DISTINCT+GROUP BY; TLP's
        // DISTINCT partitions use plain DISTINCT, and the paper's bug is
        // keyed on GROUP BY too — TLP catches it through the top-level
        // filter bug class instead. Here we verify TLP detects a bug that
        // fires on a top-level IN list (TidbInValueListWhere).
        let mut db = Database::with_bugs(
            Dialect::Tidb,
            coddb::bugs::BugRegistry::only(coddb::BugId::TidbInValueListWhere),
        );
        db.execute_sql("CREATE TABLE t0 (c0 INT); INSERT INTO t0 VALUES (1), (2), (3)")
            .unwrap();
        let schema = SchemaInfo {
            tables: vec![sqlgen::TableInfo {
                name: "t0".into(),
                columns: vec![("c0".into(), coddb::DataType::Int)],
                is_view: false,
                row_count: 3,
            }],
            indexes: vec![],
            indexed_columns: vec![],
            dialect: Some(Dialect::Tidb),
        };
        let mut oracle = Tlp::default();
        let mut found = false;
        let mut session = Session::new(&mut db);
        for seed in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            if oracle.run_one(&mut session, &schema, &mut rng).is_bug() {
                found = true;
                break;
            }
        }
        assert!(found, "TLP should detect the top-level IN value list bug");
    }
}
