//! Random database-state generation (step ① of Figure 1).
//!
//! Emits `CREATE TABLE` / `INSERT` / `CREATE INDEX` / `CREATE VIEW`
//! statements, guaranteeing every table holds at least one row (the paper:
//! "non-empty tables ensure that at least one row is available for us to
//! apply constant folding"). Returns both the statements and a
//! [`SchemaInfo`] the expression/query generators consult.

use coddb::ast::{BinaryOp, ColumnDef, Expr, Select, SelectCore, SelectItem, Statement, TableExpr};
use coddb::value::{DataType, Value};
use coddb::Dialect;
use rand::{Rng, RngExt};

use crate::{GenConfig, SchemaInfo, TableInfo};

/// Probability that a generated state gets a view.
pub const VIEW_PROBABILITY: f64 = 0.4;

/// Generate a random database state for `dialect`.
pub fn generate_state(
    rng: &mut (impl Rng + ?Sized),
    dialect: Dialect,
    config: &GenConfig,
) -> (Vec<Statement>, SchemaInfo) {
    let mut stmts = Vec::new();
    let mut schema = SchemaInfo {
        dialect: Some(dialect),
        ..SchemaInfo::default()
    };

    let n_tables = rng.random_range(1..=config.max_tables.max(1));
    for ti in 0..n_tables {
        let name = format!("t{ti}");
        let n_cols = rng.random_range(1..=4);
        let mut columns = Vec::with_capacity(n_cols);
        let mut defs = Vec::with_capacity(n_cols);
        for ci in 0..n_cols {
            let ty = random_column_type(rng, dialect);
            let col = format!("c{ci}");
            columns.push((col.clone(), ty));
            defs.push(ColumnDef {
                name: col,
                ty,
                not_null: false,
            });
        }
        stmts.push(Statement::CreateTable {
            name: name.clone(),
            columns: defs,
            if_not_exists: false,
        });

        // Insert 1..=max_rows rows (never zero). Some tables draw their
        // integers from a 5-value domain: duplicate keys are what make
        // equality seeks, GROUP BY and join fan-out interesting, and a
        // wide domain almost never collides within a handful of rows.
        let narrow = rng.random_bool(0.35);
        let n_rows = rng.random_range(1..=config.max_rows.max(1));
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let row: Vec<Expr> = columns
                .iter()
                .map(|(_, ty)| {
                    let mut v = random_value(rng, *ty);
                    if narrow {
                        if let Value::Int(i) = v {
                            v = Value::Int(i.rem_euclid(5));
                        }
                    }
                    Expr::Literal(v)
                })
                .collect();
            rows.push(row);
        }
        stmts.push(Statement::Insert {
            table: name.clone(),
            columns: Vec::new(),
            source: coddb::ast::InsertSource::Values(rows),
        });

        // Maybe an index: plain column or simple expression (Listing 1's
        // `CREATE INDEX i0 ON t0 (c0 > 0)` shape).
        if rng.random_bool(config.index_probability) {
            let idx_name = format!("i{ti}");
            let (col, ty) = &columns[rng.random_range(0..columns.len())];
            // Occasionally index a concatenation of a TEXT and a REAL
            // column — an affinity-sensitive indexed expression.
            let text_col = columns.iter().find(|(_, t)| *t == DataType::Text);
            let real_col = columns.iter().find(|(_, t)| *t == DataType::Real);
            let expr = if let (Some((tc, _)), Some((rc, _)), true) =
                (text_col, real_col, rng.random_bool(0.25))
            {
                Expr::bin(
                    BinaryOp::Concat,
                    Expr::bare_col(tc.clone()),
                    Expr::bare_col(rc.clone()),
                )
            } else if matches!(ty, DataType::Int | DataType::Real | DataType::Any)
                && rng.random_bool(0.4)
            {
                Expr::bin(
                    BinaryOp::Gt,
                    Expr::bare_col(col.clone()),
                    Expr::lit(rng.random_range(-5i64..5)),
                )
            } else {
                Expr::bare_col(col.clone())
            };
            // Occasionally widen a bare-column key into a two-column
            // prefix — the seek path's multi-column shapes.
            let mut exprs = vec![expr];
            if matches!(&exprs[0], Expr::Column(_)) && columns.len() > 1 && rng.random_bool(0.3) {
                let (second, _) = &columns[rng.random_range(0..columns.len())];
                if !second.eq_ignore_ascii_case(col) {
                    exprs.push(Expr::bare_col(second.clone()));
                }
            }
            let rekey = match &exprs[0] {
                Expr::Column(c) if rng.random_bool(0.7) => columns
                    .iter()
                    .find(|(n, t)| n == &c.column && *t == DataType::Int)
                    .map(|(n, _)| n.clone()),
                _ => None,
            };
            if let Expr::Column(c) = &exprs[0] {
                schema
                    .indexed_columns
                    .push((name.clone(), c.column.clone()));
            }
            stmts.push(Statement::CreateIndex {
                name: idx_name.clone(),
                table: name.clone(),
                exprs,
                unique: false,
            });
            schema.indexes.push((idx_name, name.clone()));
            // Count-preserving re-key of the indexed column: every entry
            // in the fresh index goes stale under a maintenance mutant,
            // while row count and column types are untouched. Queries
            // that later seek this index then diverge from scans.
            if let Some(col) = rekey {
                stmts.push(Statement::Update {
                    table: name.clone(),
                    sets: vec![(
                        col.clone(),
                        Expr::bin(BinaryOp::Add, Expr::bare_col(col), Expr::lit(1i64)),
                    )],
                    where_clause: None,
                });
            }
        }

        schema.tables.push(TableInfo {
            name,
            columns,
            is_view: false,
            row_count: n_rows,
        });
    }

    // Maybe a view over one of the tables: either a simple projection or
    // an aggregate-with-GROUP-BY view (feeding the Listing-1 shape).
    if rng.random_bool(VIEW_PROBABILITY) {
        let base_idx = rng.random_range(0..schema.tables.len());
        let base = schema.tables[base_idx].clone();
        let view_name = "v0".to_string();
        let aggregate = rng.random_bool(0.4);
        let (items, view_cols): (Vec<SelectItem>, Vec<(String, DataType)>) = if aggregate {
            let (col, cty) = pick_numericish(&base, rng);
            (
                vec![SelectItem::Expr {
                    expr: Expr::Agg {
                        func: coddb::ast::AggFunc::Avg,
                        arg: Some(Box::new(Expr::col(base.name.clone(), col.clone()))),
                        distinct: false,
                    },
                    alias: None,
                }],
                vec![("c0".to_string(), real_or(cty))],
            )
        } else {
            let mut items = Vec::new();
            let mut cols = Vec::new();
            for (i, (c, ty)) in base.columns.iter().enumerate() {
                items.push(SelectItem::Expr {
                    expr: Expr::col(base.name.clone(), c.clone()),
                    alias: None,
                });
                cols.push((format!("c{i}"), *ty));
            }
            (items, cols)
        };
        let group_by = if aggregate {
            let (col, _) = pick_numericish(&base, rng);
            vec![Expr::bin(
                BinaryOp::Gt,
                Expr::lit(rng.random_range(-3i64..3)),
                Expr::col(base.name.clone(), col),
            )]
        } else {
            Vec::new()
        };
        let query = Select::from_core(SelectCore {
            items,
            from: Some(TableExpr::named(base.name.clone())),
            group_by,
            ..SelectCore::default()
        });
        stmts.push(Statement::CreateView {
            name: view_name.clone(),
            columns: view_cols.iter().map(|(c, _)| c.clone()).collect(),
            query,
        });
        // Aggregate views over a non-empty table always hold >= 1 row;
        // projection views mirror the base table.
        let row_count = if aggregate { 1 } else { base.row_count };
        schema.tables.push(TableInfo {
            name: view_name,
            columns: view_cols,
            is_view: true,
            row_count,
        });
    }

    (stmts, schema)
}

fn real_or(ty: DataType) -> DataType {
    // AVG returns REAL except over pure-NULL input.
    match ty {
        DataType::Int | DataType::Real => DataType::Real,
        other => other,
    }
}

fn pick_numericish(t: &TableInfo, rng: &mut (impl Rng + ?Sized)) -> (String, DataType) {
    let numeric: Vec<&(String, DataType)> = t
        .columns
        .iter()
        .filter(|(_, ty)| matches!(ty, DataType::Int | DataType::Real | DataType::Any))
        .collect();
    if numeric.is_empty() {
        let (c, ty) = &t.columns[rng.random_range(0..t.columns.len())];
        (c.clone(), *ty)
    } else {
        let (c, ty) = numeric[rng.random_range(0..numeric.len())];
        (c.clone(), *ty)
    }
}

/// Pick a random column type legal for the dialect.
pub fn random_column_type(rng: &mut (impl Rng + ?Sized), dialect: Dialect) -> DataType {
    let roll = rng.random_range(0..100);
    match roll {
        0..=39 => DataType::Int,
        40..=59 => DataType::Real,
        60..=84 => DataType::Text,
        85..=92 if dialect.strict_types() => DataType::Bool,
        85..=92 => DataType::Int,
        _ if dialect.allows_untyped_columns() => DataType::Any,
        _ => DataType::Int,
    }
}

/// Random literal value of the given type.
///
/// Floats avoid extreme magnitudes and non-finite values — the paper's
/// false-alarm mitigation ("we avoid these in practice by eschewing test
/// cases with small or large float-point values").
pub fn random_value(rng: &mut (impl Rng + ?Sized), ty: DataType) -> Value {
    if rng.random_bool(0.12) {
        return Value::Null;
    }
    match ty {
        DataType::Int => {
            // Occasionally emit an INT8-range literal: it exercises the
            // Listing-9 bug class and SQLancer likewise mixes magnitudes.
            if rng.random_bool(0.1) {
                Value::Int(rng.random_range(4_294_967_296i64..9_000_000_000_000_000_000))
            } else {
                Value::Int(rng.random_range(-100i64..100))
            }
        }
        DataType::Real => {
            // Decimal tenths: non-dyadic, so f32/f64 rounding genuinely
            // differs (needed to observe precision-corrupting mutants)
            // while magnitudes stay tame.
            let v = rng.random_range(-10_000i64..10_000) as f64 / 10.0;
            Value::Real(v)
        }
        DataType::Text => {
            let len = rng.random_range(0..4);
            let s: String = (0..len)
                .map(|_| {
                    let alphabet = b"abcxyzAB%_0 ";
                    alphabet[rng.random_range(0..alphabet.len())] as char
                })
                .collect();
            Value::Text(s)
        }
        DataType::Bool => Value::Bool(rng.random()),
        DataType::Any => {
            let sub = [DataType::Int, DataType::Real, DataType::Text][rng.random_range(0..3)];
            random_value(rng, sub)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coddb::Database;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_states_execute_on_every_dialect() {
        for dialect in Dialect::ALL {
            for seed in 0..30u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (stmts, schema) = generate_state(&mut rng, dialect, &GenConfig::default());
                let mut db = Database::new(dialect);
                for s in &stmts {
                    db.execute(s).unwrap_or_else(|e| {
                        panic!("state statement failed on {dialect} (seed {seed}): {s}\n{e}")
                    });
                }
                // Every base table is non-empty.
                for t in schema.base_tables() {
                    let rel = db
                        .query_sql(&format!("SELECT COUNT(*) FROM {}", t.name))
                        .unwrap();
                    let n = rel.scalar().unwrap().as_i64().unwrap();
                    assert!(n >= 1, "table {} empty (seed {seed})", t.name);
                    assert_eq!(n as usize, t.row_count, "row_count model out of sync");
                }
            }
        }
    }

    #[test]
    fn schema_model_matches_catalog() {
        let mut rng = StdRng::seed_from_u64(7);
        let (stmts, schema) = generate_state(&mut rng, Dialect::Sqlite, &GenConfig::default());
        let mut db = Database::new(Dialect::Sqlite);
        for s in &stmts {
            db.execute(s).unwrap();
        }
        for t in &schema.tables {
            if t.is_view {
                assert!(db.catalog().view(&t.name).is_some());
            } else {
                let cat_t = db.catalog().table(&t.name).unwrap();
                assert_eq!(cat_t.columns.len(), t.columns.len());
            }
        }
        for (i, t) in &schema.indexes {
            assert!(db.catalog().index(i).is_some());
            assert_eq!(&db.catalog().index(i).unwrap().table, t);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (stmts, _) = generate_state(&mut rng, Dialect::Tidb, &GenConfig::default());
            stmts.iter().map(|s| s.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    #[test]
    fn random_values_respect_types() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            match random_value(&mut rng, DataType::Real) {
                Value::Real(r) => assert!(r.is_finite() && r.abs() < 1e6),
                Value::Null => {}
                other => panic!("unexpected {other:?}"),
            }
            match random_value(&mut rng, DataType::Bool) {
                Value::Bool(_) | Value::Null => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
