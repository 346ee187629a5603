//! DQE baseline — Differential Query Execution (Song et al., ICSE 2023).
//!
//! The same predicate must select the same rows in `SELECT`, `UPDATE` and
//! `DELETE`. Following the published tool, DQE maintains its own table
//! with two extra columns — a unique row identifier and a modification
//! marker ("a test requires not only the three statements ... but also
//! additional statements for two extra columns", §4.3) — and uses
//! single-table, subquery-free predicates (no JOIN support, which the
//! paper cites for DQE's lower branch coverage).

use coddb::ast::{
    ColumnDef, Expr, InsertSource, Select, SelectCore, SelectItem, Statement, TableExpr,
};
use coddb::value::DataType;
use rand::RngExt;
use sqlgen::expr::ExprGen;
use sqlgen::state::{random_column_type, random_value};
use sqlgen::{ColumnInfo, GenConfig, SchemaInfo, TableInfo};

use crate::{Case, Oracle, Session, TestOutcome};

const ORACLE_NAME: &str = "dqe";
const TABLE: &str = "dqe0";

/// The DQE oracle.
pub struct Dqe {
    config: GenConfig,
}

impl Default for Dqe {
    fn default() -> Self {
        Dqe {
            config: GenConfig {
                allow_joins: false,
                ..GenConfig::expressions_only()
            },
        }
    }
}

impl Dqe {
    /// (Re)create the private table with id / data / modified columns.
    /// The published DQE tool re-stages its tables and marker columns per
    /// test — the reason the paper measures its QPT at 17.0.
    fn ensure_table(
        &self,
        s: &mut Session,
        case: &mut Case,
        rng: &mut dyn rand::Rng,
    ) -> Result<TableInfo, TestOutcome> {
        let dialect = s.dialect();
        let n_cols = rng.random_range(1..=3);
        let mut defs = vec![ColumnDef {
            name: "id".into(),
            ty: DataType::Int,
            not_null: true,
        }];
        let mut data_cols = Vec::new();
        for i in 0..n_cols {
            let mut ty = random_column_type(rng, dialect);
            if ty == DataType::Any {
                ty = DataType::Int;
            }
            defs.push(ColumnDef {
                name: format!("c{i}"),
                ty,
                not_null: false,
            });
            data_cols.push((format!("c{i}"), ty));
        }
        defs.push(ColumnDef {
            name: "modified".into(),
            ty: DataType::Int,
            not_null: false,
        });

        let drop = Statement::DropTable {
            name: TABLE.into(),
            if_exists: true,
        };
        let _ = case.execute(s, "drop", drop);
        let create = Statement::CreateTable {
            name: TABLE.into(),
            columns: defs,
            if_not_exists: false,
        };
        case.execute(s, "create", create)?;
        // One INSERT per row, mirroring the published tool's row-at-a-time
        // staging (part of why DQE executes the most statements per test).
        let n_rows = rng.random_range(1..=8);
        for id in 0..n_rows {
            let mut row = vec![Expr::lit(id as i64)];
            for (_, ty) in &data_cols {
                row.push(Expr::Literal(random_value(rng, *ty)));
            }
            row.push(Expr::lit(0i64));
            let insert = Statement::Insert {
                table: TABLE.into(),
                columns: Vec::new(),
                source: InsertSource::Values(vec![row]),
            };
            case.execute(s, "insert", insert)?;
        }
        Ok(TableInfo {
            name: TABLE.into(),
            columns: data_cols,
            is_view: false,
            row_count: n_rows,
        })
    }

    fn select_ids(
        &self,
        s: &mut Session,
        case: &mut Case,
        label: &'static str,
        where_clause: Option<Expr>,
    ) -> Result<Vec<i64>, TestOutcome> {
        let q = Select::from_core(SelectCore {
            items: vec![SelectItem::Expr {
                expr: Expr::col(TABLE, "id"),
                alias: None,
            }],
            from: Some(TableExpr::named(TABLE)),
            where_clause,
            ..SelectCore::default()
        });
        let rel = case.query(s, label, q)?;
        let mut ids: Vec<i64> = rel.rows.iter().filter_map(|r| r[0].as_i64()).collect();
        ids.sort_unstable();
        Ok(ids)
    }

    fn test(&self, s: &mut Session, rng: &mut dyn rand::Rng) -> Result<TestOutcome, TestOutcome> {
        let mut case = Case::new(ORACLE_NAME);
        let table = self.ensure_table(s, &mut case, rng)?;
        let dialect = s.dialect();
        let scope: Vec<ColumnInfo> = table.columns_as(TABLE);
        let empty_schema = SchemaInfo::default();
        let mut gen = ExprGen::new(dialect, &self.config, &empty_schema, &scope);
        let p = gen.gen_predicate(rng, self.config.max_depth.max(1));

        // SELECT.
        let ids_select = self.select_ids(s, &mut case, "select", Some(p.clone()))?;

        // UPDATE on a snapshot: the marked rows are the selected rows. The
        // paper's §4.2 MySQL case: the predicate works in SELECT but raises
        // a semantic error in UPDATE/DELETE — DQE cannot test it.
        let update = Statement::Update {
            table: TABLE.into(),
            sets: vec![("modified".into(), Expr::lit(1i64))],
            where_clause: Some(p.clone()),
        };
        let snapshot = s.db.snapshot();
        let marked = case.execute(s, "update", update).and_then(|_| {
            let modified = Expr::eq(Expr::col(TABLE, "modified"), Expr::lit(1i64));
            self.select_ids(s, &mut case, "select marked", Some(modified))
        });
        s.db.restore(snapshot.clone());
        let ids_update = marked?;

        // DELETE on a snapshot: the deleted rows are the selected rows.
        let all_ids = self.select_ids(s, &mut case, "select all", None)?;
        let delete = Statement::Delete {
            table: TABLE.into(),
            where_clause: Some(p),
        };
        let remaining = case
            .execute(s, "delete", delete)
            .and_then(|_| self.select_ids(s, &mut case, "select remaining", None));
        s.db.restore(snapshot);
        let remaining = remaining?;
        let ids_delete: Vec<i64> = all_ids
            .into_iter()
            .filter(|id| !remaining.contains(id))
            .collect();

        let consistent = ids_select == ids_update && ids_select == ids_delete;
        Ok(case.check(consistent, || {
            format!(
                "SELECT matched {ids_select:?}, UPDATE matched {ids_update:?}, \
                 DELETE matched {ids_delete:?}"
            )
        }))
    }
}

impl Oracle for Dqe {
    fn name(&self) -> &'static str {
        ORACLE_NAME
    }

    fn run_one(
        &mut self,
        s: &mut Session,
        _schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> TestOutcome {
        self.test(s, rng).unwrap_or_else(|early| early)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coddb::{Database, Dialect};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_false_alarms_on_clean_engines() {
        for dialect in Dialect::ALL {
            let mut db = Database::new(dialect);
            let mut oracle = Dqe::default();
            let schema = SchemaInfo::default();
            let mut session = Session::new(&mut db);
            for seed in 0..250u64 {
                let mut rng = StdRng::seed_from_u64(13_000 + seed);
                if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                    panic!("DQE false alarm on clean {dialect}:\n{}", r.to_display());
                }
            }
        }
    }

    #[test]
    fn detects_select_only_bug() {
        // CockroachOrShortCircuitFalse fires only in SELECT WHERE filters;
        // UPDATE/DELETE behave correctly — DQE's sweet spot.
        let mut db = Database::with_bugs(
            Dialect::Cockroach,
            coddb::bugs::BugRegistry::only(coddb::BugId::CockroachOrShortCircuitFalse),
        );
        let mut oracle = Dqe::default();
        let schema = SchemaInfo::default();
        let mut found = false;
        let mut session = Session::new(&mut db);
        for seed in 0..800u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            if oracle.run_one(&mut session, &schema, &mut rng).is_bug() {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "DQE should detect the SELECT-only OR short-circuit bug"
        );
    }

    #[test]
    fn misses_statement_consistent_bug() {
        // TidbInValueListWhere fires identically in every statement's
        // WHERE — DQE structurally cannot see it (Listing 10 analysis).
        let mut db = Database::with_bugs(
            Dialect::Tidb,
            coddb::bugs::BugRegistry::only(coddb::BugId::TidbInValueListWhere),
        );
        let mut oracle = Dqe::default();
        let schema = SchemaInfo::default();
        let mut session = Session::new(&mut db);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = oracle.run_one(&mut session, &schema, &mut rng);
            assert!(
                !outcome.is_bug(),
                "DQE unexpectedly detected a consistent WHERE bug"
            );
        }
    }
}
