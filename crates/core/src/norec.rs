//! NoREC baseline (Rigger & Su, ESEC/FSE 2020).
//!
//! Non-optimizing reference engine construction: the optimized query
//! `SELECT COUNT(*) FROM ... WHERE p` must agree with counting the rows
//! for which `p` evaluates to TRUE when placed in the projection of an
//! *unoptimized* query. CoddDB gives NoREC a real non-optimizing mode
//! (`Session::query_unoptimized` skips constant folding, pushdown and
//! index selection).
//!
//! Faithful tool scope (used by the paper's Table 2 analysis): WHERE of
//! SELECT only, joins allowed, **no subqueries**.

use coddb::ast::{Select, SelectCore, SelectItem};
use sqlgen::expr::ExprGen;
use sqlgen::query::{build_count_query, gen_from_context};
use sqlgen::{GenConfig, SchemaInfo};

use crate::{value_is_true, Case, Oracle, Session, TestOutcome};

const ORACLE_NAME: &str = "norec";

/// The NoREC oracle.
pub struct NoRec {
    config: GenConfig,
}

impl Default for NoRec {
    fn default() -> Self {
        // NoREC does not support subqueries (§1 of the CODDTest paper).
        NoRec {
            config: GenConfig::expressions_only(),
        }
    }
}

impl NoRec {
    fn test(
        &self,
        s: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> Result<TestOutcome, TestOutcome> {
        let dialect = s.dialect();
        let from = gen_from_context(rng, schema, &self.config, dialect);
        let mut gen = ExprGen::new(dialect, &self.config, schema, &from.scope);
        let p = gen.gen_predicate(rng, self.config.max_depth.max(1));

        // Optimized query: Q = SELECT COUNT(*) FROM ... WHERE p.
        let optimized = build_count_query(&from, Some(p.clone()));

        // Reference query: SELECT p FROM ... executed unoptimized; count
        // the TRUE rows host-side.
        let reference = Select::from_core(SelectCore {
            items: vec![SelectItem::Expr {
                expr: p,
                alias: None,
            }],
            from: Some(from.table_expr.clone()),
            ..SelectCore::default()
        });

        let mut case = Case::new(ORACLE_NAME);
        let o_rel = case.query(s, "optimized", optimized)?;
        let r_rel = case.query_unoptimized(s, "unoptimized", reference)?;

        let optimized_count = o_rel.scalar().and_then(|v| v.as_i64()).unwrap_or(-1);
        let reference_count = r_rel
            .rows
            .iter()
            .filter(|row| value_is_true(&row[0]))
            .count() as i64;

        Ok(case.check(optimized_count == reference_count, || {
            format!("optimized count {optimized_count} != unoptimized TRUE count {reference_count}")
        }))
    }
}

impl Oracle for NoRec {
    fn name(&self) -> &'static str {
        ORACLE_NAME
    }

    fn run_one(
        &mut self,
        s: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> TestOutcome {
        self.test(s, schema, rng).unwrap_or_else(|early| early)
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
            let mut oracle = NoRec::default();
            for seed in 0..25u64 {
                let mut rng = StdRng::seed_from_u64(7_000 + seed);
                let (stmts, schema) = generate_state(&mut rng, dialect, &GenConfig::default());
                let mut db = Database::new(dialect);
                for st in &stmts {
                    db.execute(st).unwrap();
                }
                let mut session = Session::new(&mut db);
                for _ in 0..12 {
                    if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                        panic!("NoREC false alarm on clean {dialect}:\n{}", r.to_display());
                    }
                }
            }
        }
    }

    #[test]
    fn detects_optimizer_dependent_bug() {
        // SqliteIndexedCmpNullTrue fires only under an optimizer-chosen
        // index scan — exactly NoREC's target class.
        let mut db = Database::with_bugs(
            Dialect::Sqlite,
            coddb::bugs::BugRegistry::only(coddb::BugId::SqliteIndexedCmpNullTrue),
        );
        db.execute_sql(
            "CREATE TABLE t0 (c0 INT); INSERT INTO t0 VALUES (1), (NULL), (2);
             CREATE INDEX i0 ON t0 (c0)",
        )
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
            dialect: Some(Dialect::Sqlite),
        };
        let mut oracle = NoRec::default();
        let mut found = false;
        let mut session = Session::new(&mut db);
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            if oracle.run_one(&mut session, &schema, &mut rng).is_bug() {
                found = true;
                break;
            }
        }
        assert!(found, "NoREC should detect the indexed NULL-comparison bug");
    }
}
