//! EET baseline — Equivalent Expression Transformation (Jiang & Su,
//! OSDI 2024), the concurrent work the paper compares against in §4.2.
//!
//! EET rewrites a predicate into a more complex but logically equivalent
//! form by composing tautologies and contradictions, then checks that the
//! query results are unchanged. Under SQL three-valued logic:
//!
//! * `q OR NOT q OR (q IS NULL)` is always TRUE,
//! * `q AND NOT q AND (q IS NOT NULL)` is always FALSE,
//!
//! so `p AND <tautology>` ≡ `p` and `p OR <contradiction>` ≡ `p`.

use coddb::ast::Expr;
use rand::RngExt;
use sqlgen::expr::ExprGen;
use sqlgen::query::{build_random_query, gen_from_context};
use sqlgen::{GenConfig, SchemaInfo};

use crate::{Case, Oracle, Session, TestOutcome};

const ORACLE_NAME: &str = "eet";

/// The EET oracle.
pub struct Eet {
    config: GenConfig,
}

#[allow(clippy::derivable_impls)]
impl Default for Eet {
    fn default() -> Self {
        // EET transforms expressions of arbitrary queries, including ones
        // with subqueries.
        Eet {
            config: GenConfig::default(),
        }
    }
}
// (kept as an explicit impl: the default carries a semantic choice)

/// `q OR NOT q OR (q IS NULL)` — TRUE for every q under 3VL.
fn tautology(q: Expr) -> Expr {
    Expr::or(
        Expr::or(q.clone(), Expr::not(q.clone())),
        Expr::IsNull {
            expr: Box::new(q),
            negated: false,
        },
    )
}

/// `q AND NOT q AND (q IS NOT NULL)` — FALSE for every q under 3VL.
fn contradiction(q: Expr) -> Expr {
    Expr::and(
        Expr::and(q.clone(), Expr::not(q.clone())),
        Expr::IsNull {
            expr: Box::new(q),
            negated: true,
        },
    )
}

/// Apply one random equivalence-preserving transformation to `p`.
pub fn transform(p: &Expr, q: Expr, choice: u32) -> Expr {
    match choice % 3 {
        0 => Expr::and(p.clone(), tautology(q)),
        1 => Expr::or(p.clone(), contradiction(q)),
        _ => Expr::not(Expr::not(p.clone())),
    }
}

impl Eet {
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

        // EET explores deep transformation stacks; apply 1-3 rounds.
        let mut transformed = p.clone();
        for _ in 0..rng.random_range(1..=3) {
            let q = gen.gen_predicate(rng, 1);
            transformed = transform(&transformed, q, rng.random_range(0..3));
        }

        let original = build_random_query(rng, &from, Some(p));
        let mut rewritten = original.clone();
        if let Some(core) = rewritten.core_mut() {
            core.where_clause = Some(transformed);
        }

        let mut case = Case::new(ORACLE_NAME);
        let o_rel = case.query(s, "original", original)?;
        let t_rel = case.query(s, "transformed", rewritten)?;
        Ok(case.check(o_rel.multiset_eq(&t_rel), || {
            format!(
                "original returned {} row(s), transformed returned {}",
                o_rel.row_count(),
                t_rel.row_count()
            )
        }))
    }
}

impl Oracle for Eet {
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
    fn transforms_are_equivalence_preserving() {
        // Brute-force over the 3VL truth table: for p,q in {T,F,NULL} the
        // transformed predicate evaluates to the same truth value as p.
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (p INT, q INT)").unwrap();
        let vals = ["1", "0", "NULL"];
        for p in vals {
            for q in vals {
                db.execute_sql("DELETE FROM t").unwrap();
                db.execute_sql(&format!("INSERT INTO t VALUES ({p}, {q})"))
                    .unwrap();
                let base = db.query_sql("SELECT COUNT(*) FROM t WHERE p").unwrap();
                for choice in 0..3 {
                    let tp = transform(&Expr::bare_col("p"), Expr::bare_col("q"), choice);
                    let tr = db
                        .query_sql(&format!("SELECT COUNT(*) FROM t WHERE {tp}"))
                        .unwrap();
                    assert_eq!(
                        base.rows, tr.rows,
                        "choice {choice} not equivalent for p={p}, q={q}: {tp}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_false_alarms_on_clean_engines() {
        for dialect in Dialect::ALL {
            let mut oracle = Eet::default();
            for seed in 0..20u64 {
                let mut rng = StdRng::seed_from_u64(17_000 + seed);
                let (stmts, schema) = generate_state(&mut rng, dialect, &GenConfig::default());
                let mut db = Database::new(dialect);
                for st in &stmts {
                    db.execute(st).unwrap();
                }
                let mut session = Session::new(&mut db);
                for _ in 0..10 {
                    if let TestOutcome::Bug(r) = oracle.run_one(&mut session, &schema, &mut rng) {
                        panic!("EET false alarm on clean {dialect}:\n{}", r.to_display());
                    }
                }
            }
        }
    }
}
