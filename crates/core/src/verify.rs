//! The `verify` oracle: static plan verification as a campaign oracle.
//!
//! Every other oracle in this crate observes *executed* results; this one
//! observes the plan tree itself. Each test builds a small fixed scenario
//! whose probe queries exercise the invariant-bearing plan shapes (range
//! seeks, eliminated DESC sorts, hash joins with residuals, outer-join
//! pushdown bait), adds a few randomly generated queries over the
//! campaign's schema for breadth, and runs
//! [`coddb::Database::verify_select`] — planning with the session's
//! active bug registry, then checking the plan against the engine's
//! invariants ([`coddb::validate`]) **without executing a row**. Any
//! violation is a finding: a statically-illegal plan is a planner bug
//! regardless of what execution would return. Findings reproduce and
//! attribute through the standard campaign rerun machinery, exactly like
//! execution-based findings.

use coddb::ast::{Select, SelectCore, SelectItem, Statement};
use sqlgen::expr::ExprGen;
use sqlgen::query::gen_from_context;
use sqlgen::{GenConfig, SchemaInfo};

use crate::{Case, Oracle, Session, TestOutcome};

const ORACLE_NAME: &str = "verify";

/// Fixed trigger scenario: a physical single-column index for range and
/// ordered seeks, plus a second table for join shapes. Names are
/// prefixed to stay clear of the generated campaign schema.
const SETUP: &[&str] = &[
    "CREATE TABLE vrf_t (k INT, v INT)",
    "INSERT INTO vrf_t VALUES (1, 10), (2, 20), (2, 21), (3, 30)",
    "CREATE INDEX vrf_ik ON vrf_t (k)",
    "CREATE TABLE vrf_r (k INT, w INT)",
    "INSERT INTO vrf_r VALUES (2, 200), (3, 300)",
];

const TEARDOWN: &[&str] = &["DROP TABLE vrf_t", "DROP TABLE vrf_r"];

/// Probe queries covering the invariant-bearing plan shapes.
const PROBES: &[&str] = &[
    "SELECT v FROM vrf_t WHERE k >= 2",
    "SELECT v FROM vrf_t WHERE k = 2",
    "SELECT v FROM vrf_t WHERE k > 0 AND v < 100",
    "SELECT k FROM vrf_t ORDER BY k DESC",
    "SELECT vrf_t.v FROM vrf_t JOIN vrf_r ON vrf_t.k = vrf_r.k AND vrf_t.v < vrf_r.w",
    "SELECT vrf_t.v FROM vrf_t LEFT JOIN vrf_r ON vrf_t.k = vrf_r.k WHERE vrf_r.w > 0",
];

/// How many random breadth queries each test verifies on top of the
/// fixed probes.
const RANDOM_PROBES: usize = 2;

/// The static plan verifier as a campaign oracle.
#[derive(Default)]
pub struct Verify {
    config: GenConfig,
}

impl Oracle for Verify {
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

        // Random breadth probes are drawn *before* any early return so a
        // test consumes the same amount of randomness on every path —
        // the campaign replay machinery depends on it.
        let mut random_probes = Vec::with_capacity(RANDOM_PROBES);
        for _ in 0..RANDOM_PROBES {
            let from = gen_from_context(rng, schema, &self.config, dialect);
            let mut gen = ExprGen::new(dialect, &self.config, schema, &from.scope);
            let p = gen.gen_predicate(rng, self.config.max_depth.max(1));
            random_probes.push(Select::from_core(SelectCore {
                items: vec![SelectItem::Wildcard],
                from: Some(from.table_expr.clone()),
                where_clause: Some(p),
                ..SelectCore::default()
            }));
        }

        for sql in SETUP {
            if let Err(e) = s.db.execute_sql(sql) {
                teardown(s);
                return TestOutcome::Skipped(format!("verify setup failed: {e}"));
            }
        }

        let mut case = Case::new(ORACLE_NAME);
        let mut flagged: Vec<String> = Vec::new();
        let fixed = PROBES
            .iter()
            .map(|probe| coddb::parser::parse_select(probe).expect("fixed probe parses"));
        for q in fixed.chain(random_probes) {
            // Planning errors are ordinary expected errors (the random
            // probes can reference dropped columns etc.) — the verifier
            // only judges plans that exist.
            if let Ok(violations) = s.db.verify_select(&q) {
                if !violations.is_empty() {
                    case.note(format!("probe {}", flagged.len()), Statement::Select(q));
                    let joined: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                    flagged.push(joined.join("; "));
                }
            }
        }
        teardown(s);

        case.check(flagged.is_empty(), || {
            format!("statically illegal plan: {}", flagged.join(" | "))
        })
    }
}

fn teardown(s: &mut Session) {
    for sql in TEARDOWN {
        let _ = s.db.execute_sql(sql);
    }
}
