//! Property-based tests over the core data structures and the central
//! invariants of the reproduction:
//!
//! * the SQL value model's total order really is a total order,
//! * multiset comparison is permutation-invariant,
//! * render → parse round-trips every generated statement,
//! * the optimizer never changes results on a clean engine,
//! * the chunk kernels and the row interpreter agree on generated
//!   queries (rows, errors, coverage and fuel),
//! * the CODDTest metamorphic relation holds on a clean engine
//!   (no false alarms) for arbitrary seeds,
//! * the LIKE matcher agrees with a naive reference implementation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use coddb::ast::{Select, SelectCore, SelectItem};
use coddb::eval::like_match;
use coddb::value::{DataType, Relation, Value};
use coddb::{Database, Dialect, EvalMode};
use coddtest::{Oracle, Session, TestOutcome};
use sqlgen::state::generate_state;
use sqlgen::GenConfig;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Real(n as f64 / 10.0)),
        "[a-zA-Z0-9 %_]{0,8}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #[test]
    fn total_order_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering::*;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        match ab {
            Less => prop_assert_eq!(ba, Greater),
            Greater => prop_assert_eq!(ba, Less),
            Equal => prop_assert_eq!(ba, Equal),
        }
        prop_assert_eq!(a.total_cmp(&a), Equal);
    }

    #[test]
    fn total_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        let mut vals = [a, b, c];
        vals.sort_by(|x, y| x.total_cmp(y));
        // After sorting, pairwise order must be consistent.
        prop_assert_ne!(vals[0].total_cmp(&vals[1]), Greater);
        prop_assert_ne!(vals[1].total_cmp(&vals[2]), Greater);
        prop_assert_ne!(vals[0].total_cmp(&vals[2]), Greater);
    }

    #[test]
    fn sql_cmp_is_none_iff_null(a in arb_value(), b in arb_value()) {
        let cmp = a.sql_cmp(&b);
        prop_assert_eq!(cmp.is_none(), a.is_null() || b.is_null());
    }

    #[test]
    fn value_literals_round_trip_through_parser(v in arb_value()) {
        // Reals render with enough precision to round-trip; text escapes.
        let sql = format!("SELECT {}", v.to_sql());
        let mut db = Database::new(Dialect::Sqlite);
        let rel = db.query_sql(&sql).unwrap();
        let got = rel.scalar().unwrap();
        // Bool literals evaluate as themselves; everything else compares
        // with null-safe identity.
        prop_assert!(got.is_identical(&v), "{v:?} -> {sql} -> {got:?}");
    }

    #[test]
    fn multiset_eq_is_permutation_invariant(rows in prop::collection::vec(
        prop::collection::vec(arb_value(), 2), 0..8), seed in any::<u64>())
    {
        let a = Relation::from_rows(vec!["x".into(), "y".into()], rows.clone());
        let mut shuffled = rows.clone();
        // Deterministic shuffle from the seed.
        let mut s = seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s as usize) % (i + 1));
        }
        let b = Relation::from_rows(vec!["x".into(), "y".into()], shuffled);
        prop_assert!(a.multiset_eq(&b));
        // Removing a row breaks equality.
        if !rows.is_empty() {
            let mut c = a.clone();
            c.rows.pop();
            prop_assert!(!a.multiset_eq(&c));
        }
    }

    #[test]
    fn generated_statements_round_trip_through_parser(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dialect = Dialect::ALL[(seed % 5) as usize];
        let (stmts, _) = generate_state(&mut rng, dialect, &GenConfig::default());
        for stmt in &stmts {
            let rendered = stmt.to_string();
            let reparsed = coddb::parser::parse_statements(&rendered)
                .unwrap_or_else(|e| panic!("re-parse failed for {rendered}: {e}"));
            prop_assert_eq!(reparsed.len(), 1);
            prop_assert_eq!(
                reparsed[0].to_string(),
                rendered.clone(),
                "render→parse→render unstable"
            );
        }
    }

    #[test]
    fn optimizer_preserves_semantics(seed in any::<u64>()) {
        // Random state + random predicate query: optimized and unoptimized
        // execution must agree on a clean engine.
        let mut rng = StdRng::seed_from_u64(seed);
        let dialect = Dialect::ALL[(seed % 5) as usize];
        let cfg = GenConfig::default();
        let (stmts, schema) = generate_state(&mut rng, dialect, &cfg);
        let mut db = Database::new(dialect);
        for s in &stmts {
            db.execute(s).unwrap();
        }
        let from = sqlgen::query::gen_from_context(&mut rng, &schema, &cfg, dialect);
        let mut gen = sqlgen::expr::ExprGen::new(dialect, &cfg, &schema, &from.scope);
        let p = gen.gen_predicate(&mut rng, 3);
        let q = sqlgen::query::build_projection_query(&from, Some(p));
        match (db.query(&q), db.query_unoptimized(&q)) {
            (Ok(a), Ok(b)) => prop_assert!(a.multiset_eq(&b), "optimizer changed {q}"),
            (Err(a), Err(b)) => prop_assert_eq!(a.category(), b.category()),
            (a, b) => prop_assert!(
                false,
                "optimizer changed success: {q}\nopt: {a:?}\nunopt: {b:?}"
            ),
        }
    }

    #[test]
    fn vectorized_and_row_at_a_time_agree_on_generated_queries(seed in any::<u64>()) {
        // Random state, then random queries — a predicate plus three
        // projection items each: the chunk kernels and the row
        // interpreter must agree in rows, errors, coverage bitsets and
        // fuel on fresh databases.
        let mut rng = StdRng::seed_from_u64(seed);
        let dialect = Dialect::ALL[(seed % 5) as usize];
        let cfg = GenConfig::default();
        let (stmts, schema) = generate_state(&mut rng, dialect, &cfg);
        let types = [DataType::Int, DataType::Real, DataType::Text, DataType::Bool];
        let queries: Vec<Select> = (0..4)
            .map(|_| {
                let from = sqlgen::query::gen_from_context(&mut rng, &schema, &cfg, dialect);
                let mut gen = sqlgen::expr::ExprGen::new(dialect, &cfg, &schema, &from.scope);
                let pred = gen.gen_predicate(&mut rng, 3);
                let items = (0..3)
                    .map(|_| {
                        let ty = types[rng.random_range(0..types.len())];
                        SelectItem::Expr {
                            expr: gen.gen_expr(&mut rng, ty, 3),
                            alias: None,
                        }
                    })
                    .collect();
                Select::from_core(SelectCore {
                    items,
                    from: Some(from.table_expr),
                    where_clause: Some(pred),
                    ..SelectCore::default()
                })
            })
            .collect();
        let run = |mode: EvalMode| {
            let mut db = Database::new(dialect);
            db.set_eval_mode(mode);
            for s in &stmts {
                db.execute(s).unwrap();
            }
            let outcomes: Vec<(String, u64)> = queries
                .iter()
                .map(|q| (format!("{:?}", db.query(q)), db.fuel_used()))
                .collect();
            (outcomes, db.coverage().hit_points())
        };
        let (vec, row) = (run(EvalMode::Vectorized), run(EvalMode::RowAtATime));
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(&vec.0[i], &row.0[i], "eval modes disagree on {}", q);
        }
        prop_assert_eq!(vec.1, row.1, "coverage bitsets diverge");
    }

    #[test]
    fn codd_metamorphic_relation_holds_on_clean_engine(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dialect = Dialect::ALL[(seed % 5) as usize];
        let (stmts, schema) = generate_state(&mut rng, dialect, &GenConfig::default());
        let mut db = Database::new(dialect);
        for s in &stmts {
            db.execute(s).unwrap();
        }
        let mut oracle = coddtest::codd::CoddTest::default();
        let mut session = Session::new(&mut db);
        for _ in 0..4 {
            let outcome = oracle.run_one(&mut session, &schema, &mut rng);
            if let TestOutcome::Bug(report) = outcome {
                prop_assert!(false, "false alarm on clean {dialect}:\n{}", report.to_display());
            }
        }
    }

    #[test]
    fn like_matcher_agrees_with_reference(
        text in "[abAB%_]{0,6}",
        pattern in "[ab%_]{0,6}",
    ) {
        fn reference(t: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => t.is_empty(),
                Some(('%', rest)) => {
                    (0..=t.len()).any(|k| reference(&t[k..], rest))
                }
                Some(('_', rest)) => {
                    !t.is_empty() && reference(&t[1..], rest)
                }
                Some((c, rest)) => {
                    t.first() == Some(c) && reference(&t[1..], rest)
                }
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        prop_assert_eq!(
            like_match(&text, &pattern, false),
            reference(&t, &p),
            "LIKE mismatch for {:?} ~ {:?}", text, pattern
        );
    }

    #[test]
    fn column_type_inference_accepts_any_row(rows in prop::collection::vec(
        prop::collection::vec(arb_value(), 3), 1..6))
    {
        let rel = Relation::from_rows(vec!["a".into(), "b".into(), "c".into()], rows);
        let types = rel.column_types();
        prop_assert_eq!(types.len(), 3);
        // Every non-null value must be storable in the inferred type.
        for row in &rel.rows {
            for (v, ty) in row.iter().zip(types.iter()) {
                if !v.is_null() && *ty != DataType::Any {
                    prop_assert!(
                        ty.accepts(v.data_type()),
                        "{ty:?} cannot store {v:?}"
                    );
                }
            }
        }
    }
}
