//! Differential suite for the runner's test-independence contract: a
//! test's outcome depends only on the applied state, its `test_seed` and
//! the mutant set. `rerun_test` relies on it to reproduce a coordinate by
//! running that one test on a freshly applied state, so here it must agree
//! with the same test run in campaign order — after every earlier test of
//! its state, on the same session — for every oracle, on every dialect,
//! with and without mutants, and for every attribution replay. The grid
//! also compares each test's full outcome and fuel, so an oracle that
//! leaks data into later tests fails it even when no verdict flips.
//!
//! `rerun_test` also skips replays by the consult rule: a run depends on
//! the mutant set only through the mutants it asks about. The suite checks
//! the rule itself on every oracle, and checks that the memo built on it
//! answers like the full-prefix replay in any visiting order.

use std::ops::Range;

use coddb::bugs::{take_consulted, BugId, BugRegistry, IndexBugId, MediaBugId, RecoveryBugId};
use coddb::{Database, Dialect};
use coddtest::runner::{rerun_test, run_campaign, state_seed, test_seed, CampaignConfig};
use coddtest::{make_oracle, Session, TestOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen::state::generate_state;

/// Every name `make_oracle` knows except `panic-probe`, which never
/// touches the session.
const ORACLES: &[&str] = &[
    "codd",
    "codd-expression",
    "codd-subquery",
    "norec",
    "tlp",
    "dqe",
    "eet",
    "recover",
    "verify",
];

/// Apply state `state_idx` under `bugs` to a fresh database, then run the
/// tests `test_idxs` in order on one session, as a campaign does. Returns
/// each test's outcome with the fuel it spent, or `None` when the state's
/// setup fails. Fuel is charged per row, so equal fuel means the test saw
/// the same data.
fn run_tests(
    oracle_name: &str,
    cfg: &CampaignConfig,
    bugs: &BugRegistry,
    state_idx: u64,
    test_idxs: Range<u64>,
) -> Option<Vec<(TestOutcome, u64)>> {
    let mut oracle = make_oracle(oracle_name).unwrap();
    let mut srng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx));
    let (stmts, schema) = generate_state(&mut srng, cfg.dialect, &cfg.gen);
    let mut db = Database::with_bugs(cfg.dialect, bugs.clone());
    for s in &stmts {
        db.execute(s).ok()?;
    }
    let mut session = Session::new(&mut db);
    let outcomes = test_idxs
        .map(|t| {
            let mut trng = StdRng::seed_from_u64(test_seed(cfg.seed, state_idx, t));
            let fuel = session.db.fuel_used();
            let outcome = oracle.run_one(&mut session, &schema, &mut trng);
            (outcome, session.db.fuel_used() - fuel)
        })
        .collect();
    Some(outcomes)
}

/// The reference replay attribution used before test independence was
/// written down: apply the state, run every test of it up to and
/// including the target, and report the target's verdict.
fn full_prefix_replay(
    oracle_name: &str,
    cfg: &CampaignConfig,
    bugs: &BugRegistry,
    state_idx: u64,
    test_idx: u64,
) -> bool {
    match run_tests(oracle_name, cfg, bugs, state_idx, 0..test_idx + 1) {
        Some(outcomes) => outcomes[test_idx as usize].0.is_bug(),
        None => true,
    }
}

/// Every test of the first `states` states, run in campaign order, gives
/// the same outcome and spends the same fuel as when run alone on the
/// freshly applied state, and `rerun_test` reports its verdict. Returns
/// how many of the tests were bugs.
fn assert_outcomes_match(
    oracle_name: &str,
    cfg: &CampaignConfig,
    states: u64,
    tests: u64,
) -> usize {
    let mut bugs = 0;
    for state_idx in 0..states {
        let label = format!("{oracle_name} {:?} state {state_idx}", cfg.dialect);
        let Some(in_order) = run_tests(oracle_name, cfg, &cfg.bugs, state_idx, 0..tests) else {
            assert!(
                rerun_test(oracle_name, cfg, state_idx, 0, &cfg.bugs),
                "{label}: a failing setup reproduces"
            );
            continue;
        };
        for (test_idx, (outcome, fuel)) in (0u64..).zip(&in_order) {
            let alone = run_tests(
                oracle_name,
                cfg,
                &cfg.bugs,
                state_idx,
                test_idx..test_idx + 1,
            );
            let (alone_outcome, alone_fuel) = &alone.expect("setup succeeded above")[0];
            assert_eq!(
                (format!("{alone_outcome:?}"), alone_fuel),
                (format!("{outcome:?}"), fuel),
                "{label} test {test_idx}: alone vs in campaign order"
            );
            assert_eq!(
                rerun_test(oracle_name, cfg, state_idx, test_idx, &cfg.bugs),
                outcome.is_bug(),
                "{label} test {test_idx}: rerun_test vs {outcome:?}"
            );
            bugs += usize::from(outcome.is_bug());
        }
    }
    bugs
}

#[test]
fn every_oracle_reruns_like_campaign_order_on_every_dialect() {
    let mut bugs = 0;
    for dialect in Dialect::ALL {
        for registry in [BugRegistry::none(), BugRegistry::all_for_dialect(dialect)] {
            let cfg = CampaignConfig {
                bugs: registry,
                ..CampaignConfig::new(dialect)
            };
            for &oracle in ORACLES {
                let (states, tests) = if oracle == "recover" { (1, 4) } else { (2, 10) };
                bugs += assert_outcomes_match(oracle, &cfg, states, tests);
            }
        }
    }
    assert!(bugs > 0, "the grid must hold bug outcomes, not only passes");
}

/// For every `(finding, single-mutant registry)` pair of a campaign,
/// `rerun_test` equals the full-prefix replay; returns how many pairs
/// reproduced.
fn assert_attribution_matches(
    oracle_name: &str,
    cfg: &CampaignConfig,
    registries: &[BugRegistry],
) -> usize {
    let mut oracle = make_oracle(oracle_name).unwrap();
    let result = run_campaign(oracle.as_mut(), cfg);
    let mut hits = 0;
    for f in &result.findings {
        for bugs in registries {
            let (s, t) = (f.state_idx, f.test_idx);
            let reference = full_prefix_replay(oracle_name, cfg, bugs, s, t);
            assert_eq!(
                rerun_test(oracle_name, cfg, s, t, bugs),
                reference,
                "{oracle_name} {:?} state {s} test {t} under {bugs:?}",
                cfg.dialect
            );
            hits += usize::from(reference);
        }
    }
    hits
}

/// The Table 1 pipeline: a `codd` campaign with every mutant of the
/// dialect, each finding replayed under each mutant alone.
#[test]
fn engine_mutant_attribution_matches_full_prefix_replay() {
    let mut hits = 0;
    for dialect in Dialect::ALL {
        let cfg = CampaignConfig {
            bugs: BugRegistry::all_for_dialect(dialect),
            tests: 150,
            ..CampaignConfig::new(dialect)
        };
        let singles: Vec<BugRegistry> =
            cfg.bugs.enabled::<BugId>().map(BugRegistry::only).collect();
        hits += assert_attribution_matches("codd", &cfg, &singles);
    }
    assert!(hits > 0, "no finding attributed to any mutant");
}

/// Attribution replays the index-path and recovery-path mutant families
/// through the same `rerun_test`.
#[test]
fn index_and_recovery_attribution_match_full_prefix_replay() {
    let bugs = BugRegistry::only(IndexBugId::PrefixSeekIgnoresResidual);
    let cfg = CampaignConfig {
        bugs: bugs.clone(),
        tests: 300,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    assert!(assert_attribution_matches("codd", &cfg, &[bugs]) > 0);

    let bugs = BugRegistry::only(RecoveryBugId::DropLastCommit);
    let cfg = CampaignConfig {
        bugs: bugs.clone(),
        tests: 40,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    assert!(assert_attribution_matches("recover", &cfg, &[bugs]) > 0);
}

/// Apply state `state_idx` under `bugs` and run test `test_idx` alone.
/// Returns the outcome (or the setup error), the fuel and coverage words
/// of the whole run, setup included, and the mutants it consulted.
fn consult_probe(
    oracle_name: &str,
    cfg: &CampaignConfig,
    bugs: &BugRegistry,
    state_idx: u64,
    test_idx: u64,
) -> ((String, u64, Vec<u64>), BugRegistry) {
    take_consulted();
    let mut oracle = make_oracle(oracle_name).unwrap();
    let mut srng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx));
    let (stmts, schema) = generate_state(&mut srng, cfg.dialect, &cfg.gen);
    let mut db = Database::with_bugs(cfg.dialect, bugs.clone());
    let outcome = match stmts.iter().try_for_each(|s| db.execute(s).map(drop)) {
        Err(e) => format!("setup failed: {e:?}"),
        Ok(()) => {
            let mut session = Session::new(&mut db);
            let mut trng = StdRng::seed_from_u64(test_seed(cfg.seed, state_idx, test_idx));
            format!("{:?}", oracle.run_one(&mut session, &schema, &mut trng))
        }
    };
    let run = (outcome, db.fuel_used(), db.coverage().snapshot());
    (run, take_consulted())
}

/// The consult rule: every mutant of the four registries that a clean
/// run never asked about leaves that run unchanged when enabled alone —
/// the same outcome, fuel and coverage words — for every oracle on every
/// dialect.
#[test]
fn unconsulted_mutants_leave_the_clean_run_unchanged() {
    let singles: Vec<BugRegistry> = BugId::ALL
        .map(BugRegistry::only)
        .into_iter()
        .chain(RecoveryBugId::ALL.map(BugRegistry::only))
        .chain(IndexBugId::ALL.map(BugRegistry::only))
        .chain(MediaBugId::ALL.map(BugRegistry::only))
        .collect();
    let (mut compared, mut consulted_total) = (0, 0);
    for dialect in Dialect::ALL {
        let cfg = CampaignConfig::new(dialect);
        for (i, &oracle) in (0u64..).zip(ORACLES) {
            // Different states and tests per oracle, for more shapes.
            for (state_idx, test_idx) in (0..3).map(|k| ((i + k) % 4, i + k)) {
                let (clean, consulted) =
                    consult_probe(oracle, &cfg, &BugRegistry::none(), state_idx, test_idx);
                for bugs in &singles {
                    if bugs.shares_mutant_with(&consulted) {
                        consulted_total += 1;
                        continue;
                    }
                    let (run, _) = consult_probe(oracle, &cfg, bugs, state_idx, test_idx);
                    assert_eq!(
                        run, clean,
                        "{oracle} {dialect:?} state {state_idx} test {test_idx}: \
                         {bugs:?} was never consulted but changed the run"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared > 5000,
        "only {compared} unconsulted mutants compared"
    );
    assert!(consulted_total > 0, "no clean run consulted any mutant");
}

/// `rerun_test` answers like the full-prefix replay whatever order a
/// finding's registries come in: its mutants in reverse, interleaved with
/// the clean and the full registry, and on a fresh thread whose memo is
/// cold.
#[test]
fn memoized_reruns_match_full_prefix_replay_in_any_order() {
    let mut checked = 0;
    for dialect in Dialect::ALL {
        let cfg = CampaignConfig {
            bugs: BugRegistry::all_for_dialect(dialect),
            tests: 60,
            ..CampaignConfig::new(dialect)
        };
        let mut oracle = make_oracle("codd").unwrap();
        let result = run_campaign(oracle.as_mut(), &cfg);
        let none = BugRegistry::none();
        let singles: Vec<BugRegistry> =
            cfg.bugs.enabled::<BugId>().map(BugRegistry::only).collect();
        for f in result.findings.iter().take(2) {
            let (s, t) = (f.state_idx, f.test_idx);
            let expect = |bugs: &BugRegistry| full_prefix_replay("codd", &cfg, bugs, s, t);
            let (clean, full) = (expect(&none), expect(&cfg.bugs));
            let single_refs: Vec<bool> = singles.iter().map(expect).collect();
            let label = format!("codd {dialect:?} state {s} test {t}");

            for (bugs, &reference) in singles.iter().zip(&single_refs).rev() {
                let got = rerun_test("codd", &cfg, s, t, bugs);
                assert_eq!(got, reference, "{label}, reverse order, {bugs:?}");
            }
            for (i, (bugs, &reference)) in singles.iter().zip(&single_refs).enumerate() {
                let (other, other_ref) = if i % 2 == 0 {
                    (&none, clean)
                } else {
                    (&cfg.bugs, full)
                };
                assert_eq!(
                    rerun_test("codd", &cfg, s, t, other),
                    other_ref,
                    "{label}, interleaved, {other:?}"
                );
                let got = rerun_test("codd", &cfg, s, t, bugs);
                assert_eq!(got, reference, "{label}, interleaved, {bugs:?}");
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for (bugs, &reference) in singles.iter().zip(&single_refs) {
                        let got = rerun_test("codd", &cfg, s, t, bugs);
                        assert_eq!(got, reference, "{label}, cold memo, {bugs:?}");
                    }
                });
            });
            checked += 1;
        }
    }
    assert!(checked >= 5, "only {checked} findings checked");
}
