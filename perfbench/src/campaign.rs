//! The `campaign` and `hunt` workloads.
//!
//! Both drive the campaign loop from outside, through the runner's public
//! reproduction contract: state `i` comes from `generate_state` seeded by
//! `runner::state_seed`, test `j` from `runner::test_seed`, and each test
//! is one `Oracle::run_one` call on a `Session`. The loop mirrors
//! `runner::run_state` (panic isolation, query tallies, plan set, coverage
//! merge), so its counters must equal `run_campaign`'s at the same
//! configuration; round 0 of every run checks that. `hunt` attributes the
//! same way, one `rerun_test` per (finding, mutant). Driving the loop here
//! is what lets the benchmark time each test and put spans around each
//! layer without touching the runner.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use coddb::bugs::{BugId, BugRegistry};
use coddb::coverage::Coverage;
use coddb::{Database, Dialect, Severity};
use coddtest::runner::{
    rerun_test, run_campaign, state_seed, test_seed, CampaignConfig, CampaignResult, Finding,
};
use coddtest::{make_oracle, BugReport, ReportKind, Session, TestOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen::state::generate_state;

use crate::trace::Tracer;
use crate::{mix, Round};

/// The Table 3 oracles the `campaign` workload rotates through.
pub const ORACLES: [&str; 5] = ["codd", "norec", "tlp", "dqe", "eet"];
/// Span names of the oracles, in [`ORACLES`] order.
const ORACLE_SPANS: [&str; 5] = [
    "oracle.codd",
    "oracle.norec",
    "oracle.tlp",
    "oracle.dqe",
    "oracle.eet",
];
/// Tests per oracle in one `campaign` round.
const CAMPAIGN_TESTS: u64 = 1000;
/// Tests per dialect in one `hunt` round.
const HUNT_TESTS: u64 = 300;
/// Warm-up size (tests per oracle or dialect) of one set-up.
const WARMUP_TESTS: u64 = 100;

fn oracle_index(name: &str) -> usize {
    ORACLES
        .iter()
        .position(|&o| o == name)
        .expect("a Table 3 oracle")
}

/// One campaign, driven test by test. Returns the result `run_campaign`
/// would return (all counters, findings with coordinates, plans,
/// coverage), and adds per-test latencies and per-layer counts to `round`.
fn drive(
    oracle_name: &str,
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    round: &mut Round,
) -> CampaignResult {
    let oi = oracle_index(oracle_name);
    let span_name = ORACLE_SPANS[oi];
    let mut oracle = make_oracle(oracle_name).expect("known oracle");
    let mut result = CampaignResult {
        oracle: oracle.name().to_string(),
        ..CampaignResult::default()
    };
    let mut plans: BTreeSet<u64> = BTreeSet::new();
    let coverage = Coverage::new();
    let (mut gen_calls, mut setup_stmts, mut fuel, mut memo_hits, mut memo_misses) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut oracle_fuel, mut useful) = (0u64, 0u64);

    let mut state_idx = 0u64;
    let mut consecutive_setup_failures = 0u64;
    'states: while result.tests_run < cfg.tests {
        let max_tests = cfg.tests_per_state.max(1).min(cfg.tests - result.tests_run);
        // State-level spans carry the request id of the state's first test.
        let req = round.next_req + 1;
        let s = tr.begin("sqlgen.generate_state", req);
        let mut srng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx));
        let (stmts, schema) = generate_state(&mut srng, cfg.dialect, &cfg.gen);
        tr.end(s);
        gen_calls += 1;

        let mut db = Database::with_bugs(cfg.dialect, cfg.bugs.clone());
        let s = tr.begin("runner.apply_state", req);
        let mut setup_err = None;
        for stmt in &stmts {
            setup_stmts += 1;
            if let Err(e) = db.execute(stmt) {
                setup_err = Some(e);
                break;
            }
        }
        tr.end(s);
        if let Some(e) = setup_err {
            result.setup_failures += 1;
            if e.severity() == Severity::Expected {
                result.unsuccessful_queries += 1;
            }
            fuel += db.fuel_used();
            coverage.merge_words(&db.coverage().snapshot());
            consecutive_setup_failures += 1;
            if consecutive_setup_failures >= cfg.max_setup_retries.max(1) {
                result.findings.push(finding(
                    BugReport {
                        oracle: "campaign",
                        kind: ReportKind::InternalError,
                        queries: Vec::new(),
                        detail: "state setup kept failing".into(),
                    },
                    state_idx,
                    0,
                ));
                break 'states;
            }
            state_idx += 1;
            continue;
        }
        consecutive_setup_failures = 0;

        let mut session = Session::new(&mut db);
        for test_idx in 0..max_tests {
            let queries_before = session.queries_issued();
            let fuel_before = session.db.fuel_used();
            let (hits_before, misses_before) = session.db.subquery_memo_stats();
            let mut trng = StdRng::seed_from_u64(test_seed(cfg.seed, state_idx, test_idx));
            round.next_req += 1;
            let t0 = Instant::now();
            let s = tr.begin(span_name, round.next_req);
            let run = catch_unwind(AssertUnwindSafe(|| {
                oracle.run_one(&mut session, &schema, &mut trng)
            }));
            tr.end(s);
            round.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let (hits_after, misses_after) = session.db.subquery_memo_stats();
            memo_hits += hits_after - hits_before;
            memo_misses += misses_after - misses_before;
            oracle_fuel += session.db.fuel_used() - fuel_before;
            let test_queries = session.queries_issued() - queries_before;
            result.tests_run += 1;
            match run {
                Ok(TestOutcome::Pass) => {
                    useful += 1;
                    result.passed += 1;
                    result.passed_queries += test_queries;
                }
                Ok(TestOutcome::Skipped(_)) => {
                    result.skipped += 1;
                    result.skipped_queries += test_queries;
                }
                Ok(TestOutcome::Bug(report)) => {
                    useful += 1;
                    result.finding_queries += test_queries;
                    result.findings.push(finding(report, state_idx, test_idx));
                }
                Err(_) => {
                    useful += 1;
                    result.finding_queries += test_queries;
                    result.findings.push(finding(
                        BugReport {
                            oracle: oracle.name(),
                            kind: ReportKind::Crash,
                            queries: Vec::new(),
                            detail: "oracle panicked".into(),
                        },
                        state_idx,
                        test_idx,
                    ));
                    // The unwound engine may hold a half-applied statement.
                    break;
                }
            }
        }
        result.successful_queries += session.ok_queries;
        result.unsuccessful_queries += session.err_queries;
        plans.extend(session.plans.iter().copied());
        fuel += db.fuel_used();
        coverage.merge_words(&db.coverage().snapshot());
        state_idx += 1;
    }
    result.unique_plans = plans.len();
    result.coverage_percent = coverage.percent();

    let o = oracle_name;
    round.count("sqlgen.generate_state.calls", gen_calls as f64);
    round.count("runner.apply_state.stmts", setup_stmts as f64);
    round.count(&format!("oracle.{o}.tests"), result.tests_run as f64);
    round.count(
        &format!("oracle.{o}.queries"),
        (result.successful_queries + result.unsuccessful_queries) as f64,
    );
    round.count(&format!("oracle.{o}.fuel"), oracle_fuel as f64);
    round.count(&format!("oracle.{o}.useful"), useful as f64);
    round.count("coddb.exec.fuel", fuel as f64);
    round.count("coddb.exec.memo_hits", memo_hits as f64);
    round.count("coddb.exec.memo_misses", memo_misses as f64);
    result
}

fn finding(report: BugReport, state_idx: u64, test_idx: u64) -> Finding {
    Finding {
        report,
        state_idx,
        test_idx,
        attributed: Vec::new(),
        attributed_recovery: Vec::new(),
        attributed_index: Vec::new(),
        attributed_media: Vec::new(),
    }
}

fn campaign_cfg(seed: u64, oracle: usize, tests: u64) -> CampaignConfig {
    CampaignConfig {
        tests,
        seed: mix(seed, oracle as u64),
        ..CampaignConfig::new(Dialect::Sqlite)
    }
}

fn hunt_cfg(seed: u64, dialect: Dialect, tests: u64) -> CampaignConfig {
    CampaignConfig {
        bugs: BugRegistry::all_for_dialect(dialect),
        tests,
        seed: mix(seed, dialect as u64),
        ..CampaignConfig::new(dialect)
    }
}

/// The counters `run_campaign` and the driven loop must agree on.
fn counters(r: &CampaignResult) -> [u64; 8] {
    [
        r.tests_run,
        r.passed,
        r.skipped,
        r.findings.len() as u64,
        r.successful_queries,
        r.unsuccessful_queries,
        r.unique_plans as u64,
        r.setup_failures,
    ]
}

/// One `campaign` round: every Table 3 oracle for [`CAMPAIGN_TESTS`]
/// tests on the clean SQLite profile. With `check`, also replays each
/// campaign through `run_campaign` (outside the timed region) and compares
/// the counters.
pub fn campaign_round(seed: u64, check: bool, tr: &mut Tracer) -> Round {
    let mut round = Round::default();
    let root = tr.begin("round", 0);
    let start = Instant::now();
    let mut results = Vec::new();
    for (oi, name) in ORACLES.iter().enumerate() {
        let cfg = campaign_cfg(seed, oi, CAMPAIGN_TESTS);
        let r = drive(name, &cfg, tr, &mut round);
        results.push((cfg, r));
    }
    round.wall_s = start.elapsed().as_secs_f64();
    tr.end(root);
    round.query_s = round.wall_s;
    for (cfg, r) in &results {
        round.tests += r.tests_run;
        round.queries += r.successful_queries + r.unsuccessful_queries;
        round.attempted += r.tests_run;
        // A panic is a failed operation. Any other finding on the clean
        // engine is the program's own verdict that the engine returned a
        // wrong result: a real defect, reported with its reproduction, and
        // `run_campaign` must reproduce it exactly (the check below).
        for f in &r.findings {
            let at = format!(
                "{} finding on the clean engine at state {} test {} (campaign seed {:#x}): {}",
                r.oracle,
                f.state_idx,
                f.test_idx,
                cfg.seed,
                f.report.to_display()
            );
            if f.report.kind == ReportKind::Crash {
                round.failed += 1;
                round.errors.push(at);
            } else {
                round.defects.push(at);
            }
        }
        if check {
            let mut oracle = make_oracle(&r.oracle).expect("known oracle");
            let reference = run_campaign(oracle.as_mut(), cfg);
            if counters(&reference) != counters(r) {
                round.errors.push(format!(
                    "{}: driven loop {:?} != run_campaign {:?}",
                    r.oracle,
                    counters(r),
                    counters(&reference)
                ));
            }
        }
    }
    round.spans = tr.take();
    round
}

/// Re-run every `(finding, mutant)` pair the way `attribute_bugs` does,
/// one `rerun_test` call per pair, with a span around each call. The
/// `hunt` registries enable engine mutants only, so this makes the same
/// calls in the same order as `attribute_bugs`.
fn attribute_traced(
    result: &mut CampaignResult,
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    round: &mut Round,
) {
    let enabled: Vec<BugId> = cfg.bugs.enabled().collect();
    let (mut reruns, mut hits) = (0u64, 0u64);
    for f in result.findings.iter_mut() {
        for &bug in &enabled {
            round.next_req += 1;
            let t0 = Instant::now();
            let s = tr.begin("runner.attribute", round.next_req);
            let hit = rerun_test(
                "codd",
                cfg,
                f.state_idx,
                f.test_idx,
                &BugRegistry::only(bug),
            );
            tr.end(s);
            round.sample("rerun_us", t0.elapsed().as_secs_f64() * 1e6);
            reruns += 1;
            if hit {
                hits += 1;
                f.attributed.push(bug);
            }
        }
    }
    round.count("runner.attribute.reruns", reruns as f64);
    round.count("runner.attribute.hits", hits as f64);
}

/// The campaign's mutants, less every one that `f` still reproduces
/// without, dropped one at a time: a set from which no single mutant can
/// be dropped.
fn minimal_mutants(cfg: &CampaignConfig, f: &Finding) -> Vec<BugId> {
    let mut keep: Vec<BugId> = cfg.bugs.enabled().collect();
    let mut i = 0;
    while i < keep.len() {
        let mut reg = BugRegistry::none();
        for (j, &b) in keep.iter().enumerate() {
            if j != i {
                reg.enable(b);
            }
        }
        if rerun_test("codd", cfg, f.state_idx, f.test_idx, &reg) {
            keep.remove(i);
        } else {
            i += 1;
        }
    }
    keep
}

/// One `hunt` round: for each dialect, a `codd` campaign of
/// [`HUNT_TESTS`] tests with every mutant of the dialect enabled, then
/// attribution of every finding through [`attribute_traced`]. With
/// `check`, outside the timed region: each campaign is replayed through
/// `run_campaign` and must give the same counters; every finding must be
/// attributed only to mutants of its dialect; and every finding that does
/// not reproduce on the clean engine must reproduce, through `rerun_test`,
/// with the campaign's mutants. Of those, the ones no single mutant
/// reproduces are counted (`multi_mutant_findings`), and a minimal set of
/// mutants that reproduces each must hold two or more. A finding that
/// reproduces on the clean engine is reported as a defect.
pub fn hunt_round(seed: u64, check: bool, tr: &mut Tracer) -> Round {
    let mut round = Round::default();
    let root = tr.begin("round", 0);
    let start = Instant::now();
    let mut results = Vec::new();
    let mut attributed: BTreeSet<BugId> = BTreeSet::new();
    for dialect in Dialect::ALL {
        let cfg = hunt_cfg(seed, dialect, HUNT_TESTS);
        let t0 = Instant::now();
        let mut r = drive("codd", &cfg, tr, &mut round);
        round.query_s += t0.elapsed().as_secs_f64();
        attribute_traced(&mut r, &cfg, tr, &mut round);
        attributed.extend(r.unique_attributed_bugs());
        results.push((cfg, r));
    }
    round.wall_s = start.elapsed().as_secs_f64();
    tr.end(root);
    let spans = tr.take();
    round.sample("bugs", attributed.len() as f64);

    for (cfg, r) in &results {
        round.tests += r.tests_run;
        round.queries += r.successful_queries + r.unsuccessful_queries;
        round.attempted += r.findings.len() as u64;
        if !check {
            continue;
        }
        let mut oracle = make_oracle("codd").expect("known oracle");
        let reference = run_campaign(oracle.as_mut(), cfg);
        if counters(&reference) != counters(r) {
            round.errors.push(format!(
                "{}: driven loop {:?} != run_campaign {:?}",
                cfg.dialect,
                counters(r),
                counters(&reference)
            ));
        }
        let own: BTreeSet<BugId> = BugId::for_dialect(cfg.dialect).into_iter().collect();
        for f in &r.findings {
            let at = format!(
                "{} finding at state {} test {} (campaign seed {:#x})",
                cfg.dialect, f.state_idx, f.test_idx, cfg.seed
            );
            if let Some(b) = f.attributed.iter().find(|b| !own.contains(b)) {
                round.failed += 1;
                round.errors.push(format!(
                    "{at} is attributed to {}, a mutant of another dialect",
                    b.name()
                ));
            }
            // A finding that reproduces without any mutant is an engine
            // defect, not a mutant's doing (it attributes to every mutant).
            if rerun_test("codd", cfg, f.state_idx, f.test_idx, &BugRegistry::none()) {
                round.defects.push(format!(
                    "{at} reproduces on the clean engine: {}",
                    f.report.to_display()
                ));
            } else if !rerun_test("codd", cfg, f.state_idx, f.test_idx, &cfg.bugs) {
                round.failed += 1;
                round.errors.push(format!(
                    "{at} does not reproduce with the campaign's mutants: {}",
                    f.report.to_display()
                ));
            } else if f.attributed.is_empty() {
                // No single mutant reproduces it, so a minimal reproducing
                // set must hold two or more.
                let minimal = minimal_mutants(cfg, f);
                if let [only] = minimal[..] {
                    round.failed += 1;
                    round.errors.push(format!(
                        "{at} reproduces with {} alone but is attributed to no mutant",
                        only.name()
                    ));
                }
                round.sample("multi_mutant_findings", 1.0);
            }
        }
    }
    round.spans = spans;
    round
}

/// Set-up of the campaign-shaped workloads: build the oracles and run a
/// small warm-up campaign per oracle (or dialect), so allocator pools and
/// caches are filled before the timed rounds. The `hunt` warm-up skips
/// attribution, whose cost depends on how many findings the seed yields.
/// Returns its wall time.
pub fn setup(seed: u64, hunt: bool) -> f64 {
    let start = Instant::now();
    let mut round = Round::default();
    let mut tr = Tracer::new(false);
    if hunt {
        for dialect in Dialect::ALL {
            drive(
                "codd",
                &hunt_cfg(seed, dialect, WARMUP_TESTS),
                &mut tr,
                &mut round,
            );
        }
    } else {
        for (oi, name) in ORACLES.iter().enumerate() {
            drive(
                name,
                &campaign_cfg(seed, oi, WARMUP_TESTS),
                &mut tr,
                &mut round,
            );
        }
    }
    start.elapsed().as_secs_f64()
}

/// Per-oracle useful ratio: (passed + bug) tests per test.
pub fn useful_ratios(counts: &BTreeMap<String, f64>) -> Vec<(String, f64)> {
    ORACLES
        .iter()
        .map(|o| {
            let tests = counts
                .get(&format!("oracle.{o}.tests"))
                .copied()
                .unwrap_or(0.0);
            let useful = counts
                .get(&format!("oracle.{o}.useful"))
                .copied()
                .unwrap_or(0.0);
            let ratio = if tests > 0.0 { useful / tests } else { 0.0 };
            (format!("oracle.{o}.useful_ratio"), ratio)
        })
        .collect()
}
