//! Deterministic test campaigns and metrics.
//!
//! A campaign runs an oracle for a fixed *test budget* against freshly
//! generated database states (a scaled-down, reproducible stand-in for the
//! paper's 24-hour wall-clock runs). It records the Table 3 metrics —
//! number of tests, successful and unsuccessful queries, queries per test
//! (QPT), unique query plans and branch coverage — plus every bug report.
//!
//! # Reproduction contract
//!
//! Campaigns are fully deterministic: state `i` is generated from seed
//! [`state_seed`]`(campaign_seed, i)` and test `j` within it from
//! [`test_seed`]`(campaign_seed, i, j)`. These two functions are a **stable
//! contract**: a `(campaign_seed, state_idx, test_idx)` coordinate printed
//! by any harness re-derives the exact same database state and test in any
//! later build, so any single test can be *re-run* under a different mutant
//! configuration. [`attribute_bugs`] uses this to map each finding back to
//! the injected [`BugId`] that caused it — the Table 1 accounting.
//!
//! Tests are **independent**: a test's outcome depends only on the applied
//! state, its `test_seed` and the mutant set, never on the tests that ran
//! before it on the same session (the [`Oracle`] contract). So
//! [`rerun_test`] reproduces any coordinate by running that test alone.
//!
//! A test depends on the mutant set only through the mutants its run
//! *consults*: the engine asks whether a mutant is on before acting on it,
//! and every such read records the mutant (see [`BugRegistry`]). A run
//! under a registry none of whose mutants the clean run consulted is
//! therefore the clean run, step for step. [`rerun_test`] keeps the last
//! clean run of each thread — its coordinates, verdict and consulted
//! mutants — and answers from it without replaying whenever the requested
//! registry shares no mutant with that consulted set. Attributing a
//! finding replays it only under the mutants its clean run asked about.
//!
//! # Shard/merge determinism scheme
//!
//! Per-state work is isolated in `run_state`: it builds the state's
//! `Database`, runs the oracle's tests against it, and returns a
//! [`StateShard`] — a plain-data (`Send`) summary of everything the state
//! contributed: test outcomes, findings with their test coordinates,
//! per-outcome query tallies, plan fingerprints, and the state's coverage
//! bitset words (via [`coddb::coverage::Coverage::snapshot`]). Nothing in
//! the engine itself is `Send` (`Row` is `Rc`-shared, `Coverage` is
//! `Cell`-based), so the shard is the only thing that crosses threads.
//!
//! Both runners fold shards into the [`CampaignResult`] through the single
//! `merge_shard` accumulation point, **in ascending `state_idx` order**:
//!
//! * [`run_campaign`] computes each shard in order with the exact
//!   remaining test budget and merges it immediately.
//! * [`run_campaign_parallel`] fans state indices out to
//!   `std::thread::scope` workers (each constructs its own
//!   `Database`/`Session`/oracle locally), then merges the returned shards
//!   in ascending order. A worker's shard may cover more tests than the
//!   sequential runner would have granted that state (workers don't know
//!   how many earlier states failed setup); the merge detects such
//!   boundary states — and any shard a cancelled worker abandoned — and
//!   recomputes them inline with the exact remaining budget. Because state
//!   execution is seed-deterministic and `merge_shard` is shared, the
//!   merged result (findings order, plan set, coverage bitset, every
//!   counter) is byte-identical to the sequential runner at any thread
//!   count; only `elapsed` is wall-clock.
//!
//! With `stop_on_first_bug`, the earliest `(state_idx, test_idx)`
//! stop-matching finding wins: workers publish the lowest stopping state
//! index through a shared atomic high-water mark, workers past it cancel,
//! and the ascending merge stops at exactly the finding the sequential
//! runner would have stopped at.
//!
//! # Table 3 accounting
//!
//! `successful_queries`/`unsuccessful_queries` count every query issued
//! through the state's [`Session`] (plus setup statements that fail with an
//! *expected* error when a mutant breaks state generation — their coverage
//! and error tallies are merged before the state is regenerated, so mutant
//! campaigns don't under-report the statements actually executed). QPT —
//! [`CampaignResult::qpt`] — divides only the queries issued by *completed*
//! tests (outcome `Pass` or `Bug`) by the number of completed tests;
//! queries issued by `Skipped` tests and by state setup are excluded from
//! both numerator and denominator.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use coddb::bugs::{
    take_consulted, BugId, BugKind, BugRegistry, IndexBugId, MediaBugId, RecoveryBugId,
};
use coddb::coverage::Coverage;
use coddb::{Database, Dialect, Severity};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen::state::generate_state;
use sqlgen::GenConfig;

use crate::{make_oracle, BugReport, Oracle, ReportKind, Session, TestOutcome};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub dialect: Dialect,
    pub bugs: BugRegistry,
    pub gen: GenConfig,
    /// Total number of tests to run.
    pub tests: u64,
    /// Tests per generated database state (the paper loops steps ②-⑤ to
    /// "thoroughly test the generated database state"). Clamped to at
    /// least 1 — a zero here would otherwise generate states forever
    /// without ever spending the test budget.
    pub tests_per_state: u64,
    pub seed: u64,
    /// Stop at the first bug (used by detection-probe harnesses).
    pub stop_on_first_bug: bool,
    /// When set together with `stop_on_first_bug`, only findings whose
    /// report kind matches this mutant category end the campaign; findings
    /// of other kinds are still recorded but the budget keeps being spent.
    /// [`detects_bug`] uses this so a crash-first symptom cannot mask a
    /// logic mutant by halting the campaign on a non-matching finding.
    pub stop_kind: Option<BugKind>,
    /// Cap on *consecutive* setup failures before the campaign gives up on
    /// generating further states. Without it, a mutant configuration that
    /// breaks every generated setup would spin forever: failed states
    /// consume no test budget, so the campaign loop never terminates.
    /// Hitting the cap records a synthetic internal-error finding (with
    /// the failing state range) and ends the run. Clamped to at least 1.
    pub max_setup_retries: u64,
}

impl CampaignConfig {
    pub fn new(dialect: Dialect) -> Self {
        CampaignConfig {
            dialect,
            bugs: BugRegistry::none(),
            gen: GenConfig::default(),
            tests: 1000,
            tests_per_state: 20,
            seed: 0xC0DD,
            stop_on_first_bug: false,
            stop_kind: None,
            max_setup_retries: 64,
        }
    }
}

/// A bug found during a campaign, with its reproduction coordinates.
#[derive(Debug, Clone)]
pub struct Finding {
    pub report: BugReport,
    pub state_idx: u64,
    pub test_idx: u64,
    /// Injected mutants that reproduce this finding (filled by
    /// [`attribute_bugs`]).
    pub attributed: Vec<BugId>,
    /// Injected recovery-path mutants that reproduce this finding (filled
    /// by [`attribute_bugs`]; the recovery scheme is separate from the
    /// Table 1 scheme, so attributions are too).
    pub attributed_recovery: Vec<RecoveryBugId>,
    /// Injected index-path mutants that reproduce this finding (filled by
    /// [`attribute_bugs`]; the ordered-index scheme is a third mutant
    /// family with its own list for the same reason).
    pub attributed_index: Vec<IndexBugId>,
    /// Injected media-fault mutants that reproduce this finding (filled by
    /// [`attribute_bugs`]; the media scheme is a fourth mutant family with
    /// its own list for the same reason).
    pub attributed_media: Vec<MediaBugId>,
}

/// Aggregated campaign results (one row of Table 3).
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    pub oracle: String,
    pub tests_run: u64,
    pub passed: u64,
    pub skipped: u64,
    pub findings: Vec<Finding>,
    pub successful_queries: u64,
    pub unsuccessful_queries: u64,
    /// Queries (successful + unsuccessful) issued by tests that passed.
    pub passed_queries: u64,
    /// Queries issued by tests that were skipped — excluded from
    /// [`CampaignResult::qpt`], whose denominator also excludes them.
    pub skipped_queries: u64,
    /// Queries issued by tests that produced a finding.
    pub finding_queries: u64,
    /// States whose setup failed under an injected mutant and were
    /// regenerated (their coverage and expected-error tallies still count).
    pub setup_failures: u64,
    pub unique_plans: usize,
    pub coverage_percent: f64,
    pub elapsed: Duration,
}

impl CampaignResult {
    /// Queries per completed test (Table 3's QPT).
    ///
    /// The numerator counts only queries issued by tests that ran to a
    /// verdict (`Pass` or `Bug`); the denominator counts those same tests.
    /// Queries issued by `Skipped` tests are excluded from *both* sides —
    /// a skip-heavy oracle does not get its QPT inflated by queries whose
    /// tests never completed. Queries issued while applying a generated
    /// state (including setup statements that fail under a mutant) are
    /// part of `successful_queries`/`unsuccessful_queries` but never of
    /// QPT.
    pub fn qpt(&self) -> f64 {
        let denom = (self.passed + self.findings.len() as u64).max(1);
        (self.passed_queries + self.finding_queries) as f64 / denom as f64
    }

    /// Average execution time per query, in microseconds (Figure 2).
    pub fn time_per_query_us(&self) -> f64 {
        let q = (self.successful_queries + self.unsuccessful_queries).max(1);
        self.elapsed.as_secs_f64() * 1e6 / q as f64
    }

    /// Distinct mutants attributed across all findings.
    pub fn unique_attributed_bugs(&self) -> BTreeSet<BugId> {
        self.findings
            .iter()
            .flat_map(|f| f.attributed.iter().copied())
            .collect()
    }

    fn empty(oracle: String) -> CampaignResult {
        CampaignResult {
            oracle,
            ..CampaignResult::default()
        }
    }
}

/// Seed for generating campaign state `state_idx`.
///
/// Part of the stable reproduction contract (see the module docs): the
/// mapping from `(campaign_seed, state_idx)` to the generated database
/// state must not change across versions, or recorded bug coordinates and
/// [`attribute_bugs`] re-runs stop reproducing.
pub fn state_seed(campaign_seed: u64, state_idx: u64) -> u64 {
    campaign_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(state_idx.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Seed for test `test_idx` within campaign state `state_idx`. Stable for
/// the same reason as [`state_seed`].
pub fn test_seed(campaign_seed: u64, state_idx: u64, test_idx: u64) -> u64 {
    state_seed(campaign_seed, state_idx)
        .wrapping_add(1 + test_idx.wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// Apply the generated state statements; the first failing statement (e.g.
/// an injected internal error during setup) aborts so the caller can
/// regenerate — but its error is returned so coverage/error accounting can
/// still be merged.
fn apply_state(db: &mut Database, stmts: &[coddb::ast::Statement]) -> Result<(), coddb::Error> {
    for s in stmts {
        db.execute(s)?;
    }
    Ok(())
}

/// Everything one campaign state contributed, as plain `Send` data — the
/// unit that crosses worker threads in [`run_campaign_parallel`] and the
/// unit `merge_shard` folds into the result in ascending `state_idx`
/// order (see the module docs for the determinism argument).
#[derive(Debug, Clone, Default)]
pub struct StateShard {
    pub state_idx: u64,
    /// State setup failed under a mutant; only `setup_err_queries` and
    /// `coverage_words` are meaningful.
    pub setup_failed: bool,
    /// 1 when the failing setup statement raised an *expected* error (the
    /// same classification [`Session`] applies to test queries);
    /// bug-signal setup errors are visible through coverage only.
    pub setup_err_queries: u64,
    pub tests_run: u64,
    pub passed: u64,
    pub skipped: u64,
    /// Findings with their in-state test coordinates, in test order.
    pub findings: Vec<(u64, BugReport)>,
    pub ok_queries: u64,
    pub err_queries: u64,
    pub passed_queries: u64,
    pub skipped_queries: u64,
    pub finding_queries: u64,
    /// The state session's plan fingerprints, sorted.
    pub plans: Vec<u64>,
    /// [`Coverage::snapshot`] of the state's database at the end of its
    /// tests (includes setup-statement coverage).
    pub coverage_words: Vec<u64>,
    /// The state ended early at a stop-matching finding.
    pub stopped: bool,
    /// A cancelled worker abandoned this state mid-run; the shard is
    /// incomplete and must be recomputed if the merge ever reaches it
    /// (it provably never does — see [`run_campaign_parallel`]).
    pub aborted: bool,
}

impl StateShard {
    fn new(state_idx: u64) -> StateShard {
        StateShard {
            state_idx,
            ..StateShard::default()
        }
    }
}

/// Best-effort rendering of a caught panic payload (panics carry `&str`
/// or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Does a finding of `kind` end a campaign under this configuration?
fn finding_stops(cfg: &CampaignConfig, kind: &ReportKind) -> bool {
    cfg.stop_on_first_bug
        && match cfg.stop_kind {
            None => true,
            Some(bug_kind) => kind_matches(bug_kind, kind),
        }
}

/// Run one campaign state: generate it from its [`state_seed`], apply it,
/// run up to `max_tests` oracle tests against it, and summarize everything
/// into a [`StateShard`]. `cancel` is polled between tests by parallel
/// workers; when it fires the shard comes back `aborted`.
fn run_state(
    oracle: &mut dyn Oracle,
    cfg: &CampaignConfig,
    state_idx: u64,
    max_tests: u64,
    cancel: Option<&dyn Fn() -> bool>,
) -> StateShard {
    let mut shard = StateShard::new(state_idx);
    let mut srng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx));
    let (stmts, schema) = generate_state(&mut srng, cfg.dialect, &cfg.gen);
    let mut db = Database::with_bugs(cfg.dialect, cfg.bugs.clone());
    if let Err(e) = apply_state(&mut db, &stmts) {
        // A mutant broke state setup. The statements still executed:
        // record the state's coverage and — when the failure is an
        // expected error, the class Session tallies — the error itself,
        // so mutant campaigns don't under-report what actually ran.
        shard.setup_failed = true;
        if e.severity() == Severity::Expected {
            shard.setup_err_queries = 1;
        }
        shard.coverage_words = db.coverage().snapshot();
        return shard;
    }

    let oracle_label = oracle.name();
    let mut session = Session::new(&mut db);
    for test_idx in 0..max_tests {
        if let Some(cancel) = cancel {
            if cancel() {
                shard.aborted = true;
                return shard;
            }
        }
        let queries_before = session.queries_issued();
        let mut trng = StdRng::seed_from_u64(test_seed(cfg.seed, state_idx, test_idx));
        // Panic isolation: a panicking engine or oracle bug becomes a
        // counted `Crash`-kind finding with its reproduction coordinates
        // instead of tearing down the whole campaign. Determinism holds
        // because both runners share this function: the same seed panics
        // at the same test either way.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            oracle.run_one(&mut session, &schema, &mut trng)
        }));
        let outcome = match run {
            Ok(outcome) => outcome,
            Err(payload) => {
                let test_queries = session.queries_issued() - queries_before;
                shard.tests_run += 1;
                shard.finding_queries += test_queries;
                let report = BugReport {
                    oracle: oracle_label,
                    kind: ReportKind::Crash,
                    queries: Vec::new(),
                    detail: format!(
                        "oracle panicked: {} (repro: state_seed={:#x}, test_seed={:#x})",
                        panic_message(payload.as_ref()),
                        state_seed(cfg.seed, state_idx),
                        test_seed(cfg.seed, state_idx, test_idx),
                    ),
                };
                shard.stopped = finding_stops(cfg, &report.kind);
                shard.findings.push((test_idx, report));
                // The unwound engine may hold a half-applied statement;
                // nothing further from this state is trustworthy.
                break;
            }
        };
        let test_queries = session.queries_issued() - queries_before;
        shard.tests_run += 1;
        match outcome {
            TestOutcome::Pass => {
                shard.passed += 1;
                shard.passed_queries += test_queries;
            }
            TestOutcome::Skipped(_) => {
                shard.skipped += 1;
                shard.skipped_queries += test_queries;
            }
            TestOutcome::Bug(report) => {
                shard.finding_queries += test_queries;
                let stops = finding_stops(cfg, &report.kind);
                shard.findings.push((test_idx, report));
                if stops {
                    shard.stopped = true;
                    break;
                }
            }
        }
    }
    shard.ok_queries = session.ok_queries;
    shard.err_queries = session.err_queries;
    shard.plans = session.plans.iter().copied().collect();
    shard.coverage_words = db.coverage().snapshot();
    shard
}

/// The single accumulation point both runners share: fold one state's
/// shard into the campaign result. Returns whether the campaign stops
/// here (the shard ended at a stop-matching finding).
fn merge_shard(
    result: &mut CampaignResult,
    plans: &mut BTreeSet<u64>,
    coverage: &Coverage,
    shard: StateShard,
) -> bool {
    debug_assert!(!shard.aborted, "merged an abandoned shard");
    if shard.setup_failed {
        result.setup_failures += 1;
        result.unsuccessful_queries += shard.setup_err_queries;
        coverage.merge_words(&shard.coverage_words);
        return false;
    }
    result.tests_run += shard.tests_run;
    result.passed += shard.passed;
    result.skipped += shard.skipped;
    for (test_idx, report) in shard.findings {
        result.findings.push(Finding {
            report,
            state_idx: shard.state_idx,
            test_idx,
            attributed: Vec::new(),
            attributed_recovery: Vec::new(),
            attributed_index: Vec::new(),
            attributed_media: Vec::new(),
        });
    }
    result.successful_queries += shard.ok_queries;
    result.unsuccessful_queries += shard.err_queries;
    result.passed_queries += shard.passed_queries;
    result.skipped_queries += shard.skipped_queries;
    result.finding_queries += shard.finding_queries;
    plans.extend(shard.plans.iter().copied());
    coverage.merge_words(&shard.coverage_words);
    shard.stopped
}

/// The one campaign loop both runners share: walk state indices in
/// ascending order, grant each state the exact remaining test budget, and
/// fold the shard `shard_for` produces through [`merge_shard`] until the
/// budget is spent or a stop-matching finding ends the run. The sequential
/// runner computes every shard here; the parallel runner's `shard_for`
/// serves precomputed worker shards and recomputes only boundary states —
/// one budget formula, one merge skeleton, byte-identical results.
fn drive_campaign(
    oracle_label: String,
    cfg: &CampaignConfig,
    start: Instant,
    mut shard_for: impl FnMut(u64, u64) -> StateShard,
) -> CampaignResult {
    let mut result = CampaignResult::empty(oracle_label);
    let mut plans: BTreeSet<u64> = BTreeSet::new();
    let coverage = Coverage::new();

    let mut state_idx = 0u64;
    let mut stop = false;
    let mut consecutive_setup_failures = 0u64;
    while !stop && result.tests_run < cfg.tests {
        let max_tests = cfg.tests_per_state.max(1).min(cfg.tests - result.tests_run);
        let shard = shard_for(state_idx, max_tests);
        let setup_failed = shard.setup_failed;
        stop = merge_shard(&mut result, &mut plans, &coverage, shard);
        if setup_failed {
            // Graceful budget degradation: a configuration whose generated
            // setups keep failing is abandoned with a recorded finding
            // instead of being retried forever (failed states consume no
            // budget, so the loop alone would never terminate).
            consecutive_setup_failures += 1;
            if consecutive_setup_failures >= cfg.max_setup_retries.max(1) {
                let first = state_idx + 1 - consecutive_setup_failures;
                result.findings.push(Finding {
                    report: BugReport {
                        oracle: "campaign",
                        kind: ReportKind::InternalError,
                        queries: Vec::new(),
                        detail: format!(
                            "state setup failed {consecutive_setup_failures} consecutive \
                             times (states {first}..={state_idx}); abandoning the \
                             remaining test budget"
                        ),
                    },
                    state_idx,
                    test_idx: 0,
                    attributed: Vec::new(),
                    attributed_recovery: Vec::new(),
                    attributed_index: Vec::new(),
                    attributed_media: Vec::new(),
                });
                stop = true;
            }
        } else {
            consecutive_setup_failures = 0;
        }
        state_idx += 1;
    }

    result.unique_plans = plans.len();
    result.coverage_percent = coverage.percent();
    result.elapsed = start.elapsed();
    result
}

/// Run one campaign.
pub fn run_campaign(oracle: &mut dyn Oracle, cfg: &CampaignConfig) -> CampaignResult {
    let start = Instant::now();
    drive_campaign(
        oracle.name().to_string(),
        cfg,
        start,
        |state_idx, max_tests| run_state(oracle, cfg, state_idx, max_tests, None),
    )
}

/// Run one campaign across `threads` worker threads; byte-identical to
/// [`run_campaign`] with a fresh `oracle_name` oracle at any thread count
/// (see the module docs for the scheme). Returns `None` for an unknown
/// oracle name.
///
/// Scheduling is dynamic: workers claim the next unclaimed `state_idx`
/// from a shared counter (states vary wildly in cost — a failing setup is
/// ~free, a full state runs `tests_per_state` oracle tests — so static
/// range splitting would load-imbalance). Workers stop claiming once the
/// claimed successful states cover the test budget; with
/// `stop_on_first_bug` they additionally publish the lowest stopping state
/// index in an atomic high-water mark and cancel any state past it.
///
/// Shards stream to the merging thread over a channel while workers run:
/// the merge (the same `drive_campaign` loop as the sequential runner)
/// consumes the ascending prefix as it arrives and parks out-of-order
/// shards in a reorder window. Workers may run at most a fixed window of
/// states ahead of the merge floor, so resident memory is O(threads), not
/// O(states) — a 24-hour-scale campaign streams through the same few
/// dozen buffered shards the whole run.
///
/// Why the merge never needs an abandoned shard: a worker only abandons
/// state `i` when `i` is greater than the high-water mark `H`, and the
/// shard for `H` then contains a stop-matching finding at some test `j`.
/// Merging in ascending order reaches `H` with some remaining budget `R`;
/// either `R > j` and the merge stops at that finding, or `R <= j < `
/// `tests_per_state`, which makes `H` the budget-boundary state and the
/// merge recomputes it with `max_tests = R` and stops there on budget
/// exhaustion. Either way no state past `H` is merged (and a missing or
/// abandoned shard is recomputed inline if it were).
pub fn run_campaign_parallel(
    oracle_name: &str,
    cfg: &CampaignConfig,
    threads: usize,
) -> Option<CampaignResult> {
    // Validate the oracle name before spawning anything.
    let probe = make_oracle(oracle_name)?;
    let oracle_label = probe.name().to_string();
    drop(probe);

    let start = Instant::now();
    let threads = threads.max(1);
    // Successful states needed to cover the budget; states that fail setup
    // consume an index but no budget, so the claimable range grows by one
    // for every observed failure.
    let needed_states = cfg.tests.div_ceil(cfg.tests_per_state.max(1));
    let next_state = &AtomicU64::new(0);
    let successes = &AtomicU64::new(0);
    let failures = &AtomicU64::new(0);
    let high_water = &AtomicU64::new(u64::MAX);
    // Next state index the merge needs; workers stay within `window` of it.
    let merge_floor = &AtomicU64::new(0);
    let window = (threads as u64) * 4;
    let (tx, rx) = std::sync::mpsc::channel::<StateShard>();

    let result = std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut oracle = make_oracle(oracle_name).expect("oracle name validated above");
                let mut waits = 0u32;
                loop {
                    if successes.load(Ordering::Relaxed) >= needed_states {
                        break;
                    }
                    let claimed = next_state.load(Ordering::Relaxed);
                    if claimed > high_water.load(Ordering::Relaxed) {
                        break;
                    }
                    // Claim-bounded scheduling: at most `needed + failures`
                    // states may ever be claimed — exactly the states the
                    // sequential runner could reach — so workers never burn
                    // budgetless work racing ahead; and claims stay within
                    // the reorder window of the merge floor, bounding how
                    // many shards can be in flight. When either bound is
                    // reached, wait for in-flight states to settle (a
                    // failure raises the claim bound, merge progress raises
                    // the floor, the final success ends the campaign).
                    let limit = (needed_states + failures.load(Ordering::Relaxed))
                        .min(merge_floor.load(Ordering::Relaxed).saturating_add(window));
                    if claimed >= limit {
                        // Back off after a burst of yields so waiting
                        // workers stop stealing scheduler slices from the
                        // ones still finishing states (it matters when
                        // cores < threads).
                        waits += 1;
                        if waits < 64 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        continue;
                    }
                    waits = 0;
                    if next_state
                        .compare_exchange(
                            claimed,
                            claimed + 1,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .is_err()
                    {
                        continue;
                    }
                    let state_idx = claimed;
                    let cancel = || state_idx > high_water.load(Ordering::Relaxed);
                    // No state is ever granted more than min(tests_per_state,
                    // tests), so don't run tests a tiny campaign could never
                    // count (the merge would reject and recompute the shard).
                    let max_tests = cfg.tests_per_state.max(1).min(cfg.tests);
                    let shard =
                        run_state(oracle.as_mut(), cfg, state_idx, max_tests, Some(&cancel));
                    if !shard.aborted {
                        if shard.setup_failed {
                            failures.fetch_add(1, Ordering::Relaxed);
                        } else {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if shard.stopped {
                        high_water.fetch_min(state_idx, Ordering::Relaxed);
                    }
                    if tx.send(shard).is_err() {
                        // The merge finished and hung up; nothing more to do.
                        break;
                    }
                }
            });
        }
        // Only workers hold senders now, so `rx` disconnects when the last
        // worker exits.
        drop(tx);

        // Deterministic ascending merge through the same campaign loop as
        // the sequential runner, streaming shards as workers finish them.
        let mut reorder: BTreeMap<u64, StateShard> = BTreeMap::new();
        let mut rerun_oracle: Option<Box<dyn Oracle>> = None;
        drive_campaign(oracle_label, cfg, start, |state_idx, max_tests| {
            merge_floor.store(state_idx, Ordering::Relaxed);
            let received = loop {
                if let Some(s) = reorder.remove(&state_idx) {
                    break Some(s);
                }
                match rx.recv() {
                    Ok(s) if s.state_idx == state_idx => break Some(s),
                    Ok(s) => {
                        reorder.insert(s.state_idx, s);
                    }
                    // All workers exited without producing this state (they
                    // broke off after claiming it, or it was cancelled).
                    Err(_) => break None,
                }
            };
            // A worker shard is usable as-is unless it was abandoned,
            // missing, or ran more tests than the remaining budget grants
            // this state (the boundary state). Those are recomputed here
            // with the exact budget.
            match received {
                Some(s) if !s.aborted && s.tests_run <= max_tests => s,
                _ => {
                    let oracle = rerun_oracle
                        .get_or_insert_with(|| make_oracle(oracle_name).expect("validated"));
                    run_state(oracle.as_mut(), cfg, state_idx, max_tests, None)
                }
            }
        })
    });
    Some(result)
}

/// Everything a test's outcome depends on besides the mutant set.
#[derive(PartialEq)]
struct TestCoords {
    oracle: String,
    dialect: Dialect,
    seed: u64,
    gen: GenConfig,
    state_idx: u64,
    test_idx: u64,
}

/// A test's run with none of its registry's mutants consulted: the clean
/// run's verdict and consulted mutants.
struct CleanRun {
    test: TestCoords,
    verdict: bool,
    consulted: BugRegistry,
}

thread_local! {
    /// [`rerun_test`]'s one-entry memo: this thread's last clean run.
    static CLEAN_RUN: RefCell<Option<CleanRun>> = const { RefCell::new(None) };
}

/// Re-run one specific campaign test under a given mutant configuration;
/// returns whether it reports a bug.
///
/// Generates and applies the state, then runs only the target test: by
/// test independence (module docs) the state's earlier tests cannot change
/// its outcome. A panic counts as reproduced, as the campaign records it
/// as a `Crash` finding.
///
/// When this thread's last clean run was of the same test and consulted
/// none of `bugs`'s mutants, returns that run's verdict without replaying
/// (the consult rule in the module docs). A replay that consults none of
/// `bugs`'s mutants is such a clean run and becomes the memo, so the memo
/// never costs a replay.
pub fn rerun_test(
    oracle_name: &str,
    cfg: &CampaignConfig,
    state_idx: u64,
    test_idx: u64,
    bugs: &BugRegistry,
) -> bool {
    let test = TestCoords {
        oracle: oracle_name.to_string(),
        dialect: cfg.dialect,
        seed: cfg.seed,
        gen: cfg.gen.clone(),
        state_idx,
        test_idx,
    };
    let memo = CLEAN_RUN.with_borrow(|clean| match clean {
        Some(clean) if clean.test == test && !bugs.shares_mutant_with(&clean.consulted) => {
            Some(clean.verdict)
        }
        _ => None,
    });
    if let Some(verdict) = memo {
        return verdict;
    }
    take_consulted();
    let verdict = replay_test(oracle_name, cfg, state_idx, test_idx, bugs);
    let consulted = take_consulted();
    if !bugs.shares_mutant_with(&consulted) {
        CLEAN_RUN.set(Some(CleanRun {
            test,
            verdict,
            consulted,
        }));
    }
    verdict
}

/// [`rerun_test`]'s replay: apply the state under `bugs` and run the test.
fn replay_test(
    oracle_name: &str,
    cfg: &CampaignConfig,
    state_idx: u64,
    test_idx: u64,
    bugs: &BugRegistry,
) -> bool {
    let Some(mut oracle) = make_oracle(oracle_name) else {
        return false;
    };
    let mut srng = StdRng::seed_from_u64(state_seed(cfg.seed, state_idx));
    let (stmts, schema) = generate_state(&mut srng, cfg.dialect, &cfg.gen);
    let mut db = Database::with_bugs(cfg.dialect, bugs.clone());
    if apply_state(&mut db, &stmts).is_err() {
        // State setup itself fails under this mutant: the mutant is
        // responsible (e.g. an internal error in INSERT evaluation).
        return true;
    }
    let mut session = Session::new(&mut db);
    let mut trng = StdRng::seed_from_u64(test_seed(cfg.seed, state_idx, test_idx));
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        oracle.run_one(&mut session, &schema, &mut trng).is_bug()
    }))
    .unwrap_or(true)
}

/// Attribute every finding of a campaign to the injected mutant(s) that
/// reproduce it when enabled alone.
pub fn attribute_bugs(result: &mut CampaignResult, cfg: &CampaignConfig, oracle_name: &str) {
    attribute_bugs_parallel(result, cfg, oracle_name, 1);
}

/// [`attribute_bugs`] fanned out across `threads` workers: every
/// `(finding, mutant)` re-run is an independent seed-deterministic replay,
/// so workers pull findings from a shared counter, replay each under all
/// of its mutants (one worker per finding, so [`rerun_test`]'s per-thread
/// memo serves the whole finding), and the attributions are written back
/// in the same `(finding, enabled-mutant)` order the sequential version
/// produces — identical output at any thread count.
pub fn attribute_bugs_parallel(
    result: &mut CampaignResult,
    cfg: &CampaignConfig,
    oracle_name: &str,
    threads: usize,
) {
    /// One mutant to replay a finding under — engine (Table 1) and
    /// recovery-path schemes attribute through the same machinery but
    /// stay in separate result lists.
    #[derive(Clone, Copy)]
    enum Mutant {
        Engine(BugId),
        Recovery(RecoveryBugId),
        Index(IndexBugId),
        Media(MediaBugId),
    }
    impl Mutant {
        fn registry(self) -> BugRegistry {
            match self {
                Mutant::Engine(b) => BugRegistry::only(b),
                Mutant::Recovery(b) => BugRegistry::only_recovery(b),
                Mutant::Index(b) => BugRegistry::only_index(b),
                Mutant::Media(b) => BugRegistry::only_media(b),
            }
        }
    }

    let enabled: Vec<Mutant> = cfg
        .bugs
        .enabled()
        .map(Mutant::Engine)
        .chain(cfg.bugs.enabled_recovery().map(Mutant::Recovery))
        .chain(cfg.bugs.enabled_index().map(Mutant::Index))
        .chain(cfg.bugs.enabled_media().map(Mutant::Media))
        .collect();
    // `hits[fi * enabled.len() + mi]`: finding `fi` reproduces under
    // mutant `mi` alone.
    let next_finding = AtomicUsize::new(0);
    let hits: Vec<AtomicBool> = (0..result.findings.len() * enabled.len())
        .map(|_| AtomicBool::new(false))
        .collect();
    let findings = &result.findings;
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let fi = next_finding.fetch_add(1, Ordering::Relaxed);
                let Some(f) = findings.get(fi) else {
                    break;
                };
                for (mi, bug) in enabled.iter().enumerate() {
                    if rerun_test(oracle_name, cfg, f.state_idx, f.test_idx, &bug.registry()) {
                        hits[fi * enabled.len() + mi].store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    for (j, hit) in hits.iter().enumerate() {
        if hit.load(Ordering::Relaxed) {
            let f = &mut result.findings[j / enabled.len()];
            match enabled[j % enabled.len()] {
                Mutant::Engine(b) => f.attributed.push(b),
                Mutant::Recovery(b) => f.attributed_recovery.push(b),
                Mutant::Index(b) => f.attributed_index.push(b),
                Mutant::Media(b) => f.attributed_media.push(b),
            }
        }
    }
}

/// Convenience: can `oracle_name` detect `bug` within `budget` tests?
/// Used by the Table 2 matrix harness.
///
/// The campaign stops at the first finding whose kind matches the
/// mutant's category (`stop_kind`), not at the first finding of any kind:
/// a mutant whose earliest symptom is e.g. a crash-kind report keeps the
/// campaign running until a kind-matching finding appears or the budget
/// is exhausted, instead of being reported as undetected with budget
/// unspent.
pub fn detects_bug(
    oracle_name: &str,
    bug: BugId,
    budget: u64,
    seed: u64,
) -> Option<(u64, BugReport)> {
    let mut oracle = make_oracle(oracle_name)?;
    let cfg = CampaignConfig {
        bugs: BugRegistry::only(bug),
        tests: budget,
        stop_on_first_bug: true,
        stop_kind: Some(bug.kind()),
        seed,
        ..CampaignConfig::new(bug.dialect())
    };
    let result = run_campaign(oracle.as_mut(), &cfg);
    result
        .findings
        .into_iter()
        // Only count findings of the matching category: a logic mutant is
        // "detected" via a discrepancy, a crash mutant via a crash, etc.
        .find(|f| kind_matches(bug.kind(), &f.report.kind))
        .map(|f| (result.tests_run, f.report))
}

fn kind_matches(bug_kind: BugKind, kind: &ReportKind) -> bool {
    matches!(
        (bug_kind, kind),
        (BugKind::Logic, ReportKind::LogicDiscrepancy)
            | (BugKind::InternalError, ReportKind::InternalError)
            | (BugKind::Crash, ReportKind::Crash)
            | (BugKind::Hang, ReportKind::Hang)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_finds_no_bugs() {
        let mut oracle = make_oracle("codd").unwrap();
        let cfg = CampaignConfig {
            tests: 120,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let result = run_campaign(oracle.as_mut(), &cfg);
        assert_eq!(result.tests_run, 120);
        assert!(result.findings.is_empty(), "{:#?}", result.findings);
        assert!(result.successful_queries > 0);
        assert!(result.unique_plans > 0);
        assert!(result.coverage_percent > 20.0);
        assert!(
            result.qpt() >= 2.0,
            "CODDTest runs >= 3 queries per test, qpt={}",
            result.qpt()
        );
        // Per-outcome query tallies partition the session totals.
        assert_eq!(
            result.passed_queries + result.skipped_queries + result.finding_queries,
            result.successful_queries + result.unsuccessful_queries
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let run = || {
            let mut oracle = make_oracle("norec").unwrap();
            let cfg = CampaignConfig {
                tests: 60,
                ..CampaignConfig::new(Dialect::Mysql)
            };
            let r = run_campaign(oracle.as_mut(), &cfg);
            (
                r.tests_run,
                r.successful_queries,
                r.unsuccessful_queries,
                r.unique_plans,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn buggy_campaign_finds_and_attributes() {
        // A campaign over the TiDB profile with the top-level IN bug must
        // find it and attribute the finding to that mutant.
        let bug = BugId::TidbInValueListWhere;
        let mut oracle = make_oracle("codd").unwrap();
        let cfg = CampaignConfig {
            bugs: BugRegistry::only(bug),
            tests: 800,
            ..CampaignConfig::new(Dialect::Tidb)
        };
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        assert!(
            !result.findings.is_empty(),
            "CODDTest failed to find {bug:?}"
        );
        attribute_bugs(&mut result, &cfg, "codd");
        assert!(
            result.unique_attributed_bugs().contains(&bug),
            "attribution failed: {:?}",
            result
                .findings
                .iter()
                .map(|f| &f.attributed)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn detects_bug_probe_works() {
        let hit = detects_bug("codd", BugId::CockroachOrShortCircuitFalse, 1500, 7);
        assert!(hit.is_some(), "codd should detect the OR short-circuit bug");
        let (tests, report) = hit.unwrap();
        assert!(tests >= 1);
        assert_eq!(report.kind, ReportKind::LogicDiscrepancy);
    }

    /// Regression for the setup-failure accounting bug: when a mutant
    /// breaks `apply_state`, the state's coverage and expected-error tally
    /// must be merged before the state is regenerated. No current mutant
    /// can fail a *generated* setup statement end-to-end (setup is all
    /// literal DDL/DML), so this exercises the shared `merge_shard`
    /// accumulation point — the code path `run_campaign` and
    /// `run_campaign_parallel` both fold every state through — against a
    /// setup-failed shard built from a real database's coverage.
    #[test]
    fn setup_failed_shard_merges_coverage_and_error_tally() {
        // A database that executed some setup statements before failing.
        let mut db = Database::new(Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (2)")
            .unwrap();
        let setup_cov = db.coverage().snapshot();
        let setup_hits = db.coverage().hit_count();
        assert!(setup_hits > 0, "setup statements exercise branch points");

        let mut failed = StateShard::new(0);
        failed.setup_failed = true;
        failed.setup_err_queries = 1;
        failed.coverage_words = setup_cov;

        let mut result = CampaignResult::empty("test".into());
        let mut plans = BTreeSet::new();
        let coverage = Coverage::new();
        let stop = merge_shard(&mut result, &mut plans, &coverage, failed);

        assert!(!stop, "a failed setup never stops a campaign");
        assert_eq!(result.setup_failures, 1);
        assert_eq!(result.unsuccessful_queries, 1);
        assert_eq!(result.tests_run, 0, "failed states contribute no tests");
        assert_eq!(
            coverage.hit_count(),
            setup_hits,
            "the failed state's coverage must be merged, not dropped"
        );

        // A later successful state unions on top, exactly like the
        // sequential accumulation point.
        let mut oracle = make_oracle("codd").unwrap();
        let cfg = CampaignConfig::new(Dialect::Sqlite);
        let ok_shard = run_state(oracle.as_mut(), &cfg, 0, 5, None);
        assert!(!ok_shard.setup_failed);
        merge_shard(&mut result, &mut plans, &coverage, ok_shard);
        assert!(coverage.hit_count() >= setup_hits);
        assert_eq!(result.tests_run, 5);
    }

    /// `apply_state` surfaces the failing statement's error (instead of a
    /// bare `None`) so the campaign can classify it the way `Session`
    /// classifies test queries: expected errors tally, bug-signal errors
    /// are visible through coverage only.
    #[test]
    fn apply_state_returns_classifiable_error() {
        let mut db = Database::new(Dialect::Sqlite);
        let stmts = coddb::parser::parse_statements(
            "CREATE TABLE t (v INT); INSERT INTO t VALUES (1); \
                 INSERT INTO missing VALUES (1)",
        )
        .unwrap();
        let err = apply_state(&mut db, &stmts).unwrap_err();
        assert_eq!(err.severity(), Severity::Expected);
        assert!(
            db.coverage().hit_count() > 0,
            "statements before the failure left coverage behind"
        );
    }

    /// Run `f` with the default panic hook's backtrace spam silenced for
    /// injected panics (worker threads aren't under test output capture).
    /// Serialized, so two tests cannot restore each other's hook, and
    /// restored before a panic escaping `f` is re-raised.
    fn with_silent_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Regression for panic isolation: a panicking oracle surfaces as
    /// counted `Crash`-kind findings carrying `(state_seed, test_seed)`
    /// repro coordinates — in both runners, byte-identically — instead of
    /// aborting the campaign.
    #[test]
    fn panicking_oracle_becomes_counted_crash_findings() {
        let cfg = CampaignConfig {
            tests: 200,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let (seq, par) = with_silent_panics(|| {
            let mut oracle = make_oracle("panic-probe").unwrap();
            let seq = run_campaign(oracle.as_mut(), &cfg);
            (seq, run_campaign_parallel("panic-probe", &cfg, 4).unwrap())
        });

        assert!(!seq.findings.is_empty(), "probe never panicked");
        for f in &seq.findings {
            assert_eq!(f.report.kind, ReportKind::Crash);
            assert!(f.report.detail.contains("oracle panicked"));
            assert!(
                f.report.detail.contains(&format!(
                    "state_seed={:#x}, test_seed={:#x}",
                    state_seed(cfg.seed, f.state_idx),
                    test_seed(cfg.seed, f.state_idx, f.test_idx)
                )),
                "finding lacks its repro coordinates: {}",
                f.report.detail
            );
        }
        let coords = |r: &CampaignResult| {
            r.findings
                .iter()
                .map(|f| (f.state_idx, f.test_idx, f.report.detail.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq.tests_run, par.tests_run);
        assert_eq!(coords(&seq), coords(&par));
    }

    /// Attribution replays a finding with the same panic isolation as the
    /// campaign: re-running a test that panics counts as reproduced instead
    /// of unwinding out of the attribution workers.
    #[test]
    fn attributing_a_panic_finding_counts_it_as_reproduced() {
        let bug = BugId::SqliteBetweenTextAffinity;
        let cfg = CampaignConfig {
            bugs: BugRegistry::only(bug),
            tests: 200,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let result = with_silent_panics(|| {
            let mut oracle = make_oracle("panic-probe").unwrap();
            let mut result = run_campaign(oracle.as_mut(), &cfg);
            attribute_bugs(&mut result, &cfg, "panic-probe");
            result
        });
        assert!(!result.findings.is_empty(), "probe never panicked");
        for f in &result.findings {
            assert_eq!(f.report.kind, ReportKind::Crash);
            assert_eq!(f.attributed, [bug], "{}", f.report.detail);
        }
    }

    /// The setup-retry cap turns a hopeless configuration (every generated
    /// setup fails) into a recorded finding instead of an infinite loop,
    /// and `merge_shard` keeps counting every failure on the way there.
    #[test]
    fn setup_retry_cap_abandons_hopeless_campaigns() {
        let cfg = CampaignConfig {
            max_setup_retries: 5,
            tests: 100,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let result = drive_campaign("test".into(), &cfg, Instant::now(), |state_idx, _| {
            let mut s = StateShard::new(state_idx);
            s.setup_failed = true;
            s.setup_err_queries = 1;
            s.coverage_words = Coverage::new().snapshot();
            s
        });
        assert_eq!(result.setup_failures, 5, "every failure merged");
        assert_eq!(result.unsuccessful_queries, 5);
        assert_eq!(result.tests_run, 0);
        assert_eq!(result.findings.len(), 1);
        let f = &result.findings[0];
        assert_eq!(f.report.oracle, "campaign");
        assert_eq!(f.report.kind, ReportKind::InternalError);
        assert!(
            f.report.detail.contains("5 consecutive"),
            "{}",
            f.report.detail
        );
        assert_eq!(f.state_idx, 4, "finding points at the last failing state");
    }

    /// Intermittent setup failures never trip the cap: the counter is
    /// consecutive, resetting on every successful state.
    #[test]
    fn setup_retry_cap_is_consecutive_not_cumulative() {
        let cfg = CampaignConfig {
            max_setup_retries: 2,
            tests: 40,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let mut oracle = make_oracle("codd").unwrap();
        let result = drive_campaign("test".into(), &cfg, Instant::now(), |state_idx, max| {
            if state_idx % 2 == 0 {
                let mut s = StateShard::new(state_idx);
                s.setup_failed = true;
                s.coverage_words = Coverage::new().snapshot();
                s
            } else {
                run_state(oracle.as_mut(), &cfg, state_idx, max, None)
            }
        });
        assert_eq!(result.tests_run, 40, "budget fully spent");
        assert!(result.setup_failures >= 2, "alternating failures merged");
        assert!(
            result.findings.is_empty(),
            "no synthetic finding for non-consecutive failures: {:#?}",
            result.findings
        );
    }

    /// Findings produced by recovery-path mutants attribute into the
    /// separate `attributed_recovery` list via the same replay machinery.
    #[test]
    fn recovery_findings_attribute_to_recovery_mutants() {
        let bug = RecoveryBugId::DropLastCommit;
        let cfg = CampaignConfig {
            bugs: BugRegistry::only_recovery(bug),
            tests: 40,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let mut oracle = make_oracle("recover").unwrap();
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        assert!(
            !result.findings.is_empty(),
            "recover never caught the mutant"
        );
        attribute_bugs_parallel(&mut result, &cfg, "recover", 2);
        assert!(
            result
                .findings
                .iter()
                .any(|f| f.attributed_recovery.contains(&bug)),
            "no finding attributed to {bug:?}: {:#?}",
            result
                .findings
                .iter()
                .map(|f| (&f.attributed, &f.attributed_recovery))
                .collect::<Vec<_>>()
        );
        assert!(
            result.findings.iter().all(|f| f.attributed.is_empty()),
            "recovery findings must not attribute to Table 1 mutants"
        );
    }

    #[test]
    fn checkpoint_mutant_findings_attribute_through_the_same_machinery() {
        // The checkpoint-path mutants ride the same RecoveryBugId plumbing
        // as the log-replay ones: findings re-run under each enabled
        // recovery mutant alone and land in `attributed_recovery`.
        let bug = RecoveryBugId::ReplayFromWrongOffset;
        let cfg = CampaignConfig {
            bugs: BugRegistry::only_recovery(bug),
            tests: 400,
            stop_on_first_bug: true,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let mut oracle = make_oracle("recover").unwrap();
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        assert!(
            !result.findings.is_empty(),
            "recover never caught the checkpoint mutant"
        );
        attribute_bugs_parallel(&mut result, &cfg, "recover", 2);
        assert!(
            result
                .findings
                .iter()
                .any(|f| f.attributed_recovery.contains(&bug)),
            "no finding attributed to {bug:?}"
        );
    }

    /// Index-path mutants: the ordered-seek bug family is campaign-visible
    /// — constant folding flips a leading conjunct's sargability, so
    /// exactly one of O/F seeks and the mutant no longer cancels out —
    /// and findings attribute into `attributed_index` through the same
    /// replay machinery, reproducing from (state_idx, test_idx) alone.
    #[test]
    fn index_mutant_findings_attribute_to_index_mutants() {
        for (bug, seed, budget) in [
            (IndexBugId::PrefixSeekIgnoresResidual, 0xC0DD, 500),
            (IndexBugId::EqSeekMissesDuplicates, 2, 600),
            (IndexBugId::StaleEntryAfterUpdate, 0xC0DD, 1500),
            (IndexBugId::SortElimWrongDirection, 7, 2000),
        ] {
            let cfg = CampaignConfig {
                bugs: BugRegistry::only_index(bug),
                tests: budget,
                seed,
                stop_on_first_bug: true,
                ..CampaignConfig::new(Dialect::Sqlite)
            };
            let mut oracle = make_oracle("codd").unwrap();
            let mut result = run_campaign(oracle.as_mut(), &cfg);
            assert!(!result.findings.is_empty(), "codd never caught {bug:?}");
            attribute_bugs_parallel(&mut result, &cfg, "codd", 2);
            assert!(
                result
                    .findings
                    .iter()
                    .any(|f| f.attributed_index.contains(&bug)),
                "no finding attributed to {bug:?}: {:#?}",
                result.findings
            );
            assert!(
                result
                    .findings
                    .iter()
                    .all(|f| f.attributed.is_empty() && f.attributed_recovery.is_empty()),
                "index findings must not attribute to other mutant families"
            );
        }
    }

    /// The `verify` oracle catches plan-corrupting mutants *statically*:
    /// the corrupted plan tree itself is the finding — no row executed —
    /// and findings attribute through the standard replay machinery,
    /// reproducing from (state_idx, test_idx) alone.
    #[test]
    fn verify_oracle_catches_plan_corrupting_mutants_statically() {
        // Engine family: illegal LEFT-JOIN pushdown is visible as a
        // Filtered node below the null-padded side.
        let bug = BugId::DuckdbPushdownLeftJoin;
        let cfg = CampaignConfig {
            bugs: BugRegistry::only(bug),
            tests: 40,
            stop_on_first_bug: true,
            ..CampaignConfig::new(bug.dialect())
        };
        let mut oracle = make_oracle("verify").unwrap();
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        assert!(!result.findings.is_empty(), "verify never caught {bug:?}");
        attribute_bugs(&mut result, &cfg, "verify");
        assert!(
            result.unique_attributed_bugs().contains(&bug),
            "attribution failed: {:#?}",
            result.findings
        );

        // Index family: seek-bound tightening and wrong sort-elimination
        // direction are visible in the seek node itself.
        for bug in [
            IndexBugId::RangeBoundOffByOne,
            IndexBugId::SortElimWrongDirection,
        ] {
            let cfg = CampaignConfig {
                bugs: BugRegistry::only_index(bug),
                tests: 40,
                stop_on_first_bug: true,
                ..CampaignConfig::new(Dialect::Sqlite)
            };
            let mut oracle = make_oracle("verify").unwrap();
            let mut result = run_campaign(oracle.as_mut(), &cfg);
            assert!(!result.findings.is_empty(), "verify never caught {bug:?}");
            attribute_bugs_parallel(&mut result, &cfg, "verify", 2);
            assert!(
                result
                    .findings
                    .iter()
                    .any(|f| f.attributed_index.contains(&bug)),
                "no finding attributed to {bug:?}: {:#?}",
                result.findings
            );
        }

        // A clean engine sails through a verify campaign finding nothing.
        let cfg = CampaignConfig {
            tests: 60,
            ..CampaignConfig::new(Dialect::Sqlite)
        };
        let mut oracle = make_oracle("verify").unwrap();
        let result = run_campaign(oracle.as_mut(), &cfg);
        assert!(result.findings.is_empty(), "{:#?}", result.findings);
        assert_eq!(result.tests_run, 60);
    }

    #[test]
    fn parallel_attribution_matches_sequential() {
        let cfg = CampaignConfig {
            bugs: BugRegistry::all_for_dialect(Dialect::Tidb),
            tests: 400,
            ..CampaignConfig::new(Dialect::Tidb)
        };
        let mut oracle = make_oracle("codd").unwrap();
        let mut seq = run_campaign(oracle.as_mut(), &cfg);
        let mut par = seq.clone();
        assert!(!seq.findings.is_empty());
        attribute_bugs(&mut seq, &cfg, "codd");
        attribute_bugs_parallel(&mut par, &cfg, "codd", 4);
        let seq_attr: Vec<_> = seq.findings.iter().map(|f| &f.attributed).collect();
        let par_attr: Vec<_> = par.findings.iter().map(|f| &f.attributed).collect();
        assert_eq!(seq_attr, par_attr);
    }
}
