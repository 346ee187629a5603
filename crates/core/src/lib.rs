//! # CODDTest — constant-optimization-driven database testing
//!
//! The paper's contribution, reproduced as a Rust library:
//!
//! * [`codd`] — the CODDTest oracle (Algorithm 1): constant folding of a
//!   randomly generated expression φ through an auxiliary query, constant
//!   propagation back into the original query (literal, value-list, or
//!   per-row CASE mapping), plus the §3.4 relation-folding extension.
//! * [`norec`], [`tlp`], [`dqe`], [`eet`] — the state-of-the-art baseline
//!   oracles the paper compares against.
//! * [`recover`] — the crash-recovery differential oracle over coddb's
//!   durable storage layer: seeded crash injection, recovery, and a
//!   byte-exact committed-prefix comparison.
//! * [`verify`] — the static plan verifier as an oracle: flags any
//!   statically-illegal plan ([`coddb::validate`]) as a finding without
//!   executing a row.
//! * [`runner`] — deterministic test campaigns with the Table 3 metrics
//!   (tests, successful/unsuccessful queries, QPT, unique query plans,
//!   branch coverage) and bug attribution for the Table 1/2 harnesses.
//! * [`reduce`] — a delta-debugging reducer for bug-inducing test cases
//!   (the paper reduces every case before reporting, §4.1).
//!
//! Every oracle implements [`Oracle`] and consumes a [`Session`], which
//! tallies successful/unsuccessful queries and collects plan fingerprints.
//! Each statement a test runs goes through the test's [`Case`], which
//! records it under a label; a bug report lists those statements in run
//! order, rendered to SQL only when the test reports.

pub mod analyze;
pub mod codd;
pub mod dqe;
pub mod eet;
pub mod norec;
pub mod recover;
pub mod reduce;
pub mod runner;
pub mod tlp;
pub mod verify;

use std::borrow::Cow;
use std::collections::BTreeSet;

use coddb::ast::{Select, Statement};
use coddb::value::{Relation, Value};
use coddb::{Database, Error, Severity};
use sqlgen::SchemaInfo;

/// The outcome of one metamorphic test.
#[derive(Debug, Clone)]
pub enum TestOutcome {
    /// The metamorphic relation held.
    Pass,
    /// A discrepancy or engine bug signal was observed.
    Bug(BugReport),
    /// The test could not be completed (expected error, empty input, ...).
    Skipped(String),
}

impl TestOutcome {
    pub fn is_bug(&self) -> bool {
        matches!(self, TestOutcome::Bug(_))
    }
}

/// What kind of misbehaviour a report describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportKind {
    /// Original and folded/partitioned queries disagreed.
    LogicDiscrepancy,
    /// The engine returned an internal error.
    InternalError,
    /// The engine "crashed" (CoddDB surfaces this as an error).
    Crash,
    /// The engine exhausted its execution fuel.
    Hang,
}

impl ReportKind {
    pub fn from_error(e: &Error) -> Option<ReportKind> {
        match e {
            Error::Internal(_) => Some(ReportKind::InternalError),
            Error::Crash(_) => Some(ReportKind::Crash),
            Error::Hang => Some(ReportKind::Hang),
            _ => None,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ReportKind::LogicDiscrepancy => "logic",
            ReportKind::InternalError => "internal error",
            ReportKind::Crash => "crash",
            ReportKind::Hang => "hang",
        }
    }
}

/// A bug-inducing test case, with everything needed to inspect it.
#[derive(Debug, Clone)]
pub struct BugReport {
    pub oracle: &'static str,
    pub kind: ReportKind,
    /// The statements the test ran, in run order, each with its label,
    /// e.g. `("auxiliary", ...)`, `("original", ...)`, `("folded", ...)`.
    pub queries: Vec<(String, String)>,
    /// Human-readable explanation of the discrepancy.
    pub detail: String,
}

impl BugReport {
    pub fn to_display(&self) -> String {
        let mut out = format!("[{}] {} bug\n", self.oracle, self.kind.label());
        for (label, sql) in &self.queries {
            out.push_str(&format!("  {label}: {sql}\n"));
        }
        out.push_str(&format!("  detail: {}", self.detail));
        out
    }
}

/// Wraps a [`Database`] and tallies the Table 3 accounting: successful
/// queries, unsuccessful (expected-error) queries, and the fingerprints of
/// executed query plans.
pub struct Session<'a> {
    pub db: &'a mut Database,
    pub ok_queries: u64,
    pub err_queries: u64,
    pub plans: BTreeSet<u64>,
}

impl<'a> Session<'a> {
    pub fn new(db: &'a mut Database) -> Self {
        Session {
            db,
            ok_queries: 0,
            err_queries: 0,
            plans: BTreeSet::new(),
        }
    }

    /// Total queries this session has tallied (successful + expected-error).
    /// The campaign runner samples this around each test to attribute query
    /// counts to the test's outcome (the Table 3 QPT accounting).
    pub fn queries_issued(&self) -> u64 {
        self.ok_queries + self.err_queries
    }

    fn track<T>(&mut self, r: &coddb::Result<T>) {
        match r {
            Ok(_) => {
                self.ok_queries += 1;
                if let Some(fp) = self.db.last_plan_fingerprint() {
                    self.plans.insert(fp);
                }
            }
            Err(e) if e.severity() == Severity::Expected => self.err_queries += 1,
            Err(_) => {}
        }
    }

    /// Run a SELECT with the optimizer enabled.
    pub fn query(&mut self, q: &Select) -> coddb::Result<Relation> {
        let r = self.db.query(q);
        self.track(&r);
        r
    }

    /// Run a SELECT with the optimizer disabled (NoREC's reference side).
    pub fn query_unoptimized(&mut self, q: &Select) -> coddb::Result<Relation> {
        let r = self.db.query_unoptimized(q);
        self.track(&r);
        r
    }

    /// Execute any statement.
    pub fn execute(&mut self, stmt: &Statement) -> coddb::Result<coddb::ExecOutcome> {
        let r = self.db.execute(stmt);
        self.track(&r);
        r
    }

    pub fn dialect(&self) -> coddb::Dialect {
        self.db.dialect()
    }
}

/// One statement of a test, under the label its report shows.
pub type Step = (Cow<'static, str>, Statement);

/// One oracle test's record: every statement the test runs goes through
/// its `Case`, which keeps the statement's AST under a label. The one
/// builder of oracle bug reports: a report lists the recorded statements
/// in run order, and only a report renders them to SQL.
pub struct Case {
    oracle: &'static str,
    steps: Vec<Step>,
}

impl Case {
    pub fn new(oracle: &'static str) -> Case {
        Case {
            oracle,
            steps: Vec::new(),
        }
    }

    /// Run a SELECT with the optimizer enabled and record it.
    pub fn query(
        &mut self,
        s: &mut Session,
        label: impl Into<Cow<'static, str>>,
        q: Select,
    ) -> Result<Relation, TestOutcome> {
        let r = s.query(&q);
        self.note(label, Statement::Select(q));
        r.map_err(|e| self.error(&e))
    }

    /// Run a SELECT with the optimizer disabled and record it.
    pub fn query_unoptimized(
        &mut self,
        s: &mut Session,
        label: impl Into<Cow<'static, str>>,
        q: Select,
    ) -> Result<Relation, TestOutcome> {
        let r = s.query_unoptimized(&q);
        self.note(label, Statement::Select(q));
        r.map_err(|e| self.error(&e))
    }

    /// Execute any statement and record it.
    pub fn execute(
        &mut self,
        s: &mut Session,
        label: impl Into<Cow<'static, str>>,
        stmt: Statement,
    ) -> Result<coddb::ExecOutcome, TestOutcome> {
        let r = s.execute(&stmt);
        self.note(label, stmt);
        r.map_err(|e| self.error(&e))
    }

    /// Record a statement the test ran outside the session.
    pub fn note(&mut self, label: impl Into<Cow<'static, str>>, stmt: Statement) {
        self.steps.push((label.into(), stmt));
    }

    /// The outcome of an engine error: bug-signal errors become reports,
    /// expected errors skip the test.
    pub fn error(&self, e: &Error) -> TestOutcome {
        match ReportKind::from_error(e) {
            Some(kind) => TestOutcome::Bug(self.report(kind, e.to_string())),
            None => TestOutcome::Skipped(format!("expected error: {e}")),
        }
    }

    /// Pass if the metamorphic relation `holds`, else report a logic
    /// discrepancy explained by `detail`, which is called only then.
    pub fn check(self, holds: bool, detail: impl FnOnce() -> String) -> TestOutcome {
        if holds {
            TestOutcome::Pass
        } else {
            self.bug(ReportKind::LogicDiscrepancy, detail())
        }
    }

    /// Report a bug of `kind`.
    pub fn bug(self, kind: ReportKind, detail: String) -> TestOutcome {
        TestOutcome::Bug(self.report(kind, detail))
    }

    fn report(&self, kind: ReportKind, detail: String) -> BugReport {
        BugReport {
            oracle: self.oracle,
            kind,
            queries: self
                .steps
                .iter()
                .map(|(label, stmt)| (label.to_string(), stmt.to_string()))
                .collect(),
            detail,
        }
    }
}

/// Interpret a value as a SQL truth value the way the dialect's clients
/// do (used when an oracle evaluates a predicate in a projection).
pub fn value_is_true(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Real(r) => *r != 0.0,
        Value::Text(s) => Value::Text(s.clone()).coerce_f64() != 0.0,
        Value::Null => false,
    }
}

/// A test oracle: generates one metamorphic test against the session's
/// database (whose state is described by `schema`) per call.
///
/// Each statement a test runs goes through its [`Case`], and a report the
/// test returns lists those statements in run order.
///
/// # Test independence
///
/// A test's outcome must depend only on the session's applied state, its
/// `rng` and the active mutants, never on the tests that ran before it:
/// [`runner::rerun_test`] reproduces a finding by running its test alone.
/// So an implementation leaves the session catalog as it found it (it
/// only reads, undoes DML with [`Database::snapshot`] and
/// [`Database::restore`], drops what it creates) or rebuilds its private
/// tables before reading them, as [`dqe`] does. It keeps no per-test
/// state, only its fixed configuration.
///
/// The active mutants may steer a test only through the registry's
/// recording hook accessor [`coddb::BugRegistry::active`], called on the
/// thread that runs the test: [`runner::rerun_test`] skips replays under
/// mutants the test's clean run never asked about.
pub trait Oracle {
    fn name(&self) -> &'static str;

    /// Run one test. Implementations must be deterministic given `rng`.
    fn run_one(
        &mut self,
        session: &mut Session,
        schema: &SchemaInfo,
        rng: &mut dyn rand::Rng,
    ) -> TestOutcome;
}

/// Construct a fresh oracle by name (used by the campaign re-runner for
/// bug attribution).
pub fn make_oracle(name: &str) -> Option<Box<dyn Oracle>> {
    match name {
        "codd" => Some(Box::new(codd::CoddTest::default())),
        "codd-expression" => Some(Box::new(codd::CoddTest::expressions_only())),
        "codd-subquery" => Some(Box::new(codd::CoddTest::subqueries_only())),
        "norec" => Some(Box::new(norec::NoRec::default())),
        "tlp" => Some(Box::new(tlp::Tlp::default())),
        "dqe" => Some(Box::new(dqe::Dqe::default())),
        "eet" => Some(Box::new(eet::Eet::default())),
        "recover" => Some(Box::new(recover::Recover)),
        "panic-probe" => Some(Box::new(recover::PanicProbe)),
        "verify" => Some(Box::new(verify::Verify::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_kind_from_error() {
        assert_eq!(
            ReportKind::from_error(&Error::Internal("x".into())),
            Some(ReportKind::InternalError)
        );
        assert_eq!(
            ReportKind::from_error(&Error::Crash("x".into())),
            Some(ReportKind::Crash)
        );
        assert_eq!(ReportKind::from_error(&Error::Hang), Some(ReportKind::Hang));
        assert_eq!(ReportKind::from_error(&Error::Eval("x".into())), None);
    }

    #[test]
    fn session_tallies_queries() {
        let mut db = Database::new(coddb::Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
            .unwrap();
        let mut s = Session::new(&mut db);
        let q = coddb::parser::parse_select("SELECT * FROM t").unwrap();
        s.query(&q).unwrap();
        assert_eq!(s.ok_queries, 1);
        assert_eq!(s.plans.len(), 1);
        let bad = coddb::parser::parse_select("SELECT * FROM missing").unwrap();
        assert!(s.query(&bad).is_err());
        assert_eq!(s.err_queries, 1);
    }

    #[test]
    fn case_reports_recorded_statements_in_run_order() {
        let mut db = Database::new(coddb::Dialect::Sqlite);
        db.execute_sql("CREATE TABLE t (v INT); INSERT INTO t VALUES (1)")
            .unwrap();
        let mut s = Session::new(&mut db);
        let stmt = |sql: &str| coddb::parser::parse_statements(sql).unwrap().remove(0);
        let select = |sql: &str| coddb::parser::parse_select(sql).unwrap();
        let sqls = [
            "SELECT v FROM t",
            "SELECT v FROM t WHERE v > 0",
            "DELETE FROM t WHERE v = 2",
            "SELECT 1",
            "SELECT * FROM missing",
        ];
        let mut record = || {
            let mut case = Case::new("probe");
            case.query(&mut s, "first", select(sqls[0])).unwrap();
            case.query_unoptimized(&mut s, "second", select(sqls[1]))
                .unwrap();
            case.execute(&mut s, "third", stmt(sqls[2])).unwrap();
            case.note("fourth", stmt(sqls[3]));
            let missing = case.query(&mut s, String::from("fifth"), select(sqls[4]));
            assert!(matches!(missing, Err(TestOutcome::Skipped(_))));
            case
        };

        let passed = record().check(true, || panic!("detail of a passing check"));
        assert!(matches!(passed, TestOutcome::Pass));
        let TestOutcome::Bug(report) = record().check(false, || "differs".into()) else {
            panic!("a failing check reports");
        };
        assert_eq!(report.oracle, "probe");
        assert_eq!(report.kind, ReportKind::LogicDiscrepancy);
        assert_eq!(report.detail, "differs");
        let expected: Vec<(String, String)> = ["first", "second", "third", "fourth", "fifth"]
            .into_iter()
            .zip(sqls)
            .map(|(label, sql)| (label.to_string(), stmt(sql).to_string()))
            .collect();
        assert_eq!(report.queries, expected);

        let case = Case::new("probe");
        for (e, kind) in [
            (Error::Internal("x".into()), ReportKind::InternalError),
            (Error::Crash("x".into()), ReportKind::Crash),
            (Error::Hang, ReportKind::Hang),
        ] {
            let TestOutcome::Bug(report) = case.error(&e) else {
                panic!("{e} reports");
            };
            assert_eq!((report.kind, report.detail), (kind, e.to_string()));
        }
        assert!(matches!(
            case.error(&Error::Eval("x".into())),
            TestOutcome::Skipped(_)
        ));
    }

    #[test]
    fn value_truthiness() {
        assert!(value_is_true(&Value::Int(5)));
        assert!(!value_is_true(&Value::Int(0)));
        assert!(value_is_true(&Value::Bool(true)));
        assert!(!value_is_true(&Value::Null));
        assert!(value_is_true(&Value::Text("1".into())));
        assert!(!value_is_true(&Value::Text("x".into())));
    }

    #[test]
    fn oracle_factory_knows_all_names() {
        for name in [
            "codd",
            "codd-expression",
            "codd-subquery",
            "norec",
            "tlp",
            "dqe",
            "eet",
            "recover",
            "panic-probe",
            "verify",
        ] {
            assert!(make_oracle(name).is_some(), "{name}");
        }
        assert!(make_oracle("nope").is_none());
    }
}
