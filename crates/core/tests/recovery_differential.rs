//! End-to-end campaigns over the crash-recovery differential oracle: every
//! recovery-path mutant must be detected, detections must attribute to the
//! recovery mutant (not any engine mutant), findings must reproduce from
//! their `(state_idx, test_idx)` coordinates, and a clean engine must stay
//! quiet across the same budget.

use coddb::bugs::{BugRegistry, MediaBugId};
use coddb::{Dialect, RecoveryBugId};
use coddtest::make_oracle;
use coddtest::runner::{
    attribute_bugs, rerun_test, run_campaign, run_campaign_parallel, CampaignConfig,
};
use coddtest::ReportKind;

fn recover_cfg(bugs: BugRegistry, tests: u64) -> CampaignConfig {
    CampaignConfig {
        bugs,
        tests,
        stop_on_first_bug: true,
        ..CampaignConfig::new(Dialect::Sqlite)
    }
}

/// Every seeded recovery-path mutant is caught by a modest campaign, the
/// finding attributes to exactly that recovery mutant, and the finding's
/// coordinates reproduce it deterministically.
#[test]
fn every_recovery_mutant_is_detected_and_attributed() {
    for bug in RecoveryBugId::ALL {
        let cfg = recover_cfg(BugRegistry::only(bug), 600);
        let mut oracle = make_oracle("recover").unwrap();
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        assert!(
            !result.findings.is_empty(),
            "{}: no finding in {} tests",
            bug.name(),
            result.tests_run
        );
        attribute_bugs(&mut result, &cfg, "recover");
        let finding = &result.findings[0];
        assert!(
            finding.attributed_recovery.contains(&bug),
            "{}: finding not attributed to its mutant ({:?})",
            bug.name(),
            finding.attributed_recovery
        );
        assert!(
            finding.attributed.is_empty(),
            "{}: recovery finding wrongly attributed to engine mutants {:?}",
            bug.name(),
            finding.attributed
        );
        // The repro contract: the coordinates replay the divergence under
        // the mutant and stay clean without it.
        assert!(rerun_test(
            "recover",
            &cfg,
            finding.state_idx,
            finding.test_idx,
            &cfg.bugs
        ));
        assert!(!rerun_test(
            "recover",
            &cfg,
            finding.state_idx,
            finding.test_idx,
            &BugRegistry::none()
        ));
        // Recovery divergences are logic or internal-error findings, never
        // silent.
        assert!(
            matches!(
                finding.report.kind,
                ReportKind::LogicDiscrepancy | ReportKind::InternalError
            ),
            "{}: unexpected kind {:?}",
            bug.name(),
            finding.report.kind
        );
        assert!(
            finding.report.detail.contains("script_seed="),
            "{}: detail lacks repro seeds: {}",
            bug.name(),
            finding.report.detail
        );
    }
}

/// Every media-fault mutant is caught by the same `recover` campaign (the
/// oracle's seeded media axis exercises bit rot, both read-fault regimes
/// and disk-full appends), attributes into its own `attributed_media`
/// family, and reproduces from its coordinates.
#[test]
fn every_media_mutant_is_detected_and_attributed() {
    for bug in MediaBugId::ALL {
        let cfg = recover_cfg(BugRegistry::only(bug), 900);
        let mut oracle = make_oracle("recover").unwrap();
        let mut result = run_campaign(oracle.as_mut(), &cfg);
        assert!(
            !result.findings.is_empty(),
            "{}: no finding in {} tests",
            bug.name(),
            result.tests_run
        );
        attribute_bugs(&mut result, &cfg, "recover");
        let finding = &result.findings[0];
        assert!(
            finding.attributed_media.contains(&bug),
            "{}: finding not attributed to its mutant ({:?})",
            bug.name(),
            finding.attributed_media
        );
        assert!(
            finding.attributed.is_empty()
                && finding.attributed_recovery.is_empty()
                && finding.attributed_index.is_empty(),
            "{}: media finding wrongly attributed outside its family",
            bug.name()
        );
        assert!(rerun_test(
            "recover",
            &cfg,
            finding.state_idx,
            finding.test_idx,
            &cfg.bugs
        ));
        assert!(!rerun_test(
            "recover",
            &cfg,
            finding.state_idx,
            finding.test_idx,
            &BugRegistry::none()
        ));
        assert!(
            matches!(
                finding.report.kind,
                ReportKind::LogicDiscrepancy | ReportKind::InternalError
            ),
            "{}: unexpected kind {:?}",
            bug.name(),
            finding.report.kind
        );
        assert!(
            finding.report.detail.contains("script_seed=")
                && finding.report.detail.contains("media_seed="),
            "{}: detail lacks repro seeds: {}",
            bug.name(),
            finding.report.detail
        );
    }
}

/// A clean engine passes a recovery campaign with zero findings — the
/// differential does not false-alarm on genuine crash scenarios.
#[test]
fn clean_engine_recovery_campaign_is_quiet() {
    let cfg = CampaignConfig {
        tests: 300,
        ..CampaignConfig::new(Dialect::Sqlite)
    };
    let mut oracle = make_oracle("recover").unwrap();
    let result = run_campaign(oracle.as_mut(), &cfg);
    assert!(
        result.findings.is_empty(),
        "clean engine diverged: {}",
        result.findings[0].report.to_display()
    );
    assert!(result.passed > 0, "no scenario completed");
}

/// The recover oracle rides the shared campaign machinery, so parallel and
/// sequential campaigns must agree byte-for-byte on what they find.
#[test]
fn recover_campaigns_are_parallel_deterministic() {
    let cfg = CampaignConfig {
        bugs: BugRegistry::only(RecoveryBugId::ReplayUncommitted),
        tests: 200,
        stop_on_first_bug: false,
        ..CampaignConfig::new(Dialect::Mysql)
    };
    let mut oracle = make_oracle("recover").unwrap();
    let seq = run_campaign(oracle.as_mut(), &cfg);
    let par = run_campaign_parallel("recover", &cfg, 4).expect("known oracle");
    assert_eq!(seq.tests_run, par.tests_run);
    assert_eq!(seq.findings.len(), par.findings.len());
    for (a, b) in seq.findings.iter().zip(&par.findings) {
        assert_eq!((a.state_idx, a.test_idx), (b.state_idx, b.test_idx));
        assert_eq!(a.report.detail, b.report.detail);
    }
}
