//! Tier-1 guarantees of the `mocc-audit` static-analysis pass, end to
//! end through the umbrella crate: the workspace itself is clean, the
//! JSON report is canonical and byte-stable, and every rule both fires
//! on its fixture snippet and is silenced by the fixture's
//! `audit:allow` twin (tests/fixtures/audit/).

use mocc::audit::manifest::audit_manifest;
use mocc::audit::rules::{audit_source, RULES};
use mocc::audit::{audit_workspace, Finding};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    let path = repo_root().join("tests/fixtures/audit").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// Audits one fixture through the scanner matching its extension.
fn audit_fixture(name: &str) -> Vec<Finding> {
    let text = fixture(name);
    if Path::new(name).extension().is_some_and(|e| e == "toml") {
        audit_manifest(name, &text)
    } else {
        audit_source(name, &text)
    }
}

/// The workspace must satisfy its own contracts: `mocc audit` exits
/// clean on this repository.
#[test]
fn workspace_is_audit_clean() {
    let report = audit_workspace(&repo_root()).unwrap();
    assert!(
        report.is_clean(),
        "the workspace must be audit-clean; findings:\n{}",
        report.to_text()
    );
    assert!(report.files_scanned > 50, "the scan must cover the crates");
}

/// A root that is not a workspace — missing, without a manifest, or
/// with a member's manifest — is an error naming it, never a clean
/// report: the CI gate must not pass on a mistyped root.
#[test]
fn non_workspace_roots_are_errors_not_clean_reports() {
    for rel in ["no-such-dir", "docs", "crates/audit"] {
        let root = repo_root().join(rel);
        let err = audit_workspace(&root).expect_err("not a workspace root");
        let msg = err.to_string();
        assert!(msg.contains(&root.display().to_string()), "{msg}");
    }
}

/// The JSON report is canonical: byte-stable across runs, keys in
/// sorted order, newline-terminated.
#[test]
fn json_report_is_canonical_and_stable() {
    let a = audit_workspace(&repo_root()).unwrap().to_json();
    let b = audit_workspace(&repo_root()).unwrap().to_json();
    assert_eq!(a, b, "two audits of the same tree must emit equal bytes");
    assert!(a.starts_with("{\"files_scanned\":"));
    assert!(a.ends_with("]}\n") || a.ends_with("}\n"));
}

/// Every rule fires on its `_fires` fixture and is silenced by its
/// `_allowed` twin — including that the twin's allows are all consumed
/// (no stale-allow findings).
#[test]
fn each_rule_fires_and_is_suppressed_by_its_allow_twin() {
    let cases = [
        ("clock-discipline", "clock_discipline", "rs"),
        ("no-randomized-containers", "no_randomized_containers", "rs"),
        ("unsafe-hygiene", "unsafe_hygiene", "rs"),
        ("float-determinism", "float_determinism", "rs"),
        ("env-discipline", "env_discipline", "rs"),
        ("vendoring-audit", "vendoring_audit", "toml"),
    ];
    for (rule, stem, ext) in cases {
        let fired = audit_fixture(&format!("{stem}_fires.{ext}"));
        assert!(
            fired.iter().any(|f| f.rule == rule),
            "{rule} must fire on its fixture; got: {fired:?}"
        );
        let allowed = audit_fixture(&format!("{stem}_allowed.{ext}"));
        assert!(
            allowed.is_empty(),
            "{rule}'s allow twin must be finding-free (allows consumed); got: {allowed:?}"
        );
    }
}

/// The float-determinism fixture exercises all three forbidden shapes.
#[test]
fn float_fixture_covers_all_three_shapes() {
    let fired = audit_fixture("float_determinism_fires.rs");
    let floats: Vec<_> = fired
        .iter()
        .filter(|f| f.rule == "float-determinism")
        .collect();
    assert!(
        floats.len() >= 3,
        "expected mul_add, partial_cmp, and fold findings; got: {floats:?}"
    );
}

/// Findings carry an actionable location and hint.
#[test]
fn findings_point_at_file_line_and_hint() {
    let fired = audit_fixture("env_discipline_fires.rs");
    let f = fired
        .iter()
        .find(|f| f.rule == "env-discipline")
        .expect("env fixture must fire");
    assert_eq!(f.file, "env_discipline_fires.rs");
    assert!(f.line > 0);
    assert!(!f.hint.is_empty(), "every finding carries a fix hint");
}

/// The rule table the CLI and docs enumerate stays in sync with the
/// fixture corpus: every non-meta rule has fixture coverage above.
#[test]
fn rule_table_matches_fixture_coverage() {
    let covered = [
        "clock-discipline",
        "no-randomized-containers",
        "unsafe-hygiene",
        "float-determinism",
        "env-discipline",
        "vendoring-audit",
        "allow-syntax",
    ];
    for r in RULES {
        assert!(
            covered.contains(&r.id),
            "rule {} has no fixture coverage; add one under tests/fixtures/audit/",
            r.id
        );
    }
}
