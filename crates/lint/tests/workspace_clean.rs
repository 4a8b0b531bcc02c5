//! The repository must lint clean against its own checked-in baseline —
//! this is the same contract `ci.sh` enforces via the binary, expressed as
//! a plain `cargo test` so a violation fails the ordinary test run too.

use std::path::{Path, PathBuf};

use cuisine_lint::baseline::Baseline;
use cuisine_lint::diagnostics::Diagnostic;
use cuisine_lint::selfcheck::run_self_check;
use cuisine_lint::workspace::run_workspace;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn repository_lints_clean_against_its_baseline() {
    let root = workspace_root();
    let baseline = Baseline::load(&root.join("lint.toml")).expect("baseline parses");
    assert!(
        !baseline.entries.is_empty(),
        "the checked-in baseline must carry the justified suppressions \
         (serve timing/metrics, the accept-loop thread, startup fail-fast sites)"
    );

    let report = run_workspace(&root, &baseline).expect("lint run completes");
    assert!(report.files_scanned > 100, "walker should see the whole workspace");
    let rendered: Vec<String> =
        report.diagnostics.iter().map(Diagnostic::render_human).collect();
    assert!(
        report.diagnostics.is_empty(),
        "non-baselined contract violations:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.unused_baseline.is_empty(),
        "stale baseline entries (fix the pattern or delete them): {:?}",
        report.unused_baseline
    );
    assert!(report.suppressed > 0, "the baseline should be live, not decorative");
}

#[test]
fn every_baseline_entry_names_an_existing_file() {
    let root = workspace_root();
    let baseline = Baseline::load(&root.join("lint.toml")).expect("baseline parses");
    for entry in &baseline.entries {
        assert!(
            root.join(&entry.path).is_file(),
            "baseline entry at lint.toml:{} points at a missing file {:?}",
            entry.line,
            entry.path
        );
    }
}

#[test]
fn self_check_fixtures_all_pass() {
    let failures: Vec<String> = run_self_check()
        .into_iter()
        .filter(|r| !r.passed)
        .map(|r| format!("{}: {}", r.name, r.detail))
        .collect();
    assert!(failures.is_empty(), "self-check failures:\n{}", failures.join("\n"));
}

#[test]
fn lint_runs_are_deterministic() {
    let root = workspace_root();
    let baseline = Baseline::load(&root.join("lint.toml")).expect("baseline parses");
    let render = |root: &Path| {
        let report = run_workspace(root, &baseline).expect("lint run completes");
        (
            report.files_scanned,
            report.suppressed,
            report
                .diagnostics
                .iter()
                .map(Diagnostic::render_human)
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(render(&root), render(&root));
}

#[test]
fn unsafe_lives_only_in_the_readiness_shim() {
    // U1 runs in the clean-lint test above; this pins that the rule sees
    // the shim's real `unsafe` (so it is live, not vacuous) and that no
    // baseline entry waives it anywhere.
    let root = workspace_root();
    let baseline = Baseline::load(&root.join("lint.toml")).expect("baseline parses");
    assert!(
        baseline.entries.iter().all(|entry| entry.rule != "U1"),
        "U1 takes no baseline entries: move the code into the readiness shim"
    );
    let shim = root.join(cuisine_lint::rules::u1_unsafe::UNSAFE_HOME);
    let text = std::fs::read_to_string(&shim).expect("readiness shim exists");
    assert!(text.contains("unsafe {"), "the shim holds the workspace's one unsafe block");
    let stripped = text.replace("// SAFETY:", "// Note:");
    let flagged = cuisine_lint::workspace::lint_source(
        cuisine_lint::rules::u1_unsafe::UNSAFE_HOME,
        &stripped,
    );
    assert!(
        flagged.iter().any(|d| d.rule == "U1"),
        "an unsafe block without its SAFETY comment must fail U1"
    );
}
