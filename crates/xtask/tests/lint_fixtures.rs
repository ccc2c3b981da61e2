//! End-to-end tests for mlvc-lint over the seeded-violation fixtures in
//! `tests/fixtures/`. The fixture subtree mirrors real workspace paths
//! because rule scoping is path-based; the CLI strips everything through
//! the `fixtures/` component when deriving the scope path.

use std::path::PathBuf;
use std::process::Command;

use xtask::Diagnostic;

/// (fixture path under tests/fixtures/, scope path the CLI derives).
const FIXTURES: [(&str, &str); 17] = [
    ("crates/ssd/src/bad_cast.rs", "no-truncating-cast"),
    ("crates/ssd/src/bad_cache.rs", "no-truncating-cast"),
    ("crates/core/src/bad_panic.rs", "no-panic-in-lib"),
    ("crates/log/src/bad_layout.rs", "no-magic-layout-literal"),
    ("crates/log/src/bad_logpage.rs", "no-magic-layout-literal"),
    ("crates/ssd/src/bad_wallclock.rs", "no-wallclock-in-sim"),
    ("crates/apps/src/bad_lock.rs", "no-lock-across-par"),
    ("crates/recover/src/bad_ckpt.rs", "no-truncating-cast"),
    ("crates/obs/src/bad_counters.rs", "no-truncating-cast"),
    ("crates/core/src/bad_spawn.rs", "no-raw-thread-spawn"),
    ("crates/apps/src/bad_capture.rs", "no-shared-mut-capture-in-par"),
    ("crates/log/src/bad_relaxed.rs", "no-relaxed-ordering-outside-obs"),
    ("src/bin/bad_facade.rs", "no-raw-thread-spawn"),
    ("crates/serve/src/bad_serve.rs", "no-truncating-cast"),
    ("crates/mutate/src/bad_mutate.rs", "no-truncating-cast"),
    ("crates/core/src/bad_long_fn.rs", "fn-too-long"),
    ("crates/graphchi/src/bad_long_fn.rs", "fn-too-long"),
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(rel: &str) -> Vec<Diagnostic> {
    let src = std::fs::read_to_string(fixture_dir().join(rel)).unwrap();
    xtask::lint_source(rel, &src)
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags.iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
}

#[test]
fn cast_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/ssd/src/bad_cast.rs");
    // Line 5 holds two casts; line 9 one; line 14 is allow-suppressed and
    // the #[cfg(test)] cast at the bottom is exempt.
    assert_eq!(lines_of(&d, "no-truncating-cast"), vec![5, 5, 9]);
    assert!(d.iter().all(|d| d.rule == "no-truncating-cast"), "{d:?}");
}

#[test]
fn cache_fixture_fires_both_format_rules_and_allow_suppresses() {
    let d = lint_fixture("crates/ssd/src/bad_cache.rs");
    // Truncating cast at 8, page-size literal at 12; allow-suppressed
    // widening cast at 17 and the test module never fire.
    assert_eq!(lines_of(&d, "no-truncating-cast"), vec![8]);
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![12]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn panic_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/core/src/bad_panic.rs");
    // unwrap at 5, expect at 9, panic! at 13; allow-suppressed unwrap at
    // 18; unwrap_or_default and the test module never fire.
    assert_eq!(lines_of(&d, "no-panic-in-lib"), vec![5, 9, 13]);
    assert!(d.iter().all(|d| d.rule == "no-panic-in-lib"), "{d:?}");
}

#[test]
fn layout_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/log/src/bad_layout.rs");
    // 16 * 1024 at 5, 16384 at 9, record-byte 16 at 13; allow-suppressed
    // page literal at 19; the 0..16 loop bound never fires.
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![5, 9, 13]);
    assert!(d.iter().all(|d| d.rule == "no-magic-layout-literal"), "{d:?}");
}

#[test]
fn logpage_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/log/src/bad_logpage.rs");
    // Hand-derived page capacity (16 * 1024) at 5, widest-record byte
    // literal at 9, flat page size at 14; the allow-suppressed record
    // width at 19 and the codec-derived arithmetic never fire.
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![5, 9, 14]);
    assert!(d.iter().all(|d| d.rule == "no-magic-layout-literal"), "{d:?}");
}

#[test]
fn wallclock_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/ssd/src/bad_wallclock.rs");
    // The `use` at 4, Instant::now at 7, SystemTime in the signature at 10
    // and the call at 11, thread::sleep at 15; allow-suppressed Instant::now
    // at 20.
    assert_eq!(lines_of(&d, "no-wallclock-in-sim"), vec![4, 7, 10, 11, 15]);
    assert!(d.iter().all(|d| d.rule == "no-wallclock-in-sim"), "{d:?}");
}

#[test]
fn lock_fixture_fires_across_fanout_and_io_only() {
    let d = lint_fixture("crates/apps/src/bad_lock.rs");
    // Guard live across par_map at 7 and across ssd. I/O at 13; the
    // drop()-released and block-scoped variants never fire.
    assert_eq!(lines_of(&d, "no-lock-across-par"), vec![7, 13]);
    assert!(d.iter().all(|d| d.rule == "no-lock-across-par"), "{d:?}");
}

#[test]
fn recover_fixture_fires_both_format_rules_and_allow_suppresses() {
    let d = lint_fixture("crates/recover/src/bad_ckpt.rs");
    // Truncating casts at 6 and 10, page-size literal at 14;
    // allow-suppressed widening cast at 19 and the test module never fire.
    assert_eq!(lines_of(&d, "no-truncating-cast"), vec![6, 10]);
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![14]);
    assert_eq!(d.len(), 3, "{d:?}");
}

#[test]
fn obs_fixture_fires_both_format_rules_and_allow_suppresses() {
    let d = lint_fixture("crates/obs/src/bad_counters.rs");
    // Truncating cast at 7, page-size literal at 11; allow-suppressed
    // widening cast at 16 and the test module never fire.
    assert_eq!(lines_of(&d, "no-truncating-cast"), vec![7]);
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![11]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn serve_fixture_fires_both_format_rules_and_allow_suppresses() {
    let d = lint_fixture("crates/serve/src/bad_serve.rs");
    // Truncating cast at 8, page-size literal at 12; allow-suppressed
    // widening cast at 17 and the test module never fire.
    assert_eq!(lines_of(&d, "no-truncating-cast"), vec![8]);
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![12]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn mutate_fixture_fires_both_format_rules_and_allow_suppresses() {
    let d = lint_fixture("crates/mutate/src/bad_mutate.rs");
    // Truncating cast at 7, page-size literal at 11; allow-suppressed
    // widening cast at 16 and the test module never fire.
    assert_eq!(lines_of(&d, "no-truncating-cast"), vec![7]);
    assert_eq!(lines_of(&d, "no-magic-layout-literal"), vec![11]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn spawn_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/core/src/bad_spawn.rs");
    // thread::spawn at 5, thread::scope at 10; allow-suppressed Builder at
    // 17 and the test-module spawn never fire.
    assert_eq!(lines_of(&d, "no-raw-thread-spawn"), vec![5, 10]);
    assert!(d.iter().all(|d| d.rule == "no-raw-thread-spawn"), "{d:?}");
}

#[test]
fn capture_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/apps/src/bad_capture.rs");
    // `&mut total` captured at 7, `.borrow_mut(` at 14; the sort's data
    // argument, the worker-private `let mut acc`, and the allow-suppressed
    // capture at 30 never fire.
    assert_eq!(lines_of(&d, "no-shared-mut-capture-in-par"), vec![7, 14]);
    assert!(d.iter().all(|d| d.rule == "no-shared-mut-capture-in-par"), "{d:?}");
}

#[test]
fn relaxed_fixture_fires_at_expected_lines_and_allow_suppresses() {
    let d = lint_fixture("crates/log/src/bad_relaxed.rs");
    // Relaxed at 7 and 11; SeqCst, the allow-suppressed load at 20, and the
    // test module never fire.
    assert_eq!(lines_of(&d, "no-relaxed-ordering-outside-obs"), vec![7, 11]);
    assert!(d.iter().all(|d| d.rule == "no-relaxed-ordering-outside-obs"), "{d:?}");
}

#[test]
fn long_fn_fixture_fires_at_the_fn_line_only() {
    let d = lint_fixture("crates/core/src/bad_long_fn.rs");
    // The 151-line `drive` opens at 7; the one-line `step` at 4 never fires.
    assert_eq!(lines_of(&d, "fn-too-long"), vec![7]);
    assert_eq!(d.len(), 1, "{d:?}");
}

#[test]
fn long_fn_rule_covers_the_baselines_and_only_the_engines() {
    let d = lint_fixture("crates/graphchi/src/bad_long_fn.rs");
    // The 151-line `drive` opens at 7, as in the core fixture.
    assert_eq!(lines_of(&d, "fn-too-long"), vec![7]);
    assert_eq!(d.len(), 1, "{d:?}");
    // The same function in a crate outside the engines is left alone.
    let d = lint_fixture("crates/apps/src/long_fn.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn every_fixture_fails_the_cli_with_exit_code_one() {
    for (rel, rule) in FIXTURES {
        let path = fixture_dir().join(rel);
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg("lint")
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{rel} must fail the lint (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "{rel} diagnostics must name {rule}, got:\n{stdout}"
        );
        // Diagnostics carry the scope path and 1-indexed lines.
        assert!(stdout.contains(&format!("{rel}:")), "{rel} path missing:\n{stdout}");
    }
}

#[test]
fn facade_fixture_proves_root_src_is_in_scope() {
    let d = lint_fixture("src/bin/bad_facade.rs");
    // The root facade is linted like any crate: raw spawn at 6, Relaxed at
    // 11.
    assert_eq!(lines_of(&d, "no-raw-thread-spawn"), vec![6]);
    assert_eq!(lines_of(&d, "no-relaxed-ordering-outside-obs"), vec![11]);
    assert_eq!(d.len(), 2, "{d:?}");
}

#[test]
fn waiver_report_lists_live_waivers_and_none_are_stale() {
    // Every allow directive in the workspace must still suppress something;
    // a stale one fails `lint --report-waivers` (and this backstop).
    let reports = xtask::report_waivers(&xtask::workspace_root()).unwrap();
    assert!(!reports.is_empty(), "the workspace has known reasoned waivers");
    let stale: Vec<_> = reports.iter().filter(|r| r.is_stale()).collect();
    assert!(stale.is_empty(), "stale waivers must be pruned: {stale:?}");
    assert!(
        reports.iter().all(|r| !r.file.starts_with("crates/xtask/")),
        "xtask quotes directives as data, not live waivers"
    );
}

#[test]
fn waiver_report_cli_exits_zero_with_no_stale_waivers() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--report-waivers")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[suppresses 1]"), "per-waiver counts missing:\n{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("0 stale"));
}

#[test]
fn workspace_lint_is_clean() {
    // The repo must stay violation-free: every historical violation is
    // either fixed or carries a reasoned allow. This is the enforcement
    // backstop for `cargo run -p xtask -- lint` exiting 0.
    let diags = xtask::lint_workspace(&xtask::workspace_root()).unwrap();
    assert!(
        diags.is_empty(),
        "workspace lint found {} violation(s):\n{}",
        diags.len(),
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}
