//! End-to-end CLI runs against the seeded fixture violations: one test
//! per rule asserts a non-zero exit and the rule id in the diagnostics.

use std::path::PathBuf;
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Run the detlint binary over one fixture file with the fixtures dir as
/// root (its local detlint.toml marks `unordered_iter.rs` as ordered).
fn run_on(fixture: &str) -> (i32, String) {
    let root = fixtures_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--root")
        .arg(&root)
        .arg(root.join(fixture))
        .output()
        .expect("detlint binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

fn assert_flags(fixture: &str, rule: &str) {
    let (code, text) = run_on(fixture);
    assert_eq!(code, 1, "{fixture} must fail the lint:\n{text}");
    assert!(
        text.contains(&format!(" {rule}: ")),
        "{fixture} must report `{rule}`:\n{text}"
    );
}

#[test]
fn wall_clock_fixture_fails() {
    assert_flags("wall_clock.rs", "wall-clock");
}

#[test]
fn unseeded_rng_fixture_fails() {
    assert_flags("unseeded_rng.rs", "unseeded-rng");
}

#[test]
fn unordered_iter_fixture_fails() {
    assert_flags("unordered_iter.rs", "unordered-iter");
    // `netsim`'s fixed-seed alias must not walk past the rule.
    let (_, text) = run_on("unordered_iter.rs");
    assert!(text.contains(" unordered-iter: `IntMap` "), "{text}");
}

#[test]
fn env_dependent_fixture_fails() {
    assert_flags("env_dependent.rs", "env-dependent");
}

#[test]
fn ad_hoc_spawn_fixture_fails() {
    assert_flags("ad_hoc_spawn.rs", "ad-hoc-spawn");
}

#[test]
fn derive_hash_key_fixture_fails() {
    assert_flags("derive_hash_key.rs", "derive-hash-key");
}

#[test]
fn fault_draw_fixture_fails() {
    assert_flags("fault_draw.rs", "fault-draw");
}

#[test]
fn bad_suppression_fixture_fails() {
    assert_flags("bad_suppression.rs", "bad-suppression");
    // The same fixture carries a stale-but-well-formed allow: it must
    // surface as unused-suppression, and a broken directive must not
    // suppress the hazard it sits on.
    let (_, text) = run_on("bad_suppression.rs");
    assert!(text.contains(" unused-suppression: "), "{text}");
    assert!(text.contains(" wall-clock: "), "{text}");
}

#[test]
fn suppressed_fixture_is_clean() {
    let (code, text) = run_on("suppressed_clean.rs");
    assert_eq!(code, 0, "justified allows must silence the lint:\n{text}");
    assert!(text.contains("clean"), "{text}");
}

#[test]
fn lexer_tricky_fixture_is_clean() {
    let (code, text) = run_on("lexer_tricky.rs");
    assert_eq!(
        code, 0,
        "hazards inside strings/comments must not fire:\n{text}"
    );
}

/// `needless-pub` over the `needless_pub/` mini-workspace: each way of
/// naming an item that does not count as a caller leaves it flagged, each
/// that does (a public signature of its own file included) clears it, and
/// `pub(crate)` is out of scope.
#[test]
fn needless_pub_fixture_workspace() {
    let root = fixtures_dir().join("needless_pub");
    let run = |args: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
            .arg("--root")
            .arg(&root)
            .args(args)
            .output()
            .expect("detlint binary runs");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code().expect("exit code"), text)
    };
    let (code, text) = run(&["--workspace".as_ref()]);
    assert_eq!(code, 1, "{text}");
    let unused = "is named by no non-test code: delete it, or move it to test support";
    let own_file = "is named only in its own file: narrow it to `pub(crate)` or private";
    for flagged in [
        format!("`pub fn only_in_cfg_test` {unused}"),
        format!("`pub fn only_under_tests` {unused}"),
        format!("`pub fn only_in_own_file` {own_file}"),
        format!("`pub struct OnlyInUseStringComment` {unused}"),
        format!("`pub struct OnlyInABody` {own_file}"),
    ] {
        assert!(
            text.contains(&format!(" needless-pub: {flagged}\n")),
            "{flagged}:\n{text}"
        );
    }
    for clean in [
        "called_from_example",
        "InASignature",
        "CALLED_FROM_BENCH",
        "called_from_benchmark",
        "crate_visible",
    ] {
        assert!(
            !text.contains(clean),
            "{clean} must not be flagged:\n{text}"
        );
    }
    assert_eq!(text.matches(" needless-pub: ").count(), 5, "{text}");
    assert!(
        text.contains("detlint: indexed 9 `pub` definitions"),
        "{text}"
    );

    // A file list cannot see callers: the rule stays off in file mode.
    let lib = root.join("crates/lib/src/lib.rs");
    let (code, text) = run(&[lib.as_os_str()]);
    assert_eq!(code, 0, "{text}");
    assert!(!text.contains("indexed"), "{text}");
}

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .output()
        .expect("detlint binary runs");
    assert_eq!(out.status.code(), Some(2), "no input is a usage error");
}
