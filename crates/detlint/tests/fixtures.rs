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

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_detlint"))
        .output()
        .expect("detlint binary runs");
    assert_eq!(out.status.code(), Some(2), "no input is a usage error");
}
