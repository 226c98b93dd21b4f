//! The lint eats its own dog food: the real workspace must scan clean.
//! This is the tier-1 guard that keeps the zero-findings state from
//! rotting between CI runs.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/detlint/../.. — anchored to the source tree, not the cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_scans_clean() {
    let root = workspace_root();
    assert!(
        root.join("detlint.toml").is_file(),
        "workspace policy file present at {}",
        root.display()
    );
    let outcome = detlint::scan_workspace(&root).expect("workspace scan succeeds");
    assert!(
        outcome.files_scanned > 50,
        "the walk must actually cover the workspace (saw {} files)",
        outcome.files_scanned
    );
    let unsuppressed: Vec<_> = outcome
        .findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .collect();
    assert!(
        unsuppressed.is_empty(),
        "workspace must be finding-free; fix or justify:\n{:#?}",
        unsuppressed
    );
}

#[test]
fn workspace_suppressions_all_used() {
    // scan_source already reports stale inline allows as findings; this
    // asserts the workspace-level policy entries pull their weight too —
    // every [[policy]] rule must actually suppress something.
    let root = workspace_root();
    let outcome = detlint::scan_workspace(&root).expect("workspace scan succeeds");
    assert!(
        outcome.findings.iter().any(|f| f.suppressed.is_some()),
        "policies exist, so suppressed findings must exist — otherwise \
         detlint.toml carries dead policy"
    );
}

/// The suppressed `needless-pub` findings — inline allows with a reason
/// and the test-support policies — may only fall. Lower the ceiling when
/// an allow goes; never raise it.
const NEEDLESS_PUB_SUPPRESSED_CEILING: usize = 35;

#[test]
fn needless_pub_suppressions_only_fall() {
    let outcome = detlint::scan_workspace(&workspace_root()).expect("workspace scan succeeds");
    let (unsuppressed, suppressed) = outcome.per_rule()["needless-pub"];
    assert_eq!(unsuppressed, 0, "fix or justify every needless-pub finding");
    assert!(
        suppressed <= NEEDLESS_PUB_SUPPRESSED_CEILING,
        "{suppressed} suppressed needless-pub findings exceed the ceiling of \
         {NEEDLESS_PUB_SUPPRESSED_CEILING}: delete or narrow the item instead"
    );
    assert!(
        outcome.pub_defs.is_some_and(|n| n > suppressed),
        "the workspace scan indexes the pub definitions it checks"
    );
}
