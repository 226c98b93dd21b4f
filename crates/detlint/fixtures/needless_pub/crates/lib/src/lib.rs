//! needless-pub fixture: a mini-workspace scanned with
//! `detlint --workspace --root crates/detlint/fixtures/needless_pub`.

mod helpers;

/// Flagged: only a `#[cfg(test)]` module (in `helpers.rs`) calls it.
pub fn only_in_cfg_test() {}

/// Flagged: only `crates/lib/tests/it.rs` calls it.
pub fn only_under_tests() {}

/// Flagged with the "narrow" message: only this file calls it.
pub fn only_in_own_file() {}

/// Flagged: `examples/demo.rs` names it only in a `use` line, a string
/// and a comment.
pub struct OnlyInUseStringComment;

/// Clean: `examples/demo.rs` calls it.
pub fn called_from_example() -> InASignature {
    let _ = OnlyInABody;
    InASignature
}

/// Clean: the signature of `called_from_example`, a `pub` item of its
/// own file, names it, so it cannot be narrowed.
pub struct InASignature;

/// Flagged with the "narrow" message: a `pub` function's body names it,
/// its signature does not.
pub struct OnlyInABody;

/// Clean: `crates/lib/benches/bench.rs` calls it.
pub const CALLED_FROM_BENCH: u32 = 1;

/// Clean: `benchmark/src/main.rs` calls it.
pub fn called_from_benchmark() {}

/// Ignored: `pub(crate)` is out of the rule's scope.
pub(crate) fn crate_visible() {}

fn caller() {
    only_in_own_file();
    crate_visible();
}
