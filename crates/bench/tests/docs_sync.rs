//! README ↔ `BENCH_simcore.json` sync: the census throughputs README's
//! *Measuring it* quotes are the committed full run's rows, rounded as
//! printed. Re-recording the artifact without touching README fails here.
//! Also ROADMAP's doc rules as a ratchet: README and CHANGES.md do not
//! grow past their ceilings, and a PR's history is one CHANGES.md entry
//! of at most 1.6 kB.

const README: &str = include_str!("../../../README.md");
const CHANGES: &str = include_str!("../../../CHANGES.md");
const ARTIFACT: &str = include_str!("../../../BENCH_simcore.json");

#[test]
fn readme_changes_and_each_recent_entry_stay_inside_their_budgets() {
    // Each file's size when its ratchet was last set: README's exact,
    // CHANGES.md's rounded up to the next kB. Lower them when the files
    // shrink; never raise them.
    const README_MAX_BYTES: usize = 34_161;
    const CHANGES_MAX_BYTES: usize = 17_000;
    const ENTRY_MAX_BYTES: usize = 1_600;
    for (file, len, max) in [
        ("README.md", README.len(), README_MAX_BYTES),
        ("CHANGES.md", CHANGES.len(), CHANGES_MAX_BYTES),
    ] {
        assert!(
            len <= max,
            "{file} is {len} bytes, over its {max}-byte ceiling: say what is, \
             leave the detail to git"
        );
    }
    for entry in CHANGES.lines().filter(|line| !line.trim().is_empty()) {
        let pr: u32 = entry
            .strip_prefix("- PR ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("a CHANGES.md entry starts `- PR <n>:`: {entry:.60}"));
        assert!(
            entry.len() <= ENTRY_MAX_BYTES,
            "the CHANGES.md entry for PR {pr} is {} bytes, over {ENTRY_MAX_BYTES}",
            entry.len()
        );
    }
}

#[test]
fn readme_census_throughputs_match_the_committed_full_run() {
    let sweeps = bench::section_sweeps(ARTIFACT, "census");
    let quoted = |k: u32| {
        let (_, probes_per_second) = sweeps
            .iter()
            .find(|(shards, _)| *shards == k)
            .unwrap_or_else(|| panic!("BENCH_simcore.json has no census row at K={k}"));
        format!("{:.2} M", probes_per_second / 1e6)
    };
    let expected = format!(
        "`census` {} probes/s at K=1, {} at K=2, {} at K=8",
        quoted(1),
        quoted(2),
        quoted(8)
    );
    let section = README
        .split("### Measuring it")
        .nth(1)
        .expect("README has a Measuring it section")
        .split("\n#")
        .next()
        .expect("split yields a first piece");
    // README wraps its lines; compare on single-spaced text.
    let section = section.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(
        section.contains(&expected),
        "README *Measuring it* must quote the committed census sweep as\n  {expected}"
    );
}
