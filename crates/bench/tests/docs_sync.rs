//! README ↔ `BENCH_simcore.json` sync: the census throughputs README's
//! *Measuring it* quotes are the committed full run's rows, rounded as
//! printed. Re-recording the artifact without touching README fails here.
//! Also ROADMAP's doc rules as a ratchet: README does not grow, and a
//! PR's history is one CHANGES.md entry of about 1.5 kB.

const README: &str = include_str!("../../../README.md");
const CHANGES: &str = include_str!("../../../CHANGES.md");
const ARTIFACT: &str = include_str!("../../../BENCH_simcore.json");

#[test]
fn readme_and_the_newest_changes_entry_stay_inside_their_budgets() {
    // README's size when the ratchet was set, rounded up to the next kB.
    // Lower it when README shrinks; never raise it.
    const README_MAX_BYTES: usize = 38_000;
    const ENTRY_MAX_BYTES: usize = 1_600;
    assert!(
        README.len() <= README_MAX_BYTES,
        "README.md is {} bytes, over its {README_MAX_BYTES}-byte ceiling: say what is, \
         move history to CHANGES.md",
        README.len()
    );
    let newest = CHANGES
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .expect("CHANGES.md has an entry");
    assert!(
        newest.len() <= ENTRY_MAX_BYTES,
        "the newest CHANGES.md entry is {} bytes, over {ENTRY_MAX_BYTES}",
        newest.len()
    );
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
