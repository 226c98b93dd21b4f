//! Fixture: hash collections inside an ordered-output module (this file
//! is designated `[ordered]` by the fixture-local detlint.toml).

use netsim::IntMap;
use std::collections::{HashMap, HashSet};

fn tally(xs: &[u32]) -> Vec<(u32, usize)> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for x in xs {
        *counts.entry(*x).or_insert(0) += 1;
        seen.insert(*x);
    }
    counts.into_iter().collect() // iteration order leaks into the report
}

fn tally_by_id(xs: &[u32]) -> Vec<(u32, usize)> {
    // A fixed seed makes this order repeat, not sorted: still a finding.
    let mut counts: IntMap<u32, usize> = IntMap::default();
    for x in xs {
        *counts.entry(*x).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}
