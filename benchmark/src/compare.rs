//! `compare a.json b.json`: is `b` worse than baseline `a` by more than
//! each end-to-end metric's bound, per (metric, workload)?
//!
//! The bound applies to the value each run reports — for a timed metric,
//! that of its best rep (see the noise policy in `run.rs`).
//!
//! * `ok` — `b`'s value is no worse than `a`'s by more than the bound; for
//!   an exact count, the two are equal to the last digit.
//! * `regressed` — worse by more than the bound, and the quartiles of the
//!   two runs' repetitions do not even overlap.
//! * `unresolved` — worse by more than the bound, but the spread between
//!   repetitions is wider than the difference: the machine may have been
//!   busy throughout `b`. Run again before calling it either way.

use crate::json::Json;
use crate::metrics::{Better, Rule, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric of one workload.
pub fn judge(better: Better, rule: Rule, a: Summary, b: Summary) -> Verdict {
    let bound = match rule {
        Rule::Exact if a.value == b.value => return Verdict::Ok,
        Rule::Exact => return Verdict::Regressed,
        Rule::Bound(bound) => bound,
    };
    // Orient both runs so that larger is worse.
    let (a_value, b_value, a_slow_quartile, b_fast_quartile) = match better {
        Better::Lower => (a.value, b.value, a.q3, b.q1),
        Better::Higher => (-a.value, -b.value, -a.q1, -b.q3),
    };
    if b_value - a_value <= bound * a_value.abs() {
        Verdict::Ok
    } else if b_fast_quartile > a_slow_quartile {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// The workloads of a results file: the `workloads` object of a merged
/// `results.json`, or a single workload's own file.
fn workloads(doc: &Json) -> Vec<(&str, &Json)> {
    match doc.get("workloads").and_then(Json::as_object) {
        Some(map) => map.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        None => doc
            .get("workload")
            .and_then(Json::as_str)
            .map(|name| vec![(name, doc)])
            .unwrap_or_default(),
    }
}

fn summary(workload: &Json, metric: &str) -> Option<Summary> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Summary {
        value: m.get("value")?.as_f64()?,
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_f64()? as usize,
    })
}

/// Compare two results documents. Prints one line per (workload, metric);
/// returns the worst verdict, or an error when nothing could be compared.
pub fn compare(a: &Json, b: &Json) -> Result<Verdict, String> {
    let mut worst = Verdict::Ok;
    let mut compared = 0;
    for (name, wa) in workloads(a) {
        let Some((_, wb)) = workloads(b).into_iter().find(|(n, _)| *n == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        if wa.get("seed") != wb.get("seed") || wa.get("smoke") != wb.get("smoke") {
            return Err(format!("{name}: the two runs differ in seed or size"));
        }
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary(wa, def.name), summary(wb, def.name)) else {
                return Err(format!("{name}: metric {} is missing", def.name));
            };
            let verdict = judge(def.better, def.rule, sa, sb);
            let change = if sa.value == 0.0 {
                sb.value - sa.value
            } else {
                (sb.value - sa.value) / sa.value * 100.0
            };
            let rule = match def.rule {
                Rule::Exact => "exact".to_string(),
                Rule::Bound(bound) => format!("bound {:.0}%", bound * 100.0),
            };
            println!(
                "{name} {} {} {} -> {} {} ({change:+.2}{}, {rule}, {} better)",
                def.name,
                verdict.as_str(),
                sa.value,
                sb.value,
                def.unit,
                if sa.value == 0.0 { "" } else { "%" },
                def.better.as_str(),
            );
            compared += 1;
            worst = match (worst, verdict) {
                (Verdict::Regressed, _) | (_, Verdict::Regressed) => Verdict::Regressed,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        }
    }
    if compared == 0 {
        return Err("no workload found in the first file".into());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value * 0.99,
            q3: value * 1.01,
            n: 11,
        }
    }

    #[test]
    fn bound_applies_in_the_metrics_direction() {
        let ops = (Better::Higher, Rule::Bound(0.10));
        assert_eq!(judge(ops.0, ops.1, tight(100.0), tight(97.0)), Verdict::Ok);
        assert_eq!(
            judge(ops.0, ops.1, tight(100.0), tight(85.0)),
            Verdict::Regressed
        );
        assert_eq!(judge(ops.0, ops.1, tight(100.0), tight(150.0)), Verdict::Ok);
        let ns = (Better::Lower, Rule::Bound(0.10));
        assert_eq!(judge(ns.0, ns.1, tight(100.0), tight(103.0)), Verdict::Ok);
        assert_eq!(
            judge(ns.0, ns.1, tight(100.0), tight(115.0)),
            Verdict::Regressed
        );
        assert_eq!(judge(ns.0, ns.1, tight(100.0), tight(50.0)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_regressed() {
        let noisy = |value: f64| Summary {
            value,
            median: value,
            q1: value * 0.8,
            q3: value * 1.2,
            n: 11,
        };
        assert_eq!(
            judge(Better::Higher, Rule::Bound(0.10), noisy(100.0), noisy(85.0)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_must_match_to_the_last_digit() {
        let exact = (Better::Lower, Rule::Exact);
        assert_eq!(
            judge(exact.0, exact.1, tight(4.25), tight(4.25)),
            Verdict::Ok
        );
        assert_eq!(
            judge(exact.0, exact.1, tight(4.25), tight(4.2500001)),
            Verdict::Regressed
        );
        // Fewer events per op is still a behaviour change to account for.
        assert_eq!(
            judge(exact.0, exact.1, tight(4.25), tight(4.0)),
            Verdict::Regressed
        );
    }
}
