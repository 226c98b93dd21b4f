//! detlint — the workspace determinism lint.
//!
//! Every result this reproduction publishes (K-invariant shard censuses,
//! warm-world reuse, capture-driven replay) rests on a bit-identical
//! contract: the same seed and config must produce the same bytes, on
//! every run, at every shard count. Integration suites catch violations
//! *after* they happen; detlint refuses them statically. It scans every
//! `.rs` file in the workspace with its own lexer (no dependencies — the
//! build container has no registry access) and reports determinism
//! hazards with `file:line:col` diagnostics and a per-rule summary.
//!
//! Suppression is two-level and always justified:
//! - inline: an allow comment (`detlint` + `::allow(<rule>)`) followed by
//!   `: <why>`, on the offending line or the line above it;
//! - per-crate: a `[[policy]]` entry in `detlint.toml` with a `reason`.
//!
//! An allow without a justification is itself a finding
//! (`bad-suppression`), and an allow that suppresses nothing rots loudly
//! (`unused-suppression`).

mod config;
mod lexer;
mod rules;
mod surface;

pub use config::{Config, Policy};
pub use rules::{Rule, RULES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One finding, suppressed or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: String,
    pub message: String,
    /// `Some(origin-and-justification)` when suppressed.
    pub suppressed: Option<String>,
}

/// The result of a scan.
#[derive(Debug, Default)]
pub struct Outcome {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// `pub` definitions `needless-pub` indexed (workspace scans only).
    pub pub_defs: Option<usize>,
}

impl Outcome {
    fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    fn suppressed_count(&self) -> usize {
        self.findings.len() - self.unsuppressed_count()
    }

    /// Per-rule `(unsuppressed, suppressed)` counts, every registered
    /// rule present (zeros included) so summaries line up across runs.
    // detlint::allow(needless-pub): tests/selfcheck.rs pins the needless-pub ceiling with it
    pub fn per_rule(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut map: BTreeMap<&'static str, (usize, usize)> =
            RULES.iter().map(|r| (r.id, (0, 0))).collect();
        for f in &self.findings {
            if let Some(slot) = map.get_mut(f.rule.as_str()) {
                if f.suppressed.is_none() {
                    slot.0 += 1;
                } else {
                    slot.1 += 1;
                }
            }
        }
        map
    }

    /// Human diagnostics + per-rule summary table.
    pub fn render_human(&self, show_suppressed: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            match (&f.suppressed, show_suppressed) {
                (None, _) => {
                    out.push_str(&format!(
                        "{}:{}:{}: {}: {}\n",
                        f.file, f.line, f.col, f.rule, f.message
                    ));
                }
                (Some(why), true) => {
                    out.push_str(&format!(
                        "{}:{}:{}: {}: suppressed ({why})\n",
                        f.file, f.line, f.col, f.rule
                    ));
                }
                (Some(_), false) => {}
            }
        }
        out.push_str(&format!(
            "\ndetlint: scanned {} files\n",
            self.files_scanned
        ));
        if let Some(n) = self.pub_defs {
            out.push_str(&format!("detlint: indexed {n} `pub` definitions\n"));
        }
        out.push_str("  rule                  unsuppressed  suppressed\n");
        for (rule, (unsup, sup)) in self.per_rule() {
            out.push_str(&format!("  {rule:<22} {unsup:>11} {sup:>11}\n"));
        }
        let (unsup, sup) = (self.unsuppressed_count(), self.suppressed_count());
        if unsup == 0 {
            out.push_str(&format!(
                "detlint: clean — 0 unsuppressed findings ({sup} suppressed by inline allows/policy)\n"
            ));
        } else {
            out.push_str(&format!(
                "detlint: FAILED — {unsup} unsuppressed finding(s), {sup} suppressed\n"
            ));
            out.push_str(
                "  suppress a benign site with `// detlint::allow(<rule>): <justification>`\n",
            );
        }
        out
    }
}

/// Per-file rules plus `extra` (cross-file) findings, then suppression. In
/// file mode an allow naming `needless-pub`, a rule that did not run, is
/// never unused.
fn resolve(
    rel: &str,
    lexed: &lexer::Lexed,
    extra: Vec<rules::RawFinding>,
    cfg: &Config,
    workspace: bool,
) -> Vec<Finding> {
    let mut raw = rules::run_rules(lexed, cfg.is_ordered(rel));
    raw.extend(extra);
    let dirs = rules::directives(lexed);
    let mut used: Vec<bool> = dirs
        .iter()
        .map(|d| !workspace && d.rules.iter().any(|r| r == surface::ID))
        .collect();

    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let inline = dirs.iter().enumerate().find(|(_, d)| {
            d.error.is_none() && d.target == Some(f.line) && d.rules.iter().any(|r| r == f.rule)
        });
        let suppressed = match inline {
            Some((di, d)) => {
                used[di] = true;
                Some(format!(
                    "inline allow: {}",
                    d.justification.as_deref().unwrap_or("")
                ))
            }
            None => cfg
                .policy_allowing(rel, f.rule)
                .map(|p| format!("policy `{}`: {}", p.path, p.reason)),
        };
        findings.push(Finding {
            file: rel.to_string(),
            line: f.line,
            col: f.col,
            rule: f.rule.to_string(),
            message: f.message,
            suppressed,
        });
    }
    for (d, used) in dirs.iter().zip(used) {
        if let Some(err) = &d.error {
            findings.push(Finding {
                file: rel.to_string(),
                line: d.line,
                col: d.col,
                rule: "bad-suppression".into(),
                message: format!("malformed `detlint::allow`: {err}"),
                suppressed: None,
            });
        } else if !used {
            findings.push(Finding {
                file: rel.to_string(),
                line: d.line,
                col: d.col,
                rule: "unused-suppression".into(),
                message: format!(
                    "`detlint::allow({})` suppresses nothing — remove it or move it onto the \
                     offending line",
                    d.rules.join(", ")
                ),
                suppressed: None,
            });
        }
    }
    findings
        .sort_by(|a, b| (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str())));
    findings
}

/// Recursively collect `.rs` files under `root`, in sorted (deterministic)
/// order, skipping VCS/build directories and configured excludes.
fn walk_rs(root: &Path, cfg: &Config) -> Result<Vec<PathBuf>, String> {
    fn rec(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let rel = rel_path(root, &path);
            if cfg.is_excluded(&rel) {
                continue;
            }
            let meta =
                std::fs::symlink_metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if meta.is_dir() {
                rec(&path, root, cfg, out)?;
            } else if meta.is_file() && name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    rec(root, root, cfg, &mut out)?;
    Ok(out)
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scan every `.rs` file under `root`, honouring `root/detlint.toml`.
pub fn scan_workspace(root: &Path) -> Result<Outcome, String> {
    let cfg = Config::load(&root.join("detlint.toml"))?;
    let files = walk_rs(root, &cfg)?;
    scan(root, &cfg, &files, true)
}

/// Scan an explicit file list under a config rooted at `root`.
pub fn scan_paths(root: &Path, cfg: &Config, files: &[PathBuf]) -> Result<Outcome, String> {
    scan(root, cfg, files, false)
}

/// Lex every file, run the cross-file pass when `workspace`, then the
/// per-file rules and suppression.
fn scan(root: &Path, cfg: &Config, files: &[PathBuf], workspace: bool) -> Result<Outcome, String> {
    let mut lexed = Vec::with_capacity(files.len());
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        lexed.push((rel_path(root, path), lexer::lex(&src)));
    }
    let pass = workspace.then(|| surface::needless_pub(&lexed));
    let pub_defs = pass.as_ref().map(|(_, n)| *n);
    let extra = pass.map_or_else(|| vec![Vec::new(); lexed.len()], |(found, _)| found);
    let mut outcome = Outcome {
        files_scanned: lexed.len(),
        pub_defs,
        ..Outcome::default()
    };
    for ((rel, lexed), extra) in lexed.iter().zip(extra) {
        outcome
            .findings
            .extend(resolve(rel, lexed, extra, cfg, workspace));
    }
    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One file's source text in file mode: every rule but `needless-pub`.
    fn scan_source(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        resolve(rel, &lexer::lex(src), Vec::new(), cfg, false)
    }

    fn cfg() -> Config {
        Config {
            ordered: vec!["ordered".into()],
            policies: vec![Policy {
                path: "bench".into(),
                allow: vec!["wall-clock".into()],
                reason: "timing is the point".into(),
            }],
            ..Config::default()
        }
    }

    #[test]
    fn inline_allow_suppresses_and_is_used() {
        let src = "// detlint::allow(wall-clock): harness self-timing\nlet t = Instant::now();\n";
        let fs = scan_source("src/a.rs", src, &cfg());
        assert_eq!(fs.len(), 1);
        assert!(fs[0]
            .suppressed
            .as_deref()
            .unwrap()
            .contains("harness self-timing"));
    }

    #[test]
    fn policy_suppresses_whole_crate() {
        let fs = scan_source("bench/src/lib.rs", "let t = Instant::now();", &cfg());
        assert_eq!(fs.len(), 1);
        assert!(fs[0]
            .suppressed
            .as_deref()
            .unwrap()
            .contains("timing is the point"));
        // …but only the allowed rule.
        let fs = scan_source("bench/src/lib.rs", "let r = thread_rng();", &cfg());
        assert!(fs[0].suppressed.is_none());
    }

    #[test]
    fn unjustified_allow_is_a_finding() {
        let src = "// detlint::allow(wall-clock)\nlet t = Instant::now();\n";
        let fs = scan_source("src/a.rs", src, &cfg());
        // The wall-clock finding stays unsuppressed AND the directive is bad.
        assert_eq!(fs.iter().filter(|f| f.suppressed.is_none()).count(), 2);
        assert!(fs.iter().any(|f| f.rule == "bad-suppression"));
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "// detlint::allow(wall-clock): stale justification\nlet x = 1;\n";
        let fs = scan_source("src/a.rs", src, &cfg());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unused-suppression");
    }

    #[test]
    fn ordered_designation_comes_from_config() {
        let src = "use std::collections::HashMap;\n";
        assert!(scan_source("free/x.rs", src, &cfg()).is_empty());
        let fs = scan_source("ordered/x.rs", src, &cfg());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "unordered-iter");
    }

    #[test]
    fn wrong_rule_in_allow_does_not_suppress() {
        let src = "// detlint::allow(env-dependent): wrong rule named\nlet t = Instant::now();\n";
        let fs = scan_source("src/a.rs", src, &cfg());
        let unsup: Vec<_> = fs.iter().filter(|f| f.suppressed.is_none()).collect();
        // wall-clock unsuppressed + the directive unused.
        assert_eq!(unsup.len(), 2);
        assert!(unsup.iter().any(|f| f.rule == "wall-clock"));
        assert!(unsup.iter().any(|f| f.rule == "unused-suppression"));
    }

    #[test]
    fn human_summary_counts() {
        let src = "// detlint::allow(wall-clock): justified\nlet t = Instant::now();\nlet r = thread_rng();\n";
        let outcome = Outcome {
            findings: scan_source("src/a.rs", src, &Config::default()),
            files_scanned: 1,
            pub_defs: None,
        };
        let text = outcome.render_human(false);
        assert!(text.contains("FAILED — 1 unsuppressed"));
        assert!(text.contains("unseeded-rng"));
        assert_eq!(outcome.suppressed_count(), 1);
    }
}
