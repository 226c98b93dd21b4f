//! `detlint.toml` — the per-workspace policy file.
//!
//! A deliberately small TOML subset (the container has no registry
//! access, so no real TOML crate): `[section]` / `[[array-of-tables]]`
//! headers, `key = "string"`, and `key = ["a", "b", …]` arrays that may
//! span lines. Comments start at `#` outside quotes.
//!
//! ```toml
//! [scan]
//! exclude = ["crates/detlint/fixtures"]
//!
//! [ordered]
//! paths = ["crates/analysis/src"]
//!
//! [[policy]]
//! path = "crates/bench"
//! allow = ["wall-clock"]
//! reason = "benchmark harness: measuring wall time is its purpose"
//! ```

/// One per-crate (really per-path-prefix) rule allowance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    /// Workspace-relative path prefix the policy covers.
    pub path: String,
    /// Rule ids allowed under that prefix.
    pub allow: Vec<String>,
    /// Mandatory one-line justification, echoed in suppressed findings.
    pub reason: String,
}

/// Parsed policy file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes never scanned (rule fixtures, generated code).
    pub exclude: Vec<String>,
    /// Ordered-output modules: the only places `unordered-iter` applies.
    pub ordered: Vec<String>,
    /// Per-path rule allowances.
    pub policies: Vec<Policy>,
}

/// `rel` is covered by prefix `p` when equal or a path-component child.
fn covered(rel: &str, p: &str) -> bool {
    rel == p || (rel.len() > p.len() && rel.starts_with(p) && rel.as_bytes()[p.len()] == b'/')
}

impl Config {
    /// Load from a file; a missing file yields the empty default.
    pub fn load(path: &std::path::Path) -> Result<Config, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Config::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    pub fn is_excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|p| covered(rel, p))
    }

    pub fn is_ordered(&self, rel: &str) -> bool {
        self.ordered.iter().any(|p| covered(rel, p))
    }

    /// The policy allowing `rule` at `rel`, if any.
    pub fn policy_allowing(&self, rel: &str, rule: &str) -> Option<&Policy> {
        self.policies
            .iter()
            .find(|p| covered(rel, &p.path) && p.allow.iter().any(|r| r == rule))
    }

    /// Parse the TOML subset.
    pub fn parse(text: &str) -> Result<Config, String> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Scan,
            Ordered,
            Policy,
        }
        let mut cfg = Config::default();
        let mut section = Section::None;
        let mut pending = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if pending.is_empty() && line.starts_with('[') {
                section = match line {
                    "[scan]" => Section::Scan,
                    "[ordered]" => Section::Ordered,
                    "[[policy]]" => {
                        cfg.policies.push(Policy::default());
                        Section::Policy
                    }
                    other => return Err(format!("line {}: unknown section {other}", lineno + 1)),
                };
                continue;
            }
            if !pending.is_empty() {
                pending.push(' ');
            }
            pending.push_str(line);
            if !brackets_balanced(&pending) {
                continue; // array continues on the next line
            }
            let stmt = std::mem::take(&mut pending);
            let (key, value) = stmt
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let key = key.trim();
            let value = value.trim();
            match (&section, key) {
                (Section::Scan, "exclude") => cfg.exclude = parse_array(value)?,
                (Section::Ordered, "paths") => cfg.ordered = parse_array(value)?,
                (Section::Policy, "path") => current_policy(&mut cfg)?.path = parse_string(value)?,
                (Section::Policy, "allow") => current_policy(&mut cfg)?.allow = parse_array(value)?,
                (Section::Policy, "reason") => {
                    current_policy(&mut cfg)?.reason = parse_string(value)?
                }
                _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
            }
        }
        if !pending.is_empty() {
            return Err("unterminated array at end of file".into());
        }
        for p in &cfg.policies {
            if p.path.is_empty() {
                return Err("[[policy]] without a `path`".into());
            }
            if p.reason.is_empty() {
                return Err(format!("[[policy]] for `{}` without a `reason`", p.path));
            }
        }
        Ok(cfg)
    }
}

fn current_policy(cfg: &mut Config) -> Result<&mut Policy, String> {
    cfg.policies
        .last_mut()
        .ok_or_else(|| "key outside a [[policy]] table".into())
}

/// Cut a `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `"…"` with no escape support (policy paths and reasons never need it).
fn parse_string(v: &str) -> Result<String, String> {
    let v = v.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{v}`"))?;
    if inner.contains('"') {
        return Err(format!("stray quote inside `{v}`"));
    }
    Ok(inner.to_string())
}

/// `["a", "b", …]`, possibly already joined from several lines.
fn parse_array(v: &str) -> Result<Vec<String>, String> {
    let v = v.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got `{v}`"))?;
    let mut out = Vec::new();
    for item in split_items(inner) {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

/// Split on commas outside quotes.
fn split_items(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Brackets balanced outside quotes — complete statement test.
fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# workspace policy
[scan]
exclude = ["crates/detlint/fixtures"]

[ordered]
paths = [
    "crates/analysis/src",  # report surfaces
    "crates/scanner/src/shard.rs",
]

[[policy]]
path = "crates/bench"
allow = ["wall-clock"]
reason = "benchmark harness"

[[policy]]
path = "vendor/rand"
allow = ["fault-draw", "env-dependent"]
reason = "vendored RNG shim"
"#,
        )
        .unwrap();
        assert!(cfg.is_excluded("crates/detlint/fixtures/wall_clock.rs"));
        assert!(!cfg.is_excluded("crates/detlint/src/lib.rs"));
        assert!(cfg.is_ordered("crates/analysis/src/ranking.rs"));
        assert!(cfg.is_ordered("crates/scanner/src/shard.rs"));
        assert!(!cfg.is_ordered("crates/scanner/src/transactional.rs"));
        assert!(cfg
            .policy_allowing("crates/bench/benches/x.rs", "wall-clock")
            .is_some());
        assert!(cfg
            .policy_allowing("crates/bench/benches/x.rs", "env-dependent")
            .is_none());
        assert_eq!(
            cfg.policy_allowing("vendor/rand/src/lib.rs", "fault-draw")
                .unwrap()
                .reason,
            "vendored RNG shim"
        );
    }

    #[test]
    fn prefix_matching_respects_component_boundaries() {
        let cfg = Config {
            ordered: vec!["crates/analysis/src".into()],
            ..Config::default()
        };
        assert!(!cfg.is_ordered("crates/analysis/srcx/evil.rs"));
        assert!(cfg.is_ordered("crates/analysis/src"));
    }

    #[test]
    fn policy_requires_reason() {
        let err = Config::parse("[[policy]]\npath = \"crates/x\"\nallow = [\"wall-clock\"]\n")
            .unwrap_err();
        assert!(err.contains("without a `reason`"), "{err}");
    }

    #[test]
    fn unknown_keys_and_sections_rejected() {
        assert!(Config::parse("[bogus]\n").is_err());
        assert!(Config::parse("[scan]\ninclude = [\"x\"]\n").is_err());
    }

    #[test]
    fn missing_file_is_default() {
        let cfg = Config::load(std::path::Path::new("/nonexistent/detlint.toml")).unwrap();
        assert_eq!(cfg, Config::default());
    }
}
