//! `needless-pub`, the one cross-file rule: dead public surface.
//!
//! It indexes the bare-`pub` items of library source (`crates/*/src`,
//! `vendor/*/src`, `src/`; not `bin/`, `main.rs`, `tests/`, `benches/`,
//! `fixtures/`) against the identifiers the other scanned files use in
//! code. Not callers: `use` declarations, `#[cfg(test)]` / `#[test]` items
//! and files under `tests/`. A name the signature of another bare-`pub`
//! item of its own file uses is in use: it cannot be narrowed while that
//! item is public. Matching is by name, so a collision can only hide a
//! finding: the count is a lower bound.

use crate::lexer::{Lexed, Tok, Token};
use crate::rules::RawFinding;
use std::collections::{BTreeMap, BTreeSet};

/// The rule id.
pub(crate) const ID: &str = "needless-pub";

/// Item keywords a bare `pub` can introduce.
const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Code,
    Use,
    Test,
}

fn ident(t: &[Token], k: usize) -> Option<&str> {
    match t.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Do the tokens from `k` spell `seq` (identifiers and one-char punctuation)?
fn spells(t: &[Token], k: usize, seq: &[&str]) -> bool {
    seq.iter()
        .enumerate()
        .all(|(j, s)| match t.get(k + j).map(|t| &t.tok) {
            Some(Tok::Ident(id)) => id == s,
            Some(Tok::Punct(p)) => s.len() == 1 && s.starts_with(*p),
            _ => false,
        })
}

/// Last token of the item starting at `k`: its `;`, or the brace closing
/// its body.
fn item_end(t: &[Token], k: usize) -> usize {
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(k) {
        match tok.tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']') => depth = depth.saturating_sub(1),
            Tok::Punct('}') if depth <= 1 => return j,
            Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth == 0 => return j,
            _ => {}
        }
    }
    t.len() - 1
}

/// Tag each token as code, part of a `use` declaration, or part of a
/// `#[cfg(test)]` / `#[test]` item.
fn roles(t: &[Token]) -> Vec<Role> {
    let mut role = vec![Role::Code; t.len()];
    let mut i = 0;
    while i < t.len() {
        let (attr, kind) = if spells(t, i, &["#", "[", "test", "]"]) {
            (4, Role::Test)
        } else if spells(t, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            (7, Role::Test)
        } else if ident(t, i) == Some("use") {
            (0, Role::Use)
        } else {
            i += 1;
            continue;
        };
        let end = item_end(t, i + attr);
        role[i..=end].fill(kind);
        i = end + 1;
    }
    role
}

/// Library source: where a bare `pub` item is public surface.
fn is_library(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    let (["src", rest @ ..] | ["crates" | "vendor", _, "src", rest @ ..]) = parts.as_slice() else {
        return false;
    };
    !rest
        .iter()
        .any(|p| matches!(*p, "bin" | "tests" | "benches" | "fixtures" | "main.rs"))
}

/// Identifiers the signature of the item whose keyword is at `k` names:
/// parameter and return types, fields, variants, an alias or a constant's
/// type. A type named there cannot be narrowed while that item is `pub`.
fn signature<'a>(t: &'a [Token], k: usize, kind: &'a str) -> impl Iterator<Item = &'a str> {
    let end = if kind == "mod" { k } else { item_end(t, k) };
    (k + 2..end)
        .take_while(move |&j| {
            !matches!(
                (kind, &t[j].tok),
                ("fn", Tok::Punct('{')) | ("const" | "static", Tok::Punct('='))
            )
        })
        .filter_map(move |j| ident(t, j))
}

/// The `needless-pub` findings of each file (in input order) and the
/// number of `pub` definitions indexed.
pub(crate) fn needless_pub(files: &[(String, Lexed)]) -> (Vec<Vec<RawFinding>>, usize) {
    let roles: Vec<Vec<Role>> = files.iter().map(|(_, l)| roles(&l.tokens)).collect();
    // How many files outside `tests/` name each identifier in code, own file included.
    let mut callers: BTreeMap<&str, usize> = BTreeMap::new();
    for ((rel, lexed), role) in files.iter().zip(&roles) {
        let (t, counted) = (&lexed.tokens, !rel.split('/').any(|p| p == "tests"));
        let code = (0..t.len()).filter(|&k| counted && role[k] == Role::Code);
        for name in code.filter_map(|k| ident(t, k)).collect::<BTreeSet<_>>() {
            *callers.entry(name).or_default() += 1;
        }
    }
    let mut indexed = 0;
    let mut out = vec![Vec::new(); files.len()];
    for (f, (_, lexed)) in files
        .iter()
        .enumerate()
        .filter(|(_, (rel, _))| is_library(rel))
    {
        let (t, role) = (&lexed.tokens, &roles[f]);
        // (`pub` token, keyword token, keyword, name) of each definition.
        let defs: Vec<(usize, usize, &str, &str)> = (0..t.len())
            .filter(|&i| ident(t, i) == Some("pub") && role[i] != Role::Test)
            .filter_map(|i| {
                let skip = |k| {
                    matches!(ident(t, k), Some("unsafe" | "async"))
                        || spells(t, k, &["const", "fn"])
                };
                let k = (i + 1..).find(|&k| !skip(k))?;
                let (kind, name) = (ident(t, k)?, ident(t, k + 1)?);
                KINDS.contains(&kind).then_some((i, k, kind, name))
            })
            .collect();
        indexed += defs.len();
        for &(i, k, kind, name) in &defs {
            let in_signature =
                |&(_, dk, dkind, _): &_| dk != k && signature(t, dk, dkind).any(|n| n == name);
            if callers.get(name) > Some(&1) || defs.iter().any(in_signature) {
                continue;
            }
            let named_here = (0..t.len())
                .any(|j| j != k + 1 && role[j] != Role::Test && ident(t, j) == Some(name));
            let fix = match named_here {
                true => "is named only in its own file: narrow it to `pub(crate)` or private",
                false => "is named by no non-test code: delete it, or move it to test support",
            };
            let message = format!("`pub {kind} {name}` {fix}");
            out[f].push(RawFinding {
                rule: ID,
                line: t[i].line,
                col: t[i].col,
                message,
            });
        }
    }
    (out, indexed)
}
