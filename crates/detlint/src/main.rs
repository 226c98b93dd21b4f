//! CLI: `cargo run -p detlint -- --workspace` (or the `cargo detlint`
//! alias). Exits 0 when the tree carries zero unsuppressed findings,
//! 1 on findings, 2 on usage or I/O errors.

use std::path::PathBuf;

const USAGE: &str = "\
detlint — workspace determinism lint

USAGE:
    detlint --workspace [--suppressed] [--root <dir>]
    detlint [--root <dir>] <file.rs>…

    --workspace    scan every .rs file under the workspace root
    --suppressed   also print suppressed findings
    --root <dir>   workspace root (default: nearest ancestor with a
                   detlint.toml, else the current directory)
";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut workspace = false;
    let mut show_suppressed = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--suppressed" => show_suppressed = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a path\n\n{USAGE}");
                    return 2;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return 0;
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag `{other}`\n\n{USAGE}");
                return 2;
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if !workspace && files.is_empty() {
        eprintln!("error: pass --workspace or at least one file\n\n{USAGE}");
        return 2;
    }
    if workspace && !files.is_empty() {
        eprintln!("error: --workspace and explicit files are mutually exclusive\n\n{USAGE}");
        return 2;
    }

    let root = root.unwrap_or_else(find_root);
    let outcome = if workspace {
        detlint::scan_workspace(&root)
    } else {
        detlint::Config::load(&root.join("detlint.toml"))
            .and_then(|cfg| detlint::scan_paths(&root, &cfg, &files))
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("detlint: error: {e}");
            return 2;
        }
    };

    print!("{}", outcome.render_human(show_suppressed));
    if outcome.unsuppressed_count() == 0 {
        0
    } else {
        1
    }
}

/// Nearest ancestor of the current directory holding a `detlint.toml`
/// (the workspace root), else the current directory itself.
fn find_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        if dir.join("detlint.toml").is_file() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return cwd,
        }
    }
}
