//! CI gate for fidelity to the paper, and the one command that
//! regenerates its evaluation.
//!
//! Renders the named rows of [`bench::PAPER`] — every table, figure and
//! design ablation by default — and holds each headline value to the band
//! its row carries. Worlds come from fixed seeds and nothing is sampled
//! at run time, so a value that moves is a behaviour change in the
//! pipeline or the generator, not noise. Fails on any value outside its
//! band, on any row the extractor cannot find (a missing country, project
//! or ASN is a failure, never a skip), and on an unknown artifact id.
//!
//! Usage: `fidelitygate [ID…]` — ids are those of [`bench::PAPER`].

use bench::paper::{select, Lab, PAPER};
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = match select(&ids) {
        Ok(artifacts) => artifacts,
        Err(unknown) => {
            let known: Vec<_> = PAPER.iter().map(|a| a.id).collect();
            eprintln!(
                "fidelitygate: unknown artifact {unknown:?}; known: {}",
                known.join(" ")
            );
            return ExitCode::FAILURE;
        }
    };

    let mut lab = Lab::default();
    let mut failed = Vec::new();
    for artifact in artifacts {
        bench::banner(
            &format!("{}: {}", artifact.id, artifact.title),
            artifact.paper,
        );
        let rendered = (artifact.run)(&mut lab);
        println!(
            "{}\n\n{}",
            rendered.text.trim_end(),
            rendered.verdicts().trim_end()
        );
        if !rendered.passes() {
            failed.push(artifact.id);
        }
    }

    if !failed.is_empty() {
        eprintln!(
            "\nfidelitygate: deviates from the paper: {}",
            failed.join(" ")
        );
        return ExitCode::FAILURE;
    }
    println!("\nfidelitygate: every checked value is inside its band");
    ExitCode::SUCCESS
}
