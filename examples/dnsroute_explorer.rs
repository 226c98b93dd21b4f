//! DNSRoute++ exploration (§5): census → trace every transparent
//! forwarder → path-length CDFs per resolver project (Figure 6) and the
//! AS-relationship inference.
//!
//! Runs the *sharded* sweep driver: every shard world is scanned and
//! traced on a worker-thread pool, and the shard count never changes the
//! results on a quiet network (see `tests/determinism_referee.rs`).
//!
//! ```sh
//! cargo run --release --example dnsroute_explorer
//! ```

use inetgen::{CountrySelection, GenConfig};
use scanner::ClassifierConfig;
use std::collections::BTreeSet;

fn main() {
    println!("== DNSRoute++: what lies behind the transparent forwarders? ==\n");
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "IND", "USA", "TUR", "ARG", "IDN"]),
        scale: 1_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let shards = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);

    println!("steps 1+2: sharded census + TTL sweep past every forwarder ({shards} shards)...");
    let sweep = analysis::run_dnsroute_sharded(&config, shards, &ClassifierConfig::default());
    println!(
        "  {} transparent forwarders discovered and traced",
        sweep.census.transparent_targets().len()
    );
    let (paths, stats) = sweep.sanitized();
    println!(
        "  {} traces, {} sanitized paths kept ({} no-signature, {} no-answer, {} incomplete)",
        stats.total(),
        stats.kept,
        stats.rejected_no_signature,
        stats.rejected_no_answer,
        stats.rejected_incomplete
    );

    println!("\n--- Figure 6: path length forwarder → resolver [IP hops] ---");
    let (projects, other) = analysis::figure6_by_project(&paths, &sweep.geo);
    for p in &projects {
        let cdf = p.cdf();
        println!(
            "\n{} ({} paths, {} forwarder ASNs): mean {:.1} hops, median {:.0}, p90 {:.0}",
            p.project,
            p.hop_counts.len(),
            p.asn_count,
            p.mean_hops(),
            cdf.median().unwrap_or(0.0),
            cdf.quantile(0.9).unwrap_or(0.0)
        );
        print!(
            "{}",
            analysis::chart::render_cdf(p.project.name(), &cdf, 48, 8)
        );
    }
    println!("\n({} paths ended at local/other resolvers)", other.len());
    println!("\npaper's means: Cloudflare 6.3 < Google 7.9 < OpenDNS 9.3 — the");
    println!("ordering is driven by anycast PoP density and must reproduce here.");

    println!("\n--- §5: AS-relationship inference ---");
    // A CAIDA-like baseline: ground truth is per-world, so rebuild one
    // unsharded world just to extract the provider-customer pairs (the
    // backbone and per-country AS structure are partition-invariant).
    let internet = inetgen::generate(&config);
    let truth: Vec<(u32, u32)> = internet.sim.topology().provider_customer_pairs().to_vec();
    let known: BTreeSet<(u32, u32)> = truth.iter().take(truth.len() * 85 / 100).copied().collect();
    let (report, known_hits, new_pairs) =
        analysis::as_relationship_report(&paths, &sweep.geo, &known);
    println!(
        "usable paths: {}   AS_in == AS_out: {} ({:.0}%, paper: 62%)",
        report.usable_paths,
        report.matching_paths,
        report.matching_share() * 100.0
    );
    println!(
        "inferred provider→customer pairs: {} ({} already in the CAIDA-like baseline, {} newly discovered — paper: 41 new)",
        report.inferred.len(),
        known_hits,
        new_pairs
    );
}
