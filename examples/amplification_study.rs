//! §6 misuse potential, generalized: seeded spoofed-source reflection
//! campaigns through every ODNS component class, rolled into the
//! per-component [`analysis::AttackMatrix`] — plus the sensor rate-limiter
//! efficacy row showing why honeypots are useless to attackers.
//!
//! ```sh
//! cargo run --release --example amplification_study
//! ```

use analysis::run_attacks_sharded;
use inetgen::{CountrySelection, GenConfig};
use scanner::AttackVector;
use scanner::OdnsClass;

fn main() {
    println!("== Misuse study: reflective amplification across the ODNS component classes ==\n");
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "IND"]),
        scale: 1_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };

    println!("attacker : 1 spoofing box (SAV-free network)");
    println!("vectors  : ANY, TXT, ANY+EDNS(4096) — spoofed with the victim's source");
    println!("diffusers: every planted resolver, recursive forwarder, and transparent forwarder");
    println!("victim   : per-pass reply ports attribute each vector/component pair\n");

    let matrix = run_attacks_sharded(&config, 2);
    println!("{}", matrix.render().render());

    let s = &matrix.sensors;
    println!(
        "\nsensor flood      : {} spoofed queries ({} bytes) at sensors 1+2",
        s.attack_queries, s.attack_bytes
    );
    println!(
        "limiters shed     : {} of {} ({:.0}%) — victim saw only {} packets / {} bytes",
        s.rate_limited,
        s.queries,
        s.shed_fraction() * 100.0,
        s.victim.packets,
        s.victim.bytes
    );

    let tf_cell = matrix
        .cell(AttackVector::Any, OdnsClass::TransparentForwarder)
        .expect("transparent-forwarder pass ran");
    println!(
        "\nresolver addresses seen by the victim of the transparent-forwarder pass: {:?}",
        tf_cell.sources
    );
    println!(
        "\nNone of these are the diffusing forwarders: the attack arrives from\n\
         well-known public resolvers, and attribution of the diffusion layer is\n\
         impossible from the victim's viewpoint — the paper's §6 argument for\n\
         why transparent forwarders intensify the ODNS threat. The honeypot\n\
         sensors' one-answer-per-5-minutes-per-/24 policy, measured in the\n\
         flood row above, is what keeps research deployments off that list."
    );
}
