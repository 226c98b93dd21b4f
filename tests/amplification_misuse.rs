//! §6 misuse potential: transparent forwarders as *invisible diffusers*
//! for reflective amplification. An attacker spoofs the victim's address
//! in queries sent to many transparent forwarders; the resolvers' (larger)
//! answers converge on the victim, and nothing in them names the
//! forwarders that diffused the attack.

use dnswire::{DnsName, MessageBuilder, RrType};
use inetgen::{generate, CountrySelection, GenConfig};
use netsim::testkit::ScriptedClient;
use netsim::{SimDuration, UdpSend};
use scanner::attacks::AttackVector;
use scanner::OdnsClass;

#[test]
fn spoofed_queries_amplify_at_the_victim() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let victim_node = internet.fixtures.victim;
    let victim_ip = internet.fixtures.victim_ip;

    // The attacker sits in a SAV-free network: reuse a planted transparent
    // forwarder's node? No — attackers run their own machines; the sensor
    // network (no SAV) hosts one for us.
    let attacker_node = internet.fixtures.sensor3;
    let attacker_spoof_src = victim_ip;

    // Pick transparent forwarders as diffusers.
    let diffusers: Vec<_> = internet
        .truth
        .transparent_ips()
        .into_iter()
        .take(40)
        .collect();
    assert!(diffusers.len() >= 20, "need diffusers: {}", diffusers.len());

    // ANY queries maximize the response size (§6: "Google allows ANY").
    let query = MessageBuilder::query(
        0xBAD,
        DnsName::parse("odns-study.example.").unwrap(),
        RrType::Any,
    )
    .recursion_desired(true)
    .build()
    .encode();
    let query = netsim::Payload::from(query);
    let query_len = query.len();

    let mut attacker = ScriptedClient::new();
    let mut sends = Vec::new();
    for (i, d) in diffusers.iter().enumerate() {
        let token = attacker.push(UdpSend {
            src: Some(attacker_spoof_src), // the spoof: "from" the victim
            src_port: 4444,
            dst: *d,
            dst_port: 53,
            ttl: None,
            payload: query.clone(),
        });
        sends.push((SimDuration::from_micros(i as u64 * 100), token));
    }
    internet.sim.install(attacker_node, attacker);
    for (delay, token) in sends {
        internet.sim.schedule_timer(attacker_node, delay, token);
    }
    internet.sim.install(victim_node, ScriptedClient::new());
    internet.sim.run();

    let victim: &ScriptedClient = internet.sim.host_as(victim_node).unwrap();
    assert!(
        victim.datagrams.len() >= diffusers.len() / 2,
        "most attack responses reach the victim: {}",
        victim.datagrams.len()
    );

    // Amplification: total bytes at the victim vs attacker's spend.
    let received: usize = victim.datagrams.iter().map(|(_, d)| d.payload.len()).sum();
    let sent = query_len * diffusers.len();
    let factor = received as f64 / sent as f64;
    assert!(
        factor > 1.0,
        "responses must be larger than queries (factor {factor:.2})"
    );

    // Invisibility: no response names a forwarder — they all come from
    // resolver addresses, so the victim cannot identify the diffusers.
    let diffuser_set: std::collections::HashSet<_> = diffusers.iter().collect();
    for (_, d) in &victim.datagrams {
        assert!(
            !diffuser_set.contains(&d.src),
            "response source {} exposes a diffuser",
            d.src
        );
    }
}

#[test]
fn rate_limited_sensors_are_useless_as_amplifiers() {
    // The §3.1 deployment note: sensors answer once per 5 minutes per /24,
    // so an attacker gains nothing by hammering them.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["TUR"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    analysis::install_sensors(&mut internet);
    let victim_node = internet.fixtures.victim;
    let victim_ip = internet.fixtures.victim_ip;
    internet.sim.install(victim_node, ScriptedClient::new());

    // 100 spoofed queries, 10 ms apart, from one attacker box. The box
    // must sit in a SAV-free network to spoof at all; any transparent
    // forwarder's node qualifies (we repurpose its node as the attacker's
    // machine, replacing the forwarder logic below).
    let attacker_node = internet
        .truth
        .hosts
        .iter()
        .find(|h| h.class == inetgen::PlantedClass::TransparentForwarder)
        .expect("any transparent forwarder node")
        .node;

    let query = MessageBuilder::query(1, odns::study::study_qname(), RrType::Any)
        .recursion_desired(true)
        .build()
        .encode();
    let query = netsim::Payload::from(query);
    let mut attacker = ScriptedClient::new();
    let mut sends = Vec::new();
    for i in 0..100u64 {
        let token = attacker.push(UdpSend {
            src: Some(victim_ip),
            src_port: 5555,
            dst: internet.fixtures.sensor_addrs.ip4,
            dst_port: 53,
            ttl: None,
            payload: query.clone(),
        });
        sends.push((SimDuration::from_millis(i * 10), token));
    }
    internet.sim.install(attacker_node, attacker);
    for (delay, token) in sends {
        internet.sim.schedule_timer(attacker_node, delay, token);
    }
    internet.sim.run();

    let victim: &ScriptedClient = internet.sim.host_as(victim_node).unwrap();
    assert!(
        victim.datagrams.len() <= 1,
        "rate limiting must cap the reflected volume, got {}",
        victim.datagrams.len()
    );
}

#[test]
fn attack_matrix_reports_per_component_amplification() {
    // The generalized §6 instrument: the full attack sweep over one world,
    // checked against the ground truth of the same generation config.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let matrix = analysis::run_attacks_sharded(&config, 1);

    // Every component class amplifies under every vector — the factor the
    // matrix exists to report.
    for class in OdnsClass::all() {
        for vector in AttackVector::all() {
            let cell = matrix
                .cell(vector, class)
                .unwrap_or_else(|| panic!("{vector}/{class:?} cell missing"));
            assert!(cell.queries > 0, "{vector}/{class:?}: pass never fired");
            assert!(
                cell.amplification() > 1.0,
                "{vector}/{class:?}: factor {:.2}",
                cell.amplification()
            );
        }
    }

    // The EDNS vector pays OPT overhead per query while this zoo answers
    // within 512 bytes regardless, so per class it reflects the same bytes
    // at a strictly worse rate than plain ANY.
    for class in OdnsClass::all() {
        let any = matrix.cell(AttackVector::Any, class).unwrap();
        let edns = matrix.cell(AttackVector::EdnsAny, class).unwrap();
        assert_eq!(any.responses, edns.responses, "{class:?}: same reflectors");
        assert_eq!(any.bytes_at_victim, edns.bytes_at_victim);
        assert!(edns.amplification() < any.amplification());
    }

    // Invisibility, per component: the transparent-forwarder pass arrives
    // at the victim exclusively from resolver addresses, while recursive
    // forwarders and resolvers expose themselves.
    let truth = generate(&config).truth;
    let tf_cell = matrix
        .cell(AttackVector::Any, OdnsClass::TransparentForwarder)
        .unwrap();
    for diffuser in truth.transparent_ips() {
        assert!(
            !tf_cell.sources.contains(&diffuser),
            "response source {diffuser} exposes a diffuser"
        );
    }
    let rf_cell = matrix
        .cell(AttackVector::Any, OdnsClass::RecursiveForwarder)
        .unwrap();
    assert!(
        truth
            .hosts
            .iter()
            .filter(|h| h.class == inetgen::PlantedClass::RecursiveForwarder)
            .any(|h| rf_cell.sources.contains(&h.ip)),
        "recursive forwarders answer as themselves"
    );

    // The sensors' rate limiters make them useless in the same matrix: the
    // flood row sheds nearly everything and the victim sees one answer per
    // sensor instance.
    assert!(matrix.sensors.rate_limited > matrix.sensors.answered);
    assert_eq!(matrix.sensors.victim.packets, matrix.sensors.answered);
}
