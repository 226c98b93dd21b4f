//! Emulations of the popular scanning campaigns: Shadowserver, Censys,
//! Shodan.
//!
//! The §3 controlled experiment reverse-engineers three observable
//! behaviours, which are all this module models:
//!
//! * **Shadowserver** evaluates responses *independently of requests* (a
//!   stateless, response-based pipeline): whatever address answers with a
//!   plausible DNS response is reported as an ODNS component. It therefore
//!   reports Sensor 2's replying address `IP3` — and aggregates all
//!   responses from one resolver into a single entry, hiding every
//!   transparent forwarder behind it (Table 3, Table 5).
//! * **Censys** and **Shodan** use connected-socket semantics: a response
//!   is only accepted if its source matches the probed target (their
//!   "sanitizing step"), so mismatched responses are dropped entirely —
//!   they miss both `IP3` and all transparent forwarders.
//!
//! All three emulations probe with real DNS queries through the simulator;
//! only the *processing* differs.

use crate::pacer::{Pacer, PACE_TOKEN};
use dnswire::Message;
use netsim::{Ctx, Datagram, Host, IntMap, NodeId, RetryPolicy, SimDuration, Simulator, UdpSend};
use odns::study;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Gap between consecutive campaign probes.
const INTER_PROBE_GAP: SimDuration = SimDuration::from_micros(50);

/// Campaign probe `i` leaves from port `BASE_PORT + (i >> 16)` with txid
/// `i & 0xFFFF`.
const BASE_PORT: u16 = 41_000;

/// The three campaigns of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Campaign {
    /// The Shadowserver Foundation's open-resolver scan.
    Shadowserver,
    /// Censys.
    Censys,
    /// Shodan.
    Shodan,
}

impl Campaign {
    /// All campaigns in the paper's order.
    pub fn all() -> [Campaign; 3] {
        [Campaign::Shadowserver, Campaign::Censys, Campaign::Shodan]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Campaign::Shadowserver => "Shadowserver",
            Campaign::Censys => "Censys",
            Campaign::Shodan => "Shodan",
        }
    }

    /// Whether this campaign sanitizes source-mismatched responses
    /// (connected-socket semantics).
    pub fn sanitizes_source(self) -> bool {
        match self {
            Campaign::Shadowserver => false,
            Campaign::Censys | Campaign::Shodan => true,
        }
    }
}

impl std::fmt::Display for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Campaign scan configuration. A pass is single-shot, matching the real
/// campaigns' observable behaviour: every target is probed once.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Which campaign's processing to apply.
    pub campaign: Campaign,
    /// Targets to probe.
    pub targets: Vec<Ipv4Addr>,
}

impl CampaignConfig {
    /// Probe `targets` with `campaign`'s processing.
    pub fn new(campaign: Campaign, targets: Vec<Ipv4Addr>) -> Self {
        CampaignConfig { campaign, targets }
    }
}

/// What a campaign publishes after its pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Addresses reported as ODNS components. A `BTreeSet` because real
    /// campaign feeds aggregate by responder — this single line is why
    /// transparent forwarders vanish from them.
    pub odns: BTreeSet<Ipv4Addr>,
    /// Responses dropped by the source-sanitizing step (Censys/Shodan).
    pub sanitized_out: u64,
    /// Responses that did not parse or carried no A record.
    pub invalid: u64,
}

impl CampaignReport {
    /// Merge another pass of the *same* campaign into this report: the
    /// ODNS sets union (real feeds aggregate by responder globally, so a
    /// resolver answering for targets in two shards is still one entry)
    /// and the drop counters sum. This is the shard-merge of the sharded
    /// campaign sweep; it is associative and input-order independent.
    pub fn absorb(&mut self, other: &CampaignReport) {
        self.odns.extend(other.odns.iter().copied());
        self.sanitized_out += other.sanitized_out;
        self.invalid += other.invalid;
    }
}

/// A campaign's response-processing rule, written once: the live
/// [`CampaignScanner`] feeds it packet by packet, [`replay_campaign`] the
/// datagrams of a capture.
#[derive(Debug)]
struct Pipeline {
    campaign: Campaign,
    /// `(port, txid)` → probed target, for the connected-socket check.
    sent: IntMap<(u16, u16), Ipv4Addr>,
    /// The report being accumulated.
    report: CampaignReport,
}

impl Pipeline {
    fn new(campaign: Campaign) -> Self {
        Pipeline {
            campaign,
            sent: IntMap::default(),
            report: CampaignReport::default(),
        }
    }

    /// A probe went out.
    fn probe(&mut self, port: u16, txid: u16, target: Ipv4Addr) {
        self.sent.insert((port, txid), target);
    }

    /// A datagram from `src` arrived on `dst_port`.
    fn response(&mut self, src: Ipv4Addr, dst_port: u16, payload: &[u8]) {
        let Ok(msg) = Message::decode(payload) else {
            self.report.invalid += 1;
            return;
        };
        if !msg.is_response() || msg.answer_a_addrs().is_empty() {
            // Campaigns require at least one plausible A record.
            self.report.invalid += 1;
            return;
        }
        if self.campaign.sanitizes_source() {
            // Connected-socket semantics: find the probe this response
            // claims to belong to and require the source to match it.
            match self.sent.get(&(dst_port, msg.header.id)) {
                Some(&target) if target == src => {
                    self.report.odns.insert(src);
                }
                _ => self.report.sanitized_out += 1,
            }
        } else {
            // Shadowserver: whoever answers is an ODNS component.
            self.report.odns.insert(src);
        }
    }
}

/// Replay a campaign's processing rule over the datagrams its node's tap
/// recorded, in capture order, rebuilding the report it published: a
/// datagram to port 53 is one of the campaign's own probes, anything else
/// is processed as a response.
pub fn replay_campaign(
    campaign: Campaign,
    tapped: impl IntoIterator<Item = Datagram>,
) -> CampaignReport {
    let mut pipeline = Pipeline::new(campaign);
    for d in tapped {
        if d.dst_port != dnswire::DNS_PORT {
            pipeline.response(d.src, d.dst_port, &d.payload);
        } else if let Some(txid) = dnswire::peek_id(&d.payload) {
            pipeline.probe(d.src_port, txid, d.dst);
        }
    }
    pipeline.report
}

/// The `(src_port, txid)` tuple of campaign probe `index`.
fn probe_tuple(index: usize) -> (u16, u16) {
    (
        (BASE_PORT as usize + (index >> 16)) as u16,
        (index & 0xFFFF) as u16,
    )
}

/// A campaign scanner host, paced by a `pacer::Pacer`.
#[derive(Debug)]
pub struct CampaignScanner {
    config: CampaignConfig,
    pacer: Pacer,
    pipeline: Pipeline,
}

impl CampaignScanner {
    /// Build from config.
    pub fn new(config: CampaignConfig) -> Self {
        let pacer = Pacer::new(
            config.targets.len(),
            INTER_PROBE_GAP,
            PACE_TOKEN,
            RetryPolicy::none(),
        );
        CampaignScanner {
            pipeline: Pipeline::new(config.campaign),
            config,
            pacer,
        }
    }
}

impl Host for CampaignScanner {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
        self.pipeline
            .response(dgram.src, dgram.dst_port, &dgram.payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(due) = self.pacer.due(token) else {
            return;
        };
        let target = self.config.targets[due.index];
        let (port, txid) = probe_tuple(due.index);
        self.pipeline.probe(port, txid, target);
        ctx.send_udp(UdpSend::new(
            port,
            target,
            dnswire::DNS_PORT,
            netsim::Payload::with_dns_id(study::probe_template(), txid),
        ));
        self.pacer.sent(ctx, due);
    }
}

/// Install and run a campaign pass, returning its report.
pub fn run_campaign(sim: &mut Simulator, node: NodeId, config: CampaignConfig) -> CampaignReport {
    run_campaign_delayed(sim, node, config, SimDuration::ZERO)
}

/// Like [`run_campaign`], but the first probe goes out `start_after` of
/// simulated time from now. Experiment drivers that run several campaigns
/// over the same world (the paper runs them over separate weeks) use this
/// to space the passes beyond the sensors' 5-minute rate-limit window, so
/// one campaign's probes never eat the next one's answer budget.
pub fn run_campaign_delayed(
    sim: &mut Simulator,
    node: NodeId,
    config: CampaignConfig,
    start_after: SimDuration,
) -> CampaignReport {
    sim.install(node, CampaignScanner::new(config));
    sim.schedule_timer(node, start_after, PACE_TOKEN);
    sim.run();
    sim.host_as::<CampaignScanner>(node)
        .expect("campaign installed")
        .pipeline
        .report
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::MessageBuilder;
    use netsim::testkit::playground;
    use netsim::SimConfig;
    use odns::{RecursiveForwarder, TransparentForwarder};

    const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const TRANSP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const RECFWD: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    /// Canned resolver answering from its own address.
    struct Canned;
    impl Host for Canned {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            let q = Message::decode(&dgram.payload).unwrap();
            let resp = MessageBuilder::response_to(&q)
                .recursion_available(true)
                .answer_a(q.questions[0].qname.clone(), 300, dgram.dst)
                .answer_a(q.questions[0].qname.clone(), 300, study::CONTROL_A)
                .build();
            ctx.send_udp(UdpSend {
                src: Some(dgram.dst),
                src_port: 53,
                dst: dgram.src,
                dst_port: dgram.src_port,
                ttl: None,
                payload: resp.encode().into(),
            });
        }
    }

    fn scenario(campaign: Campaign) -> CampaignReport {
        let (topo, nodes) = playground(&[SCANNER, TRANSP, RECFWD, RESOLVER]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(nodes[1], TransparentForwarder::new(RESOLVER));
        sim.install(nodes[2], RecursiveForwarder::new(RESOLVER));
        sim.install(nodes[3], Canned);
        run_campaign(
            &mut sim,
            nodes[0],
            CampaignConfig::new(campaign, vec![TRANSP, RECFWD, RESOLVER]),
        )
    }

    #[test]
    fn shadowserver_reports_responders_missing_transparent_forwarders() {
        let report = scenario(Campaign::Shadowserver);
        // The transparent forwarder's response arrives from RESOLVER, so
        // Shadowserver reports {RECFWD, RESOLVER} — TRANSP is invisible
        // and RESOLVER's two responses collapse into one entry.
        assert!(report.odns.contains(&RECFWD));
        assert!(report.odns.contains(&RESOLVER));
        assert!(
            !report.odns.contains(&TRANSP),
            "transparent forwarder must be missed"
        );
        assert_eq!(report.odns.len(), 2);
    }

    #[test]
    fn censys_and_shodan_sanitize_mismatched_sources() {
        for campaign in [Campaign::Censys, Campaign::Shodan] {
            let report = scenario(campaign);
            assert!(report.odns.contains(&RECFWD));
            assert!(report.odns.contains(&RESOLVER));
            assert!(!report.odns.contains(&TRANSP));
            assert_eq!(
                report.sanitized_out, 1,
                "{campaign}: the relayed answer is dropped"
            );
        }
    }

    #[test]
    fn delayed_campaign_same_report_later_clock() {
        let (topo, nodes) = playground(&[SCANNER, TRANSP, RECFWD, RESOLVER]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(nodes[1], TransparentForwarder::new(RESOLVER));
        sim.install(nodes[2], RecursiveForwarder::new(RESOLVER));
        sim.install(nodes[3], Canned);
        let report = run_campaign_delayed(
            &mut sim,
            nodes[0],
            CampaignConfig::new(Campaign::Shadowserver, vec![TRANSP, RECFWD, RESOLVER]),
            SimDuration::from_secs(400),
        );
        assert_eq!(report, scenario(Campaign::Shadowserver));
        assert!(sim.now() >= netsim::SimTime::ZERO + SimDuration::from_secs(400));
    }

    #[test]
    fn absorb_unions_odns_and_sums_counters() {
        let mut a = CampaignReport {
            odns: [RESOLVER, RECFWD].into_iter().collect(),
            sanitized_out: 2,
            invalid: 1,
        };
        let b = CampaignReport {
            odns: [RESOLVER, TRANSP].into_iter().collect(),
            sanitized_out: 3,
            invalid: 0,
        };
        let mut ab = a.clone();
        ab.absorb(&b);
        assert_eq!(ab.odns.len(), 3, "shared responder collapses to one");
        assert_eq!((ab.sanitized_out, ab.invalid), (5, 1));
        // Order independence.
        let mut ba = b.clone();
        ba.absorb(&a);
        a.absorb(&b);
        assert_eq!(ba, a);
    }

    #[test]
    fn campaign_properties() {
        assert!(!Campaign::Shadowserver.sanitizes_source());
        assert!(Campaign::Censys.sanitizes_source());
        assert!(Campaign::Shodan.sanitizes_source());
        assert_eq!(Campaign::Shadowserver.to_string(), "Shadowserver");
    }
}
