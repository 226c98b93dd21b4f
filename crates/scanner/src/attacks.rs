//! Seeded spoofed-source reflection campaigns — the §6 misuse model as a
//! first-class instrument.
//!
//! The paper's §6 flags transparent forwarders as *invisible diffusers*
//! for reflective amplification; *Forward to Hell?* builds the full
//! attack model on top. This module drives it defensively: a
//! [`ReflectionAttacker`] host paces spoofed-source queries (the victim's
//! address in the source field) through a list of diffusers, exactly like
//! a [`crate::CampaignScanner`] paces probes, while a [`VictimMeter`]
//! installed on the victim node tallies what converges there. Each
//! [`ReflectionPlan`] carries its own *reply port* — the source port of
//! its spoofed queries — so responses arriving at the victim attribute
//! themselves to the plan that provoked them, with no time-window
//! heuristics.
//!
//! Everything is deterministic: plans fire at fixed simulated-time
//! offsets with fixed pacing, queries use one TXID per plan, and the
//! tallies are ordered maps, so per-plan amplification factors are
//! bit-identical across runs and shard counts. The `analysis` crate rolls
//! the measurements into its Table-3-style `AttackMatrix`.

use crate::pacer::Pacer;
use dnswire::{DnsName, Message, MessageBuilder, RData, Record, RrType};
use netsim::{Ctx, Datagram, Host, NodeId, Payload, RetryPolicy, SimDuration, Simulator, UdpSend};
use odns::study;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The query shapes an amplification attacker chooses from (§6 and the
/// *Forward to Hell?* catalogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackVector {
    /// QTYPE `ANY` — the classic maximum-response vector ("Google allows
    /// ANY requests", §6).
    Any,
    /// QTYPE `TXT` — large text records without the ANY stigma.
    Txt,
    /// QTYPE `ANY` with an EDNS0 OPT record advertising a 4096-byte UDP
    /// buffer — the real-world prerequisite for oversized UDP answers.
    /// The simulated servers answer within 512 bytes either way, so this
    /// row measures the *query-side* overhead of EDNS against this zoo.
    EdnsAny,
}

impl AttackVector {
    /// All vectors, in matrix row order.
    pub fn all() -> [AttackVector; 3] {
        [AttackVector::Any, AttackVector::Txt, AttackVector::EdnsAny]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AttackVector::Any => "ANY",
            AttackVector::Txt => "TXT",
            AttackVector::EdnsAny => "ANY+EDNS",
        }
    }

    /// Build this vector's query for the study zone.
    pub fn build_query(self, txid: u16) -> Message {
        let builder = match self {
            AttackVector::Any | AttackVector::EdnsAny => {
                MessageBuilder::query(txid, study::study_qname(), RrType::Any)
            }
            AttackVector::Txt => MessageBuilder::query(txid, study::study_qname(), RrType::Txt),
        }
        .recursion_desired(true);
        match self {
            AttackVector::EdnsAny => builder
                .additional(Record {
                    name: DnsName::root(),
                    class: dnswire::Class::Other(4096),
                    ttl: 0,
                    rdata: RData::Opt(Vec::new()),
                })
                .build(),
            _ => builder.build(),
        }
    }
}

impl std::fmt::Display for AttackVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One spoofed-source reflection pass: a vector driven through a diffuser
/// list on behalf of a victim.
#[derive(Debug, Clone)]
pub struct ReflectionPlan {
    /// Query shape.
    pub vector: AttackVector,
    /// Diffusers to bounce off, probed in order.
    pub targets: Vec<Ipv4Addr>,
    /// The spoofed source — the victim's address.
    pub spoof_src: Ipv4Addr,
    /// Source port of the spoofed queries. Responses arrive at the victim
    /// on this port, attributing them to this plan.
    pub reply_port: u16,
    /// Pacing between queries.
    pub inter_probe_gap: SimDuration,
    /// Simulated-time offset of the plan's first query.
    pub start_after: SimDuration,
}

impl ReflectionPlan {
    /// A plan with the campaign-style defaults (50 µs pacing, immediate
    /// start).
    pub fn new(
        vector: AttackVector,
        targets: Vec<Ipv4Addr>,
        spoof_src: Ipv4Addr,
        reply_port: u16,
    ) -> Self {
        ReflectionPlan {
            vector,
            targets,
            spoof_src,
            reply_port,
            inter_probe_gap: SimDuration::from_micros(50),
            start_after: SimDuration::ZERO,
        }
    }

    /// A sensor-flood plan: the sensor addresses cycled `repeats` times,
    /// paced wide enough to look like a real flood but well inside the
    /// sensors' 5-minute answer budget — the rate-limiter efficacy probe.
    pub fn flood(
        vector: AttackVector,
        sensor_addrs: &[Ipv4Addr],
        repeats: u32,
        spoof_src: Ipv4Addr,
        reply_port: u16,
    ) -> Self {
        let mut targets = Vec::with_capacity(sensor_addrs.len() * repeats as usize);
        for _ in 0..repeats {
            targets.extend_from_slice(sensor_addrs);
        }
        ReflectionPlan {
            vector,
            targets,
            spoof_src,
            reply_port,
            inter_probe_gap: SimDuration::from_millis(10),
            start_after: SimDuration::ZERO,
        }
    }
}

/// What one plan cost the attacker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackSpend {
    /// Spoofed queries sent.
    pub queries: u64,
    /// Query payload bytes spent.
    pub bytes: u64,
}

struct PlanState {
    plan: ReflectionPlan,
    query: Payload,
    pacer: Pacer,
    spend: AttackSpend,
}

/// The attacker box: paces every plan's spoofed queries from one node,
/// each plan on its own `pacer::Pacer` and timer token.
#[derive(Debug)]
pub struct ReflectionAttacker {
    plans: Vec<PlanState>,
}

impl std::fmt::Debug for PlanState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanState")
            .field("vector", &self.plan.vector)
            .field("pacer", &self.pacer)
            .field("spend", &self.spend)
            .finish()
    }
}

impl ReflectionAttacker {
    /// Build from plans. Timer token `i` paces plan `i`.
    pub fn new(plans: Vec<ReflectionPlan>) -> Self {
        let plans = plans
            .into_iter()
            .enumerate()
            .map(|(token, plan)| {
                // One TXID per plan — keyed to the reply port so every
                // plan's queries are distinct yet fully deterministic.
                let query = Payload::from(plan.vector.build_query(plan.reply_port).encode());
                let pacer = Pacer::new(
                    plan.targets.len(),
                    plan.inter_probe_gap,
                    token as u64,
                    RetryPolicy::none(),
                );
                PlanState {
                    plan,
                    query,
                    pacer,
                    spend: AttackSpend::default(),
                }
            })
            .collect();
        ReflectionAttacker { plans }
    }

    /// Per-plan spends, in plan order.
    pub fn spends(&self) -> Vec<AttackSpend> {
        self.plans.iter().map(|p| p.spend).collect()
    }
}

impl Host for ReflectionAttacker {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {
        // Spoofed queries carry the victim's source; nothing legitimate
        // ever arrives at the attacker box.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(state) = self.plans.get_mut(token as usize) else {
            return;
        };
        let Some(due) = state.pacer.due(token) else {
            return;
        };
        let target = state.plan.targets[due.index];
        state.spend.queries += 1;
        state.spend.bytes += state.query.len() as u64;
        ctx.send_udp(UdpSend {
            src: Some(state.plan.spoof_src),
            src_port: state.plan.reply_port,
            dst: target,
            dst_port: dnswire::DNS_PORT,
            ttl: None,
            payload: state.query.clone(),
        });
        state.pacer.sent(ctx, due);
    }
}

/// What converged on one victim port.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VictimTally {
    /// Datagrams received.
    pub packets: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Distinct source addresses the traffic arrived from — the
    /// attribution view: reflections through transparent forwarders show
    /// resolver addresses here, never the diffusers.
    pub sources: BTreeSet<Ipv4Addr>,
}

impl VictimTally {
    /// Merge another shard's tally for the same port.
    pub fn absorb(&mut self, other: &VictimTally) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.sources.extend(other.sources.iter().copied());
    }
}

/// The victim box: tallies arriving traffic per destination port, so each
/// reflection plan's reply port gets its own ledger.
#[derive(Debug, Default)]
pub struct VictimMeter {
    /// Per-destination-port tallies.
    pub tallies: BTreeMap<u16, VictimTally>,
}

impl VictimMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        VictimMeter::default()
    }

    /// The tally for one reply port (empty if nothing arrived).
    pub fn tally(&self, port: u16) -> VictimTally {
        self.tallies.get(&port).cloned().unwrap_or_default()
    }
}

impl Host for VictimMeter {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
        let tally = self.tallies.entry(dgram.dst_port).or_default();
        tally.packets += 1;
        tally.bytes += dgram.payload.len() as u64;
        tally.sources.insert(dgram.src);
    }
}

/// Install a [`ReflectionAttacker`] on `node`, schedule every plan's
/// start timer, run the simulation to quiescence, and return the per-plan
/// spends (in plan order).
pub fn run_reflections(
    sim: &mut Simulator,
    node: NodeId,
    plans: Vec<ReflectionPlan>,
) -> Vec<AttackSpend> {
    let starts: Vec<SimDuration> = plans.iter().map(|p| p.start_after).collect();
    sim.install(node, ReflectionAttacker::new(plans));
    for (i, start) in starts.into_iter().enumerate() {
        sim.schedule_timer(node, start, i as u64);
    }
    sim.run();
    sim.host_as::<ReflectionAttacker>(node)
        .expect("attacker installed")
        .spends()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::playground;
    use netsim::SimConfig;
    use odns::{RecursiveForwarder, TransparentForwarder};

    const VICTIM: Ipv4Addr = Ipv4Addr::new(198, 51, 99, 1);
    const ATTACKER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 66);
    const TRANSP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const RECFWD: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 2);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    /// Canned resolver: answers any query with two A records (bigger than
    /// the query — amplification on tap).
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

    fn world() -> (Simulator, Vec<NodeId>) {
        let (topo, nodes) = playground(&[VICTIM, ATTACKER, TRANSP, RECFWD, RESOLVER]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(nodes[0], VictimMeter::new());
        sim.install(nodes[2], TransparentForwarder::new(RESOLVER));
        sim.install(nodes[3], RecursiveForwarder::new(RESOLVER));
        sim.install(nodes[4], Canned);
        (sim, nodes)
    }

    #[test]
    fn vectors_build_distinct_wire_queries() {
        let queries: Vec<Vec<u8>> = AttackVector::all()
            .into_iter()
            .map(|v| v.build_query(9).encode())
            .collect();
        assert_ne!(queries[0], queries[1]);
        assert_ne!(queries[0], queries[2]);
        // The EDNS vector really carries an OPT additional.
        let edns = Message::decode(&queries[2]).unwrap();
        assert_eq!(edns.additionals.len(), 1);
        assert_eq!(edns.additionals[0].rtype(), RrType::Opt);
        assert!(edns.is_plain_in_query(), "EDNS stays a plain IN query");
    }

    #[test]
    fn reflection_attributes_responses_to_reply_ports() {
        let (mut sim, nodes) = world();
        let plans = vec![
            ReflectionPlan::new(AttackVector::Any, vec![TRANSP], VICTIM, 40_000),
            ReflectionPlan {
                start_after: SimDuration::from_secs(1),
                ..ReflectionPlan::new(AttackVector::Any, vec![RECFWD], VICTIM, 40_001)
            },
        ];
        let spends = run_reflections(&mut sim, nodes[1], plans);
        assert_eq!(spends.len(), 2);
        assert_eq!(spends[0].queries, 1);
        assert!(spends[0].bytes > 0);

        let meter: &VictimMeter = sim.host_as(nodes[0]).unwrap();
        let through_transp = meter.tally(40_000);
        let through_recfwd = meter.tally(40_001);
        // Both paths reflect one (amplified) response onto their own port.
        assert_eq!(through_transp.packets, 1);
        assert_eq!(through_recfwd.packets, 1);
        assert!(through_transp.bytes > spends[0].bytes, "amplified");
        // Attribution: the transparent path shows the resolver, never the
        // diffuser; the recursive forwarder answers as itself.
        assert_eq!(
            through_transp.sources.iter().copied().collect::<Vec<_>>(),
            vec![RESOLVER]
        );
        assert_eq!(
            through_recfwd.sources.iter().copied().collect::<Vec<_>>(),
            vec![RECFWD]
        );
    }

    #[test]
    fn flood_plan_cycles_sensor_addresses() {
        let plan = ReflectionPlan::flood(AttackVector::Any, &[TRANSP, RECFWD], 3, VICTIM, 41_000);
        assert_eq!(plan.targets.len(), 6);
        assert_eq!(plan.targets[0], TRANSP);
        assert_eq!(plan.targets[1], RECFWD);
        assert_eq!(plan.targets[4], TRANSP);
    }

    #[test]
    fn victim_tally_absorb_unions_sources() {
        let mut a = VictimTally {
            packets: 2,
            bytes: 100,
            sources: [RESOLVER].into_iter().collect(),
        };
        let b = VictimTally {
            packets: 1,
            bytes: 50,
            sources: [RESOLVER, RECFWD].into_iter().collect(),
        };
        a.absorb(&b);
        assert_eq!(a.packets, 3);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.sources.len(), 2);
    }
}
