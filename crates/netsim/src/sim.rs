//! The discrete-event simulator core.
//!
//! Events are processed in `(time, sequence)` order from a hierarchical
//! timer wheel (see [`crate::wheel`]), so two runs with the same topology,
//! hosts, and fault plan produce identical traces. Hosts interact only
//! through their handler's [`Ctx`], whose calls the simulator turns at
//! once into routed packet deliveries, ICMP errors, and timer callbacks —
//! single, cancellable callbacks or paced batches that serve a whole probe
//! burst from one queue event.

use crate::fault::{FaultPlan, FlowKey, FlowVerdict};
use crate::host::{Ctx, Host, UdpSend};
use crate::packet::{Datagram, IcmpKind, IcmpMessage, QuotedDatagram};
use crate::pcap::PcapWriter;
use crate::routing::{RouteError, RouteResolver};
use crate::stats::{DropReason, SimStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{IpOwner, NodeId, Topology};
use crate::wheel::{Placement, TimerId, TimerWheel};
use crate::wire;
use std::any::Any;
use std::collections::HashMap;

/// Simulator configuration. The simulator draws nothing at random: two
/// runs with the same plan replay the same fault pattern bit for bit.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Fault injection plan, used exactly as given (its salt included) and
    /// validated at installation.
    pub faults: FaultPlan,
    /// Hard ceiling on processed events, to catch runaway feedback loops
    /// (e.g. two forwarders pointed at each other).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            faults: FaultPlan::none(),
            max_events: 200_000_000,
        }
    }
}

/// One queue event. The wheel writes an event once, into an arena node,
/// and cascades re-link the node instead of moving it, so the payload
/// variants carry their `Datagram` / `IcmpMessage` inline: a packet costs
/// the queue no allocation. `TimerBatch` — the batched-pacing carrier, one
/// queue event that fires `count` evenly-strided timer callbacks — is as
/// wide as `Udp`, and the two sizes below are what keep a node (event,
/// time, sequence number, link) inside one cache line.
#[derive(Debug)]
enum EventKind {
    Udp {
        node: NodeId,
        dgram: Datagram,
    },
    Icmp {
        node: NodeId,
        icmp: IcmpMessage,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    TimerBatch {
        node: NodeId,
        token: u64,
        count: u32,
        stride: SimDuration,
        token_step: u64,
    },
}

const _: () = assert!(std::mem::size_of::<EventKind>() == 40);
const _: () = assert!(crate::wheel::node_bytes::<EventKind>() <= 64);

/// The discrete-event network simulator.
pub struct Simulator {
    topo: Topology,
    hosts: Vec<Option<Box<dyn Host>>>,
    queue: TimerWheel<EventKind>,
    now: SimTime,
    seq: u64,
    faults: FaultPlan,
    /// Cached `faults.is_quiet()` — the per-packet fast-path branch.
    faults_quiet: bool,
    max_events: u64,
    resolver: RouteResolver,
    stats: SimStats,
    taps: HashMap<NodeId, PcapWriter>,
    ip_ident: u16,
}

impl Simulator {
    /// Create a simulator over a built topology.
    pub fn new(topo: Topology, config: SimConfig) -> Self {
        let n = topo.host_count();
        let mut hosts = Vec::with_capacity(n);
        hosts.resize_with(n, || None);
        let faults = config.faults;
        faults.assert_valid();
        let faults_quiet = faults.is_quiet();
        Simulator {
            topo,
            hosts,
            queue: TimerWheel::new(),
            now: SimTime::ZERO,
            seq: 0,
            faults,
            faults_quiet,
            max_events: config.max_events,
            resolver: RouteResolver::new(),
            stats: SimStats::default(),
            taps: HashMap::new(),
            ip_ident: 0,
        }
    }

    /// Attach protocol logic to a node. Replaces any previous host.
    pub fn install<H: Host>(&mut self, node: NodeId, host: H) {
        self.hosts[node.0 as usize] = Some(Box::new(host));
    }

    /// Restore the simulator to its pre-run state over the same topology:
    /// pending events, hosts, and taps are discarded; the clock, sequence
    /// counter, IP ident counter, and statistics rewind to zero; the fault
    /// plan and event budget are taken from `config`. Reinstalling the
    /// same hosts and scheduling the same bootstrap timers then reproduces
    /// a fresh run's event stream bit for bit — the reuse contract warm
    /// shard worlds rely on.
    ///
    /// The route resolver's caches survive (routes are a pure function of
    /// the immutable topology), so a reset world re-runs without
    /// rebuilding any AS route. Only `route_cache_hits`/`misses` differ
    /// from a cold run; event timing and content never do. The queue's
    /// arena survives too, emptied but not freed, so the replay allocates
    /// nothing in the queue.
    pub fn reset(&mut self, config: &SimConfig) {
        self.queue.clear();
        for slot in &mut self.hosts {
            *slot = None;
        }
        self.taps.clear();
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.ip_ident = 0;
        self.faults = config.faults.clone();
        self.faults.assert_valid();
        self.faults_quiet = self.faults.is_quiet();
        self.max_events = config.max_events;
        self.resolver.reset_counters();
        self.stats = SimStats::default();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Replace the fault-injection plan (takes effect for all packets
    /// sent after the call — lets experiments degrade an initially clean
    /// network). Accepts a bare [`crate::FaultConfig`] for uniform
    /// faults. The plan is used as given, salt included, and validated
    /// loudly here, never clamped per decision.
    pub fn set_faults(&mut self, faults: impl Into<FaultPlan>) {
        let plan = faults.into();
        plan.assert_valid();
        self.faults_quiet = plan.is_quiet();
        self.faults = plan;
    }

    /// Whether the installed fault plan can actually touch packets.
    /// Experiments use this to pick fault-aware configurations (e.g.
    /// partition-invariant probe tuples) only when faults are live.
    pub fn faults_active(&self) -> bool {
        !self.faults_quiet
    }

    /// Enable pcap capture at `node` (everything it sends and receives).
    pub fn tap(&mut self, node: NodeId) {
        self.taps.entry(node).or_default();
    }

    /// Remove and return the pcap bytes captured at `node`.
    pub fn take_capture(&mut self, node: NodeId) -> Option<Vec<u8>> {
        self.taps.remove(&node).map(PcapWriter::finish)
    }

    /// Borrow a host's concrete type (e.g. to read scan results after a
    /// run).
    pub fn host_as<T: Host>(&self, node: NodeId) -> Option<&T> {
        self.hosts[node.0 as usize]
            .as_deref()
            .and_then(|h| (h as &dyn Any).downcast_ref())
    }

    /// Mutably borrow a host's concrete type.
    pub fn host_as_mut<T: Host>(&mut self, node: NodeId) -> Option<&mut T> {
        self.hosts[node.0 as usize]
            .as_deref_mut()
            .and_then(|h| (h as &mut dyn Any).downcast_mut())
    }

    /// Schedule a timer on `node` from outside (bootstrap).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        self.set_timer(node, delay, token);
    }

    /// [`Ctx::set_timer`] for the handler running on `node`.
    pub(crate) fn set_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) -> TimerId {
        let at = self.now + delay;
        self.push(at, EventKind::Timer { node, token })
    }

    /// [`Ctx::cancel_timer`].
    pub(crate) fn cancel_timer(&mut self, id: TimerId) -> bool {
        let cancelled = self.queue.cancel(id);
        self.stats.timers_cancelled += u64::from(cancelled);
        cancelled
    }

    /// Schedule a batch of `count` timer callbacks on `node` from outside
    /// (bootstrap): the `k`-th fires at `now + delay + k·stride` with token
    /// `token + k·token_step` (wrapping). Timing is identical to `count`
    /// [`Simulator::schedule_timer`] calls; the queue holds one event.
    pub fn schedule_timer_batch(
        &mut self,
        node: NodeId,
        delay: SimDuration,
        stride: SimDuration,
        count: u32,
        token: u64,
        token_step: u64,
    ) {
        if count == 0 {
            return;
        }
        let at = self.now + delay;
        self.push(
            at,
            EventKind::TimerBatch {
                node,
                token,
                count,
                stride,
                token_step,
            },
        );
    }

    fn push(&mut self, at: SimTime, kind: EventKind) -> TimerId {
        let seq = self.seq;
        self.seq += 1;
        let (placement, id) = self.queue.push_cancellable(at, seq, kind);
        match placement {
            Placement::Wheel => self.stats.events_wheel_scheduled += 1,
            Placement::Heap => self.stats.events_heap_scheduled += 1,
        }
        id
    }

    /// Run until the event queue drains or the event budget is exhausted.
    /// Returns `true` if the queue drained.
    pub fn run(&mut self) -> bool {
        self.run_until(SimTime(u64::MAX))
    }

    /// Run until `deadline` (events at exactly `deadline` are processed),
    /// the queue drains, or the budget is exhausted. Returns `true` if the
    /// queue drained or only events beyond the deadline remain.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        let drained = loop {
            if self.stats.events_processed >= self.max_events {
                break false;
            }
            let Some((at, _seq, kind)) = self.queue.pop_at_or_before(deadline) else {
                break true;
            };
            self.now = at;
            self.stats.events_processed += 1;
            self.dispatch(kind, deadline);
        };
        // Packets are only routed inside the loop above, so mirroring the
        // resolver's counters here keeps `stats()` exact between runs.
        self.stats.route_cache_hits = self.resolver.cache_hits();
        self.stats.route_cache_misses = self.resolver.cache_misses();
        drained
    }

    fn dispatch(&mut self, kind: EventKind, deadline: SimTime) {
        match kind {
            EventKind::Udp { node, dgram } => {
                self.stats.udp_delivered += 1;
                self.stats.udp_bytes_delivered += dgram.payload.len() as u64;
                self.capture_udp(node, &dgram);
                self.with_host(node, |host, ctx| host.on_datagram(ctx, dgram));
            }
            EventKind::Icmp { node, icmp } => {
                self.stats.icmp_delivered += 1;
                self.capture_icmp(node, &icmp);
                self.with_host(node, |host, ctx| host.on_icmp(ctx, icmp));
            }
            EventKind::Timer { node, token } => {
                self.stats.timers_fired += 1;
                self.with_host(node, |host, ctx| host.on_timer(ctx, token));
            }
            EventKind::TimerBatch {
                node,
                token,
                count,
                stride,
                token_step,
            } => {
                // One popped event serves the whole burst: the clock steps
                // through each callback's exact time, so everything a
                // handler observes (`ctx.now()`, send times, capture
                // timestamps) matches `count` individual timer events.
                // Responses landing mid-batch are processed right after
                // the batch — their own event times are unaffected.
                let base = self.now;
                for k in 0..u64::from(count) {
                    let at = SimTime(base.0.saturating_add(stride.0.saturating_mul(k)));
                    if at > deadline {
                        // Remainder outlives this run: requeue it as a
                        // batch based at its exact next callback time.
                        let left = count - k as u32;
                        self.push(
                            at,
                            EventKind::TimerBatch {
                                node,
                                token: token.wrapping_add(token_step.wrapping_mul(k)),
                                count: left,
                                stride,
                                token_step,
                            },
                        );
                        break;
                    }
                    self.stats.timers_fired += 1;
                    if k > 0 {
                        self.stats.timers_coalesced += 1;
                    }
                    self.now = at;
                    let tok = token.wrapping_add(token_step.wrapping_mul(k));
                    self.with_host(node, |host, ctx| host.on_timer(ctx, tok));
                }
            }
        }
    }

    /// Detach the host, run `f` on it with the rest of the simulator as its
    /// [`Ctx`], and reattach it.
    fn with_host<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Host>, &mut Ctx<'_>),
    {
        let Some(mut host) = self.hosts[node.0 as usize].take() else {
            return; // hostless node: a traffic sink (e.g. the spoofed victim)
        };
        f(&mut host, &mut Ctx { sim: self, node });
        self.hosts[node.0 as usize] = Some(host);
    }

    pub(crate) fn process_send(&mut self, from: NodeId, send: UdpSend, attempt: u8) {
        let src = send.src.unwrap_or_else(|| self.topo.host_spec(from).ip);
        let spoofed = !self.topo.node_owns_ip(from, src);
        if spoofed {
            if self.topo.as_spec(self.topo.as_of_node(from)).sav_outbound {
                // BCP 38 in action: the spoofed relay never leaves the AS.
                self.stats.record_drop(DropReason::SavOutbound);
                return;
            }
            self.stats.spoofed_sent += 1;
        }
        let ttl = send.effective_ttl();
        self.stats.udp_sent += 1;
        if attempt > 0 {
            self.stats.retransmits_sent += 1;
        }

        let dgram_at_send = Datagram {
            src,
            dst: send.dst,
            src_port: send.src_port,
            dst_port: send.dst_port,
            ttl,
            payload: send.payload,
        };
        // A tap on the sender sees the packet as it leaves, whatever
        // happens to it afterwards (exactly like dumpcap on the scan host).
        self.capture_udp(from, &dgram_at_send);

        // The packet's complete fate is a stateless hash of its flow key
        // under the destination's effective fault profile — identical for
        // any shard count, event order, or warm rerun. Quiet plans pay
        // one boolean branch.
        let verdict = if self.faults_quiet {
            FlowVerdict::CLEAN
        } else {
            let payload: &[u8] = &dgram_at_send.payload;
            let txid = if payload.len() >= 2 {
                u16::from_be_bytes([payload[0], payload[1]])
            } else {
                0
            };
            let (country, kind) = match self.topo.as_of_ip(send.dst) {
                Some(as_id) => {
                    let spec = self.topo.as_spec(as_id);
                    (Some(spec.country), Some(spec.kind))
                }
                None => (None, None),
            };
            let key = FlowKey {
                src,
                dst: send.dst,
                src_port: send.src_port,
                txid,
                attempt,
            };
            self.faults.decide(&key, country, kind)
        };

        if verdict.drop {
            self.stats.record_drop(DropReason::Fault);
            return;
        }

        // The path borrows the resolver's cached segment: nothing is
        // allocated per packet, however new the host pair.
        let path = match self.resolver.resolve(&self.topo, from, send.dst) {
            Ok(p) => p,
            Err(RouteError::NoSuchHost) | Err(RouteError::RouterAddress) => {
                self.stats.record_drop(DropReason::NoSuchHost);
                return;
            }
            Err(RouteError::Unreachable) => {
                self.stats.record_drop(DropReason::NoRoute);
                return;
            }
        };

        if let Some(hop) = path.expiry_hop(ttl) {
            // TTL dies in transit: ICMP Time Exceeded from the router back
            // to the packet's *source address* — the original client for
            // spoofed relays, which is what DNSRoute++ exploits (§5).
            self.stats.record_drop(DropReason::TtlExpired);
            let icmp = IcmpMessage {
                from: hop.ip,
                to: src,
                kind: IcmpKind::TimeExceeded,
                quote: Some(QuotedDatagram {
                    src,
                    dst: send.dst,
                    src_port: send.src_port,
                    dst_port: send.dst_port,
                }),
            };
            let rtt = hop.latency + hop.latency;
            self.deliver_icmp(icmp, self.now + rtt);
            return;
        }

        if verdict.corrupt {
            // A bit flip in transit: the Internet checksum catches every
            // single-bit error, so the receiving stack drops the packet.
            self.stats.record_drop(DropReason::Corrupt);
            return;
        }

        let arrival_ttl = ttl - path.router_hops() as u8;
        let deliver_at = self.now + path.total_latency + verdict.jitter;
        let dst_node = path.dst_node;
        let dgram = Datagram {
            ttl: arrival_ttl,
            ..dgram_at_send
        };
        if verdict.duplicate {
            self.stats.duplicates_injected += 1;
            // The duplicate shares the payload bytes (refcount bump, no
            // memcpy), exactly like a duplicated packet on the wire.
            self.push(
                deliver_at + verdict.duplicate_jitter + SimDuration::from_micros(1),
                EventKind::Udp {
                    node: dst_node,
                    dgram: dgram.clone(),
                },
            );
        }
        self.push(
            deliver_at,
            EventKind::Udp {
                node: dst_node,
                dgram,
            },
        );
    }

    /// Emit an ICMP error from `from` toward the source of `original`,
    /// quoting it. Used for both port-unreachable (closed port) and
    /// time-exceeded (transparent forwarder with exhausted relay TTL).
    pub(crate) fn process_icmp_error(&mut self, from: NodeId, original: &Datagram, kind: IcmpKind) {
        let icmp = IcmpMessage {
            // Errors are sourced from the address the packet was sent to
            // when the node owns it (a middlebox serving a whole /24 must
            // answer from the probed address), else the primary address.
            from: if self.topo.node_owns_ip(from, original.dst) {
                original.dst
            } else {
                self.topo.host_spec(from).ip
            },
            to: original.src,
            kind,
            quote: Some(QuotedDatagram {
                src: original.src,
                dst: original.dst,
                src_port: original.src_port,
                dst_port: original.dst_port,
            }),
        };
        let routed = self.resolver.resolve(&self.topo, from, original.src);
        match routed.map(|path| path.total_latency) {
            Ok(latency) => self.deliver_icmp(icmp, self.now + latency),
            Err(_) => self.stats.icmp_undeliverable += 1,
        }
    }

    fn deliver_icmp(&mut self, icmp: IcmpMessage, at: SimTime) {
        match self.topo.owner_of_ip(icmp.to) {
            Some(IpOwner::Host(node)) => {
                self.push(at, EventKind::Icmp { node, icmp });
            }
            _ => {
                // Errors toward spoofed/unassigned sources vanish, exactly
                // like on the real Internet.
                self.stats.icmp_undeliverable += 1;
            }
        }
    }

    fn capture_udp(&mut self, node: NodeId, dgram: &Datagram) {
        // Single lookup; ident allocation and encoding happen only when a
        // tap actually exists (untapped simulations pay one empty-map
        // check per packet).
        if self.taps.is_empty() {
            return;
        }
        if let Some(tap) = self.taps.get_mut(&node) {
            self.ip_ident = self.ip_ident.wrapping_add(1);
            let ident = self.ip_ident;
            // Zero-copy tap: the frame is encoded straight into the
            // writer's buffer — no intermediate per-record Vec.
            tap.record_with(self.now, |buf| wire::encode_udp_into(dgram, ident, buf));
        }
    }

    fn capture_icmp(&mut self, node: NodeId, icmp: &IcmpMessage) {
        if self.taps.is_empty() {
            return;
        }
        if let Some(tap) = self.taps.get_mut(&node) {
            self.ip_ident = self.ip_ident.wrapping_add(1);
            let ident = self.ip_ident;
            tap.record_with(self.now, |buf| wire::encode_icmp_into(icmp, ident, 64, buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::install_script;
    use crate::time::SimDuration;
    use crate::topology::{AsKind, AsSpec, CountryCode, HostSpec, Relationship, TopologyBuilder};
    use std::net::Ipv4Addr;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// Echoes every datagram back to its source, from its own primary IP.
    struct Echo {
        received: Vec<Datagram>,
    }

    impl Host for Echo {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            ctx.send_udp(UdpSend {
                src: None,
                src_port: dgram.dst_port,
                dst: dgram.src,
                dst_port: dgram.src_port,
                ttl: None,
                payload: dgram.payload.clone(),
            });
            self.received.push(dgram);
        }
    }

    /// Collects everything it hears.
    #[derive(Default)]
    struct Sink {
        datagrams: Vec<Datagram>,
        icmp: Vec<IcmpMessage>,
    }

    impl Host for Sink {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
            self.datagrams.push(dgram);
        }
        fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
            self.icmp.push(icmp);
        }
    }

    /// Sends one datagram on timer, then records replies and ICMP.
    struct Prober {
        send: UdpSend,
        replies: Vec<Datagram>,
        icmp: Vec<IcmpMessage>,
    }

    impl Host for Prober {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
            self.replies.push(dgram);
        }
        fn on_icmp(&mut self, _ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
            self.icmp.push(icmp);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_udp(self.send.clone());
        }
    }

    /// Two ASes, A (scanner, SAV on) — B (server, SAV off), 2 routers total.
    fn two_as() -> (Topology, NodeId, NodeId, Ipv4Addr, Ipv4Addr) {
        let mut b = TopologyBuilder::new();
        let a0 = b.add_as(AsSpec {
            asn: 65001,
            country: CountryCode::new("DEU"),
            kind: AsKind::Transit,
            sav_outbound: true,
            transit_routers: vec![ip(10, 0, 0, 1)],
        });
        let a1 = b.add_as(AsSpec {
            asn: 65002,
            country: CountryCode::new("BRA"),
            kind: AsKind::EyeballIsp,
            sav_outbound: false,
            transit_routers: vec![ip(10, 1, 0, 1)],
        });
        b.connect(a0, a1, Relationship::ProviderCustomer);
        let scanner_ip = ip(192, 0, 2, 1);
        let server_ip = ip(203, 0, 113, 1);
        let scanner = b.add_host(a0, HostSpec::simple(scanner_ip));
        let server = b.add_host(a1, HostSpec::simple(server_ip));
        (b.build().unwrap(), scanner, server, scanner_ip, server_ip)
    }

    #[test]
    fn round_trip_udp() {
        let (topo, scanner, server, _scanner_ip, server_ip) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            scanner,
            Prober {
                send: UdpSend::new(34000, server_ip, 53, vec![1, 2, 3]),
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.install(server, Echo { received: vec![] });
        sim.schedule_timer(scanner, SimDuration::ZERO, 0);
        assert!(sim.run());
        let prober: &Prober = sim.host_as(scanner).unwrap();
        assert_eq!(prober.replies.len(), 1);
        assert_eq!(prober.replies[0].payload, vec![1, 2, 3]);
        assert_eq!(prober.replies[0].src, server_ip);
        let echo: &Echo = sim.host_as(server).unwrap();
        assert_eq!(echo.received.len(), 1);
        // 2 routers each way: arrival TTL = 64 - 2.
        assert_eq!(echo.received[0].ttl, 62);
        assert_eq!(sim.stats().udp_sent, 2);
        assert_eq!(sim.stats().udp_delivered, 2);
    }

    #[test]
    fn sav_blocks_spoofing_and_open_as_allows_it() {
        let (topo, scanner, server, scanner_ip, server_ip) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        // The scanner's AS has SAV: spoofing from there must die.
        sim.install(
            scanner,
            Prober {
                send: UdpSend {
                    src: Some(ip(198, 51, 100, 99)),
                    src_port: 1,
                    dst: server_ip,
                    dst_port: 53,
                    ttl: None,
                    payload: vec![].into(),
                },
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.install(server, Sink::default());
        sim.schedule_timer(scanner, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.stats().dropped_sav, 1);
        assert_eq!(sim.stats().udp_delivered, 0);

        // The server's AS has no SAV: spoofing from there flows — and the
        // reply path goes to the spoofed address's owner.
        let (topo, scanner, server, scanner_ip2, _server_ip2) = two_as();
        assert_eq!(scanner_ip, scanner_ip2);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            server,
            Prober {
                send: UdpSend {
                    src: Some(scanner_ip2), // spoof the scanner
                    src_port: 7,
                    dst: ip(192, 0, 2, 1),
                    dst_port: 9,
                    ttl: None,
                    payload: vec![0xAA].into(),
                },
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.install(scanner, Sink::default());
        sim.schedule_timer(server, SimDuration::ZERO, 0);
        sim.run();
        assert_eq!(sim.stats().spoofed_sent, 1);
        let sink: &Sink = sim.host_as(scanner).unwrap();
        assert_eq!(sink.datagrams.len(), 1);
        assert_eq!(
            sink.datagrams[0].src, scanner_ip2,
            "spoofed source visible at receiver"
        );
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded_with_quote() {
        let (topo, scanner, server, scanner_ip, server_ip) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            scanner,
            Prober {
                send: UdpSend {
                    src: None,
                    src_port: 33434,
                    dst: server_ip,
                    dst_port: 53,
                    ttl: Some(1),
                    payload: vec![9].into(),
                },
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.install(server, Sink::default());
        sim.schedule_timer(scanner, SimDuration::ZERO, 0);
        sim.run();
        let prober: &Prober = sim.host_as(scanner).unwrap();
        assert_eq!(prober.icmp.len(), 1);
        let m = &prober.icmp[0];
        assert_eq!(m.kind, IcmpKind::TimeExceeded);
        assert_eq!(m.from, ip(10, 0, 0, 1), "first router on the path");
        let q = m.quote.unwrap();
        assert_eq!(q.src, scanner_ip);
        assert_eq!(q.src_port, 33434);
        assert_eq!(q.dst, server_ip);
        assert_eq!(sim.stats().dropped_ttl, 1);
        let sink: &Sink = sim.host_as(server).unwrap();
        assert!(sink.datagrams.is_empty());
    }

    #[test]
    fn port_unreachable_round_trip() {
        let (topo, scanner, server, _scanner_ip, server_ip) = two_as();
        struct Closed;
        impl Host for Closed {
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
                ctx.send_port_unreachable(&dgram);
            }
        }
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            scanner,
            Prober {
                send: UdpSend::new(40000, server_ip, 9999, vec![]),
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.install(server, Closed);
        sim.schedule_timer(scanner, SimDuration::ZERO, 0);
        sim.run();
        let prober: &Prober = sim.host_as(scanner).unwrap();
        assert_eq!(prober.icmp.len(), 1);
        assert_eq!(prober.icmp[0].kind, IcmpKind::PortUnreachable);
        assert_eq!(prober.icmp[0].from, server_ip);
    }

    #[test]
    fn unknown_destination_counted() {
        let (topo, scanner, _server, _a, _b) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        install_script(
            &mut sim,
            scanner,
            vec![(
                SimDuration::ZERO,
                UdpSend::new(1, ip(100, 64, 0, 1), 53, vec![]),
            )],
        );
        sim.run();
        assert_eq!(sim.stats().dropped_no_such_host, 1);
    }

    /// Sends one probe per timer token, each on its own source port —
    /// fifty distinct flow keys for the stateless fault plane to decide.
    struct TokenProber {
        dst: Ipv4Addr,
        replies: Vec<Datagram>,
    }

    impl Host for TokenProber {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dgram: Datagram) {
            self.replies.push(dgram);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            ctx.send_udp(UdpSend::new(
                30000 + token as u16,
                self.dst,
                53,
                vec![token as u8, !token as u8],
            ));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let (topo, scanner, server, _a, server_ip) = two_as();
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    faults: FaultPlan::lossy(0.3).salted(seed),
                    ..SimConfig::default()
                },
            );
            sim.install(server, Echo { received: vec![] });
            sim.install(
                scanner,
                TokenProber {
                    dst: server_ip,
                    replies: vec![],
                },
            );
            for i in 0..50u64 {
                sim.schedule_timer(scanner, SimDuration::from_millis(i), i);
            }
            sim.run();
            (sim.stats().clone(), sim.now())
        };
        let (s1, t1) = run(7);
        let (s2, t2) = run(7);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        let (s3, t3) = run(8);
        assert_ne!(
            (s1, t1),
            (s3, t3),
            "different seed should change fault pattern"
        );
    }

    #[test]
    fn tap_captures_request_and_reply_as_valid_pcap() {
        let (topo, scanner, server, _a, server_ip) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.tap(scanner);
        sim.install(
            scanner,
            Prober {
                send: UdpSend::new(34000, server_ip, 53, vec![5, 5]),
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.install(server, Echo { received: vec![] });
        sim.schedule_timer(scanner, SimDuration::ZERO, 0);
        sim.run();
        let pcap = sim.take_capture(scanner).unwrap();
        let records = crate::pcap::read_pcap(&pcap).unwrap();
        assert_eq!(records.len(), 2, "outgoing probe + incoming reply");
        match crate::wire::decode(&records[0].data).unwrap() {
            crate::wire::DecodedPacket::Udp(d) => {
                assert_eq!(d.dst, server_ip);
                assert_eq!(d.ttl, 64, "captured at send time, before decrements");
            }
            other => panic!("expected UDP, got {other:?}"),
        }
        match crate::wire::decode(&records[1].data).unwrap() {
            crate::wire::DecodedPacket::Udp(d) => {
                assert_eq!(d.src, server_ip);
                assert!(d.ttl < 64, "reply TTL decremented in transit");
            }
            other => panic!("expected UDP, got {other:?}"),
        }
    }

    #[test]
    fn event_budget_stops_runaway() {
        // Two echo hosts and one datagram between them: a ping-pong that
        // never ends on its own ("two forwarders pointed at each other").
        let (topo, a, b, _ia, ib) = two_as();
        let mut sim = Simulator::new(
            topo,
            SimConfig {
                max_events: 1000,
                ..SimConfig::default()
            },
        );
        sim.install(a, Echo { received: vec![] });
        sim.install(b, Echo { received: vec![] });
        sim.process_send(a, UdpSend::new(1, ib, 2, vec![]), 0);
        assert!(!sim.run(), "the budget, not an empty queue, ends the run");
        assert_eq!(sim.stats().events_processed, 1000);
        let echoed = |node| sim.host_as::<Echo>(node).unwrap().received.len();
        assert_eq!((echoed(a), echoed(b)), (500, 500));
        // The budget is for the simulator's life, not per call.
        assert!(!sim.run());
        assert_eq!(sim.stats().events_processed, 1000);
    }

    #[test]
    fn steady_state_sends_hit_route_cache_without_rebuilding_paths() {
        // N sends along one route: the first resolve builds the AS pair's
        // segment (one miss); every subsequent send must be a cache hit —
        // i.e. steady-state `process_send` performs no per-packet route
        // allocation, the property the zero-allocation hot path rests on.
        let (topo, scanner, server, _a, server_ip) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(server, Sink::default());
        let n = 64u64;
        for i in 0..n {
            install_script(
                &mut sim,
                scanner,
                vec![(
                    SimDuration::from_millis(i),
                    UdpSend::new(1000 + i as u16, server_ip, 53, vec![i as u8]),
                )],
            );
            sim.run();
        }
        let stats = sim.stats();
        assert_eq!(stats.udp_sent, n);
        assert_eq!(
            stats.route_cache_misses, 1,
            "exactly one segment built for one AS pair"
        );
        assert_eq!(
            stats.route_cache_hits,
            n - 1,
            "every steady-state send must borrow the cached segment"
        );
    }

    #[test]
    fn reset_reproduces_a_fresh_run_bit_for_bit() {
        // Run a lossy, jittered exchange twice over the same simulator
        // with a reset in between, and once more over a cold simulator:
        // all three captures must be byte-identical, including timestamps
        // and IP idents — the warm-world reuse contract.
        let config = SimConfig {
            faults: FaultPlan::lossy(0.2).salted(41),
            ..SimConfig::default()
        };
        let drive = |sim: &mut Simulator, scanner: NodeId, server: NodeId, server_ip: Ipv4Addr| {
            sim.tap(scanner);
            sim.install(server, Echo { received: vec![] });
            for i in 0..40u64 {
                sim.install(
                    scanner,
                    Prober {
                        send: UdpSend::new(30000 + i as u16, server_ip, 53, vec![i as u8]),
                        replies: vec![],
                        icmp: vec![],
                    },
                );
                sim.schedule_timer(scanner, SimDuration::from_millis(i), 0);
                sim.run();
            }
            (sim.take_capture(scanner).unwrap(), sim.now())
        };

        let (topo, scanner, server, _a, server_ip) = two_as();
        let mut sim = Simulator::new(topo, config.clone());
        let (first, t1) = drive(&mut sim, scanner, server, server_ip);
        sim.reset(&config);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.stats().udp_sent, 0);
        let (second, t2) = drive(&mut sim, scanner, server, server_ip);
        assert_eq!(first, second, "reset run must replay the capture");
        assert_eq!(t1, t2);

        let (topo, scanner, server, _a, server_ip) = two_as();
        let mut cold = Simulator::new(topo, config.clone());
        let (third, _) = drive(&mut cold, scanner, server, server_ip);
        assert_eq!(first, third, "warm reset matches a cold simulator");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (topo, scanner, server, _a, server_ip) = two_as();
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(server, Echo { received: vec![] });
        sim.install(
            scanner,
            Prober {
                send: UdpSend::new(2, server_ip, 53, vec![]),
                replies: vec![],
                icmp: vec![],
            },
        );
        sim.schedule_timer(scanner, SimDuration::from_secs(10), 0);
        assert!(sim.run_until(SimTime::ZERO + SimDuration::from_secs(5)));
        assert_eq!(
            sim.stats().udp_sent,
            0,
            "timer beyond deadline must not fire"
        );
        sim.run();
        assert_eq!(sim.stats().udp_sent, 2);
    }
}
