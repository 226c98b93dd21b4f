//! The DNSRoute++ engine.
//!
//! Classic traceroute stops when the target answers. DNSRoute++ (§5) sends
//! *DNS queries* as probes and **keeps incrementing the TTL after the
//! target is reached**. Against a transparent forwarder this reveals two
//! segments:
//!
//! 1. scanner → forwarder: ordinary Time Exceeded messages from routers,
//!    then one from the *forwarder itself* (its IP stack answers when the
//!    relay decrement kills the TTL);
//! 2. forwarder → resolver: the relayed probe keeps the scanner's source
//!    address, so Time Exceeded from routers *behind* the forwarder still
//!    reaches the scanner; eventually the probe survives to the resolver
//!    and a DNS answer arrives.
//!
//! Probe identity: one UDP source port per target (ICMP quotes only carry
//! the UDP header, so the port is the only correlator available for
//! Time Exceeded), plus a TTL-encoding transaction ID for DNS answers.

use netsim::{
    Ctx, Datagram, Host, IcmpMessage, NodeId, Payload, RetryPolicy, SimDuration, SimTime,
    Simulator, UdpSend,
};
use odns::study;
use std::net::Ipv4Addr;

/// Stagger between starting consecutive targets.
const START_GAP: SimDuration = SimDuration::from_micros(200);

/// Highest TTL probed per target.
const MAX_TTL: u8 = 30;

/// Wait per TTL step before moving on (an anonymous hop is recorded); the
/// initial RTO of the per-hop retry policy.
const PER_HOP_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Target `idx` probes from source port `BASE_PORT + idx`.
const BASE_PORT: u16 = 40_000;

/// DNSRoute++ configuration.
#[derive(Debug, Clone)]
pub struct DnsRouteConfig {
    /// Targets to trace (normally the transparent forwarders found by a
    /// transactional scan — the tool "scans all transparent forwarders").
    pub targets: Vec<Ipv4Addr>,
    /// The defining DNSRoute++ behaviour: keep incrementing TTL after the
    /// target answered Time Exceeded. Setting this to `false` degrades the
    /// tool to classic traceroute — the ablation showing why "common
    /// traceroute" cannot see behind a transparent forwarder (§5).
    pub continue_past_target: bool,
    /// Per-hop retransmission policy. On a silent hop timeout the probe
    /// is re-sent (same TTL, same `(port, txid)`) up to
    /// `retry.max_attempts` times before the hop is recorded anonymous
    /// and the sweep advances. The 2 s per-hop timeout plays the role of
    /// the initial RTO, doubled per retry; the policy contributes the
    /// attempt count and jitter.
    pub retry: RetryPolicy,
}

impl DnsRouteConfig {
    /// Trace `targets` at TTL 1 to 30, waiting 2 s per hop, continuing
    /// past the target, single-shot.
    ///
    /// One source port per target, from port 40 000 up, bounds a single
    /// sweep to 25 536 targets (validated loudly when the prober is
    /// built); larger target sets shard the sweep — each shard world owns
    /// its own port space (see `analysis::run_dnsroute_sharded`).
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        DnsRouteConfig {
            targets,
            continue_past_target: true,
            retry: RetryPolicy::none(),
        }
    }

    /// The classic-traceroute ablation: stop at the target.
    pub fn classic(targets: Vec<Ipv4Addr>) -> Self {
        DnsRouteConfig {
            continue_past_target: false,
            ..Self::new(targets)
        }
    }

    /// Enable per-hop retransmissions (validated loudly).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        self.retry = retry;
        self
    }

    /// The silent-hop wait after transmission `attempt` (0 = the TTL's
    /// first probe): `PER_HOP_TIMEOUT` doubled per retry, plus the retry
    /// policy's deterministic jitter keyed by the probe's
    /// `(target, ttl)` identity.
    fn hop_wait(&self, idx: usize, ttl: u8, attempt: u8) -> SimDuration {
        let policy = RetryPolicy {
            initial_rto: PER_HOP_TIMEOUT,
            ..self.retry
        };
        let key = ((idx as u64) << 8) | u64::from(ttl);
        policy.rto_after(attempt) + policy.jitter_for(key, attempt)
    }
}

/// The DNS answer terminating a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsEndpoint {
    /// Probe TTL that elicited the answer.
    pub ttl: u8,
    /// Source of the DNS answer (the recursive resolver; for anycast
    /// services this is the service address).
    pub src: Ipv4Addr,
    /// When it arrived.
    pub at: SimTime,
}

/// One traced target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceResult {
    /// The traced address.
    pub target: Ipv4Addr,
    /// Hop observations indexed by `ttl - 1`: `Some(router)` for a Time
    /// Exceeded source, `None` for an anonymous (timed-out) hop.
    pub hops: Vec<Option<Ipv4Addr>>,
    /// TTL at which the *target itself* sent Time Exceeded — the signature
    /// of a transparent forwarder at that distance.
    pub target_seen_at: Option<u8>,
    /// The DNS answer, if the sweep reached a resolver.
    pub dns: Option<DnsEndpoint>,
}

impl TraceResult {
    /// Path length forwarder → resolver in IP hops (Figure 6's metric):
    /// the TTL distance between the forwarder's own Time Exceeded and the
    /// DNS answer. `None` unless both were observed.
    pub fn forwarder_to_resolver_hops(&self) -> Option<u8> {
        match (self.target_seen_at, &self.dns) {
            (Some(fwd), Some(dns)) if dns.ttl > fwd => Some(dns.ttl - fwd),
            _ => None,
        }
    }

    /// Router hops observed strictly between the forwarder and the DNS
    /// endpoint (for AS-path work).
    pub fn hops_beyond_target(&self) -> Vec<Option<Ipv4Addr>> {
        match (self.target_seen_at, &self.dns) {
            (Some(fwd), Some(dns)) => {
                let lo = fwd as usize; // hops[fwd-1] is the forwarder itself
                let hi = (dns.ttl as usize).saturating_sub(1);
                self.hops
                    .get(lo..hi)
                    .map(|s| s.to_vec())
                    .unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Router hops before the target (classic traceroute part).
    pub fn hops_before_target(&self) -> Vec<Option<Ipv4Addr>> {
        let end = match self.target_seen_at {
            Some(fwd) => (fwd as usize).saturating_sub(1),
            None => self.hops.len(),
        };
        self.hops.get(..end).map(|s| s.to_vec()).unwrap_or_default()
    }
}

#[derive(Debug)]
struct TargetState {
    target: Ipv4Addr,
    current_ttl: u8,
    /// Transmissions of the current TTL's probe (1 after the first send).
    attempts: u8,
    hops: Vec<Option<Ipv4Addr>>,
    target_seen_at: Option<u8>,
    dns: Option<DnsEndpoint>,
    done: bool,
}

/// The DNSRoute++ prober host.
#[derive(Debug)]
pub struct DnsRoutePlusPlus {
    config: DnsRouteConfig,
    states: Vec<TargetState>,
    /// Per-hop retransmissions sent across the whole sweep.
    pub retransmits_sent: u64,
}

/// Timer token space: `START_TOKEN + i` starts target `i`;
/// `(i << 8) | ttl` is the per-hop timeout for target `i` at `ttl`.
const START_BASE: u64 = 1 << 48;

impl DnsRoutePlusPlus {
    /// Build from config.
    ///
    /// # Panics
    ///
    /// When `40 000 + targets.len() - 1` would exceed the 16-bit port
    /// space: the source port is the only Time-Exceeded correlator, so a
    /// wrapped port would silently alias two targets and orphan the
    /// earlier one's trace. Reject loudly instead of dropping traces.
    pub fn new(config: DnsRouteConfig) -> Self {
        let capacity = usize::from(u16::MAX - BASE_PORT) + 1;
        assert!(
            config.targets.len() <= capacity,
            "source-port space exhausted: {} targets from base port {BASE_PORT} \
             would wrap past 65535 and alias earlier targets; split the \
             sweep into shards (each shard world owns its own port space)",
            config.targets.len(),
        );
        let states = config
            .targets
            .iter()
            .map(|&target| TargetState {
                target,
                current_ttl: 0,
                attempts: 0,
                hops: Vec::new(),
                target_seen_at: None,
                dns: None,
                done: false,
            })
            .collect();
        config.retry.assert_valid();
        DnsRoutePlusPlus {
            config,
            states,
            retransmits_sent: 0,
        }
    }

    /// The target probing from source port `port`. Ports are `BASE_PORT +
    /// idx` with no wrap (capacity asserted in `new`), so a port below
    /// `BASE_PORT` wraps to an index past every target.
    fn target_of(&self, port: u16) -> Option<usize> {
        let idx = usize::from(port.wrapping_sub(BASE_PORT));
        (idx < self.states.len()).then_some(idx)
    }

    /// Extract results (after the simulation drained).
    pub fn results(&self) -> Vec<TraceResult> {
        self.states
            .iter()
            .map(|s| TraceResult {
                target: s.target,
                hops: s.hops.clone(),
                target_seen_at: s.target_seen_at,
                dns: s.dns,
            })
            .collect()
    }

    /// The wire probe for target `idx` at `ttl`: the study probe template
    /// with the txid patched in. The txid depends on `(idx, ttl)` alone, so a
    /// retransmission is byte-identical to its original.
    fn probe_send(&self, idx: usize, ttl: u8) -> UdpSend {
        // The answer's txid is the only way to recover which probe TTL
        // reached the resolver, so the low byte carries the full 8-bit TTL;
        // the high byte tags the target index for debugging — correlation
        // itself is by source port.
        let txid = (idx as u16) << 8 | u16::from(ttl);
        UdpSend {
            src: None,
            src_port: BASE_PORT + idx as u16,
            dst: self.states[idx].target,
            dst_port: dnswire::DNS_PORT,
            ttl: Some(ttl),
            payload: Payload::with_dns_id(study::probe_template(), txid),
        }
    }

    fn send_probe(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let s = &mut self.states[idx];
        if s.done || s.current_ttl >= MAX_TTL {
            s.done = true;
            return;
        }
        s.current_ttl += 1;
        s.attempts = 1;
        let ttl = s.current_ttl;
        s.hops.push(None); // provisional anonymous hop for this TTL
        debug_assert_eq!(s.hops.len(), ttl as usize);
        let send = self.probe_send(idx, ttl);
        ctx.send_udp(send);
        ctx.set_timer(
            self.config.hop_wait(idx, ttl, 0),
            ((idx as u64) << 8) | u64::from(ttl),
        );
    }

    /// Retransmit the current TTL's probe after a silent wait: same
    /// `(port, txid)`, same TTL, next backoff wait. The caller has
    /// checked attempts remain.
    fn retransmit_probe(&mut self, ctx: &mut Ctx<'_>, idx: usize, ttl: u8) {
        let attempt = self.states[idx].attempts; // 0-based index of this transmission
        let send = self.probe_send(idx, ttl);
        ctx.send_udp_attempt(send, attempt);
        self.states[idx].attempts += 1;
        self.retransmits_sent += 1;
        ctx.set_timer(
            self.config.hop_wait(idx, ttl, attempt),
            ((idx as u64) << 8) | u64::from(ttl),
        );
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if self.states[idx].done {
            return;
        }
        if self.states[idx].current_ttl >= MAX_TTL {
            self.states[idx].done = true;
            return;
        }
        self.send_probe(ctx, idx);
    }
}

impl Host for DnsRoutePlusPlus {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Only a DNS *answer* terminates a trace: it must come from the
        // DNS port and carry a response (QR=1) message. Any other UDP
        // datagram landing on a probe port — stray traffic, spoofed
        // noise, a reflected query — must not end the sweep early.
        if dgram.src_port != dnswire::DNS_PORT {
            return;
        }
        // Match by destination port (one per target).
        let Some(idx) = self.target_of(dgram.dst_port) else {
            return;
        };
        let Some(txid) = dnswire::peek_id(&dgram.payload) else {
            return;
        };
        if dnswire::peek_qr(&dgram.payload) != Some(true) {
            return;
        }
        let ttl = (txid & 0xFF) as u8;
        let s = &mut self.states[idx];
        if s.done || s.dns.is_some() {
            return;
        }
        s.dns = Some(DnsEndpoint {
            ttl,
            src: dgram.src,
            at: ctx.now(),
        });
        // The sweep's purpose is fulfilled once the resolver answered.
        s.done = true;
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
        if icmp.kind != netsim::IcmpKind::TimeExceeded {
            return;
        }
        let Some(quote) = icmp.quote else {
            return;
        };
        let Some(idx) = self.target_of(quote.src_port) else {
            return;
        };
        let s = &mut self.states[idx];
        if s.done {
            return;
        }
        let ttl = s.current_ttl;
        // ICMP quotes carry only the UDP header, so the probe TTL cannot be
        // recovered from the message; it is attributed to the current TTL.
        // The per-hop timeout (seconds) dwarfs RTTs (milliseconds), so a
        // late straggler for an older TTL is the only hazard — and it would
        // find the slot already filled or the sweep advanced, so duplicates
        // are dropped here rather than double-advancing.
        let slot = s.hops.get_mut((ttl as usize).saturating_sub(1));
        match slot {
            Some(h) if h.is_none() => *h = Some(icmp.from),
            _ => return,
        }
        if icmp.from == s.target && s.target_seen_at.is_none() {
            s.target_seen_at = Some(ttl);
            if !self.config.continue_past_target {
                // Classic traceroute: the destination answered, stop — and
                // thereby never see the forwarder→resolver segment.
                s.done = true;
                return;
            }
        }
        self.advance(ctx, idx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token >= START_BASE {
            let idx = (token - START_BASE) as usize;
            if idx < self.states.len() {
                self.send_probe(ctx, idx);
            }
            return;
        }
        let idx = (token >> 8) as usize;
        let ttl = (token & 0xFF) as u8;
        let Some(s) = self.states.get(idx) else {
            return;
        };
        // Only a timeout for the *current* TTL advances the sweep; stale
        // timers from already-answered hops are ignored.
        if s.done || s.current_ttl != ttl {
            return;
        }
        // Check whether this TTL got any reply; the hop slot tells us.
        let answered = s
            .hops
            .get((ttl as usize) - 1)
            .map(|h| h.is_some())
            .unwrap_or(false);
        if !answered {
            // Silent hop: retransmit while the policy allows, then record
            // it anonymous and move on.
            if s.attempts < self.config.retry.max_attempts {
                self.retransmit_probe(ctx, idx, ttl);
            } else {
                self.advance(ctx, idx);
            }
        }
    }
}

/// Install DNSRoute++ at `node`, run the sweep, and return all traces.
pub fn run_dnsroute(sim: &mut Simulator, node: NodeId, config: DnsRouteConfig) -> Vec<TraceResult> {
    let n = config.targets.len();
    sim.install(node, DnsRoutePlusPlus::new(config));
    if n > 0 {
        // One batched timer starts every trace: the k-th fires at k·gap with
        // token START_BASE + k, byte-identical to the old per-target loop.
        sim.schedule_timer_batch(node, SimDuration::ZERO, START_GAP, n as u32, START_BASE, 1);
    }
    sim.run();
    sim.host_as::<DnsRoutePlusPlus>(node)
        .expect("prober installed")
        .results()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarder_to_resolver_hop_math() {
        let t = TraceResult {
            target: Ipv4Addr::new(203, 0, 113, 1),
            hops: vec![
                Some(Ipv4Addr::new(10, 0, 0, 1)),
                Some(Ipv4Addr::new(203, 0, 113, 1)), // the forwarder at TTL 2
                Some(Ipv4Addr::new(10, 1, 0, 1)),
                Some(Ipv4Addr::new(10, 2, 0, 1)),
            ],
            target_seen_at: Some(2),
            dns: Some(DnsEndpoint {
                ttl: 5,
                src: Ipv4Addr::new(8, 8, 8, 8),
                at: SimTime(0),
            }),
        };
        assert_eq!(t.forwarder_to_resolver_hops(), Some(3));
        assert_eq!(
            t.hops_beyond_target(),
            vec![
                Some(Ipv4Addr::new(10, 1, 0, 1)),
                Some(Ipv4Addr::new(10, 2, 0, 1))
            ]
        );
        assert_eq!(
            t.hops_before_target(),
            vec![Some(Ipv4Addr::new(10, 0, 0, 1))]
        );
    }

    #[test]
    fn incomplete_traces_yield_none() {
        let no_dns = TraceResult {
            target: Ipv4Addr::new(203, 0, 113, 1),
            hops: vec![Some(Ipv4Addr::new(10, 0, 0, 1))],
            target_seen_at: Some(1),
            dns: None,
        };
        assert_eq!(no_dns.forwarder_to_resolver_hops(), None);
        let no_fwd = TraceResult {
            target: Ipv4Addr::new(203, 0, 113, 1),
            hops: vec![],
            target_seen_at: None,
            dns: Some(DnsEndpoint {
                ttl: 3,
                src: Ipv4Addr::new(8, 8, 8, 8),
                at: SimTime(0),
            }),
        };
        assert_eq!(no_fwd.forwarder_to_resolver_hops(), None);
        assert!(no_fwd.hops_beyond_target().is_empty());
    }

    // End-to-end sweeps through real topologies live in the crate's
    // integration tests (tests/traces.rs).
}
