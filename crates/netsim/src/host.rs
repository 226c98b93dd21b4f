//! The [`Host`] trait — how protocol logic attaches to simulated nodes —
//! and the per-event [`Ctx`] handed to handlers.

use crate::packet::{Datagram, IcmpKind, IcmpMessage, Payload, DEFAULT_TTL};
use crate::sim::SimCore;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::wheel::TimerId;
use std::any::Any;
use std::net::Ipv4Addr;

/// A UDP send request issued by a host.
#[derive(Debug, Clone)]
pub struct UdpSend {
    /// Source address. `None` uses the node's primary IP. A `Some` value
    /// that the node does not own is *spoofing* and is subject to the
    /// sending AS's outbound SAV policy — the transparent forwarder's relay
    /// sets this to the original client's address (§2).
    pub src: Option<Ipv4Addr>,
    /// UDP source port.
    pub src_port: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// UDP destination port.
    pub dst_port: u16,
    /// Initial TTL; `None` uses [`DEFAULT_TTL`]. DNSRoute++ sweeps this
    /// field; a transparent forwarder sets it to `arrival_ttl - 1`.
    pub ttl: Option<u8>,
    /// Payload bytes (typically an encoded DNS message). Shared, so a
    /// relay reuses the arriving datagram's bytes without copying.
    pub payload: Payload,
}

impl UdpSend {
    /// Plain send from the node's primary address with default TTL.
    pub fn new(src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: impl Into<Payload>) -> Self {
        UdpSend {
            src: None,
            src_port,
            dst,
            dst_port,
            ttl: None,
            payload: payload.into(),
        }
    }

    /// The reply to `dgram`: from the address and port it was sent to,
    /// back to the address and port it came from, default TTL.
    pub fn reply_to(dgram: &Datagram, payload: impl Into<Payload>) -> Self {
        UdpSend {
            src: Some(dgram.dst),
            src_port: dgram.dst_port,
            dst: dgram.src,
            dst_port: dgram.src_port,
            ttl: None,
            payload: payload.into(),
        }
    }

    /// Effective TTL.
    pub fn effective_ttl(&self) -> u8 {
        self.ttl.unwrap_or(DEFAULT_TTL)
    }
}

/// Context passed to every host handler: the handler's view of the
/// simulator, borrowed apart from the host table, so the host runs where
/// the table stores it. Every call acts at once and in call order — a
/// send is routed and queued, a timer is in the queue — so
/// [`Ctx::set_timer`] can hand back the handle that [`Ctx::cancel_timer`]
/// takes. Nothing a handler queues fires before it returns: the event
/// loop pops the next event only then.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read access to the topology (for ACL checks, AS lookups, …).
    pub fn topology(&self) -> &Topology {
        self.core.topology()
    }

    /// Send a UDP datagram (an original transmission, attempt 0).
    pub fn send_udp(&mut self, send: UdpSend) {
        self.core.process_send(self.node, send, 0);
    }

    /// Send a UDP datagram tagged as retransmission attempt `attempt`
    /// (1-based for retries). The attempt number feeds the stateless
    /// fault plane's flow key — a retry's drop/corrupt/jitter decisions
    /// are independent of the original's — and attempts > 0 are counted
    /// in [`crate::SimStats::retransmits_sent`].
    pub fn send_udp_attempt(&mut self, send: UdpSend, attempt: u8) {
        self.core.process_send(self.node, send, attempt);
    }

    /// Set a timer that fires `delay` from now, delivering `token` to
    /// [`Host::on_timer`]. The returned handle cancels it; like the host
    /// that holds it, a handle does not outlive [`crate::Simulator::reset`].
    #[must_use = "a dropped handle can never be cancelled: the timer fires even after its work is done"]
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.core.set_timer(self.node, delay, token)
    }

    /// Cancel a timer this host set: `true` when it was still pending and
    /// now never fires. `false` when it has fired, was cancelled before, or
    /// lay beyond the queue's ≈ 19 h wheel horizon — such a timer still
    /// fires, so an [`Host::on_timer`] must tolerate a token whose work is
    /// already done (and report it [`TimerOutcome::Stale`]).
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.core.cancel_timer(id)
    }

    /// Set a *batch* of `count` timer callbacks sharing one queue event:
    /// the `k`-th (0-based) fires at `now + delay + k·stride` delivering
    /// `token + k·token_step` (wrapping) to [`Host::on_timer`]. Callback
    /// times are exactly what `count` individual [`Ctx::set_timer`] calls
    /// would produce — batching changes queue cost, never timing — which
    /// is how scanners pace a burst of B probes on one event instead of B.
    pub fn set_timer_batch(
        &mut self,
        delay: SimDuration,
        stride: SimDuration,
        count: u32,
        token: u64,
        token_step: u64,
    ) {
        self.core
            .schedule_timer_batch(self.node, delay, stride, count, token, token_step);
    }

    /// Send an ICMP port-unreachable in response to `original` (what a
    /// host with no listener on the probed port does).
    pub fn send_port_unreachable(&mut self, original: &Datagram) {
        self.core
            .process_icmp_error(self.node, original, IcmpKind::PortUnreachable);
    }

    /// Send an ICMP time-exceeded in response to `original`. A transparent
    /// forwarder does this when a query arrives whose remaining TTL does not
    /// survive the relay decrement — "the IP stack of the transparent
    /// forwarder replies when the TTL is exceeded, which stops forwarding"
    /// (§5). This is what makes the forwarder itself visible to DNSRoute++.
    pub fn send_time_exceeded(&mut self, original: &Datagram) {
        self.core
            .process_icmp_error(self.node, original, IcmpKind::TimeExceeded);
    }
}

/// What a [`Host::on_timer`] did with its token. The simulator counts
/// the stale ones in [`crate::SimStats::timers_stale`]: each is a queue
/// event a cancellation could have saved.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOutcome {
    /// The token named pending work and the handler did it.
    Acted,
    /// The token's entry was gone — answered, finished, never armed — and
    /// the handler did nothing.
    Stale,
}

/// Protocol logic attached to a node.
///
/// Handlers receive a [`Ctx`] for sending, and for setting and cancelling
/// timers. Hosts are [`Any`] so results can be extracted after a run
/// (see [`crate::sim::Simulator::host_as`]).
///
/// Hosts are `Send` so a fully populated [`crate::Simulator`] can move to
/// a worker thread — sharded censuses drive one simulator per thread.
pub trait Host: Any + Send {
    /// A UDP datagram arrived for one of this node's addresses.
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram);

    /// An ICMP message arrived (Time Exceeded, Port Unreachable, …).
    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
        let _ = (ctx, icmp);
    }

    /// A timer set through [`Ctx::set_timer`] fired. A host without
    /// timers finds nothing to do.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        let _ = (ctx, token);
        TimerOutcome::Stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_send_defaults() {
        let s = UdpSend::new(4000, Ipv4Addr::new(1, 2, 3, 4), 53, vec![1]);
        assert_eq!(s.src, None);
        assert_eq!(s.effective_ttl(), DEFAULT_TTL);
        let spoofed = UdpSend {
            src: Some(Ipv4Addr::new(9, 9, 9, 9)),
            ttl: Some(3),
            ..s
        };
        assert_eq!(spoofed.effective_ttl(), 3);
    }
}
