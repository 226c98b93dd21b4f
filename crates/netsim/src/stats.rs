//! Simulation-wide counters.

use std::fmt;

/// Why a packet was dropped instead of delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The sender's AS enforces outbound source-address validation and the
    /// source IP was spoofed — the filter that *prevents* transparent
    /// forwarding in well-run networks (§2).
    SavOutbound,
    /// No route between the endpoints.
    NoRoute,
    /// Destination IP not assigned to any host.
    NoSuchHost,
    /// TTL reached zero in transit (an ICMP Time Exceeded was emitted).
    TtlExpired,
    /// Fault-injection drop: the packet silently vanished in transit.
    Fault,
    /// Fault-injection corruption: the packet arrived damaged and the
    /// receiver's checksum verification discarded it.
    Corrupt,
}

/// Counters maintained by the simulator. All fields are cumulative.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// UDP datagrams submitted by hosts.
    pub udp_sent: u64,
    /// UDP datagrams delivered to hosts.
    pub udp_delivered: u64,
    /// UDP datagrams sent with a spoofed source that were *permitted*
    /// (sender's AS does not filter) — every transparent-forwarder relay
    /// increments this.
    pub spoofed_sent: u64,
    /// Drops by reason.
    pub dropped_sav: u64,
    /// No-route drops.
    pub dropped_no_route: u64,
    /// Unassigned-destination drops.
    pub dropped_no_such_host: u64,
    /// TTL expiries (each also generates an ICMP Time Exceeded).
    pub dropped_ttl: u64,
    /// Fault-injection drops (packet vanished in transit).
    pub dropped_fault: u64,
    /// Corrupt-discard drops (packet arrived damaged; the receiver's
    /// checksum check threw it away). A distinct class from
    /// `dropped_fault` so loss and corruption are separately attributable.
    pub dropped_corrupt: u64,
    /// ICMP messages delivered.
    pub icmp_delivered: u64,
    /// ICMP messages whose destination did not exist (e.g. errors toward a
    /// spoofed, unassigned victim address).
    pub icmp_undeliverable: u64,
    /// Duplicates injected by fault config (the extra copies delivered,
    /// not drops — the third fault class next to drop and corrupt).
    pub duplicates_injected: u64,
    /// Retransmissions submitted by hosts (UDP sends with attempt > 0).
    pub retransmits_sent: u64,
    /// Total UDP payload bytes delivered (amplification accounting).
    pub udp_bytes_delivered: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Timer callbacks served from an already-popped batch event —
    /// queue operations batched pacing avoided (a burst of B probes
    /// fires B callbacks from one event: 1 fired + B-1 coalesced).
    pub timers_coalesced: u64,
    /// Timers cancelled while still pending ([`crate::Ctx::cancel_timer`]
    /// returned `true`): scheduled, never fired — the timeout of a query
    /// that was answered, the retry check of a probe that was.
    pub timers_cancelled: u64,
    /// Events scheduled into the timer wheel (O(1) near-future slots).
    pub events_wheel_scheduled: u64,
    /// Events scheduled into the far-future overflow heap (beyond the
    /// wheel's 2^36 µs horizon — long timeouts, end-of-run sentinels).
    pub events_heap_scheduled: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Route-cache hits: resolves whose `(src AS, dst AS)` segment was
    /// already cached — no allocation, whether or not the host pair was
    /// seen before. `hits + misses` is the number of successfully routed
    /// resolves (sends and host-originated ICMP errors).
    pub route_cache_hits: u64,
    /// Route-cache misses: resolves that built their AS pair's segment —
    /// one per reachable AS pair touched.
    pub route_cache_misses: u64,
}

impl SimStats {
    /// Record a drop.
    pub fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::SavOutbound => self.dropped_sav += 1,
            DropReason::NoRoute => self.dropped_no_route += 1,
            DropReason::NoSuchHost => self.dropped_no_such_host += 1,
            DropReason::TtlExpired => self.dropped_ttl += 1,
            DropReason::Fault => self.dropped_fault += 1,
            DropReason::Corrupt => self.dropped_corrupt += 1,
        }
    }

    /// Conservation, of packets and of queue events. Every datagram that
    /// passed outbound SAV, and every injected duplicate, was either
    /// delivered or dropped for exactly one reason (SAV drops happen before
    /// `udp_sent` and are not part of the balance); and every event
    /// scheduled, on the wheel or the overflow heap, was either processed
    /// or a timer cancelled before it fired. Holds whenever no event is
    /// still queued, i.e. after a drained [`crate::Simulator::run`].
    pub fn conserved(&self) -> bool {
        self.udp_sent + self.duplicates_injected
            == self.udp_delivered
                + self.dropped_no_route
                + self.dropped_no_such_host
                + self.dropped_ttl
                + self.dropped_fault
                + self.dropped_corrupt
            && self.events_wheel_scheduled + self.events_heap_scheduled
                == self.events_processed + self.timers_cancelled
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "udp: sent={} delivered={} spoofed={} bytes={}",
            self.udp_sent, self.udp_delivered, self.spoofed_sent, self.udp_bytes_delivered
        )?;
        writeln!(
            f,
            "drops: sav={} no_route={} no_host={} ttl={} fault={} corrupt={}",
            self.dropped_sav,
            self.dropped_no_route,
            self.dropped_no_such_host,
            self.dropped_ttl,
            self.dropped_fault,
            self.dropped_corrupt
        )?;
        writeln!(
            f,
            "icmp: delivered={} undeliverable={} | dup={} retx={} timers={} coalesced={} cancelled={} events={}",
            self.icmp_delivered,
            self.icmp_undeliverable,
            self.duplicates_injected,
            self.retransmits_sent,
            self.timers_fired,
            self.timers_coalesced,
            self.timers_cancelled,
            self.events_processed
        )?;
        writeln!(
            f,
            "queue: wheel_scheduled={} heap_scheduled={}",
            self.events_wheel_scheduled, self.events_heap_scheduled
        )?;
        write!(
            f,
            "routes: cache_hits={} cache_misses={}",
            self.route_cache_hits, self.route_cache_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_drop_routes_to_right_counter() {
        let mut s = SimStats::default();
        s.record_drop(DropReason::SavOutbound);
        s.record_drop(DropReason::TtlExpired);
        s.record_drop(DropReason::TtlExpired);
        assert_eq!(s.dropped_sav, 1);
        assert_eq!(s.dropped_ttl, 2);
    }

    #[test]
    fn fault_and_corrupt_are_distinct_drop_classes() {
        let mut s = SimStats::default();
        s.record_drop(DropReason::Fault);
        s.record_drop(DropReason::Corrupt);
        s.record_drop(DropReason::Corrupt);
        assert_eq!(s.dropped_fault, 1);
        assert_eq!(s.dropped_corrupt, 2);
        let text = s.to_string();
        assert!(text.contains("fault=1"));
        assert!(text.contains("corrupt=2"));
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = SimStats {
            udp_sent: 5,
            dropped_sav: 2,
            ..SimStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("sent=5"));
        assert!(text.contains("sav=2"));
    }
}
