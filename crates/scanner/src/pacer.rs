//! The pacing and retransmission core every index-paced prober sits on.
//!
//! The transactional scanner, the campaign emulations, the fingerprint
//! pass and the reflection attacker are one machine: send probe `i` at
//! `start + i·gap`, and (for the transactional scanner, the one that
//! retransmits) re-send it with backoff until it is answered or its
//! attempts run out. A [`Pacer`] owns
//! that machine — the timer-token space, the cursor, the batched pacing
//! timers and the per-probe retry ledger — and the host supplies only
//! what differs: its tuple scheme, its payload, what it does with
//! responses.
//!
//! A host forwards every timer token to [`Pacer::due`]; when that names
//! something to transmit, the host sends it and then calls
//! [`Pacer::sent`], which arms what follows. The simulator therefore sees
//! the same action order from every host: the send, that probe's
//! retry-check timer, then (from the first probe of each burst) one
//! batched pacing event covering the rest of the burst.

use netsim::{Ctx, RetryPolicy, SimDuration, TimerId};

/// The pacing token of the single-plan probers; whoever installs one
/// schedules this token once to start it.
pub(crate) const PACE_TOKEN: u64 = u64::MAX;

/// Retry-check tokens are `RETRY_BASE | probe_index`. `PACE_TOKEN` also
/// has the top bit set, so pacing is matched first; probe indices stay
/// far below the ambiguous range.
const RETRY_BASE: u64 = 1 << 63;

/// Probes paced per batched timer event (see `Ctx::set_timer_batch`).
/// Send times are exactly `index · gap` whatever this is — it only sets
/// how many queue events the pacing costs.
const BURST: usize = 16;

/// What a timer token asks the host to transmit: probe `index`, for the
/// `attempt`-th time after the original (0 = the original send; a
/// retransmission re-sends the same wire bytes through
/// `Ctx::send_udp_attempt(.., attempt)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Due {
    pub(crate) index: usize,
    pub(crate) attempt: u8,
}

/// Pacing cursor plus retry ledger for `total` probes.
#[derive(Debug)]
pub(crate) struct Pacer {
    total: usize,
    gap: SimDuration,
    pace_token: u64,
    retry: RetryPolicy,
    cursor: usize,
    /// Transmissions per probe (1 after the original send). Empty when
    /// retries are disabled — single-shot scans pay nothing.
    attempts_sent: Vec<u8>,
    /// "First response seen" per probe: retransmission stops the moment
    /// any response for the probe arrives. Empty when retries are disabled.
    answered: Vec<bool>,
    /// The retry check armed after each probe's latest transmission, which
    /// its first response cancels. Empty when retries are disabled.
    checks: Vec<Option<TimerId>>,
}

impl Pacer {
    /// A pacer for `total` probes `gap` apart, driven by `pace_token`.
    /// Panics on a degenerate `retry` policy.
    pub(crate) fn new(total: usize, gap: SimDuration, pace_token: u64, retry: RetryPolicy) -> Self {
        retry.assert_valid();
        let ledger = if retry.enabled() { total } else { 0 };
        Pacer {
            total,
            gap,
            pace_token,
            retry,
            cursor: 0,
            attempts_sent: vec![0; ledger],
            answered: vec![false; ledger],
            checks: vec![None; ledger],
        }
    }

    /// Which transmission, if any, the fired timer `token` calls for.
    /// Pacing tokens past the last probe, retry checks for answered or
    /// exhausted probes, and stale or foreign tokens are all `None`.
    pub(crate) fn due(&mut self, token: u64) -> Option<Due> {
        if token == self.pace_token {
            let index = self.cursor;
            if index == self.total {
                return None;
            }
            self.cursor += 1;
            return Some(Due { index, attempt: 0 });
        }
        if token & RETRY_BASE == 0 {
            return None;
        }
        let index = usize::try_from(token ^ RETRY_BASE).ok()?;
        let attempt = *self.attempts_sent.get(index)?;
        (attempt > 0 && !self.answered[index] && attempt < self.retry.max_attempts)
            .then_some(Due { index, attempt })
    }

    /// The host has put `due` on the wire: count the transmission, arm
    /// the probe's next retry check while attempts remain, and — from the
    /// first probe of each burst — one batched pacing event for the rest
    /// of the burst.
    pub(crate) fn sent(&mut self, ctx: &mut Ctx<'_>, due: Due) {
        let Due { index, attempt } = due;
        if self.retry.enabled() {
            let transmissions = attempt + 1;
            self.attempts_sent[index] = transmissions;
            if transmissions < self.retry.max_attempts {
                let check = self.retry.rto_after(transmissions - 1)
                    + self.retry.jitter_for(index as u64, transmissions);
                self.checks[index] = Some(ctx.set_timer(check, RETRY_BASE | index as u64));
            }
        }
        let remaining = self.total - self.cursor;
        if attempt == 0 && remaining > 0 && index.is_multiple_of(BURST) {
            let count = remaining.min(BURST) as u32;
            ctx.set_timer_batch(self.gap, self.gap, count, self.pace_token, 0);
        }
    }

    /// Record the first response for probe `index`, stopping its
    /// retransmissions — its pending retry check is cancelled; returns how
    /// many transmissions it took. `None` for a probe not yet sent, already
    /// answered, out of range, or when retries are disabled.
    pub(crate) fn answered(&mut self, ctx: &mut Ctx<'_>, index: usize) -> Option<u8> {
        let sent = *self.attempts_sent.get(index)?;
        if sent == 0 || self.answered[index] {
            return None;
        }
        self.answered[index] = true;
        if let Some(check) = self.checks[index].take() {
            ctx.cancel_timer(check);
        }
        Some(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::playground;
    use netsim::{Datagram, Host, SimConfig, SimTime, Simulator, UdpSend};
    use std::net::Ipv4Addr;

    const PROBER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const SINK: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const BASE_PORT: u16 = 40_000;
    const GAP: SimDuration = SimDuration::from_micros(50);
    const START: SimDuration = SimDuration::from_millis(7);

    /// The least a host can be: probe `i` goes out from port
    /// `BASE_PORT + i`, every transmission is logged, and any datagram
    /// back on that port answers probe `i`.
    struct Prober {
        pacer: Pacer,
        log: Vec<(SimTime, Due)>,
    }

    impl Host for Prober {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            self.pacer
                .answered(ctx, usize::from(dgram.dst_port - BASE_PORT));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let Some(due) = self.pacer.due(token) else {
                return;
            };
            self.log.push((ctx.now(), due));
            let port = BASE_PORT + due.index as u16;
            ctx.send_udp_attempt(UdpSend::new(port, SINK, 9, vec![0]), due.attempt);
            self.pacer.sent(ctx, due);
        }
    }

    /// Echoes probes from even source ports, swallows the rest.
    struct EvenEcho;

    impl Host for EvenEcho {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            if dgram.src_port.is_multiple_of(2) {
                ctx.send_udp(UdpSend::reply_to(&dgram, dgram.payload.clone()));
            }
        }
    }

    /// Run `total` probes under `retry`, plus `extra` stray timer tokens,
    /// and return the transmission log and the simulator's counters.
    fn run(
        total: usize,
        retry: RetryPolicy,
        extra: &[(SimDuration, u64)],
    ) -> (Vec<(SimTime, Due)>, netsim::SimStats) {
        let (topo, nodes) = playground(&[PROBER, SINK]);
        let mut sim = Simulator::new(topo, SimConfig::default());
        sim.install(
            nodes[0],
            Prober {
                pacer: Pacer::new(total, GAP, PACE_TOKEN, retry),
                log: Vec::new(),
            },
        );
        sim.install(nodes[1], EvenEcho);
        sim.schedule_timer(nodes[0], START, PACE_TOKEN);
        for &(delay, token) in extra {
            sim.schedule_timer(nodes[0], delay, token);
        }
        sim.run();
        let log = std::mem::take(&mut sim.host_as_mut::<Prober>(nodes[0]).unwrap().log);
        (log, sim.stats().clone())
    }

    fn sent_at(index: usize) -> SimTime {
        SimTime::ZERO + START + SimDuration(GAP.as_micros() * index as u64)
    }

    #[test]
    fn probes_go_out_on_the_gap_grid_with_one_batch_per_burst() {
        // `coalesced` literals are the parent commit's for the same scans.
        for (total, coalesced) in [(1usize, 0u64), (16, 14), (17, 15), (33, 30)] {
            let (log, stats) = run(total, RetryPolicy::none(), &[]);
            let expected: Vec<(SimTime, Due)> = (0..total)
                .map(|index| (sent_at(index), Due { index, attempt: 0 }))
                .collect();
            assert_eq!(log, expected, "total {total}");
            // Every probe is one timer callback; all but the bootstrap and
            // one event per burst leader with probes remaining ride a batch.
            let batches = (total as u64 - 1).div_ceil(BURST as u64);
            assert_eq!(stats.timers_fired, total as u64, "total {total}");
            assert_eq!(stats.timers_coalesced, coalesced, "total {total}");
            assert_eq!(stats.timers_fired - stats.timers_coalesced, 1 + batches);
        }
    }

    #[test]
    fn retry_checks_follow_the_backoff_schedule_and_stop_on_an_answer() {
        let plain = RetryPolicy {
            initial_rto: SimDuration::from_millis(100),
            ..RetryPolicy::retries(2)
        };
        for policy in [plain, plain.with_jitter(SimDuration::from_millis(3))] {
            let total = 19;
            let (log, stats) = run(total, policy, &[]);
            let mut expected = Vec::new();
            for index in 0..total {
                let mut at = sent_at(index);
                expected.push((at, Due { index, attempt: 0 }));
                // Odd ports are never answered: every attempt is spent,
                // each check `rto_after(n-1) + jitter_for(i, n)` after
                // transmission `n`. Even ones are answered at once.
                if index % 2 == 1 {
                    for n in 1..policy.max_attempts {
                        at = at + policy.rto_after(n - 1) + policy.jitter_for(index as u64, n);
                        expected.push((at, Due { index, attempt: n }));
                    }
                }
            }
            let mut log = log;
            log.sort_by_key(|(at, due)| (due.index, *at));
            assert_eq!(log, expected);
            assert_eq!(stats.retransmits_sent, 2 * 9);
        }
    }

    #[test]
    fn stale_foreign_and_out_of_range_tokens_transmit_nothing() {
        let late = SimDuration::from_secs(60);
        let strays = [
            // A retry check for a probe not sent yet, and one past the end.
            (SimDuration::ZERO, RETRY_BASE | 3),
            (late, RETRY_BASE | 99),
            (late, RETRY_BASE | (1 << 40)),
            // Checks after the probe was answered (0) or exhausted (1).
            (late, RETRY_BASE),
            (late, RETRY_BASE | 1),
            // Someone else's token, and pacing after the last probe.
            (late, 12_345),
            (late, PACE_TOKEN),
        ];
        let (clean, _) = run(5, RetryPolicy::retries(1), &[]);
        let (strayed, _) = run(5, RetryPolicy::retries(1), &strays);
        assert_eq!(strayed, clean);
        assert_eq!(clean.len(), 5 + 2, "probes 1 and 3 retried once");
        // With retries off there is no ledger for a retry token to hit.
        let (single, stats) = run(5, RetryPolicy::none(), &strays);
        assert_eq!(single.len(), 5);
        assert_eq!(stats.retransmits_sent, 0);
    }
}
