//! The host table of a generated world: one typed slot per node.
//!
//! A world's simulator stores its hosts as [`WorldHost`], an enum over the
//! kinds [`crate::generate`] plants plus the study stack, so planting a
//! forwarder allocates no box for it and a delivery calls it through a
//! `match`, not a vtable. Whatever else an experiment installs — a prober,
//! a sensor, a test host — goes into [`WorldHost::Other`].

use netsim::{Ctx, Datagram, Host, HostEntry, IcmpMessage, TimerOutcome};
use odns::{
    DelegatingServer, RecursiveForwarder, RecursiveResolver, StudyAuthServer, TransparentForwarder,
};
use std::any::Any;

/// One node's host in a generated world.
pub enum WorldHost {
    /// A recursive resolver, planted or a public project's instance:
    /// boxed, being the widest kind by far.
    Resolver(Box<RecursiveResolver>),
    /// A recursive forwarder, manipulating or not.
    RecursiveForwarder(RecursiveForwarder),
    /// A transparent forwarder.
    TransparentForwarder(TransparentForwarder),
    /// The study stack's root or TLD server.
    Delegating(DelegatingServer),
    /// The study's authoritative server.
    StudyAuth(StudyAuthServer),
    /// Any other host: probers, sensors, test hosts.
    Other(Box<dyn Host>),
}

// A slot is exactly as wide as a recursive forwarder, the kind most nodes
// hold; a kind that outgrows it goes into a box, not into every slot.
const _: () = assert!(std::mem::size_of::<WorldHost>() == 320);

/// `host` as an `X`, taken out of its option, when that is its type.
fn take<X: 'static, T: 'static>(host: &mut Option<T>) -> Option<X> {
    (host as &mut dyn Any).downcast_mut::<Option<X>>()?.take()
}

/// Run `$body` on the host `$self` stores, bound as `$h`.
macro_rules! on_each {
    ($self:expr, $h:ident => $body:expr) => {
        match $self {
            WorldHost::Resolver($h) => $body,
            WorldHost::RecursiveForwarder($h) => $body,
            WorldHost::TransparentForwarder($h) => $body,
            WorldHost::Delegating($h) => $body,
            WorldHost::StudyAuth($h) => $body,
            WorldHost::Other($h) => $body,
        }
    };
}

impl Host for WorldHost {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        on_each!(self, h => h.on_datagram(ctx, dgram));
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, icmp: IcmpMessage) {
        on_each!(self, h => h.on_icmp(ctx, icmp));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> TimerOutcome {
        on_each!(self, h => h.on_timer(ctx, token))
    }
}

impl HostEntry for WorldHost {
    /// A planted kind goes into its own variant — a resolver into the box
    /// the slot already holds, when it holds one — and anything else into
    /// [`WorldHost::Other`].
    fn put<T: Host>(slot: &mut Option<Self>, host: T) {
        let mut host = Some(host);
        if let Some(resolver) = take(&mut host) {
            match slot {
                Some(WorldHost::Resolver(boxed)) => **boxed = resolver,
                _ => *slot = Some(WorldHost::Resolver(Box::new(resolver))),
            }
            return;
        }
        *slot = Some(if let Some(f) = take(&mut host) {
            WorldHost::RecursiveForwarder(f)
        } else if let Some(f) = take(&mut host) {
            WorldHost::TransparentForwarder(f)
        } else if let Some(server) = take(&mut host) {
            WorldHost::Delegating(server)
        } else if let Some(server) = take(&mut host) {
            WorldHost::StudyAuth(server)
        } else {
            WorldHost::Other(Box::new(host.take().expect("no variant took it")))
        });
    }

    fn concrete(&self) -> &dyn Any {
        match self {
            WorldHost::Resolver(h) => &**h,
            WorldHost::RecursiveForwarder(h) => h,
            WorldHost::TransparentForwarder(h) => h,
            WorldHost::Delegating(h) => h,
            WorldHost::StudyAuth(h) => h,
            WorldHost::Other(h) => &**h,
        }
    }

    fn concrete_mut(&mut self) -> &mut dyn Any {
        match self {
            WorldHost::Resolver(h) => &mut **h,
            WorldHost::RecursiveForwarder(h) => h,
            WorldHost::TransparentForwarder(h) => h,
            WorldHost::Delegating(h) => h,
            WorldHost::StudyAuth(h) => h,
            WorldHost::Other(h) => &mut **h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testkit::{playground, ScriptedClient};
    use netsim::Simulator;
    use std::net::Ipv4Addr;

    #[test]
    fn every_kind_lands_in_its_variant_and_reads_back_by_type() {
        let upstream = Ipv4Addr::new(198, 51, 100, 1);
        let ips: Vec<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
        let (topo, nodes) = playground(&ips);
        let mut sim: Simulator<WorldHost> = Simulator::with_host_table(topo);
        sim.install(nodes[0], RecursiveForwarder::new(upstream));
        sim.install(nodes[1], TransparentForwarder::new(upstream));
        sim.install(nodes[2], ScriptedClient::new());
        assert!(sim.host_as::<RecursiveForwarder>(nodes[0]).is_some());
        assert!(sim.host_as::<TransparentForwarder>(nodes[0]).is_none());
        assert!(sim.host_as_mut::<TransparentForwarder>(nodes[1]).is_some());
        assert!(sim.host_as::<ScriptedClient>(nodes[2]).is_some());
        assert!(sim.host_as::<Box<dyn Host>>(nodes[2]).is_none());
        let mut slot = None;
        WorldHost::put(&mut slot, TransparentForwarder::new(upstream));
        assert!(matches!(slot, Some(WorldHost::TransparentForwarder(_))));
        WorldHost::put(&mut slot, ScriptedClient::new());
        assert!(matches!(slot, Some(WorldHost::Other(_))));

        // A resolver overwrites the one a slot holds inside its box.
        let resolver = || RecursiveResolver::new(upstream, 512);
        let boxed = |slot: &Option<WorldHost>| match slot {
            Some(WorldHost::Resolver(b)) => &**b as *const RecursiveResolver,
            _ => panic!("a resolver has its own variant"),
        };
        WorldHost::put(&mut slot, resolver());
        let first = boxed(&slot);
        WorldHost::put(&mut slot, resolver());
        assert_eq!(boxed(&slot), first, "the box was reused");
    }
}
