//! # odns — the Open DNS infrastructure component zoo
//!
//! Every DNS speaker of the paper's Figure 1, implemented as [`netsim`]
//! hosts:
//!
//! * [`StudyAuthServer`] — the study's authoritative server answering with
//!   a dynamic client-reflecting A record plus a static control record
//!   (the *source-specific response* detection method, §2/§4.1);
//! * [`DelegatingServer`] — root/TLD layers so recursive resolution is
//!   genuinely iterative;
//! * [`RecursiveResolver`] — open, restricted, or anycast-PoP recursive
//!   resolver with positive/negative caching;
//! * [`RecursiveForwarder`] — the address-rewriting forwarder (the ODNS
//!   majority, 72 % in Table 1);
//! * [`TransparentForwarder`] — the paper's subject: a stateless, spoofing
//!   relay that decrement-forwards TTLs and never sees responses;
//! * [`ResolverProject`] — service addresses and ASNs of
//!   Google/Cloudflare/Quad9/OpenDNS (Figures 5 and 6);
//! * [`DeviceProfile`] — CPE fingerprinting surface (MikroTik et al., §6);
//! * [`PrefixRateLimiter`] — the sensors' 1-per-5-min-per-/24 policy.
//!
//! All components speak real DNS wire format via [`dnswire`] and interact
//! only through the simulator, so measurement tools in the `scanner` crate
//! observe them exactly as a real scanner would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod device;
pub mod forwarder;
pub mod memo;
pub mod public;
pub mod ratelimit;
pub mod recursive;
pub mod study;
pub mod zone;

pub use auth::{AuthLogEntry, AuthStats, StudyAuthServer};
pub use cache::{CacheKey, CacheStats, CachedAnswer, CachedWire, DnsCache, ServeCache};
pub use device::{DeviceProfile, Vendor};
pub use forwarder::{
    Manipulation, RecursiveForwarder, RecursiveForwarderStats, TransparentForwarder,
    TransparentForwarderStats,
};
pub use memo::QueryMemo;
pub use public::ResolverProject;
pub use ratelimit::{prefix24, PrefixRateLimiter};
pub use recursive::{in_prefix, AccessPolicy, RecursiveResolver, ResolverConfig, ResolverStats};
pub use study::{install_study_stack, StudyNodes};
pub use zone::{extract_referral, DelegatingServer, Delegation, Referral};
