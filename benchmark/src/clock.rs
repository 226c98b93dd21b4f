//! The benchmark's only wall-clock read. Every timing in this package goes
//! through [`now`], so the determinism lint has exactly one site to audit.

use std::time::Instant;

/// Host wall time.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // detlint::allow(wall-clock): host wall time is the quantity this benchmark reports; it is never fed back into a simulator
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}
