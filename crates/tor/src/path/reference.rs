//! Reference bandwidth-weighted pick: the original two-pass filtered
//! scan, retained verbatim as the equivalence oracle for
//! [`super::indexed`] (the same role the progressive-filling scheduler
//! in `tests/link_share_oracle.rs` plays for page-load link sharing).
//!
//! Every floating-point operation and its order is load-bearing: the
//! indexed pick promises bit-identical selections, and the equivalence
//! suite (`crates/tor/tests/path_equivalence.rs`) compares against this
//! implementation directly. Do not "clean up" the arithmetic here.

use ptperf_sim::SimRng;

use crate::relay::{Relay, RelayId};

/// The filtered bandwidth total the reference pick draws against: an
/// in-order left-to-right `f64` sum over eligible relays.
pub fn filtered_total(
    relays: &[Relay],
    filter: impl Fn(&Relay) -> bool,
    exclude: &[RelayId],
) -> f64 {
    relays
        .iter()
        .filter(|r| filter(r) && !exclude.contains(&r.id))
        .map(|r| r.bandwidth_bps)
        .sum()
}

/// Bandwidth-weighted sample over relays passing `filter`, excluding ids in
/// `exclude`. Returns `None` when nothing qualifies — in which case the
/// RNG is *not* advanced; otherwise exactly one `next_f64` is consumed.
pub fn weighted_pick(
    rng: &mut SimRng,
    relays: &[Relay],
    filter: impl Fn(&Relay) -> bool,
    exclude: &[RelayId],
) -> Option<RelayId> {
    let total = filtered_total(relays, &filter, exclude);
    if total <= 0.0 {
        return None;
    }
    weighted_pick_with_u(rng.next_f64(), total, relays, filter, exclude)
}

/// The post-draw half of [`weighted_pick`]: resolves an already-drawn
/// uniform `u` against a precomputed `total`. Split out so equivalence
/// tests can probe specific draw values (boundary and tail cases) without
/// reverse-engineering RNG states.
pub fn weighted_pick_with_u(
    u: f64,
    total: f64,
    relays: &[Relay],
    filter: impl Fn(&Relay) -> bool,
    exclude: &[RelayId],
) -> Option<RelayId> {
    let mut target = u * total;
    for r in relays {
        if !filter(r) || exclude.contains(&r.id) {
            continue;
        }
        target -= r.bandwidth_bps;
        if target <= 0.0 {
            return Some(r.id);
        }
    }
    // Floating-point tail: return the last eligible relay.
    relays
        .iter()
        .rev()
        .find(|r| filter(r) && !exclude.contains(&r.id))
        .map(|r| r.id)
}
