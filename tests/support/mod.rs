//! Test oracles shared by the root integration suites.
//!
//! Production path selection resolves every bandwidth-weighted pick
//! through the consensus index (`ptperf_tor::path::indexed`). The
//! original two-pass full-consensus scan it must match bit for bit
//! lives here, together with the eager guard sampler the lazy guard
//! sample replaced. `tests/path_equivalence.rs` checks picks and whole
//! selectors against them; `tests/guard_sample_draws.rs` checks the lazy
//! sample's failover walk.
//!
//! Every floating-point operation in [`reference`] and its order is
//! load-bearing: the indexed pick promises bit-identical selections and
//! RNG draw counts. Do not "clean up" the arithmetic.

// Each suite that declares `mod support;` compiles its own copy and uses
// only part of it.
#![allow(dead_code)]

use ptperf_sim::SimRng;
use ptperf_tor::{
    CircuitSpec, Consensus, FilterClass, PathError, RelayId, Role, PRIMARY_GUARDS, SAMPLED_GUARDS,
};

/// The reference bandwidth-weighted pick: a filtered left-to-right scan
/// over the whole consensus.
pub mod reference {
    use ptperf_sim::SimRng;
    use ptperf_tor::{Relay, RelayId};

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

    /// Bandwidth-weighted sample over relays passing `filter`, excluding
    /// ids in `exclude`. Returns `None` when nothing qualifies, in which
    /// case the RNG is *not* advanced; otherwise exactly one `next_f64`
    /// is consumed.
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
    /// uniform `u` against a precomputed `total`, so suites can probe
    /// specific draw values (boundary and tail cases).
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
}

/// The eager guard sampler with `PathSelector`'s failover policy, over
/// the reference pick: the first selection draws all
/// [`SAMPLED_GUARDS`] guards at once (stopping at the first pick that
/// finds nothing eligible), then picks exit and middle.
#[derive(Debug, Default)]
pub struct EagerOracle {
    /// The guard sample, in draw order.
    pub sample: Vec<RelayId>,
    /// Guards marked down.
    pub down: Vec<RelayId>,
}

impl EagerOracle {
    /// One reference pick over `class`.
    pub fn pick(
        rng: &mut SimRng,
        c: &Consensus,
        class: FilterClass,
        exclude: &[RelayId],
    ) -> Option<RelayId> {
        reference::weighted_pick(rng, c.relays(), |r| class.matches(r), exclude)
    }

    /// The first sampled guard not marked down.
    pub fn current_guard(&self) -> Option<RelayId> {
        self.sample.iter().find(|g| !self.down.contains(g)).copied()
    }

    /// The primary guards: the first [`PRIMARY_GUARDS`] of the sample.
    pub fn primary_guards(&self) -> &[RelayId] {
        &self.sample[..self.sample.len().min(PRIMARY_GUARDS)]
    }

    /// Picks a circuit path, sampling guards first if there is no sample.
    pub fn select(&mut self, c: &Consensus, rng: &mut SimRng) -> Result<CircuitSpec, PathError> {
        if self.sample.is_empty() {
            for _ in 0..SAMPLED_GUARDS {
                match Self::pick(rng, c, FilterClass::Guard, &self.sample) {
                    Some(g) => self.sample.push(g),
                    None => break,
                }
            }
        }
        let guard = self
            .current_guard()
            .ok_or(PathError::NoEligibleRelay(Role::Guard))?;
        let exit = Self::pick(rng, c, FilterClass::Exit, &[guard])
            .ok_or(PathError::NoEligibleRelay(Role::Exit))?;
        let middle = Self::pick(rng, c, FilterClass::All, &[guard, exit])
            .ok_or(PathError::NoEligibleRelay(Role::Middle))?;
        Ok(CircuitSpec {
            guard,
            middle,
            exit,
        })
    }

    /// Drops the sample and the down list (a new identity).
    pub fn rotate_guard(&mut self) {
        self.sample.clear();
        self.down.clear();
    }
}
