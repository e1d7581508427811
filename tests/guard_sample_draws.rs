//! Pins the lazy guard sample against the eager sampler it replaces.
//!
//! `PathSelector` takes all `SAMPLED_GUARDS` guard-sample draws at the
//! first selection but resolves a sampled guard only when something
//! needs it. That is bit-exact only when every eager pick would take
//! exactly one draw, so the selector defers only when the consensus
//! index is exact and the guard class has at least `SAMPLED_GUARDS`
//! members with positive bandwidth; otherwise it resolves each pick as
//! it draws.
//!
//! The oracle here is the eager sampler itself, written against the
//! reference pick: `SAMPLED_GUARDS` calls of
//! `path::reference::weighted_pick` with a growing exclude list,
//! stopping at the first `None`. For guard classes on both sides of the
//! deferral precondition, the suite walks a selector and the oracle in
//! lock-step through first selections, a failover through the whole
//! sample and back, the accessors and a guard rotation, and asserts the
//! same sample, the same circuit and the same `SimRng` state after
//! every call.

use ptperf_sim::SimRng;
use ptperf_tor::path::reference;
use ptperf_tor::{
    CircuitSpec, Consensus, ConsensusParams, FilterClass, PathError, PathSelector, RelayId, Role,
    PRIMARY_GUARDS, SAMPLED_GUARDS,
};

/// The eager guard sampler with the same failover policy, over the
/// reference pick.
#[derive(Default)]
struct EagerOracle {
    sample: Vec<RelayId>,
    down: Vec<RelayId>,
}

impl EagerOracle {
    fn pick(
        rng: &mut SimRng,
        c: &Consensus,
        class: FilterClass,
        exclude: &[RelayId],
    ) -> Option<RelayId> {
        reference::weighted_pick(rng, c.relays(), |r| class.matches(r), exclude)
    }

    fn current_guard(&self) -> Option<RelayId> {
        self.sample.iter().find(|g| !self.down.contains(g)).copied()
    }

    fn select(&mut self, c: &Consensus, rng: &mut SimRng) -> Result<CircuitSpec, PathError> {
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

    fn rotate_guard(&mut self) {
        self.sample.clear();
        self.down.clear();
    }
}

/// A generated 120-relay consensus whose guard class (`Guard && Fast`)
/// is every third relay: `positive` of them keep their generated
/// (positive) bandwidth and `zero` are set to zero bandwidth,
/// interleaved; no other relay is guard-eligible.
fn guard_class(seed: u64, positive: usize, zero: usize) -> Consensus {
    let mut c = Consensus::generate_with(
        &mut SimRng::new(seed),
        &ConsensusParams {
            n_relays: 120,
            ..ConsensusParams::default()
        },
    );
    assert!(positive + zero <= c.len() / 3);
    let mut left_z = zero;
    let mut slot = 0;
    for i in 0..c.len() {
        let relay = c.relay_mut(RelayId(i as u32));
        relay.flags.guard = i % 3 == 1 && slot < positive + zero;
        if !relay.flags.guard {
            continue;
        }
        relay.flags.fast = true;
        assert!(relay.bandwidth_bps > 0.0);
        // Zero-bandwidth members take every other slot until they run out.
        if left_z > 0 && (slot % 2 == 1 || slot >= 2 * positive) {
            relay.bandwidth_bps = 0.0;
            left_z -= 1;
        }
        slot += 1;
    }
    let guards = c.index().class(FilterClass::Guard);
    assert_eq!((guards.len(), guards.positive), (positive + zero, positive));
    c
}

/// The first guard-class member, for the degenerate-bandwidth cases.
fn first_guard(c: &Consensus) -> RelayId {
    c.index().class(FilterClass::Guard).ids[0]
}

/// Walks `sel` and the oracle in lock-step over one consensus and
/// asserts identical results and RNG states after every call. Returns
/// the oracle's first sample length.
fn assert_lockstep(c: &Consensus, rseed: u64) -> usize {
    let mut sel = PathSelector::new();
    let mut oracle = EagerOracle::default();
    let mut rng_s = SimRng::new(rseed);
    let mut rng_o = rng_s.clone();

    macro_rules! step {
        ($what:expr) => {{
            let got = sel.select(c, &mut rng_s);
            let want = oracle.select(c, &mut rng_o);
            assert_eq!(got, want, "select diverged: {} (seed {rseed})", $what);
            assert_eq!(
                rng_s, rng_o,
                "draw count diverged: {} (seed {rseed})",
                $what
            );
            assert_eq!(sel.current_guard(c), oracle.current_guard(), "{}", $what);
            assert_eq!(rng_s, rng_o, "accessor drew: {} (seed {rseed})", $what);
        }};
    }

    step!("first selection");
    step!("second selection");
    let sample = oracle.sample.clone();
    let primaries = &sample[..sample.len().min(PRIMARY_GUARDS)];
    assert_eq!(sel.primary_guards(c), primaries);

    // Fail over through every sampled guard, resolving the sample one
    // guard at a time, until none is left.
    for (j, &g) in sample.iter().enumerate() {
        sel.mark_guard_down(g);
        oracle.down.push(g);
        step!(format!("guard {j} down"));
    }
    assert_eq!(sel.sampled_guards(c), &sample[..]);
    assert_eq!(rng_s, rng_o, "resolving the sample drew");

    // Restore them in reverse: each restored guard precedes every
    // restored one after it, so it becomes current.
    for (j, &g) in sample.iter().enumerate().rev() {
        sel.mark_guard_up(g);
        oracle.down.retain(|d| *d != g);
        step!(format!("guard {j} up"));
    }

    // A new identity draws a fresh sample; this time resolve it all
    // before any failover.
    sel.rotate_guard();
    oracle.rotate_guard();
    step!("after rotation");
    assert_eq!(sel.sampled_guards(c), &oracle.sample[..]);
    assert_eq!(
        sel.primary_guards(c),
        &oracle.sample[..oracle.sample.len().min(PRIMARY_GUARDS)]
    );
    step!("after resolving the rotated sample");
    sample.len()
}

/// Runs the lock-step walk over several consensus and RNG seeds and
/// returns every first-sample length seen.
fn lockstep_over_seeds(build: impl Fn(u64) -> Consensus) -> Vec<usize> {
    (0..6u64)
        .flat_map(|cseed| {
            let c = build(cseed);
            (0..4u64)
                .map(move |r| assert_lockstep(&c, 1000 * cseed + r))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn exactly_sampled_guards_positive_defers_bit_exactly() {
    let lens = lockstep_over_seeds(|s| guard_class(s, SAMPLED_GUARDS, 0));
    assert!(lens.iter().all(|&n| n == SAMPLED_GUARDS), "{lens:?}");
}

#[test]
fn fewer_positive_guards_resolve_as_drawn() {
    // One short of the precondition: the eager sampler takes 19 draws,
    // then finds nothing left and stops without a 20th.
    let lens = lockstep_over_seeds(|s| guard_class(s, SAMPLED_GUARDS - 1, 0));
    assert!(lens.iter().all(|&n| n == SAMPLED_GUARDS - 1), "{lens:?}");
}

#[test]
fn zero_bandwidth_guards_count_toward_neither_side() {
    // Enough positive guards to defer, with zero-bandwidth ones mixed in.
    let lens = lockstep_over_seeds(|s| guard_class(s, SAMPLED_GUARDS + 2, 6));
    assert!(lens.iter().all(|&n| n == SAMPLED_GUARDS), "{lens:?}");
    // More than SAMPLED_GUARDS members but too few positive ones: the
    // sample ends once the positive bandwidth is used up.
    let lens = lockstep_over_seeds(|s| guard_class(s, 12, 10));
    assert!(lens.iter().all(|&n| n < SAMPLED_GUARDS), "{lens:?}");
}

#[test]
fn inexact_index_resolves_as_drawn() {
    // A non-finite guard bandwidth clears `exact_ok`.
    let lens = lockstep_over_seeds(|s| {
        let mut c = guard_class(s, 30, 0);
        c.relay_mut(first_guard(&c)).bandwidth_bps = f64::NAN;
        assert!(!c.index().exact_ok);
        c
    });
    assert!(lens.iter().all(|&n| n == SAMPLED_GUARDS), "{lens:?}");
    // So does a negative one; here it also drives the exact total to
    // zero before the sample is full, so deferring would draw too much.
    let lens = lockstep_over_seeds(|s| {
        let mut c = guard_class(s, 30, 0);
        let g = first_guard(&c);
        let others: f64 = c
            .relays()
            .iter()
            .filter(|r| FilterClass::Guard.matches(r) && r.id != g)
            .map(|r| r.bandwidth_bps)
            .sum();
        c.relay_mut(g).bandwidth_bps = -0.6 * others;
        assert!(!c.index().exact_ok);
        c
    });
    assert!(lens.iter().all(|&n| n < SAMPLED_GUARDS), "{lens:?}");
}
