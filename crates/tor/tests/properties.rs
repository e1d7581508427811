//! Property tests for the Tor substrate: path-selection validity over
//! arbitrary consensuses and relay capacity bounds.

use proptest::prelude::*;

use ptperf_sim::{LoadProfile, SimRng};
use ptperf_tor::consensus::{Consensus, ConsensusParams};
use ptperf_tor::PathSelector;

proptest! {
    /// Path selection over arbitrary consensus shapes always yields
    /// three distinct relays with the right flags.
    #[test]
    fn path_selection_always_valid(
        seed in any::<u64>(),
        n_relays in 3usize..50,
        guard_fraction in 0.0f64..1.0,
        exit_fraction in 0.0f64..1.0,
    ) {
        let mut rng = SimRng::new(seed);
        let consensus = Consensus::generate_with(
            &mut rng,
            &ConsensusParams {
                n_relays,
                guard_fraction,
                exit_fraction,
                load: LoadProfile::VolunteerRelay,
            },
        );
        let mut selector = PathSelector::new();
        for _ in 0..10 {
            let spec = selector.select(&consensus, &mut rng).unwrap();
            prop_assert_ne!(spec.guard, spec.middle);
            prop_assert_ne!(spec.guard, spec.exit);
            prop_assert_ne!(spec.middle, spec.exit);
            prop_assert!(consensus.relay(spec.guard).flags.guard);
            prop_assert!(consensus.relay(spec.exit).flags.exit);
        }
    }

    /// Relay available capacity is positive and ≤ raw bandwidth for any
    /// load multiplier.
    #[test]
    fn relay_capacity_bounds(seed in any::<u64>(), mult in 0.0f64..20.0) {
        let mut rng = SimRng::new(seed);
        let consensus = Consensus::generate(&mut rng);
        for relay in consensus.relays().iter().take(20) {
            let avail = relay.available_bps(mult);
            prop_assert!(avail > 0.0);
            prop_assert!(avail <= relay.bandwidth_bps);
        }
    }
}
