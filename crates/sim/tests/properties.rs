//! Property tests for the simulation substrate: transfer-model
//! monotonicity and RNG/time arithmetic laws.

use proptest::prelude::*;

use ptperf_sim::{SimDuration, SimRng, SimTime, TransferModel};

proptest! {
    /// Transfer duration is monotone in bytes.
    #[test]
    fn transfer_monotone_in_bytes(
        rtt_ms in 1u64..500,
        rate in 1_000.0f64..10_000_000.0,
        loss in 0.0f64..0.1,
        a in 1u64..10_000_000,
        b in 1u64..10_000_000,
    ) {
        let m = TransferModel::new(SimDuration::from_millis(rtt_ms), rate, loss);
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(m.duration(small) <= m.duration(large));
    }

    /// Hop-by-hop recovery never makes a transfer slower than the
    /// end-to-end model on the same parameters.
    #[test]
    fn relayed_model_at_least_as_fast(
        rtt_ms in 1u64..500,
        rate in 1_000.0f64..10_000_000.0,
        loss in 0.0f64..0.1,
        bytes in 1u64..50_000_000,
    ) {
        let e2e = TransferModel::new(SimDuration::from_millis(rtt_ms), rate, loss);
        let relayed = TransferModel::relayed(SimDuration::from_millis(rtt_ms), rate, loss);
        prop_assert!(relayed.duration(bytes) <= e2e.duration(bytes));
    }

    /// RNG range helpers stay in range for arbitrary seeds and bounds.
    #[test]
    fn rng_ranges_hold(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let v = rng.range_u64(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&v));
            let f = rng.range_f64(-3.0, 7.5);
            prop_assert!((-3.0..7.5).contains(&f));
        }
    }

    /// Forked RNGs never mirror the parent stream.
    #[test]
    fn rng_fork_diverges(seed in any::<u64>()) {
        let mut parent = SimRng::new(seed);
        let mut child = parent.fork();
        let matches = (0..32).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(matches <= 1);
    }

    /// Duration arithmetic: associative addition, saturating subtraction.
    #[test]
    fn duration_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4, c in 0u64..u64::MAX / 4) {
        let (da, db, dc) = (
            SimDuration::from_nanos(a),
            SimDuration::from_nanos(b),
            SimDuration::from_nanos(c),
        );
        prop_assert_eq!((da + db) + dc, da + (db + dc));
        prop_assert_eq!(da.saturating_sub(db) + db.min(da), da);
    }

    /// Instants ordered by construction order through arbitrary delays.
    #[test]
    fn time_advances(delays in proptest::collection::vec(0u64..1_000_000, 1..20)) {
        let mut t = SimTime::ZERO;
        for &d in &delays {
            let next = t + SimDuration::from_nanos(d);
            prop_assert!(next >= t);
            t = next;
        }
        prop_assert_eq!(
            t.duration_since(SimTime::ZERO).as_nanos(),
            delays.iter().sum::<u64>()
        );
    }
}
