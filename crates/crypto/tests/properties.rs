//! Property tests for SHA-256 and hex: incremental/one-shot agreement
//! and hex round trips on arbitrary inputs.

use proptest::prelude::*;

use ptperf_crypto::{hex, sha256, Sha256};

proptest! {
    /// Incremental hashing over arbitrary splits equals the one-shot.
    #[test]
    fn sha256_incremental_any_splits(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let mut points: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0usize;
        for &p in &points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Distinct inputs (almost surely) hash differently; equal inputs
    /// always hash equally.
    #[test]
    fn sha256_deterministic(data in proptest::collection::vec(any::<u8>(), 0..500)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
        let mut flipped = data.clone();
        if !flipped.is_empty() {
            flipped[0] ^= 1;
            prop_assert_ne!(sha256(&flipped), sha256(&data));
        }
    }

    /// Hex encoding round-trips arbitrary bytes.
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(encoded.len(), data.len() * 2);
        prop_assert_eq!(hex::decode(&encoded).unwrap(), data);
    }

    /// Hex decode never panics on arbitrary strings.
    #[test]
    fn hex_decode_total(s in "\\PC{0,64}") {
        let _ = hex::decode(&s);
    }
}
