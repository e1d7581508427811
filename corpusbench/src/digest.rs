//! SHA-256 digests of renders and of sample bits.

use ptperf_crypto::{hex, Sha256};

/// An incremental digest; every item is length-prefixed so that
/// adjacent items cannot alias.
pub struct Digest(Sha256);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(Sha256::new())
    }

    /// Adds a number.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Adds a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.update(s.as_bytes());
    }

    /// Adds the exact bits of a sample vector.
    pub fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }

    /// The digest in lowercase hex.
    pub fn hex(self) -> String {
        hex::encode(&self.0.finalize())
    }
}
