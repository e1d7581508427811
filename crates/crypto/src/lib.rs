//! # ptperf-crypto — SHA-256 and hex
//!
//! A small, dependency-free SHA-256 (FIPS 180-4, [`mod@sha256`]) and a
//! hex codec ([`hex`]), validated against the NIST example vectors. The
//! corpus benchmark uses them to digest its outputs; no simulation code
//! depends on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hex;
pub mod sha256;

pub use sha256::{sha256, Sha256};
