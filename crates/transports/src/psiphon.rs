//! psiphon — a proxy network reached over an SSH tunnel (the default
//! psiphon configuration the paper evaluated).
//!
//! The model keeps SSH's binary packet layout (RFC 4253 §6): 4-byte
//! packet length, 1-byte padding length, payload, random padding to an
//! 8-byte boundary, and a truncated-HMAC MAC. Setup is TCP plus the
//! version exchange and DH key exchange against the pre-shared host key.
//!
//! Performance model (hop set 2): SSH tunnel to a psiphon server, which
//! forwards into Tor through a volunteer guard. Psiphon adds little
//! beyond the extra hop — the paper found it among the four fastest PTs
//! for bulk downloads.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Cipher block size used for padding alignment.
pub const BLOCK: usize = 8;

/// MAC length (truncated HMAC-SHA256).
pub const MAC_LEN: usize = 16;

/// Maximum payload per SSH packet.
pub const MAX_PAYLOAD: usize = 32_768;

/// Average wire overhead per full packet: header + padding + MAC.
pub fn frame_overhead() -> f64 {
    // 4 (len) + 1 (padlen) + ~BLOCK (avg pad) + MAC over MAX_PAYLOAD.
    (MAX_PAYLOAD + 5 + BLOCK + MAC_LEN) as f64 / MAX_PAYLOAD as f64
}

/// The psiphon transport model.
pub struct Psiphon;

impl PluggableTransport for Psiphon {
    fn id(&self) -> PtId {
        PtId::Psiphon
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let server = dep.server(PtId::Psiphon);
        // TCP + SSH version exchange + DH kex: ~3 round trips.
        let bootstrap = bootstrap_time(opts, server.location, 3, rng);
        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: Some(ptperf_tor::Via {
                    location: server.location,
                    capacity_bps: server.capacity_bps,
                    extra_loss: 0.0,
                }),
                guard_load_mult: 1.0,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        apply_frame_overhead(&mut ch, frame_overhead());
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_has_modest_overhead() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::Toronto);
        let mut rng = SimRng::new(6);
        let ch = Psiphon.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert!(frame_overhead() < 1.01);
    }
}
