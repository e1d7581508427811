//! stegotorus — a camouflage proxy using a "chopper" and steganographic
//! covers.
//!
//! The chopper converts the fixed-size Tor cell stream into variable-size
//! blocks sent *out of order over multiple parallel TCP connections*; the
//! server reassembles the cell stream and forwards it to Tor. Each block
//! is additionally expanded by the steganographic cover encoding (HTTP
//! cover traffic hides fewer payload bytes than it transmits).
//!
//! The model keeps the chopper's block layout (`seq ‖ len ‖ flags`
//! header + variable-size body) and the cover expansion; together they
//! give [`frame_overhead`].

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Chopper block header: 4-byte seq, 2-byte length, 1-byte flags.
pub const BLOCK_HEADER: usize = 7;

/// Largest chopper block body.
pub const MAX_BLOCK: usize = 2048;

/// Steganographic cover expansion: an HTTP cover transaction carries
/// roughly 1 payload byte per 1.6 cover bytes.
pub const COVER_EXPANSION: f64 = 1.6;

/// Total wire overhead: block header amortized over the average block,
/// times the steganographic cover expansion.
pub fn frame_overhead(min_block: usize) -> f64 {
    let avg_block = (min_block + MAX_BLOCK) as f64 / 2.0;
    ((avg_block + BLOCK_HEADER as f64) / avg_block) * COVER_EXPANSION
}

/// The stegotorus transport model.
pub struct Stegotorus;

impl PluggableTransport for Stegotorus {
    fn id(&self) -> PtId {
        PtId::Stegotorus
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let server = dep.server(PtId::Stegotorus);
        // TCP over the parallel connections (pipelined: ~1 RTT) + chopper
        // hello (1 RTT).
        let bootstrap = bootstrap_time(opts, server.location, 2, rng);
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
        // The cover encoding is the dominant cost: ~1.6× wire expansion.
        apply_frame_overhead(&mut ch, frame_overhead(256));
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_reflects_cover_expansion() {
        let oh = frame_overhead(256);
        assert!(oh > 1.5 && oh < 1.7, "{oh}");
    }

    #[test]
    fn establish_has_noticeable_overhead() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(12);
        let ch = Stegotorus.establish(&dep, &opts, Location::NewYork, &mut rng);
        // Cover expansion shows up as a materially lower goodput than the
        // server's raw capacity.
        assert!(ch.response.bottleneck_bps < dep.server(PtId::Stegotorus).capacity_bps / 1.4);
    }
}
