//! shadowsocks — an encrypted proxy whose wire format is a uniformly
//! random byte stream (fully-encrypted category).
//!
//! The model keeps the AEAD chunk layout: every chunk is a sealed 2-byte
//! length followed by the sealed payload, each with its own 16-byte tag,
//! payload capped at 0x3FFF bytes (the shadowsocks AEAD spec's cap).
//!
//! Performance model (hop set 2): one TCP round trip to the shadowsocks
//! server — the protocol itself is zero-RTT — then the server forwards to
//! a volunteer Tor guard, giving four hops total.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per AEAD chunk (per the shadowsocks AEAD spec).
pub const MAX_CHUNK: usize = 0x3FFF;

/// Tag length per sealed element.
pub const TAG_LEN: usize = 16;

/// Wire overhead: sealed length + two tags per full chunk.
pub fn frame_overhead() -> f64 {
    (MAX_CHUNK + 2 + 2 * TAG_LEN) as f64 / MAX_CHUNK as f64
}

/// The shadowsocks transport model.
pub struct Shadowsocks;

impl PluggableTransport for Shadowsocks {
    fn id(&self) -> PtId {
        PtId::Shadowsocks
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let server = dep.server(PtId::Shadowsocks);
        // TCP connect only: shadowsocks AEAD is zero-RTT after transport
        // establishment.
        let bootstrap = bootstrap_time(opts, server.location, 1, rng);
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
    fn overhead_is_tiny() {
        let oh = frame_overhead();
        assert!(oh > 1.0 && oh < 1.01, "{oh}");
    }

    #[test]
    fn establish_uses_four_hops() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(3);
        let ch = Shadowsocks.establish(&dep, &opts, Location::NewYork, &mut rng);
        // The via server caps the path at its forwarding capacity.
        assert!(ch.response.bottleneck_bps <= dep.server(PtId::Shadowsocks).capacity_bps);
        assert!(ch.setup > ptperf_sim::SimDuration::ZERO);
    }
}
