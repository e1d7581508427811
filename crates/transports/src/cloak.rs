//! cloak — a proxy whose traffic mimics regular TLS web browsing.
//!
//! The client's TLS ClientHello carries a steganographic credential in
//! its *random* field, so a real client is authenticated in **zero round
//! trips**, and the session continues as a multiplexed tunnel. The model
//! keeps the multiplexer's frame layout: a 12-byte
//! `stream id ‖ seq ‖ flags ‖ len` header per frame of up to 16 KiB.
//!
//! Performance model (hop set 3): 2 round trips to the cloak server
//! (TCP + TLS-with-credential), whose co-resident Tor client builds the
//! circuit from there through a volunteer guard.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per multiplexer frame.
pub const MAX_FRAME: usize = 16_384;

/// Multiplexer frame header length.
pub const MUX_HEADER: usize = 12;

/// Mux-layer wire overhead.
pub fn frame_overhead() -> f64 {
    (MAX_FRAME + MUX_HEADER) as f64 / MAX_FRAME as f64
}

/// The cloak transport model.
pub struct Cloak;

impl PluggableTransport for Cloak {
    fn id(&self) -> PtId {
        PtId::Cloak
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let server = dep.server(PtId::Cloak);
        // TCP + TLS; the credential rides the ClientHello, so no extra
        // auth round trip (zero-RTT authentication).
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
        apply_frame_overhead(&mut ch, frame_overhead());
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_supports_parallel_streams() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(11);
        let ch = Cloak.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert!(ch.max_parallel_streams > 1);
        assert_eq!(ch.rate_cap, None);
    }
}
