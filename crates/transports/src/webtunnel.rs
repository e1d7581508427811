//! webtunnel — HTTPT-style tunneling inside an ordinary HTTPS connection.
//!
//! The client makes a normal TLS connection to a web server with a valid
//! certificate, then sends an HTTP/1.1 Upgrade request for a secret path;
//! the server's 101 response turns the connection into a raw byte tunnel
//! to the Tor bridge process behind it. A censor sees a TLS connection to
//! an unblocked domain.
//!
//! The model keeps the tunnel's record layout: a 2-byte length prefix
//! per record of up to 16 KiB.
//!
//! Performance model (hop set 1): TCP + TLS (2 RTT) + upgrade (1 RTT) to
//! a self-hosted bridge, which is the circuit's first hop. Overhead after
//! setup is negligible — the paper found webtunnel within a second of
//! vanilla Tor, and faster under selenium.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per tunnel record.
pub const MAX_RECORD: usize = 16_384;

/// Record-layer wire overhead.
pub fn frame_overhead() -> f64 {
    (MAX_RECORD + 2) as f64 / MAX_RECORD as f64
}

/// The webtunnel transport model.
pub struct WebTunnel;

impl PluggableTransport for WebTunnel {
    fn id(&self) -> PtId {
        PtId::WebTunnel
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let bridge = dep.bridge(PtId::WebTunnel);
        let bridge_loc = dep.consensus.relay(bridge).location;
        // TCP (1) + TLS (1) + HTTP upgrade (1): 3 round trips.
        let bootstrap = bootstrap_time(opts, bridge_loc, 3, rng);
        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(bridge),
                via: None,
                guard_load_mult: opts.load_mult,
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
    fn overhead_negligible() {
        assert!(frame_overhead() < 1.001);
    }

    #[test]
    fn establish_near_vanilla() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(8);
        let ch = WebTunnel.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert_eq!(ch.connect_failure_p, 0.0);
    }
}
