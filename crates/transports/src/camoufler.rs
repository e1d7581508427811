//! camoufler — tunneling over instant-messaging channels.
//!
//! The client exchanges messages with an IM account in an uncensored
//! region; the peer runs the proxy. The censor sees only end-to-end
//! encrypted IM traffic. Two IM-platform constraints shape performance
//! (§2, §4.2, §4.3):
//!
//! * **API rate limits** on message sends/receives — the paper's
//!   explanation for camoufler's high access (12.8 s median) and
//!   download times (3× obfs4);
//! * **no multiplexing**: one logical stream at a time, which is why the
//!   paper could not evaluate camoufler under selenium at all.
//!
//! The model caps bulk throughput at the API quota times the payload of
//! one message.

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload per IM message (attachment-style chunk).
pub const MAX_MESSAGE_PAYLOAD: usize = 60_000;

/// IM API message quota (messages per second): ~5 sends per second
/// sustained, typical of IM platform APIs.
pub const API_RATE_PER_SEC: f64 = 5.0;

/// The camoufler transport model.
pub struct Camoufler;

impl PluggableTransport for Camoufler {
    fn id(&self) -> PtId {
        PtId::Camoufler
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let peer = dep.server(PtId::Camoufler);
        // The IM service's servers sit between client and peer; model the
        // extra relay point as the via host plus login/session setup.
        let bootstrap = bootstrap_time(opts, peer.location, 3, rng);

        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::VolunteerGuard,
                via: Some(ptperf_tor::Via {
                    location: peer.location,
                    capacity_bps: peer.capacity_bps,
                    extra_loss: 0.0,
                }),
                guard_load_mult: 1.0,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        // Bulk throughput = message quota × payload per message.
        ch.rate_cap = Some(API_RATE_PER_SEC * MAX_MESSAGE_PAYLOAD as f64);
        // Every request rides the IM polling/batching cycle: the peer
        // must notice, fetch, forward, and the reply must return through
        // the same quota — several seconds, strongly jittered (the TTFB
        // band the paper reports is 2.5–17.5 s).
        ch.per_request_extra = SimDuration::from_secs_f64(rng.lognormal(6.5, 0.5));
        // No stream multiplexing: selenium cannot run over camoufler.
        ch.max_parallel_streams = 1;
        // IM sessions occasionally refuse/expire (the ~10% "not at all"
        // bar in Fig. 8a).
        ch.connect_failure_p = 0.09;
        // Established IM sessions are stable; failures are mostly at
        // session setup (above), so bulk downloads complete — slowly.
        ch.hazard_per_sec = 1.0 / 700.0;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_reflects_im_constraints() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(10);
        let ch = Camoufler.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.max_parallel_streams, 1);
        assert!(ch.per_request_extra > SimDuration::from_secs(2));
        assert_eq!(ch.rate_cap, Some(300_000.0));
        assert!(ch.connect_failure_p > 0.05);
    }
}
