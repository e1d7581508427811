//! conjure — refraction networking over phantom IP addresses.
//!
//! A conjure client registers with an ISP-deployed station (out of band or
//! via a registration API), derives a **phantom address** from the shared
//! secret inside the ISP's unused address space, then simply connects to
//! the phantom; the on-path station recognizes the flow and proxies it.
//!
//! Performance model (hop set 1): registration round trip + phantom dial,
//! then the station — Tor-operated, well provisioned — is the circuit's
//! first hop. The paper could not host a private conjure station (needs
//! ISP deployment, §4.2.1 fn. 4); neither do we: the deployment always
//! uses the "Tor-operated" station.

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// The conjure transport model.
pub struct Conjure;

impl PluggableTransport for Conjure {
    fn id(&self) -> PtId {
        PtId::Conjure
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let station = dep.bridge(PtId::Conjure);
        let station_loc = dep.consensus.relay(station).location;
        // Registration round trip + TCP dial to the phantom (intercepted
        // at the station): ~2 round trips.
        let bootstrap = bootstrap_time(opts, station_loc, 2, rng);
        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(station),
                via: None,
                guard_load_mult: opts.load_mult,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_uses_station_as_guard() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(7);
        let ch = Conjure.establish(&dep, &opts, Location::NewYork, &mut rng);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
        assert!(ch.setup > ptperf_sim::SimDuration::ZERO);
    }
}
