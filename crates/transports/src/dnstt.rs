//! dnstt — tunneling through DNS-over-HTTPS/TLS resolvers.
//!
//! Upstream data is base32-encoded into the labels of queries for
//! subdomains of the tunnel domain; the public DoH resolver forwards them
//! to the dnstt server (the authoritative nameserver), which answers with
//! TXT records carrying downstream data. Two structural constraints
//! dominate performance (§2, §4.6):
//!
//! * **response size**: a public DoH resolver supports ~512-byte
//!   responses, so every downstream batch is tiny;
//! * **query clocking**: downstream data only flows in response to
//!   queries, so goodput ≤ window × payload / resolver-RTT, and resolver
//!   rate limits cap sustained query streams.
//!
//! The model keeps the response layout (a TXT answer carrying at most
//! [`RESPONSE_PAYLOAD`] bytes inside a [`MAX_RESPONSE`]-byte message) and
//! the window-throughput formula [`downstream_rate`].

use ptperf_sim::{sample_path, Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum DNS response size a public DoH resolver typically supports
/// (the paper cites 512 bytes).
pub const MAX_RESPONSE: usize = 512;

/// Useful downstream payload per response after the DNS envelope.
pub const RESPONSE_PAYLOAD: usize = 460;

/// Wire size of a TXT response carrying `payload` bytes: the 12-byte
/// DNS header, the 11-byte answer prefix (root-name pointer, TYPE, CLASS,
/// TTL, RDLENGTH), and the RDATA's length-prefixed strings of at most 255
/// bytes each.
const fn response_len(payload: usize) -> usize {
    12 + 11 + payload + payload.div_ceil(255)
}

// A full downstream batch must fit the resolver's response limit.
const _: () = assert!(response_len(RESPONSE_PAYLOAD) <= MAX_RESPONSE);

/// Downstream goodput of the tunnel (bytes/s): `window` in-flight queries,
/// each returning [`RESPONSE_PAYLOAD`] bytes per resolver round trip, also
/// capped by the resolver's tolerated query rate.
pub fn downstream_rate(window: u32, resolver_rtt: SimDuration, max_qps: f64) -> f64 {
    let per_rtt = window as f64 * RESPONSE_PAYLOAD as f64 / resolver_rtt.as_secs_f64().max(1e-3);
    let per_qps = max_qps * RESPONSE_PAYLOAD as f64;
    per_rtt.min(per_qps)
}

/// The dnstt transport model.
pub struct Dnstt {
    /// In-flight query window.
    pub window: u32,
    /// Resolver-tolerated sustained query rate.
    pub max_qps: f64,
    /// Session-drop hazard (public resolvers throttle or drop sustained
    /// heavy query streams; a self-operated resolver does not).
    pub hazard_per_sec: f64,
}

impl Default for Dnstt {
    fn default() -> Self {
        // dnstt's default window; public-resolver etiquette caps QPS and
        // carries the drop hazard behind the paper's §4.6 finding.
        Dnstt {
            window: 16,
            max_qps: 120.0,
            hazard_per_sec: 1.0 / 35.0,
        }
    }
}

impl PluggableTransport for Dnstt {
    fn id(&self) -> PtId {
        PtId::Dnstt
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let bridge = dep.bridge(PtId::Dnstt);
        // The DoH resolver is anycast-near the client.
        let resolver_loc = opts.client;
        let resolver_leg = sample_path(rng, opts.client, resolver_loc, opts.medium, 0.10);
        // DoH session setup: TCP + TLS to the resolver.
        let bootstrap = bootstrap_time(opts, resolver_loc, 2, rng);

        let mut ch = tor_channel_with(
            dep,
            opts,
            TorChannelSpec {
                first_hop: FirstHop::Bridge(bridge),
                via: Some(ptperf_tor::Via {
                    location: resolver_loc,
                    capacity_bps: 50.0e6, // resolvers are fast; the cap below binds
                    extra_loss: 0.0,
                }),
                guard_load_mult: 1.0,
            },
            dest,
            rng,
            scratch,
        );
        ch.setup += bootstrap;
        // The defining constraint: query-clocked downstream.
        let rate = downstream_rate(self.window, resolver_leg.rtt, self.max_qps);
        ch.rate_cap = Some(rate);
        // Every request needs at least one extra resolver round trip to
        // start the response stream flowing.
        ch.per_request_extra = resolver_leg.rtt;
        // Resolvers throttle or drop sustained heavy query streams; the
        // paper saw >80% of bulk downloads end partial (§4.6).
        ch.hazard_per_sec = self.hazard_per_sec;
        ch.connect_failure_p = 0.02;
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downstream_rate_window_limited() {
        // 8 × 460 B per 100 ms = 36.8 kB/s, below the QPS cap.
        let r = downstream_rate(8, SimDuration::from_millis(100), 1000.0);
        assert!((r - 36_800.0).abs() < 1.0, "{r}");
    }

    #[test]
    fn downstream_rate_qps_limited() {
        // Fast resolver, low QPS tolerance: 120 qps × 460 = 55.2 kB/s.
        let r = downstream_rate(64, SimDuration::from_millis(10), 120.0);
        assert!((r - 55_200.0).abs() < 1.0, "{r}");
    }

    #[test]
    fn establish_is_tightly_capped() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(9);
        let ch = Dnstt::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        let cap = ch.rate_cap.expect("dnstt must be capped");
        assert!(cap < 200_000.0, "cap {cap}");
        assert!(ch.hazard_per_sec > 0.0);
    }
}
