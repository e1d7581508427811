//! obfs4 — the fully-encrypted transport bundled with Tor Browser.
//!
//! The model keeps obfs4's frame layout: Tor cells ride frames of an
//! obfuscated 2-byte length prefix, the ChaCha20-encrypted payload and a
//! truncated-HMAC tag. The inter-arrival-time modes ([`IatMode`]) pace
//! and chop writes.
//!
//! Performance model: one TCP round trip plus one ntor-style handshake
//! round trip (X25519 ephemeral + server static keys) to the bridge, then
//! Tor cells inside obfs4 frames. The bridge is Tor-operated and lightly
//! loaded — which is precisely why obfs4 can beat vanilla Tor (§4.2.1).

use ptperf_sim::{Location, SimRng};
use ptperf_web::Channel;

use crate::common::{apply_frame_overhead, bootstrap_time, tor_channel_with, EstablishScratch, FirstHop, TorChannelSpec};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// Maximum payload bytes per obfs4 frame.
pub const MAX_FRAME_PAYLOAD: usize = 1427;

/// Frame tag length (truncated HMAC-SHA256).
pub const TAG_LEN: usize = 16;

/// Bytes of overhead per frame: 2-byte obfuscated length + tag.
pub const FRAME_OVERHEAD: usize = 2 + TAG_LEN;

/// Wire overhead of the frame layer: wire bytes per payload byte at full
/// frames.
pub fn frame_overhead() -> f64 {
    (MAX_FRAME_PAYLOAD + FRAME_OVERHEAD) as f64 / MAX_FRAME_PAYLOAD as f64
}

/// obfs4's inter-arrival-time obfuscation modes (`iat-mode` in the
/// bridge line). Mode 0 writes data as fast as the socket allows; modes
/// 1 and 2 chop writes into sampled lengths and pace them, trading
/// throughput for resistance to packet-size/timing classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IatMode {
    /// No timing obfuscation (Tor's default deployment).
    #[default]
    None,
    /// Shaped: writes split at sampled lengths, lightly paced.
    Shaped,
    /// Paranoid: every write sampled and paced, heaviest cost.
    Paranoid,
}

impl IatMode {
    /// Mean write length under this mode (bytes): modes 1/2 sample
    /// lengths uniformly over the frame range instead of always filling
    /// frames.
    pub fn mean_write_len(self) -> f64 {
        match self {
            IatMode::None => MAX_FRAME_PAYLOAD as f64,
            // Uniform over [1, MAX]: mean ≈ MAX/2.
            IatMode::Shaped | IatMode::Paranoid => MAX_FRAME_PAYLOAD as f64 / 2.0,
        }
    }

    /// Pacing delay inserted between writes.
    pub fn write_delay(self) -> f64 {
        match self {
            IatMode::None => 0.0,
            IatMode::Shaped => 0.002,   // 2 ms mean inter-write gap
            IatMode::Paranoid => 0.010, // 10 ms
        }
    }

    /// Throughput ceiling the pacing imposes (bytes/s): one mean-length
    /// write per pacing interval. `None` for mode 0 (unpaced).
    pub fn rate_cap(self) -> Option<f64> {
        match self {
            IatMode::None => None,
            mode => Some(self.mean_write_len() / mode.write_delay().max(1e-9)),
        }
    }
}

/// The obfs4 transport model.
#[derive(Default)]
pub struct Obfs4 {
    /// Timing-obfuscation mode (default: none, like Tor's deployment).
    pub iat_mode: IatMode,
}

impl PluggableTransport for Obfs4 {
    fn id(&self) -> PtId {
        PtId::Obfs4
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let bridge = dep.bridge(PtId::Obfs4);
        let bridge_loc = dep.consensus.relay(bridge).location;
        // TCP connect (1 RTT) + obfs4 ntor handshake (1 RTT).
        let bootstrap = bootstrap_time(opts, bridge_loc, 2, rng);
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
        // IAT pacing caps throughput; half-filled frames also raise the
        // effective framing overhead.
        if let Some(cap) = self.iat_mode.rate_cap() {
            ch.rate_cap = Some(ch.rate_cap.map_or(cap, |c| c.min(cap)));
            let iat_overhead = (self.iat_mode.mean_write_len() + FRAME_OVERHEAD as f64)
                / self.iat_mode.mean_write_len();
            apply_frame_overhead(&mut ch, iat_overhead / frame_overhead());
        }
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small() {
        let oh = frame_overhead();
        assert!(oh > 1.0 && oh < 1.02, "{oh}");
    }

    #[test]
    fn iat_modes_trade_throughput_for_cover() {
        // Rate ceilings order: paranoid < shaped < unpaced.
        let shaped = IatMode::Shaped.rate_cap().unwrap();
        let paranoid = IatMode::Paranoid.rate_cap().unwrap();
        assert!(IatMode::None.rate_cap().is_none());
        assert!(paranoid < shaped, "paranoid {paranoid} vs shaped {shaped}");
        // Shaped still leaves hundreds of kB/s; paranoid tens.
        assert!(shaped > 300_000.0);
        assert!(paranoid < 100_000.0);
    }

    #[test]
    fn paranoid_mode_slows_the_channel() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut a = SimRng::new(6);
        let mut b = SimRng::new(6);
        let plain = Obfs4::default().establish(&dep, &opts, Location::NewYork, &mut a);
        let paranoid = Obfs4 {
            iat_mode: IatMode::Paranoid,
        }
        .establish(&dep, &opts, Location::NewYork, &mut b);
        assert!(paranoid.effective_rate() < plain.effective_rate() / 2.0);
    }

    #[test]
    fn establish_produces_usable_channel() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(5);
        let ch = Obfs4::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        assert!(ch.setup > ptperf_sim::SimDuration::ZERO);
        assert!(ch.response.bottleneck_bps > 0.0);
        assert_eq!(ch.rate_cap, None);
        assert_eq!(ch.hazard_per_sec, 0.0);
    }
}
