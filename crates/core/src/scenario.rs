//! Measurement scenarios: the shared configuration an experiment runs
//! under — deployment seed, client/server locations, access medium, and
//! the snowflake load epoch.

use std::sync::{Arc, Mutex};

use ptperf_sim::fault::FaultBias;
use ptperf_sim::{Location, Medium, SimRng};
use ptperf_transports::{AccessOptions, Deployment};
use ptperf_web::{FaultSession, SiteList, Website};

pub use ptperf_sim::fault::{FaultConfig, FaultProfile};

/// Memoized deployments, shared by every clone of a [`Scenario`].
///
/// Building a deployment regenerates the full relay consensus, which is
/// by far the most expensive step of a measurement unit. Deployment
/// construction is a pure function of `(seed, server_region)`, so all
/// thirteen families (and every executor shard that clones the scenario)
/// can share one immutable build per key. The handful of keys per
/// campaign makes a small linear-scan vec cheaper and simpler than a
/// hash map.
type CacheKey = (u64, Location);

#[derive(Debug, Default)]
struct DeploymentCache {
    entries: Mutex<Vec<(CacheKey, Arc<Deployment>)>>,
}

/// Key for a memoized site workload: `None` is the paper's standard
/// mixed Tranco + CBL list, `Some(list)` a single-list top-`n` slice.
type SiteKey = (Option<SiteList>, usize);

/// Memoized site workloads, shared by every clone of a [`Scenario`].
///
/// Website generation is a pure function of `(list, n)` — no seed input
/// at all — so every family asking for the same workload can share one
/// immutable `Arc<[Website]>` instead of regenerating the corpus per
/// unit. Same linear-scan-vec shape as [`DeploymentCache`].
#[derive(Debug, Default)]
struct SiteCache {
    entries: Mutex<Vec<(SiteKey, Arc<[Website]>)>>,
}

/// The snowflake load epoch (§5.3): before the September-2022 Iran
/// protests, the surge, and the elevated plateau the paper kept observing
/// through March 2023.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epoch {
    /// Pre-September 2022: normal load.
    PreSurge,
    /// Peak surge (October–November 2022).
    Surge,
    /// The post-surge plateau (users never went back down).
    Plateau,
    /// An explicit load multiplier, for sweeps.
    LoadMult(f64),
}

impl Epoch {
    /// The infrastructure load multiplier for this epoch.
    pub fn load_mult(self) -> f64 {
        match self {
            Epoch::PreSurge => 1.0,
            Epoch::Surge => 3.2,
            Epoch::Plateau => 2.2,
            Epoch::LoadMult(m) => m.max(0.1),
        }
    }
}

/// A measurement scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed: drives consensus generation and every measurement.
    pub seed: u64,
    /// Client vantage point.
    pub client: Location,
    /// Where self-hosted PT servers run.
    pub server_region: Location,
    /// Client access medium.
    pub medium: Medium,
    /// Snowflake load epoch.
    pub epoch: Epoch,
    /// The fault-injection lane. `Off` (the default) is proven
    /// bit-for-bit neutral in `tests/fault_neutrality.rs`; a `Plan`
    /// routes every family's transfers through the retry/timeout
    /// driver with plan-generated fault schedules.
    pub faults: FaultConfig,
    dep_cache: Arc<DeploymentCache>,
    site_cache: Arc<SiteCache>,
}

impl Scenario {
    /// The campaign's primary configuration: London client, Frankfurt
    /// servers, wired, pre-surge.
    pub fn baseline(seed: u64) -> Scenario {
        Scenario {
            seed,
            client: Location::London,
            server_region: Location::Frankfurt,
            medium: Medium::Wired,
            epoch: Epoch::PreSurge,
            faults: FaultConfig::Off,
            dep_cache: Arc::new(DeploymentCache::default()),
            site_cache: Arc::new(SiteCache::default()),
        }
    }

    /// This scenario with the fault lane set to `faults`.
    pub fn with_faults(mut self, faults: FaultConfig) -> Scenario {
        self.faults = faults;
        self
    }

    /// The fault session for one measurement unit tagged `tag` (e.g.
    /// `"fig8/meek"`), with the transport's event-mix `bias`.
    ///
    /// With the lane `Off` this returns the neutral session without
    /// touching any RNG stream — the `Off` scenario draws exactly the
    /// sequences the pre-fault-layer code drew. With a `Plan`, the
    /// profile is scaled to the scenario's epoch
    /// ([`FaultProfile::for_load`]) and the session gets its own
    /// decorrelated stream (`"{tag}/faults"`), so fault draws never
    /// perturb measurement draws and identical seeds replay identical
    /// schedules at any worker count.
    pub fn fault_session(&self, tag: &str, bias: FaultBias) -> FaultSession {
        match &self.faults {
            FaultConfig::Off => FaultSession::off(),
            FaultConfig::Plan(profile) => FaultSession::active(
                profile.for_load(self.epoch.load_mult()),
                bias,
                self.rng(&format!("{tag}/faults")),
            ),
        }
    }

    /// The deployment for this scenario, built once per
    /// `(seed, server_region)` and shared by reference afterwards —
    /// across all families' units and across executor shards holding
    /// clones of this scenario. Deployment construction is seed-pure, so
    /// sharing is observationally identical to rebuilding (the
    /// determinism suite proves this bit-for-bit).
    pub fn deployment(&self) -> Arc<Deployment> {
        let key = (self.seed, self.server_region);
        let mut entries = self.dep_cache.entries.lock().unwrap();
        if let Some((_, dep)) = entries.iter().find(|(k, _)| *k == key) {
            ptperf_obs::perf::incr_deployment_rebuilds_saved();
            return Arc::clone(dep);
        }
        let dep = Arc::new(Deployment::standard(self.seed, self.server_region));
        entries.push((key, Arc::clone(&dep)));
        dep
    }

    /// A private, mutable deployment build for experiments that modify
    /// the infrastructure (private-bridge hosting, overhead probes).
    /// Never cached: mutations must not leak into other families.
    pub fn deployment_owned(&self) -> Deployment {
        Deployment::standard(self.seed, self.server_region)
    }

    /// The paper's standard mixed workload — `n` sites from each of
    /// Tranco and CBL — built once per `n` and shared by reference
    /// across all families and executor shards, exactly like
    /// [`Scenario::deployment`]. Site generation is `(list, n)`-pure,
    /// so sharing is observationally identical to rebuilding.
    pub fn target_sites(&self, n_per_list: usize) -> Arc<[Website]> {
        self.sites_for((None, n_per_list))
    }

    /// The top `n` sites of a single list, memoized like
    /// [`Scenario::target_sites`].
    pub fn top_sites(&self, list: SiteList, n: usize) -> Arc<[Website]> {
        self.sites_for((Some(list), n))
    }

    fn sites_for(&self, key: SiteKey) -> Arc<[Website]> {
        let mut entries = self.site_cache.entries.lock().unwrap();
        if let Some((_, sites)) = entries.iter().find(|(k, _)| *k == key) {
            ptperf_obs::perf::incr_site_rebuilds_saved();
            return Arc::clone(sites);
        }
        let sites = build_sites(key);
        entries.push((key, Arc::clone(&sites)));
        sites
    }

    /// Per-measurement access options.
    pub fn access_options(&self) -> AccessOptions {
        let mut opts = AccessOptions::new(self.client);
        opts.medium = self.medium;
        opts.load_mult = self.epoch.load_mult();
        opts
    }

    /// A deterministic RNG for an experiment named `tag` under this
    /// scenario: different experiments draw decorrelated streams, but the
    /// same (seed, tag) is always identical.
    pub fn rng(&self, tag: &str) -> SimRng {
        let mut h = self.seed ^ 0x5851_F42D_4C95_7F2D;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        SimRng::new(h)
    }
}

fn build_sites(key: SiteKey) -> Arc<[Website]> {
    match key {
        (None, n) => crate::measure::target_sites(n).into(),
        (Some(list), n) => Website::top(list, n).into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_order_by_load() {
        assert!(Epoch::PreSurge.load_mult() < Epoch::Plateau.load_mult());
        assert!(Epoch::Plateau.load_mult() < Epoch::Surge.load_mult());
        assert_eq!(Epoch::LoadMult(5.0).load_mult(), 5.0);
    }

    #[test]
    fn scenario_rng_is_stable_and_tag_sensitive() {
        let s = Scenario::baseline(1);
        let mut a = s.rng("fig2a");
        let mut b = s.rng("fig2a");
        let mut c = s.rng("fig2b");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut a2 = s.rng("fig2a");
        assert_ne!(a2.next_u64(), c.next_u64());
    }

    #[test]
    fn access_options_reflect_scenario() {
        let mut s = Scenario::baseline(2);
        s.epoch = Epoch::Surge;
        s.medium = Medium::Wireless;
        let opts = s.access_options();
        assert_eq!(opts.medium, Medium::Wireless);
        assert!((opts.load_mult - 3.2).abs() < 1e-12);
    }

    #[test]
    fn deployment_is_reproducible() {
        let s = Scenario::baseline(3);
        let a = s.deployment();
        let b = s.deployment();
        assert_eq!(a.consensus.len(), b.consensus.len());
    }

    #[test]
    fn deployment_is_shared_across_calls_and_clones() {
        let s = Scenario::baseline(11);
        let a = s.deployment();
        let b = s.deployment();
        assert!(Arc::ptr_eq(&a, &b), "repeat call rebuilt the deployment");
        let c = s.clone().deployment();
        assert!(Arc::ptr_eq(&a, &c), "scenario clone rebuilt the deployment");
        // A different key gets its own entry without evicting the first.
        let mut far = s.clone();
        far.server_region = Location::Singapore;
        let d = far.deployment();
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(Arc::ptr_eq(&a, &s.deployment()));
    }

    #[test]
    fn cached_deployment_matches_fresh_and_owned_builds() {
        let s = Scenario::baseline(12);
        let cached = s.deployment();
        assert_eq!(*cached, s.deployment_owned());
        assert_eq!(*cached, Deployment::standard(12, s.server_region));
    }

    #[test]
    fn site_workloads_are_shared_across_calls_and_clones() {
        let s = Scenario::baseline(21);
        let a = s.target_sites(7);
        assert_eq!(a.len(), 14, "7 Tranco + 7 CBL");
        let b = s.target_sites(7);
        assert!(Arc::ptr_eq(&a, &b), "repeat call regenerated the sites");
        let c = s.clone().target_sites(7);
        assert!(Arc::ptr_eq(&a, &c), "scenario clone regenerated the sites");
        // Different keys coexist.
        let top = s.top_sites(SiteList::Tranco, 7);
        assert_eq!(top.len(), 7);
        assert!(Arc::ptr_eq(&top, &s.top_sites(SiteList::Tranco, 7)));
        assert!(Arc::ptr_eq(&a, &s.target_sites(7)));
    }

    #[test]
    fn cached_sites_match_fresh_builds() {
        let s = Scenario::baseline(22);
        let cached = s.target_sites(4);
        assert_eq!(&cached[..], &crate::measure::target_sites(4)[..]);
        let top = s.top_sites(SiteList::Cbl, 5);
        assert_eq!(&top[..], &Website::top(SiteList::Cbl, 5)[..]);
    }

    #[test]
    fn owned_deployment_mutations_do_not_leak_into_the_cache() {
        let s = Scenario::baseline(14);
        let before = s.deployment().consensus.len();
        let mut owned = s.deployment_owned();
        owned.host_private_bridge(
            ptperf_transports::PtId::Obfs4,
            Location::London,
            3.0e6,
        );
        assert_eq!(s.deployment().consensus.len(), before);
    }
}
