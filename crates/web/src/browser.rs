//! The browser client model (selenium automation, §4.2 / Figure 2b) and
//! the browsertime speed-index metric (§5.4 / Figure 11).
//!
//! A browser fetch first loads the default page, then discovers the
//! page's sub-resources and loads them over a bounded number of parallel
//! connections that share the tunnel's bottleneck (modeled with the
//! max–min fluid scheduler). The page is "loaded" when the last resource
//! lands. The speed index integrates visual completeness over time: each
//! resource contributes visual weight when it finishes, so the index sits
//! *below* the full load time — the paper's §5.4 observation.

use ptperf_obs::{obs_debug, Recorder};
use ptperf_sim::flow::reference;
use ptperf_sim::{FairNetwork, FlowBatch, FluidCompletion, FluidScheduler, SimDuration, SimRng, SimTime};

use crate::channel::{Channel, Outcome};
use crate::curl::PAGE_TIMEOUT;
use crate::website::Website;

/// How many parallel connections the browser opens per origin (Chrome's
/// per-host default).
pub const BROWSER_PARALLELISM: usize = 6;

/// Reusable page-load scratch: the fair network, the flow batch, the
/// completion buffer and a private [`FluidScheduler`], all owned
/// together so one warm `PageScratch` makes an entire page load
/// allocation-free. A per-worker copy lives inside the executor's
/// `UnitScratch`; callers outside the executor hold their own.
#[derive(Debug, Default)]
pub struct PageScratch {
    net: FairNetwork,
    batch: FlowBatch,
    completions: Vec<FluidCompletion>,
    sched: FluidScheduler,
    grow_events: u64,
    uses: u64,
}

impl PageScratch {
    /// An empty (cold) scratch.
    pub fn new() -> PageScratch {
        PageScratch::default()
    }

    /// Times any buffer in this scratch had to grow — the same
    /// allocation proxy as [`FluidScheduler::scratch_grows`]. Zero
    /// growth across a warm page load means the load performed no heap
    /// allocation in the flow pipeline.
    pub fn grows(&self) -> u64 {
        self.grow_events + self.batch.grow_events() + self.sched.scratch_grows()
    }

    /// Pages served by this scratch so far.
    pub fn uses(&self) -> u64 {
        self.uses
    }
}

/// Result of one browser page load.
#[derive(Debug, Clone, Copy)]
pub struct PageLoad {
    /// Time until the default page (HTML) finished.
    pub main_done: SimDuration,
    /// Time until every sub-resource finished (the paper's selenium page
    /// load time).
    pub total: SimDuration,
    /// Browsertime-style speed index, in seconds of "visual waiting".
    pub speed_index: SimDuration,
    /// Outcome of the load.
    pub outcome: Outcome,
}

/// Errors a browser load can hit before any timing is possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowserError {
    /// The transport cannot multiplex the browser's parallel requests
    /// (camoufler: single-stream only; the paper excluded it from the
    /// selenium runs for exactly this reason).
    ParallelismUnsupported {
        /// Streams the transport offers.
        supported: usize,
        /// Streams the browser needs.
        required: usize,
    },
}

impl std::fmt::Display for BrowserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrowserError::ParallelismUnsupported { supported, required } => write!(
                f,
                "transport supports {supported} concurrent stream(s); browser needs {required}"
            ),
        }
    }
}

impl std::error::Error for BrowserError {}

/// Loads a full page through `channel`, selenium-style, cut at
/// [`PAGE_TIMEOUT`]. Per-page counters and the fluid scheduler's
/// step/recomputation counts flow into `rec`; a
/// [`NullRecorder`](ptperf_obs::NullRecorder) runs the identical model
/// and draws the identical RNG sequence. The caller-owned `scratch` —
/// the executor threads one per worker — lets every page load after the
/// first reuse the same network, batch, completion and scheduler
/// buffers.
pub fn load_page_pooled(
    channel: &Channel,
    site: &Website,
    rng: &mut SimRng,
    rec: &mut dyn Recorder,
    scratch: &mut PageScratch,
) -> Result<PageLoad, BrowserError> {
    load_page_model(channel, site, rng, rec, scratch, false)
}

/// The retained allocating lane: same model body, but every call builds
/// a cold scratch and the sub-resource waves run through the reference
/// fluid scheduler ([`reference::fluid_schedule_recorded`]), which
/// clones node paths into per-step demand `Vec`s. This is the baseline
/// the unit benchmark measures the pooled path against; results are bit
/// for bit identical to [`load_page_pooled`].
pub fn load_page_reference(
    channel: &Channel,
    site: &Website,
    rng: &mut SimRng,
    rec: &mut dyn Recorder,
) -> Result<PageLoad, BrowserError> {
    load_page_model(channel, site, rng, rec, &mut PageScratch::new(), true)
}

/// The single model body behind both entry points: one timing model, one
/// RNG draw order, two scheduling lanes (pooled persistent vs reference
/// from-scratch) proven equivalent by the oracle suite.
fn load_page_model(
    channel: &Channel,
    site: &Website,
    rng: &mut SimRng,
    rec: &mut dyn Recorder,
    scratch: &mut PageScratch,
    use_reference: bool,
) -> Result<PageLoad, BrowserError> {
    let timeout = PAGE_TIMEOUT;
    if channel.max_parallel_streams < 2 {
        obs_debug!(
            "browser: transport supports {} stream(s), needs 2 — page load rejected",
            channel.max_parallel_streams
        );
        return Err(BrowserError::ParallelismUnsupported {
            supported: channel.max_parallel_streams,
            required: 2,
        });
    }
    rec.add("browser/pages", 1);
    rec.add("browser/resources", site.resources.len() as u64);
    if scratch.uses > 0 {
        ptperf_obs::perf::incr_browser_scratch_hits();
    }
    scratch.uses += 1;
    let parallelism = BROWSER_PARALLELISM.min(channel.max_parallel_streams);

    if rng.chance(channel.connect_failure_p) {
        return Ok(PageLoad {
            main_done: timeout,
            total: timeout,
            speed_index: timeout,
            outcome: Outcome::Failed,
        });
    }

    // Phase 1: the default page, exactly like curl.
    let main_ttfb = channel.setup
        + channel.stream_open
        + channel.per_request_extra
        + channel.request_rtt
        + site.server_processing;
    let main_done = main_ttfb + channel.transfer_time(site.main_size);
    if main_done >= timeout {
        return Ok(PageLoad {
            main_done: timeout,
            total: timeout,
            speed_index: timeout,
            outcome: Outcome::Partial,
        });
    }

    // Phase 2: sub-resources over `parallelism` shared connections. All
    // flows share the channel's effective rate; each carries fixed
    // per-request latency (stream open + request round trip + extras).
    // Requests beyond the parallelism window start as slots free up —
    // approximated by staggering start times in waves.
    scratch.net.clear();
    let tunnel = scratch.net.add_node(channel.effective_rate());
    let per_req = channel.stream_open + channel.per_request_extra + channel.request_rtt;
    scratch.batch.clear();
    for (i, &bytes) in site.resources.iter().enumerate() {
        let wave = (i / parallelism) as u64;
        // Later waves queue behind earlier ones; one request round
        // trip of stagger per wave approximates connection reuse.
        let start = SimTime::ZERO + per_req * wave.min(20);
        scratch
            .batch
            .push(start, bytes as f64, &[tunnel], None, per_req);
    }
    if use_reference {
        scratch.completions = reference::fluid_schedule_recorded(&scratch.net, &scratch.batch, rec);
    } else {
        let before = scratch.completions.capacity();
        scratch
            .sched
            .run_recorded_into(&scratch.net, &scratch.batch, &mut scratch.completions, rec);
        if scratch.completions.capacity() > before {
            scratch.grow_events += 1;
        }
    }
    // Single pass over the completions for the last-resource time; the
    // speed index below indexes the buffer directly instead of copying
    // the finish times out.
    let mut last_resource = SimDuration::ZERO;
    for c in &scratch.completions {
        let done = c.finish.duration_since(SimTime::ZERO);
        if done > last_resource {
            last_resource = done;
        }
    }
    let mut total = main_done + last_resource;

    // Connection death: browsers retry sub-resources, so a death shows up
    // as lost time rather than a partial page — retried once, then the
    // page is declared partial if it still cannot finish.
    let mut outcome = Outcome::Complete;
    if channel.hazard_per_sec > 0.0 {
        let death_after = rng.exponential(1.0 / channel.hazard_per_sec);
        let body_secs = total.saturating_sub(main_ttfb).as_secs_f64();
        if death_after < body_secs {
            // One retry: re-establish and redo the remaining work.
            total += channel.stream_open + channel.request_rtt;
            let second_death = rng.exponential(1.0 / channel.hazard_per_sec);
            if second_death < body_secs {
                outcome = Outcome::Partial;
            }
        }
    }

    if total >= timeout {
        return Ok(PageLoad {
            main_done,
            total: timeout,
            speed_index: timeout,
            outcome: Outcome::Partial,
        });
    }

    // Speed index: Σ wᵢ·tᵢ over visual contributions. The main document
    // carries 35% of the visual weight (layout, text); each sub-resource
    // carries weight proportional to its size.
    let res_total: f64 = site.resources.iter().map(|&b| b as f64).sum();
    let mut si = 0.35 * main_done.as_secs_f64();
    if res_total > 0.0 {
        for (i, &bytes) in site.resources.iter().enumerate() {
            let w = 0.65 * bytes as f64 / res_total;
            let done = scratch.completions[i].finish.duration_since(SimTime::ZERO);
            si += w * (main_done + done).as_secs_f64();
        }
    } else {
        si += 0.65 * main_done.as_secs_f64();
    }

    Ok(PageLoad {
        main_done,
        total,
        speed_index: SimDuration::from_secs_f64(si),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::website::SiteList;
    use ptperf_obs::{MemoryRecorder, NullRecorder};
    use ptperf_sim::TransferModel;

    fn channel(rate: f64) -> Channel {
        Channel::ideal(TransferModel::new(SimDuration::from_millis(150), rate, 0.0))
    }

    fn site() -> Website {
        Website::generate(SiteList::Tranco, 3)
    }

    /// One unrecorded page load on a fresh scratch.
    fn load(ch: &Channel, s: &Website, rng: &mut SimRng) -> Result<PageLoad, BrowserError> {
        load_page_pooled(ch, s, rng, &mut NullRecorder, &mut PageScratch::new())
    }

    #[test]
    fn page_load_exceeds_curl_fetch() {
        let mut rng = SimRng::new(1);
        let ch = channel(1.0e6);
        let s = site();
        let page = load(&ch, &s, &mut rng).unwrap();
        let mut rng2 = SimRng::new(1);
        let curl = crate::curl::fetch(&ch, &s, &mut rng2);
        assert!(page.total > curl.total, "browser must load more than curl");
        assert_eq!(page.outcome, Outcome::Complete);
    }

    #[test]
    fn speed_index_below_total_load() {
        let mut rng = SimRng::new(2);
        let page = load(&channel(1.0e6), &site(), &mut rng).unwrap();
        assert!(
            page.speed_index < page.total,
            "SI {} vs total {}",
            page.speed_index,
            page.total
        );
        assert!(page.speed_index > SimDuration::ZERO);
    }

    #[test]
    fn single_stream_transport_is_rejected() {
        let mut rng = SimRng::new(3);
        let mut ch = channel(1.0e6);
        ch.max_parallel_streams = 1;
        let err = load(&ch, &site(), &mut rng).unwrap_err();
        assert!(matches!(err, BrowserError::ParallelismUnsupported { .. }));
    }

    #[test]
    fn faster_channel_loads_faster() {
        let mut a = SimRng::new(4);
        let mut b = SimRng::new(4);
        let fast = load(&channel(3.0e6), &site(), &mut a).unwrap();
        let slow = load(&channel(100.0e3), &site(), &mut b).unwrap();
        assert!(slow.total > fast.total);
        assert!(slow.speed_index > fast.speed_index);
    }

    #[test]
    fn timeout_declares_partial() {
        let mut rng = SimRng::new(5);
        // ~140 s for the default page alone, past the 120 s timeout.
        let page = load(&channel(700.0), &site(), &mut rng).unwrap();
        assert_eq!(page.outcome, Outcome::Partial);
        assert_eq!(page.total, PAGE_TIMEOUT);
    }

    #[test]
    fn connect_failure_fails_whole_page() {
        let mut rng = SimRng::new(6);
        let mut ch = channel(1.0e6);
        ch.connect_failure_p = 1.0;
        let page = load(&ch, &site(), &mut rng).unwrap();
        assert_eq!(page.outcome, Outcome::Failed);
    }

    #[test]
    fn traced_load_matches_untraced_and_counts_scheduler_work() {
        let ch = channel(1.0e6);
        let s = site();
        let mut rng_a = SimRng::new(8);
        let mut rng_b = SimRng::new(8);
        let mut rec = MemoryRecorder::new();
        let plain =
            load_page_pooled(&ch, &s, &mut rng_a, &mut NullRecorder, &mut PageScratch::new())
                .unwrap();
        let traced =
            load_page_pooled(&ch, &s, &mut rng_b, &mut rec, &mut PageScratch::new()).unwrap();
        assert_eq!(plain.total, traced.total);
        assert_eq!(plain.speed_index, traced.speed_index);
        assert_eq!(plain.outcome, traced.outcome);
        let data = rec.into_data();
        assert_eq!(data.counter("browser/pages"), Some(1));
        assert_eq!(data.counter("browser/resources"), Some(s.resources.len() as u64));
        // The fluid scheduler ran at least one constant-rate segment.
        assert!(data.counter("fluid/steps").unwrap_or(0) >= 1);
        assert!(data.counter("maxmin/recomputations").unwrap_or(0) >= 1);
        // Browser pages are the single-bottleneck shape the allocator's
        // analytic fast path exists for: every recomputation here must
        // take it, and the skipped generic machinery shows up as zero
        // extra rounds.
        assert_eq!(
            data.counter("maxmin/fast_path"),
            data.counter("maxmin/recomputations"),
        );
    }

    #[test]
    fn pooled_lane_matches_reference_bitwise() {
        let ch = channel(1.2e6);
        let s = site();
        let mut scratch = PageScratch::new();
        for round in 0..3 {
            let mut rng_a = SimRng::new(40 + round);
            let mut rng_b = SimRng::new(40 + round);
            let pooled =
                load_page_pooled(&ch, &s, &mut rng_a, &mut NullRecorder, &mut scratch).unwrap();
            let refr = load_page_reference(&ch, &s, &mut rng_b, &mut NullRecorder).unwrap();
            assert_eq!(pooled.main_done, refr.main_done);
            assert_eq!(pooled.total, refr.total);
            assert_eq!(pooled.speed_index, refr.speed_index);
            assert_eq!(pooled.outcome, refr.outcome);
        }
        assert_eq!(scratch.uses(), 3);
    }

    #[test]
    fn warm_page_scratch_is_allocation_free() {
        let ch = channel(1.2e6);
        let s = site();
        let mut scratch = PageScratch::new();
        let mut rng = SimRng::new(50);
        // Cold call pays the allocations once.
        load_page_pooled(&ch, &s, &mut rng, &mut NullRecorder, &mut scratch).unwrap();
        let warm = scratch.grows();
        for round in 0..4 {
            let mut rng = SimRng::new(60 + round);
            load_page_pooled(&ch, &s, &mut rng, &mut NullRecorder, &mut scratch).unwrap();
        }
        assert_eq!(
            scratch.grows(),
            warm,
            "warm page loads must not grow any scratch buffer"
        );
    }

    #[test]
    fn parallelism_beats_serial_for_many_resources() {
        // With 6-way parallelism and per-request latency, total should be
        // far below the serial sum of per-resource times.
        let mut rng = SimRng::new(7);
        let ch = channel(2.0e6);
        let s = site();
        let page = load(&ch, &s, &mut rng).unwrap();
        let serial: f64 = s
            .resources
            .iter()
            .map(|&b| {
                (ch.stream_open + ch.request_rtt).as_secs_f64()
                    + ch.transfer_time(b).as_secs_f64()
            })
            .sum();
        assert!(
            page.total.as_secs_f64() < serial,
            "parallel {} vs serial {serial}",
            page.total.as_secs_f64()
        );
    }
}
