//! Per-layer attribution, timed from outside the program.
//!
//! The benchmark re-drives each family's unit loop from its own code:
//! the same public layer calls, in the same order, on the same RNG
//! streams, so the loop reproduces the family's samples bit for bit
//! (the traced run checks this). It records a span around every call.
//! Nothing inside the program is instrumented; a span's self time is
//! its length minus its children's.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ptperf::executor::UnitScratch;
use ptperf::experiments::{
    figure_order, file_download, location, medium, reliability, snowflake_load, speed_index,
    website_curl, website_selenium,
};
use ptperf::obs::NullRecorder;
use ptperf::scenario::{Epoch, Scenario};
use ptperf::sim::{Location, Medium, SimRng};
use ptperf::transports::{fault_bias, transport_for, EstablishScratch, PtId};
use ptperf::web::{browser, curl, filedl, FaultSession, ReliabilityCounts, Website};

/// What a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One re-driven executor unit (the root of its layer calls).
    Unit,
    /// `PluggableTransport::establish_with`.
    Establish,
    /// `curl::fetch_faulted`.
    CurlFetch,
    /// `browser::load_page_pooled` (its fluid scheduler included).
    BrowserLoad,
    /// `filedl::download_faulted`.
    Download,
    /// `ttest_tables::pairwise` / `category_pairwise`.
    TTest,
    /// A family or t-test table render.
    Render,
}

impl Layer {
    /// Every layer, in span-file code order.
    pub const ALL: [Layer; 7] = [
        Layer::Unit,
        Layer::Establish,
        Layer::CurlFetch,
        Layer::BrowserLoad,
        Layer::Download,
        Layer::TTest,
        Layer::Render,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "unit",
            Layer::Establish => "transports.establish",
            Layer::CurlFetch => "web.curl.fetch",
            Layer::BrowserLoad => "web.browser.load",
            Layer::Download => "web.filedl.download",
            Layer::TTest => "stats.ttest",
            Layer::Render => "report.render",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;
const NO_PT: u8 = u8::MAX;

/// One timed call: host nanoseconds since the trace origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: u64,
    end: u64,
    parent: u32,
    layer: Layer,
    pt: u8,
}

/// One thread's span recorder. Spans stay in memory until
/// [`write_spans`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: u32,
}

impl Tracer {
    /// A recorder timing against a shared origin.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: NO_PARENT,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` in a root span; the calls it records become children.
    pub fn root<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            parent: NO_PARENT,
            layer,
            pt: NO_PT,
        });
        let outer = std::mem::replace(&mut self.open, idx);
        let r = f(self);
        self.open = outer;
        self.spans[idx as usize].end = self.now();
        r
    }

    /// Times one call into a layer on behalf of `pt`.
    pub fn call<R>(&mut self, layer: Layer, pt: PtId, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.spans.push(Span {
            start,
            end,
            parent: self.open,
            layer,
            pt: pt.index() as u8,
        });
        r
    }
}

/// The median length of a span around an empty call: the clock cost
/// each leaf span carries, subtracted from leaf self times.
pub fn clock_cost_ns() -> u64 {
    let mut t = Tracer::new(Instant::now());
    for _ in 0..20_000 {
        t.call(Layer::Establish, PtId::Vanilla, || ());
    }
    let mut d: Vec<u64> = t.spans.iter().map(|s| s.end - s.start).collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// A re-driven executor unit.
pub type Job<T> = Box<dyn FnOnce(&mut Tracer, &mut UnitScratch) -> T + Send>;

fn job<T>(f: impl FnOnce(&mut Tracer, &mut UnitScratch) -> T + Send + 'static) -> Job<T> {
    Box::new(f)
}

/// Runs jobs on one thread per tracer, each claiming the next unclaimed
/// job like the executor does, and returns their values in job order.
pub fn run_jobs<T: Send>(tracers: &mut [Tracer], jobs: Vec<Job<T>>) -> Vec<T> {
    let slots: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for tracer in tracers.iter_mut() {
            let (slots, results, cursor) = (&slots, &results, &cursor);
            s.spawn(move || {
                let mut scratch = UnitScratch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    let job = slot
                        .lock()
                        .expect("job slots are only locked to take a job")
                        .take()
                        .expect("each job is claimed once");
                    let value = tracer.root(Layer::Unit, |t| job(t, &mut scratch));
                    *results[i]
                        .lock()
                        .expect("result slots are only locked to store") = Some(value);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("no job panicked")
                .expect("every job ran")
        })
        .collect()
}

// ---- the re-driven loops --------------------------------------------

/// `measure::curl_site_averages_faulted`'s loop.
#[allow(clippy::too_many_arguments)]
fn curl_loop(
    t: &mut Tracer,
    sc: &Scenario,
    pt: PtId,
    sites: &[Website],
    repeats: usize,
    rng: &mut SimRng,
    scratch: &mut EstablishScratch,
    faults: &mut FaultSession,
) -> Vec<f64> {
    let dep = sc.deployment();
    let opts = sc.access_options();
    let transport = transport_for(pt);
    let mut averages = Vec::with_capacity(sites.len());
    for site in sites {
        let mut total = 0.0;
        for _ in 0..repeats {
            let ch = t.call(Layer::Establish, pt, || {
                transport.establish_with(&dep, &opts, site.server, rng, scratch)
            });
            let fetch = t.call(Layer::CurlFetch, pt, || {
                curl::fetch_faulted(&ch, site, rng, faults)
            });
            total += fetch.total.as_secs_f64();
        }
        averages.push(total / repeats as f64);
    }
    averages
}

/// `website_curl::units`.
pub fn website_curl_jobs(
    sc: &Scenario,
    cfg: website_curl::Config,
) -> Vec<Job<website_curl::Shard>> {
    let sites = sc.target_sites(cfg.sites_per_list);
    figure_order()
        .into_iter()
        .map(|pt| {
            let (sc, sites) = (sc.clone(), Arc::clone(&sites));
            job(move |t, scratch| {
                let mut rng = sc.rng(&format!("fig2a/{pt}"));
                let avgs = curl_loop(
                    t,
                    &sc,
                    pt,
                    &sites,
                    cfg.repeats,
                    &mut rng,
                    &mut scratch.establish,
                    &mut FaultSession::off(),
                );
                (pt, avgs)
            })
        })
        .collect()
}

/// `location::units`.
pub fn location_jobs(sc: &Scenario, cfg: location::Config) -> Vec<Job<location::Shard>> {
    let pts = if cfg.all_pts {
        figure_order()
    } else {
        location::SHOWCASE.to_vec()
    };
    let sites = sc.target_sites(cfg.sites_per_list);
    let mut jobs = Vec::new();
    for client in Location::CLIENTS {
        for server in Location::SERVERS {
            for &pt in &pts {
                let mut sc = sc.clone();
                sc.client = client;
                sc.server_region = server;
                let sites = Arc::clone(&sites);
                jobs.push(job(move |t, scratch| {
                    let mut rng = sc.rng(&format!("fig7/{client}/{server}/{pt}"));
                    let avgs = curl_loop(
                        t,
                        &sc,
                        pt,
                        &sites,
                        cfg.repeats,
                        &mut rng,
                        &mut scratch.establish,
                        &mut FaultSession::off(),
                    );
                    ((client, server, pt), avgs)
                }));
            }
        }
    }
    jobs
}

/// `medium::units`.
pub fn medium_jobs(sc: &Scenario, cfg: medium::Config) -> Vec<Job<medium::Shard>> {
    let sites = sc.target_sites(cfg.sites_per_list);
    let mut jobs = Vec::new();
    for m in [Medium::Wired, Medium::Wireless] {
        for pt in figure_order() {
            let mut sc = sc.clone();
            sc.medium = m;
            let sites = Arc::clone(&sites);
            jobs.push(job(move |t, scratch| {
                let mut rng = sc.rng(&format!("medium/{m:?}/{pt}"));
                let avgs = curl_loop(
                    t,
                    &sc,
                    pt,
                    &sites,
                    cfg.repeats,
                    &mut rng,
                    &mut scratch.establish,
                    &mut FaultSession::off(),
                );
                (
                    (medium::MediumKey::from(m), pt),
                    ptperf::stats::median(&avgs),
                )
            }));
        }
    }
    jobs
}

/// `scenario` with a pre-surge epoch lifted to `to`, as the browser and
/// download families do.
fn lifted(sc: &Scenario, to: Epoch) -> Scenario {
    let mut sc = sc.clone();
    if matches!(sc.epoch, Epoch::PreSurge) {
        sc.epoch = to;
    }
    sc
}

/// `website_selenium::units`.
pub fn selenium_jobs(
    sc: &Scenario,
    cfg: website_selenium::Config,
) -> Vec<Job<website_selenium::Shard>> {
    let sc = lifted(sc, Epoch::Plateau);
    let sites = sc.target_sites(cfg.sites_per_list);
    figure_order()
        .into_iter()
        .map(|pt| {
            let (sc, sites) = (sc.clone(), Arc::clone(&sites));
            job(move |t, scratch| {
                let transport = transport_for(pt);
                let dep = sc.deployment();
                let opts = sc.access_options();
                let mut rng = sc.rng(&format!("fig2b/{pt}"));
                let mut per_site = Vec::with_capacity(sites.len());
                for site in sites.iter() {
                    let mut total = 0.0;
                    for _ in 0..cfg.repeats {
                        let ch = t.call(Layer::Establish, pt, || {
                            transport.establish_with(
                                &dep,
                                &opts,
                                site.server,
                                &mut rng,
                                &mut scratch.establish,
                            )
                        });
                        let page = t.call(Layer::BrowserLoad, pt, || {
                            browser::load_page_pooled(
                                &ch,
                                site,
                                &mut rng,
                                &mut NullRecorder,
                                &mut scratch.page,
                            )
                        });
                        match page {
                            Ok(page) => total += page.total.as_secs_f64(),
                            Err(_) => return (pt, None),
                        }
                    }
                    per_site.push(total / cfg.repeats as f64);
                }
                (pt, Some(per_site))
            })
        })
        .collect()
}

/// `speed_index::units`.
pub fn speed_index_jobs(sc: &Scenario, cfg: speed_index::Config) -> Vec<Job<speed_index::Shard>> {
    let sc = lifted(sc, Epoch::Plateau);
    let sites = sc.target_sites(cfg.sites_per_list);
    figure_order()
        .into_iter()
        .map(|pt| {
            let (sc, sites) = (sc.clone(), Arc::clone(&sites));
            job(move |t, scratch| {
                let transport = transport_for(pt);
                let dep = sc.deployment();
                let opts = sc.access_options();
                let mut rng = sc.rng(&format!("fig11/{pt}"));
                let (mut si, mut lt) = (Vec::new(), Vec::new());
                for site in sites.iter() {
                    let ch = t.call(Layer::Establish, pt, || {
                        transport.establish_with(
                            &dep,
                            &opts,
                            site.server,
                            &mut rng,
                            &mut scratch.establish,
                        )
                    });
                    let page = t.call(Layer::BrowserLoad, pt, || {
                        browser::load_page_pooled(
                            &ch,
                            site,
                            &mut rng,
                            &mut NullRecorder,
                            &mut scratch.page,
                        )
                    });
                    match page {
                        Ok(page) => {
                            si.push(page.speed_index.as_secs_f64());
                            lt.push(page.total.as_secs_f64());
                        }
                        Err(_) => return (pt, None),
                    }
                }
                (pt, Some((si, lt)))
            })
        })
        .collect()
}

/// The shared download loop of `file_download::units` and
/// `reliability::units`: every (size, attempt) on the PT's own RNG and
/// fault streams, tagged `{family}/{pt}`.
#[allow(clippy::too_many_arguments)]
fn download_loop(
    t: &mut Tracer,
    sc: &Scenario,
    pt: PtId,
    tag: &str,
    sizes: &[u64],
    attempts: usize,
    scratch: &mut EstablishScratch,
    mut each: impl FnMut(u64, filedl::Download),
) {
    let transport = transport_for(pt);
    let dep = sc.deployment();
    let opts = sc.access_options();
    let file_server = sc.server_region;
    let mut rng = sc.rng(&format!("{tag}/{pt}"));
    let mut faults = sc.fault_session(&format!("{tag}/{pt}"), fault_bias(pt));
    for &size in sizes {
        for _ in 0..attempts {
            let ch = t.call(Layer::Establish, pt, || {
                transport.establish_with(&dep, &opts, file_server, &mut rng, scratch)
            });
            let d = t.call(Layer::Download, pt, || {
                filedl::download_faulted(&ch, size, &mut rng, &mut faults)
            });
            each(size, d);
        }
    }
}

/// `file_download::units`.
pub fn file_download_jobs(
    sc: &Scenario,
    cfg: file_download::Config,
) -> Vec<Job<file_download::Shard>> {
    let sc = lifted(sc, Epoch::Plateau);
    figure_order()
        .into_iter()
        .map(|pt| {
            let sc = sc.clone();
            job(move |t, scratch| {
                let mut list = Vec::with_capacity(cfg.sizes.len() * cfg.attempts);
                download_loop(
                    t,
                    &sc,
                    pt,
                    "fig5",
                    &cfg.sizes,
                    cfg.attempts,
                    &mut scratch.establish,
                    |size, d| {
                        list.push(file_download::Attempt {
                            size,
                            elapsed: d.elapsed.as_secs_f64(),
                            fraction: d.fraction,
                            outcome: d.outcome,
                        });
                    },
                );
                (pt, list)
            })
        })
        .collect()
}

/// `reliability::units`.
pub fn reliability_jobs(sc: &Scenario, cfg: reliability::Config) -> Vec<Job<reliability::Shard>> {
    let sc = lifted(sc, Epoch::Surge);
    figure_order()
        .into_iter()
        .filter(|&pt| pt != PtId::Vanilla)
        .map(|pt| {
            let sc = sc.clone();
            job(move |t, scratch| {
                let mut counts = ReliabilityCounts::default();
                let mut fractions = Vec::with_capacity(cfg.sizes.len() * cfg.attempts);
                download_loop(
                    t,
                    &sc,
                    pt,
                    "fig8",
                    &cfg.sizes,
                    cfg.attempts,
                    &mut scratch.establish,
                    |_, d| {
                        counts.record(d.outcome);
                        fractions.push(d.fraction);
                    },
                );
                (pt, counts, fractions)
            })
        })
        .collect()
}

/// `snowflake_load::units`: the pre/post series, the monitoring
/// baseline, then one series per monitoring week.
pub fn snowflake_jobs(
    sc: &Scenario,
    cfg: snowflake_load::Config,
) -> Vec<Job<snowflake_load::Shard>> {
    let sites = sc.target_sites(cfg.sites_per_list);
    let monitor = sc.target_sites(cfg.monitor_sites / 2 + 1);
    let at = |epoch: Epoch| {
        let mut s = sc.clone();
        s.epoch = epoch;
        s
    };
    let mut series: Vec<(Scenario, Arc<[Website]>, String)> = vec![
        (at(Epoch::PreSurge), Arc::clone(&sites), "fig10/pre".into()),
        (at(Epoch::Plateau), sites, "fig10/post".into()),
        (
            at(Epoch::PreSurge),
            Arc::clone(&monitor),
            "fig12/pre".into(),
        ),
    ];
    for week in 0..cfg.monitor_weeks {
        let wobble = 1.0 + 0.08 * ((week % 3) as f64);
        let epoch = Epoch::LoadMult(Epoch::Plateau.load_mult() * wobble);
        series.push((at(epoch), Arc::clone(&monitor), format!("fig12/week{week}")));
    }
    series
        .into_iter()
        .map(|(sc, sites, tag)| {
            job(move |t, scratch| {
                let pt = PtId::Snowflake;
                let mut rng = sc.rng(&tag);
                let mut faults = sc.fault_session(&tag, fault_bias(pt));
                curl_loop(
                    t,
                    &sc,
                    pt,
                    &sites,
                    cfg.repeats,
                    &mut rng,
                    &mut scratch.establish,
                    &mut faults,
                )
            })
        })
        .collect()
}

// ---- attribution ------------------------------------------------------

/// Span totals per layer, self times net of the clock cost.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Calls per layer, indexed like [`Layer::ALL`].
    pub calls: [u64; 7],
    /// Self nanoseconds per layer.
    pub self_ns: [u64; 7],
    /// Establish calls per PT (dense `PtId` index).
    pub establish_calls: [u64; PtId::COUNT],
    /// Establish self nanoseconds per PT.
    pub establish_ns: [u64; PtId::COUNT],
    /// Σ unit span length: the re-drive's busy worker time.
    pub busy_ns: u64,
}

impl Attribution {
    /// Adds one tracer's spans, charging each leaf span's clock cost to
    /// its unit.
    pub fn add(&mut self, tracer: &Tracer, clock_ns: u64) {
        let spans = &tracer.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            let len = s.end - s.start;
            let layer = s.layer as usize;
            self.calls[layer] += 1;
            if s.layer == Layer::Unit {
                self.busy_ns += len;
                continue;
            }
            let net = len.saturating_sub(clock_ns);
            self.self_ns[layer] += net;
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += net;
            }
            if s.layer == Layer::Establish {
                self.establish_calls[s.pt as usize] += 1;
                self.establish_ns[s.pt as usize] += net;
            }
        }
        for (s, child) in spans.iter().zip(&child_ns) {
            if s.layer == Layer::Unit {
                self.self_ns[Layer::Unit as usize] += (s.end - s.start).saturating_sub(*child);
            }
        }
    }

    /// Self seconds of a layer.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e9
    }

    /// Calls into a layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// Writes every tracer's spans, parents re-indexed into one list, as a
/// text header line followed by 24-byte little-endian
/// records: start ns (u64), end ns (u64), parent index (u32, all ones
/// for a root), layer code (u8, [`Layer::ALL`] order), PT index (u8, 255
/// for none), two zero bytes.
pub fn write_spans(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<&str> = Layer::ALL.iter().map(|l| l.name()).collect();
    let count: usize = tracers.iter().map(|t| t.spans.len()).sum();
    writeln!(
        out,
        "ptperf-corpusbench-spans/v1 {count} {}",
        names.join(",")
    )?;
    let mut offset = 0u32;
    for t in tracers {
        for s in &t.spans {
            let parent = if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + offset
            };
            out.write_all(&s.start.to_le_bytes())?;
            out.write_all(&s.end.to_le_bytes())?;
            out.write_all(&parent.to_le_bytes())?;
            out.write_all(&[s.layer as u8, s.pt, 0, 0])?;
        }
        offset += t.spans.len() as u32;
    }
    out.flush()
}
