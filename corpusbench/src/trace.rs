//! The traced run: per-layer metrics of one workload.
//!
//! 1. One untraced run (the reference renders and family results).
//! 2. One run with `Record::Trace`: the program's own trace counters,
//!    and renders that must be byte-identical to step 1.
//! 3. The workload's unit loops re-driven from `redrive.rs`, a span
//!    around every layer call; each loop must reproduce its family's
//!    `run_with` samples bit for bit.

use std::collections::BTreeSet;
use std::time::Instant;

use ptperf::executor::{Parallelism, Record};
use ptperf::experiments::ttest_tables::TTestRow;
use ptperf::experiments::{
    file_download, location, medium, reliability, snowflake_load, speed_index, ttest_tables,
    website_curl, website_selenium,
};
use ptperf::obs::perf;
use ptperf::scenario::Scenario;
use ptperf::transports::PtId;

use crate::redrive::{self, run_jobs, Attribution, Layer, Tracer};
use crate::workload::{self as wl, RunOutput, Workload, WORKERS};
use crate::{output_ok, setup, Args, Report};

/// What re-driving a workload produced.
#[derive(Default)]
struct Redriven {
    /// Sample-bit digest per family run, in run order.
    families: Vec<(&'static str, String)>,
    /// `paper_corpus`: renders rebuilt from the re-driven results.
    renders: Vec<(&'static str, String)>,
}

/// The families a workload's re-drive covers.
fn redriven_families(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::PaperCorpus => &[
            "website_curl",
            "location",
            "medium",
            "website_selenium",
            "speed_index",
            "file_download",
            "reliability",
            "snowflake_load",
        ],
        Workload::BrowserPages => &["website_selenium", "speed_index"],
        Workload::FaultedEnsemble => &["file_download", "reliability", "snowflake_load"],
    }
}

/// Times one render and keeps it for comparison with the target's.
fn render(out: &mut Redriven, t: &mut Tracer, target: &'static str, f: impl FnOnce() -> String) {
    out.renders.push((target, t.root(Layer::Render, |_| f())));
}

/// Two targets that each run the same t-tests and render one half of
/// the table, as `run_target_obs` does for Tables 3–6, 8 and 9.
fn halves(
    out: &mut Redriven,
    t: &mut Tracer,
    tables: [(&'static str, &str); 2],
    tests: impl Fn() -> Vec<TTestRow>,
) {
    for (part, (target, title)) in tables.into_iter().enumerate() {
        let rows = t.root(Layer::TTest, |_| tests());
        let mid = rows.len() / 2;
        let half = if part == 0 {
            &rows[..mid]
        } else {
            &rows[mid..]
        };
        render(out, t, target, || ttest_tables::render(title, half));
    }
}

/// Re-drives the families of one corpus or ensemble scenario; for the
/// corpus also rebuilds every render and t-test table those families
/// feed, timing the stats and render calls. Digests are pushed in
/// [`redriven_families`] order.
fn redrive(sc: &Scenario, w: Workload, tracers: &mut [Tracer], out: &mut Redriven) {
    let corpus = w == Workload::PaperCorpus;
    for &family in redriven_families(w) {
        let digest = match family {
            "website_curl" => {
                let r = website_curl::merge(run_jobs(
                    tracers,
                    redrive::website_curl_jobs(sc, website_curl::Config::paper()),
                ));
                let t = &mut tracers[0];
                render(out, t, "fig2a", || r.render());
                halves(
                    out,
                    t,
                    [
                        (
                            "table3",
                            "Table 3 — paired t-tests, website access via curl [Part I]",
                        ),
                        (
                            "table4",
                            "Table 4 — paired t-tests, website access via curl [Part II]",
                        ),
                    ],
                    || ttest_tables::pairwise(&r.samples),
                );
                let rows = t.root(Layer::TTest, |_| {
                    ttest_tables::category_pairwise(&r.samples)
                });
                render(out, t, "table10", || {
                    ttest_tables::render(
                        "Table 10 — paired t-tests between PT categories (curl website access)",
                        &rows,
                    )
                });
                wl::digest_curl(&r)
            }
            "location" => {
                let r = location::merge(run_jobs(
                    tracers,
                    redrive::location_jobs(sc, location::Config::paper()),
                ));
                render(out, &mut tracers[0], "fig7", || r.render());
                wl::digest_location(&r)
            }
            "medium" => {
                let r = medium::merge(run_jobs(
                    tracers,
                    redrive::medium_jobs(sc, medium::Config::paper()),
                ));
                render(out, &mut tracers[0], "medium", || r.render());
                wl::digest_medium(&r)
            }
            "website_selenium" => {
                let r = website_selenium::merge(run_jobs(
                    tracers,
                    redrive::selenium_jobs(sc, website_selenium::Config::paper()),
                ));
                if corpus {
                    let t = &mut tracers[0];
                    render(out, t, "fig2b", || r.render());
                    halves(
                        out,
                        t,
                        [
                            (
                                "table5",
                                "Table 5 — paired t-tests, website access via selenium [Part I]",
                            ),
                            (
                                "table6",
                                "Table 6 — paired t-tests, website access via selenium [Part II]",
                            ),
                        ],
                        || ttest_tables::pairwise(&r.samples),
                    );
                }
                wl::digest_selenium(&r)
            }
            "speed_index" => {
                let r = speed_index::merge(run_jobs(
                    tracers,
                    redrive::speed_index_jobs(sc, speed_index::Config::paper()),
                ));
                if corpus {
                    let t = &mut tracers[0];
                    render(out, t, "fig11", || r.render());
                    halves(
                        out,
                        t,
                        [
                            ("table8", "Table 8 — paired t-tests, speed index [Part I]"),
                            ("table9", "Table 9 — paired t-tests, speed index [Part II]"),
                        ],
                        || ttest_tables::pairwise(&r.speed_index),
                    );
                }
                wl::digest_speed_index(&r)
            }
            "file_download" => {
                let r = file_download::merge(run_jobs(
                    tracers,
                    redrive::file_download_jobs(sc, file_download::Config::paper()),
                ));
                if corpus {
                    let t = &mut tracers[0];
                    render(out, t, "fig5", || r.render());
                    let rows = t.root(Layer::TTest, |_| ttest_tables::pairwise(&r.paired));
                    render(out, t, "table7", || {
                        ttest_tables::render("Table 7 — paired t-tests, file downloads", &rows)
                    });
                }
                wl::digest_file_download(&r)
            }
            "reliability" => {
                let r = reliability::merge(run_jobs(
                    tracers,
                    redrive::reliability_jobs(sc, reliability::Config::paper()),
                ));
                if corpus {
                    render(out, &mut tracers[0], "fig8a", || r.render_stacked());
                    render(out, &mut tracers[0], "fig8b", || r.render_ecdf());
                }
                wl::digest_reliability(&r)
            }
            "snowflake_load" => {
                let r = snowflake_load::merge(run_jobs(
                    tracers,
                    redrive::snowflake_jobs(sc, snowflake_load::Config::paper()),
                ));
                if corpus {
                    render(out, &mut tracers[0], "fig10a", || r.render_timeline());
                    render(out, &mut tracers[0], "fig10b", || r.render_pre_post());
                    render(out, &mut tracers[0], "fig12", || r.render_weekly());
                }
                wl::digest_snowflake(&r)
            }
            other => unreachable!("no re-drive for family {other}"),
        };
        out.families.push((family, digest));
    }
}

/// The corpus families' own `run_with` results, digested: the reference
/// the re-driven loops must reproduce.
fn corpus_reference(sc: &Scenario, par: &Parallelism) -> Vec<(&'static str, String)> {
    let mut out = wl::empty_output();
    let mut digests = Vec::new();
    // Each family's name is its module's name.
    macro_rules! reference {
        ($($family:ident => $digest:path),+ $(,)?) => {$(
            if let Some(r) = wl::family(&mut out, stringify!($family), sc.seed, || {
                $family::run_with(sc, &$family::Config::paper(), par)
            }) {
                digests.push((stringify!($family), $digest(&r)));
            }
        )+};
    }
    reference!(
        website_curl => wl::digest_curl,
        location => wl::digest_location,
        medium => wl::digest_medium,
        website_selenium => wl::digest_selenium,
        speed_index => wl::digest_speed_index,
        file_download => wl::digest_file_download,
        reliability => wl::digest_reliability,
        snowflake_load => wl::digest_snowflake,
    );
    digests
}

/// Σ shard wall seconds of the family runs `keep` selects.
fn shard_s(out: &RunOutput, mut keep: impl FnMut(&wl::FamilyRun) -> bool) -> f64 {
    out.runs
        .iter()
        .filter(|r| keep(r))
        .flat_map(|r| &r.reports)
        .map(|s| s.wall.as_secs_f64())
        .sum()
}

/// Σ of a trace counter over every shard of a run.
fn counter(out: &RunOutput, key: &str) -> u64 {
    out.runs
        .iter()
        .flat_map(|r| &r.reports)
        .filter_map(|s| s.obs.counter(key))
        .sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the traced run of one workload and reports its per-layer
/// metrics.
pub fn run(args: &Args) -> Report {
    let w = args.workload;
    let setup = setup(args);
    let prep = &setup.prepared;

    let plain = wl::run(prep, &wl::parallelism(Record::Off));
    let before = perf::snapshot();
    let traced = wl::run(prep, &wl::parallelism(Record::Trace));
    let perf = perf::snapshot().delta_since(&before);
    let plain_ok = output_ok(args, &plain);
    let traced_ok = output_ok(args, &traced);
    // Byte-identical renders (campaign wall-clock fields masked) and
    // family sample bits.
    let renders_identical = plain.digest() == traced.digest();
    if !renders_identical {
        eprintln!("traffic check failed: traced renders differ from the untraced run");
    }

    let clock_ns = redrive::clock_cost_ns();
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..WORKERS).map(|_| Tracer::new(origin)).collect();
    let mut redriven = Redriven::default();
    for sc in &prep.scenarios {
        redrive(sc, w, &mut tracers, &mut redriven);
    }
    let reference = match w {
        Workload::PaperCorpus => {
            corpus_reference(&prep.scenarios[0], &wl::parallelism(Record::Off))
        }
        Workload::BrowserPages | Workload::FaultedEnsemble => plain.families.clone(),
    };
    let mut loops_identical = redriven.families == reference;
    if !loops_identical {
        eprintln!("traffic check failed: re-driven loops differ from the families' run_with");
    }
    for (target, text) in &redriven.renders {
        let want = plain
            .texts
            .iter()
            .find(|(t, _)| t == target)
            .map(|(_, x)| x);
        if want != Some(text) {
            eprintln!("traffic check failed: re-driven {target} render differs");
            loops_identical = false;
        }
    }

    let mut attr = Attribution::default();
    for t in &tracers {
        attr.add(t, clock_ns);
    }
    let spans_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.bin", w.name(), args.seed));
    match redrive::write_spans(&spans_path, &tracers) {
        Ok(()) => eprintln!(
            "wrote {} spans to {}",
            attr.calls.iter().sum::<u64>(),
            spans_path.display()
        ),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    drop(tracers);

    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for (out, ok) in [(&plain, plain_ok), (&traced, traced_ok)] {
        report.attempted += out.units();
        report.failed += if ok { 0 } else { out.units().max(1) };
        report.correct &= ok;
    }
    report.attempted += 1;
    if !(renders_identical && loops_identical) {
        report.failed += 1;
        report.correct = false;
    }
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    metrics(
        &mut report,
        w,
        &setup,
        &plain,
        &traced,
        &perf,
        &attr,
        clock_ns,
    );
    report.metric("failed_frac", failed_frac, "ratio");
    report
}

#[allow(clippy::too_many_arguments)]
fn metrics(
    report: &mut Report,
    w: Workload,
    setup: &crate::Setup,
    plain: &RunOutput,
    traced: &RunOutput,
    perf: &perf::PerfSnapshot,
    attr: &Attribution,
    clock_ns: u64,
) {
    let run_s = plain.wall.as_secs_f64();
    let busy_s = shard_s(plain, |_| true);

    // core.scenario
    report.metric("scenario.deployment_s", setup.deployment_s, "s");
    report.metric("scenario.sites_s", setup.sites_s, "s");
    report.metric(
        "scenario.deployment_rebuilds_saved",
        perf.deployment_rebuilds_saved as f64,
        "count",
    );
    report.metric(
        "scenario.site_rebuilds_saved",
        perf.site_rebuilds_saved as f64,
        "count",
    );

    // core.executor
    let tail_s: f64 = plain
        .runs
        .iter()
        .map(|r| {
            let shards: f64 = r.reports.iter().map(|s| s.wall.as_secs_f64()).sum();
            (r.wall.as_secs_f64() - shards / WORKERS as f64).max(0.0)
        })
        .sum();
    report.metric("executor.units", plain.units() as f64, "count");
    report.metric(
        "executor.busy_frac",
        ratio(busy_s, run_s * WORKERS as f64),
        "ratio",
    );
    report.metric("executor.tail_s", tail_s, "s");

    // core.experiments
    let mut seen = BTreeSet::new();
    let mut repeat_s = 0.0;
    for r in &plain.runs {
        if !seen.insert((r.family, r.seed)) {
            repeat_s += r.wall.as_secs_f64();
        }
    }
    report.metric("corpus.family_runs", plain.runs.len() as f64, "count");
    report.metric("corpus.family_runs_distinct", seen.len() as f64, "count");
    report.metric("corpus.repeat_s", repeat_s, "s");

    // transports (+ tor::path / tor::index)
    report.metric(
        "transports.establish_calls",
        attr.calls(Layer::Establish) as f64,
        "count",
    );
    report.metric(
        "transports.establish_self_s",
        attr.self_s(Layer::Establish),
        "s",
    );
    for i in 0..PtId::COUNT {
        let pt = PtId::from_index(i).expect("dense PtId index");
        let us = ratio(attr.establish_ns[i] as f64, attr.establish_calls[i] as f64) / 1e3;
        report.metric(format!("transports.establish_us.{}", pt.name()), us, "us");
    }
    let picks = perf.path_index_pick as f64;
    let fallbacks = perf.path_scan_fallback as f64;
    report.metric("tor.path.index_pick", picks, "count");
    report.metric("tor.path.scan_fallback", fallbacks, "count");
    report.metric(
        "tor.path.index_pick_frac",
        ratio(picks, picks + fallbacks),
        "ratio",
    );

    // web.curl (+ sim::xfer)
    report.metric(
        "web.curl.fetch_calls",
        attr.calls(Layer::CurlFetch) as f64,
        "count",
    );
    report.metric("web.curl.fetch_self_s", attr.self_s(Layer::CurlFetch), "s");

    // web.browser (+ sim::flow)
    let recomputations = counter(traced, "maxmin/recomputations") as f64;
    report.metric(
        "web.browser.load_calls",
        attr.calls(Layer::BrowserLoad) as f64,
        "count",
    );
    report.metric(
        "web.browser.load_self_s",
        attr.self_s(Layer::BrowserLoad),
        "s",
    );
    report.metric(
        "browser.resources",
        counter(traced, "browser/resources") as f64,
        "count",
    );
    report.metric(
        "fluid.steps",
        counter(traced, "fluid/steps") as f64,
        "count",
    );
    report.metric("maxmin.recomputations", recomputations, "count");
    report.metric(
        "maxmin.fast_path_frac",
        ratio(counter(traced, "maxmin/fast_path") as f64, recomputations),
        "ratio",
    );
    report.metric(
        "fluid.realloc_skipped",
        counter(traced, "fluid/realloc_skipped") as f64,
        "count",
    );

    // web.filedl / web.streaming (+ sim::fault)
    report.metric(
        "web.filedl.download_calls",
        attr.calls(Layer::Download) as f64,
        "count",
    );
    report.metric(
        "web.filedl.download_self_s",
        attr.self_s(Layer::Download),
        "s",
    );
    report.metric("fault.injected", perf.fault_injected as f64, "count");
    report.metric("fault.retried", perf.fault_retried as f64, "count");
    report.metric("fault.recovered", perf.fault_recovered as f64, "count");
    report.metric("fault.gave_up", perf.fault_gave_up as f64, "count");
    report.metric(
        "fault.recovered_frac",
        ratio(
            perf.fault_recovered as f64,
            (perf.fault_recovered + perf.fault_gave_up) as f64,
        ),
        "ratio",
    );

    // stats / render
    report.metric("stats.ttest_self_s", attr.self_s(Layer::TTest), "s");
    report.metric("report.render_self_s", attr.self_s(Layer::Render), "s");

    // idle-layer probes
    let engine_events = counter(traced, "engine/events_executed");
    let burst_events = counter(traced, "stream/burst_events");
    report.metric("engine.events_executed", engine_events as f64, "count");
    report.metric("stream.burst_events", burst_events as f64, "count");

    // trace
    let busy = attr.busy_ns as f64;
    let redriven = |r: &wl::FamilyRun| redriven_families(w).contains(&r.family);
    let coverage = ratio(shard_s(plain, redriven), busy_s);
    let mut first = BTreeSet::new();
    let plain_first_s = shard_s(plain, |r| redriven(r) && first.insert((r.family, r.seed)));
    report.metric(
        "trace.overhead_frac",
        ratio(traced.wall.as_secs_f64(), run_s) - 1.0,
        "ratio",
    );
    report.metric(
        "trace.unattributed_frac",
        ratio(attr.self_ns[Layer::Unit as usize] as f64, busy),
        "ratio",
    );
    report.metric(
        "trace.redrive_busy_ratio",
        ratio(busy / 1e9, plain_first_s),
        "ratio",
    );
    report.metric("trace.redrive_coverage", coverage, "ratio");
    report.metric("trace.clock_ns", clock_ns as f64, "ns");

    // probe labels: each BENCH_*.json microbench's layer share of this
    // workload's busy worker time
    let share = |ns: u64| ratio(ns as f64, busy) * coverage;
    let leaf_ns: u64 = [
        Layer::Establish,
        Layer::CurlFetch,
        Layer::BrowserLoad,
        Layer::Download,
    ]
    .iter()
    .map(|&l| attr.self_ns[l as usize])
    .sum();
    let idle = |events: u64| if events == 0 { 0.0 } else { -1.0 };
    let probes = [
        (
            "flow",
            "BENCH_flow.json",
            share(attr.self_ns[Layer::BrowserLoad as usize]),
        ),
        (
            "establish",
            "BENCH_establish.json",
            share(attr.self_ns[Layer::Establish as usize]),
        ),
        ("unit", "BENCH_unit.json", share(leaf_ns)),
        ("engine", "BENCH_engine.json", idle(engine_events)),
        ("stream", "BENCH_stream.json", idle(burst_events)),
    ];
    eprintln!(
        "probe labels — layer share of {} busy worker time:",
        w.name()
    );
    for (layer, file, s) in probes {
        let shown = if s < 0.0 {
            "runs, not timed".to_string()
        } else {
            format!("{:.1}%", s * 100.0)
        };
        eprintln!("  {file:<22} {layer:<10} {shown}");
        report.metric(format!("probe.{layer}_share"), s, "ratio");
    }
}
