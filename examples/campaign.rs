//! Scenario: run the whole measurement campaign (all twelve experiment
//! families) at reduced scale and print a one-screen digest — the
//! "did my change break any paper finding?" smoke run.
//!
//! ```sh
//! cargo run --release --example campaign
//! ```
//!
//! The corpus driver runs the twelve families in one pool on the
//! work-claiming executor, with one worker per hardware thread; results
//! are bit-for-bit identical to a sequential run (see
//! `ptperf::executor`).

use ptperf::campaign::{self, render_plan, Family, RunScale};
use ptperf::executor::Parallelism;
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, ttfb, website_curl, website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf_transports::PtId;

fn main() {
    println!("{}", render_plan());

    let scenario = Scenario::baseline(42);
    let par = Parallelism::auto();
    println!(
        "Running all experiments at quick scale (seed 42, {} workers)...\n",
        par.workers
    );
    let corpus = campaign::run(&scenario, RunScale::Quick, &Family::CAMPAIGN, &par)
        .expect("campaign units do not panic");
    println!("{}", corpus.campaign_stats().render());

    println!("=== Digest of paper findings ===\n");

    let curl = &corpus.result::<website_curl::Result>().samples;
    println!(
        "Fig 2a (curl medians): tor {:.1}s, obfs4 {:.1}s, dnstt {:.1}s, meek {:.1}s, \
         camoufler {:.1}s, marionette {:.1}s",
        curl.median(PtId::Vanilla),
        curl.median(PtId::Obfs4),
        curl.median(PtId::Dnstt),
        curl.median(PtId::Meek),
        curl.median(PtId::Camoufler),
        curl.median(PtId::Marionette),
    );

    let sel = &corpus.result::<website_selenium::Result>().samples;
    println!(
        "Fig 2b (selenium means): tor {:.1}s vs obfs4 {:.1}s / webtunnel {:.1}s / conjure {:.1}s \
         — set-1 PTs beat vanilla",
        sel.mean(PtId::Vanilla),
        sel.mean(PtId::Obfs4),
        sel.mean(PtId::WebTunnel),
        sel.mean(PtId::Conjure),
    );

    let circuit = corpus.result::<fixed_circuit::Result>();
    let t = circuit.ttest(PtId::Obfs4, PtId::Vanilla);
    println!(
        "Fig 3 (fixed circuit): obfs4−tor mean diff {:.2}s (P={}) — the null result; \
         {:.0}% of |diffs| < 5s",
        t.mean_diff,
        t.p_display(),
        100.0 * circuit.diffs_below(5.0)
    );

    let t = corpus.result::<fixed_guard::Result>().ttest();
    println!(
        "Fig 4 (fixed guard): obfs4−tor mean diff {:.2}s — first hop governs performance",
        t.mean_diff
    );

    let excluded: Vec<&str> = corpus
        .result::<file_download::Result>()
        .excluded()
        .iter()
        .map(|p| p.name())
        .collect();
    println!("Fig 5 (files): excluded for unreliability: {}", excluded.join(", "));

    let first_byte = corpus.result::<ttfb::Result>();
    println!(
        "Fig 6 (TTFB): sites <5s — tor {:.0}%, meek {:.0}%, marionette {:.0}%",
        100.0 * first_byte.fraction_below(PtId::Vanilla, 5.0),
        100.0 * first_byte.fraction_below(PtId::Meek, 5.0),
        100.0 * first_byte.fraction_below(PtId::Marionette, 5.0),
    );

    use ptperf_sim::Location;
    let grid = corpus.result::<location::Result>();
    println!(
        "Fig 7 (location): obfs4 medians BLR {:.1}s / LON {:.1}s / TORO {:.1}s — Asia slowest, \
         ordering invariant",
        grid.median_by_client(Location::Bangalore, PtId::Obfs4),
        grid.median_by_client(Location::London, PtId::Obfs4),
        grid.median_by_client(Location::Toronto, PtId::Obfs4),
    );

    let rel = corpus.result::<reliability::Result>();
    println!(
        "Fig 8 (reliability): incomplete fractions — meek {:.0}%, dnstt {:.0}%, snowflake {:.0}%",
        100.0 * rel.incomplete_fraction(PtId::Meek),
        100.0 * rel.incomplete_fraction(PtId::Dnstt),
        100.0 * rel.incomplete_fraction(PtId::Snowflake),
    );

    println!(
        "§4.7 (medium): rank correlation wired↔wireless {:.2} — trends preserved",
        corpus.result::<medium::Result>().rank_correlation()
    );

    let cost = corpus.result::<overhead::Result>();
    println!(
        "Fig 9 (overhead): marionette {:.1}s vs obfs4 {:.1}s — marionette is the only outlier",
        cost.mean_overhead(PtId::Marionette),
        cost.mean_overhead(PtId::Obfs4),
    );

    let t = corpus.result::<snowflake_load::Result>().ttest();
    println!(
        "Fig 10 (surge): snowflake pre−post mean diff {:.2}s (P={})",
        t.mean_diff,
        t.p_display()
    );

    let si = corpus.result::<speed_index::Result>();
    println!(
        "Fig 11 (speed index): SI < page load for every PT (e.g. tor {:.1}s vs {:.1}s)",
        si.speed_index.median(PtId::Vanilla),
        si.load_time.median(PtId::Vanilla),
    );
}
