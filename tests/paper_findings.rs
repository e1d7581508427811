//! Integration tests asserting the paper's headline findings hold across
//! the full stack — these are the "did the reproduction reproduce?"
//! checks, run at a slightly larger scale than the per-crate unit tests.
//!
//! Every finding is gated at each seed in [`SEEDS`], not just one, and
//! every assertion message names the seed it failed at.

use ptperf::executor::Parallelism;
use ptperf::experiments::{
    file_download, fixed_circuit, location, reliability, snowflake_load, ttest_tables, ttfb,
    website_curl, website_selenium,
};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf_sim::Location;
use ptperf_transports::PtId;

/// The seeds every finding must hold at: IMC'23 opening day first, then
/// a spread of unrelated seeds.
const SEEDS: [u64; 5] = [20231024, 1, 7, 1234, 99991];

/// §4.2 / Fig. 2a: the curl access-time ordering — good PTs cluster near
/// vanilla Tor; dnstt < meek-ish; camoufler and marionette are the slow
/// extremes; marionette is worst overall.
#[test]
fn fig2a_ordering_matches_paper() {
    let cfg = website_curl::Config {
        sites_per_list: 60,
        repeats: 3,
    };
    for seed in SEEDS {
        let r = website_curl::run_with(&Scenario::baseline(seed), &cfg, &Parallelism::sequential())
            .expect("no panics")
            .0;
        let med = |pt| r.samples.median(pt);

        // The fast four of the paper (obfs4 2.4, webtunnel 3.2, cloak
        // 2.8, conjure 2.5) stay within 2× of vanilla Tor (2.3).
        for pt in [PtId::Obfs4, PtId::WebTunnel, PtId::Cloak, PtId::Conjure] {
            assert!(
                med(pt) < med(PtId::Vanilla) * 2.0,
                "seed {seed}: {pt}: {:.2} vs tor {:.2}",
                med(pt),
                med(PtId::Vanilla)
            );
        }
        // The slow tail, in the paper's order of badness.
        for (slow, fast, factor) in [
            (PtId::Dnstt, PtId::Obfs4, 1.5),
            (PtId::Meek, PtId::Obfs4, 1.5),
            (PtId::Camoufler, PtId::Dnstt, 1.5),
            (PtId::Marionette, PtId::Camoufler, 1.0),
        ] {
            assert!(
                med(slow) > med(fast) * factor,
                "seed {seed}: {slow} {:.2} not > {factor} × {fast} {:.2}",
                med(slow),
                med(fast)
            );
        }
        // Marionette is the worst PT, full stop.
        for pt in PtId::ALL_PTS {
            if pt != PtId::Marionette {
                assert!(
                    med(PtId::Marionette) > med(pt),
                    "seed {seed}: {pt} slower than marionette?"
                );
            }
        }
    }
}

/// §4.2.1 / Fig. 2b: under selenium, the set-1 PTs with Tor-operated
/// bridges (obfs4, webtunnel, conjure) beat vanilla Tor on the mean.
#[test]
fn fig2b_set1_pts_beat_vanilla() {
    let cfg = website_selenium::Config {
        sites_per_list: 50,
        repeats: 1,
    };
    for seed in SEEDS {
        let r =
            website_selenium::run_with(&Scenario::baseline(seed), &cfg, &Parallelism::sequential())
                .expect("no panics")
                .0;
        let tor = r.samples.mean(PtId::Vanilla);
        for pt in [PtId::Obfs4, PtId::WebTunnel, PtId::Conjure] {
            assert!(
                r.samples.mean(pt) < tor,
                "seed {seed}: {pt} mean {:.2} vs tor {:.2}",
                r.samples.mean(pt),
                tor
            );
        }
        // And camoufler cannot be measured by a browser at all.
        assert!(
            r.excluded.contains(&PtId::Camoufler),
            "seed {seed}: camoufler measured by a browser"
        );
    }
}

/// §4.2.1 / Fig. 3: fixing the entire circuit erases the PT-vs-Tor
/// difference — the decisive null result.
#[test]
fn fig3_fixed_circuit_null_result() {
    let cfg = fixed_circuit::Config { iterations: 120 };
    for seed in SEEDS {
        let r =
            fixed_circuit::run_with(&Scenario::baseline(seed), &cfg, &Parallelism::sequential())
                .expect("no panics")
                .0;
        let tor_mean = ptperf_stats::mean(r.samples(PtId::Vanilla));
        for pt in [PtId::Obfs4, PtId::WebTunnel] {
            let t = r.ttest(pt, PtId::Vanilla);
            assert!(
                t.mean_diff.abs() < tor_mean * 0.15,
                "seed {seed}: {pt}: mean diff {:.2} vs tor mean {tor_mean:.2}",
                t.mean_diff
            );
        }
        assert!(
            r.diffs_below(5.0) > 0.8,
            "seed {seed}: only {:.2} of |diffs| below 5 s",
            r.diffs_below(5.0)
        );
    }
}

/// §4.3/§4.6 / Figs. 5+8: meek, dnstt, snowflake cannot complete bulk
/// downloads (>75% incomplete at paper sizes) while obfs4, cloak,
/// psiphon, webtunnel can — and the reliable set downloads faster than
/// camoufler.
#[test]
fn fig5_fig8_bulk_reliability_split() {
    for seed in SEEDS {
        let sc = Scenario::baseline(seed);
        let fd = file_download::run_with(
            &sc,
            &file_download::Config {
                attempts: 6,
                sizes: ptperf_web::FILE_SIZES,
            },
            &Parallelism::sequential(),
        )
        .expect("no panics")
        .0;
        let excluded = fd.excluded();
        for pt in [PtId::Meek, PtId::Dnstt, PtId::Snowflake] {
            assert!(
                excluded.contains(&pt),
                "seed {seed}: {pt} should fail bulk downloads"
            );
        }
        for pt in [PtId::Obfs4, PtId::Cloak, PtId::Psiphon, PtId::WebTunnel] {
            assert!(
                fd.qualifies(pt),
                "seed {seed}: {pt} should complete bulk downloads"
            );
        }

        let rel = reliability::run_with(
            &sc,
            &reliability::Config {
                attempts: 10,
                sizes: ptperf_web::FILE_SIZES,
            },
            &Parallelism::sequential(),
        )
        .expect("no panics")
        .0;
        for pt in reliability::WORST {
            assert!(
                rel.incomplete_fraction(pt) > 0.75,
                "seed {seed}: {pt} incomplete {:.2}",
                rel.incomplete_fraction(pt)
            );
        }
    }
}

/// §4.6 / Fig. 8 through the fault layer: with the paper fault profile
/// switched on (connect refusals, aborts, stalls, churn, surge
/// degradation — all from the deterministic plan, fixed seed), the
/// reliability split still lands where the paper put it: the worst trio
/// ends >80% of attempts incomplete, meek's attempts are dominated by
/// partials, camoufler fails outright around 10% of the time — and the
/// whole picture replays bit-for-bit, seed in, fractions out.
#[test]
fn fig8_fault_plan_reproduces_reliability_fractions() {
    let cfg = reliability::Config {
        attempts: 10,
        sizes: ptperf_web::FILE_SIZES,
    };
    for seed in SEEDS {
        let sc = Scenario::baseline(seed).with_faults(FaultConfig::Plan(FaultProfile::paper()));
        let rel = reliability::run_with(&sc, &cfg, &Parallelism::sequential())
            .expect("no panics")
            .0;

        // Fig. 8a, worst trio: >80% of attempts incomplete even with
        // retry/backoff trying to save them (the surge epoch's
        // degradation pushes retried transfers past the timeout anyway).
        for pt in reliability::WORST {
            assert!(
                rel.incomplete_fraction(pt) > 0.8,
                "seed {seed}: {pt} incomplete {:.2} under faults",
                rel.incomplete_fraction(pt)
            );
        }
        // Meek's signature: attempts die mid-transfer, not at connect —
        // the bar is mostly partial.
        let (_, meek_partial, _) = rel.counts[&PtId::Meek].fractions();
        assert!(
            meek_partial > 0.8,
            "seed {seed}: meek partial {meek_partial:.2}"
        );
        // Camoufler's signature: ~10% of attempts fail outright
        // (refusals and churn exhausting the retry budget), the rest
        // mostly complete.
        let (_, _, camoufler_failed) = rel.counts[&PtId::Camoufler].fractions();
        assert!(
            (0.03..=0.3).contains(&camoufler_failed),
            "seed {seed}: camoufler failed {camoufler_failed:.2}, paper says ~10%"
        );
        // The reliable set survives the fault lane.
        for pt in [PtId::Obfs4, PtId::Cloak, PtId::WebTunnel] {
            let (complete, _, _) = rel.counts[&pt].fractions();
            assert!(
                complete > 0.6,
                "seed {seed}: {pt} complete {complete:.2} under faults"
            );
        }

        // Golden replay: the same seed reproduces the exact same outcome
        // counts and per-attempt fractions.
        let again = reliability::run_with(&sc, &cfg, &Parallelism::sequential())
            .expect("no panics")
            .0;
        assert_eq!(
            rel.counts, again.counts,
            "seed {seed}: fault-laden fig8 counts not replayable"
        );
        assert_eq!(
            rel.fractions, again.fractions,
            "seed {seed}: fault-laden fig8 fractions not replayable"
        );
    }
}

/// §4.4 / Fig. 6: TTFB below 5 s for >80% of sites for all PTs except
/// meek, marionette, camoufler.
#[test]
fn fig6_ttfb_split() {
    for seed in SEEDS {
        let r = ttfb::run_with(
            &Scenario::baseline(seed),
            &ttfb::Config { sites_per_list: 60 },
            &Parallelism::sequential(),
        )
        .expect("no panics")
        .0;
        for pt in PtId::ALL_WITH_VANILLA {
            let frac = r.fraction_below(pt, 5.0);
            match pt {
                PtId::Meek | PtId::Marionette | PtId::Camoufler => {
                    assert!(
                        frac < 0.8,
                        "seed {seed}: {pt}: {frac:.2} should be a slow starter"
                    )
                }
                _ => assert!(frac > 0.8, "seed {seed}: {pt}: {frac:.2} should start fast"),
            }
        }
    }
}

/// §4.5 / Fig. 7: PT ordering is invariant across client locations, and
/// Bangalore is the slowest vantage point.
#[test]
fn fig7_location_invariance() {
    let cfg = location::Config {
        sites_per_list: 25,
        repeats: 1,
        all_pts: false,
    };
    for seed in SEEDS {
        let r = location::run_with(&Scenario::baseline(seed), &cfg, &Parallelism::sequential())
            .expect("no panics")
            .0;
        for &client in &Location::CLIENTS {
            assert!(
                r.median_by_client(client, PtId::Obfs4) < r.median_by_client(client, PtId::Meek),
                "seed {seed}: {client}: ordering flipped"
            );
        }
        for &pt in &location::SHOWCASE {
            let blr = r.median_by_client(Location::Bangalore, pt);
            for other in [Location::London, Location::Toronto] {
                assert!(
                    blr > r.median_by_client(other, pt),
                    "seed {seed}: {pt}: Bangalore not slower than {other}"
                );
            }
        }
    }
}

/// §5.3 / Fig. 10: the surge significantly degrades snowflake.
#[test]
fn fig10_surge_significance() {
    let cfg = snowflake_load::Config {
        sites_per_list: 80,
        repeats: 2,
        monitor_weeks: 3,
        monitor_sites: 50,
    };
    for seed in SEEDS {
        let r =
            snowflake_load::run_with(&Scenario::baseline(seed), &cfg, &Parallelism::sequential())
                .expect("no panics")
                .0;
        let t = r.ttest();
        assert!(
            t.significant(),
            "seed {seed}: pre/post not significant: p = {}",
            t.p
        );
        assert!(t.mean_diff < 0.0, "seed {seed}: post should be slower");
        let pre_med = ptperf_stats::median(&r.pre_monitor);
        for (i, week) in r.weekly.iter().enumerate() {
            assert!(
                ptperf_stats::median(week) > pre_med,
                "seed {seed}: monitoring week {i} dipped below pre-surge"
            );
        }
    }
}

/// Table 10: the category-level conclusion — fully-encrypted and
/// proxy-layer PTs beat tunneling- and mimicry-based ones.
#[test]
fn table10_category_ordering() {
    let cfg = website_curl::Config {
        sites_per_list: 50,
        repeats: 2,
    };
    for seed in SEEDS {
        let r = website_curl::run_with(&Scenario::baseline(seed), &cfg, &Parallelism::sequential())
            .expect("no panics")
            .0;
        let rows = ttest_tables::category_pairwise(&r.samples);
        let diff = |label: &str| {
            rows.iter()
                .find(|row| row.pair == label)
                .unwrap_or_else(|| panic!("seed {seed}: missing {label}"))
                .test
                .mean_diff
        };
        for (pair, slower_first) in [
            ("tunneling-fully encrypted", true),
            ("mimicry-fully encrypted", true),
            ("proxy layer-tunneling", false),
            ("proxy layer-mimicry", false),
        ] {
            let d = diff(pair);
            assert!(
                if slower_first { d > 0.0 } else { d < 0.0 },
                "seed {seed}: {pair} mean diff {d:.3} has the wrong sign"
            );
        }
    }
}
