//! The executor's headline guarantee, proven end to end: a parallel
//! campaign run is **bit-for-bit identical** to the sequential run at
//! any worker count, across experiment families and
//! seeds — and a panicking shard surfaces as an error without poisoning
//! its siblings.

use ptperf::campaign::{self, Corpus, Family, RunScale};
use ptperf::executor::{self, Parallelism, Unit};
use ptperf::experiments::{file_download, ttfb, website_curl};
use ptperf::scenario::Scenario;
use ptperf_transports::PtId;

const SEEDS: [u64; 2] = [11, 97];

/// The parallelism settings every experiment must be invariant under.
fn worker_grid() -> Vec<Parallelism> {
    vec![
        Parallelism::sequential(),
        Parallelism::new(2),
        Parallelism::new(3),
        Parallelism::new(8),
    ]
}

/// Bit-exact comparison of float series (`==` would also accept
/// `-0.0 == 0.0`; the guarantee is stronger than numeric equality).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ in bits"
        );
    }
}

#[test]
fn website_curl_is_invariant_under_parallelism() {
    let cfg = website_curl::Config {
        sites_per_list: 12,
        repeats: 2,
    };
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let (reference, _) =
            website_curl::run_with(&scenario, &cfg, &Parallelism::sequential()).expect("no panics");
        for par in worker_grid() {
            let (result, reports) =
                website_curl::run_with(&scenario, &cfg, &par).expect("no panics");
            for pt in PtId::ALL_WITH_VANILLA {
                assert_bits_eq(
                    result.samples.samples(pt),
                    reference.samples.samples(pt),
                    &format!("seed {seed} {par:?} {pt}"),
                );
            }
            assert_eq!(result.render(), reference.render(), "seed {seed} {par:?}");
            assert!(reports.iter().enumerate().all(|(i, r)| r.index == i));
        }
    }
}

#[test]
fn ttfb_is_invariant_under_parallelism() {
    let cfg = ttfb::Config { sites_per_list: 15 };
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let (reference, _) =
            ttfb::run_with(&scenario, &cfg, &Parallelism::sequential()).expect("no panics");
        for par in worker_grid() {
            let (result, _) = ttfb::run_with(&scenario, &cfg, &par).expect("no panics");
            assert_eq!(result.ttfb.len(), reference.ttfb.len());
            for (pt, samples) in &reference.ttfb {
                assert_bits_eq(
                    &result.ttfb[pt],
                    samples,
                    &format!("seed {seed} {par:?} {pt}"),
                );
            }
            assert_eq!(result.render(), reference.render(), "seed {seed} {par:?}");
        }
    }
}

#[test]
fn file_download_is_invariant_under_parallelism() {
    let cfg = file_download::Config {
        attempts: 3,
        sizes: ptperf_web::FILE_SIZES,
    };
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let (reference, _) =
            file_download::run_with(&scenario, &cfg, &Parallelism::sequential()).expect("no panics");
        for par in worker_grid() {
            let (result, _) =
                file_download::run_with(&scenario, &cfg, &par).expect("no panics");
            for (pt, attempts) in &reference.attempts {
                let got = &result.attempts[pt];
                assert_eq!(got.len(), attempts.len());
                for (a, b) in got.iter().zip(attempts) {
                    assert_eq!(a.size, b.size);
                    assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{pt}");
                    assert_eq!(a.fraction.to_bits(), b.fraction.to_bits(), "{pt}");
                    assert_eq!(a.outcome, b.outcome);
                }
            }
            for pt in reference.paired.pts() {
                assert_bits_eq(
                    result.paired.samples(pt),
                    reference.paired.samples(pt),
                    &format!("seed {seed} {par:?} paired {pt}"),
                );
            }
            assert_eq!(result.render(), reference.render(), "seed {seed} {par:?}");
        }
    }
}

/// The quick-scale campaign: its twelve families in one driver pool.
fn quick_campaign(scenario: &Scenario, par: &Parallelism) -> Corpus {
    campaign::run(scenario, RunScale::Quick, &Family::CAMPAIGN, par).expect("no panics")
}

#[test]
fn whole_campaign_is_invariant_under_parallelism() {
    use ptperf::experiments::{
        fixed_circuit, fixed_guard, location, medium, overhead, reliability, snowflake_load,
        speed_index, website_selenium,
    };
    let scenario = Scenario::baseline(23);
    let sequential = quick_campaign(&scenario, &Parallelism::sequential());
    let parallel = quick_campaign(&scenario, &Parallelism::new(4));

    for pt in PtId::ALL_WITH_VANILLA {
        assert_bits_eq(
            parallel.result::<website_curl::Result>().samples.samples(pt),
            sequential.result::<website_curl::Result>().samples.samples(pt),
            &format!("campaign curl {pt}"),
        );
    }
    assert_eq!(
        parallel.result::<website_selenium::Result>().excluded,
        sequential.result::<website_selenium::Result>().excluded
    );
    assert_bits_eq(
        &parallel.result::<fixed_circuit::Result>().abs_diffs,
        &sequential.result::<fixed_circuit::Result>().abs_diffs,
        "campaign fixed_circuit",
    );
    assert_bits_eq(
        &parallel.result::<fixed_guard::Result>().tor,
        &sequential.result::<fixed_guard::Result>().tor,
        "campaign fixed_guard",
    );
    assert_bits_eq(
        &parallel.result::<snowflake_load::Result>().pre,
        &sequential.result::<snowflake_load::Result>().pre,
        "campaign snowflake pre",
    );
    assert_eq!(
        parallel.result::<location::Result>().render(),
        sequential.result::<location::Result>().render(),
        "campaign location"
    );
    assert_eq!(
        parallel.result::<reliability::Result>().render_stacked(),
        sequential.result::<reliability::Result>().render_stacked()
    );
    assert_eq!(parallel.result::<medium::Result>().render(), sequential.result::<medium::Result>().render());
    assert_eq!(parallel.result::<overhead::Result>().render(), sequential.result::<overhead::Result>().render());
    assert_eq!(
        parallel.result::<speed_index::Result>().render(),
        sequential.result::<speed_index::Result>().render()
    );
    assert_eq!(parallel.result::<ttfb::Result>().render(), sequential.result::<ttfb::Result>().render());
    assert_eq!(
        parallel.result::<file_download::Result>().render(),
        sequential.result::<file_download::Result>().render()
    );

    // The reports cover the same shard pool either way.
    let reports = |c: &Corpus| -> Vec<ptperf::executor::ShardReport> {
        c.families.iter().flat_map(|f| f.reports.clone()).collect()
    };
    assert_eq!(reports(&parallel).len(), reports(&sequential).len());
    assert_eq!(parallel.workers, 4);
    assert_eq!(sequential.workers, 1);
    let labels = |c: &Corpus| -> Vec<String> {
        reports(c).iter().map(|s| s.label.clone()).collect()
    };
    assert_eq!(labels(&parallel), labels(&sequential));
    let samples = |c: &Corpus| -> Vec<usize> { reports(c).iter().map(|s| s.samples).collect() };
    assert_eq!(samples(&parallel), samples(&sequential));
}

#[test]
fn parallel_campaign_is_faster_on_multicore() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping speedup check: only {cores} core(s)");
        return;
    }
    let scenario = Scenario::baseline(42);
    // Warm once so lazy statics (site corpus) don't bias the timings.
    let _ = quick_campaign(&scenario, &Parallelism::sequential());

    let t0 = std::time::Instant::now();
    let seq = quick_campaign(&scenario, &Parallelism::sequential());
    let sequential_wall = t0.elapsed();

    let t1 = std::time::Instant::now();
    let par = quick_campaign(&scenario, &Parallelism::new(4));
    let parallel_wall = t1.elapsed();

    assert_eq!(seq.campaign_stats().shards, par.campaign_stats().shards);
    // Generous bound (1.25×) to stay robust on loaded CI machines; the
    // typical speedup on 4 idle cores is ~3×.
    assert!(
        parallel_wall.as_secs_f64() < sequential_wall.as_secs_f64() / 1.25,
        "parallel {:.2}s not measurably faster than sequential {:.2}s",
        parallel_wall.as_secs_f64(),
        sequential_wall.as_secs_f64()
    );
}

#[test]
fn panicking_shard_is_isolated_and_reported() {
    let mut units: Vec<Unit<u32>> = (0..8)
        .map(|i| Unit::new(format!("ok/{i}"), move || (i, 1)))
        .collect();
    units.insert(
        4,
        Unit::new("boom", || -> (u32, usize) { panic!("injected failure") }),
    );
    let err = executor::run_units(&Parallelism::new(3), units).unwrap_err();
    assert_eq!(err.failures.len(), 1);
    assert_eq!(err.failures[0].index, 4);
    assert_eq!(err.failures[0].label, "boom");
    assert!(err.failures[0].message.contains("injected failure"));
    assert_eq!(err.completed, 8, "sibling shards must all complete");
}

#[test]
fn panicking_experiment_shard_surfaces_as_exec_error() {
    // An experiment-level pool with one poisoned unit: the error names
    // the shard, and reruns without it succeed — the campaign is not
    // torn down by a single family's failure.
    let scenario = Scenario::baseline(5);
    let cfg = website_curl::Config {
        sites_per_list: 5,
        repeats: 1,
    };
    let mut units = website_curl::units(&scenario, &cfg);
    let n = units.len();
    units.push(Unit::new("poisoned", || panic!("bad shard")));
    let err = executor::run_units(&Parallelism::new(4), units).unwrap_err();
    assert_eq!(err.completed, n);
    assert_eq!(err.failures[0].label, "poisoned");

    let ok = executor::run_units(
        &Parallelism::new(4),
        website_curl::units(&scenario, &cfg),
    )
    .expect("clean pool succeeds");
    assert_eq!(ok.values.len(), n);
}
