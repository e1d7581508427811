//! Criterion benchmarks for whole measurement units: the warm pooled
//! pipeline (persistent [`UnitScratch`], indexed establish, in-place
//! link sharing) over the standard classes from
//! [`ptperf_bench::unitbench`], plus the scenario's site-workload memo
//! against a direct `Website::top` build.
//!
//! The headline the PR trajectory tracks is
//! `unit/browser_obfs4_16_pooled`: the class where page-load link
//! sharing dominates unit time.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ptperf::executor::UnitScratch;
use ptperf::scenario::Scenario;
use ptperf_bench::unitbench::{run_unit_pooled, standard_workloads, Fixture};
use ptperf_web::{SiteList, Website};

fn bench_units(c: &mut Criterion) {
    let mut g = c.benchmark_group("unit");
    for w in &standard_workloads() {
        let fx = Fixture::new(w);
        g.throughput(Throughput::Elements(w.work_items as u64));
        g.bench_function(format!("{}_pooled", w.name), |b| {
            let mut scratch = UnitScratch::new();
            b.iter(|| black_box(run_unit_pooled(w, &fx, &mut scratch)))
        });
    }
    g.finish();
}

fn bench_site_memo(c: &mut Criterion) {
    let mut g = c.benchmark_group("site_memo");
    const CORPUS: usize = 200;
    g.bench_function("rebuild_200", |b| {
        b.iter(|| black_box(Website::top(SiteList::Tranco, CORPUS)))
    });
    g.bench_function("cached_200", |b| {
        let scenario = Scenario::baseline(23);
        black_box(scenario.top_sites(SiteList::Tranco, CORPUS));
        b.iter(|| black_box(scenario.top_sites(SiteList::Tranco, CORPUS)))
    });
    g.finish();
}

criterion_group!(unit, bench_units, bench_site_memo);
criterion_main!(unit);
