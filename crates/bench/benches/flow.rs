//! Criterion benchmarks for the fluid scheduler and the max–min
//! allocator: optimized persistent implementation vs the retained
//! reference oracle, over the standard workload classes from
//! [`ptperf_bench::flowbench`].
//!
//! The headline number the PR trajectory tracks is
//! `fluid_scheduler/browser_64_optimized` vs
//! `fluid_scheduler/browser_64_reference` — the workload shape every
//! selenium and speed-index experiment submits.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use ptperf_bench::flowbench::standard_workloads;
use ptperf_sim::flow::reference;
use ptperf_sim::{fluid_schedule, maxmin_demo, maxmin_rates, FluidScheduler, SimRng};

fn bench_fluid_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_scheduler");
    for w in &standard_workloads() {
        g.throughput(Throughput::Elements(w.batch.len() as u64));
        // The production path: thread-local persistent scheduler, warm
        // after the first call.
        g.bench_function(format!("{}_optimized", w.name), |b| {
            b.iter(|| black_box(fluid_schedule(&w.net, &w.batch)))
        });
        g.bench_function(format!("{}_reference", w.name), |b| {
            b.iter(|| black_box(reference::fluid_schedule(&w.net, &w.batch)))
        });
    }
    // Explicit persistent-scheduler reuse (no thread-local indirection):
    // the upper bound on warm throughput.
    let workloads = standard_workloads();
    let browser = workloads.iter().find(|w| w.name == "browser_64").expect("class exists");
    g.bench_function("browser_64_warm_explicit", |b| {
        let mut sched = FluidScheduler::new();
        sched.run(&browser.net, &browser.batch);
        b.iter(|| black_box(sched.run(&browser.net, &browser.batch)))
    });
    g.finish();
}

fn bench_maxmin_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("maxmin_vs_reference");
    for (nodes, flows) in [(4usize, 8usize), (16, 64), (32, 256)] {
        let mut rng = SimRng::new(9);
        let inst = maxmin_demo::random_instance(&mut rng, nodes, flows);
        g.bench_function(format!("{nodes}n_{flows}f_optimized"), |b| {
            b.iter(|| black_box(maxmin_rates(&inst.net, &inst.flows)))
        });
        g.bench_function(format!("{nodes}n_{flows}f_reference"), |b| {
            b.iter(|| black_box(reference::maxmin_rates(&inst.net, &inst.flows)))
        });
    }
    g.finish();
}

criterion_group!(flow, bench_fluid_scheduler, bench_maxmin_vs_reference);
criterion_main!(flow);
