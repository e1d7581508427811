//! `repro --bench-flow`: the fluid-scheduler benchmark harness behind
//! `BENCH_flow.json`.
//!
//! Criterion answers "how fast is one call"; this module answers the
//! question the perf trajectory needs tracked in version control: for
//! each workload class the simulator actually runs (browser-style
//! single-bottleneck fan-outs, multi-bottleneck meshes, uniformly
//! capped pools), what are the optimized scheduler's p50/p95 wall
//! times, how many steps per second does it sustain, how much faster is
//! it than the retained reference oracle, and does its scratch still
//! allocate once warm?
//!
//! Determinism note: workloads are generated from fixed seeds, so the
//! *work* is identical run to run; only the wall-clock numbers move.
//! The harness fails hard (panics) on NaN or non-finite measurements —
//! the verify gate runs it in quick mode — but never on thresholds:
//! speed regressions are for review to catch, not CI flakes.

use ptperf_obs::{json, MemoryRecorder};
use ptperf_sim::flow::{maxmin_demo, reference};
use ptperf_sim::{FairNetwork, FlowBatch, FluidScheduler, SimRng};

use crate::emit;

/// How many timed runs per workload class (override with the
/// `PTPERF_FLOWBENCH_RUNS` environment variable; the verify gate uses a
/// small value, the default suits interactive use).
pub const DEFAULT_RUNS: usize = 400;

/// One benchmark workload: a network plus a flow set, named.
pub struct Workload {
    /// Class name as it appears in `BENCH_flow.json`.
    pub name: &'static str,
    /// The shared node set.
    pub net: FairNetwork,
    /// The flow batch submitted to the scheduler.
    pub batch: FlowBatch,
}

/// The measured result for one workload class.
#[derive(Debug)]
pub struct ClassResult {
    /// Workload class name.
    pub name: &'static str,
    /// Number of flows in the workload.
    pub flows: usize,
    /// Scheduler steps (constant-rate segments) per run.
    pub steps_per_run: u64,
    /// Fast-path allocations per run (0 for multi-bottleneck classes).
    pub fast_path_per_run: u64,
    /// Max-min recomputations per run (one per allocation event).
    pub recomputations_per_run: u64,
    /// Optimized scheduler p50 wall time, microseconds.
    pub opt_p50_us: f64,
    /// Optimized scheduler p95 wall time, microseconds.
    pub opt_p95_us: f64,
    /// Reference oracle p50 wall time, microseconds.
    pub ref_p50_us: f64,
    /// Reference oracle p95 wall time, microseconds.
    pub ref_p95_us: f64,
    /// Scheduler steps per second at the optimized p50.
    pub steps_per_sec: f64,
    /// `ref_p50 / opt_p50` — the headline speedup.
    pub speedup_p50: f64,
    /// Scratch-buffer growths observed *during the timed runs* divided
    /// by total timed steps: the allocations-per-step proxy. Should be
    /// 0 once warm; any other value means the hot path still allocates.
    pub allocs_per_step: f64,
}

/// Whether a class's structure admits the analytic fast path: browser
/// classes are single-bottleneck, capped pools are uniform-cap. Mesh
/// and churn classes hit it only on single-node allocations — their
/// smoke gate is that some allocations run the generic fill instead
/// (see `flow_counters_match_class_shape`).
pub fn fast_path_eligible(name: &str) -> bool {
    name.starts_with("browser_") || name.starts_with("capped_")
}

/// The standard workload classes, smallest first. Fixed seeds: the same
/// byte-for-byte workloads every run, so numbers are comparable across
/// commits.
pub fn standard_workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    {
        // The shape `ptperf-web` submits for every page load: one
        // tunnel node, staggered waves of six sub-resources.
        let mut rng = SimRng::new(11);
        let inst = maxmin_demo::browser_style_instance(&mut rng, 64, 2.0e6);
        out.push(Workload { name: "browser_64", net: inst.net, batch: inst.batch });
    }
    {
        let mut rng = SimRng::new(12);
        let inst = maxmin_demo::browser_style_instance(&mut rng, 256, 2.0e6);
        out.push(Workload { name: "browser_256", net: inst.net, batch: inst.batch });
    }
    {
        // Adversarial mesh: 16 nodes, multi-hop paths, caps, zero-byte
        // flows, staggered arrivals — the generic-path worst case.
        let mut rng = SimRng::new(13);
        let inst = maxmin_demo::random_fluid_instance(&mut rng, 16, 64);
        out.push(Workload { name: "mesh_16n_64f", net: inst.net, batch: inst.batch });
    }
    {
        // Bigger adversarial mesh: 4x the flows and 2x the nodes of
        // mesh_16n_64f — the scale where re-solving the whole network
        // per event dominates.
        let mut rng = SimRng::new(15);
        let inst = maxmin_demo::random_fluid_instance(&mut rng, 32, 256);
        out.push(Workload { name: "mesh_32n_256f", net: inst.net, batch: inst.batch });
    }
    {
        // Interleaved arrival/departure churn: staggered slots keep
        // the active set mutating one flow at a time, so nearly every
        // step re-solves a multi-bottleneck active set.
        let mut rng = SimRng::new(16);
        let inst = maxmin_demo::churn_fluid_instance(&mut rng, 24, 192);
        out.push(Workload { name: "churn_mesh", net: inst.net, batch: inst.batch });
    }
    {
        // Uniformly capped pool on one node: the uniform-cap analytic
        // fast path.
        let mut rng = SimRng::new(14);
        let mut net = FairNetwork::new();
        let node = net.add_node(50.0e6);
        let mut batch = FlowBatch::new();
        for _ in 0..64 {
            batch.push(
                ptperf_sim::SimTime::ZERO,
                rng.range_f64(1_000.0, 2.0e6),
                &[node],
                Some(0.4e6),
                ptperf_sim::SimDuration::ZERO,
            );
        }
        out.push(Workload { name: "capped_uniform_64", net, batch });
    }
    out
}

/// Reads the run count from `PTPERF_FLOWBENCH_RUNS`, defaulting to
/// [`DEFAULT_RUNS`]; values below 4 are clamped up so the percentiles
/// stay meaningful.
pub fn runs_from_env() -> usize {
    emit::runs_from_env("PTPERF_FLOWBENCH_RUNS", DEFAULT_RUNS)
}

fn assert_finite(name: &str, what: &str, x: f64) {
    emit::assert_finite(&format!("flow bench {name}"), what, x);
}

/// Benchmarks one workload class: `runs` timed executions of the warm
/// persistent scheduler and of the reference oracle, interleaved with
/// nothing (both see the same machine state on average because classes
/// run back to back).
pub fn bench_class(w: &Workload, runs: usize) -> ClassResult {
    // Per-run observability: step count, fast-path hits — pure
    // functions of the workload, measured once.
    let mut rec = MemoryRecorder::new();
    let mut sched = FluidScheduler::new();
    let baseline = sched.run_recorded(&w.net, &w.batch, &mut rec);
    let data = rec.into_data();
    let steps_per_run = data.counter("fluid/steps").unwrap_or(0);
    let fast_path_per_run = data.counter("maxmin/fast_path").unwrap_or(0);
    let recomputations_per_run = data.counter("maxmin/recomputations").unwrap_or(0);

    // Warmup: let the scratch reach its high-water marks.
    for _ in 0..3 {
        let again = sched.run(&w.net, &w.batch);
        assert_eq!(again, baseline, "flow bench {}: warm run diverged", w.name);
    }

    let grows_before = sched.scratch_grows();
    let opt_us = emit::timed_runs(runs, || sched.run(&w.net, &w.batch));
    let grows_during = sched.scratch_grows() - grows_before;

    let ref_us = emit::timed_runs(runs, || reference::fluid_schedule(&w.net, &w.batch));

    let (opt_p50, opt_p95) = emit::p50_p95(&opt_us);
    let (ref_p50, ref_p95) = emit::p50_p95(&ref_us);
    let steps_per_sec = emit::per_sec(steps_per_run as f64, opt_p50);
    let total_steps = steps_per_run * runs as u64;
    let allocs_per_step = if total_steps > 0 {
        grows_during as f64 / total_steps as f64
    } else {
        0.0
    };

    for (what, x) in [
        ("opt p50", opt_p50),
        ("opt p95", opt_p95),
        ("ref p50", ref_p50),
        ("ref p95", ref_p95),
        ("allocs/step", allocs_per_step),
    ] {
        assert_finite(w.name, what, x);
    }

    ClassResult {
        name: w.name,
        flows: w.batch.len(),
        steps_per_run,
        fast_path_per_run,
        recomputations_per_run,
        opt_p50_us: opt_p50,
        opt_p95_us: opt_p95,
        ref_p50_us: ref_p50,
        ref_p95_us: ref_p95,
        steps_per_sec,
        speedup_p50: emit::speedup(ref_p50, opt_p50),
        allocs_per_step,
    }
}

/// Runs every standard workload class and renders `BENCH_flow.json`.
pub fn run_flow_bench(runs: usize) -> (Vec<ClassResult>, String) {
    let results: Vec<ClassResult> = standard_workloads()
        .iter()
        .map(|w| bench_class(w, runs))
        .collect();
    let doc = render_json(&results, runs);
    (results, doc)
}

/// Renders the results as the `BENCH_flow.json` document.
pub fn render_json(results: &[ClassResult], runs: usize) -> String {
    let classes: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": {}, \"flows\": {}, \"steps_per_run\": {}, \
                 \"fast_path_per_run\": {}, \"recomputations_per_run\": {}, \
                 \"optimized\": {{\"p50_us\": {}, \"p95_us\": {}}}, \
                 \"reference\": {{\"p50_us\": {}, \"p95_us\": {}}}, \"steps_per_sec\": {}, \
                 \"speedup_p50\": {}, \"allocs_per_step\": {}}}",
                json::string(r.name),
                r.flows,
                r.steps_per_run,
                r.fast_path_per_run,
                r.recomputations_per_run,
                json::number(r.opt_p50_us),
                json::number(r.opt_p95_us),
                json::number(r.ref_p50_us),
                json::number(r.ref_p95_us),
                json::number(r.steps_per_sec),
                json::number(r.speedup_p50),
                json::number(r.allocs_per_step),
            )
        })
        .collect();
    emit::json_shell(
        "ptperf-bench-flow/v1",
        runs,
        &[emit::json_array_section("classes", &classes)],
    )
}

/// Renders a human-readable summary table for stdout.
pub fn render_table(results: &[ClassResult], runs: usize) -> String {
    let mut table = ptperf_stats::Table::new([
        "class",
        "flows",
        "steps",
        "fast",
        "opt p50 (µs)",
        "opt p95 (µs)",
        "ref p50 (µs)",
        "speedup",
        "steps/s",
        "allocs/step",
    ]);
    for r in results {
        table.row([
            r.name.to_string(),
            r.flows.to_string(),
            r.steps_per_run.to_string(),
            r.fast_path_per_run.to_string(),
            format!("{:.1}", r.opt_p50_us),
            format!("{:.1}", r.opt_p95_us),
            format!("{:.1}", r.ref_p50_us),
            format!("{:.2}x", r.speedup_p50),
            format!("{:.0}", r.steps_per_sec),
            format!("{:.4}", r.allocs_per_step),
        ]);
    }
    format!("Fluid-scheduler benchmark — {runs} run(s) per class\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workloads_are_deterministic() {
        let a = standard_workloads();
        let b = standard_workloads();
        assert_eq!(a.len(), b.len());
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.batch.len(), wb.batch.len());
            for (fa, fb) in wa.batch.flows().iter().zip(wb.batch.flows()) {
                assert_eq!(fa.bytes.to_bits(), fb.bytes.to_bits());
                assert_eq!(fa.start, fb.start);
            }
        }
    }

    #[test]
    fn bench_runs_and_emits_valid_shape() {
        let w = &standard_workloads()[0];
        let r = bench_class(w, 4);
        assert_eq!(r.name, "browser_64");
        assert_eq!(r.flows, 64);
        assert!(r.steps_per_run > 0);
        // browser_64 is fast-path-eligible (pure single-bottleneck):
        // every step that reallocated took the analytic path. Classes
        // that can rarely hit it are gated on the generic fill in
        // `flow_counters_match_class_shape` instead.
        assert!(fast_path_eligible(r.name));
        assert!(r.fast_path_per_run > 0);
        assert!(r.opt_p50_us >= 0.0 && r.opt_p95_us >= r.opt_p50_us * 0.999);
        let json = render_json(&[r], 4);
        assert!(json.contains("\"schema\": \"ptperf-bench-flow/v1\""));
        assert!(json.contains("\"browser_64\""));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn capped_uniform_class_hits_the_uniform_cap_fast_path() {
        let workloads = standard_workloads();
        let w = workloads.iter().find(|w| w.name == "capped_uniform_64").unwrap();
        let r = bench_class(w, 4);
        assert!(r.fast_path_per_run > 0, "uniform caps must take the fast path");
    }

    #[test]
    fn table_renders_every_class_and_counters_match_shape() {
        let (results, _) = run_flow_bench(4);
        let table = render_table(&results, 4);
        for name in [
            "browser_64",
            "browser_256",
            "mesh_16n_64f",
            "mesh_32n_256f",
            "churn_mesh",
            "capped_uniform_64",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
        flow_counters_match_class_shape(&results);
    }

    /// The per-class counter smoke gate: fast-path-eligible classes
    /// must actually take the analytic path, and multi-bottleneck
    /// mesh/churn classes must run the generic progressive fill on at
    /// least one allocation (the fast path cannot cover them).
    fn flow_counters_match_class_shape(results: &[ClassResult]) {
        for r in results {
            if fast_path_eligible(r.name) {
                assert!(
                    r.fast_path_per_run > 0,
                    "{}: eligible class never took the fast path",
                    r.name
                );
            } else {
                assert!(
                    r.fast_path_per_run < r.recomputations_per_run,
                    "{}: {} fast-path hits out of {} recomputations — \
                     mesh/churn class never ran the generic fill",
                    r.name,
                    r.fast_path_per_run,
                    r.recomputations_per_run
                );
            }
        }
    }
}
