//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro                      # all targets, quick scale
//! repro fig2a fig5 table10   # selected targets
//! repro --paper fig2a        # paper-scale run (slow)
//! repro --seed 1234 fig6     # alternate scenario seed
//! repro --workers 8 fig7     # parallel run (same output, any count)
//! repro --workers auto fig7  # one worker per hardware thread
//! repro --trace t.jsonl fig6 # deterministic sim-time trace (JSONL)
//! repro --trace-chrome c.json fig6 # span-tree trace for chrome://tracing / Perfetto
//! repro --hist h.json fig6   # per-(PT, phase) latency histograms (JSON)
//! repro --metrics m.json fig6 # wall-clock metrics registry (JSON)
//! repro --profile fig6       # per-family profile table
//! repro --check-bench DIR    # gate fresh BENCH_*.json in DIR against committed baselines
//! repro --json-check FILE    # validate a JSON document (exit status only)
//! repro --bench-flow         # link-sharing benchmark → BENCH_flow.json
//! repro --bench-establish    # establishment benchmark → BENCH_establish.json
//! repro --bench-unit         # measurement-unit benchmark → BENCH_unit.json
//! repro --quiet / -v         # errors only / debug diagnostics
//! repro --list               # list targets
//! ```

use ptperf::executor::{Parallelism, Record};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf_bench::{available_targets, obs_export, run_targets, RunScale};
use ptperf_obs::{obs_error, obs_info, set_level, Level};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = RunScale::Quick;
    let mut seed = 42u64;
    let mut csv_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_chrome_path: Option<String> = None;
    let mut hist_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut profile = false;
    let mut bench_flow = false;
    let mut bench_establish = false;
    let mut bench_unit = false;
    let mut bench_out: Option<String> = None;
    let mut faults = false;
    let mut par = Parallelism::sequential();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for t in available_targets() {
            println!("{t}");
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--json-check") {
        if pos + 1 >= args.len() {
            obs_error!("--json-check requires a path");
            std::process::exit(2);
        }
        let path = &args[pos + 1];
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                obs_error!("--json-check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = ptperf_obs::json::parse(&text) {
            obs_error!("--json-check: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--check-bench") {
        if pos + 1 >= args.len() {
            obs_error!("--check-bench requires a directory of fresh BENCH_*.json files");
            std::process::exit(2);
        }
        let fresh_dir = std::path::PathBuf::from(&args[pos + 1]);
        let baseline_dir = std::path::PathBuf::from(".");
        let cfg = ptperf_bench::regress::RegressConfig::from_env();
        let (report, ok) = ptperf_bench::regress::check_dirs(&baseline_dir, &fresh_dir, &cfg);
        print!("{report}");
        if !ok {
            obs_error!("bench regression gate failed (tolerance {}x)", cfg.tolerance);
            std::process::exit(1);
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--quiet") {
        set_level(Level::Error);
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "-v" || a == "--verbose") {
        set_level(Level::Debug);
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--paper") {
        scale = RunScale::Paper;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        profile = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        faults = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench-flow") {
        bench_flow = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench-establish") {
        bench_establish = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench-unit") {
        bench_unit = true;
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench-out") {
        if pos + 1 >= args.len() {
            obs_error!("--bench-out requires a path");
            std::process::exit(2);
        }
        bench_out = Some(args[pos + 1].clone());
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        if pos + 1 >= args.len() {
            obs_error!("--seed requires a value");
            std::process::exit(2);
        }
        seed = match args[pos + 1].parse() {
            Ok(s) => s,
            Err(_) => {
                obs_error!("--seed requires an integer, got '{}'", args[pos + 1]);
                std::process::exit(2);
            }
        };
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--workers") {
        if pos + 1 >= args.len() {
            obs_error!("--workers requires a count or 'auto'");
            std::process::exit(2);
        }
        par = if args[pos + 1] == "auto" {
            Parallelism::auto()
        } else {
            match args[pos + 1].parse::<usize>() {
                Ok(n) if n >= 1 => Parallelism::new(n),
                _ => {
                    obs_error!(
                        "--workers requires a positive integer or 'auto', got '{}'",
                        args[pos + 1]
                    );
                    std::process::exit(2);
                }
            }
        };
        args.drain(pos..=pos + 1);
    }
    for (flag, slot) in [
        ("--csv", &mut csv_dir),
        ("--trace", &mut trace_path),
        ("--trace-chrome", &mut trace_chrome_path),
        ("--hist", &mut hist_path),
        ("--metrics", &mut metrics_path),
    ] {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            if pos + 1 >= args.len() {
                obs_error!("{flag} requires a path");
                std::process::exit(2);
            }
            *slot = Some(args[pos + 1].clone());
            args.drain(pos..=pos + 1);
        }
    }
    if trace_path.is_some()
        || trace_chrome_path.is_some()
        || hist_path.is_some()
        || metrics_path.is_some()
        || profile
    {
        par = par.with_recording(Record::Trace);
    }

    if bench_flow {
        let runs = ptperf_bench::flowbench::runs_from_env();
        obs_info!("flow bench: {runs} run(s) per class");
        let (results, doc) = ptperf_bench::flowbench::run_flow_bench(runs);
        println!("{}", ptperf_bench::flowbench::render_table(&results, runs));
        let out = bench_out.as_deref().unwrap_or("BENCH_flow.json");
        std::fs::write(out, doc).expect("write flow bench json");
        obs_info!("wrote flow benchmark to {out}");
        return;
    }
    if bench_establish {
        let runs = ptperf_bench::establishbench::runs_from_env();
        obs_info!("establish bench: {runs} run(s) per class");
        let (results, dep, doc) = ptperf_bench::establishbench::run_establish_bench(runs);
        println!(
            "{}",
            ptperf_bench::establishbench::render_table(&results, &dep, runs)
        );
        let out = bench_out.as_deref().unwrap_or("BENCH_establish.json");
        std::fs::write(out, doc).expect("write establish bench json");
        obs_info!("wrote establish benchmark to {out}");
        return;
    }
    if bench_unit {
        let runs = ptperf_bench::unitbench::runs_from_env();
        obs_info!("unit bench: {runs} run(s) per class");
        let (results, sites, doc) = ptperf_bench::unitbench::run_unit_bench(runs);
        println!(
            "{}",
            ptperf_bench::unitbench::render_table(&results, &sites, runs)
        );
        let out = bench_out.as_deref().unwrap_or("BENCH_unit.json");
        std::fs::write(out, doc).expect("write unit bench json");
        obs_info!("wrote unit benchmark to {out}");
        return;
    }

    let targets: Vec<String> = if args.is_empty() {
        available_targets().iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for t in &targets {
        if !available_targets().contains(&t.as_str()) {
            obs_error!("unknown target '{t}'; run `repro --list`");
            std::process::exit(2);
        }
    }

    let mut scenario = Scenario::baseline(seed);
    if faults {
        scenario = scenario.with_faults(FaultConfig::Plan(FaultProfile::paper()));
    }
    println!(
        "# PTPerf reproduction — scale: {:?}, seed: {seed}, workers: {}, scenario: client {} / servers {}, faults: {}\n",
        scale,
        par.workers,
        scenario.client,
        scenario.server_region,
        if faults { "paper plan" } else { "off" }
    );
    let run_started = std::time::Instant::now();
    let names: Vec<&str> = targets.iter().map(String::as_str).collect();
    let corpus = run_targets(&names, &scenario, scale, &par, csv_dir.is_some());
    for run in &corpus.targets {
        println!("==================== {} ====================", run.name);
        println!("{}", run.text);
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (stem, doc) in &corpus.csv {
            let path = format!("{dir}/{stem}.csv");
            std::fs::write(&path, doc).expect("write csv");
            obs_info!("wrote {path}");
        }
    }
    let elapsed = run_started.elapsed();
    obs_info!("{} target(s) done in {:.1}s", names.len(), elapsed.as_secs_f64());
    let runs = corpus.targets;

    if let Some(path) = &trace_path {
        std::fs::write(path, obs_export::trace_jsonl(&runs)).expect("write trace");
        obs_info!("wrote sim-time trace to {path}");
    }
    if let Some(path) = &trace_chrome_path {
        std::fs::write(path, obs_export::trace_chrome(&runs)).expect("write chrome trace");
        obs_info!("wrote Chrome trace-event export to {path}");
    }
    if let Some(path) = &hist_path {
        std::fs::write(path, obs_export::hist_json(&runs)).expect("write hist report");
        obs_info!("wrote latency-histogram report to {path}");
    }
    if let Some(path) = &metrics_path {
        let registry = obs_export::build_metrics(&runs, par.workers, elapsed);
        std::fs::write(path, registry.to_json()).expect("write metrics");
        obs_info!("wrote wall-clock metrics to {path}");
    }
    if profile {
        println!("{}", obs_export::profile_table(&runs));
    }
}

fn print_help() {
    println!(
        "repro — regenerate PTPerf tables and figures\n\n\
         usage: repro [--paper] [--seed N] [--workers N|auto] [--csv DIR]\n\
         \x20            [--trace FILE] [--trace-chrome FILE] [--hist FILE]\n\
         \x20            [--metrics FILE] [--profile] [--faults]\n\
         \x20            [--bench-flow] [--bench-establish] [--bench-unit]\n\
         \x20            [--bench-out FILE] [--check-bench DIR] [--json-check FILE]\n\
         \x20            [--quiet] [-v|--verbose] [--list] [TARGET ...]\n\n\
         --workers only changes wall-clock time: output is bit-for-bit\n\
         identical at any worker count.\n\
         --faults turns on the deterministic fault-injection lane (the\n\
         paper profile): connect refusals, mid-transfer aborts, stalls,\n\
         churn, and surge degradation, replayed identically per seed at\n\
         any worker count; traces gain fault/* counters.\n\
         --trace writes the deterministic sim-time trace (JSON Lines: one\n\
         span or counter record per line with stable span ids and parent\n\
         links, identical at any worker count);\n\
         --trace-chrome writes the same span trees in the Chrome\n\
         trace-event format (open in chrome://tracing or Perfetto:\n\
         per-family lanes, counter tracks; byte-identical at any worker\n\
         count); --hist writes the per-(PT, phase) latency-histogram\n\
         report (deterministic log-linear buckets, exact shard merge,\n\
         integer p50/p90/p99/p99.9 in ns; byte-identical at any worker\n\
         count);\n\
         --metrics writes the wall-clock metrics registry (JSON; per-family\n\
         p50/p95 shard times, worker utilization); --profile prints a\n\
         per-family table of measurements, simulated seconds, and throughput.\n\
         --check-bench DIR compares fresh BENCH_*.json files in DIR\n\
         against the committed baselines in the current directory and\n\
         exits non-zero on a p50 regression past the tolerance\n\
         (PTPERF_BENCH_TOL, default 2.5x; PTPERF_BENCH_MIN_RUNS minimum\n\
         fresh run count, default 10; PTPERF_BENCH_ABS absolute floor in\n\
         us, default 1.0; PTPERF_BENCH_DRIFT=warn reports without\n\
         failing), emitting a machine-readable verdict JSON on stdout.\n\
         --json-check FILE validates that FILE parses as JSON and exits.\n\
         --bench-flow benchmarks page-load link sharing (warm p50/p95\n\
         per workload class, steps/s, allocations-per-step proxy) and\n\
         writes BENCH_flow.json\n\
         (path override: --bench-out; runs per class:\n\
         PTPERF_FLOWBENCH_RUNS, default 400), then exits.\n\
         --bench-establish benchmarks channel establishment (indexed\n\
         path selection vs the reference scan oracle at 600 and 5000\n\
         relays, establishes/s, fast-path fraction, allocations per\n\
         establish, deployment-memo savings) and writes\n\
         BENCH_establish.json (path override: --bench-out; runs per\n\
         class: PTPERF_ESTABLISHBENCH_RUNS, default 400), then exits.\n\
         --bench-unit benchmarks whole measurement units (warm pooled\n\
         pipeline vs the retained allocating reference path, per workload\n\
         class: browser page loads, curl fetches, file downloads;\n\
         units/s, allocations per warm unit, site-workload-memo savings)\n\
         and writes BENCH_unit.json (path override: --bench-out; runs\n\
         per class: PTPERF_UNITBENCH_RUNS, default 200), then exits.\n\
         --quiet shows errors only; -v enables debug diagnostics.\n\
         With no targets, all of them run. Targets:\n  {}",
        available_targets().join(" ")
    );
}
