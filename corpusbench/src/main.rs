//! `ptperf-corpusbench` — end-to-end benchmark of the PTPerf paper
//! corpus.
//!
//! ```text
//! cargo run --release --manifest-path corpusbench/Cargo.toml -- \
//!     --workload paper_corpus --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload repeatedly for `--seconds` and prints
//! its end-to-end metrics; `--trace 1` runs it once untraced, once with
//! `Record::Trace`, then re-drives its unit loops with a span around
//! every layer call, and prints the per-layer metrics. The last line of
//! standard output is always one JSON object. See `corpusbench/README.md`.

mod digest;
mod proc;
mod redrive;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use ptperf::executor::Record;

use workload::{Prepared, RunOutput, Workload};

/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Runs per process at least, however long one takes.
const MIN_RUNS: usize = 2;

/// Committed output digests: `<workload> <seed> <sha256>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum measuring time of an untraced run.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, got '{v}'"))
        })
    };
    let name = value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}'; one of {}", names.join(", "))
    })?;
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace is 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 42)?,
        seconds: number("--seconds", 10)?,
        trace,
    })
}

/// One benchmark result: the JSON object of the last output line.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Executor units attempted.
    pub attempted: usize,
    /// Units that panicked or belong to a run whose check failed.
    pub failed: usize,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up timings over [`SETUP_REPS`] fresh set-ups, and the last one's
/// scenarios.
pub struct Setup {
    /// Median whole set-up seconds.
    pub total_s: f64,
    /// Median deployment-building seconds.
    pub deployment_s: f64,
    /// Median site-building seconds.
    pub sites_s: f64,
    /// The prepared scenarios the runs use.
    pub prepared: Prepared,
}

/// Sets the workload up [`SETUP_REPS`] times from nothing.
pub fn setup(args: &Args) -> Setup {
    let (mut total, mut dep, mut sites) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let (p, t) = workload::prepare(args.workload, args.seed);
        total.push(started.elapsed().as_secs_f64());
        dep.push(t.deployment.as_secs_f64());
        sites.push(t.sites.as_secs_f64());
        prepared = Some(p);
    }
    Setup {
        total_s: median(&total),
        deployment_s: median(&dep),
        sites_s: median(&sites),
        prepared: prepared.expect("at least one set-up"),
    }
}

/// The committed digest for `(workload, seed)`, if any.
fn committed_digest(w: Workload, seed: u64) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(w.name()) && f.next() == Some(seed.to_string().as_str()))
            .then(|| f.next())
            .flatten()
    })
}

/// Checks a run's output: the structural check, plus the committed
/// digest when the seed has one. Prints the digest to stderr.
pub fn output_ok(args: &Args, out: &RunOutput) -> bool {
    let digest = out.digest();
    eprintln!("digest {} {} {digest}", args.workload.name(), args.seed);
    if let Err(e) = &out.check {
        eprintln!("output check failed: {e}");
        return false;
    }
    match committed_digest(args.workload, args.seed) {
        Some(want) if want != digest => {
            eprintln!("output check failed: digest differs from the committed {want}");
            false
        }
        _ => true,
    }
}

/// The untraced run: repeated runs of the workload for `--seconds`
/// (and at least [`MIN_RUNS`]), reported as medians.
fn measure(args: &Args) -> Report {
    let setup = setup(args);
    let par = workload::parallelism(Record::Off);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut outs: Vec<RunOutput> = Vec::new();
    while outs.len() < MIN_RUNS || started.elapsed() < budget {
        outs.push(workload::run(&setup.prepared, &par));
    }
    let first = outs[0].digest();
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for out in &outs {
        let ok = output_ok(args, out) && out.digest() == first;
        report.correct &= ok;
        report.attempted += out.units();
        report.failed += if ok { 0 } else { out.units().max(1) };
    }
    let walls: Vec<f64> = outs.iter().map(|o| o.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = outs
        .iter()
        .map(|o| o.samples() as f64 / o.wall.as_secs_f64())
        .collect();
    let cpus: Vec<f64> = outs.iter().map(|o| o.cpu_s).collect();
    eprintln!(
        "{}: {} run(s) on {} hardware thread(s), run_s {walls:?}",
        args.workload.name(),
        outs.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.metric("run_s", median(&walls), "s");
    report.metric("measurements_per_s", median(&rates), "1/s");
    report.metric("cpu_s", median(&cpus), "s");
    report.metric("setup_s", setup.total_s, "s");
    report.metric("peak_rss_mb", proc::peak_rss_mb(), "MiB");
    report
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ptperf-corpusbench: {e}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        trace::run(&args)
    } else {
        measure(&args)
    };
    println!("{}", report.to_json());
}
