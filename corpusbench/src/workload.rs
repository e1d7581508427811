//! The three workloads: their set-up, one run through the program's
//! public entry points, and the check of what the run produced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ptperf::executor::{ExecError, Parallelism, Record, ShardReport};
use ptperf::experiments::{
    file_download, fixed_guard, location, medium, overhead, reliability, snowflake_load,
    speed_index, ttfb, website_curl, website_selenium,
};
use ptperf::scenario::{FaultConfig, FaultProfile, Scenario};
use ptperf::sim::Location;
use ptperf::web::{Outcome, SiteList};
use ptperf_bench::{available_targets, run_target_obs, RunScale};

use crate::digest::Digest;

/// Worker threads for every workload (the benchmark host has 2 cores).
pub const WORKERS: usize = 2;

/// Scenario seeds per `faulted_ensemble` run.
pub const ENSEMBLE: u64 = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every `repro --list` target at paper scale, as `repro --paper`.
    PaperCorpus,
    /// `website_selenium` + `speed_index` at paper scale.
    BrowserPages,
    /// `file_download` + `reliability` + `snowflake_load` at paper
    /// scale, paper fault plan, over [`ENSEMBLE`] derived seeds.
    FaultedEnsemble,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCorpus,
        Workload::BrowserPages,
        Workload::FaultedEnsemble,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCorpus => "paper_corpus",
            Workload::BrowserPages => "browser_pages",
            Workload::FaultedEnsemble => "faulted_ensemble",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The scenario seeds of one `faulted_ensemble` run: a splitmix64
/// sequence started at the seed argument.
pub fn ensemble_seeds(seed: u64) -> Vec<u64> {
    (1..=ENSEMBLE)
        .map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// The scenarios a workload runs, with every deployment and site
/// workload it will ask for already built.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// One scenario, or one per ensemble seed.
    pub scenarios: Vec<Scenario>,
}

/// Host time of one set-up, split by what was built.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Building every `Scenario::deployment()` key.
    pub deployment: Duration,
    /// Building every `target_sites()`/`top_sites()` key.
    pub sites: Duration,
}

/// `(list, n)` keys of the site workloads; `None` is the mixed list of
/// `Scenario::target_sites`.
type SiteKey = (Option<SiteList>, usize);

fn deployment_regions(w: Workload) -> Vec<Location> {
    match w {
        // Figure 7 moves the servers over the whole grid.
        Workload::PaperCorpus => Location::SERVERS.to_vec(),
        Workload::BrowserPages | Workload::FaultedEnsemble => vec![Location::Frankfurt],
    }
}

fn site_keys(w: Workload) -> Vec<SiteKey> {
    let snowflake =
        |c: snowflake_load::Config| [(None, c.sites_per_list), (None, c.monitor_sites / 2 + 1)];
    let keys: Vec<SiteKey> = match w {
        Workload::PaperCorpus => {
            let mut k = vec![
                (None, website_curl::Config::paper().sites_per_list),
                (None, website_selenium::Config::paper().sites_per_list),
                (None, location::Config::paper().sites_per_list),
                (None, medium::Config::paper().sites_per_list),
                (None, ttfb::Config::paper().sites_per_list),
                (None, speed_index::Config::paper().sites_per_list),
                (Some(SiteList::Tranco), fixed_guard::Config::paper().sites),
                (Some(SiteList::Tranco), overhead::Config::paper().sites),
                // `campaign` runs every family at quick scale.
                (None, website_curl::Config::quick().sites_per_list),
                (None, website_selenium::Config::quick().sites_per_list),
                (None, location::Config::quick().sites_per_list),
                (None, medium::Config::quick().sites_per_list),
                (None, ttfb::Config::quick().sites_per_list),
                (None, speed_index::Config::quick().sites_per_list),
                (None, 20),
                (Some(SiteList::Tranco), fixed_guard::Config::quick().sites),
                (Some(SiteList::Tranco), overhead::Config::quick().sites),
            ];
            k.extend(snowflake(snowflake_load::Config::paper()));
            k.extend(snowflake(snowflake_load::Config::quick()));
            k
        }
        Workload::BrowserPages => vec![
            (None, website_selenium::Config::paper().sites_per_list),
            (None, speed_index::Config::paper().sites_per_list),
        ],
        Workload::FaultedEnsemble => snowflake(snowflake_load::Config::paper()).to_vec(),
    };
    let mut unique: Vec<SiteKey> = Vec::new();
    for key in keys {
        if !unique.contains(&key) {
            unique.push(key);
        }
    }
    unique
}

/// Builds the workload's scenarios from nothing and warms their caches.
pub fn prepare(w: Workload, seed: u64) -> (Prepared, SetupTime) {
    let scenarios: Vec<Scenario> = match w {
        Workload::PaperCorpus | Workload::BrowserPages => vec![Scenario::baseline(seed)],
        Workload::FaultedEnsemble => ensemble_seeds(seed)
            .into_iter()
            .map(|s| Scenario::baseline(s).with_faults(FaultConfig::Plan(FaultProfile::paper())))
            .collect(),
    };
    let started = Instant::now();
    for sc in &scenarios {
        for region in deployment_regions(w) {
            let mut at = sc.clone();
            at.server_region = region;
            at.deployment();
        }
    }
    let deployment = started.elapsed();
    let started = Instant::now();
    for sc in &scenarios {
        for (list, n) in site_keys(w) {
            match list {
                None => sc.target_sites(n),
                Some(list) => sc.top_sites(list, n),
            };
        }
    }
    let sites = started.elapsed();
    (
        Prepared {
            workload: w,
            scenarios,
        },
        SetupTime { deployment, sites },
    )
}

/// The executor setting every workload runs under.
pub fn parallelism(record: Record) -> Parallelism {
    Parallelism::new(WORKERS).with_recording(record)
}

/// One family run (one `run_with` call, or one `run_target_obs` call
/// that executed a family) and its shard reports.
pub struct FamilyRun {
    /// Experiment family.
    pub family: &'static str,
    /// Seed of the scenario it ran under.
    pub seed: u64,
    /// Host time of the call.
    pub wall: Duration,
    /// Shard reports, in shard-index order.
    pub reports: Vec<ShardReport>,
}

/// What one run of a workload produced.
pub struct RunOutput {
    /// Host time of the run.
    pub wall: Duration,
    /// Process CPU seconds (user + sys) spent during the run.
    pub cpu_s: f64,
    /// Family runs in execution order.
    pub runs: Vec<FamilyRun>,
    /// `paper_corpus`: every target's render, in list order.
    pub texts: Vec<(&'static str, String)>,
    /// Sample-bit digest of every family result (the two family
    /// workloads), in run order.
    pub families: Vec<(&'static str, String)>,
    /// Units that panicked (a whole target counts as one).
    pub panicked: usize,
    /// Out-of-range values found in family results.
    pub bad_values: Vec<String>,
    /// The outcome of the structural output check.
    pub check: Result<(), String>,
}

impl RunOutput {
    /// Executor units attempted.
    pub fn units(&self) -> usize {
        self.runs.iter().map(|r| r.reports.len()).sum::<usize>() + self.panicked
    }

    /// Σ `ShardReport.samples`.
    pub fn samples(&self) -> usize {
        self.runs
            .iter()
            .flat_map(|r| &r.reports)
            .map(|r| r.samples)
            .sum()
    }

    /// The digest the output check compares: masked renders for
    /// `paper_corpus`, family sample bits otherwise.
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        for (name, text) in &self.texts {
            d.str(name);
            d.str(&mask_wall_clock(name, text));
        }
        for (family, hex) in &self.families {
            d.str(family);
            d.str(hex);
        }
        d.hex()
    }
}

/// The family a corpus target runs (`None`: it renders a static table).
pub fn family_of(target: &str) -> Option<&'static str> {
    Some(match target {
        "fig2a" | "table3" | "table4" | "table10" => "website_curl",
        "fig2b" | "table5" | "table6" => "website_selenium",
        "fig3a" | "fig3b" => "fixed_circuit",
        "fig4" => "fixed_guard",
        "fig5" | "table7" => "file_download",
        "fig6" => "ttfb",
        "fig7" => "location",
        "fig8a" | "fig8b" => "reliability",
        "medium" => "medium",
        "fig9" => "overhead",
        "fig10a" | "fig10b" | "fig12" => "snowflake_load",
        "fig11" | "table8" | "table9" => "speed_index",
        "streaming" => "streaming",
        "campaign" => "campaign",
        _ => return None,
    })
}

/// Masks the wall-clock fields of the `campaign` render — the "… s
/// elapsed" figure and the per-family shard-time column — so the
/// digest covers only what the seed determines. Other renders pass
/// through unchanged.
pub fn mask_wall_clock(target: &str, text: &str) -> String {
    if target != "campaign" {
        return text.to_string();
    }
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.starts_with("Campaign execution") {
            let head = line.rsplit_once(", ").map_or(line, |(head, _)| head);
            out.push_str(head);
            out.push_str(", * s elapsed");
        } else if line.starts_with('|') {
            // Drop the trailing shard-time cell, separator row included.
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let kept = &cells[..cells.len().saturating_sub(2)];
            out.push_str(&kept.join("|"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// An output with nothing run yet.
pub fn empty_output() -> RunOutput {
    RunOutput {
        wall: Duration::ZERO,
        cpu_s: 0.0,
        runs: Vec::new(),
        texts: Vec::new(),
        families: Vec::new(),
        panicked: 0,
        bad_values: Vec::new(),
        check: Ok(()),
    }
}

/// Runs the workload once over prepared scenarios.
pub fn run(prep: &Prepared, par: &Parallelism) -> RunOutput {
    let cpu_before = crate::proc::cpu_seconds();
    let started = Instant::now();
    let mut out = empty_output();
    match prep.workload {
        Workload::PaperCorpus => run_corpus(&prep.scenarios[0], par, &mut out),
        Workload::BrowserPages => run_browser(&prep.scenarios[0], par, &mut out),
        Workload::FaultedEnsemble => {
            for sc in &prep.scenarios {
                run_faulted(sc, par, &mut out);
            }
        }
    }
    out.wall = started.elapsed();
    out.cpu_s = crate::proc::cpu_seconds() - cpu_before;
    out.check = check(prep.workload, &out);
    out
}

fn run_corpus(sc: &Scenario, par: &Parallelism, out: &mut RunOutput) {
    for target in available_targets() {
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_target_obs(target, sc, RunScale::Paper, par)
        }));
        let wall = started.elapsed();
        match run {
            Ok(run) => {
                if let Some(family) = family_of(target) {
                    out.runs.push(FamilyRun {
                        family,
                        seed: sc.seed,
                        wall,
                        reports: run.reports,
                    });
                }
                out.texts.push((target, run.text));
            }
            Err(_) => {
                out.panicked += 1;
                out.texts.push((target, String::new()));
            }
        }
    }
}

/// Times one family `run_with` call and files its reports; returns the
/// family result unless a unit panicked.
pub fn family<T>(
    out: &mut RunOutput,
    family: &'static str,
    seed: u64,
    f: impl FnOnce() -> Result<(T, Vec<ShardReport>), ExecError>,
) -> Option<T> {
    let started = Instant::now();
    let result = f();
    let wall = started.elapsed();
    match result {
        Ok((value, reports)) => {
            out.runs.push(FamilyRun {
                family,
                seed,
                wall,
                reports,
            });
            Some(value)
        }
        Err(e) => {
            out.panicked += e.failures.len();
            out.runs.push(FamilyRun {
                family,
                seed,
                wall,
                reports: Vec::new(),
            });
            out.families.push((family, "panicked".to_string()));
            None
        }
    }
}

fn run_browser(sc: &Scenario, par: &Parallelism, out: &mut RunOutput) {
    let selenium = family(out, "website_selenium", sc.seed, || {
        website_selenium::run_with(sc, &website_selenium::Config::paper(), par)
    });
    if let Some(r) = selenium {
        note(out, "website_selenium", paired_values(&r.samples));
        out.families.push(("website_selenium", digest_selenium(&r)));
    }
    let si = family(out, "speed_index", sc.seed, || {
        speed_index::run_with(sc, &speed_index::Config::paper(), par)
    });
    if let Some(r) = si {
        note(out, "speed_index", paired_values(&r.speed_index));
        note(out, "speed_index", paired_values(&r.load_time));
        out.families.push(("speed_index", digest_speed_index(&r)));
    }
}

fn run_faulted(sc: &Scenario, par: &Parallelism, out: &mut RunOutput) {
    let fd = family(out, "file_download", sc.seed, || {
        file_download::run_with(sc, &file_download::Config::paper(), par)
    });
    if let Some(r) = fd {
        for a in r.attempts.values().flatten() {
            note(out, "file_download", check_values(&[a.elapsed], None));
            note(out, "file_download", check_values(&[a.fraction], Some(1.0)));
        }
        out.families
            .push(("file_download", digest_file_download(&r)));
    }
    let rel = family(out, "reliability", sc.seed, || {
        reliability::run_with(sc, &reliability::Config::paper(), par)
    });
    if let Some(r) = rel {
        for f in r.fractions.values() {
            note(out, "reliability", check_values(f, Some(1.0)));
        }
        out.families.push(("reliability", digest_reliability(&r)));
    }
    let sf = family(out, "snowflake_load", sc.seed, || {
        snowflake_load::run_with(sc, &snowflake_load::Config::paper(), par)
    });
    if let Some(r) = sf {
        for v in [&r.pre, &r.post, &r.pre_monitor]
            .into_iter()
            .chain(&r.weekly)
        {
            note(out, "snowflake_load", check_values(v, None));
        }
        out.families.push(("snowflake_load", digest_snowflake(&r)));
    }
}

// ---- sample-bit digests, one per family result ----------------------

fn paired(d: &mut Digest, s: &ptperf::PairedSamples) {
    for pt in s.pts() {
        d.str(pt.name());
        d.f64s(s.samples(pt));
    }
}

/// Digest of a `website_curl` result.
pub fn digest_curl(r: &website_curl::Result) -> String {
    let mut d = Digest::new();
    paired(&mut d, &r.samples);
    d.hex()
}

/// Digest of a `location` result.
pub fn digest_location(r: &location::Result) -> String {
    let mut d = Digest::new();
    for (key, v) in &r.samples {
        d.str(&format!("{key:?}"));
        d.f64s(v);
    }
    d.hex()
}

/// Digest of a `medium` result.
pub fn digest_medium(r: &medium::Result) -> String {
    let mut d = Digest::new();
    for (key, v) in &r.medians {
        d.str(&format!("{key:?}"));
        d.f64s(&[*v]);
    }
    d.hex()
}

/// Digest of a `website_selenium` result.
pub fn digest_selenium(r: &website_selenium::Result) -> String {
    let mut d = Digest::new();
    paired(&mut d, &r.samples);
    for pt in &r.excluded {
        d.str(pt.name());
    }
    d.hex()
}

/// Digest of a `speed_index` result.
pub fn digest_speed_index(r: &speed_index::Result) -> String {
    let mut d = Digest::new();
    paired(&mut d, &r.speed_index);
    paired(&mut d, &r.load_time);
    for pt in &r.excluded {
        d.str(pt.name());
    }
    d.hex()
}

fn outcome_code(o: Outcome) -> u64 {
    match o {
        Outcome::Complete => 0,
        Outcome::Partial => 1,
        Outcome::Failed => 2,
    }
}

/// Digest of a `file_download` result.
pub fn digest_file_download(r: &file_download::Result) -> String {
    let mut d = Digest::new();
    for (pt, list) in &r.attempts {
        d.str(pt.name());
        for a in list {
            d.u64(a.size);
            d.f64s(&[a.elapsed, a.fraction]);
            d.u64(outcome_code(a.outcome));
        }
    }
    d.hex()
}

/// Digest of a `reliability` result.
pub fn digest_reliability(r: &reliability::Result) -> String {
    let mut d = Digest::new();
    for (pt, c) in &r.counts {
        d.str(pt.name());
        d.u64(c.complete as u64);
        d.u64(c.partial as u64);
        d.u64(c.failed as u64);
        d.f64s(&r.fractions[pt]);
    }
    d.hex()
}

/// Digest of a `snowflake_load` result.
pub fn digest_snowflake(r: &snowflake_load::Result) -> String {
    let mut d = Digest::new();
    d.f64s(&r.pre);
    d.f64s(&r.post);
    d.f64s(&r.pre_monitor);
    for week in &r.weekly {
        d.f64s(week);
    }
    d.hex()
}

// ---- structural check (any seed) -----------------------------------

fn check(w: Workload, out: &RunOutput) -> Result<(), String> {
    if let Some(bad) = out.bad_values.first() {
        return Err(bad.clone());
    }
    if out.panicked > 0 {
        return Err(format!("{} unit(s) panicked", out.panicked));
    }
    for r in &out.runs {
        if r.reports.iter().map(|s| s.samples).sum::<usize>() == 0 {
            return Err(format!("{} took no samples", r.family));
        }
    }
    match w {
        Workload::PaperCorpus => {
            if out.texts.len() != available_targets().len() {
                return Err("a target is missing".into());
            }
            for (name, text) in &out.texts {
                if text.len() < 50 {
                    return Err(format!("{name} rendered {} bytes", text.len()));
                }
                let number = |c: char| c.is_ascii_alphanumeric() || c == '.' || c == '-';
                if text
                    .split(|c: char| !number(c))
                    .any(|w| matches!(w, "NaN" | "inf" | "-inf"))
                {
                    return Err(format!("{name} rendered a non-finite number"));
                }
            }
            Ok(())
        }
        Workload::BrowserPages => expect_families(out, &["website_selenium", "speed_index"], 1),
        Workload::FaultedEnsemble => expect_families(
            out,
            &["file_download", "reliability", "snowflake_load"],
            ENSEMBLE as usize,
        ),
    }
}

fn expect_families(out: &RunOutput, names: &[&str], times: usize) -> Result<(), String> {
    let got: Vec<&str> = out.families.iter().map(|(f, _)| *f).collect();
    let want: Vec<&str> = (0..times).flat_map(|_| names.iter().copied()).collect();
    if got != want {
        return Err(format!("family results {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn note(out: &mut RunOutput, family: &str, r: Result<(), String>) {
    if let Err(e) = r {
        out.bad_values.push(format!("{family}: {e}"));
    }
}

fn paired_values(s: &ptperf::PairedSamples) -> Result<(), String> {
    s.pts().try_for_each(|pt| check_values(s.samples(pt), None))
}

/// Checks that every value is finite, non-negative and at most `upper`.
fn check_values(values: &[f64], upper: Option<f64>) -> Result<(), String> {
    for &v in values {
        let bad = !v.is_finite() || v < 0.0 || upper.is_some_and(|u| v > u);
        if bad {
            return Err(format!("out-of-range sample {v}"));
        }
    }
    Ok(())
}
