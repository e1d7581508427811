//! **Table 1** — the measurement-campaign plan, and the corpus driver:
//! one call runs any set of experiment families at one scale through a
//! single executor pool and keeps each family's merged result and shard
//! reports.

use std::any::Any;
use std::time::Duration;

use ptperf_stats::Table;

use crate::executor::{self, ExecError, Parallelism, ShardReport, Unit};
use crate::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttfb, website_curl, website_selenium,
};
use crate::scenario::Scenario;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct MeasurementType {
    /// Measurement family.
    pub name: &'static str,
    /// Approximate measurement count in the original campaign.
    pub count: &'static str,
    /// Target set.
    pub target: &'static str,
}

/// The paper's Table 1 plan.
pub fn plan() -> Vec<MeasurementType> {
    vec![
        MeasurementType { name: "Website Download (curl)", count: "149.5 k", target: "Tranco top-1k & CBL-1k" },
        MeasurementType { name: "Website Download (selenium)", count: "174 k", target: "Tranco top-1k & CBL-1k" },
        MeasurementType { name: "File Downloads (curl)", count: "2.7 k", target: "5, 10, 20, 50, 100 MB" },
        MeasurementType { name: "File Downloads (selenium)", count: "2.7 k", target: "5, 10, 20, 50, 100 MB" },
        MeasurementType { name: "Medium Change (wired/wireless)", count: "60 k", target: "Tranco top-500 & CBL-500" },
        MeasurementType { name: "Speed Index", count: "60 k", target: "Tranco top-1k" },
        MeasurementType { name: "Pluggable Transport Overhead", count: "40 k", target: "Tranco top-1k" },
        MeasurementType { name: "Location Variation", count: "686 k", target: "Tranco top-1k & CBL-1k" },
    ]
}

/// Renders Table 1.
pub fn render_plan() -> String {
    let mut table = Table::new(["Measurement Type", "Number of Measurements", "Target"]);
    for m in plan() {
        table.row([m.name, m.count, m.target]);
    }
    format!("Table 1 — Overview of measurement types\n{}", table.render())
}

/// How big a run to perform: which of each family's `Config` presets
/// the driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds per family: the `Config::quick()` presets.
    Quick,
    /// The paper's scale: the `Config::paper()` presets.
    Paper,
}

/// An experiment family: one runner in [`crate::experiments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Figure 2a, Tables 3, 4 and 10.
    WebsiteCurl,
    /// Figure 2b, Tables 5 and 6.
    WebsiteSelenium,
    /// Figure 3.
    FixedCircuit,
    /// Figure 4.
    FixedGuard,
    /// Figure 5, Table 7.
    FileDownload,
    /// Figure 6.
    Ttfb,
    /// Figure 7.
    Location,
    /// Figure 8.
    Reliability,
    /// §4.7.
    Medium,
    /// Figure 9.
    Overhead,
    /// Figures 10 and 12.
    SnowflakeLoad,
    /// Figure 11, Tables 8 and 9.
    SpeedIndex,
    /// The streaming QoE extension.
    Streaming,
}

/// A family's shard values, type-erased so every family shares one pool.
type Erased = Box<dyn Any + Send>;

/// A family's units, type-erased for the shared pool, and the merge
/// that turns their values back into the family's typed result.
struct Enlisted {
    units: Vec<Unit<Erased>>,
    merge: Box<dyn FnOnce(Vec<Erased>) -> Erased>,
}

fn enlist<S: Send + 'static, R: Send + 'static>(
    units: Vec<Unit<S>>,
    merge: fn(Vec<S>) -> R,
) -> Enlisted {
    Enlisted {
        units: units.into_iter().map(Unit::boxed).collect(),
        merge: Box::new(move |values| {
            let shards = values
                .into_iter()
                .map(|v| *v.downcast::<S>().expect("a family's values drain in enlist order"))
                .collect();
            Box::new(merge(shards))
        }),
    }
}

impl Family {
    /// The twelve families of the campaign table, in its row order
    /// (streaming is an extension outside the paper's campaign).
    pub const CAMPAIGN: [Family; 12] = [
        Family::WebsiteCurl,
        Family::WebsiteSelenium,
        Family::FixedCircuit,
        Family::FixedGuard,
        Family::FileDownload,
        Family::Ttfb,
        Family::Location,
        Family::Reliability,
        Family::Medium,
        Family::Overhead,
        Family::SnowflakeLoad,
        Family::SpeedIndex,
    ];

    /// The family's row name in the campaign table.
    pub fn name(self) -> &'static str {
        match self {
            Family::WebsiteCurl => "website_curl",
            Family::WebsiteSelenium => "website_selenium",
            Family::FixedCircuit => "fixed_circuit",
            Family::FixedGuard => "fixed_guard",
            Family::FileDownload => "file_download",
            Family::Ttfb => "ttfb",
            Family::Location => "location",
            Family::Reliability => "reliability",
            Family::Medium => "medium",
            Family::Overhead => "overhead",
            Family::SnowflakeLoad => "snowflake",
            Family::SpeedIndex => "speed_index",
            Family::Streaming => "streaming",
        }
    }

    fn enlist(self, scenario: &Scenario, scale: RunScale) -> Enlisted {
        macro_rules! at_scale {
            ($family:ident) => {{
                let cfg = match scale {
                    RunScale::Quick => $family::Config::quick(),
                    RunScale::Paper => $family::Config::paper(),
                };
                enlist($family::units(scenario, &cfg), $family::merge)
            }};
        }
        match self {
            Family::WebsiteCurl => at_scale!(website_curl),
            Family::WebsiteSelenium => at_scale!(website_selenium),
            Family::FixedCircuit => at_scale!(fixed_circuit),
            Family::FixedGuard => at_scale!(fixed_guard),
            Family::FileDownload => at_scale!(file_download),
            Family::Ttfb => at_scale!(ttfb),
            Family::Location => at_scale!(location),
            Family::Reliability => at_scale!(reliability),
            Family::Medium => at_scale!(medium),
            Family::Overhead => at_scale!(overhead),
            Family::SnowflakeLoad => at_scale!(snowflake_load),
            Family::SpeedIndex => at_scale!(speed_index),
            Family::Streaming => at_scale!(streaming),
        }
    }
}

/// One family's share of a corpus run.
pub struct FamilyRun {
    /// Which family.
    pub family: Family,
    /// The family's shard reports, in shard-index order. Indexes count
    /// from the start of the whole pool.
    pub reports: Vec<ShardReport>,
    result: Erased,
}

/// Everything one driver call produced: each family's merged result and
/// shard reports, in the order the families were requested.
pub struct Corpus {
    /// The scale every family ran at.
    pub scale: RunScale,
    /// One entry per distinct requested family.
    pub families: Vec<FamilyRun>,
    /// Elapsed wall-clock time for the whole pool.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl Corpus {
    /// The merged result of the family whose `Result` type is `T`, e.g.
    /// `corpus.result::<website_curl::Result>()`.
    ///
    /// # Panics
    /// Panics if that family was not part of the run.
    pub fn result<T: 'static>(&self) -> &T {
        self.families
            .iter()
            .find_map(|f| f.result.downcast_ref::<T>())
            .unwrap_or_else(|| panic!("{} was not run", std::any::type_name::<T>()))
    }

    /// The run of one family, if it was requested.
    pub fn family(&self, family: Family) -> Option<&FamilyRun> {
        self.families.iter().find(|f| f.family == family)
    }

    /// The per-family execution table of the twelve campaign families.
    ///
    /// # Panics
    /// Panics if a campaign family was not part of the run.
    pub fn campaign_stats(&self) -> CampaignStats {
        let families: Vec<FamilyStats> = Family::CAMPAIGN
            .iter()
            .map(|&family| {
                let reports = &self
                    .family(family)
                    .unwrap_or_else(|| panic!("{} was not run", family.name()))
                    .reports;
                FamilyStats {
                    name: family.name(),
                    shards: reports.len(),
                    samples: reports.iter().map(|r| r.samples).sum(),
                    wall: reports.iter().map(|r| r.wall).sum(),
                }
            })
            .collect();
        let shards = families.iter().map(|f| f.shards).sum();
        CampaignStats {
            families,
            shards,
            wall: self.wall,
            // The workers a pool of just these shards would have used.
            workers: self.workers.min(shards),
        }
    }
}

/// Runs every listed family at `scale` through one executor pool and
/// merges each family's shard values in shard-index order, so every
/// result is bit-for-bit identical to the family's own `run_with` at
/// any worker count (see [`crate::executor`]). A family listed twice
/// runs once.
pub fn run(
    scenario: &Scenario,
    scale: RunScale,
    families: &[Family],
    par: &Parallelism,
) -> std::result::Result<Corpus, ExecError> {
    let mut pool: Vec<Unit<Erased>> = Vec::new();
    let mut merges = Vec::new();
    for &family in families {
        if merges.iter().any(|&(f, _, _)| f == family) {
            continue;
        }
        let Enlisted { units, merge } = family.enlist(scenario, scale);
        merges.push((family, units.len(), merge));
        pool.extend(units);
    }

    let executed = executor::run_units(par, pool)?;
    let mut values = executed.values.into_iter();
    let mut reports = executed.reports.into_iter();
    let families = merges
        .into_iter()
        .map(|(family, n, merge)| FamilyRun {
            family,
            reports: reports.by_ref().take(n).collect(),
            result: merge(values.by_ref().take(n).collect()),
        })
        .collect();
    Ok(Corpus {
        scale,
        families,
        wall: executed.wall,
        workers: executed.workers,
    })
}

/// Per-family execution summary of a campaign run.
#[derive(Debug, Clone)]
pub struct FamilyStats {
    /// Experiment family name.
    pub name: &'static str,
    /// Number of shards the family contributed to the pool.
    pub shards: usize,
    /// Raw measurements taken across the family's shards.
    pub samples: usize,
    /// Cumulative shard wall-clock time (sum over the family's shards,
    /// so it exceeds elapsed time when shards overlap on workers).
    pub wall: Duration,
}

/// Execution statistics for a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Per-family rollups, in campaign order.
    pub families: Vec<FamilyStats>,
    /// Shards across the campaign families.
    pub shards: usize,
    /// Elapsed wall-clock time for the pool the families ran in.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignStats {
    /// Renders the per-family execution table.
    pub fn render(&self) -> String {
        let mut table = Table::new(["family", "shards", "samples", "shard time (s)"]);
        for f in &self.families {
            table.row([
                f.name.to_string(),
                f.shards.to_string(),
                f.samples.to_string(),
                format!("{:.2}", f.wall.as_secs_f64()),
            ]);
        }
        format!(
            "Campaign execution — {} shards on {} worker(s), {:.2} s elapsed\n{}",
            self.shards,
            self.workers,
            self.wall.as_secs_f64(),
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_matches_table_1() {
        let p = plan();
        assert_eq!(p.len(), 8);
        assert!(render_plan().contains("686 k"));
    }

    #[test]
    fn quick_campaign_runs_end_to_end() {
        let corpus = run(
            &Scenario::baseline(777),
            RunScale::Quick,
            &Family::CAMPAIGN,
            &Parallelism::sequential(),
        )
        .expect("campaign units do not panic");
        // Spot-check one cross-experiment consistency property: the PTs
        // that fail bulk downloads are the ones excluded from Figure 5.
        let excluded = corpus.result::<file_download::Result>().excluded();
        for pt in crate::experiments::reliability::WORST {
            assert!(excluded.contains(&pt), "{pt} not excluded from fig5");
        }
    }

    #[test]
    fn a_repeated_family_runs_once_and_matches_run_with() {
        let scenario = Scenario::baseline(5);
        let par = Parallelism::new(2);
        let corpus = run(
            &scenario,
            RunScale::Quick,
            &[Family::Ttfb, Family::FixedGuard, Family::Ttfb],
            &par,
        )
        .expect("no panics");
        assert_eq!(corpus.families.len(), 2);
        let (direct, reports) =
            ttfb::run_with(&scenario, &ttfb::Config::quick(), &par).expect("no panics");
        assert_eq!(corpus.result::<ttfb::Result>().render(), direct.render());
        let ttfb_run = corpus.family(Family::Ttfb).expect("ttfb ran");
        let labels = |r: &[ShardReport]| r.iter().map(|s| s.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&ttfb_run.reports), labels(&reports));
        // Indexes count across the pool: fixed_guard's one shard follows.
        let guard = &corpus.family(Family::FixedGuard).expect("guard ran").reports;
        assert_eq!(guard[0].index, reports.len());
    }
}
