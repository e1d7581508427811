//! The repro targets: one entry per table/figure, each producing the
//! text rendering of that artifact.
//!
//! Targets render from experiment families, and several targets share
//! one family (Fig. 2a and Tables 3, 4 and 10 all read the curl
//! campaign). [`run_targets`] therefore runs every family the requested
//! targets need once per scale, through one [`campaign::run`] pool, and
//! renders every target, CSV document and the `campaign` table from
//! that one result.

use std::mem;

use ptperf::campaign::{self, Corpus, Family};
use ptperf::executor::{Parallelism, ShardReport};
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttest_tables, ttfb, website_curl,
    website_selenium,
};
use ptperf::scenario::Scenario;
use ptperf::{ecosystem, report, PairedSamples};

pub use ptperf::campaign::RunScale;

/// A target's rendered text plus the executor shard reports behind it.
///
/// The reports are in shard-index order. A family's reports go to the
/// first requested target that renders from it, so across one
/// [`run_targets`] call each family's shards appear once. That order is
/// a function of the target list alone, never of worker count or
/// completion order, so trace serializations built from the reports
/// are deterministic.
#[derive(Debug)]
pub struct TargetRun {
    /// The target's name, as passed to [`run_targets`].
    pub name: String,
    /// Rendered artifact text.
    pub text: String,
    /// The shard reports of the families this target ran first, in
    /// shard-index order.
    pub reports: Vec<ShardReport>,
}

/// Every requested target's run, plus the CSV export of their data.
#[derive(Debug)]
pub struct CorpusRun {
    /// One run per requested target, in request order.
    pub targets: Vec<TargetRun>,
    /// `(file_stem, csv_document)` pairs, each stem once, in the order
    /// the targets first need them (empty unless requested).
    pub csv: Vec<(String, String)>,
}

/// All repro target names, in paper order.
pub fn available_targets() -> Vec<&'static str> {
    vec![
        "table1", "table2", "fig2a", "fig2b", "table3", "table4", "table5", "table6", "fig3a",
        "fig3b", "fig4", "fig5", "table7", "fig6", "fig7", "fig8a", "fig8b", "medium", "fig9",
        "fig10a", "fig10b", "fig11", "table8", "table9", "table10", "fig12", "streaming",
        "campaign",
    ]
}

/// The families a target renders from (none for the static tables).
///
/// # Panics
/// Panics on an unknown target name.
fn families(target: &str) -> &'static [Family] {
    match target {
        "table1" | "table2" => &[],
        "fig2a" | "table3" | "table4" | "table10" => &[Family::WebsiteCurl],
        "fig2b" | "table5" | "table6" => &[Family::WebsiteSelenium],
        "fig3a" | "fig3b" => &[Family::FixedCircuit],
        "fig4" => &[Family::FixedGuard],
        "fig5" | "table7" => &[Family::FileDownload],
        "fig6" => &[Family::Ttfb],
        "fig7" => &[Family::Location],
        "fig8a" | "fig8b" => &[Family::Reliability],
        "medium" => &[Family::Medium],
        "fig9" => &[Family::Overhead],
        "fig10a" | "fig10b" | "fig12" => &[Family::SnowflakeLoad],
        "fig11" | "table8" | "table9" => &[Family::SpeedIndex],
        "streaming" => &[Family::Streaming],
        "campaign" => &Family::CAMPAIGN,
        other => panic!("unknown repro target '{other}'; see `repro --list`"),
    }
}

/// The scale a target runs at: the `campaign` table always summarizes
/// a quick-scale run.
fn scale_of(target: &str, scale: RunScale) -> RunScale {
    if target == "campaign" {
        RunScale::Quick
    } else {
        scale
    }
}

/// Runs one target and returns its rendered text together with every
/// executor shard report behind it: [`run_targets`] for one name.
/// Whether those reports carry sim-time observations is controlled by
/// `par.record` (see [`ptperf::executor::Record`]); the rendered text
/// is bit-for-bit identical either way, and at any worker count.
///
/// # Panics
/// Panics on an unknown target name; callers should validate against
/// [`available_targets`].
pub fn run_target_obs(
    name: &str,
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
) -> TargetRun {
    let mut run = run_targets(&[name], scenario, scale, par, false);
    run.targets.pop().expect("one target requested")
}

/// Runs every family the targets need with one [`campaign::run`] call
/// per scale, then renders each target (and, with `csv`, each CSV
/// document) from that result. Every render is identical to the
/// target's own [`run_target_obs`] render, except the `campaign`
/// table's wall-clock fields.
///
/// # Panics
/// Panics on an unknown target name, or if an experiment shard panics.
pub fn run_targets(
    names: &[&str],
    scenario: &Scenario,
    scale: RunScale,
    par: &Parallelism,
    csv: bool,
) -> CorpusRun {
    let scales: Vec<RunScale> = [RunScale::Quick, RunScale::Paper]
        .into_iter()
        .filter(|&at| names.iter().any(|name| scale_of(name, scale) == at))
        .collect();
    let mut corpora: Vec<Corpus> = scales
        .iter()
        .map(|&at| {
            let needed: Vec<Family> = names
                .iter()
                .filter(|name| scale_of(name, scale) == at)
                .flat_map(|name| families(name).iter().copied())
                .collect();
            campaign::run(scenario, at, &needed, par)
                .unwrap_or_else(|e| panic!("experiment shard failed: {e}"))
        })
        .collect();
    let corpus_index = |name: &str| {
        let at = scale_of(name, scale);
        scales.iter().position(|&s| s == at).expect("a corpus per scale")
    };

    let texts: Vec<String> = names
        .iter()
        .map(|name| render(name, &corpora[corpus_index(name)]))
        .collect();

    let mut docs: Vec<(String, String)> = Vec::new();
    if csv {
        // `campaign` summarizes runs and exports nothing of its own; its
        // quick-scale families must not export beside paper-scale ones.
        let mut exported: Vec<Family> = Vec::new();
        for name in names.iter().filter(|&&name| name != "campaign") {
            for &family in families(name) {
                if !exported.contains(&family) {
                    exported.push(family);
                    docs.extend(csv_docs(family, &corpora[corpus_index(name)]));
                }
            }
        }
    }

    let targets = names
        .iter()
        .zip(texts)
        .map(|(name, text)| {
            let i = corpus_index(name);
            let reports = corpora[i]
                .families
                .iter_mut()
                .filter(|run| families(name).contains(&run.family))
                .flat_map(|run| mem::take(&mut run.reports))
                .collect();
            TargetRun { name: name.to_string(), text, reports }
        })
        .collect();
    CorpusRun { targets, csv: docs }
}

/// Renders half of a pairwise t-test table: part I is the first half
/// of the pairs, part II the rest.
fn ttest_half(samples: &PairedSamples, part_one: bool, title: &str) -> String {
    let rows = ttest_tables::pairwise(samples);
    let (first, second) = rows.split_at(rows.len() / 2);
    ttest_tables::render(title, if part_one { first } else { second })
}

/// Renders one target from a corpus holding its families.
fn render(name: &str, corpus: &Corpus) -> String {
    match name {
        "table1" => campaign::render_plan(),
        "table2" => ecosystem::render(),
        "fig2a" => corpus.result::<website_curl::Result>().render(),
        "fig2b" => corpus.result::<website_selenium::Result>().render(),
        "table3" => ttest_half(
            &corpus.result::<website_curl::Result>().samples,
            true,
            "Table 3 — paired t-tests, website access via curl [Part I]",
        ),
        "table4" => ttest_half(
            &corpus.result::<website_curl::Result>().samples,
            false,
            "Table 4 — paired t-tests, website access via curl [Part II]",
        ),
        "table5" => ttest_half(
            &corpus.result::<website_selenium::Result>().samples,
            true,
            "Table 5 — paired t-tests, website access via selenium [Part I]",
        ),
        "table6" => ttest_half(
            &corpus.result::<website_selenium::Result>().samples,
            false,
            "Table 6 — paired t-tests, website access via selenium [Part II]",
        ),
        "fig3a" => {
            let result = corpus.result::<fixed_circuit::Result>();
            let mut out = result.render_boxplots();
            for (a, b) in [
                (fixed_circuit::CONFIGS[2], fixed_circuit::CONFIGS[0]),
                (fixed_circuit::CONFIGS[1], fixed_circuit::CONFIGS[0]),
                (fixed_circuit::CONFIGS[2], fixed_circuit::CONFIGS[1]),
            ] {
                let t = result.ttest(a, b);
                out.push_str(&format!(
                    "{}−{}: t={:.2}, P={}, 95% CI [{:.2}, {:.2}]\n",
                    a.name(),
                    b.name(),
                    t.t,
                    t.p_display(),
                    t.ci_lower,
                    t.ci_upper
                ));
            }
            out
        }
        "fig3b" => {
            let result = corpus.result::<fixed_circuit::Result>();
            let mut out = result.render_ecdf();
            out.push_str(&format!(
                "fraction of |diff| below 5 s: {:.2}\n",
                result.diffs_below(5.0)
            ));
            out
        }
        "fig4" => {
            let result = corpus.result::<fixed_guard::Result>();
            let mut out = result.render();
            let t = result.ttest();
            out.push_str(&format!(
                "obfs4−tor paired t-test: t={:.2}, P={}, mean diff {:.2}\n",
                t.t,
                t.p_display(),
                t.mean_diff
            ));
            out
        }
        "fig5" => corpus.result::<file_download::Result>().render(),
        "table7" => ttest_tables::render(
            "Table 7 — paired t-tests, file downloads",
            &ttest_tables::pairwise(&corpus.result::<file_download::Result>().paired),
        ),
        "fig6" => corpus.result::<ttfb::Result>().render(),
        "fig7" => corpus.result::<location::Result>().render(),
        "fig8a" => corpus.result::<reliability::Result>().render_stacked(),
        "fig8b" => corpus.result::<reliability::Result>().render_ecdf(),
        "medium" => corpus.result::<medium::Result>().render(),
        "fig9" => corpus.result::<overhead::Result>().render(),
        "fig10a" => corpus.result::<snowflake_load::Result>().render_timeline(),
        "fig10b" => corpus.result::<snowflake_load::Result>().render_pre_post(),
        "fig12" => corpus.result::<snowflake_load::Result>().render_weekly(),
        "fig11" => corpus.result::<speed_index::Result>().render(),
        "table8" => ttest_half(
            &corpus.result::<speed_index::Result>().speed_index,
            true,
            "Table 8 — paired t-tests, speed index [Part I]",
        ),
        "table9" => ttest_half(
            &corpus.result::<speed_index::Result>().speed_index,
            false,
            "Table 9 — paired t-tests, speed index [Part II]",
        ),
        "table10" => ttest_tables::render(
            "Table 10 — paired t-tests between PT categories (curl website access)",
            &ttest_tables::category_pairwise(&corpus.result::<website_curl::Result>().samples),
        ),
        "streaming" => corpus.result::<streaming::Result>().render(),
        "campaign" => corpus.campaign_stats().render(),
        other => panic!("unknown repro target '{other}'; see `repro --list`"),
    }
}

/// A family's data as CSV, for external plotting: `(file_stem,
/// csv_document)` pairs. Families whose artifacts are purely textual
/// export nothing.
fn csv_docs(family: Family, corpus: &Corpus) -> Vec<(String, String)> {
    let doc = |stem: &str, csv: String| (stem.to_string(), csv);
    match family {
        Family::WebsiteCurl => {
            let samples = &corpus.result::<website_curl::Result>().samples;
            vec![
                doc("fig2a_samples", report::samples_csv(samples)),
                doc("tables_3_4_ttests", report::ttests_csv(&ttest_tables::pairwise(samples))),
                doc(
                    "table_10_categories",
                    report::ttests_csv(&ttest_tables::category_pairwise(samples)),
                ),
            ]
        }
        Family::WebsiteSelenium => {
            let samples = &corpus.result::<website_selenium::Result>().samples;
            vec![
                doc("fig2b_samples", report::samples_csv(samples)),
                doc("tables_5_6_ttests", report::ttests_csv(&ttest_tables::pairwise(samples))),
            ]
        }
        Family::FileDownload => {
            let paired = &corpus.result::<file_download::Result>().paired;
            vec![
                doc("fig5_samples", report::samples_csv(paired)),
                doc("table_7_ttests", report::ttests_csv(&ttest_tables::pairwise(paired))),
            ]
        }
        Family::Reliability => {
            let rows: Vec<Vec<String>> = corpus
                .result::<reliability::Result>()
                .counts
                .iter()
                .map(|(pt, c)| {
                    let (comp, part, fail) = c.fractions();
                    vec![
                        pt.name().to_string(),
                        format!("{comp:.4}"),
                        format!("{part:.4}"),
                        format!("{fail:.4}"),
                    ]
                })
                .collect();
            vec![doc(
                "fig8a_reliability",
                report::csv(&["pt", "complete", "partial", "failed"], &rows),
            )]
        }
        Family::SpeedIndex => {
            let si = &corpus.result::<speed_index::Result>().speed_index;
            vec![
                doc("fig11_speed_index", report::samples_csv(si)),
                doc("tables_8_9_ttests", report::ttests_csv(&ttest_tables::pairwise(si))),
            ]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_target_runs_quick() {
        let scenario = Scenario::baseline(7);
        let run = run_targets(
            &available_targets(),
            &scenario,
            RunScale::Quick,
            &Parallelism::sequential(),
            false,
        );
        for (name, target) in available_targets().into_iter().zip(&run.targets) {
            assert_eq!(target.name, name);
            let out = &target.text;
            assert!(!out.is_empty(), "{name} produced no output");
            assert!(out.len() > 50, "{name} output suspiciously short");
        }
    }

    #[test]
    #[should_panic(expected = "unknown repro target")]
    fn unknown_target_panics() {
        let scenario = Scenario::baseline(7);
        let _ = run_target_obs("fig99", &scenario, RunScale::Quick, &Parallelism::sequential());
    }
}
