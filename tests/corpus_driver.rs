//! The corpus driver renders every target from one run per family:
//! an all-target run must print exactly what each target prints alone,
//! run each family's shards once, and export the same CSV documents a
//! direct `run_with` of the family yields.

use ptperf::executor::Parallelism;
use ptperf::experiments::{
    file_download, fixed_circuit, fixed_guard, location, medium, overhead, reliability,
    snowflake_load, speed_index, streaming, ttest_tables, ttfb, website_curl,
    website_selenium,
};
use ptperf::report;
use ptperf::scenario::Scenario;
use ptperf_bench::{available_targets, run_target_obs, run_targets, CorpusRun, RunScale};

const SEEDS: [u64; 2] = [42, 7];
const WORKERS: [usize; 2] = [1, 2];

fn all_targets(scenario: &Scenario, par: &Parallelism) -> CorpusRun {
    run_targets(&available_targets(), scenario, RunScale::Quick, par, true)
}

/// Masks the `campaign` render's wall-clock fields: the "… s elapsed"
/// figure and the shard-time column (the last cell of each table row).
fn mask_wall_clock(target: &str, text: &str) -> String {
    if target != "campaign" {
        return text.to_string();
    }
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with("Campaign execution") {
            out.push_str(line.rsplit_once(", ").map_or(line, |(head, _)| head));
        } else if line.starts_with('|') {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            out.push_str(&cells[..cells.len() - 2].join("|"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn all_target_renders_equal_single_target_renders() {
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        for workers in WORKERS {
            let par = Parallelism::new(workers);
            let all = all_targets(&scenario, &par);
            assert_eq!(all.targets.len(), available_targets().len());
            for (name, run) in available_targets().into_iter().zip(&all.targets) {
                assert_eq!(run.name, name);
                let alone = run_target_obs(name, &scenario, RunScale::Quick, &par);
                assert_eq!(
                    mask_wall_clock(name, &run.text),
                    mask_wall_clock(name, &alone.text),
                    "{name} at seed {seed}, {workers} worker(s)"
                );
            }
        }
    }
}

/// Every shard label of every family, from the families' own `units`.
fn family_labels(scenario: &Scenario) -> Vec<String> {
    fn labels<T>(units: Vec<ptperf::executor::Unit<T>>) -> Vec<String> {
        units.iter().map(|u| u.label().to_string()).collect()
    }
    [
        labels(website_curl::units(scenario, &website_curl::Config::quick())),
        labels(website_selenium::units(scenario, &website_selenium::Config::quick())),
        labels(fixed_circuit::units(scenario, &fixed_circuit::Config::quick())),
        labels(fixed_guard::units(scenario, &fixed_guard::Config::quick())),
        labels(file_download::units(scenario, &file_download::Config::quick())),
        labels(ttfb::units(scenario, &ttfb::Config::quick())),
        labels(location::units(scenario, &location::Config::quick())),
        labels(reliability::units(scenario, &reliability::Config::quick())),
        labels(medium::units(scenario, &medium::Config::quick())),
        labels(overhead::units(scenario, &overhead::Config::quick())),
        labels(snowflake_load::units(scenario, &snowflake_load::Config::quick())),
        labels(speed_index::units(scenario, &speed_index::Config::quick())),
        labels(streaming::units(scenario, &streaming::Config::quick())),
    ]
    .concat()
}

#[test]
fn each_family_runs_once_in_an_all_target_run() {
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        let mut expected = family_labels(&scenario);
        expected.sort();
        let distinct = expected.len();
        expected.dedup();
        assert_eq!(expected.len(), distinct, "shard labels are unique across families");
        for workers in WORKERS {
            let all = all_targets(&scenario, &Parallelism::new(workers));
            let mut seen: Vec<String> = all
                .targets
                .iter()
                .flat_map(|t| t.reports.iter().map(|r| r.label.clone()))
                .collect();
            seen.sort();
            assert_eq!(seen, expected, "seed {seed}, {workers} worker(s)");
            // At quick scale the campaign's families are the figures'
            // own runs: the table summarizes them, it does not rerun them.
            let campaign = all.targets.last().expect("campaign is listed last");
            assert_eq!(campaign.name, "campaign");
            assert!(campaign.reports.is_empty());
        }
    }
}

/// The CSV documents, built from each family's direct `run_with`.
fn direct_csv(scenario: &Scenario, par: &Parallelism) -> Vec<(String, String)> {
    let doc = |stem: &str, csv: String| (stem.to_string(), csv);
    let (curl, _) =
        website_curl::run_with(scenario, &website_curl::Config::quick(), par).expect("no panics");
    let (sel, _) = website_selenium::run_with(scenario, &website_selenium::Config::quick(), par)
        .expect("no panics");
    let (files, _) =
        file_download::run_with(scenario, &file_download::Config::quick(), par).expect("no panics");
    let (rel, _) =
        reliability::run_with(scenario, &reliability::Config::quick(), par).expect("no panics");
    let (si, _) =
        speed_index::run_with(scenario, &speed_index::Config::quick(), par).expect("no panics");
    let reliability_rows: Vec<Vec<String>> = rel
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
    vec![
        doc("fig2a_samples", report::samples_csv(&curl.samples)),
        doc("tables_3_4_ttests", report::ttests_csv(&ttest_tables::pairwise(&curl.samples))),
        doc(
            "table_10_categories",
            report::ttests_csv(&ttest_tables::category_pairwise(&curl.samples)),
        ),
        doc("fig2b_samples", report::samples_csv(&sel.samples)),
        doc("tables_5_6_ttests", report::ttests_csv(&ttest_tables::pairwise(&sel.samples))),
        doc("fig5_samples", report::samples_csv(&files.paired)),
        doc("table_7_ttests", report::ttests_csv(&ttest_tables::pairwise(&files.paired))),
        doc(
            "fig8a_reliability",
            report::csv(&["pt", "complete", "partial", "failed"], &reliability_rows),
        ),
        doc("fig11_speed_index", report::samples_csv(&si.speed_index)),
        doc("tables_8_9_ttests", report::ttests_csv(&ttest_tables::pairwise(&si.speed_index))),
    ]
}

#[test]
fn csv_documents_equal_direct_family_runs() {
    for seed in SEEDS {
        let scenario = Scenario::baseline(seed);
        for workers in WORKERS {
            let par = Parallelism::new(workers);
            let all = all_targets(&scenario, &par);
            let expected = direct_csv(&scenario, &par);
            let stems = |docs: &[(String, String)]| -> Vec<String> {
                docs.iter().map(|(stem, _)| stem.clone()).collect()
            };
            assert_eq!(stems(&all.csv), stems(&expected), "seed {seed}");
            for ((stem, got), (_, want)) in all.csv.iter().zip(&expected) {
                assert_eq!(got, want, "{stem} at seed {seed}, {workers} worker(s)");
            }
        }
    }
}
