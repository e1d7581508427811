//! The bench-regression gate behind `repro --check-bench`.
//!
//! The committed `BENCH_*.json` baselines record what the optimized
//! hot paths cost on the machine that produced them. This module
//! parses a baseline document and a freshly generated one (with the
//! hand-rolled `ptperf_obs::json` parser — the build is offline),
//! pairs up every `*p50_us` entry by its structural path, and applies
//! a relative-tolerance rule with two statistical guards:
//!
//! * **Minimum run count** — a fresh document whose `runs_per_class`
//!   is below the floor is skipped entirely: a p50 over a handful of
//!   runs is noise, and gating on it would make `verify.sh` flaky.
//! * **Absolute floor** — a pair only counts as a regression when the
//!   drift also exceeds an absolute microsecond delta, so
//!   sub-microsecond entries (e.g. memo-cache hits) can't trip the
//!   gate on scheduler jitter.
//!
//! Only *slowdowns* fail the gate (`fresh > baseline × tolerance`);
//! speedups beyond the same tolerance are reported informationally so
//! a stale baseline is visible without blocking an optimization PR.
//! A baseline entry with no fresh counterpart is reported as *missing*
//! and fails the gate too: a fresh document whose classes were renamed
//! or dropped would otherwise compare nothing and pass.
//! Knobs: `PTPERF_BENCH_TOL` (relative tolerance, default 2.5),
//! `PTPERF_BENCH_MIN_RUNS` (default 10), `PTPERF_BENCH_ABS` (µs floor,
//! default 1.0), and `PTPERF_BENCH_DRIFT` (`fail` | `warn`, default
//! `fail` — `warn` reports but exits zero). The verdict is a
//! machine-readable JSON document (`ptperf-bench-regress/v1`); the old
//! warn-only 2x awk heuristic in `verify.sh` routed here.

use std::path::Path;

use ptperf_obs::json::{self, Value};

/// Tuning for one gate evaluation, usually read [`RegressConfig::from_env`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegressConfig {
    /// Relative tolerance: a pair regresses when
    /// `fresh > baseline * tolerance`.
    pub tolerance: f64,
    /// Absolute floor in microseconds: drift below this never counts.
    pub min_abs_us: f64,
    /// Fresh documents with fewer `runs_per_class` than this are
    /// skipped (not compared at all).
    pub min_runs: f64,
    /// `true` (default): regressions fail the gate. `false`
    /// (`PTPERF_BENCH_DRIFT=warn`): regressions are reported but the
    /// gate passes.
    pub fail_mode: bool,
}

impl Default for RegressConfig {
    fn default() -> RegressConfig {
        RegressConfig {
            tolerance: 2.5,
            min_abs_us: 1.0,
            min_runs: 10.0,
            fail_mode: true,
        }
    }
}

impl RegressConfig {
    /// Reads `PTPERF_BENCH_TOL` / `PTPERF_BENCH_ABS` /
    /// `PTPERF_BENCH_MIN_RUNS` / `PTPERF_BENCH_DRIFT`, keeping the
    /// defaults for unset or unparsable values.
    pub fn from_env() -> RegressConfig {
        let mut cfg = RegressConfig::default();
        if let Some(t) = env_f64("PTPERF_BENCH_TOL") {
            if t > 1.0 {
                cfg.tolerance = t;
            }
        }
        if let Some(a) = env_f64("PTPERF_BENCH_ABS") {
            if a >= 0.0 {
                cfg.min_abs_us = a;
            }
        }
        if let Some(r) = env_f64("PTPERF_BENCH_MIN_RUNS") {
            if r >= 1.0 {
                cfg.min_runs = r;
            }
        }
        if let Ok(mode) = std::env::var("PTPERF_BENCH_DRIFT") {
            cfg.fail_mode = mode != "warn";
        }
        cfg
    }
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.parse().ok()
}

/// One paired entry whose drift exceeded the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDrift {
    /// Structural path of the entry, e.g.
    /// `classes/browser_64/optimized/p50_us`.
    pub path: String,
    /// Committed baseline value (µs).
    pub baseline_us: f64,
    /// Freshly measured value (µs).
    pub fresh_us: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
}

/// The gate's result for one baseline/fresh file pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileReport {
    /// Baseline file name, e.g. `BENCH_flow.json`.
    pub file: String,
    /// `runs_per_class` of the fresh document (0 when absent).
    pub runs: f64,
    /// Number of `*p50_us` pairs present in both documents.
    pub compared: usize,
    /// Why the file was skipped instead of compared, if it was.
    pub skipped: Option<String>,
    /// Pairs that got slower past the tolerance (fail the gate).
    pub regressions: Vec<PairDrift>,
    /// Pairs that got faster past the tolerance (informational).
    pub improvements: Vec<PairDrift>,
    /// Baseline `*p50_us` paths the fresh document lacks (fail the
    /// gate).
    pub missing: Vec<String>,
}

/// Collects every `*p50_us` numeric field of `doc` as
/// `(structural path, value)` pairs. Path segments are object keys,
/// with a class object's `"name"` field spliced in so array entries
/// stay identifiable (`classes/browser_64/optimized/p50_us`).
pub fn collect_p50(doc: &Value) -> Vec<(String, f64)> {
    fn walk(v: &Value, prefix: &str, out: &mut Vec<(String, f64)>) {
        match v {
            Value::Obj(fields) => {
                let labeled = match v.get("name").and_then(Value::as_str) {
                    Some(name) if prefix.is_empty() => name.to_string(),
                    Some(name) => format!("{prefix}/{name}"),
                    None => prefix.to_string(),
                };
                for (k, val) in fields {
                    if k == "name" {
                        continue;
                    }
                    let path = if labeled.is_empty() {
                        k.clone()
                    } else {
                        format!("{labeled}/{k}")
                    };
                    match val {
                        Value::Num(x) if k.ends_with("p50_us") => out.push((path, *x)),
                        _ => walk(val, &path, out),
                    }
                }
            }
            Value::Arr(items) => {
                for item in items {
                    walk(item, prefix, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

/// Compares one baseline document against its fresh counterpart.
pub fn compare_docs(
    file: &str,
    baseline: &Value,
    fresh: &Value,
    cfg: &RegressConfig,
) -> FileReport {
    let mut report = FileReport {
        file: file.to_string(),
        runs: fresh
            .get("runs_per_class")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        ..FileReport::default()
    };
    if report.runs < cfg.min_runs {
        report.skipped = Some(format!(
            "fresh runs_per_class {} below minimum {}",
            report.runs, cfg.min_runs
        ));
        return report;
    }
    let base_entries = collect_p50(baseline);
    let fresh_entries = collect_p50(fresh);
    for (path, base_us) in &base_entries {
        let Some((_, fresh_us)) = fresh_entries.iter().find(|(p, _)| p == path) else {
            report.missing.push(path.clone());
            continue;
        };
        report.compared += 1;
        if *base_us <= 0.0 || *fresh_us <= 0.0 {
            continue;
        }
        let drift = PairDrift {
            path: path.clone(),
            baseline_us: *base_us,
            fresh_us: *fresh_us,
            ratio: fresh_us / base_us,
        };
        if *fresh_us > base_us * cfg.tolerance && fresh_us - base_us > cfg.min_abs_us {
            report.regressions.push(drift);
        } else if *base_us > fresh_us * cfg.tolerance && base_us - fresh_us > cfg.min_abs_us {
            report.improvements.push(drift);
        }
    }
    report
}

/// Runs the gate over every `BENCH_*.json` in `baseline_dir`, pairing
/// each with the same-named file in `fresh_dir`. Returns the verdict
/// document and whether the gate passed (always `true` in warn mode).
pub fn check_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    cfg: &RegressConfig,
) -> (String, bool) {
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    let mut reports = Vec::new();
    for name in &names {
        let base_path = baseline_dir.join(name);
        let fresh_path = fresh_dir.join(name);
        let mut report = FileReport {
            file: name.clone(),
            ..FileReport::default()
        };
        match (read_doc(&base_path), read_doc(&fresh_path)) {
            (Ok(base), Ok(fresh)) => report = compare_docs(name, &base, &fresh, cfg),
            (Err(e), _) => report.skipped = Some(format!("baseline unreadable: {e}")),
            (_, Err(e)) => report.skipped = Some(format!("fresh copy unreadable: {e}")),
        }
        reports.push(report);
    }
    let regressed = reports
        .iter()
        .any(|r| !r.regressions.is_empty() || !r.missing.is_empty());
    let verdict = match (regressed, cfg.fail_mode) {
        (false, _) => "pass",
        (true, true) => "fail",
        (true, false) => "warn",
    };
    (render_report(&reports, cfg, verdict), !(regressed && cfg.fail_mode))
}

fn read_doc(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders the machine-readable verdict (`ptperf-bench-regress/v1`).
pub fn render_report(reports: &[FileReport], cfg: &RegressConfig, verdict: &str) -> String {
    let drifts = |list: &[PairDrift]| {
        list.iter()
            .map(|d| {
                format!(
                    "{{\"path\":{},\"baseline_us\":{},\"fresh_us\":{},\"ratio\":{}}}",
                    json::string(&d.path),
                    json::number(d.baseline_us),
                    json::number(d.fresh_us),
                    json::number(d.ratio)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let files = reports
        .iter()
        .map(|r| {
            let skipped = match &r.skipped {
                Some(reason) => json::string(reason),
                None => "null".to_string(),
            };
            let missing = r.missing.iter().map(|p| json::string(p)).collect::<Vec<_>>();
            format!(
                "{{\"file\":{},\"runs\":{},\"compared\":{},\"skipped\":{},\"regressions\":[{}],\"improvements\":[{}],\"missing\":[{}]}}",
                json::string(&r.file),
                json::number(r.runs),
                r.compared,
                skipped,
                drifts(&r.regressions),
                drifts(&r.improvements),
                missing.join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schema\":\"ptperf-bench-regress/v1\",\"tolerance\":{},\"min_abs_us\":{},\"min_runs\":{},\"mode\":{},\"files\":[{files}],\"verdict\":{}}}\n",
        json::number(cfg.tolerance),
        json::number(cfg.min_abs_us),
        json::number(cfg.min_runs),
        json::string(if cfg.fail_mode { "fail" } else { "warn" }),
        json::string(verdict)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(p50: f64) -> Value {
        json::parse(&format!(
            "{{\"schema\":\"ptperf-bench-flow/v1\",\"runs_per_class\":400,\
             \"classes\":[{{\"name\":\"browser_64\",\"optimized\":{{\"p50_us\":{p50},\"p95_us\":50.0}},\
             \"reference\":{{\"p50_us\":300.0}}}}],\
             \"sites\":{{\"cached_p50_us\":0.05}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn collects_p50_entries_with_structural_paths() {
        let entries = collect_p50(&bench_doc(27.0));
        let paths: Vec<&str> = entries.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "classes/browser_64/optimized/p50_us",
                "classes/browser_64/reference/p50_us",
                "sites/cached_p50_us",
            ]
        );
        assert_eq!(entries[0].1, 27.0);
    }

    #[test]
    fn identical_docs_pass() {
        let doc = bench_doc(27.0);
        let report = compare_docs("BENCH_flow.json", &doc, &doc, &RegressConfig::default());
        assert_eq!(report.compared, 3);
        assert!(report.missing.is_empty());
        assert!(report.regressions.is_empty());
        assert!(report.improvements.is_empty());
        assert!(report.skipped.is_none());
    }

    #[test]
    fn injected_3x_regression_fails() {
        let base = bench_doc(27.0);
        let fresh = bench_doc(81.0);
        let report = compare_docs("BENCH_flow.json", &base, &fresh, &RegressConfig::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].path,
            "classes/browser_64/optimized/p50_us"
        );
        assert!((report.regressions[0].ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let base = bench_doc(27.0);
        let fresh = bench_doc(54.0); // 2x < default 2.5x
        let report = compare_docs("BENCH_flow.json", &base, &fresh, &RegressConfig::default());
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn sub_microsecond_drift_is_ignored() {
        // cached_p50_us jumps 10x but the absolute delta is 0.45 µs,
        // under the 1 µs floor — noise, not a regression.
        let mut base = bench_doc(27.0);
        let fresh = bench_doc(27.0);
        if let Value::Obj(fields) = &mut base {
            if let Some((_, Value::Obj(sites))) = fields.iter_mut().find(|(k, _)| k == "sites") {
                sites[0].1 = Value::Num(0.005);
            }
        }
        let report = compare_docs("BENCH_flow.json", &base, &fresh, &RegressConfig::default());
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }

    #[test]
    fn large_speedup_is_informational_not_failing() {
        let base = bench_doc(81.0);
        let fresh = bench_doc(27.0);
        let report = compare_docs("BENCH_flow.json", &base, &fresh, &RegressConfig::default());
        assert!(report.regressions.is_empty());
        assert_eq!(report.improvements.len(), 1);
    }

    #[test]
    fn short_fresh_runs_are_skipped() {
        let base = bench_doc(27.0);
        let fresh = json::parse(
            "{\"runs_per_class\":3,\"classes\":[{\"name\":\"browser_64\",\
             \"optimized\":{\"p50_us\":500.0}}]}",
        )
        .unwrap();
        let report = compare_docs("BENCH_flow.json", &base, &fresh, &RegressConfig::default());
        assert!(report.skipped.is_some());
        assert_eq!(report.compared, 0);
        assert!(report.regressions.is_empty());
    }

    #[test]
    fn report_renders_valid_json_with_verdict() {
        let base = bench_doc(27.0);
        let fresh = bench_doc(81.0);
        let cfg = RegressConfig::default();
        let report = compare_docs("BENCH_flow.json", &base, &fresh, &cfg);
        let doc = render_report(&[report], &cfg, "fail");
        let v = json::parse(&doc).expect("verdict is valid JSON");
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("fail"));
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("ptperf-bench-regress/v1")
        );
        let files = v.get("files").and_then(Value::as_array).unwrap();
        assert_eq!(
            files[0]
                .get("regressions")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn fresh_doc_with_a_renamed_class_fails() {
        let dir = std::env::temp_dir().join(format!(
            "ptperf-regress-renamed-{}",
            std::process::id()
        ));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();
        let base = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"c\",\"optimized\":{\"p50_us\":10.0}}]}";
        let renamed = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"d\",\"optimized\":{\"p50_us\":10.0}}]}";
        std::fs::write(base_dir.join("BENCH_x.json"), base).unwrap();
        std::fs::write(fresh_dir.join("BENCH_x.json"), renamed).unwrap();
        let cfg = RegressConfig::default();
        let (doc, ok) = check_dirs(&base_dir, &fresh_dir, &cfg);
        let warn_cfg = RegressConfig { fail_mode: false, ..cfg };
        let (warn_doc, warn_ok) = check_dirs(&base_dir, &fresh_dir, &warn_cfg);
        std::fs::remove_dir_all(&dir).ok();
        assert!(!ok, "a fresh doc that compares nothing must fail: {doc}");
        assert!(doc.contains("\"compared\":0"), "{doc}");
        assert!(
            doc.contains("\"missing\":[\"classes/c/optimized/p50_us\"]"),
            "{doc}"
        );
        assert!(doc.contains("\"verdict\":\"fail\""), "{doc}");
        json::parse(&doc).expect("verdict is valid JSON");
        // Warn mode reports the same gap but passes.
        assert!(warn_ok);
        assert!(warn_doc.contains("\"verdict\":\"warn\""), "{warn_doc}");
    }

    #[test]
    fn missing_entries_are_listed_unless_below_the_run_floor() {
        let base = bench_doc(27.0);
        let dropped = json::parse(
            "{\"runs_per_class\":400,\"classes\":[{\"name\":\"browser_64\",\
             \"optimized\":{\"p50_us\":27.0}}]}",
        )
        .unwrap();
        let cfg = RegressConfig::default();
        let report = compare_docs("BENCH_flow.json", &base, &dropped, &cfg);
        assert_eq!(report.compared, 1);
        assert_eq!(
            report.missing,
            vec![
                "classes/browser_64/reference/p50_us".to_string(),
                "sites/cached_p50_us".to_string()
            ]
        );
        // Below the run floor nothing is compared, so nothing is missing.
        let short = json::parse("{\"runs_per_class\":3,\"classes\":[]}").unwrap();
        let report = compare_docs("BENCH_flow.json", &base, &short, &cfg);
        assert!(report.skipped.is_some());
        assert!(report.missing.is_empty());
    }

    #[test]
    fn check_dirs_gates_end_to_end() {
        let dir = std::env::temp_dir().join(format!(
            "ptperf-regress-test-{}",
            std::process::id()
        ));
        let base_dir = dir.join("base");
        let fresh_dir = dir.join("fresh");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();
        let base = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"c\",\"optimized\":{\"p50_us\":10.0}}]}";
        let slow = "{\"runs_per_class\":400,\"classes\":[{\"name\":\"c\",\"optimized\":{\"p50_us\":30.0}}]}";
        std::fs::write(base_dir.join("BENCH_x.json"), base).unwrap();
        std::fs::write(fresh_dir.join("BENCH_x.json"), slow).unwrap();
        let cfg = RegressConfig::default();
        let (doc, ok) = check_dirs(&base_dir, &fresh_dir, &cfg);
        assert!(!ok, "3x regression must fail the gate: {doc}");
        assert!(doc.contains("\"verdict\":\"fail\""));
        // Warn mode reports the same drift but passes.
        let warn_cfg = RegressConfig { fail_mode: false, ..cfg };
        let (doc, ok) = check_dirs(&base_dir, &fresh_dir, &warn_cfg);
        assert!(ok);
        assert!(doc.contains("\"verdict\":\"warn\""));
        // Identical copies pass outright.
        std::fs::write(fresh_dir.join("BENCH_x.json"), base).unwrap();
        let (doc, ok) = check_dirs(&base_dir, &fresh_dir, &cfg);
        assert!(ok);
        assert!(doc.contains("\"verdict\":\"pass\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
