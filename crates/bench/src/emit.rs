//! Shared measurement and emission plumbing for the bench harnesses.
//!
//! Every `repro --bench-*` harness used to carry its own copy of the
//! same boilerplate: an environment-variable run-count reader clamped
//! to a percentile-safe minimum, a non-finite measurement guard, the
//! `Instant`/`black_box` timing loop, the p50/p95 pair, the
//! throughput-at-p50 and speedup ratios, and the outer JSON document
//! shell. This module is the single copy; the harnesses keep only
//! what is genuinely theirs (workload construction, equivalence
//! gates, and their schema's per-class fields).

use std::time::Instant;

use ptperf_obs::json;
use ptperf_stats::quantile;

/// Reads a run count from the environment variable `var`, defaulting
/// to `default`; values below 4 are clamped up so the percentiles stay
/// meaningful.
pub fn runs_from_env(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(4)
}

/// Hard-fails on a non-finite measurement: a NaN or infinity in a
/// bench document poisons every later comparison, so the harness must
/// die where the corruption happened, not at the regression gate.
pub fn assert_finite(label: &str, what: &str, x: f64) {
    assert!(
        x.is_finite(),
        "{label}: non-finite {what} ({x}) — measurement is corrupt"
    );
}

/// Times `runs` executions of `body`, returning per-run wall times in
/// microseconds. Each run's result goes through `black_box` so the
/// optimizer cannot discard the measured work; the vector is
/// preallocated so the loop itself performs no harness allocations.
pub fn timed_runs<T>(runs: usize, mut body: impl FnMut() -> T) -> Vec<f64> {
    let mut us = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        let out = body();
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    us
}

/// The (p50, p95) pair of a timing vector, in its own unit.
pub fn p50_p95(us: &[f64]) -> (f64, f64) {
    (quantile(us, 0.50), quantile(us, 0.95))
}

/// Work items per second at the p50 wall time (µs); infinite when the
/// p50 rounds to zero (sub-resolution runs), never NaN.
pub fn per_sec(units_per_run: f64, p50_us: f64) -> f64 {
    if p50_us > 0.0 {
        units_per_run / (p50_us / 1e6)
    } else {
        f64::INFINITY
    }
}

/// The headline `reference_p50 / optimized_p50` ratio; infinite when
/// the optimized lane is below timer resolution, never NaN.
pub fn speedup(ref_p50: f64, opt_p50: f64) -> f64 {
    if opt_p50 > 0.0 {
        ref_p50 / opt_p50
    } else {
        f64::INFINITY
    }
}

/// Assembles the common outer `BENCH_*.json` shell: schema identifier,
/// run count, then the caller's top-level sections joined by commas.
/// Every section is a complete `  "key": value` line (or multi-line
/// block) with the two-space indent already applied — see
/// [`json_array_section`] for the list-shaped ones.
pub fn json_shell(schema: &str, runs: usize, sections: &[String]) -> String {
    format!(
        "{{\n  \"schema\": {},\n  \"runs_per_class\": {},\n{}\n}}\n",
        json::string(schema),
        runs,
        sections.join(",\n"),
    )
}

/// A top-level JSON array section (`  "key": [ ... ]`) holding
/// pre-rendered items, for use with [`json_shell`].
pub fn json_array_section(key: &str, items: &[String]) -> String {
    format!("  {}: [\n{}\n  ]", json::string(key), items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_counts_come_from_the_environment_with_a_floor() {
        // An unset variable falls back to the default...
        assert_eq!(runs_from_env("PTPERF_EMIT_TEST_UNSET", 37), 37);
        // ...garbage falls back too, and the floor applies everywhere.
        std::env::set_var("PTPERF_EMIT_TEST_RUNS", "not-a-number");
        assert_eq!(runs_from_env("PTPERF_EMIT_TEST_RUNS", 50), 50);
        std::env::set_var("PTPERF_EMIT_TEST_RUNS", "2");
        assert_eq!(runs_from_env("PTPERF_EMIT_TEST_RUNS", 50), 4);
        std::env::set_var("PTPERF_EMIT_TEST_RUNS", "120");
        assert_eq!(runs_from_env("PTPERF_EMIT_TEST_RUNS", 50), 120);
        std::env::remove_var("PTPERF_EMIT_TEST_RUNS");
        assert_eq!(runs_from_env("PTPERF_EMIT_TEST_RUNS", 3), 4);
    }

    #[test]
    #[should_panic(expected = "non-finite p50")]
    fn non_finite_measurements_fail_hard() {
        assert_finite("some bench", "p50", f64::NAN);
    }

    #[test]
    fn ratios_never_produce_nan() {
        assert_eq!(per_sec(100.0, 0.0), f64::INFINITY);
        assert_eq!(speedup(5.0, 0.0), f64::INFINITY);
        assert_eq!(speedup(5.0, 2.5), 2.0);
        assert_eq!(per_sec(10.0, 1e6), 10.0);
    }

    #[test]
    fn timed_runs_returns_one_sample_per_run() {
        let us = timed_runs(7, || std::hint::black_box(1 + 1));
        assert_eq!(us.len(), 7);
        assert!(us.iter().all(|x| x.is_finite() && *x >= 0.0));
        let (p50, p95) = p50_p95(&us);
        assert!(p50 <= p95);
    }

    #[test]
    fn json_shell_emits_valid_parseable_documents() {
        let doc = json_shell(
            "ptperf-bench-test/v1",
            12,
            &[
                "  \"tolerance\": 2.5".to_string(),
                json_array_section("classes", &["    {\"name\": \"a\"}".to_string()]),
            ],
        );
        json::parse(&doc).expect("shell must emit valid JSON");
        assert!(doc.contains("\"schema\": \"ptperf-bench-test/v1\""));
        assert!(doc.contains("\"runs_per_class\": 12"));
        assert!(doc.ends_with('\n'));
    }
}
