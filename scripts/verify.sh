#!/usr/bin/env bash
# Tier-1 verification gate: everything must pass before a commit lands.
#   1. release build of the whole workspace (all targets)
#   2. full workspace test suite
#   3. clippy with warnings promoted to errors, then strict rustdoc
#      (every intra-doc link must resolve: a doc that names a deleted
#      item fails here)
#   3b. corpusbench type-check: `cargo check` of the corpus benchmark
#      against the working tree, so a change to a crate it links breaks
#      verify rather than the benchmark run; its Cargo.lock is restored
#      byte-identical afterwards
#   4. repro observability smoke run (--profile/--trace/--metrics),
#      plus the hist-report smoke (--hist: valid JSON, non-empty
#      per-PT phase histograms, finite quantiles) and the Chrome-trace
#      smoke (--trace-chrome: parses, first event is process metadata)
#   4b. fault smoke: the fault-neutrality suite plus a seeded
#      `repro --faults` run whose trace must carry consistent fault
#      counters (injected == retried + recovered + gave_up)
#   4c. corpus driver: an all-target `repro --paper --workers 2` prints
#      exactly the concatenation of the per-target runs (the campaign
#      table's elapsed time and shard-time column masked), and
#      `repro --csv DIR` writes each of the 10 CSV stems exactly once
#   5. perf smoke: quick link-sharing benches + repro --bench-flow
#      emitting BENCH_flow.json (fails on panic or non-finite output,
#      never on speed thresholds); structural gates: exactly the two
#      classes browser_64 and browser_256, every warm class keeps
#      allocs_per_step == 0, and steps_per_run is exactly 74 and 277
#      (deterministic counts: a loop that steps differently fails)
#   6. establish smoke: quick establish benches + repro --bench-establish
#      emitting BENCH_establish.json (same failure policy: panics and
#      non-finite values only, never timing thresholds); plus a count
#      gate: the vanilla classes must make at most 3 weighted picks per
#      establish (the lazy guard sample resolves only the guard used;
#      eager sampling makes 22). The count is deterministic.
#   7. unit smoke: quick unit benches + repro --bench-unit emitting
#      BENCH_unit.json; additionally asserts every warm class shows
#      allocs_per_unit == 0 — the one structural property the pooled
#      pipeline promises
#   8. bench regression gate: `repro --check-bench` compares the fresh
#      bench output against the committed BENCH_*.json baselines with a
#      relative-tolerance + minimum-run-count rule (PTPERF_BENCH_TOL,
#      default 2.5x; PTPERF_BENCH_DRIFT=warn to report without failing)
#      and fails the gate on a regression verdict
set -euo pipefail
cd "$(dirname "$0")/.."

# A bench JSON must never carry NaN/Infinity — the emitter renders
# non-finite numbers as null and a null in a p50 means the bench broke.
check_finite() {
  test -s "$1"
  if grep -qi "nan\|inf" "$1"; then
    echo "$(basename "$1") contains non-finite values" >&2
    exit 1
  fi
}

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== test (workspace) =="
cargo test --workspace -q

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== corpusbench type-check (against the working tree) =="
# The benchmark is a workspace of its own that links the program crates by
# path. Checking it may rewrite its lock file; put the committed one back
# on any exit so the checkout stays clean.
bench_lock=corpusbench/Cargo.lock
bench_lock_copy="$(mktemp)"
cp "$bench_lock" "$bench_lock_copy"
trap 'cp "$bench_lock_copy" "$bench_lock"; rm -f "$bench_lock_copy"' EXIT
cargo check -q --manifest-path corpusbench/Cargo.toml
cp "$bench_lock_copy" "$bench_lock"
rm -f "$bench_lock_copy"
trap - EXIT

echo "== repro observability smoke (fig6) =="
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
cargo run --release -q -p ptperf-bench --bin repro -- \
  --profile --trace "$obs_dir/trace.jsonl" --metrics "$obs_dir/metrics.json" \
  --hist "$obs_dir/hist.json" --trace-chrome "$obs_dir/chrome.json" \
  fig6 > "$obs_dir/out.txt"
grep -q "Profile —" "$obs_dir/out.txt"
test -s "$obs_dir/trace.jsonl"
test -s "$obs_dir/metrics.json"
repro() { cargo run --release -q -p ptperf-bench --bin repro -- "$@"; }

echo "== hist report smoke (valid JSON, per-PT phase hists, finite quantiles) =="
repro --json-check "$obs_dir/hist.json"
grep -q '"schema":"ptperf-hist/v1"' "$obs_dir/hist.json"
grep -q '"pt":"' "$obs_dir/hist.json"
grep -q '"phase":"handshake"' "$obs_dir/hist.json"
# Quantiles are integer nanoseconds; a null would mean a non-finite
# value leaked into the report, and a zero count an empty histogram.
if grep -q 'null' "$obs_dir/hist.json" || grep -q '"count":0[,}]' "$obs_dir/hist.json"; then
  echo "hist report carries empty histograms or non-finite values" >&2
  exit 1
fi

echo "== chrome trace smoke (parses; first event is process metadata) =="
repro --json-check "$obs_dir/chrome.json"
# One event per line, process-name metadata record first.
sed -n '2p' "$obs_dir/chrome.json" | grep -q '"name":"process_name".*"ph":"M"'
grep -q '"ph":"X"' "$obs_dir/chrome.json"
grep -q '"ph":"C"' "$obs_dir/chrome.json"

echo "== fault smoke (neutrality + seeded plan counters) =="
cargo test --release -q --test fault_neutrality > /dev/null
cargo run --release -q -p ptperf-bench --bin repro -- \
  --faults --trace "$obs_dir/fault_trace.jsonl" fig8a > "$obs_dir/fault_out.txt"
grep -q '"key":"fault/injected"' "$obs_dir/fault_trace.jsonl"
# The disposition identity: every injected fault is retried, recovered,
# or given up on — nothing is dropped on the floor.
awk -F'"value":' '
  /"key":"fault\/injected"/  { split($2, v, /[,}]/); injected  += v[1] }
  /"key":"fault\/retried"/   { split($2, v, /[,}]/); retried   += v[1] }
  /"key":"fault\/recovered"/ { split($2, v, /[,}]/); recovered += v[1] }
  /"key":"fault\/gave_up"/   { split($2, v, /[,}]/); gave_up   += v[1] }
  END {
    if (injected == 0 || injected != retried + recovered + gave_up) {
      printf "fault counters inconsistent: injected=%d retried=%d recovered=%d gave_up=%d\n", \
        injected, retried, recovered, gave_up > "/dev/stderr"
      exit 1
    }
  }' "$obs_dir/fault_trace.jsonl"

echo "== corpus driver (all-target render = per-target renders; one write per CSV stem) =="
bin=target/release/repro
# The campaign table's wall clock differs run to run: mask the elapsed
# figure and the last (shard-time) cell of each of its table rows.
mask_wall_clock() {
  sed -E -e 's/, [0-9.]+ s elapsed$/, * s elapsed/' \
    -e '/^=+ campaign =+$/,/^=+ [a-z0-9]+ =+$/{/^\|/s/\|[^|]*\|$/| * |/}'
}
# Each run prints a two-line header (settings, blank) before its sections.
"$bin" --quiet --paper --workers 2 | sed 1,2d | mask_wall_clock > "$obs_dir/corpus_all.txt"
for t in $("$bin" --list); do
  "$bin" --quiet --paper --workers 2 "$t" | sed 1,2d
done | mask_wall_clock > "$obs_dir/corpus_each.txt"
cmp "$obs_dir/corpus_all.txt" "$obs_dir/corpus_each.txt"
"$bin" --workers 2 --csv "$obs_dir/csv" > /dev/null 2> "$obs_dir/csv.log"
test "$(grep -c ' wrote ' "$obs_dir/csv.log")" -eq 10
for stem in fig2a_samples tables_3_4_ttests table_10_categories fig2b_samples \
  tables_5_6_ttests fig5_samples table_7_ttests fig8a_reliability \
  fig11_speed_index tables_8_9_ttests; do
  test "$(grep -c " wrote $obs_dir/csv/$stem.csv$" "$obs_dir/csv.log")" -eq 1
done

echo "== perf smoke (flow benches, quick mode) =="
cargo bench -q -p ptperf-bench --bench flow > "$obs_dir/bench_flow.txt"
grep -q "share_link/browser_64" "$obs_dir/bench_flow.txt"
PTPERF_FLOWBENCH_RUNS=40 cargo run --release -q -p ptperf-bench --bin repro -- \
  --bench-flow --bench-out "$obs_dir/BENCH_flow.json" > "$obs_dir/bench_out.txt"
check_finite "$obs_dir/BENCH_flow.json"
# Link-sharing structural gates (one class per JSON line): exactly the
# two browser classes report, warm runs never grow a buffer, and each
# class takes its committed number of constant-rate steps.
awk '
  /"name":/ {
    classes++
    n = $0;   sub(/.*"name": "/, "", n);            sub(/".*/, "", n)
    st = $0;  sub(/.*"steps_per_run": /, "", st);   sub(/[,}].*/, "", st)
    al = $0;  sub(/.*"allocs_per_step": /, "", al); sub(/[,}].*/, "", al)
    if (al + 0 != 0) {
      printf "class %s allocates warm: allocs_per_step=%s\n", n, al > "/dev/stderr"
      bad = 1
    }
    want = (n == "browser_64") ? 74 : (n == "browser_256") ? 277 : -1
    if (st + 0 != want) {
      printf "class %s: steps_per_run %s, expected %d\n", n, st, want > "/dev/stderr"
      bad = 1
    }
  }
  END {
    if (classes != 2) {
      printf "expected 2 flow classes, found %d\n", classes > "/dev/stderr"
      bad = 1
    }
    exit bad
  }' "$obs_dir/BENCH_flow.json"

echo "== perf smoke (establish benches, quick mode) =="
cargo bench -q -p ptperf-bench --bench establish > "$obs_dir/bench_establish.txt"
grep -q "establish/vanilla_600_indexed" "$obs_dir/bench_establish.txt"
PTPERF_ESTABLISHBENCH_RUNS=20 cargo run --release -q -p ptperf-bench --bin repro -- \
  --bench-establish --bench-out "$obs_dir/BENCH_establish.json" > "$obs_dir/establish_out.txt"
check_finite "$obs_dir/BENCH_establish.json"
# Lazy guard sample count gate (one class per JSON line): both vanilla
# classes must report, each with picks_per_establish <= 3.
awk '
  /"name": "vanilla_(600|5000)"/ {
    seen++
    n = $0;  sub(/.*"name": "/, "", n);               sub(/".*/, "", n)
    p = $0;  sub(/.*"picks_per_establish": /, "", p); sub(/[,}].*/, "", p)
    if (p !~ /^[0-9.eE+-]+$/ || p + 0 > 3) {
      printf "class %s: picks_per_establish %s > 3 (guard sample resolved eagerly?)\n", \
        n, p > "/dev/stderr"
      bad = 1
    }
  }
  END {
    if (seen != 2) {
      printf "expected the vanilla_600 and vanilla_5000 classes, found %d\n", seen > "/dev/stderr"
      bad = 1
    }
    exit bad
  }' "$obs_dir/BENCH_establish.json"

echo "== perf smoke (unit benches, quick mode) =="
cargo bench -q -p ptperf-bench --bench unit > "$obs_dir/bench_unit.txt"
grep -q "unit/browser_obfs4_16_pooled" "$obs_dir/bench_unit.txt"
PTPERF_UNITBENCH_RUNS=20 cargo run --release -q -p ptperf-bench --bin repro -- \
  --bench-unit --bench-out "$obs_dir/BENCH_unit.json" > "$obs_dir/unit_out.txt"
check_finite "$obs_dir/BENCH_unit.json"
# The one structural promise the pooled pipeline makes: warm units never
# grow their scratch. Any non-zero allocs_per_unit is a regression.
while read -r allocs; do
  if [ "$allocs" != "0" ]; then
    echo "warm unit pipeline allocates: allocs_per_unit=$allocs" >&2
    exit 1
  fi
done < <(grep -o '"allocs_per_unit": [0-9.eE+-]*' "$obs_dir/BENCH_unit.json" | awk '{print $2}')

echo "== bench regression gate vs committed baselines =="
# The statistically-gated replacement for the old warn-only awk 2x
# heuristic: pairs every *p50_us by structural path, skips fresh docs
# with too few runs, ignores sub-microsecond jitter, and fails on a
# slowdown past the tolerance. PTPERF_BENCH_DRIFT=warn downgrades the
# gate to a report for cross-machine baseline refreshes.
repro --check-bench "$obs_dir" | tee "$obs_dir/bench_verdict.json"
repro --json-check "$obs_dir/bench_verdict.json"
grep -q '"verdict":"pass"\|"verdict":"warn"' "$obs_dir/bench_verdict.json"

echo "== verify: all gates passed =="
