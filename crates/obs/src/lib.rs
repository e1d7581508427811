//! Deterministic observability for the PTPerf reproduction.
//!
//! The crate has two strictly separated halves:
//!
//! * **Sim-time instrumentation** ([`Recorder`], [`SpanRecord`],
//!   [`ShardObsData`], [`PhaseAccum`]) — spans and counters keyed to
//!   *simulated* nanoseconds. Because the simulation is deterministic,
//!   this data is deterministic too: the same scenario seed yields a
//!   byte-identical trace at any worker count. The recording hooks are
//!   behind the [`Recorder`] trait whose default implementation is a
//!   no-op, and instrumented code paths are the *same functions* as the
//!   un-instrumented ones, so turning recording on cannot perturb a
//!   single result bit (proven by `tests/obs_neutrality.rs` at the
//!   workspace root).
//!
//! * **Wall-clock metrics** ([`MetricsRegistry`], [`FamilyMetrics`]) —
//!   real elapsed time per shard, aggregated per experiment family with
//!   p50/p95 and worker utilization. Wall clock is inherently
//!   nondeterministic, so this data never enters the trace stream; it
//!   lives in its own registry and its own export file.
//!
//! A third, minor facility is leveled diagnostic logging
//! ([`Level`], [`set_level`], and the `obs_error!`/`obs_warn!`/
//! `obs_info!`/`obs_debug!` macros) — stderr-only, filtered by a global
//! atomic level so binaries can offer `--quiet`/`-v` without threading
//! a logger handle everywhere.
//!
//! Sim-time instrumentation includes a distributional layer: the
//! [`hist`] module's fixed-layout log-linear [`Hist`] records per-event
//! phase latencies without retaining samples, merges exactly across
//! shards in any order, and reads out p50/p90/p99/p99.9 — so the same
//! determinism guarantee (byte-identical at any worker count) extends
//! to latency distributions. Spans form parent-linked trees with
//! stable ids ([`Recorder::span_in`]), which the Chrome-trace exporter
//! in `ptperf-bench` renders for real trace viewers. The [`registry`]
//! module is the documented census of every counter key the workspace
//! emits, enforced by a grep-based coverage test.
//!
//! A fourth facility is the process-wide performance counter set in
//! [`perf`] — monotone relaxed atomics (`path/index_pick`,
//! `path/scan_fallback`, `deployment/rebuilds_saved`,
//! `browser/scratch_hits`, `site/rebuilds_saved`)
//! for hot paths that have no recorder handle or whose tallies depend
//! on warmup state and therefore must not enter the trace stream. They are write-only from simulation
//! code and excluded from the deterministic trace stream.
//!
//! The crate is intentionally dependency-free (it sits *below*
//! `ptperf-tor`, `ptperf-web` and everything above them in the crate
//! graph, so the model layers can record into it) and contains no
//! randomness and no global mutable state besides the log-level atomic
//! and the write-only [`perf`] counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod perf;
pub mod recorder;
pub mod registry;

pub use hist::Hist;
pub use log::{set_level, Level};
pub use metrics::{FamilyMetrics, MetricsRegistry};
pub use recorder::{MemoryRecorder, NullRecorder, PhaseAccum, Recorder, ShardObsData, SpanRecord};
