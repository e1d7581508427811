//! Deterministic work-claiming parallel executor for campaign shards.
//!
//! The campaign decomposes into independent units — one per
//! `(experiment family × RNG stream)` — and every unit derives its
//! randomness from [`crate::scenario::Scenario::rng`] with a stable
//! stream tag, never from a shared sequential RNG. That makes the
//! decomposition *embarrassingly parallel and bit-for-bit reproducible*:
//! the executor may run units on any number of [`std::thread`] workers,
//! in any claiming order, and the merged output is identical to a
//! sequential run because
//!
//! 1. each unit's randomness is a function of `(scenario seed, tag)`
//!    only, and
//! 2. results are always merged in shard-index order, not completion
//!    order.
//!
//! Workers claim units one at a time from a shared atomic cursor
//! (work-claiming — the cheap cousin of work stealing: idle workers keep
//! pulling whatever units remain, so a straggler shard never idles the
//! rest of the pool behind a static partition).
//! Each unit runs under [`std::panic::catch_unwind`], so one failing
//! shard is reported with its label while sibling shards complete
//! normally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ptperf_obs::{MemoryRecorder, NullRecorder, Recorder, ShardObsData};
use ptperf_transports::EstablishScratch;
use ptperf_web::PageScratch;

/// Per-worker reusable buffers for measurement units: everything a unit
/// pipeline needs to run allocation-free once warm. One `UnitScratch`
/// lives on each worker thread for the lifetime of the pool, so
/// consecutive units on the same worker reuse the same
/// channel-establishment and page-load buffers. Every unit closure
/// receives one; results are proven independent of scratch warmth by the
/// determinism suite, which runs each unit alone (a pool of one unit
/// starts from a cold scratch) as its reference lane.
#[derive(Debug, Default)]
pub struct UnitScratch {
    /// Channel-establishment scratch (relay-selection buffers).
    pub establish: EstablishScratch,
    /// Browser page-load scratch (sub-resource flows, link-sharing
    /// buffer, finish times).
    pub page: PageScratch,
}

impl UnitScratch {
    /// An empty (cold) scratch.
    pub fn new() -> UnitScratch {
        UnitScratch::default()
    }

    /// Total buffer-growth events across all members — the workspace's
    /// allocation proxy. Unchanged across a warm unit means the unit
    /// performed no heap allocation in the pooled pipeline.
    pub fn grows(&self) -> u64 {
        self.establish.grows() + self.page.grows()
    }
}

/// Whether shards record sim-time observations.
///
/// Off by default: with [`Record::Off`] every shard closure receives a
/// [`NullRecorder`] and pays only dead no-op calls. With
/// [`Record::Trace`], each shard gets its own [`MemoryRecorder`] and
/// the collected spans/counters come back on its [`ShardReport`].
/// Either way the shard runs the *same* code — the workspace's
/// `obs_neutrality` test proves the results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Record {
    /// No recording (the default): observations are discarded at the
    /// trait-call boundary.
    #[default]
    Off,
    /// Collect per-shard spans and counters into [`ShardReport::obs`].
    Trace,
}

/// How to spread campaign units over threads.
///
/// The default (and [`Parallelism::sequential`]) is one worker, which
/// runs units in index order on the calling thread. Any other setting
/// produces *identical results* — see the module docs for why — and is
/// purely a wall-clock knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Whether shards record sim-time observations (default off).
    pub record: Record,
}

impl Parallelism {
    /// One worker on the calling thread; the reference execution.
    pub fn sequential() -> Parallelism {
        Parallelism::new(1)
    }

    /// A fixed worker count.
    pub fn new(workers: usize) -> Parallelism {
        Parallelism { workers: workers.max(1), record: Record::Off }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Parallelism {
        Parallelism::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Set the recording mode.
    pub fn with_recording(mut self, record: Record) -> Parallelism {
        self.record = record;
        self
    }
}

impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::sequential()
    }
}

/// One independent shard of campaign work: a label (for reporting — RNG
/// tags live *inside* the closure, derived from the scenario) and a
/// closure producing the shard value plus its raw sample count.
pub struct Unit<T> {
    label: String,
    work: ShardWork<T>,
}

/// A shard's boxed closure: given the shard's recorder and the worker's
/// reusable scratch, produces the shard value plus its raw sample count.
type ShardWork<T> =
    Box<dyn FnOnce(&mut dyn Recorder, &mut UnitScratch) -> (T, usize) + Send>;

impl<T> Unit<T> {
    /// Create a unit that does not record observations. `work` returns
    /// `(value, sample_count)`, where the count is the number of
    /// underlying measurements the shard took (reported in
    /// [`ShardReport::samples`]).
    pub fn new(
        label: impl Into<String>,
        work: impl FnOnce() -> (T, usize) + Send + 'static,
    ) -> Unit<T> {
        Unit { label: label.into(), work: Box::new(move |_, _| work()) }
    }

    /// Create a unit whose closure records into the shard's
    /// [`Recorder`]. Under [`Record::Off`] the recorder is a
    /// [`NullRecorder`], so instrumented units cost nothing extra when
    /// recording is disabled.
    pub fn traced(
        label: impl Into<String>,
        work: impl FnOnce(&mut dyn Recorder) -> (T, usize) + Send + 'static,
    ) -> Unit<T> {
        Unit { label: label.into(), work: Box::new(move |rec, _| work(rec)) }
    }

    /// Create a unit whose closure additionally borrows the worker's
    /// [`UnitScratch`], making the whole unit allocation-free once the
    /// worker is warm. Results are identical whether the scratch is warm
    /// or cold.
    pub fn pooled(
        label: impl Into<String>,
        work: impl FnOnce(&mut dyn Recorder, &mut UnitScratch) -> (T, usize) + Send + 'static,
    ) -> Unit<T> {
        Unit { label: label.into(), work: Box::new(work) }
    }

    /// The shard's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T: Send + 'static> Unit<T> {
    /// Type-erase the shard value so units of different families can
    /// share one executor pool (the campaign runner downcasts per
    /// family when merging).
    pub fn boxed(self) -> Unit<Box<dyn std::any::Any + Send>> {
        let Unit { label, work } = self;
        Unit {
            label,
            work: Box::new(move |rec, scratch| {
                let (value, samples) = work(rec, scratch);
                (Box::new(value) as Box<dyn std::any::Any + Send>, samples)
            }),
        }
    }
}

/// Per-shard execution record.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index in submission (= merge) order.
    pub index: usize,
    /// The shard's label.
    pub label: String,
    /// Wall-clock time the shard's closure took.
    pub wall: Duration,
    /// Raw measurement count the shard reported.
    pub samples: usize,
    /// Sim-time observations the shard recorded (empty under
    /// [`Record::Off`]). Deterministic: a function of the scenario
    /// seed, unlike `wall`.
    pub obs: ShardObsData,
}

/// A shard whose closure panicked.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard index in submission order.
    pub index: usize,
    /// The shard's label.
    pub label: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

/// Error from [`run_units`]: at least one shard panicked. Sibling
/// shards are unaffected — `completed` counts the shards that finished
/// normally despite the failures.
#[derive(Debug)]
pub struct ExecError {
    /// Every failing shard, in index order.
    pub failures: Vec<ShardFailure>,
    /// How many shards completed normally.
    pub completed: usize,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shard(s) failed ({} completed):",
            self.failures.len(),
            self.completed
        )?;
        for failure in &self.failures {
            write!(
                f,
                " [#{} {}: {}]",
                failure.index, failure.label, failure.message
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for ExecError {}

/// Successful result of [`run_units`].
#[derive(Debug)]
pub struct Executed<T> {
    /// Shard values in submission order — independent of worker count
    /// and completion order.
    pub values: Vec<T>,
    /// Per-shard timing/sample records, in submission order.
    pub reports: Vec<ShardReport>,
    /// Wall-clock time for the whole pool.
    pub wall: Duration,
    /// Worker threads actually used.
    pub workers: usize,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_one<T>(
    unit: Unit<T>,
    index: usize,
    record: Record,
    scratch: &mut UnitScratch,
    results: &Mutex<Vec<Option<(T, ShardReport)>>>,
    failures: &Mutex<Vec<ShardFailure>>,
) -> bool {
    let Unit { label, work } = unit;
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match record {
        Record::Off => (work(&mut NullRecorder, scratch), ShardObsData::default()),
        Record::Trace => {
            let mut rec = MemoryRecorder::new();
            let out = work(&mut rec, scratch);
            (out, rec.into_data())
        }
    }));
    match outcome {
        Ok(((value, samples), obs)) => {
            let report =
                ShardReport { index, label, wall: started.elapsed(), samples, obs };
            results.lock().expect("results lock")[index] = Some((value, report));
            true
        }
        Err(payload) => {
            failures.lock().expect("failures lock").push(ShardFailure {
                index,
                label,
                message: panic_message(payload),
            });
            false
        }
    }
}

/// Run every unit and return the values in submission order.
///
/// With `workers == 1` the units run in order on the calling thread;
/// otherwise `workers` scoped threads claim units one at a time from a
/// shared cursor until it is drained. Either way the output is
/// identical (see the module docs). If any shard panics, the error
/// lists every failing shard and the panic is *contained*: sibling
/// shards still run to completion.
pub fn run_units<T: Send>(
    par: &Parallelism,
    units: Vec<Unit<T>>,
) -> Result<Executed<T>, ExecError> {
    let started = Instant::now();
    let n = units.len();
    let workers = par.workers.clamp(1, n.max(1));

    let results: Mutex<Vec<Option<(T, ShardReport)>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let failures: Mutex<Vec<ShardFailure>> = Mutex::new(Vec::new());

    if workers <= 1 {
        let mut scratch = UnitScratch::new();
        for (index, unit) in units.into_iter().enumerate() {
            if !run_one(unit, index, par.record, &mut scratch, &results, &failures) {
                // A panicking unit may leave half-torn buffers; start
                // the next unit from a cold scratch.
                scratch = UnitScratch::new();
            }
        }
    } else {
        let jobs: Vec<Mutex<Option<Unit<T>>>> =
            units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = UnitScratch::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let unit = jobs[index].lock().expect("job lock").take();
                        if let Some(unit) = unit {
                            let ok =
                                run_one(unit, index, par.record, &mut scratch, &results, &failures);
                            if !ok {
                                scratch = UnitScratch::new();
                            }
                        }
                    }
                });
            }
        });
    }

    let mut failures = failures.into_inner().expect("failures lock");
    let results = results.into_inner().expect("results lock");
    if !failures.is_empty() {
        failures.sort_by_key(|f| f.index);
        let completed = results.iter().filter(|r| r.is_some()).count();
        return Err(ExecError { failures, completed });
    }

    let mut values = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for slot in results {
        let (value, report) = slot.expect("no failure recorded, so every slot is filled");
        values.push(value);
        reports.push(report);
    }
    Ok(Executed { values, reports, wall: started.elapsed(), workers })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<Unit<usize>> {
        (0..n)
            .map(|i| Unit::new(format!("sq/{i}"), move || (i * i, 1)))
            .collect()
    }

    #[test]
    fn values_come_back_in_submission_order() {
        for par in [
            Parallelism::sequential(),
            Parallelism::new(3),
            Parallelism::new(8),
        ] {
            let out = run_units(&par, squares(17)).unwrap();
            let expect: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out.values, expect, "{par:?}");
            assert_eq!(out.reports.len(), 17);
            assert!(out.reports.iter().enumerate().all(|(i, r)| r.index == i));
        }
    }

    #[test]
    fn worker_count_is_clamped_to_unit_count() {
        let out = run_units(&Parallelism::new(64), squares(2)).unwrap();
        assert_eq!(out.workers, 2);
        let out = run_units(&Parallelism::new(4), Vec::<Unit<u8>>::new()).unwrap();
        assert!(out.values.is_empty());
    }

    #[test]
    fn one_panic_does_not_poison_siblings() {
        let units: Vec<Unit<usize>> = (0..6)
            .map(|i| {
                Unit::new(format!("u/{i}"), move || {
                    if i == 3 {
                        panic!("shard {i} exploded");
                    }
                    (i, 1)
                })
            })
            .collect();
        let err = run_units(&Parallelism::new(2), units).unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].index, 3);
        assert_eq!(err.failures[0].label, "u/3");
        assert!(err.failures[0].message.contains("exploded"));
        assert_eq!(err.completed, 5);
        assert!(err.to_string().contains("u/3"));
    }

    fn traced_squares(n: usize) -> Vec<Unit<usize>> {
        (0..n)
            .map(|i| {
                Unit::traced(format!("sq/{i}"), move |rec| {
                    rec.add("work", i as u64);
                    rec.span("compute", 0, 1_000);
                    (i * i, 1)
                })
            })
            .collect()
    }

    #[test]
    fn recording_off_leaves_obs_empty() {
        let out = run_units(&Parallelism::new(2), traced_squares(4)).unwrap();
        assert_eq!(out.values, vec![0, 1, 4, 9]);
        for report in &out.reports {
            assert!(report.obs.spans.is_empty());
            assert!(report.obs.counters.is_empty());
        }
    }

    #[test]
    fn recording_on_attaches_per_shard_obs() {
        let par = Parallelism::new(3).with_recording(Record::Trace);
        let out = run_units(&par, traced_squares(5)).unwrap();
        assert_eq!(out.values, vec![0, 1, 4, 9, 16]);
        for (i, report) in out.reports.iter().enumerate() {
            assert_eq!(report.obs.counter("work"), Some(i as u64), "shard {i}");
            assert_eq!(report.obs.spans.len(), 1);
            assert_eq!(report.obs.spans[0].phase, "compute");
        }
    }

    #[test]
    fn recording_does_not_change_values_or_samples() {
        let off = run_units(&Parallelism::sequential(), traced_squares(6)).unwrap();
        let on = run_units(
            &Parallelism::new(4).with_recording(Record::Trace),
            traced_squares(6),
        )
        .unwrap();
        assert_eq!(off.values, on.values);
        let samples =
            |r: &[ShardReport]| r.iter().map(|s| s.samples).collect::<Vec<_>>();
        assert_eq!(samples(&off.reports), samples(&on.reports));
    }

    fn page_units(n: usize) -> Vec<Unit<u64>> {
        use ptperf_transports::{transport_for, PtId};
        use ptperf_web::{SiteList, Website};
        (0..n)
            .map(|i| {
                Unit::pooled(format!("warm/{i}"), move |rec, scratch| {
                    let sc = crate::scenario::Scenario::baseline(7);
                    let dep = sc.deployment();
                    let opts = sc.access_options();
                    let site = Website::generate(SiteList::Tranco, i);
                    let mut rng = sc.rng(&format!("warm/{i}"));
                    let ch = transport_for(PtId::Vanilla).establish_with(
                        &dep,
                        &opts,
                        site.server,
                        &mut rng,
                        &mut scratch.establish,
                    );
                    let _ = ptperf_web::load_page_pooled(
                        &ch,
                        &site,
                        &mut rng,
                        rec,
                        &mut scratch.page,
                    );
                    (scratch.page.uses(), 1)
                })
            })
            .collect()
    }

    #[test]
    fn per_worker_scratch_stays_warm_across_pooled_units() {
        // Sequential: one scratch serves every unit, so the page-scratch
        // use count climbs 1, 2, 3, 4.
        let warm = run_units(&Parallelism::sequential(), page_units(4)).unwrap();
        assert_eq!(warm.values, vec![1, 2, 3, 4]);
        // Each unit alone in its own pool sees a cold scratch.
        let cold: Vec<u64> = page_units(4)
            .into_iter()
            .map(|u| run_units(&Parallelism::sequential(), vec![u]).unwrap().values[0])
            .collect();
        assert_eq!(cold, vec![1, 1, 1, 1]);
        // Parallel: each worker's count climbs from 1, so at
        // most one cold unit per worker (a racing worker may claim no
        // units at all), and the rest saw warm scratch.
        let par = run_units(&Parallelism::new(2), page_units(6)).unwrap();
        assert!(par.values.iter().all(|&u| (1..=6).contains(&u)));
        let cold_units = par.values.iter().filter(|&&u| u == 1).count();
        assert!((1..=2).contains(&cold_units), "cold units: {cold_units}");
    }

    #[test]
    fn boxed_units_round_trip_through_any() {
        let pool: Vec<Unit<Box<dyn std::any::Any + Send>>> =
            squares(4).into_iter().map(Unit::boxed).collect();
        let out = run_units(&Parallelism::new(2), pool).unwrap();
        let values: Vec<usize> = out
            .values
            .into_iter()
            .map(|v| *v.downcast::<usize>().unwrap())
            .collect();
        assert_eq!(values, vec![0, 1, 4, 9]);
    }
}
