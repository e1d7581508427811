//! Indexed bandwidth-weighted pick: same draw, binary-search resolution.
//!
//! The contract is strict bit-for-bit equivalence with
//! [`super::reference`]: for any consensus, filter class, exclude set,
//! and RNG state, [`weighted_pick`] returns the same relay (or `None`)
//! and consumes the same number of RNG draws (one when a pick happens,
//! zero when nothing is eligible).
//!
//! # How equivalence survives floating point
//!
//! The reference resolves a draw by a subtraction chain over eligible
//! relays; its rounding drifts differently from a prefix-sum lookup, so
//! a naive binary search over [`ClassIndex::prefix`] would disagree near
//! segment boundaries. Instead of replicating the chain, the fast path
//! *proves* its answer: it binary-searches the prefix array (adjusted
//! for the ≤2 excluded positions by shifting the search threshold per
//! segment) and then checks that the candidate sits further than a drift
//! margin `M = 64·(k+16)·ε·total` from both decision boundaries. `M`
//! generously bounds every rounding source separating the two
//! computations (prefix accumulation, the approximated exclude-adjusted
//! total, the target multiplication, and the reference chain's own
//! drift), so when the check passes the reference provably picks the
//! same relay. When it fails — or when the exclude set is large, a
//! bandwidth is non-finite/negative ([`exact_ok`] is false), or the
//! class total is within `M` of zero — the pick falls back to an exact
//! dense scan over the class arrays. Because class arrays hold the class
//! members in consensus order with bandwidths copied verbatim, that scan
//! performs the reference's floating-point operations in the reference's
//! order and is bit-exact by construction, including the `total <= 0 →
//! None` pre-draw decision and the last-eligible tail rule.
//!
//! Fast-path picks count as `path/index_pick`, exact scans as
//! `path/scan_fallback` ([`ptperf_obs::perf`]).
//!
//! [`exact_ok`]: crate::index::ConsensusIndex::exact_ok

use ptperf_sim::SimRng;

use crate::consensus::Consensus;
use crate::index::{ClassIndex, FilterClass};
use crate::relay::RelayId;

/// Reusable pick state: the exclude set mapped to class positions.
/// Persisting one of these across picks makes the pick allocation-free
/// once the buffer has grown to the largest exclude set seen.
#[derive(Debug, Default)]
pub struct PickScratch {
    positions: Vec<u32>,
    grows: u64,
}

impl PickScratch {
    /// An empty scratch; the first picks grow it, after which it is
    /// steady-state.
    pub fn new() -> Self {
        PickScratch::default()
    }

    /// How many times the scratch buffer reallocated — an allocation
    /// proxy for benches (0 delta in steady state).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Maps `exclude` to sorted, deduplicated class positions (ids
    /// outside the class are dropped: the reference's filter rejects
    /// those relays before its exclude check can matter, and its
    /// `contains` is insensitive to order and duplicates).
    fn set_positions(&mut self, ci: &ClassIndex, exclude: &[RelayId]) {
        let cap = self.positions.capacity();
        self.positions.clear();
        for &id in exclude {
            if let Some(p) = ci.position(id) {
                self.positions.push(p);
            }
        }
        self.positions.sort_unstable();
        self.positions.dedup();
        if self.positions.capacity() != cap {
            self.grows += 1;
        }
    }
}

/// Bandwidth-weighted sample over the relays of `class`, excluding ids in
/// `exclude` — bit-identical to [`super::reference::weighted_pick`] with
/// the matching filter, including RNG draw count.
pub fn weighted_pick(
    rng: &mut SimRng,
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
) -> Option<RelayId> {
    pick_inner(consensus, class, exclude, scratch, &mut || rng.next_f64())
}

/// [`weighted_pick`] with an externally supplied draw value, for
/// equivalence tests that probe specific (boundary, tail) targets. The
/// closure-produced `u` is consumed at most once, exactly when
/// [`weighted_pick`] would consume an RNG draw.
pub fn weighted_pick_with_u(
    u: f64,
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
) -> Option<RelayId> {
    pick_inner(consensus, class, exclude, scratch, &mut || u)
}

/// The pick behind [`weighted_pick`] and [`weighted_pick_with_u`], with
/// the draw supplied by `next_u`, which is called at most once, exactly
/// when [`weighted_pick`] would consume an RNG draw.
pub(super) fn pick_inner(
    consensus: &Consensus,
    class: FilterClass,
    exclude: &[RelayId],
    scratch: &mut PickScratch,
    next_u: &mut dyn FnMut() -> f64,
) -> Option<RelayId> {
    let idx = consensus.index();
    let ci = idx.class(class);
    let k = ci.len();
    if k == 0 {
        // Reference: empty eligible set sums to 0 → None before drawing.
        return None;
    }
    scratch.set_positions(ci, exclude);

    if !idx.exact_ok || scratch.positions.len() > 2 {
        return slow_pick(ci, &scratch.positions, next_u);
    }

    let t_all = ci.prefix[k - 1];
    let mut approx_total = t_all;
    for &p in &scratch.positions {
        approx_total -= ci.bandwidth[p as usize];
    }
    let margin = drift_margin(k, t_all);
    if approx_total <= margin {
        // Near-zero (or fully excluded) class total: only the exact scan
        // can decide the pre-draw `total <= 0 → None` case bit-exactly.
        return slow_pick(ci, &scratch.positions, next_u);
    }

    // approx_total > margin ⇒ the exact filtered total is positive, so
    // the reference would draw here. Draw once, resolve by binary
    // search, and verify the candidate clears both decision boundaries
    // by the drift margin.
    let u = next_u();
    if let Some(id) = fast_pick(ci, &scratch.positions, u, approx_total, margin) {
        ptperf_obs::perf::incr_path_index_pick();
        return Some(id);
    }
    // Boundary or tail territory: replay the same draw through the exact
    // scan (no second RNG draw).
    ptperf_obs::perf::incr_path_scan_fallback();
    let total = exact_total(ci, &scratch.positions);
    exact_pick_with_u(u, total, ci, &scratch.positions)
}

/// Exact path when the fast path is ineligible before drawing: decides
/// the `None` case from the exact total, then draws and scans.
fn slow_pick(
    ci: &ClassIndex,
    excluded: &[u32],
    next_u: &mut dyn FnMut() -> f64,
) -> Option<RelayId> {
    ptperf_obs::perf::incr_path_scan_fallback();
    let total = exact_total(ci, excluded);
    if total <= 0.0 {
        return None;
    }
    exact_pick_with_u(next_u(), total, ci, excluded)
}

/// The reference's filtered total, computed over the dense class arrays:
/// an in-order left-to-right sum of eligible bandwidths starting from
/// `0.0` — the same operation sequence as `Iterator::sum::<f64>()` over
/// the reference's filtered iterator.
fn exact_total(ci: &ClassIndex, excluded: &[u32]) -> f64 {
    let mut total = 0.0f64;
    for i in 0..ci.len() {
        if is_excluded(excluded, i) {
            continue;
        }
        total += ci.bandwidth[i];
    }
    total
}

/// The reference's subtraction chain and tail rule over the dense class
/// arrays — bit-exact to [`super::reference::weighted_pick_with_u`].
fn exact_pick_with_u(u: f64, total: f64, ci: &ClassIndex, excluded: &[u32]) -> Option<RelayId> {
    let mut target = u * total;
    for i in 0..ci.len() {
        if is_excluded(excluded, i) {
            continue;
        }
        target -= ci.bandwidth[i];
        if target <= 0.0 {
            return Some(ci.ids[i]);
        }
    }
    // Floating-point tail: the last eligible relay.
    (0..ci.len())
        .rev()
        .find(|&i| !is_excluded(excluded, i))
        .map(|i| ci.ids[i])
}

fn is_excluded(excluded: &[u32], i: usize) -> bool {
    excluded.binary_search(&(i as u32)).is_ok()
}

/// Upper bound on the floating-point disagreement between the prefix-sum
/// view and the reference's subtraction chain, for a class of `k`
/// members with total `total`. Each side accumulates O(k) rounding
/// errors of relative size ε; the constant is a generous safety factor.
fn drift_margin(k: usize, total: f64) -> f64 {
    64.0 * (k as f64 + 16.0) * f64::EPSILON * total
}

/// Binary-search candidate plus boundary proof. Returns `None` when the
/// candidate cannot be proven (caller falls back to the exact scan).
fn fast_pick(
    ci: &ClassIndex,
    excluded: &[u32],
    u: f64,
    approx_total: f64,
    margin: f64,
) -> Option<RelayId> {
    let k = ci.len();
    let prefix = &ci.prefix[..];
    let t = u * approx_total;

    // The ≤2 excluded positions split the class into up to three runs.
    // Within a run the candidate condition is `prefix[i] >= th`, where
    // `th` is the target shifted by the bandwidth of every excluded
    // position before the run.
    let p1 = excluded.first().map(|&p| p as usize).unwrap_or(k);
    let p2 = excluded.get(1).map(|&p| p as usize).unwrap_or(k);

    let mut th = t;
    let mut cand = None;
    let i = prefix[..p1].partition_point(|&x| x < th);
    if i < p1 {
        cand = Some(i);
    } else if p1 < k {
        th += ci.bandwidth[p1];
        let lo = p1 + 1;
        let i = lo + prefix[lo..p2].partition_point(|&x| x < th);
        if i < p2 {
            cand = Some(i);
        } else if p2 < k {
            th += ci.bandwidth[p2];
            let lo = p2 + 1;
            let i = lo + prefix[lo..k].partition_point(|&x| x < th);
            if i < k {
                cand = Some(i);
            }
        }
    }
    // No candidate: the draw landed in tail territory, where only the
    // reference's own chain (exact scan) can decide.
    let i = cand?;

    // Upper boundary: the exact eligible cumulative sum through `i`
    // surely reaches the exact target despite drift, so the reference's
    // chain is non-positive at `i`.
    if prefix[i] - th <= margin {
        return None;
    }
    // Lower boundary: the previous eligible position (if any) surely
    // falls short, so the chain — monotone for non-negative bandwidths —
    // is still positive before `i`.
    let mut th_j = th;
    let mut j = i;
    loop {
        if j == 0 {
            break; // `i` is the first eligible position.
        }
        j -= 1;
        if is_excluded(excluded, j) {
            th_j -= ci.bandwidth[j];
            continue;
        }
        if th_j - prefix[j] <= margin {
            return None;
        }
        break;
    }
    Some(ci.ids[i])
}
