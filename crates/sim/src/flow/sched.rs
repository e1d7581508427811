//! Max–min allocation and fluid scheduling.
//!
//! Everything the per-step hot path needs lives in persistent scratch
//! owned by [`MaxMinScratch`] / [`FluidScheduler`]: per-node counters
//! and a reverse node→active-flow index (`bucket`), per-flow freeze
//! flags as bool vectors, deduplicated node paths in one CSR buffer
//! borrowed by slice instead of cloned per step, and a min-heap of
//! pending arrivals so advancing virtual time is O(log E). After
//! warmup a `fluid_schedule` run performs no heap allocation beyond
//! the returned completion `Vec` — and even that disappears for
//! callers of [`FluidScheduler::run_recorded_into`], which writes into
//! a caller-owned buffer.
//!
//! Bit-for-bit equivalence with [`super::reference`] is load-bearing
//! (proven in `crates/sim/tests/equivalence.rs`): the order of every
//! floating-point operation matches the oracle. In particular, flows
//! freeze in the same order (nodes ascending, flows in demand order
//! within each node's bucket, then cap-limited flows in demand order),
//! so the `used[n] += at` accumulation sequence — the one place where
//! f64 ordering matters — is identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ptperf_obs::{NullRecorder, Recorder};

use super::{FairNetwork, FlowBatch, FlowDemand, FluidCompletion, NodeId};
use crate::time::{SimDuration, SimTime};

/// Borrowed CSR view of a batch of flow demands: flow `f`'s
/// (deduplicated, sorted) node path is `nodes[off[f]..off[f + 1]]` and
/// its rate cap is `caps[f]`.
#[derive(Clone, Copy)]
pub(crate) struct Csr<'a> {
    pub(crate) off: &'a [usize],
    pub(crate) nodes: &'a [NodeId],
    pub(crate) caps: &'a [Option<f64>],
}

impl<'a> Csr<'a> {
    fn path(&self, flow: usize) -> &'a [NodeId] {
        &self.nodes[self.off[flow]..self.off[flow + 1]]
    }

    fn cap(&self, flow: usize) -> Option<f64> {
        self.caps[flow]
    }
}

/// Sorts and deduplicates `v[from..]` in place (the tail is one flow's
/// node path appended to the shared CSR buffer).
fn dedup_tail(v: &mut Vec<NodeId>, from: usize) {
    v[from..].sort_unstable();
    let mut w = from;
    for r in from..v.len() {
        if w == from || v[r] != v[w - 1] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

/// Reusable progressive-filling state. All buffers are sized to the
/// largest instance seen and returned to an all-zero resting state
/// after each solve, so `solve` allocates only when an instance
/// outgrows every previous one.
#[derive(Debug, Default)]
pub(crate) struct MaxMinScratch {
    /// Per node: unfrozen flows crossing it (decremented on freeze).
    count: Vec<usize>,
    /// Per node: capacity consumed by frozen flows.
    used: Vec<f64>,
    /// Per node: demand slots crossing it, in demand order (the
    /// reverse node→flow index; not pruned on freeze — `frozen` is
    /// checked on scan).
    bucket: Vec<Vec<u32>>,
    /// Nodes crossed by the current instance, ascending.
    touched: Vec<NodeId>,
    /// Per demand slot: rate finalized in an earlier round.
    frozen: Vec<bool>,
    /// Per demand slot: already queued in `freeze_list` this round.
    in_freeze: Vec<bool>,
    /// Slots freezing this round, in freeze order.
    freeze_list: Vec<u32>,
    /// Capped slots sorted by (cap bits, slot): the generic loop reads
    /// the minimum unfrozen cap and the cap-limited freeze candidates
    /// from a cursor into this order instead of rescanning every
    /// active slot each round. Caps are positive, so the bit order is
    /// the value order, and `min` over a set is order-independent — the
    /// level comes out bit-identical to the oracle's linear scan.
    cap_order: Vec<u32>,
    /// Cap-limited freeze candidates of the current round, re-sorted
    /// ascending by slot to replay the oracle's demand-order scan.
    cap_tmp: Vec<u32>,
    /// Times a scratch buffer had to grow (the allocation proxy
    /// surfaced by [`FluidScheduler::scratch_grows`]).
    grow_events: u64,
}

impl MaxMinScratch {
    fn ensure_nodes(&mut self, n: usize) {
        if n > self.count.len() {
            if n > self.count.capacity() {
                self.grow_events += 1;
            }
            self.count.resize(n, 0);
            self.used.resize(n, 0.0);
            self.bucket.resize_with(n, Vec::new);
        }
    }

    fn ensure_flows(&mut self, k: usize) {
        if k > self.frozen.len() {
            if k > self.frozen.capacity() {
                self.grow_events += 1;
            }
            self.frozen.resize(k, false);
            self.in_freeze.resize(k, false);
        }
    }

    /// Max–min fair rates for the demand slots `active` (indices into
    /// `csr`), written to `out[k]` for slot `k`. Paths in `csr` must be
    /// deduplicated and reference valid nodes — validation happens at
    /// the API boundary, once, not per step.
    pub(crate) fn solve(
        &mut self,
        net: &FairNetwork,
        active: &[u32],
        csr: Csr<'_>,
        out: &mut Vec<f64>,
        rec: &mut dyn Recorder,
    ) {
        rec.add("maxmin/recomputations", 1);
        let sort_cap = self.cap_order.capacity() + self.cap_tmp.capacity();
        self.ensure_nodes(net.len());
        self.ensure_flows(active.len());
        out.clear();
        out.resize(active.len(), 0.0);

        self.touched.clear();
        for (k, &f) in active.iter().enumerate() {
            self.frozen[k] = false;
            self.in_freeze[k] = false;
            for &n in csr.path(f as usize) {
                if self.count[n] == 0 {
                    self.touched.push(n);
                }
                self.count[n] += 1;
                self.bucket[n].push(k as u32);
            }
        }
        // Ascending, so the generic loop visits nodes in the same order
        // as the oracle's `0..net.len()` scan.
        self.touched.sort_unstable();

        if !self.try_fast_path(net, active, &csr, out, rec) {
            self.fill(net, active, &csr, out, rec);
        }

        if rec.enabled() {
            let saturated = (0..net.len())
                .filter(|&n| self.used[n] + 1e-9 * net.capacity(n).max(1.0) >= net.capacity(n))
                .count();
            rec.add("maxmin/nodes_saturated", saturated as u64);
        }

        // Back to the resting state for the next instance.
        for i in 0..self.touched.len() {
            let n = self.touched[i];
            self.count[n] = 0;
            self.used[n] = 0.0;
            self.bucket[n].clear();
        }
        if self.cap_order.capacity() + self.cap_tmp.capacity() > sort_cap {
            self.grow_events += 1;
        }
    }

    /// The analytic single-bottleneck case: every active flow crosses
    /// exactly one shared node and the caps are uniform (all absent, or
    /// all bit-equal). One division replaces the filling loop; by
    /// construction the generic loop would finish in one round with the
    /// identical level, so the rates match it bit for bit.
    fn try_fast_path(
        &mut self,
        net: &FairNetwork,
        active: &[u32],
        csr: &Csr<'_>,
        out: &mut [f64],
        rec: &mut dyn Recorder,
    ) -> bool {
        if self.touched.len() != 1 {
            return false;
        }
        let n = self.touched[0];
        if self.count[n] != active.len() {
            return false;
        }
        let first = csr.cap(active[0] as usize);
        let uniform = match first {
            None => active.iter().all(|&f| csr.cap(f as usize).is_none()),
            Some(c) => active
                .iter()
                .all(|&f| matches!(csr.cap(f as usize), Some(o) if o.to_bits() == c.to_bits())),
        };
        if !uniform {
            return false;
        }
        rec.add("maxmin/fast_path", 1);
        rec.add("maxmin/rounds", 1);
        let k = active.len();
        // Same expression tree as one generic round with used = 0.
        let share = ((net.capacity(n) - 0.0) / k as f64).max(0.0);
        let level = match first {
            Some(c) => share.min(c),
            None => share,
        };
        let eps = 1e-9 * level.max(1.0);
        let at = match first {
            Some(c) => c.min(level),
            None => level,
        };
        let node_limited = share <= level + eps;
        rec.add(
            "maxmin/flows_node_limited",
            if node_limited { k as u64 } else { 0 },
        );
        rec.add(
            "maxmin/flows_cap_limited",
            if node_limited { 0 } else { k as u64 },
        );
        for r in out.iter_mut() {
            *r = at;
        }
        if rec.enabled() {
            // Only the saturation counter reads `used`; accumulate it
            // the way the generic loop would (k sequential additions)
            // so the threshold test sees the same bits.
            for _ in 0..k {
                self.used[n] += at;
            }
        }
        true
    }

    /// The generic progressive-filling loop over the touched nodes and
    /// their buckets. Mirrors `reference::maxmin_rates_recorded`
    /// operation for operation; only the data layout differs.
    fn fill(
        &mut self,
        net: &FairNetwork,
        active: &[u32],
        csr: &Csr<'_>,
        out: &mut [f64],
        rec: &mut dyn Recorder,
    ) {
        // Capped slots in (cap, slot) order: each round reads the
        // minimum unfrozen cap from a forward-only cursor instead of
        // rescanning all of `active` twice. Entries left behind the
        // cursor are always frozen, so the scan is amortized O(k).
        self.cap_order.clear();
        for (k, &f) in active.iter().enumerate() {
            if csr.cap(f as usize).is_some() {
                self.cap_order.push(k as u32);
            }
        }
        self.cap_order.sort_unstable_by_key(|&k| {
            let c = csr.cap(active[k as usize] as usize).unwrap_or(f64::INFINITY);
            (c.to_bits(), k)
        });
        let mut cursor = 0usize;

        let mut remaining = active.len();
        while remaining > 0 {
            rec.add("maxmin/rounds", 1);
            let mut level = f64::INFINITY;
            for &n in &self.touched {
                if self.count[n] > 0 {
                    let share = ((net.capacity(n) - self.used[n]) / self.count[n] as f64).max(0.0);
                    level = level.min(share);
                }
            }
            while cursor < self.cap_order.len() && self.frozen[self.cap_order[cursor] as usize] {
                cursor += 1;
            }
            if cursor < self.cap_order.len() {
                let k = self.cap_order[cursor] as usize;
                if let Some(c) = csr.cap(active[k] as usize) {
                    level = level.min(c);
                }
            }
            debug_assert!(level.is_finite(), "no binding constraint found");

            // Freeze set against a snapshot of `used`, exactly like the
            // oracle: shares are not recomputed mid-round.
            let eps = 1e-9 * level.max(1.0);
            self.freeze_list.clear();
            for &n in &self.touched {
                if self.count[n] == 0 {
                    continue;
                }
                let share = ((net.capacity(n) - self.used[n]) / self.count[n] as f64).max(0.0);
                if share <= level + eps {
                    for &slot in &self.bucket[n] {
                        let k = slot as usize;
                        if !self.frozen[k] && !self.in_freeze[k] {
                            self.in_freeze[k] = true;
                            self.freeze_list.push(slot);
                        }
                    }
                }
            }
            let node_limited = self.freeze_list.len();
            // Every unfrozen cap within the epsilon band freezes this
            // round; the cursor walks them in cap order, then a sort by
            // slot restores the oracle's demand-order freeze sequence.
            self.cap_tmp.clear();
            while cursor < self.cap_order.len() {
                let k = self.cap_order[cursor] as usize;
                match csr.cap(active[k] as usize) {
                    Some(c) if c <= level + eps => {
                        if !self.frozen[k] && !self.in_freeze[k] {
                            self.cap_tmp.push(k as u32);
                        }
                        cursor += 1;
                    }
                    _ => break,
                }
            }
            self.cap_tmp.sort_unstable();
            for i in 0..self.cap_tmp.len() {
                let k = self.cap_tmp[i] as usize;
                self.in_freeze[k] = true;
                self.freeze_list.push(k as u32);
            }
            rec.add("maxmin/flows_node_limited", node_limited as u64);
            rec.add(
                "maxmin/flows_cap_limited",
                (self.freeze_list.len() - node_limited) as u64,
            );
            if self.freeze_list.is_empty() {
                // Defensive: guarantee termination under floating-point
                // pathologies by freezing everything at the level.
                debug_assert!(false, "progressive filling made no progress");
                for k in 0..active.len() {
                    if !self.frozen[k] {
                        self.freeze_list.push(k as u32);
                    }
                }
            }
            for idx in 0..self.freeze_list.len() {
                let k = self.freeze_list[idx] as usize;
                let f = active[k] as usize;
                let at = csr.cap(f).map_or(level, |c| c.min(level));
                out[k] = at;
                self.frozen[k] = true;
                self.in_freeze[k] = false;
                for &n in csr.path(f) {
                    self.used[n] += at;
                    self.count[n] -= 1;
                }
                remaining -= 1;
            }
        }
    }
}

/// Reusable state behind the module-level `maxmin_rates` entry points:
/// validates and dedupes a `&[FlowDemand]` batch into the persistent
/// CSR buffers, then solves.
#[derive(Debug, Default)]
pub(crate) struct MaxMinState {
    scratch: MaxMinScratch,
    ids: Vec<u32>,
    off: Vec<usize>,
    nodes: Vec<NodeId>,
    caps: Vec<Option<f64>>,
}

impl MaxMinState {
    pub(crate) fn new() -> Self {
        MaxMinState::default()
    }

    pub(crate) fn rates(
        &mut self,
        net: &FairNetwork,
        flows: &[FlowDemand],
        rec: &mut dyn Recorder,
    ) -> Vec<f64> {
        self.ids.clear();
        self.off.clear();
        self.nodes.clear();
        self.caps.clear();
        self.off.push(0);
        for (i, f) in flows.iter().enumerate() {
            assert!(
                !f.nodes.is_empty() || f.cap.is_some(),
                "flow {i} has no node constraint and no cap: demand is unbounded"
            );
            if let Some(c) = f.cap {
                assert!(c > 0.0 && c.is_finite(), "flow {i} has invalid cap {c}");
            }
            let start = self.nodes.len();
            for &n in &f.nodes {
                assert!(n < net.len(), "flow {i} references unknown node {n}");
                self.nodes.push(n);
            }
            dedup_tail(&mut self.nodes, start);
            self.off.push(self.nodes.len());
            self.caps.push(f.cap);
            self.ids.push(i as u32);
        }
        let mut out = Vec::with_capacity(flows.len());
        let csr = Csr {
            off: &self.off,
            nodes: &self.nodes,
            caps: &self.caps,
        };
        self.scratch.solve(net, &self.ids, csr, &mut out, rec);
        out
    }
}

/// The persistent fluid scheduler.
///
/// Owns every buffer the event loop needs — the arrival min-heap, the
/// active-flow list with its parallel rate vector, per-flow remaining
/// bytes and finish times, the shared CSR demand buffers, and the
/// allocator scratch — so repeated runs reuse capacity instead of
/// re-allocating per step. The module-level `fluid_schedule` entry
/// points drive a thread-local instance; hold one directly (e.g. in a
/// benchmark) to control reuse explicitly.
///
/// Results are bit-for-bit identical to [`super::reference`]: the
/// equivalence tests compare rates and completion times on thousands
/// of random workloads, and `tests/obs_neutrality.rs` pins the
/// end-to-end artifacts.
#[derive(Debug, Default)]
pub struct FluidScheduler {
    alloc: MaxMinScratch,
    /// Pending arrivals, keyed (start, flow index) so simultaneous
    /// arrivals admit in index order.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Started, unfinished flows, ascending by index (matching the
    /// oracle's scan order).
    active: Vec<u32>,
    /// Current rate of `active[k]`, kept in lockstep through
    /// compaction so unchanged steps can reuse it wholesale.
    rates: Vec<f64>,
    remaining: Vec<f64>,
    finish: Vec<SimTime>,
    off: Vec<usize>,
    nodes: Vec<NodeId>,
    caps: Vec<Option<f64>>,
    grow_events: u64,
}

impl FluidScheduler {
    /// Creates a scheduler with empty scratch buffers.
    pub fn new() -> Self {
        FluidScheduler::default()
    }

    /// Runs the fluid schedule (see [`super::fluid_schedule`]).
    pub fn run(&mut self, net: &FairNetwork, batch: &FlowBatch) -> Vec<FluidCompletion> {
        self.run_recorded(net, batch, &mut NullRecorder)
    }

    /// Times a scratch buffer has had to grow over this scheduler's
    /// lifetime — a proxy for allocations on the hot path (exact
    /// counting would need a global allocator hook, which the
    /// `forbid(unsafe_code)` workspace rules out). Zero growth across
    /// a run means the run was allocation-free apart from the returned
    /// completion `Vec`. Deliberately *not* a recorder counter: it
    /// depends on warmup state, and trace artifacts must stay a pure
    /// function of the workload.
    pub fn scratch_grows(&self) -> u64 {
        self.grow_events + self.alloc.grow_events
    }

    /// Runs the fluid schedule with observation (see
    /// [`super::fluid_schedule_recorded`]).
    pub fn run_recorded(
        &mut self,
        net: &FairNetwork,
        batch: &FlowBatch,
        rec: &mut dyn Recorder,
    ) -> Vec<FluidCompletion> {
        let mut out = Vec::new();
        self.run_recorded_into(net, batch, &mut out, rec);
        out
    }

    /// [`run_recorded`](FluidScheduler::run_recorded) writing the
    /// completions into a caller-owned buffer, so a warm caller (e.g. a
    /// per-worker page-load scratch) performs *zero* allocations per
    /// run — the returned-`Vec` exemption in the scheduler's contract
    /// disappears. `out` is cleared first; completions land in flow
    /// submission order.
    pub fn run_recorded_into(
        &mut self,
        net: &FairNetwork,
        batch: &FlowBatch,
        out: &mut Vec<FluidCompletion>,
        rec: &mut dyn Recorder,
    ) {
        let flows = batch.flows();
        let caps_before = [
            self.heap.capacity(),
            self.active.capacity(),
            self.rates.capacity(),
            self.remaining.capacity(),
            self.finish.capacity(),
            self.off.capacity(),
            self.nodes.capacity(),
            self.caps.capacity(),
        ];

        // Validate once and build the persistent CSR. Zero-byte flows
        // complete on arrival and never reach the allocator, so they
        // keep an empty path and skip validation — exactly the
        // reference's behavior, which never builds demands for them.
        self.off.clear();
        self.nodes.clear();
        self.caps.clear();
        self.off.push(0);
        for (i, f) in flows.iter().enumerate() {
            if f.bytes > 0.0 {
                assert!(
                    !batch.path(i).is_empty() || f.cap.is_some(),
                    "flow {i} has no node constraint and no cap: demand is unbounded"
                );
                if let Some(c) = f.cap {
                    assert!(c > 0.0 && c.is_finite(), "flow {i} has invalid cap {c}");
                }
                let start = self.nodes.len();
                for &n in batch.path(i) {
                    assert!(n < net.len(), "flow {i} references unknown node {n}");
                    self.nodes.push(n);
                }
                dedup_tail(&mut self.nodes, start);
            }
            self.off.push(self.nodes.len());
            self.caps.push(f.cap);
        }

        self.heap.clear();
        for (i, f) in flows.iter().enumerate() {
            self.heap.push(Reverse((f.start, i as u32)));
        }
        self.active.clear();
        self.rates.clear();
        self.remaining.clear();
        self.remaining.extend(flows.iter().map(|f| f.bytes.max(0.0)));
        self.finish.clear();
        self.finish.resize(flows.len(), SimTime::ZERO);

        let mut now = match self.heap.peek() {
            Some(&Reverse((t, _))) => t,
            None => {
                out.clear();
                return;
            }
        };
        let mut set_changed = true;
        loop {
            // Admit every arrival due at or before `now`.
            while let Some(&Reverse((t, i))) = self.heap.peek() {
                if t > now {
                    break;
                }
                self.heap.pop();
                let i = i as usize;
                if self.remaining[i] <= 0.0 {
                    // Zero-byte flow: completes the moment it starts.
                    self.finish[i] = flows[i].start + flows[i].extra_latency;
                } else {
                    let pos = self.active.partition_point(|&a| (a as usize) < i);
                    self.active.insert(pos, i as u32);
                    self.rates.insert(pos, 0.0);
                    set_changed = true;
                }
            }
            if self.active.is_empty() {
                match self.heap.peek() {
                    Some(&Reverse((t, _))) => {
                        now = t;
                        continue;
                    }
                    None => break,
                }
            }

            if set_changed {
                let csr = Csr {
                    off: &self.off,
                    nodes: &self.nodes,
                    caps: &self.caps,
                };
                self.alloc.solve(net, &self.active, csr, &mut self.rates, rec);
                set_changed = false;
            } else {
                // Nothing arrived or finished since the last solve:
                // the allocation is unchanged by definition, so reuse
                // it. (Recomputing would return the same bits — the
                // allocator is a pure function of the active set.)
                rec.add("fluid/realloc_skipped", 1);
            }
            rec.add("fluid/steps", 1);

            // Time until the first active flow drains at current rates.
            let mut dt_finish = f64::INFINITY;
            for (k, &i) in self.active.iter().enumerate() {
                if self.rates[k] > 0.0 {
                    dt_finish = dt_finish.min(self.remaining[i as usize] / self.rates[k]);
                }
            }
            debug_assert!(
                dt_finish.is_finite(),
                "active flows exist but none can make progress"
            );
            let mut dt = dt_finish;
            if let Some(&Reverse((t, _))) = self.heap.peek() {
                let until_start = t.duration_since(now).as_secs_f64();
                if until_start < dt {
                    dt = until_start;
                }
            }

            // Advance: drain bytes, mark completions, compact the
            // active list and its rates in lockstep.
            let after = now + SimDuration::from_secs_f64(dt);
            let mut w = 0usize;
            for k in 0..self.active.len() {
                let i = self.active[k] as usize;
                self.remaining[i] -= self.rates[k] * dt;
                if self.remaining[i] <= 1e-6 {
                    self.finish[i] = after + flows[i].extra_latency;
                    set_changed = true;
                } else {
                    self.active[w] = self.active[k];
                    self.rates[w] = self.rates[k];
                    w += 1;
                }
            }
            self.active.truncate(w);
            self.rates.truncate(w);
            now = after;
        }

        let caps_after = [
            self.heap.capacity(),
            self.active.capacity(),
            self.rates.capacity(),
            self.remaining.capacity(),
            self.finish.capacity(),
            self.off.capacity(),
            self.nodes.capacity(),
            self.caps.capacity(),
        ];
        self.grow_events += caps_before
            .iter()
            .zip(&caps_after)
            .filter(|(b, a)| a > b)
            .count() as u64;

        out.clear();
        out.extend(self.finish.iter().map(|&finish| FluidCompletion { finish }));
    }
}
