//! Flow-level bandwidth sharing.
//!
//! When several transfers share a bottleneck (a Tor relay, a PT bridge, a
//! client access link), each gets a **max–min fair** share of the node's
//! capacity — the fluid approximation of what competing TCP flows converge
//! to. This module provides:
//!
//! * [`maxmin_rates`] — the progressive-filling (water-filling) allocator
//!   over a set of capacity-constrained nodes, with optional per-flow rate
//!   caps (a PT's carrier constraint, e.g. dnstt's DNS-window ceiling);
//! * `fluid_schedule` — a deterministic fluid simulator that, given flows
//!   with start times and sizes, computes each flow's completion time under
//!   continuous max–min re-allocation (used for browser-style parallel
//!   sub-resource loading).
//!
//! ## Two implementations, one behavior
//!
//! The public entry points run the **persistent** implementation in the
//! private `sched` module (exported as [`FluidScheduler`]): persistent
//! scratch buffers, a reverse node→active-flow index, an arrival
//! min-heap, a skip of the allocator when a step leaves the active set
//! unchanged, and an analytic fast path for the dominant
//! single-bottleneck case. Every allocation is one global max–min
//! solve over the whole active set; there is no per-component cache,
//! because every allocation the paper's workloads perform has a single
//! bottleneck (one PT tunnel per page load) and takes the fast path.
//! The original from-scratch progressive-filling implementation is
//! retained in [`mod@reference`] as an equivalence oracle;
//! `crates/sim/tests/equivalence.rs` proves the two agree **bit for
//! bit** (rates and completion times) on thousands of generated
//! workloads, and the Criterion suite in `crates/bench/benches/flow.rs`
//! measures the speedup.
//!
//! Flows listing the same node twice are deduplicated on entry by both
//! implementations — a duplicated [`NodeId`] used to double-count the
//! flow's share against that node's capacity.

use std::cell::RefCell;

use ptperf_obs::{NullRecorder, Recorder};

use crate::time::{SimDuration, SimTime};

pub mod reference;
mod sched;

pub use sched::FluidScheduler;

/// Index of a capacity-constrained node inside a [`FairNetwork`].
pub type NodeId = usize;

/// A set of nodes, each with a service capacity in bytes per second.
#[derive(Debug, Clone, Default)]
pub struct FairNetwork {
    capacity: Vec<f64>,
}

impl FairNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        FairNetwork::default()
    }

    /// Adds a node with the given capacity (bytes/s) and returns its id.
    ///
    /// # Panics
    /// Panics if the capacity is not positive and finite.
    pub fn add_node(&mut self, capacity_bps: f64) -> NodeId {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "node capacity must be positive and finite, got {capacity_bps}"
        );
        self.capacity.push(capacity_bps);
        self.capacity.len() - 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// Removes every node, keeping the allocated capacity so a reused
    /// network (e.g. inside a per-worker scratch) can be rebuilt
    /// without reallocating.
    pub fn clear(&mut self) {
        self.capacity.clear();
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Capacity of a node.
    pub fn capacity(&self, node: NodeId) -> f64 {
        self.capacity[node]
    }
}

/// A flow requesting bandwidth through a set of nodes.
#[derive(Debug, Clone)]
pub struct FlowDemand {
    /// The nodes this flow traverses (order does not matter for
    /// allocation, and duplicates count once). An empty path means the
    /// flow is only limited by `cap`.
    pub nodes: Vec<NodeId>,
    /// Optional rate ceiling imposed by the flow itself (bytes/s), e.g. a
    /// transport's carrier constraint.
    pub cap: Option<f64>,
}

/// Computes max–min fair rates (bytes/s) for `flows` over `net` by
/// progressive filling.
///
/// Invariants (property-tested):
/// * no node's capacity is exceeded;
/// * a flow is only below the equal share of some node it traverses if its
///   own cap binds;
/// * the allocation is Pareto-efficient: every flow is limited by a
///   saturated node or its cap.
///
/// # Panics
/// Panics if a flow references a node outside the network, or has an empty
/// path and no cap (such a flow has unbounded demand).
pub fn maxmin_rates(net: &FairNetwork, flows: &[FlowDemand]) -> Vec<f64> {
    maxmin_rates_recorded(net, flows, &mut NullRecorder)
}

thread_local! {
    /// Reused allocator state: repeated calls on the same thread are
    /// allocation-free (beyond the returned `Vec`) once the scratch
    /// buffers have warmed up.
    static MAXMIN_STATE: RefCell<sched::MaxMinState> = RefCell::new(sched::MaxMinState::new());
    /// Reused fluid-scheduler state for the module-level entry points.
    static FLUID_STATE: RefCell<FluidScheduler> = RefCell::new(FluidScheduler::new());
}

/// [`maxmin_rates`] with observation: counts recomputations, filling
/// rounds, how each flow froze (node-limited vs cap-limited), analytic
/// fast-path hits (`maxmin/fast_path`), and how many nodes ended
/// saturated. The un-recorded entry point delegates here with a
/// [`NullRecorder`], so both run the *same* allocation code — the
/// recorder only ever receives already-computed values.
pub fn maxmin_rates_recorded(
    net: &FairNetwork,
    flows: &[FlowDemand],
    rec: &mut dyn Recorder,
) -> Vec<f64> {
    MAXMIN_STATE.with(|state| match state.try_borrow_mut() {
        Ok(mut state) => state.rates(net, flows, rec),
        // Re-entrant call (possible only if a recorder implementation
        // itself allocates rates): fall back to fresh state, and make
        // the fallback visible — a silent per-call scratch rebuild
        // would defeat the allocation-free contract undetected.
        Err(_) => {
            rec.add("maxmin/state_fallback", 1);
            sched::MaxMinState::new().rates(net, flows, rec)
        }
    })
}

/// The node list of one flow inside a [`FlowBatch`]: up to two ids
/// stored inline in the flow record itself, longer paths spilled to the
/// batch's shared arena. Real measurement flows overwhelmingly cross a
/// single tunnel node (the browser submits ~64 one-node flows per
/// page), so the inline form makes the common case allocation-free —
/// previously every flow owned a heap-allocated `Vec<NodeId>`.
///
/// Ids are stored *raw*, exactly as submitted: both schedulers sort and
/// deduplicate on entry, so an inline `[n, n]` path and a spilled
/// `[n, n, n]` path schedule identically (property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowNodes {
    /// `ids[..len]` holds the path (0, 1 or 2 nodes).
    Inline {
        /// Number of valid entries in `ids`.
        len: u8,
        /// Inline node storage.
        ids: [NodeId; 2],
    },
    /// The path lives at `arena[start..start + len]` in the owning
    /// [`FlowBatch`].
    Spilled {
        /// Arena offset of the first node id.
        start: u32,
        /// Path length.
        len: u32,
    },
}

/// A flow submitted to the fluid scheduler as part of a [`FlowBatch`].
#[derive(Debug, Clone, Copy)]
pub struct FluidFlow {
    /// When the flow's first byte becomes available to send.
    pub start: SimTime,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Nodes traversed (see [`FlowDemand::nodes`]); resolve against the
    /// owning batch with [`FlowBatch::path`].
    pub nodes: FlowNodes,
    /// Optional per-flow rate cap (see [`FlowDemand::cap`]).
    pub cap: Option<f64>,
    /// Fixed latency added to the flow's completion (propagation, slow
    /// start excess, protocol chatter).
    pub extra_latency: SimDuration,
}

/// A reusable batch of fluid flows: the flow records plus one shared
/// node-id arena for paths longer than the inline limit. This is the
/// submission unit of the fluid-scheduling API — callers build a batch
/// (reusing its capacity across measurements via [`FlowBatch::clear`])
/// and hand the whole thing to [`fluid_schedule`].
#[derive(Debug, Clone, Default)]
pub struct FlowBatch {
    flows: Vec<FluidFlow>,
    arena: Vec<NodeId>,
    grow_events: u64,
}

impl FlowBatch {
    /// An empty batch.
    pub fn new() -> FlowBatch {
        FlowBatch::default()
    }

    /// Removes every flow, keeping the flow and arena capacity so a
    /// warm batch never reallocates.
    pub fn clear(&mut self) {
        self.flows.clear();
        self.arena.clear();
    }

    /// Number of flows in the batch.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if the batch holds no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow records, in submission order.
    pub fn flows(&self) -> &[FluidFlow] {
        &self.flows
    }

    /// Flow `i`'s node path, exactly as submitted (raw: duplicates are
    /// preserved; the schedulers deduplicate on entry).
    pub fn path(&self, i: usize) -> &[NodeId] {
        match self.flows[i].nodes {
            FlowNodes::Inline { len, ref ids } => &ids[..len as usize],
            FlowNodes::Spilled { start, len } => {
                &self.arena[start as usize..(start + len) as usize]
            }
        }
    }

    /// Times the flow vec or the arena had to grow (the same
    /// allocation proxy as [`FluidScheduler::scratch_grows`]). Zero
    /// across a warm rebuild means pushing was allocation-free.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Appends a flow. Paths of up to two nodes are stored inline
    /// (counted process-wide as `flow/inline_nodes`); longer ones spill
    /// to the shared arena.
    pub fn push(
        &mut self,
        start: SimTime,
        bytes: f64,
        nodes: &[NodeId],
        cap: Option<f64>,
        extra_latency: SimDuration,
    ) {
        let repr = if nodes.len() <= 2 {
            ptperf_obs::perf::incr_flow_inline_nodes(1);
            let mut ids = [0usize; 2];
            ids[..nodes.len()].copy_from_slice(nodes);
            FlowNodes::Inline { len: nodes.len() as u8, ids }
        } else {
            self.spill(nodes)
        };
        self.push_flow(start, bytes, repr, cap, extra_latency);
    }

    /// Appends a flow whose path is forced into the spilled
    /// representation regardless of length. Exists so the equivalence
    /// property tests can prove inline and spilled forms of the same
    /// path schedule identically; production callers want [`push`].
    ///
    /// [`push`]: FlowBatch::push
    pub fn push_spilled(
        &mut self,
        start: SimTime,
        bytes: f64,
        nodes: &[NodeId],
        cap: Option<f64>,
        extra_latency: SimDuration,
    ) {
        let repr = self.spill(nodes);
        self.push_flow(start, bytes, repr, cap, extra_latency);
    }

    fn spill(&mut self, nodes: &[NodeId]) -> FlowNodes {
        let start = self.arena.len();
        if start + nodes.len() > self.arena.capacity() {
            self.grow_events += 1;
        }
        self.arena.extend_from_slice(nodes);
        FlowNodes::Spilled {
            start: start as u32,
            len: nodes.len() as u32,
        }
    }

    fn push_flow(
        &mut self,
        start: SimTime,
        bytes: f64,
        nodes: FlowNodes,
        cap: Option<f64>,
        extra_latency: SimDuration,
    ) {
        if self.flows.len() == self.flows.capacity() {
            self.grow_events += 1;
        }
        self.flows.push(FluidFlow {
            start,
            bytes,
            nodes,
            cap,
            extra_latency,
        });
    }
}

/// Completion report for one fluid flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidCompletion {
    /// When the last byte (plus `extra_latency`) arrives.
    pub finish: SimTime,
}

/// Runs the fluid schedule: flows join at their start times, continuously
/// share bandwidth max–min fairly, and leave when their bytes are done.
///
/// Deterministic, event-stepped: between consecutive events (a flow
/// arriving or finishing) rates are constant, so each flow's remaining
/// bytes decrease linearly. The persistent implementation keeps every
/// per-step structure in reusable scratch (see [`FluidScheduler`]), so
/// the hot path is allocation-free after warmup and each step costs
/// O(log E) heap work plus one allocation pass only when the active set
/// actually changed.
pub fn fluid_schedule(net: &FairNetwork, batch: &FlowBatch) -> Vec<FluidCompletion> {
    fluid_schedule_recorded(net, batch, &mut NullRecorder)
}

/// [`fluid_schedule`] with observation: counts scheduler steps
/// (`fluid/steps`, one per constant-rate segment), steps that reused the
/// previous rates because the active set was unchanged
/// (`fluid/realloc_skipped`), and forwards the recorder to the allocator
/// so per-step work (`maxmin/recomputations`, `maxmin/fast_path`,
/// `maxmin/rounds`) is visible too: each allocation is one global
/// solve, so `maxmin/recomputations` counts allocations and
/// `maxmin/rounds` their filling rounds. Delegation works the same way
/// as for `maxmin_rates`: one body, observations only.
///
/// A re-entrant call (a recorder implementation that itself schedules
/// flows) cannot borrow the thread-local scheduler a second time; it
/// runs on throwaway fresh state and counts the event as
/// `fluid/state_fallback`. Hold a [`FluidScheduler`] (or a per-worker
/// scratch embedding one) directly to avoid the thread-local entirely.
pub fn fluid_schedule_recorded(
    net: &FairNetwork,
    batch: &FlowBatch,
    rec: &mut dyn Recorder,
) -> Vec<FluidCompletion> {
    FLUID_STATE.with(|state| match state.try_borrow_mut() {
        Ok(mut s) => s.run_recorded(net, batch, rec),
        Err(_) => {
            rec.add("fluid/state_fallback", 1);
            FluidScheduler::new().run_recorded(net, batch, rec)
        }
    })
}

/// Helpers for benchmarking and stress-testing the allocator on random
/// instances (used by `ptperf-bench` and the equivalence tests; kept
/// here so instance generation is versioned with the allocator).
pub mod maxmin_demo {
    use super::{maxmin_rates, FairNetwork, FlowBatch, FlowDemand};
    use crate::rng::SimRng;
    use crate::time::{SimDuration, SimTime};

    /// A random allocator instance.
    pub struct Instance {
        /// The node set.
        pub net: FairNetwork,
        /// The flow demands.
        pub flows: Vec<FlowDemand>,
    }

    /// Generates a random instance: `n_nodes` nodes with capacities in
    /// `[1, 100]` MB/s, `n_flows` flows each crossing 1–3 random nodes,
    /// a third of them rate-capped.
    pub fn random_instance(rng: &mut SimRng, n_nodes: usize, n_flows: usize) -> Instance {
        assert!(n_nodes > 0);
        let mut net = FairNetwork::new();
        for _ in 0..n_nodes {
            net.add_node(rng.range_f64(1.0e6, 100.0e6));
        }
        let flows = (0..n_flows)
            .map(|_| {
                let hops = 1 + rng.below(3) as usize;
                let mut nodes: Vec<usize> = (0..hops)
                    .map(|_| rng.below(n_nodes as u64) as usize)
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                let cap = if rng.chance(0.33) {
                    Some(rng.range_f64(0.1e6, 10.0e6))
                } else {
                    None
                };
                FlowDemand { nodes, cap }
            })
            .collect();
        Instance { net, flows }
    }

    /// Like [`random_instance`], but adversarial: node paths may contain
    /// duplicates (exercising dedupe-on-entry) and some flows are
    /// cap-only (empty path). Used by the equivalence tests to prove the
    /// optimized allocator and the reference oracle agree on messy
    /// inputs too.
    pub fn random_instance_raw(rng: &mut SimRng, n_nodes: usize, n_flows: usize) -> Instance {
        assert!(n_nodes > 0);
        let mut net = FairNetwork::new();
        for _ in 0..n_nodes {
            net.add_node(rng.range_f64(1.0e6, 100.0e6));
        }
        let flows = (0..n_flows)
            .map(|_| {
                let cap_only = rng.chance(0.1);
                let mut nodes: Vec<usize> = if cap_only {
                    Vec::new()
                } else {
                    let hops = 1 + rng.below(3) as usize;
                    (0..hops)
                        .map(|_| rng.below(n_nodes as u64) as usize)
                        .collect()
                };
                // Sometimes repeat a node: the allocator must treat the
                // path as a set.
                if !nodes.is_empty() && rng.chance(0.2) {
                    let dup = nodes[rng.below(nodes.len() as u64) as usize];
                    nodes.push(dup);
                }
                let cap = if cap_only || rng.chance(0.33) {
                    Some(rng.range_f64(0.1e6, 10.0e6))
                } else {
                    None
                };
                FlowDemand { nodes, cap }
            })
            .collect();
        Instance { net, flows }
    }

    /// A random fluid-scheduling workload.
    pub struct FluidInstance {
        /// The node set.
        pub net: FairNetwork,
        /// The flow batch, with start times, sizes and optional caps.
        pub batch: FlowBatch,
    }

    /// Generates a random fluid workload over `n_nodes` nodes: zero-byte
    /// flows, cap-only flows, duplicated node paths, and simultaneous
    /// arrivals (start times quantized to 10 ms so collisions are
    /// common) are all represented.
    pub fn random_fluid_instance(
        rng: &mut SimRng,
        n_nodes: usize,
        n_flows: usize,
    ) -> FluidInstance {
        let raw = random_instance_raw(rng, n_nodes, n_flows);
        let mut batch = FlowBatch::new();
        for d in raw.flows {
            let bytes = if rng.chance(0.15) {
                0.0
            } else {
                rng.range_f64(1.0, 5.0e6)
            };
            let start = if rng.chance(0.3) {
                SimTime::ZERO
            } else {
                SimTime::from_nanos(rng.below(200) * 10_000_000)
            };
            batch.push(
                start,
                bytes,
                &d.nodes,
                d.cap,
                SimDuration::from_nanos(rng.below(50_000_000)),
            );
        }
        FluidInstance {
            net: raw.net,
            batch,
        }
    }

    /// An interleaved arrival/departure "churn" workload: flows arrive
    /// spread over a long horizon with sizes small enough that early
    /// flows drain while later ones are still due, so the active set
    /// rises and falls repeatedly and its bottleneck structure keeps
    /// splitting and re-forming — the shape that drives many
    /// multi-bottleneck generic-fill allocations through one run.
    /// Inherits every degenerate case of [`random_instance_raw`]
    /// (cap-only flows, duplicated path nodes) and adds zero-byte
    /// flows and simultaneous arrivals (starts are quantized to 5 ms).
    pub fn churn_fluid_instance(
        rng: &mut SimRng,
        n_nodes: usize,
        n_flows: usize,
    ) -> FluidInstance {
        let raw = random_instance_raw(rng, n_nodes, n_flows);
        let mut batch = FlowBatch::new();
        for (i, d) in raw.flows.into_iter().enumerate() {
            let bytes = if rng.chance(0.1) {
                0.0
            } else {
                rng.range_f64(1.0, 0.4e6)
            };
            let slot = i as u64 * 3 + rng.below(4);
            batch.push(
                SimTime::from_nanos(slot * 5_000_000),
                bytes,
                &d.nodes,
                d.cap,
                SimDuration::from_nanos(rng.below(20_000_000)),
            );
        }
        FluidInstance {
            net: raw.net,
            batch,
        }
    }

    /// A browser-style workload: `n_flows` sub-resources share one
    /// tunnel node of `rate_bps`, starting in staggered waves of six —
    /// the shape `ptperf-web::browser` submits for every selenium and
    /// speed-index measurement. This is the single-bottleneck case the
    /// allocator's analytic fast path targets.
    pub fn browser_style_instance(rng: &mut SimRng, n_flows: usize, rate_bps: f64) -> FluidInstance {
        let mut net = FairNetwork::new();
        let tunnel = net.add_node(rate_bps);
        let per_req = SimDuration::from_millis(180);
        let mut batch = FlowBatch::new();
        for i in 0..n_flows {
            let wave = (i / 6) as u64;
            batch.push(
                SimTime::ZERO + per_req * wave.min(20),
                rng.range_f64(500.0, 400_000.0),
                &[tunnel],
                None,
                per_req,
            );
        }
        FluidInstance { net, batch }
    }

    /// Solves an instance.
    pub fn solve(instance: &Instance) -> Vec<f64> {
        maxmin_rates(&instance.net, &instance.flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(caps: &[f64]) -> FairNetwork {
        let mut n = FairNetwork::new();
        for &c in caps {
            n.add_node(c);
        }
        n
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let n = net(&[100.0]);
        let rates = maxmin_rates(
            &n,
            &[FlowDemand {
                nodes: vec![0],
                cap: None,
            }],
        );
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let n = net(&[90.0]);
        let f = FlowDemand {
            nodes: vec![0],
            cap: None,
        };
        let rates = maxmin_rates(&n, &[f.clone(), f.clone(), f]);
        for r in rates {
            assert!((r - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_flow_releases_capacity_to_others() {
        let n = net(&[100.0]);
        let rates = maxmin_rates(
            &n,
            &[
                FlowDemand {
                    nodes: vec![0],
                    cap: Some(10.0),
                },
                FlowDemand {
                    nodes: vec![0],
                    cap: None,
                },
            ],
        );
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn multi_node_flow_limited_by_tightest_node() {
        let n = net(&[100.0, 30.0]);
        let rates = maxmin_rates(
            &n,
            &[FlowDemand {
                nodes: vec![0, 1],
                cap: None,
            }],
        );
        assert!((rates[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn classic_maxmin_example() {
        // Two nodes: A (cap 10) shared by f0,f1; B (cap 4) shared by f1,f2.
        // Max-min: f1 and f2 get 2 each (B binds), f0 gets 8.
        let n = net(&[10.0, 4.0]);
        let rates = maxmin_rates(
            &n,
            &[
                FlowDemand {
                    nodes: vec![0],
                    cap: None,
                },
                FlowDemand {
                    nodes: vec![0, 1],
                    cap: None,
                },
                FlowDemand {
                    nodes: vec![1],
                    cap: None,
                },
            ],
        );
        assert!((rates[1] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[0] - 8.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn cap_only_flow_allowed() {
        let n = net(&[]);
        let rates = maxmin_rates(
            &n,
            &[FlowDemand {
                nodes: vec![],
                cap: Some(7.0),
            }],
        );
        assert_eq!(rates, vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn rejects_unconstrained_flow() {
        let n = net(&[1.0]);
        let _ = maxmin_rates(
            &n,
            &[FlowDemand {
                nodes: vec![],
                cap: None,
            }],
        );
    }

    #[test]
    fn duplicated_node_in_path_counts_once() {
        // Regression: a path listing the same node twice used to
        // double-count the flow's share in that node's `count` and
        // `used`, halving its rate and over-reserving capacity.
        let dup = [
            FlowDemand {
                nodes: vec![0, 0],
                cap: None,
            },
            FlowDemand {
                nodes: vec![0],
                cap: None,
            },
        ];
        let n = net(&[100.0]);
        let rates = maxmin_rates(&n, &dup);
        assert!((rates[0] - 50.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 50.0).abs() < 1e-9, "{rates:?}");
        // And the retained oracle applies the same fix.
        assert_eq!(rates, reference::maxmin_rates(&n, &dup));
    }

    #[test]
    fn fluid_single_flow_duration() {
        let n = net(&[10.0]); // 10 bytes/s
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 100.0, &[0], None, SimDuration::ZERO);
        let done = fluid_schedule(&n, &b);
        assert!((done[0].finish.as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn fluid_two_flows_share_then_speed_up() {
        // Two equal flows share 10 B/s: each runs at 5 until the first
        // finishes... they finish together at t=20 (100 bytes each).
        let n = net(&[10.0]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 100.0, &[0], None, SimDuration::ZERO);
        b.push(SimTime::ZERO, 100.0, &[0], None, SimDuration::ZERO);
        let done = fluid_schedule(&n, &b);
        assert!((done[0].finish.as_secs_f64() - 20.0).abs() < 1e-6);
        assert!((done[1].finish.as_secs_f64() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn fluid_late_arrival_shares_remaining() {
        // Flow A (200 B) starts at 0; flow B (50 B) starts at t=10.
        // 0–10: A alone at 10 B/s → 100 B left.
        // 10–20: both at 5 B/s → B done at t=20 (50 B), A has 50 left.
        // 20–25: A alone at 10 B/s → done at t=25.
        let n = net(&[10.0]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 200.0, &[0], None, SimDuration::ZERO);
        b.push(
            SimTime::from_nanos(10_000_000_000),
            50.0,
            &[0],
            None,
            SimDuration::ZERO,
        );
        let done = fluid_schedule(&n, &b);
        assert!((done[1].finish.as_secs_f64() - 20.0).abs() < 1e-6, "{done:?}");
        assert!((done[0].finish.as_secs_f64() - 25.0).abs() < 1e-6, "{done:?}");
    }

    #[test]
    fn fluid_extra_latency_added() {
        let n = net(&[10.0]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 10.0, &[0], None, SimDuration::from_secs(2));
        let done = fluid_schedule(&n, &b);
        assert!((done[0].finish.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn maxmin_counters_match_the_classic_example() {
        // Same instance as `classic_maxmin_example`, with the filling
        // hand-traced: round 1 saturates node B freezing f1,f2
        // (node-limited), round 2 freezes f0 on node A (node-limited).
        let n = net(&[10.0, 4.0]);
        let flows = [
            FlowDemand { nodes: vec![0], cap: None },
            FlowDemand { nodes: vec![0, 1], cap: None },
            FlowDemand { nodes: vec![1], cap: None },
        ];
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let rates = maxmin_rates_recorded(&n, &flows, &mut rec);
        let data = rec.into_data();
        assert_eq!(data.counter("maxmin/recomputations"), Some(1));
        assert_eq!(data.counter("maxmin/rounds"), Some(2));
        assert_eq!(data.counter("maxmin/flows_node_limited"), Some(3));
        assert_eq!(data.counter("maxmin/flows_cap_limited"), Some(0));
        assert_eq!(data.counter("maxmin/nodes_saturated"), Some(2));
        // Two bottleneck nodes: the single-bottleneck fast path must
        // stay out of the way.
        assert_eq!(data.counter("maxmin/fast_path"), None);
        // And the rates are untouched by recording.
        assert_eq!(rates, maxmin_rates(&n, &flows));
    }

    #[test]
    fn maxmin_counts_cap_limited_flows() {
        let n = net(&[100.0]);
        let flows = [
            FlowDemand { nodes: vec![0], cap: Some(10.0) },
            FlowDemand { nodes: vec![0], cap: None },
        ];
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let _ = maxmin_rates_recorded(&n, &flows, &mut rec);
        let data = rec.into_data();
        assert_eq!(data.counter("maxmin/flows_cap_limited"), Some(1));
        assert_eq!(data.counter("maxmin/flows_node_limited"), Some(1));
    }

    #[test]
    fn single_bottleneck_fast_path_fires_and_matches_the_oracle() {
        // Browser shape: every flow crosses the one tunnel node, no caps.
        let n = net(&[120.0]);
        let f = FlowDemand { nodes: vec![0], cap: None };
        let flows = [f.clone(), f.clone(), f];
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let rates = maxmin_rates_recorded(&n, &flows, &mut rec);
        let data = rec.into_data();
        assert_eq!(data.counter("maxmin/fast_path"), Some(1));
        assert_eq!(data.counter("maxmin/rounds"), Some(1));
        assert_eq!(data.counter("maxmin/flows_node_limited"), Some(3));
        assert_eq!(data.counter("maxmin/nodes_saturated"), Some(1));
        // Bit-identical to the reference oracle on the same instance.
        let oracle = reference::maxmin_rates(&n, &flows);
        for (a, b) in rates.iter().zip(&oracle) {
            assert_eq!(a.to_bits(), b.to_bits(), "{rates:?} vs {oracle:?}");
        }
    }

    #[test]
    fn uniform_cap_fast_path_matches_the_oracle() {
        let n = net(&[120.0]);
        let capped = FlowDemand { nodes: vec![0], cap: Some(10.0) };
        let flows = [capped.clone(), capped.clone(), capped];
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let rates = maxmin_rates_recorded(&n, &flows, &mut rec);
        let data = rec.into_data();
        assert_eq!(data.counter("maxmin/fast_path"), Some(1));
        assert_eq!(data.counter("maxmin/flows_cap_limited"), Some(3));
        let oracle = reference::maxmin_rates(&n, &flows);
        for (a, b) in rates.iter().zip(&oracle) {
            assert_eq!(a.to_bits(), b.to_bits(), "{rates:?} vs {oracle:?}");
        }
        assert!((rates[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_caps_take_the_generic_path() {
        let n = net(&[120.0]);
        let flows = [
            FlowDemand { nodes: vec![0], cap: Some(10.0) },
            FlowDemand { nodes: vec![0], cap: None },
        ];
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let _ = maxmin_rates_recorded(&n, &flows, &mut rec);
        let data = rec.into_data();
        assert_eq!(data.counter("maxmin/fast_path"), None);
    }

    #[test]
    fn fluid_recording_counts_steps_without_changing_results() {
        // Late-arrival scenario from `fluid_late_arrival_shares_remaining`:
        // three constant-rate segments → three fluid steps, each with one
        // max-min recomputation (the active set changes at every event).
        let n = net(&[10.0]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 200.0, &[0], None, SimDuration::ZERO);
        b.push(
            SimTime::from_nanos(10_000_000_000),
            50.0,
            &[0],
            None,
            SimDuration::ZERO,
        );
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let recorded = fluid_schedule_recorded(&n, &b, &mut rec);
        let plain = fluid_schedule(&n, &b);
        assert_eq!(recorded, plain);
        let data = rec.into_data();
        assert_eq!(data.counter("fluid/steps"), Some(3));
        assert_eq!(data.counter("maxmin/recomputations"), Some(3));
        // The happy path never touches the re-entrancy fallback.
        assert_eq!(data.counter("fluid/state_fallback"), None);
    }

    #[test]
    fn fluid_zero_byte_flow_completes_at_start() {
        let n = net(&[10.0]);
        let mut b = FlowBatch::new();
        b.push(SimTime::from_nanos(5), 0.0, &[0], None, SimDuration::ZERO);
        let done = fluid_schedule(&n, &b);
        assert_eq!(done[0].finish.as_nanos(), 5);
    }

    #[test]
    fn zero_byte_arrival_skips_reallocation() {
        // A zero-byte flow arriving mid-transfer completes instantly and
        // leaves the active set unchanged, so the scheduler reuses the
        // previous rates instead of re-running the allocator.
        let n = net(&[10.0]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 100.0, &[0], None, SimDuration::ZERO);
        b.push(
            SimTime::from_nanos(5_000_000_000),
            0.0,
            &[0],
            None,
            SimDuration::ZERO,
        );
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let done = fluid_schedule_recorded(&n, &b, &mut rec);
        assert_eq!(done[1].finish.as_nanos(), 5_000_000_000);
        assert!((done[0].finish.as_secs_f64() - 10.0).abs() < 1e-6);
        let data = rec.into_data();
        assert_eq!(data.counter("fluid/steps"), Some(2));
        assert_eq!(data.counter("fluid/realloc_skipped"), Some(1));
        assert_eq!(data.counter("maxmin/recomputations"), Some(1));
        // The reference recomputes unconditionally yet lands on the
        // exact same completion times.
        assert_eq!(done, reference::fluid_schedule(&n, &b));
    }

    #[test]
    fn disjoint_flows_take_the_generic_fill_on_every_multi_node_event() {
        // Three flows on three disjoint nodes, plus a late arrival on
        // the third node. Each allocation is one global solve over the
        // whole active set; the fast path needs a single shared node,
        // so only the lone-survivor allocation takes it. Hand-traced
        // (levels are node shares; disjoint nodes never couple):
        //   t=0.0  f0,f1,f2 arrive  — nodes {0,1,2}: 3 rounds
        //                             (4e6 freezes f1, 8e6 f0, 16e6 f2)
        //   t=0.1  f2 completes     — nodes {0,1}:   2 rounds
        //   t=0.5  f3 arrives       — nodes {0,1,2}: 3 rounds
        //   t=0.6  f3 completes     — nodes {0,1}:   2 rounds
        //   t=1.0  f0 completes     — f1 alone on node 1: fast path
        let n = net(&[8e6, 4e6, 16e6]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 8e6, &[0], None, SimDuration::ZERO);
        b.push(SimTime::ZERO, 8e6, &[1], None, SimDuration::ZERO);
        b.push(SimTime::ZERO, 1.6e6, &[2], None, SimDuration::ZERO);
        b.push(
            SimTime::from_nanos(500_000_000),
            1.6e6,
            &[2],
            None,
            SimDuration::ZERO,
        );
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let recorded = fluid_schedule_recorded(&n, &b, &mut rec);
        assert_eq!(recorded, fluid_schedule(&n, &b), "recording must be neutral");
        assert_eq!(recorded, reference::fluid_schedule(&n, &b));
        let data = rec.into_data();
        assert_eq!(data.counter("maxmin/recomputations"), Some(5));
        assert_eq!(data.counter("maxmin/fast_path"), Some(1));
        assert_eq!(data.counter("maxmin/rounds"), Some(3 + 2 + 3 + 2 + 1));
    }

    #[test]
    fn near_tie_levels_freeze_together_at_the_global_level() {
        // Two flows on two disjoint nodes whose shares differ by ~1e-12
        // relative — inside the freeze epsilon band (1e-9 relative) but
        // not bit-identical. The global solve's first round picks the
        // lower share as the level, and the other node sits inside its
        // band, so both flows freeze in that one round at the *same*
        // level, exactly as the oracle does.
        let n = net(&[10.0, 10.0 * (1.0 + 1e-13)]);
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 100.0, &[0], None, SimDuration::ZERO);
        b.push(SimTime::ZERO, 100.0, &[1], None, SimDuration::ZERO);
        let mut rec = ptperf_obs::MemoryRecorder::new();
        let recorded = fluid_schedule_recorded(&n, &b, &mut rec);
        assert_eq!(recorded, fluid_schedule(&n, &b), "recording must be neutral");
        assert_eq!(recorded, reference::fluid_schedule(&n, &b));
        // Same level, so both drain in the same instant.
        assert_eq!(recorded[0], recorded[1]);
        let data = rec.into_data();
        // Both finish times land on the same nanosecond, so the run is
        // a single allocation: one generic round freezing both flows.
        assert_eq!(data.counter("maxmin/recomputations"), Some(1));
        assert_eq!(data.counter("maxmin/fast_path"), None);
        assert_eq!(data.counter("maxmin/rounds"), Some(1));
        assert_eq!(data.counter("maxmin/flows_node_limited"), Some(2));
    }

    #[test]
    fn flow_batch_stores_inline_and_spilled_paths() {
        let before = ptperf_obs::perf::snapshot();
        let mut b = FlowBatch::new();
        b.push(SimTime::ZERO, 1.0, &[], Some(1.0), SimDuration::ZERO);
        b.push(SimTime::ZERO, 1.0, &[3], None, SimDuration::ZERO);
        b.push(SimTime::ZERO, 1.0, &[4, 2], None, SimDuration::ZERO);
        b.push(SimTime::ZERO, 1.0, &[5, 1, 5], None, SimDuration::ZERO);
        b.push_spilled(SimTime::ZERO, 1.0, &[7], None, SimDuration::ZERO);
        assert_eq!(b.len(), 5);
        assert_eq!(b.path(0), &[] as &[NodeId]);
        assert_eq!(b.path(1), &[3]);
        assert_eq!(b.path(2), &[4, 2]);
        assert_eq!(b.path(3), &[5, 1, 5], "raw path order and duplicates kept");
        assert_eq!(b.path(4), &[7]);
        assert!(matches!(b.flows()[1].nodes, FlowNodes::Inline { len: 1, .. }));
        assert!(matches!(b.flows()[3].nodes, FlowNodes::Spilled { .. }));
        assert!(matches!(b.flows()[4].nodes, FlowNodes::Spilled { .. }));
        let d = ptperf_obs::perf::snapshot().delta_since(&before);
        assert!(d.flow_inline_nodes >= 3, "three pushes fit inline");
    }

    #[test]
    fn warm_flow_batch_rebuild_is_allocation_free() {
        let mut b = FlowBatch::new();
        for round in 0..3u64 {
            b.clear();
            for i in 0..32usize {
                b.push(
                    SimTime::from_nanos(round * 7 + i as u64),
                    64.0,
                    &[i % 3, 5, 9, i % 2],
                    None,
                    SimDuration::ZERO,
                );
            }
            if round == 0 {
                assert!(b.grow_events() > 0, "cold build must allocate");
            }
        }
        let warm = b.grow_events();
        b.clear();
        for i in 0..32usize {
            b.push(
                SimTime::from_nanos(i as u64),
                64.0,
                &[i % 3, 5, 9, i % 2],
                None,
                SimDuration::ZERO,
            );
        }
        assert_eq!(b.grow_events(), warm, "warm rebuild grew a buffer");
    }

    /// A recorder that re-enters `fluid_schedule_recorded` from inside
    /// a run: the thread-local scheduler is already borrowed, so the
    /// inner call must take the counted fresh-state fallback and still
    /// produce oracle-exact results.
    struct ReentrantRecorder {
        net: FairNetwork,
        batch: FlowBatch,
        inner: ptperf_obs::MemoryRecorder,
        fired: bool,
    }

    impl Recorder for ReentrantRecorder {
        fn enabled(&self) -> bool {
            true
        }

        fn add(&mut self, key: &'static str, _n: u64) {
            if key == "fluid/steps" && !self.fired {
                self.fired = true;
                let done = fluid_schedule_recorded(&self.net, &self.batch, &mut self.inner);
                assert_eq!(
                    done,
                    reference::fluid_schedule(&self.net, &self.batch),
                    "re-entrant schedule diverged from the oracle"
                );
            }
        }
    }

    #[test]
    fn reentrant_fluid_call_counts_state_fallback() {
        let mut inner_batch = FlowBatch::new();
        inner_batch.push(SimTime::ZERO, 100.0, &[0], None, SimDuration::ZERO);
        let mut rec = ReentrantRecorder {
            net: net(&[10.0]),
            batch: inner_batch,
            inner: ptperf_obs::MemoryRecorder::new(),
            fired: false,
        };
        let n = net(&[10.0]);
        let mut outer = FlowBatch::new();
        outer.push(SimTime::ZERO, 50.0, &[0], None, SimDuration::ZERO);
        let done = fluid_schedule_recorded(&n, &outer, &mut rec);
        assert!(rec.fired, "recorder never re-entered the scheduler");
        assert!((done[0].finish.as_secs_f64() - 5.0).abs() < 1e-6);
        let data = rec.inner.into_data();
        assert_eq!(
            data.counter("fluid/state_fallback"),
            Some(1),
            "re-entrant call must be counted, not silent"
        );
        assert_eq!(data.counter("fluid/steps"), Some(1));
    }
}
