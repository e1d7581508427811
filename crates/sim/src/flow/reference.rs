//! The from-scratch max–min allocator and fluid scheduler, retained as
//! an **equivalence oracle** for the persistent implementation behind
//! the module-level entry points.
//!
//! This is the original progressive-filling code with two like-for-like
//! changes so the oracle and the optimized path can be compared bit for
//! bit on the same inputs:
//!
//! * node paths are deduplicated on entry (the double-count bug fix
//!   applies to both implementations);
//! * the `freeze_set.contains` / `f.nodes.contains(&n)` inner-loop
//!   scans are replaced by per-flow boolean membership rows, which
//!   preserves the freeze *order* exactly while removing the O(n²)
//!   behavior.
//!
//! Everything else — the order of every floating-point operation, the
//! epsilon rule, the defensive no-progress branch — is untouched, so a
//! result produced here is the ground truth the optimized scheduler
//! must reproduce exactly. Per-step `Vec` allocations are deliberate:
//! this module optimizes for auditability, not speed.

use ptperf_obs::{NullRecorder, Recorder};

use super::{FairNetwork, FlowBatch, FlowDemand, FluidCompletion, NodeId};
use crate::time::{SimDuration, SimTime};

/// Reference [`super::maxmin_rates`]: progressive filling recomputed
/// from scratch, one `Vec` per round.
pub fn maxmin_rates(net: &FairNetwork, flows: &[FlowDemand]) -> Vec<f64> {
    maxmin_rates_recorded(net, flows, &mut NullRecorder)
}

/// Reference [`super::maxmin_rates_recorded`], emitting the same
/// counter families (minus `maxmin/fast_path`: the oracle has no fast
/// path, every instance takes the generic loop).
pub fn maxmin_rates_recorded(
    net: &FairNetwork,
    flows: &[FlowDemand],
    rec: &mut dyn Recorder,
) -> Vec<f64> {
    rec.add("maxmin/recomputations", 1);
    let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(flows.len());
    for (i, f) in flows.iter().enumerate() {
        assert!(
            !f.nodes.is_empty() || f.cap.is_some(),
            "flow {i} has no node constraint and no cap: demand is unbounded"
        );
        for &n in &f.nodes {
            assert!(n < net.len(), "flow {i} references unknown node {n}");
        }
        if let Some(c) = f.cap {
            assert!(c > 0.0 && c.is_finite(), "flow {i} has invalid cap {c}");
        }
        let mut path = f.nodes.clone();
        path.sort_unstable();
        path.dedup();
        paths.push(path);
    }
    // Per-flow node membership, row-major: member[i * nodes + n].
    let mut member = vec![false; flows.len() * net.len()];
    for (i, path) in paths.iter().enumerate() {
        for &n in path {
            member[i * net.len() + n] = true;
        }
    }

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut in_freeze = vec![false; flows.len()];
    let mut used = vec![0.0f64; net.len()];
    let mut remaining = flows.len();

    while remaining > 0 {
        rec.add("maxmin/rounds", 1);
        // Per-node equal share among still-unfrozen flows.
        let mut count = vec![0usize; net.len()];
        for (i, path) in paths.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            for &n in path {
                count[n] += 1;
            }
        }
        // The binding level this round: the smallest of all node shares and
        // all unfrozen flow caps.
        let mut level = f64::INFINITY;
        for n in 0..net.len() {
            if count[n] > 0 {
                let share = ((net.capacity(n) - used[n]) / count[n] as f64).max(0.0);
                level = level.min(share);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                if let Some(c) = f.cap {
                    level = level.min(c);
                }
            }
        }
        debug_assert!(level.is_finite(), "no binding constraint found");

        // Determine the freeze set against a *snapshot* of `used` —
        // freezing mutates `used`, and recomputing shares mid-round with
        // stale per-node counts would wrongly freeze flows whose binding
        // node is not actually saturated at this level.
        let eps = 1e-9 * level.max(1.0);
        let mut freeze_set: Vec<usize> = Vec::new();
        for n in 0..net.len() {
            if count[n] == 0 {
                continue;
            }
            let share = ((net.capacity(n) - used[n]) / count[n] as f64).max(0.0);
            if share <= level + eps {
                for i in 0..flows.len() {
                    if !frozen[i] && !in_freeze[i] && member[i * net.len() + n] {
                        in_freeze[i] = true;
                        freeze_set.push(i);
                    }
                }
            }
        }
        let node_limited = freeze_set.len();
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] && !in_freeze[i] {
                if let Some(c) = f.cap {
                    if c <= level + eps {
                        in_freeze[i] = true;
                        freeze_set.push(i);
                    }
                }
            }
        }
        rec.add("maxmin/flows_node_limited", node_limited as u64);
        rec.add(
            "maxmin/flows_cap_limited",
            (freeze_set.len() - node_limited) as u64,
        );
        if freeze_set.is_empty() {
            // Defensive: guarantee termination under floating-point
            // pathologies by freezing everything at the level.
            debug_assert!(false, "progressive filling made no progress");
            freeze_set.extend((0..flows.len()).filter(|&i| !frozen[i]));
        }
        for i in freeze_set {
            let at = flows[i].cap.map_or(level, |c| c.min(level));
            rate[i] = at;
            frozen[i] = true;
            in_freeze[i] = false;
            for &n in &paths[i] {
                used[n] += at;
            }
            remaining -= 1;
        }
    }
    if rec.enabled() {
        let saturated = (0..net.len())
            .filter(|&n| used[n] + 1e-9 * net.capacity(n).max(1.0) >= net.capacity(n))
            .count();
        rec.add("maxmin/nodes_saturated", saturated as u64);
    }
    rate
}

/// Reference [`super::fluid_schedule`]: rescans every flow and rebuilds
/// the demand `Vec` at every constant-rate segment.
pub fn fluid_schedule(net: &FairNetwork, batch: &FlowBatch) -> Vec<FluidCompletion> {
    fluid_schedule_recorded(net, batch, &mut NullRecorder)
}

/// Reference [`super::fluid_schedule_recorded`]. Recomputes the
/// allocation unconditionally at every step (so it never emits
/// `fluid/realloc_skipped`), and clones each active flow's node path
/// out of the batch into a per-step demand `Vec` — the retained
/// allocating path the unit benchmark measures against.
pub fn fluid_schedule_recorded(
    net: &FairNetwork,
    batch: &FlowBatch,
    rec: &mut dyn Recorder,
) -> Vec<FluidCompletion> {
    let flows = batch.flows();
    #[derive(Clone)]
    struct Live {
        remaining: f64,
        done: bool,
    }
    let mut live: Vec<Live> = flows
        .iter()
        .map(|f| Live {
            remaining: f.bytes.max(0.0),
            done: false,
        })
        .collect();
    let mut finish = vec![SimTime::ZERO; flows.len()];

    // Process in virtual time.
    let mut now = flows
        .iter()
        .map(|f| f.start)
        .min()
        .unwrap_or(SimTime::ZERO);

    loop {
        // Active = started, not done. Pending = not yet started.
        let mut active_idx = Vec::new();
        let mut next_start: Option<SimTime> = None;
        for (i, f) in flows.iter().enumerate() {
            if live[i].done {
                continue;
            }
            if f.start <= now {
                if live[i].remaining <= 0.0 {
                    // Zero-byte flow: completes the moment it starts.
                    live[i].done = true;
                    finish[i] = f.start + f.extra_latency;
                    continue;
                }
                active_idx.push(i);
            } else {
                next_start = Some(next_start.map_or(f.start, |s: SimTime| s.min(f.start)));
            }
        }
        if active_idx.is_empty() {
            match next_start {
                Some(t) => {
                    now = t;
                    continue;
                }
                None => break,
            }
        }

        let demands: Vec<FlowDemand> = active_idx
            .iter()
            .map(|&i| FlowDemand {
                nodes: batch.path(i).to_vec(),
                cap: flows[i].cap,
            })
            .collect();
        let rates = maxmin_rates_recorded(net, &demands, rec);
        rec.add("fluid/steps", 1);

        // Time until the first active flow drains at current rates.
        let mut dt_finish = f64::INFINITY;
        for (k, &i) in active_idx.iter().enumerate() {
            if rates[k] > 0.0 {
                dt_finish = dt_finish.min(live[i].remaining / rates[k]);
            }
        }
        debug_assert!(
            dt_finish.is_finite(),
            "active flows exist but none can make progress"
        );
        let mut dt = dt_finish;
        if let Some(t) = next_start {
            let until_start = t.duration_since(now).as_secs_f64();
            if until_start < dt {
                dt = until_start;
            }
        }

        // Advance: drain bytes, mark completions.
        let step = SimDuration::from_secs_f64(dt);
        let after = now + step;
        for (k, &i) in active_idx.iter().enumerate() {
            live[i].remaining -= rates[k] * dt;
            if live[i].remaining <= 1e-6 {
                live[i].done = true;
                finish[i] = after + flows[i].extra_latency;
            }
        }
        now = after;
    }

    finish.into_iter().map(|finish| FluidCompletion { finish }).collect()
}
