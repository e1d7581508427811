//! Processor sharing on one link.
//!
//! A browser page load sends its sub-resources through one PT tunnel:
//! every flow crosses the same bottleneck and none carries a rate cap
//! of its own, so max–min fairness reduces to an equal split of the
//! link among the flows in progress. [`share_link`] steps that split
//! from event to event (an arrival or a completion); between events
//! every rate is constant and each flow drains linearly.

use crate::time::{SimDuration, SimTime};

/// One transfer on the shared link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlow {
    /// When the flow's first byte can be sent.
    pub start: SimTime,
    /// Payload size in bytes. A flow without bytes finishes at
    /// `start + extra_latency` and never takes a share of the link.
    pub bytes: f64,
    /// Fixed latency added to the flow's completion (request round
    /// trip, stream open, protocol chatter).
    pub extra_latency: SimDuration,
}

/// Runs `flows` through a link of `capacity_bps` bytes/s under
/// processor sharing and writes flow `i`'s finish time (its last byte
/// plus its extra latency) to `finish[i]`. Returns the number of
/// constant-rate steps.
///
/// Flows are admitted in index order once their start is due; each step
/// gives every active flow `capacity_bps / k` and runs until the next
/// arrival or the first completion. `active` is scratch, cleared on
/// entry: callers that keep it and `finish` across runs stay
/// allocation-free once warm.
///
/// # Panics
/// Panics if `capacity_bps` is not positive and finite, or if a flow
/// starts before the flow ahead of it in `flows`.
pub fn share_link(
    capacity_bps: f64,
    flows: &[LinkFlow],
    active: &mut Vec<(usize, f64)>,
    finish: &mut Vec<SimTime>,
) -> u64 {
    assert!(
        capacity_bps > 0.0 && capacity_bps.is_finite(),
        "link capacity must be positive and finite, got {capacity_bps}"
    );
    assert!(
        flows.windows(2).all(|w| w[0].start <= w[1].start),
        "flow starts must not decrease with the index"
    );
    finish.clear();
    finish.resize(flows.len(), SimTime::ZERO);
    active.clear();
    let Some(first) = flows.first() else {
        return 0;
    };
    let mut now = first.start;
    let mut next = 0;
    let mut steps = 0;
    loop {
        while let Some(f) = flows.get(next).filter(|f| f.start <= now) {
            if f.bytes > 0.0 {
                active.push((next, f.bytes));
            } else {
                finish[next] = f.start + f.extra_latency;
            }
            next += 1;
        }
        if active.is_empty() {
            match flows.get(next) {
                Some(f) => {
                    now = f.start;
                    continue;
                }
                None => break,
            }
        }
        steps += 1;
        let rate = capacity_bps / active.len() as f64;
        let mut dt = active
            .iter()
            .fold(f64::INFINITY, |dt, &(_, left)| dt.min(left / rate));
        if let Some(f) = flows.get(next) {
            let until_start = f.start.duration_since(now).as_secs_f64();
            if until_start < dt {
                dt = until_start;
            }
        }
        debug_assert!(dt > 0.0, "active flows exist but none can make progress");
        let after = now + SimDuration::from_secs_f64(dt);
        active.retain_mut(|(i, left)| {
            *left -= rate * dt;
            let done = *left <= 1e-6;
            if done {
                finish[*i] = after + flows[*i].extra_latency;
            }
            !done
        });
        now = after;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `(start s, bytes, extra latency s)` flows on a link and
    /// returns the finish times in seconds and the step count.
    fn run(capacity: f64, flows: &[(f64, f64, f64)]) -> (Vec<f64>, u64) {
        let flows: Vec<LinkFlow> = flows
            .iter()
            .map(|&(start, bytes, extra)| LinkFlow {
                start: SimTime::ZERO + SimDuration::from_secs_f64(start),
                bytes,
                extra_latency: SimDuration::from_secs_f64(extra),
            })
            .collect();
        let mut finish = Vec::new();
        let steps = share_link(capacity, &flows, &mut Vec::new(), &mut finish);
        (finish.iter().map(|t| t.as_secs_f64()).collect(), steps)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn single_flow_takes_the_whole_link() {
        let (done, steps) = run(10.0, &[(0.0, 100.0, 0.0)]);
        assert!(close(done[0], 10.0), "{done:?}");
        assert_eq!(steps, 1);
    }

    #[test]
    fn two_flows_share_and_finish_together() {
        let (done, _) = run(10.0, &[(0.0, 100.0, 0.0), (0.0, 100.0, 0.0)]);
        assert!(close(done[0], 20.0) && close(done[1], 20.0), "{done:?}");
    }

    #[test]
    fn late_arrival_shares_what_is_left() {
        // 0–10 s: A alone at 10 B/s, 100 B left. 10–20 s: both at 5 B/s,
        // B done. 20–25 s: A alone again.
        let (done, steps) = run(10.0, &[(0.0, 200.0, 0.0), (10.0, 50.0, 0.0)]);
        assert!(close(done[1], 20.0), "{done:?}");
        assert!(close(done[0], 25.0), "{done:?}");
        assert_eq!(steps, 3);
    }

    #[test]
    fn extra_latency_is_added_to_the_finish() {
        let (done, _) = run(10.0, &[(0.0, 10.0, 2.0)]);
        assert!(close(done[0], 3.0), "{done:?}");
    }

    #[test]
    fn zero_byte_flow_finishes_at_its_start_without_a_step() {
        let (done, steps) = run(10.0, &[(0.0, 100.0, 0.0), (5.0, 0.0, 0.5)]);
        assert!(close(done[1], 5.5), "{done:?}");
        assert!(close(done[0], 10.0), "{done:?}");
        // The arrival splits the transfer in two; the empty flow never
        // takes a share.
        assert_eq!(steps, 2);
        assert_eq!(run(10.0, &[(1.0, 0.0, 0.0)]), (vec![1.0], 0));
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn decreasing_starts_panic() {
        run(10.0, &[(1.0, 10.0, 0.0), (0.5, 10.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_capacity_panics() {
        run(0.0, &[(0.0, 10.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn negative_capacity_panics() {
        run(-1.0, &[(0.0, 10.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nan_capacity_panics() {
        run(f64::NAN, &[(0.0, 10.0, 0.0)]);
    }
}
