//! Pins `share_link` against the general max–min fluid scheduler it
//! specialises.
//!
//! The browser sends each page's sub-resources through one tunnel, with
//! no per-flow caps and starts that rise with the index. For that shape
//! max–min fairness is an equal split of the link, and `share_link`
//! computes it in a single loop. The oracle below is the general
//! progressive-filling scheduler: any number of nodes, optional
//! per-flow caps, node paths, and the freeze order in which flows are
//! fixed at a level. It rescans every flow at every step and re-solves
//! the allocation from scratch. On one uncapped node it must give the
//! same finish times as `share_link`, bit for bit, and the same number
//! of steps.

use proptest::prelude::*;

use ptperf_sim::{share_link, LinkFlow, SimDuration, SimRng, SimTime};
use ptperf_web::{SiteList, Website, BROWSER_PARALLELISM};

/// A set of nodes, each with a service capacity in bytes per second.
struct Network {
    capacity: Vec<f64>,
}

/// A flow requesting bandwidth through a set of nodes.
#[derive(Clone)]
struct Demand {
    /// Nodes crossed (duplicates count once). An empty path means the
    /// flow is limited only by `cap`.
    nodes: Vec<usize>,
    /// Optional per-flow rate ceiling, bytes/s.
    cap: Option<f64>,
}

/// A flow submitted to the fluid scheduler.
struct FluidFlow {
    start: SimTime,
    bytes: f64,
    demand: Demand,
    extra_latency: SimDuration,
}

/// Max–min fair rates by progressive filling, recomputed from scratch.
fn maxmin_rates(net: &Network, flows: &[Demand]) -> Vec<f64> {
    let nodes = net.capacity.len();
    let mut paths: Vec<Vec<usize>> = Vec::with_capacity(flows.len());
    for (i, f) in flows.iter().enumerate() {
        assert!(
            !f.nodes.is_empty() || f.cap.is_some(),
            "flow {i} has no node constraint and no cap: demand is unbounded"
        );
        for &n in &f.nodes {
            assert!(n < nodes, "flow {i} references unknown node {n}");
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
    let mut member = vec![false; flows.len() * nodes];
    for (i, path) in paths.iter().enumerate() {
        for &n in path {
            member[i * nodes + n] = true;
        }
    }

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    let mut in_freeze = vec![false; flows.len()];
    let mut used = vec![0.0f64; nodes];
    let mut remaining = flows.len();

    while remaining > 0 {
        // Per-node equal share among still-unfrozen flows.
        let mut count = vec![0usize; nodes];
        for (i, path) in paths.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            for &n in path {
                count[n] += 1;
            }
        }
        // The binding level this round: the smallest of all node shares
        // and all unfrozen flow caps.
        let mut level = f64::INFINITY;
        for n in 0..nodes {
            if count[n] > 0 {
                let share = ((net.capacity[n] - used[n]) / count[n] as f64).max(0.0);
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
        assert!(level.is_finite(), "no binding constraint found");

        // The freeze set is taken against a snapshot of `used`: shares
        // are not recomputed mid-round.
        let eps = 1e-9 * level.max(1.0);
        let mut freeze_set: Vec<usize> = Vec::new();
        for n in 0..nodes {
            if count[n] == 0 {
                continue;
            }
            let share = ((net.capacity[n] - used[n]) / count[n] as f64).max(0.0);
            if share <= level + eps {
                for i in 0..flows.len() {
                    if !frozen[i] && !in_freeze[i] && member[i * nodes + n] {
                        in_freeze[i] = true;
                        freeze_set.push(i);
                    }
                }
            }
        }
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
        assert!(
            !freeze_set.is_empty(),
            "progressive filling made no progress"
        );
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
    rate
}

/// The general fluid schedule: flows join at their start times, share
/// bandwidth max–min fairly, and leave when their bytes are done.
/// Returns each flow's finish time and the number of constant-rate
/// steps.
fn fluid_schedule(net: &Network, flows: &[FluidFlow]) -> (Vec<SimTime>, u64) {
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes.max(0.0)).collect();
    let mut done = vec![false; flows.len()];
    let mut finish = vec![SimTime::ZERO; flows.len()];
    let mut steps = 0;
    let mut now = flows.iter().map(|f| f.start).min().unwrap_or(SimTime::ZERO);

    loop {
        // Active = started, not done. Pending = not yet started.
        let mut active = Vec::new();
        let mut next_start: Option<SimTime> = None;
        for (i, f) in flows.iter().enumerate() {
            if done[i] {
                continue;
            }
            if f.start <= now {
                if remaining[i] <= 0.0 {
                    // Zero-byte flow: completes the moment it starts.
                    done[i] = true;
                    finish[i] = f.start + f.extra_latency;
                    continue;
                }
                active.push(i);
            } else {
                next_start = Some(next_start.map_or(f.start, |s: SimTime| s.min(f.start)));
            }
        }
        if active.is_empty() {
            match next_start {
                Some(t) => {
                    now = t;
                    continue;
                }
                None => break,
            }
        }

        let demands: Vec<Demand> = active.iter().map(|&i| flows[i].demand.clone()).collect();
        let rates = maxmin_rates(net, &demands);
        steps += 1;

        // Time until the first active flow drains at current rates.
        let mut dt_finish = f64::INFINITY;
        for (k, &i) in active.iter().enumerate() {
            if rates[k] > 0.0 {
                dt_finish = dt_finish.min(remaining[i] / rates[k]);
            }
        }
        assert!(
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
        let after = now + SimDuration::from_secs_f64(dt);
        for (k, &i) in active.iter().enumerate() {
            remaining[i] -= rates[k] * dt;
            if remaining[i] <= 1e-6 {
                done[i] = true;
                finish[i] = after + flows[i].extra_latency;
            }
        }
        now = after;
    }
    (finish, steps)
}

/// Runs `flows` through `share_link` and through the oracle on one
/// uncapped node of `capacity`, and asserts both agree exactly.
fn assert_agree(capacity: f64, flows: &[LinkFlow], what: &str) {
    let mut finish = Vec::new();
    let steps = share_link(capacity, flows, &mut Vec::new(), &mut finish);
    let net = Network {
        capacity: vec![capacity],
    };
    let general: Vec<FluidFlow> = flows
        .iter()
        .map(|f| FluidFlow {
            start: f.start,
            bytes: f.bytes,
            demand: Demand {
                nodes: vec![0],
                cap: None,
            },
            extra_latency: f.extra_latency,
        })
        .collect();
    let (want, want_steps) = fluid_schedule(&net, &general);
    assert_eq!(finish.len(), want.len(), "{what}");
    for (i, (got, want)) in finish.iter().zip(&want).enumerate() {
        assert_eq!(got.as_nanos(), want.as_nanos(), "{what}: flow {i} diverged");
    }
    assert_eq!(steps, want_steps, "{what}: step counts diverged");
}

/// The browser's flow set for `resources` (see `web::browser`): request
/// `i` starts at `per_req × min(i / parallelism, 20)` and carries
/// `per_req` of extra latency.
fn browser_flows(resources: &[f64], parallelism: usize, per_req: SimDuration) -> Vec<LinkFlow> {
    resources
        .iter()
        .enumerate()
        .map(|(i, &bytes)| LinkFlow {
            start: SimTime::ZERO + per_req * ((i / parallelism) as u64).min(20),
            bytes,
            extra_latency: per_req,
        })
        .collect()
}

/// Random resource sizes, with zero-byte resources at the start, in
/// the middle and at the end when `zeros` is set.
fn resources(rng: &mut SimRng, n: usize, zeros: bool) -> Vec<f64> {
    let mut out: Vec<f64> = (0..n)
        .map(|_| rng.below(400_000) as f64 + if rng.chance(0.3) { 0.0 } else { 500.0 })
        .collect();
    if zeros && n > 0 {
        for i in [0, n / 2, n - 1] {
            out[i] = 0.0;
        }
    }
    out
}

#[test]
fn browser_instances_agree_at_every_parallelism() {
    let mut rng = SimRng::new(20_240_516);
    for parallelism in 2..=6 {
        // Every count up to 64, then a stride through ~300: the
        // 20-wave cap binds from resource 20 × parallelism + parallelism
        // on (index 42 at parallelism 2, 126 at 6).
        for n in (0..=64).chain((65..=310).step_by(7)) {
            let capacity = rng.range_f64(5.0e3, 5.0e6);
            let per_req = SimDuration::from_nanos(rng.range_u64(1_000_000, 900_000_000));
            let res = resources(&mut rng, n, n % 3 == 0);
            let flows = browser_flows(&res, parallelism, per_req);
            assert_agree(
                capacity,
                &flows,
                &format!("parallelism {parallelism}, n {n}"),
            );
        }
    }
}

#[test]
fn all_equal_starts_agree() {
    let mut rng = SimRng::new(7);
    for n in 0..=40 {
        let res = resources(&mut rng, n, n % 2 == 1);
        // parallelism >= n: every request is in the first wave.
        let flows = browser_flows(&res, n.max(1), SimDuration::from_millis(150));
        assert_agree(
            rng.range_f64(1.0e3, 1.0e7),
            &flows,
            &format!("equal starts, n {n}"),
        );
    }
}

#[test]
fn real_site_resource_lists_agree() {
    let per_req = SimDuration::from_millis(310);
    for list in [SiteList::Tranco, SiteList::Cbl] {
        for rank in (0..1000).step_by(37) {
            let site = Website::generate(list, rank);
            let res: Vec<f64> = site.resources.iter().map(|&b| b as f64).collect();
            for (parallelism, capacity) in [(BROWSER_PARALLELISM, 1.2e6), (2, 60.0e3)] {
                let flows = browser_flows(&res, parallelism, per_req);
                assert_agree(capacity, &flows, &format!("{} rank {rank}", list.label()));
            }
        }
    }
}

#[test]
fn oracle_is_the_general_scheduler() {
    // Two nodes: A (cap 10) shared by f0, f1; B (cap 4) shared by f1,
    // f2. Max–min gives f1 and f2 2 each (B binds) and f0 8.
    let net = Network {
        capacity: vec![10.0, 4.0],
    };
    let d = |nodes: Vec<usize>, cap| Demand { nodes, cap };
    let rates = maxmin_rates(
        &net,
        &[d(vec![0], None), d(vec![0, 1], None), d(vec![1], None)],
    );
    assert_eq!(rates, [8.0, 2.0, 2.0]);
    // A capped flow releases capacity to the others.
    let rates = maxmin_rates(&net, &[d(vec![0], Some(1.0)), d(vec![0, 0], None)]);
    assert_eq!(rates, [1.0, 9.0]);
}

proptest! {
    /// Every flow finishes no earlier than its bytes over the whole
    /// link and no later than serving every flow one after another.
    #[test]
    fn share_link_bounds(
        capacity in 10.0f64..100.0,
        sizes in proptest::collection::vec(1.0f64..5_000.0, 1..6),
    ) {
        let flows: Vec<LinkFlow> = sizes
            .iter()
            .map(|&bytes| LinkFlow { start: SimTime::ZERO, bytes, extra_latency: SimDuration::ZERO })
            .collect();
        let mut finish = Vec::new();
        share_link(capacity, &flows, &mut Vec::new(), &mut finish);
        let total_bytes: f64 = sizes.iter().sum();
        for (f, done) in flows.iter().zip(&finish) {
            let lower = f.bytes / capacity;
            let upper = total_bytes / capacity + 1e-6;
            let t = done.as_secs_f64();
            prop_assert!(t >= lower - 1e-6, "finish {t} < lower bound {lower}");
            prop_assert!(t <= upper, "finish {t} > upper bound {upper}");
        }
    }
}
