//! Pins the circuit window cap against the protocol it abbreviates.
//!
//! `Circuit::transfer_model` times every Tor stream in closed form at
//! `min(bottleneck, CIRC_WINDOW_CELLS · RELAY_DATA_LEN / RTT)`. This
//! suite checks that shortcut against a per-cell model of Tor's
//! circuit-level SENDME flow control: the exit sends RELAY_DATA cells
//! while its package window is open, each cell occupies the bottleneck
//! for `RELAY_DATA_LEN / bottleneck` and then propagates for half an
//! RTT, and the client answers every `SENDME_INCREMENT` cells with a
//! SENDME that reopens the window half an RTT later.
//!
//! The oracle never restates the formula: every assertion reads the cap
//! from the production `transfer_model` of a real `Circuit`.
//!
//! SENDME batching costs the protocol a little against the closed
//! form. In the window-bound steady state, one full window drains per
//! `RTT + SENDME_INCREMENT · cell_time`, so right at the crossover
//! (`cell_time = RTT / window`) the protocol runs at
//! `1 / (1 + SENDME_INCREMENT / window)` ≈ 91% of the cap. Away from
//! the crossover the gap vanishes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ptperf_sim::{Location, PathSample, SimDuration, SimRng};
use ptperf_tor::circuit::CIRC_WINDOW_CELLS;
use ptperf_tor::{Circuit, CircuitOptions, Consensus, ConsensusParams, PathSelector, RELAY_DATA_LEN};

/// Cells the client acknowledges per SENDME (Tor's circuit increment).
const SENDME_INCREMENT: u32 = 100;

/// The exit → destination leg every case uses; the circuit carries the
/// rest of the round trip.
const DEST_RTT: SimDuration = SimDuration::from_millis(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// The exit finished putting one cell through the bottleneck.
    Service,
    /// A cell reached the client.
    Arrival,
    /// A SENDME reached the exit.
    SendmeReturn,
}

/// The per-cell protocol on a plain binary heap of `(ns, seq, event)`;
/// `seq` breaks ties in scheduling order.
struct Sendme {
    queue: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    cell_ns: u64,
    half_rtt_ns: u64,
    cells_left: u64,
    window: u32,
    busy: bool,
    unacked: u32,
    arrivals: Vec<u64>,
}

impl Sendme {
    fn push(&mut self, at: u64, ev: Ev) {
        self.queue.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }

    /// The exit's send loop: one cell per service interval while the
    /// package window is open.
    fn try_send(&mut self, now: u64) {
        if self.busy || self.cells_left == 0 || self.window == 0 {
            return;
        }
        self.busy = true;
        self.window -= 1;
        self.cells_left -= 1;
        self.push(now + self.cell_ns, Ev::Service);
    }
}

/// Runs a `cells`-cell transfer over a round trip of `rtt` through a
/// `bottleneck_bps` bottleneck; returns each cell's client arrival
/// instant in nanoseconds, in order.
fn arrivals(cells: u64, rtt: SimDuration, bottleneck_bps: f64) -> Vec<u64> {
    let mut sim = Sendme {
        queue: BinaryHeap::new(),
        seq: 0,
        cell_ns: (RELAY_DATA_LEN as f64 * 1e9 / bottleneck_bps).round() as u64,
        half_rtt_ns: rtt.as_nanos() / 2,
        cells_left: cells,
        window: CIRC_WINDOW_CELLS,
        busy: false,
        unacked: 0,
        arrivals: Vec::with_capacity(cells as usize),
    };
    sim.try_send(0);
    while let Some(Reverse((now, _, ev))) = sim.queue.pop() {
        match ev {
            Ev::Service => {
                sim.busy = false;
                sim.push(now + sim.half_rtt_ns, Ev::Arrival);
                sim.try_send(now);
            }
            Ev::Arrival => {
                sim.arrivals.push(now);
                sim.unacked += 1;
                if sim.unacked == SENDME_INCREMENT {
                    sim.unacked = 0;
                    sim.push(now + sim.half_rtt_ns, Ev::SendmeReturn);
                }
            }
            Ev::SendmeReturn => {
                sim.window += SENDME_INCREMENT;
                sim.try_send(now);
            }
        }
    }
    assert_eq!(sim.arrivals.len() as u64, cells, "every cell must arrive");
    sim.arrivals
}

/// Goodput between two arrivals a whole number of SENDME batches
/// apart, past the first window's transient. The steady state repeats
/// once per batch, so the span measures it exactly.
fn steady_rate(arrivals: &[u64]) -> f64 {
    let batch = SENDME_INCREMENT as usize;
    let from = arrivals.len() / 4 / batch * batch;
    let to = from + (arrivals.len() / 2 / batch) * batch;
    let bytes = ((to - from) * RELAY_DATA_LEN) as f64;
    bytes / ((arrivals[to] - arrivals[from]) as f64 / 1e9)
}

/// A real circuit from a small consensus, with its path RTT and
/// bottleneck overridden so `rtt + DEST_RTT` is the full round trip.
fn circuit(rtt: SimDuration, bottleneck_bps: f64) -> Circuit {
    let mut rng = SimRng::new(7);
    let params = ConsensusParams {
        n_relays: 60,
        ..ConsensusParams::default()
    };
    let consensus = Consensus::generate_with(&mut rng, &params);
    let spec = PathSelector::new()
        .select(&consensus, &mut rng)
        .expect("the small consensus has a path");
    let opts = CircuitOptions::new(Location::London);
    let mut circuit = Circuit::establish(&consensus, spec, &opts, &mut rng);
    circuit.rtt = rtt - DEST_RTT;
    circuit.bottleneck_bps = bottleneck_bps;
    circuit
}

/// The production cap for a stream over a `rtt` round trip through a
/// `bottleneck_bps` bottleneck.
fn production_cap(rtt: SimDuration, bottleneck_bps: f64) -> f64 {
    circuit(rtt, bottleneck_bps)
        .transfer_model(PathSample {
            rtt: DEST_RTT,
            loss: 0.0,
        })
        .bottleneck_bps
}

/// Runs one regime case and checks completion time and steady-state
/// rate against the production cap within `tol`; returns the cap.
fn check_regime(bytes: u64, rtt_ms: u64, bottleneck_bps: f64, tol: f64) -> f64 {
    let rtt = SimDuration::from_millis(rtt_ms);
    let cap = production_cap(rtt, bottleneck_bps);
    let arr = arrivals(bytes.div_ceil(RELAY_DATA_LEN as u64), rtt, bottleneck_bps);
    // Fluid time at the cap plus the last cell's half-RTT propagation.
    let predicted = bytes as f64 / cap + rtt.as_secs_f64() / 2.0;
    let actual = *arr.last().unwrap() as f64 / 1e9;
    let err = (actual - predicted).abs() / predicted;
    assert!(err < tol, "completion {actual:.3}s vs predicted {predicted:.3}s");
    let rate = steady_rate(&arr);
    let err = (rate - cap).abs() / cap;
    assert!(err < tol, "steady rate {rate:.0} B/s vs cap {cap:.0} B/s");
    cap
}

#[test]
fn bandwidth_bound_regime_matches_the_cap() {
    // Window 1000 cells / 100 ms ≈ 5 MB/s, far above a 200 kB/s
    // bottleneck: the bottleneck governs.
    let cap = check_regime(2_000_000, 100, 200_000.0, 0.05);
    assert_eq!(cap, 200_000.0, "the bottleneck side must bind");
}

#[test]
fn window_bound_regime_matches_the_cap() {
    // Window 1000 × 498 B per 600 ms ≈ 830 kB/s, far below a 20 MB/s
    // bottleneck: the SENDME window governs.
    let cap = check_regime(3_000_000, 600, 20.0e6, 0.10);
    assert!(cap < 20.0e6 / 10.0, "the window side must bind: cap {cap:.0} B/s");
}

#[test]
fn grid_around_the_crossover_tracks_the_binding_side() {
    // Bottlenecks at fixed multiples of the window rate, on both sides
    // of the crossover. The window rate only places the grid; which
    // side binds is read from the production cap.
    let mut sides = [0usize; 2];
    for rtt_ms in [100u64, 400] {
        let rtt = SimDuration::from_millis(rtt_ms);
        let window_rate =
            CIRC_WINDOW_CELLS as f64 * RELAY_DATA_LEN as f64 / rtt.as_secs_f64();
        for x in [0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 2.0] {
            let bottleneck = x * window_rate;
            let cap = production_cap(rtt, bottleneck);
            let window_bound = cap < bottleneck;
            sides[usize::from(window_bound)] += 1;
            let rate = steady_rate(&arrivals(8_000, rtt, bottleneck));
            let err = (rate - cap).abs() / cap;
            let side = if window_bound { "window" } else { "bandwidth" };
            assert!(
                err < 0.10,
                "rtt {rtt_ms} ms, bottleneck {x}× window rate ({side}-bound): \
                 steady rate {rate:.0} B/s vs cap {cap:.0} B/s"
            );
        }
    }
    assert!(
        sides[0] > 0 && sides[1] > 0,
        "the grid must straddle the crossover: {sides:?} (bandwidth, window)"
    );
}
