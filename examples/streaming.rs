//! Scenario: streaming media through the transports — the paper's
//! Appendix A.4 future-work use case, implemented. Which PTs can carry
//! a 128 kbit/s audio stream? Which survive 1 Mbit/s SD video?
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use ptperf::executor::Parallelism;
use ptperf::experiments::streaming::{run_with, Config};
use ptperf::scenario::Scenario;
use ptperf_sim::SimDuration;
use ptperf_transports::PtId;

fn main() {
    let scenario = Scenario::baseline(99);
    let cfg = Config {
        sessions: 10,
        duration: SimDuration::from_secs(180),
    };
    println!(
        "Streaming 3 minutes of media through every transport ({} sessions each)...\n",
        cfg.sessions
    );
    let (result, _) =
        run_with(&scenario, &cfg, &Parallelism::sequential()).expect("no shard panics");
    println!("{}", result.render());

    let audio_ok: Vec<&str> = PtId::ALL_PTS
        .iter()
        .filter(|pt| result.audio[pt].watchable >= 0.8)
        .map(|pt| pt.name())
        .collect();
    let video_ok: Vec<&str> = PtId::ALL_PTS
        .iter()
        .filter(|pt| result.video[pt].watchable >= 0.8)
        .map(|pt| pt.name())
        .collect();
    println!("\naudio-capable PTs: {}", audio_ok.join(", "));
    println!("video-capable PTs: {}", video_ok.join(", "));
    println!(
        "\nThe carrier constraints that break bulk downloads (Fig. 8) also decide\n\
         streamability: dnstt's DNS window and marionette's automaton sit below the\n\
         video bitrate, and camoufler's per-request IM latency exceeds a segment."
    );
}
