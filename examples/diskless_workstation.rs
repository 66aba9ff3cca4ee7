//! The paper's motivating question (Section 1): how much network
//! bandwidth does a diskless workstation need, and how many users fit
//! on a 10 Mbit/second network?
//!
//! ```sh
//! cargo run --release --example diskless_workstation -- [hours]
//! ```

use fsanalysis::run_analyzers;
use workload::{generate, MachineProfile, WorkloadConfig};

fn main() {
    let hours: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let out = generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: 1985,
        duration_hours: hours,
        ..WorkloadConfig::default()
    })
    .expect("generation");
    let act = run_analyzers(out.trace.records(), &[600, 10]).activity;

    let per_user = act.windows[0].avg_throughput(); // Bytes/sec sustained.
    let burst = act.windows[1]
        .throughput_per_active
        .max()
        .unwrap_or(per_user); // Worst observed 10 s burst.
    let network_bps = 10_000_000.0 / 8.0; // 10 Mbit/s in bytes/sec.

    println!(
        "sustained file data per active user: {per_user:.0} bytes/sec \
         (paper: a few hundred)"
    );
    println!("worst 10-second burst by one user:    {burst:.0} bytes/sec");
    println!();
    let sustained_users = network_bps / per_user;
    let burst_users = network_bps / burst;
    println!(
        "a 10 Mbit/s network sustains ~{:.0} simultaneously active users",
        sustained_users
    );
    println!(
        "and can absorb ~{:.0} simultaneous worst-case bursts",
        burst_users
    );
    println!(
        "\nconclusion (as in the paper): network bandwidth will not be the\n\
         limiting factor in building a network file system — hundreds of\n\
         users fit, with plenty of headroom for bursts."
    );
    assert!(sustained_users > 100.0);
}
