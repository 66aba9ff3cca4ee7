//! Simulate the Ucbarpa program-development workload (trace A5) and
//! reproduce the Section 5 usage analysis on it.
//!
//! ```sh
//! cargo run --release --example program_development -- [hours]
//! ```

use fsanalysis::run_analyzers;
use workload::{generate, MachineProfile, WorkloadConfig};

fn main() {
    let hours: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    println!("simulating Ucbarpa for {hours} hours of trace time ...");
    let out = generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: 1985,
        duration_hours: hours,
        ..WorkloadConfig::default()
    })
    .expect("generation");
    let trace = &out.trace;
    let summary = trace.summary();
    println!(
        "{} records, {:.1} Mbytes of file data transferred, {:.2} opens/sec at peak\n",
        trace.len(),
        summary.total_mbytes_transferred(),
        summary.peak_opens_per_second
    );

    // Every Section 5 analysis in one pass over the trace.
    let mut suite = run_analyzers(trace.records(), &[600, 10]);
    let seq = &suite.sequentiality;
    println!(
        "access patterns (paper values in parens):\n  \
         whole-file transfers: {:.0}% of accesses (~70%)\n  \
         bytes moved whole-file: {:.0}% (~50%)\n  \
         sequential read-only: {:.0}% (92%)\n  \
         sequential read-write: {:.0}% (19%) — editor temps and mailboxes\n",
        100.0 * seq.whole_file_fraction(),
        100.0 * seq.whole_file_bytes_fraction(),
        100.0 * seq.read_only.sequential_fraction(),
        100.0 * seq.read_write.sequential_fraction(),
    );

    let ot = &mut suite.open_times;
    println!(
        "open times: {:.0}% under 0.5 s (paper ~75%), {:.0}% under 10 s (paper ~90%)",
        100.0 * ot.fraction_le_secs(0.5),
        100.0 * ot.fraction_le_secs(10.0)
    );

    let lt = &mut suite.lifetimes;
    println!(
        "lifetimes: {} new files died during the trace; {:.0}% within 3 min;\n  \
         {:.0}% in the 179-181 s daemon spike (paper 30-40%)",
        lt.events.len(),
        100.0 * lt.fraction_of_files_le_secs(180.0),
        100.0 * lt.fraction_of_files_between_secs(179.0, 181.0),
    );

    let act = &suite.activity;
    println!(
        "activity: {} users, {:.1} active on average per 10 min,\n  \
         {:.0} bytes/sec per active user (paper ~370); {:.1} kbytes/sec over 10 s bursts",
        act.total_users,
        act.windows[0].avg_active(),
        act.windows[0].avg_throughput(),
        act.windows[1].avg_throughput() / 1000.0,
    );

    // The compile cycle is the canonical temp-file story: assembler
    // temporaries die seconds after creation.
    let quick_deaths = lt
        .events
        .iter()
        .filter(|e| e.lifetime_ms() < 30_000)
        .count();
    println!(
        "\n{} files lived under 30 seconds — compiler temporaries, mostly.",
        quick_deaths
    );
}
