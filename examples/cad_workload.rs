//! Simulate the Ucbcad CAD workload (trace C4) and compare it against
//! program development, as the paper's Section 7 does: "the results are
//! similar in all three traces, even though one of the traces was for a
//! substantially different application domain".
//!
//! ```sh
//! cargo run --release --example cad_workload -- [hours]
//! ```

use fsanalysis::run_analyzers;
use workload::{generate, MachineProfile, WorkloadConfig};

fn main() {
    let hours: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let mut rows = Vec::new();
    for profile in [MachineProfile::ucbarpa(), MachineProfile::ucbcad()] {
        let name = profile.name;
        println!("simulating {name} for {hours} hours ...");
        let out = generate(&WorkloadConfig {
            profile,
            seed: 1985,
            duration_hours: hours,
            ..WorkloadConfig::default()
        })
        .expect("generation");
        let mut suite = run_analyzers(out.trace.records(), &[600, 10]);
        let seq = &suite.sequentiality;
        let sizes = &mut suite.sizes;
        rows.push((
            name,
            out.trace.len(),
            seq.whole_file_fraction(),
            seq.sequential_bytes_fraction(),
            sizes.fraction_of_accesses_le(10 * 1024),
            sizes.fraction_of_bytes_le(10 * 1024),
        ));
    }
    println!(
        "\n{:<10} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "machine", "records", "whole-file", "seq bytes", "acc<10KB", "bytes<10KB"
    );
    for (name, records, whole, seqb, acc, bytes) in &rows {
        println!(
            "{name:<10} {records:>9} {:>11.0}% {:>11.0}% {:>11.0}% {:>11.0}%",
            100.0 * whole,
            100.0 * seqb,
            100.0 * acc,
            100.0 * bytes
        );
    }
    println!(
        "\nCAD tools read big decks and write big listings, yet the overall\n\
         shape — short files dominate accesses, long files carry the bytes,\n\
         access is sequential — matches program development, as the paper found."
    );
}
