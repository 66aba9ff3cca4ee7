//! Trace archives: pack a trace, survive corruption, keep analyzing.
//!
//! ```sh
//! cargo run --example trace_archive
//! ```
//!
//! The flat `fstrace` format is a single delta-encoded stream — one
//! damaged byte poisons everything after it. The `tracestore` archive
//! wraps the same records in checksummed, independently-decodable
//! chunks, so damage is detected, contained to one chunk, and reported
//! precisely. This example walks the whole story: generate a workload
//! trace, archive it, flip a byte in a middle chunk, then recover and
//! re-run a Section 5 analysis on what survived.

use fsanalysis::run_analyzers;
use tracestore::{Archive, ArchiveOptions, ArchiveWriter, Corruption};
use workload::{generate, MachineProfile, WorkloadConfig};

fn main() {
    // 1. Generate a small a5-profile workload trace.
    let out = generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: 42,
        duration_hours: 0.1,
        ..WorkloadConfig::default()
    })
    .expect("generate");
    let trace = out.trace;
    println!("generated {} records", trace.len());

    // 2. Pack it into an archive. Small chunks here so the example has
    //    several; the 256 KiB default is better for real traces.
    let mut writer = ArchiveWriter::new(
        Vec::new(),
        ArchiveOptions {
            chunk_target_bytes: 4 << 10,
            name: "a5-example".into(),
            ..ArchiveOptions::default()
        },
    )
    .expect("archive header");
    for rec in trace.records() {
        writer.write(rec).expect("archive write");
    }
    let (bytes, summary) = writer.finish().expect("archive footer");
    println!(
        "packed into {} chunks, {} bytes ({:.2}x compression)",
        summary.chunks,
        summary.bytes,
        summary.raw_bytes as f64 / summary.stored_bytes.max(1) as f64
    );

    // 3. Vandalize one byte in the middle of a middle chunk. On disk
    //    this is bit rot or a torn write; here it is one xor.
    let clean = Archive::from_bytes(bytes.clone()).expect("open");
    let victim = clean.chunks()[clean.chunks().len() / 2];
    let mut damaged_bytes = bytes;
    let at = victim.offset as usize + 40; // A few bytes into the payload.
    damaged_bytes[at] ^= 0x80;
    println!(
        "flipped one byte at offset {at} (inside the chunk holding {} records)",
        victim.records
    );

    // 4. Reading in Fail mode surfaces the damage as an error that
    //    names the chunk — nothing is silently wrong.
    let damaged = Archive::from_bytes(damaged_bytes).expect("reopen");
    let err = damaged
        .records(Corruption::Fail)
        .find_map(Result::err)
        .expect("corruption must surface");
    println!("fail-mode read reports: {err}");

    // 5. Recovery: decode what survives (on four pipeline workers),
    //    and get an exact account of the loss.
    let mut blocks = std::sync::Arc::new(damaged).pipelined(Corruption::Skip, 4);
    let mut records = Vec::new();
    for block in (&mut blocks).flatten() {
        block.append_to(&mut records);
    }
    let report = blocks.report();
    println!(
        "recovered {} of {} records ({} chunk skipped, {} records lost)",
        records.len(),
        trace.len(),
        report.chunks_skipped(),
        report.records_lost()
    );
    assert_eq!(report.chunks_skipped(), 1, "loss is contained to one chunk");
    assert_eq!(records.len(), trace.len() - victim.records as usize);

    // 6. The surviving records feed any analysis unchanged — here the
    //    full Section 5 suite, straight off the recovered stream.
    let suite = run_analyzers(&records, &[600]);
    let seq = &suite.sequentiality;
    println!(
        "re-analysis over survivors: {:.1}% of accesses whole-file sequential",
        100.0 * seq.whole_file_fraction()
    );
}
