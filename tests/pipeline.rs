//! End-to-end pipeline tests: workload → bsdfs → trace → codecs →
//! analyses, exercising every crate together.

use fsanalysis::run_analyzers;
use fstrace::Trace;
use workload::{generate, MachineProfile, WorkloadConfig};

fn small_trace() -> workload::GeneratedTrace {
    generate(&WorkloadConfig {
        profile: MachineProfile::ucbarpa(),
        seed: 424_242,
        duration_hours: 0.15,
        ..WorkloadConfig::default()
    })
    .expect("generation")
}

#[test]
fn workload_trace_survives_binary_roundtrip_with_identical_analysis() {
    let out = small_trace();
    let bytes = out.trace.to_binary();
    let back = Trace::from_binary(&bytes).expect("decode");
    assert_eq!(back, out.trace);

    // The analyses of original and decoded traces agree exactly.
    let a = run_analyzers(out.trace.records(), &[600]).sequentiality;
    let b = run_analyzers(back.records(), &[600]).sequentiality;
    assert_eq!(a.total_accesses(), b.total_accesses());
    assert_eq!(a.total_bytes(), b.total_bytes());
    assert_eq!(a.read_write.sequential, b.read_write.sequential);
}

#[test]
fn workload_trace_survives_text_roundtrip() {
    let out = small_trace();
    let mut buf = Vec::new();
    out.trace.write_text(&mut buf).expect("write text");
    let text = String::from_utf8(buf).expect("utf8");
    let back = Trace::from_text(&text).expect("parse");
    assert_eq!(back, out.trace);
}

#[test]
fn binary_encoding_is_compact() {
    // The paper worried about trace volume; our varint records must
    // average well under 16 bytes each.
    let out = small_trace();
    let bytes = out.trace.to_binary();
    let per_record = bytes.len() as f64 / out.trace.len() as f64;
    assert!(per_record < 16.0, "{per_record:.1} bytes/record");
}

#[test]
fn file_system_remains_consistent_after_workload() {
    let mut out = small_trace();
    let live = out.fs.check_consistency().expect("fsck");
    assert!(live > 100, "expected a populated tree, found {live} files");
    assert_eq!(out.errors, 0);
}

#[test]
fn analyzer_totals_agree_with_summary() {
    let out = small_trace();
    let summary = out.trace.summary();
    let act = run_analyzers(out.trace.records(), &[600]).activity;
    assert_eq!(act.total_bytes, summary.total_bytes_transferred);
    let sessions = out.trace.sessions();
    assert_eq!(
        sessions.total_bytes_transferred(),
        summary.total_bytes_transferred
    );
}

#[test]
fn bsdfs_counters_are_coherent() {
    let out = small_trace();
    let fs_stats = out.fs.stats();
    let summary = out.trace.summary();
    // Every traced open/close/seek corresponds to a syscall the fs saw
    // (the fs also served untraced namespace-setup calls, so >=).
    assert!(fs_stats.opens >= summary.count(fstrace::EventKind::Open));
    assert!(fs_stats.seeks >= summary.count(fstrace::EventKind::Seek));
    // Disk traffic happened and went through the buffer cache.
    let bc = out.fs.bcache_stats();
    let disk = out.fs.disk_stats();
    assert!(disk.reads > 0 && disk.writes > 0);
    assert!(bc.logical_accesses() > disk.total_ops());
}
