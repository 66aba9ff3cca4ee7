//! Quickstart: trace a hand-built file system session and analyze it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bsdfs::{Fs, FsParams, OpenFlags, SeekFrom};
use fsanalysis::run_analyzers;

fn main() {
    // 1. Make a file system. All times are simulated milliseconds that
    //    the caller supplies — nothing reads a real clock.
    let mut fs = Fs::new(FsParams::bsd42()).expect("mkfs");
    fs.mkdir("/home", 0, 0).expect("mkdir");

    // 2. Do some Unix things. The tracer records the seven Table II
    //    events (open/create, close, seek, unlink, truncate, execve) —
    //    but not reads and writes: their effect is deducible from the
    //    positions at open, seek, and close.
    let uid = 1;
    let fd = fs
        .open("/home/draft.txt", OpenFlags::create_write(), uid, 1_000)
        .expect("create");
    fs.write(fd, 6_000, 1_050).expect("write");
    fs.close(fd, 1_100).expect("close");

    // Whole-file read.
    let fd = fs
        .open("/home/draft.txt", OpenFlags::read_only(), uid, 2_000)
        .expect("open");
    while fs.read(fd, 1024, 2_050).expect("read") == 1024 {}
    fs.close(fd, 2_200).expect("close");

    // Mailbox-style append: reposition to the end, then write.
    let fd = fs
        .open("/home/draft.txt", OpenFlags::read_write(), uid, 3_000)
        .expect("open rw");
    fs.lseek(fd, SeekFrom::End(0), 3_010).expect("seek");
    fs.write(fd, 500, 3_020).expect("append");
    fs.close(fd, 3_030).expect("close");

    fs.unlink("/home/draft.txt", uid, 60_000).expect("unlink");

    // 3. Take the trace and look at it.
    let trace = fs.take_trace();
    println!("trace has {} records:", trace.len());
    let mut text = Vec::new();
    trace.write_text(&mut text).expect("render");
    print!("{}", String::from_utf8(text).expect("utf8"));

    // 4. Reconstruct access patterns: the byte ranges transferred are
    //    recovered exactly from the recorded positions.
    let sessions = trace.sessions();
    println!("\nreconstructed {} open-close sessions:", sessions.len());
    for s in sessions.complete() {
        println!(
            "  {:?} {} bytes, whole-file={}, sequential={}, open {} ms",
            s.mode,
            s.bytes_transferred(),
            s.is_whole_file_transfer(),
            s.is_sequential(),
            s.open_duration_ms().unwrap_or(0),
        );
    }

    let report = run_analyzers(trace.records(), &[600]).sequentiality;
    println!(
        "\nsequentiality: {:.0}% of accesses whole-file, {:.0}% of bytes sequential",
        100.0 * report.whole_file_fraction(),
        100.0 * report.sequential_bytes_fraction()
    );
}
