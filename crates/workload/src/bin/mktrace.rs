//! `mktrace`: generate a synthetic trace — one machine or a fleet —
//! and save it.
//!
//! ```text
//! mktrace PROFILE[,PROFILE...] [--hours H] [--seed S] [--out FILE] [--text]
//!         [--machines N] [--jobs N] [--user-scale F] [--epoch-ms MS]
//!         [--serve ADDR]
//!
//! PROFILE: a5 | e3 | c4, comma-separated to mix
//! ```
//!
//! With `--machines 1` (the default) this is the single-machine
//! generator. With `--machines N` it simulates a fleet: machine `i`
//! runs profile `i % mix` with a count-independent seed, `--jobs`
//! worker threads drive the machines concurrently, and the output is
//! the time-ordered merge of all machines. The merged bytes are
//! identical for every `--jobs` value.
//!
//! The default output is the compact binary stream format; `--text`
//! writes one record per line, and an `--out` path ending in `.tsa`
//! writes a tracestore archive (chunked, checksummed, compressed).
//!
//! Records stream from the generator straight into the encoder
//! ([`workload::generate_into`] / [`workload::generate_fleet_into`]),
//! so memory stays bounded no matter how many hours or machines are
//! simulated.
//!
//! With `--serve ADDR` nothing is written locally; the records go into
//! a running `tracestored` instead, and the daemon ends up holding
//! exactly the records, in the same order, that `--out` would write for
//! the same flags. One machine of one profile streams the
//! single-machine generator's trace through one
//! [`tracestored::IngestSink`], as input 0 of 1 with zero id offsets. A
//! fleet runs [`workload::serve_fleet`]: the same fleet runner, every
//! machine through its own `IngestSink`, the watermark merge done
//! server-side by the same [`fstrace::FleetMerge`] the local path runs
//! over the same per-machine streams. The sink checks that the daemon
//! acknowledged every record it sent.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::exit;

use fstrace::{IdOffsets, RecordSink, TextSink, TraceWriter};
use tracestore::{ArchiveOptions, ArchiveWriter};
use tracestored::IngestSink;
use workload::{
    generate_fleet_into, generate_into, serve_fleet, FleetConfig, GenerateError, MachineProfile,
    WorkloadConfig,
};

fn main() {
    let mut mix: Vec<MachineProfile> = Vec::new();
    let mut hours = 1.0f64;
    let mut seed = 1985u64;
    let mut out = "trace.fstr".to_string();
    let mut text = false;
    let mut machines = 1usize;
    let mut jobs = 1usize;
    let mut user_scale = 1.0f64;
    let mut epoch_ms = 60_000u64;
    let mut serve: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hours" => {
                hours = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--hours needs a number"))
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"))
            }
            "--machines" => {
                machines = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--machines needs a positive integer"))
            }
            "--jobs" | "-j" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"))
            }
            "--user-scale" => {
                user_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &f64| s > 0.0)
                    .unwrap_or_else(|| die("--user-scale needs a positive number"))
            }
            "--epoch-ms" => {
                epoch_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--epoch-ms needs a positive integer"))
            }
            "--out" | "-o" => {
                out = args.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--serve" => {
                serve = Some(
                    args.next()
                        .unwrap_or_else(|| die("--serve needs an address")),
                );
            }
            "--text" => text = true,
            "--help" | "-h" => {
                println!(
                    "usage: mktrace a5|e3|c4[,...] [--hours H] [--seed S] [--out FILE] [--text]\n\
                     \x20      [--machines N] [--jobs N] [--user-scale F] [--epoch-ms MS]\n\
                     \x20      [--serve ADDR]"
                );
                return;
            }
            list => {
                for name in list.split(',') {
                    match MachineProfile::by_trace_name(name) {
                        Some(p) => mix.push(p),
                        None => die(&format!("unknown profile {name} (use a5, e3 or c4)")),
                    }
                }
            }
        }
    }
    if mix.is_empty() {
        die("missing profile (a5, e3 or c4, comma-separated to mix)");
    }

    let mut config = FleetConfig {
        mix,
        machines,
        seed,
        duration_hours: hours,
        user_scale,
        jobs,
        epoch_ms,
        ..FleetConfig::default()
    };
    // Large fleets carry one full Fs per machine; switch to the
    // memory-frugal geometry (identical block size and cache sizes, so
    // cache behavior is unchanged) once the bsd42 footprint would
    // dominate. DESIGN.md §14.
    if machines >= 64 {
        eprintln!("  (>= 64 machines: using the memory-frugal fleet() file-system geometry)");
        config.fs_params = bsdfs::FsParams::fleet();
    }
    let names: Vec<&str> = config.mix.iter().map(|p| p.trace_name).collect();
    let names = names.join(",");
    // One machine of one profile is the single-machine generator,
    // written or served alike.
    let single = (machines == 1 && config.mix.len() == 1).then(|| WorkloadConfig {
        profile: config.mix[0].clone(),
        seed,
        duration_hours: hours,
        ..WorkloadConfig::default()
    });

    if let Some(addr) = serve {
        if text {
            die("--serve streams binary records; --text does not apply");
        }
        if let Some(single) = &single {
            eprintln!(
                "streaming {} ({}) for {hours} simulated hours, seed {seed}, to {addr} ...",
                single.profile.trace_name, single.profile.name
            );
            // Input 0 of 1 with zero id offsets: the daemon holds
            // exactly what `--out` writes.
            let name = single.profile.trace_name;
            let served = IngestSink::connect(&addr, 1, 0, IdOffsets::default(), name)
                .map_err(GenerateError::from)
                .and_then(|mut sink| {
                    generate_into(single, &mut sink)?;
                    Ok(sink.finish()?)
                });
            let records = served.unwrap_or_else(|e| die(&format!("serve: {e}")));
            eprintln!("served {records} records from 1 machine to {addr}");
            return;
        }
        eprintln!(
            "streaming a fleet of {machines} machines (mix {names}) for {hours} simulated hours \
             to {addr}, {jobs} jobs ..."
        );
        let stats = serve_fleet(&config, &addr).unwrap_or_else(|e| die(&format!("serve: {e}")));
        eprint!("{}", stats.render_table());
        eprintln!(
            "served {} records from {machines} machine(s) to {addr}",
            stats.records
        );
        return;
    }
    if text && out.ends_with(".tsa") {
        die("--text and a .tsa output are mutually exclusive");
    }

    if let Some(single) = single {
        let profile = &single.profile;
        eprintln!(
            "generating {} ({}) for {hours} simulated hours, seed {seed} ...",
            profile.trace_name, profile.name
        );
        let name = profile.trace_name.to_string();
        let (stream, bytes) = write_trace(&out, text, name, |sink| generate_into(&single, sink));
        report(&out, stream.records, bytes);
        return;
    }

    eprintln!(
        "generating a fleet of {machines} machines (mix {names}) for {hours} simulated hours, \
         seed {seed}, {jobs} jobs ..."
    );
    let (stats, bytes) = write_trace(&out, text, format!("fleet-{machines}x"), |sink| {
        generate_fleet_into(&config, sink)
    });
    eprint!("{}", stats.render_table());
    report(&out, stats.records, bytes);
}

/// Creates `out` and generates into it, in the format the path and
/// `--text` select: text lines, a `.tsa` archive named `name`, or the
/// binary stream. Returns what `generate` returned and the bytes
/// written (none counted for text).
fn write_trace<T>(
    out: &str,
    text: bool,
    name: String,
    generate: impl FnOnce(&mut dyn RecordSink) -> Result<T, GenerateError>,
) -> (T, Option<u64>) {
    let file = File::create(out).unwrap_or_else(|e| die(&format!("create {out}: {e}")));
    let file = BufWriter::new(file);
    let generate = |sink: &mut dyn RecordSink| {
        generate(sink).unwrap_or_else(|e| die(&format!("generate: {e}")))
    };
    let (made, bytes) = if text {
        let mut sink = TextSink::new(file);
        let made = generate(&mut sink);
        (made, sink.into_inner().flush().map(|()| None))
    } else if out.ends_with(".tsa") {
        let opts = ArchiveOptions {
            name,
            ..ArchiveOptions::default()
        };
        let mut sink =
            ArchiveWriter::new(file, opts).unwrap_or_else(|e| die(&format!("write header: {e}")));
        let made = generate(&mut sink);
        let finished = sink.finish();
        (
            made,
            finished.and_then(|(mut w, summary)| w.flush().map(|()| Some(summary.bytes))),
        )
    } else {
        let mut sink =
            TraceWriter::new(file).unwrap_or_else(|e| die(&format!("write header: {e}")));
        let made = generate(&mut sink);
        let bytes = sink.bytes_written();
        let flushed = sink.into_inner().and_then(|mut w| w.flush());
        (made, flushed.map(|()| Some(bytes)))
    };
    (
        made,
        bytes.unwrap_or_else(|e| die(&format!("write {out}: {e}"))),
    )
}

fn report(out: &str, records: u64, bytes: Option<u64>) {
    eprintln!(
        "wrote {}: {} records{}",
        out,
        records,
        bytes.map(|n| format!(", {n} bytes")).unwrap_or_default()
    );
}

fn die(msg: &str) -> ! {
    eprintln!("mktrace: {msg}");
    exit(1);
}
