//! The `tracestored` binary: `serve` runs the daemon, `client` drives
//! one against it (queries, ingest from a trace file, shutdown).

use std::io::Write;
use std::path::PathBuf;

use fstrace::{IdOffsets, RecordSink};
use tracestored::{fetch_metrics, Client, IngestSink, Server, ServerConfig};

const USAGE: &str = "\
usage:
  tracestored serve [--addr A] [--dir D] [--shard-kib N] [--bucket-ms MS]
                    [--chunk-kib N] [--no-compress] [--port-file F]
      Run the daemon until a client sends `shutdown`. With --port-file,
      write the bound port there once listening (for scripts using :0).

  tracestored client --addr A CMD
      CMD: summary | analyze | sweep KB[,KB...] | range FROM_MS TO_MS
         | metrics | ingest FILE.tsa | shutdown
      A sweep names at most 64 sizes.";

fn die(msg: &str) -> ! {
    eprintln!("tracestored: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(1);
}

/// Parses a flag's numeric value, or dies naming the flag.
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> T
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .unwrap_or_else(|e| die(&format!("{flag}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        _ => die("expected `serve` or `client`"),
    }
}

fn cmd_serve(args: &[String]) {
    let mut config = ServerConfig::default();
    let mut port_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{arg} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--addr" => config.addr = value(),
            "--dir" => config.dir = PathBuf::from(value()),
            "--shard-kib" => config.shard_target_bytes = number::<u64>(arg, &value()) << 10,
            "--bucket-ms" => config.bucket_ms = number(arg, &value()),
            "--chunk-kib" => config.chunk_target_bytes = number::<usize>(arg, &value()) << 10,
            "--no-compress" => config.compress = false,
            "--port-file" => port_file = Some(PathBuf::from(value())),
            other => die(&format!("unknown serve flag {other:?}")),
        }
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => die(&format!("bind failed: {e}")),
    };
    let addr = server.local_addr().expect("bound listener has an address");
    eprintln!("tracestored: listening on {addr}");
    if let Some(path) = port_file {
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("port file {}: {e}", path.display())));
        writeln!(f, "{}", addr.port()).expect("port file write");
    }
    match server.run() {
        Ok(stats) => eprintln!(
            "tracestored: stopped; {} records in, {} merged, {} shard(s)",
            stats.records_in,
            stats.records_merged,
            stats.shards.len()
        ),
        Err(e) => die(&format!("server error: {e}")),
    }
}

fn cmd_client(args: &[String]) {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned(),
            other => rest.push(other.to_string()),
        }
    }
    let addr = addr.unwrap_or_else(|| die("client needs --addr"));
    let run = || -> std::io::Result<()> {
        match rest
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["summary"] => print!("{}", Client::connect(&addr)?.summary()?),
            ["analyze"] => print!("{}", Client::connect(&addr)?.analyze()?),
            ["sweep", sizes] => {
                let sizes: Vec<u64> = sizes
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| die("bad sweep size")))
                    .collect();
                print!("{}", Client::connect(&addr)?.sweep(&sizes)?);
            }
            ["range", from, to] => {
                let from: u64 = from.parse().unwrap_or_else(|_| die("bad FROM_MS"));
                let to: u64 = to.parse().unwrap_or_else(|_| die("bad TO_MS"));
                let records = Client::connect(&addr)?.range(from, to)?;
                for rec in &records {
                    println!("{}", fstrace::codec::to_text(rec));
                }
                eprintln!("{} record(s)", records.len());
            }
            ["metrics"] => print!("{}", fetch_metrics(&addr)?),
            ["shutdown"] => Client::connect(&addr)?.shutdown()?,
            ["ingest", file] => {
                let archive = tracestore::Archive::open(std::path::Path::new(file))
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                let mut sink = IngestSink::connect(&addr, 1, 0, IdOffsets::default(), file)?;
                for rec in archive.records(tracestore::Corruption::Fail) {
                    let rec = rec.map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    })?;
                    sink.write_record(&rec)?;
                }
                let accepted = sink.finish()?;
                eprintln!("ingested {accepted} record(s)");
            }
            _ => die("unknown client command"),
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("tracestored: {e}");
        std::process::exit(1);
    }
}
