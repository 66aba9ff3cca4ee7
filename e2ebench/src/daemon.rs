//! A `tracestored` in a process of its own, so its memory is measured
//! apart from the clients and the fleet generator.
//!
//! The child is this benchmark's own executable run as `serve`: it
//! binds a [`tracestored::Server`] with the pinned [`config`] and runs
//! it exactly as the shipped `tracestored serve` does. It prints its
//! port once listening, and its peak RSS and backpressure count once
//! `run` returns. It exits by itself if its stdin closes, so it never
//! outlives the benchmark.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use tracestored::{Server, ServerConfig};

/// Shard size target: far below the 2.6 MB fleet, so served data is
/// mostly sealed shards plus a short tail (at the 8 MiB default the
/// whole fleet would stay in the in-memory tail).
pub const SHARD_TARGET_BYTES: u64 = 256 << 10;
/// Worker threads for pipelined query reads: the core count this
/// benchmark was sized on.
pub const QUERY_JOBS: usize = 2;

/// The pinned daemon settings. Everything not named here is the
/// shipped default: 64 KiB chunks, compression on, no time buckets,
/// backpressure above 2^20 buffered records, fsync on every seal.
pub fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.to_path_buf(),
        shard_target_bytes: SHARD_TARGET_BYTES,
        query_jobs: QUERY_JOBS,
        ..ServerConfig::default()
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// KiB, from `VmHWM`.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Resets process `pid`'s peak RSS to its current RSS, so a later
/// [`peak_rss_kb`] covers only what follows.
pub fn reset_peak_rss(pid: &str) -> io::Result<()> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
}

/// The `serve` child's body. Never returns.
pub fn serve_main(dir: &Path) -> ! {
    // Parent gone (stdin closed): stop rather than linger.
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(3);
    });
    let server = Server::bind(config(dir)).unwrap_or_else(|e| {
        eprintln!("e2ebench serve: bind: {e}");
        std::process::exit(1)
    });
    let port = server
        .local_addr()
        .expect("bound listener has an address")
        .port();
    let mut out = io::stdout().lock();
    writeln!(out, "port {port}")
        .and_then(|_| out.flush())
        .expect("stdout");
    match server.run() {
        Ok(stats) => {
            let waits = obs::global()
                .snapshot()
                .counter("tracestored.ingest.backpressure_waits")
                .unwrap_or(0);
            let rss = peak_rss_kb("self").unwrap_or(0);
            writeln!(
                out,
                "exit peak_rss_kb {rss} backpressure_waits {waits} records_merged {}",
                stats.records_merged
            )
            .and_then(|_| out.flush())
            .expect("stdout");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("e2ebench serve: {e}");
            std::process::exit(1)
        }
    }
}

/// What a daemon reported when it stopped.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Peak RSS over the daemon's whole life, KiB.
    pub peak_rss_kb: u64,
    /// `tracestored.ingest.backpressure_waits` at exit.
    pub backpressure_waits: u64,
    /// Records the merge released into shards.
    pub records_merged: u64,
}

/// A running daemon child; killed and reaped on drop unless
/// [`Daemon::wait`] already reaped it.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// `127.0.0.1:PORT`.
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon on `dir` (created empty) and waits until it
    /// listens.
    pub fn start(exe: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut daemon = Daemon {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let line = daemon.line()?;
        let port = line
            .strip_prefix("port ")
            .ok_or_else(|| format!("daemon said {line:?}, expected its port"))?;
        daemon.addr = format!("127.0.0.1:{port}");
        Ok(daemon)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon exited without reporting".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("daemon stdout: {e}")),
        }
    }

    /// The child's pid, for `/proc` reads.
    pub fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| c.id().to_string())
    }

    /// After a client's `shutdown` was acked: reads the exit report
    /// and reaps the child.
    pub fn wait(mut self) -> Result<Exit, String> {
        let line = self.line()?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .take()
            .expect("child present until reaped")
            .wait()
            .map_err(|e| format!("reap daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let field = |key: &str| -> Result<u64, String> {
            let mut words = line.split_whitespace();
            words
                .find(|w| *w == key)
                .and_then(|_| words.next())
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("daemon exit report {line:?} lacks {key}"))
        };
        Ok(Exit {
            peak_rss_kb: field("peak_rss_kb")?,
            backpressure_waits: field("backpressure_waits")?,
            records_merged: field("records_merged")?,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
