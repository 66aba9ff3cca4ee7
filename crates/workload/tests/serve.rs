//! The served fleet: [`serve_fleet`] into an in-process `tracestored`.
//!
//! `mktrace --serve` runs [`serve_fleet`], which feeds the fleet
//! runner's slices over one connection per machine into the daemon,
//! whose merge must store exactly the trace [`generate_fleet`] merges
//! locally. The daemon here lets a non-gating input buffer only 256
//! records before it waits, and the fleet has fewer workers than
//! machines: serving each worker's machines one after another in that
//! shape leaves the unconnected machines holding the watermark at 0,
//! and the first machine's handler waits for them forever. Every wait
//! below has a deadline, so a hang fails the test instead of stalling
//! it.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use bsdfs::FsParams;
use fstrace::{TraceEvent, TraceRecord};
use tracestored::{Client, ServerConfig};
use workload::{generate_fleet, serve_fleet, FleetConfig};

/// How long one served run or one daemon shutdown may take.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `f` on its own thread and waits at most [`DEADLINE`] for it.
/// The thread is not joined, so a hung one cannot stall the test; a
/// panic in it shows as a dropped channel.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what} hung: no result within {DEADLINE:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// Which machine a merged record came from, recovered from the id
/// stride bands (every event carries an open id or a file id).
fn machine_of(rec: &TraceRecord) -> usize {
    match rec.event {
        TraceEvent::Open { open_id, .. }
        | TraceEvent::Close { open_id, .. }
        | TraceEvent::Seek { open_id, .. } => (open_id.0 >> 40) as usize,
        TraceEvent::Unlink { file_id, .. }
        | TraceEvent::Truncate { file_id, .. }
        | TraceEvent::Execve { file_id, .. } => (file_id.0 >> 40) as usize,
    }
}

#[test]
fn served_fleet_equals_local_fleet_with_fewer_workers_than_machines() {
    const BUDGET: usize = 256;
    let config = FleetConfig {
        machines: 3,
        jobs: 1,
        duration_hours: 0.1,
        user_scale: 0.15,
        epoch_ms: 5_000,
        fs_params: FsParams {
            data_frags: 64 * 1024,
            ninodes: 16_384,
            ..FsParams::bsd42()
        },
        ..FleetConfig::default()
    };
    let (local, local_stats) = generate_fleet(&config).expect("local fleet");
    assert!(
        local_stats.machines[0].records > 2 * BUDGET as u64,
        "machine 0 must overrun the backpressure budget on its own"
    );

    let dir = std::env::temp_dir().join(format!("workload-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, daemon) = tracestored::spawn(ServerConfig {
        dir: dir.clone(),
        backpressure_records: BUDGET,
        ..ServerConfig::default()
    })
    .expect("spawn daemon");
    let addr = addr.to_string();

    let served = within("serve_fleet", {
        let (config, addr) = (config.clone(), addr.clone());
        move || serve_fleet(&config, &addr)
    })
    .expect("serve_fleet");

    let mut query = Client::connect(&addr).expect("query connect");
    let stored = query.range(0, u64::MAX).expect("range");
    assert_eq!(stored.len(), local.len());
    assert!(stored == local, "served fleet differs from the local fleet");

    // `serve_fleet` fails unless the daemon acknowledges each machine's
    // `fin` with the count sent on its connection; that count, what the
    // daemon stored for the machine, and its `MachineStats::records`
    // must all agree.
    assert_eq!(served.records, local_stats.records);
    for (s, l) in served.machines.iter().zip(&local_stats.machines) {
        let stored_m = stored.iter().filter(|r| machine_of(r) == l.machine).count();
        assert_eq!(s.machine, l.machine);
        assert_eq!(s.records, l.records, "machine {}", l.machine);
        assert_eq!(stored_m as u64, l.records, "machine {}", l.machine);
    }

    query.shutdown().expect("shutdown");
    let stats = within("daemon shutdown", move || daemon.join())
        .expect("daemon thread")
        .expect("daemon run");
    assert_eq!(stats.records_merged, local.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An epoch that spans the whole run makes each machine's one slice its
/// last, and each larger than the ingest session's 8,192-record batch:
/// the sink splits the slice into batch frames, and the daemon's merge,
/// which does not depend on how frames are cut, still stores exactly the
/// local fleet.
#[test]
fn served_fleet_in_one_slice_per_machine_equals_local_fleet() {
    let config = FleetConfig {
        machines: 2,
        seed: 1985,
        duration_hours: 1.0,
        user_scale: 0.5,
        epoch_ms: 2 * 3_600_000,
        ..FleetConfig::default()
    };
    let (local, local_stats) = generate_fleet(&config).expect("local fleet");
    let largest = local_stats.machines.iter().map(|m| m.records).max();
    assert_eq!(
        Some(local_stats.ring_occupancy_peak),
        largest,
        "one slice a machine"
    );
    for m in &local_stats.machines {
        assert!(m.records > 8192, "machine {} fits one batch", m.machine);
    }

    let dir = std::env::temp_dir().join(format!("workload-serve-one-slice-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, daemon) = tracestored::spawn(ServerConfig {
        dir: dir.clone(),
        ..ServerConfig::default()
    })
    .expect("spawn daemon");
    let addr = addr.to_string();

    let served = within("serve_fleet", {
        let (config, addr) = (config.clone(), addr.clone());
        move || serve_fleet(&config, &addr)
    })
    .expect("serve_fleet");
    assert_eq!(served.records, local.len() as u64);

    let mut query = Client::connect(&addr).expect("query connect");
    let stored = query.range(0, u64::MAX).expect("range");
    assert!(stored == local, "served fleet differs from the local fleet");
    query.shutdown().expect("shutdown");
    within("daemon shutdown", move || daemon.join())
        .expect("daemon thread")
        .expect("daemon run");
    let _ = std::fs::remove_dir_all(&dir);
}
