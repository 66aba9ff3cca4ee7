//! The one seeded fleet every workload runs over, its split back into
//! per-machine inputs, and the frames a client sends of each input.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use fstrace::{FileId, IdOffsets, OpenId, RecordSink, Timestamp, TraceEvent, TraceRecord, UserId};
use tracestore::{ArchiveOptions, ArchiveWriter};
use workload::{FleetConfig, FleetStats, MachineProfile};

/// Profile mix, cycled over the machines.
pub const MIX: [&str; 3] = ["a5", "e3", "c4"];
/// Simulated machines, one ingest connection each.
pub const MACHINES: usize = 12;
/// Simulated hours per machine.
pub const HOURS: f64 = 2.0;
/// Scale on each profile's user population.
pub const USER_SCALE: f64 = 0.5;

/// The fleet for `seed`, generated on one thread:
/// `mktrace a5,e3,c4 --machines 12 --hours 2 --user-scale 0.5`.
pub fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        mix: MIX
            .iter()
            .map(|name| MachineProfile::by_trace_name(name).expect("known profile"))
            .collect(),
        machines: MACHINES,
        seed,
        duration_hours: HOURS,
        user_scale: USER_SCALE,
        jobs: 1,
        ..FleetConfig::default()
    }
}

/// Generates the fleet into a `.tsa` archive the way `mktrace --out
/// fleet.tsa` does.
pub fn write_archive(config: &FleetConfig, path: &Path) -> Result<FleetStats, String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let opts = ArchiveOptions {
        name: format!("fleet-{}x", config.machines),
        ..ArchiveOptions::default()
    };
    let mut sink =
        ArchiveWriter::new(BufWriter::new(file), opts).map_err(|e| format!("header: {e}"))?;
    let stats =
        workload::generate_fleet_into(config, &mut sink).map_err(|e| format!("generate: {e}"))?;
    let (mut w, _) = sink.finish().map_err(|e| format!("finish: {e}"))?;
    w.flush().map_err(|e| format!("flush: {e}"))?;
    Ok(stats)
}

/// A sink that only counts, so generation can be timed on its own.
#[derive(Default)]
pub struct CountingSink(pub u64);

impl RecordSink for CountingSink {
    fn write_record(&mut self, _rec: &TraceRecord) -> std::io::Result<()> {
        self.0 += 1;
        Ok(())
    }
}

/// Which machine's id band `rec` lies in: open ids for opens, closes
/// and seeks, file ids for the rest. The bands are the fixed strides
/// [`FleetConfig::machine_offsets`] hands out.
fn machine_of(rec: &TraceRecord, config: &FleetConfig) -> Result<usize, String> {
    if config.machines == 1 {
        return Ok(0);
    }
    let stride = config.machine_offsets(1);
    let (m, user) = match rec.event {
        TraceEvent::Open {
            open_id, user_id, ..
        } => (open_id.0 / stride.open, Some(user_id)),
        TraceEvent::Close { open_id, .. } | TraceEvent::Seek { open_id, .. } => {
            (open_id.0 / stride.open, None)
        }
        TraceEvent::Unlink { file_id, user_id }
        | TraceEvent::Truncate {
            file_id, user_id, ..
        }
        | TraceEvent::Execve {
            file_id, user_id, ..
        } => (file_id.0 / stride.file, Some(user_id)),
    };
    let m = usize::try_from(m).unwrap_or(usize::MAX);
    if m >= config.machines {
        return Err(format!("record outside every machine's id band: {rec:?}"));
    }
    if user.is_some_and(|u| u.0 / stride.user != m as u32) {
        return Err(format!("record's user id is in another band: {rec:?}"));
    }
    Ok(m)
}

/// Undoes [`fstrace::source::remap_record`]: machine-local ids, as the
/// machine itself emitted them.
fn unmap(rec: &TraceRecord, off: IdOffsets) -> TraceRecord {
    let open = |id: OpenId| OpenId(id.0 - off.open);
    let file = |id: FileId| FileId(id.0 - off.file);
    let user = |id: UserId| UserId(id.0 - off.user);
    let event = match rec.event {
        TraceEvent::Open {
            open_id,
            file_id,
            user_id,
            mode,
            size,
            created,
        } => TraceEvent::Open {
            open_id: open(open_id),
            file_id: file(file_id),
            user_id: user(user_id),
            mode,
            size,
            created,
        },
        TraceEvent::Close { open_id, final_pos } => TraceEvent::Close {
            open_id: open(open_id),
            final_pos,
        },
        TraceEvent::Seek {
            open_id,
            old_pos,
            new_pos,
        } => TraceEvent::Seek {
            open_id: open(open_id),
            old_pos,
            new_pos,
        },
        TraceEvent::Unlink { file_id, user_id } => TraceEvent::Unlink {
            file_id: file(file_id),
            user_id: user(user_id),
        },
        TraceEvent::Truncate {
            file_id,
            new_len,
            user_id,
        } => TraceEvent::Truncate {
            file_id: file(file_id),
            new_len,
            user_id: user(user_id),
        },
        TraceEvent::Execve {
            file_id,
            user_id,
            size,
        } => TraceEvent::Execve {
            file_id: file(file_id),
            user_id: user(user_id),
            size,
        },
    };
    TraceRecord { event, ..*rec }
}

/// Splits a merged fleet back into one stream per machine, in
/// machine-local ids: what each machine's `mktrace --serve` connection
/// sends, to be re-offset by the daemon from the `hello` it declares.
pub fn split_by_machine(
    records: &[TraceRecord],
    config: &FleetConfig,
) -> Result<Vec<Vec<TraceRecord>>, String> {
    let mut inputs = vec![Vec::new(); config.machines];
    for rec in records {
        let m = machine_of(rec, config)?;
        inputs[m].push(unmap(rec, config.machine_offsets(m)));
    }
    Ok(inputs)
}

/// One epoch of a machine's stream as `mktrace --serve` sends it: a
/// `records` frame (none when the epoch is empty), then a progress mark
/// at the epoch's end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// The epoch's records, as indices into the machine's stream.
    pub records: Range<usize>,
    /// The epoch's end, in ms: the progress mark sent after its frame.
    pub end_ms: u64,
}

/// Cuts one machine's stream into the epochs `mktrace --serve` sends
/// it in: epoch k holds the records before `k * epoch_ms` that no
/// earlier epoch holds, which is what `MachineSim::flush_to` releases
/// at that horizon. The epochs run up to the one holding the last
/// record; the client ends that one with `progress(MAX)` and `fin`
/// instead of a progress mark.
pub fn epochs(stream: &[TraceRecord], epoch_ms: u64) -> Vec<Epoch> {
    let mut out = Vec::new();
    let (mut start, mut end_ms) = (0, epoch_ms);
    while start < stream.len() {
        let horizon = Timestamp::from_ms(end_ms);
        let n = stream[start..].partition_point(|r| r.time < horizon);
        out.push(Epoch {
            records: start..start + n,
            end_ms,
        });
        start += n;
        end_ms += epoch_ms;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstrace::FleetMerge;

    fn small_fleet() -> (FleetConfig, Vec<TraceRecord>) {
        let config = FleetConfig {
            machines: 4,
            duration_hours: 0.05,
            ..config(1985)
        };
        let mut merged = Vec::new();
        let stats = workload::generate_fleet_into(&config, &mut merged).expect("generate");
        assert_eq!(stats.records, merged.len() as u64);
        (config, merged)
    }

    #[test]
    fn each_input_stays_time_ordered_and_nonempty() {
        let (config, merged) = small_fleet();
        let inputs = split_by_machine(&merged, &config).unwrap();
        assert_eq!(inputs.len(), config.machines);
        for (m, input) in inputs.iter().enumerate() {
            assert!(!input.is_empty(), "machine {m} has no records");
            assert!(
                input.windows(2).all(|w| w[0].time <= w[1].time),
                "machine {m} goes back in time"
            );
        }
        assert_eq!(inputs.iter().map(Vec::len).sum::<usize>(), merged.len());
    }

    #[test]
    fn inputs_merge_back_into_the_fleet() {
        let (config, merged) = small_fleet();
        let inputs = split_by_machine(&merged, &config).unwrap();
        let offsets = (0..config.machines)
            .map(|m| config.machine_offsets(m))
            .collect();
        let mut merge = FleetMerge::new(offsets);
        for (m, input) in inputs.iter().enumerate() {
            for rec in input {
                merge.push(m, rec);
            }
            merge.finish_input(m);
        }
        let mut again = Vec::new();
        merge.finish(&mut again).unwrap();
        assert_eq!(again, merged);
    }

    #[test]
    fn split_matches_each_machine_generated_alone() {
        let (config, merged) = small_fleet();
        let inputs = split_by_machine(&merged, &config).unwrap();
        let solo = FleetConfig {
            machines: 1,
            ..config.clone()
        };
        // Machine 0 seeds identically in any fleet size.
        let mut alone = Vec::new();
        workload::generate_fleet_into(&solo, &mut alone).unwrap();
        assert_eq!(inputs[0], alone);
    }

    /// What `mktrace --serve` sends for machine `m`, by its own epoch
    /// loop: `(frame records, progress mark)` per epoch, the last mark
    /// `u64::MAX`.
    fn serve_machine_frames(config: &FleetConfig, m: usize) -> Vec<(Vec<TraceRecord>, u64)> {
        let mut sim = workload::MachineSim::new(&config.machine_config(m)).unwrap();
        let mut frames = Vec::new();
        let mut t = config.epoch_ms;
        loop {
            let mut batch = Vec::new();
            sim.advance(t, &mut batch).unwrap();
            sim.flush_to(t, &mut batch).unwrap();
            if sim.idle() {
                sim.seal(&mut batch).unwrap();
                frames.push((batch, u64::MAX));
                return frames;
            }
            frames.push((batch, t));
            t += config.epoch_ms;
        }
    }

    #[test]
    fn epochs_match_what_mktrace_serve_sends() {
        let (config, merged) = small_fleet();
        let config = FleetConfig {
            epoch_ms: 20_000,
            ..config
        };
        let inputs = split_by_machine(&merged, &config).unwrap();
        for (m, input) in inputs.iter().enumerate() {
            let cut: Vec<(Vec<TraceRecord>, u64)> = epochs(input, config.epoch_ms)
                .iter()
                .map(|e| (input[e.records.clone()].to_vec(), e.end_ms))
                .collect();
            let mut sent = serve_machine_frames(&config, m);
            // The simulator may go idle some epochs after the last
            // record. Those epochs carry only progress marks, which the
            // cut leaves out: the last epoch with records ends the input.
            while sent.len() > 1 && sent.last().unwrap().0.is_empty() {
                let (_, mark) = sent.pop().unwrap();
                sent.last_mut().unwrap().1 = mark;
            }
            let mut want = cut;
            want.last_mut().unwrap().1 = u64::MAX;
            assert_eq!(sent, want, "machine {m}");
        }
        assert!(epochs(&[], config.epoch_ms).is_empty());
    }

    #[test]
    fn a_record_outside_every_band_is_rejected() {
        let config = config(1);
        let stray = TraceRecord::new(
            5,
            TraceEvent::Close {
                open_id: OpenId(config.machine_offsets(1).open * MACHINES as u64),
                final_pos: 0,
            },
        );
        assert!(split_by_machine(&[stray], &config).is_err());
    }
}
