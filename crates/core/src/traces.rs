//! Standard trace generation shared by every experiment.

use std::path::Path;
use std::sync::OnceLock;

use bsdfs::{Fs, FsResult};
use cachesim::Fidelity;
use fsanalysis::{run_analyzers, AnalysisSuite};
use fstrace::Trace;
use workload::{generate, MachineProfile, WorkloadConfig};

use crate::archive;

/// Reproduction parameters: how much simulated time to trace, the
/// master seed, and how the cache experiments replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproConfig {
    /// Simulated hours per trace (the paper traced 2–3 days; one to a
    /// few simulated hours at peak-hour intensity gives stable shapes).
    pub hours: f64,
    /// Master random seed.
    pub seed: u64,
    /// Replay fidelity for the Section 6 cache simulations
    /// (`repro --fidelity`); block is the paper's simulator. Section 5
    /// analyses are fidelity-invariant and ignore this.
    pub fidelity: Fidelity,
    /// Worker threads for the cache-simulation sweeps and the archive
    /// cache's decode (`repro --jobs`; default: every available core).
    /// Results are identical for any value.
    pub jobs: usize,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            hours: 1.0,
            seed: 1985,
            fidelity: Fidelity::Block,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// One trace with its name ("a5", "e3", "c4").
pub struct TraceEntry {
    /// Trace name as used in the paper's tables.
    pub name: String,
    /// Machine name ("Ucbarpa" …).
    pub machine: String,
    /// The logical trace, in time order.
    pub trace: Trace,
    /// The file system the workload ran against, whose caches the
    /// Section 6.4 comparison reads; `None` for a trace replayed from
    /// the archive cache, where no workload ran.
    pub fs: Option<Fs>,
    analysis: OnceLock<AnalysisSuite>,
}

impl TraceEntry {
    /// Activity window lengths shared by every consumer: 600 s for the
    /// paper's ten-minute intervals, 10 s for bursts.
    pub const WINDOW_SECS: [u64; 2] = [600, 10];

    /// Every Section 5 analysis of this trace, computed together in one
    /// streaming pass the first time any experiment asks, then shared.
    pub fn analysis(&self) -> &AnalysisSuite {
        self.analysis
            .get_or_init(|| run_analyzers(self.trace.records(), &Self::WINDOW_SECS))
    }
}

/// The paper's traces, regenerated.
pub struct TraceSet {
    /// Entries in the order their profiles were given; the paper's is
    /// a5, e3, c4.
    pub entries: Vec<TraceEntry>,
    /// The parameters the set was loaded with; the cache experiments
    /// read its fidelity and worker count.
    pub config: ReproConfig,
}

impl TraceSet {
    /// Loads one trace per profile: [`MachineProfile::all`] for the
    /// paper's three machines, or A5 alone for the Section 6
    /// simulations ("only the results from the A5 trace are
    /// reported").
    ///
    /// With `cache`, a `tracestore` archive cache under that directory
    /// backs the set: a trace whose archive is present and intact is
    /// replayed (chunk-parallel) instead of regenerated, and a fresh
    /// generation is archived for the next run. A replayed entry
    /// carries no file system, so the `compare` experiment, which reads
    /// it, must be given a set loaded without a cache.
    pub fn load(
        config: &ReproConfig,
        profiles: impl IntoIterator<Item = MachineProfile>,
        cache: Option<&Path>,
    ) -> FsResult<Self> {
        let mut entries = Vec::new();
        for profile in profiles {
            let name = profile.trace_name.to_string();
            let machine = profile.name.to_string();
            let path = cache.map(|dir| archive::trace_path(dir, &name, config));
            let replayed = path.as_deref().and_then(|path| {
                let trace = archive::load_trace(path, config.jobs)?;
                eprintln!("  {name}: replayed from {}", path.display());
                Some(trace)
            });
            let (trace, fs) = match replayed {
                Some(trace) => (trace, None),
                None => {
                    let out = generate(&WorkloadConfig {
                        profile,
                        seed: config.seed,
                        duration_hours: config.hours,
                        ..WorkloadConfig::default()
                    })?;
                    if let Some(path) = &path {
                        archive::store_trace(path, &name, &out.trace);
                    }
                    (out.trace, Some(out.fs))
                }
            };
            entries.push(TraceEntry {
                name,
                machine,
                trace,
                fs,
                analysis: OnceLock::new(),
            });
        }
        Ok(TraceSet {
            entries,
            config: *config,
        })
    }

    /// The A5 entry: the first, where both [`MachineProfile::all`] and
    /// the A5-alone list put it.
    ///
    /// # Panics
    ///
    /// Panics if the set was loaded from no profiles.
    pub fn a5(&self) -> &TraceEntry {
        &self.entries[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_three_named_traces() {
        let config = ReproConfig {
            hours: 0.05,
            seed: 1,
            ..ReproConfig::default()
        };
        let set = TraceSet::load(&config, MachineProfile::all(), None).unwrap();
        let names: Vec<&str> = set.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a5", "e3", "c4"]);
        assert!(set.entries.iter().all(|e| !e.trace.is_empty()));
    }

    #[test]
    fn a5_only_generation() {
        let config = ReproConfig {
            hours: 0.05,
            seed: 1,
            ..ReproConfig::default()
        };
        let set = TraceSet::load(&config, [MachineProfile::ucbarpa()], None).unwrap();
        assert_eq!(set.entries.len(), 1);
        assert_eq!(set.a5().name, "a5");
        assert_eq!(set.a5().machine, "Ucbarpa");
    }
}
