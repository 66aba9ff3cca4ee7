//! Metrics invariants over the `obs` registry.
//!
//! Two families of checks live here:
//!
//! 1. Per-instance `bsdfs` cache counters, exported into a *local*
//!    registry, must agree with the legacy accessor snapshots and obey
//!    the accounting identity `read_hits + read_misses ==
//!    logical_reads`.
//! 2. Global sweep counters must show exactly one trace expansion per
//!    (`fidelity` × `rw_handling` × `simulate_paging`) group and one
//!    timing per cell for every worker count, with aggregate traffic
//!    satisfying the same identity — and the rendered experiment output
//!    must stay bit-identical across `--jobs` settings.
//!
//! The global registry's counters are process-wide, so this binary
//! holds a single test and nothing else: integration tests in one
//! binary run concurrently, and any other test driving the simulator
//! would perturb the before/after snapshot diffs.

use bsdtrace::{experiments, ReproConfig, TraceSet};
use obs::Registry;
use workload::MachineProfile;

#[test]
fn obs_metrics_invariants() {
    let config = ReproConfig {
        hours: 0.1,
        seed: 7,
        ..ReproConfig::default()
    };
    let mut set = TraceSet::load(&config, [MachineProfile::ucbarpa()], None).expect("trace");
    let fs = set
        .a5()
        .fs
        .as_ref()
        .expect("a generated trace has its file system");

    // --- Per-instance bsdfs cache counters (local registry) ---
    let reg = Registry::new();
    fs.register_obs(&reg, "bsdfs.a5");
    let snap = reg.snapshot();
    let c = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("counter {name} must be registered"))
    };

    let bstats = fs.bcache_stats();
    assert_eq!(c("bsdfs.a5.bufcache.read_hits"), bstats.read_hits);
    assert_eq!(c("bsdfs.a5.bufcache.read_misses"), bstats.read_misses);
    assert_eq!(c("bsdfs.a5.bufcache.logical_reads"), bstats.logical_reads);
    assert!(bstats.logical_reads > 0, "workload must issue block reads");
    assert_eq!(
        c("bsdfs.a5.bufcache.read_hits") + c("bsdfs.a5.bufcache.read_misses"),
        c("bsdfs.a5.bufcache.logical_reads"),
        "every logical read is exactly one hit or one miss"
    );

    let nstats = fs.ncache_stats();
    assert_eq!(c("bsdfs.a5.namecache.hits"), nstats.hits);
    assert_eq!(c("bsdfs.a5.namecache.misses"), nstats.misses);
    assert!(nstats.hits + nstats.misses > 0, "lookups must be counted");

    let istats = fs.itable_stats();
    assert_eq!(c("bsdfs.a5.itable.hits"), istats.hits);
    assert_eq!(c("bsdfs.a5.itable.misses"), istats.misses);

    // --- Global sweep counters across worker counts ---
    let global = obs::global();
    let mut table6_outputs: Vec<String> = Vec::new();
    for jobs in [1usize, 2, 8] {
        set.config.jobs = jobs;

        // Table VI: 6 sizes x 4 policies, all one expansion key.
        let before = global.snapshot();
        let out = experiments::table6::run(&set);
        let after = global.snapshot();
        let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(
            d("cachesim.replay.expansions"),
            1,
            "table6 is one (rw_handling x paging) group at jobs={jobs}"
        );
        assert_eq!(d("cachesim.sweep.groups"), 1, "jobs={jobs}");
        assert_eq!(d("cachesim.sweep.cells"), 24, "jobs={jobs}");
        assert_eq!(
            d("cachesim.sweep.read_hits") + d("cachesim.sweep.read_misses"),
            d("cachesim.sweep.logical_reads"),
            "sweep aggregate hit/miss accounting at jobs={jobs}"
        );
        assert!(d("cachesim.sweep.logical_reads") > 0, "jobs={jobs}");
        let cell_count_before = before.span("cachesim.sweep.cell").map_or(0, |s| s.count);
        let cell_count_after = after.span("cachesim.sweep.cell").map_or(0, |s| s.count);
        assert_eq!(
            cell_count_after - cell_count_before,
            24,
            "every cell is timed exactly once at jobs={jobs}"
        );
        table6_outputs.push(out.to_string());

        // Figure 7: paging on and off are distinct expansion keys.
        let before = global.snapshot();
        experiments::fig7::run(&set);
        let after = global.snapshot();
        let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(
            d("cachesim.replay.expansions"),
            2,
            "fig7 expands once per paging mode at jobs={jobs}"
        );
        assert_eq!(d("cachesim.sweep.groups"), 2, "jobs={jobs}");
        // Both groups are one profile each, stepped during the pass:
        // the pass's time still lands once on every cell.
        let cell_count_before = before.span("cachesim.sweep.cell").map_or(0, |s| s.count);
        let cell_count_after = after.span("cachesim.sweep.cell").map_or(0, |s| s.count);
        assert_eq!(
            cell_count_after - cell_count_before,
            d("cachesim.sweep.cells"),
            "every fig7 cell is timed exactly once at jobs={jobs}"
        );
        assert_eq!(d("cachesim.sweep.cells"), 10, "jobs={jobs}");
    }

    assert!(
        table6_outputs.windows(2).all(|w| w[0] == w[1]),
        "table6 rendering must be bit-identical across --jobs 1/2/8"
    );
}
