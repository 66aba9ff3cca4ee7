//! Expansion-sharing audit for the experiment drivers.
//!
//! The cache experiments sweep grids of configurations; the sweep
//! engine must expand the trace once per (trace, expansion key) group,
//! not once per cell. The counter behind [`cachesim::expansion_count`]
//! is process-global, so this binary holds a single test and nothing
//! else — a concurrent test that touched the simulator would perturb
//! the before/after diffs.

use bsdtrace::{experiments, ReproConfig, TraceSet};
use workload::MachineProfile;

#[test]
fn experiments_share_one_expansion_per_trace() {
    let config = ReproConfig {
        hours: 0.1,
        seed: 7,
        ..ReproConfig::default()
    };
    let set = TraceSet::load(&config, [MachineProfile::ucbarpa()], None).expect("trace");

    // Table VI: 6 sizes x 4 policies, all one expansion key.
    let before = cachesim::expansion_count();
    experiments::table6::run(&set);
    assert_eq!(
        cachesim::expansion_count() - before,
        1,
        "table6 must share one expansion across its 24 cells"
    );

    // Table VII: 6 block sizes x 4 cache sizes; block size is
    // consumption-only, so still a single expansion.
    let before = cachesim::expansion_count();
    experiments::table7::run(&set);
    assert_eq!(
        cachesim::expansion_count() - before,
        1,
        "table7 must share one expansion across its 24 cells"
    );

    // Figure 7: paging on and off are different expansion keys — two
    // expansions for 10 cells.
    let before = cachesim::expansion_count();
    experiments::fig7::run(&set);
    assert_eq!(
        cachesim::expansion_count() - before,
        2,
        "fig7 must share one expansion per paging mode"
    );

    // Ablations: baseline group plus the two read-write billing
    // variants — three keys, three expansions for 6 variants.
    let before = cachesim::expansion_count();
    experiments::ablations::run(&set);
    assert_eq!(
        cachesim::expansion_count() - before,
        3,
        "ablations must expand once per rw-handling variant"
    );

    // Cross-fidelity Table VI: fidelity is part of the key — three
    // expansions for 72 cells, all from one pass over the trace.
    let before = cachesim::expansion_count();
    experiments::fidelity::run(&set);
    assert_eq!(
        cachesim::expansion_count() - before,
        3,
        "fidelity must expand once per fidelity level"
    );
}
