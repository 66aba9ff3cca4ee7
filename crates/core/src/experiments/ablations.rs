//! Ablations of the simulator's design choices (DESIGN.md §5): how much
//! each mechanism contributes to the headline cache results.

use std::fmt;

use cachesim::{sweep, CacheConfig, Replacement, RwHandling, WritePolicy};

use crate::report::{pct, Table};
use crate::TraceSet;

/// One ablation variant and its outcome.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Short name of the variant.
    pub name: String,
    /// Disk I/Os under this variant.
    pub disk_ios: u64,
    /// Miss ratio under this variant.
    pub miss_ratio: f64,
}

/// All ablation results (1 MB cache, 4 KB blocks, delayed write unless
/// the variant says otherwise).
pub struct Ablations {
    /// The baseline configuration's result.
    pub baseline: Variant,
    /// The ablated variants.
    pub variants: Vec<Variant>,
}

/// Runs all ablations on the A5 trace.
pub fn run(set: &TraceSet) -> Ablations {
    let trace = &set.a5().trace;
    let base = CacheConfig {
        cache_bytes: 1 << 20,
        block_size: 4096,
        write_policy: WritePolicy::DelayedWrite,
        fidelity: set.config.fidelity,
        ..CacheConfig::default()
    };
    // The sweep engine groups these by expansion key: the first four
    // share the baseline expansion, and each read-write billing variant
    // gets its own (rw_handling changes the event stream itself).
    let variants_spec: Vec<(String, CacheConfig)> = vec![
        ("baseline (LRU, elision, invalidation)".into(), base.clone()),
        (
            "FIFO replacement".into(),
            CacheConfig {
                replacement: Replacement::Fifo,
                ..base.clone()
            },
        ),
        (
            "no whole-block-overwrite elision".into(),
            CacheConfig {
                whole_block_elision: false,
                ..base.clone()
            },
        ),
        (
            "no delete/overwrite invalidation".into(),
            CacheConfig {
                invalidate_on_delete: false,
                ..base.clone()
            },
        ),
        (
            "read-write runs billed as reads".into(),
            CacheConfig {
                rw_handling: RwHandling::Read,
                ..base.clone()
            },
        ),
        (
            "read-write runs billed as both".into(),
            CacheConfig {
                rw_handling: RwHandling::Both,
                ..base.clone()
            },
        ),
    ];
    let configs: Vec<CacheConfig> = variants_spec.iter().map(|(_, c)| c.clone()).collect();
    let results = sweep::run_source(trace.records(), &configs, set.config.jobs);
    let mut measured = variants_spec
        .into_iter()
        .zip(results)
        .map(|((name, _), (_, m))| Variant {
            name,
            disk_ios: m.disk_ios(),
            miss_ratio: m.miss_ratio(),
        });
    let baseline = measured.next().expect("baseline present");
    let variants = measured.collect();
    Ablations { baseline, variants }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(
            "Ablations (a5, 1 MB cache, 4 KB blocks, delayed write)",
            &["Variant", "disk I/Os", "miss ratio", "vs baseline"],
        );
        t.row(vec![
            self.baseline.name.clone(),
            self.baseline.disk_ios.to_string(),
            pct(self.baseline.miss_ratio),
            "—".into(),
        ]);
        for v in &self.variants {
            let delta = v.disk_ios as f64 / self.baseline.disk_ios.max(1) as f64 - 1.0;
            t.row(vec![
                v.name.clone(),
                v.disk_ios.to_string(),
                pct(v.miss_ratio),
                format!("{:+.1}%", 100.0 * delta),
            ]);
        }
        t.note("Elision and invalidation are the mechanisms behind the paper's");
        t.note("delayed-write result; LRU-vs-FIFO shows the recency assumption's value.");
        write!(f, "{t}")
    }
}
