//! The experiment drivers reproduce the paper's qualitative shapes on a
//! small standard run.

use bsdtrace::{experiments, paper, ReproConfig, TraceSet};
use workload::MachineProfile;

fn small_set() -> TraceSet {
    let config = ReproConfig {
        hours: 0.25,
        seed: 77,
        ..ReproConfig::default()
    };
    TraceSet::load(&config, MachineProfile::all(), None).expect("trace set")
}

#[test]
fn archive_cache_renders_like_a_fresh_generation() {
    let config = ReproConfig {
        hours: 0.1,
        ..ReproConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("bsdtrace-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let load = |cache| TraceSet::load(&config, MachineProfile::all(), cache).expect("trace set");
    let fresh = load(None);
    let cold = load(Some(dir.as_path()));
    for name in ["a5", "e3", "c4"] {
        assert!(
            dir.join(format!("{name}-0.1h-s1985.tsa")).is_file(),
            "{name}"
        );
    }
    let warm = load(Some(dir.as_path()));
    let _ = std::fs::remove_dir_all(&dir);

    let render = |set: &TraceSet| {
        [
            experiments::table3::run(set).to_string(),
            experiments::table6::run(set).to_string(),
            experiments::server::run(set).to_string(),
        ]
    };
    let want = render(&fresh);
    assert_eq!(render(&cold), want, "cold cache");
    assert_eq!(render(&warm), want, "warm cache");
    assert!(cold.entries.iter().all(|e| e.fs.is_some()));
    assert!(
        warm.entries.iter().all(|e| e.fs.is_none()),
        "a replayed trace carries no file system"
    );
}

#[test]
fn all_reports_render() {
    let set = small_set();
    for text in [
        experiments::table1::run(&set).to_string(),
        experiments::table3::run(&set).to_string(),
        experiments::table4::run(&set).to_string(),
        experiments::table5::run(&set).to_string(),
        experiments::fig1::run(&set).to_string(),
        experiments::fig2::run(&set).to_string(),
        experiments::fig3::run(&set).to_string(),
        experiments::fig4::run(&set).to_string(),
        experiments::gaps::run(&set).to_string(),
        experiments::table6::run(&set).to_string(),
        experiments::table7::run(&set).to_string(),
        experiments::fig7::run(&set).to_string(),
        experiments::residency::run(&set).to_string(),
        experiments::comparisons::run(&set).to_string(),
    ] {
        assert!(text.len() > 100, "report suspiciously short:\n{text}");
        assert!(
            text.contains('%') || text.contains("KB") || text.contains("(±"),
            "no data:\n{text}"
        );
    }
}

#[test]
fn table6_shape_matches_paper() {
    let set = small_set();
    let t6 = experiments::table6::run(&set);
    assert!(
        t6.shape_violations().is_empty(),
        "{:?}",
        t6.shape_violations()
    );
    // Delayed write at 16 MB eliminates the vast majority of disk I/O.
    let last = t6.cells.last().expect("rows");
    assert!(last[3].miss_ratio < 0.20, "{}", last[3].miss_ratio);
    // The 4 MB elimination falls in (or beats) the paper's 65-90% band.
    let four_mb = &t6.cells[3];
    let elim_dw = 1.0 - four_mb[3].miss_ratio;
    assert!(
        elim_dw >= paper::FOUR_MB_ELIMINATION.0,
        "4MB delayed-write eliminated only {elim_dw}"
    );
}

#[test]
fn table7_optimum_grows_with_cache() {
    let set = small_set();
    let t7 = experiments::table7::run(&set);
    let opt = t7.optimal_block_kb();
    // Large blocks win; the optimum is 4-32 KB everywhere and never
    // shrinks as the cache grows.
    for &kb in &opt {
        assert!((4..=32).contains(&kb), "optimum {kb} KB");
    }
    assert!(opt.last() >= opt.first());
    // 1 KB blocks are always the worst choice, as in Figure 6.
    for c in 0..opt.len() {
        let one_kb = t7.rows[0].disk_ios[c];
        for r in &t7.rows {
            assert!(r.disk_ios[c] <= one_kb);
        }
    }
}

#[test]
fn fig7_has_paging_crossover() {
    let set = small_set();
    let f7 = experiments::fig7::run(&set);
    assert!(f7.has_crossover_shape(), "{:?}", f7.points);
}

#[test]
fn fig4_daemon_spike_present() {
    let set = small_set();
    let f4 = experiments::fig4::run(&set);
    for (name, spike) in f4.names.iter().zip(&f4.spikes) {
        assert!(*spike > 0.15, "{name}: spike {spike}");
    }
}

#[test]
fn comparisons_show_measured_below_simulated() {
    let set = small_set();
    let c = experiments::comparisons::run(&set);
    assert!(
        c.measured_miss < c.simulated_miss,
        "measured {} !< simulated {}",
        c.measured_miss,
        c.simulated_miss
    );
    // The live cache sees more logical accesses (1 KB requests plus
    // metadata) than the block-unit simulator.
    assert!(c.measured_accesses > c.simulated_accesses);
    assert!(c.name_cache_hit > 0.8);
}

#[test]
fn server_consolidation_scales() {
    let set = small_set();
    let srv = experiments::server::run(&set);
    assert_eq!(srv.clients, 3);
    assert!(srv.users >= 80, "merged users {}", srv.users);
    // Monotone improvement with server memory, and big caches absorb
    // most of the combined load.
    for w in srv.points.windows(2) {
        assert!(w[1].miss_ratio <= w[0].miss_ratio + 1e-9);
    }
    let first = srv.points.first().unwrap();
    let last = srv.points.last().unwrap();
    assert!(last.miss_ratio < first.miss_ratio * 0.6);
    // Rendering works.
    let text = srv.to_string();
    assert!(text.contains("file server"));
}

#[test]
fn table1_headlines_in_band() {
    let set = small_set();
    let t1 = experiments::table1::run(&set);
    assert!(t1.throughput_per_user.0 > 50.0);
    assert!(t1.throughput_per_user.1 < 2_000.0);
    assert!(t1.whole_file_accesses.0 > 0.5);
    assert!(t1.open_half_sec > 0.6);
    assert!(t1.small_file_accesses > 0.6);
    assert!(t1.four_mb_elimination.1 > t1.four_mb_elimination.0);
    assert!(t1.best_block_kb.0 >= 4 && t1.best_block_kb.1 >= 8);
}
