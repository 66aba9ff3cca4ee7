//! Property-based tests: the analyzers against brute-force recomputation
//! on randomly generated (but well-formed) traces.

use fsanalysis::{
    run_analyzers, ActivityAnalysis, EventGapAnalysis, FileSizeAnalysis, LifetimeAnalysis,
    OpenTimeAnalysis, RunLengthAnalysis, SequentialityReport, UserAnalysis,
};
use fstrace::{AccessMode, FileId, OpenId, Trace, TraceBuilder, TraceEvent, TraceRecord, UserId};
use proptest::prelude::*;

mod legacy;

/// One randomly shaped session: (user, open size, seek targets with
/// advances, final advance, created).
#[derive(Debug, Clone)]
struct SessionSpec {
    user: u32,
    size: u64,
    moves: Vec<(u64, u64)>, // (advance before seek, seek target)
    final_advance: u64,
    created: bool,
    mode: u8,
}

fn arb_session() -> impl Strategy<Value = SessionSpec> {
    (
        0u32..6,
        0u64..50_000,
        prop::collection::vec((0u64..5_000, 0u64..50_000), 0..4),
        0u64..5_000,
        any::<bool>(),
        0u8..3,
    )
        .prop_map(
            |(user, size, moves, final_advance, created, mode)| SessionSpec {
                user,
                size,
                moves,
                final_advance,
                created,
                mode,
            },
        )
}

/// Builds a trace from specs, returning expected per-session run lists.
fn build(specs: &[SessionSpec]) -> (Trace, Vec<Vec<u64>>) {
    let mut b = TraceBuilder::new();
    let mut users = Vec::new();
    for _ in 0..8 {
        users.push(b.new_user_id());
    }
    let mut expected_runs = Vec::new();
    let mut t = 0u64;
    for spec in specs {
        let f = b.new_file_id();
        let mode = match spec.mode {
            0 => AccessMode::ReadOnly,
            1 => AccessMode::WriteOnly,
            _ => AccessMode::ReadWrite,
        };
        let size = if spec.created { 0 } else { spec.size };
        let o = b.open(t, f, users[spec.user as usize], mode, size, spec.created);
        t += 20;
        let mut pos = 0u64;
        let mut runs = Vec::new();
        for &(advance, target) in &spec.moves {
            if advance > 0 {
                runs.push(advance);
            }
            b.seek(t, o, pos + advance, target);
            pos = target;
            t += 20;
        }
        if spec.final_advance > 0 {
            runs.push(spec.final_advance);
        }
        b.close(t, o, pos + spec.final_advance);
        t += 20;
        expected_runs.push(runs);
    }
    (b.finish(), expected_runs)
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

/// A raw event with deliberately small id ranges, so opens and closes
/// pair up often — and collide often, producing every anomaly the
/// session builder knows (orphan closes, duplicate opens, unclosed
/// sessions, seeks on dead handles).
fn arb_raw_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            0u64..12,
            0u64..8,
            0u32..5,
            arb_mode(),
            0u64..100_000,
            any::<bool>()
        )
            .prop_map(|(o, f, u, mode, size, created)| TraceEvent::Open {
                open_id: OpenId(o),
                file_id: FileId(f),
                user_id: UserId(u),
                mode,
                size,
                created,
            }),
        (0u64..12, 0u64..100_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..12, 0u64..100_000, 0u64..100_000).prop_map(|(o, a, b)| TraceEvent::Seek {
            open_id: OpenId(o),
            old_pos: a,
            new_pos: b,
        }),
        (0u64..8, 0u32..5).prop_map(|(f, u)| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(u),
        }),
        (0u64..8, 0u64..100_000, 0u32..5).prop_map(|(f, l, u)| TraceEvent::Truncate {
            file_id: FileId(f),
            new_len: l,
            user_id: UserId(u),
        }),
        (0u64..8, 0u32..5, 0u64..100_000).prop_map(|(f, u, s)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size: s,
        }),
    ]
}

fn arb_raw_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..600_000u64, arb_raw_event()), 0..150).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one-pass streaming suite agrees with every standalone
    /// analyzer on arbitrary traces — including anomalous ones, where
    /// both sides must drop the same malformed sessions.
    #[test]
    fn streaming_suite_matches_wrappers(trace in arb_raw_trace()) {
        let windows = [600, 10];
        let suite = run_analyzers(trace.records(), &windows);
        let sessions = trace.sessions();

        let activity = ActivityAnalysis::analyze(&trace, &windows);
        prop_assert_eq!(suite.activity.total_bytes, activity.total_bytes);
        prop_assert_eq!(suite.activity.total_users, activity.total_users);
        prop_assert_eq!(suite.activity.duration_secs, activity.duration_secs);

        let seq = SequentialityReport::analyze(&sessions);
        prop_assert_eq!(suite.sequentiality.total_accesses(), seq.total_accesses());
        prop_assert_eq!(suite.sequentiality.total_bytes(), seq.total_bytes());

        let mut runs = RunLengthAnalysis::analyze(&sessions);
        let mut suite_runs = suite.run_lengths.clone();
        prop_assert_eq!(suite_runs.by_runs.total_weight(), runs.by_runs.total_weight());
        prop_assert_eq!(suite_runs.by_bytes.total_weight(), runs.by_bytes.total_weight());
        prop_assert_eq!(suite_runs.fraction_of_runs_le(4096), runs.fraction_of_runs_le(4096));

        let mut sizes = FileSizeAnalysis::analyze(&sessions);
        let mut suite_sizes = suite.sizes.clone();
        prop_assert_eq!(suite_sizes.by_files.total_weight(), sizes.by_files.total_weight());
        prop_assert_eq!(
            suite_sizes.fraction_of_accesses_le(10 * 1024),
            sizes.fraction_of_accesses_le(10 * 1024)
        );

        let mut open_times = OpenTimeAnalysis::analyze(&sessions);
        let mut suite_open = suite.open_times.clone();
        prop_assert_eq!(suite_open.median_ms(), open_times.median_ms());
        prop_assert_eq!(
            suite_open.fraction_le_secs(10.0),
            open_times.fraction_le_secs(10.0)
        );

        let lifetimes = LifetimeAnalysis::analyze(&trace);
        prop_assert_eq!(suite.lifetimes.events.clone(), lifetimes.events);
        prop_assert_eq!(suite.lifetimes.censored, lifetimes.censored);

        let mut gaps = EventGapAnalysis::analyze(&trace);
        let mut suite_gaps = suite.gaps.clone();
        prop_assert_eq!(suite_gaps.gaps_ms.total_weight(), gaps.gaps_ms.total_weight());
        prop_assert_eq!(suite_gaps.fraction_le_secs(0.5), gaps.fraction_le_secs(0.5));

        let users = UserAnalysis::analyze(&trace);
        prop_assert_eq!(suite.users.users.clone(), users.users);
    }

    /// The shared pass against independent copies of the pre-change
    /// analyzers (`legacy/mod.rs`), each with its own open-id state:
    /// activity, event gaps and per-user rows must print the same
    /// `{:?}` (every f64 bit for bit) on traces with orphan seeks and
    /// closes, duplicate opens, and unclosed sessions.
    #[test]
    fn suite_matches_pre_change_analyzers(trace in arb_raw_trace()) {
        let windows = [600, 10];
        let suite = run_analyzers(trace.records(), &windows);
        let (activity, gaps, users) = legacy::analyze(&trace, &windows);
        prop_assert_eq!(format!("{:?}", suite.activity), format!("{activity:?}"));
        prop_assert_eq!(format!("{:?}", suite.gaps), format!("{gaps:?}"));
        prop_assert_eq!(format!("{:?}", suite.users), format!("{users:?}"));
    }

    /// Run lengths match the generator's bookkeeping exactly.
    #[test]
    fn run_lengths_match_construction(specs in prop::collection::vec(arb_session(), 1..30)) {
        let (trace, expected) = build(&specs);
        let sessions = trace.sessions();
        prop_assert_eq!(sessions.anomalies(), 0);
        let mut analysis = RunLengthAnalysis::analyze(&sessions);
        let total_runs: usize = expected.iter().map(Vec::len).sum();
        let total_bytes: u64 = expected.iter().flatten().sum();
        prop_assert_eq!(analysis.by_runs.total_weight(), total_runs as u64);
        prop_assert_eq!(analysis.by_bytes.total_weight(), total_bytes);
        if total_bytes > 0 {
            let max_run = expected.iter().flatten().copied().max().unwrap_or(0);
            prop_assert!((analysis.fraction_of_runs_le(max_run) - 1.0).abs() < 1e-9);
        }
    }

    /// Sequentiality classification matches a brute-force rule:
    /// sequential iff at most one positive-length run.
    #[test]
    fn sequentiality_matches_bruteforce(specs in prop::collection::vec(arb_session(), 1..30)) {
        let (trace, expected) = build(&specs);
        let report = SequentialityReport::analyze(&trace.sessions());
        let brute_sequential = expected.iter().filter(|r| r.len() <= 1).count() as u64;
        let got = report.read_only.sequential
            + report.write_only.sequential
            + report.read_write.sequential;
        prop_assert_eq!(got, brute_sequential);
        prop_assert_eq!(report.total_accesses(), specs.len() as u64);
    }

    /// Activity totals conserve bytes and never invent users.
    #[test]
    fn activity_conserves_bytes(specs in prop::collection::vec(arb_session(), 1..30)) {
        let (trace, expected) = build(&specs);
        let act = ActivityAnalysis::analyze(&trace, &[10]);
        let total: u64 = expected.iter().flatten().sum();
        prop_assert_eq!(act.total_bytes, total);
        let distinct: std::collections::HashSet<u32> =
            specs.iter().map(|s| s.user).collect();
        prop_assert_eq!(act.total_users as usize, distinct.len());
    }

    /// Per-user analysis partitions the same byte total.
    #[test]
    fn user_analysis_partitions_bytes(specs in prop::collection::vec(arb_session(), 1..30)) {
        let (trace, expected) = build(&specs);
        let ua = UserAnalysis::analyze(&trace);
        let total: u64 = expected.iter().flatten().sum();
        let sum: u64 = ua.users.iter().map(|u| u.bytes).sum();
        prop_assert_eq!(sum, total);
        // Sorted descending.
        for w in ua.users.windows(2) {
            prop_assert!(w[0].bytes >= w[1].bytes);
        }
        prop_assert!(ua.concentration(usize::MAX) >= 0.999 || total == 0);
    }

    /// File sizes at close are never smaller than bytes transferred in
    /// any single run of the session.
    #[test]
    fn size_distribution_dominates_runs(specs in prop::collection::vec(arb_session(), 1..30)) {
        let (trace, _) = build(&specs);
        let sessions = trace.sessions();
        for s in sessions.complete() {
            let max_run_end = s.runs.iter().map(|r| r.end()).max().unwrap_or(0);
            prop_assert!(s.size_at_close() >= max_run_end);
        }
        let a = FileSizeAnalysis::analyze(&sessions);
        prop_assert_eq!(a.by_files.total_weight(), specs.len() as u64);
    }

    /// Lifetime analysis: every death postdates its birth, and weights
    /// conserve written bytes for created files that die.
    #[test]
    fn lifetimes_are_causal(specs in prop::collection::vec(arb_session(), 1..30)) {
        let (trace, _) = build(&specs);
        let lt = LifetimeAnalysis::analyze(&trace);
        for e in &lt.events {
            prop_assert!(e.died_ms >= e.born_ms);
        }
        // Each spec creates a distinct file and nothing is unlinked, so
        // deaths can only come from truncate-on-open of... nothing: all
        // files are distinct. Hence created files are censored.
        let created = specs.iter().filter(|s| s.created).count() as u64;
        prop_assert_eq!(lt.censored, created);
        prop_assert!(lt.events.is_empty());
    }
}
