//! The refactor seam of the fidelity axis (DESIGN.md §15): block
//! fidelity must be event-for-event identical to the pre-refactor
//! `EventExpander`, and the coarser fidelities must honor their
//! documented session semantics.
//!
//! `LegacyExpander` below is a verbatim copy of the expander as it
//! stood before `Fidelity` existed. It is the executable spec for
//! `Fidelity::Block`: the proptest and the golden trace compare full
//! event vectors, not just end metrics.

use std::collections::HashMap;

use cachesim::{
    replay_events, sweep, CacheConfig, Fidelity, ReplayEvent, RwHandling, Simulator, WritePolicy,
};
use fstrace::{AccessMode, FileId, OpenId, Trace, TraceBuilder, TraceEvent, TraceRecord, UserId};
use proptest::prelude::*;

/// The pre-refactor expander, copied verbatim (modulo the obs counter):
/// one hard-coded block-fidelity expansion.
struct LegacyExpander {
    rw_handling: RwHandling,
    simulate_paging: bool,
    pending: HashMap<OpenId, LegacyPending>,
}

struct LegacyPending {
    file: FileId,
    mode: AccessMode,
    pos: u64,
}

impl LegacyExpander {
    fn new(config: &CacheConfig) -> Self {
        LegacyExpander {
            rw_handling: config.rw_handling,
            simulate_paging: config.simulate_paging,
            pending: HashMap::new(),
        }
    }

    fn transfer(
        &self,
        emit: &mut impl FnMut(ReplayEvent),
        time_ms: u64,
        file: FileId,
        mode: AccessMode,
        offset: u64,
        len: u64,
    ) {
        let event = |write| ReplayEvent::Transfer {
            time_ms,
            file,
            offset,
            len,
            write,
        };
        match (mode, self.rw_handling) {
            (AccessMode::ReadOnly, _) | (AccessMode::ReadWrite, RwHandling::Read) => {
                emit(event(false));
            }
            (AccessMode::WriteOnly, _) | (AccessMode::ReadWrite, RwHandling::Write) => {
                emit(event(true));
            }
            (AccessMode::ReadWrite, RwHandling::Both) => {
                emit(event(false));
                emit(event(true));
            }
        }
    }

    fn feed(&mut self, rec: &TraceRecord, emit: &mut impl FnMut(ReplayEvent)) {
        let time_ms = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open {
                open_id,
                file_id,
                mode,
                size,
                created,
                ..
            } => {
                emit(ReplayEvent::SizeHint {
                    time_ms,
                    file: file_id,
                    size,
                });
                if created {
                    emit(ReplayEvent::TruncateTo {
                        time_ms,
                        file: file_id,
                        new_len: 0,
                    });
                }
                self.pending.insert(
                    open_id,
                    LegacyPending {
                        file: file_id,
                        mode,
                        pos: 0,
                    },
                );
            }
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            } => {
                let mut run = None;
                if let Some(p) = self.pending.get_mut(&open_id) {
                    if old_pos > p.pos {
                        run = Some((p.file, p.mode, p.pos, old_pos - p.pos));
                    }
                    p.pos = new_pos;
                }
                if let Some((file, mode, offset, len)) = run {
                    self.transfer(emit, time_ms, file, mode, offset, len);
                }
            }
            TraceEvent::Close { open_id, final_pos } => {
                if let Some(p) = self.pending.remove(&open_id) {
                    if final_pos > p.pos {
                        self.transfer(emit, time_ms, p.file, p.mode, p.pos, final_pos - p.pos);
                    }
                }
            }
            TraceEvent::Unlink { file_id, .. } => emit(ReplayEvent::Delete {
                time_ms,
                file: file_id,
            }),
            TraceEvent::Truncate {
                file_id, new_len, ..
            } => emit(ReplayEvent::TruncateTo {
                time_ms,
                file: file_id,
                new_len,
            }),
            TraceEvent::Execve { file_id, size, .. } if self.simulate_paging && size > 0 => {
                emit(ReplayEvent::Transfer {
                    time_ms,
                    file: file_id,
                    offset: 0,
                    len: size,
                    write: false,
                });
            }
            _ => {}
        }
    }
}

fn legacy_events(trace: &Trace, config: &CacheConfig) -> Vec<ReplayEvent> {
    let mut expander = LegacyExpander::new(config);
    let mut out = Vec::new();
    for rec in trace.records() {
        expander.feed(rec, &mut |ev| out.push(ev));
    }
    out
}

fn arb_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![
        Just(AccessMode::ReadOnly),
        Just(AccessMode::WriteOnly),
        Just(AccessMode::ReadWrite),
    ]
}

/// Raw events with tight id ranges: opens and closes pair up often,
/// and the expander also sees every anomaly (orphan closes, reused
/// open ids, seeks on dead handles).
fn arb_raw_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            0u64..10,
            0u64..6,
            0u32..4,
            arb_mode(),
            0u64..200_000,
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
        (0u64..10, 0u64..200_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..10, 0u64..200_000, 0u64..200_000).prop_map(|(o, a, b)| TraceEvent::Seek {
            open_id: OpenId(o),
            old_pos: a,
            new_pos: b,
        }),
        (0u64..6, 0u32..4).prop_map(|(f, u)| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(u),
        }),
        (0u64..6, 0u64..200_000, 0u32..4).prop_map(|(f, l, u)| TraceEvent::Truncate {
            file_id: FileId(f),
            new_len: l,
            user_id: UserId(u),
        }),
        (0u64..6, 0u32..4, 0u64..200_000).prop_map(|(f, u, s)| TraceEvent::Execve {
            file_id: FileId(f),
            user_id: UserId(u),
            size: s,
        }),
    ]
}

fn arb_raw_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..200_000u64, arb_raw_event()), 0..150).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Fidelity::Block` expansion is event-for-event identical to the
    /// pre-refactor expander on random traces, for every rw-handling ×
    /// paging combination.
    #[test]
    fn block_fidelity_matches_legacy_expander(trace in arb_raw_trace()) {
        for rw in [RwHandling::Read, RwHandling::Write, RwHandling::Both] {
            for paging in [false, true] {
                let config = CacheConfig {
                    rw_handling: rw,
                    simulate_paging: paging,
                    fidelity: Fidelity::Block,
                    ..CacheConfig::default()
                };
                let got = replay_events(&trace, &config);
                let want = legacy_events(&trace, &config);
                prop_assert_eq!(got, want, "rw {:?} paging {}", rw, paging);
            }
        }
    }

    /// Syscall fidelity bills the same runs, at the same points and in
    /// the same order, as block fidelity (DESIGN.md §15): its events
    /// are the block-fidelity events with every `Transfer` turned into
    /// an `Op`.
    #[test]
    fn syscall_events_are_block_events_as_ops(trace in arb_raw_trace()) {
        for rw in [RwHandling::Read, RwHandling::Write, RwHandling::Both] {
            for paging in [false, true] {
                let block = CacheConfig {
                    rw_handling: rw,
                    simulate_paging: paging,
                    ..CacheConfig::default()
                };
                let syscall = CacheConfig {
                    fidelity: Fidelity::Syscall,
                    ..block.clone()
                };
                let want: Vec<ReplayEvent> = replay_events(&trace, &block)
                    .into_iter()
                    .map(|ev| match ev {
                        ReplayEvent::Transfer {
                            time_ms,
                            file,
                            offset,
                            len,
                            write,
                        } => ReplayEvent::Op {
                            time_ms,
                            file,
                            offset,
                            len,
                            write,
                        },
                        other => other,
                    })
                    .collect();
                let got = replay_events(&trace, &syscall);
                prop_assert_eq!(got, want, "rw {:?} paging {}", rw, paging);
            }
        }
    }

    /// Block and syscall fidelity touch exactly the same blocks: the
    /// logical read/write traffic matches event-for-event; only the
    /// fetch accounting may differ.
    #[test]
    fn syscall_fidelity_preserves_logical_traffic(trace in arb_raw_trace()) {
        let block = CacheConfig {
            rw_handling: RwHandling::Both,
            simulate_paging: true,
            ..CacheConfig::default()
        };
        let syscall = CacheConfig {
            fidelity: Fidelity::Syscall,
            ..block.clone()
        };
        let mb = Simulator::run(&trace, &block);
        let ms = Simulator::run(&trace, &syscall);
        prop_assert_eq!(mb.logical_reads, ms.logical_reads);
        prop_assert_eq!(mb.logical_writes, ms.logical_writes);
        // Read traffic is expanded identically, so syscall fidelity
        // never manufactures disk reads a write fetch didn't cause.
        prop_assert!(ms.elided_fetches >= mb.elided_fetches);
    }

    /// A sweep mixing all three fidelities stays bit-identical to
    /// sequential per-cell simulation for any worker count.
    #[test]
    fn mixed_fidelity_sweep_matches_sequential(
        trace in arb_raw_trace(),
        jobs in 1usize..5,
    ) {
        let mut configs = Vec::new();
        for fidelity in Fidelity::ALL {
            for blocks in [4u64, 64] {
                for policy in [WritePolicy::DelayedWrite, WritePolicy::WriteThrough] {
                    configs.push(CacheConfig {
                        cache_bytes: blocks * 4096,
                        write_policy: policy,
                        fidelity,
                        ..CacheConfig::default()
                    });
                }
            }
        }
        let results = sweep::run_source(trace.records(), &configs, jobs);
        prop_assert_eq!(results.len(), configs.len());
        for (config, metrics) in &results {
            prop_assert_eq!(metrics.clone(), Simulator::run(&trace, config));
        }
    }
}

/// Heavy open/close/unlink churn over a handful of open ids: with
/// only four ids live across hundreds of events, the arena-backed
/// `OpenTable` recycles freed slots constantly and reused ids land on
/// top of still-open sessions (the orphan-overwrite path). Every such
/// sequence must expand to the identical event stream — and replay to
/// the identical cache metrics — as the pre-arena `HashMap` table the
/// `LegacyExpander` vendors.
fn arb_churn_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0u64..4, 0u64..3, arb_mode(), 0u64..100_000, any::<bool>()).prop_map(
            |(o, f, mode, size, created)| TraceEvent::Open {
                open_id: OpenId(o),
                file_id: FileId(f),
                user_id: UserId(0),
                mode,
                size,
                created,
            }
        ),
        (0u64..4, 0u64..100_000).prop_map(|(o, p)| TraceEvent::Close {
            open_id: OpenId(o),
            final_pos: p,
        }),
        (0u64..4, 0u64..100_000, 0u64..100_000).prop_map(|(o, a, b)| TraceEvent::Seek {
            open_id: OpenId(o),
            old_pos: a,
            new_pos: b,
        }),
        (0u64..3).prop_map(|f| TraceEvent::Unlink {
            file_id: FileId(f),
            user_id: UserId(0),
        }),
    ]
}

fn arb_churn_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..100_000u64, arb_churn_event()), 0..400).prop_map(|pairs| {
        Trace::from_records(
            pairs
                .into_iter()
                .map(|(t, e)| TraceRecord::new(t, e))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arena slot reuse is invisible: churn-heavy traces expand and
    /// replay bit-identically to the pre-arena path.
    #[test]
    fn arena_slot_reuse_matches_prearena_path(trace in arb_churn_trace()) {
        let config = CacheConfig {
            rw_handling: RwHandling::Both,
            simulate_paging: true,
            ..CacheConfig::default()
        };
        let got = replay_events(&trace, &config);
        let want = legacy_events(&trace, &config);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(
            Simulator::run(&trace, &config),
            Simulator::run_events(&want, &config)
        );
    }
}

/// A golden trace exercising every expander path: creation, seeks
/// (forward and backward), read-write sessions, truncate, unlink,
/// execve, and an unclosed open.
fn golden_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let u = b.new_user_id();
    let f1 = b.new_file_id();
    let f2 = b.new_file_id();
    let o1 = b.open(0, f1, u, AccessMode::ReadWrite, 10_000, false);
    let o2 = b.open(0, f2, u, AccessMode::WriteOnly, 0, true);
    b.seek(10, o1, 4_000, 8_000);
    b.close(10, o2, 6_000);
    b.close(20, o1, 9_500);
    b.truncate(30, f1, 2_000, u);
    b.execve(30, f2, u, 6_000);
    b.unlink(40, f2, u);
    b.open(50, f1, u, AccessMode::ReadOnly, 2_000, false); // Unclosed.
    b.finish()
}

/// `Fidelity::Block` reproduces the hand-computed legacy event vector
/// on the golden trace (RW billed as writes, paging on).
#[test]
fn block_fidelity_golden_events() {
    let config = CacheConfig {
        rw_handling: RwHandling::Write,
        simulate_paging: true,
        ..CacheConfig::default()
    };
    let f1 = FileId(0);
    let f2 = FileId(1);
    let got = replay_events(&golden_trace(), &config);
    let want = vec![
        ReplayEvent::SizeHint {
            time_ms: 0,
            file: f1,
            size: 10_000,
        },
        ReplayEvent::SizeHint {
            time_ms: 0,
            file: f2,
            size: 0,
        },
        ReplayEvent::TruncateTo {
            time_ms: 0,
            file: f2,
            new_len: 0,
        },
        // o1's first run: bytes 0..4000, billed at the seek.
        ReplayEvent::Transfer {
            time_ms: 10,
            file: f1,
            offset: 0,
            len: 4_000,
            write: true,
        },
        // o2's whole-session run: bytes 0..6000, billed at close.
        ReplayEvent::Transfer {
            time_ms: 10,
            file: f2,
            offset: 0,
            len: 6_000,
            write: true,
        },
        // o1's second run: bytes 8000..9500, billed at close.
        ReplayEvent::Transfer {
            time_ms: 20,
            file: f1,
            offset: 8_000,
            len: 1_500,
            write: true,
        },
        ReplayEvent::TruncateTo {
            time_ms: 30,
            file: f1,
            new_len: 2_000,
        },
        // Paging read of the executed program.
        ReplayEvent::Transfer {
            time_ms: 30,
            file: f2,
            offset: 0,
            len: 6_000,
            write: false,
        },
        ReplayEvent::Delete {
            time_ms: 40,
            file: f2,
        },
        ReplayEvent::SizeHint {
            time_ms: 50,
            file: f1,
            size: 2_000,
        },
    ];
    assert_eq!(got, legacy_events(&golden_trace(), &config));
    assert_eq!(got, want);
}

/// Open fidelity on the golden trace: each closed session collapses to
/// one op carrying its transfer total; the unclosed open emits nothing.
#[test]
fn open_fidelity_golden_events() {
    let config = CacheConfig {
        rw_handling: RwHandling::Write,
        simulate_paging: true,
        fidelity: Fidelity::Open,
        ..CacheConfig::default()
    };
    let f1 = FileId(0);
    let f2 = FileId(1);
    let got = replay_events(&golden_trace(), &config);
    let want = vec![
        ReplayEvent::SizeHint {
            time_ms: 0,
            file: f1,
            size: 10_000,
        },
        ReplayEvent::SizeHint {
            time_ms: 0,
            file: f2,
            size: 0,
        },
        ReplayEvent::TruncateTo {
            time_ms: 0,
            file: f2,
            new_len: 0,
        },
        // o2's session: 6000 bytes total, billed at its close.
        ReplayEvent::Op {
            time_ms: 10,
            file: f2,
            offset: 0,
            len: 6_000,
            write: true,
        },
        // o1's session: 4000 + 1500 bytes across two runs.
        ReplayEvent::Op {
            time_ms: 20,
            file: f1,
            offset: 0,
            len: 5_500,
            write: true,
        },
        ReplayEvent::TruncateTo {
            time_ms: 30,
            file: f1,
            new_len: 2_000,
        },
        ReplayEvent::Op {
            time_ms: 30,
            file: f2,
            offset: 0,
            len: 6_000,
            write: false,
        },
        ReplayEvent::Delete {
            time_ms: 40,
            file: f2,
        },
        ReplayEvent::SizeHint {
            time_ms: 50,
            file: f1,
            size: 2_000,
        },
    ];
    assert_eq!(got, want);
}

/// Truncated-trace session reconstruction: a session whose `close`
/// falls beyond the end of the trace replays nothing at open fidelity
/// — its size hint still lands, but no transfer op is synthesized —
/// mirroring block fidelity, where the unbilled final run vanishes the
/// same way.
#[test]
fn open_fidelity_truncated_trace_drops_unclosed_session() {
    let mut b = TraceBuilder::new();
    let u = b.new_user_id();
    let f = b.new_file_id();
    let o = b.open(0, f, u, AccessMode::ReadOnly, 40_960, false);
    // Two completed runs inside the session...
    b.seek(10, o, 8_192, 16_384);
    b.seek(20, o, 24_576, 0);
    // ...but the trace ends before the close.
    let full = {
        let mut b2 = TraceBuilder::new();
        let u2 = b2.new_user_id();
        let f2 = b2.new_file_id();
        let o2 = b2.open(0, f2, u2, AccessMode::ReadOnly, 40_960, false);
        b2.seek(10, o2, 8_192, 16_384);
        b2.seek(20, o2, 24_576, 0);
        b2.close(30, o2, 4_096);
        b2.finish()
    };
    let truncated = b.finish();
    let config = CacheConfig {
        fidelity: Fidelity::Open,
        ..CacheConfig::default()
    };

    let events = replay_events(&truncated, &config);
    assert!(
        events
            .iter()
            .all(|e| !matches!(e, ReplayEvent::Op { .. } | ReplayEvent::Transfer { .. })),
        "unclosed session must not synthesize transfers: {events:?}"
    );

    // The same session with its close intact reconstructs the full
    // total: 8192 + 8192 from the seeks plus 4096 from the final run.
    let events = replay_events(&full, &config);
    assert!(events.iter().any(|e| matches!(
        e,
        ReplayEvent::Op {
            time_ms: 30,
            offset: 0,
            len: 20_480,
            write: false,
            ..
        }
    )));

    // Block fidelity agrees that the truncated session bills only the
    // seek-terminated runs (16384 bytes = 4 blocks), never the tail.
    let m = Simulator::run(&truncated, &CacheConfig::default());
    assert_eq!(m.logical_reads, 4);
}

/// The syscall expander bills runs at the same points as block
/// fidelity, one op per direction under `RwHandling::Both`.
#[test]
fn syscall_fidelity_golden_events() {
    let config = CacheConfig {
        rw_handling: RwHandling::Both,
        simulate_paging: false,
        fidelity: Fidelity::Syscall,
        ..CacheConfig::default()
    };
    let mut b = TraceBuilder::new();
    let u = b.new_user_id();
    let f = b.new_file_id();
    let o = b.open(0, f, u, AccessMode::ReadWrite, 10_000, false);
    b.seek(10, o, 4_000, 8_000);
    b.close(20, o, 9_500);
    let got = replay_events(&b.finish(), &config);
    let want = vec![
        ReplayEvent::SizeHint {
            time_ms: 0,
            file: f,
            size: 10_000,
        },
        ReplayEvent::Op {
            time_ms: 10,
            file: f,
            offset: 0,
            len: 4_000,
            write: false,
        },
        ReplayEvent::Op {
            time_ms: 10,
            file: f,
            offset: 0,
            len: 4_000,
            write: true,
        },
        ReplayEvent::Op {
            time_ms: 20,
            file: f,
            offset: 8_000,
            len: 1_500,
            write: false,
        },
        ReplayEvent::Op {
            time_ms: 20,
            file: f,
            offset: 8_000,
            len: 1_500,
            write: true,
        },
    ];
    assert_eq!(got, want);
}
