//! File lifetimes: creation to deletion or complete overwrite (Figure 4).
//!
//! Following the paper, a "new file" is one that did not exist before or
//! was truncated to zero length on open, and its data's lifetime ends
//! when the file is deleted (`unlink`) or completely overwritten
//! (recreated with truncation, or truncated to zero). Files still alive
//! at the end of the trace are censored and excluded, just as the
//! paper's trace-bounded measurement necessarily was.

use fstrace::{FastMap, FileId, OpenSession, TraceEvent, TraceRecord};
use simstat::Distribution;

/// Why a file's data died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathCause {
    /// The file was deleted with `unlink`.
    Deleted,
    /// The file's data was completely overwritten (truncate to zero or
    /// recreate with truncation).
    Overwritten,
}

/// One completed lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeEvent {
    /// The file.
    pub file_id: FileId,
    /// Creation time (ms).
    pub born_ms: u64,
    /// Death time (ms).
    pub died_ms: u64,
    /// Bytes written to the file during its life (write sessions billed
    /// at close).
    pub bytes_written: u64,
    /// How the data died.
    pub cause: DeathCause,
}

impl LifetimeEvent {
    /// Lifetime in milliseconds.
    pub fn lifetime_ms(&self) -> u64 {
        self.died_ms.saturating_sub(self.born_ms)
    }
}

/// Figure 4: the distribution of new-file lifetimes, from the trace's
/// creations and deaths, with write bytes billed to the live file at
/// each `close`.
#[derive(Debug, Clone, Default)]
pub struct LifetimeAnalysis {
    /// Every completed lifetime, in death order.
    pub events: Vec<LifetimeEvent>,
    /// Lifetimes in ms weighted by file count (Figure 4a).
    pub by_files: Distribution,
    /// Lifetimes in ms weighted by bytes written (Figure 4b).
    pub by_bytes: Distribution,
    /// New files still alive when the trace ended (censored).
    pub censored: u64,
}

struct Birth {
    born_ms: u64,
    bytes: u64,
}

impl LifetimeAnalysis {
    fn finish(&mut self, file_id: FileId, b: Birth, died_ms: u64, cause: DeathCause) {
        let ev = LifetimeEvent {
            file_id,
            born_ms: b.born_ms,
            died_ms,
            bytes_written: b.bytes,
            cause,
        };
        self.by_files.add(ev.lifetime_ms(), 1);
        self.by_bytes.add(ev.lifetime_ms(), ev.bytes_written);
        self.events.push(ev);
    }

    /// Fraction of new files dead within `secs` seconds (Figure 4a).
    pub fn fraction_of_files_le_secs(&mut self, secs: f64) -> f64 {
        self.by_files.fraction_le((secs * 1000.0) as u64)
    }

    /// Fraction of new-file bytes dead within `secs` seconds (Figure 4b).
    pub fn fraction_of_bytes_le_secs(&mut self, secs: f64) -> f64 {
        self.by_bytes.fraction_le((secs * 1000.0) as u64)
    }

    /// Fraction of lifetimes inside `[lo, hi]` seconds — used to spot
    /// the 3-minute network-daemon concentration (179–181 s).
    pub fn fraction_of_files_between_secs(&mut self, lo: f64, hi: f64) -> f64 {
        self.by_files.fraction_le((hi * 1000.0) as u64)
            - self.by_files.fraction_lt((lo * 1000.0) as u64)
    }
}

/// Builds [`LifetimeAnalysis`]: births and deaths come from the record
/// stream, and write bytes from each session the moment it closes.
///
/// Memory is O(new files currently alive), never O(records).
#[derive(Default)]
pub(crate) struct LifetimeBuilder {
    alive: FastMap<FileId, Birth>,
    out: LifetimeAnalysis,
}

impl LifetimeBuilder {
    /// Feeds one record: a creation, deletion or truncation to zero
    /// starts or ends a lifetime.
    pub(crate) fn observe(&mut self, rec: &TraceRecord) {
        let now = rec.time.as_ms();
        match rec.event {
            TraceEvent::Open {
                file_id,
                created: true,
                ..
            } => {
                if let Some(b) = self.alive.remove(&file_id) {
                    self.out.finish(file_id, b, now, DeathCause::Overwritten);
                }
                self.alive.insert(
                    file_id,
                    Birth {
                        born_ms: now,
                        bytes: 0,
                    },
                );
            }
            TraceEvent::Unlink { file_id, .. } => {
                if let Some(b) = self.alive.remove(&file_id) {
                    self.out.finish(file_id, b, now, DeathCause::Deleted);
                }
            }
            TraceEvent::Truncate {
                file_id,
                new_len: 0,
                ..
            } => {
                if let Some(b) = self.alive.remove(&file_id) {
                    self.out.finish(file_id, b, now, DeathCause::Overwritten);
                    // Truncation to zero is itself a (re)creation.
                    self.alive.insert(
                        file_id,
                        Birth {
                            born_ms: now,
                            bytes: 0,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    /// Feeds a session completed by the record just observed.
    pub(crate) fn on_session(&mut self, s: &OpenSession) {
        // Bytes written per session, billed at close.
        if s.mode.can_write() {
            if let Some(b) = self.alive.get_mut(&s.file_id) {
                b.bytes += s.bytes_transferred();
            }
        }
    }

    /// Produces the analysis; files still alive are censored.
    pub(crate) fn finish(mut self) -> LifetimeAnalysis {
        self.out.censored = self.alive.len() as u64;
        self.out.by_files.prepare();
        self.out.by_bytes.prepare();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_analyzers;
    use fstrace::{AccessMode, Trace, TraceBuilder};

    fn lifetimes(trace: &Trace) -> LifetimeAnalysis {
        run_analyzers(trace.records(), &[]).lifetimes
    }

    /// Creates a file at `t0` writing `n` bytes, deletes it at `t1`.
    fn temp_file(b: &mut TraceBuilder, u: fstrace::UserId, t0: u64, t1: u64, n: u64) {
        let f = b.new_file_id();
        let o = b.open(t0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(t0 + 100, o, n);
        b.unlink(t1, f, u);
    }

    #[test]
    fn deletion_lifetime() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        temp_file(&mut b, u, 1_000, 31_000, 5_000);
        let a = lifetimes(&b.finish());
        assert_eq!(a.events.len(), 1);
        let e = a.events[0];
        assert_eq!(e.lifetime_ms(), 30_000);
        assert_eq!(e.bytes_written, 5_000);
        assert_eq!(e.cause, DeathCause::Deleted);
        assert_eq!(a.censored, 0);
    }

    #[test]
    fn overwrite_by_recreation() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(50, o, 100);
        // Recreate (truncate on open) 180 s later: daemon-style rewrite.
        let o = b.open(180_000, f, u, AccessMode::WriteOnly, 0, true);
        b.close(180_050, o, 100);
        let mut a = lifetimes(&b.finish());
        assert_eq!(a.events.len(), 1);
        assert_eq!(a.events[0].cause, DeathCause::Overwritten);
        assert_eq!(a.events[0].lifetime_ms(), 180_000);
        assert_eq!(a.censored, 1); // Second generation still alive.
        assert!((a.fraction_of_files_between_secs(179.0, 181.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncate_to_zero_is_death_and_rebirth() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(10, o, 100);
        b.truncate(5_000, f, 0, u);
        b.unlink(9_000, f, u);
        let a = lifetimes(&b.finish());
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events[0].cause, DeathCause::Overwritten);
        assert_eq!(a.events[0].lifetime_ms(), 5_000);
        assert_eq!(a.events[1].cause, DeathCause::Deleted);
        assert_eq!(a.events[1].lifetime_ms(), 4_000);
    }

    #[test]
    fn partial_truncate_is_not_death() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(10, o, 100);
        b.truncate(5_000, f, 50, u);
        let a = lifetimes(&b.finish());
        assert!(a.events.is_empty());
        assert_eq!(a.censored, 1);
    }

    #[test]
    fn byte_weighting() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        temp_file(&mut b, u, 0, 10_000, 1_000); // 10 s life, 1 kB.
        temp_file(&mut b, u, 0, 600_000, 9_000); // 600 s life, 9 kB.
        let mut a = lifetimes(&b.finish());
        assert!((a.fraction_of_files_le_secs(60.0) - 0.5).abs() < 1e-12);
        assert!((a.fraction_of_bytes_le_secs(60.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn preexisting_files_are_not_new() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::ReadOnly, 100, false);
        b.close(10, o, 100);
        b.unlink(50_000, f, u);
        let a = lifetimes(&b.finish());
        // Deleting a file that predates the trace yields no lifetime.
        assert!(a.events.is_empty());
        assert_eq!(a.censored, 0);
    }

    #[test]
    fn append_bytes_count_toward_new_file() {
        let mut b = TraceBuilder::new();
        let u = b.new_user_id();
        let f = b.new_file_id();
        let o = b.open(0, f, u, AccessMode::WriteOnly, 0, true);
        b.close(10, o, 100);
        // A later append session adds to the same new file's bytes.
        let o = b.open(1_000, f, u, AccessMode::ReadWrite, 100, false);
        b.seek(1_001, o, 0, 100);
        b.close(1_010, o, 150);
        b.unlink(2_000, f, u);
        let a = lifetimes(&b.finish());
        assert_eq!(a.events[0].bytes_written, 150); // 100 + 50 appended.
    }
}
