//! The kernel trace package: hooks that record Table II events.
//!
//! The tracer sits at the system call layer of [`crate::Fs`], exactly
//! where the paper's instrumented 4.2 BSD kernel hooks sat: it sees
//! `open`/`create`, `close`, `seek`, `unlink`, `truncate`, and `execve`,
//! and deliberately does *not* see `read` or `write`.

use fstrace::{AccessMode, FileId, OpenId, ReorderBuffer, Trace, TraceEvent, TraceRecord, UserId};

/// Collects trace records from file system activity.
///
/// Disabled tracers drop records, so an untraced file system pays almost
/// nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    records: Vec<TraceRecord>,
    next_open_id: u64,
}

impl Tracer {
    /// Creates a tracer; `enabled` controls whether records are kept.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            records: Vec::new(),
            next_open_id: 0,
        }
    }

    /// `true` if records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; collected records and the open-id
    /// counter are preserved.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Allocates the next open id (assigned even when disabled, so
    /// enabling mid-run never reuses ids).
    pub fn next_open_id(&mut self) -> OpenId {
        let id = OpenId(self.next_open_id);
        self.next_open_id += 1;
        id
    }

    fn push(&mut self, time_ms: u64, event: TraceEvent) {
        if self.enabled {
            self.records.push(TraceRecord::new(time_ms, event));
        }
    }

    /// Records an `open`/`create` event.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        time_ms: u64,
        open_id: OpenId,
        file_id: FileId,
        user_id: UserId,
        mode: AccessMode,
        size: u64,
        created: bool,
    ) {
        self.push(
            time_ms,
            TraceEvent::Open {
                open_id,
                file_id,
                user_id,
                mode,
                size,
                created,
            },
        );
    }

    /// Records a `close` event.
    pub fn close(&mut self, time_ms: u64, open_id: OpenId, final_pos: u64) {
        self.push(time_ms, TraceEvent::Close { open_id, final_pos });
    }

    /// Records a `seek` event.
    pub fn seek(&mut self, time_ms: u64, open_id: OpenId, old_pos: u64, new_pos: u64) {
        self.push(
            time_ms,
            TraceEvent::Seek {
                open_id,
                old_pos,
                new_pos,
            },
        );
    }

    /// Records an `unlink` event.
    pub fn unlink(&mut self, time_ms: u64, file_id: FileId, user_id: UserId) {
        self.push(time_ms, TraceEvent::Unlink { file_id, user_id });
    }

    /// Records a `truncate` event.
    pub fn truncate(&mut self, time_ms: u64, file_id: FileId, new_len: u64, user_id: UserId) {
        self.push(
            time_ms,
            TraceEvent::Truncate {
                file_id,
                new_len,
                user_id,
            },
        );
    }

    /// Records an `execve` event.
    pub fn execve(&mut self, time_ms: u64, file_id: FileId, user_id: UserId, size: u64) {
        self.push(
            time_ms,
            TraceEvent::Execve {
                file_id,
                user_id,
                size,
            },
        );
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Takes the collected records as a [`Trace`], leaving the tracer
    /// empty (open id assignment continues from where it was).
    pub fn take(&mut self) -> Trace {
        Trace::from_records(std::mem::take(&mut self.records))
    }

    /// Drains the collected records straight into a consumer-side
    /// [`ReorderBuffer`], keeping the tracer's allocation for the next
    /// batch.
    ///
    /// This is the provider→consumer hop of the tracing pipeline: the
    /// tracer is the per-machine *provider* ring (records accumulate
    /// here during one scheduling step, so its occupancy is bounded by
    /// a single step's output), and the reorder buffer is the
    /// consumer that re-sorts the bounded skew before records leave
    /// the machine.
    pub fn drain_into(&mut self, buf: &mut ReorderBuffer) {
        for rec in self.records.drain(..) {
            buf.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_drops_records() {
        let mut t = Tracer::new(false);
        let o = t.next_open_id();
        t.close(0, o, 100);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn open_ids_are_unique_across_enable_states() {
        let mut t = Tracer::new(false);
        let a = t.next_open_id();
        let b = t.next_open_id();
        assert_ne!(a, b);
    }

    #[test]
    fn take_empties_but_keeps_id_counter() {
        let mut t = Tracer::new(true);
        let o = t.next_open_id();
        t.close(0, o, 1);
        let trace = t.take();
        assert_eq!(trace.len(), 1);
        assert!(t.is_empty());
        assert_ne!(t.next_open_id(), o);
    }
}
