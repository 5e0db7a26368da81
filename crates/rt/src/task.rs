//! Migratable task continuations.
//!
//! A runtime task is a resumable program over shared-memory operations:
//! the shard executor calls [`Task::resume`] to obtain the next
//! operation, executes it (locally, by remote access, or by migrating
//! the task to the operation's home shard), and resumes the task with
//! the result. Everything the task needs to continue after a migration
//! must live in its own state — [`Task::context_bytes`] serializes that
//! state, and the runtime accounts its size as the migration payload
//! (the paper's 1–2 Kbit architectural context; a trace replay context
//! is ~24 bytes).
//!
//! The program *text* is not part of the context: like instruction
//! memory in the paper's hardware, a [`TraceTask`]'s workload lives in
//! an [`Arc`] shared by every shard, and only the cursor migrates.

use em2_model::{Addr, ThreadId, WordMap};
use em2_trace::Workload;
use std::sync::Arc;

/// One shared-memory operation yielded by a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load the word at an address; the task is resumed with
    /// `Some(value)`.
    Read(Addr),
    /// Store a word; the task is resumed with `None`.
    Write(Addr, u64),
    /// Arrive at global barrier `k`; the task is resumed once every
    /// participant has arrived.
    Barrier(usize),
    /// The task finished; the runtime retires it.
    Done,
}

/// A migratable continuation: sequential user logic multiplexed onto
/// shard threads by the runtime.
///
/// `resume` is called with the previous operation's result (`Some` for
/// a read's value, `None` otherwise — including the very first call)
/// and returns the next operation. Between two `resume` calls the task
/// may have been serialized, shipped to another shard, and restored:
/// implementations must not hide continuation state anywhere but
/// `self`.
pub trait Task: Send {
    /// Resume with the previous operation's result; yield the next.
    fn resume(&mut self, reply: Option<u64>) -> Op;

    /// Serialize the live continuation state — the bytes a migration
    /// ships. Used for context-size accounting (and as an honesty
    /// check that the state *is* serializable).
    fn context_bytes(&self) -> Vec<u8>;

    /// Size of the serialized context, in bytes. The runtime charges
    /// this on every migration and eviction — it is the hot accounting
    /// path, so override it whenever the size is known without
    /// serializing (the default materializes [`Task::context_bytes`]
    /// just to measure it and throws the allocation away). The
    /// override must equal `context_bytes().len()`; the wire encoder
    /// debug-asserts this, and `proptest_wire.rs` pins it for the
    /// shipped tasks.
    fn context_len(&self) -> u64 {
        self.context_bytes().len() as u64
    }

    /// Registry tag identifying this task type on the wire, or `None`
    /// (the default) for tasks that never cross a process boundary. A
    /// task can only migrate to a shard owned by *another process* if
    /// it returns `Some(kind)` and the destination's [`TaskRegistry`]
    /// has a builder registered under the same kind.
    fn wire_kind(&self) -> Option<u32> {
        None
    }
}

/// Rebuilds migrated-in task continuations: maps a wire kind tag to a
/// constructor taking the serialized context
/// ([`Task::context_bytes`]). Every process of a cluster registers the
/// same kinds; the program *text* (workload traces, request logic)
/// lives in the builder's captured environment — only the cursor-sized
/// context crosses the wire.
#[derive(Default)]
pub struct TaskRegistry {
    #[allow(clippy::type_complexity)]
    builders: WordMap<u32, Box<dyn Fn(&[u8]) -> Result<Box<dyn Task>, String> + Send + Sync>>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TaskRegistry::default()
    }

    /// Register a builder for `kind`. Panics on duplicate kinds — two
    /// task types sharing a tag is a wiring bug, not a runtime
    /// condition.
    pub fn register(
        &mut self,
        kind: u32,
        build: impl Fn(&[u8]) -> Result<Box<dyn Task>, String> + Send + Sync + 'static,
    ) {
        let prev = self.builders.insert(kind, Box::new(build));
        assert!(prev.is_none(), "task kind {kind} registered twice");
    }

    /// A registry that rebuilds [`TraceTask`]s against `workload`
    /// (the standard cluster replay configuration).
    pub fn for_workload(workload: Arc<Workload>) -> Self {
        let mut r = TaskRegistry::new();
        r.register(TraceTask::WIRE_KIND, move |ctx| {
            TraceTask::from_context_bytes(Arc::clone(&workload), ctx)
                .map(|t| Box::new(t) as Box<dyn Task>)
        });
        r
    }

    /// Rebuild a task from its wire kind and context bytes.
    pub fn build(&self, kind: u32, ctx: &[u8]) -> Result<Box<dyn Task>, crate::wire::WireError> {
        let b = self
            .builders
            .get(&kind)
            .ok_or(crate::wire::WireError::UnknownTaskKind(kind))?;
        b(ctx).map_err(|reason| crate::wire::WireError::BadTaskContext { kind, reason })
    }
}

/// Replays one thread of an [`em2_trace::Workload`] as a runtime task.
///
/// Reads feed an accumulator register (so loaded values are live state
/// carried across migrations); writes store a value derived from it.
/// Barrier records are honored with the engine's exact semantics: a
/// thread's `k`-th barrier arrival is global barrier `k`.
pub struct TraceTask {
    workload: Arc<Workload>,
    thread: usize,
    pos: usize,
    next_barrier: usize,
    /// The "register file": last-read accumulator, migrates with the
    /// task.
    acc: u64,
}

impl TraceTask {
    /// [`Task::wire_kind`] tag of trace-replay continuations.
    pub const WIRE_KIND: u32 = 1;

    /// A task replaying `workload`'s thread `thread`.
    pub fn new(workload: Arc<Workload>, thread: ThreadId) -> Self {
        assert!(thread.index() < workload.num_threads());
        TraceTask {
            workload,
            thread: thread.index(),
            pos: 0,
            next_barrier: 0,
            acc: 0,
        }
    }

    /// Rebuild a migrated-in continuation from its
    /// [`Task::context_bytes`] against a locally resident workload —
    /// the receiving half of a cross-process migration. Rejects
    /// malformed contexts (wrong length, out-of-range cursor) with a
    /// description instead of panicking.
    pub fn from_context_bytes(workload: Arc<Workload>, ctx: &[u8]) -> Result<Self, String> {
        let (thread, pos, next_barrier, acc) = (|| {
            let mut r = em2_model::bytes::Cursor::new(ctx);
            let fields = (
                r.u32()? as usize,
                r.u64()? as usize,
                r.u32()? as usize,
                r.u64()?,
            );
            r.finish()?;
            Ok::<_, em2_model::bytes::CodecError>(fields)
        })()
        .map_err(|e| format!("trace context: {e}"))?;
        let tr = workload
            .threads
            .get(thread)
            .ok_or_else(|| format!("thread {thread} not in workload"))?;
        if pos > tr.records.len() || next_barrier > tr.barriers.len() {
            return Err(format!(
                "cursor ({pos}, {next_barrier}) beyond thread {thread}'s trace"
            ));
        }
        Ok(TraceTask {
            workload,
            thread,
            pos,
            next_barrier,
            acc,
        })
    }
}

impl Task for TraceTask {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        if let Some(v) = reply {
            self.acc = self.acc.wrapping_add(v);
        }
        let tr = &self.workload.threads[self.thread];
        // Barriers recorded at this cursor position fire before the
        // access at it — one per resume, so consecutive barriers at
        // the same position each synchronize.
        if self.next_barrier < tr.barriers.len() && tr.barriers[self.next_barrier] == self.pos {
            self.next_barrier += 1;
            return Op::Barrier(self.next_barrier - 1);
        }
        if self.pos >= tr.records.len() {
            return Op::Done;
        }
        let r = tr.records[self.pos];
        self.pos += 1;
        match r.kind {
            em2_model::AccessKind::Read => Op::Read(r.addr),
            em2_model::AccessKind::Write => Op::Write(r.addr, self.acc ^ self.pos as u64),
        }
    }

    fn context_bytes(&self) -> Vec<u8> {
        // thread (u32) + pos (u64) + next_barrier (u32) + acc (u64):
        // the full continuation state, 24 bytes.
        let mut b = Vec::with_capacity(24);
        b.extend_from_slice(&(self.thread as u32).to_le_bytes());
        b.extend_from_slice(&(self.pos as u64).to_le_bytes());
        b.extend_from_slice(&(self.next_barrier as u32).to_le_bytes());
        b.extend_from_slice(&self.acc.to_le_bytes());
        b
    }

    fn context_len(&self) -> u64 {
        24
    }

    fn wire_kind(&self) -> Option<u32> {
        Some(TraceTask::WIRE_KIND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_trace::gen::micro;

    #[test]
    fn trace_task_replays_every_record_then_finishes() {
        let w = Arc::new(micro::uniform(2, 4, 50, 64, 0.3, 5));
        let expected = w.threads[1].records.clone();
        let mut t = TraceTask::new(Arc::clone(&w), ThreadId(1));
        let mut seen = 0usize;
        loop {
            match t.resume(Some(3)) {
                Op::Read(a) => {
                    assert_eq!(a, expected[seen].addr);
                    seen += 1;
                }
                Op::Write(a, _) => {
                    assert_eq!(a, expected[seen].addr);
                    seen += 1;
                }
                Op::Barrier(_) => {}
                Op::Done => break,
            }
        }
        assert_eq!(seen, expected.len());
        // Done is absorbing.
        assert_eq!(t.resume(None), Op::Done);
    }

    #[test]
    fn barriers_fire_in_thread_ordinal_order_before_the_access() {
        let w = Arc::new(micro::producer_consumer(2, 4, 8, 3));
        let tid = ThreadId(0);
        let barriers = w.threads[0].barriers.clone();
        assert!(!barriers.is_empty(), "producer/consumer has barriers");
        let mut t = TraceTask::new(Arc::clone(&w), tid);
        let mut accesses = 0usize;
        let mut barrier_seen = Vec::new();
        loop {
            match t.resume(None) {
                Op::Barrier(k) => {
                    assert_eq!(barriers[k], accesses, "barrier fires at its cursor");
                    barrier_seen.push(k);
                }
                Op::Done => break,
                _ => accesses += 1,
            }
        }
        assert_eq!(barrier_seen, (0..barriers.len()).collect::<Vec<_>>());
    }

    #[test]
    fn context_is_small_and_position_dependent() {
        let w = Arc::new(micro::pingpong(1, 4, 10));
        let mut t = TraceTask::new(Arc::clone(&w), ThreadId(0));
        let c0 = t.context_bytes();
        assert_eq!(c0.len(), 24, "trace continuation is 24 bytes");
        let _ = t.resume(None);
        assert_ne!(t.context_bytes(), c0, "cursor is part of the context");
    }

    #[test]
    fn context_round_trips_into_an_identical_continuation() {
        let w = Arc::new(micro::uniform(2, 4, 30, 64, 0.3, 5));
        let mut a = TraceTask::new(Arc::clone(&w), ThreadId(1));
        for _ in 0..7 {
            let _ = a.resume(Some(3));
        }
        let mut b = TraceTask::from_context_bytes(Arc::clone(&w), &a.context_bytes())
            .expect("valid context");
        // The rebuilt task replays the identical remainder.
        loop {
            let (oa, ob) = (a.resume(Some(1)), b.resume(Some(1)));
            assert_eq!(oa, ob);
            if oa == Op::Done {
                break;
            }
        }
    }

    #[test]
    fn registry_rebuilds_and_rejects() {
        let w = Arc::new(micro::pingpong(1, 4, 10));
        let reg = TaskRegistry::for_workload(Arc::clone(&w));
        let t = TraceTask::new(Arc::clone(&w), ThreadId(0));
        assert_eq!(t.wire_kind(), Some(TraceTask::WIRE_KIND));
        assert_eq!(t.context_len(), t.context_bytes().len() as u64);
        let rebuilt = reg
            .build(TraceTask::WIRE_KIND, &t.context_bytes())
            .expect("registered kind");
        assert_eq!(rebuilt.context_bytes(), t.context_bytes());
        // Unknown kind and malformed context are typed errors.
        assert!(reg.build(999, &t.context_bytes()).is_err());
        assert!(reg.build(TraceTask::WIRE_KIND, &[1, 2, 3]).is_err());
        // Out-of-range cursor rejected.
        let mut bad = t.context_bytes();
        bad[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(reg.build(TraceTask::WIRE_KIND, &bad).is_err());
    }
}
