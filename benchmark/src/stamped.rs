//! `Stamped`: the benchmark's own [`Task`] wrapper, which makes a
//! round's end observable from outside the runtime.
//!
//! `NodeRuntime::finish()` returns a ~50 ms-quantised tail after the
//! last task retired (the quiesce handshake and thread joins), so a
//! round timed to `finish()` measures the tail, not the work. The
//! wrapper records the instant its inner task yields [`Op::Done`] into
//! benchmark-owned statics; a round is timed first submit → last such
//! instant, and a request's latency is that instant minus its due time.
//!
//! The wrapper also pads the migrated context to the size the paper
//! argues about: `{id, due_ns}` + 128 bytes + the inner context is
//! ≈ 170 B, i.e. the 1–2 Kbit architectural context of §2, where a
//! bare trace cursor is 24 B.

use em2_rt::{Op, Task, TaskRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Padding bytes in every stamped context.
pub const PAD_BYTES: usize = 128;
/// `id` + `due_ns` + padding.
pub const HEADER_BYTES: usize = 4 + 8 + PAD_BYTES;

/// Wire kind of `Stamped<TraceTask>`.
pub const KIND_TRACE: u32 = 0xB001;
/// Wire kind of `Stamped<KvRequest>`.
pub const KIND_KV: u32 = 0xB002;
/// Wire kind of `Stamped<Loader>`.
pub const KIND_LOADER: u32 = 0xB003;

/// Most tasks one round may stamp.
pub const SLOTS: usize = 1 << 17;

static CLOCK: OnceLock<Instant> = OnceLock::new();
/// Retirement instant minus due time, per task id (ns).
static LATENCY_NS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
/// Latest retirement instant seen this round (ns on [`now_ns`]'s clock).
static LAST_RETIRED_NS: AtomicU64 = AtomicU64::new(0);
/// Tasks retired this round.
static RETIRED: AtomicU64 = AtomicU64::new(0);

/// Nanoseconds since the process-wide benchmark clock started.
pub fn now_ns() -> u64 {
    CLOCK.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The [`Instant`] that [`now_ns`] reads `ns` at.
pub fn instant_at(ns: u64) -> Instant {
    *CLOCK.get_or_init(Instant::now) + std::time::Duration::from_nanos(ns)
}

/// Forget the previous round's stamps (the first `tasks` slots).
pub fn reset(tasks: usize) {
    for slot in &LATENCY_NS[..tasks.min(SLOTS)] {
        slot.store(0, Ordering::Relaxed);
    }
    LAST_RETIRED_NS.store(0, Ordering::Relaxed);
    RETIRED.store(0, Ordering::Relaxed);
}

/// Tasks retired since [`reset`].
pub fn retired() -> u64 {
    RETIRED.load(Ordering::Acquire)
}

/// Instant of the latest retirement since [`reset`].
pub fn last_retired_ns() -> u64 {
    LAST_RETIRED_NS.load(Ordering::Acquire)
}

/// Latencies (ns) of task ids `range`, ascending. Read it only after
/// the runtime that ran the tasks has been joined.
pub fn latencies_sorted(range: std::ops::Range<usize>) -> Vec<u64> {
    let mut v: Vec<u64> = LATENCY_NS[range]
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    v.sort_unstable();
    v
}

/// A task plus the benchmark's stamp.
pub struct Stamped<T> {
    kind: u32,
    id: u32,
    due_ns: u64,
    inner: T,
}

impl<T: Task> Stamped<T> {
    /// Wrap `inner` as task `id` of this round, due at `due_ns`.
    pub fn new(kind: u32, id: u32, due_ns: u64, inner: T) -> Self {
        assert!((id as usize) < SLOTS, "task id {id} beyond the stamp table");
        Stamped {
            kind,
            id,
            due_ns,
            inner,
        }
    }
}

impl<T: Task> Task for Stamped<T> {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        let op = self.inner.resume(reply);
        if op == Op::Done {
            let now = now_ns();
            // Relaxed: the reader joins the runtime's threads first.
            LATENCY_NS[self.id as usize].store(now.saturating_sub(self.due_ns), Ordering::Relaxed);
            // Release pairs with the Acquire loads in `retired` and
            // `last_retired_ns`, which a generator polls while the
            // runtime is still live.
            LAST_RETIRED_NS.fetch_max(now, Ordering::Release);
            RETIRED.fetch_add(1, Ordering::Release);
        }
        op
    }

    fn context_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.context_len() as usize);
        b.extend_from_slice(&self.id.to_le_bytes());
        b.extend_from_slice(&self.due_ns.to_le_bytes());
        b.extend_from_slice(&[0xA5; PAD_BYTES]);
        b.extend_from_slice(&self.inner.context_bytes());
        b
    }

    fn context_len(&self) -> u64 {
        HEADER_BYTES as u64 + self.inner.context_len()
    }

    fn wire_kind(&self) -> Option<u32> {
        Some(self.kind)
    }
}

/// Teach `registry` to rebuild `Stamped<T>` under `kind`, given how to
/// rebuild the inner task from its own context bytes.
pub fn register<T: Task + 'static>(
    registry: &mut TaskRegistry,
    kind: u32,
    build_inner: impl Fn(&[u8]) -> Result<T, String> + Send + Sync + 'static,
) {
    registry.register(kind, move |ctx| {
        if ctx.len() < HEADER_BYTES {
            return Err(format!("stamped context is {} bytes", ctx.len()));
        }
        let id = u32::from_le_bytes(ctx[0..4].try_into().expect("4 bytes"));
        let due_ns = u64::from_le_bytes(ctx[4..12].try_into().expect("8 bytes"));
        if id as usize >= SLOTS {
            return Err(format!("stamped id {id} beyond the stamp table"));
        }
        let inner = build_inner(&ctx[HEADER_BYTES..])?;
        Ok(Box::new(Stamped {
            kind,
            id,
            due_ns,
            inner,
        }) as Box<dyn Task>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::ThreadId;
    use em2_rt::TraceTask;
    use em2_trace::gen::micro;
    use std::sync::Arc;

    #[test]
    fn stamped_context_round_trips_and_resumes_identically() {
        let w = Arc::new(micro::uniform(2, 4, 30, 64, 0.3, 5));
        let mut reg = TaskRegistry::new();
        let w2 = Arc::clone(&w);
        register(&mut reg, KIND_TRACE, move |ctx| {
            TraceTask::from_context_bytes(Arc::clone(&w2), ctx)
        });

        let mut a = Stamped::new(
            KIND_TRACE,
            7,
            1234,
            TraceTask::new(Arc::clone(&w), ThreadId(1)),
        );
        for _ in 0..9 {
            let _ = a.resume(Some(3));
        }
        let ctx = a.context_bytes();
        assert_eq!(a.context_len(), ctx.len() as u64);
        assert_eq!(ctx.len(), HEADER_BYTES + 24, "≈170 B: the paper's 1–2 Kbit");
        assert_eq!(a.wire_kind(), Some(KIND_TRACE));

        let mut b = reg.build(KIND_TRACE, &ctx).expect("registered kind");
        assert_eq!(b.context_bytes(), ctx);
        assert_eq!(b.context_len(), ctx.len() as u64);
        loop {
            let (oa, ob) = (a.resume(Some(1)), b.resume(Some(1)));
            assert_eq!(oa, ob);
            if oa == Op::Done {
                break;
            }
        }
        // Truncated and unknown contexts are typed errors.
        assert!(reg.build(KIND_TRACE, &ctx[..HEADER_BYTES - 1]).is_err());
        assert!(reg.build(KIND_TRACE, &ctx[..HEADER_BYTES + 3]).is_err());
        assert!(reg.build(KIND_KV, &ctx).is_err());
    }

    #[test]
    fn done_stamps_latency_from_the_due_time() {
        // Ids near the top of the table: no other test stamps them.
        let id = (SLOTS - 1) as u32;
        let w = Arc::new(micro::private(1, 1, 1));
        let due = now_ns();
        let mut t = Stamped::new(KIND_TRACE, id, due, TraceTask::new(w, ThreadId(0)));
        let before = retired();
        while t.resume(Some(0)) != Op::Done {}
        assert!(retired() > before);
        assert!(last_retired_ns() >= due);
        let lat = latencies_sorted(SLOTS - 1..SLOTS)[0];
        assert!(lat <= now_ns() - due);
    }
}
