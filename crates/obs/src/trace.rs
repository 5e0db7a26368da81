//! Span-style task-lifecycle tracing: fixed-size events in bounded
//! per-shard ring buffers.
//!
//! A task's life is reconstructible from the rings: `arrive` on its
//! first shard, a `migrate-out` on every hop (naming the destination
//! shard and the shipped context bytes — the decision scheme's verdict
//! *is* the event kind: a `Migrate` verdict emits `migrate-out`, a
//! `RemoteAccess` verdict emits `remote-read`/`remote-write`),
//! `barrier-park`/`stall`/`retry` for every wait, and a `retire`
//! carrying the end-to-end latency. Events are 40 bytes, carry no heap
//! data, and the ring drops its oldest event on overflow (counting the
//! drops), so tracing memory is strictly bounded at
//! `ring_capacity × shards × 40` bytes per node.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happened. The two numeric payloads `a`/`b` of [`Event`] are
/// interpreted per kind (see each variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A task arrived at this shard. `a` = 1 if native (first
    /// arrival on its home), 0 if a migrated-in guest.
    Arrive,
    /// The decision scheme ruled `Migrate`: the task's continuation
    /// left this shard. `a` = destination shard, `b` = serialized
    /// context bytes shipped.
    MigrateOut,
    /// The decision scheme ruled `RemoteAccess` for a read. `a` = home
    /// shard serving the word, `b` = address.
    RemoteRead,
    /// The decision scheme ruled `RemoteAccess` for a write. `a` =
    /// home shard, `b` = address.
    RemoteWrite,
    /// The task parked at a barrier. `a` = barrier index.
    BarrierPark,
    /// A barrier released this shard's parked tasks. `a` = barrier
    /// index, `b` = tasks released.
    BarrierRelease,
    /// An arriving guest found the pool full and stalled. `a` = guest
    /// thread id.
    Stall,
    /// A stalled arrival was retried after an eviction freed a slot.
    /// `a` = retried count.
    Retry,
    /// A guest context was admitted to the pool. `a` = guest thread
    /// id, `b` = pool occupancy after.
    GuestAdmit,
    /// A guest context was evicted to make room. `a` = evicted thread
    /// id, `b` = pool occupancy after.
    GuestEvict,
    /// The task finished. `a` = end-to-end latency in ns.
    Retire,
    /// (node ring) A peer connection came up. `a` = peer node id.
    PeerUp,
    /// (node ring) A peer edge failed or closed abnormally. `a` = peer
    /// node id.
    PeerDown,
    /// (node ring) The node recorded a cluster failure; the flight
    /// recorder renders the error detail alongside. `a` = peer node id
    /// the failure names (or `u64::MAX` when none).
    Fail,
    /// (node ring) The coordinator opened a live shard handoff. `a` =
    /// shard, `b` = destination node.
    HandoffPrepare,
    /// (node ring) The source node froze the shard: owner flipped,
    /// mailbox drained, core exported. `a` = shard, `b` = frozen-state
    /// bytes shipped.
    HandoffFreeze,
    /// (node ring) The frozen shard state was installed on the
    /// destination. `a` = shard, `b` = frames it buffered while the
    /// state was in flight, now replayed.
    HandoffTransfer,
    /// (node ring) The coordinator committed the handoff: directory
    /// epoch bumped, new ownership broadcast. `a` = shard, `b` = new
    /// epoch.
    HandoffCommit,
    /// (node ring) A frame this node sent came back epoch-fenced (its
    /// receiver no longer owned the shard) and is re-routed or parked
    /// here. `a` = shard, `b` = re-routes so far.
    HandoffBounce,
    /// One hop of a task's migration journey, replayed into the ring
    /// by the shard that admitted the task with its hop log overflowed
    /// or, for a shorter journey, by the one that retired it (the
    /// envelope carries the bounded log across nodes until then; see
    /// `em2_rt::Journey`). `a` = packed
    /// `node << 32 | shard` the hop landed on, `b` = packed
    /// `cause << 32 | epoch` (cause codes per `em2_rt::HopCause`).
    JourneyHop,
}

/// One row per kind, in declaration order: `(kind, JSONL name, JSONL
/// names of the two payload words)`. A kind's code is its row index
/// + 1 (0 is the ring's "never written" sentinel).
const KINDS: [(EventKind, &str, (&str, &str)); 20] = {
    use EventKind::*;
    [
        (Arrive, "arrive", ("native", "b")),
        (MigrateOut, "migrate-out", ("dest", "ctx_bytes")),
        (RemoteRead, "remote-read", ("home", "addr")),
        (RemoteWrite, "remote-write", ("home", "addr")),
        (BarrierPark, "barrier-park", ("barrier", "b")),
        (BarrierRelease, "barrier-release", ("barrier", "released")),
        (Stall, "stall", ("guest", "b")),
        (Retry, "retry", ("retried", "b")),
        (GuestAdmit, "guest-admit", ("guest", "occupancy")),
        (GuestEvict, "guest-evict", ("guest", "occupancy")),
        (Retire, "retire", ("latency_ns", "b")),
        (PeerUp, "peer-up", ("peer", "b")),
        (PeerDown, "peer-down", ("peer", "b")),
        (Fail, "fail", ("peer", "b")),
        (HandoffPrepare, "handoff-prepare", ("shard", "dest")),
        (HandoffFreeze, "handoff-freeze", ("shard", "state_bytes")),
        (HandoffTransfer, "handoff-transfer", ("shard", "replayed")),
        (HandoffCommit, "handoff-commit", ("shard", "epoch")),
        (HandoffBounce, "handoff-bounce", ("shard", "bounces")),
        (JourneyHop, "journey-hop", ("at", "cause_epoch")),
    ]
};

impl EventKind {
    /// Stable short name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        KINDS[self as usize].1
    }

    /// Stable numeric code (1-based; 0 is the ring's "never written"
    /// sentinel).
    pub fn code(self) -> u64 {
        self as u64 + 1
    }

    /// Inverse of [`code`](EventKind::code); `None` for the sentinel
    /// and anything unrecognized (a torn concurrent read).
    pub fn from_code(code: u64) -> Option<EventKind> {
        let row = usize::try_from(code).ok()?.checked_sub(1)?;
        KINDS.get(row).map(|r| r.0)
    }

    /// Names of the two payload fields in the JSONL rendering.
    pub fn payload_names(self) -> (&'static str, &'static str) {
        KINDS[self as usize].2
    }
}

/// One trace event. The shard is implicit in which ring holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the owning registry's epoch (runtime start).
    pub ts_ns: u64,
    /// The task (thread) id the event belongs to; 0 when not
    /// task-scoped (barrier releases, peer events).
    pub task: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload (meaning per [`EventKind`]).
    pub a: u64,
    /// Second payload (meaning per [`EventKind`]).
    pub b: u64,
}

/// One ring slot: every field its own relaxed atomic, so pushes are
/// plain stores and a concurrent snapshot is race-free (per the memory
/// model) even while the owner keeps writing. `kind` stores
/// [`EventKind::code`] (0 = never written).
#[derive(Debug)]
struct Slot {
    ts_ns: AtomicU64,
    task: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    const fn empty() -> Self {
        Slot {
            ts_ns: AtomicU64::new(0),
            task: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A bounded, lock-free ring of [`Event`]s: push overwrites the oldest
/// slot on overflow, so memory stays fixed while the *latest* history —
/// the part a post-mortem needs — is always intact.
///
/// This is a record path, not a queue: `push` is one relaxed
/// `fetch_add` (slot reservation) plus five relaxed stores — no lock,
/// no branch on occupancy. In steady state each ring has a single
/// writer (the owning shard core / node thread), so a reservation is
/// never contended; concurrent writers (the node ring during a failure
/// fan-out) reserve distinct slots and stay race-free. A snapshot taken
/// while a push is mid-flight may observe a *torn* event (fields from
/// two generations of the same slot) — acceptable for telemetry, and
/// bounded to at most the few slots written during the read.
#[derive(Debug)]
pub struct Ring {
    cap: usize,
    /// Total events ever pushed; slot `i % cap` holds push `i`.
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    /// An empty ring holding at least `cap` events (`cap` rounded up
    /// to a power of two, minimum 1): slot selection on the push path
    /// is then a mask instead of a `%` — an integer division per
    /// event is real money when the runtime pushes one per verdict.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        Ring {
            cap,
            cursor: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
        }
    }

    /// Append an event, overwriting the oldest when full. Safe for
    /// concurrent writers: the `fetch_add` reserves distinct slots.
    pub fn push(&self, ev: Event) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize & (self.cap - 1);
        self.write_slot(i, ev);
    }

    /// [`push`](Ring::push) for rings with a single writer (the shard
    /// rings): the cursor advance is a plain load+store instead of a
    /// locked RMW. Concurrent *readers* stay race-free either way.
    #[inline]
    pub fn push_single_writer(&self, ev: Event) {
        let n = self.cursor.load(Ordering::Relaxed);
        self.cursor.store(n.wrapping_add(1), Ordering::Relaxed);
        self.write_slot(n as usize & (self.cap - 1), ev);
    }

    #[inline]
    fn write_slot(&self, i: usize, ev: Event) {
        let s = &self.slots[i];
        s.ts_ns.store(ev.ts_ns, Ordering::Relaxed);
        s.task.store(ev.task, Ordering::Relaxed);
        s.a.store(ev.a, Ordering::Relaxed);
        s.b.store(ev.b, Ordering::Relaxed);
        s.kind.store(ev.kind.code(), Ordering::Relaxed);
    }

    /// Copy out the events currently held, oldest first. Slots whose
    /// kind fails to decode (a torn read of a slot being overwritten
    /// right now) are skipped.
    pub fn events(&self) -> Vec<Event> {
        let n = self.cursor.load(Ordering::Relaxed);
        let held = n.min(self.cap as u64);
        let mut out = Vec::with_capacity(held as usize);
        for j in (n - held)..n {
            let s = &self.slots[j as usize & (self.cap - 1)];
            let Some(kind) = EventKind::from_code(s.kind.load(Ordering::Relaxed)) else {
                continue;
            };
            out.push(Event {
                ts_ns: s.ts_ns.load(Ordering::Relaxed),
                task: s.task.load(Ordering::Relaxed),
                kind,
                a: s.a.load(Ordering::Relaxed),
                b: s.b.load(Ordering::Relaxed),
            });
        }
        out
    }

    /// How many events were overwritten to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.cursor
            .load(Ordering::Relaxed)
            .saturating_sub(self.cap as u64)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.cap as u64) as usize
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            task: 7,
            kind: EventKind::Retire,
            a: ts,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let r = Ring::new(4);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let kept: Vec<u64> = r.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn every_kind_round_trips_through_its_code() {
        let kinds = [
            EventKind::Arrive,
            EventKind::MigrateOut,
            EventKind::RemoteRead,
            EventKind::RemoteWrite,
            EventKind::BarrierPark,
            EventKind::BarrierRelease,
            EventKind::Stall,
            EventKind::Retry,
            EventKind::GuestAdmit,
            EventKind::GuestEvict,
            EventKind::Retire,
            EventKind::PeerUp,
            EventKind::PeerDown,
            EventKind::Fail,
            EventKind::HandoffPrepare,
            EventKind::HandoffFreeze,
            EventKind::HandoffTransfer,
            EventKind::HandoffCommit,
            EventKind::HandoffBounce,
            EventKind::JourneyHop,
        ];
        for k in kinds {
            assert_eq!(EventKind::from_code(k.code()), Some(k));
        }
        assert_eq!(EventKind::from_code(0), None, "0 is the empty sentinel");
    }

    #[test]
    fn table_rows_sit_at_their_kinds_code() {
        for (i, &(kind, name, _)) in KINDS.iter().enumerate() {
            let code = i as u64 + 1;
            assert_eq!(kind.code(), code, "{name}: row out of declaration order");
            assert_eq!(EventKind::from_code(code), Some(kind));
            assert_eq!(kind.name(), name);
        }
        assert_eq!(EventKind::from_code(KINDS.len() as u64 + 1), None);
    }

    #[test]
    fn every_kind_has_a_distinct_name() {
        let kinds = [
            EventKind::Arrive,
            EventKind::MigrateOut,
            EventKind::RemoteRead,
            EventKind::RemoteWrite,
            EventKind::BarrierPark,
            EventKind::BarrierRelease,
            EventKind::Stall,
            EventKind::Retry,
            EventKind::GuestAdmit,
            EventKind::GuestEvict,
            EventKind::Retire,
            EventKind::PeerUp,
            EventKind::PeerDown,
            EventKind::Fail,
            EventKind::HandoffPrepare,
            EventKind::HandoffFreeze,
            EventKind::HandoffTransfer,
            EventKind::HandoffCommit,
            EventKind::HandoffBounce,
            EventKind::JourneyHop,
        ];
        let names: std::collections::HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
