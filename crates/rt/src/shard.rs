//! The shard state machine: one heap partition, poll-able by any
//! worker.
//!
//! Each shard is a **state machine**, not a thread: a word-granular
//! heap partition, a mailbox (`crate::mpsc`: one lock around the queue
//! and the shard's scheduling flag, so remote requests are serviced in
//! arrival order — the paper's in-order home-core servicing — and a
//! send knows whether it must schedule the shard), and the per-core
//! context file reused from the simulator
//! ([`em2_core::context::ContextPool`]): native contexts
//! always admit, guest slots are bounded, and an arriving guest that
//! finds them full evicts a resident evictable guest back to *its*
//! native shard — the paper's §2 deadlock-avoidance protocol, executed
//! for real. Which OS thread polls a shard is the executor's business
//! (`exec.rs`): `W` workers multiplex `S ≫ W` shards.
//!
//! A task runs on its resident shard until it blocks: a non-local
//! access consults the **envelope-carried** [`DecisionScheme`] and
//! either ships the serialized continuation to the home shard's
//! mailbox (**migration**) or sends a word-granular request and parks
//! pinned until the reply returns (**remote access**). Local accesses
//! execute inline, bounded by a scheduling quantum so co-resident
//! contexts round-robin.
//!
//! **No global locks on the hot path.** Decision-scheme state lives in
//! the envelope (every shipped scheme keys its tables per thread, so
//! carrying each thread's instance with its task is exact — see
//! DESIGN.md §8); the run-length histogram is a per-shard
//! [`Histogram`] merged deterministically at quiesce; a barrier is one
//! released flag here and an arrival count in the run ledger behind the
//! node link. Counter equivalence with the simulator (DESIGN.md
//! §7) rests on one invariant: every per-thread sequence of `decide` /
//! `observe_run` / run-monitor calls is issued in that thread's
//! program order, exactly as the simulator issues it — shard
//! interleaving only permutes *across* threads.

use crate::exec::Sched;
use crate::mpsc::MpscQueue;
use crate::runtime::NodeLink;
use crate::task::{Op, Task};
use crate::wire::{Encode, EnvelopeForm, Head, WireEnvelope, WireMsg, WireOp, Writer};
use em2_core::context::{Admission, ContextPool, GuestState};
use em2_core::decision::{Decision, DecisionCtx, DecisionScheme};
use em2_core::stats::FlowCounts;
use em2_model::{AccessKind, Addr, CoreId, CostModel, Histogram, ThreadId, WordMap};
use em2_obs::{EventKind, ShardObs, SingleWriterCounter};
use em2_placement::Placement;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Messages drained from a mailbox per poll (the drain-k batch bounds
/// how long one poll can monopolize a worker).
pub(crate) const DRAIN_K: usize = 128;

/// Task quanta one poll may execute before yielding the worker to
/// other shards (fairness across co-scheduled shards).
const POLL_TASK_BUDGET: usize = 4;

/// A task in flight or at rest: the continuation plus the runtime
/// bookkeeping that travels with it.
pub(crate) struct Envelope {
    pub thread: ThreadId,
    pub native: CoreId,
    pub task: Box<dyn Task>,
    /// The thread's decision-scheme instance, carried *in the
    /// envelope*: it migrates with the task, so `decide`/`observe_run`
    /// never touch shared state. Every shipped scheme keys its tables
    /// per thread, so per-thread instances are bit-equal to the
    /// simulator's single shared instance (DESIGN.md §8).
    pub scheme: Box<dyn DecisionScheme>,
    /// When the task was submitted (or its intended open-loop arrival
    /// time): retirement records `arrival.elapsed()` in the obs
    /// `task_latency_ns` histogram.
    pub arrival: Instant,
    /// The access that triggered a migration: executed at the home
    /// shard immediately after admission (the simulator performs the
    /// arrival access in the same event as admission; keeping the pair
    /// atomic here preserves the eviction invariants).
    pub pending_op: Option<Op>,
    /// Result of the last completed operation, to feed the next
    /// `resume` (carried across requeues and evictions — it is
    /// register state).
    pub pending_reply: Option<u64>,
    /// Barrier the task is parked at, if any (survives eviction: a
    /// thread evicted mid-barrier stays parked at its native shard).
    pub parked_at: Option<usize>,
    /// The in-progress home run `(home, length)` — per-thread monitor
    /// state carried *in the envelope* (it migrates with the task), so
    /// the hot local path extends a run without touching anything
    /// shared; a run *boundary* bins into the shard-local histogram.
    pub run: Option<(CoreId, u64)>,
    /// The task's migration journey: a bounded hop log carried like
    /// scheme state until it has been dumped into a trace ring, then
    /// only counted. Recorded and cleared unconditionally (it is wire
    /// payload, and the deterministic experiments compare wire bytes
    /// bit-for-bit); only the ring dump itself is obs-gated.
    pub journey: crate::wire::Journey,
}

/// Inter-shard messages: the wire's message, carrying the live
/// envelope.
pub(crate) type Msg = WireMsg<Box<Envelope>>;

/// The envelope's task kind on the wire.
///
/// # Panics
/// Panics if the task declares no [`Task::wire_kind`] — a task that
/// cannot cross a process boundary was routed to a remote shard, which
/// is a cluster-configuration bug (the data it touches must be homed
/// on locally owned shards).
fn wire_kind(env: &Envelope) -> u32 {
    env.task.wire_kind().unwrap_or_else(|| {
        panic!(
            "task for thread {:?} cannot cross a process boundary: Task::wire_kind() is None",
            env.thread
        )
    })
}

/// Serialize an envelope into its owned wire form, for a frozen shard.
/// The freeze owns the envelopes it drains, so the journey log moves
/// into the wire form instead of being copied. A send does not come
/// here: its transport writes the live envelope ([`Outbound`]).
pub(crate) fn envelope_to_wire(env: Envelope) -> WireEnvelope {
    let task_kind = wire_kind(&env);
    let len = env.task.context_len() as usize;
    WireEnvelope {
        thread: env.thread.0,
        native: env.native.0,
        task_kind,
        task_ctx: em2_model::bytes::to_vec(len, |w| env.task.write_context(w)),
        scheme_state: env.scheme.state_bytes(),
        pending_op: env.pending_op.map(WireOp::from_op),
        pending_reply: env.pending_reply,
        parked_at: env.parked_at.map(|k| k as u32),
        run: env.run.map(|(c, len)| (c.0, len)),
        journey: env.journey,
    }
}

/// A live envelope on its way to another node: the envelope, its task
/// kind, and its scheme's learned state, taken at the send (a scheme
/// serializes only into a buffer of its own; a stateless one's is
/// empty and owns nothing). The task's context is written later,
/// straight into the frame.
pub(crate) struct Live {
    env: Box<Envelope>,
    kind: u32,
    state: Vec<u8>,
}

impl EnvelopeForm for Live {
    #[inline(always)]
    fn head(&self) -> Head {
        let env = &self.env;
        Head {
            thread: env.thread.0,
            native: env.native.0,
            task_kind: self.kind,
            pending_op: env.pending_op.map(WireOp::from_op),
            pending_reply: env.pending_reply,
            parked_at: env.parked_at.map(|k| k as u32),
            run: env.run.map(|(c, len)| (c.0, len)),
        }
    }

    #[inline(always)]
    fn ctx_len(&self) -> usize {
        self.env.task.context_len() as usize
    }

    #[inline(always)]
    fn write_ctx(&self, w: &mut Writer<'_>) {
        self.env.task.write_context(w);
    }

    #[inline(always)]
    fn state(&self) -> &[u8] {
        &self.state
    }

    #[inline(always)]
    fn journey(&self) -> &crate::wire::Journey {
        &self.env.journey
    }
}

/// A message leaving this node for a shard another node owns
/// ([`crate::NodeLink::forward`]): the executor's own message, its
/// continuation still live. The transport encodes it straight into its
/// flush buffer ([`Encode`]: the task writes its context there, through
/// [`Task::write_context`]) and then hands it back
/// ([`crate::RemoteInbox::recycle`]), so the envelope's box carries the
/// next continuation a reader rebuilds.
pub struct Outbound(WireMsg<Live>);

impl Outbound {
    /// The message as it leaves a shard: an arrival's task kind and
    /// scheme state are read here, on the sending worker (a task that
    /// cannot cross a process boundary panics here, see [`wire_kind`]).
    pub(crate) fn new(msg: Msg) -> Outbound {
        Outbound(msg.map(|env| Live {
            kind: wire_kind(&env),
            state: env.scheme.state_bytes(),
            env,
        }))
    }

    /// An arrival's serialized task-context bytes (journey and scheme
    /// state excluded) — what the transport's context ledger counts —
    /// or `None` for a message that carries no continuation.
    pub fn context_len(&self) -> Option<usize> {
        match &self.0 {
            WireMsg::Arrive(live) => Some(live.ctx_len()),
            _ => None,
        }
    }

    /// Back to the executor's message, for a local delivery.
    pub(crate) fn into_msg(self) -> Msg {
        self.0.map(|live| live.env)
    }

    /// Drop an arrival's scheme state, all it owns outside its box, and
    /// say whether there is a box to spare. Allocates nothing.
    pub(crate) fn shed(&mut self) -> bool {
        let WireMsg::Arrive(live) = &mut self.0 else {
            return false;
        };
        live.state = Vec::new();
        true
    }

    /// An arrival's box, its envelope still in it ([`Outbound::shed`]).
    pub(crate) fn into_spare(self) -> Option<Box<Envelope>> {
        match self.0 {
            WireMsg::Arrive(live) => Some(live.env),
            _ => None,
        }
    }
}

impl Encode for Outbound {
    #[inline(always)]
    fn max_len(&self) -> usize {
        crate::wire::msg_max_len(&self.0)
    }

    #[inline(always)]
    fn write(&self, w: &mut Writer<'_>) {
        crate::wire::write_msg(&self.0, w);
    }
}

/// What an emptied envelope holds until it is overwritten: a task
/// that is never run and owns nothing.
struct Spent;

impl Task for Spent {
    fn resume(&mut self, _: Option<u64>) -> Op {
        unreachable!("a spare envelope is refilled before it runs")
    }

    fn context_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
}

impl Envelope {
    /// Drop what the envelope owns, in place: the box stays, holding
    /// nothing but plain fields until it is overwritten. Every
    /// placeholder is zero-sized, so this allocates nothing.
    pub(crate) fn empty(&mut self) {
        self.task = Box::new(Spent);
        self.scheme = Box::new(em2_core::decision::AlwaysMigrate);
        self.journey = crate::wire::Journey::default();
    }
}

/// One shard's mailbox: the message queue and, under the same lock,
/// the shard's executor scheduling flag (`crate::mpsc`). The flag is
/// set while the shard is queued for or inside a poll, so at most one
/// worker polls a shard at a time and a shard is never queued twice:
/// only the send (or [`Shared::kick`]) that finds it clear schedules
/// the shard, and only the poller's `rest` clears it.
pub(crate) type Mailbox = MpscQueue<Msg>;

/// State shared by every worker. The hot paths touch only per-shard
/// locks (a mailbox push, an uncontended core lock) and atomics — see
/// the lock table in DESIGN.md §8.
pub(crate) struct Shared {
    /// Mailboxes for **every** shard in the cluster, indexed by global
    /// shard id. A cluster node instantiates all of them (ownership is
    /// directory-driven and can change at a live handoff) but only
    /// polls the ones it currently owns; an unowned shard's mailbox
    /// and core sit empty.
    pub mailboxes: Vec<Mailbox>,
    /// Shard state machines (global ids, like `mailboxes`). The mutex
    /// is a hand-off device, not a contention point: the scheduling
    /// protocol admits at most one poller per shard, so every
    /// acquisition is uncontended. A live handoff's freeze
    /// step takes this lock to drain the core, which is what makes a
    /// freeze wait out any in-flight poll.
    pub cores: Vec<Mutex<ShardCore>>,
    /// Epoch-versioned per-shard ownership. The transport layer
    /// (`em2-net`) holds the *same* `Arc`, so an ownership flip during
    /// a handoff is observed atomically by the send path, the receive
    /// path, and the executor. A single process holds an all-owned
    /// directory at epoch 0.
    pub directory: std::sync::Arc<crate::directory::ShardDirectory>,
    /// This runtime's node id in the directory.
    pub node_id: u32,
    /// Cluster-wide shard count (`mailboxes.len()`).
    pub total_shards: usize,
    /// Everything that leaves this node: messages to shards it does
    /// not own, barrier arrivals, retirements and the closed admission
    /// (`em2-net` implements it over loopback/UDS/TCP; a single process
    /// is the one-node cluster, its link the run ledger itself).
    pub node: std::sync::Arc<dyn NodeLink>,
    pub placement: std::sync::Arc<dyn Placement>,
    /// Per barrier: has its release reached this node? The arrival
    /// counts live in the run ledger behind `node`.
    pub released: Vec<AtomicBool>,
    pub shutdown: AtomicBool,
    pub cost: CostModel,
    pub quantum: usize,
    /// The multiplexed executor's run queue.
    pub sched: Sched,
}

impl Shared {
    /// Does this node own `shard` right now? One atomic directory
    /// load; with a handoff in flight the answer can go stale at once,
    /// which is why the send path re-checks under the mailbox lock.
    pub(crate) fn owns(&self, shard: usize) -> bool {
        self.directory.owner_of(shard) == self.node_id
    }

    /// Deliver `msg` to shard `to` (a **global** id) and make sure
    /// something will poll it: push to the local mailbox and schedule
    /// the shard on the executor, or — when another node owns `to` —
    /// serialize the message and hand it to the node link.
    pub(crate) fn send(&self, to: usize, msg: Msg) {
        self.send_routed(to, 0, msg);
    }

    /// [`Shared::send`] with an explicit re-route budget: `retries` is
    /// how many times ownership movement has already bounced this
    /// message between nodes. Organic sends start at 0; the transport
    /// layer passes the count carried on the frame so the transport's
    /// bounce budget survives a delivery that races
    /// an outbound ownership flip and re-forwards over the link.
    pub(crate) fn send_routed(&self, to: usize, retries: u32, mut msg: Msg) {
        debug_assert!(to < self.total_shards, "shard {to} outside the cluster");
        let mb = &self.mailboxes[to];
        let owned = || self.owns(to);
        if owned() {
            // Re-check under the mailbox lock, where a handoff's freeze
            // flips the owner: this push either precedes the flip (the
            // freeze's drain ships it with the shard) or sees it, gets
            // the message back and routes over the link.
            match mb.push_if(owned, msg) {
                Ok(woke) => {
                    if woke {
                        self.sched.schedule(to);
                    }
                    return;
                }
                Err(refused) => msg = refused,
            }
        }
        self.node.forward(to, retries, Outbound::new(msg));
    }

    pub(crate) fn is_released(&self, k: usize) -> bool {
        self.released[k].load(Ordering::Acquire)
    }

    /// Barrier `k` opened: set the released flag (so in-flight arrivals
    /// pass through) and wake every task parked on a **currently
    /// owned** shard (the release reaches every node, so each shard is
    /// woken exactly by its owner of the moment).
    pub(crate) fn release_barrier(&self, k: usize) {
        // The flag store and the owned-set read are one directory
        // write, as are `install_shard`'s claim and flag reads: whichever
        // write runs second sees the first, so a shard landing here
        // right now is woken by one of us.
        let owned = self.directory.write(|_| {
            self.released[k].store(true, Ordering::Release);
            self.directory.owned_shards(self.node_id)
        });
        for s in owned {
            self.send(s, Msg::BarrierRelease { idx: k as u32 });
        }
    }

    /// Schedule an (owned) shard for a poll without enqueueing a
    /// message — used after a handoff install to get the restored
    /// run queue serviced.
    pub(crate) fn kick(&self, shard: usize) {
        if self.mailboxes[shard].wake() {
            self.sched.schedule(shard);
        }
    }

    /// Flip the global shutdown flag and wake every parked executor
    /// worker. Safe to call from a panicking thread.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.wake_all();
    }
}

/// Per-shard counters and samples, merged deterministically (in shard
/// order) into the report at quiesce.
pub(crate) struct ShardCounters {
    pub flow: FlowCounts,
    pub context_bytes_sent: u64,
    pub heap_words: u64,
    /// Shard-local slice of the Figure-2 run-length histogram
    /// (bin-wise summed at quiesce; addition commutes, so the merge is
    /// worker-count independent).
    pub run_hist: Histogram,
    /// Times this shard was polled (scheduling telemetry; the idle-CPU
    /// regression test bounds it).
    pub polls: u64,
}

impl ShardCounters {
    fn new() -> Self {
        ShardCounters {
            flow: FlowCounts::default(),
            context_bytes_sent: 0,
            heap_words: 0,
            run_hist: Histogram::new(em2_core::RUN_BINS),
            polls: 0,
        }
    }
}

/// One shard's owned state: heap partition, context pool, task queues.
/// Accessed only by the worker currently granted the shard (the
/// executor's scheduling protocol).
pub(crate) struct ShardCore {
    /// Global (cluster-wide) shard id — what `CoreId`s and placement
    /// homes refer to, and this core's index into
    /// `Shared::mailboxes`/`cores`.
    id: usize,
    /// The owned heap partition: word values by address.
    heap: WordMap<u64, u64>,
    /// The context file (bounded guests + reserved natives), reused
    /// from the simulator.
    pool: ContextPool,
    /// Runnable tasks (none holds a `pending_op`; see `admit`).
    pub(crate) runq: VecDeque<Box<Envelope>>,
    /// Tasks parked at a barrier (`parked_at` is `Some`). Boxed like
    /// every other envelope home, so moving between queues, mailboxes,
    /// and park lists never copies the envelope itself.
    #[allow(clippy::vec_box)]
    parked: Vec<Box<Envelope>>,
    /// Tasks pinned awaiting a remote reply, by thread: a task awaits
    /// at most one, and the reply names the thread (see `await_reply`).
    awaiting: WordMap<ThreadId, Box<Envelope>>,
    /// Guest arrivals waiting for a slot — every guest was pinned
    /// when they (or an earlier arrival still queued here) landed.
    /// Admitted strictly in arrival order.
    stalled: VecDeque<Box<Envelope>>,
    /// Shard-local activity clock (orders LRU victimization).
    clock: u64,
    pub(crate) counters: ShardCounters,
    /// Reusable drain buffer (capacity persists across polls).
    scratch: Vec<Msg>,
    /// Replies to remote-access requests from shards another node
    /// owns, buffered across one mailbox batch and handed to the node
    /// link as a single `forward_many` — one egress enqueue run and
    /// one writer wakeup per (home, requester) burst instead of one
    /// per reply. Always flushed (drained in place: the capacity
    /// persists across batches) before the batch ends, so quiesce
    /// (which waits on the requester's retirement) can never observe a
    /// reply parked here.
    remote_replies: Vec<(usize, Outbound)>,
    /// This shard's timing-plane handle (`None` when obs is off — the
    /// hot path then pays one `Option` branch per hook). Never read by
    /// anything that feeds the deterministic counters.
    obs: Option<std::sync::Arc<ShardObs>>,
    /// Poll counter for the coarse event clock: the clock refreshes
    /// every [`OBS_CLOCK_POLLS`] polls, because `clock_gettime` can be
    /// a real syscall (obs module docs on the coarse clock).
    obs_clock_tick: u32,
}

/// Polls between coarse-event-clock refreshes.
const OBS_CLOCK_POLLS: u32 = 16;

/// Replay the hops `env` still carries into a shard's trace ring, so
/// the task's cross-cluster path is reconstructible from this node's
/// flight recording.
fn dump_journey(o: &ShardObs, env: &Envelope) {
    for h in &env.journey.hops {
        o.event(
            EventKind::JourneyHop,
            env.thread.0 as u64,
            (u64::from(h.node) << 32) | u64::from(h.shard),
            (u64::from(h.cause.code()) << 32) | (h.epoch & 0xFFFF_FFFF),
        );
    }
}

impl ShardCore {
    pub(crate) fn new(
        id: usize,
        guest_contexts: usize,
        obs: Option<std::sync::Arc<ShardObs>>,
    ) -> Self {
        ShardCore {
            id,
            heap: WordMap::default(),
            pool: ContextPool::new(guest_contexts),
            runq: VecDeque::new(),
            parked: Vec::new(),
            awaiting: WordMap::default(),
            stalled: VecDeque::new(),
            clock: 0,
            counters: ShardCounters::new(),
            scratch: Vec::new(),
            remote_replies: Vec::new(),
            obs,
            obs_clock_tick: 0,
        }
    }

    /// Per-poll obs bookkeeping: refresh the shard's coarse event
    /// clock every few polls.
    #[inline]
    fn obs_poll(&mut self) {
        if let Some(o) = &self.obs {
            if self.obs_clock_tick.is_multiple_of(OBS_CLOCK_POLLS) {
                o.refresh_clock();
            }
            self.obs_clock_tick = self.obs_clock_tick.wrapping_add(1);
        }
    }

    /// Record the guest pool's current occupancy on the obs plane
    /// (after any admit/evict/remove transition).
    #[inline]
    fn obs_occupancy(&self) {
        if let Some(o) = &self.obs {
            o.guest_occupancy
                .store(self.pool.guest_count() as u64, Ordering::Relaxed);
        }
    }

    /// Append a lifecycle event to this shard's trace ring (obs on).
    #[inline]
    fn ev(&self, kind: EventKind, task: u64, a: u64, b: u64) {
        if let Some(o) = &self.obs {
            o.event(kind, task, a, b);
        }
    }

    /// Obs hook for a guest admitted to or evicted from the pool: the
    /// occupancy gauge and the ring event.
    fn obs_guest(&self, kind: EventKind, guest: ThreadId) {
        self.obs_occupancy();
        self.ev(kind, guest.0 as u64, self.pool.guest_count() as u64, 0);
    }

    /// Obs hook for an executed `Migrate`/`Remote` verdict toward
    /// `home` — the one place a verdict is recorded on the timing
    /// plane: the ring event (`payload` = context bytes shipped, or
    /// the remote address) and the (thread, home) attribution cell,
    /// costed with the model's latency for the verdict (a read of its
    /// pair table). Deterministic data (program-order counts) held in
    /// timing-plane storage — never read back by the deterministic
    /// counters.
    #[inline]
    fn note_verdict(
        &self,
        shared: &Shared,
        kind: EventKind,
        thread: ThreadId,
        home: CoreId,
        payload: u64,
    ) {
        let Some(o) = &self.obs else { return };
        o.event(kind, thread.0 as u64, home.index() as u64, payload);
        let cell = o.attrib.cell(thread.0, home.index() as u32);
        let (cost, me) = (&shared.cost, self.me());
        match kind {
            EventKind::MigrateOut => {
                cell.migrations.bump(1);
                cell.context_bytes.bump(payload);
                cell.cost.bump(cost.migration_latency(me, home));
            }
            EventKind::RemoteRead => {
                cell.remote_reads.bump(1);
                cell.cost
                    .bump(cost.remote_access_latency(me, home, AccessKind::Read));
            }
            EventKind::RemoteWrite => {
                cell.remote_writes.bump(1);
                cell.cost
                    .bump(cost.remote_access_latency(me, home, AccessKind::Write));
            }
            other => debug_assert!(false, "{other:?} is not a verdict"),
        }
    }

    fn me(&self) -> CoreId {
        CoreId::from(self.id)
    }

    /// Census of envelopes resident on this shard: `(runnable, parked
    /// at a barrier, awaiting a remote reply, stalled on admission)`.
    /// The cluster layer's deadline watchdog reads this to say *why* a
    /// run stalled (a barrier that never released vs. a quiesce that
    /// never arrived).
    pub(crate) fn census(&self) -> (usize, usize, usize, usize) {
        (
            self.runq.len(),
            self.parked.len(),
            self.awaiting.len(),
            self.stalled.len(),
        )
    }

    /// Finalize end-of-run accounting — the heap counted — and hand
    /// the counters over, leaving zeroes (called once, at quiesce,
    /// under the core's lock).
    pub(crate) fn take_counters(&mut self) -> ShardCounters {
        self.counters.heap_words = self.heap.len() as u64;
        std::mem::replace(&mut self.counters, ShardCounters::new())
    }

    /// Freeze this shard for a live handoff: take every piece of
    /// transferable state — the heap partition, the resident contexts,
    /// all queued envelopes, the activity clock — plus the
    /// already-drained `mailbox` backlog, leaving the core empty.
    /// Deterministic counters stay behind (they accrued here and merge
    /// into this node's report; the destination counts only what it
    /// executes after the handoff).
    ///
    /// The caller holds the core lock (so no poll is in flight) and
    /// has already flipped the directory owner under the mailbox lock,
    /// so nothing lands here afterwards.
    pub(crate) fn export_frozen(&mut self, mailbox: Vec<Msg>) -> crate::wire::FrozenShard {
        debug_assert!(self.scratch.is_empty(), "batch in progress during freeze");
        debug_assert!(
            self.remote_replies.is_empty(),
            "unflushed replies during freeze"
        );
        let mut heap: Vec<(u64, u64)> = self.heap.drain().collect();
        heap.sort_unstable_by_key(|&(a, _)| a);
        let (natives, guests) = self.pool.drain_residents();
        let wire = |env: Box<Envelope>| envelope_to_wire(*env);
        let mut awaiting: Vec<WireEnvelope> =
            self.awaiting.drain().map(|(_, env)| wire(env)).collect();
        awaiting.sort_unstable_by_key(|env| env.thread);
        crate::wire::FrozenShard {
            shard: self.id as u32,
            clock: self.clock,
            heap,
            natives: natives.into_iter().map(|t| t.0).collect(),
            guests: guests
                .into_iter()
                .map(|(t, pinned, at)| (t.0, pinned, at))
                .collect(),
            runq: self.runq.drain(..).map(wire).collect(),
            parked: self.parked.drain(..).map(wire).collect(),
            awaiting,
            stalled: self.stalled.drain(..).map(wire).collect(),
            mailbox: mailbox.into_iter().map(|m| m.map(wire)).collect(),
        }
    }

    /// Install a frozen shard shipped by the previous owner: the
    /// inverse of [`ShardCore::export_frozen`], with envelopes rebuilt
    /// through `rebuild` (the inbox's registry + scheme factory). The
    /// caller holds the core lock and flips the directory owner after
    /// this returns; parked envelopes whose barrier released while the
    /// shard was in transit go straight to the run queue, exactly as a
    /// barrier-parked arrival does in `activate`.
    pub(crate) fn install_frozen(
        &mut self,
        f: crate::wire::FrozenShard,
        rebuild: &mut dyn FnMut(WireEnvelope) -> Result<Box<Envelope>, crate::wire::WireError>,
    ) -> Result<(), crate::wire::WireError> {
        debug_assert_eq!(f.shard as usize, self.id, "frozen shard routed wrong");
        assert!(
            self.heap.is_empty() && self.runq.is_empty() && self.awaiting.is_empty(),
            "installing into a non-empty shard core"
        );
        self.heap.extend(f.heap.iter().copied());
        for &t in &f.natives {
            self.pool.restore_native(ThreadId(t));
        }
        for &(t, pinned, at) in &f.guests {
            self.pool.restore_guest(ThreadId(t), pinned, at);
        }
        self.clock = f.clock;
        for we in f.runq {
            let env = rebuild(we)?;
            self.runq.push_back(env);
        }
        // Parked stays parked: the installer re-announces every
        // released barrier once it has claimed the shard.
        for we in f.parked {
            self.parked.push(rebuild(we)?);
        }
        for we in f.awaiting {
            self.await_reply(rebuild(we)?);
        }
        for we in f.stalled {
            let env = rebuild(we)?;
            self.stalled.push_back(env);
        }
        self.obs_occupancy();
        Ok(())
    }

    /// One executor poll: drain a mailbox batch (home servicing in
    /// arrival order), retry stalled admissions, run a bounded number
    /// of task quanta. Returns `true` when runnable work remains (the
    /// worker must requeue the shard).
    pub(crate) fn poll(&mut self, shared: &Shared) -> bool {
        self.counters.polls += 1;
        self.obs_poll();
        let mut quanta = POLL_TASK_BUDGET;
        loop {
            // One lock acquisition per batch, not per message.
            let held = shared.mailboxes[self.id].take(&mut self.scratch, DRAIN_K);
            let drained = held.min(DRAIN_K);
            if drained > 0 {
                if let Some(o) = &self.obs {
                    o.mailbox_batch.record(drained as u64);
                }
            }
            self.process_batch(shared);
            self.retry_stalled(shared);
            if shared.shutdown.load(Ordering::Acquire) {
                return false;
            }
            if let Some(env) = self.runq.pop_front() {
                self.execute(shared, env);
                // A departing task may have freed a guest slot.
                self.retry_stalled(shared);
                quanta -= 1;
                if quanta == 0 {
                    break;
                }
            } else if drained == 0 {
                break;
            }
        }
        !self.runq.is_empty()
    }

    fn process_batch(&mut self, shared: &Shared) {
        let mut batch = std::mem::take(&mut self.scratch);
        for msg in batch.drain(..) {
            self.handle(shared, msg);
        }
        self.scratch = batch;
        self.flush_remote_replies(shared);
    }

    /// Hand the batch's buffered cross-node replies to the link in one
    /// call: the link drains them, enqueues them contiguously per peer
    /// and wakes each involved writer once. The vector keeps its
    /// allocation for the next batch.
    fn flush_remote_replies(&mut self, shared: &Shared) {
        if self.remote_replies.is_empty() {
            return;
        }
        shared.node.forward_many(&mut self.remote_replies);
        debug_assert!(self.remote_replies.is_empty(), "the link drains");
    }

    fn handle(&mut self, shared: &Shared, msg: Msg) {
        match msg {
            Msg::Arrive(env) => self.admit(shared, env),
            Msg::Request {
                addr,
                write,
                reply_shard,
                token,
            } => {
                // Figure 3's "access memory" box executes at the home,
                // in request arrival order.
                let value = self.serve(Addr(addr), write);
                let reply_shard = reply_shard as usize;
                if shared.owns(reply_shard) {
                    shared.send(reply_shard, Msg::Response { token, value });
                } else {
                    // Cross-node reply: batch per requester for the
                    // egress pipeline (each stays its own wire frame,
                    // so the deterministic wire counters are
                    // untouched). Flushed at the end of this batch.
                    let reply = Outbound::new(Msg::Response { token, value });
                    self.remote_replies.push((reply_shard, reply));
                }
            }
            Msg::Response { token, value } => {
                let mut env = self
                    .awaiting
                    .remove(&ThreadId(token))
                    .expect("a response names a task pinned here");
                if env.native != self.me() {
                    self.pool.set_guest_state(env.thread, GuestState::Evictable);
                }
                env.pending_reply = value;
                self.runq.push_back(env);
            }
            Msg::BarrierRelease { idx } => {
                let mut released = 0u64;
                let mut i = 0;
                while i < self.parked.len() {
                    if self.parked[i].parked_at == Some(idx as usize) {
                        let mut env = self.parked.swap_remove(i);
                        env.parked_at = None;
                        self.runq.push_back(env);
                        released += 1;
                    } else {
                        i += 1;
                    }
                }
                self.ev(EventKind::BarrierRelease, 0, idx as u64, released);
            }
        }
    }

    /// Admit an arriving context. Natives always fit; a guest may
    /// evict, or stall when every guest slot is pinned. A fresh guest
    /// arrival queues behind earlier stalled ones so admission order
    /// is arrival order.
    fn admit(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        // Journey bookkeeping is unconditional (module docs on
        // `Envelope::journey`): the hop log is wire payload. A
        // migration lands carrying its arrival access; the very first
        // arrival of a task is its submission; other arrivals
        // (eviction returns, handoff replays) are recorded by their own
        // cause sites or deliberately not at all.
        if env.pending_op.is_some() {
            env.journey.push(crate::wire::JourneyHop {
                shard: self.id as u32,
                node: shared.node_id,
                epoch: shared.directory.epoch(),
                cause: crate::wire::HopCause::Migrate,
            });
        } else if env.journey.is_unstarted() {
            env.journey.push(crate::wire::JourneyHop {
                shard: self.id as u32,
                node: shared.node_id,
                epoch: shared.directory.epoch(),
                cause: crate::wire::HopCause::Submit,
            });
        }
        // Some push — the one above, a remote access, a bounce in the
        // transport's control plane — found the log full: it has
        // recorded all it ever will, so it stops travelling here.
        if env.journey.overflowed() {
            self.spill_journey(&mut env);
        }
        self.ev(
            EventKind::Arrive,
            env.thread.0 as u64,
            env.native.index() as u64,
            u64::from(env.native == self.me()),
        );
        if env.native == self.me() {
            self.pool.admit_native(env.thread);
            self.activate(shared, env);
            return;
        }
        if !self.stalled.is_empty() {
            self.counters.flow.stalled_arrivals += 1;
            self.obs_stall(&env);
            self.stalled.push_back(env);
            return;
        }
        if let Some(env) = self.try_admit_guest(shared, env) {
            self.counters.flow.stalled_arrivals += 1;
            self.obs_stall(&env);
            self.stalled.push_back(env);
        }
    }

    /// Hand an overflowed journey log to this shard's trace ring and
    /// stop carrying it: the same events a retirement emits, obs-gated
    /// the same way, and then the clear — **unconditional**, so what an
    /// envelope weighs on the wire never depends on obs state. A task
    /// reaches this once, on the admission after its log filled; its
    /// remaining migrations ship `[0][dropped]` instead of re-encoding,
    /// re-parsing, re-allocating and re-checksumming its first sixteen
    /// steps. Out of line and cold: `admit` is on every in-process hop
    /// too, and the dump loop inlined there costs the local path its
    /// inlining budget.
    #[cold]
    #[inline(never)]
    fn spill_journey(&self, env: &mut Envelope) {
        if let Some(o) = &self.obs {
            dump_journey(o, env);
        }
        env.journey.spill();
    }

    /// Obs hook for an arrival stalled on guest admission.
    fn obs_stall(&self, env: &Envelope) {
        let queued = self.stalled.len() as u64 + 1;
        self.ev(EventKind::Stall, env.thread.0 as u64, queued, 0);
    }

    /// The guest-admission state machine, shared by fresh arrivals and
    /// stall retries: admit (evicting a resident if needed) and
    /// activate, or hand the envelope back on stall.
    fn try_admit_guest(&mut self, shared: &Shared, env: Box<Envelope>) -> Option<Box<Envelope>> {
        self.clock += 1;
        match self.pool.admit_guest(env.thread, self.clock) {
            Admission::Admitted => {
                self.obs_guest(EventKind::GuestAdmit, env.thread);
                self.activate(shared, env);
            }
            Admission::AdmittedEvicting(victim) => {
                self.counters.flow.evictions += 1;
                self.evict(shared, victim);
                self.obs_guest(EventKind::GuestAdmit, env.thread);
                self.activate(shared, env);
            }
            Admission::Stalled => return Some(env),
        }
        None
    }

    /// An admitted context becomes active: barrier-parked arrivals
    /// re-park (unless their barrier opened while they were in
    /// flight); everything else executes immediately — keeping a
    /// migration's arrival access atomic with its admission, exactly
    /// like the simulator's arrival event.
    fn activate(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        if let Some(k) = env.parked_at {
            if shared.is_released(k) {
                env.parked_at = None;
                self.runq.push_back(env);
            } else {
                self.parked.push(env);
            }
            return;
        }
        self.execute(shared, env);
    }

    /// Ship an evictable resident back to its native shard. The victim
    /// is in the run queue or parked at a barrier (pinned guests are
    /// never chosen, and no task mid-execution is pool-resident while
    /// admissions run); its guest slot was already recycled by
    /// `ContextPool::admit_guest`.
    fn evict(&mut self, shared: &Shared, victim: ThreadId) {
        let pos = self.runq.iter().position(|e| e.thread == victim);
        let env = if let Some(i) = pos {
            self.runq.remove(i).expect("indexed")
        } else {
            let i = self
                .parked
                .iter()
                .position(|e| e.thread == victim)
                .expect("eviction victim must be runnable or barrier-parked");
            self.parked.swap_remove(i)
        };
        self.counters.context_bytes_sent += env.task.context_len();
        self.obs_guest(EventKind::GuestEvict, env.thread);
        let native = env.native.index();
        shared.send(native, Msg::Arrive(env));
    }

    /// Re-attempt stalled guest admissions, preserving arrival order.
    fn retry_stalled(&mut self, shared: &Shared) {
        while let Some(env) = self.stalled.pop_front() {
            let thread = env.thread.0 as u64;
            if let Some(env) = self.try_admit_guest(shared, env) {
                self.stalled.push_front(env);
                return;
            }
            self.ev(EventKind::Retry, thread, self.stalled.len() as u64, 0);
        }
    }

    /// Execute one word access against the owned heap partition: the
    /// single definition of DSM word semantics, shared by the local /
    /// migrated path and remote-request servicing. Stores return
    /// `None` (an ack); loads return `Some(value)`, with
    /// uninitialized words reading 0.
    fn serve(&mut self, addr: Addr, write: Option<u64>) -> Option<u64> {
        match write {
            Some(v) => {
                self.heap.insert(addr.0, v);
                None
            }
            None => Some(self.heap.get(&addr.0).copied().unwrap_or(0)),
        }
    }

    /// Step the envelope-carried run state by the engine's run rule
    /// ([`em2_engine::runlen::step`]) for an access homed at `home`, or
    /// `None` when the task retires: a continuing run touches nothing
    /// shared, and a run boundary bins into the *shard-local* histogram
    /// and feeds the *envelope-carried* scheme — no locks either way.
    fn track(&mut self, env: &mut Envelope, home: Option<CoreId>) {
        let hist = &mut self.counters.run_hist;
        if let Some((c, len)) = em2_engine::runlen::step(&mut env.run, home, env.native, hist) {
            env.scheme.observe_run(env.thread, c, len);
        }
    }

    /// LRU bookkeeping for a slice that ends with its context still
    /// resident here (quantum exhausted, barrier park): stamp the guest
    /// slot with the clock of the slice's last access — once per slice,
    /// not once per access. Nothing reads `last_active` while a slice
    /// runs (admissions happen between slices), so every admission and
    /// every `export_frozen` sees the stamp a per-access touch would
    /// have left; a slice that made no access leaves the stamp alone.
    #[inline]
    fn touch_after_slice(&mut self, thread: ThreadId, clock_at_entry: u64) {
        if self.clock != clock_at_entry {
            self.pool.touch(thread, self.clock);
        }
    }

    /// Run one task until it blocks (migration, remote access,
    /// barrier), completes, or exhausts its local-access quantum.
    fn execute(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        let me = self.me();
        let thread = env.thread;
        let clock_at_entry = self.clock;
        let mut budget = shared.quantum.max(1);
        let mut reply = env.pending_reply.take();
        // A pending op is a migration's arrival access: counted as the
        // migration edge, not a local access.
        let mut arrival_access = env.pending_op.is_some();
        loop {
            let op = match env.pending_op.take() {
                Some(op) => op,
                None => env.task.resume(reply.take()),
            };
            let (addr, write_value) = match op {
                Op::Done => {
                    self.retire(shared, env);
                    return;
                }
                Op::Barrier(k) => {
                    debug_assert!(!arrival_access);
                    // The quota lives in the run ledger behind the
                    // link; this node only mirrors releases. So an
                    // unreleased barrier always parks — the arrival
                    // that opens it too — and the release comes back
                    // as a `BarrierRelease` message. Barrier handling
                    // touches no counter.
                    if shared.is_released(k) {
                        continue;
                    }
                    self.ev(EventKind::BarrierPark, thread.0 as u64, k as u64, 0);
                    env.parked_at = Some(k);
                    self.parked.push(env);
                    self.touch_after_slice(thread, clock_at_entry);
                    shared.node.barrier_arrive(k);
                    return;
                }
                Op::Read(a) => (a, None),
                Op::Write(a, v) => (a, Some(v)),
            };
            let home = shared.placement.home_of(addr);

            if home == me {
                if arrival_access {
                    self.counters.flow.migrations += 1;
                    arrival_access = false;
                } else {
                    self.counters.flow.local_accesses += 1;
                }
                self.track(&mut env, Some(home));
                reply = self.serve(addr, write_value);
                self.clock += 1;
                budget -= 1;
                if budget == 0 {
                    // Quantum exhausted: round-robin with co-resident
                    // contexts. The unconsumed reply is register state.
                    env.pending_reply = reply.take();
                    self.runq.push_back(env);
                    self.touch_after_slice(thread, clock_at_entry);
                    return;
                }
                continue;
            }

            debug_assert!(!arrival_access, "a migration lands at its access's home");
            let kind = if write_value.is_some() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // The envelope's own scheme decides: no shared state, no
            // lock — the simulator's exact per-thread decision
            // sequence (decide *before* the run-end observation it
            // triggers).
            let decision = env.scheme.decide(&DecisionCtx {
                thread: env.thread,
                current: me,
                home,
                native: env.native,
                kind,
                cost: &shared.cost,
            });
            match decision {
                Decision::Migrate => {
                    if me == env.native {
                        self.pool.remove_native(env.thread);
                    } else {
                        self.pool.remove_guest(env.thread);
                        self.obs_occupancy();
                    }
                    let ctx = env.task.context_len();
                    self.counters.context_bytes_sent += ctx;
                    self.note_verdict(shared, EventKind::MigrateOut, thread, home, ctx);
                    env.pending_op = Some(op);
                    shared.send(home.index(), Msg::Arrive(env));
                    return;
                }
                Decision::Remote => {
                    // decide-then-track, the simulator's order: the
                    // scheme sees the run-end observation only after
                    // deciding the access that ended the run.
                    self.track(&mut env, Some(home));
                    env.journey.push(crate::wire::JourneyHop {
                        shard: home.index() as u32,
                        node: shared.node_id,
                        epoch: shared.directory.epoch(),
                        cause: crate::wire::HopCause::Remote,
                    });
                    let verdict = if write_value.is_some() {
                        self.counters.flow.remote_writes += 1;
                        EventKind::RemoteWrite
                    } else {
                        self.counters.flow.remote_reads += 1;
                        EventKind::RemoteRead
                    };
                    self.note_verdict(shared, verdict, thread, home, addr.0);
                    if me != env.native {
                        self.pool.set_guest_state(env.thread, GuestState::Pinned);
                    }
                    self.clock += 1;
                    self.pool.touch(env.thread, self.clock);
                    self.await_reply(env);
                    shared.send(
                        home.index(),
                        Msg::Request {
                            addr: addr.0,
                            write: write_value,
                            reply_shard: self.id as u32,
                            token: thread.0,
                        },
                    );
                    return;
                }
            }
        }
    }

    /// Pin `env` until the response naming its thread lands. A thread
    /// awaits at most one reply, so no entry is ever replaced.
    fn await_reply(&mut self, env: Box<Envelope>) {
        let replaced = self.awaiting.insert(env.thread, env);
        debug_assert!(replaced.is_none(), "a task awaits two replies");
    }

    /// A task finished: flush its final run, record its latency, free
    /// its context, and report the retirement to the run ledger.
    fn retire(&mut self, shared: &Shared, mut env: Box<Envelope>) {
        // Flush the final run (the envelope carries the in-progress
        // state; see `track`).
        self.track(&mut env, None);
        if env.native == self.me() {
            self.pool.remove_native(env.thread);
        } else {
            self.pool.remove_guest(env.thread);
            self.obs_occupancy();
        }
        if let Some(o) = &self.obs {
            let latency_ns = env.arrival.elapsed().as_nanos() as u64;
            o.task_latency_ns.record(latency_ns);
            // Whatever the journey still carries goes into the ring
            // (nothing, for a log that spilled on the way), then the
            // retire event closes it.
            dump_journey(o, &env);
            o.journey_dropped.bump(u64::from(env.journey.dropped));
            o.event(EventKind::Retire, env.thread.0 as u64, latency_ns, 0);
        }
        // Completion is cluster-global (a task may retire on a node
        // that never saw its submission): the ledger behind the link
        // decides when the run is over.
        shared.node.task_retired();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::directory::ShardDirectory;
    use em2_core::decision::AlwaysMigrate;
    use em2_model::DetRng;
    use em2_placement::Striped;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// The shard's heap against a `BTreeMap`, across handoffs: seeded
    /// reads and writes over strided and scattered word addresses, the
    /// whole core frozen and installed into a fresh one every so often.
    #[test]
    fn heap_matches_a_map_model_across_handoffs() {
        let mut rng = DetRng::new(0x4EA9);
        let mut core = ShardCore::new(3, 2, None);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..30_000 {
            let addr = Addr(match rng.below(4) {
                0 => 8 * rng.below(2048),
                1 => 64 * rng.below(2048),
                2 => 4096 * rng.below(2048),
                _ => rng.next_u64() & !7,
            });
            if rng.chance(0.4) {
                let v = rng.next_u64();
                assert_eq!(core.serve(addr, Some(v)), None);
                model.insert(addr.0, v);
            } else {
                let expect = model.get(&addr.0).copied().unwrap_or(0);
                assert_eq!(core.serve(addr, None), Some(expect), "{addr:?}");
            }
            if step % 2_500 == 2_499 {
                let frozen = core.export_frozen(Vec::new());
                assert!(
                    frozen.heap.windows(2).all(|w| w[0].0 < w[1].0),
                    "exported heap ascends strictly by address"
                );
                assert!(frozen
                    .heap
                    .iter()
                    .copied()
                    .eq(model.iter().map(|(&a, &v)| (a, v))));
                core = ShardCore::new(3, 2, None);
                core.install_frozen(frozen, &mut |_| unreachable!("no envelopes were frozen"))
                    .expect("install");
            }
        }
        assert_eq!(core.take_counters().heap_words, model.len() as u64);
    }

    /// A task that yields a fixed list of operations.
    struct Script(VecDeque<Op>);

    impl Task for Script {
        fn resume(&mut self, _reply: Option<u64>) -> Op {
            self.0.pop_front().unwrap_or(Op::Done)
        }

        fn context_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    /// The link of a cluster in which this process owns every shard:
    /// nothing is ever forwarded, barrier arrivals go nowhere.
    struct AllLocal;

    impl NodeLink for AllLocal {
        fn forward(&self, to_shard: usize, _retries: u32, _msg: Outbound) {
            panic!("shard {to_shard} is local");
        }
        fn barrier_arrive(&self, _k: usize) {}
        fn task_retired(&self) {}
        fn node_closed(&self, _submitted: u64) {}
    }

    /// The link of a cluster in which another node owns shards: it
    /// records what it is asked to forward, through the trait's
    /// provided `forward_many`, as the wire reads it back — encoded by
    /// the transport's encoder and decoded owned.
    #[derive(Default)]
    pub(crate) struct Recording(pub(crate) Mutex<Vec<(usize, WireMsg)>>);

    impl NodeLink for Recording {
        fn forward(&self, to_shard: usize, _retries: u32, msg: Outbound) {
            let mut bytes = Vec::new();
            crate::wire::write_into(&mut bytes, msg.max_len(), |w| msg.write(w));
            let msg = WireMsg::decode(&bytes).expect("its own encoding");
            self.0.lock().expect("recording").push((to_shard, msg));
        }
        fn barrier_arrive(&self, _k: usize) {}
        fn task_retired(&self) {}
        fn node_closed(&self, _submitted: u64) {}
    }

    /// Replies to another node's shard are buffered across a mailbox
    /// batch and drained by the link — the vector that buffers them is
    /// allocated once, not once per batch. Red for a flush that takes
    /// the vector instead of draining it.
    #[test]
    fn the_reply_batch_keeps_its_buffer() {
        let link = Arc::new(Recording::default());
        let mut shared = two_shards(256, Arc::clone(&link) as Arc<dyn NodeLink>);
        // Shard 0 lives on node 1: replies to it cross the link.
        shared.directory = Arc::new(ShardDirectory::new(0, 0, &[1, 0]));
        let mut core = ShardCore::new(1, 2, None);
        let mut capacity = Vec::new();
        for batch in 0..2 {
            for i in 0..5 {
                core.scratch.push(Msg::Request {
                    addr: 64,
                    write: None,
                    reply_shard: 0,
                    token: 5 * batch + i,
                });
            }
            core.process_batch(&shared);
            assert!(core.remote_replies.is_empty(), "flushed with the batch");
            capacity.push(core.remote_replies.capacity());
        }
        assert!(capacity[0] > 0, "the buffer outlives its flush");
        assert_eq!(capacity[0], capacity[1], "and is not regrown");
        let seen = link.0.lock().expect("recording");
        let expect: Vec<(usize, WireMsg)> = (0..10)
            .map(|token| {
                (
                    0,
                    WireMsg::Response {
                        token,
                        value: Some(0),
                    },
                )
            })
            .collect();
        assert_eq!(*seen, expect, "every reply once, in order");
    }

    /// A freeze flips the owner under the mailbox lock, where a send
    /// re-checks it. A send that looked at the directory before the
    /// flip and reaches the lock after it gets its message back and
    /// enqueues nothing; one that looks after the flip leaves through
    /// the link.
    #[test]
    fn a_send_that_sees_the_flip_routes_over_the_link() {
        let link = Arc::new(Recording::default());
        let shared = two_shards(256, Arc::clone(&link) as Arc<dyn NodeLink>);
        let mb = &shared.mailboxes[1];
        let request = |token| Msg::Request {
            addr: 64,
            write: None,
            reply_shard: 0,
            token,
        };
        shared.send(1, request(0));
        mb.locked(|| shared.directory.set_owner(1, 1));
        let owned = || shared.directory.owner_of(1) == shared.node_id;
        let refused = mb.push_if(owned, request(1));
        assert!(matches!(refused, Err(Msg::Request { token: 1, .. })));
        shared.send(1, request(2));
        assert_eq!(mb.len(), 1, "nothing lands after the flip");
        assert!(matches!(mb.pop(), Some(Msg::Request { token: 0, .. })));
        let seen = link.0.lock().expect("recording");
        assert!(matches!(seen[..], [(1, WireMsg::Request { token: 2, .. })]));
    }

    /// Two shards striped by line (line `i` lives on shard `i % 2`), no
    /// workers: the tests drive shard 1's core by hand.
    pub(crate) fn two_shards(quantum: usize, link: Arc<dyn NodeLink>) -> Shared {
        let core = |id| Mutex::new(ShardCore::new(id, 2, None));
        Shared {
            mailboxes: (0..2).map(|_| Mailbox::new()).collect(),
            cores: (0..2).map(core).collect(),
            directory: Arc::new(ShardDirectory::single_process(2)),
            node_id: 0,
            total_shards: 2,
            node: link,
            placement: Arc::new(Striped::new(2, 64)),
            released: (0..3).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            cost: CostModel::builder().cores(2).build(),
            quantum,
            sched: Sched::default(),
        }
    }

    /// A context native to shard 0, to arrive at shard 1 as a guest.
    fn guest(thread: u32, ops: Vec<Op>) -> Box<Envelope> {
        Box::new(Envelope {
            thread: ThreadId(thread),
            native: CoreId(0),
            task: Box::new(Script(ops.into())),
            scheme: Box::new(AlwaysMigrate),
            arrival: Instant::now(),
            pending_op: None,
            pending_reply: None,
            parked_at: None,
            run: None,
            journey: crate::wire::Journey::default(),
        })
    }

    /// `n` reads of words homed on shard 1.
    fn reads_on_shard_1(n: u64) -> impl Iterator<Item = Op> {
        (0..n).map(|i| Op::Read(Addr(64 + 128 * i)))
    }

    #[derive(Clone, Copy, Debug)]
    enum SliceEnd {
        Quantum,
        BarrierPark,
    }

    /// Two guest slots. A is admitted before B; B then sits parked
    /// while A runs a long local slice that ends as `end` says, with A
    /// still resident — so A is the more recently active. Returns whom
    /// a third guest's arrival evicts.
    fn evicted_after_a_long_slice(end: SliceEnd) -> ThreadId {
        let (a, b, c) = (ThreadId(1), ThreadId(2), ThreadId(3));
        let quantum = match end {
            SliceEnd::Quantum => 4,
            SliceEnd::BarrierPark => 256,
        };
        let shared = two_shards(quantum, Arc::new(AllLocal));
        let mut core = ShardCore::new(1, 2, None);

        // A's first slice leaves it resident having done as little as
        // the exit under test allows: one quantum, or no access at all
        // before parking at barrier 1.
        let script: Vec<Op> = match end {
            SliceEnd::Quantum => reads_on_shard_1(12).collect(),
            SliceEnd::BarrierPark => std::iter::once(Op::Barrier(1))
                .chain(reads_on_shard_1(6))
                .chain([Op::Barrier(2)])
                .collect(),
        };
        core.handle(&shared, Msg::Arrive(guest(a.0, script)));
        let mut idle = guest(b.0, Vec::new());
        idle.parked_at = Some(0);
        core.handle(&shared, Msg::Arrive(idle));

        // The long slice.
        core.handle(&shared, Msg::BarrierRelease { idx: 1 });
        let env = core.runq.pop_front().expect("A is runnable");
        assert_eq!(env.thread, a);
        core.execute(&shared, env);
        assert!(core.pool.is_resident(a) && core.pool.is_resident(b));
        let long_slice = match end {
            SliceEnd::Quantum => 2 * 4,
            SliceEnd::BarrierPark => 6,
        };
        assert_eq!(core.counters.flow.local_accesses, long_slice);

        core.handle(&shared, Msg::Arrive(guest(c.0, Vec::new())));
        assert_eq!(core.counters.flow.evictions, 1);
        match shared.mailboxes[0].pop() {
            Some(Msg::Arrive(victim)) => victim.thread,
            _ => panic!("the victim travels to its native shard"),
        }
    }

    /// A slice that parks without making an access is not activity: the
    /// stamp stays where the last access (or the admission) left it,
    /// as with a per-access touch. B (slot 0) is active through clock
    /// 8; A (slot 1, admitted at 5) then runs a slice that is only a
    /// barrier. Stamping A with the current clock would tie it with B
    /// and evict B, the lower slot.
    #[test]
    fn a_slice_without_an_access_leaves_the_stamp_alone() {
        let (a, b) = (ThreadId(1), ThreadId(2));
        let shared = two_shards(256, Arc::new(AllLocal));
        let mut core = ShardCore::new(1, 2, None);
        let burst = || reads_on_shard_1(3).chain([Op::Barrier(0)]);
        core.handle(
            &shared,
            Msg::Arrive(guest(b.0, burst().chain(burst()).collect())),
        );
        core.handle(
            &shared,
            Msg::Arrive(guest(a.0, vec![Op::Barrier(1), Op::Barrier(2)])),
        );
        for (idx, thread) in [(0, b), (1, a)] {
            core.handle(&shared, Msg::BarrierRelease { idx });
            let env = core.runq.pop_front().expect("released");
            assert_eq!(env.thread, thread);
            core.execute(&shared, env);
        }
        assert_eq!(core.clock, 8);
        core.handle(&shared, Msg::Arrive(guest(3, Vec::new())));
        assert!(core.pool.is_resident(b) && !core.pool.is_resident(a));
    }

    /// Reads `src`, stores the value it got back at `dst`, and is done.
    struct Echo {
        src: u64,
        dst: u64,
        step: u64,
    }

    impl Task for Echo {
        fn resume(&mut self, reply: Option<u64>) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::Read(Addr(self.src)),
                2 => Op::Write(Addr(self.dst), reply.expect("the read's value")),
                _ => Op::Done,
            }
        }

        fn context_bytes(&self) -> Vec<u8> {
            [self.src, self.dst, self.step]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect()
        }

        fn wire_kind(&self) -> Option<u32> {
            Some(0)
        }
    }

    /// An `Echo` guest at shard 1 (native to shard 0) that makes every
    /// non-local access remotely.
    fn echo(thread: ThreadId, src: u64, dst: u64, step: u64) -> Box<Envelope> {
        Box::new(Envelope {
            task: Box::new(Echo { src, dst, step }),
            scheme: Box::new(em2_core::decision::AlwaysRemote),
            ..*guest(thread.0, Vec::new())
        })
    }

    /// Two tasks on one shard each await a remote read; the replies
    /// come back in the reverse order, and each task gets its own value
    /// — also when the shard is frozen and installed in between. The
    /// reply names the thread, and the thread alone finds the task.
    #[test]
    fn each_reply_finds_its_own_task_in_any_order() {
        let (a, b) = (ThreadId(1), ThreadId(2));
        for handoff in [false, true] {
            let shared = two_shards(256, Arc::new(AllLocal));
            let mut core = ShardCore::new(1, 2, None);
            // Lines 0 and 2 live on shard 0, lines 1 and 3 here.
            core.handle(&shared, Msg::Arrive(echo(a, 0, 64, 0)));
            core.handle(&shared, Msg::Arrive(echo(b, 128, 192, 0)));
            assert_eq!(core.census(), (0, 0, 2, 0), "both await a reply");
            let mut asked = Vec::new();
            while let Some(msg) = shared.mailboxes[0].pop() {
                let Msg::Request { token, .. } = msg else {
                    panic!("only requests leave")
                };
                asked.push(token);
            }
            assert_eq!(asked, [a.0, b.0]);
            if handoff {
                let frozen = core.export_frozen(Vec::new());
                let threads: Vec<u32> = frozen.awaiting.iter().map(|e| e.thread).collect();
                assert_eq!(threads, [a.0, b.0], "exported by thread");
                core = ShardCore::new(1, 2, None);
                let word = |ctx: &[u8], i: usize| {
                    u64::from_le_bytes(ctx[8 * i..8 * i + 8].try_into().expect("a word"))
                };
                core.install_frozen(frozen, &mut |we| {
                    let ctx = &we.task_ctx;
                    let (src, dst, step) = (word(ctx, 0), word(ctx, 1), word(ctx, 2));
                    Ok(echo(ThreadId(we.thread), src, dst, step))
                })
                .expect("install");
                assert_eq!(core.census(), (0, 0, 2, 0), "both still await");
            }
            for token in asked.into_iter().rev() {
                let value = Some(100 + u64::from(token));
                core.handle(&shared, Msg::Response { token, value });
            }
            while let Some(env) = core.runq.pop_front() {
                core.execute(&shared, env);
            }
            assert_eq!(core.census(), (0, 0, 0, 0), "both ran to completion");
            assert_eq!(core.serve(Addr(64), None), Some(101), "handoff: {handoff}");
            assert_eq!(core.serve(Addr(192), None), Some(102), "handoff: {handoff}");
        }
    }

    /// A scheme that records every run reported to it.
    struct Observer(Arc<Mutex<Vec<(ThreadId, CoreId, u64)>>>);

    impl DecisionScheme for Observer {
        fn decide(&mut self, _ctx: &DecisionCtx<'_>) -> Decision {
            Decision::Migrate
        }

        fn observe_run(&mut self, thread: ThreadId, home: CoreId, len: u64) {
            self.0.lock().expect("runs").push((thread, home, len));
        }

        fn name(&self) -> String {
            "observer".into()
        }
    }

    /// The run state a task carries goes through the engine's run rule:
    /// over seeded home sequences, `track` — per access, then at
    /// retirement — bins the same histogram and reports the same runs to
    /// the task's own scheme as `RunMonitor` does for the same thread.
    #[test]
    fn carried_runs_bin_and_observe_as_the_run_monitor_does() {
        let mut rng = DetRng::new(0x2A7);
        let thread = ThreadId(2);
        for _ in 0..500 {
            let native = CoreId(rng.below(4) as u16);
            let runs = Arc::new(Mutex::new(Vec::new()));
            let mut env = guest(thread.0, Vec::new());
            env.native = native;
            env.scheme = Box::new(Observer(Arc::clone(&runs)));
            let mut core = ShardCore::new(1, 2, None);
            let mut monitor = em2_engine::RunMonitor::new(vec![native; 3], em2_core::RUN_BINS);
            let mut want = Vec::new();
            let mut observe = |t: ThreadId, c: CoreId, l: u64| want.push((t, c, l));
            let mut home = CoreId(0);
            for _ in 0..rng.below(80) {
                if rng.chance(0.4) {
                    home = CoreId(rng.below(4) as u16);
                }
                core.track(&mut env, Some(home));
                monitor.track(thread, home, &mut observe);
            }
            core.track(&mut env, None);
            monitor.flush(thread, &mut observe);
            assert_eq!(env.run, None, "retirement ends the run");
            assert_eq!(core.counters.run_hist, monitor.into_histogram());
            assert_eq!(*runs.lock().expect("runs"), want);
        }
    }

    /// The LRU stamp is taken at the end of a slice, not per access;
    /// every way a slice can end with its context still resident must
    /// take it. Red for a hoist that forgets the exit.
    #[test]
    fn a_long_local_slice_makes_its_guest_the_most_recent() {
        for end in [SliceEnd::Quantum, SliceEnd::BarrierPark] {
            assert_eq!(
                evicted_after_a_long_slice(end),
                ThreadId(2),
                "{end:?}: the idle guest is the victim"
            );
        }
    }
}
