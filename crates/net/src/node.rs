//! The node layer: connections, routing, and the threads that drive
//! the control plane (barriers, live handoffs, quiesce) and fail fast.
//!
//! A [`NodeRuntime`] wraps one `em2-rt` [`Runtime`] owning this
//! process's shard range and wires it to its peers:
//!
//! * **Connections.** Every node listens on its spec address; node `j`
//!   dials every `i < j` (with jittered exponential backoff inside the
//!   spec's connect budget — nodes come up in any order) and opens
//!   with `Hello{node, wire_version, topology_digest}`; the acceptor
//!   verifies and answers `HelloAck`. Version or topology mismatch
//!   refuses the connection — two processes that disagree on shard
//!   ownership must not exchange a single shard message.
//! * **Routing.** The runtime hands any message addressed to a shard
//!   it does not own to [`em2_rt::NodeLink::forward`]; the link looks
//!   the current owner up in the epoch-versioned
//!   [`em2_rt::ShardDirectory`], wraps the message
//!   in [`NetMsg::Shard`] (stamped with the sender's epoch) and pushes
//!   it onto the owner peer's **egress lane** (`em2_rt::mpsc`: one
//!   short leaf lock around the queue and the writer's wake flag) —
//!   the shard worker never touches a socket or waits on a slow peer.
//!   One **writer thread per peer** moves a bounded window out of that
//!   lane under one lock, assigns sequence numbers in queue order,
//!   encodes the window straight into its one reusable flush
//!   buffer, writes it with a single
//!   [`crate::transport::FrameTx::send_batch`], and parks until a push
//!   wakes it (DESIGN.md §11). One **reader thread per peer** decodes
//!   frames in place and injects them through
//!   [`em2_rt::RemoteInbox`] — the executor's ordinary mailbox/waker
//!   seam; the workers never know a message crossed a process. The
//!   link threads only move bytes and stamp their edge's clocks.
//! * **The control plane.** Everything that is a *decision* — node 0
//!   coordinating barriers, completion accounting and the cluster-wide
//!   quiesce (DESIGN.md §9); **live shard handoffs** (`Prepare →
//!   Freeze → Transfer → Commit`, one at a time, each commit bumping
//!   the directory **epoch**); the epoch fence that buffers, parks,
//!   bounces or re-routes an in-flight frame for a shard in motion so
//!   that stale frames are never silently applied (DESIGN.md §13); the
//!   run's first failure and quiesce; every deadline — is one sans-IO
//!   state machine, `control.rs`: `Control::on(Event) -> Actions`
//!   behind one lock. The threads here are its drivers: readers feed
//!   it every frame their fast path (run traffic for a shard we own)
//!   does not consume, any thread feeds it the failures it observes,
//!   workers feed it barrier arrivals and retirements, one parked
//!   ticker feeds it time and every edge's clocks, and
//!   `Links::control` performs what it decides — sends (heartbeats
//!   among them), deliveries, [`em2_rt::RemoteInbox`] freezes and
//!   installs, the stop.
//! * **Failure.** Nothing in this module panics or hangs on a sick
//!   cluster (DESIGN.md §10). The first failure a node observes — a
//!   dead send, an EOF without the protocol's goodbye, a checksum or
//!   sequence-gap decode error, a silent peer, a control-plane
//!   deadline — is recorded by `Control` as a typed [`ClusterError`],
//!   an [`NetMsg::Abort`] is propagated (to the coordinator, which
//!   rebroadcasts), the local workers are woken and drained through
//!   [`em2_rt::RemoteInbox::begin_shutdown`], and
//!   [`NodeRuntime::finish`] returns `Err` instead of counters that
//!   never converged.
//!
//! Counter exactness: decisions, counters, and run histograms are
//! per-thread program-order functions (DESIGN.md §7); distribution
//! changes only *where* each access executes, so summing the nodes'
//! [`em2_rt::RtReport`] counters reproduces the single-process run
//! bit-for-bit — `crates/net/tests` pins this for loopback, UDS, and
//! TCP, and `crates/net/tests/chaos.rs` pins that it *stays* true
//! under benign injected faults (delays, duplicates).

use crate::cluster::ClusterSpec;
use crate::control::{Action, Control, Event, Note};
use crate::error::ClusterError;
use crate::proto::{transfer_state_len, NetMsg, NetView};
use crate::transport::{Duplex, FrameBatch, FrameRx, FrameTx, Transport};
use em2_model::hash::{fnv1a, FNV1A_INIT};
use em2_model::{DetRng, Fold, ThreadId};
use em2_placement::Placement;
use em2_rt::mpsc::MpscQueue;
use em2_rt::wire::{WireEnvelope, WireMsg, WIRE_VERSION};
use em2_rt::{
    InboxBacklog, NodeLink, NodeRole, RtConfig, RtReport, Runtime, ShardDirectory, TaskRegistry,
    TaskSpec,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Frames one writer flush may coalesce (the bounded window that keeps
/// a burst from turning into unbounded latency for the frame at its
/// head).
const COALESCE_FRAMES: usize = 64;

/// Byte bound on one coalesced flush (a window of maximum-size frames
/// must not buffer tens of MiB before the first byte moves).
const COALESCE_BYTES: usize = 256 << 10;

/// One node's wire telemetry. Every count is kept as plain memory by
/// the thread that counts it — a writer its edge's egress, a reader its
/// edge's ingress — handed back through that thread's `JoinHandle`, and
/// summed by `finish()`: nothing on the data path touches a shared
/// counter (DESIGN.md §11).
///
/// In `frames_tx`/`bytes_tx` (and their rx twins), control frames
/// (heartbeats, aborts, goodbyes) are **excluded** so the fault-free
/// frame counters are identical whether or not heartbeats run (the byte
/// counters too, up to the width of the sequence varints a heartbeat
/// shifted: a frame's size depends on its sequence number, and control
/// frames take sequence slots); `frames_tx_total`/`bytes_tx_total`
/// count every frame written after the handshake, control included —
/// the honest egress ledger. `flushes_tx` and `egress_hwm` are
/// timing-dependent (like wall clock): how frames pack into flushes and
/// how deep queues get depends on scheduling, so they are telemetry,
/// never part of an agreement check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Frames sent to peers (control frames excluded).
    pub frames_tx: u64,
    /// Payload bytes sent (excluding the 4-byte frame header).
    pub bytes_tx: u64,
    /// Frames received from peers (control frames and duplicates
    /// excluded).
    pub frames_rx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Inbound frames dropped by sequence-number deduplication — zero
    /// on a healthy network; nonzero proves the codec absorbed a
    /// duplicate-delivery fault without disturbing the run.
    pub dupes_rx: u64,
    /// Task envelopes (migrations, evictions, seeds) sent cross-process.
    pub arrives_tx: u64,
    /// Serialized task-context bytes inside sent envelopes.
    pub context_bytes_tx: u64,
    /// Every frame written after the handshake, **control included** —
    /// the total per-peer egress ledger (heartbeats, aborts, goodbyes
    /// all cost wire time even though they are excluded from the
    /// deterministic `frames_tx`).
    pub frames_tx_total: u64,
    /// Payload bytes of every written frame (control included).
    pub bytes_tx_total: u64,
    /// Coalesced flush batches written (≈ egress syscalls on stream
    /// transports). Timing-dependent telemetry, like wall clock.
    pub flushes_tx: u64,
    /// Deepest any peer egress queue was found by its writer at the top
    /// of a coalesce window (frames). Timing-dependent.
    pub egress_hwm: u64,
}

impl WireSnapshot {
    /// Every field with its summary-file key and how two shares of it
    /// merge: counts sum, the high-water mark takes the max.
    /// [`WireSnapshot::absorb`] and `CounterSummary`'s field table both
    /// merge by this.
    pub(crate) fn fields(&mut self) -> [(&'static str, &mut u64, Fold); 11] {
        use Fold::{Max, Sum};
        [
            ("wire_frames_tx", &mut self.frames_tx, Sum),
            ("wire_bytes_tx", &mut self.bytes_tx, Sum),
            ("wire_frames_rx", &mut self.frames_rx, Sum),
            ("wire_bytes_rx", &mut self.bytes_rx, Sum),
            ("wire_dupes_rx", &mut self.dupes_rx, Sum),
            ("wire_arrives_tx", &mut self.arrives_tx, Sum),
            ("wire_context_bytes_tx", &mut self.context_bytes_tx, Sum),
            ("wire_frames_tx_total", &mut self.frames_tx_total, Sum),
            ("wire_bytes_tx_total", &mut self.bytes_tx_total, Sum),
            ("wire_flushes_tx", &mut self.flushes_tx, Sum),
            ("wire_egress_hwm", &mut self.egress_hwm, Max),
        ]
    }

    /// Fold in another thread's share.
    fn absorb(&mut self, o: &WireSnapshot) {
        let mut o = *o;
        for ((_, mine, fold), (_, theirs, _)) in self.fields().into_iter().zip(o.fields()) {
            *mine = fold.apply(*mine, *theirs);
        }
    }
}

/// What travels down a peer's egress queue.
enum EgressItem {
    /// An encodable message; the writer assigns its sequence number at
    /// pop time.
    Msg(NetMsg),
    /// Teardown sentinel, pushed by `finish` after everything else:
    /// the writer drains the FIFO up to here, appends [`NetMsg::Bye`]
    /// iff the run was clean, flushes, closes the connection, and
    /// exits.
    Close { bye: bool },
}

/// One peer edge: the egress lane its writer thread drains and the
/// edge's liveness clocks, which the ticker hands to `Control`. The
/// connection's send half is **owned by the writer thread** — no
/// shared send state, so the producer side (`forward`, coordinator
/// logic) only ever holds the lane's lock for one enqueue.
struct Peer {
    /// The egress lane; the writer is the single consumer. Its lock
    /// serializes pushes, and that FIFO order is what keeps Closed-
    /// after-last-Shard and Bye-last intact (DESIGN.md §11); only an
    /// Abort enters at the head. The push that finds the writer idle
    /// unparks it; the writer goes idle through `rest` before it
    /// parks, and std's park token covers an unpark that lands between
    /// the two.
    egress: MpscQueue<EgressItem>,
    /// The writer thread's handle, registered by the thread itself
    /// before it first looks at a lane.
    writer: OnceLock<std::thread::Thread>,
    /// Milliseconds (since the link epoch) of the last socket read
    /// that brought a frame from this peer, stored by the reader.
    last_rx_ms: AtomicU64,
    /// Milliseconds (since the link epoch) of the last flush toward
    /// this peer, stored by the writer.
    last_tx_ms: AtomicU64,
    /// The peer announced a clean close ([`NetMsg::Bye`]); a
    /// subsequent EOF is a shutdown, not a loss.
    bye: AtomicBool,
}

impl Peer {
    fn new() -> Peer {
        Peer {
            egress: MpscQueue::new(),
            writer: OnceLock::new(),
            last_rx_ms: AtomicU64::new(0),
            last_tx_ms: AtomicU64::new(0),
            bye: AtomicBool::new(false),
        }
    }

    /// Unpark the writer. Before it has registered there is nobody to
    /// unpark: it has not looked at the lane yet and will find the item.
    fn unpark_writer(&self) {
        if let Some(t) = self.writer.get() {
            t.unpark();
        }
    }
}

/// Everything shared between shard workers (via [`NodeLink`]), reader
/// threads, the per-peer writer threads, the ticker, and the
/// [`NodeRuntime`] handle.
struct Links {
    spec: ClusterSpec,
    me: usize,
    /// The epoch-versioned ownership map — the **same** `Arc` the
    /// local runtime routes with, so an ownership flip during a
    /// handoff is observed atomically by workers, readers, and
    /// writers.
    directory: Arc<ShardDirectory>,
    /// The control plane (`control.rs`): every decision about a frame
    /// that is not run traffic for a shard we own, and the run state —
    /// the first failure, quiesce, every deadline. The protocol's only
    /// lock; the data path (`route_shard`, `send_to`, `forward_many`,
    /// the writers) never takes it. Sends leave under it, so the lock
    /// order is control → egress lane, and a lane's lock is a leaf.
    control: Mutex<Control>,
    /// Indexed by node id; `None` at `me`.
    peers: Vec<Option<Peer>>,
    /// Set once the runtime is up; readers start after that.
    inbox: OnceLock<em2_rt::RemoteInbox>,
    /// Origin of the `last_*_ms` clocks and of every `Tick`.
    epoch: Instant,
    /// The runtime's timing-plane registry, set after the local
    /// `Runtime` comes up (readers/writers start later, so they always
    /// observe it). Arms per-peer wire telemetry and the crash flight
    /// recorder; `OnceLock` stays empty when obs is off.
    obs: OnceLock<Arc<em2_obs::NodeObs>>,
    /// The ticker thread, parked until the control plane's earliest
    /// deadline; unparked when an event arms an earlier one and by
    /// `finish`.
    ticker: OnceLock<std::thread::Thread>,
}

/// Which peer a failure names, for the flight recorder's final event.
fn failure_peer(err: &ClusterError) -> Option<u64> {
    match err {
        ClusterError::PeerLost { node, .. } => Some(*node as u64),
        ClusterError::Codec { from, .. }
        | ClusterError::Aborted { from, .. }
        | ClusterError::Protocol { from, .. } => Some(*from as u64),
        _ => None,
    }
}

impl Links {
    fn inbox(&self) -> &em2_rt::RemoteInbox {
        self.inbox.get().expect("inbox attached before readers run")
    }

    fn now_ms(&self) -> u64 {
        self.ms_at(Instant::now())
    }

    /// `at` on the link clock (milliseconds since the link epoch).
    fn ms_at(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_millis() as u64
    }

    fn peer(&self, node: usize) -> &Peer {
        self.peers[node].as_ref().expect("no connection to self")
    }

    /// The runtime's census of resident envelopes (empty before the
    /// runtime is attached and after it is gone).
    fn backlog(&self) -> InboxBacklog {
        self.inbox.get().map(|i| i.backlog()).unwrap_or_default()
    }

    /// The control plane, poison-tolerant: a panicking holder must
    /// not cascade into every other thread's error path.
    fn lock_control(&self) -> MutexGuard<'_, Control> {
        self.control.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Hand a failure to the control plane (never under its guard).
    fn fail(&self, err: ClusterError) {
        self.control(Event::Fail(err));
    }

    /// Enqueue one message on a peer's egress FIFO and, if that
    /// found its writer idle, wake it. This is the whole hot path for a
    /// sender: one enqueue under the lane's lock plus at most one
    /// `unpark` — no syscall, no ledger, no blocking on a slow peer. A
    /// dead connection is the **writer's** discovery (it records the
    /// failure); producers cannot fail.
    fn send_to(&self, node: usize, msg: NetMsg) {
        let peer = self.peer(node);
        if peer.egress.push(EgressItem::Msg(msg)) {
            peer.unpark_writer();
        }
    }

    /// [`Links::send_to`] for an [`NetMsg::Abort`], which jumps the
    /// queue: pushed at the lane's head, it overtakes any backlog of
    /// data frames, under the lane's one wake protocol. Best-effort (a
    /// missing peer is ignored). If the writer then fails to flush it,
    /// that is an ordinary `send_failed` → `fail`, which `Control`
    /// ignores — the failure that sent this Abort came first — so the
    /// failure path cannot recurse.
    fn send_abort(&self, node: usize, reason: String) {
        if let Some(peer) = self.peers[node].as_ref() {
            if peer
                .egress
                .push_front(EgressItem::Msg(NetMsg::Abort { reason }))
            {
                peer.unpark_writer();
            }
        }
    }

    // ------------------------------------------- control-plane driver

    /// Feed one event to the control plane and perform what it
    /// decides. Returns whether that failed the run.
    ///
    /// `Send`s and `Abort`s leave under the guard — one enqueue — so
    /// frames reach each peer's FIFO in decision order even when two
    /// threads' events interleave (the `Quiesce` after a commit never
    /// overtakes that commit's `EpochUpdate`). Whatever calls into the
    /// runtime or re-enters the control plane (freeze and install
    /// report back; the flight dump reads the census) runs after the
    /// guard drops, in decision order; `Control` phrases a send that
    /// has to wait for one of those as a `Tell`.
    fn control(&self, ev: Event) -> bool {
        let mut rest = Vec::new();
        let earlier = {
            let mut c = self.lock_control();
            let before = c.next_deadline_ms();
            let mut out = Vec::new();
            c.on(&self.directory, self.now_ms(), ev, &mut out);
            for a in out {
                match a {
                    Action::Send { to, msg } => self.send_to(to, msg),
                    Action::Abort { to, reason } => self.send_abort(to, reason),
                    a => rest.push(a),
                }
            }
            // The ticker sleeps toward `before` (forever on `None`).
            let next = c.next_deadline_ms();
            next.is_some_and(|t| before.is_none_or(|b| t < b))
        };
        if earlier {
            if let Some(t) = self.ticker.get() {
                t.unpark();
            }
        }
        // A failure ends the event: what it had still queued (the rest
        // of a replay, its ack) belongs to a run that is over.
        rest.into_iter().any(|a| self.perform(a))
    }

    /// Perform one action outside the control guard. Returns whether
    /// it failed the run.
    fn perform(&self, a: Action) -> bool {
        let failure = match a {
            Action::Send { .. } | Action::Abort { .. } => unreachable!("sent under the guard"),
            Action::Deliver {
                from,
                shard,
                retries,
                msg,
            } => self
                .deliver(from, shard, retries, msg, Instant::now())
                .err(),
            Action::Route {
                shard,
                retries,
                msg,
            } => self.route_shard(shard, retries, msg).err(),
            Action::ReleaseBarrier { k } => {
                self.inbox().release_barrier(k);
                None
            }
            Action::Tell(msg) => return self.control(Event::Local(msg)),
            Action::Stop(failure) => {
                if let Some(inbox) = self.inbox.get() {
                    inbox.begin_shutdown();
                }
                // The crash flight recorder, best-effort: post-mortem
                // I/O must never mask the failure.
                if let (Some(err), Some(obs)) = (&failure, self.obs.get()) {
                    let backlog = self.backlog();
                    let census = self.lock_control().census(&self.directory, &backlog);
                    let peer = failure_peer(err);
                    if let Some(p) = peer {
                        obs.node_event(em2_obs::EventKind::PeerDown, p, 0);
                    }
                    let _ = obs.flight_dump(err.kind(), &err.to_string(), peer, Some(&census));
                }
                return failure.is_some();
            }
            Action::Freeze { hid, shard, to } => {
                // `None`: the local runtime is already torn down; the
                // run is over.
                let Some(frozen) = self.inbox().freeze_shard(shard as usize, to) else {
                    return false;
                };
                return self.control(Event::Froze {
                    hid,
                    to,
                    state: Box::new(frozen),
                });
            }
            Action::Install { from, hid, state } => {
                let shard = state.shard;
                match self.inbox().install_shard(*state) {
                    Ok(_) => return self.control(Event::Installed { hid, shard }),
                    Err(e) => Some(ClusterError::Handoff {
                        phase: "transfer".into(),
                        detail: format!(
                            "frozen state for shard {shard} from node {from} failed to install: \
                             {e}"
                        ),
                    }),
                }
            }
            Action::Note(n) => {
                if let Some(obs) = self.obs.get() {
                    match n {
                        Note::Event(kind, a, b) => obs.node_event(kind, a, b),
                        Note::Epoch(epoch) => obs.set_dir_epoch(epoch),
                    }
                }
                None
            }
        };
        failure.map(|e| self.fail(e)).is_some()
    }

    /// Hand one message — a view or owned — that node `from` sent (`me`:
    /// a local worker) to the local runtime, `received` being when it
    /// reached this node. One it cannot rebuild is a codec failure.
    fn deliver<B: AsRef<[u8]>>(
        &self,
        from: usize,
        shard: usize,
        retries: u32,
        msg: WireMsg<WireEnvelope<B>>,
        received: Instant,
    ) -> Result<(), ClusterError> {
        let delivered = self.inbox().deliver(shard, retries, msg, received);
        delivered.map(drop).map_err(|e| ClusterError::Codec {
            from,
            detail: format!("undeliverable message for shard {shard}: {e}"),
        })
    }

    /// Route one shard-addressed message by the current directory:
    /// deliver locally if this node owns it (ownership can flip toward
    /// us between enqueue and here), otherwise ship it to the owner
    /// stamped with our epoch and the frame's re-route count.
    fn route_shard(&self, to: usize, retries: u32, msg: WireMsg) -> Result<(), ClusterError> {
        // Epoch *before* owner: `ShardDirectory::install` publishes
        // the owners before the epoch, so reading in the opposite
        // order guarantees the stamp is never newer than the map that
        // chose the route. The receiver's fence relies on that: a
        // stamp ahead of the receiver's map then proves a committed
        // epoch the receiver has not installed yet, so the receiver
        // can safely park the frame until that `EpochUpdate` lands —
        // a stamp newer than any real commit would make it park on an
        // update that never arrives.
        let epoch = self.directory.epoch();
        let owner = self.directory.owner_of(to) as usize;
        if owner == self.me {
            return self.deliver(self.me, to, retries, msg, Instant::now());
        }
        self.send_to(
            owner,
            NetMsg::Shard {
                to: to as u32,
                epoch,
                retries,
                msg,
            },
        );
        Ok(())
    }
}

impl NodeLink for Links {
    fn forward(&self, to_shard: usize, retries: u32, msg: WireMsg) {
        // A dead connection is discovered (and recorded) by the owner
        // peer's writer; the worker notices the failure flag on its
        // next poll. Ownership may have flipped back toward us between
        // the runtime's check and here — route_shard delivers locally
        // in that case instead of bouncing off a confused peer. The
        // runtime passes through the re-route count of the frame it
        // was delivering (0 for its own sends), so the bounce budget
        // survives the local hop.
        if let Err(e) = self.route_shard(to_shard, retries, msg) {
            self.fail(e);
        }
    }

    fn forward_many(&self, msgs: &mut Vec<(usize, WireMsg)>) {
        // A shard's batch of remote replies: enqueue every message in
        // order, then wake each destination writer a push found idle —
        // after the whole batch, so the frames land in the writer's
        // window together and coalesce into one flush. Epoch read
        // before the owner loads — same stamp-not-newer-than-route rule
        // as `route_shard`.
        let epoch = self.directory.epoch();
        // One bit per destination node id below 64; a node past that
        // is woken per message, which is only less economical.
        let mut woken = 0u64;
        let mut local: Vec<(usize, WireMsg)> = Vec::new();
        for (to_shard, msg) in msgs.drain(..) {
            let owner = self.directory.owner_of(to_shard) as usize;
            if owner == self.me {
                // Flipped toward us mid-batch; deliver after the
                // remote pushes so the batch's wire frames still
                // coalesce.
                local.push((to_shard, msg));
                continue;
            }
            let peer = self.peer(owner);
            let woke = peer.egress.push(EgressItem::Msg(NetMsg::Shard {
                to: to_shard as u32,
                epoch,
                retries: 0,
                msg,
            }));
            if woke {
                match 1u64.checked_shl(owner as u32) {
                    Some(bit) => woken |= bit,
                    None => peer.unpark_writer(),
                }
            }
        }
        while woken != 0 {
            self.peer(woken.trailing_zeros() as usize).unpark_writer();
            woken &= woken - 1;
        }
        if local.is_empty() {
            return;
        }
        let received = Instant::now();
        for (to_shard, msg) in local {
            if let Err(e) = self.deliver(self.me, to_shard, 0, msg, received) {
                self.fail(e);
            }
        }
    }

    fn barrier_arrive(&self, k: usize) {
        self.control(Event::Local(NetMsg::BarrierArrive { k: k as u32 }));
    }

    fn task_retired(&self) {
        self.control(Event::Local(NetMsg::Retired));
    }

    fn node_closed(&self, submitted: u64) {
        self.control(Event::Local(NetMsg::Closed { submitted }));
    }
}

/// One reader thread: drain a peer connection into the runtime.
/// Returns — with this edge's receive ledger — on clean EOF (after the
/// peer's [`NetMsg::Bye`] or the cluster's quiesce) or after recording
/// a failure.
///
/// The hot path takes only the target mailbox's lock and touches
/// nothing else shared per frame: decode in place, sequence check, *we
/// own the shard*, `inbox.deliver` of the view, whose task builder
/// parses the continuation where the socket put it. The clock is read
/// per socket read, not per frame: one reading stamps the edge's
/// liveness and the arrival of every envelope that read brought in.
/// Every other frame is an event for the control plane.
fn reader_loop(links: &Links, from_node: usize, mut rx: Box<dyn FrameRx>) -> WireSnapshot {
    // The handshake frame consumed sequence 0 in each direction.
    let mut expected_seq: u64 = 1;
    let peer = links.peer(from_node);
    let mut wire = WireSnapshot::default();
    // When the bytes of the frame in hand reached this node.
    let mut received = Instant::now();
    loop {
        // A frame already sitting in the receive buffer arrived with
        // the read that was last stamped; only a `recv` that goes to
        // the carrier can block, and can learn anything about the
        // peer's liveness.
        let reads = !rx.buffered();
        // Borrowed from the receiver's buffer, and so is the view of a
        // `Shard` frame decoded from it.
        let frame = match rx.recv() {
            Ok(Some(f)) => f,
            // An EOF after the peer's goodbye is clean; any other end is
            // `Control`'s to judge (noise once the run is over).
            Ok(None) => {
                if !peer.bye.load(Ordering::Acquire) {
                    links.fail(ClusterError::PeerLost {
                        node: from_node,
                        detail: "connection closed without a goodbye".into(),
                    });
                }
                return wire;
            }
            Err(e) => {
                links.fail(ClusterError::PeerLost {
                    node: from_node,
                    detail: format!("receive failed: {e}"),
                });
                return wire;
            }
        };
        if reads {
            received = Instant::now();
            peer.last_rx_ms
                .store(links.ms_at(received), Ordering::Relaxed);
        }
        let (seq, view) = match NetMsg::view(frame) {
            Ok(x) => x,
            Err(e) => {
                links.fail(ClusterError::Codec {
                    from: from_node,
                    detail: e.to_string(),
                });
                return wire;
            }
        };
        if seq < expected_seq {
            // A replayed frame: its sequence was already consumed, so
            // dropping it is exactly once-delivery — this is why
            // duplicate faults leave the E12 sum bit-equal.
            wire.dupes_rx += 1;
            continue;
        }
        if seq > expected_seq {
            links.fail(ClusterError::Codec {
                from: from_node,
                detail: format!(
                    "sequence gap from node {from_node}: expected {expected_seq}, got {seq} — \
                     at least one frame was lost"
                ),
            });
            return wire;
        }
        expected_seq += 1;
        if !matches!(&view, NetView::Msg(m) if m.is_control()) {
            wire.frames_rx += 1;
            wire.bytes_rx += frame.len() as u64;
        }
        match view {
            NetView::Shard {
                to, retries, msg, ..
            } if (to as usize) < links.spec.total_shards
                && links.directory.owner_of(to as usize) as usize == links.me =>
            {
                if let Err(e) = links.deliver(from_node, to as usize, retries, msg, received) {
                    links.fail(e);
                    return wire;
                }
            }
            // Pure liveness: `last_rx_ms` was refreshed by the read
            // that brought it in.
            NetView::Msg(NetMsg::Heartbeat) => {}
            // EOF follows; the loop top takes the clean-close path.
            NetView::Msg(NetMsg::Bye) => peer.bye.store(true, Ordering::Release),
            // An owned copy for the control plane, which bounces or
            // parks a frame for a shard we do not own. A `Quiesce`
            // keeps us reading to EOF so the close is clean; a failure
            // (ours or an `Abort`) ends the stream.
            view => {
                let msg = view.into_owned();
                if links.control(Event::Msg {
                    from: from_node,
                    msg,
                }) {
                    return wire;
                }
            }
        }
    }
}

/// One writer thread: the single consumer of a peer's egress lane
/// and the sole owner of the connection's send half and its sequence
/// counter — sequence numbers are assigned in **queue order**, so the
/// wire stream is gap-free by construction no matter how producers
/// raced their pushes (DESIGN.md §11). Every frame it writes goes
/// through [`stage`].
///
/// Each wakeup moves up to [`COALESCE_FRAMES`] frames out of the FIFO
/// under one lock (an Abort, pushed at the head, leads its window),
/// encodes each straight into the edge's one reusable [`FrameBatch`],
/// and writes the window as **one flush** ([`FrameTx::send_batch`]: on
/// a stream transport, one `write` — a window that outgrows
/// [`COALESCE_BYTES`] flushes early), stamping the edge's
/// `last_tx_ms`. When the lane goes empty the writer parks until a push
/// wakes it: heartbeats are `Control`'s to send, through the lane like
/// any frame. The [`EgressItem::Close`] sentinel (pushed by
/// `finish` after the last data frame) drains the FIFO, appends
/// [`NetMsg::Bye`] on a clean run, flushes, closes, and exits — Bye
/// stays last on the wire.
fn writer_loop(links: &Links, node: usize, conn: Box<dyn FrameTx>) -> WireSnapshot {
    let peer = links.peer(node);
    let _ = peer.writer.set(std::thread::current());
    // This edge's timing-plane handle (`None` when obs is off).
    let pobs = links.obs.get().map(|o| o.register_peer(node as u64));
    // Every flush on this edge: one
    // write and one clock read behind it, then everything that is per
    // flush rather than per frame — the flush count, `queued` (how deep
    // `take` found the lane when this window opened) against the
    // egress high-water mark, the edge's `last_tx_ms` and (obs on) the
    // latency, which spans `send_batch` and nothing else: the exact
    // syscall cost the batch pays. What a failed write means is the
    // caller's policy.
    let flush = |c: &mut dyn FrameTx,
                 batch: &FrameBatch,
                 tx: &mut Egress,
                 queued: u64|
     -> std::io::Result<()> {
        let t0 = pobs.as_ref().map(|_| Instant::now());
        c.send_batch(batch)?;
        let written = Instant::now();
        tx.wire.flushes_tx += 1;
        tx.wire.egress_hwm = tx.wire.egress_hwm.max(queued);
        peer.last_tx_ms
            .store(links.ms_at(written), Ordering::Relaxed);
        if let (Some(po), Some(t0)) = (&pobs, t0) {
            po.record_flush(written.duration_since(t0).as_nanos() as u64, queued);
        }
        Ok(())
    };
    // What a failed write means.
    let send_failed = |e: std::io::Error| {
        links.fail(ClusterError::PeerLost {
            node,
            detail: format!("send failed: {e}"),
        })
    };
    let mut conn = Some(conn);
    // Every frame this edge sends is encoded into, and written from,
    // this one buffer; it grows to the largest window seen and stays.
    let mut batch = FrameBatch::default();
    let mut tx = Egress {
        // The handshake frame consumed sequence 0 in this direction.
        next_seq: 1,
        wire: WireSnapshot::default(),
    };
    // The window `take` moves out of the lane (capacity persists).
    let mut window: Vec<EgressItem> = Vec::with_capacity(COALESCE_FRAMES);
    loop {
        // Move one coalesce window out under one lock and flush it
        // once.
        let queued = peer.egress.take(&mut window, COALESCE_FRAMES) as u64;
        let popped = !window.is_empty();
        batch.clear();
        let mut close: Option<bool> = None;
        for item in window.drain(..) {
            let msg = match item {
                EgressItem::Msg(msg) => msg,
                EgressItem::Close { bye } => {
                    close = Some(bye);
                    break;
                }
            };
            // With the connection gone the queue still drains (and
            // frees) so producers never back up.
            let Some(c) = conn.as_mut() else { continue };
            stage(links, node, &msg, &mut batch, &mut tx);
            if batch.wire_len() >= COALESCE_BYTES {
                // The byte bound: a window of huge frames leaves in
                // several writes instead of buffering them all.
                if let Err(e) = flush(c.as_mut(), &batch, &mut tx, queued) {
                    conn = None;
                    send_failed(e);
                }
                batch.clear();
            }
        }

        if let Some(bye) = close {
            if let Some(mut c) = conn.take() {
                if bye {
                    stage(links, node, &NetMsg::Bye, &mut batch, &mut tx);
                }
                if !batch.is_empty() {
                    let _ = flush(c.as_mut(), &batch, &mut tx, queued);
                }
                let _ = c.close();
            }
            return tx.wire;
        }

        if !batch.is_empty() {
            let c = conn
                .as_mut()
                .expect("frames are only encoded with a live conn");
            if let Err(e) = flush(c.as_mut(), &batch, &mut tx, queued) {
                conn = None;
                send_failed(e);
            }
        }
        if popped {
            continue;
        }
        // Go idle under the lane's lock — unless a push raced in, which
        // `rest` sees — then park until a producer wakes us. A push
        // that lands after `rest` finds us idle and unparks; std's park
        // token makes that unpark stick even if it beats the park.
        if !peer.egress.rest(false) {
            std::thread::park();
        }
    }
}

/// What a writer thread owns besides its connection and its buffers:
/// plain memory, read by nobody else until the thread returns `wire`.
struct Egress {
    /// Sequence number of the next frame on this edge.
    next_seq: u64,
    /// This edge's egress ledger.
    wire: WireSnapshot,
}

/// Encode `msg` under the writer's next sequence number straight into
/// the flush buffer, counting it in `tx.wire`: every frame on the total
/// ledger, run traffic on the deterministic one, and a shipped envelope
/// — visible right here, in the `Shard{Arrive}` being encoded — on the
/// context ledger. A frozen shard is encoded here once, and with obs on
/// the source's ring learns its size from that frame before it leaves.
/// A message too large to frame (only a frozen shard can be) fails the
/// run typed and consumes no sequence number.
fn stage(links: &Links, node: usize, msg: &NetMsg, batch: &mut FrameBatch, tx: &mut Egress) {
    let len = match batch.push_with(|b| msg.encode_into(tx.next_seq, b)) {
        Ok(len) => len as u64,
        Err(e) => {
            return links.fail(ClusterError::PeerLost {
                node,
                detail: format!("send failed: {e}"),
            })
        }
    };
    tx.next_seq += 1;
    tx.wire.frames_tx_total += 1;
    tx.wire.bytes_tx_total += len;
    if !msg.is_control() {
        tx.wire.frames_tx += 1;
        tx.wire.bytes_tx += len;
    }
    if let NetMsg::Shard {
        msg: arrive @ WireMsg::Arrive(_),
        ..
    } = msg
    {
        tx.wire.arrives_tx += 1;
        tx.wire.context_bytes_tx += arrive.context_payload_len() as u64;
    }
    if let (NetMsg::HandoffTransfer { state, .. }, Some(obs)) = (msg, links.obs.get()) {
        let bytes = batch.frames().last().map_or(0, transfer_state_len) as u64;
        obs.node_event(
            em2_obs::EventKind::HandoffFreeze,
            u64::from(state.shard),
            bytes,
        );
    }
}

/// The node's one timer thread. `Control` owns every deadline (run,
/// handoff, and per edge heartbeat due and peer silence) but cannot
/// wake itself, so this thread feeds it `Tick`s carrying the runtime's
/// census and every edge's clocks, and `Control` answers with
/// heartbeats or the run's failure. It parks until the earliest
/// deadline (indefinitely when there is none), is unparked when an
/// event arms an earlier one and by `finish`, and exits once the run is
/// over — the workers stop only then, or on a task panic, which
/// `finish` re-raises.
fn ticker_loop(links: &Links) {
    let load = |clock: &AtomicU64| clock.load(Ordering::Relaxed);
    let clocks = |p: &Peer| (load(&p.last_rx_ms), load(&p.last_tx_ms));
    while !links.lock_control().over() {
        let backlog = links.backlog();
        let edges = links
            .peers
            .iter()
            .map(|p| p.as_ref().map_or((0, 0), clocks));
        let edges = edges.collect();
        links.control(Event::Tick { backlog, edges });
        // An arm that lands after this read unparks us; the token
        // makes the park below return at once.
        let next = links.lock_control().next_deadline_ms();
        match next {
            Some(t) => {
                let left = t.saturating_sub(links.now_ms()).max(1);
                std::thread::park_timeout(Duration::from_millis(left))
            }
            None => std::thread::park(),
        }
    }
}

/// Everything one node's run produces: the local runtime report plus
/// the wire telemetry. Cluster totals are the per-node counters summed
/// (each access executes on exactly one node; each heap word lives on
/// exactly one node).
#[derive(Debug)]
pub struct NetReport {
    /// This node's runtime report (flow counters, run histogram,
    /// wall clock — counters cover the work *executed here*).
    pub rt: RtReport,
    /// This node's wire telemetry.
    pub wire: WireSnapshot,
    /// This node's id.
    pub node: usize,
    /// Cluster size.
    pub nodes: usize,
    /// Transport the cluster ran on.
    pub transport: &'static str,
    /// The directory epoch at teardown: the cluster's initial epoch
    /// plus the number of committed shard handoffs this node observed.
    pub epoch: u64,
    /// Timing-plane metrics at quiesce (`None` when obs was off).
    /// Strictly telemetry: never part of any agreement comparison.
    pub obs: Option<em2_obs::Snapshot>,
}

/// A live cluster node: the local shard fleet plus its peer links.
pub struct NodeRuntime {
    rt: Option<Runtime>,
    links: Arc<Links>,
    readers: Vec<std::thread::JoinHandle<WireSnapshot>>,
    writers: Vec<std::thread::JoinHandle<WireSnapshot>>,
    ticker: std::thread::JoinHandle<()>,
    node: usize,
    transport: &'static str,
}

impl NodeRuntime {
    /// Join the cluster as `node` and bring the local shard range up,
    /// over the transport named by `spec.kind`.
    ///
    /// Blocks until connected to every peer: the handshake tolerates
    /// peers launching in any order within the spec's connect budget
    /// (`timeouts.connect_ms`), retrying with jittered exponential
    /// backoff. `cfg.shards` must equal the spec's cluster-wide shard
    /// count; `registry` must know every task kind the cluster
    /// migrates, and `scheme_factory` / `barrier_quotas` must be
    /// identical on every node (the handshake can only check the
    /// topology).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        spec: ClusterSpec,
        node: usize,
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        registry: TaskRegistry,
        scheme_factory: fn() -> Box<dyn em2_core::decision::DecisionScheme>,
        barrier_quotas: Vec<usize>,
    ) -> Result<NodeRuntime, ClusterError> {
        let transport = spec.kind.make();
        Self::start_with_transport(
            transport,
            spec,
            node,
            cfg,
            name,
            placement,
            registry,
            scheme_factory,
            barrier_quotas,
        )
    }

    /// [`NodeRuntime::start`] over an explicit transport — the seam
    /// the chaos harness injects [`crate::chaos::ChaosTransport`]
    /// through. `transport.kind()` should agree with `spec.kind` (it
    /// names the transport in reports).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_transport(
        transport: Box<dyn Transport>,
        spec: ClusterSpec,
        node: usize,
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        registry: TaskRegistry,
        scheme_factory: fn() -> Box<dyn em2_core::decision::DecisionScheme>,
        barrier_quotas: Vec<usize>,
    ) -> Result<NodeRuntime, ClusterError> {
        spec.validate()
            .map_err(|e| ClusterError::Config { detail: e })?;
        if node >= spec.num_nodes() {
            return Err(ClusterError::Config {
                detail: format!("node {node} not in a {}-node cluster", spec.num_nodes()),
            });
        }
        if cfg.shards != spec.total_shards {
            return Err(ClusterError::Config {
                detail: format!(
                    "cfg.shards ({}) != cluster shard count ({})",
                    cfg.shards, spec.total_shards
                ),
            });
        }
        let digest = spec.digest();
        let nodes = spec.num_nodes();
        let budget = Duration::from_millis(spec.timeouts.connect_ms.max(1));
        let handshake_deadline = Instant::now() + budget;

        // Accept from higher ids, dial lower ids.
        let expected_inbound = nodes - 1 - node;
        let mut acceptor = if expected_inbound > 0 {
            Some(transport.listen(&spec.nodes[node].addr)?)
        } else {
            None
        };

        let mut conns: Vec<Option<Duplex>> = (0..nodes).map(|_| None).collect();
        for peer in 0..node {
            let mut duplex =
                connect_with_retry(&*transport, &spec.nodes[peer].addr, handshake_deadline)?;
            duplex
                .tx
                .send_frame(
                    &NetMsg::Hello {
                        node: node as u32,
                        wire_version: WIRE_VERSION,
                        topology: digest,
                    }
                    .encode(0),
                )
                .map_err(|e| handshake_err(format!("sending Hello to node {peer}: {e}")))?;
            match recv_handshake(&mut *duplex.rx, handshake_deadline)? {
                NetMsg::HelloAck {
                    node: n,
                    topology: t,
                } if n as usize == peer && t == digest => {}
                other => {
                    return Err(handshake_err(format!(
                        "node {peer} answered {other:?} (topology digest {digest:#x})"
                    )))
                }
            }
            conns[peer] = Some(duplex);
        }
        for _ in 0..expected_inbound {
            let mut duplex = acceptor
                .as_mut()
                .expect("listening")
                .accept_deadline(handshake_deadline)
                .map_err(|e| handshake_err(format!("accepting a peer: {e}")))?;
            let peer = match recv_handshake(&mut *duplex.rx, handshake_deadline)? {
                NetMsg::Hello {
                    node: n,
                    wire_version,
                    topology,
                } => {
                    if wire_version != WIRE_VERSION {
                        return Err(handshake_err(format!(
                            "node {n} speaks wire version {wire_version}, this build {WIRE_VERSION}"
                        )));
                    }
                    if topology != digest {
                        return Err(handshake_err(format!(
                            "node {n} has topology digest {topology:#x}, this node {digest:#x}"
                        )));
                    }
                    let n = n as usize;
                    if n <= node || n >= nodes || conns[n].is_some() {
                        return Err(handshake_err(format!("unexpected Hello from node {n}")));
                    }
                    n
                }
                other => return Err(handshake_err(format!("expected Hello, got {other:?}"))),
            };
            duplex
                .tx
                .send_frame(
                    &NetMsg::HelloAck {
                        node: node as u32,
                        topology: digest,
                    }
                    .encode(0),
                )
                .map_err(|e| handshake_err(format!("answering node {peer}: {e}")))?;
            conns[peer] = Some(duplex);
        }
        drop(acceptor);

        let epoch = Instant::now();
        let mut peers: Vec<Option<Peer>> = Vec::with_capacity(nodes);
        let mut rxs: Vec<(usize, Box<dyn FrameRx>)> = Vec::new();
        let mut txs: Vec<(usize, Box<dyn FrameTx>)> = Vec::new();
        for (i, c) in conns.into_iter().enumerate() {
            match c {
                None => peers.push(None),
                Some(mut d) => {
                    // Clear any handshake receive deadline: run-phase
                    // liveness belongs to heartbeats and the run deadline.
                    let _ = d.rx.set_recv_timeout(None);
                    peers.push(Some(Peer::new()));
                    rxs.push((i, d.rx));
                    txs.push((i, d.tx));
                }
            }
        }
        // The directory starts from the spec's static assignment at
        // the spec's initial epoch; handoffs move it from there. One
        // Arc is shared by the runtime's send path and the link layer.
        let owners: Vec<u32> = (0..spec.total_shards)
            .map(|s| spec.owner_of(s) as u32)
            .collect();
        let directory = Arc::new(ShardDirectory::new(
            node as u32,
            spec.initial_epoch,
            &owners,
        ));
        let barriers = barrier_quotas.len();
        let control = Control::new(
            node,
            nodes,
            spec.total_shards,
            barrier_quotas,
            spec.timeouts,
        );
        let links = Arc::new(Links {
            me: node,
            directory: Arc::clone(&directory),
            control: Mutex::new(control),
            peers,
            inbox: OnceLock::new(),
            epoch,
            obs: OnceLock::new(),
            ticker: OnceLock::new(),
            spec,
        });

        let rt = Runtime::start_node(
            cfg,
            name,
            placement,
            scheme_factory,
            barriers,
            NodeRole {
                directory,
                node_id: node as u32,
                link: Arc::clone(&links) as Arc<dyn NodeLink>,
            },
        );
        // Arm the timing plane before the reader/writer threads spawn,
        // so every link thread observes the registry (or its absence)
        // consistently.
        if let Some(obs) = rt.obs() {
            obs.set_node(node as u64);
            for (i, p) in links.peers.iter().enumerate() {
                if p.is_some() {
                    obs.register_peer(i as u64);
                    obs.node_event(em2_obs::EventKind::PeerUp, i as u64, 0);
                }
            }
            links.obs.set(obs).expect("obs set once");
        }
        links
            .inbox
            .set(rt.remote_inbox(registry, scheme_factory))
            .ok()
            .expect("inbox set once");

        let kind_name = transport.kind();
        // The ticker first, registered before any reader can deliver
        // an event that arms a deadline.
        let ticker = {
            let links = Arc::clone(&links);
            std::thread::Builder::new()
                .name("em2-net-ticker".into())
                .spawn(move || ticker_loop(&links))
                .expect("spawn ticker")
        };
        links
            .ticker
            .set(ticker.thread().clone())
            .expect("ticker set once");
        let readers = rxs
            .into_iter()
            .map(|(peer, rx)| {
                let links = Arc::clone(&links);
                std::thread::Builder::new()
                    .name(format!("em2-net-rx-{peer}"))
                    .spawn(move || reader_loop(&links, peer, rx))
                    .expect("spawn reader")
            })
            .collect();
        let writers = txs
            .into_iter()
            .map(|(peer, tx)| {
                let links = Arc::clone(&links);
                std::thread::Builder::new()
                    .name(format!("em2-net-tx-{peer}"))
                    .spawn(move || writer_loop(&links, peer, tx))
                    .expect("spawn writer")
            })
            .collect();

        Ok(NodeRuntime {
            rt: Some(rt),
            links,
            readers,
            writers,
            ticker,
            node,
            transport: kind_name,
        })
    }

    /// Submit a task native to a locally owned shard, under a
    /// **cluster-unique** [`ThreadId`] (thread ids key guest-context
    /// admission and scheme tables across the whole cluster).
    pub fn submit(&mut self, spec: TaskSpec, thread: ThreadId) {
        self.rt
            .as_mut()
            .expect("node runtime is live")
            .submit_as(spec, thread);
    }

    /// Ask the coordinator to move `shard` to node `to`, live. The
    /// request is asynchronous: it enqueues on the coordinator's
    /// handoff ledger (a [`NetMsg::HandoffRequest`], handled on the
    /// spot on node 0) and commits in the background while the
    /// workload keeps running. Watch
    /// [`NodeRuntime::directory_epoch`] advance to observe commits; a
    /// handoff that cannot complete fails the run typed
    /// ([`ClusterError::Handoff`]) within the coordinator's 5 s
    /// handoff budget. A request naming the current owner is a no-op.
    ///
    /// # Panics
    /// Panics if `shard` or `to` is outside the cluster — misdirecting
    /// a handoff is a caller bug, not a runtime fault.
    pub fn request_handoff(&self, shard: usize, to: usize) {
        assert!(
            shard < self.links.spec.total_shards,
            "shard {shard} outside the cluster's {} shards",
            self.links.spec.total_shards
        );
        assert!(
            to < self.links.spec.num_nodes(),
            "node {to} outside the {}-node cluster",
            self.links.spec.num_nodes()
        );
        self.links.control(Event::Local(NetMsg::HandoffRequest {
            shard: shard as u32,
            to: to as u32,
        }));
    }

    /// The directory epoch as this node currently sees it: the spec's
    /// `initial_epoch` plus the number of committed handoffs observed.
    pub fn directory_epoch(&self) -> u64 {
        self.links.directory.epoch()
    }

    /// Whether this node has already recorded a failure (the typed
    /// error itself is returned by [`NodeRuntime::finish`]).
    pub fn has_failed(&self) -> bool {
        self.links.lock_control().failure().is_some()
    }

    /// This node's live obs registry (`None` when obs is off). Sample
    /// [`em2_obs::NodeObs::snapshot`] from any thread while the run is
    /// in flight — it reads relaxed atomics, never locks the runtime.
    pub fn obs(&self) -> Option<Arc<em2_obs::NodeObs>> {
        self.rt.as_ref().and_then(|rt| rt.obs())
    }

    /// Close admission, run the cluster to quiesce, tear down the
    /// connections, and report.
    ///
    /// On a healthy cluster this returns the node's counters after the
    /// coordinator's quiesce decision. On a sick one — a lost peer, a
    /// corrupt frame, a barrier that never releases, a quiesce that
    /// never arrives within the spec's `timeout_ms` — it returns the
    /// first [`ClusterError`] this node observed, after waking and
    /// draining the local workers. Partial counters are worse than no
    /// counters, so no report ever carries a failed run's numbers.
    ///
    /// # Panics
    /// Panics only if a *task* panicked (the runtime's panic fan-out
    /// re-raises it) — infrastructure failures are all `Err`.
    pub fn finish(mut self) -> Result<NetReport, ClusterError> {
        let rt = self.rt.take().expect("finish called once");
        // Closing admission arms the run deadline (`timeout_ms`) in
        // the control plane. Blocks until the coordinator's quiesce
        // decision reaches the local workers (via our reader threads)
        // — or until a failure forces the shutdown — and the workers
        // exit. Either way `Control` holds the run as over, so the
        // ticker, woken, exits.
        let report = rt.finish();
        self.ticker.thread().unpark();
        let ticker_panicked = self.ticker.join().is_err();
        let failed = self.links.lock_control().failure().cloned();
        // Teardown: push the Close sentinel after everything already
        // queued — each writer drains its FIFO up to the sentinel,
        // appends Bye iff the run was clean (so peers can tell our EOF
        // from a crash; a failed run's missing Bye *is* the failure
        // signal for peers that have not heard the abort yet), flushes
        // once, closes the connection, and exits.
        for p in self.links.peers.iter().flatten() {
            let bye = failed.is_none();
            if p.egress.push(EgressItem::Close { bye }) {
                p.unpark_writer();
            }
        }
        // Writers first; readers exit when peers close theirs (every
        // node does this after its own finish, bounded by its own run
        // deadline). Each hands back the ledger it kept.
        let mut wire = WireSnapshot::default();
        let mut panicked = ticker_panicked;
        for link_thread in self.writers.drain(..).chain(self.readers.drain(..)) {
            match link_thread.join() {
                Ok(counted) => wire.absorb(&counted),
                Err(_) => panicked = true,
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if panicked {
            return Err(ClusterError::Io {
                detail: "a link thread panicked without recording a failure".into(),
            });
        }
        Ok(NetReport {
            rt: report,
            wire,
            node: self.node,
            nodes: self.links.spec.num_nodes(),
            transport: self.transport,
            epoch: self.links.directory.epoch(),
            // Taken after the workers *and* writers joined, so the
            // flush histograms are settled.
            obs: self.links.obs.get().map(|o| o.snapshot()),
        })
    }
}

fn handshake_err(msg: String) -> ClusterError {
    ClusterError::Handshake { detail: msg }
}

/// Receive one handshake message with the remaining connect budget as
/// the read deadline — a peer that connects and then goes silent must
/// not wedge the whole cluster's startup.
fn recv_handshake(rx: &mut dyn FrameRx, deadline: Instant) -> Result<NetMsg, ClusterError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(handshake_err("connect budget exhausted".into()));
    }
    let _ = rx.set_recv_timeout(Some(left));
    let frame = rx
        .recv()
        .map_err(|e| handshake_err(format!("receive failed: {e}")))?
        .ok_or_else(|| handshake_err("peer closed during handshake".into()))?;
    let (seq, msg) = NetMsg::decode(frame).map_err(|e| handshake_err(e.to_string()))?;
    if seq != 0 {
        return Err(handshake_err(format!(
            "handshake frame carried sequence {seq}, expected 0"
        )));
    }
    Ok(msg)
}

/// Dial `addr` until it answers or the deadline passes, backing off
/// exponentially (2 ms doubling to a 200 ms cap) with deterministic
/// jitter seeded from the address — retries from many nodes spread
/// out instead of stampeding the listener in lockstep.
fn connect_with_retry(
    transport: &dyn Transport,
    addr: &str,
    deadline: Instant,
) -> Result<Duplex, ClusterError> {
    let t0 = Instant::now();
    let mut rng = DetRng::new(fnv1a(FNV1A_INIT, addr.as_bytes()));
    let mut delay_ms: u64 = 2;
    loop {
        match transport.connect(addr) {
            Ok(d) => return Ok(d),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(ClusterError::ConnectTimeout {
                        addr: addr.to_string(),
                        waited_ms: t0.elapsed().as_millis() as u64,
                        detail: e.to_string(),
                    });
                }
                let jittered = delay_ms / 2 + rng.below(delay_ms / 2 + 1);
                let left = deadline.saturating_duration_since(now);
                std::thread::sleep(Duration::from_millis(jittered).min(left));
                delay_ms = (delay_ms * 2).min(200);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A send half that keeps every frame it is flushed, in wire order.
    struct Capture(Arc<Mutex<Vec<Vec<u8>>>>);

    impl FrameTx for Capture {
        fn send_batch(&mut self, batch: &FrameBatch) -> std::io::Result<()> {
            let mut wire = self.0.lock().expect("capture");
            wire.extend(batch.frames().map(<[u8]>::to_vec));
            Ok(())
        }
    }

    /// Node 1 of 2 with no thread running: whatever is sent to node 0
    /// waits in the lane for a writer that has not started.
    fn leaf() -> Links {
        let spec = ClusterSpec::loopback(2, 4);
        let owners: Vec<u32> = (0..4).map(|s| spec.owner_of(s) as u32).collect();
        Links {
            me: 1,
            directory: Arc::new(ShardDirectory::new(1, 0, &owners)),
            control: Mutex::new(Control::new(1, 2, 4, Vec::new(), spec.timeouts)),
            peers: vec![Some(Peer::new()), None],
            inbox: OnceLock::new(),
            epoch: Instant::now(),
            obs: OnceLock::new(),
            ticker: OnceLock::new(),
            spec,
        }
    }

    #[test]
    fn an_abort_pushed_behind_a_backlog_is_the_first_frame_on_the_wire() {
        let links = leaf();
        let backlog = 2 * COALESCE_FRAMES + 5;
        for _ in 0..backlog {
            links.send_to(0, NetMsg::Retired);
        }
        // The run fails last: a leaf tells the coordinator, node 0.
        links.fail(ClusterError::Io {
            detail: "injected".into(),
        });
        assert_eq!(links.lock_control().failure().map(|e| e.kind()), Some("io"));
        links.peer(0).egress.push(EgressItem::Close { bye: false });

        let wire = Arc::new(Mutex::new(Vec::new()));
        let counted = writer_loop(&links, 0, Box::new(Capture(Arc::clone(&wire))));
        let frames = wire.lock().expect("capture");
        assert_eq!(frames.len(), backlog + 1, "nothing lost, no Bye");
        assert_eq!(counted.frames_tx_total, frames.len() as u64);
        // Sequence numbers are assigned at pop time: the queue-jumper
        // takes the first, and the stream stays gap-free behind it.
        for (i, frame) in frames.iter().enumerate() {
            let (seq, msg) = NetMsg::decode(frame).expect("a frame the writer encoded");
            assert_eq!(seq, i as u64 + 1);
            match (i, msg) {
                (0, NetMsg::Abort { reason }) => assert!(reason.contains("injected"), "{reason}"),
                (0, other) => panic!("first on the wire: {other:?}"),
                (_, msg) => assert!(matches!(msg, NetMsg::Retired), "frame {i}: {msg:?}"),
            }
        }
    }

    #[test]
    fn a_frozen_shard_is_encoded_once_and_its_size_reaches_the_ring() {
        let dir = std::env::temp_dir().join(format!("em2-node-freeze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let mut cfg = em2_obs::ObsConfig::on();
        cfg.flight_dir = Some(dir.clone());
        let obs = em2_obs::NodeObs::new(cfg, 4);
        let links = leaf();
        links.obs.set(Arc::clone(&obs)).expect("obs set once");
        let state = em2_rt::wire::FrozenShard {
            shard: 2,
            heap: vec![(64, 7), (128, 9)],
            natives: vec![3],
            ..Default::default()
        };
        let (hid, encoded) = (1, state.encode().len());
        let state = Box::new(state);
        links.send_to(0, NetMsg::HandoffTransfer { hid, state });
        links.peer(0).egress.push(EgressItem::Close { bye: true });

        let wire = Arc::new(Mutex::new(Vec::new()));
        writer_loop(&links, 0, Box::new(Capture(Arc::clone(&wire))));
        let transfer = wire.lock().expect("capture")[0].len();
        let dump = obs.flight_dump("test", "end", None, None).expect("dump");
        let text = std::fs::read_to_string(dump.expect("first dump")).expect("read dump");
        let _ = std::fs::remove_dir_all(&dir);
        let freezes: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(r#""ev":"handoff-freeze""#))
            .collect();
        assert_eq!(freezes.len(), 1, "{text}");
        let at = freezes[0].find(r#""state_bytes":"#).expect("state_bytes") + 14;
        let digits = freezes[0][at..].split(|c: char| !c.is_ascii_digit()).next();
        let state_bytes: usize = digits.and_then(|d| d.parse().ok()).expect("a number");
        assert!(freezes[0].contains(r#""shard":2"#), "{}", freezes[0]);
        assert!(
            0 < state_bytes && state_bytes <= transfer,
            "{state_bytes} of {transfer}"
        );
        assert_eq!(
            state_bytes, encoded,
            "the state's own encoding, measured in the frame"
        );
    }
}
