//! The node layer: one process's shard fleet wired to its peers, and
//! the threads that drive its rules. The rules are sans-IO — what an
//! edge does with a frame and how a connection opens are `edge.rs`'s,
//! every decision is `control.rs`'s — so this module keeps drivers:
//!
//! * [`NodeRuntime`] brings the node up — it listens, dials every lower
//!   id (sleeping through `edge::backoff` until the peer is up) and
//!   exchanges the `edge::Greeting` — and tears it down;
//! * `Links`, what the threads share, routes each message the runtime
//!   forwards for a shard it does not own ([`em2_rt::NodeLink`]) onto
//!   the owner peer's **egress lane** — the shard worker never touches
//!   a socket or waits on a slow peer — and drives `Control`: it feeds
//!   it what the threads observe and performs what it decides;
//! * three loops: per peer, a **writer** that flushes its lane in
//!   coalesced windows through `edge::Egress` and a **reader** that
//!   hands each frame to `edge::Ingress` and delivers run traffic for a
//!   shard we own through [`em2_rt::RemoteInbox`], the executor's
//!   ordinary mailbox/waker seam (DESIGN.md §11); and one **ticker**
//!   that feeds `Control` time.
//!
//! Nothing here panics or hangs on a sick cluster (DESIGN.md §10): the
//! first failure a node observes is `Control`'s, relayed as an
//! [`NetMsg::Abort`], the local workers are drained, and
//! [`NodeRuntime::finish`] returns it instead of counters that never
//! converged.
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
use crate::edge::{backoff, handshake_err, Egress, Greeting, Inbound, Ingress};
use crate::error::ClusterError;
use crate::proto::NetMsg;
use crate::transport::{Duplex, FrameBatch, FrameRx, FrameTx, Transport};
use em2_model::ThreadId;
use em2_placement::Placement;
use em2_rt::mpsc::MpscQueue;
use em2_rt::wire::{WireEnvelope, WireMsg};
use em2_rt::{
    NodeLink, NodeRole, Outbound, RtConfig, RtReport, Runtime, ShardDirectory, Stash, TaskRegistry,
    TaskSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames one writer flush may coalesce (the bounded window that keeps
/// a burst from turning into unbounded latency for the frame at its
/// head).
const COALESCE_FRAMES: usize = 64;

/// Byte bound on one coalesced flush (a window of maximum-size frames
/// must not buffer tens of MiB before the first byte moves).
const COALESCE_BYTES: usize = 256 << 10;

pub use crate::edge::WireSnapshot;

/// What travels down a peer's egress queue. The writer assigns each
/// frame's sequence number at pop time.
enum EgressItem {
    /// Run traffic for shard `to`, stamped with the sender's directory
    /// `epoch` and the frame's re-route count: the executor's own
    /// message, which the writer encodes as a [`NetMsg::Shard`] and then
    /// hands back to the runtime ([`em2_rt::RemoteInbox::recycle`]).
    Shard {
        to: u32,
        epoch: u64,
        retries: u32,
        msg: Outbound,
    },
    /// Any other frame.
    Msg(NetMsg),
    /// Teardown sentinel, pushed by `finish` after everything else;
    /// `bye` iff the run was clean.
    Close { bye: bool },
}

/// One peer edge: the egress lane its writer thread drains and the
/// edge's liveness clocks, which the ticker hands to `Control`. The
/// connection's send half is **owned by the writer thread** — no
/// shared send state, so the producer side (`forward`, coordinator
/// logic) only ever holds the lane's lock for one enqueue.
#[derive(Default)]
struct Peer {
    /// The egress lane; the writer is the single consumer. Its lock
    /// serializes pushes, and that FIFO order is what keeps Closed-
    /// after-last-Shard and Bye-last intact (DESIGN.md §11); only an
    /// Abort enters at the head. The push that finds the writer idle
    /// unparks it.
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
}

impl Peer {
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
    /// The control plane, the protocol's only lock; the data path
    /// (`forward`, `send_to`, `forward_many`, the writers) never
    /// takes it. Sends leave under it, so the lock order is control →
    /// egress lane, and a lane's lock is a leaf.
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

    /// The control plane, poison-tolerant: a panicking holder must
    /// not cascade into every other thread's error path.
    fn lock_control(&self) -> MutexGuard<'_, Control> {
        self.control.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Hand a failure to the control plane (never under its guard).
    fn fail(&self, err: ClusterError) {
        self.control(Event::Fail(err));
    }

    /// Enqueue one frame on a peer's egress FIFO and, if that found
    /// its writer idle, wake it. This is the whole hot path for a
    /// sender: one enqueue under the lane's lock plus at most one
    /// `unpark` — no syscall, no ledger, no blocking on a slow peer. A
    /// dead connection is the **writer's** discovery (it records the
    /// failure); producers cannot fail.
    fn push(&self, node: usize, item: EgressItem) {
        let peer = self.peer(node);
        if peer.egress.push(item) {
            peer.unpark_writer();
        }
    }

    /// [`Links::push`] of any frame but run traffic.
    fn send_to(&self, node: usize, msg: NetMsg) {
        self.push(node, EgressItem::Msg(msg));
    }

    /// [`Links::send_to`] for an [`NetMsg::Abort`], which jumps the
    /// queue: pushed at the lane's head, it overtakes any backlog of
    /// data frames, under the lane's one wake protocol. Best-effort (a
    /// missing peer is ignored). If the writer then fails to flush it,
    /// that is an ordinary failed write → `fail`, which `Control`
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
                .deliver(from, shard, retries, msg, Instant::now(), None)
                .err(),
            // Rebuilt into the executor's form first, then routed as a
            // worker's send is: into a mailbox here if this node owns
            // the shard now, onto the owner's lane otherwise.
            Action::Route {
                shard,
                retries,
                msg,
            } => self
                .deliver(self.me, shard, retries, msg, Instant::now(), None)
                .err(),
            Action::ReleaseBarrier { k } => {
                self.inbox().release_barrier(k);
                None
            }
            Action::Tell(msg) => return self.control(Event::Local(msg)),
            Action::Census { waited_ms } => {
                let backlog = self.inbox().backlog();
                return self.control(Event::Census { waited_ms, backlog });
            }
            Action::Stop(failure) => {
                if let Some(inbox) = self.inbox.get() {
                    inbox.begin_shutdown();
                }
                // The crash flight recorder, best-effort: post-mortem
                // I/O must never mask the failure.
                if let (Some(err), Some(obs)) = (&failure, self.obs.get()) {
                    let backlog = self.inbox.get().map(|i| i.backlog()).unwrap_or_default();
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
                let state = Box::new(frozen);
                return self.control(Event::Froze { hid, to, state });
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
    /// reached this node; a reader passes its `stash` of spare envelope
    /// boxes. One it cannot rebuild is a codec failure.
    fn deliver<B: AsRef<[u8]>>(
        &self,
        from: usize,
        shard: usize,
        retries: u32,
        msg: WireMsg<WireEnvelope<B>>,
        received: Instant,
        stash: Option<&mut Stash>,
    ) -> Result<(), ClusterError> {
        let delivered = self.inbox().deliver(shard, retries, msg, received, stash);
        delivered.map(drop).map_err(|e| ClusterError::Codec {
            from,
            detail: format!("undeliverable message for shard {shard}: {e}"),
        })
    }
}

impl NodeLink for Links {
    /// Route one shard-addressed message by the current directory: ship
    /// it to the owner stamped with our epoch and the frame's re-route
    /// count, or — ownership flipped back toward us between the
    /// runtime's check and here — hand it back to the local runtime
    /// instead of bouncing it off a confused peer. The runtime passes
    /// through the re-route count of the frame it was delivering (0 for
    /// its own sends), so the bounce budget survives the local hop. A
    /// dead connection is discovered (and recorded) by the owner peer's
    /// writer; the worker notices the failure flag on its next poll.
    fn forward(&self, to_shard: usize, retries: u32, msg: Outbound) {
        // Epoch *before* owner: `ShardDirectory::install` publishes
        // the owners before the epoch, so reading in the opposite
        // order guarantees the stamp is never newer than the map that
        // chose the route — the proof the receiver's fence parks on
        // (`Control::fence`).
        let epoch = self.directory.epoch();
        let owner = self.directory.owner_of(to_shard) as usize;
        if owner == self.me {
            self.inbox().reroute(to_shard, retries, msg);
            return;
        }
        let to = to_shard as u32;
        let item = EgressItem::Shard {
            to,
            epoch,
            retries,
            msg,
        };
        self.push(owner, item);
    }

    fn forward_many(&self, msgs: &mut Vec<(usize, Outbound)>) {
        // A shard's batch of remote replies: enqueue every message in
        // order, then wake each destination writer a push found idle —
        // after the whole batch, so the frames land in the writer's
        // window together and coalesce into one flush. Epoch read
        // before the owner loads — same stamp-not-newer-than-route rule
        // as `forward`.
        let epoch = self.directory.epoch();
        // One bit per destination node id below 64; a node past that
        // is woken per message, which is only less economical.
        let mut woken = 0u64;
        let mut local: Vec<(usize, Outbound)> = Vec::new();
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
            let woke = peer.egress.push(EgressItem::Shard {
                to: to_shard as u32,
                epoch,
                retries: 0,
                msg,
            });
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
        for (to_shard, msg) in local {
            self.inbox().reroute(to_shard, 0, msg);
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
/// [`Ingress::take`] says what each frame asks for. The hot path takes
/// only the target mailbox's lock: `inbox.deliver` of the view, whose
/// task builder parses the continuation where the socket put it, into
/// an envelope box a send gave back, from the reader's own [`Stash`]. The
/// clock is read per socket read, not per frame: one reading stamps
/// the edge's liveness and the arrival of every envelope that read
/// brought in.
fn reader_loop(links: &Links, from: usize, mut rx: Box<dyn FrameRx>) -> WireSnapshot {
    let peer = links.peer(from);
    let mut ingress = Ingress::new(from, links.spec.total_shards);
    let mut stash = Stash::default();
    let owns = |shard: usize| links.directory.owner_of(shard) as usize == links.me;
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
            end => {
                if let Some(e) = ingress.ended(end.err()) {
                    links.fail(e);
                }
                return ingress.wire;
            }
        };
        if reads {
            received = Instant::now();
            peer.last_rx_ms
                .store(links.ms_at(received), Ordering::Relaxed);
        }
        let failure = match ingress.take(frame, owns) {
            Ok(Inbound::Deliver {
                shard,
                retries,
                msg,
            }) => {
                let stash = Some(&mut stash);
                links
                    .deliver(from, shard, retries, msg, received, stash)
                    .err()
            }
            Ok(Inbound::Nothing) => None,
            // A `Quiesce` keeps us reading to EOF so the close is
            // clean; a failure (ours or an `Abort`) ends the stream.
            Ok(Inbound::Control(msg)) => match links.control(Event::Msg { from, msg }) {
                true => return ingress.wire,
                false => None,
            },
            Err(e) => Some(e),
        };
        if let Some(e) = failure {
            links.fail(e);
            return ingress.wire;
        }
    }
}

/// One writer thread: the single consumer of a peer's egress lane
/// and the sole owner of the connection's send half and its sequence
/// counter — sequence numbers are assigned in **queue order**, so the
/// wire stream is gap-free by construction no matter how producers
/// raced their pushes (DESIGN.md §11).
///
/// Each wakeup moves up to [`COALESCE_FRAMES`] frames out of the FIFO
/// under one lock (an Abort, pushed at the head, leads its window),
/// stages each through [`Egress`] into the edge's one reusable
/// [`FrameBatch`] — run traffic straight from the executor's message,
/// its task writing its own context — and writes the window as **one
/// flush** ([`FrameTx::send_batch`]: on a stream transport, one `write`
/// — a window that outgrows [`COALESCE_BYTES`] flushes early). After
/// each flush, the messages it carried go back to the runtime in one
/// call ([`em2_rt::RemoteInbox::recycle`]), their envelope boxes to be
/// refilled by a reader. When the lane goes empty the writer parks
/// until a push wakes it. The
/// [`EgressItem::Close`] sentinel (pushed by `finish` after the last
/// data frame) drains the FIFO, appends [`NetMsg::Bye`] on a clean
/// run, flushes, closes, and exits — Bye stays last on the wire.
fn writer_loop(links: &Links, node: usize, conn: Box<dyn FrameTx>) -> WireSnapshot {
    let peer = links.peer(node);
    let _ = peer.writer.set(std::thread::current());
    // This edge's timing-plane handle (`None` when obs is off).
    let pobs = links.obs.get().map(|o| o.register_peer(node as u64));
    let mut conn = Some(conn);
    let mut tx = Egress::new(node);
    // Every frame this edge sends is encoded into, and written from,
    // this one buffer; it grows to the largest window seen and stays.
    let mut batch = FrameBatch::default();
    // Encode one frame into the batch: a frame too large to send fails
    // the run, and a frozen shard's size goes to the ring.
    let stage = |msg: &NetMsg, batch: &mut FrameBatch, tx: &mut Egress| match tx.stage(msg, batch) {
        Err(e) => links.fail(e),
        Ok(freeze) => {
            if let (Some((shard, bytes)), Some(obs)) = (freeze, links.obs.get()) {
                let kind = em2_obs::EventKind::HandoffFreeze;
                obs.node_event(kind, u64::from(shard), bytes);
            }
        }
    };
    // Write a non-empty batch out on a live connection, and empty it:
    // one write and one clock read behind it, then what is per flush —
    // the counts, `last_tx_ms` and (obs on) the latency of `send_batch`
    // alone — and the runtime takes back the messages the batch
    // carried. A failed write drops the connection and fails the run.
    let flush = |conn: &mut Option<Box<dyn FrameTx>>,
                 batch: &mut FrameBatch,
                 spent: &mut Vec<Outbound>,
                 tx: &mut Egress,
                 queued: u64| {
        if let Some(c) = conn.as_mut().filter(|_| !batch.is_empty()) {
            let t0 = pobs.as_ref().map(|_| Instant::now());
            if let Err(e) = c.send_batch(batch) {
                *conn = None;
                links.fail(tx.lost(e));
            } else {
                let written = Instant::now();
                tx.flushed(queued);
                peer.last_tx_ms
                    .store(links.ms_at(written), Ordering::Relaxed);
                if let (Some(po), Some(t0)) = (&pobs, t0) {
                    po.record_flush(written.duration_since(t0).as_nanos() as u64, queued);
                }
            }
        }
        batch.clear();
        if !spent.is_empty() {
            links.inbox().recycle(spent);
        }
    };
    // The window `take` moves out of the lane, and the run traffic of
    // the batch in hand (capacities persist).
    let mut window: Vec<EgressItem> = Vec::with_capacity(COALESCE_FRAMES);
    let mut spent: Vec<Outbound> = Vec::with_capacity(COALESCE_FRAMES);
    loop {
        // Move one coalesce window out under one lock and flush it
        // once.
        let queued = peer.egress.take(&mut window, COALESCE_FRAMES) as u64;
        let popped = !window.is_empty();
        let mut close: Option<bool> = None;
        for item in window.drain(..) {
            match item {
                EgressItem::Close { bye } => {
                    close = Some(bye);
                    break;
                }
                // With the connection gone the queue still drains (and
                // frees) so producers never back up.
                _ if conn.is_none() => {}
                EgressItem::Shard {
                    to,
                    epoch,
                    retries,
                    msg,
                } => {
                    if let Err(e) = tx.stage_shard(to, epoch, retries, &msg, &mut batch) {
                        links.fail(e);
                    }
                    spent.push(msg);
                }
                EgressItem::Msg(msg) => stage(&msg, &mut batch, &mut tx),
            }
            // The byte bound: a window of huge frames leaves in several
            // writes instead of buffering them all.
            if batch.wire_len() >= COALESCE_BYTES {
                flush(&mut conn, &mut batch, &mut spent, &mut tx, queued);
            }
        }
        if let Some(bye) = close {
            if bye && conn.is_some() {
                stage(&NetMsg::Bye, &mut batch, &mut tx);
            }
            flush(&mut conn, &mut batch, &mut spent, &mut tx, queued);
            if let Some(mut c) = conn.take() {
                let _ = c.close();
            }
            return tx.wire;
        }
        flush(&mut conn, &mut batch, &mut spent, &mut tx, queued);
        // Go idle under the lane's lock — unless this window took
        // something, or a push raced in, which `rest` sees — then park
        // until a producer wakes us. A push that lands after `rest`
        // finds us idle and unparks; std's park token makes that unpark
        // stick even if it beats the park.
        if !popped && !peer.egress.rest(false) {
            std::thread::park();
        }
    }
}

/// The node's one timer thread. `Control` owns every deadline but
/// cannot wake itself, so this thread feeds it `Tick`s carrying every
/// edge's clocks. It parks until the earliest deadline (indefinitely
/// when there is none), is unparked when an event arms an earlier one
/// and by `finish`, and exits once the run is over — the workers stop
/// only then, or on a task panic, which `finish` re-raises.
fn ticker_loop(links: &Links) {
    let load = |clock: &AtomicU64| clock.load(Ordering::Relaxed);
    let clocks = |p: &Peer| (load(&p.last_rx_ms), load(&p.last_tx_ms));
    while !links.lock_control().over() {
        let edges = links.peers.iter();
        let edges = edges.map(|p| p.as_ref().map_or((0, 0), clocks)).collect();
        links.control(Event::Tick { edges });
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
    /// Each peer's writer and reader, which hand back their ledgers.
    edges: Vec<JoinHandle<WireSnapshot>>,
    ticker: JoinHandle<()>,
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
        let config = |detail| ClusterError::Config { detail };
        spec.validate().map_err(config)?;
        let nodes = spec.num_nodes();
        if node >= nodes {
            return Err(config(format!("node {node} not in a {nodes}-node cluster")));
        }
        if cfg.shards != spec.total_shards {
            let (have, want) = (cfg.shards, spec.total_shards);
            return Err(config(format!(
                "cfg.shards ({have}) != cluster shard count ({want})"
            )));
        }
        let greeting = Greeting {
            me: node,
            nodes,
            digest: spec.digest(),
        };
        let budget = Duration::from_millis(spec.timeouts.connect_ms.max(1));
        let deadline = Instant::now() + budget;

        // Listen, dial every lower id, then accept every higher one.
        let inbound = nodes - 1 - node;
        let listen = || transport.listen(&spec.nodes[node].addr);
        let mut acceptor = (inbound > 0).then(listen).transpose()?;
        let mut conns: Vec<Option<Duplex>> = (0..nodes).map(|_| None).collect();
        for peer in 0..node {
            let mut d = connect_with_retry(&*transport, &spec.nodes[peer].addr, deadline)?;
            let sent = d.tx.send_frame(&greeting.hello());
            sent.map_err(|e| handshake_err(format!("sending Hello to node {peer}: {e}")))?;
            greeting.check(recv_handshake(&mut *d.rx, deadline)?, Some(peer), |_| false)?;
            conns[peer] = Some(d);
        }
        for _ in 0..inbound {
            let accepted = acceptor
                .as_mut()
                .expect("listening")
                .accept_deadline(deadline);
            let mut d = accepted.map_err(|e| handshake_err(format!("accepting a peer: {e}")))?;
            let hello = recv_handshake(&mut *d.rx, deadline)?;
            let peer = greeting.check(hello, None, |n| conns[n].is_some())?;
            let sent = d.tx.send_frame(&greeting.ack());
            sent.map_err(|e| handshake_err(format!("answering node {peer}: {e}")))?;
            conns[peer] = Some(d);
        }
        drop(acceptor);

        let epoch = Instant::now();
        let peers = conns.iter().map(|c| c.as_ref().map(|_| Peer::default()));
        let peers = peers.collect();
        // The directory starts from the spec's static assignment at
        // the spec's initial epoch; handoffs move it from there. One
        // Arc is shared by the runtime's send path and the link layer.
        let owners = (0..spec.total_shards).map(|s| spec.owner_of(s) as u32);
        let owners: Vec<u32> = owners.collect();
        let directory = ShardDirectory::new(node as u32, spec.initial_epoch, &owners);
        let directory = Arc::new(directory);
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
            for i in (0..nodes as u64).filter(|&i| i != node as u64) {
                obs.register_peer(i);
                obs.node_event(em2_obs::EventKind::PeerUp, i, 0);
            }
            links.obs.set(obs).expect("obs set once");
        }
        let inbox = rt.remote_inbox(registry, scheme_factory);
        links.inbox.set(inbox).ok().expect("inbox set once");

        // The ticker first, registered before any reader can deliver
        // an event that arms a deadline.
        let ticker = {
            let links = Arc::clone(&links);
            spawn("em2-net-ticker".into(), move || ticker_loop(&links))
        };
        let ticker_thread = ticker.thread().clone();
        links.ticker.set(ticker_thread).expect("ticker set once");
        let mut edges = Vec::new();
        for (peer, d) in conns.into_iter().enumerate() {
            let Some(mut d) = d else { continue };
            // Clear the handshake receive deadline: run-phase liveness
            // belongs to heartbeats and the run deadline.
            let _ = d.rx.set_recv_timeout(None);
            let (rx_links, tx_links) = (Arc::clone(&links), Arc::clone(&links));
            let read = move || reader_loop(&rx_links, peer, d.rx);
            edges.push(spawn(format!("em2-net-rx-{peer}"), read));
            let write = move || writer_loop(&tx_links, peer, d.tx);
            edges.push(spawn(format!("em2-net-tx-{peer}"), write));
        }

        Ok(NodeRuntime {
            rt: Some(rt),
            links,
            edges,
            ticker,
            transport: transport.kind(),
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
        // Writers exit at their sentinel; readers when peers close
        // theirs (every node does this after its own finish, bounded by
        // its own run deadline).
        let mut wire = WireSnapshot::default();
        let mut panicked = ticker_panicked;
        for link_thread in self.edges.drain(..) {
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
            node: self.links.me,
            nodes: self.links.spec.num_nodes(),
            transport: self.transport,
            epoch: self.links.directory.epoch(),
            // Taken after the workers *and* writers joined, so the
            // flush histograms are settled.
            obs: self.links.obs.get().map(|o| o.snapshot()),
        })
    }
}

/// Start one of the node's threads, named `name`.
fn spawn<T: Send + 'static>(name: String, f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    let spawned = std::thread::Builder::new().name(name).spawn(f);
    spawned.expect("spawn a node thread")
}

/// Receive one handshake frame with the remaining connect budget as
/// the read deadline — a peer that connects and then goes silent must
/// not wedge the whole cluster's startup.
fn recv_handshake(rx: &mut dyn FrameRx, deadline: Instant) -> Result<&[u8], ClusterError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(handshake_err("connect budget exhausted".into()));
    }
    let _ = rx.set_recv_timeout(Some(left));
    rx.recv()
        .map_err(|e| handshake_err(format!("receive failed: {e}")))?
        .ok_or_else(|| handshake_err("peer closed during handshake".into()))
}

/// Dial `addr` until it answers or the deadline passes, sleeping
/// through [`backoff`]'s schedule between refusals.
fn connect_with_retry(
    transport: &dyn Transport,
    addr: &str,
    deadline: Instant,
) -> Result<Duplex, ClusterError> {
    let t0 = Instant::now();
    let mut wait = backoff(addr);
    loop {
        let e = match transport.connect(addr) {
            Ok(d) => return Ok(d),
            Err(e) => e,
        };
        let now = Instant::now();
        if now >= deadline {
            return Err(ClusterError::ConnectTimeout {
                addr: addr.to_string(),
                waited_ms: t0.elapsed().as_millis() as u64,
                detail: e.to_string(),
            });
        }
        std::thread::sleep(wait(deadline - now));
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
            peers: vec![Some(Peer::default()), None],
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
