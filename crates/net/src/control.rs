//! The control plane as one sans-IO state machine.
//!
//! Everything a node *decides* about a frame that is not run traffic
//! for a shard it owns lives in [`Control`]: barriers, completion
//! accounting and quiesce, the `Prepare → Freeze → Transfer → Commit`
//! handoff protocol, epoch fencing (buffer / park / bounce /
//! re-route), the run's first failure and its `Abort` relay, and the
//! four deadlines — run, handoff, heartbeat due and peer silence. It
//! is a plain struct driven by one function,
//!
//! ```text
//! Control::on(&mut self, dir: &ShardDirectory, now_ms: u64, ev: Event, out: &mut Vec<Action>)
//! ```
//!
//! with no thread, socket, clock read or environment lookup inside:
//! the driver's clock arrives with every event (`now_ms`; a deadline is
//! stamped by the event that arms it, or read off the edge clocks a
//! tick carries, and checked on [`Event::Tick`]), the runtime's
//! freeze/install results arrive as [`Event::Froze`] /
//! [`Event::Installed`], a failure a link thread observes arrives as
//! [`Event::Fail`], and everything the node should *do* leaves as an
//! [`Action`] for the driver (`node.rs`) to perform. `node.rs` holds
//! one `Control` behind one mutex; `on` runs under it, so a decision
//! and the directory writes it implies (`set_owner` at commit,
//! `install` on an `EpochUpdate`) are atomic — check-and-park cannot
//! interleave with install-and-drain because they are two calls of the
//! same function. The data path never takes that lock.
//!
//! Node 0 is the coordinator. A frame it addresses to itself is
//! handled on the spot by the same `on_msg` a peer's frame goes
//! through ([`Control::send`]), so there is one code path per message
//! whether it crossed a socket or not.
//!
//! Because the protocol is a function of delivered events, it is
//! testable as such: the tests below script each PR 9 fencing race as
//! an event sequence, pin the coordinator's gates, the failure rules
//! and the liveness deadlines on a handed clock, and run a seeded
//! schedule explorer — three `Control`s, in-memory per-edge FIFOs, a
//! `DetRng` choosing which edge delivers next — over a drain + rejoin
//! handoff script (DESIGN.md §13).

use crate::cluster::ClusterTimeouts;
use crate::error::ClusterError;
use crate::proto::NetMsg;
use em2_obs::json::{array, JsonObj};
use em2_obs::EventKind;
use em2_rt::wire::{FrozenShard, WireMsg};
use em2_rt::{InboxBacklog, RunLedger, ShardDirectory};
use std::collections::{BTreeMap, VecDeque};

/// The coordinator's per-handoff budget: a live shard handoff that
/// makes no progress for this long fails the cluster typed
/// ([`ClusterError::Handoff`]) instead of wedging quiesce forever.
pub(crate) const HANDOFF_TIMEOUT_MS: u64 = 5000;

/// The epoch-fencing bounce budget: how many times one frame may be
/// re-routed while ownership moves before the run fails typed (a bound
/// on fencing ping-pong — a healthy handoff resolves every bounce in
/// one epoch).
const BOUNCE_RETRY_CAP: u32 = 16;

/// The coordinator's node id.
const COORD: usize = 0;

/// The one phase a handoff can be observed in from outside `on`: the
/// coordinator dispatches `Expect` and `Prepare` in the same call that
/// opens the handoff, so whatever fails or times out afterwards does so
/// while the frozen state is (supposed to be) in flight.
const PHASE: &str = "transfer";

/// What the driver feeds in.
#[derive(Debug)]
pub(crate) enum Event {
    /// A decoded frame from peer `from` that the reader's fast path
    /// (run traffic for a shard we own, heartbeats, goodbyes) did not
    /// consume.
    Msg { from: usize, msg: NetMsg },
    /// A local `NodeLink` / `NodeRuntime` call, phrased as the message
    /// this node addresses to the coordinator: `BarrierArrive`,
    /// `Retired`, `Closed`, `HandoffRequest`.
    Local(NetMsg),
    /// The driver performed [`Action::Freeze`]: the shard's state is
    /// exported and the local directory already routes it to `to`.
    Froze {
        hid: u64,
        to: u32,
        state: Box<FrozenShard>,
    },
    /// The driver performed [`Action::Install`]: the shard runs here
    /// and the local directory says so.
    Installed { hid: u64, shard: u32 },
    /// A thread observed a failure: a dead send, an EOF without a
    /// goodbye, an undecodable frame, a message the runtime refused.
    Fail(ClusterError),
    /// A deadline may be due. `backlog` is the runtime's census at
    /// this instant (it classifies a run timeout); `edges[n]` is the
    /// edge to node `n`'s `(last_rx_ms, last_tx_ms)`: its last socket
    /// read that brought a frame and its last flush (ours is ignored).
    Tick {
        backlog: InboxBacklog,
        edges: Vec<(u64, u64)>,
    },
}

/// What the driver performs: each `Send` and `Abort` on the spot
/// (under the lock `on` ran under, so frames enter a peer's FIFO in
/// decision order across threads), everything else in order once that
/// lock is dropped. A send that must *follow* an earlier action's completion is
/// therefore a [`Action::Tell`], not a `Send`.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Enqueue `msg` on peer `to`'s egress FIFO (`to` is never this
    /// node — self-addressed frames never leave `Control`).
    Send { to: usize, msg: NetMsg },
    /// Hand a frame that arrived from `from` to the local runtime.
    Deliver {
        from: usize,
        shard: usize,
        retries: u32,
        msg: WireMsg,
    },
    /// Route a frame by the *current* directory (deliver locally or
    /// ship to the owner, stamped with our epoch).
    Route {
        shard: usize,
        retries: u32,
        msg: WireMsg,
    },
    /// Mirror the coordinator's release of barrier `k` locally.
    ReleaseBarrier { k: usize },
    /// Freeze locally owned `shard` toward node `to`, then report
    /// [`Event::Froze`].
    Freeze { hid: u64, shard: u32, to: u32 },
    /// Install the frozen state shipped by node `from`, then report
    /// [`Event::Installed`].
    Install {
        from: usize,
        hid: u64,
        state: Box<FrozenShard>,
    },
    /// Everything before this has been performed: feed `msg` back as
    /// an [`Event::Local`].
    Tell(NetMsg),
    /// Push `Abort{reason}` at the head of peer `to`'s egress FIFO: a
    /// failing cluster never waits behind a backlog of data frames.
    Abort { to: usize, reason: String },
    /// The run is over on this node: stop the local workers. `Some` is
    /// the run's first failure, already recorded and relayed — leave
    /// the flight recording.
    Stop(Option<ClusterError>),
    /// Telemetry for the obs plane (never part of a decision).
    Note(Note),
}

/// What the obs plane records for a decision.
#[derive(Debug, PartialEq)]
pub(crate) enum Note {
    /// A node-ring event and its two payload words (per [`EventKind`]):
    /// each handoff phase, on the node that performed it.
    Event(EventKind, u64, u64),
    /// This node's directory now stands at `epoch`.
    Epoch(u64),
}

/// A node-ring event about `shard`, its second payload word `b`.
fn ring(kind: EventKind, shard: u32, b: u64) -> Action {
    Action::Note(Note::Event(kind, u64::from(shard), b))
}

/// Disarm a deadline that is due at `now`, reporting (once) the
/// milliseconds waited since the event that armed it `budget` ms out.
fn expire(deadline: &mut Option<u64>, now: u64, budget: u64) -> Option<u64> {
    let due = deadline.take_if(|t| now >= *t)?;
    Some(now - (due - budget))
}

/// The payload `Shard` and `Bounce` frames share: `(shard, epoch,
/// retries, msg)` — a runtime message for `shard`, the epoch its sender
/// (or refuser) stood at, and the re-routes it has consumed.
type Stamped = (usize, u64, u32, WireMsg);

/// Frames held back by the fence: `(from_node, bounce_retries, msg)`
/// per shard buffer, `(shard, bounce_retries, msg)` when parked.
type Held = Vec<(usize, u32, WireMsg)>;

/// The handoff in flight (the coordinator runs them one at a time: the
/// epoch is a total order of ownership changes).
struct ActiveHandoff {
    hid: u64,
    shard: u32,
    from: u32,
    to: u32,
    /// When the handoff budget runs out; `None` once that was reported.
    deadline: Option<u64>,
}

/// Coordinator-only state: the cluster's run ledger (when a barrier
/// opens, when the run is over) and the handoff ledger.
struct Coord {
    ledger: RunLedger,
    next_hid: u64,
    active: Option<ActiveHandoff>,
    queue: VecDeque<(u32, u32)>,
}

/// One node's control plane. See the module docs.
pub(crate) struct Control {
    me: usize,
    nodes: usize,
    shards: usize,
    barriers: usize,
    timeouts: ClusterTimeouts,
    /// The driver's clock at the event being handled.
    now_ms: u64,
    /// Shards this node has been told to expect (`HandoffExpect`)
    /// whose transfer has not installed yet: frames for them buffer
    /// here and replay after install instead of bouncing back and
    /// forth while the state is in flight.
    expecting: BTreeMap<usize, Held>,
    /// Frames waiting out a stale local map: bounces proven still in
    /// motion and frames stamped ahead of our epoch. The next
    /// `EpochUpdate` re-routes them.
    parked: Held,
    /// Highest handoff id this node installed as destination. An
    /// `Expect` at or below it announces the past (its transfer beat
    /// it here over the source's connection) and must be dropped:
    /// planting it would open a buffer whose replay already ran.
    done_dest_hid: u64,
    coord: Option<Coord>,
    /// Armed when this node closes admission (`finish`).
    run_deadline: Option<u64>,
    /// Per node id, the edge's clocks at the last tick, the last flush
    /// raised to any heartbeat sent since.
    edges: Vec<(u64, u64)>,
    quiesced: bool,
    /// The run's first failure, which `finish` returns.
    failure: Option<ClusterError>,
}

impl Control {
    pub(crate) fn new(
        me: usize,
        nodes: usize,
        shards: usize,
        barrier_quotas: Vec<usize>,
        timeouts: ClusterTimeouts,
    ) -> Control {
        Control {
            me,
            nodes,
            shards,
            barriers: barrier_quotas.len(),
            timeouts,
            now_ms: 0,
            expecting: BTreeMap::new(),
            parked: Vec::new(),
            done_dest_hid: 0,
            coord: (me == COORD).then(|| Coord {
                ledger: RunLedger::new(nodes, barrier_quotas),
                next_hid: 1,
                active: None,
                queue: VecDeque::new(),
            }),
            run_deadline: None,
            edges: vec![(0, 0); nodes],
            quiesced: false,
            failure: None,
        }
    }

    /// Consume one event, observed at `now_ms` on the driver's clock;
    /// append what the driver must do to `out`.
    pub(crate) fn on(
        &mut self,
        dir: &ShardDirectory,
        now_ms: u64,
        ev: Event,
        out: &mut Vec<Action>,
    ) {
        self.now_ms = now_ms;
        match ev {
            Event::Msg { from, msg } => self.on_msg(dir, from, msg, out),
            Event::Local(msg) => {
                if matches!(msg, NetMsg::Closed { .. }) && self.timeouts.run_ms > 0 {
                    self.run_deadline = Some(now_ms + self.timeouts.run_ms);
                }
                self.send(dir, COORD, msg, out);
            }
            Event::Froze { hid, to, state } => {
                let transfer = NetMsg::HandoffTransfer { hid, state };
                self.send(dir, to as usize, transfer, out)
            }
            Event::Installed { hid, shard } => self.installed(hid, shard, out),
            Event::Fail(err) => self.fail(err, out),
            Event::Tick { backlog, edges } => {
                self.tick(dir, &backlog, out);
                self.liveness(&edges, out);
            }
        }
    }

    /// The earliest of the run deadline, the active handoff's, and each
    /// edge's heartbeat due and peer silence, for the ticker to sleep
    /// until. Edge clocks only move forward, so the last tick's clocks
    /// wake the ticker early, never late.
    pub(crate) fn next_deadline_ms(&self) -> Option<u64> {
        let handoff = self.coord.as_ref().and_then(|c| c.active.as_ref());
        let fixed = [self.run_deadline, handoff.and_then(|a| a.deadline)];
        let (hb, silence) = (self.timeouts.heartbeat_ms, self.timeouts.peer_deadline_ms());
        let peers = self.edges.iter().enumerate().filter(|&(n, _)| n != self.me);
        let edges = peers.flat_map(|(_, (rx, tx))| [tx + hb, rx + silence]);
        let edges = edges.filter(|_| hb > 0);
        fixed.into_iter().flatten().chain(edges).min()
    }

    /// The run's first failure, if it has one.
    pub(crate) fn failure(&self) -> Option<&ClusterError> {
        self.failure.as_ref()
    }

    /// The run is over here (quiesced or failed): no deadline is left.
    pub(crate) fn over(&self) -> bool {
        self.quiesced || self.failure.is_some()
    }

    /// Address `msg` to node `to`. A frame to ourselves is handled
    /// here and now, through the same `on_msg` a peer's frame takes.
    fn send(&mut self, dir: &ShardDirectory, to: usize, msg: NetMsg, out: &mut Vec<Action>) {
        if to == self.me {
            self.on_msg(dir, self.me, msg, out);
        } else {
            out.push(Action::Send { to, msg });
        }
    }

    /// Coordinator fan-out: every peer first, ourselves last (the
    /// local effect follows the sends, as a peer's would).
    fn broadcast(&mut self, dir: &ShardDirectory, msg: NetMsg, out: &mut Vec<Action>) {
        for to in (0..self.nodes).filter(|&n| n != self.me) {
            out.push(Action::Send {
                to,
                msg: msg.clone(),
            });
        }
        self.on_msg(dir, self.me, msg, out);
    }

    /// The one direction-and-range check: who may send what to whom,
    /// and which shards, nodes and barriers a frame may name.
    fn check(&self, from: usize, msg: &NetMsg) -> Result<(), String> {
        use NetMsg::*;
        // The variant's name out of its `Debug` form — rendered only
        // once a frame is being refused.
        let name = || {
            let debug = format!("{msg:?}");
            debug
                .split([' ', '{'])
                .next()
                .map(String::from)
                .unwrap_or_default()
        };
        match msg {
            Hello { .. } | HelloAck { .. } => return Err("re-sent a handshake mid-run".into()),
            BarrierArrive { .. }
            | Retired
            | Closed { .. }
            | HandoffRequest { .. }
            | HandoffDone { .. }
                if self.me != COORD =>
            {
                return Err(format!("sent {} to a non-coordinator", name()));
            }
            BarrierRelease { .. }
            | Quiesce
            | HandoffPrepare { .. }
            | HandoffExpect { .. }
            | EpochUpdate { .. }
                if from != COORD =>
            {
                return Err(format!("sent {} without being the coordinator", name()));
            }
            _ => {}
        }
        let (shard, node) = match msg {
            Shard { to, .. } | Bounce { to, .. } => (Some(*to), None),
            HandoffRequest { shard, to } | HandoffPrepare { shard, to, .. } => {
                (Some(*shard), Some(*to))
            }
            HandoffExpect { shard, .. } | HandoffDone { shard, .. } => (Some(*shard), None),
            HandoffTransfer { state, .. } => (Some(state.shard), None),
            _ => (None, None),
        };
        if let Some(s) = shard.filter(|&s| s as usize >= self.shards) {
            return Err(format!("{} names shard {s}, which does not exist", name()));
        }
        if let Some(n) = node.filter(|&n| n as usize >= self.nodes) {
            return Err(format!(
                "{} names node {n}, which is outside the cluster",
                name()
            ));
        }
        match msg {
            BarrierArrive { k } | BarrierRelease { k } if *k as usize >= self.barriers => {
                Err(format!("{} names barrier {k}, which has no quota", name()))
            }
            EpochUpdate { owners, .. }
                if owners.len() != self.shards
                    || owners.iter().any(|&o| o as usize >= self.nodes) =>
            {
                let (shards, nodes) = (self.shards, self.nodes);
                Err(format!(
                    "EpochUpdate does not map {shards} shards onto {nodes} nodes"
                ))
            }
            _ => Ok(()),
        }
    }

    fn on_msg(&mut self, dir: &ShardDirectory, from: usize, msg: NetMsg, out: &mut Vec<Action>) {
        if let Err(detail) = self.check(from, &msg) {
            return self.fail(ClusterError::Protocol { from, detail }, out);
        }
        match msg {
            NetMsg::Shard {
                to,
                epoch,
                retries,
                msg,
            } => self.fence(dir, from, (to as usize, epoch, retries, msg), out),
            NetMsg::Bounce {
                to,
                epoch,
                retries,
                msg,
            } => self.bounced(dir, from, (to as usize, epoch, retries, msg), out),
            NetMsg::BarrierArrive { k } => {
                if self.coord().ledger.arrive(k as usize) {
                    self.broadcast(dir, NetMsg::BarrierRelease { k }, out);
                }
            }
            NetMsg::BarrierRelease { k } => out.push(Action::ReleaseBarrier { k: k as usize }),
            NetMsg::Retired => {
                self.coord().ledger.retire();
                self.maybe_quiesce(dir, out);
            }
            NetMsg::Closed { submitted } => {
                if self.coord().ledger.close(submitted) {
                    self.maybe_quiesce(dir, out);
                } else {
                    let detail = "more Closed messages than nodes".into();
                    self.fail(ClusterError::Protocol { from, detail }, out);
                }
            }
            NetMsg::Quiesce => {
                self.quiesced = true;
                self.run_deadline = None;
                out.push(Action::Stop(None));
            }
            NetMsg::Abort { reason } => self.fail(ClusterError::Aborted { from, reason }, out),
            // Pure liveness / teardown markers; the reader's fast path
            // normally consumes them.
            NetMsg::Heartbeat | NetMsg::Bye => {}
            NetMsg::HandoffRequest { shard, to } => {
                self.coord().queue.push_back((shard, to));
                self.pump(dir, out);
            }
            NetMsg::HandoffPrepare { hid, shard, to } => {
                if dir.owner_of(shard as usize) as usize == self.me {
                    out.push(Action::Freeze { hid, shard, to });
                } else {
                    let detail = format!(
                        "node {} was asked to freeze shard {shard}, which it does not own",
                        self.me
                    );
                    let phase = "freeze".into();
                    self.fail(ClusterError::Handoff { phase, detail }, out);
                }
            }
            NetMsg::HandoffExpect { hid, shard } => {
                // The transfer may have beaten this announcement here;
                // handoff ids tell — the coordinator assigns them
                // serially.
                if hid > self.done_dest_hid {
                    self.expecting.entry(shard as usize).or_default();
                }
            }
            NetMsg::HandoffTransfer { hid, state } => {
                out.push(Action::Install { from, hid, state });
            }
            NetMsg::HandoffDone { hid, shard } => self.commit(dir, hid, shard, out),
            NetMsg::EpochUpdate { epoch, owners } => {
                // Install, then drain — in one `on`, so no park can
                // slip in behind the drain meant to release it. (The
                // install never disowns us: a shard we installed is
                // ours until its own commit's map, which says so.)
                dir.install(epoch, &owners);
                out.push(Action::Note(Note::Epoch(epoch)));
                for (shard, retries, msg) in std::mem::take(&mut self.parked) {
                    out.push(Action::Route {
                        shard,
                        retries,
                        msg,
                    });
                }
            }
            NetMsg::Hello { .. } | NetMsg::HelloAck { .. } => unreachable!("refused by check"),
        }
    }

    fn coord(&mut self) -> &mut Coord {
        self.coord
            .as_mut()
            .expect("check admits coordinator frames only on node 0")
    }

    // ------------------------------------------------------- the fence

    /// A shard frame the reader's fast path did not deliver. Re-check
    /// ownership (an install racing the frame either flipped it before
    /// this check or still holds the `expecting` entry we buffer
    /// into); otherwise the epoch stamp decides *who* is stale. At or
    /// behind our map: the sender routed by an old world — bounce the
    /// frame back, stamped with our epoch, for re-route. *Ahead* of
    /// our map: we are the laggard — the stamp is never newer than the
    /// map that chose the route (senders read epoch before owner;
    /// installs publish owners before epoch), so a commit we have not
    /// seen exists and its `EpochUpdate` is already in flight toward
    /// us. Park the frame until it lands: a bounce round trip would
    /// teach the cluster nothing and burn the frame's retry budget on
    /// our slowness.
    fn fence(&mut self, dir: &ShardDirectory, from: usize, f: Stamped, out: &mut Vec<Action>) {
        let (to, epoch, retries, msg) = f;
        if dir.owner_of(to) as usize == self.me {
            out.push(Action::Deliver {
                from,
                shard: to,
                retries,
                msg,
            });
            return;
        }
        // Our epoch, read right after the ownership check: a grant
        // always lands through an install guarded by the expecting
        // entry, so "epoch `ours`, not the owner" is one instant — the
        // bounce stamps it so the sender can reason from it.
        let ours = dir.epoch();
        if let Some(buf) = self.expecting.get_mut(&to) {
            buf.push((from, retries, msg));
        } else if epoch > ours {
            self.parked.push((to, retries, msg));
        } else {
            let bounce = NetMsg::Bounce {
                to: to as u32,
                epoch: ours,
                retries,
                msg,
            };
            self.send(dir, from, bounce, out);
        }
    }

    /// A peer refused one of our frames: ownership moved under it.
    /// Park only on *proof* that a future `EpochUpdate` will drain the
    /// frame — the bouncer's epoch stamp supplies it. Stamp ahead of
    /// our map: we are behind, the catch-up broadcast is in flight.
    /// Stamp equal to our map while our map names the bouncer: the
    /// refusal can only come from an uncommitted freeze flip, so that
    /// handoff's commit is still pending. Anything else re-routes by
    /// our own directory — in particular a bounce *older* than our
    /// map: a shard can return to a previous owner (rolling restart),
    /// so "my map still names the bouncer" alone is no evidence of
    /// staleness on our side, and parking on it strands the frame when
    /// the stale bounce arrives after the run's last epoch bump.
    fn bounced(&mut self, dir: &ShardDirectory, from: usize, f: Stamped, out: &mut Vec<Action>) {
        let (to, bouncer_epoch, retries, msg) = f;
        let r = retries + 1;
        let ours = dir.epoch();
        if r > BOUNCE_RETRY_CAP {
            let detail = format!(
                "a frame for shard {to} was re-routed {r} times without finding an owner (bounce \
                 budget {BOUNCE_RETRY_CAP}; epoch {ours})"
            );
            let phase = "bounce".into();
            return self.fail(ClusterError::Handoff { phase, detail }, out);
        }
        out.push(ring(EventKind::HandoffBounce, to as u32, u64::from(r)));
        if bouncer_epoch > ours || (bouncer_epoch == ours && dir.owner_of(to) as usize == from) {
            self.parked.push((to, r, msg));
        } else {
            out.push(Action::Route {
                shard: to,
                retries: r,
                msg,
            });
        }
    }

    // ----------------------------------------------- handoff protocol

    /// Destination: the frozen state is installed and ownership has
    /// flipped toward us, so frames buffered from now on cannot exist.
    /// Replay what accumulated while the state was in flight, in
    /// arrival order, and only then ack the coordinator (a `Tell`: the
    /// commit must not start the next handoff under a replay that is
    /// still running). Recording the hid (same `on`) lets the `Expect`
    /// handler drop the announcement for this transfer when it loses
    /// the race and arrives after us — the coordinator's connection is
    /// not ordered with the source's.
    fn installed(&mut self, hid: u64, shard: u32, out: &mut Vec<Action>) {
        self.done_dest_hid = self.done_dest_hid.max(hid);
        let buffered = self.expecting.remove(&(shard as usize)).unwrap_or_default();
        let replayed = buffered.len() as u64;
        out.push(ring(EventKind::HandoffTransfer, shard, replayed));
        for (from, retries, msg) in buffered {
            // The carried re-route count rides through the local
            // delivery: should the shard flip away again before the
            // push lands, the re-forward keeps counting against the
            // frame's bounce budget instead of restarting it.
            out.push(Action::Deliver {
                from,
                shard: shard as usize,
                retries,
                msg,
            });
        }
        out.push(Action::Tell(NetMsg::HandoffDone { hid, shard }));
    }

    /// Coordinator: start queued handoffs until one is in flight (or
    /// the queue is empty).
    fn pump(&mut self, dir: &ShardDirectory, out: &mut Vec<Action>) {
        let deadline = Some(self.now_ms + HANDOFF_TIMEOUT_MS);
        loop {
            let c = self.coord();
            if c.active.is_some() {
                return;
            }
            let Some((shard, to)) = c.queue.pop_front() else {
                return;
            };
            let from = dir.owner_of(shard as usize);
            if from == to {
                // Already where it should be (a drain raced a commit,
                // or the request was a no-op). Nothing to move.
                continue;
            }
            let hid = c.next_hid;
            c.next_hid += 1;
            c.active = Some(ActiveHandoff {
                hid,
                shard,
                from,
                to,
                deadline,
            });
            out.push(ring(EventKind::HandoffPrepare, shard, u64::from(to)));
            // The destination fences (buffers) frames for the shard
            // before anything ships.
            self.send(dir, to as usize, NetMsg::HandoffExpect { hid, shard }, out);
            let prepare = NetMsg::HandoffPrepare { hid, shard, to };
            self.send(dir, from as usize, prepare, out);
        }
    }

    /// Coordinator: the destination confirmed the install. Commit —
    /// bump the epoch, broadcast the new ownership map (ourselves
    /// included: that is what installs it here and re-routes our own
    /// parked frames), start the next queued handoff, re-check
    /// quiesce.
    fn commit(&mut self, dir: &ShardDirectory, hid: u64, shard: u32, out: &mut Vec<Action>) {
        let c = self.coord();
        let Some(a) = c.active.take_if(|a| a.hid == hid && a.shard == shard) else {
            // A stale or duplicate ack.
            return;
        };
        dir.set_owner(shard as usize, a.to);
        let epoch = dir.epoch() + 1;
        out.push(ring(EventKind::HandoffCommit, shard, epoch));
        let owners = dir.snapshot();
        self.broadcast(dir, NetMsg::EpochUpdate { epoch, owners }, out);
        self.pump(dir, out);
        self.maybe_quiesce(dir, out);
    }

    /// Declare cluster quiesce once the run ledger says the run is
    /// over (exactly once: every node closed, every task retired) —
    /// asked only while no handoff is active or queued (a frozen shard
    /// in transit holds heap words and possibly parked envelopes), so
    /// the commit that empties the handoff ledger asks again.
    fn maybe_quiesce(&mut self, dir: &ShardDirectory, out: &mut Vec<Action>) {
        let c = self.coord();
        if c.active.is_none() && c.queue.is_empty() && c.ledger.quiesce() {
            self.broadcast(dir, NetMsg::Quiesce, out);
        }
    }

    // ------------------------------------------------------- deadlines

    fn tick(&mut self, dir: &ShardDirectory, backlog: &InboxBacklog, out: &mut Vec<Action>) {
        if self.over() {
            return;
        }
        let now_ms = self.now_ms;
        let active = self.coord.as_mut().and_then(|c| c.active.as_mut());
        if let Some(a) = active {
            if let Some(waited) = expire(&mut a.deadline, now_ms, HANDOFF_TIMEOUT_MS) {
                let detail = format!(
                    "handoff of shard {} (node {} -> node {}) made no progress for {waited} ms \
                     (budget {HANDOFF_TIMEOUT_MS} ms)",
                    a.shard, a.from, a.to
                );
                let phase = PHASE.into();
                self.fail(ClusterError::Handoff { phase, detail }, out);
            }
        }
        if let Some(waited_ms) = expire(&mut self.run_deadline, now_ms, self.timeouts.run_ms) {
            let detail = format!("local backlog: {}", self.census(dir, backlog));
            let err = if backlog.parked_barrier > 0 {
                ClusterError::BarrierTimeout { waited_ms, detail }
            } else {
                ClusterError::QuiesceTimeout { waited_ms, detail }
            };
            self.fail(err, out);
        }
    }

    /// With heartbeats on (`H` > 0): a peer silent for 4·H is lost,
    /// and an edge that has flushed nothing for H gets a `Heartbeat` —
    /// a FIFO frame like any other, counted as sent now, so an idle
    /// edge gets one per interval. It advances the sequence stream, so
    /// a dropped frame surfaces as a gap within one interval.
    fn liveness(&mut self, seen: &[(u64, u64)], out: &mut Vec<Action>) {
        let (hb, deadline) = (self.timeouts.heartbeat_ms, self.timeouts.peer_deadline_ms());
        if hb == 0 || self.over() {
            return;
        }
        let (me, now) = (self.me, self.now_ms);
        for node in (0..self.nodes).filter(|&n| n != me) {
            let (rx, tx) = &mut self.edges[node];
            (*rx, *tx) = ((*rx).max(seen[node].0), (*tx).max(seen[node].1));
            let silent = now.saturating_sub(*rx);
            if silent >= deadline {
                let detail =
                    format!("no frames for {silent} ms (heartbeat deadline {deadline} ms)");
                return self.fail(ClusterError::PeerLost { node, detail }, out);
            }
            if now.saturating_sub(*tx) >= hb {
                *tx = now;
                let msg = NetMsg::Heartbeat;
                out.push(Action::Send { to: node, msg });
            }
        }
    }

    // ------------------------------------------------------- failure

    /// Record the run's first failure and relay it as an `Abort`, so
    /// every other node fails fast instead of waiting out its deadline.
    /// Once the run is over this is noise: after quiesce the counters
    /// have converged; after a first failure, later ones are its echo.
    fn fail(&mut self, err: ClusterError, out: &mut Vec<Action>) {
        if self.over() {
            return;
        }
        let err = match self.handoff_note() {
            Some(note) => err.annotate(&note),
            None => err,
        };
        // A sympathetic failure relays the origin's reason verbatim.
        let (origin, reason) = match &err {
            ClusterError::Aborted { from, reason } => (Some(*from), reason.clone()),
            _ => (None, err.to_string()),
        };
        // The coordinator relays to everyone but the node it heard it
        // from; a leaf tells the coordinator (unless that is who told it).
        let relay = if self.coord.is_some() {
            0..self.nodes
        } else {
            COORD..COORD + 1
        };
        for to in relay.filter(|&n| n != self.me && Some(n) != origin) {
            let reason = reason.clone();
            out.push(Action::Abort { to, reason });
        }
        self.failure = Some(err.clone());
        out.push(Action::Stop(Some(err)));
    }

    /// If a handoff is active (or this node is mid-receive), a note
    /// naming it — the post-mortem must say *where* the transfer died.
    fn handoff_note(&self) -> Option<String> {
        if let Some(a) = self.coord.as_ref().and_then(|c| c.active.as_ref()) {
            return Some(format!(
                "during shard handoff of shard {} (node {} -> node {}), phase {PHASE}",
                a.shard, a.from, a.to
            ));
        }
        let shard = self.expecting.keys().next()?;
        Some(format!(
            "while awaiting the frozen state of shard {shard} (handoff {PHASE} phase)"
        ))
    }

    /// One JSON line naming everything that can hold cluster quiesce
    /// open on this node — embedded in flight dumps and timeout
    /// errors, so a wedged run names its stuck frame instead of timing
    /// out mute.
    pub(crate) fn census(&self, dir: &ShardDirectory, b: &InboxBacklog) -> String {
        let parked = self.parked.iter().map(|(sh, r, _)| format!("[{sh},{r}]"));
        let expecting = self.expecting.keys().map(|sh| sh.to_string());
        let mut o = JsonObj::new()
            .str("kind", "census")
            .u64("node", self.me as u64)
            .u64("runnable", b.runnable as u64)
            .u64("parked_barrier", b.parked_barrier as u64)
            .u64("awaiting_reply", b.awaiting_reply as u64)
            .u64("stalled_admission", b.stalled_admission as u64)
            .u64("busy_shards", b.skipped_shards as u64)
            .u64("epoch", dir.epoch())
            .raw("parked_frames", &array(parked))
            .raw("expecting", &array(expecting));
        if let Some(c) = &self.coord {
            let active = c.active.as_ref().map_or("null".into(), |a| {
                JsonObj::new()
                    .u64("hid", a.hid)
                    .u64("shard", a.shard as u64)
                    .u64("from", a.from as u64)
                    .u64("to", a.to as u64)
                    .str("phase", PHASE)
                    .finish()
            });
            let (closed, submitted, retired) = c.ledger.counts();
            o = o
                .raw("handoff_active", &active)
                .u64("handoff_queued", c.queue.len() as u64)
                .u64("closed_nodes", closed as u64)
                .u64("submitted", submitted)
                .u64("retired", retired);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::DetRng;

    /// Three nodes, two shards each, one barrier of quota 2, a 1 s run
    /// deadline, heartbeats off, epoch 0.
    const OWNERS: [u32; 6] = [0, 0, 1, 1, 2, 2];

    fn node(me: usize) -> (Control, ShardDirectory) {
        let timeouts = ClusterTimeouts {
            run_ms: 1_000,
            ..ClusterTimeouts::default()
        };
        (
            Control::new(me, 3, OWNERS.len(), vec![2], timeouts),
            ShardDirectory::new(me as u32, 0, &OWNERS),
        )
    }

    fn step_at(c: &mut Control, d: &ShardDirectory, now_ms: u64, ev: Event) -> Vec<Action> {
        let mut out = Vec::new();
        c.on(d, now_ms, ev, &mut out);
        out
    }

    fn step(c: &mut Control, d: &ShardDirectory, ev: Event) -> Vec<Action> {
        step_at(c, d, 0, ev)
    }

    fn from(from: usize, msg: NetMsg) -> Event {
        Event::Msg { from, msg }
    }

    fn tick(parked_barrier: usize) -> Event {
        let backlog = InboxBacklog {
            parked_barrier,
            ..InboxBacklog::default()
        };
        let edges = vec![(0, 0); 3];
        Event::Tick { backlog, edges }
    }

    // Message constructors (handoff id 1 and epoch 0 unless a test
    // cares).

    /// A distinguishable run-traffic frame.
    fn frame(token: u32) -> WireMsg {
        WireMsg::Response { token, value: None }
    }

    fn shard(to: u32, epoch: u64) -> NetMsg {
        shard_frame(to, epoch, 0, frame(7))
    }

    fn shard_frame(to: u32, epoch: u64, retries: u32, msg: WireMsg) -> NetMsg {
        NetMsg::Shard {
            to,
            epoch,
            retries,
            msg,
        }
    }

    fn bounce(to: u32, epoch: u64, retries: u32) -> NetMsg {
        let msg = frame(7);
        NetMsg::Bounce {
            to,
            epoch,
            retries,
            msg,
        }
    }

    fn update(epoch: u64, owners: &[u32]) -> NetMsg {
        let owners = owners.to_vec();
        NetMsg::EpochUpdate { epoch, owners }
    }

    fn request(shard: u32, to: u32) -> NetMsg {
        NetMsg::HandoffRequest { shard, to }
    }

    fn prepare(shard: u32, to: u32) -> NetMsg {
        NetMsg::HandoffPrepare { hid: 1, shard, to }
    }

    fn expect(hid: u64, shard: u32) -> NetMsg {
        NetMsg::HandoffExpect { hid, shard }
    }

    /// An (empty) frozen copy of `shard`.
    fn frozen(shard: u32) -> Box<FrozenShard> {
        Box::new(FrozenShard {
            shard,
            ..FrozenShard::default()
        })
    }

    fn transfer(shard: u32) -> NetMsg {
        let (hid, state) = (1, frozen(shard));
        NetMsg::HandoffTransfer { hid, state }
    }

    fn done(hid: u64, shard: u32) -> NetMsg {
        NetMsg::HandoffDone { hid, shard }
    }

    fn closed(submitted: u64) -> NetMsg {
        NetMsg::Closed { submitted }
    }

    // What came out.

    fn sends(out: &[Action]) -> Vec<(usize, &NetMsg)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn routes(out: &[Action]) -> Vec<(usize, u32)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Route { shard, retries, .. } => Some((*shard, *retries)),
                _ => None,
            })
            .collect()
    }

    fn failure(out: &[Action]) -> Option<&ClusterError> {
        out.iter().find_map(|a| match a {
            Action::Stop(e) => e.as_ref(),
            _ => None,
        })
    }

    fn quiesced(out: &[Action]) -> bool {
        out.contains(&Action::Stop(None))
    }

    /// Whom `out` sends an `Abort`, in order.
    fn aborts(out: &[Action]) -> Vec<usize> {
        let to = |a: &Action| match a {
            Action::Abort { to, .. } => Some(*to),
            _ => None,
        };
        out.iter().filter_map(to).collect()
    }

    // ------------------------------------------- the PR 9 fencing races

    #[test]
    fn ahead_stamped_frame_parks_and_reroutes_on_the_epoch_update() {
        // Node 1 froze shard 2 toward us while one epoch ahead of us;
        // its frame beats both our `Expect` and our `EpochUpdate`.
        let (mut c, d) = node(2);
        let out = step(&mut c, &d, from(1, shard(2, 1)));
        assert_eq!(out, vec![], "we are the laggard: park, do not bounce");
        assert_eq!(c.parked.len(), 1);
        let out = step(&mut c, &d, from(0, update(1, &[0, 0, 1, 1, 2, 0])));
        assert_eq!(d.epoch(), 1);
        assert_eq!(routes(&out), vec![(2, 0)], "re-routed, budget untouched");
        assert!(c.parked.is_empty());
    }

    #[test]
    fn bounce_and_epoch_update_commute() {
        let moved = [0, 0, 0, 1, 2, 2];
        // Bounce first: same epoch and our map names the bouncer, so
        // its freeze is uncommitted — park until the commit lands.
        let (mut c, d) = node(2);
        let out = step(&mut c, &d, from(1, bounce(2, 0, 0)));
        assert_eq!(routes(&out), vec![]);
        assert_eq!(c.parked.len(), 1);
        let out = step(&mut c, &d, from(0, update(1, &moved)));
        assert_eq!(routes(&out), vec![(2, 1)]);
        assert!(c.parked.is_empty());
        // Update first: the bounce is now older than our map, and parks
        // nothing — it re-routes by the map we already have.
        let (mut c, d) = node(2);
        step(&mut c, &d, from(0, update(1, &moved)));
        let out = step(&mut c, &d, from(1, bounce(2, 0, 0)));
        assert_eq!(routes(&out), vec![(2, 1)]);
        assert!(c.parked.is_empty());
    }

    #[test]
    fn stale_bounce_for_a_returned_shard_reroutes_instead_of_parking() {
        // Shard 2 left node 1 (epoch 1) and came back (epoch 2). A
        // bounce node 1 issued in between arrives only now: our map
        // names the bouncer again, legitimately, and no further
        // `EpochUpdate` is coming to drain a parked frame.
        let (mut c, d) = node(2);
        step(&mut c, &d, from(0, update(1, &[0, 0, 0, 1, 2, 2])));
        step(&mut c, &d, from(0, update(2, &OWNERS)));
        let out = step(&mut c, &d, from(1, bounce(2, 1, 3)));
        assert_eq!(routes(&out), vec![(2, 4)]);
        assert!(c.parked.is_empty(), "parked with nothing left to drain it");
    }

    #[test]
    fn expect_at_or_below_the_last_install_is_dropped() {
        // The transfer of handoff 3 beat its own `Expect` here (the
        // source's connection is not ordered with the coordinator's).
        let (mut c, d) = node(1);
        let out = step(&mut c, &d, Event::Installed { hid: 3, shard: 0 });
        assert_eq!(out.last(), Some(&Action::Tell(done(3, 0))));
        for hid in [2, 3] {
            step(&mut c, &d, from(0, expect(hid, 0)));
            assert!(c.expecting.is_empty(), "hid {hid} announces the past");
        }
        step(&mut c, &d, from(0, expect(4, 0)));
        assert_eq!(c.expecting.len(), 1, "the next handoff's Expect plants");
    }

    #[test]
    fn the_ack_follows_the_replay() {
        // The coordinator's commit may start the next handoff of the
        // same shard: it must not hear `Done` under a running replay.
        let (mut c, d) = node(1);
        step(&mut c, &d, from(0, expect(1, 0)));
        assert_eq!(step(&mut c, &d, from(2, shard(0, 0))), vec![], "buffered");
        let out = step(&mut c, &d, Event::Installed { hid: 1, shard: 0 });
        let transfer = ring(EventKind::HandoffTransfer, 0, 1);
        let replay = Action::Deliver {
            from: 2,
            shard: 0,
            retries: 0,
            msg: frame(7),
        };
        assert_eq!(out, [transfer, replay, Action::Tell(done(1, 0))]);
    }

    #[test]
    fn an_update_older_than_its_commit_cannot_disown_an_installed_shard() {
        // Shard 0's transfer (handoff 2) also beat the *previous*
        // commit's `EpochUpdate` here. That map still names node 0 for
        // shard 0; taken verbatim it would leave the shard running here
        // while our directory — and so every barrier release — says it
        // is not ours.
        let (mut c, d) = node(1);
        d.set_owner(0, 1); // the driver's install
        step(&mut c, &d, Event::Installed { hid: 2, shard: 0 });
        step(&mut c, &d, from(0, update(1, &[0, 0, 1, 1, 2, 1])));
        assert_eq!(d.snapshot(), [1, 0, 1, 1, 2, 1], "ours until the commit");
        // The commit confirms it. A shard leaves through our own
        // freeze; from then on the map rules again.
        step(&mut c, &d, from(0, update(2, &[1, 0, 1, 1, 2, 1])));
        d.set_owner(0, 2);
        step(&mut c, &d, from(0, update(3, &[2, 0, 1, 1, 2, 1])));
        assert_eq!(d.owner_of(0), 2);
    }

    // ------------------------------------------------ coordinator gates

    #[test]
    fn quiesce_waits_for_every_close_every_retirement_and_every_handoff() {
        let (mut c, d) = node(0);
        // A handoff of shard 2 (node 1 -> node 2) is active and a
        // second one is queued behind it.
        let out = step(&mut c, &d, Event::Local(request(2, 2)));
        assert!(matches!(
            sends(&out)[..],
            [
                (2, NetMsg::HandoffExpect { hid: 1, .. }),
                (1, NetMsg::HandoffPrepare { hid: 1, .. })
            ]
        ));
        let out = step(&mut c, &d, Event::Local(request(3, 2)));
        assert_eq!(out, vec![], "one handoff at a time");
        // Retirements may outrun closes; nothing quiesces on them.
        assert!(!quiesced(&step(&mut c, &d, from(1, NetMsg::Retired))));
        assert!(!quiesced(&step(&mut c, &d, Event::Local(closed(1)))));
        assert!(!quiesced(&step(&mut c, &d, from(1, closed(1)))));
        assert!(!quiesced(&step(&mut c, &d, from(2, closed(0)))));
        // All closed, 1 of 2 retired.
        assert!(!quiesced(&step(&mut c, &d, Event::Local(NetMsg::Retired))));
        // All retired, but handoff 1 is active and another is queued.
        let out = step(&mut c, &d, from(2, done(1, 2)));
        assert!(!quiesced(&out), "a queued handoff holds quiesce open");
        assert_eq!(d.epoch(), 1, "the commit installed here too");
        assert!(matches!(
            sends(&out)[..],
            [
                (1, NetMsg::EpochUpdate { epoch: 1, .. }),
                (2, NetMsg::EpochUpdate { epoch: 1, .. }),
                (2, NetMsg::HandoffExpect { hid: 2, .. }),
                (1, NetMsg::HandoffPrepare { hid: 2, .. })
            ]
        ));
        let out = step(&mut c, &d, from(2, done(1, 2)));
        assert_eq!(out, vec![], "a duplicate ack");
        // The last commit releases it: update first, then quiesce.
        let out = step(&mut c, &d, from(2, done(2, 3)));
        assert!(matches!(
            sends(&out)[..],
            [
                (1, NetMsg::EpochUpdate { epoch: 2, .. }),
                (2, NetMsg::EpochUpdate { epoch: 2, .. }),
                (1, NetMsg::Quiesce),
                (2, NetMsg::Quiesce)
            ]
        ));
        assert!(quiesced(&out));
        assert_eq!(d.snapshot(), vec![0, 0, 2, 2, 2, 2]);
        assert_eq!(c.next_deadline_ms(), None);
        // The run is over: even a protocol violation is teardown noise.
        assert_eq!(step(&mut c, &d, from(2, closed(0))), vec![]);
        assert_eq!(c.failure(), None);
    }

    #[test]
    fn a_close_past_every_node_is_a_protocol_error() {
        // Every node has closed, one task is still out; one more
        // `Closed` is a violation.
        let (mut c, d) = node(0);
        for n in 0..3 {
            assert_eq!(step(&mut c, &d, from(n, closed(1))), vec![]);
        }
        let out = step(&mut c, &d, from(2, closed(0)));
        let excess = Some(&ClusterError::Protocol {
            from: 2,
            detail: "more Closed messages than nodes".into(),
        });
        assert_eq!(failure(&out), excess);
        assert_eq!(c.failure(), excess);
    }

    #[test]
    fn a_handoff_request_naming_the_owner_is_skipped() {
        let (mut c, d) = node(0);
        assert_eq!(step(&mut c, &d, from(1, request(2, 1))), vec![]);
        assert_eq!(c.next_deadline_ms(), None, "nothing is in flight");
        // ...and consumed no handoff id.
        let out = step(&mut c, &d, from(1, request(2, 0)));
        assert!(matches!(
            sends(&out)[..],
            [(1, NetMsg::HandoffPrepare { hid: 1, .. })]
        ));
        assert!(c.expecting.contains_key(&2), "the Expect looped back");
    }

    #[test]
    fn a_handoff_past_its_budget_fails_naming_the_phase() {
        let (mut c, d) = node(0);
        // The budget runs from the event that opened the handoff.
        step_at(&mut c, &d, 40, Event::Local(request(2, 2)));
        let due = 40 + HANDOFF_TIMEOUT_MS;
        assert_eq!(c.next_deadline_ms(), Some(due));
        assert_eq!(step_at(&mut c, &d, due - 1, tick(0)), vec![]);
        let out = step_at(&mut c, &d, due, tick(0));
        match failure(&out) {
            Some(ClusterError::Handoff { phase, detail }) => {
                assert_eq!(phase, "transfer");
                assert!(detail.contains("shard 2 (node 1 -> node 2)"), "{detail}");
            }
            other => panic!("expected a handoff timeout, got {other:?}"),
        }
        assert_eq!(step_at(&mut c, &d, 99_999, tick(0)), vec![], "fails once");
        assert!(c.handoff_note().expect("still active").contains("transfer"));
    }

    #[test]
    fn a_run_past_its_deadline_is_classified_by_the_backlog() {
        for parked in [0, 1] {
            let (mut c, d) = node(1);
            // Nothing is armed before the close.
            assert_eq!(step_at(&mut c, &d, 5, tick(parked)), vec![]);
            let out = step_at(&mut c, &d, 10, Event::Local(closed(4)));
            assert_eq!(sends(&out), vec![(0, &closed(4))]);
            assert_eq!(c.next_deadline_ms(), Some(1_010));
            assert_eq!(step_at(&mut c, &d, 1_009, tick(parked)), vec![]);
            let out = step_at(&mut c, &d, 1_010, tick(parked));
            let err = failure(&out).expect("deadline expired");
            assert_eq!(err.kind(), ["quiesce-timeout", "barrier-timeout"][parked]);
            assert!(err.to_string().contains(r#""kind":"census","node":1"#));
        }
        // A quiesced node has no deadline left to miss.
        let (mut c, d) = node(1);
        step(&mut c, &d, Event::Local(closed(0)));
        assert!(quiesced(&step(&mut c, &d, from(0, NetMsg::Quiesce))));
        assert_eq!(c.next_deadline_ms(), None);
        assert_eq!(step_at(&mut c, &d, 9_999, tick(0)), vec![]);
    }

    #[test]
    fn wrong_direction_and_out_of_range_frames_are_protocol_errors() {
        let k = 0;
        let (node, wire_version, topology) = (1, 1, 0);
        // (receiver, sender, frame)
        let cases: Vec<(usize, usize, NetMsg)> = vec![
            // Coordinator-bound frames delivered to a leaf.
            (1, 2, NetMsg::BarrierArrive { k }),
            (1, 2, NetMsg::Retired),
            (1, 2, closed(0)),
            (1, 2, request(0, 1)),
            (1, 2, done(1, 0)),
            // Coordinator-only frames from a leaf.
            (1, 2, NetMsg::BarrierRelease { k }),
            (1, 2, NetMsg::Quiesce),
            (1, 2, prepare(2, 2)),
            (1, 2, expect(1, 4)),
            (1, 2, update(1, &OWNERS)),
            // Handshakes mid-run.
            (
                0,
                1,
                NetMsg::Hello {
                    node,
                    wire_version,
                    topology,
                },
            ),
            (1, 0, NetMsg::HelloAck { node, topology }),
            // Shards, nodes and barriers outside the cluster.
            (1, 2, shard(6, 0)),
            (1, 2, bounce(6, 0, 0)),
            (0, 1, NetMsg::BarrierArrive { k: 1 }),
            (1, 0, NetMsg::BarrierRelease { k: 1 }),
            (0, 1, request(6, 1)),
            (0, 1, request(0, 3)),
            (1, 0, prepare(2, 3)),
            (1, 0, expect(1, 6)),
            (0, 1, done(1, 6)),
            (1, 0, update(1, &[0; 5])),
            (1, 0, update(1, &[3; 6])),
            (1, 2, transfer(6)),
        ];
        for (me, sender, msg) in cases {
            let (mut c, d) = self::node(me);
            let what = format!("{msg:?} from node {sender} at node {me}");
            let out = step(&mut c, &d, from(sender, msg));
            // The failure and its relay, nothing else.
            let refused = match out.split_last() {
                Some((Action::Stop(Some(ClusterError::Protocol { from, .. })), relay)) => {
                    *from == sender && relay.len() == aborts(relay).len()
                }
                _ => false,
            };
            assert!(refused, "{what}: not one protocol failure but {out:?}");
            assert!(c.failure().is_some(), "{what}: recorded");
            assert_eq!(d.epoch(), 0, "{what}: refused before any effect");
            assert!(c.expecting.is_empty() && c.parked.is_empty(), "{what}");
        }
    }

    // ------------------------------------------- failure and liveness

    /// The liveness tests' heartbeat interval; the peer deadline is 4·H.
    const H: u64 = 100;

    /// Node `me` of [`node`]'s cluster, heartbeats on.
    fn live(me: usize) -> (Control, ShardDirectory) {
        let (mut c, d) = node(me);
        c.timeouts.heartbeat_ms = H;
        (c, d)
    }

    /// A tick whose edge to node `n` last read at `rx[n]` and last
    /// flushed at `tx[n]`.
    fn clocks(rx: [u64; 3], tx: [u64; 3]) -> Event {
        let edges = rx.into_iter().zip(tx).collect();
        let backlog = InboxBacklog::default();
        Event::Tick { backlog, edges }
    }

    #[test]
    fn an_idle_edge_gets_one_heartbeat_per_interval_and_a_busy_edge_none() {
        let (mut c, d) = live(0);
        let mut beats = Vec::new();
        for now in H - 1..2 * H {
            // Both peers talk; node 2's edge flushed a millisecond ago,
            // every time, and node 1's never.
            let out = step_at(&mut c, &d, now, clocks([0, now, now], [0, 0, now - 1]));
            for (to, msg) in sends(&out) {
                assert_eq!(msg, &NetMsg::Heartbeat);
                beats.push((now, to));
            }
            assert_eq!(failure(&out), None);
        }
        assert_eq!(beats, [(H, 1)], "one heartbeat, on the idle edge, at H");
        assert_eq!(c.next_deadline_ms(), Some(2 * H), "the next one");
    }

    #[test]
    fn a_silent_peer_is_lost_at_exactly_four_intervals() {
        // Node 0 last spoke at 50; node 2 keeps talking; we flush to
        // both all along.
        let (mut c, d) = live(1);
        let at = |now: u64| clocks([50, 0, now], [now, 0, now]);
        let due = 50 + 4 * H;
        assert_eq!(c.next_deadline_ms(), Some(H), "a heartbeat is due first");
        assert_eq!(step_at(&mut c, &d, due - 1, at(due - 1)), vec![]);
        assert_eq!(c.next_deadline_ms(), Some(due));
        let out = step_at(&mut c, &d, due, at(due));
        let lost = ClusterError::PeerLost {
            node: 0,
            detail: "no frames for 400 ms (heartbeat deadline 400 ms)".into(),
        };
        assert_eq!(failure(&out), Some(&lost));
        assert_eq!(c.failure(), Some(&lost));
        assert_eq!(step_at(&mut c, &d, due + H, at(due + H)), vec![], "over");
    }

    #[test]
    fn the_ticker_sleeps_until_the_earliest_of_the_four_deadlines() {
        let (mut c, d) = live(0);
        // Open a handoff at 0 (due 5,000); the edges' clocks start at 0.
        step(&mut c, &d, Event::Local(request(2, 2)));
        assert_eq!(c.next_deadline_ms(), Some(H), "heartbeat due");
        // Flushing, but nothing heard since 0.
        step_at(&mut c, &d, 350, clocks([0; 3], [350; 3]));
        assert_eq!(c.next_deadline_ms(), Some(4 * H), "peer silence");
        step_at(&mut c, &d, 4_950, clocks([4_950; 3], [4_950; 3]));
        assert_eq!(c.next_deadline_ms(), Some(5_000), "the handoff's");
        // Commit it, and close admission (run deadline 5,950).
        step_at(&mut c, &d, 4_950, from(2, done(1, 2)));
        step_at(&mut c, &d, 4_950, Event::Local(closed(0)));
        step_at(&mut c, &d, 5_900, clocks([5_900; 3], [5_900; 3]));
        assert_eq!(c.next_deadline_ms(), Some(5_950), "the run's");
    }

    #[test]
    fn a_second_failure_sends_no_abort_and_writes_no_dump() {
        let (mut c, d) = node(1);
        let lost = |detail: &str| {
            let detail = detail.into();
            Event::Fail(ClusterError::PeerLost { node: 2, detail })
        };
        let out = step(&mut c, &d, lost("first"));
        assert!(
            matches!(
                &out[..],
                [Action::Abort { to: 0, .. }, Action::Stop(Some(_))]
            ),
            "{out:?}"
        );
        assert_eq!(step(&mut c, &d, lost("second")), vec![]);
        let reason = "late".to_string();
        assert_eq!(step(&mut c, &d, from(0, NetMsg::Abort { reason })), vec![]);
        let first = c.failure().expect("recorded").to_string();
        assert!(first.contains("first"), "{first}");
    }

    #[test]
    fn the_coordinator_relays_to_all_but_the_origin_and_a_leaf_tells_node_0() {
        let abort = || NetMsg::Abort {
            reason: "disk full".into(),
        };
        let io = || {
            Event::Fail(ClusterError::Io {
                detail: "disk full".into(),
            })
        };
        let (mut c, d) = node(0);
        let out = step(&mut c, &d, from(1, abort()));
        assert_eq!(aborts(&out), [2]);
        let relayed = Action::Abort {
            to: 2,
            reason: "disk full".into(),
        };
        assert_eq!(out[0], relayed, "the origin's reason, verbatim");
        assert!(matches!(
            failure(&out),
            Some(ClusterError::Aborted { from: 1, .. })
        ));
        let (mut c, d) = node(0);
        assert_eq!(aborts(&step(&mut c, &d, io())), [1, 2]);
        let (mut c, d) = node(2);
        assert_eq!(aborts(&step(&mut c, &d, io())), [0]);
        let (mut c, d) = node(2);
        let out = step(&mut c, &d, from(0, abort()));
        assert_eq!(aborts(&out), [0usize; 0], "not back to its origin");
        assert!(failure(&out).is_some());
    }

    #[test]
    fn a_failure_after_quiesce_is_ignored() {
        let (mut c, d) = live(1);
        assert_eq!(
            step(&mut c, &d, from(0, NetMsg::Quiesce)),
            [Action::Stop(None)]
        );
        let detail = "connection closed without a goodbye".into();
        let eof = Event::Fail(ClusterError::PeerLost { node: 0, detail });
        assert_eq!(step(&mut c, &d, eof), vec![]);
        let reason = "teardown".into();
        assert_eq!(step(&mut c, &d, from(2, NetMsg::Abort { reason })), vec![]);
        // No heartbeat and no silence either.
        assert_eq!(step_at(&mut c, &d, 10 * H, tick(0)), vec![]);
        assert_eq!(c.failure(), None);
        assert!(c.over());
    }

    // ------------------------------------------- the schedule explorer

    /// Three `Control`s, three directories, and a driver that performs
    /// actions the way `node.rs` does — `Send`s at once, everything
    /// else after the lock is dropped — except that every frame sits in
    /// an in-memory per-edge FIFO, and every deferred action in a
    /// per-node queue, until the seeded schedule picks it.
    struct Sim {
        seed: u64,
        ctl: Vec<Control>,
        dir: Vec<ShardDirectory>,
        /// `edge[from][to]`.
        edge: Vec<Vec<VecDeque<NetMsg>>>,
        /// Actions awaiting each node's driver, in decision order.
        pending: Vec<VecDeque<Action>>,
        /// What each node's user thread has yet to do, in order.
        program: Vec<VecDeque<Op>>,
        /// Where each shard's state is: in exactly one node's runtime,
        /// or frozen in flight (`None`).
        held_by: Vec<Option<usize>>,
        /// Times each injected frame reached its shard.
        applied: Vec<u32>,
        epoch_seen: Vec<u64>,
        /// Every obs note each node emitted, in order.
        notes: Vec<Vec<Note>>,
        /// `Bounce` frames each node received.
        bounces_in: Vec<usize>,
    }

    enum Op {
        /// A worker sends a frame (a one-access task) at `shard`.
        Frame { shard: usize, token: u32 },
        /// The user thread reports to the coordinator.
        Tell(NetMsg),
    }

    impl Sim {
        fn event(&mut self, n: usize, ev: Event) {
            let mut out = Vec::new();
            self.ctl[n].on(&self.dir[n], 0, ev, &mut out);
            for a in out {
                match a {
                    Action::Send { to, msg } => self.edge[n][to].push_back(msg),
                    Action::Note(note) => self.notes[n].push(note),
                    Action::Stop(None) | Action::ReleaseBarrier { .. } => {}
                    a @ (Action::Stop(_) | Action::Abort { .. }) => {
                        panic!("seed {}: node {n} failed: {a:?}", self.seed)
                    }
                    deferred => self.pending[n].push_back(deferred),
                }
            }
        }

        /// `Links::route_shard` (and the runtime's re-forward of a
        /// delivery that lost a race with a freeze): epoch before
        /// owner, apply locally or ship stamped.
        fn route(&mut self, n: usize, shard: usize, retries: u32, msg: WireMsg) {
            let epoch = self.dir[n].epoch();
            let owner = self.dir[n].owner_of(shard) as usize;
            if owner == n {
                return self.apply(n, shard, msg);
            }
            self.edge[n][owner].push_back(shard_frame(shard as u32, epoch, retries, msg));
        }

        /// The frame reached its shard: its task runs to completion.
        fn apply(&mut self, n: usize, shard: usize, msg: WireMsg) {
            let seed = self.seed;
            assert_eq!(self.held_by[shard], Some(n), "seed {seed}: shard {shard}");
            let WireMsg::Response { token, .. } = msg else {
                unreachable!("the sim only injects Response frames")
            };
            self.applied[token as usize] += 1;
            self.event(n, Event::Local(NetMsg::Retired));
        }

        /// One frame crosses edge `from -> to` through the reader:
        /// the fast path if we own the shard, `Control` if not.
        fn deliver(&mut self, from: usize, to: usize) {
            match self.edge[from][to].pop_front().expect("enabled edge") {
                NetMsg::Shard { to: shard, msg, .. }
                    if self.dir[to].owner_of(shard as usize) as usize == to =>
                {
                    self.apply(to, shard as usize, msg)
                }
                msg => {
                    if matches!(msg, NetMsg::Bounce { .. }) {
                        self.bounces_in[to] += 1;
                    }
                    self.event(to, Event::Msg { from, msg })
                }
            }
        }

        /// Node `n`'s driver performs its next deferred action. A
        /// freeze or install is the runtime's directory flip, reported
        /// back: a shard is frozen only where it is, installed only
        /// while in flight.
        fn complete(&mut self, n: usize) {
            let seed = self.seed;
            match self.pending[n].pop_front().expect("enabled completion") {
                Action::Deliver {
                    shard,
                    retries,
                    msg,
                    ..
                }
                | Action::Route {
                    shard,
                    retries,
                    msg,
                } => self.route(n, shard, retries, msg),
                Action::Tell(msg) => self.event(n, Event::Local(msg)),
                Action::Freeze { hid, shard, to } => {
                    let held = self.held_by[shard as usize].take();
                    assert_eq!(held, Some(n), "seed {seed}: froze shard {shard}");
                    self.dir[n].set_owner(shard as usize, to);
                    let state = frozen(shard);
                    self.event(n, Event::Froze { hid, to, state });
                }
                Action::Install { hid, state, .. } => {
                    let shard = state.shard;
                    let held = self.held_by[shard as usize].replace(n);
                    assert_eq!(held, None, "seed {seed}: installed shard {shard}");
                    self.dir[n].set_owner(shard as usize, n as u32);
                    self.event(n, Event::Installed { hid, shard });
                }
                a => unreachable!("{a:?} is performed on the spot"),
            }
        }

        /// Node `n`'s user thread takes its next step.
        fn advance(&mut self, n: usize) {
            match self.program[n].pop_front().expect("enabled program") {
                Op::Frame { shard, token } => self.route(n, shard, 0, frame(token)),
                Op::Tell(msg) => self.event(n, Event::Local(msg)),
            }
        }

        /// After every step: epochs are monotone, and each shard has
        /// exactly one owner-or-freezer — `held_by` makes "one runtime
        /// or one frozen copy" structural (`complete` asserts the
        /// transitions), and the directories agree with it: exactly
        /// the holder claims a shard, nobody claims a frozen one.
        fn check(&mut self) {
            let seed = self.seed;
            for n in 0..self.ctl.len() {
                let e = self.dir[n].epoch();
                assert!(e >= self.epoch_seen[n], "seed {seed}: node {n} epoch fell");
                self.epoch_seen[n] = e;
            }
            for (s, held_by) in self.held_by.iter().enumerate() {
                let claims = (0..self.ctl.len()).filter(|&n| self.dir[n].owner_of(s) as usize == n);
                let claims: Vec<usize> = claims.collect();
                assert_eq!(claims, Vec::from_iter(*held_by), "seed {seed}: shard {s}");
            }
        }
    }

    /// One seeded schedule of a drain + rejoin: node 1's two shards
    /// move to node 2 and back while all three nodes keep sending
    /// frames at every shard.
    fn explore(seed: u64) {
        const FRAMES_PER_NODE: u64 = 8;
        let mut rng = DetRng::new(seed);
        let handoffs = [(2, 2), (3, 2), (2, 1), (3, 1)];
        let mut program: Vec<VecDeque<Op>> = (0..3u64)
            .map(|n| {
                (0..FRAMES_PER_NODE)
                    .map(|i| Op::Frame {
                        shard: rng.below(OWNERS.len() as u64) as usize,
                        token: (n * FRAMES_PER_NODE + i) as u32,
                    })
                    .collect()
            })
            .collect();
        // The coordinator's user thread requests the handoffs between
        // its own frames, in order, and closes last — as `ClusterRun`
        // does.
        for (i, (shard, to)) in handoffs.into_iter().enumerate() {
            program[0].insert(2 * i + 1, Op::Tell(request(shard, to)));
        }
        for p in &mut program {
            p.push_back(Op::Tell(closed(FRAMES_PER_NODE)));
        }
        let mut sim = Sim {
            seed,
            ctl: (0..3).map(|n| node(n).0).collect(),
            dir: (0..3).map(|n| node(n).1).collect(),
            edge: vec![vec![VecDeque::new(); 3]; 3],
            pending: (0..3).map(|_| VecDeque::new()).collect(),
            program,
            held_by: OWNERS.iter().map(|&o| Some(o as usize)).collect(),
            applied: vec![0; 3 * FRAMES_PER_NODE as usize],
            epoch_seen: vec![0; 3],
            notes: (0..3).map(|_| Vec::new()).collect(),
            bounces_in: vec![0; 3],
        };
        let slow = (0u8, rng.below(3) as usize, rng.below(3) as usize);
        for _step in 0..100_000 {
            // Everything that could happen next.
            let mut enabled: Vec<(u8, usize, usize)> = Vec::new();
            for a in 0..3 {
                for b in 0..3 {
                    if !sim.edge[a][b].is_empty() {
                        enabled.push((0, a, b));
                    }
                }
                if !sim.pending[a].is_empty() {
                    enabled.push((1, a, a));
                }
                if !sim.program[a].is_empty() {
                    enabled.push((2, a, a));
                }
            }
            if enabled.is_empty() {
                break;
            }
            // One edge per seed is slow: its frames move only when
            // nothing else can, or on a 1-in-16 draw — long enough for
            // a bounce to outlive the whole drain + rejoin.
            let fast: Vec<_> = enabled.iter().copied().filter(|&c| c != slow).collect();
            if !fast.is_empty() && rng.below(16) != 0 {
                enabled = fast;
            }
            match *rng.choose(&enabled) {
                (0, from, to) => sim.deliver(from, to),
                (1, n, _) => sim.complete(n),
                (_, n, _) => sim.advance(n),
            }
            sim.check();
        }
        assert!(
            sim.applied.iter().all(|&n| n == 1),
            "seed {seed}: frames applied {:?}",
            sim.applied
        );
        for (n, c) in sim.ctl.iter().enumerate() {
            assert!(c.quiesced, "seed {seed}: node {n} never quiesced");
            assert!(
                c.expecting.is_empty() && c.parked.is_empty(),
                "seed {seed}: node {n} stranded frames: {}",
                c.census(&sim.dir[n], &InboxBacklog::default())
            );
            assert_eq!(sim.dir[n].epoch(), handoffs.len() as u64, "seed {seed}");
            assert_eq!(sim.dir[n].snapshot(), OWNERS, "seed {seed}: rejoined");
        }
        // Each handoff phase is one ring event, on the node that
        // performed it: Prepare and Commit on the coordinator, Transfer
        // on the destination, and a Bounce per `Bounce` frame received.
        for n in 0..3 {
            let events = |kind| -> Vec<(u64, u64)> {
                let notes = sim.notes[n].iter();
                let of_kind = notes.filter_map(|note| match *note {
                    Note::Event(k, a, b) if k == kind => Some((a, b)),
                    _ => None,
                });
                of_kind.collect()
            };
            let (mut prepares, mut commits, mut transfers) = (vec![], vec![], vec![]);
            for (epoch, &(shard, to)) in (1..).zip(&handoffs) {
                let shard = u64::from(shard);
                if n == COORD {
                    prepares.push((shard, u64::from(to)));
                    commits.push((shard, epoch));
                }
                if to as usize == n {
                    transfers.push(shard);
                }
            }
            assert_eq!(events(EventKind::HandoffPrepare), prepares, "seed {seed}");
            assert_eq!(events(EventKind::HandoffCommit), commits, "seed {seed}");
            let got = events(EventKind::HandoffTransfer).into_iter().map(|e| e.0);
            assert_eq!(got.collect::<Vec<_>>(), transfers, "seed {seed}: node {n}");
            let bounces = events(EventKind::HandoffBounce).len();
            assert_eq!(bounces, sim.bounces_in[n], "seed {seed}: node {n}");
        }
    }

    #[test]
    fn seeded_schedules_of_a_drain_and_rejoin_never_strand_a_frame() {
        for seed in 0..2_000 {
            explore(seed);
        }
    }
}
