//! Deterministic fault injection for cluster transports.
//!
//! A [`ChaosTransport`] wraps any [`Transport`] and applies a scripted
//! [`FaultPlan`] to the frames crossing it: drop, delay, duplicate,
//! truncate, or bit-corrupt the Nth frame on a given `(from, to)`
//! edge, sever a connection mid-run, refuse inbound accepts, or
//! "crash" the whole node once it has sent a scripted number of
//! frames. Plans are either hand-scripted (one builder call per
//! fault) or derived from a `u64` seed via [`FaultPlan::seeded`] —
//! either way the injection is a pure function of the plan and the
//! frame streams, so any failing cluster run replays exactly from its
//! seed, in-process, under a debugger.
//!
//! The point is the property the chaos harness
//! (`crates/net/tests/chaos.rs`) checks against DESIGN.md §10: under
//! *any* plan, every node either completes with counters bit-equal to
//! the single-process run (possible only for benign faults — delays
//! and duplicates, which the sequence layer absorbs) or returns a
//! typed [`crate::ClusterError`] within its configured deadline.
//! Never a hang, never a silently wrong sum.

use crate::cluster::ClusterSpec;
use crate::proto::NetMsg;
use crate::transport::{
    Acceptor, Duplex, FrameBatch, FrameRx, FrameTx, Transport, FRAME_HEADER_BYTES,
};
use em2_model::DetRng;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One scripted mutation of a single frame on one directed edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Swallow the frame: the sender believes it shipped. Detected by
    /// the receiver as a sequence gap on the next frame (or the next
    /// heartbeat, which bounds detection on an idle edge).
    Drop,
    /// Hold the frame for `ms` milliseconds, then send it. Ordering
    /// is preserved (the delay happens under the sender's per-peer
    /// lock), so this fault is benign: the run must still complete
    /// bit-equal.
    Delay {
        /// Milliseconds to hold the frame.
        ms: u64,
    },
    /// Send the frame twice. The receiver's sequence layer drops the
    /// replay, so this fault is benign.
    Duplicate,
    /// Send only the first `keep` bytes of the frame. The receiver
    /// fails typed in the codec (truncated header or checksum
    /// mismatch).
    Truncate {
        /// Prefix length that survives.
        keep: usize,
    },
    /// XOR one payload byte. The frame checksum turns any single-bit
    /// corruption into a typed codec error — it can never decode as a
    /// different valid message.
    Corrupt {
        /// Byte position (taken modulo the frame length).
        offset: usize,
        /// Mask to XOR in (zero is promoted to `0x01`).
        xor: u8,
    },
    /// Close and discard the connection's send half. The sender sees
    /// a typed send failure; the peer sees EOF without the protocol's
    /// goodbye and reports the peer lost.
    Sever,
}

impl FaultAction {
    /// Whether the action preserves the delivered frame stream
    /// (delays and duplicates do; the sequence layer absorbs both).
    /// A plan of only benign actions must complete bit-equal.
    pub fn is_benign(&self) -> bool {
        matches!(self, FaultAction::Delay { .. } | FaultAction::Duplicate)
    }

    /// Stable short name (`fault_matrix` grouping key).
    pub fn kind(&self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Delay { .. } => "delay",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Truncate { .. } => "truncate",
            FaultAction::Corrupt { .. } => "corrupt",
            FaultAction::Sever => "sever",
        }
    }
}

/// A complete fault script for one cluster run: per-edge frame
/// mutations, per-edge **flush** mutations (a whole coalesced batch as
/// the unit of damage), plus whole-node crash and accept-refusal
/// schedules. Frame indices count every frame the wrapped transport is
/// asked to send on that edge (handshake = frame 0); flush indices
/// count every flush — `send_frame` is a one-frame flush, so the
/// handshake is also flush 0. Either way a plan addresses a
/// deterministic position in the stream, not a wall-clock instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(from, to)` → frame index on that edge → action.
    edge: HashMap<(usize, usize), BTreeMap<u64, FaultAction>>,
    /// `(from, to)` → flush index on that edge → action applied to the
    /// whole coalesced batch.
    flush: HashMap<(usize, usize), BTreeMap<u64, FaultAction>>,
    /// Node → sent-frame count (across all edges) at which the node's
    /// transport dies wholesale.
    crash: HashMap<usize, u64>,
    /// Node → how many inbound accepts to refuse before behaving.
    refuse: HashMap<usize, u32>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Apply `action` to the `nth` frame sent from node `from` to
    /// node `to` (0-based; the handshake frame is 0).
    pub fn fault(mut self, from: usize, to: usize, nth: u64, action: FaultAction) -> Self {
        self.edge.entry((from, to)).or_default().insert(nth, action);
        self
    }

    /// Apply `action` to the `nth` **flush** sent from node `from` to
    /// node `to` (0-based; `send_frame` counts as a one-frame flush,
    /// so the handshake is flush 0). `Drop` swallows the whole batch
    /// (a many-frame sequence gap), `Truncate{keep}` keeps a byte
    /// budget across the concatenated frames — cutting mid-frame, like
    /// a crash between two `write(2)`s — `Corrupt` offsets into the
    /// concatenation, and `Duplicate` replays the entire batch.
    ///
    /// A `Truncate` whose target flush fits entirely inside `keep`
    /// would lose zero bytes — that is not a crash model, it is a
    /// no-op — so it **re-arms on the next flush** and keeps doing so
    /// until it actually cuts. Flush composition depends on coalescing
    /// timing; re-arming makes the scheduled cut deterministic without
    /// the caller having to know how large flush `nth` happened to be.
    pub fn fault_flush(mut self, from: usize, to: usize, nth: u64, action: FaultAction) -> Self {
        self.flush
            .entry((from, to))
            .or_default()
            .insert(nth, action);
        self
    }

    /// Kill node `node`'s transport once it has sent `after_frames`
    /// frames in total: every later send and receive on that node
    /// fails, as if the process vanished mid-run.
    pub fn crash_node(mut self, node: usize, after_frames: u64) -> Self {
        self.crash.insert(node, after_frames);
        self
    }

    /// Make node `node` refuse its first `count` inbound connections
    /// (accepted, then immediately torn down).
    pub fn refuse_accepts(mut self, node: usize, count: u32) -> Self {
        self.refuse.insert(node, count);
        self
    }

    /// Whether every scripted action is benign (no drops, truncations,
    /// corruptions, severs, crashes, or refusals) — the plans under
    /// which a run must still complete bit-equal.
    pub fn is_benign(&self) -> bool {
        self.crash.is_empty()
            && self.refuse.is_empty()
            && self
                .edge
                .values()
                .chain(self.flush.values())
                .flat_map(|m| m.values())
                .all(|a| a.is_benign())
    }

    /// Short names of every scripted action class, deduplicated and
    /// sorted (diagnostics and `fault_matrix` labels).
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut ks: Vec<&'static str> = self
            .edge
            .values()
            .chain(self.flush.values())
            .flat_map(|m| m.values())
            .map(|a| a.kind())
            .collect();
        if !self.crash.is_empty() {
            ks.push("crash");
        }
        if !self.refuse.is_empty() {
            ks.push("refuse");
        }
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// Derive a plan from a seed: one to three edge faults on random
    /// edges and frame indices, plus (when `benign_only` is false) an
    /// occasional whole-node crash. `benign_only` restricts the draw
    /// to delays and duplicates — the seeds the harness requires to
    /// complete bit-equal.
    pub fn seeded(seed: u64, nodes: usize, benign_only: bool) -> Self {
        assert!(nodes >= 2, "fault plans need an edge to fault");
        let mut rng = DetRng::new(seed ^ 0xC4A0_5EED_F417_7001);
        let mut plan = FaultPlan::new();
        let picks = 1 + rng.below(3);
        for _ in 0..picks {
            let from = rng.below(nodes as u64) as usize;
            let mut to = rng.below(nodes as u64 - 1) as usize;
            if to >= from {
                to += 1;
            }
            // Small indices land in the handshake and barrier phases;
            // larger ones in shard traffic and quiesce.
            let nth = rng.below(30);
            let action = if benign_only {
                match rng.below(2) {
                    0 => FaultAction::Delay {
                        ms: 1 + rng.below(15),
                    },
                    _ => FaultAction::Duplicate,
                }
            } else {
                match rng.below(6) {
                    0 => FaultAction::Drop,
                    1 => FaultAction::Delay {
                        ms: 1 + rng.below(15),
                    },
                    2 => FaultAction::Duplicate,
                    3 => FaultAction::Truncate {
                        keep: rng.below(12) as usize,
                    },
                    4 => FaultAction::Corrupt {
                        offset: rng.below(64) as usize,
                        xor: 1 << rng.below(8),
                    },
                    _ => FaultAction::Sever,
                }
            };
            plan = plan.fault(from, to, nth, action);
        }
        if !benign_only && rng.chance(0.25) {
            let node = rng.below(nodes as u64) as usize;
            plan = plan.crash_node(node, 3 + rng.below(25));
        }
        plan
    }
}

/// Live injection state of one node's [`ChaosTransport`], shared by
/// its connection halves: whether the scripted crash tripped and how
/// many faults actually fired.
#[derive(Debug, Default)]
struct ChaosState {
    /// Frames this node's transport was asked to send, across all
    /// edges (the crash-trigger clock).
    sent: AtomicU64,
    /// Set once the scripted crash threshold trips.
    crashed: AtomicBool,
    /// Faults that actually fired (scripted faults on frames never
    /// sent do not count).
    injected: AtomicU32,
    /// Inbound accepts refused so far.
    refused: AtomicU32,
}

impl ChaosState {
    fn record_injection(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    fn crash_err() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos: node crashed")
    }
}

/// A [`Transport`] that applies a [`FaultPlan`] to every frame
/// crossing it. One instance per node; the plan and the spec's
/// address table tell it which `(from, to)` edge each connection is.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    me: usize,
    /// Peer address → node id (how the dialer knows its edge).
    addr_to_node: HashMap<String, usize>,
    plan: Arc<FaultPlan>,
    state: Arc<ChaosState>,
}

impl ChaosTransport {
    /// Wrap `spec.kind`'s transport for node `me` under `plan`.
    pub fn wrap(spec: &ClusterSpec, me: usize, plan: Arc<FaultPlan>) -> Self {
        let addr_to_node = spec
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.addr.clone(), i))
            .collect();
        ChaosTransport {
            inner: spec.kind.make(),
            me,
            addr_to_node,
            plan,
            state: Arc::new(ChaosState::default()),
        }
    }

    fn wrap_duplex(&self, d: Duplex, peer: Arc<OnceLock<usize>>, sniff: bool) -> Duplex {
        Duplex {
            tx: Box::new(ChaosTx {
                inner: Some(d.tx),
                me: self.me,
                peer: Arc::clone(&peer),
                sent_on_edge: 0,
                flushes_on_edge: 0,
                pending_flush: None,
                plan: Arc::clone(&self.plan),
                state: Arc::clone(&self.state),
            }),
            rx: Box::new(ChaosRx {
                inner: d.rx,
                peer,
                sniff,
                state: Arc::clone(&self.state),
            }),
        }
    }
}

impl Transport for ChaosTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>> {
        Ok(Box::new(ChaosAcceptor {
            inner: self.inner.listen(addr)?,
            me: self.me,
            plan: Arc::clone(&self.plan),
            state: Arc::clone(&self.state),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        if self.state.crashed.load(Ordering::Relaxed) {
            return Err(ChaosState::crash_err());
        }
        let peer = Arc::new(OnceLock::new());
        if let Some(&n) = self.addr_to_node.get(addr) {
            let _ = peer.set(n);
        }
        let d = self.inner.connect(addr)?;
        Ok(self.wrap_duplex(d, peer, false))
    }
}

struct ChaosAcceptor {
    inner: Box<dyn Acceptor>,
    me: usize,
    plan: Arc<FaultPlan>,
    state: Arc<ChaosState>,
}

impl ChaosAcceptor {
    fn vet(&self, d: Duplex) -> io::Result<Duplex> {
        let budget = self.plan.refuse.get(&self.me).copied().unwrap_or(0);
        if self.state.refused.load(Ordering::Relaxed) < budget {
            self.state.refused.fetch_add(1, Ordering::Relaxed);
            self.state.record_injection();
            drop(d); // the dialer sees its connection close unanswered
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: inbound connection refused",
            ));
        }
        // The peer's id is unknown until its Hello arrives; the rx
        // wrapper sniffs it into the shared cell. The acceptor never
        // sends before receiving the Hello, so the tx wrapper always
        // knows its edge by the time it matters.
        let peer = Arc::new(OnceLock::new());
        Ok(Duplex {
            tx: Box::new(ChaosTx {
                inner: Some(d.tx),
                me: self.me,
                peer: Arc::clone(&peer),
                sent_on_edge: 0,
                flushes_on_edge: 0,
                pending_flush: None,
                plan: Arc::clone(&self.plan),
                state: Arc::clone(&self.state),
            }),
            rx: Box::new(ChaosRx {
                inner: d.rx,
                peer,
                sniff: true,
                state: Arc::clone(&self.state),
            }),
        })
    }
}

impl Acceptor for ChaosAcceptor {
    fn accept(&mut self) -> io::Result<Duplex> {
        let d = self.inner.accept()?;
        self.vet(d)
    }

    fn accept_deadline(&mut self, deadline: Instant) -> io::Result<Duplex> {
        let d = self.inner.accept_deadline(deadline)?;
        self.vet(d)
    }
}

struct ChaosTx {
    /// `None` after a scripted sever.
    inner: Option<Box<dyn FrameTx>>,
    me: usize,
    peer: Arc<OnceLock<usize>>,
    sent_on_edge: u64,
    /// Flushes attempted on this edge (`send_frame` = one-frame
    /// flush), the index `FaultPlan::fault_flush` addresses.
    flushes_on_edge: u64,
    /// A scheduled flush fault that did not bite yet (a `Truncate`
    /// whose flush fit under the byte budget) — re-applied to the next
    /// flush so a scheduled cut always lands.
    pending_flush: Option<FaultAction>,
    plan: Arc<FaultPlan>,
    state: Arc<ChaosState>,
}

impl ChaosTx {
    fn severed_err() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection severed")
    }

    fn sever(&mut self) -> io::Result<()> {
        if let Some(mut conn) = self.inner.take() {
            // The peer reads end of stream; our reader keeps its half.
            let _ = conn.close();
        }
        Err(Self::severed_err())
    }

    /// Per-frame pass: crash clock, frame-indexed faults. Returns the
    /// surviving (possibly mutated) frames, or an error for crash /
    /// sever — a sever first flushes the frames that preceded it, like
    /// a connection dying between two `write(2)`s.
    fn transform_frames(&mut self, batch: &FrameBatch) -> io::Result<FrameBatch> {
        let mut out = FrameBatch::default();
        for payload in batch.frames() {
            if self.state.crashed.load(Ordering::Relaxed) {
                return Err(ChaosState::crash_err());
            }
            if let Some(&after) = self.plan.crash.get(&self.me) {
                if self.state.sent.load(Ordering::Relaxed) >= after {
                    // A crash mid-window loses the whole buffered
                    // batch: nothing already transformed is flushed.
                    self.state.crashed.store(true, Ordering::Relaxed);
                    self.state.record_injection();
                    return Err(ChaosState::crash_err());
                }
            }
            self.state.sent.fetch_add(1, Ordering::Relaxed);
            let nth = self.sent_on_edge;
            self.sent_on_edge += 1;
            let action = self
                .peer
                .get()
                .and_then(|&to| self.plan.edge.get(&(self.me, to)))
                .and_then(|m| m.get(&nth))
                .copied();
            let Some(action) = action else {
                out.push(payload)?;
                continue;
            };
            self.state.record_injection();
            match action {
                FaultAction::Drop => {}
                FaultAction::Delay { ms } => {
                    // Sleeping here (inside the writer's flush) stalls
                    // the edge without reordering it.
                    std::thread::sleep(Duration::from_millis(ms));
                    out.push(payload)?;
                }
                FaultAction::Duplicate => {
                    out.push(payload)?;
                    out.push(payload)?;
                }
                FaultAction::Truncate { keep } => {
                    out.push(&payload[..keep.min(payload.len())])?;
                }
                FaultAction::Corrupt { offset, xor } => {
                    out.push(payload)?;
                    if !payload.is_empty() {
                        let last = out.len() - 1;
                        out.frame_mut(last)[offset % payload.len()] ^=
                            if xor == 0 { 1 } else { xor };
                    }
                }
                FaultAction::Sever => {
                    if let Some(conn) = self.inner.as_mut() {
                        let _ = conn.send_batch(&out);
                    }
                    return self.sever().map(|_| FrameBatch::default());
                }
            }
        }
        Ok(out)
    }

    /// Hand `out` to the wrapped connection (a batch every frame of
    /// which was dropped writes nothing).
    fn forward(&mut self, out: &FrameBatch) -> io::Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        self.inner
            .as_mut()
            .ok_or_else(Self::severed_err)?
            .send_batch(out)
    }
}

impl FrameTx for ChaosTx {
    // `send_frame`/`send_frames` are the trait's wrappers over this, so
    // flush indices count every send: an uncoalesced stream is a run of
    // one-frame flushes.
    fn send_batch(&mut self, batch: &FrameBatch) -> io::Result<()> {
        let mut out = self.transform_frames(batch)?;
        let fnth = self.flushes_on_edge;
        self.flushes_on_edge += 1;
        if self.inner.is_none() {
            return Err(Self::severed_err());
        }
        let action = self
            .peer
            .get()
            .and_then(|&to| self.plan.flush.get(&(self.me, to)))
            .and_then(|m| m.get(&fnth))
            .copied()
            .or_else(|| self.pending_flush.take());
        let Some(action) = action else {
            return self.forward(&out);
        };
        // Flush faults address the concatenated payloads.
        let total = out.wire_len() - out.len() * FRAME_HEADER_BYTES;
        if let FaultAction::Truncate { keep } = action {
            if keep >= total {
                // The whole window fits under the byte budget: zero
                // bytes would be lost, which models no crash at all.
                // Re-arm on the next flush (see `fault_flush` docs) so
                // the scheduled cut always lands, regardless of how
                // coalescing timing sized this particular flush.
                self.pending_flush = Some(action);
                return self.forward(&out);
            }
        }
        self.state.record_injection();
        match action {
            // The whole batch vanishes: every frame in it surfaces as
            // one many-frame sequence gap at the receiver.
            FaultAction::Drop => Ok(()),
            FaultAction::Delay { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                self.forward(&out)
            }
            // Replay the entire batch; the receiver's sequence layer
            // drops every frame of the replay.
            FaultAction::Duplicate => {
                self.forward(&out)?;
                self.forward(&out)
            }
            // A byte budget across the concatenated frames: frames
            // before the cut ship whole, the crossing frame ships a
            // prefix, everything after is lost — a crash between two
            // `write(2)`s of one coalesced window.
            FaultAction::Truncate { keep } => {
                let mut budget = keep;
                let mut cut = FrameBatch::default();
                for p in out.frames() {
                    if budget == 0 {
                        break;
                    }
                    let n = p.len().min(budget);
                    cut.push(&p[..n])?;
                    budget -= n;
                }
                self.forward(&cut)
            }
            // Offset into the concatenation — the damaged byte may
            // land in any frame of the window.
            FaultAction::Corrupt { offset, xor } => {
                if total > 0 {
                    let mut i = offset % total;
                    for f in 0..out.len() {
                        let p = out.frame_mut(f);
                        if i < p.len() {
                            p[i] ^= if xor == 0 { 1 } else { xor };
                            break;
                        }
                        i -= p.len();
                    }
                }
                self.forward(&out)
            }
            FaultAction::Sever => self.sever(),
        }
    }

    fn close(&mut self) -> io::Result<()> {
        if self.state.crashed.load(Ordering::Relaxed) {
            // A crashed node's goodbye never reaches the wire.
            self.inner = None;
            return Err(ChaosState::crash_err());
        }
        match self.inner.as_mut() {
            Some(c) => c.close(),
            None => Ok(()),
        }
    }
}

struct ChaosRx {
    inner: Box<dyn FrameRx>,
    peer: Arc<OnceLock<usize>>,
    /// Accepted connections learn their peer from its Hello frame.
    sniff: bool,
    state: Arc<ChaosState>,
}

impl FrameRx for ChaosRx {
    fn recv(&mut self) -> io::Result<Option<&[u8]>> {
        if self.state.crashed.load(Ordering::Relaxed) {
            return Err(ChaosState::crash_err());
        }
        let frame = self.inner.recv()?;
        if self.sniff && self.peer.get().is_none() {
            if let Some(f) = frame {
                if let Ok((_, NetMsg::Hello { node, .. })) = NetMsg::decode(f) {
                    let _ = self.peer.set(node as usize);
                }
            }
        }
        Ok(frame)
    }

    // Every frame handed out here is the wrapped receiver's next one.
    fn buffered(&self) -> bool {
        self.inner.buffered()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_benign_when_asked() {
        for seed in 0..50u64 {
            let a = FaultPlan::seeded(seed, 2, true);
            let b = FaultPlan::seeded(seed, 2, true);
            assert_eq!(a, b, "seed {seed} derives one plan");
            assert!(a.is_benign(), "benign_only draw stayed benign");
            assert!(!a.kinds().is_empty());
        }
        let harmful: usize = (0..50u64)
            .filter(|&s| !FaultPlan::seeded(s, 3, false).is_benign())
            .count();
        assert!(harmful > 20, "unrestricted draws inject real damage");
    }

    #[test]
    fn scripted_faults_mutate_exactly_the_named_frame() {
        use crate::cluster::TransportKind;
        let spec = ClusterSpec::even(TransportKind::Loopback, "chaos-unit-edge", 2, 4);
        let plan = Arc::new(FaultPlan::new().fault(1, 0, 1, FaultAction::Drop).fault(
            1,
            0,
            2,
            FaultAction::Duplicate,
        ));
        // Node 0 listens un-faulted; node 1 dials through chaos.
        let mut acceptor = spec
            .kind
            .make()
            .listen(&spec.nodes[0].addr)
            .expect("listen");
        let chaos = ChaosTransport::wrap(&spec, 1, Arc::clone(&plan));
        let mut dialer = chaos.connect(&spec.nodes[0].addr).expect("connect");
        let mut server = acceptor.accept().expect("accept");
        for n in 0..4u8 {
            dialer.tx.send_frame(&[n]).expect("send");
        }
        // Frame 1 dropped, frame 2 doubled: the receiver sees 0,2,2,3.
        let got: Vec<u8> = (0..4)
            .map(|_| server.rx.recv_frame().expect("recv").expect("frame")[0])
            .collect();
        assert_eq!(got, vec![0, 2, 2, 3]);
        assert_eq!(chaos.state.injected.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn crash_kills_every_direction_at_the_threshold() {
        use crate::cluster::TransportKind;
        let spec = ClusterSpec::even(TransportKind::Loopback, "chaos-unit-crash", 2, 4);
        let plan = Arc::new(FaultPlan::new().crash_node(1, 2));
        let chaos = ChaosTransport::wrap(&spec, 1, Arc::clone(&plan));
        let mut acceptor = spec
            .kind
            .make()
            .listen(&spec.nodes[0].addr)
            .expect("listen");
        let mut dialer = chaos.connect(&spec.nodes[0].addr).expect("connect");
        let _server = acceptor.accept().expect("accept");
        dialer.tx.send_frame(&[0]).expect("frame 0");
        dialer.tx.send_frame(&[1]).expect("frame 1");
        assert!(dialer.tx.send_frame(&[2]).is_err(), "threshold trips");
        assert!(chaos.state.crashed.load(Ordering::Relaxed));
        assert!(dialer.rx.recv_frame().is_err(), "rx dies with the node");
        assert!(
            chaos.connect(&spec.nodes[0].addr).is_err(),
            "no new connections from a dead node"
        );
    }
}
