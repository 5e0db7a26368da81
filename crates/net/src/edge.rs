//! The rules of one peer edge, sans-IO: [`Ingress`], what a reader
//! does with each frame and with the end of its stream; [`Egress`],
//! what a writer counts for each frame it stages; [`Greeting`], the
//! `Hello` exchange that opens a connection; and [`backoff`], the
//! dialer's wait between refused connects. Like `control.rs`, nothing
//! here holds a thread, a socket, a clock read or an environment
//! lookup — `node.rs`'s loops receive, send and sleep — so every rule
//! is tested below without a thread.

use crate::error::ClusterError;
use crate::proto::{encode_shard, transfer_state_len, NetMsg, NetView};
use crate::transport::FrameBatch;
use em2_model::hash::{fnv1a, FNV1A_INIT};
use em2_model::{DetRng, Fold};
use em2_rt::wire::{WireEnvelope, WireMsg, WIRE_VERSION};
use em2_rt::Outbound;
use std::time::Duration;

/// One node's wire telemetry. Every count is kept as plain memory by
/// the thread that counts it — a writer its edge's `Egress`, a reader
/// its edge's `Ingress` — handed back through that thread's
/// `JoinHandle`, and summed by `finish()`: nothing on the data path
/// touches a shared counter (DESIGN.md §11).
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
    pub(crate) fn absorb(&mut self, o: &WireSnapshot) {
        let mut o = *o;
        for ((_, mine, fold), (_, theirs, _)) in self.fields().into_iter().zip(o.fields()) {
            *mine = fold.apply(*mine, *theirs);
        }
    }
}

// ------------------------------------------------------------ ingress

/// What one inbound frame asks of its reader.
#[derive(Debug)]
pub(crate) enum Inbound<'a> {
    /// Run traffic for a shard we own: deliver the view, which borrows
    /// the receive buffer.
    Deliver {
        shard: usize,
        retries: u32,
        msg: WireMsg<WireEnvelope<&'a [u8]>>,
    },
    /// An owned copy for `Control`.
    Control(NetMsg),
    /// A replay, a heartbeat or a goodbye: nothing to do.
    Nothing,
}

/// A reader's rules and state: plain memory, owned by the one reader
/// of the edge from node `from`.
pub(crate) struct Ingress {
    from: usize,
    /// The cluster's shard count.
    shards: usize,
    expected_seq: u64,
    /// The peer said [`NetMsg::Bye`]: its EOF is a shutdown, not a loss.
    bye: bool,
    /// This edge's receive ledger.
    pub(crate) wire: WireSnapshot,
}

impl Ingress {
    pub(crate) fn new(from: usize, shards: usize) -> Ingress {
        // The handshake frame consumed sequence 0.
        let (expected_seq, bye, wire) = (1, false, WireSnapshot::default());
        Ingress {
            from,
            shards,
            expected_seq,
            bye,
            wire,
        }
    }

    /// Apply the receive rules to one frame; `owns(shard)` says whether
    /// this node owns an in-range shard now. A frame that does not
    /// decode, or that proves a lost frame, fails the run.
    #[inline]
    pub(crate) fn take<'a>(
        &mut self,
        frame: &'a [u8],
        owns: impl Fn(usize) -> bool,
    ) -> Result<Inbound<'a>, ClusterError> {
        let (from, expected) = (self.from, self.expected_seq);
        let codec = |detail| ClusterError::Codec { from, detail };
        let (seq, view) = NetMsg::view(frame).map_err(|e| codec(e.to_string()))?;
        if seq < expected {
            // A replayed frame: its sequence was already consumed, so
            // dropping it is exactly once-delivery — this is why
            // duplicate faults leave the E12 sum bit-equal.
            self.wire.dupes_rx += 1;
            return Ok(Inbound::Nothing);
        }
        if seq > expected {
            return Err(codec(format!(
                "sequence gap from node {from}: expected {expected}, got {seq} — at least one \
                 frame was lost"
            )));
        }
        self.expected_seq += 1;
        if !matches!(&view, NetView::Msg(m) if m.is_control()) {
            self.wire.frames_rx += 1;
            self.wire.bytes_rx += frame.len() as u64;
        }
        Ok(match view {
            NetView::Shard {
                to, retries, msg, ..
            } if (to as usize) < self.shards && owns(to as usize) => {
                let shard = to as usize;
                Inbound::Deliver {
                    shard,
                    retries,
                    msg,
                }
            }
            NetView::Msg(NetMsg::Heartbeat) => Inbound::Nothing,
            NetView::Msg(NetMsg::Bye) => {
                self.bye = true;
                Inbound::Nothing
            }
            view => Inbound::Control(view.into_owned()),
        })
    }

    /// The stream ended: at an EOF (`err` is `None`), clean after the
    /// peer's goodbye; otherwise a lost peer, for `Control` to judge.
    pub(crate) fn ended(&self, err: Option<std::io::Error>) -> Option<ClusterError> {
        let detail = match err {
            None if self.bye => return None,
            None => "connection closed without a goodbye".into(),
            Some(e) => format!("receive failed: {e}"),
        };
        let node = self.from;
        Some(ClusterError::PeerLost { node, detail })
    }
}

// ------------------------------------------------------------- egress

/// What a writer owns besides its connection and its buffers: plain
/// memory, read by nobody else until the thread returns `wire`.
pub(crate) struct Egress {
    to: usize,
    next_seq: u64,
    /// This edge's egress ledger.
    pub(crate) wire: WireSnapshot,
}

impl Egress {
    pub(crate) fn new(to: usize) -> Egress {
        // The handshake frame consumed sequence 0.
        let (next_seq, wire) = (1, WireSnapshot::default());
        Egress { to, next_seq, wire }
    }

    /// Encode `msg` under the next sequence number straight into the
    /// flush buffer, counting it: every frame on the total ledger, run
    /// traffic on the deterministic one. A `HandoffTransfer` answers its
    /// shard and the state's bytes, read off the one frame it is encoded
    /// into, for the `HandoffFreeze` ring event. A message too large to
    /// frame (only a frozen shard can be) fails the run and consumes no
    /// sequence number.
    pub(crate) fn stage(
        &mut self,
        msg: &NetMsg,
        batch: &mut FrameBatch,
    ) -> Result<Option<(u32, u64)>, ClusterError> {
        let pushed = batch.push_with(|b| msg.encode_into(self.next_seq, b));
        self.count(pushed, msg.is_control())?;
        if let NetMsg::HandoffTransfer { state, .. } = msg {
            let bytes = batch.frames().last().map_or(0, transfer_state_len);
            return Ok(Some((state.shard, bytes as u64)));
        }
        Ok(None)
    }

    /// [`Egress::stage`] for run traffic: a [`NetMsg::Shard`] frame for
    /// shard `to`, written from the executor's own message
    /// ([`encode_shard`]). A shipped envelope — visible right here —
    /// also counts on the context ledger.
    pub(crate) fn stage_shard(
        &mut self,
        to: u32,
        epoch: u64,
        retries: u32,
        msg: &Outbound,
        batch: &mut FrameBatch,
    ) -> Result<(), ClusterError> {
        let seq = self.next_seq;
        let pushed = batch.push_with(|b| encode_shard(seq, b, to, epoch, retries, msg));
        self.count(pushed, false)?;
        if let Some(ctx) = msg.context_len() {
            self.wire.arrives_tx += 1;
            self.wire.context_bytes_tx += ctx as u64;
        }
        Ok(())
    }

    /// Count a frame `pushed` into the batch (its length, or why it
    /// could not be) on the ledgers, and consume its sequence number.
    fn count(&mut self, pushed: std::io::Result<usize>, control: bool) -> Result<(), ClusterError> {
        let len = pushed.map_err(|e| self.lost(e))? as u64;
        self.next_seq += 1;
        self.wire.frames_tx_total += 1;
        self.wire.bytes_tx_total += len;
        if !control {
            self.wire.frames_tx += 1;
            self.wire.bytes_tx += len;
        }
        Ok(())
    }

    /// What a failed write (or a frame too large to write) means.
    pub(crate) fn lost(&self, e: std::io::Error) -> ClusterError {
        let (node, detail) = (self.to, format!("send failed: {e}"));
        ClusterError::PeerLost { node, detail }
    }

    /// Count one flush, of a window `take` found `queued` deep.
    pub(crate) fn flushed(&mut self, queued: u64) {
        self.wire.flushes_tx += 1;
        self.wire.egress_hwm = self.wire.egress_hwm.max(queued);
    }
}

// ------------------------------------------------------------ bring-up

pub(crate) fn handshake_err(detail: String) -> ClusterError {
    ClusterError::Handshake { detail }
}

/// How node `me` of a `nodes`-node cluster with topology digest
/// `digest` opens a connection: node `j` dials every `i < j` with
/// `Hello{node, wire_version, topology}`, and the acceptor answers
/// `HelloAck{node, topology}`. A version or topology mismatch refuses
/// the connection — two processes that disagree on shard ownership
/// must not exchange a single shard message.
pub(crate) struct Greeting {
    pub(crate) me: usize,
    pub(crate) nodes: usize,
    pub(crate) digest: u64,
}

impl Greeting {
    pub(crate) fn hello(&self) -> Vec<u8> {
        let (node, wire_version, topology) = (self.me as u32, WIRE_VERSION, self.digest);
        let hello = NetMsg::Hello {
            node,
            wire_version,
            topology,
        };
        hello.encode(0)
    }

    pub(crate) fn ack(&self) -> Vec<u8> {
        let (node, topology) = (self.me as u32, self.digest);
        NetMsg::HelloAck { node, topology }.encode(0)
    }

    /// Check a connection's first frame, at sequence 0, and name the
    /// peer: the `HelloAck` of the node we `dialed`, or else a `Hello`
    /// from a higher node that is not `connected` yet.
    pub(crate) fn check(
        &self,
        frame: &[u8],
        dialed: Option<usize>,
        connected: impl Fn(usize) -> bool,
    ) -> Result<usize, ClusterError> {
        let (me, nodes, digest) = (self.me, self.nodes, self.digest);
        let (seq, msg) = NetMsg::decode(frame).map_err(|e| handshake_err(e.to_string()))?;
        let (n, wire, topology) = match (dialed, msg) {
            (Some(_), NetMsg::HelloAck { node, topology }) => (node, WIRE_VERSION, topology),
            (
                None,
                NetMsg::Hello {
                    node,
                    wire_version: v,
                    topology,
                },
            ) => (node, v, topology),
            (dialed, other) => {
                let want = ["Hello", "HelloAck"][usize::from(dialed.is_some())];
                return Err(handshake_err(format!("expected {want}, got {other:?}")));
            }
        };
        let why = match n as usize {
            _ if seq != 0 => format!("handshake frame carried sequence {seq}, expected 0"),
            _ if wire != WIRE_VERSION => {
                format!("speaks wire version {wire}, this build {WIRE_VERSION}")
            }
            _ if topology != digest => {
                format!("has topology digest {topology:#x}, this node {digest:#x}")
            }
            n => match dialed {
                Some(peer) if n != peer => format!("answered the dial to node {peer}"),
                Some(_) => return Ok(n),
                None if n <= me => format!("unexpected Hello: only nodes above {me} dial it"),
                None if n >= nodes => format!("unexpected Hello: not in a {nodes}-node cluster"),
                None if connected(n) => "unexpected Hello: already connected".into(),
                None => return Ok(n),
            },
        };
        Err(handshake_err(format!("node {n}: {why}")))
    }
}

/// The dialer's wait between refused connects, given the time left
/// before its deadline, which no wait passes: 2 ms doubling to a
/// 200 ms cap, each wait drawn from its upper half by a [`DetRng`]
/// seeded from the address — retries from many nodes spread out
/// instead of stampeding the listener in lockstep.
pub(crate) fn backoff(addr: &str) -> impl FnMut(Duration) -> Duration {
    let mut rng = DetRng::new(fnv1a(FNV1A_INIT, addr.as_bytes()));
    let mut delay_ms = 2;
    move |left| {
        let half = delay_ms / 2;
        delay_ms = (delay_ms * 2).min(200);
        Duration::from_millis(half + rng.below(half + 1)).min(left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reader of node 1's edge from node 0, four shards, node 1
    /// owning 2 and 3.
    fn reader() -> Ingress {
        Ingress::new(0, 4)
    }

    fn ours(shard: usize) -> bool {
        shard >= 2
    }

    /// A run-traffic message for `shard`.
    fn shard(to: u32) -> NetMsg {
        let msg = WireMsg::Response {
            token: 7,
            value: Some(42),
        };
        NetMsg::Shard {
            to,
            epoch: 0,
            retries: 3,
            msg,
        }
    }

    fn take(r: &mut Ingress, seq: u64, msg: &NetMsg) -> Result<Option<NetMsg>, ClusterError> {
        let frame = msg.encode(seq);
        Ok(match r.take(&frame, ours)? {
            Inbound::Deliver {
                shard,
                retries,
                msg,
            } => {
                let (to, epoch) = (shard as u32, 0);
                let msg = msg.map(WireEnvelope::into_owned);
                assert_eq!(retries, 3);
                Some(NetMsg::Shard {
                    to,
                    epoch,
                    retries,
                    msg,
                })
            }
            Inbound::Control(m) => panic!("not delivered: {m:?}"),
            Inbound::Nothing => None,
        })
    }

    /// The message `Control` would get for `msg` at `seq`.
    fn to_control(r: &mut Ingress, seq: u64, msg: &NetMsg) -> NetMsg {
        match r.take(&msg.encode(seq), ours) {
            Ok(Inbound::Control(m)) => m,
            other => panic!("{msg:?} not for Control: {other:?}"),
        }
    }

    #[test]
    fn a_shard_frame_for_an_owned_shard_is_delivered_as_the_view() {
        let mut r = reader();
        assert_eq!(take(&mut r, 1, &shard(2)), Ok(Some(shard(2))));
        assert_eq!(take(&mut r, 2, &shard(3)), Ok(Some(shard(3))));
        assert_eq!(r.wire.frames_rx, 2);
        assert_eq!(r.wire.bytes_rx, 2 * shard(2).encode(1).len() as u64);
    }

    #[test]
    fn a_frame_that_does_not_decode_is_a_codec_error() {
        let mut r = reader();
        let mut frame = shard(2).encode(1);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        match r.take(&frame, ours) {
            Err(ClusterError::Codec { from: 0, .. }) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(r.take(&[], ours).map(|_| ()).unwrap_err().kind(), "codec");
    }

    #[test]
    fn a_replayed_frame_counts_as_a_dupe_and_is_dropped() {
        let mut r = reader();
        assert_eq!(take(&mut r, 1, &shard(2)), Ok(Some(shard(2))));
        assert_eq!(take(&mut r, 1, &shard(2)), Ok(None));
        assert_eq!(take(&mut r, 2, &shard(3)), Ok(Some(shard(3))));
        assert_eq!(take(&mut r, 1, &shard(3)), Ok(None));
        assert_eq!((r.wire.dupes_rx, r.wire.frames_rx), (2, 2));
    }

    #[test]
    fn a_sequence_gap_is_a_codec_error_naming_both_numbers() {
        let mut r = reader();
        take(&mut r, 1, &shard(2)).expect("in order");
        match take(&mut r, 3, &shard(2)) {
            Err(ClusterError::Codec { from: 0, detail }) => {
                assert!(detail.contains("expected 2, got 3"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_frames_stay_out_of_the_receive_ledger() {
        let mut r = reader();
        let reason = "x".to_string();
        assert_eq!(take(&mut r, 1, &NetMsg::Heartbeat), Ok(None));
        assert!(matches!(
            to_control(&mut r, 2, &NetMsg::Abort { reason }),
            NetMsg::Abort { .. }
        ));
        assert_eq!(take(&mut r, 3, &NetMsg::Bye), Ok(None));
        assert_eq!((r.wire.frames_rx, r.wire.bytes_rx), (0, 0));
        // The sequence stream still moved past them.
        assert_eq!(to_control(&mut r, 4, &NetMsg::Quiesce), NetMsg::Quiesce);
        assert_eq!(r.wire.frames_rx, 1);
    }

    #[test]
    fn every_other_frame_goes_to_control_as_an_owned_message() {
        let mut r = reader();
        let msgs = [
            // Not ours, and out of range: `Control` bounces the first
            // and refuses the second.
            shard(0),
            shard(4),
            NetMsg::BarrierRelease { k: 0 },
            NetMsg::Quiesce,
        ];
        for (seq, msg) in (1..).zip(&msgs) {
            assert_eq!(&to_control(&mut r, seq, msg), msg);
        }
        assert_eq!(r.wire.frames_rx, msgs.len() as u64);
    }

    #[test]
    fn a_goodbye_then_eof_is_clean_and_eof_without_one_is_a_lost_peer() {
        let mut r = reader();
        match r.ended(None) {
            Some(ClusterError::PeerLost { node: 0, detail }) => {
                assert!(detail.contains("without a goodbye"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
        let e = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset");
        match r.ended(Some(e)) {
            Some(ClusterError::PeerLost { node: 0, detail }) => {
                assert!(detail.contains("receive failed: reset"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(take(&mut r, 1, &NetMsg::Bye), Ok(None));
        assert_eq!(r.ended(None), None);
    }

    #[test]
    fn the_writer_counts_each_frame_on_its_ledgers() {
        let (mut tx, mut batch) = (Egress::new(0), FrameBatch::default());
        assert_eq!(tx.stage(&shard(0), &mut batch), Ok(None));
        assert_eq!(tx.stage(&NetMsg::Heartbeat, &mut batch), Ok(None));
        let frames: Vec<Vec<u8>> = batch.frames().map(<[u8]>::to_vec).collect();
        assert_eq!(frames, [shard(0).encode(1), NetMsg::Heartbeat.encode(2)]);
        let data = frames[0].len() as u64;
        let all = data + frames[1].len() as u64;
        let w = tx.wire;
        assert_eq!((w.frames_tx, w.bytes_tx), (1, data));
        assert_eq!((w.frames_tx_total, w.bytes_tx_total), (2, all));
        tx.flushed(5);
        tx.flushed(3);
        assert_eq!((tx.wire.flushes_tx, tx.wire.egress_hwm), (2, 5));
    }

    // ---------------------------------------------------------- bring-up

    const DIGEST: u64 = 0xD16E57;

    /// Node `me` of four.
    fn greeting(me: usize) -> Greeting {
        Greeting {
            me,
            nodes: 4,
            digest: DIGEST,
        }
    }

    /// Node `me` of four, on another topology.
    fn foreign(me: usize) -> Greeting {
        let digest = DIGEST + 1;
        Greeting {
            digest,
            ..greeting(me)
        }
    }

    impl Greeting {
        /// [`Greeting::hello`], at sequence `seq`.
        fn hello_at(&self, seq: u64) -> Vec<u8> {
            let mut frame = Vec::new();
            NetMsg::decode(&self.hello())
                .expect("a Hello")
                .1
                .encode_into(seq, &mut frame);
            frame
        }
    }

    fn hello(node: u32, wire_version: u8, topology: u64) -> Vec<u8> {
        let hello = NetMsg::Hello {
            node,
            wire_version,
            topology,
        };
        hello.encode(0)
    }

    #[test]
    fn a_matching_hello_and_ack_name_the_peer() {
        let none = |_| false;
        assert_eq!(greeting(1).check(&greeting(3).hello(), None, none), Ok(3));
        assert_eq!(greeting(3).check(&greeting(1).ack(), Some(1), none), Ok(1));
    }

    #[test]
    fn each_handshake_refusal_names_its_cause() {
        let g = greeting(1);
        // The frame, the node dialed, the node already connected, and
        // what the refusal must say.
        let refused =
            |frame: &[u8], dialed, connected: Option<usize>| match g
                .check(frame, dialed, |n| Some(n) == connected)
            {
                Err(e @ ClusterError::Handshake { .. }) => e.to_string(),
                other => panic!("not a handshake refusal: {other:?}"),
            };
        let v = WIRE_VERSION + 1;
        let cases = [
            (hello(2, v, DIGEST), None, None, format!("wire version {v}")),
            (
                hello(2, WIRE_VERSION, DIGEST + 1),
                None,
                None,
                "topology digest".into(),
            ),
            (
                greeting(0).hello(),
                None,
                None,
                "node 0: unexpected Hello: only nodes above 1".into(),
            ),
            (
                greeting(1).hello(),
                None,
                None,
                "node 1: unexpected Hello: only nodes above 1".into(),
            ),
            (
                greeting(4).hello(),
                None,
                None,
                "node 4: unexpected Hello: not in a 4-node".into(),
            ),
            (
                greeting(2).hello(),
                None,
                Some(2),
                "node 2: unexpected Hello: already connected".into(),
            ),
            (
                greeting(2).ack(),
                Some(0),
                None,
                "node 2: answered the dial to node 0".into(),
            ),
            (
                foreign(0).ack(),
                Some(0),
                None,
                "node 0: has topology digest".into(),
            ),
            (
                greeting(3).hello_at(1),
                None,
                None,
                "sequence 1, expected 0".into(),
            ),
            // The wrong message for the side.
            (
                greeting(3).ack(),
                None,
                None,
                "expected Hello, got HelloAck".into(),
            ),
            (
                greeting(0).hello(),
                Some(0),
                None,
                "expected HelloAck, got Hello".into(),
            ),
        ];
        for (frame, dialed, connected, cause) in cases {
            let e = refused(&frame, dialed, connected);
            assert!(e.contains(&cause), "{e} does not name {cause:?}");
        }
    }

    #[test]
    fn the_backoff_keeps_its_schedule_and_never_passes_the_deadline() {
        // Computed with the dialer's formula before it moved here
        // (the first eight waits for each address, deadline far off).
        let schedules: [(&str, [u64; 8]); 2] = [
            ("/tmp/em2.sock.0", [2, 4, 5, 16, 27, 49, 121, 173]),
            ("127.0.0.1:7000", [1, 4, 7, 15, 27, 41, 84, 145]),
        ];
        let far = Duration::from_secs(60);
        for (addr, want) in schedules {
            let mut wait = backoff(addr);
            let got: Vec<u64> = (0..8).map(|_| wait(far).as_millis() as u64).collect();
            assert_eq!(got, want, "{addr}");
        }
        let mut next = backoff("/tmp/em2.sock.0");
        let mut left = Duration::from_millis(300);
        while !left.is_zero() {
            let wait = next(left);
            assert!(wait <= left, "{wait:?} past {left:?}");
            left -= wait;
        }
    }
}
