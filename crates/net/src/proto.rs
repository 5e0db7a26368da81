//! The node-to-node control protocol.
//!
//! Every frame a cluster connection carries is one [`NetMsg`]:
//! `[u8 PROTO_VERSION][u32 check][var seq][u8 tag][fields]`, built on
//! the same cursor primitives as the runtime's wire codec
//! (`em2_rt::wire`) so every decoder fails with the same typed errors
//! and never panics. Version and check sit at fixed offsets: the
//! version byte is the frame's one sentinel (a peer of another version,
//! a magic-led v5 frame among them, is refused before anything else is
//! parsed), and the encoder patches the check in place. Identifiers,
//! counters and lengths are LEB128 varints; hashes (the check, the
//! topology digest) are fixed-width little-endian. Two header fields
//! exist purely for failure detection (DESIGN.md §10):
//!
//! * **`seq`** — a per-connection, per-direction frame counter
//!   starting at 0 with the handshake frame. The receiver drops any
//!   frame whose sequence it has already consumed (a *duplicate* is
//!   invisible to the runtime, which is what keeps the E12 bit-equal
//!   sum intact under duplicate faults) and treats a forward jump as
//!   proof of frame loss — a typed error the moment the *next* frame
//!   (or an idle heartbeat) lands, instead of a silent stall.
//! * **`check`** — a 64-bit multiply-xorshift hash over the sequence
//!   number, the body length and the body (`tag ++ fields`) taken
//!   eight bytes at a time, folded to 32 bits (`frame_check`). A
//!   mutated byte anywhere in the payload fails the checksum even when
//!   the mutated bytes would still parse, so corruption cannot
//!   masquerade as a valid (wrong) message.
//!
//! A [`NetMsg::Shard`] embeds a full [`WireMsg`] (its layout version is
//! the one the connection's `Hello` stated) — the transport layer is a
//! dumb router for those; everything else is membership, barriers,
//! completion accounting, and the failure-control plane
//! ([`NetMsg::Heartbeat`], [`NetMsg::Abort`], [`NetMsg::Bye`]) — see
//! the node lifecycle state machine in DESIGN.md §9–§10.

use em2_model::bytes::CodecError;
use em2_rt::wire::{put_u64, put_var, put_var_bytes, Cursor, FrozenShard, WireError, WireMsg};

/// Control-protocol version, the first byte of every frame; the
/// handshake refuses mismatches. Version 2 added the sequence/checksum
/// header and the failure-control messages (`Heartbeat`/`Abort`/`Bye`).
/// Version 3 stamps every `Shard` frame with the sender's directory
/// epoch and a bounce budget, and adds the live-handoff family
/// (`HandoffRequest`…`EpochUpdate`, `Bounce`). Version 4 moved the
/// check to a fixed offset ahead of a varint sequence number, hashes
/// eight bytes at a time, and packs every id and counter as a varint.
/// Version 5 dropped the fields no receiver read: `HandoffPrepare`'s
/// and `HandoffExpect`'s epoch, `HandoffExpect`'s source node and
/// `HandoffTransfer`'s copy of `state.shard`. Version 6 dropped the
/// four-byte magic that led every frame.
pub const PROTO_VERSION: u8 = 6;

/// Offset of the `u32` check (right after the version) and of the
/// first byte after it.
const CHECK_AT: usize = 1;
const CHECK_END: usize = CHECK_AT + 4;

/// One node-to-node control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg {
    /// Connector → acceptor, first frame on a connection: identify and
    /// prove both ends run the same cluster topology and wire format.
    Hello {
        /// The dialing node's id.
        node: u32,
        /// The dialer's `em2_rt::wire::WIRE_VERSION`: the one statement
        /// of it on the connection (an embedded `WireMsg` carries none).
        wire_version: u8,
        /// FNV-1a digest of the dialer's `ClusterSpec`.
        topology: u64,
    },
    /// Acceptor → connector: handshake accepted.
    HelloAck {
        /// The accepting node's id.
        node: u32,
        /// The acceptor's topology digest (must match the dialer's).
        topology: u64,
    },
    /// An inter-shard runtime message for global shard `to`.
    Shard {
        /// Destination shard (global id; the receiver re-checks
        /// ownership against its live directory, not the static spec).
        to: u32,
        /// The sender's directory epoch when it routed the frame —
        /// never newer than the map that chose the route (the sender
        /// reads the epoch first; installs publish owners first). A
        /// receiver that neither owns nor expects `to` uses it to
        /// decide who is stale: a stamp at or behind its map means
        /// the sender routed by an old world (bounce the frame back
        /// for re-route); a stamp ahead of its map proves a commit
        /// the receiver has not installed yet, so it parks the frame
        /// and re-routes when that `EpochUpdate` lands.
        epoch: u64,
        /// How many times ownership movement has already re-routed
        /// this frame; capped by the node's bounce budget.
        retries: u32,
        /// The runtime message.
        msg: WireMsg,
    },
    /// A task parked at barrier `k` on the sending node
    /// (node → coordinator).
    BarrierArrive {
        /// Barrier index.
        k: u32,
    },
    /// Barrier `k` met its cluster-wide quota
    /// (coordinator → everyone).
    BarrierRelease {
        /// Barrier index.
        k: u32,
    },
    /// The sending node closed admission after submitting `submitted`
    /// tasks (node → coordinator).
    Closed {
        /// Tasks the node submitted over its lifetime.
        submitted: u64,
    },
    /// One task retired on the sending node (node → coordinator).
    Retired,
    /// Every node closed and every task retired: stop
    /// (coordinator → everyone).
    Quiesce,
    /// Idle-connection keep-alive. Carries no payload and is excluded
    /// from wire telemetry; its job is to advance the sequence stream
    /// (exposing dropped frames) and refresh the peer's liveness
    /// clock in bounded time.
    Heartbeat,
    /// The sender's run failed; every receiver records the reason and
    /// shuts its local workers down (node → coordinator, then
    /// coordinator → everyone).
    Abort {
        /// Rendered `ClusterError` of the originating failure.
        reason: String,
    },
    /// Orderly goodbye, sent immediately before a clean close. An EOF
    /// *without* a preceding `Bye` is a peer loss, not a shutdown —
    /// this is what separates a severed connection from a finished
    /// node without racing the quiesce broadcast.
    Bye,
    /// Ask the coordinator to re-home a shard (any node →
    /// coordinator). The coordinator serializes requests into its
    /// handoff ledger and drives the four-phase protocol.
    HandoffRequest {
        /// Shard to move.
        shard: u32,
        /// Node that should own it afterwards.
        to: u32,
    },
    /// Phase 1, coordinator → current owner: freeze `shard` and ship
    /// its state to node `to`.
    HandoffPrepare {
        /// Ledger id of the handoff (unique per coordinator lifetime).
        hid: u64,
        /// Shard to freeze.
        shard: u32,
        /// Destination node.
        to: u32,
    },
    /// Phase 1, coordinator → destination: state for `shard` is about
    /// to arrive; buffer any early-routed frames for it instead of
    /// bouncing them.
    HandoffExpect {
        /// Ledger id.
        hid: u64,
        /// Shard in transit.
        shard: u32,
    },
    /// Phase 2, source → destination: the frozen shard state itself
    /// (`state.shard` names the shard being re-homed).
    HandoffTransfer {
        /// Ledger id.
        hid: u64,
        /// The complete transferable state (boxed: it dwarfs every
        /// other variant, and transfers are rare).
        state: Box<FrozenShard>,
    },
    /// Phase 3, destination → coordinator: the shard is installed and
    /// running here.
    HandoffDone {
        /// Ledger id.
        hid: u64,
        /// Shard now owned by the sender.
        shard: u32,
    },
    /// Phase 4, coordinator → everyone: the new ownership map, sealed
    /// under a bumped epoch. Receivers install it and re-route any
    /// frames they parked while ownership was ambiguous.
    EpochUpdate {
        /// The new (strictly increasing) directory epoch.
        epoch: u64,
        /// Owner node of every global shard, indexed by shard id.
        owners: Vec<u32>,
    },
    /// An epoch-fenced frame returned to its sender: the receiver no
    /// longer owned shard `to` and had no buffer open for it. The
    /// sender parks the frame until the next `EpochUpdate` when the
    /// bounce proves one is still in flight (see `epoch`), and
    /// re-routes via its own directory otherwise.
    Bounce {
        /// The shard the original frame targeted.
        to: u32,
        /// The refusing node's directory epoch at refusal, read next
        /// to its ownership check. The sender parks the frame only
        /// when this proves a future `EpochUpdate` will drain it:
        /// either the stamp is ahead of the sender's map (the sender
        /// is behind; the catch-up broadcast is in flight), or it is
        /// equal while the sender's map names the bouncing node (the
        /// refusal can then only come from an uncommitted freeze, so
        /// a commit is pending). Anything else — in particular a
        /// bounce older than the sender's map — re-routes instead: a
        /// shard can return to a previous owner, so "my map still
        /// names the bouncer" alone proves nothing about the future.
        epoch: u64,
        /// Re-routes already consumed (the receiver increments before
        /// forwarding; exceeding the bounce budget fails typed).
        retries: u32,
        /// The original runtime message, unmodified.
        msg: WireMsg,
    },
}

/// The frame integrity check: a 64-bit state absorbs `seq`, then
/// `body.len()`, then the body as little-endian 8-byte lanes (the last
/// one zero-padded), and is folded to 32 bits.
///
/// Absorbing a lane is `h ← xorshift((h ^ lane) · K)` with `K` odd:
/// xor with a constant, multiplication by an odd number modulo 2⁶⁴ and
/// `x ^ (x >> 29)` are each a bijection on `u64`, so for a fixed lane
/// the step permutes the state. Two inputs of equal length that differ
/// in exactly one lane therefore enter that lane with equal states,
/// leave it with different ones, and stay different through every later
/// (identical) lane: any mutation confined to eight aligned bytes —
/// every single-byte or single-bit fault — changes the 64-bit state
/// with certainty. The length lane keeps zero-padding honest (a body
/// and the same body plus trailing zero bytes pad to the same lanes but
/// differ in length). Only the final fold, the high half of one more
/// multiplication (which depends on every state bit), can collide: 1 in
/// 2³² for a random pair, and `every_single_bit_flip_is_detected`
/// checks all single-byte faults of every message kind exhaustively.
fn frame_check(seq: u64, body: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let absorb = |h: u64, lane: u64| {
        let x = (h ^ lane).wrapping_mul(K);
        x ^ (x >> 29)
    };
    let mut h = absorb(0xcbf2_9ce4_8422_2325, seq);
    h = absorb(h, body.len() as u64);
    let mut lanes = body.chunks_exact(8);
    for lane in &mut lanes {
        h = absorb(h, u64::from_le_bytes(lane.try_into().expect("8-byte lane")));
    }
    let rest = lanes.remainder();
    if !rest.is_empty() {
        let mut lane = [0u8; 8];
        lane[..rest.len()].copy_from_slice(rest);
        h = absorb(h, u64::from_le_bytes(lane));
    }
    (h.wrapping_mul(K) >> 32) as u32
}

/// Append one frame payload to `b`: the header for sequence number
/// `seq`, then whatever `body` appends, then the check over that body
/// patched into its fixed slot.
fn frame_into(seq: u64, b: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let frame_at = b.len();
    b.push(PROTO_VERSION);
    b.extend_from_slice(&[0; CHECK_END - CHECK_AT]);
    put_var(b, seq);
    let body_at = b.len();
    body(b);
    let check = frame_check(seq, &b[body_at..]);
    b[frame_at + CHECK_AT..frame_at + CHECK_END].copy_from_slice(&check.to_le_bytes());
}

impl NetMsg {
    /// Append this message, as a frame payload carrying sequence number
    /// `seq`, to `b` — the egress writer's flush buffer on the hot path,
    /// so a frame is written once, where it will be sent from.
    pub fn encode_into(&self, seq: u64, b: &mut Vec<u8>) {
        frame_into(seq, b, |b| self.encode_body(b));
    }

    /// Encode as a frame payload carrying sequence number `seq`.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        // Room for a migrated continuation (the canonical one is under
        // 300 bytes) without regrowing.
        let mut b = Vec::with_capacity(512);
        self.encode_into(seq, &mut b);
        b
    }

    /// `[tag][fields]`.
    fn encode_body(&self, body: &mut Vec<u8>) {
        let var32 = |b: &mut Vec<u8>, v: u32| put_var(b, u64::from(v));
        match self {
            NetMsg::Hello {
                node,
                wire_version,
                topology,
            } => {
                body.push(0);
                var32(body, *node);
                body.push(*wire_version);
                put_u64(body, *topology);
            }
            NetMsg::HelloAck { node, topology } => {
                body.push(1);
                var32(body, *node);
                put_u64(body, *topology);
            }
            NetMsg::Shard {
                to,
                epoch,
                retries,
                msg,
            } => {
                body.push(2);
                var32(body, *to);
                put_var(body, *epoch);
                var32(body, *retries);
                msg.encode_into(body);
            }
            NetMsg::BarrierArrive { k } => {
                body.push(3);
                var32(body, *k);
            }
            NetMsg::BarrierRelease { k } => {
                body.push(4);
                var32(body, *k);
            }
            NetMsg::Closed { submitted } => {
                body.push(5);
                put_var(body, *submitted);
            }
            NetMsg::Retired => body.push(6),
            NetMsg::Quiesce => body.push(7),
            NetMsg::Heartbeat => body.push(8),
            NetMsg::Abort { reason } => {
                body.push(9);
                put_var_bytes(body, reason.as_bytes());
            }
            NetMsg::Bye => body.push(10),
            NetMsg::HandoffRequest { shard, to } => {
                body.push(11);
                var32(body, *shard);
                var32(body, *to);
            }
            NetMsg::HandoffPrepare { hid, shard, to } => {
                body.push(12);
                put_var(body, *hid);
                var32(body, *shard);
                var32(body, *to);
            }
            NetMsg::HandoffExpect { hid, shard } => {
                body.push(13);
                put_var(body, *hid);
                var32(body, *shard);
            }
            NetMsg::HandoffTransfer { hid, state } => {
                body.push(14);
                put_var(body, *hid);
                state.encode_into(body);
            }
            NetMsg::HandoffDone { hid, shard } => {
                body.push(15);
                put_var(body, *hid);
                var32(body, *shard);
            }
            NetMsg::EpochUpdate { epoch, owners } => {
                body.push(16);
                put_var(body, *epoch);
                put_var(body, owners.len() as u64);
                for &o in owners {
                    var32(body, o);
                }
            }
            NetMsg::Bounce {
                to,
                epoch,
                retries,
                msg,
            } => {
                body.push(17);
                var32(body, *to);
                put_var(body, *epoch);
                var32(body, *retries);
                msg.encode_into(body);
            }
        }
    }

    /// Decode a frame payload into `(seq, message)`. Never panics;
    /// malformed input — including any single mutated byte, caught by
    /// the checksum — is a typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<(u64, NetMsg), WireError> {
        let mut r = Cursor::new(bytes);
        let ver = r.u8()?;
        if ver != PROTO_VERSION {
            return Err(WireError::Version {
                got: ver,
                want: PROTO_VERSION,
            });
        }
        let declared = r.u32()?;
        let seq = r.var()?;
        let body = r.rest();
        let got = frame_check(seq, body);
        if got != declared {
            return Err(CodecError::Checksum {
                got,
                want: declared,
            }
            .into());
        }
        let mut r = Cursor::new(body);
        let msg = match r.u8()? {
            0 => NetMsg::Hello {
                node: r.var_as()?,
                wire_version: r.u8()?,
                topology: r.u64()?,
            },
            1 => NetMsg::HelloAck {
                node: r.var_as()?,
                topology: r.u64()?,
            },
            // Fields in wire order; an embedded WireMsg or frozen state
            // consumes the rest of the frame.
            2 => NetMsg::Shard {
                to: r.var_as()?,
                epoch: r.var()?,
                retries: r.var_as()?,
                msg: WireMsg::decode(r.rest())?,
            },
            3 => NetMsg::BarrierArrive { k: r.var_as()? },
            4 => NetMsg::BarrierRelease { k: r.var_as()? },
            5 => NetMsg::Closed {
                submitted: r.var()?,
            },
            6 => NetMsg::Retired,
            7 => NetMsg::Quiesce,
            8 => NetMsg::Heartbeat,
            9 => NetMsg::Abort {
                reason: String::from_utf8_lossy(r.var_bytes()?).into_owned(),
            },
            10 => NetMsg::Bye,
            11 => NetMsg::HandoffRequest {
                shard: r.var_as()?,
                to: r.var_as()?,
            },
            12 => NetMsg::HandoffPrepare {
                hid: r.var()?,
                shard: r.var_as()?,
                to: r.var_as()?,
            },
            13 => NetMsg::HandoffExpect {
                hid: r.var()?,
                shard: r.var_as()?,
            },
            14 => NetMsg::HandoffTransfer {
                hid: r.var()?,
                state: Box::new(FrozenShard::decode(r.rest())?),
            },
            15 => NetMsg::HandoffDone {
                hid: r.var()?,
                shard: r.var_as()?,
            },
            16 => NetMsg::EpochUpdate {
                epoch: r.var()?,
                owners: r.list(Cursor::var_as)?,
            },
            17 => NetMsg::Bounce {
                to: r.var_as()?,
                epoch: r.var()?,
                retries: r.var_as()?,
                msg: WireMsg::decode(r.rest())?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    what: "net-msg",
                    tag,
                }
                .into())
            }
        };
        r.finish()?;
        Ok((seq, msg))
    }

    /// Whether this message is failure-control or membership plumbing
    /// (heartbeats, aborts, goodbyes, the handoff family) rather than
    /// run traffic. Control frames are excluded from wire telemetry so
    /// fault-free frame counts stay exactly reproducible whether or not
    /// heartbeats are enabled — and so a run with live handoffs keeps
    /// telemetry comparable to one without. (They still take sequence
    /// numbers, so the *bytes* of the data frames behind one can differ
    /// by a sequence varint's width; byte-exact comparisons run with
    /// heartbeats off, the default.)
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            NetMsg::Heartbeat
                | NetMsg::Abort { .. }
                | NetMsg::Bye
                | NetMsg::HandoffRequest { .. }
                | NetMsg::HandoffPrepare { .. }
                | NetMsg::HandoffExpect { .. }
                | NetMsg::HandoffTransfer { .. }
                | NetMsg::HandoffDone { .. }
                | NetMsg::EpochUpdate { .. }
                | NetMsg::Bounce { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_rt::wire::{HopCause, Journey, JourneyHop, WireEnvelope, WireOp, WIRE_VERSION};
    use proptest::prelude::*;

    /// A frame the `uds2-migrate` benchmark workload ships: a stamped
    /// trace task's 164-byte context, the arrival read, an in-progress
    /// run, and the journey — spilled, with 100 hops counted since,
    /// which is what 98 % of that workload's frames carry, or still
    /// filling and at its largest: all 16 hops, about to spill.
    fn migrated_frame(spilled: bool) -> NetMsg {
        let mut journey = Journey::default();
        if spilled {
            journey.dropped = 100;
        } else {
            for hop in 0..16u32 {
                journey.push(JourneyHop {
                    shard: (hop * 7) % 16,
                    node: ((hop * 7) % 16) / 8,
                    epoch: 0,
                    cause: if hop == 0 {
                        HopCause::Submit
                    } else {
                        HopCause::Migrate
                    },
                });
            }
        }
        NetMsg::Shard {
            to: 9,
            epoch: 0,
            retries: 0,
            msg: WireMsg::Arrive(WireEnvelope {
                thread: 200,
                native: 8,
                task_kind: 1,
                task_ctx: vec![0xA5; 164],
                scheme_state: Vec::new(),
                pending_op: Some(WireOp::Read(0x4_0000)),
                pending_reply: None,
                parked_at: None,
                run: Some((3, 2)),
                journey,
            }),
        }
    }

    /// `msg` routed to shard 9 at epoch 0, not yet re-routed: how every
    /// frame of the benchmark's cluster workloads leaves its node.
    fn to_shard_9(msg: WireMsg) -> NetMsg {
        NetMsg::Shard {
            to: 9,
            epoch: 0,
            retries: 0,
            msg,
        }
    }

    /// The four frames of a remote access as `uds2-remote` ships them,
    /// from the migrated frame's thread 200: a read and a write
    /// request, a load's value and a store's ack.
    fn remote_access_frames() -> [NetMsg; 4] {
        let request = |write| WireMsg::Request {
            addr: 0x4_0000,
            write,
            reply_shard: 3,
            token: 200,
        };
        let response = |value| WireMsg::Response { token: 200, value };
        [
            to_shard_9(request(None)),
            to_shard_9(request(Some(0xdead_beef))),
            to_shard_9(response(Some(42))),
            to_shard_9(response(None)),
        ]
    }

    fn variants() -> Vec<NetMsg> {
        let mut all = vec![
            migrated_frame(true),
            migrated_frame(false),
            NetMsg::Hello {
                node: 3,
                wire_version: WIRE_VERSION,
                topology: 0xDEAD_BEEF_CAFE_F00D,
            },
            NetMsg::HelloAck {
                node: 0,
                topology: 42,
            },
            NetMsg::Shard {
                to: 17,
                epoch: 4,
                retries: 1,
                msg: WireMsg::Request {
                    addr: 8,
                    write: Some(9),
                    reply_shard: 1,
                    token: 2,
                },
            },
            NetMsg::BarrierArrive { k: 5 },
            NetMsg::BarrierRelease { k: 5 },
            NetMsg::Closed { submitted: 1000 },
            NetMsg::Retired,
            NetMsg::Quiesce,
            NetMsg::Heartbeat,
            NetMsg::Abort {
                reason: "lost peer node 1: connection severed".into(),
            },
            NetMsg::Bye,
            NetMsg::HandoffRequest { shard: 6, to: 1 },
            NetMsg::HandoffPrepare {
                hid: 3,
                shard: 6,
                to: 1,
            },
            NetMsg::HandoffExpect { hid: 3, shard: 6 },
            NetMsg::HandoffTransfer {
                hid: 3,
                state: Box::new(FrozenShard {
                    shard: 6,
                    clock: 7,
                    heap: vec![(0, 42), (8, 9)],
                    natives: vec![2],
                    guests: vec![(5, true, 3)],
                    runq: vec![],
                    parked: vec![],
                    awaiting: vec![],
                    stalled: vec![],
                    mailbox: vec![WireMsg::Response {
                        token: 1,
                        value: Some(2),
                    }],
                }),
            },
            NetMsg::HandoffDone { hid: 3, shard: 6 },
            NetMsg::EpochUpdate {
                epoch: 5,
                owners: vec![0, 0, 1, 1, 1, 0, 1, 1],
            },
            NetMsg::Bounce {
                to: 6,
                epoch: 4,
                retries: 2,
                msg: WireMsg::Response {
                    token: 9,
                    value: None,
                },
            },
        ];
        all.extend(remote_access_frames());
        all
    }

    #[test]
    fn every_variant_round_trips_with_its_sequence() {
        for (i, m) in variants().into_iter().enumerate() {
            let seq = (i as u64) * 1_000_003;
            let bytes = m.encode(seq);
            assert_eq!(bytes[0], PROTO_VERSION, "the version byte leads");
            let (got_seq, got) = NetMsg::decode(&bytes).expect("round trip");
            assert_eq!(got_seq, seq);
            assert_eq!(got, m);
        }
    }

    #[test]
    fn truncations_and_garbage_are_typed_errors() {
        // A cut inside the header runs out of bytes; a cut anywhere
        // after it leaves a body the check no longer covers.
        for m in variants() {
            let full = m.encode(50_000);
            for cut in 0..full.len() {
                let e = NetMsg::decode(&full[..cut]).expect_err("a strict prefix");
                assert!(
                    matches!(
                        e,
                        WireError::Codec(
                            CodecError::Truncated { .. } | CodecError::Checksum { .. }
                        )
                    ),
                    "cut {cut} of {m:?}: {e:?}"
                );
            }
        }
        assert!(NetMsg::decode(b"XXXXXXXXXXXXXXXXXXXX").is_err());
        let mut wrong_ver = NetMsg::Quiesce.encode(0);
        wrong_ver[0] = PROTO_VERSION + 1;
        assert_eq!(
            NetMsg::decode(&wrong_ver),
            Err(WireError::Version {
                got: PROTO_VERSION + 1,
                want: PROTO_VERSION
            })
        );
        let mut trailing = NetMsg::Quiesce.encode(0);
        trailing.push(1);
        // Appended bytes change the checksum before the tail decoder
        // ever sees them.
        assert!(NetMsg::decode(&trailing).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The checksum closes the "corruption that still parses" hole:
        // no mutation of one byte — any of its 255 other values, so in
        // particular every one-bit flip — at any offset of any frame
        // may decode at all, let alone as a different valid message.
        // The version byte is covered by the version fence, the check
        // and the sequence by the check itself.
        for m in variants() {
            for seq in [3, 300, 50_000, u64::MAX] {
                let full = m.encode(seq);
                let mut mutated = full.clone();
                for at in 0..full.len() {
                    for xor in 1..=255u8 {
                        mutated[at] = full[at] ^ xor;
                        assert!(
                            NetMsg::decode(&mutated).is_err(),
                            "byte {at} ^ {xor:#04x} of {m:?} (seq {seq}) still decoded"
                        );
                    }
                    mutated[at] = full[at];
                }
            }
        }
    }

    #[test]
    fn frames_that_differ_only_in_trailing_zeros_have_different_checks() {
        // Zero-padding the last lane must not make `body` and
        // `body ++ 0…` collide: the length lane tells them apart.
        for len in 0..24 {
            let body = vec![0u8; len];
            let longer = vec![0u8; len + 1];
            assert_ne!(frame_check(1, &body), frame_check(1, &longer), "len {len}");
        }
        let mut body = vec![7u8; 13];
        let short = frame_check(9, &body);
        body.extend_from_slice(&[0, 0, 0]);
        assert_ne!(
            short,
            frame_check(9, &body),
            "13 bytes vs 13 + zeros to a lane"
        );
    }

    #[test]
    fn the_wire_budget_holds() {
        // Every canonical frame at sequence 50,000 (a three-byte
        // varint), exactly: a field that grows shows here as a byte
        // count. Proto v5 / wire v4 took 31, 39, 35, 27, 201 and 265.
        // The header is `[version][check; 4][seq; 3]` and `Shard`'s
        // `[tag][to][epoch][retries]`: 12 bytes of every frame.
        let [read, write, value, ack] = remote_access_frames();
        for (what, frame, bytes) in [
            // `[tag][addr; 3][0][reply_shard][token; 2]`
            ("read request", read, 20),
            // … with the store's flag and eight value bytes
            ("write request", write, 28),
            // `[tag][token; 2][1][value; 8]`
            ("value response", value, 24),
            ("ack", ack, 16),
            // `[tag][thread; 2][native][kind][ctx; 2 + 164][state 0]
            // [presence][op; 4][run; 2][journey 0, dropped 100]`
            ("spilled arrive", migrated_frame(true), 193),
            // … with sixteen four-byte hops and `dropped` 0
            ("filling arrive", migrated_frame(false), 257),
        ] {
            assert_eq!(frame.encode(50_000).len(), bytes, "{what}");
        }
    }

    #[test]
    fn every_presence_byte_above_fifteen_is_a_typed_bad_tag() {
        // Behind a valid check: the envelope's presence byte is its
        // last byte before the journey, and only its low four bits
        // name fields.
        let NetMsg::Shard {
            msg: WireMsg::Arrive(env),
            ..
        } = migrated_frame(true)
        else {
            unreachable!("an arrival")
        };
        let bare = WireMsg::Arrive(WireEnvelope {
            pending_op: None,
            run: None,
            ..env.clone()
        });
        let header = seal(0, &[]).len();
        let frame = to_shard_9(WireMsg::Arrive(env)).encode(0);
        let mut body = frame[header..].to_vec();
        // `Shard`'s four bytes, then the message up to its presence
        // byte, which the bare envelope has three bytes from its end.
        let at = 4 + bare.encode().len() - 3;
        assert_eq!(body[at], 0b1001, "pending_op and run");
        for tag in 16..=255u8 {
            body[at] = tag;
            assert_eq!(
                NetMsg::decode(&seal(0, &body)),
                Err(WireError::Codec(CodecError::BadTag {
                    what: "envelope-presence",
                    tag
                }))
            );
        }
    }

    /// `body` framed under `seq` with a **correct** check — what a
    /// buggy or hostile peer can always produce, and what random bytes
    /// never get past.
    fn seal(seq: u64, body: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame_into(seq, &mut frame, |b| b.extend_from_slice(body));
        frame
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Fuzz *behind* the check: damage the body of every message
        /// kind, re-seal it, and decode. The body decoders must return
        /// a typed error or a message, never panic — and a message
        /// they do return re-encodes to exactly the bytes it came
        /// from (every field has one spelling), so what a decoder
        /// allocates is bounded by the frame it was handed.
        #[test]
        fn resealed_garbage_is_a_typed_error_or_a_message(
            which in 0usize..64,
            seq in any::<u64>(),
            edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..6),
            cut in any::<u64>(),
            tail in prop::collection::vec(any::<u8>(), 0..24),
            mode in 0u8..4,
        ) {
            let all = variants();
            let frame = all[which % all.len()].encode(seq);
            let header = seal(seq, &[]).len();
            let mut body = frame[header..].to_vec();
            for (at, byte) in edits {
                let at = (at % body.len() as u64) as usize;
                body[at] = byte;
            }
            match mode {
                0 => {}
                1 => body.truncate((cut % (body.len() as u64 + 1)) as usize),
                2 => body.extend_from_slice(&tail),
                _ => {
                    body.truncate((cut % (body.len() as u64 + 1)) as usize);
                    body.extend_from_slice(&tail);
                }
            }
            let sealed = seal(seq, &body);
            if let Ok((got_seq, msg)) = NetMsg::decode(&sealed) {
                prop_assert_eq!(got_seq, seq);
                // `Abort` carries free text, decoded lossily.
                if !matches!(msg, NetMsg::Abort { .. }) {
                    prop_assert_eq!(msg.encode(seq), sealed);
                }
            }
        }
    }

    #[test]
    fn sequence_is_authenticated_by_the_checksum() {
        // Tampering with the sequence header alone must fail: replayed
        // frames cannot be "renumbered" into the expected slot.
        let mut b = NetMsg::Retired.encode(9);
        assert_eq!(b[CHECK_END], 9, "the one-byte seq varint");
        b[CHECK_END] = 8;
        assert!(NetMsg::decode(&b).is_err());
    }
}
