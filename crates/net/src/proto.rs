//! The node-to-node control protocol.
//!
//! Every frame a cluster connection carries is one [`NetMsg`]:
//! `[u32 MAGIC][u8 PROTO_VERSION][u64 seq][u32 check][u8 tag][fields]`,
//! integers little-endian, built on the same cursor primitives as the
//! runtime's wire codec (`em2_rt::wire`) so every decoder fails with
//! the same typed errors and never panics. Two header fields exist
//! purely for failure detection (DESIGN.md §10):
//!
//! * **`seq`** — a per-connection, per-direction frame counter
//!   starting at 0 with the handshake frame. The receiver drops any
//!   frame whose sequence it has already consumed (a *duplicate* is
//!   invisible to the runtime, which is what keeps the E12 bit-equal
//!   sum intact under duplicate faults) and treats a forward jump as
//!   proof of frame loss — a typed error the moment the *next* frame
//!   (or an idle heartbeat) lands, instead of a silent stall.
//! * **`check`** — FNV-1a over `seq ++ tag ++ fields`, truncated to
//!   32 bits. A flipped bit anywhere in the payload fails the
//!   checksum even when the mutated bytes would still parse, so
//!   corruption can never masquerade as a valid (wrong) message.
//!
//! A [`NetMsg::Shard`] embeds a full [`WireMsg`] (which carries its
//! own version byte) — the transport layer is a dumb router for
//! those; everything else is membership, barriers, completion
//! accounting, and the failure-control plane ([`NetMsg::Heartbeat`],
//! [`NetMsg::Abort`], [`NetMsg::Bye`]) — see the node lifecycle state
//! machine in DESIGN.md §9–§10.

use em2_model::bytes::CodecError;
use em2_rt::wire::{put_bytes, put_u32, put_u64, Cursor, FrozenShard, WireError, WireMsg};

/// First four bytes of every frame: `"EM2N"`.
pub const MAGIC: [u8; 4] = *b"EM2N";

/// Control-protocol version; the handshake refuses mismatches.
/// Version 2 added the sequence/checksum header and the
/// failure-control messages (`Heartbeat`/`Abort`/`Bye`). Version 3
/// stamps every `Shard` frame with the sender's directory epoch and a
/// bounce budget, and adds the live-handoff family
/// (`HandoffRequest`…`EpochUpdate`, `Bounce`).
pub const PROTO_VERSION: u8 = 3;

/// One node-to-node control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg {
    /// Connector → acceptor, first frame on a connection: identify and
    /// prove both ends run the same cluster topology and wire format.
    Hello {
        /// The dialing node's id.
        node: u32,
        /// The dialer's `em2_rt::wire::WIRE_VERSION`.
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
        /// Directory epoch the handoff departs from.
        epoch: u64,
    },
    /// Phase 1, coordinator → destination: state for `shard` is about
    /// to arrive from node `from`; buffer any early-routed frames for
    /// it instead of bouncing them.
    HandoffExpect {
        /// Ledger id.
        hid: u64,
        /// Shard in transit.
        shard: u32,
        /// Source node.
        from: u32,
        /// Directory epoch the handoff departs from.
        epoch: u64,
    },
    /// Phase 2, source → destination: the frozen shard state itself.
    HandoffTransfer {
        /// Ledger id.
        hid: u64,
        /// Shard being re-homed (mirrors `state.shard`).
        shard: u32,
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

/// FNV-1a over `seq ++ body`, truncated to 32 bits — the frame
/// integrity check.
fn frame_check(seq: u64, body: &[u8]) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seq.to_le_bytes());
    eat(body);
    (h ^ (h >> 32)) as u32
}

impl NetMsg {
    /// Encode as a frame payload carrying sequence number `seq`.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut body = Vec::with_capacity(16);
        match self {
            NetMsg::Hello {
                node,
                wire_version,
                topology,
            } => {
                body.push(0);
                put_u32(&mut body, *node);
                body.push(*wire_version);
                put_u64(&mut body, *topology);
            }
            NetMsg::HelloAck { node, topology } => {
                body.push(1);
                put_u32(&mut body, *node);
                put_u64(&mut body, *topology);
            }
            NetMsg::Shard {
                to,
                epoch,
                retries,
                msg,
            } => {
                body.push(2);
                put_u32(&mut body, *to);
                put_u64(&mut body, *epoch);
                put_u32(&mut body, *retries);
                msg.encode_into(&mut body);
            }
            NetMsg::BarrierArrive { k } => {
                body.push(3);
                put_u32(&mut body, *k);
            }
            NetMsg::BarrierRelease { k } => {
                body.push(4);
                put_u32(&mut body, *k);
            }
            NetMsg::Closed { submitted } => {
                body.push(5);
                put_u64(&mut body, *submitted);
            }
            NetMsg::Retired => body.push(6),
            NetMsg::Quiesce => body.push(7),
            NetMsg::Heartbeat => body.push(8),
            NetMsg::Abort { reason } => {
                body.push(9);
                put_bytes(&mut body, reason.as_bytes());
            }
            NetMsg::Bye => body.push(10),
            NetMsg::HandoffRequest { shard, to } => {
                body.push(11);
                put_u32(&mut body, *shard);
                put_u32(&mut body, *to);
            }
            NetMsg::HandoffPrepare {
                hid,
                shard,
                to,
                epoch,
            } => {
                body.push(12);
                put_u64(&mut body, *hid);
                put_u32(&mut body, *shard);
                put_u32(&mut body, *to);
                put_u64(&mut body, *epoch);
            }
            NetMsg::HandoffExpect {
                hid,
                shard,
                from,
                epoch,
            } => {
                body.push(13);
                put_u64(&mut body, *hid);
                put_u32(&mut body, *shard);
                put_u32(&mut body, *from);
                put_u64(&mut body, *epoch);
            }
            NetMsg::HandoffTransfer { hid, shard, state } => {
                body.push(14);
                put_u64(&mut body, *hid);
                put_u32(&mut body, *shard);
                state.encode_into(&mut body);
            }
            NetMsg::HandoffDone { hid, shard } => {
                body.push(15);
                put_u64(&mut body, *hid);
                put_u32(&mut body, *shard);
            }
            NetMsg::EpochUpdate { epoch, owners } => {
                body.push(16);
                put_u64(&mut body, *epoch);
                put_u32(&mut body, owners.len() as u32);
                for &o in owners {
                    put_u32(&mut body, o);
                }
            }
            NetMsg::Bounce {
                to,
                epoch,
                retries,
                msg,
            } => {
                body.push(17);
                put_u32(&mut body, *to);
                put_u64(&mut body, *epoch);
                put_u32(&mut body, *retries);
                msg.encode_into(&mut body);
            }
        }
        let mut b = Vec::with_capacity(body.len() + 17);
        b.extend_from_slice(&MAGIC);
        b.push(PROTO_VERSION);
        put_u64(&mut b, seq);
        put_u32(&mut b, frame_check(seq, &body));
        b.extend_from_slice(&body);
        b
    }

    /// Decode a frame payload into `(seq, message)`. Never panics;
    /// malformed input — including any single flipped bit, caught by
    /// the checksum — is a typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<(u64, NetMsg), WireError> {
        let mut r = Cursor::new(bytes);
        for (i, want) in MAGIC.iter().enumerate() {
            let got = r.u8()?;
            if got != *want {
                return Err(CodecError::BadTag {
                    what: match i {
                        0 => "magic[0]",
                        1 => "magic[1]",
                        2 => "magic[2]",
                        _ => "magic[3]",
                    },
                    tag: got,
                }
                .into());
            }
        }
        let ver = r.u8()?;
        if ver != PROTO_VERSION {
            return Err(WireError::Version {
                got: ver,
                want: PROTO_VERSION,
            });
        }
        let seq = r.u64()?;
        let declared = r.u32()?;
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
                node: r.u32()?,
                wire_version: r.u8()?,
                topology: r.u64()?,
            },
            1 => NetMsg::HelloAck {
                node: r.u32()?,
                topology: r.u64()?,
            },
            2 => {
                let to = r.u32()?;
                let epoch = r.u64()?;
                let retries = r.u32()?;
                // The embedded WireMsg consumes the rest of the frame.
                return Ok((
                    seq,
                    NetMsg::Shard {
                        to,
                        epoch,
                        retries,
                        msg: WireMsg::decode(r.rest())?,
                    },
                ));
            }
            3 => NetMsg::BarrierArrive { k: r.u32()? },
            4 => NetMsg::BarrierRelease { k: r.u32()? },
            5 => NetMsg::Closed {
                submitted: r.u64()?,
            },
            6 => NetMsg::Retired,
            7 => NetMsg::Quiesce,
            8 => NetMsg::Heartbeat,
            9 => NetMsg::Abort {
                reason: String::from_utf8_lossy(&r.bytes()?).into_owned(),
            },
            10 => NetMsg::Bye,
            11 => NetMsg::HandoffRequest {
                shard: r.u32()?,
                to: r.u32()?,
            },
            12 => NetMsg::HandoffPrepare {
                hid: r.u64()?,
                shard: r.u32()?,
                to: r.u32()?,
                epoch: r.u64()?,
            },
            13 => NetMsg::HandoffExpect {
                hid: r.u64()?,
                shard: r.u32()?,
                from: r.u32()?,
                epoch: r.u64()?,
            },
            14 => {
                let hid = r.u64()?;
                let shard = r.u32()?;
                // The frozen state consumes the rest of the frame.
                return Ok((
                    seq,
                    NetMsg::HandoffTransfer {
                        hid,
                        shard,
                        state: Box::new(FrozenShard::decode(r.rest())?),
                    },
                ));
            }
            15 => NetMsg::HandoffDone {
                hid: r.u64()?,
                shard: r.u32()?,
            },
            16 => {
                let epoch = r.u64()?;
                let n = r.u32()?;
                let mut owners = Vec::new();
                for _ in 0..n {
                    owners.push(r.u32()?);
                }
                NetMsg::EpochUpdate { epoch, owners }
            }
            17 => {
                let to = r.u32()?;
                let epoch = r.u64()?;
                let retries = r.u32()?;
                // The embedded WireMsg consumes the rest of the frame.
                return Ok((
                    seq,
                    NetMsg::Bounce {
                        to,
                        epoch,
                        retries,
                        msg: WireMsg::decode(r.rest())?,
                    },
                ));
            }
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
    /// fault-free counters stay exactly reproducible whether or not
    /// heartbeats are enabled — and so a run with live handoffs keeps
    /// telemetry comparable to one without.
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
    use em2_rt::wire::WIRE_VERSION;

    fn variants() -> Vec<NetMsg> {
        vec![
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
                epoch: 4,
            },
            NetMsg::HandoffExpect {
                hid: 3,
                shard: 6,
                from: 0,
                epoch: 4,
            },
            NetMsg::HandoffTransfer {
                hid: 3,
                shard: 6,
                state: Box::new(FrozenShard {
                    shard: 6,
                    next_token: 11,
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
        ]
    }

    #[test]
    fn every_variant_round_trips_with_its_sequence() {
        for (i, m) in variants().into_iter().enumerate() {
            let seq = (i as u64) * 1_000_003;
            let bytes = m.encode(seq);
            assert_eq!(&bytes[..4], &MAGIC);
            let (got_seq, got) = NetMsg::decode(&bytes).expect("round trip");
            assert_eq!(got_seq, seq);
            assert_eq!(got, m);
        }
    }

    #[test]
    fn truncations_and_garbage_are_typed_errors() {
        for m in variants() {
            let full = m.encode(7);
            for cut in 0..full.len() {
                assert!(NetMsg::decode(&full[..cut]).is_err(), "cut {cut}");
            }
        }
        assert!(NetMsg::decode(b"XXXXXXXXXXXXXXXXXXXX").is_err());
        let mut wrong_ver = NetMsg::Quiesce.encode(0);
        wrong_ver[4] = PROTO_VERSION + 1;
        assert!(matches!(
            NetMsg::decode(&wrong_ver),
            Err(WireError::Version { .. })
        ));
        let mut trailing = NetMsg::Quiesce.encode(0);
        trailing.push(1);
        // Appended bytes change the checksum before the tail decoder
        // ever sees them.
        assert!(NetMsg::decode(&trailing).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The checksum closes the "corruption that still parses" hole:
        // no one-bit mutation of any frame may decode as a different
        // valid message.
        for m in variants() {
            let full = m.encode(3);
            for byte in 0..full.len() {
                for bit in 0..8 {
                    let mut mutated = full.clone();
                    mutated[byte] ^= 1 << bit;
                    match NetMsg::decode(&mutated) {
                        Err(_) => {}
                        Ok((seq, got)) => {
                            assert!(
                                seq == 3 && got == m,
                                "bit flip at {byte}.{bit} decoded as a different message"
                            );
                            unreachable!("a flipped bit cannot reproduce the original frame");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sequence_is_authenticated_by_the_checksum() {
        // Tampering with the sequence header alone must fail: replayed
        // frames cannot be "renumbered" into the expected slot.
        let mut b = NetMsg::Retired.encode(9);
        b[5] ^= 0xFF; // low byte of the seq field
        assert!(NetMsg::decode(&b).is_err());
    }
}
