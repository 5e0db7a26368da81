//! Property tests for the wire codec (`em2_rt::wire`): arbitrary
//! messages round trip bit-exactly, and arbitrary *garbage* —
//! truncations, mutations, random bytes — decodes to a typed error,
//! never a panic, and the same one in place ([`WireMsg::view`]) as
//! owned. Plus the `context_len` and `write_context` honesty property
//! for the shipped task types.

use em2_model::bytes::CodecError;
use em2_model::ThreadId;
use em2_rt::wire::{
    write_into, HopCause, Journey, JourneyHop, WireEnvelope, WireError, WireMsg, WireOp,
};
use em2_rt::{Task, TaskRegistry, TraceTask};
use em2_trace::gen::micro;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a WireMsg from flat random fields (covering every variant
/// and every Option arm).
#[allow(clippy::too_many_arguments)]
fn build_msg(
    sel: u8,
    a: u64,
    b: u64,
    c: u32,
    flag1: bool,
    flag2: bool,
    ctx: Vec<u8>,
    state: Vec<u8>,
) -> WireMsg {
    match sel % 4 {
        0 => WireMsg::Arrive(WireEnvelope {
            thread: c,
            native: (a % 1024) as u16,
            task_kind: c ^ 7,
            task_ctx: ctx,
            scheme_state: state,
            pending_op: match (flag1, flag2) {
                (false, _) => None,
                (true, false) => Some(WireOp::Read(a)),
                (true, true) => Some(WireOp::Write(a, b)),
            },
            pending_reply: flag2.then_some(b),
            parked_at: flag1.then_some(c % 64),
            run: flag2.then_some(((b % 512) as u16, a)),
            journey: {
                // 0–20 hops exercises the cap (16) and the dropped
                // counter; the cause cycles through every variant.
                let mut j = Journey::default();
                let causes = [HopCause::Submit, HopCause::Migrate, HopCause::Remote];
                for i in 0..(a % 21) {
                    j.push(JourneyHop {
                        shard: c.wrapping_add(i as u32),
                        node: (b % 7) as u32,
                        epoch: b ^ i,
                        cause: causes[(i % 3) as usize],
                    });
                }
                j
            },
        }),
        1 => WireMsg::Request {
            addr: a,
            write: flag1.then_some(b),
            reply_shard: c,
            token: (b >> 32) as u32,
        },
        2 => WireMsg::Response {
            token: (a >> 32) as u32,
            value: flag1.then_some(b),
        },
        _ => WireMsg::BarrierRelease { idx: c },
    }
}

/// `bytes` through both decoders: the view's owning copy must be the
/// owned decode, and a refusal the same typed error.
fn decode_both(bytes: &[u8]) -> Result<WireMsg, WireError> {
    let owned = WireMsg::decode(bytes);
    let view = WireMsg::view(bytes);
    assert_eq!(view.map(|m| m.map(WireEnvelope::into_owned)), owned);
    owned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_messages_round_trip(
        sel in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        flag1 in any::<bool>(),
        flag2 in any::<bool>(),
        ctx in prop::collection::vec(any::<u8>(), 0..200),
        state in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let msg = build_msg(sel, a, b, c, flag1, flag2, ctx, state);
        let bytes = msg.encode();
        let back = WireMsg::decode(&bytes).expect("round trip");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn every_prefix_of_a_valid_message_fails_typed(
        sel in any::<u8>(),
        a in any::<u64>(),
        c in any::<u32>(),
        ctx in prop::collection::vec(any::<u8>(), 0..60),
    ) {
        let msg = build_msg(sel, a, a ^ 1, c, true, true, ctx, Vec::new());
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            // Must not panic; must not succeed (a strict prefix can
            // never be a complete message — every field is fixed-width,
            // length-prefixed, or a varint whose last byte says so), and
            // must fail as what it is: the decoder walks the prefix
            // exactly as it would the whole message, and runs out.
            prop_assert!(
                matches!(
                    decode_both(&bytes[..cut]),
                    Err(WireError::Codec(CodecError::Truncated { .. }))
                ),
                "cut {}",
                cut
            );
        }
    }

    #[test]
    fn a_presence_byte_above_fifteen_is_a_typed_bad_tag(
        tag in 16u16..256,
        thread in any::<u32>(),
        ctx in prop::collection::vec(any::<u8>(), 0..200),
        state in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let bare = WireMsg::Arrive(WireEnvelope {
            thread,
            native: 1,
            task_kind: 2,
            task_ctx: ctx,
            scheme_state: state,
            pending_op: None,
            pending_reply: None,
            parked_at: None,
            run: None,
            journey: Journey::default(),
        });
        let tag = tag as u8;
        let mut bytes = bare.encode();
        // `[presence 0][journey: count 0, dropped 0]` end the message.
        let at = bytes.len() - 3;
        prop_assert_eq!(&bytes[at..], &[0, 0, 0]);
        bytes[at] = tag;
        prop_assert_eq!(
            WireMsg::decode(&bytes),
            Err(WireError::Codec(CodecError::BadTag { what: "envelope-presence", tag }))
        );
    }

    #[test]
    fn an_over_long_thread_varint_is_refused(
        wide in (u64::from(u32::MAX) + 1)..u64::MAX,
        sel in 0u8..3,
    ) {
        // A thread id is a u32 wherever it travels: as an envelope's
        // thread and as a request's or a response's token.
        let mut b = Vec::new();
        write_into(&mut b, 64, |w| {
            w.u8(sel);
            match sel {
                0 => w.var(wide), // thread
                1 => {
                    w.var(8); // addr
                    w.u8(0); // load
                    w.var(3); // reply_shard
                    w.var(wide); // token
                }
                _ => {
                    w.var(wide); // token
                    w.u8(0); // ack
                }
            }
        });
        prop_assert!(matches!(
            WireMsg::decode(&b),
            Err(WireError::Codec(CodecError::BadVarint { .. }))
        ));
    }

    #[test]
    fn single_byte_mutations_never_panic(
        sel in any::<u8>(),
        a in any::<u64>(),
        c in any::<u32>(),
        ctx in prop::collection::vec(any::<u8>(), 0..40),
        pos_seed in any::<u64>(),
        xor in 1u8..255,
    ) {
        let msg = build_msg(sel, a, a >> 3, c, false, true, ctx, Vec::new());
        let mut bytes = msg.encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        // Either a typed error or a (different but well-formed)
        // message — the decoder's job is only to never panic and
        // never over-read.
        let _ = decode_both(&bytes);
    }

    #[test]
    fn a_decoded_message_has_exactly_one_spelling(
        sel in any::<u8>(),
        a in any::<u64>(),
        c in any::<u32>(),
        ctx in prop::collection::vec(any::<u8>(), 0..40),
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
    ) {
        // Varints are canonical and every tag is strict, so whatever a
        // mutated message decodes to re-encodes to the very bytes it
        // was decoded from: two byte strings never mean one message.
        let msg = build_msg(sel, a, a >> 3, c, true, true, ctx, Vec::new());
        let mut bytes = msg.encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] = byte;
        if let Ok(back) = decode_both(&bytes) {
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn random_garbage_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = decode_both(&bytes);
    }

    #[test]
    fn trace_task_context_len_is_honest_at_any_cursor(
        threads in 1u64..4,
        steps in 0u64..60,
        seed in any::<u64>(),
    ) {
        // The context_len override is the hot accounting path; it must
        // equal the serialized length at *every* execution point, what
        // a hop writes into its frame must be those bytes, and the
        // registry must rebuild an identical continuation.
        let w = Arc::new(micro::uniform(
            threads as usize, 4, 30, 64, 0.3, seed % 1000 + 1,
        ));
        let reg = TaskRegistry::for_workload(Arc::clone(&w));
        let mut t = TraceTask::new(Arc::clone(&w), ThreadId(0));
        for _ in 0..steps {
            prop_assert_eq!(t.context_len(), t.context_bytes().len() as u64);
            let mut written = Vec::new();
            write_into(&mut written, t.context_len() as usize, |w| t.write_context(w));
            prop_assert_eq!(&written, &t.context_bytes());
            let rebuilt = reg
                .build(TraceTask::WIRE_KIND, &t.context_bytes())
                .expect("valid context");
            prop_assert_eq!(rebuilt.context_bytes(), t.context_bytes());
            let _ = t.resume(Some(seed));
        }
    }
}
