//! The runtime's wire format: [`WireMsg`] as versioned bytes.
//!
//! [`WireMsg`] is the runtime's one inter-shard message, in mailboxes
//! and on the wire; what a cross-process transport ships — `em2-net`
//! frames it onto loopback socket pairs, Unix-domain sockets, or TCP — is
//! its wire form. The codec is hand-rolled (the workspace has no
//! serde; see `shims/README.md`) and deliberately boring:
//!
//! * [`WIRE_VERSION`] is stated once per connection (`em2-net`'s
//!   handshake) and once per [`FrozenShard`], not per message;
//! * every variant starts with a one-byte tag;
//! * identifiers, counters, lengths and addresses are canonical
//!   **LEB128 varints** ([`Writer::var`]): a shard id, a thread id or a run
//!   length is one or two bytes, not four or eight. A request's
//!   **token** is the requesting task's thread id: thread ids are
//!   cluster-unique and a task awaits at most one reply, so the id
//!   names the waiter, and its width is a function of program order;
//! * memory *contents* (store values, load replies, heap words) stay
//!   fixed-width **little-endian** `u64`s. The deterministic
//!   experiments and the benchmark compare wire byte counts
//!   bit-for-bit, so a frame's size may depend only on values that are
//!   functions of per-thread program order, and contents are not
//!   (accesses race);
//! * an envelope's four optional fields share one presence byte;
//! * byte strings are a varint length followed by the bytes;
//! * `f64`s (decision-scheme predictions) travel as IEEE-754 bits
//!   inside the opaque scheme state, so a migrated scheme continues
//!   its EWMA recurrences **bit-exactly** in the destination process.
//!
//! Decoding never panics: truncated, oversized, or corrupt input
//! yields a typed [`WireError`] (the fuzz tests in
//! `crates/rt/tests/proptest_wire.rs` pin this). DESIGN.md §9 has the
//! full layout table. Decoding happens once, in place:
//! [`WireMsg::view`] borrows a message's byte strings from the buffer
//! it reads, so a receiving node hands a migrated continuation to its
//! task builder where the socket put it. [`WireMsg::decode`] and
//! [`FrozenShard::decode`] are the same grammar plus the one owning
//! copy ([`WireEnvelope::into_owned`]).
//!
//! A migrated continuation is a [`WireEnvelope`]: the task's
//! serialized context ([`crate::Task::context_bytes`]) plus a task
//! *kind* tag resolved by the destination's [`crate::TaskRegistry`],
//! the envelope-carried decision scheme's learned state
//! ([`em2_core::decision::DecisionScheme::state_bytes`]), and the
//! runtime bookkeeping that travels with the task (pending arrival
//! access, unconsumed reply, barrier park, in-progress run). A node
//! sends the live envelope, not this form: its transport writes an
//! [`crate::Outbound`] through the same grammar ([`Encode`]), the task
//! writing its context into the frame ([`crate::Task::write_context`]).
//! The owned form is what a frozen shard ships and what a decode
//! returns.

use em2_core::decision::SchemeStateError;
use em2_model::bytes::CodecError;
use em2_model::Addr;
use std::fmt;

// The codec kernel lives in `em2_model::bytes` (one implementation for
// this module, `em2-net`'s control protocol, and scheme-state
// serialization); re-exported here so wire-format users need one
// import path.
pub use em2_model::bytes::{write_into, Cursor, Writer, MAX_CHUNK, VAR_MAX};

/// Version of the [`WireMsg`] layout. Bump on any layout change; the
/// `em2-net` handshake refuses to connect nodes disagreeing on it, and
/// it leads every encoded [`FrozenShard`]. v2 appended the migration
/// [`Journey`] to [`WireEnvelope`]; v3 packed identifiers, counters,
/// lengths, addresses and journey hops as varints; v4 narrowed
/// [`HopCause`] to codes 0–2; v5 dropped the per-message version byte,
/// made the request token the requester's thread id as a varint, and
/// folded the envelope's four option tags into one presence byte.
pub const WIRE_VERSION: u8 = 5;

/// A malformed wire payload. Every decode failure is one of these —
/// never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A byte-level decode failure (truncation, bad tag, oversized
    /// chunk, trailing bytes) from the shared codec kernel.
    Codec(CodecError),
    /// Version byte mismatch.
    Version {
        /// Version found in the input.
        got: u8,
        /// Version this build speaks ([`WIRE_VERSION`]).
        want: u8,
    },
    /// The destination has no task builder registered for this kind.
    UnknownTaskKind(u32),
    /// A task builder rejected its context bytes.
    BadTaskContext {
        /// The task kind whose builder failed.
        kind: u32,
        /// The builder's description of the problem.
        reason: String,
    },
    /// The decision scheme rejected its state payload.
    SchemeState(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => e.fmt(f),
            WireError::Version { got, want } => {
                write!(f, "wire version {got} (this build speaks {want})")
            }
            WireError::UnknownTaskKind(k) => write!(f, "no task builder for wire kind {k}"),
            WireError::BadTaskContext { kind, reason } => {
                write!(f, "task kind {kind}: bad context: {reason}")
            }
            WireError::SchemeState(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<SchemeStateError> for WireError {
    fn from(e: SchemeStateError) -> Self {
        WireError::SchemeState(e.to_string())
    }
}

// ------------------------------------------------------------ journey

/// Why a task landed where a [`JourneyHop`] says it did.
///
/// The codes are the wire encoding (one byte per hop) and also what a
/// `journey-hop` trace event packs into its payload, so a flight
/// recording decodes without this enum in hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopCause {
    /// Initial placement at the task's native shard.
    Submit,
    /// The decision scheme migrated the computation here.
    Migrate,
    /// A remote access was issued toward this home (the task itself
    /// stayed put; the hop records the access target).
    Remote,
}

impl HopCause {
    /// The one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            HopCause::Submit => 0,
            HopCause::Migrate => 1,
            HopCause::Remote => 2,
        }
    }

    /// Inverse of [`HopCause::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => HopCause::Submit,
            1 => HopCause::Migrate,
            2 => HopCause::Remote,
            _ => return None,
        })
    }
}

/// One step of a task's cross-cluster path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JourneyHop {
    /// Global shard the step targeted.
    pub shard: u32,
    /// Node that recorded the step.
    pub node: u32,
    /// Directory epoch at the time.
    pub epoch: u64,
    /// Why the step happened.
    pub cause: HopCause,
}

/// Most hops an envelope records before further hops are only counted.
/// Keep-first-N (not a ring): the head of a journey — submission and
/// the first migrations — is what explains a placement; the tail is
/// recoverable from the destination shard's own trace ring.
pub const JOURNEY_CAP: usize = 16;

/// The bounded per-envelope hop log — a task's migration journey,
/// carried in the [`WireEnvelope`] like scheme state so the path
/// survives every process boundary, **until it has been handed to a
/// trace ring** (DESIGN.md §14): the admission that finds the log
/// overflowed dumps it and clears it, a task that retires first dumps
/// what it carries, and from then on hops are only counted. A log
/// travels through three states, none of which needs a tag:
///
/// * *filling* — `dropped == 0`: every hop is recorded;
/// * *overflowed* — `dropped > 0`, `hops` non-empty: some push found
///   the log full; the next admission spills it;
/// * *spilled* — `dropped > 0`, `hops` empty: three bytes on the wire
///   where a full log took 67, and nothing to parse or allocate.
///
/// Journeys are recorded, and spilled logs cleared, **unconditionally**,
/// obs plane or not: the deterministic experiments compare wire byte
/// counts bit-for-bit, so the envelope encoding must not depend on an
/// observability toggle. Only the ring dump itself is obs-gated.
/// Journey bytes are excluded from the context-payload accounting
/// ([`crate::Outbound::context_len`] counts the task's context only).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journey {
    /// The hops recorded and not yet handed to a trace ring, in order
    /// (at most [`JOURNEY_CAP`], all from the head of the journey).
    pub hops: Vec<JourneyHop>,
    /// Hops counted instead of recorded.
    pub dropped: u32,
}

impl Journey {
    /// Append a hop: recorded while the log is still filling, only
    /// counted once it has overflowed or been spilled.
    pub fn push(&mut self, hop: JourneyHop) {
        if self.dropped == 0 && self.hops.len() < JOURNEY_CAP {
            self.hops.push(hop);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// No hop yet, recorded or counted: the task has not been admitted
    /// anywhere, so its next arrival is its submission.
    #[inline]
    pub(crate) fn is_unstarted(&self) -> bool {
        self.hops.is_empty() && self.dropped == 0
    }

    /// Some push found the log full and it still carries its hops: the
    /// next admission spills it.
    #[inline]
    pub(crate) fn overflowed(&self) -> bool {
        self.dropped > 0 && !self.hops.is_empty()
    }

    /// Stop carrying the recorded hops — they have been handed to a
    /// trace ring, or nobody is recording: from here on the log only
    /// counts.
    pub(crate) fn spill(&mut self) {
        self.hops = Vec::new();
    }

    /// `[u8 hops][hops × (var shard, var node, var epoch, u8 cause)]
    /// [var dropped]` — four bytes a hop while shard and node ids stay
    /// below 128 and the epoch below 128 commits; a spilled log is the
    /// zero hop count and its `dropped` varint.
    #[inline(always)]
    fn write(&self, w: &mut Writer<'_>) {
        debug_assert!(self.hops.len() <= JOURNEY_CAP);
        w.u8(self.hops.len() as u8);
        for h in &self.hops {
            w.var(u64::from(h.shard));
            w.var(u64::from(h.node));
            w.var(h.epoch);
            w.u8(h.cause.code());
        }
        w.var(u64::from(self.dropped));
    }

    #[inline(always)]
    fn decode(r: &mut Cursor<'_>) -> Result<Self, WireError> {
        let n = r.u8()?;
        if n as usize > JOURNEY_CAP {
            return Err(CodecError::BadTag {
                what: "journey-len",
                tag: n,
            }
            .into());
        }
        // A log that carries hops gets room for the whole cap up front:
        // the receiving shard appends its own hop on admission, and a
        // log never outgrows the cap, so this is its one allocation on
        // this node. A spilled log owns no memory.
        let mut hops = if n > 0 {
            Vec::with_capacity(JOURNEY_CAP)
        } else {
            Vec::new()
        };
        for _ in 0..n {
            let shard = r.var_as()?;
            let node = r.var_as()?;
            let epoch = r.var()?;
            let code = r.u8()?;
            let cause = HopCause::from_code(code).ok_or(CodecError::BadTag {
                what: "hop-cause",
                tag: code,
            })?;
            hops.push(JourneyHop {
                shard,
                node,
                epoch,
                cause,
            });
        }
        Ok(Journey {
            hops,
            dropped: r.var_as()?,
        })
    }
}

// ------------------------------------------------------------ message

/// One shared-memory operation, in wire form (mirrors [`crate::Op`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// Load the word at an address.
    Read(u64),
    /// Store a word.
    Write(u64, u64),
    /// Arrive at global barrier `k`.
    Barrier(u32),
    /// The task finished.
    Done,
}

impl WireOp {
    /// Wire form of a runtime [`crate::Op`].
    pub fn from_op(op: crate::Op) -> Self {
        match op {
            crate::Op::Read(a) => WireOp::Read(a.0),
            crate::Op::Write(a, v) => WireOp::Write(a.0, v),
            crate::Op::Barrier(k) => WireOp::Barrier(k as u32),
            crate::Op::Done => WireOp::Done,
        }
    }

    /// Back to the runtime's [`crate::Op`].
    pub fn into_op(self) -> crate::Op {
        match self {
            WireOp::Read(a) => crate::Op::Read(Addr(a)),
            WireOp::Write(a, v) => crate::Op::Write(Addr(a), v),
            WireOp::Barrier(k) => crate::Op::Barrier(k as usize),
            WireOp::Done => crate::Op::Done,
        }
    }

    #[inline(always)]
    fn write(&self, w: &mut Writer<'_>) {
        match *self {
            WireOp::Read(a) => {
                w.u8(0);
                w.var(a);
            }
            WireOp::Write(a, v) => {
                w.u8(1);
                w.var(a);
                w.u64(v);
            }
            WireOp::Barrier(k) => {
                w.u8(2);
                w.var(u64::from(k));
            }
            WireOp::Done => w.u8(3),
        }
    }

    #[inline(always)]
    fn decode(r: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => WireOp::Read(r.var()?),
            1 => WireOp::Write(r.var()?, r.u64()?),
            2 => WireOp::Barrier(r.var_as()?),
            3 => WireOp::Done,
            tag => return Err(CodecError::BadTag { what: "op", tag }.into()),
        })
    }
}

/// A migratable continuation in wire form: everything a task needs to
/// resume in **another process**. The program text does not travel —
/// the destination rebuilds the task from `(task_kind, task_ctx)`
/// through its [`crate::TaskRegistry`], exactly as instruction memory
/// is already resident at every core in the paper's hardware. The byte
/// strings are `B`: owned, or borrowed in a view ([`WireMsg::view`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireEnvelope<B = Vec<u8>> {
    /// The task's [`em2_model::ThreadId`].
    pub thread: u32,
    /// The task's native shard.
    pub native: u16,
    /// Registry tag identifying how to rebuild the task
    /// ([`crate::Task::wire_kind`]).
    pub task_kind: u32,
    /// The serialized continuation ([`crate::Task::write_context`]).
    pub task_ctx: B,
    /// The envelope-carried decision scheme's learned state
    /// ([`em2_core::decision::DecisionScheme::state_bytes`]).
    pub scheme_state: B,
    /// A migration's arrival access, to execute at the destination.
    pub pending_op: Option<WireOp>,
    /// Unconsumed reply value (register state).
    pub pending_reply: Option<u64>,
    /// Barrier index the task is parked at, if any.
    pub parked_at: Option<u32>,
    /// The in-progress home run `(home, length)`.
    pub run: Option<(u16, u64)>,
    /// The task's migration journey so far (travels with the task,
    /// like `scheme_state`).
    pub journey: Journey,
}

/// An envelope's fields that are not byte strings, in wire form: what
/// the envelope grammar reads of either form besides its context, its
/// scheme state and its journey.
#[derive(Clone, Copy)]
pub(crate) struct Head {
    pub thread: u32,
    pub native: u16,
    pub task_kind: u32,
    pub pending_op: Option<WireOp>,
    pub pending_reply: Option<u64>,
    pub parked_at: Option<u32>,
    pub run: Option<(u16, u64)>,
}

/// An envelope in either form a node encodes: the wire form
/// ([`WireEnvelope`], owned or a view) or the executor's live one, whose
/// task writes its own context ([`crate::Task::write_context`]) into the
/// frame. [`EnvelopeForm::write`] is the one envelope encoder — `Shard`,
/// `Bounce` and `HandoffTransfer` frames all write through it — so the
/// two forms cannot drift apart on the wire.
pub(crate) trait EnvelopeForm {
    fn head(&self) -> Head;
    /// Bytes [`EnvelopeForm::write_ctx`] writes.
    fn ctx_len(&self) -> usize;
    fn write_ctx(&self, w: &mut Writer<'_>);
    /// The decision scheme's learned state.
    fn state(&self) -> &[u8];
    fn journey(&self) -> &Journey;

    /// `[var thread][var native][var task_kind][ctx][state][u8 presence]`
    /// then whichever of `pending_op`, `pending_reply`, `parked_at` and
    /// `run` the presence bits 0–3 name, then the journey. Each byte
    /// string is a varint length and its bytes.
    #[inline(always)]
    fn write(&self, w: &mut Writer<'_>) {
        let h = self.head();
        w.var(u64::from(h.thread));
        w.var(u64::from(h.native));
        w.var(u64::from(h.task_kind));
        let len = self.ctx_len();
        assert!(len <= MAX_CHUNK, "chunk exceeds the wire cap");
        w.var(len as u64);
        let at = w.written();
        self.write_ctx(w);
        debug_assert_eq!(
            w.written() - at,
            len,
            "Task::write_context must write Task::context_len bytes"
        );
        w.var_bytes(self.state());
        w.presence([
            h.pending_op.is_some(),
            h.pending_reply.is_some(),
            h.parked_at.is_some(),
            h.run.is_some(),
        ]);
        if let Some(op) = h.pending_op {
            op.write(w);
        }
        if let Some(v) = h.pending_reply {
            w.u64(v);
        }
        if let Some(k) = h.parked_at {
            w.var(u64::from(k));
        }
        if let Some((c, len)) = h.run {
            w.var(u64::from(c));
            w.var(len);
        }
        self.journey().write(w);
    }

    /// [`EnvelopeForm::write`]'s upper bound: ten varints, nineteen
    /// fixed bytes (presence, op tag, store and reply words, hop count),
    /// the byte strings, and each hop's three varints and cause.
    #[inline(always)]
    fn max_len(&self) -> usize {
        let strings = self.ctx_len() + self.state().len();
        10 * VAR_MAX + 19 + strings + self.journey().hops.len() * (3 * VAR_MAX + 1)
    }
}

impl<B: AsRef<[u8]>> EnvelopeForm for WireEnvelope<B> {
    #[inline(always)]
    fn head(&self) -> Head {
        Head {
            thread: self.thread,
            native: self.native,
            task_kind: self.task_kind,
            pending_op: self.pending_op,
            pending_reply: self.pending_reply,
            parked_at: self.parked_at,
            run: self.run,
        }
    }

    #[inline(always)]
    fn ctx_len(&self) -> usize {
        self.task_ctx.as_ref().len()
    }

    #[inline(always)]
    fn write_ctx(&self, w: &mut Writer<'_>) {
        w.bytes(self.task_ctx.as_ref());
    }

    #[inline(always)]
    fn state(&self) -> &[u8] {
        self.scheme_state.as_ref()
    }

    #[inline(always)]
    fn journey(&self) -> &Journey {
        &self.journey
    }
}

impl<'a> WireEnvelope<&'a [u8]> {
    #[inline(always)]
    fn view(r: &mut Cursor<'a>) -> Result<Self, WireError> {
        // Fields in wire order (tuples evaluate left to right).
        let (thread, native, task_kind) = (r.var_as()?, r.var_as()?, r.var_as()?);
        let (task_ctx, scheme_state) = (r.var_bytes()?, r.var_bytes()?);
        // Plain branches, not closures: a closure handed the cursor is
        // a call that would pin the cursor to memory.
        let [op, reply, parked, run] = r.presence("envelope-presence")?;
        let pending_op = if op { Some(WireOp::decode(r)?) } else { None };
        let pending_reply = if reply { Some(r.u64()?) } else { None };
        let parked_at = if parked { Some(r.var_as()?) } else { None };
        let run = if run {
            Some((r.var_as()?, r.var()?))
        } else {
            None
        };
        Ok(WireEnvelope {
            thread,
            native,
            task_kind,
            task_ctx,
            scheme_state,
            pending_op,
            pending_reply,
            parked_at,
            run,
            journey: Journey::decode(r)?,
        })
    }

    /// The owning copy: the one place a view's bytes are copied out.
    pub fn into_owned(self) -> WireEnvelope {
        WireEnvelope {
            task_ctx: self.task_ctx.to_vec(),
            scheme_state: self.scheme_state.to_vec(),
            thread: self.thread,
            native: self.native,
            task_kind: self.task_kind,
            pending_op: self.pending_op,
            pending_reply: self.pending_reply,
            parked_at: self.parked_at,
            run: self.run,
            journey: self.journey,
        }
    }
}

/// An inter-shard message (Arrive / Request / Response /
/// BarrierRelease). `A` is what an arrival carries: a [`WireEnvelope`]
/// on the wire, a view of one ([`WireMsg::view`]), or the live envelope
/// in the executor's mailboxes; [`WireMsg::map`] and
/// [`WireMsg::try_map`] convert between them, rebuilding the context
/// through a task registry on the receiving side. Shard ids are
/// **global** (cluster-wide); routing a message to the node owning its
/// destination shard is the transport layer's job (`em2-net`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg<A = WireEnvelope> {
    /// A context arrives: a migration, an eviction return, or task
    /// seeding.
    Arrive(A),
    /// Word-granular remote access request (`write: Some(v)` stores).
    Request {
        /// Word address.
        addr: u64,
        /// `Some(value)` for stores, `None` for loads.
        write: Option<u64>,
        /// Global shard id awaiting the [`WireMsg::Response`].
        reply_shard: u32,
        /// The requesting task's [`em2_model::ThreadId`], which the
        /// response names to find the pinned task.
        token: u32,
    },
    /// Reply to a [`WireMsg::Request`].
    Response {
        /// The request's token.
        token: u32,
        /// `Some(value)` for loads, `None` for store acks.
        value: Option<u64>,
    },
    /// Barrier `idx` released; wake local tasks parked on it.
    BarrierRelease {
        /// Barrier index.
        idx: u32,
    },
}

impl<A> WireMsg<A> {
    /// The same message carrying `f` of its arrival payload.
    #[inline]
    pub fn map<B>(self, f: impl FnOnce(A) -> B) -> WireMsg<B> {
        let Ok(msg) = self.try_map(|a| Ok::<_, std::convert::Infallible>(f(a)));
        msg
    }

    /// [`WireMsg::map`] by a conversion that can fail: the one place a
    /// message changes form, field for field.
    #[inline]
    pub fn try_map<B, E>(self, f: impl FnOnce(A) -> Result<B, E>) -> Result<WireMsg<B>, E> {
        Ok(match self {
            WireMsg::Arrive(a) => WireMsg::Arrive(f(a)?),
            WireMsg::Request {
                addr,
                write,
                reply_shard,
                token,
            } => WireMsg::Request {
                addr,
                write,
                reply_shard,
                token,
            },
            WireMsg::Response { token, value } => WireMsg::Response { token, value },
            WireMsg::BarrierRelease { idx } => WireMsg::BarrierRelease { idx },
        })
    }
}

/// A runtime message that writes itself in the wire grammar: a
/// [`WireMsg`] in wire form, or an [`crate::Outbound`] — the executor's
/// own message, its continuation still live. Both write through one
/// grammar, so a frame that embeds either (`em2-net`'s `Shard`) is the
/// same bytes.
pub trait Encode {
    /// Most bytes [`Encode::write`] takes.
    fn max_len(&self) -> usize;

    /// Write this message through `w`, which has room for
    /// [`Encode::max_len`] bytes: how a frame that embeds a message
    /// writes it with its own fields, in one pass.
    fn write(&self, w: &mut Writer<'_>);
}

/// The message grammar, over either envelope form: what [`Encode`]
/// writes for a [`WireMsg`] and for an [`crate::Outbound`].
#[inline(always)]
pub(crate) fn write_msg<A: EnvelopeForm>(msg: &WireMsg<A>, w: &mut Writer<'_>) {
    match msg {
        WireMsg::Arrive(env) => {
            w.u8(0);
            env.write(w);
        }
        WireMsg::Request {
            addr,
            write,
            reply_shard,
            token,
        } => {
            w.u8(1);
            w.var(*addr);
            w.opt(*write, Writer::u64);
            w.var(u64::from(*reply_shard));
            w.var(u64::from(*token));
        }
        WireMsg::Response { token, value } => {
            w.u8(2);
            w.var(u64::from(*token));
            w.opt(*value, Writer::u64);
        }
        WireMsg::BarrierRelease { idx } => {
            w.u8(3);
            w.var(u64::from(*idx));
        }
    }
}

/// Most bytes [`write_msg`] takes: the tag, then the fields at their
/// widest.
#[inline(always)]
pub(crate) fn msg_max_len<A: EnvelopeForm>(msg: &WireMsg<A>) -> usize {
    1 + match msg {
        WireMsg::Arrive(env) => env.max_len(),
        WireMsg::Request { .. } => 3 * VAR_MAX + 9,
        WireMsg::Response { .. } => VAR_MAX + 9,
        WireMsg::BarrierRelease { .. } => VAR_MAX,
    }
}

impl Encode for WireMsg {
    #[inline(always)]
    fn max_len(&self) -> usize {
        msg_max_len(self)
    }

    #[inline(always)]
    fn write(&self, w: &mut Writer<'_>) {
        write_msg(self, w);
    }
}

impl WireMsg {
    /// Append the encoding of this message (its layout version is the
    /// connection's or the frozen shard's, stated once there).
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        write_into(b, self.max_len(), |w| self.write(w));
    }

    /// The encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        b
    }

    /// [`WireMsg::view`] plus the owning copy: same checks, same errors.
    pub fn decode(bytes: &[u8]) -> Result<WireMsg, WireError> {
        let mut r = Cursor::new(bytes);
        let msg = WireMsg::read(&mut r, WireEnvelope::into_owned)?;
        r.finish()?;
        Ok(msg)
    }
}

impl<'a> WireMsg<WireEnvelope<&'a [u8]>> {
    /// Decode one message in place: its byte strings borrow `bytes`,
    /// which must be exactly one message (no trailing bytes). Never
    /// panics. Inlined, as are the decoders it calls: out of line, each
    /// moved its large result through memory (a continuation: 75 → 25 ns).
    #[inline(always)]
    pub fn view(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Cursor::new(bytes);
        let msg = Self::read(&mut r, |env| env)?;
        r.finish()?;
        Ok(msg)
    }
}

impl<A> WireMsg<A> {
    /// One message from a shared cursor, leaving any trailing bytes for
    /// the caller (a [`FrozenShard`]'s drained mailbox): an arrival's
    /// envelope is viewed and handed to `env`, kept as a view or copied
    /// out, so the message is built once, in its final form.
    #[inline(always)]
    fn read<'a>(
        r: &mut Cursor<'a>,
        env: impl FnOnce(WireEnvelope<&'a [u8]>) -> A,
    ) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => WireMsg::Arrive(env(WireEnvelope::view(r)?)),
            1 => WireMsg::Request {
                addr: r.var()?,
                write: r.flag("option<write>")?.then(|| r.u64()).transpose()?,
                reply_shard: r.var_as()?,
                token: r.var_as()?,
            },
            2 => WireMsg::Response {
                token: r.var_as()?,
                value: r.flag("option<value>")?.then(|| r.u64()).transpose()?,
            },
            3 => WireMsg::BarrierRelease { idx: r.var_as()? },
            tag => return Err(CodecError::BadTag { what: "msg", tag }.into()),
        })
    }
}

// ----------------------------------------------------- frozen shards

/// A shard's complete transferable state, shipped from the old owner
/// to the new one during a live handoff (DESIGN.md §13): the heap
/// partition, the resident contexts of the guest pool, every queued
/// envelope (runnable, barrier-parked, reply-awaiting, admission-
/// stalled), the activity clock, and the mailbox backlog drained at
/// freeze time (replayed in arrival order at the destination). Its
/// encoding leads with [`WIRE_VERSION`], which covers every envelope
/// and message inside.
///
/// Deterministic-counter state does **not** travel: counters stay on
/// the node where they accrued and are merged into that node's report,
/// so a cluster-wide sum counts every access exactly once regardless
/// of how often a shard was re-homed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrozenShard {
    /// Global id of the shard being re-homed.
    pub shard: u32,
    /// Shard-local activity clock (orders LRU victimization).
    pub clock: u64,
    /// The heap partition, sorted by address (a canonical order, so
    /// encoding is deterministic).
    pub heap: Vec<(u64, u64)>,
    /// Threads present in their native context.
    pub natives: Vec<u32>,
    /// Resident guests as `(thread, pinned, last_active)`.
    pub guests: Vec<(u32, bool, u64)>,
    /// Runnable envelopes, in queue order.
    pub runq: Vec<WireEnvelope>,
    /// Envelopes parked at a barrier.
    pub parked: Vec<WireEnvelope>,
    /// Envelopes pinned awaiting a remote reply (the reply names the
    /// envelope's thread), by thread.
    pub awaiting: Vec<WireEnvelope>,
    /// Guest arrivals stalled on context admission, in arrival order.
    pub stalled: Vec<WireEnvelope>,
    /// Mailbox backlog drained at freeze time, in arrival order.
    pub mailbox: Vec<WireMsg>,
}

impl FrozenShard {
    /// Write the versioned encoding of this frozen shard through `w`,
    /// which has room for [`FrozenShard::max_len`] bytes.
    pub fn write(&self, w: &mut Writer<'_>) {
        w.u8(WIRE_VERSION);
        w.var(u64::from(self.shard));
        w.var(self.clock);
        w.var(self.heap.len() as u64);
        for &(a, v) in &self.heap {
            w.var(a);
            w.u64(v);
        }
        w.var(self.natives.len() as u64);
        for &t in &self.natives {
            w.var(u64::from(t));
        }
        w.var(self.guests.len() as u64);
        for &(t, pinned, at) in &self.guests {
            w.var(u64::from(t));
            w.u8(u8::from(pinned));
            w.var(at);
        }
        for queue in [&self.runq, &self.parked, &self.stalled, &self.awaiting] {
            w.var(queue.len() as u64);
            for env in queue {
                env.write(w);
            }
        }
        w.var(self.mailbox.len() as u64);
        for msg in &self.mailbox {
            msg.write(w);
        }
    }

    /// Most bytes [`FrozenShard::write`] takes: the version, ten
    /// varints (two scalars, eight list counts), and every item at its
    /// widest.
    pub fn max_len(&self) -> usize {
        let queued = [&self.runq, &self.parked, &self.stalled, &self.awaiting];
        let queued = queued.into_iter().flatten();
        1 + 10 * VAR_MAX
            + self.heap.len() * (VAR_MAX + 8)
            + self.natives.len() * VAR_MAX
            + self.guests.len() * (2 * VAR_MAX + 1)
            + queued.map(EnvelopeForm::max_len).sum::<usize>()
            + self.mailbox.iter().map(Encode::max_len).sum::<usize>()
    }

    /// The versioned encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        em2_model::bytes::to_vec(self.max_len(), |w| self.write(w))
    }

    /// Decode from a standalone buffer, requiring exact consumption.
    /// Never panics: every list is a [`Cursor::list`], so an absurd
    /// count fails on truncation, not on the allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Cursor::new(bytes);
        let ver = r.u8()?;
        if ver != WIRE_VERSION {
            return Err(WireError::Version {
                got: ver,
                want: WIRE_VERSION,
            });
        }
        // Fields in wire order (`stalled` precedes `awaiting`).
        let env = |r: &mut Cursor<'_>| WireEnvelope::view(r).map(WireEnvelope::into_owned);
        let f = FrozenShard {
            shard: r.var_as()?,
            clock: r.var()?,
            heap: r.list(|r| Ok::<_, CodecError>((r.var()?, r.u64()?)))?,
            natives: r.list(Cursor::var_as)?,
            guests: r.list(|r| Ok::<_, CodecError>((r.var_as()?, r.flag("pinned")?, r.var()?)))?,
            runq: r.list(env)?,
            parked: r.list(env)?,
            stalled: r.list(env)?,
            awaiting: r.list(env)?,
            mailbox: r.list(|r| WireMsg::read(r, WireEnvelope::into_owned))?,
        };
        r.finish()?;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_envelope() -> WireEnvelope {
        let mut journey = Journey::default();
        journey.push(JourneyHop {
            shard: 3,
            node: 0,
            epoch: 0,
            cause: HopCause::Submit,
        });
        journey.push(JourneyHop {
            shard: 5,
            node: 1,
            epoch: 2,
            cause: HopCause::Migrate,
        });
        WireEnvelope {
            thread: 7,
            native: 3,
            task_kind: 1,
            task_ctx: vec![1, 2, 3, 4, 5],
            scheme_state: vec![9, 8],
            pending_op: Some(WireOp::Write(0x1234, 42)),
            pending_reply: Some(11),
            parked_at: None,
            run: Some((2, 17)),
            journey,
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let msgs = [
            WireMsg::Arrive(sample_envelope()),
            WireMsg::Arrive(WireEnvelope {
                pending_op: None,
                pending_reply: None,
                parked_at: Some(4),
                run: None,
                ..sample_envelope()
            }),
            WireMsg::Request {
                addr: u64::MAX,
                write: None,
                reply_shard: 1023,
                token: 77,
            },
            WireMsg::Request {
                addr: 8,
                write: Some(0xdead_beef),
                reply_shard: 0,
                token: 0,
            },
            WireMsg::Response {
                token: 5,
                value: Some(u64::MAX),
            },
            WireMsg::Response {
                token: u32::MAX,
                value: None,
            },
            WireMsg::BarrierRelease { idx: 3 },
        ];
        for m in msgs {
            let bytes = m.encode();
            assert_eq!(WireMsg::decode(&bytes).expect("round trip"), m);
        }
    }

    #[test]
    fn a_view_borrows_its_byte_strings_and_its_copy_is_the_message() {
        let m = WireMsg::Arrive(sample_envelope());
        let bytes = m.encode();
        let view = WireMsg::view(&bytes).expect("decodes");
        let WireMsg::Arrive(env) = &view else {
            unreachable!("an arrival")
        };
        for s in [env.task_ctx, env.scheme_state] {
            assert!(bytes.as_ptr_range().contains(&s.as_ptr()), "in place");
        }
        assert_eq!(view.map(WireEnvelope::into_owned), m);
    }

    /// The envelope's presence byte has four bits; any byte with a
    /// higher one set is refused, whatever the fields behind it say.
    #[test]
    fn every_presence_byte_above_fifteen_is_a_typed_bad_tag() {
        let plain = WireEnvelope {
            pending_op: None,
            pending_reply: None,
            parked_at: None,
            run: None,
            journey: Journey::default(),
            ..sample_envelope()
        };
        let mut bytes = WireMsg::Arrive(plain).encode();
        // `[presence 0][journey: count 0, dropped 0]` end the frame.
        let at = bytes.len() - 3;
        assert_eq!(bytes[at..], [0, 0, 0]);
        for tag in 16..=255u8 {
            bytes[at] = tag;
            assert_eq!(
                WireMsg::decode(&bytes),
                Err(WireError::Codec(CodecError::BadTag {
                    what: "envelope-presence",
                    tag
                }))
            );
        }
    }

    #[test]
    fn all_ops_round_trip_through_envelopes() {
        for op in [
            WireOp::Read(0),
            WireOp::Write(u64::MAX, 1),
            WireOp::Barrier(9),
            WireOp::Done,
        ] {
            let m = WireMsg::Arrive(WireEnvelope {
                pending_op: Some(op),
                ..sample_envelope()
            });
            assert_eq!(WireMsg::decode(&m.encode()).expect("round trip"), m);
        }
    }

    #[test]
    fn journey_caps_at_sixteen_and_counts_the_rest() {
        let mut j = Journey::default();
        for i in 0..20u32 {
            j.push(JourneyHop {
                shard: i,
                node: 0,
                epoch: u64::from(i),
                cause: HopCause::Migrate,
            });
        }
        assert_eq!(j.hops.len(), JOURNEY_CAP);
        assert_eq!(j.dropped, 4);
        assert_eq!(j.hops[0].shard, 0, "keep-first-N: the head survives");
        let m = WireMsg::Arrive(WireEnvelope {
            journey: j,
            ..sample_envelope()
        });
        assert_eq!(WireMsg::decode(&m.encode()).expect("round trip"), m);
    }

    #[test]
    fn a_spilled_log_only_counts_and_round_trips_in_three_bytes() {
        let hop = |shard| JourneyHop {
            shard,
            node: 0,
            epoch: 0,
            cause: HopCause::Migrate,
        };
        let mut j = Journey::default();
        assert!(j.is_unstarted() && !j.overflowed());
        for i in 0..17 {
            j.push(hop(i));
        }
        assert!(j.overflowed(), "the 17th push found the log full");
        // What `ShardCore::admit` does on seeing that.
        j.spill();
        for i in 17..300 {
            j.push(hop(i));
        }
        assert!(j.hops.is_empty(), "a spilled log never records again");
        assert_eq!(j.dropped, 284);
        assert!(!j.overflowed() && !j.is_unstarted());

        let empty = WireMsg::Arrive(WireEnvelope {
            journey: Journey::default(),
            ..sample_envelope()
        })
        .encode();
        let m = WireMsg::Arrive(WireEnvelope {
            journey: j,
            ..sample_envelope()
        });
        let bytes = m.encode();
        // `[0][var 284]` against the unstarted log's `[0][0]`.
        assert_eq!(bytes.len(), empty.len() + 1);
        assert_eq!(bytes[bytes.len() - 3..], [0, 0x9c, 0x02]);
        assert_eq!(WireMsg::decode(&bytes).expect("round trip"), m);
    }

    #[test]
    fn every_hop_cause_round_trips() {
        for cause in [HopCause::Submit, HopCause::Migrate, HopCause::Remote] {
            assert_eq!(HopCause::from_code(cause.code()), Some(cause));
            let mut j = Journey::default();
            j.push(JourneyHop {
                shard: 1,
                node: 2,
                epoch: 3,
                cause,
            });
            let m = WireMsg::Arrive(WireEnvelope {
                journey: j,
                ..sample_envelope()
            });
            assert_eq!(WireMsg::decode(&m.encode()).expect("round trip"), m);
        }
        assert_eq!(HopCause::from_code(3), None);
    }

    #[test]
    fn a_hop_cause_past_remote_is_a_typed_bad_tag() {
        let mut j = Journey::default();
        j.push(JourneyHop {
            shard: 1,
            node: 2,
            epoch: 3,
            cause: HopCause::Remote,
        });
        let mut bytes = WireMsg::Arrive(WireEnvelope {
            journey: j,
            ..sample_envelope()
        })
        .encode();
        // The hop's cause byte, then a one-byte `dropped` varint.
        let idx = bytes.len() - 2;
        assert_eq!(bytes[idx], HopCause::Remote.code());
        bytes[idx] = 3;
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(WireError::Codec(CodecError::BadTag {
                what: "hop-cause",
                tag: 3
            }))
        );
    }

    #[test]
    fn oversized_journey_length_is_typed() {
        let mut bytes = WireMsg::Arrive(WireEnvelope {
            journey: Journey::default(),
            ..sample_envelope()
        })
        .encode();
        // An empty journey is the frame's last two bytes: the hop
        // count, then a one-byte `dropped` varint.
        let idx = bytes.len() - 2;
        assert_eq!(bytes[idx], 0);
        bytes[idx] = JOURNEY_CAP as u8 + 1;
        assert!(matches!(
            WireMsg::decode(&bytes),
            Err(WireError::Codec(CodecError::BadTag {
                what: "journey-len",
                ..
            }))
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = sample_frozen().encode();
        bytes[0] = WIRE_VERSION + 1;
        assert_eq!(
            FrozenShard::decode(&bytes),
            Err(WireError::Version {
                got: WIRE_VERSION + 1,
                want: WIRE_VERSION
            })
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let full = WireMsg::Arrive(sample_envelope()).encode();
        for cut in 0..full.len() {
            assert!(
                WireMsg::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = WireMsg::BarrierRelease { idx: 1 }.encode();
        bytes.push(0);
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(WireError::Codec(CodecError::Trailing { extra: 1 }))
        );
    }

    /// What `f` writes, under a generous bound.
    fn written(f: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
        em2_model::bytes::to_vec(64, f)
    }

    #[test]
    fn absurd_chunk_lengths_do_not_allocate() {
        // Arrive with a task_ctx length field of ~4 GiB: must fail
        // typed (ChunkTooLarge), not attempt the allocation.
        let b = written(|w| {
            w.u8(0);
            w.var(7); // thread
            w.var(0); // native
            w.var(1); // task_kind
            w.var(u64::from(u32::MAX)); // task_ctx length
        });
        assert_eq!(
            WireMsg::decode(&b),
            Err(WireError::Codec(CodecError::ChunkTooLarge {
                len: u32::MAX as usize
            }))
        );
    }

    #[test]
    fn narrow_fields_refuse_wide_varints() {
        // `reply_shard` and a token are u32s and `native` a u16: a
        // varint past the field's width is a typed refusal, never a
        // silent truncation.
        let wide = |b: &[u8]| {
            matches!(
                WireMsg::decode(b),
                Err(WireError::Codec(CodecError::BadVarint { .. }))
            )
        };
        let request = |reply_shard: u64, token: u64| {
            written(|w| {
                w.u8(1);
                w.var(8); // addr
                w.u8(0); // load
                w.var(reply_shard);
                w.var(token);
            })
        };
        assert!(wide(&request(u64::from(u32::MAX) + 1, 0)));
        assert!(wide(&request(0, u64::from(u32::MAX) + 1)));
        assert_eq!(
            WireMsg::decode(&request(0, u64::from(u32::MAX))),
            Ok(WireMsg::Request {
                addr: 8,
                write: None,
                reply_shard: 0,
                token: u32::MAX
            })
        );
        let b = written(|w| {
            w.u8(2);
            w.var(u64::from(u32::MAX) + 1); // token
            w.u8(0); // ack
        });
        assert!(wide(&b));
        let b = written(|w| {
            w.u8(0);
            w.var(7); // thread
            w.var(u64::from(u16::MAX) + 1); // native
        });
        assert!(wide(&b));
        // And a zero-padded barrier index is not a second spelling of 5.
        let mut padded = vec![3, 0x85, 0x00];
        assert!(wide(&padded));
        padded.pop();
        padded[1] = 0x05;
        assert_eq!(
            WireMsg::decode(&padded),
            Ok(WireMsg::BarrierRelease { idx: 5 })
        );
    }

    fn sample_frozen() -> FrozenShard {
        FrozenShard {
            shard: 5,
            clock: 1000,
            heap: vec![(1, 10), (2, 20), (0xffff, 3)],
            natives: vec![3, 9],
            guests: vec![(7, true, 99), (8, false, 12)],
            runq: vec![sample_envelope()],
            parked: vec![WireEnvelope {
                parked_at: Some(1),
                ..sample_envelope()
            }],
            awaiting: vec![sample_envelope()],
            stalled: vec![],
            mailbox: vec![
                WireMsg::Response {
                    token: 40,
                    value: Some(7),
                },
                WireMsg::BarrierRelease { idx: 0 },
                WireMsg::Arrive(sample_envelope()),
            ],
        }
    }

    #[test]
    fn a_frozen_shard_keeps_its_exact_bytes() {
        // Length and FNV-1a of a state that spells every field kind of
        // the layout: heap words, guests, envelopes with all four
        // optional fields and a journey, and a drained mailbox.
        let bytes = sample_frozen().encode();
        let digest = em2_model::hash::fnv1a(em2_model::hash::FNV1A_INIT, &bytes);
        assert_eq!((bytes.len(), digest), (240, 0x6f0d_0256_f058_cf67));
    }

    #[test]
    fn frozen_shard_round_trips() {
        let f = sample_frozen();
        let bytes = f.encode();
        assert_eq!(bytes[0], WIRE_VERSION);
        assert_eq!(FrozenShard::decode(&bytes).expect("round trip"), f);

        let empty = FrozenShard {
            shard: 0,
            clock: 0,
            heap: vec![],
            natives: vec![],
            guests: vec![],
            runq: vec![],
            parked: vec![],
            awaiting: vec![],
            stalled: vec![],
            mailbox: vec![],
        };
        assert_eq!(FrozenShard::decode(&empty.encode()).expect("empty"), empty);
    }

    #[test]
    fn every_frozen_truncation_is_a_typed_error() {
        let full = sample_frozen().encode();
        for cut in 0..full.len() {
            assert!(
                FrozenShard::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut trailing = full.clone();
        trailing.push(0);
        assert!(FrozenShard::decode(&trailing).is_err());
    }

    #[test]
    fn errors_display_without_panicking() {
        for e in [
            WireError::Codec(CodecError::Truncated { offset: 3, need: 2 }),
            WireError::Codec(CodecError::BadTag {
                what: "msg",
                tag: 0xFF,
            }),
            WireError::Version { got: 9, want: 1 },
            WireError::Codec(CodecError::ChunkTooLarge { len: 1 << 30 }),
            WireError::Codec(CodecError::Trailing { extra: 4 }),
            WireError::UnknownTaskKind(3),
            WireError::SchemeState("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
