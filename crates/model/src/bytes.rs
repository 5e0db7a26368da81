//! The workspace's one binary-codec kernel: a little-endian slice
//! writer and a bounds-checked read cursor with typed errors.
//!
//! Every hand-rolled codec in the workspace — the runtime's wire
//! format (`em2_rt::wire`), the transport layer's control protocol
//! (`em2-net`), and decision-scheme state serialization
//! (`em2_core::decision`) — builds on these primitives, so "decoding
//! never panics, truncation is a typed error" is implemented exactly
//! once. Layout conventions: one-byte tags (an optional value or a
//! flag is a 0/1 tag, [`Writer::opt`] / [`Cursor::flag`]; a set of
//! optional fields is one presence byte, [`Writer::presence`] /
//! [`Cursor::presence`]); fixed-width **little-endian** integers for
//! opaque words (memory contents, hashes, float bits); canonical
//! **LEB128 varints** ([`Writer::var`] / [`Cursor::var`]) for
//! identifiers, counters, lengths and addresses; length-prefixed byte
//! strings capped at [`MAX_CHUNK`]; lists behind a varint count no
//! decoder trusts with an allocation ([`Cursor::list`]).
//! Both sides inline into their codec: an encoder reserves a message's
//! upper bound once ([`write_into`]) and writes through a [`Writer`]
//! held in registers, and every read but a long varint is inline.

use std::fmt;

/// Hard ceiling on any length-prefixed chunk (16 MiB): a length beyond
/// this in the input is corruption, not a payload — decoding fails
/// typed instead of attempting the allocation.
pub const MAX_CHUNK: usize = 16 << 20;

/// A malformed byte stream. Every decode failure in the workspace's
/// codecs bottoms out in one of these — never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field at `offset` (needed `need` more
    /// bytes).
    Truncated {
        /// Byte offset of the field that could not be read.
        offset: usize,
        /// Bytes the field still needed.
        need: usize,
    },
    /// Unknown tag byte for the named discriminant.
    BadTag {
        /// Which discriminant was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length field exceeded [`MAX_CHUNK`].
    ChunkTooLarge {
        /// The declared length.
        len: usize,
    },
    /// Bytes left over after a complete message.
    Trailing {
        /// How many undecoded bytes remained.
        extra: usize,
    },
    /// A malformed LEB128 varint at `offset`: longer than a `u64`, not
    /// the shortest encoding of its value, or too wide for its field.
    BadVarint {
        /// Byte offset of the varint's first byte.
        offset: usize,
        /// Which rule it broke.
        why: &'static str,
    },
    /// An integrity checksum did not match — the payload was altered
    /// in flight (bit corruption, truncation that still parsed).
    Checksum {
        /// Checksum computed over the received bytes.
        got: u32,
        /// Checksum the sender declared.
        want: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, need } => {
                write!(f, "truncated at byte {offset}: {need} more bytes needed")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::ChunkTooLarge { len } => {
                write!(f, "chunk length {len} exceeds the {MAX_CHUNK}-byte cap")
            }
            CodecError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            CodecError::BadVarint { offset, why } => {
                write!(f, "bad varint at byte {offset}: {why}")
            }
            CodecError::Checksum { got, want } => {
                write!(
                    f,
                    "checksum mismatch: computed {got:#010x}, declared {want:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Most bytes one varint takes ([`Writer::var`] of `u64::MAX`): what
/// an encoder's upper bound ([`write_into`]) counts per varint field.
pub const VAR_MAX: usize = 10;

/// Append one message of at most `max` bytes to `b`: `b` grows once,
/// `f` writes through a [`Writer`], and `b` is cut back to what was
/// written. A bound that is short panics on the write that passes it.
#[inline(always)]
pub fn write_into<R>(b: &mut Vec<u8>, max: usize, f: impl FnOnce(&mut Writer<'_>) -> R) -> R {
    let start = b.len();
    b.resize(start + max, 0);
    let mut w = Writer {
        buf: &mut b[start..start + max],
        at: 0,
    };
    let out = f(&mut w);
    let end = start + w.at;
    b.truncate(end);
    out
}

/// [`write_into`] a fresh buffer.
pub fn to_vec(max: usize, f: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut b = Vec::new();
    write_into(&mut b, max, f);
    b
}

/// A write cursor over the slice [`write_into`] reserved: a field is a
/// store and an index bump, with no call and no `Vec` length update.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    /// Bytes written so far.
    #[inline(always)]
    pub fn written(&self) -> usize {
        self.at
    }

    /// Write one byte.
    #[inline(always)]
    pub fn u8(&mut self, v: u8) {
        self.buf[self.at] = v;
        self.at += 1;
    }

    /// Write raw bytes (a fixed-width integer as its `to_le_bytes`).
    #[inline(always)]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf[self.at..self.at + v.len()].copy_from_slice(v);
        self.at += v.len();
    }

    /// Write a `u64`, little-endian.
    #[inline(always)]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Write `v` as a canonical LEB128 varint: seven value bits per
    /// byte, least significant group first, high bit set on every byte
    /// but the last; always the shortest encoding (1 byte below 128,
    /// [`VAR_MAX`] bytes for `u64::MAX`).
    #[inline(always)]
    pub fn var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// Write a byte string behind a varint length.
    #[inline(always)]
    pub fn var_bytes(&mut self, v: &[u8]) {
        assert!(v.len() <= MAX_CHUNK, "chunk exceeds the wire cap");
        self.var(v.len() as u64);
        self.bytes(v);
    }

    /// Write an optional value: tag `1` then the value, or tag `0`
    /// alone ([`Cursor::flag`] reads the tag back).
    #[inline(always)]
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.u8(u8::from(v.is_some()));
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Write a presence byte for up to eight optional fields: bit `i`
    /// set when field `i` follows ([`Cursor::presence`] reads it back).
    #[inline(always)]
    pub fn presence<const N: usize>(&mut self, present: [bool; N]) {
        self.u8((0..N).fold(0, |p, i| p | u8::from(present[i]) << i));
    }

    /// Write through a second writer over the rest of the slice, for
    /// an out-of-line call: handed only the slice, not this writer,
    /// the call leaves this writer in registers.
    #[inline(always)]
    pub fn nested(&mut self, f: impl FnOnce(&mut Writer<'_>)) {
        let mut inner = Writer {
            buf: &mut self.buf[self.at..],
            at: 0,
        };
        f(&mut inner);
        self.at += inner.at;
    }
}

/// A bounds-checked read cursor over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.at,
                need: n - self.remaining(),
            });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Read one byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a canonical LEB128 varint ([`Writer::var`]'s inverse). Only
    /// the shortest encoding of a value is accepted, so a value has
    /// exactly one byte representation: a zero-padded varint, one whose
    /// tenth byte carries more than the top bit of a `u64`, and one
    /// that runs past ten bytes are all [`CodecError::BadVarint`].
    /// Up to four bytes are read inline; a longer or malformed varint
    /// takes a call handed the bytes, so the cursor stays in registers.
    #[inline(always)]
    pub fn var(&mut self) -> Result<u64, CodecError> {
        let low = |b: u8| u64::from(b & 0x7f);
        let (v, len) = match self.buf[self.at..] {
            [b @ 0..0x80, ..] => (u64::from(b), 1),
            [b0, b1 @ 1..0x80, ..] => (low(b0) | u64::from(b1) << 7, 2),
            [b0, b1 @ 0x80..=0xff, b2 @ 1..0x80, ..] => {
                (low(b0) | low(b1) << 7 | u64::from(b2) << 14, 3)
            }
            [b0, b1 @ 0x80..=0xff, b2 @ 0x80..=0xff, b3 @ 1..0x80, ..] => (
                low(b0) | low(b1) << 7 | low(b2) << 14 | u64::from(b3) << 21,
                4,
            ),
            _ => long_var(self.buf, self.at)?,
        };
        self.at += len;
        Ok(v)
    }

    /// Read the 0/1 tag of an optional value or a flag ([`Writer::opt`]);
    /// any other byte is [`CodecError::BadTag`] naming the field `what`.
    #[inline(always)]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what, tag }),
        }
    }

    /// Read the presence byte of `N` optional fields
    /// ([`Writer::presence`]); a byte with a bit at or above `N` set is
    /// [`CodecError::BadTag`] naming the field set `what`.
    #[inline(always)]
    pub fn presence<const N: usize>(
        &mut self,
        what: &'static str,
    ) -> Result<[bool; N], CodecError> {
        let tag = self.u8()?;
        if u32::from(tag) >> N != 0 {
            return Err(CodecError::BadTag { what, tag });
        }
        Ok(std::array::from_fn(|i| tag >> i & 1 == 1))
    }

    /// Read a list behind a varint count, one `item` per element. The
    /// count is untrusted, so nothing is pre-allocated from it: an
    /// absurd count fails on truncation, not on the allocation.
    pub fn list<T, E: From<CodecError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::new();
        for _ in 0..self.var()? {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Read a varint into a narrower integer field; a value the field
    /// cannot hold is [`CodecError::BadVarint`], never a truncation.
    #[inline(always)]
    pub fn var_as<T: TryFrom<u64>>(&mut self) -> Result<T, CodecError> {
        let offset = self.at;
        T::try_from(self.var()?).map_err(|_| CodecError::BadVarint {
            offset,
            why: "too wide for its field",
        })
    }

    /// Read a varint-length-prefixed byte string
    /// ([`Writer::var_bytes`]'s inverse), borrowed from the input.
    #[inline(always)]
    pub fn var_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.var()?;
        if n > MAX_CHUNK as u64 {
            return Err(CodecError::ChunkTooLarge { len: n as usize });
        }
        self.take(n as usize)
    }

    /// Consume and return everything left (for codecs embedding a
    /// nested message as the final field).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    /// Assert the input is fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::Trailing { extra }),
        }
    }
}

/// A varint of any length at `buf[offset..]`, as `(value, length)`.
#[inline(never)]
fn long_var(buf: &[u8], offset: usize) -> Result<(u64, usize), CodecError> {
    let mut v: u64 = 0;
    for (i, shift) in (0..64).step_by(7).enumerate() {
        let Some(&b) = buf.get(offset + i) else {
            return Err(CodecError::Truncated {
                offset: offset + i,
                need: 1,
            });
        };
        if shift == 63 && b > 1 {
            return Err(CodecError::BadVarint {
                offset,
                why: "does not fit a u64",
            });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            if b == 0 && shift > 0 {
                return Err(CodecError::BadVarint {
                    offset,
                    why: "not the shortest encoding",
                });
            }
            return Ok((v, i + 1));
        }
    }
    unreachable!("the tenth byte either ends the varint or is refused")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `f` writes, under a generous bound.
    fn written(f: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
        to_vec(512, f)
    }

    #[test]
    fn primitives_round_trip() {
        let b = written(|w| {
            w.u8(7);
            w.bytes(&0xBEEFu16.to_le_bytes());
            w.bytes(&0xDEAD_BEEFu32.to_le_bytes());
            w.u64(u64::MAX - 1);
            w.var_bytes(&[1, 2, 3]);
        });
        let mut r = Cursor::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.var_bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn a_writer_appends_exactly_what_it_wrote() {
        let mut b = vec![1, 2];
        let n = write_into(&mut b, VAR_MAX + 1, |w| {
            w.var(300);
            w.u8(9);
            w.written()
        });
        assert_eq!((n, b), (3, vec![1, 2, 0xAC, 0x02, 9]));
    }

    #[test]
    #[should_panic]
    fn a_short_bound_panics_on_the_write_that_passes_it() {
        write_into(&mut Vec::new(), 1, |w| w.bytes(&[7, 0]));
    }

    #[test]
    fn truncation_trailing_and_oversize_are_typed() {
        let mut r = Cursor::new(&[1, 2]);
        assert_eq!(r.u32(), Err(CodecError::Truncated { offset: 0, need: 2 }));
        let b = written(|w| w.var(u64::from(u32::MAX)));
        assert_eq!(
            Cursor::new(&b).var_bytes(),
            Err(CodecError::ChunkTooLarge {
                len: u32::MAX as usize
            })
        );
        let r = Cursor::new(&[0]);
        assert_eq!(r.finish(), Err(CodecError::Trailing { extra: 1 }));
    }

    #[test]
    fn varints_round_trip_at_every_width_boundary() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let b = written(|w| w.var(v));
            assert_eq!(b.len(), len, "{v} is {len} bytes");
            let mut r = Cursor::new(&b);
            assert_eq!(r.var(), Ok(v));
            r.finish().unwrap();
        }
        let b = written(|w| w.var_bytes(&[9; 200]));
        assert_eq!(b.len(), 202, "a 200-byte string has a 2-byte length");
        assert_eq!(Cursor::new(&b).var_bytes(), Ok(&[9u8; 200][..]));
    }

    #[test]
    fn malformed_varints_are_typed() {
        let bad = |bytes: &[u8]| Cursor::new(bytes).var().expect_err("malformed");
        // Input ends on a continuation byte.
        assert_eq!(bad(&[0x80]), CodecError::Truncated { offset: 1, need: 1 });
        assert_eq!(bad(&[]), CodecError::Truncated { offset: 0, need: 1 });
        // Eleven bytes, and a tenth byte carrying more than bit 63.
        let mut eleven = [0xFFu8; 11];
        eleven[10] = 0x01;
        assert!(matches!(
            bad(&eleven),
            CodecError::BadVarint { offset: 0, .. }
        ));
        let mut tenth = [0xFFu8; 10];
        tenth[9] = 0x02;
        assert!(matches!(
            bad(&tenth),
            CodecError::BadVarint { offset: 0, .. }
        ));
        // Zero-padded: 0 as two bytes, 1 as two bytes, 2^63 padded out.
        assert!(matches!(bad(&[0x80, 0x00]), CodecError::BadVarint { .. }));
        assert!(matches!(bad(&[0x81, 0x00]), CodecError::BadVarint { .. }));
        let mut padded = [0x80u8; 10];
        padded[9] = 0x00;
        assert!(matches!(bad(&padded), CodecError::BadVarint { .. }));
        // A u32 field refuses 2^32 and a u16 field 2^16 — no truncation.
        let b = written(|w| {
            w.var(u64::from(u32::MAX) + 1);
            w.var(u64::from(u16::MAX) + 1);
            w.var(u64::from(u32::MAX));
        });
        let mut r = Cursor::new(&b);
        assert!(matches!(
            r.var_as::<u32>(),
            Err(CodecError::BadVarint { offset: 0, .. })
        ));
        assert!(matches!(
            r.var_as::<u16>(),
            Err(CodecError::BadVarint { offset: 5, .. })
        ));
        assert_eq!(r.var_as::<u32>(), Ok(u32::MAX));
        // An absurd string length fails before any allocation.
        let b = written(|w| w.var(u64::MAX));
        assert!(matches!(
            Cursor::new(&b).var_bytes(),
            Err(CodecError::ChunkTooLarge { .. })
        ));
    }

    #[test]
    fn options_flags_and_lists_follow_the_two_tag_rules() {
        let b = written(|w| {
            w.opt(Some(300u64), Writer::var);
            w.opt(None::<u64>, Writer::var);
            w.var(2);
            w.var(5);
            w.var(6);
            w.u8(2);
        });
        assert_eq!(b, [1, 0xAC, 0x02, 0, 2, 5, 6, 2]);
        let mut r = Cursor::new(&b);
        assert_eq!(r.flag("a"), Ok(true));
        assert_eq!(r.var(), Ok(300));
        assert_eq!(r.flag("b"), Ok(false));
        assert_eq!(r.list(Cursor::var), Ok(vec![5, 6]));
        assert_eq!(
            r.flag("pinned"),
            Err(CodecError::BadTag {
                what: "pinned",
                tag: 2
            }),
            "any byte but 0/1 is a bad tag naming its field"
        );
        // A presence byte names which of its fields follow; a bit past
        // the field count is a bad tag, never ignored.
        let b = written(|w| w.presence([true, false, false, true]));
        assert_eq!(b, [0b1001]);
        assert_eq!(
            Cursor::new(&b).presence::<4>("p"),
            Ok([true, false, false, true])
        );
        for tag in 16..=255u8 {
            assert_eq!(
                Cursor::new(&[tag]).presence::<4>("p"),
                Err(CodecError::BadTag { what: "p", tag })
            );
        }
        assert_eq!(Cursor::new(&[0xFF]).presence::<8>("p"), Ok([true; 8]));
        // A count of 2^64 - 1 over an empty tail: a truncation, not an
        // allocation.
        let b = written(|w| w.var(u64::MAX));
        assert!(matches!(
            Cursor::new(&b).list(Cursor::var),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn rest_consumes_everything() {
        let mut r = Cursor::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.rest(), &[2, 3]);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn errors_display() {
        for e in [
            CodecError::Truncated { offset: 3, need: 2 },
            CodecError::BadTag { what: "x", tag: 9 },
            CodecError::ChunkTooLarge { len: 1 << 30 },
            CodecError::Trailing { extra: 4 },
            CodecError::BadVarint {
                offset: 2,
                why: "x",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
