//! The workspace's one binary-codec kernel: little-endian writers and
//! a bounds-checked read cursor with typed errors.
//!
//! Every hand-rolled codec in the workspace — the runtime's wire
//! format (`em2_rt::wire`), the transport layer's control protocol
//! (`em2-net`), and decision-scheme state serialization
//! (`em2_core::decision`) — builds on these primitives, so "decoding
//! never panics, truncation is a typed error" is implemented exactly
//! once. Layout conventions: one-byte tags (an optional value or a
//! flag is a 0/1 tag, [`put_opt`] / [`Cursor::flag`]; a set of optional
//! fields is one presence byte, [`put_presence`] / [`Cursor::presence`]);
//! fixed-width **little-endian** integers for opaque words (memory contents,
//! hashes, float bits); canonical **LEB128 varints** ([`put_var`] /
//! [`Cursor::var`]) for identifiers, counters, lengths and addresses;
//! length-prefixed byte strings capped at [`MAX_CHUNK`]; lists behind a
//! varint count no decoder trusts with an allocation ([`Cursor::list`]).

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

/// Append a `u16`, little-endian.
pub fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`, little-endian.
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as a canonical LEB128 varint: seven value bits per byte,
/// least significant group first, high bit set on every byte but the
/// last; always the shortest encoding (1 byte below 128, 10 bytes for
/// `u64::MAX`).
pub fn put_var(b: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        b.push(v as u8 | 0x80);
        v >>= 7;
    }
    b.push(v as u8);
}

/// Append a byte string behind a varint length.
pub fn put_var_bytes(b: &mut Vec<u8>, v: &[u8]) {
    assert!(v.len() <= MAX_CHUNK, "chunk exceeds the wire cap");
    put_var(b, v.len() as u64);
    b.extend_from_slice(v);
}

/// Append an optional value: tag `1` then the value, or tag `0` alone
/// ([`Cursor::flag`] reads the tag back).
pub fn put_opt<T>(b: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    b.push(u8::from(v.is_some()));
    if let Some(v) = v {
        put(b, v);
    }
}

/// Append a presence byte for up to eight optional fields: bit `i` set
/// when field `i` follows ([`Cursor::presence`] reads it back).
pub fn put_presence<const N: usize>(b: &mut Vec<u8>, present: [bool; N]) {
    b.push((0..N).fold(0, |p, i| p | u8::from(present[i]) << i));
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

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a canonical LEB128 varint ([`put_var`]'s inverse). Only
    /// the shortest encoding of a value is accepted, so a value has
    /// exactly one byte representation: a zero-padded varint, one whose
    /// tenth byte carries more than the top bit of a `u64`, and one
    /// that runs past ten bytes are all [`CodecError::BadVarint`].
    pub fn var(&mut self) -> Result<u64, CodecError> {
        let offset = self.at;
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
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
                return Ok(v);
            }
        }
        unreachable!("the tenth byte either ends the varint or is refused")
    }

    /// Read the 0/1 tag of an optional value or a flag ([`put_opt`]);
    /// any other byte is [`CodecError::BadTag`] naming the field `what`.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what, tag }),
        }
    }

    /// Read the presence byte of `N` optional fields ([`put_presence`]);
    /// a byte with a bit at or above `N` set is [`CodecError::BadTag`]
    /// naming the field set `what`.
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
    pub fn var_as<T: TryFrom<u64>>(&mut self) -> Result<T, CodecError> {
        let offset = self.at;
        T::try_from(self.var()?).map_err(|_| CodecError::BadVarint {
            offset,
            why: "too wide for its field",
        })
    }

    /// Read a varint-length-prefixed byte string ([`put_var_bytes`]'s
    /// inverse), borrowed from the input.
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
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                extra: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut b = Vec::new();
        b.push(7u8);
        put_u16(&mut b, 0xBEEF);
        put_u32(&mut b, 0xDEAD_BEEF);
        put_u64(&mut b, u64::MAX - 1);
        put_var_bytes(&mut b, &[1, 2, 3]);
        let mut r = Cursor::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.var_bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_trailing_and_oversize_are_typed() {
        let mut r = Cursor::new(&[1, 2]);
        assert_eq!(r.u32(), Err(CodecError::Truncated { offset: 0, need: 2 }));
        let mut b = Vec::new();
        put_var(&mut b, u64::from(u32::MAX));
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
            let mut b = Vec::new();
            put_var(&mut b, v);
            assert_eq!(b.len(), len, "{v} is {len} bytes");
            let mut r = Cursor::new(&b);
            assert_eq!(r.var(), Ok(v));
            r.finish().unwrap();
        }
        let mut b = Vec::new();
        put_var_bytes(&mut b, &[9; 200]);
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
        let mut b = Vec::new();
        put_var(&mut b, u64::from(u32::MAX) + 1);
        put_var(&mut b, u64::from(u16::MAX) + 1);
        put_var(&mut b, u64::from(u32::MAX));
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
        let mut b = Vec::new();
        put_var(&mut b, u64::MAX);
        assert!(matches!(
            Cursor::new(&b).var_bytes(),
            Err(CodecError::ChunkTooLarge { .. })
        ));
    }

    #[test]
    fn options_flags_and_lists_follow_the_two_tag_rules() {
        let mut b = Vec::new();
        put_opt(&mut b, Some(300u64), put_var);
        put_opt(&mut b, None::<u64>, put_var);
        put_var(&mut b, 2);
        put_var(&mut b, 5);
        put_var(&mut b, 6);
        b.push(2);
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
        let mut b = Vec::new();
        put_presence(&mut b, [true, false, false, true]);
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
        let mut b = Vec::new();
        put_var(&mut b, u64::MAX);
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
