//! The workspace's one non-default hasher: multiply-and-fold over
//! word keys.
//!
//! Every table the stack probes per access, per decision or per
//! arrival is keyed by a machine word the program itself produced — an
//! address, a placement unit, a request token, a packed
//! `(thread, core)` id. SipHash's keyed rounds buy nothing there and
//! cost more than the access they guard, so those tables are
//! [`WordMap`]s. Keys that arrive from outside the program (strings,
//! bytes read before a handshake completes) stay on the default
//! hasher; see DESIGN.md §6 for the trust boundary. Nothing observable
//! may depend on a [`WordMap`]'s iteration order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over program-internal word keys, hashed by
/// [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// One multiply per word, with the high half of the product folded
/// into the low half. The fold is not optional: the map takes its
/// bucket from the hash's low bits and its control byte from the top
/// seven, and our keys are multiples of 8, 64 and 4096 or ids packed
/// above bit 16 — a bare multiply leaves their low bits zero and every
/// key in the first bucket group.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let x = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    /// Everything else: eight-byte little-endian lanes, the tail
    /// zero-padded — so an integer of any width hashes like the same
    /// value widened, with or without a `write_uN` shortcut above.
    fn write(&mut self, bytes: &[u8]) {
        for lane in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..lane.len()].copy_from_slice(lane);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a's 64-bit offset basis: the `h` a fresh [`fnv1a`] fold
/// starts from.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a state `h`. The workspace's
/// digests of *text* — a cluster topology, the rendered tables, an
/// address as a jitter seed — are this fold, chained across pieces by
/// feeding one call's result to the next.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fnv1a_matches_the_published_vectors_and_chains() {
        assert_eq!(fnv1a(FNV1A_INIT, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_INIT, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_INIT, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_INIT, b"foo"), b"bar"),
            fnv1a(FNV1A_INIT, b"foobar")
        );
    }

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(key)
    }

    /// Largest bin over mean bin when `keys` are binned by `bin`.
    fn skew(keys: impl Iterator<Item = u64>, bins: usize, bin: impl Fn(u64) -> usize) -> f64 {
        let mut counts = vec![0u32; bins];
        let mut n = 0u32;
        for k in keys {
            counts[bin(hash(k))] += 1;
            n += 1;
        }
        let max = *counts.iter().max().expect("bins");
        f64::from(max) * bins as f64 / f64::from(n)
    }

    /// The key families the workspace actually stores, binned the two
    /// ways the map reads a hash: bucket index (low bits) and control
    /// byte (top seven). A bare multiply is red on every strided
    /// family's low bits.
    #[test]
    fn strided_and_packed_keys_spread_over_buckets_and_control_bytes() {
        const N: u64 = 65_536;
        type Family = (&'static str, fn(u64) -> u64);
        let families: [Family; 6] = [
            ("8*i", |i| 8 * i),
            ("64*i", |i| 64 * i),
            ("4096*i", |i| 4096 * i),
            ("i<<32", |i| i << 32),
            ("(t<<16)|c", |i| ((i >> 6) << 16) | (i & 63)),
            ("i", |i| i),
        ];
        for (name, key) in families {
            let low = skew((0..N).map(key), 4096, |h| (h & 0xFFF) as usize);
            let top = skew((0..N).map(key), 128, |h| (h >> 57) as usize);
            assert!(low <= 4.0, "{name}: fullest bucket is {low:.1}x the mean");
            assert!(
                top <= 4.0,
                "{name}: fullest control byte is {top:.1}x the mean"
            );
        }
    }

    #[test]
    fn narrow_writes_hash_like_the_widened_word() {
        let h = |f: &dyn Fn(&mut WordHasher)| {
            let mut s = WordHasher::default();
            f(&mut s);
            s.finish()
        };
        let wide = h(&|s| s.write_u64(0xABCD));
        assert_eq!(h(&|s| s.write_u32(0xABCD)), wide);
        assert_eq!(h(&|s| s.write_u16(0xABCD)), wide);
        assert_eq!(h(&|s| s.write_usize(0xABCD)), wide);
        assert_eq!(h(&|s| s.write(&0xABCDu64.to_le_bytes())), wide);
        assert_eq!(h(&|s| s.write(&[0xCD, 0xAB])), wide, "tail is zero-padded");
        assert_ne!(h(&|s| s.write_u8(1)), h(&|s| s.write_u8(2)));
    }
}
