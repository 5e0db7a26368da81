//! Strongly-typed identifiers.
//!
//! The simulator juggles three id spaces — cores, threads, and memory
//! addresses — and mixing them up is the classic source of silent bugs
//! in architecture simulators. Each gets a newtype here.

use std::fmt;

/// Identifier of a processor core (a tile in the on-chip mesh).
///
/// Cores are numbered `0..P` in row-major order over the mesh; the
/// geometric interpretation lives in [`crate::mesh::Mesh`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The numeric index as a `usize`, for indexing per-core tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize, "core index {v} out of range");
        CoreId(v as u16)
    }
}

/// Identifier of a hardware thread.
///
/// Under EM² each thread has a *native* core — the core it originated
/// on, which permanently reserves a native context for it (paper §2).
/// The thread→native-core mapping is owned by the workload, not by the
/// id itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The numeric index as a `usize`, for indexing per-thread tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize, "thread index {v} out of range");
        ThreadId(v as u32)
    }
}

/// A byte address in the simulated shared address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address, for a line size of
    /// `line_bytes` (must be a power of two).
    #[inline]
    pub const fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }

    /// Byte offset within its cache line.
    #[inline]
    pub const fn line_offset(self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.0 & (line_bytes - 1)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A cache-line address (byte address divided by the line size).
///
/// Placement policies ([`em2-placement`](../em2_placement/index.html))
/// assign lines, not bytes, to home cores; so does the directory in the
/// coherence baseline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// First byte address of this line, for a line size of `line_bytes`.
    #[inline]
    pub const fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line 0x{:x}", self.0)
    }
}

/// Whether a memory access reads or writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load: data travels back to the requester on a remote access.
    Read,
    /// A store: only an acknowledgement travels back on a remote access.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping_round_trips() {
        let a = Addr(0x1234);
        let l = a.line(64);
        assert_eq!(l, LineAddr(0x1234 / 64));
        assert_eq!(l.base(64).0, (0x1234 / 64) * 64);
        assert_eq!(a.line_offset(64), 0x1234 % 64);
    }

    #[test]
    fn line_boundaries() {
        assert_eq!(Addr(0).line(64), LineAddr(0));
        assert_eq!(Addr(63).line(64), LineAddr(0));
        assert_eq!(Addr(64).line(64), LineAddr(1));
        assert_eq!(Addr(127).line(64), LineAddr(1));
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(CoreId(3) < CoreId(4));
        assert_eq!(CoreId::from(7usize).index(), 7);
        assert_eq!(ThreadId::from(9usize).index(), 9);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", CoreId(5)), "C5");
        assert_eq!(format!("{:?}", ThreadId(6)), "T6");
        assert_eq!(format!("{:?}", Addr(255)), "0xff");
        assert_eq!(format!("{:?}", LineAddr(4)), "L0x4");
    }

    #[test]
    fn access_kind() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert_eq!(AccessKind::Read.to_string(), "R");
        assert_eq!(AccessKind::Write.to_string(), "W");
    }
}
