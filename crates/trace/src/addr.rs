//! Address-space layout for synthetic workloads.
//!
//! Generators allocate named regions (grids, matrices, per-thread
//! stacks) out of a flat 64-bit byte space. Regions are aligned to a
//! configurable granularity so that first-touch placement at line or
//! page granularity never sees two regions sharing a unit by accident.

use em2_model::Addr;

/// A contiguous, aligned region of the simulated address space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Region label (for debugging and trace dumps).
    pub name: String,
    /// First byte address.
    pub base: Addr,
    /// Size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Address of the `i`-th element of `elem_bytes`-sized elements.
    ///
    /// # Panics
    /// Panics (debug) if the element lies outside the region.
    #[inline]
    pub fn elem(&self, i: u64, elem_bytes: u64) -> Addr {
        debug_assert!(
            (i + 1) * elem_bytes <= self.bytes,
            "element {i} out of region '{}' ({} bytes)",
            self.name,
            self.bytes
        );
        Addr(self.base.0 + i * elem_bytes)
    }

    /// Address of element `(row, col)` in a row-major 2-D layout with
    /// `cols` columns.
    #[inline]
    pub fn at2d(&self, row: u64, col: u64, cols: u64, elem_bytes: u64) -> Addr {
        debug_assert!(col < cols, "column {col} out of {cols}");
        self.elem(row * cols + col, elem_bytes)
    }

    /// One-past-the-end address.
    #[inline]
    pub fn end(&self) -> Addr {
        Addr(self.base.0 + self.bytes)
    }

    /// True if `a` falls inside this region.
    #[inline]
    pub fn contains(&self, a: Addr) -> bool {
        a.0 >= self.base.0 && a.0 < self.base.0 + self.bytes
    }
}

/// A bump allocator over the simulated address space.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    next: u64,
    align: u64,
    regions: Vec<Region>,
}

impl AddressSpace {
    /// A fresh address space starting at `base`, aligning every region
    /// to `align` bytes (must be a power of two; use the first-touch
    /// granularity or larger).
    pub fn new(base: u64, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        AddressSpace {
            next: base.next_multiple_of(align),
            align,
            regions: Vec::new(),
        }
    }

    /// Default space: starts at 64 KiB (leaving page zero unused, as a
    /// real OS would), 4 KiB-aligned regions.
    pub fn with_page_alignment() -> Self {
        AddressSpace::new(0x1_0000, 4096)
    }

    /// Allocate a region of `bytes` bytes.
    pub fn alloc(&mut self, name: impl Into<String>, bytes: u64) -> Region {
        let base = self.next;
        let size = bytes.max(1).next_multiple_of(self.align);
        self.next += size;
        let region = Region {
            name: name.into(),
            base: Addr(base),
            bytes: size,
        };
        self.regions.push(region.clone());
        region
    }

    /// Allocate a row-major 2-D array of `rows × cols` elements.
    pub fn alloc2d(
        &mut self,
        name: impl Into<String>,
        rows: u64,
        cols: u64,
        elem_bytes: u64,
    ) -> Region {
        self.alloc(name, rows * cols * elem_bytes)
    }

    /// Allocate one region per thread (e.g. private stacks), returning
    /// them in thread order.
    pub fn alloc_per_thread(&mut self, name: &str, threads: usize, bytes_each: u64) -> Vec<Region> {
        (0..threads)
            .map(|t| self.alloc(format!("{name}[{t}]"), bytes_each))
            .collect()
    }

    /// All regions allocated so far.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let mut sp = AddressSpace::new(0, 256);
        let a = sp.alloc("a", 100);
        let b = sp.alloc("b", 300);
        let c = sp.alloc("c", 1);
        for r in [&a, &b, &c] {
            assert_eq!(r.base.0 % 256, 0, "{} misaligned", r.name);
        }
        assert!(a.end().0 <= b.base.0);
        assert!(b.end().0 <= c.base.0);
    }

    #[test]
    fn elem_addressing() {
        let mut sp = AddressSpace::new(0x1000, 64);
        let r = sp.alloc("arr", 64 * 4);
        assert_eq!(r.elem(0, 4), Addr(r.base.0));
        assert_eq!(r.elem(5, 4), Addr(r.base.0 + 20));
    }

    #[test]
    fn at2d_row_major() {
        let mut sp = AddressSpace::new(0, 64);
        let r = sp.alloc2d("grid", 4, 8, 4);
        assert_eq!(r.at2d(0, 0, 8, 4), r.base);
        assert_eq!(r.at2d(1, 0, 8, 4).0, r.base.0 + 32);
        assert_eq!(r.at2d(2, 3, 8, 4).0, r.base.0 + (2 * 8 + 3) * 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn elem_out_of_bounds_panics_in_debug() {
        let mut sp = AddressSpace::new(0, 64);
        let r = sp.alloc("small", 8);
        // 64-byte aligned region is padded to 64 bytes; index beyond that.
        let _ = r.elem(100, 4);
    }

    #[test]
    fn per_thread_regions() {
        let mut sp = AddressSpace::with_page_alignment();
        let stacks = sp.alloc_per_thread("stack", 4, 8192);
        assert_eq!(stacks.len(), 4);
        for w in stacks.windows(2) {
            assert!(w[0].end().0 <= w[1].base.0);
        }
    }

    #[test]
    fn zero_sized_alloc_still_advances() {
        let mut sp = AddressSpace::new(0, 64);
        let a = sp.alloc("z", 0);
        let b = sp.alloc("after", 64);
        assert!(a.bytes >= 1);
        assert_ne!(a.base, b.base);
    }
}
