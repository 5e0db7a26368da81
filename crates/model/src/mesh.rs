//! 2-D mesh geometry.
//!
//! The paper's target is a tiled CMP connected by a 2-D mesh on-chip
//! network (the Graphite configuration it evaluates on, and the
//! deadlock-free migration substrate of Cho et al. \[10\]). This module
//! owns the purely geometric part: core coordinates, Manhattan
//! distances, and X-Y route enumeration. The cycle-level router model
//! lives in `em2-noc`.

use crate::ids::CoreId;
use std::fmt;

/// A rectangular 2-D mesh of `width × height` cores, numbered row-major:
/// core `(x, y)` has id `y * width + x`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Create a mesh with the given dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// The smallest square (or near-square) mesh holding `cores` cores.
    ///
    /// For a perfect square count this is the `√P × √P` mesh the paper
    /// assumes (e.g. 64 cores → 8×8); otherwise the width is rounded up
    /// and the height chosen so `width × height >= cores` with minimal
    /// slack.
    pub fn square_for(cores: usize) -> Self {
        assert!(cores > 0, "mesh must hold at least one core");
        let w = (cores as f64).sqrt().ceil() as u16;
        let h = cores.div_ceil(w as usize) as u16;
        Mesh::new(w, h)
    }

    /// Mesh width (number of columns).
    #[inline]
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (number of rows).
    #[inline]
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Total number of tiles in the mesh.
    #[inline]
    pub const fn cores(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// `(x, y)` coordinates of a core.
    ///
    /// # Panics
    /// Panics (debug) if the core id is out of range.
    #[inline]
    pub fn coords(&self, core: CoreId) -> (u16, u16) {
        debug_assert!(core.index() < self.cores(), "core {core:?} outside mesh");
        let x = core.0 % self.width;
        let y = core.0 / self.width;
        (x, y)
    }

    /// Core id at coordinates `(x, y)`.
    #[inline]
    pub fn at(&self, x: u16, y: u16) -> CoreId {
        debug_assert!(x < self.width && y < self.height);
        CoreId(y * self.width + x)
    }

    /// Manhattan hop distance between two cores — the number of
    /// router-to-router links a packet traverses under minimal routing.
    #[inline]
    pub fn hops(&self, a: CoreId, b: CoreId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) as u64) + (ay.abs_diff(by) as u64)
    }

    /// The diameter of the mesh: the largest hop count between any two
    /// cores (corner to corner).
    #[inline]
    pub fn diameter(&self) -> u64 {
        (self.width as u64 - 1) + (self.height as u64 - 1)
    }

    /// Iterate over all core ids in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.cores()).map(CoreId::from)
    }

    /// The sequence of cores on the X-Y (dimension-ordered) route from
    /// `src` to `dst`, *excluding* `src` and *including* `dst`.
    ///
    /// X-Y routing first corrects the X coordinate, then the Y
    /// coordinate; it is minimal and, combined with per-class virtual
    /// channels, deadlock-free (paper §3 requires six virtual channels
    /// to separate migrations, evictions, and remote-access traffic).
    pub fn xy_route(&self, src: CoreId, dst: CoreId) -> Vec<CoreId> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut route = Vec::with_capacity(self.hops(src, dst) as usize);
        while x != dx {
            if x < dx {
                x += 1;
            } else {
                x -= 1;
            }
            route.push(self.at(x, y));
        }
        while y != dy {
            if y < dy {
                y += 1;
            } else {
                y -= 1;
            }
            route.push(self.at(x, y));
        }
        route
    }
}

impl fmt::Display for Mesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} mesh ({} cores)",
            self.width,
            self.height,
            self.cores()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_for_perfect_squares() {
        for p in [1usize, 4, 16, 64, 256, 1024] {
            let m = Mesh::square_for(p);
            assert_eq!(m.cores(), p, "square_for({p})");
            assert_eq!(m.width(), m.height());
        }
    }

    #[test]
    fn square_for_non_squares_covers() {
        for p in [2usize, 3, 5, 6, 7, 12, 48, 100, 1000] {
            let m = Mesh::square_for(p);
            assert!(m.cores() >= p, "square_for({p}) = {m}");
            // Slack never exceeds one row.
            assert!(m.cores() - p < m.width() as usize);
        }
    }

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(8, 8);
        for c in m.iter() {
            let (x, y) = m.coords(c);
            assert_eq!(m.at(x, y), c);
        }
    }

    #[test]
    fn hops_matches_manual() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.hops(m.at(0, 0), m.at(0, 0)), 0);
        assert_eq!(m.hops(m.at(0, 0), m.at(7, 7)), 14);
        assert_eq!(m.hops(m.at(3, 2), m.at(1, 5)), 2 + 3);
        assert_eq!(m.diameter(), 14);
    }

    #[test]
    fn hops_symmetric() {
        let m = Mesh::new(5, 3);
        for a in m.iter() {
            for b in m.iter() {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }

    #[test]
    fn route_length_equals_hops_and_ends_at_dst() {
        let m = Mesh::new(6, 4);
        for a in m.iter() {
            for b in m.iter() {
                let r = m.xy_route(a, b);
                assert_eq!(r.len() as u64, m.hops(a, b));
                if a != b {
                    assert_eq!(*r.last().unwrap(), b);
                    // Every step moves exactly one hop.
                    let mut prev = a;
                    for &step in &r {
                        assert_eq!(m.hops(prev, step), 1);
                        prev = step;
                    }
                }
            }
        }
    }

    #[test]
    fn xy_route_is_x_first() {
        let m = Mesh::new(4, 4);
        let r = m.xy_route(m.at(0, 0), m.at(2, 2));
        assert_eq!(r, vec![m.at(1, 0), m.at(2, 0), m.at(2, 1), m.at(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _ = Mesh::new(0, 3);
    }
}
