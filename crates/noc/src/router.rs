//! The input-buffered wormhole router.
//!
//! Five ports (local + 4 mesh directions), per-port-per-VC FIFO input
//! buffers, X-Y dimension-ordered route computation, per-output-VC
//! wormhole locks, and round-robin arbitration for the physical link.
//! Credit-based flow control is coordinated by
//! [`crate::network::CycleNoc`], which owns the inter-router links.

use crate::packet::Flit;
use crate::vc::VirtualChannel;
use em2_model::{CoreId, Mesh};
use std::collections::VecDeque;

/// Router port directions. `Local` is the core-side inject/eject port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Port {
    /// Core-side injection/ejection.
    Local = 0,
    /// Toward smaller y.
    North = 1,
    /// Toward larger x.
    East = 2,
    /// Toward larger y.
    South = 3,
    /// Toward smaller x.
    West = 4,
}

impl Port {
    /// Number of ports.
    pub const COUNT: usize = 5;

    /// All ports in index order.
    pub const ALL: [Port; Port::COUNT] = [
        Port::Local,
        Port::North,
        Port::East,
        Port::South,
        Port::West,
    ];

    /// The port on the neighbouring router that a link from this
    /// output enters.
    pub const fn opposite(self) -> Port {
        match self {
            Port::Local => Port::Local,
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
        }
    }

    /// Index for table lookup.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Port from index.
    pub const fn from_index(i: usize) -> Port {
        match i {
            0 => Port::Local,
            1 => Port::North,
            2 => Port::East,
            3 => Port::South,
            4 => Port::West,
            _ => panic!("port index out of range"),
        }
    }
}

/// X-Y dimension-ordered routing: correct x first, then y. Returns the
/// output port at router `here` for a packet bound to `dst`.
pub fn xy_output(mesh: &Mesh, here: CoreId, dst: CoreId) -> Port {
    let (hx, hy) = mesh.coords(here);
    let (dx, dy) = mesh.coords(dst);
    if dx > hx {
        Port::East
    } else if dx < hx {
        Port::West
    } else if dy > hy {
        Port::South
    } else if dy < hy {
        Port::North
    } else {
        Port::Local
    }
}

/// Per-router state: input buffers, wormhole locks, arbitration
/// pointers.
pub struct Router {
    /// Input FIFOs: `[port][vc]`.
    pub in_buf: Vec<Vec<VecDeque<Flit>>>,
    /// Wormhole ownership of each output VC: `[port][vc] -> input port`
    /// currently forwarding a packet on that output VC.
    pub out_lock: Vec<Vec<Option<Port>>>,
    /// Round-robin arbitration pointer per output port.
    pub rr: Vec<usize>,
}

impl Router {
    /// A router with empty buffers.
    pub fn new() -> Self {
        Router {
            in_buf: (0..Port::COUNT)
                .map(|_| {
                    (0..VirtualChannel::COUNT)
                        .map(|_| VecDeque::new())
                        .collect()
                })
                .collect(),
            out_lock: vec![vec![None; VirtualChannel::COUNT]; Port::COUNT],
            rr: vec![0; Port::COUNT],
        }
    }

    /// Total buffered flits (for idle detection).
    pub fn buffered(&self) -> usize {
        self.in_buf
            .iter()
            .flat_map(|p| p.iter())
            .map(|q| q.len())
            .sum()
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites() {
        assert_eq!(Port::North.opposite(), Port::South);
        assert_eq!(Port::East.opposite(), Port::West);
        assert_eq!(Port::South.opposite(), Port::North);
        assert_eq!(Port::West.opposite(), Port::East);
        assert_eq!(Port::Local.opposite(), Port::Local);
    }

    #[test]
    fn port_round_trip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), p);
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let m = Mesh::new(4, 4);
        // From (0,0) to (2,2): must go East first.
        assert_eq!(xy_output(&m, m.at(0, 0), m.at(2, 2)), Port::East);
        // Same column: go South.
        assert_eq!(xy_output(&m, m.at(2, 0), m.at(2, 2)), Port::South);
        // Arrived: eject.
        assert_eq!(xy_output(&m, m.at(2, 2), m.at(2, 2)), Port::Local);
        // Westward and northward.
        assert_eq!(xy_output(&m, m.at(3, 3), m.at(1, 3)), Port::West);
        assert_eq!(xy_output(&m, m.at(3, 3), m.at(3, 0)), Port::North);
    }

    #[test]
    fn xy_route_walk_terminates_at_dst() {
        let m = Mesh::new(5, 3);
        for src in m.iter() {
            for dst in m.iter() {
                let mut here = src;
                let mut steps = 0;
                loop {
                    match xy_output(&m, here, dst) {
                        Port::Local => break,
                        p => {
                            let (x, y) = m.coords(here);
                            here = match p {
                                Port::North => m.at(x, y - 1),
                                Port::South => m.at(x, y + 1),
                                Port::East => m.at(x + 1, y),
                                Port::West => m.at(x - 1, y),
                                Port::Local => unreachable!(),
                            };
                            steps += 1;
                            assert!(steps <= m.hops(src, dst), "non-minimal route");
                        }
                    }
                }
                assert_eq!(here, dst);
                assert_eq!(steps, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn fresh_router_is_empty() {
        let r = Router::new();
        assert_eq!(r.buffered(), 0);
    }
}
