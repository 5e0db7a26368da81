//! The full cycle-level mesh: injection, per-cycle flit movement,
//! credit-based flow control, delivery collection, statistics.

use crate::packet::{Flit, PacketId, PacketInfo};
use crate::router::{xy_output, Port, Router};
use crate::vc::VirtualChannel;
use em2_model::{ceil_div, CoreId, Mesh};
use std::collections::VecDeque;

/// Configuration of the cycle-level NoC.
#[derive(Clone, Copy, Debug)]
pub struct NocConfig {
    /// Mesh geometry.
    pub mesh: Mesh,
    /// Link (flit) width in bits.
    pub link_width_bits: u64,
    /// Per-packet header bits (consumes flit capacity).
    pub header_bits: u64,
    /// Input buffer depth per (port, VC), in flits.
    pub buf_depth: usize,
}

impl Default for NocConfig {
    /// 8×8 mesh, 128-bit links, 4-flit buffers (matches the default
    /// [`em2_model::CostModel`] geometry).
    fn default() -> Self {
        NocConfig {
            mesh: Mesh::new(8, 8),
            link_width_bits: 128,
            header_bits: 32,
            buf_depth: 4,
        }
    }
}

impl NocConfig {
    /// Flits for a payload (same formula as the analytical model).
    pub fn flits(&self, payload_bits: u64) -> u64 {
        ceil_div(payload_bits + self.header_bits, self.link_width_bits).max(1)
    }
}

/// A delivered packet.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// The packet's metadata.
    pub info: PacketInfo,
    /// Cycle at which the tail flit ejected.
    pub delivered_at: u64,
}

impl Delivery {
    /// End-to-end packet latency in cycles.
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.info.injected_at
    }
}

/// Aggregate network statistics.
#[derive(Clone, Debug, Default)]
pub struct NocStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Total flit-hops (router→router link traversals).
    pub flit_hops: u64,
    /// Per-VC delivered packet counts.
    pub per_vc_delivered: [u64; VirtualChannel::COUNT],
    /// Per-VC flit-hops.
    pub per_vc_flit_hops: [u64; VirtualChannel::COUNT],
}

/// The cycle-level mesh network.
pub struct CycleNoc {
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Unbounded per-core per-VC injection queues (outside the network;
    /// sources stalled on full buffers cannot deadlock the fabric).
    inject_q: Vec<Vec<VecDeque<Flit>>>,
    /// Credits this router's output port has toward the downstream
    /// input buffer: `[router][port][vc]`.
    credits: Vec<Vec<Vec<usize>>>,
    /// Flits placed on links this cycle: (dst_router, dst_port, flit).
    in_transit: Vec<(usize, Port, Flit)>,
    /// Per-core injection round-robin pointer (fair across VCs).
    inj_rr: Vec<usize>,
    /// Sliding-window slab of packet metadata: `PacketId` ids are
    /// assigned sequentially, entry `id` lives at `id - packets_base`,
    /// and fully-delivered slots are popped off the front — so lookups
    /// are plain array indexing (no hashing on the per-flit ejection
    /// path) and memory is bounded by the maximum in-flight span, not
    /// the total ever injected.
    packets: VecDeque<Option<PacketInfo>>,
    packets_base: u64,
    in_flight: usize,
    deliveries: Vec<Delivery>,
    stats: NocStats,
    next_packet: u64,
    cycle: u64,
}

impl CycleNoc {
    /// Build an idle network.
    pub fn new(cfg: NocConfig) -> Self {
        assert!(cfg.buf_depth >= 1, "need at least one buffer slot");
        let n = cfg.mesh.cores();
        CycleNoc {
            routers: (0..n).map(|_| Router::new()).collect(),
            inject_q: (0..n)
                .map(|_| {
                    (0..VirtualChannel::COUNT)
                        .map(|_| VecDeque::new())
                        .collect()
                })
                .collect(),
            credits: (0..n)
                .map(|_| vec![vec![cfg.buf_depth; VirtualChannel::COUNT]; Port::COUNT])
                .collect(),
            in_transit: Vec::new(),
            inj_rr: vec![0; n],
            packets: VecDeque::new(),
            packets_base: 0,
            in_flight: 0,
            deliveries: Vec::new(),
            stats: NocStats::default(),
            next_packet: 0,
            cycle: 0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Inject a packet; it begins moving on the next [`CycleNoc::step`].
    pub fn inject(
        &mut self,
        src: CoreId,
        dst: CoreId,
        vc: VirtualChannel,
        payload_bits: u64,
    ) -> PacketId {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let info = PacketInfo {
            id,
            src,
            dst,
            vc,
            payload_bits,
            flits: self.cfg.flits(payload_bits),
            injected_at: self.cycle,
        };
        for kind in info.flit_kinds() {
            self.inject_q[src.index()][vc.index()].push_back(Flit {
                packet: id,
                kind,
                dst,
                vc,
            });
        }
        debug_assert_eq!(self.packets_base + self.packets.len() as u64, id.0);
        self.packets.push_back(Some(info));
        self.in_flight += 1;
        self.stats.injected += 1;
        id
    }

    /// Neighbour router index in the given direction.
    fn neighbor(&self, router: usize, port: Port) -> usize {
        let (x, y) = self.cfg.mesh.coords(CoreId::from(router));
        let c = match port {
            Port::North => self.cfg.mesh.at(x, y - 1),
            Port::South => self.cfg.mesh.at(x, y + 1),
            Port::East => self.cfg.mesh.at(x + 1, y),
            Port::West => self.cfg.mesh.at(x - 1, y),
            Port::Local => CoreId::from(router),
        };
        c.index()
    }

    /// Advance the network one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        let n = self.routers.len();

        // ---- Switch allocation & traversal -------------------------
        // Each output port forwards at most one flit per cycle; VCs
        // arbitrate round-robin for the physical link, wormhole locks
        // keep packets contiguous per VC.
        for r in 0..n {
            for out_port in Port::ALL {
                // Build candidate list: (input port, vc) whose head flit
                // wants this output and may move.
                let mut chosen: Option<(Port, VirtualChannel)> = None;
                let rr0 = self.routers[r].rr[out_port.index()];
                for k in 0..VirtualChannel::COUNT {
                    let vc = VirtualChannel::ALL[(rr0 + k) % VirtualChannel::COUNT];
                    // Credit check (local ejection is an infinite sink).
                    if out_port != Port::Local && self.credits[r][out_port.index()][vc.index()] == 0
                    {
                        continue;
                    }
                    if let Some(locked_in) = self.routers[r].out_lock[out_port.index()][vc.index()]
                    {
                        // Continue the current wormhole if its next flit
                        // is waiting.
                        let q = &self.routers[r].in_buf[locked_in.index()][vc.index()];
                        if !q.is_empty() {
                            chosen = Some((locked_in, vc));
                            break;
                        }
                        continue;
                    }
                    // No lock: look for a head flit routed here, round-
                    // robin over input ports.
                    let in0 = (rr0 + k) % Port::COUNT;
                    for j in 0..Port::COUNT {
                        let in_port = Port::from_index((in0 + j) % Port::COUNT);
                        let q = &self.routers[r].in_buf[in_port.index()][vc.index()];
                        if let Some(head) = q.front() {
                            if head.kind.is_head()
                                && xy_output(&self.cfg.mesh, CoreId::from(r), head.dst) == out_port
                            {
                                chosen = Some((in_port, vc));
                                break;
                            }
                        }
                    }
                    if chosen.is_some() {
                        break;
                    }
                }

                let Some((in_port, vc)) = chosen else {
                    continue;
                };
                let flit = self.routers[r].in_buf[in_port.index()][vc.index()]
                    .pop_front()
                    .expect("candidate had a flit");
                // Update wormhole lock.
                let lock = &mut self.routers[r].out_lock[out_port.index()][vc.index()];
                if flit.kind.is_tail() {
                    *lock = None;
                } else {
                    *lock = Some(in_port);
                }
                self.routers[r].rr[out_port.index()] =
                    (self.routers[r].rr[out_port.index()] + 1) % VirtualChannel::COUNT;

                // Return a credit upstream for the freed buffer slot.
                if in_port != Port::Local {
                    let up = self.neighbor(r, in_port);
                    let up_out = in_port.opposite();
                    self.credits[up][up_out.index()][vc.index()] += 1;
                    debug_assert!(
                        self.credits[up][up_out.index()][vc.index()] <= self.cfg.buf_depth
                    );
                }

                if out_port == Port::Local {
                    // Ejection: deliver on tail.
                    if flit.kind.is_tail() {
                        let slot = (flit.packet.0 - self.packets_base) as usize;
                        let info = self.packets[slot].take().expect("known packet");
                        while matches!(self.packets.front(), Some(None)) {
                            self.packets.pop_front();
                            self.packets_base += 1;
                        }
                        self.in_flight -= 1;
                        self.stats.delivered += 1;
                        self.stats.per_vc_delivered[vc.index()] += 1;
                        self.deliveries.push(Delivery {
                            info,
                            delivered_at: self.cycle,
                        });
                    }
                } else {
                    // Link traversal: arrives downstream at end of cycle.
                    self.credits[r][out_port.index()][vc.index()] -= 1;
                    let down = self.neighbor(r, out_port);
                    self.in_transit.push((down, out_port.opposite(), flit));
                    self.stats.flit_hops += 1;
                    self.stats.per_vc_flit_hops[vc.index()] += 1;
                }
            }
        }

        // ---- Injection ---------------------------------------------
        // One flit per core per cycle may enter the local input port,
        // VCs round-robin, subject to buffer space.
        for r in 0..n {
            let rr = self.inj_rr[r];
            for k in 0..VirtualChannel::COUNT {
                let vc = VirtualChannel::ALL[(rr + k) % VirtualChannel::COUNT];
                let buf_len = self.routers[r].in_buf[Port::Local.index()][vc.index()].len();
                if buf_len >= self.cfg.buf_depth {
                    continue;
                }
                if let Some(flit) = self.inject_q[r][vc.index()].pop_front() {
                    self.routers[r].in_buf[Port::Local.index()][vc.index()].push_back(flit);
                    // Advance past the VC we just served so other
                    // classes are never starved by a long stream.
                    self.inj_rr[r] = (rr + k + 1) % VirtualChannel::COUNT;
                    break;
                }
            }
        }

        // ---- Link delivery -----------------------------------------
        for (router, port, flit) in self.in_transit.drain(..) {
            let q = &mut self.routers[router].in_buf[port.index()][flit.vc.index()];
            debug_assert!(q.len() < self.cfg.buf_depth, "credit protocol violated");
            q.push_back(flit);
        }
    }

    /// Take the deliveries accumulated since the last call.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Packets injected but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True when no flit is buffered, queued, or on a link.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
            && self
                .inject_q
                .iter()
                .all(|qs| qs.iter().all(|q| q.is_empty()))
            && self.routers.iter().all(|r| r.buffered() == 0)
    }

    /// Step until idle; returns the cycle count consumed, or `None` if
    /// `max_cycles` elapsed first (a deadlock/livelock tripwire).
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Option<u64> {
        let start = self.cycle;
        while !self.is_idle() {
            if self.cycle - start >= max_cycles {
                return None;
            }
            self.step();
        }
        Some(self.cycle - start)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> CycleNoc {
        CycleNoc::new(NocConfig {
            mesh: Mesh::new(4, 4),
            ..NocConfig::default()
        })
    }

    #[test]
    fn single_packet_delivers_with_expected_latency() {
        let mut n = noc();
        let src = n.cfg.mesh.at(0, 0);
        let dst = n.cfg.mesh.at(3, 0); // 3 hops
        n.inject(src, dst, VirtualChannel::Migration, 64); // 1 flit
        let spent = n.run_until_idle(1000).expect("no deadlock");
        let d = n.take_deliveries();
        assert_eq!(d.len(), 1);
        // 1 cycle injection + (hops+1) router traversals.
        assert_eq!(d[0].latency(), 1 + 3 + 1);
        assert_eq!(spent, d[0].latency());
        assert_eq!(n.stats().flit_hops, 3);
    }

    #[test]
    fn self_packet_delivers() {
        let mut n = noc();
        let c = n.cfg.mesh.at(1, 1);
        n.inject(c, c, VirtualChannel::RemoteReq, 32);
        assert!(n.run_until_idle(100).is_some());
        let d = n.take_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(n.stats().flit_hops, 0, "self delivery uses no links");
    }

    #[test]
    fn multi_flit_serialization_adds_latency() {
        let mut n = noc();
        let src = n.cfg.mesh.at(0, 0);
        let dst = n.cfg.mesh.at(2, 0);
        // 1120-bit context + 32 header = 9 flits at 128 bits.
        n.inject(src, dst, VirtualChannel::Migration, 1120);
        n.run_until_idle(1000).unwrap();
        let d = n.take_deliveries();
        assert_eq!(d[0].info.flits, 9);
        // head: 1 + (2+1); tail trails by flits-1 more cycles.
        assert_eq!(d[0].latency(), 1 + 3 + 8);
        assert_eq!(n.stats().flit_hops, 9 * 2);
    }

    #[test]
    fn wormhole_keeps_packets_contiguous_per_vc() {
        let mut n = noc();
        let src = n.cfg.mesh.at(0, 0);
        let dst = n.cfg.mesh.at(3, 3);
        // Two big packets on the same VC, same route.
        n.inject(src, dst, VirtualChannel::Migration, 1000);
        n.inject(src, dst, VirtualChannel::Migration, 1000);
        n.run_until_idle(10_000).unwrap();
        let d = n.take_deliveries();
        assert_eq!(d.len(), 2);
        // Second packet must finish after the first (FIFO per VC).
        assert!(d[1].delivered_at > d[0].delivered_at);
    }

    #[test]
    fn different_vcs_interleave_without_blocking() {
        let mut n = noc();
        let src = n.cfg.mesh.at(0, 0);
        let dst = n.cfg.mesh.at(3, 0);
        // A long migration packet and a short RA request share the path.
        n.inject(src, dst, VirtualChannel::Migration, 4096);
        n.inject(src, dst, VirtualChannel::RemoteReq, 32);
        n.run_until_idle(10_000).unwrap();
        let d = n.take_deliveries();
        let ra = d
            .iter()
            .find(|d| d.info.vc == VirtualChannel::RemoteReq)
            .unwrap();
        let mig = d
            .iter()
            .find(|d| d.info.vc == VirtualChannel::Migration)
            .unwrap();
        assert!(
            ra.delivered_at < mig.delivered_at,
            "small RA packet must not wait behind the big migration on another VC"
        );
    }

    #[test]
    fn all_to_all_storm_drains_without_deadlock() {
        let mut n = noc();
        let cores: Vec<CoreId> = n.cfg.mesh.iter().collect();
        for &s in &cores {
            for &d in &cores {
                if s != d {
                    n.inject(s, d, VirtualChannel::Migration, 1120);
                    n.inject(s, d, VirtualChannel::RemoteReq, 96);
                }
            }
        }
        let injected = n.stats().injected;
        assert!(
            n.run_until_idle(2_000_000).is_some(),
            "all-to-all storm deadlocked"
        );
        assert_eq!(n.stats().delivered, injected);
    }

    #[test]
    fn no_loss_no_duplication() {
        let mut n = noc();
        let m = n.cfg.mesh;
        let mut expected = Vec::new();
        for i in 0..16u64 {
            let src = CoreId::from((i % 16) as usize);
            let dst = CoreId::from(((i * 7 + 3) % 16) as usize);
            let id = n.inject(src, dst, VirtualChannel::CohReq, 64 + i * 8);
            expected.push((id, dst));
        }
        n.run_until_idle(100_000).unwrap();
        let mut got: Vec<PacketId> = n.take_deliveries().iter().map(|d| d.info.id).collect();
        got.sort();
        let mut want: Vec<PacketId> = expected.iter().map(|&(id, _)| id).collect();
        want.sort();
        assert_eq!(got, want);
        let _ = m;
    }

    #[test]
    fn per_vc_stats_accounted() {
        let mut n = noc();
        let a = n.cfg.mesh.at(0, 0);
        let b = n.cfg.mesh.at(1, 0);
        n.inject(a, b, VirtualChannel::Eviction, 64);
        n.inject(a, b, VirtualChannel::RemoteResp, 64);
        n.run_until_idle(1000).unwrap();
        let s = n.stats();
        assert_eq!(s.per_vc_delivered[VirtualChannel::Eviction.index()], 1);
        assert_eq!(s.per_vc_delivered[VirtualChannel::RemoteResp.index()], 1);
        assert_eq!(s.per_vc_delivered[VirtualChannel::Migration.index()], 0);
        assert_eq!(s.per_vc_flit_hops[VirtualChannel::Eviction.index()], 1);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut lat = Vec::new();
        for hops in [1u16, 3, 6] {
            let mut n = noc();
            let src = n.cfg.mesh.at(0, 0);
            let dst = n.cfg.mesh.at(hops.min(3), hops.saturating_sub(3));
            n.inject(src, dst, VirtualChannel::Migration, 64);
            n.run_until_idle(1000).unwrap();
            lat.push(n.take_deliveries()[0].latency());
        }
        assert!(lat[0] < lat[1] && lat[1] < lat[2], "{lat:?}");
    }

    #[test]
    fn is_idle_reports_correctly() {
        let mut n = noc();
        assert!(n.is_idle());
        n.inject(
            n.cfg.mesh.at(0, 0),
            n.cfg.mesh.at(1, 1),
            VirtualChannel::Migration,
            64,
        );
        assert!(!n.is_idle());
        n.run_until_idle(1000).unwrap();
        assert!(n.is_idle());
    }
}
