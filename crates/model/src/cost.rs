//! The closed-form network cost model.
//!
//! Both the event-driven simulator (its default, Graphite-style timing
//! mode) and the paper's §3 dynamic program price network operations
//! with the *same* closed form, so the DP's "optimal" is a genuine
//! lower bound on what any decision scheme can achieve in simulation:
//!
//! * **migration** of a `b`-bit execution context from `src` to `dst`:
//!   `hops·hop_latency + ⌈(b + header)/link_width⌉ + migration_fixed`
//!   — one-way; the thread rides along with its context (paper §2:
//!   "a one-way migration protocol");
//! * **remote access** from `src` to the home core and back:
//!   `2·hops·hop_latency + ⌈(req+header)/w⌉ + ⌈(resp+header)/w⌉ + ra_fixed`
//!   — a round trip carrying one word of data at most (paper §3);
//! * **local costs** (L1/L2 hit, DRAM) are used by the simulator but
//!   deliberately *ignored* by the DP, exactly as the paper's
//!   simplified model prescribes ("ignores local memory access delays,
//!   since the migration-vs-RA decision mainly affects network
//!   delays").

use crate::ceil_div;
use crate::ids::{AccessKind, CoreId};
use crate::mesh::Mesh;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Architectural register-file shape, used to derive the default
/// migrated context size.
///
/// The paper quotes 1–2 Kbits for a 32-bit Atom-like core: a 32-entry
/// 32-bit register file plus PC and a little control state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContextSpec {
    /// Number of general-purpose registers.
    pub registers: u32,
    /// Width of each register in bits.
    pub register_bits: u32,
    /// Program-counter width in bits.
    pub pc_bits: u32,
    /// Additional architectural state (status flags, TLB tags, ...).
    pub extra_bits: u32,
}

impl ContextSpec {
    /// A 32-bit Atom-like core: 32 × 32-bit registers + 32-bit PC +
    /// 64 bits of control state = 1120 bits, inside the paper's
    /// 1–2 Kbit range.
    pub const ATOM32: ContextSpec = ContextSpec {
        registers: 32,
        register_bits: 32,
        pc_bits: 32,
        extra_bits: 64,
    };

    /// Total context size in bits.
    #[inline]
    pub const fn bits(&self) -> u64 {
        self.registers as u64 * self.register_bits as u64
            + self.pc_bits as u64
            + self.extra_bits as u64
    }
}

/// The parameters a [`CostModel`] is built from. A built model derefs
/// to them, read-only: its pair table was priced from them, so none
/// can be assigned after [`CostModelBuilder::build`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Mesh geometry (gives hop counts).
    pub mesh: Mesh,
    /// Per-hop router+link traversal latency, cycles.
    pub hop_latency: u64,
    /// Link width in bits per cycle (flit width).
    pub link_width_bits: u64,
    /// Per-packet header overhead in bits (route, type, thread id).
    pub header_bits: u64,
    /// Fixed cost of a migration: pipeline drain at the source plus
    /// context load at the destination.
    pub migration_fixed: u64,
    /// Fixed cost of a remote access (issue + commit at both ends).
    pub ra_fixed: u64,
    /// Payload bits of a remote-access request (address + opcode
    /// [+ store data for writes]).
    pub ra_req_bits: u64,
    /// Extra payload bits a write request carries (the store data).
    pub ra_write_data_bits: u64,
    /// Payload bits of a remote read response (the loaded word).
    pub ra_resp_read_bits: u64,
    /// Payload bits of a remote write acknowledgement.
    pub ra_resp_ack_bits: u64,
    /// Default migrated context size in bits (register-machine EM²).
    pub context_bits: u64,
    /// L1 data-cache hit latency.
    pub l1_hit_latency: u64,
    /// L2 data-cache hit latency (after an L1 miss).
    pub l2_hit_latency: u64,
    /// Off-chip DRAM access latency (after an L2 miss).
    pub dram_latency: u64,
}

/// One ordered core pair `(src, home)`, priced in the model's fixed
/// context: an entry of [`CostModel::row`], all zero when `src == home`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCost {
    /// Manhattan hop count between the two cores.
    pub hops: u32,
    /// [`CostModel::migration_latency`] from `src` to `home`.
    pub migration: u32,
    /// [`CostModel::remote_access_latency`], indexed by
    /// [`AccessKind::is_write`].
    pub remote: [u32; 2],
}

/// The network + memory cost model shared by every component in the
/// workspace. All latencies are in core clock cycles.
///
/// [`CostModelBuilder::build`] prices every ordered core pair once,
/// into one `P × P` table its clones share; the fixed-context
/// latencies read it, and the parameters cannot change under it:
///
/// ```compile_fail
/// let mut cm = em2_model::CostModel::default();
/// cm.hop_latency = 3;
/// ```
#[derive(Clone, PartialEq)]
pub struct CostModel {
    params: CostParams,
    /// Entry `home·P + src`: rows by home, the DP's access order.
    pairs: Arc<[PairCost]>,
}

impl Deref for CostModel {
    type Target = CostParams;

    #[inline]
    fn deref(&self) -> &CostParams {
        &self.params
    }
}

impl fmt::Debug for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CostModel").field(&self.params).finish()
    }
}

impl Default for CostModel {
    /// 64-core 8×8 mesh with the paper's Figure-2 configuration flavor.
    fn default() -> Self {
        CostModelBuilder::new().build()
    }
}

impl CostModel {
    /// Builder with defaults matching the paper's 64-core setup.
    pub fn builder() -> CostModelBuilder {
        CostModelBuilder::new()
    }

    /// Number of cores in the modeled machine.
    #[inline]
    pub fn cores(&self) -> usize {
        self.mesh.cores()
    }

    /// The prices of every core pair into `home`, indexed by source.
    #[inline]
    pub fn row(&self, home: CoreId) -> &[PairCost] {
        let p = self.cores();
        &self.pairs[home.index() * p..][..p]
    }

    /// Manhattan hop count between two cores.
    #[inline]
    pub fn hops(&self, a: CoreId, b: CoreId) -> u64 {
        self.row(b)[a.index()].hops.into()
    }

    /// Number of flits needed to carry `payload_bits` (+ header).
    #[inline]
    pub fn flits(&self, payload_bits: u64) -> u64 {
        ceil_div(payload_bits + self.header_bits, self.link_width_bits).max(1)
    }

    /// One-way latency of a packet with `payload_bits` from `src` to
    /// `dst`: per-hop routing plus serialization of the whole packet.
    ///
    /// Serialization is paid once (wormhole pipelining): the tail flit
    /// arrives `flits - 1` cycles after the head.
    #[inline]
    pub fn one_way(&self, src: CoreId, dst: CoreId, payload_bits: u64) -> u64 {
        self.hops(src, dst) * self.hop_latency + (self.flits(payload_bits) - 1)
    }

    /// Latency of migrating a context of `context_bits` from `src` to
    /// `dst` (paper §2). Zero if `src == dst` (no migration happens).
    #[inline]
    pub fn migration_latency_bits(&self, src: CoreId, dst: CoreId, context_bits: u64) -> u64 {
        if src == dst {
            return 0;
        }
        self.one_way(src, dst, context_bits) + self.migration_fixed
    }

    /// Migration latency using the model's default context size.
    #[inline]
    pub fn migration_latency(&self, src: CoreId, dst: CoreId) -> u64 {
        self.row(dst)[src.index()].migration.into()
    }

    /// `(request, response)` message sizes of a remote access: a write
    /// carries its data out and gets an ack back, a read gets the word.
    #[inline]
    pub fn ra_bits(&self, kind: AccessKind) -> (u64, u64) {
        match kind {
            AccessKind::Read => (self.ra_req_bits, self.ra_resp_read_bits),
            AccessKind::Write => (
                self.ra_req_bits + self.ra_write_data_bits,
                self.ra_resp_ack_bits,
            ),
        }
    }

    /// Round-trip latency of a remote cache access from `src` to the
    /// line's `home` core (paper §3, Figure 3). Zero if already home.
    #[inline]
    pub fn remote_access_latency(&self, src: CoreId, home: CoreId, kind: AccessKind) -> u64 {
        self.row(home)[src.index()].remote[usize::from(kind.is_write())].into()
    }

    /// Network traffic of a migration, in flit-hops (an energy proxy:
    /// each flit traversing each link costs roughly constant energy).
    #[inline]
    pub fn migration_traffic_bits(&self, src: CoreId, dst: CoreId, context_bits: u64) -> u64 {
        self.hops(src, dst) * self.flits(context_bits)
    }
}

/// Fluent builder for [`CostModel`].
///
/// ```
/// use em2_model::CostModel;
///
/// let cm = CostModel::builder()
///     .cores(64)
///     .hop_latency(2)
///     .link_width_bits(128)
///     .build();
/// assert_eq!(cm.cores(), 64);
/// ```
#[derive(Clone, Debug)]
pub struct CostModelBuilder(CostParams);

impl Default for CostModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CostModelBuilder {
    /// Start from the paper-flavored 64-core defaults.
    pub fn new() -> Self {
        CostModelBuilder(CostParams {
            mesh: Mesh::new(8, 8),
            hop_latency: 2,
            link_width_bits: 128,
            header_bits: 32,
            migration_fixed: 8,
            ra_fixed: 2,
            ra_req_bits: 64 + 8,    // address + opcode
            ra_write_data_bits: 32, // one 32-bit word
            ra_resp_read_bits: 32,  // one 32-bit word
            ra_resp_ack_bits: 8,
            context_bits: ContextSpec::ATOM32.bits(),
            l1_hit_latency: 2,
            l2_hit_latency: 8,
            dram_latency: 100,
        })
    }

    /// Set the mesh explicitly.
    pub fn mesh(mut self, mesh: Mesh) -> Self {
        self.0.mesh = mesh;
        self
    }

    /// Set the core count; uses the smallest near-square mesh.
    pub fn cores(self, cores: usize) -> Self {
        self.mesh(Mesh::square_for(cores))
    }

    /// Per-hop latency in cycles.
    pub fn hop_latency(mut self, v: u64) -> Self {
        self.0.hop_latency = v;
        self
    }

    /// Link (flit) width in bits.
    pub fn link_width_bits(mut self, v: u64) -> Self {
        assert!(v > 0, "link width must be positive");
        self.0.link_width_bits = v;
        self
    }

    /// Migrated context size in bits (register-machine EM²).
    pub fn context_bits(mut self, v: u64) -> Self {
        assert!(v > 0, "context must carry at least the PC");
        self.0.context_bits = v;
        self
    }

    /// Finalize the model: price every ordered core pair of the mesh.
    pub fn build(self) -> CostModel {
        let mut cm = CostModel {
            params: self.0,
            pairs: Arc::new([]),
        };
        let price = |src: CoreId, home: CoreId| {
            let hops = cm.mesh.hops(src, home);
            let leg = |bits| hops * cm.hop_latency + cm.flits(bits) - 1;
            let ra = |(req, resp)| leg(req) + leg(resp) + cm.ra_fixed;
            let fit = |v| u32::try_from(v).expect("a pair latency fits in u32 cycles");
            let lat = |v| if src == home { 0 } else { fit(v) };
            PairCost {
                hops: hops as u32,
                migration: lat(leg(cm.context_bits) + cm.migration_fixed),
                remote: [AccessKind::Read, AccessKind::Write].map(|k| lat(ra(cm.ra_bits(k)))),
            }
        };
        let p = cm.cores();
        let pairs = (0..p * p).map(|i| price(CoreId::from(i % p), CoreId::from(i / p)));
        cm.pairs = pairs.collect();
        cm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn atom32_context_is_in_papers_range() {
        let bits = ContextSpec::ATOM32.bits();
        assert!((1024..=2048).contains(&bits), "context = {bits} bits");
    }

    #[test]
    fn default_is_64_cores() {
        assert_eq!(cm().cores(), 64);
    }

    #[test]
    fn local_operations_are_free() {
        let m = cm();
        let c = CoreId(5);
        assert_eq!(m.migration_latency(c, c), 0);
        assert_eq!(m.remote_access_latency(c, c, AccessKind::Read), 0);
        assert_eq!(m.migration_traffic_bits(c, c, 1000), 0);
    }

    #[test]
    fn migration_cost_grows_with_distance_and_size() {
        let m = cm();
        let a = m.mesh.at(0, 0);
        let near = m.mesh.at(1, 0);
        let far = m.mesh.at(7, 7);
        assert!(m.migration_latency(a, near) < m.migration_latency(a, far));
        assert!(
            m.migration_latency_bits(a, far, 256) < m.migration_latency_bits(a, far, 4096),
            "bigger contexts must cost more"
        );
    }

    #[test]
    fn migration_latency_formula() {
        let m = cm();
        let a = m.mesh.at(0, 0);
        let b = m.mesh.at(3, 2); // 5 hops
        let bits = m.context_bits;
        let flits = crate::ceil_div(bits + m.header_bits, m.link_width_bits);
        assert_eq!(
            m.migration_latency(a, b),
            5 * m.hop_latency + (flits - 1) + m.migration_fixed
        );
    }

    #[test]
    fn ra_round_trip_vs_one_way_migration() {
        // For a single access at distance d, RA pays 2d small packets,
        // migration pays d but with a big packet. With the default
        // 1120-bit context and 128-bit links, migration serialization
        // is 9 flits; at distance 1 RA should be cheaper than
        // migrating there and back (2 migrations), which is the
        // Figure-2 motivation.
        let m = cm();
        let a = m.mesh.at(0, 0);
        let b = m.mesh.at(1, 0);
        let ra = m.remote_access_latency(a, b, AccessKind::Read);
        let two_migrations = 2 * m.migration_latency(a, b);
        assert!(
            ra < two_migrations,
            "RA ({ra}) should beat migrate-and-bounce ({two_migrations})"
        );
    }

    #[test]
    fn write_and_read_ra_differ_by_payload() {
        let m = cm();
        let a = m.mesh.at(0, 0);
        let b = m.mesh.at(4, 4);
        // Both fit in one flit each way with the default widths, so
        // latency is equal; traffic may differ only via flit counts.
        let r = m.remote_access_latency(a, b, AccessKind::Read);
        let w = m.remote_access_latency(a, b, AccessKind::Write);
        assert!(r > 0 && w > 0);
    }

    #[test]
    fn traffic_scales_with_hops() {
        let m = cm();
        let a = m.mesh.at(0, 0);
        let b = m.mesh.at(0, 1);
        let c = m.mesh.at(0, 7);
        let t_near = m.migration_traffic_bits(a, b, m.context_bits);
        let t_far = m.migration_traffic_bits(a, c, m.context_bits);
        assert_eq!(t_far, 7 * t_near);
    }

    #[test]
    fn flits_at_least_one() {
        let m = cm();
        assert_eq!(m.flits(0), 1);
        assert!(m.flits(10_000) > 1);
    }

    #[test]
    fn builder_round_trip() {
        let m = CostModel::builder()
            .cores(16)
            .hop_latency(3)
            .context_bits(2048)
            .build();
        let back = m.clone();
        assert_eq!(m, back);
        assert_eq!(back.hop_latency, 3);
        assert_eq!(back.context_bits, 2048);
        assert_eq!(back.cores(), 16);
    }
}
