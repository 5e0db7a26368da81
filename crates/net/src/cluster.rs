//! Static cluster configuration: which node owns which shards, and
//! where to reach it.
//!
//! A cluster is a fixed list of nodes, each owning one **contiguous**
//! range of the global shard space (contiguity keeps the routing table
//! a single subtraction on the runtime's hot send path). Every process
//! is launched with the same spec — usually the same
//! [`ClusterSpec::even`] split — and the connect handshake compares
//! [`ClusterSpec::digest`]s so two processes with divergent topologies
//! refuse to form a cluster instead of silently misrouting.

use crate::transport::{TcpTransport, Transport};
use em2_model::hash::{fnv1a, FNV1A_INIT};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which transport a cluster runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process socket pairs (testing, calibration baselines; Unix
    /// only).
    #[cfg(unix)]
    Loopback,
    /// Unix-domain sockets (co-located processes; Unix only).
    #[cfg(unix)]
    Uds,
    /// TCP (crosses hosts).
    Tcp,
}

impl TransportKind {
    /// Instantiate the transport; its [`Transport::kind`] names this
    /// kind (`"loopback"`, `"uds"`, `"tcp"`).
    pub fn make(&self) -> Box<dyn Transport> {
        match self {
            #[cfg(unix)]
            TransportKind::Loopback => Box::new(crate::transport::LoopbackTransport),
            #[cfg(unix)]
            TransportKind::Uds => Box::new(crate::transport::UdsTransport),
            TransportKind::Tcp => Box::new(TcpTransport),
        }
    }
}

/// Failure-detection knobs for a cluster run, set with
/// [`ClusterSpec::with_timeouts`]. None participate in the topology
/// digest, so nodes may differ in tuning without refusing each other
/// (the protocol tolerates asymmetric deadlines — a node that gives up
/// first aborts the others).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterTimeouts {
    /// Per-peer dial + handshake budget in milliseconds. Dial retries
    /// back off exponentially with jitter inside this budget.
    pub connect_ms: u64,
    /// Run deadline in milliseconds: the longest
    /// `finish()` waits for cluster quiesce before returning a
    /// [`crate::ClusterError::BarrierTimeout`] /
    /// [`crate::ClusterError::QuiesceTimeout`]. `0` waits forever
    /// (the fault-free default — big workloads set their own budget).
    pub run_ms: u64,
    /// Heartbeat interval in milliseconds: each
    /// node sends an uncounted `Heartbeat` frame on every connection
    /// idle that long, and declares a peer lost after
    /// [`ClusterTimeouts::peer_deadline_ms`] of silence. `0` disables
    /// heartbeats (the default — fault-free telemetry stays exactly
    /// reproducible).
    pub heartbeat_ms: u64,
}

impl ClusterTimeouts {
    /// Silence threshold after which a peer is declared lost:
    /// four missed heartbeat intervals.
    pub fn peer_deadline_ms(&self) -> u64 {
        self.heartbeat_ms.saturating_mul(4)
    }
}

impl Default for ClusterTimeouts {
    fn default() -> Self {
        ClusterTimeouts {
            connect_ms: 30_000,
            run_ms: 0,
            heartbeat_ms: 0,
        }
    }
}

/// One node of the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// Transport address the node listens on.
    pub addr: String,
    /// First global shard id the node owns.
    pub first_shard: usize,
    /// Number of shards the node owns.
    pub shards: usize,
}

/// The whole cluster: transport, shard space, and per-node ownership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Transport every connection uses.
    pub kind: TransportKind,
    /// Cluster-wide shard count.
    pub total_shards: usize,
    /// The nodes, in id order; shard ranges are contiguous and cover
    /// `0..total_shards`. A node may own **zero** shards at launch —
    /// it joins the membership empty and receives shards through live
    /// handoffs ([`crate::NodeRuntime::request_handoff`]).
    pub nodes: Vec<NodeSpec>,
    /// Failure-detection deadlines (not part of the topology digest).
    pub timeouts: ClusterTimeouts,
    /// Epoch the ownership directory starts at (default 0; see
    /// [`ClusterSpec::with_initial_epoch`]). Part of the topology digest: every member must
    /// agree on the starting epoch or the handshake refuses, since
    /// epoch numbers fence in-flight frames during handoffs.
    pub initial_epoch: u64,
}

/// Process-unique counter salting auto-generated endpoint names.
fn unique_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl ClusterSpec {
    /// An even contiguous split of `shards` over `nodes` nodes, with
    /// per-node addresses derived from `base`:
    /// loopback/UDS get `"{base}.{node}"`, TCP (`base` = `host:port`)
    /// gets `host:(port + node)`.
    pub fn even(kind: TransportKind, base: &str, nodes: usize, shards: usize) -> Self {
        assert!(
            nodes > 0 && shards >= nodes,
            "need at least one shard per node"
        );
        let addr_of = |i: usize| -> String {
            match kind {
                TransportKind::Tcp => {
                    let (host, port) = base
                        .host_port()
                        .expect("tcp base address must be host:port");
                    let port = u16::try_from(i)
                        .ok()
                        .and_then(|i| port.checked_add(i))
                        .unwrap_or_else(|| {
                            panic!("tcp port range {port}+{nodes} nodes exceeds 65535")
                        });
                    format!("{host}:{port}")
                }
                _ => format!("{base}.{i}"),
            }
        };
        let nodes_vec = (0..nodes)
            .map(|i| {
                let first = i * shards / nodes;
                let end = (i + 1) * shards / nodes;
                NodeSpec {
                    addr: addr_of(i),
                    first_shard: first,
                    shards: end - first,
                }
            })
            .collect();
        ClusterSpec {
            kind,
            total_shards: shards,
            nodes: nodes_vec,
            timeouts: ClusterTimeouts::default(),
            initial_epoch: 0,
        }
    }

    /// The same spec with different failure-detection deadlines
    /// (builder-style, for tests and chaos harnesses).
    pub fn with_timeouts(mut self, timeouts: ClusterTimeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// The same spec with a different starting epoch (builder-style).
    /// Changes the topology digest — see [`ClusterSpec::initial_epoch`].
    pub fn with_initial_epoch(mut self, epoch: u64) -> Self {
        self.initial_epoch = epoch;
        self
    }

    /// An even loopback cluster under a process-unique auto-generated
    /// endpoint base (safe to create concurrently from many tests).
    #[cfg(unix)]
    pub fn loopback(nodes: usize, shards: usize) -> Self {
        let base = format!("em2-loopback-{}-{}", std::process::id(), unique_stamp());
        ClusterSpec::even(TransportKind::Loopback, &base, nodes, shards)
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node owning a global shard id **at launch** (epoch
    /// `initial_epoch`). Live handoffs re-home shards afterwards;
    /// runtime routing consults the epoch-versioned
    /// `em2_rt::ShardDirectory`, not this table.
    pub fn owner_of(&self, shard: usize) -> usize {
        assert!(shard < self.total_shards, "shard {shard} outside cluster");
        // Contiguous ranges in id order: binary search by first_shard.
        // Zero-shard members are zero-width ranges — never Equal, so
        // the search walks past them to the owning node.
        match self.nodes.binary_search_by(|n| {
            if shard < n.first_shard {
                std::cmp::Ordering::Greater
            } else if shard >= n.first_shard + n.shards {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => unreachable!("validated specs cover every shard"),
        }
    }

    /// `(first_shard, shards)` of a node.
    pub fn span(&self, node: usize) -> (usize, usize) {
        let n = &self.nodes[node];
        (n.first_shard, n.shards)
    }

    /// Check the invariants: at least one node, ranges contiguous in
    /// id order covering exactly `0..total_shards`. A node may own
    /// zero shards (it joins empty and is fed by live handoffs), but
    /// at least one node must own something.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("a cluster needs at least one node".into());
        }
        if self.nodes.iter().all(|n| n.shards == 0) {
            return Err("every node owns zero shards".into());
        }
        let mut at = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.first_shard != at {
                return Err(format!(
                    "node {i} starts at shard {} (expected {at}: ranges must be contiguous)",
                    n.first_shard
                ));
            }
            at += n.shards;
        }
        if at != self.total_shards {
            return Err(format!(
                "nodes cover {at} shards, spec says {}",
                self.total_shards
            ));
        }
        Ok(())
    }

    /// FNV-1a digest over the canonical rendering — what the
    /// handshake compares, so misconfigured processes refuse each
    /// other.
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_INIT;
        let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
        eat(self.kind.make().kind().as_bytes());
        eat(&(self.total_shards as u64).to_le_bytes());
        eat(&self.initial_epoch.to_le_bytes());
        for n in &self.nodes {
            eat(n.addr.as_bytes());
            eat(&(n.first_shard as u64).to_le_bytes());
            eat(&(n.shards as u64).to_le_bytes());
        }
        h
    }
}

/// `rsplit_once(':')` with a `u16` port parse, as an extension so the
/// TCP address plumbing reads declaratively.
trait HostPort {
    fn host_port(&self) -> Option<(&str, u16)>;
}

impl HostPort for str {
    fn host_port(&self) -> Option<(&str, u16)> {
        let (host, port) = self.rsplit_once(':')?;
        port.parse::<u16>().ok().map(|p| (host, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_contiguously() {
        for (nodes, shards) in [(1, 16), (2, 16), (3, 16), (4, 1024), (5, 7)] {
            let spec = ClusterSpec::even(TransportKind::Uds, "/tmp/x", nodes, shards);
            spec.validate().expect("valid");
            assert_eq!(spec.num_nodes(), nodes);
            for s in 0..shards {
                let owner = spec.owner_of(s);
                let (first, count) = spec.span(owner);
                assert!(s >= first && s < first + count);
            }
        }
    }

    #[test]
    fn timeouts_stay_out_of_the_digest() {
        let plain = ClusterSpec::even(TransportKind::Uds, "/tmp/em2.sock", 2, 16);
        assert_eq!(plain.timeouts, ClusterTimeouts::default());
        let tuned = plain.clone().with_timeouts(ClusterTimeouts {
            connect_ms: 250,
            run_ms: 1500,
            heartbeat_ms: 40,
        });
        assert_eq!(tuned.timeouts.peer_deadline_ms(), 160);
        // Deadline tuning must not change cluster identity: a tuned
        // node still handshakes with an untuned one.
        assert_eq!(tuned.digest(), plain.digest());
        assert_ne!(tuned, plain, "timeouts do participate in Eq");
    }

    #[test]
    fn initial_epoch_changes_the_digest() {
        let v0 = ClusterSpec::even(TransportKind::Uds, "/x", 2, 8);
        assert_eq!(v0.initial_epoch, 0);
        let v1 = v0.clone().with_initial_epoch(7);
        assert_eq!(v1.initial_epoch, 7);
        // Epoch numbers fence in-flight frames, so members disagreeing
        // on the starting epoch must refuse each other at handshake.
        assert_ne!(v0.digest(), v1.digest());
    }

    #[test]
    fn zero_shard_members_are_legal_and_routable() {
        // A joining node: in the membership, owns nothing yet.
        let mut spec = ClusterSpec::even(TransportKind::Loopback, "x", 2, 8);
        spec.nodes.push(NodeSpec {
            addr: "x.2".into(),
            first_shard: 8,
            shards: 0,
        });
        spec.validate().expect("zero-shard member is legal");
        for s in 0..8 {
            assert!(spec.owner_of(s) < 2, "empty node never owns a shard");
        }
        // But a cluster where nobody owns anything is still invalid.
        let mut empty = spec.clone();
        for n in &mut empty.nodes {
            n.shards = 0;
        }
        empty.total_shards = 0;
        assert!(empty.validate().is_err());
    }

    #[test]
    fn digest_separates_topologies() {
        let a = ClusterSpec::even(TransportKind::Uds, "/tmp/a", 2, 16);
        let b = ClusterSpec::even(TransportKind::Uds, "/tmp/a", 2, 32);
        let c = ClusterSpec::even(TransportKind::Uds, "/tmp/b", 2, 16);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // The value is wire-visible (`Hello.topology`): two builds that
        // fold a spec differently refuse each other. Pinned from the
        // inline fold that preceded `em2_model::hash::fnv1a`.
        let uds = ClusterSpec::even(TransportKind::Uds, "/tmp/em2.sock", 3, 16);
        assert_eq!(uds.digest(), 0xe8ff_fc20_8418_c500);
        let tcp = ClusterSpec::even(TransportKind::Tcp, "127.0.0.1:7600", 2, 16);
        assert_eq!(tcp.with_initial_epoch(7).digest(), 0x074d_3225_1cfc_c47c);
    }

    #[test]
    fn loopback_specs_are_process_unique() {
        assert_ne!(
            ClusterSpec::loopback(2, 8).nodes[0].addr,
            ClusterSpec::loopback(2, 8).nodes[0].addr
        );
    }

    #[test]
    fn invalid_layouts_are_rejected() {
        let mut spec = ClusterSpec::even(TransportKind::Loopback, "x", 2, 8);
        spec.nodes[1].first_shard = 5;
        assert!(spec.validate().is_err());
        spec.nodes[1].first_shard = 4;
        spec.total_shards = 9;
        assert!(spec.validate().is_err());
    }
}
