//! Static cluster configuration: which node owns which shards, and
//! where to reach it.
//!
//! A cluster is a fixed list of nodes, each owning one **contiguous**
//! range of the global shard space (contiguity keeps the routing table
//! a single subtraction on the runtime's hot send path). Every process
//! is launched with the same spec — usually the same
//! [`ClusterSpec::parse`] string — and the connect handshake compares
//! [`ClusterSpec::digest`]s so two processes with divergent topologies
//! refuse to form a cluster instead of silently misrouting.

use crate::transport::{LoopbackTransport, TcpTransport, Transport};
use em2_model::hash::{fnv1a, FNV1A_INIT};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which transport a cluster runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channel pairs (testing, calibration baselines).
    Loopback,
    /// Unix-domain sockets (co-located processes; Unix only).
    #[cfg(unix)]
    Uds,
    /// TCP (crosses hosts).
    Tcp,
}

impl TransportKind {
    /// Instantiate the transport; its [`Transport::kind`] is this
    /// kind's spec-string prefix (`"loopback"`, `"uds"`, `"tcp"`).
    pub fn make(&self) -> Box<dyn Transport> {
        match self {
            TransportKind::Loopback => Box::new(LoopbackTransport),
            #[cfg(unix)]
            TransportKind::Uds => Box::new(crate::transport::UdsTransport),
            TransportKind::Tcp => Box::new(TcpTransport),
        }
    }
}

/// Failure-detection knobs for a cluster run. All tunable from the
/// launch string ([`ClusterSpec::parse`]); none participate in the
/// topology digest, so nodes may differ in tuning without refusing
/// each other (the protocol tolerates asymmetric deadlines — a node
/// that gives up first aborts the others).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterTimeouts {
    /// Per-peer dial + handshake budget in milliseconds
    /// (`connect_timeout_ms=`). Dial retries back off exponentially
    /// with jitter inside this budget.
    pub connect_ms: u64,
    /// Run deadline in milliseconds (`timeout_ms=`): the longest
    /// `finish()` waits for cluster quiesce before returning a
    /// [`crate::ClusterError::BarrierTimeout`] /
    /// [`crate::ClusterError::QuiesceTimeout`]. `0` waits forever
    /// (the fault-free default — big workloads set their own budget).
    pub run_ms: u64,
    /// Heartbeat interval in milliseconds (`heartbeat_ms=`): each
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
    /// Epoch the ownership directory starts at (`initial_epoch=`,
    /// default 0). Part of the topology digest: every member must
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
    pub fn loopback(nodes: usize, shards: usize) -> Self {
        let base = format!("em2-loopback-{}-{}", std::process::id(), unique_stamp());
        ClusterSpec::even(TransportKind::Loopback, &base, nodes, shards)
    }

    /// Parse a launch string: `"<kind>:<base>,nodes=<N>,shards=<S>"`,
    /// e.g. `uds:/tmp/em2-kv.sock,nodes=2,shards=16` or
    /// `tcp:127.0.0.1:7600,nodes=2,shards=16`. Optional failure-
    /// detection keys: `timeout_ms=<run deadline>`,
    /// `connect_timeout_ms=<dial budget>`, `heartbeat_ms=<interval>`
    /// (see [`ClusterTimeouts`]). Produces the same even split as
    /// [`ClusterSpec::even`], so every process parsing the same
    /// string builds the same topology (digest-checked at connect).
    pub fn parse(s: &str) -> Result<ClusterSpec, String> {
        let mut parts = s.split(',');
        let head = parts.next().unwrap_or_default();
        let (kind_s, base) = head
            .split_once(':')
            .ok_or_else(|| format!("expected <kind>:<base>, got {head:?}"))?;
        let kind = match kind_s {
            "loopback" => TransportKind::Loopback,
            #[cfg(unix)]
            "uds" => TransportKind::Uds,
            "tcp" => TransportKind::Tcp,
            other => return Err(format!("unknown transport {other:?} (loopback|uds|tcp)")),
        };
        let (mut nodes, mut shards) = (None, None);
        let mut timeouts = ClusterTimeouts::default();
        let mut initial_epoch = 0u64;
        let mut seen: Vec<&str> = Vec::new();
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {p:?}"))?;
            if seen.contains(&k) {
                // A repeated key is almost always a mangled launch
                // string; silently letting the last one win would hide
                // the half that was dropped.
                return Err(format!("duplicate key {k:?} in cluster spec"));
            }
            seen.push(k);
            let n: usize = v.parse().map_err(|_| format!("bad number in {p:?}"))?;
            match k {
                "nodes" => nodes = Some(n),
                "shards" => shards = Some(n),
                "timeout_ms" => timeouts.run_ms = n as u64,
                "connect_timeout_ms" => timeouts.connect_ms = n as u64,
                "heartbeat_ms" => timeouts.heartbeat_ms = n as u64,
                "initial_epoch" => initial_epoch = n as u64,
                other => {
                    return Err(format!(
                        "unknown key {other:?} \
                         (nodes|shards|timeout_ms|connect_timeout_ms|heartbeat_ms|initial_epoch)"
                    ))
                }
            }
        }
        let nodes = nodes.ok_or("missing nodes=<N>")?;
        let shards = shards.ok_or("missing shards=<S>")?;
        if nodes == 0 || shards < nodes {
            return Err(format!(
                "need 1 <= nodes <= shards, got nodes={nodes}, shards={shards}"
            ));
        }
        if kind == TransportKind::Tcp {
            let Some((_, port)) = base.host_port() else {
                return Err(format!("tcp base must be host:port, got {base:?}"));
            };
            // Node i listens on base-port + i; the whole range must fit.
            if port as usize + (nodes - 1) > u16::MAX as usize {
                return Err(format!(
                    "tcp port range {port}..{port}+{nodes} exceeds 65535"
                ));
            }
        }
        Ok(ClusterSpec::even(kind, base, nodes, shards)
            .with_timeouts(timeouts)
            .with_initial_epoch(initial_epoch))
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
    fn parse_round_trips_the_even_layout() {
        let spec = ClusterSpec::parse("uds:/tmp/em2.sock,nodes=2,shards=16").expect("parse");
        assert_eq!(
            spec,
            ClusterSpec::even(TransportKind::Uds, "/tmp/em2.sock", 2, 16)
        );
        let tcp = ClusterSpec::parse("tcp:127.0.0.1:7600,nodes=2,shards=8").expect("parse");
        assert_eq!(tcp.nodes[1].addr, "127.0.0.1:7601");
        assert!(ClusterSpec::parse("udp:/x,nodes=2,shards=4").is_err());
        assert!(ClusterSpec::parse("uds:/x,nodes=0,shards=4").is_err());
        assert!(ClusterSpec::parse("uds:/x,nodes=9,shards=4").is_err());
        assert!(ClusterSpec::parse("tcp:nopport,nodes=2,shards=4").is_err());
        assert!(
            ClusterSpec::parse("tcp:127.0.0.1:65535,nodes=2,shards=4").is_err(),
            "port range overflowing u16 is a parse error, not a wrap"
        );
        assert!(ClusterSpec::parse("tcp:127.0.0.1:65535,nodes=1,shards=4").is_ok());
        assert!(ClusterSpec::parse("uds:/x,bogus=1,shards=4").is_err());
    }

    #[test]
    fn timeout_keys_parse_and_stay_out_of_the_digest() {
        let tuned = ClusterSpec::parse(
            "uds:/tmp/em2.sock,nodes=2,shards=16,timeout_ms=1500,\
             connect_timeout_ms=250,heartbeat_ms=40",
        )
        .expect("parse");
        assert_eq!(tuned.timeouts.run_ms, 1500);
        assert_eq!(tuned.timeouts.connect_ms, 250);
        assert_eq!(tuned.timeouts.heartbeat_ms, 40);
        assert_eq!(tuned.timeouts.peer_deadline_ms(), 160);
        let plain = ClusterSpec::parse("uds:/tmp/em2.sock,nodes=2,shards=16").expect("parse");
        assert_eq!(plain.timeouts, ClusterTimeouts::default());
        // Deadline tuning must not change cluster identity: a tuned
        // node still handshakes with an untuned one.
        assert_eq!(tuned.digest(), plain.digest());
        assert_ne!(tuned, plain, "timeouts do participate in Eq");
    }

    #[test]
    fn duplicate_keys_are_rejected_by_name() {
        for s in [
            "uds:/x,nodes=2,nodes=3,shards=4",
            "uds:/x,nodes=2,shards=4,shards=8",
            "uds:/x,nodes=2,shards=4,timeout_ms=5,timeout_ms=9",
        ] {
            let err = ClusterSpec::parse(s).expect_err("duplicate must be rejected");
            let key = s
                .split(',')
                .skip(1)
                .map(|p| p.split_once('=').unwrap().0)
                .fold(std::collections::HashMap::new(), |mut m, k| {
                    *m.entry(k).or_insert(0) += 1;
                    m
                })
                .into_iter()
                .find(|&(_, c)| c > 1)
                .unwrap()
                .0;
            assert!(
                err.contains("duplicate") && err.contains(key),
                "error {err:?} must name the duplicated key {key:?}"
            );
        }
    }

    #[test]
    fn initial_epoch_parses_and_changes_the_digest() {
        let v1 = ClusterSpec::parse("uds:/x,nodes=2,shards=8,initial_epoch=7").expect("parse");
        assert_eq!(v1.initial_epoch, 7);
        let v0 = ClusterSpec::parse("uds:/x,nodes=2,shards=8").expect("parse");
        assert_eq!(v0.initial_epoch, 0);
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
