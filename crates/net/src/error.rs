//! The typed failure taxonomy for cluster runs.
//!
//! Every way a distributed run can go wrong maps to exactly one
//! [`ClusterError`] variant, and every path that used to panic or hang
//! (send failures, lost peers, stalled barriers, a quiesce that never
//! comes) now records one of these into the node's failure slot and
//! returns it from [`crate::NodeRuntime::finish`]. The taxonomy is the
//! contract the chaos harness (`crates/net/tests/chaos.rs`) checks:
//! *under any injected fault plan, every node either completes
//! bit-equal to the single-process run or returns one of these within
//! its configured deadline — never a hang, never a silently wrong
//! sum* (DESIGN.md §10).

use std::fmt;
use std::io;

/// Why a cluster run failed. Carried through the per-node failure slot
/// and returned by [`crate::NodeRuntime::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The connect/accept handshake failed: version or topology
    /// mismatch, an unexpected message, a refused accept, or a peer
    /// that went silent before completing the exchange.
    Handshake {
        /// What went wrong.
        detail: String,
    },
    /// A peer delivered bytes that do not decode as the next expected
    /// frame: corrupt or truncated payload, a bad checksum, or a
    /// sequence gap proving at least one frame was lost.
    Codec {
        /// The peer the bytes came from.
        from: usize,
        /// Decoder diagnostic.
        detail: String,
    },
    /// A peer connection died mid-run: a send or receive failed, or
    /// the connection closed without the protocol's goodbye, or the
    /// peer stopped sending for longer than the heartbeat deadline.
    PeerLost {
        /// The lost peer.
        node: usize,
        /// How the loss was detected.
        detail: String,
    },
    /// The run deadline expired with tasks still parked at a barrier —
    /// some node's arrival (or the coordinator's release) never made
    /// it across.
    BarrierTimeout {
        /// Milliseconds waited before giving up.
        waited_ms: u64,
        /// Local backlog at expiry.
        detail: String,
    },
    /// The run deadline expired before the coordinator's quiesce
    /// decision reached this node — completion accounting stalled
    /// (a lost `Retired`/`Closed`, or a dead coordinator).
    QuiesceTimeout {
        /// Milliseconds waited before giving up.
        waited_ms: u64,
        /// Local backlog at expiry.
        detail: String,
    },
    /// Dialing a peer did not produce a connection within the connect
    /// budget (`connect_timeout_ms`).
    ConnectTimeout {
        /// The address dialed.
        addr: String,
        /// Milliseconds spent retrying.
        waited_ms: u64,
        /// The last connect error.
        detail: String,
    },
    /// Another node failed first and broadcast `Abort{reason}`; this
    /// node shut down in sympathy.
    Aborted {
        /// The node that reported the failure.
        from: usize,
        /// Its rendered [`ClusterError`].
        reason: String,
    },
    /// A peer violated the control protocol: misrouted a shard
    /// message, re-sent a handshake mid-run, or sent a
    /// coordinator-only message to a non-coordinator.
    Protocol {
        /// The offending peer.
        from: usize,
        /// What it did.
        detail: String,
    },
    /// The launch configuration is invalid (bad spec, shard-count
    /// mismatch, node id out of range).
    Config {
        /// What is wrong with it.
        detail: String,
    },
    /// A live shard handoff could not complete: the coordinator's
    /// handoff deadline expired with a handoff stuck in one phase, a frozen
    /// shard's state failed to decode on the receiving node, or a
    /// fenced frame exhausted its bounce budget while ownership moved.
    Handoff {
        /// The phase the handoff was in (`prepare`, `freeze`,
        /// `transfer`, `commit`, or `bounce` for fencing failures).
        phase: String,
        /// What went wrong.
        detail: String,
    },
    /// An I/O error outside the categories above (listen failures,
    /// summary-file plumbing).
    Io {
        /// The rendered [`io::Error`].
        detail: String,
    },
}

impl ClusterError {
    /// Stable short name of the variant — the key the `fault_matrix`
    /// bench experiment and CI logs group detection latencies by.
    pub fn kind(&self) -> &'static str {
        match self {
            ClusterError::Handshake { .. } => "handshake",
            ClusterError::Codec { .. } => "codec",
            ClusterError::PeerLost { .. } => "peer-lost",
            ClusterError::BarrierTimeout { .. } => "barrier-timeout",
            ClusterError::QuiesceTimeout { .. } => "quiesce-timeout",
            ClusterError::ConnectTimeout { .. } => "connect-timeout",
            ClusterError::Aborted { .. } => "aborted",
            ClusterError::Protocol { .. } => "protocol",
            ClusterError::Config { .. } => "config",
            ClusterError::Handoff { .. } => "handoff",
            ClusterError::Io { .. } => "io",
        }
    }

    /// Append a note to the variant's free-text detail — used by the
    /// control plane to stamp errors observed while a handoff was
    /// active with the handoff's phase, so a post-mortem names where
    /// the transfer died.
    pub fn annotate(mut self, note: &str) -> Self {
        let detail = match &mut self {
            ClusterError::Handshake { detail }
            | ClusterError::Codec { detail, .. }
            | ClusterError::PeerLost { detail, .. }
            | ClusterError::BarrierTimeout { detail, .. }
            | ClusterError::QuiesceTimeout { detail, .. }
            | ClusterError::ConnectTimeout { detail, .. }
            | ClusterError::Protocol { detail, .. }
            | ClusterError::Config { detail }
            | ClusterError::Handoff { detail, .. }
            | ClusterError::Io { detail } => detail,
            ClusterError::Aborted { reason, .. } => reason,
        };
        if detail.is_empty() {
            *detail = note.to_string();
        } else {
            detail.push_str("; ");
            detail.push_str(note);
        }
        self
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            ClusterError::Codec { from, detail } => {
                write!(f, "bad frame from node {from}: {detail}")
            }
            ClusterError::PeerLost { node, detail } => {
                write!(f, "lost peer node {node}: {detail}")
            }
            ClusterError::BarrierTimeout { waited_ms, detail } => {
                write!(f, "barrier stalled for {waited_ms} ms: {detail}")
            }
            ClusterError::QuiesceTimeout { waited_ms, detail } => {
                write!(f, "cluster did not quiesce within {waited_ms} ms: {detail}")
            }
            ClusterError::ConnectTimeout {
                addr,
                waited_ms,
                detail,
            } => write!(
                f,
                "connect to {addr:?} timed out after {waited_ms} ms: {detail}"
            ),
            ClusterError::Aborted { from, reason } => {
                write!(f, "aborted by node {from}: {reason}")
            }
            ClusterError::Protocol { from, detail } => {
                write!(f, "protocol violation by node {from}: {detail}")
            }
            ClusterError::Config { detail } => write!(f, "invalid cluster config: {detail}"),
            ClusterError::Handoff { phase, detail } => {
                write!(f, "shard handoff failed in {phase}: {detail}")
            }
            ClusterError::Io { detail } => write!(f, "cluster i/o error: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let all = [
            ClusterError::Handshake { detail: "x".into() },
            ClusterError::Codec {
                from: 1,
                detail: "x".into(),
            },
            ClusterError::PeerLost {
                node: 1,
                detail: "x".into(),
            },
            ClusterError::BarrierTimeout {
                waited_ms: 1,
                detail: "x".into(),
            },
            ClusterError::QuiesceTimeout {
                waited_ms: 1,
                detail: "x".into(),
            },
            ClusterError::ConnectTimeout {
                addr: "a".into(),
                waited_ms: 1,
                detail: "x".into(),
            },
            ClusterError::Aborted {
                from: 1,
                reason: "x".into(),
            },
            ClusterError::Protocol {
                from: 1,
                detail: "x".into(),
            },
            ClusterError::Config { detail: "x".into() },
            ClusterError::Handoff {
                phase: "transfer".into(),
                detail: "x".into(),
            },
            ClusterError::Io { detail: "x".into() },
        ];
        let kinds: std::collections::HashSet<_> = all.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), all.len(), "every variant has a unique kind");
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn annotate_appends_the_handoff_phase() {
        let e = ClusterError::PeerLost {
            node: 1,
            detail: "read failed".into(),
        }
        .annotate("during shard handoff (transfer)");
        assert_eq!(e.kind(), "peer-lost", "annotation keeps the kind");
        assert!(e
            .to_string()
            .contains("read failed; during shard handoff (transfer)"));
        let empty = ClusterError::Handshake {
            detail: String::new(),
        }
        .annotate("note");
        assert!(empty.to_string().ends_with("note"));
    }
}
