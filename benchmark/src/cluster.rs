//! One round of a 2-node × 8-shard cluster inside this process, over
//! real Unix-domain sockets: each node's `NodeRuntime` is brought up
//! and finished on its own driver thread, as two processes would.

use crate::spans::{SpanId, Tracer};
use crate::stamped::now_ns;
use em2_core::decision::DecisionScheme;
use em2_net::{ClusterSpec, ClusterTimeouts, NetReport, NodeRuntime, TransportKind};
use em2_placement::Placement;
use em2_rt::{RtConfig, TaskRegistry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Nodes in the cluster.
pub const NODES: usize = 2;
/// Cluster-wide shard count (8 per node).
pub const SHARDS: usize = 16;

/// A directory for one round's socket files, removed when dropped —
/// also when the round fails or panics.
///
/// It lives under the benchmark's own `out/` directory, addressed
/// relative to the working directory: a benchmark run may write only
/// inside its checkout, and a relative path keeps `sun_path` short
/// wherever the checkout is.
pub struct SockDir(PathBuf);

impl SockDir {
    /// A fresh directory, unique within this process and across
    /// concurrent benchmark processes.
    pub fn create() -> std::io::Result<SockDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = crate::out_dir().join(format!("uds-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(SockDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }

    fn base(&self) -> String {
        self.0.join("s").display().to_string()
    }
}

impl Drop for SockDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every node of the cluster is configured with.
pub struct ClusterSetup {
    /// Runtime configuration (cluster-wide shard count, 1 worker).
    pub cfg: RtConfig,
    /// Address → home shard.
    pub placement: Arc<dyn Placement>,
    /// Decision scheme of every task.
    pub scheme: fn() -> Box<dyn DecisionScheme>,
    /// Arrivals that open each global barrier.
    pub quotas: Vec<usize>,
    /// Builds one node's task registry.
    pub registry: Box<dyn Fn() -> TaskRegistry + Sync>,
}

/// What one cluster round produced.
pub struct ClusterOutcome {
    /// Per-node reports, in node order.
    pub reports: Vec<NetReport>,
    /// Slowest node's `NodeRuntime::start`, seconds.
    pub bringup_s: f64,
    /// Clock reading when the last node's `finish()` returned.
    pub finished_ns: u64,
}

/// Bring the cluster up, run `body(node, runtime)` on each node's
/// driver thread once **both** nodes are up, and finish both.
///
/// Every failure — a `ClusterError` from bring-up or `finish()`, or a
/// panic in a task or in `body` — comes back as `Err`; nothing hangs
/// (bring-up and quiesce are deadline-bounded by the spec's timeouts).
pub fn run_cluster(
    setup: &ClusterSetup,
    tracer: &Tracer,
    parent: Option<SpanId>,
    round: usize,
    body: impl Fn(usize, &mut NodeRuntime) + Sync,
) -> Result<ClusterOutcome, String> {
    let sock = SockDir::create().map_err(|e| format!("socket directory: {e}"))?;
    let spec = ClusterSpec::even(TransportKind::Uds, &sock.base(), NODES, SHARDS).with_timeouts(
        ClusterTimeouts {
            connect_ms: 10_000,
            run_ms: 60_000,
            heartbeat_ms: 0,
        },
    );
    let up = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let node_results: Vec<Result<(NetReport, f64, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NODES)
            .map(|node| {
                let (spec, up, failed, body) = (spec.clone(), &up, &failed, &body);
                s.spawn(move || {
                    let (started, bringup_s) = tracer.time("net.bringup", parent, round, || {
                        NodeRuntime::start(
                            spec,
                            node,
                            setup.cfg.clone(),
                            "benchmark",
                            Arc::clone(&setup.placement),
                            (setup.registry)(),
                            setup.scheme,
                            setup.quotas.clone(),
                        )
                    });
                    let mut nrt = started.map_err(|e| {
                        failed.store(true, Ordering::SeqCst);
                        format!("node {node} bring-up: {e}")
                    })?;
                    up.fetch_add(1, Ordering::SeqCst);
                    while up.load(Ordering::SeqCst) < NODES && !failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    if !failed.load(Ordering::SeqCst) {
                        body(node, &mut nrt);
                    }
                    let (finished, _) = tracer.time("net.finish", parent, round, || nrt.finish());
                    let report = finished.map_err(|e| format!("node {node}: {e}"))?;
                    Ok((report, bringup_s, now_ns()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a node driver thread panicked".to_string()))
            })
            .collect()
    });
    let mut out = ClusterOutcome {
        reports: Vec::with_capacity(NODES),
        bringup_s: 0.0,
        finished_ns: 0,
    };
    for r in node_results {
        let (report, bringup_s, finished_ns) = r?;
        out.reports.push(report);
        out.bringup_s = out.bringup_s.max(bringup_s);
        out.finished_ns = out.finished_ns.max(finished_ns);
    }
    Ok(out)
}
