//! [`ClusterRun`]: replay one traced workload across a cluster — the
//! single entry point behind E12/E13/E14, the agreement, handoff,
//! chaos and obs suites, and the multi-process children.

use crate::chaos::{ChaosTransport, FaultPlan};
use crate::cluster::ClusterSpec;
use crate::error::ClusterError;
use crate::node::{NetReport, NodeRuntime};
use crate::transport::Transport;
use em2_core::decision::DecisionScheme;
use em2_placement::Placement;
use em2_rt::{RtConfig, TaskRegistry, TaskSpec, TraceTask};
use em2_trace::Workload;
use std::sync::Arc;
use std::time::Duration;

/// One workload on one cluster. Each node submits a
/// [`em2_rt::TraceTask`] per workload thread whose **native shard it
/// owns**, under the thread's own id — together the nodes submit
/// exactly the tasks a single-process [`em2_rt::run_workload`] would,
/// and the summed counters must match it bit-for-bit (eviction-free
/// config; the E12 agreement property).
///
/// [`ClusterRun::run_node`] is what a process launched as one node
/// calls; [`ClusterRun::run`] drives every node on its own thread
/// inside this process.
pub struct ClusterRun {
    spec: ClusterSpec,
    cfg: RtConfig,
    workload: Arc<Workload>,
    placement: Arc<dyn Placement>,
    scheme: fn() -> Box<dyn DecisionScheme>,
    handoffs: Vec<(usize, usize)>,
    chaos: Option<Arc<FaultPlan>>,
}

impl ClusterRun {
    /// `workload` on the cluster `spec` describes. `cfg`, `placement`
    /// and `scheme` must be identical on every node (the handshake can
    /// only check the topology).
    pub fn new(
        spec: &ClusterSpec,
        cfg: &RtConfig,
        workload: &Arc<Workload>,
        placement: &Arc<dyn Placement>,
        scheme: fn() -> Box<dyn DecisionScheme>,
    ) -> ClusterRun {
        ClusterRun {
            spec: spec.clone(),
            cfg: cfg.clone(),
            workload: Arc::clone(workload),
            placement: Arc::clone(placement),
            scheme,
            handoffs: Vec::new(),
            chaos: None,
        }
    }

    /// **Live shard handoffs** (the E13 configuration): after
    /// submitting its tasks, node 0 requests each `(shard, to)` move
    /// and blocks until every one that actually moves a shard has
    /// committed (the directory epoch counts commits) *before* closing
    /// admission — so the handoffs demonstrably overlap the workload,
    /// and a wedged one surfaces as the coordinator's typed handoff
    /// timeout rather than a hang here.
    pub fn handoffs(mut self, handoffs: &[(usize, usize)]) -> ClusterRun {
        self.handoffs = handoffs.to_vec();
        self
    }

    /// Wrap every node's transport in the same [`FaultPlan`] (the
    /// chaos harness). Faults landing inside a handoff window must
    /// surface as typed errors, never a hang or a wrong sum.
    pub fn chaos(mut self, plan: &Arc<FaultPlan>) -> ClusterRun {
        self.chaos = Some(Arc::clone(plan));
        self
    }

    /// Join the cluster as `node`, run its share of the workload to
    /// cluster quiesce, and report.
    pub fn run_node(&self, node: usize) -> Result<NetReport, ClusterError> {
        let w = &self.workload;
        let transport: Box<dyn Transport> = match &self.chaos {
            Some(plan) => Box::new(ChaosTransport::wrap(&self.spec, node, Arc::clone(plan))),
            None => self.spec.kind.make(),
        };
        let mut nrt = NodeRuntime::start_with_transport(
            transport,
            self.spec.clone(),
            node,
            self.cfg.clone(),
            w.name.clone(),
            Arc::clone(&self.placement),
            TaskRegistry::for_workload(Arc::clone(w)),
            self.scheme,
            em2_engine::barrier_quotas(w.threads.iter().map(|t| t.barriers.len())),
        )?;
        let (first, count) = self.spec.span(node);
        for t in &w.threads {
            if (first..first + count).contains(&t.native.index()) {
                let task = TraceTask::new(Arc::clone(w), t.thread);
                nrt.submit(TaskSpec::new(Box::new(task), t.native), t.thread);
            }
        }
        if node == 0 && !self.handoffs.is_empty() {
            // How many of the requests will actually commit (a request
            // naming the current owner is a no-op): simulate the
            // ownership walk the coordinator will take.
            let mut owners: Vec<usize> = (0..self.spec.total_shards)
                .map(|s| self.spec.owner_of(s))
                .collect();
            let mut target = self.spec.initial_epoch;
            for &(shard, to) in &self.handoffs {
                if owners[shard] != to {
                    owners[shard] = to;
                    target += 1;
                }
                nrt.request_handoff(shard, to);
            }
            // Wait for the commits before closing admission: quiesce
            // cannot be declared while this node's Closed is unsent, so
            // polling here guarantees every handoff ran *during* the
            // workload. A stuck handoff trips the coordinator's handoff
            // deadline, which flips has_failed and lets finish() report
            // it typed.
            while nrt.directory_epoch() < target && !nrt.has_failed() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        nrt.finish()
    }

    /// Run the whole cluster inside this process, one OS thread per
    /// node. Every node's outcome, in node order — never panics on an
    /// injected fault: the property under test is precisely that
    /// faults surface as typed errors.
    pub fn run(&self) -> Vec<Result<NetReport, ClusterError>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.spec.num_nodes())
                .map(|node| s.spawn(move || self.run_node(node)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node thread"))
                .collect()
        })
    }
}
