//! Runtime assembly: configuration, launch, submission, and the
//! report.

use crate::exec::{worker_loop, Sched};
use crate::ledger::RunLedger;
use crate::shard::{Envelope, Msg, ShardCore, Shared};
use crate::task::{Task, TaskRegistry, TraceTask};
use crate::wire::{WireError, WireMsg};
use em2_core::decision::DecisionScheme;
use em2_core::stats::FlowCounts;
use em2_core::RUN_BINS;
use em2_engine::barrier_quotas;
use em2_model::{CoreId, CostModel, Histogram, ThreadId};
use em2_placement::Placement;
use em2_trace::Workload;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Everything that leaves a node, implemented by the transport layer
/// (`em2-net`) and, for a single process, by this module's one-node
/// link. The runtime calls these from shard workers; every
/// implementation must be cheap and non-blocking where possible (a
/// blocked socket write back-pressures the sending shard, which is the
/// intended flow control).
pub trait NodeLink: Send + Sync {
    /// Ship an inter-shard message to `to_shard` (a global id owned by
    /// another node). `retries` is how many times ownership movement
    /// has already re-routed the message — 0 for a fresh send; the
    /// carried frame count when the runtime re-forwards a delivery
    /// that raced an outbound handoff, so the transport's per-frame
    /// bounce budget survives the detour through this node.
    fn forward(&self, to_shard: usize, retries: u32, msg: WireMsg);

    /// Ship a batch of inter-shard messages, each addressed to its own
    /// global shard id, **draining** `msgs` (the caller keeps the
    /// vector's allocation for its next batch). Semantically identical
    /// to calling [`NodeLink::forward`] once per element in order with
    /// a fresh re-route budget; implementations may exploit the batch
    /// to enqueue contiguously and take one wakeup per peer (the
    /// runtime hands a whole mailbox batch's remote-access replies over
    /// in one call).
    fn forward_many(&self, msgs: &mut Vec<(usize, WireMsg)>) {
        for (to, msg) in msgs.drain(..) {
            self.forward(to, 0, msg);
        }
    }

    /// A task on this node arrived at global barrier `k` and parked;
    /// report the arrival to the cluster's [`RunLedger`], whose holder
    /// answers the arrival that opens the barrier with
    /// [`RemoteInbox::release_barrier`] on every node.
    fn barrier_arrive(&self, k: usize);

    /// A task retired on this node (reported to the same ledger).
    fn task_retired(&self);

    /// This node's runtime handle closed admission after submitting
    /// `submitted` tasks. When every node has closed and every
    /// submitted task has retired, the ledger's holder applies
    /// [`RemoteInbox::begin_shutdown`] on every node.
    fn node_closed(&self, submitted: u64);
}

/// This runtime's place in a cluster: the epoch-versioned ownership
/// directory it routes by, its node id in that directory, and the link
/// that carries everything leaving the node.
pub struct NodeRole {
    /// Epoch-versioned per-shard ownership map. The transport layer
    /// holds the **same** `Arc` (it flips owners during live handoffs
    /// and installs coordinator epoch broadcasts), so routing decisions
    /// on the send and receive paths always agree.
    pub directory: Arc<crate::directory::ShardDirectory>,
    /// This runtime's node id in the directory. A node may start
    /// owning zero shards (a joining member) and be assigned shards by
    /// live handoff later.
    pub node_id: u32,
    /// The transport seam.
    pub link: Arc<dyn NodeLink>,
}

/// The link of the one-node cluster a single process is: every shard
/// is owned here, so nothing is ever forwarded, and the [`RunLedger`]
/// the other three calls report to sits right behind them. What it
/// decides is applied through the same two calls a transport's control
/// plane makes on [`RemoteInbox`].
struct Solo {
    ledger: Mutex<RunLedger>,
    /// Set by [`Runtime::start`] before it returns, hence before the
    /// first task exists to arrive or retire.
    shared: OnceLock<Weak<Shared>>,
}

impl Solo {
    /// Apply `f` to the ledger; on `true`, `then` to the runtime. The
    /// lock is a leaf (the runtime call follows its release) and
    /// poison-tolerant: `node_closed` also runs from `Drop`.
    fn report(&self, f: impl FnOnce(&mut RunLedger) -> bool, then: impl FnOnce(&Shared)) {
        if !f(&mut self.ledger.lock().unwrap_or_else(|p| p.into_inner())) {
            return;
        }
        if let Some(shared) = self.shared.get().and_then(Weak::upgrade) {
            then(&shared);
        }
    }
}

impl NodeLink for Solo {
    fn forward(&self, to_shard: usize, _retries: u32, _msg: WireMsg) {
        unreachable!("shard {to_shard} left a one-node cluster");
    }

    fn barrier_arrive(&self, k: usize) {
        self.report(|l| l.arrive(k), |s| s.release_barrier(k));
    }

    fn task_retired(&self) {
        let retire = |l: &mut RunLedger| {
            l.retire();
            l.quiesce()
        };
        self.report(retire, Shared::initiate_shutdown);
    }

    fn node_closed(&self, submitted: u64) {
        let close = |l: &mut RunLedger| l.close(submitted) && l.quiesce();
        self.report(close, Shared::initiate_shutdown);
    }
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RtConfig {
    /// Number of shards (the machine's "cores"). Shards are state
    /// machines, not threads: any count instantiable by memory runs on
    /// any host.
    pub shards: usize,
    /// Worker threads cooperatively polling all shards (a blocked
    /// shard parks its continuation, not a thread); `0` = auto (the
    /// `EM2_RT_WORKERS` environment variable if set, else the host's
    /// available parallelism), capped at the shard count.
    pub workers: usize,
    /// Guest contexts per shard (besides reserved natives). With fewer
    /// guests than visiting tasks, arrivals evict — set this to the
    /// task count for the eviction-free configuration whose counters
    /// are bit-comparable to the simulator's.
    pub guest_contexts: usize,
    /// Cost model consulted by decision schemes (distances, context
    /// size); the runtime does not simulate its latencies.
    pub cost: CostModel,
    /// Consecutive local accesses a task may run before co-resident
    /// contexts get the shard (scheduling fairness only; decisions and
    /// counters do not depend on it).
    pub quantum: usize,
    /// Observability plane (`em2-obs`). `None` resolves from the
    /// environment (`EM2_OBS` and friends) at start; tests and
    /// benchmarks that must not depend on ambient env vars pass
    /// [`em2_obs::ObsConfig::on`] / [`em2_obs::ObsConfig::off`]
    /// explicitly. Strictly timing-plane: no obs state ever feeds the
    /// deterministic counters, and every report and agreement digest
    /// is byte-identical whether this is on or off.
    pub obs: Option<em2_obs::ObsConfig>,
}

impl RtConfig {
    /// A runtime with `shards` shards and defaults mirroring
    /// [`em2_core::machine::MachineConfig`] (2 guest contexts).
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0);
        RtConfig {
            shards,
            workers: 0,
            guest_contexts: 2,
            cost: CostModel::builder().cores(shards).build(),
            quantum: 256,
            obs: None,
        }
    }

    /// The cross-validation configuration: guest pools sized so no
    /// eviction can occur with `tasks` tasks, making every counter a
    /// pure function of per-thread program order (DESIGN.md §7) —
    /// bit-comparable to a simulator run with the same
    /// `guest_contexts`, at **any** worker count.
    pub fn eviction_free(shards: usize, tasks: usize) -> Self {
        RtConfig {
            guest_contexts: tasks.max(1),
            ..RtConfig::with_shards(shards)
        }
    }

    fn resolved_workers(&self) -> usize {
        let requested = if self.workers > 0 {
            self.workers
        } else {
            em2_model::env::parse::<usize>("EM2_RT_WORKERS")
                .filter(|&n| n > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        };
        requested.min(self.shards).max(1)
    }
}

/// One task to launch: the continuation plus its native shard.
pub struct TaskSpec {
    /// The continuation; [`Runtime::submit`] assigns it the next
    /// [`ThreadId`].
    pub task: Box<dyn Task>,
    /// The shard whose reserved native context belongs to this task.
    pub native: CoreId,
    /// Latency epoch of the obs `task_latency_ns` histogram: `None`
    /// stamps the submission instant; open-loop injectors pass the
    /// request's *intended* arrival time so queueing delay from a late
    /// injector still counts (no coordinated omission).
    pub arrival: Option<Instant>,
}

impl TaskSpec {
    /// A task native to `native`, stamped at submission time.
    pub fn new(task: Box<dyn Task>, native: CoreId) -> Self {
        TaskSpec {
            task,
            native,
            arrival: None,
        }
    }
}

/// Scheduling telemetry from one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Worker threads that drove the shards.
    pub workers: usize,
    /// Shard polls across all workers. Every poll is provoked by a
    /// message or a requeue — an idle runtime performs none (the
    /// no-busy-wait regression test pins this).
    pub polls: u64,
    /// Times a worker parked on the run queue's condvar.
    pub parks: u64,
}

/// Everything a runtime run produces. Field-compatible with the
/// simulator's [`em2_core::stats::SimReport`] counters where the
/// semantics carry over; wall-clock throughput replaces simulated
/// cycles (the runtime has no cycle model — see DESIGN.md §7).
#[derive(Clone, Debug)]
pub struct RtReport {
    /// Workload name.
    pub workload: String,
    /// Decision-scheme name.
    pub scheme: String,
    /// Shard count.
    pub shards: usize,
    /// The Figure-1/3 flow counters, measured by execution. One unit
    /// caveat: `stalled_arrivals` counts each arrival that had to wait
    /// *once*, while the simulator counts every failed retry poll
    /// (every 4 cycles) — don't compare that
    /// field across machines.
    pub flow: FlowCounts,
    /// Run-length histogram (Figure-2 semantics, same binning as the
    /// simulator; per-shard slices merged bin-wise at quiesce).
    pub run_lengths: Histogram,
    /// Serialized context bytes shipped by migrations and evictions.
    pub context_bytes_sent: u64,
    /// Distinct words materialized across all shard heaps.
    pub heap_words: u64,
    /// End-to-end wall-clock of the run (launch to last retirement).
    pub wall: Duration,
    /// Scheduling telemetry.
    pub sched: SchedStats,
    /// Final timing-plane snapshot (`None` when obs is off). Strictly
    /// observational: nothing in the deterministic counters above is
    /// derived from it, and reports render identically without it.
    pub obs: Option<em2_obs::Snapshot>,
}

impl RtReport {
    /// Memory operations executed (local + migrated + remote).
    pub fn total_ops(&self) -> u64 {
        self.flow.total_accesses()
    }

    /// Memory operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / s
        }
    }
}

impl fmt::Display for RtReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[rt {} / {}] {} ops on {} shards / {} workers in {:.3} ms ({:.0} ops/s)",
            self.workload,
            self.scheme,
            self.total_ops(),
            self.shards,
            self.sched.workers,
            self.wall.as_secs_f64() * 1e3,
            self.ops_per_sec()
        )?;
        write!(
            f,
            "  flow: {} local, {} migrations, {} evictions, {} RA-read, {} RA-write; {} context bytes",
            self.flow.local_accesses,
            self.flow.migrations,
            self.flow.evictions,
            self.flow.remote_reads,
            self.flow.remote_writes,
            self.context_bytes_sent
        )
    }
}

/// Broadcast shutdown if the owning thread dies mid-run (a task
/// assertion, an internal invariant), so sibling workers exit their
/// parks instead of waiting forever — the panic then propagates
/// through the join rather than hanging the run.
struct PanicFanout(Arc<Shared>);
impl Drop for PanicFanout {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.initiate_shutdown();
        }
    }
}

/// A live runtime: workers running, accepting task submissions.
///
/// The serving-oriented half of the API: [`Runtime::start`] brings the
/// shard fleet up, [`Runtime::submit`] injects tasks while it runs (an
/// open-loop load generator calls this on its own clock), and
/// [`Runtime::finish`] closes admission, waits for every submitted
/// task to retire, and merges the per-shard counters into the report.
/// [`run_tasks`] wraps the three for batch runs. Dropping a `Runtime`
/// without calling `finish` drains it the same way (minus the report).
pub struct Runtime {
    shared: Option<Arc<Shared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    name: String,
    scheme_name: String,
    make_scheme: Box<dyn FnMut() -> Box<dyn DecisionScheme> + Send>,
    next_thread: u32,
    shards: usize,
    workers: usize,
    /// Tasks submitted through this handle (reported to the run ledger
    /// on close).
    submitted: u64,
    t0: Instant,
    /// The timing-plane registry (`None` when obs is off); exposed
    /// through [`Runtime::obs`] so the transport layer can register
    /// peers and arm the flight recorder.
    obs: Option<Arc<em2_obs::NodeObs>>,
    /// Periodic snapshot exporter, stopped (with a final line) at
    /// shutdown.
    exporter: Option<em2_obs::Exporter>,
}

impl Runtime {
    /// Launch the shard fleet in this process: the one-node cluster,
    /// whose link is the run ledger itself.
    ///
    /// `scheme_factory` is called once per submitted task: each task's
    /// thread gets its own decision-scheme instance, carried in its
    /// envelope (per-thread state — bit-equal to the simulator's
    /// single shared instance, since every shipped scheme keys its
    /// tables per thread; see DESIGN.md §8).
    ///
    /// `barrier_quotas[k]` is the number of arrivals that open global
    /// barrier `k` (use [`em2_engine::barrier_quotas`]; empty when
    /// tasks never emit [`crate::Op::Barrier`]).
    pub fn start(
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
        barrier_quotas: Vec<usize>,
    ) -> Self {
        let barriers = barrier_quotas.len();
        let link = Arc::new(Solo {
            ledger: Mutex::new(RunLedger::new(1, barrier_quotas)),
            shared: OnceLock::new(),
        });
        let role = NodeRole {
            directory: Arc::new(crate::directory::ShardDirectory::single_process(cfg.shards)),
            node_id: 0,
            link: Arc::clone(&link) as Arc<dyn NodeLink>,
        };
        let rt = Runtime::start_node(cfg, name, placement, scheme_factory, barriers, role);
        let shared = Arc::downgrade(rt.shared.as_ref().expect("just started"));
        link.shared.set(shared).expect("set once");
        rt
    }

    /// Launch this process's shards of a cluster with `barriers`
    /// global barriers.
    ///
    /// `cfg.shards` is the **cluster-wide** shard count; this runtime
    /// polls only the shards `role.directory` says it owns and routes
    /// every message addressed to another through `role.link`. Inbound
    /// messages are injected by the transport layer through
    /// [`Runtime::remote_inbox`]. Completion is cluster-global:
    /// [`Runtime::finish`] reports closure over the link and waits for
    /// the quiesce decision of whoever holds the cluster's
    /// [`RunLedger`]. `em2-net` wraps all of this; use it rather than
    /// calling this directly.
    pub fn start_node(
        cfg: RtConfig,
        name: impl Into<String>,
        placement: Arc<dyn Placement>,
        scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
        barriers: usize,
        role: NodeRole,
    ) -> Self {
        let mut make_scheme: Box<dyn FnMut() -> Box<dyn DecisionScheme> + Send> =
            Box::new(scheme_factory);
        let shards = cfg.shards;
        assert!(
            placement.cores() <= shards,
            "placement targets more shards than the runtime has"
        );
        assert!(
            cfg.cost.cores() >= shards,
            "cost-model mesh smaller than the shard count"
        );
        assert_eq!(
            role.directory.shards(),
            shards,
            "ownership directory does not cover the cluster's shards"
        );
        let scheme_name = make_scheme().name();

        // The worker pool is sized for the cluster's shard space, not
        // the launch-time owned count (zero is legal): ownership is
        // elastic, so a member that joins with one shard may end up
        // polling many after a drain rebalances onto it.
        let workers = cfg.resolved_workers();
        // The timing plane: `None` unless configured (explicitly or via
        // EM2_OBS). Everything below records into it with relaxed
        // atomics; nothing in it feeds the deterministic counters.
        let obs_cfg = cfg.obs.clone().unwrap_or_else(em2_obs::ObsConfig::from_env);
        let obs = obs_cfg
            .enabled
            .then(|| em2_obs::NodeObs::new(obs_cfg, 0, shards));
        let shared = Arc::new(Shared {
            mailboxes: (0..shards).map(|_| crate::shard::Mailbox::new()).collect(),
            cores: (0..shards)
                .map(|g| {
                    Mutex::new(ShardCore::new(
                        g,
                        cfg.guest_contexts,
                        obs.as_ref().map(|o| Arc::clone(o.shard(g))),
                    ))
                })
                .collect(),
            directory: role.directory,
            node_id: role.node_id,
            total_shards: shards,
            node: role.link,
            placement,
            released: (0..barriers).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            cost: cfg.cost,
            quantum: cfg.quantum,
            sched: Sched::default(),
        });
        let exporter = obs
            .as_ref()
            .and_then(em2_obs::Exporter::start_if_configured);

        let t0 = Instant::now();
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("em2-rt-worker-{w}"))
                    .spawn(move || {
                        let _fanout = PanicFanout(Arc::clone(&shared));
                        worker_loop(&shared)
                    })
                    .expect("spawn runtime worker")
            })
            .collect();

        Runtime {
            shared: Some(shared),
            handles,
            name: name.into(),
            scheme_name,
            make_scheme,
            next_thread: 0,
            shards,
            workers,
            submitted: 0,
            t0,
            obs,
            exporter,
        }
    }

    /// The timing-plane registry, when observability is on. The
    /// transport layer uses this to register peer handles and wire the
    /// flight recorder to cluster failures; callers may also read
    /// [`em2_obs::NodeObs::snapshot`] live.
    pub fn obs(&self) -> Option<Arc<em2_obs::NodeObs>> {
        self.obs.clone()
    }

    /// The inbound half of the transport seam: a handle the socket
    /// reader threads use to inject decoded messages into the
    /// executor's mailbox/waker machinery, mirror barrier releases,
    /// and apply the cluster's quiesce decision. `registry` rebuilds
    /// migrated-in tasks; `scheme_factory` must match the one the
    /// cluster runs (the factory builds the instance, the wire state
    /// restores its learning).
    ///
    /// Holds only a weak reference to the runtime internals, so an
    /// inbox outliving [`Runtime::finish`] degrades to dropping
    /// messages instead of keeping the runtime alive.
    pub fn remote_inbox(
        &self,
        registry: TaskRegistry,
        scheme_factory: impl Fn() -> Box<dyn DecisionScheme> + Send + Sync + 'static,
    ) -> RemoteInbox {
        RemoteInbox {
            shared: Arc::downgrade(self.shared.as_ref().expect("runtime is live")),
            registry,
            make_scheme: Box::new(scheme_factory),
        }
    }

    /// Submit one task; it is seeded at its native shard and starts
    /// immediately. Returns the [`ThreadId`] it runs as (submission
    /// order: 0, 1, 2, …).
    pub fn submit(&mut self, spec: TaskSpec) -> ThreadId {
        let thread = ThreadId(self.next_thread);
        self.submit_as(spec, thread);
        thread
    }

    /// Submit one task under an explicit [`ThreadId`].
    ///
    /// This is the multi-node entry point: each node submits the tasks
    /// native to its **launch-time** shard span, under the same global
    /// thread ids a single process would assign — ids must be
    /// unique **cluster-wide** (they key guest-context admission and
    /// the learning schemes' tables). The span partition decides *who
    /// submits*; it need not match who currently *owns* — a live
    /// handoff can move a shard away before its node finishes
    /// submitting, in which case the arrival routes over the link to
    /// the current owner like any other in-flight message (the send's
    /// ownership re-check under the mailbox lock makes the race safe).
    /// Single-process callers normally want [`Runtime::submit`]'s
    /// automatic numbering.
    pub fn submit_as(&mut self, spec: TaskSpec, thread: ThreadId) {
        let shared = self.shared.as_ref().expect("runtime is live");
        assert!(
            spec.native.index() < self.shards,
            "native shard out of range"
        );
        self.next_thread = self.next_thread.max(thread.0.saturating_add(1));
        let env = Box::new(Envelope {
            thread,
            native: spec.native,
            task: spec.task,
            scheme: (self.make_scheme)(),
            arrival: spec.arrival.unwrap_or_else(Instant::now),
            pending_op: None,
            pending_reply: None,
            parked_at: None,
            run: None,
            journey: crate::wire::Journey::default(),
        });
        self.submitted += 1;
        shared.send(spec.native.index(), Msg::Arrive(env));
    }

    /// Close admission, wait for shutdown, and join the workers: report
    /// closure over the link; whoever holds the run ledger declares
    /// quiesce once every node has closed and every task has retired,
    /// and applies it through [`RemoteInbox::begin_shutdown`]. Returns
    /// the first worker panic, if any.
    fn shutdown_and_join(
        &mut self,
    ) -> (Option<Arc<Shared>>, Option<Box<dyn std::any::Any + Send>>) {
        let Some(shared) = self.shared.take() else {
            return (None, None);
        };
        shared.node.node_closed(self.submitted);
        let mut first_panic = None;
        for h in self.handles.drain(..) {
            if let Err(p) = h.join() {
                first_panic.get_or_insert(p);
            }
        }
        // Stop the exporter after the workers quiesce: its final line
        // then captures the complete run.
        if let Some(exp) = self.exporter.take() {
            exp.finish();
        }
        (Some(shared), first_panic)
    }

    /// Close admission, run to quiescence, and merge the per-shard
    /// counters (in shard order — a deterministic reduction) into the
    /// report.
    pub fn finish(mut self) -> RtReport {
        let (shared, panic) = self.shutdown_and_join();
        let shared = shared.expect("finish consumes the runtime");
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        let wall = self.t0.elapsed();
        // Workers have joined, so every core lock is free. A transport
        // reader may still hold a momentarily upgraded inbox handle,
        // which is why the counters leave through the lock rather than
        // by unwrapping the `Arc`.
        let mut flow = FlowCounts::default();
        let mut run_lengths = Histogram::new(RUN_BINS);
        let mut context_bytes_sent = 0u64;
        let mut heap_words = 0u64;
        let mut polls = 0u64;
        for core in &shared.cores {
            let c = core.lock().expect("no worker panicked").take_counters();
            flow.merge(&c.flow);
            run_lengths.merge(&c.run_hist);
            context_bytes_sent += c.context_bytes_sent;
            heap_words += c.heap_words;
            polls += c.polls;
        }

        RtReport {
            workload: std::mem::take(&mut self.name),
            scheme: std::mem::take(&mut self.scheme_name),
            shards: self.shards,
            flow,
            run_lengths,
            context_bytes_sent,
            heap_words,
            wall,
            sched: SchedStats {
                workers: self.workers,
                polls,
                parks: shared.sched.parks(),
            },
            obs: self.obs.as_ref().map(|o| o.snapshot()),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // `finish` already took `shared`; otherwise drain like it
        // (waiting for submitted tasks) but swallow the report. Worker
        // panics surface on the next `finish`-less path as aborted
        // joins only if we are already unwinding.
        let _ = self.shutdown_and_join();
    }
}

/// The inbound transport seam (see [`Runtime::remote_inbox`]): socket
/// reader threads call these to hand decoded wire messages to the
/// executor. All methods return whether the runtime was still live —
/// after [`Runtime::finish`] the inbox degrades to a no-op sink, which
/// is correct because a quiesced cluster has no meaningful messages in
/// flight.
pub struct RemoteInbox {
    shared: Weak<Shared>,
    registry: TaskRegistry,
    /// Called by every reader thread, on every inbound arrival.
    make_scheme: Box<dyn Fn() -> Box<dyn DecisionScheme> + Send + Sync>,
}

impl RemoteInbox {
    /// Rebuild an envelope from its wire form: the task through the
    /// registry, the decision scheme through the factory + its shipped
    /// learned state. `arrival` is when its bytes reached this node.
    fn rebuild_envelope(
        &self,
        we: crate::wire::WireEnvelope,
        arrival: Instant,
    ) -> Result<Box<Envelope>, WireError> {
        let mut scheme = (self.make_scheme)();
        scheme.load_state(&we.scheme_state)?;
        let task = self.registry.build(we.task_kind, &we.task_ctx)?;
        Ok(Box::new(Envelope {
            thread: ThreadId(we.thread),
            native: CoreId(we.native),
            task,
            scheme,
            // Cross-process latency is accounted from arrival on this
            // node (clock domains differ between processes; replay
            // workloads do not use per-task latency).
            arrival,
            pending_op: we.pending_op.map(crate::wire::WireOp::into_op),
            pending_reply: we.pending_reply,
            parked_at: we.parked_at.map(|k| k as usize),
            run: we.run.map(|(c, len)| (CoreId(c), len)),
            journey: we.journey,
        }))
    }

    /// Inject one inter-shard message addressed to global shard `to`:
    /// rebuild arrivals through the task registry and scheme factory,
    /// then push through the same mailbox/waker path a local sender
    /// uses. Routing is directory-driven: if ownership of `to` flipped
    /// while the message was in flight, `crate::shard::Shared::send`'s
    /// re-check under the mailbox lock forwards it over the link instead
    /// of applying it locally — the caller (the transport layer's epoch
    /// fence) is expected to have already bounced clearly-stale
    /// frames. `retries` is the re-route count carried on the frame
    /// (0 for locally originated messages); it rides along on that
    /// re-forward so the transport's bounce budget keeps counting
    /// across the local hop. `received` is when the message reached
    /// this node — the transport reads the clock once per socket read
    /// and passes it down, so a batch of arrivals shares one reading —
    /// and becomes a rebuilt envelope's latency epoch.
    pub fn deliver(
        &self,
        to: usize,
        retries: u32,
        msg: WireMsg,
        received: Instant,
    ) -> Result<bool, WireError> {
        let Some(shared) = self.shared.upgrade() else {
            return Ok(false);
        };
        let m = match msg {
            WireMsg::Arrive(we) => Msg::Arrive(self.rebuild_envelope(we, received)?),
            WireMsg::Request {
                addr,
                write,
                reply_shard,
                token,
            } => Msg::Request {
                addr: em2_model::Addr(addr),
                write,
                reply_shard: reply_shard as usize,
                token: ThreadId(token),
            },
            WireMsg::Response { token, value } => Msg::Response {
                token: ThreadId(token),
                value,
            },
            WireMsg::BarrierRelease { idx } => Msg::BarrierRelease { idx: idx as usize },
        };
        shared.send_routed(to, retries, m);
        Ok(true)
    }

    /// Mirror the run ledger's release of barrier `k`: set the local
    /// released flag (so in-flight arrivals pass through) and wake
    /// every task parked on a **currently owned** shard (the release
    /// fans out to every node, so each shard is woken exactly by its
    /// owner of the moment).
    pub fn release_barrier(&self, k: usize) -> bool {
        let shared = self.shared.upgrade();
        shared.map(|s| s.release_barrier(k)).is_some()
    }

    /// Freeze locally owned shard `shard` for a live handoff to
    /// `new_owner`: flip the directory owner under the mailbox lock
    /// (every send either pushed before the flip or sees it and routes
    /// over the link), take the core lock (waiting out any in-flight
    /// poll), drain the mailbox backlog, and export the core's
    /// transferable state. Returns `None` if the runtime already shut
    /// down.
    ///
    /// After this returns, the shard is empty here and every message
    /// addressed to it — including sends issued by the tail of an
    /// in-flight poll — relays over the link toward the new owner.
    pub fn freeze_shard(&self, shard: usize, new_owner: u32) -> Option<crate::wire::FrozenShard> {
        let shared = self.shared.upgrade()?;
        debug_assert_eq!(
            shared.directory.owner_of(shard),
            shared.node_id,
            "freezing a shard this node does not own"
        );
        let mb = &shared.mailboxes[shard];
        // `Shared::send_routed` re-checks the owner under this lock, so
        // no message enters the mailbox after the flip — and having
        // held the lock after the last push, we read a current length
        // hint in `take` below.
        mb.locked(|| shared.directory.set_owner(shard, new_owner));
        let mut core = shared.cores[shard].lock().expect("shard core");
        // Holding the core lock makes us the queue's exclusive
        // consumer (polls drain only under this lock).
        let mut backlog = Vec::new();
        mb.take(&mut backlog, usize::MAX);
        let mailbox = backlog.into_iter().map(crate::shard::msg_to_wire).collect();
        Some(core.export_frozen(mailbox))
    }

    /// Install a frozen shard shipped by its previous owner: restore
    /// the core under its lock, claim ownership in the directory, then
    /// replay the shipped mailbox backlog and schedule the shard.
    /// Returns `Ok(false)` if the runtime already shut down.
    pub fn install_shard(&self, frozen: crate::wire::FrozenShard) -> Result<bool, WireError> {
        let Some(shared) = self.shared.upgrade() else {
            return Ok(false);
        };
        let shard = frozen.shard as usize;
        let mut frozen = frozen;
        let mailbox = std::mem::take(&mut frozen.mailbox);
        let received = Instant::now();
        {
            let mut core = shared.cores[shard].lock().expect("shard core");
            let mut rebuild = |we: crate::wire::WireEnvelope| self.rebuild_envelope(we, received);
            core.install_frozen(frozen, &mut rebuild)?;
        }
        // Claim ownership only after the core is fully restored:
        // concurrent deliveries that pass the directory check from
        // here on find a complete shard. A barrier released while the
        // shard was in flight woke nobody — the release fans out to
        // each node's *owned* shards, and this one had no owner — so
        // the same write collects every barrier already released here
        // (`release_barrier` has the pairing), and the shard, once
        // told, wakes whoever is parked on them.
        let released: Vec<usize> = shared.directory.write(|set_owner| {
            set_owner(shard, shared.node_id);
            let open = |&k: &usize| shared.is_released(k);
            (0..shared.released.len()).filter(open).collect()
        });
        for k in released {
            shared.send(shard, Msg::BarrierRelease { idx: k });
        }
        for msg in mailbox {
            // The backlog had reached its then-home; replaying it here
            // is a fresh route, so the bounce budget restarts at 0.
            self.deliver(shard, 0, msg, received)?;
        }
        shared.kick(shard);
        Ok(true)
    }

    /// Apply the cluster's quiesce decision: stop the local workers.
    pub fn begin_shutdown(&self) -> bool {
        let shared = self.shared.upgrade();
        shared.map(|s| s.initiate_shutdown()).is_some()
    }

    /// A non-blocking census of envelopes still resident on this
    /// node's shards. Shards whose core is currently held by a polling
    /// worker are skipped (counted in `skipped_shards`) — the caller
    /// is a stalled-run watchdog, and a shard that is actively being
    /// polled is by definition not stuck.
    pub fn backlog(&self) -> InboxBacklog {
        let mut b = InboxBacklog::default();
        let Some(shared) = self.shared.upgrade() else {
            return b;
        };
        for core in &shared.cores {
            match core.try_lock() {
                Ok(c) => {
                    let (runnable, parked, awaiting, stalled) = c.census();
                    b.runnable += runnable;
                    b.parked_barrier += parked;
                    b.awaiting_reply += awaiting;
                    b.stalled_admission += stalled;
                }
                Err(_) => b.skipped_shards += 1,
            }
        }
        b
    }
}

/// What [`RemoteInbox::backlog`] saw: envelopes resident per queue
/// class, summed over the shards whose core lock was free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InboxBacklog {
    /// Runnable envelopes waiting for a poll.
    pub runnable: usize,
    /// Envelopes parked at an unreleased barrier.
    pub parked_barrier: usize,
    /// Envelopes pinned awaiting a remote reply.
    pub awaiting_reply: usize,
    /// Guest arrivals stalled on context admission.
    pub stalled_admission: usize,
    /// Shards skipped because a worker held their core.
    pub skipped_shards: usize,
}

/// Launch `tasks` on `cfg.shards` shards and run to completion.
///
/// `scheme_factory` builds one decision-scheme instance per task (see
/// [`Runtime::start`]). `barrier_quotas[k]` is the number of arrivals
/// that open global barrier `k`. Task `i` runs as [`ThreadId`] `i`.
pub fn run_tasks(
    cfg: RtConfig,
    name: impl Into<String>,
    tasks: Vec<TaskSpec>,
    placement: Arc<dyn Placement>,
    scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
    barrier_quotas: Vec<usize>,
) -> RtReport {
    let mut rt = Runtime::start(cfg, name, placement, scheme_factory, barrier_quotas);
    for spec in tasks {
        rt.submit(spec);
    }
    rt.finish()
}

/// Replay a traced workload on the runtime: one [`TraceTask`] per
/// thread, homes resolved live through `placement`, barriers honored
/// with the engine's exact quotas.
///
/// With an eviction-free guest pool ([`RtConfig::eviction_free`]) and
/// the same placement, the migration / remote-access counters and the
/// run-length histogram equal those of
/// [`em2_core::sim::run_em2ra`] with the same scheme — the E11
/// cross-validation — at any worker count.
pub fn run_workload(
    cfg: RtConfig,
    workload: &Arc<Workload>,
    placement: Arc<dyn Placement>,
    scheme_factory: impl FnMut() -> Box<dyn DecisionScheme> + Send + 'static,
) -> RtReport {
    let tasks: Vec<TaskSpec> = workload
        .threads
        .iter()
        .map(|t| {
            TaskSpec::new(
                Box::new(TraceTask::new(Arc::clone(workload), t.thread)) as Box<dyn Task>,
                t.native,
            )
        })
        .collect();
    let quotas = barrier_quotas(workload.threads.iter().map(|t| t.barriers.len()));
    run_tasks(
        cfg,
        workload.name.clone(),
        tasks,
        placement,
        scheme_factory,
        quotas,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::tests::{two_shards, Recording};
    use crate::wire::{FrozenShard, WireEnvelope};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A shard lands on this node beside the release of the barrier a
    /// task inside it is parked on. Both orders, one thread, no
    /// workers: released first, the install finds the flag and tells
    /// the shard itself; installed first, the release finds the shard
    /// among the owned. Either way the shard hears of the barrier once
    /// and its next poll wakes the task.
    #[test]
    fn a_shard_landing_beside_a_release_is_woken_in_either_order() {
        let workload = Arc::new(em2_trace::gen::micro::pingpong(1, 4, 10));
        for release_first in [true, false] {
            let mut shared = two_shards(256, Arc::new(Recording::default()));
            // Shard 1 is in flight from node 1: nobody here owns it.
            shared.directory = Arc::new(crate::directory::ShardDirectory::new(0, 0, &[0, 1]));
            let shared = Arc::new(shared);
            let inbox = RemoteInbox {
                shared: Arc::downgrade(&shared),
                registry: TaskRegistry::for_workload(Arc::clone(&workload)),
                make_scheme: Box::new(|| Box::new(em2_core::decision::AlwaysMigrate)),
            };
            let task = TraceTask::new(Arc::clone(&workload), ThreadId(0));
            let frozen = FrozenShard {
                shard: 1,
                natives: vec![0],
                parked: vec![WireEnvelope {
                    thread: 0,
                    native: 1,
                    task_kind: TraceTask::WIRE_KIND,
                    task_ctx: task.context_bytes(),
                    scheme_state: Vec::new(),
                    pending_op: None,
                    pending_reply: None,
                    parked_at: Some(0),
                    run: None,
                    journey: crate::wire::Journey::default(),
                }],
                ..FrozenShard::default()
            };
            if release_first {
                assert!(inbox.release_barrier(0));
                assert!(shared.mailboxes[1].is_empty(), "not owned: not told");
                assert_eq!(inbox.install_shard(frozen), Ok(true));
            } else {
                assert_eq!(inbox.install_shard(frozen), Ok(true));
                assert!(shared.mailboxes[1].is_empty(), "nothing released yet");
                assert!(inbox.release_barrier(0));
            }
            assert_eq!(shared.directory.owner_of(1), 0);
            assert_eq!(shared.mailboxes[1].len(), 1, "told once");
            let mut core = shared.cores[1].lock().expect("shard core");
            assert_eq!(core.census().1, 1, "parked until the shard is polled");
            core.poll(&shared);
            assert_eq!(core.census().1, 0, "release first: {release_first}");
        }
    }

    /// Four producers stream numbered requests at shard 1 of a live
    /// node while it is frozen away mid-stream. A request is served by
    /// a poll (its reply, bound for node 1's shard 0, reaches the
    /// link), frozen with the mailbox, or refused by the flipped owner
    /// and forwarded — every number exactly once, each producer's in
    /// order within each of the three, and nothing is served once the
    /// freeze has returned. Red for a send whose ownership re-check is
    /// not under the mailbox lock: its push can land after the freeze's
    /// drain, where the emptied core serves it.
    #[test]
    fn a_freeze_loses_and_duplicates_nothing() {
        const PRODUCERS: u32 = 4;
        const PER: u32 = 10_000;
        let link = Arc::new(Recording::default());
        let rt = Runtime::start_node(
            RtConfig {
                workers: 1,
                obs: Some(em2_obs::ObsConfig::off()),
                ..RtConfig::with_shards(2)
            },
            "freeze",
            Arc::new(em2_placement::Striped::new(2, 64)),
            || Box::new(em2_core::decision::AlwaysMigrate),
            0,
            NodeRole {
                directory: Arc::new(crate::directory::ShardDirectory::new(0, 0, &[1, 0])),
                node_id: 0,
                link: Arc::clone(&link) as Arc<dyn NodeLink>,
            },
        );
        let inbox = rt.remote_inbox(TaskRegistry::new(), || {
            Box::new(em2_core::decision::AlwaysMigrate)
        });
        let sent = AtomicU64::new(0);
        let replies = |handed: &[(usize, WireMsg)]| {
            let reply = |m: &WireMsg| matches!(m, WireMsg::Response { .. });
            handed.iter().filter(|(_, m)| reply(m)).count()
        };
        let (frozen, served_by_the_freeze) = std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (inbox, sent) = (&inbox, &sent);
                s.spawn(move || {
                    for i in 0..PER {
                        let msg = WireMsg::Request {
                            addr: 64,
                            write: None,
                            reply_shard: 0,
                            token: p * PER + i,
                        };
                        let live = inbox.deliver(1, 0, msg, Instant::now());
                        assert_eq!(live, Ok(true));
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Mid-stream: a quarter is out, the rest is still coming.
            while sent.load(Ordering::Relaxed) < u64::from(PER) {
                std::thread::yield_now();
            }
            let frozen = inbox.freeze_shard(1, 1).expect("the runtime is live");
            (frozen, replies(&link.0.lock().expect("recording")))
        });
        inbox.begin_shutdown();
        drop(rt);

        let handed = link.0.lock().expect("recording");
        assert_eq!(replies(&handed), served_by_the_freeze, "served after it");
        let served = handed.iter().filter_map(|(to, m)| match m {
            WireMsg::Response { token, .. } if *to == 0 => Some(*token),
            _ => None,
        });
        let forwarded = handed.iter().filter_map(|(to, m)| match m {
            WireMsg::Request { token, .. } if *to == 1 => Some(*token),
            _ => None,
        });
        let shipped = frozen.mailbox.iter().map(|m| match m {
            WireMsg::Request { token, .. } => *token,
            other => panic!("only requests were sent, froze {other:?}"),
        });
        let mut seen = vec![0u32; (PRODUCERS * PER) as usize];
        for part in [
            served.collect::<Vec<_>>(),
            shipped.collect(),
            forwarded.collect(),
        ] {
            let mut next = [0u32; PRODUCERS as usize];
            for token in part {
                seen[token as usize] += 1;
                let (p, i) = ((token / PER) as usize, token % PER);
                assert!(i >= next[p], "producer {p}: {i} after {}", next[p]);
                next[p] = i + 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "every request exactly once");
        assert_eq!(handed.len() + frozen.mailbox.len(), seen.len());
    }
}
