//! The three closed-loop trace replays: `rt-local` (one process, no
//! `em2-net`), `uds2-migrate` and `uds2-remote` (the same trace over a
//! 2-node UDS cluster, shipping continuations one way or small
//! request/response frames both ways).

use crate::cluster::{run_cluster, ClusterSetup, SHARDS};
use crate::protocol::{RoundKind, RoundStats, Scale, Workload};
use crate::sim::{build_inputs, ocean, CORES};
use crate::spans::Tracer;
use crate::stamped::{self, now_ns, Stamped, KIND_TRACE};
use em2_core::decision::{AlwaysMigrate, AlwaysRemote, DecisionScheme};
use em2_core::machine::MachineConfig;
use em2_model::DetRng;
use em2_net::CounterSummary;
use em2_obs::HistSnapshot;
use em2_placement::Placement;
use em2_rt::{run_tasks, RtConfig, RtReport, Task, TaskRegistry, TaskSpec, TraceTask};
use em2_trace::gen::micro;
use em2_trace::Workload as Trace;
use std::sync::Arc;

/// One worker per node, eviction-free, obs explicit: the configuration
/// every replay round runs.
pub fn rt_config(tasks: usize, traced: bool) -> RtConfig {
    RtConfig {
        workers: 1,
        obs: Some(if traced {
            em2_obs::ObsConfig::on()
        } else {
            em2_obs::ObsConfig::off()
        }),
        ..RtConfig::eviction_free(SHARDS, tasks)
    }
}

fn stamped_task(w: &Arc<Trace>, thread: usize, due_ns: u64) -> TaskSpec {
    let t = &w.threads[thread];
    TaskSpec::new(
        Box::new(Stamped::new(
            KIND_TRACE,
            thread as u32,
            due_ns,
            TraceTask::new(Arc::clone(w), t.thread),
        )) as Box<dyn Task>,
        t.native,
    )
}

fn quotas(w: &Trace) -> Vec<usize> {
    em2_engine::barrier_quotas(w.threads.iter().map(|t| t.barriers.len()))
}

/// Layer observations every runtime round can make from its report.
pub fn sched_layers(r: &[&RtReport], ops: u64) -> Vec<(&'static str, f64, Scale)> {
    let polls: u64 = r.iter().map(|r| r.sched.polls).sum();
    let parks: u64 = r.iter().map(|r| r.sched.parks).sum();
    let mut v = vec![
        (
            "rt.sched.polls_per_op",
            polls as f64 / ops.max(1) as f64,
            Scale::AsIs,
        ),
        (
            "rt.sched.parks_per_kop",
            parks as f64 * 1e3 / ops.max(1) as f64,
            Scale::AsIs,
        ),
    ];
    let batches = r
        .iter()
        .filter_map(|r| r.obs.as_ref())
        .map(|o| &o.mailbox_batch);
    if let Some(all) = merged(batches) {
        v.push(("rt.mailbox_batch_mean", all.mean(), Scale::AsIs));
    }
    v
}

/// The nodes' histograms of one kind as one (`None`: obs was off).
fn merged<'a>(mut parts: impl Iterator<Item = &'a HistSnapshot>) -> Option<HistSnapshot> {
    let mut all = parts.next()?.clone();
    for p in parts {
        all.merge(p);
    }
    Some(all)
}

// ------------------------------------------------------------ rt-local

/// `rt-local`: OCEAN through `em2_rt::run_tasks` in one process.
///
/// `em2-rt`'s poll loop, mailbox queue and in-process context hop do
/// all the work, with OCEAN's realistic run lengths; codec and sockets
/// do none.
pub struct RtLocal {
    seed: u64,
    inputs: Option<LocalInputs>,
}

struct LocalInputs {
    trace: Arc<Trace>,
    placement: Arc<dyn Placement>,
    /// Submission order (the seeded part of the input).
    order: Vec<usize>,
    /// The simulator's flow counts for the same trace and placement:
    /// the reference every round's counters must equal (E11).
    reference: em2_core::FlowCounts,
    setup_layers: Vec<(&'static str, f64, Scale)>,
}

impl RtLocal {
    /// OCEAN is not seeded; `seed` draws the order tasks are submitted in.
    pub fn new(seed: u64) -> RtLocal {
        RtLocal { seed, inputs: None }
    }
}

impl Workload for RtLocal {
    fn setup(&mut self, tracer: &Tracer, rep: usize) -> Result<f64, String> {
        let t0 = now_ns();
        let (trace, placement, flat, layers) = build_inputs(tracer, rep, || ocean(32));
        let mut order: Vec<usize> = (0..trace.num_threads()).collect();
        DetRng::new(self.seed).shuffle(&mut order);
        let secs = (now_ns() - t0) as f64 * 1e-9;
        // Outside the timed part: the reference is the check's input,
        // not the workload's.
        let reference = self.inputs.take().map_or_else(
            || {
                let mut cfg = MachineConfig::with_cores(CORES);
                cfg.guest_contexts = trace.num_threads();
                em2_core::sim::run_em2_flat(cfg, &flat).flow
            },
            |i| i.reference,
        );
        self.inputs = Some(LocalInputs {
            trace: Arc::new(trace),
            placement: Arc::new(placement),
            order,
            reference,
            setup_layers: layers.layers(),
        });
        Ok(secs)
    }

    fn round(
        &mut self,
        kind: RoundKind,
        tracer: &Tracer,
        round: usize,
        _host_speed: f64,
    ) -> Result<RoundStats, String> {
        let i = self.inputs.as_ref().expect("set-up ran");
        let n = i.trace.num_threads();
        stamped::reset(n);
        let t0 = now_ns();
        let (report, _) = tracer.time("rt.run_tasks", None, round, || {
            let tasks = i.order.iter().map(|&t| stamped_task(&i.trace, t, t0));
            run_tasks(
                rt_config(n, kind.traced),
                "rt-local",
                tasks.collect(),
                Arc::clone(&i.placement),
                || Box::new(AlwaysMigrate),
                quotas(&i.trace),
            )
        });
        let ops = report.total_ops();
        let f = &report.flow;
        let agrees = (
            f.local_accesses,
            f.migrations,
            f.remote_reads,
            f.remote_writes,
        ) == (
            i.reference.local_accesses,
            i.reference.migrations,
            i.reference.remote_reads,
            i.reference.remote_writes,
        ) && f.evictions == 0
            && stamped::retired() == n as u64;
        let mut layers = sched_layers(&[&report], ops);
        layers.extend(i.setup_layers.iter().copied());
        Ok(RoundStats {
            secs: (stamped::last_retired_ns() - t0) as f64 * 1e-9,
            ops,
            failed: if agrees { 0 } else { ops },
            lat_ns: stamped::latencies_sorted(0..n),
            bytes_per_op: report.context_bytes_sent as f64 / ops.max(1) as f64,
            exact: report.context_bytes_sent,
            layers,
        })
    }

    fn nominal_ops(&self) -> u64 {
        self.inputs
            .as_ref()
            .map_or(1, |i| i.trace.total_accesses() as u64)
    }
}

// --------------------------------------------------------------- uds2-*

/// `uds2-migrate` / `uds2-remote`: 256 stamped trace tasks replaying
/// `micro::uniform(256, 16, 1000, 4096, 0.3, seed)` over 2 nodes × 8
/// shards on real Unix-domain sockets.
///
/// Under `AlwaysMigrate` nearly every access ships a ~170 B
/// continuation one way (envelope codec, egress lane, coalesced flush,
/// socket, inbox: byte-bound). Under `AlwaysRemote` the same layers
/// carry two small frames per access and no context (round-trip- and
/// per-frame-bound). A gain bought for one kind of frame that taxes
/// the other shows as the two workloads moving apart.
pub struct Uds2 {
    seed: u64,
    scheme: fn() -> Box<dyn DecisionScheme>,
    inputs: Option<UdsInputs>,
}

struct UdsInputs {
    trace: Arc<Trace>,
    placement: Arc<dyn Placement>,
    /// Single-process counters of the same stamped tasks.
    reference: CounterSummary,
    setup_layers: Vec<(&'static str, f64, Scale)>,
}

impl Uds2 {
    /// The migrate-everything variant.
    pub fn migrate(seed: u64) -> Uds2 {
        Uds2 {
            seed,
            scheme: || Box::new(AlwaysMigrate),
            inputs: None,
        }
    }

    /// The remote-access-everything variant.
    pub fn remote(seed: u64) -> Uds2 {
        Uds2 {
            seed,
            scheme: || Box::new(AlwaysRemote),
            inputs: None,
        }
    }

    fn cluster_setup(&self, i: &UdsInputs, traced: bool) -> ClusterSetup {
        let trace = Arc::clone(&i.trace);
        ClusterSetup {
            cfg: rt_config(trace.num_threads(), traced),
            placement: Arc::clone(&i.placement),
            scheme: self.scheme,
            quotas: quotas(&trace),
            registry: Box::new(move || {
                let mut r = TaskRegistry::new();
                let trace = Arc::clone(&trace);
                stamped::register(&mut r, KIND_TRACE, move |ctx| {
                    TraceTask::from_context_bytes(Arc::clone(&trace), ctx)
                });
                r
            }),
        }
    }
}

/// Cluster-wide wire layer observations of one round.
pub fn wire_layers(
    wire: &em2_net::WireSnapshot,
    ops: u64,
    bringup_s: f64,
    tail_s: f64,
) -> Vec<(&'static str, f64, Scale)> {
    let per = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    vec![
        ("net.frames_per_op", per(wire.frames_tx, ops), Scale::AsIs),
        (
            "net.bytes_per_frame",
            per(wire.bytes_tx, wire.frames_tx),
            Scale::AsIs,
        ),
        (
            "net.frames_per_flush",
            per(wire.frames_tx_total, wire.flushes_tx),
            Scale::AsIs,
        ),
        ("net.egress_hwm", wire.egress_hwm as f64, Scale::AsIs),
        (
            "net.ctx_bytes_per_migration",
            per(wire.context_bytes_tx, wire.arrives_tx),
            Scale::AsIs,
        ),
        ("net.bringup_ms", bringup_s * 1e3, Scale::Time),
        ("net.quiesce_tail_ms", tail_s * 1e3, Scale::Time),
    ]
}

/// `net.flush_ns_p50` from the nodes' own obs snapshots (traced rounds).
pub fn flush_layer(reports: &[em2_net::NetReport]) -> Option<(&'static str, f64, Scale)> {
    let flushes = reports
        .iter()
        .filter_map(|r| r.obs.as_ref())
        .map(|o| &o.flush_ns);
    let all = merged(flushes)?;
    Some(("net.flush_ns_p50", all.quantile(0.5) as f64, Scale::Time))
}

impl Workload for Uds2 {
    fn setup(&mut self, tracer: &Tracer, rep: usize) -> Result<f64, String> {
        let t0 = now_ns();
        let seed = self.seed;
        let (trace, placement, _, layers) = build_inputs(tracer, rep, || {
            micro::uniform(256, SHARDS, 1000, 4096, 0.3, seed)
        });
        let inputs_s = (now_ns() - t0) as f64 * 1e-9;
        let trace = Arc::new(trace);
        let placement: Arc<dyn Placement> = Arc::new(placement);
        let mut inputs = UdsInputs {
            trace: Arc::clone(&trace),
            placement: Arc::clone(&placement),
            reference: CounterSummary::default(),
            setup_layers: layers.layers(),
        };
        // Bring-up of an idle cluster is part of set-up; its tear-down
        // is not.
        let probe = run_cluster(
            &self.cluster_setup(&inputs, false),
            tracer,
            None,
            rep,
            |_, _| {},
        )?;
        let secs = inputs_s + probe.bringup_s;
        inputs.reference = match self.inputs.take() {
            Some(prev) => prev.reference,
            None => {
                let n = trace.num_threads();
                stamped::reset(n);
                let tasks = (0..n).map(|t| stamped_task(&trace, t, 0)).collect();
                CounterSummary::from_rt(&run_tasks(
                    rt_config(n, false),
                    "reference",
                    tasks,
                    placement,
                    self.scheme,
                    quotas(&trace),
                ))
            }
        };
        self.inputs = Some(inputs);
        Ok(secs)
    }

    fn round(
        &mut self,
        kind: RoundKind,
        tracer: &Tracer,
        round: usize,
        _host_speed: f64,
    ) -> Result<RoundStats, String> {
        let i = self.inputs.as_ref().expect("set-up ran");
        let n = i.trace.num_threads();
        stamped::reset(n);
        let setup = self.cluster_setup(i, kind.traced);
        let span = tracer.begin("round", None, round);
        // Both nodes stamp their submit instant; the round starts at
        // the earlier one.
        let t0 = std::sync::atomic::AtomicU64::new(u64::MAX);
        let out = run_cluster(&setup, tracer, Some(span), round, |node, nrt| {
            let (first, count) = (node * SHARDS / 2, SHARDS / 2);
            let now = now_ns();
            t0.fetch_min(now, std::sync::atomic::Ordering::SeqCst);
            for (t, th) in i.trace.threads.iter().enumerate() {
                if (first..first + count).contains(&th.native.index()) {
                    nrt.submit(stamped_task(&i.trace, t, now), th.thread);
                }
            }
        });
        tracer.end(span);
        let out = out?;
        let t0 = t0.into_inner();
        let last = stamped::last_retired_ns();
        let total = CounterSummary::sum(out.reports.iter().map(CounterSummary::from_net));
        let ops = total.total_ops();
        let agrees = total.counters_equal(&i.reference) && stamped::retired() == n as u64;
        let rts: Vec<&RtReport> = out.reports.iter().map(|r| &r.rt).collect();
        let mut layers = sched_layers(&rts, ops);
        layers.extend(wire_layers(
            &total.wire,
            ops,
            out.bringup_s,
            out.finished_ns.saturating_sub(last) as f64 * 1e-9,
        ));
        layers.extend(flush_layer(&out.reports));
        layers.extend(i.setup_layers.iter().copied());
        Ok(RoundStats {
            secs: last.saturating_sub(t0) as f64 * 1e-9,
            ops,
            failed: if agrees { 0 } else { ops },
            lat_ns: stamped::latencies_sorted(0..n),
            bytes_per_op: total.wire.bytes_tx as f64 / ops.max(1) as f64,
            exact: total.wire.bytes_tx,
            layers,
        })
    }

    fn nominal_ops(&self) -> u64 {
        self.inputs
            .as_ref()
            .map_or(1, |i| i.trace.total_accesses() as u64)
    }
}
