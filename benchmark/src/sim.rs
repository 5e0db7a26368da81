//! `sim-kernels`: the single-threaded simulators that regenerate the
//! paper's figures — EM², EM²-RA, the MSI baseline, the optimal DP and
//! the cycle-level NoC — over a seeded panel of two traces.
//!
//! `em2-rt` and `em2-net` do nothing here, so a runtime change must
//! not move this workload, and a simulator speed-up must leave
//! `sim.cycles_total` bit-identical.

use crate::protocol::{RoundKind, RoundStats, Scale, Workload};
use crate::spans::Tracer;
use crate::stamped::now_ns;
use em2_coherence::sim::{run_msi_flat, MsiConfig};
use em2_core::decision::HistoryPredictor;
use em2_core::machine::MachineConfig;
use em2_core::sim::{run_em2_flat, run_em2ra_flat};
use em2_model::{CostModel, Mesh, ThreadId};
use em2_noc::{CycleNoc, NocConfig, VirtualChannel};
use em2_optimal::migrate_ra::workload_optimal_flat;
use em2_placement::{FirstTouch, Placement};
use em2_trace::gen::{micro, ocean::OceanConfig};
use em2_trace::{FlatWorkload, Workload as Trace};

/// Cores of every simulated machine.
pub const CORES: usize = 16;
const LINE_BYTES: u64 = 64;

/// The OCEAN stand-in at the scale the repo's own calibration uses.
pub fn ocean(iterations: usize) -> Trace {
    OceanConfig {
        interior: 128,
        threads: CORES,
        cores: CORES,
        iterations,
        levels: 3,
        ..OceanConfig::default()
    }
    .generate()
}

/// Per-access set-up costs, observed while building one trace's inputs.
pub struct SetupLayers {
    /// Accesses generated.
    pub accesses: usize,
    /// Seconds in the generator.
    pub gen_s: f64,
    /// Seconds in `FirstTouch::build`.
    pub placement_s: f64,
    /// Seconds in `FlatWorkload::build`.
    pub flatten_s: f64,
}

impl SetupLayers {
    /// The three `*_ns_per_access` layer observations.
    pub fn layers(&self) -> Vec<(&'static str, f64, Scale)> {
        let per = |s: f64| s * 1e9 / self.accesses.max(1) as f64;
        vec![
            ("trace.gen_ns_per_access", per(self.gen_s), Scale::Time),
            (
                "placement.build_ns_per_access",
                per(self.placement_s),
                Scale::Time,
            ),
            (
                "trace.flatten_ns_per_access",
                per(self.flatten_s),
                Scale::Time,
            ),
        ]
    }
}

/// Generate a trace, place it first-touch and flatten it, timing each.
pub fn build_inputs(
    tracer: &Tracer,
    round: usize,
    gen: impl FnOnce() -> Trace,
) -> (Trace, FirstTouch, FlatWorkload, SetupLayers) {
    let (w, gen_s) = tracer.time("trace.gen", None, round, gen);
    let (p, placement_s) = tracer.time("placement.build", None, round, || {
        FirstTouch::build(&w, CORES, LINE_BYTES)
    });
    let (flat, flatten_s) = tracer.time("trace.flatten", None, round, || {
        FlatWorkload::build(&w, LINE_BYTES, |a| p.home_of(a))
    });
    let layers = SetupLayers {
        accesses: w.total_accesses(),
        gen_s,
        placement_s,
        flatten_s,
    };
    (w, p, flat, layers)
}

/// The workload.
pub struct SimKernels {
    seed: u64,
    panel: Vec<FlatWorkload>,
    setup_layers: Vec<(&'static str, f64, Scale)>,
}

impl SimKernels {
    /// A workload whose seeded half is drawn from `seed`.
    pub fn new(seed: u64) -> SimKernels {
        SimKernels {
            seed,
            panel: Vec::new(),
            setup_layers: Vec::new(),
        }
    }
}

/// The fixed NoC packet set: every ordered pair of a 4×4 mesh on all
/// six virtual channels (the repo's `six_class_storm`).
fn noc_storm() -> u64 {
    let mesh = Mesh::new(4, 4);
    let mut noc = CycleNoc::new(NocConfig {
        mesh,
        ..NocConfig::default()
    });
    for s in mesh.iter() {
        for d in mesh.iter() {
            if s != d {
                for vc in VirtualChannel::ALL {
                    noc.inject(s, d, vc, 256);
                }
            }
        }
    }
    noc.run_until_idle(10_000_000)
        .expect("the storm drains: XY routing on separate VCs cannot deadlock")
}

/// `engine.event_ns`: one push plus one pop on a queue holding 1024
/// events, the steady state of the simulators' event loops.
pub fn event_queue_ns() -> f64 {
    const N: u64 = 1_000_000;
    let mut q: em2_engine::EventQueue<u32> = em2_engine::EventQueue::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..1024u64 {
        q.push(i, ThreadId(0), 0, 0);
    }
    let t0 = now_ns();
    for _ in 0..N {
        let ev = q.pop().expect("queue never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.push(ev.time + 1 + (x & 63), ev.thread, 0, ev.kind);
    }
    std::hint::black_box(q.len());
    (now_ns() - t0) as f64 / N as f64
}

impl Workload for SimKernels {
    fn setup(&mut self, tracer: &Tracer, rep: usize) -> Result<f64, String> {
        let t0 = now_ns();
        let (_, _, ocean_flat, a) = build_inputs(tracer, rep, || ocean(2));
        let seed = self.seed;
        let (_, _, uniform_flat, b) = build_inputs(tracer, rep, || {
            micro::uniform(CORES, CORES, 5_000, 4096, 0.3, seed)
        });
        let secs = (now_ns() - t0) as f64 * 1e-9;
        let total = SetupLayers {
            accesses: a.accesses + b.accesses,
            gen_s: a.gen_s + b.gen_s,
            placement_s: a.placement_s + b.placement_s,
            flatten_s: a.flatten_s + b.flatten_s,
        };
        self.setup_layers = total.layers();
        self.panel = vec![ocean_flat, uniform_flat];
        Ok(secs)
    }

    fn round(
        &mut self,
        _kind: RoundKind,
        tracer: &Tracer,
        round: usize,
        _host_speed: f64,
    ) -> Result<RoundStats, String> {
        let span = tracer.begin("round", None, round);
        let t0 = now_ns();
        let mut s = RoundStats::default();
        let mut context_bytes = 0u64;
        let mut kernel_s = [0.0f64; 4];
        let mut kernel_ops = [0u64; 4];
        let mut call = |s: &mut RoundStats, k: usize, secs: f64, ops: u64, cycles: u64| {
            kernel_s[k] += secs;
            kernel_ops[k] += ops;
            s.ops += ops;
            s.exact = s.exact.wrapping_add(cycles);
            s.lat_ns.push((secs * 1e9) as u64);
        };
        let cost: CostModel = MachineConfig::with_cores(CORES).cost;
        for flat in &self.panel {
            let n = flat.total_accesses() as u64;

            let (r, secs) = tracer.time("core.run_em2_flat", Some(span), round, || {
                run_em2_flat(MachineConfig::with_cores(CORES), flat)
            });
            if !r.violations.is_empty() || r.flow.total_accesses() != n {
                s.failed += n;
            }
            context_bytes += r.context_bits_sent / 8;
            call(&mut s, 0, secs, n, r.cycles);

            let (r, secs) = tracer.time("core.run_em2ra_flat", Some(span), round, || {
                run_em2ra_flat(
                    MachineConfig::with_cores(CORES),
                    flat,
                    Box::new(HistoryPredictor::new(1.0, 0.5)),
                )
            });
            if !r.violations.is_empty() || r.flow.total_accesses() != n {
                s.failed += n;
            }
            context_bytes += r.context_bits_sent / 8;
            call(&mut s, 1, secs, n, r.cycles);

            let (r, secs) = tracer.time("coherence.run_msi_flat", Some(span), round, || {
                run_msi_flat(MsiConfig::with_cores(CORES), flat)
            });
            if !r.violations.is_empty() || r.total_accesses() != n {
                s.failed += n;
            }
            call(&mut s, 2, secs, n, r.cycles);

            let ((bound, _), secs) =
                tracer.time("optimal.workload_optimal_flat", Some(span), round, || {
                    workload_optimal_flat(flat, &cost, 1)
                });
            call(&mut s, 3, secs, n, bound);
        }
        let (noc_cycles, noc_s) = tracer.time("noc.storm", Some(span), round, noc_storm);
        s.exact = s.exact.wrapping_add(noc_cycles);
        s.lat_ns.push((noc_s * 1e9) as u64);
        s.lat_ns.sort_unstable();
        s.secs = (now_ns() - t0) as f64 * 1e-9;
        s.bytes_per_op = context_bytes as f64 / s.ops.max(1) as f64;
        tracer.end(span);

        let per = |k: usize| kernel_s[k] * 1e9 / kernel_ops[k].max(1) as f64;
        s.layers = vec![
            ("core.em2_ns_per_access", per(0), Scale::Time),
            ("core.em2ra_ns_per_access", per(1), Scale::Time),
            ("coherence.msi_ns_per_access", per(2), Scale::Time),
            ("optimal.dp_ns_per_access", per(3), Scale::Time),
            (
                "noc.ns_per_cycle",
                noc_s * 1e9 / noc_cycles.max(1) as f64,
                Scale::Time,
            ),
            ("sim.cycles_total", s.exact as f64, Scale::AsIs),
        ];
        s.layers.extend(self.setup_layers.iter().copied());
        Ok(s)
    }

    fn nominal_ops(&self) -> u64 {
        self.panel
            .iter()
            .map(|f| 4 * f.total_accesses() as u64)
            .sum()
    }
}
