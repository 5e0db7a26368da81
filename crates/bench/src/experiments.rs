//! The fourteen experiments (E1–E14): E1–E9 each regenerate one paper
//! artifact; E10 exercises the engine's contention layer beyond the
//! paper's closed-form model; E11 cross-validates the executable
//! `em2-rt` runtime against the simulator and measures its wall-clock
//! throughput; E12 cross-validates the **distributed** runtime (the
//! `em2-net` cluster) against the single-process one and records the
//! context-bytes-on-the-wire telemetry; E13 proves the same agreement
//! **through live shard handoffs** — elastic membership re-homing
//! shards mid-workload without moving a single counter; E14 scores
//! the placement the runtime actually executed — the telemetry
//! plane's attributed cost vs the DP bound on the same stream.
//!
//! Every experiment is decomposed into independent **cells** — one
//! (config, workload, scheme) combination each — and fanned across the
//! [`crate::par`] worker pool with a deterministic ordered reduce, so
//! the rendered tables are byte-identical whatever the worker count.
//! Workloads that feed several cells are built **once** into an
//! [`em2_trace::FlatWorkload`] (homes resolved through the placement a
//! single time) and shared by reference; see DESIGN.md §6.
//!
//! Each experiment is one row of [`EXPERIMENTS`]: its id, its function
//! and whether it runs `solo`. The solo ones *measure host time* (the
//! DP kernels, the executable runtime) or start whole node fleets, so
//! they run alone after the parallel phase; the columns they fill
//! from the host they declare on their own table
//! ([`Table::host_columns`]), which is all the determinism
//! fingerprint excludes.

use crate::par::{self, run_cells, Cell};
use crate::scorecard::SchemeFactory;
use crate::table::{fmt_count, fmt_f, Table};
use crate::workloads::{self, Scale};
use em2_core::{
    decision::{
        AlwaysMigrate, AlwaysRemote, CostBreakEven, DecisionCtx, DecisionScheme, DistanceThreshold,
        HistoryPredictor, MarkovPredictor,
    },
    machine::MachineConfig,
    sim::{run_em2, run_em2_flat, run_em2ra_flat},
    stats::SimReport,
    Contention, QueuedParams, RunMonitor, RUN_BINS,
};
use em2_model::{CoreId, CostModel, Histogram, Mesh};
use em2_net::{ClusterRun, ClusterSpec, CounterSummary, NetReport};
use em2_noc::{CycleNoc, NocConfig, VirtualChannel};
use em2_optimal::{migrate_ra, stack_depth, Choice, CostTrace};
use em2_placement::{run_length_analysis, Placement};
use em2_stack::{extract_visits, program, SparseMemory, StackMachine};
use em2_trace::{FlatWorkload, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Build the flat (SoA, homes-resolved) view of a workload under the
/// experiment-standard 64-byte lines.
fn flatten(w: &Workload, p: &dyn Placement) -> FlatWorkload {
    FlatWorkload::build(w, 64, |a| p.home_of(a))
}

/// Evaluate an `em2-core` decision scheme against the paper's network
/// cost model (the §3 `O(N)` evaluation), including run-length
/// feedback for learning schemes. Returns the summed network cost over
/// all threads. Iterates the flat workload's contiguous home/kind
/// arrays, so evaluating many schemes against one workload resolves
/// the placement once instead of once per scheme.
pub fn scheme_network_cost_flat(
    flat: &FlatWorkload,
    cost: &CostModel,
    scheme: &mut dyn DecisionScheme,
) -> u64 {
    // Run-length feedback through the simulator's run rule.
    let mut runs = RunMonitor::new(flat.threads.iter().map(|t| t.native).collect(), RUN_BINS);
    let mut total = 0u64;
    for t in &flat.threads {
        let mut at = t.native;
        for (&home, &kind) in t.home.iter().zip(&t.kind) {
            runs.track(t.thread, home, &mut |th, c, len| {
                scheme.observe_run(th, c, len)
            });
            if home == at {
                continue;
            }
            let d = scheme.decide(&DecisionCtx {
                thread: t.thread,
                current: at,
                home,
                native: t.native,
                kind,
                cost,
            });
            match d {
                em2_core::Decision::Migrate => {
                    total += cost.migration_latency(at, home);
                    at = home;
                }
                em2_core::Decision::Remote => {
                    total += cost.remote_access_latency(at, home, kind);
                }
            }
        }
        runs.flush(t.thread, &mut |th, c, len| scheme.observe_run(th, c, len));
    }
    total
}

/// The Figure-1/Figure-3 edge-count table: one [`flow_row`] per
/// simulation.
fn flow_table(title: &str, first: &str) -> Table {
    let edges = [
        "local",
        "migrations",
        "evictions",
        "ra-read",
        "ra-write",
        "cycles",
        "AMAT",
    ];
    let headers: Vec<&str> = std::iter::once(first).chain(edges).collect();
    Table::new(title, &headers)
}

fn flow_row(name: &str, r: &SimReport) -> Vec<String> {
    vec![
        name.to_string(),
        fmt_count(r.flow.local_accesses),
        fmt_count(r.flow.migrations),
        fmt_count(r.flow.evictions),
        fmt_count(r.flow.remote_reads),
        fmt_count(r.flow.remote_writes),
        fmt_count(r.cycles),
        fmt_f(r.amat(), 2),
    ]
}

/// E1 — Figure 1: the life of a memory access under EM². Counts every
/// edge of the flow chart on three contrasting workloads; the three
/// simulations are independent sweep cells.
pub fn e1_flow_em2(scale: Scale) -> Table {
    let mut t = flow_table("E1 / Figure 1 — EM2 access flow (edge counts)", "workload");
    let names = ["pingpong", "ocean", "hotspot"];
    t.extend(par::par_map(names.to_vec(), |name| {
        let w = workloads::by_name(name, scale);
        let p = workloads::first_touch(&w, scale);
        let mut cfg = MachineConfig::with_cores(scale.cores());
        cfg.guest_contexts = 2;
        let r = run_em2(cfg, &w, &p);
        assert!(r.violations.is_empty(), "E1 {name}: {:?}", r.violations);
        assert_eq!(
            r.flow.remote_reads + r.flow.remote_writes,
            0,
            "pure EM² has no RA edge"
        );
        flow_row(name, &r)
    }));
    t.note("pure EM2: every non-local access takes the migrate edge; the eviction edge fires only under guest-context pressure");
    t
}

/// E2 — Figure 2: non-native accesses binned by run length, OCEAN,
/// first-touch. Returns the table; the histogram is also returned for
/// chart rendering.
pub fn e2_ocean_runlengths(scale: Scale) -> (Table, Histogram) {
    let w = workloads::ocean(scale);
    let p = workloads::first_touch(&w, scale);
    let a = run_length_analysis(&w, &p, 60);

    let mut t = Table::new(
        "E2 / Figure 2 — # accesses to non-native memory, by run length (OCEAN, first-touch)",
        &["run length", "accesses (weighted)", "runs"],
    );
    for (len, weighted) in a.histogram.iter_weighted() {
        if weighted == 0 {
            continue;
        }
        t.row(vec![
            len.to_string(),
            fmt_count(weighted),
            fmt_count(a.histogram.count(len)),
        ]);
    }
    if a.histogram.overflow() > 0 {
        t.row(vec![
            ">60".into(),
            format!(
                "≥{}",
                fmt_count(a.histogram.overflow_weighted_lower_bound())
            ),
            fmt_count(a.histogram.overflow()),
        ]);
    }
    t.note(format!(
        "total accesses {}, non-native {} ({:.1}%)",
        fmt_count(a.total_accesses),
        fmt_count(a.non_native_accesses),
        100.0 * a.non_native_fraction()
    ));
    t.note(format!(
        "single-access fraction = {:.3} (paper: \"about half\"), mean run = {:.2}",
        a.single_access_fraction(),
        a.mean_run_length()
    ));
    (t, a.histogram)
}

/// E3 — Figure 3: the life of a memory access under EM²-RA; the same
/// flows with the remote-access edges now taken. One flat workload,
/// five machine cells.
pub fn e3_flow_em2ra(scale: Scale) -> Table {
    let mut t = flow_table(
        "E3 / Figure 3 — EM2-RA access flow (edge counts)",
        "workload/scheme",
    );
    let w = workloads::ocean(scale);
    let p = workloads::first_touch(&w, scale);
    let flat = flatten(&w, &p);
    let cfg = MachineConfig::with_cores(scale.cores());
    let names = [
        "ocean/always-migrate",
        "ocean/history",
        "ocean/markov",
        "ocean/distance<=2",
        "ocean/always-remote",
    ];
    t.extend(par::par_map(names.to_vec(), |name| {
        let scheme: Box<dyn DecisionScheme> = match name {
            "ocean/always-migrate" => Box::new(AlwaysMigrate),
            "ocean/history" => history_scheme(),
            "ocean/markov" => Box::new(MarkovPredictor::new(1.0, 0.5)),
            "ocean/distance<=2" => Box::new(DistanceThreshold { max_hops: 2 }),
            _ => Box::new(AlwaysRemote),
        };
        let r = run_em2ra_flat(cfg.clone(), &flat, scheme);
        assert!(r.violations.is_empty(), "E3 {name}: {:?}", r.violations);
        flow_row(name, &r)
    }));
    t.note(
        "EM2-RA replaces one-off migrations with round-trip remote accesses (Figure 3's new edges)",
    );
    t
}

/// E4 — §3 analytical model: DP-optimal decision cost as the bound for
/// hardware-implementable schemes, per workload. One cell per workload;
/// within a cell the flat trace feeds the DP and all six schemes.
pub fn e4_optimal_vs_schemes(scale: Scale) -> Table {
    let cost = CostModel::builder().cores(scale.cores()).build();
    let mut t = Table::new(
        "E4 / §3 — network cost: DP optimal vs decision schemes (% of optimal)",
        &[
            "workload",
            "optimal",
            "always-mig",
            "always-RA",
            "dist<=2",
            "break-even(2)",
            "history",
            "markov",
        ],
    );
    let names = [
        "ocean", "fft", "radix", "synth", "lu", "uniform", "pingpong",
    ];
    t.extend(par::par_map(names.to_vec(), |name| {
        let w = workloads::by_name(name, scale);
        let p = workloads::first_touch(&w, scale);
        let flat = flatten(&w, &p);
        // Outer cells already span the pool; keep the nested DP fan-out
        // bounded so worker counts don't multiply across levels.
        let inner = par::threads().min(4);
        let (opt, _) = migrate_ra::workload_optimal_flat(&flat, &cost, inner);
        let pct = |c: u64| {
            if opt == 0 {
                if c == 0 {
                    "100%".to_string()
                } else {
                    format!("{c} (opt=0)")
                }
            } else {
                format!("{:.0}%", 100.0 * c as f64 / opt as f64)
            }
        };
        // In header order.
        let schemes: [Box<dyn DecisionScheme>; 6] = [
            Box::new(AlwaysMigrate),
            Box::new(AlwaysRemote),
            Box::new(DistanceThreshold { max_hops: 2 }),
            Box::new(CostBreakEven { expected_run: 2.0 }),
            history_scheme(),
            Box::new(MarkovPredictor::new(1.0, 0.5)),
        ];
        let mut row = vec![name.to_string(), fmt_count(opt)];
        for mut scheme in schemes {
            let c = scheme_network_cost_flat(&flat, &cost, &mut *scheme);
            assert!(c >= opt, "{name}: a scheme ({c}) beat the optimum ({opt})");
            row.push(pct(c));
        }
        row
    }));
    t.note("optimal = paper's dynamic program (per-thread, summed); schemes evaluated with the paper's O(N) replay");
    t
}

/// E5 — §3 complexity: measured runtime of the DP (`O(N·P)`
/// transcription), the relaxed `O(N·P²)` variant, and the `O(N)`
/// evaluator, over trace length and core count.
///
/// Because the cells *time* the kernels, E5 is a `solo` row of
/// [`EXPERIMENTS`]: [`run_suite`] runs it **after** the parallel phase
/// has finished, so no foreign suite work contends with the
/// measurements; each (N, P) config takes the min of 3 reps. The three
/// timing columns are the host's, and declared so.
pub fn e5_dp_scaling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5 / §3 — DP runtime scaling (µs per solve, medians of 3)",
        &[
            "N",
            "P",
            "optimal O(N·P)",
            "general O(N·P²)",
            "evaluate O(N)",
        ],
    );
    t.host_columns(&["optimal O(N·P)", "general O(N·P²)", "evaluate O(N)"]);
    let (ns, ps): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Full => (vec![1_000, 4_000, 16_000], vec![16, 64, 256]),
        Scale::Quick => (vec![1_000, 4_000], vec![16, 64]),
    };
    let mut rng = em2_model::DetRng::new(0xE5);
    for &n in &ns {
        for &p in &ps {
            let cost = CostModel::builder().cores(p).build();
            let homes: Vec<(CoreId, em2_model::AccessKind)> = (0..n)
                .map(|_| {
                    (
                        CoreId::from(rng.below(p as u64) as usize),
                        em2_model::AccessKind::Read,
                    )
                })
                .collect();
            let trace = CostTrace {
                start: CoreId(0),
                accesses: homes,
            };
            let time_us = |f: &mut dyn FnMut() -> u64| {
                let mut best = f64::MAX;
                for _ in 0..3 {
                    let s = Instant::now();
                    let v = f();
                    let us = s.elapsed().as_secs_f64() * 1e6;
                    std::hint::black_box(v);
                    best = best.min(us);
                }
                best
            };
            let o = time_us(&mut || migrate_ra::optimal(&trace, &cost).cost);
            let g = time_us(&mut || migrate_ra::optimal_general(&trace, &cost));
            let e =
                time_us(&mut || migrate_ra::evaluate(&trace, &cost, |_, _, _, _| Choice::Remote));
            t.row(vec![
                fmt_count(n as u64),
                p.to_string(),
                fmt_f(o, 1),
                fmt_f(g, 1),
                fmt_f(e, 1),
            ]);
        }
    }
    t.note("optimal grows ~linearly in P, general ~quadratically, evaluate independent of P — the paper's O(N·P²) is a safe upper bound");
    t.note("timings are host wall-clock: reproducible in shape, not in value");
    t
}

/// E6 — §4: migrated context size, register machine vs stack machine
/// at fixed depths vs the optimal-depth DP, per kernel. One cell per
/// kernel (the stack-machine extraction dominates).
pub fn e6_stack_depth(scale: Scale) -> Table {
    let cores = scale.cores();
    let cost = CostModel::builder().cores(cores).build();
    let params = stack_depth::DepthChoice::default();
    let mut t = Table::new(
        "E6 / §4 — stack-machine EM2: cost and context bits per policy",
        &[
            "kernel",
            "visits",
            "policy",
            "net cost",
            "bits shipped",
            "vs register",
        ],
    );

    let n: u32 = match scale {
        Scale::Full => 4096,
        Scale::Quick => 1024,
    };
    // Arrays striped over cores at 256-byte granularity; the second
    // array's base is offset by one stripe so the two operand streams
    // live at *different* homes and the loops genuinely commute
    // between cores (as distributed arrays under real placement do).
    let second = 0x4_0000 + 0x100;
    let kernel_names = ["dot_product", "memcpy", "stencil1d", "tree_sum"];
    let row_groups = par::par_map(kernel_names.to_vec(), |name| {
        let k = match name {
            "dot_product" => program::dot_product(0x0000, second, n, 0x8_0000),
            "memcpy" => program::memcpy(0x0000, second, n),
            "stencil1d" => program::stencil1d(0x0000, second, n),
            _ => program::tree_sum(0x0000, n, 0x8_0000),
        };
        let mut mem = SparseMemory::new();
        mem.load_words(0x0000, &vec![1u32; n as usize]);
        mem.load_words(second, &vec![2u32; n as usize]);
        let placement = em2_placement::Striped::new(cores, 256);
        let vt = extract_visits(
            StackMachine::new(k),
            &mut mem,
            &placement,
            CoreId(0),
            200_000_000,
        )
        .expect(name);
        let (reg_cost, reg_bits) =
            stack_depth::evaluate_register_machine(vt.start, &vt.visits, &cost);
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut push_row = |policy: &str, c: u64, bits: u64| {
            let ratio = if reg_cost == 0 {
                "-".to_string()
            } else {
                format!("{:.2}x", c as f64 / reg_cost as f64)
            };
            rows.push(vec![
                name.to_string(),
                fmt_count(vt.visits.len() as u64),
                policy.to_string(),
                fmt_count(c),
                fmt_count(bits),
                ratio,
            ]);
        };
        push_row("register-EM2", reg_cost, reg_bits);
        for d in [2u32, 4, 8, 16] {
            let (c, bits) =
                stack_depth::evaluate_fixed_depth(vt.start, &vt.visits, d, &params, &cost);
            push_row(&format!("stack depth={d}"), c, bits);
        }
        let opt = stack_depth::stack_optimal(vt.start, &vt.visits, &params, &cost);
        push_row("stack optimal-depth (DP)", opt.cost, opt.bits_shipped);
        rows
    });
    t.extend(row_groups.into_iter().flatten());
    t.note("bits shipped = total context bits over all migrations incl. bounces; register context = 1120 bits/migration");
    t
}

/// E7 — §2: EM² and EM²-RA vs directory MSI on shared workloads. One
/// cell per workload; the flat trace is shared by all four machines.
pub fn e7_cc_vs_em2(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7 / §2 — EM2 vs EM2-RA vs directory-MSI",
        &[
            "workload",
            "machine",
            "cycles",
            "AMAT",
            "flit-hops",
            "off-chip/acc",
            "extra",
        ],
    );
    let cores = scale.cores();
    let names = ["ocean", "fft", "uniform", "prod-cons"];
    let row_groups = par::par_map(names.to_vec(), |name| {
        let w = workloads::by_name(name, scale);
        let p = workloads::first_touch(&w, scale);
        let flat = flatten(&w, &p);
        let cfg = MachineConfig::with_cores(cores);
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut em2_row = |machine: &str, r: &SimReport, extra: String| {
            rows.push(vec![
                name.into(),
                machine.into(),
                fmt_count(r.cycles),
                fmt_f(r.amat(), 1),
                fmt_count(r.traffic.total()),
                fmt_f(
                    r.caches.l2_misses as f64 / r.flow.total_accesses().max(1) as f64,
                    4,
                ),
                extra,
            ]);
        };
        let ra_count = |r: &SimReport| fmt_count(r.flow.remote_reads + r.flow.remote_writes);

        let em2 = run_em2_flat(cfg.clone(), &flat);
        em2_row("EM2", &em2, format!("{} evictions", em2.flow.evictions));
        let ra = run_em2ra_flat(cfg.clone(), &flat, history_scheme());
        let extra = format!(
            "{} mig / {} RA",
            fmt_count(ra.flow.migrations),
            ra_count(&ra)
        );
        em2_row("EM2-RA(history)", &ra, extra);
        let pure_ra = run_em2ra_flat(cfg.clone(), &flat, Box::new(AlwaysRemote));
        em2_row(
            "remote-only [15]",
            &pure_ra,
            format!("{} RA", ra_count(&pure_ra)),
        );

        let msi = em2_coherence::run_msi_flat(em2_coherence::MsiConfig::with_cores(cores), &flat);
        assert!(msi.violations.is_empty(), "E7 {name}: {:?}", msi.violations);
        rows.push(vec![
            name.into(),
            "directory-MSI".into(),
            fmt_count(msi.cycles),
            fmt_f(msi.amat(), 1),
            fmt_count(msi.total_flit_hops()),
            fmt_f(
                msi.caches.l2_misses as f64 / msi.total_accesses().max(1) as f64,
                4,
            ),
            format!(
                "repl {:.2}, dir {} Kbit",
                msi.peak_replication,
                msi.directory_bits / 1024
            ),
        ]);
        rows
    });
    t.extend(row_groups.into_iter().flatten());
    t.note("same caches, placement, cost model for all machines; MSI data messages carry whole 64-byte lines");
    t
}

/// E8 — §5: sensitivity of EM² performance to migrated context size
/// and link width ("improves latency especially on low-bandwidth
/// interconnects"). One flat workload, ten (link × context) cells —
/// the sweep reruns the simulation 10×, so it runs at quick scale
/// whatever the suite's.
pub fn e8_context_size(_scale: Scale) -> Table {
    let mut t = Table::new(
        "E8 / §5 — EM2 sensitivity to context size × link width (ocean)",
        &[
            "context bits",
            "link bits",
            "cycles",
            "mean mig latency",
            "traffic flit-hops",
        ],
    );
    let sweep_scale = Scale::Quick;
    let w = workloads::ocean(sweep_scale);
    let p = workloads::first_touch(&w, sweep_scale);
    let flat = flatten(&w, &p);
    let mut cells: Vec<(u64, u64)> = Vec::new();
    for &link in &[32u64, 128] {
        for &bits in &[256u64, 512, 1120, 2048, 4096] {
            cells.push((link, bits));
        }
    }
    t.extend(par::par_map(cells, |(link, bits)| {
        let cost = CostModel::builder()
            .cores(sweep_scale.cores())
            .link_width_bits(link)
            .context_bits(bits)
            .build();
        let cfg = MachineConfig {
            cost,
            ..MachineConfig::with_cores(sweep_scale.cores())
        };
        let r = run_em2_flat(cfg, &flat);
        vec![
            bits.to_string(),
            link.to_string(),
            fmt_count(r.cycles),
            fmt_f(r.migration_latency.mean().unwrap_or(0.0), 1),
            fmt_count(r.traffic.total()),
        ]
    }));
    t.note("smaller contexts shrink migration latency and traffic; the effect is strongest on narrow links — §4's motivation");
    t
}

/// One uncontended packet from the mesh's corner to `(dx, dy)` on the
/// cycle-level NoC, or `None` when the mesh is too small to hold the
/// probe: `(hops, measured latency, closed form)`. The closed form is
/// hops + serialization at the cycle router's 1 cycle/hop, plus the
/// cycle model's 2 cycles of injection/ejection overhead — the
/// calibration E9 tabulates and E10 holds its uncontended column to.
fn noc_probe(mesh: Mesh, (dx, dy): (u16, u16), vc: VirtualChannel, bits: u64) -> Option<[u64; 3]> {
    if dx >= mesh.width() || dy >= mesh.height() {
        return None;
    }
    let cm = CostModel::builder().mesh(mesh).hop_latency(1).build();
    let (src, dst) = (mesh.at(0, 0), mesh.at(dx, dy));
    let mut noc = CycleNoc::new(NocConfig {
        mesh,
        ..NocConfig::default()
    });
    noc.inject(src, dst, vc, bits);
    noc.run_until_idle(100_000).expect("uncontended deadlock?!");
    let measured = noc.take_deliveries()[0].latency();
    Some([
        mesh.hops(src, dst),
        measured,
        cm.one_way(src, dst, bits) + 2,
    ])
}

/// E9 — §2/§3: cycle-level NoC validation — closed-form latency check
/// and deadlock-freedom under an adversarial storm with all six
/// virtual channels busy. Latency probes and the storm are independent
/// cells (each owns a private `CycleNoc`).
pub fn e9_noc_validation(scale: Scale) -> Table {
    let mesh = Mesh::square_for(scale.cores());
    let mut t = Table::new(
        "E9 — cycle-level NoC vs closed-form model; deadlock-freedom storm",
        &[
            "case",
            "hops",
            "payload bits",
            "cycle-level",
            "closed-form",
            "delta",
        ],
    );
    // (a) Uncontended latency across distances and payload sizes.
    let mut cells: Vec<Cell<'_, Vec<Vec<String>>>> = Vec::new();
    for to in [(1u16, 0u16), (3, 2), (7, 7)] {
        for bits in [64u64, 1120, 4096] {
            cells.push(Box::new(move || {
                let probe = noc_probe(mesh, to, VirtualChannel::Migration, bits);
                Vec::from_iter(probe.map(|[hops, measured, model]| {
                    vec![
                        "latency".into(),
                        hops.to_string(),
                        bits.to_string(),
                        measured.to_string(),
                        model.to_string(),
                        format!("{:+}", measured as i64 - model as i64),
                    ]
                }))
            }));
        }
    }
    // (b) Deadlock storm: all-to-all traffic on every class at once.
    cells.push(Box::new(move || {
        let mut noc = CycleNoc::new(NocConfig {
            mesh,
            ..NocConfig::default()
        });
        let classes = [
            (VirtualChannel::Migration, 1120),
            (VirtualChannel::Eviction, 1120),
            (VirtualChannel::RemoteReq, 72),
            (VirtualChannel::RemoteResp, 64),
            (VirtualChannel::CohReq, 72),
            (VirtualChannel::CohResp, 584),
        ];
        for s in mesh.iter() {
            for d in mesh.iter() {
                if s != d && (s.index() + d.index()) % 3 == 0 {
                    for &(vc, bits) in &classes {
                        noc.inject(s, d, vc, bits);
                    }
                }
            }
        }
        let injected = noc.stats().injected;
        let cycles = noc
            .run_until_idle(100_000_000)
            .expect("E9 storm deadlocked — VC discipline broken");
        assert_eq!(noc.stats().delivered, injected);
        vec![vec![
            "storm".into(),
            "all".into(),
            "mixed".into(),
            format!(
                "{} pkts in {} cycles",
                fmt_count(injected),
                fmt_count(cycles)
            ),
            "delivered: all".into(),
            "no deadlock".into(),
        ]]
    }));
    t.extend(run_cells(cells).into_iter().flatten());
    t.note("six virtual channels as required by §3; wormhole + XY routing + per-class VCs drain an adversarial storm");
    t
}

/// E10 — contention sensitivity: the E1/E3/E7 workloads under
/// [`Contention::Off`] vs [`Contention::Queued`] for all three
/// machines (EM², EM²-RA with the history scheme, directory MSI).
/// `Off` reproduces the closed-form timing bit-exactly (the golden
/// digest test pins this); `Queued` adds FIFO service queueing at home
/// cores and per-link bandwidth occupancy, both derived from the same
/// `CostModel` parameters. One cell per workload; the flat trace is
/// shared by all six (machine × contention) simulations in the cell.
///
/// The uncontended column is cross-checked against the cycle-level NoC
/// exactly as E9 calibrates it: a probe packet's measured latency must
/// equal the closed form plus the router's 2 injection/ejection cycles.
pub fn e10_contention(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10 — contention on/off across machines (queued = FIFO home ports + link bandwidth)",
        &[
            "workload",
            "machine",
            "cycles (off)",
            "cycles (queued)",
            "slowdown",
            "wait link/home",
        ],
    );
    let cores = scale.cores();

    // Cross-check the uncontended closed form against the cycle-level
    // NoC (the E9 calibration).
    let mesh = Mesh::square_for(cores);
    for (to, bits) in [((1u16, 0u16), 72u64), ((3, 2), 1120)] {
        if let Some([_, measured, model]) = noc_probe(mesh, to, VirtualChannel::RemoteReq, bits) {
            assert_eq!(
                measured, model,
                "E10: closed form out of calibration with the cycle NoC {to:?}×{bits}b"
            );
        }
    }

    let names = [
        "pingpong",
        "ocean",
        "hotspot",
        "fft",
        "uniform",
        "prod-cons",
    ];
    let row_groups = par::par_map(names.to_vec(), |name| {
        let w = workloads::by_name(name, scale);
        let p = workloads::first_touch(&w, scale);
        let flat = flatten(&w, &p);
        let base_cfg = MachineConfig::with_cores(cores);
        let queued = Contention::Queued(QueuedParams::from_cost(&base_cfg.cost));
        let em2_cfg = |contention| MachineConfig {
            contention,
            ..MachineConfig::with_cores(cores)
        };
        // What a row needs of a run, whichever machine ran it:
        // [cycles, link wait, home wait], from a violation-free run.
        let sim = |r: SimReport| {
            assert!(r.violations.is_empty(), "E10 {name}: {:?}", r.violations);
            [r.cycles, r.queue_link_wait_cycles, r.queue_home_wait_cycles]
        };
        let em2 = |contention| sim(run_em2_flat(em2_cfg(contention), &flat));
        let ra = |contention| sim(run_em2ra_flat(em2_cfg(contention), &flat, history_scheme()));
        let msi = |contention| {
            let cfg = em2_coherence::MsiConfig {
                contention,
                ..em2_coherence::MsiConfig::with_cores(cores)
            };
            let r = em2_coherence::run_msi_flat(cfg, &flat);
            assert!(r.violations.is_empty(), "E10 {name}: {:?}", r.violations);
            [r.cycles, r.queue_link_wait_cycles, r.queue_home_wait_cycles]
        };
        type Run<'a> = &'a dyn Fn(Contention) -> [u64; 3];
        let machines: [(&str, Run<'_>); 3] = [
            ("EM2", &em2),
            ("EM2-RA(history)", &ra),
            ("directory-MSI", &msi),
        ];
        // No makespan assert: per-operation latency is provably never
        // below the closed form (the kernel proptests), but queueing
        // reorders events, so whole-run makespan is not an invariant —
        // a <1.00x slowdown cell is the visible signal.
        machines.map(|(machine, run)| {
            let ([off, ..], [on, link, home]) = (run(Contention::Off), run(queued));
            vec![
                name.to_string(),
                machine.to_string(),
                fmt_count(off),
                fmt_count(on),
                if off == 0 {
                    "-".into()
                } else {
                    format!("{:.2}x", on as f64 / off as f64)
                },
                format!("{}/{}", fmt_count(link), fmt_count(home)),
            ]
        })
    });
    t.extend(row_groups.into_iter().flatten());
    t.note("queued params from the shared CostModel: 1 service port/core busy an L2 hit per request, 1 channel/link, flit occupancy from link width");
    t.note("uncontended column = closed-form timing, bit-identical to E1/E3/E7 and cross-checked against the cycle NoC (E9: +2 inj/ej cycles)");
    t
}

fn history_scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

/// The runtime cross-validation panel: E11 replays all three against
/// the simulator; the cluster experiments (E12, E13) take the first
/// two, one scheme per family. (E14 scores the placement panel,
/// [`crate::scorecard::scheme_panel`].)
fn runtime_panel() -> [(&'static str, SchemeFactory); 3] {
    [
        ("em2", || Box::new(AlwaysMigrate)),
        ("em2ra-history", history_scheme),
        ("em2ra-distance", || {
            Box::new(DistanceThreshold { max_hops: 2 })
        }),
    ]
}

/// What E11–E13 replay through `em2-rt`: a workload under first-touch
/// placement, with guest pools sized eviction-free so every counter is
/// a pure function of per-thread program order (DESIGN.md §7).
struct Replay {
    w: Arc<Workload>,
    placement: Arc<dyn Placement>,
    cfg: em2_rt::RtConfig,
}

impl Replay {
    fn new(workload: &str, scale: Scale) -> Replay {
        let w = workloads::by_name(workload, scale);
        let placement: Arc<dyn Placement> = Arc::new(workloads::first_touch(&w, scale));
        let cfg = em2_rt::RtConfig::eviction_free(scale.cores(), w.num_threads());
        Replay {
            w: Arc::new(w),
            placement,
            cfg,
        }
    }

    /// The single-process run.
    fn single(&self, factory: SchemeFactory) -> em2_rt::RtReport {
        let placement = Arc::clone(&self.placement);
        em2_rt::run_workload(self.cfg.clone(), &self.w, placement, factory)
    }

    /// The single-process run as the first row of a scheme's block in
    /// E12 and E13 — nothing crossed a wire — with the counters every
    /// cluster row under it must sum to.
    fn baseline(&self, sname: &str, factory: SchemeFactory) -> (Vec<String>, CounterSummary) {
        let single = self.single(factory);
        let mut row = vec!["in-process".to_string(), sname.to_string()];
        row.extend(["0", "0", "0", "0", "baseline"].map(String::from));
        row.push(fmt_f(single.ops_per_sec() / 1e6, 2));
        (row, CounterSummary::from_rt(&single))
    }

    /// The same replay as a cluster over `spec`.
    fn cluster(&self, spec: &ClusterSpec, factory: SchemeFactory) -> ClusterRun {
        ClusterRun::new(spec, &self.cfg, &self.w, &self.placement, factory)
    }
}

/// Run a cluster to the end — every node must report — and sum the
/// nodes' counters.
fn run_cluster(what: &str, run: ClusterRun) -> (Vec<NetReport>, CounterSummary) {
    let reports: Vec<NetReport> = run.run().into_iter().map(|r| r.expect(what)).collect();
    let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
    (reports, total)
}

/// The asserted half of a cluster row: the nodes' summed counters are
/// bit-equal to the single-process run's. Returns the row's
/// throughput cell.
fn agreed_mops(what: &str, total: &CounterSummary, expected: &CounterSummary) -> String {
    assert!(
        total.counters_equal(expected),
        "{what}: cluster diverged from single process\ncluster: {total:?}\nsingle:  {expected:?}"
    );
    let mops = if total.wall_s > 0.0 {
        total.total_ops() as f64 / total.wall_s / 1e6
    } else {
        0.0
    };
    fmt_f(mops, 2)
}

/// E11 — runtime ↔ simulator cross-validation: replay the same
/// workloads through the executable `em2-rt` runtime (real OS-thread
/// shards, mailbox migration, word-granular remote access) and the
/// `em2-core` simulator, under the same placement and decision
/// schemes, eviction-free (`Replay`). The migration count,
/// remote-access counts, and run-length histogram are asserted
/// **bit-equal**; the runtime's measured throughput is the host's
/// column.
pub fn e11_runtime_agreement(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11 / runtime <-> simulator cross-validation (eviction-free guest pools)",
        &[
            "workload",
            "scheme",
            "migrations",
            "remote",
            "local",
            "runs binned",
            "agreement",
            "rt Mops/s",
        ],
    );
    t.host_columns(&["rt Mops/s"]);
    for wname in ["ocean", "uniform"] {
        let replay = Replay::new(wname, scale);
        let flat = FlatWorkload::build_homes_only(&replay.w, 64, |a| replay.placement.home_of(a));
        for (sname, factory) in runtime_panel() {
            let mut cfg = MachineConfig::with_cores(scale.cores());
            cfg.guest_contexts = replay.w.num_threads();
            let sim = run_em2ra_flat(cfg, &flat, factory());
            assert_eq!(
                sim.flow.evictions, 0,
                "E11 {wname}/{sname}: agreement config must be eviction-free"
            );
            let rt = replay.single(factory);
            let agree = rt.flow.migrations == sim.flow.migrations
                && rt.flow.remote_reads == sim.flow.remote_reads
                && rt.flow.remote_writes == sim.flow.remote_writes
                && rt.flow.local_accesses == sim.flow.local_accesses
                && rt.run_lengths == sim.run_lengths;
            assert!(
                agree,
                "E11 {wname}/{sname}: runtime diverged from simulator\nsim: {sim}\nrt:  {rt}"
            );
            t.row(vec![
                wname.to_string(),
                sname.to_string(),
                fmt_count(sim.flow.migrations),
                fmt_count(sim.flow.remote_reads + sim.flow.remote_writes),
                fmt_count(sim.flow.local_accesses),
                fmt_count(sim.run_lengths.total_count()),
                "exact".to_string(),
                fmt_f(rt.ops_per_sec() / 1e6, 2),
            ]);
        }
    }
    t.note("counter columns are asserted bit-equal between the em2-rt shard threads and the em2-core simulator before rendering");
    t.note("rt Mops/s is host wall-clock throughput (masked in determinism digests, like E5's timings)");
    t
}

/// E12 — the distributed runtime: the same workload replayed as a
/// **cluster** of `em2-net` nodes (each owning a contiguous shard
/// range, exchanging serialized contexts, remote accesses, and barrier
/// traffic over the transport layer) must reproduce the single-process
/// runtime's counters **bit-for-bit**, with the wire telemetry —
/// cross-node context envelopes, frames, bytes — as the new
/// observable. The suite rows use in-process loopback clusters, so
/// every wire number is deterministic (message counts are per-thread
/// program-order functions; see DESIGN.md §9) and digest-stable; real
/// two-OS-process UDS agreement is pinned by `net/tests/multiproc.rs`
/// and real-socket throughput is measured by `benchmark/`
/// (`uds2-migrate`, `uds2-remote`). Only throughput is the host's.
pub fn e12_transport(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12 / distributed runtime — cluster vs single-process (loopback transport)",
        &[
            "mode",
            "scheme",
            "x-node ctxs",
            "ctx bytes",
            "frames",
            "wire bytes",
            "agreement",
            "rt Mops/s",
        ],
    );
    t.host_columns(&["rt Mops/s"]);
    let replay = Replay::new("ocean", scale);
    for (sname, factory) in runtime_panel().into_iter().take(2) {
        let (row, expected) = replay.baseline(sname, factory);
        t.row(row);
        for nodes in [2usize, 4] {
            let what = format!("E12 {sname}/{nodes}-node");
            let spec = ClusterSpec::loopback(nodes, scale.cores());
            let (_, total) = run_cluster(&what, replay.cluster(&spec, factory));
            t.row(vec![
                format!("loopback x{nodes}"),
                sname.into(),
                fmt_count(total.wire.arrives_tx),
                fmt_count(total.wire.context_bytes_tx),
                fmt_count(total.wire.frames_tx),
                fmt_count(total.wire.bytes_tx),
                "exact".into(),
                agreed_mops(&what, &total, &expected),
            ]);
        }
    }
    t.note("every cluster row's counters (migrations, RA, locals, run histogram) asserted bit-equal to the single-process runtime before rendering");
    t.note("x-node ctxs = task envelopes that crossed a node boundary; ctx bytes = serialized continuations inside them (the paper's migrated-context traffic, now on a real wire)");
    t.note("rt Mops/s is host wall-clock (masked in digests); real-socket throughput is measured by benchmark/ (uds2-migrate, uds2-remote)");
    t
}

/// E13 — elastic membership: the same cluster with **live shard
/// handoffs mid-workload**. Node 0 drives three re-homings (one shard
/// to the last node, one to itself, one back) while tasks run —
/// freezing each shard's heap words, guest contexts, parked envelopes,
/// and learned scheme state, shipping them over the wire, and
/// epoch-fencing every frame that races the move. The invariant
/// (DESIGN.md §13): the summed counters are still **bit-equal** to
/// the single-process runtime, on loopback *and* real UDS sockets,
/// for both scheme families; and a node crashing mid-handoff fails
/// the survivors with a typed error within the deadline, never a
/// hang or a wrong sum.
///
/// Which frames cross the wire here depends on *when* each handoff
/// commits relative to the workload, so the wire columns are the
/// host's along with throughput; the asserted invariant (bit-equal
/// agreement, final epoch) lives in the columns that are not.
pub fn e13_elastic_membership(scale: Scale) -> Table {
    use em2_net::{ClusterTimeouts, FaultPlan, TransportKind};
    let cores = scale.cores();
    let mut t = Table::new(
        "E13 / elastic membership — live shard handoff vs single-process",
        &[
            "mode",
            "scheme",
            "handoffs",
            "epoch",
            "x-node ctxs",
            "ctx bytes",
            "agreement",
            "rt Mops/s",
        ],
    );
    t.host_columns(&["x-node ctxs", "ctx bytes", "rt Mops/s"]);
    let timeouts = ClusterTimeouts {
        connect_ms: 10_000,
        run_ms: 30_000,
        heartbeat_ms: 25,
    };
    let replay = Replay::new("ocean", scale);
    let uds_dir = std::env::temp_dir().join(format!("em2-e13-{}", std::process::id()));
    std::fs::create_dir_all(&uds_dir).expect("E13 scratch dir");
    for (sname, factory) in runtime_panel().into_iter().take(2) {
        let (row, expected) = replay.baseline(sname, factory);
        t.row(row);
        let uds_base = uds_dir.join(format!("{sname}.sock"));
        for (mode, spec) in [
            ("loopback x2", ClusterSpec::loopback(2, cores)),
            (
                "uds x3",
                ClusterSpec::even(
                    TransportKind::Uds,
                    uds_base.to_str().expect("utf8"),
                    3,
                    cores,
                ),
            ),
        ] {
            let what = format!("E13 {sname}/{mode}");
            let spec = spec.with_timeouts(timeouts);
            let nodes = spec.num_nodes();
            // Three genuine moves: a shard out of node 0, a shard into
            // node 0, and the first one back again.
            let handoffs = [(1usize, nodes - 1), (cores - 2, 0), (1, 0)];
            let epoch = spec.initial_epoch + handoffs.len() as u64;
            let run = replay.cluster(&spec, factory).handoffs(&handoffs);
            let (reports, total) = run_cluster(&what, run);
            for r in &reports {
                assert_eq!(
                    r.epoch, epoch,
                    "{what}: node {} missed a handoff commit",
                    r.node
                );
            }
            t.row(vec![
                mode.into(),
                sname.into(),
                fmt_count(handoffs.len() as u64),
                fmt_count(epoch),
                fmt_count(total.wire.arrives_tx),
                fmt_count(total.wire.context_bytes_tx),
                "exact".into(),
                agreed_mops(&what, &total, &expected),
            ]);
        }
    }
    // The other half of the invariant: a node crashing with a handoff
    // in flight must yield typed errors on every node within the
    // deadline — never a hang, never a silently wrong sum.
    {
        let spec = ClusterSpec::loopback(2, cores).with_timeouts(ClusterTimeouts {
            connect_ms: 5_000,
            run_ms: 5_000,
            heartbeat_ms: 25,
        });
        let plan = Arc::new(FaultPlan::new().crash_node(1, 6));
        let t0 = Instant::now();
        let results = replay
            .cluster(&spec, history_scheme)
            .chaos(&plan)
            .handoffs(&[(1, 1), (cores - 2, 0)])
            .run();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "E13 crash: nodes took {elapsed:?} to settle — deadline discipline broken"
        );
        assert!(
            results.iter().all(|r| r.is_err()),
            "E13 crash: a node dying mid-handoff must fail the whole cluster typed"
        );
        t.row(vec![
            "loopback x2 + crash".into(),
            "em2ra-history".into(),
            "2".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "typed error".into(),
            "-".into(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&uds_dir);
    t.note("every completed row's counters asserted bit-equal to the single-process runtime, and every node's final epoch asserted equal to initial + committed handoffs, before rendering");
    t.note("handoffs re-home a shard's heap words, guest contexts, parked envelopes, and scheme state mid-run; frames racing the move are epoch-fenced and re-routed (DESIGN.md §13)");
    t.note("the crash row asserts the failure half: a node lost mid-handoff fails every survivor with a typed ClusterError within its deadline");
    t.note("wire columns vary with handoff timing (not digest-pinned, like all wall-clock cells); the agreement columns are the asserted invariant");
    t
}

/// E14 — the placement scorecard: the telemetry plane's
/// cost-attribution matrix, read back as a *decision aid*. Each panel
/// scheme replays the KV-shaped request stream
/// ([`crate::scorecard::kv_workload`]) on the obs-on runtime; the
/// attributed cost of the placement it actually executed is compared
/// against the DP bound on the same stream (`em2-optimal`), and —
/// because attribution is a per-thread program-order function — the
/// **summed** attributed cost of a 2-node loopback cluster must equal
/// the single-process reading **bit-for-bit**, live handoff machinery
/// and all. Three asserted invariants per row: observed ≥ bound,
/// observed = the `O(N)` replay evaluation, and cluster sum = single
/// process.
pub fn e14_placement_scorecard(scale: Scale) -> Table {
    use crate::scorecard::{scheme_panel, PlacementScorecard};
    let sc = PlacementScorecard::measure(scale);
    let mut t = Table::new(
        "E14 / placement scorecard — attributed cost vs DP bound (KV replay)",
        &[
            "scheme",
            "observed cost",
            "DP bound",
            "% of bound",
            "x2-node sum",
            "agreement",
        ],
    );
    for (score, (sname, factory)) in sc.scores.iter().zip(scheme_panel()) {
        debug_assert_eq!(score.scheme, sname, "panel order is shared");
        let spec = ClusterSpec::loopback(2, sc.cfg.shards);
        let run = ClusterRun::new(&spec, &sc.cfg, &sc.workload, &sc.placement, factory);
        let (reports, _) = run_cluster(&format!("E14 {sname}"), run);
        let attributed =
            |r: &NetReport| r.obs.as_ref().expect("obs was configured on").attrib_cost();
        let summed: u64 = reports.iter().map(attributed).sum();
        assert_eq!(
            summed, score.observed,
            "E14 {sname}: 2-node attributed-cost sum diverged from single process"
        );
        let pct = if sc.bound == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * score.observed as f64 / sc.bound as f64)
        };
        t.row(vec![
            sname.to_string(),
            fmt_count(score.observed),
            fmt_count(sc.bound),
            pct,
            fmt_count(summed),
            "exact".to_string(),
        ]);
    }
    t.note("observed cost is read from the obs cost-attribution matrix after an obs-on run; asserted equal to the O(N) replay evaluation and >= the DP bound before rendering");
    t.note("x2-node sum is the same matrix summed over a 2-node loopback cluster's snapshots — asserted bit-equal to the single-process reading (attribution is a per-thread program-order function)");
    t
}

/// One experiment: a row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The id the command line selects it by.
    pub id: &'static str,
    /// Measures host time, or starts whole node fleets of shard
    /// workers: [`run_suite`] runs it alone, after the parallel phase,
    /// so it sees an otherwise idle machine.
    pub solo: bool,
    /// Build the table (and, for E2, the Figure-2 histogram behind it).
    run: fn(Scale) -> (Table, Option<Histogram>),
}

const fn row(
    id: &'static str,
    solo: bool,
    run: fn(Scale) -> (Table, Option<Histogram>),
) -> Experiment {
    Experiment { id, solo, run }
}

/// The registry: every experiment once, in canonical order. Selection
/// ([`select`]), the suite's two phases and its output order, and the
/// command line's id list are all read from here.
pub static EXPERIMENTS: [Experiment; 14] = [
    row("e1", false, |s| (e1_flow_em2(s), None)),
    row("e2", false, |s| {
        let (t, hist) = e2_ocean_runlengths(s);
        (t, Some(hist))
    }),
    row("e3", false, |s| (e3_flow_em2ra(s), None)),
    row("e4", false, |s| (e4_optimal_vs_schemes(s), None)),
    row("e5", true, |s| (e5_dp_scaling(s), None)),
    row("e6", false, |s| (e6_stack_depth(s), None)),
    row("e7", false, |s| (e7_cc_vs_em2(s), None)),
    row("e8", false, |s| (e8_context_size(s), None)),
    row("e9", false, |s| (e9_noc_validation(s), None)),
    row("e10", false, |s| (e10_contention(s), None)),
    row("e11", true, |s| (e11_runtime_agreement(s), None)),
    row("e12", true, |s| (e12_transport(s), None)),
    row("e13", true, |s| (e13_elastic_membership(s), None)),
    row("e14", true, |s| (e14_placement_scorecard(s), None)),
];

/// The registry rows `ids` name (none = all), in canonical order
/// whatever order they were asked for in. An unknown id is an error
/// that lists the registry's.
pub fn select(ids: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(bad) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|e| e.id != **id))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        return Err(format!(
            "unknown experiment {bad:?} (expected one of: {})",
            known.join(", ")
        ));
    }
    let chosen = |e: &&Experiment| ids.is_empty() || ids.contains(&e.id);
    Ok(EXPERIMENTS.iter().filter(chosen).collect())
}

/// One experiment's output: its table plus the wall-clock it took.
pub struct ExperimentRun {
    /// The [`Experiment::id`] that ran.
    pub id: &'static str,
    /// The rendered table.
    pub table: Table,
    /// The Figure-2 histogram (E2's run only).
    pub figure2: Option<Histogram>,
    /// Wall-clock time of this experiment's cell, including nested
    /// parallelism (experiment wall times overlap when the suite runs
    /// experiments concurrently).
    pub wall: Duration,
}

/// The whole suite's output.
pub struct SuiteResult {
    /// Scale the suite ran at.
    pub scale: Scale,
    /// Worker count the sweep engine reported at launch.
    pub threads: usize,
    /// End-to-end suite wall-clock.
    pub wall: Duration,
    /// Per-experiment results, in canonical order.
    pub runs: Vec<ExperimentRun>,
}

impl SuiteResult {
    /// All tables in canonical order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.runs.iter().map(|r| &r.table)
    }

    /// The Figure-2 histogram (present when E2 ran).
    pub fn figure2(&self) -> Option<&Histogram> {
        self.runs.iter().find_map(|r| r.figure2.as_ref())
    }
}

/// Run `selected` (a [`select`] result) with the two-level parallel
/// sweep: experiments fan out as cells, and each experiment fans its
/// own (config, workload, scheme) cells; the `solo` ones then run one
/// at a time. Output order — and content, minus the cells of each
/// table's declared host columns — is independent of the worker count.
pub fn run_suite(scale: Scale, selected: &[&'static Experiment]) -> SuiteResult {
    let start = Instant::now();
    let run_one = |e: &'static Experiment| {
        let t0 = Instant::now();
        let (table, figure2) = (e.run)(scale);
        ExperimentRun {
            id: e.id,
            table,
            figure2,
            wall: t0.elapsed(),
        }
    };
    let (solo, pooled): (Vec<_>, Vec<_>) = selected.iter().copied().partition(|e| e.solo);
    let mut runs = par::par_map(pooled, run_one);
    runs.extend(solo.into_iter().map(run_one));
    runs.sort_by_key(|r| EXPERIMENTS.iter().position(|e| e.id == r.id));
    SuiteResult {
        scale,
        threads: par::threads(),
        wall: start.elapsed(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_quick() {
        let t = e1_flow_em2(Scale::Quick);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e2_headline_matches_paper() {
        let (t, hist) = e2_ocean_runlengths(Scale::Quick);
        assert!(!t.rows.is_empty());
        let frac = hist.weighted_fraction_le(1);
        assert!(
            (0.35..=0.65).contains(&frac),
            "single-access fraction {frac} should be 'about half'"
        );
    }

    #[test]
    fn e4_optimal_is_lower_bound() {
        // The assertion inside e4 fires if any scheme beats the DP.
        let t = e4_optimal_vs_schemes(Scale::Quick);
        assert_eq!(t.rows.len(), 7);
    }

    #[test]
    fn e14_cluster_sum_matches_single_process() {
        // The cluster-sum, replay-agreement, and bound assertions all
        // fire inside e14; this pins the panel structure.
        let t = e14_placement_scorecard(Scale::Quick);
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows.iter().all(|r| r[5] == "exact"));
    }

    #[test]
    fn e9_no_deadlock_quick() {
        let t = e9_noc_validation(Scale::Quick);
        assert!(t.rows.iter().any(|r| r[0] == "storm"));
    }

    #[test]
    fn scheme_network_cost_always_migrate_matches_analysis() {
        // always-migrate cost = Σ migration latencies along the home
        // run boundaries = what the run-length analysis predicts.
        let w = workloads::pingpong(Scale::Quick);
        let p = workloads::first_touch(&w, Scale::Quick);
        let cost = CostModel::builder().cores(16).build();
        let c = scheme_network_cost_flat(&flatten(&w, &p), &cost, &mut AlwaysMigrate);
        assert!(c > 0);
        let a = run_length_analysis(&w, &p, 60);
        // Each migration costs at least hop_latency + fixed.
        assert!(c >= a.migrations_pure_em2 * (cost.hop_latency + cost.migration_fixed));
    }

    #[test]
    fn run_suite_selects_subsets_in_order() {
        let s = run_suite(Scale::Quick, &select(&["e9", "e1"]).expect("known ids"));
        let ids: Vec<&str> = s.runs.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec!["e1", "e9"], "canonical order, not request order");
        assert!(s.figure2().is_none(), "e2 did not run");
        assert!(s.wall.as_nanos() > 0);
    }

    #[test]
    fn the_registry_is_e1_to_e14_once_each_in_order() {
        let ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
        let canonical: Vec<String> = (1..=14).map(|n| format!("e{n}")).collect();
        assert_eq!(ids, canonical);
        assert_eq!(select(&[]).expect("all").len(), EXPERIMENTS.len());
        let err = select(&["e3", "e15"]).err().expect("e15 is not a row");
        assert!(err.contains("\"e15\"") && err.contains(&canonical.join(", ")));
    }

    #[test]
    fn solo_rows_are_the_ones_that_time_the_host_or_start_fleets() {
        let solo: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.solo)
            .map(|e| e.id)
            .collect();
        assert_eq!(solo, ["e5", "e11", "e12", "e13", "e14"]);
    }
}
