//! Integration pins for the observability plane (DESIGN.md §12).
//!
//! Three properties the obs PR must never regress:
//!
//! 1. **Invisibility** — a cluster run with metrics + tracing fully
//!    enabled produces deterministic counters bit-equal to the same
//!    run with the plane off. The timing plane may observe; it may
//!    never perturb the agreement artifact.
//! 2. **The flight recorder fires** — a chaos-injected node crash
//!    leaves behind a JSONL post-mortem on every surviving node whose
//!    final event names the failing edge (error kind + peer).
//! 3. **Merging is exact under live handoffs** — folding per-node
//!    snapshots into cluster totals while shards change owner neither
//!    double-counts nor drops counters, histograms or attribution rows,
//!    and every node ends at the last commit's epoch (DESIGN.md §14;
//!    each handoff phase is one node-ring event, pinned schedule by
//!    schedule in `control.rs`'s explorer).
//! 4. **A journey's first sixteen hops reach a ring exactly once** —
//!    where the log overflows or where the task retires, whichever
//!    comes first — and dumping them is as invisible on the wire as
//!    everything else the plane does (DESIGN.md §14).
//! 5. **One mode** — a single process and a one-node cluster are the
//!    same runtime behind two links: the same trace leaves the same
//!    events and the same counters (DESIGN.md §7).

#![cfg(unix)]

use em2_core::decision::{AlwaysMigrate, DecisionScheme, HistoryPredictor};
use em2_model::{Addr, CoreId, ThreadId};
use em2_net::{
    ClusterRun, ClusterSpec, ClusterTimeouts, CounterSummary, FaultPlan, NetReport, NodeRuntime,
    TransportKind,
};
use em2_obs::{NodeObs, ObsConfig, Snapshot};
use em2_placement::{FirstTouch, Placement, Striped};
use em2_rt::{RtConfig, Runtime, TaskRegistry, TaskSpec, TraceTask};
use em2_trace::gen::micro;
use em2_trace::{ThreadTrace, Workload};
use std::sync::Arc;

const NODES: usize = 2;
const SHARDS: usize = 8;

/// Small but with real cross-node traffic (same shape as the chaos
/// suite's workload): every shard has a native thread, so migrations,
/// remote accesses, and guest admissions all happen on both nodes.
fn workload() -> Workload {
    micro::uniform(SHARDS, SHARDS, 60, 64, 0.3, 13)
}

fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

fn spec(tag: &str) -> ClusterSpec {
    ClusterSpec::even(
        TransportKind::Loopback,
        &format!("em2-obs-{tag}-{}", std::process::id()),
        NODES,
        SHARDS,
    )
    .with_timeouts(ClusterTimeouts {
        connect_ms: 2_000,
        run_ms: 1_500,
        heartbeat_ms: 25,
    })
}

/// Every node's report, or a panic naming the first failure.
fn all_ok(results: Vec<Result<NetReport, em2_net::ClusterError>>) -> Vec<NetReport> {
    results
        .into_iter()
        .map(|r| r.expect("cluster node"))
        .collect()
}

#[test]
fn enabled_obs_is_invisible_to_the_deterministic_counters() {
    let w = workload();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    // Programmatic on/off (not env vars): parallel tests in this
    // binary must not race on the process environment.
    let mut cfg_off = RtConfig::eviction_free(SHARDS, threads);
    cfg_off.obs = Some(ObsConfig::off());
    let mut cfg_on = cfg_off.clone();
    cfg_on.obs = Some(ObsConfig::on());

    let off = all_ok(ClusterRun::new(&spec("off"), &cfg_off, &w, &placement, scheme).run());
    let on = all_ok(ClusterRun::new(&spec("on"), &cfg_on, &w, &placement, scheme).run());

    let sum_off = CounterSummary::sum(off.iter().map(CounterSummary::from_net));
    let sum_on = CounterSummary::sum(on.iter().map(CounterSummary::from_net));
    assert!(
        sum_on.counters_equal(&sum_off),
        "enabling obs changed the deterministic counters\n\
         on:  {sum_on:?}\noff: {sum_off:?}"
    );

    // And the plane genuinely ran: every node carried a snapshot whose
    // totals — read off the attribution matrix and the histograms, the
    // plane keeps no counters of its own — reproduce that node's
    // deterministic counters, i.e. the matrix lost nothing.
    assert!(off.iter().all(|r| r.obs.is_none()), "off means no plane");
    for r in &on {
        let s = r.obs.as_ref().expect("obs-on node carries a snapshot");
        assert_eq!(s.migrations_out(), r.rt.flow.migrations, "node {}", r.node);
        assert_eq!(
            s.remote_reads() + s.remote_writes(),
            r.rt.flow.remote_reads + r.rt.flow.remote_writes,
            "node {}",
            r.node
        );
        assert_eq!(
            s.context_bytes_out(),
            r.rt.context_bytes_sent,
            "node {}",
            r.node
        );
        assert!(s.retired() > 0, "node {} retired tasks", r.node);
        // Every flush the wire ledger counted was timed, whichever
        // writer lane issued it.
        assert!(r.wire.flushes_tx > 0, "node {} flushed frames", r.node);
        assert_eq!(s.flush_ns.count, r.wire.flushes_tx, "node {}", r.node);
    }
}

/// Property 3: run a 2-node cluster whose shards change owner
/// mid-workload, then fold the per-node snapshots into cluster totals
/// exactly the way a cluster-wide scraper would. Every plane must
/// survive the fold bit-exactly:
///
/// * the merged matrix's column sums and the merged histograms
///   reproduce the per-node deterministic counters (nothing dropped,
///   nothing counted twice);
/// * the merged attribution cost is the sum of the per-node costs;
/// * the merged epoch gauge is the last commit's epoch.
#[test]
fn snapshot_merge_is_exact_across_live_handoffs() {
    // Longer workload + run budget than the invisibility test: the
    // run must survive two live ownership changes.
    let w = micro::uniform(SHARDS, SHARDS, 120, 64, 0.3, 17);
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let mut cfg = RtConfig::eviction_free(SHARDS, threads);
    cfg.obs = Some(ObsConfig::on());

    let spec = spec("merge").with_timeouts(ClusterTimeouts {
        connect_ms: 5_000,
        run_ms: 20_000,
        heartbeat_ms: 25,
    });
    // Two handoffs in opposite directions so both nodes play source,
    // destination, and (node 0) coordinator while traffic is live.
    let handoffs = [(1usize, 1usize), (SHARDS - 2, 0usize)];
    let commits = handoffs
        .iter()
        .filter(|&&(s, to)| spec.owner_of(s) != to)
        .count() as u64;
    assert_eq!(commits, 2, "the scenario must move shards");
    let reports = all_ok(
        ClusterRun::new(&spec, &cfg, &w, &placement, scheme)
            .handoffs(&handoffs)
            .run(),
    );
    assert_eq!(reports.len(), NODES);

    let parts: Vec<Snapshot> = reports
        .iter()
        .map(|r| r.obs.clone().expect("obs-on node carries a snapshot"))
        .collect();
    let merged = Snapshot::sum(parts.iter().cloned());
    assert_eq!(merged.nodes, NODES as u64);

    // Counter plane: the fold must reproduce the per-node sums of the
    // deterministic counters exactly.
    let sum = |f: fn(&em2_net::NetReport) -> u64| reports.iter().map(f).sum::<u64>();
    assert_eq!(merged.migrations_out(), sum(|r| r.rt.flow.migrations));
    assert_eq!(
        merged.remote_reads() + merged.remote_writes(),
        sum(|r| r.rt.flow.remote_reads + r.rt.flow.remote_writes)
    );
    assert_eq!(merged.context_bytes_out(), sum(|r| r.rt.context_bytes_sent));
    // Histogram plane: the bucket-wise merge keeps the population.
    assert_eq!(
        merged.retired(),
        parts.iter().map(|s| s.retired()).sum::<u64>()
    );

    // Attribution plane: folding rows by key keeps the total.
    assert_eq!(
        merged.attrib_cost(),
        parts.iter().map(|s| s.attrib_cost()).sum::<u64>()
    );

    // Epoch gauge: every node installed every commit.
    for s in &parts {
        assert_eq!(s.dir_epoch, spec.initial_epoch + commits, "node {}", s.node);
    }
    assert_eq!(merged.dir_epoch, spec.initial_epoch + commits);
}

#[test]
fn crashed_peer_leaves_a_flight_recording_naming_the_edge() {
    let dir = std::env::temp_dir().join(format!("em2-obs-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let w = workload();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let mut cfg = RtConfig::eviction_free(SHARDS, threads);
    let mut obs = ObsConfig::on();
    obs.flight_dir = Some(dir.clone());
    cfg.obs = Some(obs);

    // Node 1 dies abruptly after its 4th egress frame; node 0 survives
    // to observe the loss and must dump a post-mortem.
    let plan = Arc::new(FaultPlan::new().crash_node(1, 4));
    let results = ClusterRun::new(&spec("flight"), &cfg, &w, &placement, scheme)
        .chaos(&plan)
        .run();
    assert!(
        results.iter().any(|r| r.is_err()),
        "a crashed node must produce a typed error"
    );

    // The loopback cluster runs both nodes in this process, so the
    // dumps share one pid; at least the surviving node's must exist.
    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("flight dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("em2-flight-node") && n.ends_with(".jsonl"))
        })
        .collect();
    assert!(
        !dumps.is_empty(),
        "no flight-recorder dump in {}",
        dir.display()
    );
    let mut edge_named = false;
    for dump in &dumps {
        let text = std::fs::read_to_string(dump).expect("read dump");
        let header = text.lines().next().expect("header line");
        assert!(header.contains(r#""kind":"flight""#), "header: {header}");
        assert!(header.contains(r#""error_kind":""#), "header: {header}");
        assert!(
            text.lines()
                .nth(1)
                .expect("snapshot line")
                .contains(r#""kind":"obs""#),
            "second line embeds the metrics snapshot"
        );
        // The final event is the failure itself, with its typed kind.
        let last = text.lines().last().expect("final line");
        assert!(last.contains(r#""ev":"fail""#), "final event: {last}");
        assert!(last.contains(r#""error_kind":""#), "final event: {last}");
        // A dump that attributes the failure to a peer names the edge
        // and carries the peer-down observation in its timeline.
        if last.contains(r#""peer":"#) {
            assert!(
                text.contains(r#""ev":"peer-down""#),
                "timeline records the peer loss: {dump:?}"
            );
            edge_named = true;
        }
    }
    assert!(
        edge_named,
        "at least one node's post-mortem must name the failing edge: {dumps:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `key` field of one rendered JSONL event.
fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key:?} in {line}"));
    let digits = &line[at + key.len() + 3..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().expect("a number")
}

/// Property 4. Three tasks under `AlwaysMigrate`, every access homed
/// away from where the task stands: task 1 migrates 40 times between
/// the nodes, task 2 five times, task 0 never (thread id 0 is what an
/// event that belongs to no task carries, so it is kept out of the
/// way). The merged recording must hold task 1's first 16 hops exactly
/// once — dumped by the shard that admitted its 17th, none left for its
/// retirement — and task 2's six where it retired; and the same run
/// with the plane off must put the same bytes on the wire.
#[test]
fn the_first_sixteen_hops_reach_a_ring_exactly_once() {
    // Line `i` lives on shard `i % 8`; shards 0–3 are node 0's.
    let on_shard = |s: u64| Addr(64 * s);
    let mut idle = ThreadTrace::new(ThreadId(0), CoreId(0));
    idle.read(1, on_shard(0));
    let mut long = ThreadTrace::new(ThreadId(1), CoreId(1));
    for i in 0..39 {
        long.read(1, on_shard(if i % 2 == 0 { 5 } else { 2 }));
    }
    long.read(1, on_shard(6)); // retire away from where the log spilled
    let mut short = ThreadTrace::new(ThreadId(2), CoreId(3));
    for i in 0..5 {
        short.read(1, on_shard(if i % 2 == 0 { 7 } else { 0 }));
    }
    let w = Arc::new(Workload::new("journeys", vec![idle, long, short]));
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
    let dir = std::env::temp_dir().join(format!("em2-obs-journey-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // One node of the run: its report and, obs on, every event its
    // rings hold (the flight recorder's merge, asked for by hand).
    let run_node = |spec: &ClusterSpec, node: usize, obs: ObsConfig| {
        let mut cfg = RtConfig::eviction_free(SHARDS, w.num_threads());
        cfg.obs = Some(obs);
        let mut nrt = NodeRuntime::start(
            spec.clone(),
            node,
            cfg,
            "journeys",
            Arc::clone(&placement),
            TaskRegistry::for_workload(Arc::clone(&w)),
            || Box::new(AlwaysMigrate),
            Vec::new(),
        )
        .expect("node starts");
        let registry = nrt.obs();
        let (first, count) = spec.span(node);
        for t in &w.threads {
            if (first..first + count).contains(&t.native.index()) {
                let task = TraceTask::new(Arc::clone(&w), t.thread);
                nrt.submit(TaskSpec::new(Box::new(task), t.native), t.thread);
            }
        }
        let report = nrt.finish().expect("clean run");
        let recording = registry.map(|o| {
            let path = o
                .flight_dump("test", "end of run", None, None)
                .expect("dump")
                .expect("first dump");
            std::fs::read_to_string(path).expect("read dump")
        });
        (report, recording.unwrap_or_default())
    };
    let run = |tag: &str, obs: ObsConfig| -> Vec<(NetReport, String)> {
        let spec = spec(tag);
        std::thread::scope(|s| {
            let nodes: Vec<_> = (0..NODES)
                .map(|n| {
                    let (spec, obs) = (&spec, obs.clone());
                    s.spawn(move || run_node(spec, n, obs))
                })
                .collect();
            nodes
                .into_iter()
                .map(|h| h.join().expect("node thread"))
                .collect()
        })
    };

    let mut recorded = ObsConfig::on();
    recorded.flight_dir = Some(dir.clone());
    let on = run("journey-on", recorded);
    let off = run("journey-off", ObsConfig::off());

    // `(shard that dumped it, recording node, target shard, cause)` of
    // every journey-hop event of `task`, in recorded order.
    let hops = |task: u64| -> Vec<(u64, u64, u64, u64)> {
        on.iter()
            .flat_map(|(_, recording)| recording.lines())
            .filter(|l| {
                l.contains(r#""ev":"journey-hop""#) && l.contains(&format!("\"task\":{task},"))
            })
            .map(|l| {
                let (at, cause_epoch) = (field(l, "at"), field(l, "cause_epoch"));
                (
                    field(l, "shard"),
                    at >> 32,
                    at & 0xFFFF_FFFF,
                    cause_epoch >> 32,
                )
            })
            .collect()
    };
    let (submit, migrate) = (0, 1);
    // Task 1: hop 17 was its 16th migration, into shard 2.
    let mut expect = vec![(2, 0, 1, submit)];
    expect.extend((0..15).map(|i| {
        if i % 2 == 0 {
            (2, 1, 5, migrate)
        } else {
            (2, 0, 2, migrate)
        }
    }));
    assert_eq!(hops(1), expect, "the long journey, dumped where it spilled");
    // Task 2: all six hops, where it retired.
    let expect: Vec<_> = [(0, 3, submit), (1, 7, migrate), (0, 0, migrate)]
        .into_iter()
        .chain([(1, 7, migrate), (0, 0, migrate), (1, 7, migrate)])
        .map(|(node, shard, cause)| (7, node, shard, cause))
        .collect();
    assert_eq!(hops(2), expect, "the short journey, dumped at retirement");
    let dropped: u64 = on
        .iter()
        .map(|(r, _)| r.obs.as_ref().expect("snapshot").journey_dropped)
        .sum();
    assert_eq!(dropped, 25, "41 hops, 16 recorded");

    // Dumping and clearing the log changed nothing a peer can see.
    let bytes = |runs: &[(NetReport, String)]| -> Vec<u64> {
        runs.iter().map(|(r, _)| r.wire.bytes_tx).collect()
    };
    assert_eq!(bytes(&on), bytes(&off), "wire bytes do not depend on obs");
    assert_eq!(
        on.iter().map(|(r, _)| r.wire.arrives_tx).sum::<u64>(),
        44,
        "every migration but task 1's last crossed the node boundary"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property 5. Four threads, two barriers each, the second one with a
/// thread fewer: every arrival parks — the one that opens the barrier
/// too — whether the run ledger sits behind `Runtime::start`'s own link
/// or behind `em2-net`'s control plane, and the reports agree counter
/// for counter.
#[test]
fn a_single_process_is_the_one_node_cluster() {
    const CORES: usize = 4;
    let threads: Vec<ThreadTrace> = (0..CORES as u64)
        .map(|t| {
            let mut tr = ThreadTrace::new(ThreadId(t as u32), CoreId(t as u16));
            tr.write(1, Addr(64 * t));
            tr.barrier();
            tr.read(1, Addr(64 * ((t + 1) % 4)));
            if t > 0 {
                tr.barrier();
            }
            tr.read(1, Addr(64 * ((t + 2) % 4)));
            tr
        })
        .collect();
    let w = Arc::new(Workload::new("one-mode", threads));
    let arrivals: usize = w.threads.iter().map(|t| t.barriers.len()).sum();
    let quotas = em2_engine::barrier_quotas(w.threads.iter().map(|t| t.barriers.len()));
    assert_eq!((arrivals, &quotas[..]), (7, &[4, 3][..]));
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(CORES, 64));
    let dir = std::env::temp_dir().join(format!("em2-obs-one-mode-{}", std::process::id()));
    let cfg = |tag: &str| {
        let mut obs = ObsConfig::on();
        obs.flight_dir = Some(dir.join(tag));
        std::fs::create_dir_all(dir.join(tag)).expect("scratch dir");
        let mut cfg = RtConfig::eviction_free(CORES, CORES);
        cfg.obs = Some(obs);
        cfg
    };
    let tasks = || {
        let task = |t: &ThreadTrace| TraceTask::new(Arc::clone(&w), t.thread);
        w.threads
            .iter()
            .map(move |t| (TaskSpec::new(Box::new(task(t)), t.native), t.thread))
    };
    // `barrier-park` events in everything the run's rings hold, none
    // of which may have been overwritten.
    let parks = |obs: Arc<NodeObs>| {
        assert_eq!(obs.snapshot().trace_dropped, 0);
        let dump = obs.flight_dump("test", "end of run", None, None);
        let text = std::fs::read_to_string(dump.expect("dump").expect("first dump"));
        let text = text.expect("read dump");
        text.matches(r#""ev":"barrier-park""#).count()
    };

    let mut rt = Runtime::start(
        cfg("single"),
        "one-mode",
        Arc::clone(&placement),
        || Box::new(AlwaysMigrate),
        quotas.clone(),
    );
    let single_obs = rt.obs().expect("obs on");
    for (spec, _) in tasks() {
        rt.submit(spec);
    }
    let single = rt.finish();

    let mut nrt = NodeRuntime::start(
        ClusterSpec::loopback(1, CORES),
        0,
        cfg("cluster"),
        "one-mode",
        Arc::clone(&placement),
        TaskRegistry::for_workload(Arc::clone(&w)),
        || Box::new(AlwaysMigrate),
        quotas,
    )
    .expect("node starts");
    let cluster_obs = nrt.obs().expect("obs on");
    for (spec, thread) in tasks() {
        nrt.submit(spec, thread);
    }
    let cluster = nrt.finish().expect("clean run");

    assert_eq!(parks(single_obs), arrivals, "single process");
    assert_eq!(parks(cluster_obs), arrivals, "one-node cluster");
    let counters = |r: &em2_rt::RtReport| CounterSummary {
        wall_s: 0.0,
        ..CounterSummary::from_rt(r)
    };
    assert_eq!(counters(&single), counters(&cluster.rt));
    assert_eq!(cluster.wire, em2_net::WireSnapshot::default());
    let _ = std::fs::remove_dir_all(&dir);
}
