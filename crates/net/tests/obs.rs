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
//!    double-counts nor drops counters, histograms, attribution rows,
//!    or handoff-phase traces (DESIGN.md §14).

use em2_core::decision::{DecisionScheme, HistoryPredictor};
use em2_net::{
    ClusterRun, ClusterSpec, ClusterTimeouts, CounterSummary, FaultPlan, NetReport, TransportKind,
};
use em2_obs::{NodeObs, ObsConfig, Snapshot};
use em2_placement::{FirstTouch, Placement};
use em2_rt::RtConfig;
use em2_trace::gen::micro;
use em2_trace::Workload;
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

/// Property 3, live half: run a 2-node cluster whose shards change
/// owner mid-workload, then fold the per-node snapshots into cluster
/// totals exactly the way a cluster-wide scraper would. Every plane
/// must survive the fold bit-exactly:
///
/// * the merged matrix's column sums and the merged histograms
///   reproduce the per-node deterministic counters (nothing dropped,
///   nothing counted twice);
/// * the merged attribution cost is the sum of the per-node costs;
/// * handoff traces assemble complete Prepare→Freeze→Transfer→Commit
///   records from phases that were each stamped on a *different* node.
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

    // Handoff plane: every node observed the same epoch history, each
    // commit was stamped exactly once (on the coordinator), and every
    // committed trace assembled all four phases from three nodes'
    // partial views.
    assert_eq!(merged.handoff_commits(), commits);
    assert_eq!(merged.dir_epoch, spec.initial_epoch + commits);
    let committed: Vec<_> = merged
        .handoffs
        .iter()
        .filter(|h| h.commit_ns != 0)
        .collect();
    assert_eq!(committed.len() as u64, commits);
    for h in &committed {
        assert!(
            h.prepare_ns != 0 && h.freeze_ns != 0 && h.transfer_ns != 0,
            "committed handoff {} is missing a phase: {h:?}",
            h.hid
        );
        assert!(h.frozen_bytes > 0, "freeze shipped state: {h:?}");
    }
}

/// Property 3, frozen half: the exact mid-Transfer instant, pinned
/// deterministically. Three registries model the three roles of one
/// in-flight handoff — the coordinator has stamped Prepare, the source
/// Freeze, the destination Transfer; nobody has committed. Snapshots
/// taken *now* (the mid-Transfer merge the live test can only cross
/// by luck) must fold into exactly one record carrying every stamped
/// phase once.
#[test]
fn mid_transfer_merge_assembles_one_record_without_double_counting() {
    let coord = NodeObs::new(ObsConfig::on(), 0, 4);
    let src = NodeObs::new(ObsConfig::on(), 0, 4);
    let dst = NodeObs::new(ObsConfig::on(), 4, 4);
    coord.set_node(0);
    src.set_node(1);
    dst.set_node(2);

    coord.handoff_prepare(7, 3, 1, 2);
    src.handoff_freeze(7, 3, 4096);
    dst.handoff_transfer(7, 3, 5);
    dst.handoff_bounce(3, 1); // fenced frame re-routed mid-handoff

    let merged = Snapshot::sum([coord.snapshot(), src.snapshot(), dst.snapshot()]);

    assert_eq!(merged.handoffs.len(), 1, "one handoff, one record");
    let h = &merged.handoffs[0];
    assert_eq!((h.hid, h.shard, h.from, h.to), (7, 3, 1, 2));
    assert!(h.prepare_ns != 0, "coordinator's Prepare survived");
    assert!(h.freeze_ns != 0, "source's Freeze survived");
    assert!(h.transfer_ns != 0, "destination's Transfer survived");
    assert_eq!(h.commit_ns, 0, "nobody committed yet");
    assert_eq!(h.frozen_bytes, 4096, "recorded once, not summed twice");
    assert_eq!((h.replayed, h.bounced), (5, 1));
    assert_eq!(merged.handoff_commits(), 0);
    assert_eq!(merged.handoff_frozen_bytes(), 4096);
    assert_eq!(merged.handoff_replayed(), 5);
    assert_eq!(merged.handoff_bounced(), 1);

    // Commit lands later on the coordinator only; re-merging must
    // complete the same record rather than open a second one.
    coord.handoff_commit(7, 3, 1);
    let merged = Snapshot::sum([coord.snapshot(), src.snapshot(), dst.snapshot()]);
    assert_eq!(merged.handoffs.len(), 1);
    assert!(merged.handoffs[0].commit_ns != 0);
    assert_eq!(merged.handoff_commits(), 1);
    assert_eq!(merged.handoff_frozen_bytes(), 4096);
    assert_eq!(merged.handoff_replayed(), 5);
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
