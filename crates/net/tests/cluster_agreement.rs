//! Cluster ↔ single-process ↔ simulator agreement (the E12 property,
//! pinned as tests): splitting the shard space across cluster nodes
//! must not change a single counter. With an eviction-free guest pool,
//! the summed per-node migration / remote-access / local counts and
//! run-length histograms are **bit-equal** to the single-process
//! runtime — which E11 already pins bit-equal to the simulator. Every
//! transport is covered: loopback (the full codec path in-process),
//! UDS, and TCP (real sockets between in-process nodes — the kernel
//! does not care that both ends share a PID).

#![cfg(unix)]

use em2_core::decision::{AlwaysMigrate, AlwaysRemote, DecisionScheme, HistoryPredictor};
use em2_net::{ClusterRun, ClusterSpec, CounterSummary, TransportKind};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{run_workload, RtConfig};
use em2_trace::gen::micro;
use em2_trace::Workload;
use std::sync::Arc;

type SchemeFactory = fn() -> Box<dyn DecisionScheme>;

/// Run `workload` on a cluster and on the single-process runtime;
/// assert the summed counters are bit-equal. Returns the summed
/// cluster summary for extra assertions.
fn assert_cluster_agreement(
    spec: ClusterSpec,
    w: Workload,
    cores: usize,
    factory: SchemeFactory,
) -> CounterSummary {
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, cores, 64));
    let w = Arc::new(w);
    let cfg = RtConfig::eviction_free(cores, threads);

    let single = run_workload(cfg.clone(), &w, Arc::clone(&placement), factory);
    let expected = CounterSummary::from_rt(&single);

    let reports: Vec<_> = ClusterRun::new(&spec, &cfg, &w, &placement, factory)
        .run()
        .into_iter()
        .map(|r| r.expect("cluster run"))
        .collect();
    assert_eq!(reports.len(), spec.num_nodes());
    let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));

    assert!(
        total.counters_equal(&expected),
        "cluster counters diverged from the single-process run\n\
         cluster: {total:?}\nsingle:  {expected:?}"
    );
    assert_eq!(total.total_ops(), expected.total_ops());
    total
}

#[test]
fn loopback_two_node_cluster_sums_bit_equal_learning_scheme() {
    // HistoryPredictor exercises scheme-state serialization: its
    // per-thread EWMA tables cross the wire with every migration and
    // must continue bit-exactly on the other node.
    let w = micro::uniform(16, 16, 600, 256, 0.3, 11);
    let total = assert_cluster_agreement(ClusterSpec::loopback(2, 16), w, 16, || {
        Box::new(HistoryPredictor::new(1.0, 0.5))
    });
    assert!(
        total.wire.arrives_tx > 0,
        "tasks must actually migrate across nodes: {total:?}"
    );
    assert!(total.wire.context_bytes_tx >= 24 * total.wire.arrives_tx);
    assert_eq!(total.wire.frames_tx, total.wire.frames_rx, "no frame lost");
    assert_eq!(total.wire.bytes_tx, total.wire.bytes_rx, "nor a byte");
}

#[test]
fn loopback_single_node_cluster_is_bit_exact_with_zero_wire_traffic() {
    // The degenerate cluster: one node owning every shard. The
    // loopback transport is plugged in but no message ever needs it —
    // today's in-process path, untouched.
    let w = micro::uniform(8, 8, 400, 128, 0.3, 5);
    let total = assert_cluster_agreement(ClusterSpec::loopback(1, 8), w, 8, || {
        Box::new(HistoryPredictor::new(1.0, 0.5))
    });
    assert_eq!(total.wire.frames_tx, 0, "single node sends nothing");
    assert_eq!(total.wire.arrives_tx, 0);
}

#[test]
fn loopback_four_node_barrier_workload_agrees() {
    // producer_consumer synchronizes with real barriers: arrivals
    // cross nodes to the coordinator and releases fan back over the
    // wire — and the counters still sum exactly.
    let w = micro::producer_consumer(8, 8, 32, 3);
    assert!(
        w.threads.iter().any(|t| !t.barriers.is_empty()),
        "workload must have barriers"
    );
    assert_cluster_agreement(ClusterSpec::loopback(4, 8), w, 8, || {
        Box::new(AlwaysMigrate)
    });
}

#[test]
fn loopback_remote_access_reads_observe_cross_node_writes() {
    // AlwaysRemote keeps every task home: all sharing flows through
    // request/reply frames crossing the node boundary.
    let w = micro::pingpong(2, 4, 40);
    let total =
        assert_cluster_agreement(ClusterSpec::loopback(2, 4), w, 4, || Box::new(AlwaysRemote));
    assert_eq!(total.migrations, 0);
    assert!(total.remote_reads + total.remote_writes > 0);
    assert!(total.heap_words > 0);
    assert_eq!(total.wire.arrives_tx, 0, "no contexts move under pure RA");
    assert!(
        total.wire.frames_tx > 0,
        "requests/replies crossed the wire"
    );
}

#[test]
fn uds_two_node_cluster_agrees() {
    let base = std::env::temp_dir().join(format!("em2-agree-{}.sock", std::process::id()));
    let spec = ClusterSpec::even(
        TransportKind::Uds,
        base.to_str().expect("utf8 temp path"),
        2,
        8,
    );
    let w = micro::uniform(8, 8, 400, 128, 0.3, 7);
    assert_cluster_agreement(spec, w, 8, || Box::new(HistoryPredictor::new(1.0, 0.5)));
}

#[test]
fn tcp_two_node_cluster_agrees() {
    // Salted high port; the two nodes get base and base+1.
    let base = format!("127.0.0.1:{}", 21000 + (std::process::id() % 19000));
    let spec = ClusterSpec::even(TransportKind::Tcp, &base, 2, 8);
    let w = micro::uniform(8, 8, 400, 128, 0.3, 9);
    assert_cluster_agreement(spec, w, 8, || Box::new(AlwaysMigrate));
}

#[test]
fn bounded_pool_evictions_cross_the_wire_and_conserve_work() {
    // Outside the agreement configuration: a hot shard with one guest
    // slot forces evictions whose victims ship *back across the
    // process seam* to their native node. Work conservation (every
    // access served exactly once) must survive.
    let w = micro::hotspot(8, 8, 300, 0.9, 3);
    let total_accesses = w.total_accesses() as u64;
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 8, 64));
    let w = Arc::new(w);
    let mut cfg = RtConfig::with_shards(8);
    cfg.guest_contexts = 1;
    cfg.quantum = 1;
    let spec = ClusterSpec::loopback(2, 8);
    let reports: Vec<_> = ClusterRun::new(&spec, &cfg, &w, &placement, || Box::new(AlwaysMigrate))
        .run()
        .into_iter()
        .map(|r| r.expect("cluster run"))
        .collect();
    let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
    assert_eq!(
        total.total_ops(),
        total_accesses,
        "every access served once"
    );
    assert!(total.evictions > 0, "hotspot must evict: {total:?}");
}

#[test]
fn mismatched_topologies_refuse_to_connect() {
    use em2_net::NodeRuntime;
    use em2_rt::TaskRegistry;
    let w = Arc::new(micro::uniform(4, 4, 50, 64, 0.3, 1));
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 4, 64));
    let spec_a = ClusterSpec::loopback(2, 4);
    // Node 1 disagrees about the shard count but shares node 0's
    // address — the handshake must refuse it.
    let mut spec_b = spec_a.clone();
    spec_b.total_shards = 8;
    spec_b.nodes[0].shards = 4;
    spec_b.nodes[1].first_shard = 4;
    spec_b.nodes[1].shards = 4;

    let t = std::thread::spawn({
        let spec_a = spec_a.clone();
        let placement = Arc::clone(&placement);
        let w = Arc::clone(&w);
        move || {
            NodeRuntime::start(
                spec_a,
                0,
                RtConfig::eviction_free(4, 4),
                "mismatch",
                placement,
                TaskRegistry::for_workload(w),
                || Box::new(AlwaysMigrate),
                Vec::new(),
            )
        }
    });
    let r1 = NodeRuntime::start(
        spec_b,
        1,
        RtConfig::eviction_free(8, 4),
        "mismatch",
        placement,
        TaskRegistry::for_workload(Arc::clone(&w)),
        || Box::new(AlwaysMigrate),
        Vec::new(),
    );
    assert!(r1.is_err(), "dialer with a different topology must fail");
    let r0 = t.join().expect("node 0 thread");
    assert!(r0.is_err(), "acceptor must refuse the mismatched dialer");
}
