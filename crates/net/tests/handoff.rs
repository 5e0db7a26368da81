//! Elastic membership (DESIGN.md §13): live shard handoff under load.
//!
//! The property (E13, pinned here as tests): moving shards between
//! nodes **while the workload runs** — heap words, guest contexts,
//! parked envelopes, and learned scheme state all re-homed mid-flight,
//! with in-flight frames epoch-fenced and re-routed — must not change
//! a single counter. The cluster's summed counters stay **bit-equal**
//! to the single-process run, no matter how many handoffs committed or
//! where the shards ended up. Also covered: a node joining with zero
//! shards and receiving some live, a rolling-restart drain + rejoin,
//! and the handshake refusing peers that disagree on the initial
//! epoch (on all three transports).

#![cfg(unix)]

use em2_core::decision::{AlwaysMigrate, DecisionScheme, HistoryPredictor};
use em2_net::{ClusterRun, ClusterSpec, ClusterTimeouts, CounterSummary, NodeSpec, TransportKind};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{run_workload, RtConfig};
use em2_trace::gen::micro;
use em2_trace::Workload;
use std::sync::Arc;

type SchemeFactory = fn() -> Box<dyn DecisionScheme>;

const SHARDS: usize = 8;

/// Both scheme families: the memoryless baseline and a learning
/// predictor whose per-thread EWMA tables must survive re-homing.
fn schemes() -> [(&'static str, SchemeFactory); 2] {
    [
        ("em2", || Box::new(AlwaysMigrate)),
        ("em2ra-history", || {
            Box::new(HistoryPredictor::new(1.0, 0.5))
        }),
    ]
}

fn handoff_workload() -> Workload {
    // One thread native to every shard so every shard has live work
    // (and first-touched heap words) when its handoff fires.
    micro::uniform(SHARDS, SHARDS, 120, 64, 0.3, 17)
}

fn timeouts() -> ClusterTimeouts {
    ClusterTimeouts {
        connect_ms: 5_000,
        run_ms: 20_000,
        heartbeat_ms: 25,
    }
}

/// Run the workload single-process and on the given cluster with the
/// given live handoffs; assert the sums are bit-equal and that every
/// requested ownership change actually committed (the epoch counts
/// them). Returns the summed cluster summary.
fn assert_handoff_agreement(
    spec: &ClusterSpec,
    handoffs: &[(usize, usize)],
    factory: SchemeFactory,
    what: &str,
) -> CounterSummary {
    let w = handoff_workload();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let cfg = RtConfig::eviction_free(SHARDS, threads);

    let single = run_workload(cfg.clone(), &w, Arc::clone(&placement), factory);
    let expected = CounterSummary::from_rt(&single);

    // How many requests actually move a shard (the epoch target).
    let mut owners: Vec<usize> = (0..spec.total_shards).map(|s| spec.owner_of(s)).collect();
    let mut commits = 0u64;
    for &(s, to) in handoffs {
        if owners[s] != to {
            owners[s] = to;
            commits += 1;
        }
    }
    assert!(commits >= 2, "{what}: the scenario must move shards");

    let reports: Vec<_> = ClusterRun::new(spec, &cfg, &w, &placement, factory)
        .handoffs(handoffs)
        .run()
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{what}: cluster run failed: {e}")))
        .collect();
    assert_eq!(reports.len(), spec.num_nodes());
    for r in &reports {
        assert_eq!(
            r.epoch,
            spec.initial_epoch + commits,
            "{what}: node {} saw {} commits, scenario has {commits}",
            r.node,
            r.epoch - spec.initial_epoch
        );
    }
    let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
    assert!(
        total.counters_equal(&expected),
        "{what}: counters diverged after {commits} live handoffs\n\
         cluster: {total:?}\nsingle:  {expected:?}"
    );
    assert_eq!(total.total_ops(), expected.total_ops());
    total
}

#[test]
fn live_handoffs_mid_workload_sum_bit_equal_loopback() {
    // Two nodes, two live handoffs in opposite directions: node 0
    // gives shard 1 away and takes shard 6, while tasks keep running
    // and migrating over the same wire the frozen state travels on.
    for (name, factory) in schemes() {
        let spec = ClusterSpec::loopback(2, SHARDS).with_timeouts(timeouts());
        assert_handoff_agreement(
            &spec,
            &[(1, 1), (6, 0)],
            factory,
            &format!("loopback/{name}"),
        );
    }
}

#[test]
fn repeated_handoffs_of_one_shard_sum_bit_equal_loopback() {
    // The same shard bounced back and forth: each move re-freezes
    // state the previous move already shipped (including scheme state
    // learned *after* the first re-homing).
    let spec = ClusterSpec::loopback(2, SHARDS).with_timeouts(timeouts());
    assert_handoff_agreement(
        &spec,
        &[(3, 1), (3, 0), (3, 1)],
        || Box::new(HistoryPredictor::new(1.0, 0.5)),
        "loopback/ping-pong",
    );
}

#[test]
fn live_handoffs_mid_workload_sum_bit_equal_uds() {
    // Three real socket pairs; handoffs whose source and destination
    // are both remote from the coordinator (2 -> 1) exercise the
    // full Prepare/Expect/Transfer/Done fan-out.
    let dir = std::env::temp_dir().join(format!("em2-handoff-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, factory) in schemes() {
        let spec = ClusterSpec::even(
            TransportKind::Uds,
            dir.join(format!("ho-{name}.sock")).to_str().expect("utf8"),
            3,
            SHARDS,
        )
        .with_timeouts(timeouts());
        assert_handoff_agreement(
            &spec,
            &[(0, 2), (6, 1), (3, 0)],
            factory,
            &format!("uds/{name}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn joining_node_with_zero_shards_receives_live_shards_and_agrees() {
    // Node 2 is in the membership but owns nothing — a fresh member
    // that just joined. Mid-run it receives two live shards, and the
    // cluster still sums bit-equal.
    let base = format!("em2-handoff-join-{}", std::process::id());
    let mut spec =
        ClusterSpec::even(TransportKind::Loopback, &base, 2, SHARDS).with_timeouts(timeouts());
    spec.nodes.push(NodeSpec {
        addr: format!("{base}.2"),
        first_shard: SHARDS,
        shards: 0,
    });
    spec.validate().expect("zero-shard member is a legal spec");
    let total = assert_handoff_agreement(
        &spec,
        &[(2, 2), (5, 2)],
        || Box::new(HistoryPredictor::new(1.0, 0.5)),
        "loopback/join",
    );
    assert!(
        total.wire.arrives_tx > 0,
        "work must reach the joined node: {total:?}"
    );
}

/// The rolling-restart smoke CI runs by name: a 3-node UDS cluster
/// drains every shard off node 1 mid-workload (the state a restart
/// wants), then hands them all back (the rejoin) — and the sum is
/// still bit-equal to the single-process run.
#[test]
fn rolling_restart_uds_smoke() {
    let dir = std::env::temp_dir().join(format!("em2-handoff-roll-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = ClusterSpec::even(
        TransportKind::Uds,
        dir.join("roll.sock").to_str().expect("utf8"),
        3,
        SHARDS,
    )
    .with_timeouts(timeouts());
    // Node 1's span, computed from the spec so the test tracks any
    // change to the even split.
    let (first, count) = spec.span(1);
    assert!(count >= 2, "node 1 must own shards to drain");
    let mut handoffs: Vec<(usize, usize)> = Vec::new();
    for s in first..first + count {
        handoffs.push((s, 2)); // drain to node 2
    }
    for s in first..first + count {
        handoffs.push((s, 1)); // rejoin: hand them back
    }
    assert_handoff_agreement(
        &spec,
        &handoffs,
        || Box::new(HistoryPredictor::new(1.0, 0.5)),
        "uds/rolling-restart",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- //
// Epoch-mismatch refusal: the handshake digest covers the initial
// epoch, so two processes that disagree about the starting ownership
// version never exchange a shard message — on any transport.
// ---------------------------------------------------------------- //

fn assert_epoch_mismatch_refused(spec_a: ClusterSpec, what: &str) {
    use em2_net::NodeRuntime;
    use em2_rt::TaskRegistry;
    let w = Arc::new(micro::uniform(4, 4, 50, 64, 0.3, 1));
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, 4, 64));
    let spec_b = spec_a.clone().with_initial_epoch(spec_a.initial_epoch + 7);
    assert_ne!(
        spec_a.digest(),
        spec_b.digest(),
        "{what}: the digest must cover the initial epoch"
    );

    let start = move |spec: ClusterSpec, node: usize| {
        NodeRuntime::start(
            spec,
            node,
            RtConfig::eviction_free(4, 4),
            "epoch-mismatch",
            Arc::clone(&placement),
            TaskRegistry::for_workload(Arc::clone(&w)),
            || Box::new(AlwaysMigrate),
            Vec::new(),
        )
    };
    let t = std::thread::spawn({
        let start = start.clone();
        move || start(spec_a, 0)
    });
    let r1 = start(spec_b, 1);
    let e1 = r1.err().unwrap_or_else(|| {
        panic!("{what}: a dialer with a different initial epoch must be refused")
    });
    assert_eq!(e1.kind(), "handshake", "{what}: typed refusal: {e1}");
    let r0 = t.join().expect("node 0 thread");
    let e0 = r0
        .err()
        .unwrap_or_else(|| panic!("{what}: the acceptor must refuse the mismatched dialer"));
    assert_eq!(e0.kind(), "handshake", "{what}: typed refusal: {e0}");
}

#[test]
fn epoch_mismatch_is_refused_at_handshake_loopback() {
    let spec = ClusterSpec::loopback(2, 4).with_timeouts(timeouts());
    assert_epoch_mismatch_refused(spec, "loopback");
}

#[test]
fn epoch_mismatch_is_refused_at_handshake_uds() {
    let dir = std::env::temp_dir().join(format!("em2-handoff-em-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = ClusterSpec::even(
        TransportKind::Uds,
        dir.join("em.sock").to_str().expect("utf8"),
        2,
        4,
    )
    .with_timeouts(timeouts());
    assert_epoch_mismatch_refused(spec, "uds");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_mismatch_is_refused_at_handshake_tcp() {
    // Salted high port disjoint from the other suites' ranges.
    let port = 27_000 + (std::process::id() % 16_000) as u16;
    let spec = ClusterSpec::even(TransportKind::Tcp, &format!("127.0.0.1:{port}"), 2, 4)
        .with_timeouts(timeouts());
    assert_epoch_mismatch_refused(spec, "tcp");
}
