//! Real multi-process agreement: two OS processes, connected by
//! Unix-domain sockets, replay the quick OCEAN workload as one
//! cluster — and their counters sum **bit-equal** to the
//! single-process E11 run (which is itself pinned bit-equal to the
//! simulator by `crates/rt/tests/agreement.rs`).
//!
//! Process model: the parent test re-executes its own test binary
//! (`std::process::Command` on `current_exe`) twice, once per node,
//! selecting the child entry point with `--exact` and an env-var role
//! flag (`EM2_NET_MP_ROLE`). Children write their `CounterSummary` to
//! files in a scratch directory; the parent sums and compares. CI
//! runs this with `EM2_RT_WORKERS=2` so each child multiplexes its 8
//! shards on two workers.

#![cfg(unix)]

use em2_core::decision::{DecisionScheme, HistoryPredictor};
use em2_net::{ClusterRun, ClusterSpec, CounterSummary, TransportKind};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{run_workload, RtConfig};
use em2_trace::gen::ocean::OceanConfig;
use em2_trace::Workload;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROLE_ENV: &str = "EM2_NET_MP_ROLE";
const DIR_ENV: &str = "EM2_NET_MP_DIR";
const NODES: usize = 2;
const CORES: usize = 16;

/// The E11/CI quick-scale OCEAN trace (identical to
/// `em2_bench::workloads::ocean(Scale::Quick)` and the rt agreement
/// tests — regenerated deterministically in every process).
fn quick_ocean() -> Workload {
    OceanConfig {
        interior: 128,
        threads: 16,
        cores: 16,
        iterations: 2,
        levels: 3,
        ..OceanConfig::default()
    }
    .generate()
}

/// The scheme under test: HistoryPredictor, so learned per-thread
/// state crosses the process boundary with every migration.
fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

fn spec_for(dir: &std::path::Path) -> ClusterSpec {
    ClusterSpec::even(
        TransportKind::Uds,
        dir.join("em2.sock").to_str().expect("utf8 temp path"),
        NODES,
        CORES,
    )
}

/// Child entry point: inert unless the parent set the role env var.
/// (Runs — and immediately passes — as an ordinary empty test in a
/// normal `cargo test` invocation.)
#[test]
fn multiproc_child_role() {
    let Some(role) = em2_model::env::raw(ROLE_ENV) else {
        return;
    };
    let node: usize = role.parse().expect("role is a node id");
    let dir = PathBuf::from(em2_model::env::raw(DIR_ENV).expect("scratch dir env var"));
    let w = quick_ocean();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, CORES, 64));
    let w = Arc::new(w);
    let cfg = RtConfig::eviction_free(CORES, threads);
    let report = ClusterRun::new(&spec_for(&dir), &cfg, &w, &placement, scheme)
        .run_node(node)
        .expect("child cluster run");
    // Deterministic counters only: under EM2_OBS=1 (the CI obs smoke)
    // the timing plane's one artifact is the exporter's JSONL.
    CounterSummary::from_net(&report)
        .write_to(&dir.join(format!("node{node}.txt")))
        .expect("write summary");
}

#[test]
fn two_process_uds_agreement_sums_bit_equal() {
    // Children must find an exact test name to run; the parent drives.
    if em2_model::env::raw(ROLE_ENV).is_some() {
        return; // never recurse
    }
    let dir = std::env::temp_dir().join(format!("em2-net-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Expected counters: the single-process E11 configuration.
    let w = quick_ocean();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, CORES, 64));
    let w = Arc::new(w);
    let single = run_workload(
        RtConfig::eviction_free(CORES, threads),
        &w,
        Arc::clone(&placement),
        scheme,
    );
    let expected = CounterSummary::from_rt(&single);

    let exe = std::env::current_exe().expect("own test binary");
    let mut children: Vec<std::process::Child> = (0..NODES)
        .map(|node| {
            Command::new(&exe)
                .args(["multiproc_child_role", "--exact", "--nocapture"])
                .env(ROLE_ENV, node.to_string())
                .env(DIR_ENV, &dir)
                .spawn()
                .expect("spawn child node")
        })
        .collect();

    // Babysit with a deadline so a wedged cluster fails the test
    // instead of hanging CI.
    let deadline = Instant::now() + Duration::from_secs(240);
    for (i, child) in children.iter_mut().enumerate() {
        loop {
            match child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "child node {i} failed: {status}");
                    break;
                }
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    panic!("child node {i} did not finish before the deadline");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    let total = CounterSummary::sum((0..NODES).map(|node| {
        CounterSummary::read_from(&dir.join(format!("node{node}.txt"))).expect("child summary")
    }));

    // Bit-equal whether or not the children ran with EM2_OBS=1 (the CI
    // obs smoke does): the timing plane is invisible to the counters.
    assert!(
        total.counters_equal(&expected),
        "two-process counters diverged from the single-process run\n\
         cluster: {total:?}\nsingle:  {expected:?}"
    );
    // The run genuinely crossed the process boundary.
    assert!(
        total.wire.arrives_tx > 0,
        "no context ever crossed the wire: {total:?}"
    );
    assert!(total.wire.context_bytes_tx > 0);
    assert_eq!(
        (total.wire.frames_tx, total.wire.bytes_tx),
        (total.wire.frames_rx, total.wire.bytes_rx),
        "every frame sent was received, byte for byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
