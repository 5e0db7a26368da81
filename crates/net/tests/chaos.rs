//! The chaos harness (DESIGN.md §10): property-tests the cluster's
//! fail-fast recovery under deterministic fault injection.
//!
//! **The property.** For *any* seeded [`FaultPlan`], a cluster run
//! either (a) completes on every node with counters summing bit-equal
//! to the single-process runtime, or (b) returns a typed
//! [`ClusterError`] from at least one node — and every node returns
//! within its configured deadlines either way. Never a hang, never a
//! silently wrong sum. When the plan is benign-only (delays and
//! duplicates — stream-preserving faults the sequence layer absorbs),
//! outcome (a) is *required*: the E12 agreement property must hold
//! through the faults.
//!
//! Seed volume: each sweep test runs `EM2_CHAOS_SEEDS` plans
//! (default 42) on its own seed range — 242 plans across
//! loopback and UDS per default `cargo test`. Every failure message
//! names the seed, and `FaultPlan::seeded(seed, ...)` rebuilds the
//! exact plan in-process for replay under a debugger.

#![cfg(unix)]

use em2_core::decision::{DecisionScheme, HistoryPredictor};
use em2_net::{
    ClusterError, ClusterRun, ClusterSpec, ClusterTimeouts, CounterSummary, FaultAction, FaultPlan,
    TransportKind,
};
use em2_placement::{FirstTouch, Placement};
use em2_rt::{run_workload, RtConfig};
use em2_trace::gen::micro;
use em2_trace::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 2;
const SHARDS: usize = 8;

/// Per-run deadlines: tight enough that a whole seed sweep stays
/// fast, loose enough that a healthy run never trips them.
fn timeouts() -> ClusterTimeouts {
    ClusterTimeouts {
        connect_ms: 2_000,
        run_ms: 1_500,
        heartbeat_ms: 25,
    }
}

/// The hard wall-clock bound on one faulted cluster run: every node
/// must return (Ok or Err) well within this — the "never a hang" half
/// of the property. Generous vs. `run_ms` because a loaded CI host
/// timeslices coarsely.
const RUN_BOUND: Duration = Duration::from_secs(30);

/// The workload under fault: small (a sweep runs hundreds of
/// clusters) but with real cross-node traffic — one thread native to
/// every shard (so both nodes submit work and first-touched words
/// live on both sides), migrations, remote accesses, and learned
/// scheme state all crossing the wire.
fn chaos_workload() -> Workload {
    micro::uniform(SHARDS, SHARDS, 60, 64, 0.3, 13)
}

fn scheme() -> Box<dyn DecisionScheme> {
    Box::new(HistoryPredictor::new(1.0, 0.5))
}

struct Fixture {
    w: Arc<Workload>,
    placement: Arc<dyn Placement>,
    cfg: RtConfig,
    expected: CounterSummary,
    /// Live handoffs node 0 drives while the plan's faults land.
    handoffs: &'static [(usize, usize)],
}

fn fixture() -> Fixture {
    let w = chaos_workload();
    let threads = w.num_threads();
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let cfg = RtConfig::eviction_free(SHARDS, threads);
    let single = run_workload(cfg.clone(), &w, Arc::clone(&placement), scheme);
    let expected = CounterSummary::from_rt(&single);
    Fixture {
        w,
        placement,
        cfg,
        expected,
        handoffs: &[],
    }
}

fn loopback_spec(tag: &str) -> ClusterSpec {
    ClusterSpec::even(
        TransportKind::Loopback,
        &format!("em2-chaos-{tag}-{}", std::process::id()),
        NODES,
        SHARDS,
    )
    .with_timeouts(timeouts())
}

/// How many seeds each sweep test runs (CI smoke scales this down).
fn seeds_per_sweep() -> u64 {
    em2_model::env::parse("EM2_CHAOS_SEEDS").unwrap_or(42)
}

/// Run one plan and assert the chaos property. Returns the per-node
/// outcomes for extra assertions.
fn assert_chaos_property(
    fx: &Fixture,
    spec: &ClusterSpec,
    plan: FaultPlan,
    seed: u64,
    benign: bool,
) -> Vec<Result<CounterSummary, ClusterError>> {
    let plan = Arc::new(plan);
    let t0 = Instant::now();
    let results = ClusterRun::new(spec, &fx.cfg, &fx.w, &fx.placement, scheme)
        .chaos(&plan)
        .handoffs(fx.handoffs)
        .run();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < RUN_BOUND,
        "seed {seed} ({:?}): nodes took {elapsed:?} to return — deadline discipline broken",
        plan.kinds()
    );
    assert_eq!(results.len(), NODES);
    let all_ok = results.iter().all(|r| r.is_ok());
    if all_ok {
        let total = CounterSummary::sum(
            results
                .iter()
                .map(|r| CounterSummary::from_net(r.as_ref().expect("checked ok"))),
        );
        assert!(
            total.counters_equal(&fx.expected),
            "seed {seed} ({:?}): every node completed but the sum is WRONG\n\
             cluster: {total:?}\nsingle:  {expected:?}",
            plan.kinds(),
            expected = fx.expected
        );
    } else if benign {
        let errs: Vec<String> = results
            .iter()
            .filter_map(|r| r.as_ref().err().map(|e| e.to_string()))
            .collect();
        panic!(
            "seed {seed}: benign plan {:?} must complete bit-equal, got {errs:?}",
            plan.kinds()
        );
    }
    results
        .into_iter()
        .map(|r| r.map(|rep| CounterSummary::from_net(&rep)))
        .collect()
}

fn sweep(fx: &Fixture, mk_spec: impl Fn(u64) -> ClusterSpec, base: u64, benign: bool) {
    let n = seeds_per_sweep();
    let mut completed = 0u64;
    let mut errored = 0u64;
    for seed in base..base + n {
        let plan = FaultPlan::seeded(seed, NODES, benign);
        let outcomes = assert_chaos_property(fx, &mk_spec(seed), plan, seed, benign);
        if outcomes.iter().all(|r| r.is_ok()) {
            completed += 1;
        } else {
            errored += 1;
        }
    }
    // The sweep is only meaningful if the faults bite: an unrestricted
    // draw where every run completed would mean the injector is inert.
    if !benign {
        assert!(
            errored > 0,
            "none of {n} unrestricted plans caused a failure — injector inert?"
        );
    }
    assert_eq!(completed + errored, n);
}

#[test]
fn seeded_fault_sweep_loopback_a() {
    let fx = fixture();
    sweep(&fx, |s| loopback_spec(&format!("swa-{s}")), 1_000, false);
}

#[test]
fn seeded_fault_sweep_loopback_b() {
    let fx = fixture();
    sweep(&fx, |s| loopback_spec(&format!("swb-{s}")), 2_000, false);
}

#[test]
fn seeded_fault_sweep_loopback_c() {
    let fx = fixture();
    sweep(&fx, |s| loopback_spec(&format!("swc-{s}")), 3_000, false);
}

#[test]
fn seeded_fault_sweep_loopback_d() {
    let fx = fixture();
    sweep(&fx, |s| loopback_spec(&format!("swd-{s}")), 4_000, false);
}

#[test]
fn seeded_benign_sweep_completes_bit_equal() {
    let fx = fixture();
    sweep(&fx, |s| loopback_spec(&format!("ben-{s}")), 5_000, true);
}

#[test]
fn seeded_fault_sweep_uds() {
    let fx = fixture();
    let n = seeds_per_sweep().min(32);
    let dir = std::env::temp_dir().join(format!("em2-chaos-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for seed in 6_000..6_000 + n {
        let spec = ClusterSpec::even(
            TransportKind::Uds,
            dir.join(format!("s{seed}.sock")).to_str().expect("utf8"),
            NODES,
            SHARDS,
        )
        .with_timeouts(timeouts());
        let plan = FaultPlan::seeded(seed, NODES, false);
        assert_chaos_property(&fx, &spec, plan, seed, false);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- //
// Scripted single-fault runs: one per fault class, pinning both the
// outcome and (where the class implies one) the error taxonomy.
// ---------------------------------------------------------------- //

/// All errors across the nodes, as `ClusterError::kind()` strings.
fn error_kinds(outcomes: &[Result<CounterSummary, ClusterError>]) -> Vec<&'static str> {
    let mut ks: Vec<&'static str> = outcomes
        .iter()
        .filter_map(|r| r.as_ref().err().map(|e| e.kind()))
        .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

#[test]
fn duplicated_frames_are_deduplicated_and_counted() {
    let fx = fixture();
    // Duplicate several early post-handshake frames in both directions.
    let plan = FaultPlan::new()
        .fault(0, 1, 1, FaultAction::Duplicate)
        .fault(0, 1, 3, FaultAction::Duplicate)
        .fault(1, 0, 2, FaultAction::Duplicate);
    let outcomes = assert_chaos_property(&fx, &loopback_spec("dup"), plan, 0, true);
    let total = CounterSummary::sum(outcomes.into_iter().map(|r| r.expect("benign run")));
    assert!(
        total.wire.dupes_rx >= 3,
        "the sequence layer must observe (and absorb) every replay: {:?}",
        total.wire
    );
}

#[test]
fn dropped_frame_is_a_typed_error_not_a_hang() {
    let fx = fixture();
    // Frame 1 from node 0 is the first post-handshake frame on that
    // edge; swallowing it forces a sequence gap on the next frame (or
    // heartbeat).
    let plan = FaultPlan::new().fault(0, 1, 1, FaultAction::Drop);
    let outcomes = assert_chaos_property(&fx, &loopback_spec("drop"), plan, 0, false);
    let kinds = error_kinds(&outcomes);
    assert!(
        !kinds.is_empty(),
        "a dropped frame must surface as an error"
    );
    assert!(
        kinds
            .iter()
            .all(|k| ["codec", "aborted", "peer-lost"].contains(k)),
        "drop surfaces as a sequence-gap codec error (or its propagated abort): {kinds:?}"
    );
}

#[test]
fn truncated_frame_is_a_codec_error() {
    let fx = fixture();
    let plan = FaultPlan::new().fault(1, 0, 1, FaultAction::Truncate { keep: 6 });
    let outcomes = assert_chaos_property(&fx, &loopback_spec("trunc"), plan, 0, false);
    let kinds = error_kinds(&outcomes);
    assert!(!kinds.is_empty(), "truncation must surface");
    assert!(
        kinds
            .iter()
            .all(|k| ["codec", "aborted", "peer-lost"].contains(k)),
        "truncation is caught in the codec: {kinds:?}"
    );
}

#[test]
fn corrupted_frame_is_a_codec_error_never_a_wrong_message() {
    let fx = fixture();
    for offset in [0usize, 4, 5, 13, 17, 40] {
        let plan = FaultPlan::new().fault(0, 1, 2, FaultAction::Corrupt { offset, xor: 0x20 });
        let outcomes = assert_chaos_property(
            &fx,
            &loopback_spec(&format!("corr-{offset}")),
            plan,
            offset as u64,
            false,
        );
        let kinds = error_kinds(&outcomes);
        assert!(
            !kinds.is_empty(),
            "offset {offset}: a flipped bit must never pass the checksum"
        );
    }
}

#[test]
fn severed_connection_is_peer_lost_on_both_sides() {
    let fx = fixture();
    let plan = FaultPlan::new().fault(0, 1, 2, FaultAction::Sever);
    let outcomes = assert_chaos_property(&fx, &loopback_spec("sever"), plan, 0, false);
    let kinds = error_kinds(&outcomes);
    assert!(!kinds.is_empty(), "a severed connection must surface");
    assert!(
        kinds.iter().all(|k| ["peer-lost", "aborted"].contains(k)),
        "sever is a peer loss: {kinds:?}"
    );
}

#[test]
fn crashed_node_fails_the_survivor_within_its_deadline() {
    let fx = fixture();
    let plan = FaultPlan::new().crash_node(1, 4);
    let t0 = Instant::now();
    let outcomes = assert_chaos_property(&fx, &loopback_spec("crash"), plan, 0, false);
    assert!(
        outcomes[0].is_err(),
        "the surviving coordinator must report the crash, got Ok"
    );
    assert!(
        outcomes[1].is_err(),
        "the crashed node's own run must fail too"
    );
    // Detection discipline: well inside run_ms + teardown, not the
    // 30 s hang bound.
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "crash detection took {:?}",
        t0.elapsed()
    );
}

#[test]
fn refused_accept_is_a_typed_handshake_failure() {
    let fx = fixture();
    let plan = FaultPlan::new().refuse_accepts(0, 1);
    let outcomes = assert_chaos_property(&fx, &loopback_spec("refuse"), plan, 0, false);
    let kinds = error_kinds(&outcomes);
    assert!(
        !kinds.is_empty(),
        "a refused accept must fail the join, typed"
    );
    for k in kinds {
        assert!(
            ["handshake", "connect-timeout"].contains(&k),
            "accept refusal surfaces at the handshake: {k}"
        );
    }
}

// ---------------------------------------------------------------- //
// The real thing: a peer OS process SIGKILLed mid-run. No injector
// in the victim — the kernel closes its sockets, and the survivor
// must observe the loss and fail typed within its heartbeat deadline.
// ---------------------------------------------------------------- //

// The child-process seam `multiproc.rs` uses: each child runs one
// `--exact` test of its own binary, so roles never collide.
const ROLE_ENV: &str = "EM2_NET_MP_ROLE";
const DIR_ENV: &str = "EM2_NET_MP_DIR";

/// The two-process kill cluster; `role` names the scenario (and its
/// socket) and doubles as the child's `ROLE_ENV` value.
fn kill_spec(dir: &std::path::Path, role: &str, heartbeat_ms: u64) -> ClusterSpec {
    ClusterSpec::even(
        TransportKind::Uds,
        dir.join(format!("{role}.sock"))
            .to_str()
            .expect("utf8 temp path"),
        NODES,
        SHARDS,
    )
    .with_timeouts(ClusterTimeouts {
        connect_ms: 15_000,
        run_ms: 10_000,
        heartbeat_ms,
    })
}

/// One kill-cluster node, up and idle.
fn start_kill_node(
    transport: Box<dyn em2_net::Transport>,
    spec: ClusterSpec,
    node: usize,
) -> em2_net::NodeRuntime {
    let w = Arc::new(chaos_workload());
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    em2_net::NodeRuntime::start_with_transport(
        transport,
        spec,
        node,
        RtConfig::with_shards(SHARDS),
        "chaos-kill",
        placement,
        em2_rt::TaskRegistry::for_workload(w),
        scheme,
        Vec::new(),
    )
    .expect("node joins the kill cluster")
}

/// Child body: join the `role` cluster as node 1, signal readiness,
/// then idle (its writers keep the link warm) until the parent
/// SIGKILLs this process. Inert unless spawned with that role.
fn kill_child(role: &str, heartbeat_ms: u64) {
    if em2_model::env::raw(ROLE_ENV).as_deref() != Some(role) {
        return;
    }
    let dir = std::path::PathBuf::from(em2_model::env::raw(DIR_ENV).expect("scratch dir env"));
    let spec = kill_spec(&dir, role, heartbeat_ms);
    let nrt = start_kill_node(spec.kind.make(), spec, 1);
    std::fs::write(dir.join("child-ready"), b"1").expect("ready marker");
    std::thread::sleep(Duration::from_secs(30));
    // Only reached if the parent never killed us: exit without
    // running destructors (finish() would wait out the run deadline).
    drop(nrt);
    std::process::exit(0);
}

/// Parent half: re-execute this test binary as the `role` child.
fn spawn_kill_child(test: &str, role: &str, dir: &std::path::Path) -> std::process::Child {
    std::process::Command::new(std::env::current_exe().expect("own test binary"))
        .args([test, "--exact", "--nocapture"])
        .env(ROLE_ENV, role)
        .env(DIR_ENV, dir)
        .spawn()
        .expect("spawn child node")
}

/// Wait (bounded) for the child to park in its run phase.
fn wait_child_ready(dir: &std::path::Path) {
    let ready = dir.join("child-ready");
    let wait_deadline = Instant::now() + Duration::from_secs(10);
    while !ready.exists() && Instant::now() < wait_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ready.exists(), "child never reached its run phase");
}

#[test]
fn chaos_kill_child_role() {
    kill_child("kill", 50);
}

#[test]
fn killed_peer_process_is_detected_within_the_heartbeat_deadline() {
    if em2_model::env::raw(ROLE_ENV).is_some() {
        return; // never recurse
    }
    let dir = std::env::temp_dir().join(format!("em2-chaos-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut child = spawn_kill_child("chaos_kill_child_role", "kill", &dir);
    // Blocks until the child connects and handshakes.
    let spec = kill_spec(&dir, "kill", 50);
    let nrt = start_kill_node(spec.kind.make(), spec, 0);

    // SIGKILL the child once it confirms it is parked in its run
    // phase; record when, so the detection latency is measurable.
    let killer = std::thread::spawn({
        let dir = dir.clone();
        move || {
            wait_child_ready(&dir);
            std::thread::sleep(Duration::from_millis(100));
            let killed_at = Instant::now();
            child.kill().expect("SIGKILL the child");
            let _ = child.wait();
            killed_at
        }
    });

    // finish() blocks on cluster quiesce — which can never come — so
    // the only way out is detecting the dead peer.
    let err = nrt
        .finish()
        .expect_err("a SIGKILLed peer must fail the run");
    let detected_at = Instant::now();
    let killed_at = killer.join().expect("killer thread");
    assert_eq!(
        err.kind(),
        "peer-lost",
        "a vanished process is a peer loss: {err}"
    );
    // The heartbeat deadline is 4 × 50 ms; EOF from the kernel close
    // usually surfaces in microseconds. The bound leaves room for a
    // loaded CI host without ever tolerating the 10 s run watchdog.
    let latency = detected_at.saturating_duration_since(killed_at);
    assert!(
        latency < Duration::from_secs(3),
        "peer loss took {latency:?} — heartbeat deadline discipline broken"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- //
// Flush-level faults: the coalesced batch as the unit of damage.
// A writer packs many frames into one flush, so a lost or cut flush
// is a *many-frame* fault — the recovery story must hold there too.
// ---------------------------------------------------------------- //

#[test]
fn dropped_flush_is_a_typed_error_not_a_hang() {
    let fx = fixture();
    // Flush 1 on the (0,1) edge is the first run-phase flush (the
    // handshake was flush 0); swallowing it loses every frame the
    // writer packed into that window at once.
    let plan = FaultPlan::new().fault_flush(0, 1, 1, FaultAction::Drop);
    let outcomes = assert_chaos_property(&fx, &loopback_spec("fl-drop"), plan, 0, false);
    let kinds = error_kinds(&outcomes);
    assert!(!kinds.is_empty(), "a dropped flush must surface");
    assert!(
        kinds
            .iter()
            .all(|k| ["codec", "aborted", "peer-lost"].contains(k)),
        "a dropped flush is a (many-frame) sequence gap: {kinds:?}"
    );
}

#[test]
fn duplicated_flush_is_benign_and_absorbed() {
    let fx = fixture();
    // Replaying a whole batch re-delivers every frame in it; the
    // sequence layer must drop each replay and the run must still sum
    // bit-equal (flush duplication is a benign, stream-preserving
    // fault — `assert_chaos_property` enforces equality on success).
    let plan = FaultPlan::new()
        .fault_flush(0, 1, 1, FaultAction::Duplicate)
        .fault_flush(1, 0, 2, FaultAction::Duplicate);
    assert!(plan.is_benign(), "flush duplication must count as benign");
    let outcomes = assert_chaos_property(&fx, &loopback_spec("fl-dup"), plan, 0, true);
    let total = CounterSummary::sum(outcomes.into_iter().map(|r| r.expect("benign run")));
    assert!(
        total.wire.dupes_rx >= 2,
        "every frame of a replayed flush is observed and dropped: {:?}",
        total.wire
    );
}

#[test]
fn flush_truncated_mid_batch_is_a_codec_error_not_a_hang() {
    let fx = fixture();
    // A byte budget that cuts inside a frame: the receiver sees the
    // head frames whole, then a frame whose payload continues into
    // the *next* flush's bytes — the checksum (or a sequence gap, if
    // the cut lands on a frame boundary) must catch it, typed.
    for keep in [3usize, 10, 27, 61] {
        let plan = FaultPlan::new().fault_flush(1, 0, 1, FaultAction::Truncate { keep });
        let outcomes = assert_chaos_property(
            &fx,
            &loopback_spec(&format!("fl-tr-{keep}")),
            plan,
            keep as u64,
            false,
        );
        let kinds = error_kinds(&outcomes);
        assert!(!kinds.is_empty(), "keep={keep}: a cut flush must surface");
        assert!(
            kinds
                .iter()
                .all(|k| ["codec", "aborted", "peer-lost"].contains(k)),
            "keep={keep}: mid-batch truncation is caught typed: {kinds:?}"
        );
    }
}

#[test]
fn corrupted_flush_offsets_into_the_concatenated_window() {
    let fx = fixture();
    // Offsets past the first frame's length land the damaged byte in
    // a *later* frame of the window; whichever frame it hits must
    // fail its checksum, never decode as a different valid message.
    for offset in [0usize, 25, 70, 200] {
        let plan =
            FaultPlan::new().fault_flush(0, 1, 2, FaultAction::Corrupt { offset, xor: 0x40 });
        let outcomes = assert_chaos_property(
            &fx,
            &loopback_spec(&format!("fl-corr-{offset}")),
            plan,
            offset as u64,
            false,
        );
        assert!(
            !error_kinds(&outcomes).is_empty(),
            "offset {offset}: a flipped bit in a coalesced window must never pass"
        );
    }
}

#[test]
fn crash_mid_coalesce_window_is_typed_within_the_bound() {
    let fx = fixture();
    // The crash clock trips *inside* a window: frames already
    // transformed for that flush are lost with it (a buffered batch
    // never survives the process), and both nodes must return typed
    // errors well inside the deadline discipline.
    let plan = FaultPlan::new().crash_node(1, 5);
    let t0 = Instant::now();
    let outcomes = assert_chaos_property(&fx, &loopback_spec("fl-crash"), plan, 0, false);
    assert!(
        outcomes.iter().all(|r| r.is_err()),
        "a crash mid-window fails both sides"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "crash-mid-window detection took {:?}",
        t0.elapsed()
    );
}

// ---------------------------------------------------------------- //
// Faults inside the handoff window (DESIGN.md §13): live shard
// handoffs run mid-workload while the plan damages the very frames
// the frozen state and its fencing control travel in. The property
// is unchanged — bit-equal on success, typed on failure, never a
// hang — but now "success" includes committed re-homings and
// "typed" includes the coordinator's handoff watchdog naming the
// stuck phase.
// ---------------------------------------------------------------- //

/// The fixture with handoffs exercised under fault: one shard each
/// way, so both nodes freeze, ship, install, and re-route during the
/// plan's window.
fn handoff_fixture() -> Fixture {
    Fixture {
        handoffs: &[(1, 1), (6, 0)],
        ..fixture()
    }
}

#[test]
fn handoff_window_frame_faults_are_typed_or_bit_equal() {
    let fx = handoff_fixture();
    let mut errored = 0u32;
    for (i, action) in [
        FaultAction::Drop,
        FaultAction::Truncate { keep: 6 },
        FaultAction::Sever,
    ]
    .into_iter()
    .enumerate()
    {
        // Early post-handshake indices on the coordinator's edge —
        // where HandoffExpect and HandoffTransfer travel, interleaved
        // with workload traffic.
        for nth in [2u64, 5, 9] {
            let plan = FaultPlan::new().fault(0, 1, nth, action);
            let outcomes = assert_chaos_property(
                &fx,
                &loopback_spec(&format!("ho-{i}-{nth}")),
                plan,
                nth,
                false,
            );
            if outcomes.iter().any(|r| r.is_err()) {
                errored += 1;
                assert!(
                    !error_kinds(&outcomes).is_empty(),
                    "nth={nth}: failures must be typed"
                );
            }
        }
    }
    assert!(
        errored > 0,
        "none of the scripted handoff-window faults bit — injector inert?"
    );
}

#[test]
fn seeded_fault_sweep_with_live_handoffs() {
    let fx = handoff_fixture();
    let n = seeds_per_sweep().min(24);
    for seed in 7_000..7_000 + n {
        let plan = FaultPlan::seeded(seed, NODES, false);
        assert_chaos_property(
            &fx,
            &loopback_spec(&format!("hos-{seed}")),
            plan,
            seed,
            false,
        );
    }
}

#[test]
fn seeded_benign_sweep_with_live_handoffs_is_bit_equal() {
    // Delays and duplicates landing on handoff control frames (a
    // replayed HandoffTransfer, a delayed EpochUpdate) must be
    // absorbed exactly like workload traffic: the run completes and
    // the sum is still bit-equal.
    let fx = handoff_fixture();
    let n = seeds_per_sweep().min(16);
    for seed in 8_000..8_000 + n {
        let plan = FaultPlan::seeded(seed, NODES, true);
        assert_chaos_property(
            &fx,
            &loopback_spec(&format!("hob-{seed}")),
            plan,
            seed,
            true,
        );
    }
}

// ---------------------------------------------------------------- //
// SIGKILL mid-Transfer, across a real process boundary: the frozen
// shard is on the wire when the destination process vanishes. The
// survivor must fail typed — and the error must name the handoff
// and its phase, which is exactly what a post-mortem needs.
// ---------------------------------------------------------------- //

/// Child entry point for the mid-Transfer kill: node 1 is the handoff
/// destination. Heartbeats off: the parent → child frame sequence is
/// then deterministic (0 = HelloAck, 1 = HandoffExpect,
/// 2 = HandoffTransfer), so the plan can drop exactly the Transfer.
/// EOF detection does not need heartbeats.
#[test]
fn chaos_handoff_kill_child_role() {
    kill_child("handoff", 0);
}

#[test]
fn killed_peer_mid_transfer_fails_typed_naming_the_handoff_phase() {
    if em2_model::env::raw(ROLE_ENV).is_some() {
        return; // never recurse
    }
    let dir = std::env::temp_dir().join(format!("em2-chaos-hkill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut child = spawn_kill_child("chaos_handoff_kill_child_role", "handoff", &dir);

    // The parent (node 0) is coordinator AND handoff source, behind a
    // chaos layer that swallows its third frame to the child — the
    // HandoffTransfer. The handoff wedges in the transfer phase with
    // the frozen shard "lost on the wire".
    let spec = kill_spec(&dir, "handoff", 0);
    let plan = Arc::new(FaultPlan::new().fault(0, 1, 2, FaultAction::Drop));
    let chaos = em2_net::ChaosTransport::wrap(&spec, 0, plan);
    let nrt = start_kill_node(Box::new(chaos), spec, 0);

    // Wait for the child to park in its run phase, start the handoff
    // (Expect arrives; Transfer is dropped), then SIGKILL the child
    // with the handoff still active.
    wait_child_ready(&dir);
    nrt.request_handoff(0, 1);
    std::thread::sleep(Duration::from_millis(500));
    let killed_at = Instant::now();
    child.kill().expect("SIGKILL the child");
    let _ = child.wait();

    let err = nrt
        .finish()
        .expect_err("a peer SIGKILLed mid-transfer must fail the run");
    let latency = Instant::now().saturating_duration_since(killed_at);
    // EOF from the kernel close wins the race against the 5 s handoff
    // watchdog; either way the error is typed and names the handoff.
    assert!(
        ["peer-lost", "handoff"].contains(&err.kind()),
        "mid-transfer peer death is a typed loss: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("handoff") && msg.contains("transfer"),
        "the post-mortem must name the handoff and its phase: {msg}"
    );
    assert!(
        latency < Duration::from_secs(3),
        "mid-transfer peer loss took {latency:?} — deadline discipline broken"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_free_plan_through_chaos_transport_is_bit_equal() {
    // The wrapper itself must be invisible when the plan is empty —
    // the chaos harness's own control.
    let fx = fixture();
    let outcomes = assert_chaos_property(&fx, &loopback_spec("none"), FaultPlan::new(), 0, true);
    let total = CounterSummary::sum(outcomes.into_iter().map(|r| r.expect("fault-free run")));
    assert_eq!(total.wire.dupes_rx, 0);
    assert_eq!(total.wire.frames_tx, total.wire.frames_rx);
    assert_eq!(total.wire.bytes_tx, total.wire.bytes_rx);
}
