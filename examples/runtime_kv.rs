//! A benchmark-grade sharded key-value service on the **executable**
//! `em2-rt` runtime: the multiplexed executor serves KV traffic, and
//! every non-local operation either migrates the request task to the
//! key's home shard or performs a word-granular remote access —
//! decided per access by the same `em2-core` decision schemes the
//! simulator uses.
//!
//! **Closed-loop clients**, per scheme: 16 long-lived clients issue
//! mixed reads/writes as fast as the runtime retires them, each
//! verifying read-your-writes on its own key range; the table shows how
//! the scheme splits the same workload between migration and remote
//! access. (Serving latency is measured by `benchmark/`'s
//! `kv-serve-uds2` workload, nowhere else.)
//!
//! ```text
//! cargo run --release --example runtime_kv
//! ```
//!
//! `--stats-interval <ms>` (in either mode) adds a live one-line
//! metrics summary per tick — requests/s, task-latency p50/p99, guest
//! occupancy, egress queue depth — sampled from the `em2-obs` plane,
//! which the flag forces on programmatically.
//!
//! **Cluster mode** (`--node <id> --cluster <kind>:<base> --nodes <N>`)
//! launches the same
//! KV service as a *real multi-process distributed DSM* over `em2-net`:
//! every process owns a contiguous shard range, clients migrate (or
//! remote-access) across address spaces, and each client still
//! verifies read-your-writes — now across processes. Run each node in
//! its own terminal with the same spec:
//!
//! ```text
//! cargo run --release --example runtime_kv -- \
//!     --node 0 --cluster uds:/tmp/em2-kv.sock --nodes 2 &
//! cargo run --release --example runtime_kv -- \
//!     --node 1 --cluster uds:/tmp/em2-kv.sock --nodes 2
//! ```
//!
//! (`--cluster tcp:127.0.0.1:7600` works across hosts: node `i`
//! listens on port 7600 + `i`.)

use em2::core::decision::DecisionScheme;
use em2::model::bytes::Writer;
use em2::model::{Addr, CoreId, DetRng, ThreadId};
use em2::net::{ClusterSpec, NodeRuntime, TransportKind};
use em2::obs::{NodeObs, ObsConfig};
use em2::placement::{Placement, Striped};
use em2::rt::{Op, RtConfig, RtReport, Runtime, Task, TaskRegistry, TaskSpec};
use em2_bench::scorecard::scheme_panel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 16;
const CLIENTS: usize = 16;
const OPS_PER_CLIENT: usize = 4_000;
/// Keys per client's private range.
const OWN_KEYS: u64 = 64;
/// Hot keys shared by every client.
const HOT_KEYS: u64 = 16;

fn addr_of(key: u64) -> Addr {
    Addr(key * 8)
}

/// What the client is in the middle of.
enum KvState {
    /// Free to issue the next operation.
    Idle,
    /// A put to an owned key completed; read it back next.
    ReadBack { key: u64, want: u64 },
    /// The read-back is in flight; verify its reply.
    Verify { want: u64 },
}

/// One closed-loop KV client: a migratable continuation issuing gets
/// and puts.
struct KvClient {
    rng: DetRng,
    own_base: u64,
    version: u64,
    ops_left: usize,
    state: KvState,
    verified: u64,
}

impl KvClient {
    /// Wire kind tag (1 and 2 are taken by `TraceTask`/`KvRequest`).
    const WIRE_KIND: u32 = 3;

    fn new(id: usize) -> Self {
        KvClient {
            rng: DetRng::new(0x4b56).fork(id as u64),
            own_base: HOT_KEYS + id as u64 * OWN_KEYS,
            version: 0,
            ops_left: OPS_PER_CLIENT,
            state: KvState::Idle,
            verified: 0,
        }
    }

    /// Rebuild a migrated-in client from its context bytes (the
    /// receiving half of a cross-process migration).
    fn from_context_bytes(ctx: &[u8]) -> Result<Self, String> {
        (|| {
            let mut r = em2::model::bytes::Cursor::new(ctx);
            let rng = DetRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
            let own_base = r.u64()?;
            let version = r.u64()?;
            let ops_left = r.u64()? as usize;
            let verified = r.u64()?;
            let (tag, a, v) = (r.u8()?, r.u64()?, r.u64()?);
            r.finish()?;
            let state = match tag {
                0 => KvState::Idle,
                1 => KvState::ReadBack { key: a, want: v },
                2 => KvState::Verify { want: v },
                tag => {
                    return Err(em2::model::bytes::CodecError::BadTag {
                        what: "kv client state",
                        tag,
                    })
                }
            };
            Ok(KvClient {
                rng,
                own_base,
                version,
                ops_left,
                verified,
                state,
            })
        })()
        .map_err(|e: em2::model::bytes::CodecError| format!("kv client context: {e}"))
    }

    fn registry() -> TaskRegistry {
        let mut r = TaskRegistry::new();
        r.register(KvClient::WIRE_KIND, |ctx| {
            KvClient::from_context_bytes(ctx).map(|t| Box::new(t) as Box<dyn Task>)
        });
        r
    }
}

impl Task for KvClient {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        match std::mem::replace(&mut self.state, KvState::Idle) {
            KvState::Verify { want } => {
                let got = reply.expect("a read returns a value");
                assert_eq!(got, want, "read-your-writes violated across shards");
                self.verified += 1;
            }
            KvState::ReadBack { key, want } => {
                self.state = KvState::Verify { want };
                return Op::Read(addr_of(key));
            }
            KvState::Idle => {}
        }
        if self.ops_left == 0 {
            assert!(self.verified > 0, "a client must verify some writes");
            return Op::Done;
        }
        self.ops_left -= 1;
        match self.rng.below(100) {
            // put an owned key, then verify the round trip
            0..=39 => {
                let key = self.own_base + self.rng.below(OWN_KEYS);
                self.version += 1;
                let value = self.version ^ (key << 20);
                self.state = KvState::ReadBack { key, want: value };
                Op::Write(addr_of(key), value)
            }
            // get a hot shared key
            40..=79 => Op::Read(addr_of(self.rng.below(HOT_KEYS))),
            // put a hot shared key
            _ => {
                let key = self.rng.below(HOT_KEYS);
                Op::Write(addr_of(key), self.version)
            }
        }
    }

    fn context_bytes(&self) -> Vec<u8> {
        em2::model::bytes::to_vec(81, |w| self.write_context(w))
    }

    fn write_context(&self, w: &mut Writer<'_>) {
        // The client's live registers: version, ops_left, verified,
        // state tag + operands, and the RNG state — 81 bytes, the
        // "small serialized context" migrations actually ship.
        for word in self.rng.state() {
            w.u64(word);
        }
        w.u64(self.own_base);
        w.u64(self.version);
        w.u64(self.ops_left as u64);
        w.u64(self.verified);
        let (tag, a, v): (u8, u64, u64) = match self.state {
            KvState::Idle => (0, 0, 0),
            KvState::ReadBack { key, want } => (1, key, want),
            KvState::Verify { want } => (2, 0, want),
        };
        w.u8(tag);
        w.u64(a);
        w.u64(v);
    }

    fn context_len(&self) -> u64 {
        81
    }

    fn wire_kind(&self) -> Option<u32> {
        Some(KvClient::WIRE_KIND)
    }
}

/// Live metrics printer behind `--stats-interval <ms>`: a thread that
/// samples the obs registry every tick (relaxed atomic reads; it never
/// locks the runtime) and prints one summary line — requests retired
/// per second over the window, cumulative task-latency p50/p99 bounds,
/// current guest-pool occupancy, current egress queue depth, the top-3
/// hot home shards by attributed placement cost, and the current
/// directory epoch. Dropping the ticker stops the thread.
struct StatsTicker {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StatsTicker {
    fn spawn(obs: Arc<NodeObs>, interval_ms: u64) -> StatsTicker {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (mut last_retired, mut last_at) = (0u64, Instant::now());
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(interval_ms));
                let s = obs.snapshot();
                let now = Instant::now();
                let dt = now.duration_since(last_at).as_secs_f64();
                let rps = (s.retired().saturating_sub(last_retired)) as f64 / dt.max(1e-9);
                let h = &s.task_latency_ns;
                let heat: String = obs
                    .placement_heat(3)
                    .iter()
                    .map(|(shard, cost)| format!(" s{shard}:{cost}"))
                    .collect();
                eprintln!(
                    "[obs] {rps:>9.0} req/s | task p50 {:>7.1}us p99 {:>8.1}us | \
                     guests {:>2} | egress {:>3} | heat{} | epoch {}",
                    h.quantile(0.50) as f64 / 1e3,
                    h.quantile(0.99) as f64 / 1e3,
                    s.guest_occupancy,
                    s.egress_depth,
                    if heat.is_empty() { " -" } else { &heat },
                    s.dir_epoch,
                );
                (last_retired, last_at) = (s.retired(), now);
            }
        });
        StatsTicker {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for StatsTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The example's `RtConfig`: `--stats-interval` forces the obs plane
/// on programmatically (no env var involved) so the ticker has a
/// registry to sample.
fn kv_config(stats_ms: Option<u64>) -> RtConfig {
    let mut cfg = RtConfig::with_shards(SHARDS);
    if stats_ms.is_some() {
        cfg.obs = Some(ObsConfig::on());
    }
    cfg
}

fn run_closed_loop(
    scheme_factory: fn() -> Box<dyn DecisionScheme>,
    stats_ms: Option<u64>,
) -> RtReport {
    let tasks: Vec<TaskSpec> = (0..CLIENTS)
        .map(|i| {
            TaskSpec::new(
                Box::new(KvClient::new(i)) as Box<dyn Task>,
                em2::model::CoreId::from(i % SHARDS),
            )
        })
        .collect();
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
    let mut rt = Runtime::start(
        kv_config(stats_ms),
        "kv-mixed",
        placement,
        scheme_factory,
        Vec::new(),
    );
    let _ticker = stats_ms.map(|ms| StatsTicker::spawn(rt.obs().expect("obs forced on"), ms));
    for spec in tasks {
        rt.submit(spec);
    }
    rt.finish()
}

/// One scheme's closed-loop run as one node of a multi-process
/// cluster: this process submits the clients native to its shard
/// range; the rest of the traffic arrives over the wire.
fn run_closed_loop_cluster(
    spec: &ClusterSpec,
    node: usize,
    scheme_factory: fn() -> Box<dyn DecisionScheme>,
    stats_ms: Option<u64>,
) -> em2::net::NetReport {
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
    let mut nrt = NodeRuntime::start(
        spec.clone(),
        node,
        kv_config(stats_ms),
        "kv-mixed",
        placement,
        KvClient::registry(),
        scheme_factory,
        Vec::new(),
    )
    .expect("join the cluster (is every node running with the same --cluster spec?)");
    let _ticker = stats_ms.map(|ms| StatsTicker::spawn(nrt.obs().expect("obs forced on"), ms));
    let (first, count) = spec.span(node);
    for i in 0..CLIENTS {
        let native = i % SHARDS;
        if native >= first && native < first + count {
            nrt.submit(
                TaskSpec::new(
                    Box::new(KvClient::new(i)) as Box<dyn Task>,
                    CoreId::from(native),
                ),
                ThreadId(i as u32),
            );
        }
    }
    nrt.finish()
        .expect("cluster run failed (a peer died or timed out)")
}

/// The multi-process service: each node runs the scheme panel in
/// lockstep (same order, fresh cluster per scheme) and prints its
/// local slice of the counters plus the wire telemetry.
fn main_cluster(spec: ClusterSpec, node: usize, stats_ms: Option<u64>) {
    if node >= spec.num_nodes() {
        eprintln!(
            "--node {node} is not in a {}-node cluster",
            spec.num_nodes()
        );
        std::process::exit(2);
    }
    let (first, count) = spec.span(node);
    println!(
        "distributed KV service on em2-net: node {node}/{} over {}, owning shards {first}..{}",
        spec.num_nodes(),
        spec.kind.make().kind(),
        first + count
    );
    println!(
        "{CLIENTS} clients x {OPS_PER_CLIENT} ops cluster-wide; every client verifies \
         read-your-writes across process boundaries\n"
    );
    println!(
        "{:<18} {:>10} {:>9} {:>10} {:>12} {:>12} {:>9}",
        "scheme", "migrations", "RA", "local", "x-node ctxs", "wire bytes", "Mops/s"
    );
    for (_, factory) in scheme_panel() {
        let r = run_closed_loop_cluster(&spec, node, factory, stats_ms);
        println!(
            "{:<18} {:>10} {:>9} {:>10} {:>12} {:>12} {:>9.2}",
            r.rt.scheme,
            r.rt.flow.migrations,
            r.rt.flow.remote_reads + r.rt.flow.remote_writes,
            r.rt.flow.local_accesses,
            r.wire.arrives_tx,
            r.wire.bytes_tx,
            r.rt.ops_per_sec() / 1e6,
        );
    }
    println!(
        "\ncounters above are this node's local slice (each access executes on exactly one \
         node); E12 pins the cluster-wide sums bit-equal to the single-process run"
    );
}

/// Remove `name <value>` from `args`, returning the value.
fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        eprintln!("{name} takes a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stats_ms: Option<u64> = take_value(&mut args, "--stats-interval").map(|v| {
        let ms = v.parse().expect("--stats-interval takes milliseconds");
        assert!(ms > 0, "--stats-interval must be positive");
        ms
    });
    let cluster = take_value(&mut args, "--cluster");
    let node = take_value(&mut args, "--node");
    let nodes = take_value(&mut args, "--nodes");
    let usage = || -> ! {
        eprintln!(
            "usage: runtime_kv [--stats-interval <ms>] \
             [--node <id> --cluster <loopback|uds|tcp>:<base> --nodes <N>]"
        );
        std::process::exit(2);
    };
    if !args.is_empty() {
        usage();
    }
    if let Some(cluster) = cluster {
        let id = |v: Option<String>| v.and_then(|v| v.parse::<usize>().ok());
        let (Some(node), Some(nodes)) = (id(node), id(nodes)) else {
            usage()
        };
        let (kind, base) = match cluster.split_once(':') {
            #[cfg(unix)]
            Some(("loopback", base)) => (TransportKind::Loopback, base),
            #[cfg(unix)]
            Some(("uds", base)) => (TransportKind::Uds, base),
            Some(("tcp", base)) => (TransportKind::Tcp, base),
            _ => usage(),
        };
        main_cluster(ClusterSpec::even(kind, base, nodes, SHARDS), node, stats_ms);
        return;
    }

    println!(
        "sharded KV service on em2-rt: {SHARDS} shards on the multiplexed executor, \
         {CLIENTS} clients x {OPS_PER_CLIENT} ops"
    );
    println!("(8-byte values, 64-byte-line striped placement, 2 guest contexts per shard)\n");

    println!("== closed-loop clients (verified read-your-writes) ==");
    println!(
        "{:<18} {:>10} {:>9} {:>9} {:>10} {:>12} {:>9}",
        "scheme", "migrations", "RA", "evictions", "local", "ctx bytes", "Mops/s"
    );
    for (_, factory) in scheme_panel() {
        let r = run_closed_loop(factory, stats_ms);
        println!(
            "{:<18} {:>10} {:>9} {:>9} {:>10} {:>12} {:>9.2}",
            r.scheme,
            r.flow.migrations,
            r.flow.remote_reads + r.flow.remote_writes,
            r.flow.evictions,
            r.flow.local_accesses,
            r.context_bytes_sent,
            r.ops_per_sec() / 1e6,
        );
    }
    println!("\nevery client verified read-your-writes on its own key range");
}
