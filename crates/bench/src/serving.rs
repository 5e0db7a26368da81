//! Open-loop KV serving benchmark on the `em2-rt` executor.
//!
//! The latency-grade counterpart to the throughput calibration: a
//! fixed-rate injector submits independent KV *request tasks* (each a
//! short migratable transaction — read a hot shared key, write a key
//! of its own, read it back and verify) to a live [`Runtime`], and
//! each retirement records latency from the request's **intended**
//! arrival instant, so an injector running late still charges the
//! queueing delay to the system (no coordinated omission). Percentiles
//! come from the runtime's per-task samples.
//!
//! The offered rate is derived from a closed-loop capacity probe of
//! the same configuration (`utilization × capacity`), so one knob
//! produces comparable load across decision schemes and hosts. Results
//! land in the `runtime_kv` example's table; the gated latency numbers
//! are `benchmark/`'s `kv-serve-uds2` workload, which ships this
//! module's [`KvRequest`] across a real UDS cluster.

use em2_core::decision::DecisionScheme;
use em2_model::{Addr, CoreId, DetRng};
use em2_placement::{Placement, Striped};
use em2_rt::{RtConfig, RtReport, Runtime, Task, TaskSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hot keys shared by every request (cross-shard traffic).
const HOT_KEYS: u64 = 16;

/// One KV request: a short migratable transaction.
///
/// `read hot` → `write own` → `read own` → verify. The three accesses
/// usually straddle three shards (the hot key's home, the own key's
/// home, and the request's native entry shard), so every request
/// exercises the migrate-vs-remote decision and the reply value
/// round-trips through whatever mechanism the scheme picked.
pub struct KvRequest {
    hot: Addr,
    own: Addr,
    value: u64,
    step: u8,
}

impl KvRequest {
    /// [`Task::wire_kind`] tag of KV request transactions.
    pub const WIRE_KIND: u32 = 2;

    /// Request `i` of a run: the hot key is drawn deterministically,
    /// the own key is unique to the request (so concurrent in-flight
    /// requests never race on a verified key — the hot keys carry all
    /// the cross-request sharing).
    pub fn new(i: u64, rng: &mut DetRng) -> Self {
        let hot = rng.below(HOT_KEYS);
        let own = HOT_KEYS + i;
        KvRequest {
            hot: Addr(hot * 8),
            own: Addr(own * 8),
            value: (i << 16) ^ own,
            step: 0,
        }
    }

    /// Rebuild a migrated-in request from its [`Task::context_bytes`]
    /// (the receiving half of a cross-process migration — the KV
    /// service as a *distributed* service).
    pub fn from_context_bytes(ctx: &[u8]) -> Result<Self, String> {
        let (hot, own, value, step) = (|| {
            let mut r = em2_model::bytes::Cursor::new(ctx);
            let fields = (Addr(r.u64()?), Addr(r.u64()?), r.u64()?, r.u8()?);
            r.finish()?;
            Ok::<_, em2_model::bytes::CodecError>(fields)
        })()
        .map_err(|e| format!("kv request context: {e}"))?;
        if step > 4 {
            return Err(format!("kv request step {step} out of range"));
        }
        Ok(KvRequest {
            hot,
            own,
            value,
            step,
        })
    }
}

/// A task registry knowing the KV request kind — what every node of a
/// distributed KV cluster registers.
pub fn kv_registry() -> em2_rt::TaskRegistry {
    let mut r = em2_rt::TaskRegistry::new();
    r.register(KvRequest::WIRE_KIND, |ctx| {
        KvRequest::from_context_bytes(ctx).map(|t| Box::new(t) as Box<dyn Task>)
    });
    r
}

impl Task for KvRequest {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        self.step += 1;
        match self.step {
            1 => Op::Read(self.hot),
            2 => Op::Write(self.own, self.value),
            3 => Op::Read(self.own),
            _ => {
                assert_eq!(
                    reply,
                    Some(self.value),
                    "read-your-writes violated across shards"
                );
                Op::Done
            }
        }
    }

    fn context_bytes(&self) -> Vec<u8> {
        // hot + own + value + step: the live transaction state, 25
        // bytes — what a migration actually ships.
        let mut b = Vec::with_capacity(25);
        b.extend_from_slice(&self.hot.0.to_le_bytes());
        b.extend_from_slice(&self.own.0.to_le_bytes());
        b.extend_from_slice(&self.value.to_le_bytes());
        b.push(self.step);
        b
    }

    fn context_len(&self) -> u64 {
        25
    }

    fn wire_kind(&self) -> Option<u32> {
        Some(KvRequest::WIRE_KIND)
    }
}

use em2_rt::Op;

/// Latency results of one open-loop run.
pub struct LatencyReport {
    /// Decision-scheme name.
    pub scheme: String,
    /// Requests injected.
    pub requests: u64,
    /// Injection rate the run targeted (requests/second).
    pub offered_rps: f64,
    /// Retirement rate actually achieved.
    pub achieved_rps: f64,
    /// Latency percentiles in microseconds (intended arrival →
    /// retirement).
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Worst request, µs.
    pub max_us: f64,
    /// The underlying runtime report (flow counters, sched telemetry).
    pub report: RtReport,
}

fn quantile_us(r: &RtReport, q: f64) -> f64 {
    r.latency_quantile(q).map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

fn kv_config(shards: usize) -> RtConfig {
    RtConfig::with_shards(shards)
}

/// Request `i` is native to shard `i % natives`.
fn submit_request(rt: &mut Runtime, i: u64, natives: usize, rng: &mut DetRng, at: Option<Instant>) {
    let spec = TaskSpec {
        task: Box::new(KvRequest::new(i, rng)) as Box<dyn Task>,
        native: CoreId::from((i % natives as u64) as usize),
        arrival: at,
    };
    rt.submit(spec);
}

/// Closed-loop capacity probe: submit `requests` at once, measure
/// retirement throughput.
pub fn kv_capacity(
    shards: usize,
    requests: u64,
    scheme: fn() -> Box<dyn DecisionScheme>,
) -> RtReport {
    kv_closed_loop(kv_config(shards), shards, requests, scheme)
}

fn kv_closed_loop(
    cfg: RtConfig,
    natives: usize,
    requests: u64,
    scheme: fn() -> Box<dyn DecisionScheme>,
) -> RtReport {
    let shards = cfg.shards;
    let placement: Arc<dyn Placement> = Arc::new(Striped::new(shards, 64));
    let mut rt = Runtime::start(cfg, "kv-capacity", placement, scheme, Vec::new());
    let mut rng = DetRng::new(0x4b56);
    for i in 0..requests {
        submit_request(&mut rt, i, natives, &mut rng, None);
    }
    rt.finish()
}

/// Open-loop run: inject `requests` KV transactions at
/// `utilization × capacity` and report latency percentiles.
///
/// The OS sleep granularity is coarser than the inter-arrival gap at
/// high rates, so each wake-up submits every request that has come
/// due — never one that has not: a request stamped with a *future*
/// arrival would report a latency of zero. Every request's latency is
/// measured from its *individual* intended arrival time.
pub fn kv_open_loop(
    shards: usize,
    requests: u64,
    utilization: f64,
    scheme: fn() -> Box<dyn DecisionScheme>,
) -> LatencyReport {
    assert!(utilization > 0.0 && utilization <= 1.0);
    let probe = kv_capacity(shards, (requests / 4).max(256), scheme);
    let capacity_rps = {
        let s = probe.wall.as_secs_f64();
        let n = probe.task_latency_ns.len() as f64;
        if s > 0.0 {
            n / s
        } else {
            1e6
        }
    };
    let offered_rps = (capacity_rps * utilization).max(1.0);

    let placement: Arc<dyn Placement> = Arc::new(Striped::new(shards, 64));
    let mut rt = Runtime::start(
        kv_config(shards),
        "kv-open-loop",
        placement,
        scheme,
        Vec::new(),
    );
    let mut rng = DetRng::new(0x4b57);
    let t0 = Instant::now();
    let due = |i: u64| t0 + Duration::from_secs_f64(i as f64 / offered_rps);
    let mut i = 0u64;
    while i < requests {
        std::thread::sleep(due(i).saturating_duration_since(Instant::now()));
        // Request `i` is due; so is everything else up to now.
        let now = Instant::now();
        while i < requests && due(i) <= now {
            submit_request(&mut rt, i, shards, &mut rng, Some(due(i)));
            i += 1;
        }
    }
    let report = rt.finish();
    let achieved_rps = {
        let s = report.wall.as_secs_f64();
        if s > 0.0 {
            requests as f64 / s
        } else {
            0.0
        }
    };
    LatencyReport {
        scheme: report.scheme.clone(),
        requests,
        offered_rps,
        achieved_rps,
        p50_us: quantile_us(&report, 0.50),
        p95_us: quantile_us(&report, 0.95),
        p99_us: quantile_us(&report, 0.99),
        max_us: quantile_us(&report, 1.0),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_core::decision::AlwaysMigrate;

    #[test]
    fn kv_requests_verify_and_complete() {
        let r = kv_capacity(8, 300, || Box::new(AlwaysMigrate));
        assert_eq!(r.task_latency_ns.len(), 300, "every request retired");
        // 3 accesses per request (hot read, own write, own read-back).
        assert_eq!(r.total_ops(), 900);
        assert!(r.heap_words > 0);
    }

    /// The KV service as a distributed service: node 0 submits every
    /// request native to its own span, node 1 is a pure server that
    /// rebuilds migrated-in requests through [`kv_registry`]. Guest
    /// pools are eviction-free
    /// so the counters are functions of program order alone and must
    /// sum to the single-process run's.
    #[test]
    fn kv_requests_cross_a_two_node_cluster_and_sum_to_single_process() {
        use em2_net::{ClusterSpec, CounterSummary, NodeRuntime};
        const SHARDS: usize = 8;
        const NATIVES: usize = SHARDS / 2; // node 0's span
        const REQUESTS: u64 = 300;
        let scheme: fn() -> Box<dyn DecisionScheme> = || Box::new(AlwaysMigrate);
        let cfg = RtConfig::eviction_free(SHARDS, REQUESTS as usize);
        let expected =
            CounterSummary::from_rt(&kv_closed_loop(cfg.clone(), NATIVES, REQUESTS, scheme));

        let spec = ClusterSpec::loopback(2, SHARDS);
        let start = |node: usize| {
            let placement: Arc<dyn Placement> = Arc::new(Striped::new(SHARDS, 64));
            NodeRuntime::start(
                spec.clone(),
                node,
                cfg.clone(),
                "kv-cluster",
                placement,
                kv_registry(),
                scheme,
                Vec::new(),
            )
            .expect("join the loopback cluster")
        };
        let reports = std::thread::scope(|s| {
            let server = s.spawn(|| start(1).finish().expect("server node"));
            let mut front = start(0);
            let mut rng = DetRng::new(0x4b56);
            for i in 0..REQUESTS {
                front.submit(
                    TaskSpec::new(
                        Box::new(KvRequest::new(i, &mut rng)),
                        CoreId::from((i % NATIVES as u64) as usize),
                    ),
                    em2_model::ThreadId(i as u32),
                );
            }
            let front = front.finish().expect("front node");
            [front, server.join().expect("server thread")]
        });
        let retired: usize = reports.iter().map(|r| r.rt.task_latency_ns.len()).sum();
        assert_eq!(retired as u64, REQUESTS, "every request retired verified");
        let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
        assert!(
            total.counters_equal(&expected),
            "cluster sum diverged from the single-process run:\n{total:?}\nvs\n{expected:?}"
        );
        assert!(
            total.wire.arrives_tx > 0,
            "request contexts crossed the wire"
        );
    }

    #[test]
    fn open_loop_reports_monotone_percentiles() {
        let lat = kv_open_loop(8, 400, 0.5, || Box::new(AlwaysMigrate));
        assert_eq!(lat.requests, 400);
        assert!(lat.offered_rps > 0.0);
        assert!(lat.achieved_rps > 0.0);
        assert!(
            lat.p50_us > 0.0,
            "latency from intended arrival: {}",
            lat.p50_us
        );
        assert!(lat.p50_us <= lat.p95_us && lat.p95_us <= lat.p99_us);
        assert!(lat.p99_us <= lat.max_us);
        assert_eq!(lat.report.task_latency_ns.len(), 400);
        assert!(
            lat.report.task_latency_ns[0] > 0,
            "no request was submitted before it was due"
        );
    }
}
