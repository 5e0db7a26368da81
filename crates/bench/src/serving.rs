//! The KV serving transaction: [`KvRequest`], a short migratable task
//! (read a hot shared key, write a key of its own, read it back and
//! verify), and the registry that rebuilds one migrated in from another
//! process. `benchmark/`'s `kv-serve-uds2` workload ships these across
//! a real UDS cluster under an open-loop injector; the tests here pin
//! that a 2-node cluster serving them sums to the single-process run.

use em2_model::bytes::Writer;
use em2_model::{Addr, DetRng};
use em2_rt::{Op, Task};

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

    /// Rebuild a migrated-in request from its [`Task::write_context`]
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
        em2_model::bytes::to_vec(25, |w| self.write_context(w))
    }

    fn write_context(&self, w: &mut Writer<'_>) {
        // hot + own + value + step: the live transaction state, 25
        // bytes — what a migration actually ships.
        w.u64(self.hot.0);
        w.u64(self.own.0);
        w.u64(self.value);
        w.u8(self.step);
    }

    fn context_len(&self) -> u64 {
        25
    }

    fn wire_kind(&self) -> Option<u32> {
        Some(KvRequest::WIRE_KIND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_core::decision::{AlwaysMigrate, DecisionScheme};
    use em2_model::CoreId;
    use em2_placement::{Placement, Striped};
    use em2_rt::{RtConfig, RtReport, Runtime, TaskSpec};
    use std::sync::Arc;

    /// Submit `requests` at once (request `i` native to shard
    /// `i % natives`) to a single-process runtime and run them out.
    fn kv_closed_loop(
        cfg: RtConfig,
        natives: usize,
        requests: u64,
        scheme: fn() -> Box<dyn DecisionScheme>,
    ) -> RtReport {
        let placement: Arc<dyn Placement> = Arc::new(Striped::new(cfg.shards, 64));
        let mut rt = Runtime::start(cfg, "kv-closed-loop", placement, scheme, Vec::new());
        let mut rng = DetRng::new(0x4b56);
        for i in 0..requests {
            rt.submit(TaskSpec::new(
                Box::new(KvRequest::new(i, &mut rng)),
                CoreId::from((i % natives as u64) as usize),
            ));
        }
        rt.finish()
    }

    /// At every step, what a hop writes into its frame is the request's
    /// context, `context_len` bytes of it, and the registry rebuilds the
    /// same request from it.
    #[test]
    fn a_request_writes_its_context_at_every_step() {
        let mut t = KvRequest::new(5, &mut DetRng::new(7));
        let registry = kv_registry();
        let mut reply = None;
        loop {
            let ctx = t.context_bytes();
            let mut written = Vec::new();
            let len = t.context_len() as usize;
            em2_model::bytes::write_into(&mut written, len, |w| t.write_context(w));
            assert_eq!((written.len(), &written), (len, &ctx));
            let rebuilt = registry
                .build(KvRequest::WIRE_KIND, &ctx)
                .expect("rebuilds");
            assert_eq!(rebuilt.context_bytes(), ctx);
            match t.resume(reply) {
                Op::Done => break,
                Op::Write(_, v) => reply = Some(v),
                _ => {}
            }
        }
    }

    #[test]
    fn kv_requests_verify_and_complete() {
        let r = kv_closed_loop(RtConfig::with_shards(8), 8, 300, || Box::new(AlwaysMigrate));
        // 3 accesses per request (hot read, own write, own read-back);
        // `finish` returns only at quiesce, so every request retired.
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
        let total = CounterSummary::sum(reports.iter().map(CounterSummary::from_net));
        assert_eq!(
            total.total_ops(),
            3 * REQUESTS,
            "every request ran all three accesses"
        );
        assert!(
            total.counters_equal(&expected),
            "cluster sum diverged from the single-process run:\n{total:?}\nvs\n{expected:?}"
        );
        assert!(
            total.wire.arrives_tx > 0,
            "request contexts crossed the wire"
        );
    }
}
