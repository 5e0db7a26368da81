//! `kv-serve-uds2`: an open-loop KV service on the 2-node UDS cluster.
//!
//! The only workload where waiting, wake-ups and queue growth — not
//! CPU per operation — set the result; closed-loop replays hide them.
//! Each round brings the cluster up, loads 65,536 keys, then one
//! generator thread (on its own CPU) submits the repo's `KvRequest`
//! transactions to node 0 on a fixed schedule and every request is
//! timed from the instant it was *due*, not the instant it was sent.

use crate::cluster::{run_cluster, ClusterSetup, SHARDS};
use crate::host::Pinning;
use crate::protocol::{Rate, RoundKind, RoundStats, Scale, Workload};
use crate::replay::{flush_layer, rt_config, sched_layers, wire_layers};
use crate::spans::Tracer;
use crate::stamped::{self, instant_at, now_ns, Stamped, KIND_KV, KIND_LOADER};
use crate::stats::percentile_sorted;
use em2_bench::serving::KvRequest;
use em2_core::decision::AlwaysMigrate;
use em2_model::{Addr, CoreId, DetRng, ThreadId};
use em2_net::{CounterSummary, NodeRuntime};
use em2_placement::{Placement, Striped};
use em2_rt::{run_tasks, Op, Task, TaskRegistry, TaskSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Keys the load phase writes.
pub const KEYS: u64 = 65_536;
/// Loader tasks (each writes `KEYS / LOADERS` keys).
pub const LOADERS: usize = 256;

/// Closed-loop capacity of this configuration on the authoring host,
/// in requests per second at nominal host speed: every request of a
/// round submitted at once (the median `serve.capacity_req_per_s` of
/// six traced runs, 234k–326k). Frozen, and recorded in
/// `BENCHMARK.json`: the three offered rates are shares of it, so
/// changing it changes what the latency percentiles mean.
///
/// The shares are an eighth, a quarter and a half, not the
/// 25/50/75 % first planned: a burst amortises every wake-up and flush
/// over hundreds of requests, an open loop cannot, and at half of the
/// burst capacity the host's slow phases already push the system into
/// a growing backlog (README, "Workloads").
pub const CAPACITY_REQ_PER_S: f64 = 280_000.0;
/// 12.5 % of capacity.
pub const RATE_LOW: f64 = 0.125 * CAPACITY_REQ_PER_S;
/// 25 % of capacity: the rate behind the end-to-end percentiles.
pub const RATE_MID: f64 = 0.25 * CAPACITY_REQ_PER_S;
/// 50 % of capacity.
pub const RATE_HIGH: f64 = 0.50 * CAPACITY_REQ_PER_S;

/// Seconds of offered load per round at nominal host speed.
const WINDOW_S: f64 = 0.5;
/// The latency limit behind `serve.max_rate_under_2ms`.
const LIMIT_US: f64 = 2_000.0;

fn rate_of(rate: Rate) -> f64 {
    match rate {
        Rate::Low => RATE_LOW,
        Rate::Mid | Rate::Closed => RATE_MID,
        Rate::High => RATE_HIGH,
    }
}

/// Requests in a round: a fixed count per rate, so that byte and
/// operation counts repeat exactly from round to round; at most
/// 60,000, so that every request's own key lies in the loaded range.
fn requests_of(rate: Rate) -> usize {
    ((rate_of(rate) * WINDOW_S) as usize).min(60_000)
}

/// Read-back mismatches seen by loader tasks.
static MISMATCHES: AtomicU64 = AtomicU64::new(0);

fn key_addr(key: u64) -> Addr {
    Addr(key * 8)
}

fn key_value(key: u64) -> u64 {
    key ^ 0x5EED_0000_0000_0000
}

/// A benchmark-owned load-phase task: writes its stripe of the key
/// space and reads every key back.
pub struct Loader {
    index: u32,
    done: u32,
    /// 0: write next key; 1: read it back; 2: check the value read.
    step: u8,
}

impl Loader {
    const KEYS_EACH: u32 = (KEYS / LOADERS as u64) as u32;

    fn new(index: u32) -> Loader {
        Loader {
            index,
            done: 0,
            step: 0,
        }
    }

    /// Loader `j` walks the contiguous range `j·256 .. (j+1)·256`, so
    /// under line striping it changes shard every eighth key.
    fn key(&self) -> u64 {
        self.index as u64 * Loader::KEYS_EACH as u64 + self.done as u64
    }

    fn from_context_bytes(ctx: &[u8]) -> Result<Loader, String> {
        let [a, b, c, d, e, f, g, h, step] = ctx else {
            return Err(format!("loader context is {} bytes", ctx.len()));
        };
        let l = Loader {
            index: u32::from_le_bytes([*a, *b, *c, *d]),
            done: u32::from_le_bytes([*e, *f, *g, *h]),
            step: *step,
        };
        if l.index as usize >= LOADERS || l.done > Loader::KEYS_EACH || l.step > 2 {
            return Err("loader cursor out of range".into());
        }
        Ok(l)
    }
}

impl Task for Loader {
    fn resume(&mut self, reply: Option<u64>) -> Op {
        if self.step == 2 {
            if reply != Some(key_value(self.key())) {
                MISMATCHES.fetch_add(1, Ordering::Relaxed);
            }
            self.done += 1;
            self.step = 0;
        }
        if self.done == Loader::KEYS_EACH {
            return Op::Done;
        }
        self.step += 1;
        match self.step {
            1 => Op::Write(key_addr(self.key()), key_value(self.key())),
            _ => Op::Read(key_addr(self.key())),
        }
    }

    fn context_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        b.extend_from_slice(&self.index.to_le_bytes());
        b.extend_from_slice(&self.done.to_le_bytes());
        b.push(self.step);
        b
    }

    fn context_len(&self) -> u64 {
        9
    }
}

fn registry() -> TaskRegistry {
    let mut r = TaskRegistry::new();
    stamped::register(&mut r, KIND_KV, KvRequest::from_context_bytes);
    stamped::register(&mut r, KIND_LOADER, Loader::from_context_bytes);
    r
}

fn loader_spec(j: usize, native: usize) -> TaskSpec {
    TaskSpec::new(
        Box::new(Stamped::new(
            KIND_LOADER,
            j as u32,
            now_ns(),
            Loader::new(j as u32),
        )),
        CoreId::from(native),
    )
}

fn request_spec(i: usize, native: usize, due_ns: u64, rng: &mut DetRng) -> TaskSpec {
    TaskSpec {
        task: Box::new(Stamped::new(
            KIND_KV,
            (LOADERS + i) as u32,
            due_ns,
            KvRequest::new(i as u64, rng),
        )),
        native: CoreId::from(native),
        arrival: Some(instant_at(due_ns)),
    }
}

/// What the generator thread saw.
#[derive(Default)]
struct Generated {
    load_s: f64,
    first_submit_ns: u64,
    /// Submit instant minus due instant per request, ascending (ns).
    late_ns: Vec<u64>,
    /// Requests submitted but not yet retired when the last one was due.
    backlog: u64,
}

/// The workload.
pub struct KvServe {
    seed: u64,
    pinning: Pinning,
    placement: Arc<dyn Placement>,
    /// Single-process counters of the load phase plus `n` requests,
    /// by `n`, each computed once.
    references: Vec<(usize, CounterSummary)>,
    last_setup: Vec<(&'static str, f64, Scale)>,
}

impl KvServe {
    /// Requests draw their hot keys from `seed`.
    pub fn new(seed: u64, pinning: Pinning) -> KvServe {
        KvServe {
            seed,
            pinning,
            placement: Arc::new(Striped::new(SHARDS, 64)),
            references: Vec::new(),
            last_setup: Vec::new(),
        }
    }

    fn cluster_setup(&self, tasks: usize, traced: bool) -> ClusterSetup {
        ClusterSetup {
            cfg: rt_config(tasks, traced),
            placement: Arc::clone(&self.placement),
            scheme: || Box::new(AlwaysMigrate),
            quotas: Vec::new(),
            registry: Box::new(registry),
        }
    }

    /// The same tasks in one process, closed-loop: the counters a
    /// cluster round must sum to (flow and run lengths are functions of
    /// per-task program order, not of timing or distribution). Runs
    /// stamped tasks, so call it only once a round's stamps are read.
    fn reference(&mut self, requests: usize) -> CounterSummary {
        if let Some((_, r)) = self.references.iter().find(|(n, _)| *n == requests) {
            return r.clone();
        }
        let tasks = LOADERS + requests;
        stamped::reset(tasks);
        let run = |specs: Vec<TaskSpec>| {
            CounterSummary::from_rt(&run_tasks(
                rt_config(tasks, false),
                "reference",
                specs,
                Arc::clone(&self.placement),
                || Box::new(AlwaysMigrate),
                Vec::new(),
            ))
        };
        let mut total = run((0..LOADERS)
            .map(|j| loader_spec(j, j % (SHARDS / 2)))
            .collect());
        let mut rng = DetRng::new(self.seed);
        total.merge(&run((0..requests)
            .map(|i| request_spec(i, i % (SHARDS / 2), 0, &mut rng))
            .collect()));
        // Two runs, two heaps; the cluster has one, and every request
        // key lies inside the loaded range.
        total.heap_words = KEYS;
        self.references.push((requests, total.clone()));
        total
    }

    /// Node 0's driver: load, then offer `requests` at `rate_wall`
    /// requests per wall-clock second (all at once when `closed`).
    fn generate(
        &self,
        nrt: &mut NodeRuntime,
        requests: usize,
        rate_wall: f64,
        closed: bool,
    ) -> Generated {
        self.pinning.move_to_generator_cpu();
        let natives = SHARDS / 2; // node 0's span
        let t_load = now_ns();
        for j in 0..LOADERS {
            nrt.submit(loader_spec(j, j % natives), ThreadId(j as u32));
        }
        let deadline = t_load + 60_000_000_000;
        while stamped::retired() < LOADERS as u64 && now_ns() < deadline {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let mut g = Generated {
            load_s: stamped::last_retired_ns().saturating_sub(t_load) as f64 * 1e-9,
            ..Generated::default()
        };
        if requests == 0 || stamped::retired() < LOADERS as u64 {
            return g;
        }

        let mut rng = DetRng::new(self.seed);
        let gap_ns = if closed { 0.0 } else { 1e9 / rate_wall };
        let t_open = now_ns();
        g.first_submit_ns = t_open;
        g.late_ns.reserve(requests);
        let mut i = 0;
        while i < requests {
            let elapsed = (now_ns() - t_open) as f64;
            let due_now = if closed {
                requests
            } else {
                ((elapsed / gap_ns) as usize + 1).min(requests)
            };
            while i < due_now {
                let due = t_open + (i as f64 * gap_ns) as u64;
                nrt.submit(
                    request_spec(i, i % natives, due, &mut rng),
                    ThreadId((LOADERS + i) as u32),
                );
                g.late_ns.push(now_ns().saturating_sub(due));
                i += 1;
            }
            if i < requests {
                let next_due = t_open + (i as f64 * gap_ns) as u64;
                let wait = next_due.saturating_sub(now_ns()).clamp(200_000, 500_000);
                std::thread::sleep(std::time::Duration::from_nanos(wait));
            }
        }
        g.backlog = (LOADERS + requests) as u64 - stamped::retired();
        g.late_ns.sort_unstable();
        g
    }

    /// One cluster run: load phase plus `requests` open-loop requests.
    fn serve(
        &self,
        kind: RoundKind,
        requests: usize,
        tracer: &Tracer,
        round: usize,
        host_speed: f64,
    ) -> Result<(crate::cluster::ClusterOutcome, Generated), String> {
        stamped::reset(LOADERS + requests);
        MISMATCHES.store(0, Ordering::Relaxed);
        let rate_wall = rate_of(kind.rate) * host_speed;
        let generated = Mutex::new(Generated::default());
        let span = tracer.begin("round", None, round);
        let out = run_cluster(
            &self.cluster_setup(LOADERS + requests, kind.traced),
            tracer,
            Some(span),
            round,
            |node, nrt| {
                if node == 0 {
                    let g = self.generate(nrt, requests, rate_wall, kind.rate == Rate::Closed);
                    *generated.lock().expect("generator did not panic") = g;
                }
            },
        );
        tracer.end(span);
        Ok((
            out?,
            generated.into_inner().expect("generator did not panic"),
        ))
    }
}

impl Workload for KvServe {
    fn setup(&mut self, tracer: &Tracer, rep: usize) -> Result<f64, String> {
        let plain = RoundKind {
            traced: false,
            rate: Rate::Mid,
        };
        let (out, g) = self.serve(plain, 0, tracer, rep, 1.0)?;
        let total = CounterSummary::sum(out.reports.iter().map(CounterSummary::from_net));
        if total.heap_words != KEYS || MISMATCHES.load(Ordering::Relaxed) != 0 {
            return Err(format!(
                "load phase: {} keys materialised, {} read-backs wrong",
                total.heap_words,
                MISMATCHES.load(Ordering::Relaxed)
            ));
        }
        self.last_setup = vec![("serve.load_ms", g.load_s * 1e3, Scale::Time)];
        Ok(out.bringup_s + g.load_s)
    }

    fn round(
        &mut self,
        kind: RoundKind,
        tracer: &Tracer,
        round: usize,
        host_speed: f64,
    ) -> Result<RoundStats, String> {
        let requests = requests_of(kind.rate);
        let (out, g) = self.serve(kind, requests, tracer, round, host_speed)?;
        // Read the stamps before the reference runs stamped tasks of its
        // own. The first tenth of the requests warm the round up.
        let last = stamped::last_retired_ns();
        let retired = stamped::retired();
        let lat_ns = stamped::latencies_sorted(LOADERS + requests / 10..LOADERS + requests);
        let total = CounterSummary::sum(out.reports.iter().map(CounterSummary::from_net));
        let reference = self.reference(requests);
        let load_ops = 2 * KEYS;
        let ops = total.total_ops().saturating_sub(load_ops);
        let agrees = total.counters_equal(&reference)
            && MISMATCHES.load(Ordering::Relaxed) == 0
            && retired == (LOADERS + requests) as u64
            && ops == 3 * requests as u64;

        let p99_us = percentile_sorted(&lat_ns, 0.99) as f64 / 1e3;
        let at = |name| (name, p99_us, Scale::AsIs);
        let rts: Vec<&em2_rt::RtReport> = out.reports.iter().map(|r| &r.rt).collect();
        let mut layers = sched_layers(&rts, total.total_ops());
        layers.extend(wire_layers(
            &total.wire,
            total.total_ops(),
            out.bringup_s,
            out.finished_ns.saturating_sub(last) as f64 * 1e-9,
        ));
        layers.extend(flush_layer(&out.reports));
        layers.push((
            "gen.late_p99_us",
            percentile_sorted(&g.late_ns, 0.99) as f64 / 1e3,
            Scale::AsIs,
        ));
        let secs = last.saturating_sub(g.first_submit_ns) as f64 * 1e-9;
        match kind.rate {
            Rate::Low => layers.push(at("serve.p99_us_at_low")),
            Rate::High => layers.push(at("serve.p99_us_at_high")),
            Rate::Mid => layers.push(at("serve.p99_us_at_mid")),
            Rate::Closed => layers.push((
                "serve.capacity_req_per_s",
                requests as f64 / secs,
                Scale::Rate,
            )),
        }
        if kind.rate != Rate::Closed {
            layers.push(("serve.backlog_at_end", g.backlog as f64, Scale::AsIs));
        }
        layers.extend(self.last_setup.iter().copied());
        Ok(RoundStats {
            secs,
            ops,
            failed: if agrees { 0 } else { ops },
            lat_ns,
            bytes_per_op: total.wire.bytes_tx as f64 / total.total_ops().max(1) as f64,
            exact: total.wire.bytes_tx,
            layers,
        })
    }

    fn nominal_ops(&self) -> u64 {
        3 * requests_of(Rate::Mid) as u64
    }

    fn open_loop(&self) -> bool {
        true
    }
}

/// `serve.max_rate_under_2ms`: the highest of the three offered rates
/// whose normalised p99 met the limit without a backlog that outgrew
/// one batch; 0 when none did.
pub fn max_rate_under_limit(p99_low: f64, p99_mid: f64, p99_high: f64, backlog: f64) -> f64 {
    let ok = |p99: f64| p99 > 0.0 && p99 < LIMIT_US;
    if ok(p99_high) && backlog < RATE_HIGH * 0.01 {
        RATE_HIGH
    } else if ok(p99_mid) {
        RATE_MID
    } else if ok(p99_low) {
        RATE_LOW
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loader_writes_its_stripe_reads_it_back_and_round_trips() {
        let mut l = Loader::new(3);
        let mut heap = std::collections::HashMap::new();
        let mut reply = None;
        let mut ops = 0;
        loop {
            // Every step survives a serialise/rebuild, as a migration
            // would do to it.
            assert_eq!(l.context_len(), l.context_bytes().len() as u64);
            l = Loader::from_context_bytes(&l.context_bytes()).expect("own context");
            match l.resume(reply.take()) {
                Op::Write(a, v) => {
                    heap.insert(a, v);
                }
                Op::Read(a) => reply = Some(heap[&a]),
                Op::Done => break,
                Op::Barrier(_) => unreachable!("loaders never synchronise"),
            }
            ops += 1;
        }
        assert_eq!(ops, 2 * Loader::KEYS_EACH);
        assert_eq!(heap.len() as u32, Loader::KEYS_EACH);
        assert!(heap.contains_key(&key_addr(3 * 256)) && heap.contains_key(&key_addr(4 * 256 - 1)));
        assert_eq!(MISMATCHES.load(Ordering::Relaxed), 0);
        assert!(Loader::from_context_bytes(&[0; 8]).is_err());
        assert!(Loader::from_context_bytes(&[0, 0, 0, 0, 0, 0, 0, 0, 9]).is_err());
    }

    #[test]
    fn every_request_key_lies_inside_the_loaded_range() {
        for rate in [Rate::Low, Rate::Mid, Rate::High] {
            assert!((requests_of(rate) as u64) + 16 <= KEYS);
            assert!(LOADERS + requests_of(rate) <= stamped::SLOTS);
        }
        // ≥ 20k latency samples per mid-rate round after the warm-up tenth.
        assert!(requests_of(Rate::Mid) * 9 / 10 >= 20_000);
    }

    #[test]
    fn max_rate_needs_the_limit_and_no_backlog() {
        assert_eq!(max_rate_under_limit(300.0, 500.0, 900.0, 0.0), RATE_HIGH);
        assert_eq!(max_rate_under_limit(300.0, 500.0, 900.0, 1e6), RATE_MID);
        assert_eq!(max_rate_under_limit(300.0, 2500.0, 9000.0, 0.0), RATE_LOW);
        assert_eq!(max_rate_under_limit(3000.0, 3500.0, 9000.0, 0.0), 0.0);
    }
}
