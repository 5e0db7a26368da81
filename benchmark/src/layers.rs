//! Per-layer metrics of a traced run: what the traced rounds observed,
//! plus short dedicated microbenchmarks of the layers the workload
//! exercises — each a loop over one layer's public functions, timed
//! from here and host-normalised like a round.
//!
//! A layer the workload does not exercise reads 0: `sim-kernels` never
//! touches a socket, so its traced run spends no time measuring one.

use crate::kv;
use crate::protocol::{Ctx, Metric, Outcome, Rate};
use crate::replay::rt_config;
use crate::sim::{self, CORES};
use crate::stamped::{now_ns, HEADER_BYTES, KIND_TRACE};
use crate::stats::median;
use em2_core::decision::AlwaysMigrate;
use em2_net::proto::NetMsg;
use em2_net::{Transport, UdsTransport};
use em2_placement::{FirstTouch, Placement};
use em2_rt::mpsc::MpscQueue;
use em2_rt::wire::{HopCause, Journey, JourneyHop, WireEnvelope, WireMsg, WireOp};
use em2_rt::{run_workload, RtReport};
use em2_trace::gen::micro;
use em2_trace::Workload as Trace;
use std::sync::Arc;

/// Per-layer metrics: name and unit, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("core.em2_ns_per_access", "ns"),
    ("core.em2ra_ns_per_access", "ns"),
    ("coherence.msi_ns_per_access", "ns"),
    ("optimal.dp_ns_per_access", "ns"),
    ("noc.ns_per_cycle", "ns"),
    ("engine.event_ns", "ns"),
    ("sim.cycles_total", "count"),
    ("trace.gen_ns_per_access", "ns"),
    ("trace.flatten_ns_per_access", "ns"),
    ("placement.build_ns_per_access", "ns"),
    ("rt.local_ns_per_op", "ns"),
    ("rt.hop_ns_per_migration", "ns"),
    ("rt.sched.polls_per_op", "ratio"),
    ("rt.sched.parks_per_kop", "ratio"),
    ("rt.mpsc.push_pop_ns", "ns"),
    ("rt.wire.encode_arrive_ns", "ns"),
    ("rt.wire.decode_arrive_ns", "ns"),
    ("rt.wire.arrive_bytes", "B"),
    ("rt.wire.encode_req_ns", "ns"),
    ("rt.wire.decode_req_ns", "ns"),
    ("rt.wire.req_resp_bytes", "B"),
    ("net.proto.encode_ns", "ns"),
    ("net.proto.decode_ns", "ns"),
    ("net.uds.rtt_us", "us"),
    ("net.uds.stream_frames_per_s", "1/s"),
    ("net.frames_per_op", "ratio"),
    ("net.bytes_per_frame", "B"),
    ("net.frames_per_flush", "ratio"),
    ("net.egress_hwm", "count"),
    ("net.ctx_bytes_per_migration", "B"),
    ("net.bringup_ms", "ms"),
    ("net.quiesce_tail_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.capacity_req_per_s", "1/s"),
    ("serve.p99_us_at_low", "us"),
    ("serve.p99_us_at_mid", "us"),
    ("serve.p99_us_at_high", "us"),
    ("serve.backlog_at_end", "count"),
    ("serve.max_rate_under_2ms", "1/s"),
    ("gen.late_p99_us", "us"),
    ("obs.overhead_frac", "ratio"),
    ("obs.attrib.charge_ns", "ns"),
    ("rt.mailbox_batch_mean", "count"),
    ("net.flush_ns_p50", "ns"),
    ("host.speed_factor", "ratio"),
    ("host.rounds_discarded", "count"),
    ("host.pinned", "bool"),
    ("raw.ops_per_s", "1/s"),
    ("raw.req_p50_us", "us"),
    ("raw.req_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

fn replay(w: &Arc<Trace>, traced: bool) -> (RtReport, f64) {
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(w, CORES, 64));
    let t0 = now_ns();
    let r = run_workload(rt_config(w.num_threads(), traced), w, placement, || {
        Box::new(AlwaysMigrate)
    });
    (r, (now_ns() - t0) as f64 * 1e-9)
}

/// `rt.local_ns_per_op`, `rt.hop_ns_per_migration`, `obs.overhead_frac`.
fn rt_replays(ctx: &mut Ctx, set: &mut dyn FnMut(&'static str, f64, usize)) {
    let private = Arc::new(micro::private(CORES, CORES, 20_000));
    let ops = private.total_accesses() as f64;
    let ((_, secs), h) = ctx.around(|| replay(&private, false));
    set("rt.local_ns_per_op", secs * h * 1e9 / ops, ops as usize);

    let pingpong = Arc::new(micro::pingpong(CORES / 2, CORES, 2_000));
    let ((r, secs), h) = ctx.around(|| replay(&pingpong, false));
    set(
        "rt.hop_ns_per_migration",
        secs * h * 1e9 / r.flow.migrations.max(1) as f64,
        r.flow.migrations as usize,
    );

    // The program's own obs plane on against off, on a replay long
    // enough (OCEAN × 4) that bring-up does not dominate; alternating,
    // so that host drift hits both sides alike.
    let ocean = Arc::new(sim::ocean(4));
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (traced, secs) in [(false, &mut off), (true, &mut on)] {
            let ((_, s), h) = ctx.around(|| replay(&ocean, traced));
            secs.push(s * h);
        }
    }
    set(
        "obs.overhead_frac",
        median(&on) / median(&off) - 1.0,
        on.len(),
    );
}

/// `rt.mpsc.push_pop_ns`: one producer, one consumer, 64 in flight.
fn mpsc_ns() -> f64 {
    const BATCHES: u64 = 20_000;
    let q: MpscQueue<u64> = MpscQueue::new();
    let t0 = now_ns();
    let mut sum = 0u64;
    for b in 0..BATCHES {
        for i in 0..64 {
            q.push(b + i);
        }
        while let Some(v) = q.pop() {
            sum = sum.wrapping_add(v);
        }
    }
    std::hint::black_box(sum);
    (now_ns() - t0) as f64 / (BATCHES * 64) as f64
}

/// `obs.attrib.charge_ns`: resolve a cell and charge one migration.
fn attrib_ns() -> f64 {
    use std::sync::atomic::Ordering::Relaxed;
    const N: u64 = 2_000_000;
    let table = em2_obs::AttribTable::new(em2_obs::DEFAULT_ATTRIB_SLOTS);
    let t0 = now_ns();
    for i in 0..N {
        let cell = table.cell((i % 16) as u32, ((i / 16) % 16) as u32);
        cell.migrations.fetch_add(1, Relaxed);
        cell.context_bytes.fetch_add(170, Relaxed);
        cell.cost.fetch_add(12, Relaxed);
    }
    std::hint::black_box(table.overflow_routed());
    (now_ns() - t0) as f64 / N as f64
}

/// A migration envelope as the cluster workloads ship it: a stamped
/// trace context and a journey of four hops.
fn arrive() -> WireMsg {
    let mut journey = Journey::default();
    for (shard, cause) in [
        (0, HopCause::Submit),
        (9, HopCause::Migrate),
        (3, HopCause::Migrate),
        (12, HopCause::Migrate),
    ] {
        journey.push(JourneyHop {
            shard,
            node: shard / 8,
            epoch: 0,
            cause,
        });
    }
    WireMsg::Arrive(WireEnvelope {
        thread: 7,
        native: 0,
        task_kind: KIND_TRACE,
        task_ctx: vec![0xA5; HEADER_BYTES + 24],
        scheme_state: Vec::new(),
        pending_op: Some(WireOp::Read(0x4_0000)),
        pending_reply: None,
        parked_at: None,
        run: Some((3, 2)),
        journey,
    })
}

fn request_response() -> [WireMsg; 2] {
    [
        WireMsg::Request {
            addr: 0x4_0000,
            write: None,
            reply_shard: 3,
            token: 99,
        },
        WireMsg::Response {
            token: 99,
            value: Some(42),
        },
    ]
}

/// Nanoseconds per call of `f` over `n` calls.
fn per_call(n: u64, mut f: impl FnMut()) -> f64 {
    let t0 = now_ns();
    for _ in 0..n {
        f();
    }
    (now_ns() - t0) as f64 / n as f64
}

/// `rt.wire.*`: encode and decode of one message set; returns
/// `(encode_ns, decode_ns, bytes)`.
fn wire_codec(msgs: &[WireMsg]) -> (f64, f64, usize) {
    const N: u64 = 200_000;
    let mut buf = Vec::with_capacity(1024);
    let encode = per_call(N, || {
        for m in msgs {
            buf.clear();
            m.encode_into(&mut buf);
            std::hint::black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = msgs.iter().map(WireMsg::encode).collect();
    let decode = per_call(N, || {
        for e in &encoded {
            std::hint::black_box(WireMsg::decode(e).expect("own encoding"));
        }
    });
    (encode, decode, encoded.iter().map(Vec::len).sum())
}

/// `net.proto.*`: the frame a migration travels in.
fn proto_codec() -> (f64, f64) {
    const N: u64 = 200_000;
    let msg = NetMsg::Shard {
        to: 9,
        epoch: 0,
        retries: 0,
        msg: arrive(),
    };
    let mut seq = 0;
    let encode = per_call(N, || {
        seq += 1;
        std::hint::black_box(msg.encode(seq));
    });
    let frame = msg.encode(1);
    let decode = per_call(N, || {
        std::hint::black_box(NetMsg::decode(&frame).expect("own encoding"));
    });
    (encode, decode)
}

/// `net.uds.rtt_us` and `net.uds.stream_frames_per_s`: two threads on
/// one `UdsTransport` connection (both on the SUT CPU, as the
/// cluster's reader and writer threads are). Returns
/// `(rtt seconds per round trip, stream seconds per frame)`.
fn uds_transport() -> Result<(f64, f64), String> {
    const PINGS: usize = 2_000;
    const BATCHES: usize = 1_000;
    let dir = crate::cluster::SockDir::create().map_err(|e| e.to_string())?;
    let addr = dir.path().join("m").display().to_string();
    let io = |e: std::io::Error| format!("uds microbench: {e}");
    let mut acceptor = UdsTransport.listen(&addr).map_err(io)?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let mut peer = acceptor.accept()?;
            for _ in 0..PINGS {
                let frame = peer
                    .rx
                    .recv_frame()?
                    .ok_or(std::io::ErrorKind::UnexpectedEof)?;
                peer.tx.send_frame(&frame)?;
            }
            for _ in 0..BATCHES * 64 {
                peer.rx
                    .recv_frame()?
                    .ok_or(std::io::ErrorKind::UnexpectedEof)?;
            }
            peer.tx.send_frame(&[1])
        });
        let run = || -> std::io::Result<(f64, f64)> {
            let mut conn = UdsTransport.connect(&addr)?;
            let ping = [7u8; 32];
            let t0 = now_ns();
            for _ in 0..PINGS {
                conn.tx.send_frame(&ping)?;
                conn.rx
                    .recv_frame()?
                    .ok_or(std::io::ErrorKind::UnexpectedEof)?;
            }
            let rtt = (now_ns() - t0) as f64 * 1e-9 / PINGS as f64;
            let batch: Vec<Vec<u8>> = vec![vec![0xA5; HEADER_BYTES + 24]; 64];
            let t0 = now_ns();
            for _ in 0..BATCHES {
                conn.tx.send_frames(&batch)?;
            }
            conn.rx
                .recv_frame()?
                .ok_or(std::io::ErrorKind::UnexpectedEof)?;
            let per_frame = (now_ns() - t0) as f64 * 1e-9 / (BATCHES * 64) as f64;
            Ok((rtt, per_frame))
        };
        let r = run().map_err(io);
        echo.join()
            .map_err(|_| "uds echo thread panicked".to_string())?
            .map_err(io)?;
        r
    })
}

/// Every per-layer metric of a traced run of `workload`.
pub fn per_layer(workload: &str, out: &Outcome, ctx: &mut Ctx) -> Vec<Metric> {
    let mut values: Vec<(f64, usize)> = vec![(0.0, 0); PER_LAYER.len()];
    let mut set = |name: &'static str, value: f64, n: usize| {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        values[i] = (value, n);
    };

    // What the rounds observed.
    for (name, _) in PER_LAYER {
        let (v, n) = out.layer(name);
        if n > 0 {
            set(name, v, n);
        }
    }
    for m in out.qualifiers(&ctx.pinning) {
        set(m.name, m.value, m.n);
    }
    let open_loop = workload == "kv-serve-uds2";
    // What tracing costs: time per operation when closed-loop, median
    // latency when open-loop (where throughput is the offered rate).
    let cost = |traced: bool| {
        if open_loop {
            out.median_of(traced, |k| k.norm_lat_us(0.5))
        } else {
            let (_, norm) = out.ops_per_s(traced);
            if norm > 0.0 {
                1.0 / norm
            } else {
                0.0
            }
        }
    };
    if cost(false) > 0.0 && cost(true) > 0.0 {
        set(
            "trace.overhead_frac",
            cost(true) / cost(false) - 1.0,
            out.mid(true).count(),
        );
    }
    if open_loop {
        let p99 = |name| out.layer(name).0;
        let high_backlog = median(
            &out.kept
                .iter()
                .filter(|k| k.kind.rate == Rate::High)
                .flat_map(|k| k.stats.layers.iter())
                .filter(|(n, _, _)| *n == "serve.backlog_at_end")
                .map(|(_, v, _)| *v)
                .collect::<Vec<_>>(),
        );
        set(
            "serve.max_rate_under_2ms",
            kv::max_rate_under_limit(
                p99("serve.p99_us_at_low"),
                p99("serve.p99_us_at_mid"),
                p99("serve.p99_us_at_high"),
                high_backlog,
            ),
            3,
        );
    }

    // Microbenchmarks of the layers this workload exercises.
    let runtime = workload != "sim-kernels";
    let cluster = runtime && workload != "rt-local";
    if !runtime {
        let (ns, h) = ctx.around(sim::event_queue_ns);
        set("engine.event_ns", ns * h, 1_000_000);
    }
    if runtime {
        rt_replays(ctx, &mut set);
        let (ns, h) = ctx.around(mpsc_ns);
        set("rt.mpsc.push_pop_ns", ns * h, 1_280_000);
        let (ns, h) = ctx.around(attrib_ns);
        set("obs.attrib.charge_ns", ns * h, 2_000_000);
    }
    if cluster {
        let ((enc, dec, bytes), h) = ctx.around(|| wire_codec(&[arrive()]));
        set("rt.wire.encode_arrive_ns", enc * h, 200_000);
        set("rt.wire.decode_arrive_ns", dec * h, 200_000);
        set("rt.wire.arrive_bytes", bytes as f64, 1);
        let ((enc, dec, bytes), h) = ctx.around(|| wire_codec(&request_response()));
        set("rt.wire.encode_req_ns", enc * h, 200_000);
        set("rt.wire.decode_req_ns", dec * h, 200_000);
        set("rt.wire.req_resp_bytes", bytes as f64, 1);
        let ((enc, dec), h) = ctx.around(proto_codec);
        set("net.proto.encode_ns", enc * h, 200_000);
        set("net.proto.decode_ns", dec * h, 200_000);
        match ctx.around(uds_transport) {
            (Ok((rtt, per_frame)), h) => {
                set("net.uds.rtt_us", rtt * h * 1e6, 2_000);
                set("net.uds.stream_frames_per_s", 1.0 / (per_frame * h), 64_000);
            }
            (Err(e), _) => eprintln!("benchmark: {e}"),
        }
    }
    set("trace.spans", ctx.tracer.len() as f64, 1);

    PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, unit), (value, n))| Metric {
            name,
            value,
            unit,
            n,
        })
        .collect()
}
