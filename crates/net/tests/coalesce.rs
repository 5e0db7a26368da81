//! Coalesced-stream equivalence (DESIGN.md §11): a batch of frames
//! packed into **one** flush by the egress writer must be
//! indistinguishable to the receiver from the same frames sent one
//! write apiece — same frame boundaries, same sequence numbers, same
//! checksums, same decoded messages — on all three transports.
//!
//! Also covered: a flush cut mid-batch (crash inside the coalesce
//! window) surfaces as a **typed error** after the complete prefix,
//! never a hang; every prefix-truncation of a message payload is a
//! typed codec refusal; and what the data path batches *around* a
//! flush or a socket read instead of paying per frame — the wire
//! ledgers, the liveness stamp — stays exact and fresh
//! ([`FrameRx::buffered`] is the seam).

#![cfg(unix)]

use em2_core::decision::HistoryPredictor;
use em2_model::DetRng;
use em2_net::proto::NetMsg;
use em2_net::{
    Acceptor, ClusterSpec, ClusterTimeouts, Duplex, FrameRx, LoopbackTransport, NetReport,
    NodeRuntime, TcpTransport, Transport, TransportKind,
};
use em2_placement::{FirstTouch, Placement};
use em2_rt::wire::WireMsg;
use em2_rt::{RtConfig, TaskRegistry, TaskSpec, TraceTask};
use em2_trace::gen::micro;
use proptest::prelude::*;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An arbitrary run-phase message (everything a writer thread can
/// legally coalesce: shard traffic interleaved with control frames).
fn arbitrary_msg(rng: &mut DetRng) -> NetMsg {
    match rng.below(10) {
        0 => NetMsg::Shard {
            to: rng.below(64) as u32,
            epoch: rng.below(8),
            retries: rng.below(3) as u32,
            msg: WireMsg::Request {
                addr: rng.below(1 << 20),
                write: if rng.chance(0.5) {
                    Some(rng.below(u64::MAX))
                } else {
                    None
                },
                reply_shard: rng.below(64) as u32,
                token: rng.below(1 << 32) as u32,
            },
        },
        1 => NetMsg::Shard {
            to: rng.below(64) as u32,
            epoch: rng.below(8),
            retries: 0,
            msg: WireMsg::Response {
                token: rng.below(1 << 32) as u32,
                value: if rng.chance(0.5) {
                    Some(rng.below(u64::MAX))
                } else {
                    None
                },
            },
        },
        2 => NetMsg::Shard {
            to: rng.below(64) as u32,
            epoch: rng.below(8),
            retries: 0,
            msg: WireMsg::BarrierRelease {
                idx: rng.below(16) as u32,
            },
        },
        3 => NetMsg::BarrierArrive {
            k: rng.below(16) as u32,
        },
        4 => NetMsg::BarrierRelease {
            k: rng.below(16) as u32,
        },
        5 => NetMsg::Closed {
            submitted: rng.below(1 << 40),
        },
        6 => NetMsg::Retired,
        7 => NetMsg::Quiesce,
        8 => NetMsg::Heartbeat,
        _ => NetMsg::Abort {
            reason: format!("synthetic failure {}", rng.below(1000)),
        },
    }
}

/// A batch of `n` messages encoded with consecutive sequence numbers
/// starting at 1 — exactly what one writer-thread coalesce window
/// produces.
fn batch(seed: u64, n: usize) -> (Vec<NetMsg>, Vec<Vec<u8>>) {
    let mut rng = DetRng::new(seed);
    let msgs: Vec<NetMsg> = (0..n).map(|_| arbitrary_msg(&mut rng)).collect();
    let frames = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| m.encode(i as u64 + 1))
        .collect();
    (msgs, frames)
}

/// Receive `want` frames and assert each decodes to the expected
/// `(seq, msg)` pair, in order.
fn assert_stream_decodes(rx: &mut dyn FrameRx, want: &[NetMsg], what: &str) {
    for (i, expect) in want.iter().enumerate() {
        let frame = rx
            .recv_frame()
            .unwrap_or_else(|e| panic!("{what}: recv frame {i}: {e}"))
            .unwrap_or_else(|| panic!("{what}: EOF before frame {i}"));
        let (seq, msg) =
            NetMsg::decode(&frame).unwrap_or_else(|e| panic!("{what}: decode frame {i}: {e:?}"));
        assert_eq!(seq, i as u64 + 1, "{what}: frame {i} sequence");
        assert_eq!(&msg, expect, "{what}: frame {i} message");
    }
}

fn tcp_addr(salt: u16) -> String {
    // Salted high port, disjoint from the cluster tests' 21000 range
    // and frame_robustness's 41000 range.
    format!(
        "127.0.0.1:{}",
        24000 + (std::process::id() as u16 % 16000) + salt
    )
}

fn uds_addr(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("em2-coalesce-{tag}-{}.sock", std::process::id()))
}

/// One flush carrying the whole batch over `t`; the receiver must see
/// every original frame boundary and decode bit-identically.
fn exercise_one_flush(t: &dyn Transport, addr: &str, seed: u64, n: usize, what: &str) {
    let (msgs, frames) = batch(seed, n);
    let mut acceptor = t.listen(addr).expect("listen");
    let mut client = t.connect(addr).expect("connect");
    let mut server = acceptor.accept().expect("accept");
    server
        .rx
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    client.tx.send_frames(&frames).expect("coalesced send");
    assert_stream_decodes(server.rx.as_mut(), &msgs, what);
}

// --------------------------------------- one flush == many flushes

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of run-phase messages packed into a single
    /// flush decodes identically (sequence, checksum, message) over
    /// the in-process loopback.
    #[test]
    fn coalesced_batch_decodes_identically_loopback(
        seed in any::<u64>(), n in 1usize..48
    ) {
        let addr = format!("coalesce-prop-{seed:x}-{n}");
        exercise_one_flush(&LoopbackTransport, &addr, seed, n, "loopback");
    }
}

#[test]
fn coalesced_batch_decodes_identically_tcp() {
    for (i, &(seed, n)) in [(0xC0A1E5CE_u64, 40), (0xDEAD_BEEF, 1), (7, 64)]
        .iter()
        .enumerate()
    {
        let addr = tcp_addr(10 + i as u16);
        exercise_one_flush(&TcpTransport, &addr, seed, n, "tcp");
    }
}

#[test]
fn coalesced_batch_decodes_identically_uds() {
    for (i, &(seed, n)) in [(0xC0A1E5CE_u64, 40), (0xDEAD_BEEF, 1), (7, 64)]
        .iter()
        .enumerate()
    {
        let path = uds_addr(&format!("eq{i}"));
        exercise_one_flush(
            &em2_net::UdsTransport,
            path.to_str().expect("utf8 socket path"),
            seed,
            n,
            "uds",
        );
        let _ = std::fs::remove_file(path);
    }
}

/// The receiver cannot distinguish one coalesced flush from
/// frame-per-write: same frames arrive, same boundaries, same
/// decodes. (This is the observational-equivalence half of the
/// DESIGN.md §11 soundness argument.)
#[test]
fn one_flush_and_many_flushes_are_observationally_equal() {
    let (msgs, frames) = batch(0x0E0_F1A5, 32);
    let mut pairs = Vec::new();
    for (label, addr) in [
        ("coalesced", "coalesce-ab-one"),
        ("frame-per-write", "coalesce-ab-many"),
    ] {
        let mut acceptor = LoopbackTransport.listen(addr).expect("listen");
        let client = LoopbackTransport.connect(addr).expect("connect");
        let server = acceptor.accept().expect("accept");
        pairs.push((label, client, server));
    }
    let (_, ref mut one_c, _) = pairs[0];
    one_c.tx.send_frames(&frames).expect("one flush");
    let (_, ref mut many_c, _) = pairs[1];
    for f in &frames {
        many_c.tx.send_frame(f).expect("one frame per write");
    }
    for (label, _, server) in &mut pairs {
        assert_stream_decodes(server.rx.as_mut(), &msgs, label);
    }
}

// ------------------------------------------ mid-batch truncation

/// Raw wire image of a coalesced flush: `[u32 LE len][payload]` per
/// frame, concatenated — byte-identical to what `send_frames` puts on
/// a stream socket in one write.
fn wire_image(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&(f.len() as u32).to_le_bytes());
        out.extend_from_slice(f);
    }
    out
}

/// Write `cut` bytes of a multi-frame flush, then EOF — a writer
/// crashing mid-coalesce-window. The receiver must decode every
/// complete frame before the cut, then get a typed error (never a
/// hang, never a phantom frame).
fn assert_truncated_flush_typed(
    raw: &mut dyn Write,
    close: impl FnOnce(),
    server: &mut em2_net::Duplex,
    what: &str,
) {
    let (msgs, frames) = batch(0x7A0C_41E5, 12);
    let image = wire_image(&frames);
    // Cut inside frame 5's payload: frames 0..=4 are whole, frame 5's
    // length prefix promises bytes that never arrive.
    let whole: usize = frames[..5].iter().map(|f| 4 + f.len()).sum();
    let cut = whole + 4 + frames[5].len() / 2;
    assert!(cut < image.len(), "cut must land mid-batch");
    raw.write_all(&image[..cut]).expect("truncated flush");
    raw.flush().expect("flush");
    close();
    server
        .rx
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    assert_stream_decodes(server.rx.as_mut(), &msgs[..5], what);
    let e = server
        .rx
        .recv_frame()
        .expect_err("EOF inside a coalesced batch is an error, not Ok(None)");
    // Any typed io error is acceptable; a hang is not — the 10s
    // receive timeout above bounds the wait if the reader blocks.
    assert!(
        !format!("{e}").is_empty(),
        "{what}: truncation error renders"
    );
}

#[test]
fn flush_truncated_mid_batch_is_typed_over_tcp() {
    let addr = tcp_addr(30);
    let mut acceptor = TcpTransport.listen(&addr).expect("listen");
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    let mut server = acceptor.accept().expect("accept");
    let clone = raw.try_clone().expect("clone");
    assert_truncated_flush_typed(&mut raw, move || drop(clone), &mut server, "tcp");
}

#[test]
fn flush_truncated_mid_batch_is_typed_over_uds() {
    let path = uds_addr("trunc");
    let mut acceptor = em2_net::UdsTransport
        .listen(path.to_str().expect("utf8 socket path"))
        .expect("listen");
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("raw connect");
    let shutdown = raw.try_clone().expect("clone");
    let mut server = acceptor.accept().expect("accept");
    assert_truncated_flush_typed(
        &mut raw,
        move || {
            shutdown
                .shutdown(std::net::Shutdown::Write)
                .expect("shutdown")
        },
        &mut server,
        "uds",
    );
    let _ = std::fs::remove_file(path);
}

// --------------------------------------------- payload truncation

/// Every strict prefix of every generated frame payload is refused by
/// the codec with a typed error — the checksum and field cursors make
/// a torn payload unrepresentable as a valid (wrong) message.
#[test]
fn every_payload_prefix_is_a_typed_codec_error() {
    let (_, frames) = batch(0x5EED_CAFE, 24);
    for (i, frame) in frames.iter().enumerate() {
        for cut in 0..frame.len() {
            NetMsg::decode(&frame[..cut]).expect_err(&format!(
                "frame {i} truncated to {cut}/{} bytes must be refused",
                frame.len()
            ));
        }
        let (seq, _) = NetMsg::decode(frame).expect("whole frame decodes");
        assert_eq!(seq, i as u64 + 1);
    }
}

// ------------------------------------ per-read and per-flush batching

/// [`FrameRx::buffered`]: `false` while the next `recv` has to go to
/// the carrier, `true` while it is served from what an earlier read
/// already brought in.
fn exercise_buffered(t: &dyn Transport, addr: &str, what: &str) {
    let (_, frames) = batch(0xB0FF_E2ED, 5);
    let mut acceptor = t.listen(addr).expect("listen");
    let mut client = t.connect(addr).expect("connect");
    let mut server = acceptor.accept().expect("accept");
    server
        .rx
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("recv timeout");
    assert!(!server.rx.buffered(), "{what}: nothing received yet");
    client.tx.send_frames(&frames).expect("one flush");
    // Let the whole flush reach the receiving socket, so that one read
    // takes all of it.
    std::thread::sleep(Duration::from_millis(50));
    for (i, sent) in frames.iter().enumerate() {
        let got = server.rx.recv().expect("recv").expect("frame").to_vec();
        assert_eq!(&got, sent, "{what}: frame {i}");
        assert_eq!(
            server.rx.buffered(),
            i + 1 < frames.len(),
            "{what}: after frame {i} of one {}-frame flush",
            frames.len()
        );
    }
}

#[test]
fn buffered_spans_exactly_the_frames_of_one_flush() {
    exercise_buffered(&LoopbackTransport, "coalesce-buffered", "loopback");
    exercise_buffered(&TcpTransport, &tcp_addr(40), "tcp");
    let path = uds_addr("buffered");
    exercise_buffered(
        &em2_net::UdsTransport,
        path.to_str().expect("utf8 socket path"),
        "uds",
    );
    let _ = std::fs::remove_file(path);
}

/// Frames and payload bytes a node's receiving halves handed out after
/// the handshake — the peer's egress ledger as seen from the other end
/// of the wire, control frames included.
#[derive(Default)]
struct Tally {
    frames: AtomicU64,
    bytes: AtomicU64,
}

/// Loopback with every receiving half tallied.
struct TallyTransport(Arc<Tally>);

struct TallyAcceptor(Box<dyn Acceptor>, Arc<Tally>);

struct TallyRx {
    inner: Box<dyn FrameRx>,
    tally: Arc<Tally>,
    handshaken: bool,
}

fn tallied(d: Duplex, tally: &Arc<Tally>) -> Duplex {
    Duplex {
        tx: d.tx,
        rx: Box::new(TallyRx {
            inner: d.rx,
            tally: Arc::clone(tally),
            handshaken: false,
        }),
    }
}

impl Transport for TallyTransport {
    fn kind(&self) -> &'static str {
        LoopbackTransport.kind()
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>> {
        let inner = LoopbackTransport.listen(addr)?;
        Ok(Box::new(TallyAcceptor(inner, Arc::clone(&self.0))))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        Ok(tallied(LoopbackTransport.connect(addr)?, &self.0))
    }
}

impl Acceptor for TallyAcceptor {
    fn accept(&mut self) -> io::Result<Duplex> {
        Ok(tallied(self.0.accept()?, &self.1))
    }

    fn accept_deadline(&mut self, deadline: Instant) -> io::Result<Duplex> {
        Ok(tallied(self.0.accept_deadline(deadline)?, &self.1))
    }
}

impl FrameRx for TallyRx {
    fn recv(&mut self) -> io::Result<Option<&[u8]>> {
        let frame = self.inner.recv()?;
        if let Some(f) = frame {
            if std::mem::replace(&mut self.handshaken, true) {
                self.tally.frames.fetch_add(1, Ordering::Relaxed);
                self.tally
                    .bytes
                    .fetch_add(f.len() as u64, Ordering::Relaxed);
            }
        }
        Ok(frame)
    }

    fn buffered(&self) -> bool {
        self.inner.buffered()
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_recv_timeout(timeout)
    }
}

/// A two-node loopback cluster with 20 ms heartbeats, every node's
/// receive side tallied. Each node comes up, sits idle for `idle`,
/// must still be healthy, then runs its share of a small mixed
/// workload (or, without `run_workload`, nothing) to quiesce.
fn heartbeat_cluster(
    tag: &str,
    idle: Duration,
    run_workload: bool,
) -> Vec<(NetReport, Arc<Tally>)> {
    const SHARDS: usize = 8;
    let spec = ClusterSpec::even(
        TransportKind::Loopback,
        &format!("coalesce-{tag}-{}", std::process::id()),
        2,
        SHARDS,
    )
    .with_timeouts(ClusterTimeouts {
        connect_ms: 5_000,
        run_ms: 20_000,
        heartbeat_ms: 20,
    });
    let w = micro::uniform(SHARDS, SHARDS, 200, 64, 0.3, 29);
    let placement: Arc<dyn Placement> = Arc::new(FirstTouch::build(&w, SHARDS, 64));
    let w = Arc::new(w);
    let node = |node: usize| {
        let tally = Arc::new(Tally::default());
        let mut nrt = NodeRuntime::start_with_transport(
            Box::new(TallyTransport(Arc::clone(&tally))),
            spec.clone(),
            node,
            RtConfig::eviction_free(SHARDS, w.num_threads()),
            "ledger",
            Arc::clone(&placement),
            TaskRegistry::for_workload(Arc::clone(&w)),
            || Box::new(HistoryPredictor::new(1.0, 0.5)),
            em2_engine::barrier_quotas(w.threads.iter().map(|t| t.barriers.len())),
        )
        .expect("node starts");
        std::thread::sleep(idle);
        assert!(!nrt.has_failed(), "node {node} lost its idle peer");
        let (first, count) = spec.span(node);
        for t in w.threads.iter().filter(|_| run_workload) {
            if (first..first + count).contains(&t.native.index()) {
                let task = TraceTask::new(Arc::clone(&w), t.thread);
                nrt.submit(TaskSpec::new(Box::new(task), t.native), t.thread);
            }
        }
        (nrt.finish().expect("clean run"), tally)
    };
    std::thread::scope(|s| {
        let nodes: Vec<_> = (0..2).map(|n| s.spawn(move || node(n))).collect();
        nodes
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    })
}

/// The ledgers are published per flush and per socket read, not per
/// frame — and are still exact where they are read: each edge's egress
/// ledger (control frames included) equals what the peer's reader took
/// off the wire, and the run-traffic ledgers balance in frames and in
/// bytes.
#[test]
fn batched_ledgers_are_exact() {
    let nodes = heartbeat_cluster("ledger", Duration::from_millis(70), true);
    for (me, peer) in [(0, 1), (1, 0)] {
        let (wire, seen) = (&nodes[me].0.wire, &nodes[peer].1);
        assert_eq!(
            (wire.frames_tx_total, wire.bytes_tx_total),
            (
                seen.frames.load(Ordering::Relaxed),
                seen.bytes.load(Ordering::Relaxed)
            ),
            "edge {me}→{peer}: written == consumed"
        );
        assert!(
            wire.frames_tx_total >= wire.frames_tx + 2,
            "edge {me}→{peer} carried heartbeats and a goodbye: {wire:?}"
        );
        assert!(wire.arrives_tx > 0 && wire.context_bytes_tx >= 24 * wire.arrives_tx);
        assert!(wire.flushes_tx <= wire.frames_tx_total);
    }
    let sum = |f: fn(&em2_net::WireSnapshot) -> u64| -> u64 {
        nodes.iter().map(|(r, _)| f(&r.wire)).sum()
    };
    assert!(sum(|w| w.frames_tx) > 0, "the workload crossed nodes");
    assert_eq!(sum(|w| w.frames_tx), sum(|w| w.frames_rx), "frames balance");
    assert_eq!(sum(|w| w.bytes_tx), sum(|w| w.bytes_rx), "bytes balance");
}

/// Liveness is stamped per socket read, and every heartbeat is its own
/// read on an idle edge: sixty intervals of nothing but heartbeats —
/// fifteen peer deadlines — pass without a `peer-lost`. Red for a
/// reader that refreshes the stamp every Nth frame.
#[test]
fn an_idle_edge_stays_alive_on_heartbeats_alone() {
    let nodes = heartbeat_cluster("idle", Duration::from_millis(60 * 20), false);
    for (report, seen) in &nodes {
        let heartbeats = report.wire.frames_tx_total - report.wire.frames_tx - 1;
        assert!(heartbeats >= 30, "node {}: {:?}", report.node, report.wire);
        assert_eq!(report.wire.arrives_tx, 0, "no data frame");
        assert!(seen.frames.load(Ordering::Relaxed) > heartbeats / 2);
    }
}
