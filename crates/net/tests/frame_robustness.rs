//! Frame-boundary robustness (DESIGN.md §10): every malformed or
//! boundary-sized frame surfaces as a **typed error** — never a
//! panic, never a hang — through all three transports.
//!
//! Covered: payloads of exactly [`MAX_FRAME`] (must round-trip),
//! `MAX_FRAME + 1` (typed refusal on send), zero-length frames (legal
//! at the transport layer; typed codec error at the message layer),
//! and corrupt length prefixes written by a raw socket straight past
//! the framing layer (oversize lengths refused; short reads surface
//! as errors, not blocked readers); and a peer speaking another proto
//! version — a v5 peer's magic-led frames included — is refused at the
//! handshake, typed, whichever side dials. Past the handshake, a
//! hand-driven peer checks the reader's duplicate, gap and fence rules.

#![cfg(unix)]

use em2_net::proto::{NetMsg, PROTO_VERSION};
use em2_net::transport::MAX_FRAME;
use em2_net::{ClusterError, ClusterSpec, LoopbackTransport, NodeRuntime, TcpTransport, Transport};
use proptest::prelude::*;
use std::io::Write;
use std::time::Duration;

/// A connected pair over `t`, using a per-test unique address.
fn pair(t: &dyn Transport, addr: &str) -> (em2_net::Duplex, em2_net::Duplex) {
    let mut acceptor = t.listen(addr).expect("listen");
    let client = t.connect(addr).expect("connect");
    let server = acceptor.accept().expect("accept");
    (client, server)
}

fn tcp_addr(salt: u16) -> String {
    // Salted high port, disjoint from the cluster tests' 21000 range.
    format!(
        "127.0.0.1:{}",
        41000 + (std::process::id() as u16 % 17000) + salt
    )
}

fn uds_addr(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("em2-frame-{tag}-{}.sock", std::process::id()))
}

// ------------------------------------------------ exact-cap payloads

#[test]
fn max_frame_payload_round_trips_loopback() {
    let (mut c, mut s) = pair(&LoopbackTransport, "frame-max-loopback");
    // Writer on a helper thread, as over TCP: a loopback connection is
    // a socket pair, and 32 MiB overflows its buffers.
    let w = std::thread::spawn(move || {
        let payload = vec![0xA5u8; MAX_FRAME];
        c.tx.send_frame(&payload).expect("exactly at the cap");
        c
    });
    let got = s.rx.recv_frame().expect("recv").expect("frame");
    assert_eq!(got.len(), MAX_FRAME);
    assert!(
        got.iter().all(|&b| b == 0xA5),
        "cap-sized payload arrived intact"
    );
    drop(w.join().expect("writer"));
}

#[test]
fn max_frame_payload_round_trips_tcp() {
    let addr = tcp_addr(0);
    let (mut c, mut s) = pair(&TcpTransport, &addr);
    // Writer on a helper thread: a 32 MiB frame overflows socket
    // buffers, so send and receive must proceed concurrently.
    let w = std::thread::spawn(move || {
        let payload = vec![0x5Au8; MAX_FRAME];
        c.tx.send_frame(&payload).expect("exactly at the cap");
        c
    });
    let got = s.rx.recv_frame().expect("recv").expect("frame");
    assert_eq!(got.len(), MAX_FRAME);
    assert!(got.iter().all(|&b| b == 0x5A));
    drop(w.join().expect("writer"));
}

// ------------------------------------------------- over-cap payloads

#[test]
fn oversize_payload_is_refused_typed_on_every_transport() {
    let payload = vec![0u8; MAX_FRAME + 1];
    let mut checks: Vec<(&str, em2_net::Duplex, em2_net::Duplex)> = vec![{
        let (c, s) = pair(&LoopbackTransport, "frame-over-loopback");
        ("loopback", c, s)
    }];
    let tcp = tcp_addr(1);
    let (c, s) = pair(&TcpTransport, &tcp);
    checks.push(("tcp", c, s));
    let path = uds_addr("over");
    let (c, s) = pair(
        &em2_net::UdsTransport,
        path.to_str().expect("utf8 socket path"),
    );
    checks.push(("uds", c, s));
    let _ = std::fs::remove_file(path);
    for (name, mut c, _s) in checks {
        let e =
            c.tx.send_frame(&payload)
                .expect_err("one byte over the cap");
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::InvalidInput,
            "{name}: oversize is a typed refusal"
        );
        // The connection survives the refusal: nothing was written.
        c.tx.send_frame(b"still alive")
            .expect("connection survives an oversize refusal");
    }
}

// ----------------------------------------------- zero-length payloads

#[test]
fn zero_length_frame_is_legal_transport_level_but_typed_at_the_codec() {
    let (mut c, mut s) = pair(&LoopbackTransport, "frame-zero-loopback");
    c.tx.send_frame(&[]).expect("empty frame sends");
    let got = s.rx.recv_frame().expect("recv").expect("frame");
    assert!(got.is_empty());
    // The message layer refuses it with a value, not a panic.
    NetMsg::decode(&got).expect_err("empty frame is not a message");
}

// ------------------------------------- corrupt length prefixes (raw)

/// Write raw bytes (bogus framing included) straight into the socket
/// under the receiver's framing layer, then assert `recv_frame`
/// returns a typed error — not a panic, not a hang.
fn assert_raw_bytes_fail_typed(
    raw: &mut dyn Write,
    mut server: em2_net::Duplex,
    close: impl FnOnce(),
    what: &str,
) {
    raw.write_all(&(u32::MAX).to_le_bytes())
        .expect("raw length prefix");
    raw.flush().expect("flush");
    close();
    let e = server
        .rx
        .recv_frame()
        .expect_err("a 4 GiB length prefix must be refused");
    assert_eq!(
        e.kind(),
        std::io::ErrorKind::InvalidData,
        "{what}: oversize length prefix is typed"
    );
}

#[test]
fn corrupt_length_prefix_is_typed_over_tcp() {
    let addr = tcp_addr(2);
    let mut acceptor = TcpTransport.listen(&addr).expect("listen");
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    let server = acceptor.accept().expect("accept");
    let clone = raw.try_clone().expect("clone");
    assert_raw_bytes_fail_typed(&mut raw, server, move || drop(clone), "tcp");
}

#[test]
fn corrupt_length_prefix_is_typed_over_uds() {
    let path = uds_addr("rawlen");
    let mut acceptor = em2_net::UdsTransport
        .listen(path.to_str().expect("utf8 socket path"))
        .expect("listen");
    let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("raw connect");
    let server = acceptor.accept().expect("accept");
    assert_raw_bytes_fail_typed(&mut raw, server, || (), "uds");
    let _ = std::fs::remove_file(path);
}

#[test]
fn truncated_header_and_truncated_payload_are_errors_not_hangs() {
    let addr = tcp_addr(3);
    let mut acceptor = TcpTransport.listen(&addr).expect("listen");
    // Case 1: half a length prefix, then EOF.
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        let mut server = acceptor.accept().expect("accept");
        raw.write_all(&[0x10, 0x00]).expect("half a header");
        drop(raw);
        server
            .rx
            .recv_frame()
            .expect_err("EOF inside the header is an error (a clean EOF is Ok(None))");
    }
    // Case 2: a plausible length, then fewer payload bytes than
    // promised, then EOF — the reader must not wait for bytes that
    // will never come once the stream closes.
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        let mut server = acceptor.accept().expect("accept");
        raw.write_all(&64u32.to_le_bytes()).expect("header");
        raw.write_all(&[0xEE; 10]).expect("short payload");
        drop(raw);
        server
            .rx
            .recv_frame()
            .expect_err("EOF inside the payload is an error");
    }
}

// ------------------------------------------- the proto version fence

/// A handshake frame at sequence 0 as this build encodes it: `Hello`
/// from node 1 naming `wire_version` when `tag` is 0, `HelloAck` from
/// node 0 when it is 1.
fn handshake(tag: u8, wire_version: u8, topology: u64) -> Vec<u8> {
    let msg = if tag == 0 {
        NetMsg::Hello {
            node: 1,
            wire_version,
            topology,
        }
    } else {
        NetMsg::HelloAck { node: 0, topology }
    };
    msg.encode(0)
}

/// That frame under version byte `version`, its check still valid.
fn handshake_frame(tag: u8, version: u8, topology: u64) -> Vec<u8> {
    let mut frame = handshake(tag, em2_rt::wire::WIRE_VERSION, topology);
    frame[0] = version;
    frame
}

/// The handshake frame byte for byte as a proto v5 build sent it:
/// `[magic "EM2N"][5]` where this build has its version byte, then the
/// check, sequence and body this build writes (v5 hashed and laid them
/// out as v6 does), its `Hello` naming wire version 4.
fn v5_handshake_frame(tag: u8, topology: u64) -> Vec<u8> {
    let mut frame = b"EM2N".to_vec();
    frame.push(5);
    frame.extend_from_slice(&handshake(tag, 4, topology)[1..]);
    frame
}

#[test]
fn a_magic_led_frame_is_refused_by_version_before_it_is_parsed() {
    // The version byte is the first byte, so a v5 frame fails on its
    // magic's `'E'` before the check, the sequence or the body is
    // read; and a v5 node reading ours finds a first byte that is not
    // its magic.
    for tag in [0, 1] {
        let theirs = v5_handshake_frame(tag, 0xABCD);
        assert_eq!(
            NetMsg::decode(&theirs),
            Err(em2_rt::wire::WireError::Version {
                got: 0x45,
                want: PROTO_VERSION
            })
        );
        let ours = handshake_frame(tag, PROTO_VERSION, 0xABCD);
        assert_eq!(NetMsg::decode(&ours).map(|(seq, _)| seq), Ok(0));
        assert_ne!(ours[0], b'E');
    }
    let ack = handshake_frame(1, PROTO_VERSION, 0xABCD);
    assert_eq!(
        ack[1..],
        v5_handshake_frame(1, 0xABCD)[5..],
        "past the sentinel, v5's layout"
    );
}

fn start_node(spec: ClusterSpec, node: usize) -> Result<NodeRuntime, ClusterError> {
    let w = std::sync::Arc::new(em2_trace::gen::micro::uniform(4, 4, 10, 64, 0.3, 1));
    NodeRuntime::start(
        spec,
        node,
        em2_rt::RtConfig::eviction_free(4, 4),
        "version-fence",
        std::sync::Arc::new(em2_placement::FirstTouch::build(&w, 4, 64)),
        em2_rt::TaskRegistry::for_workload(w),
        || Box::new(em2_core::AlwaysMigrate),
        Vec::new(),
    )
}

fn assert_refused_by_version(r: Result<NodeRuntime, ClusterError>, got: u8, what: &str) {
    let e = r
        .err()
        .unwrap_or_else(|| panic!("{what}: a version-{got} peer joined"));
    assert_eq!(e.kind(), "handshake", "{what}: {e}");
    assert!(
        e.to_string().contains(&format!("version {got}")),
        "{what}: {e}"
    );
}

/// The two foreign frames a fence must refuse: a v5 peer's magic-led
/// one, and one in this layout under the next version.
fn foreign_handshakes(tag: u8, topology: u64) -> [(Vec<u8>, u8); 2] {
    [
        (v5_handshake_frame(tag, topology), b'E'),
        (
            handshake_frame(tag, PROTO_VERSION + 1, topology),
            PROTO_VERSION + 1,
        ),
    ]
}

#[test]
fn a_foreign_dialer_is_refused_at_the_handshake() {
    let spec = ClusterSpec::loopback(2, 4);
    for (hello, got) in foreign_handshakes(0, spec.digest()) {
        let addr = spec.nodes[0].addr.clone();
        let node0 = std::thread::spawn({
            let spec = spec.clone();
            move || start_node(spec, 0)
        });
        // Dial until node 0 listens, then open as the foreign node 1
        // would. The topology digest never gets looked at: the version
        // byte is first.
        let mut dialer = loop {
            match LoopbackTransport.connect(&addr) {
                Ok(d) => break d,
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        dialer
            .tx
            .send_frame(&hello)
            .expect("send the foreign Hello");
        assert_refused_by_version(node0.join().expect("node 0 thread"), got, "acceptor");
    }
}

#[test]
fn a_foreign_acceptor_is_refused_at_the_handshake() {
    let spec = ClusterSpec::loopback(2, 4);
    for (ack, got) in foreign_handshakes(1, spec.digest()) {
        let mut acceptor = LoopbackTransport
            .listen(&spec.nodes[0].addr)
            .expect("listen as node 0");
        let node1 = std::thread::spawn({
            let spec = spec.clone();
            move || start_node(spec, 1)
        });
        let mut conn = acceptor.accept().expect("node 1 dials");
        let hello = conn.rx.recv_frame().expect("recv").expect("its Hello");
        // What a foreign node 0 would look at first: a version byte it
        // does not speak (a v5 node expected its magic there).
        assert_eq!(hello[0], PROTO_VERSION);
        // Suppose it answered anyway.
        conn.tx.send_frame(&ack).expect("send the foreign HelloAck");
        assert_refused_by_version(node1.join().expect("node 1 thread"), got, "dialer");
    }
}

// ------------------------------------------------ the reader's checks

/// Node 1 of a two-node loopback cluster reads frames a hand-driven
/// node 0 (the coordinator) writes, and each receive check acts in
/// order: a duplicate sequence is dropped unread, a frame for a shard
/// node 0 owns bounces back, one stamped ahead of node 1's map parks
/// until the `EpochUpdate` and then re-routes, and a sequence gap fails
/// the run typed. Node 1's shard 2 answers requests in between, so a
/// dropped duplicate shows as the value it did not store. Everything is
/// asserted after node 1 finishes, which a run deadline and a receive
/// timeout bound: a reader that breaks a rule fails the test, not hangs.
#[test]
fn the_reader_drops_duplicates_bounces_parks_and_fails_on_a_gap() {
    use em2_rt::wire::{Journey, WireEnvelope, WireMsg};
    let mut spec = ClusterSpec::loopback(2, 4);
    spec.timeouts.run_ms = 10_000;
    let mut acceptor = LoopbackTransport
        .listen(&spec.nodes[0].addr)
        .expect("listen as node 0");
    let node1 = std::thread::spawn({
        let spec = spec.clone();
        move || start_node(spec, 1)
    });
    let mut conn = acceptor.accept().expect("node 1 dials");
    let hello = conn.rx.recv_frame().expect("recv").expect("its Hello");
    assert!(matches!(
        NetMsg::decode(&hello),
        Ok((0, NetMsg::Hello { node: 1, .. }))
    ));
    let ack = NetMsg::HelloAck {
        node: 0,
        topology: spec.digest(),
    };
    conn.tx.send_frame(&ack.encode(0)).expect("HelloAck");
    let node1 = node1.join().expect("node 1 thread").expect("node 1 joins");
    let wait = Some(Duration::from_secs(10));
    conn.rx.set_recv_timeout(wait).expect("recv timeout");

    let shard = |to, epoch, msg| NetMsg::Shard {
        to,
        epoch,
        retries: 0,
        msg,
    };
    let request = |write, token| WireMsg::Request {
        addr: 64,
        write,
        reply_shard: 0,
        token,
    };
    let arrive = |thread| {
        WireMsg::Arrive(WireEnvelope {
            thread,
            native: 0,
            task_kind: 1,
            task_ctx: vec![0xA5; 40],
            scheme_state: Vec::new(),
            pending_op: None,
            pending_reply: None,
            parked_at: None,
            run: None,
            journey: Journey::default(),
        })
    };
    let mut send = |seq: u64, msg: NetMsg| conn.tx.send_frame(&msg.encode(seq)).expect("send");
    let mut got = Vec::new();
    let mut take = |got: &mut Vec<_>| {
        let frame = conn.rx.recv_frame().ok().flatten();
        got.push(frame.map(|f| NetMsg::decode(&f)));
    };
    send(1, shard(2, 0, request(Some(42), 7)));
    send(1, shard(2, 0, request(Some(99), 8)));
    send(2, shard(2, 0, request(None, 9)));
    take(&mut got);
    take(&mut got);
    send(3, shard(0, 0, arrive(5)));
    take(&mut got);
    send(4, shard(1, 1, arrive(6)));
    let owners = vec![0, 0, 1, 1];
    send(5, NetMsg::EpochUpdate { epoch: 1, owners });
    take(&mut got);
    send(7, shard(2, 1, request(None, 10)));
    // Node 1's abort: its reader met the gap before this close.
    take(&mut got);
    drop(conn);
    let e = node1.finish().expect_err("a lost frame fails the run");

    let reply = |token, value| shard(0, 0, WireMsg::Response { token, value });
    let bounce = NetMsg::Bounce {
        to: 0,
        epoch: 0,
        retries: 0,
        msg: arrive(5),
    };
    let want = [
        (1, reply(7, None)),
        (2, reply(9, Some(42))),
        (3, bounce),
        (4, shard(1, 1, arrive(6))),
    ];
    let abort = got.pop().flatten();
    let want: Vec<_> = want.into_iter().map(|w| Some(Ok(w))).collect();
    assert_eq!(got, want);
    let gap = |r: &str| r.contains("expected 6, got 7");
    assert!(
        matches!(&abort, Some(Ok((5, NetMsg::Abort { reason }))) if gap(reason)),
        "{abort:?}"
    );
    assert_eq!(e.kind(), "codec", "{e}");
    assert!(e.to_string().contains("expected 6, got 7"), "{e}");
}

// --------------------------------------------------------- proptests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any small payload round-trips bit-exact through a loopback
    /// pair, and the receiver observes exactly the sent boundaries
    /// (no coalescing, no splitting).
    #[test]
    fn arbitrary_payloads_round_trip_loopback(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..8)
    ) {
        let stamp = payloads.iter().map(|p| p.len()).sum::<usize>();
        let addr = format!("frame-prop-{stamp}-{}", payloads.len());
        let (mut c, mut s) = pair(&LoopbackTransport, &addr);
        for p in &payloads {
            c.tx.send_frame(p).expect("send");
        }
        for p in &payloads {
            let got = s.rx.recv_frame().expect("recv").expect("frame");
            prop_assert_eq!(&got, p);
        }
    }

}

/// Any corrupt length prefix past the cap is refused typed over a
/// real socket — and within a bounded time (no hang). One listener,
/// many raw clients: rebinding a port per case would trip TIME_WAIT.
#[test]
fn oversize_length_prefixes_are_refused_over_tcp() {
    let addr = tcp_addr(4);
    let mut acceptor = TcpTransport.listen(&addr).expect("listen");
    let span = u32::MAX as u64 - MAX_FRAME as u64;
    let mut rng = em2_model::DetRng::new(0xF8A3_11ED);
    for case in 0..24 {
        let len = (MAX_FRAME as u64 + 1 + rng.below(span)) as u32;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        let mut server = acceptor.accept().expect("accept");
        server
            .rx
            .set_recv_timeout(Some(Duration::from_secs(10)))
            .expect("recv timeout");
        raw.write_all(&len.to_le_bytes()).expect("bogus header");
        raw.flush().expect("flush");
        let e = server.rx.recv_frame().expect_err("past-cap length refused");
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::InvalidData,
            "case {case}: length {len} must be refused typed"
        );
    }
}
