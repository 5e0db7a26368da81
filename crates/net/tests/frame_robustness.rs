//! Frame-boundary robustness (DESIGN.md §10): every malformed or
//! boundary-sized frame surfaces as a **typed error** — never a
//! panic, never a hang — through all three transports.
//!
//! Covered: payloads of exactly [`MAX_FRAME`] (must round-trip),
//! `MAX_FRAME + 1` (typed refusal on send), zero-length frames (legal
//! at the transport layer; typed codec error at the message layer),
//! and corrupt length prefixes written by a raw socket straight past
//! the framing layer (oversize lengths refused; short reads surface
//! as errors, not blocked readers); and a peer still speaking proto v3
//! is refused at the handshake, typed, whichever side dials.

use em2_net::proto::PROTO_VERSION;
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

#[cfg(unix)]
fn uds_addr(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("em2-frame-{tag}-{}.sock", std::process::id()))
}

// ------------------------------------------------ exact-cap payloads

#[test]
fn max_frame_payload_round_trips_loopback() {
    let (mut c, mut s) = pair(&LoopbackTransport, "frame-max-loopback");
    let payload = vec![0xA5u8; MAX_FRAME];
    c.tx.send_frame(&payload).expect("exactly at the cap");
    let got = s.rx.recv_frame().expect("recv").expect("frame");
    assert_eq!(got.len(), MAX_FRAME);
    assert!(got == payload, "cap-sized payload arrived intact");
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
    #[cfg(unix)]
    {
        let path = uds_addr("over");
        let (c, s) = pair(
            &em2_net::UdsTransport,
            path.to_str().expect("utf8 socket path"),
        );
        checks.push(("uds", c, s));
        let _ = std::fs::remove_file(path);
    }
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
    em2_net::proto::NetMsg::decode(&got).expect_err("empty frame is not a message");
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

#[cfg(unix)]
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

/// A proto v3 handshake frame (`Hello` from node 1 when `tag` is 0,
/// `HelloAck` from node 0 when it is 1) at sequence 0, byte for byte as
/// a v3 build sent it: `[magic][3][u64 seq][u32 check][tag][u32 node]`
/// then `[u8 wire-version 2]` (`Hello` only) and `[u64 topology]`, the
/// check FNV-1a over `seq ++ body` folded to 32 bits.
fn v3_handshake_frame(tag: u8, topology: u64) -> Vec<u8> {
    let mut body = vec![tag];
    body.extend_from_slice(&u32::from(tag == 0).to_le_bytes());
    if tag == 0 {
        body.push(2);
    }
    body.extend_from_slice(&topology.to_le_bytes());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in 0u64.to_le_bytes().iter().chain(&body) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut frame = b"EM2N".to_vec();
    frame.push(3);
    frame.extend_from_slice(&0u64.to_le_bytes());
    frame.extend_from_slice(&((h ^ (h >> 32)) as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

#[test]
fn a_v3_frame_is_refused_by_version_before_it_is_parsed() {
    // Magic and version sit where v3 had them, so the fence holds both
    // ways: a v3 frame here fails on byte 4, before the layout that
    // moved underneath is read; and a v3 node reading ours finds the
    // magic it expects and a version byte it does not speak.
    let theirs = v3_handshake_frame(0, 0xABCD);
    assert_eq!(
        em2_net::proto::NetMsg::decode(&theirs),
        Err(em2_rt::wire::WireError::Version {
            got: 3,
            want: PROTO_VERSION
        })
    );
    let ours = em2_net::proto::NetMsg::Hello {
        node: 1,
        wire_version: em2_rt::wire::WIRE_VERSION,
        topology: 0xABCD,
    }
    .encode(0);
    assert_eq!(ours[..4], theirs[..4]);
    assert_eq!((ours[4], theirs[4]), (PROTO_VERSION, 3));
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

fn assert_refused_by_version(r: Result<NodeRuntime, ClusterError>, what: &str) {
    let e = r
        .err()
        .unwrap_or_else(|| panic!("{what}: a v3 peer joined"));
    assert_eq!(e.kind(), "handshake", "{what}: {e}");
    assert!(e.to_string().contains("version 3"), "{what}: {e}");
}

#[test]
fn a_v3_dialer_is_refused_at_the_handshake() {
    let spec = ClusterSpec::loopback(2, 4);
    let addr = spec.nodes[0].addr.clone();
    let node0 = std::thread::spawn({
        let spec = spec.clone();
        move || start_node(spec, 0)
    });
    // Dial until node 0 listens, then open as a v3 node 1 would. The
    // topology digest never gets looked at: the version byte is first.
    let mut dialer = loop {
        match LoopbackTransport.connect(&addr) {
            Ok(d) => break d,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    dialer
        .tx
        .send_frame(&v3_handshake_frame(0, spec.digest()))
        .expect("send the v3 Hello");
    assert_refused_by_version(node0.join().expect("node 0 thread"), "acceptor");
}

#[test]
fn a_v3_acceptor_is_refused_at_the_handshake() {
    let spec = ClusterSpec::loopback(2, 4);
    let mut acceptor = LoopbackTransport
        .listen(&spec.nodes[0].addr)
        .expect("listen as node 0");
    let node1 = std::thread::spawn({
        let spec = spec.clone();
        move || start_node(spec, 1)
    });
    let mut conn = acceptor.accept().expect("node 1 dials");
    let hello = conn.rx.recv_frame().expect("recv").expect("its Hello");
    // What a v3 node 0 would have looked at, where it would have
    // looked: magic, then a version byte it does not speak.
    assert_eq!(&hello[..4], b"EM2N");
    assert_eq!(hello[4], PROTO_VERSION);
    // Suppose it answered anyway.
    conn.tx
        .send_frame(&v3_handshake_frame(1, spec.digest()))
        .expect("send the v3 HelloAck");
    assert_refused_by_version(node1.join().expect("node 1 thread"), "dialer");
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
