//! Byte-frame transports: in-process socket pairs, Unix-domain
//! sockets, TCP.
//!
//! A [`Transport`] moves opaque length-prefixed frames between two
//! endpoints; everything above it (handshake, message codec, routing)
//! is transport-agnostic. Three implementations ship, and every
//! connection of each is a kernel byte stream read and written by the
//! same code:
//!
//! * [`LoopbackTransport`] — socket pairs under named in-process
//!   endpoints (Unix only). A multi-"node" loopback cluster runs the
//!   wire path of a real one, back-pressure included, in one process —
//!   this is what keeps the E11 agreement property testable in-process
//!   (DESIGN.md §9).
//! * [`UdsTransport`] — `SOCK_STREAM` Unix-domain sockets (Unix only);
//!   the default for co-located multi-process clusters.
//! * [`TcpTransport`] — TCP with `TCP_NODELAY`; crosses hosts.
//!
//! Framing is `[u32 LE length][payload]`, and it is implemented once:
//! a [`FrameBatch`] lays frames out exactly as a stream carries them,
//! so whatever assembled the batch — the egress writer encoding
//! messages straight into its reusable flush buffer, or the
//! [`FrameTx::send_frame`] / [`FrameTx::send_frames`] conveniences —
//! a transport ships it with one `write`.
//! [`FrameRx::recv`] distinguishes a clean close at a frame boundary
//! (`Ok(None)`) from a mid-frame truncation (`Err`).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
#[cfg(unix)]
use std::{
    collections::HashMap,
    os::unix::net::{UnixListener, UnixStream},
    sync::{mpsc, Mutex, OnceLock},
};

/// Hard ceiling on a frame's payload (32 MiB): a larger length prefix
/// is corruption, not a payload.
pub const MAX_FRAME: usize = 32 << 20;

/// Bytes of stream framing per frame (the `u32 LE` length prefix).
/// Telemetry that reports *wire* bytes — rather than payload bytes —
/// adds this per frame, on every transport.
pub const FRAME_HEADER_BYTES: usize = 4;

/// The typed rejection every transport returns for a frame larger
/// than [`MAX_FRAME`] — an error, not a panic, so a runaway payload
/// upstream surfaces as a recorded cluster failure.
fn oversize_err(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("frame payload {len} exceeds the {MAX_FRAME}-byte cap"),
    )
}

/// The payload length a frame's `u32 LE` prefix at `image[at..]`
/// announces.
fn announced_len(image: &[u8], at: usize) -> usize {
    let prefix: [u8; FRAME_HEADER_BYTES] = image[at..at + FRAME_HEADER_BYTES]
        .try_into()
        .expect("header-sized slice");
    u32::from_le_bytes(prefix) as usize
}

/// Frames queued for one flush, stored as the byte image a stream
/// carries — `[u32 LE length][payload]` per frame, back to back — with
/// the frame boundaries kept alongside, so the fault injector can still
/// act per frame. Reused across flushes, it is the egress writer's
/// single buffer: [`FrameBatch::clear`] keeps the allocation.
#[derive(Debug, Default)]
pub struct FrameBatch {
    wire: Vec<u8>,
    /// End offset in `wire` of each frame.
    ends: Vec<usize>,
}

impl FrameBatch {
    /// Drop every frame, keeping the buffers.
    pub fn clear(&mut self) {
        self.wire.clear();
        self.ends.clear();
    }

    /// Frames queued.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no frame is queued.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes the batch occupies on a stream: payloads plus
    /// [`FRAME_HEADER_BYTES`] per frame.
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// The stream image of the whole batch.
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Append one frame whose payload `fill` writes at the end of the
    /// buffer it is handed (it must only append). Returns the payload
    /// length; a payload over [`MAX_FRAME`] is rolled back and refused
    /// with a typed [`io::ErrorKind::InvalidInput`] error.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        let at = self.wire.len();
        self.wire.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
        fill(&mut self.wire);
        let len = self.wire.len() - at - FRAME_HEADER_BYTES;
        if len > MAX_FRAME {
            self.wire.truncate(at);
            return Err(oversize_err(len));
        }
        self.wire[at..at + FRAME_HEADER_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
        self.ends.push(self.wire.len());
        Ok(len)
    }

    /// Append one frame carrying `payload`.
    pub fn push(&mut self, payload: &[u8]) -> io::Result<()> {
        self.push_with(|b| b.extend_from_slice(payload)).map(drop)
    }

    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start + FRAME_HEADER_BYTES..self.ends[i]
    }

    /// Payload of frame `i`.
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.wire[self.span(i)]
    }

    /// Payload of frame `i`, mutable in place (same length).
    pub fn frame_mut(&mut self, i: usize) -> &mut [u8] {
        let span = self.span(i);
        &mut self.wire[span]
    }

    /// The payloads, in order.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.frame(i))
    }
}

/// The sending half of one connection.
pub trait FrameTx: Send {
    /// Ship every frame of `batch`, in order, flushing **once** where
    /// the carrier allows it (blocking; a full socket buffer
    /// back-pressures the caller, which is the cluster's flow
    /// control). Every transport pays a single `write` for the whole
    /// batch — the egress pipeline's frames-per-syscall win. The
    /// receiver cannot tell how frames were batched: same frames, same
    /// boundaries.
    fn send_batch(&mut self, batch: &FrameBatch) -> io::Result<()>;

    /// Ship one frame: a one-frame [`FrameTx::send_batch`]. A payload
    /// over [`MAX_FRAME`] is a typed [`io::ErrorKind::InvalidInput`]
    /// error and nothing is written.
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut batch = FrameBatch::default();
        batch.push(payload)?;
        self.send_batch(&batch)
    }

    /// Ship `payloads` as one [`FrameTx::send_batch`].
    fn send_frames(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        let mut batch = FrameBatch::default();
        for p in payloads {
            batch.push(p)?;
        }
        self.send_batch(&batch)
    }

    /// Signal end-of-stream to the peer. Merely dropping a socket
    /// write half is not enough: the read half is a `try_clone` of the
    /// same socket, so the connection stays open until an explicit
    /// `shutdown(Write)`. The default, for a sender with no such
    /// half, does nothing.
    fn close(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The receiving half of one connection.
pub trait FrameRx: Send {
    /// Receive the next frame, borrowed from the receiver's own buffer
    /// until the next call. `Ok(None)` means the peer closed cleanly
    /// at a frame boundary; a mid-frame close is an error. With a
    /// receive timeout set, an expiry is an error of kind
    /// [`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`]
    /// (platform-dependent) and the connection stays usable: bytes of
    /// a frame that had partly arrived are kept, and the next call
    /// resumes that frame where the timeout interrupted it.
    fn recv(&mut self) -> io::Result<Option<&[u8]>>;

    /// Whether the next [`FrameRx::recv`] is served from bytes already
    /// received: it hands out a whole frame without going to the
    /// carrier, so it cannot block and learns nothing new about the
    /// peer. `false` means the call reads (and may wait): a reader that
    /// does per-read work — one clock read, one ledger publication —
    /// does it around exactly those calls.
    fn buffered(&self) -> bool;

    /// [`FrameRx::recv`] into an owned buffer.
    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.recv()?.map(<[u8]>::to_vec))
    }

    /// Bound how long [`FrameRx::recv`] may block (`None` =
    /// forever). Deadline-sensitive phases (the handshake) set this.
    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

/// One bidirectional connection, split into halves so a dedicated
/// reader thread can own `rx` while shard workers share `tx`.
pub struct Duplex {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
}

/// Accepts inbound connections on a listening endpoint.
pub trait Acceptor: Send {
    /// Block until the next peer connects.
    fn accept(&mut self) -> io::Result<Duplex>;

    /// Block until the next peer connects or `deadline` passes
    /// (expiry is an [`io::ErrorKind::TimedOut`] error) — what bounds
    /// a handshake whose dialer never shows up.
    fn accept_deadline(&mut self, deadline: Instant) -> io::Result<Duplex>;
}

fn accept_timeout_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        "no inbound connection before the accept deadline",
    )
}

/// A way to move frames between endpoints, named by opaque address
/// strings (a socket path, `host:port`, or a loopback endpoint name).
pub trait Transport: Send + Sync {
    /// Short name for reports (`"loopback"`, `"uds"`, `"tcp"`).
    fn kind(&self) -> &'static str;

    /// Bind a listening endpoint.
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>>;

    /// Connect to a listening endpoint. Fails fast when nothing
    /// listens (callers retry with a deadline — cluster nodes come up
    /// in arbitrary order).
    fn connect(&self, addr: &str) -> io::Result<Duplex>;
}

// ---------------------------------------------------------- streams

/// What the stream carrier needs of a socket type and its listener —
/// the one thing TCP and Unix-domain sockets differ in here is
/// [`Socket::tune`]. The read half of a connection is a
/// [`Socket::split`] of the same file description, which is why
/// end-of-stream takes an explicit [`Socket::shutdown_write`].
trait Socket: Read + Write + Send + Sized + 'static {
    type Listener: Send;
    /// The next connection, itself blocking even where it would
    /// inherit a polling listener's mode.
    fn accept(listener: &Self::Listener) -> io::Result<Self>;
    fn listener_nonblocking(listener: &Self::Listener, on: bool) -> io::Result<()>;
    /// Per-connection options, set on both ends.
    fn tune(&self) -> io::Result<()>;
    fn split(&self) -> io::Result<Self>;
    fn shutdown_write(&self) -> io::Result<()>;
    /// The kernel-level timer backing [`FrameRx::set_recv_timeout`].
    fn read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

macro_rules! socket {
    ($stream:ty, $listener:ty, $tune:expr) => {
        impl Socket for $stream {
            type Listener = $listener;
            fn accept(listener: &$listener) -> io::Result<Self> {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(false)?;
                Ok(stream)
            }
            fn listener_nonblocking(listener: &$listener, on: bool) -> io::Result<()> {
                listener.set_nonblocking(on)
            }
            fn tune(&self) -> io::Result<()> {
                $tune(self)
            }
            fn split(&self) -> io::Result<Self> {
                self.try_clone()
            }
            fn shutdown_write(&self) -> io::Result<()> {
                self.shutdown(std::net::Shutdown::Write)
            }
            fn read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
                self.set_read_timeout(timeout)
            }
        }
    };
}

// Frames are small and latency-critical: no Nagle on TCP.
socket!(TcpStream, TcpListener, |s: &TcpStream| s.set_nodelay(true));
#[cfg(unix)]
socket!(UnixStream, UnixListener, |_: &UnixStream| Ok(()));

struct StreamTx<S: Socket> {
    w: S,
}

impl<S: Socket> FrameTx for StreamTx<S> {
    fn send_batch(&mut self, batch: &FrameBatch) -> io::Result<()> {
        // The batch already is the stream image: one `write` (the
        // kernel may split it; `write_all` finishes the job) however
        // many frames it holds.
        self.w.write_all(batch.wire())
    }

    fn close(&mut self) -> io::Result<()> {
        self.w.shutdown_write()
    }
}

/// Initial size of a stream receiver's buffer: one typical coalesced
/// flush (64 migrated frames of ~300 B) arrives in a single `read`.
const RX_BUF_BYTES: usize = 64 << 10;

/// A stream's receiving half: one persistent buffer that `read`s as
/// much as the socket has and hands frames out as borrowed slices.
/// `buf[head..tail]` holds received bytes not yet handed out — whole
/// frames and at most one partial frame at the end — and survives an
/// interrupted `recv`, which is what keeps a receive timeout from
/// desynchronising the stream.
struct StreamRx<R: Read + Send> {
    r: R,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl<R: Read + Send> StreamRx<R> {
    fn new(r: R) -> Self {
        StreamRx {
            r,
            buf: vec![0; RX_BUF_BYTES],
            head: 0,
            tail: 0,
        }
    }

    /// Read until `need` bytes sit at `buf[head..]`. `Ok(false)` is an
    /// end of stream with nothing buffered (a clean close when it falls
    /// on a frame boundary); an end of stream after part of a frame is
    /// an error.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        while self.tail - self.head < need {
            if self.head + need > self.buf.len() {
                // The frame would run off the end: move what has
                // arrived of it to the front, and grow for a frame
                // larger than the buffer (`need` is bounded by
                // `MAX_FRAME`, checked before the payload is awaited).
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            match self.r.read(&mut self.buf[self.tail..]) {
                Ok(0) if self.tail == self.head => return Ok(false),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a frame",
                    ))
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// [`FrameRx::recv`] for any byte stream.
    fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        if self.head == self.tail {
            // Nothing pending: restart at the front, and give back the
            // memory a jumbo frame (a frozen shard) made us take.
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > RX_BUF_BYTES {
                self.buf.truncate(RX_BUF_BYTES);
                self.buf.shrink_to_fit();
            }
        }
        if !self.fill(FRAME_HEADER_BYTES)? {
            return Ok(None);
        }
        let n = announced_len(&self.buf, self.head);
        if n > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {n} exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        // The header is consumed only together with its payload, so a
        // timeout here leaves the whole partial frame in place. (With
        // the header buffered, an end of stream is always an error.)
        self.fill(FRAME_HEADER_BYTES + n)?;
        let start = self.head + FRAME_HEADER_BYTES;
        self.head = start + n;
        Ok(Some(&self.buf[start..start + n]))
    }
}

impl<S: Socket> FrameRx for StreamRx<S> {
    fn recv(&mut self) -> io::Result<Option<&[u8]>> {
        self.next_frame()
    }

    fn buffered(&self) -> bool {
        // A whole frame, not merely some bytes: on a saturated stream
        // nearly every read ends inside a frame, and a reader that
        // took "some bytes" for "no read needed" would stop stamping
        // the edge's liveness exactly when the edge is busiest.
        let have = self.tail - self.head;
        have >= FRAME_HEADER_BYTES
            && have - FRAME_HEADER_BYTES >= announced_len(&self.buf, self.head)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.r.read_timeout(timeout)
    }
}

/// Split a connected socket into the two halves of a [`Duplex`].
fn duplex<S: Socket>(stream: S) -> io::Result<Duplex> {
    stream.tune()?;
    let rd = stream.split()?;
    Ok(Duplex {
        tx: Box::new(StreamTx { w: stream }),
        rx: Box::new(StreamRx::new(rd)),
    })
}

struct StreamAcceptor<S: Socket> {
    listener: S::Listener,
    /// The socket file to remove when the listener goes (UDS).
    unlink: Option<String>,
}

impl<S: Socket> Acceptor for StreamAcceptor<S> {
    fn accept(&mut self) -> io::Result<Duplex> {
        duplex(S::accept(&self.listener)?)
    }

    fn accept_deadline(&mut self, deadline: Instant) -> io::Result<Duplex> {
        // Listeners have no kernel accept timeout; poll nonblocking.
        S::listener_nonblocking(&self.listener, true)?;
        let r = loop {
            match S::accept(&self.listener) {
                Ok(stream) => break duplex(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break Err(accept_timeout_err());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => break Err(e),
            }
        };
        let _ = S::listener_nonblocking(&self.listener, false);
        r
    }
}

impl<S: Socket> Drop for StreamAcceptor<S> {
    fn drop(&mut self) {
        if let Some(path) = &self.unlink {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// TCP transport (`addr` = `host:port`), `TCP_NODELAY` on both ends.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>> {
        Ok(Box::new(StreamAcceptor::<TcpStream> {
            listener: TcpListener::bind(addr)?,
            unlink: None,
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        duplex(TcpStream::connect(addr)?)
    }
}

/// Unix-domain socket transport (`addr` = filesystem path); Unix only.
#[cfg(unix)]
#[derive(Clone, Copy, Debug, Default)]
pub struct UdsTransport;

#[cfg(unix)]
impl Transport for UdsTransport {
    fn kind(&self) -> &'static str {
        "uds"
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>> {
        // A stale socket file from a dead process would fail the bind.
        let _ = std::fs::remove_file(addr);
        Ok(Box::new(StreamAcceptor::<UnixStream> {
            listener: UnixListener::bind(addr)?,
            unlink: Some(addr.to_string()),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        duplex(UnixStream::connect(addr)?)
    }
}

// --------------------------------------------------------- loopback

#[cfg(unix)]
type Pending = mpsc::Sender<UnixStream>;

#[cfg(unix)]
fn loopback_registry() -> &'static Mutex<HashMap<String, Pending>> {
    static REG: OnceLock<Mutex<HashMap<String, Pending>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// In-process transport: endpoints live in a process-global name
/// registry, and a connection is a kernel socket pair
/// (`UnixStream::pair`) driven by the same stream code as
/// [`UdsTransport`]. Every frame round-trips through the codec and the
/// kernel, with a socket buffer's back-pressure; only the rendezvous
/// is in-process. Unix only.
#[cfg(unix)]
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopbackTransport;

#[cfg(unix)]
struct LoopbackAcceptor {
    addr: String,
    pending: mpsc::Receiver<UnixStream>,
}

#[cfg(unix)]
fn torn_down() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "loopback listener torn down")
}

#[cfg(unix)]
impl Acceptor for LoopbackAcceptor {
    fn accept(&mut self) -> io::Result<Duplex> {
        duplex(self.pending.recv().map_err(|_| torn_down())?)
    }

    fn accept_deadline(&mut self, deadline: Instant) -> io::Result<Duplex> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.pending.recv_timeout(wait) {
            Ok(stream) => duplex(stream),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(accept_timeout_err()),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(torn_down()),
        }
    }
}

#[cfg(unix)]
impl Drop for LoopbackAcceptor {
    fn drop(&mut self) {
        loopback_registry()
            .lock()
            .expect("loopback registry")
            .remove(&self.addr);
    }
}

#[cfg(unix)]
impl Transport for LoopbackTransport {
    fn kind(&self) -> &'static str {
        "loopback"
    }

    fn listen(&self, addr: &str) -> io::Result<Box<dyn Acceptor>> {
        let (tx, rx) = mpsc::channel();
        let mut reg = loopback_registry().lock().expect("loopback registry");
        if reg.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("loopback endpoint {addr:?} already listening"),
            ));
        }
        reg.insert(addr.to_string(), tx);
        Ok(Box::new(LoopbackAcceptor {
            addr: addr.to_string(),
            pending: rx,
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Duplex> {
        let pending = {
            let reg = loopback_registry().lock().expect("loopback registry");
            reg.get(addr).cloned()
        };
        let Some(pending) = pending else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no loopback listener at {addr:?}"),
            ));
        };
        let (ours, theirs) = UnixStream::pair()?;
        pending.send(theirs).map_err(|_| {
            io::Error::new(io::ErrorKind::ConnectionRefused, "loopback listener gone")
        })?;
        duplex(ours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that hands out its bytes in scripted slices and times
    /// out between them, like a socket with a read timeout whose peer
    /// stalls mid-frame.
    struct Stalling {
        bytes: Vec<u8>,
        at: usize,
        /// Offsets at which the next `read` times out (once each).
        stalls: Vec<usize>,
    }

    impl Read for Stalling {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.stalls.first() == Some(&self.at) {
                self.stalls.remove(0);
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let until = self.stalls.first().copied().unwrap_or(self.bytes.len());
            let n = out.len().min(until - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_receive_timeout_inside_a_frame_keeps_the_stream_in_step() {
        let mut batch = FrameBatch::default();
        batch.push(&[1, 2, 3, 4, 5, 6, 7]).expect("frame 0");
        batch.push(&[]).expect("frame 1");
        batch.push(&[9; 40]).expect("frame 2");
        // One stall at every offset of the stream image: inside a
        // length prefix, between prefix and payload, inside a payload,
        // on a frame boundary.
        for k in 0..batch.wire_len() {
            let mut rx = StreamRx::new(Stalling {
                bytes: batch.wire().to_vec(),
                at: 0,
                stalls: vec![k],
            });
            let mut got = FrameBatch::default();
            let mut timeouts = 0;
            while got.len() < 3 {
                match rx.next_frame() {
                    Ok(Some(f)) => got.push(f).expect("fits a frame"),
                    Ok(None) => panic!("stall at {k}: clean close before frame {}", got.len()),
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "stall at {k}");
                        timeouts += 1;
                    }
                }
            }
            assert_eq!(timeouts, 1, "stall at {k} surfaced exactly once");
            assert_eq!(
                got.wire(),
                batch.wire(),
                "stall at {k}: same frames, same boundaries"
            );
            assert!(rx.next_frame().expect("clean close").is_none());
        }
    }

    #[test]
    fn a_frame_larger_than_the_receive_buffer_arrives_whole() {
        let big: Vec<u8> = (0..3 * RX_BUF_BYTES).map(|i| i as u8).collect();
        let mut batch = FrameBatch::default();
        batch.push(&[7; 10]).expect("small");
        batch.push(&big).expect("big");
        batch.push(&[8; 10]).expect("small");
        let mut rx = StreamRx::new(std::io::Cursor::new(batch.wire().to_vec()));
        assert_eq!(rx.next_frame().expect("recv"), Some(&[7u8; 10][..]));
        assert_eq!(rx.next_frame().expect("recv"), Some(&big[..]));
        assert_eq!(rx.next_frame().expect("recv"), Some(&[8u8; 10][..]));
        assert!(rx.next_frame().expect("clean close").is_none());
        assert_eq!(
            rx.buf.len(),
            RX_BUF_BYTES,
            "the jumbo buffer was given back"
        );
    }

    #[test]
    fn an_oversize_push_is_rolled_back() {
        let mut batch = FrameBatch::default();
        batch.push(b"before").expect("fits");
        let e = batch
            .push_with(|b| b.resize(b.len() + MAX_FRAME + 1, 0))
            .expect_err("over the cap");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.wire_len(), FRAME_HEADER_BYTES + 6);
        batch.push(b"after").expect("still usable");
        let frames: Vec<&[u8]> = batch.frames().collect();
        assert_eq!(frames, [&b"before"[..], &b"after"[..]]);
    }

    fn exercise(transport: &dyn Transport, addr: &str) {
        let mut acceptor = transport.listen(addr).expect("listen");
        let t = std::thread::spawn({
            let payload = vec![7u8; 100_000];
            let kind = transport.kind().to_string();
            move || {
                let mut server = acceptor.accept().expect("accept");
                let got = server.rx.recv_frame().expect("recv").expect("frame");
                assert_eq!(got, payload, "{kind}: payload intact");
                server.tx.send_frame(b"ack").expect("send ack");
                // Clean close: client sees Ok(None).
                drop(server);
            }
        });
        let mut client = transport.connect(addr).expect("connect");
        client.tx.send_frame(&vec![7u8; 100_000]).expect("send");
        assert_eq!(
            client.rx.recv_frame().expect("recv").expect("frame"),
            b"ack"
        );
        assert!(client.rx.recv_frame().expect("clean close").is_none());
        t.join().expect("server thread");
    }

    #[cfg(unix)]
    #[test]
    fn loopback_round_trips_and_closes_cleanly() {
        exercise(&LoopbackTransport, "test-loopback-basic");
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trips_and_closes_cleanly() {
        let path = std::env::temp_dir().join(format!("em2-net-uds-{}.sock", std::process::id()));
        exercise(&UdsTransport, path.to_str().expect("utf8 path"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tcp_round_trips_and_closes_cleanly() {
        // Bind port 0 is not expressible through the addr string; pick
        // an ephemeral port by binding then racing is overkill — use a
        // fixed high port salted by pid to avoid collisions.
        let addr = format!("127.0.0.1:{}", 20000 + (std::process::id() % 20000));
        exercise(&TcpTransport, &addr);
    }

    #[cfg(unix)]
    #[test]
    fn loopback_close_is_a_clean_eof() {
        let addr = "test-loopback-close";
        let mut acceptor = LoopbackTransport.listen(addr).expect("listen");
        let mut client = LoopbackTransport.connect(addr).expect("connect");
        let server = acceptor.accept().expect("accept");
        drop(server);
        assert!(client.rx.recv_frame().expect("eof").is_none());
    }

    #[cfg(unix)]
    #[test]
    fn connect_without_listener_is_refused() {
        assert_eq!(
            LoopbackTransport
                .connect("test-loopback-nobody")
                .err()
                .expect("refused")
                .kind(),
            io::ErrorKind::ConnectionRefused
        );
    }

    #[test]
    fn stream_rx_rejects_mid_frame_truncation() {
        // Feed a StreamRx a truncated frame directly.
        let bytes: Vec<u8> = {
            let mut b = (10u32).to_le_bytes().to_vec();
            b.extend_from_slice(&[1, 2, 3]); // 3 of 10 payload bytes
            b
        };
        let mut rx = StreamRx::new(std::io::Cursor::new(bytes));
        assert!(rx.next_frame().is_err(), "mid-frame EOF is an error");

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut rx = StreamRx::new(std::io::Cursor::new(huge));
        assert!(rx.next_frame().is_err(), "oversized length rejected");
    }

    #[cfg(unix)]
    #[test]
    fn oversize_send_is_a_typed_error_not_a_panic() {
        let addr = "test-loopback-oversize";
        let mut acceptor = LoopbackTransport.listen(addr).expect("listen");
        let mut client = LoopbackTransport.connect(addr).expect("connect");
        let _server = acceptor.accept().expect("accept");
        let e = client
            .tx
            .send_frame(&vec![0u8; MAX_FRAME + 1])
            .expect_err("over the cap");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[cfg(unix)]
    #[test]
    fn recv_timeout_expires_with_a_typed_error() {
        let addr = "test-loopback-recv-timeout";
        let mut acceptor = LoopbackTransport.listen(addr).expect("listen");
        let mut client = LoopbackTransport.connect(addr).expect("connect");
        let _server = acceptor.accept().expect("accept");
        client
            .rx
            .set_recv_timeout(Some(Duration::from_millis(20)))
            .expect("timeout supported");
        let e = client.rx.recv_frame().expect_err("nothing was sent");
        // A socket read timeout is `WouldBlock` on Linux.
        assert!(
            matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "{e}"
        );
    }

    #[cfg(unix)]
    #[test]
    fn loopback_back_pressures_like_a_socket() {
        const FRAMES: usize = 8;
        let addr = "test-loopback-back-pressure";
        let mut acceptor = LoopbackTransport.listen(addr).expect("listen");
        let mut client = LoopbackTransport.connect(addr).expect("connect");
        let mut server = acceptor.accept().expect("accept");
        let frame = |i: usize| vec![i as u8; 1 << 20];
        let writer = std::thread::spawn(move || {
            for i in 0..FRAMES {
                client.tx.send_frame(&frame(i)).expect("send");
            }
        });
        // Nobody reads: 8 MiB cannot fit in a socket buffer, so the
        // writer must still be blocked in `write`.
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            !writer.is_finished(),
            "a non-reading peer stalls the writer"
        );
        for i in 0..FRAMES {
            let got = server.rx.recv().expect("recv").expect("frame");
            assert!(got == frame(i), "frame {i} intact");
        }
        writer.join().expect("writer");
    }

    #[cfg(unix)]
    #[test]
    fn accept_deadline_expires_with_a_typed_error() {
        let mut acceptor = LoopbackTransport
            .listen("test-loopback-accept-deadline")
            .expect("listen");
        let e = match acceptor.accept_deadline(Instant::now() + Duration::from_millis(25)) {
            Err(e) => e,
            Ok(_) => panic!("nobody dials"),
        };
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
    }

    #[cfg(unix)]
    #[test]
    fn uds_accept_deadline_expires_with_a_typed_error() {
        let path =
            std::env::temp_dir().join(format!("em2-net-uds-deadline-{}.sock", std::process::id()));
        let mut acceptor = UdsTransport
            .listen(path.to_str().expect("utf8 path"))
            .expect("listen");
        let e = match acceptor.accept_deadline(Instant::now() + Duration::from_millis(25)) {
            Err(e) => e,
            Ok(_) => panic!("nobody dials"),
        };
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        let _ = std::fs::remove_file(path);
    }
}
