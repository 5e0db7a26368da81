//! The allocation budget of the cluster data path (DESIGN.md §11),
//! counted, not argued: encoding a migrated frame into the writer's
//! warm flush buffer allocates nothing, and receiving one allocates
//! only what the rebuilt envelope owns. The reader decodes a frame in
//! place, as a view of its receive buffer: the task context is parsed
//! there by its task builder, so decoding allocates only the journey
//! log, for as long as the task still carries one — nothing per frame
//! and nothing per hop. The owning decode, off the data path, also
//! copies the context out. A whole hop — rebuilt by the receiving
//! node, routed on through its link, written by its task into the next
//! flush buffer and handed back — allocates the task's box and nothing
//! else.
//!
//! Its own test binary because the counter is a `#[global_allocator]`;
//! allocations are counted per thread, so the harness's other threads
//! cannot disturb a measurement.

use em2_net::proto::{encode_shard, NetMsg, NetView};
use em2_net::{FrameBatch, Transport};
use em2_rt::wire::{HopCause, Journey, JourneyHop, WireEnvelope, WireMsg, WireOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a bump of a `const`-initialised, destructor-free
// thread-local `Cell`, which neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread made while running `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A frame `uds2-migrate` ships: 164 context bytes, the arrival read,
/// a run in progress, and the journey — spilled long ago (nearly every
/// frame of that workload), or still filling and full.
fn migrated_frame(spilled: bool) -> NetMsg {
    let mut journey = Journey::default();
    if spilled {
        journey.dropped = 900;
    } else {
        for hop in 0..16u32 {
            journey.push(JourneyHop {
                shard: (hop * 7) % 16,
                node: ((hop * 7) % 16) / 8,
                epoch: 0,
                cause: if hop == 0 {
                    HopCause::Submit
                } else {
                    HopCause::Migrate
                },
            });
        }
    }
    NetMsg::Shard {
        to: 9,
        epoch: 0,
        retries: 0,
        msg: WireMsg::Arrive(WireEnvelope {
            thread: 200,
            native: 8,
            task_kind: 1,
            task_ctx: vec![0xA5; 164],
            scheme_state: Vec::new(),
            pending_op: Some(WireOp::Read(0x4_0000)),
            pending_reply: None,
            parked_at: None,
            run: Some((3, 2)),
            journey,
        }),
    }
}

/// A frame of every kind the writer ships per access or per epoch:
/// the migrated continuation, a read and a write request, a load's
/// value, and an ownership map.
fn frames_of_every_kind() -> [NetMsg; 5] {
    let shard = |msg| NetMsg::Shard {
        to: 9,
        epoch: 0,
        retries: 0,
        msg,
    };
    let request = |write| WireMsg::Request {
        addr: 0x4_0000,
        write,
        reply_shard: 3,
        token: 200,
    };
    [
        migrated_frame(false),
        shard(request(None)),
        shard(request(Some(0xdead_beef))),
        shard(WireMsg::Response {
            token: 200,
            value: Some(42),
        }),
        NetMsg::EpochUpdate {
            epoch: 5,
            owners: vec![0, 0, 1, 1, 1, 0, 1, 1],
        },
    ]
}

#[test]
fn encoding_into_a_warm_flush_buffer_allocates_nothing() {
    for msg in frames_of_every_kind() {
        let mut batch = FrameBatch::default();
        // One full coalesce window warms the buffer, as the writer's
        // first busy flush does.
        for seq in 1..=64 {
            batch
                .push_with(|b| msg.encode_into(seq, b))
                .expect("fits a frame");
        }
        batch.clear();
        let ((), n) = allocs_in(|| {
            for seq in 65..=128 {
                batch
                    .push_with(|b| msg.encode_into(seq, b))
                    .expect("fits a frame");
            }
        });
        assert_eq!(n, 0, "64 frames of {msg:?} into a warm buffer");
        assert_eq!(batch.len(), 64);
    }
}

#[cfg(unix)]
#[test]
fn receiving_allocates_only_what_the_rebuilt_envelope_owns() {
    // In place: the hop log while the journey still carries one, and
    // nothing for a spilled log. Owned: `task_ctx` as well;
    // `scheme_state` is empty, and an empty `Vec` owns no memory.
    for (spilled, viewed, owned) in [(true, 0, 1), (false, 1, 2)] {
        let msg = migrated_frame(spilled);
        let path =
            std::env::temp_dir().join(format!("em2-alloc-{}-{owned}.sock", std::process::id()));
        let addr = path.to_str().expect("utf8 socket path");
        let mut acceptor = em2_net::UdsTransport.listen(addr).expect("listen");
        let mut client = em2_net::UdsTransport.connect(addr).expect("connect");
        let mut server = acceptor.accept().expect("accept");
        let mut batch = FrameBatch::default();
        for seq in 1..=32 {
            batch
                .push_with(|b| msg.encode_into(seq, b))
                .expect("fits a frame");
        }
        client.tx.send_batch(&batch).expect("one flush");
        // The first frame warms nothing that matters (the receive buffer
        // is allocated with the connection), but keep it out of the
        // count.
        let first = server.rx.recv().expect("recv").expect("frame");
        assert_eq!(NetMsg::decode(first).expect("decodes"), (1, msg.clone()));
        for seq in 2..=32 {
            // Odd frames as the reader takes them, in place; even ones
            // owned. A view's owning copy, made only to compare it,
            // stays out of the count.
            let in_place = seq % 2 == 1;
            let mut decoded = None;
            let (copies, n) = allocs_in(|| {
                let frame = server.rx.recv().expect("recv").expect("frame");
                if !in_place {
                    decoded = Some(NetMsg::decode(frame).expect("decodes"));
                    return 0;
                }
                let (got, view) = NetMsg::view(frame).expect("decodes");
                let NetView::Shard {
                    msg: WireMsg::Arrive(env),
                    ..
                } = &view
                else {
                    panic!("frame {seq}: {view:?}")
                };
                let ctx = env.task_ctx.as_ptr();
                assert!(frame.as_ptr_range().contains(&ctx), "borrowed, not copied");
                let (copy, copies) = allocs_in(|| view.into_owned());
                decoded = Some((got, copy));
                copies
            });
            let (what, want) = if in_place {
                ("in place", viewed)
            } else {
                ("owned", owned)
            };
            assert_eq!(n - copies, want, "frame {seq} (spilled: {spilled}) {what}");
            assert_eq!(decoded, Some((seq, msg.clone())));
        }
        let _ = std::fs::remove_file(path);
    }
}

/// A node's link that keeps what the runtime forwards, as the egress
/// lane would, in room reserved up front.
struct Keep(Mutex<Vec<(usize, em2_rt::Outbound)>>);

impl em2_rt::NodeLink for Keep {
    fn forward(&self, to_shard: usize, _retries: u32, msg: em2_rt::Outbound) {
        self.0.lock().expect("kept").push((to_shard, msg));
    }
    fn barrier_arrive(&self, _k: usize) {}
    fn task_retired(&self) {}
    fn node_closed(&self, _submitted: u64) {}
}

/// One node of the hop: its runtime, the inbox its reader delivers
/// through with the reader's stash, the link its workers forward
/// through, and its writer's flush buffer and connection.
struct Node {
    /// Kept for its lifetime: dropping it joins the workers.
    _rt: em2_rt::Runtime,
    inbox: em2_rt::RemoteInbox,
    stash: em2_rt::Stash,
    link: Arc<Keep>,
    batch: FrameBatch,
    spent: Vec<em2_rt::Outbound>,
    conn: em2_net::Duplex,
}

impl Drop for Node {
    /// Stop the workers, so that dropping the runtime — after the test,
    /// or while a failed assertion unwinds — joins them instead of
    /// waiting for a quiesce no ledger will decide.
    fn drop(&mut self) {
        self.inbox.begin_shutdown();
    }
}

/// Node `id` of a cluster in which a third node owns both shards, so
/// everything delivered here is routed straight back out and no worker
/// ever runs the task.
fn node(id: u32, workload: &Arc<em2_trace::Workload>, conn: em2_net::Duplex) -> Node {
    use em2_core::decision::{AlwaysMigrate, DecisionScheme};
    let scheme = || Box::new(AlwaysMigrate) as Box<dyn DecisionScheme>;
    let link = Arc::new(Keep(Mutex::new(Vec::with_capacity(4))));
    let rt = em2_rt::Runtime::start_node(
        em2_rt::RtConfig {
            workers: 1,
            obs: Some(em2_obs::ObsConfig::off()),
            ..em2_rt::RtConfig::with_shards(2)
        },
        "hop",
        Arc::new(em2_placement::Striped::new(2, 64)),
        scheme,
        0,
        em2_rt::NodeRole {
            directory: Arc::new(em2_rt::ShardDirectory::new(id, 0, &[2, 2])),
            node_id: id,
            link: Arc::clone(&link) as Arc<dyn em2_rt::NodeLink>,
        },
    );
    let registry = em2_rt::TaskRegistry::for_workload(Arc::clone(workload));
    Node {
        inbox: rt.remote_inbox(registry, scheme),
        _rt: rt,
        stash: em2_rt::Stash::default(),
        link,
        batch: FrameBatch::default(),
        spent: Vec::with_capacity(64),
        conn,
    }
}

/// One `TraceTask` continuation, its journey spilled, crosses a 2-node
/// socket hop and back, again and again, under `AlwaysMigrate`. At each
/// node, `RemoteInbox::deliver` of the frame's view — what the reader
/// does — rebuilds the envelope into a spare box and routes it on
/// through `NodeLink::forward`; the writer's staging then encodes the
/// forwarded message into its warm flush buffer, its task writing its
/// own context, and hands the message back for its box to be refilled.
/// With the spare list warm, the delivery allocates one box, the
/// task's, and the send nothing. Every frame keeps its exact bytes.
#[cfg(unix)]
#[test]
fn a_hop_allocates_the_task_box_to_receive_and_nothing_to_send() {
    let workload = Arc::new(em2_trace::gen::micro::uniform(2, 4, 30, 64, 0.3, 1));
    let task = em2_rt::TraceTask::new(Arc::clone(&workload), em2_model::ThreadId(1));
    let arrive = WireMsg::Arrive(WireEnvelope {
        thread: 1,
        native: 0,
        task_kind: em2_rt::TraceTask::WIRE_KIND,
        task_ctx: em2_rt::Task::context_bytes(&task),
        scheme_state: Vec::new(),
        pending_op: Some(WireOp::Read(64)),
        pending_reply: None,
        parked_at: None,
        run: Some((0, 2)),
        journey: Journey {
            hops: Vec::new(),
            dropped: 900,
        },
    });
    let frame = |seq| {
        let msg = arrive.clone();
        (NetMsg::Shard {
            to: 1,
            epoch: 0,
            retries: 0,
            msg,
        })
        .encode(seq)
    };
    let path = std::env::temp_dir().join(format!("em2-hop-{}.sock", std::process::id()));
    let addr = path.to_str().expect("utf8 socket path");
    let mut acceptor = em2_net::UdsTransport.listen(addr).expect("listen");
    let client = em2_net::UdsTransport.connect(addr).expect("connect");
    let server = acceptor.accept().expect("accept");
    let mut nodes = [node(0, &workload, client), node(1, &workload, server)];
    // The continuation enters at node 0, sent by node 1.
    nodes[1].batch.push(&frame(1)).expect("fits a frame");
    nodes[1].conn.tx.send_batch(&nodes[1].batch).expect("flush");
    nodes[1].batch.clear();

    // Two hops per node warm the spare lists and the stashes.
    const WARM: u64 = 4;
    for hop in 0..WARM + 24 {
        let n = &mut nodes[(hop % 2) as usize];
        let seq = hop / 2 + 2;
        let view = n.conn.rx.recv().expect("recv").expect("frame");
        let (_, view) = NetMsg::view(view).expect("decodes");
        let NetView::Shard {
            to, retries, msg, ..
        } = view
        else {
            panic!("hop {hop}: {view:?}")
        };
        let stash = Some(&mut n.stash);
        let (delivered, received) = allocs_in(|| {
            n.inbox
                .deliver(to as usize, retries, msg, Instant::now(), stash)
        });
        assert_eq!(delivered, Ok(true));
        let (to, out) = n.link.0.lock().expect("kept").pop().expect("forwarded");
        let ((), sent) = allocs_in(|| {
            let staged = n
                .batch
                .push_with(|b| encode_shard(seq, b, to as u32, 0, retries, &out));
            staged.expect("fits a frame");
            n.spent.push(out);
            n.inbox.recycle(&mut n.spent);
        });
        assert_eq!(
            n.batch.frame(0),
            &frame(seq)[..],
            "hop {hop}: the same bytes"
        );
        n.conn.tx.send_batch(&n.batch).expect("flush");
        n.batch.clear();
        if hop >= WARM {
            assert_eq!((received, sent), (1, 0), "hop {hop}: receive, send");
        }
    }
    drop(nodes);
    let _ = std::fs::remove_file(path);
}
