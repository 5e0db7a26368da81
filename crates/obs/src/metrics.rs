//! The metrics registry: one [`NodeObs`] per runtime, fanned out into
//! per-shard and per-peer handles.
//!
//! It holds only what the deterministic counters (`em2_rt::RtReport`)
//! and the wire ledger (`em2_net::WireSnapshot`) do not: a fact one of
//! its own instruments or of those two determines — tasks retired,
//! verdicts executed, frames and bytes written — is read there
//! ([`Snapshot`]'s methods), never counted a second time here.
//!
//! Ownership mirrors the runtime's own concurrency structure so no
//! hot-path synchronization is ever *added*: a [`ShardObs`] is mutated
//! only by whichever worker currently polls that shard (its trace ring
//! is an atomic-slot [`Ring`] the flight recorder can read from a
//! failing thread without a lock), a [`PeerObs`] only by its writer
//! thread. Aggregation ([`NodeObs::snapshot`]) reads everything with
//! relaxed loads; the timing plane tolerates racy reads by definition.
//!
//! Event timestamps on the shard hot path come from a **coarse
//! clock**: the polling worker refreshes the shard's cached
//! nanosecond-since-epoch once per poll ([`ShardObs::refresh_clock`]),
//! and every event recorded within that poll reuses it. One
//! `clock_gettime` per scheduling quantum instead of one per event
//! keeps the enabled-mode record path to a handful of relaxed atomic
//! stores; within-ring ordering is the push order regardless.
//!
//! The **flight recorder** also lives here: [`NodeObs::flight_dump`]
//! collects the newest trace events across all rings, merges them by
//! timestamp, and writes a JSONL post-mortem whose last line names the
//! failure — turning a chaos-suite typed error into a timeline.

use crate::attrib::{AttribTable, Col, OVERFLOW_KEY};
use crate::hist::LogHistogram;
use crate::snapshot::Snapshot;
use crate::trace::{Event, EventKind, Ring};
use crate::{json::JsonObj, ObsConfig, DEFAULT_ATTRIB_SLOTS, DEFAULT_RING};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Single-writer counter increment. The registry's ownership
/// discipline (module docs) gives every hot-path handle exactly one
/// writer at a time, with the ownership handoff synchronized by the
/// runtime's own scheduling structures — so an increment can be a
/// plain load+store pair instead of a locked RMW (`fetch_add`), which
/// costs an order of magnitude more on the migration-heavy paths.
/// Concurrent *readers* (snapshot, flight recorder) stay race-free:
/// both halves are relaxed atomic accesses.
pub trait SingleWriterCounter {
    /// Add `n` (single writer; see trait docs).
    fn bump(&self, n: u64);
}

impl SingleWriterCounter for AtomicU64 {
    #[inline]
    fn bump(&self, n: u64) {
        self.store(
            self.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// How many merged trace events a flight-recorder dump keeps (newest
/// first wins; the node ring is always included in full).
pub const FLIGHT_EVENTS: usize = 1024;

/// Observability handle of one shard. All fields are relaxed atomics;
/// see the module docs for the ownership discipline.
#[derive(Debug)]
pub struct ShardObs {
    epoch: Instant,
    /// Coarse event clock: ns since epoch, refreshed once per poll.
    now_ns: AtomicU64,
    /// Current guest-pool occupancy.
    pub guest_occupancy: AtomicU64,
    /// End-to-end task latency (ns), one sample per task retired here.
    pub task_latency_ns: LogHistogram,
    /// Mailbox drain batch sizes (messages per poll).
    pub mailbox_batch: LogHistogram,
    /// The (scheme-thread, home-shard) cost-attribution matrix for
    /// decisions executed on this shard (single writer: the polling
    /// worker; see DESIGN.md §14).
    pub attrib: AttribTable,
    /// Journey hops lost to the per-envelope cap.
    pub journey_dropped: AtomicU64,
    ring: Ring,
}

impl ShardObs {
    fn new(epoch: Instant) -> Self {
        ShardObs {
            epoch,
            now_ns: AtomicU64::new(0),
            guest_occupancy: AtomicU64::new(0),
            task_latency_ns: LogHistogram::new(),
            mailbox_batch: LogHistogram::new(),
            attrib: AttribTable::new(DEFAULT_ATTRIB_SLOTS),
            journey_dropped: AtomicU64::new(0),
            ring: Ring::new(DEFAULT_RING),
        }
    }

    /// Refresh the coarse event clock. The polling worker calls this
    /// periodically (every few polls); every event recorded in between
    /// shares the reading (see the module docs). Kept out of the
    /// per-event path because `clock_gettime` can be a real syscall in
    /// containerized environments.
    #[inline]
    pub fn refresh_clock(&self) {
        self.now_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Append a lifecycle event to this shard's trace ring (coarse
    /// timestamp; a handful of relaxed stores, no lock, no syscall,
    /// no locked RMW — the shard core is the ring's only writer).
    #[inline]
    pub fn event(&self, kind: EventKind, task: u64, a: u64, b: u64) {
        self.ring.push_single_writer(Event {
            ts_ns: self.now_ns.load(Ordering::Relaxed),
            task,
            kind,
            a,
            b,
        });
    }

    /// This shard's row of the exporter's per-shard breakdown, each
    /// value read where it is counted: the shard's own latency
    /// histogram, gauge and attribution matrix.
    fn row(&self, shard: usize) -> String {
        let (mut migrations_out, mut remote) = (0, 0);
        for e in self.attrib.entries() {
            migrations_out += e.get(Col::Migrations);
            remote += e.get(Col::RemoteReads) + e.get(Col::RemoteWrites);
        }
        let occupancy = self.guest_occupancy.load(Ordering::Relaxed);
        JsonObj::new()
            .u64("shard", shard as u64)
            .u64("retired", self.task_latency_ns.count())
            .u64("guest_occupancy", occupancy)
            .u64("migrations_out", migrations_out)
            .u64("remote", remote)
            .finish()
    }
}

/// Observability handle of one peer link (owned by its writer thread).
#[derive(Debug)]
pub struct PeerObs {
    /// The peer's node id.
    pub peer: u64,
    /// Egress queue depth, as the writer found it when the window it
    /// last flushed opened.
    pub egress_depth: AtomicU64,
    /// Wire write latency (ns), one sample per flush.
    pub flush_ns: LogHistogram,
}

impl PeerObs {
    /// Record one flush: written in `ns` nanoseconds, from a queue
    /// that was `depth` items deep when its window opened.
    #[inline]
    pub fn record_flush(&self, ns: u64, depth: u64) {
        self.flush_ns.record(ns);
        self.egress_depth.store(depth, Ordering::Relaxed);
    }
}

/// The per-node registry: everything the obs plane knows about one
/// runtime, plus the flight recorder.
#[derive(Debug)]
pub struct NodeObs {
    /// How this registry was configured.
    pub cfg: ObsConfig,
    epoch: Instant,
    node: AtomicU64,
    shards: Vec<Arc<ShardObs>>,
    peers: Mutex<Vec<Arc<PeerObs>>>,
    node_ring: Ring,
    seq: AtomicU64,
    flight_taken: AtomicBool,
    dir_epoch: AtomicU64,
}

impl NodeObs {
    /// Stand up a registry for `shards` shards — every node instantiates
    /// all of the cluster's, so an index is a global shard id.
    pub fn new(cfg: ObsConfig, shards: usize) -> Arc<Self> {
        let epoch = Instant::now();
        Arc::new(NodeObs {
            shards: (0..shards)
                .map(|_| Arc::new(ShardObs::new(epoch)))
                .collect(),
            peers: Mutex::new(Vec::new()),
            node_ring: Ring::new(DEFAULT_RING),
            seq: AtomicU64::new(0),
            flight_taken: AtomicBool::new(false),
            node: AtomicU64::new(0),
            dir_epoch: AtomicU64::new(0),
            epoch,
            cfg,
        })
    }

    /// Set the cluster node id this registry reports as (single-process
    /// runtimes stay 0).
    pub fn set_node(&self, node: u64) {
        self.node.store(node, Ordering::Relaxed);
    }

    /// The registry's epoch (runtime start) — event timestamps count
    /// from here.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Handle of shard `shard`.
    pub fn shard(&self, shard: usize) -> &Arc<ShardObs> {
        &self.shards[shard]
    }

    /// Register (or fetch) the handle for peer node `peer`.
    pub fn register_peer(&self, peer: u64) -> Arc<PeerObs> {
        let mut peers = self.peers.lock().expect("peer registry");
        if let Some(p) = peers.iter().find(|p| p.peer == peer) {
            return Arc::clone(p);
        }
        let p = Arc::new(PeerObs {
            peer,
            egress_depth: AtomicU64::new(0),
            flush_ns: LogHistogram::new(),
        });
        peers.push(Arc::clone(&p));
        p
    }

    /// Append a node-level event (peer up/down, a handoff phase,
    /// failure) to the node ring. Node events are rare, so they pay for
    /// an exact timestamp.
    pub fn node_event(&self, kind: EventKind, a: u64, b: u64) {
        self.node_ring.push(Event {
            ts_ns: self.now_ns(),
            task: 0,
            kind,
            a,
            b,
        });
    }

    /// Raise the highest directory epoch this node has observed
    /// (monotone; safe from any thread).
    pub fn set_dir_epoch(&self, epoch: u64) {
        self.dir_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The hottest `top` home shards by attributed cost, summed over
    /// every shard's matrix, hottest first. Overflow-cell rows are
    /// excluded (their home is not a real shard).
    pub fn placement_heat(&self, top: usize) -> Vec<(u32, u64)> {
        let mut per_home: Vec<(u32, u64)> = Vec::new();
        for sh in &self.shards {
            for e in sh.attrib.entries() {
                if (e.thread, e.home) == OVERFLOW_KEY {
                    continue;
                }
                let cost = e.get(Col::Cost);
                match per_home.iter_mut().find(|(h, _)| *h == e.home) {
                    Some((_, c)) => *c += cost,
                    None => per_home.push((e.home, cost)),
                }
            }
        }
        per_home.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        per_home.truncate(top);
        per_home
    }

    /// Flatten the registry into a mergeable [`Snapshot`] (relaxed
    /// reads; advances the exporter sequence number).
    pub fn snapshot(&self) -> Snapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut s = Snapshot {
            node: ld(&self.node),
            nodes: 1,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            uptime_ms: self.epoch.elapsed().as_millis() as u64,
            dir_epoch: ld(&self.dir_epoch),
            ..Snapshot::default()
        };
        for sh in &self.shards {
            s.guest_occupancy += ld(&sh.guest_occupancy);
            s.task_latency_ns.merge(&sh.task_latency_ns.snapshot());
            s.mailbox_batch.merge(&sh.mailbox_batch.snapshot());
            s.trace_dropped += sh.ring.dropped();
            s.journey_dropped += ld(&sh.journey_dropped);
            for e in sh.attrib.entries() {
                s.fold_attrib(&e);
            }
            s.attrib_dropped += sh.attrib.overflow_routed();
        }
        for p in self.peers.lock().expect("peer registry").iter() {
            s.egress_depth += ld(&p.egress_depth);
            s.flush_ns.merge(&p.flush_ns.snapshot());
        }
        s
    }

    /// The exporter JSONL line for the current state: the node
    /// [`Snapshot`] plus, for small fleets (≤ 64 local shards), a
    /// compact per-shard breakdown under `"shards"`.
    pub fn snapshot_json(&self) -> String {
        let snap = self.snapshot();
        let mut line = snap.to_json();
        if self.shards.len() <= 64 {
            let rows = self.shards.iter().enumerate();
            let shards = crate::json::array(rows.map(|(i, sh)| sh.row(i)));
            // Splice the per-shard array into the closed object.
            line.truncate(line.len() - 1);
            line.push_str(",\"shards\":");
            line.push_str(&shards);
            line.push('}');
        }
        line
    }

    fn render_event(global_shard: i64, ev: &Event) -> String {
        let (an, bn) = ev.kind.payload_names();
        let mut obj = JsonObj::new()
            .str("kind", "event")
            .u64("t_ns", ev.ts_ns)
            .str("ev", ev.kind.name());
        if global_shard >= 0 {
            obj = obj.u64("shard", global_shard as u64);
        }
        if ev.task != 0 {
            obj = obj.u64("task", ev.task);
        }
        obj = obj.u64(an, ev.a);
        if bn != "b" || ev.b != 0 {
            obj = obj.u64(bn, ev.b);
        }
        obj.finish()
    }

    /// Dump a post-mortem: a header naming the failure, the full
    /// metrics snapshot, an optional caller-rendered wedge census (one
    /// pre-built JSON line — the net layer passes its
    /// runnable/parked/awaiting/expecting/handoff state here so a crash
    /// dump answers "where is everything stuck"), and the newest
    /// [`FLIGHT_EVENTS`] trace
    /// events merged across every ring — ending with a `fail` event
    /// that names the failing edge. Only the first call dumps (a
    /// cluster failure fans out; one timeline per node is enough);
    /// later calls return `Ok(None)`.
    pub fn flight_dump(
        &self,
        error_kind: &str,
        detail: &str,
        peer: Option<u64>,
        census: Option<&str>,
    ) -> std::io::Result<Option<PathBuf>> {
        if self.flight_taken.swap(true, Ordering::Relaxed) {
            return Ok(None);
        }
        let node = self.node.load(Ordering::Relaxed);
        self.node_event(EventKind::Fail, peer.unwrap_or(u64::MAX), 0);
        let dir = self.cfg.resolved_flight_dir();
        let path = dir.join(format!(
            "em2-flight-node{node}-pid{}.jsonl",
            std::process::id()
        ));
        let mut events: Vec<(i64, Event)> = Vec::new();
        for (i, sh) in self.shards.iter().enumerate() {
            events.extend(sh.ring.events().into_iter().map(|e| (i as i64, e)));
        }
        events.extend(self.node_ring.events().into_iter().map(|e| (-1i64, e)));
        events.sort_by_key(|(_, e)| e.ts_ns);
        let skip = events.len().saturating_sub(FLIGHT_EVENTS);
        let mut out = String::new();
        out.push_str(
            &JsonObj::new()
                .str("kind", "flight")
                .u64("node", node)
                .u64("pid", std::process::id() as u64)
                .u64("uptime_ms", self.epoch.elapsed().as_millis() as u64)
                .str("error_kind", error_kind)
                .str("detail", detail)
                .u64("events", (events.len() - skip) as u64)
                .u64("events_elided", skip as u64)
                .finish(),
        );
        out.push('\n');
        out.push_str(&self.snapshot_json());
        out.push('\n');
        if let Some(c) = census {
            // One line per JSONL discipline; the caller renders it.
            debug_assert!(!c.contains('\n'));
            out.push_str(c);
            out.push('\n');
        }
        for (shard, ev) in events.iter().skip(skip) {
            out.push_str(&Self::render_event(*shard, ev));
            out.push('\n');
        }
        // The final event: the failure itself, naming the edge.
        let mut fail = JsonObj::new()
            .str("kind", "event")
            .u64("t_ns", self.now_ns())
            .str("ev", "fail")
            .str("error_kind", error_kind)
            .str("detail", detail);
        if let Some(p) = peer {
            fail = fail.u64("peer", p);
        }
        out.push_str(&fail.finish());
        out.push('\n');
        let mut f = std::fs::File::create(&path)?;
        f.write_all(out.as_bytes())?;
        f.flush()?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised() -> Arc<NodeObs> {
        let obs = NodeObs::new(ObsConfig::on(), 4);
        for (i, _) in obs.shards.iter().enumerate() {
            let sh = obs.shard(i);
            sh.task_latency_ns.record(1_000 * (i as u64 + 1));
            sh.guest_occupancy.store(i as u64, Ordering::Relaxed);
            sh.event(EventKind::Arrive, 40 + i as u64, 1, 0);
            sh.event(EventKind::MigrateOut, 40 + i as u64, 2, 81);
        }
        obs.register_peer(1).record_flush(2_500, 3);
        for (i, _) in obs.shards.iter().enumerate() {
            let cell = obs.shard(i).attrib.cell(2, 8 + i as u32);
            cell.migrations.bump(1);
            cell.cost.bump(30);
        }
        obs
    }

    /// The keys of a JSON object's top level, in order.
    fn top_level_keys(json: &str) -> Vec<&str> {
        let (mut keys, mut depth, mut open) = (Vec::new(), 0, None);
        for (i, c) in json.char_indices() {
            match (c, open) {
                ('"', None) => open = Some(i + 1),
                ('"', Some(from)) => {
                    if depth == 1 && json[i + 1..].starts_with(':') {
                        keys.push(&json[from..i]);
                    }
                    open = None;
                }
                ('{' | '[', None) => depth += 1,
                ('}' | ']', None) => depth -= 1,
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn snapshot_aggregates_across_handles() {
        let obs = exercised();
        let s = obs.snapshot();
        assert_eq!(s.retired(), 4);
        assert_eq!(s.guest_occupancy, 6);
        assert_eq!(s.egress_depth, 3);
        assert_eq!(s.flush_ns.count, 1);
        assert_eq!(s.migrations_out(), 4);
        assert_eq!(s.attrib_cost(), 120, "shard matrices fold into one sum");
        assert_eq!(s.attrib.len(), 4, "one row per (thread, home) key");
        obs.set_dir_epoch(4);
        obs.set_dir_epoch(2);
        assert_eq!(obs.snapshot().dir_epoch, 4, "the epoch gauge is monotone");
    }

    #[test]
    fn json_line_carries_exactly_the_documented_keys() {
        let obs = exercised();
        assert_eq!(top_level_keys(&obs.snapshot().to_json()), Snapshot::KEYS);
        let line = obs.snapshot_json();
        let keys = top_level_keys(&line);
        assert_eq!(keys[..keys.len() - 1], Snapshot::KEYS);
        assert_eq!(keys[keys.len() - 1], "shards");
        assert!(
            line.contains(
                r#"{"shard":1,"retired":1,"guest_occupancy":1,"migrations_out":1,"remote":0}"#
            ),
            "per-shard rows read the shard's own histogram and matrix: {line}"
        );
        let row = r#"{"thread":2,"home":9,"migrations":1,"remote_reads":0,"remote_writes":0,"context_bytes":0,"cost":30}"#;
        assert!(line.contains(row), "{line}");
        let attrib = line.split(r#""attrib":["#).nth(1).expect("attrib rows");
        let attrib = &attrib[..attrib.find(']').expect("closed array")];
        for row in attrib.split("},{") {
            let keys: Vec<&str> = row.split('"').skip(1).step_by(2).collect();
            let mut want = vec!["thread", "home"];
            want.extend(Col::KEYS);
            assert_eq!(keys, want, "every attrib row: thread, home, the columns");
        }
    }

    /// DESIGN.md §12's schema table is the one documented schema: its
    /// key column must be the JSON line's keys, in order.
    #[test]
    fn design_doc_schema_table_matches_the_json_line() {
        let doc = include_str!("../../../DESIGN.md");
        let table = doc
            .split("### The snapshot line: one schema")
            .nth(1)
            .expect("DESIGN.md §12 has the schema section");
        let documented: Vec<&str> = table
            .lines()
            .skip_while(|l| !l.starts_with("| `"))
            .take_while(|l| l.starts_with("| `"))
            .map(|l| l[3..].split('`').next().expect("key cell"))
            .collect();
        let mut keys = Snapshot::KEYS.to_vec();
        keys.push("shards");
        assert_eq!(documented, keys);
    }

    #[test]
    fn placement_heat_ranks_homes_by_attributed_cost() {
        let obs = NodeObs::new(ObsConfig::on(), 2);
        obs.shard(0).attrib.cell(0, 3).cost.bump(100);
        obs.shard(1).attrib.cell(1, 3).cost.bump(50);
        obs.shard(0).attrib.cell(0, 7).cost.bump(80);
        obs.shard(1).attrib.cell(2, 1).cost.bump(10);
        let heat = obs.placement_heat(2);
        assert_eq!(heat, vec![(3, 150), (7, 80)]);
    }

    #[test]
    fn peer_registration_is_idempotent() {
        let obs = NodeObs::new(ObsConfig::on(), 1);
        let a = obs.register_peer(2);
        let b = obs.register_peer(2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn flight_dump_writes_once_and_names_the_edge() {
        let dir = std::env::temp_dir().join(format!(
            "em2-obs-flight-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = ObsConfig::on();
        cfg.flight_dir = Some(dir.clone());
        let obs = NodeObs::new(cfg, 4);
        obs.set_node(3);
        obs.shard(0).event(EventKind::Retire, 9, 1_234, 0);
        obs.node_event(EventKind::PeerDown, 1, 0);
        let path = obs
            .flight_dump(
                "peer-lost",
                "lost peer node 1: read timeout",
                Some(1),
                Some(r#"{"kind":"census","runnable":2}"#),
            )
            .unwrap()
            .expect("first dump");
        assert!(obs
            .flight_dump("peer-lost", "again", Some(1), None)
            .unwrap()
            .is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        let last = text.lines().last().unwrap();
        assert!(
            last.contains(r#""ev":"fail""#),
            "final event is the failure: {last}"
        );
        assert!(last.contains("lost peer node 1"), "names the edge: {last}");
        assert!(text.lines().next().unwrap().contains(r#""kind":"flight""#));
        assert!(text.contains(r#""ev":"peer-down""#));
        assert_eq!(
            text.lines().nth(2).unwrap(),
            r#"{"kind":"census","runnable":2}"#,
            "census line rides after the snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
