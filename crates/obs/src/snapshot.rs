//! Mergeable node-level metric snapshots.
//!
//! A [`Snapshot`] is the flat, summable form of one node's obs
//! registry at an instant — the timing-plane sibling of
//! `em2_net::CounterSummary`. Node snapshots [`merge`](Snapshot::merge)
//! into cluster-wide totals (`NetReport.obs` of an in-process cluster),
//! and the one serialised form is [`to_json`](Snapshot::to_json): what
//! the periodic exporter appends to its JSONL stream and what the
//! flight recorder embeds in a post-mortem.
//!
//! Nothing in here participates in any agreement check — merging is
//! for *aggregation*, never for equality assertions.

use crate::attrib::ATTRIB_COUNTERS;
use crate::hist::HistSnapshot;
use crate::json::JsonObj;

/// One (thread, home) row of the cost-attribution matrix in its
/// snapshot form, summed counter-wise by key under merge. The overflow
/// cell appears under `(u32::MAX, u32::MAX)`
/// ([`crate::attrib::OVERFLOW_KEY`]) and merges like any other key —
/// which is what keeps summed totals exact across nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttribEntry {
    /// Scheme-thread id.
    pub thread: u32,
    /// Home shard the thread's accesses targeted.
    pub home: u32,
    /// The eight counters, in the order documented on
    /// [`crate::attrib::ATTRIB_COUNTERS`].
    pub counts: [u64; ATTRIB_COUNTERS],
}

impl AttribEntry {
    /// Attributed network cost (the last counter).
    pub fn cost(&self) -> u64 {
        self.counts[ATTRIB_COUNTERS - 1]
    }
}

/// Phase timeline of one live shard handoff, keyed by handoff id.
/// Each node only witnesses the phases it participated in (the
/// coordinator stamps Prepare/Commit, the source Freeze, the
/// destination Transfer), so under merge the timestamps take the max
/// (`0` = not witnessed) while the frame counters sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandoffTrace {
    /// Coordinator-assigned handoff id.
    pub hid: u64,
    /// The shard being re-homed.
    pub shard: u64,
    /// Source node.
    pub from: u64,
    /// Destination node.
    pub to: u64,
    /// When the coordinator opened the handoff (ns since epoch).
    pub prepare_ns: u64,
    /// When the source froze the shard (ns).
    pub freeze_ns: u64,
    /// When the destination installed the frozen state (ns).
    pub transfer_ns: u64,
    /// When the coordinator committed the new ownership (ns).
    pub commit_ns: u64,
    /// Serialized frozen-shard bytes shipped source → destination.
    pub frozen_bytes: u64,
    /// Frames the destination buffered while the shard was frozen and
    /// replayed into it after install.
    pub replayed: u64,
    /// Epoch-fenced frames bounced for re-routing during this handoff.
    pub bounced: u64,
}

impl HandoffTrace {
    /// Fold another node's view of the same handoff in (see the
    /// struct docs for the per-field rule).
    pub fn merge(&mut self, o: &HandoffTrace) {
        debug_assert_eq!(self.hid, o.hid);
        self.shard = self.shard.max(o.shard);
        self.from = self.from.max(o.from);
        self.to = self.to.max(o.to);
        self.prepare_ns = self.prepare_ns.max(o.prepare_ns);
        self.freeze_ns = self.freeze_ns.max(o.freeze_ns);
        self.transfer_ns = self.transfer_ns.max(o.transfer_ns);
        self.commit_ns = self.commit_ns.max(o.commit_ns);
        self.frozen_bytes = self.frozen_bytes.max(o.frozen_bytes);
        self.replayed += o.replayed;
        self.bounced += o.bounced;
    }
}

/// One node's obs metrics, flattened and summable.
///
/// A field is something nothing else in the snapshot determines; every
/// total the histograms and rows do determine (tasks retired, verdicts
/// executed, handoff sums) is a method reading it where it is counted,
/// so a total cannot disagree with its own breakdown.
///
/// Under [`merge`](Snapshot::merge) loss indicators sum, gauges take
/// the max (they are instantaneous, not additive), histograms merge
/// bucket-wise, and attribution rows and handoff traces merge by key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Lowest node id folded into this snapshot.
    pub node: u64,
    /// Number of node snapshots folded in (1 for a single node).
    pub nodes: u64,
    /// Exporter sequence number (max under merge).
    pub seq: u64,
    /// Milliseconds since the registry's epoch (max under merge).
    pub uptime_ms: u64,
    /// Current guest-pool occupancy summed over shards (max under
    /// merge — concurrent nodes, instantaneous value).
    pub guest_occupancy: u64,
    /// Current egress queue depth summed over peers (max under merge).
    pub egress_depth: u64,
    /// Highest directory epoch observed (max under merge).
    pub dir_epoch: u64,
    /// Trace events evicted from rings to stay within capacity.
    pub trace_dropped: u64,
    /// Matrix resolutions that spilled to the overflow cell (per-key
    /// breakdown degraded; totals exact).
    pub attrib_dropped: u64,
    /// Journey hops dropped by the per-envelope cap
    /// (`JOURNEY_CAP`-excess hops; counted, not recorded).
    pub journey_dropped: u64,
    /// Epoch-fenced frames bounced with no handoff trace to charge (a
    /// bounce can race ahead of the coordinator's Prepare).
    pub stray_bounces: u64,
    /// End-to-end task latency (ns), one sample per retired task.
    pub task_latency_ns: HistSnapshot,
    /// Mailbox drain batch sizes (messages per poll).
    pub mailbox_batch: HistSnapshot,
    /// Wire write latency (ns), one sample per flush, all peers.
    pub flush_ns: HistSnapshot,
    /// Cost-attribution rows, sorted by (thread, home); summed by key
    /// under merge.
    pub attrib: Vec<AttribEntry>,
    /// Handoff phase timelines, sorted by handoff id; merged per
    /// [`HandoffTrace::merge`] under merge.
    pub handoffs: Vec<HandoffTrace>,
}

impl Snapshot {
    /// Top-level keys of [`to_json`](Snapshot::to_json), in order —
    /// the schema DESIGN.md §12 documents row by row.
    pub const KEYS: [&'static str; 28] = [
        "kind",
        "node",
        "nodes",
        "seq",
        "uptime_ms",
        "guest_occupancy",
        "egress_depth",
        "dir_epoch",
        "trace_dropped",
        "attrib_dropped",
        "journey_dropped",
        "stray_bounces",
        "retired",
        "migrations_out",
        "remote_reads",
        "remote_writes",
        "context_bytes_out",
        "attrib_cost",
        "handoff_commits",
        "handoff_frozen_bytes",
        "handoff_replayed",
        "handoff_bounced",
        "task_latency_ns",
        "mailbox_batch",
        "flush_ns",
        "attrib_rows",
        "attrib",
        "handoffs",
    ];

    /// Fold another node's snapshot in (see the struct docs for the
    /// per-field rule).
    pub fn merge(&mut self, o: &Snapshot) {
        self.node = self.node.min(o.node);
        self.nodes += o.nodes;
        self.seq = self.seq.max(o.seq);
        self.uptime_ms = self.uptime_ms.max(o.uptime_ms);
        self.guest_occupancy = self.guest_occupancy.max(o.guest_occupancy);
        self.egress_depth = self.egress_depth.max(o.egress_depth);
        self.dir_epoch = self.dir_epoch.max(o.dir_epoch);
        self.trace_dropped += o.trace_dropped;
        self.attrib_dropped += o.attrib_dropped;
        self.journey_dropped += o.journey_dropped;
        self.stray_bounces += o.stray_bounces;
        self.task_latency_ns.merge(&o.task_latency_ns);
        self.mailbox_batch.merge(&o.mailbox_batch);
        self.flush_ns.merge(&o.flush_ns);
        for e in &o.attrib {
            self.fold_attrib(e.thread, e.home, &e.counts);
        }
        for h in &o.handoffs {
            self.fold_handoff(h);
        }
    }

    /// Sum a (thread, home) row into the sorted attribution vector,
    /// inserting it if the key is new.
    pub fn fold_attrib(&mut self, thread: u32, home: u32, counts: &[u64; ATTRIB_COUNTERS]) {
        match self
            .attrib
            .binary_search_by_key(&(thread, home), |e| (e.thread, e.home))
        {
            Ok(i) => {
                for (dst, src) in self.attrib[i].counts.iter_mut().zip(counts) {
                    *dst += src;
                }
            }
            Err(i) => self.attrib.insert(
                i,
                AttribEntry {
                    thread,
                    home,
                    counts: *counts,
                },
            ),
        }
    }

    /// Merge a handoff record into the sorted handoff vector by id,
    /// inserting it if the id is new.
    pub fn fold_handoff(&mut self, h: &HandoffTrace) {
        match self.handoffs.binary_search_by_key(&h.hid, |r| r.hid) {
            Ok(i) => self.handoffs[i].merge(h),
            Err(i) => self.handoffs.insert(i, *h),
        }
    }

    /// Sum a set of node snapshots (cluster totals).
    pub fn sum(parts: impl IntoIterator<Item = Snapshot>) -> Snapshot {
        let mut parts = parts.into_iter();
        let mut acc = parts.next().expect("at least one snapshot");
        for p in parts {
            acc.merge(&p);
        }
        acc
    }

    /// Tasks retired: every retirement records exactly one latency.
    pub fn retired(&self) -> u64 {
        self.task_latency_ns.count
    }

    /// Column `col` of the attribution matrix, summed over every row
    /// (order per [`ATTRIB_COUNTERS`]). Exact however full the tables
    /// got: a spilled resolution lands on the overflow row.
    fn attrib_sum(&self, col: usize) -> u64 {
        self.attrib.iter().map(|e| e.counts[col]).sum()
    }

    /// Migrate verdicts executed (continuations shipped out).
    pub fn migrations_out(&self) -> u64 {
        self.attrib_sum(0)
    }

    /// Remote-access read verdicts executed.
    pub fn remote_reads(&self) -> u64 {
        self.attrib_sum(1)
    }

    /// Remote-access write verdicts executed.
    pub fn remote_writes(&self) -> u64 {
        self.attrib_sum(2)
    }

    /// Serialized context bytes shipped by migrations.
    pub fn context_bytes_out(&self) -> u64 {
        self.attrib_sum(4)
    }

    /// Total attributed network cost (the observed side of the
    /// placement scorecard).
    pub fn attrib_cost(&self) -> u64 {
        self.attrib_sum(ATTRIB_COUNTERS - 1)
    }

    /// Handoffs seen to commit.
    pub fn handoff_commits(&self) -> u64 {
        self.handoffs.iter().filter(|h| h.commit_ns != 0).count() as u64
    }

    /// Frozen-shard bytes shipped by handoffs.
    pub fn handoff_frozen_bytes(&self) -> u64 {
        self.handoffs.iter().map(|h| h.frozen_bytes).sum()
    }

    /// Frames replayed into re-homed shards.
    pub fn handoff_replayed(&self) -> u64 {
        self.handoffs.iter().map(|h| h.replayed).sum()
    }

    /// Epoch-fenced frames bounced, charged to a handoff or stray.
    pub fn handoff_bounced(&self) -> u64 {
        self.stray_bounces + self.handoffs.iter().map(|h| h.bounced).sum::<u64>()
    }

    /// The scalar rows of the JSON line: stored fields, then derived
    /// totals, in [`KEYS`](Snapshot::KEYS) order.
    fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("node", self.node),
            ("nodes", self.nodes),
            ("seq", self.seq),
            ("uptime_ms", self.uptime_ms),
            ("guest_occupancy", self.guest_occupancy),
            ("egress_depth", self.egress_depth),
            ("dir_epoch", self.dir_epoch),
            ("trace_dropped", self.trace_dropped),
            ("attrib_dropped", self.attrib_dropped),
            ("journey_dropped", self.journey_dropped),
            ("stray_bounces", self.stray_bounces),
        ]
    }

    /// One JSONL line for the exporter stream / flight recorder, with
    /// derived latency quantiles for direct consumption.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new().str("kind", "obs");
        let derived = [
            ("retired", self.retired()),
            ("migrations_out", self.migrations_out()),
            ("remote_reads", self.remote_reads()),
            ("remote_writes", self.remote_writes()),
            ("context_bytes_out", self.context_bytes_out()),
            ("attrib_cost", self.attrib_cost()),
            ("handoff_commits", self.handoff_commits()),
            ("handoff_frozen_bytes", self.handoff_frozen_bytes()),
            ("handoff_replayed", self.handoff_replayed()),
            ("handoff_bounced", self.handoff_bounced()),
        ];
        for (k, v) in self.fields().into_iter().chain(derived) {
            obj = obj.u64(k, v);
        }
        for (k, h) in [
            ("task_latency_ns", &self.task_latency_ns),
            ("mailbox_batch", &self.mailbox_batch),
            ("flush_ns", &self.flush_ns),
        ] {
            let hist = JsonObj::new()
                .u64("count", h.count)
                .f64("mean", h.mean())
                .u64("min", if h.is_empty() { 0 } else { h.min })
                .u64("max", h.max)
                .u64("p50", h.quantile(0.50))
                .u64("p95", h.quantile(0.95))
                .u64("p99", h.quantile(0.99))
                .finish();
            obj = obj.raw(k, &hist);
        }
        // Attribution rows are bounded to the top 16 by cost so a
        // flight-recorder line stays readable; the full matrix lives in
        // `Snapshot::attrib`.
        let mut top: Vec<&AttribEntry> = self.attrib.iter().collect();
        top.sort_by(|a, b| {
            b.cost()
                .cmp(&a.cost())
                .then((a.thread, a.home).cmp(&(b.thread, b.home)))
        });
        top.truncate(16);
        let rows: Vec<String> = top
            .iter()
            .map(|e| {
                JsonObj::new()
                    .u64("thread", e.thread as u64)
                    .u64("home", e.home as u64)
                    .u64("migrations", e.counts[0])
                    .u64("remote_reads", e.counts[1])
                    .u64("remote_writes", e.counts[2])
                    .u64("locals", e.counts[3])
                    .u64("context_bytes", e.counts[4])
                    .u64("bounces", e.counts[5])
                    .u64("parks", e.counts[6])
                    .u64("cost", e.counts[7])
                    .finish()
            })
            .collect();
        obj = obj.u64("attrib_rows", self.attrib.len() as u64);
        obj = obj.raw("attrib", &format!("[{}]", rows.join(",")));
        let hrows: Vec<String> = self
            .handoffs
            .iter()
            .map(|h| {
                JsonObj::new()
                    .u64("hid", h.hid)
                    .u64("shard", h.shard)
                    .u64("from", h.from)
                    .u64("to", h.to)
                    .u64("prepare_ns", h.prepare_ns)
                    .u64("freeze_ns", h.freeze_ns)
                    .u64("transfer_ns", h.transfer_ns)
                    .u64("commit_ns", h.commit_ns)
                    .u64("frozen_bytes", h.frozen_bytes)
                    .u64("replayed", h.replayed)
                    .u64("bounced", h.bounced)
                    .finish()
            })
            .collect();
        obj = obj.raw("handoffs", &format!("[{}]", hrows.join(",")));
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u64) -> Snapshot {
        let mut s = Snapshot {
            node,
            nodes: 1,
            seq: 3,
            uptime_ms: 120,
            guest_occupancy: 3,
            egress_depth: 2,
            dir_epoch: node + 1,
            trace_dropped: 2,
            attrib_dropped: 1,
            journey_dropped: 2,
            stray_bounces: 1,
            ..Snapshot::default()
        };
        for v in [100u64, 2000, 2000, 65000] {
            s.task_latency_ns.record(v * (node + 1));
        }
        s.mailbox_batch.record(8);
        s.flush_ns.record(1500);
        s.fold_attrib(1, 2, &[3, 1, 0, 50, 200, 0, 1, 90]);
        s.fold_attrib(0, 2, &[2, 0, 1, 40, 100, 1, 0, 50]);
        s.fold_handoff(&HandoffTrace {
            hid: 7,
            shard: 2,
            from: node,
            to: node + 1,
            prepare_ns: 10 * (node + 1),
            freeze_ns: 0,
            transfer_ns: 30,
            commit_ns: 0,
            frozen_bytes: 512,
            replayed: 2,
            bounced: 1,
        });
        s
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_and_merges_hists() {
        let a = sample(0);
        let b = sample(1);
        let direct = {
            let mut m = a.clone();
            m.merge(&b);
            m
        };
        assert_eq!(direct, Snapshot::sum([a, b]), "sum is a fold of merge");
        assert_eq!(direct.nodes, 2);
        assert_eq!(direct.node, 0);
        assert_eq!(direct.retired(), 8);
        assert_eq!(direct.guest_occupancy, 3, "gauge is a max, not a sum");
        assert_eq!(direct.journey_dropped, 4, "loss indicators sum");
        assert_eq!(direct.task_latency_ns.count, 8);
        assert_eq!(direct.attrib_cost(), 280);
        assert_eq!(direct.dir_epoch, 2, "epoch is a max, not a sum");
        assert_eq!(direct.attrib.len(), 2, "attrib rows sum by key");
        assert_eq!(direct.attrib[0].counts, [4, 0, 2, 80, 200, 2, 0, 100]);
        assert_eq!(direct.handoffs.len(), 1, "handoff views merge by id");
        let h = &direct.handoffs[0];
        assert_eq!(h.prepare_ns, 20, "timestamps take the max");
        assert_eq!(h.replayed, 4, "frame counts sum");
        assert_eq!(h.from, 1);
    }

    #[test]
    fn totals_are_read_off_the_rows_that_count_them() {
        let s = sample(0);
        assert_eq!(s.retired(), 4);
        assert_eq!(
            (s.migrations_out(), s.remote_reads(), s.remote_writes()),
            (5, 1, 1)
        );
        assert_eq!((s.context_bytes_out(), s.attrib_cost()), (300, 140));
        assert_eq!((s.handoff_commits(), s.handoff_frozen_bytes()), (0, 512));
        assert_eq!(s.handoff_replayed(), 2);
        assert_eq!(s.handoff_bounced(), 2, "ledger bounce + stray bounce");
    }

    #[test]
    fn json_line_is_one_line_and_nonempty() {
        let j = sample(0).to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with(r#"{"kind":"obs""#));
        assert!(j.contains(r#""task_latency_ns":{"count":4"#));
    }
}
