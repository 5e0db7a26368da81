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

use crate::attrib::{Col, ATTRIB_COUNTERS};
use crate::hist::HistSnapshot;
use crate::json::{self, JsonObj};

/// How a stored field folds under merge.
#[derive(Clone, Copy)]
enum Rule {
    Sum,
    Max,
    Min,
}

/// One row of a field table: the field's JSON key, where it lives, and
/// its merge rule.
type Row<'a> = (&'static str, &'a mut u64, Rule);

/// Fold `theirs` into `mine`, row by row (both walk the same table).
fn fold<const N: usize>(mine: [Row<'_>; N], theirs: [Row<'_>; N]) {
    for ((_, a, rule), (_, b, _)) in mine.into_iter().zip(theirs) {
        *a = match rule {
            Rule::Sum => *a + *b,
            Rule::Max => (*a).max(*b),
            Rule::Min => (*a).min(*b),
        };
    }
}

/// Append a field table's rows to `obj`, in table order.
fn render<const N: usize>(mut obj: JsonObj, rows: [Row<'_>; N]) -> JsonObj {
    for (k, v, _) in rows {
        obj = obj.u64(k, *v);
    }
    obj
}

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
    /// The counters, indexed by [`Col`].
    pub counts: [u64; ATTRIB_COUNTERS],
}

impl AttribEntry {
    /// Column `col` of this row.
    pub fn get(&self, col: Col) -> u64 {
        self.counts[col as usize]
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
    /// Every field, in JSON row order, with its merge rule — the one
    /// table behind `merge` and the `handoffs` rows.
    fn fields(&mut self) -> [Row<'_>; 11] {
        use Rule::{Max, Sum};
        [
            ("hid", &mut self.hid, Max),
            ("shard", &mut self.shard, Max),
            ("from", &mut self.from, Max),
            ("to", &mut self.to, Max),
            ("prepare_ns", &mut self.prepare_ns, Max),
            ("freeze_ns", &mut self.freeze_ns, Max),
            ("transfer_ns", &mut self.transfer_ns, Max),
            ("commit_ns", &mut self.commit_ns, Max),
            ("frozen_bytes", &mut self.frozen_bytes, Max),
            ("replayed", &mut self.replayed, Sum),
            ("bounced", &mut self.bounced, Sum),
        ]
    }

    /// Fold another node's view of the same handoff in (see the
    /// struct docs for the per-field rule).
    pub fn merge(&mut self, o: &HandoffTrace) {
        debug_assert_eq!(self.hid, o.hid);
        fold(self.fields(), { *o }.fields());
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

    /// The stored scalars, in [`KEYS`](Snapshot::KEYS) order, with
    /// their merge rules — the one table behind `merge` and `to_json`.
    fn scalars(&mut self) -> [Row<'_>; 11] {
        use Rule::{Max, Min, Sum};
        [
            ("node", &mut self.node, Min),
            ("nodes", &mut self.nodes, Sum),
            ("seq", &mut self.seq, Max),
            ("uptime_ms", &mut self.uptime_ms, Max),
            ("guest_occupancy", &mut self.guest_occupancy, Max),
            ("egress_depth", &mut self.egress_depth, Max),
            ("dir_epoch", &mut self.dir_epoch, Max),
            ("trace_dropped", &mut self.trace_dropped, Sum),
            ("attrib_dropped", &mut self.attrib_dropped, Sum),
            ("journey_dropped", &mut self.journey_dropped, Sum),
            ("stray_bounces", &mut self.stray_bounces, Sum),
        ]
    }

    /// Fold another node's snapshot in (see the struct docs for the
    /// per-field rule).
    pub fn merge(&mut self, o: &Snapshot) {
        // The table hands out `&mut`; reading `o` through it takes a copy.
        fold(self.scalars(), o.clone().scalars());
        self.task_latency_ns.merge(&o.task_latency_ns);
        self.mailbox_batch.merge(&o.mailbox_batch);
        self.flush_ns.merge(&o.flush_ns);
        for e in &o.attrib {
            self.fold_attrib(e);
        }
        for h in &o.handoffs {
            self.fold_handoff(h);
        }
    }

    /// Sum a (thread, home) row into the sorted attribution vector,
    /// inserting it if the key is new.
    pub fn fold_attrib(&mut self, e: &AttribEntry) {
        match self
            .attrib
            .binary_search_by_key(&(e.thread, e.home), |r| (r.thread, r.home))
        {
            Ok(i) => {
                for (dst, src) in self.attrib[i].counts.iter_mut().zip(e.counts) {
                    *dst += src;
                }
            }
            Err(i) => self.attrib.insert(i, *e),
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

    /// Column `col` of the attribution matrix, summed over every row.
    /// Exact however full the tables got: a spilled resolution lands
    /// on the overflow row.
    fn attrib_sum(&self, col: Col) -> u64 {
        self.attrib.iter().map(|e| e.get(col)).sum()
    }

    /// Migrate verdicts executed (continuations shipped out).
    pub fn migrations_out(&self) -> u64 {
        self.attrib_sum(Col::Migrations)
    }

    /// Remote-access read verdicts executed.
    pub fn remote_reads(&self) -> u64 {
        self.attrib_sum(Col::RemoteReads)
    }

    /// Remote-access write verdicts executed.
    pub fn remote_writes(&self) -> u64 {
        self.attrib_sum(Col::RemoteWrites)
    }

    /// Serialized context bytes shipped by migrations.
    pub fn context_bytes_out(&self) -> u64 {
        self.attrib_sum(Col::ContextBytes)
    }

    /// Total attributed network cost (the observed side of the
    /// placement scorecard).
    pub fn attrib_cost(&self) -> u64 {
        self.attrib_sum(Col::Cost)
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

    /// One JSONL line for the exporter stream / flight recorder, with
    /// derived latency quantiles for direct consumption.
    pub fn to_json(&self) -> String {
        let mut obj = render(JsonObj::new().str("kind", "obs"), self.clone().scalars());
        for (k, v) in [
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
        ] {
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
        top.sort_by_key(|e| (std::cmp::Reverse(e.get(Col::Cost)), e.thread, e.home));
        top.truncate(16);
        let rows = top.iter().map(|e| {
            let mut row = JsonObj::new()
                .u64("thread", e.thread as u64)
                .u64("home", e.home as u64);
            for (k, v) in Col::KEYS.into_iter().zip(e.counts) {
                row = row.u64(k, v);
            }
            row.finish()
        });
        obj = obj.u64("attrib_rows", self.attrib.len() as u64);
        obj = obj.raw("attrib", &json::array(rows));
        let hrows = self
            .handoffs
            .iter()
            .map(|h| render(JsonObj::new(), { *h }.fields()).finish());
        obj = obj.raw("handoffs", &json::array(hrows));
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
        for (thread, counts) in [(1, [3, 1, 0, 200, 90]), (0, [2, 0, 1, 100, 50])] {
            s.fold_attrib(&AttribEntry {
                thread,
                home: 2,
                counts,
            });
        }
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
        assert_eq!(direct.attrib[0].counts, [4, 0, 2, 200, 100]);
        assert_eq!(direct.handoffs.len(), 1, "handoff views merge by id");
        let h = &direct.handoffs[0];
        assert_eq!(h.prepare_ns, 20, "timestamps take the max");
        assert_eq!(h.replayed, 4, "frame counts sum");
        assert_eq!(h.from, 1);
    }

    /// Two snapshots that differ in every stored scalar, merged in
    /// either order: `node` takes the min, `nodes` and the loss
    /// indicators sum, `seq`, `uptime_ms`, the gauges and `dir_epoch`
    /// take the max.
    #[test]
    fn each_snapshot_scalar_merges_by_its_rule() {
        let scalars = |b: u64| Snapshot {
            node: b + 1,
            nodes: b + 2,
            seq: b + 3,
            uptime_ms: b + 4,
            guest_occupancy: b + 5,
            egress_depth: b + 6,
            dir_epoch: b + 7,
            trace_dropped: b + 8,
            attrib_dropped: b + 9,
            journey_dropped: b + 10,
            stray_bounces: b + 11,
            ..Snapshot::default()
        };
        let want = Snapshot {
            node: 1,
            nodes: 104,
            seq: 103,
            uptime_ms: 104,
            guest_occupancy: 105,
            egress_depth: 106,
            dir_epoch: 107,
            trace_dropped: 116,
            attrib_dropped: 118,
            journey_dropped: 120,
            stray_bounces: 122,
            ..Snapshot::default()
        };
        for (a, b) in [(scalars(0), scalars(100)), (scalars(100), scalars(0))] {
            let mut m = a;
            m.merge(&b);
            assert_eq!(m, want);
        }
    }

    /// The same for a handoff trace: identity fields, timestamps and
    /// `frozen_bytes` take the max, frame counts sum.
    #[test]
    fn each_handoff_field_merges_by_its_rule() {
        let view = |b: u64| HandoffTrace {
            hid: 7,
            shard: b + 1,
            from: b + 2,
            to: b + 3,
            prepare_ns: b + 4,
            freeze_ns: b + 5,
            transfer_ns: b + 6,
            commit_ns: b + 7,
            frozen_bytes: b + 8,
            replayed: b + 9,
            bounced: b + 10,
        };
        let want = HandoffTrace {
            replayed: 118,
            bounced: 120,
            ..view(100)
        };
        for (mut a, b) in [(view(0), view(100)), (view(100), view(0))] {
            a.merge(&b);
            assert_eq!(a, want);
        }
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
