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
use em2_model::Fold;

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

/// One node's obs metrics, flattened and summable.
///
/// A field is something nothing else in the snapshot determines; every
/// total the histograms and rows do determine (tasks retired, verdicts
/// executed) is a method reading it where it is counted, so a total
/// cannot disagree with its own breakdown.
///
/// Under [`merge`](Snapshot::merge) loss indicators sum, gauges take
/// the max (they are instantaneous, not additive), histograms merge
/// bucket-wise, and attribution rows merge by key.
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
    /// End-to-end task latency (ns), one sample per retired task.
    pub task_latency_ns: HistSnapshot,
    /// Mailbox drain batch sizes (messages per poll).
    pub mailbox_batch: HistSnapshot,
    /// Wire write latency (ns), one sample per flush, all peers.
    pub flush_ns: HistSnapshot,
    /// Cost-attribution rows, sorted by (thread, home); summed by key
    /// under merge.
    pub attrib: Vec<AttribEntry>,
}

/// The stored scalars of snapshot `$s`, in [`KEYS`](Snapshot::KEYS)
/// order, with their merge rules — the one table behind `merge` and
/// `to_json`, borrowed shared (`scalars!(s)`) or unique
/// (`scalars!(s, mut)`).
macro_rules! scalars {
    ($s:ident $(, $m:tt)?) => {{
        use Fold::{Max, Min, Sum};
        [
            ("node", &$($m)? $s.node, Min),
            ("nodes", &$($m)? $s.nodes, Sum),
            ("seq", &$($m)? $s.seq, Max),
            ("uptime_ms", &$($m)? $s.uptime_ms, Max),
            ("guest_occupancy", &$($m)? $s.guest_occupancy, Max),
            ("egress_depth", &$($m)? $s.egress_depth, Max),
            ("dir_epoch", &$($m)? $s.dir_epoch, Max),
            ("trace_dropped", &$($m)? $s.trace_dropped, Sum),
            ("attrib_dropped", &$($m)? $s.attrib_dropped, Sum),
            ("journey_dropped", &$($m)? $s.journey_dropped, Sum),
        ]
    }};
}

impl Snapshot {
    /// Top-level keys of [`to_json`](Snapshot::to_json), in order —
    /// the schema DESIGN.md §12 documents row by row.
    pub const KEYS: [&'static str; 22] = [
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
        "retired",
        "migrations_out",
        "remote_reads",
        "remote_writes",
        "context_bytes_out",
        "attrib_cost",
        "task_latency_ns",
        "mailbox_batch",
        "flush_ns",
        "attrib_rows",
        "attrib",
    ];

    /// Fold another node's snapshot in (see the struct docs for the
    /// per-field rule).
    pub fn merge(&mut self, o: &Snapshot) {
        for ((_, a, rule), (_, b, _)) in scalars!(self, mut).into_iter().zip(scalars!(o)) {
            *a = rule.apply(*a, *b);
        }
        self.task_latency_ns.merge(&o.task_latency_ns);
        self.mailbox_batch.merge(&o.mailbox_batch);
        self.flush_ns.merge(&o.flush_ns);
        for e in &o.attrib {
            self.fold_attrib(e);
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

    /// One JSONL line for the exporter stream / flight recorder, with
    /// derived latency quantiles for direct consumption.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new().str("kind", "obs");
        for (k, v, _) in scalars!(self) {
            obj = obj.u64(k, *v);
        }
        for (k, v) in [
            ("retired", self.retired()),
            ("migrations_out", self.migrations_out()),
            ("remote_reads", self.remote_reads()),
            ("remote_writes", self.remote_writes()),
            ("context_bytes_out", self.context_bytes_out()),
            ("attrib_cost", self.attrib_cost()),
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
        obj.raw("attrib", &json::array(rows)).finish()
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
            ..Snapshot::default()
        };
        for (a, b) in [(scalars(0), scalars(100)), (scalars(100), scalars(0))] {
            let mut m = a;
            m.merge(&b);
            assert_eq!(m, want);
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
    }

    #[test]
    fn json_line_is_one_line_and_nonempty() {
        let j = sample(0).to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with(r#"{"kind":"obs""#));
        assert!(j.contains(r#""task_latency_ns":{"count":4"#));
    }
}
