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
    /// Frames buffered at the destination while the shard was frozen.
    pub buffered: u64,
    /// Buffered frames replayed into the shard after install.
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
        self.buffered += o.buffered;
        self.replayed += o.replayed;
        self.bounced += o.bounced;
    }
}

/// One node's obs metrics, flattened and summable.
///
/// Counters sum under [`merge`](Snapshot::merge); occupancy gauges and
/// high-water marks take the max (they are instantaneous, not
/// additive); histograms merge bucket-wise.
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
    /// Task arrivals admitted (native + guest).
    pub arrivals: u64,
    /// Migrated-in guest arrivals.
    pub migrations_in: u64,
    /// Migrate verdicts executed (continuations shipped out).
    pub migrations_out: u64,
    /// Remote-access read verdicts executed.
    pub remote_reads: u64,
    /// Remote-access write verdicts executed.
    pub remote_writes: u64,
    /// Remote requests served for other shards.
    pub remote_served: u64,
    /// Serialized context bytes shipped by migrations.
    pub context_bytes_out: u64,
    /// Guest admissions into the pool.
    pub guest_admits: u64,
    /// Guest evictions out of the pool.
    pub evictions: u64,
    /// Arrivals stalled on a full, pinned guest pool.
    pub stalls: u64,
    /// Stalled arrivals retried after an eviction.
    pub retries: u64,
    /// Tasks retired.
    pub retired: u64,
    /// Shard polls executed.
    pub polls: u64,
    /// Mailbox messages drained.
    pub msgs: u64,
    /// Worker steals that found a shard.
    pub steals: u64,
    /// Worker steal attempts (queue probes while empty-handed).
    pub steal_attempts: u64,
    /// Worker condvar parks.
    pub worker_parks: u64,
    /// Egress flushes (one `send_batch` write each) across peers.
    pub wire_flushes: u64,
    /// Frames written across peers.
    pub wire_frames: u64,
    /// Bytes written across peers.
    pub wire_bytes: u64,
    /// Trace events evicted from rings to stay within capacity.
    pub trace_dropped: u64,
    /// Current guest-pool occupancy summed over shards (max under
    /// merge — concurrent nodes, instantaneous value).
    pub guest_occupancy: u64,
    /// Highest guest-pool occupancy any single shard reached.
    pub guest_hwm: u64,
    /// Deepest egress queue any single peer link reached.
    pub egress_depth_hwm: u64,
    /// Current egress queue depth summed over peers (max under merge).
    pub egress_depth: u64,
    /// Total attributed network cost summed over the attribution
    /// matrix (the observed side of the placement scorecard).
    pub attrib_cost: u64,
    /// Matrix resolutions that spilled to the overflow cell (per-key
    /// breakdown degraded; totals exact).
    pub attrib_dropped: u64,
    /// Journey hops dumped into trace rings at task retirement.
    pub journey_hops: u64,
    /// Journey hops dropped by the per-envelope cap
    /// (`JOURNEY_CAP`-excess hops; counted, not recorded).
    pub journey_dropped: u64,
    /// Handoffs this node saw commit.
    pub handoff_commits: u64,
    /// Frozen-shard bytes shipped by handoffs (as source).
    pub handoff_frozen_bytes: u64,
    /// Frames replayed into re-homed shards (as destination).
    pub handoff_replayed: u64,
    /// Epoch-fenced frames bounced during handoffs.
    pub handoff_bounced: u64,
    /// Highest directory epoch observed (max under merge).
    pub dir_epoch: u64,
    /// End-to-end task latency (ns).
    pub task_latency_ns: HistSnapshot,
    /// Mailbox drain batch sizes (messages per poll).
    pub mailbox_batch: HistSnapshot,
    /// Per-flush wire write latency (ns), all peers.
    pub flush_ns: HistSnapshot,
    /// Cost-attribution rows, sorted by (thread, home); summed by key
    /// under merge.
    pub attrib: Vec<AttribEntry>,
    /// Handoff phase timelines, sorted by handoff id; merged per
    /// [`HandoffTrace::merge`] under merge.
    pub handoffs: Vec<HandoffTrace>,
}

impl Snapshot {
    /// Fold another node's snapshot in (see the struct docs for the
    /// per-field rule).
    pub fn merge(&mut self, o: &Snapshot) {
        self.node = self.node.min(o.node);
        self.nodes += o.nodes;
        self.seq = self.seq.max(o.seq);
        self.uptime_ms = self.uptime_ms.max(o.uptime_ms);
        self.arrivals += o.arrivals;
        self.migrations_in += o.migrations_in;
        self.migrations_out += o.migrations_out;
        self.remote_reads += o.remote_reads;
        self.remote_writes += o.remote_writes;
        self.remote_served += o.remote_served;
        self.context_bytes_out += o.context_bytes_out;
        self.guest_admits += o.guest_admits;
        self.evictions += o.evictions;
        self.stalls += o.stalls;
        self.retries += o.retries;
        self.retired += o.retired;
        self.polls += o.polls;
        self.msgs += o.msgs;
        self.steals += o.steals;
        self.steal_attempts += o.steal_attempts;
        self.worker_parks += o.worker_parks;
        self.wire_flushes += o.wire_flushes;
        self.wire_frames += o.wire_frames;
        self.wire_bytes += o.wire_bytes;
        self.trace_dropped += o.trace_dropped;
        self.guest_occupancy = self.guest_occupancy.max(o.guest_occupancy);
        self.guest_hwm = self.guest_hwm.max(o.guest_hwm);
        self.egress_depth_hwm = self.egress_depth_hwm.max(o.egress_depth_hwm);
        self.egress_depth = self.egress_depth.max(o.egress_depth);
        self.attrib_cost += o.attrib_cost;
        self.attrib_dropped += o.attrib_dropped;
        self.journey_hops += o.journey_hops;
        self.journey_dropped += o.journey_dropped;
        self.handoff_commits += o.handoff_commits;
        self.handoff_frozen_bytes += o.handoff_frozen_bytes;
        self.handoff_replayed += o.handoff_replayed;
        self.handoff_bounced += o.handoff_bounced;
        self.dir_epoch = self.dir_epoch.max(o.dir_epoch);
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

    fn fields(&self) -> [(&'static str, u64); 37] {
        [
            ("node", self.node),
            ("nodes", self.nodes),
            ("seq", self.seq),
            ("uptime_ms", self.uptime_ms),
            ("arrivals", self.arrivals),
            ("migrations_in", self.migrations_in),
            ("migrations_out", self.migrations_out),
            ("remote_reads", self.remote_reads),
            ("remote_writes", self.remote_writes),
            ("remote_served", self.remote_served),
            ("context_bytes_out", self.context_bytes_out),
            ("guest_admits", self.guest_admits),
            ("evictions", self.evictions),
            ("stalls", self.stalls),
            ("retries", self.retries),
            ("retired", self.retired),
            ("polls", self.polls),
            ("msgs", self.msgs),
            ("steals", self.steals),
            ("steal_attempts", self.steal_attempts),
            ("worker_parks", self.worker_parks),
            ("wire_flushes", self.wire_flushes),
            ("wire_frames", self.wire_frames),
            ("wire_bytes", self.wire_bytes),
            ("trace_dropped", self.trace_dropped),
            ("guest_occupancy", self.guest_occupancy),
            ("guest_hwm", self.guest_hwm),
            ("egress_depth_hwm", self.egress_depth_hwm),
            ("attrib_cost", self.attrib_cost),
            ("attrib_dropped", self.attrib_dropped),
            ("journey_hops", self.journey_hops),
            ("journey_dropped", self.journey_dropped),
            ("handoff_commits", self.handoff_commits),
            ("handoff_frozen_bytes", self.handoff_frozen_bytes),
            ("handoff_replayed", self.handoff_replayed),
            ("handoff_bounced", self.handoff_bounced),
            ("dir_epoch", self.dir_epoch),
        ]
    }

    /// One JSONL line for the exporter stream / flight recorder, with
    /// derived latency quantiles for direct consumption.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new().str("kind", "obs");
        for (k, v) in self.fields() {
            obj = obj.u64(k, v);
        }
        obj = obj.u64("egress_depth", self.egress_depth);
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
                    .u64("buffered", h.buffered)
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
            arrivals: 40,
            migrations_in: 12,
            migrations_out: 14,
            remote_reads: 5,
            remote_writes: 2,
            remote_served: 7,
            context_bytes_out: 900,
            guest_admits: 12,
            evictions: 4,
            stalls: 1,
            retries: 1,
            retired: 16,
            polls: 220,
            msgs: 300,
            steals: 9,
            steal_attempts: 30,
            worker_parks: 5,
            wire_flushes: 11,
            wire_frames: 44,
            wire_bytes: 9000,
            trace_dropped: 2,
            guest_occupancy: 3,
            guest_hwm: 4,
            egress_depth_hwm: 17,
            egress_depth: 2,
            attrib_cost: 140,
            attrib_dropped: 1,
            journey_hops: 20,
            journey_dropped: 2,
            handoff_commits: 1,
            handoff_frozen_bytes: 512,
            handoff_replayed: 3,
            handoff_bounced: 1,
            dir_epoch: node + 1,
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
            buffered: 2,
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
        assert_eq!(direct.retired, 32);
        assert_eq!(direct.guest_hwm, 4, "gauge is a max, not a sum");
        assert_eq!(direct.task_latency_ns.count, 8);
        assert_eq!(direct.attrib_cost, 280);
        assert_eq!(direct.dir_epoch, 2, "epoch is a max, not a sum");
        assert_eq!(direct.attrib.len(), 2, "attrib rows sum by key");
        assert_eq!(direct.attrib[0].counts, [4, 0, 2, 80, 200, 2, 0, 100]);
        assert_eq!(direct.handoffs.len(), 1, "handoff views merge by id");
        let h = &direct.handoffs[0];
        assert_eq!(h.prepare_ns, 20, "timestamps take the max");
        assert_eq!(h.buffered, 4, "frame counts sum");
        assert_eq!(h.from, 1);
    }

    #[test]
    fn json_line_is_one_line_and_nonempty() {
        let j = sample(0).to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with(r#"{"kind":"obs""#));
        assert!(j.contains(r#""task_latency_ns":{"count":4"#));
    }
}
