//! Simulation reports: every number the paper's figures are built
//! from.

use em2_cache::CacheStats;
use em2_model::{Histogram, Summary};
use std::fmt;

/// Counters for every edge of the paper's access flow charts
/// (Figure 1 for EM², Figure 3 for EM²-RA).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// "Address cacheable in core A? yes → access memory and continue."
    pub local_accesses: u64,
    /// "no → migrate thread to home core" (includes migrations home).
    pub migrations: u64,
    /// "# threads exceeded? yes → migrate another thread back to its
    /// native core": evictions triggered by migration arrivals.
    pub evictions: u64,
    /// Arrivals that found every guest context pinned and had to retry
    /// (not a paper edge; a liveness diagnostic).
    pub stalled_arrivals: u64,
    /// EM²-RA only: "send remote request → return data (read)".
    pub remote_reads: u64,
    /// EM²-RA only: remote writes (ack returned).
    pub remote_writes: u64,
}

impl FlowCounts {
    /// All accesses that consulted memory (local + remote + post-migration).
    pub fn total_accesses(&self) -> u64 {
        self.local_accesses + self.migrations + self.remote_reads + self.remote_writes
    }

    /// Accumulate another counter set (e.g. per-shard counters from
    /// the `em2-rt` runtime). The exhaustive destructuring makes a
    /// future field a compile error here rather than a silently
    /// dropped counter.
    pub fn merge(&mut self, other: &FlowCounts) {
        let FlowCounts {
            local_accesses,
            migrations,
            evictions,
            stalled_arrivals,
            remote_reads,
            remote_writes,
        } = *other;
        self.local_accesses += local_accesses;
        self.migrations += migrations;
        self.evictions += evictions;
        self.stalled_arrivals += stalled_arrivals;
        self.remote_reads += remote_reads;
        self.remote_writes += remote_writes;
    }
}

/// Network traffic broken down by virtual-channel class, in flit-hops
/// (the paper's power-consumption concern is proportional to this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Migration subnetwork (guest-bound contexts).
    pub migration_flit_hops: u64,
    /// Eviction subnetwork (native-bound contexts).
    pub eviction_flit_hops: u64,
    /// Remote-access request subnetwork.
    pub ra_req_flit_hops: u64,
    /// Remote-access response subnetwork.
    pub ra_resp_flit_hops: u64,
}

impl TrafficBreakdown {
    /// Total on-chip traffic in flit-hops.
    pub fn total(&self) -> u64 {
        self.migration_flit_hops
            + self.eviction_flit_hops
            + self.ra_req_flit_hops
            + self.ra_resp_flit_hops
    }
}

/// The complete result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Decision-scheme name (`always-migrate` = pure EM²).
    pub scheme: String,
    /// Cycle at which the last thread finished (makespan).
    pub cycles: u64,
    /// Flow-chart edge counters (Figures 1 and 3).
    pub flow: FlowCounts,
    /// Run-length histogram of non-native *home* runs (Figure 2
    /// semantics; identical to the trace-level analysis and
    /// cross-checked against it in tests).
    pub run_lengths: Histogram,
    /// Context bits shipped by migrations (incl. evictions).
    pub context_bits_sent: u64,
    /// Traffic by virtual-network class.
    pub traffic: TrafficBreakdown,
    /// Per-access end-to-end memory latency (issue → data ready).
    pub access_latency: Summary,
    /// Migration one-way latencies.
    pub migration_latency: Summary,
    /// Pure network cycles spent on migrations and remote accesses
    /// (cache/DRAM latencies excluded) — the quantity the paper's §3
    /// dynamic program lower-bounds.
    pub network_cycles: u64,
    /// Aggregated cache statistics over all cores.
    pub caches: CacheStats,
    /// Peak guest-context occupancy over all cores.
    pub peak_guests: usize,
    /// Cycles threads spent blocked at barriers, summed.
    pub barrier_wait_cycles: u64,
    /// Cycles packets waited for link bandwidth under
    /// `Contention::Queued` (always 0 with contention off).
    pub queue_link_wait_cycles: u64,
    /// Cycles requests waited in home-core service queues under
    /// `Contention::Queued` (always 0 with contention off).
    pub queue_home_wait_cycles: u64,
    /// Invariant violations found by the online monitor (must be
    /// empty; kept in the report so tests can assert on it).
    pub violations: Vec<String>,
}

impl SimReport {
    /// Average memory access latency in cycles.
    pub fn amat(&self) -> f64 {
        self.access_latency.mean().unwrap_or(0.0)
    }

    /// Fraction of non-native accesses in run-length-1 runs
    /// (the paper's "about half" headline for OCEAN).
    pub fn single_access_fraction(&self) -> f64 {
        self.run_lengths.weighted_fraction_le(1)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{} / {}] {} cycles, AMAT {:.2}",
            self.workload,
            self.scheme,
            self.cycles,
            self.amat()
        )?;
        writeln!(
            f,
            "  flow: {} local, {} migrations, {} evictions, {} RA-read, {} RA-write",
            self.flow.local_accesses,
            self.flow.migrations,
            self.flow.evictions,
            self.flow.remote_reads,
            self.flow.remote_writes
        )?;
        writeln!(
            f,
            "  traffic: {} flit-hops (mig {}, evict {}, ra {}/{}), {} context bits",
            self.traffic.total(),
            self.traffic.migration_flit_hops,
            self.traffic.eviction_flit_hops,
            self.traffic.ra_req_flit_hops,
            self.traffic.ra_resp_flit_hops,
            self.context_bits_sent
        )?;
        write!(
            f,
            "  caches: {} | single-access fraction {:.3}",
            self.caches,
            self.single_access_fraction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_totals() {
        let f = FlowCounts {
            local_accesses: 10,
            migrations: 4,
            evictions: 1,
            stalled_arrivals: 0,
            remote_reads: 3,
            remote_writes: 3,
        };
        assert_eq!(f.total_accesses(), 20);
    }

    #[test]
    fn empty_flow_fractions() {
        let f = FlowCounts::default();
        assert_eq!(f.total_accesses(), 0);
    }

    #[test]
    fn traffic_total() {
        let t = TrafficBreakdown {
            migration_flit_hops: 1,
            eviction_flit_hops: 2,
            ra_req_flit_hops: 3,
            ra_resp_flit_hops: 4,
        };
        assert_eq!(t.total(), 10);
    }
}
