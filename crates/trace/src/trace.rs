//! Per-thread traces and whole-program workloads.

use crate::record::MemRecord;
use em2_model::{AccessKind, Addr, CoreId, LineAddr, ThreadId};
use std::collections::HashMap;
use std::fmt;

/// The memory trace of one thread, together with its native core and
/// barrier positions.
///
/// SPLASH-2 kernels are phase programs separated by barriers; EM²'s
/// first-touch placement and the simulator's synchronization both need
/// to know where those phase boundaries fall. `barriers[k]` is the
/// record index at which the thread arrives at barrier `k` (i.e., the
/// first `barriers[k]` records belong to phases `0..=k`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The thread this trace belongs to.
    pub thread: ThreadId,
    /// The core the thread originated on (its native context's home).
    pub native: CoreId,
    /// The access stream, in program order.
    pub records: Vec<MemRecord>,
    /// Record indices of barrier arrivals, non-decreasing.
    pub barriers: Vec<usize>,
}

impl ThreadTrace {
    /// An empty trace for `thread` native to `native`.
    pub fn new(thread: ThreadId, native: CoreId) -> Self {
        ThreadTrace {
            thread,
            native,
            records: Vec::new(),
            barriers: Vec::new(),
        }
    }

    /// Append an access.
    #[inline]
    pub fn push(&mut self, rec: MemRecord) {
        self.records.push(rec);
    }

    /// Append a read.
    #[inline]
    pub fn read(&mut self, gap: u32, addr: Addr) {
        self.push(MemRecord::read(gap, addr));
    }

    /// Append a write.
    #[inline]
    pub fn write(&mut self, gap: u32, addr: Addr) {
        self.push(MemRecord::write(gap, addr));
    }

    /// Mark a barrier arrival at the current position.
    pub fn barrier(&mut self) {
        self.barriers.push(self.records.len());
    }

    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over the records of phase `p` (records between barrier
    /// `p-1` and barrier `p`; phase indices beyond the last barrier
    /// yield the tail).
    pub fn phase_records(&self, p: usize) -> &[MemRecord] {
        let start = if p == 0 {
            0
        } else {
            self.barriers
                .get(p - 1)
                .copied()
                .unwrap_or(self.records.len())
        };
        let end = self.barriers.get(p).copied().unwrap_or(self.records.len());
        &self.records[start..end]
    }

    /// Number of phases (barriers + trailing phase, if non-empty).
    pub fn phases(&self) -> usize {
        let trailing = self
            .barriers
            .last()
            .map_or(!self.records.is_empty(), |&b| b < self.records.len());
        self.barriers.len() + usize::from(trailing)
    }
}

/// A complete multi-threaded workload: one trace per thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Human-readable workload name (e.g. `"ocean"`).
    pub name: String,
    /// Per-thread traces, indexed by thread id.
    pub threads: Vec<ThreadTrace>,
}

impl Workload {
    /// Build a workload, checking thread ids are dense `0..n`.
    ///
    /// # Panics
    /// Panics if thread ids are not `0, 1, 2, …` in order.
    pub fn new(name: impl Into<String>, threads: Vec<ThreadTrace>) -> Self {
        for (i, t) in threads.iter().enumerate() {
            assert_eq!(t.thread.index(), i, "thread ids must be dense and ordered");
        }
        Workload {
            name: name.into(),
            threads,
        }
    }

    /// Number of threads.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of accesses across all threads.
    pub fn total_accesses(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }

    /// Maximum number of phases over all threads.
    pub fn phases(&self) -> usize {
        self.threads.iter().map(|t| t.phases()).max().unwrap_or(0)
    }

    /// Compute summary statistics.
    pub fn stats(&self, line_bytes: u64) -> WorkloadStats {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut line_touchers: HashMap<LineAddr, (u32, bool)> = HashMap::new();
        let mut min_addr = u64::MAX;
        let mut max_addr = 0u64;
        for t in &self.threads {
            for r in &t.records {
                match r.kind {
                    AccessKind::Read => reads += 1,
                    AccessKind::Write => writes += 1,
                }
                min_addr = min_addr.min(r.addr.0);
                max_addr = max_addr.max(r.addr.0);
                let line = r.addr.line(line_bytes);
                let entry = line_touchers.entry(line).or_insert((t.thread.0, false));
                if entry.0 != t.thread.0 {
                    entry.1 = true; // touched by more than one thread
                }
            }
        }
        let lines_touched = line_touchers.len() as u64;
        let shared_lines = line_touchers.values().filter(|(_, shared)| *shared).count() as u64;
        WorkloadStats {
            threads: self.num_threads(),
            accesses: reads + writes,
            reads,
            writes,
            lines_touched,
            shared_lines,
            footprint_bytes: if reads + writes == 0 {
                0
            } else {
                lines_touched * line_bytes
            },
            min_addr: if reads + writes == 0 { 0 } else { min_addr },
            max_addr,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} threads, {} accesses",
            self.name,
            self.num_threads(),
            self.total_accesses()
        )
    }
}

/// Summary statistics of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Number of threads.
    pub threads: usize,
    /// Total accesses.
    pub accesses: u64,
    /// Read count.
    pub reads: u64,
    /// Write count.
    pub writes: u64,
    /// Distinct cache lines touched.
    pub lines_touched: u64,
    /// Lines touched by more than one thread.
    pub shared_lines: u64,
    /// Footprint in bytes (lines touched × line size).
    pub footprint_bytes: u64,
    /// Lowest byte address touched.
    pub min_addr: u64,
    /// Highest byte address touched.
    pub max_addr: u64,
}

impl WorkloadStats {
    /// Fraction of touched lines shared between threads.
    pub fn sharing_fraction(&self) -> f64 {
        if self.lines_touched == 0 {
            0.0
        } else {
            self.shared_lines as f64 / self.lines_touched as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(thread: u32, native: u16, n: usize) -> ThreadTrace {
        let mut t = ThreadTrace::new(ThreadId(thread), CoreId(native));
        for i in 0..n {
            t.read(1, Addr(i as u64 * 4));
        }
        t
    }

    #[test]
    fn phases_and_barriers() {
        let mut t = ThreadTrace::new(ThreadId(0), CoreId(0));
        t.read(0, Addr(0));
        t.read(0, Addr(4));
        t.barrier();
        t.write(0, Addr(8));
        t.barrier();
        // trailing phase empty
        assert_eq!(t.phases(), 2);
        assert_eq!(t.phase_records(0).len(), 2);
        assert_eq!(t.phase_records(1).len(), 1);
        assert_eq!(t.phase_records(2).len(), 0);
    }

    #[test]
    fn trailing_phase_counts() {
        let mut t = ThreadTrace::new(ThreadId(0), CoreId(0));
        t.read(0, Addr(0));
        t.barrier();
        t.read(0, Addr(4)); // trailing phase
        assert_eq!(t.phases(), 2);
        assert_eq!(t.phase_records(1).len(), 1);
    }

    #[test]
    fn empty_trace() {
        let t = ThreadTrace::new(ThreadId(0), CoreId(0));
        assert!(t.is_empty());
        assert_eq!(t.phases(), 0);
    }

    #[test]
    fn workload_stats_counts() {
        let mut a = trace_with(0, 0, 4);
        a.write(0, Addr(0)); // write to shared-with-self line (not shared)
        let mut b = trace_with(1, 1, 0);
        b.read(0, Addr(0)); // shares line 0 with thread 0
        b.write(0, Addr(1 << 20));
        let w = Workload::new("t", vec![a, b]);
        let s = w.stats(64);
        assert_eq!(s.threads, 2);
        assert_eq!(s.accesses, 7);
        assert_eq!(s.reads, 5);
        assert_eq!(s.writes, 2);
        assert_eq!(s.shared_lines, 1);
        assert!(s.lines_touched >= 2);
        assert!(s.sharing_fraction() > 0.0);
        assert_eq!(s.max_addr, 1 << 20);
    }

    #[test]
    fn empty_workload_stats() {
        let w = Workload::new("empty", vec![ThreadTrace::new(ThreadId(0), CoreId(0))]);
        let s = w.stats(64);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.footprint_bytes, 0);
        assert_eq!(s.sharing_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_thread_ids_rejected() {
        let t = ThreadTrace::new(ThreadId(1), CoreId(0));
        let _ = Workload::new("bad", vec![t]);
    }
}
