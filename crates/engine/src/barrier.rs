//! Exact barrier synchronization.
//!
//! Both machine models use the same barrier semantics: barrier `k`
//! releases when every thread whose trace contains at least `k + 1`
//! barriers has arrived at it. Arrival happens when a thread's trace
//! cursor reaches the recorded barrier position; a thread may pass
//! several consecutive barriers at the same position in one step
//! (arrive, release everyone, immediately arrive at the next).

use em2_model::ThreadId;
use em2_trace::FlatWorkload;

/// Barrier bookkeeping: arrivals against the quotas, and parked threads
/// per barrier index.
#[derive(Debug)]
pub struct Barriers {
    /// Barrier positions per thread (copied from the flat workload).
    per_thread: Vec<Vec<usize>>,
    quotas: Quotas,
    waiting: Vec<Vec<ThreadId>>,
}

/// Arrivals against per-barrier quotas — the one barrier-opening rule,
/// held by [`Barriers`] and by the runtime's `em2_rt::RunLedger`.
#[derive(Debug)]
pub struct Quotas {
    quotas: Vec<usize>,
    arrived: Vec<usize>,
}

impl Quotas {
    /// Barrier `k` opens on exactly arrival number `quotas[k]`; a later
    /// arrival opens nothing.
    pub fn new(quotas: Vec<usize>) -> Self {
        Quotas {
            arrived: vec![0; quotas.len()],
            quotas,
        }
    }

    /// A task arrived at barrier `k`. `true`: this arrival opens it.
    ///
    /// # Panics
    /// Panics if `k` has no quota or a zero quota (which no arrival
    /// could meet — failing loudly beats parking the arriver forever).
    pub fn arrive(&mut self, k: usize) -> bool {
        assert!(k < self.quotas.len(), "barrier {k} has no quota");
        assert!(self.quotas[k] > 0, "barrier {k} has a zero quota");
        self.arrived[k] += 1;
        self.arrived[k] == self.quotas[k]
    }
}

/// Expected arrivals per barrier index, given each thread's barrier
/// count: barrier `k` expects one arrival from every thread with more
/// than `k` barriers. Shared by the simulator engine and the
/// executable runtime (`em2-rt`), which must agree exactly on release
/// quotas for their barrier semantics to match.
pub fn barrier_quotas(counts: impl Iterator<Item = usize>) -> Vec<usize> {
    let counts: Vec<usize> = counts.collect();
    let max_barriers = counts.iter().copied().max().unwrap_or(0);
    (0..max_barriers)
        .map(|k| counts.iter().filter(|&&c| c > k).count())
        .collect()
}

impl Barriers {
    /// Build the bookkeeping for a workload: barrier `k` expects one
    /// arrival from every thread with more than `k` barriers.
    pub fn new(flat: &FlatWorkload) -> Self {
        let quotas = barrier_quotas(flat.threads.iter().map(|t| t.barriers.len()));
        Barriers {
            per_thread: flat.threads.iter().map(|t| t.barriers.clone()).collect(),
            waiting: vec![Vec::new(); quotas.len()],
            quotas: Quotas::new(quotas),
        }
    }

    /// The barrier positions of `thread`'s trace.
    pub fn positions(&self, thread: ThreadId) -> &[usize] {
        &self.per_thread[thread.index()]
    }

    /// Register an arrival at barrier `k`. Returns `true` when this
    /// arrival completes the barrier (caller drains the waiters).
    pub(crate) fn arrive(&mut self, k: usize) -> bool {
        self.quotas.arrive(k)
    }

    /// Park `thread` at barrier `k`.
    pub(crate) fn park(&mut self, k: usize, thread: ThreadId) {
        self.waiting[k].push(thread);
    }

    /// Take the threads parked at barrier `k`, in park order.
    pub(crate) fn drain_waiters(&mut self, k: usize) -> Vec<ThreadId> {
        std::mem::take(&mut self.waiting[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_count_threads_with_enough_barriers() {
        assert_eq!(barrier_quotas([2usize, 1, 0].into_iter()), vec![2, 1]);
        assert_eq!(barrier_quotas(std::iter::empty()), Vec::<usize>::new());
    }
}
