//! The multiplexed work-stealing executor.
//!
//! `W` worker threads cooperatively run `S ≫ W` shard state machines.
//! Each shard's mailbox carries, under the queue's own lock, the
//! shard's `awake` flag (`crate::mpsc`); the send that finds it clear
//! sets it and pushes the shard's id onto a per-worker run queue (home
//! queue = `shard % W`, for affinity). A worker pops its own queue
//! front, steals from other queues' backs when empty, and **parks on a
//! condvar** when nothing is runnable anywhere — there are no spin
//! loops: every poll is provoked by a message or a requeue, and an idle
//! runtime performs zero polls (the regression test in
//! `crates/rt/tests/executor.rs` pins this).
//!
//! A shard that blocks on a remote reply or a barrier parks its
//! *continuation* (the envelope sits in `awaiting`/`parked` inside the
//! shard core); the worker moves on to the next shard. This is what
//! lets S = 1024 shards run on a 1-CPU host without standing up 1024
//! OS threads.
//!
//! A shard's wake-up is a function of call order under its mailbox
//! lock (`run_shard`). A *worker's* wake-up is the one atomic handshake
//! left here: a parking worker increments `sleepers` and re-checks
//! `pending` *after* that increment (both SeqCst, under the sleep
//! mutex); a scheduler increments `pending` *before* loading
//! `sleepers`. In any sequentially-consistent interleaving, either the
//! scheduler sees the sleeper (and notifies under the mutex) or the
//! sleeper sees the pending work (and never waits) — lost wakeups are
//! impossible.

use crate::shard::Shared;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Scheduler state of the multiplexed executor.
pub(crate) struct Sched {
    workers: usize,
    /// Per-worker run queues of shard ids. Sharded locks: a queue is
    /// touched by its owner (front) and by stealers (back).
    runqs: Vec<Mutex<VecDeque<usize>>>,
    /// Shards currently queued across all run queues (sleep gate).
    pending: AtomicUsize,
    /// Workers committed to sleeping (wakeup handshake; see module
    /// docs).
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    /// Telemetry: shards taken from another worker's queue.
    pub(crate) steals: AtomicU64,
    /// Telemetry: times a worker went to sleep.
    pub(crate) parks: AtomicU64,
}

impl Sched {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers > 0);
        Sched {
            workers,
            runqs: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Enqueue a shard (its mailbox is already marked awake) and wake a
    /// worker if any is sleeping.
    pub(crate) fn schedule(&self, shard: usize) {
        {
            let mut q = self.runqs[shard % self.workers].lock().expect("run queue");
            q.push_back(shard);
            // Increment while still holding the queue lock: a pop (and
            // its decrement) requires this lock, so every decrement is
            // preceded by its matching increment and `pending` can
            // never underflow — an underflowed (huge) `pending` would
            // turn park() into a busy-spin.
            self.pending.fetch_add(1, Ordering::SeqCst);
        }
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep_lock.lock().expect("sleep lock");
            self.sleep_cv.notify_one();
        }
    }

    /// Wake every sleeping worker (shutdown).
    pub(crate) fn wake_all(&self) {
        drop(self.sleep_lock.lock());
        self.sleep_cv.notify_all();
    }

    /// Next shard for worker `w`: own queue first (FIFO), then steal
    /// from the other queues' backs.
    fn next(&self, w: usize) -> Option<usize> {
        {
            let mut q = self.runqs[w].lock().expect("run queue");
            if let Some(s) = q.pop_front() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(s);
            }
        }
        for i in 1..self.workers {
            let mut q = self.runqs[(w + i) % self.workers]
                .lock()
                .expect("run queue");
            if let Some(s) = q.pop_back() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(s);
            }
        }
        None
    }

    /// Park until scheduled work exists or shutdown is flagged. May
    /// wake spuriously; the caller's loop re-scans.
    fn park(&self, shared: &Shared) {
        let guard = self.sleep_lock.lock().expect("sleep lock");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.pending.load(Ordering::SeqCst) > 0 || shared.shutdown.load(Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        drop(self.sleep_cv.wait(guard).expect("sleep cv"));
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Body of one executor worker thread.
pub(crate) fn worker_loop(shared: &Shared, w: usize) {
    let sched = &shared.sched;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match sched.next(w) {
            Some(shard) => run_shard(shared, shard),
            None => sched.park(shared),
        }
    }
}

/// Poll one shard, then — the core lock released — settle its
/// scheduling flag under the mailbox lock: requeue while it has
/// runnable tasks or a message is waiting (one that raced in mid-poll
/// is seen here, because its push and this `rest` take the same lock),
/// otherwise mark it idle, re-arming the send path.
fn run_shard(shared: &Shared, shard: usize) {
    let more = {
        let mut core = shared.cores[shard].lock().expect("shard core");
        core.poll(shared)
    };
    if shared.mailboxes[shard].rest(more) && !shared.shutdown.load(Ordering::Acquire) {
        shared.sched.schedule(shard);
    }
}
