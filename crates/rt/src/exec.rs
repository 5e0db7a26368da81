//! The multiplexed executor.
//!
//! `W` worker threads cooperatively run `S ≫ W` shard state machines.
//! Each shard's mailbox carries, under the queue's own lock, the
//! shard's `awake` flag (`crate::mpsc`); the send that finds it clear
//! sets it and pushes the shard's id onto the one run queue. A worker
//! pops the front, and **parks on a condvar** when the queue is empty —
//! there are no spin loops: every poll is provoked by a message or a
//! requeue, and an idle runtime performs zero polls (the regression
//! test in `crates/rt/tests/executor.rs` pins this).
//!
//! A shard that blocks on a remote reply or a barrier parks its
//! *continuation* (the envelope sits in `awaiting`/`parked` inside the
//! shard core); the worker moves on to the next shard. This is what
//! lets S = 1024 shards run on a 1-CPU host without standing up 1024
//! OS threads.
//!
//! A worker's wake-up, like a shard's (`run_shard`), is a function of
//! call order under one lock: the queue and the count of sleeping
//! workers share a mutex ([`RunQueue`]), so a push either finds the
//! sleeper counted — and notifies, once the guard has dropped — or the
//! sleeper's pop, under the same lock, finds the push.

use crate::shard::Shared;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the run queue's lock guards. Every transition is a method
/// here, so the wake protocol can be scripted without threads.
#[derive(Default)]
struct RunQueue {
    /// Shards marked awake and not yet picked up, oldest first.
    ready: VecDeque<usize>,
    /// Workers waiting on the condvar, or woken and not yet back under
    /// the lock.
    sleepers: usize,
    /// Telemetry: times a worker went to sleep.
    parks: u64,
}

/// A worker's next move, decided under the lock.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    Run(usize),
    /// Nothing to run: the worker is counted in `sleepers` and must
    /// wait on the condvar with this same guard.
    Sleep,
    Exit,
}

impl RunQueue {
    /// Enqueue. `true`: a worker sleeps — the caller must notify one.
    fn push(&mut self, shard: usize) -> bool {
        self.ready.push_back(shard);
        self.sleepers > 0
    }

    fn step(&mut self, shutdown: bool) -> Step {
        if shutdown {
            return Step::Exit;
        }
        match self.ready.pop_front() {
            Some(shard) => Step::Run(shard),
            None => {
                self.sleepers += 1;
                self.parks += 1;
                Step::Sleep
            }
        }
    }
}

/// Scheduler state of the multiplexed executor. The lock is a leaf:
/// nothing sends, blocks, wakes or takes another lock under it. Every
/// worker writes it, so it owns its cache lines.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Sched {
    queue: Mutex<RunQueue>,
    wake: Condvar,
}

impl Sched {
    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        self.queue
            .lock()
            .expect("nothing under the run queue's lock can panic")
    }

    /// Enqueue a shard (its mailbox is already marked awake) and wake a
    /// worker if any is sleeping.
    pub(crate) fn schedule(&self, shard: usize) {
        let sleeper = self.lock().push(shard);
        if sleeper {
            self.wake.notify_one();
        }
    }

    /// Wake every sleeping worker (shutdown; the caller has stored the
    /// flag). Taking the lock orders this after any worker that read
    /// the flag clear: it is waiting by now, so the notify reaches it.
    /// Runs on a panicking thread too, so a poisoned lock is tolerated.
    pub(crate) fn wake_all(&self) {
        drop(self.queue.lock());
        self.wake.notify_all();
    }

    /// Times a worker went to sleep.
    pub(crate) fn parks(&self) -> u64 {
        self.lock().parks
    }

    /// Next shard to poll, sleeping while there is none; `None` once
    /// shutdown is flagged.
    fn next(&self, shared: &Shared) -> Option<usize> {
        let mut q = self.lock();
        loop {
            match q.step(shared.shutdown.load(Ordering::Acquire)) {
                Step::Run(shard) => return Some(shard),
                Step::Exit => return None,
                Step::Sleep => {
                    q = self.wake.wait(q).expect("run queue");
                    q.sleepers -= 1;
                }
            }
        }
    }
}

/// Body of one executor worker thread.
pub(crate) fn worker_loop(shared: &Shared) {
    while let Some(shard) = shared.sched.next(shared) {
        run_shard(shared, shard);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Each block is one interleaving the lock reduces the protocol to.
    #[test]
    fn the_run_queue_is_a_script() {
        let mut q = RunQueue::default();
        // Nobody sleeps: a push must not notify, and a worker pops
        // before it would sleep.
        assert!(!q.push(7));
        assert!(!q.push(8));
        assert_eq!(q.step(false), Step::Run(7));
        assert_eq!(q.step(false), Step::Run(8));
        // Empty: the worker is counted before its guard drops, so the
        // push that follows finds it and must notify.
        assert_eq!(q.step(false), Step::Sleep);
        assert_eq!((q.sleepers, q.parks), (1, 1));
        assert!(q.push(9));
        // Woken, back under the lock: uncounted, and the shard is there.
        q.sleepers -= 1;
        assert_eq!(q.step(false), Step::Run(9));
        assert!(!q.push(10));
        // Shutdown seen under the lock never sleeps, work or no work.
        assert_eq!(q.step(true), Step::Exit);
        assert_eq!(q.step(false), Step::Run(10));
        assert_eq!(q.step(true), Step::Exit);
        assert_eq!((q.sleepers, q.parks), (0, 1));
    }
}
