//! The system's two hot queues — shard mailboxes (`shard.rs`) and the
//! per-peer egress lanes of `em2-net` — are this one type: a `Mutex`
//! around a FIFO **and its consumer's `awake` flag**.
//!
//! Sharing one lock makes the wake protocol a function of call order,
//! not of memory orderings. A `push` returns `true` exactly when it
//! turned an idle consumer awake; then, and only then, the caller wakes
//! it (schedules the shard / unparks the writer), after the lock is
//! released. The consumer moves a batch out with `take` and ends a
//! round with `rest`, which either finds a message that raced in (stay
//! awake: go again) or marks the consumer idle — under the lock the
//! racing push needs. `push_if` evaluates its admission test under the
//! lock too, which is how a shard freeze closes a mailbox: the
//! ownership flip runs in `locked`, so every push precedes it or
//! observes it. The lock is a leaf: nothing runs under it but the queue
//! operation itself and those two closures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct Inner<T> {
    items: VecDeque<T>,
    /// The consumer is scheduled, running, or has been told to be.
    awake: bool,
}

/// Unbounded multi-producer queue with its consumer's wake flag. One
/// consumer at a time: `awake` admits one poller; a peer has one writer.
pub struct MpscQueue<T> {
    inner: Mutex<Inner<T>>,
    /// `items.len()`, stored under the lock and read without it so
    /// `take` can skip an empty queue. A hint: a stale zero delays a
    /// message to the next `take`; only `rest`, locked, decides idleness.
    hint: AtomicUsize,
}

impl<T> MpscQueue<T> {
    /// An empty queue with an idle consumer.
    pub fn new() -> Self {
        MpscQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                awake: false,
            }),
            hint: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .expect("nothing under a queue lock can panic")
    }

    fn enqueue(&self, q: &mut Inner<T>, value: T) -> bool {
        q.items.push_back(value);
        self.enqueued(q)
    }

    /// The second half of every enqueue: publish the length, claim the
    /// wake flag.
    fn enqueued(&self, q: &mut Inner<T>) -> bool {
        self.hint.store(q.items.len(), Ordering::Relaxed);
        !std::mem::replace(&mut q.awake, true)
    }

    /// Enqueue. `true`: the consumer was idle and is now marked awake —
    /// the caller must wake it.
    pub fn push(&self, value: T) -> bool {
        self.enqueue(&mut self.lock(), value)
    }

    /// [`MpscQueue::push`] at the head: `value` is the next item a
    /// `take` or `pop` hands out, ahead of everything queued. The wake
    /// protocol is `push`'s.
    pub fn push_front(&self, value: T) -> bool {
        let mut q = self.lock();
        q.items.push_front(value);
        self.enqueued(&mut q)
    }

    /// [`MpscQueue::push`] if `admit()` — evaluated under the lock —
    /// holds; otherwise nothing is enqueued and the value comes back.
    pub fn push_if(&self, admit: impl FnOnce() -> bool, value: T) -> Result<bool, T> {
        let mut q = self.lock();
        if !admit() {
            return Err(value);
        }
        Ok(self.enqueue(&mut q, value))
    }

    /// Mark the consumer awake without a message; `true` if it was
    /// idle (the caller must wake it).
    pub fn wake(&self) -> bool {
        !std::mem::replace(&mut self.lock().awake, true)
    }

    /// Move up to `max` items, oldest first, onto the end of `out` under
    /// one lock. Returns how many the queue held: `min(that, max)` moved.
    pub fn take(&self, out: &mut Vec<T>, max: usize) -> usize {
        if self.hint.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let mut q = self.lock();
        let held = q.items.len();
        out.extend(q.items.drain(..held.min(max)));
        self.hint.store(q.items.len(), Ordering::Relaxed);
        held
    }

    /// Dequeue one item.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        let value = q.items.pop_front();
        self.hint.store(q.items.len(), Ordering::Relaxed);
        value
    }

    /// The consumer ends a round: stay awake if it has `more` to do or
    /// a message is waiting (`true` — go again), else become idle
    /// (`false` — the next push wakes it).
    pub fn rest(&self, more: bool) -> bool {
        let mut q = self.lock();
        q.awake = more || !q.items.is_empty();
        q.awake
    }

    /// Run `f` under the queue's lock: no push lands or is refused meanwhile.
    pub fn locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _q = self.lock();
        f()
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each block is one interleaving the lock reduces the protocol to.
    #[test]
    fn the_wake_protocol_is_a_script() {
        let q: MpscQueue<u32> = MpscQueue::new();
        let mut out = Vec::new();
        // Only the push that finds the consumer idle wakes it.
        assert!(q.push(1));
        assert!(!q.push(2));
        // A message races in mid-poll: `rest` finds it — go again.
        assert_eq!(q.take(&mut out, 8), 2);
        assert!(!q.push(3));
        assert!(q.rest(false));
        // Drained and nothing raced in: idle, so the next push wakes.
        assert_eq!(q.take(&mut out, 8), 1);
        assert!(!q.rest(false));
        assert!(q.push(4));
        assert_eq!(out, [1, 2, 3]);
        // Work of the consumer's own keeps it awake on an empty queue.
        assert_eq!(q.pop(), Some(4));
        assert!(q.rest(true));
        assert!(!q.push(5));
        assert_eq!(q.pop(), Some(5));
        assert!(!q.rest(false));
        // A wake without a message claims the flag once.
        assert!(q.wake());
        assert!(!q.wake());
        // A refused push enqueues nothing and hands the value back.
        assert_eq!(q.push_if(|| false, 6), Err(6));
        assert_eq!(q.push_if(|| true, 7), Ok(false));
        assert_eq!(q.len(), 1);
        // A queue-jumper wakes exactly like a push: not an awake
        // consumer, and an idle one once — and it leaves first.
        assert!(!q.push_front(8));
        assert_eq!((q.pop(), q.pop()), (Some(8), Some(7)));
        assert!(!q.rest(false));
        assert!(q.push_front(9));
        assert!(!q.push_front(10));
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(10), Some(9), None));
    }

    #[test]
    fn take_is_bounded_and_keeps_order_across_calls() {
        let q = MpscQueue::new();
        for i in 0..10u32 {
            q.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(q.take(&mut out, 4), 10);
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(q.take(&mut out, 4), 6);
        assert_eq!(q.take(&mut out, 4), 2);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(q.take(&mut out, 4), 0);
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn per_producer_order_survives_contention() {
        const PER: u64 = 10_000;
        let q = MpscQueue::new();
        std::thread::scope(|s| {
            for p in 0..4usize {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        q.push((p, i));
                    }
                });
            }
            let (mut next, mut batch) = ([0u64; 4], Vec::new());
            while next.iter().sum::<u64>() < 4 * PER {
                if q.take(&mut batch, 64) == 0 {
                    std::thread::yield_now();
                }
                for (p, i) in batch.drain(..) {
                    assert_eq!(next[p], i, "producer {p} reordered");
                    next[p] += 1;
                }
            }
        });
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drop_frees_unconsumed_items() {
        let q = MpscQueue::new();
        let marker = std::sync::Arc::new(());
        q.push(std::sync::Arc::clone(&marker));
        q.push(std::sync::Arc::clone(&marker));
        drop(q);
        assert_eq!(std::sync::Arc::strong_count(&marker), 1);
    }
}
