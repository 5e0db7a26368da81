//! The parallel sweep engine.
//!
//! The E1–E9 suite is a bag of independent (config, workload, scheme)
//! cells; this module fans them across OS threads with a
//! **deterministic ordered reduce**: results come back in input order
//! regardless of which worker computed what, so the assembled tables
//! are byte-identical to a serial run (the regression test in
//! `tests/parallel_determinism.rs` pins this).
//!
//! Scoped `std::thread` workers pull cell indices from an atomic
//! counter (work stealing without queues), which keeps long cells from
//! serializing behind short ones. The worker count defaults to the
//! host parallelism and can be forced with [`set_threads`] —
//! `--serial` in the experiments binary maps to `set_threads(1)`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker-count override; 0 = auto.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the sweep engine to `n` workers (0 restores auto-detection).
/// Applies to every subsequent [`par_map`] / [`run_cells`] call.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count the next sweep will use: the [`set_threads`]
/// override, else the host parallelism.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on the worker pool, returning results **in
/// input order**. Falls back to a plain serial map when one worker is
/// configured (or there is one item), making serial-vs-parallel
/// comparisons trivial.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads().min(items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    struct Slot<T, R> {
        item: Option<T>,
        result: Option<R>,
    }
    let slots: Vec<Mutex<Slot<T, R>>> = items
        .into_iter()
        .map(|t| {
            Mutex::new(Slot {
                item: Some(t),
                result: None,
            })
        })
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("slot lock")
                    .item
                    .take()
                    .expect("each index is claimed once");
                let result = f(item);
                slots[i].lock().expect("slot lock").result = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .result
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// A deferred unit of sweep work.
pub type Cell<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// Run heterogeneous cells on the pool, results in input order.
pub fn run_cells<R: Send>(cells: Vec<Cell<'_, R>>) -> Vec<R> {
    par_map(cells, |c| c())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_threads` is process-global; serialize the tests that poke it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_come_back_in_input_order() {
        let _g = TEST_LOCK.lock().expect("test lock");
        set_threads(4);
        let out = par_map((0..100u64).collect(), |i| i * i);
        set_threads(0);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _g = TEST_LOCK.lock().expect("test lock");
        let items: Vec<u64> = (0..64).collect();
        set_threads(1);
        let serial = par_map(items.clone(), |i| i.wrapping_mul(0x9e3779b9).rotate_left(7));
        set_threads(8);
        let parallel = par_map(items, |i| i.wrapping_mul(0x9e3779b9).rotate_left(7));
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cells_can_borrow_locals() {
        let _g = TEST_LOCK.lock().expect("test lock");
        let data = vec![1u64, 2, 3];
        let len = &data;
        let cells: Vec<Cell<'_, u64>> = data
            .iter()
            .map(|&x| Box::new(move || x + len.len() as u64) as Cell<'_, u64>)
            .collect();
        set_threads(2);
        let out = run_cells(cells);
        set_threads(0);
        assert_eq!(out, vec![4, 5, 6]);
    }

    #[test]
    fn thread_override_round_trips() {
        let _g = TEST_LOCK.lock().expect("test lock");
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
