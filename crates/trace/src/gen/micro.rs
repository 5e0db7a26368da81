//! Microbenchmark generators: the small, analyzable patterns used by
//! the paper's flow experiments (E1/E3) and throughout the test suite.

use crate::addr::AddressSpace;
use crate::gen::native_core;
use crate::trace::{ThreadTrace, Workload};
use em2_model::DetRng;

/// Element size used by all microbenchmarks (one 64-bit word).
const ELEM: u64 = 8;

// Every generator knows how many records follow its init phase and
// reserves exactly that many once the init phase has run: a trace
// grown by doubling leaves a ladder of freed blocks behind. After the
// init phase, not at construction: sizing the empty traces up front
// measured +1.1 MiB of peak RSS (33.6 → 34.7) on the benchmark's two
// `uds2-*` workloads, in every run; reserving here measured none.

/// Every thread loops over a private array: no sharing, no migrations
/// expected under any sane placement.
pub fn private(threads: usize, cores: usize, accesses_per_thread: usize) -> Workload {
    let mut space = AddressSpace::with_page_alignment();
    let regions = space.alloc_per_thread("priv", threads, 512 * ELEM);
    let mut traces: Vec<ThreadTrace> = (0..threads)
        .map(|t| ThreadTrace::new(t.into(), native_core(t, cores)))
        .collect();
    for (t, tr) in traces.iter_mut().enumerate() {
        // init claims the region under first-touch
        for i in 0..512 {
            tr.write(1, regions[t].elem(i, ELEM));
        }
        tr.barrier();
        tr.records.reserve_exact(accesses_per_thread);
        for i in 0..accesses_per_thread {
            let idx = (i % 512) as u64;
            if i % 4 == 3 {
                tr.write(1, regions[t].elem(idx, ELEM));
            } else {
                tr.read(1, regions[t].elem(idx, ELEM));
            }
        }
    }
    Workload::new("private", traces)
}

/// Uniform random accesses over a shared heap: the worst case for any
/// placement, the best case for remote access over migration.
pub fn uniform(
    threads: usize,
    cores: usize,
    accesses_per_thread: usize,
    shared_lines: usize,
    write_fraction: f64,
    seed: u64,
) -> Workload {
    let mut space = AddressSpace::with_page_alignment();
    let heap = space.alloc("heap", shared_lines as u64 * 64);
    let root = DetRng::new(seed);
    let mut traces: Vec<ThreadTrace> = (0..threads)
        .map(|t| ThreadTrace::new(t.into(), native_core(t, cores)))
        .collect();
    // Init: stripe first touches across threads so placement spreads.
    for line in 0..shared_lines {
        let t = line % threads;
        traces[t].write(1, heap.elem(line as u64 * 8, ELEM));
    }
    for tr in traces.iter_mut() {
        tr.barrier();
    }
    for (t, tr) in traces.iter_mut().enumerate() {
        let mut rng = root.fork(t as u64);
        tr.records.reserve_exact(accesses_per_thread);
        for _ in 0..accesses_per_thread {
            let line = rng.below(shared_lines as u64);
            let addr = heap.elem(line * 8, ELEM);
            if rng.chance(write_fraction) {
                tr.write(1, addr);
            } else {
                tr.read(1, addr);
            }
        }
    }
    Workload::new("uniform", traces)
}

/// Pairs of threads ping-pong a shared word: thread `2i` first-touches
/// it, then both alternate read-modify-writes `rounds` times, touching
/// a private accumulator after each turn (as real lock handoff code
/// does). Under EM² the odd thread migrates to the cell's home for
/// every turn (run length 2: read + write) and migrates straight back
/// for its private access — the paper's "usually back to the core from
/// which the first migration originated" pattern.
pub fn pingpong(pairs: usize, cores: usize, rounds: usize) -> Workload {
    let threads = pairs * 2;
    let mut space = AddressSpace::with_page_alignment();
    let cells = space.alloc_per_thread("cell", pairs, 64);
    let privs = space.alloc_per_thread("acc", threads, 64);
    let mut traces: Vec<ThreadTrace> = (0..threads)
        .map(|t| ThreadTrace::new(t.into(), native_core(t, cores)))
        .collect();
    for p in 0..pairs {
        traces[2 * p].write(1, cells[p].elem(0, ELEM));
    }
    for (t, tr) in traces.iter_mut().enumerate() {
        tr.write(1, privs[t].elem(0, ELEM));
        tr.barrier();
        // Even threads take the even rounds, three accesses a turn.
        let turns = if t % 2 == 0 {
            rounds.div_ceil(2)
        } else {
            rounds / 2
        };
        tr.records.reserve_exact(3 * turns);
    }
    for round in 0..rounds {
        for p in 0..pairs {
            let who = if round % 2 == 0 { 2 * p } else { 2 * p + 1 };
            let tr = &mut traces[who];
            tr.read(2, cells[p].elem(0, ELEM));
            tr.write(2, cells[p].elem(0, ELEM));
            tr.write(2, privs[who].elem(0, ELEM));
        }
        // Round boundaries are synchronized (models lock handoff).
        for tr in traces.iter_mut() {
            tr.barrier();
        }
    }
    Workload::new("pingpong", traces)
}

/// Ring producer-consumer: thread `t` fills its buffer (local), thread
/// `t+1 mod n` drains it (a remote run of `buf_elems` at `t`'s core).
pub fn producer_consumer(
    threads: usize,
    cores: usize,
    buf_elems: usize,
    rounds: usize,
) -> Workload {
    assert!(threads >= 2);
    let mut space = AddressSpace::with_page_alignment();
    let bufs = space.alloc_per_thread("buf", threads, buf_elems as u64 * ELEM);
    let mut traces: Vec<ThreadTrace> = (0..threads)
        .map(|t| ThreadTrace::new(t.into(), native_core(t, cores)))
        .collect();
    for (t, tr) in traces.iter_mut().enumerate() {
        for i in 0..buf_elems as u64 {
            tr.write(1, bufs[t].elem(i, ELEM));
        }
        tr.barrier();
        tr.records.reserve_exact(2 * rounds * buf_elems);
    }
    for _ in 0..rounds {
        // produce locally
        for (t, tr) in traces.iter_mut().enumerate() {
            for i in 0..buf_elems as u64 {
                tr.write(1, bufs[t].elem(i, ELEM));
            }
            tr.barrier();
        }
        // consume the left neighbour's buffer (remote run)
        for t in 0..threads {
            let src = (t + threads - 1) % threads;
            let tr = &mut traces[t];
            for i in 0..buf_elems as u64 {
                tr.read(1, bufs[src].elem(i, ELEM));
            }
            tr.barrier();
        }
    }
    Workload::new("producer_consumer", traces)
}

/// Hotspot: a fraction of every thread's accesses hit a region
/// first-touched by thread 0; the rest are private. Stresses guest
/// context contention at one core.
pub fn hotspot(
    threads: usize,
    cores: usize,
    accesses_per_thread: usize,
    hot_fraction: f64,
    seed: u64,
) -> Workload {
    let mut space = AddressSpace::with_page_alignment();
    let hot = space.alloc("hot", 256 * ELEM);
    let privs = space.alloc_per_thread("priv", threads, 256 * ELEM);
    let root = DetRng::new(seed);
    let mut traces: Vec<ThreadTrace> = (0..threads)
        .map(|t| ThreadTrace::new(t.into(), native_core(t, cores)))
        .collect();
    for i in 0..256 {
        traces[0].write(1, hot.elem(i, ELEM));
    }
    for (t, tr) in traces.iter_mut().enumerate() {
        for i in 0..256 {
            tr.write(1, privs[t].elem(i, ELEM));
        }
        tr.barrier();
    }
    for (t, tr) in traces.iter_mut().enumerate() {
        let mut rng = root.fork(t as u64);
        tr.records.reserve_exact(accesses_per_thread);
        for _ in 0..accesses_per_thread {
            if rng.chance(hot_fraction) {
                let i = rng.below(256);
                if rng.chance(0.25) {
                    tr.write(1, hot.elem(i, ELEM));
                } else {
                    tr.read(1, hot.elem(i, ELEM));
                }
            } else {
                let i = rng.below(256);
                tr.read(1, privs[t].elem(i, ELEM));
            }
        }
    }
    Workload::new("hotspot", traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reservations are exact: past its init phase no generator
    /// grows a trace by doubling, and none reserves more than it fills.
    #[test]
    fn traces_end_at_exactly_their_capacity() {
        for w in [
            private(3, 4, 101),
            uniform(3, 4, 200, 64, 0.3, 1),
            pingpong(2, 4, 9),
            pingpong(2, 4, 10),
            producer_consumer(3, 3, 8, 2),
            hotspot(4, 4, 600, 0.5, 3),
        ] {
            for t in &w.threads {
                assert_eq!(
                    t.records.capacity(),
                    t.records.len(),
                    "{} {:?}",
                    w.name,
                    t.thread
                );
            }
        }
    }

    #[test]
    fn private_has_no_sharing() {
        let w = private(4, 4, 100);
        let s = w.stats(64);
        assert_eq!(s.shared_lines, 0, "{s:?}");
        assert_eq!(w.total_accesses(), 4 * (512 + 100));
    }

    #[test]
    fn uniform_shares_heavily() {
        let w = uniform(4, 4, 200, 64, 0.3, 1);
        let s = w.stats(64);
        assert!(s.sharing_fraction() > 0.5, "{s:?}");
    }

    #[test]
    fn uniform_deterministic() {
        assert_eq!(uniform(2, 2, 50, 16, 0.5, 9), uniform(2, 2, 50, 16, 0.5, 9));
        assert_ne!(
            uniform(2, 2, 50, 16, 0.5, 9),
            uniform(2, 2, 50, 16, 0.5, 10)
        );
    }

    #[test]
    fn pingpong_structure() {
        let w = pingpong(2, 4, 10);
        assert_eq!(w.num_threads(), 4);
        // Per pair: 1 cell init + 2 private inits + 10 rounds × 3 accesses.
        let total: usize = w.total_accesses();
        assert_eq!(total, 2 * (3 + 10 * 3));
    }

    #[test]
    fn producer_consumer_runs() {
        let w = producer_consumer(3, 3, 8, 2);
        assert_eq!(w.num_threads(), 3);
        let s = w.stats(64);
        assert!(s.shared_lines > 0);
    }

    #[test]
    fn hotspot_touches_hot_region() {
        let w = hotspot(4, 4, 100, 0.5, 3);
        let s = w.stats(64);
        assert!(s.sharing_fraction() > 0.05, "{s:?}");
    }
}
