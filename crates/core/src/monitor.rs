//! Online invariant monitoring.
//!
//! The paper's §2 correctness argument — each address is only ever
//! accessed at its home core, so sequential consistency is trivial —
//! is only as good as the machine's adherence to it. The monitor
//! watches every simulated step and records violations of:
//!
//! * **access-at-home**: a memory access must execute at the home core
//!   of its address;
//! * **single residence**: a thread is resident at exactly one core at
//!   any time (or in flight);
//! * **guest capacity**: a core never holds more guests than it has
//!   guest contexts;
//! * **program order**: each thread's accesses complete in trace order
//!   at non-decreasing times;
//! * **home serialization**: accesses to a line are totally ordered at
//!   its home (distinct completion order is recorded per line and must
//!   be time-monotone) — this is the observable from which sequential
//!   consistency follows.
//!
//! The monitor is always on and sits on the simulators' per-access
//! path, so its tables index rather than hash: per-thread state is a
//! `Vec` indexed by the dense [`ThreadId`], grown when a thread is
//! first seen, and the one sparse key — the line — goes through a
//! [`WordMap`] (the simulator computed it from a trace address; see
//! DESIGN.md §6 for the trust boundary).

use em2_model::{Addr, CoreId, ThreadId, WordMap};

/// What the monitor remembers about one thread.
#[derive(Clone, Copy, Debug, Default)]
struct ThreadSeen {
    /// Where the thread currently resides (`None` = in flight/done).
    residence: Option<CoreId>,
    /// Index and completion time of its last completed access.
    last: Option<(usize, u64)>,
}

/// Online invariant checker driven by the simulator.
#[derive(Debug, Default)]
pub struct Monitor {
    /// Indexed by [`ThreadId`]; grown on demand.
    threads: Vec<ThreadSeen>,
    /// Last serialized access time per line's home (line id → time).
    line_serial: WordMap<u64, u64>,
    violations: Vec<String>,
}

impl Monitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    fn seen(&mut self, thread: ThreadId) -> &mut ThreadSeen {
        let i = thread.index();
        if i >= self.threads.len() {
            self.threads.resize(i + 1, ThreadSeen::default());
        }
        &mut self.threads[i]
    }

    /// Record that a thread became resident at `core`.
    pub fn on_arrive(&mut self, thread: ThreadId, core: CoreId) {
        if let Some(prev) = self.seen(thread).residence.replace(core) {
            self.violations.push(format!(
                "{thread:?} arrived at {core:?} while still resident at {prev:?}"
            ));
        }
    }

    /// Record that a thread left its core (migration or eviction).
    pub fn on_depart(&mut self, thread: ThreadId, core: CoreId) {
        match self.seen(thread).residence.take() {
            Some(c) if c == core => {}
            Some(c) => self.violations.push(format!(
                "{thread:?} departed {core:?} but was resident at {c:?}"
            )),
            None => self
                .violations
                .push(format!("{thread:?} departed {core:?} but was not resident")),
        }
    }

    /// Record guest occupancy after a change.
    pub fn on_guest_count(&mut self, core: CoreId, guests: usize, capacity: usize) {
        if guests > capacity {
            self.violations.push(format!(
                "{core:?} holds {guests} guests but has only {capacity} contexts"
            ));
        }
    }

    /// Record a completed memory access.
    ///
    /// `at` is the core where the access executed, `home` the address's
    /// home, `remote` whether it was served by a remote-access round
    /// trip (in which case `at` is the *requesting* core and the data
    /// was still touched at `home`). `serviced` is the cycle the home
    /// cache processed the access (≤ `completed`, which additionally
    /// includes the return path for remote accesses).
    #[allow(clippy::too_many_arguments)]
    pub fn on_access(
        &mut self,
        thread: ThreadId,
        index: usize,
        addr: Addr,
        line: u64,
        at: CoreId,
        home: CoreId,
        remote: bool,
        serviced: u64,
        completed: u64,
    ) {
        if !remote && at != home {
            self.violations.push(format!(
                "{thread:?} accessed {addr:?} at {at:?} but its home is {home:?}"
            ));
        }
        // Program order.
        match self.seen(thread).last.replace((index, completed)) {
            Some((prev_idx, prev_t)) => {
                if index != prev_idx + 1 {
                    self.violations.push(format!(
                        "{thread:?} completed access #{index} after #{prev_idx} (order broken)"
                    ));
                }
                if completed < prev_t {
                    self.violations.push(format!(
                        "{thread:?} access #{index} completed at {completed} before previous at {prev_t}"
                    ));
                }
            }
            None if index != 0 => self
                .violations
                .push(format!("{thread:?} first completed access is #{index}")),
            None => {}
        }
        if serviced > completed {
            self.violations.push(format!(
                "{thread:?} access #{index} serviced at {serviced} after completing at {completed}"
            ));
        }
        // Home serialization: the home cache touches each line in
        // non-decreasing service order (single home ⇒ total order).
        // A regression here means an access mutated a home cache out
        // of simulated-time order.
        let t = self.line_serial.entry(line).or_insert(0);
        if serviced < *t {
            self.violations.push(format!(
                "line {line:#x} touched at {serviced} after being touched at {t} (serialization)"
            ));
        } else {
            *t = serviced;
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Drain the violations into an owned list.
    pub fn into_violations(self) -> Vec<String> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_has_no_violations() {
        let mut m = Monitor::new();
        m.on_arrive(ThreadId(0), CoreId(0));
        m.on_access(
            ThreadId(0),
            0,
            Addr(0x40),
            1,
            CoreId(0),
            CoreId(0),
            false,
            10,
            10,
        );
        m.on_access(
            ThreadId(0),
            1,
            Addr(0x44),
            1,
            CoreId(0),
            CoreId(0),
            false,
            12,
            12,
        );
        m.on_depart(ThreadId(0), CoreId(0));
        m.on_arrive(ThreadId(0), CoreId(1));
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    #[test]
    fn detects_access_away_from_home() {
        let mut m = Monitor::new();
        m.on_access(
            ThreadId(0),
            0,
            Addr(0x40),
            1,
            CoreId(2),
            CoreId(3),
            false,
            5,
            5,
        );
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("home"));
    }

    #[test]
    fn remote_access_is_exempt_from_at_home() {
        let mut m = Monitor::new();
        m.on_access(
            ThreadId(0),
            0,
            Addr(0x40),
            1,
            CoreId(2),
            CoreId(3),
            true,
            5,
            5,
        );
        assert!(m.violations().is_empty());
    }

    #[test]
    fn detects_double_residence() {
        let mut m = Monitor::new();
        m.on_arrive(ThreadId(0), CoreId(0));
        m.on_arrive(ThreadId(0), CoreId(1));
        assert!(m.violations()[0].contains("still resident"));
    }

    #[test]
    fn detects_wrong_departure() {
        let mut m = Monitor::new();
        m.on_depart(ThreadId(9), CoreId(0));
        assert!(m.violations()[0].contains("not resident"));
    }

    #[test]
    fn detects_capacity_overflow() {
        let mut m = Monitor::new();
        m.on_guest_count(CoreId(1), 3, 2);
        assert!(m.violations()[0].contains("contexts"));
    }

    #[test]
    fn detects_program_order_violation() {
        let mut m = Monitor::new();
        m.on_access(
            ThreadId(0),
            0,
            Addr(0),
            0,
            CoreId(0),
            CoreId(0),
            false,
            10,
            10,
        );
        m.on_access(
            ThreadId(0),
            2,
            Addr(4),
            0,
            CoreId(0),
            CoreId(0),
            false,
            11,
            11,
        );
        assert!(m.violations().iter().any(|v| v.contains("order")));
    }

    #[test]
    fn detects_time_regression() {
        let mut m = Monitor::new();
        m.on_access(
            ThreadId(0),
            0,
            Addr(0),
            0,
            CoreId(0),
            CoreId(0),
            false,
            10,
            10,
        );
        m.on_access(
            ThreadId(0),
            1,
            Addr(4),
            0,
            CoreId(0),
            CoreId(0),
            false,
            5,
            5,
        );
        assert!(m.violations().iter().any(|v| v.contains("before previous")));
    }

    /// A monitor whose per-thread table has already grown: a clean
    /// access by `ThreadId(1000)`, first seen with nothing before it.
    fn grown() -> Monitor {
        let mut m = Monitor::new();
        m.on_arrive(ThreadId(1000), CoreId(1));
        local(&mut m, ThreadId(1000), 0, 7, 10);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        assert_eq!(m.threads.len(), 1001);
        m
    }

    /// A local access at core 1 to `line`, serviced and completed at `t`.
    fn local(m: &mut Monitor, thread: ThreadId, index: usize, line: u64, t: u64) {
        let (at, home) = (CoreId(1), CoreId(1));
        m.on_access(thread, index, Addr(line * 64), line, at, home, false, t, t);
    }

    #[test]
    fn first_seen_thread_grows_the_tables() {
        let mut m = grown();
        // Threads below the new high-water mark start unseen, not
        // resident at some default core.
        m.on_depart(ThreadId(999), CoreId(0));
        assert!(m.violations()[0].contains("not resident"));
        // And one above it grows the table again.
        m.on_arrive(ThreadId(2000), CoreId(0));
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.threads.len(), 2001);
    }

    #[test]
    fn access_at_home_fires_after_growth() {
        let mut m = grown();
        let (at, home) = (CoreId(2), CoreId(3));
        m.on_access(ThreadId(1000), 1, Addr(0x40), 1, at, home, false, 11, 11);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("home"));
    }

    #[test]
    fn single_residence_fires_after_growth() {
        let mut m = grown();
        m.on_arrive(ThreadId(1000), CoreId(2));
        assert!(m.violations()[0].contains("still resident at C1"));
        m.on_depart(ThreadId(1000), CoreId(1));
        assert!(m.violations()[1].contains("was resident at C2"));
    }

    #[test]
    fn guest_capacity_fires_after_growth() {
        let mut m = grown();
        m.on_guest_count(CoreId(1), 3, 2);
        assert!(m.violations()[0].contains("contexts"));
    }

    #[test]
    fn program_order_fires_after_growth() {
        let mut m = grown();
        local(&mut m, ThreadId(1000), 2, 8, 11);
        assert!(m.violations()[0].contains("#2 after #0 (order broken)"));
        local(&mut m, ThreadId(1000), 3, 9, 5);
        assert!(m.violations()[1].contains("completed at 5 before previous at 11"));
        local(&mut m, ThreadId(500), 4, 10, 20);
        assert!(m.violations()[2].contains("T500 first completed access is #4"));
        assert_eq!(m.violations().len(), 3);
    }

    #[test]
    fn home_serialization_fires_after_growth() {
        let mut m = grown();
        // Another thread touches thread 1000's line earlier in
        // simulated time than it was last serviced.
        local(&mut m, ThreadId(3), 0, 7, 9);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("line 0x7 touched at 9 after being touched at 10"));
    }
}
