//! The run-length monitor (Figure-2 semantics).
//!
//! A *run* is a maximal sequence of consecutive accesses by one thread
//! whose lines share a home core. The monitor bins completed non-native
//! runs into a histogram and reports every completed run (native ones
//! included) to an observer — the EM² decision schemes learn from that
//! feedback; a machine without migration simply never calls it.

use em2_model::{CoreId, Histogram, ThreadId};

/// The Figure-2 run rule, for [`RunMonitor`] and the runtime alike: an
/// access homed at `home` extends a thread's in-progress run `(home,
/// length)` or starts a new one, and `None` (the thread finished) ends
/// it. Returns the run this ended, binned in `hist` unless it ran at
/// the thread's `native` core.
#[inline]
pub fn step(
    run: &mut Option<(CoreId, u64)>,
    home: Option<CoreId>,
    native: CoreId,
    hist: &mut Histogram,
) -> Option<(CoreId, u64)> {
    match run {
        Some((c, len)) if Some(*c) == home => {
            *len += 1;
            None
        }
        _ => {
            let ended = std::mem::replace(run, home.map(|h| (h, 1)));
            if let Some((c, len)) = ended {
                if c != native {
                    hist.record(len);
                }
            }
            ended
        }
    }
}

/// Per-thread home-run tracking with a shared histogram.
#[derive(Debug)]
pub struct RunMonitor {
    hist: Histogram,
    runs: Vec<Option<(CoreId, u64)>>,
    natives: Vec<CoreId>,
}

impl RunMonitor {
    /// A monitor for threads with the given native cores, binning run
    /// lengths into `bins` histogram buckets.
    pub fn new(natives: Vec<CoreId>, bins: u64) -> Self {
        RunMonitor {
            hist: Histogram::new(bins),
            runs: vec![None; natives.len()],
            natives,
        }
    }

    /// Record an access by `thread` to a line homed at `home`. When a
    /// run ends, its length is binned (if non-native) and passed to
    /// `observe` — native runs included, since a scheme that never
    /// learns their lengths strands threads remote-accessing their own
    /// data.
    pub fn track(
        &mut self,
        thread: ThreadId,
        home: CoreId,
        observe: &mut dyn FnMut(ThreadId, CoreId, u64),
    ) {
        self.step(thread, Some(home), observe);
    }

    /// Flush `thread`'s final run at trace completion.
    pub fn flush(&mut self, thread: ThreadId, observe: &mut dyn FnMut(ThreadId, CoreId, u64)) {
        self.step(thread, None, observe);
    }

    fn step(
        &mut self,
        thread: ThreadId,
        home: Option<CoreId>,
        observe: &mut dyn FnMut(ThreadId, CoreId, u64),
    ) {
        let t = thread.index();
        if let Some((c, len)) = step(&mut self.runs[t], home, self.natives[t], &mut self.hist) {
            observe(thread, c, len);
        }
    }

    /// Consume the monitor, yielding the histogram.
    pub fn into_histogram(self) -> Histogram {
        self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_split_on_home_change_and_skip_native_bins() {
        let mut m = RunMonitor::new(vec![CoreId(0)], 10);
        let mut seen: Vec<(CoreId, u64)> = Vec::new();
        let mut obs = |_t: ThreadId, c: CoreId, l: u64| seen.push((c, l));
        for home in [0u16, 0, 1, 1, 1, 0] {
            m.track(ThreadId(0), CoreId(home), &mut obs);
        }
        m.flush(ThreadId(0), &mut obs);
        // Runs: native 0 (len 2), 1 (len 3), native 0 (len 1).
        assert_eq!(
            seen,
            vec![(CoreId(0), 2), (CoreId(1), 3), (CoreId(0), 1)],
            "observer sees every run, native included"
        );
        let h = m.into_histogram();
        assert_eq!(h.count(3), 1, "only the non-native run is binned");
        assert_eq!(h.count(2) + h.count(1), 0);
    }
}
