//! The run-length monitor (Figure-2 semantics).
//!
//! A *run* is a maximal sequence of consecutive accesses by one thread
//! whose lines share a home core. The monitor bins completed non-native
//! runs into a histogram and reports every completed run (native ones
//! included) to an observer — the EM² decision schemes learn from that
//! feedback; a machine without migration simply never calls it.

use em2_model::{CoreId, Histogram, ThreadId};

#[derive(Clone, Copy, Debug)]
struct Run {
    core: Option<CoreId>,
    len: u64,
}

/// Per-thread home-run tracking with a shared histogram.
#[derive(Debug)]
pub struct RunMonitor {
    hist: Histogram,
    runs: Vec<Run>,
    natives: Vec<CoreId>,
}

impl RunMonitor {
    /// A monitor for threads with the given native cores, binning run
    /// lengths into `bins` histogram buckets.
    pub fn new(natives: Vec<CoreId>, bins: u64) -> Self {
        RunMonitor {
            hist: Histogram::new(bins),
            runs: vec![Run { core: None, len: 0 }; natives.len()],
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
        let t = thread.index();
        match self.runs[t].core {
            Some(c) if c == home => self.runs[t].len += 1,
            Some(c) => {
                let len = self.runs[t].len;
                self.record_run(thread, c, len, observe);
                self.runs[t] = Run {
                    core: Some(home),
                    len: 1,
                };
            }
            None => {
                self.runs[t] = Run {
                    core: Some(home),
                    len: 1,
                };
            }
        }
    }

    /// Record one *completed* run: bin it (if non-native) and report
    /// it to `observe` — the run-end half of [`RunMonitor::track`].
    fn record_run(
        &mut self,
        thread: ThreadId,
        core: CoreId,
        len: u64,
        observe: &mut dyn FnMut(ThreadId, CoreId, u64),
    ) {
        if core != self.natives[thread.index()] {
            self.hist.record(len);
        }
        observe(thread, core, len);
    }

    /// Flush `thread`'s final run at trace completion.
    pub fn flush(&mut self, thread: ThreadId, observe: &mut dyn FnMut(ThreadId, CoreId, u64)) {
        let t = thread.index();
        if let Some(c) = self.runs[t].core.take() {
            let len = self.runs[t].len;
            if len > 0 {
                self.record_run(thread, c, len, observe);
            }
            self.runs[t].len = 0;
        }
    }

    /// The accumulated run-length histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
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
