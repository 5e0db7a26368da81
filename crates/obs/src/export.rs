//! The periodic snapshot exporter: one background thread per runtime
//! that appends a [`crate::Snapshot`] JSONL line to the configured
//! file every `EM2_OBS_INTERVAL_MS`, plus a final line at shutdown.
//!
//! Each line is written with a single `write` call on a file opened in
//! append mode, so concurrent runtimes (the in-process cluster mode,
//! parallel tests) can safely share one stream path. The thread parks
//! on a condvar with a timeout — shutdown wakes it immediately, so a
//! short run never waits out its interval.

use crate::metrics::NodeObs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Handle to a running exporter; [`finish`](Exporter::finish) stops
/// the thread and writes the final snapshot line.
#[derive(Debug)]
pub struct Exporter {
    obs: Arc<NodeObs>,
    path: PathBuf,
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

fn append_line(path: &PathBuf, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    f.write_all(buf.as_bytes())
}

impl Exporter {
    /// Start an exporter for `obs` if its config asks for one: a
    /// periodic thread when `interval_ms > 0`, a final-snapshot-only
    /// exporter when only `export_path` is set, `None` when neither.
    pub fn start_if_configured(obs: &Arc<NodeObs>) -> Option<Exporter> {
        let cfg = &obs.cfg;
        if !cfg.enabled || (cfg.interval_ms == 0 && cfg.export_path.is_none()) {
            return None;
        }
        let path = cfg.resolved_export_path();
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = if cfg.interval_ms > 0 {
            let obs = Arc::clone(obs);
            let path = path.clone();
            let stop = Arc::clone(&stop);
            let interval = std::time::Duration::from_millis(cfg.interval_ms);
            Some(
                std::thread::Builder::new()
                    .name("em2-obs-export".into())
                    .spawn(move || {
                        let (lock, cv) = &*stop;
                        let mut stopped = lock.lock().expect("exporter stop lock");
                        // Check the flag before every wait, the first
                        // included: a `finish()` that took the lock
                        // before this thread did has already notified.
                        while !*stopped {
                            let (guard, timeout) = cv
                                .wait_timeout(stopped, interval)
                                .expect("exporter stop cv");
                            stopped = guard;
                            if !*stopped && timeout.timed_out() {
                                // Snapshot without the lock held? The
                                // lock only guards the stop flag and is
                                // never contended by recorders; holding
                                // it keeps the loop simple.
                                let _ = append_line(&path, &obs.snapshot_json());
                            }
                        }
                    })
                    .expect("spawn exporter"),
            )
        } else {
            None
        };
        Some(Exporter {
            obs: Arc::clone(obs),
            path,
            stop,
            thread,
        })
    }

    /// The stream path this exporter appends to.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }

    /// Stop the periodic thread (if any) and append the final
    /// snapshot line. I/O errors are swallowed: export is telemetry,
    /// never a reason to fail a run.
    pub fn finish(mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().expect("exporter stop lock") = true;
        cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = append_line(&self.path, &self.obs.snapshot_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsConfig;

    #[test]
    fn final_snapshot_is_written_and_periodic_thread_stops_fast() {
        let path = std::env::temp_dir().join(format!(
            "em2-obs-export-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut cfg = ObsConfig::on();
        cfg.interval_ms = 60_000; // would sleep a minute; finish() must not wait
        cfg.export_path = Some(path.clone());
        let obs = NodeObs::new(cfg, 2);
        for _ in 0..5 {
            obs.shard(0).task_latency_ns.record(1_000);
        }
        let start = std::time::Instant::now();
        let exp = Exporter::start_if_configured(&obs).expect("configured");
        exp.finish();
        assert!(
            start.elapsed().as_secs() < 10,
            "finish did not block on the interval"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 1, "final snapshot only");
        assert!(lines[0].contains(r#""retired":5"#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_or_unconfigured_means_no_exporter() {
        let obs = NodeObs::new(ObsConfig::on(), 1); // interval 0, no path
        assert!(Exporter::start_if_configured(&obs).is_none());
        let obs = NodeObs::new(ObsConfig::off(), 1);
        assert!(Exporter::start_if_configured(&obs).is_none());
    }
}
