//! # em2-obs
//!
//! The observability plane for the EM² runtime and cluster: a
//! lock-free metrics registry, span-style task-lifecycle tracing into
//! bounded per-shard ring buffers, a periodic JSONL snapshot exporter,
//! and a crash **flight recorder** that turns a `ClusterError` into an
//! explainable timeline.
//!
//! ## The two telemetry planes
//!
//! Everything in this crate lives on the **timing plane**: wall-clock
//! latencies, queue depths, event timestamps, cost attribution — and
//! only what the deterministic counters and the wire ledger do not
//! already hold (one count per fact; see [`metrics`]). None
//! of it may ever feed the **deterministic counter plane** — the
//! `FlowCounts`/`CounterSummary` values that the agreement experiments
//! (E11, E12) and the frozen E1–E9 digest compare bit-for-bit. The
//! runtime enforces the separation structurally: obs handles are
//! `Option`s threaded *alongside* the deterministic counters, they are
//! recorded into on the same code paths but never read back by them,
//! and every report/digest is computed exactly as if this crate did
//! not exist. The standing invariant (pinned by tests and CI) is that
//! a run with `EM2_OBS=1` is **byte-identical** in every pinned
//! artifact to a run with observability disabled.
//!
//! ## Cost model
//!
//! Disabled (the default), the runtime start-up resolves the plane to
//! `None` once — after that the per-event cost is a branch on that
//! `Option`; the global `EM2_OBS` gate itself is a branch on a relaxed
//! atomic (`env_enabled`). Enabled, every hot-path handle has a
//! single writer at a time (the runtime's ownership discipline), so
//! matrix cells and histogram buckets are plain relaxed load+store pairs
//! ([`SingleWriterCounter`]) rather than locked RMWs, trace events are
//! five relaxed stores into a lock-free ring slot, and event
//! timestamps come from a per-shard coarse clock refreshed once every
//! few polls instead of a `clock_gettime` per event.
//!
//! ## Modules
//!
//! * [`attrib`] — the per (scheme-thread, home-shard) cost-attribution
//!   matrix of the decision-plane telemetry, one per shard, five
//!   columns ([`attrib::Col`]; DESIGN.md §14);
//! * [`hist`] — log2-bucketed latency histograms with exact mergeable
//!   quantile *bounds*;
//! * [`trace`] — fixed-size lifecycle events and the bounded ring (a
//!   node's own ring holds its peer events, failures and live-handoff
//!   phases — each phase one event, on the node that performed it);
//! * [`metrics`] — the registry: [`NodeObs`] and its per-shard /
//!   per-peer handles, plus the flight recorder;
//! * [`snapshot`] — mergeable node-level [`Snapshot`]s and their
//!   JSONL form;
//! * [`export`] — the periodic snapshot exporter thread
//!   (`EM2_OBS_INTERVAL_MS`);
//! * [`json`] — the tiny hand-rolled JSON writer everything above
//!   shares (this crate has no external dependencies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attrib;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use attrib::{AttribCell, AttribTable};
pub use export::Exporter;
pub use hist::{HistSnapshot, LogHistogram};
pub use metrics::{NodeObs, PeerObs, ShardObs, SingleWriterCounter};
pub use snapshot::{AttribEntry, Snapshot};
pub use trace::{Event, EventKind};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};

/// Whether `EM2_OBS` enables the plane for this process. Parsed from
/// the environment once, then a branch on a relaxed atomic — the
/// documented disabled-mode cost of the whole crate.
fn env_enabled() -> bool {
    // 0 = not yet parsed, 1 = off, 2 = on.
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = em2_model::env::flag("EM2_OBS").unwrap_or(false);
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// How (and whether) a runtime stands up its observability plane.
///
/// `None` in `RtConfig::obs` means "resolve from the environment"
/// ([`ObsConfig::from_env`]); tests and benchmarks that must not
/// depend on ambient env vars pass [`ObsConfig::on`] /
/// [`ObsConfig::off`] explicitly.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Master switch. `false` resolves the whole plane to `None` at
    /// runtime start — zero allocation, zero per-event work.
    pub enabled: bool,
    /// Periodic snapshot cadence in milliseconds; `0` disables the
    /// exporter thread (a final snapshot is still written at shutdown
    /// when `export_path` is set).
    pub interval_ms: u64,
    /// Where snapshot JSONL lines are appended. `None` with the
    /// exporter active falls back to `em2-obs-<pid>.jsonl` in the
    /// working directory.
    pub export_path: Option<PathBuf>,
    /// Directory for flight-recorder post-mortem dumps (default: the
    /// system temp directory).
    pub flight_dir: Option<PathBuf>,
}

/// Per-shard trace ring capacity, in events (see DESIGN.md §12 for the
/// sizing argument).
pub(crate) const DEFAULT_RING: usize = 256;

/// Per-shard attribution-matrix capacity, in (thread, home) cells. 512
/// cover a few hundred distinct pairs per shard before per-key
/// resolution starts spilling to the overflow cell — totals stay exact
/// regardless (see [`attrib`] and DESIGN.md §14).
pub const DEFAULT_ATTRIB_SLOTS: usize = 512;

impl ObsConfig {
    /// Resolve the plane from `EM2_OBS` / `EM2_OBS_INTERVAL_MS` /
    /// `EM2_OBS_PATH` / `EM2_OBS_DIR`.
    pub fn from_env() -> Self {
        use em2_model::env;
        let enabled = env_enabled();
        ObsConfig {
            enabled,
            interval_ms: if enabled {
                env::parse("EM2_OBS_INTERVAL_MS").unwrap_or(1_000)
            } else {
                0
            },
            export_path: env::raw("EM2_OBS_PATH").map(PathBuf::from),
            flight_dir: env::raw("EM2_OBS_DIR").map(PathBuf::from),
        }
    }

    /// Force the plane on, independent of the environment: metrics and
    /// tracing active, no exporter thread, no snapshot file. Used by
    /// the overhead gate, the placement scorecard (E14), the repo
    /// benchmark and the flight-recorder tests.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..Self::off()
        }
    }

    /// Force the plane off, independent of the environment.
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            interval_ms: 0,
            export_path: None,
            flight_dir: None,
        }
    }

    /// The snapshot path the exporter will append to.
    pub fn resolved_export_path(&self) -> PathBuf {
        self.export_path
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("em2-obs-{}.jsonl", std::process::id())))
    }

    /// The directory flight-recorder dumps land in.
    pub fn resolved_flight_dir(&self) -> PathBuf {
        self.flight_dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_configs_do_not_touch_the_environment() {
        assert!(ObsConfig::on().enabled);
        assert!(!ObsConfig::off().enabled);
        assert_eq!(ObsConfig::on().interval_ms, 0);
    }
}
