//! The one place `EM2_*` environment variables are read.
//!
//! Every knob the workspace exposes through the environment is
//! declared in [`KNOWN`] with a one-line description (DESIGN.md §12
//! renders the same list as the user-facing reference table). Reading
//! through [`raw`]/[`flag`]/[`parse`] instead of `std::env::var`
//! buys three things:
//!
//! * **typo detection** — the first read in a process scans the
//!   environment once and warns on any `EM2_*` variable that is not
//!   declared here (`EM2_RT_WORKRES=4` used to be silently ignored);
//! * **typed parsing with a loud failure mode** — a value that does
//!   not parse warns once and falls back to the default instead of
//!   being dropped on the floor;
//! * **a single registry** — new knobs are added in one place, and the
//!   debug assertion in [`raw`] keeps callers from inventing
//!   undeclared names.
//!
//! Reads are process-global and unsynchronized with writers, exactly
//! like `std::env::var`; tests that set variables for child processes
//! (the multiproc/chaos harnesses) pass them through `Command::env`
//! and are unaffected.

use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// One declared `EM2_*` environment variable.
#[derive(Debug, Clone, Copy)]
pub struct VarDef {
    /// The variable name (always `EM2_`-prefixed).
    pub name: &'static str,
    /// One-line description (rendered in DESIGN.md §12).
    pub doc: &'static str,
}

/// Every `EM2_*` variable the workspace reads, with its meaning.
pub const KNOWN: &[VarDef] = &[
    VarDef {
        name: "EM2_RT_WORKERS",
        doc: "worker-thread count for the multiplexed executor (default: host parallelism)",
    },
    VarDef {
        name: "EM2_OBS",
        doc: "1 = enable the observability plane (metrics registry, tracing, snapshot exporter)",
    },
    VarDef {
        name: "EM2_OBS_INTERVAL_MS",
        doc: "periodic obs snapshot cadence in ms (0 = final snapshot only; default 1000)",
    },
    VarDef {
        name: "EM2_OBS_PATH",
        doc: "obs snapshot JSONL path (appended; default em2-obs-<pid>.jsonl in the working dir)",
    },
    VarDef {
        name: "EM2_OBS_DIR",
        doc: "directory for flight-recorder post-mortem JSONL dumps (default: temp dir)",
    },
    VarDef {
        name: "EM2_CHAOS_SEEDS",
        doc: "number of seeded fault plans each chaos sweep test runs",
    },
    VarDef {
        name: "EM2_NET_MP_ROLE",
        doc: "internal: role of a multi-process test's child process",
    },
    VarDef {
        name: "EM2_NET_MP_DIR",
        doc: "internal: scratch directory of a multi-process test's child process",
    },
];

fn is_known(name: &str) -> bool {
    KNOWN.iter().any(|v| v.name == name)
}

/// Scan the process environment once and warn (to stderr) about any
/// `EM2_*` variable that is not declared in [`KNOWN`] — almost always
/// a typo'd knob that would otherwise be silently ignored.
pub fn warn_unknown_once() {
    static SCANNED: AtomicBool = AtomicBool::new(false);
    if SCANNED.swap(true, Ordering::Relaxed) {
        return;
    }
    for (key, _) in std::env::vars_os() {
        let Some(key) = key.to_str() else { continue };
        if key.starts_with("EM2_") && !is_known(key) {
            eprintln!(
                "warning: unknown environment variable {key} (no EM2_* knob by that name; \
                 see the EM2_* reference table in DESIGN.md §12)"
            );
        }
    }
}

/// Read a declared variable's raw value. Returns `None` when unset or
/// not valid UTF-8. The name must appear in [`KNOWN`] (debug-asserted).
pub fn raw(name: &'static str) -> Option<String> {
    debug_assert!(is_known(name), "undeclared EM2 env var {name:?}");
    warn_unknown_once();
    std::env::var(name).ok()
}

/// Read and parse a declared variable. Unset → `None`; set but
/// unparsable → warns once per read site would be noise, so it warns
/// every time (these reads happen once per process in practice) and
/// returns `None`.
pub fn parse<T: FromStr>(name: &'static str) -> Option<T> {
    let v = raw(name)?;
    match v.parse::<T>() {
        Ok(t) => Some(t),
        Err(_) => {
            eprintln!(
                "warning: {name}={v:?} does not parse as {}; ignoring it",
                std::any::type_name::<T>()
            );
            None
        }
    }
}

/// Read a declared boolean variable. `1`/`true`/`on`/`yes` → `true`,
/// `0`/`false`/`off`/`no` → `false` (case-insensitive); unset or
/// unrecognized → `None` (with a warning when set to garbage).
pub fn flag(name: &'static str) -> Option<bool> {
    let v = raw(name)?;
    match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => {
            eprintln!("warning: {name}={v:?} is not a boolean (expected 0/1); ignoring it");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_var_is_em2_prefixed_and_documented() {
        for v in KNOWN {
            assert!(
                v.name.starts_with("EM2_"),
                "{} lacks the EM2_ prefix",
                v.name
            );
            assert!(!v.doc.is_empty(), "{} has no doc line", v.name);
        }
        let names: std::collections::HashSet<_> = KNOWN.iter().map(|v| v.name).collect();
        assert_eq!(names.len(), KNOWN.len(), "duplicate declaration");
    }

    #[test]
    fn parse_and_flag_handle_unset_vars() {
        // EM2_OBS_PATH is never set by the test harness; KNOWN-declared
        // so the debug assertion passes.
        assert_eq!(parse::<u64>("EM2_OBS_PATH"), None);
        assert_eq!(flag("EM2_OBS_PATH"), None);
    }
}
