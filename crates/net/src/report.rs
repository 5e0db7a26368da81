//! Flat, summable counter summaries — how separate processes compare
//! notes.
//!
//! A cluster's correctness claim is *"the per-node counters sum
//! bit-equal to the single-process run"*. The processes can't share an
//! address space, so each writes a [`CounterSummary`] to a file (plain
//! `key=value` text — greppable in CI artifacts) and the parent reads,
//! sums, and compares. Every field that participates in the agreement
//! claim is here, including the full run-length histogram (bins,
//! overflow, exact weighted total, max), so "bit-equal" means the
//! whole Figure-2 artifact, not a summary statistic.

use crate::node::{NetReport, WireSnapshot};
use em2_model::Fold;
use em2_rt::RtReport;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One node's (or one run's) counters in summable form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSummary {
    /// Local accesses executed.
    pub local_accesses: u64,
    /// Migrations executed.
    pub migrations: u64,
    /// Guest evictions.
    pub evictions: u64,
    /// Stall-retried guest arrivals.
    pub stalled_arrivals: u64,
    /// Remote-access reads served.
    pub remote_reads: u64,
    /// Remote-access writes served.
    pub remote_writes: u64,
    /// Serialized context bytes charged to migrations/evictions.
    pub context_bytes_sent: u64,
    /// Distinct heap words materialized.
    pub heap_words: u64,
    /// Run-length histogram bins `0..=max_bin` (occurrence counts).
    pub hist_bins: Vec<u64>,
    /// Overflow-bin occurrences.
    pub hist_overflow: u64,
    /// Exact sum of all run lengths.
    pub hist_total_value: u128,
    /// Total runs binned.
    pub hist_total_count: u64,
    /// Longest run seen.
    pub hist_max_seen: u64,
    /// Wire telemetry (zero for single-process runs).
    pub wire: WireSnapshot,
    /// Wall-clock seconds (max, not sum, under [`CounterSummary::merge`]).
    pub wall_s: f64,
}

/// Where one on-disk field lives, and how it behaves under
/// [`CounterSummary::merge`].
#[derive(PartialEq)]
enum Field<'a> {
    /// A count or an extremum, folding by its rule.
    Word(&'a mut u64, Fold),
    /// The run-length bins: sum bin-wise.
    Bins(&'a mut Vec<u64>),
    /// The exact run-length total: sums.
    Wide(&'a mut u128),
    /// Wall-clock seconds: takes the max.
    Secs(&'a mut f64),
}

impl CounterSummary {
    /// Summary of a plain runtime report (no wire traffic).
    pub fn from_rt(r: &RtReport) -> Self {
        let h = &r.run_lengths;
        CounterSummary {
            local_accesses: r.flow.local_accesses,
            migrations: r.flow.migrations,
            evictions: r.flow.evictions,
            stalled_arrivals: r.flow.stalled_arrivals,
            remote_reads: r.flow.remote_reads,
            remote_writes: r.flow.remote_writes,
            context_bytes_sent: r.context_bytes_sent,
            heap_words: r.heap_words,
            hist_bins: (0..=h.max_bin()).map(|v| h.count(v)).collect(),
            hist_overflow: h.overflow(),
            hist_total_value: h.total_value(),
            hist_total_count: h.total_count(),
            hist_max_seen: h.max_seen(),
            wire: WireSnapshot::default(),
            wall_s: r.wall.as_secs_f64(),
        }
    }

    /// Summary of one cluster node's report.
    pub fn from_net(r: &NetReport) -> Self {
        CounterSummary {
            wire: r.wire,
            ..CounterSummary::from_rt(&r.rt)
        }
    }

    /// Every on-disk field, in file order: its `key=value` key, where it
    /// lives, and whether it is a deterministic machine-semantic counter
    /// — the one table behind `render`, `parse`, `merge` and
    /// `counters_equal`.
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>, bool)> {
        use Field::{Bins, Secs, Wide, Word};
        use Fold::{Max, Sum};
        let mut rows = vec![
            ("local_accesses", Word(&mut self.local_accesses, Sum), true),
            ("migrations", Word(&mut self.migrations, Sum), true),
            ("evictions", Word(&mut self.evictions, Sum), true),
            (
                "stalled_arrivals",
                Word(&mut self.stalled_arrivals, Sum),
                false,
            ),
            ("remote_reads", Word(&mut self.remote_reads, Sum), true),
            ("remote_writes", Word(&mut self.remote_writes, Sum), true),
            (
                "context_bytes_sent",
                Word(&mut self.context_bytes_sent, Sum),
                true,
            ),
            ("heap_words", Word(&mut self.heap_words, Sum), true),
            ("hist_bins", Bins(&mut self.hist_bins), true),
            ("hist_overflow", Word(&mut self.hist_overflow, Sum), true),
            ("hist_total_value", Wide(&mut self.hist_total_value), true),
            (
                "hist_total_count",
                Word(&mut self.hist_total_count, Sum),
                true,
            ),
            ("hist_max_seen", Word(&mut self.hist_max_seen, Max), true),
        ];
        // The wire ledger's rows, merged the way its own table says.
        let wire = self.wire.fields().into_iter();
        rows.extend(wire.map(|(k, n, fold)| (k, Word(n, fold), false)));
        rows.push(("wall_s", Secs(&mut self.wall_s), false));
        rows
    }

    /// Accumulate another node's summary: counters add, histograms add
    /// bin-wise, `hist_max_seen` takes the max (matching
    /// `Histogram::merge`), the wire ledger merges as
    /// `WireSnapshot::fields` says, wall takes the max (nodes run
    /// concurrently).
    pub fn merge(&mut self, o: &CounterSummary) {
        assert_eq!(
            self.hist_bins.len(),
            o.hist_bins.len(),
            "histogram bin layouts differ"
        );
        // The table hands out `&mut`; reading `o` through it takes a copy.
        let mut o = o.clone();
        for ((_, mine, _), (_, theirs, _)) in self.fields().into_iter().zip(o.fields()) {
            match (mine, theirs) {
                (Field::Word(a, fold), Field::Word(b, _)) => *a = fold.apply(*a, *b),
                (Field::Wide(a), Field::Wide(b)) => *a = Fold::Sum.apply(*a, *b),
                (Field::Secs(a), Field::Secs(b)) => *a = Fold::Max.apply(*a, *b),
                (Field::Bins(a), Field::Bins(b)) => {
                    for (a, b) in a.iter_mut().zip(b.iter()) {
                        *a += b;
                    }
                }
                _ => unreachable!("both sides walk the same table"),
            }
        }
    }

    /// Sum a set of node summaries (cluster totals).
    pub fn sum(parts: impl IntoIterator<Item = CounterSummary>) -> CounterSummary {
        let mut parts = parts.into_iter();
        let mut acc = parts.next().expect("at least one summary");
        for p in parts {
            acc.merge(&p);
        }
        acc
    }

    /// Total memory operations (local + migrated + remote).
    pub fn total_ops(&self) -> u64 {
        self.local_accesses + self.migrations + self.remote_reads + self.remote_writes
    }

    /// Whether every *deterministic machine-semantic* counter equals
    /// `other`'s — the agreement predicate. Excluded on purpose: wall
    /// clock and wire telemetry (host timing; a single-process run has
    /// no wire) and `stalled_arrivals`, which counts arrivals that
    /// found all guest slots pinned — a function of real-time
    /// interleaving, not of program order, so it is not partition-
    /// invariant even in the single-process runtime (the agreement
    /// configs are eviction-free, where it is structurally zero). The
    /// field table's third column says which fields these are.
    pub fn counters_equal(&self, other: &CounterSummary) -> bool {
        let (mut a, mut b) = (self.clone(), other.clone());
        let rows = a.fields().into_iter().zip(b.fields());
        rows.filter(|((_, _, det), _)| *det)
            .all(|((_, x, _), (_, y, _))| x == y)
    }

    /// Render as `key=value` lines.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, f, _) in self.clone().fields() {
            let _ = match f {
                Field::Word(v, _) => writeln!(s, "{k}={v}"),
                Field::Wide(v) => writeln!(s, "{k}={v}"),
                Field::Secs(v) => writeln!(s, "{k}={v:.9}"),
                Field::Bins(bins) => {
                    let bins: Vec<String> = bins.iter().map(|b| b.to_string()).collect();
                    writeln!(s, "{k}={}", bins.join(","))
                }
            };
        }
        s
    }

    /// Parse [`CounterSummary::render`] output: every key exactly once
    /// (a truncated file must not read as zeros, nor a repeated key
    /// overwrite silently), in any order.
    pub fn parse(text: &str) -> Result<CounterSummary, String> {
        let mut out = CounterSummary::default();
        let mut fields = out.fields();
        let mut seen = vec![false; fields.len()];
        fn num<T: std::str::FromStr>(v: &str, what: &str, line: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {what} in {line:?}"))
        }
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {line:?}"))?;
            let i = fields
                .iter()
                .position(|(key, _, _)| *key == k)
                .ok_or_else(|| format!("unknown key {k:?}"))?;
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("duplicate key {k:?}"));
            }
            match &mut fields[i].1 {
                Field::Word(f, _) => **f = num(v, "u64", line)?,
                Field::Wide(f) => **f = num(v, "u128", line)?,
                Field::Secs(f) => **f = num(v, "f64", line)?,
                Field::Bins(f) => {
                    **f = v
                        .split(',')
                        .map(|b| b.parse::<u64>().map_err(|_| format!("bad bin {b:?}")))
                        .collect::<Result<_, _>>()?
                }
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(format!("missing key {:?}", fields[i].0));
        }
        Ok(out)
    }

    /// Write the rendering to a file (atomically enough for a
    /// parent/child handoff: write to `.tmp`, then rename).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.render())?;
        std::fs::rename(&tmp, path)
    }

    /// Read a summary written by [`CounterSummary::write_to`].
    pub fn read_from(path: &Path) -> io::Result<CounterSummary> {
        let text = std::fs::read_to_string(path)?;
        CounterSummary::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CounterSummary {
        CounterSummary {
            local_accesses: 10,
            migrations: 3,
            evictions: 1,
            stalled_arrivals: 0,
            remote_reads: 4,
            remote_writes: 5,
            context_bytes_sent: 72,
            heap_words: 9,
            hist_bins: vec![0, 2, 1],
            hist_overflow: 1,
            hist_total_value: 99,
            hist_total_count: 4,
            hist_max_seen: 80,
            wire: WireSnapshot {
                frames_tx: 7,
                bytes_tx: 700,
                frames_rx: 6,
                bytes_rx: 600,
                dupes_rx: 1,
                arrives_tx: 2,
                context_bytes_tx: 48,
                frames_tx_total: 9,
                bytes_tx_total: 720,
                flushes_tx: 3,
                egress_hwm: 5,
            },
            wall_s: 0.25,
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let s = sample();
        let text = s.render();
        assert_eq!(CounterSummary::parse(&text), Ok(s));
        // A child killed mid-write leaves a prefix; it must not parse as
        // a summary whose other counters are zero.
        let truncated = text.lines().next().expect("25 lines");
        let err = CounterSummary::parse(truncated).expect_err("24 keys missing");
        assert_eq!(err, r#"missing key "migrations""#);
        assert!(CounterSummary::parse("").is_err());
        // Nor may a repeated key overwrite the first.
        let err = CounterSummary::parse(&format!("{text}migrations=4\n"));
        assert_eq!(err, Err(r#"duplicate key "migrations""#.into()));
    }

    #[test]
    fn merge_sums_counters_and_maxes_extrema() {
        let a = sample();
        let mut b = sample();
        b.hist_max_seen = 200;
        b.wall_s = 0.1;
        let sum = CounterSummary::sum([a.clone(), b]);
        assert_eq!(sum.migrations, 6);
        assert_eq!(sum.hist_bins, vec![0, 4, 2]);
        assert_eq!(sum.hist_max_seen, 200);
        assert_eq!(sum.hist_total_value, 198);
        assert!((sum.wall_s - 0.25).abs() < 1e-12, "wall is a max");
        assert_eq!(sum.wire.frames_tx, 14);
        assert_eq!(sum.total_ops(), 2 * a.total_ops());
    }

    #[test]
    fn counters_equal_ignores_wall_and_wire() {
        let a = sample();
        let mut b = sample();
        b.wall_s = 99.0;
        b.wire.frames_tx = 0;
        assert!(a.counters_equal(&b));
        b.migrations += 1;
        assert!(!a.counters_equal(&b));
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join(format!(
            "em2-net-summary-{}-{:?}.txt",
            std::process::id(),
            std::thread::current().id()
        ));
        sample().write_to(&path).expect("write");
        assert_eq!(CounterSummary::read_from(&path).expect("read"), sample());
        let _ = std::fs::remove_file(path);
    }
}
