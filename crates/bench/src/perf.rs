//! The determinism fingerprint of a suite run.
//!
//! [`tables_digest`] folds the rendered tables (host wall-clock cells
//! masked by [`render_masked`]) into one FNV-1a value. The
//! `experiments` binary prints it as its last line; it must be
//! identical across `--serial` and `--threads N`, and the E1–E9 quick
//! prefix is pinned in `tests/parallel_determinism.rs` — a correctness
//! drift shows up as a changed digest. Performance numbers are not
//! produced here: `benchmark/` is the repo's one measurement harness.

use crate::table::Table;

/// Render a table with its measured-timing cells replaced by `<t>`:
/// E5's DP wall-time columns and E11's/E12's runtime-throughput
/// columns are host wall-clock and legitimately differ run to run;
/// everything else must be bit-stable (E12's wire-byte columns
/// included — message counts are program-order functions). E13's
/// wire columns are the exception to the E12 rule: which frames
/// cross the wire there depends on *when* each live handoff commits
/// relative to the workload, so its `x-node ctxs` / `ctx bytes`
/// columns are masked along with its throughput — the asserted
/// invariant (bit-equal agreement, final epoch) lives in the
/// columns that stay.
pub fn render_masked(table: &Table) -> String {
    let is_e5 = table.title.starts_with("E5");
    let is_e13 = table.title.starts_with("E13");
    let is_throughput_last = table.title.starts_with("E11") || table.title.starts_with("E12");
    if !is_e5 && !is_throughput_last && !is_e13 {
        return table.to_string();
    }
    let mut masked = table.clone();
    for row in &mut masked.rows {
        if is_e5 {
            for cell in row.iter_mut().skip(2) {
                *cell = "<t>".to_string();
            }
        } else if is_e13 {
            // mode, scheme, handoffs, epoch, [x-node ctxs], [ctx
            // bytes], agreement, [rt Mops/s]
            for idx in [4usize, 5, 7] {
                if let Some(cell) = row.get_mut(idx) {
                    *cell = "<t>".to_string();
                }
            }
        } else if let Some(cell) = row.last_mut() {
            *cell = "<t>".to_string();
        }
    }
    masked.to_string()
}

/// FNV-1a digest over the masked rendering of a table sequence — the
/// determinism fingerprint `experiments` prints as `tables_digest:`.
pub fn tables_digest<'a>(tables: impl Iterator<Item = &'a Table>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tables {
        for b in render_masked(t).bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_masking_hides_only_timing_cells() {
        let mut t = Table::new("E5 / fake", &["N", "P", "t1", "t2", "t3"]);
        t.row(vec![
            "1,000".into(),
            "16".into(),
            "12.3".into(),
            "45.6".into(),
            "7.8".into(),
        ]);
        let m = render_masked(&t);
        assert!(m.contains("1,000") && m.contains("16"));
        assert!(!m.contains("12.3") && m.contains("<t>"));
        // Non-measured tables pass through untouched.
        let mut u = Table::new("E1 / fake", &["a", "b", "c"]);
        u.row(vec!["x".into(), "y".into(), "z".into()]);
        assert!(render_masked(&u).contains('z'));
    }

    #[test]
    fn e11_masking_hides_only_the_throughput_column() {
        let mut t = Table::new("E11 / fake", &["workload", "migrations", "rt Mops/s"]);
        t.row(vec!["ocean".into(), "1,234".into(), "0.87".into()]);
        let m = render_masked(&t);
        assert!(m.contains("ocean") && m.contains("1,234"));
        assert!(!m.contains("0.87") && m.contains("<t>"));
    }

    #[test]
    fn e12_masking_keeps_wire_bytes_hides_throughput() {
        let mut t = Table::new("E12 / fake", &["mode", "wire bytes", "rt Mops/s"]);
        t.row(vec!["loopback x2".into(), "48,128".into(), "1.25".into()]);
        let m = render_masked(&t);
        assert!(
            m.contains("48,128"),
            "wire bytes are deterministic and stay in the digest"
        );
        assert!(!m.contains("1.25") && m.contains("<t>"));
    }

    #[test]
    fn e13_masking_keeps_epoch_hides_wire_and_throughput() {
        let mut t = Table::new(
            "E13 / fake",
            &[
                "mode",
                "scheme",
                "handoffs",
                "epoch",
                "x-node ctxs",
                "ctx bytes",
                "agreement",
                "rt Mops/s",
            ],
        );
        t.row(vec![
            "loopback x2".into(),
            "em2".into(),
            "3".into(),
            "3".into(),
            "4,242".into(),
            "99,123".into(),
            "exact".into(),
            "1.25".into(),
        ]);
        let m = render_masked(&t);
        assert!(
            m.contains("exact") && m.contains("loopback x2") && m.contains('3'),
            "the asserted invariant columns stay in the digest"
        );
        assert!(
            !m.contains("4,242") && !m.contains("99,123") && !m.contains("1.25"),
            "handoff-timing-dependent cells are masked"
        );
        assert!(m.contains("<t>"));
    }
}
