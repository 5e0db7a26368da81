//! The determinism fingerprint of a suite run.
//!
//! [`tables_digest`] folds the rendered tables (declared host cells
//! masked by [`render_masked`]) into one FNV-1a value. The
//! `experiments` binary prints it as its last line; it must be
//! identical across `--serial` and `--threads N`, and a frozen prefix
//! is pinned in `tests/parallel_determinism.rs` — a correctness
//! drift shows up as a changed digest. Performance numbers are not
//! produced here: `benchmark/` is the repo's one measurement harness.

use crate::table::Table;
use em2_model::hash::{fnv1a, FNV1A_INIT};

/// Render a table with the cells of its declared host-dependent
/// columns ([`Table::host_columns`]) replaced by `<t>`. Which columns
/// those are is the building experiment's knowledge — wall-clock
/// readings, and counts that move with *when* something happened
/// rather than with program order — so nothing here names a table or
/// a column; everything left unmasked must be bit-stable.
pub fn render_masked(table: &Table) -> String {
    if table.host_cols.is_empty() {
        return table.to_string();
    }
    let mut masked = table.clone();
    for row in &mut masked.rows {
        for &col in &table.host_cols {
            row[col] = "<t>".to_string();
        }
    }
    masked.to_string()
}

/// FNV-1a digest over the masked rendering of a table sequence — the
/// determinism fingerprint `experiments` prints as `tables_digest:`.
pub fn tables_digest<'a>(tables: impl Iterator<Item = &'a Table>) -> String {
    let h = tables.fold(FNV1A_INIT, |h, t| fnv1a(h, render_masked(t).as_bytes()));
    format!("fnv1a:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table whose second and last columns are the host's.
    fn measured(headers: &[&str], row: &[&str]) -> Table {
        let mut t = Table::new("fake", headers);
        t.row(row.iter().map(|c| c.to_string()).collect());
        t.host_columns(&["ctx bytes", "Mops/s"]);
        t
    }

    #[test]
    fn masking_hides_the_declared_host_cells_and_nothing_else() {
        let t = measured(
            &["mode", "ctx bytes", "epoch", "agreement", "Mops/s"],
            &["loopback x2", "99,123", "3", "exact", "1.25"],
        );
        let m = render_masked(&t);
        assert!(!m.contains("99,123") && !m.contains("1.25"));
        assert_eq!(m.matches("<t>").count(), 2, "one mask per declared cell");
        for kept in ["loopback x2", "3", "exact", "ctx bytes", "Mops/s"] {
            assert!(m.contains(kept), "{kept:?} stays in the digest");
        }
        assert_eq!(m.lines().count(), t.to_string().lines().count());
        // A table that declares nothing passes through untouched.
        let mut u = Table::new("plain", &["a", "b"]);
        u.row(vec!["x".into(), "12.3".into()]);
        assert_eq!(render_masked(&u), u.to_string());
    }

    #[test]
    fn masking_follows_a_column_when_it_moves() {
        // The same declaration, with a column inserted before each
        // host column: the masks move with their headers, and the
        // newcomer (an asserted count) stays in the digest.
        let t = measured(
            &[
                "mode",
                "frames",
                "ctx bytes",
                "epoch",
                "agreement",
                "Mops/s",
            ],
            &["loopback x2", "4,242", "99,123", "3", "exact", "1.25"],
        );
        assert_eq!(t.host_cols, [2, 5]);
        let m = render_masked(&t);
        assert!(m.contains("4,242") && m.contains("exact") && m.contains('3'));
        assert!(!m.contains("99,123") && !m.contains("1.25"));
        assert_eq!(m.matches("<t>").count(), 2);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn declaring_a_column_the_table_lacks_is_a_bug() {
        Table::new("fake", &["a"]).host_columns(&["b"]);
    }
}
