//! The parallel sweep engine must be invisible in the output: running
//! the whole E1–E9 suite with one worker and with many workers must
//! produce byte-identical tables (E5's measured-timing cells excepted
//! — they are host wall-clock readings, nondeterministic even across
//! two serial runs, so they are masked before comparison while their
//! table *structure* is still compared exactly).

use em2_bench::experiments::{run_suite, select, EXPERIMENTS};
use em2_bench::par;
use em2_bench::perf::{render_masked, tables_digest};
use em2_bench::workloads::Scale;

#[test]
fn parallel_suite_is_byte_identical_to_serial() {
    let all = select(&[]).expect("the whole registry");
    par::set_threads(1);
    let serial = run_suite(Scale::Quick, &all);
    par::set_threads(8);
    let parallel = run_suite(Scale::Quick, &all);
    par::set_threads(0);

    assert_eq!(serial.runs.len(), EXPERIMENTS.len());
    assert_eq!(parallel.runs.len(), EXPERIMENTS.len());
    for ((s, p), e) in serial.runs.iter().zip(&parallel.runs).zip(&EXPERIMENTS) {
        assert_eq!((s.id, p.id), (e.id, e.id), "registry order");
        assert_eq!(
            render_masked(&s.table),
            render_masked(&p.table),
            "{}: serial and parallel tables diverged",
            s.id
        );
    }
    // The `tables_digest:` line `experiments` prints is the same
    // comparison, folded.
    assert_eq!(
        tables_digest(serial.tables()),
        tables_digest(parallel.tables()),
    );
    // And the Figure-2 histogram rides along bit-identically.
    assert!(serial.figure2().is_some());
    assert_eq!(serial.figure2(), parallel.figure2());

    // Golden regression pin for the engine port: the quick-scale E1–E9
    // digest was frozen *before* both simulators moved onto
    // `em2-engine`. With `Contention::Off` (every experiment's
    // default) the engine-backed machines must reproduce every report
    // byte — any timing, ordering, or accounting drift in the port
    // changes this fingerprint. The freeze covers the registry's first
    // nine rows, E1–E9; every later row postdates it, so the full-suite
    // digest `experiments` prints differs from this pinned prefix by
    // exactly their tables.
    let pre_refactor = "fnv1a:8fd102978e26f354";
    assert_eq!(
        tables_digest(serial.runs[..9].iter().map(|r| &r.table)),
        pre_refactor,
        "engine-backed simulators must be byte-identical to the \
         pre-refactor event loops with Contention::Off"
    );
}

/// The command line knows no ids of its own: an unknown one exits 2,
/// before any output, naming the registry's rows.
#[test]
fn an_unknown_experiment_exits_2_with_the_registry_ids() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e3", "e15", "--quick"])
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = String::from_utf8(out.stderr).expect("utf8");
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert!(err.contains("\"e15\""), "{err}");
    assert!(err.contains(&ids.join(", ")), "{err}");
}
