//! Experiment runner: regenerates every figure/table of the paper.
//!
//! ```text
//! experiments [all|e1|e2|...|e14] [--quick] [--chart] [--serial]
//!             [--threads N]
//! ```
//!
//! * `--quick` runs the 16-core CI scale instead of the paper's
//!   64-core scale;
//! * `--chart` additionally renders the Figure-2 histogram as an ASCII
//!   bar chart;
//! * `--serial` forces one sweep worker (baseline for speedup and
//!   determinism comparisons); `--threads N` pins the worker count.
//!
//! The last line printed is `tables_digest: fnv1a:…`, the determinism
//! fingerprint of the rendered tables (identical across `--serial` and
//! `--threads N`). Performance is measured by `benchmark/`, not here.

use em2_bench::experiments as ex;
use em2_bench::par;
use em2_bench::workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    const FLAGS: [&str; 4] = ["--quick", "--chart", "--serial", "--threads"];
    let mut expect_value = false;
    for a in &args {
        if expect_value {
            expect_value = false;
            continue;
        }
        if a.starts_with("--") {
            if !FLAGS.contains(&a.as_str()) {
                eprintln!(
                    "error: unknown flag {a:?} (expected one of: {})",
                    FLAGS.join(", ")
                );
                std::process::exit(2);
            }
            expect_value = *a == "--threads";
        }
    }
    let quick = flag("--quick");
    let chart = flag("--chart");
    if flag("--serial") {
        par::set_threads(1);
    } else if let Some(v) = value_of("--threads") {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => par::set_threads(n),
            _ => {
                eprintln!("error: --threads expects a positive integer, got {v:?}");
                std::process::exit(2);
            }
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };

    let mut skip_next = false;
    let which: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--threads" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .filter(|s| *s != "all")
        .collect();
    if let Some(bad) = which.iter().find(|id| !ex::ALL_IDS.contains(id)) {
        eprintln!(
            "error: unknown experiment {bad:?} (expected one of: {})",
            ex::ALL_IDS.join(", ")
        );
        std::process::exit(2);
    }

    println!(
        "EM2 reproduction experiments — scale: {:?} ({} cores), sweep workers: {}\n",
        scale,
        scale.cores(),
        par::threads()
    );

    let suite = ex::run_suite(scale, &which);

    for run in &suite.runs {
        for t in &run.tables {
            println!("{t}");
        }
        if run.id == "e2" && chart {
            if let Some(hist) = &suite.figure2 {
                println!("{}", hist.ascii_chart_weighted(1, 40, 50));
            }
        }
        println!();
    }

    println!("== suite timing ==");
    for run in &suite.runs {
        println!("  {:>3}: {:8.3} s", run.id, run.wall.as_secs_f64());
    }
    println!(
        "  total wall-clock {:.3} s over {} experiments ({} sweep workers)",
        suite.wall.as_secs_f64(),
        suite.runs.len(),
        suite.threads
    );

    println!(
        "tables_digest: {}",
        em2_bench::perf::tables_digest(suite.tables())
    );
}
