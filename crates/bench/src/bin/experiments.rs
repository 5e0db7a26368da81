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

/// A command-line error: say why, exit 2.
fn fail(why: String) -> ! {
    eprintln!("error: {why}");
    std::process::exit(2);
}

fn main() {
    const FLAGS: [&str; 4] = ["--quick", "--chart", "--serial", "--threads"];
    let (mut quick, mut chart, mut serial) = (false, false, false);
    let mut threads: Option<String> = None;
    let mut which: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--chart" => chart = true,
            "--serial" => serial = true,
            // The first `--threads` counts; each takes the next word.
            "--threads" => threads = threads.or(args.next()),
            "all" => {}
            flag if flag.starts_with("--") => fail(format!(
                "unknown flag {flag:?} (expected one of: {})",
                FLAGS.join(", ")
            )),
            _ => which.push(a),
        }
    }
    if serial {
        par::set_threads(1);
    } else if let Some(v) = threads {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => par::set_threads(n),
            _ => fail(format!("--threads expects a positive integer, got {v:?}")),
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let which: Vec<&str> = which.iter().map(String::as_str).collect();
    let selected = ex::select(&which).unwrap_or_else(|e| fail(e));

    println!(
        "EM2 reproduction experiments — scale: {:?} ({} cores), sweep workers: {}\n",
        scale,
        scale.cores(),
        par::threads()
    );

    let suite = ex::run_suite(scale, &selected);

    for run in &suite.runs {
        println!("{}", run.table);
        if let (true, Some(hist)) = (chart, &run.figure2) {
            println!("{}", hist.ascii_chart_weighted(1, 40, 50));
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
