//! The repo benchmark: five single-core-pinned, host-normalised
//! workloads over the EM² stack, every layer timed from outside through
//! its public functions. See `README.md` for the protocol and for why
//! each workload exists.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and sample count, then —
//! as the last line of standard output — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
//! an output check failed or the host was too unsteady to measure on.

mod cluster;
mod host;
mod kv;
mod layers;
mod protocol;
mod replay;
mod sim;
mod spans;
mod stamped;
mod stats;

use protocol::{Ctx, Metric, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by name.
pub const WORKLOADS: [&str; 5] = [
    "sim-kernels",
    "rt-local",
    "uds2-migrate",
    "uds2-remote",
    "kv-serve-uds2",
];

/// End-to-end metrics: name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("norm_req_p50_us", "us"),
    ("norm_req_p90_us", "us"),
    ("wire_bytes_per_op", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Where the benchmark writes: `benchmark/out` from the checkout root
/// (where the driver and `repeat.sh` run it), `out` from inside the
/// crate.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds must be 1..=60, got {}", args.seconds));
    }
    Ok(args)
}

fn workload(name: &str, seed: u64, pinning: host::Pinning) -> Box<dyn Workload> {
    match name {
        "sim-kernels" => Box::new(sim::SimKernels::new(seed)),
        "rt-local" => Box::new(replay::RtLocal::new(seed)),
        "uds2-migrate" => Box::new(replay::Uds2::migrate(seed)),
        "uds2-remote" => Box::new(replay::Uds2::remote(seed)),
        _ => Box::new(kv::KvServe::new(seed, pinning)),
    }
}

/// The six end-to-end metrics of an untraced run, then the raw and
/// host bookkeeping values that qualify them.
fn end_to_end(out: &Outcome, ctx: &Ctx) -> Vec<Metric> {
    let rounds = out.mid(false).count();
    let (_, norm_ops) = out.ops_per_s(false);
    let requests = out.mid(false).map(|k| k.stats.lat_ns.len()).sum();
    let m = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
    };
    let mut all = vec![
        m("setup_s", stats::median(&out.setups), "s", out.setups.len()),
        m("norm_ops_per_s", norm_ops, "1/s", rounds),
        m(
            "norm_req_p50_us",
            out.median_of(false, |k| k.norm_lat_us(0.5)),
            "us",
            requests,
        ),
        m(
            "norm_req_p90_us",
            out.median_of(false, |k| k.norm_lat_us(0.9)),
            "us",
            requests,
        ),
        m(
            "wire_bytes_per_op",
            out.median_of(false, |k| k.stats.bytes_per_op),
            "B",
            rounds,
        ),
        m("peak_rss_mib", host::peak_rss_mib(), "MiB", 1),
    ];
    all.extend(out.qualifiers(&ctx.pinning));
    all
}

fn json_line(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Before anything is spawned: every thread inherits the mask.
    let pinning = host::Pinning::establish();
    stamped::now_ns();
    let mut ctx = Ctx {
        seconds: args.seconds,
        pinning,
        refk: host::RefKernel::new(),
        tracer: spans::Tracer::new(args.trace),
    };
    let mut w = workload(&args.workload, args.seed, pinning);
    let out = protocol::run(&mut *w, &mut ctx);

    // Three kept rounds and one kept set-up repetition are the least a
    // median can rest on; below that the host, not the program, was
    // measured, and the run fails.
    let kept = out.kept.len();
    let steady = kept >= 3 && !out.setups.is_empty();
    let mut correct = out.failed == 0 && out.errors.is_empty() && steady;
    let (all, reported): (Vec<Metric>, usize) = if args.trace {
        let m = layers::per_layer(&args.workload, &out, &mut ctx);
        let n = m.len();
        (m, n)
    } else {
        (end_to_end(&out, &ctx), END_TO_END.len())
    };
    correct &= all[..reported]
        .iter()
        .all(|m| m.value.is_finite() && (args.trace || m.value > 0.0));

    println!(
        "# {} seed={} seconds={} trace={} pinned={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        ctx.pinning.pinned()
    );
    for m in &all {
        println!("{:<32} {:>18.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    for e in &out.errors {
        eprintln!("benchmark: check failed: {e}");
    }
    if !steady {
        eprintln!(
            "benchmark: host too unsteady: kept {kept} rounds, discarded {}",
            out.discarded
        );
    }
    if args.trace {
        let path = out_dir().join(format!("{}.trace.jsonl", args.workload));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("# {} spans -> {}", ctx.tracer.len(), path.display()),
            Err(e) => {
                eprintln!("benchmark: writing {}: {e}", path.display());
                correct = false;
            }
        }
    }
    println!("{}", json_line(correct, &out, &all[..reported]));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"<key>": "<value>"` of `text`, in order.
    fn values_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &text[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(layers::PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(values_of(&text, "name"), names);
        let units: Vec<&str> = END_TO_END
            .iter()
            .chain(layers::PER_LAYER.iter())
            .map(|(_, u)| *u)
            .collect();
        assert_eq!(values_of(&text, "unit"), units);
        // The frozen constants are on record where the contract leaves
        // room for them: the workloads' `why`.
        let why = values_of(&text, "why").join(" ");
        for constant in [
            format!("NOMINAL_REF_RATE={:e}/s", host::NOMINAL_REF_RATE),
            format!("RATE_LOW={}k", kv::RATE_LOW / 1e3),
            format!("RATE_MID={}k", kv::RATE_MID / 1e3),
            format!("RATE_HIGH={}k", kv::RATE_HIGH / 1e3),
            format!("capacity {}k", kv::CAPACITY_REQ_PER_S / 1e3),
        ] {
            assert!(why.contains(&constant), "{constant} not in {why}");
        }
    }
}
