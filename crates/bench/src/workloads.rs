//! Shared workload configurations for the experiments.
//!
//! Every experiment runs in one of two scales:
//!
//! * **Full** — the paper's configuration (64 cores / 64 threads,
//!   256² OCEAN grid); minutes of wall time across all experiments.
//! * **Quick** — a 16-core shrink preserving every structural feature;
//!   seconds of wall time. Used by the tests and CI.

use em2_placement::{FirstTouch, Placement};
use em2_trace::gen::{
    fft::FftConfig, lu::LuConfig, micro, ocean::OceanConfig, radix::RadixConfig, synth::SynthConfig,
};
use em2_trace::Workload;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale (64 cores).
    Full,
    /// CI-scale (16 cores).
    Quick,
}

impl Scale {
    /// Core/thread count at this scale.
    pub fn cores(self) -> usize {
        match self {
            Scale::Full => 64,
            Scale::Quick => 16,
        }
    }
}

/// The quick OCEAN shape with 4× the iterations: the obs-overhead
/// calibration's timed region. A single quick replay is only ~15 ms,
/// short enough that page faults, frequency ramps, and allocator
/// layout dominate a ±5% comparison; quadrupling the timed region
/// amortizes those transients while keeping the structure (and the
/// per-access cost being measured) identical to [`ocean`].
pub fn ocean_obs_calibration() -> Workload {
    OceanConfig {
        interior: 128,
        threads: 16,
        cores: 16,
        iterations: 8,
        levels: 3,
        ..OceanConfig::default()
    }
    .generate()
}

/// The Figure-2 OCEAN configuration at a scale.
pub fn ocean(scale: Scale) -> Workload {
    match scale {
        Scale::Full => OceanConfig::default().generate(),
        Scale::Quick => OceanConfig {
            interior: 128,
            threads: 16,
            cores: 16,
            iterations: 2,
            levels: 3,
            ..OceanConfig::default()
        }
        .generate(),
    }
}

/// FFT stand-in at a scale.
pub fn fft(scale: Scale) -> Workload {
    match scale {
        Scale::Full => FftConfig::default().generate(),
        Scale::Quick => FftConfig {
            side: 64,
            threads: 16,
            cores: 16,
            iterations: 1,
            ..FftConfig::default()
        }
        .generate(),
    }
}

/// LU stand-in at a scale.
pub fn lu(scale: Scale) -> Workload {
    match scale {
        Scale::Full => LuConfig::default().generate(),
        Scale::Quick => LuConfig {
            nb: 8,
            b: 4,
            pr: 4,
            pc: 4,
            cores: 16,
            ..LuConfig::default()
        }
        .generate(),
    }
}

/// RADIX stand-in at a scale.
pub fn radix(scale: Scale) -> Workload {
    match scale {
        Scale::Full => RadixConfig::default().generate(),
        Scale::Quick => RadixConfig {
            keys_per_thread: 512,
            buckets: 16,
            threads: 16,
            cores: 16,
            passes: 1,
            ..RadixConfig::default()
        }
        .generate(),
    }
}

/// Synthetic run-length mixture at a scale.
pub fn synth(scale: Scale) -> Workload {
    match scale {
        Scale::Full => SynthConfig::default().generate(),
        Scale::Quick => SynthConfig {
            threads: 16,
            cores: 16,
            accesses_per_thread: 2_000,
            ..SynthConfig::default()
        }
        .generate(),
    }
}

/// Uniform-random microbenchmark.
pub fn uniform(scale: Scale) -> Workload {
    let n = scale.cores();
    micro::uniform(n, n, 2_000, 1024, 0.3, 0xE7)
}

/// Ping-pong microbenchmark.
pub fn pingpong(scale: Scale) -> Workload {
    micro::pingpong(scale.cores() / 2, scale.cores(), 50)
}

/// Producer-consumer ring.
pub fn producer_consumer(scale: Scale) -> Workload {
    let n = scale.cores();
    micro::producer_consumer(n, n, 64, 4)
}

/// The workload a table row names — the one name → generator map
/// behind every experiment's per-workload cells.
///
/// # Panics
/// On a name no experiment uses.
pub fn by_name(name: &str, scale: Scale) -> Workload {
    let n = scale.cores();
    match name {
        "ocean" => ocean(scale),
        "fft" => fft(scale),
        "lu" => lu(scale),
        "radix" => radix(scale),
        "synth" => synth(scale),
        "uniform" => uniform(scale),
        "pingpong" => pingpong(scale),
        "prod-cons" => producer_consumer(scale),
        "hotspot" => micro::hotspot(n, n, 1_000, 0.6, 7),
        other => panic!("no workload named {other:?}"),
    }
}

/// First-touch placement for a workload at line granularity (the
/// paper's Figure-2 configuration).
pub fn first_touch(w: &Workload, scale: Scale) -> impl Placement + use<> {
    FirstTouch::build(w, scale.cores(), 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_generate() {
        for name in [
            "ocean",
            "fft",
            "lu",
            "radix",
            "synth",
            "uniform",
            "pingpong",
            "prod-cons",
            "hotspot",
        ] {
            let w = by_name(name, Scale::Quick);
            assert!(w.total_accesses() > 100, "{name} too small");
            assert!(w.num_threads() <= 16, "{name} too wide");
        }
    }

    #[test]
    fn scales_differ() {
        assert!(ocean(Scale::Full).total_accesses() > ocean(Scale::Quick).total_accesses());
        assert_eq!(Scale::Full.cores(), 64);
        assert_eq!(Scale::Quick.cores(), 16);
    }
}
