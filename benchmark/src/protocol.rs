//! The measurement protocol every workload runs under: repeated
//! set-up, one discarded warm-up round, then short rounds each
//! bracketed by two reference-kernel readings that turn its numbers
//! into nominal-host-speed numbers — or discard it when the host moved
//! during the round.

use crate::host::{host_factor, Pinning, RefKernel};
use crate::spans::Tracer;
use crate::stats::{median, percentile_sorted};
use std::time::Instant;

/// Fewest repetitions of the whole set-up sequence behind `setup_s`.
pub const SETUP_REPS: usize = 5;
/// A set-up sequence that takes milliseconds (bringing an idle cluster
/// up) is mostly sleep-and-retry quantisation; it is repeated until
/// this many seconds of set-up have been seen, at most
/// [`MAX_SETUP_REPS`] times, so that its median is as steady as a
/// long sequence's.
pub const MIN_SETUP_SECONDS: f64 = 1.0;
/// Most repetitions of the set-up sequence.
pub const MAX_SETUP_REPS: usize = 15;
/// Most timed rounds in an untraced run.
pub const MAX_ROUNDS: usize = 60;
/// Traced rounds in a traced run (each paired with an untraced one).
pub const TRACED_ROUNDS: usize = 5;

/// Offered load of an open-loop round, as a share of the closed-loop
/// capacity measured at authoring time. Closed-loop workloads ignore it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rate {
    /// An eighth of capacity.
    Low,
    /// A quarter of capacity: the rate the end-to-end percentiles are
    /// taken at.
    Mid,
    /// Half of capacity.
    High,
    /// Everything offered at once: the closed-loop capacity probe the
    /// three rates are shares of.
    Closed,
}

/// What kind of round to run.
#[derive(Clone, Copy, Debug)]
pub struct RoundKind {
    /// Record spans and switch the program's own obs plane on.
    pub traced: bool,
    /// Offered load (open-loop workloads only).
    pub rate: Rate,
}

/// How a per-round layer observation scales with host speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A duration: multiplied by the host factor.
    Time,
    /// A rate: divided by the host factor.
    Rate,
    /// A count, a ratio of counts, or an open-loop latency (see
    /// [`Kept::latency_scale`]): reported as is.
    AsIs,
}

/// What one round measured.
#[derive(Default)]
pub struct RoundStats {
    /// First submit → last retirement, seconds.
    pub secs: f64,
    /// Memory operations (or simulated accesses) retired.
    pub ops: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Request latencies in nanoseconds, ascending.
    pub lat_ns: Vec<u64>,
    /// Bytes that crossed a core or node boundary, per operation.
    pub bytes_per_op: f64,
    /// A deterministic count that must read the same every round.
    pub exact: u64,
    /// Layer observations of this round.
    pub layers: Vec<(&'static str, f64, Scale)>,
}

/// One workload, as the protocol drives it.
pub trait Workload {
    /// Run the whole set-up sequence once (input generation,
    /// flattening/placement, bring-up, load phase) and leave the
    /// workload ready for rounds. Returns the seconds that count into
    /// `setup_s` (tear-down of a probe cluster does not).
    fn setup(&mut self, tracer: &Tracer, rep: usize) -> Result<f64, String>;

    /// Run one round. `host_speed` is the reference reading taken just
    /// before it (open-loop rounds scale their offered rate by it).
    fn round(
        &mut self,
        kind: RoundKind,
        tracer: &Tracer,
        round: usize,
        host_speed: f64,
    ) -> Result<RoundStats, String>;

    /// Operations a round attempts (charged as failed when a round
    /// returns an error instead of statistics).
    fn nominal_ops(&self) -> u64;

    /// Whether rounds are open-loop (then a traced run adds rounds at
    /// the low and the high rate).
    fn open_loop(&self) -> bool {
        false
    }
}

/// A named result.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it (rounds, repetitions or requests).
    pub n: usize,
}

/// Everything one invocation of the benchmark hands to its workload.
pub struct Ctx {
    /// Seconds to measure for.
    pub seconds: f64,
    /// Thread placement.
    pub pinning: Pinning,
    /// The reference kernel (lives on the SUT CPU).
    pub refk: RefKernel,
    /// Span sink.
    pub tracer: Tracer,
}

/// A kept round with the host factor around it.
pub struct Kept {
    /// What the round measured.
    pub stats: RoundStats,
    /// Host speed relative to nominal.
    pub h: f64,
    /// What this round's latencies are multiplied by: `h` when the
    /// round was closed-loop (a task's lifetime is CPU time, and scales
    /// with the host like a rate does), 1 when it was open-loop. At a
    /// quarter of capacity a request's latency is wake-ups and timer
    /// delays, which do not follow the reference kernel: over eight
    /// runs whose host factor ranged 0.91–1.03 the unscaled median
    /// latency ranged 8 % and the scaled one 18 %.
    pub latency_scale: f64,
    /// What kind of round it was.
    pub kind: RoundKind,
}

/// The outcome of the protocol.
pub struct Outcome {
    /// Normalised set-up seconds, one per kept repetition.
    pub setups: Vec<f64>,
    /// Kept rounds, in order.
    pub kept: Vec<Kept>,
    /// Rounds discarded by the host-factor rule.
    pub discarded: usize,
    /// Operations attempted in timed rounds.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Messages of failed checks.
    pub errors: Vec<String>,
}

impl Ctx {
    /// Run `f` between two reference readings and return its result
    /// with the two readings.
    pub fn bracket<R>(&mut self, f: impl FnOnce(&Tracer, f64) -> R) -> (R, f64, f64) {
        let before = self.refk.reading();
        let r = f(&self.tracer, before);
        let after = self.refk.reading();
        (r, before, after)
    }

    /// Run a layer microbenchmark between two reference readings and
    /// return its result with the host factor around it. A bracket
    /// whose readings disagree is retried (three times at most, then
    /// the mean of the last pair is used: a layer metric has no bound
    /// to protect).
    pub fn around<R>(&mut self, mut f: impl FnMut() -> R) -> (R, f64) {
        let mut tries = 0;
        loop {
            let before = self.refk.reading();
            let r = f();
            let after = self.refk.reading();
            tries += 1;
            match host_factor(before, after) {
                Some(h) => return (r, h),
                None if tries == 3 => return (r, (before + after) / 2.0),
                None => {}
            }
        }
    }
}

/// Drive `w` through set-up, warm-up and rounds.
pub fn run(w: &mut dyn Workload, ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome {
        setups: Vec::new(),
        kept: Vec::new(),
        discarded: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut setup_seconds = 0.0;
    for rep in 0..MAX_SETUP_REPS {
        if rep >= SETUP_REPS && setup_seconds >= MIN_SETUP_SECONDS {
            break;
        }
        let (r, before, after) = ctx.bracket(|tracer, _| w.setup(tracer, rep));
        match (r, host_factor(before, after)) {
            (Ok(secs), h) => {
                setup_seconds += secs;
                out.setups.extend(h.map(|h| secs * h));
            }
            (Err(e), _) => {
                out.errors.push(format!("set-up {rep}: {e}"));
                out.failed += w.nominal_ops();
                out.attempted += w.nominal_ops();
                return out;
            }
        }
    }

    let plain = RoundKind {
        traced: false,
        rate: Rate::Mid,
    };
    let traced = RoundKind {
        traced: true,
        rate: Rate::Mid,
    };
    let open_loop = w.open_loop();
    let mut next_round = 0usize;
    let mut exact: Option<u64> = None;
    let mut measure = |ctx: &mut Ctx, out: &mut Outcome, kind: RoundKind, keep: bool| {
        let round = next_round;
        next_round += 1;
        let (r, before, after) =
            ctx.bracket(|tracer, host_speed| w.round(kind, tracer, round, host_speed));
        // The discard rule protects the end-to-end metrics, which rest
        // on the mid-rate rounds. A round at another rate feeds layer
        // metrics only and there are few of them: it is always kept.
        let h = host_factor(before, after)
            .or((kind.rate != Rate::Mid).then_some((before + after) / 2.0));
        match r {
            Ok(mut stats) => {
                // Only rounds at the same offered load share an exact
                // count (an open-loop round's request count is its
                // rate's).
                if kind.rate == Rate::Mid && *exact.get_or_insert(stats.exact) != stats.exact {
                    out.errors.push(format!(
                        "round {round}: exact count {} differs from round 0's {}",
                        stats.exact,
                        exact.expect("set above")
                    ));
                    stats.failed = stats.ops;
                }
                if !keep {
                    return;
                }
                out.attempted += stats.ops;
                out.failed += stats.failed;
                match h {
                    Some(h) => out.kept.push(Kept {
                        stats,
                        h,
                        latency_scale: if open_loop { 1.0 } else { h },
                        kind,
                    }),
                    None => out.discarded += 1,
                }
            }
            Err(e) => {
                out.errors.push(format!("round {round}: {e}"));
                out.attempted += w.nominal_ops();
                out.failed += w.nominal_ops();
            }
        }
    };

    measure(ctx, &mut out, plain, false); // warm-up, discarded
    let t0 = Instant::now();
    let budget = ctx.seconds;
    if !ctx.tracer.on() {
        let mut n = 0;
        while n < MAX_ROUNDS && t0.elapsed().as_secs_f64() < budget {
            measure(ctx, &mut out, plain, true);
            n += 1;
        }
    } else {
        // Pairs of an untraced and a traced round: their difference is
        // the tracing overhead. Open-loop workloads then spend a share
        // of the budget on the low and the high rate.
        let pairs_budget = if open_loop { 0.45 } else { 0.7 } * budget;
        let mut pairs = 0;
        while pairs < TRACED_ROUNDS && (pairs < 2 || t0.elapsed().as_secs_f64() < pairs_budget) {
            measure(ctx, &mut out, plain, true);
            measure(ctx, &mut out, traced, true);
            pairs += 1;
        }
        if open_loop {
            for rate in [Rate::Closed, Rate::Low, Rate::High, Rate::Low, Rate::High] {
                if t0.elapsed().as_secs_f64() < 0.8 * budget || rate_rounds(&out, rate) == 0 {
                    measure(
                        ctx,
                        &mut out,
                        RoundKind {
                            traced: false,
                            rate,
                        },
                        true,
                    );
                }
            }
        }
    }
    out
}

fn rate_rounds(out: &Outcome, rate: Rate) -> usize {
    out.kept.iter().filter(|k| k.kind.rate == rate).count()
}

impl Outcome {
    /// Kept rounds of one kind at the mid rate.
    pub fn mid(&self, traced: bool) -> impl Iterator<Item = &Kept> {
        self.kept
            .iter()
            .filter(move |k| k.kind.rate == Rate::Mid && k.kind.traced == traced)
    }

    /// Median over the mid-rate rounds of one kind of `f`.
    pub fn median_of(&self, traced: bool, f: impl Fn(&Kept) -> f64) -> f64 {
        median(&self.mid(traced).map(f).collect::<Vec<_>>())
    }

    /// Operations per second over the mid-rate rounds of one kind,
    /// taken together as one long measurement cut into slices:
    /// `(as the wall clock saw it, at nominal host speed)`. The second
    /// divides by the mean host factor of the same rounds.
    ///
    /// Pooled, not a median of per-round ratios: one round's host
    /// factor rests on two 4 ms readings and is itself noisy, while
    /// the mean over a run's ~60 readings is not. On the authoring
    /// host pooling gave the smaller run-to-run spread on every
    /// workload (README, "Protocol").
    pub fn ops_per_s(&self, traced: bool) -> (f64, f64) {
        let (mut ops, mut secs, mut h, mut n) = (0.0, 0.0, 0.0, 0.0);
        for k in self.mid(traced) {
            ops += k.stats.ops as f64;
            secs += k.stats.secs;
            h += k.h;
            n += 1.0;
        }
        if secs > 0.0 {
            (ops / secs, ops / secs / (h / n))
        } else {
            (0.0, 0.0)
        }
    }

    /// The bookkeeping values that qualify a run's metrics: what the
    /// wall clock saw (`raw.*`) and what the host did (`host.*`). An
    /// untraced run prints them beside its end-to-end metrics; a
    /// traced run reports them as layer metrics.
    pub fn qualifiers(&self, pinning: &Pinning) -> Vec<Metric> {
        let rounds = self.mid(false).count();
        let requests = self.mid(false).map(|k| k.stats.lat_ns.len()).sum();
        let hs: Vec<f64> = self.kept.iter().map(|k| k.h).collect();
        let m = |name, value, unit, n| Metric {
            name,
            value,
            unit,
            n,
        };
        vec![
            m("raw.ops_per_s", self.ops_per_s(false).0, "1/s", rounds),
            m(
                "raw.req_p50_us",
                self.median_of(false, |k| k.raw_lat_us(0.5)),
                "us",
                requests,
            ),
            m(
                "raw.req_p99_us",
                self.median_of(false, |k| k.raw_lat_us(0.99)),
                "us",
                requests,
            ),
            m("host.speed_factor", median(&hs), "ratio", hs.len()),
            m(
                "host.rounds_discarded",
                self.discarded as f64,
                "count",
                hs.len() + self.discarded,
            ),
            m("host.pinned", pinning.pinned(), "bool", 1),
        ]
    }

    /// Median over rounds that observed layer `name`, host-normalised
    /// where the observation is a duration.
    pub fn layer(&self, name: &str) -> (f64, usize) {
        let v: Vec<f64> = self
            .kept
            .iter()
            .flat_map(|k| {
                k.stats
                    .layers
                    .iter()
                    .filter(|(n, _, _)| *n == name)
                    .map(move |(_, v, s)| match s {
                        Scale::Time => v * k.h,
                        Scale::Rate => v / k.h,
                        Scale::AsIs => *v,
                    })
            })
            .collect();
        (median(&v), v.len())
    }
}

impl Kept {
    /// Request-latency percentile in microseconds, as the wall clock
    /// saw it.
    pub fn raw_lat_us(&self, q: f64) -> f64 {
        percentile_sorted(&self.stats.lat_ns, q) as f64 / 1e3
    }

    /// Request-latency percentile in microseconds at nominal host
    /// speed (see [`Kept::latency_scale`]).
    pub fn norm_lat_us(&self, q: f64) -> f64 {
        self.raw_lat_us(q) * self.latency_scale
    }
}
