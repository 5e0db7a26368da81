//! The §3 dynamic program: optimal migrate-vs-remote-access decisions.
//!
//! Given a thread memory trace `m₁ … m_N` and the placement-implied
//! home sequence `d(m₁) … d(m_N)`, define `OPT(k, c)` = minimal network
//! cost to perform the first `k` accesses and end at core `c`. The
//! paper's recurrence for access `k+1` with home `h`:
//!
//! * **core miss** (`c ≠ h`): the thread stays at `c` and performs a
//!   remote access —
//!   `OPT(k+1, c) = OPT(k, c) + cost_ra(c, h)`;
//! * **core hit** (`c = h`): the thread either was already there (the
//!   local access is free) or migrates in from some `cᵢ ≠ h` —
//!   `OPT(k+1, h) = min(OPT(k, h), min_{cᵢ≠h} OPT(k, cᵢ) + cost_mig(cᵢ, h))`.
//!
//! The paper bounds this as `O(N·P²)`; since only the home column
//! minimizes over predecessors, the direct transcription is `O(N·P)`
//! ([`optimal`]) — and since only the home column has a choice of
//! predecessor at all, one `OPT(k, ·)` row updated in place and one
//! remembered source per access are the whole state. Each access reads
//! one row of the cost model's pair table ([`CostModel::row`], rows by
//! home), so the per-access loop adds and compares; it does not
//! allocate or divide.
//! [`optimal_general`] additionally allows migrating to
//! *any* core before any access (a strictly more permissive model,
//! genuinely `O(N·P²)`) — its optimum can only be ≤, and experiments
//! show the gap is nil on real traces, justifying the paper's
//! restriction.

use em2_model::{AccessKind, CoreId, CostModel};
use em2_placement::Placement;
use em2_trace::{ThreadTrace, Workload};

/// "Infinity" that survives additions without wrapping.
const INF: u64 = u64::MAX / 4;

/// What the optimal path did at one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// The thread was already at the home core: free local access.
    Local,
    /// Remote access from the thread's current core.
    Remote,
    /// Migration to the home core, then local access.
    Migrate,
}

/// A thread trace reduced to what the model needs: the home core and
/// kind of every access, plus the start (native) core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostTrace {
    /// Core the thread starts on.
    pub start: CoreId,
    /// Per access: (home core, read/write).
    pub accesses: Vec<(CoreId, AccessKind)>,
}

impl CostTrace {
    /// Build from a thread trace and a placement.
    pub fn from_thread(trace: &ThreadTrace, placement: &dyn Placement) -> Self {
        CostTrace {
            start: trace.native,
            accesses: trace
                .records
                .iter()
                .map(|r| (placement.home_of(r.addr), r.kind))
                .collect(),
        }
    }

    /// Build from a flat thread — homes were already resolved at
    /// [`em2_trace::FlatWorkload::build`] time, so this is a copy, not
    /// a placement walk.
    pub fn from_flat(thread: &em2_trace::FlatThread) -> Self {
        CostTrace {
            start: thread.native,
            accesses: thread
                .home
                .iter()
                .zip(&thread.kind)
                .map(|(&h, &k)| (h, k))
                .collect(),
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Result of the DP: the optimal cost and one optimal decision path.
#[derive(Clone, Debug)]
pub struct Optimal {
    /// Minimal total network cost.
    pub cost: u64,
    /// Per-access choices along one optimal path.
    pub choices: Vec<Choice>,
    /// Core the thread ends on.
    pub end_core: CoreId,
}

impl Optimal {
    /// The decisions a simulator's decision scheme would be asked for:
    /// one per access whose home differs from the thread's location at
    /// that point (`Remote` ↔ remote access, `Migrate` ↔ migrate).
    /// `Local` steps are skipped — the machine never consults the
    /// scheme for them.
    pub fn nonlocal_decisions(&self) -> Vec<Choice> {
        self.choices
            .iter()
            .copied()
            .filter(|c| *c != Choice::Local)
            .collect()
    }

    /// Number of migrations on the optimal path.
    pub fn migrations(&self) -> usize {
        self.choices
            .iter()
            .filter(|c| **c == Choice::Migrate)
            .count()
    }

    /// Number of remote accesses on the optimal path.
    pub fn remote_accesses(&self) -> usize {
        self.choices
            .iter()
            .filter(|c| **c == Choice::Remote)
            .count()
    }
}

/// The paper's DP, direct transcription: `O(N·P)` time over one
/// in-place `OPT(k, ·)` row, `O(N)` space (for backtracking).
pub fn optimal(trace: &CostTrace, cost: &CostModel) -> Optimal {
    let p = cost.cores();
    let n = trace.len();
    assert!(trace.start.index() < p, "start core outside the machine");

    // cur[c] = OPT(k, c). Only the home column ever has a choice of
    // predecessor, so the backtrack needs one entry per access:
    // from[k] = where the path standing on access k's home came from
    // (the home itself = it stayed, `Local`; else it migrated in).
    let mut cur = vec![INF; p];
    cur[trace.start.index()] = 0;
    let mut from: Vec<u16> = Vec::with_capacity(n);

    for &(home, kind) in &trace.accesses {
        let h = home.index();
        let into_home = cost.row(home);
        let ra = usize::from(kind.is_write());
        // Lifting the home column out lets one guard skip it along
        // with the unreachable columns.
        let stay = std::mem::replace(&mut cur[h], INF);
        let mut best_mig = INF;
        let mut best_src = h;
        for (c, (opt, pair)) in cur.iter_mut().zip(into_home).enumerate() {
            if *opt >= INF {
                continue;
            }
            // Core hit: migrate in from the best predecessor.
            let m = *opt + u64::from(pair.migration);
            if m < best_mig {
                best_mig = m;
                best_src = c;
            }
            // Core miss: stay and pay a remote access.
            *opt += u64::from(pair.remote[ra]);
        }
        let (opt, src) = if stay <= best_mig {
            (stay, h)
        } else {
            (best_mig, best_src)
        };
        cur[h] = opt;
        from.push(src as u16);
    }

    // Best end state + backtrack.
    let (end, &best) = cur
        .iter()
        .enumerate()
        .min_by_key(|&(_, &c)| c)
        .expect("at least one core");
    let mut choices = vec![Choice::Remote; n];
    let mut c = end;
    for k in (0..n).rev() {
        let h = trace.accesses[k].0.index();
        if c == h {
            let prev = from[k] as usize;
            choices[k] = if prev == h {
                Choice::Local
            } else {
                Choice::Migrate
            };
            c = prev;
        }
    }
    debug_assert_eq!(c, trace.start.index(), "backtrack must reach the start");
    Optimal {
        cost: best,
        choices,
        end_core: CoreId::from(end),
    }
}

/// The relaxed `O(N·P²)` DP: before each access the thread may migrate
/// to *any* core (not only the home), then serve the access locally or
/// remotely. A lower bound on [`optimal`]; the gap measures how much
/// the paper's migrate-only-to-home restriction costs (empirically:
/// nothing, since positioning mid-run never pays).
pub fn optimal_general(trace: &CostTrace, cost: &CostModel) -> u64 {
    let p = cost.cores();
    let mut cur = vec![INF; p];
    cur[trace.start.index()] = 0;

    for &(home, kind) in &trace.accesses {
        // Phase 1: optional migration to any core.
        let mut moved = cur.clone();
        for dst in 0..p {
            for src in 0..p {
                if src == dst || cur[src] >= INF {
                    continue;
                }
                let m = cur[src] + cost.migration_latency(CoreId::from(src), CoreId::from(dst));
                if m < moved[dst] {
                    moved[dst] = m;
                }
            }
        }
        // Phase 2: serve the access from wherever we are.
        let mut next = vec![INF; p];
        for c in 0..p {
            if moved[c] >= INF {
                continue;
            }
            let serve = if c == home.index() {
                0
            } else {
                cost.remote_access_latency(CoreId::from(c), home, kind)
            };
            next[c] = moved[c] + serve;
        }
        cur = next;
    }
    cur.into_iter().min().expect("at least one core")
}

/// Replay a decision sequence over a trace and return its network cost
/// — the paper's `O(N)` scheme-evaluation claim. `decide` is consulted
/// once per access whose home differs from the current location; the
/// location is updated accordingly.
pub fn evaluate(
    trace: &CostTrace,
    cost: &CostModel,
    mut decide: impl FnMut(usize, CoreId, CoreId, AccessKind) -> Choice,
) -> u64 {
    let mut at = trace.start;
    let mut total = 0u64;
    for (k, &(home, kind)) in trace.accesses.iter().enumerate() {
        if home == at {
            continue;
        }
        match decide(k, at, home, kind) {
            Choice::Remote => {
                total += cost.remote_access_latency(at, home, kind);
            }
            Choice::Migrate | Choice::Local => {
                // Local is not a legal answer for a non-local access;
                // treat it as Migrate (the machine's default).
                total += cost.migration_latency(at, home);
                at = home;
            }
        }
    }
    total
}

/// Exponential-time exhaustive search (every migrate/remote choice at
/// every non-local access). Only for validating [`optimal`] on tiny
/// traces in tests.
pub fn brute_force(trace: &CostTrace, cost: &CostModel) -> u64 {
    fn rec(accesses: &[(CoreId, AccessKind)], at: CoreId, cost: &CostModel) -> u64 {
        let Some((&(home, kind), rest)) = accesses.split_first() else {
            return 0;
        };
        if home == at {
            return rec(rest, at, cost);
        }
        let remote = cost.remote_access_latency(at, home, kind) + rec(rest, at, cost);
        let migrate = cost.migration_latency(at, home) + rec(rest, home, cost);
        remote.min(migrate)
    }
    rec(&trace.accesses, trace.start, cost)
}

/// Sum of per-thread optima over a whole workload — the model's bound
/// for a multi-threaded run (the paper's model is per-thread, ignoring
/// evictions, so the workload bound is the sum).
pub fn workload_optimal(
    workload: &Workload,
    placement: &dyn Placement,
    cost: &CostModel,
) -> (u64, Vec<Optimal>) {
    let per_thread: Vec<Optimal> = workload
        .threads
        .iter()
        .map(|t| optimal(&CostTrace::from_thread(t, placement), cost))
        .collect();
    (per_thread.iter().map(|o| o.cost).sum(), per_thread)
}

/// Per-thread optima over a flat workload (homes pre-resolved), solved
/// in parallel. Same result as [`workload_optimal`] on the source
/// `(Workload, Placement)` pair, bit-for-bit.
pub fn workload_optimal_flat(
    flat: &em2_trace::FlatWorkload,
    cost: &CostModel,
    parallelism: usize,
) -> (u64, Vec<Optimal>) {
    solve_threads_par(flat.num_threads(), parallelism, cost, |i| {
        CostTrace::from_flat(&flat.threads[i])
    })
}

/// Solve `n` per-thread DPs in thread order. One worker solves inline
/// on the caller; more share the work over scoped OS threads with a
/// deterministic ordered reduce.
fn solve_threads_par(
    n: usize,
    parallelism: usize,
    cost: &CostModel,
    trace_of: impl Fn(usize) -> CostTrace + Sync,
) -> (u64, Vec<Optimal>) {
    let solve = |i: usize| optimal(&trace_of(i), cost);
    let parallelism = parallelism.clamp(1, n.max(1));
    let per_thread: Vec<Optimal> = if parallelism == 1 {
        (0..n).map(solve).collect()
    } else {
        let mut results: Vec<Option<Optimal>> = (0..n).map(|_| None).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<&mut Option<Optimal>>> =
            results.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..parallelism {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    **slots[i].lock().expect("slot lock") = Some(solve(i));
                });
            }
        });
        results
            .into_iter()
            .map(|o| o.expect("every thread solved"))
            .collect()
    };
    (per_thread.iter().map(|o| o.cost).sum(), per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::DetRng;

    fn cm(cores: usize) -> CostModel {
        CostModel::builder().cores(cores).build()
    }

    fn trace(start: u16, homes: &[u16]) -> CostTrace {
        CostTrace {
            start: CoreId(start),
            accesses: homes
                .iter()
                .map(|&h| (CoreId(h), AccessKind::Read))
                .collect(),
        }
    }

    #[test]
    fn all_local_costs_nothing() {
        let cost = cm(4);
        let t = trace(0, &[0, 0, 0, 0]);
        let o = optimal(&t, &cost);
        assert_eq!(o.cost, 0);
        assert!(o.choices.iter().all(|c| *c == Choice::Local));
        assert_eq!(o.end_core, CoreId(0));
    }

    #[test]
    fn single_remote_access_prefers_ra() {
        // One access at a remote core: RA round trip beats shipping a
        // 1.1 Kbit context one way at default parameters? Migration is
        // one-way but huge; RA is two small packets. At distance 1:
        // mig = 2 + 8 flits + 8 = 18; ra = 2+2+2 = 6ish → RA wins.
        let cost = cm(4);
        let t = trace(0, &[1]);
        let o = optimal(&t, &cost);
        assert_eq!(o.choices, vec![Choice::Remote]);
        assert_eq!(o.end_core, CoreId(0));
        assert_eq!(
            o.cost,
            cost.remote_access_latency(CoreId(0), CoreId(1), AccessKind::Read)
        );
    }

    #[test]
    fn long_run_prefers_migration() {
        // 50 consecutive accesses at the same remote core: one
        // migration beats 50 round trips.
        let cost = cm(4);
        let homes = [1u16; 50];
        let t = trace(0, &homes);
        let o = optimal(&t, &cost);
        assert_eq!(o.migrations(), 1);
        assert_eq!(o.remote_accesses(), 0);
        assert_eq!(o.cost, cost.migration_latency(CoreId(0), CoreId(1)));
        assert_eq!(o.end_core, CoreId(1));
    }

    #[test]
    fn matches_brute_force_on_random_traces() {
        let cost = cm(9);
        let mut rng = DetRng::new(42);
        for trial in 0..200 {
            let n = 1 + (rng.below(10) as usize);
            let start = rng.below(9) as u16;
            let homes: Vec<u16> = (0..n).map(|_| rng.below(9) as u16).collect();
            let t = trace(start, &homes);
            let o = optimal(&t, &cost);
            let bf = brute_force(&t, &cost);
            assert_eq!(o.cost, bf, "trial {trial}: {homes:?} from {start}");
        }
    }

    /// The parent's `optimal`, kept verbatim as the oracle: a fresh
    /// `OPT(k+1, ·)` row and a full `P`-wide parent row per access,
    /// every latency asked of the cost model as it is needed.
    fn optimal_reference(trace: &CostTrace, cost: &CostModel) -> Optimal {
        let p = cost.cores();
        let n = trace.len();
        let mut cur = vec![INF; p];
        cur[trace.start.index()] = 0;
        let mut parent: Vec<Vec<(u16, Choice)>> = Vec::with_capacity(n);
        for &(home, kind) in &trace.accesses {
            let h = home.index();
            let mut step = vec![(0u16, Choice::Remote); p];
            let stay = cur[h];
            let mut best_mig = INF;
            let mut best_src = h;
            for c in 0..p {
                if c == h || cur[c] >= INF {
                    continue;
                }
                let m = cur[c] + cost.migration_latency(CoreId::from(c), home);
                if m < best_mig {
                    best_mig = m;
                    best_src = c;
                }
            }
            let mut next = vec![INF; p];
            for c in 0..p {
                if c == h {
                    continue;
                }
                if cur[c] < INF {
                    next[c] = cur[c] + cost.remote_access_latency(CoreId::from(c), home, kind);
                    step[c] = (c as u16, Choice::Remote);
                }
            }
            if stay <= best_mig {
                next[h] = stay;
                step[h] = (h as u16, Choice::Local);
            } else {
                next[h] = best_mig;
                step[h] = (best_src as u16, Choice::Migrate);
            }
            parent.push(step);
            cur = next;
        }
        let (end, &best) = cur
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .expect("at least one core");
        let mut choices = vec![Choice::Local; n];
        let mut c = end;
        for k in (0..n).rev() {
            let (prev, choice) = parent[k][c];
            choices[k] = choice;
            c = prev as usize;
        }
        Optimal {
            cost: best,
            choices,
            end_core: CoreId::from(end),
        }
    }

    /// Ties are where a rewrite of the DP drifts (which of two equal
    /// sources migrates in, stay against an equal migration, which of
    /// two equal end cores wins), and long same-home runs with mixed
    /// reads and writes are where ties happen.
    #[test]
    fn matches_the_transcription_on_random_traces() {
        let mut rng = DetRng::new(2021);
        for trial in 0..300 {
            let p = [4usize, 16, 64][trial % 3];
            let cost = cm(p);
            let n = rng.below(120) as usize;
            let mut accesses = Vec::with_capacity(n);
            while accesses.len() < n {
                let home = CoreId::from(rng.below(p as u64) as usize);
                let longest = if rng.below(3) == 0 { 24 } else { 3 };
                let run = 1 + rng.below(longest);
                for _ in 0..run {
                    let kind = if rng.below(3) == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    accesses.push((home, kind));
                }
            }
            let t = CostTrace {
                start: CoreId::from(rng.below(p as u64) as usize),
                accesses,
            };
            let (got, want) = (optimal(&t, &cost), optimal_reference(&t, &cost));
            assert_eq!(got.cost, want.cost, "trial {trial} (P = {p})");
            assert_eq!(got.choices, want.choices, "trial {trial} (P = {p})");
            assert_eq!(got.end_core, want.end_core, "trial {trial} (P = {p})");
        }
    }

    #[test]
    fn evaluate_replays_optimal_choices_to_same_cost() {
        let cost = cm(16);
        let mut rng = DetRng::new(7);
        for _ in 0..50 {
            let homes: Vec<u16> = (0..40).map(|_| rng.below(16) as u16).collect();
            let t = trace(0, &homes);
            let o = optimal(&t, &cost);
            let decisions = o.nonlocal_decisions();
            let mut k = 0;
            let replay = evaluate(&t, &cost, |_, _, _, _| {
                let d = decisions[k];
                k += 1;
                d
            });
            assert_eq!(replay, o.cost);
            assert_eq!(k, decisions.len(), "every decision consumed");
        }
    }

    #[test]
    fn optimal_is_a_lower_bound_for_any_scheme() {
        let cost = cm(16);
        let mut rng = DetRng::new(99);
        for _ in 0..30 {
            let homes: Vec<u16> = (0..60).map(|_| rng.below(16) as u16).collect();
            let t = trace(0, &homes);
            let opt = optimal(&t, &cost).cost;
            let always_mig = evaluate(&t, &cost, |_, _, _, _| Choice::Migrate);
            let always_ra = evaluate(&t, &cost, |_, _, _, _| Choice::Remote);
            let mut flip = false;
            let alternating = evaluate(&t, &cost, |_, _, _, _| {
                flip = !flip;
                if flip {
                    Choice::Migrate
                } else {
                    Choice::Remote
                }
            });
            for (name, v) in [
                ("always-migrate", always_mig),
                ("always-remote", always_ra),
                ("alternating", alternating),
            ] {
                assert!(opt <= v, "{name} ({v}) beat the optimum ({opt})");
            }
        }
    }

    #[test]
    fn general_relaxation_never_worse_and_usually_equal() {
        let cost = cm(9);
        let mut rng = DetRng::new(5);
        for _ in 0..50 {
            let homes: Vec<u16> = (0..20).map(|_| rng.below(9) as u16).collect();
            let t = trace(0, &homes);
            let restricted = optimal(&t, &cost).cost;
            let general = optimal_general(&t, &cost);
            assert!(general <= restricted);
        }
    }

    #[test]
    fn write_costs_differ_from_reads() {
        // Writes carry data in the request and only an ack back; the DP
        // must price them with the kind-specific RA cost.
        let cost = cm(4);
        let t = CostTrace {
            start: CoreId(0),
            accesses: vec![(CoreId(1), AccessKind::Write)],
        };
        let o = optimal(&t, &cost);
        assert_eq!(
            o.cost,
            cost.remote_access_latency(CoreId(0), CoreId(1), AccessKind::Write)
                .min(cost.migration_latency(CoreId(0), CoreId(1)))
        );
    }

    #[test]
    fn empty_trace() {
        let cost = cm(4);
        let t = trace(2, &[]);
        let o = optimal(&t, &cost);
        assert_eq!(o.cost, 0);
        assert!(o.choices.is_empty());
        assert_eq!(o.end_core, CoreId(2));
        assert_eq!(brute_force(&t, &cost), 0);
    }

    #[test]
    fn mixed_pattern_interleaves_choices() {
        // Alternating single accesses to two far cores from home base:
        // optimal should remote-access the singles rather than bounce.
        let cost = cm(16);
        let homes: Vec<u16> = (0..20).map(|i| if i % 2 == 0 { 5 } else { 10 }).collect();
        let t = trace(0, &homes);
        let o = optimal(&t, &cost);
        // Bouncing between 5 and 10 with full contexts costs far more
        // than 20 round trips; at minimum, no Local choices exist.
        assert!(o.remote_accesses() > 0);
        let always_mig = evaluate(&t, &cost, |_, _, _, _| Choice::Migrate);
        assert!(o.cost < always_mig);
    }

    #[test]
    fn flat_solver_matches_sequential() {
        let w = em2_trace::gen::synth::SynthConfig::small().generate();
        let p = em2_placement::FirstTouch::build(&w, 4, 64);
        let flat =
            em2_trace::FlatWorkload::build(&w, 64, |a| em2_placement::Placement::home_of(&p, a));
        let cost = cm(4);
        let (seq, seq_per) = workload_optimal(&w, &p, &cost);
        for par in [1usize, 2, 8] {
            let (tot, per) = workload_optimal_flat(&flat, &cost, par);
            assert_eq!(tot, seq);
            for (a, b) in per.iter().zip(&seq_per) {
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.choices, b.choices);
            }
        }
    }

    #[test]
    fn workload_bound_sums_threads() {
        let w = em2_trace::gen::micro::pingpong(1, 4, 5);
        let p = em2_placement::FirstTouch::build(&w, 4, 64);
        let cost = cm(4);
        let (total, per) = workload_optimal(&w, &p, &cost);
        assert_eq!(per.len(), 2);
        assert_eq!(total, per.iter().map(|o| o.cost).sum::<u64>());
        // Thread 0 owns the cell: its optimum is 0.
        assert_eq!(per[0].cost, 0);
        assert!(per[1].cost > 0);
    }
}
