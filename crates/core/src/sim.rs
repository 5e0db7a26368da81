//! The event-driven EM² / EM²-RA multicore simulator.
//!
//! Timing model (Graphite-style, see DESIGN.md §4): threads advance
//! through their traces; network operations (migrations, evictions,
//! remote accesses) take the closed-form latencies of
//! [`em2_model::CostModel`]; local cache accesses take the hierarchy
//! latencies; barriers synchronize threads exactly. With the default
//! [`Contention::Off`](em2_engine::Contention) timing, core pipeline
//! contention between co-resident contexts and network link contention
//! are not modeled — the same simplifications the paper's own
//! analytical model makes (§3: "ignores local memory access delays,
//! since the migration-vs-RA decision mainly affects network delays"),
//! which keeps the DP bound from `em2-optimal` directly comparable.
//! Setting [`MachineConfig::contention`] to `Contention::Queued` turns
//! on the engine's FIFO home-core service queues and per-link
//! bandwidth occupancy (DESIGN.md §4 addendum).
//!
//! The simulator is fully deterministic: event ties are broken by
//! insertion sequence, guest eviction is LRU, and nothing draws a
//! random number.
//!
//! The machine runs on the shared discrete-event kernel of
//! [`em2_engine`]: the engine owns the event queue, the per-thread
//! scheduling phases, barrier synchronization, the run-length monitor,
//! and the contention state; this module supplies the EM²-specific
//! transition logic through the engine's
//! [`MachineModel`] trait.
//!
//! The hot path runs over an [`em2_trace::FlatWorkload`] — a
//! struct-of-arrays trace with every access's home core resolved
//! through the placement **once, at build time** (DESIGN.md §6).
//! [`run_em2`] / [`run_em2ra`] build the flat view internally;
//! [`run_em2_flat`] / [`run_em2ra_flat`] accept a prebuilt one so
//! sweeps that run many schemes or machine configs over the same
//! workload pay for placement resolution once.

use crate::context::{Admission, ContextPool, GuestState};
use crate::decision::{Decision, DecisionCtx, DecisionScheme};
use crate::machine::MachineConfig;
use crate::monitor::Monitor;
use crate::stats::{FlowCounts, SimReport, TrafficBreakdown};
use em2_cache::CacheHierarchy;
use em2_engine::{ContentionState, Engine, Event, MachineModel, ThreadPhase};
use em2_model::{CoreId, CostModel, Summary, ThreadId};
use em2_placement::Placement;
use em2_trace::{FlatWorkload, Workload};

/// Bins for the Figure-2 run-length histogram. Public so consumers
/// that must produce bit-comparable histograms (the `em2-rt` runtime's
/// cross-validation) bin identically.
pub const RUN_BINS: u64 = 60;

/// Cycles an arriving migration waits before retrying when every guest
/// context is pinned by an in-flight remote access.
const STALL_RETRY: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    /// Thread may proceed (issue next access / finish remote wait).
    Ready,
    /// Context arrives at `dst`; `eviction` marks native-bound travel.
    Arrive { dst: CoreId, eviction: bool },
    /// A remote-access request reaches the home cache (Figure 3's
    /// "access memory" box executes *at the home*, in time order).
    Service { home: CoreId },
}

/// Machine-specific per-thread state (the engine owns the scheduling
/// phase, epoch, trace cursor and barrier cursor).
struct Em2Thread {
    native: CoreId,
    core: CoreId,
    /// Issue time of the access currently in flight (migration or RA).
    op_issue: u64,
}

/// The EM²/EM²-RA machine: per-access transition logic plugged into
/// the shared engine.
struct Em2Machine<'a> {
    cost: &'a CostModel,
    line_bytes: u64,
    flat: &'a FlatWorkload,
    pools: Vec<ContextPool>,
    caches: Vec<CacheHierarchy>,
    monitor: Monitor,
    scheme: Box<dyn DecisionScheme>,
    threads: Vec<Em2Thread>,
    // Report accumulators.
    flow: FlowCounts,
    traffic: TrafficBreakdown,
    access_latency: Summary,
    migration_latency: Summary,
    context_bits_sent: u64,
    network_cycles: u64,
}

impl MachineModel for Em2Machine<'_> {
    type Event = EventKind;

    fn handle(&mut self, eng: &mut Engine<EventKind>, ev: Event<EventKind>) {
        let tid = ev.thread;
        let t_idx = tid.index();
        let now = ev.time;
        let cost = self.cost;
        let flat = self.flat;

        match ev.kind {
            EventKind::Arrive { dst, eviction } => {
                if dst == self.threads[t_idx].native {
                    self.pools[dst.index()].admit_native(tid);
                } else {
                    match self.pools[dst.index()].admit_guest(tid, now) {
                        Admission::Admitted => {}
                        Admission::AdmittedEvicting(victim) => {
                            self.flow.evictions += 1;
                            let v_idx = victim.index();
                            let v_native = self.threads[v_idx].native;
                            self.monitor.on_depart(victim, dst);
                            // The victim drains its current access,
                            // then travels on the eviction network.
                            let depart = match eng.phase(victim) {
                                ThreadPhase::Busy { until } => until.max(now),
                                _ => now,
                            };
                            let was_parked =
                                matches!(eng.phase(victim), ThreadPhase::AtBarrier { .. });
                            let v_epoch = eng.bump_epoch(victim);
                            let ev_lat = cost.migration_latency(dst, v_native)
                                + eng.contention.link_delay(
                                    cost,
                                    dst,
                                    v_native,
                                    cost.context_bits,
                                    depart,
                                );
                            self.context_bits_sent += cost.context_bits;
                            self.traffic.eviction_flit_hops +=
                                cost.migration_traffic_bits(dst, v_native, cost.context_bits);
                            eng.set_phase(
                                victim,
                                ThreadPhase::InFlight {
                                    arrive: depart + ev_lat,
                                    // Evicted while parked at a barrier:
                                    // stay parked on arrival.
                                    resume: !was_parked,
                                },
                            );
                            self.threads[v_idx].core = v_native;
                            eng.push(
                                depart + ev_lat,
                                victim,
                                v_epoch,
                                EventKind::Arrive {
                                    dst: v_native,
                                    eviction: true,
                                },
                            );
                        }
                        Admission::Stalled => {
                            self.flow.stalled_arrivals += 1;
                            eng.push(
                                now + STALL_RETRY,
                                tid,
                                ev.epoch,
                                EventKind::Arrive { dst, eviction },
                            );
                            return;
                        }
                    }
                }
                self.monitor.on_arrive(tid, dst);
                self.monitor.on_guest_count(
                    dst,
                    self.pools[dst.index()].guest_count(),
                    self.pools[dst.index()].guest_capacity(),
                );
                self.threads[t_idx].core = dst;
                let resume = match eng.phase(tid) {
                    ThreadPhase::InFlight { resume, .. } => resume,
                    _ => true,
                };
                let phase = if eviction && !resume {
                    // Still parked at its barrier.
                    ThreadPhase::AtBarrier {
                        idx: eng.next_barrier(tid).saturating_sub(1),
                        since: now,
                    }
                } else {
                    ThreadPhase::Idle
                };
                eng.set_phase(tid, phase);
                if eviction {
                    if resume {
                        eng.push(now, tid, ev.epoch, EventKind::Ready);
                    }
                    return;
                }
                // Migration arrival: perform the access that caused it.
                let ft = &flat.threads[t_idx];
                let pos = eng.pos(tid);
                let (addr, kind) = (ft.addr[pos], ft.kind[pos]);
                let t_access = eng.contention.home_admit(dst, now);
                let outcome = self.caches[dst.index()].access(addr, kind.is_write());
                let lat = outcome.latency(cost);
                let complete = t_access + lat;
                let issue = self.threads[t_idx].op_issue;
                self.flow.migrations += 1;
                self.access_latency.record_u64(complete - issue);
                let scheme = self.scheme.as_mut();
                eng.runs
                    .track(tid, dst, &mut |t, c, l| scheme.observe_run(t, c, l));
                self.monitor.on_access(
                    tid,
                    pos,
                    addr,
                    addr.line(self.line_bytes).0,
                    dst,
                    dst,
                    false,
                    now,
                    complete,
                );
                eng.set_pos(tid, pos + 1);
                eng.set_phase(tid, ThreadPhase::Busy { until: complete });
                self.pools[dst.index()].touch(tid, now);
                let next_gap = ft.gap.get(pos + 1).map_or(0, |&g| g as u64);
                eng.push(complete + next_gap, tid, ev.epoch, EventKind::Ready);
            }

            EventKind::Service { home } => {
                // The remote request reaches the home cache: access
                // memory there (queueing for a service slot under
                // contention), then send the response back.
                let ft = &flat.threads[t_idx];
                let pos = eng.pos(tid);
                let (addr, kind) = (ft.addr[pos], ft.kind[pos]);
                let t_start = eng.contention.home_admit(home, now);
                let outcome = self.caches[home.index()].access(addr, kind.is_write());
                let cache_lat = outcome.latency(cost);
                let core = self.threads[t_idx].core;
                let (_, resp_bits) = cost.ra_bits(kind);
                let resp_depart = t_start + cache_lat;
                let complete = resp_depart
                    + cost.one_way(home, core, resp_bits)
                    + eng
                        .contention
                        .link_delay(cost, home, core, resp_bits, resp_depart)
                    + cost.ra_fixed;
                let issue = self.threads[t_idx].op_issue;
                match kind {
                    em2_model::AccessKind::Read => self.flow.remote_reads += 1,
                    em2_model::AccessKind::Write => self.flow.remote_writes += 1,
                }
                self.access_latency.record_u64(complete - issue);
                self.network_cycles += (complete - issue) - cache_lat;
                self.monitor.on_access(
                    tid,
                    pos,
                    addr,
                    addr.line(self.line_bytes).0,
                    core,
                    home,
                    true,
                    now,
                    complete,
                );
                eng.set_pos(tid, pos + 1);
                eng.set_phase(tid, ThreadPhase::Waiting { until: complete });
                let next_gap = ft.gap.get(pos + 1).map_or(0, |&g| g as u64);
                eng.push(complete + next_gap, tid, ev.epoch, EventKind::Ready);
            }

            EventKind::Ready => {
                // A Ready may be the completion of a remote access.
                if let ThreadPhase::Waiting { until } = eng.phase(tid) {
                    debug_assert!(now >= until);
                    let core = self.threads[t_idx].core;
                    if core != self.threads[t_idx].native {
                        self.pools[core.index()].set_guest_state(tid, GuestState::Evictable);
                    }
                    eng.set_phase(tid, ThreadPhase::Idle);
                }
                if matches!(
                    eng.phase(tid),
                    ThreadPhase::Busy { .. } | ThreadPhase::Idle | ThreadPhase::AtBarrier { .. }
                ) {
                    eng.set_phase(tid, ThreadPhase::Idle);
                }

                // Barrier processing (the engine parks, releases and
                // accounts waits).
                if eng.barrier_advance(tid, now, EventKind::Ready) {
                    return;
                }

                // Done?
                let ft = &flat.threads[t_idx];
                if eng.pos(tid) >= ft.len() {
                    if eng.phase(tid) != ThreadPhase::Done {
                        let core = self.threads[t_idx].core;
                        if core == self.threads[t_idx].native {
                            self.pools[core.index()].remove_native(tid);
                        } else {
                            self.pools[core.index()].remove_guest(tid);
                        }
                        self.monitor.on_depart(tid, core);
                        let scheme = self.scheme.as_mut();
                        eng.runs
                            .flush(tid, &mut |t, c, l| scheme.observe_run(t, c, l));
                        eng.set_phase(tid, ThreadPhase::Done);
                    }
                    return;
                }

                // Issue the next access (gaps were folded into the
                // Ready time, so it issues exactly now). The home was
                // resolved once at flat-build time.
                let pos = eng.pos(tid);
                let (addr, kind) = (ft.addr[pos], ft.kind[pos]);
                let issue = now;
                let core = self.threads[t_idx].core;
                let home = ft.home[pos];

                if home == core {
                    let outcome = self.caches[core.index()].access(addr, kind.is_write());
                    let lat = outcome.latency(cost);
                    let complete = issue + lat;
                    self.flow.local_accesses += 1;
                    self.access_latency.record_u64(lat);
                    let scheme = self.scheme.as_mut();
                    eng.runs
                        .track(tid, home, &mut |t, c, l| scheme.observe_run(t, c, l));
                    self.monitor.on_access(
                        tid,
                        pos,
                        addr,
                        addr.line(self.line_bytes).0,
                        core,
                        home,
                        false,
                        now,
                        complete,
                    );
                    eng.set_pos(tid, pos + 1);
                    eng.set_phase(tid, ThreadPhase::Busy { until: complete });
                    self.pools[core.index()].touch(tid, now);
                    let next_gap = ft.gap.get(pos + 1).map_or(0, |&g| g as u64);
                    eng.push(complete + next_gap, tid, ev.epoch, EventKind::Ready);
                    return;
                }

                // Non-local: migrate or remote-access.
                let decision = self.scheme.decide(&DecisionCtx {
                    thread: tid,
                    current: core,
                    home,
                    native: self.threads[t_idx].native,
                    kind,
                    cost,
                });
                match decision {
                    Decision::Migrate => {
                        if core == self.threads[t_idx].native {
                            self.pools[core.index()].remove_native(tid);
                        } else {
                            self.pools[core.index()].remove_guest(tid);
                        }
                        self.monitor.on_depart(tid, core);
                        let lat = cost.migration_latency(core, home)
                            + eng
                                .contention
                                .link_delay(cost, core, home, cost.context_bits, issue);
                        self.context_bits_sent += cost.context_bits;
                        self.traffic.migration_flit_hops +=
                            cost.migration_traffic_bits(core, home, cost.context_bits);
                        self.migration_latency.record_u64(lat);
                        self.network_cycles += lat;
                        self.threads[t_idx].op_issue = issue;
                        eng.set_phase(
                            tid,
                            ThreadPhase::InFlight {
                                arrive: issue + lat,
                                resume: true,
                            },
                        );
                        eng.push(
                            issue + lat,
                            tid,
                            ev.epoch,
                            EventKind::Arrive {
                                dst: home,
                                eviction: false,
                            },
                        );
                    }
                    Decision::Remote => {
                        // Send the request; the home cache is
                        // accessed when it *arrives* (Service).
                        let (req_bits, resp_bits) = cost.ra_bits(kind);
                        self.traffic.ra_req_flit_hops +=
                            cost.hops(core, home) * cost.flits(req_bits);
                        self.traffic.ra_resp_flit_hops +=
                            cost.hops(core, home) * cost.flits(resp_bits);
                        let scheme = self.scheme.as_mut();
                        eng.runs
                            .track(tid, home, &mut |t, c, l| scheme.observe_run(t, c, l));
                        if core != self.threads[t_idx].native {
                            self.pools[core.index()].set_guest_state(tid, GuestState::Pinned);
                        }
                        self.pools[core.index()].touch(tid, now);
                        self.threads[t_idx].op_issue = issue;
                        eng.set_phase(tid, ThreadPhase::Waiting { until: u64::MAX });
                        let service_at = issue
                            + cost.one_way(core, home, req_bits)
                            + eng.contention.link_delay(cost, core, home, req_bits, issue);
                        eng.push(service_at, tid, ev.epoch, EventKind::Service { home });
                    }
                }
            }
        }
    }
}

/// Run EM²-RA with the given decision scheme over a prebuilt flat
/// workload — the core of every EM²/EM²-RA simulation, and the
/// sweep-friendly entry: build the flat view once, run many schemes
/// and configs over it. Bit-identical to [`run_em2ra`] on the
/// equivalent `(Workload, Placement)` pair.
pub fn run_em2ra_flat(
    cfg: MachineConfig,
    flat: &FlatWorkload,
    scheme: Box<dyn DecisionScheme>,
) -> SimReport {
    let cores = cfg.cores();
    assert!(
        flat.max_home_index < cores || flat.total_accesses() == 0,
        "workload homes target more cores than the machine has"
    );

    let pools: Vec<ContextPool> = (0..cores)
        .map(|_| ContextPool::new(cfg.guest_contexts))
        .collect();
    let caches: Vec<CacheHierarchy> = (0..cores)
        .map(|_| CacheHierarchy::new(cfg.caches))
        .collect();
    let threads: Vec<Em2Thread> = flat
        .threads
        .iter()
        .map(|t| Em2Thread {
            native: t.native,
            core: t.native,
            op_issue: 0,
        })
        .collect();

    let mut eng: Engine<EventKind> = Engine::new(
        flat,
        RUN_BINS,
        ContentionState::new(cfg.contention, cfg.cost.mesh),
    );
    let mut machine = Em2Machine {
        cost: &cfg.cost,
        line_bytes: cfg.caches.l1.line_bytes,
        flat,
        pools,
        caches,
        monitor: Monitor::new(),
        scheme,
        threads,
        flow: FlowCounts::default(),
        traffic: TrafficBreakdown::default(),
        access_latency: Summary::new(),
        migration_latency: Summary::new(),
        context_bits_sent: 0,
        network_cycles: 0,
    };

    // Seed: every thread starts in its native context at cycle 0.
    // Gaps are folded into Ready times, so a handler's `now` is the
    // issue time of the access it processes: cache state mutates in
    // simulated-time order (the monitor's serialization check).
    for i in 0..flat.num_threads() {
        let tid = ThreadId(i as u32);
        let native = machine.threads[i].native;
        machine.pools[native.index()].admit_native(tid);
        machine.monitor.on_arrive(tid, native);
        let t0 = flat.threads[i].gap.first().map_or(0, |&g| g as u64);
        eng.push(t0, tid, 0, EventKind::Ready);
    }

    eng.drive(&mut machine);

    // Aggregate caches & pools.
    let mut cache_stats = em2_cache::CacheStats::default();
    for c in &machine.caches {
        cache_stats.merge(c.stats());
    }
    let peak_guests = machine
        .pools
        .iter()
        .map(|p| p.peak_guests())
        .max()
        .unwrap_or(0);

    debug_assert!(
        eng.all_done(),
        "all threads must finish (barrier mismatch?)"
    );
    let tally = eng.finish();

    SimReport {
        workload: flat.name.clone(),
        scheme: machine.scheme.name(),
        cycles: tally.makespan,
        flow: machine.flow,
        run_lengths: tally.run_lengths,
        context_bits_sent: machine.context_bits_sent,
        traffic: machine.traffic,
        access_latency: machine.access_latency,
        migration_latency: machine.migration_latency,
        caches: cache_stats,
        peak_guests,
        network_cycles: machine.network_cycles,
        barrier_wait_cycles: tally.barrier_wait_cycles,
        queue_link_wait_cycles: tally.link_wait_cycles,
        queue_home_wait_cycles: tally.home_wait_cycles,
        violations: machine.monitor.into_violations(),
    }
}

/// Run pure EM² (always migrate) — the paper's baseline machine.
pub fn run_em2(cfg: MachineConfig, workload: &Workload, placement: &dyn Placement) -> SimReport {
    run_em2ra(
        cfg,
        workload,
        placement,
        Box::new(crate::decision::AlwaysMigrate),
    )
}

/// Run EM²-RA with the given decision scheme (Figure 3's machine).
pub fn run_em2ra(
    cfg: MachineConfig,
    workload: &Workload,
    placement: &dyn Placement,
    scheme: Box<dyn DecisionScheme>,
) -> SimReport {
    assert!(
        placement.cores() <= cfg.cores(),
        "placement targets more cores than the machine has"
    );
    let line_bytes = cfg.caches.l1.line_bytes;
    let flat = FlatWorkload::build_homes_only(workload, line_bytes, |a| placement.home_of(a));
    run_em2ra_flat(cfg, &flat, scheme)
}

/// [`run_em2`] over a prebuilt flat workload.
pub fn run_em2_flat(cfg: MachineConfig, flat: &FlatWorkload) -> SimReport {
    run_em2ra_flat(cfg, flat, Box::new(crate::decision::AlwaysMigrate))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{AlwaysMigrate, AlwaysRemote, DistanceThreshold};
    use em2_placement::{run_length_analysis, FirstTouch, Striped};
    use em2_trace::gen::{micro, ocean::OceanConfig};

    fn cfg(cores: usize) -> MachineConfig {
        MachineConfig::with_cores(cores)
    }

    #[test]
    fn private_workload_never_migrates() {
        let w = micro::private(4, 4, 200);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_em2(cfg(4), &w, &p);
        assert_eq!(r.flow.migrations, 0);
        assert_eq!(r.flow.evictions, 0);
        assert_eq!(r.flow.local_accesses as usize, w.total_accesses());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.cycles > 0);
    }

    #[test]
    fn pingpong_migrates_under_em2() {
        let w = micro::pingpong(1, 4, 20);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_em2(cfg(4), &w, &p);
        // The odd thread must migrate to the even thread's core and
        // back repeatedly.
        assert!(r.flow.migrations >= 10, "report: {r}");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn pingpong_with_always_remote_never_migrates() {
        let w = micro::pingpong(1, 4, 20);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_em2ra(cfg(4), &w, &p, Box::new(AlwaysRemote));
        assert_eq!(r.flow.migrations, 0);
        assert!(r.flow.remote_reads + r.flow.remote_writes >= 20);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn run_length_histogram_matches_trace_analysis_under_em2() {
        // The simulator's online run tracker must agree exactly with
        // the pure trace-level analysis (they implement the same
        // Figure-2 definition).
        let w = OceanConfig::small().generate();
        let p = FirstTouch::build(&w, 4, 64);
        let analysis = run_length_analysis(&w, &p, RUN_BINS);
        // Enough guest contexts that no eviction can occur (3 possible
        // guests per core): the machine then performs *exactly* the
        // home-change migrations the trace analysis predicts.
        let mut c = cfg(4);
        c.guest_contexts = 4;
        let r = run_em2(c, &w, &p);
        assert_eq!(r.run_lengths, analysis.histogram);
        assert_eq!(r.flow.evictions, 0);
        assert_eq!(r.flow.migrations, analysis.migrations_pure_em2);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn evictions_substitute_for_return_migrations() {
        // With scarce guest contexts, every eviction that sends a
        // thread home pre-empts the return migration the trace-level
        // analysis predicts: migrations + evictions ≥ predicted, and
        // migrations alone ≤ predicted.
        let w = OceanConfig::small().generate();
        let p = FirstTouch::build(&w, 4, 64);
        let analysis = run_length_analysis(&w, &p, RUN_BINS);
        let mut c = cfg(4);
        c.guest_contexts = 1;
        let r = run_em2(c, &w, &p);
        assert!(r.flow.migrations <= analysis.migrations_pure_em2);
        assert!(
            r.flow.migrations + r.flow.evictions >= analysis.migrations_pure_em2,
            "{} + {} < {}",
            r.flow.migrations,
            r.flow.evictions,
            analysis.migrations_pure_em2
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn deterministic_runs() {
        let w = micro::uniform(4, 4, 300, 64, 0.3, 5);
        let p = Striped::new(4, 64);
        let a = run_em2(cfg(4), &w, &p);
        let b = run_em2(cfg(4), &w, &p);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.flow, b.flow);
        assert_eq!(a.run_lengths, b.run_lengths);
        assert_eq!(a.context_bits_sent, b.context_bits_sent);
    }

    #[test]
    fn flat_path_is_bit_identical_to_workload_path() {
        // run_em2(cfg, w, p) builds the flat view internally; a
        // prebuilt flat must yield the same report field-for-field.
        let w = OceanConfig::small().generate();
        let p = FirstTouch::build(&w, 4, 64);
        let flat = FlatWorkload::build(&w, 64, |a| p.home_of(a));
        let a = run_em2(cfg(4), &w, &p);
        let b = run_em2_flat(cfg(4), &flat);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.flow, b.flow);
        assert_eq!(a.run_lengths, b.run_lengths);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.context_bits_sent, b.context_bits_sent);
        assert_eq!(a.network_cycles, b.network_cycles);
        assert_eq!(a.barrier_wait_cycles, b.barrier_wait_cycles);
        let ra_a = run_em2ra(cfg(4), &w, &p, Box::new(DistanceThreshold { max_hops: 1 }));
        let ra_b = run_em2ra_flat(cfg(4), &flat, Box::new(DistanceThreshold { max_hops: 1 }));
        assert_eq!(ra_a.cycles, ra_b.cycles);
        assert_eq!(ra_a.flow, ra_b.flow);
    }

    #[test]
    fn flat_workload_is_reusable_across_configs() {
        // One flat build, several machine configs — the E8 sweep shape.
        let w = micro::uniform(4, 4, 300, 128, 0.3, 21);
        let p = Striped::new(4, 64);
        let flat = FlatWorkload::build(&w, 64, |a| p.home_of(a));
        let mut last = None;
        for guest in [1usize, 2, 3] {
            let mut c = cfg(4);
            c.guest_contexts = guest;
            let r = run_em2_flat(c.clone(), &flat);
            let direct = {
                let mut c2 = cfg(4);
                c2.guest_contexts = guest;
                run_em2(c2, &w, &p)
            };
            assert_eq!(r.cycles, direct.cycles);
            assert_eq!(r.flow, direct.flow);
            last = Some(r.cycles);
        }
        assert!(last.is_some());
    }

    #[test]
    fn evictions_occur_under_guest_pressure() {
        // Many threads hammer one core's data with only 1 guest context.
        let w = micro::hotspot(8, 8, 300, 0.9, 3);
        let p = FirstTouch::build(&w, 8, 64);
        let mut c = cfg(8);
        c.guest_contexts = 1;
        let r = run_em2(c, &w, &p);
        assert!(r.flow.evictions > 0, "hotspot must force evictions: {r}");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.peak_guests <= 1);
    }

    #[test]
    fn em2ra_reduces_context_bits_on_singles_heavy_load() {
        let w = micro::uniform(4, 4, 400, 256, 0.3, 11);
        let p = Striped::new(4, 64);
        let em2 = run_em2(cfg(4), &w, &p);
        let ra = run_em2ra(cfg(4), &w, &p, Box::new(AlwaysRemote));
        assert!(
            ra.context_bits_sent < em2.context_bits_sent,
            "remote access must ship fewer context bits: {} vs {}",
            ra.context_bits_sent,
            em2.context_bits_sent
        );
        assert!(ra.traffic.total() < em2.traffic.total());
    }

    #[test]
    fn hybrid_scheme_splits_flows() {
        let w = micro::uniform(4, 4, 300, 128, 0.3, 13);
        let p = Striped::new(4, 64);
        let r = run_em2ra(cfg(4), &w, &p, Box::new(DistanceThreshold { max_hops: 1 }));
        assert!(r.flow.migrations > 0, "{r}");
        assert!(r.flow.remote_reads + r.flow.remote_writes > 0, "{r}");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn barriers_synchronize() {
        let w = micro::producer_consumer(3, 4, 16, 3);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_em2(cfg(4), &w, &p);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.barrier_wait_cycles > 0, "someone must wait at a barrier");
    }

    #[test]
    fn report_displays() {
        let w = micro::pingpong(1, 4, 5);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_em2(cfg(4), &w, &p);
        let s = format!("{r}");
        assert!(s.contains("migrations"));
        assert!(s.contains("flit-hops"));
    }

    #[test]
    fn always_migrate_name_in_report() {
        let w = micro::private(2, 4, 10);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_em2ra(cfg(4), &w, &p, Box::new(AlwaysMigrate));
        assert_eq!(r.scheme, "always-migrate");
        assert_eq!(r.workload, "private");
    }
}
