//! Event-driven directory-MSI trace replay.
//!
//! Threads are pinned to their native cores (no migration — this is
//! the conventional machine). Every access consults the local cache
//! first; misses and upgrades go to the line's **home** directory (the
//! same placement function EM² uses, so both machines distribute state
//! identically), which invalidates sharers, forwards dirty copies, and
//! sources data from memory. Timing uses the shared
//! [`em2_model::CostModel`]; data messages carry whole cache lines —
//! the granularity disadvantage against EM²'s word-sized remote
//! accesses that the paper's traffic argument rests on.
//!
//! The replay runs on the shared discrete-event kernel of
//! [`em2_engine`] (event queue, barriers, scheduling state) through
//! the engine's [`MachineModel`] trait, and
//! over an [`em2_trace::FlatWorkload`]: lines are dense interned
//! indices, so the per-core MSI state and the directory are flat
//! `Vec`s instead of `HashMap<LineAddr, _>`, and every home is
//! resolved through the placement once at build time (DESIGN.md §6).
//!
//! With [`MsiConfig::contention`] set to
//! [`Contention::Queued`](em2_engine::Contention), every protocol
//! message (request, invalidation, grant, data, writeback) additionally
//! pays link-bandwidth occupancy along its X-Y route, and directory
//! lookups queue FIFO for the home core's service ports — see the
//! engine's contention module and DESIGN.md §4.

use crate::directory::{DirState, Directory, SharerSet};
use crate::stats::CohReport;
use em2_cache::CacheHierarchy;
use em2_cache::HierarchyConfig;
use em2_engine::{Contention, ContentionState, Engine, Event, MachineModel, ThreadPhase};
use em2_model::{AccessKind, Addr, CoreId, CostModel, Summary, ThreadId};
use em2_placement::Placement;
use em2_trace::{FlatWorkload, Workload};

/// Local MSI state of a cached line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Local {
    Shared,
    Modified,
}

/// Control message payload bits (address + type).
const CTRL_BITS: u64 = 72;

/// Sampling period (in accesses) for the replication metric.
const REPLICATION_SAMPLE: u64 = 1024;

/// Configuration of the MSI baseline machine.
#[derive(Clone, Debug)]
pub struct MsiConfig {
    /// Shared cost model (mesh, latencies, link width).
    pub cost: CostModel,
    /// Per-core cache geometry (same default as EM²).
    pub caches: HierarchyConfig,
    /// Contention timing layer (`Off` = the closed-form model,
    /// bit-exact with the paper's timing; see `em2-engine`).
    pub contention: Contention,
}

impl Default for MsiConfig {
    fn default() -> Self {
        MsiConfig::with_cores(64)
    }
}

impl MsiConfig {
    /// A config for `cores` cores.
    pub fn with_cores(cores: usize) -> Self {
        MsiConfig {
            cost: CostModel::builder().cores(cores).build(),
            caches: HierarchyConfig::default(),
            contention: Contention::Off,
        }
    }

    fn data_bits(&self) -> u64 {
        self.caches.l1.line_bytes * 8 + CTRL_BITS
    }
}

/// A dense line index together with the byte address that touched it
/// (the caches key on addresses, the directory on line indices).
#[derive(Clone, Copy, Debug)]
struct LineRef {
    line: u32,
    addr: Addr,
}

/// The protocol state machine (separate from the event-loop driver for
/// testability). All line identifiers are dense interned indices into
/// the flat workload.
struct MachineState<'a> {
    cfg: &'a MsiConfig,
    flat: &'a FlatWorkload,
    dir: Directory,
    caches: Vec<CacheHierarchy>,
    /// Per-core MSI state, indexed `[core][line]`.
    local: Vec<Vec<Option<Local>>>,
    report: CohReport,
    accesses_seen: u64,
}

impl<'a> MachineState<'a> {
    fn new(cfg: &'a MsiConfig, cores: usize, flat: &'a FlatWorkload) -> Self {
        let n_lines = flat.num_lines();
        MachineState {
            cfg,
            flat,
            dir: Directory::with_lines(n_lines),
            caches: (0..cores)
                .map(|_| CacheHierarchy::new(cfg.caches))
                .collect(),
            local: vec![vec![None; n_lines]; cores],
            report: CohReport {
                workload: flat.name.clone(),
                cycles: 0,
                read_hits: 0,
                read_misses: 0,
                write_hits: 0,
                upgrades: 0,
                write_misses: 0,
                invalidations: 0,
                forwards: 0,
                writebacks: 0,
                control_flit_hops: 0,
                data_flit_hops: 0,
                access_latency: Summary::new(),
                caches: em2_cache::CacheStats::default(),
                peak_replication: 0.0,
                directory_bits: 0,
                queue_link_wait_cycles: 0,
                queue_home_wait_cycles: 0,
                violations: Vec::new(),
            },
            accesses_seen: 0,
        }
    }

    /// Send a control message departing at cycle `at`; returns its
    /// latency (closed form + any link queueing) and accounts traffic.
    fn ctrl(&mut self, ctn: &mut ContentionState, a: CoreId, b: CoreId, at: u64) -> u64 {
        let c = &self.cfg.cost;
        self.report.control_flit_hops += c.hops(a, b) * c.flits(CTRL_BITS);
        c.one_way(a, b, CTRL_BITS) + ctn.link_delay(c, a, b, CTRL_BITS, at)
    }

    /// Send a whole-line data message departing at cycle `at`.
    fn data(&mut self, ctn: &mut ContentionState, a: CoreId, b: CoreId, at: u64) -> u64 {
        let c = &self.cfg.cost;
        let bits = self.cfg.data_bits();
        self.report.data_flit_hops += c.hops(a, b) * c.flits(bits);
        c.one_way(a, b, bits) + ctn.link_delay(c, a, b, bits, at)
    }

    /// Invalidate every sharer of the line except `except`; returns the
    /// slowest invalidation round trip as seen from `home`, whose
    /// messages depart at cycle `at`.
    fn invalidate_sharers(
        &mut self,
        ctn: &mut ContentionState,
        home: CoreId,
        lr: LineRef,
        set: &SharerSet,
        except: CoreId,
        at: u64,
    ) -> u64 {
        let mut worst = 0;
        for s in set.iter().filter(|&s| s != except) {
            let there = self.ctrl(ctn, home, s, at);
            let back = self.ctrl(ctn, s, home, at + there);
            worst = worst.max(there + back);
            self.report.invalidations += 1;
            self.local[s.index()][lr.line as usize] = None;
            self.caches[s.index()].invalidate(lr.addr);
        }
        worst
    }

    fn sample_replication(&mut self) {
        let entries = self.dir.entries();
        if entries > 0 {
            let r = self.dir.total_copies() as f64 / entries as f64;
            if r > self.report.peak_replication {
                self.report.peak_replication = r;
            }
        }
    }

    /// Fill a line locally with the given state, handling the L2
    /// victim (explicit replacement notice to its home, writeback when
    /// modified; those messages depart at cycle `at`).
    fn fill(
        &mut self,
        ctn: &mut ContentionState,
        c: CoreId,
        lr: LineRef,
        write: bool,
        state: Local,
        at: u64,
    ) {
        let out = self.caches[c.index()].access(lr.addr, write);
        self.local[c.index()][lr.line as usize] = Some(state);
        if let Some((victim, _)) = out.l2_victim {
            if victim != self.flat.interner.line(lr.line) {
                // Any L2 victim was accessed earlier, so it is interned.
                let v = self
                    .flat
                    .interner
                    .lookup(victim)
                    .expect("cache victim must be an interned line");
                if let Some(was) = self.local[c.index()][v as usize].take() {
                    let victim_home = self.flat.line_home[v as usize];
                    if was == Local::Modified {
                        self.report.writebacks += 1;
                        let _ = self.data(ctn, c, victim_home, at);
                    } else {
                        let _ = self.ctrl(ctn, c, victim_home, at);
                    }
                    self.dir.drop_copy(v, c);
                }
            }
        }
    }

    /// Perform one access issued at cycle `now`; returns its latency.
    fn access(
        &mut self,
        ctn: &mut ContentionState,
        c: CoreId,
        home: CoreId,
        lr: LineRef,
        kind: AccessKind,
        now: u64,
    ) -> u64 {
        self.accesses_seen += 1;
        if self.accesses_seen.is_multiple_of(REPLICATION_SAMPLE) {
            self.sample_replication();
        }
        let cost = &self.cfg.cost;
        let l2 = cost.l2_hit_latency;
        let dram = cost.dram_latency;
        let line = lr.line;
        let local_state = self.local[c.index()][line as usize];

        match (kind, local_state) {
            // ---- hits ----
            (AccessKind::Read, Some(_)) => {
                self.report.read_hits += 1;
                let out = self.caches[c.index()].access(lr.addr, false);
                out.latency(cost)
            }
            (AccessKind::Write, Some(Local::Modified)) => {
                self.report.write_hits += 1;
                let out = self.caches[c.index()].access(lr.addr, true);
                out.latency(cost)
            }
            // ---- upgrade: S → M ----
            (AccessKind::Write, Some(Local::Shared)) => {
                self.report.upgrades += 1;
                let mut lat = cost.l1_hit_latency;
                lat += self.ctrl(ctn, c, home, now + lat);
                // Directory lookup queues for the home's service port.
                lat += ctn.home_admit(home, now + lat) - (now + lat);
                lat += l2;
                if let Some(DirState::Shared(set)) = self.dir.get(line).cloned() {
                    lat += self.invalidate_sharers(ctn, home, lr, &set, c, now + lat);
                }
                lat += self.ctrl(ctn, home, c, now + lat); // grant
                self.dir.set(line, DirState::Modified(c));
                self.local[c.index()][line as usize] = Some(Local::Modified);
                let _ = self.caches[c.index()].access(lr.addr, true);
                lat
            }
            // ---- misses ----
            (kind, None) => {
                let write = kind.is_write();
                if write {
                    self.report.write_misses += 1;
                } else {
                    self.report.read_misses += 1;
                }
                // Local lookup (detects the miss) + request to the home
                // + directory access (queued under contention).
                let mut lat = cost.l1_hit_latency + l2;
                lat += self.ctrl(ctn, c, home, now + lat);
                lat += ctn.home_admit(home, now + lat) - (now + lat);
                lat += l2;
                match self.dir.get(line).cloned() {
                    None => {
                        lat += dram;
                        lat += self.data(ctn, home, c, now + lat);
                    }
                    Some(DirState::Shared(set)) => {
                        if write {
                            lat += self.invalidate_sharers(ctn, home, lr, &set, c, now + lat);
                        }
                        // Clean data: from the home's own cache if it
                        // shares the line, otherwise from memory.
                        if set.contains(home) && self.caches[home.index()].contains(lr.addr) {
                            lat += l2;
                        } else {
                            lat += dram;
                        }
                        lat += self.data(ctn, home, c, now + lat);
                    }
                    Some(DirState::Modified(owner)) => {
                        // Intervention: forward to the owner; it sends
                        // the line to the requester.
                        self.report.forwards += 1;
                        lat += self.ctrl(ctn, home, owner, now + lat);
                        lat += l2;
                        lat += self.data(ctn, owner, c, now + lat);
                        if write {
                            self.local[owner.index()][line as usize] = None;
                            self.caches[owner.index()].invalidate(lr.addr);
                        } else {
                            // Downgrade M→S with writeback to memory.
                            self.report.writebacks += 1;
                            let _ = self.data(ctn, owner, home, now + lat);
                            self.local[owner.index()][line as usize] = Some(Local::Shared);
                            self.caches[owner.index()].clean(lr.addr);
                        }
                    }
                }
                // New directory state, then the local fill.
                let new_state = if write {
                    DirState::Modified(c)
                } else {
                    let mut set = match self.dir.get(line) {
                        Some(DirState::Shared(s)) => s.clone(),
                        Some(DirState::Modified(owner)) => SharerSet::single(*owner),
                        None => SharerSet::new(),
                    };
                    set.insert(c);
                    DirState::Shared(set)
                };
                self.dir.set(line, new_state);
                self.fill(
                    ctn,
                    c,
                    lr,
                    write,
                    if write {
                        Local::Modified
                    } else {
                        Local::Shared
                    },
                    now + lat,
                );
                lat
            }
        }
    }
}

/// The single event kind of the replay: a thread takes its next step.
#[derive(Clone, Copy, Debug)]
struct Tick;

/// The MSI machine plugged into the shared engine.
struct MsiMachine<'a> {
    state: MachineState<'a>,
}

impl MachineModel for MsiMachine<'_> {
    type Event = Tick;

    fn handle(&mut self, eng: &mut Engine<Tick>, ev: Event<Tick>) {
        let tid = ev.thread;
        let t_idx = tid.index();
        let now = ev.time;
        let flat = self.state.flat;
        let ft = &flat.threads[t_idx];

        if eng.barrier_advance(tid, now, Tick) {
            return;
        }
        if eng.pos(tid) >= ft.len() {
            eng.set_phase(tid, ThreadPhase::Done);
            return;
        }

        let pos = eng.pos(tid);
        let c = ft.native;
        let home = ft.home[pos];
        let lr = LineRef {
            line: ft.line[pos],
            addr: ft.addr[pos],
        };
        let lat = self
            .state
            .access(&mut eng.contention, c, home, lr, ft.kind[pos], now);
        self.state.report.access_latency.record_u64(lat);

        eng.set_pos(tid, pos + 1);
        let next_gap = ft.gap.get(pos + 1).map_or(0, |&g| g as u64);
        eng.push(now + lat + next_gap, tid, 0, Tick);
    }
}

/// Run the MSI baseline over a workload.
pub fn run_msi(cfg: MsiConfig, workload: &Workload, placement: &dyn Placement) -> CohReport {
    assert!(placement.cores() <= cfg.cost.cores());
    let flat = FlatWorkload::build(workload, cfg.caches.l1.line_bytes, |a| placement.home_of(a));
    run_msi_flat(cfg, &flat)
}

/// [`run_msi`] over a prebuilt flat workload (shareable with the EM²
/// simulators when the line size matches).
pub fn run_msi_flat(cfg: MsiConfig, flat: &FlatWorkload) -> CohReport {
    let cores = cfg.cost.cores();
    assert!(
        flat.max_home_index < cores || flat.total_accesses() == 0,
        "workload homes target more cores than the machine has"
    );
    assert_eq!(
        flat.line_bytes, cfg.caches.l1.line_bytes,
        "flat workload must be interned at the machine's line size"
    );
    assert!(
        flat.line_indexed,
        "run_msi_flat needs a line-indexed flat workload (FlatWorkload::build, \
         not build_homes_only)"
    );

    let mut eng: Engine<Tick> =
        Engine::new(flat, 1, ContentionState::new(cfg.contention, cfg.cost.mesh));
    let mut m = MsiMachine {
        state: MachineState::new(&cfg, cores, flat),
    };

    for (i, t) in flat.threads.iter().enumerate() {
        let t0 = t.gap.first().map_or(0, |&g| g as u64);
        eng.push(t0, ThreadId(i as u32), 0, Tick);
    }

    eng.drive(&mut m);

    debug_assert!(eng.all_done(), "barrier mismatch");
    let tally = eng.finish();

    // Finalize.
    let mut state = m.state;
    state.report.cycles = tally.makespan;
    let mut agg = em2_cache::CacheStats::default();
    for c in &state.caches {
        agg.merge(c.stats());
    }
    state.report.caches = agg;
    state.sample_replication();
    state.report.directory_bits = state.dir.storage_bits(cores);
    state.report.queue_link_wait_cycles = tally.link_wait_cycles;
    state.report.queue_home_wait_cycles = tally.home_wait_cycles;
    state.report.violations = state.dir.check_invariants();
    // Cross-check: side tables and directory agree on copy counts.
    let side_copies: usize = state
        .local
        .iter()
        .map(|t| t.iter().filter(|s| s.is_some()).count())
        .sum();
    if side_copies != state.dir.total_copies() {
        state.report.violations.push(format!(
            "directory tracks {} copies but caches hold {}",
            state.dir.total_copies(),
            side_copies
        ));
    }
    state.report
}
#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::Addr;
    use em2_placement::{FirstTouch, Striped};
    use em2_trace::gen::{micro, ocean::OceanConfig};

    #[test]
    fn private_workload_has_no_invalidations() {
        let w = micro::private(4, 4, 100);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert_eq!(r.invalidations, 0);
        assert_eq!(r.forwards, 0);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.total_accesses() as usize, w.total_accesses());
    }

    #[test]
    fn pingpong_forces_invalidations_or_forwards() {
        let w = micro::pingpong(1, 4, 20);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert!(
            r.invalidations + r.forwards > 10,
            "write sharing must ping the protocol: {r}"
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn read_sharing_replicates() {
        // Every thread reads the same 8 lines: each line ends up with
        // 4 cached copies — the replication the EM² capacity argument
        // is about (EM² would hold exactly one copy of each).
        let mut threads = Vec::new();
        for t in 0..4u32 {
            let mut tr = em2_trace::ThreadTrace::new(em2_model::ThreadId(t), CoreId(t as u16));
            for line in 0..8u64 {
                tr.read(1, Addr(line * 64));
            }
            threads.push(tr);
        }
        let w = Workload::new("readshare", threads);
        let p = Striped::new(4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert!(
            r.peak_replication >= 3.5,
            "replication = {}",
            r.peak_replication
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn hotspot_replication_above_one() {
        let w = micro::hotspot(4, 4, 300, 0.95, 3);
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert!(
            r.peak_replication > 1.05,
            "replication = {}",
            r.peak_replication
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn deterministic() {
        let w = micro::uniform(4, 4, 200, 64, 0.3, 5);
        let p = Striped::new(4, 64);
        let a = run_msi(MsiConfig::with_cores(4), &w, &p);
        let b = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_flit_hops(), b.total_flit_hops());
    }

    #[test]
    fn flat_path_matches_workload_path() {
        let w = OceanConfig::small().generate();
        let p = FirstTouch::build(&w, 4, 64);
        let flat = FlatWorkload::build(&w, 64, |a| p.home_of(a));
        let a = run_msi(MsiConfig::with_cores(4), &w, &p);
        let b = run_msi_flat(MsiConfig::with_cores(4), &flat);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_flit_hops(), b.total_flit_hops());
        assert_eq!(a.invalidations, b.invalidations);
        assert_eq!(a.writebacks, b.writebacks);
        assert_eq!(a.directory_bits, b.directory_bits);
    }

    #[test]
    fn ocean_runs_clean() {
        let w = OceanConfig::small().generate();
        let p = FirstTouch::build(&w, 4, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.total_accesses() as usize == w.total_accesses());
        assert!(r.data_flit_hops > 0);
    }

    #[test]
    fn write_hit_after_write_miss() {
        // Second write to the same line must be an M hit.
        let mut t0 = em2_trace::ThreadTrace::new(em2_model::ThreadId(0), CoreId(0));
        t0.write(0, Addr(0x100));
        t0.write(0, Addr(0x104));
        let w = Workload::new("w", vec![t0]);
        let p = Striped::new(2, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert_eq!(r.write_misses, 1);
        assert_eq!(r.write_hits, 1);
    }

    #[test]
    fn reader_then_writer_invalidates_reader() {
        // T0 reads a line homed at core 0; T1 then writes it.
        let mut t0 = em2_trace::ThreadTrace::new(em2_model::ThreadId(0), CoreId(0));
        let mut t1 = em2_trace::ThreadTrace::new(em2_model::ThreadId(1), CoreId(1));
        t0.read(0, Addr(0x0));
        t0.barrier();
        t1.barrier();
        t1.write(0, Addr(0x0));
        let w = Workload::new("rw", vec![t0, t1]);
        let p = Striped::new(2, 64);
        let r = run_msi(MsiConfig::with_cores(4), &w, &p);
        assert!(r.invalidations >= 1, "{r}");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
