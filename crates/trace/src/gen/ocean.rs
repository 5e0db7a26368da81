//! OCEAN stand-in: multigrid red-black stencil over a block-partitioned
//! 2-D grid.
//!
//! SPLASH-2 OCEAN simulates eddy currents with a red-black Gauss-Seidel
//! multigrid solver. Crucially for placement, OCEAN allocates each
//! processor's sub-grid as its *own padded array* (the famous 4-D array
//! optimization), so under first-touch placement a thread's partition
//! is wholly local and all communication is boundary traffic. The
//! memory behaviour that matters for EM² — what Figure 2 of the paper
//! measures — then comes from four structural sources, all reproduced
//! here:
//!
//! 1. **Interior stencil sweeps.** 5-point-stencil updates of points on
//!    the block's rim read one neighbour-owned point amid several
//!    locally-owned ones, producing *run-length-1* accesses at the
//!    neighbour's core (about half of all non-native accesses in the
//!    paper's measurement — they "migrate after one memory reference").
//! 2. **Ghost-row exchange.** Per relaxation pass, threads copy their
//!    north/south neighbour's boundary row into a local ghost row in
//!    chunks (software-pipelined copy), producing *medium runs* (the
//!    chunk size) at the neighbour's core.
//! 3. **Boundary-column reductions.** Threads reduce their west/east
//!    neighbour's boundary column while accumulating in registers,
//!    producing *long runs* (the block side) at the neighbour's core.
//!    At coarser multigrid levels the blocks shrink, spreading run
//!    lengths over `bs, bs/2, bs/4, …`.
//! 4. **Serial border & global reductions.** Thread 0 owns the global
//!    border and the convergence flag, producing one-off hotspot
//!    accesses homed at core 0.

use crate::addr::{AddressSpace, Region};
use crate::gen::native_core;
use crate::trace::{ThreadTrace, Workload};

/// Configuration for the OCEAN stand-in generator.
#[derive(Clone, Debug, PartialEq)]
pub struct OceanConfig {
    /// Interior grid dimension `n`; must be divisible by `sqrt(threads)`.
    pub interior: usize,
    /// Number of threads; must be a perfect square (block decomposition).
    pub threads: usize,
    /// Number of cores the threads are spread over (natives round-robin).
    pub cores: usize,
    /// Number of solver iterations (V-cycles).
    pub iterations: usize,
    /// Grid element size in bytes (OCEAN uses doubles).
    pub elem_bytes: u64,
    /// Multigrid levels (1 = finest only). Levels whose blocks would
    /// drop below 4×4 points are skipped automatically.
    pub levels: usize,
    /// Ghost-row copy chunk size in elements (the medium run length).
    pub ghost_chunk: usize,
    /// Non-memory instruction gap between stencil accesses.
    pub gap: u32,
}

impl Default for OceanConfig {
    /// The paper's Figure-2 scale: 64 threads on 64 cores, 256² interior
    /// grid (32×32 blocks), 4 V-cycles, 3 multigrid levels.
    fn default() -> Self {
        OceanConfig {
            interior: 256,
            threads: 64,
            cores: 64,
            iterations: 4,
            elem_bytes: 8,
            levels: 3,
            ghost_chunk: 8,
            gap: 2,
        }
    }
}

/// Per-level geometry and regions.
struct Level {
    /// Block side in points.
    bs: usize,
    /// Row stride of a block region, in elements (padded for alignment).
    stride: u64,
    /// One padded region per thread: `bs + 2` rows (bs data rows, then
    /// a north-ghost row and a south-ghost row).
    blocks: Vec<Region>,
    /// Global border, owned by thread 0: `4 × (interior + 2)` elements
    /// (top row, bottom row, west column, east column).
    border: Region,
    /// Interior width at this level.
    n: usize,
}

impl OceanConfig {
    /// A small configuration for unit tests: 4 threads, 16² grid.
    pub fn small() -> Self {
        OceanConfig {
            interior: 16,
            threads: 4,
            cores: 4,
            iterations: 2,
            elem_bytes: 8,
            levels: 2,
            ghost_chunk: 4,
            gap: 2,
        }
    }

    fn tside(&self) -> usize {
        (self.threads as f64).sqrt() as usize
    }

    fn validate(&self) {
        let tside = self.tside();
        assert_eq!(
            tside * tside,
            self.threads,
            "ocean: thread count must be a perfect square"
        );
        assert!(self.interior >= 4, "ocean: grid too small");
        assert_eq!(
            self.interior % tside,
            0,
            "ocean: interior must divide evenly into thread blocks"
        );
        assert!(self.iterations > 0 && self.levels > 0 && self.ghost_chunk > 0);
    }

    /// Number of multigrid levels that actually materialize.
    pub fn effective_levels(&self) -> usize {
        let tside = self.tside();
        (0..self.levels)
            .take_while(|&l| {
                (self.interior >> l) / tside >= 4 && (self.interior >> l).is_multiple_of(tside)
            })
            .count()
    }

    fn build_levels(&self, space: &mut AddressSpace) -> Vec<Level> {
        let tside = self.tside();
        (0..self.effective_levels())
            .map(|l| {
                let n = self.interior >> l;
                let bs = n / tside;
                // Pad each row to a 64-byte multiple so block rows never
                // share cache lines across threads (OCEAN's padding).
                let stride = ((bs as u64 * self.elem_bytes).next_multiple_of(64)) / self.elem_bytes;
                let blocks = (0..self.threads)
                    .map(|t| {
                        space.alloc2d(
                            format!("block[{l}][{t}]"),
                            (bs + 2) as u64,
                            stride,
                            self.elem_bytes,
                        )
                    })
                    .collect();
                let border =
                    space.alloc(format!("border[{l}]"), 4 * (n as u64 + 2) * self.elem_bytes);
                Level {
                    bs,
                    stride,
                    blocks,
                    border,
                    n,
                }
            })
            .collect()
    }

    /// Generate the workload.
    pub fn generate(&self) -> Workload {
        self.validate();
        let tside = self.tside();
        let eb = self.elem_bytes;
        let mut space = AddressSpace::with_page_alignment();
        let levels = self.build_levels(&mut space);
        let partials = space.alloc("partials", self.threads as u64 * eb);
        let flag = space.alloc("flag", eb);

        let mut traces: Vec<ThreadTrace> = (0..self.threads)
            .map(|t| ThreadTrace::new(t.into(), native_core(t, self.cores)))
            .collect();

        // Point (r, c) of thread t's block at a level.
        let pt = |lv: &Level, t: usize, r: usize, c: usize| {
            lv.blocks[t].at2d(r as u64, c as u64, lv.stride, eb)
        };
        // Border accessors: side 0 = top, 1 = bottom, 2 = west, 3 = east.
        let border_at =
            |lv: &Level, side: usize, i: usize| lv.border.elem((side * (lv.n + 2) + i) as u64, eb);
        let tid = |bx: usize, by: usize| by * tside + bx;

        // ---- Phase 0: initialization (determines first-touch homes) ----
        for lv in &levels {
            let t0 = &mut traces[0];
            for side in 0..4 {
                for i in 0..lv.n + 2 {
                    t0.write(self.gap, border_at(lv, side, i));
                }
            }
        }
        traces[0].write(self.gap, flag.elem(0, eb));
        for t in 0..self.threads {
            for lv in &levels {
                for r in 0..lv.bs + 2 {
                    for c in 0..lv.bs {
                        traces[t].write(self.gap, pt(lv, t, r, c));
                    }
                }
            }
            traces[t].write(self.gap, partials.elem(t as u64, eb));
        }
        for t in &mut traces {
            t.barrier();
        }

        // ---- Iterations: V-cycle over levels ----
        let before_solver: Vec<(usize, usize)> = traces
            .iter()
            .map(|t| (t.records.len(), t.barriers.len()))
            .collect();
        for iter in 0..self.iterations {
            if iter == 1 {
                // Every iteration appends what iteration 0 did, so the
                // final sizes are known: one exact allocation per trace
                // instead of sixteen vectors doubling in lock-step.
                let rest = self.iterations - 1;
                for (t, &(records, barriers)) in traces.iter_mut().zip(&before_solver) {
                    t.records.reserve_exact((t.records.len() - records) * rest);
                    t.barriers
                        .reserve_exact((t.barriers.len() - barriers) * rest);
                }
            }
            for lv in &levels {
                let bs = lv.bs;
                // (a) Ghost-row exchange: chunked copy of the north and
                // south neighbours' boundary rows into local ghosts.
                for by in 0..tside {
                    for bx in 0..tside {
                        let t = tid(bx, by);
                        let tr = &mut traces[t];
                        for c0 in (0..bs).step_by(self.ghost_chunk) {
                            let hi = (c0 + self.ghost_chunk).min(bs);
                            for c in c0..hi {
                                let src = if by > 0 {
                                    pt(lv, tid(bx, by - 1), bs - 1, c)
                                } else {
                                    border_at(lv, 0, bx * bs + c + 1)
                                };
                                tr.read(self.gap, src);
                            }
                            for c in c0..hi {
                                tr.write(self.gap, pt(lv, t, bs, c)); // north ghost row
                            }
                        }
                        for c0 in (0..bs).step_by(self.ghost_chunk) {
                            let hi = (c0 + self.ghost_chunk).min(bs);
                            for c in c0..hi {
                                let src = if by + 1 < tside {
                                    pt(lv, tid(bx, by + 1), 0, c)
                                } else {
                                    border_at(lv, 1, bx * bs + c + 1)
                                };
                                tr.read(self.gap, src);
                            }
                            for c in c0..hi {
                                tr.write(self.gap, pt(lv, t, bs + 1, c)); // south ghost row
                            }
                        }
                        tr.barrier();
                    }
                }

                // (b) Boundary-column reductions: register-accumulated
                // sweep up the west and east neighbours' edge columns
                // (one long run each), result stored locally.
                for by in 0..tside {
                    for bx in 0..tside {
                        let t = tid(bx, by);
                        let tr = &mut traces[t];
                        for r in 0..bs {
                            let src = if bx > 0 {
                                pt(lv, tid(bx - 1, by), r, bs - 1)
                            } else {
                                border_at(lv, 2, by * bs + r + 1)
                            };
                            tr.read(self.gap, src);
                        }
                        for r in 0..bs {
                            let src = if bx + 1 < tside {
                                pt(lv, tid(bx + 1, by), r, 0)
                            } else {
                                border_at(lv, 3, by * bs + r + 1)
                            };
                            tr.read(self.gap, src);
                        }
                        tr.write(self.gap, partials.elem(t as u64, eb));
                        tr.barrier();
                    }
                }

                // (c) Red/black relaxation: 5-point stencil; rim points
                // read one neighbour-owned (or border) point directly —
                // the run-length-1 population of Figure 2.
                for color in 0..2usize {
                    for by in 0..tside {
                        for bx in 0..tside {
                            let t = tid(bx, by);
                            let tr = &mut traces[t];
                            for r in 0..bs {
                                for c in 0..bs {
                                    if (r + c) % 2 != color {
                                        continue;
                                    }
                                    // North
                                    let north = if r > 0 {
                                        pt(lv, t, r - 1, c)
                                    } else if by > 0 {
                                        pt(lv, tid(bx, by - 1), bs - 1, c)
                                    } else {
                                        border_at(lv, 0, bx * bs + c + 1)
                                    };
                                    tr.read(self.gap, north);
                                    // West
                                    let west = if c > 0 {
                                        pt(lv, t, r, c - 1)
                                    } else if bx > 0 {
                                        pt(lv, tid(bx - 1, by), r, bs - 1)
                                    } else {
                                        border_at(lv, 2, by * bs + r + 1)
                                    };
                                    tr.read(self.gap, west);
                                    // East
                                    let east = if c + 1 < bs {
                                        pt(lv, t, r, c + 1)
                                    } else if bx + 1 < tside {
                                        pt(lv, tid(bx + 1, by), r, 0)
                                    } else {
                                        border_at(lv, 3, by * bs + r + 1)
                                    };
                                    tr.read(self.gap, east);
                                    // South
                                    let south = if r + 1 < bs {
                                        pt(lv, t, r + 1, c)
                                    } else if by + 1 < tside {
                                        pt(lv, tid(bx, by + 1), 0, c)
                                    } else {
                                        border_at(lv, 1, bx * bs + c + 1)
                                    };
                                    tr.read(self.gap, south);
                                    // Center: read-modify-write.
                                    tr.read(self.gap, pt(lv, t, r, c));
                                    tr.write(self.gap, pt(lv, t, r, c));
                                }
                            }
                            tr.barrier();
                        }
                    }
                }
            }

            // Global error reduction: every thread publishes a partial
            // (local write), thread 0 combines them (one access per
            // core: run-length-1 at distinct cores) and raises the
            // flag; everyone then polls the flag (hotspot singles).
            for (t, tr) in traces.iter_mut().enumerate() {
                tr.write(self.gap, partials.elem(t as u64, eb));
                tr.barrier();
            }
            for t in 0..self.threads {
                traces[0].read(self.gap, partials.elem(t as u64, eb));
            }
            traces[0].write(self.gap, flag.elem(0, eb));
            for tr in traces.iter_mut() {
                tr.read(self.gap, flag.elem(0, eb));
                tr.barrier();
            }
        }

        Workload::new("ocean", traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::AccessKind;

    #[test]
    fn small_config_generates() {
        let w = OceanConfig::small().generate();
        assert_eq!(w.num_threads(), 4);
        assert!(w.total_accesses() > 1000);
        for t in &w.threads {
            assert!(!t.is_empty(), "{:?} has empty trace", t.thread);
        }
    }

    #[test]
    fn deterministic() {
        let a = OceanConfig::small().generate();
        let b = OceanConfig::small().generate();
        assert_eq!(a, b);
    }

    /// Past iteration 0 the solver loop runs inside one exact
    /// allocation per trace.
    #[test]
    fn solver_iterations_fill_an_exact_reservation() {
        let cfg = OceanConfig {
            iterations: 8,
            ..OceanConfig::small()
        };
        for t in &cfg.generate().threads {
            assert_eq!(t.records.capacity(), t.records.len(), "{:?}", t.thread);
            assert_eq!(t.barriers.capacity(), t.barriers.len(), "{:?}", t.thread);
        }
    }

    #[test]
    fn barriers_are_aligned_across_threads() {
        let w = OceanConfig::small().generate();
        let counts: Vec<usize> = w.threads.iter().map(|t| t.barriers.len()).collect();
        assert!(
            counts.windows(2).all(|c| c[0] == c[1]),
            "all threads must arrive at the same number of barriers: {counts:?}"
        );
    }

    #[test]
    fn init_phase_is_all_writes() {
        let w = OceanConfig::small().generate();
        for t in &w.threads {
            for r in t.phase_records(0) {
                assert_eq!(r.kind, AccessKind::Write, "init must be writes");
            }
        }
    }

    #[test]
    fn stencil_reads_outnumber_writes() {
        let w = OceanConfig::small().generate();
        let s = w.stats(64);
        assert!(
            s.reads > 2 * s.writes,
            "5-point stencil is read-heavy: {s:?}"
        );
    }

    #[test]
    fn blocks_are_private_after_padding() {
        // With padded per-thread blocks, sharing is confined to rim
        // reads and the border/partials/flag regions. The tiny `small()`
        // grid is nearly all rim, so use a medium block size where the
        // interior dominates.
        let w = OceanConfig {
            interior: 64,
            threads: 4,
            cores: 4,
            iterations: 1,
            levels: 1,
            ..OceanConfig::small()
        }
        .generate();
        let s = w.stats(64);
        let f = s.sharing_fraction();
        assert!(f > 0.01, "boundary sharing expected, got {f}");
        assert!(f < 0.5, "padded blocks keep most lines private, got {f}");
    }

    #[test]
    fn effective_levels_respects_minimum_block() {
        assert_eq!(OceanConfig::small().effective_levels(), 2); // 8, 4
        let one = OceanConfig {
            levels: 1,
            ..OceanConfig::small()
        };
        assert_eq!(one.effective_levels(), 1);
        let many = OceanConfig {
            levels: 10,
            ..OceanConfig::small()
        };
        // 16/2=8, 8/2=4, then 4/2=2 < 4 stops.
        assert_eq!(many.effective_levels(), 2);
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn rejects_non_square_threads() {
        OceanConfig {
            threads: 5,
            ..OceanConfig::small()
        }
        .generate();
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn rejects_indivisible_grid() {
        OceanConfig {
            interior: 18,
            threads: 16,
            ..OceanConfig::small()
        }
        .generate();
    }
}
