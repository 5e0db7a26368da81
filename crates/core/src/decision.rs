//! Migrate-vs-remote-access decision schemes (paper §3).
//!
//! *"Clearly, the migration-vs.-remote-access decision is crucial to
//! EM²-RA performance"* — the paper introduces the analytical model
//! (see `em2-optimal`) precisely to evaluate "hardware-implementable
//! decision schemes". This module provides that scheme family:
//!
//! | scheme | hardware analogue |
//! |--------|-------------------|
//! | [`AlwaysMigrate`] | pure EM² (the baseline machine) |
//! | [`AlwaysRemote`]  | pure remote-access coherence (cf. \[15\]) |
//! | [`DistanceThreshold`] | migrate only to nearby homes |
//! | [`CostBreakEven`] | static expected-run-length comparison |
//! | [`HistoryPredictor`] | per-(thread, home) last-run-length predictor |
//! | [`MarkovPredictor`] | run length conditioned on the previous run's bucket |
//! | [`OracleSchedule`] | replay of the DP-optimal decision sequence |

use em2_model::bytes::{to_vec, Cursor};
use em2_model::{AccessKind, CoreId, CostModel, ThreadId, WordMap};

/// The two ways to reach a remotely-homed word (Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Move the execution context to the home core.
    Migrate,
    /// Round-trip remote cache access; the thread stays put.
    Remote,
}

/// Everything a scheme may inspect when deciding one access.
#[derive(Clone, Copy, Debug)]
pub struct DecisionCtx<'a> {
    /// The accessing thread.
    pub thread: ThreadId,
    /// Core the thread currently executes on.
    pub current: CoreId,
    /// Home core of the accessed address (≠ `current`).
    pub home: CoreId,
    /// The thread's native core.
    pub native: CoreId,
    /// Read or write.
    pub kind: AccessKind,
    /// The shared cost model (distances, latencies).
    pub cost: &'a CostModel,
}

impl DecisionCtx<'_> {
    /// The break-even rule: migrate when one migration costs no more
    /// than the round trips a run of `expected_run` accesses at the
    /// home would. The cost-aware schemes differ only in where
    /// `expected_run` comes from.
    #[inline]
    pub fn break_even(&self, expected_run: f64) -> Decision {
        let mig = self.cost.migration_latency(self.current, self.home) as f64;
        let ra = self
            .cost
            .remote_access_latency(self.current, self.home, self.kind) as f64;
        if mig <= ra * expected_run {
            Decision::Migrate
        } else {
            Decision::Remote
        }
    }
}

/// A per-access migrate-vs-remote policy. Schemes may keep state and
/// learn online from completed run lengths via
/// [`DecisionScheme::observe_run`].
pub trait DecisionScheme: Send {
    /// Decide how to serve one non-local access.
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision;

    /// Feedback: a run of `len` consecutive accesses by `thread` to
    /// memory homed at `home` just ended (native-core runs included —
    /// they are what the migrate-*home* decision amortizes over).
    /// Default: ignored.
    fn observe_run(&mut self, thread: ThreadId, home: CoreId, len: u64) {
        let _ = (thread, home, len);
    }

    /// Scheme name for reports.
    fn name(&self) -> String;

    /// Serialize the *learned* state (prediction tables, cursors) —
    /// what a cross-process migration ships alongside the task context
    /// so the scheme resumes in another address space with bit-equal
    /// behavior. Construction parameters (`alpha`, thresholds, …) are
    /// **not** included: every node builds the scheme from the same
    /// factory and only the mutable state crosses the wire. Stateless
    /// schemes ship nothing (the default).
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state captured by [`DecisionScheme::state_bytes`] into a
    /// freshly constructed instance. After `b.load_state(&a.state_bytes())`,
    /// `b` must decide and learn exactly as `a` would. The default
    /// accepts only an empty payload (stateless schemes).
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SchemeStateError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(SchemeStateError::new(format!(
                "scheme {:?} carries no state, got {} bytes",
                self.name(),
                bytes.len()
            )))
        }
    }
}

/// A scheme-state payload that a fresh instance could not restore
/// (wrong length, truncated table, mismatched scheme kind).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemeStateError(String);

impl SchemeStateError {
    /// Build an error with the given description.
    pub fn new(msg: impl Into<String>) -> Self {
        SchemeStateError(msg.into())
    }
}

impl std::fmt::Display for SchemeStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheme state: {}", self.0)
    }
}

impl std::error::Error for SchemeStateError {}

impl From<em2_model::bytes::CodecError> for SchemeStateError {
    fn from(e: em2_model::bytes::CodecError) -> Self {
        SchemeStateError::new(e.to_string())
    }
}

/// Pure EM²: always migrate (paper §2).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysMigrate;

impl DecisionScheme for AlwaysMigrate {
    fn decide(&mut self, _ctx: &DecisionCtx<'_>) -> Decision {
        Decision::Migrate
    }

    fn name(&self) -> String {
        "always-migrate".into()
    }
}

/// Pure remote-access machine: never migrate. Every non-local access
/// pays a round trip — the OS/library-coherence alternative the paper
/// cites as \[15\] (Fensch & Cintra).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysRemote;

impl DecisionScheme for AlwaysRemote {
    fn decide(&mut self, _ctx: &DecisionCtx<'_>) -> Decision {
        Decision::Remote
    }

    fn name(&self) -> String {
        "always-remote".into()
    }
}

/// Migrate when the home is within `max_hops`; otherwise remote access.
/// Rationale: migration cost grows with distance (big context × hops),
/// so long hauls amortize worse.
#[derive(Clone, Copy, Debug)]
pub struct DistanceThreshold {
    /// Maximum hop distance at which the scheme still migrates.
    pub max_hops: u64,
}

impl DecisionScheme for DistanceThreshold {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        if ctx.cost.hops(ctx.current, ctx.home) <= self.max_hops {
            Decision::Migrate
        } else {
            Decision::Remote
        }
    }

    fn name(&self) -> String {
        format!("distance<={}", self.max_hops)
    }
}

/// Static break-even test: migrate when one migration costs less than
/// `expected_run` remote accesses would. With `expected_run = 1` this
/// approximates "migrate only if a migration is outright cheaper than
/// a single round trip" (it rarely is, given the 1–2 Kbit context).
#[derive(Clone, Copy, Debug)]
pub struct CostBreakEven {
    /// Assumed number of consecutive same-home accesses a migration
    /// would amortize over.
    pub expected_run: f64,
}

impl DecisionScheme for CostBreakEven {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        ctx.break_even(self.expected_run)
    }

    fn name(&self) -> String {
        format!("break-even(run={})", self.expected_run)
    }
}

/// `(thread, core)` as one word, thread above core: the predictors'
/// tables hash a single `u64`, and numeric key order is
/// `(thread, core)` order — the order `state_bytes` emits, so equal
/// learned state is equal bytes whatever order it was learned in.
#[inline]
fn pair_key(thread: ThreadId, core: CoreId) -> u64 {
    (u64::from(thread.0) << 16) | u64::from(core.0)
}

/// The `(thread, core)` ids a [`pair_key`] packs.
#[inline]
fn pair_ids(pair: u64) -> (u32, u16) {
    ((pair >> 16) as u32, pair as u16)
}

/// A table's entries in ascending key order.
fn sorted_entries<V: Copy>(table: &WordMap<u64, V>) -> Vec<(u64, V)> {
    let mut entries: Vec<(u64, V)> = table.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// Last-value run-length predictor, keyed by (thread, home core):
/// migrate when the *predicted* run length amortizes a migration.
/// This is the kind of small-table scheme a core could implement in
/// hardware — the paper's "fast core-local decision for every memory
/// access".
#[derive(Clone, Debug)]
pub struct HistoryPredictor {
    /// Predicted run length for unseen (thread, home) pairs.
    pub initial_prediction: f64,
    /// Exponential smoothing factor in (0, 1]; 1.0 = last value wins.
    pub alpha: f64,
    /// [`pair_key`]`(thread, home)` → EWMA of the run lengths seen there.
    table: WordMap<u64, f64>,
}

impl HistoryPredictor {
    /// A predictor starting from `initial_prediction` with smoothing
    /// `alpha`.
    pub fn new(initial_prediction: f64, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        HistoryPredictor {
            initial_prediction,
            alpha,
            table: WordMap::default(),
        }
    }

    /// Current prediction for a (thread, home) pair.
    pub fn prediction(&self, thread: ThreadId, home: CoreId) -> f64 {
        self.table
            .get(&pair_key(thread, home))
            .copied()
            .unwrap_or(self.initial_prediction)
    }
}

impl DecisionScheme for HistoryPredictor {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        ctx.break_even(self.prediction(ctx.thread, ctx.home))
    }

    fn observe_run(&mut self, thread: ThreadId, home: CoreId, len: u64) {
        let e = self
            .table
            .entry(pair_key(thread, home))
            .or_insert(self.initial_prediction);
        *e = (1.0 - self.alpha) * *e + self.alpha * len as f64;
    }

    fn name(&self) -> String {
        format!("history(a={})", self.alpha)
    }

    fn state_bytes(&self) -> Vec<u8> {
        to_vec(4 + self.table.len() * 14, |w| {
            w.bytes(&(self.table.len() as u32).to_le_bytes());
            for (pair, p) in sorted_entries(&self.table) {
                let (t, c) = pair_ids(pair);
                w.bytes(&t.to_le_bytes());
                w.bytes(&c.to_le_bytes());
                w.u64(p.to_bits());
            }
        })
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SchemeStateError> {
        let mut r = Cursor::new(bytes);
        let n = r.u32()?;
        self.table.clear();
        for _ in 0..n {
            let key = pair_key(ThreadId(r.u32()?), CoreId(r.u16()?));
            self.table.insert(key, f64::from_bits(r.u64()?));
        }
        Ok(r.finish()?)
    }
}

/// Markov run-length predictor: a second-order scheme keyed by
/// `(thread, home, bucket(previous run length))`.
///
/// E4 shows why the last-value [`HistoryPredictor`] fails on OCEAN:
/// runs at the *same* home core alternate between Figure 2's two modes
/// (stencil one-offs and block-width bursts), so a single per-home
/// average mispredicts both. Conditioning the prediction on the
/// *previous* run's length bucket separates the modes: after a 1-run
/// the next run at that home is usually another 1; after an 8-run,
/// usually another burst. Still a small hardware table (the paper's
/// "fast core-local decision" requirement): ~5 buckets × homes.
#[derive(Clone, Debug)]
pub struct MarkovPredictor {
    initial_prediction: f64,
    alpha: f64,
    /// `(`[`pair_key`]`(thread, home) << 8) | prev-bucket` → EWMA of the
    /// following run length.
    table: WordMap<u64, f64>,
    /// [`pair_key`]`(thread, home)` → previous run's bucket.
    last_bucket: WordMap<u64, u8>,
}

impl MarkovPredictor {
    /// A predictor with the given cold-start prediction and smoothing.
    pub fn new(initial_prediction: f64, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        MarkovPredictor {
            initial_prediction,
            alpha,
            table: WordMap::default(),
            last_bucket: WordMap::default(),
        }
    }

    /// Log₂-ish run-length buckets: 1 / 2–3 / 4–7 / 8–15 / 16+.
    pub fn bucket(len: u64) -> u8 {
        match len {
            0 | 1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            8..=15 => 3,
            _ => 4,
        }
    }

    /// Current prediction for the next run of `(thread, home)`.
    pub fn prediction(&self, thread: ThreadId, home: CoreId) -> f64 {
        let pair = pair_key(thread, home);
        let b = self.last_bucket.get(&pair).copied().unwrap_or(0);
        self.table
            .get(&((pair << 8) | u64::from(b)))
            .copied()
            .unwrap_or(self.initial_prediction)
    }
}

impl DecisionScheme for MarkovPredictor {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        ctx.break_even(self.prediction(ctx.thread, ctx.home))
    }

    fn observe_run(&mut self, thread: ThreadId, home: CoreId, len: u64) {
        let pair = pair_key(thread, home);
        let prev = self
            .last_bucket
            .insert(pair, Self::bucket(len))
            .unwrap_or(0);
        let e = self
            .table
            .entry((pair << 8) | u64::from(prev))
            .or_insert(self.initial_prediction);
        *e = (1.0 - self.alpha) * *e + self.alpha * len as f64;
    }

    fn name(&self) -> String {
        format!("markov(a={})", self.alpha)
    }

    fn state_bytes(&self) -> Vec<u8> {
        let max = 8 + self.table.len() * 15 + self.last_bucket.len() * 7;
        to_vec(max, |w| {
            w.bytes(&(self.table.len() as u32).to_le_bytes());
            for (key, p) in sorted_entries(&self.table) {
                let (t, c) = pair_ids(key >> 8);
                w.bytes(&t.to_le_bytes());
                w.bytes(&c.to_le_bytes());
                w.u8(key as u8);
                w.u64(p.to_bits());
            }
            w.bytes(&(self.last_bucket.len() as u32).to_le_bytes());
            for (pair, k) in sorted_entries(&self.last_bucket) {
                let (t, c) = pair_ids(pair);
                w.bytes(&t.to_le_bytes());
                w.bytes(&c.to_le_bytes());
                w.u8(k);
            }
        })
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SchemeStateError> {
        let mut r = Cursor::new(bytes);
        let n = r.u32()?;
        self.table.clear();
        for _ in 0..n {
            let pair = pair_key(ThreadId(r.u32()?), CoreId(r.u16()?));
            let key = (pair << 8) | u64::from(r.u8()?);
            self.table.insert(key, f64::from_bits(r.u64()?));
        }
        let n = r.u32()?;
        self.last_bucket.clear();
        for _ in 0..n {
            let pair = pair_key(ThreadId(r.u32()?), CoreId(r.u16()?));
            self.last_bucket.insert(pair, r.u8()?);
        }
        Ok(r.finish()?)
    }
}

/// Replays a precomputed per-thread decision sequence — used to feed
/// the DP-optimal schedule from `em2-optimal` back into the simulator
/// (experiment E4's "how close is the bound" check).
///
/// The `k`-th non-local access of thread `t` takes
/// `schedule[t][k]`; if a thread consumes more decisions than
/// scheduled, the scheme falls back to `Migrate` (pure EM²).
#[derive(Clone, Debug)]
pub struct OracleSchedule {
    schedule: Vec<Vec<Decision>>,
    cursor: Vec<usize>,
}

impl OracleSchedule {
    /// Wrap per-thread decision sequences.
    pub fn new(schedule: Vec<Vec<Decision>>) -> Self {
        let cursor = vec![0; schedule.len()];
        OracleSchedule { schedule, cursor }
    }

    /// Decisions consumed so far by each thread.
    pub fn consumed(&self) -> &[usize] {
        &self.cursor
    }
}

impl DecisionScheme for OracleSchedule {
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let t = ctx.thread.index();
        if t >= self.schedule.len() {
            return Decision::Migrate;
        }
        let k = self.cursor[t];
        self.cursor[t] += 1;
        self.schedule[t]
            .get(k)
            .copied()
            .unwrap_or(Decision::Migrate)
    }

    fn name(&self) -> String {
        "oracle-schedule".into()
    }

    fn state_bytes(&self) -> Vec<u8> {
        to_vec(4 + self.cursor.len() * 8, |w| {
            w.bytes(&(self.cursor.len() as u32).to_le_bytes());
            for &c in &self.cursor {
                w.u64(c as u64);
            }
        })
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), SchemeStateError> {
        let mut r = Cursor::new(bytes);
        let n = r.u32()? as usize;
        if n != self.cursor.len() {
            return Err(SchemeStateError::new(format!(
                "oracle cursor count {n} != schedule thread count {}",
                self.cursor.len()
            )));
        }
        for c in &mut self.cursor {
            *c = r.u64()? as usize;
        }
        Ok(r.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cost: &CostModel, cur: (u16, u16), home: (u16, u16)) -> DecisionCtx<'_> {
        DecisionCtx {
            thread: ThreadId(0),
            current: cost.mesh.at(cur.0, cur.1),
            home: cost.mesh.at(home.0, home.1),
            native: cost.mesh.at(0, 0),
            kind: AccessKind::Read,
            cost,
        }
    }

    #[test]
    fn constant_schemes() {
        let cm = CostModel::default();
        let c = ctx(&cm, (0, 0), (5, 5));
        assert_eq!(AlwaysMigrate.decide(&c), Decision::Migrate);
        assert_eq!(AlwaysRemote.decide(&c), Decision::Remote);
    }

    #[test]
    fn distance_threshold_splits_by_hops() {
        let cm = CostModel::default();
        let mut s = DistanceThreshold { max_hops: 3 };
        assert_eq!(s.decide(&ctx(&cm, (0, 0), (1, 1))), Decision::Migrate); // 2 hops
        assert_eq!(s.decide(&ctx(&cm, (0, 0), (2, 1))), Decision::Migrate); // 3 hops
        assert_eq!(s.decide(&ctx(&cm, (0, 0), (4, 4))), Decision::Remote); // 8 hops
    }

    #[test]
    fn break_even_depends_on_expected_run() {
        let cm = CostModel::default();
        let c = ctx(&cm, (0, 0), (3, 3));
        // With a big expected run, migration amortizes.
        assert_eq!(
            CostBreakEven {
                expected_run: 100.0
            }
            .decide(&c),
            Decision::Migrate
        );
        // Run of ~0: nothing amortizes, remote wins.
        assert_eq!(
            CostBreakEven { expected_run: 0.01 }.decide(&c),
            Decision::Remote
        );
    }

    #[test]
    fn history_predictor_learns() {
        let cm = CostModel::default();
        let mut s = HistoryPredictor::new(1.0, 1.0); // last value wins
        let c = ctx(&cm, (0, 0), (3, 3));
        // Initially predicts 1 access per visit → remote (context is
        // ~1 Kbit, a migration can't beat one small round trip).
        assert_eq!(s.decide(&c), Decision::Remote);
        // After observing long runs at that home, it migrates.
        s.observe_run(ThreadId(0), cm.mesh.at(3, 3), 50);
        assert_eq!(s.decide(&c), Decision::Migrate);
        assert_eq!(s.prediction(ThreadId(0), cm.mesh.at(3, 3)), 50.0);
        // Other homes unaffected.
        assert_eq!(s.prediction(ThreadId(0), cm.mesh.at(1, 1)), 1.0);
    }

    #[test]
    fn history_predictor_smooths() {
        let mut s = HistoryPredictor::new(0.0, 0.5);
        s.observe_run(ThreadId(1), CoreId(2), 8);
        assert_eq!(s.prediction(ThreadId(1), CoreId(2)), 4.0);
        s.observe_run(ThreadId(1), CoreId(2), 8);
        assert_eq!(s.prediction(ThreadId(1), CoreId(2)), 6.0);
    }

    #[test]
    fn markov_buckets() {
        assert_eq!(MarkovPredictor::bucket(1), 0);
        assert_eq!(MarkovPredictor::bucket(2), 1);
        assert_eq!(MarkovPredictor::bucket(3), 1);
        assert_eq!(MarkovPredictor::bucket(7), 2);
        assert_eq!(MarkovPredictor::bucket(8), 3);
        assert_eq!(MarkovPredictor::bucket(100), 4);
    }

    #[test]
    fn markov_separates_alternating_modes() {
        // Ocean-like sequence at one home: 1,1,1,8,1,1,1,8,… — after
        // learning, the prediction following a 1-run must differ from
        // the prediction following an 8-run.
        let mut s = MarkovPredictor::new(1.0, 0.5);
        let (t, h) = (ThreadId(0), CoreId(3));
        for _ in 0..20 {
            s.observe_run(t, h, 1);
            s.observe_run(t, h, 1);
            s.observe_run(t, h, 1);
            s.observe_run(t, h, 8);
        }
        // After the final 8-run (bucket 3), the table predicts what
        // followed 8-runs historically: a 1.
        let after_burst = s.prediction(t, h);
        assert!(
            after_burst < 2.0,
            "after a burst comes a single: {after_burst}"
        );
        s.observe_run(t, h, 1);
        s.observe_run(t, h, 1);
        // Mid-singles: mostly 1s follow, but every 4th is an 8 — the
        // conditional mean stays low but above 1.
        let mid = s.prediction(t, h);
        assert!(mid < 5.0, "{mid}");
    }

    #[test]
    fn markov_learns_pure_bursts() {
        let cm = CostModel::default();
        let mut s = MarkovPredictor::new(1.0, 1.0);
        let c = ctx(&cm, (0, 0), (3, 3));
        assert_eq!(s.decide(&c), Decision::Remote, "cold start: remote");
        for _ in 0..3 {
            s.observe_run(ThreadId(0), cm.mesh.at(3, 3), 40);
        }
        assert_eq!(s.decide(&c), Decision::Migrate, "learned bursts: migrate");
    }

    #[test]
    fn oracle_replays_and_falls_back() {
        let cm = CostModel::default();
        let mut s = OracleSchedule::new(vec![vec![Decision::Remote, Decision::Migrate]]);
        let c = ctx(&cm, (0, 0), (1, 0));
        assert_eq!(s.decide(&c), Decision::Remote);
        assert_eq!(s.decide(&c), Decision::Migrate);
        assert_eq!(
            s.decide(&c),
            Decision::Migrate,
            "fallback after schedule ends"
        );
        assert_eq!(s.consumed(), &[3]);
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(AlwaysMigrate.name(), "always-migrate");
        assert!(DistanceThreshold { max_hops: 2 }.name().contains('2'));
        assert!(HistoryPredictor::new(1.0, 0.5).name().contains("0.5"));
    }

    #[test]
    fn stateless_schemes_ship_nothing_and_reject_garbage() {
        let mut s = AlwaysMigrate;
        assert!(s.state_bytes().is_empty());
        assert!(s.load_state(&[]).is_ok());
        assert!(s.load_state(&[1, 2, 3]).is_err());
        assert!(DistanceThreshold { max_hops: 2 }.state_bytes().is_empty());
        assert!(CostBreakEven { expected_run: 2.0 }.state_bytes().is_empty());
    }

    #[test]
    fn history_state_round_trips_bit_exactly() {
        let mut a = HistoryPredictor::new(1.0, 0.5);
        for i in 0..40u64 {
            a.observe_run(ThreadId((i % 3) as u32), CoreId((i % 5) as u16), i + 1);
        }
        let mut b = HistoryPredictor::new(1.0, 0.5);
        b.load_state(&a.state_bytes()).expect("round trip");
        for t in 0..3u32 {
            for c in 0..6u16 {
                // Bit-equality, not approximate: the EWMA must continue
                // identically in the restored instance.
                assert_eq!(
                    a.prediction(ThreadId(t), CoreId(c)).to_bits(),
                    b.prediction(ThreadId(t), CoreId(c)).to_bits()
                );
            }
        }
        // And behavior stays locked after further feedback.
        a.observe_run(ThreadId(0), CoreId(1), 9);
        b.observe_run(ThreadId(0), CoreId(1), 9);
        assert_eq!(
            a.prediction(ThreadId(0), CoreId(1)).to_bits(),
            b.prediction(ThreadId(0), CoreId(1)).to_bits()
        );
    }

    #[test]
    fn scheme_state_keeps_its_exact_bytes() {
        // Length and FNV-1a of each learning scheme's state after the
        // same runs: a field that moves or changes width shows here.
        let (mut h, mut m) = (
            HistoryPredictor::new(1.0, 0.5),
            MarkovPredictor::new(1.0, 0.5),
        );
        for i in 0..60u64 {
            let (t, c) = (ThreadId((i % 3) as u32), CoreId((i % 4) as u16));
            h.observe_run(t, c, (i % 11) + 1);
            m.observe_run(t, c, (i % 11) + 1);
        }
        let mut o = OracleSchedule::new(vec![vec![Decision::Remote]; 3]);
        let cm = CostModel::default();
        o.decide(&ctx(&cm, (0, 0), (1, 0)));
        let pins = [
            (h.state_bytes(), 172, 0x1a16_9b8c_2404_3648),
            (m.state_bytes(), 587, 0xa707_9fad_30cf_6316),
            (o.state_bytes(), 28, 0x9542_6f30_246c_6927),
        ];
        for (b, len, want) in pins {
            let digest = em2_model::hash::fnv1a(em2_model::hash::FNV1A_INIT, &b);
            assert_eq!((b.len(), digest), (len, want));
        }
    }

    #[test]
    fn markov_state_round_trips_bit_exactly() {
        let mut a = MarkovPredictor::new(1.0, 0.5);
        for i in 0..60u64 {
            a.observe_run(
                ThreadId((i % 2) as u32),
                CoreId((i % 4) as u16),
                (i % 11) + 1,
            );
        }
        let mut b = MarkovPredictor::new(1.0, 0.5);
        b.load_state(&a.state_bytes()).expect("round trip");
        for t in 0..2u32 {
            for c in 0..4u16 {
                assert_eq!(
                    a.prediction(ThreadId(t), CoreId(c)).to_bits(),
                    b.prediction(ThreadId(t), CoreId(c)).to_bits()
                );
            }
        }
    }

    /// Equal learned state is equal bytes: each `(thread, home)` key
    /// sees its own runs in the same order (an EWMA is order-dependent
    /// per key), but the keys are visited forwards by one predictor and
    /// backwards by the other, so the tables are filled in different
    /// orders. Red with map-iteration-order emission.
    #[test]
    fn state_bytes_do_not_depend_on_learning_order() {
        let keys: Vec<(ThreadId, CoreId)> = (0..7u32)
            .flat_map(|t| (0..9u16).map(move |c| (ThreadId(t * 37), CoreId(c * 5))))
            .collect();
        let runs = [3u64, 1, 12, 1, 40];
        fn learn<S: DecisionScheme>(
            mut s: S,
            keys: impl Iterator<Item = (ThreadId, CoreId)>,
            runs: &[u64],
        ) -> S {
            for (t, c) in keys {
                for &len in runs {
                    s.observe_run(t, c, len + u64::from(c.0));
                }
            }
            s
        }

        let a = learn(HistoryPredictor::new(1.0, 0.5), keys.iter().copied(), &runs);
        let b = learn(
            HistoryPredictor::new(1.0, 0.5),
            keys.iter().rev().copied(),
            &runs,
        );
        assert_eq!(a.state_bytes(), b.state_bytes());
        let mut c = HistoryPredictor::new(1.0, 0.5);
        c.load_state(&a.state_bytes()).expect("round trip");
        assert_eq!(c.state_bytes(), a.state_bytes());
        for &(t, h) in &keys {
            assert_eq!(a.prediction(t, h).to_bits(), c.prediction(t, h).to_bits());
        }
        // Entries are 14 bytes after the count; thread then core, both
        // little-endian, strictly ascending as a pair.
        let bytes = a.state_bytes();
        let entry_keys: Vec<(u32, u16)> = bytes[4..]
            .chunks(14)
            .map(|e| {
                (
                    u32::from_le_bytes(e[..4].try_into().expect("thread")),
                    u16::from_le_bytes(e[4..6].try_into().expect("core")),
                )
            })
            .collect();
        assert_eq!(entry_keys.len(), keys.len());
        assert!(entry_keys.windows(2).all(|w| w[0] < w[1]), "{entry_keys:?}");

        let a = learn(MarkovPredictor::new(1.0, 0.5), keys.iter().copied(), &runs);
        let b = learn(
            MarkovPredictor::new(1.0, 0.5),
            keys.iter().rev().copied(),
            &runs,
        );
        assert_eq!(a.state_bytes(), b.state_bytes());
        let mut c = MarkovPredictor::new(1.0, 0.5);
        c.load_state(&a.state_bytes()).expect("round trip");
        assert_eq!(c.state_bytes(), a.state_bytes());
        for &(t, h) in &keys {
            assert_eq!(
                a.prediction(t, h).to_bits(),
                c.prediction(t, h).to_bits(),
                "{t:?} at {h:?}"
            );
        }
    }

    #[test]
    fn oracle_state_round_trips_and_checks_shape() {
        let cm = CostModel::default();
        let mut a = OracleSchedule::new(vec![vec![Decision::Remote, Decision::Migrate]]);
        let c = ctx(&cm, (0, 0), (1, 0));
        let _ = a.decide(&c);
        let mut b = OracleSchedule::new(vec![vec![Decision::Remote, Decision::Migrate]]);
        b.load_state(&a.state_bytes()).expect("round trip");
        assert_eq!(b.consumed(), &[1]);
        assert_eq!(b.decide(&c), Decision::Migrate, "resumes mid-schedule");
        let mut wrong = OracleSchedule::new(vec![vec![], vec![]]);
        assert!(wrong.load_state(&a.state_bytes()).is_err());
    }

    #[test]
    fn truncated_state_is_a_typed_error_never_a_panic() {
        let mut a = HistoryPredictor::new(1.0, 0.5);
        a.observe_run(ThreadId(0), CoreId(1), 7);
        let full = a.state_bytes();
        for cut in 0..full.len() {
            let mut b = HistoryPredictor::new(1.0, 0.5);
            assert!(
                b.load_state(&full[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut trailing = full.clone();
        trailing.push(0xAB);
        let mut b = HistoryPredictor::new(1.0, 0.5);
        assert!(b.load_state(&trailing).is_err(), "trailing bytes rejected");
    }
}
