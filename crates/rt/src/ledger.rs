//! The run ledger: when a barrier opens and when a run is over.
//!
//! Every barrier arrival, task retirement and closed admission in a
//! cluster is reported to one place — node 0's control plane in
//! `em2-net`, the private link of [`crate::Runtime::start`] in a single
//! process (a one-node cluster) — and that place keeps a [`RunLedger`].
//! It is a plain struct with no thread, lock, clock or message inside:
//! its holder serializes the calls (one mutex) and performs what a
//! `true` asks for — fan out the release of barrier `k`, or tell every
//! node the run has quiesced. Its two rules:
//!
//! * barrier `k` opens on exactly the arrival that meets its quota
//!   ([`em2_engine::barrier_quotas`]); a later arrival (a caller-supplied
//!   quota that was too small) finds it open and opens nothing — the
//!   engine's [`Quotas`], which the simulator's barriers hold too;
//! * the run is over once every node has closed admission **and** every
//!   submitted task has retired — in that order of evaluation, because a
//!   task may retire on a node other than the one that submitted it, so
//!   `retired` can match (or transiently exceed) the `submitted` sum
//!   while some node's close is still on its way.

use em2_engine::Quotas;

/// See the module docs.
#[derive(Debug)]
pub struct RunLedger {
    nodes: usize,
    quotas: Quotas,
    closed: usize,
    submitted: u64,
    retired: u64,
    over: bool,
}

impl RunLedger {
    /// The ledger of a `nodes`-node run whose barrier `k` opens on
    /// arrival number `barrier_quotas[k]`.
    pub fn new(nodes: usize, barrier_quotas: Vec<usize>) -> Self {
        RunLedger {
            nodes,
            quotas: Quotas::new(barrier_quotas),
            closed: 0,
            submitted: 0,
            retired: 0,
            over: false,
        }
    }

    /// A task arrived at barrier `k` and parked. `true`: this arrival
    /// opens the barrier — release it everywhere ([`Quotas::arrive`],
    /// whose panics it shares).
    pub fn arrive(&mut self, k: usize) -> bool {
        self.quotas.arrive(k)
    }

    /// A task retired.
    pub fn retire(&mut self) {
        self.retired += 1;
    }

    /// A node closed admission having submitted `submitted` tasks.
    /// `false` (and nothing counted): every node had already closed.
    pub fn close(&mut self, submitted: u64) -> bool {
        if self.closed == self.nodes {
            return false;
        }
        self.closed += 1;
        self.submitted += submitted;
        true
    }

    /// Is the run over? `true` exactly once: the first time it is asked
    /// after the last close and the last retirement.
    pub fn quiesce(&mut self) -> bool {
        if self.over || self.closed < self.nodes || self.retired != self.submitted {
            return false;
        }
        self.over = true;
        true
    }

    /// `(closed nodes, submitted, retired)`, for a post-mortem.
    pub fn counts(&self) -> (usize, u64, u64) {
        (self.closed, self.submitted, self.retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em2_model::DetRng;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        Arrive(usize),
        Retire,
        Close(u64),
    }

    /// Feed one order of a run's events to a fresh ledger, asking for
    /// quiesce after every retirement and close as both holders do:
    /// which arrival number opened each barrier, and the index of every
    /// event at which the run was declared over.
    fn play(nodes: usize, quotas: &[usize], script: &[Ev]) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut ledger = RunLedger::new(nodes, quotas.to_vec());
        let mut arrivals = vec![0usize; quotas.len()];
        let mut opened_at = vec![Vec::new(); quotas.len()];
        let mut over_at = Vec::new();
        for (i, &ev) in script.iter().enumerate() {
            match ev {
                Ev::Arrive(k) => {
                    arrivals[k] += 1;
                    if ledger.arrive(k) {
                        opened_at[k].push(arrivals[k]);
                    }
                    continue;
                }
                Ev::Retire => ledger.retire(),
                Ev::Close(n) => assert!(ledger.close(n), "{script:?}"),
            }
            if ledger.quiesce() {
                over_at.push(i);
            }
        }
        (opened_at, over_at)
    }

    /// Heap's algorithm: `f` sees every permutation of `script` once.
    fn for_each_order(script: &mut [Ev], f: &mut dyn FnMut(&[Ev])) {
        let mut c = vec![0; script.len()];
        f(script);
        let mut i = 1;
        while i < script.len() {
            if c[i] < i {
                script.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                f(script);
                c[i] += 1;
                i = 1;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    /// Every order of a small run's events, for one
    /// node and for three: each node closes once, every task retires
    /// once, and barrier 0 (quota 2) gets one arrival more than its
    /// quota. Whatever the order, the run is over exactly once — at the
    /// later of the last close and the last retirement, never before
    /// the last close — and the barrier opens on exactly its second
    /// arrival; the third opens nothing.
    ///
    /// Mutations tried, each red here: `quiesce` without the
    /// `closed < nodes` gate (3 nodes: over at a retirement that
    /// matched the closes so far); `arrive` on `>=` (the over-quota
    /// arrival opens the barrier a second time).
    #[test]
    fn every_order_of_closes_retirements_and_arrivals() {
        for submits in [vec![2u64], vec![1, 0, 2]] {
            let nodes = submits.len();
            let tasks: u64 = submits.iter().sum();
            let mut script: Vec<Ev> = submits.iter().map(|&n| Ev::Close(n)).collect();
            script.extend((0..tasks).map(|_| Ev::Retire));
            script.extend([Ev::Arrive(0); 3]);
            let mut orders = 0u32;
            for_each_order(&mut script, &mut |script| {
                orders += 1;
                let (opened_at, over_at) = play(nodes, &[2], script);
                assert_eq!(opened_at, [[2]], "{script:?}");
                let last = |want: fn(&Ev) -> bool| script.iter().rposition(want);
                let last_close = last(|e| matches!(e, Ev::Close(_)));
                let last_retire = last(|e| matches!(e, Ev::Retire));
                let due = last_close.max(last_retire).expect("every run closes");
                assert_eq!(over_at, [due], "{nodes} nodes: {script:?}");
            });
            let factorial: u32 = (1..=script.len() as u32).product();
            assert_eq!(orders, factorial, "every order visited");
        }
    }

    /// The same three properties over seeded shuffles of a larger run:
    /// three nodes, eleven tasks, three barriers of different quotas.
    #[test]
    fn seeded_orders_of_a_larger_run() {
        let quotas = [1, 4, 3];
        let submits = [5u64, 0, 6];
        let mut script: Vec<Ev> = submits.iter().map(|&n| Ev::Close(n)).collect();
        script.extend((0..11).map(|_| Ev::Retire));
        for (k, &q) in quotas.iter().enumerate() {
            script.extend((0..q + k).map(|_| Ev::Arrive(k)));
        }
        let mut rng = DetRng::new(0x1ED6E4);
        for _ in 0..2_000 {
            for i in (1..script.len()).rev() {
                script.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let (opened_at, over_at) = play(3, &quotas, &script);
            assert_eq!(opened_at, [[1], [4], [3]], "{script:?}");
            let settles = |e: &Ev| !matches!(e, Ev::Arrive(_));
            assert_eq!(over_at, [script.iter().rposition(settles).unwrap()]);
        }
    }

    #[test]
    fn a_close_too_many_is_refused_and_counts_nothing() {
        let mut ledger = RunLedger::new(2, Vec::new());
        assert!(ledger.close(3) && ledger.close(0));
        assert!(!ledger.close(7));
        assert_eq!(ledger.counts(), (2, 3, 0));
        // An empty run is over as soon as it is closed.
        let mut empty = RunLedger::new(1, Vec::new());
        assert!(!empty.quiesce());
        assert!(empty.close(0) && empty.quiesce() && !empty.quiesce());
    }

    #[test]
    #[should_panic(expected = "zero quota")]
    fn a_zero_quota_is_refused_loudly() {
        RunLedger::new(1, vec![0]).arrive(0);
    }
}
