//! Per-core execution contexts: native and guest slots.
//!
//! Paper §2: *"For deadlock-free migrations, each core has one native
//! context for each of the threads that originated on that core in
//! addition \[to\] the guest contexts for threads originally started on
//! other cores: an evicted thread travels to its dedicated native
//! context on a separate virtual network to avoid dependency loops and
//! deadlock."*
//!
//! [`ContextPool`] models one core's context file: an unbounded set of
//! reserved native slots (one per thread whose native core this is —
//! they are dedicated hardware, never contended) plus `G` guest slots
//! shared by visiting threads. An arriving guest that finds all guest
//! slots full triggers an eviction of a resident guest toward its
//! native core.

use em2_model::ThreadId;

/// Why a resident thread cannot be evicted right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestState {
    /// Ready or computing: may be evicted.
    Evictable,
    /// Mid remote-access (its context must stay until the response
    /// returns): may not be evicted.
    Pinned,
}

/// One occupied guest slot.
#[derive(Clone, Copy, Debug)]
struct GuestSlot {
    thread: ThreadId,
    state: GuestState,
    /// Last cycle the thread used the slot (for LRU victimization).
    last_active: u64,
}

/// The context file of one core.
pub struct ContextPool {
    /// Threads native to this core that are currently *present* (their
    /// slots always exist; this tracks presence only, for accounting).
    natives_present: Vec<ThreadId>,
    guests: Vec<GuestSlot>,
    guest_capacity: usize,
    /// Peak simultaneous guest occupancy (reporting).
    peak_guests: usize,
    /// Total evictions triggered by arrivals at this core.
    evictions: u64,
}

/// Result of trying to admit a guest thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A free guest slot was taken.
    Admitted,
    /// Admitted by evicting the given thread (it must travel to its
    /// native core on the eviction virtual network).
    AdmittedEvicting(ThreadId),
    /// All guest slots are pinned (mid remote-access); retry later.
    Stalled,
}

impl ContextPool {
    /// A pool with `guest_capacity` guest slots; a full pool evicts its
    /// least-recently-active evictable guest.
    pub fn new(guest_capacity: usize) -> Self {
        assert!(guest_capacity >= 1, "EM² needs at least one guest context");
        ContextPool {
            natives_present: Vec::new(),
            guests: Vec::with_capacity(guest_capacity),
            guest_capacity,
            peak_guests: 0,
            evictions: 0,
        }
    }

    /// Admit `thread` into its dedicated native slot (always succeeds:
    /// native contexts are reserved hardware).
    pub fn admit_native(&mut self, thread: ThreadId) {
        debug_assert!(
            !self.natives_present.contains(&thread),
            "{thread:?} already present in its native context"
        );
        self.natives_present.push(thread);
    }

    /// Remove a native thread (it migrated away or finished).
    pub fn remove_native(&mut self, thread: ThreadId) {
        if let Some(i) = self.natives_present.iter().position(|&t| t == thread) {
            self.natives_present.swap_remove(i);
        }
    }

    /// Admit `thread` as a guest at cycle `now`, evicting if necessary.
    pub fn admit_guest(&mut self, thread: ThreadId, now: u64) -> Admission {
        debug_assert!(
            !self.guests.iter().any(|g| g.thread == thread),
            "{thread:?} already a guest here"
        );
        if self.guests.len() < self.guest_capacity {
            self.guests.push(GuestSlot {
                thread,
                state: GuestState::Evictable,
                last_active: now,
            });
            self.peak_guests = self.peak_guests.max(self.guests.len());
            return Admission::Admitted;
        }
        // Full: pick the LRU evictable victim straight off the slots,
        // no scratch list (this runs on every admission to a full
        // pool). `min_by_key` keeps the first minimum: ties go to the
        // lowest slot.
        let chosen = self
            .guests
            .iter()
            .enumerate()
            .filter(|(_, g)| g.state == GuestState::Evictable)
            .min_by_key(|(_, g)| g.last_active);
        let Some((victim_idx, _)) = chosen else {
            return Admission::Stalled;
        };
        let victim = self.guests[victim_idx].thread;
        self.guests[victim_idx] = GuestSlot {
            thread,
            state: GuestState::Evictable,
            last_active: now,
        };
        self.evictions += 1;
        Admission::AdmittedEvicting(victim)
    }

    /// Remove a guest (it migrated away or finished).
    pub fn remove_guest(&mut self, thread: ThreadId) {
        if let Some(i) = self.guests.iter().position(|g| g.thread == thread) {
            self.guests.swap_remove(i);
        }
    }

    /// Mark a resident guest as pinned/unpinned (remote access in
    /// flight keeps its context captive). No-op for natives.
    pub fn set_guest_state(&mut self, thread: ThreadId, state: GuestState) {
        if let Some(g) = self.guests.iter_mut().find(|g| g.thread == thread) {
            g.state = state;
        }
    }

    /// Bump a resident guest's activity clock. No-op for natives.
    pub fn touch(&mut self, thread: ThreadId, now: u64) {
        if let Some(g) = self.guests.iter_mut().find(|g| g.thread == thread) {
            g.last_active = now;
        }
    }

    /// Is the thread resident here (native or guest)?
    pub fn is_resident(&self, thread: ThreadId) -> bool {
        self.natives_present.contains(&thread) || self.guests.iter().any(|g| g.thread == thread)
    }

    /// Current guest occupancy.
    pub fn guest_count(&self) -> usize {
        self.guests.len()
    }

    /// Guest capacity.
    pub fn guest_capacity(&self) -> usize {
        self.guest_capacity
    }

    /// Peak guest occupancy seen.
    pub fn peak_guests(&self) -> usize {
        self.peak_guests
    }

    /// Evictions triggered at this core.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Take every resident context out of the pool, for a live shard
    /// handoff: returns the present natives and the guests as
    /// `(thread, pinned, last_active)`, in slot order, leaving the pool
    /// empty. Telemetry (`peak_guests`, `evictions`) stays behind — it
    /// accrued here and is reported here.
    pub fn drain_residents(&mut self) -> (Vec<ThreadId>, Vec<(ThreadId, bool, u64)>) {
        let natives = std::mem::take(&mut self.natives_present);
        let guests = self
            .guests
            .drain(..)
            .map(|g| (g.thread, g.state == GuestState::Pinned, g.last_active))
            .collect();
        (natives, guests)
    }

    /// Re-admit a native context shipped by a handoff (same semantics
    /// as [`ContextPool::admit_native`]).
    pub fn restore_native(&mut self, thread: ThreadId) {
        self.admit_native(thread);
    }

    /// Re-admit a guest context shipped by a handoff, preserving its
    /// pin state and LRU stamp. Never evicts: the source pool held the
    /// guest legally under the same capacity, so the slot must exist.
    pub fn restore_guest(&mut self, thread: ThreadId, pinned: bool, last_active: u64) {
        debug_assert!(
            !self.guests.iter().any(|g| g.thread == thread),
            "{thread:?} already a guest here"
        );
        assert!(
            self.guests.len() < self.guest_capacity,
            "handoff restore overflows the guest pool (capacity mismatch between nodes?)"
        );
        self.guests.push(GuestSlot {
            thread,
            state: if pinned {
                GuestState::Pinned
            } else {
                GuestState::Evictable
            },
            last_active,
        });
        self.peak_guests = self.peak_guests.max(self.guests.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn natives_always_fit() {
        let mut p = ContextPool::new(1);
        for i in 0..10 {
            p.admit_native(t(i));
        }
        for i in 0..10 {
            assert!(p.is_resident(t(i)));
        }
        p.remove_native(t(3));
        assert!(!p.is_resident(t(3)));
    }

    #[test]
    fn guest_admission_until_full_then_evict_lru() {
        let mut p = ContextPool::new(2);
        assert_eq!(p.admit_guest(t(1), 10), Admission::Admitted);
        assert_eq!(p.admit_guest(t(2), 20), Admission::Admitted);
        // t1 is least recently active → evicted.
        assert_eq!(p.admit_guest(t(3), 30), Admission::AdmittedEvicting(t(1)));
        assert!(!p.is_resident(t(1)));
        assert!(p.is_resident(t(2)) && p.is_resident(t(3)));
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.peak_guests(), 2);
    }

    #[test]
    fn touch_updates_lru_order() {
        let mut p = ContextPool::new(2);
        p.admit_guest(t(1), 10);
        p.admit_guest(t(2), 20);
        p.touch(t(1), 50); // now t2 is LRU
        assert_eq!(p.admit_guest(t(3), 60), Admission::AdmittedEvicting(t(2)));
    }

    #[test]
    fn pinned_guests_are_not_evicted() {
        let mut p = ContextPool::new(2);
        p.admit_guest(t(1), 10);
        p.admit_guest(t(2), 20);
        p.set_guest_state(t(1), GuestState::Pinned);
        // t1 is LRU but pinned → t2 evicted instead.
        assert_eq!(p.admit_guest(t(3), 30), Admission::AdmittedEvicting(t(2)));
    }

    #[test]
    fn all_pinned_stalls() {
        let mut p = ContextPool::new(1);
        p.admit_guest(t(1), 10);
        p.set_guest_state(t(1), GuestState::Pinned);
        assert_eq!(p.admit_guest(t(2), 20), Admission::Stalled);
        // Unpinning allows progress.
        p.set_guest_state(t(1), GuestState::Evictable);
        assert_eq!(p.admit_guest(t(2), 30), Admission::AdmittedEvicting(t(1)));
    }

    #[test]
    fn lru_ties_evict_the_lowest_slot() {
        let mut p = ContextPool::new(3);
        p.admit_guest(t(1), 7);
        p.admit_guest(t(2), 5);
        p.admit_guest(t(3), 5);
        // t2 and t3 tie for least recent; t2 sits in the lower slot.
        assert_eq!(p.admit_guest(t(4), 9), Admission::AdmittedEvicting(t(2)));
        // t4 took slot 1 at 9; now t3 (5) is alone at the minimum.
        assert_eq!(p.admit_guest(t(5), 9), Admission::AdmittedEvicting(t(3)));
        // A pinned slot does not take part in the tie.
        p.touch(t(1), 9);
        p.set_guest_state(t(1), GuestState::Pinned);
        assert_eq!(p.admit_guest(t(6), 9), Admission::AdmittedEvicting(t(4)));
    }

    #[test]
    fn remove_guest_frees_slot() {
        let mut p = ContextPool::new(1);
        p.admit_guest(t(1), 1);
        p.remove_guest(t(1));
        assert_eq!(p.guest_count(), 0);
        assert_eq!(p.admit_guest(t(2), 2), Admission::Admitted);
    }

    #[test]
    #[should_panic(expected = "at least one guest")]
    fn zero_guest_capacity_rejected() {
        ContextPool::new(0);
    }

    #[test]
    fn drain_and_restore_round_trip_preserves_pins_and_lru() {
        let mut p = ContextPool::new(2);
        p.admit_native(t(0));
        p.admit_guest(t(1), 10);
        p.admit_guest(t(2), 20);
        p.set_guest_state(t(1), GuestState::Pinned);
        let (natives, guests) = p.drain_residents();
        assert_eq!(natives, vec![t(0)]);
        assert_eq!(guests, vec![(t(1), true, 10), (t(2), false, 20)]);
        assert!(!p.is_resident(t(0)) && p.guest_count() == 0);

        let mut q = ContextPool::new(2);
        for n in natives {
            q.restore_native(n);
        }
        for (g, pinned, at) in guests {
            q.restore_guest(g, pinned, at);
        }
        assert!(q.is_resident(t(0)) && q.is_resident(t(1)) && q.is_resident(t(2)));
        // The pin survived: t(1) cannot be the victim even though it is
        // LRU, and the restored stamps keep t(2) as the victim.
        assert_eq!(q.admit_guest(t(3), 30), Admission::AdmittedEvicting(t(2)));
    }
}
