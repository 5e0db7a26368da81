//! Epoch-versioned shard ownership: the directory that replaces the
//! static "node → contiguous shard range" map.
//!
//! A [`ShardDirectory`] holds, for every shard in the cluster, the id
//! of the node that currently owns it, plus a monotonically increasing
//! **epoch** counter that versions the whole map. Ownership lookups on
//! the send path are a single atomic load — no lock, no indirection — so
//! every send, in one process or across many, takes the same
//! directory-checked path. Writes are rare (a freeze, a claim, a
//! commit) and all take one internal lock ([`ShardDirectory::write`]).
//!
//! The epoch advances exactly once per committed shard handoff, so its
//! value doubles as a count of completed handoffs. In-flight frames
//! are stamped with the sender's epoch; a receiver that no longer owns
//! the target shard bounces the frame back (see `em2-net`), and the
//! sender re-routes against its updated directory. The fencing
//! argument lives in DESIGN.md §13.
//!
//! Both the runtime (`Shared`) and the link layer (`Links` in
//! `em2-net`) hold the *same* `Arc<ShardDirectory>`, so an ownership
//! flip performed during a handoff is observed atomically by the send
//! path, the receive path, and the executor.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-shard ownership map versioned by a monotonically increasing
/// epoch. See the module docs for the role this plays in live handoff.
#[derive(Debug)]
pub struct ShardDirectory {
    /// The node whose view this is ([`ShardDirectory::install`] never
    /// disowns it).
    node: u32,
    epoch: AtomicU64,
    owners: Vec<AtomicU32>,
    /// Serializes every write ([`ShardDirectory::write`]); readers
    /// never take it. A leaf: nothing sends, blocks, wakes or takes
    /// another lock under it.
    writer: Mutex<()>,
}

impl ShardDirectory {
    /// Build node `node`'s directory from an explicit initial
    /// assignment.
    pub fn new(node: u32, epoch: u64, owners: &[u32]) -> Self {
        Self {
            node,
            epoch: AtomicU64::new(epoch),
            owners: owners.iter().map(|&o| AtomicU32::new(o)).collect(),
            writer: Mutex::new(()),
        }
    }

    /// Directory of the one-node cluster a single process is: every
    /// shard owned by node 0, epoch 0.
    pub fn single_process(shards: usize) -> Self {
        Self::new(0, 0, &vec![0; shards])
    }

    /// Total number of shards the directory covers (cluster-wide).
    pub fn shards(&self) -> usize {
        self.owners.len()
    }

    /// Current epoch. Starts at the cluster's initial epoch and is
    /// bumped once per committed handoff, so `epoch() -
    /// initial_epoch` counts completed handoffs.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Node that currently owns `shard`. Panics on out-of-range shard
    /// ids (callers validate against `shards()` first).
    pub fn owner_of(&self, shard: usize) -> u32 {
        self.owners[shard].load(Ordering::Acquire)
    }

    /// Run `f` as one write: no other write — a [`set_owner`], an
    /// [`install`], another `write` — runs meanwhile, and whatever `f`
    /// stores or reads besides (the runtime puts its barrier flags
    /// here) is ordered against them by the same mutual exclusion.
    /// `f` gets the owner store; it must not send, block, or call back
    /// into a writing method.
    ///
    /// [`set_owner`]: ShardDirectory::set_owner
    /// [`install`]: ShardDirectory::install
    pub fn write<R>(&self, f: impl FnOnce(&dyn Fn(usize, u32)) -> R) -> R {
        let _writer = self.writer.lock().expect("directory writer");
        f(&|shard, node| self.owners[shard].store(node, Ordering::Release))
    }

    /// Flip a single shard's owner without bumping the epoch. Used
    /// during the Freeze step of a handoff: the source node redirects
    /// new sends toward the destination *before* the state ships, and
    /// the epoch is bumped only when the coordinator commits.
    ///
    /// The freeze calls this under the shard's mailbox lock, and the
    /// send path re-reads the owner under the same lock
    /// before it pushes, so a send either precedes the flip or observes
    /// it — that lock orders them, not this store.
    pub fn set_owner(&self, shard: usize, node: u32) {
        self.write(|store| store(shard, node));
    }

    /// Install a complete (epoch, ownership) view, as broadcast by the
    /// coordinator on commit. Stale installs (epoch older than what we
    /// already have) are ignored so reordered updates cannot roll the
    /// directory backwards.
    ///
    /// Entries that currently name this directory's node are kept.
    /// Ownership leaves a node only through its own freeze, which
    /// rewrites its entry first; so a map that would disown the node
    /// was sealed before the handoff that made it the owner (the frozen
    /// shard beat an older commit's broadcast here) and that handoff's
    /// own commit, still in flight, will agree. Taking the older map
    /// verbatim would leave the shard in a runtime whose directory says
    /// it is elsewhere — and, for one, every barrier release would skip
    /// its parked tasks.
    ///
    /// The owners are stored *before* the epoch (Release), so a
    /// reader that loads the epoch first ([`ShardDirectory::epoch`],
    /// Acquire) and then an owner sees a map at least as new as that
    /// epoch. The send path in `em2-net` relies on this to stamp
    /// outgoing frames with an epoch no newer than the map that
    /// routed them.
    pub fn install(&self, epoch: u64, owners: &[u32]) -> bool {
        debug_assert_eq!(owners.len(), self.owners.len());
        self.write(|store| {
            if epoch <= self.epoch() {
                return false;
            }
            for (shard, &o) in owners.iter().enumerate() {
                if self.owner_of(shard) != self.node {
                    store(shard, o);
                }
            }
            self.epoch.store(epoch, Ordering::Release);
            true
        })
    }

    /// Snapshot the current ownership vector (for broadcast/digest).
    pub fn snapshot(&self) -> Vec<u32> {
        (0..self.shards()).map(|s| self.owner_of(s)).collect()
    }

    /// Shard ids currently owned by `node`, in ascending order.
    pub fn owned_shards(&self, node: u32) -> Vec<usize> {
        (0..self.shards())
            .filter(|&s| self.owner_of(s) == node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_owns_everything_at_epoch_zero() {
        let d = ShardDirectory::single_process(8);
        assert_eq!(d.epoch(), 0);
        assert_eq!(d.shards(), 8);
        for s in 0..8 {
            assert_eq!(d.owner_of(s), 0);
        }
        assert_eq!(d.owned_shards(0), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn set_owner_flips_one_shard_without_bumping_epoch() {
        let d = ShardDirectory::new(0, 3, &[0, 0, 1, 1]);
        d.set_owner(1, 1);
        assert_eq!(d.epoch(), 3);
        assert_eq!(d.snapshot(), vec![0, 1, 1, 1]);
        assert_eq!(d.owned_shards(1), vec![1, 2, 3]);
    }

    #[test]
    fn install_rejects_stale_epochs() {
        let d = ShardDirectory::new(2, 5, &[0, 1]);
        assert!(!d.install(5, &[1, 1]), "same epoch must not install");
        assert!(!d.install(4, &[1, 1]), "older epoch must not install");
        assert_eq!(d.snapshot(), vec![0, 1]);
        assert!(d.install(6, &[1, 1]));
        assert_eq!(d.epoch(), 6);
        assert_eq!(d.snapshot(), vec![1, 1]);
    }
}
