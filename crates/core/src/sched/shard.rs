//! One range shard of the pending store.
//!
//! A [`Shard`] owns the slab, block index, admission queue, per-node
//! bind queues, and dirty-entry set for its slice of the block-id
//! space. The [`Scheduler`](super::Scheduler) composes `S` of these and
//! presents the same single-store API as the old monolithic layout; a
//! one-shard scheduler *is* the old layout, index for index.
//!
//! All fields are `pub(super)`: shard internals are only ever touched
//! from within `crates/core/src/sched` (the `pending-fence` lint keeps
//! the rest of the workspace on the Scheduler API).

use super::{Entry, OrderKey};
use dyrs_dfs::BlockId;
use std::collections::{BTreeMap, BTreeSet};

/// One shard of pending state. Index pairs are `(OrderKey, idx)` with
/// `idx` local to this shard's slab.
#[derive(Debug, Clone)]
pub(super) struct Shard {
    /// Entry slab; `None` slots are free (LIFO reuse via `free`).
    pub(super) raw_pending: Vec<Option<Entry>>,
    /// Free slots in `raw_pending`.
    pub(super) free: Vec<usize>,
    /// block → slot for blocks mapped to this shard.
    pub(super) by_block: BTreeMap<BlockId, usize>,
    /// This shard's slice of the admission order.
    pub(super) queue: BTreeSet<(OrderKey, usize)>,
    /// Per-node bind queues (entries targeted at the node).
    pub(super) targeted: Vec<BTreeSet<(OrderKey, usize)>>,
    /// Per-node replica membership (Naive-policy bind queue and the
    /// incremental pass's dirty-node walk set).
    pub(super) replica_idx: Vec<BTreeSet<(OrderKey, usize)>>,
    /// Running total of pending bytes in this shard.
    pub(super) pending_bytes: u64,
    /// Entries admitted (or re-admitted) here since the last pass.
    pub(super) dirty_entries: BTreeSet<(OrderKey, usize)>,
}

impl Shard {
    /// An empty shard for a cluster of `num_nodes` slaves.
    pub(super) fn new(num_nodes: usize) -> Self {
        Shard {
            raw_pending: Vec::new(),
            free: Vec::new(),
            by_block: BTreeMap::new(),
            queue: BTreeSet::new(),
            targeted: vec![BTreeSet::new(); num_nodes],
            replica_idx: vec![BTreeSet::new(); num_nodes],
            pending_bytes: 0,
            dirty_entries: BTreeSet::new(),
        }
    }

    /// Store `entry` in the slab (LIFO slot reuse) and return its slot.
    /// Index maintenance is the caller's job — the caller knows the key
    /// and which indexes the entry belongs in.
    pub(super) fn alloc(&mut self, entry: Entry) -> usize {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.raw_pending[i].is_none(), "free list slot is live");
                self.raw_pending[i] = Some(entry);
                i
            }
            None => {
                self.raw_pending.push(Some(entry));
                self.raw_pending.len() - 1
            }
        }
    }

    /// Number of live entries in this shard.
    pub(super) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Drop all pending state in this shard.
    pub(super) fn clear(&mut self) {
        self.raw_pending.clear();
        self.free.clear();
        self.by_block.clear();
        self.queue.clear();
        for t in &mut self.targeted {
            t.clear();
        }
        for r in &mut self.replica_idx {
            r.clear();
        }
        self.pending_bytes = 0;
        self.dirty_entries.clear();
    }
}
