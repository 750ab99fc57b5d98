//! Indexed, range-sharded pending-migration scheduler (paper §III-D,
//! scaled up).
//!
//! The paper's master keeps "a list of pending migrations" and rescans it
//! wholesale: every Algorithm 1 pass rescores every entry, and every
//! slave pull walks the whole list. That is fine for the paper's 50 GB
//! bar but it is the hottest path in the system, so this module replaces
//! the flat list with an indexed store partitioned into range shards:
//!
//! * each [`shard::Shard`] owns a **slab** of entries, a block → slot
//!   [`BTreeMap`], its slice of the global **admission queue** (ordered
//!   by the configured [`MigrationOrder`] encoded as an [`OrderKey`], so
//!   the BTree *is* the sort), per-node **bind queues** (`targeted`, and
//!   `replica_idx` for the untargeted Naive policy), and its own
//!   dirty-entry set;
//! * blocks map to shards by id range
//!   (`(block >> SHARD_RANGE_BITS) % S`), and every cross-shard walk —
//!   pulls, checkpoints, the reference rescan — goes through a small
//!   **K-way merge** over per-shard heads ([`merge`]), so drain order is
//!   identical at every shard count;
//! * the two Algorithm 1 engines (see [`engine`]) score from per-node
//!   snapshots and dirty sets: the shard-local incremental pass
//!   ([`SchedEngine::Sharded`], the default) rescores only what changed
//!   and, past its cascade cost ceiling, runs the full-rescan reference
//!   walk ([`SchedEngine::Reference`]), which is also selectable on its
//!   own as the paper-shaped oracle.
//!
//! Everything is deterministic: slots are reused LIFO within each shard,
//! all indexes are BTree-ordered, and the incremental walk is
//! bit-identical to the reference pass at every shard count (asserted by
//! `crates/core/tests/sched_equivalence.rs`).
//!
//! The raw shard state (`raw_shards`, and each shard's `raw_pending`)
//! must not be touched outside this module — `dyrs-verify`'s
//! `pending-fence` lint enforces that the rest of the workspace goes
//! through the Scheduler API.

mod engine;
mod merge;
mod shard;

use crate::config::{SchedEngine, SchedulerConfig};
use crate::master::JobHint;
use crate::policy::MigrationOrder;
use crate::types::{JobRef, Migration, MigrationId};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use shard::Shard;
use simkit::SimTime;
use std::collections::BTreeSet;

/// Global address of a live entry: `(shard, slot-within-shard)`.
///
/// Everywhere an index pairs an [`OrderKey`] with a slot, the pair orders
/// by `(key, shard, idx)` — with unique keys (the master mints unique
/// seqs) the slot half never decides, and with one shard it degenerates
/// to the monolithic `(key, idx)` order.
pub(crate) type Slot = (usize, usize);

/// Blocks map to shards in contiguous runs of 64 ids striped round-robin
/// (`(block >> 6) % S`): sequential blocks of one file stay shard-local,
/// while any large id range still balances across all shards.
const SHARD_RANGE_BITS: u32 = 6;

/// Position of an entry in the admission order, independent of the
/// discipline: the BTree indexes sort by `(OrderKey, slot)` and binding /
/// retargeting walk that order directly.
///
/// `primary` encodes the discipline's sort key (`0` for FIFO,
/// `hint.total_bytes` for SJF, `hint.expected_launch` in microseconds for
/// EDF — lossless, since `SimTime` is microseconds internally) and `seq`
/// is the arrival sequence, so ties break exactly like the old stable
/// sort over `(key, seq)` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OrderKey {
    primary: u64,
    seq: u64,
}

impl OrderKey {
    fn new(order: MigrationOrder, hint: &JobHint, seq: u64) -> Self {
        let primary = match order {
            MigrationOrder::Fifo => 0,
            MigrationOrder::SmallestJobFirst => hint.total_bytes,
            MigrationOrder::EarliestDeadlineFirst => hint.expected_launch.as_micros(),
        };
        OrderKey { primary, seq }
    }
}

/// One pending migration plus the scheduler's cached scoring state.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// The migration being scheduled.
    pub(crate) migration: Migration,
    /// Algorithm 1's current choice of source node, if any.
    pub(crate) target: Option<NodeId>,
    /// Arrival sequence (FIFO key and stable tie-break).
    pub(crate) seq: u64,
    /// Requesting job's scheduling hint.
    pub(crate) hint: JobHint,
    /// Retry backoff: the entry may not bind before this instant.
    pub(crate) not_before: SimTime,
    /// Destination buffer tier of the current winner (tier-aware
    /// Algorithm 1 scores tier × replica pairs; this is the tier half of
    /// the winning pair). 0 whenever only memory is eligible.
    pub(crate) target_tier: u8,
    /// Cached per-replica finish-time scores from the last pass that
    /// visited this entry, aligned with `migration.replicas` (∞ for
    /// non-candidates). Each is already the minimum over the node's
    /// eligible destination tiers. Valid only while `cache_valid`.
    scores: Vec<f64>,
    /// The destination tier behind each cached score, aligned with
    /// `scores` (which tier won the per-rank tier minimum).
    tier_of: Vec<u8>,
    /// The winner's cached score (∞ when untargeted); this is the node's
    /// finish-time trajectory *at this queue position*, which is what the
    /// incremental engine reads back via the `targeted` index.
    winner_score: f64,
    /// False until the first pass scores the entry (new admissions).
    cache_valid: bool,
}

/// What one retarget pass did — how many pending entries it rescored and
/// how many it proved untouched and skipped. A full reference pass always
/// reports `skipped == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetargetStats {
    /// Entries whose candidate scores were recomputed this pass.
    pub rescored: u64,
    /// Entries left untouched (their decision provably cannot change).
    pub skipped: u64,
    /// 1 if the pass hit the cascade cost ceiling and finished with the
    /// reference walk (Sharded engine only; decisions are unaffected).
    pub ceiling_hits: u64,
}

/// The indexed pending store. Owned by the master; every read or write of
/// pending-migration state goes through this API.
pub(crate) struct Scheduler {
    /// The range shards. All raw iteration over shard internals lives in
    /// this module (`pending-fence`).
    raw_shards: Vec<Shard>,
    /// Cluster width (shards carry per-node index vectors of this size).
    num_nodes: usize,
    /// Active admission discipline.
    order: MigrationOrder,
    /// Engine selection, shard count, and dirty-set thresholds.
    cfg: SchedulerConfig,
    /// Per-node scoring snapshot: seconds-per-byte estimate. Both engines
    /// score exclusively from the snapshot, so reference and incremental
    /// passes see identical inputs at any `spb_epsilon`.
    snap_spb: Vec<f64>,
    /// Per-node scoring snapshot: queued bytes.
    snap_queued: Vec<f64>,
    /// Per-node scoring snapshot: Algorithm 1 candidacy (up && targetable).
    snap_candidate: Vec<bool>,
    /// Per-node scoring snapshot: eligible destination buffer tiers as
    /// `(tier, write_factor)` pairs in ascending tier order. The legacy
    /// default is `[(0, 1.0)]` — memory only, factor exactly 1.0, which
    /// keeps every score bit-identical to the pre-tier arithmetic.
    snap_tiers: Vec<Vec<(u8, f64)>>,
    /// Nodes whose snapshot changed since the last pass (global: a node's
    /// replica holders can live in any shard).
    dirty_nodes: BTreeSet<usize>,
    /// Entries each shard rescored in the last pass (per-shard
    /// `sched.dirty_entries` gauge feed).
    last_shard_rescored: Vec<u64>,
}

impl Scheduler {
    /// An empty scheduler for `num_nodes` slaves with a uniform
    /// seconds-per-byte prior of `default_spb`.
    pub(crate) fn new(num_nodes: usize, default_spb: f64) -> Self {
        Scheduler {
            raw_shards: vec![Shard::new(num_nodes)],
            num_nodes,
            order: MigrationOrder::Fifo,
            cfg: SchedulerConfig::default(),
            snap_spb: vec![default_spb; num_nodes],
            snap_queued: vec![0.0; num_nodes],
            snap_candidate: vec![true; num_nodes],
            snap_tiers: vec![vec![(0, 1.0)]; num_nodes],
            dirty_nodes: BTreeSet::new(),
            last_shard_rescored: vec![0],
        }
    }

    /// The shard a block's pending entry lives in.
    #[inline]
    fn shard_of(&self, block: BlockId) -> usize {
        ((block.0 >> SHARD_RANGE_BITS) % self.raw_shards.len() as u64) as usize
    }

    // ------------------------------------------------------------------
    // configuration
    // ------------------------------------------------------------------

    /// Select the retarget engine, shard count, and dirty thresholds.
    ///
    /// A shard-count change with entries present re-shards in place:
    /// every entry (with its target, caches, and dirtiness) migrates to
    /// its new shard in admission order, so the store's observable state
    /// — drain order, targets, pending depth — is untouched.
    pub(crate) fn set_config(&mut self, cfg: SchedulerConfig) {
        self.cfg = cfg;
        self.cfg.shards = cfg.shards.max(1);
        let want = self.cfg.shards;
        if want == self.raw_shards.len() {
            return;
        }
        let order: Vec<(OrderKey, Slot)> = merge::merged_queue(&self.raw_shards).collect();
        let mut moved: Vec<(Entry, bool)> = Vec::with_capacity(order.len());
        for &(key, (s, idx)) in &order {
            let dirty = self.raw_shards[s].dirty_entries.contains(&(key, idx));
            let entry = self.raw_shards[s].raw_pending[idx]
                .take()
                .expect("queued slots are live");
            moved.push((entry, dirty));
        }
        self.raw_shards = vec![Shard::new(self.num_nodes); want];
        self.last_shard_rescored = vec![0; want];
        for (entry, dirty) in moved {
            self.insert_entry(entry, dirty);
        }
    }

    /// The active scheduler configuration.
    pub(crate) fn config(&self) -> SchedulerConfig {
        self.cfg
    }

    /// Select the admission discipline. Must be called before entries are
    /// admitted (the master configures order at startup, like the old
    /// `sort_pending` path assumed stable input).
    pub(crate) fn set_order(&mut self, order: MigrationOrder) {
        debug_assert!(
            self.len() == 0,
            "order change with entries enqueued would not re-key them"
        );
        self.order = order;
    }

    /// The active admission discipline.
    pub(crate) fn order(&self) -> MigrationOrder {
        self.order
    }

    // ------------------------------------------------------------------
    // node snapshot — the engines' only scoring input
    // ------------------------------------------------------------------

    /// Update a node's scoring snapshot from the master's heartbeat view.
    /// Queued-byte changes always take effect; the spb estimate is gated
    /// by `spb_epsilon` (relative) so a jittering estimator does not dirty
    /// the node every heartbeat. `spb_epsilon = 0` keeps the snapshot an
    /// exact mirror.
    pub(crate) fn set_node_load(&mut self, node: usize, spb: f64, queued_bytes: f64) {
        let eps = self.cfg.spb_epsilon;
        let cur = self.snap_spb[node];
        if spb != cur && (eps <= 0.0 || (spb - cur).abs() > eps * cur.abs()) {
            self.snap_spb[node] = spb;
            self.dirty_nodes.insert(node);
        }
        if self.snap_queued[node] != queued_bytes {
            self.snap_queued[node] = queued_bytes;
            self.dirty_nodes.insert(node);
        }
    }

    /// Update a node's Algorithm 1 candidacy (liveness ∧ detector health).
    pub(crate) fn set_node_candidacy(&mut self, node: usize, candidate: bool) {
        if self.snap_candidate[node] != candidate {
            self.snap_candidate[node] = candidate;
            self.dirty_nodes.insert(node);
        }
    }

    /// Update a node's eligible destination tiers (tier hardware is
    /// static, but the active tier policy picks which tiers Algorithm 1
    /// may target). A change dirties the node like any snapshot change.
    pub(crate) fn set_node_tiers(&mut self, node: usize, tiers: Vec<(u8, f64)>) {
        debug_assert!(
            tiers.windows(2).all(|w| w[0].0 < w[1].0),
            "destination tiers must be ascending and distinct"
        );
        debug_assert!(!tiers.is_empty(), "a node needs at least one dest tier");
        if self.snap_tiers[node] != tiers {
            self.snap_tiers[node] = tiers;
            self.dirty_nodes.insert(node);
        }
    }

    /// The node's eligible destination tiers (exposed for auditing).
    pub(crate) fn node_tiers(&self, node: usize) -> &[(u8, f64)] {
        &self.snap_tiers[node]
    }

    /// The node's scoring snapshot, `(spb, queued_bytes, candidate)`
    /// (exposed for auditing).
    pub(crate) fn node_snapshot(&self, node: usize) -> (f64, f64, bool) {
        (
            self.snap_spb[node],
            self.snap_queued[node],
            self.snap_candidate[node],
        )
    }

    // ------------------------------------------------------------------
    // admission / removal
    // ------------------------------------------------------------------

    /// Admit a migration. The caller guarantees the block is not already
    /// pending (checked by `contains_block`).
    pub(crate) fn insert(
        &mut self,
        migration: Migration,
        seq: u64,
        hint: JobHint,
        not_before: SimTime,
    ) {
        debug_assert!(!self.contains_block(migration.block));
        let scores = vec![f64::INFINITY; migration.replicas.len()];
        let tier_of = vec![0; migration.replicas.len()];
        let entry = Entry {
            migration,
            target: None,
            seq,
            hint,
            not_before,
            target_tier: 0,
            scores,
            tier_of,
            winner_score: f64::INFINITY,
            cache_valid: false,
        };
        self.insert_entry(entry, true);
    }

    /// Link a fully-formed entry into its shard's slab and indexes
    /// (including the bind queue if it carries a target), marking it
    /// dirty when asked. Admission and re-sharding both land here.
    fn insert_entry(&mut self, entry: Entry, dirty: bool) {
        let key = OrderKey::new(self.order, &entry.hint, entry.seq);
        let s = self.shard_of(entry.migration.block);
        let shard = &mut self.raw_shards[s];
        let idx = shard.alloc(entry);
        let e = shard.raw_pending[idx].as_ref().expect("just inserted");
        shard.pending_bytes += e.migration.bytes;
        shard.by_block.insert(e.migration.block, idx);
        shard.queue.insert((key, idx));
        for &r in &e.migration.replicas {
            shard.replica_idx[r.index()].insert((key, idx));
        }
        if let Some(t) = e.target {
            shard.targeted[t.index()].insert((key, idx));
        }
        if dirty {
            shard.dirty_entries.insert((key, idx));
        }
    }

    /// Whether `block` is pending.
    pub(crate) fn contains_block(&self, block: BlockId) -> bool {
        self.raw_shards[self.shard_of(block)]
            .by_block
            .contains_key(&block)
    }

    /// Add a job reference to the pending entry for `block` (no-op if the
    /// job is already referenced). Job references do not affect scoring.
    pub(crate) fn add_job_ref(&mut self, block: BlockId, jref: JobRef) {
        let s = self.shard_of(block);
        let shard = &mut self.raw_shards[s];
        if let Some(&idx) = shard.by_block.get(&block) {
            let e = shard.raw_pending[idx].as_mut().expect("indexed slot live");
            if !e.migration.jobs.iter().any(|r| r.job == jref.job) {
                e.migration.jobs.push(jref);
            }
        }
    }

    /// Drop `job`'s reference from the pending entry for `block`. If that
    /// leaves the entry with no interested job it is removed; the removed
    /// migration's id is returned so the caller can close its span.
    pub(crate) fn drop_job_ref(&mut self, block: BlockId, job: JobId) -> Option<MigrationId> {
        let s = self.shard_of(block);
        let &idx = self.raw_shards[s].by_block.get(&block)?;
        let e = self.raw_shards[s].raw_pending[idx]
            .as_mut()
            .expect("indexed slot live");
        e.migration.jobs.retain(|r| r.job != job);
        if e.migration.jobs.is_empty() {
            let entry = self.remove_slot((s, idx));
            Some(entry.migration.id)
        } else {
            None
        }
    }

    /// Cancel the pending migration for `block` (missed read), returning
    /// the removed entry if one was pending.
    pub(crate) fn remove_block(&mut self, block: BlockId) -> Option<Entry> {
        let s = self.shard_of(block);
        let idx = self.raw_shards[s].by_block.get(&block).copied()?;
        Some(self.remove_slot((s, idx)))
    }

    /// Unlink `slot` from every index in its shard and free it.
    fn remove_slot(&mut self, slot: Slot) -> Entry {
        let (s, idx) = slot;
        let shard = &mut self.raw_shards[s];
        let entry = shard.raw_pending[idx]
            .take()
            .expect("removing a live entry");
        let key = OrderKey::new(self.order, &entry.hint, entry.seq);
        shard.queue.remove(&(key, idx));
        shard.dirty_entries.remove(&(key, idx));
        shard.by_block.remove(&entry.migration.block);
        for &r in &entry.migration.replicas {
            shard.replica_idx[r.index()].remove(&(key, idx));
        }
        if let Some(t) = entry.target {
            shard.targeted[t.index()].remove(&(key, idx));
            // The node's downstream finish-time trajectory shrinks; every
            // entry scored after this position must be revisited.
            self.dirty_nodes.insert(t.index());
        }
        shard.pending_bytes -= entry.migration.bytes;
        shard.free.push(idx);
        entry
    }

    /// Drop all pending state (master restart). Snapshots return to the
    /// prior; nothing is left to rescore.
    pub(crate) fn reset(&mut self, default_spb: f64) {
        for shard in &mut self.raw_shards {
            shard.clear();
        }
        for s in &mut self.snap_spb {
            *s = default_spb;
        }
        for q in &mut self.snap_queued {
            *q = 0.0;
        }
        // Candidacy resets with the detector state (everyone healthy); the
        // master re-syncs liveness right after. `snap_tiers` survives the
        // restart untouched: tier stacks are hardware configuration, not
        // soft state.
        for c in &mut self.snap_candidate {
            *c = true;
        }
        self.dirty_nodes.clear();
        for r in &mut self.last_shard_rescored {
            *r = 0;
        }
    }

    // ------------------------------------------------------------------
    // binding — the pull path
    // ------------------------------------------------------------------

    /// Pop up to `limit` entries eligible to bind on `node` right now, in
    /// admission order: entries targeted at the node (`targeted = true`,
    /// Dyrs) or entries with any replica on it (Naive), skipping entries
    /// still inside their retry backoff. Skipped and unpicked entries stay
    /// queued in their original positions. Cross-shard order comes from
    /// the K-way merge over the per-shard bind queues.
    pub(crate) fn pull(
        &mut self,
        node: NodeId,
        targeted: bool,
        now: SimTime,
        limit: usize,
    ) -> Vec<Entry> {
        if limit == 0 {
            return Vec::new();
        }
        let n = node.index();
        let mut picked: Vec<Slot> = Vec::new();
        let cursor = merge::MergeCursor::new(self.raw_shards.iter().map(|sh| {
            if targeted {
                &sh.targeted[n]
            } else {
                &sh.replica_idx[n]
            }
        }));
        for (_, slot) in cursor {
            if picked.len() == limit {
                break;
            }
            let e = self.raw_shards[slot.0].raw_pending[slot.1]
                .as_ref()
                .expect("indexed slot live");
            // retry-backoff entries (`not_before`) are not yet eligible
            if e.not_before <= now {
                picked.push(slot);
            }
        }
        picked
            .into_iter()
            .map(|slot| self.remove_slot(slot))
            .collect()
    }

    // ------------------------------------------------------------------
    // read-only views
    // ------------------------------------------------------------------

    /// Number of pending entries.
    pub(crate) fn len(&self) -> usize {
        self.raw_shards.iter().map(Shard::len).sum()
    }

    /// Total pending bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.raw_shards.iter().map(|s| s.pending_bytes).sum()
    }

    /// Number of shards the pending store is partitioned into.
    pub(crate) fn shard_count(&self) -> usize {
        self.raw_shards.len()
    }

    /// Per-shard pending depth, in shard order (`sched.pending_depth`
    /// gauge feed).
    pub(crate) fn shard_depths(&self) -> Vec<usize> {
        self.raw_shards.iter().map(Shard::len).collect()
    }

    /// Per-shard rescored counts from the most recent retarget pass, in
    /// shard order (`sched.dirty_entries` gauge feed).
    pub(crate) fn shard_rescored(&self) -> &[u64] {
        &self.last_shard_rescored
    }

    /// Number of pending entries currently targeted at `node` — the depth
    /// of its bind queue. A draining node may only be decommissioned once
    /// this reaches zero (its pending work has been re-targeted away).
    pub(crate) fn targeted_len(&self, node: NodeId) -> usize {
        self.raw_shards
            .iter()
            .map(|s| s.targeted[node.index()].len())
            .sum()
    }

    /// The node `block` is currently targeted at, if pending and targeted.
    pub(crate) fn target_of(&self, block: BlockId) -> Option<NodeId> {
        let s = self.shard_of(block);
        let &idx = self.raw_shards[s].by_block.get(&block)?;
        self.raw_shards[s].raw_pending[idx]
            .as_ref()
            .expect("indexed slot live")
            .target
    }

    /// Pending block ids in ascending order (merged across shards).
    pub(crate) fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        merge::BlockMerge::new(&self.raw_shards)
    }

    /// Pending entries in admission order (merged across shards).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        merge::merged_queue(&self.raw_shards).map(|(_, (s, idx))| {
            self.raw_shards[s].raw_pending[idx]
                .as_ref()
                .expect("queued slot live")
        })
    }

    // ------------------------------------------------------------------
    // audit
    // ------------------------------------------------------------------

    /// Index invariants: every index agrees with its shard's slab, the
    /// range map holds, bytes and free slots balance, and dirty entries
    /// reference live slots.
    pub(crate) fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let c = "sched";
        for (sno, shard) in self.raw_shards.iter().enumerate() {
            let live = shard.raw_pending.iter().flatten().count();
            report.check(
                shard.queue.len() == live && shard.by_block.len() == live,
                c,
                "queue and block index cover exactly the live slots",
                || {
                    format!(
                        "shard {sno}: live {live}, queue {}, by_block {}",
                        shard.queue.len(),
                        shard.by_block.len()
                    )
                },
            );
            report.check(
                shard.free.len() + live == shard.raw_pending.len(),
                c,
                "free list and live slots partition the slab",
                || {
                    format!(
                        "shard {sno}: free {} + live {live} != slab {}",
                        shard.free.len(),
                        shard.raw_pending.len()
                    )
                },
            );
            let mut bytes = 0u64;
            for &(key, idx) in &shard.queue {
                let Some(e) = shard.raw_pending.get(idx).and_then(|s| s.as_ref()) else {
                    report.check(false, c, "queued slots are live", || {
                        format!("shard {sno}: queue references freed slot {idx}")
                    });
                    continue;
                };
                bytes += e.migration.bytes;
                report.check(
                    self.shard_of(e.migration.block) == sno,
                    c,
                    "entries live in their range shard",
                    || format!("{} stored in shard {sno}", e.migration.block),
                );
                report.check(
                    OrderKey::new(self.order, &e.hint, e.seq) == key,
                    c,
                    "queue keys match their entries",
                    || format!("{} queued under a stale key", e.migration.block),
                );
                report.check(
                    shard.by_block.get(&e.migration.block) == Some(&idx),
                    c,
                    "block index points back at the slot",
                    || format!("{} not indexed at slot {idx}", e.migration.block),
                );
                for &r in &e.migration.replicas {
                    report.check(
                        shard.replica_idx[r.index()].contains(&(key, idx)),
                        c,
                        "replica index covers every replica holder",
                        || format!("{} missing from replica index of {r}", e.migration.block),
                    );
                }
                match e.target {
                    Some(t) => report.check(
                        shard.targeted[t.index()].contains(&(key, idx)),
                        c,
                        "targeted entries sit in their node's bind queue",
                        || format!("{} targeted at {t} but not in its queue", e.migration.block),
                    ),
                    None => report.check(
                        !e.cache_valid || e.winner_score.is_infinite(),
                        c,
                        "untargeted entries carry no finite winner score",
                        || format!("{} untargeted with a winner score", e.migration.block),
                    ),
                }
            }
            report.check(
                bytes == shard.pending_bytes,
                c,
                "pending byte total matches the entries",
                || {
                    format!(
                        "shard {sno}: counted {bytes}, cached {}",
                        shard.pending_bytes
                    )
                },
            );
            let targeted_total: usize = shard.targeted.iter().map(BTreeSet::len).sum();
            report.check(
                targeted_total
                    == shard
                        .queue
                        .iter()
                        .filter(|&&(_, i)| {
                            shard.raw_pending[i]
                                .as_ref()
                                .is_some_and(|e| e.target.is_some())
                        })
                        .count(),
                c,
                "bind queues hold exactly the targeted entries",
                || format!("shard {sno}: {targeted_total} bind-queue entries"),
            );
            for d in &shard.dirty_entries {
                report.check(
                    shard.queue.contains(d),
                    c,
                    "dirty entries reference queued work",
                    || format!("shard {sno}: stale dirty entry at slot {}", d.1),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EvictionMode;
    use simkit::audit::AuditReport;

    fn mig(id: u64, block: u64, replicas: &[u32]) -> Migration {
        Migration {
            id: MigrationId(id),
            block: BlockId(block),
            bytes: 256 << 20,
            jobs: vec![JobRef {
                job: JobId(1),
                eviction: EvictionMode::Implicit,
            }],
            replicas: replicas.iter().map(|&n| NodeId(n)).collect(),
            attempt: 0,
            dest_tier: 0,
        }
    }

    fn sched() -> Scheduler {
        Scheduler::new(4, 1.0 / (140.0 * (1u64 << 20) as f64))
    }

    fn slot_of(s: &Scheduler, b: u64) -> (usize, usize) {
        let sno = s.shard_of(BlockId(b));
        let idx = *s.raw_shards[sno]
            .by_block
            .get(&BlockId(b))
            .expect("pending");
        (sno, idx)
    }

    #[test]
    fn insert_remove_roundtrip_keeps_indexes_clean() {
        let mut s = sched();
        s.insert(mig(0, 1, &[0, 1]), 1, JobHint::default(), SimTime::ZERO);
        s.insert(mig(1, 2, &[1, 2]), 2, JobHint::default(), SimTime::ZERO);
        assert_eq!(s.len(), 2);
        assert_eq!(s.bytes(), 512 << 20);
        assert!(s.contains_block(BlockId(1)));
        let e = s.remove_block(BlockId(1)).expect("pending");
        assert_eq!(e.migration.id, MigrationId(0));
        assert_eq!(s.len(), 1);
        assert!(!s.contains_block(BlockId(1)));
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut s = sched();
        s.insert(mig(0, 1, &[0]), 1, JobHint::default(), SimTime::ZERO);
        s.insert(mig(1, 2, &[0]), 2, JobHint::default(), SimTime::ZERO);
        s.remove_block(BlockId(1));
        s.insert(mig(2, 3, &[0]), 3, JobHint::default(), SimTime::ZERO);
        // the freed slot 0 is reused, and the (single) shard's slab did
        // not grow
        assert_eq!(s.raw_shards[0].raw_pending.len(), 2);
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn job_ref_drop_removes_orphaned_entries() {
        let mut s = sched();
        s.insert(mig(0, 1, &[0]), 1, JobHint::default(), SimTime::ZERO);
        s.add_job_ref(
            BlockId(1),
            JobRef {
                job: JobId(2),
                eviction: EvictionMode::Implicit,
            },
        );
        assert_eq!(s.drop_job_ref(BlockId(1), JobId(1)), None);
        assert_eq!(s.drop_job_ref(BlockId(1), JobId(2)), Some(MigrationId(0)));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn pull_respects_limit_and_backoff() {
        let mut s = sched();
        for i in 0..5 {
            s.insert(mig(i, i, &[0, 1]), i + 1, JobHint::default(), SimTime::ZERO);
        }
        // entry 0 is still backing off
        let e = s.remove_block(BlockId(0)).expect("pending");
        s.insert(e.migration, 1, e.hint, SimTime::from_secs(100));
        let picked = s.pull(NodeId(0), false, SimTime::ZERO, 2);
        let blocks: Vec<u64> = picked.iter().map(|e| e.migration.block.0).collect();
        assert_eq!(blocks, vec![1, 2], "backoff skipped, limit enforced");
        assert_eq!(s.len(), 3, "unpicked entries stay queued");
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn sharded_store_spreads_ranges_and_merges_in_order() {
        let mut s = sched();
        s.set_config(SchedulerConfig {
            shards: 4,
            ..SchedulerConfig::default()
        });
        // Blocks 64 ids apart land in distinct shards; admission order
        // (seq) still rules the merged queue and the pull order.
        for i in 0..8u64 {
            let block = (7 - i) << SHARD_RANGE_BITS; // descending block ids
            s.insert(
                mig(i, block, &[0]),
                i + 1,
                JobHint::default(),
                SimTime::ZERO,
            );
        }
        assert!(
            s.raw_shards.iter().all(|sh| sh.len() == 2),
            "64-id ranges stripe evenly over 4 shards"
        );
        let seqs: Vec<u64> = s.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<u64>>(), "merged queue is FIFO");
        let blocks: Vec<u64> = s.block_ids().map(|b| b.0).collect();
        assert!(blocks.windows(2).all(|w| w[0] < w[1]), "block ids ascend");
        let picked = s.pull(NodeId(0), false, SimTime::ZERO, 3);
        let pulled: Vec<u64> = picked.iter().map(|e| e.seq).collect();
        assert_eq!(pulled, vec![1, 2, 3], "pull drains in admission order");
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn resharding_preserves_entries_targets_and_dirtiness() {
        let mut s = sched();
        for i in 0..6u64 {
            s.insert(
                mig(i, i << SHARD_RANGE_BITS, &[0, 1]),
                i + 1,
                JobHint::default(),
                SimTime::ZERO,
            );
        }
        s.retarget(&dyrs_obs::ObsHandle::default());
        let targets: Vec<Option<NodeId>> =
            (0..6u64).map(|i| s.target_of(BlockId(i << 6))).collect();
        // one more admission stays dirty across the re-shard
        s.insert(mig(9, 9 << 6, &[1]), 9, JobHint::default(), SimTime::ZERO);
        s.set_config(SchedulerConfig {
            shards: 8,
            ..SchedulerConfig::default()
        });
        assert_eq!(s.len(), 7);
        let after: Vec<Option<NodeId>> = (0..6u64).map(|i| s.target_of(BlockId(i << 6))).collect();
        assert_eq!(targets, after, "targets survive the re-shard");
        let dirty: usize = s.raw_shards.iter().map(|sh| sh.dirty_entries.len()).sum();
        assert_eq!(dirty, 1, "only the new admission is dirty");
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
        // and back down to one shard
        s.set_config(SchedulerConfig::default());
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.len(), 7);
        let mut report = AuditReport::new();
        s.audit(&mut report);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn tier_aware_scoring_carries_the_destination_tier() {
        let mut s = sched();
        // Node 0's policy offers only NVMe (tier 1, writes 2× slower than
        // the disk read); node 1 keeps the default memory-only set.
        s.set_node_tiers(0, vec![(1, 2.0)]);
        assert_eq!(s.node_tiers(0), &[(1, 2.0)]);
        assert_eq!(s.node_tiers(1), &[(0, 1.0)]);
        s.insert(mig(0, 1, &[0]), 1, JobHint::default(), SimTime::ZERO);
        s.insert(mig(1, 2, &[1]), 2, JobHint::default(), SimTime::ZERO);
        s.retarget(&dyrs_obs::ObsHandle::default());
        let (s0, i0) = slot_of(&s, 1);
        let (s1, i1) = slot_of(&s, 2);
        let e0 = s.raw_shards[s0].raw_pending[i0]
            .as_ref()
            .expect("live slot");
        assert_eq!(e0.target, Some(NodeId(0)));
        assert_eq!(e0.target_tier, 1, "chosen tier rides with the entry");
        let e1 = s.raw_shards[s1].raw_pending[i1]
            .as_ref()
            .expect("live slot");
        assert_eq!(e1.target_tier, 0);
        // same bytes, same spb: the tier-1 stream costs exactly 2×
        assert_eq!(e0.winner_score, 2.0 * e1.winner_score);
    }

    #[test]
    fn equal_tier_factors_tie_break_toward_memory() {
        let mut s = sched();
        s.set_node_tiers(0, vec![(0, 1.0), (1, 1.0), (2, 1.0)]);
        s.insert(mig(0, 1, &[0]), 1, JobHint::default(), SimTime::ZERO);
        s.retarget(&dyrs_obs::ObsHandle::default());
        let (sno, idx) = slot_of(&s, 1);
        let e = s.raw_shards[sno].raw_pending[idx]
            .as_ref()
            .expect("live slot");
        assert_eq!(e.target_tier, 0, "strict-min keeps the fastest tier");
    }

    #[test]
    fn node_tiers_survive_reset() {
        let mut s = sched();
        s.set_node_tiers(1, vec![(0, 1.0), (1, 3.0)]);
        s.reset(0.5);
        assert_eq!(
            s.node_tiers(1),
            &[(0, 1.0), (1, 3.0)],
            "tier shape is hardware, not soft state"
        );
    }

    #[test]
    fn order_keys_reproduce_the_disciplines() {
        let hint = |launch: u64, bytes: u64| JobHint {
            expected_launch: SimTime::from_secs(launch),
            total_bytes: bytes,
        };
        let fifo = |seq| OrderKey::new(MigrationOrder::Fifo, &hint(9, 9), seq);
        assert!(fifo(1) < fifo(2));
        let sjf = |b, seq| OrderKey::new(MigrationOrder::SmallestJobFirst, &hint(0, b), seq);
        assert!(sjf(1, 9) < sjf(2, 1));
        assert!(sjf(1, 1) < sjf(1, 2), "stable tie-break on arrival");
        let edf = |l, seq| OrderKey::new(MigrationOrder::EarliestDeadlineFirst, &hint(l, 0), seq);
        assert!(edf(10, 9) < edf(20, 1));
    }
}
