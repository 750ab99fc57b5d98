//! The two Algorithm 1 engines: the paper-shaped full rescan
//! ([`SchedEngine::Reference`]) and the shard-local incremental pass
//! with the cascade cost ceiling ([`SchedEngine::Sharded`], the
//! default).
//!
//! Both score exclusively from the scheduler's per-node snapshot
//! (`snap_spb` / `snap_queued` / `snap_candidate`) with the same winner
//! rule — the strict minimum over `(est_finish, rank)` with `<` on the
//! float score — so their decisions are bit-identical, not merely close.
//!
//! # Equivalence argument
//!
//! The reference pass walks the queue in admission order carrying a
//! per-node finish-time trajectory `finish[n]`, initialized to
//! `spb[n]·queued[n]` and advanced to the winner's score whenever an
//! entry picks `n`. An entry's candidate score on `n` therefore depends
//! only on (a) the snapshot values of `n` and (b) the set of *earlier*
//! queue entries targeted at `n`. The incremental pass exploits the
//! contrapositive: if neither changed since the last pass, the cached
//! score is still exact.
//!
//! * Every entry whose decision *could* change is in the visit set: a
//!   snapshot change dirties the node, and `replica_idx[node]` contains
//!   every entry that can see it; new admissions enter via
//!   `dirty_entries`; a removal of a targeted entry dirties its node.
//! * Visits happen in ascending queue order, so when entry `e` is scored
//!   every dirty node's trajectory is live-correct up to `e`'s position,
//!   and every clean candidate's cached score is exact by induction.
//! * When a visited entry's winner moves between *clean* nodes, those
//!   nodes' trajectories change downstream of `e`: the engine
//!   materializes the node's live trajectory from the `targeted` index
//!   (the previous targeted entry's cached winner score — an exact cached
//!   value, never re-derived arithmetic, because `a + b − b ≠ a` in
//!   floating point) and extends the visit set with the node's replica
//!   holders after `e`'s position. This is the cascade that keeps the
//!   greedy chain identical to the reference walk.
//!
//! With the store range-sharded, "admission order" means the K-way merge
//! over per-shard queues, and "position" means `(OrderKey, shard, idx)`.
//! The sharded pass builds one sorted visit plan per shard up front and
//! walks the plans through the same merge, spilling cascade extensions
//! into a side set; its scoring arithmetic is the reference walk's, so
//! the two engines agree bitwise (`crates/core/tests/sched_equivalence.rs`
//! proves it per pass, with the ceiling off so the incremental walk
//! itself is what gets checked).
//!
//! # Cascade cost ceiling
//!
//! A dirty set can degenerate: if a pass's visit plan (or its cascade
//! growth) exceeds `cascade_ceiling × shard depth` for some shard, the
//! bookkeeping overhead of incremental scoring outweighs a plain rescan.
//! The sharded engine then abandons the incremental walk and finishes
//! with the reference pass. Decisions are unaffected by construction —
//! every target the abandoned prefix committed is the target the
//! reference walk recomputes — so the switch costs time, never fidelity.
//! Each switch bumps the `sched.cascade_ceiling` counter and is flagged
//! in the pass's provenance via [`RetargetStats::ceiling_hits`].
//!
//! At the default ceiling (0.25) a pass that rescores most of the queue
//! — the first pass over a fresh queue, or half a 1k-node fleet
//! heartbeating with replica sets that cover every entry — is seen to be
//! dense from the O(dirty) index sizes alone and runs the sequential
//! walk, which rewrites score buffers in place; sparse passes keep the
//! incremental plan.

use super::{Entry, OrderKey, RetargetStats, SchedEngine, Scheduler, Slot};
use dyrs_cluster::NodeId;
use dyrs_obs::{CandidateScore, ObsHandle, ProvenanceBatch};
use std::collections::BTreeSet;
use std::ops::Bound::{Excluded, Included, Unbounded};

/// The winner rule shared by both engines: strictly better score, or an
/// exact score tie broken by placement rank.
#[inline]
fn better(candidate: f64, rank: usize, best: Option<(f64, usize, NodeId, u8)>) -> bool {
    best.is_none_or(|(bf, br, _, _)| candidate < bf || (candidate == bf && rank < br))
}

/// One node's tier × replica scoring: the minimum candidate score over
/// the node's eligible destination tiers, with exact ties kept on the
/// lower (faster) tier because enumeration ascends and the comparison is
/// strict. The write factor is exactly 1.0 for memory, and that branch
/// adds the bare `base + work` term — bit-identical to the pre-tier
/// arithmetic on every legacy (memory-only) snapshot.
#[inline]
fn tier_min(tiers: &[(u8, f64)], base: f64, work: f64) -> (f64, u8) {
    let mut best = f64::INFINITY;
    let mut best_tier = 0u8;
    let mut first = true;
    for &(tier, factor) in tiers {
        let candidate = if factor == 1.0 {
            base + work
        } else {
            base + work * factor
        };
        if first || candidate < best {
            best = candidate;
            best_tier = tier;
            first = false;
        }
    }
    (best, best_tier)
}

/// Touch-sweep block size for the sharded walk: how many upcoming
/// planned slots get streamed into cache ahead of the scoring cursor.
/// Sized so a block's entry lines and side buffers (~a few hundred bytes
/// per slot) sit comfortably in L2 until the cursor consumes them.
const TOUCH_BLOCK: usize = 256;

/// Touch one planned slot's slab lines so they are in flight before the
/// walk cursor arrives. The crate forbids unsafe code, so streaming is
/// expressed as ordinary loads pinned by `black_box` rather than
/// prefetch intrinsics; called from a tight sweep loop the loads
/// pipeline across iterations and run at memory bandwidth.
#[inline]
fn touch_entry(shard: &super::shard::Shard, idx: usize) {
    use std::hint::black_box;
    let Some(Some(e)) = shard.raw_pending.get(idx) else {
        return;
    };
    // A load per region of the entry the visit will read (field order is
    // unspecified, so spread the touches across the struct).
    black_box(e.migration.bytes);
    black_box(e.migration.id.0);
    black_box(e.seq);
    black_box(e.winner_score);
    black_box(e.cache_valid);
}

/// Touch a slot's heap-side buffers (scores, tiers, replicas). Run as a
/// second sweep over a block whose entry lines are already resident:
/// the buffer pointers then come from cache and the buffer misses
/// themselves pipeline, instead of serializing behind the slab miss.
#[inline]
fn touch_buffers(shard: &super::shard::Shard, idx: usize) {
    use std::hint::black_box;
    let Some(Some(e)) = shard.raw_pending.get(idx) else {
        return;
    };
    black_box(e.scores.first().copied());
    black_box(e.tier_of.first().copied());
    black_box(e.migration.replicas.first().copied());
}

impl Scheduler {
    /// One Algorithm 1 pass with the configured engine. Emits
    /// `migration_targeted` span events for every entry whose winner
    /// changed and a provenance batch covering the rescored entries.
    pub(crate) fn retarget(&mut self, obs: &ObsHandle) -> RetargetStats {
        match self.cfg.engine {
            SchedEngine::Reference => self.pass_reference(obs),
            SchedEngine::Sharded => self.pass_sharded(obs),
        }
    }

    /// A candidate node's finish-time trajectory just *before* global
    /// queue position `pos`: the cached winner score of the last earlier
    /// entry targeted at the node, or the snapshot base when none is.
    /// Reading the cached value back (rather than recomputing) is what
    /// keeps the incremental cascade bit-identical to the reference walk.
    ///
    /// "Earlier" is in the merged `(OrderKey, shard, idx)` order, so each
    /// shard's bind queue contributes its last entry below a shard-shaped
    /// bound: everything at a strictly smaller key, plus — for same-key
    /// ties — entries in lower shards (any idx) and same-shard entries at
    /// a smaller idx. The global predecessor is the max candidate.
    fn finish_before(&self, node: usize, pos: (OrderKey, Slot)) -> f64 {
        let (key, (ps, pi)) = pos;
        let mut prev: Option<(OrderKey, Slot)> = None;
        for (s, shard) in self.raw_shards.iter().enumerate() {
            let upper: Bound = match s.cmp(&ps) {
                std::cmp::Ordering::Less => (key, usize::MAX),
                std::cmp::Ordering::Equal => (key, pi),
                std::cmp::Ordering::Greater => (key, 0),
            };
            if let Some(&(k, i)) = shard.targeted[node].range(..upper).next_back() {
                let cand = (k, (s, i));
                if prev.is_none_or(|p| cand > p) {
                    prev = Some(cand);
                }
            }
        }
        match prev {
            Some((_, (s, i))) => {
                self.raw_shards[s].raw_pending[i]
                    .as_ref()
                    .expect("targeted slots are live")
                    .winner_score
            }
            None => self.snap_spb[node] * self.snap_queued[node],
        }
    }

    /// Every entry holding a replica on `node` at a global position
    /// strictly *after* `pos`, pushed into `out` (the cascade extension).
    fn for_replicas_after(
        &self,
        node: usize,
        pos: (OrderKey, Slot),
        out: &mut BTreeSet<(OrderKey, Slot)>,
    ) {
        let (key, (ps, pi)) = pos;
        for (s, shard) in self.raw_shards.iter().enumerate() {
            let lower = match s.cmp(&ps) {
                // lower shard wins same-key ties: only strictly larger keys
                std::cmp::Ordering::Less => Excluded((key, usize::MAX)),
                std::cmp::Ordering::Equal => Excluded((key, pi)),
                // higher shard loses same-key ties: same key already after
                std::cmp::Ordering::Greater => Included((key, 0)),
            };
            out.extend(
                shard.replica_idx[node]
                    .range((lower, Unbounded))
                    .map(|&(k, i)| (k, (s, i))),
            );
        }
    }

    /// The paper's full rescan (§III-A2 / Algorithm 1): greedily set each
    /// pending block's target to the replica expected to finish earliest
    /// given snapshot cost and backlog, walking the merged queue in
    /// admission order and charging each winner's score to its node's
    /// trajectory.
    fn pass_reference(&mut self, obs: &ObsHandle) -> RetargetStats {
        let mut finish: Vec<f64> = (0..self.snap_spb.len())
            .map(|i| self.snap_spb[i] * self.snap_queued[i])
            .collect();
        // With one shard the merge cursor only adds per-element peek
        // machinery on top of plain set iteration; collect directly so the
        // monolithic layout keeps its pre-shard constant factors.
        let order: Vec<(OrderKey, Slot)> = if self.raw_shards.len() == 1 {
            self.raw_shards[0]
                .queue
                .iter()
                .map(|&(k, i)| (k, (0, i)))
                .collect()
        } else {
            super::merge::merged_queue(&self.raw_shards).collect()
        };
        let total = order.len() as u64;
        // Decision provenance is recording-only; skip all of it when
        // nothing is listening — this loop is the `bench/algo1` hot path.
        let recording = obs.is_enabled();
        let mut provenance = if recording {
            self.provenance_batch(order.len())
        } else {
            ProvenanceBatch::default()
        };
        let mut candidates: Vec<(NodeId, usize)> = Vec::new();
        for r in &mut self.last_shard_rescored {
            *r = 0;
        }
        for (key, (sno, idx)) in order {
            self.last_shard_rescored[sno] += 1;
            let mut entry = self.raw_shards[sno].raw_pending[idx]
                .take()
                .expect("queued slots are live");
            // Candidates are scanned in NodeId order, but equal finish
            // times tie-break on *placement rank* (the replica's position
            // in the namenode's placement order): the first replica is the
            // likeliest data-local reader, so binding there keeps the
            // migrated copy next to the map task that wants it. The winner
            // is a pure minimum over (finish, rank), so the result cannot
            // depend on the order this loop happens to visit candidates.
            candidates.clear();
            candidates.extend(
                entry
                    .migration
                    .replicas
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, loc)| self.snap_candidate[loc.index()])
                    .map(|(rank, loc)| (loc, rank)),
            );
            candidates.sort_unstable();
            let bytes = entry.migration.bytes as f64;
            let mut best: Option<(f64, usize, NodeId, u8)> = None;
            // Rewrite the entry's score buffers in place (they are always
            // replica-aligned): non-candidate ranks reset to ∞, candidate
            // ranks overwritten below — the same final values the old
            // fresh-vector swap produced, minus two allocations per entry.
            for r in 0..entry.scores.len() {
                entry.scores[r] = f64::INFINITY;
                entry.tier_of[r] = 0;
            }
            for &(loc, rank) in &candidates {
                let i = loc.index();
                let (candidate, tier) =
                    tier_min(&self.snap_tiers[i], finish[i], self.snap_spb[i] * bytes);
                entry.scores[rank] = candidate;
                entry.tier_of[rank] = tier;
                if better(candidate, rank, best) {
                    best = Some((candidate, rank, loc, tier));
                }
            }
            self.apply_winner(&mut entry, key, (sno, idx), best, obs);
            // Charge the winner to its node's trajectory: later entries
            // queue behind it.
            if let Some((f, _, w, _)) = best {
                finish[w.index()] = f;
            }
            entry.cache_valid = true;
            if recording {
                record_provenance(&mut provenance, &entry, &candidates);
            }
            self.raw_shards[sno].raw_pending[idx] = Some(entry);
        }
        // A full pass leaves nothing stale.
        self.dirty_nodes.clear();
        for shard in &mut self.raw_shards {
            shard.dirty_entries.clear();
        }
        if recording {
            obs.retarget_pass(provenance, total, 0);
        }
        RetargetStats {
            rescored: total,
            skipped: 0,
            ceiling_hits: 0,
        }
    }

    /// The shard-local incremental pass: rescore only entries whose
    /// decision inputs changed since the last pass (dirty nodes' replica
    /// holders, new admissions, and cascade-affected entries), in
    /// admission order. Same decisions as [`Self::pass_reference`] —
    /// proven per pass by the equivalence suite — organized for the
    /// 1M-entry regime:
    ///
    /// * the visit plan is built per shard as a sorted `Vec` (dirty
    ///   entries plus dirty nodes' replica holders, deduped), so the walk
    ///   is S pointer-bumps merged on the fly instead of a global BTree
    ///   visit set's churn;
    /// * cascade extensions go to a (usually tiny) side set, consulted
    ///   alongside the plan heads;
    /// * entry score buffers are rewritten in place — the steady-state
    ///   hot path allocates nothing per entry;
    /// * the cascade cost ceiling bails to the reference rescan when the
    ///   plan stops being sparse (see module docs).
    fn pass_sharded(&mut self, obs: &ObsHandle) -> RetargetStats {
        let total = self.len() as u64;
        let recording = obs.is_enabled();
        if self.steady_state() {
            if recording {
                obs.retarget_pass(ProvenanceBatch::default(), 0, total);
            }
            for r in &mut self.last_shard_rescored {
                *r = 0;
            }
            return RetargetStats {
                rescored: 0,
                skipped: total,
                ceiling_hits: 0,
            };
        }
        let ceiling = self.cfg.cascade_ceiling;
        let over = |visits: usize, depth: usize| {
            ceiling > 0.0 && depth > 0 && visits as f64 > ceiling * depth as f64
        };
        let nshards = self.raw_shards.len();
        // Cascade cost ceiling, bound check: the sum of the dirty index
        // sizes bounds the deduped visit set from above, and every index
        // length is O(1). When even the bound says a shard's pass visits
        // more than `ceiling × depth`, skip plan construction outright —
        // at that density the plan sort alone costs more than the rescan's
        // sequential walk, which is the exact waste the ceiling exists to
        // cap. (The bound counts an entry once per dirty replica, so this
        // trips a little earlier than the deduped plan would; the fallback
        // recomputes identical decisions either way.)
        for shard in &self.raw_shards {
            let bound = shard.dirty_entries.len()
                + self
                    .dirty_nodes
                    .iter()
                    .map(|&d| shard.replica_idx[d].len())
                    .sum::<usize>();
            if over(bound, shard.len()) {
                return self.finish_at_ceiling(obs);
            }
        }
        // Per-shard visit plans, each already sorted by (OrderKey, idx):
        // dirty entries and each dirty node's replica holders are sorted
        // sets, so a merge-by-sort + dedup gives the shard's ascending
        // visit list without touching clean entries.
        let mut plan: Vec<Vec<(OrderKey, usize)>> = Vec::with_capacity(nshards);
        for shard in &self.raw_shards {
            let mut p: Vec<(OrderKey, usize)> = shard.dirty_entries.iter().copied().collect();
            // Drain every dirty node's replica set one element per turn,
            // round-robin: each set's iteration is a serial pointer chase
            // through scattered tree leaves, but the chases are mutually
            // independent, so interleaving them keeps many leaf misses in
            // flight instead of paying them one after another. Order does
            // not matter here — the plan is sorted below anyway.
            let mut iters: Vec<_> = self
                .dirty_nodes
                .iter()
                .map(|&d| shard.replica_idx[d].iter())
                .collect();
            loop {
                let mut any = false;
                for it in &mut iters {
                    if let Some(&x) = it.next() {
                        p.push(x);
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            p.sort_unstable();
            p.dedup();
            plan.push(p);
        }
        // Cascade cost ceiling, exact upfront check over the deduped plans
        // (the bound check above caps the worst case; this one catches
        // passes the dedup still left too dense).
        if (0..nshards).any(|s| over(plan[s].len(), self.raw_shards[s].len())) {
            return self.finish_at_ceiling(obs);
        }
        let mut finish: Vec<Option<f64>> = vec![None; self.snap_spb.len()];
        for &d in &self.dirty_nodes {
            finish[d] = Some(self.snap_spb[d] * self.snap_queued[d]);
        }
        // Flatten the per-shard plans into the global visit order once, up
        // front. The merge touches only the plan vectors (never the slab),
        // and a flat order is what lets the walk below see its own future
        // and stream entry memory ahead of the cursor.
        let planned: usize = plan.iter().map(|p| p.len()).sum();
        let mut order: Vec<(OrderKey, Slot)> = Vec::with_capacity(planned);
        {
            let mut pos = vec![0usize; nshards];
            loop {
                let mut head: Option<(OrderKey, Slot)> = None;
                for s in 0..nshards {
                    if let Some(&(k, i)) = plan[s].get(pos[s]) {
                        let cand = (k, (s, i));
                        if head.is_none_or(|h| cand < h) {
                            head = Some(cand);
                        }
                    }
                }
                let Some((k, slot)) = head else { break };
                pos[slot.0] += 1;
                order.push((k, slot));
            }
        }
        let mut extra: BTreeSet<(OrderKey, Slot)> = BTreeSet::new();
        // Cascade growth per shard, for the mid-pass ceiling check.
        let mut touched = vec![0usize; nshards];
        let mut rescored = 0u64;
        for r in &mut self.last_shard_rescored {
            *r = 0;
        }
        // Dropped unrecorded if the walk bails at the ceiling below: the
        // rescan records the whole pass instead.
        let mut provenance = if recording {
            self.provenance_batch(order.len())
        } else {
            ProvenanceBatch::default()
        };
        // Provenance lists candidates in `(node, rank)` order.
        let mut by_node: Vec<(NodeId, usize)> = Vec::new();
        // Cursor into `order`, and the touch-sweep frontier. The sweep
        // streams the next block of planned slots through a tight,
        // dependency-free loop so the core keeps many cache misses in
        // flight at once; the walk then scores against L2-warm lines.
        // Two designs that do NOT work: touching slots one-by-one from
        // inside the walk (the per-visit scoring work fills the reorder
        // window, collapsing the overlap to a couple of loads in flight),
        // and sweeping the whole plan up front (a large plan's early lines
        // are evicted again before the cursor reaches them). The blocked
        // sweep is the structural payoff of a flat planned order — a
        // BTree pop loop has no future slot list to stream.
        let mut oi = 0usize;
        let mut swept = 0usize;
        // Reusable per-visit score scratch (rank → (score, tier)).
        let mut scratch: Vec<(f64, u8)> = Vec::new();
        loop {
            if swept < order.len() && swept < oi + TOUCH_BLOCK / 2 {
                let hi = (oi + TOUCH_BLOCK).min(order.len());
                for &(_, (s, i)) in &order[swept..hi] {
                    touch_entry(&self.raw_shards[s], i);
                }
                for &(_, (s, i)) in &order[swept..hi] {
                    touch_buffers(&self.raw_shards[s], i);
                }
                swept = hi;
            }
            // Visit the global minimum across the planned order and the
            // cascade side set, advancing every source holding it (a
            // cascade can re-add a planned entry; it must still be
            // visited exactly once).
            let oh = order.get(oi).copied();
            let eh = extra.first().copied();
            let (key, slot) = match (oh, eh) {
                (None, None) => break,
                (Some(a), None) => {
                    oi += 1;
                    a
                }
                (None, Some(b)) => {
                    extra.pop_first();
                    b
                }
                (Some(a), Some(b)) => {
                    if a <= b {
                        oi += 1;
                        if a == b {
                            extra.pop_first();
                        }
                        a
                    } else {
                        extra.pop_first();
                        b
                    }
                }
            };
            rescored += 1;
            self.last_shard_rescored[slot.0] += 1;
            // Phase 1 — score with shared borrows only (the entry stays in
            // its slab slot: no full-entry move out and back per visit).
            // Scores land in a reusable scratch vector, rank by rank, with
            // non-candidate ranks explicitly reset to ∞ — exactly the
            // buffers the reference walk writes.
            let entry = self.raw_shards[slot.0].raw_pending[slot.1]
                .as_ref()
                .expect("visited slots are live");
            let bytes = entry.migration.bytes as f64;
            let had_cache = entry.cache_valid;
            let old_target = entry.target;
            let mut best: Option<(f64, usize, NodeId, u8)> = None;
            scratch.clear();
            for rank in 0..entry.migration.replicas.len() {
                let loc = entry.migration.replicas[rank];
                let i = loc.index();
                if !self.snap_candidate[i] {
                    scratch.push((f64::INFINITY, 0));
                    continue;
                }
                let (score, tier) = match finish[i] {
                    Some(f) => tier_min(&self.snap_tiers[i], f, self.snap_spb[i] * bytes),
                    None => {
                        if had_cache && entry.scores[rank].is_finite() {
                            (entry.scores[rank], entry.tier_of[rank])
                        } else {
                            tier_min(
                                &self.snap_tiers[i],
                                self.finish_before(i, (key, slot)),
                                self.snap_spb[i] * bytes,
                            )
                        }
                    }
                };
                scratch.push((score, tier));
                if better(score, rank, best) {
                    best = Some((score, rank, loc, tier));
                }
            }
            let new_target = best.map(|(_, _, n, _)| n);
            if old_target != new_target {
                for moved in [old_target, new_target].into_iter().flatten() {
                    let i = moved.index();
                    if finish[i].is_none() {
                        finish[i] = Some(self.finish_before(i, (key, slot)));
                        let before = extra.len();
                        self.for_replicas_after(i, (key, slot), &mut extra);
                        touched[slot.0] += extra.len() - before;
                    }
                }
            }
            // Phase 2 — commit: write the scratch scores into the entry's
            // buffers and apply the winner, splitting the shard borrow so
            // the bind-queue update lands beside the in-place entry write.
            let shard = &mut self.raw_shards[slot.0];
            let entry = shard.raw_pending[slot.1]
                .as_mut()
                .expect("visited slots are live");
            for (rank, &(score, tier)) in scratch.iter().enumerate() {
                entry.scores[rank] = score;
                entry.tier_of[rank] = tier;
            }
            match best {
                Some((f, _, node, tier)) => {
                    entry.target = Some(node);
                    entry.target_tier = tier;
                    entry.winner_score = f;
                    if old_target != Some(node) {
                        obs.migration_targeted(entry.migration.id.0, node);
                    }
                }
                None => {
                    entry.target = None; // all replicas down right now
                    entry.target_tier = 0;
                    entry.winner_score = f64::INFINITY;
                }
            }
            entry.cache_valid = true;
            if recording {
                by_node.clear();
                by_node.extend(
                    entry
                        .migration
                        .replicas
                        .iter()
                        .enumerate()
                        .map(|(rank, &loc)| (loc, rank)),
                );
                by_node.sort_unstable();
                record_provenance(&mut provenance, entry, &by_node);
            }
            if new_target != old_target {
                if let Some(t) = old_target {
                    shard.targeted[t.index()].remove(&(key, slot.1));
                }
                if let Some(t) = new_target {
                    shard.targeted[t.index()].insert((key, slot.1));
                }
            }
            if let Some((f, _, w, _)) = best {
                if finish[w.index()].is_some() {
                    finish[w.index()] = Some(f);
                }
            }
            // Mid-pass ceiling check: a cascade that keeps fanning out can
            // blow past the upfront estimate. Decisions committed so far
            // are final-correct, so switching to the rescan mid-walk is
            // safe (it recomputes them identically).
            if over(
                plan[slot.0].len() + touched[slot.0],
                self.raw_shards[slot.0].len(),
            ) {
                return self.finish_at_ceiling(obs);
            }
        }
        self.dirty_nodes.clear();
        for shard in &mut self.raw_shards {
            shard.dirty_entries.clear();
        }
        let skipped = total - rescored;
        if recording {
            obs.retarget_pass(provenance, rescored, skipped);
        }
        RetargetStats {
            rescored,
            skipped,
            ceiling_hits: 0,
        }
    }

    /// An empty provenance batch with room for `rows` scored entries. The
    /// candidate column is sized from the queue's replica slots (the
    /// per-node replica index sizes, O(nodes) per shard): exact for a
    /// full pass, the queue's average replication for a partial one.
    fn provenance_batch(&self, rows: usize) -> ProvenanceBatch {
        let slots: usize = self
            .raw_shards
            .iter()
            .flat_map(|s| s.replica_idx.iter().map(BTreeSet::len))
            .sum();
        let depth = self.len().max(1);
        ProvenanceBatch::with_capacity(rows, (slots * rows).div_ceil(depth))
    }

    /// Nothing changed since the last pass anywhere.
    fn steady_state(&self) -> bool {
        self.dirty_nodes.is_empty() && self.raw_shards.iter().all(|s| s.dirty_entries.is_empty())
    }

    /// Abandon an over-ceiling incremental walk and finish the pass with
    /// the reference rescan. Any targets the abandoned prefix committed
    /// are recomputed identically (so no duplicate `migration_targeted`
    /// events fire — the winners already match); the caller's partial
    /// provenance batch is dropped in favor of the rescan's complete one.
    fn finish_at_ceiling(&mut self, obs: &ObsHandle) -> RetargetStats {
        obs.counter_add("sched.cascade_ceiling", 1);
        let mut stats = self.pass_reference(obs);
        stats.ceiling_hits = 1;
        stats
    }

    /// Commit a scored entry's winner: update the target, maintain the
    /// per-node bind queues, cache the winner score, and emit the span
    /// event when the target changed.
    fn apply_winner(
        &mut self,
        entry: &mut Entry,
        key: OrderKey,
        slot: Slot,
        best: Option<(f64, usize, NodeId, u8)>,
        obs: &ObsHandle,
    ) {
        let old_target = entry.target;
        match best {
            Some((f, _, node, tier)) => {
                entry.target = Some(node);
                entry.target_tier = tier;
                entry.winner_score = f;
                if old_target != Some(node) {
                    obs.migration_targeted(entry.migration.id.0, node);
                }
            }
            None => {
                entry.target = None; // all replicas down right now
                entry.target_tier = 0;
                entry.winner_score = f64::INFINITY;
            }
        }
        if entry.target != old_target {
            let shard = &mut self.raw_shards[slot.0];
            if let Some(t) = old_target {
                shard.targeted[t.index()].remove(&(key, slot.1));
            }
            if let Some(t) = entry.target {
                shard.targeted[t.index()].insert((key, slot.1));
            }
        }
    }
}

/// Per-shard upper bound for "strictly before this global position".
type Bound = (OrderKey, usize);

/// Append one scored entry to the pass's provenance: its live candidates
/// (finite score) in the order `by_node` lists them — `(node, rank)`,
/// covering at least every live rank — and its winner. Pass index,
/// timestamp, and the pass-level rescored/skipped counts are stamped by
/// the recorder.
fn record_provenance(batch: &mut ProvenanceBatch, entry: &Entry, by_node: &[(NodeId, usize)]) {
    batch.push(
        entry.migration.id.0,
        entry.migration.block.0,
        entry.migration.bytes,
        entry.target.map(|n| n.0),
        by_node
            .iter()
            .filter(|&&(_, rank)| entry.scores[rank].is_finite())
            .map(|&(node, rank)| CandidateScore {
                est_finish_secs: entry.scores[rank],
                node: node.0,
                rank: u16::try_from(rank).expect("a migration has fewer than 2^16 replicas"),
                tier: entry.tier_of[rank],
            }),
    );
}
