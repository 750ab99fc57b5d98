//! Differential tests: the sharded Algorithm 1 engine against the
//! reference full rescan. Most masters run the sharded engine with the
//! cascade ceiling off, so every pass takes the incremental walk and the
//! walk itself is what gets checked; the default configuration (ceiling
//! armed) rides along in the shard sweep and the ceiling test.
//!
//! Masters — identical except for [`SchedulerConfig`] — are driven
//! through the same randomized event sequences (admissions, retargets,
//! pulls, completions, read-cancels, job evictions, spb drift, health
//! flaps, master restarts). After every step they must agree on every
//! observable: per-block targets, pull results (bind order included),
//! pending depth and bytes, and all must pass the full invariant audit.
//! A second generator sweeps shard counts (1 / 2 / 8, with and without
//! the cascade ceiling, plus the default) so the K-way merge and the
//! cross-shard trajectory lookups face the same scrutiny. This is the executable
//! form of the equivalence argument in `crates/core/src/sched/engine.rs`.

use dyrs::master::{BlockRequest, JobHint, Master};
use dyrs::types::EvictionMode;
use dyrs::{MigrationOrder, MigrationPolicy, RetargetStats, SchedEngine, SchedulerConfig};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use proptest::prelude::*;
use simkit::audit::{Audit, AuditReport};
use simkit::{Rng, SimDuration, SimTime};

const MB: u64 = 1 << 20;
const BW: f64 = 140.0 * MB as f64;
const NODES: u32 = 6;

fn sched_cfg(engine: SchedEngine, shards: usize, ceiling: f64) -> SchedulerConfig {
    SchedulerConfig {
        engine,
        shards,
        cascade_ceiling: ceiling,
        ..SchedulerConfig::default()
    }
}

fn master_with(cfg: SchedulerConfig, order: MigrationOrder, detector: bool) -> Master {
    let mut m = Master::new(MigrationPolicy::Dyrs, NODES as usize, BW, Rng::new(7));
    m.set_order(order);
    m.set_sched_config(cfg);
    if detector {
        m.configure_detector(dyrs::FailureDetectorConfig::default());
    }
    for n in 0..NODES {
        m.on_heartbeat_at(NodeId(n), 1.0 / BW, 0, SimTime::ZERO);
    }
    m
}

/// Every observable both engines must agree on, plus a clean audit.
fn assert_agree(inc: &Master, refr: &Master, step: usize) {
    assert_eq!(inc.pending_len(), refr.pending_len(), "step {step}: depth");
    assert_eq!(
        inc.pending_bytes(),
        refr.pending_bytes(),
        "step {step}: bytes"
    );
    let blocks: Vec<BlockId> = inc.pending_block_ids().collect();
    let blocks_r: Vec<BlockId> = refr.pending_block_ids().collect();
    assert_eq!(blocks, blocks_r, "step {step}: pending block sets");
    for b in blocks {
        assert_eq!(
            inc.target_of(b),
            refr.target_of(b),
            "step {step}: target of {b:?} diverged"
        );
    }
    for (label, m) in [("incremental", inc), ("reference", refr)] {
        let mut report = AuditReport::new();
        m.audit(&mut report);
        assert!(
            report.is_clean(),
            "step {step}: {label} audit: {:?}",
            report.violations()
        );
    }
}

fn order_of(sel: u8) -> MigrationOrder {
    match sel % 3 {
        0 => MigrationOrder::Fifo,
        1 => MigrationOrder::SmallestJobFirst,
        _ => MigrationOrder::EarliestDeadlineFirst,
    }
}

proptest! {
    /// Random event sequences through both engines: identical targets,
    /// identical bind order, identical audit results, at every step.
    #[test]
    fn engines_are_decision_identical(
        order_sel in 0u8..3,
        detector in prop::bool::ANY,
        ops in proptest::collection::vec(
            (0u8..9, 0u32..NODES, 0u64..64, 1u64..40),
            1..120,
        ),
    ) {
        let order = order_of(order_sel);
        let mut inc = master_with(sched_cfg(SchedEngine::Sharded, 1, 0.0), order, detector);
        let mut refr = master_with(sched_cfg(SchedEngine::Reference, 1, 0.0), order, detector);
        let mut clock = SimTime::ZERO;
        let mut next_block = 0u64;
        let mut next_job = 0u64;
        // Bound-but-unfinished migrations, identical across the pair by
        // induction (pull results are asserted equal), plus the liveness
        // view: a dead slave never reports a completion, and its bound
        // work is forfeit (respawned by the detector when one is on).
        let mut bound: Vec<(NodeId, BlockId)> = Vec::new();
        let mut live = vec![true; NODES as usize];
        for (step, &(op, node_sel, pick, dt)) in ops.iter().enumerate() {
            clock += SimDuration::from_secs(dt);
            let node = NodeId(node_sel);
            match op {
                // Admit 1–3 fresh blocks under one job, with hints so the
                // SJF/EDF order keys are exercised.
                0 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    let reqs: Vec<BlockRequest> = (0..(pick % 3) + 1)
                        .map(|k| {
                            let b = next_block;
                            next_block += 1;
                            let r0 = (node_sel + k as u32) % NODES;
                            BlockRequest {
                                block: BlockId(b),
                                bytes: (1 + (pick + k) % 8) * 64 * MB,
                                replicas: vec![
                                    NodeId(r0),
                                    NodeId((r0 + 1 + (pick as u32 % 2)) % NODES),
                                ],
                            }
                        })
                        .collect();
                    let hint = JobHint {
                        expected_launch: clock + SimDuration::from_secs(pick % 30),
                        total_bytes: (1 + pick % 10) * 256 * MB,
                    };
                    let a = inc.request_migration_hinted(
                        job, reqs.clone(), EvictionMode::Implicit, hint);
                    let b = refr.request_migration_hinted(
                        job, reqs, EvictionMode::Implicit, hint);
                    prop_assert_eq!(a, b, "step {}: admit outcome", step);
                }
                1 => {
                    inc.retarget();
                    refr.retarget();
                }
                // A pull must bind the same migrations in the same order.
                2 => {
                    let space = (pick as usize % 4) + 1;
                    let a = inc.on_slave_pull(node, space);
                    let b = refr.on_slave_pull(node, space);
                    prop_assert_eq!(&a, &b, "step {}: pull diverged", step);
                    prop_assert!(a.len() <= space, "step {step}: over-popped");
                    for mig in a {
                        bound.push((node, mig.block));
                    }
                }
                3 => {
                    let eligible: Vec<usize> = (0..bound.len())
                        .filter(|&i| live[bound[i].0.index()])
                        .collect();
                    if let Some(&i) = eligible.get(pick as usize % eligible.len().max(1)) {
                        let (n, b) = bound.swap_remove(i);
                        inc.on_migration_complete(n, b);
                        refr.on_migration_complete(n, b);
                    }
                }
                // Read-cancel a random (possibly absent) block.
                4 => {
                    let b = BlockId(pick % next_block.max(1));
                    prop_assert_eq!(
                        inc.on_block_read(b),
                        refr.on_block_read(b),
                        "step {}: read-cancel", step
                    );
                }
                5 => {
                    let j = JobId(pick % next_job.max(1));
                    prop_assert_eq!(
                        inc.evict_job(j),
                        refr.evict_job(j),
                        "step {}: evict nodes", step
                    );
                }
                // spb drift + backlog drift through a heartbeat.
                6 => {
                    let spb = (1.0 + (pick % 16) as f64) / BW;
                    let queued = (pick % 5) * 128 * MB;
                    inc.on_heartbeat_at(node, spb, queued, clock);
                    refr.on_heartbeat_at(node, spb, queued, clock);
                }
                7 => {
                    let up = pick % 2 == 0;
                    live[node.index()] = up;
                    if !up {
                        bound.retain(|&(n, _)| n != node);
                    }
                    inc.set_node_up(node, up);
                    refr.set_node_up(node, up);
                    if detector {
                        let a = inc.check_health(clock);
                        let b = refr.check_health(clock);
                        prop_assert_eq!(a.stuck, b.stuck, "step {}: health", step);
                    }
                }
                // Master restart: both drop soft state (rare-ish op; the
                // sequence keeps running against the reset pair).
                _ => {
                    inc.restart();
                    refr.restart();
                    bound.clear();
                }
            }
            assert_agree(&inc, &refr, step);
        }
        // Final drain: retarget + pull everything bindable, comparing the
        // complete bind order, not just a prefix.
        for round in 0..64 {
            inc.retarget();
            refr.retarget();
            let mut any = false;
            for n in 0..NODES {
                let a = inc.on_slave_pull(NodeId(n), 8);
                let b = refr.on_slave_pull(NodeId(n), 8);
                prop_assert_eq!(&a, &b, "drain round {} node {}", round, n);
                any |= !a.is_empty();
            }
            assert_agree(&inc, &refr, usize::MAX);
            if !any {
                break;
            }
        }
    }

    /// Steady state sanity: with nothing dirty the incremental pass must
    /// skip everything, and a single node's drift must not rescore the
    /// whole queue — while staying decision-identical throughout.
    #[test]
    fn steady_state_skips_and_stays_identical(
        spbs in proptest::collection::vec(1.0f64..20.0, NODES as usize),
        blocks in 1usize..40,
    ) {
        let mut inc = master_with(
            sched_cfg(SchedEngine::Sharded, 1, 0.0), MigrationOrder::Fifo, false);
        let mut refr = master_with(
            sched_cfg(SchedEngine::Reference, 1, 0.0), MigrationOrder::Fifo, false);
        for (n, s) in spbs.iter().enumerate() {
            inc.on_heartbeat_at(NodeId(n as u32), s / BW, 0, SimTime::ZERO);
            refr.on_heartbeat_at(NodeId(n as u32), s / BW, 0, SimTime::ZERO);
        }
        for i in 0..blocks as u64 {
            let reqs = vec![BlockRequest {
                block: BlockId(i),
                bytes: 256 * MB,
                replicas: vec![NodeId(i as u32 % NODES), NodeId((i as u32 + 1) % NODES)],
            }];
            inc.request_migration(JobId(i), reqs.clone(), EvictionMode::Implicit);
            refr.request_migration(JobId(i), reqs, EvictionMode::Implicit);
        }
        let first = inc.retarget();
        refr.retarget();
        prop_assert_eq!(first.rescored, blocks as u64, "first pass rescans all");
        assert_agree(&inc, &refr, 0);
        // Nothing changed: the incremental pass must do no scoring work.
        let steady = inc.retarget();
        refr.retarget();
        prop_assert_eq!(steady.rescored, 0);
        prop_assert_eq!(steady.skipped, blocks as u64);
        assert_agree(&inc, &refr, 1);
        // One node drifts: only its replica holders (plus any cascade)
        // may be rescored — never provably-unaffected entries.
        inc.on_heartbeat_at(NodeId(0), 30.0 / BW, 64 * MB, SimTime::from_secs(1));
        refr.on_heartbeat_at(NodeId(0), 30.0 / BW, 64 * MB, SimTime::from_secs(1));
        let drift = inc.retarget();
        refr.retarget();
        prop_assert!(drift.rescored >= 1 || blocks == 0);
        assert_agree(&inc, &refr, 2);
    }
}

/// An FNV-1a digest of a drain: every (node, block, target-tier) triple
/// pulled, in bind order. Two stores with identical pending state and
/// identical decisions must replay identical digests.
fn drain_digest(m: &mut Master) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..64 {
        m.retarget();
        let mut any = false;
        for n in 0..NODES {
            for mig in m.on_slave_pull(NodeId(n), 8) {
                fold(n as u64);
                fold(mig.block.0);
                fold(mig.dest_tier as u64);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shard-count sweep: the sharded engine at 1, 2, and 8 shards (the
    /// last with a tight cascade ceiling, so the fallback rescan also
    /// runs) and at the default configuration, against the reference
    /// rescan, through random admit / retarget / pull / complete /
    /// drift / evict sequences.
    /// Identical targets and pulls at every step, identical drain
    /// digests at the end.
    #[test]
    fn shard_counts_are_decision_identical(
        order_sel in 0u8..3,
        ops in proptest::collection::vec(
            (0u8..6, 0u32..NODES, 0u64..64, 1u64..40),
            1..80,
        ),
    ) {
        let order = order_of(order_sel);
        let mut fleet = [
            master_with(sched_cfg(SchedEngine::Reference, 1, 0.0), order, false),
            master_with(sched_cfg(SchedEngine::Sharded, 1, 0.0), order, false),
            master_with(SchedulerConfig::default(), order, false),
            master_with(sched_cfg(SchedEngine::Sharded, 2, 0.0), order, false),
            master_with(sched_cfg(SchedEngine::Sharded, 8, 0.1), order, false),
        ];
        let mut clock = SimTime::ZERO;
        let mut next_block = 0u64;
        let mut next_job = 0u64;
        let mut bound: Vec<(NodeId, BlockId)> = Vec::new();
        for (step, &(op, node_sel, pick, dt)) in ops.iter().enumerate() {
            clock += SimDuration::from_secs(dt);
            let node = NodeId(node_sel);
            match op {
                0 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    // Block ids jump in 64-id strides so admissions truly
                    // spread across range shards.
                    let reqs: Vec<BlockRequest> = (0..(pick % 3) + 1)
                        .map(|k| {
                            let b = next_block * 64 + k;
                            next_block += 1;
                            let r0 = (node_sel + k as u32) % NODES;
                            BlockRequest {
                                block: BlockId(b),
                                bytes: (1 + (pick + k) % 8) * 64 * MB,
                                replicas: vec![
                                    NodeId(r0),
                                    NodeId((r0 + 1 + (pick as u32 % 2)) % NODES),
                                ],
                            }
                        })
                        .collect();
                    let hint = JobHint {
                        expected_launch: clock + SimDuration::from_secs(pick % 30),
                        total_bytes: (1 + pick % 10) * 256 * MB,
                    };
                    let first = fleet[0].request_migration_hinted(
                        job, reqs.clone(), EvictionMode::Implicit, hint);
                    for m in &mut fleet[1..] {
                        let got = m.request_migration_hinted(
                            job, reqs.clone(), EvictionMode::Implicit, hint);
                        prop_assert_eq!(&first, &got, "step {}: admit outcome", step);
                    }
                }
                1 => {
                    for m in &mut fleet {
                        m.retarget();
                    }
                }
                2 => {
                    let space = (pick as usize % 4) + 1;
                    let first = fleet[0].on_slave_pull(node, space);
                    for m in &mut fleet[1..] {
                        let got = m.on_slave_pull(node, space);
                        prop_assert_eq!(&first, &got, "step {}: pull diverged", step);
                    }
                    for mig in first {
                        bound.push((node, mig.block));
                    }
                }
                3 => {
                    if !bound.is_empty() {
                        let (n, b) = bound.swap_remove(pick as usize % bound.len());
                        for m in &mut fleet {
                            m.on_migration_complete(n, b);
                        }
                    }
                }
                4 => {
                    let spb = (1.0 + (pick % 16) as f64) / BW;
                    let queued = (pick % 5) * 128 * MB;
                    for m in &mut fleet {
                        m.on_heartbeat_at(node, spb, queued, clock);
                    }
                }
                _ => {
                    let j = JobId(pick % next_job.max(1));
                    let first = fleet[0].evict_job(j);
                    for m in &mut fleet[1..] {
                        let got = m.evict_job(j);
                        prop_assert_eq!(&first, &got, "step {}: evict nodes", step);
                    }
                }
            }
            let (oracle, rest) = fleet.split_first().expect("fleet non-empty");
            for m in rest {
                assert_agree(m, oracle, step);
            }
        }
        // Per-shard depths must always re-add to the global depth.
        for m in &fleet {
            prop_assert_eq!(
                m.sched_shard_depths().iter().sum::<usize>(),
                m.pending_len()
            );
        }
        // Drain everything: the complete bind order, digested, must be
        // identical across every shard count.
        let digests: Vec<u64> = fleet.iter_mut().map(drain_digest).collect();
        for d in &digests[1..] {
            prop_assert_eq!(digests[0], *d, "drain digests diverged");
        }
    }
}

#[test]
fn cascade_ceiling_falls_back_without_changing_decisions() {
    // Every configuration sees the same script: admissions, a first pass,
    // a sparse pass (one node drifts), then a dense pass (every node
    // drifts, so the visit plan covers the whole queue). An absurdly low
    // ceiling and the default ceiling must both bail to the reference
    // rescan on the dense pass (ceiling_hits = 1); the default must keep
    // the sparse pass incremental; un-armed (0.0) the check never fires.
    // Every configuration must match the reference decisions after every
    // pass and drain in the same order.
    //
    // Node 0 is far slower than the rest and holds a third replica of one
    // block in eight, so the sparse pass visits 1/8 of the queue and —
    // node 0 never winning — cascades nowhere.
    const BLOCKS: u64 = 200;
    let run = |cfg: SchedulerConfig| -> (
        Master,
        Vec<Vec<Option<NodeId>>>,
        RetargetStats,
        RetargetStats,
    ) {
        let mut m = master_with(cfg, MigrationOrder::Fifo, false);
        m.on_heartbeat_at(NodeId(0), 1000.0 / BW, 0, SimTime::ZERO);
        for n in 1..NODES {
            m.on_heartbeat_at(NodeId(n), (1.0 + n as f64) / BW, 0, SimTime::ZERO);
        }
        for i in 0..BLOCKS {
            let r = (i % 5) as u32;
            let mut replicas = vec![NodeId(1 + r), NodeId(1 + (r + 1) % 5)];
            if i % 8 == 0 {
                replicas.push(NodeId(0));
            }
            let reqs = vec![BlockRequest {
                block: BlockId(i * 64),
                bytes: 256 * MB,
                replicas,
            }];
            m.request_migration(JobId(i), reqs, EvictionMode::Implicit);
        }
        let targets = |m: &Master| -> Vec<Option<NodeId>> {
            m.pending_block_ids().map(|b| m.target_of(b)).collect()
        };
        let mut seen = Vec::new();
        m.retarget();
        seen.push(targets(&m));
        m.on_heartbeat_at(NodeId(0), 1100.0 / BW, 0, SimTime::from_secs(1));
        let sparse = m.retarget();
        seen.push(targets(&m));
        for n in 0..NODES {
            m.on_heartbeat_at(
                NodeId(n),
                (2.0 + n as f64) / BW,
                128 * MB,
                SimTime::from_secs(2),
            );
        }
        let dense = m.retarget();
        seen.push(targets(&m));
        (m, seen, sparse, dense)
    };
    let (mut refr, ref_seen, _, _) = run(sched_cfg(SchedEngine::Reference, 4, 0.0));
    let ref_digest = drain_digest(&mut refr);
    // (label, config, expected ceiling hits on the sparse pass — `None`
    // when the tight ceiling may fire there too — and on the dense pass)
    let cases = [
        ("tight", sched_cfg(SchedEngine::Sharded, 4, 0.05), None, 1),
        (
            "unarmed",
            sched_cfg(SchedEngine::Sharded, 4, 0.0),
            Some(0),
            0,
        ),
        ("default", SchedulerConfig::default(), Some(0), 1),
    ];
    for (label, cfg, sparse_hits, dense_hits) in cases {
        let (mut m, seen, sparse, dense) = run(cfg);
        assert_eq!(dense.ceiling_hits, dense_hits, "{label}: dense pass");
        if let Some(hits) = sparse_hits {
            assert_eq!(sparse.ceiling_hits, hits, "{label}: sparse pass");
            assert!(
                sparse.rescored > 0 && sparse.rescored < BLOCKS,
                "{label}: an incremental sparse pass skips clean entries: {sparse:?}"
            );
        }
        assert_eq!(
            seen, ref_seen,
            "{label}: targets diverged from the reference"
        );
        assert_eq!(drain_digest(&mut m), ref_digest, "{label}: drain order");
    }
}
