//! DYRS configuration knobs.

use crate::policy::MigrationOrder;
use simkit::json::{self, FromJson, Reader};
use simkit::read_json_fields;
use simkit::SimDuration;

/// Tunables for the DYRS master and slaves. Defaults follow the paper's
/// description and HDFS conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct DyrsConfig {
    /// Slave → master heartbeat interval (HDFS DataNode default: 3 s; the
    /// paper's adaptation experiments respond on the order of seconds, so
    /// we default to 1 s like busy production deployments).
    pub heartbeat_interval: SimDuration,
    /// Period of the master's background retargeting pass (Algorithm 1).
    /// "This algorithm is run regularly in a separate thread that is off
    /// the critical path" (§III-A2).
    pub retarget_interval: SimDuration,
    /// EWMA weight of the newest migration-duration sample (§IV-A).
    pub ewma_alpha: f64,
    /// Extra queue slots beyond the idleness-avoidance minimum. The ideal
    /// queue is "deep enough to avoid idleness, and yet as shallow as
    /// possible" (§III-A1); the minimum is heartbeat ÷ best-case block
    /// migration time, plus this slack.
    pub queue_slack: usize,
    /// Fraction of the memory hard limit at which a slave scavenges
    /// references of inactive jobs (§III-C3).
    pub scavenge_threshold: f64,
    /// Pending-list discipline at the master (paper: FIFO; SJF and EDF
    /// are the future-work alternatives, see
    /// [`MigrationOrder`]).
    pub migration_order: MigrationOrder,
    /// Maximum concurrent migrations per slave disk. The paper
    /// "serializes migrations and moves one block at a time into memory
    /// in order to limit disk read concurrency" (§III-B); values > 1
    /// exist for the ablation study quantifying that choice.
    pub max_concurrent_migrations: usize,
    /// Enable the §IV-A in-progress estimate refresh (update the estimate
    /// every heartbeat once an active migration runs past it). The paper
    /// added this after observing slow adaptation to sudden bandwidth
    /// drops; setting it to `false` reproduces their earlier prototype
    /// for the ablation study.
    pub in_progress_refresh: bool,
    /// Gray-failure detector: heartbeat deadlines, bounded retry, and
    /// per-node quarantine.
    pub failure_detector: FailureDetectorConfig,
    /// Pending-migration scheduler: which Algorithm 1 engine runs and how
    /// eagerly estimate drift dirties nodes.
    pub scheduler: SchedulerConfig,
    /// Up/down-tier decision policy on multi-tier buffer stacks: Baseline
    /// reproduces the paper's memory-only reference-list protocol (with
    /// demote-on-pressure retention), Hotness additionally promotes
    /// middle-tier hits back into memory. Ignored on 2-tier stacks.
    pub tier_policy: dyrs_tiers::TierPolicyKind,
}

impl FromJson for DyrsConfig {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let d = DyrsConfig::default();
        Ok(read_json_fields!(r, DyrsConfig {
            heartbeat_interval,
            retarget_interval,
            ewma_alpha,
            queue_slack,
            scavenge_threshold,
            migration_order = d.migration_order,
            max_concurrent_migrations = d.max_concurrent_migrations,
            in_progress_refresh = d.in_progress_refresh,
            failure_detector = d.failure_detector,
            scheduler = d.scheduler,
            tier_policy = d.tier_policy,
        }))
    }
}

/// Which Algorithm 1 implementation the master's scheduler runs. Both
/// are decision-identical (asserted by the `sched_equivalence`
/// proptests); the reference pass is the executable form of the paper's
/// pseudocode, the differential-testing oracle, and the walk the sharded
/// engine falls back to at its cascade ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedEngine {
    /// The paper's full rescan: every pending entry rescored every pass.
    Reference,
    /// The shard-local incremental pass: only entries whose candidate set
    /// or node trajectories changed since the last pass are rescored,
    /// from per-shard sorted visit lists walked through a K-way merge
    /// with allocation-free rescoring. A pass denser than the cascade
    /// cost ceiling (`cascade_ceiling`) runs the reference walk instead.
    /// Decisions are bit-identical to `Reference` at every shard count.
    #[default]
    Sharded,
}

impl FromJson for SchedEngine {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        r.unit_variant(&[
            ("Reference", SchedEngine::Reference),
            ("Sharded", SchedEngine::Sharded),
        ])
    }
}

/// Scheduler engine selection and dirty-set thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Which retarget engine runs.
    pub engine: SchedEngine,
    /// Relative threshold below which a node's seconds-per-byte drift is
    /// ignored by the scoring snapshot (the node is not dirtied and keeps
    /// its old estimate). `0.0` — the default — mirrors every heartbeat
    /// exactly, keeping decisions identical to the paper's master;
    /// positive values trade estimate freshness for fewer rescores under
    /// EWMA jitter. Queued-bytes and candidacy changes always apply.
    pub spb_epsilon: f64,
    /// Number of range shards the pending store partitions into. `1`
    /// (the default) reproduces the monolithic layout exactly; larger
    /// counts spread `by_block`/`replica_idx`/bind-queue state over
    /// shards keyed by block-id range. Drain order is unchanged at any
    /// value (cross-shard K-way merge over the `OrderKey` total order).
    pub shards: usize,
    /// Cascade cost ceiling for the `Sharded` engine: when a pass's
    /// visit set in any one shard exceeds this fraction of the shard's
    /// queue, the pass abandons incremental accounting and finishes with
    /// the reference walk (identical decisions by construction; the
    /// switch is recorded via the `sched.cascade_ceiling` counter).
    /// The default, `0.25`, sends dense passes (a fleet-wide heartbeat
    /// round, the first pass over a fresh queue) down the sequential walk
    /// and keeps sparse ones incremental. `0.0` disables the ceiling.
    pub cascade_ceiling: f64,
}

impl FromJson for SchedulerConfig {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let d = SchedulerConfig::default();
        Ok(read_json_fields!(r, SchedulerConfig {
            engine = d.engine,
            spb_epsilon = d.spb_epsilon,
            shards = d.shards,
            cascade_ceiling = d.cascade_ceiling,
        }))
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            engine: SchedEngine::default(),
            spb_epsilon: 0.0,
            shards: 1,
            cascade_ceiling: 0.25,
        }
    }
}

/// Master-side gray-failure detector knobs.
///
/// The paper's protocol assumes nodes either heartbeat or are dead; this
/// layer covers the space in between — a node whose heartbeats stall, or
/// whose bound migrations crawl, without the node ever failing outright.
/// Disabling it (`enabled: false`) restores the paper's exact behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDetectorConfig {
    /// Master-side detector on/off switch.
    pub enabled: bool,
    /// A node missing heartbeats for this long becomes *suspect*: its
    /// bound-but-unstarted migrations are unbound back to pending and it
    /// leaves Algorithm 1 candidacy until it heartbeats again. Must exceed
    /// the heartbeat interval with slack for ordinary jitter.
    pub suspect_after: SimDuration,
    /// A bound migration not finished within this many multiples of the
    /// node's own estimate (`spb · bytes`, floored by `stuck_floor`) is
    /// declared stuck and re-bound elsewhere.
    pub stuck_multiple: f64,
    /// Lower bound on the stuck deadline, so cheap blocks on fast disks
    /// are not declared stuck over scheduling noise.
    pub stuck_floor: SimDuration,
    /// Total binding attempts per block before the master gives up with a
    /// terminal `retries-exhausted` abort.
    pub max_attempts: u32,
    /// Base of the deterministic exponential backoff between attempts:
    /// attempt k re-enters candidacy after `retry_backoff · 2^(k−1)`.
    pub retry_backoff: SimDuration,
    /// Strikes (suspect transitions or stuck migrations) within
    /// `strike_window` that quarantine a node.
    pub quarantine_strikes: u32,
    /// Sliding window over which strikes are counted.
    pub strike_window: SimDuration,
    /// How long a quarantined node is barred from candidacy before it may
    /// run a probation migration.
    pub quarantine_backoff: SimDuration,
    /// Admission ramp for a `Joining` node: how many migrations it must
    /// complete before it graduates to full `Healthy` candidacy. While
    /// joining, a pull may bind at most `1 + completed` migrations, so a
    /// cold node warms its estimator before absorbing a full queue.
    pub join_ramp_target: u32,
}

impl FromJson for FailureDetectorConfig {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        let d = FailureDetectorConfig::default();
        Ok(read_json_fields!(r, FailureDetectorConfig {
            enabled = d.enabled,
            suspect_after = d.suspect_after,
            stuck_multiple = d.stuck_multiple,
            stuck_floor = d.stuck_floor,
            max_attempts = d.max_attempts,
            retry_backoff = d.retry_backoff,
            quarantine_strikes = d.quarantine_strikes,
            strike_window = d.strike_window,
            quarantine_backoff = d.quarantine_backoff,
            join_ramp_target = d.join_ramp_target,
        }))
    }
}

impl Default for FailureDetectorConfig {
    fn default() -> Self {
        FailureDetectorConfig {
            enabled: true,
            suspect_after: SimDuration::from_secs(3),
            stuck_multiple: 8.0,
            stuck_floor: SimDuration::from_secs(20),
            max_attempts: 4,
            retry_backoff: SimDuration::from_secs(1),
            quarantine_strikes: 3,
            strike_window: SimDuration::from_secs(30),
            quarantine_backoff: SimDuration::from_secs(10),
            join_ramp_target: 4,
        }
    }
}

impl Default for DyrsConfig {
    fn default() -> Self {
        DyrsConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            retarget_interval: SimDuration::from_millis(500),
            ewma_alpha: 0.5,
            queue_slack: 1,
            scavenge_threshold: 0.8,
            migration_order: MigrationOrder::Fifo,
            max_concurrent_migrations: 1,
            in_progress_refresh: true,
            failure_detector: FailureDetectorConfig::default(),
            scheduler: SchedulerConfig::default(),
            tier_policy: dyrs_tiers::TierPolicyKind::default(),
        }
    }
}

impl DyrsConfig {
    /// The ideal local queue depth for a slave whose disk reads a block of
    /// `block_bytes` at `disk_bw` bytes/sec when idle: the queue "should
    /// not totally drain in the interval it takes to fetch more work"
    /// (§III-B), i.e. ⌈heartbeat ÷ best-case block time⌉ + slack.
    pub fn queue_depth(&self, block_bytes: u64, disk_bw: f64) -> usize {
        if block_bytes == 0 {
            return 1 + self.queue_slack;
        }
        let block_secs = block_bytes as f64 / disk_bw;
        let hb = self.heartbeat_interval.as_secs_f64();
        ((hb / block_secs).ceil() as usize).max(1) + self.queue_slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DyrsConfig::default();
        assert!(c.ewma_alpha > 0.0 && c.ewma_alpha <= 1.0);
        assert!(c.retarget_interval <= c.heartbeat_interval);
        assert!(c.scavenge_threshold > 0.0 && c.scavenge_threshold <= 1.0);
    }

    #[test]
    fn queue_depth_covers_heartbeat() {
        let c = DyrsConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            queue_slack: 1,
            ..DyrsConfig::default()
        };
        // 256 MB at 140 MB/s ≈ 1.83s per block → 1 block per heartbeat + slack
        let d = c.queue_depth(256 << 20, 140.0 * (1 << 20) as f64);
        assert_eq!(d, 2);
        // tiny blocks → deep queue
        let d = c.queue_depth(1 << 20, 140.0 * (1 << 20) as f64);
        assert_eq!(d, 141);
    }

    #[test]
    fn queue_depth_zero_block_is_minimal() {
        let c = DyrsConfig::default();
        assert_eq!(c.queue_depth(0, 1e8), 1 + c.queue_slack);
    }

    #[test]
    fn scheduler_defaults_are_exact_incremental() {
        let s = DyrsConfig::default().scheduler;
        assert_eq!(s.engine, SchedEngine::Sharded);
        assert_eq!(s.spb_epsilon, 0.0, "default snapshot is an exact mirror");
        assert_eq!(s.shards, 1, "default layout is one shard");
        assert_eq!(
            s.cascade_ceiling, 0.25,
            "dense passes take the reference walk, sparse ones stay incremental"
        );
    }

    #[test]
    fn detector_defaults_are_sane() {
        let c = DyrsConfig::default();
        let d = &c.failure_detector;
        assert!(d.enabled);
        assert!(d.suspect_after > c.heartbeat_interval);
        assert!(d.stuck_multiple > 1.0);
        assert!(d.max_attempts >= 2);
        assert!(d.quarantine_strikes >= 2);
        assert!(d.strike_window > d.suspect_after);
    }

    #[test]
    fn disabling_detector_keeps_other_defaults() {
        let d = FailureDetectorConfig {
            enabled: false,
            ..FailureDetectorConfig::default()
        };
        assert!(!d.enabled);
        assert_eq!(
            d.max_attempts,
            FailureDetectorConfig::default().max_attempts
        );
    }
}
