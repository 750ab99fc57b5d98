//! `spb_epsilon` — the approximate dirty-marking study (EXPERIMENTS.md).
//!
//! The scheduler's `spb_epsilon` gate drops sub-threshold estimate moves
//! on the heartbeat path: a node whose spb changed by ≤ ε (relative)
//! keeps its old snapshot value and is not marked dirty. That converts
//! estimator jitter from per-tick fleet-wide rescoring into no work at
//! all — at the price of scoring against slightly stale estimates.
//!
//! This binary sweeps ε over the 1M-pending × 1k-node state and records
//! both sides of that trade, per tick:
//!
//! * **skipped work** — entries rescored by the retarget pass, vs the
//!   exact (ε = 0) run;
//! * **decision drift** — fraction of a fixed 10k-block sample whose
//!   target differs from the exact run's target at the same tick.
//!
//! The heartbeat model separates noise from signal the way a smoothed
//! estimator does: every node reports through ±0.5% residual jitter
//! (what an EWMA leaves of per-transfer noise), while each tick a
//! rotating set of 32 nodes takes a real ±3–8% cost move (load shifting
//! around the fleet). Pending blocks span 64–512 MB so finish-time
//! scores are not artificially tied by uniform sizing.
//!
//! The sweep's finding (see EXPERIMENTS.md) is that ε is a gate, not a
//! dial. Below the jitter band the whole fleet dirties every tick; in
//! between, the real movers alone flip enough near-tied winners that
//! the cascade ceiling trips and the pass falls back to a full
//! reference walk anyway — work stays at 100% while decision drift
//! saturates. Only when ε clears the movers' scale does work collapse,
//! at maximal drift. The per-run `ceiling_frac` column substantiates
//! this: every full-work tick is a ceiling-tripped pass, not a
//! genuinely all-dirty one. All runs share one seed: identical
//! workloads, identical heartbeat streams, deterministic output.
//!
//! ```text
//! spb_epsilon [--out results/spb_epsilon.json] [--pending N] [--nodes N]
//! ```

use dyrs::master::{BlockRequest, Master};
use dyrs::types::EvictionMode;
use dyrs::{MigrationPolicy, SchedulerConfig};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::Rng;

const MB: u64 = 1 << 20;
const BLOCK: u64 = 256 * MB;
const TICKS: usize = 12;
const EPSILONS: &[f64] = &[0.0, 1e-4, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 2e-1];

struct EpsRun {
    epsilon: f64,
    /// Entries rescored per tick (mean over the measured ticks).
    rescored_per_tick: f64,
    /// Share of the exact run's rescoring this ε still performs.
    work_vs_exact: f64,
    /// Fraction of ticks whose pass tripped the cascade ceiling (and so
    /// finished with the full reference walk).
    ceiling_frac: f64,
    /// Mean per-tick fraction of sampled blocks whose target differs
    /// from the exact run.
    drift_mean: f64,
    /// Worst tick's differing fraction.
    drift_max: f64,
    /// Mean per-tick fraction of sampled blocks whose target changed
    /// from the *previous tick of the same run* — self-churn. The exact
    /// run churns by chasing estimator noise; a frozen run does not, so
    /// drift-vs-exact alone overstates ε's error.
    churn_mean: f64,
}

simkit::impl_to_json!(EpsRun {
    epsilon,
    rescored_per_tick,
    work_vs_exact,
    ceiling_frac,
    drift_mean,
    drift_max,
    churn_mean,
});

/// Per-tick sampled targets for one run: `targets[tick][sample]`.
type SampledTargets = Vec<Vec<Option<NodeId>>>;

fn run(epsilon: f64, pending: u64, nodes: u32) -> (f64, f64, SampledTargets) {
    let mut m = Master::new(
        MigrationPolicy::Dyrs,
        nodes as usize,
        140.0 * MB as f64,
        Rng::new(1),
    );
    m.set_sched_config(SchedulerConfig {
        shards: 16,
        spb_epsilon: epsilon,
        ..SchedulerConfig::default()
    });
    // Identical loader across ε runs: same Rng stream, same placement.
    let mut rng = Rng::new(2);
    let mut true_spb: Vec<f64> = (0..nodes)
        .map(|_| rng.range_f64(0.8, 4.0) / (140.0 * MB as f64))
        .collect();
    for (n, &s) in true_spb.iter().enumerate() {
        m.on_heartbeat(NodeId(n as u32), s, BLOCK);
    }
    let reqs: Vec<BlockRequest> = (0..pending)
        .map(|i| {
            let base = rng.below(nodes as u64) as u32;
            BlockRequest {
                block: BlockId(i),
                // Mixed block sizes (64–512 MB): realistic, and it keeps
                // finish-time scores from being artificially near-tied.
                bytes: (64 << (i % 4)) * MB,
                replicas: vec![
                    NodeId(base),
                    NodeId((base + 1) % nodes),
                    NodeId((base + 7) % nodes),
                ],
            }
        })
        .collect();
    m.request_migration(JobId(1), reqs, EvictionMode::Implicit);
    m.retarget(); // warm: score everything once
    let sample: Vec<BlockId> = (0..pending).step_by(101).map(BlockId).collect();
    let mut rescored_total = 0u64;
    let mut ceiling_ticks = 0u64;
    let mut targets: SampledTargets = Vec::with_capacity(TICKS);
    let mut walk = Rng::new(3);
    for tick in 0..TICKS {
        // A rotating 32-node set takes a real cost move this tick.
        for d in 0..32u32 {
            let n = ((d * (nodes / 32) + tick as u32) % nodes) as usize;
            let mv = walk.range_f64(0.03, 0.08);
            true_spb[n] *= if walk.below(2) == 0 {
                1.0 + mv
            } else {
                1.0 / (1.0 + mv)
            };
        }
        for (n, &spb) in true_spb.iter().enumerate() {
            // Residual estimator jitter on every report — the stream ε
            // is meant to absorb (the real movers above are what it must
            // not).
            let measured = spb * (1.0 + walk.range_f64(-0.005, 0.005));
            m.on_heartbeat(NodeId(n as u32), measured, BLOCK);
        }
        let st = m.retarget();
        rescored_total += st.rescored;
        ceiling_ticks += u64::from(st.ceiling_hits > 0);
        targets.push(sample.iter().map(|&b| m.target_of(b)).collect());
    }
    (
        rescored_total as f64 / TICKS as f64,
        ceiling_ticks as f64 / TICKS as f64,
        targets,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag("--out").unwrap_or_else(|| "results/spb_epsilon.json".into());
    let pending: u64 = flag("--pending").map_or(1_000_000, |v| v.parse().expect("--pending"));
    let nodes: u32 = flag("--nodes").map_or(1_000, |v| v.parse().expect("--nodes"));

    let (exact_mean, exact_ceiling, exact_targets) = run(0.0, pending, nodes);
    let mut rows: Vec<EpsRun> = Vec::new();
    for &eps in EPSILONS {
        let (rescored_mean, ceiling_frac, targets) = if eps == 0.0 {
            (exact_mean, exact_ceiling, exact_targets.clone())
        } else {
            run(eps, pending, nodes)
        };
        let mut drift_mean = 0.0;
        let mut drift_max: f64 = 0.0;
        let mut churn_mean = 0.0;
        for (tick, row) in targets.iter().enumerate() {
            let differing = row
                .iter()
                .zip(&exact_targets[tick])
                .filter(|(a, b)| a != b)
                .count();
            let frac = differing as f64 / row.len() as f64;
            drift_mean += frac / TICKS as f64;
            drift_max = drift_max.max(frac);
            if tick > 0 {
                let flipped = row
                    .iter()
                    .zip(&targets[tick - 1])
                    .filter(|(a, b)| a != b)
                    .count();
                churn_mean += flipped as f64 / row.len() as f64 / (TICKS - 1) as f64;
            }
        }
        let row = EpsRun {
            epsilon: eps,
            rescored_per_tick: rescored_mean,
            work_vs_exact: rescored_mean / exact_mean,
            ceiling_frac,
            drift_mean,
            drift_max,
            churn_mean,
        };
        println!(
            "eps {:>7.0e}: rescored/tick {:>12.0} ({:>5.1}% of exact)  \
             ceiling {:>5.1}%  drift mean {:.3}% max {:.3}%  churn {:.3}%",
            row.epsilon,
            row.rescored_per_tick,
            100.0 * row.work_vs_exact,
            100.0 * row.ceiling_frac,
            100.0 * row.drift_mean,
            100.0 * row.drift_max,
            100.0 * row.churn_mean,
        );
        rows.push(row);
    }

    let json = simkit::json_object! {
        "pending": pending,
        "nodes": nodes,
        "ticks": TICKS,
        "sweep": rows,
    }
    .to_pretty()
        + "\n";
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
