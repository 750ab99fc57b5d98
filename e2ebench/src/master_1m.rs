//! `master_1m`: a closed-loop replay of a 1k-node fleet's control traffic
//! against one `Master` holding 1M pending 256 MB blocks (3 replicas).
//!
//! Each 500 ms virtual retarget interval, half the fleet heartbeats (1 s
//! cadence). Each of those nodes completes its oldest bound block,
//! reports an EWMA-moved estimate and pulls up to its queue depth. Every
//! interval the oldest job reads [`READS_PER_INTERVAL`] of its blocks
//! (cancel-on-read); every second interval a new job is admitted. The
//! interval ends with `retarget()`. The master runs the default
//! `SchedulerConfig` and `DyrsConfig` with observability attached, as a
//! `dyrs-node` master does.

use crate::env::thread_cpu_ns;
use crate::report::{mean, median, overhead_pct, quantile, Outcome};
use crate::trace::Tracer;
use crate::{Corrupt, Opts};
use dyrs::master::{BlockRequest, Master};
use dyrs::types::EvictionMode;
use dyrs::{DyrsConfig, MigrationPolicy, ObsHandle, SchedulerConfig};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::audit::{Audit, AuditReport};
use simkit::{Rng, SimTime};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const NODES: u32 = 1_000;
const BLOCK: u64 = 256 << 20;
const JOB_BLOCKS: u64 = 5_000;
/// 200 jobs of 5k blocks: 1M pending at admission.
const INITIAL_JOBS: u64 = 200;
const INTERVAL_MS: u64 = 500;
const READS_PER_INTERVAL: u64 = 2_000;
const ADMIT_EVERY: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed warm-up intervals run after set-up until rescored-per-pass
/// levels off (an interval within [`LEVEL`] of the one before), at least
/// [`MIN_WARMUP`] and at most [`MAX_WARMUP`] of them. Rescored counts
/// repeat at a seed, so one engine's window always starts at the same
/// interval; an engine whose passes ramp up warms up for longer.
const MIN_WARMUP: usize = 2;
const MAX_WARMUP: usize = 8;
const LEVEL: f64 = 0.02;
/// The timed window is a fixed number of intervals, whatever the engine's
/// speed: one per [`SECONDS_PER_COUNTED`] of `--seconds` (about the
/// default engine's cost of an interval), at least [`MIN_COUNTED`]. The
/// traced run doubles it, alternating pairs of traced and untraced
/// intervals.
const MIN_COUNTED: u64 = 4;
const SECONDS_PER_COUNTED: u64 = 4;
const MB_PER_S: f64 = (1u64 << 20) as f64;

/// The fleet as the slaves see it: per-node disk speed, EWMA estimate,
/// queue depth and the blocks bound to it, oldest first.
struct Fleet {
    base_spb: Vec<f64>,
    spb: Vec<f64>,
    depth: Vec<usize>,
    bound: Vec<VecDeque<BlockId>>,
    alpha: f64,
    rng: Rng,
    next_job: u64,
    /// Next block the reading job touches.
    read_cursor: u64,
}

fn job_requests(rng: &mut Rng, job: u64) -> Vec<BlockRequest> {
    (0..JOB_BLOCKS)
        .map(|i| {
            let mut replicas: Vec<NodeId> = Vec::with_capacity(3);
            while replicas.len() < 3 {
                let n = NodeId(rng.below(u64::from(NODES)) as u32);
                if !replicas.contains(&n) {
                    replicas.push(n);
                }
            }
            BlockRequest {
                block: BlockId(job * JOB_BLOCKS + i),
                bytes: BLOCK,
                replicas,
            }
        })
        .collect()
}

/// Generation, 1M admission and the first full pass; returns the master,
/// the fleet and how long it took.
fn set_up(seed: u64, tr: &mut Tracer, group: u64) -> (Master, Fleet, Duration) {
    let start = thread_cpu_ns();
    let span = tr.begin("bench.setup", group);
    let dyrs = DyrsConfig::default();
    let mut rng = Rng::new(seed);
    let base_spb: Vec<f64> = (0..NODES)
        .map(|_| 1.0 / (rng.range_f64(35.0, 175.0) * MB_PER_S))
        .collect();
    let depth = base_spb
        .iter()
        .map(|s| dyrs.queue_depth(BLOCK, 1.0 / s))
        .collect();
    let jobs: Vec<Vec<BlockRequest>> = tr.span("bench.gen", group, || {
        (0..INITIAL_JOBS)
            .map(|j| job_requests(&mut rng, j))
            .collect()
    });
    let mut m = Master::new(
        MigrationPolicy::Dyrs,
        NODES as usize,
        140.0 * MB_PER_S,
        Rng::new(seed ^ 0x6d61_7374),
    );
    m.set_sched_config(SchedulerConfig::default());
    m.attach_obs(ObsHandle::new());
    for (n, &spb) in base_spb.iter().enumerate() {
        m.on_heartbeat_at(NodeId(n as u32), spb, 0, SimTime::ZERO);
    }
    tr.span("sched.admit", group, || {
        for (j, reqs) in jobs.into_iter().enumerate() {
            m.request_migration(JobId(j as u64), reqs, EvictionMode::Implicit);
        }
    });
    tr.span("sched.first_pass", group, || m.retarget());
    tr.end(span);
    let fleet = Fleet {
        spb: base_spb.clone(),
        base_spb,
        depth,
        bound: vec![VecDeque::new(); NODES as usize],
        alpha: dyrs.ewma_alpha,
        rng,
        next_job: INITIAL_JOBS,
        read_cursor: 0,
    };
    (m, fleet, Duration::from_nanos(thread_cpu_ns() - start))
}

/// What one interval observed.
#[derive(Default)]
struct Interval {
    /// CPU time of the interval on this thread (host steal excluded).
    cpu: Duration,
    traced: bool,
    /// Heartbeat + pull service times, ns.
    hb_pull_ns: Vec<f64>,
    ops: u64,
    bad_pulls: u64,
    pulls: u64,
    pulled: u64,
    rescored: u64,
    skipped: u64,
    ceiling_hits: u64,
}

fn interval(m: &mut Master, f: &mut Fleet, tr: &mut Tracer, iv: u64) -> Interval {
    let start = thread_cpu_ns();
    let mut out = Interval {
        traced: tr.is_on(),
        ..Interval::default()
    };
    let span = tr.begin("bench.interval", iv);
    let now = SimTime::from_millis(INTERVAL_MS * (iv + 1));
    for n in ((iv % 2) as u32..NODES).step_by(2) {
        let node = NodeId(n);
        let i = n as usize;
        if let Some(block) = f.bound[i].pop_front() {
            tr.span("sched.complete", iv, || {
                m.on_migration_complete(node, block)
            });
            out.ops += 1;
            let sample = f.base_spb[i] * f.rng.range_f64(0.9, 1.1);
            f.spb[i] = f.alpha * sample + (1.0 - f.alpha) * f.spb[i];
        }
        let queued = f.bound[i].len() as u64 * BLOCK;
        let space = f.depth[i].saturating_sub(f.bound[i].len());
        let t = Instant::now();
        tr.span("sched.heartbeat", iv, || {
            m.on_heartbeat_at(node, f.spb[i], queued, now)
        });
        let got = tr.span("sched.pull", iv, || m.on_slave_pull(node, space));
        out.hb_pull_ns.push(t.elapsed().as_nanos() as f64);
        out.ops += 2;
        out.pulls += 1;
        out.pulled += got.len() as u64;
        for mig in got {
            if !mig.replicas.contains(&node) {
                out.bad_pulls += 1;
            }
            f.bound[i].push_back(mig.block);
        }
    }
    let reads = tr.begin("sched.read_cancel", iv);
    for _ in 0..READS_PER_INTERVAL {
        m.on_block_read(BlockId(f.read_cursor));
        f.read_cursor += 1;
    }
    tr.end(reads);
    out.ops += READS_PER_INTERVAL;
    if iv % ADMIT_EVERY == 1 {
        let reqs = tr.span("bench.gen", iv, || job_requests(&mut f.rng, f.next_job));
        let job = JobId(f.next_job);
        tr.span("sched.admit_job", iv, || {
            m.request_migration(job, reqs, EvictionMode::Implicit)
        });
        f.next_job += 1;
        out.ops += 1;
    }
    let stats = tr.span("sched.retarget", iv, || m.retarget());
    out.ops += 1;
    out.rescored = stats.rescored;
    out.skipped = stats.skipped;
    out.ceiling_hits = stats.ceiling_hits;
    tr.end(span);
    out.cpu = Duration::from_nanos(thread_cpu_ns() - start);
    out
}

/// Whether the last warm-up interval rescored within [`LEVEL`] of the one
/// before it.
fn levelled(warm: &[Interval]) -> bool {
    match warm {
        [.., a, b] => b.rescored.abs_diff(a.rescored) as f64 <= LEVEL * a.rescored as f64,
        _ => false,
    }
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    // --- set-up, several times; the last one is kept ------------------------
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for s in 0..SETUPS {
        drop(kept.take());
        tr.set_on(opts.trace);
        let (m, f, took) = set_up(opts.seed, tr, s as u64);
        tr.set_on(false);
        setups.push(took.as_secs_f64());
        kept = Some((m, f));
    }
    let (mut m, mut f) = kept.expect("at least one set-up ran");

    // --- warm-up, then the timed window --------------------------------------
    let mut warm: Vec<Interval> = Vec::new();
    while warm.len() < MIN_WARMUP || (warm.len() < MAX_WARMUP && !levelled(&warm)) {
        let iv = warm.len() as u64;
        warm.push(interval(&mut m, &mut f, tr, iv));
    }
    let counted = (opts.seconds / SECONDS_PER_COUNTED).max(MIN_COUNTED);
    let window = if opts.trace { 2 * counted } else { counted };
    let mut timed: Vec<Interval> = Vec::new();
    for t in 0..window {
        // Traced run: intervals 2-3, 6-7, ... of the window are traced, so
        // both fleet halves and an admission land on each side.
        tr.set_on(opts.trace && (t / 2) % 2 == 1);
        timed.push(interval(&mut m, &mut f, tr, warm.len() as u64 + t));
    }
    tr.set_on(false);

    for (iv, i) in warm.iter().chain(&timed).enumerate() {
        println!(
            "# interval {iv}{} rescored {} skipped {} cpu_ms {:.1}",
            if iv < warm.len() { " (warm-up)" } else { "" },
            i.rescored,
            i.skipped,
            i.cpu.as_secs_f64() * 1e3
        );
    }
    let mut out = Outcome::default();
    let all = warm.iter().chain(&timed);
    out.attempted += all.clone().map(|i| i.ops).sum::<u64>();
    let bad_pulls: u64 = all.map(|i| i.bad_pulls).sum();
    out.failed += bad_pulls;

    // --- correctness ----------------------------------------------------------
    out.check(
        "every pulled block has a replica on the pulling node",
        bad_pulls == 0,
        format!("{bad_pulls} misplaced bindings"),
    );
    let mut audit = AuditReport::new();
    m.audit(&mut audit);
    out.check(
        "master audit runs clean after the timed window",
        audit.is_clean(),
        audit
            .violations()
            .first()
            .map_or_else(|| "clean".to_owned(), |v| format!("{v:?}")),
    );
    let stats = m.stats();
    let outstanding: u64 = f.bound.iter().map(|q| q.len() as u64).sum();
    let mut completed = stats.completed;
    if opts.corrupt == Some(Corrupt::Ledger) {
        completed = completed.saturating_sub(1);
    }
    let accounted = m.pending_len() as u64 + outstanding + completed + stats.missed_reads;
    out.check(
        "pending + outstanding + completed + cancelled = admitted",
        accounted == stats.requested_blocks && stats.bound == outstanding + completed,
        format!(
            "{} + {outstanding} + {completed} + {} = {accounted} vs {} admitted; {} bound",
            m.pending_len(),
            stats.missed_reads,
            stats.requested_blocks,
            stats.bound
        ),
    );

    // --- end-to-end (untraced intervals) --------------------------------------
    let untraced: Vec<&Interval> = timed.iter().filter(|i| !i.traced).collect();
    out.e2e("setup_s", median(&setups), "s", setups.len());
    // A round is one 500 ms interval, an operation one call into the
    // master (complete, heartbeat, pull, read, admission, retarget):
    // medians over the untraced intervals, so one interval the host
    // slowed does not decide them.
    let n = untraced.len();
    let round_ms: Vec<f64> = untraced.iter().map(|i| i.cpu.as_secs_f64() * 1e3).collect();
    let op_us: Vec<f64> = untraced
        .iter()
        .map(|i| i.cpu.as_secs_f64() * 1e6 / i.ops as f64)
        .collect();
    out.e2e("round_ms", median(&round_ms), "ms", n);
    out.e2e("cpu_us_per_op", median(&op_us), "us", n);
    let cpu: f64 = untraced.iter().map(|i| i.cpu.as_secs_f64()).sum();
    let virt = n as f64 * INTERVAL_MS as f64 / 1e3;
    out.e2e("master_rt_factor", virt / cpu, "s/s", n);
    // Heartbeat + pull service time: percentiles per interval (500
    // heartbeats each), then the median over intervals, so one interval
    // hit by a host stall does not decide them. They are per-layer
    // figures without a bound: on a shared VM the latency of a ~10 us
    // operation follows the host's load: across seeds its spread reached
    // 30% (p50) and 32% (p99) of its value.
    let hb_quantile = |q: f64| -> f64 {
        let per: Vec<f64> = untraced
            .iter()
            .map(|i| quantile(&i.hb_pull_ns, q) / 1e3)
            .collect();
        median(&per)
    };
    let hb_samples = untraced.iter().map(|i| i.hb_pull_ns.len()).sum();
    out.layer("sched.hb_pull_p50_us", hb_quantile(0.5), "us", hb_samples);
    out.layer("sched.hb_pull_p99_us", hb_quantile(0.99), "us", hb_samples);

    // --- per layer (traced spans; work counts over the counted intervals) ----
    let ms = |name: &str| -> (Vec<f64>, usize) {
        let v: Vec<f64> = tr.durations(name).iter().map(|ns| ns / 1e6).collect();
        let n = v.len();
        (v, n)
    };
    let us = |name: &str| -> (f64, usize) {
        let v = tr.durations(name);
        (median(&v) / 1e3, v.len())
    };
    let (admit, k) = ms("sched.admit");
    out.layer("sched.admit_ms", median(&admit), "ms", k);
    let (first, k) = ms("sched.first_pass");
    out.layer("sched.first_pass_ms", median(&first), "ms", k);
    let (retarget, k) = ms("sched.retarget");
    out.layer("sched.retarget_p50_ms", quantile(&retarget, 0.5), "ms", k);
    out.layer("sched.retarget_p99_ms", quantile(&retarget, 0.99), "ms", k);
    let counted = &timed[..counted as usize];
    let per_pass = |f: fn(&Interval) -> u64| -> f64 {
        mean(&counted.iter().map(|i| f(i) as f64).collect::<Vec<_>>())
    };
    let c = counted.len();
    out.layer(
        "sched.rescored_per_pass",
        per_pass(|i| i.rescored),
        "count",
        c,
    );
    out.layer(
        "sched.skipped_per_pass",
        per_pass(|i| i.skipped),
        "count",
        c,
    );
    out.layer(
        "sched.ceiling_hits",
        counted.iter().map(|i| i.ceiling_hits).sum::<u64>() as f64,
        "count",
        c,
    );
    let (v, k) = us("sched.heartbeat");
    out.layer("sched.heartbeat_us", v, "us", k);
    let (v, k) = us("sched.pull");
    out.layer("sched.pull_us", v, "us", k);
    let pulls: u64 = counted.iter().map(|i| i.pulls).sum();
    let pulled: u64 = counted.iter().map(|i| i.pulled).sum();
    out.layer(
        "sched.bound_per_pull",
        pulled as f64 / pulls as f64,
        "count",
        pulls as usize,
    );
    let (v, k) = us("sched.complete");
    out.layer("sched.complete_us", v, "us", k);
    let reads = tr.durations("sched.read_cancel");
    out.layer(
        "sched.read_cancel_us",
        median(&reads) / 1e3 / READS_PER_INTERVAL as f64,
        "us",
        reads.len() * READS_PER_INTERVAL as usize,
    );
    let (admit_job, k) = ms("sched.admit_job");
    out.layer("sched.admit_job_ms", median(&admit_job), "ms", k);
    let traced: Vec<f64> = timed
        .iter()
        .filter(|i| i.traced)
        .map(|i| i.cpu.as_secs_f64())
        .collect();
    let plain: Vec<f64> = untraced.iter().map(|i| i.cpu.as_secs_f64()).collect();
    out.layer(
        "trace.overhead_pct",
        overhead_pct(&traced, &plain),
        "%",
        traced.len() + plain.len(),
    );
    out
}
