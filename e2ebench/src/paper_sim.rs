//! `paper_sim`: the paper's evaluation simulations, one after another on
//! one thread, through `Simulation::new(..).run()`, on the 7-node
//! heterogeneous cluster.
//!
//! One pass is SWIM (200 jobs, 170 GB) under HDFS, Ignem and DYRS plus a
//! DYRS run whose migration buffer is capped far below each node's share
//! of the input, over [`SWIM_TRACES`] traces drawn from the seed; then the
//! Hive queries and Sort (28 GB) under HDFS, Ignem and DYRS. Passes
//! repeat until the time is up. Pass 0 is the cold pass: it yields the
//! speedups and the reference digests, and is left out of the timings;
//! every later pass must reproduce its trace digests exactly.

use crate::env::thread_cpu_ns;
use crate::report::{mean, median, overhead_pct, Outcome};
use crate::trace::Tracer;
use crate::{Corrupt, Opts};
use dyrs::MigrationPolicy;
use dyrs_experiments::scenarios::{hetero_config, swim_params, with_workload};
use dyrs_sim::{SimConfig, Simulation};
use dyrs_workloads::{hive, sort, swim};
use simkit::{Rng, SimDuration};
use std::time::{Duration, Instant};

/// SWIM traces per pass. The reported speedups average the traces'
/// Table I speedups, so one trace's luck does not decide them: across
/// seeds the average spreads by ~6% of its value at 24 traces, and the
/// pass's work (`sim.events`) by ~1%.
const SWIM_TRACES: u64 = 24;

/// Per-node migration-buffer cap of the capped run: 4 blocks, below the
/// 2–5 GB a node buffers at peak under SWIM.
const CAP_BYTES: u64 = 1 << 30;

/// Sort input (the paper's Fig. 8 size).
const SORT_BYTES: u64 = 28 << 30;

/// Passes always run, whatever the time budget: the cold pass and three
/// timed ones; in the traced run the cold pass, then traced and untraced
/// passes alternate, two of each.
const MIN_PASSES: usize = 4;
const MIN_TRACED_PASSES: usize = 5;

const POLICIES: [MigrationPolicy; 3] = [
    MigrationPolicy::Disabled,
    MigrationPolicy::Ignem,
    MigrationPolicy::Dyrs,
];

/// A trace's runs in pass order: HDFS, Ignem, DYRS, then DYRS capped.
const PER_TRACE: usize = 4;
const HDFS: usize = 0;
const DYRS: usize = 2;
const CAPPED: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Input {
    /// A SWIM trace, buffer capped or not.
    Swim {
        capped: bool,
    },
    /// Hive query by index into [`hive::queries`].
    Hive(usize),
    Sort,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    input: Input,
    policy: MigrationPolicy,
    seed: u64,
}

fn cases(seed: u64) -> Vec<Case> {
    let root = Rng::new(seed);
    let mut out = Vec::new();
    for k in 0..SWIM_TRACES {
        let seed = root.derive(k).next_u64();
        let runs = POLICIES
            .iter()
            .map(|&policy| (policy, false))
            .chain([(MigrationPolicy::Dyrs, true)]);
        for (policy, capped) in runs {
            out.push(Case {
                input: Input::Swim { capped },
                policy,
                seed,
            });
        }
    }
    let seed = root.derive(SWIM_TRACES).next_u64();
    for policy in POLICIES {
        for qi in 0..hive::queries().len() {
            out.push(Case {
                input: Input::Hive(qi),
                policy,
                seed,
            });
        }
        out.push(Case {
            input: Input::Sort,
            policy,
            seed,
        });
    }
    out
}

/// Workload generation: the inputs the simulator receives.
fn generate(case: &Case) -> (SimConfig, Vec<dyrs_engine::JobSpec>) {
    let cfg = hetero_config(case.policy, case.seed);
    match case.input {
        Input::Swim { capped } => {
            let w = swim::generate(&swim_params(1.0), case.seed);
            let (mut cfg, jobs) = with_workload(cfg, w);
            if capped {
                cfg.mem_limit = Some(CAP_BYTES);
            }
            (cfg, jobs)
        }
        Input::Hive(qi) => {
            let q = &hive::queries()[qi];
            with_workload(cfg, hive::query_workload(q, 1.0, (qi * 10) as u64))
        }
        Input::Sort => with_workload(cfg, sort::sort_workload(SORT_BYTES, SimDuration::ZERO, 0)),
    }
}

/// What one simulation observed.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    digest: u64,
    events: u64,
    retarget_passes: u64,
    bound: u64,
    missed_reads: u64,
    /// Every submitted job finished.
    finished: bool,
    mean_job_s: f64,
}

/// Generate, build and run one case; returns what it observed and its
/// set-up time (generation plus `Simulation::new`).
fn run_case(case: &Case, tr: &mut Tracer, group: u64) -> (Run, Duration) {
    let t = thread_cpu_ns();
    let (cfg, jobs) = tr.span("workloads.gen", group, || generate(case));
    let submitted = jobs.len();
    let sim = tr.span("sim.new", group, || Simulation::new(cfg, jobs));
    let setup = Duration::from_nanos(thread_cpu_ns() - t);
    let r = tr.span("sim.run", group, || sim.run());
    let run = Run {
        digest: r.trace_digest,
        events: r.events_processed,
        retarget_passes: r.master.retarget_passes,
        bound: r.master.bound,
        missed_reads: r.master.missed_reads,
        finished: r.failed_jobs.is_empty() && r.jobs.len() == submitted,
        mean_job_s: r.mean_job_duration_secs(),
    };
    (run, setup)
}

/// What one pass observed.
struct Pass {
    runs: Vec<Run>,
    /// Per case: set-up time, and set-up plus run time.
    setup: Vec<Duration>,
    total: Vec<Duration>,
    traced: bool,
}

fn run_pass(cases: &[Case], tr: &mut Tracer, pass: u64) -> Pass {
    let mut p = Pass {
        runs: Vec::with_capacity(cases.len()),
        setup: Vec::with_capacity(cases.len()),
        total: Vec::with_capacity(cases.len()),
        traced: tr.is_on(),
    };
    let span = tr.begin("bench.pass", pass);
    for case in cases {
        let start = thread_cpu_ns();
        let (run, setup) = run_case(case, tr, pass);
        p.total.push(Duration::from_nanos(thread_cpu_ns() - start));
        p.setup.push(setup);
        p.runs.push(run);
    }
    tr.end(span);
    p
}

/// Mean over the pass's SWIM traces of the Table I speedup `1 − d/d_hdfs`
/// of run `col` of each trace (`DYRS` or `CAPPED`), in percent.
fn speedup_pct(runs: &[Run], col: usize) -> f64 {
    let per_trace: Vec<f64> = runs
        .chunks(PER_TRACE)
        .take(SWIM_TRACES as usize)
        .map(|t| 100.0 * (1.0 - t[col].mean_job_s / t[HDFS].mean_job_s))
        .collect();
    mean(&per_trace)
}

/// Host seconds of the whole set: per case the median over `passes`,
/// summed over the cases.
fn set_secs(passes: &[&Pass], f: fn(&Pass) -> &[Duration]) -> f64 {
    let cases = passes.first().map_or(0, |p| f(p).len());
    (0..cases)
        .map(|c| {
            let per_pass: Vec<f64> = passes.iter().map(|p| f(p)[c].as_secs_f64()).collect();
            median(&per_pass)
        })
        .sum()
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let cases = cases(opts.seed);
    let budget = Duration::from_secs(opts.seconds);
    let min_passes = if opts.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || started.elapsed() < budget {
        // Traced run: the cold pass is untraced, then odd passes are
        // traced and even ones are not.
        tr.set_on(opts.trace && passes.len() % 2 == 1);
        passes.push(run_pass(&cases, tr, passes.len() as u64));
    }
    tr.set_on(false);

    for (i, p) in passes.iter().enumerate() {
        println!(
            "# pass {i}{} cpu_ms {:.1}",
            if i == 0 {
                " (cold)"
            } else if p.traced {
                " (traced)"
            } else {
                ""
            },
            p.total.iter().sum::<Duration>().as_secs_f64() * 1e3
        );
    }
    let mut out = Outcome::default();
    let runs = || passes.iter().flat_map(|p| &p.runs);
    let unfinished = runs().filter(|r| !r.finished).count() as u64;
    out.attempted += runs().count() as u64;
    out.failed += unfinished;

    // --- correctness ------------------------------------------------------
    out.check(
        "every job of every run finishes",
        unfinished == 0,
        format!("{unfinished} runs with unfinished jobs"),
    );
    let first = &passes[0].runs;
    let mut mismatched = 0u64;
    for (i, p) in passes.iter().enumerate().skip(1) {
        for (j, (run, want)) in p.runs.iter().zip(first).enumerate() {
            let mut digest = run.digest;
            if (i, j) == (1, 0) && opts.corrupt == Some(Corrupt::Digest) {
                digest ^= 1;
            }
            mismatched += u64::from(digest != want.digest);
        }
    }
    out.failed += mismatched;
    out.check(
        "trace digests repeat on every pass",
        mismatched == 0,
        format!(
            "{mismatched} of {} runs differ from pass 0",
            (passes.len() - 1) * cases.len()
        ),
    );
    let repeatable = passes.iter().all(|p| &p.runs == first);
    out.check(
        "simulated outcomes repeat on every pass",
        repeatable,
        format!("{} passes", passes.len()),
    );

    // --- end-to-end (untraced passes after the cold one) ------------------
    let timed: Vec<&Pass> = passes.iter().skip(1).filter(|p| !p.traced).collect();
    let n = timed.len();
    out.e2e("setup_s", set_secs(&timed, |p| &p.setup), "s", n);
    // A round is one pass over the set; an operation one simulated event.
    let round_s = set_secs(&timed, |p| &p.total);
    let events: u64 = first.iter().map(|r| r.events).sum();
    out.e2e("round_ms", round_s * 1e3, "ms", n);
    out.e2e("cpu_us_per_op", round_s * 1e6 / events as f64, "us", n);
    let traces = SWIM_TRACES as usize;
    out.e2e("dyrs_speedup_pct", speedup_pct(first, DYRS), "%", traces);
    out.e2e(
        "capped_speedup_pct",
        speedup_pct(first, CAPPED),
        "%",
        traces,
    );

    // --- per layer (traced passes; counts of pass 0) -----------------------
    let ms = |ns: Vec<f64>| -> (f64, usize) { (median(&ns) / 1e6, ns.len()) };
    let (gen, k) = ms(tr.totals_by_group("workloads.gen"));
    out.layer("workloads.gen_ms", gen, "ms", k);
    let (new, k) = ms(tr.totals_by_group("sim.new"));
    out.layer("sim.new_ms", new, "ms", k);
    let run_ns = tr.totals_by_group("sim.run");
    let (run, k) = ms(run_ns.clone());
    out.layer("sim.run_ms", run, "ms", k);
    let sum = |f: fn(&Run) -> u64| first.iter().map(f).sum::<u64>();
    out.layer("sim.events", events as f64, "count", 1);
    let per_event: Vec<f64> = run_ns.iter().map(|ns| ns / events as f64).collect();
    out.layer(
        "sim.ns_per_event",
        median(&per_event),
        "ns",
        per_event.len(),
    );
    let retargets = sum(|r| r.retarget_passes);
    out.layer("sim.retarget_passes", retargets as f64, "count", 1);
    out.layer("sim.bound", sum(|r| r.bound) as f64, "count", 1);
    out.layer(
        "sim.missed_reads",
        sum(|r| r.missed_reads) as f64,
        "count",
        1,
    );
    let pass_secs = |p: &&Pass| p.total.iter().sum::<Duration>().as_secs_f64();
    let traced: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| pass_secs(&p))
        .collect();
    let plain: Vec<f64> = timed.iter().map(pass_secs).collect();
    out.layer(
        "trace.overhead_pct",
        overhead_pct(&traced, &plain),
        "%",
        traced.len() + plain.len(),
    );
    out
}
