//! `scenario` — run a user-authored simulation scenario from a JSON file.
//!
//! ```text
//! scenario path/to/scenario.json [--summary|--jobs|--nodes|--json]
//!          [--trace-out <dir>]
//! ```
//!
//! `--json` prints what `--summary`, `--jobs` and `--nodes` print, as one
//! object with those three keys. `--trace-out <dir>` additionally exports
//! the run's observability data (spans.jsonl, metrics.jsonl,
//! provenance.jsonl, and a Perfetto-loadable trace.json); see
//! `docs/OBSERVABILITY.md`.
//!
//! A scenario file contains a full `SimConfig` plus the workload:
//!
//! ```json
//! {
//!   "config": { ... dyrs_sim::SimConfig ... },
//!   "jobs":   [ ... dyrs_engine::JobSpec ... ]
//! }
//! ```
//!
//! Every knob in the reproduction is reachable this way — policies,
//! interference schedules, failure injections, hardware specs — without
//! writing Rust. See `examples/scenarios/` for ready-made files. A file
//! that cannot be read or parsed exits 2 with `path:line:col: message`.

use dyrs_experiments::scenarios::ScenarioFile;
use dyrs_sim::{SimResult, Simulation};
use simkit::SimTime;

/// The `--summary` figures.
struct Summary {
    jobs_completed: usize,
    jobs_failed: usize,
    end_secs: f64,
    mean_job_secs: f64,
    mean_map_task_secs: f64,
    memory_read_fraction: f64,
    migrations_completed: u64,
    migrations_bound: u64,
    missed_reads: u64,
    speculations: u64,
}

/// One `--jobs` row.
struct JobRow {
    name: String,
    input_bytes: u64,
    lead_secs: f64,
    map_secs: f64,
    total_secs: f64,
    memory_read_fraction: f64,
}

/// One `--nodes` row.
struct NodeRow {
    node: u32,
    disk_reads: u64,
    memory_reads: u64,
    migrations: u64,
    peak_buffer_bytes: u64,
    disk_busy_secs: f64,
    utilization: f64,
}

simkit::impl_to_json!(
    Summary {
        jobs_completed,
        jobs_failed,
        end_secs,
        mean_job_secs,
        mean_map_task_secs,
        memory_read_fraction,
        migrations_completed,
        migrations_bound,
        missed_reads,
        speculations,
    };
    JobRow { name, input_bytes, lead_secs, map_secs, total_secs, memory_read_fraction };
    NodeRow {
        node,
        disk_reads,
        memory_reads,
        migrations,
        peak_buffer_bytes,
        disk_busy_secs,
        utilization,
    };
);

fn summary(r: &SimResult) -> Summary {
    Summary {
        jobs_completed: r.jobs.len(),
        jobs_failed: r.failed_jobs.len(),
        end_secs: r.end_time.as_secs_f64(),
        mean_job_secs: r.mean_job_duration_secs(),
        mean_map_task_secs: r.mean_map_task_secs(),
        memory_read_fraction: r.memory_read_fraction(),
        migrations_completed: r.master.completed,
        migrations_bound: r.master.bound,
        missed_reads: r.master.missed_reads,
        speculations: r.speculations,
    }
}

fn job_rows(r: &SimResult) -> Vec<JobRow> {
    r.jobs
        .iter()
        .map(|j| JobRow {
            name: j.name.clone(),
            input_bytes: j.input_bytes,
            lead_secs: j.lead_time.as_secs_f64(),
            map_secs: j.map_phase.as_secs_f64(),
            total_secs: j.duration.as_secs_f64(),
            memory_read_fraction: j.memory_read_fraction,
        })
        .collect()
}

fn node_rows(r: &SimResult) -> Vec<NodeRow> {
    r.nodes
        .iter()
        .map(|n| NodeRow {
            node: n.node.0,
            disk_reads: n.disk_reads,
            memory_reads: n.memory_reads,
            migrations: n.slave.completed,
            peak_buffer_bytes: n.peak_buffer_bytes,
            disk_busy_secs: n.disk_busy.as_secs_f64(),
            utilization: n
                .utilization_series
                .time_weighted_mean(SimTime::ZERO, r.end_time, 0.0),
        })
        .collect()
}

fn print_summary(s: &Summary) {
    println!("jobs completed : {}", s.jobs_completed);
    println!("jobs failed    : {}", s.jobs_failed);
    println!("sim end        : {:.1}s", s.end_secs);
    println!("mean job       : {:.1}s", s.mean_job_secs);
    println!("mean map task  : {:.2}s", s.mean_map_task_secs);
    println!("memory reads   : {:.0}%", s.memory_read_fraction * 100.0);
    println!(
        "migrations     : {} completed, {} bound, {} missed reads",
        s.migrations_completed, s.migrations_bound, s.missed_reads
    );
    println!("speculations   : {}", s.speculations);
}

fn print_jobs(rows: &[JobRow]) {
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>5}",
        "job", "input", "lead(s)", "map(s)", "total(s)", "mem%"
    );
    for j in rows {
        println!(
            "{:<20} {:>7}MB {:>9.1} {:>9.1} {:>9.1} {:>4.0}%",
            j.name,
            j.input_bytes >> 20,
            j.lead_secs,
            j.map_secs,
            j.total_secs,
            j.memory_read_fraction * 100.0
        );
    }
}

fn print_nodes(rows: &[NodeRow]) {
    println!(
        "{:<7} {:>7} {:>7} {:>11} {:>11} {:>10} {:>9}",
        "node", "dreads", "mreads", "migrations", "peak-buf", "disk-busy", "util"
    );
    for n in rows {
        println!(
            "{:<7} {:>7} {:>7} {:>11} {:>9}MB {:>9.1}s {:>8.0}%",
            format!("node{}", n.node),
            n.disk_reads,
            n.memory_reads,
            n.migrations,
            n.peak_buffer_bytes >> 20,
            n.disk_busy_secs,
            n.utilization * 100.0
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract `--trace-out <dir>` before mode detection (it takes a value).
    let trace_out: Option<std::path::PathBuf> =
        args.iter().position(|a| a == "--trace-out").map(|i| {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--trace-out needs a directory");
                std::process::exit(2);
            }
            args.remove(i).into()
        });
    let mode = args
        .iter()
        .position(|a| a.starts_with("--"))
        .map(|i| args.remove(i));
    if !matches!(
        mode.as_deref(),
        None | Some("--summary" | "--jobs" | "--nodes" | "--json")
    ) {
        eprintln!("unknown mode {}", mode.unwrap_or_default());
        std::process::exit(2);
    }
    let Some(path) = args.first() else {
        eprintln!(
            "usage: scenario <file.json> [--summary|--jobs|--nodes|--json] [--trace-out <dir>]"
        );
        std::process::exit(2);
    };
    let scenario = ScenarioFile::load(path.as_ref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let result = Simulation::new(scenario.config, scenario.jobs).run();
    if let Some(dir) = &trace_out {
        result
            .obs
            .write_to_dir(dir)
            .unwrap_or_else(|e| panic!("cannot write trace to {}: {e}", dir.display()));
        eprintln!("trace written to {}", dir.display());
    }
    match mode.as_deref() {
        Some("--jobs") => print_jobs(&job_rows(&result)),
        Some("--nodes") => print_nodes(&node_rows(&result)),
        Some("--json") => {
            let doc = simkit::json_object! {
                "summary": summary(&result),
                "jobs": job_rows(&result),
                "nodes": node_rows(&result),
            };
            println!("{}", doc.to_pretty());
        }
        _ => print_summary(&summary(&result)),
    }
}
