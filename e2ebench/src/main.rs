//! `dyrs-e2ebench` — the end-to-end DYRS benchmark.
//!
//! ```text
//! dyrs-e2ebench --workload <paper_sim|master_1m|tcp_cluster> --seed <n>
//!               --seconds <s> --trace <0|1> [--corrupt <digest|ledger|frames>]
//!               [--out <dir>]
//! ```
//!
//! Prints every metric by name, unit and sample count, the correctness
//! checks, and as its last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: with `--trace 0` the metrics of
//! [`END_TO_END`], with `--trace 1` those of [`PER_LAYER`], the same
//! names for every workload (the lists of `BENCHMARK.json`). The full
//! result, with the machine fingerprint and (traced) every span, is
//! written to `<out>/<workload>-seed<n>-trace<t>.json`. See README.md.

mod env;
mod master_1m;
mod paper_sim;
mod report;
mod tcp_cluster;
mod trace;

use report::{json_num, json_str, Kind, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;

/// A deliberate corruption of one observed output, to show the checks
/// catch it (see README.md, "Self-check").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// `paper_sim`: flip a bit of one repeated trace digest.
    Digest,
    /// `master_1m`: drop one completion from the conservation ledger.
    Ledger,
    /// `tcp_cluster`: drop one frame from the master's receive ledger.
    Frames,
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub corrupt: Option<Corrupt>,
    pub out: String,
}

const WORKLOADS: [&str; 3] = ["paper_sim", "master_1m", "tcp_cluster"];

/// The result line's metrics with `--trace 0`, by name and unit: every
/// workload measures each of them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("round_ms", "ms"),
    ("cpu_us_per_op", "us"),
];

/// Layers the benchmark times from outside, by span-name prefix.
const LAYERS: [&str; 5] = ["bench", "workloads", "sim", "sched", "net"];

/// The result line's metrics with `--trace 1`, by name and unit. A
/// workload that does not reach a layer from outside reports that
/// layer's shares and counts as 0.
pub const PER_LAYER: [(&str, &str); 16] = [
    ("bench.self_pct", "%"),
    ("workloads.self_pct", "%"),
    ("sim.self_pct", "%"),
    ("sched.self_pct", "%"),
    ("net.self_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("sim.events", "count"),
    ("sim.retarget_passes", "count"),
    ("sim.bound", "count"),
    ("sim.missed_reads", "count"),
    ("sched.rescored_per_pass", "count"),
    ("sched.skipped_per_pass", "count"),
    ("sched.ceiling_hits", "count"),
    ("sched.bound_per_pull", "count"),
    ("net.frames_per_migration", "count"),
    ("net.heartbeats_per_migration", "count"),
];

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        corrupt: None,
        out: "e2ebench/out".to_owned(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--corrupt" => {
                opts.corrupt = Some(match value()?.as_str() {
                    "digest" => Corrupt::Digest,
                    "ledger" => Corrupt::Ledger,
                    "frames" => Corrupt::Frames,
                    other => return Err(format!("unknown --corrupt kind {other}")),
                })
            }
            "--out" => opts.out = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            opts.workload
        ));
    }
    Ok(opts)
}

/// Per-layer self time as a share of the traced wall time; 0 for a
/// layer the workload never calls.
fn add_self_times(out: &mut Outcome, tr: &Tracer) {
    let root = tr.root_ns() as f64;
    let by_layer = tr.self_ns_by_layer();
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0) as f64;
        out.layer(
            &format!("{layer}.self_pct"),
            if root > 0.0 { 100.0 * ns / root } else { 0.0 },
            "%",
            tr.spans().iter().filter(|s| s.layer() == layer).count(),
        );
    }
}

/// The full result file: fingerprint, every metric with its sample
/// count, the checks and (traced) the spans.
fn result_json(opts: &Opts, env: &env::Env, out: &Outcome, tr: &Tracer) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "\"workload\": {},", json_str(&opts.workload));
    let _ = writeln!(s, "\"seed\": {},", opts.seed);
    let _ = writeln!(s, "\"seconds\": {},", opts.seconds);
    let _ = writeln!(s, "\"trace\": {},", opts.trace);
    let _ = writeln!(s, "\"features\": {},", json_str(env.features));
    let _ = writeln!(s, "\"nproc\": {},", env.nproc);
    let _ = writeln!(s, "\"cpu\": {},", json_str(&env.cpu));
    let _ = writeln!(s, "\"correct\": {},", out.correct());
    let _ = writeln!(s, "\"attempted\": {},", out.attempted);
    let _ = writeln!(s, "\"failed\": {},", out.failed);
    s.push_str("\"metrics\": [");
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}}}",
            if i > 0 { "," } else { "" },
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            m.samples
        );
    }
    s.push_str("\n],\n\"checks\": [");
    for (i, c) in out.checks.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
            if i > 0 { "," } else { "" },
            json_str(c.name),
            c.ok,
            json_str(&c.detail)
        );
    }
    let _ = write!(s, "\n],\n\"spans\": {}\n}}\n", tr.to_json());
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dyrs-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env::Env::probe();
    println!(
        "# workload={} seed={} seconds={} trace={} features={} nproc={} cpu={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env.features,
        env.nproc,
        json_str(&env.cpu)
    );
    let mut tr = Tracer::new(false);
    let mut out = match opts.workload.as_str() {
        "paper_sim" => paper_sim::run(&opts, &mut tr),
        "master_1m" => master_1m::run(&opts, &mut tr),
        _ => tcp_cluster::run(&opts, &mut tr),
    };
    let (kind, listed) = if opts.trace {
        add_self_times(&mut out, &tr);
        out.zero_unmeasured(&PER_LAYER);
        (Kind::Layer, &PER_LAYER[..])
    } else {
        (Kind::EndToEnd, &END_TO_END[..])
    };
    // The untraced run reports end-to-end metrics, the traced run the
    // per-layer ones.
    out.metrics.retain(|m| m.kind == kind);

    for m in &out.metrics {
        println!(
            "{:<32} {:>20} {:<5} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    for c in &out.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!(
        "failed_frac {} ({} of {} attempted)",
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
        out.failed,
        out.attempted
    );
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        opts.out,
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    match std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(&path, result_json(&opts, &env, &out, &tr)))
    {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("dyrs-e2ebench: cannot write {path}: {e}"),
    }
    match out.result_line(listed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dyrs-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one list of `BENCHMARK.json`.
    fn manifest_list(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\": [")).expect("list present");
        let body = &json[start..start + json[start..].find(']').expect("list closed")];
        let field = |entry: &str, name: &str| -> String {
            let at = entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closed")].to_owned()
        };
        body.split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let json = include_str!("../../BENCHMARK.json");
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(manifest_list(json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(manifest_list(json, "per_layer"), owned(&PER_LAYER));
    }
}
