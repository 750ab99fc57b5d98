//! Scenario files, the one JSON input the reproduction reads.
//!
//! * The shipped `examples/scenarios/*.json` load into exactly the
//!   configs they were written from, and run to completion.
//! * Every enum arm a scenario can name parses from its externally
//!   tagged form (`"Unit"` or `{"Variant": payload}`).
//! * A malformed file makes the `scenario` binary exit 2 with
//!   `path:line:col: message`, naming the key path; nothing panics.

use dyrs::{MigrationOrder, MigrationPolicy, SchedEngine, TierPolicyKind};
use dyrs_cluster::{InterferencePattern, InterferenceSchedule, NodeId, NodeSpec, Toggle};
use dyrs_dfs::JobId;
use dyrs_engine::JobSpec;
use dyrs_experiments::scenarios::ScenarioFile;
use dyrs_sim::config::WireMode;
use dyrs_sim::{FailureEvent, FileSpec, GrayFault, SimConfig, Simulation};
use simkit::json::{self, FromJson, Reader, ToJson};
use simkit::{read_json_fields, SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::process::Command;

fn example_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name)
}

/// What `hetero_sort.json` was written from: a 10 GB sort under DYRS with
/// two `dd` readers on node 0.
fn hetero_sort() -> ScenarioFile {
    let mut config = SimConfig::paper_default(MigrationPolicy::Dyrs, 42);
    config.files.push(FileSpec::new("sort/input", 10 << 30));
    config
        .interference
        .push(InterferenceSchedule::persistent(NodeId(0), 2));
    let mut job = JobSpec::map_only(
        JobId(0),
        "sort-10g",
        SimTime::ZERO,
        vec!["sort/input".into()],
    );
    job.shuffle_bytes = 10 << 30;
    job.reduce_tasks = 6;
    ScenarioFile {
        config,
        jobs: vec![job],
    }
}

/// What `failures.json` was written from: two jobs through a master
/// restart and a node failure.
fn failures() -> ScenarioFile {
    let mut config = SimConfig::paper_default(MigrationPolicy::Dyrs, 7);
    config.files.push(FileSpec::new("data/a", 5 << 30));
    config.files.push(FileSpec::new("data/b", 5 << 30));
    config.failures.push(FailureEvent::MasterRestart {
        at: SimTime::from_secs(6),
    });
    config.failures.push(FailureEvent::NodeDown {
        at: SimTime::from_secs(15),
        node: NodeId(3),
    });
    let jobs = vec![
        JobSpec::map_only(JobId(0), "job-a", SimTime::ZERO, vec!["data/a".into()]),
        JobSpec::map_only(
            JobId(1),
            "job-b",
            SimTime::from_secs(4),
            vec!["data/b".into()],
        ),
    ];
    ScenarioFile { config, jobs }
}

#[test]
fn shipped_examples_load_as_built_and_run() {
    for (name, built) in [
        ("hetero_sort.json", hetero_sort()),
        ("failures.json", failures()),
    ] {
        let loaded = ScenarioFile::load(&example_path(name)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            loaded, built,
            "{name} no longer matches what it was built from"
        );
        let r = Simulation::new(loaded.config, loaded.jobs).run();
        assert_eq!(
            r.jobs.len(),
            built.jobs.len(),
            "{name}: every job completes"
        );
        assert!(r.failed_jobs.is_empty(), "{name}: no job fails");
        assert!(r.master.completed > 0, "{name}: DYRS migrates");
    }
}

/// Every enum arm a scenario can name, plus a node with an explicit tier
/// stack.
struct Arms {
    failures: Vec<FailureEvent>,
    gray_faults: Vec<GrayFault>,
    patterns: Vec<InterferencePattern>,
    policies: Vec<MigrationPolicy>,
    orders: Vec<MigrationOrder>,
    engines: Vec<SchedEngine>,
    wire: Vec<WireMode>,
    tier_policies: Vec<TierPolicyKind>,
    node: NodeSpec,
}

impl FromJson for Arms {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        Ok(read_json_fields!(
            r,
            Arms {
                failures,
                gray_faults,
                patterns,
                policies,
                orders,
                engines,
                wire,
                tier_policies,
                node,
            }
        ))
    }
}

const ARMS: &str = r#"{
  "failures": [
    {"MasterRestart": {"at": 1}},
    {"MasterServerFailure": {"at": 2, "reroute": 3}},
    {"SlaveRestart": {"at": 4, "node": 1}},
    {"KillJob": {"at": 5, "job": 2}},
    {"NodeDown": {"at": 6, "node": 3}},
    {"NodeUp": {"at": 7, "node": 3}},
    {"DrainNode": {"at": 8, "node": 4}},
    {"JoinNode": {"at": 9, "node": 4}},
    {"CheckpointRestart": {"at": 10}}
  ],
  "gray_faults": [
    {"DiskDegrade": {"at": 1, "node": 0, "factor_milli": 100}},
    {"DiskRestore": {"at": 2, "node": 0}},
    {"HeartbeatLoss": {"at": 3, "node": 1, "until": 4}},
    {"StuckStreams": {"at": 5, "node": 2, "until": 6}},
    {"Flap": {"at": 7, "node": 3, "downtime": 8, "times": 2, "period": 9}}
  ],
  "patterns": [
    "Persistent",
    {"Alternating": {"period": 20000000, "start_on": false}},
    {"Custom": [{"at": 0, "on": true}, {"at": 5, "on": false}]},
    {"TraceDriven": [[0, 0.25], [1000000, 0.5]]}
  ],
  "policies": ["Disabled", "InstantRam", "Ignem", "Naive", "Dyrs"],
  "orders": ["Fifo", "SmallestJobFirst", "EarliestDeadlineFirst"],
  "engines": ["Reference", "Sharded"],
  "wire": ["InProcess", "Loopback"],
  "tier_policies": ["Baseline", "Hotness"],
  "node": {
    "disk_bw": 1.5e8, "disk_degradation": 0.02, "mem_capacity": 1024,
    "membus_bw": 8e9, "nic_bw": 1.25e9,
    "tiers": {"tiers": [
      {"name": "mem", "capacity": 1024, "read_bw": 8e9, "write_bw": 8e9},
      {"name": "hdd", "capacity": 18446744073709551615, "read_bw": 1.5e8,
       "write_bw": 1.5e8, "degradation": 0.02}
    ]}
  }
}"#;

#[test]
fn every_enum_arm_parses() {
    let t = SimTime::from_micros;
    let d = SimDuration::from_micros;
    let arms: Arms = json::from_str(ARMS).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        arms.failures,
        [
            FailureEvent::MasterRestart { at: t(1) },
            FailureEvent::MasterServerFailure {
                at: t(2),
                reroute: d(3)
            },
            FailureEvent::SlaveRestart {
                at: t(4),
                node: NodeId(1)
            },
            FailureEvent::KillJob {
                at: t(5),
                job: JobId(2)
            },
            FailureEvent::NodeDown {
                at: t(6),
                node: NodeId(3)
            },
            FailureEvent::NodeUp {
                at: t(7),
                node: NodeId(3)
            },
            FailureEvent::DrainNode {
                at: t(8),
                node: NodeId(4)
            },
            FailureEvent::JoinNode {
                at: t(9),
                node: NodeId(4)
            },
            FailureEvent::CheckpointRestart { at: t(10) },
        ]
    );
    assert_eq!(
        arms.gray_faults,
        [
            GrayFault::DiskDegrade {
                at: t(1),
                node: NodeId(0),
                factor_milli: 100
            },
            GrayFault::DiskRestore {
                at: t(2),
                node: NodeId(0)
            },
            GrayFault::HeartbeatLoss {
                at: t(3),
                node: NodeId(1),
                until: t(4)
            },
            GrayFault::StuckStreams {
                at: t(5),
                node: NodeId(2),
                until: t(6)
            },
            GrayFault::Flap {
                at: t(7),
                node: NodeId(3),
                downtime: d(8),
                times: 2,
                period: d(9)
            },
        ]
    );
    assert_eq!(
        arms.patterns,
        [
            InterferencePattern::Persistent,
            InterferencePattern::Alternating {
                period: SimDuration::from_secs(20),
                start_on: false
            },
            InterferencePattern::Custom(vec![
                Toggle { at: t(0), on: true },
                Toggle {
                    at: t(5),
                    on: false
                },
            ]),
            InterferencePattern::TraceDriven(vec![(t(0), 0.25), (SimTime::from_secs(1), 0.5)]),
        ]
    );
    use MigrationPolicy as P;
    assert_eq!(
        arms.policies,
        [P::Disabled, P::InstantRam, P::Ignem, P::Naive, P::Dyrs]
    );
    assert_eq!(arms.orders, MigrationOrder::all());
    assert_eq!(arms.engines, [SchedEngine::Reference, SchedEngine::Sharded]);
    assert_eq!(arms.wire, [WireMode::InProcess, WireMode::Loopback]);
    assert_eq!(
        arms.tier_policies,
        [TierPolicyKind::Baseline, TierPolicyKind::Hotness]
    );
    assert_eq!(
        arms.node.rack, 0,
        "an omitted optional field takes its default"
    );
    let tiers = arms.node.tiers.expect("explicit tier stack").tiers;
    assert_eq!(tiers[0].degradation, 0.0);
    assert_eq!(tiers[1].capacity, u64::MAX);
}

/// The shipped `failures.json` with `from` replaced by `to` (which must
/// occur in it).
fn mutated(from: &str, to: &str) -> String {
    let text = std::fs::read_to_string(example_path("failures.json")).expect("read example");
    assert!(
        text.contains(from),
        "fixture anchor `{from}` not in failures.json"
    );
    text.replacen(from, to, 1)
}

#[test]
fn seed_u64_max_round_trips_exactly() {
    let text = mutated("\"seed\": 7", "\"seed\": 18446744073709551615");
    let s: ScenarioFile = json::from_str(&text).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(s.config.seed, u64::MAX);
    assert_eq!(s.config.seed.to_json().to_string(), "18446744073709551615");
}

#[test]
fn malformed_scenarios_exit_2_with_line_col_and_key_path() {
    let example = std::fs::read_to_string(example_path("failures.json")).expect("read example");
    let cases: Vec<(&str, String, &str)> = vec![
        (
            "truncated",
            example[..example.find("\"dyrs\"").expect("dyrs key")].to_owned(),
            "64:5: unexpected end of input, expected a string key at `config`",
        ),
        (
            "trailing-comma",
            mutated("\"seed\": 7\n", "\"seed\": 7,\n"),
            "121:14: trailing comma at `config`",
        ),
        (
            "duplicate-key",
            mutated("\"seed\": 7", "\"seed\": 7,\n    \"seed\": 8"),
            "122:5: duplicate key `seed` at `config`",
        ),
        (
            "unknown-key",
            mutated(
                "\"replication\": 3,",
                "\"replication\": 3,\n    \"replicas\": 3,",
            ),
            "121:5: unknown key at `config.replicas`",
        ),
        (
            "wrong-type",
            mutated("\"policy\": \"Dyrs\"", "\"policy\": 3"),
            "117:15: expected a string, found a number at `config.policy`",
        ),
        (
            "wrong-type-seed",
            mutated("\"seed\": 7", "\"seed\": \"7\""),
            "121:13: expected a number, found a string at `config.seed`",
        ),
        (
            "seed-above-u64",
            mutated("\"seed\": 7", "\"seed\": 18446744073709551616"),
            "121:13: expected an unsigned 64-bit integer, found `18446744073709551616` \
             at `config.seed`",
        ),
        (
            "non-finite",
            mutated("\"ewma_alpha\": 0.5", "\"ewma_alpha\": 1e400"),
            "65:21: number `1e400` is out of range at `config.dyrs.ewma_alpha`",
        ),
        (
            "nan",
            mutated("\"ewma_alpha\": 0.5", "\"ewma_alpha\": NaN"),
            "65:21: unexpected `N`, expected a number at `config.dyrs.ewma_alpha`",
        ),
        (
            "missing-field",
            mutated("    \"horizon\": 86400000000,\n", ""),
            "2:13: missing field `horizon` at `config`",
        ),
        (
            "missing-nested-field",
            mutated("\"disk_bw\": 146800640.0,", ""),
            "6:9: missing field `disk_bw` at `config.cluster.nodes[0]`",
        ),
        (
            "unknown-variant",
            mutated("\"MasterRestart\"", "\"MasterReboot\""),
            "92:7: unknown variant `MasterReboot` at `config.failures[0].MasterReboot`",
        ),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario-fixtures");
    std::fs::create_dir_all(&dir).expect("fixture dir");
    for (name, text, want) in cases {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("write fixture");
        let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
            .arg(&path)
            .output()
            .expect("run scenario");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: exit code; stderr: {stderr}"
        );
        assert_eq!(
            stderr.trim_end(),
            format!("{}:{want}", path.display()),
            "{name}"
        );
    }
    let missing = dir.join("does-not-exist.json");
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg(&missing)
        .output()
        .expect("run scenario");
    assert_eq!(out.status.code(), Some(2), "a missing file exits 2");
}
