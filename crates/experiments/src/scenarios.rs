//! Shared experiment scenarios: the evaluation cluster and the standard
//! policy sweeps, so every figure/table module builds on identical setups.

use crate::runner::{run_all, SimTask};
use dyrs::MigrationPolicy;
use dyrs_cluster::{InterferenceSchedule, NodeId};
use dyrs_engine::JobSpec;
use dyrs_sim::{SimConfig, SimResult};
use dyrs_workloads::{swim, Workload};
use simkit::json::{self, FromJson, Reader};
use simkit::read_json_fields;
use std::path::Path;

/// The handicapped node used throughout the evaluation (§V-C): the paper
/// creates fixed heterogeneity by running `dd` readers against one node.
pub const SLOW_NODE: NodeId = NodeId(0);

/// Number of `dd`-style readers on the slow node (the paper runs "two
/// Linux dd jobs"; each is modeled as one saturating disk stream).
pub const DD_STREAMS: u32 = 2;

/// A scenario file (the `scenario` binary's input, see
/// `examples/scenarios/`): a full [`SimConfig`] plus the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Everything the simulation is built from.
    pub config: SimConfig,
    /// The jobs it runs.
    pub jobs: Vec<JobSpec>,
}

impl FromJson for ScenarioFile {
    fn read(r: &mut Reader<'_>) -> Result<Self, json::Error> {
        Ok(read_json_fields!(r, ScenarioFile { config, jobs }))
    }
}

impl ScenarioFile {
    /// Read and parse the file at `path`. An unreadable file reports
    /// `path: reason`; bad contents report `path:line:col: message`, with
    /// the key path of the offending value in the message.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::from_str(&text).map_err(|e| format!("{}:{e}", path.display()))
    }
}

/// The paper's heterogeneous evaluation cluster: 7 workers with
/// persistent interference on [`SLOW_NODE`].
pub fn hetero_config(policy: MigrationPolicy, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(policy, seed);
    cfg.interference
        .push(InterferenceSchedule::persistent(SLOW_NODE, DD_STREAMS));
    cfg
}

/// A quiet homogeneous cluster (Fig. 8a).
pub fn homogeneous_config(policy: MigrationPolicy, seed: u64) -> SimConfig {
    SimConfig::paper_default(policy, seed)
}

/// Run the SWIM workload under the four paper configurations on the
/// heterogeneous cluster. Returns results keyed by policy, in
/// [`MigrationPolicy::paper_configs`] order. `scale` shrinks the workload
/// (1.0 = the paper's 200-job / 170 GB setup) for quick runs and benches.
pub fn swim_runs(seed: u64, scale: f64) -> Vec<(MigrationPolicy, SimResult)> {
    let params = swim_params(scale);
    let tasks: Vec<SimTask> = MigrationPolicy::paper_configs()
        .into_iter()
        .map(|policy| {
            let mut cfg = hetero_config(policy, seed);
            let w = swim::generate(&params, seed);
            cfg.files = w.files;
            SimTask::new(policy.name(), cfg, w.jobs)
        })
        .collect();
    run_all(tasks, 0)
        .into_iter()
        .zip(MigrationPolicy::paper_configs())
        .map(|((_, r), p)| (p, r))
        .collect()
}

/// SWIM generator parameters at a given scale.
pub fn swim_params(scale: f64) -> swim::SwimParams {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let base = swim::SwimParams::default();
    swim::SwimParams {
        jobs: ((base.jobs as f64 * scale) as usize).max(10),
        total_input_bytes: ((base.total_input_bytes as f64 * scale) as u64).max(1 << 30),
        max_input: ((base.max_input as f64 * scale) as u64).max(1 << 30),
        ..base
    }
}

/// Attach a workload to a config (files move into the config; jobs are
/// returned for the runner).
pub fn with_workload(mut cfg: SimConfig, w: Workload) -> (SimConfig, Vec<dyrs_engine::JobSpec>) {
    cfg.files = w.files;
    (cfg, w.jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_has_interference_on_slow_node() {
        let cfg = hetero_config(MigrationPolicy::Dyrs, 1);
        assert_eq!(cfg.interference.len(), 1);
        assert_eq!(cfg.interference[0].node, SLOW_NODE);
        assert!(homogeneous_config(MigrationPolicy::Dyrs, 1)
            .interference
            .is_empty());
    }

    #[test]
    fn scaled_swim_params_shrink() {
        let p = swim_params(0.1);
        assert_eq!(p.jobs, 20);
        assert!(p.total_input_bytes < 20 * (1 << 30));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_rejected() {
        swim_params(0.0);
    }
}
