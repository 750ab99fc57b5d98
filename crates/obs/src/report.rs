//! The collected observability data for one simulation run.

use crate::span::{ProvenanceLog, SpanEvent};
use simkit::stats::{Histogram, TimeSeries};
use std::collections::BTreeMap;

/// Everything recorded during one run: lifecycle span events, the metrics
/// registry (counters / per-key gauge series / histograms), and Algorithm 1
/// decision provenance.
///
/// This is plain owned data — unlike the recording handle it is `Send`, so
/// sweep runners can move it across threads with the rest of `SimResult`.
/// All containers iterate deterministically (`Vec` in recording order,
/// `BTreeMap` in key order), which is what makes the exported trace files
/// byte-identical across same-seed runs.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Whether recording was active. `false` means the run was executed
    /// with observability off (disconnected handle or `obs` feature
    /// disabled) and every collection below is empty.
    pub enabled: bool,
    /// Lifecycle transitions in recording order (time-sorted, since the
    /// recorder is driven by the event loop).
    pub events: Vec<SpanEvent>,
    /// Monotone counters, e.g. `span.finished`.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge time series keyed by `(metric name, entity key)` — the key is
    /// a node index for `node.*` metrics and a job id for `job.*` metrics.
    pub gauges: BTreeMap<(&'static str, u64), TimeSeries>,
    /// Value distributions, e.g. `migration.duration_secs`.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Algorithm 1 scoring records, one per migration per retarget pass,
    /// stored as one columnar batch per pass.
    pub provenance: ProvenanceLog,
}

impl ObsReport {
    /// Group span events by migration id, preserving per-migration
    /// transition order.
    pub fn spans(&self) -> BTreeMap<u64, Vec<&SpanEvent>> {
        let mut out: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
        for ev in &self.events {
            out.entry(ev.migration).or_default().push(ev);
        }
        out
    }

    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| **n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Gauge series for `(name, key)`, if any samples were recorded.
    pub fn gauge(&self, name: &str, key: u64) -> Option<&TimeSeries> {
        self.gauges
            .iter()
            .find(|((n, k), _)| *n == name && *k == key)
            .map(|(_, ts)| ts)
    }

    /// Histogram by name, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| **n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{cause, SpanState};
    use simkit::SimTime;

    fn ev(mig: u64, state: SpanState) -> SpanEvent {
        SpanEvent {
            at: SimTime::from_secs(1),
            migration: mig,
            block: mig,
            bytes: 64,
            state,
            node: None,
            cause: cause::REQUESTED,
            job: None,
            tier: None,
        }
    }

    #[test]
    fn spans_group_by_migration_in_order() {
        let mut r = ObsReport::default();
        r.events.push(ev(1, SpanState::Pending));
        r.events.push(ev(2, SpanState::Pending));
        r.events.push(ev(1, SpanState::Targeted));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let one = &spans[&1];
        assert_eq!(one.len(), 2);
        assert_eq!(one[0].state, SpanState::Pending);
        assert_eq!(one[1].state, SpanState::Targeted);
    }

    #[test]
    fn lookups_on_empty_report() {
        let r = ObsReport::default();
        assert_eq!(r.counter("span.finished"), 0);
        assert!(r.gauge("node.buffer_bytes", 0).is_none());
        assert!(r.histogram("migration.duration_secs").is_none());
    }
}
