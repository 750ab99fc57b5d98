//! Trace-file export: JSONL tables plus a Chrome `trace_event` file.
//!
//! Every record is built as a [`simkit::json::Value`] and written compact,
//! so strings are escaped and a non-finite `f64` renders as `null`. Output
//! ordering follows the deterministic container ordering of
//! [`ObsReport`], so same-seed runs export byte-identical files
//! (`tests/determinism.rs` pins their bytes).

use crate::report::ObsReport;
use crate::span::SpanEvent;
use simkit::json::Value;
use simkit::json_object;
use std::path::Path;

/// Append `v` and a newline: one JSONL record.
fn push_line(out: &mut String, v: Value) {
    v.write(out);
    out.push('\n');
}

fn span_json(ev: &SpanEvent) -> Value {
    json_object! {
        "at_us": ev.at,
        "migration": ev.migration,
        "block": ev.block,
        "bytes": ev.bytes,
        "state": ev.state.name(),
        "node": ev.node,
        "cause": ev.cause,
        "job": ev.job,
    }
}

impl ObsReport {
    /// Span events as JSONL: one lifecycle transition per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            push_line(&mut out, span_json(ev));
        }
        out
    }

    /// The metrics registry as JSONL: one counter, gauge series, or
    /// histogram per line, discriminated by a `"kind"` field.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            push_line(
                &mut out,
                json_object! { "kind": "counter", "name": name, "value": v },
            );
        }
        for ((name, key), ts) in &self.gauges {
            push_line(
                &mut out,
                json_object! { "kind": "gauge", "name": name, "key": key, "points": ts.points() },
            );
        }
        for (name, h) in &self.histograms {
            let counts: Vec<u64> = (0..h.num_bins()).map(|i| h.bin_count(i)).collect();
            push_line(
                &mut out,
                json_object! {
                    "kind": "histogram",
                    "name": name,
                    "edges": h.edges(),
                    "underflow": h.underflow(),
                    "counts": counts,
                    "overflow": h.overflow(),
                    "total": h.total(),
                },
            );
        }
        out
    }

    /// Algorithm 1 provenance as JSONL: one migration scoring per line.
    pub fn provenance_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.provenance.iter() {
            let candidates: Vec<Value> = rec
                .candidates
                .iter()
                .map(|c| {
                    json_object! {
                        "node": c.node,
                        "rank": c.rank,
                        "est_finish_secs": c.est_finish_secs,
                    }
                })
                .collect();
            push_line(
                &mut out,
                json_object! {
                    "at_us": rec.at,
                    "pass": rec.pass,
                    "migration": rec.migration,
                    "block": rec.block,
                    "bytes": rec.bytes,
                    "candidates": candidates,
                    "winner": rec.winner,
                    "rescored": rec.rescored,
                    "skipped": rec.skipped,
                },
            );
        }
        out
    }

    /// A Chrome `trace_event` JSON document (the `{"traceEvents":[...]}`
    /// object form), loadable in `chrome://tracing` or Perfetto.
    ///
    /// Each migration becomes an async span (`ph:"b"`/`"e"`, grouped by
    /// id); intermediate transitions are async instants (`ph:"n"`); gauges
    /// become counter tracks (`ph:"C"`). Timestamps are already in
    /// microseconds, the unit `trace_event` expects.
    pub fn chrome_trace_json(&self) -> String {
        // Written event by event rather than as one `Value`, so a long
        // trace never holds a second copy of itself as a tree.
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, v: Value| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            v.write(out);
        };

        let mut seen = std::collections::BTreeSet::new();
        for ev in &self.events {
            let opened = !seen.insert(ev.migration);
            let phases: &[&str] = match (opened, ev.state.is_terminal()) {
                (false, false) => &["b"],
                (false, true) => &["b", "e"], // degenerate single-event span
                (true, false) => &["n"],
                (true, true) => &["e"],
            };
            for ph in phases {
                push(
                    &mut out,
                    json_object! {
                        "ph": ph,
                        "cat": "migration",
                        "name": format!("mig_{}", ev.migration),
                        "id": ev.migration,
                        "pid": 0u32,
                        "tid": ev.node.unwrap_or(0),
                        "ts": ev.at,
                        "args": json_object! {
                            "state": ev.state.name(),
                            "cause": ev.cause,
                            "block": ev.block,
                            "bytes": ev.bytes,
                        },
                    },
                );
            }
        }
        for ((name, key), ts) in &self.gauges {
            for &(t, v) in ts.points() {
                push(
                    &mut out,
                    json_object! {
                        "ph": "C",
                        "name": format!("{name}[{key}]"),
                        "pid": 0u32,
                        "tid": key,
                        "ts": t,
                        "args": json_object! { "value": v },
                    },
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Write all four export files into `dir` (created if missing):
    /// `spans.jsonl`, `metrics.jsonl`, `provenance.jsonl`, `trace.json`.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("spans.jsonl"), self.spans_jsonl())?;
        std::fs::write(dir.join("metrics.jsonl"), self.metrics_jsonl())?;
        std::fs::write(dir.join("provenance.jsonl"), self.provenance_jsonl())?;
        std::fs::write(dir.join("trace.json"), self.chrome_trace_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{cause, CandidateScore, ProvenanceBatch, SpanEvent, SpanState};
    use simkit::SimTime;

    fn sample_report() -> ObsReport {
        let mut r = ObsReport {
            enabled: true,
            ..Default::default()
        };
        r.events.push(SpanEvent {
            at: SimTime::from_secs(1),
            migration: 7,
            block: 3,
            bytes: 128,
            state: SpanState::Pending,
            node: None,
            cause: cause::REQUESTED,
            job: Some(1),
            tier: None,
        });
        r.events.push(SpanEvent {
            at: SimTime::from_secs(2),
            migration: 7,
            block: 3,
            bytes: 128,
            state: SpanState::Bound,
            node: Some(2),
            cause: cause::HEARTBEAT_PULL,
            job: None,
            tier: Some(0),
        });
        r.events.push(SpanEvent {
            at: SimTime::from_secs(3),
            migration: 7,
            block: 3,
            bytes: 128,
            state: SpanState::Finished,
            node: Some(2),
            cause: cause::COMPLETED,
            job: None,
            tier: Some(0),
        });
        r.counters.insert("span.finished", 1);
        let mut ts = simkit::stats::TimeSeries::new();
        ts.record(SimTime::from_secs(1), 5.0);
        ts.record(SimTime::from_secs(2), 6.5);
        r.gauges.insert(("node.buffer_bytes", 2), ts);
        let mut h = simkit::stats::Histogram::linear(0.0, 10.0, 2);
        h.observe(1.0);
        r.histograms.insert("migration.duration_secs", h);
        let mut pass = ProvenanceBatch::default();
        pass.push(
            7,
            3,
            128,
            Some(2),
            [
                CandidateScore {
                    node: 1,
                    rank: 1,
                    est_finish_secs: 2.0,
                    tier: 0,
                },
                CandidateScore {
                    node: 2,
                    rank: 0,
                    est_finish_secs: 1.5,
                    tier: 0,
                },
            ],
        );
        r.provenance.push(pass, SimTime::from_secs(1), 0, 1, 3);
        r
    }

    #[test]
    fn spans_jsonl_shape() {
        let r = sample_report();
        let s = r.spans_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"state\":\"pending\""));
        assert!(lines[0].contains("\"node\":null"));
        assert!(lines[0].contains("\"job\":1"));
        assert!(lines[1].contains("\"cause\":\"heartbeat-pull\""));
        assert!(lines[2].contains("\"state\":\"finished\""));
    }

    #[test]
    fn metrics_jsonl_shape() {
        let r = sample_report();
        let s = r.metrics_jsonl();
        assert!(s.contains("{\"kind\":\"counter\",\"name\":\"span.finished\",\"value\":1}"));
        assert!(s.contains("\"kind\":\"gauge\",\"name\":\"node.buffer_bytes\",\"key\":2"));
        assert!(s.contains("[1000000,5],[2000000,6.5]"));
        assert!(s.contains("\"kind\":\"histogram\""));
        assert!(s.contains("\"counts\":[1,0]"));
    }

    #[test]
    fn provenance_jsonl_shape() {
        let r = sample_report();
        let s = r.provenance_jsonl();
        assert!(s.contains("\"winner\":2"));
        assert!(s.contains("{\"node\":2,\"rank\":0,\"est_finish_secs\":1.5}"));
        assert!(s.contains("\"rescored\":1,\"skipped\":3"));
        // The whole line, byte for byte: pass-level stamps are stored once
        // per pass but rendered on every record.
        assert_eq!(
            s,
            "{\"at_us\":1000000,\"pass\":0,\"migration\":7,\"block\":3,\"bytes\":128,\
             \"candidates\":[{\"node\":1,\"rank\":1,\"est_finish_secs\":2},\
             {\"node\":2,\"rank\":0,\"est_finish_secs\":1.5}],\
             \"winner\":2,\"rescored\":1,\"skipped\":3}\n"
        );
    }

    #[test]
    fn chrome_trace_is_balanced_and_wrapped() {
        let r = sample_report();
        let s = r.chrome_trace_json();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert_eq!(s.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"e\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"n\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"C\"").count(), 2);
    }

    #[test]
    fn non_finite_scores_render_null() {
        let mut r = ObsReport::default();
        let mut pass = ProvenanceBatch::default();
        let score = |node, est_finish_secs| CandidateScore {
            node,
            rank: 0,
            est_finish_secs,
            tier: 0,
        };
        pass.push(1, 1, 8, None, [score(0, f64::NAN), score(1, f64::INFINITY)]);
        r.provenance.push(pass, SimTime::ZERO, 0, 1, 0);
        assert!(r.provenance_jsonl().contains(
            "[{\"node\":0,\"rank\":0,\"est_finish_secs\":null},\
             {\"node\":1,\"rank\":0,\"est_finish_secs\":null}]"
        ));
    }
}
