//! Admin-plane client helpers: scrape a running daemon for a
//! [`StatsSnapshot`] or a [`FlightRecord`] over any [`Transport`], and
//! render the results as JSON, Prometheus-style text exposition, or the
//! `dyrs-node watch` backlog/health table.
//!
//! The scrape functions are transport-generic so the same code path
//! serves the CLI over TCP, the loopback tests, and anything embedding
//! a transport. JSON goes through `simkit::json`, like `dyrs-obs`'s
//! JSONL export: every string is escaped, and a non-finite float prints
//! as `null` so the output is always valid JSON.

use crate::proto::{Message, StatsScope};
use crate::transport::{Peer, Transport, TransportError};
use dyrs_obs::{FlightRecord, StatsSnapshot};
use simkit::json::{ToJson, Value};
use simkit::json_object;
use std::fmt::Write as _;
use std::time::Duration;

/// How many reply frames a scrape is willing to skip past (unrelated
/// in-flight traffic) before giving up on matching its request.
const SCRAPE_SKIP_BUDGET: u32 = 256;

/// One labelled scrape result, as rendered by the CLI.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// Where the snapshot came from (`master`, `slave-0`, ...).
    pub label: String,
    /// The snapshot itself.
    pub snapshot: StatsSnapshot,
}

/// Request `scope` from `to` and wait for the matching [`Message::StatsReply`].
///
/// Unrelated frames that arrive first (e.g. another client's replies on
/// a shared loopback endpoint) are skipped, up to a fixed budget. Errors
/// are [`TransportError::Timeout`] if the peer never answers within
/// `timeout` per attempt.
pub fn scrape_stats<T: Transport>(
    transport: &T,
    to: Peer,
    scope: StatsScope,
    timeout: Duration,
) -> Result<StatsSnapshot, TransportError> {
    transport.send(to, &Message::StatsRequest { scope })?;
    for _ in 0..SCRAPE_SKIP_BUDGET {
        if let (
            _,
            Message::StatsReply {
                scope: got,
                snapshot,
            },
        ) = transport.recv_timeout(timeout)?
        {
            if got == scope {
                return Ok(snapshot);
            }
        }
    }
    Err(TransportError::Timeout)
}

/// Request a flight-recorder dump (`scope` must be a `*Flight` scope)
/// and wait for the matching [`Message::FlightDump`].
pub fn scrape_flight<T: Transport>(
    transport: &T,
    to: Peer,
    scope: StatsScope,
    timeout: Duration,
) -> Result<FlightRecord, TransportError> {
    transport.send(to, &Message::StatsRequest { scope })?;
    for _ in 0..SCRAPE_SKIP_BUDGET {
        if let (_, Message::FlightDump { scope: got, record }) = transport.recv_timeout(timeout)? {
            if got == scope {
                return Ok(record);
            }
        }
    }
    Err(TransportError::Timeout)
}

/// Render scrapes as a JSON array, one object per daemon.
pub fn render_json(scrapes: &[Scrape]) -> String {
    let daemons: Vec<Value> = scrapes
        .iter()
        .map(|s| {
            let snap = &s.snapshot;
            let gauges: Vec<Value> = snap
                .gauges
                .iter()
                .map(|g| json_object! { "name": g.name, "key": g.key, "value": g.value, "at_us": g.at })
                .collect();
            let winners: Vec<Value> = snap
                .top_winners
                .iter()
                .map(|&(node, won)| json_object! { "node": node, "won": won })
                .collect();
            json_object! {
                "daemon": s.label,
                "at_us": snap.at,
                "enabled": snap.enabled,
                "counters": object(&snap.counters),
                "gauges": gauges,
                "open_spans": object(&snap.open_spans),
                "top_winners": winners,
            }
        })
        .collect();
    Value::Arr(daemons).to_string()
}

/// `(name, count)` pairs as one JSON object.
fn object(pairs: &[(String, u64)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    )
}

/// A Prometheus label value: the escapes coincide with a JSON string
/// literal's for the characters the admin plane emits.
fn label(s: &str) -> String {
    s.to_json().to_string()
}

/// Render scrapes in Prometheus text exposition style: one
/// `dyrs_counter`/`dyrs_gauge`/`dyrs_open_spans`/`dyrs_top_winner`
/// sample per line, labelled by daemon.
pub fn render_prometheus(scrapes: &[Scrape]) -> String {
    let mut out = String::new();
    for s in scrapes {
        let d = label(&s.label);
        let snap = &s.snapshot;
        let _ = writeln!(
            out,
            "dyrs_snapshot_at_us{{daemon={d}}} {}",
            snap.at.as_micros()
        );
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "dyrs_counter{{daemon={d},name={}}} {v}", label(name));
        }
        for g in &snap.gauges {
            let _ = writeln!(
                out,
                "dyrs_gauge{{daemon={d},name={},key=\"{}\"}} {}",
                label(&g.name),
                g.key,
                g.value.to_json()
            );
        }
        for (state, n) in &snap.open_spans {
            let _ = writeln!(
                out,
                "dyrs_open_spans{{daemon={d},state={}}} {n}",
                label(state)
            );
        }
        for (node, won) in &snap.top_winners {
            let _ = writeln!(out, "dyrs_top_winner{{daemon={d},node=\"{node}\"}} {won}");
        }
    }
    out
}

/// Render the `dyrs-node watch` backlog/health table: one row per
/// daemon with the scheduler backlog, open-span census, terminal
/// counters, the bytes parked in middle buffer tiers (demoted copies,
/// from the `tier.occupancy_bytes` gauges), and the worst node-health
/// gauge the daemon reports.
pub fn render_watch_table(scrapes: &[Scrape]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}  health",
        "daemon", "pending", "open", "started", "finished", "aborted", "evicted", "tiered-mb"
    );
    for s in scrapes {
        let snap = &s.snapshot;
        let pending = snap
            .gauge("sched.pending_depth", 0)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"));
        // Middle-tier occupancy: gauge keys encode (node << 8) | tier, so
        // tier 0 (memory, already covered by buffer gauges) is excluded.
        let mut tiered: Option<f64> = None;
        for g in &snap.gauges {
            if g.name == "tier.occupancy_bytes" && (g.key & 0xff) >= 1 {
                *tiered.get_or_insert(0.0) += g.value;
            }
        }
        let tiered = tiered.map_or_else(
            || "-".to_owned(),
            |b| format!("{:.0}", b / (1u64 << 20) as f64),
        );
        let health = {
            let mut worst: Option<(u64, f64)> = None;
            for g in &snap.gauges {
                if g.name == "node.health" && worst.is_none_or(|(_, w)| g.value > w) {
                    worst = Some((g.key, g.value));
                }
            }
            match worst {
                None => "-".to_owned(),
                Some((node, v)) => {
                    let name = match v as u32 {
                        0 => "healthy",
                        1 => "suspect",
                        2 => "probation",
                        3 => "quarantined",
                        4 => "joining",
                        _ => "draining",
                    };
                    if v == 0.0 {
                        "all-healthy".to_owned()
                    } else {
                        format!("node {node}: {name}")
                    }
                }
            }
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}  {}",
            s.label,
            pending,
            snap.open_total(),
            snap.counter("span.started"),
            snap.counter("span.finished"),
            snap.counter("span.aborted"),
            snap.counter("span.evicted"),
            tiered,
            health
        );
    }
    out
}

/// Render a flight record as human-readable lines (one per entry).
pub fn render_flight(record: &FlightRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight dump: reason={} node={} at_us={} dropped={} entries={}",
        record.reason,
        record
            .node
            .map_or_else(|| "-".to_owned(), |n| n.to_string()),
        record.at.as_micros(),
        record.dropped,
        record.entries.len()
    );
    for e in &record.entries {
        let _ = writeln!(
            out,
            "  [{:>12}us] mig={} block={} state={} node={} cause={}",
            e.at.as_micros(),
            e.migration,
            e.block,
            e.state,
            e.node.map_or_else(|| "-".to_owned(), |n| n.to_string()),
            e.cause
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyrs_obs::{FlightEntry, GaugeSample};
    use simkit::SimTime;

    fn sample() -> Scrape {
        Scrape {
            label: "master".into(),
            snapshot: StatsSnapshot {
                at: SimTime::from_secs(2),
                enabled: true,
                counters: vec![("span.finished".into(), 3)],
                gauges: vec![
                    GaugeSample {
                        name: "sched.pending_depth".into(),
                        key: 0,
                        value: 6.0,
                        at: SimTime::from_secs(2),
                    },
                    GaugeSample {
                        name: "node.health".into(),
                        key: 1,
                        value: 3.0,
                        at: SimTime::from_secs(2),
                    },
                    GaugeSample {
                        name: "tier.occupancy_bytes".into(),
                        key: (1 << 8) | 1, // node 1, tier 1
                        value: 3.0 * (1u64 << 20) as f64,
                        at: SimTime::from_secs(2),
                    },
                ],
                open_spans: vec![("pending".into(), 6)],
                top_winners: vec![(1, 4)],
            },
        }
    }

    #[test]
    fn json_rendering_is_wellformed_and_escaped() {
        let mut s = sample();
        s.label = "ma\"ster".into();
        s.snapshot.gauges[0].value = f64::NAN;
        s.snapshot.counters.push(("tab\there\\".into(), 1));
        let json = render_json(&[s]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"daemon\":\"ma\\\"ster\""));
        assert!(json.contains("\"value\":null"));
        assert!(json.contains("\"span.finished\":3"));
        assert!(json.contains("{\"node\":1,\"won\":4}"));
        // The whole document, byte for byte: `dyrs-node stat --json` output
        // is a format scripts read.
        assert_eq!(
            json,
            "[{\"daemon\":\"ma\\\"ster\",\"at_us\":2000000,\"enabled\":true,\
             \"counters\":{\"span.finished\":3,\"tab\\u0009here\\\\\":1},\
             \"gauges\":[{\"name\":\"sched.pending_depth\",\"key\":0,\"value\":null,\"at_us\":2000000},\
             {\"name\":\"node.health\",\"key\":1,\"value\":3,\"at_us\":2000000},\
             {\"name\":\"tier.occupancy_bytes\",\"key\":257,\"value\":3145728,\"at_us\":2000000}],\
             \"open_spans\":{\"pending\":6},\"top_winners\":[{\"node\":1,\"won\":4}]}]"
        );
    }

    #[test]
    fn prometheus_rendering_has_one_sample_per_line() {
        let text = render_prometheus(&[sample()]);
        assert!(text.contains("dyrs_counter{daemon=\"master\",name=\"span.finished\"} 3"));
        assert!(
            text.contains("dyrs_gauge{daemon=\"master\",name=\"sched.pending_depth\",key=\"0\"} 6")
        );
        assert!(text.contains("dyrs_open_spans{daemon=\"master\",state=\"pending\"} 6"));
        assert!(text.contains("dyrs_top_winner{daemon=\"master\",node=\"1\"} 4"));
    }

    #[test]
    fn watch_table_summarizes_backlog_and_health() {
        let table = render_watch_table(&[sample()]);
        assert!(table.contains("daemon"));
        assert!(table.contains("master"));
        assert!(table.contains('6'), "pending depth rendered");
        assert!(table.contains("node 1: quarantined"));
        assert!(table.contains("tiered-mb"), "tier column present");
        assert!(table.contains(" 3  "), "3 MB demoted rendered");
    }

    #[test]
    fn watch_table_dashes_tier_column_without_tier_gauges() {
        let mut s = sample();
        s.snapshot
            .gauges
            .retain(|g| g.name != "tier.occupancy_bytes");
        let table = render_watch_table(&[s]);
        assert!(table.contains(" -  "), "legacy snapshots show a dash");
    }

    #[test]
    fn flight_rendering_names_the_node() {
        let rec = FlightRecord {
            reason: "node-quarantined".into(),
            node: Some(2),
            at: SimTime::from_secs(9),
            dropped: 1,
            entries: vec![FlightEntry {
                at: SimTime::from_secs(8),
                migration: 5,
                block: 7,
                state: "mark".into(),
                node: Some(2),
                cause: "node-quarantined".into(),
            }],
        };
        let text = render_flight(&rec);
        assert!(text.contains("reason=node-quarantined node=2"));
        assert!(text.contains("mig=5 block=7 state=mark node=2 cause=node-quarantined"));
    }
}
