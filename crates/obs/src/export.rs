//! Deterministic exporters: JSON Lines and fixed-width tables.
//!
//! JSON is emitted by hand (the workspace has no serializer crate)
//! with a fixed key order per record type, so a
//! byte-for-byte comparison of two exports is a valid determinism
//! check. Floats use Rust's shortest round-trip `Display`, which is
//! itself deterministic.

use std::fmt::{self, Write as _};

use crate::metrics::MetricsSnapshot;
use crate::trace::{TraceEvent, TraceKind};

/// A string escaped for embedding inside a JSON string literal, written
/// straight into the output that formats it.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Escapes a string for embedding inside a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    Esc(s).to_string()
}

/// Appends one trace event to `out` as a single JSON object (no
/// newline). Key order is fixed: `seq`, `at_us`, `type`, then payload
/// fields in declaration order.
fn write_trace_event(out: &mut String, e: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"at_us\":{},\"type\":\"{}\"",
        e.seq,
        e.at_us,
        e.kind.type_name()
    );
    let _ = match e.kind {
        TraceKind::TaskDispatch { node, task }
        | TraceKind::TaskArrive { node, task }
        | TraceKind::TaskStart { node, task }
        | TraceKind::TaskLost { node, task }
        | TraceKind::TaskTimeout { node, task }
        | TraceKind::TaskCancelled { node, task }
        | TraceKind::TaskAdmitted { node, task }
        | TraceKind::TaskResume { node, task } => {
            write!(out, ",\"node\":{node},\"task\":{task}}}")
        }
        TraceKind::TaskCheckpoint { node, task, bytes } => {
            write!(out, ",\"node\":{node},\"task\":{task},\"bytes\":{bytes}}}")
        }
        TraceKind::TaskShed { node, task, reason } => {
            write!(out, ",\"node\":{node},\"task\":{task},\"reason\":\"{}\"}}", Esc(reason))
        }
        TraceKind::TaskRetry { node, task, attempt } => {
            write!(out, ",\"node\":{node},\"task\":{task},\"attempt\":{attempt}}}")
        }
        TraceKind::TaskComplete { node, task, deadline_met } => {
            write!(out, ",\"node\":{node},\"task\":{task},\"deadline_met\":{deadline_met}}}")
        }
        TraceKind::NodeCrash { node } | TraceKind::NodeRecover { node } => {
            write!(out, ",\"node\":{node}}}")
        }
        TraceKind::LinkDown { link } | TraceKind::LinkUp { link } => {
            write!(out, ",\"link\":{link}}}")
        }
        TraceKind::MapePhase { phase } => write!(out, ",\"phase\":\"{}\"}}", Esc(phase)),
        TraceKind::ManagerAction { manager, action, subject } => write!(
            out,
            ",\"manager\":\"{}\",\"action\":\"{}\",\"subject\":{subject}}}",
            Esc(manager),
            Esc(action)
        ),
        TraceKind::Deploy { app, component, node } => {
            write!(out, ",\"app\":{app},\"component\":{component},\"node\":{node}}}")
        }
        TraceKind::Migrate { app, component, from, to } => {
            write!(out, ",\"app\":{app},\"component\":{component},\"from\":{from},\"to\":{to}}}")
        }
    };
}

/// The whole trace as JSON Lines, oldest event first. Empty input
/// yields the empty string.
pub fn trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        write_trace_event(&mut out, e);
        out.push('\n');
    }
    out
}

/// A metrics snapshot as JSON Lines: counters, then gauges, then
/// histograms, each sorted by key (the snapshot is already sorted).
pub fn metrics_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for ((name, label), value) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"metric\":\"{}\",\"label\":\"{}\",\"value\":{value}}}",
            Esc(name),
            Esc(label)
        );
    }
    for ((name, label), value) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"kind\":\"gauge\",\"metric\":\"{}\",\"label\":\"{}\",\"value\":{value}}}",
            Esc(name),
            Esc(label)
        );
    }
    for ((name, label), h) in &snap.histograms {
        let _ = write!(
            out,
            "{{\"kind\":\"histogram\",\"metric\":\"{}\",\"label\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
            Esc(name),
            Esc(label),
            h.count,
            h.sum
        );
        for (i, count) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = match h.bounds.get(i) {
                Some(bound) => write!(out, "[\"{bound}\",{count}]"),
                None => write!(out, "[\"+inf\",{count}]"),
            };
        }
        out.push_str("]}\n");
    }
    out
}

/// A metrics snapshot as a fixed-width, human-readable table (sorted,
/// so also deterministic).
pub fn metrics_table(snap: &MetricsSnapshot) -> String {
    let mut rows: Vec<(String, String, String)> = Vec::new();
    for ((name, label), value) in &snap.counters {
        rows.push(("counter".into(), series_name(name, label), value.to_string()));
    }
    for ((name, label), value) in &snap.gauges {
        rows.push(("gauge".into(), series_name(name, label), value.to_string()));
    }
    for ((name, label), h) in &snap.histograms {
        let series = series_name(name, label);
        rows.push(("histogram".into(), format!("{series}.count"), h.count.to_string()));
        rows.push(("histogram".into(), format!("{series}.sum"), h.sum.to_string()));
        for (i, count) in h.buckets.iter().enumerate() {
            let bound = h.bounds.get(i).map_or_else(|| "+inf".to_owned(), |b| b.to_string());
            rows.push(("histogram".into(), format!("{series}.le.{bound}"), count.to_string()));
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    let kind_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max("KIND".len());
    let name_w = rows.iter().map(|r| r.1.len()).max().unwrap_or(0).max("METRIC".len());
    let mut out = format!("{:<kind_w$}  {:<name_w$}  VALUE\n", "KIND", "METRIC");
    for (kind, name, value) in rows {
        out.push_str(&format!("{kind:<kind_w$}  {name:<name_w$}  {value}\n"));
    }
    out
}

fn series_name(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_owned()
    } else {
        format!("{name}{{{label}}}")
    }
}

// ---------------------------------------------------------------------------
// Artifact parsers — the read side of the exporters above, used by the
// offline `myrtus-report` pipeline. Both are total: malformed lines are
// skipped, never panicked on.

/// Extracts the raw value text after `"key":` on one exported line.
/// Relies on the fixed serialization above (no whitespace, no nesting
/// before the scalar fields), which is all these parsers ever read.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}', ']']).next()
    }
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_field(line, key)?.parse().ok()
}

fn json_u32(line: &str, key: &str) -> Option<u32> {
    json_field(line, key)?.parse().ok()
}

fn json_f64(line: &str, key: &str) -> Option<f64> {
    json_field(line, key)?.parse().ok()
}

/// Maps a parsed identifier back to a static string. Known identifiers
/// (MAPE phases, manager names, documented actions) come from a static
/// table; anything else is leaked once — acceptable for the one-shot
/// offline report tooling this parser serves, and it keeps round-trips
/// lossless.
fn intern(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "monitor",
        "analyze",
        "plan",
        "execute",
        "node",
        "network",
        "wl",
        "app",
        "op_switch",
        "op_restore",
        "detour",
        "reallocate",
        "degrade",
        "degrade_trend",
        "recover",
        "queue_full",
        "rate_limit",
        "slo_hopeless",
        "elasticity",
        "scale_up",
        "scale_down",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == s) {
        k
    } else {
        Box::leak(s.to_owned().into_boxed_str())
    }
}

/// Parses a JSONL trace produced by [`trace_jsonl`] back into events.
/// Lines whose `type` is unknown or whose fields are missing are
/// skipped.
pub fn parse_trace_jsonl(s: &str) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for line in s.lines() {
        let (Some(seq), Some(at_us), Some(ty)) =
            (json_u64(line, "seq"), json_u64(line, "at_us"), json_field(line, "type"))
        else {
            continue;
        };
        let node = || json_u32(line, "node");
        let task = || json_u64(line, "task");
        let kind = (|| -> Option<TraceKind> {
            Some(match ty {
                "task_dispatch" => TraceKind::TaskDispatch { node: node()?, task: task()? },
                "task_arrive" => TraceKind::TaskArrive { node: node()?, task: task()? },
                "task_start" => TraceKind::TaskStart { node: node()?, task: task()? },
                "task_complete" => TraceKind::TaskComplete {
                    node: node()?,
                    task: task()?,
                    deadline_met: json_field(line, "deadline_met")? == "true",
                },
                "task_lost" => TraceKind::TaskLost { node: node()?, task: task()? },
                "task_retry" => TraceKind::TaskRetry {
                    node: node()?,
                    task: task()?,
                    attempt: json_u32(line, "attempt")?,
                },
                "task_timeout" => TraceKind::TaskTimeout { node: node()?, task: task()? },
                "task_cancelled" => TraceKind::TaskCancelled { node: node()?, task: task()? },
                "node_crash" => TraceKind::NodeCrash { node: node()? },
                "node_recover" => TraceKind::NodeRecover { node: node()? },
                "link_down" => TraceKind::LinkDown { link: json_u32(line, "link")? },
                "link_up" => TraceKind::LinkUp { link: json_u32(line, "link")? },
                "mape_phase" => TraceKind::MapePhase { phase: intern(json_field(line, "phase")?) },
                "manager_action" => TraceKind::ManagerAction {
                    manager: intern(json_field(line, "manager")?),
                    action: intern(json_field(line, "action")?),
                    subject: json_u64(line, "subject")?,
                },
                "deploy" => TraceKind::Deploy {
                    app: json_field(line, "app")?.parse().ok()?,
                    component: json_u32(line, "component")?,
                    node: node()?,
                },
                "migrate" => TraceKind::Migrate {
                    app: json_field(line, "app")?.parse().ok()?,
                    component: json_u32(line, "component")?,
                    from: json_u32(line, "from")?,
                    to: json_u32(line, "to")?,
                },
                "task_admitted" => TraceKind::TaskAdmitted { node: node()?, task: task()? },
                "task_checkpoint" => TraceKind::TaskCheckpoint {
                    node: node()?,
                    task: task()?,
                    bytes: json_u64(line, "bytes")?,
                },
                "task_resume" => TraceKind::TaskResume { node: node()?, task: task()? },
                "task_shed" => TraceKind::TaskShed {
                    node: node()?,
                    task: task()?,
                    reason: intern(json_field(line, "reason")?),
                },
                _ => return None,
            })
        })();
        let Some(kind) = kind else { continue };
        out.push(TraceEvent { seq, at_us, kind });
    }
    out
}

/// One metric record parsed back from a [`metrics_jsonl`] export, with
/// owned names so the parser does not depend on static interning.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedMetric {
    /// A monotonic counter.
    Counter {
        /// Metric name.
        metric: String,
        /// Series label (`""` for unlabelled).
        label: String,
        /// Counter value.
        value: u64,
    },
    /// A gauge.
    Gauge {
        /// Metric name.
        metric: String,
        /// Series label.
        label: String,
        /// Last written value.
        value: f64,
    },
    /// A histogram.
    Histogram {
        /// Metric name.
        metric: String,
        /// Series label.
        label: String,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// `(upper_bound, count)` pairs; the last bound is `"+inf"`.
        buckets: Vec<(String, u64)>,
    },
}

/// Parses a metrics JSONL export back into records, skipping malformed
/// lines.
pub fn parse_metrics_jsonl(s: &str) -> Vec<ParsedMetric> {
    let mut out = Vec::new();
    for line in s.lines() {
        let (Some(kind), Some(metric), Some(label)) =
            (json_field(line, "kind"), json_field(line, "metric"), json_field(line, "label"))
        else {
            continue;
        };
        let metric = metric.to_owned();
        let label = label.to_owned();
        match kind {
            "counter" => {
                let Some(value) = json_u64(line, "value") else { continue };
                out.push(ParsedMetric::Counter { metric, label, value });
            }
            "gauge" => {
                let Some(value) = json_f64(line, "value") else { continue };
                out.push(ParsedMetric::Gauge { metric, label, value });
            }
            "histogram" => {
                let (Some(count), Some(sum)) = (json_u64(line, "count"), json_f64(line, "sum"))
                else {
                    continue;
                };
                let mut buckets = Vec::new();
                if let Some(start) = line.find("\"buckets\":[") {
                    let body = &line[start + "\"buckets\":[".len()..];
                    for pair in body.split("[\"").skip(1) {
                        let Some((bound, rest)) = pair.split_once('"') else { continue };
                        let Some(count) = rest
                            .strip_prefix(',')
                            .and_then(|r| r.split(']').next())
                            .and_then(|c| c.parse().ok())
                        else {
                            continue;
                        };
                        buckets.push((bound.to_owned(), count));
                    }
                }
                out.push(ParsedMetric::Histogram { metric, label, count, sum, buckets });
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::TraceBuffer;

    #[test]
    fn trace_jsonl_is_one_valid_object_per_line() {
        let mut buf = TraceBuffer::new(16);
        buf.push(10, TraceKind::TaskDispatch { node: 1, task: 2 });
        buf.push(20, TraceKind::TaskComplete { node: 1, task: 2, deadline_met: false });
        buf.push(30, TraceKind::MapePhase { phase: "plan" });
        let out = trace_jsonl(&buf.events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"at_us\":10,\"type\":\"task_dispatch\",\"node\":1,\"task\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"at_us\":20,\"type\":\"task_complete\",\"node\":1,\"task\":2,\"deadline_met\":false}"
        );
        assert_eq!(lines[2], "{\"seq\":2,\"at_us\":30,\"type\":\"mape_phase\",\"phase\":\"plan\"}");
    }

    #[test]
    fn metrics_jsonl_orders_counters_gauges_histograms() {
        static BOUNDS: &[f64] = &[1.0];
        let r = MetricsRegistry::new();
        r.observe("lat", "", BOUNDS, 0.5);
        r.gauge_set("util", "node-0", 0.25);
        r.counter_add("done", "", 3);
        let out = metrics_jsonl(&r.snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"kind\":\"counter\",\"metric\":\"done\",\"label\":\"\",\"value\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"gauge\",\"metric\":\"util\",\"label\":\"node-0\",\"value\":0.25}"
        );
        assert_eq!(
            lines[2],
            "{\"kind\":\"histogram\",\"metric\":\"lat\",\"label\":\"\",\"count\":1,\"sum\":0.5,\"buckets\":[[\"1\",1],[\"+inf\",0]]}"
        );
    }

    #[test]
    fn trace_jsonl_roundtrips() {
        let mut buf = TraceBuffer::new(32);
        buf.push(10, TraceKind::TaskDispatch { node: 1, task: 2 });
        buf.push(15, TraceKind::TaskArrive { node: 1, task: 2 });
        buf.push(20, TraceKind::TaskStart { node: 1, task: 2 });
        buf.push(30, TraceKind::TaskComplete { node: 1, task: 2, deadline_met: true });
        buf.push(40, TraceKind::TaskLost { node: 3, task: 9 });
        buf.push(42, TraceKind::TaskRetry { node: 3, task: 9, attempt: 1 });
        buf.push(44, TraceKind::TaskTimeout { node: 3, task: 9 });
        buf.push(46, TraceKind::TaskCancelled { node: 3, task: 9 });
        buf.push(50, TraceKind::NodeCrash { node: 3 });
        buf.push(60, TraceKind::NodeRecover { node: 3 });
        buf.push(70, TraceKind::LinkDown { link: 5 });
        buf.push(80, TraceKind::LinkUp { link: 5 });
        buf.push(90, TraceKind::MapePhase { phase: "analyze" });
        buf.push(95, TraceKind::ManagerAction { manager: "app", action: "degrade", subject: 4 });
        buf.push(100, TraceKind::Deploy { app: 1, component: 2, node: 3 });
        buf.push(110, TraceKind::Migrate { app: 1, component: 2, from: 3, to: 4 });
        buf.push(120, TraceKind::TaskAdmitted { node: 1, task: 11 });
        buf.push(125, TraceKind::TaskShed { node: 1, task: 12, reason: "rate_limit" });
        buf.push(130, TraceKind::TaskCheckpoint { node: 3, task: 13, bytes: 146 });
        buf.push(140, TraceKind::TaskResume { node: 4, task: 13 });
        let events = buf.events();
        let parsed = parse_trace_jsonl(&trace_jsonl(&events));
        assert_eq!(parsed, events);
        // And the round-trip re-serializes identically.
        assert_eq!(trace_jsonl(&parsed), trace_jsonl(&events));
    }

    #[test]
    fn metrics_jsonl_roundtrips() {
        static BOUNDS: &[f64] = &[1.0, 10.0];
        let r = MetricsRegistry::new();
        r.counter_add("done", "", 3);
        r.gauge_set("util", "edge", 0.25);
        r.observe("lat", "fog", BOUNDS, 2.0);
        let parsed = parse_metrics_jsonl(&metrics_jsonl(&r.snapshot()));
        assert_eq!(parsed.len(), 3);
        assert_eq!(
            parsed[0],
            ParsedMetric::Counter { metric: "done".into(), label: "".into(), value: 3 }
        );
        assert_eq!(
            parsed[1],
            ParsedMetric::Gauge { metric: "util".into(), label: "edge".into(), value: 0.25 }
        );
        assert_eq!(
            parsed[2],
            ParsedMetric::Histogram {
                metric: "lat".into(),
                label: "fog".into(),
                count: 1,
                sum: 2.0,
                buckets: vec![("1".into(), 0), ("10".into(), 1), ("+inf".into(), 0)],
            }
        );
    }

    #[test]
    fn parsers_skip_malformed_lines() {
        assert!(parse_trace_jsonl("not json\n{\"seq\":1}\n").is_empty());
        assert!(parse_metrics_jsonl("{\"kind\":\"counter\"}\ngarbage\n").is_empty());
        let partial = "{\"seq\":0,\"at_us\":5,\"type\":\"mystery\",\"x\":1}\n\
                       {\"seq\":1,\"at_us\":6,\"type\":\"node_crash\",\"node\":2}\n";
        let parsed = parse_trace_jsonl(partial);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, TraceKind::NodeCrash { node: 2 });
    }

    #[test]
    fn exports_are_reproducible() {
        let build = || {
            let r = MetricsRegistry::new();
            r.counter_add("b", "y", 2);
            r.counter_add("a", "x", 1);
            r.gauge_set("g", "", 7.5);
            metrics_jsonl(&r.snapshot()) + &metrics_table(&r.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn table_is_empty_for_empty_snapshot() {
        assert!(metrics_table(&MetricsSnapshot::default()).is_empty());
        assert!(metrics_jsonl(&MetricsSnapshot::default()).is_empty());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("é\"ü\u{1f}"), "é\\\"ü\\u001f", "multi-byte text around escapes");
    }
}
