//! Exporters: JSON lines, CSV, and Chrome `trace_event` JSON.
//!
//! All three are pure functions from a [`TraceData`] snapshot to a
//! `String`, and all output is **byte-deterministic**: integers are
//! formatted exactly, floats with fixed 6-digit precision, counters and
//! histograms iterate in name order, and no hash-ordered container is
//! involved anywhere. Identical snapshots produce identical bytes.
//!
//! The Chrome format opens directly in `about:tracing` or
//! <https://ui.perfetto.dev>: one cycle is rendered as one microsecond,
//! each [`Lane`] becomes a named thread.

use crate::event::{EventKind, Lane, TraceEvent};
use crate::recorder::TraceData;

/// Escape a string for inclusion in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float deterministically (fixed 6-digit precision).
fn num(v: f64) -> String {
    format!("{v:.6}")
}

fn event_fields(e: &TraceEvent) -> String {
    let mut s = format!(
        "\"ts\":{},\"lane\":\"{}\",\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\"kind\":\"{}\"",
        e.ts,
        esc(&e.lane.label()),
        e.lane.tid(),
        e.cat.as_str(),
        esc(e.name),
        e.kind.as_str()
    );
    // Request-correlated events carry their originating request id; the
    // field is omitted when 0 so uncorrelated traces keep the pre-
    // correlation byte format.
    if e.req != 0 {
        s.push_str(&format!(",\"req\":{}", e.req));
    }
    match e.kind {
        EventKind::Begin { span } | EventKind::End { span } => {
            s.push_str(&format!(",\"span\":{span}"));
        }
        EventKind::Complete { dur, elements } => {
            s.push_str(&format!(",\"dur\":{dur},\"elements\":{elements}"));
        }
        EventKind::Instant => {}
        EventKind::Sample { value } => {
            s.push_str(&format!(",\"value\":{}", num(value)));
        }
    }
    s
}

/// Export as JSON lines: one `meta` line, then one line per event, then
/// one line per counter and per histogram (name order).
pub fn to_jsonl(data: &TraceData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"events\":{},\"dropped\":{}}}\n",
        data.events.len(),
        data.dropped
    ));
    for e in &data.events {
        out.push_str(&format!("{{\"type\":\"event\",{}}}\n", event_fields(e)));
    }
    for (name, value) in &data.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}\n",
            esc(name),
            value
        ));
    }
    for (name, h) in &data.histograms {
        let buckets: Vec<String> = h
            .nonzero_buckets()
            .iter()
            .map(|(i, c)| format!("[{i},{c}]"))
            .collect();
        out.push_str(&format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}\n",
            esc(name),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            num(h.mean()),
            h.percentile(50).unwrap_or(0),
            h.percentile(95).unwrap_or(0),
            h.percentile(99).unwrap_or(0),
            buckets.join(",")
        ));
    }
    out
}

/// Export events as CSV with a fixed header; inapplicable fields are
/// left empty.
pub fn to_csv(data: &TraceData) -> String {
    let mut out = String::from("ts,lane,tid,cat,name,kind,span,dur,elements,value\n");
    for e in &data.events {
        let (span, dur, elements, value) = match e.kind {
            EventKind::Begin { span } | EventKind::End { span } => (
                span.to_string(),
                String::new(),
                String::new(),
                String::new(),
            ),
            EventKind::Complete { dur, elements } => (
                String::new(),
                dur.to_string(),
                elements.to_string(),
                String::new(),
            ),
            EventKind::Instant => (String::new(), String::new(), String::new(), String::new()),
            EventKind::Sample { value } => {
                (String::new(), String::new(), String::new(), num(value))
            }
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            e.ts,
            e.lane.label(),
            e.lane.tid(),
            e.cat.as_str(),
            e.name,
            e.kind.as_str(),
            span,
            dur,
            elements,
            value
        ));
    }
    out
}

/// Export as Chrome `trace_event` JSON (open in `about:tracing` or
/// Perfetto). Cycles are encoded as microseconds; every lane present in
/// the trace gets a `thread_name` metadata record.
pub fn to_chrome_trace(data: &TraceData) -> String {
    let mut lanes: Vec<Lane> = data.events.iter().map(|e| e.lane).collect();
    lanes.sort();
    lanes.dedup();

    let mut records: Vec<String> = Vec::with_capacity(data.events.len() + lanes.len());
    for lane in &lanes {
        records.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            lane.tid(),
            esc(&lane.label())
        ));
    }
    for e in &data.events {
        let head = format!(
            "\"pid\":0,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":\"{}\"",
            e.lane.tid(),
            e.ts,
            e.cat.as_str(),
            esc(e.name)
        );
        // Request-tagged events carry the id as an extra arg; the arg
        // is absent when 0 so uncorrelated traces are byte-identical to
        // the pre-correlation format.
        let req = if e.req != 0 {
            format!(",\"req\":{}", e.req)
        } else {
            String::new()
        };
        let rec = match e.kind {
            EventKind::Begin { span } => {
                format!("{{\"ph\":\"B\",{head},\"args\":{{\"span\":{span}{req}}}}}")
            }
            EventKind::End { span } => {
                format!("{{\"ph\":\"E\",{head},\"args\":{{\"span\":{span}{req}}}}}")
            }
            EventKind::Complete { dur, elements } => format!(
                "{{\"ph\":\"X\",{head},\"dur\":{dur},\"args\":{{\"elements\":{elements}{req}}}}}"
            ),
            EventKind::Instant if e.req != 0 => {
                format!(
                    "{{\"ph\":\"i\",{head},\"s\":\"t\",\"args\":{{\"req\":{}}}}}",
                    e.req
                )
            }
            EventKind::Instant => format!("{{\"ph\":\"i\",{head},\"s\":\"t\"}}"),
            EventKind::Sample { value } => format!(
                "{{\"ph\":\"C\",{head},\"args\":{{\"value\":{}{req}}}}}",
                num(value)
            ),
        };
        records.push(rec);
    }
    let counters: Vec<String> = data
        .counters
        .iter()
        .map(|(name, value)| format!("\"{}\":{}", esc(name), value))
        .collect();
    let counters = counters.join(",");
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":\"cycles-as-us\",\"dropped\":{},\"counters\":{{{counters}}}}}}}\n",
        records.join(","),
        data.dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::recorder::Recorder;

    fn sample_data() -> TraceData {
        let r = Recorder::enabled(64);
        let run = r.begin(Lane::Stage, Category::Stage, "run", 0);
        r.complete(Lane::Mem(0), Category::Mem, "v_ld", 0, 36, 64);
        r.instant(Lane::Fault, Category::Fault, "mem.oob", 10);
        r.sample(Lane::StmBlock, "stm.buffer_utilization", 20, 0.5);
        r.end(Lane::Stage, Category::Stage, "run", 40, run);
        r.add("mem.oob_events", 1);
        r.observe("vector_length", 64);
        r.snapshot()
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_data();
        let b = sample_data();
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        assert_eq!(to_csv(&a), to_csv(&b));
        assert_eq!(to_chrome_trace(&a), to_chrome_trace(&b));
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let d = sample_data();
        let text = to_jsonl(&d);
        // meta + 5 events + 1 counter + 1 histogram.
        assert_eq!(text.lines().count(), 8);
        assert!(text.starts_with("{\"type\":\"meta\""));
        assert!(text.contains("\"kind\":\"begin\""));
        assert!(text.contains("\"type\":\"histogram\""));
        // Histogram lines carry the percentile summary (one value, 64,
        // so every percentile is exactly 64).
        assert!(text.contains("\"p50\":64,\"p95\":64,\"p99\":64"), "{text}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let d = sample_data();
        let text = to_csv(&d);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "ts,lane,tid,cat,name,kind,span,dur,elements,value"
        );
        assert_eq!(lines.count(), d.events.len());
    }

    #[test]
    fn chrome_trace_marks_phases() {
        let d = sample_data();
        let text = to_chrome_trace(&d);
        for ph in [
            "\"ph\":\"M\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
        ] {
            assert!(text.contains(ph), "missing {ph} in {text}");
        }
        assert!(text.contains("\"displayTimeUnit\""));
    }

    #[test]
    fn escaping_handles_quotes() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn request_tag_is_emitted_only_when_nonzero() {
        use crate::event::SpanCtx;
        let r = Recorder::enabled(16);
        r.instant(Lane::Serve, Category::Serve, "plain", 0);
        let tagged = r.with_ctx(SpanCtx::request(0xbeef));
        let s = tagged.begin(Lane::Stage, Category::Stage, "run", 1);
        tagged.end(Lane::Stage, Category::Stage, "run", 2, s);
        let snap = r.snapshot();

        let jsonl = to_jsonl(&snap);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(!lines[1].contains("\"req\""), "{}", lines[1]);
        assert!(lines[2].contains("\"req\":48879"), "{}", lines[2]);

        let chrome = to_chrome_trace(&snap);
        assert!(chrome.contains("\"req\":48879"));
        // Untagged traces keep the pre-correlation byte format.
        let plain = Recorder::enabled(16);
        plain.instant(Lane::Serve, Category::Serve, "plain", 0);
        assert!(!to_jsonl(&plain.snapshot()).contains("req"));
        assert!(!to_chrome_trace(&plain.snapshot()).contains("req"));
    }
}
