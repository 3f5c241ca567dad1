//! Snapshot exporters.
//!
//! Two formats, both hand-rolled because merctrace is
//! dependency-free:
//!
//! * [`json`] — a plain structured dump (probes, per-CPU records,
//!   aggregate counters/histograms) for archival and diffing;
//! * [`chrome_trace`] — the Chrome `trace_event` array format, viewable
//!   in `about://tracing` / Perfetto.  Span begin/end become `"B"`/`"E"`
//!   events, counters become `"C"` events and histogram samples become
//!   instant (`"i"`) events.  Timestamps are converted from simulated
//!   cycles to microseconds with the caller-supplied cycles-per-µs
//!   rate (pass `simx86::costs::CYCLES_PER_US`; merctrace itself has
//!   no dependency on the cost model).
//!
//! ```
//! merctrace::init(1024);
//! merctrace::arm();
//! merctrace::record(29, merctrace::Kind::SpanBegin, "doc.export", 0, 3_000);
//! merctrace::record(29, merctrace::Kind::SpanEnd, "doc.export", 0, 6_000);
//! let snap = merctrace::snapshot();
//! let chrome = merctrace::export::chrome_trace(&snap, 3_000);
//! // 3000 cycles at 3000 cycles/µs = 1 µs.
//! assert!(chrome.contains("\"ts\":1"));
//! assert!(merctrace::export::json(&snap).contains("\"doc.export\""));
//! merctrace::disarm();
//! ```

use crate::{Kind, Snapshot};
use std::fmt::Write as _;

/// Escape `s` for the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a microsecond value with up to three decimals, trimming
/// trailing zeros so integral timestamps stay integral.
fn us(cycles: u64, cycles_per_us: u64) -> String {
    let cycles_per_us = cycles_per_us.max(1);
    let whole = cycles / cycles_per_us;
    let frac = ((cycles % cycles_per_us) * 1000) / cycles_per_us;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
            .trim_end_matches('0')
            .to_string()
    }
}

/// Serialize a snapshot as plain JSON.
pub fn json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"probes\": [");
    for (i, p) in snap.probes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape(p));
    }
    out.push_str("],\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {v}", escape(name));
    }
    out.push_str("},\n  \"hists\": {");
    for (i, (name, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
            escape(name),
            h.count,
            h.sum,
            h.min,
            h.max
        );
    }
    let _ = write!(
        out,
        "}},\n  \"out_of_range\": {},\n  \"cpus\": [",
        snap.out_of_range
    );
    for (ci, cpu) in snap.cpus.iter().enumerate() {
        if ci > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"cpu\": {}, \"dropped\": {}, \"records\": [",
            cpu.cpu, cpu.dropped
        );
        for (ri, r) in cpu.records.iter().enumerate() {
            if ri > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"ts\": {}, \"probe\": \"{}\", \"kind\": \"{}\", \"value\": {}}}",
                r.ts,
                escape(snap.probe_name(r.probe)),
                r.kind.as_str(),
                r.value
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Serialize a snapshot in Chrome `trace_event` format (the JSON
/// array flavor).  `cycles_per_us` converts simulated cycles to the
/// microsecond timestamps the viewer expects.
pub fn chrome_trace(snap: &Snapshot, cycles_per_us: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for cpu in &snap.cpus {
        for r in &cpu.records {
            let name = escape(snap.probe_name(r.probe));
            let ts = us(r.ts, cycles_per_us);
            let ev = match r.kind {
                Kind::SpanBegin => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"mercury\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":{}}}",
                    cpu.cpu
                ),
                Kind::SpanEnd => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"mercury\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":{}}}",
                    cpu.cpu
                ),
                Kind::Counter => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"mercury\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    cpu.cpu, r.value
                ),
                Kind::Hist => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"mercury\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    cpu.cpu, r.value
                ),
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&ev);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arm, init, record, snapshot, Kind};

    #[test]
    fn us_formatting() {
        assert_eq!(us(3_000, 3_000), "1");
        assert_eq!(us(4_500, 3_000), "1.5");
        assert_eq!(us(1, 3_000), "0");
        assert_eq!(us(31, 3_000), "0.01");
        assert_eq!(us(0, 0), "0"); // degenerate rate clamps to 1
    }

    #[test]
    fn exporters_cover_all_kinds() {
        init(256);
        arm();
        record(23, Kind::SpanBegin, "t.exp.span", 0, 0);
        record(23, Kind::Counter, "t.exp.count", 2, 10);
        record(23, Kind::Hist, "t.exp.hist", 7, 20);
        record(23, Kind::SpanEnd, "t.exp.span", 0, 30);
        let snap = snapshot();
        let j = json(&snap);
        assert!(j.contains("\"t.exp.span\""));
        assert!(j.contains("\"kind\": \"counter\""));
        assert!(j.contains("\"t.exp.hist\": {\"count\": 1, \"sum\": 7"));
        let c = chrome_trace(&snap, 3_000);
        assert!(c.contains("\"ph\":\"B\""));
        assert!(c.contains("\"ph\":\"E\""));
        assert!(c.contains("\"ph\":\"C\""));
        assert!(c.contains("\"ph\":\"i\""));
        assert!(c.contains("\"tid\":23"));
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
