//! Chrome trace-event JSON export and a minimal parser for validation.
//!
//! The exporter emits the classic `{"traceEvents": [...]}` format understood
//! by Perfetto and `chrome://tracing`: `ph:"X"` complete events with
//! microsecond `ts`/`dur`, `ph:"i"` instants, and `ph:"M"` metadata naming
//! processes and threads. Each added [`TraceReport`] contributes up to two
//! trace *processes* — one per clock lane — so virtual (model-time) and real
//! (wall-time) tracks never share an axis.

use std::collections::BTreeMap;

use crate::report::{EventKind, Lane, TraceReport};

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn micros(seconds: f64) -> f64 {
    (seconds * 1e6 * 1000.0).round() / 1000.0
}

/// Incremental builder merging one or more [`TraceReport`]s into a single
/// Chrome trace-event JSON document.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    rows: Vec<String>,
    next_pid: u32,
}

impl ChromeTrace {
    /// An empty trace document.
    #[must_use]
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            next_pid: 1,
        }
    }

    /// Add every track of `report` under processes labelled from `label`
    /// (suffixed with the lane when both lanes are present).
    pub fn add(&mut self, label: &str, report: &TraceReport) {
        // Each lane present gets the next pid, in order of first appearance.
        let mut lanes: Vec<Lane> = Vec::new();
        for t in report.tracks() {
            if !lanes.contains(&t.lane) {
                lanes.push(t.lane);
            }
        }
        let first_pid = self.next_pid;
        self.next_pid += lanes.len() as u32;
        let pid_of = |lane| first_pid + lanes.iter().position(|&l| l == lane).unwrap_or(0) as u32;
        for &lane in &lanes {
            let name = if lanes.len() > 1 {
                format!("{label} ({lane})")
            } else {
                label.to_string()
            };
            self.rows.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                pid_of(lane),
                escape(&name)
            ));
        }
        for (tid, info) in report.tracks().iter().enumerate() {
            self.rows.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                pid_of(info.lane),
                tid,
                escape(&info.label)
            ));
        }
        for span in report.spans_lenient() {
            let info = &report.tracks()[span.track.index()];
            self.rows.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}}}",
                escape(&span.name),
                pid_of(info.lane),
                span.track.index(),
                micros(span.start),
                micros((span.end - span.start).max(0.0)),
            ));
        }
        for ev in report.events() {
            if ev.kind == EventKind::Instant {
                let info = &report.tracks()[ev.track.index()];
                self.rows.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{}}}",
                    escape(&ev.name),
                    pid_of(info.lane),
                    ev.track.index(),
                    micros(ev.ts),
                ));
            }
        }
    }

    /// Serialize to a Chrome trace-event JSON document.
    #[must_use]
    pub fn finish(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(row);
            if i + 1 != self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to validate our own exporter output (and
// any hand-edited trace) without external dependencies.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8"))?;
                    // INVARIANT: peek() returned Some, so rest is non-empty.
                    let c = rest.chars().next().expect("non-empty string tail");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Structural summary of a parsed Chrome trace, used by tests and the
/// `trace-validate` binary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedChromeTrace {
    /// Count of `ph:"X"` complete events.
    pub complete_events: usize,
    /// Count of `ph:"i"` instant events.
    pub instant_events: usize,
    /// Process names by pid (from `process_name` metadata).
    pub processes: BTreeMap<u64, String>,
    /// Thread (track) names by (pid, tid) (from `thread_name` metadata).
    pub threads: BTreeMap<(u64, u64), String>,
    /// Total duration summed over complete events, in microseconds.
    pub total_dur_us: f64,
    /// Largest `ts` observed, in microseconds.
    pub max_ts_us: f64,
}

impl ParsedChromeTrace {
    /// Track labels (thread names) across all processes.
    #[must_use]
    pub fn track_labels(&self) -> Vec<&str> {
        self.threads.values().map(String::as_str).collect()
    }

    /// True when some track label satisfies `pred`.
    #[must_use]
    pub fn has_track(&self, pred: impl Fn(&str) -> bool) -> bool {
        self.threads.values().any(|t| pred(t))
    }
}

/// Parse a Chrome trace-event JSON document (object form with `traceEvents`,
/// or a bare event array) and summarise its structure.
pub fn parse_chrome_trace(input: &str) -> Result<ParsedChromeTrace, String> {
    let mut parser = Parser::new(input);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after document"));
    }
    let events = match &root {
        Value::Arr(items) => items.as_slice(),
        Value::Obj(_) => match root.get("traceEvents") {
            Some(Value::Arr(items)) => items.as_slice(),
            _ => return Err("document has no traceEvents array".to_string()),
        },
        _ => return Err("document is neither an object nor an array".to_string()),
    };
    let mut out = ParsedChromeTrace::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let pid = ev.get("pid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        match ph {
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("complete event {i} has no ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("complete event {i} has no dur"))?;
                if dur < 0.0 {
                    return Err(format!("complete event {i} has negative dur"));
                }
                out.complete_events += 1;
                out.total_dur_us += dur;
                if ts + dur > out.max_ts_us {
                    out.max_ts_us = ts + dur;
                }
            }
            "i" | "I" => {
                out.instant_events += 1;
                if let Some(ts) = ev.get("ts").and_then(Value::as_f64) {
                    if ts > out.max_ts_us {
                        out.max_ts_us = ts;
                    }
                }
            }
            "M" => {
                let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
                let arg = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                match name {
                    "process_name" => {
                        out.processes.insert(pid, arg);
                    }
                    "thread_name" => {
                        out.threads.insert((pid, tid), arg);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{RawEvent, TraceReport, TrackId, TrackInfo};
    use std::borrow::Cow;

    fn sample_report() -> TraceReport {
        TraceReport {
            tracks: vec![
                TrackInfo {
                    label: "stream:0".into(),
                    lane: Lane::Virtual,
                },
                TrackInfo {
                    label: "sidco-pool-0".into(),
                    lane: Lane::Real,
                },
            ],
            events: vec![
                RawEvent {
                    track: TrackId(0),
                    kind: EventKind::Span { end: 1.25 },
                    name: Cow::Borrowed("bucket 0"),
                    ts: 0.5,
                },
                RawEvent {
                    track: TrackId(0),
                    kind: EventKind::Instant,
                    name: Cow::Borrowed("release"),
                    ts: 0.5,
                },
                RawEvent {
                    track: TrackId(1),
                    kind: EventKind::Span { end: 0.002 },
                    name: Cow::Borrowed("chunk"),
                    ts: 0.001,
                },
            ],
            metrics: Default::default(),
            dropped: 0,
        }
    }

    #[test]
    fn export_then_parse_roundtrips_structure() {
        let mut chrome = ChromeTrace::new();
        chrome.add("run \"a\"", &sample_report());
        let json = chrome.finish();
        let parsed = parse_chrome_trace(&json).expect("valid json");
        assert_eq!(parsed.complete_events, 2);
        assert_eq!(parsed.instant_events, 1);
        // Two lanes → two processes, labelled with the lane.
        assert_eq!(parsed.processes.len(), 2);
        assert!(parsed
            .processes
            .values()
            .any(|p| p.contains("model time") && p.contains("run \"a\"")));
        assert!(parsed.has_track(|t| t == "stream:0"));
        assert!(parsed.has_track(|t| t == "sidco-pool-0"));
        // 0.75 s + 1 ms, in µs.
        assert!((parsed.total_dur_us - 751_000.0).abs() < 1e-6);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_chrome_trace("{").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(parse_chrome_trace("[{\"ph\":\"X\",\"ts\":0}]").is_err()); // no dur
        assert!(parse_chrome_trace("[] trailing").is_err());
        assert!(parse_chrome_trace("[]").is_ok());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let doc = r#"{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":2,
            "args":{"name":"a\"b\\cA"}},
            {"ph":"X","pid":1,"tid":2,"ts":1.5e3,"dur":0.25,"name":"n"}]}"#;
        let parsed = parse_chrome_trace(doc).expect("valid");
        assert_eq!(
            parsed.threads.get(&(1, 2)).map(String::as_str),
            Some("a\"b\\cA")
        );
        assert_eq!(parsed.complete_events, 1);
        assert_eq!(parsed.max_ts_us, 1500.25);
    }
}
