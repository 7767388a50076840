//! Chrome `trace_event` export and validation.
//!
//! [`to_chrome_json`] serializes a [`TraceSnapshot`] into the JSON
//! object format consumed by Perfetto (<https://ui.perfetto.dev>) and
//! the legacy `chrome://tracing` viewer: a `traceEvents` array of
//! complete (`"ph":"X"`), instant (`"ph":"i"`), counter (`"ph":"C"`)
//! and metadata (`"ph":"M"`) events. Timestamps are microseconds
//! (fractional, so the nanosecond precision of both clock domains
//! survives).
//!
//! The workspace is hermetic (no serde_json), so this module also
//! carries [`validate_chrome_json`]: a small, strict JSON parser that
//! checks exporter output structurally — used by the integration tests
//! and the CI artifact gate.

use crate::trace::TraceSnapshot;
use std::fmt::Write as _;

/// Escapes `s` as the contents of a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Microsecond timestamp with nanosecond precision.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Serializes a snapshot as a Chrome `trace_event` JSON object.
///
/// Every track becomes a `tid` under a single `pid` (1), named via a
/// `thread_name` metadata event; the clock domain is recorded in the
/// top-level `otherData.clock_domain` field (`"monotonic"` or
/// `"virtual"`). Load the result in Perfetto or `chrome://tracing`.
pub fn to_chrome_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(snap.spans.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };

    for (i, name) in snap.tracks.iter().enumerate() {
        sep(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{i}");
        out.push_str(",\"args\":{\"name\":\"");
        escape_into(&mut out, name);
        out.push_str("\"}}");
    }
    for s in &snap.spans {
        sep(&mut out);
        out.push_str("{\"ph\":\"X\",\"name\":\"");
        escape_into(&mut out, &s.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, s.cat);
        let _ = write!(
            out,
            "\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            s.track.0,
            us(s.start_ns),
            us(s.dur_ns)
        );
        if !s.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push('}');
    }
    for e in &snap.instants {
        sep(&mut out);
        out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
        escape_into(&mut out, &e.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, e.cat);
        let _ = write!(
            out,
            "\",\"pid\":1,\"tid\":{},\"ts\":{}}}",
            e.track.0,
            us(e.ts_ns)
        );
    }
    for c in &snap.counters {
        sep(&mut out);
        out.push_str("{\"ph\":\"C\",\"name\":\"");
        escape_into(&mut out, &c.name);
        let _ = write!(
            out,
            "\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
            c.track.0,
            us(c.ts_ns),
            c.value
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock_domain\":\"");
    out.push_str(match snap.domain {
        crate::trace::ClockDomain::Monotonic => "monotonic",
        crate::trace::ClockDomain::Virtual => "virtual",
    });
    out.push_str("\"}}");
    out
}

// --------------------------------------------------------------------
// Validation: a minimal strict JSON parser + structural checks
// --------------------------------------------------------------------

/// Counts of the event kinds found by [`validate_chrome_json`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Counter (`"C"`) events.
    pub counters: usize,
    /// Metadata (`"M"`) events.
    pub metadata: usize,
}

impl ChromeTraceStats {
    /// Total events of every kind.
    pub fn total(&self) -> usize {
        self.spans + self.instants + self.counters + self.metadata
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            kv.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar. The parser only ever
                    // steps over whole chars, so `pos` is a char
                    // boundary of the already-valid input.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Parses `json` and checks that it is a structurally valid Chrome
/// trace produced by [`to_chrome_json`]: a top-level object with a
/// `traceEvents` array whose members carry `ph`/`pid`/`tid`, with
/// `name`+`ts`+`dur` on complete events and `ts` on instants/counters.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn validate_chrome_json(json: &str) -> Result<ChromeTraceStats, String> {
    let root = parse(json)?;
    let events = root.get("traceEvents").ok_or("missing `traceEvents`")?;
    let Json::Arr(events) = events else {
        return Err("`traceEvents` is not an array".into());
    };
    let mut stats = ChromeTraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing `ph`"))?;
        ev.get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing `pid`"))?;
        ev.get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing `tid`"))?;
        match ph {
            "X" => {
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("span without name"))?;
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("span without ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("span without dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(ctx("negative timestamp"));
                }
                stats.spans += 1;
            }
            "i" => {
                ev.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("instant without ts"))?;
                stats.instants += 1;
            }
            "C" => {
                ev.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("counter without ts"))?;
                ev.get("args").ok_or_else(|| ctx("counter without args"))?;
                stats.counters += 1;
            }
            "M" => stats.metadata += 1,
            other => return Err(ctx(&format!("unknown phase `{other}`"))),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ClockDomain, Trace};

    fn sample() -> TraceSnapshot {
        let t = Trace::new(ClockDomain::Virtual);
        let drv = t.track("driver");
        let w = t.track("worker \"0\"");
        t.record_span("driver", "phase1", drv, 0, 1_500, vec![]);
        t.record_span(
            "worker",
            "fn dot8\n",
            w,
            1_500,
            2_000,
            vec![("units", 42.0)],
        );
        t.instant("sched", "dispatch", w, 1_500);
        t.counter("workstations", drv, 0, 8.0);
        t.snapshot()
    }

    #[test]
    fn export_roundtrips_through_validator() {
        let json = to_chrome_json(&sample());
        let stats = validate_chrome_json(&json).expect("valid");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.metadata, 2);
        assert!(json.contains("\"clock_domain\":\"virtual\""));
        // Nanosecond precision survives as fractional microseconds.
        assert!(json.contains("\"ts\":1.500"), "{json}");
    }

    #[test]
    fn escaping_is_applied() {
        let json = to_chrome_json(&sample());
        assert!(json.contains("worker \\\"0\\\""));
        assert!(json.contains("fn dot8\\n"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_json("not json").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("{\"traceEvents\":{}}").is_err());
        assert!(
            validate_chrome_json("{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":0}]}").is_err()
        );
    }

    #[test]
    fn validator_handles_multi_megabyte_traces() {
        // Long non-ASCII names put most of the input inside strings,
        // the path that once re-validated the rest of the input for
        // every character.
        let t = Trace::new(ClockDomain::Virtual);
        let track = t.track("worker ƒ");
        let spans = 12_000;
        for i in 0..spans {
            let name = format!("function ƒ_{i} — λ-lifted body {}", "·".repeat(40));
            t.record_span("worker", name, track, i * 10, 5, vec![("units", i as f64)]);
        }
        let json = to_chrome_json(&t.snapshot());
        assert!(json.len() >= 2 << 20, "trace is {} bytes", json.len());
        let stats = validate_chrome_json(&json).expect("valid");
        assert_eq!(stats.spans, spans as usize);
        assert_eq!(stats.instants + stats.counters, 0);
        assert_eq!(stats.metadata, 1, "one track name");
    }

    #[test]
    fn validator_accepts_empty_trace() {
        let t = Trace::new(ClockDomain::Monotonic);
        let json = to_chrome_json(&t.snapshot());
        let stats = validate_chrome_json(&json).expect("valid");
        assert_eq!(stats.total(), 0);
    }
}
