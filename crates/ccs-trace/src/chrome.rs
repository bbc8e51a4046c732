//! Chrome-trace (a.k.a. Trace Event Format) exporter.
//!
//! Converts a recorded [`TimedEvent`] stream into the JSON array form
//! understood by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//!
//! * paired `"B"`/`"E"` duration events for the startup phase, each
//!   compaction pass, and the whole `cyclo_compact` run;
//! * `"i"` instant events for individual decisions (ready-list picks,
//!   placements, candidate scans, slack repairs, snapshots).
//!
//! Two clock domains are supported via [`Clock`]:
//!
//! * [`Clock::Logical`] — the timestamp is the event's *index* in the
//!   stream (1 µs apart).  Output is a pure function of the event
//!   stream, so `--trace` files are byte-identical across runs and
//!   thread counts.  This is the CLI default.
//! * [`Clock::Wall`] — the timestamp is the recorded wall-clock
//!   nanosecond offset divided by 1000.  Use this when you care about
//!   where real time goes rather than about reproducibility.
//!
//! [`validate_chrome`] re-parses an exported document and checks the
//! structural rules above; the `trace-check` binary (and the CI trace
//! job) are thin wrappers around it.

use crate::event::{json_str, Event};
use crate::TimedEvent;
use serde::Value;
use std::fmt::{self, Write as _};

/// Timestamp domain for [`to_chrome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Deterministic: `ts` = event index (in microseconds).
    Logical,
    /// Real time: `ts` = recorded nanoseconds / 1000.
    Wall,
}

/// The record's `ph`: `"B"`/`"E"` for the events that open and close
/// the startup, pass and whole-run spans, `"i"` for every other event.
fn phase(ev: &Event) -> &'static str {
    match ev {
        Event::StartupBegin { .. } | Event::CompactBegin { .. } | Event::PassBegin { .. } => "B",
        Event::StartupEnd { .. } | Event::CompactEnd { .. } | Event::PassEnd { .. } => "E",
        _ => "i",
    }
}

/// The record's `name`: the span name of a `"B"`/`"E"` pair (so the
/// two match), the event kind for an instant.
struct RecordName<'a>(&'a Event);

impl fmt::Display for RecordName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Event::StartupBegin { .. } | Event::StartupEnd { .. } => f.write_str("startup"),
            Event::CompactBegin { .. } | Event::CompactEnd { .. } => f.write_str("cyclo_compact"),
            Event::PassBegin { pass, .. } | Event::PassEnd { pass, .. } => write!(f, "pass {pass}"),
            ev => f.write_str(ev.kind()),
        }
    }
}

/// Bytes reserved per record: a `remap.candidate` record, the most
/// common kind, is ~160 bytes, so a typical trace never regrows.
const RECORD_BYTES: usize = 176;

/// Renders the event stream as a Chrome-trace JSON array.
///
/// Each record is written straight into one buffer as
/// `{"name":…,"ph":…,"ts":…,"pid":1,"tid":1[,"s":"t"],"args":{…}}`;
/// names go through the JSON string escapes, and the args object is
/// [`Event::write_args`].  The output always ends with a newline and
/// is a pure function of `(events, clock)` — with [`Clock::Logical`]
/// it is additionally independent of the recorded timestamps.
pub fn to_chrome(events: &[TimedEvent], clock: Clock) -> String {
    let mut out = String::with_capacity(events.len() * RECORD_BYTES + 16);
    out.push_str("[\n");
    for (idx, te) in events.iter().enumerate() {
        if idx > 0 {
            out.push_str(",\n");
        }
        let ts = match clock {
            Clock::Logical => idx as u64,
            Clock::Wall => te.ns / 1000,
        };
        let ph = phase(&te.event);
        let scope = if ph == "i" { r#","s":"t""# } else { "" };
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            r#"{{"name":{},"ph":"{ph}","ts":{ts},"pid":1,"tid":1{scope},"args":"#,
            json_str(RecordName(&te.event))
        );
        te.event.write_args(&mut out);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Summary statistics returned by [`validate_chrome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total trace records.
    pub total: usize,
    /// `"B"`/`"E"` span pairs.
    pub spans: usize,
    /// `"i"` instant records.
    pub instants: usize,
}

fn field<'v>(obj: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Validates that `text` is a structurally well-formed Chrome-trace
/// document as produced by [`to_chrome`]:
///
/// * the top level is a JSON array;
/// * every record is an object with string `name`, string `ph` in
///   `{B, E, i}`, numeric `ts`, and numeric `pid`/`tid`;
/// * `ts` values are non-decreasing in document order;
/// * `B`/`E` records nest properly (stack discipline, matching names)
///   and every span opened is closed.
///
/// Returns counts on success and a message describing the first
/// violation otherwise.
pub fn validate_chrome(text: &str) -> Result<ChromeStats, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let arr = match value {
        Value::Array(a) => a,
        _ => return Err("top level is not a JSON array".to_string()),
    };
    let mut stats = ChromeStats::default();
    let mut stack: Vec<String> = Vec::new();
    let mut last_ts: Option<f64> = None;
    for (i, rec) in arr.iter().enumerate() {
        let obj = rec
            .as_object()
            .ok_or_else(|| format!("record {i} is not an object"))?;
        let name = field(obj, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("record {i}: missing string `name`"))?;
        let ph = field(obj, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("record {i}: missing string `ph`"))?;
        let ts = field(obj, "ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("record {i}: missing numeric `ts`"))?;
        for key in ["pid", "tid"] {
            field(obj, key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("record {i}: missing numeric `{key}`"))?;
        }
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!("record {i}: ts {ts} decreases below {prev}"));
            }
        }
        last_ts = Some(ts);
        match ph {
            "B" => {
                stack.push(name.to_string());
            }
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("record {i}: `E` for {name:?} with no open span"))?;
                if open != name {
                    return Err(format!(
                        "record {i}: span mismatch — closing {name:?} but {open:?} is open"
                    ));
                }
                stats.spans += 1;
            }
            "i" => {
                stats.instants += 1;
            }
            other => {
                return Err(format!("record {i}: unsupported ph {other:?}"));
            }
        }
        stats.total += 1;
    }
    if let Some(open) = stack.pop() {
        return Err(format!("span {open:?} is never closed"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(events: Vec<Event>) -> Vec<TimedEvent> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TimedEvent {
                ns: (i as u64) * 1500,
                event,
            })
            .collect()
    }

    fn sample() -> Vec<TimedEvent> {
        timed(vec![
            Event::CompactBegin {
                tasks: 3,
                pes: 2,
                max_passes: 4,
            },
            Event::PassBegin {
                pass: 1,
                prev_len: 5,
                rows: 3,
            },
            Event::Rotate { nodes: vec![0, 2] },
            Event::PassEnd {
                pass: 1,
                accepted: true,
                length: 4,
            },
            Event::CompactEnd {
                initial: 5,
                best: 4,
                passes: 1,
            },
        ])
    }

    #[test]
    fn exports_valid_chrome_trace() {
        let text = to_chrome(&sample(), Clock::Logical);
        let stats = validate_chrome(&text).expect("must validate");
        assert_eq!(stats.total, 5);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
    }

    #[test]
    fn logical_clock_ignores_recorded_time() {
        let mut a = sample();
        let b = a.clone();
        for te in &mut a {
            te.ns += 999_999; // perturb wall time
        }
        assert_eq!(to_chrome(&a, Clock::Logical), to_chrome(&b, Clock::Logical));
        assert_ne!(to_chrome(&a, Clock::Wall), to_chrome(&b, Clock::Wall));
    }

    #[test]
    fn wall_clock_uses_microseconds() {
        let events = timed(vec![Event::StartupEnd { length: 1 }]);
        let text = to_chrome(&events, Clock::Wall);
        // 0 ns -> 0 µs for the first event.
        assert!(text.contains("\"ts\":0"));
    }

    #[test]
    fn rejects_non_array() {
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("not json").is_err());
    }

    #[test]
    fn rejects_unbalanced_spans() {
        let events = timed(vec![Event::PassBegin {
            pass: 1,
            prev_len: 5,
            rows: 3,
        }]);
        let text = to_chrome(&events, Clock::Logical);
        let err = validate_chrome(&text).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn rejects_mismatched_span_names() {
        let events = timed(vec![
            Event::PassBegin {
                pass: 1,
                prev_len: 5,
                rows: 3,
            },
            Event::PassEnd {
                pass: 2,
                accepted: false,
                length: 5,
            },
        ]);
        let text = to_chrome(&events, Clock::Logical);
        let err = validate_chrome(&text).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn rejects_decreasing_timestamps() {
        let mut events = sample();
        events[1].ns = 0;
        events[0].ns = 5_000;
        let text = to_chrome(&events, Clock::Wall);
        let err = validate_chrome(&text).unwrap_err();
        assert!(err.contains("decreases"), "{err}");
    }
}
