//! The wire protocol: length-framed JSON over a byte stream.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The same framing carries requests and responses;
//! a client writes one request frame and reads one response frame, any
//! number of times per connection. Frames above [`MAX_FRAME_BYTES`] are
//! rejected before the payload is read, so a corrupt or hostile length
//! prefix cannot make the peer allocate unboundedly.
//!
//! The payload dialect is the workspace's own [`dmc_metrics::json`]
//! writer/parser pair — the daemon introduces no second JSON
//! implementation. Requests are objects with a `"type"` tag:
//!
//! | `type`     | fields                                   | answer            |
//! |------------|------------------------------------------|-------------------|
//! | `rule`     | `lhs`, `rhs` (column ids)                | exact counts and scores for that directed pair |
//! | `rules_ge` | `threshold`, optional `limit`            | current rules at or above `threshold` (from the filtered irredundant base when the engine has a compaction stage) |
//! | `expand`   | optional `threshold`, optional `limit`   | all rules implied by the irredundant base at or above `threshold` (default: the engine's own threshold) — byte-identical to the uncompacted rule set |
//! | `ingest`   | `rows` (array of column-id arrays)       | the incremental [`IngestReport`](dmc_core::IngestReport) |
//! | `stats`    | —                                        | engine shape plus live serve counters |
//! | `metrics`  | —                                        | the daemon's telemetry registry: named counters, gauges, and per-request-type latency histograms with p50/p90/p99 |
//! | `shutdown` | —                                        | `{"ok": true}`, then the daemon drains and exits |
//!
//! Every response carries `"ok"`; failures are `{"ok": false, "error":
//! "..."}` and leave the connection usable (per-request error isolation).
//! That includes payloads nested deeper than
//! [`MAX_DEPTH`](dmc_metrics::json::MAX_DEPTH), which the parser refuses
//! rather than recursing into.

use dmc_matrix::ColumnId;
use dmc_metrics::json::JsonValue;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload, requests and responses alike.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one frame: big-endian length prefix, then the payload.
///
/// The frame is assembled in one buffer and handed to the writer in a
/// single `write_all`. Two small writes on an unbuffered `TcpStream`
/// would meet Nagle's algorithm on the sender and a delayed ACK on the
/// receiver: the payload waits for the ACK of the 4-byte header, about
/// 40 ms per frame.
///
/// # Errors
///
/// Propagates write errors; rejects payloads above [`MAX_FRAME_BYTES`]
/// with [`io::ErrorKind::InvalidInput`].
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF before any header byte.
///
/// # Errors
///
/// Fails on short reads mid-frame, oversized lengths, or non-UTF-8
/// payloads.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    // Distinguish "peer closed between frames" (clean) from "closed
    // mid-header" (an error): only a zero-byte first read is clean.
    match r.read(&mut header[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut header[1..])?,
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// One request/response round trip; the client-side convenience used by
/// the CLI, the tests and CI's smoke client.
///
/// # Errors
///
/// Fails on IO errors, an EOF instead of a response, or a response that
/// is not valid JSON.
pub fn request<S: Read + Write>(stream: &mut S, payload: &str) -> io::Result<JsonValue> {
    write_frame(stream, payload)?;
    let text = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        )
    })?;
    JsonValue::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad response JSON: {e}"),
        )
    })
}

/// A parsed client request; see the [module docs](self) for the schema.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Exact counts for the directed pair `lhs ⇒ rhs`.
    Rule { lhs: ColumnId, rhs: ColumnId },
    /// Current rules scoring at or above `threshold`, optionally capped.
    RulesGe {
        threshold: f64,
        limit: Option<usize>,
    },
    /// Every rule implied by the compacted base at or above `threshold`
    /// (the engine's own mine threshold when omitted), optionally capped.
    Expand {
        threshold: Option<f64>,
        limit: Option<usize>,
    },
    /// Append rows and incrementally re-derive the rule set.
    Ingest { rows: Vec<Vec<ColumnId>> },
    /// Engine shape and live serve counters.
    Stats,
    /// The live telemetry registry: counters, gauges, and latency
    /// histograms, merged across the daemon and the process globals.
    Metrics,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

fn column_id(v: &JsonValue, what: &str) -> Result<ColumnId, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{what} must be a non-negative integer"))?;
    ColumnId::try_from(n).map_err(|_| format!("{what} {n} does not fit a column id"))
}

impl Request {
    /// Parses one request payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the daemon echoes it in the
    /// `"error"` field) for malformed JSON, a missing/unknown `"type"`,
    /// or fields of the wrong shape.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let ty = v
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "request is missing the \"type\" field".to_string())?;
        match ty {
            "rule" => Ok(Request::Rule {
                lhs: column_id(v.get("lhs").unwrap_or(&JsonValue::Null), "\"lhs\"")?,
                rhs: column_id(v.get("rhs").unwrap_or(&JsonValue::Null), "\"rhs\"")?,
            }),
            "rules_ge" => {
                let threshold = v
                    .get("threshold")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| "\"threshold\" must be a number".to_string())?;
                let limit = match v.get("limit") {
                    None | Some(JsonValue::Null) => None,
                    Some(l) => Some(
                        l.as_u64()
                            .ok_or_else(|| "\"limit\" must be a non-negative integer".to_string())?
                            as usize,
                    ),
                };
                Ok(Request::RulesGe { threshold, limit })
            }
            "expand" => {
                let threshold = match v.get("threshold") {
                    None | Some(JsonValue::Null) => None,
                    Some(t) => Some(
                        t.as_f64()
                            .ok_or_else(|| "\"threshold\" must be a number".to_string())?,
                    ),
                };
                let limit = match v.get("limit") {
                    None | Some(JsonValue::Null) => None,
                    Some(l) => Some(
                        l.as_u64()
                            .ok_or_else(|| "\"limit\" must be a non-negative integer".to_string())?
                            as usize,
                    ),
                };
                Ok(Request::Expand { threshold, limit })
            }
            "ingest" => {
                let rows = v
                    .get("rows")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| "\"rows\" must be an array of rows".to_string())?;
                let rows = rows
                    .iter()
                    .map(|row| {
                        row.as_array()
                            .ok_or_else(|| "each row must be an array of column ids".to_string())?
                            .iter()
                            .map(|c| column_id(c, "column id"))
                            .collect()
                    })
                    .collect::<Result<Vec<Vec<ColumnId>>, String>>()?;
                Ok(Request::Ingest { rows })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\": \"stats\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"type\": \"stats\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF is None");
    }

    /// A writer that counts `write` calls and accepts every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_a_single_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, "{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}").unwrap();
        assert_eq!(w.writes, 1, "header and payload go out together");
        write_frame(&mut w, "").unwrap();
        assert_eq!(w.writes, 2, "an empty frame is still one write");
        let mut r = Cursor::new(w.bytes);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
    }

    #[test]
    fn oversized_payloads_are_refused_before_writing() {
        let mut w = CountingWriter::default();
        let big = "x".repeat(MAX_FRAME_BYTES + 1);
        let err = write_frame(&mut w, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0);
    }

    #[test]
    fn oversized_lengths_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        // Header promises 10 bytes, payload has 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
        // Partial header.
        assert!(read_frame(&mut Cursor::new(vec![0u8, 0])).is_err());
    }

    #[test]
    fn requests_parse() {
        assert_eq!(
            Request::parse("{\"type\": \"rule\", \"lhs\": 3, \"rhs\": 7}").unwrap(),
            Request::Rule { lhs: 3, rhs: 7 }
        );
        assert_eq!(
            Request::parse("{\"type\": \"rules_ge\", \"threshold\": 0.9}").unwrap(),
            Request::RulesGe {
                threshold: 0.9,
                limit: None
            }
        );
        assert_eq!(
            Request::parse("{\"type\": \"rules_ge\", \"threshold\": 0.5, \"limit\": 10}").unwrap(),
            Request::RulesGe {
                threshold: 0.5,
                limit: Some(10)
            }
        );
        assert_eq!(
            Request::parse("{\"type\": \"expand\"}").unwrap(),
            Request::Expand {
                threshold: None,
                limit: None
            }
        );
        assert_eq!(
            Request::parse("{\"type\": \"expand\", \"threshold\": 0.8, \"limit\": 3}").unwrap(),
            Request::Expand {
                threshold: Some(0.8),
                limit: Some(3)
            }
        );
        assert_eq!(
            Request::parse("{\"type\": \"ingest\", \"rows\": [[0, 2], [1]]}").unwrap(),
            Request::Ingest {
                rows: vec![vec![0, 2], vec![1]]
            }
        );
        assert_eq!(
            Request::parse("{\"type\": \"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse("{\"type\": \"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            Request::parse("{\"type\": \"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn bad_requests_read_as_messages_not_panics() {
        for (text, needle) in [
            ("not json", "JSON parse error"),
            ("{}", "missing the \"type\""),
            ("{\"type\": \"frobnicate\"}", "unknown request type"),
            (
                "{\"type\": \"rule\", \"lhs\": -1, \"rhs\": 0}",
                "non-negative",
            ),
            ("{\"type\": \"rule\", \"lhs\": 1}", "\"rhs\""),
            ("{\"type\": \"rules_ge\"}", "\"threshold\""),
            (
                "{\"type\": \"expand\", \"threshold\": \"hi\"}",
                "\"threshold\" must be a number",
            ),
            (
                "{\"type\": \"expand\", \"limit\": -2}",
                "\"limit\" must be a non-negative integer",
            ),
            ("{\"type\": \"ingest\", \"rows\": 3}", "array of rows"),
            (
                "{\"type\": \"ingest\", \"rows\": [3]}",
                "array of column ids",
            ),
        ] {
            let err = Request::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }
}
