//! The traced-run recorder: spans around every public call the benchmark
//! makes, kept in memory and written out as JSON when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the run's origin),
//! the span that caused it, and a request id shared by the spans of one
//! wire request (0 outside the daemon phase). Timing is taken whether or
//! not tracing is on, so traced and untraced runs execute the same code;
//! only the bookkeeping differs.

use dmc_metrics::json::{JsonValue, JsonWriter};
use std::borrow::Cow;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Borrowed when recorded here, owned when read back from a worker.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. Client threads and worker processes record into
/// their own recorders; the main recorder absorbs their spans when they
/// finish.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    #[must_use]
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's origin and mode.
    #[must_use]
    pub fn fork(&self) -> Self {
        Self::new(self.on, self.origin)
    }

    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// its wall time in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let at = self.ns(start);
            self.spans.push(Span {
                name: Cow::Borrowed(name),
                start_ns: at,
                end_ns: at,
                parent: self.open.last().copied(),
                request,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end_ns = self.ns(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Nanoseconds from this recorder's origin to `t`, for placing a
    /// worker process's spans, which count from the worker's own start.
    #[must_use]
    pub fn offset_of(&self, t: Instant) -> u64 {
        self.ns(t)
    }

    /// Appends spans recorded elsewhere, shifted by `offset_ns`, hanging
    /// their root spans under the currently open span.
    pub fn absorb(&mut self, spans: Vec<Span>, offset_ns: u64) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s.start_ns += offset_ns;
            s.end_ns += offset_ns;
            s
        }));
    }

    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in iv {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, total and self time in seconds, sorted by
/// self time, largest first.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&str, u64, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut by: Vec<(&str, u64, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        let idx = match by.iter().position(|e| e.0 == s.name) {
            Some(i) => i,
            None => {
                by.push((&s.name, 0, 0.0, 0.0));
                by.len() - 1
            }
        };
        let e = &mut by[idx];
        e.1 += 1;
        e.2 += s.duration_ns() as f64 / 1e9;
        e.3 += own as f64 / 1e9;
    }
    by.sort_by(|a, b| b.3.total_cmp(&a.3));
    by
}

/// The spans as a JSON document, with the run's identity in front.
#[must_use]
pub fn spans_json(header: &[(&str, String)], spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut w = JsonWriter::new();
    w.object();
    for (k, v) in header {
        w.string(k, v);
    }
    w.array_key("spans");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        w.object();
        w.uint("id", i as u64);
        w.string("name", &s.name);
        w.uint("start_ns", s.start_ns);
        w.uint("end_ns", s.end_ns);
        w.opt_uint("parent", s.parent.map(|p| p as u64));
        w.uint("request", s.request);
        w.uint("self_ns", own);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Reads back the spans of a document written by [`spans_json`].
#[must_use]
pub fn spans_from_json(text: &str) -> Option<Vec<Span>> {
    let doc = JsonValue::parse(text).ok()?;
    doc.get("spans")?
        .as_array()?
        .iter()
        .map(|s| {
            let parent = match s.get("parent")? {
                JsonValue::Null => None,
                p => Some(usize::try_from(p.as_u64()?).ok()?),
            };
            Some(Span {
                name: Cow::Owned(s.get("name")?.as_str()?.to_string()),
                start_ns: s.get("start_ns")?.as_u64()?,
                end_ns: s.get("end_ns")?.as_u64()?,
                parent,
                request: s.get("request")?.as_u64()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed("s"),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 70, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two concurrent children overlap on 20..30; one runs past the
        // parent's end.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn childless_and_zero_length_spans() {
        let spans = [span(5, 5, None), span(0, 8, None)];
        assert_eq!(self_times_ns(&spans), vec![0, 8]);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let mut r = Recorder::new(true, Instant::now());
        let mut forked = r.fork();
        forked.span("child.thread", 7, |f| f.span("grandchild", 7, |_| ()));
        r.span("root", 0, |r| {
            r.span("inner", 0, |_| ());
            r.absorb(forked.into_spans(), 0);
        });
        let names: Vec<_> = r.spans().iter().map(|s| (&*s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("inner", Some(0)),
                ("child.thread", Some(0)),
                ("grandchild", Some(2)),
            ]
        );
        assert_eq!(r.spans()[3].request, 7);
        let by = self_time_by_name(r.spans());
        assert_eq!(by.len(), 4);
    }

    #[test]
    fn spans_survive_json_and_shift_when_absorbed() {
        let spans = vec![span(0, 100, None), span(10, 30, Some(0))];
        let back = spans_from_json(&spans_json(&[("k", "v".into())], &spans)).unwrap();
        assert_eq!(back, spans);
        let mut r = Recorder::new(true, Instant::now());
        r.absorb(back, 1_000);
        assert_eq!(
            (r.spans()[1].start_ns, r.spans()[1].parent),
            (1_010, Some(0))
        );
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let (v, secs) = r.span("x", 0, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(r.spans().is_empty());
    }
}
