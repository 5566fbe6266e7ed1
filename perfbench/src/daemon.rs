//! The daemon phase: spawn the shipped `dmc serve`, drive it over two
//! closed-loop connections through the shipped client path, then check
//! its answers against the library.
//!
//! The daemon starts on the corpus minus its held-back rows. An ingest
//! phase sends the held-back rows in 128-row `ingest` batches; a read
//! phase then sends `rule` point queries on seeded pairs, with one
//! `rules_ge` (threshold 0.95, limit 1000) every tenth request. The read
//! phase runs in client worker processes one after another, each over
//! two connections of its own.
//! Untraced runs call `dmc_serve::request`; traced runs make the same
//! three calls it is made of (`write_frame`, `read_frame`,
//! `JsonValue::parse`) each inside its own span.

use crate::check::Checks;
use crate::library::MINCONF;
use crate::stats::SplitMix;
use crate::trace::Recorder;
use dmc_core::{Engine, ImplicationRule, SparseMatrix};
use dmc_metrics::json::JsonValue;
use dmc_serve::{read_frame, request, write_frame};
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Rows per `ingest` request.
const INGEST_BATCH: usize = 128;
/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;
pub const RULES_GE_THRESHOLD: f64 = 0.95;
const RULES_GE_LIMIT: usize = 1000;
/// A client worker's read phase stops here even if its minimum counts
/// are not met.
const READ_CAP: Duration = Duration::from_secs(40);
const START_TIMEOUT: Duration = Duration::from_secs(150);
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// What the daemon phase measured.
#[derive(Debug, Default)]
pub struct DaemonRun {
    pub start_s: f64,
    pub rss_mib: f64,
    pub ingest_ms: Vec<f64>,
    pub ingest_rows: usize,
    pub ingest_wall_s: f64,
    pub pairs_recounted: u64,
    pub rules_born: u64,
    /// `rule` round trips of every client worker, for the p95.
    pub rule_ms: Vec<f64>,
    /// Each client worker's median `rule` and `rules_ge` round trip.
    pub rule_p50s: Vec<f64>,
    pub rules_ge_p50s: Vec<f64>,
    pub rules_ge_count: usize,
    /// Traced runs only: `rules_ge` reply sizes and client parse times.
    pub rules_ge_kib: Vec<f64>,
    pub decode_ms: Vec<f64>,
    /// Mean handler time per request type from the daemon's `metrics`
    /// histograms, in milliseconds.
    pub handler_ms: Vec<(String, f64)>,
}

impl DaemonRun {
    #[must_use]
    pub fn handler(&self, kind: &str) -> f64 {
        self.handler_ms
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// A running daemon; dropping it kills the process if it is still up and
/// waits for it.
struct Daemon {
    child: Child,
    stdout: Option<thread::JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}

impl Daemon {
    /// Spawns `dmc serve` on `file` and waits for its `listening on`
    /// line; returns the daemon and its address.
    fn spawn(dmc: &Path, file: &Path, work: &Path) -> io::Result<(Self, String)> {
        let mut cmd = Command::new(dmc);
        cmd.arg("serve")
            .arg(file)
            .args(["--minconf", &MINCONF.to_string(), "--addr", "127.0.0.1:0"])
            .env("TMPDIR", work)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let daemon = Daemon {
            child,
            stdout: Some(reader),
        };
        let addr = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "the daemon exited or stalled before its `listening on` line",
            )
        })?;
        Ok((daemon, addr))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits up to 30 s for the daemon to exit after `shutdown`.
    fn exited_cleanly(&mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => thread::sleep(Duration::from_millis(20)),
                Err(_) => return false,
            }
        }
        false
    }
}

/// One request/response round trip, timed; spans the wire pieces when
/// tracing. Returns the reply, the reply's payload size in bytes (traced
/// runs only, else 0) and the client parse time in seconds (ditto).
fn call(
    stream: &mut TcpStream,
    rec: &mut Recorder,
    span: &'static str,
    id: u64,
    payload: &str,
) -> (io::Result<(JsonValue, usize, f64)>, f64) {
    rec.span(span, id, |rec| {
        if !rec.on() {
            return request(stream, payload).map(|v| (v, 0, 0.0));
        }
        rec.span("protocol.write_frame", id, |_| write_frame(stream, payload))
            .0?;
        let text = rec
            .span("protocol.read_frame", id, |_| read_frame(stream))
            .0?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no response"))?;
        let (parsed, decode_s) = rec.span("json.parse", id, |_| JsonValue::parse(&text));
        let v = parsed.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((v, text.len(), decode_s))
    })
}

/// A client connection that gives up on a daemon silent for
/// `REPLY_TIMEOUT`, so a stuck daemon fails the run instead of hanging it.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

fn is_ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

fn ingest_payload(rows: &[Vec<u32>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let ids: Vec<String> = r.iter().map(u32::to_string).collect();
            format!("[{}]", ids.join(", "))
        })
        .collect();
    format!("{{\"type\": \"ingest\", \"rows\": [{}]}}", rows.join(", "))
}

/// The seeded pairs `rule` queries ask about: half drawn from the mined
/// rules, half uniform.
#[must_use]
pub fn query_pairs(
    seed: u64,
    rules: &[ImplicationRule],
    n_cols: u32,
    count: usize,
) -> Vec<(u32, u32)> {
    let mut rng = SplitMix::new(seed);
    (0..count)
        .map(|_| {
            if !rules.is_empty() && rng.below(2) == 0 {
                let r = rules[rng.below(rules.len() as u64) as usize];
                return (r.lhs, r.rhs);
            }
            let lhs = rng.below(u64::from(n_cols)) as u32;
            let rhs = rng.below(u64::from(n_cols)) as u32;
            (lhs, if rhs == lhs { (rhs + 1) % n_cols } else { rhs })
        })
        .collect()
}

/// One `ingest` round trip: milliseconds, the reply, the batch's rows.
type IngestReply = (f64, io::Result<JsonValue>, usize);

/// One answered `rule` query, kept for the check against the library.
type RuleAnswer = (u32, u32, JsonValue);

/// Per-connection results of the read phase.
#[derive(Default)]
struct ConnReads {
    rule_ms: Vec<f64>,
    rules_ge_ms: Vec<f64>,
    rules_ge_kib: Vec<f64>,
    decode_ms: Vec<f64>,
    answers: Vec<RuleAnswer>,
    rules_ge_totals: Vec<(u64, usize)>,
    failures: Vec<String>,
    ok: u64,
}

/// What one client worker's read phase measured.
#[derive(Debug, Default)]
pub struct Reads {
    pub rule_ms: Vec<f64>,
    pub rules_ge_ms: Vec<f64>,
    pub rules_ge_kib: Vec<f64>,
    pub decode_ms: Vec<f64>,
}

/// A client worker's share of the read phase.
pub struct ReadSpec<'a> {
    pub addr: &'a str,
    /// Query pairs; request `k` of this worker asks about
    /// `pairs[(offset + k) % pairs.len()]`, except that every tenth
    /// request is a `rules_ge`.
    pub pairs: &'a [(u32, u32)],
    pub offset: usize,
    pub budget: Duration,
    pub min_rule: u64,
    pub min_rules_ge: u64,
    /// The number of rules at or above 0.95 in a from-scratch mine of
    /// all rows, which every `rules_ge` reply must report.
    pub expect_at_95: u64,
}

/// A client worker's read phase over two connections, then the check of
/// every answer against `engine`, a library engine holding all rows.
pub fn read_phase(
    spec: &ReadSpec,
    engine: &Engine,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Reads {
    let next = AtomicU64::new(0);
    let rule_done = AtomicU64::new(0);
    let ge_done = AtomicU64::new(0);
    let read_start = Instant::now();
    let conns: Vec<(Recorder, ConnReads)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let mut rec = rec.fork();
                let (next, rule_done, ge_done) = (&next, &rule_done, &ge_done);
                s.spawn(move || {
                    let mut res = ConnReads::default();
                    let mut stream = match connect(spec.addr) {
                        Ok(s) => s,
                        Err(e) => {
                            res.failures.push(format!("connecting: {e}"));
                            return (rec, res);
                        }
                    };
                    loop {
                        let elapsed = read_start.elapsed();
                        let enough = rule_done.load(Ordering::Relaxed) >= spec.min_rule
                            && ge_done.load(Ordering::Relaxed) >= spec.min_rules_ge;
                        if (enough && elapsed >= spec.budget) || elapsed >= READ_CAP {
                            break;
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let id = (spec.offset as u64 + k) + 1;
                        if k % 10 == 9 {
                            let payload = format!(
                                "{{\"type\": \"rules_ge\", \"threshold\": {RULES_GE_THRESHOLD}, \"limit\": {RULES_GE_LIMIT}}}"
                            );
                            match call(&mut stream, &mut rec, "client.rules_ge", id, &payload) {
                                (Ok((v, bytes, decode_s)), secs) if is_ok(&v) => {
                                    res.ok += 1;
                                    res.rules_ge_ms.push(secs * 1e3);
                                    if rec.on() {
                                        res.rules_ge_kib.push(bytes as f64 / 1024.0);
                                        res.decode_ms.push(decode_s * 1e3);
                                    }
                                    let total = v.get("total").and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
                                    let listed = v
                                        .get("rules")
                                        .and_then(JsonValue::as_array)
                                        .map_or(usize::MAX, <[JsonValue]>::len);
                                    res.rules_ge_totals.push((total, listed));
                                    ge_done.fetch_add(1, Ordering::Relaxed);
                                }
                                (r, _) => res.failures.push(format!("rules_ge: {:?}", r.map(|_| "reply not ok"))),
                            }
                            continue;
                        }
                        let (lhs, rhs) = spec.pairs[(spec.offset + k as usize) % spec.pairs.len()];
                        let payload = format!("{{\"type\": \"rule\", \"lhs\": {lhs}, \"rhs\": {rhs}}}");
                        match call(&mut stream, &mut rec, "client.rule", id, &payload) {
                            (Ok((v, _, _)), secs) if is_ok(&v) => {
                                res.ok += 1;
                                res.rule_ms.push(secs * 1e3);
                                res.answers.push((lhs, rhs, v));
                                rule_done.fetch_add(1, Ordering::Relaxed);
                            }
                            (r, _) => res.failures.push(format!("rule {lhs} {rhs}: {:?}", r.map(|_| "reply not ok"))),
                        }
                    }
                    (rec, res)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a read client panicked"))
            .collect()
    });

    let mut out = Reads::default();
    for (r, res) in conns {
        rec.absorb(r.into_spans(), 0);
        for _ in 0..res.ok {
            checks.pass();
        }
        for f in res.failures {
            checks.fail(f);
        }
        out.rule_ms.extend(res.rule_ms);
        out.rules_ge_ms.extend(res.rules_ge_ms);
        out.rules_ge_kib.extend(res.rules_ge_kib);
        out.decode_ms.extend(res.decode_ms);
        for (lhs, rhs, v) in &res.answers {
            let want = engine.query(*lhs, *rhs);
            let got = v.get("answer");
            let field = |k: &str| got.and_then(|a| a.get(k)).and_then(JsonValue::as_u64);
            let same = want.is_some_and(|w| {
                field("hits") == Some(u64::from(w.hits))
                    && field("lhs_ones") == Some(u64::from(w.lhs_ones))
                    && field("rhs_ones") == Some(u64::from(w.rhs_ones))
                    && got
                        .and_then(|a| a.get("qualifies"))
                        .and_then(JsonValue::as_bool)
                        == Some(w.qualifies)
            });
            checks.check(same, "served rule answer equals Engine::query");
        }
        for (total, listed) in res.rules_ge_totals {
            checks.check(
                total == spec.expect_at_95 && listed == (total as usize).min(RULES_GE_LIMIT),
                "served rules_ge at 0.95 equals a from-scratch mine",
            );
        }
    }
    out
}

/// A running daemon and its address.
pub struct Served {
    daemon: Daemon,
    pub addr: String,
}

/// Spawns the daemon on `start_file` and records its start-up time.
pub fn start(
    dmc: &Path,
    start_file: &Path,
    work: &Path,
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut DaemonRun,
) -> Option<Served> {
    match rec.span("server.spawn", 0, |_| Daemon::spawn(dmc, start_file, work)) {
        (Ok((daemon, addr)), secs) => {
            checks.pass();
            out.start_s = secs;
            Some(Served { daemon, addr })
        }
        (Err(e), _) => {
            checks.fail(format!("starting the daemon: {e}"));
            None
        }
    }
}

/// The ingest phase: the held-back rows (the last `held` of `matrix`),
/// 128 rows a request, each connection taking the next batch when its
/// last reply arrives.
pub fn ingest(
    served: &Served,
    matrix: &SparseMatrix,
    held: usize,
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut DaemonRun,
) {
    let first_held = matrix.n_rows() - held;
    let rows: Vec<Vec<u32>> = (first_held..matrix.n_rows())
        .map(|r| matrix.row(r).to_vec())
        .collect();
    let batches: Vec<(String, usize)> = rows
        .chunks(INGEST_BATCH)
        .map(|b| (ingest_payload(b), b.len()))
        .collect();
    let next = AtomicUsize::new(0);
    let ingest_start = Instant::now();
    let results: Vec<(Recorder, Vec<IngestReply>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let mut rec = rec.fork();
                let (next, batches) = (&next, &batches);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut stream = match connect(&served.addr) {
                        Ok(s) => s,
                        Err(e) => {
                            got.push((0.0, Err(e), 0));
                            return (rec, got);
                        }
                    };
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        let Some((payload, n)) = batches.get(b) else {
                            break;
                        };
                        let (reply, secs) = call(
                            &mut stream,
                            &mut rec,
                            "client.ingest",
                            b as u64 + 1,
                            payload,
                        );
                        got.push((secs * 1e3, reply.map(|r| r.0), *n));
                    }
                    (rec, got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an ingest client panicked"))
            .collect()
    });
    out.ingest_wall_s = ingest_start.elapsed().as_secs_f64();
    for (r, got) in results {
        rec.absorb(r.into_spans(), 0);
        for (ms, reply, rows) in got {
            let report = reply
                .as_ref()
                .ok()
                .filter(|v| is_ok(v))
                .and_then(|v| v.get("report"));
            let count = |k: &str| report.and_then(|r| r.get(k)).and_then(JsonValue::as_u64);
            if count("rows") == Some(rows as u64) {
                checks.pass();
                out.ingest_ms.push(ms);
                out.ingest_rows += rows;
                out.pairs_recounted += count("pairs_recounted").unwrap_or(0);
                out.rules_born += count("rules_born").unwrap_or(0);
            } else {
                checks.fail(format!(
                    "ingest request: {:?}",
                    reply.map(|_| "reply not ok")
                ));
            }
        }
    }
    checks.check(out.ingest_rows == held, "every held-back row was ingested");
}

/// Closing requests on a fresh connection — the served rule count at the
/// mining threshold, the telemetry registry, the daemon's peak RSS, then
/// `shutdown` — and the wait for a clean exit. `reference` is a
/// from-scratch mine of all rows.
pub fn finish(
    served: Served,
    reference: &[ImplicationRule],
    rec: &mut Recorder,
    checks: &mut Checks,
    out: &mut DaemonRun,
) {
    let Served { mut daemon, addr } = served;
    match connect(&addr) {
        Ok(mut stream) => {
            let (v, _) = call(
                &mut stream,
                rec,
                "client.rules_ge",
                0,
                &format!("{{\"type\": \"rules_ge\", \"threshold\": {MINCONF}, \"limit\": 0}}"),
            );
            let total = v
                .ok()
                .filter(|(v, _, _)| is_ok(v))
                .and_then(|(v, _, _)| v.get("total").and_then(JsonValue::as_u64));
            checks.check(
                total == Some(reference.len() as u64),
                "served rule count at 0.9 equals a from-scratch mine",
            );
            let (m, _) = call(
                &mut stream,
                rec,
                "client.metrics",
                0,
                "{\"type\": \"metrics\"}",
            );
            match m {
                Ok((v, _, _)) if is_ok(&v) => {
                    checks.pass();
                    out.handler_ms = handler_means(&v);
                }
                _ => checks.fail("metrics request"),
            }
            out.rss_mib = crate::procfs::peak_rss_mib(&daemon.pid()).unwrap_or(0.0);
            checks.check(out.rss_mib > 0.0, "reading the daemon's peak RSS");
            let (s, _) = call(
                &mut stream,
                rec,
                "client.shutdown",
                0,
                "{\"type\": \"shutdown\"}",
            );
            checks.check(s.is_ok_and(|(v, _, _)| is_ok(&v)), "shutdown request");
        }
        Err(e) => checks.fail(format!("connecting for the closing requests: {e}")),
    }
    checks.check(daemon.exited_cleanly(), "the daemon exits 0 after shutdown");
}

/// Mean handler time per request type, from the `metrics` reply's
/// `serve.request.*` histograms (`sum_us / count`).
fn handler_means(reply: &JsonValue) -> Vec<(String, f64)> {
    let Some(JsonValue::Obj(hists)) = reply.get("metrics").and_then(|m| m.get("histograms")) else {
        return Vec::new();
    };
    hists
        .iter()
        .filter_map(|(name, h)| {
            let kind = name.strip_prefix("serve.request.")?;
            let count = h.get("count")?.as_f64()?;
            let sum_us = h.get("sum_us")?.as_f64()?;
            (count > 0.0).then(|| (kind.to_string(), sum_us / count / 1e3))
        })
        .collect()
}
