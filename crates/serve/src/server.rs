//! The TCP serve loop around a shared [`Engine`].
//!
//! One [`Server`] owns the listener and an `Arc<RwLock<Engine>>`. Each
//! accepted connection gets its own thread; queries (`rule`, `rules_ge`,
//! `expand`, `stats`) take the read lock so they run concurrently,
//! `ingest` takes the write lock so a batch is atomic with respect to
//! every query. When the engine carries a compaction stage, `rules_ge`
//! answers from the filtered irredundant base (each rule annotated with
//! its confidence boost) and `expand` rebuilds the full implied rule set
//! from that base.
//! A malformed frame or request produces an `{"ok": false}` response and
//! leaves that connection usable — one bad client cannot take down its
//! own session, let alone the daemon. Connection, request and error
//! counts are kept in shared atomics and surface both in `stats`
//! responses and in the final [`ServeStats`] that [`Server::run`]
//! returns (the run report's `serve` section).
//!
//! Shutdown is cooperative: a `shutdown` request flips the shared flag
//! and pokes the listener with a loopback connection so the blocking
//! `accept` wakes up and the loop exits.
//!
//! # Telemetry
//!
//! Every received frame — well-formed or not — is timed into exactly one
//! per-request-type latency histogram (`serve.request.rule`, `.rules_ge`,
//! `.expand`, `.ingest`, `.stats`, `.metrics`, plus `.error` for frames
//! that fail to parse and `.shutdown`), so the histogram counts sum to
//! the `requests` counter with no gaps. The instruments live in a
//! per-server [`Registry`] (a test process runs many servers; their
//! counts must not bleed into each other) and are merged with the
//! process-wide [`telemetry::global()`](dmc_metrics::telemetry::global)
//! registry — miner and engine instruments — at snapshot time: the
//! `metrics` request and the Prometheus exposition both serve that
//! merged view.

use crate::protocol::{read_frame, write_frame, Request};
use dmc_core::threshold::{conf_qualifies, sim_qualifies};
use dmc_core::{Engine, IngestReport, MineConfig, RuleAnswer};
use dmc_metrics::json::JsonWriter;
use dmc_metrics::telemetry::{self, Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use dmc_metrics::ServeStats;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::{Duration, Instant};

/// The request-type labels, in the order their histograms are resolved.
/// `error` covers frames that failed to parse; everything else is the
/// wire `type` tag.
const REQUEST_KINDS: [&str; 8] = [
    "rule", "rules_ge", "expand", "ingest", "stats", "metrics", "error", "shutdown",
];

/// Pre-resolved per-server instruments: one latency histogram per request
/// kind, the in-flight gauge, and byte counters. Owning the [`Registry`]
/// per server keeps concurrent servers in one process (the tests) from
/// polluting each other's counts.
struct ServeTelemetry {
    registry: Registry,
    request_hists: Vec<(&'static str, Arc<Histogram>)>,
    in_flight: Arc<Gauge>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

impl ServeTelemetry {
    fn new() -> Self {
        let registry = Registry::default();
        let request_hists = REQUEST_KINDS
            .iter()
            .map(|&kind| (kind, registry.histogram(&format!("serve.request.{kind}"))))
            .collect();
        let in_flight = registry.gauge("serve.in_flight");
        let bytes_in = registry.counter("serve.bytes_in");
        let bytes_out = registry.counter("serve.bytes_out");
        Self {
            registry,
            request_hists,
            in_flight,
            bytes_in,
            bytes_out,
        }
    }

    /// Times one finished request into its kind's histogram.
    fn record(&self, kind: &str, elapsed: Duration) {
        if let Some((_, h)) = self.request_hists.iter().find(|(k, _)| *k == kind) {
            h.record(elapsed);
        }
    }

    /// This server's instruments merged with the process-wide registry.
    fn merged_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        snap.merge(&telemetry::global().snapshot());
        snap
    }
}

/// Live counters and the shutdown flag, shared across connection threads.
struct Shared {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    shutdown: AtomicBool,
    telemetry: ServeTelemetry,
}

impl Default for Shared {
    fn default() -> Self {
        Self {
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            telemetry: ServeTelemetry::new(),
        }
    }
}

impl Shared {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// A bound rule-serving daemon; see the [module docs](self).
pub struct Server {
    listener: TcpListener,
    engine: Arc<RwLock<Engine>>,
    shared: Arc<Shared>,
}

/// Read the engine even if a handler thread panicked mid-lock: the
/// engine's state is only written under [`write_engine`], whose guard is
/// not held across anything that can panic halfway through an update.
fn read_engine(engine: &RwLock<Engine>) -> RwLockReadGuard<'_, Engine> {
    engine
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_engine(engine: &RwLock<Engine>) -> RwLockWriteGuard<'_, Engine> {
    engine
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick) around the engine.
    /// The engine is mined lazily by [`Server::run`] if it has not been
    /// already, so queries never observe an empty pre-mine rule set.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(engine: Engine, addr: A) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            engine: Arc::new(RwLock::new(engine)),
            shared: Arc::new(Shared::default()),
        })
    }

    /// The bound address — the port to print for clients when binding
    /// port 0.
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle on the shared engine, valid after [`Server::run`]
    /// returns (for the final report) or from another thread while
    /// serving.
    #[must_use]
    pub fn engine(&self) -> Arc<RwLock<Engine>> {
        Arc::clone(&self.engine)
    }

    /// Current serve counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// This server's telemetry registry merged with the process-wide
    /// one — the same view a `metrics` request answers with.
    #[must_use]
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.shared.telemetry.merged_snapshot()
    }

    /// Spawns a detached Prometheus text-exposition listener answering
    /// every connection on `listener` with the merged registry snapshot.
    /// The thread lives until the process exits (scrape listeners have no
    /// drain protocol; the daemon's lifetime is the process's).
    pub fn spawn_exposition(&self, listener: TcpListener) {
        let shared = Arc::clone(&self.shared);
        thread::spawn(move || serve_exposition(&listener, &shared));
    }

    /// Accepts and serves connections until a `shutdown` request, then
    /// returns the final counters.
    ///
    /// Connection threads are detached; a client that is mid-request at
    /// shutdown finishes its request against the still-shared engine.
    ///
    /// # Errors
    ///
    /// Fails only if `accept` itself fails.
    pub fn run(&self) -> io::Result<ServeStats> {
        {
            let mut engine = write_engine(&self.engine);
            if engine.report().is_none() {
                engine.mine();
            }
        }
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Every write is a whole response frame, so Nagle's
            // algorithm only adds delay; failing to disable it is
            // harmless.
            let _ = stream.set_nodelay(true);
            self.shared.connections.fetch_add(1, Ordering::Relaxed);
            let engine = Arc::clone(&self.engine);
            let shared = Arc::clone(&self.shared);
            let addr = self.listener.local_addr()?;
            thread::spawn(move || {
                // Per-connection IO errors end that connection only.
                let _ = serve_connection(stream, &engine, &shared);
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Wake the blocking accept so the serve loop can exit.
                    drop(TcpStream::connect(addr));
                }
            });
        }
        Ok(self.shared.snapshot())
    }
}

/// Answers one plain-HTTP connection per scrape with the merged registry
/// rendered as Prometheus text format 0.0.4.
fn serve_exposition(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let body = shared.telemetry.merged_snapshot().to_prometheus_text();
        let response = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // Drain the scraper's request line best-effort, then answer;
        // a scrape failure must never disturb the daemon.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let _ = stream.write_all(response.as_bytes());
    }
}

/// The wire `type` tag of a parsed request, doubling as its histogram
/// label.
fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Rule { .. } => "rule",
        Request::RulesGe { .. } => "rules_ge",
        Request::Expand { .. } => "expand",
        Request::Ingest { .. } => "ingest",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Frame-at-a-time request loop for one client.
fn serve_connection(
    mut stream: TcpStream,
    engine: &RwLock<Engine>,
    shared: &Shared,
) -> io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let start = Instant::now();
        let t = &shared.telemetry;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        t.bytes_in.add(4 + payload.len() as u64);
        t.in_flight.add(1);
        let parsed = Request::parse(&payload);
        let (kind, response) = match &parsed {
            Err(message) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                ("error", error_response(message))
            }
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                ("shutdown", ok_response())
            }
            Ok(Request::Metrics) => {
                // Record this request's latency *before* snapshotting, so
                // the snapshot it answers with already reconciles: the
                // histogram counts sum to the requests counter with no
                // off-by-one for the request in flight.
                t.record("metrics", start.elapsed());
                ("metrics", metrics_response(t))
            }
            Ok(request) => {
                let kind = request_kind(request);
                let response = match handle(request, engine, shared) {
                    Ok(response) => response,
                    Err(message) => {
                        shared.errors.fetch_add(1, Ordering::Relaxed);
                        error_response(&message)
                    }
                };
                (kind, response)
            }
        };
        if kind != "metrics" {
            t.record(kind, start.elapsed());
        }
        t.in_flight.add(-1);
        t.bytes_out.add(4 + response.len() as u64);
        write_frame(&mut stream, &response)?;
        if matches!(parsed, Ok(Request::Shutdown)) {
            return Ok(());
        }
    }
    Ok(())
}

/// Dispatches one parsed request against the engine.
fn handle(request: &Request, engine: &RwLock<Engine>, shared: &Shared) -> Result<String, String> {
    match request {
        Request::Rule { lhs, rhs } => {
            let engine = read_engine(engine);
            match engine.query(*lhs, *rhs) {
                Some(answer) => Ok(answer_response(&answer)),
                None => Err(format!(
                    "column id out of range (matrix has {} columns)",
                    engine.matrix().n_cols()
                )),
            }
        }
        Request::RulesGe { threshold, limit } => {
            Ok(rules_response(&read_engine(engine), *threshold, *limit))
        }
        Request::Expand { threshold, limit } => {
            let engine = read_engine(engine);
            let threshold = threshold.unwrap_or_else(|| engine.config().threshold());
            Ok(expand_response(&engine, threshold, *limit))
        }
        Request::Ingest { rows } => {
            let mut engine = write_engine(engine);
            engine
                .ingest(rows)
                .map(|report| ingest_response(&report))
                .map_err(|e| e.to_string())
        }
        Request::Stats => Ok(stats_response(&read_engine(engine), &shared.snapshot())),
        Request::Metrics | Request::Shutdown => {
            unreachable!("metrics and shutdown are handled in the connection loop")
        }
    }
}

/// The merged registry snapshot as a framed response. The snapshot JSON
/// comes pre-rendered from [`RegistrySnapshot::to_json`]; splicing it in
/// keeps the registry's encoding in one place.
fn metrics_response(t: &ServeTelemetry) -> String {
    format!(
        "{{\"ok\": true, \"metrics\": {}}}",
        t.merged_snapshot().to_json()
    )
}

fn ok_response() -> String {
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", true);
    w.end_object();
    w.finish()
}

fn error_response(message: &str) -> String {
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", false);
    w.string("error", message);
    w.end_object();
    w.finish()
}

fn answer_response(a: &RuleAnswer) -> String {
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", true);
    w.object_key("answer");
    w.uint("lhs", u64::from(a.lhs));
    w.uint("rhs", u64::from(a.rhs));
    w.uint("hits", u64::from(a.hits));
    w.uint("lhs_ones", u64::from(a.lhs_ones));
    w.uint("rhs_ones", u64::from(a.rhs_ones));
    w.float("confidence", a.confidence);
    w.float("similarity", a.similarity);
    w.bool("qualifies", a.qualifies);
    w.end_object();
    w.end_object();
    w.finish()
}

/// One implication rule object, with its boost when served from a base.
fn write_imp_rule(w: &mut JsonWriter, r: &dmc_core::ImplicationRule, boost: Option<f64>) {
    w.object();
    w.uint("lhs", u64::from(r.lhs));
    w.uint("rhs", u64::from(r.rhs));
    w.uint("hits", u64::from(r.hits));
    w.uint("lhs_ones", u64::from(r.lhs_ones));
    w.uint("rhs_ones", u64::from(r.rhs_ones));
    w.float("confidence", r.confidence());
    if let Some(boost) = boost {
        w.float("boost", boost);
    }
    w.end_object();
}

/// One similarity rule object, with its boost when served from a base.
fn write_sim_rule(w: &mut JsonWriter, r: &dmc_core::SimilarityRule, boost: Option<f64>) {
    w.object();
    w.uint("a", u64::from(r.a));
    w.uint("b", u64::from(r.b));
    w.uint("hits", u64::from(r.hits));
    w.uint("a_ones", u64::from(r.a_ones));
    w.uint("b_ones", u64::from(r.b_ones));
    w.float("similarity", r.similarity());
    if let Some(boost) = boost {
        w.float("boost", boost);
    }
    w.end_object();
}

fn imp_qualifies(r: &dmc_core::ImplicationRule, threshold: f64) -> bool {
    conf_qualifies(u64::from(r.hits), u64::from(r.lhs_ones), threshold)
}

fn sim_rule_qualifies(r: &dmc_core::SimilarityRule, threshold: f64) -> bool {
    sim_qualifies(
        u64::from(r.hits),
        u64::from(r.a_ones),
        u64::from(r.b_ones),
        threshold,
    )
}

/// Rules at or above `threshold`, using the miners' own boundary
/// predicates so "at" means exactly what mining meant by it. With a
/// compaction stage configured, answers come from the selected
/// irredundant base and carry a `boost` field per rule.
fn rules_response(engine: &Engine, threshold: f64, limit: Option<usize>) -> String {
    let limit = limit.unwrap_or(usize::MAX);
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", true);
    w.string("algorithm", engine.config().algorithm());
    if let (Some(base), Some(config)) = (engine.compacted_base(), engine.compaction()) {
        w.bool("base", true);
        let (imps, sims) = base.select(config);
        match engine.config() {
            MineConfig::Implication(_) => {
                let matching: Vec<_> = imps
                    .iter()
                    .filter(|b| imp_qualifies(&b.rule, threshold))
                    .collect();
                w.uint("total", matching.len() as u64);
                w.array_key("rules");
                for b in matching.into_iter().take(limit) {
                    write_imp_rule(&mut w, &b.rule, Some(b.boost));
                }
                w.end_array();
            }
            MineConfig::Similarity(_) => {
                let matching: Vec<_> = sims
                    .iter()
                    .filter(|b| sim_rule_qualifies(&b.rule, threshold))
                    .collect();
                w.uint("total", matching.len() as u64);
                w.array_key("rules");
                for b in matching.into_iter().take(limit) {
                    write_sim_rule(&mut w, &b.rule, Some(b.boost));
                }
                w.end_array();
            }
        }
        w.end_object();
        return w.finish();
    }
    match engine.config() {
        MineConfig::Implication(_) => {
            let matching: Vec<_> = engine
                .implication_rules()
                .iter()
                .filter(|r| imp_qualifies(r, threshold))
                .collect();
            w.uint("total", matching.len() as u64);
            w.array_key("rules");
            for r in matching.into_iter().take(limit) {
                write_imp_rule(&mut w, r, None);
            }
            w.end_array();
        }
        MineConfig::Similarity(_) => {
            let matching: Vec<_> = engine
                .similarity_rules()
                .iter()
                .filter(|r| sim_rule_qualifies(r, threshold))
                .collect();
            w.uint("total", matching.len() as u64);
            w.array_key("rules");
            for r in matching.into_iter().take(limit) {
                write_sim_rule(&mut w, r, None);
            }
            w.end_array();
        }
    }
    w.end_object();
    w.finish()
}

/// The full rule set implied by the irredundant base at or above
/// `threshold` — the compaction round trip served over the wire. Without
/// a compaction stage the expansion is computed on the fly and equals the
/// current rule set.
fn expand_response(engine: &Engine, threshold: f64, limit: Option<usize>) -> String {
    let limit = limit.unwrap_or(usize::MAX);
    let (imps, sims) = engine.expand_rules();
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", true);
    w.string("algorithm", engine.config().algorithm());
    match engine.config() {
        MineConfig::Implication(_) => {
            let matching: Vec<_> = imps
                .iter()
                .filter(|r| imp_qualifies(r, threshold))
                .collect();
            w.uint("total", matching.len() as u64);
            w.array_key("rules");
            for r in matching.into_iter().take(limit) {
                write_imp_rule(&mut w, r, None);
            }
            w.end_array();
        }
        MineConfig::Similarity(_) => {
            let matching: Vec<_> = sims
                .iter()
                .filter(|r| sim_rule_qualifies(r, threshold))
                .collect();
            w.uint("total", matching.len() as u64);
            w.array_key("rules");
            for r in matching.into_iter().take(limit) {
                write_sim_rule(&mut w, r, None);
            }
            w.end_array();
        }
    }
    w.end_object();
    w.finish()
}

fn ingest_response(report: &IngestReport) -> String {
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", true);
    w.object_key("report");
    w.uint("rows", report.rows as u64);
    w.uint("pairs_bumped", report.pairs_bumped);
    w.uint("pairs_recounted", report.pairs_recounted);
    w.uint("rules_born", report.rules_born);
    w.uint("rules_died", report.rules_died);
    w.uint("rules", report.rules as u64);
    w.float("wall_seconds", report.wall_seconds);
    w.end_object();
    w.end_object();
    w.finish()
}

fn stats_response(engine: &Engine, stats: &ServeStats) -> String {
    let mut w = JsonWriter::new();
    w.object();
    w.bool("ok", true);
    w.object_key("stats");
    w.string("algorithm", engine.config().algorithm());
    w.float("threshold", engine.config().threshold());
    w.uint("rows", engine.matrix().n_rows() as u64);
    w.uint("cols", engine.matrix().n_cols() as u64);
    w.uint("rules", engine.rule_count() as u64);
    w.uint("connections", stats.connections);
    w.uint("requests", stats.requests);
    w.uint("errors", stats.errors);
    let ingest = engine.ingest_stats();
    w.object_key("ingest");
    w.uint("batches", ingest.batches);
    w.uint("rows_ingested", ingest.rows_ingested);
    w.end_object();
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::request;
    use dmc_matrix::SparseMatrix;
    use dmc_metrics::json::JsonValue;

    fn fig2() -> SparseMatrix {
        SparseMatrix::from_rows(
            6,
            vec![
                vec![1, 5],
                vec![2, 3, 4],
                vec![2, 4],
                vec![0, 1, 2, 5],
                vec![0, 1, 2, 3, 4],
                vec![0, 1, 3, 5],
                vec![0, 2, 3, 4, 5],
                vec![3, 5],
                vec![0, 1, 4],
            ],
        )
    }

    fn start(config: MineConfig) -> (std::net::SocketAddr, thread::JoinHandle<ServeStats>) {
        let server = Server::bind(Engine::new(config, fig2()), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn get_u64(v: &JsonValue, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(v, |v, key| v.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?} in {v:?}"))
    }

    #[test]
    fn serves_queries_ingest_and_stats_end_to_end() {
        let (addr, handle) = start(MineConfig::implications(0.8).unwrap());
        let mut client = TcpStream::connect(addr).unwrap();

        // Point query: c5 ⇒ c3 has hits 3 over 5 ones.
        let v = request(&mut client, "{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(get_u64(&v, &["answer", "hits"]), 3);
        assert_eq!(get_u64(&v, &["answer", "lhs_ones"]), 5);

        // Rule listing matches a from-scratch mine of the same matrix.
        let expected = {
            let mut engine = Engine::new(MineConfig::implications(0.8).unwrap(), fig2());
            engine.mine();
            engine.implication_rules().len() as u64
        };
        let v = request(&mut client, "{\"type\": \"rules_ge\", \"threshold\": 0.8}").unwrap();
        assert_eq!(get_u64(&v, &["total"]), expected);
        assert_eq!(
            v.get("rules").and_then(JsonValue::as_array).unwrap().len() as u64,
            expected
        );
        let v = request(
            &mut client,
            "{\"type\": \"rules_ge\", \"threshold\": 0.8, \"limit\": 1}",
        )
        .unwrap();
        assert_eq!(get_u64(&v, &["total"]), expected, "total ignores the limit");
        assert_eq!(
            v.get("rules").and_then(JsonValue::as_array).unwrap().len(),
            1
        );

        // Ingest two rows, then see the updated counts in a query.
        let v = request(
            &mut client,
            "{\"type\": \"ingest\", \"rows\": [[3, 5], [3, 5]]}",
        )
        .unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(get_u64(&v, &["report", "rows"]), 2);
        let v = request(&mut client, "{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}").unwrap();
        assert_eq!(get_u64(&v, &["answer", "hits"]), 5);
        assert_eq!(get_u64(&v, &["answer", "lhs_ones"]), 7);

        // Stats reflect the matrix growth and this connection's traffic.
        let v = request(&mut client, "{\"type\": \"stats\"}").unwrap();
        assert_eq!(get_u64(&v, &["stats", "rows"]), 11);
        assert_eq!(get_u64(&v, &["stats", "connections"]), 1);
        assert!(get_u64(&v, &["stats", "requests"]) >= 5);
        assert_eq!(get_u64(&v, &["stats", "errors"]), 0);
        assert_eq!(get_u64(&v, &["stats", "ingest", "rows_ingested"]), 2);

        let v = request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        let stats = handle.join().unwrap();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn bad_requests_do_not_poison_the_connection() {
        let (addr, handle) = start(MineConfig::similarities(0.4).unwrap());
        let mut client = TcpStream::connect(addr).unwrap();

        let v = request(&mut client, "this is not json").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
        assert!(v.get("error").and_then(JsonValue::as_str).is_some());

        let v = request(&mut client, "{\"type\": \"rule\", \"lhs\": 0, \"rhs\": 99}").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));

        let v = request(&mut client, "{\"type\": \"ingest\", \"rows\": [[0], [99]]}").unwrap();
        assert_eq!(
            v.get("ok"),
            Some(&JsonValue::Bool(false)),
            "out-of-range ingest fails"
        );

        // The same connection still answers real queries afterwards.
        let v = request(&mut client, "{\"type\": \"rules_ge\", \"threshold\": 0.4}").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            v.get("algorithm").and_then(JsonValue::as_str),
            Some("similarity")
        );

        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.errors, 3);
        assert!(stats.requests >= 5);
    }

    #[test]
    fn deeply_nested_frames_are_refused_and_the_daemon_keeps_serving() {
        let (addr, handle) = start(MineConfig::implications(0.8).unwrap());
        let mut client = TcpStream::connect(addr).unwrap();

        // One megabyte of open brackets: recursing into it unchecked
        // would overflow the connection thread's stack and abort.
        let v = request(&mut client, &"[".repeat(1 << 20)).unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(false)));
        let error = v.get("error").and_then(JsonValue::as_str).unwrap();
        assert!(error.contains("nesting too deep"), "{error}");

        // The same connection still answers.
        let v = request(&mut client, "{\"type\": \"stats\"}").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(get_u64(&v, &["stats", "errors"]), 1);

        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn sequential_round_trips_do_not_wait_on_delayed_acks() {
        let (addr, handle) = start(MineConfig::implications(0.8).unwrap());
        // A plain client socket: Nagle stays on at this end, as it does
        // for any client that does not opt out.
        let mut client = TcpStream::connect(addr).unwrap();
        let start = Instant::now();
        for _ in 0..200 {
            let v = request(&mut client, "{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}").unwrap();
            assert_eq!(get_u64(&v, &["answer", "hits"]), 3);
        }
        let elapsed = start.elapsed();
        // A frame split over two writes stalls each round trip for a
        // delayed ACK (~40 ms or more; ~17 s for 200); whole-frame writes
        // take milliseconds in total.
        assert!(
            elapsed < Duration::from_secs(2),
            "200 round trips took {elapsed:?}"
        );
        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn compacted_engine_serves_base_and_expansion() {
        use dmc_core::{CompactionConfig, ImplicationConfig};
        // Reverse emission doubles fig2's 0.8-confidence rules, so the
        // base (reverses dropped, rebuilt on expansion) is a real subset.
        let config = || MineConfig::Implication(ImplicationConfig::new(0.8).with_reverse(true));
        let engine = Engine::new(config(), fig2()).with_compaction(CompactionConfig::default());
        let server = Server::bind(engine, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());
        let mut client = TcpStream::connect(addr).unwrap();

        // Offline reference: the same engine mined directly.
        let (full, base_len) = {
            let mut e = Engine::new(config(), fig2()).with_compaction(CompactionConfig::default());
            e.mine();
            (
                e.implication_rules().to_vec(),
                e.compacted_base().unwrap().rules_in_base(),
            )
        };
        assert!(base_len < full.len(), "fig2 at 0.8 must actually compact");

        // rules_ge answers from the base, each rule carrying its boost.
        let v = request(&mut client, "{\"type\": \"rules_ge\", \"threshold\": 0.8}").unwrap();
        assert_eq!(v.get("base"), Some(&JsonValue::Bool(true)));
        assert_eq!(get_u64(&v, &["total"]), base_len as u64);
        let rules = v.get("rules").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rules.len(), base_len);
        assert!(
            rules
                .iter()
                .all(|r| r.get("boost").and_then(JsonValue::as_f64).is_some()),
            "base rules carry a boost field"
        );

        // expand rebuilds the full implied rule set, in mined order.
        let v = request(&mut client, "{\"type\": \"expand\"}").unwrap();
        assert_eq!(get_u64(&v, &["total"]), full.len() as u64);
        let pairs: Vec<(u64, u64)> = v
            .get("rules")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|r| (get_u64(r, &["lhs"]), get_u64(r, &["rhs"])))
            .collect();
        let expected: Vec<(u64, u64)> = full
            .iter()
            .map(|r| (u64::from(r.lhs), u64::from(r.rhs)))
            .collect();
        assert_eq!(pairs, expected, "expansion equals the uncompacted set");

        // A raised threshold narrows the expansion; the limit caps the
        // listing but not the total.
        let v = request(
            &mut client,
            "{\"type\": \"expand\", \"threshold\": 1.0, \"limit\": 1}",
        )
        .unwrap();
        let total = get_u64(&v, &["total"]);
        assert!(total <= full.len() as u64);
        assert!(v.get("rules").and_then(JsonValue::as_array).unwrap().len() <= 1);

        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn expand_without_compaction_matches_rules_ge() {
        let (addr, handle) = start(MineConfig::similarities(0.4).unwrap());
        let mut client = TcpStream::connect(addr).unwrap();
        let ge = request(&mut client, "{\"type\": \"rules_ge\", \"threshold\": 0.4}").unwrap();
        let ex = request(&mut client, "{\"type\": \"expand\"}").unwrap();
        assert_eq!(
            get_u64(&ge, &["total"]),
            get_u64(&ex, &["total"]),
            "on-the-fly expansion reproduces the served rule set"
        );
        assert_eq!(ge.get("rules"), ex.get("rules"));
        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn metrics_request_reconciles_with_the_request_counter() {
        let (addr, handle) = start(MineConfig::implications(0.8).unwrap());
        let mut client = TcpStream::connect(addr).unwrap();
        for _ in 0..3 {
            request(&mut client, "{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}").unwrap();
        }
        request(&mut client, "this is not json").unwrap();

        // 3 rule + 1 error + this metrics request = 5 frames so far; the
        // snapshot in the response must already include all of them.
        let v = request(&mut client, "{\"type\": \"metrics\"}").unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        let m = v.get("metrics").expect("metrics payload");
        let hists = m.get("histograms").expect("histograms section");
        let request_count: u64 = hists
            .keys()
            .into_iter()
            .filter(|name| name.starts_with("serve.request."))
            .map(|name| get_u64(hists, &[name, "count"]))
            .sum();
        assert_eq!(request_count, 5, "every frame lands in one histogram");
        assert_eq!(get_u64(hists, &["serve.request.rule", "count"]), 3);
        assert_eq!(get_u64(hists, &["serve.request.error", "count"]), 1);
        assert_eq!(get_u64(hists, &["serve.request.metrics", "count"]), 1);
        let p50 = get_u64(hists, &["serve.request.rule", "p50_us"]);
        let p99 = get_u64(hists, &["serve.request.rule", "p99_us"]);
        let max = get_u64(hists, &["serve.request.rule", "max_us"]);
        assert!(p50 <= p99 && p99 <= max, "quantiles are monotone");
        let counters = m.get("counters").expect("counters section");
        assert!(get_u64(counters, &["serve.bytes_in"]) > 0);
        assert!(get_u64(counters, &["serve.bytes_out"]) > 0);

        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn concurrent_clients_each_get_exact_answers() {
        let (addr, handle) = start(MineConfig::implications(0.8).unwrap());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                thread::spawn(move || {
                    let mut client = TcpStream::connect(addr).unwrap();
                    for _ in 0..25 {
                        let v =
                            request(&mut client, "{\"type\": \"rule\", \"lhs\": 5, \"rhs\": 3}")
                                .unwrap();
                        assert_eq!(get_u64(&v, &["answer", "hits"]), 3);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let mut client = TcpStream::connect(addr).unwrap();
        request(&mut client, "{\"type\": \"shutdown\"}").unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.connections, 5);
        assert_eq!(stats.requests, 101);
        assert_eq!(stats.errors, 0);
    }
}
