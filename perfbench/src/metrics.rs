//! The reported metrics: their names and units, how each is computed from
//! what the phases measured, and the result line that carries them.

use crate::daemon::DaemonRun;
use crate::library::LibraryRun;
use crate::stats::{median, supported_percentile};
use dmc_core::RunReport;
use dmc_metrics::json::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs, in order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("imp_s", "s"),
    ("sim_s", "s"),
    ("imp_stream_s", "s"),
    ("rule_p50_ms", "ms"),
    ("rule_p95_ms", "ms"),
];

/// Per-layer metrics, printed by traced runs, in order. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("io.read_s", "s"),
    ("hundred.imp_s", "s"),
    ("hundred.sim_s", "s"),
    ("hundred.rules_kept", "count"),
    ("base.imp_s", "s"),
    ("base.sim_s", "s"),
    ("base.candidates_admitted", "count"),
    ("base.misses_counted", "count"),
    ("base.yield", "ratio"),
    ("base.peak_counter_mb", "MiB"),
    ("bitmap.imp_s", "s"),
    ("bitmap.switch_row", "row"),
    ("stream.prescan_s", "s"),
    ("stream.replay_s", "s"),
    ("stream.spill_mb", "MiB"),
    ("stream.frames_read", "count"),
    ("fanout.imp_t2_s", "s"),
    ("fanout.speedup", "ratio"),
    ("fanout.blocks_stolen", "count"),
    ("compact.s", "s"),
    ("compact.expand_s", "s"),
    ("compact.rules_in", "count"),
    ("compact.ratio", "ratio"),
    ("engine.ingest_rows_per_s", "rows/s"),
    ("engine.ingest_p50_ms", "ms"),
    ("engine.ingest_handler_ms", "ms"),
    ("engine.pairs_recounted", "count"),
    ("engine.rules_born", "count"),
    ("engine.recount_yield", "ratio"),
    ("engine.rule_handler_us", "us"),
    ("server.start_s", "s"),
    ("server.peak_rss_mb", "MiB"),
    ("server.rules_ge_handler_ms", "ms"),
    ("protocol.rule_wait_ms", "ms"),
    ("protocol.rules_ge_p50_ms", "ms"),
    ("protocol.rules_ge_reply_kb", "KiB"),
    ("json.decode_ms", "ms"),
];

/// Metric values by name, several per name when several worker processes
/// measured the same thing; a metric reads the mean of its values.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, Vec<f64>>);

impl Values {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// The mean of `name`'s values; 0 when nothing measured it.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        mean(self.0.get(name).map_or(&[], Vec::as_slice))
    }

    /// Adds every metric of a result line printed by [`result_line`].
    pub fn absorb_line(&mut self, line: &str) -> Option<(u64, u64)> {
        let doc = JsonValue::parse(line).ok()?;
        let JsonValue::Obj(metrics) = doc.get("metrics")? else {
            return None;
        };
        for (name, m) in metrics {
            self.put(name, m.get("value")?.as_f64()?);
        }
        Some((
            doc.get("attempted")?.as_u64()?,
            doc.get("failed")?.as_u64()?,
        ))
    }

    /// `(name, value, unit)` for each metric of `table`, in table order.
    #[must_use]
    pub fn table(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }

    /// Every value recorded, in name order, for a worker's result line.
    #[must_use]
    pub fn all(&self) -> Vec<(&str, f64, &'static str)> {
        self.0
            .keys()
            .map(|k| (k.as_str(), self.get(k), ""))
            .collect()
    }
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// The mean of `xs`; 0 when empty.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of one phase timer over a set of run reports.
fn phase_median(reports: &[RunReport], phase: &str) -> f64 {
    med(&reports
        .iter()
        .map(|r| r.phase_seconds(phase))
        .collect::<Vec<_>>())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one library worker process measured.
pub fn library(lib: &LibraryRun, peak_rss_mib: f64, v: &mut Values) {
    let (imp, sim, st) = (&lib.imp_reports, &lib.sim_reports, &lib.stream_reports);
    let last = |rs: &[RunReport]| rs.last().cloned().unwrap_or_default();
    let (imp_last, sim_last, st_last) = (last(imp), last(sim), last(st));
    let sub = |r: &RunReport| r.sub.map(|s| s.tally).unwrap_or_default();
    let (imp_sub, sim_sub) = (sub(&imp_last), sub(&sim_last));
    let admitted = (imp_sub.candidates_admitted + sim_sub.candidates_admitted) as f64;
    let emitted = (imp_sub.rules_emitted + sim_sub.rules_emitted) as f64;

    v.put("setup_s", med(&lib.read_s));
    v.put("peak_rss_mb", peak_rss_mib);
    // Mine times are means over the worker's timed calls, not medians:
    // the host switches a process between speeds ~1.4× apart every few
    // seconds, and a median lands on one speed or the other while a mean
    // follows the share of time spent at each (see the README).
    v.put("imp_s", mean(&lib.imp_s));
    v.put("sim_s", mean(&lib.sim_s));
    v.put("imp_stream_s", mean(&lib.stream_s));

    v.put("io.read_s", med(&lib.read_s));
    v.put("hundred.imp_s", phase_median(imp, "100% rules"));
    v.put("hundred.sim_s", phase_median(sim, "100% rules"));
    v.put(
        "hundred.rules_kept",
        imp_last.hundred.map_or(0, |h| h.rules_kept) as f64,
    );
    v.put("base.imp_s", phase_median(imp, "<100% rules"));
    v.put("base.sim_s", phase_median(sim, "<100% rules"));
    v.put("base.candidates_admitted", admitted);
    v.put(
        "base.misses_counted",
        (imp_sub.misses_counted + sim_sub.misses_counted) as f64,
    );
    v.put("base.yield", ratio(emitted, admitted));
    v.put(
        "base.peak_counter_mb",
        imp_last.peak_counter_bytes.max(sim_last.peak_counter_bytes) as f64 / 1_048_576.0,
    );
    v.put("bitmap.imp_s", phase_median(imp, "bitmap tail"));
    v.put(
        "bitmap.switch_row",
        imp_last.bitmap_switch_at.unwrap_or(0) as f64,
    );
    v.put("stream.prescan_s", phase_median(st, "pre-scan"));
    v.put(
        "stream.replay_s",
        phase_median(st, "100% rules") + phase_median(st, "<100% rules"),
    );
    v.put("stream.spill_mb", st_last.spill_bytes as f64 / 1_048_576.0);
    v.put(
        "stream.frames_read",
        st_last.io.map_or(0, |io| io.frames_read) as f64,
    );
    if !lib.t2_s.is_empty() {
        v.put("fanout.imp_t2_s", med(&lib.t2_s));
        v.put("fanout.speedup", ratio(med(&lib.imp_s), med(&lib.t2_s)));
        v.put(
            "fanout.blocks_stolen",
            lib.t2_blocks_stolen.last().copied().unwrap_or(0) as f64,
        );
    }
    if lib.compact_rules_in > 0 {
        v.put("compact.s", lib.compact_s);
        v.put("compact.expand_s", lib.expand_s);
        v.put("compact.rules_in", lib.compact_rules_in as f64);
        v.put("compact.ratio", lib.compact_ratio);
    }
}

/// What the daemon phase measured: each client worker's medians, and
/// `rule_p95_ms` over all their samples when that leaves ten beyond it.
pub fn daemon(d: &DaemonRun, v: &mut Values) -> bool {
    for &p50 in &d.rule_p50s {
        v.put("rule_p50_ms", p50);
    }
    for &p50 in &d.rules_ge_p50s {
        v.put("protocol.rules_ge_p50_ms", p50);
    }
    let rule_p95 = supported_percentile(&d.rule_ms, 95.0, 10);
    if let Some(p95) = rule_p95 {
        v.put("rule_p95_ms", p95);
    }
    let rule_p50 = v.get("rule_p50_ms");

    v.put(
        "engine.ingest_rows_per_s",
        ratio(d.ingest_rows as f64, d.ingest_wall_s),
    );
    v.put("engine.ingest_p50_ms", med(&d.ingest_ms));
    v.put("engine.ingest_handler_ms", d.handler("ingest"));
    v.put("engine.pairs_recounted", d.pairs_recounted as f64);
    v.put("engine.rules_born", d.rules_born as f64);
    v.put(
        "engine.recount_yield",
        ratio(d.rules_born as f64, d.pairs_recounted as f64),
    );
    v.put("engine.rule_handler_us", d.handler("rule") * 1e3);
    v.put("server.start_s", d.start_s);
    v.put("server.peak_rss_mb", d.rss_mib);
    v.put("server.rules_ge_handler_ms", d.handler("rules_ge"));
    v.put("protocol.rule_wait_ms", rule_p50 - d.handler("rule"));
    if !d.rules_ge_kib.is_empty() {
        v.put("protocol.rules_ge_reply_kb", med(&d.rules_ge_kib));
        v.put("json.decode_ms", med(&d.decode_ms));
    }
    rule_p95.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_average_and_default_to_zero() {
        let mut v = Values::default();
        v.put("imp_s", 1.0);
        v.put("imp_s", 2.0);
        assert_eq!(v.get("imp_s"), 1.5);
        assert_eq!(v.get("compact.s"), 0.0);
    }

    #[test]
    fn result_lines_round_trip() {
        let line = result_line(7, 1, &[("imp_s", 0.25, "s"), ("setup_s", 1.5, "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 7, \"failed\": 1,"));
        let mut v = Values::default();
        assert_eq!(v.absorb_line(&line), Some((7, 1)));
        assert_eq!(v.get("setup_s"), 1.5);
    }

    #[test]
    fn tables_name_each_metric_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
