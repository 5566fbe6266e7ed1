//! `perfbench`: end-to-end and per-layer benchmark of the DMC workspace
//! on paper-shaped data. See `perfbench/README.md` for the workloads,
//! the metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload weblog|link --seed N --seconds S --trace 0|1
//!           --dmc PATH --out DIR
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). The process exits 1 when any output check failed.
//!
//! A run generates the corpus, runs the library phase in worker
//! processes one after another (this binary again, with `--worker
//! library`), starts the daemon and ingests into it, then runs the read
//! phase in client worker processes one after another (`--worker
//! client`). On a shared host a process can keep one speed for a while,
//! and that speed differs between processes by up to a third; averaging
//! over several workers keeps one slow process from moving a run's
//! figures.

mod check;
mod corpus;
mod daemon;
mod library;
mod metrics;
mod procfs;
mod stats;
mod trace;

use check::Checks;
use corpus::Workload;
use dmc_core::Miner;
use dmc_metrics::json::JsonValue;
use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Recorder;

/// Environment variables that change how the library runs. Cleared at
/// start, so the worker processes and the daemon inherit them cleared.
const PINNED_ENV: [&str; 3] = [
    "DMC_TELEMETRY_SPANS",
    "DMC_BLOCK_ROWS",
    "DMC_SCHED_OVERSUBSCRIBE",
];
/// Shares of `--seconds` given to the library and daemon phases. The
/// read phase's round trips wait out delayed ACKs and vary little, so
/// the mines get most of the run.
const MINE_SHARE: f64 = 0.75;
const READ_SHARE: f64 = 0.25;
/// Client worker processes per run, run one after another.
const READ_WORKERS: usize = 4;
/// `rule_p95_ms` needs ten samples beyond it: 200 over all workers.
const MIN_RULE_SAMPLES: u64 = 200;
const MIN_RULES_GE_SAMPLES: u64 = 12;
/// Query pairs drawn per run; client workers start at different offsets.
const QUERY_PAIRS: usize = 20_000;

/// `--flag value` pairs.
fn parse_flags() -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("--{name} is required"))
}

fn parse<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    let v = flag(flags, name)?;
    v.parse().map_err(|_| format!("bad --{name} {v}"))
}

fn trace_flag(flags: &HashMap<String, String>) -> Result<bool, String> {
    match flags.get("trace").map(String::as_str) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("--trace takes 0 or 1, not {v}")),
    }
}

fn workload_flag(flags: &HashMap<String, String>) -> Result<Workload, String> {
    let name = flag(flags, "workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dmc: PathBuf,
    out: PathBuf,
}

impl Args {
    fn from(flags: &HashMap<String, String>) -> Result<Self, String> {
        let seconds: f64 = parse(flags, "seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("bad --seconds {seconds}"));
        }
        Ok(Self {
            workload: workload_flag(flags)?,
            seed: parse(flags, "seed")?,
            seconds,
            trace: trace_flag(flags)?,
            dmc: PathBuf::from(flag(flags, "dmc")?),
            out: PathBuf::from(flag(flags, "out")?),
        })
    }
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn exit_code(checks: &Checks) -> ExitCode {
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let outcome = parse_flags().and_then(|flags| match flags.get("worker").map(String::as_str) {
        Some("library") => library_worker(&flags),
        Some("client") => client_worker(&flags),
        Some(other) => Err(format!("unknown worker {other}")),
        None => Args::from(&flags).map(|args| bench(&args)),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// Worker mode: read and mine the corpus, print a result line with the
/// library metrics, and with `--spans FILE` write the spans there.
fn library_worker(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let workload = workload_flag(flags)?;
    let corpus = PathBuf::from(flag(flags, "corpus")?);
    let spill = PathBuf::from(flag(flags, "spill")?);
    let budget = Duration::from_secs_f64(parse(flags, "budget")?);
    let compact = flag(flags, "compact")? == "1";

    let mut rec = Recorder::new(trace_flag(flags)?, Instant::now());
    let mut checks = Checks::default();
    let mut lib = library::LibraryRun::default();
    let mut values = Values::default();
    if let Some(matrix) = library::setup(&corpus, &mut rec, &mut checks, &mut lib) {
        library::mine(
            workload,
            &matrix,
            &corpus,
            &spill,
            budget,
            &mut rec,
            &mut checks,
            &mut lib,
        );
        if compact {
            library::compact(workload, &mut rec, &mut checks, &mut lib);
        }
        eprintln!(
            "perfbench: library worker timed {} implication, {} similarity and {} streamed mines",
            lib.imp_s.len(),
            lib.sim_s.len(),
            lib.stream_s.len()
        );
        let rss = procfs::peak_rss_mib("self").unwrap_or(0.0);
        checks.check(rss > 0.0, "reading the peak RSS");
        metrics::library(&lib, rss, &mut values);
    }
    if let Some(path) = flags.get("spans") {
        if let Err(e) = std::fs::write(path, trace::spans_json(&[], rec.spans())) {
            checks.fail(format!("writing spans to {path}: {e}"));
        }
    }
    println!(
        "{}",
        result_line(checks.attempted, checks.failed, &values.all())
    );
    Ok(exit_code(&checks))
}

/// Client worker mode: the read phase against a running daemon, checked
/// against a library engine on the corpus. Prints one JSON line with the
/// counts and the round-trip samples.
fn client_worker(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let corpus = PathBuf::from(flag(flags, "corpus")?);
    let pairs: Vec<(u32, u32)> = std::fs::read_to_string(flag(flags, "pairs")?)
        .map_err(|e| format!("reading the query pairs: {e}"))?
        .lines()
        .filter_map(|l| {
            let (a, b) = l.split_once(' ')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect();
    if pairs.is_empty() {
        return Err("no query pairs".into());
    }
    let spec = daemon::ReadSpec {
        addr: flag(flags, "addr")?,
        pairs: &pairs,
        offset: parse(flags, "offset")?,
        budget: Duration::from_secs_f64(parse(flags, "budget")?),
        min_rule: parse(flags, "min-rule")?,
        min_rules_ge: parse(flags, "min-rules-ge")?,
        expect_at_95: parse(flags, "expect-at-95")?,
    };
    let mut rec = Recorder::new(trace_flag(flags)?, Instant::now());
    let mut checks = Checks::default();
    let engine = dmc_core::Engine::new(
        dmc_core::MineConfig::implications(library::MINCONF).expect("minconf is in range"),
        library::load(&corpus)?,
    );
    let reads = daemon::read_phase(&spec, &engine, &mut rec, &mut checks);
    if let Some(path) = flags.get("spans") {
        if let Err(e) = std::fs::write(path, trace::spans_json(&[], rec.spans())) {
            checks.fail(format!("writing spans to {path}: {e}"));
        }
    }
    let list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"rule_ms\": {}, \"rules_ge_ms\": {}, \"rules_ge_kib\": {}, \"decode_ms\": {}}}",
        checks.attempted,
        checks.failed,
        list(&reads.rule_ms),
        list(&reads.rules_ge_ms),
        list(&reads.rules_ge_kib),
        list(&reads.decode_ms)
    );
    Ok(exit_code(&checks))
}

fn bench(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let revision = git_revision();
    let work = args.out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(work.join("spill")) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut rec = Recorder::new(args.trace, Instant::now());
    let mut checks = Checks::default();
    let values = run(args, &work, &mut rec, &mut checks);
    let _ = std::fs::remove_dir_all(&work);
    let Some(values) = values else {
        return ExitCode::from(1);
    };

    let name = args.workload.name();
    let e2e = values.table(&END_TO_END);
    let saved = args.out.join(format!("{name}-untraced.json"));
    if args.trace {
        print_overhead(&saved, &e2e, args.seed);
        print_self_times(&rec);
        let header = [
            ("workload", name.to_string()),
            ("seed", args.seed.to_string()),
            ("nproc", nproc.to_string()),
            ("revision", revision.clone()),
        ];
        let path = args
            .out
            .join(format!("trace-{name}-seed{}.json", args.seed));
        match std::fs::write(&path, trace::spans_json(&header, rec.spans())) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        let line = result_line(checks.attempted, checks.failed, &e2e);
        let record = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"nproc\": {nproc}, \"revision\": \"{revision}\", \"result\": {line}}}",
            args.seed
        );
        if let Err(e) = std::fs::write(&saved, record) {
            eprintln!("perfbench: could not save {}: {e}", saved.display());
        }
    }
    let reported = if args.trace {
        values.table(&PER_LAYER)
    } else {
        e2e
    };
    checks.check(
        reported.iter().all(|m| m.1.is_finite()),
        "every reported metric is a finite number",
    );
    println!(
        "perfbench workload={name} seed={} seconds={} trace={} nproc={nproc} revision={revision}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{}",
        result_line(checks.attempted, checks.failed, &reported)
    );
    exit_code(&checks)
}

/// Runs this binary as a worker with `worker_args`, and returns the last
/// line it printed; with tracing, folds in the spans it wrote.
fn run_worker(
    name: &'static str,
    worker_args: &[String],
    spans: &Path,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Option<String> {
    let mut cmd = Command::new(std::env::current_exe().expect("the running binary has a path"));
    cmd.args(worker_args)
        .args(["--trace", if rec.on() { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if rec.on() {
        cmd.arg("--spans").arg(spans);
    }
    let started = Instant::now();
    let (output, _) = rec.span(name, 0, |rec| {
        let output = cmd.output();
        if rec.on() {
            match std::fs::read_to_string(spans)
                .ok()
                .and_then(|t| trace::spans_from_json(&t))
            {
                Some(s) => {
                    let offset = rec.offset_of(started);
                    rec.absorb(s, offset);
                }
                None => checks.fail(format!("{name} wrote no spans")),
            }
        }
        output
    });
    output.ok().and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .map(str::to_string)
    })
}

/// Adds a worker's `attempted` and `failed` counts to `checks`.
fn add_counts(name: &str, counts: Option<(u64, u64)>, checks: &mut Checks) {
    match counts {
        Some((attempted, failed)) => {
            checks.attempted += attempted;
            checks.failed += failed;
            if failed > 0 {
                eprintln!("perfbench: FAILED: {name} failed {failed} checks");
            }
        }
        None => checks.fail(format!("{name} gave no result")),
    }
}

fn strings(args: &[&dyn std::fmt::Display]) -> Vec<String> {
    args.iter().map(ToString::to_string).collect()
}

/// Runs the workload; `None` when it could not produce a result at all.
fn run(args: &Args, work: &Path, rec: &mut Recorder, checks: &mut Checks) -> Option<Values> {
    let w = args.workload;
    let full = w.generate(args.seed);
    let held = w.held_back(full.n_rows());
    let corpus = work.join("corpus.txt");
    let start_file = work.join("start.txt");
    let written = std::fs::write(&corpus, corpus::corpus_bytes(&full)).and_then(|()| {
        std::fs::write(
            &start_file,
            corpus::corpus_bytes(&corpus::prefix(&full, full.n_rows() - held)),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: writing the corpus: {e}");
        return None;
    }
    drop(full);

    let mut values = Values::default();
    let workers = w.library_workers();
    let budget = args.seconds * MINE_SHARE / workers as f64;
    for i in 0..workers {
        let compact = i == 0 && w.compacts();
        let worker_args = strings(&[
            &"--worker",
            &"library",
            &"--workload",
            &w.name(),
            &"--corpus",
            &corpus.display(),
            &"--spill",
            &work.join("spill").display(),
            &"--budget",
            &budget,
            &"--compact",
            &u8::from(compact),
        ]);
        let spans = work.join(format!("spans-library-{i}.json"));
        let line = run_worker("bench.library_worker", &worker_args, &spans, rec, checks);
        let counts = line.and_then(|l| values.absorb_line(&l));
        add_counts("a library worker", counts, checks);
    }

    // The daemon's answers are checked against this process's own read
    // and mine of the corpus.
    let matrix = match rec.span("io.read_matrix", 0, |_| library::load(&corpus)).0 {
        Ok(m) => m,
        Err(e) => {
            checks.fail(e);
            return None;
        }
    };
    let (reference, _) = rec.span("core.mine.reference", 0, |_| {
        Miner::implications(library::MINCONF).mine(&matrix)
    });
    let reference = reference.expect("in-memory mines are infallible").rules;
    let mut d = daemon::DaemonRun::default();
    let served = daemon::start(&args.dmc, &start_file, work, rec, checks, &mut d)?;
    daemon::ingest(&served, &matrix, held, rec, checks, &mut d);

    let n_cols = u32::try_from(matrix.n_cols()).expect("column ids are u32");
    let pairs = daemon::query_pairs(args.seed, &reference, n_cols, QUERY_PAIRS);
    let pairs_file = work.join("pairs.txt");
    let text: String = pairs.iter().map(|(a, b)| format!("{a} {b}\n")).collect();
    if let Err(e) = std::fs::write(&pairs_file, text) {
        checks.fail(format!("writing the query pairs: {e}"));
    }
    let at_95 = reference
        .iter()
        .filter(|r| {
            dmc_core::threshold::conf_qualifies(
                u64::from(r.hits),
                u64::from(r.lhs_ones),
                daemon::RULES_GE_THRESHOLD,
            )
        })
        .count();
    let budget = args.seconds * READ_SHARE / READ_WORKERS as f64;
    for i in 0..READ_WORKERS {
        let worker_args = strings(&[
            &"--worker",
            &"client",
            &"--addr",
            &served.addr,
            &"--corpus",
            &corpus.display(),
            &"--pairs",
            &pairs_file.display(),
            &"--offset",
            &(i * QUERY_PAIRS / READ_WORKERS),
            &"--budget",
            &budget,
            &"--min-rule",
            &MIN_RULE_SAMPLES.div_ceil(READ_WORKERS as u64),
            &"--min-rules-ge",
            &MIN_RULES_GE_SAMPLES.div_ceil(READ_WORKERS as u64),
            &"--expect-at-95",
            &at_95,
        ]);
        let spans = work.join(format!("spans-client-{i}.json"));
        let line = run_worker("bench.client_worker", &worker_args, &spans, rec, checks);
        let doc = line.and_then(|l| JsonValue::parse(&l).ok());
        let samples = |k: &str| -> Vec<f64> {
            doc.as_ref()
                .and_then(|d| d.get(k))
                .and_then(JsonValue::as_array)
                .map_or_else(Vec::new, |a| {
                    a.iter().filter_map(JsonValue::as_f64).collect()
                })
        };
        let (rule_ms, rules_ge_ms) = (samples("rule_ms"), samples("rules_ge_ms"));
        d.rule_p50s.extend(stats::median(&rule_ms));
        d.rules_ge_p50s.extend(stats::median(&rules_ge_ms));
        d.rules_ge_count += rules_ge_ms.len();
        d.rule_ms.extend(rule_ms);
        d.rules_ge_kib.extend(samples("rules_ge_kib"));
        d.decode_ms.extend(samples("decode_ms"));
        let counts = doc
            .as_ref()
            .and_then(|d| Some((d.get("attempted")?.as_u64()?, d.get("failed")?.as_u64()?)));
        add_counts("a client worker", counts, checks);
    }
    daemon::finish(served, &reference, rec, checks, &mut d);

    let supported = stats::highest_supported(d.rule_ms.len(), &[50.0, 90.0, 95.0, 99.0, 99.9], 10);
    eprintln!(
        "perfbench: {} rule and {} rules_ge round trips; highest rule percentile with ten samples beyond it: p{}",
        d.rule_ms.len(),
        d.rules_ge_count,
        supported.map_or("-".to_string(), |p| p.to_string())
    );
    let p95 = metrics::daemon(&d, &mut values);
    checks.check(p95, "rule_p95_ms has at least ten samples beyond it");
    Some(values)
}

/// Prints, per end-to-end metric, traced minus untraced, against the
/// last untraced run of this workload saved under the output directory.
fn print_overhead(saved: &Path, traced: &[(&str, f64, &str)], seed: u64) {
    let Some(untraced) = std::fs::read_to_string(saved)
        .ok()
        .and_then(|t| JsonValue::parse(&t).ok())
    else {
        eprintln!(
            "perfbench: no untraced result at {} to compare with",
            saved.display()
        );
        return;
    };
    let useed = untraced
        .get("seed")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    eprintln!("perfbench: tracing overhead (traced seed {seed} − untraced seed {useed}):");
    for (name, value, unit) in traced {
        let Some(u) = untraced
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|ms| ms.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
        else {
            continue;
        };
        let pct = if u == 0.0 {
            0.0
        } else {
            (value - u) / u * 100.0
        };
        eprintln!(
            "  {name:<16} {value:>12.4} − {u:>12.4} = {:>+10.4} {unit} ({pct:+.1}%)",
            value - u
        );
    }
}

fn print_self_times(rec: &Recorder) {
    eprintln!(
        "perfbench: self time by span ({} spans):",
        rec.spans().len()
    );
    for (span, count, total, own) in trace::self_time_by_name(rec.spans()) {
        eprintln!("  {span:<26} {count:>6}× total {total:>9.4} s self {own:>9.4} s");
    }
}
