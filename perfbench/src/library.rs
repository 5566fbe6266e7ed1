//! The in-process phase: read the corpus file, mine it in memory and
//! streamed, compact the implication rules and expand them back.
//!
//! Every call goes through the library's public API with shipped
//! defaults (one worker, `SwitchPolicy::paper()`, minconf 0.9, minsim
//! 0.75); only the spill directory is pointed inside the run's work
//! directory.

use crate::check::Checks;
use crate::corpus::Workload;
use crate::trace::Recorder;
use dmc_core::{
    compact_implications, find_implications_parallel, write_rules, ImplicationRule, Miner,
    RunReport, SpillSettings,
};
use dmc_matrix::io::{read_matrix, RowLines};
use dmc_matrix::SparseMatrix;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

pub const MINCONF: f64 = 0.9;
pub const MINSIM: f64 = 0.75;
/// Reads of the corpus file whose median is `setup_s`.
const SETUPS: usize = 5;

/// What the library phase measured, one entry per timed call.
#[derive(Debug, Default)]
pub struct LibraryRun {
    pub read_s: Vec<f64>,
    pub imp_s: Vec<f64>,
    pub sim_s: Vec<f64>,
    pub stream_s: Vec<f64>,
    pub compact_s: f64,
    pub expand_s: f64,
    /// Two-worker implication mines (traced runs only).
    pub t2_s: Vec<f64>,
    pub imp_reports: Vec<RunReport>,
    pub sim_reports: Vec<RunReport>,
    pub stream_reports: Vec<RunReport>,
    pub t2_blocks_stolen: Vec<u64>,
    pub compact_rules_in: u64,
    pub compact_ratio: f64,
    /// The implication rules of the last in-memory mine.
    pub rules: Vec<ImplicationRule>,
}

/// A `Write` sink that keeps two independent FNV-1a hashes of what it is
/// given, so two rule files can be compared byte for byte without holding
/// either in memory.
#[derive(PartialEq, Eq)]
struct HashSink([u64; 2]);

impl std::io::Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let [a, b] = &mut self.0;
        for &byte in buf {
            *a = (*a ^ u64::from(byte)).wrapping_mul(PRIME);
            *b = (*b ^ u64::from(byte.rotate_left(3))).wrapping_mul(PRIME);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hashes of `rules` as `write_rules` writes them.
fn rules_hash(rules: &[ImplicationRule]) -> HashSink {
    let mut sink = HashSink([0xCBF2_9CE4_8422_2325, 0x8422_2325_CBF2_9CE4]);
    write_rules(rules, &[], &mut sink).expect("hashing cannot fail");
    sink
}

/// Reads the corpus file.
pub fn load(corpus: &Path) -> Result<SparseMatrix, String> {
    let file = File::open(corpus).map_err(|e| format!("opening {}: {e}", corpus.display()))?;
    read_matrix(file).map_err(|e| format!("reading {}: {e}", corpus.display()))
}

/// One timed read of the corpus file.
fn read_once(
    corpus: &Path,
    rec: &mut Recorder,
    checks: &mut Checks,
    run: &mut LibraryRun,
) -> Option<SparseMatrix> {
    let (read, secs) = rec.span("io.read_matrix", 0, |_| load(corpus));
    match read {
        Ok(m) => {
            checks.pass();
            run.read_s.push(secs);
            Some(m)
        }
        Err(e) => {
            checks.fail(format!("reading the corpus: {e}"));
            None
        }
    }
}

/// Reads the corpus `SETUPS` times; returns the matrix of the last read.
pub fn setup(
    corpus: &Path,
    rec: &mut Recorder,
    checks: &mut Checks,
    run: &mut LibraryRun,
) -> Option<SparseMatrix> {
    (0..SETUPS).fold(None, |last, _| read_once(corpus, rec, checks, run).or(last))
}

/// Mines `matrix` in rounds of (implications, similarities, streamed
/// implications, one more read of the corpus) until `budget` has passed,
/// at least one round. The first implication mine
/// of the process is a warm-up and is not timed.
#[allow(clippy::too_many_arguments)]
pub fn mine(
    workload: Workload,
    matrix: &SparseMatrix,
    corpus: &Path,
    spill_dir: &Path,
    budget: Duration,
    rec: &mut Recorder,
    checks: &mut Checks,
    run: &mut LibraryRun,
) {
    let reverse = workload.reverse();
    let imp = Miner::implications(MINCONF).reverse(reverse);
    let sim = Miner::similarities(MINSIM);
    let spill = SpillSettings {
        dir: Some(spill_dir.to_path_buf()),
        ..SpillSettings::default()
    };
    let streamed = imp.clone().spill(spill);

    let (warm, _) = rec.span("core.mine.warmup", 0, |_| imp.mine(matrix));
    checks.check(
        warm.is_ok_and(|o| o.report.reconciles()),
        "warm-up implication mine",
    );

    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed() < budget {
        first = false;
        let (out, secs) = rec.span("core.mine.imp", 0, |_| imp.mine(matrix));
        let Ok(out) = out else {
            checks.fail("in-memory implication mine failed");
            continue;
        };
        checks.check(out.report.reconciles(), "implication run report reconciles");
        run.imp_s.push(secs);

        let (sims, secs) = rec.span("core.mine.sim", 0, |_| sim.mine(matrix));
        match sims {
            Ok(s) => {
                checks.check(s.report.reconciles(), "similarity run report reconciles");
                run.sim_s.push(secs);
                run.sim_reports.push(s.report);
            }
            Err(e) => checks.fail(format!("similarity mine: {e}")),
        }

        let (st, secs) = rec.span("core.mine.imp_stream", 0, |_| {
            let file = File::open(corpus).map_err(|e| e.to_string())?;
            streamed
                .mine_streamed(RowLines::new(BufReader::new(file)), matrix.n_cols())
                .map_err(|e| e.to_string())
        });
        match st {
            Ok(st) => {
                checks.check(
                    st.report.reconciles(),
                    "streamed implication run report reconciles",
                );
                checks.check(
                    rules_hash(&st.rules) == rules_hash(&out.rules),
                    "streamed and in-memory implication rules are byte-identical",
                );
                run.stream_s.push(secs);
                run.stream_reports.push(st.report);
            }
            Err(e) => checks.fail(format!("streamed implication mine: {e}")),
        }

        if rec.on() {
            let config = imp.config().clone();
            let (t2, secs) = rec.span("core.fanout.imp_t2", 0, |_| {
                find_implications_parallel(matrix, &config, 2)
            });
            checks.check(
                t2.report.reconciles() && t2.rules == out.rules,
                "two-worker implication mine matches the sequential one",
            );
            run.t2_s.push(secs);
            run.t2_blocks_stolen
                .push(t2.report.workers.iter().map(|w| w.blocks_stolen).sum());
        }
        run.imp_reports.push(out.report);
        run.rules = out.rules;
        read_once(corpus, rec, checks, run);
    }
    checks.check(
        std::fs::read_dir(spill_dir).map_or(true, |mut d| d.next().is_none()),
        "streamed mines leave no spill files behind",
    );
}

/// Compacts the last mine's implication rules and expands the base back.
pub fn compact(workload: Workload, rec: &mut Recorder, checks: &mut Checks, run: &mut LibraryRun) {
    let reverse = Some(workload.reverse());
    let (base, secs) = rec.span("core.compact", 0, |_| {
        compact_implications(&run.rules, MINCONF, reverse)
    });
    run.compact_s = secs;
    checks.pass();
    run.compact_rules_in = base.rules_in() as u64;
    run.compact_ratio = base.ratio();
    let ((imps, sims), secs) = rec.span("core.compact.expand", 0, |_| base.expand());
    run.expand_s = secs;
    checks.check(
        sims.is_empty() && imps == run.rules,
        "expand(compact(rules)) reproduces the rules",
    );
}
