//! The two workloads and the corpora they are generated from.
//!
//! Each corpus comes from `dmc-datagen` with the run's seed and is written
//! to a text file; the library phase and the daemon read only that file.

use dmc_datagen::{link_graph, weblog, LinkGraphConfig, WeblogConfig};
use dmc_matrix::io::write_matrix;
use dmc_matrix::SparseMatrix;

/// Link graphs side by side in the `link` corpus, and the pages of each.
const LINK_GRAPHS: usize = 4;
const LINK_PAGES: usize = 5_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's `Wlog` analogue: 80 000 clients × 16 000 URLs with 19
    /// crawler rows — the size at which the paper's 50 MB bitmap switch
    /// fires.
    Weblog,
    /// The paper's `plinkT` analogue: four 5 000-page link graphs,
    /// transposed, on disjoint column ranges (20 000 × 20 000), mined with
    /// reverse directions; its last eighth is ingested through the daemon.
    Link,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Weblog, Workload::Link];

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Weblog => "weblog",
            Workload::Link => "link",
        }
    }

    /// The corpus for `seed`.
    #[must_use]
    pub fn generate(self, seed: u64) -> SparseMatrix {
        match self {
            Workload::Weblog => {
                let mut config = WeblogConfig::new(80_000, 16_000, seed);
                config.crawlers = 19;
                weblog(&config)
            }
            Workload::Link => side_by_side(
                &(0..LINK_GRAPHS as u64)
                    .map(|i| {
                        let seed = seed.wrapping_mul(LINK_GRAPHS as u64).wrapping_add(i);
                        link_graph(&LinkGraphConfig::new(LINK_PAGES, seed)).transposed
                    })
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Whether implication mines also emit reverse directions.
    #[must_use]
    pub fn reverse(self) -> bool {
        self == Workload::Link
    }

    /// Library worker processes per run. A weblog round takes ~5 s, so
    /// it gets fewer workers, each running a few rounds.
    #[must_use]
    pub fn library_workers(self) -> usize {
        match self {
            Workload::Weblog => 2,
            Workload::Link => 8,
        }
    }

    /// Whether the run compacts its implication rules and expands them
    /// back. Only the link graph does: its rules compact ~5:1, while on
    /// weblog compaction keeps 90% of ~900k rules and takes 6–12 s.
    #[must_use]
    pub fn compacts(self) -> bool {
        self == Workload::Link
    }

    /// Rows held back from the daemon's start-up file and sent as
    /// `ingest` batches. Weblog holds none back: each of its crawler rows
    /// spans ~12 900 columns, and one ingest batch holding one takes
    /// ~45 s, so ingest there would not fit a run.
    #[must_use]
    pub fn held_back(self, rows: usize) -> usize {
        match self {
            Workload::Weblog => 0,
            Workload::Link => rows / 8,
        }
    }
}

/// The corpus file's bytes (text format with a `# cols` header).
#[must_use]
pub fn corpus_bytes(matrix: &SparseMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    write_matrix(matrix, &mut out).expect("writing to memory cannot fail");
    out
}

/// `blocks` on disjoint column ranges, one after another, with their rows
/// interleaved (for blocks of equal height, row `r` of block `b` becomes
/// row `r * blocks.len() + b`) so that every prefix of the rows, and the
/// held-back suffix, draws on every block.
#[must_use]
pub fn side_by_side(blocks: &[SparseMatrix]) -> SparseMatrix {
    let mut offsets = Vec::with_capacity(blocks.len());
    let mut n_cols = 0;
    for b in blocks {
        offsets.push(u32::try_from(n_cols).expect("column ids are u32"));
        n_cols += b.n_cols();
    }
    let n_rows = blocks.iter().map(SparseMatrix::n_rows).max().unwrap_or(0);
    let rows = (0..n_rows)
        .flat_map(|r| {
            blocks
                .iter()
                .zip(&offsets)
                .filter(move |(b, _)| r < b.n_rows())
                .map(move |(b, &off)| b.row(r).iter().map(|&c| c + off).collect())
        })
        .collect();
    SparseMatrix::from_rows(n_cols, rows)
}

/// The first `rows` rows of `matrix`, same column space.
#[must_use]
pub fn prefix(matrix: &SparseMatrix, rows: usize) -> SparseMatrix {
    SparseMatrix::from_rows(
        matrix.n_cols(),
        (0..rows).map(|r| matrix.row(r).to_vec()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_bytes() {
        for w in Workload::ALL {
            let a = corpus_bytes(&w.generate(5));
            let b = corpus_bytes(&w.generate(5));
            assert!(a == b, "{} corpus differs under one seed", w.name());
            let c = corpus_bytes(&w.generate(6));
            assert!(a != c, "{} corpus ignores its seed", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn side_by_side_offsets_columns_and_interleaves_rows() {
        let a = SparseMatrix::from_rows(2, vec![vec![0, 1], vec![1]]);
        let b = SparseMatrix::from_rows(3, vec![vec![2]]);
        let m = side_by_side(&[a, b]);
        assert_eq!(m.n_cols(), 5);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(1), &[4]);
        assert_eq!(m.row(2), &[1]);
    }

    #[test]
    fn prefix_keeps_rows_and_columns() {
        let m = SparseMatrix::from_rows(4, vec![vec![0, 1], vec![2], vec![3]]);
        let p = prefix(&m, 2);
        assert_eq!(p.n_rows(), 2);
        assert_eq!(p.n_cols(), 4);
        assert_eq!(p.row(1), &[2]);
    }
}
