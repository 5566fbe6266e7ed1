//! Operation accounting: every timed call is one attempted operation, and
//! a wrong output or an IO error marks it failed.

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation that succeeded.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: FAILED: {what}");
    }

    /// Counts one operation whose output check is `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.pass();
        } else {
            self.fail(what);
        }
    }
}
