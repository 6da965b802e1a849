//! Scratch directories for this crate's unit tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory that belongs to one test: its name carries the
/// test's tag, the process id and a per-process counter, so tests
/// running on parallel threads never share a path, and it is removed
/// when the guard drops — also when the test panics. (The twin of
/// `tests/common/mod.rs`, which unit tests cannot reach.)
pub(crate) struct TestDir(PathBuf);

impl TestDir {
    /// Creates `$TMPDIR/phylomic-<tag>-<pid>-<n>`.
    pub(crate) fn new(tag: &str) -> TestDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("phylomic-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
