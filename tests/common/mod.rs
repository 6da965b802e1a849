//! Shared by the integration-test binaries (`mod common;`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory that belongs to one test: its name carries the
/// test's tag, the process id and a per-process counter, so tests
/// running on parallel threads (or in parallel test binaries) never
/// share a path, and it is removed when the guard drops — also when the
/// test panics.
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates `$TMPDIR/phylomic-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> TestDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
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

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
