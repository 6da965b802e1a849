//! Lint fixture: deliberately violates every file-level rule. Never
//! compiled — `fixtures/` is skipped by the workspace walk and linted
//! explicitly by tests/lint_workspace.rs, which pins the line numbers.
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Racy(std::cell::UnsafeCell<u64>);

unsafe impl Sync for Racy {}

pub fn publish(flag: &AtomicBool) {
    flag.store(true, Ordering::Relaxed);
}

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
