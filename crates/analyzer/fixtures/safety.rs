// Safety-rule fixture. Seeds the three source-level rules: an
// unjustified unsafe block, a mutating Relaxed atomic op spanning
// multiple lines (the shape the old line scanner could not see), and
// an unregistered marker impl that also lacks a justification comment
// (so rules 1 and 3 both fire on it). Rule 4 reads manifests; its
// fixtures are in crates/xtask/fixtures/manifests/. One compliant
// site shows rule 1 accepts audited code. NOTE: the word the rule
// greps for is deliberately kept out of every comment in this file
// except the compliant one.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Racy(pub *mut u8);

unsafe impl Sync for Racy {} // seeded: not in the registry, no comment

pub fn publish(flag: &AtomicU64) {
    flag.store(
        1,
        Ordering::Relaxed, // seeded: relaxed mutation, multi-line call
    );
}

pub fn peek(p: *const u8) -> u8 {
    unsafe { *p } // seeded: no justification comment anywhere near
}

pub fn peek_audited(p: *const u8) -> u8 {
    // SAFETY: caller contract — p is valid for reads (fixture shows
    // the compliant shape; this site must not be reported).
    unsafe { *p }
}
