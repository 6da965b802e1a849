//! 64-byte aligned `f64` buffers.
//!
//! §V-B2 of the paper: "Vectorized instructions can only operate on
//! memory addresses which are aligned to 64-byte boundaries." Rust's
//! `Vec<f64>` only guarantees 8-byte alignment, so CLAs and summation
//! buffers use this type instead. Alignment also matters on the host:
//! AVX loads are fastest when they never straddle a cache line.

use std::ops::{Deref, DerefMut};

/// Cache-line alignment in bytes (one MIC/AVX-512 vector register).
pub const ALIGNMENT: usize = 64;

/// Doubles per [`ALIGNMENT`] bytes.
const LINE: usize = ALIGNMENT / std::mem::size_of::<f64>();

/// One cache line of doubles. Its alignment is what makes every
/// `Vec<Line>` 64-byte aligned; `repr(C)` and a size equal to the
/// alignment make a slice of lines a gapless run of doubles.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f64; LINE]);

/// A heap buffer of `f64` whose base address is 64-byte aligned.
///
/// The length is fixed at construction (CLAs never grow); contents are
/// zero-initialized. Dereferences to `[f64]`.
///
/// The allocation is a `Vec` of whole cache lines, which owns it, frees
/// it and makes the type `Send + Sync`; the buffer is its first `len`
/// doubles (`len ≤ LINE · lines.len()` by construction).
#[derive(Clone)]
pub struct AlignedVec {
    lines: Vec<Line>,
    len: usize,
}

impl AlignedVec {
    /// Allocates a zeroed, 64-byte aligned buffer of `len` doubles.
    ///
    /// A `len` of zero is allowed and performs no allocation.
    pub fn zeroed(len: usize) -> Self {
        // The multiply must be checked: in release builds a wrapping
        // `len * 8` would silently produce a tiny buffer.
        let bytes = len
            .checked_mul(std::mem::size_of::<f64>())
            .filter(|&b| b <= isize::MAX as usize - ALIGNMENT)
            .expect("allocation size overflow");
        AlignedVec {
            lines: vec![Line([0.0; LINE]); bytes.div_ceil(ALIGNMENT)],
            len,
        }
    }

    /// Number of doubles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw base address (for alignment assertions in tests).
    pub fn as_ptr(&self) -> *const f64 {
        self.lines.as_ptr().cast()
    }

    /// Overwrites every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.as_mut().fill(value);
    }
}

/// Debug-asserts the SIMD-kernel buffer contract (§V-B2, documented in
/// [`crate::layout`]): `buf` holds exactly `sites` whole
/// [`crate::SITE_STRIDE`]-double blocks and its base address is 64-byte
/// aligned — both guaranteed by [`AlignedVec`] for engine-owned CLAs
/// and sumtables. The explicit-SIMD backend calls this at every kernel
/// entry so a mis-padded or under-aligned buffer fails loudly in debug
/// builds instead of silently degrading (unaligned loads) or faulting a
/// streaming store.
#[inline]
pub fn debug_assert_site_buffer(buf: &[f64], sites: usize, what: &str) {
    debug_assert_eq!(
        buf.len(),
        sites * crate::SITE_STRIDE,
        "{what}: buffer not padded to whole SITE_STRIDE blocks"
    );
    // Empty buffers may be dangling (AlignedVec allocates nothing for
    // len 0); no site is ever loaded from them, so alignment is moot.
    debug_assert!(
        buf.is_empty() || (buf.as_ptr() as usize).is_multiple_of(ALIGNMENT),
        "{what}: buffer base not 64-byte aligned"
    );
}

impl Deref for AlignedVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        // SAFETY: `lines` is `lines.len() · LINE` initialized doubles
        // without gaps (`Line` is `repr(C)`, its size its alignment),
        // and `len` does not exceed that count.
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as above, and `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast(), self.len) }
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_address_is_64_byte_aligned() {
        for len in [1usize, 7, 16, 1000, 4096] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.as_ptr() as usize % ALIGNMENT, 0, "len={len}");
        }
    }

    #[test]
    fn zero_initialized() {
        let v = AlignedVec::zeroed(123);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.len(), 123);
    }

    #[test]
    fn empty_buffer() {
        let v = AlignedVec::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(&v[..], &[] as &[f64]);
        assert!(v.clone().is_empty());
    }

    #[test]
    #[should_panic(expected = "allocation size overflow")]
    fn oversized_request_panics_before_allocating() {
        // len * 8 overflows usize: the checked multiply must panic
        // rather than wrap to a tiny allocation.
        let _ = AlignedVec::zeroed(usize::MAX / 2);
    }

    #[test]
    fn mutation_and_clone() {
        let mut v = AlignedVec::zeroed(16);
        for (i, x) in v.iter_mut().enumerate() {
            *x = i as f64;
        }
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w[15], 15.0);
        assert_eq!(w.as_ptr() as usize % ALIGNMENT, 0);
    }

    #[test]
    fn fill_overwrites() {
        let mut v = AlignedVec::zeroed(8);
        v.fill(2.5);
        assert!(v.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn kernel_buffer_contract_accepts_aligned_whole_site_buffers() {
        for sites in [0usize, 1, 7, 31] {
            let v = AlignedVec::zeroed(sites * crate::SITE_STRIDE);
            debug_assert_site_buffer(&v, sites, "test");
        }
    }

    #[test]
    #[should_panic(expected = "whole SITE_STRIDE blocks")]
    fn kernel_buffer_contract_rejects_partial_site_padding() {
        let v = AlignedVec::zeroed(crate::SITE_STRIDE - 1);
        debug_assert_site_buffer(&v, 1, "test");
        // Release builds compile the check out; fail the same way so
        // the should_panic expectation holds in every profile.
        #[cfg(not(debug_assertions))]
        panic!("whole SITE_STRIDE blocks");
    }

    #[test]
    #[should_panic(expected = "not 64-byte aligned")]
    fn kernel_buffer_contract_rejects_misaligned_base() {
        // Offset by 4 doubles = 32 bytes: still a whole-site length,
        // but the base is only 32-byte aligned.
        let v = AlignedVec::zeroed(3 * crate::SITE_STRIDE);
        debug_assert_site_buffer(&v[4..4 + 2 * crate::SITE_STRIDE], 2, "test");
        #[cfg(not(debug_assertions))]
        panic!("not 64-byte aligned");
    }

    #[test]
    fn many_allocations_stay_aligned() {
        let all: Vec<AlignedVec> = (1..200).map(AlignedVec::zeroed).collect();
        for v in &all {
            assert_eq!(v.as_ptr() as usize % ALIGNMENT, 0);
        }
    }
}
