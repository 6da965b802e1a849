//! Streaming-store publication tests for the explicit-SIMD backend
//! (§V-B5).
//!
//! A large `newview` of an unblocked walk writes its CLA with
//! non-temporal stores, which are weakly ordered: they can linger in
//! write-combining buffers *past* ordinary release/acquire
//! synchronization edges. The backend's contract is that every kernel
//! that streamed executes `sfence` before returning, so a reader on
//! any thread that synchronizes with the writer afterwards — here via
//! scoped-thread join, the same edge the fork-join barrier provides —
//! observes the complete buffer. These tests would only fail
//! intermittently if the fence were dropped, so they iterate.

use phylo_models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
use plf_core::layout::FusedPmat;
use plf_core::{AlignedVec, KernelKind, SITE_STRIDE};

fn pmat(t: f64) -> FusedPmat {
    let g = Gtr::new(GtrParams {
        rates: [1.4, 2.2, 0.7, 1.3, 3.1, 1.0],
        freqs: [0.27, 0.24, 0.20, 0.29],
    });
    let rates = *DiscreteGamma::new(0.9).rates();
    FusedPmat::from_prob(&ProbMatrix::new(g.eigen(), &rates, t))
}

/// Deterministic pseudo-random doubles (xorshift64*).
fn fill(buf: &mut [f64], seed: u64) {
    let mut s = seed | 1;
    for v in buf.iter_mut() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        let u = (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        *v = 1e-3 + u * (1.0 - 1e-3);
    }
}

#[test]
fn cla_streamed_on_another_thread_is_visible_after_join() {
    // Streams without a calibration: larger than the assumed 1 MiB
    // cache (8 192 sites) and than a 2 048-site traversal block; not a
    // site-block multiple.
    let n = 8195;
    let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
    let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
    fill(&mut vl, 41);
    fill(&mut vr, 43);
    let scale = vec![0u32; n];
    let (pl, pr) = (pmat(0.31), pmat(0.17));

    // Reference computed on this thread with the scalar backend.
    let mut expect = AlignedVec::zeroed(n * SITE_STRIDE);
    let mut expect_sc = vec![0u32; n];
    KernelKind::Scalar.kernels().newview_ii(
        &pl,
        &vl,
        &scale,
        &pr,
        &vr,
        &scale,
        &mut expect,
        &mut expect_sc,
    );

    for round in 0..20 {
        let mut out = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut sc = vec![0u32; n];
        std::thread::scope(|s| {
            s.spawn(|| {
                KernelKind::Simd
                    .kernels()
                    .newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, &mut out, &mut sc);
            });
        });
        // The writer thread has been joined: every streamed value must
        // be globally visible now.
        assert_eq!(sc, expect_sc, "round {round}: scaling counters");
        for (i, (a, b)) in expect.iter().zip(out.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                "round {round} slot {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn evaluate_reads_a_just_streamed_cla_correctly() {
    // Same-thread read-after-NT-write: evaluate consumes the CLA the
    // SIMD newview just streamed. The kernel-exit fence (plus x86
    // same-address ordering) makes this safe without any fence in
    // evaluate itself — exactly the engine's newview→evaluate pattern.
    let n = 8195; // streams, as above
    let mut vl = AlignedVec::zeroed(n * SITE_STRIDE);
    let mut vr = AlignedVec::zeroed(n * SITE_STRIDE);
    fill(&mut vl, 7);
    fill(&mut vr, 9);
    let scale = vec![0u32; n];
    let weights = vec![1u32; n];
    let (pl, pr) = (pmat(0.21), pmat(0.44));
    let g = Gtr::new(GtrParams {
        rates: [1.4, 2.2, 0.7, 1.3, 3.1, 1.0],
        freqs: [0.27, 0.24, 0.20, 0.29],
    });
    let mut pi_w = [0.0; SITE_STRIDE];
    for k in 0..4 {
        for a in 0..4 {
            pi_w[4 * k + a] = 0.25 * g.freqs()[a];
        }
    }

    let run = |kind: KernelKind| {
        let k = kind.kernels();
        let mut cla = AlignedVec::zeroed(n * SITE_STRIDE);
        let mut sc = vec![0u32; n];
        k.newview_ii(&pl, &vl, &scale, &pr, &vr, &scale, &mut cla, &mut sc);
        k.evaluate_ii(&pi_w, &cla, &sc, &pr, &vr, &scale, &weights)
    };
    let expect = run(KernelKind::Scalar);
    for round in 0..20 {
        let got = run(KernelKind::Simd);
        assert!(
            (expect - got).abs() <= 1e-9 * (1.0 + expect.abs()),
            "round {round}: {expect} vs {got}"
        );
    }
}
