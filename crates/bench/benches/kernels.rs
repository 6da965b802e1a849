//! Criterion benches: the four PLF kernels, scalar vs explicit-SIMD
//! (the host-side counterpart of the paper's Figure 2/Figure 3 — the
//! measurable effect of §V-B's loop fusion, alignment, and site
//! blocking).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phylo_models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
use plf_core::cla::Cla;
use plf_core::layout::{EigenBasis, FusedPmat, Lut16x16};
use plf_core::{AlignedVec, KernelKind, SITE_STRIDE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PATTERNS: usize = 16_384;

struct Fixture {
    p_l: FusedPmat,
    p_r: FusedPmat,
    lut_l: Lut16x16,
    lut_r: Lut16x16,
    pi_tip: Lut16x16,
    pi_w: [f64; SITE_STRIDE],
    basis: EigenBasis,
    codes: Vec<u8>,
    v_l: Cla,
    v_r: Cla,
    weights: Vec<u32>,
    sumtable: AlignedVec,
}

fn fixture() -> Fixture {
    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(0.85);
    let rates = *gamma.rates();
    let p_l = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, 0.13));
    let p_r = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, 0.27));
    let mut rng = SmallRng::seed_from_u64(7);
    let mut v_l = Cla::new(PATTERNS);
    let mut v_r = Cla::new(PATTERNS);
    for v in v_l
        .values_mut()
        .iter_mut()
        .chain(v_r.values_mut().iter_mut())
    {
        *v = rng.random::<f64>() * 0.5 + 0.25;
    }
    let codes: Vec<u8> = (0..PATTERNS)
        .map(|_| [1u8, 2, 4, 8, 15][rng.random_range(0..5usize)])
        .collect();
    let mut pi_w = [0.0; SITE_STRIDE];
    for k in 0..4 {
        for a in 0..4 {
            pi_w[4 * k + a] = 0.25 * gtr.freqs()[a];
        }
    }
    Fixture {
        lut_l: Lut16x16::tip_prob(&p_l),
        lut_r: Lut16x16::tip_prob(&p_r),
        pi_tip: Lut16x16::tip_pi(&gtr.freqs()),
        basis: EigenBasis::new(gtr.eigen(), &rates),
        p_l,
        p_r,
        pi_w,
        codes,
        v_l,
        v_r,
        weights: vec![1; PATTERNS],
        sumtable: AlignedVec::zeroed(PATTERNS * SITE_STRIDE),
    }
}

fn bench_kernels(c: &mut Criterion) {
    let mut fx = fixture();
    let variants = [KernelKind::Scalar, KernelKind::Simd];

    let mut g = c.benchmark_group("newview_ii");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        let mut out = Cla::new(PATTERNS);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let (v, s) = out.buffers_mut();
                    k.newview_ii(
                        &fx.p_l,
                        fx.v_l.values(),
                        fx.v_l.scale(),
                        &fx.p_r,
                        fx.v_r.values(),
                        fx.v_r.scale(),
                        v,
                        s,
                    );
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("newview_ti");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        let mut out = Cla::new(PATTERNS);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let (v, s) = out.buffers_mut();
                    k.newview_ti(
                        &fx.lut_l,
                        &fx.codes,
                        &fx.p_r,
                        fx.v_r.values(),
                        fx.v_r.scale(),
                        v,
                        s,
                    );
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("newview_tt");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        let mut out = Cla::new(PATTERNS);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let (v, s) = out.buffers_mut();
                    k.newview_tt(&fx.lut_l, &fx.lut_r, &fx.codes, &fx.codes, v, s);
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("evaluate_ii");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    k.evaluate_ii(
                        &fx.pi_w,
                        fx.v_l.values(),
                        fx.v_l.scale(),
                        &fx.p_r,
                        fx.v_r.values(),
                        fx.v_r.scale(),
                        &fx.weights,
                    )
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("evaluate_ti");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    k.evaluate_ti(
                        &fx.pi_tip,
                        &fx.codes,
                        &fx.p_r,
                        fx.v_r.values(),
                        fx.v_r.scale(),
                        &fx.weights,
                    )
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("derivative_sum_ii");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    k.derivative_sum_ii(
                        &fx.basis,
                        fx.v_l.values(),
                        fx.v_r.values(),
                        &mut fx.sumtable,
                    )
                })
            },
        );
    }
    g.finish();

    // Fill the sumtable once so derivative_core sees realistic data.
    KernelKind::Scalar.kernels().derivative_sum_ii(
        &fx.basis,
        fx.v_l.values(),
        fx.v_r.values(),
        &mut fx.sumtable,
    );
    let mut g = c.benchmark_group("derivative_core");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    for kind in variants {
        let k = kind.kernels();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                b.iter(|| k.derivative_core(&fx.sumtable, &fx.basis.lambda_rate, 0.2, &fx.weights))
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_kernels
}
criterion_main!(benches);
