//! `plf-microbench`: per-kernel, per-backend wall-time measurement
//! (the host-side analogue of the paper's Figure 3 / Table III sweep).
//!
//! Times all eight PLF kernels under both kernel backends — `scalar`
//! and `simd` (what `auto` resolves to on an AVX2+FMA host) — across
//! the alignment widths the paper varies in Table III, and prints
//! ns/site per kernel per backend plus the speedup of each backend
//! over the scalar reference and — via the analytical cost model
//! ([`plf_core::cost`]) and the calibrated host roofline
//! ([`plf_prof::roofline`]) — each cell's achieved GFLOP/s and % of the
//! attainable roof. The ns/site figures are context for the ratios
//! below, not a ruler: this host reads the same body at 11 or 17
//! ns/site minutes apart, so nothing compares them across runs, and a
//! change is judged end to end by `cargo xtask pair`.
//!
//! Methodology: per (kernel, backend, size) the kernel runs `WARMUP`
//! untimed rounds, then `REPS` timed rounds; the minimum and maximum
//! rounds are discarded and the rest averaged (trimmed mean), divided
//! by the pattern count to give ns/site. Inputs are drawn from a range
//! that never triggers numerical rescaling, and the scaling counters
//! produced by every backend are asserted identical before timing —
//! so all backends do exactly the same scaling work and the comparison
//! is purely about the arithmetic/memory pipeline.
//!
//! A second section times the cache-blocked traversal against the
//! unblocked one on an alignment of all-distinct columns (the config
//! where blocking can only add overhead).
//!
//! What the binary gates are ratios of two arms timed in the same run
//! (all checked after the files of `--out` are written, so a failing
//! run still leaves its numbers on disk):
//!   3. with AVX2+FMA present, `simd` beats scalar on `newview_ii` at
//!      the largest size (the paper's Fig. 2 comparison: explicit
//!      intrinsics against loops left to the compiler);
//!   6. the blocked traversal within `BLOCKING_MAX_RATIO` of the
//!      unblocked one on the all-distinct alignment;
//!   7. with AVX-512F present, the 512-bit `newview_ii` body at least
//!      `WIDTH_MIN_SPEEDUP` × faster than the 256-bit body of the same
//!      backend (skipped with a message elsewhere);
//!  13. with AVX-512F present, the fused 512-bit `derivative_core` at
//!      least `DERIVCORE_MIN_SPEEDUP` × faster than the 256-bit phase 1
//!      plus the provided scalar tail, with bit-equal results.
//!
//! (Gates 1 and 2 guarded the `vector` backend and the `auto`
//! dispatcher, gates 4, 5 and 9 site-repeat compression, and went with
//! them. Gates 8, 11 and 12 timed live code against bench-local copies
//! of the designs it replaced — a store-then-scan `newview_ii` finish,
//! a `Vec`-per-node tree, a region that allocates — and went once
//! deterministic tests held what they stood for: the simd kernel tests'
//! rescale counters against scalar, and `phylo-parallel`'s
//! `alloc_free_region` counts of `Tree::clone`, `Tree::clone_from` and
//! a warm region. The numbers stay so EXPERIMENTS.md and DESIGN.md keep
//! pointing at the right gate.)
//!
//! Gates 7 and 13 are ratio cells: both arms run in the same process,
//! interleaved round by round, at the call sizes of the `plf_e2e`
//! workloads (390 sites = `narrow64`, 3 716 / 7 307 = `wide15` /
//! `modelopt15`; the `newview_ii` cells of gate 7 below
//! `NEWVIEW_CELL_MAX_SITES` only).
//!
//! A third section holds the non-kernel cells — same-run, interleaved:
//!  10. `update_partials` on a 64-taxon tree, pruned walk against the
//!      never-pruning reference (`LikelihoodEngine::without_pruning`):
//!      with nothing stale — the walk alone, which is what the pruning
//!      changes — at least `WALK_MIN_SPEEDUP` ×, and after a re-root to
//!      an adjacent edge — the same walk plus the one `newview` (two
//!      P matrices, a 16-site kernel call) both arms then run — at
//!      least `REROOT_MIN_SPEEDUP` ×;
//!  14. set-up: `phylip::parse_str` + `CompressedAlignment::from_alignment`
//!      on a generated 32 × 40 000 low-divergence PHYLIP text (the shape
//!      of `plf_e2e`'s `lowdiv32`) against the line-based readers and
//!      the `HashMap` compression of `phylo_bio::naive`, both arms
//!      asserted to give equal `CompressedAlignment`s, at least
//!      `SETUP_MIN_SPEEDUP` ×.
//!
//! Run: `cargo run --release -p phylo-bench --bin plf-microbench`
//! Flags: `--quick` (10 000 patterns only); `--out PATH` also writes
//! the per-kernel table with host provenance (git revision, CPU model,
//! core count, SIMD flags) to `PATH`, the width cells to
//! `PATH.widths.json` and the non-kernel cells to
//! `PATH.nonkernel.json`. Without it nothing is written.

use phylo_bio::{naive, phylip, CompressedAlignment, DnaCode};
use phylo_models::{DiscreteGamma, Gtr, GtrParams, ProbMatrix};
use phylo_tree::build::{default_names, random_tree};
use plf_core::cla::Cla;
use plf_core::kernels::simd::SimdKernels;
use plf_core::layout::{EigenBasis, FusedPmat, Lut16x16};
use plf_core::{
    AlignedVec, Blocking, EngineConfig, KernelKind, KernelOp, Kernels, LikelihoodEngine,
    SITE_STRIDE,
};
use plf_prof::json::escape;
use plf_prof::{host, roofline, HostRoofline};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Table III varies alignment width over roughly three decades; these
/// are the pattern counts after compression that the host sweep uses.
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const QUICK_SIZES: [usize; 1] = [10_000];
/// Column 0 is the scalar reference every speedup is relative to.
const BACKENDS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Simd];
const KERNELS: [&str; 8] = [
    "newview_tt",
    "newview_ti",
    "newview_ii",
    "evaluate_ti",
    "evaluate_ii",
    "derivative_sum_ti",
    "derivative_sum_ii",
    "derivative_core",
];
const WARMUP: usize = 2;
/// Minimum timed rounds per cell; small sizes get proportionally more
/// (see [`reps_for`]) because a 1 000-pattern kernel round lasts only
/// a few microseconds and a single scheduler blip would otherwise
/// dominate the trimmed mean.
const MIN_REPS: usize = 12;

/// Timed rounds for a cell of `patterns` sites: at least `MIN_REPS`,
/// scaled up so every cell measures roughly the same total site count.
fn reps_for(patterns: usize) -> usize {
    MIN_REPS.max(1_200_000 / patterns.max(1))
}

/// Gate 6: the cache-blocked traversal may cost at most this factor
/// of the unblocked one on an all-distinct alignment — blocking must
/// never hurt the config it cannot help.
const BLOCKING_MAX_RATIO: f64 = 1.05;
/// Gate 7: minimum speedup of the 512-bit `newview_ii` body over the
/// 256-bit one (measured 1.2–1.3× on the development host).
const WIDTH_MIN_SPEEDUP: f64 = 1.10;
/// Gate 7 holds the two `newview_ii` bodies against each other only at
/// call sizes below this. A larger `newview` call happens only under
/// `Blocking::Off` (engines block at 2 048 sites), and at 7 307 sites
/// its three 935 KB CLAs outgrow the development host's 2 MiB L2, so
/// both arms wait on memory: the width cell read 0.93–1.04 × there,
/// and 1.10–1.21 × while that output still streamed.
const NEWVIEW_CELL_MAX_SITES: usize = 4096;
/// Gate 13: minimum speedup of the fused 512-bit `derivative_core` over
/// the two-phase 256-bit one (1.18–1.52 × on the development host, at
/// 390 to 7 307 sites).
const DERIVCORE_MIN_SPEEDUP: f64 = 1.10;
/// Gate 10: minimum speedup of the pruned walk over the full one on a
/// 64-taxon tree with nothing stale.
const WALK_MIN_SPEEDUP: f64 = 5.0;
/// Gate 10, in context: the same after a re-root across one node,
/// where both arms also plan and run that node's `newview`.
const REROOT_MIN_SPEEDUP: f64 = 2.0;
/// Gate 14: minimum speedup of the byte-level reader and packed-key
/// compression over `phylo_bio::naive` on the low-divergence text.
const SETUP_MIN_SPEEDUP: f64 = 1.5;
struct Fixture {
    patterns: usize,
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

fn fixture(patterns: usize) -> Fixture {
    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(0.85);
    let rates = *gamma.rates();
    let p_l = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, 0.13));
    let p_r = FusedPmat::from_prob(&ProbMatrix::new(gtr.eigen(), &rates, 0.27));
    let mut rng = SmallRng::seed_from_u64(7);
    let mut v_l = Cla::new(patterns);
    let mut v_r = Cla::new(patterns);
    // 0.25..0.75: far above the 2^-256 rescaling threshold, so no
    // backend ever scales and the counters stay fixed at zero.
    for v in v_l
        .values_mut()
        .iter_mut()
        .chain(v_r.values_mut().iter_mut())
    {
        *v = rng.random::<f64>() * 0.5 + 0.25;
    }
    let codes: Vec<u8> = (0..patterns)
        .map(|_| [1u8, 2, 4, 8, 15][rng.random_range(0..5usize)])
        .collect();
    let mut pi_w = [0.0; SITE_STRIDE];
    for k in 0..4 {
        for a in 0..4 {
            pi_w[4 * k + a] = 0.25 * gtr.freqs()[a];
        }
    }
    Fixture {
        patterns,
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
        weights: vec![1; patterns],
        sumtable: AlignedVec::zeroed(patterns * SITE_STRIDE),
    }
}

/// Runs `kernel` once under `kind`, returning the scaling counters it
/// produced (empty for kernels that have none). Used both as the
/// warmup/timed body and for the cross-backend counter assertion.
fn run_kernel(fx: &mut Fixture, kernel: &str, kind: KernelKind, out: &mut Cla) -> Vec<u32> {
    let k = kind.kernels();
    match kernel {
        "newview_tt" => {
            let (v, s) = out.buffers_mut();
            k.newview_tt(&fx.lut_l, &fx.lut_r, &fx.codes, &fx.codes, v, s);
            out.scale().to_vec()
        }
        "newview_ti" => {
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
            out.scale().to_vec()
        }
        "newview_ii" => {
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
            out.scale().to_vec()
        }
        "evaluate_ti" => {
            black_box(k.evaluate_ti(
                &fx.pi_tip,
                &fx.codes,
                &fx.p_r,
                fx.v_r.values(),
                fx.v_r.scale(),
                &fx.weights,
            ));
            Vec::new()
        }
        "evaluate_ii" => {
            black_box(k.evaluate_ii(
                &fx.pi_w,
                fx.v_l.values(),
                fx.v_l.scale(),
                &fx.p_r,
                fx.v_r.values(),
                fx.v_r.scale(),
                &fx.weights,
            ));
            Vec::new()
        }
        "derivative_sum_ti" => {
            k.derivative_sum_ti(&fx.basis, &fx.codes, fx.v_r.values(), &mut fx.sumtable);
            Vec::new()
        }
        "derivative_sum_ii" => {
            k.derivative_sum_ii(
                &fx.basis,
                fx.v_l.values(),
                fx.v_r.values(),
                &mut fx.sumtable,
            );
            Vec::new()
        }
        "derivative_core" => {
            black_box(k.derivative_core(&fx.sumtable, &fx.basis.lambda_rate, 0.2, &fx.weights));
            Vec::new()
        }
        other => panic!("unknown kernel {other}"),
    }
}

/// Trimmed-mean seconds for `reps` timed rounds of `body` after
/// `WARMUP` untimed ones; the top and bottom quarters of the sorted
/// rounds are discarded (the host may be a noisy shared VM).
fn timed<F: FnMut()>(reps: usize, mut body: F) -> f64 {
    for _ in 0..WARMUP {
        body();
    }
    let mut rounds = vec![0.0f64; reps];
    for r in rounds.iter_mut() {
        let start = Instant::now();
        body();
        *r = start.elapsed().as_secs_f64();
    }
    rounds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let trim = reps / 4;
    let trimmed = &rounds[trim..reps - trim];
    trimmed.iter().sum::<f64>() / trimmed.len() as f64
}

/// Trimmed-mean ns/site for one (kernel, backend, size) cell.
fn time_kernel(fx: &mut Fixture, kernel: &str, kind: KernelKind) -> f64 {
    let mut out = Cla::new(fx.patterns);
    // derivative_core reads the sumtable; make sure it holds real data
    // (the sum kernels are measured before it in KERNELS order, but a
    // fresh fixture per backend must not depend on that).
    if kernel == "derivative_core" {
        run_kernel(fx, "derivative_sum_ii", KernelKind::Scalar, &mut out);
    }
    let patterns = fx.patterns;
    timed(reps_for(patterns), || {
        run_kernel(fx, kernel, kind, &mut out);
    }) * 1e9
        / patterns as f64
}

struct Cell {
    kernel: &'static str,
    patterns: usize,
    /// ns/site, indexed like `BACKENDS`.
    ns: [f64; BACKENDS.len()],
}

impl Cell {
    /// The cost-model entry point for this row.
    fn op(&self) -> KernelOp {
        KernelOp::from_name(self.kernel).expect("KERNELS names match the cost model")
    }

    /// Achieved GFLOP/s of one backend: modeled flops/site over
    /// measured ns/site.
    fn gflops(&self, backend: usize) -> f64 {
        let per_site = self.op().cost(1);
        per_site.flops as f64 / self.ns[backend]
    }

    /// Fraction of the attainable roof for one backend; `None` when
    /// uncalibrated.
    fn pct_roof(&self, backend: usize, roof: &Option<HostRoofline>) -> Option<f64> {
        let roof = roof.as_ref()?;
        if roof.peak_mflops == 0 || roof.peak_mbps == 0 {
            return None;
        }
        let ai = self.op().cost(1).arithmetic_intensity();
        let attainable = (roof.peak_mflops as f64 / 1e3).min(ai * roof.peak_mbps as f64 / 1e3);
        (attainable > 0.0).then(|| self.gflops(backend) / attainable)
    }
}

/// 16-taxon tree + alignment of `patterns` random columns (via
/// `from_parts`, which keeps a chance duplicate instead of
/// dedup-compressing it).
fn engine_fixture(patterns: usize, seed: u64) -> (phylo_tree::Tree, CompressedAlignment) {
    const TAXA: usize = 16;
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = default_names(TAXA);
    let tree = random_tree(&names, 0.12, &mut rng).unwrap();
    let cols: Vec<Vec<usize>> = (0..patterns)
        .map(|_| (0..TAXA).map(|_| rng.random_range(0..4)).collect())
        .collect();
    let rows: Vec<Vec<DnaCode>> = (0..TAXA)
        .map(|taxon| {
            (0..patterns)
                .map(|p| DnaCode::from_state(cols[p][taxon]))
                .collect()
        })
        .collect();
    let aln = CompressedAlignment::from_parts(tree.tip_names().to_vec(), rows, vec![1; patterns])
        .unwrap();
    (tree, aln)
}

/// Engine-level blocking benchmark on an alignment of all-distinct
/// columns (every one a fresh random draw): full cold-cache traversals with the batched block-loop forced on
/// vs off, after asserting bit-identical logL. Blocking cannot win on
/// this fixture's 16-taxon working set; the gate bounds its overhead.
fn blocking_engine_bench(patterns: usize) -> (usize, f64, f64) {
    let (tree, aln) = engine_fixture(patterns, 23);
    let engine_for = |blocking: Blocking| {
        LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                blocking,
                ..EngineConfig::default()
            },
        )
    };
    let mut off = engine_for(Blocking::Off);
    let mut on = engine_for(Blocking::On);
    let l_off = off.log_likelihood(&tree, 0);
    let l_on = on.log_likelihood(&tree, 0);
    assert_eq!(
        l_off.to_bits(),
        l_on.to_bits(),
        "engine logL differs with blocking on: {l_off} vs {l_on}"
    );
    let ns_off = timed(reps_for(patterns), || {
        off.invalidate_all();
        black_box(off.log_likelihood(&tree, 0));
    }) * 1e9
        / patterns as f64;
    let ns_on = timed(reps_for(patterns), || {
        on.invalidate_all();
        black_box(on.log_likelihood(&tree, 0));
    }) * 1e9
        / patterns as f64;
    (aln.num_taxa(), ns_off, ns_on)
}

/// One same-run ratio cell: `base` and `new` timed in alternating
/// rounds on the same inputs.
struct RatioCell {
    cell: &'static str,
    sites: usize,
    base: &'static str,
    new: &'static str,
    /// Median ns/site of each arm.
    base_ns: f64,
    new_ns: f64,
    /// Median over rounds of `base / new` within the round.
    ratio: f64,
    gate: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Times the `arms` in rotation, round by round (each round runs an arm
/// often enough to last ~100 µs at `sites` units of work per call), and
/// returns every round's ns per unit, one row per arm.
fn interleaved_rounds(sites: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let calls = (100_000 / sites).max(1);
    let round = |arm: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..calls {
            arm();
        }
        start.elapsed().as_secs_f64() * 1e9 / (calls * sites) as f64
    };
    for _ in 0..WARMUP {
        for arm in arms.iter_mut() {
            round(arm);
        }
    }
    let mut rounds = vec![Vec::with_capacity(201); arms.len()];
    for _ in 0..201 {
        for (arm, rounds) in arms.iter_mut().zip(&mut rounds) {
            rounds.push(round(arm));
        }
    }
    rounds
}

/// Times `base` and `new` in alternating rounds and returns their
/// median ns/site and the median per-round ratio `base / new`.
fn interleaved(sites: usize, mut base: impl FnMut(), mut new: impl FnMut()) -> (f64, f64, f64) {
    let rounds = interleaved_rounds(sites, &mut [&mut base, &mut new]);
    let ratios = rounds[0].iter().zip(&rounds[1]).map(|(b, n)| b / n);
    (
        median(rounds[0].clone()),
        median(rounds[1].clone()),
        median(ratios.collect()),
    )
}

/// The two ratio cells (gates 7 and 13) at each of `sites`; a host
/// without AVX-512F has only one width and runs neither, with a
/// message.
fn width_cells(sites: &[usize]) -> Vec<RatioCell> {
    let mut cells = Vec::new();
    let (Some(w256), Some(w512)) = (SimdKernels::at_width(256), SimdKernels::at_width(512)) else {
        println!("gates 7 and 13 skipped: no AVX-512F on this host");
        return cells;
    };
    for &n in sites {
        let mut fx = fixture(n);
        let (mut out_a, mut out_b) = (Cla::new(n), Cla::new(n));
        let run = |k: &dyn Kernels, fx: &Fixture, out: &mut Cla| {
            let (v, s) = out.buffers_mut();
            let (l, r) = (&fx.v_l, &fx.v_r);
            k.newview_ii(
                &fx.p_l,
                l.values(),
                l.scale(),
                &fx.p_r,
                r.values(),
                r.scale(),
                v,
                s,
            );
        };
        if n < NEWVIEW_CELL_MAX_SITES {
            let (base_ns, new_ns, ratio) = interleaved(
                n,
                || run(w256, &fx, &mut out_a),
                || run(w512, &fx, &mut out_b),
            );
            assert!(
                out_a.values() == out_b.values(),
                "the two widths wrote different CLAs"
            );
            cells.push(RatioCell {
                cell: "width",
                sites: n,
                base: "newview_ii, 256-bit body",
                new: "newview_ii, 512-bit body",
                base_ns,
                new_ns,
                ratio,
                gate: WIDTH_MIN_SPEEDUP,
            });
        }
        // Gate 13 reads a real table: `derivative_sum_ii` of the
        // fixture's two CLAs.
        w256.derivative_sum_ii(
            &fx.basis,
            fx.v_l.values(),
            fx.v_r.values(),
            &mut fx.sumtable,
        );
        let (mut d_a, mut d_b) = ((0.0, 0.0), (0.0, 0.0));
        let core = |k: &dyn Kernels| {
            black_box(k.derivative_core(&fx.sumtable, &fx.basis.lambda_rate, 0.2, &fx.weights))
        };
        let (base_ns, new_ns, ratio) = interleaved(n, || d_a = core(w256), || d_b = core(w512));
        assert!(
            d_a.0.to_bits() == d_b.0.to_bits() && d_a.1.to_bits() == d_b.1.to_bits(),
            "the two widths computed different derivatives"
        );
        cells.push(RatioCell {
            cell: "derivcore",
            sites: n,
            base: "derivative_core, 256-bit phase 1 + scalar tail",
            new: "derivative_core, fused 512-bit body",
            base_ns,
            new_ns,
            ratio,
            gate: DERIVCORE_MIN_SPEEDUP,
        });
        // One site in a hundred below the threshold, as in a search:
        // the widths must still agree bit for bit when the cold path runs.
        for i in (0..n).step_by(100) {
            for v in &mut fx.v_r.values_mut()[i * SITE_STRIDE..(i + 1) * SITE_STRIDE] {
                *v *= 1e-80;
            }
        }
        run(w256, &fx, &mut out_a);
        run(w512, &fx, &mut out_b);
        assert!(out_a.values() == out_b.values() && out_a.scale() == out_b.scale());
    }
    cells
}

/// Gate 10: `update_partials` on an engine that prunes its walk and on
/// one that never does — at an unchanged root, and when the virtual
/// root moves to an adjacent edge and back (both then run the same one
/// `newview` per call, on 16 patterns so that the walk shows); per-call
/// ns.
fn pruned_walk_cells() -> [RatioCell; 2] {
    const TAXA: usize = 64;
    let mut rng = SmallRng::seed_from_u64(31);
    let tree = random_tree(&default_names(TAXA), 0.1, &mut rng).unwrap();
    let rows: Vec<Vec<DnaCode>> = (0..TAXA)
        .map(|_| {
            (0..16)
                .map(|_| DnaCode::from_state(rng.random_range(0..4)))
                .collect()
        })
        .collect();
    let aln =
        CompressedAlignment::from_parts(tree.tip_names().to_vec(), rows, vec![1; 16]).unwrap();
    let cfg = EngineConfig::default();
    let mut pruning = LikelihoodEngine::new(&tree, &aln, cfg);
    let mut full = LikelihoodEngine::without_pruning(&tree, &aln, cfg);
    // An internal edge and one next to it: each call crosses one node.
    let e0 = tree.internal_edges().next().expect("internal edge");
    let (a, _) = tree.endpoints(e0);
    let e1 = *tree.incident(a).iter().find(|&&e| e != e0).unwrap();
    let arm = |engine: &mut LikelihoodEngine, flip: &mut bool| {
        *flip = !*flip;
        engine.update_partials(&tree, if *flip { e1 } else { e0 });
    };
    let (mut f0, mut f1) = (false, false);
    for engine in [&mut pruning, &mut full] {
        engine.update_partials(&tree, e0);
    }
    let (still_base, still_new, still_ratio) = interleaved(
        1,
        || full.update_partials(&tree, e0),
        || pruning.update_partials(&tree, e0),
    );
    let (base_ns, new_ns, ratio) =
        interleaved(1, || arm(&mut full, &mut f0), || arm(&mut pruning, &mut f1));
    let calls = |e: &LikelihoodEngine| e.stats().get(plf_core::KernelId::Newview).calls;
    assert_eq!(
        calls(&full),
        calls(&pruning),
        "the walks ran different newviews"
    );
    assert_eq!(
        pruning.log_likelihood(&tree, e0).to_bits(),
        full.log_likelihood(&tree, e0).to_bits()
    );
    [
        RatioCell {
            cell: "walk",
            sites: 1,
            base: "update_partials, nothing stale, full walk (64 taxa)",
            new: "update_partials, nothing stale, pruned walk",
            base_ns: still_base,
            new_ns: still_new,
            ratio: still_ratio,
            gate: WALK_MIN_SPEEDUP,
        },
        RatioCell {
            cell: "reroot",
            sites: 1,
            base: "update_partials across one node, full walk (64 taxa)",
            new: "update_partials across one node, pruned walk",
            base_ns,
            new_ns,
            ratio,
            gate: REROOT_MIN_SPEEDUP,
        },
    ]
}

/// Gate 14: parse and compress a 32 × 40 000 PHYLIP text simulated at
/// mean branch 0.002, where most columns collapse; ns per column.
fn setup_cell() -> RatioCell {
    const TAXA: usize = 32;
    const SITES: usize = 40_000;
    let mut rng = SmallRng::seed_from_u64(41);
    let tree = random_tree(&default_names(TAXA), 0.002, &mut rng).unwrap();
    let gtr = Gtr::new(GtrParams {
        rates: [1.1, 2.6, 0.8, 1.2, 3.4, 1.0],
        freqs: [0.29, 0.21, 0.22, 0.28],
    });
    let gamma = DiscreteGamma::new(0.85);
    let aln = phylo_seqgen::simulate_alignment(&tree, gtr.eigen(), &gamma, SITES, &mut rng);
    let text = phylip::to_string(&aln);
    let naive_arm = || naive::compress(&naive::phylip::parse_str(&text).unwrap());
    let new_arm = || CompressedAlignment::from_alignment(&phylip::parse_str(&text).unwrap());
    assert_eq!(naive_arm(), new_arm(), "the set-up arms disagree");
    let (base_ns, new_ns, ratio) = interleaved(
        SITES,
        || drop(black_box(naive_arm())),
        || drop(black_box(new_arm())),
    );
    RatioCell {
        cell: "setup",
        sites: SITES,
        base: "naive PHYLIP reader + HashMap compression (32 x 40 000, low divergence)",
        new: "byte-level reader + packed-key compression",
        base_ns,
        new_ns,
        ratio,
        gate: SETUP_MIN_SPEEDUP,
    }
}

fn render_ratio_cells(cells: &[RatioCell]) -> String {
    format!("{{{}}}\n", cells_member(cells))
}

/// The `"cells":[…]` member both ratio-cell files carry.
fn cells_member(cells: &[RatioCell]) -> String {
    let mut s = String::from("\"cells\":[\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            s,
            "{{\"cell\":\"{}\",\"sites\":{},\"base\":\"{}\",\"new\":\"{}\",\
             \"base_ns_per_site\":{:.3},\"new_ns_per_site\":{:.3},\"ratio\":{:.3},\
             \"gate\":{:.2}}}{}",
            c.cell,
            c.sites,
            c.base,
            c.new,
            c.base_ns,
            c.new_ns,
            c.ratio,
            c.gate,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    s.push(']');
    s
}

fn main() {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}; usage: plf-microbench [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let sizes: &[usize] = if quick { &QUICK_SIZES } else { &SIZES };
    let simd = KernelKind::simd_available();

    println!("plf-microbench: per-kernel ns/site, {BACKENDS:?}");
    println!(
        "host SIMD (avx2+fma): {}, simd_width_bits {}  |  sizes: {sizes:?}  |  \
         reps: >= {MIN_REPS} (trimmed)",
        if simd {
            "available"
        } else {
            "UNAVAILABLE (simd falls back to scalar)"
        },
        KernelKind::Simd.simd_width_bits(),
    );
    println!(
        "host: {} ({} cores, simd {}), git {}",
        host::cpu_model(),
        host::cores(),
        host::simd_flags(),
        host::git_rev()
    );
    // Calibrated peaks, if `phylomic calibrate` has been run on this
    // host; without them the roofline columns print as '-'.
    let roof = roofline::load_cached(std::path::Path::new(roofline::CACHE_FILE));
    match &roof {
        Some(r) => println!(
            "roofline: {:.2} GFLOP/s peak, {:.2} GB/s peak (ridge {:.3} flop/byte, from {})",
            r.peak_mflops as f64 / 1e3,
            r.peak_mbps as f64 / 1e3,
            r.ridge(),
            roofline::CACHE_FILE
        ),
        None => println!("roofline: uncalibrated — run `phylomic calibrate` for % of roof columns"),
    }
    println!();

    let mut cells: Vec<Cell> = Vec::new();
    for &n in sizes {
        println!("== {n} patterns ==");
        let mut fx = fixture(n);

        // Scaling-event parity gate: every backend must produce
        // bit-identical counters on every newview kernel before any
        // timing is trusted.
        for kernel in ["newview_tt", "newview_ti", "newview_ii"] {
            let mut out = Cla::new(n);
            let reference = run_kernel(&mut fx, kernel, KernelKind::Scalar, &mut out);
            for kind in &BACKENDS[1..] {
                let got = run_kernel(&mut fx, kernel, *kind, &mut out);
                assert_eq!(
                    reference, got,
                    "{kernel}: scaling counters differ between Scalar and {kind:?}"
                );
            }
        }

        for kernel in KERNELS {
            let ns = BACKENDS.map(|kind| time_kernel(&mut fx, kernel, kind));
            println!(
                "  {kernel:<18} scalar {:>8.2}  simd {:>8.2} ({:>5.2}x)",
                ns[0],
                ns[1],
                ns[0] / ns[1],
            );
            let cell = Cell {
                kernel,
                patterns: n,
                ns,
            };
            let cost = cell.op().cost(1);
            let pct = |b: usize| match cell.pct_roof(b, &roof) {
                Some(f) => format!("{:>5.1}%", f * 100.0),
                None => "    -".to_string(),
            };
            let bound = match &roof {
                Some(r) if r.peak_mbps > 0 && cost.arithmetic_intensity() < r.ridge() => {
                    "memory-bound"
                }
                Some(_) => "compute-bound",
                None => "",
            };
            println!(
                "  {:<18} scalar {:>7.3} GF/s {}  simd {:>7.3} GF/s {}  (AI {:.3}{}{})",
                "  % of roofline",
                cell.gflops(0),
                pct(0),
                cell.gflops(1),
                pct(1),
                cost.arithmetic_intensity(),
                if bound.is_empty() { "" } else { ", " },
                bound,
            );
            cells.push(cell);
        }
        println!();
    }

    // Blocking section.
    let eng_n = sizes.iter().copied().max().unwrap().min(50_000);
    let (blk_taxa, blk_off, blk_on) = blocking_engine_bench(eng_n);
    println!(
        "blocked traversal   {blk_taxa} taxa, {eng_n} sites, all distinct: \
         off {blk_off:.2} ns/site, on {blk_on:.2} ns/site ({:.3}x cost)",
        blk_on / blk_off
    );
    println!();

    // Width section: the two same-run ratio cells.
    let ratio_cells = width_cells(&[390, 3_716, 7_307]);
    for c in &ratio_cells {
        println!(
            "{:<6} {:>5} sites: {} {:.2} ns/site, {} {:.2} ns/site ({:.2}x)",
            c.cell, c.sites, c.base, c.base_ns, c.new, c.new_ns, c.ratio
        );
    }
    println!();

    // Non-kernel section: the walk and the set-up.
    let [walk, reroot] = pruned_walk_cells();
    let nonkernel_cells = [walk, reroot, setup_cell()];
    for c in &nonkernel_cells {
        let per = if c.sites > 1 { "/site" } else { "" };
        println!(
            "{:<6} {} {:.0} ns{per}, {} {:.0} ns{per} ({:.1}x)",
            c.cell, c.base, c.base_ns, c.new, c.new_ns, c.ratio
        );
    }
    println!();
    if let Some(out_path) = &out_path {
        for (path, json) in [
            (
                out_path.clone(),
                render_json(&cells, simd, &roof, (eng_n, blk_off, blk_on)),
            ),
            (
                format!("{out_path}.widths.json"),
                render_ratio_cells(&ratio_cells),
            ),
            (
                format!("{out_path}.nonkernel.json"),
                render_ratio_cells(&nonkernel_cells),
            ),
        ] {
            std::fs::write(&path, json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("wrote {path}");
        }
    }

    // ---- perf gates (after the files of `--out` are on disk) ----
    let mut failures: Vec<String> = Vec::new();

    // Gate 3: with AVX2+FMA present, the explicit-SIMD backend must
    // beat the scalar reference on the hot kernel at the largest size.
    if simd {
        let biggest = sizes.iter().copied().max().unwrap();
        let cell = cells
            .iter()
            .find(|c| c.kernel == "newview_ii" && c.patterns == biggest)
            .expect("newview_ii cell");
        let speedup = cell.ns[0] / cell.ns[1];
        if speedup <= 1.0 {
            failures.push(format!(
                "simd newview_ii not faster than scalar at {biggest} patterns \
                 ({:.2} vs {:.2} ns/site, {speedup:.2}x)",
                cell.ns[1], cell.ns[0]
            ));
        } else {
            println!("gate: simd newview_ii {speedup:.2}x vs scalar at {biggest} patterns — ok");
        }
    }

    // Gate 6: blocking never hurts the config it cannot help.
    let blocking_ratio = blk_on / blk_off;
    if blocking_ratio > BLOCKING_MAX_RATIO {
        failures.push(format!(
            "blocked traversal {blocking_ratio:.3}x of unblocked on the all-distinct \
             alignment (> {BLOCKING_MAX_RATIO}x) at {eng_n} sites"
        ));
    } else {
        println!("gate: blocked traversal {blocking_ratio:.3}x of unblocked on all-distinct — ok");
    }

    // Gates 7, 10, 13 and 14: every ratio cell this host could run.
    for c in ratio_cells.iter().chain(&nonkernel_cells) {
        if c.ratio < c.gate {
            failures.push(format!(
                "{} cell at {} sites: {} only {:.2}x over {} (< {}x)",
                c.cell, c.sites, c.new, c.ratio, c.base, c.gate
            ));
        } else {
            println!("gate: {} at {} sites {:.2}x — ok", c.cell, c.sites, c.ratio);
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("gates: all passed");
}

/// Hand-rolled JSON (the workspace has no serde): one record per
/// (kernel, size) with ns/site per backend and speedups vs scalar,
/// modeled GFLOP/s and % of the calibrated roof, plus host
/// provenance and the roofline; the blocking cell is appended as an
/// extra `results` row (with arm names as the backend keys).
fn render_json(
    cells: &[Cell],
    simd: bool,
    roof: &Option<HostRoofline>,
    blocking: (usize, f64, f64),
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"plf-microbench/5\",");
    let _ = writeln!(s, "  \"host_simd\": {simd},");
    let _ = writeln!(
        s,
        "  \"provenance\": {{\"git_rev\": \"{}\", \"cpu_model\": \"{}\", \
         \"cores\": {}, \"simd_flags\": \"{}\"}},",
        escape(&host::git_rev()),
        escape(&host::cpu_model()),
        host::cores(),
        escape(&host::simd_flags()),
    );
    match roof {
        Some(r) => {
            let _ = writeln!(
                s,
                "  \"roofline\": {{\"peak_mflops\": {}, \"peak_mbps\": {}}},",
                r.peak_mflops, r.peak_mbps
            );
        }
        None => {
            let _ = writeln!(s, "  \"roofline\": null,");
        }
    }
    let _ = writeln!(s, "  \"backends\": [\"scalar\", \"simd\"],");
    s.push_str("  \"results\": [\n");
    for c in cells {
        let _ = write!(
            s,
            "    {{\"kernel\": \"{}\", \"patterns\": {}, \
             \"ns_per_site\": {{\"scalar\": {:.3}, \"simd\": {:.3}}}, \
             \"speedup_vs_scalar\": {{\"simd\": {:.3}}}, \
             \"gflops\": {{\"scalar\": {:.3}, \"simd\": {:.3}}}, \
             \"arithmetic_intensity\": {:.4}",
            c.kernel,
            c.patterns,
            c.ns[0],
            c.ns[1],
            c.ns[0] / c.ns[1],
            c.gflops(0),
            c.gflops(1),
            c.op().cost(1).arithmetic_intensity(),
        );
        if roof.is_some() {
            let _ = write!(s, ", \"pct_roof\": {{");
            for (b, name) in BACKENDS.iter().enumerate() {
                if b > 0 {
                    s.push_str(", ");
                }
                match c.pct_roof(b, roof) {
                    Some(f) => {
                        let _ = write!(s, "\"{name}\": {:.4}", f);
                    }
                    None => {
                        let _ = write!(s, "\"{name}\": null");
                    }
                }
            }
            s.push('}');
        }
        s.push('}');
        s.push_str(",\n");
    }
    // The blocking cell: the arm names stand in for backend names
    // under ns_per_site.
    let (bn, boff, bon) = blocking;
    let _ = writeln!(
        s,
        "    {{\"kernel\": \"blocked_traversal\", \"patterns\": {bn}, \
         \"ns_per_site\": {{\"blocking_off\": {boff:.3}, \"blocking_on\": {bon:.3}}}, \
         \"cost_ratio\": {:.4}}}",
        bon / boff
    );
    s.push_str("  ]\n}\n");
    s
}
