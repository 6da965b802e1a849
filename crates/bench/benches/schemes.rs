//! Criterion benches: parallelization schemes (§V-C/§V-D).
//!
//! Compares full-likelihood evaluation under a single engine, the
//! fork-join worker scheme, and the ExaML replicated scheme across
//! thread counts — the host-side counterpart of the paper's
//! RAxML-Light vs ExaML comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phylo_bench::paper_dataset;
use phylo_parallel::{Comm, ForkJoinEvaluator, ReplicatedEvaluator, ThreadCommGroup};
use phylo_search::Evaluator;
use plf_core::{EngineConfig, LikelihoodEngine};

const PATTERNS: usize = 50_000;

fn bench_schemes(c: &mut Criterion) {
    let (tree, aln) = paper_dataset(15, PATTERNS, 11);
    let cfg = EngineConfig::default();

    let mut g = c.benchmark_group("full_likelihood");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    g.sample_size(20);

    g.bench_function("single_engine", |b| {
        let mut engine = LikelihoodEngine::new(&tree, &aln, cfg);
        b.iter(|| {
            engine.invalidate_all();
            LikelihoodEngine::log_likelihood(&mut engine, &tree, 0)
        })
    });

    // Labelled by computing threads: the master owns slice 0, so a
    // team of N spawns N - 1 workers.
    for threads in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("forkjoin", threads),
            &threads,
            |b, &threads| {
                let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, threads - 1);
                // Force full recomputation per iteration by toggling a
                // branch length between two values.
                let mut t = tree.clone();
                let mut flip = false;
                b.iter(|| {
                    flip = !flip;
                    t.set_length(0, if flip { 0.11 } else { 0.12 }).unwrap();
                    fj.log_likelihood(&t, 0)
                })
            },
        );
    }
    g.finish();

    // Replicated scheme: measure the per-evaluation cost inside worker
    // threads (2 ranks), including the AllReduce.
    let mut g = c.benchmark_group("replicated_eval");
    g.sample_size(20);
    g.bench_function("2_ranks", |b| {
        b.iter_custom(|iters| {
            let ranges = phylo_parallel::forkjoin::split_ranges(aln.num_patterns(), 2);
            let mut group = ThreadCommGroup::new(2, 8);
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for range in ranges {
                    let comm = group.take();
                    let tree = &tree;
                    let aln = &aln;
                    s.spawn(move || {
                        let engine = LikelihoodEngine::with_range(tree, aln, cfg, range);
                        let mut eval = ReplicatedEvaluator::new(engine, comm);
                        let mut t = tree.clone();
                        let mut flip = false;
                        for _ in 0..iters {
                            flip = !flip;
                            t.set_length(0, if flip { 0.11 } else { 0.12 }).unwrap();
                            eval.log_likelihood(&t, 0);
                        }
                    });
                }
            });
            start.elapsed()
        })
    });
    g.finish();
}

// Quiet the unused-trait warning: Comm is used via ReplicatedEvaluator.
#[allow(dead_code)]
fn _assert_comm_used<C: Comm>() {}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_schemes
}
criterion_main!(benches);
