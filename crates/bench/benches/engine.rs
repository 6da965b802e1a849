//! Criterion benches: engine-level ablations.
//!
//! * **CLA caching** (the RAxML traversal descriptor): full
//!   re-evaluation after one branch change, with the lazy cache vs a
//!   cold cache. This quantifies why §V-C's "thousands of kernel
//!   invocations per second" are affordable at all.
//! * **Memory-saving recomputation** ([23], §V-A): the engine with
//!   its CLA pool capped at the minimum vs all-resident — the time
//!   cost of the memory cap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phylo_bench::paper_dataset;
use plf_core::engine::min_pool_slots_any_root;
use plf_core::{EngineConfig, LikelihoodEngine};

const PATTERNS: usize = 20_000;

fn bench_engine(c: &mut Criterion) {
    let (tree, aln) = paper_dataset(15, PATTERNS, 31);
    let cfg = EngineConfig::default();

    let mut g = c.benchmark_group("cla_caching");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    g.sample_size(20);
    g.bench_function("warm_cache_one_branch_changed", |b| {
        let mut engine = LikelihoodEngine::new(&tree, &aln, cfg);
        let mut t = tree.clone();
        engine.log_likelihood(&t, 0);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            // A pendant branch change invalidates only the path to the
            // root edge.
            t.set_length(1, if flip { 0.11 } else { 0.13 }).unwrap();
            engine.log_likelihood(&t, 0)
        })
    });
    g.bench_function("cold_cache_full_traversal", |b| {
        let mut engine = LikelihoodEngine::new(&tree, &aln, cfg);
        b.iter(|| {
            engine.invalidate_all();
            engine.log_likelihood(&tree, 0)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("memory_pool");
    g.throughput(Throughput::Elements(PATTERNS as u64));
    g.sample_size(20);
    let min_pool = min_pool_slots_any_root(&tree);
    for (label, pool) in [("full_pool", tree.num_inner()), ("minimal_pool", min_pool)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &pool, |b, &pool| {
            let mut engine = LikelihoodEngine::with_pool(&tree, &aln, cfg, pool);
            // Alternate between two distant roots: the minimal pool
            // must recompute evicted CLAs every time.
            let roots = [0usize, tree.num_edges() - 1];
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % 2;
                engine.log_likelihood(&tree, roots[i])
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_engine
}
criterion_main!(benches);
