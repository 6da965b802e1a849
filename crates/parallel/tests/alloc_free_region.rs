//! A steady-state fork-join region allocates nothing on the master.
//!
//! The master runs thousands of regions per search (`narrow64`:
//! 18 841), so an allocation per region — a tree snapshot behind an
//! `Arc`, a `Vec` of replies — is a malloc/free pair on the critical
//! path of every kernel. This binary swaps in a counting allocator and
//! asserts that warm `Eval` / `Prepare` / `Derivatives` regions
//! allocate exactly what a bare engine running the same calls does:
//! nothing in a build without debug assertions, and only the engine's
//! own debug oracle (`assert_left_out_nodes_are_valid`) in one with
//! them. Only the calling thread is counted: the workers' allocations
//! (none are expected either) would not delay the master.
//!
//! The same allocator counts what the job's tree snapshot costs:
//! `Tree::clone` allocates its two arrays and shares the names, and
//! `Tree::clone_from` — how a region refreshes the snapshot — refills
//! a tree of the same shape without allocating at all.

use phylo_bio::CompressedAlignment;
use phylo_models::{DiscreteGamma, Gtr, GtrParams};
use phylo_parallel::forkjoin::split_ranges;
use phylo_parallel::ForkJoinEvaluator;
use phylo_search::Evaluator;
use phylo_tree::build::{default_names, random_tree};
use phylo_tree::newick::to_newick;
use phylo_tree::Tree;
use plf_core::{EngineConfig, LikelihoodEngine};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    /// Heap allocations made by this thread (a reallocation is one:
    /// the trait's default `realloc` goes through `alloc`).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s contract is this allocator's; the
// only addition is a bump of a const-initialised, destructor-free
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One smoothing-like sweep over every edge: prepare, derivatives, a
/// length edit, a likelihood. The tree changes between calls, so every
/// `Eval` / `Prepare` refreshes a snapshot and recomputes CLAs.
fn sweep(eval: &mut impl Evaluator, tree: &mut Tree) -> f64 {
    let mut acc = 0.0;
    for e in 0..tree.num_edges() {
        eval.prepare_branch(tree, e);
        let t = tree.length(e);
        let (d1, d2) = eval.branch_derivatives(t);
        acc += d1 + d2;
        tree.set_length(e, t * 1.01).unwrap();
        acc += eval.log_likelihood(tree, e);
    }
    acc
}

/// Allocations this thread makes over a warm sweep (a first sweep
/// fills every buffer: engine schedules, the job's tree, span rings).
fn warm_sweep_allocations(eval: &mut impl Evaluator, tree: &mut Tree) -> u64 {
    assert!(sweep(eval, tree).is_finite());
    let before = allocations();
    let acc = sweep(eval, tree);
    let after = allocations();
    assert!(acc.is_finite());
    after - before
}

#[test]
fn steady_state_regions_do_not_allocate_on_the_master() {
    let mut rng = SmallRng::seed_from_u64(19);
    let names = default_names(12);
    let mut tree = random_tree(&names, 0.15, &mut rng).unwrap();
    let g = Gtr::new(GtrParams::jc69());
    let gamma = DiscreteGamma::new(0.9);
    let aln = phylo_seqgen::simulate_alignment(&tree, g.eigen(), &gamma, 500, &mut rng);
    let aln = CompressedAlignment::from_alignment(&aln);
    let cfg = EngineConfig::default();

    for workers in [0, 1, 2] {
        // What the master's engine allocates by itself on these calls.
        let own = split_ranges(aln.num_patterns(), workers + 1).swap_remove(0);
        let mut bare = LikelihoodEngine::with_range(&tree, &aln, cfg, own);
        let engine_alone = warm_sweep_allocations(&mut bare, &mut tree);
        if !cfg!(debug_assertions) {
            assert_eq!(engine_alone, 0, "the engine's hot path allocates");
        }

        let mut fj = ForkJoinEvaluator::new(&tree, &aln, cfg, workers);
        let in_regions = warm_sweep_allocations(&mut fj, &mut tree);
        assert_eq!(fj.regions(), 2 * 3 * tree.num_edges() as u64);
        assert_eq!(
            in_regions,
            engine_alone,
            "workers={workers}: {} regions added {} allocations on the master",
            fj.regions() / 2,
            in_regions.abs_diff(engine_alone)
        );
    }
}

#[test]
fn tree_snapshots_allocate_two_arrays_or_nothing() {
    let names = default_names(64);
    let tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(37)).unwrap();
    let other = random_tree(&names, 0.2, &mut SmallRng::seed_from_u64(41)).unwrap();

    let before = allocations();
    let mut snapshot = black_box(&tree).clone();
    let cloned = allocations() - before;
    assert_eq!(cloned, 2, "Tree::clone allocates `adj` and `edges` only");
    assert!(Arc::ptr_eq(
        snapshot.shared_tip_names(),
        tree.shared_tip_names()
    ));

    let before = allocations();
    snapshot.clone_from(black_box(&other));
    let refilled = allocations() - before;
    assert_eq!(refilled, 0, "Tree::clone_from into a tree of its shape");
    assert_eq!(to_newick(&snapshot), to_newick(&other));
}
