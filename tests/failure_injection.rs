//! Failure injection: malformed inputs, degenerate parameters, and
//! pathological data must fail loudly or degrade gracefully — never
//! return silently wrong likelihoods.

mod common;

use common::TestDir;
use phylomic::bio::{fasta, phylip, Alignment, CompressedAlignment, Sequence};
use phylomic::models::{DiscreteGamma, Gtr, GtrParams};
use phylomic::parallel::{run_replicated_ft, CommError, FaultPlan, FtConfig, ReplicatedError};
use phylomic::plf::{EngineConfig, KernelKind, LikelihoodEngine};
use phylomic::search::checkpoint::Checkpoint;
use phylomic::search::{MlSearch, SearchConfig};
use phylomic::tree::{newick, tree::BL_MAX, tree::BL_MIN, Tree};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn toy_aln(width: usize) -> CompressedAlignment {
    let mk = |name: &str, pat: &str| {
        Sequence::from_str_named(name, &pat.repeat(width / pat.len() + 1)[..width]).unwrap()
    };
    CompressedAlignment::from_alignment(
        &Alignment::new(vec![
            mk("a", "ACGT"),
            mk("b", "ACGA"),
            mk("c", "TCGT"),
            mk("d", "ACTT"),
        ])
        .unwrap(),
    )
}

#[test]
fn malformed_files_are_rejected_not_mangled() {
    // FASTA.
    for bad in [
        "no header at all\nACGT\n",
        ">x\nACGZ\n>y\nACGT\n", // invalid character
        ">x\n>y\nAC\n",         // empty record
    ] {
        assert!(fasta::parse_str(bad).is_err(), "accepted: {bad:?}");
    }
    // PHYLIP.
    for bad in [
        "",
        "notanumber 4\na ACGT\n",
        "2 4\na ACGT\n",       // missing taxon
        "1 4\na ACGTACGT\n",   // overlong
        "2 4\na ACGT\nb AC\n", // truncated
    ] {
        assert!(phylip::parse_str(bad).is_err(), "accepted: {bad:?}");
    }
    // Newick.
    for bad in [
        "(a:0.1,b:0.2,c:0.3)",        // missing semicolon
        "(a:0.1,b:0.2);",             // two taxa
        "((a,b),(c,d),(e,f),(g,h));", // top-level multifurcation
        "(a:xyz,b:0.1,c:0.1);",       // bad number
        "(a:0.1,a:0.1,b:0.1);",       // duplicate names
    ] {
        assert!(newick::parse(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn branch_length_extremes_keep_likelihood_finite() {
    let aln = toy_aln(64);
    let mut tree = newick::parse("(a:0.1,b:0.1,(c:0.1,d:0.1):0.1);").unwrap();
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let mut engine = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel,
                alpha: 1.0,
                ..EngineConfig::default()
            },
        );
        for e in 0..tree.num_edges() {
            tree.set_length(e, BL_MIN).unwrap();
        }
        let ll_min = engine.log_likelihood(&tree, 0);
        assert!(ll_min.is_finite(), "{kernel:?}: min-branch logL {ll_min}");
        for e in 0..tree.num_edges() {
            tree.set_length(e, BL_MAX).unwrap();
        }
        let ll_max = engine.log_likelihood(&tree, 0);
        assert!(ll_max.is_finite(), "{kernel:?}: max-branch logL {ll_max}");
        // Saturated branches: every site's likelihood approaches the
        // product of stationary frequencies; still a valid number.
        assert!(ll_max < 0.0);
    }
}

#[test]
fn all_gap_alignment_has_zero_loglikelihood() {
    let aln = CompressedAlignment::from_alignment(
        &Alignment::new(vec![
            Sequence::from_str_named("a", "----").unwrap(),
            Sequence::from_str_named("b", "NNNN").unwrap(),
            Sequence::from_str_named("c", "????").unwrap(),
        ])
        .unwrap(),
    );
    let tree = newick::parse("(a:0.3,b:0.4,c:0.5);").unwrap();
    let mut engine = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
    let ll = engine.log_likelihood(&tree, 0);
    // P(anything) summed over all states = 1 per site → logL = 0.
    assert!(ll.abs() < 1e-9, "logL = {ll}");
}

#[test]
fn extreme_alpha_values_work_at_bounds_and_panic_beyond() {
    let aln = toy_aln(32);
    let tree = newick::parse("(a:0.1,b:0.1,(c:0.1,d:0.1):0.1);").unwrap();
    for alpha in [DiscreteGamma::MIN_ALPHA, DiscreteGamma::MAX_ALPHA] {
        let mut engine = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel: KernelKind::Scalar,
                alpha,
                ..EngineConfig::default()
            },
        );
        assert!(engine.log_likelihood(&tree, 0).is_finite(), "alpha {alpha}");
    }
    let r = std::panic::catch_unwind(|| DiscreteGamma::new(0.0001));
    assert!(r.is_err(), "alpha below MIN_ALPHA must panic");
}

#[test]
fn invalid_gtr_parameters_rejected_everywhere() {
    assert!(Gtr::try_new(GtrParams {
        rates: [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
        freqs: [0.25; 4],
    })
    .is_err());
    assert!(Gtr::try_new(GtrParams {
        rates: [1.0; 6],
        freqs: [0.7, 0.1, 0.1, 0.2],
    })
    .is_err());

    let aln = toy_aln(16);
    let tree = newick::parse("(a:0.1,b:0.1,(c:0.1,d:0.1):0.1);").unwrap();
    let engine = std::panic::catch_unwind(|| {
        let mut e = LikelihoodEngine::new(&tree, &aln, EngineConfig::default());
        e.set_model(GtrParams {
            rates: [f64::NAN; 6],
            freqs: [0.25; 4],
        });
    });
    assert!(engine.is_err(), "NaN rates must be rejected");
}

#[test]
fn mismatched_tree_and_alignment_panic() {
    let aln = toy_aln(16); // taxa a, b, c, d
    let tree = newick::parse("(x:0.1,y:0.1,z:0.1);").unwrap();
    let r =
        std::panic::catch_unwind(|| LikelihoodEngine::new(&tree, &aln, EngineConfig::default()));
    assert!(r.is_err(), "unknown taxa must be detected at construction");
}

#[test]
fn deep_tree_underflow_is_scaled_not_zeroed() {
    // 30 taxa, long branches: per-site likelihood magnitudes are far
    // below f64::MIN_POSITIVE without the scaling machinery.
    use phylomic::tree::build::{caterpillar, default_names};
    let names = default_names(30);
    let tree = caterpillar(&names, 2.0).unwrap();
    let seqs: Vec<Sequence> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let pat = ["ACGT", "CGTA", "GTAC", "TACG"][i % 4];
            Sequence::from_str_named(n.clone(), &pat.repeat(8)).unwrap()
        })
        .collect();
    let aln = CompressedAlignment::from_alignment(&Alignment::new(seqs).unwrap());
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let mut engine = LikelihoodEngine::new(
            &tree,
            &aln,
            EngineConfig {
                kernel,
                alpha: 0.5,
                ..EngineConfig::default()
            },
        );
        let ll = engine.log_likelihood(&tree, 0);
        assert!(ll.is_finite() && ll < 0.0, "{kernel:?}: logL {ll}");
    }
}

// ---------------------------------------------------------------------------
// Scripted fault injection against the replicated search: rank death at
// collective sites, checkpoint I/O errors, and degrade-and-resume.
// ---------------------------------------------------------------------------

/// A small simulated dataset with enough signal that the search does
/// real rounds (and therefore real collectives) at every rank count.
fn search_dataset() -> (Tree, CompressedAlignment) {
    use phylomic::tree::build::{default_names, random_tree};
    let mut rng = SmallRng::seed_from_u64(77);
    let names = default_names(8);
    let tree = random_tree(&names, 0.12, &mut rng).unwrap();
    let g = Gtr::new(GtrParams::jc69());
    let gamma = DiscreteGamma::new(1.0);
    let aln = phylomic::seqgen::simulate_alignment(&tree, g.eigen(), &gamma, 600, &mut rng);
    (tree, CompressedAlignment::from_alignment(&aln))
}

fn short_search(max_rounds: usize) -> MlSearch {
    MlSearch::new(SearchConfig {
        max_rounds,
        optimize_model: false,
        ..Default::default()
    })
}

/// Runs `f` on a helper thread and fails the test if it has not
/// completed within `secs`. This turns "the collective error path is
/// deadlock-free" into an enforced bound instead of a hung test run.
fn within_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("deadline exceeded: a collective error path is hanging")
}

#[test]
fn rank_death_at_collective_sites_fails_structured_within_bounded_time() {
    // Matrix over rank counts and death sites: early, mid-round, and
    // deep into the search. In every cell the surviving ranks must
    // unblock, the supervisor must join all threads, and the outcome
    // must name the dead rank.
    for (ranks, dead, at) in [(2, 1, 1), (3, 2, 2), (3, 1, 7), (4, 3, 25)] {
        let err = within_deadline(120, move || {
            let (tree, aln) = search_dataset();
            let mut ft = FtConfig::new(ranks);
            ft.fault_plan = Some(Arc::new(FaultPlan::rank_death(dead, at)));
            run_replicated_ft(&tree, &aln, EngineConfig::default(), short_search(3), &ft)
                .unwrap_err()
        });
        assert_eq!(
            err,
            ReplicatedError::Comm(CommError::PeerFailed { rank: dead }),
            "ranks={ranks} dead={dead} at={at}"
        );
    }
}

#[test]
fn forkjoin_job_panic_on_any_slice_surfaces_within_bounded_time() {
    use phylomic::parallel::ForkJoinEvaluator;
    // `rank=R,region=N` numbers pattern slices, which are numbered
    // like the threads that compute them: 0 is the master's own,
    // R >= 1 is worker R - 1's. A panic in the master's own job must
    // not leave a worker waiting at the join barrier, the master must
    // re-raise it through the same path as a worker's, and dropping
    // the evaluator must still join the pool — early and deep into the
    // search, on teams of one (no workers), two and three.
    for (workers, slice, at) in [(0, 0, 1), (1, 0, 40), (1, 1, 3), (2, 0, 7), (2, 2, 7)] {
        let spec = format!("rank={slice},region={at}");
        let msg = within_deadline(120, move || {
            let (tree, aln) = search_dataset();
            let plan = Arc::new(FaultPlan::parse(&spec).unwrap());
            let mut t = tree.clone();
            let mut fj = ForkJoinEvaluator::with_fault_plan(
                &tree,
                &aln,
                EngineConfig::default(),
                workers,
                Some(plan),
            );
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                short_search(3).run(&mut fj, &mut t)
            }))
            .expect_err("the scripted panic must end the search");
            assert_eq!(
                fj.regions(),
                at,
                "the region that failed is the last one run"
            );
            drop(fj);
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        });
        assert!(
            msg.contains("fork-join worker panicked")
                && msg.contains(&format!("slice {slice} panics in region {at}")),
            "workers={workers} slice={slice} at={at}: {msg}"
        );
    }
    // A slice nobody owns never fires: the run is the fault-free one.
    let (tree, aln) = search_dataset();
    let plan = Arc::new(FaultPlan::parse("rank=2,region=1").unwrap());
    let mut t = tree.clone();
    let mut fj =
        ForkJoinEvaluator::with_fault_plan(&tree, &aln, EngineConfig::default(), 1, Some(plan));
    assert!(short_search(1)
        .run(&mut fj, &mut t)
        .log_likelihood
        .is_finite());
}

#[test]
fn transient_checkpoint_io_errors_are_retried_through() {
    let dir = TestDir::new("fi-retry");
    let path = dir.join("retry.ckp");
    let _ = std::fs::remove_file(&path);

    let (tree, aln) = search_dataset();
    let mut ft = FtConfig::new(2);
    ft.checkpoint = Some(path.clone());
    // First two write attempts fail; the default policy retries five
    // times, so the run must still complete and leave a valid file.
    ft.fault_plan = Some(Arc::new(FaultPlan::checkpoint_write_errors(1, 2)));
    ft.retry.base_backoff = Duration::from_millis(1);
    let out = run_replicated_ft(&tree, &aln, EngineConfig::default(), short_search(2), &ft)
        .expect("transient I/O errors within the retry budget must not kill the run");
    let cp = Checkpoint::load(&path).expect("checkpoint must be parseable after retries");
    assert!((cp.log_likelihood - out.result.log_likelihood).abs() <= 1e-9);
}

#[test]
fn persistent_checkpoint_io_errors_preserve_the_previous_snapshot() {
    let dir = TestDir::new("fi-keep");
    let path = dir.join("keep.ckp");
    let _ = std::fs::remove_file(&path);
    let (tree, aln) = search_dataset();
    let cfg = EngineConfig::default();

    // Seed a valid snapshot with a clean short run.
    let mut ft = FtConfig::new(2);
    ft.checkpoint = Some(path.clone());
    run_replicated_ft(&tree, &aln, cfg, short_search(1), &ft).unwrap();
    let before = std::fs::read_to_string(&path).unwrap();

    // Resume with every subsequent write failing: the run reports the
    // checkpoint error group-wide within bounded time, and the file on
    // disk is still byte-for-byte the last good snapshot (atomic
    // replace never exposes a partial write).
    ft.fault_plan = Some(Arc::new(FaultPlan::checkpoint_write_errors(1, u64::MAX)));
    ft.retry.attempts = 2;
    ft.retry.base_backoff = Duration::from_millis(1);
    let err = within_deadline(120, {
        let (tree, aln, ft) = (tree.clone(), aln.clone(), ft.clone());
        move || run_replicated_ft(&tree, &aln, cfg, short_search(3), &ft).unwrap_err()
    });
    assert!(
        matches!(err, ReplicatedError::Checkpoint(_)),
        "expected a checkpoint error, got {err:?}"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        before,
        "failed writes must not corrupt the previous snapshot"
    );
    Checkpoint::load(&path).expect("snapshot must still parse");
}

#[test]
fn degrade_and_resume_matches_uninterrupted_lower_rank_run() {
    let dir = TestDir::new("fi-degrade");
    let (tree, aln) = search_dataset();
    let cfg = EngineConfig::default();

    // Phase 1: a 3-rank run checkpoints after round 1.
    let seed_path = dir.join("seed.ckp");
    let mut seed_ft = FtConfig::new(3);
    seed_ft.checkpoint = Some(seed_path.clone());
    run_replicated_ft(&tree, &aln, cfg, short_search(1), &seed_ft).unwrap();

    // Two identical copies of the snapshot, one per scenario.
    let killed_path = dir.join("killed.ckp");
    let clean_path = dir.join("clean.ckp");
    std::fs::copy(&seed_path, &killed_path).unwrap();
    std::fs::copy(&seed_path, &clean_path).unwrap();

    // Scenario A: resume at 3 ranks, rank 1 dies early in the next
    // round (before any new snapshot lands), --degrade re-splits over
    // the 2 survivors which reload the same round-1 snapshot.
    let err_then_degrade = within_deadline(180, {
        let (tree, aln) = (tree.clone(), aln.clone());
        let mut ft = FtConfig::new(3);
        ft.degrade = true;
        ft.checkpoint = Some(killed_path.clone());
        ft.fault_plan = Some(Arc::new(FaultPlan::rank_death(1, 10)));
        move || run_replicated_ft(&tree, &aln, cfg, short_search(4), &ft).unwrap()
    });
    assert_eq!(
        err_then_degrade.rank_likelihoods.len(),
        2,
        "must have finished on the survivors"
    );

    // Scenario B: an uninterrupted 2-rank run resuming from the same
    // snapshot — the ground truth the degraded run must reproduce.
    let clean = {
        let mut ft = FtConfig::new(2);
        ft.checkpoint = Some(clean_path.clone());
        run_replicated_ft(&tree, &aln, cfg, short_search(4), &ft).unwrap()
    };

    assert!(
        (err_then_degrade.result.log_likelihood - clean.result.log_likelihood).abs() <= 1e-9,
        "degraded resume {} vs uninterrupted 2-rank {}",
        err_then_degrade.result.log_likelihood,
        clean.result.log_likelihood
    );
    assert_eq!(err_then_degrade.result.newick, clean.result.newick);
}

#[test]
fn weights_of_zero_are_tolerated() {
    // Zero-weight patterns contribute nothing but must not break the
    // kernels (RAxML generates them when partitions mask sites).
    use phylomic::bio::DnaCode;
    let a = DnaCode::from_char('A').unwrap();
    let g = DnaCode::from_char('G').unwrap();
    let ca = CompressedAlignment::from_parts(
        vec!["a".into(), "b".into(), "c".into()],
        vec![vec![a, g], vec![a, a], vec![g, a]],
        vec![3, 0],
    )
    .unwrap();
    let tree = newick::parse("(a:0.2,b:0.2,c:0.2);").unwrap();
    let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
    let ll = engine.log_likelihood(&tree, 0);
    assert!(ll.is_finite());

    // Must equal the same data without the zero-weight pattern.
    let ca2 = CompressedAlignment::from_parts(
        vec!["a".into(), "b".into(), "c".into()],
        vec![vec![a], vec![a], vec![g]],
        vec![3],
    )
    .unwrap();
    let mut engine2 = LikelihoodEngine::new(&tree, &ca2, EngineConfig::default());
    let ll2 = engine2.log_likelihood(&tree, 0);
    assert!((ll - ll2).abs() < 1e-10, "{ll} vs {ll2}");
}
