//! The full maximum-likelihood search driver.
//!
//! Mirrors the RAxML-Light / ExaML "full ML tree search" the paper
//! times in Table III: alternate SPR improvement rounds with branch
//! smoothing and periodic model-parameter re-optimization until no
//! round improves the score by more than the epsilon.

use crate::branch_opt::smooth_branches;
use crate::checkpoint::RetryPolicy;
use crate::model_opt::optimize_model;
use crate::spr::spr_round;
use crate::Evaluator;
use phylo_tree::Tree;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// SPR regraft radius in edge hops (RAxML's rearrangement
    /// setting; 5–10 typical).
    pub spr_radius: usize,
    /// Stop when a full round gains less log-likelihood than this.
    pub epsilon: f64,
    /// Hard cap on improvement rounds.
    pub max_rounds: usize,
    /// Whether to optimize α and the GTR rates (off for fixed-model
    /// benchmark runs).
    pub optimize_model: bool,
    /// Branch-smoothing passes per round.
    pub smoothing_passes: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            spr_radius: 5,
            epsilon: 0.01,
            max_rounds: 20,
            optimize_model: true,
            smoothing_passes: 8,
        }
    }
}

/// Outcome of a completed search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Final log-likelihood.
    pub log_likelihood: f64,
    /// Improvement rounds executed.
    pub rounds: usize,
    /// Total SPR candidates scored.
    pub spr_evaluated: usize,
    /// Total SPR moves accepted.
    pub spr_accepted: usize,
    /// Final tree in Newick form.
    pub newick: String,
}

/// The search driver. Stateless apart from its configuration; operates
/// on a caller-owned tree and evaluator so the same instance can run
/// under any parallel scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct MlSearch {
    /// Configuration used by [`MlSearch::run`].
    pub config: SearchConfig,
}

impl MlSearch {
    /// Creates a driver with the given configuration.
    pub fn new(config: SearchConfig) -> Self {
        MlSearch { config }
    }

    /// Runs the search to convergence, mutating `tree` in place.
    pub fn run<E: Evaluator + ?Sized>(&self, evaluator: &mut E, tree: &mut Tree) -> SearchResult {
        self.run_impl(evaluator, tree, None, |_| Ok(()))
            .expect("progress hook is infallible")
    }

    /// Runs the search with round-level checkpointing: if `path`
    /// exists, the search resumes from it (restoring tree, model, and
    /// progress counters); after the initial conditioning and after
    /// every improvement round, the state is saved atomically and
    /// durably under the default bounded [`RetryPolicy`]. A write
    /// that still fails after the retries aborts the search with an
    /// error — it is *propagated*, not panicked, so the caller keeps
    /// the choice of giving up, re-pathing, or dropping to an
    /// uncheckpointed run.
    pub fn run_checkpointed<E: Evaluator + ?Sized>(
        &self,
        evaluator: &mut E,
        tree: &mut Tree,
        path: &std::path::Path,
    ) -> Result<SearchResult, String> {
        let resume = if path.exists() {
            Some(crate::checkpoint::Checkpoint::load(path)?)
        } else {
            None
        };
        let policy = RetryPolicy::default();
        self.run_resumable(evaluator, tree, resume.as_ref(), |cp| {
            cp.save_with_retry(path, &policy)
                .map_err(|e| format!("checkpoint write to {} failed: {e}", path.display()))
        })
    }

    /// The general resumable entry point the parallel schemes build
    /// on: applies `resume` (tree, model, progress counters) if
    /// given, then runs with `on_progress` called after the initial
    /// conditioning and after every improvement round. A progress
    /// error (e.g. a checkpoint write that exhausted its retries)
    /// aborts the search and is returned.
    pub fn run_resumable<E: Evaluator + ?Sized>(
        &self,
        evaluator: &mut E,
        tree: &mut Tree,
        resume: Option<&crate::checkpoint::Checkpoint>,
        on_progress: impl FnMut(&crate::checkpoint::Checkpoint) -> Result<(), String>,
    ) -> Result<SearchResult, String> {
        if let Some(cp) = resume {
            // The checkpoint came from disk: validate it here at the
            // boundary so the engine's hot paths can assume the model
            // parameters are sound.
            cp.validate()
                .map_err(|e| format!("invalid checkpoint: {e}"))?;
            *tree = cp.tree().map_err(|e| e.to_string())?;
            evaluator.set_model(cp.params);
            evaluator.set_alpha(cp.alpha);
        }
        self.run_impl(evaluator, tree, resume.cloned(), on_progress)
    }

    fn run_impl<E: Evaluator + ?Sized>(
        &self,
        evaluator: &mut E,
        tree: &mut Tree,
        resume: Option<crate::checkpoint::Checkpoint>,
        mut on_progress: impl FnMut(&crate::checkpoint::Checkpoint) -> Result<(), String>,
    ) -> Result<SearchResult, String> {
        let _search_span = plf_core::span::enter("search");
        let cfg = &self.config;
        let (mut current, start_round, mut spr_evaluated, mut spr_accepted) = match &resume {
            Some(cp) => (
                cp.log_likelihood,
                cp.rounds_done,
                cp.moves_evaluated,
                cp.moves_accepted,
            ),
            None => {
                // Initial conditioning: branch lengths, then model.
                smooth_branches(evaluator, tree, cfg.epsilon, cfg.smoothing_passes);
                if cfg.optimize_model {
                    optimize_model(evaluator, tree, 1e-3);
                    smooth_branches(evaluator, tree, cfg.epsilon, cfg.smoothing_passes);
                }
                let ll = evaluator.log_likelihood(tree, 0);
                on_progress(&self.snapshot(evaluator, tree, 0, ll, 0, 0))?;
                (ll, 0, 0, 0)
            }
        };

        let mut rounds = start_round;
        for _ in start_round..cfg.max_rounds {
            rounds += 1;
            let _round_span = plf_core::span::enter("round");
            plf_core::metrics::counter("search.rounds").inc();
            let r = spr_round(evaluator, tree, cfg.spr_radius, cfg.epsilon);
            spr_evaluated += r.evaluated;
            spr_accepted += r.accepted;
            smooth_branches(evaluator, tree, cfg.epsilon, cfg.smoothing_passes);
            // NNI polish escapes the radius-limited lazy-SPR local
            // optima (RAxML's slow descent phase).
            let n = crate::nni::nni_round(evaluator, tree, cfg.epsilon);
            spr_evaluated += n.evaluated;
            spr_accepted += n.accepted;
            smooth_branches(evaluator, tree, cfg.epsilon, cfg.smoothing_passes);
            if cfg.optimize_model {
                optimize_model(evaluator, tree, 1e-3);
            }
            let next = evaluator.log_likelihood(tree, 0);
            let gain = next - current;
            current = next;
            on_progress(&self.snapshot(
                evaluator,
                tree,
                rounds,
                current,
                spr_evaluated,
                spr_accepted,
            ))?;
            if (r.accepted == 0 && n.accepted == 0) || gain < cfg.epsilon {
                break;
            }
        }

        Ok(SearchResult {
            log_likelihood: current,
            rounds,
            spr_evaluated,
            spr_accepted,
            newick: phylo_tree::newick::to_newick(tree),
        })
    }

    fn snapshot<E: Evaluator + ?Sized>(
        &self,
        evaluator: &E,
        tree: &Tree,
        rounds_done: usize,
        log_likelihood: f64,
        moves_evaluated: usize,
        moves_accepted: usize,
    ) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint {
            newick: phylo_tree::newick::to_newick(tree),
            alpha: evaluator.alpha(),
            params: evaluator.model(),
            rounds_done,
            log_likelihood,
            moves_evaluated,
            moves_accepted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use phylo_bio::CompressedAlignment;
    use phylo_models::{DiscreteGamma, Gtr, GtrParams};
    use phylo_tree::build::{default_names, random_tree};
    use plf_core::{EngineConfig, KernelKind, LikelihoodEngine};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dataset(seed: u64, taxa: usize, sites: usize) -> (Tree, CompressedAlignment) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let names = default_names(taxa);
        let true_tree = random_tree(&names, 0.12, &mut rng).unwrap();
        let g = Gtr::new(GtrParams {
            rates: [1.2, 2.8, 0.9, 1.1, 3.3, 1.0],
            freqs: [0.3, 0.2, 0.2, 0.3],
        });
        let gamma = DiscreteGamma::new(0.8);
        let aln = phylo_seqgen::simulate_alignment(&true_tree, g.eigen(), &gamma, sites, &mut rng);
        (true_tree, CompressedAlignment::from_alignment(&aln))
    }

    #[test]
    fn full_search_recovers_truth_and_reports_consistently() {
        let (true_tree, ca) = dataset(4242, 7, 4000);
        let names = true_tree.tip_names().to_vec();
        let mut tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(5)).unwrap();
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        let search = MlSearch::new(SearchConfig {
            max_rounds: 8,
            ..Default::default()
        });
        let result = search.run(&mut engine, &mut tree);
        assert!(result.log_likelihood.is_finite());
        assert!(result.rounds >= 1);
        assert_eq!(tree.rf_distance(&true_tree), 0, "topology not recovered");
        // Reported newick round-trips to the same topology.
        let parsed = phylo_tree::newick::parse(&result.newick).unwrap();
        assert_eq!(parsed.rf_distance(&tree), 0);
        // Reported score matches a fresh evaluation.
        let fresh = engine.log_likelihood(&tree, 0);
        assert!((fresh - result.log_likelihood).abs() < 1e-6);
    }

    #[test]
    fn search_cannot_tell_a_pruned_walk_from_the_full_one() {
        let (_, ca) = dataset(99, 16, 600);
        let start = random_tree(&default_names(16), 0.1, &mut SmallRng::seed_from_u64(8)).unwrap();
        let cfg = EngineConfig::default();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 2,
            ..Default::default()
        });
        let mut t_full = start.clone();
        let mut e_full = LikelihoodEngine::new(&t_full, &ca, cfg);
        let r_full = search.run(&mut e_full, &mut t_full);
        assert!(r_full.spr_accepted > 0, "the search must edit the tree");
        let calls = |e: &LikelihoodEngine| e.stats().get(plf_core::KernelId::Newview).calls;
        // Same tree, same `newview`s, same stamp on every CLA, model
        // optimisation included.
        let mut t_walk = start.clone();
        let mut e_walk = LikelihoodEngine::without_pruning(&t_walk, &ca, cfg);
        let r_walk = search.run(&mut e_walk, &mut t_walk);
        assert_eq!(r_walk.newick, r_full.newick);
        assert_eq!(
            r_walk.log_likelihood.to_bits(),
            r_full.log_likelihood.to_bits()
        );
        assert_eq!(calls(&e_walk), calls(&e_full));
        for inner in 0..start.num_inner() {
            assert_eq!(e_walk.cla_stamp(inner), e_full.cla_stamp(inner), "{inner}");
        }
    }

    #[test]
    fn checkpointed_search_resumes_to_identical_result() {
        let (_, ca) = dataset(777, 7, 1500);
        let names = default_names(7);
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(4)).unwrap();
        let cfg = EngineConfig::default();
        let full_cfg = SearchConfig {
            max_rounds: 6,
            ..Default::default()
        };

        // Uninterrupted reference run.
        let mut t_ref = start.clone();
        let mut e_ref = LikelihoodEngine::new(&t_ref, &ca, cfg);
        let r_ref = MlSearch::new(full_cfg).run(&mut e_ref, &mut t_ref);

        // Interrupted run: one round, checkpoint, then resume with a
        // completely fresh engine and tree.
        let dir = TestDir::new("search-cp");
        let path = dir.join("cp.ckp");

        let mut t1 = start.clone();
        let mut e1 = LikelihoodEngine::new(&t1, &ca, cfg);
        MlSearch::new(SearchConfig {
            max_rounds: 1,
            ..full_cfg
        })
        .run_checkpointed(&mut e1, &mut t1, &path)
        .unwrap();

        // Resume twice from the same checkpoint: must be identical
        // (deterministic restart).
        let mut resumed = Vec::new();
        for _ in 0..2 {
            let mut t2 = start.clone(); // overwritten by the checkpoint
            let mut e2 = LikelihoodEngine::new(&t2, &ca, cfg);
            let scratch = dir.join(format!("cp-copy-{}.ckp", resumed.len()));
            std::fs::copy(&path, &scratch).unwrap();
            let r2 = MlSearch::new(full_cfg)
                .run_checkpointed(&mut e2, &mut t2, &scratch)
                .unwrap();
            resumed.push((r2, t2));
        }
        assert_eq!(
            resumed[0].0.log_likelihood, resumed[1].0.log_likelihood,
            "resume must be deterministic"
        );
        assert_eq!(resumed[0].1.rf_distance(&resumed[1].1), 0);

        // Trajectory-equivalence: the resumed run ends at an optimum
        // at least as good as the uninterrupted one (up to round-off;
        // the Newick round-trip renumbers nodes and edges, and with
        // them the order of SPR candidates and the edge every
        // smoothing tour starts from, so the path may differ — see
        // checkpoint.rs docs).
        let (r2, t2) = &resumed[0];
        assert!(
            r2.log_likelihood >= r_ref.log_likelihood - 0.1,
            "resumed {} much worse than uninterrupted {}",
            r2.log_likelihood,
            r_ref.log_likelihood
        );
        let _ = t2;
    }

    #[test]
    fn checkpoint_write_failure_is_propagated_not_panicked() {
        let (_, ca) = dataset(31, 5, 400);
        let names = default_names(5);
        let mut tree = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(2)).unwrap();
        let mut engine = LikelihoodEngine::new(&tree, &ca, EngineConfig::default());
        // The checkpoint "directory" is a plain file, so every write
        // attempt (and every retry) fails with NotADirectory-ish
        // errors. The search must surface that as Err, not unwind.
        let dir = TestDir::new("search-notadir");
        let occupied = dir.join("occupied");
        std::fs::write(&occupied, b"occupied").unwrap();
        let path = occupied.join("run.ckp");
        let search = MlSearch::new(SearchConfig {
            max_rounds: 1,
            ..Default::default()
        });
        let err = search
            .run_resumable(&mut engine, &mut tree, None, |cp| {
                cp.save_with_retry(&path, &crate::checkpoint::RetryPolicy::none())
                    .map_err(|e| format!("checkpoint write failed: {e}"))
            })
            .unwrap_err();
        assert!(err.contains("checkpoint write failed"), "got: {err}");
    }

    #[test]
    fn depth_first_search_converges_where_the_edge_order_search_did() {
        // What the search found on this input when smoothing walked
        // the edges by id and SPR scored its targets breadth-first
        // (the commit before the depth-first orders): 4 rounds, 46 of
        // 2882 moves accepted, 21 019 `newview`s. The depth-first
        // tours change the order of the Newton updates, hence the
        // trajectory — not where it ends.
        const EDGE_ORDER_LOGL: f64 = -13067.854441;
        const EDGE_ORDER_TREE: &str = "((((t17,t13),((t21,t16),((t1,t10),(t23,t5)))),t11),\
            (((t20,t6),t15),(((t12,((t7,t19),t2)),t4),((((t3,(t14,t8)),t22),t18),t9))),t0);";
        let (_, ca) = dataset(2024, 24, 800);
        let mut tree =
            random_tree(&default_names(24), 0.1, &mut SmallRng::seed_from_u64(24)).unwrap();
        let mut engine = LikelihoodEngine::new(
            &tree,
            &ca,
            EngineConfig {
                kernel: KernelKind::Scalar,
                alpha: 0.8,
                ..EngineConfig::default()
            },
        );
        let search = MlSearch::new(SearchConfig {
            optimize_model: false,
            ..Default::default()
        });
        let result = search.run(&mut engine, &mut tree);
        assert!(result.rounds < search.config.max_rounds, "not converged");
        assert!(
            result.log_likelihood >= EDGE_ORDER_LOGL - 0.01,
            "{} fell below {EDGE_ORDER_LOGL}",
            result.log_likelihood
        );
        let reference = phylo_tree::newick::parse(EDGE_ORDER_TREE).unwrap();
        assert_eq!(tree.rf_distance(&reference), 0);
        // The point of the orders: about half the `newview`s.
        let calls = engine.stats().get(plf_core::KernelId::Newview).calls;
        assert!(calls < 21_019 * 2 / 3, "{calls} newviews");
    }

    #[test]
    fn all_kernel_backends_find_the_same_tree() {
        let (_, ca) = dataset(99, 6, 1200);
        let names = default_names(6);
        let start = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(8)).unwrap();
        let search = MlSearch::new(SearchConfig {
            max_rounds: 4,
            optimize_model: false,
            ..Default::default()
        });

        let mut reference: Option<(Tree, f64)> = None;
        for kernel in [KernelKind::Scalar, KernelKind::Simd] {
            let mut tree = start.clone();
            let mut engine = LikelihoodEngine::new(
                &tree,
                &ca,
                EngineConfig {
                    kernel,
                    alpha: 0.8,
                    ..EngineConfig::default()
                },
            );
            let result = search.run(&mut engine, &mut tree);
            match &reference {
                None => reference = Some((tree, result.log_likelihood)),
                Some((t0, ll0)) => {
                    assert_eq!(t0.rf_distance(&tree), 0, "{kernel} found a different tree");
                    assert!(
                        (ll0 - result.log_likelihood).abs() < 1e-6,
                        "{kernel}: {ll0} vs {}",
                        result.log_likelihood
                    );
                }
            }
        }
    }
}
