//! Tree constructors: random and caterpillar topologies.

use crate::error::TreeError;
use crate::tree::{EdgeId, NodeId, Tree};
use rand::Rng;

/// Incrementally grows an unrooted binary tree by stepwise taxon
/// addition, the same mechanism RAxML uses for randomized starting
/// trees. `Clone` allows trial insertions (parsimony scoring of every
/// candidate edge) without committing.
#[derive(Clone)]
pub struct StepwiseBuilder {
    tree: Tree,
    /// Next taxon id to attach (`3..num_taxa`).
    next_tip: NodeId,
    /// Next inner node id to allocate.
    next_inner: NodeId,
    target_taxa: usize,
}

impl StepwiseBuilder {
    /// Starts from the triplet of the first three names.
    ///
    /// `names` must contain at least three entries; all of them are
    /// reserved tip ids up front so node numbering matches the final
    /// tree.
    pub fn new(names: &[String], initial_length: f64) -> Result<Self, TreeError> {
        let n = names.len();
        let t = Tree::star_in_arena(names.to_vec(), initial_length)?;
        Ok(StepwiseBuilder {
            tree: t,
            next_tip: 3,
            next_inner: n + 1, // inner node `n` is used by the triplet
            target_taxa: n,
        })
    }

    /// Edges currently present (attachment candidates).
    pub fn current_edges(&self) -> Vec<EdgeId> {
        (0..self.edge_count()).collect()
    }

    fn edge_count(&self) -> usize {
        // Edges grow by 2 per attached taxon: 3 + 2*(attached - 3).
        3 + 2 * (self.next_tip - 3)
    }

    /// Attaches the next taxon by splitting `edge`; the new inner node
    /// sits in the middle of `edge` and the new pendant branch gets
    /// `pendant_length`.
    pub fn attach_next(&mut self, edge: EdgeId, pendant_length: f64) -> Result<(), TreeError> {
        if self.next_tip >= self.target_taxa {
            return Err(TreeError::InvalidMove("all taxa already attached".into()));
        }
        if edge >= self.edge_count() {
            return Err(TreeError::BadId(format!("edge {edge} not yet present")));
        }
        let tip = self.next_tip;
        let inner = self.next_inner;
        self.tree
            .split_edge_attach(edge, inner, tip, pendant_length)?;
        self.next_tip += 1;
        self.next_inner += 1;
        Ok(())
    }

    /// Finishes the build; fails if taxa remain unattached.
    pub fn finish(self) -> Result<Tree, TreeError> {
        if self.next_tip != self.target_taxa {
            return Err(TreeError::InvalidMove(format!(
                "only {} of {} taxa attached",
                self.next_tip, self.target_taxa
            )));
        }
        self.tree.validate()?;
        Ok(self.tree)
    }
}

/// A uniformly random topology grown by stepwise addition at a random
/// edge, with every branch length drawn from `Exp(1/mean_length)`.
pub fn random_tree<R: Rng>(
    names: &[String],
    mean_length: f64,
    rng: &mut R,
) -> Result<Tree, TreeError> {
    let exp = move |rng: &mut R| -> f64 {
        let u: f64 = rng.random::<f64>();
        // Inverse CDF of the exponential distribution; clamp away 0.
        (-(1.0 - u).ln() * mean_length).max(1e-6)
    };
    let mut b = StepwiseBuilder::new(names, exp(rng))?;
    for _ in 3..names.len() {
        let edges = b.current_edges();
        let pick = edges[rng.random_range(0..edges.len())];
        b.attach_next(pick, exp(rng))?;
    }
    let mut t = b.finish()?;
    // Randomize every branch length (the builder reused split halves).
    for e in 0..t.num_edges() {
        t.set_length(e, exp(rng))?;
    }
    Ok(t)
}

/// A caterpillar (fully pectinate) topology: taxa attach successively
/// to the previous taxon's pendant edge. Worst case for balanced
/// traversal depth.
pub fn caterpillar(names: &[String], branch_length: f64) -> Result<Tree, TreeError> {
    let mut b = StepwiseBuilder::new(names, branch_length)?;
    for tip in 3..names.len() {
        // Pendant edge of the previously attached taxon is always the
        // most recently created pendant edge; find it by scanning.
        let prev_tip = tip - 1;
        let t = b.peek();
        let e = t.incident(prev_tip)[0];
        b.attach_next(e, branch_length)?;
    }
    b.finish()
}

/// Generates `n` taxon names `t0, t1, …` (test/bench convenience).
pub fn default_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("t{i}")).collect()
}

impl StepwiseBuilder {
    /// Read-only view of the tree under construction.
    pub fn peek(&self) -> &Tree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_tree_valid_for_various_sizes() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [3usize, 4, 5, 8, 15, 40] {
            let t = random_tree(&default_names(n), 0.1, &mut rng).unwrap();
            assert_eq!(t.num_taxa(), n);
            assert_eq!(t.num_edges(), 2 * n - 3);
            t.validate().unwrap();
        }
    }

    #[test]
    fn random_trees_differ_across_seeds() {
        let names = default_names(12);
        let a = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(1)).unwrap();
        let b = random_tree(&names, 0.1, &mut SmallRng::seed_from_u64(2)).unwrap();
        // Overwhelmingly likely to be different topologies.
        assert!(a.rf_distance(&b) > 0);
    }

    #[test]
    fn caterpillar_is_pectinate() {
        let t = caterpillar(&default_names(10), 0.05).unwrap();
        t.validate().unwrap();
        // A caterpillar over n taxa has exactly n-3 internal edges and
        // its splits are nested: sizes 2, 3, ..., n-2 on one side.
        let mut sizes: Vec<usize> = t.splits().iter().map(|s| s.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes.len(), 7);
        for w in &sizes {
            assert!(*w >= 2);
        }
    }

    #[test]
    fn builder_rejects_overattachment() {
        let names = default_names(3);
        let mut b = StepwiseBuilder::new(&names, 0.1).unwrap();
        assert!(b.attach_next(0, 0.1).is_err());
    }

    #[test]
    fn builder_never_gives_a_node_a_fourth_edge() {
        // Every insertion point of every partial tree: each step splits
        // an edge at a fresh inner node, so no node passes degree 3.
        let names = default_names(7);
        let mut b = StepwiseBuilder::new(&names, 0.1).unwrap();
        for step in 0..4 {
            let edges = b.current_edges();
            b.attach_next(edges[(step * 5) % edges.len()], 0.1).unwrap();
            let t = b.peek();
            for node in 0..t.num_nodes() {
                assert!(t.incident(node).len() <= 3, "node {node}");
            }
        }
        // Re-using an attached inner node is refused, not squeezed in.
        let mut t = b.peek().clone();
        assert!(t.split_edge_attach(0, names.len(), 3, 0.1).is_err());
        b.finish().unwrap();
    }

    #[test]
    fn builder_rejects_future_edge() {
        let names = default_names(5);
        let mut b = StepwiseBuilder::new(&names, 0.1).unwrap();
        assert!(b.attach_next(99, 0.1).is_err());
    }

    #[test]
    fn unfinished_build_rejected() {
        let names = default_names(5);
        let b = StepwiseBuilder::new(&names, 0.1).unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn too_few_names() {
        assert!(StepwiseBuilder::new(&default_names(2), 0.1).is_err());
    }
}
