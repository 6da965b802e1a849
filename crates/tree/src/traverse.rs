//! Directed traversals.
//!
//! The PLF computes conditional likelihood arrays *toward* a virtual
//! root: for the root edge `(a, b)` every inner node's CLA must be
//! oriented away from the root edge. These traversals produce the
//! post-order schedules that drive `newview` calls.

use crate::tree::{EdgeId, NodeId, Tree};

/// A directed view of a node: `node` looking away from `toward_edge`
/// (i.e. `toward_edge` leads toward the virtual root).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Directed {
    /// The node whose subtree is described.
    pub node: NodeId,
    /// The incident edge pointing toward the root side.
    pub toward_edge: EdgeId,
}

/// The two children of an inner node seen from direction `toward_edge`:
/// each child is `(connecting edge, child node)`.
///
/// # Panics
/// Panics when `node` is a tip or `toward_edge` is not incident.
pub fn children(tree: &Tree, node: NodeId, toward_edge: EdgeId) -> [(EdgeId, NodeId); 2] {
    assert!(!tree.is_tip(node), "tips have no children");
    let mut out = [(usize::MAX, usize::MAX); 2];
    let mut k = 0;
    for &e in tree.incident(node) {
        if e == toward_edge {
            continue;
        }
        assert!(k < 2, "toward_edge {toward_edge} not incident to {node}");
        out[k] = (e, tree.other_end(e, node));
        k += 1;
    }
    assert_eq!(k, 2, "toward_edge {toward_edge} not incident to {node}");
    out
}

/// Post-order sequence of *inner* nodes in the subtree hanging off
/// `side` when edge `e` is cut; each entry is directed toward `e`.
///
/// Children always precede parents, so executing `newview` in this
/// order yields valid CLAs for every listed node. Tips are omitted:
/// their "CLA" is the encoded sequence data itself.
pub fn postorder_inner(tree: &Tree, e: EdgeId, side: NodeId) -> Vec<Directed> {
    let mut buf = ScheduleBuf::default();
    buf.push_postorder(tree, e, side, &|_| false);
    buf.order
}

/// Post-order schedule for evaluating the likelihood at virtual-root
/// edge `root`: all inner nodes of both sides, children first.
pub fn full_schedule(tree: &Tree, root: EdgeId) -> Vec<Directed> {
    let mut buf = ScheduleBuf::default();
    buf.refill(tree, root, |_| false);
    buf.order
}

/// The buffers behind [`full_schedule`], for a caller that asks for a
/// schedule per likelihood call: refilled in place, they stop
/// allocating once they have held the tree's inner nodes.
#[derive(Debug, Default)]
pub struct ScheduleBuf {
    order: Vec<Directed>,
    /// Iterative post-order: (node, toward_edge, expanded?).
    stack: Vec<(NodeId, EdgeId, bool)>,
}

impl ScheduleBuf {
    /// Replaces the contents by [`full_schedule`]`(tree, root)` minus
    /// every subtree whose top node `skip` names, and returns it: a
    /// skipped node is left out together with everything below it, the
    /// rest keeps the order it has in the full schedule. `skip` is
    /// asked once per inner node reached, top down.
    pub fn refill(
        &mut self,
        tree: &Tree,
        root: EdgeId,
        skip: impl Fn(Directed) -> bool,
    ) -> &[Directed] {
        self.order.clear();
        let (a, b) = tree.endpoints(root);
        self.push_postorder(tree, root, a, &skip);
        self.push_postorder(tree, root, b, &skip);
        &self.order
    }

    fn push_postorder(
        &mut self,
        tree: &Tree,
        e: EdgeId,
        side: NodeId,
        skip: &impl Fn(Directed) -> bool,
    ) {
        self.stack.push((side, e, false));
        while let Some((node, toward, expanded)) = self.stack.pop() {
            if tree.is_tip(node) {
                continue;
            }
            if expanded {
                self.order.push(Directed {
                    node,
                    toward_edge: toward,
                });
            } else if !skip(Directed {
                node,
                toward_edge: toward,
            }) {
                self.stack.push((node, toward, true));
                for (ce, child) in children(tree, node, toward) {
                    self.stack.push((child, ce, false));
                }
            }
        }
    }
}

/// Depth-first pre-order walk over the edges other than `start` that
/// lie within `radius` hops of it (distance counts nodes crossed):
/// `visit(edge, distance)` for the edges behind `start`'s first
/// endpoint, then for those behind its second; an edge comes before
/// the edges behind it, siblings in `incident` order. Iterative, so a
/// caterpillar costs heap, not call stack.
fn walk_depth_first(
    tree: &Tree,
    start: EdgeId,
    radius: usize,
    mut visit: impl FnMut(EdgeId, usize),
) {
    if radius == 0 {
        return;
    }
    // (edge, its end away from `start`, distance); pushed in reverse
    // so that pops come in `incident` order.
    let mut stack = Vec::new();
    let behind = |stack: &mut Vec<_>, e: EdgeId, node: NodeId, dist: usize| {
        for &e2 in tree.incident(node).iter().rev() {
            if e2 != e {
                stack.push((e2, tree.other_end(e2, node), dist));
            }
        }
    };
    let (a, b) = tree.endpoints(start);
    behind(&mut stack, start, b, 1);
    behind(&mut stack, start, a, 1);
    while let Some((e, far, dist)) = stack.pop() {
        visit(e, dist);
        if dist < radius {
            behind(&mut stack, e, far, dist + 1);
        }
    }
}

/// Every edge exactly once, `start` first, each one directly after an
/// edge it shares a node with or after a finished subtree. This is the
/// order in which a search should re-root: moving the virtual root to
/// an adjacent edge crosses one inner node, so with one CLA per node
/// the step costs about one `newview` instead of the path between two
/// unrelated edges (RAxML's `smoothTree` recursion).
pub fn edges_depth_first(tree: &Tree, start: EdgeId) -> Vec<EdgeId> {
    let mut order = Vec::with_capacity(tree.num_edges());
    order.push(start);
    walk_depth_first(tree, start, usize::MAX, |e, _| order.push(e));
    order
}

/// The edges within `radius` hops of `start` (excluding `start`
/// itself) with their distances, in the depth-first order of
/// [`edges_depth_first`] cut off at `radius`. Distance counts nodes
/// crossed. Used for RAxML-style bounded SPR regrafting: consecutive
/// targets are adjacent, or a finished subtree apart. Sorting stably
/// by distance gives the breadth-first order (edges of one distance
/// come in the same relative order in both).
pub fn edges_within_dist(tree: &Tree, start: EdgeId, radius: usize) -> Vec<(EdgeId, usize)> {
    let mut result = Vec::new();
    walk_depth_first(tree, start, radius, |e, dist| result.push((e, dist)));
    result
}

/// The edges of [`edges_within_dist`] without their distances.
pub fn edges_within(tree: &Tree, start: EdgeId, radius: usize) -> Vec<EdgeId> {
    let mut result = Vec::new();
    walk_depth_first(tree, start, radius, |e, _| result.push(e));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::parse;

    fn six_taxon() -> Tree {
        parse("((a:0.1,b:0.1):0.1,c:0.1,(d:0.1,(e:0.1,f:0.1):0.1):0.1);").unwrap()
    }

    #[test]
    fn children_excludes_root_direction() {
        let t = six_taxon();
        let a = t.tip_by_name("a").unwrap();
        let e = t.incident(a)[0];
        let inner = t.other_end(e, a);
        // From the inner node joining a and b, looking toward a's edge:
        let kids = children(&t, inner, e);
        let kid_nodes: Vec<_> = kids.iter().map(|(_, n)| *n).collect();
        assert!(kid_nodes.contains(&t.tip_by_name("b").unwrap()));
        assert!(!kid_nodes.contains(&a));
    }

    #[test]
    fn postorder_children_before_parents() {
        let t = six_taxon();
        // Root on a's pendant edge: the far side contains all 4 inner
        // nodes.
        let a = t.tip_by_name("a").unwrap();
        let e = t.incident(a)[0];
        let side = t.other_end(e, a);
        let order = postorder_inner(&t, e, side);
        assert_eq!(order.len(), t.num_inner());
        // Every node's children (inner ones) must appear earlier.
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, d)| (d.node, i)).collect();
        for d in &order {
            for (_, child) in children(&t, d.node, d.toward_edge) {
                if !t.is_tip(child) {
                    assert!(pos[&child] < pos[&d.node]);
                }
            }
        }
    }

    #[test]
    fn full_schedule_covers_all_inner_nodes_once() {
        let t = six_taxon();
        for root in t.edge_ids() {
            let sched = full_schedule(&t, root);
            let mut nodes: Vec<_> = sched.iter().map(|d| d.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), t.num_inner(), "root edge {root}");
        }
    }

    #[test]
    fn tip_side_is_empty() {
        let t = six_taxon();
        let a = t.tip_by_name("a").unwrap();
        let e = t.incident(a)[0];
        assert!(postorder_inner(&t, e, a).is_empty());
    }

    #[test]
    fn edges_within_radius_grows() {
        let t = six_taxon();
        let e0 = 0;
        let r1 = edges_within(&t, e0, 1);
        let r3 = edges_within(&t, e0, 3);
        assert!(r1.len() < r3.len());
        assert!(!r1.contains(&e0));
        // Radius large enough reaches all other edges.
        let all = edges_within(&t, e0, 100);
        assert_eq!(all.len(), t.num_edges() - 1);
    }

    #[test]
    fn schedule_buffer_refills_to_the_fresh_schedule() {
        let t = six_taxon();
        let mut buf = ScheduleBuf::default();
        for root in t.edge_ids().chain([0]) {
            assert_eq!(
                buf.refill(&t, root, |_| false),
                full_schedule(&t, root),
                "root {root}"
            );
        }
    }

    #[test]
    fn a_skipped_node_takes_its_subtree_out_of_the_schedule() {
        let t = six_taxon();
        let a = t.tip_by_name("a").unwrap();
        let root = t.incident(a)[0];
        let full = full_schedule(&t, root);
        let mut buf = ScheduleBuf::default();
        for top in &full {
            let below: Vec<NodeId> = postorder_inner(&t, top.toward_edge, top.node)
                .iter()
                .map(|d| d.node)
                .collect();
            let expect: Vec<Directed> = full
                .iter()
                .copied()
                .filter(|d| !below.contains(&d.node))
                .collect();
            assert_eq!(buf.refill(&t, root, |d| d == *top), expect, "top {top:?}");
        }
        assert!(buf.refill(&t, root, |_| true).is_empty());
    }

    /// The breadth-first body `edges_within` had before the search
    /// moved to depth-first orders, with the distances it assigned.
    fn edges_within_bfs(tree: &Tree, start: EdgeId, radius: usize) -> Vec<(EdgeId, usize)> {
        let mut dist = vec![usize::MAX; tree.num_edges()];
        dist[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        let mut result = Vec::new();
        while let Some(e) = queue.pop_front() {
            if dist[e] >= radius {
                continue;
            }
            let (a, b) = tree.endpoints(e);
            for node in [a, b] {
                for &e2 in tree.incident(node) {
                    if dist[e2] == usize::MAX {
                        dist[e2] = dist[e] + 1;
                        result.push((e2, dist[e2]));
                        queue.push_back(e2);
                    }
                }
            }
        }
        result
    }

    fn share_a_node(tree: &Tree, e: EdgeId, f: EdgeId) -> bool {
        let (a, b) = tree.endpoints(e);
        let (c, d) = tree.endpoints(f);
        a == c || a == d || b == c || b == d
    }

    #[test]
    fn depth_first_orders_finish_on_a_500_taxon_caterpillar() {
        use crate::build::{caterpillar, default_names};
        let t = caterpillar(&default_names(500), 0.1).unwrap();
        for start in [0, t.num_edges() / 2, t.num_edges() - 1] {
            let order = edges_depth_first(&t, start);
            assert_eq!(order.len(), t.num_edges());
            assert_eq!(edges_within(&t, start, usize::MAX).len(), t.num_edges() - 1);
            let mut near = edges_within(&t, start, 400);
            let mut bfs: Vec<EdgeId> = edges_within_bfs(&t, start, 400)
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            near.sort_unstable();
            bfs.sort_unstable();
            assert_eq!(near, bfs);
        }
    }

    mod random_trees {
        use super::*;
        use crate::build::{default_names, random_tree};
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn edges_depth_first_is_a_connected_permutation(
                seed in 0u64..1 << 32,
                taxa in 4usize..=40,
                start_frac in 0.0f64..1.0,
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let t = random_tree(&default_names(taxa), 0.1, &mut rng).unwrap();
                let start = (start_frac * t.num_edges() as f64) as usize;
                let order = edges_depth_first(&t, start);
                prop_assert_eq!(order[0], start);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, t.edge_ids().collect::<Vec<_>>());
                for (i, &e) in order.iter().enumerate().skip(1) {
                    prop_assert!(
                        order[..i].iter().any(|&f| share_a_node(&t, e, f)),
                        "edge {} at position {} touches no earlier edge", e, i
                    );
                }
                // The re-rooting cost the order is chosen for: a step
                // either moves to an adjacent edge or leaves a finished
                // subtree, and at most one step in three does the latter
                // (every inner node is left at most once).
                let jumps = order
                    .windows(2)
                    .filter(|w| !share_a_node(&t, w[0], w[1]))
                    .count();
                prop_assert!(jumps <= t.num_inner(), "{} jumps", jumps);
            }

            #[test]
            fn edges_within_is_the_breadth_first_set(
                seed in 0u64..1 << 32,
                taxa in 4usize..=40,
                start_frac in 0.0f64..1.0,
            ) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let t = random_tree(&default_names(taxa), 0.1, &mut rng).unwrap();
                let start = (start_frac * t.num_edges() as f64) as usize;
                for radius in 0..=6 {
                    let bfs = edges_within_bfs(&t, start, radius);
                    let with_dist = edges_within_dist(&t, start, radius);
                    let plain = edges_within(&t, start, radius);
                    prop_assert!(!plain.contains(&start));
                    prop_assert_eq!(
                        &plain,
                        &with_dist.iter().map(|&(e, _)| e).collect::<Vec<_>>()
                    );
                    // Same set, same distances; and the stable sort by
                    // distance is the breadth-first sequence itself,
                    // which is what lets a caller break ties the way
                    // the breadth-first enumeration did.
                    let mut by_dist = with_dist.clone();
                    by_dist.sort_by_key(|&(_, d)| d);
                    prop_assert_eq!(by_dist, bfs, "radius {}", radius);
                    // Depth-first: each edge follows the one it hangs
                    // off, or a finished subtree.
                    for (i, &(e, d)) in with_dist.iter().enumerate() {
                        let parent_ok = if d == 1 {
                            share_a_node(&t, e, start)
                        } else {
                            with_dist[..i]
                                .iter()
                                .rev()
                                .find(|&&(_, d2)| d2 < d)
                                .is_some_and(|&(f, d2)| d2 + 1 == d && share_a_node(&t, e, f))
                        };
                        prop_assert!(parent_ok, "edge {} at distance {}", e, d);
                    }
                }
            }
        }
    }
}
