//! The unrooted binary tree arena.

use crate::error::TreeError;
use std::sync::Arc;

/// Node identifier. Tips are `0..num_taxa`, inner nodes follow.
pub type NodeId = usize;

/// Edge identifier, `0..(2·num_taxa − 3)` on a complete tree.
pub type EdgeId = usize;

/// Minimum branch length accepted anywhere (matches RAxML's
/// `zmin`-style clamping).
pub const BL_MIN: f64 = 1e-8;

/// Maximum branch length accepted anywhere.
pub const BL_MAX: f64 = 100.0;

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Edge {
    pub a: NodeId,
    pub b: NodeId,
    pub length: f64,
}

/// The edges at one node, held inline: a binary tree's nodes have at
/// most three, so the list is a fixed array and a [`Tree`]'s whole
/// adjacency is one allocation. Order is insertion order, removal is
/// `swap_remove` — what the `Vec` this replaces did, so every traversal
/// order is unchanged.
///
/// Three slots are enough for every move, transient states included:
/// where SPR's dissolve step and NNI's swap used to push a fourth edge
/// onto a node before removing another, they now put the incoming edge
/// in the outgoing one's place ([`Tree::replace_incident`]), which is
/// what push-then-`swap_remove` amounts to. A push onto a full node is
/// a [`TreeError`], never a panic and never a dropped edge.
#[derive(Clone, Copy, Debug, Default)]
struct Incident {
    edges: [EdgeId; Incident::CAPACITY],
    len: u8,
}

impl Incident {
    const CAPACITY: usize = 3;

    fn as_slice(&self) -> &[EdgeId] {
        &self.edges[..usize::from(self.len)]
    }

    /// Appends `e`; `false` (and no change) when the node is full.
    #[must_use]
    fn push(&mut self, e: EdgeId) -> bool {
        if usize::from(self.len) == Self::CAPACITY {
            return false;
        }
        self.edges[usize::from(self.len)] = e;
        self.len += 1;
        true
    }

    fn position(&self, e: EdgeId) -> Option<usize> {
        self.as_slice().iter().position(|&x| x == e)
    }

    fn swap_remove(&mut self, pos: usize) {
        debug_assert!(pos < usize::from(self.len));
        self.len -= 1;
        self.edges[pos] = self.edges[usize::from(self.len)];
    }
}

/// An unrooted binary tree over `n ≥ 3` named tips.
///
/// Invariants (checked by [`Tree::validate`] and preserved by all
/// public operations): tips have degree 1, inner nodes degree 3, the
/// graph is connected with `2n − 2` nodes and `2n − 3` edges, and all
/// branch lengths lie in `[BL_MIN, BL_MAX]`.
///
/// A clone copies two flat arrays (adjacency, edges) and bumps the
/// reference count of the shared tip names; [`Clone::clone_from`]
/// copies them into the arrays the target already has, which is how a
/// fork-join region refreshes its snapshot without allocating.
#[derive(Debug)]
pub struct Tree {
    num_taxa: usize,
    /// Shared by every clone; a tree's names never change.
    names: Arc<[String]>,
    /// `adj[node]` = edge ids incident to `node`.
    adj: Vec<Incident>,
    edges: Vec<Edge>,
}

impl Clone for Tree {
    fn clone(&self) -> Self {
        Tree {
            num_taxa: self.num_taxa,
            names: Arc::clone(&self.names),
            adj: self.adj.clone(),
            edges: self.edges.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.num_taxa = source.num_taxa;
        if !Arc::ptr_eq(&self.names, &source.names) {
            self.names = Arc::clone(&source.names);
        }
        self.adj.clone_from(&source.adj);
        self.edges.clone_from(&source.edges);
    }
}

impl Tree {
    /// Creates the unique 3-taxon star tree with the given branch
    /// lengths from each tip to the single inner node (id 3).
    pub fn triplet(names: [&str; 3], lengths: [f64; 3]) -> Result<Self, TreeError> {
        let mut t = Tree {
            num_taxa: 3,
            names: names.iter().map(|s| s.to_string()).collect(),
            adj: vec![Incident::default(); 4],
            edges: Vec::with_capacity(3),
        };
        for (tip, &length) in lengths.iter().enumerate() {
            t.push_edge(tip, 3, length)?;
        }
        t.validate()?;
        Ok(t)
    }

    pub(crate) fn push_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        length: f64,
    ) -> Result<EdgeId, TreeError> {
        let length = Self::check_length(length)?;
        let id = self.edges.len();
        self.attach_both(id, a, b)?;
        self.edges.push(Edge { a, b, length });
        Ok(id)
    }

    /// Appends `e` to `node`'s incident list (the edge record is the
    /// caller's to set). A full node is an error and stays as it was.
    pub(crate) fn attach_incident(&mut self, node: NodeId, e: EdgeId) -> Result<(), TreeError> {
        if self.adj[node].push(e) {
            Ok(())
        } else {
            Err(TreeError::BadId(format!(
                "node {node} already has {} edges, cannot attach edge {e}",
                Incident::CAPACITY
            )))
        }
    }

    /// Appends `e` to the incident lists of both its endpoints, or to
    /// neither.
    fn attach_both(&mut self, e: EdgeId, a: NodeId, b: NodeId) -> Result<(), TreeError> {
        self.attach_incident(a, e)?;
        self.attach_incident(b, e)
            .inspect_err(|_| self.adj[a].len -= 1)
    }

    pub(crate) fn check_length(length: f64) -> Result<f64, TreeError> {
        if !length.is_finite() || length < 0.0 {
            return Err(TreeError::BadBranchLength(length));
        }
        Ok(length.clamp(BL_MIN, BL_MAX))
    }

    /// Creates a partially built tree whose node arena is sized for the
    /// full taxon set (`2n − 2` slots), containing only the initial
    /// triplet of tips 0, 1, 2 joined at inner node `n`. Used by the
    /// stepwise builder; the result does NOT satisfy [`Tree::validate`]
    /// until all taxa are attached.
    pub(crate) fn star_in_arena(
        names: Vec<String>,
        initial_length: f64,
    ) -> Result<Self, TreeError> {
        let n = names.len();
        if n < 3 {
            return Err(TreeError::TooFewTaxa(n));
        }
        let mut t = Tree {
            num_taxa: n,
            names: names.into(),
            adj: vec![Incident::default(); 2 * n - 2],
            edges: Vec::with_capacity(2 * n - 3),
        };
        for tip in 0..3 {
            t.push_edge(tip, n, initial_length)?;
        }
        Ok(t)
    }

    /// Splits `edge` = (a, b) at a fresh inner node and hangs a fresh
    /// tip off it. The kept edge id becomes (a, inner) with half the
    /// original length, a new edge (inner, b) gets the other half, and
    /// the pendant edge (inner, tip) gets `pendant_length`.
    pub(crate) fn split_edge_attach(
        &mut self,
        edge: EdgeId,
        inner: NodeId,
        tip: NodeId,
        pendant_length: f64,
    ) -> Result<(), TreeError> {
        if inner >= self.adj.len() || tip >= self.num_taxa {
            return Err(TreeError::BadId(format!(
                "split ids out of range: inner={inner}, tip={tip}"
            )));
        }
        if self.adj[inner].len != 0 || self.adj[tip].len != 0 {
            return Err(TreeError::BadId(format!(
                "split targets already attached: inner={inner}, tip={tip}"
            )));
        }
        let (_, b) = self.endpoints(edge);
        let half = Self::check_length(self.edges[edge].length / 2.0)?;
        // Re-point the kept edge's `b` endpoint at the new inner node.
        self.reattach_edge(edge, b, inner)?;
        self.edges[edge].length = half;
        self.push_edge(inner, b, half)?;
        self.push_edge(inner, tip, pendant_length)?;
        Ok(())
    }

    /// Builds a tree from raw parts (used by the Newick parser and the
    /// constructors in [`crate::build`]); validates all invariants. The
    /// adjacency arrives as growable lists and is packed here, where a
    /// node of more than three edges is refused.
    pub(crate) fn from_parts(
        names: Vec<String>,
        adj: Vec<Vec<EdgeId>>,
        edges: Vec<Edge>,
    ) -> Result<Self, TreeError> {
        let mut t = Tree {
            num_taxa: names.len(),
            names: names.into(),
            adj: vec![Incident::default(); adj.len()],
            edges,
        };
        for (node, inc) in adj.iter().enumerate() {
            for &e in inc {
                t.attach_incident(node, e)?;
            }
        }
        t.validate()?;
        Ok(t)
    }

    /// Number of tips.
    pub fn num_taxa(&self) -> usize {
        self.num_taxa
    }

    /// Total number of nodes (`2n − 2`).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of inner nodes (`n − 2`).
    pub fn num_inner(&self) -> usize {
        self.num_nodes() - self.num_taxa
    }

    /// Number of edges (`2n − 3`).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether `node` is a tip.
    pub fn is_tip(&self, node: NodeId) -> bool {
        node < self.num_taxa
    }

    /// Name of tip `node`.
    ///
    /// # Panics
    /// Panics when `node` is not a tip.
    pub fn tip_name(&self, node: NodeId) -> &str {
        assert!(self.is_tip(node), "node {node} is not a tip");
        &self.names[node]
    }

    /// All tip names in id order.
    pub fn tip_names(&self) -> &[String] {
        &self.names
    }

    /// The allocation behind [`Tree::tip_names`], shared by every clone
    /// of this tree: a holder of a clone of the `Arc` can tell "same
    /// names" by `Arc::ptr_eq` without comparing strings.
    pub fn shared_tip_names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// Id of the tip with the given name.
    pub fn tip_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name)
    }

    /// The two endpoints of an edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e];
        (edge.a, edge.b)
    }

    /// Branch length of an edge.
    pub fn length(&self, e: EdgeId) -> f64 {
        self.edges[e].length
    }

    /// Sets the branch length of an edge, clamped to `[BL_MIN, BL_MAX]`.
    pub fn set_length(&mut self, e: EdgeId, length: f64) -> Result<(), TreeError> {
        self.edges[e].length = Self::check_length(length)?;
        Ok(())
    }

    /// The endpoint of `e` that is not `node`.
    ///
    /// # Panics
    /// Panics when `node` is not an endpoint of `e`.
    pub fn other_end(&self, e: EdgeId, node: NodeId) -> NodeId {
        let edge = &self.edges[e];
        if edge.a == node {
            edge.b
        } else {
            assert_eq!(edge.b, node, "node {node} not on edge {e}");
            edge.a
        }
    }

    /// Edges incident to `node` (1 for tips, 3 for inner nodes).
    pub fn incident(&self, node: NodeId) -> &[EdgeId] {
        self.adj[node].as_slice()
    }

    /// Neighbor nodes of `node` with the connecting edge.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.incident(node)
            .iter()
            .map(move |&e| (e, self.other_end(e, node)))
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        0..self.edges.len()
    }

    /// Every edge in id order as `(endpoint, endpoint, length)`: what
    /// [`Tree::endpoints`] and [`Tree::length`] return edge by edge,
    /// in one pass over the arena.
    pub fn edge_records(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.edges.iter().map(|e| (e.a, e.b, e.length))
    }

    /// All internal edges (both endpoints inner nodes).
    pub fn internal_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_ids().filter(move |&e| {
            let (a, b) = self.endpoints(e);
            !self.is_tip(a) && !self.is_tip(b)
        })
    }

    /// Sum of all branch lengths.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.length).sum()
    }

    /// Checks every structural invariant; returns a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.num_taxa < 3 {
            return Err(TreeError::TooFewTaxa(self.num_taxa));
        }
        let n = self.num_taxa;
        if self.adj.len() != 2 * n - 2 {
            return Err(TreeError::BadId(format!(
                "expected {} nodes, found {}",
                2 * n - 2,
                self.adj.len()
            )));
        }
        if self.edges.len() != 2 * n - 3 {
            return Err(TreeError::BadId(format!(
                "expected {} edges, found {}",
                2 * n - 3,
                self.edges.len()
            )));
        }
        for (node, inc) in self.adj.iter().enumerate() {
            let inc = inc.as_slice();
            let want = if node < n { 1 } else { 3 };
            if inc.len() != want {
                return Err(TreeError::BadId(format!(
                    "node {node} has degree {}, expected {want}",
                    inc.len()
                )));
            }
            for &e in inc {
                let edge = self.edges.get(e).ok_or_else(|| {
                    TreeError::BadId(format!("node {node} references missing edge {e}"))
                })?;
                if edge.a != node && edge.b != node {
                    return Err(TreeError::BadId(format!(
                        "edge {e} does not touch node {node}"
                    )));
                }
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if !(BL_MIN..=BL_MAX).contains(&e.length) {
                return Err(TreeError::BadBranchLength(e.length));
            }
            if e.a == e.b {
                return Err(TreeError::BadId(format!("edge {i} is a self-loop")));
            }
        }
        // Connectivity via DFS.
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &e in self.incident(v) {
                let w = self.other_end(e, v);
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        if count != self.adj.len() {
            return Err(TreeError::BadId(format!(
                "tree is disconnected: reached {count} of {} nodes",
                self.adj.len()
            )));
        }
        Ok(())
    }

    /// Replaces one endpoint of an edge; internal helper for moves.
    /// Fails, changing nothing, when `to` already has three edges.
    pub(crate) fn reattach_edge(
        &mut self,
        e: EdgeId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), TreeError> {
        self.attach_incident(to, e)?;
        self.detach_edge(e, from);
        self.set_endpoint(e, from, to);
        Ok(())
    }

    /// Re-points the record of edge `e` from `from` to `to`; the
    /// incident lists are the caller's to update.
    pub(crate) fn set_endpoint(&mut self, e: EdgeId, from: NodeId, to: NodeId) {
        let edge = &mut self.edges[e];
        if edge.a == from {
            edge.a = to;
        } else {
            debug_assert_eq!(edge.b, from);
            edge.b = to;
        }
    }

    /// Removes edge `e` from `node`'s adjacency list only; the edge
    /// record stays allocated so its id can be re-used by a later
    /// [`Tree::attach_edge`]. Internal helper for SPR.
    pub(crate) fn detach_edge(&mut self, e: EdgeId, node: NodeId) {
        let pos = self.adj[node]
            .position(e)
            .expect("edge not attached to node");
        self.adj[node].swap_remove(pos);
    }

    /// Puts edge `new` where edge `old` is in `node`'s adjacency list
    /// — the list a push of `new` followed by a detach of `old` would
    /// leave, without the node ever holding both. Adjacency only, like
    /// [`Tree::detach_edge`].
    pub(crate) fn replace_incident(&mut self, node: NodeId, old: EdgeId, new: EdgeId) {
        let pos = self.adj[node]
            .position(old)
            .expect("edge not attached to node");
        self.adj[node].edges[pos] = new;
    }

    /// Re-purposes a detached edge record to connect `a` and `b`.
    pub(crate) fn attach_edge(
        &mut self,
        e: EdgeId,
        a: NodeId,
        b: NodeId,
        length: f64,
    ) -> Result<(), TreeError> {
        let length = Self::check_length(length)?;
        self.attach_both(e, a, b)?;
        self.edges[e] = Edge { a, b, length };
        Ok(())
    }

    /// Computes the unrooted topology's set of non-trivial splits
    /// (bipartitions), each represented as the lexicographically
    /// smaller side's sorted tip *names* — name-based so trees with
    /// different internal tip numbering (e.g. after a Newick
    /// round-trip) compare correctly. Used for Robinson-Foulds
    /// distances in tests and the search.
    pub fn splits(&self) -> Vec<Vec<String>> {
        let mut result = Vec::new();
        for e in self.internal_edges() {
            let (a, _b) = self.endpoints(e);
            let mut side: Vec<String> = self
                .tips_behind(e, a)
                .into_iter()
                .map(|t| self.names[t].clone())
                .collect();
            side.sort_unstable();
            let mut complement: Vec<String> = self
                .names
                .iter()
                .filter(|n| !side.contains(n))
                .cloned()
                .collect();
            complement.sort_unstable();
            let canon = if side < complement { side } else { complement };
            result.push(canon);
        }
        result.sort();
        result
    }

    /// Tip ids in the component containing `side` after removing edge
    /// `e`.
    pub fn tips_behind(&self, e: EdgeId, side: NodeId) -> Vec<NodeId> {
        let mut tips = Vec::new();
        let mut stack = vec![side];
        let mut seen = vec![false; self.num_nodes()];
        seen[side] = true;
        while let Some(v) = stack.pop() {
            if self.is_tip(v) {
                tips.push(v);
            }
            for &e2 in self.incident(v) {
                if e2 == e {
                    continue;
                }
                let w = self.other_end(e2, v);
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        tips
    }

    /// Robinson-Foulds distance to another tree over the same taxa.
    pub fn rf_distance(&self, other: &Tree) -> usize {
        let a = self.splits();
        let b = other.splits();
        let in_both = a.iter().filter(|s| b.contains(s)).count();
        (a.len() - in_both) + (b.len() - in_both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_structure() {
        let t = Tree::triplet(["a", "b", "c"], [0.1, 0.2, 0.3]).unwrap();
        assert_eq!(t.num_taxa(), 3);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.num_inner(), 1);
        assert!(t.is_tip(0) && t.is_tip(2) && !t.is_tip(3));
        assert_eq!(t.tip_name(1), "b");
        assert_eq!(t.tip_by_name("c"), Some(2));
        assert!((t.total_length() - 0.6).abs() < 1e-12);
        t.validate().unwrap();
    }

    #[test]
    fn other_end_and_neighbors() {
        let t = Tree::triplet(["a", "b", "c"], [0.1, 0.1, 0.1]).unwrap();
        let e = t.incident(0)[0];
        assert_eq!(t.other_end(e, 0), 3);
        assert_eq!(t.other_end(e, 3), 0);
        let nbrs: Vec<NodeId> = t.neighbors(3).map(|(_, n)| n).collect();
        assert_eq!(nbrs.len(), 3);
        assert!(nbrs.contains(&0) && nbrs.contains(&1) && nbrs.contains(&2));
    }

    #[test]
    fn set_length_clamps() {
        let mut t = Tree::triplet(["a", "b", "c"], [0.1, 0.1, 0.1]).unwrap();
        t.set_length(0, 1e-30).unwrap();
        assert_eq!(t.length(0), BL_MIN);
        t.set_length(0, 1e9).unwrap();
        assert_eq!(t.length(0), BL_MAX);
        assert!(t.set_length(0, f64::NAN).is_err());
        assert!(t.set_length(0, -1.0).is_err());
    }

    #[test]
    fn clones_share_the_tip_names() {
        let t = crate::newick::parse("((a:0.1,b:0.2):0.3,c:0.4,(d:0.5,e:0.6):0.7);").unwrap();
        let c = t.clone();
        assert!(Arc::ptr_eq(t.shared_tip_names(), c.shared_tip_names()));
        assert_eq!(c.tip_names(), t.tip_names());
        // The same text parsed again is the same content elsewhere.
        let again = crate::newick::parse(&crate::newick::to_newick(&t)).unwrap();
        assert!(!Arc::ptr_eq(t.shared_tip_names(), again.shared_tip_names()));
        assert_eq!(again.tip_names(), t.tip_names());
    }

    #[test]
    fn clone_from_copies_into_the_arrays_it_has() {
        let big = crate::newick::parse("((a:0.1,b:0.2):0.3,c:0.4,(d:0.5,e:0.6):0.7);").unwrap();
        let mut small = Tree::triplet(["x", "y", "z"], [0.1, 0.2, 0.3]).unwrap();
        let mut buf = big.clone();
        let (adj, edges) = (buf.adj.as_ptr(), buf.edges.as_ptr());
        // A smaller tree, then the first one edited: content follows
        // the source each time, the allocations stay where they were.
        buf.clone_from(&small);
        assert_eq!(
            crate::newick::to_newick(&buf),
            crate::newick::to_newick(&small)
        );
        assert!(Arc::ptr_eq(
            buf.shared_tip_names(),
            small.shared_tip_names()
        ));
        small.set_length(1, 0.9).unwrap();
        buf.clone_from(&small);
        assert_eq!(buf.length(1), 0.9);
        buf.clone_from(&big);
        assert_eq!(
            crate::newick::to_newick(&buf),
            crate::newick::to_newick(&big)
        );
        buf.validate().unwrap();
        assert_eq!((buf.adj.as_ptr(), buf.edges.as_ptr()), (adj, edges));
    }

    #[test]
    fn from_parts_refuses_a_fourth_edge_at_a_node() {
        // Four tips on one inner node.
        let names = ["a", "b", "c", "d"].map(String::from).to_vec();
        let adj = vec![vec![0], vec![1], vec![2], vec![3], vec![0, 1, 2, 3]];
        let edges = (0..4)
            .map(|tip| Edge {
                a: tip,
                b: 4,
                length: 0.1,
            })
            .collect();
        let err = Tree::from_parts(names, adj, edges).unwrap_err();
        assert!(
            matches!(&err, TreeError::BadId(m) if m.contains("node 4")),
            "{err}"
        );
    }

    #[test]
    fn reattaching_onto_a_full_node_fails_and_changes_nothing() {
        let mut t = crate::newick::parse("((a:0.1,b:0.2):0.3,c:0.4,(d:0.5,e:0.6):0.7);").unwrap();
        let a = t.tip_by_name("a").unwrap();
        let pendant = t.incident(a)[0];
        let from = t.other_end(pendant, a);
        // Any other inner node already has its three edges.
        let to = (t.num_taxa()..t.num_nodes()).find(|&n| n != from).unwrap();
        let lists = |t: &Tree| -> Vec<Vec<EdgeId>> {
            (0..t.num_nodes()).map(|n| t.incident(n).to_vec()).collect()
        };
        let (before, ends) = (lists(&t), t.endpoints(pendant));
        assert!(matches!(
            t.reattach_edge(pendant, from, to),
            Err(TreeError::BadId(_))
        ));
        assert!(t.attach_edge(pendant, from, to, 0.1).is_err());
        assert_eq!(lists(&t), before);
        assert_eq!(t.endpoints(pendant), ends);
        t.validate().unwrap();
    }

    #[test]
    fn triplet_has_no_internal_edges_or_splits() {
        let t = Tree::triplet(["a", "b", "c"], [0.1, 0.1, 0.1]).unwrap();
        assert_eq!(t.internal_edges().count(), 0);
        assert!(t.splits().is_empty());
    }
}
