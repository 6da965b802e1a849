//! Topology rearrangements: NNI and SPR.
//!
//! RAxML-Light's search is built on *subtree pruning and regrafting*
//! (SPR) with a bounded regraft radius; *nearest-neighbor interchange*
//! (NNI) is the radius-1 special case, also used for local polishing.
//! Both moves preserve every arena invariant, so a search loop can
//! apply them in place.

use crate::error::TreeError;
use crate::tree::{EdgeId, NodeId, Tree};

/// Which of the two possible NNI rearrangements around an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NniVariant {
    /// Swap the first neighbor of `u` with the first neighbor of `v`.
    First,
    /// Swap the first neighbor of `u` with the second neighbor of `v`.
    Second,
}

/// Performs a nearest-neighbor interchange across internal edge `e`.
///
/// Writing `e = (u, v)` with neighbor subtrees `A, B` on `u` and
/// `C, D` on `v` (in ascending edge-id order), the tree `((A,B),(C,D))`
/// becomes `((C,B),(A,D))` (variant `First`) or `((D,B),(C,A))`
/// (variant `Second`). Returns the pair of subtree edges that were
/// swapped; feeding that pair back into [`nni_swap`] undoes the move.
pub fn nni(tree: &mut Tree, e: EdgeId, variant: NniVariant) -> Result<(EdgeId, EdgeId), TreeError> {
    let (u, v) = tree.endpoints(e);
    if tree.is_tip(u) || tree.is_tip(v) {
        return Err(TreeError::InvalidMove(format!(
            "NNI requires an internal edge, edge {e} touches a tip"
        )));
    }
    let mut ua: Vec<EdgeId> = tree
        .incident(u)
        .iter()
        .copied()
        .filter(|&x| x != e)
        .collect();
    let mut va: Vec<EdgeId> = tree
        .incident(v)
        .iter()
        .copied()
        .filter(|&x| x != e)
        .collect();
    ua.sort_unstable();
    va.sort_unstable();
    debug_assert_eq!(ua.len(), 2);
    debug_assert_eq!(va.len(), 2);
    let ea = ua[0];
    let ec = match variant {
        NniVariant::First => va[0],
        NniVariant::Second => va[1],
    };
    nni_swap(tree, e, ea, ec)?;
    Ok((ea, ec))
}

/// Swaps the two subtrees hanging off edges `x` and `y`, which must be
/// attached to opposite endpoints of internal edge `e`. Calling
/// `nni_swap` twice with the same arguments is the identity.
pub fn nni_swap(tree: &mut Tree, e: EdgeId, x: EdgeId, y: EdgeId) -> Result<(), TreeError> {
    let (u, v) = tree.endpoints(e);
    if tree.is_tip(u) || tree.is_tip(v) {
        return Err(TreeError::InvalidMove(format!(
            "NNI requires an internal edge, edge {e} touches a tip"
        )));
    }
    let side_of = |edge: EdgeId| -> Option<NodeId> {
        if edge == e {
            return None;
        }
        if tree.incident(u).contains(&edge) {
            Some(u)
        } else if tree.incident(v).contains(&edge) {
            Some(v)
        } else {
            None
        }
    };
    match (side_of(x), side_of(y)) {
        (Some(su), Some(sv)) if su != sv => {
            // `x` leaves `su` and takes `y`'s place at `sv`; `y` is
            // appended at `su`. Neither node ever holds four edges.
            tree.detach_edge(x, su);
            tree.replace_incident(sv, y, x);
            tree.set_endpoint(x, su, sv);
            tree.attach_incident(su, y)?;
            tree.set_endpoint(y, sv, su);
            debug_assert!(tree.validate().is_ok());
            Ok(())
        }
        _ => Err(TreeError::InvalidMove(format!(
            "edges {x} and {y} are not on opposite ends of edge {e}"
        ))),
    }
}

/// Description of an applied SPR move, sufficient to undo it.
#[derive(Clone, Copy, Debug)]
pub struct SprUndo {
    prune_edge: EdgeId,
    /// The inner attachment node that was dissolved and re-used.
    attachment: NodeId,
    /// Edge that was extended when the attachment node was dissolved.
    merged_edge: EdgeId,
    /// Its original endpoint lengths (merged_edge, removed_edge).
    merged_lengths: (f64, f64),
    /// The node the merged edge originally connected to `attachment`.
    merged_far: NodeId,
    /// The edge that was split at regraft time.
    regraft_edge: EdgeId,
    /// Original length of the regraft edge.
    regraft_length: f64,
    /// Endpoint of the regraft edge that was re-pointed at
    /// `attachment`.
    regraft_moved_end: NodeId,
    /// The edge re-used as the second half of the split.
    reused_edge: EdgeId,
}

/// Prunes the subtree hanging off `prune_edge` on the side of
/// `subtree_root`, and regrafts it into `regraft_edge`.
///
/// `prune_edge = (r, p)` where `r = subtree_root`; `p` must be an inner
/// node (the attachment point that travels with the pruned branch).
/// `regraft_edge` must lie in the remaining tree, not be incident to
/// `p`, and not be `prune_edge` itself.
///
/// The regraft edge `(s, t)` is split in half around `p`. Returns an
/// [`SprUndo`] that [`spr_undo`] can use to restore the exact previous
/// tree (topology and branch lengths).
pub fn spr(
    tree: &mut Tree,
    prune_edge: EdgeId,
    subtree_root: NodeId,
    regraft_edge: EdgeId,
) -> Result<SprUndo, TreeError> {
    let p = tree.other_end(prune_edge, subtree_root);
    if tree.is_tip(p) {
        return Err(TreeError::InvalidMove(
            "prune attachment point must be an inner node".into(),
        ));
    }
    if regraft_edge == prune_edge {
        return Err(TreeError::InvalidMove(
            "regraft onto the pruned edge".into(),
        ));
    }
    let others: Vec<EdgeId> = tree
        .incident(p)
        .iter()
        .copied()
        .filter(|&x| x != prune_edge)
        .collect();
    debug_assert_eq!(others.len(), 2);
    let (keep, drop) = (others[0], others[1]);
    if regraft_edge == keep || regraft_edge == drop {
        return Err(TreeError::InvalidMove(
            "regraft edge is incident to the attachment point".into(),
        ));
    }
    // The regraft edge must be on the *remaining* side, otherwise the
    // move would disconnect the tree. A node is on the remaining side
    // iff it is reachable from `p` without crossing the prune edge.
    {
        let (s, t) = tree.endpoints(regraft_edge);
        if !reachable_without(tree, p, s, prune_edge) || !reachable_without(tree, p, t, prune_edge)
        {
            return Err(TreeError::InvalidMove(
                "regraft edge lies inside the pruned subtree".into(),
            ));
        }
    }

    let keep_far = tree.other_end(keep, p);
    let drop_far = tree.other_end(drop, p);
    let (lk, ld) = (tree.length(keep), tree.length(drop));

    // Dissolve p: extend `keep` to reach drop_far, where it takes the
    // place of `drop`, which is unhooked from both its ends.
    tree.detach_edge(keep, p);
    tree.replace_incident(drop_far, drop, keep);
    tree.set_endpoint(keep, p, drop_far);
    tree.set_length(keep, lk + ld)?;
    tree.detach_edge(drop, p);

    // Split the regraft edge around p, re-using `drop` as the second
    // half.
    let (_s, t) = tree.endpoints(regraft_edge);
    let lre = tree.length(regraft_edge);
    let half = (lre / 2.0).max(crate::tree::BL_MIN);
    tree.reattach_edge(regraft_edge, t, p)?;
    tree.set_length(regraft_edge, half)?;
    tree.attach_edge(drop, p, t, half)?;

    debug_assert!(tree.validate().is_ok());
    Ok(SprUndo {
        prune_edge,
        attachment: p,
        merged_edge: keep,
        merged_lengths: (lk, ld),
        merged_far: keep_far,
        regraft_edge,
        regraft_length: lre,
        regraft_moved_end: t,
        reused_edge: drop,
    })
}

/// Reverts an SPR performed by [`spr`]. Must be called on the same tree
/// with no intervening modifications.
pub fn spr_undo(tree: &mut Tree, undo: SprUndo) -> Result<(), TreeError> {
    let p = undo.attachment;
    // Unsplit the regraft edge.
    let t = undo.regraft_moved_end;
    tree.detach_edge(undo.reused_edge, t);
    tree.detach_edge(undo.reused_edge, p);
    tree.reattach_edge(undo.regraft_edge, p, t)?;
    tree.set_length(undo.regraft_edge, undo.regraft_length)?;
    // Re-insert p into the merged edge.
    let far = tree.other_end(undo.merged_edge, undo.merged_far);
    tree.reattach_edge(undo.merged_edge, far, p)?;
    tree.set_length(undo.merged_edge, undo.merged_lengths.0)?;
    tree.attach_edge(undo.reused_edge, p, far, undo.merged_lengths.1)?;
    let _ = undo.prune_edge;
    debug_assert!(tree.validate().is_ok());
    Ok(())
}

/// Whether `target` is reachable from `from` without crossing `cut`.
fn reachable_without(tree: &Tree, from: NodeId, target: NodeId, cut: EdgeId) -> bool {
    let mut seen = vec![false; tree.num_nodes()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(v) = stack.pop() {
        if v == target {
            return true;
        }
        for &e in tree.incident(v) {
            if e == cut {
                continue;
            }
            let w = tree.other_end(e, v);
            if !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newick::parse;

    fn six_taxon() -> Tree {
        parse("((a:0.1,b:0.2):0.3,c:0.4,(d:0.5,(e:0.6,f:0.7):0.8):0.9);").unwrap()
    }

    #[test]
    fn nni_changes_topology() {
        let mut t = six_taxon();
        let orig = t.clone();
        let e = t.internal_edges().next().unwrap();
        nni(&mut t, e, NniVariant::First).unwrap();
        t.validate().unwrap();
        assert!(t.rf_distance(&orig) > 0);
    }

    #[test]
    fn nni_swap_is_involutive() {
        let mut t = six_taxon();
        let orig = t.clone();
        for e in orig.internal_edges() {
            for v in [NniVariant::First, NniVariant::Second] {
                let (x, y) = nni(&mut t, e, v).unwrap();
                nni_swap(&mut t, e, x, y).unwrap();
                assert_eq!(t.rf_distance(&orig), 0, "edge {e} variant {v:?}");
            }
        }
    }

    #[test]
    fn nni_swap_rejects_same_side_edges() {
        let mut t = six_taxon();
        let e = t.internal_edges().next().unwrap();
        let (u, _v) = t.endpoints(e);
        let on_u: Vec<_> = t.incident(u).iter().copied().filter(|&x| x != e).collect();
        assert!(nni_swap(&mut t, e, on_u[0], on_u[1]).is_err());
        assert!(nni_swap(&mut t, e, e, on_u[0]).is_err());
    }

    #[test]
    fn nni_variants_differ() {
        let t0 = six_taxon();
        let e = t0.internal_edges().next().unwrap();
        let mut t1 = t0.clone();
        let mut t2 = t0.clone();
        nni(&mut t1, e, NniVariant::First).unwrap();
        nni(&mut t2, e, NniVariant::Second).unwrap();
        assert!(t1.rf_distance(&t2) > 0);
    }

    #[test]
    fn nni_rejects_terminal_edge() {
        let mut t = six_taxon();
        let a = t.tip_by_name("a").unwrap();
        let e = t.incident(a)[0];
        assert!(nni(&mut t, e, NniVariant::First).is_err());
    }

    #[test]
    fn spr_moves_subtree() {
        let mut t = six_taxon();
        let orig = t.clone();
        // Prune tip a (attachment = inner node joining a, b).
        let a = t.tip_by_name("a").unwrap();
        let prune = t.incident(a)[0];
        // Regraft onto f's pendant edge.
        let f = t.tip_by_name("f").unwrap();
        let target = t.incident(f)[0];
        spr(&mut t, prune, a, target).unwrap();
        t.validate().unwrap();
        assert!(t.rf_distance(&orig) > 0);
        // a and f are now adjacent through one inner node.
        let pa = t.other_end(t.incident(a)[0], a);
        let pf = t.other_end(t.incident(f)[0], f);
        assert_eq!(pa, pf);
    }

    #[test]
    fn spr_undo_restores_everything() {
        let t0 = six_taxon();
        let a = t0.tip_by_name("a").unwrap();
        let prune = t0.incident(a)[0];
        for target in t0.edge_ids() {
            let mut t = t0.clone();
            match spr(&mut t, prune, a, target) {
                Ok(undo) => {
                    spr_undo(&mut t, undo).unwrap();
                    assert_eq!(t.rf_distance(&t0), 0, "target {target}");
                    assert!(
                        (t.total_length() - t0.total_length()).abs() < 1e-9,
                        "target {target}"
                    );
                }
                Err(_) => continue, // invalid target, fine
            }
        }
    }

    #[test]
    fn spr_rejects_pruned_side_targets() {
        let mut t = six_taxon();
        // Prune the (e,f) cherry: prune_edge is the edge from the
        // ef-inner node up toward d's inner node.
        let e_tip = t.tip_by_name("e").unwrap();
        let ef_inner = t.other_end(t.incident(e_tip)[0], e_tip);
        // Find the edge from ef_inner that leads away from e and f.
        let f_tip = t.tip_by_name("f").unwrap();
        let up_edge = t
            .incident(ef_inner)
            .iter()
            .copied()
            .find(|&x| {
                let o = t.other_end(x, ef_inner);
                o != e_tip && o != f_tip
            })
            .unwrap();
        // Regrafting onto e's pendant edge (inside the pruned subtree)
        // must fail. Note subtree_root = ef_inner side.
        let e_pendant = t.incident(e_tip)[0];
        assert!(spr(&mut t, up_edge, ef_inner, e_pendant).is_err());
    }

    #[test]
    fn spr_rejects_adjacent_and_self_targets() {
        let mut t = six_taxon();
        let a = t.tip_by_name("a").unwrap();
        let prune = t.incident(a)[0];
        assert!(spr(&mut t, prune, a, prune).is_err());
        let p = t.other_end(prune, a);
        for &e in t.clone().incident(p) {
            if e != prune {
                assert!(spr(&mut t, prune, a, e).is_err());
            }
        }
    }

    #[test]
    fn spr_preserves_tip_set() {
        let mut t = six_taxon();
        let d = t.tip_by_name("d").unwrap();
        let prune = t.incident(d)[0];
        let b = t.tip_by_name("b").unwrap();
        let target = t.incident(b)[0];
        spr(&mut t, prune, d, target).unwrap();
        let mut names: Vec<_> = t.tip_names().to_vec();
        names.sort();
        assert_eq!(names, ["a", "b", "c", "d", "e", "f"]);
    }
}
