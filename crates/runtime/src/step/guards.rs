//! Phase 3: guard re-evaluation over the refresh set.
//!
//! Guards read the closed neighborhood only (§2.2), so after a step
//! exactly the movers and their neighbors can change enabledness. The
//! refresh set is collected in the canonical order (each mover, then
//! its neighbors in adjacency order, first touch wins) and the masks
//! are evaluated over that list — masks depend only on the
//! already-committed states, never on other masks. The simulator then
//! applies the resulting transitions in list order, which keeps the
//! enabled-set index byte-identical to the pre-pipeline engine.

use ssr_graph::{Graph, NodeId};

use crate::algorithm::{Algorithm, ConfigView, RuleId, RuleMask};

/// Collects the deduplicated refresh set of a step into `out`
/// (cleared first): each mover, then its neighbors in adjacency
/// order; `touched_stamp` entries are set to `stamp` as nodes are
/// first seen.
pub(crate) fn collect_refresh_targets(
    graph: &Graph,
    moves: &[(NodeId, RuleId)],
    touched_stamp: &mut [u64],
    stamp: u64,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let mut touch = |u: NodeId, out: &mut Vec<NodeId>| {
        if touched_stamp[u.index()] != stamp {
            touched_stamp[u.index()] = stamp;
            out.push(u);
        }
    };
    for &(u, _) in moves {
        touch(u, out);
        let deg = graph.degree(u);
        for k in 0..deg {
            touch(graph.neighbor_at(u, k), out);
        }
    }
}

/// Evaluates the enabled mask of every node of `nodes` into `out`
/// (cleared first; `out[i]` is the mask of `nodes[i]`).
pub(crate) fn compute_masks<A: Algorithm>(
    graph: &Graph,
    algo: &A,
    states: &[A::State],
    nodes: &[NodeId],
    out: &mut Vec<RuleMask>,
) {
    out.clear();
    let view = ConfigView::new(graph, states);
    for &u in nodes {
        out.push(algo.enabled_mask(u, &view));
    }
}
