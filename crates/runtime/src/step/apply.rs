//! Phase 2: next-state computation against the frozen configuration.
//!
//! Composite atomicity means every move of a step reads the pre-step
//! configuration; writes land only at the mover itself. The phase is
//! therefore a pure map over the move list, and the commit (done by
//! the simulator, in selection order) never feeds a write back into a
//! read of the same step.

use ssr_graph::{Graph, NodeId};

use crate::algorithm::{Algorithm, ConfigView, RuleId};

/// Computes the next state of each `(process, rule)` move into `out`
/// (cleared first; `out[i]` pairs with `moves[i]`).
pub(crate) fn compute_next_states<A: Algorithm>(
    graph: &Graph,
    algo: &A,
    states: &[A::State],
    moves: &[(NodeId, RuleId)],
    out: &mut Vec<A::State>,
) {
    out.clear();
    let view = ConfigView::new(graph, states);
    for &(u, rule) in moves {
        out.push(algo.apply(u, &view, rule));
    }
}
