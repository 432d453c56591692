//! Phase 1: rule resolution for the daemon's selected set.
//!
//! Daemon selection itself lives in [`crate::daemon`]; this module
//! resolves which enabled rule each selected process fires. Both are
//! the head of the pipeline: they own every RNG draw of the step, so
//! the later phases never touch the random stream.

use ssr_graph::NodeId;

use crate::algorithm::{RuleId, RuleMask};
use crate::rng::Xoshiro256StarStar;

/// Resolves the fired rule of every selected process, in selection
/// order, into `out` (cleared first).
///
/// With `random_rule_choice`, a process whose mask holds several rules
/// draws one uniformly (one RNG draw per such process, in selection
/// order — part of the determinism contract); otherwise the
/// lowest-index enabled rule fires.
pub(crate) fn resolve_rules(
    masks: &[RuleMask],
    random_rule_choice: bool,
    rng: &mut Xoshiro256StarStar,
    selected: &[NodeId],
    out: &mut Vec<(NodeId, RuleId)>,
) {
    out.clear();
    for &u in selected {
        let mask = masks[u.index()];
        debug_assert!(!mask.is_empty(), "daemon selected a disabled process");
        let rule = if random_rule_choice && mask.count() > 1 {
            let k = rng.below(mask.count() as u64) as u32;
            mask.iter().nth(k as usize).expect("mask has k-th rule")
        } else {
            mask.first().expect("mask non-empty")
        };
        out.push((u, rule));
    }
}
