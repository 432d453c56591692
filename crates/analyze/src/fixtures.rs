//! Planted-violation families the analyzer must flag.
//!
//! These are real, runnable [`Family`] implementations registered in
//! tests and in the CI self-test (`analyze --fixtures`): if the
//! analyzer ever stops reporting them, the gate itself is broken.
//!
//! * [`FarSightFamily`] — a guard that reads two hops away, violating
//!   the §2.2 locality obligation (and, when the far node is itself
//!   enabled, non-adjacent commutativity).
//! * [`ShadowedPairFamily`] — a rule that is only ever enabled
//!   together with a lower-index rule, so it can never fire under the
//!   default lowest-index resolution.

use ssr_graph::{Graph, NodeId};
use ssr_runtime::analysis::{
    audit_runs, collect_footprints, rule_names, AnalyzeFamily, AnalyzeOptions, GraphAnalysis,
    RngAudit,
};
use ssr_runtime::{
    run_traced, Algorithm, Daemon, Family, FamilyRunOutcome, InitPlan, RuleId, RuleMask, RunSeeds,
    Simulator, StateView, TraceSink,
};

// ---------------------------------------------------------------------
// FarSight: a non-local guard
// ---------------------------------------------------------------------

/// Flood whose guard peeks **two hops** out: a node catches when any
/// node at distance ≤ 2 is infected. The distance-2 reads are exactly
/// what the locality obligation forbids.
#[derive(Clone, Copy, Debug)]
pub struct FarSight;

impl Algorithm for FarSight {
    type State = bool;

    fn rule_count(&self) -> usize {
        1
    }

    fn rule_name(&self, _: RuleId) -> &'static str {
        "catch@2"
    }

    fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
        if *view.state(u) {
            return RuleMask::NONE;
        }
        let g = view.graph();
        let mut infected_nearby = false;
        for &v in g.neighbors(u) {
            if *view.state(v) {
                infected_nearby = true;
            }
            // The planted defect: reading the neighbors' neighbors.
            for &w in g.neighbors(v) {
                if *view.state(w) && w != u {
                    infected_nearby = true;
                }
            }
        }
        RuleMask::from_bool(infected_nearby)
    }

    fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
        true
    }
}

/// The registrable family around [`FarSight`].
pub struct FarSightFamily;

fn far_sight_seeds(graph: &Graph) -> Vec<Vec<bool>> {
    let n = graph.node_count();
    let mut seeds = vec![vec![false; n]];
    for i in 0..n {
        let mut s = vec![false; n];
        s[i] = true;
        seeds.push(s);
    }
    seeds
}

impl Family for FarSightFamily {
    fn id(&self) -> &str {
        "fixture-far-sight"
    }

    fn run(
        &self,
        graph: &Graph,
        _init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        cap: u64,
        trace: &mut Option<Box<dyn TraceSink>>,
    ) -> FamilyRunOutcome {
        let mut init = vec![false; graph.node_count()];
        init[0] = true;
        let mut sim = Simulator::new(graph, FarSight, init, daemon.clone(), seeds.sim);
        let out = run_traced(&mut sim, trace, |sim| sim.execution().cap(cap).run());
        FamilyRunOutcome::from_run(&out, sim.stats().steps)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for FarSightFamily {
    fn rule_names(&self, _graph: &Graph) -> Vec<String> {
        rule_names(&FarSight)
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        collect_footprints(graph, graph_name, &FarSight, &far_sight_seeds(graph), opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        audit_runs(graph, &FarSight, &far_sight_seeds(graph), opts)
    }
}

// ---------------------------------------------------------------------
// ShadowedPair: a rule that can never fire first
// ---------------------------------------------------------------------

/// Two rules over a `u8` state with **identical guards** (`state == 0`)
/// and distinct actions. Rule 1 is only ever enabled together with
/// rule 0, so the default lowest-index resolution can never fire it —
/// the planted rule-table defect.
#[derive(Clone, Copy, Debug)]
pub struct ShadowedPair;

impl Algorithm for ShadowedPair {
    type State = u8;

    fn rule_count(&self) -> usize {
        2
    }

    fn rule_name(&self, r: RuleId) -> &'static str {
        ["settle", "shadowed"][r.index()]
    }

    fn enabled_mask<V: StateView<u8>>(&self, u: NodeId, view: &V) -> RuleMask {
        let zero = *view.state(u) == 0;
        RuleMask::from_bool(zero).with_if(RuleId(1), zero)
    }

    fn apply<V: StateView<u8>>(&self, _: NodeId, _: &V, r: RuleId) -> u8 {
        match r.index() {
            0 => 1,
            _ => 2,
        }
    }
}

/// The registrable family around [`ShadowedPair`].
pub struct ShadowedPairFamily;

fn shadowed_seeds(graph: &Graph) -> Vec<Vec<u8>> {
    let n = graph.node_count();
    let mut seeds = vec![vec![0u8; n]];
    for i in 0..n {
        let mut s = vec![1u8; n];
        s[i] = 0;
        seeds.push(s);
    }
    seeds
}

impl Family for ShadowedPairFamily {
    fn id(&self) -> &str {
        "fixture-shadowed-pair"
    }

    fn run(
        &self,
        graph: &Graph,
        _init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        cap: u64,
        trace: &mut Option<Box<dyn TraceSink>>,
    ) -> FamilyRunOutcome {
        let init = vec![0u8; graph.node_count()];
        let mut sim = Simulator::new(graph, ShadowedPair, init, daemon.clone(), seeds.sim);
        let out = run_traced(&mut sim, trace, |sim| sim.execution().cap(cap).run());
        FamilyRunOutcome::from_run(&out, sim.stats().steps)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for ShadowedPairFamily {
    fn rule_names(&self, _graph: &Graph) -> Vec<String> {
        rule_names(&ShadowedPair)
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        collect_footprints(
            graph,
            graph_name,
            &ShadowedPair,
            &shadowed_seeds(graph),
            opts,
        )
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        audit_runs(graph, &ShadowedPair, &shadowed_seeds(graph), opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_family;
    use ssr_runtime::FindingKind;

    #[test]
    fn far_sight_flagged_with_actionable_diagnostics() {
        let report = analyze_family(&FarSightFamily, &AnalyzeOptions::default());
        assert!(!report.certified());
        let non_local: Vec<_> = report
            .findings()
            .filter(|f| f.kind == FindingKind::NonLocalGuard)
            .collect();
        assert!(!non_local.is_empty(), "distance-2 reads must be reported");
        assert!(
            non_local
                .iter()
                .all(|f| f.detail.contains("distance 2") && f.graph.is_some()),
            "diagnostics name the distance and the graph: {non_local:?}"
        );
        // The far node can itself be enabled, so commutativity breaks too.
        assert!(report
            .findings()
            .any(|f| f.kind == FindingKind::NonCommutative));
    }

    #[test]
    fn shadowed_pair_flagged_with_actionable_diagnostics() {
        let report = analyze_family(&ShadowedPairFamily, &AnalyzeOptions::default());
        assert!(!report.certified());
        let shadowed: Vec<_> = report
            .findings()
            .filter(|f| f.kind == FindingKind::ShadowedRule)
            .collect();
        assert_eq!(shadowed.len(), 1, "exactly rule 1 is shadowed");
        assert_eq!(shadowed[0].rule.as_deref(), Some("shadowed"));
        assert!(
            shadowed[0].detail.contains("lowest-index"),
            "diagnostic explains the default resolution: {}",
            shadowed[0].detail
        );
        // Locality itself is fine in this fixture.
        assert!(!report
            .findings()
            .any(|f| f.kind == FindingKind::NonLocalGuard));
    }

    #[test]
    fn fixtures_are_runnable_families() {
        let g = ssr_graph::generators::ring(5);
        let out = FarSightFamily.run(
            &g,
            &InitPlan::Normal,
            &Daemon::Synchronous,
            RunSeeds {
                init: 7,
                sim: 8,
                fault: 9,
            },
            1_000,
            &mut None,
        );
        assert!(out.terminal, "far-sight flood terminates");
    }
}
