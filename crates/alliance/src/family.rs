//! The (f,g)-alliance algorithm families: the silent composition
//! `FGA ∘ SDR` (labels `fga-sdr:<preset>`) and standalone FGA from
//! `γ_init` (labels `fga:<preset>`), one family instance per §6.1
//! preset, registrable in any
//! [`FamilyRegistry`](ssr_runtime::family::FamilyRegistry).

use ssr_core::{validate, ResetInput, Standalone};
use ssr_graph::Graph;
use ssr_runtime::analysis::{
    audit_runs, collect_footprints, AnalyzeFamily, AnalyzeOptions, GraphAnalysis, RngAudit,
};
use ssr_runtime::exhaustive::ExploreOptions;
use ssr_runtime::family::{
    explore_sample_seeds, explore_with_replay, run_traced, stochastic_max_runs, AlgorithmSpec,
    Bounds, ExploreFamily, ExploreReport, Family, FamilyRunOutcome, InitPlan, RunSeeds,
    StochasticMax, Verdict,
};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Algorithm, ConfigView, Daemon, Simulator, TraceSink};

use crate::fga::{fga_sdr, FgaSdr};
use crate::presets::PresetSpec;
use crate::verify::{self, AllianceObserver};

/// The spec handle `fga-sdr:<preset>`.
pub fn fga_sdr_spec(preset: PresetSpec) -> AlgorithmSpec {
    AlgorithmSpec::colon("fga-sdr", preset.label())
}

/// The spec handle `fga:<preset>` (standalone FGA).
pub fn fga_standalone_spec(preset: PresetSpec) -> AlgorithmSpec {
    AlgorithmSpec::colon("fga", preset.label())
}

/// The family `FGA ∘ SDR` for one (f,g) preset — silent and
/// self-stabilizing (Theorems 11–14).
///
/// `Normal` starts from `γ_init`; every other plan falls back to the
/// adversarial sampler. The run goes to termination (FGA ∘ SDR is
/// silent); the verdict additionally demands the terminal
/// configuration be a sound alliance (the [`AllianceObserver`]'s
/// corner-aware 1-minimality check) within Thm 14 (rounds) and Thm 12
/// (moves).
#[derive(Clone, Debug)]
pub struct FgaSdrFamily {
    preset: PresetSpec,
    id: String,
}

impl FgaSdrFamily {
    /// The family for `preset`.
    pub fn new(preset: PresetSpec) -> Self {
        FgaSdrFamily {
            preset,
            id: fga_sdr_spec(preset).label(),
        }
    }

    /// The underlying preset.
    pub fn preset(&self) -> PresetSpec {
        self.preset
    }

    fn thm_bounds(graph: &Graph) -> Bounds {
        let nn = graph.node_count() as u64;
        let m = graph.edge_count() as u64;
        let delta = graph.max_degree() as u64;
        Bounds {
            rounds: Some(verify::theorem14_round_bound(nn)),
            moves: Some(verify::theorem12_move_bound(nn, m, delta)),
        }
    }

    /// The canonical exploration seed set: `γ_init`, the broadcast
    /// chain, and `samples` adversarial draws.
    fn seed_set(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
    ) -> (FgaSdr, Vec<Vec<<FgaSdr as Algorithm>::State>>) {
        let fga = self
            .preset
            .build(graph)
            .expect("caller checked instantiability");
        let algo = fga_sdr(fga);
        let mut inits = vec![
            algo.initial_config(graph),
            ssr_core::workloads::sdr_broadcast_chain(&algo, graph),
        ];
        inits.extend(
            explore_sample_seeds(scenario_seed, samples)
                .iter()
                .map(|&s| algo.arbitrary_config(graph, s)),
        );
        (algo, inits)
    }
}

impl Family for FgaSdrFamily {
    fn id(&self) -> &str {
        &self.id
    }

    fn instantiable(&self, graph: &Graph) -> bool {
        self.preset.build(graph).is_some()
    }

    fn bounds(&self, graph: &Graph) -> Bounds {
        Self::thm_bounds(graph)
    }

    fn run(
        &self,
        graph: &Graph,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        cap: u64,
        trace: &mut Option<Box<dyn TraceSink>>,
    ) -> FamilyRunOutcome {
        let fga = self
            .preset
            .build(graph)
            .expect("caller checked instantiability (Family::instantiable)");
        let mut verdict_probe = AllianceObserver::new(&fga);
        let algo = fga_sdr(fga);
        let init_cfg = match init {
            InitPlan::Normal => algo.initial_config(graph),
            _ => algo.arbitrary_config(graph, seeds.init),
        };
        let mut sim = Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim);
        let out = run_traced(&mut sim, trace, |sim| {
            sim.execution().cap(cap).observe(&mut verdict_probe).run()
        });
        let mut fo = FamilyRunOutcome::from_run(&out, sim.stats().steps);
        fo.max_moves_per_process = sim.stats().max_moves_per_process();
        let v = verdict_probe.into_verdict().expect("sampled at run end");
        let sound = v.alliance && v.corner_ok;
        // Thm 14 (rounds) and Thm 12 (moves).
        let bounds = Self::thm_bounds(graph);
        let (rb, mb) = (bounds.rounds.unwrap(), bounds.moves.unwrap());
        fo.bound_rounds = Some(rb);
        fo.bound_moves = Some(mb);
        fo.verdict = if out.terminal && sound && fo.rounds <= rb && fo.moves <= mb {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        fo
    }

    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        match self.preset.build(graph) {
            // Preset invalid here: vacuously fine on this graph.
            None => Some(Ok(())),
            Some(fga) => Some(validate::check_requirements(&fga, graph).map_err(|e| e.to_string())),
        }
    }

    fn explore(&self) -> Option<&dyn ExploreFamily> {
        Some(self)
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for FgaSdrFamily {
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        let fga = self
            .preset
            .build(graph)
            .expect("caller checked instantiability");
        ssr_runtime::analysis::rule_names(&fga_sdr(fga))
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        let (algo, inits) = self.seed_set(graph, opts.scenario_seed, opts.samples);
        collect_footprints(graph, graph_name, &algo, &inits, opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        let (algo, inits) = self.seed_set(graph, opts.scenario_seed, opts.samples);
        audit_runs(graph, &algo, &inits, opts)
    }
}

impl ExploreFamily for FgaSdrFamily {
    fn bounds(&self, graph: &Graph) -> Bounds {
        Self::thm_bounds(graph)
    }

    fn explore(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        opts: &ExploreOptions,
    ) -> ExploreReport {
        let (algo, inits) = self.seed_set(graph, scenario_seed, samples);
        let check = algo.clone();
        // FGA ∘ SDR is silent: legitimate = terminal (Thm 11), so the
        // target predicate is terminality.
        explore_with_replay(
            graph,
            &algo,
            &inits,
            move |gr: &Graph, st: &[_]| {
                let view = ConfigView::new(gr, st);
                gr.nodes().all(|u| check.enabled_mask(u, &view).is_empty())
            },
            opts,
        )
    }

    fn stochastic_max(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        trials: u64,
        cap: u64,
    ) -> StochasticMax {
        let (algo, inits) = self.seed_set(graph, scenario_seed, samples);
        let check = algo.clone();
        stochastic_max_runs(
            graph,
            &algo,
            &inits,
            move |gr: &Graph, st: &[_]| {
                let view = ConfigView::new(gr, st);
                gr.nodes().all(|u| check.enabled_mask(u, &view).is_empty())
            },
            scenario_seed,
            trials,
            cap,
        )
    }
}

/// Standalone FGA from `γ_init` for one (f,g) preset (Theorems 9/10,
/// Corollaries 11/12), gated on `P_ICorrect` by the shared
/// [`Standalone`] wrapper — the single home of that gate.
///
/// The standalone theorems quantify over `γ_init` only, so every init
/// plan starts there. The verdict checks Cor. 12 (rounds) and Cor. 11
/// (moves) plus the corner-aware alliance soundness.
#[derive(Clone, Debug)]
pub struct FgaStandaloneFamily {
    preset: PresetSpec,
    id: String,
}

impl FgaStandaloneFamily {
    /// The family for `preset`.
    pub fn new(preset: PresetSpec) -> Self {
        FgaStandaloneFamily {
            preset,
            id: fga_standalone_spec(preset).label(),
        }
    }

    /// The underlying preset.
    pub fn preset(&self) -> PresetSpec {
        self.preset
    }

    fn cor_bounds(graph: &Graph) -> Bounds {
        let nn = graph.node_count() as u64;
        let m = graph.edge_count() as u64;
        let delta = graph.max_degree() as u64;
        Bounds {
            rounds: Some(verify::corollary12_round_bound(nn)),
            moves: Some(verify::corollary11_move_bound(nn, m, delta)),
        }
    }

    /// The analysis seed set: `γ_init` plus `samples` arbitrary state
    /// vectors (the standalone theorems quantify over `γ_init` only,
    /// but the soundness obligations must hold from *any* state).
    fn seed_set(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
    ) -> (Standalone<crate::fga::Fga>, Vec<Vec<crate::fga::FgaState>>) {
        let fga = self
            .preset
            .build(graph)
            .expect("caller checked instantiability");
        let algo = Standalone::new(fga);
        let mut inits = vec![algo.initial_config(graph)];
        for s in explore_sample_seeds(scenario_seed, samples) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(s);
            inits.push(
                graph
                    .nodes()
                    .map(|u| algo.inner().arbitrary_state(u, &mut rng))
                    .collect(),
            );
        }
        (algo, inits)
    }
}

impl Family for FgaStandaloneFamily {
    fn id(&self) -> &str {
        &self.id
    }

    fn instantiable(&self, graph: &Graph) -> bool {
        self.preset.build(graph).is_some()
    }

    fn bounds(&self, graph: &Graph) -> Bounds {
        Self::cor_bounds(graph)
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
        let fga = self
            .preset
            .build(graph)
            .expect("caller checked instantiability (Family::instantiable)");
        let mut verdict_probe = AllianceObserver::new(&fga);
        let algo = Standalone::new(fga);
        // The standalone theorems quantify over γ_init only.
        let init_cfg = algo.initial_config(graph);
        let mut sim = Simulator::new(graph, algo, init_cfg, daemon.clone(), seeds.sim);
        let out = run_traced(&mut sim, trace, |sim| {
            sim.execution().cap(cap).observe(&mut verdict_probe).run()
        });
        let mut fo = FamilyRunOutcome::from_run(&out, sim.stats().steps);
        fo.max_moves_per_process = sim.stats().max_moves_per_process();
        let v = verdict_probe.into_verdict().expect("sampled at run end");
        let sound = v.alliance && v.corner_ok;
        // Cor. 12 (rounds) and Cor. 11 (moves).
        let bounds = Self::cor_bounds(graph);
        let (rb, mb) = (bounds.rounds.unwrap(), bounds.moves.unwrap());
        fo.bound_rounds = Some(rb);
        fo.bound_moves = Some(mb);
        fo.verdict = if out.terminal && sound && fo.rounds <= rb && fo.moves <= mb {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        fo
    }

    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        match self.preset.build(graph) {
            None => Some(Ok(())),
            Some(fga) => Some(validate::check_requirements(&fga, graph).map_err(|e| e.to_string())),
        }
    }

    fn analysis(&self) -> Option<&dyn AnalyzeFamily> {
        Some(self)
    }
}

impl AnalyzeFamily for FgaStandaloneFamily {
    fn rule_names(&self, graph: &Graph) -> Vec<String> {
        let fga = self
            .preset
            .build(graph)
            .expect("caller checked instantiability");
        ssr_runtime::analysis::rule_names(&Standalone::new(fga))
    }

    fn footprints(&self, graph: &Graph, graph_name: &str, opts: &AnalyzeOptions) -> GraphAnalysis {
        let (algo, inits) = self.seed_set(graph, opts.scenario_seed, opts.samples);
        collect_footprints(graph, graph_name, &algo, &inits, opts)
    }

    fn audit(&self, graph: &Graph, opts: &AnalyzeOptions) -> RngAudit {
        let (algo, inits) = self.seed_set(graph, opts.scenario_seed, opts.samples);
        audit_runs(graph, &algo, &inits, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

    fn seeds() -> RunSeeds {
        RunSeeds {
            init: 5,
            sim: 6,
            fault: 7,
        }
    }

    #[test]
    fn fga_families_terminate_within_bounds() {
        let g = generators::ring(8);
        for out in [
            FgaSdrFamily::new(PresetSpec::Domination).run(
                &g,
                &InitPlan::Arbitrary,
                &Daemon::RandomSubset { p: 0.5 },
                seeds(),
                2_000_000,
                &mut None,
            ),
            FgaStandaloneFamily::new(PresetSpec::Domination).run(
                &g,
                &InitPlan::Arbitrary,
                &Daemon::RandomSubset { p: 0.5 },
                seeds(),
                2_000_000,
                &mut None,
            ),
        ] {
            assert_eq!(out.verdict, Verdict::Pass, "{out:?}");
            assert!(out.terminal);
        }
    }

    #[test]
    fn invalid_presets_are_not_instantiable() {
        // 2-domination needs δ ≥ 2 everywhere; a path's endpoints fail.
        let g = generators::path(5);
        let fam = FgaSdrFamily::new(PresetSpec::TwoDomination);
        assert!(!fam.instantiable(&g));
        assert_eq!(fam.requirements(&g), Some(Ok(())), "vacuous off-graph");
        let r = generators::ring(5);
        assert!(fam.instantiable(&r));
        assert_eq!(fam.requirements(&r), Some(Ok(())));
    }

    #[test]
    fn fga_sdr_explores_terminality() {
        let g = generators::path(3);
        let fam = FgaSdrFamily::new(PresetSpec::Domination);
        let ef = Family::explore(&fam).unwrap();
        let report = ef.explore(&g, 0xE13, 2, &ExploreOptions::default());
        let (summary, replay_ok) = report.result.expect("tiny path fits");
        assert!(summary.verified && replay_ok);
        let bounds = ExploreFamily::bounds(&fam, &g);
        let worst = summary.worst.unwrap();
        assert!(worst.rounds <= bounds.rounds.unwrap());
        assert!(worst.moves <= bounds.moves.unwrap());
    }

    #[test]
    fn spec_handles_round_trip() {
        for preset in PresetSpec::all() {
            let sdr = fga_sdr_spec(preset);
            let alone = fga_standalone_spec(preset);
            assert_eq!(sdr.label().parse::<AlgorithmSpec>().unwrap(), sdr);
            assert_eq!(alone.label().parse::<AlgorithmSpec>().unwrap(), alone);
            assert_eq!(
                PresetSpec::from_label(sdr.params_str().unwrap()),
                Some(preset)
            );
        }
        assert_eq!(
            FgaSdrFamily::new(PresetSpec::Domination).id(),
            "fga-sdr:domination(1,0)"
        );
        assert_eq!(
            FgaStandaloneFamily::new(PresetSpec::Powerful).id(),
            "fga:powerful"
        );
    }
}
