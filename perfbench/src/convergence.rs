//! `ring-1m-sync` and `torus-1m-sync`: `Agreement(8) ∘ SDR` on a
//! 10⁶-node ring or a 1000×1000 torus under the synchronous daemon,
//! driven by a bare `step()` loop to a terminal configuration within
//! the Cor. 5 cap 3n + 16.
//!
//! Inputs: the start is `arbitrary_config(0x5CA1E)` with simulator
//! seed 11 — the 10⁶-node cells of `BENCH_SCALE.json` — placed on the
//! graph by a seed-chosen automorphism (a rotation of the ring, a
//! translation of the torus). Under the synchronous daemon every
//! enabled node moves, so each seed runs the same execution
//! relabelled: steps, moves and rounds are exact at every seed, and the
//! default seed is the identity. `arbitrary_config(seed)` itself would
//! make the work depend on the seed: on the ring it converges in
//! anywhere from 14 steps to 3n.
//!
//! A pass is one set-up (graph build, configuration, simulator) and one
//! run to terminal. Bare runs repeat passes for the requested time and
//! report medians. The traced run makes one bare pass and one pass with
//! the timed `PipelineMetrics` sink attached and every `step()` call
//! timed from outside.

use std::time::Instant;

use ssr_core::toys::Agreement;
use ssr_core::Sdr;
use ssr_graph::{generators, Graph};
use ssr_obs::pipeline::PipelineMetrics;
use ssr_runtime::{Daemon, Simulator, StepOutcome};

use crate::report::{self, expect_eq, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{derive, Ctx, DEFAULT_SEED};

/// Seed of the base configuration (`BENCH_SCALE.json`).
const INIT_SEED: u64 = 0x5CA1E;
/// Simulator seed (`BENCH_SCALE.json`; the synchronous daemon draws
/// nothing from it).
const SIM_SEED: u64 = 11;

/// Exact cost of one run, the correctness gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    steps: u64,
    moves: u64,
    rounds: u64,
}

/// One 10⁶-node cell.
pub struct Cell {
    name: &'static str,
    nodes: usize,
    build: fn() -> Graph,
    /// The base-configuration node whose state node `u` starts in,
    /// under automorphism number `shift` (`0 ≤ shift < nodes`).
    source: fn(usize, usize) -> usize,
    expect: Counts,
}

const SIDE: usize = 1000;

pub const RING: Cell = Cell {
    name: "ring",
    nodes: SIDE * SIDE,
    build: || generators::ring(SIDE * SIDE),
    source: |u, shift| (u + shift) % (SIDE * SIDE),
    expect: Counts {
        steps: 1_108_412,
        moves: 5_091_774,
        rounds: 1_108_412,
    },
};

pub const TORUS: Cell = Cell {
    name: "torus",
    nodes: SIDE * SIDE,
    build: || generators::torus(SIDE, SIDE),
    source: |u, shift| {
        let (x, y) = (u % SIDE, u / SIDE);
        let (dx, dy) = (shift % SIDE, shift / SIDE);
        ((y + dy) % SIDE) * SIDE + (x + dx) % SIDE
    },
    expect: Counts {
        steps: 21,
        moves: 2_874_753,
        rounds: 21,
    },
};

/// What the traced loop adds to a pass.
struct Attribution {
    step_ns: Vec<f64>,
    /// `phase.{select,apply,guards}.nanos` sums, in seconds.
    phases: [f64; 3],
    pipeline: Counts,
}

struct Pass {
    build_s: f64,
    init_s: f64,
    sim_new_s: f64,
    /// Step-loop wall time.
    run_s: f64,
    counts: Counts,
    terminal: bool,
    attribution: Option<Attribution>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.build_s + self.init_s + self.sim_new_s
    }
}

/// Runs one pass; `attributed` runs the attributed step loop.
fn pass(cell: &Cell, shift: usize, tr: &mut Tracer, attributed: bool) -> Pass {
    let open = tr.begin("pass");
    let (g, build_s) = tr.time("graph.build", cell.build);
    let ((algo, base), init_s) = tr.time("core.init", || {
        let algo = Sdr::new(Agreement::new(8));
        let base = algo.arbitrary_config(&g, INIT_SEED);
        (algo, base)
    });
    let init: Vec<_> = (0..cell.nodes)
        .map(|u| base[(cell.source)(u, shift)])
        .collect();
    drop(base);
    let (mut sim, sim_new_s) = tr.time("runtime.sim_new", || {
        Simulator::new(&g, algo, init, Daemon::Synchronous, SIM_SEED)
    });
    let cap = 3 * cell.nodes as u64 + 16;
    let mut terminal = false;
    let (run_s, attribution) = if attributed {
        sim.set_trace_sink(Box::new(PipelineMetrics::new()));
        let mut step_ns = Vec::with_capacity(cell.expect.steps as usize + 1);
        let open = tr.begin("runtime.step_loop");
        for _ in 0..cap {
            let start = Instant::now();
            let step = sim.step();
            step_ns.push(start.elapsed().as_nanos() as f64);
            if let StepOutcome::Terminal = step {
                terminal = true;
                break;
            }
        }
        let run_s = tr.end(open);
        let mut sink = sim.take_trace_sink().expect("the sink was attached");
        let metrics = sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<PipelineMetrics>())
            .expect("the attached sink is a PipelineMetrics")
            .take_metrics();
        let phase = |p: &str| {
            metrics
                .histogram(&format!("phase.{p}.nanos"))
                .map_or(0.0, |h| h.sum() as f64 * 1e-9)
        };
        let counter = |k: &str| metrics.counter_value(k).unwrap_or(0);
        let attribution = Attribution {
            step_ns,
            phases: [phase("select"), phase("apply"), phase("guards")],
            pipeline: Counts {
                steps: counter("pipeline.steps"),
                moves: counter("pipeline.moves"),
                rounds: counter("pipeline.rounds"),
            },
        };
        (run_s, Some(attribution))
    } else {
        let open = tr.begin("runtime.step_loop");
        for _ in 0..cap {
            if let StepOutcome::Terminal = sim.step() {
                terminal = true;
                break;
            }
        }
        (tr.end(open), None)
    };
    let stats = sim.stats();
    let out = Pass {
        build_s,
        init_s,
        sim_new_s,
        run_s,
        counts: Counts {
            steps: stats.steps,
            moves: stats.moves,
            rounds: stats.completed_rounds,
        },
        terminal: terminal && sim.is_terminal(),
        attribution,
    };
    tr.end(open);
    out
}

/// Counts one simulation run against the gate.
fn check(cell: &Cell, p: &Pass, outcome: &mut Outcome) {
    let mut problems = Vec::new();
    if !p.terminal {
        problems.push(format!(
            "not terminal within 3n+16 = {} steps",
            3 * cell.nodes + 16
        ));
    }
    expect_eq(&mut problems, "counts", p.counts, cell.expect);
    if let Some(a) = &p.attribution {
        // The sink only observes: it must see exactly the run's counts.
        expect_eq(&mut problems, "pipeline counts", a.pipeline, p.counts);
    }
    outcome.tally(&format!("{} run", cell.name), &problems);
}

pub fn run(cell: &Cell, ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let shift = if ctx.seed == DEFAULT_SEED {
        0
    } else {
        (derive(ctx.seed, 1) % cell.nodes as u64) as usize
    };
    let mut outcome = Outcome::default();
    if ctx.trace {
        let bare = pass(cell, shift, tr, false);
        check(cell, &bare, &mut outcome);
        let traced = pass(cell, shift, tr, true);
        check(cell, &traced, &mut outcome);
        let a = traced.attribution.as_ref().expect("attributed pass");
        let attributed: f64 = a.phases.iter().sum();
        let c = traced.counts;
        outcome.put("graph.build_s", traced.build_s, "s");
        outcome.put("core.init_s", traced.init_s, "s");
        outcome.put("runtime.sim_new_s", traced.sim_new_s, "s");
        outcome.put("runtime.steps", c.steps as f64, "count");
        outcome.put("runtime.moves", c.moves as f64, "count");
        outcome.put("runtime.rounds", c.rounds as f64, "count");
        outcome.put("runtime.step_ns_p50", quantile(&a.step_ns, 0.5), "ns");
        outcome.put("runtime.step_ns_max", quantile(&a.step_ns, 1.0), "ns");
        outcome.put("runtime.step_samples", a.step_ns.len() as f64, "count");
        outcome.put("runtime.step_loop_s", traced.run_s, "s");
        outcome.put("runtime.phase.select_s", a.phases[0], "s");
        outcome.put("runtime.phase.apply_s", a.phases[1], "s");
        outcome.put("runtime.phase.guards_s", a.phases[2], "s");
        outcome.put(
            "runtime.phase.unattributed_s",
            traced.run_s - attributed,
            "s",
        );
        outcome.put(
            "runtime.trace_overhead_ratio",
            traced.run_s / bare.run_s,
            "ratio",
        );
        return outcome;
    }
    let clock = Instant::now();
    let (mut setups, mut runs, mut move_rates) = (Vec::new(), Vec::new(), Vec::new());
    while runs.is_empty() || crate::another_fits(clock, runs.len(), ctx.seconds) {
        let p = pass(cell, shift, tr, false);
        check(cell, &p, &mut outcome);
        eprintln!(
            "perfbench: {} pass {}: setup {:.6} s, run {:.6} s",
            cell.name,
            runs.len(),
            p.setup_s(),
            p.run_s
        );
        setups.push(p.setup_s());
        runs.push(p.run_s);
        move_rates.push(p.counts.moves as f64 / p.run_s);
    }
    // One pass is one scenario: a single run from one configuration.
    let run_s = median(&runs);
    outcome.put("setup_s", median(&setups), "s");
    outcome.put("run_s", run_s, "s");
    outcome.put("moves_per_s", median(&move_rates), "1/s");
    outcome.put("scenarios_per_s", 1.0 / run_s, "1/s");
    outcome.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    outcome
}
