//! Ready-made [`Observer`]s: metrics collection and timeline
//! recording.
//!
//! These attach to any [`Execution`](ssr_runtime::Execution) via
//! `.observe(...)` — they need the typed simulator handle, unlike
//! [`TraceSink`](ssr_runtime::trace::TraceSink)s, which attach below
//! the observer layer and see only the erased event stream.
//!
//! # Examples
//!
//! Driving a run with a [`MetricsObserver`] and reading the snapshot:
//!
//! ```
//! use ssr_graph::generators;
//! use ssr_obs::observers::MetricsObserver;
//! use ssr_runtime::{Algorithm, Daemon, Execution, NodeId, RuleId, RuleMask, StateView};
//!
//! /// Toy flood: a node with a `true` neighbor becomes `true`.
//! struct Flood;
//! impl Algorithm for Flood {
//!     type State = bool;
//!     fn rule_count(&self) -> usize { 1 }
//!     fn rule_name(&self, _: RuleId) -> &'static str { "flood" }
//!     fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
//!         let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
//!         RuleMask::from_bool(!*view.state(u) && infected)
//!     }
//!     fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool { true }
//! }
//!
//! let g = generators::path(5);
//! let mut init = vec![false; 5];
//! init[0] = true;
//! let mut metrics = MetricsObserver::new();
//! let out = Execution::of(&g, Flood)
//!     .init(init)
//!     .daemon(Daemon::Synchronous)
//!     .observe(&mut metrics)
//!     .run();
//! assert!(out.terminal);
//! let snap = metrics.metrics().snapshot();
//! println!("{}", snap.render_table());
//! assert_eq!(metrics.metrics().counter_value("run.steps"), Some(4));
//! assert_eq!(metrics.metrics().counter_value("run.moves"), Some(4));
//! ```

use std::time::Instant;

use ssr_runtime::{Algorithm, Observer, RunOutcome, Simulator, StepOutcome};

use crate::metrics::MetricsSet;
use crate::timeline::{RunTimeline, TimelineStep};

/// An [`Observer`] accumulating run-level metrics: step/move/round
/// counters, moves-per-step and enabled-set histograms, and (unless
/// timing is disabled) run wall time and steps/sec.
///
/// Keys: `run.steps`, `run.moves`, `run.rounds`, `run.terminal_runs`,
/// `run.moves_per_step`, `run.enabled_set`; with timing,
/// `time.run_nanos` (counter) and `time.steps_per_sec` (gauge).
///
/// See the [module documentation](self) for a worked example.
#[derive(Debug)]
pub struct MetricsObserver {
    metrics: MetricsSet,
    started: Option<Instant>,
    steps_at_start: Option<u64>,
    timing: bool,
}

impl MetricsObserver {
    /// An observer with wall-time metrics **on**.
    pub fn new() -> Self {
        MetricsObserver {
            metrics: MetricsSet::new(),
            started: None,
            steps_at_start: None,
            timing: true,
        }
    }

    /// A deterministic variant: no clock reads, so the metrics are a
    /// pure function of the seeded run.
    pub fn without_timing() -> Self {
        MetricsObserver {
            timing: false,
            ..MetricsObserver::new()
        }
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &MetricsSet {
        &self.metrics
    }

    /// Consumes the observer into its metrics.
    pub fn into_metrics(self) -> MetricsSet {
        self.metrics
    }

    /// Drains the accumulated metrics, leaving the observer fresh.
    pub fn take_metrics(&mut self) -> MetricsSet {
        self.started = None;
        self.steps_at_start = None;
        std::mem::take(&mut self.metrics)
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl<A: Algorithm> Observer<A> for MetricsObserver {
    fn on_step(&mut self, sim: &Simulator<'_, A>, outcome: &StepOutcome) {
        if self.timing && self.started.is_none() {
            self.started = Some(Instant::now());
            self.steps_at_start = Some(sim.stats().steps.saturating_sub(1));
        }
        if let StepOutcome::Progress { activated } = outcome {
            self.metrics.inc("run.steps", 1);
            self.metrics.inc("run.moves", *activated as u64);
            self.metrics
                .observe("run.moves_per_step", *activated as u64);
            self.metrics
                .observe("run.enabled_set", sim.enabled_count() as u64);
        }
    }

    fn on_round_complete(&mut self, _sim: &Simulator<'_, A>) {
        self.metrics.inc("run.rounds", 1);
    }

    fn on_terminal(&mut self, _sim: &Simulator<'_, A>) {
        self.metrics.inc("run.terminal_runs", 1);
    }

    fn on_run_end(&mut self, sim: &Simulator<'_, A>, _outcome: &RunOutcome) {
        if let (Some(t0), Some(s0)) = (self.started.take(), self.steps_at_start.take()) {
            let nanos = t0.elapsed().as_nanos() as u64;
            self.metrics.inc("time.run_nanos", nanos);
            let steps = sim.stats().steps.saturating_sub(s0);
            if nanos > 0 {
                let sps = (steps as f64 / (nanos as f64 / 1e9)) as u64;
                self.metrics.gauge_set("time.steps_per_sec", sps);
            }
        }
    }
}

/// An [`Observer`] recording the full per-step move sequence as a
/// [`RunTimeline`] — the replayable per-run artifact.
#[derive(Debug, Default)]
pub struct TimelineObserver {
    timeline: RunTimeline,
}

impl TimelineObserver {
    /// A fresh recorder.
    pub fn new() -> Self {
        TimelineObserver::default()
    }

    /// The timeline recorded so far.
    pub fn timeline(&self) -> &RunTimeline {
        &self.timeline
    }

    /// Consumes the observer into its timeline.
    pub fn into_timeline(self) -> RunTimeline {
        self.timeline
    }
}

impl<A: Algorithm> Observer<A> for TimelineObserver {
    fn on_step(&mut self, sim: &Simulator<'_, A>, _outcome: &StepOutcome) {
        self.timeline.push(TimelineStep {
            moves: sim.last_activated().to_vec(),
            round_completed: sim.last_step_completed_round(),
        });
    }
}

/// Compile-time guard: the observers stay attachable from campaign
/// worker threads.
#[allow(dead_code)]
fn assert_send() {
    fn is_send<T: Send>() {}
    is_send::<MetricsObserver>();
    is_send::<TimelineObserver>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;
    use ssr_runtime::{Daemon, NodeId, RuleId, RuleMask, Simulator, StateView};

    struct Flood;
    impl Algorithm for Flood {
        type State = bool;
        fn rule_count(&self) -> usize {
            1
        }
        fn rule_name(&self, _: RuleId) -> &'static str {
            "flood"
        }
        fn enabled_mask<V: StateView<bool>>(&self, u: NodeId, view: &V) -> RuleMask {
            let infected = view.graph().neighbors(u).iter().any(|&v| *view.state(v));
            RuleMask::from_bool(!*view.state(u) && infected)
        }
        fn apply<V: StateView<bool>>(&self, _: NodeId, _: &V, _: RuleId) -> bool {
            true
        }
    }

    fn flood_sim(g: &ssr_graph::Graph) -> Simulator<'_, Flood> {
        let mut init = vec![false; g.node_count()];
        init[0] = true;
        Simulator::new(g, Flood, init, Daemon::Synchronous, 0)
    }

    #[test]
    fn metrics_observer_counts_the_run() {
        let g = generators::path(4);
        let mut sim = flood_sim(&g);
        let mut obs = MetricsObserver::without_timing();
        let out = sim.execution().cap(100).observe(&mut obs).run();
        assert!(out.terminal);
        let m = obs.metrics();
        assert_eq!(m.counter_value("run.steps"), Some(3));
        assert_eq!(m.counter_value("run.moves"), Some(3));
        assert_eq!(m.counter_value("run.rounds"), Some(3));
        assert_eq!(m.counter_value("run.terminal_runs"), Some(1));
        assert_eq!(m.counter_value("time.run_nanos"), None, "timing off");
        assert_eq!(m.histogram("run.moves_per_step").unwrap().count(), 3);
    }

    #[test]
    fn metrics_observer_records_wall_time_when_enabled() {
        let g = generators::path(4);
        let mut sim = flood_sim(&g);
        let mut obs = MetricsObserver::new();
        sim.execution().cap(100).observe(&mut obs).run();
        assert!(obs.metrics().counter_value("time.run_nanos").unwrap() > 0);
    }

    #[test]
    fn timeline_observer_records_and_replays() {
        let g = generators::path(4);
        let mut sim = flood_sim(&g);
        let mut rec = TimelineObserver::new();
        let out = sim.execution().cap(100).observe(&mut rec).run();
        assert!(out.terminal);
        let timeline = rec.into_timeline();
        assert_eq!(timeline.len(), 3);
        assert!(timeline.steps().iter().all(|s| s.round_completed));

        // Replay the recorded schedule with a scripted daemon: the
        // trajectory must reproduce exactly.
        let mut init = vec![false; 4];
        init[0] = true;
        let mut replay = Simulator::new(&g, Flood, init, timeline.script_daemon(), 0);
        let mut rec2 = TimelineObserver::new();
        let out2 = replay.execution().cap(100).observe(&mut rec2).run();
        assert!(out2.terminal);
        assert_eq!(rec2.timeline(), &timeline);
    }
}
