//! Campaign-level observability: live progress, merged pipeline
//! metrics, and per-scenario trace files, attached to the batch engine
//! without disturbing its determinism contract.
//!
//! [`CampaignObs`] bundles the three side channels; pass it to
//! [`engine::run`](crate::engine::run) through
//! [`RunOpts::obs`](crate::engine::RunOpts::obs). Observability is
//! strictly read-only with respect to results: records produced with
//! any combination of channels enabled are identical to a bare run
//! (pinned by `tests/obs_equivalence.rs`).
//!
//! A scenario is observed through one seam only: the
//! [`TraceSink`] slot of `Family::run`. [`scenario_sink`] builds the
//! sink the slot carries and [`fold_scenario_sink`] reads it back —
//! the engine and directly driven experiment runners share both.
//!
//! Metric accumulation is lock-free by ownership: each worker folds
//! its scenarios into a private [`MetricsSet`], submitted to the
//! shared [`MetricsHub`] exactly once, after the pool drains. The
//! merged snapshot is deterministic across thread counts — counters
//! and histograms are partition-independent sums.

use std::path::{Path, PathBuf};

use ssr_obs::metrics::{MetricsHub, MetricsSet};
use ssr_obs::pipeline::{CompositeSink, PipelineMetrics};
use ssr_obs::progress::Progress;
use ssr_runtime::trace::TraceSink;

use crate::scenario::Scenario;

/// The observability channels of one campaign run.
///
/// All channels default to off; each is enabled independently. After
/// the run, read the merged metrics via
/// [`CampaignObs::metrics_snapshot`].
#[derive(Default)]
pub struct CampaignObs {
    pub(crate) progress: Option<Box<dyn Progress>>,
    pub(crate) metrics: Option<MetricsHub>,
    pub(crate) trace_dir: Option<PathBuf>,
    /// Whether per-phase wall-time histograms are folded into the
    /// metrics (nondeterministic values; off by default so the merged
    /// snapshot stays a pure function of the campaign).
    pub(crate) phase_timing: bool,
}

impl CampaignObs {
    /// All channels off.
    pub fn new() -> Self {
        CampaignObs::default()
    }

    /// Streams scenario completion through `progress`.
    #[must_use]
    pub fn with_progress(mut self, progress: Box<dyn Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Collects merged pipeline metrics (deterministic keys only).
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(MetricsHub::new());
        self
    }

    /// Collects merged pipeline metrics *including* per-phase
    /// wall-time histograms (`phase.*.nanos` — nondeterministic).
    #[must_use]
    pub fn with_timed_metrics(mut self) -> Self {
        self.metrics = Some(MetricsHub::new());
        self.phase_timing = true;
        self
    }

    /// Writes one JSONL trace per scenario into `dir` as
    /// `trace-<index>.jsonl` (deterministic: no timing events).
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.trace_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// The merged metrics so far (`None` when metrics are off).
    pub fn metrics_snapshot(&self) -> Option<ssr_obs::metrics::MetricsSnapshot> {
        self.metrics.as_ref().map(|hub| hub.snapshot())
    }

    /// Takes the merged metrics out (disabling the channel), for
    /// folding one campaign's results into a longer-lived aggregate.
    pub fn take_metrics(&mut self) -> Option<MetricsSet> {
        self.metrics.take().map(MetricsHub::into_inner)
    }

    /// The trace file path for scenario `index`, when tracing is on.
    pub fn trace_path(&self, index: usize) -> Option<PathBuf> {
        self.trace_dir.as_deref().map(|d| trace_file(d, index))
    }
}

/// The trace file of scenario `index` under `dir`:
/// `trace-<index>.jsonl`, zero-padded to five digits.
pub fn trace_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("trace-{index:05}.jsonl"))
}

/// The human label of one scenario, used in progress lines.
pub fn scenario_label(sc: &Scenario) -> String {
    format!(
        "{}/{}/n={}#{}",
        sc.algorithm.label(),
        sc.topology.label(),
        sc.n,
        sc.trial
    )
}

/// The sink one scenario's measured run carries in its trace slot: a
/// pipeline-metrics fold when `metrics` is on (per-phase wall time
/// when `phase_timing` is too), fanned out with a JSONL trace file at
/// `trace` when given — created on the run's first event, so skipped
/// scenarios leave no file. `None` when no channel is on, so the run
/// stays on its untraced path.
pub fn scenario_sink(
    metrics: bool,
    phase_timing: bool,
    trace: Option<PathBuf>,
) -> Option<Box<dyn TraceSink>> {
    let metrics = metrics.then(|| {
        if phase_timing {
            PipelineMetrics::new()
        } else {
            PipelineMetrics::without_timing()
        }
    });
    let sink = CompositeSink::new(metrics, trace);
    if sink.is_empty() {
        return None;
    }
    Some(Box::new(sink))
}

/// Reads back a sink built by [`scenario_sink`] after its run: flushes
/// the trace file and returns the folded pipeline metrics (`None` when
/// the metrics channel was off).
pub fn fold_scenario_sink(mut sink: Box<dyn TraceSink>) -> Option<MetricsSet> {
    sink.as_any_mut()?
        .downcast_mut::<CompositeSink>()?
        .take_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{InitPlan, TopologySpec};
    use ssr_runtime::trace::TraceEvent;
    use ssr_runtime::Daemon;

    #[test]
    fn labels_identify_the_scenario() {
        let sc = Scenario {
            index: 3,
            topology: TopologySpec::Ring,
            n: 16,
            algorithm: crate::families::unison_sdr(),
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial: 2,
            seed: 7,
            step_cap: 1000,
        };
        let label = scenario_label(&sc);
        assert!(label.contains("ring") && label.contains("n=16") && label.ends_with("#2"));
    }

    #[test]
    fn obs_probe_folds_metrics_through_the_sink_round_trip() {
        let mut sink = scenario_sink(true, false, None).expect("metrics channel is on");
        assert!(!sink.wants_phase_timing(), "deterministic by default");
        sink.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 2,
        });
        sink.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
        let folded = fold_scenario_sink(sink).expect("metrics were on");
        assert_eq!(folded.counter_value("pipeline.steps"), Some(1));
        assert_eq!(folded.counter_value("pipeline.moves"), Some(2));
        let timed = scenario_sink(true, true, None).unwrap();
        assert!(timed.wants_phase_timing());
    }

    #[test]
    fn probe_without_channels_installs_nothing() {
        assert!(scenario_sink(false, true, None).is_none());
    }

    #[test]
    fn trace_paths_are_stable_per_index() {
        let obs = CampaignObs::new().with_trace_dir("/tmp/x");
        assert_eq!(
            obs.trace_path(7).unwrap(),
            PathBuf::from("/tmp/x/trace-00007.jsonl")
        );
        assert_eq!(CampaignObs::new().trace_path(7), None);
    }
}
