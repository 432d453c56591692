//! [`PipelineMetrics`]: a [`TraceSink`] folding the step pipeline's
//! event stream into the metrics registry — per-phase wall time,
//! moves/step and enabled-set occupancy — and
//! [`CompositeSink`], the metrics + trace-file fanout the campaign and
//! bench layers install through the family boundary.

use std::any::Any;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use ssr_runtime::trace::{TraceEvent, TraceSink};

use crate::metrics::MetricsSet;
use crate::trace::JsonlSink;

/// Folds [`TraceEvent`]s into a [`MetricsSet`] as they stream by.
///
/// Metric keys (see `DESIGN.md` §10 for the full table):
///
/// * `pipeline.steps`, `pipeline.moves`, `pipeline.rounds` — counters;
/// * `pipeline.moves_per_step`, `pipeline.enabled_set` — histograms;
/// * `phase.{select,apply,guards}.nanos` — histograms (phase timing
///   on, the default for this sink).
///
/// # Examples
///
/// ```
/// use ssr_obs::pipeline::PipelineMetrics;
/// use ssr_runtime::trace::{TraceEvent, TraceSink};
///
/// let mut pm = PipelineMetrics::new();
/// pm.record(&TraceEvent::StepStarted { step: 0, enabled: 4 });
/// pm.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
/// let m = pm.into_metrics();
/// assert_eq!(m.counter_value("pipeline.steps"), Some(1));
/// assert_eq!(m.counter_value("pipeline.moves"), Some(2));
/// ```
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    metrics: MetricsSet,
    timing: bool,
}

impl PipelineMetrics {
    /// A sink with phase timing **on** (its reason to exist); use
    /// [`PipelineMetrics::without_timing`] for deterministic folds.
    pub fn new() -> Self {
        PipelineMetrics {
            metrics: MetricsSet::new(),
            timing: true,
        }
    }

    /// A deterministic variant: no clock reads, so the folded metrics
    /// are a pure function of the seeded run.
    pub fn without_timing() -> Self {
        PipelineMetrics {
            metrics: MetricsSet::new(),
            timing: false,
        }
    }

    /// Consumes the sink into its metrics.
    pub fn into_metrics(self) -> MetricsSet {
        self.metrics
    }

    /// Drains the folded metrics, leaving the sink empty (for reuse
    /// across runs).
    pub fn take_metrics(&mut self) -> MetricsSet {
        std::mem::take(&mut self.metrics)
    }
}

impl TraceSink for PipelineMetrics {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::StepStarted { enabled, .. } => {
                self.metrics.inc("pipeline.steps", 1);
                self.metrics
                    .observe("pipeline.enabled_set", *enabled as u64);
            }
            TraceEvent::PhaseTimed { phase, nanos, .. } => {
                self.metrics
                    .observe(&format!("phase.{phase}.nanos"), *nanos);
            }
            TraceEvent::MovesApplied { moves, .. } => {
                self.metrics.inc("pipeline.moves", *moves as u64);
                self.metrics
                    .observe("pipeline.moves_per_step", *moves as u64);
            }
            TraceEvent::EnabledSetSize { .. } => {}
            TraceEvent::RoundCompleted { .. } => {
                self.metrics.inc("pipeline.rounds", 1);
            }
            TraceEvent::RunEnded { .. } => {
                self.metrics.inc("pipeline.runs", 1);
            }
        }
    }

    fn wants_phase_timing(&self) -> bool {
        self.timing
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// The standard composite: fans each event into a metrics fold and/or
/// a JSONL trace file, whichever are enabled. Install it as a boxed
/// [`TraceSink`], recover it afterwards through
/// [`TraceSink::as_any_mut`] and drain the metrics with
/// [`CompositeSink::take_metrics`].
#[derive(Default)]
pub struct CompositeSink {
    metrics: Option<PipelineMetrics>,
    file: Option<JsonlSink<BufWriter<File>>>,
    /// A trace file still to be created, on the first event.
    deferred: Option<PathBuf>,
}

impl CompositeSink {
    /// A sink driving the given channels (either may be `None`). The
    /// trace file at `trace` is created on the first event, so a sink
    /// that never sees a run (a skipped scenario) leaves no file
    /// behind; a file that cannot be created degrades to "no trace" —
    /// observability must never fail a run.
    pub fn new(metrics: Option<PipelineMetrics>, trace: Option<PathBuf>) -> Self {
        CompositeSink {
            metrics,
            file: None,
            deferred: trace,
        }
    }

    /// Whether no channel is enabled (callers skip installation).
    pub fn is_empty(&self) -> bool {
        self.metrics.is_none() && self.file.is_none() && self.deferred.is_none()
    }

    /// Takes the folded metrics out (once), flushing the file channel.
    pub fn take_metrics(&mut self) -> Option<MetricsSet> {
        if let Some(f) = &mut self.file {
            f.flush();
        }
        self.metrics.take().map(PipelineMetrics::into_metrics)
    }
}

impl TraceSink for CompositeSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(path) = self.deferred.take() {
            self.file = JsonlSink::create(path).ok();
        }
        if let Some(m) = &mut self.metrics {
            m.record(event);
        }
        if let Some(f) = &mut self.file {
            f.record(event);
        }
    }

    fn wants_phase_timing(&self) -> bool {
        self.metrics
            .as_ref()
            .is_some_and(|m| m.wants_phase_timing())
    }

    fn flush(&mut self) {
        if let Some(f) = &mut self.file {
            f.flush();
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_runtime::trace::TracePhase;
    use ssr_runtime::TerminationReason;

    #[test]
    fn folds_the_full_stream() {
        let mut pm = PipelineMetrics::new();
        pm.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 5,
        });
        pm.record(&TraceEvent::PhaseTimed {
            step: 0,
            phase: TracePhase::Select,
            nanos: 100,
        });
        pm.record(&TraceEvent::PhaseTimed {
            step: 0,
            phase: TracePhase::Apply,
            nanos: 200,
        });
        pm.record(&TraceEvent::PhaseTimed {
            step: 0,
            phase: TracePhase::Guards,
            nanos: 300,
        });
        pm.record(&TraceEvent::MovesApplied { step: 0, moves: 3 });
        pm.record(&TraceEvent::EnabledSetSize {
            step: 0,
            enabled: 2,
        });
        pm.record(&TraceEvent::RoundCompleted { step: 0, rounds: 1 });
        pm.record(&TraceEvent::RunEnded {
            steps: 1,
            moves: 3,
            rounds: 1,
            reason: TerminationReason::Terminal,
        });
        let m = pm.into_metrics();
        assert_eq!(m.counter_value("pipeline.steps"), Some(1));
        assert_eq!(m.counter_value("pipeline.moves"), Some(3));
        assert_eq!(m.counter_value("pipeline.rounds"), Some(1));
        assert_eq!(m.counter_value("pipeline.runs"), Some(1));
        assert_eq!(m.histogram("phase.select.nanos").unwrap().sum(), 100);
        assert_eq!(m.histogram("phase.guards.nanos").unwrap().sum(), 300);
    }

    #[test]
    fn timing_opt_out_is_deterministic() {
        let pm = PipelineMetrics::without_timing();
        assert!(!pm.wants_phase_timing());
    }

    #[test]
    fn composite_sink_round_trips_through_the_erased_interface() {
        let mut boxed: Box<dyn TraceSink> = Box::new(CompositeSink::new(
            Some(PipelineMetrics::without_timing()),
            None,
        ));
        assert!(!boxed.wants_phase_timing());
        boxed.record(&TraceEvent::StepStarted {
            step: 0,
            enabled: 2,
        });
        boxed.record(&TraceEvent::MovesApplied { step: 0, moves: 2 });
        let composite = boxed
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<CompositeSink>())
            .expect("recoverable");
        let m = composite.take_metrics().expect("metrics channel on");
        assert_eq!(m.counter_value("pipeline.steps"), Some(1));
        assert!(composite.take_metrics().is_none(), "drained once");
        assert!(CompositeSink::default().is_empty());
    }
}
