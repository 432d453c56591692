//! The benchmark's only call sites into the campaign engine's entry
//! points (`engine::run*`, `run_scenario*`).
//!
//! Those entry points are due to collapse into a single
//! `engine::run(&Campaign, &RunOpts)`. Every workload goes through the
//! three functions below, so that change edits this file and nothing
//! the benchmark measures.

use ssr_campaign::{engine, Campaign, Scenario, ScenarioRecord};

/// Runs every scenario of `campaign` through `runner` on `workers`
/// engine threads, results in grid order (`engine::run_with`).
pub fn run_grid<R, F>(campaign: &Campaign, workers: usize, runner: F) -> Vec<R>
where
    R: Send,
    F: Fn(Scenario) -> R + Sync,
{
    engine::run_with(campaign, workers, runner)
}

/// Runs one scenario against the standard family registry
/// (`run_scenario`).
pub fn run_scenario(sc: Scenario) -> ScenarioRecord {
    ssr_campaign::run_scenario(sc)
}

/// Runs a whole campaign directly, records stamped with the campaign id
/// (`engine::run`) — the reference the served records must equal.
pub fn run_campaign(campaign: &Campaign, workers: usize) -> Vec<ScenarioRecord> {
    engine::run(campaign, workers)
}
