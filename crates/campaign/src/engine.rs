//! The batch execution engine: scoped worker threads draining the
//! campaign grid through an atomic cursor.
//!
//! Two entry points share one worker pool: [`run`] drains a campaign
//! through the default runner, with whatever optional layers its
//! [`RunOpts`] select (a custom registry, observability channels, a
//! record cache); [`run_with`] drains it through a caller-supplied
//! runner.
//!
//! # Determinism contract
//!
//! Results are **byte-identical across thread counts**:
//!
//! 1. every scenario's seed derives from its grid *index* (not from
//!    worker identity or pop order);
//! 2. the runner is a pure function of the scenario;
//! 3. results are placed back by index, so the returned vector is in
//!    grid order regardless of which worker finished first.
//!
//! The property test in `tests/determinism.rs` pins this down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ssr_obs::metrics::MetricsSet;
use ssr_runtime::family::FamilyRegistry;

use crate::cache::RecordCache;
use crate::checkpoint::CheckpointWriter;
use crate::grid::Campaign;
use crate::obs::{fold_scenario_sink, scenario_label, scenario_sink, trace_file, CampaignObs};
use crate::runner::{self, ScenarioRecord};
use crate::scenario::Scenario;

/// The optional content-addressed layer of a cached run: the record
/// cache consulted before every scenario, plus an optional checkpoint
/// journal appended after every fresh run.
#[derive(Clone, Copy)]
pub struct CacheLayer<'a> {
    /// Fingerprint → record store; hits skip the simulator entirely.
    pub cache: &'a RecordCache,
    /// Journal for crash-resumable sweeps (`ssr-checkpoint/v1`).
    pub checkpoint: Option<&'a CheckpointWriter>,
}

/// How [`run`] drains a campaign: a worker count plus three optional
/// layers, each off when `None`. A bare worker count converts into
/// it, so `engine::run(&campaign, 4)` is the plain run on four
/// workers.
#[derive(Default)]
pub struct RunOpts<'a> {
    /// Worker threads, clamped to `[1, campaign.len()]`.
    pub threads: usize,
    /// The registry algorithm labels resolve against — how campaigns
    /// over user-registered families run (see
    /// `examples/custom_family.rs`). `None` is the standard registry.
    pub registry: Option<&'a FamilyRegistry>,
    /// Observability channels: live progress, merged pipeline metrics
    /// and per-scenario trace files, per whatever the
    /// [`CampaignObs`] enables. They observe, they never steer.
    pub obs: Option<&'a mut CampaignObs>,
    /// A record cache consulted per scenario: hits are served without
    /// simulating (no trace sink is even built), misses run normally,
    /// then feed the cache and the checkpoint journal. Records are
    /// byte-identical to an uncached run (pinned by
    /// `tests/cache_equivalence.rs`).
    pub cache: Option<CacheLayer<'a>>,
}

impl From<usize> for RunOpts<'_> {
    fn from(threads: usize) -> Self {
        RunOpts {
            threads,
            ..RunOpts::default()
        }
    }
}

/// The one worker pool: up to `threads` scoped workers (clamped to
/// `[1, campaign.len()]`) drain the grid through an atomic cursor.
/// Worker `w` owns the state `init(w)`, which `runner` sees with every
/// scenario it runs. Returns the results in grid order and the final
/// worker states in worker order.
fn drain<S, R, I, F>(campaign: &Campaign, threads: usize, init: I, runner: F) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, Scenario) -> R + Sync,
{
    let total = campaign.len();
    if total == 0 {
        return (Vec::new(), Vec::new());
    }
    let workers = threads.clamp(1, total);
    let cursor = AtomicUsize::new(0);
    let (cursor, init, runner) = (&cursor, &init, &runner);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let mut states = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        done.push((i, runner(&mut state, campaign.scenario(i))));
                    }
                    (state, done)
                })
            })
            .collect();
        for handle in handles {
            let (state, done) = handle.join().expect("campaign worker panicked");
            for (i, r) in done {
                slots[i] = Some(r);
            }
            states.push(state);
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every scenario index was drained"))
        .collect();
    (results, states)
}

/// Runs every scenario of `campaign` through `runner` on up to
/// `threads` workers (clamped to `[1, campaign.len()]`), returning the
/// results in grid order.
///
/// The runner must be a pure function of the scenario for the
/// determinism contract to hold; it is invoked concurrently from
/// multiple threads, hence `Sync`.
pub fn run_with<R, F>(campaign: &Campaign, threads: usize, runner: F) -> Vec<R>
where
    R: Send,
    F: Fn(Scenario) -> R + Sync,
{
    drain(campaign, threads, |_| (), |_, sc| runner(sc)).0
}

/// Runs the campaign with the default runner
/// ([`run_scenario_in`](crate::run_scenario_in)) under `opts` and
/// stamps the campaign id into each record.
///
/// Scheduling of the side channels: progress notifications go through
/// one mutex (coarse, per scenario — never per step); each worker owns
/// a private [`MetricsSet`], merged into the hub after the pool
/// drains, so the metrics hot path takes no lock at all. With no
/// channel on, no lock is taken.
pub fn run<'a>(campaign: &Campaign, opts: impl Into<RunOpts<'a>>) -> Vec<ScenarioRecord> {
    let RunOpts {
        threads,
        registry,
        obs,
        cache,
    } = opts.into();
    let registry = registry.unwrap_or_else(|| crate::families::default_registry());
    let mut off = CampaignObs::new();
    let CampaignObs {
        progress,
        metrics,
        trace_dir,
        phase_timing,
    } = obs.unwrap_or(&mut off);
    let (phase_timing, trace_dir) = (*phase_timing, trace_dir.as_deref());
    if let Some(p) = progress.as_deref_mut() {
        p.begin(campaign.len());
    }
    let shared = progress.as_deref_mut().map(Mutex::new);
    let shared = shared.as_ref();
    let wants_metrics = metrics.is_some();
    let (mut records, locals) = drain(
        campaign,
        threads,
        |w| (w, wants_metrics.then(MetricsSet::new)),
        |(w, local), sc| {
            let index = sc.index;
            let label = shared.map(|p| {
                let label = scenario_label(&sc);
                p.lock().unwrap().item_started(*w, index, &label);
                label
            });
            let fp = cache.map(|_| sc.fingerprint());
            let cached = match (cache, fp) {
                (Some(layer), Some(fp)) => layer.cache.lookup(fp, &sc),
                _ => None,
            };
            let hit = cached.is_some();
            // A cache hit never runs the simulator, so it builds no
            // sink and folds no pipeline.* metrics.
            let rec = cached.unwrap_or_else(|| {
                let path = trace_dir.map(|d| trace_file(d, index));
                let mut trace = scenario_sink(local.is_some(), phase_timing, path);
                let rec = runner::run_scenario_in(registry, sc, &mut trace);
                if let (Some(folded), Some(local)) =
                    (trace.and_then(fold_scenario_sink), local.as_mut())
                {
                    local.merge(&folded);
                }
                if let (Some(layer), Some(fp)) = (cache, fp) {
                    layer.cache.insert(fp, &rec);
                    if let Some(journal) = layer.checkpoint {
                        if let Err(e) = journal.append(fp, &rec) {
                            eprintln!("checkpoint append failed: {e}");
                        }
                    }
                }
                rec
            });
            if let Some(m) = local.as_mut() {
                m.inc("campaign.scenarios", 1);
                if cache.is_some() {
                    let key = if hit {
                        "campaign.cache_hits"
                    } else {
                        "campaign.cache_misses"
                    };
                    m.inc(key, 1);
                }
                if !rec.verdict.ok() {
                    m.inc("campaign.failed", 1);
                }
            }
            if let (Some(p), Some(label)) = (shared, &label) {
                p.lock().unwrap().item_done(index, label, rec.verdict.ok());
            }
            rec
        },
    );
    if let Some(hub) = metrics.as_ref() {
        for local in locals.iter().filter_map(|(_, local)| local.as_ref()) {
            hub.submit(local);
        }
    }
    if let Some(p) = progress.as_deref_mut() {
        p.finish();
    }
    for rec in &mut records {
        rec.campaign = campaign.id().to_string();
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologySpec;
    use ssr_runtime::Daemon;

    fn tiny() -> Campaign {
        Campaign::new("engine-test")
            .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
            .sizes(vec![6, 8])
            .algorithms(vec![crate::families::sdr_agreement(4)])
            .daemons(vec![Daemon::Central, Daemon::Synchronous])
            .trials(2)
            .step_cap(500_000)
    }

    #[test]
    fn results_are_in_grid_order() {
        let c = tiny();
        let records = run(&c, 3);
        assert_eq!(records.len(), c.len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.campaign, "engine-test");
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let c = tiny();
        let seq = run(&c, 1);
        for threads in [2, 4, 7] {
            assert_eq!(seq, run(&c, threads), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let c = tiny();
        assert_eq!(run(&c, 0), run(&c, 1));
    }

    #[test]
    fn run_in_matches_run_on_the_standard_registry() {
        let c = tiny();
        let registry = crate::families::standard_families();
        let opts = RunOpts {
            threads: 2,
            registry: Some(&registry),
            ..RunOpts::default()
        };
        assert_eq!(run(&c, opts), run(&c, 2));
    }

    #[test]
    fn run_with_custom_runner_sees_every_scenario() {
        let c = tiny();
        let indices = run_with(&c, 4, |sc| sc.index);
        assert_eq!(indices, (0..c.len()).collect::<Vec<_>>());
    }
}
