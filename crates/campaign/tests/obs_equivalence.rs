//! Observability never steers: campaign records with every obs channel
//! enabled are identical to a bare run, and the merged metrics
//! snapshot is deterministic across thread counts.

use std::path::PathBuf;

use ssr_campaign::{
    engine, families, Campaign, CampaignObs, RunOpts, ScenarioRecord, TopologySpec,
};
use ssr_obs::json;
use ssr_obs::progress::ProgressBus;
use ssr_obs::trace::validate_jsonl_line;
use ssr_runtime::Daemon;

fn tiny() -> Campaign {
    Campaign::new("obs-equivalence")
        .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
        .sizes(vec![6, 8])
        .algorithms(vec![families::unison_sdr(), families::sdr_agreement(4)])
        .daemons(vec![Daemon::Central, Daemon::Synchronous])
        .trials(1)
        .step_cap(500_000)
}

fn observed_run(c: &Campaign, threads: usize, obs: &mut CampaignObs) -> Vec<ScenarioRecord> {
    engine::run(
        c,
        RunOpts {
            threads,
            obs: Some(obs),
            ..RunOpts::default()
        },
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssr-obs-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn obs_channels_do_not_change_records() {
    let c = tiny();
    let bare = engine::run(&c, 2);

    let dir = scratch_dir("records");
    let bus = ProgressBus::new();
    let mut obs = CampaignObs::new()
        .with_metrics()
        .with_trace_dir(&dir)
        .with_progress(Box::new(bus.clone()));
    let observed = observed_run(&c, 2, &mut obs);
    assert_eq!(bare, observed, "obs channels must be read-only");
    let snap = bus.snapshot();
    assert!(snap.finished && snap.done == c.len() && snap.failed == 0);

    // Every scenario left a validating trace file behind.
    for i in 0..c.len() {
        let path = obs.trace_path(i).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing trace {path:?}: {e}"));
        for line in text.lines() {
            validate_jsonl_line(line).unwrap_or_else(|err| panic!("{path:?}: {err}"));
        }
        assert!(
            text.lines()
                .last()
                .unwrap()
                .contains("\"event\":\"run-ended\""),
            "trace {path:?} must close with run-ended"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_metrics_are_deterministic_across_thread_counts() {
    let c = tiny();
    let snapshot_at = |threads: usize| {
        let mut obs = CampaignObs::new().with_metrics();
        observed_run(&c, threads, &mut obs);
        obs.metrics_snapshot().unwrap().to_json()
    };
    let seq = snapshot_at(1);
    assert!(seq.contains("\"schema\":\"ssr-metrics-v1\""));
    assert!(seq.contains("pipeline.steps"));
    assert!(seq.contains("campaign.scenarios"));
    for threads in [2, 4] {
        assert_eq!(seq, snapshot_at(threads), "threads={threads}");
    }
}

#[test]
fn progress_sees_every_scenario_exactly_once() {
    let c = tiny();
    let bus = ProgressBus::new();
    let mut obs = CampaignObs::new().with_progress(Box::new(bus.clone()));
    observed_run(&c, 3, &mut obs);
    let snap = bus.snapshot();
    assert_eq!((snap.total, snap.done, snap.failed), (c.len(), c.len(), 0));
    assert!(snap.finished);
    let (events, _) = bus.events_since(0, std::time::Duration::ZERO);
    assert_eq!(events.len(), c.len() + 2, "begin, one line per item, end");
    let mut done: Vec<usize> = events[1..=c.len()]
        .iter()
        .map(|line| {
            let event = json::parse(line).unwrap();
            event.get("index").and_then(json::Value::as_u64).unwrap() as usize
        })
        .collect();
    done.sort_unstable();
    assert_eq!(done, (0..c.len()).collect::<Vec<_>>());
}
