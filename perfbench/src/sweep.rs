//! `campaign-sweep`: the campaign engine on two workers over five
//! families × `rand-sparse`/`grid`/`ring` × n ∈ {128, 256} ×
//! `central`/`subset(p=0.5)`/`sync` × [`TRIALS`] trials, with every
//! `run_scenario` call timed by the benchmark's runner.
//!
//! The seed picks the campaign's master seed, from which the engine
//! derives every scenario seed. Every run first sweeps the default-seed
//! grid before the clock starts — the set-up — and gates it on a digest
//! of its JSONL records; the expected digest is passed in with
//! `--sweep-digest`. Every record of
//! every sweep must reach its target with a `Pass` verdict (`NoBound`
//! for the two baseline families, which have no closed-form bound), and
//! every measured sweep must repeat the first one byte for byte.
//!
//! `mono-reset` ignores the `arbitrary` init and runs 0 steps: it stays
//! in the grid as the zero-step probe of per-scenario overhead.

use std::collections::{BTreeMap, HashMap};
use std::thread::ThreadId;
use std::time::Instant;

use ssr_campaign::{output, Campaign, Scenario, ScenarioRecord, TopologySpec};
use ssr_graph::metrics;
use ssr_runtime::Daemon;

use crate::report::{self, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{api, derive, Ctx, DEFAULT_SEED, WORKERS};

/// Trials per grid cell: 90 cells × 32 trials = 2880 scenarios a sweep.
const TRIALS: u64 = 32;

/// The swept families, by registry label.
const FAMILIES: [&str; 5] = [
    "sdr-agreement(8)",
    "unison-sdr",
    "cfg-unison",
    "fga-sdr:domination(1,0)",
    "mono-reset",
];

fn grid(master_seed: u64) -> Campaign {
    Campaign::new("campaign-sweep")
        .topologies(vec![
            TopologySpec::RandSparse,
            TopologySpec::Grid,
            TopologySpec::Ring,
        ])
        .sizes(vec![128, 256])
        .algorithms(
            FAMILIES
                .iter()
                .map(|l| l.parse().expect("a standard family label"))
                .collect(),
        )
        .daemons(vec![
            Daemon::Central,
            Daemon::RandomSubset { p: 0.5 },
            Daemon::Synchronous,
        ])
        .trials(TRIALS)
        .seed(master_seed)
}

fn master_seed(seed: u64) -> u64 {
    derive(seed, 2)
}

/// One `run_scenario` call as the runner saw it.
struct Call {
    start: Instant,
    end: Instant,
    worker: ThreadId,
}

struct Sweep {
    start: Instant,
    end: Instant,
    records: Vec<ScenarioRecord>,
    calls: Vec<Call>,
}

impl Sweep {
    fn wall(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

fn sweep(campaign: &Campaign, tr: &mut Tracer) -> Sweep {
    let open = tr.begin("campaign.sweep");
    let start = Instant::now();
    let timed = api::run_grid(campaign, WORKERS, |sc| {
        let start = Instant::now();
        let rec = api::run_scenario(sc);
        let end = Instant::now();
        let worker = std::thread::current().id();
        (rec, Call { start, end, worker })
    });
    let end = Instant::now();
    let (records, calls): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
    for (rec, call) in records.iter().zip(&calls) {
        tr.record(
            &format!("campaign.run_scenario.{}", family_id(&rec.algorithm)),
            call.start,
            call.end,
        );
    }
    tr.end(open);
    Sweep {
        start,
        end,
        records,
        calls,
    }
}

/// The family part of an algorithm label: `fga-sdr:domination(1,0)` →
/// `fga-sdr`.
pub fn family_id(label: &str) -> &str {
    label.split([':', '(']).next().unwrap_or(label)
}

/// Counts every record of `s` as one operation.
fn check_records(s: &Sweep, outcome: &mut Outcome) {
    for rec in &s.records {
        let problems: Vec<String> = report::record_problem(rec).into_iter().collect();
        outcome.tally("scenario", &problems);
    }
}

/// FNV-1a, 64 bits, as 16 hex digits.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Sweeps the default-seed grid and checks its digest; returns the
/// sweep's wall time.
fn gate(ctx: &Ctx, tr: &mut Tracer, outcome: &mut Outcome) -> f64 {
    let s = sweep(&grid(master_seed(DEFAULT_SEED)), tr);
    check_records(&s, outcome);
    let got = digest(output::jsonl(&s.records).as_bytes());
    eprintln!("perfbench: default-seed campaign-sweep digest {got}");
    let problems = match &ctx.sweep_digest {
        Some(want) if *want == got => Vec::new(),
        Some(want) => vec![format!("records digest {got}, expected {want}")],
        None => vec!["no --sweep-digest given to check the records against".to_string()],
    };
    outcome.tally("default-seed digest", &problems);
    s.wall()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    // The set-up is the first sweep in the process: the gate, over the
    // same default-seed grid in every run. Building the registry and the
    // grid takes about 0.2 ms, too little to time steadily, and the first
    // sweep also pays every one-time cost (lazy registry, allocator
    // growth).
    let setup_s = gate(ctx, tr, &mut outcome);
    let campaign = grid(master_seed(ctx.seed));
    if ctx.trace {
        let bare = sweep(&campaign, tr);
        check_records(&bare, &mut outcome);
        let traced = sweep(&campaign, tr);
        check_records(&traced, &mut outcome);
        let same = output::jsonl(&bare.records) == output::jsonl(&traced.records);
        outcome.tally(
            "sweep repeat",
            &same
                .then(Vec::new)
                .unwrap_or_else(|| vec!["records differ between sweeps".to_string()]),
        );
        layer_metrics(&campaign, &bare, &traced, tr, &mut outcome);
        return outcome;
    }
    let clock = Instant::now();
    let (mut walls, mut move_rates, mut first) = (Vec::new(), Vec::new(), None);
    while walls.is_empty() || crate::another_fits(clock, walls.len(), ctx.seconds) {
        let s = sweep(&campaign, tr);
        check_records(&s, &mut outcome);
        let jsonl = output::jsonl(&s.records);
        let first = first.get_or_insert_with(|| jsonl.clone());
        outcome.tally(
            "sweep repeat",
            &(*first == jsonl)
                .then(Vec::new)
                .unwrap_or_else(|| vec!["records differ from the first sweep".to_string()]),
        );
        let moves: u64 = s.records.iter().map(|r| r.moves).sum();
        walls.push(s.wall());
        move_rates.push(moves as f64 / s.wall());
    }
    let run_s = median(&walls);
    outcome.put("setup_s", setup_s, "s");
    outcome.put("run_s", run_s, "s");
    outcome.put("moves_per_s", median(&move_rates), "1/s");
    outcome.put("scenarios_per_s", campaign.len() as f64 / run_s, "1/s");
    outcome.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    outcome
}

/// Builds every scenario's graph and takes its diameter, timed from
/// outside the engine: what `run_scenario` pays before it simulates.
/// Returns the total build and diameter times in seconds.
pub fn graph_metrics(scenarios: impl Iterator<Item = Scenario>, tr: &mut Tracer) -> (f64, f64) {
    let open = tr.begin("graph.metrics");
    let (mut build_s, mut diameter_s) = (0.0, 0.0);
    for sc in scenarios {
        let [graph_seed] = sc.seeds::<1>();
        let (g, t) = tr.time("graph.build", || sc.topology.build(sc.n, graph_seed));
        build_s += t;
        let (d, t) = tr.time("graph.diameter", || metrics::diameter(&g));
        diameter_s += t;
        std::hint::black_box(d);
    }
    tr.end(open);
    (build_s, diameter_s)
}

fn layer_metrics(
    campaign: &Campaign,
    bare: &Sweep,
    traced: &Sweep,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) {
    let wall = traced.wall();
    let ms: Vec<f64> = traced
        .calls
        .iter()
        .map(|c| c.end.duration_since(c.start).as_secs_f64() * 1e3)
        .collect();
    let busy: f64 = ms.iter().sum::<f64>() * 1e-3;
    // A worker ran out of work after its last call ended.
    let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
    for c in &traced.calls {
        let e = last_end.entry(c.worker).or_insert(c.end);
        *e = (*e).max(c.end);
    }
    let first_idle = last_end.values().min().copied().unwrap_or(traced.end);
    let mut per_family: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (rec, t) in traced.records.iter().zip(&ms) {
        let e = per_family.entry(family_id(&rec.algorithm)).or_default();
        e.0 += t * 1e-3;
        e.1 += rec.steps;
    }
    let sum = |f: fn(&ScenarioRecord) -> u64| traced.records.iter().map(f).sum::<u64>() as f64;

    let (build_s, diameter_s) = graph_metrics(campaign.scenarios(), tr);

    outcome.put("graph.build_s", build_s, "s");
    outcome.put("graph.diameter_s", diameter_s, "s");
    outcome.put("runtime.steps", sum(|r| r.steps), "count");
    outcome.put("runtime.moves", sum(|r| r.moves), "count");
    outcome.put("runtime.rounds", sum(|r| r.rounds), "count");
    outcome.put("runtime.trace_overhead_ratio", wall / bare.wall(), "ratio");
    outcome.put("campaign.busy_s", busy, "s");
    outcome.put(
        "campaign.utilization",
        busy / (WORKERS as f64 * wall),
        "ratio",
    );
    outcome.put(
        "campaign.straggler_s",
        traced.end.duration_since(first_idle).as_secs_f64(),
        "s",
    );
    outcome.put("campaign.scenario_ms_p50", quantile(&ms, 0.5), "ms");
    outcome.put("campaign.scenario_ms_p99", quantile(&ms, 0.99), "ms");
    outcome.put("campaign.scenario_samples", ms.len() as f64, "count");
    outcome.put(
        "campaign.failed",
        traced
            .records
            .iter()
            .filter(|r| report::record_problem(r).is_some())
            .count() as f64,
        "count",
    );
    for (family, (busy, steps)) in per_family {
        outcome.put(format!("family.{family}.busy_s"), busy, "s");
        outcome.put(format!("family.{family}.steps"), steps as f64, "count");
    }
}
