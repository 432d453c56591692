//! The repository benchmark: one command runs a workload, checks its
//! outputs and prints every metric by name and unit.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --sweep-digest 415f2b8df2551ff6 \
//!     --workload ring-1m-sync --seed 0 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a bare run; `--trace 1`
//! makes the separate traced run that prints the per-layer metrics and
//! writes its spans to `perfbench/out/`. The last line of standard
//! output is the result object; the line before it records the host.
//! See `perfbench/README.md` for the workloads and metrics.

mod api;
mod convergence;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// The default workload seed: the one the exact-count and digest
/// expectations were recorded at.
pub const DEFAULT_SEED: u64 = 0;

/// Engine workers everywhere: the benchmark is sized for two cores.
pub const WORKERS: usize = 2;

/// The end-to-end metrics: every bare run prints all of them, and
/// each means something on every workload (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("moves_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
];

/// The per-layer metrics of the traced run. A workload that does not
/// measure one prints it as 0; every percentile has a sample count
/// beside it, and `README.md` lists which workload measures which.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("graph.build_s", "s"),
    ("graph.diameter_s", "s"),
    ("core.init_s", "s"),
    ("runtime.sim_new_s", "s"),
    ("runtime.steps", "count"),
    ("runtime.moves", "count"),
    ("runtime.rounds", "count"),
    ("runtime.step_ns_p50", "ns"),
    ("runtime.step_ns_max", "ns"),
    ("runtime.step_samples", "count"),
    ("runtime.step_loop_s", "s"),
    ("runtime.phase.select_s", "s"),
    ("runtime.phase.apply_s", "s"),
    ("runtime.phase.guards_s", "s"),
    ("runtime.phase.unattributed_s", "s"),
    ("runtime.trace_overhead_ratio", "ratio"),
    ("campaign.busy_s", "s"),
    ("campaign.utilization", "ratio"),
    ("campaign.straggler_s", "s"),
    ("campaign.scenario_ms_p50", "ms"),
    ("campaign.scenario_ms_p99", "ms"),
    ("campaign.scenario_samples", "count"),
    ("campaign.failed", "count"),
    ("family.sdr-agreement.busy_s", "s"),
    ("family.sdr-agreement.steps", "count"),
    ("family.unison-sdr.busy_s", "s"),
    ("family.unison-sdr.steps", "count"),
    ("family.cfg-unison.busy_s", "s"),
    ("family.cfg-unison.steps", "count"),
    ("family.fga-sdr.busy_s", "s"),
    ("family.fga-sdr.steps", "count"),
    ("family.mono-reset.busy_s", "s"),
    ("family.mono-reset.steps", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("checkpoint.replayed", "count"),
    ("checkpoint.replay_s", "s"),
    ("checkpoint.journal_bytes", "bytes"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.cold_stream_ms_p50", "ms"),
    ("serve.warm_stream_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.records_ms_p50", "ms"),
    ("serve.records_bytes", "bytes"),
    ("serve.cold_job_p50_ms", "ms"),
    ("serve.warm_job_p50_ms", "ms"),
    ("serve.cold_job_p90_ms", "ms"),
    ("serve.warm_job_p90_ms", "ms"),
    ("serve.cold_job_samples", "count"),
    ("serve.warm_job_samples", "count"),
    ("serve.request_floor_ms", "ms"),
    ("serve.warm_scenario_share", "ratio"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.done_lag_reads", "count"),
    ("serve.non2xx", "count"),
];

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Expected digest of the default-seed campaign-sweep records.
    pub sweep_digest: Option<String>,
    /// Where traces and scratch files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// A seed for input stream `salt` of workload seed `seed`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ssr_runtime::rng::splitmix64(&mut state)
}

/// Whether one more repetition, as long as the mean of the `done` so
/// far since `clock` started, still ends within `seconds`.
pub fn another_fits(clock: std::time::Instant, done: usize, seconds: f64) -> bool {
    let elapsed = clock.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        sweep_digest: None,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--sweep-digest" => ctx.sweep_digest = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks = report::cpu_ticks();
    let mut tracer = Tracer::new(ctx.trace);
    let mut outcome = match workload.as_str() {
        "ring-1m-sync" => convergence::run(&convergence::RING, &ctx, &mut tracer),
        "torus-1m-sync" => convergence::run(&convergence::TORUS, &ctx, &mut tracer),
        "campaign-sweep" => sweep::run(&ctx, &mut tracer),
        "serve-resubmit" => serve::run(&ctx, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let listed: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for m in &outcome.metrics {
        assert!(
            listed.contains(&(m.name.as_str(), m.unit)),
            "{} [{}] is not a listed metric",
            m.name,
            m.unit
        );
    }
    for &(name, unit) in listed {
        if !outcome.metrics.iter().any(|m| m.name == name) {
            // A run that failed may stop before it measures anything.
            assert!(
                ctx.trace || outcome.failed > 0,
                "the bare run did not measure {name}"
            );
            if ctx.trace {
                outcome.put(name, 0.0, unit);
            }
        }
    }
    let host = report::host_json(ticks);
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host}}}",
        ctx.seed, ctx.seconds, ctx.trace
    );
    if ctx.trace {
        let path = ctx
            .out_dir
            .join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
        if let Err(e) = tracer.write(&path, &header, &outcome.metrics) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{header}");
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_obs::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn another_repetition_fits_only_within_the_time() {
        let clock = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(another_fits(clock, 1, 10.0));
        assert!(!another_fits(clock, 1, 0.03));
    }
}
