//! `serve-resubmit`: an in-process `ssr_serve::Server` (two engine
//! threads, a checkpoint journal) driven over loopback by one
//! closed-loop client, one connection at a time.
//!
//! Before the clock starts the benchmark writes a journal of records
//! from seeds disjoint from every submitted spec. Set-up is
//! `Server::bind`, which replays that journal, up to the first `200`
//! from `/healthz`; it is measured several times and the last server
//! serves the run. A bare run replaces it with a fresh one, booted on
//! the same journal, every `SERVER_CYCLES` cycles.
//!
//! The client works through a seeded list of distinct specs. For each
//! spec it submits the spec cold, then the identical spec warm, and
//! for each job: `POST /campaigns`, read `GET …/events` until the server
//! closes it, read the status until it says `done`, `GET
//! records.jsonl`. Completion is seen on the event stream, never by
//! sleeping; the stream can close before the job's records are stored,
//! so the status re-reads that still find the job unfinished are
//! counted (`serve.done_lag_reads`). A job's latency runs from its
//! `POST` to the end of its records body.
//!
//! Checks: every response is 2xx; a cold job misses the cache on every
//! scenario and simulates, a warm job hits on every scenario and
//! simulates nothing; the warm records equal the cold ones byte for
//! byte, and the cold ones equal `output::jsonl` of a direct engine run
//! of the same spec.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ssr_campaign::{output, CheckpointWriter, RecordCache, ScenarioRecord};
use ssr_obs::json::{self, Value};
use ssr_serve::{Server, ServerConfig};

use crate::report::{self, expect_eq, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{api, derive, sweep, Ctx, WORKERS};

/// Trials per grid cell: 60 cells × 8 trials = 480 scenarios a spec.
const TRIALS: u64 = 8;
/// Round trips of `GET /healthz` behind `serve.request_floor_ms`.
const FLOOR_REQUESTS: usize = 200;
/// Specs whose records make up the boot journal.
const JOURNAL_SPECS: usize = 4;
/// Measurements of the set-up.
const SETUP_REPS: usize = 9;
/// Cycles (cold + warm job) in each half of the traced run.
const TRACE_CYCLES: usize = 40;
/// A bare run checks every `VERIFY_EVERY`-th spec against a direct
/// engine run (the traced run checks them all).
const VERIFY_EVERY: usize = 8;
/// Cycles one server serves in a bare run. The server keeps every job's
/// artifacts, so memory grows with the jobs served; a bare run starts a
/// fresh server after this many cycles, between timed cycles, and reads
/// its peak memory at the end of the first server's cycles.
const SERVER_CYCLES: usize = 100;
/// Salt of the spec seeds; journal specs use a disjoint range.
const SPEC_SALT: u64 = 1 << 32;
const JOURNAL_SALT: u64 = 2 << 32;

/// The `i`-th spec of the stream `salt` for workload seed `seed`.
///
/// Rings are left out: on rings of 16–64 nodes under `subset(p=0.5)`
/// about one `cfg-unison` run in 10⁴ fails to converge within the
/// 5·10⁶-step cap, and a run serves hundreds of specs. On grids and
/// `rand-sparse` graphs of these sizes none failed in 1.2·10⁶ runs. The
/// campaign sweep keeps rings, where the defect shows.
fn spec(seed: u64, salt: u64, i: usize) -> String {
    format!(
        concat!(
            r#"{{"schema":"ssr-campaign-spec/v1","id":"spec-{}","#,
            r#""topologies":["grid","rand-sparse"],"sizes":[16,32],"#,
            r#""algorithms":["sdr-agreement(8)","unison-sdr","cfg-unison","fga-sdr:domination(1,0)","mono-reset"],"#,
            r#""daemons":["central","subset(p=0.5)","sync"],"trials":{},"seed":{}}}"#
        ),
        i,
        TRIALS,
        derive(seed, salt + i as u64)
    )
}

/// One HTTP response.
struct Response {
    status: u16,
    body: Vec<u8>,
}

/// One request on a fresh connection (the server closes every
/// connection after its response); reads the response to its end.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(fail)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(fail)?;
    stream.write_all(body.as_bytes()).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no response head"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok(Response {
        status,
        body: raw.split_off(split + 4),
    })
}

/// The status document fields a job is checked on.
#[derive(Clone, Copy, Debug, Default)]
struct Status {
    scenarios: u64,
    hits: u64,
    misses: u64,
    sim_steps: u64,
}

/// What one job cost and returned.
#[derive(Default)]
struct Job {
    submit_ms: f64,
    stream_ms: f64,
    status_ms: f64,
    records_ms: f64,
    total_ms: f64,
    lag_reads: u64,
    status: Status,
    records: Vec<u8>,
}

impl Job {
    /// Requests the job made: submit, events, each status read, records.
    fn requests(&self) -> u64 {
        4 + self.lag_reads
    }
}

/// The client: the server address, spans, and a tally of non-2xx
/// answers.
struct Client<'t> {
    addr: SocketAddr,
    tr: &'t mut Tracer,
    non2xx: u64,
}

impl Client<'_> {
    /// A request that must answer 2xx.
    fn call(
        &mut self,
        span: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Vec<u8>, String> {
        let (res, _) = self
            .tr
            .time(span, || request(self.addr, method, path, body));
        let res = res?;
        if !(200..300).contains(&res.status) {
            self.non2xx += 1;
            return Err(format!(
                "{method} {path}: status {}: {}",
                res.status,
                String::from_utf8_lossy(&res.body)
            ));
        }
        Ok(res.body)
    }

    /// Runs one job inside a span named `kind`; any error fails it.
    fn job(&mut self, kind: &str, spec: &str) -> Result<Job, String> {
        let open = self.tr.begin(kind);
        let job = self.job_requests(spec);
        self.tr.end(open);
        job
    }

    fn job_requests(&mut self, spec: &str) -> Result<Job, String> {
        let mut job = Job::default();
        let start = Instant::now();
        let posted = self.call("serve.submit", "POST", "/campaigns", spec)?;
        job.submit_ms = ms_since(start);
        let doc = parse_json(&posted)?;
        let id = doc
            .get("job")
            .and_then(Value::as_str)
            .ok_or("submit answer has no job id")?
            .to_string();
        let t = Instant::now();
        self.call(
            "serve.stream",
            "GET",
            &format!("/campaigns/{id}/events"),
            "",
        )?;
        job.stream_ms = ms_since(t);
        let t = Instant::now();
        loop {
            let doc =
                parse_json(&self.call("serve.status", "GET", &format!("/campaigns/{id}"), "")?)?;
            match doc.get("phase").and_then(Value::as_str) {
                Some("done") => {
                    let field = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
                    job.status = Status {
                        scenarios: field("scenarios"),
                        hits: field("cache_hits"),
                        misses: field("cache_misses"),
                        sim_steps: field("sim_steps"),
                    };
                    break;
                }
                Some("failed") => return Err(format!("job {id} failed: {doc:?}")),
                _ => job.lag_reads += 1,
            }
        }
        job.status_ms = ms_since(t);
        let t = Instant::now();
        job.records = self.call(
            "serve.records",
            "GET",
            &format!("/campaigns/{id}/records.jsonl"),
            "",
        )?;
        job.records_ms = ms_since(t);
        job.total_ms = ms_since(start);
        Ok(job)
    }

    /// Median round trip of `GET /healthz`, which does no work: what a
    /// request of a job pays for its connection alone.
    fn floor_ms(&mut self) -> Result<f64, String> {
        let mut times = Vec::with_capacity(FLOOR_REQUESTS);
        for _ in 0..FLOOR_REQUESTS {
            let t = Instant::now();
            self.call("serve.healthz", "GET", "/healthz", "")?;
            times.push(ms_since(t));
        }
        Ok(median(&times))
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn parse_json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    json::parse(text)
}

/// Counts one job; a failed request is the job's failure. `cold` is
/// the cold job's records when `job` is its warm resubmission.
fn check_job(kind: &str, job: &Result<Job, String>, cold: Option<&[u8]>, outcome: &mut Outcome) {
    let mut problems = Vec::new();
    match (job, cold) {
        (Err(e), _) => problems.push(e.clone()),
        (Ok(job), None) => {
            // Specs are distinct and disjoint from the journal: every
            // scenario misses the cache and simulates.
            let s = job.status;
            expect_eq(
                &mut problems,
                "cold hits, misses",
                (s.hits, s.misses),
                (0, s.scenarios),
            );
            if s.sim_steps == 0 {
                problems.push("the cold job simulated nothing".to_string());
            }
            match served_records(job) {
                Ok(records) => {
                    expect_eq(&mut problems, "records", records.len() as u64, s.scenarios);
                    problems.extend(records.iter().filter_map(report::record_problem));
                }
                Err(e) => problems.push(format!("unreadable records: {e}")),
            }
        }
        (Ok(job), Some(cold)) => {
            let s = job.status;
            expect_eq(
                &mut problems,
                "warm hits, misses, steps",
                (s.hits, s.misses, s.sim_steps),
                (s.scenarios, 0, 0),
            );
            if job.records != cold {
                problems.push("warm records differ from the cold records".to_string());
            }
        }
    }
    outcome.tally(kind, &problems);
}

/// A running server and the thread that serves it.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), String>>,
}

/// Copies the boot journal to `journal`, binds a server on the copy
/// (replaying it) and waits for its first healthy answer; returns it
/// with the set-up time in seconds, the copy left out. Every start must
/// replay the whole boot journal.
fn start(
    boot: &Path,
    journal: &Path,
    journaled: usize,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(Running, f64), String> {
    std::fs::copy(boot, journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let open = tr.begin("serve.setup");
    let start = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        checkpoint: Some(journal.to_path_buf()),
    })?;
    let addr = server.local_addr();
    let replayed = server.replayed();
    let thread = std::thread::spawn(move || server.run());
    let health = request(addr, "GET", "/healthz", "")?;
    let setup_s = start.elapsed().as_secs_f64();
    tr.end(open);
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    let mut problems = Vec::new();
    expect_eq(&mut problems, "replayed", replayed, journaled);
    outcome.tally("server start", &problems);
    Ok((Running { addr, thread }, setup_s))
}

fn stop(server: Running) -> Result<(), String> {
    let res = request(server.addr, "POST", "/shutdown", "")?;
    let joined = server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    if res.status != 200 {
        return Err(format!("/shutdown answered {}", res.status));
    }
    joined
}

/// Writes the boot journal: the records of `JOURNAL_SPECS` specs from
/// the journal seed range; returns how many.
fn write_journal(path: &Path, seed: u64) -> Result<usize, String> {
    let writer = CheckpointWriter::open(path).map_err(|e| e.to_string())?;
    let mut written = 0;
    for i in 0..JOURNAL_SPECS {
        let (_, campaign) = ssr_serve::spec::parse(&spec(seed, JOURNAL_SALT, i))?;
        let entries = api::run_grid(&campaign, WORKERS, |sc| {
            (sc.fingerprint(), api::run_scenario(sc))
        });
        for (fp, rec) in &entries {
            writer.append(*fp, rec).map_err(|e| e.to_string())?;
        }
        written += entries.len();
    }
    Ok(written)
}

/// One cold + warm cycle.
struct Cycle {
    spec: String,
    cold: Result<Job, String>,
    warm: Result<Job, String>,
}

impl Cycle {
    fn ms(&self) -> Option<f64> {
        Some(self.cold.as_ref().ok()?.total_ms + self.warm.as_ref().ok()?.total_ms)
    }
}

fn cycles(
    client: &mut Client,
    seed: u64,
    first: usize,
    mut more: impl FnMut(usize) -> bool,
    outcome: &mut Outcome,
) -> Vec<Cycle> {
    let mut out = Vec::new();
    let mut i = first;
    while out.is_empty() || more(out.len()) {
        let spec = spec(seed, SPEC_SALT, i);
        let cold = client.job("serve.job.cold", &spec);
        check_job("cold job", &cold, None, outcome);
        let mut warm = client.job("serve.job.warm", &spec);
        let cold_records = cold.as_ref().ok().map(|j| j.records.as_slice());
        check_job(
            "warm job",
            &warm,
            Some(cold_records.unwrap_or(b"")),
            outcome,
        );
        // Checked equal to the cold records: no need to keep them.
        if let Ok(warm) = &mut warm {
            warm.records = Vec::new();
        }
        out.push(Cycle { spec, cold, warm });
        i += 1;
    }
    out
}

/// Checks the cold records of every `every`-th cycle against a direct
/// engine run of the same spec, after the clock has stopped.
fn check_direct(cycles: &[Cycle], every: usize, outcome: &mut Outcome) {
    for c in cycles.iter().step_by(every) {
        let mut problems = Vec::new();
        match (ssr_serve::spec::parse(&c.spec), &c.cold) {
            (Err(e), _) => problems.push(e),
            (Ok(_), Err(_)) => problems.push("the cold job failed".to_string()),
            (Ok((_, campaign)), Ok(cold)) => {
                let records = api::run_campaign(&campaign, WORKERS);
                if output::jsonl(&records).as_bytes() != cold.records.as_slice() {
                    problems.push("cold records differ from a direct engine run".to_string());
                }
            }
        }
        outcome.tally("direct run", &problems);
    }
}

/// The records a job's `records.jsonl` carried.
fn served_records(job: &Job) -> Result<Vec<ScenarioRecord>, String> {
    std::str::from_utf8(&job.records)
        .map_err(|e| e.to_string())?
        .lines()
        .map(|line| ssr_campaign::checkpoint::record_from_json(&json::parse(line)?))
        .collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let dir = ctx
        .out_dir
        .join(format!("serve-{}-{}", std::process::id(), ctx.seed));
    let mut outcome = Outcome::default();
    let result = run_in(&dir, ctx, tr, &mut outcome);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        outcome.tally("serve", &[e]);
    }
    outcome
}

fn run_in(dir: &PathBuf, ctx: &Ctx, tr: &mut Tracer, outcome: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let boot = dir.join("boot.jsonl");
    let journal = dir.join("journal.jsonl");
    let journaled = write_journal(&boot, ctx.seed)?;

    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (running, t) = start(&boot, &journal, journaled, tr, outcome)?;
        setups.push(t);
        if rep + 1 < SETUP_REPS {
            stop(running)?;
        } else {
            server = Some(running);
        }
    }
    let mut server = server.expect("at least one set-up");
    let journal_bytes = file_len(&journal);
    let replay_s = if ctx.trace {
        let mut times = Vec::new();
        for _ in 0..SETUP_REPS {
            let cache = RecordCache::new();
            let (n, t) = tr.time("checkpoint.replay", || {
                ssr_campaign::checkpoint::replay_into(&boot, &cache)
            });
            let mut problems = Vec::new();
            expect_eq(&mut problems, "replayed", n, Ok(journaled));
            outcome.tally("journal replay", &problems);
            times.push(t);
        }
        median(&times)
    } else {
        0.0
    };

    let mut non2xx = 0;
    let mut peak_rss = 0.0;
    let (bare, traced) = if ctx.trace {
        // The bare half records no spans; the traced half does.
        let mut quiet = Tracer::new(false);
        let mut client = Client {
            addr: server.addr,
            tr: &mut quiet,
            non2xx: 0,
        };
        let bare = cycles(&mut client, ctx.seed, 0, |n| n < TRACE_CYCLES, outcome);
        non2xx += client.non2xx;
        let mut client = Client {
            addr: server.addr,
            tr: &mut *tr,
            non2xx: 0,
        };
        let traced = cycles(
            &mut client,
            ctx.seed,
            TRACE_CYCLES,
            |n| n < TRACE_CYCLES,
            outcome,
        );
        let floor = client.floor_ms();
        non2xx += client.non2xx;
        (bare, Some((traced, floor?)))
    } else {
        let clock = Instant::now();
        let in_time = || clock.elapsed().as_secs_f64() < ctx.seconds;
        let mut bare = Vec::new();
        loop {
            let first = bare.is_empty();
            let mut client = Client {
                addr: server.addr,
                tr: &mut *tr,
                non2xx: 0,
            };
            let more = |n| n < SERVER_CYCLES && (first || in_time());
            bare.extend(cycles(&mut client, ctx.seed, bare.len(), more, outcome));
            if first {
                peak_rss = report::peak_rss_mb();
            }
            if !in_time() {
                break;
            }
            stop(server)?;
            server = start(&boot, &journal, journaled, tr, outcome)?.0;
        }
        (bare, None)
    };
    let journal_growth = file_len(&journal) - journal_bytes;
    stop(server)?;

    check_direct(&bare, VERIFY_EVERY, outcome);
    let Some((traced, floor_ms)) = traced else {
        // Medians over cycles: a spec with one long scenario must not
        // move a whole run's figure.
        let (mut cycle_s, mut move_rates, mut scenario_rates) =
            (Vec::new(), Vec::new(), Vec::new());
        for c in &bare {
            let (Ok(cold), Ok(warm), Some(ms)) = (&c.cold, &c.warm, c.ms()) else {
                continue;
            };
            let s = ms * 1e-3;
            let moves: u64 = served_records(cold)?.iter().map(|r| r.moves).sum();
            cycle_s.push(s);
            move_rates.push(moves as f64 / s);
            scenario_rates.push((cold.status.scenarios + warm.status.scenarios) as f64 / s);
        }
        outcome.put("setup_s", median(&setups), "s");
        outcome.put("run_s", median(&cycle_s), "s");
        outcome.put("moves_per_s", median(&move_rates), "1/s");
        outcome.put("scenarios_per_s", median(&scenario_rates), "1/s");
        outcome.put("peak_rss_mb", peak_rss, "MB");
        return Ok(());
    };
    check_direct(&traced, 1, outcome);
    layer_metrics(
        &bare,
        &traced,
        journaled,
        replay_s,
        journal_growth,
        non2xx,
        floor_ms,
        tr,
        outcome,
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    bare: &[Cycle],
    traced: &[Cycle],
    journaled: usize,
    replay_s: f64,
    journal_growth: u64,
    non2xx: u64,
    floor_ms: f64,
    tr: &mut Tracer,
    outcome: &mut Outcome,
) {
    let jobs = |cold: bool| -> Vec<&Job> {
        traced
            .iter()
            .filter_map(|c| if cold { &c.cold } else { &c.warm }.as_ref().ok())
            .collect()
    };
    let (cold, warm) = (jobs(true), jobs(false));
    let all: Vec<&Job> = cold.iter().chain(&warm).copied().collect();
    let pick = |js: &[&Job], f: fn(&Job) -> f64| js.iter().map(|j| f(j)).collect::<Vec<f64>>();
    let sum = |js: &[&Job], f: fn(&Job) -> u64| js.iter().map(|j| f(j)).sum::<u64>() as f64;
    let cycle_ms = |cs: &[Cycle]| median(&cs.iter().filter_map(Cycle::ms).collect::<Vec<_>>());
    let total_s: f64 = traced.iter().filter_map(Cycle::ms).sum::<f64>() * 1e-3;

    // What each cold job pays for graphs before it simulates.
    let campaigns: Vec<_> = traced
        .iter()
        .filter_map(|c| ssr_serve::spec::parse(&c.spec).ok())
        .map(|(_, campaign)| campaign)
        .collect();
    let (build_s, diameter_s) =
        sweep::graph_metrics(campaigns.iter().flat_map(|c| c.scenarios()), tr);
    let records: Vec<ScenarioRecord> = cold
        .iter()
        .filter_map(|j| served_records(j).ok())
        .flatten()
        .collect();
    let records = records.iter();
    let mut family_steps: BTreeMap<&str, u64> = BTreeMap::new();
    for r in records.clone() {
        *family_steps
            .entry(sweep::family_id(&r.algorithm))
            .or_default() += r.steps;
    }

    outcome.put("graph.build_s", build_s, "s");
    outcome.put("graph.diameter_s", diameter_s, "s");
    outcome.put("runtime.steps", sum(&cold, |j| j.status.sim_steps), "count");
    outcome.put(
        "runtime.moves",
        records.clone().map(|r| r.moves).sum::<u64>() as f64,
        "count",
    );
    outcome.put(
        "runtime.rounds",
        records.map(|r| r.rounds).sum::<u64>() as f64,
        "count",
    );
    outcome.put(
        "runtime.trace_overhead_ratio",
        cycle_ms(traced) / cycle_ms(bare),
        "ratio",
    );
    for (family, steps) in family_steps {
        outcome.put(format!("family.{family}.steps"), steps as f64, "count");
    }
    outcome.put("cache.hits", sum(&all, |j| j.status.hits), "count");
    outcome.put("cache.misses", sum(&all, |j| j.status.misses), "count");
    outcome.put("checkpoint.replayed", journaled as f64, "count");
    outcome.put("checkpoint.replay_s", replay_s, "s");
    outcome.put("checkpoint.journal_bytes", journal_growth as f64, "bytes");
    outcome.put(
        "serve.submit_ms_p50",
        median(&pick(&all, |j| j.submit_ms)),
        "ms",
    );
    outcome.put(
        "serve.cold_stream_ms_p50",
        median(&pick(&cold, |j| j.stream_ms)),
        "ms",
    );
    outcome.put(
        "serve.warm_stream_ms_p50",
        median(&pick(&warm, |j| j.stream_ms)),
        "ms",
    );
    outcome.put(
        "serve.status_ms_p50",
        median(&pick(&all, |j| j.status_ms)),
        "ms",
    );
    outcome.put(
        "serve.records_ms_p50",
        median(&pick(&all, |j| j.records_ms)),
        "ms",
    );
    // Warm records equal the cold ones (checked) and are not kept.
    outcome.put(
        "serve.records_bytes",
        2.0 * sum(&cold, |j| j.records.len() as u64),
        "bytes",
    );
    let cold_ms = pick(&cold, |j| j.total_ms);
    let warm_ms = pick(&warm, |j| j.total_ms);
    outcome.put("serve.cold_job_p50_ms", median(&cold_ms), "ms");
    outcome.put("serve.warm_job_p50_ms", median(&warm_ms), "ms");
    outcome.put("serve.cold_job_p90_ms", quantile(&cold_ms, 0.9), "ms");
    outcome.put("serve.warm_job_p90_ms", quantile(&warm_ms, 0.9), "ms");
    outcome.put("serve.cold_job_samples", cold_ms.len() as f64, "count");
    outcome.put("serve.warm_job_samples", warm_ms.len() as f64, "count");
    outcome.put("serve.request_floor_ms", floor_ms, "ms");
    // The share of a warm job's latency left once each of its requests
    // is charged the connection floor: the part its scenarios cost.
    let warm_share: Vec<f64> = warm
        .iter()
        .map(|j| 1.0 - j.requests() as f64 * floor_ms / j.total_ms)
        .collect();
    outcome.put("serve.warm_scenario_share", median(&warm_share), "ratio");
    outcome.put("serve.jobs_per_s", all.len() as f64 / total_s, "1/s");
    outcome.put("serve.done_lag_reads", sum(&all, |j| j.lag_reads), "count");
    outcome.put("serve.non2xx", non2xx as f64, "count");
}
