//! What one benchmark run reports: operations attempted and failed,
//! named metrics with units, and the host they were measured on.

use ssr_campaign::{ScenarioRecord, Verdict};

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The tally of a run: every operation counts as attempted, and as
/// failed when any of its checks found a problem.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation; it failed when `problems` is non-empty.
    /// Each problem is printed to standard error.
    pub fn tally(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: {what}: {p}");
            }
        }
    }

    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, as one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// What is wrong with a campaign record, if anything: it must reach its
/// target with a `Pass` verdict, or `NoBound` for the baseline families,
/// which have no closed-form bound.
pub fn record_problem(rec: &ScenarioRecord) -> Option<String> {
    let ok = rec.reached && matches!(rec.verdict, Verdict::Pass | Verdict::NoBound);
    (!ok).then(|| {
        format!(
            "{} on {} n={} under {} (seed {}): reached={} verdict={:?}",
            rec.algorithm, rec.topology, rec.n, rec.daemon, rec.seed, rec.reached, rec.verdict
        )
    })
}

/// Counts `left == right`, naming both sides when they differ.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    left: T,
    right: T,
) {
    if left != right {
        problems.push(format!("{what}: got {left:?}, expected {right:?}"));
    }
}

/// Steal and total CPU time of the machine so far, in clock ticks, from
/// the first line of `/proc/stat`; zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Milliseconds a fixed single-threaded loop takes on this host now:
/// 2²⁰ dependent random reads over a 32 MiB table. Run after a
/// workload has read its peak memory; when it reads slow, the host was
/// slow, whatever the program did.
pub fn reference_ms() -> f64 {
    const WORDS: usize = 1 << 22;
    let table: Vec<u64> = (0..WORDS as u64).collect();
    let start = std::time::Instant::now();
    let (mut state, mut at) = (0x5EED_u64, 0_usize);
    for _ in 0..1 << 20 {
        at = (ssr_runtime::rng::splitmix64(&mut state) ^ table[at]) as usize & (WORDS - 1);
    }
    std::hint::black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// The host a figure was measured on: core count, CPU model, build
/// profile, the share of CPU time the hypervisor stole since `since`
/// (a `cpu_ticks` reading), and `reference_ms` at the end of the run.
/// Figures compare only within one host class, and a run with much
/// stolen time or a slow reference reads slow.
pub fn host_json(since: (u64, u64)) -> String {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(since.1);
    let steal = if total == 0 {
        0.0
    } else {
        now.0.saturating_sub(since.0) as f64 / total as f64
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"profile\":\"{profile}\",\"steal\":{steal:.4},\"ref_ms\":{:.2}}}",
        cpu.replace(['"', '\\'], ""),
        reference_ms()
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_with_a_failed_operation_is_not_correct() {
        let mut o = Outcome::default();
        o.tally("ok", &[]);
        o.put("run_s", 1.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        o.tally("bad", &["mismatch".to_string()]);
        assert!(o
            .json()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
    }
}
