//! End-to-end exit-code contract of the `report` bin: `record` builds
//! a history store from scale sweeps, `check` passes on a steady
//! history and exits nonzero once an entry degrades past the tolerance
//! bands — the CI tripwire this PR exists for. Runs the real binaries
//! via `CARGO_BIN_EXE_*`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// One `bench-scale-v3` cell, enough for a single-cell history entry.
const SCALE_JSON: &str = r#"{
  "schema": "bench-scale-v3",
  "smoke": true,
  "runs": [
    {"topology":"ring","n":1000,"steps":11,"moves":2894,"rounds":11,"seconds":0.0003,"steps_per_sec":34582.7,"moves_per_sec":9098397.2,"converged":true,"phase_nanos":{"select":7038,"apply":44996,"guards":252129}}
  ]
}
"#;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-report-cli-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("spawn report bin")
}

fn obs_validate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .args(args)
        .output()
        .expect("spawn obs_validate bin")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn check_trips_on_degraded_entry() {
    let dir = scratch("tripwire");
    let scale = dir.join("BENCH_SCALE.json");
    let history = dir.join("BENCH_HISTORY.jsonl");
    std::fs::write(&scale, SCALE_JSON).expect("write scale fixture");
    let scale_s = scale.to_str().expect("utf8 path");
    let history_s = history.to_str().expect("utf8 path");

    // Two identical sweeps: a baseline and a steady current.
    for sha in ["aaa111", "bbb222"] {
        let out = report(&[
            "record",
            "--scale",
            scale_s,
            "--history",
            history_s,
            "--sha",
            sha,
            "--host",
            "test-host",
        ]);
        assert!(out.status.success(), "record {sha}: {}", stderr_of(&out));
    }
    let out = report(&["check", "--history", history_s]);
    assert!(
        out.status.success(),
        "identical entries must pass: {}",
        stderr_of(&out)
    );

    // A degraded third entry: throughput halved, apply phase doubled —
    // well past the default 15%/25% bands.
    let text = std::fs::read_to_string(&history).expect("read history");
    let mut entries = ssr_report::history::parse_history_jsonl(&text).expect("parse history");
    let mut bad = entries.pop().expect("two entries recorded");
    bad.sha = "ccc333".into();
    for cell in &mut bad.cells {
        cell.steps_per_sec *= 0.5;
        cell.moves_per_sec *= 0.5;
        cell.phase_apply_nanos *= 2;
    }
    let mut text = std::fs::read_to_string(&history).expect("read history");
    text.push_str(&ssr_report::history::entry_to_json_line(&bad));
    text.push('\n');
    std::fs::write(&history, text).expect("append degraded entry");

    let out = report(&["check", "--history", history_s]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "degraded entry must trip the gate: {}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(err.contains("REGRESSION"), "stderr: {err}");
    assert!(err.contains("steps_per_sec"), "stderr: {err}");
    assert!(err.contains("phase_apply_nanos"), "stderr: {err}");

    // Explicit baseline selection trips the same way; a generous
    // tolerance clears the throughput band but not the doubled phase.
    let out = report(&["check", "--history", history_s, "--baseline", "bbb222"]);
    assert_eq!(out.status.code(), Some(1));
    let out = report(&[
        "check",
        "--history",
        history_s,
        "--throughput-tol",
        "0.9",
        "--phase-tol",
        "2.0",
    ]);
    assert!(
        out.status.success(),
        "loose tolerances must pass: {}",
        stderr_of(&out)
    );
    // A throughput tolerance of 1 or more puts the floor at or below
    // zero: a gate that cannot trip is refused.
    let out = report(&["check", "--history", history_s, "--throughput-tol", "5.0"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("throughput tolerance"),
        "{}",
        stderr_of(&out)
    );

    // The store the gate just read validates as ssr-history/v1.
    let out = obs_validate(&["--kind", "history", history_s]);
    assert!(out.status.success(), "{}", stderr_of(&out));
}

#[test]
fn record_requires_explicit_identity() {
    let dir = scratch("identity");
    let scale = dir.join("BENCH_SCALE.json");
    std::fs::write(&scale, SCALE_JSON).expect("write scale fixture");
    let out = report(&[
        "record",
        "--scale",
        scale.to_str().expect("utf8 path"),
        "--history",
        dir.join("h.jsonl").to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(2), "missing --sha is a usage error");
    assert!(stderr_of(&out).contains("--sha"));
}

#[test]
fn check_needs_two_entries() {
    let dir = scratch("short");
    let scale = dir.join("BENCH_SCALE.json");
    let history = dir.join("BENCH_HISTORY.jsonl");
    std::fs::write(&scale, SCALE_JSON).expect("write scale fixture");
    let out = report(&[
        "record",
        "--scale",
        scale.to_str().expect("utf8 path"),
        "--history",
        history.to_str().expect("utf8 path"),
        "--sha",
        "aaa111",
        "--host",
        "test-host",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = report(&["check", "--history", history.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("baseline"));
}
