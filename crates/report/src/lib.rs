//! The read path over the stack's own artifacts, and what it buys:
//! self-contained HTML/SVG campaign reports plus a perf-history store
//! with a regression tripwire.
//!
//! Everything else in the workspace *writes* artifacts — campaign
//! JSONL/CSV ([`reader::parse_campaign_jsonl`]), `ssr-metrics-v1`
//! snapshots, trace JSONL, `BENCH_RESULTS.json`, `BENCH_SCALE.json`.
//! This crate closes the loop: typed readers built on the shared
//! [`ssr_obs::json`] recursive-descent parser ([`reader`]), a
//! deterministic renderer turning one artifact directory into one
//! self-contained HTML page with inline SVG charts ([`html`],
//! [`svg`]), and the append-only `BENCH_HISTORY.jsonl` store with the
//! `check` gate that trips CI on throughput or phase-time regressions
//! ([`history`]).
//!
//! # Determinism
//!
//! Rendering is a pure function of the artifact bytes: no clocks, no
//! RNG, no locale, sorted directory walks, fixed float formats. Since
//! campaign records and untimed traces/metrics are themselves
//! byte-identical at any campaign worker count, so is the report —
//! `diff` two reports to diff two runs.
//!
//! # Quick tour
//!
//! ```
//! use ssr_report::history::{check, HistoryEntry, Tolerance};
//!
//! let line = "{\"schema\":\"ssr-history/v1\",\"sha\":\"abc\",\"host\":\"ci\",\
//!             \"source\":\"BENCH_SCALE.json\",\"cells\":[{\"topology\":\"ring\",\
//!             \"n\":1000,\"threads\":1,\"steps_per_sec\":100.0,\"moves_per_sec\":250.0,\
//!             \"phase_select_nanos\":10,\"phase_apply_nanos\":20,\"phase_guards_nanos\":5}]}";
//! let entries: Vec<HistoryEntry> = ssr_report::history::parse_history_jsonl(line).unwrap();
//! // Comparing an entry against itself trips nothing.
//! let regs = check(&entries[0], &entries[0], &Tolerance::default()).unwrap();
//! assert!(regs.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod history;
pub mod html;
pub mod reader;
pub mod svg;

pub use history::{check, HistoryEntry, Regression, Tolerance};
pub use html::{load_dir, render, Artifacts};
