//! Asynchronous unison (§5 of the SDR paper).
//!
//! The *unison* problem is a clock-synchronization problem: every
//! process `u` holds a periodic clock `c_u ∈ {0, …, K−1}` and must
//! increment it infinitely often (liveness) while staying within one
//! increment of every neighbor (safety).
//!
//! This crate provides:
//!
//! * [`Unison`] — Algorithm U (Algorithm 2): a *non-self-stabilizing*
//!   distributed unison, correct from the configuration where all clocks
//!   are `0`, provided the period satisfies `K > n` (Theorem 5);
//! * the composition `U ∘ SDR` via [`unison_sdr`] — a self-stabilizing
//!   unison with stabilization time ≤ `3n` rounds (Theorem 7) and
//!   `O(D·n²)` moves (Theorem 6), improving on the `O(D·n³ + α·n²)`
//!   moves of Boulinier et al. \[11\];
//! * [`spec`] — executable safety/liveness checkers and the closed-form
//!   move bound of Theorem 6.
//!
//! # Examples
//!
//! Self-stabilizing unison recovering from an arbitrary configuration:
//!
//! ```
//! use ssr_graph::generators;
//! use ssr_runtime::{Daemon, Simulator};
//! use ssr_unison::{spec, unison_sdr, Unison};
//!
//! let g = generators::ring(8);
//! let algo = unison_sdr(Unison::for_graph(&g));
//! let init = algo.arbitrary_config(&g, 1234);
//! let check = unison_sdr(Unison::for_graph(&g));
//! let mut sim = Simulator::new(&g, algo, init, Daemon::RandomSubset { p: 0.5 }, 5);
//! let out = sim.execution().cap(1_000_000).until(|gr, st| check.is_normal_config(gr, st)).run();
//! assert!(out.reached);
//! assert!(out.rounds_at_hit <= 3 * 8, "Theorem 7");
//! // From a normal configuration the unison specification holds:
//! let clocks: Vec<u64> = sim.states().iter().map(|s| s.inner).collect();
//! assert!(spec::safety_holds(&g, &clocks, check.input().period()));
//! ```

#![forbid(unsafe_code)]

pub mod family;
pub mod spec;
mod unison;
pub mod workloads;

pub use family::{UnisonFamily, UnisonSdrFamily};
pub use unison::{unison_sdr, PeriodError, Unison, UnisonSdr, RULE_U};
