//! 1-minimal (f,g)-alliance (§6 of the SDR paper).
//!
//! Given non-negative node functions `f` and `g`, a set `A ⊆ V` is an
//! **(f,g)-alliance** iff every `u ∉ A` has at least `f(u)` neighbors in
//! `A` and every `v ∈ A` has at least `g(v)` neighbors in `A`. `A` is
//! **1-minimal** iff removing any single member breaks the alliance.
//! The problem generalizes domination, k-domination, k-tuple domination,
//! and global offensive/defensive/powerful alliances (§6.1).
//!
//! This crate provides:
//!
//! * [`Fga`] — Algorithm FGA (Algorithm 3): a *non-self-stabilizing*
//!   1-minimal (f,g)-alliance construction for identified networks with
//!   `δ_u ≥ max(f(u), g(u))`, terminating in `O(Δ·m)` moves (Theorem 9)
//!   and `5n + 4` rounds (Corollary 12) from `γ_init`;
//! * the silent self-stabilizing composition `FGA ∘ SDR` via
//!   [`fga_sdr`]: terminal configurations are 1-minimal
//!   (f,g)-alliances (Theorem 11), reached within `O(Δ·n·m)` moves
//!   (Theorem 12) and `8n + 4` rounds (Theorem 14);
//! * [`presets`] — the six classical instantiations of §6.1;
//! * [`verify`] — independent checkers (alliance, 1-minimality, and the
//!   classical definitions) and the paper's bounds in closed form.
//!
//! # A reproduction finding
//!
//! The published `bestPtr(u)` macro returns `⊥` whenever `scr_u ≤ 0`,
//! which blocks *self*-approval of members with zero g-slack
//! (`#InAll(u) = g(u)`). When `f(u) ≤ g(u)` such a member may be
//! removable even though the algorithm cannot elect it (the proof of
//! Theorem 8 asserts `realScr(m) = 1` for the minimum-identifier
//! removable member `m`, which only follows from `#InAll(m) ≥ f(m)`
//! when `f(m) > g(m)`). When the minimum-id removable member stalls
//! this way, higher-id removable members can be blocked *transitively*
//! (approval pointers keep aiming at the stalled smaller id).
//! Concretely: a global *defensive* alliance on a star terminates at
//! `A = V`, which is not 1-minimal. All presets with pointwise `f > g`
//! (domination, k-domination, k-tuple, offensive) verify 1-minimality
//! on every tested instance; defensive/powerful instances verify
//! alliance-ness always, and every observed 1-minimality gap is
//! explained by the corner — see
//! [`verify::gap_explained_by_gslack_corner`].
//!
//! # Examples
//!
//! ```
//! use ssr_alliance::{fga_sdr, presets, verify};
//! use ssr_graph::generators;
//! use ssr_runtime::{Daemon, Simulator};
//!
//! let g = generators::random_connected(12, 8, 5);
//! let fga = presets::domination(&g)?; // (1,0)-alliance
//! let algo = fga_sdr(fga.clone());
//! let init = algo.arbitrary_config(&g, 99);
//! let mut sim = Simulator::new(&g, algo, init, Daemon::Central, 7);
//! let out = sim.execution().cap(10_000_000).run();
//! assert!(out.terminal, "FGA ∘ SDR is silent");
//! let members = verify::members(sim.states().iter().map(|s| &s.inner));
//! assert!(verify::is_alliance(&g, fga.f(), fga.g(), &members));
//! assert!(verify::is_one_minimal(&g, fga.f(), fga.g(), &members));
//! assert!(verify::is_dominating_set(&g, &members));
//! # Ok::<(), ssr_alliance::FgaError>(())
//! ```

#![forbid(unsafe_code)]

pub mod family;
mod fga;
pub mod presets;
pub mod verify;

pub use family::{FgaSdrFamily, FgaStandaloneFamily};
pub use fga::{fga_sdr, Fga, FgaError, FgaSdr, FgaState, RULE_CLR, RULE_P1, RULE_P2, RULE_Q};
pub use presets::PresetSpec;
