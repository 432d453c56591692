//! **Algorithm SDR** — the Self-stabilizing Distributed cooperative Reset
//! of Devismes & Johnen (ICDCS 2019), §3 of the paper, plus the analysis
//! machinery of §4.
//!
//! SDR reinitializes an input algorithm `I` when inconsistencies are
//! locally detected. It is *multi-initiator* (any process detecting an
//! inconsistency may start a reset) and *cooperative* (concurrent resets
//! coordinate through a distance DAG so they do not overlap). The
//! composition `I ∘ SDR` is self-stabilizing for `I`'s specification:
//! within at most `3n` rounds the system reaches a *normal configuration*
//! (every process satisfies `P_Clean ∧ P_ICorrect`), and each process
//! executes at most `3n + 3` SDR moves along the way.
//!
//! # Using the crate
//!
//! 1. Implement [`ResetInput`] for your algorithm: its rules (written
//!    *without* the `P_Clean ∧ P_ICorrect` gate — the composition adds
//!    it, enforcing the paper's Requirement 2c), the local-checkability
//!    predicate `P_ICorrect`, the reset predicate `P_reset`, and the
//!    pre-defined reset state.
//! 2. Wrap it in [`Sdr`] and run it with `ssr_runtime::Simulator`.
//!
//! ```
//! use ssr_core::{toys::BoundedCounter, Sdr};
//! use ssr_graph::generators;
//! use ssr_runtime::{Daemon, Simulator};
//!
//! let g = generators::ring(6);
//! let algo = Sdr::new(BoundedCounter::new(8));
//! // An adversarial initial configuration: every process gets an
//! // arbitrary state (counter values AND reset variables).
//! let init = algo.arbitrary_config(&g, 0xBAD_5EED);
//! let mut sim = Simulator::new(&g, algo, init, Daemon::RandomSubset { p: 0.5 }, 7);
//! let out = sim
//!     .execution()
//!     .cap(100_000)
//!     .until(|graph, states| Sdr::new(BoundedCounter::new(8)).is_normal_config(graph, states))
//!     .run();
//! assert!(out.reached);
//! assert!(out.rounds_at_hit <= 3 * 6); // Corollary 5: ≤ 3n rounds
//! ```

#![forbid(unsafe_code)]

mod analysis;
pub mod family;
mod input;
mod sdr;
mod state;
pub mod toys;
pub mod validate;
pub mod workloads;

pub use analysis::{
    alive_roots, dead_roots, max_branch_depth, reset_children, reset_parents, RuleKind,
    SegmentObserver, SegmentReport, SegmentTracker,
};
pub use family::{composed, ComposedFamily};
pub use input::{ResetInput, Standalone};
pub use sdr::{Sdr, RULE_C, RULE_R, RULE_RB, RULE_RF, SDR_RULE_COUNT};
pub use state::{Composed, SdrState, Status};
