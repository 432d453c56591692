//! The staged step pipeline behind [`crate::Simulator::step`].
//!
//! A composite-atomicity step factors into three phases, each a loop
//! over flat per-node arrays:
//!
//! 1. **select** ([`select`]) — the daemon picks a non-empty subset of
//!    the enabled set and each picked process resolves which of its
//!    enabled rules fires. This phase owns *every* RNG draw of the
//!    step; determinism follows.
//! 2. **apply** ([`apply`]) — every selected `(process, rule)` move
//!    computes its next state against the frozen pre-step
//!    configuration. Reads never see a write of the same step
//!    (composite atomicity); the merge commits the moves in selection
//!    order.
//! 3. **guards** ([`guards`]) — only the movers and their neighbors
//!    can change enabledness (§2.2 guard locality), so guard
//!    re-evaluation walks that refresh set on the CSR adjacency,
//!    followed by an order-preserving update of the enabled-set index.
//!
//! The commutativity argument (moves at non-adjacent processes
//! commute; the pipeline never interleaves reads and writes at all) is
//! spelled out in `DESIGN.md` §9.

pub(crate) mod apply;
pub(crate) mod guards;
pub(crate) mod select;
