//! First-class **algorithm families**: the open, string-addressable
//! registry behind every campaign, experiment, and exhaustive sweep.
//!
//! The paper's headline result is that SDR is a *transformer*: it
//! composes with **any** input algorithm satisfying §3.5, not just the
//! two published instantiations. This module makes that generality a
//! property of the API. A [`Family`] is an object-safe description of
//! one runnable algorithm family — its identity ([`Family::id`]),
//! instantiability on a graph, closed-form paper bounds, and a
//! [`Family::run`] entry point that owns the concrete
//! simulator/execution internally (so type erasure never touches the
//! hot step loop). Families register in a [`FamilyRegistry`] under
//! string keys; an [`AlgorithmSpec`] is just a parsed label
//! (`family` + optional `params`) resolved against a registry at run
//! time.
//!
//! The split of responsibilities:
//!
//! * this module owns the *vocabulary* — [`Family`], [`FamilyRegistry`],
//!   [`AlgorithmSpec`], [`InitPlan`]/[`Amount`], [`Verdict`],
//!   [`FamilyRunOutcome`], and the erased exploration hook
//!   [`ExploreFamily`];
//! * each algorithm crate implements its own families next to the
//!   algorithm (`ssr-core` for SDR compositions via `composed()`,
//!   `ssr-unison`, `ssr-alliance`, `ssr-baselines`);
//! * `ssr-campaign` ships the `standard_families()` builder assembling
//!   the default registry, and its `run_scenario` is nothing but a
//!   registry lookup plus one generic body.
//!
//! Registering your own family requires **no edits to any workspace
//! crate** — see `examples/custom_family.rs` at the repository root.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use ssr_graph::Graph;

use crate::exhaustive::{
    explore, Exploration, ExploreError, ExploreOptions, ExploreState, WorstCase,
};
use crate::rng::splitmix64;
use crate::trace::TraceSink;
use crate::{Algorithm, Daemon, Execution, RunOutcome, Simulator, TerminationReason};

// ---------------------------------------------------------------------
// Scenario vocabulary shared by every family
// ---------------------------------------------------------------------

/// A size-relative quantity (fault count, tear gap) resolved against
/// the actual node count at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Amount {
    /// A fixed value.
    Fixed(u64),
    /// `max(n/4, 1)`.
    QuarterN,
    /// `max(n/2, 1)`.
    HalfN,
    /// `n`.
    N,
}

impl Amount {
    /// Resolves against node count `n`.
    pub fn resolve(&self, n: u64) -> u64 {
        match self {
            Amount::Fixed(v) => *v,
            Amount::QuarterN => (n / 4).max(1),
            Amount::HalfN => (n / 2).max(1),
            Amount::N => n,
        }
    }

    /// Symbolic label (size-independent).
    pub fn label(&self) -> String {
        match self {
            Amount::Fixed(v) => v.to_string(),
            Amount::QuarterN => "n/4".into(),
            Amount::HalfN => "n/2".into(),
            Amount::N => "n".into(),
        }
    }

    /// Parses a [`Amount::label`] rendering back (`None` on anything
    /// else).
    pub fn parse_label(s: &str) -> Option<Amount> {
        match s {
            "n/4" => Some(Amount::QuarterN),
            "n/2" => Some(Amount::HalfN),
            "n" => Some(Amount::N),
            _ => s.parse::<u64>().ok().map(Amount::Fixed),
        }
    }
}

/// How the initial configuration of a run is produced.
///
/// Plans that are meaningless for a given algorithm family degrade
/// gracefully: families without an arbitrary-configuration sampler use
/// their `γ_init`, and `Tear`/`CorruptClocks` fall back to `Arbitrary`
/// outside the unison families (each [`Family`] documents its exact
/// rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InitPlan {
    /// The algorithm's arbitrary-configuration sampler (transient-fault
    /// soup) — the self-stabilization quantifier.
    Arbitrary,
    /// The algorithm's designated initial configuration (`γ_init` /
    /// all-zero clocks).
    Normal,
    /// A maximal legal clock gradient with a discontinuity of `gap`
    /// in the middle (unison families).
    Tear {
        /// Size of the clock discontinuity.
        gap: Amount,
    },
    /// Start legitimate, let the system run briefly, then corrupt `k`
    /// random clocks and measure recovery (unison families).
    CorruptClocks {
        /// Number of corrupted processes.
        k: Amount,
    },
}

impl InitPlan {
    /// Short label used in records and report tables.
    pub fn label(&self) -> String {
        match self {
            InitPlan::Arbitrary => "arbitrary".into(),
            InitPlan::Normal => "normal".into(),
            InitPlan::Tear { gap } => format!("tear({})", gap.label()),
            InitPlan::CorruptClocks { k } => format!("corrupt({})", k.label()),
        }
    }

    /// Parses a [`InitPlan::label`] rendering back — the inverse used
    /// by campaign-spec deserialization (`None` on anything else).
    pub fn parse_label(s: &str) -> Option<InitPlan> {
        match s {
            "arbitrary" => return Some(InitPlan::Arbitrary),
            "normal" => return Some(InitPlan::Normal),
            _ => {}
        }
        let inner = |prefix: &str| {
            s.strip_prefix(prefix)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
                .and_then(Amount::parse_label)
        };
        if let Some(gap) = inner("tear") {
            return Some(InitPlan::Tear { gap });
        }
        inner("corrupt").map(|k| InitPlan::CorruptClocks { k })
    }
}

/// Outcome of checking a run against its closed-form bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The run reached its target within every applicable bound.
    Pass,
    /// The run missed its target or violated a bound.
    Fail,
    /// The run reached its target; no closed-form bound applies
    /// (baseline families).
    NoBound,
    /// The scenario is not instantiable (e.g. an (f,g) preset invalid
    /// on this graph, or an unregistered family) and was skipped.
    Skip,
}

impl Verdict {
    /// Whether the record counts against a campaign's overall pass.
    pub fn ok(&self) -> bool {
        !matches!(self, Verdict::Fail)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::NoBound => "no-bound",
            Verdict::Skip => "skip",
        };
        write!(f, "{s}")
    }
}

impl FromStr for Verdict {
    type Err = String;

    /// Parses the [`fmt::Display`] rendering back — used when replaying
    /// persisted records (checkpoints) into memory.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pass" => Ok(Verdict::Pass),
            "fail" => Ok(Verdict::Fail),
            "no-bound" => Ok(Verdict::NoBound),
            "skip" => Ok(Verdict::Skip),
            other => Err(format!("unknown verdict {other:?}")),
        }
    }
}

/// Closed-form paper bounds of a family on a concrete graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Round bound, when one exists.
    pub rounds: Option<u64>,
    /// Move bound, when one exists.
    pub moves: Option<u64>,
}

impl Bounds {
    /// No closed-form bound (baseline families).
    pub const NONE: Bounds = Bounds {
        rounds: None,
        moves: None,
    };
}

/// The seed bundle a family's [`Family::run`] receives — the three
/// scenario sub-seeds that remain after the caller consumed the graph
/// seed (`Scenario::seeds::<4>()` order: graph, init, sim, fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSeeds {
    /// Seed for the initial-configuration sampler.
    pub init: u64,
    /// Seed for the simulator's daemon RNG.
    pub sim: u64,
    /// Seed for fault injection (corrupt-clocks plans).
    pub fault: u64,
}

/// Flat, family-agnostic result of one [`Family::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FamilyRunOutcome {
    /// Whether the family's target predicate was reached.
    pub reached: bool,
    /// Whether the final configuration is terminal.
    pub terminal: bool,
    /// Why the run stopped.
    pub reason: TerminationReason,
    /// Steps executed (including warm-up phases, matching the
    /// simulator's cumulative step counter).
    pub steps: u64,
    /// Total moves until the target was hit.
    pub moves: u64,
    /// Rounds until the target was hit.
    pub rounds: u64,
    /// Worst per-process move count of the family's bound-relevant
    /// rule set (SDR rules for reset compositions, all rules
    /// otherwise).
    pub max_moves_per_process: u64,
    /// Closed-form round bound, when the family has one.
    pub bound_rounds: Option<u64>,
    /// Closed-form move bound, when the family has one.
    pub bound_moves: Option<u64>,
    /// Bound-check outcome.
    pub verdict: Verdict,
}

impl FamilyRunOutcome {
    /// Seeds the flat fields from a [`RunOutcome`] plus the simulator's
    /// cumulative step counter; bounds and verdict start empty
    /// (`NoBound`) for the family to fill in.
    pub fn from_run(out: &RunOutcome, steps: u64) -> Self {
        FamilyRunOutcome {
            reached: out.reached,
            terminal: out.terminal,
            reason: out.reason,
            steps,
            moves: out.moves_at_hit,
            rounds: out.rounds_at_hit,
            max_moves_per_process: 0,
            bound_rounds: None,
            bound_moves: None,
            verdict: Verdict::NoBound,
        }
    }
}

// ---------------------------------------------------------------------
// The trace slot: the one erased observation seam of a family run
// ---------------------------------------------------------------------

/// Drives a family's *measured* execution with the caller's trace sink
/// installed on `sim`, then moves the sink back into `trace`.
///
/// [`Family::run`] bodies call this after any warm-up phase, so the
/// trace covers exactly the run whose numbers the outcome reports.
/// With an empty slot nothing is installed and the step loop takes
/// its untraced path.
pub fn run_traced<'g, A: Algorithm, R>(
    sim: &mut Simulator<'g, A>,
    trace: &mut Option<Box<dyn TraceSink>>,
    measured: impl FnOnce(&mut Simulator<'g, A>) -> R,
) -> R {
    if let Some(sink) = trace.take() {
        sim.set_trace_sink(sink);
    }
    let out = measured(sim);
    *trace = sim.take_trace_sink();
    out
}

// ---------------------------------------------------------------------
// The Family trait
// ---------------------------------------------------------------------

/// An object-safe, registrable algorithm family.
///
/// A family owns everything a campaign needs to turn a declarative
/// scenario into numbers: identity, instantiability, init-plan
/// semantics, the closed-form paper bounds, the bound-check verdict,
/// and the run loop itself. Erasure stops at the `run` boundary — the
/// implementation constructs its concrete algorithm and drives a fully
/// monomorphized [`Execution`], so the per-step cost
/// is identical to calling the simulator directly.
pub trait Family: Send + Sync {
    /// Stable identifier; for registered families this equals the
    /// label the registry resolves (e.g. `unison-sdr`,
    /// `fga-sdr:domination(1,0)`).
    fn id(&self) -> &str;

    /// Display label for records and tables (defaults to [`Family::id`]).
    fn label(&self) -> String {
        self.id().to_string()
    }

    /// Whether the family can be instantiated on `graph` (e.g. an
    /// (f,g) preset's degree requirement). Non-instantiable scenarios
    /// are skipped, not failed.
    fn instantiable(&self, graph: &Graph) -> bool {
        let _ = graph;
        true
    }

    /// The family's closed-form paper bounds on `graph`
    /// ([`Bounds::NONE`] for baselines).
    fn bounds(&self, graph: &Graph) -> Bounds {
        let _ = graph;
        Bounds::NONE
    }

    /// Runs one scenario to completion: builds the initial
    /// configuration per `init`, drives the run under `daemon` within
    /// `cap` steps, and reports the flat outcome with the bound-check
    /// verdict filled in.
    ///
    /// `trace` is the caller's observation slot: a sink found there is
    /// installed on the measured execution (see [`run_traced`]) and
    /// handed back in the slot afterwards, with everything it
    /// recorded. The outcome never depends on it.
    fn run(
        &self,
        graph: &Graph,
        init: &InitPlan,
        daemon: &Daemon,
        seeds: RunSeeds,
        cap: u64,
        trace: &mut Option<Box<dyn TraceSink>>,
    ) -> FamilyRunOutcome;

    /// Checks the §3.5 requirements of the family's input algorithm on
    /// `graph`, when the family is an SDR composition. `None` means
    /// the family is not composed (nothing to check); `Some(Err(_))`
    /// means a mis-registered input — the cross-crate requirement
    /// test fails loudly on it.
    fn requirements(&self, graph: &Graph) -> Option<Result<(), String>> {
        let _ = graph;
        None
    }

    /// The family's exhaustive-exploration hook, when its state has a
    /// canonical [`ExploreState`] encoding. `None` opts the family out
    /// of `ssr-explore` sweeps (they skip it, mirroring
    /// [`Verdict::Skip`]).
    fn explore(&self) -> Option<&dyn ExploreFamily> {
        None
    }

    /// The family's soundness-analysis hook
    /// ([`crate::analysis::AnalyzeFamily`]). `None` means the family's
    /// locality/commutativity/RNG obligations cannot be certified —
    /// `ssr-analyze` reports that as an error, so registered families
    /// are expected to implement it.
    fn analysis(&self) -> Option<&dyn crate::analysis::AnalyzeFamily> {
        None
    }
}

// ---------------------------------------------------------------------
// The erased exploration hook
// ---------------------------------------------------------------------

/// Exhaustive exploration surfaced through the family boundary.
///
/// Implementations build their canonical *seed set* of initial
/// configurations — `γ_init`, the structured worst-case workloads,
/// and `samples` adversarial draws from
/// [`explore_sample_seeds`] — and drive the generic
/// [`explore`](crate::exhaustive::explore()) engine plus the stochastic
/// cross-check over exactly that set, so "stochastic maxima ≤ exact
/// worst case" is sound by construction.
pub trait ExploreFamily: Send + Sync {
    /// The closed-form `(moves, rounds)` bounds the exact worst cases
    /// are checked against (may differ from [`Family::bounds`]: e.g.
    /// pure SDR has a *total*-move bound only when the input has no
    /// rules of its own).
    fn bounds(&self, graph: &Graph) -> Bounds;

    /// Exhausts every schedule of the selected daemon class from the
    /// canonical seed set, validating worst-case witnesses by replay.
    fn explore(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        opts: &ExploreOptions,
    ) -> ExploreReport;

    /// Runs the stochastic simulator over the same seed set — every
    /// [`Daemon::all_strategies`] entry × `trials` trials per initial
    /// configuration — reporting the observed maxima.
    fn stochastic_max(
        &self,
        graph: &Graph,
        scenario_seed: u64,
        samples: usize,
        trials: u64,
        cap: u64,
    ) -> StochasticMax;
}

/// The type-erased result of one [`ExploreFamily::explore`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreReport {
    /// Size of the initial seed set.
    pub init_count: usize,
    /// Daemon class label that was exhausted.
    pub daemon_class: &'static str,
    /// The erased exploration summary and whether both worst-case
    /// witnesses replayed byte-identically, or the limit error.
    pub result: Result<(ExploreSummary, bool), ExploreError>,
}

/// The type-erased part of an [`Exploration`] a scenario record needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreSummary {
    /// Distinct configurations reached.
    pub states: u64,
    /// Transitions enumerated.
    pub transitions: u64,
    /// Convergence + closure exhaustively verified.
    pub verified: bool,
    /// Exact worst case, when the illegitimate region is well-founded.
    pub worst: Option<WorstCase>,
}

/// Observed maxima of stochastic runs over a family's exhaustive seed
/// set (see [`ExploreFamily::stochastic_max`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StochasticMax {
    /// Maximum moves to legitimacy over all runs.
    pub moves: u64,
    /// Maximum rounds over all runs.
    pub rounds: u64,
    /// Whether every run reached legitimacy within the step cap.
    pub all_reached: bool,
    /// Number of runs performed.
    pub runs: usize,
}

/// Seeds for a family's adversarial exploration samples, derived from
/// the scenario seed — shared by [`ExploreFamily::explore`] and
/// [`ExploreFamily::stochastic_max`] so both operate on the identical
/// initial seed set.
pub fn explore_sample_seeds(scenario_seed: u64, samples: usize) -> Vec<u64> {
    let mut state = scenario_seed ^ 0xE13_5EED;
    (0..samples).map(|_| splitmix64(&mut state)).collect()
}

/// Explores one family's fully-built problem and validates the
/// worst-case witnesses by replay — the generic body behind every
/// [`ExploreFamily::explore`] implementation.
pub fn explore_with_replay<A, P>(
    graph: &Graph,
    algo: &A,
    inits: &[Vec<A::State>],
    legit: P,
    opts: &ExploreOptions,
) -> ExploreReport
where
    A: Algorithm + Sync + Clone,
    A::State: ExploreState + Send + Sync,
    P: Fn(&Graph, &[A::State]) -> bool + Clone,
{
    let init_count = inits.len();
    let daemon_class = opts.daemon.label();
    match explore(graph, algo, inits, legit.clone(), opts) {
        Err(err) => ExploreReport {
            init_count,
            daemon_class,
            result: Err(err),
        },
        Ok(ex) => {
            let mut replay_ok = true;
            for w in [&ex.witness_moves, &ex.witness_rounds]
                .into_iter()
                .flatten()
            {
                let p = legit.clone();
                let out = w.replay(graph, algo.clone(), inits[w.init].clone(), move |gr, st| {
                    p(gr, st)
                });
                replay_ok &= w.matches(&out);
            }
            ExploreReport {
                init_count,
                daemon_class,
                result: Ok((summarize(&ex), replay_ok)),
            }
        }
    }
}

fn summarize<S>(ex: &Exploration<S>) -> ExploreSummary {
    ExploreSummary {
        states: ex.states as u64,
        transitions: ex.transitions as u64,
        verified: ex.verified(),
        worst: ex.worst,
    }
}

/// Runs the stochastic simulator over a family's exhaustive seed set —
/// the generic body behind every [`ExploreFamily::stochastic_max`]
/// implementation. One RNG stream (keyed off `scenario_seed`) spans
/// the whole `inits × strategies × trials` nest, so results are a pure
/// function of the scenario.
pub fn stochastic_max_runs<A, P>(
    graph: &Graph,
    algo: &A,
    inits: &[Vec<A::State>],
    legit: P,
    scenario_seed: u64,
    trials: u64,
    cap: u64,
) -> StochasticMax
where
    A: Algorithm + Clone,
    P: Fn(&Graph, &[A::State]) -> bool + Clone,
{
    let mut max = StochasticMax {
        all_reached: true,
        ..StochasticMax::default()
    };
    let mut seed_state = scenario_seed ^ 0x570C_4A57;
    for init in inits {
        for daemon in Daemon::all_strategies() {
            for _ in 0..trials {
                let p = legit.clone();
                let out = Execution::of(graph, algo.clone())
                    .init(init.clone())
                    .daemon(daemon.clone())
                    .seed(splitmix64(&mut seed_state))
                    .cap(cap)
                    .until(move |gr, st| p(gr, st))
                    .run();
                max.runs += 1;
                max.all_reached &= out.reached;
                if out.reached {
                    max.moves = max.moves.max(out.moves_at_hit);
                    max.rounds = max.rounds.max(out.rounds_at_hit);
                }
            }
        }
    }
    max
}

// ---------------------------------------------------------------------
// AlgorithmSpec: the parsed, registry-addressable label
// ---------------------------------------------------------------------

/// How an [`AlgorithmSpec`]'s parameters attach to its family key in
/// the printed label.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Params {
    /// No parameters: the label is the family key itself.
    None,
    /// Parenthesized suffix: `family(params)` (e.g. `sdr-agreement(8)`).
    Paren(String),
    /// Colon suffix: `family:params` (e.g. `fga-sdr:domination(1,0)`).
    Colon(String),
}

/// A thin, string-addressable handle naming one algorithm family plus
/// its parameters — the open replacement for the former closed enum.
///
/// A spec is plain data: it resolves to a runnable [`Family`] only
/// against a [`FamilyRegistry`]. Labels round-trip exactly through
/// [`FromStr`]/[`fmt::Display`]:
///
/// ```
/// use ssr_runtime::family::AlgorithmSpec;
///
/// for label in ["unison-sdr", "sdr-agreement(8)", "fga-sdr:domination(1,0)"] {
///     let spec: AlgorithmSpec = label.parse().unwrap();
///     assert_eq!(spec.to_string(), label);
/// }
/// let spec: AlgorithmSpec = "fga-sdr:domination(1,0)".parse().unwrap();
/// assert_eq!(spec.family, "fga-sdr");
/// assert_eq!(spec.params_str(), Some("domination(1,0)"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AlgorithmSpec {
    /// The registry key.
    pub family: String,
    /// The parameter suffix, if any.
    pub params: Params,
}

impl AlgorithmSpec {
    /// A parameterless spec: `family`.
    pub fn plain(family: impl Into<String>) -> Self {
        AlgorithmSpec {
            family: family.into(),
            params: Params::None,
        }
    }

    /// A paren-parameterized spec: `family(params)`.
    pub fn paren(family: impl Into<String>, params: impl ToString) -> Self {
        AlgorithmSpec {
            family: family.into(),
            params: Params::Paren(params.to_string()),
        }
    }

    /// A colon-parameterized spec: `family:params`.
    pub fn colon(family: impl Into<String>, params: impl ToString) -> Self {
        AlgorithmSpec {
            family: family.into(),
            params: Params::Colon(params.to_string()),
        }
    }

    /// The parameter string, independent of its attachment style.
    pub fn params_str(&self) -> Option<&str> {
        match &self.params {
            Params::None => None,
            Params::Paren(p) | Params::Colon(p) => Some(p),
        }
    }

    /// The full label (identical to the [`fmt::Display`] rendering,
    /// kept as a method for parity with the other spec types).
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.params {
            Params::None => write!(f, "{}", self.family),
            Params::Paren(p) => write!(f, "{}({p})", self.family),
            Params::Colon(p) => write!(f, "{}:{p}", self.family),
        }
    }
}

impl FromStr for AlgorithmSpec {
    type Err = std::convert::Infallible;

    /// Every string parses: `a:b` splits at the first colon, a
    /// trailing `(...)` splits as paren parameters, anything else is a
    /// parameterless family key.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((family, params)) = s.split_once(':') {
            if !params.is_empty() {
                return Ok(AlgorithmSpec::colon(family, params));
            }
        }
        if let Some(stripped) = s.strip_suffix(')') {
            if let Some((family, params)) = stripped.split_once('(') {
                if !family.is_empty() {
                    return Ok(AlgorithmSpec::paren(family, params));
                }
            }
        }
        Ok(AlgorithmSpec::plain(s))
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// A factory resolving a parameter string to a family instance
/// (`None` when the parameters do not parse).
pub type FamilyFactory = Box<dyn Fn(Option<&str>) -> Option<Arc<dyn Family>> + Send + Sync>;

struct Entry {
    key: String,
    exemplars: Vec<String>,
    factory: FamilyFactory,
}

/// The string-keyed, open family registry.
///
/// Keys are family identifiers (`unison-sdr`, `fga-sdr`, …); entries
/// are either single instances ([`FamilyRegistry::register`]) or
/// parameterized factories ([`FamilyRegistry::register_parametric`]).
/// Registration order is preserved (it fixes the order of
/// [`FamilyRegistry::labels`]); registering an existing key replaces
/// the entry, so users can override standard families.
///
/// The standard workspace families are assembled by
/// `ssr_campaign::families::standard_families()`; user code extends
/// the registry freely — see `examples/custom_family.rs`.
#[derive(Default)]
pub struct FamilyRegistry {
    entries: Vec<Entry>,
    index: HashMap<String, usize>,
}

impl FamilyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        FamilyRegistry::default()
    }

    fn insert(&mut self, entry: Entry) {
        match self.index.get(&entry.key) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.index.insert(entry.key.clone(), self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    /// Registers a single family instance under its [`Family::id`].
    /// Resolution rejects parameters for instance entries.
    pub fn register(&mut self, family: Arc<dyn Family>) {
        let key = family.id().to_string();
        self.insert(Entry {
            exemplars: vec![key.clone()],
            key,
            factory: Box::new(move |params| {
                if params.is_none() {
                    Some(family.clone())
                } else {
                    None
                }
            }),
        });
    }

    /// Registers a parameterized family under `key`. `exemplars` are
    /// representative full labels (used by [`FamilyRegistry::labels`]
    /// and the round-trip tests); `factory` maps a parameter string to
    /// the concrete family instance.
    pub fn register_parametric(
        &mut self,
        key: impl Into<String>,
        exemplars: Vec<String>,
        factory: FamilyFactory,
    ) {
        self.insert(Entry {
            key: key.into(),
            exemplars,
            factory,
        });
    }

    /// Resolves a spec to its family: the `family` key is looked up
    /// and handed the parameter string; as a fallback, the *full*
    /// label is tried as a parameterless key (so instances registered
    /// under labels containing `(`/`:` still resolve).
    pub fn resolve(&self, spec: &AlgorithmSpec) -> Option<Arc<dyn Family>> {
        if let Some(&i) = self.index.get(&spec.family) {
            if let Some(family) = (self.entries[i].factory)(spec.params_str()) {
                return Some(family);
            }
        }
        if spec.params != Params::None {
            if let Some(&i) = self.index.get(&spec.label()) {
                return (self.entries[i].factory)(None);
            }
        }
        None
    }

    /// Parses `label` and resolves it.
    pub fn resolve_label(&self, label: &str) -> Option<Arc<dyn Family>> {
        let spec: AlgorithmSpec = label.parse().expect("AlgorithmSpec parsing is total");
        self.resolve(&spec)
    }

    /// Whether `key` names a registered family (parametric or not).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Registered family keys, in registration order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.key.as_str())
    }

    /// Exemplar labels of every registered family, in registration
    /// order — each is guaranteed to resolve.
    pub fn labels(&self) -> Vec<String> {
        self.entries
            .iter()
            .flat_map(|e| e.exemplars.iter().cloned())
            .collect()
    }
}

impl fmt::Debug for FamilyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyRegistry")
            .field("keys", &self.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;

    #[test]
    fn amounts_resolve() {
        assert_eq!(Amount::Fixed(3).resolve(100), 3);
        assert_eq!(Amount::QuarterN.resolve(12), 3);
        assert_eq!(Amount::HalfN.resolve(12), 6);
        assert_eq!(Amount::N.resolve(12), 12);
        assert_eq!(Amount::QuarterN.resolve(1), 1, "clamped to ≥ 1");
    }

    #[test]
    fn init_plan_labels_round_trip() {
        let plans = [
            InitPlan::Arbitrary,
            InitPlan::Normal,
            InitPlan::Tear { gap: Amount::N },
            InitPlan::Tear {
                gap: Amount::Fixed(7),
            },
            InitPlan::CorruptClocks { k: Amount::HalfN },
            InitPlan::CorruptClocks {
                k: Amount::QuarterN,
            },
        ];
        for p in plans {
            assert_eq!(InitPlan::parse_label(&p.label()), Some(p), "{p:?}");
        }
        assert_eq!(InitPlan::parse_label("tear(?)"), None);
        assert_eq!(InitPlan::parse_label("bogus"), None);
        assert_eq!("pass".parse::<Verdict>(), Ok(Verdict::Pass));
        assert!("nope".parse::<Verdict>().is_err());
    }

    #[test]
    fn spec_labels_round_trip() {
        for label in [
            "unison-sdr",
            "cfg-unison",
            "mono-reset",
            "sdr-agreement(8)",
            "fga-sdr:domination(1,0)",
            "fga:2-tuple(2,1)",
            "my-custom-family",
        ] {
            let spec: AlgorithmSpec = label.parse().unwrap();
            assert_eq!(spec.to_string(), label, "round-trip of {label:?}");
            assert_eq!(spec.label(), label);
        }
    }

    #[test]
    fn spec_parsing_splits_family_and_params() {
        let spec: AlgorithmSpec = "sdr-agreement(8)".parse().unwrap();
        assert_eq!(spec.family, "sdr-agreement");
        assert_eq!(spec.params, Params::Paren("8".into()));
        let spec: AlgorithmSpec = "fga-sdr:domination(1,0)".parse().unwrap();
        assert_eq!(spec.family, "fga-sdr");
        assert_eq!(spec.params_str(), Some("domination(1,0)"));
        let spec: AlgorithmSpec = "unison-sdr".parse().unwrap();
        assert_eq!(spec.params, Params::None);
        assert_eq!(spec.params_str(), None);
    }

    /// A minimal test family: flood over `bool` states.
    struct FloodFamily;

    impl Family for FloodFamily {
        fn id(&self) -> &str {
            "flood"
        }

        fn run(
            &self,
            graph: &Graph,
            _init: &InitPlan,
            daemon: &Daemon,
            seeds: RunSeeds,
            cap: u64,
            trace: &mut Option<Box<dyn TraceSink>>,
        ) -> FamilyRunOutcome {
            let mut init = vec![false; graph.node_count()];
            init[0] = true;
            let flood = crate::exhaustive::testutil::Flood;
            let mut sim = Simulator::new(graph, flood, init, daemon.clone(), seeds.sim);
            let report = run_traced(&mut sim, trace, |sim| sim.execution().cap(cap).run());
            let mut out = FamilyRunOutcome::from_run(&report, sim.stats().steps);
            out.max_moves_per_process = sim.stats().max_moves_per_process();
            out
        }
    }

    #[test]
    fn registry_resolves_instances_and_parametrics() {
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(FloodFamily));
        reg.register_parametric(
            "flood-k",
            vec!["flood-k(2)".into()],
            Box::new(|params| {
                params.and_then(|p| p.parse::<u32>().ok())?;
                Some(Arc::new(FloodFamily) as Arc<dyn Family>)
            }),
        );
        assert!(reg.resolve_label("flood").is_some());
        assert!(reg.resolve_label("flood-k(2)").is_some());
        assert!(reg.resolve_label("flood-k(x)").is_none(), "bad params");
        assert!(reg.resolve_label("flood(3)").is_none(), "instance + params");
        assert!(reg.resolve_label("unknown").is_none());
        assert_eq!(reg.keys().collect::<Vec<_>>(), vec!["flood", "flood-k"]);
        assert_eq!(reg.labels(), vec!["flood", "flood-k(2)"]);
        assert!(reg.contains("flood") && !reg.contains("nope"));
    }

    #[test]
    fn registry_resolves_full_label_instances() {
        // An instance whose id itself contains parens still resolves.
        struct Weird;
        impl Family for Weird {
            fn id(&self) -> &str {
                "weird(7)"
            }
            fn run(
                &self,
                _: &Graph,
                _: &InitPlan,
                _: &Daemon,
                _: RunSeeds,
                _: u64,
                _: &mut Option<Box<dyn TraceSink>>,
            ) -> FamilyRunOutcome {
                unimplemented!("never run in this test")
            }
        }
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(Weird));
        assert!(reg.resolve_label("weird(7)").is_some());
    }

    #[test]
    fn re_registration_replaces_in_place() {
        let mut reg = FamilyRegistry::new();
        reg.register(Arc::new(FloodFamily));
        reg.register(Arc::new(FloodFamily));
        assert_eq!(reg.keys().count(), 1);
    }

    #[test]
    fn family_run_reports_and_probes() {
        // The trace slot round-trips: the sink goes in, sees exactly
        // the measured run, and comes back out in the slot.
        #[derive(Default)]
        struct Count {
            steps: u64,
            ended_terminal: bool,
        }
        impl TraceSink for Count {
            fn record(&mut self, event: &crate::trace::TraceEvent) {
                match event {
                    crate::trace::TraceEvent::StepStarted { .. } => self.steps += 1,
                    crate::trace::TraceEvent::RunEnded { reason, .. } => {
                        self.ended_terminal = *reason == TerminationReason::Terminal;
                    }
                    _ => {}
                }
            }
            fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
                Some(self)
            }
        }
        let g = generators::path(4);
        let seeds = RunSeeds {
            init: 0,
            sim: 0,
            fault: 0,
        };
        let run = |trace: &mut Option<Box<dyn TraceSink>>| {
            FloodFamily.run(
                &g,
                &InitPlan::Normal,
                &Daemon::Synchronous,
                seeds,
                1_000,
                trace,
            )
        };
        let mut slot: Option<Box<dyn TraceSink>> = Some(Box::new(Count::default()));
        let out = run(&mut slot);
        assert!(out.terminal && out.reached);
        assert_eq!(out.moves, 3);
        let mut sink = slot.expect("the sink comes back in the slot");
        let count = sink
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<Count>())
            .expect("same concrete sink");
        assert_eq!(count.steps, out.steps, "sink saw every step");
        assert!(count.ended_terminal, "sink saw the run end");
        // An empty slot stays empty and the outcome is unchanged.
        let mut empty = None;
        assert_eq!(run(&mut empty), out);
        assert!(empty.is_none());
    }

    #[test]
    fn sample_seeds_are_stable_and_distinct() {
        let a = explore_sample_seeds(42, 4);
        let b = explore_sample_seeds(42, 4);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }
}
