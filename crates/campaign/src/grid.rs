//! The [`Campaign`]: a cartesian grid of scenarios, expanded lazily.
//!
//! A campaign never materializes its scenario list — [`Campaign::scenario`]
//! decodes a grid index (mixed-radix over the axes) into a [`Scenario`]
//! on demand, so a million-cell sweep costs no memory until workers pull
//! cells from the queue. Per-scenario seeds are derived from the master
//! seed and the *index*, never from execution order, which is what makes
//! parallel and sequential runs byte-identical.

use ssr_runtime::rng::splitmix64;
use ssr_runtime::Daemon;

use crate::scenario::{AlgorithmSpec, InitPlan, Scenario, TopologySpec};

/// A declarative sweep: the cartesian product of axis values × trials.
///
/// Built with a fluent API; empty axes are invalid (every `Campaign`
/// starts with sensible defaults, so only the axes you sweep need
/// setting).
///
/// # Examples
///
/// ```
/// use ssr_campaign::{families, Campaign, TopologySpec};
///
/// let c = Campaign::new("demo")
///     .topologies(vec![TopologySpec::Ring, TopologySpec::Star])
///     .sizes(vec![8, 16])
///     .algorithms(vec![families::unison_sdr()])
///     .trials(3);
/// assert_eq!(c.len(), 2 * 2 * 3);
/// let sc = c.scenario(0);
/// assert_eq!(sc.index, 0);
/// ```
#[derive(Clone, Debug)]
pub struct Campaign {
    id: String,
    topologies: Vec<TopologySpec>,
    sizes: Vec<usize>,
    algorithms: Vec<AlgorithmSpec>,
    daemons: Vec<Daemon>,
    inits: Vec<InitPlan>,
    trials: u64,
    step_cap: u64,
    master_seed: u64,
}

impl Campaign {
    /// Starts a campaign with defaults: ring × size 8 × `U ∘ SDR` ×
    /// `RandomSubset{0.5}` × arbitrary init, one trial, 5M-step cap.
    pub fn new(id: impl Into<String>) -> Self {
        Campaign {
            id: id.into(),
            topologies: vec![TopologySpec::Ring],
            sizes: vec![8],
            algorithms: vec![crate::families::unison_sdr()],
            daemons: vec![Daemon::RandomSubset { p: 0.5 }],
            inits: vec![InitPlan::Arbitrary],
            trials: 1,
            step_cap: 5_000_000,
            master_seed: 0x5D12_CA3B,
        }
    }

    /// Sets the topology axis (must be non-empty).
    pub fn topologies(mut self, axis: Vec<TopologySpec>) -> Self {
        assert!(!axis.is_empty(), "topology axis must be non-empty");
        self.topologies = axis;
        self
    }

    /// Sets the size axis (must be non-empty).
    pub fn sizes(mut self, axis: Vec<usize>) -> Self {
        assert!(!axis.is_empty(), "size axis must be non-empty");
        self.sizes = axis;
        self
    }

    /// Sets the algorithm axis (must be non-empty).
    pub fn algorithms(mut self, axis: Vec<AlgorithmSpec>) -> Self {
        assert!(!axis.is_empty(), "algorithm axis must be non-empty");
        self.algorithms = axis;
        self
    }

    /// Sets the daemon axis (must be non-empty).
    pub fn daemons(mut self, axis: Vec<Daemon>) -> Self {
        assert!(!axis.is_empty(), "daemon axis must be non-empty");
        self.daemons = axis;
        self
    }

    /// Sets the init-plan axis (must be non-empty).
    pub fn inits(mut self, axis: Vec<InitPlan>) -> Self {
        assert!(!axis.is_empty(), "init axis must be non-empty");
        self.inits = axis;
        self
    }

    /// Sets the number of trials per grid cell (must be ≥ 1).
    pub fn trials(mut self, trials: u64) -> Self {
        assert!(trials >= 1, "at least one trial per cell");
        self.trials = trials;
        self
    }

    /// Sets the per-run step budget.
    pub fn step_cap(mut self, cap: u64) -> Self {
        self.step_cap = cap;
        self
    }

    /// Sets the master seed all per-scenario seeds derive from.
    pub fn seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// The campaign id (stamped into records).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Total number of scenarios in the grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid size overflows `usize` (see
    /// [`Campaign::checked_len`]).
    pub fn len(&self) -> usize {
        self.checked_len()
            .expect("campaign grid size overflows usize")
    }

    /// Total number of scenarios in the grid, or `None` when the axis
    /// product overflows `usize`.
    pub fn checked_len(&self) -> Option<usize> {
        [
            self.sizes.len(),
            self.algorithms.len(),
            self.daemons.len(),
            self.inits.len(),
            usize::try_from(self.trials).ok()?,
        ]
        .into_iter()
        .try_fold(self.topologies.len(), usize::checked_mul)
    }

    /// Whether the grid is empty (never true: all axes are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes grid index `index` into its scenario (lazy expansion).
    ///
    /// Axis order, fastest-varying last: topology, size, algorithm,
    /// daemon, init, trial.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn scenario(&self, index: usize) -> Scenario {
        assert!(index < self.len(), "scenario index out of range");
        let mut rest = index;
        let trial = (rest % self.trials as usize) as u64;
        rest /= self.trials as usize;
        let init = self.inits[rest % self.inits.len()];
        rest /= self.inits.len();
        let daemon = self.daemons[rest % self.daemons.len()].clone();
        rest /= self.daemons.len();
        let algorithm = self.algorithms[rest % self.algorithms.len()].clone();
        rest /= self.algorithms.len();
        let n = self.sizes[rest % self.sizes.len()];
        rest /= self.sizes.len();
        let topology = self.topologies[rest];
        // Index-keyed seed: identical no matter which worker runs it.
        let mut state = self
            .master_seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let seed = splitmix64(&mut state);
        Scenario {
            index,
            topology,
            n,
            algorithm,
            daemon,
            init,
            trial,
            seed,
            step_cap: self.step_cap,
        }
    }

    /// Iterates all scenarios in index order (still lazy per item).
    pub fn scenarios(&self) -> impl Iterator<Item = Scenario> + '_ {
        (0..self.len()).map(|i| self.scenario(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Amount;

    fn grid() -> Campaign {
        Campaign::new("t")
            .topologies(vec![
                TopologySpec::Ring,
                TopologySpec::Path,
                TopologySpec::Star,
            ])
            .sizes(vec![8, 12])
            .algorithms(vec![
                crate::families::unison_sdr(),
                crate::families::cfg_unison(),
            ])
            .daemons(vec![Daemon::Central, Daemon::Synchronous])
            .inits(vec![
                InitPlan::Arbitrary,
                InitPlan::Tear { gap: Amount::HalfN },
            ])
            .trials(3)
    }

    #[test]
    fn len_is_axis_product() {
        assert_eq!(grid().len(), 3 * 2 * 2 * 2 * 2 * 3);
    }

    #[test]
    fn every_index_decodes_to_a_unique_scenario() {
        let c = grid();
        let all: Vec<Scenario> = c.scenarios().collect();
        assert_eq!(all.len(), c.len());
        for (i, sc) in all.iter().enumerate() {
            assert_eq!(sc.index, i);
            assert_eq!(&c.scenario(i), sc, "decode must be a pure function");
        }
        // The full cartesian product is covered: count distinct cells.
        let mut cells: Vec<String> = all
            .iter()
            .map(|sc| {
                format!(
                    "{}|{}|{}|{}|{}|{}",
                    sc.topology.label(),
                    sc.n,
                    sc.algorithm.label(),
                    sc.daemon.label(),
                    sc.init.label(),
                    sc.trial
                )
            })
            .collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), c.len());
    }

    #[test]
    fn seeds_differ_across_indices() {
        let c = grid();
        let mut seeds: Vec<u64> = c.scenarios().map(|sc| sc.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), c.len(), "per-scenario seeds must be distinct");
    }

    #[test]
    fn master_seed_changes_all_seeds() {
        let a = grid().seed(1).scenario(0).seed;
        let b = grid().seed(2).scenario(0).seed;
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let c = grid();
        let _ = c.scenario(c.len());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_axis_rejected() {
        let _ = Campaign::new("t").sizes(vec![]);
    }
}
