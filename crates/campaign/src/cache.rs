//! The content-addressed result cache: fingerprint → record.
//!
//! A [`RecordCache`] maps [`Scenario::fingerprint`] digests to the
//! [`ScenarioRecord`]s they produced, so overlapping or repeated
//! sweeps return cached results byte-identically instead of
//! re-running the simulator. Records are stored *normalized* — grid
//! position (`index`, `trial`) zeroed and the campaign id cleared,
//! exactly the fields the fingerprint excludes — and a hit re-stamps
//! them from the requesting scenario, so a record served from cache is
//! byte-for-byte the record a fresh run would have produced (pinned by
//! `tests/cache_equivalence.rs`).
//!
//! Concurrency: one mutex around the map, taken once per scenario
//! (never inside the step loop); hit/miss counters are atomics so the
//! status path can read them without the lock. Duplicate inserts of
//! the same fingerprint are benign — both workers computed the same
//! record.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ssr_runtime::fingerprint::Fingerprint;

use crate::runner::ScenarioRecord;
use crate::scenario::Scenario;

/// A thread-safe fingerprint → [`ScenarioRecord`] store.
///
/// # Examples
///
/// ```
/// use ssr_campaign::cache::RecordCache;
///
/// let cache = RecordCache::new();
/// assert_eq!((cache.len(), cache.hits(), cache.misses()), (0, 0, 0));
/// ```
#[derive(Default)]
pub struct RecordCache {
    map: Mutex<HashMap<u128, ScenarioRecord>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RecordCache {
    /// An empty cache.
    pub fn new() -> Self {
        RecordCache::default()
    }

    /// Looks up `fp`, re-stamping the stored record with `sc`'s grid
    /// position on a hit. Counts a hit or a miss either way.
    pub fn lookup(&self, fp: Fingerprint, sc: &Scenario) -> Option<ScenarioRecord> {
        let found = self.map.lock().unwrap().get(&fp.0).cloned();
        match found {
            Some(mut rec) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                rec.index = sc.index;
                rec.trial = sc.trial;
                Some(rec)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `rec` under `fp`, normalized (grid position zeroed,
    /// campaign id cleared).
    pub fn insert(&self, fp: Fingerprint, rec: &ScenarioRecord) {
        let mut rec = rec.clone();
        rec.index = 0;
        rec.trial = 0;
        rec.campaign.clear();
        self.map.lock().unwrap().insert(fp.0, rec);
    }

    /// Number of distinct fingerprints stored.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a record.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;
    use crate::scenario::{InitPlan, TopologySpec};
    use ssr_runtime::Daemon;

    fn sc(index: usize, trial: u64) -> Scenario {
        Scenario {
            index,
            topology: TopologySpec::Ring,
            n: 8,
            algorithm: families::unison_sdr(),
            daemon: Daemon::Central,
            init: InitPlan::Arbitrary,
            trial,
            seed: 7,
            step_cap: 1000,
        }
    }

    #[test]
    fn hit_restamps_grid_position() {
        let cache = RecordCache::new();
        let a = sc(3, 1);
        let mut rec = crate::test_support::record("ring", 8);
        rec.index = 3;
        rec.trial = 1;
        cache.insert(a.fingerprint(), &rec);

        // Same content at a different grid position: hit, re-stamped.
        let b = sc(12, 2);
        assert_eq!(b.fingerprint(), a.fingerprint());
        let served = cache.lookup(b.fingerprint(), &b).expect("hit");
        assert_eq!(served.index, 12);
        assert_eq!(served.trial, 2);
        assert_eq!(served.campaign, "", "campaign is stamped by the engine");
        assert_eq!((cache.hits(), cache.misses()), (1, 0));

        // Different content: miss.
        let mut c = sc(0, 0);
        c.seed = 8;
        assert!(cache.lookup(c.fingerprint(), &c).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }
}
