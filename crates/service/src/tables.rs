//! Per-table state shared across sessions (DESIGN.md §8): the pairwise
//! matrix, the certain/possible top-K bounds per query depth, and the
//! initial tree beliefs of repeated submits.
//!
//! A tree-mode session's initial belief is a pure function of its table
//! and its [`BeliefKey`] (`k` plus the full engine configuration), so a
//! submit whose `(table, key)` pair repeats can start from a copy of an
//! earlier build instead of sampling again. A key's first submit only
//! records the key; its second submit stores the belief it builds; later
//! submits clone the stored one. Traffic that never repeats a key (a
//! fresh sampler seed per session, a fresh table per tenant) therefore
//! holds no beliefs at all. Stored beliefs are bounded by
//! [`MAX_BELIEF_PATHS`] paths in total, evicted least recently used, and
//! leave with their table when the table itself is evicted.

use crate::metrics::ServiceMetrics;
use ctk_core::belief::{BeliefKey, TreeBelief};
use ctk_core::driver::SessionDriver;
use ctk_core::session::SessionConfig;
use ctk_core::Result;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_rank::RankList;
use std::collections::VecDeque;
use std::sync::Arc;

/// At most this many distinct tables keep their derived state; beyond it
/// the least recently used table is evicted (running sessions keep their
/// matrix alive through their own `Arc`). Bounds both the memory held by
/// retired tables and the per-submit equality scan.
pub(crate) const MAX_TABLES: usize = 32;

/// At most this many paths are held in stored beliefs, over all tables.
/// `tenant_stream`'s 256 keys hold about 5.5k; one belief of the paper's
/// Fig. 1 instance (n = 20, K = 5, 1500 worlds) about 550.
pub(crate) const MAX_BELIEF_PATHS: usize = 16_384;

/// Per table, at most this many keys seen once and not stored yet are
/// remembered, oldest forgotten first.
const MAX_UNREPEATED_KEYS: usize = 256;

/// One served table's shared derived state.
struct TableEntry {
    table: UncertainTable,
    pairwise: Arc<PairwiseMatrix>,
    bounds: Vec<(usize, Arc<TopKBounds>)>,
    beliefs: Vec<StoredBelief>,
    /// Keys submitted once over this table, oldest first.
    unrepeated: VecDeque<BeliefKey>,
}

struct StoredBelief {
    key: BeliefKey,
    belief: TreeBelief,
    /// Clock reading of the last submit that used it.
    last_used: u64,
}

/// The service's per-table cache (see the module docs).
#[derive(Default)]
pub(crate) struct TableCache {
    /// Least recently used first.
    entries: Vec<TableEntry>,
    /// Paths held in stored beliefs, over all tables.
    belief_paths: usize,
    /// Advances once per submit; orders beliefs by last use.
    clock: u64,
}

impl TableCache {
    /// Starts the driver of a session over `table`, reusing the table's
    /// pairwise matrix and bounds and, for a repeated tree-mode key, its
    /// stored initial belief. Counts belief builds and hits in `metrics`.
    pub(crate) fn driver(
        &mut self,
        table: &UncertainTable,
        config: SessionConfig,
        truth: Option<&RankList>,
        metrics: &mut ServiceMetrics,
    ) -> Result<SessionDriver> {
        let idx = self.entry_index(table);
        self.clock += 1;
        let entry = &mut self.entries[idx];
        let pairwise = Arc::clone(&entry.pairwise);
        let bounds = entry.bounds_for(config.k);
        // Bounds exist only for a valid depth; an invalid config takes
        // the plain path and fails there with the driver's usual error.
        let (Some(key), Some(b)) = (BeliefKey::of(&config), &bounds) else {
            return SessionDriver::new_shared(config, table, truth, pairwise, bounds);
        };
        if let Some(stored) = entry.beliefs.iter_mut().find(|s| s.key == key) {
            stored.last_used = self.clock;
            let belief = stored.belief.clone();
            #[cfg(feature = "debug-invariants")]
            assert!(
                TreeBelief::build(table, &key, b).is_ok_and(|fresh| fresh.same_bits(&belief)),
                "a stored belief differs from a fresh build of its key {key:?}"
            );
            metrics.belief_hits += 1;
            return SessionDriver::from_belief(config, table, truth, pairwise, belief);
        }
        let belief = TreeBelief::build(table, &key, b)?;
        metrics.belief_builds += 1;
        match entry.unrepeated.iter().position(|k| *k == key) {
            Some(pos) => {
                entry.unrepeated.remove(pos);
                self.store(idx, key, belief.clone());
            }
            None => {
                if entry.unrepeated.len() == MAX_UNREPEATED_KEYS {
                    entry.unrepeated.pop_front();
                }
                entry.unrepeated.push_back(key);
            }
        }
        SessionDriver::from_belief(config, table, truth, pairwise, belief)
    }

    /// The index of `table`'s entry, moved to the most recently used end,
    /// computing the pairwise matrix on first use.
    fn entry_index(&mut self, table: &UncertainTable) -> usize {
        match self.entries.iter().position(|e| &e.table == table) {
            Some(idx) => {
                let entry = self.entries.remove(idx);
                self.entries.push(entry);
            }
            None => {
                if self.entries.len() >= MAX_TABLES {
                    let evicted = self.entries.remove(0);
                    self.belief_paths -= evicted.belief_paths();
                }
                self.entries.push(TableEntry {
                    table: table.clone(),
                    pairwise: Arc::new(PairwiseMatrix::compute(table)),
                    bounds: Vec::new(),
                    beliefs: Vec::new(),
                    unrepeated: VecDeque::new(),
                });
            }
        }
        self.entries.len() - 1
    }

    /// Stores `belief` beside entry `idx`, evicting least recently used
    /// beliefs until the path bound holds. A belief larger than the whole
    /// bound is not stored.
    fn store(&mut self, idx: usize, key: BeliefKey, belief: TreeBelief) {
        let paths = belief.paths().len();
        if paths > MAX_BELIEF_PATHS {
            return;
        }
        while self.belief_paths + paths > MAX_BELIEF_PATHS && self.evict_lru_belief() {}
        self.belief_paths += paths;
        self.entries[idx].beliefs.push(StoredBelief {
            key,
            belief,
            last_used: self.clock,
        });
    }

    /// Drops the least recently used stored belief; false when none is
    /// stored.
    fn evict_lru_belief(&mut self) -> bool {
        let lru = self
            .entries
            .iter()
            .enumerate()
            .flat_map(|(e, entry)| {
                entry
                    .beliefs
                    .iter()
                    .enumerate()
                    .map(move |(b, s)| (s.last_used, e, b))
            })
            .min();
        let Some((_, e, b)) = lru else {
            return false;
        };
        let evicted = self.entries[e].beliefs.swap_remove(b);
        self.belief_paths -= evicted.belief.paths().len();
        true
    }

    /// Distinct tables with cached state.
    pub(crate) fn tables(&self) -> usize {
        self.entries.len()
    }

    /// Distinct `(table, k)` bound sets cached.
    pub(crate) fn bounds(&self) -> usize {
        self.entries.iter().map(|e| e.bounds.len()).sum()
    }

    /// Distinct `(table, key)` initial beliefs stored.
    pub(crate) fn beliefs(&self) -> usize {
        self.entries.iter().map(|e| e.beliefs.len()).sum()
    }
}

impl TableEntry {
    /// The certain/possible top-K bounds at depth `k`, computed on first
    /// use. Bounds for an invalid depth are not computed (`None`).
    fn bounds_for(&mut self, k: usize) -> Option<Arc<TopKBounds>> {
        if k == 0 || k > self.table.len() {
            return None;
        }
        if let Some((_, b)) = self.bounds.iter().find(|(depth, _)| *depth == k) {
            return Some(Arc::clone(b));
        }
        let b = Arc::new(TopKBounds::from_matrix(&self.pairwise, k).ok()?);
        self.bounds.push((k, Arc::clone(&b)));
        Some(b)
    }

    fn belief_paths(&self) -> usize {
        self.beliefs.iter().map(|s| s.belief.paths().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SessionSpec;
    use crate::service::TopKService;
    use ctk_core::driver::DriverStatus;
    use ctk_core::measures::MeasureKind;
    use ctk_core::session::{Algorithm, UrReport};
    use ctk_crowd::{Crowd, CrowdSimulator, GroundTruth, PerfectWorker, VotePolicy};
    use ctk_prob::ScoreDist;
    use ctk_tpo::build::{Engine, ExactConfig, McConfig};

    fn table(shift: f64) -> UncertainTable {
        UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.12 + shift, 0.4).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn config(algorithm: Algorithm, engine: Engine) -> SessionConfig {
        SessionConfig {
            k: 3,
            budget: 3,
            measure: MeasureKind::WeightedEntropy,
            algorithm,
            engine,
            seed: 1,
            uncertainty_target: None,
        }
    }

    fn exact(resolution: usize) -> Engine {
        Engine::Exact(ExactConfig {
            resolution,
            ..ExactConfig::default()
        })
    }

    fn crowd(table: &UncertainTable) -> CrowdSimulator<PerfectWorker> {
        CrowdSimulator::new(
            GroundTruth::sample(table, 99),
            PerfectWorker,
            VotePolicy::Single,
            10_000,
        )
        .expect("valid vote policy")
    }

    /// `config` run standalone: a driver built by `new_shared`, answered
    /// by a private perfect crowd over the same hidden truth.
    fn standalone(config: SessionConfig, table: &UncertainTable) -> UrReport {
        let pairwise = Arc::new(PairwiseMatrix::compute(table));
        let mut driver = SessionDriver::new_shared(config, table, None, pairwise, None).unwrap();
        let mut crowd = crowd(table);
        loop {
            let batch = driver.next_batch(crowd.remaining()).unwrap();
            if batch.is_empty() {
                break;
            }
            let answers: Vec<_> = batch.iter().filter_map(|q| crowd.ask(*q)).collect();
            if driver.feed(&answers, crowd.answer_accuracy()).unwrap() == DriverStatus::Done {
                break;
            }
        }
        driver.finish().unwrap()
    }

    #[test]
    fn repeat_submits_match_fresh_builds() {
        // Every tree-mode strategy submitted three times per engine: all
        // 21 submits of an engine share one key, so the first builds and
        // records it, the second builds and stores, and the other 19 start
        // from copies. Each report must equal its standalone run.
        let algorithms = [
            Algorithm::T1On,
            Algorithm::TbOff,
            Algorithm::COff,
            Algorithm::AStarOff {
                max_expansions: Some(500),
            },
            Algorithm::AStarOn {
                lookahead: 0,
                max_expansions: Some(500),
            },
            Algorithm::Naive,
            Algorithm::Random,
        ];
        let table = table(0.0);
        for engine in [
            Engine::MonteCarlo(McConfig::fixed(400, 7)),
            Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, 7)),
            exact(256),
        ] {
            let mut svc = TopKService::new(crowd(&table));
            let submitted: Vec<_> = algorithms
                .iter()
                .flat_map(|alg| [alg; 3])
                .map(|alg| {
                    let cfg = config(alg.clone(), engine.clone());
                    let id = svc.submit(&table, SessionSpec::new(cfg.clone())).unwrap();
                    (id, cfg)
                })
                .collect();
            let m = svc.metrics();
            assert_eq!((m.belief_builds, m.belief_hits), (2, 19), "{engine:?}");
            assert!(m.summary().contains("beliefs: 2 built, 19 reused"));
            assert_eq!(svc.beliefs_cached(), 1);
            svc.run_to_completion();
            for (id, cfg) in submitted {
                let name = cfg.algorithm.name();
                let served = svc.report(id).expect("session completes");
                assert!(
                    served.same_outcome(&standalone(cfg, &table)),
                    "{name} on {engine:?} diverged from its standalone run"
                );
            }
        }
    }

    #[test]
    fn beliefs_never_cross_keys() {
        // A base key is stored (two submits), then a config differing in
        // one input of the build must build its own belief, never hit the
        // stored one. A third base submit proves the cache was live.
        let fixed = |worlds, seed| Engine::MonteCarlo(McConfig::fixed(worlds, seed));
        let base = config(Algorithm::T1On, fixed(300, 7));
        let with_k = SessionConfig {
            k: 2,
            ..base.clone()
        };
        let exact_base = config(Algorithm::T1On, exact(256));
        let cases = [
            ("seed", &base, config(Algorithm::T1On, fixed(300, 8)), 0.0),
            ("worlds", &base, config(Algorithm::T1On, fixed(301, 7)), 0.0),
            (
                "precision",
                &base,
                config(
                    Algorithm::T1On,
                    Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, 7)),
                ),
                0.0,
            ),
            ("k", &base, with_k, 0.0),
            ("table", &base, base.clone(), 1e-3),
            (
                "exact settings",
                &exact_base,
                config(Algorithm::T1On, exact(257)),
                0.0,
            ),
        ];
        for (what, base, variant, shift) in cases {
            let (t, other) = (table(0.0), table(shift));
            let mut cache = TableCache::default();
            let mut m = ServiceMetrics::default();
            for _ in 0..2 {
                cache.driver(&t, base.clone(), None, &mut m).unwrap();
            }
            assert_eq!(cache.beliefs(), 1, "{what}: the base key is stored");
            cache.driver(&other, variant.clone(), None, &mut m).unwrap();
            assert_eq!(m.belief_hits, 0, "{what}: the variant hit the base belief");
            assert_eq!(m.belief_builds, 3, "{what}");
            cache.driver(&t, base.clone(), None, &mut m).unwrap();
            assert_eq!(m.belief_hits, 1, "{what}: the base key must still hit");
        }
    }

    #[test]
    fn unrepeated_keys_store_nothing() {
        // 10k submits, each with a sampler seed never seen before: every
        // one builds, none is stored, and the record of keys seen once
        // stays bounded.
        let small = UncertainTable::new(
            (0..4)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.2, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        for seed in 0..10_000 {
            let cfg = SessionConfig {
                k: 2,
                ..config(
                    Algorithm::T1On,
                    Engine::MonteCarlo(McConfig::fixed(4, seed)),
                )
            };
            cache.driver(&small, cfg, None, &mut m).unwrap();
        }
        assert_eq!(cache.beliefs(), 0);
        assert_eq!((m.belief_builds, m.belief_hits), (10_000, 0));
        assert_eq!(cache.entries[0].unrepeated.len(), MAX_UNREPEATED_KEYS);
        assert_eq!(cache.belief_paths, 0);
    }

    #[test]
    fn stored_paths_stay_within_the_bound() {
        // A stream cycling over more keys than the path bound holds
        // (n = 12, K = 5, 2000 worlds: over a thousand paths a belief):
        // after every submit the held paths are within the bound and
        // match the running total, and each key's third consecutive
        // submit hits.
        let wide = UncertainTable::new(
            (0..12)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.02, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        let cfg = |seed| SessionConfig {
            k: 5,
            ..config(
                Algorithm::TbOff,
                Engine::MonteCarlo(McConfig::fixed(2000, seed)),
            )
        };
        let held = |cache: &TableCache| -> usize {
            cache.entries.iter().map(TableEntry::belief_paths).sum()
        };
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        let keys = 16;
        for _ in 0..2 {
            for seed in 0..keys {
                let hits = m.belief_hits;
                for _ in 0..3 {
                    cache.driver(&wide, cfg(seed), None, &mut m).unwrap();
                    assert_eq!(held(&cache), cache.belief_paths);
                    assert!(cache.belief_paths <= MAX_BELIEF_PATHS);
                }
                assert!(m.belief_hits > hits, "seed {seed}: no hit in three submits");
            }
        }
        assert!(cache.beliefs() < keys as usize, "the bound must evict");

        // Evicting a table drops its beliefs and their paths: the wide
        // table is the least recently used of MAX_TABLES + 1.
        let t = table(0.0);
        for _ in 0..2 {
            cache.driver(&t, cfg(0), None, &mut m).unwrap();
        }
        for shift in 1..MAX_TABLES {
            cache
                .driver(&table(shift as f64 * 1e-3), cfg(0), None, &mut m)
                .unwrap();
        }
        assert_eq!(cache.tables(), MAX_TABLES);
        assert_eq!(cache.beliefs(), 1, "only the small table's belief is left");
        assert_eq!(held(&cache), cache.belief_paths);
    }
}
