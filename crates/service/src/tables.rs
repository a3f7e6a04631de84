//! Per-table state shared across sessions (DESIGN.md §8): the pairwise
//! matrix, the certain/possible top-K bounds per query depth, and the
//! initial beliefs of repeated submits.
//!
//! A session's initial belief is a pure function of its table and its
//! [`BeliefKey`] (`k` plus the full engine configuration), so a submit
//! whose `(table, key)` pair repeats can start from a copy of an earlier
//! build instead of sampling again. Tree sessions and Monte-Carlo `incr`
//! sessions of one configuration share a key: the `incr` build's path
//! set and report are the tree build's, and an `incr` session also
//! weighs the sampled worlds behind them. A key's first submit only
//! records the key; its second submit stores the belief it builds; later
//! submits clone the stored one. The first `incr` submit over a belief
//! stored without worlds samples them once and attaches them, and every
//! later `incr` submit shares them through an `Arc` with fresh weights.
//! Traffic that never repeats a key (a fresh sampler seed per session, a
//! fresh table per tenant) therefore holds no beliefs at all.
//!
//! A stored belief also carries the first selections of the sessions
//! started from it: one [`FirstPickSlot`] per algorithm, measure and
//! allowance (the session budget, since the service never caps a
//! session's allowance on the crowd's side), made at the submit that
//! first needs it and handed to every later session with the same three.
//! The first of those sessions to select fills the slot, from whichever
//! gather thread runs it; the others copy the pick instead of selecting
//! (DESIGN.md §8). Random and Naive sessions, whose selectors read the
//! session seed, get no slot. A slot is charged its upper bound
//! ([`FirstPickSlot::max_bytes`]) when it is made, so the byte total and
//! every eviction are decided in submit order, whatever the threads do.
//!
//! Stored beliefs, slots included, are bounded by [`MAX_BELIEF_BYTES`] in
//! total, evicted least recently used, and leave with their table when
//! the table itself is evicted.

use crate::metrics::ServiceMetrics;
use ctk_core::belief::{Belief, BeliefKey};
use ctk_core::driver::{FirstPickSlot, SessionDriver};
use ctk_core::session::{Algorithm, SessionConfig};
use ctk_core::Result;
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_rank::RankList;
use ctk_tpo::TpoError;
use std::collections::VecDeque;
use std::sync::Arc;

/// At most this many distinct tables keep their derived state; beyond it
/// the least recently used table is evicted (running sessions keep their
/// matrix alive through their own `Arc`). Bounds both the memory held by
/// retired tables and the per-submit equality scan.
pub(crate) const MAX_TABLES: usize = 32;

/// At most this many bytes are held in stored beliefs, over all tables:
/// each belief's paths (record and items), their prefix groups (one byte
/// per rank and level id up to 256 paths, two up to 65 536, four beyond),
/// its attached world sample (one byte per ranking and position entry
/// for tables of up to 256 tuples, four beyond) and the upper bound of
/// each of its first-pick slots. The bound caps the
/// memory the belief cache adds to the service whatever the traffic; a
/// belief larger than the whole bound is not stored.
pub(crate) const MAX_BELIEF_BYTES: usize = 8 << 20;

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
    belief: Belief,
    /// The first selections of the sessions started from `belief`, one
    /// slot per algorithm, measure and allowance.
    first_picks: Vec<FirstPickSlot>,
    /// `belief.bytes()` plus every slot's `max_bytes()`, counted into the
    /// cache's total.
    bytes: usize,
    /// Clock reading of the last submit that used it.
    last_used: u64,
}

impl StoredBelief {
    fn new(key: BeliefKey, belief: Belief, last_used: u64) -> Self {
        Self {
            key,
            bytes: belief.bytes(),
            belief,
            first_picks: Vec::new(),
            last_used,
        }
    }

    /// The slot of `config`'s first selection over a table of `n` tuples,
    /// made and charged when no session needed it before; `None` for the
    /// strategies that get no slot.
    fn first_pick(&mut self, config: &SessionConfig, n: usize) -> Option<FirstPickSlot> {
        if let Some(slot) = self
            .first_picks
            .iter()
            .find(|s| s.serves(config, config.budget))
        {
            return Some(slot.clone());
        }
        let slot = FirstPickSlot::new(config, config.budget, n)?;
        self.bytes += slot.max_bytes();
        // No spare capacity: each slot record is charged once.
        self.first_picks.reserve_exact(1);
        self.first_picks.push(slot.clone());
        Some(slot)
    }
}

/// The service's per-table cache (see the module docs).
pub(crate) struct TableCache {
    /// Least recently used first.
    entries: Vec<TableEntry>,
    /// Bytes held in stored beliefs, over all tables.
    belief_bytes: usize,
    /// The bound on `belief_bytes`: [`MAX_BELIEF_BYTES`] outside tests.
    budget: usize,
    /// Advances once per submit; orders beliefs by last use.
    clock: u64,
}

impl Default for TableCache {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            belief_bytes: 0,
            budget: MAX_BELIEF_BYTES,
            clock: 0,
        }
    }
}

impl TableCache {
    /// Starts the driver of a session over `table`, reusing the table's
    /// pairwise matrix and bounds and, for a repeated key, its stored
    /// initial belief and the belief's first-pick slot for the session's
    /// algorithm, measure and budget. Counts belief builds and hits and
    /// reports the stored bytes in `metrics`. An invalid configuration is
    /// refused before anything is looked up, built or stored.
    pub(crate) fn driver(
        &mut self,
        table: &UncertainTable,
        config: SessionConfig,
        truth: Option<&RankList>,
        metrics: &mut ServiceMetrics,
    ) -> Result<SessionDriver> {
        config.validate_for(table)?;
        let driver = self.start(table, config, truth, metrics);
        metrics.stored_belief_bytes = self.belief_bytes;
        driver
    }

    fn start(
        &mut self,
        table: &UncertainTable,
        config: SessionConfig,
        truth: Option<&RankList>,
        metrics: &mut ServiceMetrics,
    ) -> Result<SessionDriver> {
        self.clock += 1;
        let key = BeliefKey::of(&config);
        let incr = matches!(config.algorithm, Algorithm::Incr { .. });
        let n = table.len();
        let Some(idx) = self.touch(table) else {
            // A new table's entry goes in only once its first belief is
            // built: a submit the engine refuses evicts no table and no
            // stored belief.
            let mut entry = TableEntry::new(table);
            let b = entry.bounds_for(config.k)?;
            let belief = build(table, &key, &b, incr)?;
            metrics.belief_builds += 1;
            entry.unrepeated.push_back(key);
            let pairwise = Arc::clone(&entry.pairwise);
            self.insert(entry);
            return SessionDriver::from_belief(config, table, truth, pairwise, belief, None);
        };
        let entry = &mut self.entries[idx];
        let pairwise = Arc::clone(&entry.pairwise);
        let b = &entry.bounds_for(config.k)?;
        if let Some(pos) = entry.beliefs.iter().position(|s| s.key == key) {
            let stored = &mut entry.beliefs[pos];
            stored.last_used = self.clock;
            let held = stored.bytes;
            if incr && stored.belief.needs_worlds() {
                // The key's first incr submit: sample the worlds behind
                // the stored paths once and store them with the belief.
                let before = stored.belief.bytes();
                stored.belief.attach_worlds(table, &key)?;
                stored.bytes += stored.belief.bytes() - before;
                metrics.belief_builds += 1;
            } else {
                #[cfg(feature = "debug-invariants")]
                {
                    let fresh = build(table, &key, b, incr);
                    assert!(
                        fresh.is_ok_and(|fresh| fresh.same_bits(&stored.belief)
                            && (!incr || fresh.worlds() == stored.belief.worlds())),
                        "a stored belief differs from a fresh build of its key {key:?}"
                    );
                }
                metrics.belief_hits += 1;
            }
            let slot = stored.first_pick(&config, n);
            let belief = stored.belief.clone();
            if stored.bytes != held {
                // Worlds or a slot were added: charge the belief again,
                // evicting others if it no longer fits.
                let stored = entry.beliefs.swap_remove(pos);
                self.belief_bytes -= held;
                self.keep(idx, stored);
            }
            return SessionDriver::from_belief(config, table, truth, pairwise, belief, slot);
        }
        let belief = build(table, &key, b, incr)?;
        metrics.belief_builds += 1;
        let slot = match entry.unrepeated.iter().position(|k| *k == key) {
            Some(pos) => {
                entry.unrepeated.remove(pos);
                let mut stored = StoredBelief::new(key, belief.clone(), self.clock);
                let slot = stored.first_pick(&config, n);
                self.keep(idx, stored);
                slot
            }
            None => {
                if entry.unrepeated.len() == MAX_UNREPEATED_KEYS {
                    entry.unrepeated.pop_front();
                }
                entry.unrepeated.push_back(key);
                None
            }
        };
        SessionDriver::from_belief(config, table, truth, pairwise, belief, slot)
    }

    /// The index of `table`'s entry, moved to the most recently used end;
    /// `None` when the table has none.
    fn touch(&mut self, table: &UncertainTable) -> Option<usize> {
        let idx = self.entries.iter().position(|e| &e.table == table)?;
        let entry = self.entries.remove(idx);
        self.entries.push(entry);
        Some(self.entries.len() - 1)
    }

    /// Adds a new table's entry at the most recently used end, evicting the
    /// least recently used table, with its stored beliefs, when
    /// [`MAX_TABLES`] are held.
    fn insert(&mut self, entry: TableEntry) {
        if self.entries.len() >= MAX_TABLES {
            let evicted = self.entries.remove(0);
            self.belief_bytes -= evicted.belief_bytes();
        }
        self.entries.push(entry);
    }

    /// Stores `stored` beside entry `idx`, evicting least recently used
    /// beliefs until the byte bound holds. A belief larger than the whole
    /// bound is not stored.
    fn keep(&mut self, idx: usize, stored: StoredBelief) {
        if stored.bytes > self.budget {
            return;
        }
        while self.belief_bytes + stored.bytes > self.budget && self.evict_lru_belief() {}
        self.belief_bytes += stored.bytes;
        self.entries[idx].beliefs.push(stored);
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
        self.belief_bytes -= evicted.bytes;
        true
    }

    /// Distinct tables with cached state.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> usize {
        self.entries.len()
    }

    /// Distinct `(table, k)` bound sets cached.
    #[cfg(test)]
    pub(crate) fn bounds(&self) -> usize {
        self.entries.iter().map(|e| e.bounds.len()).sum()
    }

    /// Distinct `(table, key)` initial beliefs stored.
    pub(crate) fn beliefs(&self) -> usize {
        self.entries.iter().map(|e| e.beliefs.len()).sum()
    }
}

impl TableEntry {
    /// A table's entry before any submit has used it: its pairwise matrix,
    /// and nothing else yet.
    fn new(table: &UncertainTable) -> Self {
        Self {
            table: table.clone(),
            pairwise: Arc::new(PairwiseMatrix::compute(table)),
            bounds: Vec::new(),
            beliefs: Vec::new(),
            unrepeated: VecDeque::new(),
        }
    }

    /// The certain/possible top-K bounds at depth `k`, computed on first
    /// use.
    fn bounds_for(&mut self, k: usize) -> Result<Arc<TopKBounds>> {
        if let Some((_, b)) = self.bounds.iter().find(|(depth, _)| *depth == k) {
            return Ok(Arc::clone(b));
        }
        let b = Arc::new(TopKBounds::from_matrix(&self.pairwise, k).map_err(TpoError::from)?);
        self.bounds.push((k, Arc::clone(&b)));
        Ok(b)
    }

    fn belief_bytes(&self) -> usize {
        self.beliefs.iter().map(|s| s.bytes).sum()
    }
}

/// The initial belief of `key` over `table`; an `incr` session's also
/// keeps its sampled worlds.
fn build(table: &UncertainTable, key: &BeliefKey, b: &TopKBounds, incr: bool) -> Result<Belief> {
    if incr {
        Belief::build_with_worlds(table, key, b)
    } else {
        Belief::build(table, key, b)
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
    fn incr_sessions_share_tree_keys() {
        // Tree and incr sessions interleaved over one key per engine: the
        // first incr submit meets a belief a tree build stored and
        // attaches its worlds, later ones hit. A pinned table's belief has
        // no worlds to attach. Every report must equal its standalone run.
        let incr = Algorithm::Incr {
            questions_per_round: 2,
        };
        let decided = UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(i as f64, 0.2).unwrap())
                .collect(),
        )
        .unwrap();
        let order = [
            Algorithm::T1On,
            Algorithm::T1On,
            incr.clone(),
            incr.clone(),
            incr.clone(),
            Algorithm::TbOff,
            incr.clone(),
            Algorithm::TbOff,
        ];
        let cases = [
            (
                table(0.0),
                Engine::MonteCarlo(McConfig::fixed(400, 7)),
                (3, 5),
            ),
            (
                table(0.0),
                Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, 7)),
                (3, 5),
            ),
            (
                decided,
                Engine::MonteCarlo(McConfig::adaptive(0.05, 0.05, 7)),
                (2, 6),
            ),
        ];
        for (table, engine, counts) in cases {
            let mut svc = TopKService::new(crowd(&table));
            let submitted: Vec<_> = order
                .iter()
                .map(|alg| {
                    let cfg = config(alg.clone(), engine.clone());
                    let id = svc.submit(&table, SessionSpec::new(cfg.clone())).unwrap();
                    (id, cfg)
                })
                .collect();
            let m = svc.metrics();
            assert_eq!((m.belief_builds, m.belief_hits), counts, "{engine:?}");
            assert!(m.stored_belief_bytes > 0, "{engine:?}");
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

        // The stored worlds are one allocation that every incr session
        // over the key shares.
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        let t = table(0.0);
        let fixed = Engine::MonteCarlo(McConfig::fixed(400, 7));
        let drivers: Vec<_> = order
            .iter()
            .map(|alg| {
                let cfg = config(alg.clone(), fixed.clone());
                cache.driver(&t, cfg, None, &mut m).unwrap()
            })
            .collect();
        let stored = cache.entries[0].beliefs[0].belief.worlds().unwrap();
        assert_eq!(
            Arc::strong_count(stored),
            1 + 4,
            "the cache and four incr drivers"
        );
        // Every tuple of the table can reach the top 3: per world, the
        // depth-3 prefix and the 6 candidates' positions at one byte an
        // entry, plus the candidate list and slot map (6 u32 each).
        assert_eq!(
            stored.bytes(),
            400 * (3 + 6) + 2 * 4 * 6,
            "one byte per entry"
        );
        drop(drivers);
    }

    #[test]
    fn tree_hits_share_the_stored_prefix_groups() {
        // A stored belief's prefix groups are one allocation that every
        // tree session started from it holds: no hit regroups its paths.
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        let t = table(0.0);
        let cfg = |alg| config(alg, Engine::MonteCarlo(McConfig::fixed(400, 7)));
        for _ in 0..2 {
            cache
                .driver(&t, cfg(Algorithm::T1On), None, &mut m)
                .unwrap();
        }
        let drivers: Vec<_> = [Algorithm::T1On, Algorithm::TbOff, Algorithm::COff]
            .into_iter()
            .map(|alg| cache.driver(&t, cfg(alg), None, &mut m).unwrap())
            .collect();
        assert_eq!(m.belief_hits, 3);
        let stored = cache.entries[0].beliefs[0].belief.paths().prefix_groups();
        assert_eq!(
            Arc::strong_count(stored),
            1 + 3,
            "the cache and three tree drivers"
        );
        drop(drivers);
        let stored = cache.entries[0].beliefs[0].belief.paths().prefix_groups();
        assert_eq!(Arc::strong_count(stored), 1);
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
        assert_eq!(cache.belief_bytes, 0);
        assert_eq!(m.stored_belief_bytes, 0);
    }

    #[test]
    fn stored_paths_stay_within_the_bound() {
        // A stream cycling over more keys than a 256 kB budget holds
        // (n = 12, K = 5, 2000 worlds: over a thousand paths a belief):
        // after every submit the held bytes are within the budget and
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
        let mut cache = TableCache {
            budget: 256 << 10,
            ..TableCache::default()
        };
        let mut m = ServiceMetrics::default();
        let keys = 16;
        for _ in 0..2 {
            for seed in 0..keys {
                let hits = m.belief_hits;
                for _ in 0..3 {
                    cache.driver(&wide, cfg(seed), None, &mut m).unwrap();
                    assert_eq!(held(&cache), cache.belief_bytes);
                    assert_eq!(m.stored_belief_bytes, cache.belief_bytes);
                    assert!(cache.belief_bytes <= cache.budget);
                }
                assert!(m.belief_hits > hits, "seed {seed}: no hit in three submits");
            }
        }
        assert!(cache.beliefs() < keys as usize, "the bound must evict");
        // The held bytes count each belief's prefix groups: a rank and k
        // level ids per path, two bytes each above 256 paths.
        for stored in cache.entries.iter().flat_map(|e| &e.beliefs) {
            let paths = stored.belief.paths();
            let groups = paths.prefix_groups().bytes();
            let ids = paths.len() * (paths.k() + 1);
            assert!(paths.len() > 256, "{} paths", paths.len());
            assert!((2 * ids..2 * ids + 256).contains(&groups), "{groups} bytes");
            assert!(stored.bytes >= groups + paths.len() * std::mem::size_of::<ctk_tpo::Path>());
        }

        // Evicting a table drops its beliefs and their bytes: the wide
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
        assert_eq!(held(&cache), cache.belief_bytes);
    }

    /// Bytes of every stored belief and its first-pick slots, recounted.
    fn held(cache: &TableCache) -> usize {
        cache
            .entries
            .iter()
            .flat_map(|e| &e.beliefs)
            .map(|s| {
                let slots: usize = s.first_picks.iter().map(FirstPickSlot::max_bytes).sum();
                s.belief.bytes() + slots
            })
            .sum()
    }

    #[test]
    fn stored_worlds_count_against_the_budget() {
        // Tree and incr submits cycling over more keys than a 160 kB
        // budget holds once their worlds are attached (n = 12, k = 3,
        // 2000 worlds: 30 kB of worlds a key, byte-packed): the stored
        // bytes, worlds included, stay within the budget after every
        // submit, and the gauge reports them.
        let wide = UncertainTable::new(
            (0..12)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.02, 0.5).unwrap())
                .collect(),
        )
        .unwrap();
        let cfg =
            |algorithm, seed| config(algorithm, Engine::MonteCarlo(McConfig::fixed(2000, seed)));
        let incr = Algorithm::Incr {
            questions_per_round: 2,
        };
        let mut cache = TableCache {
            budget: 160 << 10,
            ..TableCache::default()
        };
        let mut m = ServiceMetrics::default();
        let mut with_worlds = 0;
        for _ in 0..2 {
            for seed in 0..8 {
                for alg in [Algorithm::T1On, Algorithm::T1On, incr.clone(), incr.clone()] {
                    cache.driver(&wide, cfg(alg, seed), None, &mut m).unwrap();
                    assert_eq!(held(&cache), cache.belief_bytes);
                    assert_eq!(m.stored_belief_bytes, cache.belief_bytes);
                    assert!(cache.belief_bytes <= cache.budget);
                    let worlds = cache.entries[0]
                        .beliefs
                        .iter()
                        .filter(|s| s.belief.worlds().is_some())
                        .count();
                    with_worlds = with_worlds.max(worlds);
                }
            }
        }
        assert!(with_worlds > 0, "incr submits attach worlds");
        // All 12 tuples can reach the top 3: per world, the 3-id prefix
        // and 12 candidate positions at one byte each, plus the candidate
        // list and slot map (12 u32 each).
        for stored in &cache.entries[0].beliefs {
            if let Some(worlds) = stored.belief.worlds() {
                assert_eq!(worlds.bytes(), 2000 * (3 + 12) + 2 * 4 * 12);
            }
        }
        assert!(cache.beliefs() < 8, "the bound must evict");
        assert!(m.belief_hits > 0);
    }

    /// The stored belief of `cache`'s only table with key index `at`.
    fn stored(cache: &TableCache, at: usize) -> &StoredBelief {
        &cache.entries.last().expect("a table").beliefs[at]
    }

    #[test]
    fn first_pick_hits_match_fresh_sessions() {
        // Every slotted strategy, on a fixed and an adaptive engine, with
        // and without an early-stop target, at 1–4 threads. Two waves of
        // two submits per config: the second wave starts only from slots
        // the first wave filled, and every report must equal a fresh
        // `new_shared` run.
        let table = table(0.0);
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
            Algorithm::Incr {
                questions_per_round: 2,
            },
        ];
        for engine in [
            Engine::MonteCarlo(McConfig::fixed(400, 7)),
            Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, 7)),
        ] {
            let base = config(Algorithm::T1On, engine.clone());
            let initial = SessionDriver::new(base, &table, None)
                .unwrap()
                .report()
                .initial_uncertainty;
            let configs: Vec<_> = algorithms
                .iter()
                .flat_map(|alg| {
                    [None, Some(0.6 * initial)].map(|target| SessionConfig {
                        uncertainty_target: target,
                        budget: 4,
                        ..config(alg.clone(), engine.clone())
                    })
                })
                .collect();
            let fresh: Vec<_> = configs
                .iter()
                .map(|cfg| standalone(cfg.clone(), &table))
                .collect();
            for threads in 1..=4 {
                let mut svc = TopKService::new(crowd(&table)).with_threads(threads);
                let mut reused = Vec::new();
                for _wave in 0..2 {
                    let before = svc.metrics().first_picks_reused;
                    let ids: Vec<_> = configs
                        .iter()
                        .enumerate()
                        .flat_map(|(c, cfg)| [c; 2].map(|c| (c, cfg)))
                        .map(|(c, cfg)| {
                            let spec = SessionSpec::new(cfg.clone());
                            (c, svc.submit(&table, spec).unwrap())
                        })
                        .collect();
                    svc.run_to_completion();
                    reused.push(svc.metrics().first_picks_reused - before);
                    for (c, id) in ids {
                        let name = configs[c].algorithm.name();
                        assert!(
                            svc.report(id).expect("completes").same_outcome(&fresh[c]),
                            "{name} on {engine:?} at {threads} threads diverged from a fresh run"
                        );
                    }
                }
                assert_eq!(
                    reused[1],
                    2 * configs.len() as u64,
                    "{engine:?} at {threads} threads: every second-wave session reuses"
                );
                assert!(svc.metrics().summary().contains("first picks reused"));
            }
        }
    }

    #[test]
    fn first_picks_never_cross_configs() {
        // A base session fills its slot; a config that differs from it in
        // measure, budget or round size alone must get an empty slot of
        // its own, while a repeat of the base reads the filled one.
        let fixed = Engine::MonteCarlo(McConfig::fixed(400, 7));
        let incr = |questions_per_round| Algorithm::Incr {
            questions_per_round,
        };
        let tree = config(Algorithm::TbOff, fixed.clone());
        let stream = config(incr(2), fixed.clone());
        let cases = [
            (
                "measure",
                tree.clone(),
                SessionConfig {
                    measure: MeasureKind::Entropy,
                    ..tree.clone()
                },
            ),
            (
                "budget",
                tree.clone(),
                SessionConfig {
                    budget: 4,
                    ..tree.clone()
                },
            ),
            (
                "questions per round",
                stream.clone(),
                config(incr(3), fixed.clone()),
            ),
        ];
        let t = table(0.0);
        for (what, base, variant) in cases {
            let mut cache = TableCache::default();
            let mut m = ServiceMetrics::default();
            for _ in 0..2 {
                cache.driver(&t, base.clone(), None, &mut m).unwrap();
            }
            let mut first = cache.driver(&t, base.clone(), None, &mut m).unwrap();
            assert!(!first.first_pick_stored(), "{what}");
            first.next_batch(usize::MAX).unwrap();
            let repeat = cache.driver(&t, base.clone(), None, &mut m).unwrap();
            assert!(
                repeat.first_pick_stored(),
                "{what}: the base slot is filled"
            );
            let other = cache.driver(&t, variant, None, &mut m).unwrap();
            assert!(
                !other.first_pick_stored(),
                "{what}: the variant read the base slot"
            );
            assert_eq!(stored(&cache, 0).first_picks.len(), 2, "{what}");
        }
    }

    #[test]
    fn random_and_naive_get_no_slot() {
        // Their selectors read the session seed: no slot is made for them,
        // and no session of theirs ever reads a stored pick.
        let t = table(0.0);
        let fixed = Engine::MonteCarlo(McConfig::fixed(400, 7));
        let specs: Vec<_> = [Algorithm::Random, Algorithm::Naive]
            .into_iter()
            .flat_map(|alg| std::iter::repeat_n(alg, 4))
            .map(|alg| config(alg, fixed.clone()))
            .collect();
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        for cfg in &specs {
            let mut driver = cache.driver(&t, cfg.clone(), None, &mut m).unwrap();
            driver.next_batch(usize::MAX).unwrap();
            assert!(!driver.first_pick_reused());
        }
        assert_eq!(m.belief_hits, 6);
        assert!(stored(&cache, 0).first_picks.is_empty());

        let mut svc = TopKService::new(crowd(&t)).with_threads(1);
        for cfg in specs {
            svc.submit(&t, SessionSpec::new(cfg)).unwrap();
        }
        svc.run_to_completion();
        assert_eq!(svc.metrics().first_picks_reused, 0);
    }

    #[test]
    fn first_picks_count_against_the_budget() {
        // Exact bytes: each slot adds its bound once, when it is made,
        // sized by the questions its selection can queue (1 for T1-on,
        // the budget for TB-off, at most the table's 15 pairs for C-off,
        // the round size for incr). The first incr submit's world
        // attachment keeps the slots; repeats and Random add nothing; the
        // slots leave with their table.
        let t = table(0.0);
        let fixed = |alg| config(alg, Engine::MonteCarlo(McConfig::fixed(400, 7)));
        let q = std::mem::size_of::<ctk_crowd::Question>();
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        let submit = |cache: &mut TableCache, m: &mut ServiceMetrics, cfg: SessionConfig| {
            cache.driver(&t, cfg, None, m).unwrap();
            assert_eq!(m.stored_belief_bytes, cache.belief_bytes);
            assert_eq!(held(cache), cache.belief_bytes);
            cache.belief_bytes
        };
        submit(&mut cache, &mut m, fixed(Algorithm::T1On));
        let paths = submit(&mut cache, &mut m, fixed(Algorithm::T1On)) - {
            let s = stored(&cache, 0);
            s.first_picks[0].max_bytes()
        };
        assert_eq!(paths, stored(&cache, 0).belief.bytes());
        let one = stored(&cache, 0).first_picks[0].max_bytes();
        let tb = submit(&mut cache, &mut m, fixed(Algorithm::TbOff));
        assert_eq!(tb, paths + one + (one + 2 * q), "TB-off plans budget 3");
        let wide = SessionConfig {
            budget: 40,
            ..fixed(Algorithm::COff)
        };
        let c = submit(&mut cache, &mut m, wide);
        assert_eq!(c, tb + one + 14 * q, "C-off plans at most 15 pairs");
        let incr = fixed(Algorithm::Incr {
            questions_per_round: 2,
        });
        let attached = submit(&mut cache, &mut m, incr.clone());
        let worlds = stored(&cache, 0).belief.worlds().expect("attached").bytes();
        assert_eq!(attached, c + worlds + one + q, "incr asks 2 a round");
        assert_eq!(
            stored(&cache, 0).first_picks.len(),
            4,
            "the attach kept them"
        );
        for cfg in [incr, fixed(Algorithm::T1On), fixed(Algorithm::Random)] {
            assert_eq!(submit(&mut cache, &mut m, cfg), attached);
        }
        assert_eq!(m.belief_hits, 5);

        // Evicting the table evicts its belief with every slot.
        for shift in 1..=MAX_TABLES {
            cache
                .driver(
                    &table(shift as f64 * 1e-3),
                    fixed(Algorithm::T1On),
                    None,
                    &mut m,
                )
                .unwrap();
        }
        assert_eq!((cache.beliefs(), cache.belief_bytes), (0, 0));
    }

    #[test]
    fn evicted_beliefs_take_their_slots() {
        // A budget that holds one belief with its slots: storing a second
        // key evicts the first, slots and all.
        let t = table(0.0);
        let cfg = |seed| {
            config(
                Algorithm::TbOff,
                Engine::MonteCarlo(McConfig::fixed(400, seed)),
            )
        };
        let mut cache = TableCache::default();
        let mut m = ServiceMetrics::default();
        for _ in 0..2 {
            cache.driver(&t, cfg(1), None, &mut m).unwrap();
        }
        let one = cache.belief_bytes;
        cache.budget = one + one / 2;
        for _ in 0..2 {
            cache.driver(&t, cfg(2), None, &mut m).unwrap();
        }
        assert_eq!(cache.beliefs(), 1);
        assert_eq!(stored(&cache, 0).key, BeliefKey::of(&cfg(2)));
        assert_eq!(held(&cache), cache.belief_bytes);
        assert_eq!(stored(&cache, 0).first_picks.len(), 1);
    }
}
