//! Sampled possible-worlds belief state.
//!
//! A [`WorldModel`] holds `M` sampled possible worlds (full orderings of
//! the relation) with weights: the belief state of the `incr` algorithm,
//! which alternates tree construction with question rounds. Answers
//! filter (or, for noisy workers, reweight) whole worlds, so a deeper
//! tree can be materialized *after* pruning at a shallower depth — the
//! core trick that makes `incr` cheap on large, highly uncertain datasets
//! (§III-D). The tree-mode Monte-Carlo builders never build one: they
//! keep only each world's top-K prefix (`crate::build`), and the full
//! model is their test-only reference.
//!
//! ## Hot-path layout
//!
//! The rankings live in one flat `m × n` buffer (`rankings[w·n + r]` is
//! world `w`'s rank-`r` tuple), ranked in place by the allocation-free
//! [`ctk_prob::sample::ranking_into`]. Alongside them the model keeps a
//! *position index* `pos[w·n + t] = rank of tuple t in world w`, making
//! "does world `w` rank `i` above `j`?" an O(1) lookup instead of an O(n)
//! scan — so [`WorldModel::pr_precedes`] and the `apply_answer_*` updates
//! are O(M) in the number of worlds, independent of the table size. The
//! prefix grouping, [`WorldModel::path_set_cached`], maintains the
//! surviving prefix groups across the `incr` driver's repeated calls
//! instead of rebuilding a hash map per round (DESIGN.md §8); a test-only
//! hash-map grouping (`path_set`) is the reference it is pinned against.

use crate::error::{Result, TpoError};
use crate::path::PathSet;
use crate::precision::PrecisionTarget;
use ctk_prob::compare::{available_cores, planned_threads};
use ctk_prob::sample::{ranking_into, WorldSampler};
use ctk_prob::UncertainTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
#[cfg(test)]
// ctk-allow(det-hash-collection): the test-only grouping accumulates each group's sum in ascending world order, drained through PathSet::from_weighted's canonical sort
use std::collections::HashMap;

/// Below this many worlds the rank phase of sampling stays sequential —
/// thread spawn overhead would dominate (cutoffs in DESIGN.md §10).
pub(crate) const PARALLEL_WORLDS_MIN: usize = 2048;

/// Worlds sharing a common ranking prefix, tracked incrementally across
/// [`WorldModel::path_set_cached`] calls. Membership is structural (it
/// ignores weights, which change under answers), so the cache never needs
/// invalidation on belief updates — only refinement when the requested
/// depth grows.
#[derive(Debug, Clone)]
struct PrefixCache {
    /// Depth of the prefixes the groups currently represent.
    depth: usize,
    /// Disjoint groups of world indices, each ascending; all members of a
    /// group share their depth-`depth` ranking prefix.
    groups: Vec<Vec<u32>>,
}

/// Weighted sampled worlds over a relation of `n` tuples.
#[derive(Debug, Clone)]
pub struct WorldModel {
    n: usize,
    /// Every world's full ranking (tuple ids, best first), flat: world
    /// `w` is `rankings[w * n..(w + 1) * n]`.
    rankings: Vec<u32>,
    /// Position index: `pos[w * n + t]` is the rank of tuple `t` in world
    /// `w` (0 = best). Kept in sync with `rankings`.
    pos: Vec<u32>,
    /// Nonnegative world weights (not necessarily normalized).
    weights: Vec<f64>,
    /// Incremental prefix grouping for `path_set_cached`.
    cache: Option<PrefixCache>,
}

impl WorldModel {
    /// Samples `m` worlds from the table's score distributions.
    ///
    /// Fails with [`TpoError::InvalidWorlds`] when `m` is not a valid fixed
    /// budget ([`PrecisionTarget::validate`]): an empty belief cannot
    /// represent anything, and invalid specs are errors, not silent
    /// repairs. Score draws are strictly sequential in the seeded PRNG; the
    /// rank phase is parallelized across worlds, which cannot change the
    /// result (each world is ranked independently).
    pub fn sample(table: &UncertainTable, m: usize, seed: u64) -> Result<Self> {
        Self::sample_with_threads(table, m, seed, auto_threads(m))
    }

    /// [`WorldModel::sample`] with an explicit thread count for the rank
    /// phase. `threads <= 1` is the fully sequential reference; any other
    /// count produces bit-identical output (pinned by tests).
    pub(crate) fn sample_with_threads(
        table: &UncertainTable,
        m: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self> {
        PrecisionTarget::FixedWorlds(m).validate()?;
        let n = table.len();
        // Score draws consume the PRNG in world-major, tuple-minor order —
        // exactly as the per-world sampler always did (the compiled
        // `WorldSampler` is draw-for-draw identical to `ScoreDist::sample`)
        // — but land in one flat `m × n` buffer instead of `m` allocations.
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = WorldSampler::new(table);
        let mut scores = vec![0.0f64; m * n];
        for row in scores.chunks_mut(n) {
            sampler.sample_into(&mut rng, row);
        }

        let mut rankings = vec![0u32; m * n];
        let mut pos = vec![0u32; m * n];
        let threads = threads.clamp(1, m);
        if threads == 1 {
            rank_chunk(&scores, &mut rankings, &mut pos, n);
        } else {
            let chunk = m.div_ceil(threads) * n;
            // ctk-allow(det-thread-spawn): planned_threads fanout; each thread fills a disjoint pre-chunked slice
            std::thread::scope(|s| {
                for ((sc, rc), pc) in scores
                    .chunks(chunk)
                    .zip(rankings.chunks_mut(chunk))
                    .zip(pos.chunks_mut(chunk))
                {
                    s.spawn(move || rank_chunk(sc, rc, pc, n));
                }
            });
        }
        let weights = vec![1.0; m];
        Ok(Self {
            n,
            rankings,
            pos,
            weights,
            cache: None,
        })
    }

    /// An empty belief over `n` tuples, ready for incremental
    /// [`WorldModel::append_sampled`] growth. An empty model is not a
    /// valid belief on its own — `path_set_cached` on it fails — so callers
    /// must append at least one batch before reading.
    pub fn empty(n: usize) -> Self {
        Self::from_rankings(n, Vec::new())
    }

    /// Appends `additional` freshly sampled worlds, continuing `rng`'s
    /// draw stream.
    ///
    /// Score draws stay strictly sequential in the PRNG (world-major,
    /// tuple-minor, exactly as [`WorldModel::sample`] consumes them), so
    /// growing a model batch by batch with one RNG is bit-identical to
    /// sampling all the worlds in one shot from the same seed (pinned by
    /// tests) — the property the adaptive precision builder relies on.
    /// New worlds arrive with unit weight.
    pub fn append_sampled(
        &mut self,
        table: &UncertainTable,
        additional: usize,
        rng: &mut StdRng,
    ) -> Result<()> {
        debug_assert_eq!(table.len(), self.n, "table width must match the model");
        let sampler = WorldSampler::new(table);
        let mut row = vec![0.0f64; self.n];
        let mut scratch = Vec::with_capacity(self.n);
        for _ in 0..additional {
            sampler.sample_into(rng, &mut row);
            self.push_world(&row, &mut scratch);
        }
        Ok(())
    }

    /// Ranks one sampled world (`scores` in tuple-id order) into the flat
    /// storage with unit weight and returns its ranking. The incremental
    /// prefix cache is dropped: its groups no longer cover every world.
    /// `scratch` is the ranking kernel's caller-recycled buffer.
    pub(crate) fn push_world(&mut self, scores: &[f64], scratch: &mut Vec<(i64, u32)>) -> &[u32] {
        debug_assert_eq!(scores.len(), self.n, "score row must cover the table");
        let start = self.rankings.len();
        self.rankings.resize(start + self.n, 0);
        self.pos.resize(start + self.n, 0);
        rank_world(
            scores,
            scratch,
            &mut self.rankings[start..],
            &mut self.pos[start..],
        );
        self.weights.push(1.0);
        self.cache = None;
        &self.rankings[start..]
    }

    /// Builds from explicit rankings (each must be a permutation of
    /// `0..n`); used by tests and by deterministic replays.
    pub fn from_rankings(n: usize, rankings: Vec<Vec<u32>>) -> Self {
        let weights = vec![1.0; rankings.len()];
        debug_assert!(rankings.iter().all(|r| r.len() == n));
        let rankings: Vec<u32> = rankings.concat();
        let mut pos = vec![0u32; rankings.len()];
        for (r, p) in rankings.chunks(n).zip(pos.chunks_mut(n)) {
            for (rank, &t) in r.iter().enumerate() {
                p[t as usize] = rank as u32;
            }
        }
        Self {
            n,
            rankings,
            pos,
            weights,
            cache: None,
        }
    }

    /// Number of tuples in the underlying relation.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sampled worlds (including zero-weight ones).
    pub fn num_worlds(&self) -> usize {
        self.weights.len()
    }

    /// Number of worlds with positive weight.
    pub fn effective_worlds(&self) -> usize {
        self.weights.iter().filter(|&&w| w > 0.0).count()
    }

    /// Total surviving weight. Noisy updates renormalize this back to
    /// [`WorldModel::num_worlds`], so it stays bounded on long sessions.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// World `w`'s full ranking (tuple ids, best first).
    pub fn ranking(&self, w: usize) -> &[u32] {
        &self.rankings[w * self.n..(w + 1) * self.n]
    }

    /// Every world's full ranking, world-major (`ranking(w)` is
    /// `[w·n..(w + 1)·n]`).
    pub(crate) fn flat_rankings(&self) -> &[u32] {
        &self.rankings
    }

    /// World `w`'s current weight.
    pub fn weight(&self, w: usize) -> f64 {
        self.weights[w]
    }

    /// True if world `w` ranks `i` above `j` — O(1) via the position
    /// index.
    #[inline]
    fn world_prefers(&self, w: usize, i: u32, j: u32) -> bool {
        self.pos[w * self.n + i as usize] < self.pos[w * self.n + j as usize]
    }

    /// Weighted probability that `i` ranks above `j` under the current
    /// belief.
    pub fn pr_precedes(&self, i: u32, j: u32) -> f64 {
        let total = self.total_weight();
        if total <= 0.0 {
            return 0.5;
        }
        let mass: f64 = (0..self.num_worlds())
            .filter(|&w| self.weights[w] > 0.0 && self.world_prefers(w, i, j))
            .map(|w| self.weights[w])
            .sum();
        mass / total
    }

    /// Filters out worlds contradicting a reliable answer to
    /// “does `i` rank above `j`?”. On contradiction (no world would
    /// survive) the belief is left untouched.
    pub fn apply_answer_hard(&mut self, i: u32, j: u32, yes: bool) -> Result<()> {
        let any_survivor = (0..self.num_worlds())
            .any(|w| self.weights[w] > 0.0 && self.world_prefers(w, i, j) == yes);
        if !any_survivor {
            return Err(TpoError::ContradictoryAnswer);
        }
        for w in 0..self.num_worlds() {
            if self.weights[w] > 0.0 && self.world_prefers(w, i, j) != yes {
                self.weights[w] = 0.0;
            }
        }
        Ok(())
    }

    /// Reweights worlds by the likelihood of a noisy answer (worker
    /// accuracy `eta`, clamped to `[0.5, 1]`), then renormalizes the total
    /// weight back to [`WorldModel::num_worlds`] so long noisy sessions
    /// cannot underflow the belief to zero. At `eta = 1` the update
    /// degenerates to [`WorldModel::apply_answer_hard`], which detects
    /// contradictions; for `eta < 1` every world keeps positive likelihood
    /// under either answer, so no contradiction is possible and the update
    /// always succeeds.
    pub fn apply_answer_noisy(&mut self, i: u32, j: u32, yes: bool, eta: f64) -> Result<()> {
        let eta = eta.clamp(0.5, 1.0);
        let disagree_factor = 1.0 - eta;
        // ctk-allow(float-eq): exact-sentinel — eta is clamped, and 1.0 - eta is literally 0.0 only at eta = 1.0
        if disagree_factor == 0.0 {
            return self.apply_answer_hard(i, j, yes);
        }
        for w in 0..self.num_worlds() {
            if self.weights[w] <= 0.0 {
                continue;
            }
            let agrees = self.world_prefers(w, i, j) == yes;
            self.weights[w] *= if agrees { eta } else { disagree_factor };
        }
        // Without this, weights decay geometrically (×eta or ×(1-eta) per
        // answer) and a long session underflows every weight to 0,
        // collapsing `pr_precedes` to 0.5 and `path_set` to EmptyPathSet.
        // Renormalization is a pure rescale: all probability ratios are
        // preserved.
        let total = self.total_weight();
        if total > 0.0 {
            #[cfg(feature = "debug-invariants")]
            let m = self.num_worlds() as f64;
            let scale = self.num_worlds() as f64 / total;
            for w in &mut self.weights {
                *w *= scale;
            }
            #[cfg(feature = "debug-invariants")]
            {
                let renormalized = self.total_weight();
                assert!(
                    (renormalized - m).abs() <= 1e-6 * m,
                    "world weights renormalized to {renormalized}, expected {m}"
                );
            }
        }
        Ok(())
    }

    /// Groups surviving worlds by their depth-`k` prefix into a normalized
    /// [`PathSet`] with a fresh hash-map grouping per call. Test-only: the
    /// reference that [`WorldModel::path_set_cached`] and the Monte-Carlo
    /// builders' prefix counts are pinned against, bit for bit.
    #[cfg(test)]
    pub(crate) fn path_set(&self, k: usize) -> Result<PathSet> {
        if k == 0 || k > self.n {
            return Err(TpoError::InvalidK { k, n: self.n });
        }
        // ctk-allow(det-hash-collection): each group's float sum accumulates in ascending world order regardless of bucket order; draining goes through from_weighted's sort
        let mut groups: HashMap<&[u32], f64> = HashMap::new();
        for (w, r) in self.rankings.chunks(self.n).enumerate() {
            if self.weights[w] <= 0.0 {
                continue;
            }
            *groups.entry(&r[..k]).or_insert(0.0) += self.weights[w];
        }
        PathSet::from_weighted(
            k,
            groups
                .into_iter()
                .map(|(prefix, w)| (prefix.to_vec(), w))
                .collect(),
        )
    }

    /// Groups surviving worlds by their depth-`k` prefix into a normalized
    /// [`PathSet`] — the (partial) TPO under the current belief — reusing
    /// the prefix groups of the previous call. Calls at the same depth only
    /// re-sum the group weights (O(M) additions, no hashing, no map); a
    /// deeper call splits the surviving groups in place; a shallower call
    /// rebuilds from scratch. Output is bit-identical to a fresh hash-map
    /// grouping (the test-only `path_set`): members stay in ascending world
    /// order, so every per-prefix weight is accumulated in exactly the same
    /// float-addition order.
    pub fn path_set_cached(&mut self, k: usize) -> Result<PathSet> {
        if k == 0 || k > self.n {
            return Err(TpoError::InvalidK { k, n: self.n });
        }
        let rebuild = match &self.cache {
            Some(c) => c.depth > k,
            None => true,
        };
        let mut cache = if rebuild {
            PrefixCache {
                depth: 0,
                groups: vec![(0..self.num_worlds() as u32).collect()],
            }
        } else {
            // ctk-allow(panic-unwrap): the surrounding branch runs only when the cache is Some
            self.cache.take().expect("cache checked above")
        };
        while cache.depth < k {
            let d = cache.depth;
            let mut next: Vec<Vec<u32>> = Vec::with_capacity(cache.groups.len());
            // Scratch for partitioning one group by its worlds' rank-d
            // tuple; first-seen order keeps the construction deterministic
            // (group order itself is immaterial — the path set sorts).
            let mut subs: Vec<(u32, Vec<u32>)> = Vec::new();
            for group in &mut cache.groups {
                if group.len() == 1 {
                    next.push(std::mem::take(group));
                    continue;
                }
                subs.clear();
                for &w in group.iter() {
                    let key = self.rankings[w as usize * self.n + d];
                    match subs.iter_mut().find(|(t, _)| *t == key) {
                        Some((_, members)) => members.push(w),
                        None => subs.push((key, vec![w])),
                    }
                }
                next.extend(subs.drain(..).map(|(_, members)| members));
            }
            cache.groups = next;
            cache.depth = d + 1;
        }
        let weighted: Vec<(Vec<u32>, f64)> = cache
            .groups
            .iter()
            .filter_map(|group| {
                // Ascending-world summation; zero-weight members add an
                // exact +0.0 and cannot perturb the value.
                let w: f64 = group.iter().map(|&x| self.weights[x as usize]).sum();
                (w > 0.0).then(|| (self.ranking(group[0] as usize)[..k].to_vec(), w))
            })
            .collect();
        self.cache = Some(cache);
        PathSet::from_weighted(k, weighted)
    }

    /// The single surviving full ordering, if the belief is resolved to one
    /// ranking prefix pattern (used by tests).
    pub fn surviving_rankings(&self) -> Vec<&[u32]> {
        (0..self.num_worlds())
            .filter(|&w| self.weights[w] > 0.0)
            .map(|w| self.ranking(w))
            .collect()
    }
}

/// Ranks one chunk of flat sampled scores (`n` per world) into the
/// matching chunks of the flat rankings and the position index.
fn rank_chunk(scores: &[f64], rankings: &mut [u32], pos: &mut [u32], n: usize) {
    let mut scratch = Vec::with_capacity(n);
    for ((s, r), p) in scores
        .chunks(n)
        .zip(rankings.chunks_mut(n))
        .zip(pos.chunks_mut(n))
    {
        rank_world(s, &mut scratch, r, p);
    }
}

/// Ranks one world's scores into `ranking` and its position index `pos`.
fn rank_world(scores: &[f64], scratch: &mut Vec<(i64, u32)>, ranking: &mut [u32], pos: &mut [u32]) {
    ranking_into(scores, scratch, ranking);
    for (rank, &t) in ranking.iter().enumerate() {
        pos[t as usize] = rank as u32;
    }
}

fn auto_threads(m: usize) -> usize {
    planned_threads(m, PARALLEL_WORLDS_MIN, available_cores())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{fixed_mc_with_threads, Engine, McConfig};
    use ctk_prob::ScoreDist;

    fn model() -> WorldModel {
        WorldModel::from_rankings(
            3,
            vec![vec![0, 1, 2], vec![0, 1, 2], vec![1, 0, 2], vec![2, 1, 0]],
        )
    }

    fn table3() -> UncertainTable {
        UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.5, 1.5).unwrap(),
            ScoreDist::uniform(1.0, 2.0).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn path_set_groups_prefixes() {
        let ps = model().path_set(2).unwrap();
        assert_eq!(ps.len(), 3);
        let top = ps.most_probable();
        assert_eq!(top.items, vec![0, 1]);
        assert!((top.prob - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(matches!(
            model().path_set(0),
            Err(TpoError::InvalidK { .. })
        ));
        assert!(model().path_set(4).is_err());
        assert!(model().path_set(3).is_ok());
        let mut m = model();
        assert!(matches!(
            m.path_set_cached(0),
            Err(TpoError::InvalidK { .. })
        ));
        assert!(m.path_set_cached(4).is_err());
    }

    #[test]
    fn zero_worlds_is_an_error() {
        assert!(matches!(
            WorldModel::sample(&table3(), 0, 1),
            Err(TpoError::InvalidWorlds)
        ));
    }

    #[test]
    fn hard_answers_filter_worlds() {
        let mut m = model();
        m.apply_answer_hard(0, 1, true).unwrap();
        assert_eq!(m.effective_worlds(), 2);
        let ps = m.path_set(2).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.paths()[0].items, vec![0, 1]);
        // A second consistent answer changes nothing.
        m.apply_answer_hard(1, 2, true).unwrap();
        assert_eq!(m.effective_worlds(), 2);
    }

    #[test]
    fn contradiction_detected() {
        let mut m = WorldModel::from_rankings(2, vec![vec![0, 1]]);
        assert!(matches!(
            m.apply_answer_hard(1, 0, true),
            Err(TpoError::ContradictoryAnswer)
        ));
    }

    #[test]
    fn noisy_answers_reweight() {
        let mut m = model();
        m.apply_answer_noisy(0, 1, true, 0.8).unwrap();
        // Worlds preferring 0 above 1 carry 0.8 likelihood; others 0.2.
        assert_eq!(m.effective_worlds(), 4, "noisy updates never eliminate");
        let p = m.pr_precedes(0, 1);
        // (0.8+0.8) / (0.8+0.8+0.2+0.2) = 1.6/2.0
        assert!((p - 0.8).abs() < 1e-12);
        // ... and the total weight is renormalized to M.
        assert!((m.total_weight() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn long_noisy_session_does_not_underflow() {
        // Regression: without renormalization, weights decay by ×0.55 (or
        // ×0.45) per answer, underflowing to 0 after ~1400 answers and
        // collapsing pr_precedes to 0.5 and path_set to EmptyPathSet.
        let mut m = model();
        for round in 0..2000u32 {
            // Deliberately conflicting evidence, the worst case for decay.
            m.apply_answer_noisy(0, 1, round % 2 == 0, 0.55).unwrap();
        }
        let total = m.total_weight();
        assert!(
            (total - m.num_worlds() as f64).abs() < 1e-6,
            "total weight must stay bounded at M, got {total}"
        );
        assert_eq!(m.effective_worlds(), 4, "no world may underflow to 0");
        let p = m.pr_precedes(0, 1);
        assert!(p.is_finite() && p > 0.0 && p < 1.0, "pr collapsed: {p}");
        assert!((m.pr_precedes(0, 1) + m.pr_precedes(1, 0) - 1.0).abs() < 1e-9);
        let ps = m.path_set(2).expect("belief must stay representable");
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn pr_precedes_counts_weighted_fraction() {
        let m = model();
        assert!((m.pr_precedes(0, 1) - 0.5).abs() < 1e-12);
        assert!((m.pr_precedes(1, 2) - 0.75).abs() < 1e-12);
        assert!((m.pr_precedes(2, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let table = table3();
        let a = WorldModel::sample(&table, 500, 42).unwrap();
        let b = WorldModel::sample(&table, 500, 42).unwrap();
        assert_eq!(a.num_worlds(), 500);
        assert_eq!(a.surviving_rankings(), b.surviving_rankings());
        assert_eq!(a.n(), 3);
        assert!((a.total_weight() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_rank_phase_matches_sequential() {
        let table = table3();
        let seq = WorldModel::sample_with_threads(&table, 4097, 7, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = WorldModel::sample_with_threads(&table, 4097, 7, threads).unwrap();
            assert_eq!(
                seq.surviving_rankings(),
                par.surviving_rankings(),
                "threads = {threads}"
            );
            assert_eq!(seq.pos, par.pos, "threads = {threads}");
        }
    }

    #[test]
    fn position_index_matches_rankings() {
        let m = WorldModel::sample(&table3(), 200, 9).unwrap();
        for w in 0..m.num_worlds() {
            let r = m.ranking(w);
            for (rank, &t) in r.iter().enumerate() {
                assert_eq!(m.pos[w * m.n() + t as usize], rank as u32);
            }
            assert!((m.weight(w) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_path_set_matches_rebuild_through_a_session() {
        let mut m = WorldModel::sample(&table3(), 3000, 5).unwrap();
        // The incr pattern: repeated same-depth calls, interleaved
        // answers, then deeper calls, then a full-depth finish.
        for (depth, answer) in [(1, true), (1, false), (2, true), (2, false), (3, true)] {
            let cached = m.path_set_cached(depth).unwrap();
            let fresh = m.path_set(depth).unwrap();
            assert_eq!(cached, fresh, "depth {depth}");
            m.apply_answer_noisy(0, 1, answer, 0.8).unwrap();
            let cached = m.path_set_cached(depth).unwrap();
            let fresh = m.path_set(depth).unwrap();
            assert_eq!(cached, fresh, "post-answer depth {depth}");
        }
        // Shallower call forces a rebuild and must still agree.
        assert_eq!(m.path_set_cached(1).unwrap(), m.path_set(1).unwrap());
        assert_eq!(m.path_set_cached(3).unwrap(), m.path_set(3).unwrap());
    }

    #[test]
    fn cached_path_set_after_hard_filtering() {
        let mut m = model();
        assert_eq!(m.path_set_cached(2).unwrap(), m.path_set(2).unwrap());
        m.apply_answer_hard(0, 1, true).unwrap();
        let cached = m.path_set_cached(2).unwrap();
        assert_eq!(cached, m.path_set(2).unwrap());
        assert_eq!(cached.len(), 1);
        assert_eq!(m.path_set_cached(3).unwrap(), m.path_set(3).unwrap());
    }

    #[test]
    fn uniform_grouping_matches_path_set() {
        // The Monte-Carlo builders group unit-weight worlds by exact
        // integer prefix counts; that must equal the weighted grouping of
        // the same worlds, for the fixed build at any thread count and for
        // the adaptive build's running counts.
        let table = table3();
        let reference = WorldModel::sample(&table, 4099, 11)
            .unwrap()
            .path_set(2)
            .unwrap();
        for threads in [1, 2, 5] {
            assert_eq!(
                fixed_mc_with_threads(&table, 2, 4099, 11, threads).unwrap(),
                reference,
                "threads = {threads}"
            );
        }
        let (adaptive, report) = Engine::MonteCarlo(McConfig::adaptive(0.05, 0.05, 11))
            .build_with_report(&table, 2, None)
            .unwrap();
        let drawn = WorldModel::sample(&table, report.worlds_drawn, 11).unwrap();
        assert_eq!(adaptive, drawn.path_set(2).unwrap());
    }

    #[test]
    fn appended_batches_replay_one_shot_sampling_bit_for_bit() {
        // The adaptive builder's contract: batch-growing with one RNG is
        // the same draw stream as sampling everything at once.
        let table = table3();
        let one_shot = WorldModel::sample_with_threads(&table, 700, 13, 1).unwrap();
        let mut grown = WorldModel::empty(table.len());
        let mut rng = StdRng::seed_from_u64(13);
        for batch in [1usize, 99, 300, 0, 300] {
            grown.append_sampled(&table, batch, &mut rng).unwrap();
        }
        assert_eq!(grown.num_worlds(), 700);
        assert_eq!(one_shot.surviving_rankings(), grown.surviving_rankings());
        assert_eq!(one_shot.pos, grown.pos);
        assert!((grown.total_weight() - 700.0).abs() < 1e-12);
        let a = one_shot.path_set(2).unwrap();
        let b = grown.path_set(2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn append_invalidates_the_prefix_cache() {
        let table = table3();
        let mut m = WorldModel::sample(&table, 400, 3).unwrap();
        let before = m.path_set_cached(2).unwrap();
        assert_eq!(before, m.path_set(2).unwrap());
        let mut rng = StdRng::seed_from_u64(77);
        m.append_sampled(&table, 250, &mut rng).unwrap();
        // The cached grouping must cover the appended worlds too.
        let after = m.path_set_cached(2).unwrap();
        assert_eq!(after, m.path_set(2).unwrap());
        assert_eq!(m.num_worlds(), 650);
    }

    #[test]
    fn deeper_paths_after_filtering() {
        // The incr pattern: filter first, then materialize deeper.
        let mut m = model();
        m.apply_answer_hard(0, 1, true).unwrap();
        let deep = m.path_set(3).unwrap();
        assert_eq!(deep.len(), 1);
        assert_eq!(deep.paths()[0].items, vec![0, 1, 2]);
    }
}
