//! Sampled possible-worlds belief state.
//!
//! A [`WorldModel`] holds `M` sampled possible worlds with weights: the
//! belief state of the `incr` algorithm, which alternates tree
//! construction with question rounds. Answers filter (or, for noisy
//! workers, reweight) whole worlds, so a deeper tree can be materialized
//! *after* pruning at a shallower depth — the core trick that makes
//! `incr` cheap on large, highly uncertain datasets (§III-D). The
//! tree-mode Monte-Carlo builders never build one: they keep only each
//! world's top-K prefix (`crate::build`), and the full model is their
//! test-only reference.
//!
//! ## Shared sample, private weights
//!
//! The worlds themselves never change once sampled: answers move only
//! the weights and the prefix grouping. So a model is split in two. The
//! [`WorldSample`] (every world's ranking prefix and candidate positions)
//! is an immutable value behind an [`Arc`], which any number of sessions
//! over the same table and sampler configuration share; each
//! [`WorldModel`] owns only its weights and its prefix grouping.
//!
//! ## Hot-path layout
//!
//! A session of depth `k` reads two things of a world: its top-`k`
//! prefix (path sets at depths up to `k`) and the relative order of the
//! tuples its questions name. Its questions name path tuples, and every
//! tuple that reaches a world's top `k` is a *candidate* of depth `k`
//! ([`ctk_prob::sample::WorldSampler::candidates`]): a tuple is dropped
//! only when `k` others have a proven lower end of their draws strictly
//! above its proven upper end, so it ranks below `k` in every world. So
//! a sample of depth `k` stores, per world:
//!
//! * its depth-`k` ranking prefix as tuple ids, in one flat `m × k`
//!   buffer (`prefixes[w·k + r]` is world `w`'s rank-`r` tuple);
//! * a *position index* over the candidates, `pos[w·|C| + s]` = the rank
//!   among the candidates of the tuple in candidate slot `s`, with a
//!   tuple → slot map beside it (one per sample, not per world).
//!
//! Each world is ranked over its candidates only, by the allocation-free
//! [`ctk_prob::sample::candidate_ranks_into`] (one keyed sort of the
//! candidates), which yields the positions directly and the prefix from
//! the ranks below `k`; every tuple's score is still drawn, so the PRNG
//! stream is the full sampler's. "Does world `w` rank
//! `i` above `j`?" is an O(1) lookup, so [`WorldModel::pr_precedes`] and
//! the `apply_answer_*` updates are O(M) in the number of worlds,
//! independent of the table size; on a tuple outside the candidates they
//! fail with [`TpoError::NotACandidate`], and [`WorldModel::path_set_cached`]
//! deeper than the sample's depth fails with [`TpoError::InvalidK`]. The
//! full sample ([`WorldSample::sample`]) is the same layout at depth
//! `k = n`, where every tuple is a candidate. Ids and ranks take one byte
//! each when the relation has at most 256 tuples and a `u32` otherwise;
//! the width follows from `n`, and every kernel is written once, generic
//! over it. The prefix grouping, [`WorldModel::path_set_cached`],
//! maintains the surviving prefix groups across the `incr` driver's
//! repeated calls instead of rebuilding a hash map per round (DESIGN.md
//! §8); a test-only hash-map grouping (`path_set`) is the reference it is
//! pinned against.

use crate::error::{Result, TpoError};
use crate::path::PathSet;
use crate::precision::PrecisionTarget;
#[cfg(feature = "debug-invariants")]
use ctk_prob::sample::ranking_into;
use ctk_prob::sample::{candidate_ranks_into, WorldSampler};
use ctk_prob::UncertainTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
#[cfg(test)]
// ctk-allow(det-hash-collection): the test-only grouping accumulates each group's sum in ascending world order, drained through PathSet::from_weighted's canonical sort
use std::collections::HashMap;
use std::sync::Arc;

/// Relations of at most this many tuples store ids and ranks in one byte.
const BYTE_IDS_MAX_N: usize = 1 << u8::BITS;

/// The slot-map entry of a tuple that is not a candidate.
const NOT_A_CANDIDATE: u32 = u32::MAX;

/// A tuple id or a rank as a world sample stores it: `u8` for relations
/// of at most [`BYTE_IDS_MAX_N`] tuples, `u32` otherwise. Widening keeps
/// order, so kernels compare stored values directly.
pub(crate) trait Id: Copy + Ord + Default + Into<u32> {
    /// `v`, which the caller guarantees fits the width.
    fn narrow(v: u32) -> Self;
}

impl Id for u8 {
    /// Ids and ranks are below `n`, and only `n ≤ 256` picks this width
    /// ([`WorldSample::empty`]), so the cast never truncates.
    #[inline]
    fn narrow(v: u32) -> Self {
        debug_assert!(v <= u32::from(u8::MAX), "{v} does not fit a byte id");
        v as u8
    }
}

impl Id for u32 {
    #[inline]
    fn narrow(v: u32) -> Self {
        v
    }
}

/// What every Monte-Carlo build draws from and ranks: a table's compiled
/// sampler and the candidates of one query depth `k` (ascending ids).
#[derive(Debug)]
pub(crate) struct DepthSampler {
    pub(crate) sampler: WorldSampler,
    pub(crate) k: usize,
    pub(crate) candidates: Vec<u32>,
}

impl DepthSampler {
    /// Compiles `table`'s sampler and its depth-`k` candidates. Fails
    /// with [`TpoError::InvalidK`] unless `1 ≤ k ≤ n`.
    pub(crate) fn new(table: &UncertainTable, k: usize) -> Result<Self> {
        let n = table.len();
        if k == 0 || k > n {
            return Err(TpoError::InvalidK { k, n });
        }
        let sampler = WorldSampler::new(table);
        let candidates = sampler.candidates(k);
        Ok(Self {
            sampler,
            k,
            candidates,
        })
    }
}

/// Every world's ranking prefix and candidate positions at one id width.
#[derive(Debug, Clone, PartialEq, Default)]
struct Ranked<T> {
    /// World `w`'s depth-`k` ranking prefix (tuple ids, best first) is
    /// `prefixes[w * k..(w + 1) * k]`.
    prefixes: Vec<T>,
    /// `pos[w * c + s]` is the rank, among the `c` candidates, of the
    /// tuple in candidate slot `s` in world `w` (0 = best).
    pos: Vec<T>,
}

impl<T: Id> Ranked<T> {
    /// Appends one world given its depth-`k` prefix (tuple ids, best
    /// first) and every candidate's rank, in slot order.
    fn push(&mut self, prefix: &[u32], ranks: &[u32]) {
        self.prefixes.extend(prefix.iter().map(|&t| T::narrow(t)));
        self.pos.extend(ranks.iter().map(|&r| T::narrow(r)));
    }

    /// For every world in order: does it rank the tuple in slot `si`
    /// above the tuple in slot `sj`? `c` is the candidate count.
    #[inline]
    fn prefers(&self, c: usize, si: usize, sj: usize) -> impl Iterator<Item = bool> + '_ {
        self.pos.chunks_exact(c).map(move |p| p[si] < p[sj])
    }

    /// World `w`'s depth-`depth` prefix as tuple ids, for a sample of
    /// depth `k`.
    fn prefix(&self, k: usize, w: usize, depth: usize) -> Vec<u32> {
        self.prefixes[w * k..][..depth]
            .iter()
            .map(|&t| t.into())
            .collect()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.prefixes.as_slice()) + std::mem::size_of_val(self.pos.as_slice())
    }
}

/// The sample's storage at the width its relation size picks.
#[derive(Debug, Clone, PartialEq)]
enum Ids {
    Byte(Ranked<u8>),
    Wide(Ranked<u32>),
}

/// Evaluates `$body` with `$r` bound to the sample's [`Ranked`] storage,
/// whatever its id width: one generic kernel, compiled once per width.
macro_rules! with_ranked {
    ($ids:expr, $r:ident => $body:expr) => {
        match $ids {
            Ids::Byte($r) => $body,
            Ids::Wide($r) => $body,
        }
    };
}

/// An immutable sample of possible worlds over a relation of `n` tuples,
/// kept to depth `k`: every world's depth-`k` ranking prefix and the
/// positions of the depth-`k` candidates (see the module docs), packed at
/// one byte per entry when `n ≤ 256` and four otherwise. Sessions share
/// it behind an [`Arc`]; weights live in each session's [`WorldModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorldSample {
    n: usize,
    k: usize,
    /// The candidates, ascending: slot `s` holds tuple `candidates[s]`.
    candidates: Vec<u32>,
    /// Tuple → candidate slot, [`NOT_A_CANDIDATE`] for the others.
    slot: Vec<u32>,
    ids: Ids,
}

impl WorldSample {
    /// An empty sample over `n` tuples kept to depth `k` (`1 ≤ k ≤ n`)
    /// with the given candidates (ascending, at least `k`), at the width
    /// `n` picks, for crate-internal growth world by world.
    pub(crate) fn empty(n: usize, k: usize, candidates: Vec<u32>) -> Self {
        debug_assert!(k >= 1 && k <= candidates.len() && candidates.len() <= n);
        let mut slot = vec![NOT_A_CANDIDATE; n];
        for (s, &t) in candidates.iter().enumerate() {
            slot[t as usize] = s as u32;
        }
        let ids = if n <= BYTE_IDS_MAX_N {
            Ids::Byte(Ranked::default())
        } else {
            Ids::Wide(Ranked::default())
        };
        Self {
            n,
            k,
            candidates,
            slot,
            ids,
        }
    }

    /// Samples `m` full worlds from the table's score distributions: depth
    /// `k = n`, where every tuple is a candidate, so each world's whole
    /// ranking is kept ([`WorldSample::sample_to_depth`] at `k = n`).
    ///
    /// Fails with [`TpoError::InvalidWorlds`] when `m` is not a valid fixed
    /// budget ([`PrecisionTarget::validate`]): an empty belief cannot
    /// represent anything, and invalid specs are errors, not silent
    /// repairs.
    pub fn sample(table: &UncertainTable, m: usize, seed: u64) -> Result<Self> {
        Self::sample_to_depth(table, table.len(), m, seed)
    }

    /// Samples `m` worlds kept to depth `k`: what a depth-`k` session
    /// reads of them (their top-`k` prefixes and the order of the depth-`k`
    /// candidates). Score draws are strictly sequential in the seeded
    /// PRNG — world-major, tuple-minor, every tuple drawn — and each world
    /// is ranked over its candidates as it is drawn.
    ///
    /// Fails with [`TpoError::InvalidWorlds`] for an invalid budget `m`
    /// and with [`TpoError::InvalidK`] unless `1 ≤ k ≤ n`.
    pub fn sample_to_depth(table: &UncertainTable, k: usize, m: usize, seed: u64) -> Result<Self> {
        PrecisionTarget::FixedWorlds(m).validate()?;
        let draws = DepthSampler::new(table, k)?;
        let c = draws.candidates.len();
        let mut sample = Self::empty(table.len(), k, draws.candidates.clone());
        with_ranked!(&mut sample.ids, r => {
            r.prefixes.reserve_exact(m * k);
            r.pos.reserve_exact(m * c);
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row = vec![0.0f64; table.len()];
        let mut ranks = vec![0u32; c];
        let mut prefix = vec![0u32; k];
        let mut scratch = Vec::with_capacity(c);
        for _ in 0..m {
            draws.sampler.sample_into(&mut rng, &mut row);
            sample.push_world(&row, &mut scratch, &mut ranks, &mut prefix);
        }
        Ok(sample)
    }

    /// Ranks one sampled world (`scores` in tuple-id order) over the
    /// candidates and appends it, writing its depth-`k` prefix into
    /// `prefix`. `scratch` and `ranks` (one entry per candidate) are
    /// caller-recycled.
    pub(crate) fn push_world(
        &mut self,
        scores: &[f64],
        scratch: &mut Vec<(i64, u32)>,
        ranks: &mut [u32],
        prefix: &mut [u32],
    ) {
        debug_assert_eq!(scores.len(), self.n, "score row must cover the table");
        candidate_ranks_into(scores, &self.candidates, scratch, ranks);
        for (&r, &t) in ranks.iter().zip(&self.candidates) {
            if let Some(p) = prefix.get_mut(r as usize) {
                *p = t;
            }
        }
        #[cfg(feature = "debug-invariants")]
        self.assert_matches_full_ranking(scores, ranks, prefix);
        with_ranked!(&mut self.ids, r => r.push(prefix, ranks));
    }

    /// The candidate-restriction invariant: a world's candidate order is
    /// the full ranking of every tuple with the dominated tuples left
    /// out, and its prefix is the full ranking's top `k`.
    #[cfg(feature = "debug-invariants")]
    fn assert_matches_full_ranking(&self, scores: &[f64], ranks: &[u32], prefix: &[u32]) {
        let mut full = vec![0u32; self.n];
        ranking_into(scores, &mut Vec::new(), &mut full);
        assert_eq!(
            prefix,
            &full[..self.k],
            "a world's candidate prefix differs from its full ranking's"
        );
        let mut order = vec![0u32; ranks.len()];
        for (&r, &t) in ranks.iter().zip(&self.candidates) {
            order[r as usize] = t;
        }
        let kept: Vec<u32> = full
            .into_iter()
            .filter(|&t| self.slot[t as usize] != NOT_A_CANDIDATE)
            .collect();
        assert_eq!(
            order, kept,
            "a world's candidate order differs from its full ranking's"
        );
    }

    /// Ends growth: releases the spare capacity growth left behind and
    /// shares the sample, which never changes again.
    pub(crate) fn freeze(mut self) -> Arc<Self> {
        with_ranked!(&mut self.ids, r => {
            r.prefixes.shrink_to_fit();
            r.pos.shrink_to_fit();
        });
        Arc::new(self)
    }

    /// Number of tuples in the underlying relation.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The depth the worlds are kept to: path sets up to this depth can
    /// be grouped from them.
    #[cfg(test)]
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The tuples whose order the sample keeps (ascending ids): every
    /// tuple that can reach the top `k` of a world.
    #[cfg(test)]
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.candidates
    }

    /// Number of sampled worlds.
    pub fn len(&self) -> usize {
        with_ranked!(&self.ids, r => r.prefixes.len() / self.k)
    }

    /// True for a sample without worlds (only while growing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held by the prefixes, the position index, the candidate
    /// list and the slot map.
    pub fn bytes(&self) -> usize {
        with_ranked!(&self.ids, r => r.bytes())
            + std::mem::size_of_val(self.candidates.as_slice())
            + std::mem::size_of_val(self.slot.as_slice())
    }

    /// Tuple `t`'s candidate slot; [`TpoError::NotACandidate`] for a
    /// tuple the sample does not rank.
    fn slot_of(&self, t: u32) -> Result<usize> {
        match self.slot.get(t as usize) {
            Some(&s) if s != NOT_A_CANDIDATE => Ok(s as usize),
            _ => Err(TpoError::NotACandidate { tuple: t }),
        }
    }

    /// Every distinct depth-`k` prefix of the worlds with its world count,
    /// in items order (see `crate::build`'s packed-key sort).
    pub(crate) fn prefix_counts(&self) -> Vec<(Vec<u32>, f64)> {
        with_ranked!(&self.ids, r => crate::build::sorted_prefix_counts(&r.prefixes, self.k, self.k, self.n))
    }

    /// World `w`'s depth-`k` prefix (tuple ids, best first): its whole
    /// ranking in a full sample.
    #[cfg(test)]
    pub(crate) fn prefix(&self, w: usize) -> Vec<u32> {
        with_ranked!(&self.ids, r => r.prefix(self.k, w, self.k))
    }

    /// Appends `additional` freshly sampled worlds, continuing `rng`'s
    /// draw stream. Score draws stay strictly sequential in the PRNG
    /// (world-major, tuple-minor, exactly as [`WorldSample::sample`]
    /// consumes them), so growing a sample batch by batch with one RNG is
    /// bit-identical to sampling all the worlds in one shot from the same
    /// seed — the property the adaptive builder relies on.
    #[cfg(test)]
    pub(crate) fn append_sampled(
        &mut self,
        table: &UncertainTable,
        additional: usize,
        rng: &mut StdRng,
    ) {
        let sampler = WorldSampler::new(table);
        let mut row = vec![0.0f64; self.n];
        let mut ranks = vec![0u32; self.candidates.len()];
        let mut prefix = vec![0u32; self.k];
        let mut scratch = Vec::new();
        for _ in 0..additional {
            sampler.sample_into(rng, &mut row);
            self.push_world(&row, &mut scratch, &mut ranks, &mut prefix);
        }
    }

    /// An empty full sample over `n` tuples: depth `n`, every tuple a
    /// candidate.
    #[cfg(test)]
    pub(crate) fn empty_full(n: usize) -> Self {
        Self::empty(n, n, (0..n as u32).collect())
    }

    /// A full sample from explicit rankings (each must be a permutation
    /// of `0..n`), at the width `n` picks.
    #[cfg(test)]
    pub(crate) fn from_rankings(n: usize, rankings: &[Vec<u32>]) -> Self {
        let mut sample = Self::empty_full(n);
        let mut ranks = vec![0u32; n];
        for r in rankings {
            debug_assert_eq!(r.len(), n);
            for (rank, &t) in r.iter().enumerate() {
                ranks[t as usize] = rank as u32;
            }
            with_ranked!(&mut sample.ids, s => s.push(r, &ranks));
        }
        sample
    }

    /// The same worlds stored at `u32` width whatever `n` is: the
    /// reference the byte-packed kernels are pinned against.
    #[cfg(test)]
    pub(crate) fn widened(&self) -> Self {
        let widen = |v: &[u8]| v.iter().map(|&x| u32::from(x)).collect();
        let ids = match &self.ids {
            Ids::Byte(r) => Ids::Wide(Ranked {
                prefixes: widen(&r.prefixes),
                pos: widen(&r.pos),
            }),
            Ids::Wide(r) => Ids::Wide(r.clone()),
        };
        Self {
            ids,
            ..self.clone()
        }
    }
}

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

impl PrefixCache {
    /// Splits every group by its members' rank-`depth` tuple until the
    /// groups represent depth-`k` prefixes; `stride` is the sample's
    /// depth.
    fn refine<T: Id>(&mut self, r: &Ranked<T>, stride: usize, k: usize) {
        while self.depth < k {
            let d = self.depth;
            let mut next: Vec<Vec<u32>> = Vec::with_capacity(self.groups.len());
            // Scratch for partitioning one group by its worlds' rank-d
            // tuple; first-seen order keeps the construction deterministic
            // (group order itself is immaterial — the path set sorts).
            let mut subs: Vec<(T, Vec<u32>)> = Vec::new();
            for group in &mut self.groups {
                if group.len() == 1 {
                    next.push(std::mem::take(group));
                    continue;
                }
                subs.clear();
                for &w in group.iter() {
                    let key = r.prefixes[w as usize * stride + d];
                    match subs.iter_mut().find(|(t, _)| *t == key) {
                        Some((_, members)) => members.push(w),
                        None => subs.push((key, vec![w])),
                    }
                }
                next.extend(subs.drain(..).map(|(_, members)| members));
            }
            self.groups = next;
            self.depth = d + 1;
        }
    }
}

/// A session's belief over a shared [`WorldSample`]: one nonnegative
/// weight per world and the incremental prefix grouping.
#[derive(Debug, Clone)]
pub struct WorldModel {
    sample: Arc<WorldSample>,
    /// Nonnegative world weights (not necessarily normalized).
    weights: Vec<f64>,
    /// Incremental prefix grouping for `path_set_cached`.
    cache: Option<PrefixCache>,
}

impl WorldModel {
    /// A fresh belief over `sample`: every world with unit weight.
    pub fn new(sample: Arc<WorldSample>) -> Self {
        let weights = vec![1.0; sample.len()];
        Self {
            sample,
            weights,
            cache: None,
        }
    }

    /// A fresh belief over `m` newly sampled worlds
    /// ([`WorldSample::sample`]).
    pub fn sample(table: &UncertainTable, m: usize, seed: u64) -> Result<Self> {
        Ok(Self::new(Arc::new(WorldSample::sample(table, m, seed)?)))
    }

    /// The worlds this belief weighs.
    pub fn worlds(&self) -> &Arc<WorldSample> {
        &self.sample
    }

    /// Number of tuples in the underlying relation.
    pub fn n(&self) -> usize {
        self.sample.n
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

    /// World `w`'s current weight.
    pub fn weight(&self, w: usize) -> f64 {
        self.weights[w]
    }

    /// The candidate slots of a question's pair, and the candidate count.
    fn slots(&self, i: u32, j: u32) -> Result<(usize, usize, usize)> {
        let s = &self.sample;
        Ok((s.slot_of(i)?, s.slot_of(j)?, s.candidates.len()))
    }

    /// Weighted probability that `i` ranks above `j` under the current
    /// belief (0.5 when no weight survives). Fails with
    /// [`TpoError::NotACandidate`] when the sample does not rank `i` or
    /// `j` (a tuple that never reaches its depth's top `k`).
    pub fn pr_precedes(&self, i: u32, j: u32) -> Result<f64> {
        let (si, sj, c) = self.slots(i, j)?;
        let total = self.total_weight();
        if total <= 0.0 {
            return Ok(0.5);
        }
        let weights = &self.weights;
        let mass: f64 = with_ranked!(&self.sample.ids, r => r
            .prefers(c, si, sj)
            .zip(weights)
            .filter(|&(prefers, &w)| w > 0.0 && prefers)
            .map(|(_, &w)| w)
            .sum());
        Ok(mass / total)
    }

    /// Filters out worlds contradicting a reliable answer to
    /// “does `i` rank above `j`?”. On contradiction (no world would
    /// survive) the belief is left untouched; a pair the sample does not
    /// rank fails with [`TpoError::NotACandidate`], also untouched.
    pub fn apply_answer_hard(&mut self, i: u32, j: u32, yes: bool) -> Result<()> {
        let (si, sj, c) = self.slots(i, j)?;
        let weights = &mut self.weights;
        let any_survivor = with_ranked!(&self.sample.ids, r => r
            .prefers(c, si, sj)
            .zip(weights.iter())
            .any(|(prefers, &w)| w > 0.0 && prefers == yes));
        if !any_survivor {
            return Err(TpoError::ContradictoryAnswer);
        }
        with_ranked!(&self.sample.ids, r => {
            for (prefers, w) in r.prefers(c, si, sj).zip(weights.iter_mut()) {
                if *w > 0.0 && prefers != yes {
                    *w = 0.0;
                }
            }
        });
        Ok(())
    }

    /// Reweights worlds by the likelihood of a noisy answer (worker
    /// accuracy `eta`, clamped to `[0.5, 1]`), then renormalizes the total
    /// weight back to [`WorldModel::num_worlds`] so long noisy sessions
    /// cannot underflow the belief to zero. At `eta = 1` the update
    /// degenerates to [`WorldModel::apply_answer_hard`], which detects
    /// contradictions; for `eta < 1` every world keeps positive likelihood
    /// under either answer, so no contradiction is possible and the update
    /// succeeds on every pair the sample ranks ([`TpoError::NotACandidate`]
    /// otherwise, leaving the belief untouched).
    pub fn apply_answer_noisy(&mut self, i: u32, j: u32, yes: bool, eta: f64) -> Result<()> {
        let eta = eta.clamp(0.5, 1.0);
        let disagree_factor = 1.0 - eta;
        // ctk-allow(float-eq): exact-sentinel — eta is clamped, and 1.0 - eta is literally 0.0 only at eta = 1.0
        if disagree_factor == 0.0 {
            return self.apply_answer_hard(i, j, yes);
        }
        let (si, sj, c) = self.slots(i, j)?;
        let weights = &mut self.weights;
        with_ranked!(&self.sample.ids, r => {
            for (prefers, w) in r.prefers(c, si, sj).zip(weights.iter_mut()) {
                if *w > 0.0 {
                    *w *= if prefers == yes { eta } else { disagree_factor };
                }
            }
        });
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
        self.check_depth(k)?;
        // ctk-allow(det-hash-collection): each group's float sum accumulates in ascending world order regardless of bucket order; draining goes through from_weighted's sort
        let mut groups: HashMap<Vec<u32>, f64> = HashMap::new();
        for (w, &weight) in self.weights.iter().enumerate() {
            if weight > 0.0 {
                *groups
                    .entry(self.sample.prefix(w)[..k].to_vec())
                    .or_insert(0.0) += weight;
            }
        }
        PathSet::from_weighted(k, groups.into_iter().collect())
    }

    /// Groups surviving worlds by their depth-`k` prefix into a normalized
    /// [`PathSet`] — the (partial) TPO under the current belief — reusing
    /// the prefix groups of the previous call. Calls at the same depth only
    /// re-sum the group weights (O(M) additions, no hashing, no map); a
    /// deeper call splits the surviving groups in place; a shallower call
    /// rebuilds from scratch. Output is bit-identical to a fresh hash-map
    /// grouping (the test-only `path_set`): members stay in ascending world
    /// order, so every per-prefix weight is accumulated in exactly the same
    /// float-addition order. Fails with [`TpoError::InvalidK`] unless
    /// `k` is at least 1 and at most the depth the sample was kept to
    /// (`n` for [`WorldSample::sample`], `k` for
    /// [`WorldSample::sample_to_depth`]).
    pub fn path_set_cached(&mut self, k: usize) -> Result<PathSet> {
        self.check_depth(k)?;
        let stride = self.sample.k;
        let mut cache = match self.cache.take() {
            Some(c) if c.depth <= k => c,
            _ => PrefixCache {
                depth: 0,
                groups: vec![(0..self.num_worlds() as u32).collect()],
            },
        };
        with_ranked!(&self.sample.ids, r => cache.refine(r, stride, k));
        let weighted: Vec<(Vec<u32>, f64)> = cache
            .groups
            .iter()
            .filter_map(|group| {
                // Ascending-world summation; zero-weight members add an
                // exact +0.0 and cannot perturb the value.
                let w: f64 = group.iter().map(|&x| self.weights[x as usize]).sum();
                (w > 0.0).then(|| {
                    let first = group[0] as usize;
                    (
                        with_ranked!(&self.sample.ids, r => r.prefix(stride, first, k)),
                        w,
                    )
                })
            })
            .collect();
        self.cache = Some(cache);
        PathSet::from_weighted(k, weighted)
    }

    /// Path sets exist at depths `1..=` the sample's depth.
    fn check_depth(&self, k: usize) -> Result<()> {
        if k == 0 || k > self.sample.k {
            return Err(TpoError::InvalidK {
                k,
                n: self.sample.k,
            });
        }
        Ok(())
    }

    /// Every surviving world's depth-`k` prefix (its whole ranking in a
    /// full sample), in world order.
    #[cfg(test)]
    pub(crate) fn surviving_prefixes(&self) -> Vec<Vec<u32>> {
        (0..self.num_worlds())
            .filter(|&w| self.weights[w] > 0.0)
            .map(|w| self.sample.prefix(w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{fixed_mc, Engine, McConfig};
    use ctk_prob::ScoreDist;

    fn model() -> WorldModel {
        over(
            3,
            &[vec![0, 1, 2], vec![0, 1, 2], vec![1, 0, 2], vec![2, 1, 0]],
        )
    }

    fn over(n: usize, rankings: &[Vec<u32>]) -> WorldModel {
        WorldModel::new(Arc::new(WorldSample::from_rankings(n, rankings)))
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
        let mut m = over(2, &[vec![0, 1]]);
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
        let p = m.pr_precedes(0, 1).unwrap();
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
        let p = m.pr_precedes(0, 1).unwrap();
        assert!(p.is_finite() && p > 0.0 && p < 1.0, "pr collapsed: {p}");
        assert!((m.pr_precedes(0, 1).unwrap() + m.pr_precedes(1, 0).unwrap() - 1.0).abs() < 1e-9);
        let ps = m.path_set(2).expect("belief must stay representable");
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn pr_precedes_counts_weighted_fraction() {
        let m = model();
        assert!((m.pr_precedes(0, 1).unwrap() - 0.5).abs() < 1e-12);
        assert!((m.pr_precedes(1, 2).unwrap() - 0.75).abs() < 1e-12);
        assert!((m.pr_precedes(2, 0).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let table = table3();
        let a = WorldModel::sample(&table, 500, 42).unwrap();
        let b = WorldModel::sample(&table, 500, 42).unwrap();
        assert_eq!(a.num_worlds(), 500);
        assert_eq!(a.surviving_prefixes(), b.surviving_prefixes());
        assert_eq!(a.n(), 3);
        assert!((a.total_weight() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn position_index_matches_rankings() {
        let m = WorldModel::sample(&table3(), 200, 9).unwrap();
        let Ids::Byte(stored) = &m.worlds().ids else {
            panic!("a 3-tuple relation packs its ids in bytes");
        };
        for w in 0..m.num_worlds() {
            let r = m.worlds().prefix(w);
            for (rank, &t) in r.iter().enumerate() {
                assert_eq!(usize::from(stored.pos[w * m.n() + t as usize]), rank);
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
        // the same worlds, for the fixed build's sorted counts and for the
        // adaptive build's running counts.
        let table = table3();
        let reference = WorldModel::sample(&table, 4099, 11)
            .unwrap()
            .path_set(2)
            .unwrap();
        assert_eq!(fixed_mc(&table, 2, 4099, 11).unwrap(), reference);
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
        let one_shot = WorldSample::sample(&table, 700, 13).unwrap();
        let mut grown = WorldSample::empty_full(table.len());
        let mut rng = StdRng::seed_from_u64(13);
        for batch in [1usize, 99, 300, 0, 300] {
            grown.append_sampled(&table, batch, &mut rng);
        }
        assert_eq!(grown.len(), 700);
        assert_eq!(one_shot, grown);
        let grown = WorldModel::new(Arc::new(grown));
        assert!((grown.total_weight() - 700.0).abs() < 1e-12);
        let a = WorldModel::new(Arc::new(one_shot)).path_set(2).unwrap();
        let b = grown.path_set(2).unwrap();
        assert_eq!(a, b);
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

    fn bits(ps: &PathSet) -> Vec<(Vec<u32>, u64)> {
        ps.paths()
            .iter()
            .map(|p| (p.items.clone(), p.prob.to_bits()))
            .collect()
    }

    #[test]
    fn byte_and_wide_ids_agree_with_the_u32_reference() {
        // n = 256 is the widest relation stored in bytes and n = 257 the
        // narrowest stored in u32. Each runs a session of answers beside
        // the same worlds widened to u32; every probability and every
        // path set must agree bit for bit. The questions reach ids 255
        // (the largest byte) and n - 1.
        for (n, packed) in [(256usize, true), (257, false)] {
            let table = UncertainTable::new(
                (0..n)
                    .map(|i| ScoreDist::uniform_centered(i as f64 * 0.01, 0.3).unwrap())
                    .collect(),
            )
            .unwrap();
            let sample = WorldSample::sample(&table, 300, n as u64).unwrap();
            assert_eq!(matches!(sample.ids, Ids::Byte(_)), packed, "n = {n}");
            // A full sample: n prefix ids and n positions per world, plus
            // the candidate list and the slot map (n u32 each).
            let width = if packed { 1 } else { 4 };
            assert_eq!(sample.bytes(), 2 * 300 * n * width + 2 * 4 * n, "n = {n}");
            let mut model = WorldModel::new(Arc::new(sample.clone()));
            let mut reference = WorldModel::new(Arc::new(sample.widened()));
            let top = n as u32 - 1;
            let questions = [
                (top, top - 1),
                (top - 2, top),
                (0, top),
                (255, 254),
                (top - 3, top - 1),
            ];
            for (step, (i, j)) in questions.into_iter().enumerate() {
                assert_eq!(
                    model.pr_precedes(i, j).unwrap().to_bits(),
                    reference.pr_precedes(i, j).unwrap().to_bits(),
                    "n = {n}, step {step}"
                );
                for depth in [1, 2, 3] {
                    let (a, b) = (
                        model.path_set_cached(depth).unwrap(),
                        reference.path_set_cached(depth).unwrap(),
                    );
                    assert_eq!(bits(&a), bits(&b), "n = {n}, step {step}, depth {depth}");
                }
                let yes = step % 3 != 1;
                if step % 2 == 0 {
                    model.apply_answer_noisy(i, j, yes, 0.8).unwrap();
                    reference.apply_answer_noisy(i, j, yes, 0.8).unwrap();
                } else {
                    assert_eq!(
                        model.apply_answer_hard(i, j, yes).is_ok(),
                        reference.apply_answer_hard(i, j, yes).is_ok(),
                        "n = {n}, step {step}"
                    );
                }
            }
            assert!(
                model.effective_worlds() < 300,
                "n = {n}: the answers must filter"
            );
        }
    }
}
