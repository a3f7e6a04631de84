//! Possible-world sampling.
//!
//! A *possible world* instantiates every tuple's uncertain score to a
//! concrete value; sorting those values yields one total ordering of the
//! relation. The Monte-Carlo TPO engine, the ground-truth generator and the
//! `incr` algorithm's belief state are all built on these samples.
//!
//! ## Hot-path machinery
//!
//! Two pieces exist purely for the Monte-Carlo builders (DESIGN.md §10):
//!
//! * [`WorldSampler`] — a per-table compilation of every tuple's sampler,
//!   built once and reused across all `M` worlds. The common families
//!   flatten to a fused inverse-CDF transform (`Point` consumes no
//!   randomness, `Uniform` is one affine draw); the table-driven families
//!   (`Piecewise`/`Discrete`) reuse the cumulative tables
//!   precomputed inside the distribution. Draw-for-draw it consumes the
//!   PRNG exactly like [`ScoreDist::sample`], so the streams are
//!   bit-identical (pinned by tests) and [`WorldSampler::sample_into`]
//!   fills a caller-recycled buffer instead of allocating per world. It
//!   also knows each tuple's *reach*, a proven range its draws fall in,
//!   and from the reaches the *candidates* of a depth `k`
//!   ([`WorldSampler::candidates`]): the tuples that can reach the top
//!   `k` of some world.
//! * One ranking kernel per need. [`top_k_prefix_into`] (tree builds) is
//!   the depth-`k` prefix of a world's ranking by insertion into a
//!   running top-`k`, O(|C|) plus a short shift per entry that enters the
//!   top `k`; [`candidate_ranks_into`] (`incr` samples) is every
//!   candidate's rank among the candidates, by a keyed sort of them; and
//!   [`ranking_into`] is the full ranking by a keyed sort into a caller
//!   slice (ground truths and the invariant checks). The first two take
//!   the candidate list `C` (ascending ids; callers that want every tuple
//!   pass every id). All order `(key, id)` entries, where the key is a
//!   score's `total_cmp` order as an integer (computed once per score)
//!   and ties go to the smaller id. The top `k` of a world lies among its
//!   depth-`k` candidates, so the prefix is bit-identical to
//!   `ranking_from_scores(..)[..k]` (pinned against a test-only
//!   comparator sort).

use crate::dist::ScoreDist;
use crate::table::UncertainTable;
use rand::Rng;

/// Samples one concrete score per tuple (a possible world), in id order.
pub fn sample_scores<R: Rng + ?Sized>(table: &UncertainTable, rng: &mut R) -> Vec<f64> {
    table.iter().map(|t| t.dist.sample(rng)).collect()
}

/// Total-order key of a score: integer order of keys is exactly
/// `f64::total_cmp` order of the scores (`-0.0` ranks below `+0.0`), with
/// the bit twiddling done once per score instead of once per comparison.
#[inline]
fn score_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// One ranking entry as a sort key. Ascending `(!score_key, id)` order is
/// descending score with ties by ascending tuple id: the fixed
/// tie-breaking rule the paper assumes, as a plain integer-pair order.
#[inline]
fn entry(id: u32, score: f64) -> (i64, u32) {
    (!score_key(score), id)
}

/// Above this depth [`top_k_prefix_into`] sorts every entry instead of
/// inserting into a running top-`k`: insertion costs O(n·k) at worst, and
/// a full keyed sort is O(n·log n).
const INSERTION_MAX_DEPTH: usize = 32;

/// Total ordering (tuple ids, highest score first) induced by concrete
/// `scores`; ties are broken deterministically by ascending tuple id, the
/// fixed tie-breaking rule the paper assumes.
pub fn ranking_from_scores(scores: &[f64]) -> Vec<u32> {
    let mut out = vec![0u32; scores.len()];
    ranking_into(scores, &mut Vec::new(), &mut out);
    out
}

/// Writes the full ranking induced by `scores` into `out` without
/// allocating: a keyed O(n·log n) sort of `(key, id)` entries, where the
/// key is computed once per score. `scratch` is caller-recycled.
///
/// # Panics
/// Panics if `out.len()` differs from `scores.len()`.
pub fn ranking_into(scores: &[f64], scratch: &mut Vec<(i64, u32)>, out: &mut [u32]) {
    assert_eq!(out.len(), scores.len(), "ranking/score length mismatch");
    sorted_entries(scores, 0..scores.len() as u32, scratch);
    for (o, &(_, id)) in out.iter_mut().zip(scratch.iter()) {
        *o = id;
    }
}

/// Fills `scratch` with the entries of the tuples `ids`, in ranking
/// order.
fn sorted_entries(scores: &[f64], ids: impl Iterator<Item = u32>, scratch: &mut Vec<(i64, u32)>) {
    scratch.clear();
    scratch.extend(ids.map(|id| entry(id, scores[id as usize])));
    // Entries are distinct (ids are), so the unstable sort has exactly one
    // fixed point.
    scratch.sort_unstable();
}

/// Writes the rank of every candidate among `candidates` (ascending
/// tuple ids) into `ranks`: `ranks[s]` is the rank of `candidates[s]` in
/// the ranking induced by `scores` restricted to the candidates (0 =
/// best). The order is the full ranking's (score descending, ties by
/// ascending id), so with the candidates of a depth `k`
/// ([`WorldSampler::candidates`]) the candidates ranked below `k` are
/// `ranking_from_scores(scores)[..k]`, in order. One keyed sort of
/// `(key, slot)` entries, O(|C|·log |C|): slot order is id order, so the
/// tie-break is the full ranking's. `scratch` is caller-recycled.
///
/// # Panics
/// Panics if `ranks.len()` differs from `candidates.len()`, or a
/// candidate is not below `scores.len()`.
pub fn candidate_ranks_into(
    scores: &[f64],
    candidates: &[u32],
    scratch: &mut Vec<(i64, u32)>,
    ranks: &mut [u32],
) {
    assert_eq!(
        ranks.len(),
        candidates.len(),
        "rank/candidate length mismatch"
    );
    scratch.clear();
    scratch.extend(
        candidates
            .iter()
            .enumerate()
            .map(|(s, &t)| entry(s as u32, scores[t as usize])),
    );
    scratch.sort_unstable();
    for (r, &(_, s)) in scratch.iter().enumerate() {
        ranks[s as usize] = r as u32;
    }
}

/// Writes the depth-`out.len()` prefix of the ranking induced by `scores`
/// over `candidates` (ascending tuple ids) into `out`: one pass over the
/// candidates in ascending id order, inserting into a running top-`k` of
/// `(key, id)` entries. A later id goes ahead of a kept entry only on a
/// strictly greater key, so among equal scores the smaller id stays
/// ahead. With the candidates of depth `k` ([`WorldSampler::candidates`])
/// or every id, the prefix equals `ranking_from_scores(scores)[..k]`
/// element for element, the bit-identity the Monte-Carlo builders rely
/// on. Cost O(|C|) plus one short shift per entry that enters the top
/// `k`; depths above `INSERTION_MAX_DEPTH` fall back to the keyed sort.
/// `scratch` is caller-recycled.
///
/// # Panics
/// Panics if `out.len()` is zero or exceeds `candidates.len()`, or a
/// candidate is not below `scores.len()`.
pub fn top_k_prefix_into(
    scores: &[f64],
    candidates: &[u32],
    scratch: &mut Vec<(i64, u32)>,
    out: &mut [u32],
) {
    let k = out.len();
    assert!(k >= 1 && k <= candidates.len(), "invalid prefix depth {k}");
    if k > INSERTION_MAX_DEPTH {
        sorted_entries(scores, candidates.iter().copied(), scratch);
    } else {
        scratch.clear();
        scratch.resize(k, (0, 0));
        let top = &mut scratch[..k];
        let mut len = 0;
        for &id in candidates {
            let e = entry(id, scores[id as usize]);
            let mut j = if len < k {
                len += 1;
                len - 1
            } else if e.0 < top[k - 1].0 {
                k - 1
            } else {
                continue;
            };
            while j > 0 && top[j - 1].0 > e.0 {
                top[j] = top[j - 1];
                j -= 1;
            }
            top[j] = e;
        }
    }
    for (o, &(_, id)) in out.iter_mut().zip(scratch.iter()) {
        *o = id;
    }
}

/// Test-only oracle of both ranking kernels: a comparator sort under
/// `f64::total_cmp`, score descending, ties by ascending id.
#[cfg(test)]
pub(crate) fn ranking_by_comparator(scores: &[f64]) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..scores.len() as u32).collect();
    ids.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    ids
}

/// One tuple's compiled sampler (see [`WorldSampler`]).
#[derive(Debug, Clone)]
enum TupleSampler {
    /// Certain score: consumes no randomness (like [`ScoreDist::sample`]).
    Const(f64),
    /// Uniform: one standard draw through a fused affine transform —
    /// `lo + u·span` is operation-for-operation what the shim's
    /// `gen_range(lo..hi)` computes, with `span` hoisted out of the loop.
    Affine { lo: f64, span: f64 },
    /// Table-driven families: delegates to the distribution's own sampler,
    /// whose inverse-CDF tables (cumulative arrays) were precomputed at
    /// construction. Cloning into a dense vector keeps the per-world loop
    /// off the table's tuple metadata (labels, ids).
    Dist(ScoreDist),
}

impl TupleSampler {
    /// A proven range `[lo, hi]` (in `f64::total_cmp` order) that every
    /// draw of this sampler lies in:
    ///
    /// * `Const(v)` draws `v` itself: `[v, v]`.
    /// * `Affine { lo, span }` draws `lo + u·span` with `0 ≤ u < 1` and a
    ///   finite `span ≥ 0` (a uniform's `hi − lo`, which round-to-nearest
    ///   never makes `−0.0`). Rounding is monotone and `span` is
    ///   representable, so `0 ≤ fl(u·span) ≤ span`, and then
    ///   `lo ≤ fl(lo + fl(u·span)) ≤ fl(lo + span)`: the range is
    ///   `[lo, lo + span]` with the upper end computed exactly as a draw
    ///   is. No draw is `−0.0` below a `+0.0` lower end, since adding a
    ///   nonnegative value to `+0.0` gives `+0.0`.
    /// * A `Discrete` draw is the inverse CDF at `u`, which returns one of
    ///   its atoms, stored ascending: `[first atom, last atom]`.
    /// * Every other family (Gaussians, piecewise densities, mixtures)
    ///   has no proof here and reaches `(−∞, +∞)`. A Gaussian's
    ///   `support()` (μ ± 8σ) is *not* a bound on its draws: its
    ///   sampler's quantiles reach past 8.1σ.
    fn reach(&self) -> (f64, f64) {
        match self {
            TupleSampler::Const(v) => (*v, *v),
            TupleSampler::Affine { lo, span } => (*lo, lo + span),
            TupleSampler::Dist(ScoreDist::Discrete(d)) => d.support(),
            TupleSampler::Dist(_) => (f64::NEG_INFINITY, f64::INFINITY),
        }
    }
}

/// Per-table compiled samplers: built once, used for all `M` worlds.
///
/// Consumes the PRNG exactly like a [`sample_scores`] pass — same draws,
/// same arithmetic — so swapping it in cannot change a single sampled
/// world (pinned by `sampler_table_is_bit_identical_to_dist_sampling`).
#[derive(Debug, Clone)]
pub struct WorldSampler {
    samplers: Vec<TupleSampler>,
}

impl WorldSampler {
    /// Compiles the samplers of every tuple of `table`.
    pub fn new(table: &UncertainTable) -> Self {
        let samplers = table
            .dists()
            .map(|d| match d {
                ScoreDist::Point(v) => TupleSampler::Const(*v),
                ScoreDist::Uniform(u) => TupleSampler::Affine {
                    lo: u.lo(),
                    span: u.hi() - u.lo(),
                },
                other => TupleSampler::Dist(other.clone()),
            })
            .collect();
        Self { samplers }
    }

    /// Number of tuples the sampler covers.
    pub fn len(&self) -> usize {
        self.samplers.len()
    }

    /// Compiled samplers are never empty (tables are never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The candidates of depth `k`, ascending: every tuple that is not
    /// *dominated*, where `t` is dominated when at least `k` tuples `a`
    /// have `reach_lo(a) > reach_hi(t)`. Those `k` tuples outscore a
    /// dominated tuple strictly in every world, so it ranks below `k`
    /// whatever the tie-break, and every world's top `k` lies among the
    /// candidates. Touching reaches (`reach_lo(a) == reach_hi(t)`) do not
    /// dominate, and `k ≥ n` leaves every tuple a candidate (no tuple can
    /// be outscored by `n` others). At least `min(k, n)` tuples are
    /// candidates: the `k` highest lower ends each have fewer than `k`
    /// strictly higher ones. One selection over the `n` lower ends.
    pub fn candidates(&self, k: usize) -> Vec<u32> {
        let n = self.samplers.len();
        let every = 0..n as u32;
        if k >= n {
            return every.collect();
        }
        if k == 0 {
            return Vec::new();
        }
        let mut lows: Vec<f64> = self.samplers.iter().map(|s| s.reach().0).collect();
        // The k-th highest lower end: t is dominated exactly when it lies
        // above t's upper end (both in the total order the ranking uses).
        let (_, &mut kth, _) = lows.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        every
            .filter(|&t| kth.total_cmp(&self.samplers[t as usize].reach().1).is_le())
            .collect()
    }

    /// Samples one world into `out` (tuple-id order, no allocation).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the table size.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        assert_eq!(out.len(), self.samplers.len(), "buffer/table size mismatch");
        for (o, s) in out.iter_mut().zip(&self.samplers) {
            *o = match s {
                TupleSampler::Const(v) => *v,
                TupleSampler::Affine { lo, span } => {
                    let u: f64 = rng.gen();
                    lo + u * span
                }
                TupleSampler::Dist(d) => d.sample(rng),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ScoreDist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> UncertainTable {
        UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.4, 1.4).unwrap(),
            ScoreDist::point(2.0),
        ])
        .unwrap()
    }

    fn every_family_table() -> UncertainTable {
        UncertainTable::new(vec![
            ScoreDist::point(0.5),
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::gaussian(0.5, 0.1).unwrap(),
            ScoreDist::discrete(&[(0.2, 1.0), (0.8, 3.0)]).unwrap(),
            ScoreDist::piecewise(&[(0.0, 0.0), (0.3, 1.0), (0.6, 1.0), (1.0, 0.0)]).unwrap(),
            ScoreDist::triangular(0.0, 0.4, 1.0).unwrap(),
            ScoreDist::bimodal(
                0.4,
                ScoreDist::uniform(0.0, 0.3).unwrap(),
                0.6,
                ScoreDist::gaussian(0.7, 0.05).unwrap(),
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn scores_align_with_ids() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(0);
        let s = sample_scores(&t, &mut rng);
        assert_eq!(s.len(), 3);
        assert_eq!(s[2], 2.0, "point mass is deterministic");
    }

    #[test]
    fn ranking_sorts_descending() {
        let r = ranking_from_scores(&[0.3, 0.9, 0.1]);
        assert_eq!(r, vec![1, 0, 2]);
    }

    #[test]
    fn ties_break_by_id() {
        let r = ranking_from_scores(&[0.5, 0.5, 0.9, 0.5]);
        assert_eq!(r, vec![2, 0, 1, 3]);
    }

    #[test]
    fn partial_selection_prefix_matches_full_sort() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ids = Vec::new();
        for n in [1usize, 2, 3, 7, 50, 200] {
            // Quantized scores force plenty of exact ties.
            let scores: Vec<f64> = (0..n)
                .map(|_| (rng.gen::<f64>() * 8.0).floor() / 8.0)
                .collect();
            let full = ranking_from_scores(&scores);
            let every: Vec<u32> = (0..n as u32).collect();
            for k in [1, 2, n / 2, n.saturating_sub(1), n] {
                if k == 0 || k > n {
                    continue;
                }
                let mut prefix = vec![0u32; k];
                top_k_prefix_into(&scores, &every, &mut ids, &mut prefix);
                assert_eq!(prefix, full[..k], "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn kernels_order_signed_zeros_like_total_cmp() {
        // total_cmp puts -0.0 below +0.0; the integer key must agree.
        let scores = [-0.0, 0.0, -0.0, 0.0, -1.0, f64::MIN_POSITIVE];
        let oracle = ranking_by_comparator(&scores);
        assert_eq!(oracle, vec![5, 1, 3, 0, 2, 4]);
        assert_eq!(ranking_from_scores(&scores), oracle);
        let mut scratch = Vec::new();
        let every: Vec<u32> = (0..scores.len() as u32).collect();
        for k in 1..=scores.len() {
            let mut prefix = vec![0u32; k];
            top_k_prefix_into(&scores, &every, &mut scratch, &mut prefix);
            assert_eq!(prefix, oracle[..k], "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid prefix depth")]
    fn partial_selection_rejects_oversized_depth() {
        let mut ids = Vec::new();
        let mut out = vec![0u32; 3];
        top_k_prefix_into(&[1.0, 2.0], &[0, 1], &mut ids, &mut out);
    }

    /// Replays one fixed 64-bit word: `gen::<f64>()` then yields the
    /// standard draw `(word >> 11) · 2⁻⁵³`.
    struct FixedWord(u64);

    impl rand::RngCore for FixedWord {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for (d, b) in dest.iter_mut().zip(self.0.to_le_bytes().iter().cycle()) {
                *d = *b;
            }
        }
    }

    #[test]
    fn every_draw_lies_inside_its_reach() {
        // The standard draw's extremes, u = 0 and u = 1 − 2⁻⁵³, and seeded
        // draws; uniforms whose upper end rounds (spans that are not
        // powers of two, signed zeros at an end) included.
        let mut dists: Vec<ScoreDist> = every_family_table().dists().cloned().collect();
        dists.extend([
            ScoreDist::uniform(-0.3, 0.7).unwrap(),
            ScoreDist::uniform(0.1, 0.1 + 1e-9).unwrap(),
            ScoreDist::uniform(-1e300, 1e300).unwrap(),
            ScoreDist::uniform(-0.0, 3.3).unwrap(),
            ScoreDist::uniform(-2.2, 0.0).unwrap(),
            ScoreDist::uniform(123_456.7, 123_457.9).unwrap(),
            ScoreDist::point(-0.0),
            ScoreDist::discrete(&[(-0.0, 1.0), (0.0, 2.0), (4.5, 1.0)]).unwrap(),
        ]);
        let t = UncertainTable::new(dists).unwrap();
        let sampler = WorldSampler::new(&t);
        let inside = |row: &[f64], what: &str| {
            for (i, &x) in row.iter().enumerate() {
                let (lo, hi) = sampler.samplers[i].reach();
                assert!(
                    lo.total_cmp(&x).is_le() && x.total_cmp(&hi).is_le(),
                    "{what}: tuple {i} drew {x:e} outside [{lo:e}, {hi:e}]"
                );
            }
        };
        let mut row = vec![0.0; t.len()];
        for word in [0, u64::MAX, 1 << 11, u64::MAX << 11] {
            sampler.sample_into(&mut FixedWord(word), &mut row);
            inside(&row, &format!("word {word:#x}"));
        }
        let mut rng = StdRng::seed_from_u64(3);
        for world in 0..2000 {
            sampler.sample_into(&mut rng, &mut row);
            inside(&row, &format!("world {world}"));
        }
        assert_eq!(sampler.samplers[0].reach(), (0.5, 0.5));
        assert_eq!(sampler.samplers[1].reach(), (0.0, 1.0));
        assert_eq!(
            sampler.samplers[2].reach(),
            (f64::NEG_INFINITY, f64::INFINITY)
        );
        assert_eq!(
            sampler.samplers[3].reach(),
            (0.2, 0.8),
            "discrete: first and last atom"
        );
    }

    #[test]
    fn candidates_drop_exactly_the_dominated_tuples() {
        let t = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(), // touches t1 and t2 at 1.0
            ScoreDist::uniform(1.0, 2.0).unwrap(),
            ScoreDist::uniform(1.0, 3.0).unwrap(),
            ScoreDist::uniform(0.0, 0.9).unwrap(), // below both lower ends
            ScoreDist::gaussian(0.0, 0.01).unwrap(), // support far below, draws unbounded
            ScoreDist::point(5.0),
        ])
        .unwrap();
        let sampler = WorldSampler::new(&t);
        // k = 2: the two highest lower ends are 5.0 and 1.0; only t3's
        // upper end lies strictly below 1.0.
        assert_eq!(sampler.candidates(2), vec![0, 1, 2, 4, 5]);
        // k = 1: everything strictly below 5.0 is dominated, except the
        // Gaussian.
        assert_eq!(sampler.candidates(1), vec![4, 5]);
        // k = 3: t1, t2 and t5 still outscore t3 in every world.
        assert_eq!(sampler.candidates(3), vec![0, 1, 2, 4, 5]);
        assert_eq!(sampler.candidates(4), (0..6).collect::<Vec<u32>>());
        assert_eq!(sampler.candidates(6), (0..6).collect::<Vec<u32>>());
        assert_eq!(sampler.candidates(0), Vec::<u32>::new());
        // The candidates' top k is every world's top k.
        let mut rng = StdRng::seed_from_u64(8);
        let mut row = vec![0.0; t.len()];
        let mut scratch = Vec::new();
        for k in 1..=6 {
            let candidates = sampler.candidates(k);
            let mut prefix = vec![0u32; k];
            let mut ranks = vec![0u32; candidates.len()];
            let mut ranked = vec![0u32; candidates.len()];
            for _ in 0..200 {
                sampler.sample_into(&mut rng, &mut row);
                let full = ranking_from_scores(&row);
                top_k_prefix_into(&row, &candidates, &mut scratch, &mut prefix);
                assert_eq!(prefix, full[..k], "k = {k}");
                candidate_ranks_into(&row, &candidates, &mut scratch, &mut ranks);
                for (&r, &t) in ranks.iter().zip(&candidates) {
                    ranked[r as usize] = t;
                }
                let restricted: Vec<u32> = full
                    .into_iter()
                    .filter(|t| candidates.contains(t))
                    .collect();
                assert_eq!(ranked, restricted, "k = {k}");
            }
        }
    }

    #[test]
    fn sampler_table_is_bit_identical_to_dist_sampling() {
        // The compiled samplers must consume the PRNG exactly like
        // ScoreDist::sample — same draws, same arithmetic.
        let t = every_family_table();
        let sampler = WorldSampler::new(&t);
        assert_eq!(sampler.len(), t.len());
        assert!(!sampler.is_empty());
        let mut a = StdRng::seed_from_u64(1234);
        let mut b = StdRng::seed_from_u64(1234);
        let mut buf = vec![0.0; t.len()];
        for world in 0..500 {
            let reference = sample_scores(&t, &mut a);
            sampler.sample_into(&mut b, &mut buf);
            for (i, (x, y)) in reference.iter().zip(&buf).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "world {world}, tuple {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn dominant_tuple_always_first() {
        let t = table();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let r = ranking_from_scores(&sample_scores(&t, &mut rng));
            assert_eq!(r[0], 2, "point mass at 2.0 dominates");
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let t = table();
        let rankings = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| ranking_from_scores(&sample_scores(&t, &mut rng)))
                .collect::<Vec<_>>()
        };
        let a = rankings(9);
        let b = rankings(9);
        assert_eq!(a, b);
        let c = rankings(10);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn empirical_pair_frequency_matches_pr_greater() {
        let t = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 2.0).unwrap(),
            ScoreDist::uniform(1.0, 3.0).unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        const M: usize = 40_000;
        let wins = (0..M)
            .filter(|_| {
                let s = sample_scores(&t, &mut rng);
                s[0] > s[1]
            })
            .count();
        let freq = wins as f64 / M as f64;
        let p = crate::compare::pr_greater(t.dist_at(0), t.dist_at(1));
        assert!((freq - p).abs() < 0.01, "freq {freq} vs exact {p}");
    }
}
