//! TPO construction engines.
//!
//! Two ways to materialize the tree of possible orderings of a top-K query
//! (Ciceri et al., §II-B):
//!
//! * [`build_mc`] — Monte-Carlo: sample `M` possible worlds (full score
//!   realizations), rank each, and group the depth-`K` prefixes. Cost
//!   `O(M · N log N)`, error `O(1/√M)` per path.
//! * [`build_exact`] — exact: enumerate prefixes level by level, scoring
//!   each with the nested-quadrature integral of
//!   [`ctk_prob::nested::prefix_probability`] (after Li & Deshpande,
//!   PVLDB'10) and pruning zero-mass branches. Exact up to quadrature
//!   error, but enumeration can explode on highly overlapping tables —
//!   bounded by [`ExactConfig::max_paths`].
//!
//! Both return the flat [`PathSet`]; see `tests/engines_agree.rs` for the
//! cross-validation of the two engines.

use crate::error::{Result, TpoError};
use crate::path::PathSet;
use crate::precision::{
    eb_half_width, PrecisionReport, PrecisionTarget, StopReason, ADAPTIVE_INITIAL_BATCH,
    ADAPTIVE_MAX_WORLDS,
};
use crate::worlds::{WorldModel, PARALLEL_WORLDS_MIN};
use ctk_prob::compare::{available_cores, planned_threads, PairwiseMatrix};
use ctk_prob::nested::{prefix_probability_with, NestedScratch};
use ctk_prob::sample::{top_k_prefix_into, WorldSampler};
use ctk_prob::{ScoreDist, SupportGrid, TopKBounds, UncertainTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
// ctk-allow(det-hash-collection): all maps in this module hold exact integer counts merged commutatively and drained through PathSet::from_weighted's canonical sort
use std::collections::HashMap;

/// Configuration of the Monte-Carlo engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct McConfig {
    /// How precise the sampled posterior must be: a fixed world budget
    /// (the historical `worlds` knob, bit-identical compat mode) or an
    /// adaptive `(ε, δ)` target (see [`crate::precision`]).
    pub precision: PrecisionTarget,
    /// PRNG seed (sampling is fully deterministic given the seed).
    pub seed: u64,
}

impl McConfig {
    /// Fixed `worlds`-sample compat mode — the historical
    /// `McConfig { worlds, seed }` spelled through the precision layer.
    pub fn fixed(worlds: usize, seed: u64) -> Self {
        Self {
            precision: PrecisionTarget::FixedWorlds(worlds),
            seed,
        }
    }

    /// Adaptive mode: sample until the sequential bound clears
    /// `(epsilon, delta)` or the certain bounds decide the query.
    pub fn adaptive(epsilon: f64, delta: f64, seed: u64) -> Self {
        Self {
            precision: PrecisionTarget::Adaptive { epsilon, delta },
            seed,
        }
    }

    /// The default fixed budget ([`crate::precision::DEFAULT_WORLDS`])
    /// with an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Configuration of the exact nested-quadrature engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactConfig {
    /// Number of uniform quadrature cells over the union support.
    pub resolution: usize,
    /// Abort with [`TpoError::PathExplosion`] once more than this many
    /// prefixes are alive at any level.
    pub max_paths: usize,
    /// Prefixes with probability at or below this mass are pruned during
    /// enumeration (they cannot contribute visible leaves).
    pub prune_threshold: f64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        Self {
            resolution: 4096,
            max_paths: 250_000,
            prune_threshold: 1e-10,
        }
    }
}

/// Which construction engine a session should use.
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Monte-Carlo possible worlds.
    MonteCarlo(McConfig),
    /// Exact nested quadrature.
    Exact(ExactConfig),
}

impl Default for Engine {
    fn default() -> Self {
        Engine::MonteCarlo(McConfig::default())
    }
}

impl Engine {
    /// Human-readable engine name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::MonteCarlo(_) => "mc",
            Engine::Exact(_) => "exact",
        }
    }

    /// Builds the depth-`k` path set of `table` with this engine.
    pub fn build(&self, table: &UncertainTable, k: usize) -> Result<PathSet> {
        self.build_with_report(table, k).map(|(ps, _)| ps)
    }

    /// [`Engine::build`] plus the [`PrecisionReport`] of what the build
    /// actually did (worlds drawn, achieved bound, stop reason).
    pub fn build_with_report(
        &self,
        table: &UncertainTable,
        k: usize,
    ) -> Result<(PathSet, PrecisionReport)> {
        match self {
            Engine::MonteCarlo(cfg) => build_mc_with_report(table, k, cfg),
            Engine::Exact(cfg) => Ok((build_exact(table, k, cfg)?, PrecisionReport::exact())),
        }
    }
}

/// Monte-Carlo TPO construction: realize `cfg.precision` (a fixed world
/// budget or an adaptive `(ε, δ)` target) and group the sampled worlds'
/// depth-`k` prefixes into a normalized [`PathSet`].
///
/// `FixedWorlds(0)` is an invalid spec and fails with
/// [`TpoError::InvalidWorlds`] (it used to be silently clamped to 1,
/// masking configuration bugs); out-of-range adaptive targets fail with
/// [`TpoError::InvalidPrecision`].
///
/// The fixed mode is the fast path (DESIGN.md §10): scores come from a
/// per-table compiled [`WorldSampler`] (draw-for-draw identical to the
/// reference sampling), and each world is ranked with an O(n + k·log k)
/// partial selection instead of a full sort — the depth-`k` prefix is
/// bit-identical to the full sort's by the total-order argument, so the
/// result equals [`build_mc_reference`] exactly (pinned by tests). The
/// rank and group phases are chunked across threads above a work cutoff;
/// any thread count produces bit-identical output (score draws are
/// strictly sequential in the seeded PRNG, each world is ranked
/// independently, and per-prefix totals are exact integer counts).
pub fn build_mc(table: &UncertainTable, k: usize, cfg: &McConfig) -> Result<PathSet> {
    build_mc_with_report(table, k, cfg).map(|(ps, _)| ps)
}

/// [`build_mc`] plus the [`PrecisionReport`] of what the build did.
pub fn build_mc_with_report(
    table: &UncertainTable,
    k: usize,
    cfg: &McConfig,
) -> Result<(PathSet, PrecisionReport)> {
    build_mc_bounded(table, k, cfg, None)
}

/// [`build_mc_with_report`] reusing caller-cached certain/possible
/// bounds.
///
/// The driver and the service hold per-table [`TopKBounds`] next to
/// their shared pairwise matrices; passing them here lets an adaptive
/// build skip recomputing the O(n²) pairwise scan. Bounds for a
/// different `k` or table size are ignored (fresh ones are derived).
/// Fixed-budget builds never touch the bounds, keeping the compat mode
/// byte-for-byte on its historical pipeline.
pub fn build_mc_bounded(
    table: &UncertainTable,
    k: usize,
    cfg: &McConfig,
    bounds: Option<&TopKBounds>,
) -> Result<(PathSet, PrecisionReport)> {
    match cfg.precision {
        PrecisionTarget::FixedWorlds(m) => Ok((
            fixed_mc_with_threads(table, k, m, cfg.seed, 0)?,
            PrecisionReport::fixed(m),
        )),
        PrecisionTarget::Adaptive { epsilon, delta } => {
            let (sample, report) = sample_adaptive(table, k, epsilon, delta, cfg.seed, bounds)?;
            let ps = match sample {
                AdaptiveSample::Pinned(prefix) => PathSet::from_weighted(k, vec![(prefix, 1.0)])?,
                AdaptiveSample::Sampled(wm) => {
                    let threads =
                        planned_threads(wm.num_worlds(), PARALLEL_WORLDS_MIN, available_cores());
                    wm.path_set_uniform(k, threads)?
                }
            };
            Ok((ps, report))
        }
    }
}

/// Outcome of an adaptive sampling run: either the certain bounds pinned
/// the whole ordered prefix (zero worlds drawn), or a batch-grown
/// [`WorldModel`] whose posterior cleared (or capped out on) the target.
#[derive(Debug, Clone)]
pub enum AdaptiveSample {
    /// The fully decided ordered top-K prefix.
    Pinned(Vec<u32>),
    /// The grown world model (the `incr` driver keeps it as its belief).
    Sampled(WorldModel),
}

/// Grows a world sample until the empirical-Bernstein sequential bound
/// (`crate::precision::eb_half_width`) certifies every depth-`k` path
/// probability within `epsilon` at confidence `1 − delta` — or returns
/// immediately, with zero worlds, when the decided pairwise structure
/// already pins the ordered prefix.
///
/// Batches double from `ADAPTIVE_INITIAL_BATCH` up to
/// [`ADAPTIVE_MAX_WORLDS`]; all draws continue one seeded PRNG stream, so
/// the grown model is bit-identical to a one-shot sample of the same
/// total size (pinned by tests). `bounds` as in [`build_mc_bounded`].
pub fn sample_adaptive(
    table: &UncertainTable,
    k: usize,
    epsilon: f64,
    delta: f64,
    seed: u64,
    bounds: Option<&TopKBounds>,
) -> Result<(AdaptiveSample, PrecisionReport)> {
    let n = table.len();
    if k == 0 || k > n {
        return Err(TpoError::InvalidK { k, n });
    }
    PrecisionTarget::Adaptive { epsilon, delta }.validate()?;
    let computed;
    let bounds = match bounds {
        Some(b) if b.k() == k && b.len() == n => b,
        _ => {
            computed = TopKBounds::from_matrix(&PairwiseMatrix::compute(table), k)?;
            &computed
        }
    };
    if let Some(prefix) = bounds.pinned_order() {
        let report = PrecisionReport {
            worlds_drawn: 0,
            epsilon: Some(0.0),
            delta: Some(delta),
            reason: StopReason::CertainOrder,
        };
        return Ok((AdaptiveSample::Pinned(prefix), report));
    }
    let mut wm = WorldModel::empty(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut look = 0usize;
    let (achieved, reason) = loop {
        look += 1;
        let drawn = wm.num_worlds();
        let batch = if drawn == 0 {
            ADAPTIVE_INITIAL_BATCH.min(ADAPTIVE_MAX_WORLDS)
        } else {
            drawn.min(ADAPTIVE_MAX_WORLDS - drawn)
        };
        wm.append_sampled(table, batch, &mut rng)?;
        let counts = wm.prefix_count_values(k);
        let width = eb_half_width(&counts, wm.num_worlds(), look, delta);
        if width <= epsilon {
            break (width, StopReason::Converged);
        }
        if wm.num_worlds() >= ADAPTIVE_MAX_WORLDS {
            break (width, StopReason::WorldCap);
        }
    };
    let report = PrecisionReport {
        worlds_drawn: wm.num_worlds(),
        epsilon: Some(achieved),
        delta: Some(delta),
        reason,
    };
    Ok((AdaptiveSample::Sampled(wm), report))
}

/// The pre-PR 5 fixed-`worlds` Monte-Carlo pipeline — materialize a full
/// [`WorldModel`] (complete per-world rankings and position index) and
/// group prefixes — kept as the equivalence and benchmark baseline for
/// [`build_mc`]'s fixed mode.
pub fn build_mc_reference(
    table: &UncertainTable,
    k: usize,
    worlds: usize,
    seed: u64,
) -> Result<PathSet> {
    if k == 0 || k > table.len() {
        return Err(TpoError::InvalidK { k, n: table.len() });
    }
    let wm = WorldModel::sample_with_threads(table, worlds, seed, 1)?;
    wm.path_set_uniform(k, 1)
}

/// [`build_mc`] with an explicit thread count for the rank/group phases
/// (`0` = auto, `1` = the sequential reference). Any count produces
/// bit-identical output (pinned by tests). The knob applies to fixed
/// budgets; adaptive builds auto-thread their internal phases (their
/// stopping schedule is thread-independent either way).
pub fn build_mc_with_threads(
    table: &UncertainTable,
    k: usize,
    cfg: &McConfig,
    threads: usize,
) -> Result<PathSet> {
    match cfg.precision {
        PrecisionTarget::FixedWorlds(m) => fixed_mc_with_threads(table, k, m, cfg.seed, threads),
        PrecisionTarget::Adaptive { .. } => build_mc(table, k, cfg),
    }
}

/// The fixed-budget Monte-Carlo pipeline body (see [`build_mc`]).
fn fixed_mc_with_threads(
    table: &UncertainTable,
    k: usize,
    m: usize,
    seed: u64,
    threads: usize,
) -> Result<PathSet> {
    let n = table.len();
    if k == 0 || k > n {
        return Err(TpoError::InvalidK { k, n });
    }
    if m == 0 {
        return Err(TpoError::InvalidWorlds);
    }
    let threads = if threads == 0 {
        planned_threads(m, PARALLEL_WORLDS_MIN, available_cores())
    } else {
        threads.clamp(1, m)
    };

    let sampler = WorldSampler::new(table);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prefixes = vec![0u32; m * k];
    if threads == 1 {
        // Streaming: one recycled score row, rank each world as it is
        // drawn — no m×n materialization.
        let mut row = vec![0.0f64; n];
        let mut ids: Vec<u32> = Vec::with_capacity(n);
        for prefix in prefixes.chunks_mut(k) {
            sampler.sample_into(&mut rng, &mut row);
            top_k_prefix_into(&row, &mut ids, prefix);
        }
    } else {
        // Draw all scores sequentially (the PRNG stream is order-defined),
        // then rank world chunks in parallel — each world independently,
        // so chunking cannot change any prefix.
        let mut scores = vec![0.0f64; m * n];
        for row in scores.chunks_mut(n) {
            sampler.sample_into(&mut rng, row);
        }
        let chunk = m.div_ceil(threads);
        // ctk-allow(det-thread-spawn): planned_threads fanout; each thread fills a disjoint pre-chunked slice
        std::thread::scope(|s| {
            for (sc, pc) in scores.chunks(chunk * n).zip(prefixes.chunks_mut(chunk * k)) {
                s.spawn(move || {
                    let mut ids: Vec<u32> = Vec::with_capacity(n);
                    for (row, prefix) in sc.chunks(n).zip(pc.chunks_mut(k)) {
                        top_k_prefix_into(row, &mut ids, prefix);
                    }
                });
            }
        });
    }

    // Group identical prefixes. Totals are exact integer counts, so the
    // chunked merge is bit-identical to a sequential pass.
    // ctk-allow(det-hash-collection): exact integer counts; merge order cannot change them
    let counts: HashMap<&[u32], u64> = if threads == 1 || m < PARALLEL_WORLDS_MIN {
        prefix_counts(&prefixes, k)
    } else {
        let chunk = m.div_ceil(threads);
        // ctk-allow(det-hash-collection, det-thread-spawn): planned_threads fanout over disjoint chunks; integer-count merge is commutative
        let maps: Vec<HashMap<&[u32], u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = prefixes
                .chunks(chunk * k)
                .map(|c| s.spawn(move || prefix_counts(c, k)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(map) => map,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        // ctk-allow(det-hash-collection): exact integer counts; merge order cannot change them
        let mut total: HashMap<&[u32], u64> = HashMap::new();
        for map in maps {
            for (prefix, count) in map {
                *total.entry(prefix).or_insert(0) += count;
            }
        }
        total
    };
    PathSet::from_weighted(
        k,
        counts
            .into_iter()
            .map(|(prefix, count)| (prefix.to_vec(), count as f64))
            .collect(),
    )
}

/// Depth-`k` prefix counts over one chunk of flat prefixes.
// ctk-allow(det-hash-collection): exact integer counts, drained via from_weighted's canonical sort
fn prefix_counts(prefixes: &[u32], k: usize) -> HashMap<&[u32], u64> {
    // ctk-allow(det-hash-collection): exact integer counts, drained via from_weighted's canonical sort
    let mut g: HashMap<&[u32], u64> = HashMap::new();
    for p in prefixes.chunks_exact(k) {
        *g.entry(p).or_insert(0) += 1;
    }
    g
}

/// Exact TPO construction by level-wise prefix enumeration.
///
/// A prefix `t_1 ≻ … ≻ t_d` is scored with the nested integral
/// `P(prefix is exactly the ordered top-d)`; children of zero-mass
/// prefixes are never enumerated (an extension's event is a subset of its
/// parent's, so its probability cannot exceed the parent's).
///
/// Requires every score distribution in `table` to be continuous; returns
/// [`TpoError::PathExplosion`] if more than `cfg.max_paths` prefixes
/// survive at any level.
pub fn build_exact(table: &UncertainTable, k: usize, cfg: &ExactConfig) -> Result<PathSet> {
    let n = table.len();
    if k == 0 || k > n {
        return Err(TpoError::InvalidK { k, n });
    }
    let dists: Vec<&ScoreDist> = table.dists().collect();
    let grid = SupportGrid::build(dists.iter().copied(), cfg.resolution.max(16));
    let mut scratch = NestedScratch::default();

    // Frontier of live prefixes (tuple ids) with their probabilities.
    let mut frontier: Vec<(Vec<u32>, f64)> = vec![(Vec::new(), 1.0)];
    let mut prefix_dists: Vec<&ScoreDist> = Vec::with_capacity(k);
    let mut rest: Vec<&ScoreDist> = Vec::with_capacity(n);
    // Membership flags for the current prefix: O(1) "is t in the prefix?"
    // instead of an O(depth) `contains` scan per candidate/rest tuple.
    let mut in_prefix = vec![false; n];

    for depth in 1..=k {
        let mut next: Vec<(Vec<u32>, f64)> = Vec::new();
        for (prefix, _parent_prob) in &frontier {
            for &i in prefix {
                in_prefix[i as usize] = true;
            }
            for t in 0..n as u32 {
                if in_prefix[t as usize] {
                    continue;
                }
                prefix_dists.clear();
                prefix_dists.extend(prefix.iter().map(|&i| dists[i as usize]));
                prefix_dists.push(dists[t as usize]);
                rest.clear();
                rest.extend(
                    (0..n as u32)
                        .filter(|&i| !in_prefix[i as usize] && i != t)
                        .map(|i| dists[i as usize]),
                );
                let p = prefix_probability_with(&grid, &prefix_dists, &rest, &mut scratch)?;
                if p > cfg.prune_threshold {
                    let mut items = prefix.clone();
                    items.push(t);
                    next.push((items, p));
                }
            }
            for &i in prefix {
                in_prefix[i as usize] = false;
            }
            if next.len() > cfg.max_paths {
                return Err(TpoError::PathExplosion {
                    paths: next.len(),
                    max: cfg.max_paths,
                });
            }
        }
        if next.is_empty() {
            // Numerically possible only on pathological inputs where every
            // extension fell below the prune threshold.
            return Err(TpoError::EmptyPathSet);
        }
        frontier = next;
        let _ = depth;
    }
    PathSet::from_weighted(k, frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_rank::topk::topk_distance;

    fn table(n: usize, width: f64) -> UncertainTable {
        UncertainTable::new(
            (0..n)
                .map(|i| ScoreDist::uniform_centered(0.2 * i as f64, width).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn invalid_k_rejected_by_both_engines() {
        let t = table(3, 0.5);
        assert!(matches!(
            build_mc(&t, 0, &McConfig::default()),
            Err(TpoError::InvalidK { .. })
        ));
        assert!(matches!(
            build_exact(&t, 4, &ExactConfig::default()),
            Err(TpoError::InvalidK { .. })
        ));
    }

    #[test]
    fn zero_worlds_rejected_not_repaired() {
        let t = table(3, 0.5);
        assert!(matches!(
            build_mc(&t, 2, &McConfig::fixed(0, 1)),
            Err(TpoError::InvalidWorlds)
        ));
    }

    #[test]
    fn invalid_adaptive_targets_rejected() {
        let t = table(3, 0.5);
        assert!(matches!(
            build_mc(&t, 2, &McConfig::adaptive(0.0, 0.05, 1)),
            Err(TpoError::InvalidPrecision { .. })
        ));
        assert!(matches!(
            build_mc(&t, 2, &McConfig::adaptive(0.02, 1.0, 1)),
            Err(TpoError::InvalidPrecision { .. })
        ));
        assert!(matches!(
            sample_adaptive(&t, 0, 0.02, 0.05, 1, None),
            Err(TpoError::InvalidK { .. })
        ));
    }

    #[test]
    fn fast_build_is_bit_identical_to_reference_full_sort_path() {
        // Partial-selection ranking + compiled sampling must reproduce the
        // full-sort WorldModel pipeline exactly, at every depth.
        let t = table(6, 0.7);
        for seed in [0u64, 9, 31] {
            for k in [1usize, 2, 4, 6] {
                let cfg = McConfig::fixed(3001, seed);
                let fast = build_mc_with_threads(&t, k, &cfg, 1).unwrap();
                let reference = build_mc_reference(&t, k, 3001, seed).unwrap();
                assert_eq!(fast.len(), reference.len(), "seed {seed} k {k}");
                for (a, b) in fast.paths().iter().zip(reference.paths()) {
                    assert_eq!(a.items, b.items, "seed {seed} k {k}");
                    assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "seed {seed} k {k}");
                }
            }
        }
    }

    #[test]
    fn parallel_mc_build_is_bit_identical_to_sequential() {
        let t = table(5, 0.6);
        for seed in [0u64, 3, 17] {
            let cfg = McConfig::fixed(4100, seed);
            let seq = build_mc_with_threads(&t, 3, &cfg, 1).unwrap();
            for threads in [2, 4, 7] {
                let par = build_mc_with_threads(&t, 3, &cfg, threads).unwrap();
                assert_eq!(seq.len(), par.len(), "seed {seed} threads {threads}");
                for (a, b) in seq.paths().iter().zip(par.paths()) {
                    assert_eq!(a.items, b.items, "seed {seed} threads {threads}");
                    assert_eq!(
                        a.prob.to_bits(),
                        b.prob.to_bits(),
                        "seed {seed} threads {threads}: {} vs {}",
                        a.prob,
                        b.prob
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_supports_give_single_path() {
        // Far-apart narrow supports: the ordering is certain.
        let t = table(4, 0.1);
        let exact = build_exact(&t, 3, &ExactConfig::default()).unwrap();
        assert!(exact.is_resolved());
        assert_eq!(exact.paths()[0].items, vec![3, 2, 1]);
        let mc = build_mc(&t, 3, &McConfig::default()).unwrap();
        assert_eq!(mc.paths()[0].items, vec![3, 2, 1]);
    }

    #[test]
    fn iid_pair_is_even_money() {
        let t = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.0, 1.0).unwrap(),
        ])
        .unwrap();
        let exact = build_exact(&t, 2, &ExactConfig::default()).unwrap();
        assert_eq!(exact.len(), 2);
        for p in exact.paths() {
            assert!((p.prob - 0.5).abs() < 1e-6, "{p}");
        }
    }

    #[test]
    fn engines_roughly_agree_here_too() {
        let t = table(4, 0.6);
        let exact = build_exact(&t, 2, &ExactConfig::default()).unwrap();
        let mc = build_mc(&t, 2, &McConfig::fixed(60_000, 3)).unwrap();
        for p in exact.paths() {
            let q = mc
                .paths()
                .iter()
                .find(|m| m.items == p.items)
                .map(|m| m.prob)
                .unwrap_or(0.0);
            assert!(
                (p.prob - q).abs() < 0.02,
                "{:?}: {} vs {q}",
                p.items,
                p.prob
            );
        }
    }

    #[test]
    fn path_explosion_is_reported() {
        // 7 iid tuples, k=4: 7·6·5·4 = 840 paths > 100.
        let t = UncertainTable::new(
            (0..7)
                .map(|_| ScoreDist::uniform(0.0, 1.0).unwrap())
                .collect(),
        )
        .unwrap();
        let err = build_exact(
            &t,
            4,
            &ExactConfig {
                max_paths: 100,
                ..ExactConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, TpoError::PathExplosion { .. }));
    }

    #[test]
    fn engine_dispatch_and_default() {
        let t = table(3, 0.5);
        assert_eq!(Engine::default().name(), "mc");
        let (ps, report) = Engine::Exact(ExactConfig::default())
            .build_with_report(&t, 2)
            .unwrap();
        assert!((ps.total_prob() - 1.0).abs() < 1e-9);
        assert_eq!(report.reason, StopReason::Exact);
        assert_eq!(report.worlds_drawn, 0);
        let (ps, report) = Engine::default().build_with_report(&t, 2).unwrap();
        assert!((ps.total_prob() - 1.0).abs() < 1e-9);
        assert_eq!(report.reason, StopReason::FixedBudget);
        assert_eq!(report.worlds_drawn, crate::precision::DEFAULT_WORLDS);
        assert_eq!(report.epsilon, None);
    }

    #[test]
    fn adaptive_pinned_order_draws_zero_worlds() {
        // Far-apart narrow supports: the whole prefix is decided, so the
        // adaptive build must not sample at all.
        let t = table(4, 0.1);
        let (ps, report) = build_mc_with_report(&t, 3, &McConfig::adaptive(0.02, 0.05, 1)).unwrap();
        assert_eq!(report.worlds_drawn, 0);
        assert_eq!(report.reason, StopReason::CertainOrder);
        assert_eq!(report.epsilon, Some(0.0));
        assert!(ps.is_resolved());
        assert_eq!(ps.paths()[0].items, vec![3, 2, 1]);
        // ... and agrees with the exact engine.
        let exact = build_exact(&t, 3, &ExactConfig::default()).unwrap();
        assert_eq!(ps.paths()[0].items, exact.paths()[0].items);
    }

    #[test]
    fn adaptive_build_stops_under_the_fixed_default_on_easy_tables() {
        // One overlapping pair in an otherwise decided staircase: a low-
        // variance posterior the Bernstein bound clears early.
        let dists: Vec<ScoreDist> = (0..6)
            .map(|i| {
                let c = i as f64;
                let w = if i == 2 { 2.0 } else { 0.3 }; // t2 overlaps t1 and t3 slightly
                ScoreDist::uniform_centered(c, w).unwrap()
            })
            .collect();
        let t = UncertainTable::new(dists).unwrap();
        let (ps, report) = build_mc_with_report(&t, 3, &McConfig::adaptive(0.02, 0.05, 7)).unwrap();
        assert_eq!(report.reason, StopReason::Converged);
        assert!(
            report.worlds_drawn < crate::precision::DEFAULT_WORLDS,
            "easy table should need fewer than the fixed default, drew {}",
            report.worlds_drawn
        );
        // ctk-allow(panic-unwrap): converged adaptive reports always carry a width
        let achieved = report.epsilon.expect("adaptive reports carry a width");
        assert!(achieved <= 0.02, "achieved {achieved}");
        // Every path probability is within epsilon of a converged
        // reference build.
        let reference = build_mc_reference(&t, 3, 400_000, 99).unwrap();
        for p in ps.paths() {
            let r = reference
                .paths()
                .iter()
                .find(|q| q.items == p.items)
                .map(|q| q.prob)
                .unwrap_or(0.0);
            assert!(
                (p.prob - r).abs() < 0.02 + 0.01,
                "{:?}: adaptive {} vs reference {r}",
                p.items,
                p.prob
            );
        }

        // A mostly-decided 15-item staircase (slivers of neighbour
        // overlap), with bounds supplied as the service does: drawing
        // fewer worlds than the fixed default must not cost quality. The
        // adaptive answer's top-K distance to a converged reference is no
        // worse than that of the fixed `DEFAULT_WORLDS` build.
        let stairs = UncertainTable::new(
            (0..15)
                .map(|i| ScoreDist::uniform_centered(i as f64, 1.05).unwrap())
                .collect(),
        )
        .unwrap();
        let k = 4;
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&stairs), k).unwrap();
        let fixed_cfg = McConfig::fixed(crate::precision::DEFAULT_WORLDS, 7);
        let (fixed, _) = build_mc_bounded(&stairs, k, &fixed_cfg, Some(&bounds)).unwrap();
        let adaptive_cfg = McConfig::adaptive(0.02, 0.05, 7);
        let (adaptive, report) =
            build_mc_bounded(&stairs, k, &adaptive_cfg, Some(&bounds)).unwrap();
        assert!(report.worlds_drawn < crate::precision::DEFAULT_WORLDS);
        let reference = build_mc_reference(&stairs, k, 30_000, 7 ^ 0xC0FFEE).unwrap();
        let top = reference.most_probable().rank_list();
        let distance = |ps: &PathSet| topk_distance(&ps.most_probable().rank_list(), &top);
        assert!(
            distance(&adaptive) <= distance(&fixed),
            "adaptive top-K distance {} regressed past the fixed build's {}",
            distance(&adaptive),
            distance(&fixed)
        );
    }

    #[test]
    fn adaptive_sample_reuses_matching_bounds_only() {
        let t = table(4, 0.1);
        let matrix = PairwiseMatrix::compute(&t);
        let right = TopKBounds::from_matrix(&matrix, 2).unwrap();
        let wrong_k = TopKBounds::from_matrix(&matrix, 4).unwrap();
        let (with_right, ra) = sample_adaptive(&t, 2, 0.05, 0.05, 1, Some(&right)).unwrap();
        let (with_wrong, rb) = sample_adaptive(&t, 2, 0.05, 0.05, 1, Some(&wrong_k)).unwrap();
        let (with_none, rc) = sample_adaptive(&t, 2, 0.05, 0.05, 1, None).unwrap();
        assert!(ra.same_outcome(&rb) && ra.same_outcome(&rc));
        for s in [&with_right, &with_wrong, &with_none] {
            match s {
                AdaptiveSample::Pinned(prefix) => assert_eq!(prefix, &vec![3, 2]),
                AdaptiveSample::Sampled(_) => panic!("decided table must pin"),
            }
        }
    }

    #[test]
    fn adaptive_world_cap_is_reported_not_silent() {
        // An impossibly tight target on an iid table cannot converge
        // before the cap; the report must say so.
        let t = UncertainTable::new(
            (0..5)
                .map(|_| ScoreDist::uniform(0.0, 1.0).unwrap())
                .collect(),
        )
        .unwrap();
        let (sample, report) = sample_adaptive(&t, 2, 1e-4, 0.05, 3, None).unwrap();
        assert_eq!(report.reason, StopReason::WorldCap);
        assert_eq!(report.worlds_drawn, ADAPTIVE_MAX_WORLDS);
        // ctk-allow(panic-unwrap): adaptive reports always carry a width
        assert!(report.epsilon.expect("width") > 1e-4);
        assert!(matches!(sample, AdaptiveSample::Sampled(_)));
    }

    #[test]
    fn adaptive_batches_replay_one_shot_worlds() {
        // The adaptive model must be the same worlds a one-shot sample of
        // the same size would draw (PRNG stream continuity).
        let t = UncertainTable::new(
            (0..4)
                .map(|i| ScoreDist::uniform_centered(0.1 * i as f64, 1.0).unwrap())
                .collect(),
        )
        .unwrap();
        let (sample, report) = sample_adaptive(&t, 2, 0.05, 0.1, 11, None).unwrap();
        let wm = match sample {
            AdaptiveSample::Sampled(wm) => wm,
            AdaptiveSample::Pinned(_) => panic!("iid-ish table cannot pin"),
        };
        assert_eq!(wm.num_worlds(), report.worlds_drawn);
        let one_shot = WorldModel::sample_with_threads(&t, report.worlds_drawn, 11, 1).unwrap();
        assert_eq!(one_shot.surviving_rankings(), wm.surviving_rankings());
    }
}
