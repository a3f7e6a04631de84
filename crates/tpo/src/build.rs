//! TPO construction engines.
//!
//! Two ways to materialize the tree of possible orderings of a top-K query
//! (Ciceri et al., §II-B):
//!
//! * [`build_mc`] — Monte-Carlo: sample `M` possible worlds (full score
//!   realizations), take each world's depth-`K` ranking prefix, and count
//!   the prefixes. Every build first computes the depth-`K` *candidates*
//!   from the compiled sampler (`WorldSampler::candidates`: the tuples
//!   that `K` others' proven draw ranges do not dominate, which hold every
//!   world's top `K`) and ranks each world over them only. Every score is
//!   still drawn, so the PRNG stream and every result are those of a
//!   ranking over all `N` tuples. A tree build inserts the candidates
//!   into a running top `K`; an `incr` sample ranks them all and keeps
//!   the prefix and their positions ([`WorldSample`]). Cost `O(M · N)`
//!   draws plus the candidates' ranking, error `O(1/√M)` per path. Both
//!   group prefixes by one 64-bit key that packs the prefix's leading
//!   tuple ids at a fixed bit width, first item highest, so key order is
//!   items order (a prefix too long for the key compares its remaining
//!   items). A fixed build sorts its worlds by that key. An adaptive
//!   `(ε, δ)` build streams: each world is drawn, ranked to depth `K` and
//!   counted once into running counts looked up by that key under a
//!   fixed hasher, which every sequential look reads and the build drains
//!   in items order, so a tree build never stores a world and counting a
//!   seen prefix allocates nothing.
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
#[cfg(test)]
use crate::worlds::WorldModel;
use crate::worlds::{DepthSampler, Id, WorldSample};
use ctk_prob::compare::PairwiseMatrix;
use ctk_prob::nested::{prefix_probability_with, NestedScratch};
use ctk_prob::sample::top_k_prefix_into;
#[cfg(feature = "debug-invariants")]
use ctk_prob::sample::{ranking_into, WorldSampler};
use ctk_prob::{ScoreDist, SupportGrid, TopKBounds, UncertainTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
// ctk-allow(det-hash-collection): the adaptive loop's running counts look prefixes up by packed key under a fixed hasher and drain in key order, never in map order
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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
        self.build_with_report(table, k, None).map(|(ps, _)| ps)
    }

    /// [`Engine::build`] plus the [`PrecisionReport`] of what the build
    /// actually did (worlds drawn, achieved bound, stop reason).
    ///
    /// `bounds` are caller-cached certain/possible bounds of `table`: the
    /// driver and the service hold per-table [`TopKBounds`] next to their
    /// shared pairwise matrices, and passing them lets an adaptive build
    /// skip recomputing the O(n²) pairwise scan. Bounds for a different `k`
    /// or table size are ignored (fresh ones are derived). Fixed-budget and
    /// exact builds never touch the bounds, keeping the compat mode
    /// byte-for-byte on its historical pipeline.
    pub fn build_with_report(
        &self,
        table: &UncertainTable,
        k: usize,
        bounds: Option<&TopKBounds>,
    ) -> Result<(PathSet, PrecisionReport)> {
        let cfg = match self {
            Engine::MonteCarlo(cfg) => cfg,
            Engine::Exact(cfg) => {
                return Ok((build_exact(table, k, cfg)?, PrecisionReport::exact()))
            }
        };
        match cfg.precision {
            PrecisionTarget::FixedWorlds(m) => {
                Ok((fixed_mc(table, k, m, cfg.seed)?, PrecisionReport::fixed(m)))
            }
            PrecisionTarget::Adaptive { epsilon, delta } => {
                let draws = DepthSampler::new(table, k)?;
                let mut scratch = Vec::with_capacity(k);
                let (grown, report) = grow_adaptive(
                    table,
                    &draws,
                    epsilon,
                    delta,
                    cfg.seed,
                    bounds,
                    |row, prefix| top_k_prefix_into(row, &draws.candidates, &mut scratch, prefix),
                )?;
                let ps = match grown {
                    Grown::Pinned(prefix) => PathSet::from_weighted(k, vec![(prefix, 1.0)])?,
                    Grown::Counted(counts) => counts.into_paths()?,
                };
                Ok((ps, report))
            }
        }
    }
}

/// Monte-Carlo TPO construction: realize `cfg.precision` (a fixed world
/// budget or an adaptive `(ε, δ)` target) and group the sampled worlds'
/// depth-`k` prefixes into a normalized [`PathSet`].
///
/// A fixed budget outside `1..=`[`ADAPTIVE_MAX_WORLDS`] is an invalid spec
/// and fails with [`TpoError::InvalidWorlds`] (`0` used to be silently
/// clamped to 1, masking configuration bugs); out-of-range adaptive
/// targets fail with [`TpoError::InvalidPrecision`].
///
/// Both modes take the fast path (DESIGN.md §10): scores come from a
/// per-table compiled [`ctk_prob::sample::WorldSampler`] (draw-for-draw
/// identical to the reference sampling), and each world is ranked only
/// to depth `k`, over the depth-`k` candidates only, by
/// [`top_k_prefix_into`] — every world's top `k` lies among the
/// candidates and the prefix is bit-identical to the full sort's by the
/// total-order argument, so the result equals the test-only full-sort
/// reference (`build_mc_reference`) exactly.
///
/// Both run on the calling thread. A fixed build ranks each world as it
/// is drawn and counts the prefixes with one sort. An adaptive build
/// streams: each world is counted once into running prefix counts that
/// every look reads, and no world is stored.
pub fn build_mc(table: &UncertainTable, k: usize, cfg: &McConfig) -> Result<PathSet> {
    Engine::MonteCarlo(*cfg).build(table, k)
}

/// Outcome of an adaptive sampling run: either the certain bounds pinned
/// the whole ordered prefix (zero worlds drawn), or a batch-grown
/// [`WorldSample`] whose posterior cleared (or capped out on) the target.
#[derive(Debug, Clone)]
pub enum AdaptiveSample {
    /// The fully decided ordered top-K prefix.
    Pinned(Vec<u32>),
    /// The grown sample.
    Sampled {
        /// The drawn worlds, frozen and shareable (the `incr` driver
        /// weighs them as its belief).
        worlds: Arc<WorldSample>,
        /// Their depth-`k` path set, from the loop's final prefix counts
        /// (equal to grouping `worlds` at depth `k`).
        paths: PathSet,
    },
}

/// Grows a world sample until the empirical-Bernstein sequential bound
/// (`crate::precision::eb_half_width`) certifies every depth-`k` path
/// probability within `epsilon` at confidence `1 − delta` — or returns
/// immediately, with zero worlds, when the decided pairwise structure
/// already pins the ordered prefix.
///
/// This is the `incr` belief's build: it runs the same adaptive loop as a
/// tree-mode [`Engine::build_with_report`] (so the two stop after the same
/// worlds with the same report), keeping every drawn world, ranked over
/// the depth-`k` candidates, in an owned sample that is frozen and shared
/// at the end. All draws continue one seeded PRNG stream, so the grown
/// sample is bit-identical to a one-shot [`WorldSample::sample_to_depth`]
/// of the same total size (pinned by tests). `bounds` as in
/// [`Engine::build_with_report`].
pub fn sample_adaptive(
    table: &UncertainTable,
    k: usize,
    epsilon: f64,
    delta: f64,
    seed: u64,
    bounds: Option<&TopKBounds>,
) -> Result<(AdaptiveSample, PrecisionReport)> {
    let draws = DepthSampler::new(table, k)?;
    let c = draws.candidates.len();
    let mut worlds = WorldSample::empty(table.len(), k, draws.candidates.clone());
    let mut scratch = Vec::with_capacity(c);
    let mut ranks = vec![0u32; c];
    let (grown, report) = grow_adaptive(
        table,
        &draws,
        epsilon,
        delta,
        seed,
        bounds,
        |row, prefix| worlds.push_world(row, &mut scratch, &mut ranks, prefix),
    )?;
    let sample = match grown {
        Grown::Pinned(prefix) => AdaptiveSample::Pinned(prefix),
        Grown::Counted(counts) => AdaptiveSample::Sampled {
            worlds: worlds.freeze(),
            paths: counts.into_paths()?,
        },
    };
    Ok((sample, report))
}

/// A fixed-budget `incr` belief: `m` worlds sampled to depth `k` by
/// [`WorldSample::sample_to_depth`], shareable, and their depth-`k` path
/// set from one counting pass over the worlds' ranking prefixes. Every
/// world weighs 1, so the counts are the weight sums, and the path set
/// equals [`crate::WorldModel::path_set_cached`] at depth `k` bit for bit
/// (pinned by tests) without its level-by-level regroup.
pub fn sample_fixed(
    table: &UncertainTable,
    k: usize,
    m: usize,
    seed: u64,
) -> Result<(Arc<WorldSample>, PathSet)> {
    let worlds = WorldSample::sample_to_depth(table, k, m, seed)?;
    let paths = PathSet::from_weighted(k, worlds.prefix_counts())?;
    Ok((Arc::new(worlds), paths))
}

/// Every distinct depth-`k` prefix of the worlds in `flat` with its world
/// count, in items order. World `w`'s ranking (or prefix) is
/// `flat[w·stride..]`, its ids below `n`. One sort of the worlds by a key
/// that packs the prefix's leading tuple ids at a fixed bit width, first
/// item highest, so integer order is items order. The remaining items are
/// compared only when the key cannot hold the whole prefix. Handing
/// `PathSet::from_weighted` its input in items order also makes its
/// canonical sort a pass over sorted data.
pub(crate) fn sorted_prefix_counts<T: Id>(
    flat: &[T],
    stride: usize,
    k: usize,
    n: usize,
) -> Vec<(Vec<u32>, f64)> {
    let layout = PackedKey::new(k, n);
    let prefix = |w: u32| &flat[w as usize * stride..][..k];
    let tail = |a: u32, b: u32| layout.tail(prefix(a)).cmp(layout.tail(prefix(b)));
    let mut keyed: Vec<(u64, u32)> = (0..(flat.len() / stride) as u32)
        .map(|w| (layout.key(prefix(w)), w))
        .collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| tail(a.1, b.1)));
    keyed
        .chunk_by(|a, b| a.0 == b.0 && tail(a.1, b.1).is_eq())
        .map(|run| {
            let items = prefix(run[0].1).iter().map(|&t| t.into()).collect();
            (items, run.len() as f64)
        })
        .collect()
}

/// How a depth-`k` prefix of ids below `n` packs into a 64-bit key: its
/// leading `packed` ids at `bits` bits each, first item highest, so key
/// order is items order over those ids. The remaining items (the tail,
/// empty when the key holds the whole prefix) decide between prefixes
/// with equal keys.
#[derive(Debug, Clone, Copy)]
struct PackedKey {
    bits: usize,
    packed: usize,
}

impl PackedKey {
    fn new(k: usize, n: usize) -> Self {
        let bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as usize;
        Self {
            bits,
            packed: k.min(64 / bits),
        }
    }

    fn key<T: Id>(self, prefix: &[T]) -> u64 {
        prefix[..self.packed]
            .iter()
            .fold(0u64, |key, &t| key << self.bits | u64::from(t.into()))
    }

    fn tail<T: Id>(self, prefix: &[T]) -> &[T] {
        &prefix[self.packed..]
    }
}

/// A fixed (unseeded) hasher for packed prefix keys: the splitmix64
/// finalizer, so every key bit reaches the bucket bits.
#[derive(Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 << 8 | u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Packed key → first slot holding a prefix with that key.
// ctk-allow(det-hash-collection): lookups only; iteration goes through the slots, in items order when drained
type KeyHeads = HashMap<u64, u32, BuildHasherDefault<PackedKeyHasher>>;

/// Slot link that ends a chain of prefixes sharing one key.
const CHAIN_END: u32 = u32::MAX;

/// Depth-`k` prefix counts of the worlds drawn so far, keyed by the
/// prefix packed as [`sorted_prefix_counts`] packs it. Each distinct
/// prefix owns a slot (its items in one flat buffer, and its count);
/// the map sends a key to its first slot, and prefixes whose keys are
/// equal (only possible when the key cannot hold the whole prefix) chain
/// their slots and compare tails. Counting a seen prefix allocates
/// nothing.
struct PrefixCounts {
    layout: PackedKey,
    k: usize,
    heads: KeyHeads,
    items: Vec<u32>,
    counts: Vec<u64>,
    next: Vec<u32>,
}

impl PrefixCounts {
    fn new(k: usize, n: usize) -> Self {
        Self {
            layout: PackedKey::new(k, n),
            k,
            heads: KeyHeads::default(),
            items: Vec::new(),
            counts: Vec::new(),
            next: Vec::new(),
        }
    }

    fn prefix(&self, slot: u32) -> &[u32] {
        &self.items[slot as usize * self.k..][..self.k]
    }

    /// Counts one world's prefix.
    fn count(&mut self, prefix: &[u32]) {
        let key = self.layout.key(prefix);
        let tail = self.layout.tail(prefix);
        let mut last = CHAIN_END;
        let mut slot = self.heads.get(&key).copied().unwrap_or(CHAIN_END);
        while slot != CHAIN_END {
            if self.layout.tail(self.prefix(slot)) == tail {
                self.counts[slot as usize] += 1;
                return;
            }
            last = slot;
            slot = self.next[slot as usize];
        }
        let new = self.counts.len() as u32;
        self.items.extend_from_slice(prefix);
        self.counts.push(1);
        self.next.push(CHAIN_END);
        if last == CHAIN_END {
            self.heads.insert(key, new);
        } else {
            self.next[last as usize] = new;
        }
    }

    /// Every distinct prefix's count, in slot order (the stopping bound
    /// folds an order-invariant max over them).
    fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The distinct prefixes with their counts, in items order.
    fn in_items_order(&self) -> Vec<(&[u32], u64)> {
        let mut slots: Vec<u32> = (0..self.counts.len() as u32).collect();
        slots.sort_unstable_by(|&a, &b| self.prefix(a).cmp(self.prefix(b)));
        slots
            .into_iter()
            .map(|s| (self.prefix(s), self.counts[s as usize]))
            .collect()
    }

    /// The normalized path set of the counts. Handed over in items order,
    /// so `PathSet::from_weighted`'s canonical sort passes over sorted
    /// input; counts are exact integers, so no order could change a bit.
    fn into_paths(self) -> Result<PathSet> {
        let weighted = self
            .in_items_order()
            .into_iter()
            .map(|(prefix, count)| (prefix.to_vec(), count as f64))
            .collect();
        PathSet::from_weighted(self.k, weighted)
    }
}

/// What the adaptive loop ended with.
enum Grown {
    /// The certain bounds pinned this ordered prefix; nothing was drawn.
    Pinned(Vec<u32>),
    /// The running prefix counts of every drawn world.
    Counted(PrefixCounts),
}

/// The one adaptive loop behind both adaptive builds. Batches double from
/// `ADAPTIVE_INITIAL_BATCH` up to [`ADAPTIVE_MAX_WORLDS`]; every world is
/// drawn from `draws`' sampler on one seeded stream, handed to `rank`
/// (which writes its depth-`k` ranking prefix, and may keep the world),
/// and counted once into the running `PrefixCounts`. Each look folds the
/// bound over the running counts — the same count multiset a rescan of
/// every drawn world gives, so the stop is the one a rescanning loop
/// would take.
fn grow_adaptive(
    table: &UncertainTable,
    draws: &DepthSampler,
    epsilon: f64,
    delta: f64,
    seed: u64,
    bounds: Option<&TopKBounds>,
    mut rank: impl FnMut(&[f64], &mut [u32]),
) -> Result<(Grown, PrecisionReport)> {
    let (n, k) = (table.len(), draws.k);
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
        return Ok((Grown::Pinned(prefix), pinned_report(delta)));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = vec![0.0f64; n];
    let mut prefix = vec![0u32; k];
    let mut counts = PrefixCounts::new(k, n);
    let mut drawn = 0usize;
    let mut look = 0usize;
    let (achieved, reason) = loop {
        look += 1;
        let batch = next_batch(drawn);
        for _ in 0..batch {
            draws.sampler.sample_into(&mut rng, &mut row);
            rank(&row, &mut prefix);
            counts.count(&prefix);
        }
        drawn += batch;
        #[cfg(feature = "debug-invariants")]
        assert_counts_match_rescan(table, k, seed, drawn, &counts);
        let width = eb_half_width(counts.counts(), drawn, look, delta);
        if width <= epsilon {
            break (width, StopReason::Converged);
        }
        if drawn >= ADAPTIVE_MAX_WORLDS {
            break (width, StopReason::WorldCap);
        }
    };
    let report = PrecisionReport {
        worlds_drawn: drawn,
        epsilon: Some(achieved),
        delta: Some(delta),
        reason,
    };
    Ok((Grown::Counted(counts), report))
}

/// The size of the next adaptive batch after `drawn` worlds: the first
/// batch, then doubling, up to the world cap.
fn next_batch(drawn: usize) -> usize {
    if drawn == 0 {
        ADAPTIVE_INITIAL_BATCH.min(ADAPTIVE_MAX_WORLDS)
    } else {
        drawn.min(ADAPTIVE_MAX_WORLDS - drawn)
    }
}

/// The report of a build the certain bounds decided: zero worlds, exact.
fn pinned_report(delta: f64) -> PrecisionReport {
    PrecisionReport {
        worlds_drawn: 0,
        epsilon: Some(0.0),
        delta: Some(delta),
        reason: StopReason::CertainOrder,
    }
}

/// The running-count invariant: after every look, the streamed counts
/// equal a rescan that replays the seed's stream for the `drawn` worlds
/// and counts each one's prefix from its full ranking of every tuple
/// (independent of the candidates the build ranked).
#[cfg(feature = "debug-invariants")]
fn assert_counts_match_rescan(
    table: &UncertainTable,
    k: usize,
    seed: u64,
    drawn: usize,
    counts: &PrefixCounts,
) {
    let sampler = WorldSampler::new(table);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = vec![0.0f64; table.len()];
    let mut ranking = vec![0u32; table.len()];
    let mut scratch = Vec::new();
    let mut rescan = PrefixCounts::new(k, table.len());
    for _ in 0..drawn {
        sampler.sample_into(&mut rng, &mut row);
        ranking_into(&row, &mut scratch, &mut ranking);
        rescan.count(&ranking[..k]);
    }
    assert_eq!(
        rescan.in_items_order(),
        counts.in_items_order(),
        "running prefix counts diverged from a rescan of {drawn} worlds"
    );
}

/// Test-only reference for the Monte-Carlo pipelines: materialize a full
/// [`WorldModel`] (complete per-world rankings and position index) and
/// group prefixes with the hash-map grouping, sequentially.
#[cfg(test)]
pub(crate) fn build_mc_reference(
    table: &UncertainTable,
    k: usize,
    worlds: usize,
    seed: u64,
) -> Result<PathSet> {
    if k == 0 || k > table.len() {
        return Err(TpoError::InvalidK { k, n: table.len() });
    }
    WorldModel::new(Arc::new(WorldSample::sample(table, worlds, seed)?)).path_set(k)
}

/// Test-only reference for the adaptive builds: the `WorldModel` route,
/// which grows a model batch by batch and rescans every drawn world's
/// prefix at each look, then groups the final model with the hash-map
/// grouping.
#[cfg(test)]
pub(crate) fn build_adaptive_reference(
    table: &UncertainTable,
    k: usize,
    epsilon: f64,
    delta: f64,
    seed: u64,
) -> Result<(PathSet, PrecisionReport)> {
    let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(table), k)?;
    if let Some(prefix) = bounds.pinned_order() {
        let ps = PathSet::from_weighted(k, vec![(prefix, 1.0)])?;
        return Ok((ps, pinned_report(delta)));
    }
    let mut worlds = WorldSample::empty_full(table.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut look = 0usize;
    let (achieved, reason) = loop {
        look += 1;
        worlds.append_sampled(table, next_batch(worlds.len()), &mut rng);
        let mut counts = std::collections::BTreeMap::new();
        for w in 0..worlds.len() {
            *counts.entry(worlds.prefix(w)[..k].to_vec()).or_insert(0u64) += 1;
        }
        let values: Vec<u64> = counts.into_values().collect();
        let width = eb_half_width(&values, worlds.len(), look, delta);
        if width <= epsilon {
            break (width, StopReason::Converged);
        }
        if worlds.len() >= ADAPTIVE_MAX_WORLDS {
            break (width, StopReason::WorldCap);
        }
    };
    let report = PrecisionReport {
        worlds_drawn: worlds.len(),
        epsilon: Some(achieved),
        delta: Some(delta),
        reason,
    };
    Ok((WorldModel::new(Arc::new(worlds)).path_set(k)?, report))
}

/// The fixed-budget Monte-Carlo pipeline body (see [`build_mc`]):
/// one recycled score row, each world ranked to depth `k` over the
/// depth-`k` candidates as it is drawn (no `m × n` materialization), and
/// the prefixes grouped by one sort, as [`sample_fixed`] groups its
/// worlds.
pub(crate) fn fixed_mc(table: &UncertainTable, k: usize, m: usize, seed: u64) -> Result<PathSet> {
    let draws = DepthSampler::new(table, k)?;
    PrecisionTarget::FixedWorlds(m).validate()?;
    let n = table.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prefixes = vec![0u32; m * k];
    let mut row = vec![0.0f64; n];
    let mut scratch = Vec::with_capacity(k);
    for prefix in prefixes.chunks_mut(k) {
        draws.sampler.sample_into(&mut rng, &mut row);
        top_k_prefix_into(&row, &draws.candidates, &mut scratch, prefix);
    }
    PathSet::from_weighted(k, sorted_prefix_counts(&prefixes, k, k, n))
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

    for _ in 0..k {
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

    /// At n = 40 a 64-bit grouping key holds 10 tuple ids of 6 bits:
    /// k = 10 fits exactly, and k = 12 compares the last two items by
    /// slice. The ten best tuples are certain, so every world shares its
    /// key and only the slice comparison tells the prefixes apart.
    fn certain_head_table() -> UncertainTable {
        UncertainTable::new(
            (0..40)
                .map(|i| match i {
                    0..=9 => ScoreDist::uniform(100.0 - 5.0 * i as f64, 101.0 - 5.0 * i as f64),
                    _ => ScoreDist::uniform_centered(0.01 * i as f64, 0.5),
                })
                .collect::<std::result::Result<Vec<_>, _>>()
                .unwrap(),
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
        for m in [0, ADAPTIVE_MAX_WORLDS + 1, (1 << 62) + 1] {
            assert!(matches!(
                build_mc(&t, 2, &McConfig::fixed(m, 1)),
                Err(TpoError::InvalidWorlds)
            ));
        }
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
        // full-sort WorldModel pipeline exactly, at every depth (k = 12 on
        // the wide table groups prefixes by their unpacked tail).
        let wide = certain_head_table();
        for (t, ks) in [(table(6, 0.7), &[1usize, 2, 4, 6][..]), (wide, &[10, 12])] {
            for seed in [0u64, 9, 31] {
                for &k in ks {
                    let fast = fixed_mc(&t, k, 3001, seed).unwrap();
                    let reference = build_mc_reference(&t, k, 3001, seed).unwrap();
                    assert_eq!(fast.len(), reference.len(), "seed {seed} k {k}");
                    for (a, b) in fast.paths().iter().zip(reference.paths()) {
                        assert_eq!(a.items, b.items, "seed {seed} k {k}");
                        assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "seed {seed} k {k}");
                    }
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
            .build_with_report(&t, 2, None)
            .unwrap();
        assert!((ps.total_prob() - 1.0).abs() < 1e-9);
        assert_eq!(report.reason, StopReason::Exact);
        assert_eq!(report.worlds_drawn, 0);
        let (ps, report) = Engine::default().build_with_report(&t, 2, None).unwrap();
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
        let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(0.02, 0.05, 1))
            .build_with_report(&t, 3, None)
            .unwrap();
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
        let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(0.02, 0.05, 7))
            .build_with_report(&t, 3, None)
            .unwrap();
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
        let (fixed, _) = Engine::MonteCarlo(fixed_cfg)
            .build_with_report(&stairs, k, Some(&bounds))
            .unwrap();
        let adaptive_cfg = McConfig::adaptive(0.02, 0.05, 7);
        let (adaptive, report) = Engine::MonteCarlo(adaptive_cfg)
            .build_with_report(&stairs, k, Some(&bounds))
            .unwrap();
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
                AdaptiveSample::Sampled { .. } => panic!("decided table must pin"),
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
        assert!(matches!(sample, AdaptiveSample::Sampled { .. }));
    }

    #[test]
    fn running_prefix_counts_sum_to_worlds_drawn() {
        // Every drawn world is counted exactly once across looks, and the
        // running counts hold one slot per distinct prefix.
        let t = table(5, 0.9);
        let draws = DepthSampler::new(&t, 2).unwrap();
        let mut scratch = Vec::new();
        let (grown, report) = grow_adaptive(&t, &draws, 0.01, 0.05, 5, None, |row, prefix| {
            top_k_prefix_into(row, &draws.candidates, &mut scratch, prefix)
        })
        .unwrap();
        let Grown::Counted(counts) = grown else {
            panic!("overlapping table cannot pin")
        };
        assert!(
            report.worlds_drawn > ADAPTIVE_INITIAL_BATCH,
            "several looks"
        );
        assert_eq!(
            counts.counts().iter().sum::<u64>(),
            report.worlds_drawn as u64
        );
        let reference = build_mc_reference(&t, 2, report.worlds_drawn, 5).unwrap();
        assert_eq!(counts.counts().len(), reference.len());
    }

    #[test]
    fn packed_running_counts_equal_the_reference_for_both_key_shapes() {
        // n = 12 packs a k = 3 prefix whole into its key (4 bits an id);
        // at n = 40 the key holds ten ids (6 bits each): k = 10 fits
        // exactly (and the certain bounds pin it), while k = 11 and 12
        // chain the prefixes sharing the ten certain leaders and tell them
        // apart by their tails.
        let cold = table(12, 0.9);
        let head = certain_head_table();
        for (t, k, eps) in [
            (&cold, 3, 0.03),
            (&head, 10, 0.05),
            (&head, 11, 0.05),
            (&head, 12, 0.08),
        ] {
            let layout = PackedKey::new(k, t.len());
            assert_eq!(layout.packed == k, k <= 10, "k = {k}");
            let (ps, report) = Engine::MonteCarlo(McConfig::adaptive(eps, 0.05, 21))
                .build_with_report(t, k, None)
                .unwrap();
            let (reference, ref_report) = build_adaptive_reference(t, k, eps, 0.05, 21).unwrap();
            assert!(
                report.same_outcome(&ref_report),
                "k = {k}: {report:?} vs {ref_report:?}"
            );
            assert_eq!(report.worlds_drawn == 0, k == 10, "k = {k}");
            assert_eq!(ps.len(), reference.len(), "k = {k}");
            for (a, b) in ps.paths().iter().zip(reference.paths()) {
                assert_eq!(a.items, b.items, "k = {k}");
                assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "k = {k}");
            }
            if let (AdaptiveSample::Sampled { paths, .. }, _) =
                sample_adaptive(t, k, eps, 0.05, 21, None).unwrap()
            {
                assert_eq!(paths, ps, "k = {k}");
            }
        }
    }

    #[test]
    fn fixed_sample_counts_equal_the_cached_grouping() {
        let t = UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(0.1 * i as f64, 0.6).unwrap())
                .collect(),
        )
        .unwrap();
        let wide = certain_head_table();
        for (t, k, m, seed) in [
            (&t, 1, 1, 3),
            (&t, 2, 700, 4),
            (&t, 4, 1500, 5),
            (&t, 6, 300, 6),
            (&wide, 10, 400, 7),
            (&wide, 12, 400, 8),
        ] {
            // The oracle is the full sample of the same seed: every world's
            // whole ranking, grouped at depth k.
            let (worlds, paths) = sample_fixed(t, k, m, seed).unwrap();
            let full = WorldSample::sample(t, m, seed).unwrap();
            assert_eq!(worlds.len(), m);
            for w in 0..m {
                assert_eq!(worlds.prefix(w), full.prefix(w)[..k], "world {w}");
            }
            let grouped = WorldModel::new(Arc::new(full)).path_set_cached(k).unwrap();
            assert_eq!(paths, grouped);
            assert!(paths
                .paths()
                .iter()
                .zip(grouped.paths())
                .all(|(a, b)| a.prob.to_bits() == b.prob.to_bits()));
        }
        assert!(matches!(
            sample_fixed(&t, 7, 10, 1),
            Err(TpoError::InvalidK { k: 7, n: 6 })
        ));
        assert!(sample_fixed(&t, 2, 0, 1).is_err());
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
        let (worlds, paths) = match sample {
            AdaptiveSample::Sampled { worlds, paths } => (worlds, paths),
            AdaptiveSample::Pinned(_) => panic!("iid-ish table cannot pin"),
        };
        assert_eq!(worlds.len(), report.worlds_drawn);
        let one_shot = WorldSample::sample_to_depth(&t, 2, report.worlds_drawn, 11).unwrap();
        assert_eq!(one_shot, *worlds);
        // Each world's prefix heads the full ranking the same seed draws,
        // and the handed-over path set is their grouping.
        let full = WorldSample::sample(&t, report.worlds_drawn, 11).unwrap();
        for w in 0..worlds.len() {
            assert_eq!(worlds.prefix(w), full.prefix(w)[..2], "world {w}");
        }
        assert_eq!(
            paths,
            WorldModel::new(Arc::new(full)).path_set_cached(2).unwrap()
        );
    }
}
