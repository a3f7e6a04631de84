//! Expected residual uncertainty (§III): the objective all question
//! selection strategies optimize.
//!
//! For a single question `q`, the expected residual uncertainty is
//!
//! ```text
//! R_q(T_K) = P(yes) · U(T_K | yes) + P(no) · U(T_K | no)
//! ```
//!
//! For a question *set* `Q` the expectation runs over joint answer
//! outcomes. Enumerating all `2^|Q|` outcomes is infeasible, but the
//! outcomes partition the path set into *answer-signature classes*
//! ([`AnswerPartition`]), and two sound prunings keep the class count
//! small:
//!
//! * a class with a single ordering is resolved — every measure assigns it
//!   zero uncertainty (a trait contract of
//!   [`UncertaintyMeasure`]), so it can be dropped outright;
//! * a question that no path of a class determines splits the class into
//!   two scaled copies whose contributions sum to the original — such
//!   questions are skipped for that class.
//!
//! The incremental partition is also what makes the conditional greedy
//! algorithm `C-off` cheap: the partition of the already-selected set is
//! refined once per round, and each candidate is scored with a one-step
//! lookahead over the existing classes (DESIGN.md §4).
//!
//! ## Hot-path representation
//!
//! This module is the inner loop of every `TB-off`/`T1-on`/`C-off`/`A*`
//! selection (DESIGN.md §8). The root path set is indexed once
//! (`PrefixIndex`: items flattened, plus the path set's own
//! [`PrefixGroups`] — each path's rank in items order and a dense
//! prefix-group id per path and level — shared behind its `Arc`, never
//! regrouped), and a class is a list of
//! `(root position, scaled probability)` members — a split copies
//! indices, never item vectors. The entropy measures score a class
//! straight from the index through [`ClassEval`]: a counting sort into
//! items order for the normalizing total, one sort by probability, and
//! dense per-level group sums — the float operations of building the
//! class's `PathSet`, in the same order. The other measures materialize
//! the class. Class uncertainties are memoized, so unsplit classes are
//! never re-evaluated. All of it is bit-identical to the materializing
//! evaluation (pinned by proptests against the test-only
//! `AnswerPartition::expected_uncertainty_reference`).
//!
//! ## Chain-rule scoring
//!
//! For the entropy measures, which are weighted sums of level entropies
//! ([`UncertaintyMeasure::level_entropy_weights`]), the one-step lookahead
//! is a conditional entropy: `H(X_ℓ | A) = H(X_ℓ) − h(p) + Σ_g P(g) ·
//! h(P(yes | g))`. [`AnswerPartition::estimate_with_questions`] evaluates
//! it for a whole batch of candidates in one pass per class. The pass
//! visits the class's members once, in items order, where every level's
//! prefix groups are contiguous runs. It derives each candidate's answer
//! kind per member, and keeps per level one open run (group mass, and per
//! candidate a yes-mass and a union of answer kinds) that is flushed when
//! the level's group id changes. No class is split or sorted, no
//! groups × candidates block is built, and only groups that mix answers
//! take a logarithm. Each estimate depends only on its own question, so it
//! is the same alone or in any batch. It agrees with
//! [`AnswerPartition::expected_with_question`] to about 1e-13, not bit for
//! bit, so the selectors use it only to rank candidates: they score
//! exactly just the candidates whose estimate can decide the pick, and
//! pick from those exact scores (DESIGN.md §4, §8).

use crate::measures::UncertaintyMeasure;
use ctk_crowd::Question;
use ctk_prob::compare::PairwiseMatrix;
use ctk_tpo::answers::{implication, Implication};
use ctk_tpo::stats::PrefixGroups;
#[cfg(test)]
use ctk_tpo::Path;
use ctk_tpo::PathSet;
use std::cell::Cell;
use std::cmp::Reverse;
use std::sync::Arc;

/// Minimum class mass worth tracking (classes below this carry no
/// measurable expectation weight).
const MASS_EPS: f64 = 1e-12;

/// Everything needed to evaluate residual uncertainty: the measure and the
/// pairwise marginals used to split paths that leave a question
/// undetermined.
pub struct ResidualCtx<'a> {
    /// The uncertainty measure `U`.
    pub measure: &'a dyn UncertaintyMeasure,
    /// Marginal pairwise probabilities `P(s_i > s_j)`.
    pub pairwise: &'a PairwiseMatrix,
}

impl<'a> ResidualCtx<'a> {
    /// Marginal `P(i above j)` used for undetermined splits.
    pub fn prior(&self, i: u32, j: u32) -> f64 {
        self.pairwise.pr(i as usize, j as usize)
    }
}

/// Probability that the crowd answers “yes” to `q` under the current path
/// distribution (undetermined paths weighted by the marginal prior).
pub fn answer_probability(ps: &PathSet, q: &Question, ctx: &ResidualCtx<'_>) -> f64 {
    let prior = ctx.prior(q.i, q.j);
    ps.paths()
        .iter()
        .map(|p| {
            p.prob
                * match implication(&p.items, q.i, q.j) {
                    Implication::Yes => 1.0,
                    Implication::No => 0.0,
                    Implication::Undetermined => prior,
                }
        })
        .sum()
}

/// The root path set of a partition, addressed by position: flattened
/// items plus the prefix groups every class evaluation reads (the path
/// set's own, not regrouped). Built once per partition and shared by its
/// clones.
#[derive(Debug)]
struct PrefixIndex {
    k: usize,
    /// Path `p`'s items are `items[starts[p]..starts[p + 1]]`.
    items: Vec<u32>,
    starts: Vec<usize>,
    /// The root path set's own groups, shared with it.
    groups: Arc<PrefixGroups>,
    /// One past the largest tuple id on any path.
    tuples: usize,
    /// Every path has the same length and no ordering repeats — what the
    /// chain-rule estimate needs (every class has the root's depth, and
    /// the leaf level is the ordering distribution).
    uniform: bool,
}

impl PrefixIndex {
    fn new(ps: &PathSet) -> Self {
        let mut items = Vec::with_capacity(ps.len() * ps.k());
        let mut starts = Vec::with_capacity(ps.len() + 1);
        starts.push(0);
        for p in ps.paths() {
            items.extend_from_slice(&p.items);
            starts.push(items.len());
        }
        let groups = Arc::clone(ps.prefix_groups());
        let depth = groups.depth();
        let uniform = ps.paths().iter().all(|p| p.items.len() == depth)
            && (depth == 0 || groups.count(depth - 1) == ps.len());
        let tuples = items.iter().max().map_or(0, |&t| t as usize + 1);
        Self {
            k: ps.k(),
            items,
            starts,
            groups,
            tuples,
            uniform,
        }
    }

    /// Number of root paths.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    fn items(&self, p: u32) -> &[u32] {
        let p = p as usize;
        &self.items[self.starts[p]..self.starts[p + 1]]
    }
}

/// One path of a class: its position in the root path set and its scaled
/// (unnormalized) probability.
#[derive(Debug, Clone, Copy)]
struct Member {
    path: u32,
    prob: f64,
}

/// One answer-signature class: a set of weighted paths consistent with one
/// joint answer outcome (mass = outcome probability; paths unnormalized).
/// Members keep the root path set's order.
#[derive(Debug, Clone)]
struct Class {
    members: Vec<Member>,
    mass: f64,
    /// Lazily memoized `U(class)`; classes are immutable once built, so
    /// the memo stays valid for the class's lifetime.
    memo: Cell<Option<f64>>,
}

impl Class {
    fn new(members: Vec<Member>, mass: f64) -> Self {
        Self {
            members,
            mass,
            memo: Cell::new(None),
        }
    }

    /// Resolved (single-ordering) and massless classes carry zero
    /// uncertainty under every measure.
    fn is_trivial(&self) -> bool {
        self.members.len() <= 1 || self.mass <= MASS_EPS
    }

    fn uncertainty(
        &self,
        measure: &dyn UncertaintyMeasure,
        index: &PrefixIndex,
        buffers: &mut EvalBuffers,
    ) -> f64 {
        if self.is_trivial() {
            return 0.0;
        }
        if let Some(u) = self.memo.get() {
            return u;
        }
        let u = measure.class_uncertainty(&mut ClassEval {
            index,
            members: &self.members,
            buffers,
        });
        self.memo.set(Some(u));
        u
    }

    /// The materializing evaluation (fresh `PathSet` with copied items, no
    /// memo) — the test-only reference the index kernel must match bit for
    /// bit.
    #[cfg(test)]
    fn uncertainty_reference(&self, measure: &dyn UncertaintyMeasure, index: &PrefixIndex) -> f64 {
        if self.is_trivial() {
            return 0.0;
        }
        let set = materialize(index, &self.members).expect("positive-mass class"); // ctk-allow(panic-unwrap): is_trivial() checked the class mass > 0
        measure.uncertainty(&set)
    }
}

/// The class as a fresh `PathSet` (normalized and sorted by
/// [`PathSet::from_weighted`]).
fn materialize(index: &PrefixIndex, members: &[Member]) -> ctk_tpo::Result<PathSet> {
    PathSet::from_weighted(
        index.k,
        members
            .iter()
            .map(|m| (index.items(m.path).to_vec(), m.prob))
            .collect(),
    )
}

/// Buffers reused by every class evaluation of a partition.
#[derive(Debug, Default)]
struct EvalBuffers {
    /// `(root position, prob)` of the class being evaluated, normalized
    /// and in descending probability.
    sorted: Vec<(u32, f64)>,
    /// Member probabilities by items rank, and a bitset of the ranks
    /// present: a counting sort into items order. Only `present` is clear
    /// between evaluations; `by_rank` keeps stale probabilities at every
    /// rank some earlier class used, and is read only at present ranks.
    by_rank: Vec<f64>,
    present: Vec<u64>,
    /// Per-group sums of one level, indexed by group id; all zero between
    /// levels.
    sums: Vec<f64>,
    /// Whether a group has been touched at the current level; all false
    /// between levels.
    seen: Vec<bool>,
    /// Group ids touched at the current level, in first-touch order.
    touched: Vec<u32>,
    /// The current level's distribution.
    level: Vec<f64>,
}

/// One class of an [`AnswerPartition`], as an uncertainty measure sees it
/// (see [`UncertaintyMeasure::class_uncertainty`]).
///
/// Every view reproduces what building the class's `PathSet` would
/// produce, float operation for float operation: drop zero weights, sum
/// the rest in items order, divide each by that total, and order the
/// result by descending probability.
pub struct ClassEval<'a> {
    index: &'a PrefixIndex,
    members: &'a [Member],
    buffers: &'a mut EvalBuffers,
}

impl ClassEval<'_> {
    /// The class as a normalized `PathSet` — the fallback for measures
    /// without an index kernel. Errs only on a class without mass, which
    /// partitions never evaluate.
    pub fn path_set(&self) -> ctk_tpo::Result<PathSet> {
        materialize(self.index, self.members)
    }

    /// Length of the class's longest ordering (its tree depth).
    pub fn depth(&self) -> usize {
        self.members
            .iter()
            .filter(|m| m.prob > 0.0)
            .map(|m| self.index.items(m.path).len())
            .max()
            .unwrap_or(0)
    }

    /// Normalizes the class into `buffers.sorted`.
    fn normalize(&mut self) {
        let groups = &self.index.groups;
        let EvalBuffers {
            sorted,
            by_rank,
            present,
            ..
        } = &mut *self.buffers;
        let n = self.index.len();
        if by_rank.len() < n {
            by_rank.resize(n, 0.0);
            present.resize(n.div_ceil(64), 0);
        }
        sorted.clear();
        for m in self.members.iter().filter(|m| m.prob > 0.0) {
            let r = groups.rank(m.path as usize);
            by_rank[r as usize] = m.prob;
            present[r as usize / 64] |= 1 << (r % 64);
            sorted.push((m.path, m.prob));
        }
        // The total in items order: walk the present ranks upwards. Folding
        // from -0.0 is `Iterator::sum`.
        let mut total = -0.0;
        for (w, word) in present.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                total += by_rank[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        for e in sorted.iter_mut() {
            e.1 /= total;
        }
        // Descending; on non-negative floats comparing bits is `total_cmp`.
        // `PathSet` breaks ties by items, but tied paths contribute equal
        // terms to every sum the measures take, so their order cannot
        // change a bit.
        sorted.sort_unstable_by_key(|e| Reverse(e.1.to_bits()));
    }

    /// The normalized ordering probabilities, in `PathSet::paths()` order.
    pub fn probs(&mut self) -> impl Iterator<Item = f64> + '_ {
        self.normalize();
        self.buffers.sorted.iter().map(|e| e.1)
    }

    /// Calls `f(level, probs)` for each 0-based level below
    /// [`ClassEval::depth`], with the level's prefix distribution sorted
    /// descending — the values `ctk_tpo::stats::level_distributions`
    /// returns for the class's `PathSet`.
    pub fn for_each_level(&mut self, mut f: impl FnMut(usize, &[f64])) {
        let depth = self.depth();
        self.normalize();
        let groups = &self.index.groups;
        let EvalBuffers {
            sorted,
            sums,
            seen,
            touched,
            level,
            ..
        } = &mut *self.buffers;
        debug_assert!(
            sums.iter().all(|s| s.to_bits() == 0) && !seen.contains(&true),
            "group sums must be clear on entry"
        );
        for l in 0..depth {
            level.clear();
            if groups.count(l) == self.index.len() {
                // Every root path is alone at this level, so the groups are
                // the paths and `sorted` is already in descending order.
                level.extend(sorted.iter().map(|e| e.1));
                f(l, level);
                continue;
            }
            if sums.len() < groups.count(l) {
                sums.resize(groups.count(l), 0.0);
                seen.resize(groups.count(l), false);
            }
            touched.clear();
            // Accumulate in path order, as a prefix-keyed map would.
            for &(p, prob) in sorted.iter() {
                let g = groups.id(p as usize, l);
                if !std::mem::replace(&mut seen[g], true) {
                    touched.push(g as u32);
                }
                sums[g] += prob;
            }
            level.extend(touched.iter().map(|&g| {
                seen[g as usize] = false;
                std::mem::take(&mut sums[g as usize])
            }));
            level.sort_unstable_by_key(|p| Reverse(p.to_bits()));
            f(l, level);
        }
    }
}

/// The joint-answer partition of a path set after conditioning on a
/// sequence of questions.
///
/// Cloning shares the root's prefix index, so a search can branch one
/// root into many refinements without re-indexing.
pub struct AnswerPartition {
    index: Arc<PrefixIndex>,
    /// Unresolved classes only (resolved single-ordering classes carry zero
    /// uncertainty under every measure and are dropped eagerly).
    classes: Vec<Class>,
    buffers: EvalBuffers,
    estimate: EstimateBuffers,
}

impl Clone for AnswerPartition {
    fn clone(&self) -> Self {
        Self {
            index: Arc::clone(&self.index),
            classes: self.classes.clone(),
            buffers: EvalBuffers::default(),
            estimate: EstimateBuffers::default(),
        }
    }
}

impl AnswerPartition {
    /// The trivial partition: one class holding the whole path set. The
    /// path set is indexed here, once; every later split shares it.
    pub fn root(ps: &PathSet) -> Self {
        let mass: f64 = ps.paths().iter().map(|p| p.prob).sum();
        let classes = if ps.len() <= 1 {
            Vec::new()
        } else {
            let members = ps
                .paths()
                .iter()
                .enumerate()
                .map(|(p, path)| Member {
                    path: p as u32,
                    prob: path.prob,
                })
                .collect();
            vec![Class::new(members, mass)]
        };
        Self {
            index: Arc::new(PrefixIndex::new(ps)),
            classes,
            buffers: EvalBuffers::default(),
            estimate: EstimateBuffers::default(),
        }
    }

    /// The root's prefix groups.
    #[cfg(test)]
    pub(crate) fn prefix_groups(&self) -> &Arc<PrefixGroups> {
        &self.index.groups
    }

    /// Number of live (unresolved) classes.
    #[cfg(test)]
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Expected uncertainty over the partition:
    /// `Σ_class P(class) · U(class)`.
    pub fn expected_uncertainty(&mut self, measure: &dyn UncertaintyMeasure) -> f64 {
        // `.sum()` (not a hand-rolled accumulator): f64's `Sum` folds from
        // -0.0, and bit-identity with the pre-rewrite implementation
        // includes the sign of zero on fully resolved partitions.
        let Self {
            index,
            classes,
            buffers,
            ..
        } = self;
        classes
            .iter()
            .map(|c| c.mass * c.uncertainty(measure, index, buffers))
            .sum()
    }

    /// The materializing evaluation (fresh `PathSet` per class, copied
    /// items, no memo). Test-only: the reference the index kernel is
    /// pinned against.
    #[cfg(test)]
    pub(crate) fn expected_uncertainty_reference(&self, measure: &dyn UncertaintyMeasure) -> f64 {
        self.classes
            .iter()
            .map(|c| c.mass * c.uncertainty_reference(measure, &self.index))
            .sum()
    }

    /// Expected uncertainty after additionally asking `q` (one-step
    /// lookahead; the partition's classes are not modified — only the
    /// per-class memo and the evaluation buffers, which is why this takes
    /// `&mut self`).
    pub fn expected_with_question(&mut self, q: &Question, ctx: &ResidualCtx<'_>) -> f64 {
        let Self {
            index,
            classes,
            buffers,
            ..
        } = self;
        lookahead(index, classes, q, ctx, |c| {
            c.uncertainty(ctx.measure, index, buffers)
        })
    }

    /// [`AnswerPartition::expected_with_question`] for every candidate in
    /// `qs` at once, by the chain rule of entropy, for measures that are
    /// weighted sums of level entropies
    /// ([`UncertaintyMeasure::level_entropy_weights`]): no class is split
    /// or sorted, and each class's members are read once for the whole
    /// batch. On success `out` holds one estimate per question, in `qs`
    /// order, and the call returns `true`.
    ///
    /// Answering `q` turns a class's level-`ℓ` prefix distribution `X_ℓ`
    /// into `X_ℓ | A`, and `H(X_ℓ | A) = H(X_ℓ) − h(p) + Σ_g P(g) ·
    /// h(P(yes | g))`, where `h` is the binary entropy, `p` the class's
    /// answer probability and `g` runs over the level's prefix groups. So
    /// a class of mass `m_c` contributes
    /// `m_c · [U(c) − h(p) · Σ_ℓ w_ℓ] + Σ_ℓ w_ℓ Σ_g m_g · h(y_g / m_g)`,
    /// with `m_g`, `y_g` the group's mass and yes-mass. `U(c)` comes from
    /// the class memo; a group whose paths all answer alike adds 0, and a
    /// level whose groups are single paths adds
    /// `w_ℓ · (undetermined mass) · h(prior)`.
    ///
    /// Each estimate depends only on its own question: it is bit for bit
    /// the same whether `q` is scored alone or inside any batch, in any
    /// order. It equals the exact lookahead up to rounding and the
    /// children below `MASS_EPS` that the exact lookahead drops (both far
    /// below the selectors' `EST_MARGIN`). Returns `false`, with `out`
    /// empty, when the measure has no level weights, or when the root's
    /// orderings differ in length or repeat one another.
    pub fn estimate_with_questions(
        &mut self,
        qs: &[Question],
        ctx: &ResidualCtx<'_>,
        out: &mut Vec<f64>,
    ) -> bool {
        out.clear();
        let Self {
            index,
            classes,
            buffers,
            estimate,
        } = self;
        if !index.uniform {
            return false;
        }
        let Some(weights) = ctx.measure.level_entropy_weights(index.groups.depth()) else {
            return false;
        };
        let weight_sum: f64 = weights.iter().sum();
        let single = estimate.plan(index, &weights, qs, ctx);
        out.resize(qs.len(), 0.0);
        for class in classes.iter() {
            let u = class.uncertainty(ctx.measure, index, buffers);
            estimate.scan(index, class, qs);
            let EstimateBuffers {
                h_priors,
                class_yes,
                class_open,
                class_kinds,
                terms,
                ..
            } = &*estimate;
            for (c, acc) in out.iter_mut().enumerate() {
                if class_kinds[c] & (YES | NO) == 0 {
                    // `qs[c]` leaves the class whole.
                    *acc += class.mass * u;
                    continue;
                }
                let h_prior = h_priors[c];
                *acc += class.mass * (u - binary_entropy(class_yes[c] / class.mass) * weight_sum)
                    + single * class_open[c] * h_prior
                    + (terms[c].mixed + terms[c].open_groups * h_prior);
            }
        }
        true
    }

    /// [`AnswerPartition::expected_with_question`] through the
    /// materializing evaluation — the test-only reference for selector
    /// tests.
    #[cfg(test)]
    pub(crate) fn expected_with_question_reference(
        &self,
        q: &Question,
        ctx: &ResidualCtx<'_>,
    ) -> f64 {
        lookahead(&self.index, &self.classes, q, ctx, |c| {
            c.uncertainty_reference(ctx.measure, &self.index)
        })
    }

    /// Conditions the partition on `q` (splits every class by the answer).
    pub fn refine(&mut self, q: &Question, ctx: &ResidualCtx<'_>) {
        let prior = ctx.prior(q.i, q.j);
        let mut next = Vec::with_capacity(self.classes.len() + 4);
        for class in self.classes.drain(..) {
            let (yes, no, split) = split_class(&self.index, &class, q, prior);
            if !split {
                next.push(class);
                continue;
            }
            next.extend(
                [yes, no]
                    .into_iter()
                    .flatten()
                    .filter(|c| c.members.len() > 1),
            );
        }
        self.classes = next;
    }
}

/// Binary entropy `h(x)` in nats; 0 outside `(0, 1)`.
fn binary_entropy(x: f64) -> f64 {
    if x <= 0.0 || x >= 1.0 {
        return 0.0;
    }
    -(x * x.ln() + (1.0 - x) * (1.0 - x).ln())
}

/// Scratch of [`AnswerPartition::estimate_with_questions`], apart from the
/// class evaluation's; reused across calls.
///
/// A class is visited in items order (its members' ranks in
/// `PrefixGroups`), where each level's prefix groups are contiguous runs.
/// The members themselves keep root order, which fixes the bits of class
/// masses and of the exact lookahead; the visit goes through a
/// permutation instead. Each planned level keeps one open run: its group
/// mass, and per candidate a yes-mass and a union of answer kinds. A
/// level's run is flushed into the candidates' group terms when its group
/// id changes, so a run never spans more than one group.
#[derive(Debug, Default)]
struct EstimateBuffers {
    /// Each weighted level that needs group sums, with its open run.
    levels: Vec<LevelRun>,
    /// Per candidate: its prior and `h(prior)`.
    priors: Vec<f64>,
    h_priors: Vec<f64>,
    /// Per candidate, over the current class: yes-mass (determined yes,
    /// plus the prior's share of open paths), undetermined mass, and the
    /// union of the members' answer kinds.
    class_yes: Vec<f64>,
    class_open: Vec<f64>,
    class_kinds: Vec<u8>,
    /// Per candidate: the current class's flushed group terms.
    terms: Vec<GroupTerms>,
    /// Per level and candidate (`level · candidates + candidate`): the open
    /// run's weighted yes-mass and union of answer kinds; all zero outside
    /// a run.
    run_yes: Vec<f64>,
    run_kinds: Vec<u8>,
    /// Per candidate: the current member's answer kind and yes-mass.
    kinds: Vec<u8>,
    ys: Vec<f64>,
    /// `pos[t]`: rank of tuple `t` on the current member's ordering,
    /// `ABSENT` off it (and between members).
    pos: Vec<u32>,
    /// Member index by items rank, and a bitset of the ranks present: a
    /// counting sort of the class into items order. Only `present` is
    /// clear between classes.
    by_rank: Vec<u32>,
    present: Vec<u64>,
}

/// A weighted level whose groups are not single root paths.
#[derive(Debug, Clone, Copy)]
struct LevelRun {
    level: usize,
    weight: f64,
    /// Group id of the open run, `NO_RUN` before a class's first member.
    group: usize,
    /// Weighted mass of the open run.
    mass: f64,
}

const NO_RUN: usize = usize::MAX;

/// One candidate's group terms over a class.
#[derive(Debug, Default, Clone, Copy)]
struct GroupTerms {
    /// `Σ m_g · h(y_g / m_g)` over the flushed groups that mix answers.
    mixed: f64,
    /// Mass of the flushed groups whose paths are all open.
    open_groups: f64,
}

/// Answer kinds of a path: `q` determines yes, determines no, or leaves
/// it open (yes with the prior).
const YES: u8 = 1;
const NO: u8 = 2;
const OPEN: u8 = 4;

/// A tuple off the ordering: it ranks below every present one.
const ABSENT: u32 = u32::MAX;

impl EstimateBuffers {
    /// Sets up a batch: splits the weighted levels into those whose groups
    /// are single root paths (returns their total weight: such a level
    /// adds `w · (open mass) · h(prior)`) and those that need group sums
    /// (stored in `levels`), and sizes every buffer.
    fn plan(
        &mut self,
        index: &PrefixIndex,
        weights: &[f64],
        qs: &[Question],
        ctx: &ResidualCtx<'_>,
    ) -> f64 {
        self.levels.clear();
        let mut single = 0.0;
        for (l, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if index.groups.count(l) == index.len() {
                single += w;
            } else {
                self.levels.push(LevelRun {
                    level: l,
                    weight: w,
                    group: NO_RUN,
                    mass: 0.0,
                });
            }
        }
        self.priors.clear();
        self.priors.extend(qs.iter().map(|q| ctx.prior(q.i, q.j)));
        self.h_priors.clear();
        self.h_priors
            .extend(self.priors.iter().map(|&prior| binary_entropy(prior)));
        let c = qs.len();
        self.class_yes.resize(c, 0.0);
        self.class_open.resize(c, 0.0);
        self.class_kinds.resize(c, 0);
        self.terms.resize(c, GroupTerms::default());
        self.run_yes.clear();
        self.run_yes.resize(self.levels.len() * c, 0.0);
        self.run_kinds.clear();
        self.run_kinds.resize(self.levels.len() * c, 0);
        self.kinds.resize(c, 0);
        self.ys.resize(c, 0.0);
        let tuples = qs
            .iter()
            .map(|q| q.i.max(q.j) as usize + 1)
            .fold(index.tuples, usize::max);
        if self.pos.len() < tuples {
            self.pos.resize(tuples, ABSENT);
        }
        let n = index.len();
        if self.by_rank.len() < n {
            self.by_rank.resize(n, 0);
            self.present.resize(n.div_ceil(64), 0);
        }
        single
    }

    /// One pass over `class` in items order: each member's answer kind for
    /// every candidate, its mass and yes-mass added to the candidates'
    /// class sums and to every planned level's open run, and a run flushed
    /// whenever its level's group id changes. Only groups that mix a
    /// determined path with a path answered otherwise need a logarithm: a
    /// group of open paths adds `m_g · h(prior)`, and a group of paths
    /// answered alike adds 0.
    fn scan(&mut self, index: &PrefixIndex, class: &Class, qs: &[Question]) {
        let Self {
            levels,
            priors,
            class_yes,
            class_open,
            class_kinds,
            terms,
            run_yes,
            run_kinds,
            kinds,
            ys,
            pos,
            by_rank,
            present,
            ..
        } = self;
        class_yes.fill(0.0);
        class_open.fill(0.0);
        class_kinds.fill(0);
        terms.fill(GroupTerms::default());
        for (k, m) in class.members.iter().enumerate() {
            let r = index.groups.rank(m.path as usize) as usize;
            by_rank[r] = k as u32;
            present[r / 64] |= 1 << (r % 64);
        }
        // One chunk of `run_yes`/`run_kinds` per level.
        let chunk = qs.len().max(1);
        for (w, word) in present.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let m = class.members[by_rank[w * 64 + bits.trailing_zeros() as usize] as usize];
                bits &= bits - 1;
                let items = index.items(m.path);
                for (r, &t) in items.iter().enumerate() {
                    pos[t as usize] = r as u32;
                }
                // Membership semantics of `implication`: an absent tuple
                // ranks below every present one; both absent leaves `q`
                // open.
                for (kind, q) in kinds.iter_mut().zip(qs) {
                    *kind = match pos[q.i as usize].cmp(&pos[q.j as usize]) {
                        std::cmp::Ordering::Less => YES,
                        std::cmp::Ordering::Greater => NO,
                        std::cmp::Ordering::Equal => OPEN,
                    };
                }
                for &t in items {
                    pos[t as usize] = ABSENT;
                }
                for (((y, &kind), &prior), (yes, open)) in ys
                    .iter_mut()
                    .zip(kinds.iter())
                    .zip(priors.iter())
                    .zip(class_yes.iter_mut().zip(class_open.iter_mut()))
                {
                    // `m.prob · P(yes | kind)`.
                    *y = m.prob
                        * match kind {
                            YES => 1.0,
                            OPEN => prior,
                            _ => 0.0,
                        };
                    *yes += *y;
                    *open += if kind == OPEN { m.prob } else { 0.0 };
                }
                for (seen, &kind) in class_kinds.iter_mut().zip(kinds.iter()) {
                    *seen |= kind;
                }
                for ((lv, run_yes), run_kinds) in levels
                    .iter_mut()
                    .zip(run_yes.chunks_exact_mut(chunk))
                    .zip(run_kinds.chunks_exact_mut(chunk))
                {
                    let g = index.groups.id(m.path as usize, lv.level);
                    if g != lv.group {
                        if lv.group != NO_RUN {
                            flush(lv, run_yes, run_kinds, terms);
                        }
                        lv.group = g;
                    }
                    lv.mass += lv.weight * m.prob;
                    for (s, &y) in run_yes.iter_mut().zip(ys.iter()) {
                        *s += lv.weight * y;
                    }
                    for (s, &kind) in run_kinds.iter_mut().zip(kinds.iter()) {
                        *s |= kind;
                    }
                }
            }
        }
        for ((lv, run_yes), run_kinds) in levels
            .iter_mut()
            .zip(run_yes.chunks_exact_mut(chunk))
            .zip(run_kinds.chunks_exact_mut(chunk))
        {
            if lv.group != NO_RUN {
                flush(lv, run_yes, run_kinds, terms);
                lv.group = NO_RUN;
            }
        }
    }
}

/// Closes a level's open run: each candidate's group term goes into its
/// class terms, and the run's sums return to zero.
fn flush(lv: &mut LevelRun, run_yes: &mut [f64], run_kinds: &mut [u8], terms: &mut [GroupTerms]) {
    let mass = std::mem::take(&mut lv.mass);
    for ((yes, kinds), terms) in run_yes.iter_mut().zip(run_kinds.iter_mut()).zip(terms) {
        let yes = std::mem::take(yes);
        match std::mem::take(kinds) {
            YES | NO => {}
            OPEN => terms.open_groups += mass,
            _ => terms.mixed += mass * binary_entropy(yes / mass),
        }
    }
}

/// `Σ_class P(class) · U(class)` after splitting every class by `q`, with
/// `eval` scoring one class.
fn lookahead(
    index: &PrefixIndex,
    classes: &[Class],
    q: &Question,
    ctx: &ResidualCtx<'_>,
    mut eval: impl FnMut(&Class) -> f64,
) -> f64 {
    let prior = ctx.prior(q.i, q.j);
    let mut acc = 0.0;
    for class in classes {
        let (yes, no, split) = split_class(index, class, q, prior);
        if !split {
            acc += class.mass * eval(class);
            continue;
        }
        for c in [yes, no].iter().flatten() {
            acc += c.mass * eval(c);
        }
    }
    acc
}

/// Splits a class by a question. Returns `(yes, no, split)`; `split` is
/// false when the question does not determine any path of the class (the
/// class would just be scaled into two copies — a no-op for the
/// expectation). Members keep the parent's order.
fn split_class(
    index: &PrefixIndex,
    class: &Class,
    q: &Question,
    prior: f64,
) -> (Option<Class>, Option<Class>, bool) {
    let mut determined = false;
    let mut yes = Vec::with_capacity(class.members.len());
    let mut no = Vec::with_capacity(class.members.len());
    for m in &class.members {
        match implication(index.items(m.path), q.i, q.j) {
            Implication::Yes => {
                determined = true;
                yes.push(*m);
            }
            Implication::No => {
                determined = true;
                no.push(*m);
            }
            Implication::Undetermined => {
                if prior > 0.0 {
                    yes.push(Member {
                        prob: m.prob * prior,
                        ..*m
                    });
                }
                if prior < 1.0 {
                    no.push(Member {
                        prob: m.prob * (1.0 - prior),
                        ..*m
                    });
                }
            }
        }
    }
    if !determined {
        return (None, None, false);
    }
    let wrap = |members: Vec<Member>| -> Option<Class> {
        let mass: f64 = members.iter().map(|m| m.prob).sum();
        (mass > MASS_EPS).then_some(Class::new(members, mass))
    };
    (wrap(yes), wrap(no), true)
}

/// Expected residual uncertainty after asking a single question.
pub fn expected_residual_single(ps: &PathSet, q: &Question, ctx: &ResidualCtx<'_>) -> f64 {
    AnswerPartition::root(ps).expected_with_question(q, ctx)
}

/// Expected residual uncertainty after asking all questions in `qs`
/// (answers assumed reliable; the expectation is over the joint answer
/// distribution induced by the current path set).
pub fn expected_residual_set(ps: &PathSet, qs: &[Question], ctx: &ResidualCtx<'_>) -> f64 {
    let mut partition = AnswerPartition::root(ps);
    for q in qs {
        partition.refine(q, ctx);
    }
    partition.expected_uncertainty(ctx.measure)
}

/// Test-only reference that enumerates all `2^|Q|` answer outcomes —
/// exponential, used to validate the partition algorithm.
#[cfg(test)]
pub(crate) fn expected_residual_set_bruteforce(
    ps: &PathSet,
    qs: &[Question],
    ctx: &ResidualCtx<'_>,
) -> f64 {
    let m = qs.len();
    assert!(m <= 20, "brute force limited to 20 questions");
    let mut total = 0.0;
    for mask in 0u32..(1u32 << m) {
        // Outcome: bit b set => answer to qs[b] is "yes".
        let mut class: Vec<Path> = ps.paths().to_vec();
        for (b, q) in qs.iter().enumerate() {
            let yes = mask & (1 << b) != 0;
            let prior = ctx.prior(q.i, q.j);
            class = class
                .into_iter()
                .filter_map(|p| {
                    let factor = match implication(&p.items, q.i, q.j) {
                        Implication::Yes => {
                            if yes {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        Implication::No => {
                            if yes {
                                0.0
                            } else {
                                1.0
                            }
                        }
                        Implication::Undetermined => {
                            if yes {
                                prior
                            } else {
                                1.0 - prior
                            }
                        }
                    };
                    let mass = p.prob * factor;
                    (mass > 0.0).then_some(Path {
                        items: p.items,
                        prob: mass,
                    })
                })
                .collect();
        }
        let mass: f64 = class.iter().map(|p| p.prob).sum();
        if mass > MASS_EPS {
            let set = PathSet::from_weighted(
                ps.k(),
                class.into_iter().map(|p| (p.items, p.prob)).collect(),
            )
            .expect("positive mass"); // ctk-allow(panic-unwrap): guarded by the mass > MASS_EPS branch
            total += mass * ctx.measure.uncertainty(&set);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{Entropy, MeasureKind};
    use ctk_prob::{ScoreDist, UncertainTable};

    fn table3() -> UncertainTable {
        UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.1, 1.1).unwrap(),
            ScoreDist::uniform(0.2, 1.2).unwrap(),
        ])
        .unwrap()
    }

    fn sample() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![0, 2], 0.2), (vec![1, 0], 0.3)],
        )
        .unwrap()
    }

    #[test]
    fn partitions_share_the_path_sets_prefix_groups() {
        // The root indexes the path set's own groups, and clones of the
        // root share them: nothing regroups.
        let s = sample();
        let root = AnswerPartition::root(&s);
        assert!(Arc::ptr_eq(root.prefix_groups(), s.prefix_groups()));
        assert!(Arc::ptr_eq(root.clone().prefix_groups(), s.prefix_groups()));
        assert!(Arc::ptr_eq(
            AnswerPartition::root(&s.clone()).prefix_groups(),
            s.prefix_groups()
        ));
    }

    #[test]
    fn answer_probability_membership_semantics() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let p = answer_probability(&sample(), &Question::new(0, 1), &ctx);
        // [0,1] yes (0.5) + [0,2] yes (0.2) + [1,0] no => 0.7.
        assert!((p - 0.7).abs() < 1e-12);
        let q = answer_probability(&sample(), &Question::new(1, 0), &ctx);
        assert!((p + q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn residual_of_empty_set_is_current_uncertainty() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        assert!((expected_residual_set(&s, &[], &ctx) - Entropy.uncertainty(&s)).abs() < 1e-12);
    }

    #[test]
    fn informative_question_reduces_expected_entropy() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let r = expected_residual_single(&s, &Question::new(0, 1), &ctx);
        assert!(r < Entropy.uncertainty(&s), "residual {r}");
        let r2 = expected_residual_single(&s, &Question::new(1, 2), &ctx);
        assert!(r2 <= Entropy.uncertainty(&s) + 1e-12);
    }

    #[test]
    fn partition_matches_bruteforce_all_measures() {
        let pw = PairwiseMatrix::compute(&table3());
        let s = sample();
        let qs = [
            Question::new(0, 1),
            Question::new(1, 2),
            Question::new(0, 2),
        ];
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            let fast = expected_residual_set(&s, &qs, &ctx);
            let brute = expected_residual_set_bruteforce(&s, &qs, &ctx);
            assert!(
                (fast - brute).abs() < 1e-9,
                "{}: partition {fast} vs brute {brute}",
                kind.name()
            );
        }
    }

    #[test]
    fn scratch_evaluation_is_bit_identical_to_reference() {
        let pw = PairwiseMatrix::compute(&table3());
        let s = sample();
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            let mut part = AnswerPartition::root(&s);
            for q in [Question::new(0, 1), Question::new(0, 2)] {
                let reference = part.expected_uncertainty_reference(ctx.measure);
                let scratch = part.expected_uncertainty(ctx.measure);
                assert_eq!(
                    scratch.to_bits(),
                    reference.to_bits(),
                    "{}: {scratch} vs {reference}",
                    kind.name()
                );
                // And again, to exercise the memo path.
                assert_eq!(
                    part.expected_uncertainty(ctx.measure).to_bits(),
                    reference.to_bits()
                );
                part.refine(&q, &ctx);
            }
        }
    }

    #[test]
    fn more_questions_never_increase_expected_entropy() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let q1 = [Question::new(0, 1)];
        let q2 = [Question::new(0, 1), Question::new(0, 2)];
        let r1 = expected_residual_set(&s, &q1, &ctx);
        let r2 = expected_residual_set(&s, &q2, &ctx);
        assert!(r2 <= r1 + 1e-12, "conditioning helps: {r2} vs {r1}");
    }

    #[test]
    fn question_order_does_not_matter() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let a = [Question::new(0, 1), Question::new(1, 2)];
        let b = [Question::new(1, 2), Question::new(0, 1)];
        let ra = expected_residual_set(&s, &a, &ctx);
        let rb = expected_residual_set(&s, &b, &ctx);
        assert!((ra - rb).abs() < 1e-12);
    }

    #[test]
    fn lookahead_matches_materialized_refine() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let q = Question::new(0, 2);
        let looked = AnswerPartition::root(&s).expected_with_question(&q, &ctx);
        let mut part = AnswerPartition::root(&s);
        part.refine(&q, &ctx);
        let materialized = part.expected_uncertainty(ctx.measure);
        assert!((looked - materialized).abs() < 1e-12);
    }

    #[test]
    fn chain_rule_estimate_needs_level_weights_and_uniform_orderings() {
        let pw = PairwiseMatrix::compute(&table3());
        // Splits the sample: [0,1] and [1,0] answer yes, [0,2] no.
        let q = Question::new(1, 2);
        let mut out = vec![f64::NAN];
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            let mut part = AnswerPartition::root(&sample());
            let estimated = part.estimate_with_questions(&[q], &ctx, &mut out);
            match m.level_entropy_weights(2) {
                None => assert!(!estimated && out.is_empty(), "{}", kind.name()),
                Some(_) => {
                    let exact = part.expected_with_question(&q, &ctx);
                    assert!(estimated, "entropy measures estimate");
                    assert!((out[0] - exact).abs() < 1e-12, "{} vs {exact}", out[0]);
                }
            }
        }
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        // Orderings of different lengths, and a repeated ordering: the
        // chain rule's level view no longer matches the measure.
        for weighted in [
            vec![(vec![0, 1], 0.5), (vec![2], 0.5)],
            vec![(vec![0, 1], 0.5), (vec![0, 1], 0.2), (vec![1, 0], 0.3)],
        ] {
            let ps = PathSet::from_weighted(2, weighted).unwrap();
            out.push(f64::NAN);
            assert!(!AnswerPartition::root(&ps).estimate_with_questions(&[q], &ctx, &mut out));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn resolved_classes_are_dropped() {
        let pw = PairwiseMatrix::compute(&table3());
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let s = sample();
        let mut part = AnswerPartition::root(&s);
        assert_eq!(part.class_count(), 1);
        // Conditioning on (0,1) splits into {[0,1],[0,2]} and {[1,0]}; the
        // singleton class is dropped.
        part.refine(&Question::new(0, 1), &ctx);
        assert_eq!(part.class_count(), 1);
        // (1,2) separates [0,1] (1 in, 2 out -> yes) from [0,2] (no):
        // both resulting classes are singletons and get dropped.
        part.refine(&Question::new(1, 2), &ctx);
        assert_eq!(part.class_count(), 0);
        assert_eq!(part.expected_uncertainty(ctx.measure), 0.0);
    }
}
