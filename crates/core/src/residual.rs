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
//! (`PrefixIndex`: items flattened, each path's rank in items order, and a
//! dense prefix-group id per path and level), and a class is a list of
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
//! h(P(yes | g))`. [`AnswerPartition::estimate_with_question`] evaluates it
//! in one pass per class: each member's answer kind, and per-level prefix
//! group sums of mass and yes-mass; no class is split or sorted, and only
//! groups that mix answers take a logarithm. It agrees with
//! [`AnswerPartition::expected_with_question`] to about 1e-13, not bit for
//! bit, so the selectors use it only to rank candidates: they score
//! exactly just the candidates whose estimate can decide the pick, and
//! pick from those exact scores (DESIGN.md §4, §8).

use crate::measures::UncertaintyMeasure;
use ctk_crowd::Question;
use ctk_prob::compare::PairwiseMatrix;
use ctk_tpo::answers::{implication, Implication};
use ctk_tpo::stats::PrefixGroups;
use ctk_tpo::{Path, PathSet};
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
/// items plus the prefix groups every class evaluation reads. Built once
/// per partition and shared by its clones.
#[derive(Debug)]
struct PrefixIndex {
    k: usize,
    /// Path `p`'s items are `items[starts[p]..starts[p + 1]]`.
    items: Vec<u32>,
    starts: Vec<usize>,
    groups: PrefixGroups,
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
        let groups = PrefixGroups::new(ps.paths());
        let depth = groups.depth();
        let uniform = ps.paths().iter().all(|p| p.items.len() == depth)
            && (depth == 0 || groups.count(depth - 1) == ps.len());
        Self {
            k: ps.k(),
            items,
            starts,
            groups,
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

    /// Number of live (unresolved) classes.
    pub fn class_count(&self) -> usize {
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

    /// [`AnswerPartition::expected_with_question`] by the chain rule of
    /// entropy, for measures that are weighted sums of level entropies
    /// ([`UncertaintyMeasure::level_entropy_weights`]): no class is split
    /// or sorted.
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
    /// The result equals the exact lookahead up to rounding and the
    /// children below `MASS_EPS` that the exact lookahead drops (both far
    /// below the selectors' `EST_MARGIN`). `None` when the measure has no
    /// level weights, or when the root's orderings differ in length or
    /// repeat one another.
    pub fn estimate_with_question(&mut self, q: &Question, ctx: &ResidualCtx<'_>) -> Option<f64> {
        let Self {
            index,
            classes,
            buffers,
            estimate,
        } = self;
        if !index.uniform {
            return None;
        }
        let weights = ctx.measure.level_entropy_weights(index.groups.depth())?;
        let weight_sum: f64 = weights.iter().sum();
        let single = estimate.plan_levels(index, &weights);
        let prior = ctx.prior(q.i, q.j);
        let h_prior = binary_entropy(prior);
        let mut acc = 0.0;
        for class in classes.iter() {
            let u = class.uncertainty(ctx.measure, index, buffers);
            let Some(scan) = estimate.scan(index, class, q, prior) else {
                // `q` leaves the class whole.
                acc += class.mass * u;
                continue;
            };
            acc += class.mass * (u - binary_entropy(scan.yes / class.mass) * weight_sum)
                + single * scan.open * h_prior
                + scan.groups;
        }
        Some(acc)
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

/// Buffers of [`AnswerPartition::estimate_with_question`], apart from the
/// class evaluation's. Every entry of `groups` is zero between classes.
#[derive(Debug, Default)]
struct EstimateBuffers {
    /// `(offset, level, weight)` of each weighted level that needs group
    /// sums; level `l`'s groups sit at `offset + id` in `groups`.
    levels: Vec<(usize, usize, f64)>,
    /// Weighted per-group sums of every level in `levels`.
    groups: Vec<GroupSums>,
    /// Group slots touched by the current class, each once (written
    /// unconditionally, kept by bumping the length: no branch).
    touched: Vec<u32>,
}

/// One prefix group's sums within one class, scaled by its level weight.
#[derive(Debug, Default, Clone, Copy)]
struct GroupSums {
    mass: f64,
    yes: f64,
    /// Union of the members' answer kinds; 0 while untouched.
    kinds: u8,
}

/// Answer kinds of a path: `q` determines yes, determines no, or leaves
/// it open (yes with the prior).
const YES: u8 = 1;
const NO: u8 = 2;
const OPEN: u8 = 4;

/// One class's sums for a question.
struct ClassScan {
    /// Yes-mass (determined yes, plus the prior's share of open paths).
    yes: f64,
    /// Undetermined mass.
    open: f64,
    /// `Σ_ℓ w_ℓ Σ_g m_g · h(y_g / m_g)` over the levels in `levels`.
    groups: f64,
}

impl EstimateBuffers {
    /// Splits the weighted levels into those whose groups are single root
    /// paths (returns their total weight: such a level adds
    /// `w · (open mass) · h(prior)`) and those that need group sums
    /// (stored in `levels`).
    fn plan_levels(&mut self, index: &PrefixIndex, weights: &[f64]) -> f64 {
        self.levels.clear();
        let (mut offset, mut single) = (0, 0.0);
        for (l, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            let count = index.groups.count(l);
            if count == index.len() {
                single += w;
            } else {
                self.levels.push((offset, l, w));
                offset += count;
            }
        }
        if self.groups.len() < offset {
            self.groups.resize(offset, GroupSums::default());
        }
        single
    }

    /// One pass over `class`: each member's answer kind, and its weighted
    /// mass and yes-mass added to its prefix group at every planned level.
    /// `None` when `q` determines none of the class's paths. Only groups
    /// that mix a determined path with a path answered otherwise need a
    /// logarithm: a group of open paths adds `m_g · h(prior)`, and a group
    /// of paths answered alike adds 0.
    fn scan(
        &mut self,
        index: &PrefixIndex,
        class: &Class,
        q: &Question,
        prior: f64,
    ) -> Option<ClassScan> {
        let Self {
            levels,
            groups,
            touched,
        } = self;
        let slots = class.members.len() * levels.len() + 1;
        if touched.len() < slots {
            touched.resize(slots, 0);
        }
        // `P(yes | kind)`, indexed by kind.
        let answer = [0.0, 1.0, 0.0, 0.0, prior];
        let (mut yes, mut open, mut seen, mut n) = (0.0, 0.0, 0, 0);
        for m in &class.members {
            // Membership semantics of `implication`: an absent tuple ranks
            // below every present one; both absent leaves `q` open.
            let (mut pi, mut pj) = (usize::MAX, usize::MAX);
            for (r, &t) in index.items(m.path).iter().enumerate() {
                pi = if t == q.i { r } else { pi };
                pj = if t == q.j { r } else { pj };
            }
            let kind = match pi.cmp(&pj) {
                std::cmp::Ordering::Less => YES,
                std::cmp::Ordering::Greater => NO,
                std::cmp::Ordering::Equal => OPEN,
            };
            seen |= kind;
            let y = m.prob * answer[kind as usize];
            yes += y;
            open += if kind == OPEN { m.prob } else { 0.0 };
            for &(offset, l, w) in levels.iter() {
                let g = offset + index.groups.id(m.path as usize, l);
                let sums = &mut groups[g];
                touched[n] = g as u32;
                n += usize::from(sums.kinds == 0);
                sums.kinds |= kind;
                sums.mass += w * m.prob;
                sums.yes += w * y;
            }
        }
        let (mut mixed, mut open_groups) = (0.0, 0.0);
        for &g in &touched[..n] {
            let sums = std::mem::take(&mut groups[g as usize]);
            match sums.kinds {
                YES | NO => {}
                OPEN => open_groups += sums.mass,
                _ => mixed += sums.mass * binary_entropy(sums.yes / sums.mass),
            }
        }
        (seen & (YES | NO) != 0).then_some(ClassScan {
            yes,
            open,
            groups: mixed + open_groups * binary_entropy(prior),
        })
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

/// Reference implementation that enumerates all `2^|Q|` answer outcomes —
/// exponential, used only by tests and the `ablations` bench to validate
/// the partition algorithm.
pub fn expected_residual_set_bruteforce(
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
        for kind in MeasureKind::all() {
            let m = kind.build();
            let ctx = ResidualCtx {
                measure: m.as_ref(),
                pairwise: &pw,
            };
            let mut part = AnswerPartition::root(&sample());
            let estimate = part.estimate_with_question(&q, &ctx);
            match m.level_entropy_weights(2) {
                None => assert!(estimate.is_none(), "{}", kind.name()),
                Some(_) => {
                    let exact = part.expected_with_question(&q, &ctx);
                    let estimate = estimate.expect("entropy measures estimate");
                    assert!((estimate - exact).abs() < 1e-12, "{estimate} vs {exact}");
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
            assert!(AnswerPartition::root(&ps)
                .estimate_with_question(&q, &ctx)
                .is_none());
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
