//! The relevant-question set `Q_K`, the unrestricted comparison pool, and
//! the decisive scan that scores candidates for the entropy selectors.

use crate::residual::{AnswerPartition, ResidualCtx};
use ctk_crowd::Question;
use ctk_tpo::PathSet;

/// Probability band outside of which an order is considered certain.
const CERTAIN_EPS: f64 = 1e-9;

/// How far below its chain-rule estimate a candidate's exact score may
/// lie. Estimates agree with exact scores to about 1e-13 (rounding, plus
/// the sub-`MASS_EPS` children the exact lookahead drops); every
/// `debug-invariants` round checks the margin.
pub(crate) const EST_MARGIN: f64 = 1e-6;

/// C-off's tie window: scores this close count as equal, and the
/// canonical question order breaks the tie.
pub(crate) const TIE_EPS: f64 = 1e-15;

/// Which exact scores a selector's pick depends on; it decides how far the
/// decisive scan must go.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Decides {
    /// The smallest score (T1-on).
    Min,
    /// The `B` smallest scores (TB-off).
    Smallest(usize),
    /// C-off's scan in pool order: a candidate can displace the best so
    /// far while it scores within [`TIE_EPS`] above it.
    TieScan,
}

impl Decides {
    /// The score above which a candidate cannot change the pick, given the
    /// exact scores so far in ascending `total_cmp` order.
    fn bar(self, sorted: &[f64]) -> f64 {
        let bar = match self {
            Decides::Min => sorted.first().copied(),
            Decides::Smallest(0) => Some(f64::NEG_INFINITY),
            Decides::Smallest(b) => sorted.get(b - 1).copied(),
            Decides::TieScan => sorted.last().map(|r| r + TIE_EPS),
        };
        bar.unwrap_or(f64::INFINITY)
    }
}

/// How a selector scores its candidates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scoring {
    /// Estimate every candidate, score only the decisive ones exactly.
    Decisive,
    /// Score every candidate exactly: the test-only reference scan.
    #[cfg(test)]
    Eager,
}

/// Applies `pick` to the candidates' exact scores `(score, question)`, in
/// candidate order, and returns its choice.
///
/// With [`Scoring::Decisive`] and a measure that has chain-rule estimates
/// (every candidate in one [`AnswerPartition::estimate_with_questions`]
/// batch), only the candidates that can decide the pick are scored
/// exactly: candidates are visited in ascending estimate order, and the
/// scan stops once the next estimate minus [`EST_MARGIN`] exceeds the bar
/// that `decides` sets. Every skipped
/// candidate's exact score then exceeds every scored one's by more than
/// the tie window, so `pick` over the scored subset returns what it
/// returns over every candidate. Without estimates, every candidate is
/// scored exactly.
pub(crate) fn pick_scored<R: PartialEq + std::fmt::Debug>(
    partition: &mut AnswerPartition,
    candidates: &[Question],
    ctx: &ResidualCtx<'_>,
    decides: Decides,
    scoring: Scoring,
    pick: impl Fn(Vec<(f64, Question)>) -> R,
) -> R {
    let mut estimates = Vec::new();
    let estimated = match scoring {
        // Nothing to skip when the pick needs every score.
        Scoring::Decisive if matches!(decides, Decides::Smallest(b) if b >= candidates.len()) => {
            false
        }
        Scoring::Decisive => partition.estimate_with_questions(candidates, ctx, &mut estimates),
        #[cfg(test)]
        Scoring::Eager => false,
    };
    if !estimated {
        return pick(exact_scores(partition, candidates, ctx));
    }
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_unstable_by(|&a, &b| estimates[a].total_cmp(&estimates[b]).then(a.cmp(&b)));
    let mut exact: Vec<Option<f64>> = vec![None; candidates.len()];
    let mut sorted: Vec<f64> = Vec::new();
    for c in order {
        if estimates[c] - EST_MARGIN > decides.bar(&sorted) {
            break;
        }
        let r = partition.expected_with_question(&candidates[c], ctx);
        sorted.insert(sorted.partition_point(|s| s.total_cmp(&r).is_le()), r);
        exact[c] = Some(r);
    }
    let picked = pick(
        candidates
            .iter()
            .zip(exact)
            .filter_map(|(&q, r)| Some((r?, q)))
            .collect(),
    );
    #[cfg(feature = "debug-invariants")]
    {
        let all = exact_scores(partition, candidates, ctx);
        for (&(r, q), e) in all.iter().zip(&estimates) {
            assert!(
                (r - e).abs() <= EST_MARGIN,
                "estimate {e} vs exact {r} for {q} exceeds EST_MARGIN"
            );
        }
        assert_eq!(picked, pick(all), "the decisive scan changed the pick");
    }
    picked
}

/// Every candidate's exact score, in candidate order.
fn exact_scores(
    partition: &mut AnswerPartition,
    candidates: &[Question],
    ctx: &ResidualCtx<'_>,
) -> Vec<(f64, Question)> {
    candidates
        .iter()
        .map(|&q| (partition.expected_with_question(&q, ctx), q))
        .collect()
}

/// The paper's `Q_K`: questions comparing tuples of `T_K` whose relative
/// order is uncertain under the current belief (asking anything else cannot
/// prune the tree). Returned canonically ordered (i < j) and sorted, so
/// selection is deterministic.
///
/// Every pair's precedence probability comes from one pass over the
/// paths: each path's position map answers every pair in O(1), and each
/// pair still sums its terms in path order, exactly as
/// `ctk_tpo::stats::precedence_probability` does.
pub fn relevant_questions(ps: &PathSet, ctx: &ResidualCtx<'_>) -> Vec<Question> {
    let tuples = ps.tuples();
    let m = tuples.len();
    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|a| (a + 1..m).map(move |b| (a, b)))
        .collect();
    let priors: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| ctx.prior(tuples[a], tuples[b]))
        .collect();
    // `slot[t]`: index of tuple id `t` in `tuples`.
    let mut slot = vec![0usize; tuples.last().map_or(0, |&t| t as usize + 1)];
    for (a, &t) in tuples.iter().enumerate() {
        slot[t as usize] = a;
    }
    // `pos[a]`: rank of `tuples[a]` on the current path; absent tuples
    // rank below every present one, which is the membership semantics of
    // `ctk_tpo::answers::implication`.
    const ABSENT: usize = usize::MAX;
    let mut pos = vec![ABSENT; m];
    let mut acc = vec![0.0f64; pairs.len()];
    for path in ps.paths() {
        for (r, &t) in path.items.iter().enumerate() {
            pos[slot[t as usize]] = r;
        }
        for ((&(a, b), &prior), p) in pairs.iter().zip(&priors).zip(acc.iter_mut()) {
            let (ra, rb) = (pos[a], pos[b]);
            *p += path.prob
                * if ra == rb {
                    prior // both absent: undetermined
                } else if ra < rb {
                    1.0
                } else {
                    0.0
                };
        }
        for &t in &path.items {
            pos[slot[t as usize]] = ABSENT;
        }
    }
    pairs
        .iter()
        .zip(acc)
        .filter(|&(_, p)| {
            let p = p.clamp(0.0, 1.0);
            p > CERTAIN_EPS && p < 1.0 - CERTAIN_EPS
        })
        .map(|(&(a, b), _)| Question::new(tuples[a], tuples[b]))
        .collect()
}

/// All pairwise comparisons among tuples appearing in `T_K`, including
/// useless ones — the pool the `Random` baseline draws from (“chosen at
/// random among all possible tuple comparisons in `T_K`”).
pub fn all_tree_pairs(ps: &PathSet) -> Vec<Question> {
    let tuples = ps.tuples();
    let mut out = Vec::with_capacity(tuples.len() * (tuples.len().saturating_sub(1)) / 2);
    for (a, &i) in tuples.iter().enumerate() {
        for &j in &tuples[a + 1..] {
            out.push(Question::new(i, j));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::Entropy;
    use ctk_prob::compare::PairwiseMatrix;
    use ctk_prob::{ScoreDist, UncertainTable};
    use ctk_tpo::PathSet;

    fn fixture() -> (UncertainTable, PathSet) {
        // t0 and t1 overlap; t2 dominates both and is certain.
        let table = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(0.5, 1.5).unwrap(),
            ScoreDist::uniform(2.0, 3.0).unwrap(),
        ])
        .unwrap();
        let ps = PathSet::from_weighted(2, vec![(vec![2, 0], 0.4), (vec![2, 1], 0.6)]).unwrap();
        (table, ps)
    }

    #[test]
    fn only_uncertain_pairs_are_relevant() {
        let (table, ps) = fixture();
        let pw = PairwiseMatrix::compute(&table);
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let qk = relevant_questions(&ps, &ctx);
        // Pairs among {0,1,2}: (0,1) uncertain; (0,2),(1,2) certain
        // (t2 always first).
        assert_eq!(qk, vec![Question::new(0, 1)]);
    }

    #[test]
    fn all_pairs_includes_certain_ones() {
        let (_, ps) = fixture();
        let pairs = all_tree_pairs(&ps);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&Question::new(0, 2)));
    }

    #[test]
    fn resolved_set_has_no_relevant_questions() {
        let (table, _) = fixture();
        let pw = PairwiseMatrix::compute(&table);
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let resolved = PathSet::from_weighted(2, vec![(vec![2, 1], 1.0)]).unwrap();
        // Pair (1, x): nothing else in the tree; pair order within the tree
        // is fixed. The only tuples are 1 and 2, whose order is certain.
        assert!(relevant_questions(&resolved, &ctx).is_empty());
    }

    #[test]
    fn questions_are_canonical_and_sorted() {
        let (table, ps) = fixture();
        let pw = PairwiseMatrix::compute(&table);
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let qk = relevant_questions(&ps, &ctx);
        for q in &qk {
            assert!(q.i < q.j, "canonical orientation");
        }
        let mut sorted = qk.clone();
        sorted.sort();
        assert_eq!(qk, sorted);
    }
}
