//! The relevant-question set `Q_K` and the unrestricted comparison pool.

use crate::residual::ResidualCtx;
use ctk_crowd::Question;
use ctk_tpo::PathSet;

/// Probability band outside of which an order is considered certain.
const CERTAIN_EPS: f64 = 1e-9;

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
