//! Question-selection strategies (§III-A/B): the paper's contribution.
//!
//! Offline strategies commit to all `B` questions before any answer
//! arrives (a batch posted to a crowd market); online strategies pick each
//! question after seeing the previous answers (interactive posting).
//!
//! | paper name | type | here |
//! |-----------|------|------|
//! | `A*-off`  | offline, offline-optimal | [`AStarOff`] |
//! | `TB-off`  | offline, top-B singles   | [`TbOff`] |
//! | `C-off`   | offline, conditional greedy | [`COff`] |
//! | `A*-on`   | online, re-planning      | [`AStarOn`] |
//! | `T1-on`   | online, greedy           | [`T1On`] |
//! | `Random`  | baseline                 | [`RandomSelector`] |
//! | `Naive`   | baseline                 | [`NaiveSelector`] |
//! | `incr`    | hybrid (see [`crate::session`]) | `Algorithm::Incr` |

mod astar;
mod c_off;
mod common;
mod naive;
mod random;
mod t1_on;
mod tb_off;

pub use astar::{AStarOff, AStarOn};
pub use c_off::COff;
pub use common::{all_tree_pairs, relevant_questions};
pub use naive::NaiveSelector;
pub use random::RandomSelector;
pub use t1_on::T1On;
pub use tb_off::TbOff;

use crate::residual::ResidualCtx;
use ctk_crowd::Question;
use ctk_tpo::PathSet;

/// A strategy that commits to a batch of questions up front.
///
/// `Send` is a supertrait (as on [`OnlineSelector`]) so boxed strategies —
/// and the `SessionDriver`s holding them — can migrate between the worker
/// threads of a parallel serving loop.
pub trait OfflineSelector: Send {
    /// Paper name of the strategy.
    fn name(&self) -> &'static str;

    /// Selects up to `budget` questions for the given belief state. May
    /// return fewer when the relevant question pool is smaller.
    fn select(&mut self, ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Vec<Question>;
}

/// A strategy that picks one question at a time, seeing updated beliefs.
pub trait OnlineSelector: Send {
    /// Paper name of the strategy.
    fn name(&self) -> &'static str;

    /// Chooses the next question, or `None` when no informative question
    /// remains (early termination, §III-B).
    fn next_question(
        &mut self,
        ps: &PathSet,
        remaining: usize,
        ctx: &ResidualCtx<'_>,
    ) -> Option<Question>;
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::measures::UncertaintyMeasure;
    use ctk_prob::compare::PairwiseMatrix;
    use ctk_prob::{ScoreDist, UncertainTable};
    use ctk_tpo::build::{build_mc, McConfig};
    use ctk_tpo::PathSet;

    /// A 5-tuple overlapping table, its pairwise matrix and the TPO at
    /// k=3 — the shared fixture for selector tests.
    pub fn fixture() -> (UncertainTable, PairwiseMatrix, PathSet) {
        let table = UncertainTable::new(vec![
            ScoreDist::uniform(0.00, 0.50).unwrap(),
            ScoreDist::uniform(0.20, 0.70).unwrap(),
            ScoreDist::uniform(0.40, 0.90).unwrap(),
            ScoreDist::uniform(0.60, 1.10).unwrap(),
            ScoreDist::uniform(0.80, 1.30).unwrap(),
        ])
        .unwrap();
        let pw = PairwiseMatrix::compute(&table);
        let ps = build_mc(&table, 3, &McConfig::fixed(4000, 42)).unwrap();
        (table, pw, ps)
    }

    /// Asserts the selection is a set of distinct canonical questions over
    /// valid tuples.
    pub fn assert_valid_selection(qs: &[ctk_crowd::Question], ps: &PathSet, budget: usize) {
        assert!(qs.len() <= budget, "selection exceeds budget");
        let tuples = ps.tuples();
        let mut seen = std::collections::HashSet::new();
        for q in qs {
            assert_ne!(q.i, q.j);
            assert!(tuples.contains(&q.i), "unknown tuple t{}", q.i);
            assert!(tuples.contains(&q.j), "unknown tuple t{}", q.j);
            assert!(seen.insert(q.canonical()), "duplicate question {q}");
        }
    }

    /// Expected residual of a selection under a measure (for quality
    /// comparisons between strategies).
    pub fn residual_of(
        ps: &PathSet,
        qs: &[ctk_crowd::Question],
        measure: &dyn UncertaintyMeasure,
        pw: &PairwiseMatrix,
    ) -> f64 {
        let ctx = crate::residual::ResidualCtx {
            measure,
            pairwise: pw,
        };
        crate::residual::expected_residual_set(ps, qs, &ctx)
    }
}
