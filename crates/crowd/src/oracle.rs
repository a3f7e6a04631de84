//! Ground truth: the hidden “real” ordering `ω_r`.
//!
//! In the paper's evaluation the data's true scores are drawn from the
//! tuple score distributions; crowd workers observe the true relative order
//! of a pair (with some accuracy). This module is the simulated substitute
//! for the real world that a production deployment would query.

use crate::question::Question;
use ctk_prob::sample::{ranking_from_scores, sample_scores};
use ctk_prob::UncertainTable;
use ctk_rank::RankList;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The hidden true scores and the total ordering they induce.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    scores: Vec<f64>,
    ranking: Vec<u32>,
    /// `positions[id]` = 0-based rank of tuple `id`.
    positions: Vec<usize>,
}

impl GroundTruth {
    /// Builds from explicit true scores.
    pub fn from_scores(scores: Vec<f64>) -> Self {
        let ranking = ranking_from_scores(&scores);
        let mut positions = vec![0usize; scores.len()];
        for (pos, &id) in ranking.iter().enumerate() {
            positions[id as usize] = pos;
        }
        Self {
            scores,
            ranking,
            positions,
        }
    }

    /// Samples one true world from the table's score distributions
    /// (deterministic given `seed`).
    pub fn sample(table: &UncertainTable, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_scores(sample_scores(table, &mut rng))
    }

    /// The hidden true scores, by tuple id.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The real total ordering `ω_r` (tuple ids, best first).
    pub fn ranking(&self) -> &[u32] {
        &self.ranking
    }

    /// The real top-k list.
    pub fn top_k(&self, k: usize) -> RankList {
        RankList::new_unchecked(self.ranking[..k.min(self.ranking.len())].to_vec())
    }

    /// 0-based true rank of a tuple.
    #[cfg(test)]
    fn rank_of(&self, id: u32) -> usize {
        self.positions[id as usize]
    }

    /// The correct answer to a question under `ω_r`.
    ///
    /// # Panics
    ///
    /// If the question names a tuple the truth does not hold; see
    /// [`GroundTruth::judge`].
    pub fn true_answer(&self, q: &Question) -> bool {
        self.positions[q.i as usize] < self.positions[q.j as usize]
    }

    /// The correct answer to a question and the gap between the two true
    /// scores, or `None` when the question names a tuple the truth does
    /// not hold.
    pub fn judge(&self, q: &Question) -> Option<(bool, f64)> {
        let (i, j) = (q.i as usize, q.j as usize);
        let (si, sj) = (self.scores.get(i)?, self.scores.get(j)?);
        Some((self.positions[i] < self.positions[j], (si - sj).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctk_prob::ScoreDist;

    #[test]
    fn ranking_and_positions_agree() {
        let t = GroundTruth::from_scores(vec![0.3, 0.9, 0.5]);
        assert_eq!(t.ranking(), &[1, 2, 0]);
        assert_eq!(t.rank_of(1), 0);
        assert_eq!(t.rank_of(2), 1);
        assert_eq!(t.rank_of(0), 2);
        assert_eq!(t.top_k(2).items(), &[1, 2]);
        assert_eq!(t.scores().len(), 3);
    }

    #[test]
    fn answers_follow_the_ranking() {
        let t = GroundTruth::from_scores(vec![0.3, 0.9, 0.5]);
        assert!(t.true_answer(&Question::new(1, 0)));
        assert!(!t.true_answer(&Question::new(0, 1)));
        assert!(t.true_answer(&Question::new(2, 0)));
        for q in [(1, 0), (0, 1), (2, 0), (0, 2)].map(|(i, j)| Question::new(i, j)) {
            let (yes, gap) = t.judge(&q).unwrap();
            assert_eq!(yes, t.true_answer(&q), "{q:?}");
            let scores = t.scores();
            assert_eq!(gap, (scores[q.i as usize] - scores[q.j as usize]).abs());
        }
        assert_eq!(t.judge(&Question::new(3, 0)), None);
        assert_eq!(t.judge(&Question::new(0, 3)), None);
    }

    #[test]
    fn sampling_is_deterministic_and_within_supports() {
        let table = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::uniform(2.0, 3.0).unwrap(),
        ])
        .unwrap();
        let a = GroundTruth::sample(&table, 99);
        let b = GroundTruth::sample(&table, 99);
        assert_eq!(a.scores(), b.scores());
        assert_eq!(a.ranking(), &[1, 0], "disjoint supports force the order");
        assert!(a.scores()[0] >= 0.0 && a.scores()[0] <= 1.0);
    }

    #[test]
    fn ties_break_by_id() {
        let t = GroundTruth::from_scores(vec![0.5, 0.5]);
        assert_eq!(t.ranking(), &[0, 1]);
        assert!(t.true_answer(&Question::new(0, 1)));
    }
}
