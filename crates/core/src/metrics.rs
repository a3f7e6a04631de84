//! Evaluation metrics: how close the belief state is to the hidden real
//! ordering `ω_r`. These are *evaluation-only* quantities — selection
//! algorithms never see the ground truth.
//!
//! A session submitted with a truth reports `D(ω_r, T_K)` at submit,
//! after every answer and at the end, over the whole path set each time.
//! [`expected_distance_to_truth`] (and `U_MPO`, the same sum against the
//! MPO) indexes the target's positions once per call and runs ctk-rank's
//! slice kernel on each path's items in place: no `RankList` copy and no
//! allocation per path, and the same bits as the per-path
//! `topk_kendall_normalized` sum (pinned by this crate's proptests).

use ctk_rank::topk::{topk_kendall_normalized_with, NEUTRAL_PENALTY};
use ctk_rank::RankList;
use ctk_tpo::PathSet;

/// The paper's headline metric `D(ω_r, T_K)` (Fig. 1(a)): the expected
/// normalized top-k Kendall distance between the real top-k and the
/// orderings of the tree,
/// `D = Σ_ω Pr(ω) · d(ω, ω_r@K)`.
pub fn expected_distance_to_truth(ps: &PathSet, truth_topk: &RankList) -> f64 {
    expected_topk_distance(ps, truth_topk.items(), NEUTRAL_PENALTY)
}

/// Target lists whose ids are all below this index their positions in a
/// table of this many slots at most; larger ids are found by a scan.
const INDEXED_IDS: u32 = 4096;

/// `Σ Pr(ω) · K^(p)(ω, target)`, normalized, over `ps`'s paths in path
/// order — the sum [`expected_distance_to_truth`] and `U_MPO` report, bit
/// for bit what `topk_kendall_normalized` gives path by path. The
/// target's positions are indexed once per call, so each path is one
/// allocation-free kernel pass over its items.
pub(crate) fn expected_topk_distance(ps: &PathSet, target: &[u32], p: f64) -> f64 {
    let Some(&top) = target.iter().max().filter(|&&t| t < INDEXED_IDS) else {
        return weighted_distance(ps, target.len(), p, |item| {
            target.iter().position(|&t| t == item)
        });
    };
    let mut rank = vec![u32::MAX; top as usize + 1];
    for (q, &t) in (0u32..).zip(target) {
        rank[t as usize] = q;
    }
    weighted_distance(ps, target.len(), p, |item| {
        rank.get(item as usize)
            .filter(|&&q| q != u32::MAX)
            .map(|&q| q as usize)
    })
}

/// `Σ prob · K^(p)_norm(path, b)` in path order, `b` of `kb` items given
/// by its position lookup.
fn weighted_distance(
    ps: &PathSet,
    kb: usize,
    p: f64,
    pos_in_b: impl Fn(u32) -> Option<usize> + Copy,
) -> f64 {
    ps.paths()
        .iter()
        .map(|path| path.prob * topk_kendall_normalized_with(&path.items, kb, p, pos_in_b))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.6), (vec![1, 0], 0.3), (vec![0, 2], 0.1)],
        )
        .unwrap()
    }

    #[test]
    fn zero_distance_iff_certain_and_correct() {
        let truth = RankList::new(vec![0, 1]).unwrap();
        let certain = PathSet::from_weighted(2, vec![(vec![0, 1], 1.0)]).unwrap();
        assert_eq!(expected_distance_to_truth(&certain, &truth), 0.0);
    }

    #[test]
    fn expected_distance_weights_by_probability() {
        let truth = RankList::new(vec![0, 1]).unwrap();
        let s = set();
        let d = expected_distance_to_truth(&s, &truth);
        // Path [0,1]: distance 0. Path [1,0]: reversal of same 2 items:
        // K^(1/2) = 1, max = 4 + 0.5*2 = 5 -> 0.2.
        // Path [0,2]: one overlap case: raw 1, normalized 1/5 = 0.2.
        let expect = 0.6 * 0.0 + 0.3 * 0.2 + 0.1 * 0.2;
        assert!((d - expect).abs() < 1e-12, "d = {d}, expect {expect}");
    }

    #[test]
    fn distance_decreases_as_mass_concentrates_on_truth() {
        let truth = RankList::new(vec![0, 1]).unwrap();
        let diffuse = set();
        let sharp = PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.95), (vec![1, 0], 0.04), (vec![0, 2], 0.01)],
        )
        .unwrap();
        assert!(
            expected_distance_to_truth(&sharp, &truth)
                < expected_distance_to_truth(&diffuse, &truth)
        );
    }
}
