//! Hard pruning of a path set by a (reliable) crowd answer.
//!
//! “Given a crowd worker's answer, we can prune from `T_K` all the paths
//! disagreeing with the answer” (§III). Paths the answer leaves
//! undetermined (neither tuple in the top-k) keep a fraction of their mass
//! equal to the probability that their hidden below-k order agrees with the
//! answer — supplied by the caller as `undetermined_split` (typically the
//! marginal `P(s_i > s_j)`).

use crate::answers::{implication, Implication};
use crate::error::Result;
use crate::path::PathSet;

/// Outcome statistics of a pruning step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// Orderings before pruning.
    pub paths_before: usize,
    /// Orderings after pruning.
    pub paths_after: usize,
    /// Probability mass removed (before renormalization).
    pub mass_removed: f64,
}

/// Prunes `ps` with the answer to “does `i` rank above `j`?”.
///
/// * `yes` — the received answer;
/// * `undetermined_split` — `P(i above j)` for paths containing neither
///   tuple (pass `0.5` when no marginal is available).
///
/// Returns the pruned, renormalized path set and statistics, or
/// [`ContradictoryAnswer`](crate::TpoError::ContradictoryAnswer) if no
/// mass survives. The pruned set keeps `ps`'s items order, so its prefix
/// groups take one pass and no sort.
pub fn prune(
    ps: &PathSet,
    i: u32,
    j: u32,
    yes: bool,
    undetermined_split: f64,
) -> Result<(PathSet, PruneStats)> {
    let split = undetermined_split.clamp(0.0, 1.0);
    let (pruned, surviving) = ps.reweighted(|p| {
        let factor = match implication(&p.items, i, j) {
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
                    split
                } else {
                    1.0 - split
                }
            }
        };
        p.prob * factor
    })?;
    let stats = PruneStats {
        paths_before: ps.len(),
        paths_after: pruned.len(),
        mass_removed: 1.0 - surviving,
    };
    Ok((pruned, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TpoError;

    fn ps3() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![1, 0], 0.3), (vec![1, 2], 0.2)],
        )
        .unwrap()
    }

    #[test]
    fn prunes_disagreeing_paths() {
        let (pruned, stats) = prune(&ps3(), 0, 1, true, 0.5).unwrap();
        // Only [0,1] says 0 above 1; [1,0] and [1,2] (0 absent, 1 present -> No) drop.
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned.paths()[0].items, vec![0, 1]);
        assert!((pruned.total_prob() - 1.0).abs() < 1e-12);
        assert_eq!(stats.paths_before, 3);
        assert_eq!(stats.paths_after, 1);
        assert!((stats.mass_removed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opposite_answer_keeps_the_complement() {
        let (pruned, _) = prune(&ps3(), 0, 1, false, 0.5).unwrap();
        assert_eq!(pruned.len(), 2);
        let items: Vec<&[u32]> = pruned.paths().iter().map(|p| p.items.as_slice()).collect();
        assert!(items.contains(&[1u32, 0].as_slice()));
        assert!(items.contains(&[1u32, 2].as_slice()));
        // Renormalized: 0.3/0.5 and 0.2/0.5.
        assert!((pruned.paths()[0].prob - 0.6).abs() < 1e-12);
    }

    #[test]
    fn undetermined_mass_splits() {
        // Question about tuples absent from some path.
        let s = PathSet::from_weighted(2, vec![(vec![0, 1], 0.5), (vec![2, 3], 0.5)]).unwrap();
        // Ask about (4,5): both absent everywhere -> all paths undetermined.
        let (pruned, stats) = prune(&s, 4, 5, true, 0.7).unwrap();
        assert_eq!(pruned.len(), 2);
        // Mass scaled uniformly then renormalized -> unchanged distribution.
        assert!((pruned.paths()[0].prob - 0.5).abs() < 1e-12);
        assert!((stats.mass_removed - 0.3).abs() < 1e-12);
    }

    #[test]
    fn contradiction_detected() {
        let s = PathSet::from_weighted(2, vec![(vec![0, 1], 1.0)]).unwrap();
        assert!(matches!(
            prune(&s, 1, 0, true, 0.5),
            Err(TpoError::ContradictoryAnswer)
        ));
    }

    #[test]
    fn consistent_answer_never_increases_paths() {
        let s = ps3();
        for &(i, j, yes) in &[
            (0u32, 1u32, true),
            (0, 1, false),
            (1, 2, true),
            (0, 2, false),
        ] {
            if let Ok((pruned, _)) = prune(&s, i, j, yes, 0.5) {
                assert!(pruned.len() <= s.len());
                assert!((pruned.total_prob() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn membership_pruning() {
        // "0 ranks above 2", answered false: [0,1] has 0 present and 2
        // absent (implies Yes) -> drop; [1,0] likewise -> drop; [1,2] has 2
        // present, 0 absent (implies No) -> keep.
        let (pruned, _) = prune(&ps3(), 0, 2, false, 0.5).unwrap();
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned.paths()[0].items, vec![1, 2]);
    }

    #[test]
    fn membership_pruning_error_case() {
        // "2 above 1" contradicts every path: [0,1] and [1,0] have 1
        // present / 2 absent (1 above 2), and [1,2] orders 1 before 2.
        assert!(matches!(
            prune(&ps3(), 2, 1, true, 0.5),
            Err(TpoError::ContradictoryAnswer)
        ));
    }
}
