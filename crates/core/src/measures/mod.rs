//! The paper's four uncertainty measures over a TPO (§II).
//!
//! “These measures are based on the idea that the larger the number of
//! orderings in `T_K` and the more similar their probabilities, the higher
//! its uncertainty.”
//!
//! * [`Entropy`] (`U_H`) — Shannon entropy of the leaf (ordering)
//!   probabilities; the state-of-the-art baseline measure;
//! * [`WeightedEntropy`] (`U_Hw`) — a weighted combination of the entropy
//!   at each of the first `K` levels of the tree (structure-aware);
//! * [`OraDistance`] (`U_ORA`) — expected top-k distance of the orderings
//!   to the Optimal Rank Aggregation (the “median” ordering);
//! * [`MpoDistance`] (`U_MPO`) — expected top-k distance to the Most
//!   Probable Ordering.
//!
//! §IV's finding, reproduced by the `table_measures` harness: measures that
//! take the tree structure into account (`U_Hw`, `U_ORA`, `U_MPO`) guide
//! question selection better than plain `U_H`.

mod entropy;
mod mpo;
mod ora;
mod weighted_entropy;

pub use entropy::Entropy;
pub use mpo::MpoDistance;
pub use ora::OraDistance;
pub use weighted_entropy::WeightedEntropy;

use crate::residual::ClassEval;
use ctk_tpo::PathSet;

/// An uncertainty measure `U(T_K)` over a distribution of orderings.
///
/// `Send` is a supertrait so a boxed measure (and the `SessionDriver`
/// holding it) can migrate between the worker threads of a parallel
/// serving loop.
pub trait UncertaintyMeasure: Send {
    /// Short identifier used in reports and harness output.
    fn name(&self) -> &'static str;

    /// The uncertainty of the given (normalized) path set. Zero iff the
    /// result is certain (single ordering).
    fn uncertainty(&self, ps: &PathSet) -> f64;

    /// The uncertainty of one class of a residual partition — the inner
    /// loop of question selection. Must equal
    /// `uncertainty(&class.path_set()?)` bit for bit; the default does
    /// exactly that, and the entropy measures override it to read the
    /// partition's prefix index instead of building the `PathSet`.
    fn class_uncertainty(&self, class: &mut ClassEval<'_>) -> f64 {
        class.path_set().map_or(0.0, |ps| self.uncertainty(&ps))
    }

    /// The per-level weights `w` if this measure is a weighted sum of
    /// level entropies, `U = Σ_ℓ w_ℓ · H(X_ℓ)`, on trees of depth `depth`
    /// (`X_ℓ` is the distribution of the orderings' length-`ℓ + 1`
    /// prefixes; one weight per level). `None` (the default) when it is
    /// not.
    ///
    /// Question scoring reads these weights to rank candidates with the
    /// chain rule of entropy instead of splitting every class
    /// ([`AnswerPartition::estimate_with_questions`](crate::residual::AnswerPartition::estimate_with_questions)).
    fn level_entropy_weights(&self, _depth: usize) -> Option<Vec<f64>> {
        None
    }

    /// An upper bound on how much one binary answer can reduce the
    /// *expected* value of this measure, if a sound one is known.
    ///
    /// For a weighted sum of level entropies, each level's expected
    /// reduction is `I(X_ℓ; A) <= H(A) <= ln 2`, so the bound is
    /// `ln 2 · Σ w_ℓ`; this gives the `A*-off` algorithm an admissible
    /// heuristic (DESIGN.md §4). Level weights are normalized, so their sum
    /// does not depend on the depth, and depth 1 stands for every depth.
    /// Measures without level weights return `None`, and `A*-off` falls
    /// back to exhaustive search.
    fn per_question_reduction_bound(&self) -> Option<f64> {
        self.level_entropy_weights(1)
            .map(|w| std::f64::consts::LN_2 * w.iter().sum::<f64>())
    }
}

/// Enumerable measure selector (mirrors the paper's four measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// `U_H`: Shannon entropy of ordering probabilities.
    Entropy,
    /// `U_Hw`: level-weighted entropy.
    WeightedEntropy,
    /// `U_ORA`: expected distance to the optimal rank aggregation.
    Ora,
    /// `U_MPO`: expected distance to the most probable ordering.
    Mpo,
}

impl MeasureKind {
    /// All four measures, in the paper's order.
    pub fn all() -> [MeasureKind; 4] {
        [
            MeasureKind::Entropy,
            MeasureKind::WeightedEntropy,
            MeasureKind::Ora,
            MeasureKind::Mpo,
        ]
    }

    /// Short name.
    pub fn name(&self) -> &'static str {
        match self {
            MeasureKind::Entropy => "UH",
            MeasureKind::WeightedEntropy => "UHw",
            MeasureKind::Ora => "UORA",
            MeasureKind::Mpo => "UMPO",
        }
    }

    /// Instantiates the measure with its default parameters.
    pub fn build(&self) -> Box<dyn UncertaintyMeasure> {
        match self {
            MeasureKind::Entropy => Box::new(Entropy),
            MeasureKind::WeightedEntropy => Box::new(WeightedEntropy::default()),
            MeasureKind::Ora => Box::new(OraDistance::default()),
            MeasureKind::Mpo => Box::new(MpoDistance::default()),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use ctk_tpo::PathSet;

    /// A small 3-ordering set used across measure tests.
    pub fn sample_set() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![0, 2], 0.2), (vec![1, 0], 0.3)],
        )
        .unwrap()
    }

    /// A certain (single-ordering) set.
    pub fn resolved_set() -> PathSet {
        PathSet::from_weighted(2, vec![(vec![0, 1], 1.0)]).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_measures_are_zero_on_resolved_sets() {
        for kind in MeasureKind::all() {
            let m = kind.build();
            let u = m.uncertainty(&test_util::resolved_set());
            assert!(
                u.abs() < 1e-12,
                "{} should be 0 on a single ordering, got {u}",
                m.name()
            );
        }
    }

    #[test]
    fn all_measures_positive_on_uncertain_sets() {
        for kind in MeasureKind::all() {
            let m = kind.build();
            let u = m.uncertainty(&test_util::sample_set());
            assert!(u > 0.0, "{} should be positive, got {u}", m.name());
        }
    }

    #[test]
    fn names_are_paper_names() {
        let names: Vec<&str> = MeasureKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["UH", "UHw", "UORA", "UMPO"]);
        for kind in MeasureKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn entropy_family_has_reduction_bound() {
        assert!(MeasureKind::Entropy
            .build()
            .per_question_reduction_bound()
            .is_some());
        assert!(MeasureKind::WeightedEntropy
            .build()
            .per_question_reduction_bound()
            .is_some());
        assert!(MeasureKind::Ora
            .build()
            .per_question_reduction_bound()
            .is_none());
        assert!(MeasureKind::Mpo
            .build()
            .per_question_reduction_bound()
            .is_none());
    }
}
