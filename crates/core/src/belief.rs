//! The initial tree belief of a session, and the key of everything it
//! depends on.
//!
//! Every tree-mode session (every algorithm except `incr`) starts from a
//! [`PathSet`] built from its table by the configured engine, plus the
//! [`PrecisionReport`] of what that build did. The build is a pure
//! function of the table, the query depth `k` and the [`Engine`] — sampler
//! seed, precision target and exact-engine settings included — so a
//! serving layer may build it once per [`BeliefKey`] and table and hand
//! every later session over the same pair a copy
//! ([`crate::driver::SessionDriver::from_belief`]). This module is the one
//! place that says what a belief depends on: a field the build reads must
//! be part of the key.
//!
//! `incr` sessions have no key: their belief is a [`ctk_tpo::WorldModel`]
//! holding every sampled world, grown level by level as the session runs.

use crate::error::Result;
use crate::session::{Algorithm, SessionConfig};
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_tpo::build::Engine;
use ctk_tpo::{PathSet, PrecisionReport};

/// Everything a tree-mode session's initial belief depends on besides its
/// table: the query depth and the full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BeliefKey {
    engine: Engine,
    k: usize,
}

impl BeliefKey {
    /// The key of `config`'s initial belief; `None` for `incr`, whose
    /// belief is not a path set.
    pub fn of(config: &SessionConfig) -> Option<Self> {
        match config.algorithm {
            Algorithm::Incr { .. } => None,
            _ => Some(Self {
                engine: config.engine.clone(),
                k: config.k,
            }),
        }
    }
}

/// A built initial tree belief: the depth-`k` path set and the report of
/// the build that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBelief {
    pub(crate) paths: PathSet,
    pub(crate) precision: PrecisionReport,
}

impl TreeBelief {
    /// Builds the belief of `key` over `table`. `bounds` are the
    /// certain/possible top-K bounds of `table` at the key's depth: an adaptive
    /// build consults them before sampling, a fixed or exact build never
    /// does.
    pub fn build(table: &UncertainTable, key: &BeliefKey, bounds: &TopKBounds) -> Result<Self> {
        let (paths, precision) = key.engine.build_with_report(table, key.k, Some(bounds))?;
        Ok(Self { paths, precision })
    }

    /// The path set.
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// True when both beliefs hold the same paths in the same order with
    /// bit-identical probabilities, and bit-identical precision reports.
    pub fn same_bits(&self, other: &Self) -> bool {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        let (a, b) = (&self.precision, &other.precision);
        self.paths.k() == other.paths.k()
            && self.paths.len() == other.paths.len()
            && self
                .paths
                .paths()
                .iter()
                .zip(other.paths.paths())
                .all(|(p, q)| p.items == q.items && p.prob.to_bits() == q.prob.to_bits())
            && a.worlds_drawn == b.worlds_drawn
            && bits(a.epsilon) == bits(b.epsilon)
            && bits(a.delta) == bits(b.delta)
            && a.reason == b.reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::MeasureKind;
    use ctk_prob::compare::PairwiseMatrix;
    use ctk_prob::ScoreDist;
    use ctk_tpo::build::{build_exact, ExactConfig, McConfig};

    fn table() -> UncertainTable {
        UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(i as f64 * 0.1, 0.35).unwrap())
                .collect(),
        )
        .unwrap()
    }

    fn config(algorithm: Algorithm, engine: Engine) -> SessionConfig {
        SessionConfig {
            k: 3,
            budget: 4,
            measure: MeasureKind::WeightedEntropy,
            algorithm,
            engine,
            seed: 5,
            uncertainty_target: None,
        }
    }

    #[test]
    fn incr_has_no_key_and_tree_algorithms_share_one() {
        let engine = Engine::MonteCarlo(McConfig::fixed(200, 3));
        let incr = Algorithm::Incr {
            questions_per_round: 2,
        };
        assert_eq!(BeliefKey::of(&config(incr, engine.clone())), None);
        let t1 = BeliefKey::of(&config(Algorithm::T1On, engine.clone()));
        let mut other_seed = config(Algorithm::COff, engine);
        other_seed.seed = 99;
        // The session seed drives selectors, not the tree build.
        assert_eq!(t1, BeliefKey::of(&other_seed));
    }

    #[test]
    fn builds_are_deterministic_to_the_bit() {
        let table = table();
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&table), 3).unwrap();
        let exact = ExactConfig {
            resolution: 256,
            ..ExactConfig::default()
        };
        for engine in [
            Engine::MonteCarlo(McConfig::fixed(300, 1)),
            Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, 1)),
            Engine::Exact(exact),
        ] {
            let key = BeliefKey::of(&config(Algorithm::T1On, engine)).unwrap();
            let a = TreeBelief::build(&table, &key, &bounds).unwrap();
            let b = TreeBelief::build(&table, &key, &bounds).unwrap();
            assert!(a.same_bits(&b));
            assert_eq!(a.paths().k(), 3);
        }
        let fixed = |seed| {
            let key = BeliefKey::of(&config(
                Algorithm::T1On,
                Engine::MonteCarlo(McConfig::fixed(300, seed)),
            ))
            .unwrap();
            TreeBelief::build(&table, &key, &bounds).unwrap()
        };
        assert!(!fixed(1).same_bits(&fixed(2)), "the seed moves the sample");
        let key = BeliefKey::of(&config(Algorithm::T1On, Engine::Exact(exact))).unwrap();
        let expected = TreeBelief {
            paths: build_exact(&table, 3, &exact).unwrap(),
            precision: PrecisionReport::exact(),
        };
        assert!(TreeBelief::build(&table, &key, &bounds)
            .unwrap()
            .same_bits(&expected));
    }
}
