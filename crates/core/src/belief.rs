//! The initial belief of a session, and the key of everything it
//! depends on.
//!
//! Every session starts from a [`PathSet`] built from its table by the
//! configured engine, plus the [`PrecisionReport`] of what that build did.
//! The build is a pure function of the table, the query depth `k` and the
//! [`Engine`] — sampler seed, precision target and exact-engine settings
//! included — so a serving layer may build it once per [`BeliefKey`] and
//! table and hand every later session over the same pair a copy
//! ([`crate::driver::SessionDriver::from_belief`]). This module is the one
//! place that says what a belief depends on: a field the build reads must
//! be part of the key.
//!
//! An `incr` session on the Monte-Carlo engine has the same key as the
//! tree sessions of its configuration: its depth-`k` path set and report
//! are the tree build's, bit for bit, and it additionally weighs the
//! sampled worlds behind them, a [`WorldSample`] that sessions share
//! behind an `Arc` ([`Belief::attach_worlds`]). `incr` needs those
//! worlds, so [`SessionConfig::validate`] rejects it on the exact engine.

use crate::error::{CoreError, Result};
use crate::session::SessionConfig;
use ctk_prob::{TopKBounds, UncertainTable};
use ctk_tpo::build::{sample_adaptive, sample_fixed, AdaptiveSample, Engine, McConfig};
use ctk_tpo::{PathSet, PrecisionReport, PrecisionTarget, StopReason, WorldSample};
use std::sync::Arc;

/// Everything a session's initial belief depends on besides its table:
/// the query depth and the full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BeliefKey {
    engine: Engine,
    k: usize,
}

impl BeliefKey {
    /// The key of `config`'s initial belief.
    pub fn of(config: &SessionConfig) -> Self {
        Self {
            engine: config.engine.clone(),
            k: config.k,
        }
    }

    /// The Monte-Carlo engine settings, which a world sample needs.
    fn monte_carlo(&self) -> Result<&McConfig> {
        match &self.engine {
            Engine::MonteCarlo(mc) => Ok(mc),
            Engine::Exact(_) => Err(CoreError::InvalidConfig(
                "an exact-engine belief has no world sample".into(),
            )),
        }
    }
}

/// A built initial belief: the depth-`k` path set, the report of the
/// build that produced it and, once an `incr` session needed them, the
/// sampled worlds behind the path set.
#[derive(Debug, Clone, PartialEq)]
pub struct Belief {
    pub(crate) paths: PathSet,
    pub(crate) precision: PrecisionReport,
    pub(crate) worlds: Option<Arc<WorldSample>>,
}

impl Belief {
    /// Builds the tree belief of `key` over `table`, without worlds.
    /// `bounds` are the certain/possible top-K bounds of `table` at the
    /// key's depth: an adaptive build consults them before sampling, a
    /// fixed or exact build never does.
    pub fn build(table: &UncertainTable, key: &BeliefKey, bounds: &TopKBounds) -> Result<Self> {
        let (paths, precision) = key.engine.build_with_report(table, key.k, Some(bounds))?;
        Ok(Self {
            paths,
            precision,
            worlds: None,
        })
    }

    /// Builds the belief of `key` over `table` together with its worlds,
    /// in one sampling pass: the belief an `incr` session starts from.
    /// The path set and report equal [`Belief::build`]'s bit for bit; a
    /// belief whose prefix the bounds pinned holds no worlds.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an exact-engine key, which has no
    /// world sample.
    pub fn build_with_worlds(
        table: &UncertainTable,
        key: &BeliefKey,
        bounds: &TopKBounds,
    ) -> Result<Self> {
        let mc = key.monte_carlo()?;
        match mc.precision {
            PrecisionTarget::FixedWorlds(m) => {
                let (worlds, paths) = sample_fixed(table, key.k, m, mc.seed)?;
                Ok(Self {
                    paths,
                    precision: PrecisionReport::fixed(m),
                    worlds: Some(worlds),
                })
            }
            PrecisionTarget::Adaptive { epsilon, delta } => {
                let (sample, precision) =
                    sample_adaptive(table, key.k, epsilon, delta, mc.seed, Some(bounds))?;
                let (paths, worlds) = match sample {
                    AdaptiveSample::Pinned(prefix) => {
                        (PathSet::from_weighted(key.k, vec![(prefix, 1.0)])?, None)
                    }
                    AdaptiveSample::Sampled { worlds, paths } => (paths, Some(worlds)),
                };
                Ok(Self {
                    paths,
                    precision,
                    worlds,
                })
            }
        }
    }

    /// Samples the worlds behind a belief of `key` built without them,
    /// unless they are attached already or the bounds pinned the prefix.
    /// A Monte-Carlo build's worlds are a pure function of the seed and
    /// the number drawn (an adaptive build's batches continue one PRNG
    /// stream), so this draws exactly the worlds
    /// [`Belief::build_with_worlds`] would have kept. Returns whether it
    /// sampled.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an exact-engine key.
    pub fn attach_worlds(&mut self, table: &UncertainTable, key: &BeliefKey) -> Result<bool> {
        if !self.needs_worlds() {
            return Ok(false);
        }
        let mc = key.monte_carlo()?;
        let sample =
            WorldSample::sample_to_depth(table, key.k, self.precision.worlds_drawn, mc.seed)?;
        self.worlds = Some(Arc::new(sample));
        Ok(true)
    }

    /// True when an `incr` session over this belief would have to sample
    /// its worlds first.
    pub fn needs_worlds(&self) -> bool {
        self.worlds.is_none() && !self.pinned()
    }

    /// True when the certain bounds decided the whole ordered prefix.
    pub(crate) fn pinned(&self) -> bool {
        self.precision.reason == StopReason::CertainOrder
    }

    /// The path set.
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// The attached world sample, if any.
    pub fn worlds(&self) -> Option<&Arc<WorldSample>> {
        self.worlds.as_ref()
    }

    /// Bytes this belief holds: its paths (each path's record and items),
    /// their prefix groups and its world sample.
    pub fn bytes(&self) -> usize {
        let per_path =
            std::mem::size_of::<ctk_tpo::Path>() + self.paths.k() * std::mem::size_of::<u32>();
        self.paths.len() * per_path
            + self.paths.prefix_groups().bytes()
            + self.worlds.as_ref().map_or(0, |w| w.bytes())
    }

    /// True when both beliefs hold the same paths in the same order with
    /// bit-identical probabilities, and bit-identical precision reports.
    /// Attached worlds are not compared.
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
    use crate::session::Algorithm;
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
    fn incr_shares_the_tree_key_except_on_the_exact_engine() {
        let engine = Engine::MonteCarlo(McConfig::fixed(200, 3));
        let incr = Algorithm::Incr {
            questions_per_round: 2,
        };
        let t1 = BeliefKey::of(&config(Algorithm::T1On, engine.clone()));
        assert_eq!(BeliefKey::of(&config(incr.clone(), engine.clone())), t1);
        // incr needs sampled worlds: the exact engine has none to give.
        let exact = Engine::Exact(ExactConfig::default());
        assert!(matches!(
            config(incr, exact).validate(),
            Err(CoreError::InvalidConfig(_))
        ));
        let mut other_seed = config(Algorithm::COff, engine);
        other_seed.seed = 99;
        // The session seed drives selectors, not the tree build.
        assert_eq!(t1, BeliefKey::of(&other_seed));
    }

    #[test]
    fn beliefs_with_worlds_equal_tree_builds_to_the_bit() {
        // An incr session's build (worlds kept) must give the tree build's
        // path set and report, and attaching worlds to a tree build must
        // draw exactly the worlds the incr build kept: fixed and adaptive
        // engines, n = 8, 12 and 20, several seeds.
        for n in [8usize, 12, 20] {
            let table = UncertainTable::new(
                (0..n)
                    .map(|i| ScoreDist::uniform_centered(i as f64 * 0.05, 0.4).unwrap())
                    .collect(),
            )
            .unwrap();
            let k = 3;
            let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&table), k).unwrap();
            for seed in 0..4 {
                for engine in [
                    Engine::MonteCarlo(McConfig::fixed(256, seed)),
                    Engine::MonteCarlo(McConfig::adaptive(0.1, 0.1, seed)),
                ] {
                    let key = BeliefKey::of(&config(Algorithm::T1On, engine));
                    let mut tree = Belief::build(&table, &key, &bounds).unwrap();
                    let incr = Belief::build_with_worlds(&table, &key, &bounds).unwrap();
                    assert!(tree.same_bits(&incr), "n = {n}, {key:?}");
                    assert!(tree.needs_worlds() && !incr.needs_worlds());
                    assert!(tree.attach_worlds(&table, &key).unwrap());
                    assert!(!tree.attach_worlds(&table, &key).unwrap());
                    assert_eq!(tree, incr, "n = {n}, {key:?}");
                    let worlds = incr.worlds().unwrap();
                    assert_eq!(worlds.len(), incr.precision.worlds_drawn);
                    assert_eq!(
                        incr.bytes() - Belief::build(&table, &key, &bounds).unwrap().bytes(),
                        worlds.bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_beliefs_hold_no_worlds() {
        let decided = UncertainTable::new(
            (0..6)
                .map(|i| ScoreDist::uniform_centered(i as f64, 0.2).unwrap())
                .collect(),
        )
        .unwrap();
        let bounds = TopKBounds::from_matrix(&PairwiseMatrix::compute(&decided), 3).unwrap();
        let engine = Engine::MonteCarlo(McConfig::adaptive(0.05, 0.05, 1));
        let key = BeliefKey::of(&config(Algorithm::T1On, engine));
        let mut tree = Belief::build(&decided, &key, &bounds).unwrap();
        let incr = Belief::build_with_worlds(&decided, &key, &bounds).unwrap();
        assert!(tree.same_bits(&incr) && incr.worlds().is_none());
        assert!(!tree.needs_worlds());
        assert!(!tree.attach_worlds(&decided, &key).unwrap());
        let exact = BeliefKey::of(&config(
            Algorithm::T1On,
            Engine::Exact(ExactConfig::default()),
        ));
        assert!(Belief::build_with_worlds(&decided, &exact, &bounds).is_err());
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
            let key = BeliefKey::of(&config(Algorithm::T1On, engine));
            let a = Belief::build(&table, &key, &bounds).unwrap();
            let b = Belief::build(&table, &key, &bounds).unwrap();
            assert!(a.same_bits(&b));
            assert_eq!(a.paths().k(), 3);
        }
        let fixed = |seed| {
            let key = BeliefKey::of(&config(
                Algorithm::T1On,
                Engine::MonteCarlo(McConfig::fixed(300, seed)),
            ));
            Belief::build(&table, &key, &bounds).unwrap()
        };
        assert!(!fixed(1).same_bits(&fixed(2)), "the seed moves the sample");
        let key = BeliefKey::of(&config(Algorithm::T1On, Engine::Exact(exact)));
        let expected = Belief {
            paths: build_exact(&table, 3, &exact).unwrap(),
            precision: PrecisionReport::exact(),
            worlds: None,
        };
        assert!(Belief::build(&table, &key, &bounds)
            .unwrap()
            .same_bits(&expected));
    }
}
