//! Uncertain relations: tuples whose query score is a [`ScoreDist`].
//!
//! [`UncertainTable`] is the input to every top-K pipeline in this project.
//! Tuple identifiers are dense indices (`TupleId(i)` is the tuple at
//! position `i`), which lets downstream code use flat vectors and matrices
//! instead of hash maps.

use crate::dist::ScoreDist;
use crate::error::{ProbError, Result};
use std::fmt;

/// Identifier of a tuple in an [`UncertainTable`] (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One tuple: an id, an optional human-readable label, and the uncertain
/// score assigned to it by the query's scoring function.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainTuple {
    /// Dense identifier (equals the tuple's position in the table).
    pub id: TupleId,
    /// Display label (defaults to `t{id}`).
    pub label: String,
    /// Uncertain score.
    pub dist: ScoreDist,
}

/// A relation with uncertain scores.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainTable {
    tuples: Vec<UncertainTuple>,
}

impl UncertainTable {
    /// Builds a table from score distributions; ids and default labels are
    /// assigned by position.
    ///
    /// Fails with [`ProbError::InvalidParameter`] when the union of the
    /// supports spans more than `f64` can hold: every table-level grid and
    /// sweep measures distances across it.
    pub fn new(dists: Vec<ScoreDist>) -> Result<Self> {
        Self::from_labelled(
            dists
                .into_iter()
                .enumerate()
                .map(|(i, dist)| (format!("t{i}"), dist)),
        )
    }

    /// Builds a table with explicit labels (checked as [`Self::new`]).
    pub fn with_labels(items: Vec<(String, ScoreDist)>) -> Result<Self> {
        Self::from_labelled(items.into_iter())
    }

    fn from_labelled(items: impl ExactSizeIterator<Item = (String, ScoreDist)>) -> Result<Self> {
        if items.len() == 0 {
            return Err(ProbError::EmptyTable);
        }
        let tuples: Vec<UncertainTuple> = items
            .enumerate()
            .map(|(i, (label, dist))| UncertainTuple {
                id: TupleId(i as u32),
                label,
                dist,
            })
            .collect();
        let (lo, hi) = tuples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
                let (a, b) = t.dist.support();
                (lo.min(a), hi.max(b))
            });
        if !(hi - lo).is_finite() {
            return Err(ProbError::InvalidParameter {
                param: "dists",
                reason: format!("span of the table's union support [{lo}, {hi}] overflows"),
            });
        }
        Ok(Self { tuples })
    }

    /// Number of tuples `N`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Tables are never empty (enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tuple by dense index.
    pub fn get(&self, idx: usize) -> &UncertainTuple {
        &self.tuples[idx]
    }

    /// Score distribution by dense index.
    pub fn dist_at(&self, idx: usize) -> &ScoreDist {
        &self.tuples[idx].dist
    }

    /// Score distribution by tuple id.
    pub fn dist(&self, id: TupleId) -> &ScoreDist {
        &self.tuples[id.index()].dist
    }

    /// Label by tuple id.
    pub fn label(&self, id: TupleId) -> &str {
        &self.tuples[id.index()].label
    }

    /// Iterates over tuples in id order.
    pub fn iter(&self) -> impl Iterator<Item = &UncertainTuple> {
        self.tuples.iter()
    }

    /// All tuple ids in order.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.tuples.len() as u32).map(TupleId)
    }

    /// True when every score distribution is continuous (required by the
    /// exact probability engine).
    pub fn all_continuous(&self) -> bool {
        self.tuples.iter().all(|t| t.dist.is_continuous())
    }

    /// The distributions in id order (convenience for grid construction).
    pub fn dists(&self) -> impl Iterator<Item = &ScoreDist> {
        self.tuples.iter().map(|t| &t.dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_rejected() {
        assert!(matches!(
            UncertainTable::new(vec![]),
            Err(ProbError::EmptyTable)
        ));
        assert!(UncertainTable::with_labels(vec![]).is_err());
    }

    #[test]
    fn union_support_whose_span_overflows_is_rejected() {
        // Each uniform is valid alone; together they span past f64::MAX.
        let far_apart = || {
            vec![
                ScoreDist::uniform(-1.7e308, -1.6e308).unwrap(),
                ScoreDist::uniform(1.6e308, 1.7e308).unwrap(),
            ]
        };
        assert!(matches!(
            UncertainTable::new(far_apart()),
            Err(ProbError::InvalidParameter { .. })
        ));
        let labelled = far_apart()
            .into_iter()
            .map(|d| ("x".to_string(), d))
            .collect();
        assert!(matches!(
            UncertainTable::with_labels(labelled),
            Err(ProbError::InvalidParameter { .. })
        ));
        // Wide but representable tables still build.
        assert!(UncertainTable::new(vec![
            ScoreDist::uniform(-1e307, -9e306).unwrap(),
            ScoreDist::uniform(9e306, 1e307).unwrap(),
        ])
        .is_ok());
    }

    #[test]
    fn ids_are_dense_and_labels_default() {
        let t = UncertainTable::new(vec![
            ScoreDist::point(1.0),
            ScoreDist::uniform(0.0, 1.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let ids: Vec<TupleId> = t.ids().collect();
        assert_eq!(ids, vec![TupleId(0), TupleId(1)]);
        assert_eq!(t.label(TupleId(0)), "t0");
        assert_eq!(t.get(1).id, TupleId(1));
        assert_eq!(format!("{}", TupleId(3)), "t3");
    }

    #[test]
    fn labels_are_preserved() {
        let t = UncertainTable::with_labels(vec![
            ("alice".into(), ScoreDist::point(1.0)),
            ("bob".into(), ScoreDist::point(2.0)),
        ])
        .unwrap();
        assert_eq!(t.label(TupleId(0)), "alice");
        assert_eq!(t.label(TupleId(1)), "bob");
    }

    #[test]
    fn continuity_detection() {
        let cont = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::gaussian(0.0, 1.0).unwrap(),
        ])
        .unwrap();
        assert!(cont.all_continuous());
        let mixed = UncertainTable::new(vec![
            ScoreDist::uniform(0.0, 1.0).unwrap(),
            ScoreDist::point(0.5),
        ])
        .unwrap();
        assert!(!mixed.all_continuous());
    }
}
