#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-prob — uncertain scores for crowd-assisted top-K queries
//!
//! Probability substrate for the `crowd-topk` workspace, a reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”* (Ciceri,
//! Fraternali, Martinenghi, Tagliasacchi — ICDE 2016 / TKDE 28(1)).
//!
//! The paper models each tuple's query score as a random variable with a
//! known pdf. This crate provides:
//!
//! * [`ScoreDist`] — the uncertain score type (uniform, Gaussian, discrete,
//!   piecewise-linear, mixture, point), with pdf/cdf/quantile/moments and
//!   seeded sampling;
//! * [`UncertainTable`] — a relation of uncertain-score tuples;
//! * [`compare::pr_greater`] and [`compare::PairwiseMatrix`] — pairwise
//!   order probabilities `P(s_i > s_j)`, the basis of the relevant-question
//!   set `Q_K`;
//! * [`nested::prefix_probability`] — exact top-prefix probabilities via
//!   nested quadrature on a [`SupportGrid`] (Li & Deshpande-style ordering
//!   probabilities), used by the exact TPO engine;
//! * [`sample`] — possible-world sampling for the Monte-Carlo TPO engine
//!   and ground-truth generation.
//!
//! ## Example
//!
//! ```
//! use ctk_prob::{ScoreDist, UncertainTable};
//! use ctk_prob::compare::pr_greater;
//!
//! let table = UncertainTable::new(vec![
//!     ScoreDist::uniform(0.4, 0.9).unwrap(),   // t0: sensor with coarse error
//!     ScoreDist::gaussian(0.6, 0.05).unwrap(), // t1: sensor with Gaussian error
//!     ScoreDist::point(0.2),                   // t2: exactly known
//! ]).unwrap();
//!
//! // Is t0's score larger than t1's? Only probably.
//! let p = pr_greater(table.dist_at(0), table.dist_at(1));
//! assert!(p > 0.4 && p < 0.8);
//!
//! // t2 is certainly below both: no question about it is worth asking.
//! assert_eq!(pr_greater(table.dist_at(2), table.dist_at(0)), 0.0);
//! ```

pub mod bounds;
pub mod compare;
pub mod discrete;
pub mod dist;
pub mod error;
pub mod gaussian;
pub mod grid;
pub mod mixture;
pub mod nested;
pub mod piecewise;
#[cfg(test)]
mod proptests;
pub mod quad;
pub mod sample;
pub mod special;
pub mod table;
pub mod uniform;

pub use bounds::TopKBounds;
pub use dist::ScoreDist;
pub use error::{ProbError, Result};
pub use grid::SupportGrid;
pub use table::{TupleId, UncertainTable, UncertainTuple};
