#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-tpo — the tree of possible orderings
//!
//! Core uncertain-ranking data structure of the `crowd-topk` workspace
//! (reproduction of *“Crowdsourcing for Top-K Query Processing over
//! Uncertain Data”*, Ciceri et al., ICDE 2016 / TKDE 28(1)).
//!
//! When tuple scores are uncertain, the result of a top-K query is not one
//! ranking but a *space of possible orderings*, represented by the paper
//! (after Soliman & Ilyas, ICDE'09) as a tree `T_K` whose root-to-leaf
//! paths are the possible ordered top-K prefixes, each with a probability.
//!
//! * [`PathSet`] — the flat, normalized distribution over orderings (the
//!   leaf level of `T_K`); what measures and selection algorithms consume.
//! * [`Tpo`] — the explicit arena tree (levels, prefix masses, DOT export).
//! * [`build`] — two construction engines: Monte-Carlo possible worlds and
//!   exact nested quadrature, cross-validated in tests.
//! * [`prune`] — hard pruning by reliable crowd answers (§III).
//! * [`update`] — Bayesian reweighting for noisy workers (§III-C).
//! * [`WorldModel`] over a shared [`WorldSample`] — sampled-worlds belief
//!   state enabling the `incr` algorithm's interleaving of construction
//!   and pruning (§III-D).
//! * [`stats`] — level distributions (for weighted entropy), precedence /
//!   rank / membership marginals.
//!
//! ## Example
//!
//! ```
//! use ctk_prob::{ScoreDist, UncertainTable};
//! use ctk_tpo::build::{build_mc, McConfig};
//! use ctk_tpo::prune::prune;
//!
//! // Three tuples with overlapping scores.
//! let table = UncertainTable::new(vec![
//!     ScoreDist::uniform(0.0, 1.0).unwrap(),
//!     ScoreDist::uniform(0.2, 1.2).unwrap(),
//!     ScoreDist::uniform(0.4, 1.4).unwrap(),
//! ]).unwrap();
//!
//! // Build the TPO for a top-2 query.
//! let ps = build_mc(&table, 2, &McConfig::default()).unwrap();
//! assert!(ps.len() > 1, "overlap creates ordering uncertainty");
//!
//! // A crowd answer "t2 ranks above t1" prunes disagreeing orderings.
//! let (pruned, stats) = prune(&ps, 2, 1, true, 0.5).unwrap();
//! assert!(pruned.len() < ps.len());
//! assert!(stats.mass_removed > 0.0);
//! ```

pub mod answers;
pub mod build;
pub mod error;
pub mod path;
pub mod precision;
#[cfg(test)]
mod proptests;
pub mod prune;
pub mod stats;
pub mod tree;
pub mod update;
pub mod worlds;

pub use answers::{implication, Implication};
pub use build::AdaptiveSample;
pub use error::{Result, TpoError};
pub use path::{Path, PathSet};
pub use precision::{PrecisionReport, PrecisionTarget, StopReason, DEFAULT_WORLDS};
pub use tree::{Tpo, TpoNode};
pub use worlds::{WorldModel, WorldSample};
