#![forbid(unsafe_code)]
#![deny(warnings)]
//! # crowd-topk
//!
//! Crowd-assisted top-K query processing over uncertain data — a complete
//! Rust reproduction of *“Crowdsourcing for Top-K Query Processing over
//! Uncertain Data”* (E. Ciceri, P. Fraternali, D. Martinenghi,
//! M. Tagliasacchi; ICDE 2016 extended abstract of TKDE 28(1):41–53).
//!
//! This facade crate re-exports the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`prob`] | uncertain score distributions, pairwise comparison probabilities, possible-world sampling, nested-quadrature prefix probabilities |
//! | [`rank`] | rank lists, top-K Kendall distances, weighted tournaments, optimal rank aggregation |
//! | [`tpo`] | the tree of possible orderings: construction engines, pruning, Bayesian updates |
//! | [`crowd`] | questions, workers, vote aggregation, budget ledger, crowd simulator |
//! | [`quality`] | a quality-aware crowd: per-worker accuracy estimation (Beta posteriors, Dawid–Skene EM), spammer gates, accuracy-weighted vote fusion |
//! | [`datagen`] | synthetic datasets, the paper's experiment scenarios, and crowd roster presets |
//! | [`core`] | uncertainty measures, expected residual uncertainty, question-selection strategies, the sans-IO session driver, the UR session |
//! | [`service`] | multi-session serving: one index-addressed session table, one phase-structured run loop (resume, plan, gather, purchase, feed), cross-session question batching with an answer cache |
//!
//! ## Quick start
//!
//! ```
//! use crowd_topk::prelude::*;
//! use crowd_topk::prob::{ScoreDist, UncertainTable};
//!
//! // An uncertain relation: five items, overlapping score intervals.
//! let table = UncertainTable::new((0..5).map(|i| {
//!     ScoreDist::uniform_centered(0.2 * i as f64, 0.5).unwrap()
//! }).collect()).unwrap();
//!
//! // Simulate the hidden reality and a perfect crowd with budget 10.
//! let truth = GroundTruth::sample(&table, 1);
//! let top2 = truth.top_k(2);
//! let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 10).expect("valid vote policy");
//!
//! // Ask the right questions.
//! let report = CrowdTopK::new(table)
//!     .k(2)
//!     .budget(10)
//!     .algorithm(Algorithm::T1On)
//!     .run_with_truth(&mut crowd, &top2)
//!     .unwrap();
//!
//! assert!(report.final_orderings() <= report.initial_orderings);
//! ```

pub use ctk_core as core;
pub use ctk_crowd as crowd;
pub use ctk_datagen as datagen;
pub use ctk_prob as prob;
pub use ctk_quality as quality;
pub use ctk_rank as rank;
pub use ctk_service as service;
pub use ctk_tpo as tpo;

/// One-stop imports: the core prelude plus the most-used substrate types.
pub mod prelude {
    pub use ctk_core::prelude::*;
    pub use ctk_prob::{ScoreDist, TupleId, UncertainTable};
    pub use ctk_quality::{QualityConfig, QualityCrowd};
    pub use ctk_rank::RankList;
    pub use ctk_service::{SessionSpec, SessionState, TopKService};
    pub use ctk_tpo::{PathSet, Tpo};
}
