#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-core — crowdsourced uncertainty reduction for top-K queries
//!
//! The primary contribution of the `crowd-topk` workspace: a faithful
//! implementation of *“Crowdsourcing for Top-K Query Processing over
//! Uncertain Data”* (Ciceri, Fraternali, Martinenghi, Tagliasacchi — ICDE
//! 2016 / TKDE 28(1):41–53).
//!
//! Given a relation whose tuple scores are uncertain (pdfs), a top-K query
//! admits a whole *space of possible orderings*. This crate selects the
//! pairwise questions to pose to a crowd so that, within a budget `B`, the
//! expected residual uncertainty of the result is minimized:
//!
//! * [`measures`] — the four uncertainty measures `U_H`, `U_Hw`, `U_ORA`,
//!   `U_MPO` (§II);
//! * [`residual`] — expected residual uncertainty `R_q` / `R_Q` via
//!   answer-signature partitioning (§III);
//! * [`select`] — the seven selection strategies: `A*-off`, `TB-off`,
//!   `C-off` (offline), `A*-on`, `T1-on` (online), `random`, `naive`
//!   (baselines) (§III-A/B);
//! * [`belief`] — a session's initial belief and the key of
//!   everything its build reads;
//! * [`driver`] — the sans-IO session state machine
//!   (`next_batch`/`feed`), the unit a scheduler multiplexes;
//! * [`session`] — the uncertainty-reduction loop, including noisy-worker
//!   Bayesian updates (§III-C) and the incremental `incr` algorithm
//!   (§III-D), as a thin blocking wrapper over the driver;
//! * [`metrics`] — evaluation metrics (`D(ω_r, T_K)`, Fig. 1(a));
//! * [`engine`] — the [`engine::CrowdTopK`] facade.
//!
//! ## Quick start
//!
//! ```
//! use ctk_core::prelude::*;
//! use ctk_prob::{ScoreDist, UncertainTable};
//!
//! // Five items with overlapping uncertain scores.
//! let table = UncertainTable::new((0..5).map(|i| {
//!     ScoreDist::uniform_centered(i as f64 * 0.2, 0.5).unwrap()
//! }).collect()).unwrap();
//!
//! // A simulated crowd that knows the hidden true scores.
//! let truth = GroundTruth::sample(&table, 2024);
//! let real_top2 = truth.top_k(2);
//! let mut crowd = CrowdSimulator::new(truth, PerfectWorker, VotePolicy::Single, 12).expect("valid vote policy");
//!
//! let report = CrowdTopK::new(table)
//!     .k(2)
//!     .budget(12)
//!     .algorithm(Algorithm::T1On)
//!     .monte_carlo(4_000, 7)
//!     .run_with_truth(&mut crowd, &real_top2)
//!     .unwrap();
//!
//! // Crowd answers shrink the space of orderings monotonically.
//! assert!(report.final_orderings() <= report.initial_orderings);
//! ```

pub mod belief;
pub mod driver;
pub mod engine;
pub mod error;
pub mod measures;
pub mod metrics;
#[cfg(test)]
mod proptests;
pub mod residual;
pub mod select;
pub mod session;

pub use error::{CoreError, Result};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::driver::{DriverStatus, SessionDriver};
    pub use crate::engine::CrowdTopK;
    pub use crate::measures::MeasureKind;
    pub use crate::metrics::expected_distance_to_truth;
    pub use crate::session::{Algorithm, SessionConfig, UrReport, UrSession};
    pub use ctk_crowd::{
        Crowd, CrowdSimulator, GroundTruth, NoisyWorker, PerfectWorker, Question, VotePolicy,
        WorkerPool,
    };
}
