#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-quality — worker quality estimation and weighted fusion
//!
//! Quality layer of the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*,
//! Ciceri et al., ICDE 2016 / TKDE 28(1)).
//!
//! The paper grades every crowd answer with one nominal accuracy `eta`
//! and aggregates replicated votes by unweighted majority — a uniform
//! idealization real crowds violate: workers differ and spam. This crate
//! replaces the idealization with estimated, per-worker quality while
//! keeping the engine's interfaces unchanged. [`QualityCrowd`] is a
//! [`ctk_crowd::Crowd`] backend over a heterogeneous roster of true
//! (hidden) accuracies that:
//!
//! * keeps a conjugate Beta posterior of each worker's accuracy, graded
//!   against gold questions and the fused consensus;
//! * re-estimates consensus answers and accuracies jointly with a binary
//!   Dawid–Skene EM pass over a bounded vote log every 32 questions;
//! * quarantines spammers by approval rate and minimum answer count
//!   ([`GateConfig`]), with deterministic re-admission;
//! * fuses each panel by log-odds-weighted majority, whose fused
//!   posterior feeds the engine's per-answer accuracy plumbing
//!   (`SessionDriver::feed_graded`).
//!
//! Everything is deterministic: seeded worker RNGs, `BTreeMap`
//! accumulators, fixed fold orders (see DESIGN.md §12).
//!
//! ## Example
//!
//! ```
//! use ctk_crowd::{Crowd, GroundTruth, Question, WorkerId};
//! use ctk_quality::{QualityConfig, QualityCrowd};
//!
//! // Two reliable workers and a systematic liar.
//! let truth = GroundTruth::from_scores(vec![0.2, 0.8]);
//! let mut crowd = QualityCrowd::new(truth, &[0.95, 0.9, 0.1], QualityConfig::weighted(3), 600, 42)
//!     .expect("valid roster");
//! // A gold qualification round tells the estimator who is who...
//! crowd
//!     .calibrate_gold(&vec![Question::new(1, 0); 8])
//!     .expect("gold names table tuples");
//! // ...so fused answers discount (or invert) the liar's votes.
//! let answer = crowd.ask(Question::new(1, 0)).expect("within budget");
//! assert!(answer.yes);
//! assert!(crowd.posterior_mean(WorkerId(2)).unwrap() < 0.5);
//! ```

pub mod crowd;
pub mod error;
mod estimator;
mod fusion;
pub mod gates;
mod posterior;

pub use crowd::{QualityConfig, QualityCrowd};
pub use error::QualityError;
pub use gates::GateConfig;
