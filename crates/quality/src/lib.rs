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
//! idealization real crowds violate: workers differ, spam, and churn.
//! This crate replaces the idealization with estimated, per-worker
//! quality while keeping the engine's interfaces unchanged:
//!
//! * [`BetaPosterior`] — conjugate online estimate of one worker's
//!   latent accuracy, graded against the fused consensus;
//! * [`estimator`] — bounded vote log + binary Dawid–Skene EM that
//!   jointly refines consensus answers and worker accuracies;
//! * [`GateConfig`] / [`fleiss_kappa`] — approval-rate and
//!   min-answer-count gates, spammer quarantine with deterministic
//!   re-admission, and chance-corrected panel agreement;
//! * [`fuse_weighted`] — log-odds-weighted majority whose fused
//!   posterior feeds the engine's per-answer accuracy plumbing
//!   (`SessionDriver::feed_graded`);
//! * [`QualityCrowd`] — a [`ctk_crowd::Crowd`] backend tying it all
//!   together over a heterogeneous worker roster (true accuracies,
//!   per-vote prices, activity windows), with a compatibility mode that
//!   replays the plain majority simulator bit for bit.
//!
//! Everything is deterministic: seeded worker RNGs, `BTreeMap`
//! accumulators, fixed fold orders (see DESIGN.md §12).
//!
//! ## Example
//!
//! ```
//! use ctk_crowd::{Crowd, GroundTruth, Question, WorkerId};
//! use ctk_quality::{QualityConfig, QualityCrowd, WorkerSpec};
//!
//! // Two reliable workers and a systematic liar.
//! let specs = vec![
//!     WorkerSpec::new(0.95),
//!     WorkerSpec::new(0.9),
//!     WorkerSpec::new(0.1),
//! ];
//! let truth = GroundTruth::from_scores(vec![0.2, 0.8]);
//! let mut crowd = QualityCrowd::new(truth, &specs, QualityConfig::weighted(3), 600, 42)
//!     .expect("valid roster");
//! // A gold qualification round tells the estimator who is who...
//! crowd.calibrate_gold(&vec![Question::new(1, 0); 8]);
//! // ...so fused answers discount (or invert) the liar's votes.
//! let answer = crowd.ask(Question::new(1, 0)).expect("within budget");
//! assert!(answer.yes);
//! assert!(crowd.posterior_mean(WorkerId(2)).unwrap() < 0.5);
//! ```

pub mod crowd;
pub mod error;
pub mod estimator;
pub mod fusion;
pub mod gates;
pub mod posterior;

pub use crowd::{Calibration, Grading, QualityConfig, QualityCrowd, WorkerSpec};
pub use error::QualityError;
pub use estimator::{dawid_skene, EmEvidence, PanelRecord, VoteLog};
pub use fusion::{fuse_weighted, FusedVerdict};
pub use gates::{fleiss_kappa, GateConfig};
pub use posterior::{log_odds, BetaPosterior};
