#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-crowd — crowdsourcing substrate
//!
//! Crowd-interaction layer of the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*, Ciceri
//! et al., ICDE 2016 / TKDE 28(1)).
//!
//! The paper engages human workers to resolve pairwise ranking questions.
//! This crate models that engagement:
//!
//! * [`Question`] / [`Answer`] — the task format `t_i ?≺ t_j` (§III);
//! * [`GroundTruth`] — the hidden real ordering `ω_r` the crowd can
//!   observe pair by pair;
//! * [`worker`] — answer models: perfect, fixed-accuracy (§III-C's noisy
//!   workers), and heterogeneous round-robin pools;
//! * [`aggregate`] — majority voting and its effective accuracy;
//! * [`BudgetLedger`] — accounting for the paper's budget `B` in worker
//!   votes: a majority-of-`n` answer costs `n`, the paper's "triple the
//!   cost" pricing;
//! * [`Crowd`] / [`CrowdSimulator`] — the narrow interface the selection
//!   engine sees, and its simulated implementation (a stand-in for a real
//!   crowdsourcing market; see DESIGN.md §5 for the substitution argument).
//!
//! ## Example
//!
//! ```
//! use ctk_crowd::{CrowdSimulator, Crowd, GroundTruth, Question};
//! use ctk_crowd::worker::NoisyWorker;
//! use ctk_crowd::aggregate::VotePolicy;
//!
//! // The real scores put t1 above t0.
//! let truth = GroundTruth::from_scores(vec![0.2, 0.8]);
//! let mut crowd = CrowdSimulator::new(
//!     truth,
//!     NoisyWorker::new(0.85, 42),
//!     VotePolicy::Majority(3),
//!     9, // budget: 9 worker votes = 3 majority-of-3 questions
//! )
//! .expect("odd majority count");
//!
//! let answer = crowd.ask(Question::new(1, 0)).unwrap();
//! // Majority of three 85%-accurate workers: usually right.
//! assert!(crowd.answer_accuracy() > 0.9);
//! assert_eq!(crowd.remaining(), 2); // 6 votes left buy 2 more questions
//! # let _ = answer;
//! ```

pub mod aggregate;
pub mod error;
pub mod ledger;
pub mod oracle;
pub mod question;
pub mod simulator;
pub mod worker;

pub use aggregate::VotePolicy;
pub use error::CrowdError;
pub use ledger::BudgetLedger;
pub use oracle::GroundTruth;
pub use question::{Answer, Question};
pub use simulator::{Crowd, CrowdSimulator, RouteHint};
pub use worker::{
    AnswerModel, DifficultyWorker, NoisyWorker, PerfectWorker, Vote, WorkerId, WorkerPool,
};
