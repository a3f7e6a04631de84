#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-service — multi-session query serving
//!
//! Serving layer of the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*,
//! Ciceri et al., ICDE 2016 / TKDE 28(1)): runs many uncertainty-reduction
//! sessions concurrently against **one** shared crowd backend — the regime
//! a real crowdsourcing platform operates in, where questions from many
//! simultaneous queries are multiplexed over the same worker pool.
//!
//! The layer is built on the sans-IO [`ctk_core::driver::SessionDriver`]:
//! each session is a state machine that emits question batches and absorbs
//! answers, and this crate owns the dispatch over **one session table**
//! driven by one run loop (DESIGN.md §14):
//!
//! * [`registry`] — the session table: a session's id is its slot, and
//!   its entry is its lifecycle ([`SessionState`]): live (queued or
//!   awaiting budget, with driver, ledger and batch buffers), done (report
//!   and latency only) or failed (error only);
//! * `scheduler` — strict priority between classes, deficit round-robin
//!   within per-class queues that sessions join and leave on their own
//!   transitions, bounded fanout: every session of the top nonempty class
//!   is served within `ceil(n / fanout)` rounds, churn-proof, and a plan
//!   costs O(fanout + departures), not O(sessions queued);
//! * [`batcher`] — cross-session question batching with an
//!   [`AnswerCache`]: identical pairwise questions from different tenants
//!   are answered once, then served from memory, before any crowd budget
//!   is spent. Its purchase loop is also the crowd boundary that rejects
//!   NaN accuracies and answers to the wrong pair;
//! * [`service`] — [`TopKService`] and its one phase-structured round,
//!   [`TopKService::tick`]: resume parked sessions, plan, gather in
//!   parallel, purchase sequentially, feed in parallel, retire.
//!   [`TopKService::run_until_quiescent`] tells blocked-on-crowd
//!   ([`Quiescence`]) apart from idle;
//! * [`metrics`] — throughput / latency-histogram / cache-hit /
//!   invalid-answer accounting.
//!
//! With reliable (accuracy-1) workers the multiplexing is *lossless*:
//! every session's final report equals the one the standalone blocking
//! [`ctk_core::session::UrSession::run`] produces under the same seed —
//! the integration suite pins this for 36 concurrent tenants, and pins
//! that per-tenant reports are bit-identical at 1/2/4 worker threads. See
//! DESIGN.md §7, §9 and §14 for the architecture discussion.

pub mod batcher;
pub mod metrics;
pub mod registry;
mod scheduler;
pub mod service;

pub use batcher::{AnswerCache, ServedAnswer};
pub use ctk_quality::QuestionRouter;
pub use ctk_tpo::{PrecisionTarget, StopReason};
pub use metrics::ServiceMetrics;
pub use registry::{SessionId, SessionSpec, SessionState};
pub use service::{Quiescence, RoundOutcome, TopKService};
