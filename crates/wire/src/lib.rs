#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-wire — the serving stack's byte codec
//!
//! Wire layer of the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*,
//! Ciceri et al., ICDE 2016 / TKDE 28(1)): a deterministic, versioned,
//! length-prefixed byte codec for everything the sans-IO
//! [`ctk_core::driver::SessionDriver`] exchanges with a crowd backend —
//! question batches with [`ctk_crowd::RouteHint`]s, graded answer frames,
//! and final [`ctk_core::session::UrReport`] /
//! [`ctk_tpo::PrecisionReport`] summaries.
//!
//! The codec exists so the driver traffic can cross a process boundary:
//! the `crowd_gateway` example runs a full `TopKService` against a
//! gateway-side crowd where **every** interaction is a round trip through
//! [`encode_frame`] / [`decode_frame`], and asserts the resulting reports
//! equal the in-process path bit for bit.
//!
//! Format guarantees (DESIGN.md §14):
//!
//! * **Deterministic** — encoding is a pure function of the value: no
//!   maps, no pointers, no timestamps. `encode(x)` is byte-identical
//!   across runs, machines and thread counts, so frames can be hashed,
//!   diffed and replayed.
//! * **Versioned** — every frame leads with [`WIRE_VERSION`]; a decoder
//!   rejects frames from a different version with
//!   [`WireError::UnknownVersion`] instead of guessing.
//! * **Length-prefixed** — the header carries the payload length, so
//!   frames can be cut out of a byte stream without parsing the payload,
//!   and a truncated buffer fails with [`WireError::Truncated`] (with the
//!   missing byte count) rather than a panic.
//! * **Strict** — payload bytes must be consumed exactly: inner slack is
//!   [`WireError::TrailingGarbage`], out-of-range enums and non-0/1 bools
//!   are [`WireError::Malformed`]. Decoding never panics on any input
//!   (pinned by proptests and the ctk-analyze panic wall).

pub mod codec;
pub mod error;
pub mod frames;

pub use error::WireError;
pub use frames::{
    decode_frame, decode_frame_exact, encode_frame, AnswerBatch, Frame, GradedAnswer,
    PrecisionSummary, QuestionBatch, ReportSummary, StepSummary,
};

/// The codec version every frame leads with. Bump on any layout change;
/// decoders reject other versions loudly ([`WireError::UnknownVersion`])
/// so old peers fail fast instead of misreading payloads.
pub const WIRE_VERSION: u8 = 1;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, WireError>;
