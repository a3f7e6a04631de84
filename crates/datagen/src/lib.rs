#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-datagen — synthetic uncertain-score datasets
//!
//! Data generation for the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*, Ciceri
//! et al., ICDE 2016 / TKDE 28(1)).
//!
//! The paper's evaluation uses synthetic relations whose score pdfs are
//! controlled by a handful of structural knobs — table size `N`, score
//! center layout, pdf family, and uncertainty width. [`DatasetSpec`]
//! captures those knobs, [`generate`] materializes a table
//! deterministically, and [`scenarios`] provides one named preset per
//! figure/table of the paper (see DESIGN.md §6). The [`crowd`] module
//! extends the same idea to worker populations: seeded spammer-contaminated
//! rosters and the gold questions that calibrate them, consumed by the
//! `ctk-quality` experiments.
//!
//! ## Example
//!
//! ```
//! use ctk_datagen::{DatagenError, DatasetSpec, generate};
//!
//! // The paper's default workload: N=20, U[0,1] centers, width-0.4 pdfs.
//! let table = generate(&DatasetSpec::paper_default(20, 0.4, 42)).unwrap();
//! assert_eq!(table.len(), 20);
//!
//! // Same spec, same data — experiments are reproducible.
//! assert_eq!(table, generate(&DatasetSpec::paper_default(20, 0.4, 42)).unwrap());
//!
//! // Malformed specs are errors, not process aborts.
//! assert_eq!(
//!     generate(&DatasetSpec::paper_default(0, 0.4, 42)),
//!     Err(DatagenError::EmptyTable),
//! );
//! ```

pub mod config;
pub mod crowd;
pub mod error;
pub mod generator;
pub mod scenarios;

pub use config::{CenterLayout, DatasetSpec, PdfFamily, WidthSpec};
pub use crowd::{gold_questions, spammer_pool};
pub use error::{DatagenError, Result};
pub use generator::generate;
pub use scenarios::{HeteroVariant, Scenario};
