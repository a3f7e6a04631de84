#![forbid(unsafe_code)]
#![deny(warnings)]
//! # ctk-rank — rankings, top-K distances, and rank aggregation
//!
//! Ranking substrate for the `crowd-topk` workspace (reproduction of
//! *“Crowdsourcing for Top-K Query Processing over Uncertain Data”*, Ciceri
//! et al., ICDE 2016 / TKDE 28(1)).
//!
//! The paper's uncertainty measures and its headline metric `D(ω_r, T_K)`
//! are all built on distances between *top-k lists* and on representative
//! orderings of a distribution over lists:
//!
//! * [`RankList`] — an ordered list of distinct items (a TPO path, a true
//!   top-K, a full permutation);
//! * [`kendall`] — classic Kendall tau for full permutations
//!   (`O(n log n)`);
//! * [`topk`] — Fagin/Kumar/Sivakumar `K^(p)` distance for top-k lists (the
//!   paper's `D`), with the neutral penalty `p = 1/2` as default;
//! * [`Tournament`] — pairwise precedence weights of a weighted set of
//!   lists;
//! * [`aggregate`] — the Optimal Rank Aggregation (Soliman et al.
//!   SIGMOD'11): exact bitmask DP for small candidate sets, polished
//!   heuristics (Borda / Copeland / KwikSort + local search) for large
//!   ones.
//!
//! ## Example
//!
//! ```
//! use ctk_rank::{RankList, Tournament};
//! use ctk_rank::aggregate::optimal_rank_aggregation;
//! use ctk_rank::topk::topk_distance;
//!
//! // Three possible top-3 results with probabilities.
//! let lists = [
//!     (RankList::new(vec![0, 1, 2]).unwrap(), 0.5),
//!     (RankList::new(vec![1, 0, 2]).unwrap(), 0.3),
//!     (RankList::new(vec![0, 2, 1]).unwrap(), 0.2),
//! ];
//! let t = Tournament::from_weighted_lists(&lists);
//! let ora = optimal_rank_aggregation(&t).unwrap();
//! assert_eq!(ora.ordering.items(), &[0, 1, 2]);
//!
//! // How far is the second-most-likely list from the ORA?
//! let d = topk_distance(&lists[1].0, &ora.ordering);
//! assert!(d > 0.0 && d < 0.5);
//! ```

pub mod aggregate;
pub mod error;
pub mod kendall;
pub mod list;
pub mod topk;
pub mod tournament;

pub use error::{RankError, Result};
pub use list::RankList;
pub use tournament::Tournament;
