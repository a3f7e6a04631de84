//! Ordered rank lists.
//!
//! A [`RankList`] is a sequence of distinct item ids, best first. It can be
//! a full permutation of a universe or a *top-k list* (a prefix of some
//! unknown full ranking), which is exactly what a root-to-leaf path of the
//! paper's TPO is.

use crate::error::{RankError, Result};
use std::fmt;

/// An ordered list of distinct item ids (rank 0 = best).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RankList {
    items: Vec<u32>,
}

impl RankList {
    /// Builds a rank list; fails if any item repeats.
    pub fn new(items: Vec<u32>) -> Result<Self> {
        // ctk-allow(det-hash-collection): membership-only duplicate check; never iterated
        let mut seen = std::collections::HashSet::with_capacity(items.len());
        for &it in &items {
            if !seen.insert(it) {
                return Err(RankError::DuplicateItem(it));
            }
        }
        Ok(Self { items })
    }

    /// Builds without the duplicate check — for callers that already
    /// guarantee distinctness (e.g. TPO paths, permutation generators).
    pub fn new_unchecked(items: Vec<u32>) -> Self {
        debug_assert!(
            {
                let mut s = items.clone();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "RankList::new_unchecked got duplicates"
        );
        Self { items }
    }

    /// The identity permutation `0, 1, …, n-1`.
    pub fn identity(n: usize) -> Self {
        Self {
            items: (0..n as u32).collect(),
        }
    }

    /// Number of ranked items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no items are ranked.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The ranked items, best first.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Rank (0-based) of `item`, if present. Linear scan: rank lists in this
    /// system are top-K prefixes with K ≤ a few dozen.
    pub fn position(&self, item: u32) -> Option<usize> {
        self.items.iter().position(|&x| x == item)
    }

    /// True if `item` is ranked.
    pub fn contains(&self, item: u32) -> bool {
        self.position(item).is_some()
    }

    /// The first `k` entries as a new list.
    pub fn prefix(&self, k: usize) -> RankList {
        Self {
            items: self.items[..k.min(self.items.len())].to_vec(),
        }
    }

    /// True if `a` is ranked strictly higher (earlier) than `b`.
    /// Returns `None` unless both are present.
    pub fn prefers(&self, a: u32, b: u32) -> Option<bool> {
        match (self.position(a), self.position(b)) {
            (Some(pa), Some(pb)) => Some(pa < pb),
            _ => None,
        }
    }
}

impl fmt::Display for RankList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ≻ ")?;
            }
            write!(f, "t{it}")?;
        }
        write!(f, "]")
    }
}

impl From<RankList> for Vec<u32> {
    fn from(l: RankList) -> Self {
        l.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_duplicates() {
        assert!(matches!(
            RankList::new(vec![1, 2, 1]),
            Err(RankError::DuplicateItem(1))
        ));
        assert!(RankList::new(vec![]).is_ok());
        assert!(RankList::new(vec![5]).is_ok());
    }

    #[test]
    fn identity_and_accessors() {
        let l = RankList::identity(4);
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
        assert_eq!(l.items(), &[0, 1, 2, 3]);
        assert_eq!(l.position(2), Some(2));
        assert_eq!(l.position(9), None);
        assert!(l.contains(0));
        assert!(!l.contains(4));
    }

    #[test]
    fn prefers_semantics() {
        let l = RankList::new(vec![3, 1, 2]).unwrap();
        assert_eq!(l.prefers(3, 2), Some(true));
        assert_eq!(l.prefers(2, 3), Some(false));
        assert_eq!(l.prefers(3, 9), None);
    }

    #[test]
    fn prefix_truncates() {
        let l = RankList::new(vec![3, 1, 2]).unwrap();
        assert_eq!(l.prefix(2).items(), &[3, 1]);
        assert_eq!(l.prefix(10).items(), &[3, 1, 2]);
        assert!(l.prefix(0).is_empty());
    }

    #[test]
    fn display_is_readable() {
        let l = RankList::new(vec![2, 0]).unwrap();
        assert_eq!(format!("{l}"), "[t2 ≻ t0]");
    }
}
