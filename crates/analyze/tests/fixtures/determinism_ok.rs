//! Negative fixture: deterministic collections and no ad-hoc threading.
//! Prose mentioning HashMap or thread::spawn in comments must not fire,
//! nor may string literals like "Instant::now".
use std::collections::{BTreeMap, BTreeSet};

pub fn ordered_iteration(xs: &[u32]) -> Vec<u32> {
    let mut m: BTreeMap<u32, u32> = BTreeMap::new();
    let mut s: BTreeSet<u32> = BTreeSet::new();
    for &x in xs {
        m.insert(x, x * 2);
        s.insert(x);
    }
    m.into_values().chain(s).collect()
}

pub fn describe() -> &'static str {
    "no HashMap here, no thread::spawn, no Instant::now"
}

#[cfg(test)]
mod tests {
    // Test code is exempt: a HashMap in a test cannot affect results.
    #[test]
    fn hash_in_tests_is_fine() {
        let mut m = std::collections::HashMap::new();
        m.insert(1, 2);
        assert_eq!(m.len(), 1);
    }
}
