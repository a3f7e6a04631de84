//! Positive fixture: every determinism rule fires at least once.
use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub fn hash_iteration_order_leaks(xs: &[u32]) -> Vec<u32> {
    let mut m: HashMap<u32, u32> = HashMap::new();
    let mut s: HashSet<u32> = HashSet::new();
    for &x in xs {
        m.insert(x, x * 2);
        s.insert(x);
    }
    m.into_values().chain(s.into_iter()).collect()
}

pub fn ad_hoc_threading(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let h = std::thread::spawn(move || n * 2);
    cores + h.join().unwrap_or(0)
}

pub fn reads_the_clock() -> bool {
    let t = Instant::now();
    t.elapsed().as_nanos() % 2 == 0
}
