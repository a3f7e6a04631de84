//! Kendall distance for *top-k lists* (Fagin, Kumar & Sivakumar's `K^(p)`),
//! the distance used throughout the paper's evaluation: both the TPO paths
//! and the real ordering `ω_r` are top-K prefixes, possibly over different
//! item sets.
//!
//! For an unordered item pair `{i, j}` from the union of two lists the
//! penalty is:
//!
//! 1. both in both lists — 1 if the orders disagree, else 0;
//! 2. both in one list, exactly one of them in the other — the other list
//!    implicitly ranks its present item above the absent one: 1 if that
//!    contradicts the first list, else 0;
//! 3. `i` only in one list, `j` only in the other — 1 (they certainly
//!    disagree: each list ranks its own member in the top-k, the other
//!    below);
//! 4. both in one list, neither in the other — penalty parameter
//!    `p ∈ [0, 1]` (unknowable; `p = 1/2` is the neutral choice).
//!
//! One kernel, `topk_kendall_with`, computes the sum over item slices:
//! it looks up each of `a`'s items in `b` once, then walks the union pairs
//! in a fixed order — `a`'s items in rank order, then `b`'s items absent
//! from `a`, each pair `x < y` once — adding each pair's `0`, `1` or `p`
//! with O(1) work and no allocation (lists longer than 32 items spill
//! their lookups to one heap buffer). Because the nonzero terms arrive in
//! the same order as a pairwise walk of the union, the float sum is the
//! same bits at every `p`. The [`RankList`] entry points delegate to it;
//! callers that evaluate many lists against one fixed list (the report's
//! `D(ω_r, T_K)`, `U_MPO`) pass an indexed position lookup instead of a
//! scan.

use crate::list::RankList;

/// Neutral penalty parameter for case 4.
pub const NEUTRAL_PENALTY: f64 = 0.5;

/// Lists up to this length keep their position lookups on the stack.
const INLINE: usize = 32;

/// Position marker of an item of `a` that `b` does not rank.
const ABSENT: usize = usize::MAX;

/// Raw `K^(p)` between the list `a` and a list of `kb` items whose rank of
/// an item `pos_in_b` reports (`None` when `b` does not rank it).
///
/// The union pairs are walked in `a`'s order, then `b`'s items absent from
/// `a`; every pair adds its case's `0`, `1` or `p` in that order, so the
/// sum is the one a pairwise walk of the union over both lists gives, bit
/// for bit at every `p`.
fn topk_kendall_with(a: &[u32], kb: usize, p: f64, pos_in_b: impl Fn(u32) -> Option<usize>) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "penalty must be in [0,1]");
    let mut inline = [ABSENT; INLINE];
    let mut spill = Vec::new();
    let in_b: &mut [usize] = if a.len() <= INLINE {
        &mut inline[..a.len()]
    } else {
        spill.resize(a.len(), ABSENT);
        &mut spill
    };
    let mut shared = 0;
    for (slot, &item) in in_b.iter_mut().zip(a) {
        if let Some(q) = pos_in_b(item) {
            debug_assert!(q < kb, "position {q} outside a list of {kb}");
            *slot = q;
            shared += 1;
        }
    }
    let b_only = kb - shared;
    let in_b = &*in_b;
    let mut total = 0.0;
    for (x, &bx) in in_b.iter().enumerate() {
        let later = &in_b[x + 1..];
        if bx == ABSENT {
            // `i` ranked by `a` only. A later item of `a` that `b` ranks is
            // case 2 (`b` puts it above `i`, `a` below): 1; one `b` does not
            // rank is case 4: p. Every item only `b` ranks is case 3: 1.
            for &by in later {
                total += if by == ABSENT { p } else { 1.0 };
            }
            for _ in 0..b_only {
                total += 1.0;
            }
        } else {
            // `i` ranked by both. A later item of `a` disagrees (case 1)
            // when `b` ranks it above `i`; one `b` does not rank agrees
            // (case 2: both lists put `i` first), and `ABSENT` never
            // compares below `bx`. An item only `b` ranks contradicts `a`
            // (case 2 mirrored) exactly when `b` ranks it above `i`: the
            // `bx` positions above `i` less those held by `a`'s items.
            for &by in later {
                if by < bx {
                    total += 1.0;
                }
            }
            let above = bx - in_b.iter().filter(|&&q| q < bx).count();
            for _ in 0..above {
                total += 1.0;
            }
        }
    }
    // Pairs of items only `b` ranks: case 4.
    for _ in 0..b_only * b_only.saturating_sub(1) / 2 {
        total += p;
    }
    total
}

/// Raw Fagin `K^(p)` distance between two top-k lists.
pub fn topk_kendall(a: &RankList, b: &RankList, p: f64) -> f64 {
    topk_kendall_with(a.items(), b.len(), p, |item| b.position(item))
}

/// Maximum possible `K^(p)` for lists of lengths `ka`, `kb` (attained by
/// disjoint lists): every cross pair disagrees and every same-list pair is
/// unknowable.
pub fn topk_kendall_max(ka: usize, kb: usize, p: f64) -> f64 {
    let (ka, kb) = (ka as f64, kb as f64);
    ka * kb + p * (ka * (ka - 1.0) / 2.0 + kb * (kb - 1.0) / 2.0)
}

/// `K^(p)` between the list `a` and a list of `kb` items whose rank of an
/// item `pos_in_b` reports, normalized to `[0, 1]`. Two empty lists are at
/// distance 0.
pub fn topk_kendall_normalized_with(
    a: &[u32],
    kb: usize,
    p: f64,
    pos_in_b: impl Fn(u32) -> Option<usize>,
) -> f64 {
    let max = topk_kendall_max(a.len(), kb, p);
    if max <= 0.0 {
        return 0.0;
    }
    (topk_kendall_with(a, kb, p, pos_in_b) / max).clamp(0.0, 1.0)
}

/// `K^(p)` normalized to `[0, 1]`. Two empty lists are at distance 0.
pub fn topk_kendall_normalized(a: &RankList, b: &RankList, p: f64) -> f64 {
    topk_kendall_normalized_with(a.items(), b.len(), p, |item| b.position(item))
}

/// Normalized `K^(p)` with the neutral penalty `p = 1/2` — the default
/// distance `D` used in the experiment harness.
pub fn topk_distance(a: &RankList, b: &RankList) -> f64 {
    topk_kendall_normalized(a, b, NEUTRAL_PENALTY)
}

/// The pairwise-union walk the kernel replaced, kept as its test oracle:
/// builds the union, then looks up both members of every pair in both
/// lists.
#[cfg(test)]
pub(crate) fn topk_kendall_reference(a: &RankList, b: &RankList, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "penalty must be in [0,1]");
    // Union of items.
    let mut union: Vec<u32> = a.items().to_vec();
    for &it in b.items() {
        if !a.contains(it) {
            union.push(it);
        }
    }
    let mut total = 0.0;
    for x in 0..union.len() {
        for y in (x + 1)..union.len() {
            let (i, j) = (union[x], union[y]);
            let pa = (a.position(i), a.position(j));
            let pb = (b.position(i), b.position(j));
            total += match (pa, pb) {
                // Case 1: both in both.
                ((Some(ai), Some(aj)), (Some(bi), Some(bj))) => {
                    if (ai < aj) == (bi < bj) {
                        0.0
                    } else {
                        1.0
                    }
                }
                // Case 2: both in a, one in b.
                ((Some(ai), Some(aj)), (Some(_), None)) => {
                    // b implies i above j.
                    if ai < aj {
                        0.0
                    } else {
                        1.0
                    }
                }
                ((Some(ai), Some(aj)), (None, Some(_))) => {
                    // b implies j above i.
                    if aj < ai {
                        0.0
                    } else {
                        1.0
                    }
                }
                // Case 2 mirrored: both in b, one in a.
                ((Some(_), None), (Some(bi), Some(bj))) => {
                    if bi < bj {
                        0.0
                    } else {
                        1.0
                    }
                }
                ((None, Some(_)), (Some(bi), Some(bj))) => {
                    if bj < bi {
                        0.0
                    } else {
                        1.0
                    }
                }
                // Case 3: i in one list only, j in the other only.
                ((Some(_), None), (None, Some(_))) | ((None, Some(_)), (Some(_), None)) => 1.0,
                // Case 4: both in exactly one of the lists.
                ((Some(_), Some(_)), (None, None)) | ((None, None), (Some(_), Some(_))) => p,
                // Items outside both lists cannot be in the union.
                ((None, None), (None, None)) => unreachable!("item outside both lists"),
                // One item present in a single list, the other in none:
                // impossible for union members.
                ((Some(_), None), (None, None))
                | ((None, Some(_)), (None, None))
                | ((None, None), (Some(_), None))
                | ((None, None), (None, Some(_)))
                | ((Some(_), None), (Some(_), None))
                | ((None, Some(_)), (None, Some(_))) => {
                    // Both present only in the same single list is impossible
                    // here because the pair loop draws from the union and the
                    // other element would need to exist somewhere; these arms
                    // are genuinely unreachable but kept total for safety.
                    unreachable!("union pair with inconsistent membership")
                }
            };
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kendall::kendall_distance;
    use proptest::prelude::*;

    fn rl(items: &[u32]) -> RankList {
        RankList::new(items.to_vec()).unwrap()
    }

    #[test]
    fn identical_lists_at_zero() {
        let a = rl(&[3, 1, 2]);
        assert_eq!(topk_kendall(&a, &a.clone(), 0.5), 0.0);
        assert_eq!(topk_distance(&a, &a.clone()), 0.0);
    }

    #[test]
    fn same_items_reduces_to_kendall() {
        let a = rl(&[0, 1, 2, 3]);
        let b = rl(&[2, 0, 3, 1]);
        let k = kendall_distance(&a, &b).unwrap() as f64;
        assert_eq!(topk_kendall(&a, &b, 0.5), k);
        assert_eq!(topk_kendall(&a, &b, 0.0), k);
    }

    #[test]
    fn disjoint_lists_hit_the_maximum() {
        let a = rl(&[0, 1, 2]);
        let b = rl(&[3, 4, 5]);
        for p in [0.0, 0.5, 1.0] {
            let d = topk_kendall(&a, &b, p);
            assert!((d - topk_kendall_max(3, 3, p)).abs() < 1e-12, "p={p}: {d}");
            assert_eq!(topk_kendall_normalized(&a, &b, p), 1.0);
        }
    }

    #[test]
    fn one_overlapping_item() {
        // a = [0,1], b = [0,2]:
        // pair (0,1): both in a, only 0 in b -> b implies 0 above 1; a agrees -> 0
        // pair (0,2): both in b, only 0 in a -> a implies 0 above 2; b agrees -> 0
        // pair (1,2): 1 only in a, 2 only in b -> 1
        let a = rl(&[0, 1]);
        let b = rl(&[0, 2]);
        assert_eq!(topk_kendall(&a, &b, 0.5), 1.0);
    }

    #[test]
    fn case2_contradiction_counts() {
        // a = [1,0], b = [0,2]: pair (0,1): both in a (1 above 0), only 0 in
        // b -> b implies 0 above 1, contradicting a -> 1.
        let a = rl(&[1, 0]);
        let b = rl(&[0, 2]);
        // pairs: (1,0): 1 ; (1,2): cross-only -> 1 ; (0,2): both in b, a has
        // only 0 -> a implies 0 above 2, b agrees -> 0. total 2.
        assert_eq!(topk_kendall(&a, &b, 0.5), 2.0);
    }

    #[test]
    fn penalty_only_affects_case4() {
        // a = [0,1,2], b = [0,9,8]: pairs (1,2) are both in a, absent in b.
        let a = rl(&[0, 1, 2]);
        let b = rl(&[0, 9, 8]);
        let d0 = topk_kendall(&a, &b, 0.0);
        let d1 = topk_kendall(&a, &b, 1.0);
        // Exactly two case-4 pairs: {1,2} (in a only) and {9,8} (in b only).
        assert!((d1 - d0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let a = rl(&[0, 1, 2, 7]);
        let b = rl(&[2, 3, 0, 9]);
        for p in [0.0, 0.3, 0.5, 1.0] {
            assert!(
                (topk_kendall(&a, &b, p) - topk_kendall(&b, &a, p)).abs() < 1e-12,
                "p = {p}"
            );
        }
    }

    #[test]
    fn normalized_is_bounded() {
        let a = rl(&[0, 1, 2]);
        let cases = [
            rl(&[0, 1, 2]),
            rl(&[2, 1, 0]),
            rl(&[5, 6, 7]),
            rl(&[1, 5, 0]),
        ];
        for b in &cases {
            let d = topk_distance(&a, b);
            assert!((0.0..=1.0).contains(&d), "d = {d}");
        }
        // Empty lists.
        let e = rl(&[]);
        assert_eq!(topk_distance(&e, &e.clone()), 0.0);
    }

    /// A random list of `len` distinct items drawn from `pool`.
    fn draw(pool: &mut [u32], len: usize, rng: &mut proptest::test_runner::TestRng) -> Vec<u32> {
        for i in (1..pool.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            pool.swap(i, j);
        }
        pool[..len.min(pool.len())].to_vec()
    }

    /// Two lists of lengths in `0..=k` each, identical (`shape` 0),
    /// disjoint (1) or partly overlapping (2: both drawn from `k + 3`
    /// shared items).
    fn list_pair(k: usize) -> impl Strategy<Value = (RankList, RankList)> {
        (0usize..3, 0..=k, 0..=k).prop_perturb(move |(shape, ka, kb), mut rng| {
            let (a, b) = match shape {
                0 => {
                    let a = draw(&mut (0..2 * k as u32).collect::<Vec<_>>(), ka, &mut rng);
                    (a.clone(), a)
                }
                1 => (
                    draw(&mut (0..k as u32).collect::<Vec<_>>(), ka, &mut rng),
                    draw(
                        &mut (k as u32..2 * k as u32).collect::<Vec<_>>(),
                        kb,
                        &mut rng,
                    ),
                ),
                _ => {
                    let mut pool: Vec<u32> = (0..k as u32 + 3).collect();
                    let a = draw(&mut pool, ka, &mut rng);
                    (a, draw(&mut pool, kb, &mut rng))
                }
            };
            (RankList::new_unchecked(a), RankList::new_unchecked(b))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernel_matches_the_pairwise_union_walk_bit_for_bit(
            (a, b) in list_pair(8),
            p in 0.0..=1.0f64,
        ) {
            for p in [p, 0.0, NEUTRAL_PENALTY, 1.0] {
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let want = topk_kendall_reference(x, y, p);
                    prop_assert_eq!(topk_kendall(x, y, p).to_bits(), want.to_bits());
                    let max = topk_kendall_max(x.len(), y.len(), p);
                    let want = if max <= 0.0 { 0.0 } else { (want / max).clamp(0.0, 1.0) };
                    prop_assert_eq!(topk_kendall_normalized(x, y, p).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn long_lists_spill_their_lookups() {
        // Past the inline capacity the kernel's lookups live on the heap;
        // the sum is unchanged.
        let a = rl(&(0..40).collect::<Vec<_>>());
        let b = rl(&(20..60).rev().collect::<Vec<_>>());
        for p in [0.0, 0.3, 0.5, 1.0] {
            assert_eq!(
                topk_kendall(&a, &b, p).to_bits(),
                topk_kendall_reference(&a, &b, p).to_bits()
            );
        }
    }

    #[test]
    fn different_lengths_supported() {
        let a = rl(&[0, 1, 2, 3]);
        let b = rl(&[0, 1]);
        // Shared prefix in the same order: only case-4 pairs {2,3} in a.
        let d = topk_kendall(&a, &b, 0.5);
        assert!((d - 0.5).abs() < 1e-12, "d = {d}");
    }
}
