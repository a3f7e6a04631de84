//! `A*-off` and `A*-on` (§III-A/B): optimal question-set search.
//!
//! `A*-off` finds the question set of size `B` minimizing the expected
//! residual uncertainty (Theorem 3.2: offline-optimal). The state space is
//! the lattice of question subsets of `Q_K`, explored best-first.
//!
//! * For entropy-family measures, one binary answer removes at most
//!   `ln 2` nats in expectation, so
//!   `f(S) = max(0, R(S) − (B − |S|) · ln 2)` is an admissible *and
//!   consistent* heuristic — the first complete set popped is optimal.
//! * For distance-based measures no sound per-question bound is known, so
//!   the search degrades to exhaustive enumeration of all
//!   `C(|Q_K|, B)` sets (feasible only on the small instances the paper
//!   itself evaluates A* on — its Fig. 1(b) shows `A*` costs up to `1e6`
//!   seconds, which is precisely why the heuristics exist).
//!
//! An optional expansion cap bounds the work; when it trips, the best
//! complete set found so far is returned and the result is flagged
//! non-optimal.
//!
//! Both searches index the path set once: every evaluated set refines a
//! clone of one root [`AnswerPartition`], which shares its prefix index.

use super::{relevant_questions, OfflineSelector, OnlineSelector};
use crate::residual::{AnswerPartition, ResidualCtx};
use ctk_crowd::Question;
use ctk_tpo::PathSet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Outcome of an `A*-off` search.
#[derive(Debug, Clone)]
pub struct AStarOutcome {
    /// The selected questions.
    pub questions: Vec<Question>,
    /// Whether optimality is guaranteed (no cap tripped).
    pub optimal: bool,
    /// Number of node expansions / set evaluations performed.
    pub expansions: usize,
}

/// Best-first search over question sets.
#[derive(Debug, Clone, Default)]
pub struct AStarOff {
    /// Optional cap on node expansions (None = run to optimality).
    pub max_expansions: Option<usize>,
}

impl AStarOff {
    /// Unbounded (provably optimal) search.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the search and reports the outcome.
    pub fn search(&self, ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> AStarOutcome {
        let pool = relevant_questions(ps, ctx);
        if pool.is_empty() || budget == 0 {
            return AStarOutcome {
                questions: Vec::new(),
                optimal: true,
                expansions: 0,
            };
        }
        if pool.len() <= budget {
            // Asking every relevant question dominates any subset.
            return AStarOutcome {
                questions: pool,
                optimal: true,
                expansions: 0,
            };
        }
        match ctx.measure.per_question_reduction_bound() {
            Some(bound) => self.best_first(ps, &pool, budget, ctx, bound),
            None => self.exhaustive(ps, &pool, budget, ctx),
        }
    }

    fn best_first(
        &self,
        ps: &PathSet,
        pool: &[Question],
        budget: usize,
        ctx: &ResidualCtx<'_>,
        bound: f64,
    ) -> AStarOutcome {
        let root_g = ctx.measure.uncertainty(ps);
        let root = AnswerPartition::root(ps);
        let mut heap: BinaryHeap<HeapNode> = BinaryHeap::new();
        heap.push(HeapNode {
            f: (root_g - budget as f64 * bound).max(0.0),
            set: Vec::new(),
        });
        let mut expansions = 0usize;
        let mut best_complete: Option<(f64, Vec<u16>)> = None;

        while let Some(node) = heap.pop() {
            if node.set.len() == budget {
                return AStarOutcome {
                    questions: to_questions(&node.set, pool),
                    optimal: true,
                    expansions,
                };
            }
            if let Some(cap) = self.max_expansions {
                if expansions >= cap {
                    break;
                }
            }
            expansions += 1;
            let start = node.set.last().map(|&x| x as usize + 1).unwrap_or(0);
            let slots_left = budget - node.set.len();
            // Leave enough higher indices to complete the set.
            let last_start = pool.len() - slots_left;
            for qi in start..=last_start {
                let mut set = node.set.clone();
                set.push(qi as u16);
                let mut part = root.clone();
                for &x in &set {
                    part.refine(&pool[x as usize], ctx);
                }
                let g = part.expected_uncertainty(ctx.measure);
                let remaining = budget - set.len();
                let f = (g - remaining as f64 * bound).max(0.0);
                if set.len() == budget {
                    let better = best_complete
                        .as_ref()
                        .map(|(bg, _)| g < *bg)
                        .unwrap_or(true);
                    if better {
                        best_complete = Some((g, set.clone()));
                    }
                }
                heap.push(HeapNode { f, set });
            }
        }
        // Cap tripped (or heap exhausted, which cannot happen with a
        // correct expansion): fall back to the best complete set seen.
        let (questions, optimal) = match best_complete {
            Some((_, set)) => (to_questions(&set, pool), false),
            None => (pool[..budget].to_vec(), false),
        };
        AStarOutcome {
            questions,
            optimal,
            expansions,
        }
    }

    fn exhaustive(
        &self,
        ps: &PathSet,
        pool: &[Question],
        budget: usize,
        ctx: &ResidualCtx<'_>,
    ) -> AStarOutcome {
        let mut best: Option<(f64, Vec<u16>)> = None;
        let mut evals = 0usize;
        let mut capped = false;
        let mut stack: Vec<u16> = Vec::with_capacity(budget);

        /// Depth-first over the sets extending `stack`; `part` is the
        /// root refined by `stack`'s questions, in order.
        #[allow(clippy::too_many_arguments)]
        fn rec(
            start: usize,
            stack: &mut Vec<u16>,
            budget: usize,
            pool: &[Question],
            part: &mut AnswerPartition,
            ctx: &ResidualCtx<'_>,
            best: &mut Option<(f64, Vec<u16>)>,
            evals: &mut usize,
            cap: Option<usize>,
            capped: &mut bool,
        ) {
            if *capped {
                return;
            }
            if stack.len() == budget {
                if let Some(c) = cap {
                    if *evals >= c {
                        *capped = true;
                        return;
                    }
                }
                *evals += 1;
                let g = part.expected_uncertainty(ctx.measure);
                let better = best.as_ref().map(|(bg, _)| g < *bg).unwrap_or(true);
                if better {
                    *best = Some((g, stack.clone()));
                }
                return;
            }
            let slots_left = budget - stack.len();
            for qi in start..=(pool.len() - slots_left) {
                stack.push(qi as u16);
                let mut child = part.clone();
                child.refine(&pool[qi], ctx);
                rec(
                    qi + 1,
                    stack,
                    budget,
                    pool,
                    &mut child,
                    ctx,
                    best,
                    evals,
                    cap,
                    capped,
                );
                stack.pop();
                // Early exit: nothing beats zero residual.
                if let Some((bg, _)) = best {
                    if *bg <= 1e-15 {
                        return;
                    }
                }
                if *capped {
                    return;
                }
            }
        }

        rec(
            0,
            &mut stack,
            budget,
            pool,
            &mut AnswerPartition::root(ps),
            ctx,
            &mut best,
            &mut evals,
            self.max_expansions,
            &mut capped,
        );
        let (g_questions, had_best) = match best {
            Some((_, set)) => (to_questions(&set, pool), true),
            None => (pool[..budget.min(pool.len())].to_vec(), false),
        };
        AStarOutcome {
            questions: g_questions,
            optimal: had_best && !capped,
            expansions: evals,
        }
    }
}

impl OfflineSelector for AStarOff {
    fn name(&self) -> &'static str {
        "A*-off"
    }

    fn select(&mut self, ps: &PathSet, budget: usize, ctx: &ResidualCtx<'_>) -> Vec<Question> {
        self.search(ps, budget, ctx).questions
    }
}

/// `A*-on`: re-runs `A*-off` on the pruned tree after every answer and
/// asks the first question of the refreshed plan.
#[derive(Debug, Clone, Default)]
pub struct AStarOn {
    /// Planning horizon per round (`0` = the full remaining budget, as in
    /// the paper; small values trade optimality for speed).
    pub lookahead: usize,
    /// Expansion cap forwarded to the inner `A*-off`.
    pub max_expansions: Option<usize>,
}

impl OnlineSelector for AStarOn {
    fn name(&self) -> &'static str {
        "A*-on"
    }

    fn next_question(
        &mut self,
        ps: &PathSet,
        remaining: usize,
        ctx: &ResidualCtx<'_>,
    ) -> Option<Question> {
        if ps.is_resolved() || remaining == 0 {
            return None;
        }
        let horizon = if self.lookahead == 0 {
            remaining
        } else {
            self.lookahead.min(remaining)
        };
        let inner = AStarOff {
            max_expansions: self.max_expansions,
        };
        inner.search(ps, horizon, ctx).questions.into_iter().next()
    }
}

fn to_questions(set: &[u16], pool: &[Question]) -> Vec<Question> {
    set.iter().map(|&x| pool[x as usize]).collect()
}

/// Heap node ordered by ascending `f` (BinaryHeap is a max-heap, so the
/// comparison is reversed); ties prefer deeper sets (closer to complete).
#[derive(Debug, Clone)]
struct HeapNode {
    f: f64,
    set: Vec<u16>,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on f (min-heap), then prefer longer sets, then compare
        // sets for total order determinism.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.set.len().cmp(&other.set.len()))
            .then_with(|| other.set.cmp(&self.set))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{assert_valid_selection, fixture, residual_of};
    use super::*;
    use crate::measures::{Entropy, MpoDistance, WeightedEntropy};
    use crate::select::{COff, TbOff};

    #[test]
    fn astar_matches_exhaustive_for_entropy() {
        let (_, pw, ps) = fixture();
        let m = Entropy;
        let ctx = ResidualCtx {
            measure: &m,
            pairwise: &pw,
        };
        for budget in [1usize, 2, 3] {
            let fast = AStarOff::new().search(&ps, budget, &ctx);
            assert!(fast.optimal);
            // Exhaustive reference (force the no-bound path by evaluating
            // all sets by hand).
            let pool = relevant_questions(&ps, &ctx);
            let mut best = f64::INFINITY;
            enumerate_sets(pool.len(), budget, &mut |set| {
                let qs: Vec<Question> = set.iter().map(|&x| pool[x]).collect();
                let r = crate::residual::expected_residual_set(&ps, &qs, &ctx);
                if r < best {
                    best = r;
                }
            });
            let got = residual_of(&ps, &fast.questions, &m, &pw);
            assert!(
                (got - best).abs() < 1e-9,
                "B={budget}: A* {got} vs exhaustive {best}"
            );
        }
    }

    fn enumerate_sets(n: usize, b: usize, f: &mut impl FnMut(&[usize])) {
        fn rec(
            start: usize,
            n: usize,
            b: usize,
            cur: &mut Vec<usize>,
            f: &mut impl FnMut(&[usize]),
        ) {
            if cur.len() == b {
                f(cur);
                return;
            }
            for i in start..n {
                cur.push(i);
                rec(i + 1, n, b, cur, f);
                cur.pop();
            }
        }
        rec(0, n, b, &mut Vec::new(), f);
    }

    #[test]
    fn astar_never_loses_to_heuristics() {
        let (_, pw, ps) = fixture();
        let m = WeightedEntropy::default();
        let ctx = ResidualCtx {
            measure: &m,
            pairwise: &pw,
        };
        let budget = 3;
        let astar = AStarOff::new().search(&ps, budget, &ctx);
        let ra = residual_of(&ps, &astar.questions, &m, &pw);
        let rt = residual_of(&ps, &TbOff.select(&ps, budget, &ctx), &m, &pw);
        let rc = residual_of(&ps, &COff.select(&ps, budget, &ctx), &m, &pw);
        assert!(ra <= rt + 1e-9, "A* {ra} vs TB-off {rt}");
        assert!(ra <= rc + 1e-9, "A* {ra} vs C-off {rc}");
        assert_valid_selection(&astar.questions, &ps, budget);
    }

    #[test]
    fn distance_measures_use_exhaustive_search() {
        let (_, pw, ps) = fixture();
        let m = MpoDistance::default();
        let ctx = ResidualCtx {
            measure: &m,
            pairwise: &pw,
        };
        let out = AStarOff::new().search(&ps, 2, &ctx);
        assert!(out.optimal);
        assert_eq!(out.questions.len(), 2);
        // Must (weakly) beat the greedy strategies under the same measure.
        let rt = residual_of(&ps, &TbOff.select(&ps, 2, &ctx), &m, &pw);
        let ra = residual_of(&ps, &out.questions, &m, &pw);
        assert!(ra <= rt + 1e-9, "exhaustive {ra} vs TB-off {rt}");
    }

    #[test]
    fn cap_degrades_gracefully() {
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let out = AStarOff {
            max_expansions: Some(1),
        }
        .search(&ps, 3, &ctx);
        assert_eq!(out.questions.len(), 3, "still returns a full set");
        // With such a tiny cap, optimality cannot be guaranteed (though the
        // answer may coincidentally be optimal).
        assert!(!out.optimal);
    }

    #[test]
    fn small_pool_short_circuits() {
        let (_, pw, _) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        // Two-ordering set: exactly one relevant question.
        let tiny =
            ctk_tpo::PathSet::from_weighted(2, vec![(vec![0, 1], 0.6), (vec![1, 0], 0.4)]).unwrap();
        let out = AStarOff::new().search(&tiny, 5, &ctx);
        assert!(out.optimal);
        assert_eq!(out.expansions, 0, "pool <= budget short-circuit");
        assert_eq!(out.questions, vec![Question::new(0, 1)]);
    }

    #[test]
    fn astar_on_plans_and_replans() {
        let (_, pw, ps) = fixture();
        let ctx = ResidualCtx {
            measure: &Entropy,
            pairwise: &pw,
        };
        let mut on = AStarOn {
            lookahead: 2,
            max_expansions: None,
        };
        let q = on.next_question(&ps, 5, &ctx).unwrap();
        // The first planned question must match A*-off's first pick with
        // the same horizon.
        let plan = AStarOff::new().search(&ps, 2, &ctx);
        assert_eq!(q, plan.questions[0]);
        assert_eq!(on.name(), "A*-on");
        // Resolved set: no more questions.
        let resolved = ctk_tpo::PathSet::from_weighted(2, vec![(vec![0, 1], 1.0)]).unwrap();
        assert!(on.next_question(&resolved, 5, &ctx).is_none());
    }
}
