//! Arena representation of the tree of possible orderings.
//!
//! The flat [`PathSet`] is the workhorse for measures and selection; this
//! explicit tree provides the level structure (node = prefix, edge =
//! “ranked immediately after”), counts, and Graphviz export for
//! visualization — the shape the paper draws in its figures.

use crate::path::PathSet;
use std::fmt::Write as _;

/// One node of the TPO arena.
#[derive(Debug, Clone, PartialEq)]
pub struct TpoNode {
    /// Tuple id at this node (`None` for the root).
    pub tuple: Option<u32>,
    /// Probability mass of the prefix ending at this node.
    pub prob: f64,
    /// Depth (root = 0, first ranked tuple = 1).
    pub depth: usize,
    /// Parent index (`None` for the root).
    pub parent: Option<usize>,
    /// Child indices, ordered by descending probability then tuple id.
    pub children: Vec<usize>,
}

/// Tree of possible orderings, materialized as an arena.
#[derive(Debug, Clone)]
pub struct Tpo {
    nodes: Vec<TpoNode>,
    k: usize,
}

impl Tpo {
    /// Builds the trie of a path set (prefix probabilities are the sums of
    /// their descendant paths).
    pub fn from_path_set(ps: &PathSet) -> Self {
        let mut nodes = vec![TpoNode {
            tuple: None,
            prob: 1.0,
            depth: 0,
            parent: None,
            children: Vec::new(),
        }];
        for path in ps.paths() {
            let mut cur = 0usize;
            for (d, &t) in path.items.iter().enumerate() {
                // Find or create the child with this tuple.
                let child = nodes[cur]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| nodes[c].tuple == Some(t));
                let child = match child {
                    Some(c) => {
                        nodes[c].prob += path.prob;
                        c
                    }
                    None => {
                        let idx = nodes.len();
                        nodes.push(TpoNode {
                            tuple: Some(t),
                            prob: path.prob,
                            depth: d + 1,
                            parent: Some(cur),
                            children: Vec::new(),
                        });
                        nodes[cur].children.push(idx);
                        idx
                    }
                };
                cur = child;
            }
        }
        // Deterministic child ordering.
        let order: Vec<(usize, f64, Option<u32>)> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (i, n.prob, n.tuple))
            .collect();
        for node in &mut nodes {
            node.children.sort_unstable_by(|&a, &b| {
                order[b]
                    .1
                    .total_cmp(&order[a].1)
                    .then(order[a].2.cmp(&order[b].2))
            });
        }
        Self { nodes, k: ps.k() }
    }

    /// Root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Target depth `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Node accessor.
    pub fn node(&self, idx: usize) -> &TpoNode {
        &self.nodes[idx]
    }

    /// Total number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Trees always contain at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Indices of all nodes at `depth`.
    pub fn level(&self, depth: usize) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].depth == depth)
            .collect()
    }

    /// Leaf indices (nodes with no children).
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_empty())
            .collect()
    }

    /// Number of distinct orderings (= leaves).
    pub fn num_orderings(&self) -> usize {
        self.leaves().len()
    }

    /// The tuple sequence of the path from the root to `idx`.
    #[cfg(test)]
    fn path_to(&self, idx: usize) -> Vec<u32> {
        let mut items = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            if let Some(t) = self.nodes[i].tuple {
                items.push(t);
            }
            cur = self.nodes[i].parent;
        }
        items.reverse();
        items
    }

    /// Graphviz DOT rendering (tuple labels via `label`, probabilities on
    /// edges).
    pub fn to_dot<F: Fn(u32) -> String>(&self, label: F) -> String {
        let mut out = String::from("digraph tpo {\n  rankdir=TB;\n  node [shape=circle];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let text = match n.tuple {
                None => "⊥".to_string(),
                Some(t) => label(t),
            };
            let _ = writeln!(out, "  n{i} [label=\"{text}\"];");
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for &c in &n.children {
                let _ = writeln!(out, "  n{i} -> n{c} [label=\"{:.3}\"];", self.nodes[c].prob);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps() -> PathSet {
        PathSet::from_weighted(
            2,
            vec![(vec![0, 1], 0.5), (vec![0, 2], 0.2), (vec![1, 0], 0.3)],
        )
        .unwrap()
    }

    #[test]
    fn trie_structure() {
        let t = Tpo::from_path_set(&ps());
        // Nodes: root, 0, 0->1, 0->2, 1, 1->0 = 6.
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(t.num_orderings(), 3);
        assert_eq!(t.level(1).len(), 2);
        assert_eq!(t.level(2).len(), 3);
        assert_eq!(t.k(), 2);
    }

    #[test]
    fn prefix_probabilities_aggregate() {
        let t = Tpo::from_path_set(&ps());
        // The level-1 node for tuple 0 carries mass 0.7.
        let l1 = t.level(1);
        let n0 = l1
            .iter()
            .copied()
            .find(|&i| t.node(i).tuple == Some(0))
            .unwrap();
        assert!((t.node(n0).prob - 0.7).abs() < 1e-12);
        // Children of the root are sorted by descending mass.
        let root_children = &t.node(t.root()).children;
        assert_eq!(t.node(root_children[0]).tuple, Some(0));
    }

    #[test]
    fn path_reconstruction() {
        let t = Tpo::from_path_set(&ps());
        for &leaf in &t.leaves() {
            let path = t.path_to(leaf);
            assert_eq!(path.len(), 2);
            // Path must exist in the original set.
            assert!(ps().paths().iter().any(|p| p.items == path));
        }
        assert!(t.path_to(t.root()).is_empty());
    }

    #[test]
    fn parent_child_coherence() {
        let t = Tpo::from_path_set(&ps());
        for i in 0..t.len() {
            for &c in &t.node(i).children {
                assert_eq!(t.node(c).parent, Some(i));
                assert_eq!(t.node(c).depth, t.node(i).depth + 1);
                assert!(t.node(c).prob <= t.node(i).prob + 1e-12);
            }
        }
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let t = Tpo::from_path_set(&ps());
        let dot = t.to_dot(|t| format!("t{t}"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("t0"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }
}
