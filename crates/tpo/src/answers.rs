//! What a top-k path implies about a pairwise question.
//!
//! The crowd question `q = (t_i ?≺ t_j)` asks whether `t_i` ranks above
//! `t_j`. A top-k path constrains the answer in three ways (§III of the
//! paper, extended to top-k membership semantics):
//!
//! * both tuples on the path — the path fixes their order;
//! * exactly one on the path — the present tuple is in the top-k and the
//!   absent one below it, so the present tuple ranks above;
//! * neither on the path — both are below rank k and the path says nothing.

/// What a path implies about “does `i` rank above `j`?”.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implication {
    /// The path implies `i` ranks above `j`.
    Yes,
    /// The path implies `j` ranks above `i`.
    No,
    /// The path does not determine the pair's order.
    Undetermined,
}

/// Implication of path `items` (best first) for the question
/// “does `i` rank above `j`?”.
pub fn implication(items: &[u32], i: u32, j: u32) -> Implication {
    let mut pos_i = None;
    let mut pos_j = None;
    for (p, &it) in items.iter().enumerate() {
        if it == i {
            pos_i = Some(p);
        } else if it == j {
            pos_j = Some(p);
        }
        if pos_i.is_some() && pos_j.is_some() {
            break;
        }
    }
    match (pos_i, pos_j) {
        (Some(a), Some(b)) => {
            if a < b {
                Implication::Yes
            } else {
                Implication::No
            }
        }
        (Some(_), None) => Implication::Yes,
        (None, Some(_)) => Implication::No,
        (None, None) => Implication::Undetermined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_present() {
        assert_eq!(implication(&[3, 1, 2], 3, 2), Implication::Yes);
        assert_eq!(implication(&[3, 1, 2], 2, 3), Implication::No);
        assert_eq!(implication(&[3, 1, 2], 1, 2), Implication::Yes);
    }

    #[test]
    fn one_present_membership_semantics() {
        // 5 is not in the top-3: everything on the path ranks above it.
        assert_eq!(implication(&[3, 1, 2], 1, 5), Implication::Yes);
        assert_eq!(implication(&[3, 1, 2], 5, 1), Implication::No);
    }

    #[test]
    fn neither_present() {
        assert_eq!(implication(&[3, 1, 2], 7, 5), Implication::Undetermined);
        assert_eq!(implication(&[], 0, 1), Implication::Undetermined);
    }

    #[test]
    fn antisymmetry() {
        // implication(i, j) == Yes  <=>  implication(j, i) == No.
        let path = [4u32, 0, 2];
        for &(i, j) in &[(4u32, 0u32), (0, 2), (4, 2), (0, 9), (9, 7)] {
            let ij = implication(&path, i, j);
            let ji = implication(&path, j, i);
            match ij {
                Implication::Yes => assert_eq!(ji, Implication::No),
                Implication::No => assert_eq!(ji, Implication::Yes),
                Implication::Undetermined => assert_eq!(ji, Implication::Undetermined),
            }
        }
    }
}
