//! Tree **rumor centrality** of Shah & Zaman ("Rumors in a network:
//! who's the culprit?", IEEE Trans. IT 2011) — the combinatorial score
//! behind the classic unsigned single-source estimator the paper's
//! related work (§V) contrasts RID against. The estimator itself lives
//! in `isomit-detectors`, which applies this tree formula to a BFS
//! spanning tree of each infected component.
//!
//! For a tree with root `v`, `R(v) = n! / Π_u T_u^v` where `T_u^v` is
//! the size of the subtree rooted at `u` when the tree hangs from `v`.
//! All centralities are computed in one two-pass message-passing sweep
//! (log-space, so factorials never overflow).

use std::collections::VecDeque;

/// Log-space rumor centralities of every node of a tree, given as a
/// parent-pointer array over `0..n` (exactly one root with
/// `parent[root] == usize::MAX`).
///
/// Returns `log R(v)` for every `v`; differences between entries are
/// meaningful, the absolute scale is `log n!`-shifted.
///
/// # Panics
///
/// Panics if the parent array is empty or does not describe a tree.
///
/// # Examples
///
/// ```
/// use isomit_core::tree_rumor_centralities;
///
/// // Star 1 <- 0 -> 2: R(0) = 3!/(3·1·1) = 2 beats the leaves'
/// // R = 3!/(3·2·1) = 1, so the center is the likeliest source.
/// let r = tree_rumor_centralities(&[usize::MAX, 0, 0]);
/// assert!((r[0] - 2f64.ln()).abs() < 1e-12);
/// assert!(r[0] > r[1]);
/// assert!((r[1] - r[2]).abs() < 1e-12);
/// ```
pub fn tree_rumor_centralities(parent: &[usize]) -> Vec<f64> {
    let n = parent.len();
    assert!(n > 0, "empty tree");
    let root = (0..n)
        .find(|&v| parent[v] == usize::MAX)
        .expect("tree must have a root");

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for v in 0..n {
        if v != root {
            assert!(parent[v] < n, "parent out of bounds");
            children[parent[v]].push(v);
        }
    }

    // Post-order subtree sizes (iterative).
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![(root, false)];
    while let Some((v, expanded)) = stack.pop() {
        if expanded {
            order.push(v);
        } else {
            stack.push((v, true));
            for &c in &children[v] {
                stack.push((c, false));
            }
        }
    }
    assert_eq!(order.len(), n, "parent pointers do not form one tree");
    let mut size = vec![1usize; n];
    for &v in &order {
        for &c in &children[v] {
            size[v] += size[c];
        }
    }

    // log R(root) = log n! - sum_u log T_u (with T_root = n).
    let log_fact: f64 = (2..=n).map(|i| (i as f64).ln()).sum();
    let mut log_r = vec![0.0f64; n];
    log_r[root] = log_fact - size.iter().map(|&s| (s as f64).ln()).sum::<f64>();

    // Rerooting: R(c) = R(parent) * T_c / (n - T_c).
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &c in &children[v] {
            log_r[c] = log_r[v] + (size[c] as f64).ln() - ((n - size[c]) as f64).ln();
            queue.push_back(c);
        }
    }
    log_r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_parents(n: usize) -> Vec<usize> {
        // Path 0 - 1 - ... - n-1 rooted at 0.
        (0..n)
            .map(|v| if v == 0 { usize::MAX } else { v - 1 })
            .collect()
    }

    #[test]
    fn path_center_has_max_centrality() {
        let log_r = tree_rumor_centralities(&chain_parents(5));
        let best = (0..5)
            .max_by(|&a, &b| log_r[a].total_cmp(&log_r[b]))
            .unwrap();
        assert_eq!(best, 2, "centre of a 5-path");
        // Symmetry: ends tie, next-to-ends tie.
        assert!((log_r[0] - log_r[4]).abs() < 1e-9);
        assert!((log_r[1] - log_r[3]).abs() < 1e-9);
    }

    #[test]
    fn star_hub_has_max_centrality() {
        // Star rooted at the hub 0 with 4 leaves.
        let parent = vec![usize::MAX, 0, 0, 0, 0];
        let log_r = tree_rumor_centralities(&parent);
        for leaf in 1..5 {
            assert!(log_r[0] > log_r[leaf], "hub must beat leaf {leaf}");
        }
    }

    #[test]
    fn centrality_counts_orderings_exactly_on_tiny_tree() {
        // Path of 3: R(center) = 3!/（3·1·1) = 2, R(end) = 3!/(3·2·1) = 1.
        let log_r = tree_rumor_centralities(&chain_parents(3));
        assert!((log_r[1] - 2.0f64.ln()).abs() < 1e-12);
        assert!((log_r[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_tree() {
        let log_r = tree_rumor_centralities(&[usize::MAX]);
        assert_eq!(log_r, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "tree must have a root")]
    fn cyclic_parents_panic() {
        tree_rumor_centralities(&[1, 0]);
    }
}
