/// A binary tree produced by [`binarize`], the paper's Figure 3
/// transformation.
///
/// Nodes are indexed `0..len`. Each node is either **real** — carrying
/// the index of an original tree node — or a **dummy** inserted to bring
/// the fan-out down to two. Dummies are transparent to information
/// diffusion: they can never be rumor initiators and the edges adjacent
/// to them carry probability 1 in the dynamic program.
///
/// Structural invariants (upheld by construction):
///
/// * parents come first: the root is node 0 and every other node's
///   parent has a smaller id ([`binarize`] allocates each node after
///   its parent), so a descending loop over `0..len` visits children
///   before parents — the evaluation order of the k-ISOMIT-BT dynamic
///   program;
/// * every node has at most two children;
/// * the real nodes' ancestor relation equals the original tree's: the
///   nearest real ancestor of a real node is its original parent;
/// * dummies have at least one descendant real node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryTree {
    /// `original[i]` is `Some(orig)` for real nodes, `None` for dummies.
    original: Vec<Option<usize>>,
    children: Vec<[Option<usize>; 2]>,
    parent: Vec<Option<usize>>,
}

impl BinaryTree {
    /// Number of nodes (real + dummy).
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// `true` if the tree has no nodes — never produced by [`binarize`],
    /// which requires a root.
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }

    /// Index of the root node: always 0, and always a real node.
    pub fn root(&self) -> usize {
        0
    }

    /// The original tree node a binary node stands for, `None` for
    /// dummies.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn original(&self, node: usize) -> Option<usize> {
        self.original[node]
    }

    /// `true` if `node` is a dummy.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn is_dummy(&self, node: usize) -> bool {
        self.original[node].is_none()
    }

    /// Left child, if any.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn left(&self, node: usize) -> Option<usize> {
        self.children[node][0]
    }

    /// Right child, if any.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn right(&self, node: usize) -> Option<usize> {
        self.children[node][1]
    }

    /// Parent pointer, `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn parent(&self, node: usize) -> Option<usize> {
        self.parent[node]
    }

    /// Number of real nodes.
    pub fn real_count(&self) -> usize {
        self.original.iter().filter(|o| o.is_some()).count()
    }

    /// Number of dummy nodes.
    pub fn dummy_count(&self) -> usize {
        self.len() - self.real_count()
    }

    /// The nearest *real* ancestor of `node` (skipping dummies), `None`
    /// for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn real_parent(&self, node: usize) -> Option<usize> {
        let mut cur = self.parent[node]?;
        loop {
            if let Some(orig) = self.original[cur] {
                let _ = orig;
                return Some(cur);
            }
            cur = self.parent[cur]?;
        }
    }
}

/// Transforms an arbitrary rooted tree into a [`BinaryTree`] by inserting
/// dummy internal nodes under every node with more than two children
/// (paper §III-E3, Figure 3).
///
/// `children[v]` lists the children of original node `v`; `root` is the
/// original root index. Original nodes keep their identity through
/// [`BinaryTree::original`]; a node with `c > 2` children gains at most
/// `c − 2` dummies arranged as a balanced gadget of depth `⌈log₂ c⌉`.
///
/// # Panics
///
/// Panics if `root` is out of bounds, if a child index is out of bounds,
/// or if the structure is not a tree rooted at `root` (a node reachable
/// twice, or unreachable nodes are simply ignored — they are not part of
/// the tree).
///
/// ```
/// use isomit_forest::binarize;
///
/// // Root 0 with three children: one dummy is inserted.
/// let children = vec![vec![1, 2, 3], vec![], vec![], vec![]];
/// let bt = binarize(0, &children);
/// assert_eq!(bt.real_count(), 4);
/// assert!(bt.dummy_count() >= 1);
/// // Every real child's nearest real ancestor is the original parent.
/// for node in 0..bt.len() {
///     if let Some(orig) = bt.original(node) {
///         if orig != 0 {
///             let p = bt.real_parent(node).unwrap();
///             assert_eq!(bt.original(p), Some(0));
///         }
///     }
/// }
/// ```
pub fn binarize(root: usize, children: &[Vec<usize>]) -> BinaryTree {
    let n = children.len();
    assert!(root < n, "root {root} out of bounds for {n} nodes");

    let mut tree = BinaryTree {
        original: Vec::new(),
        children: Vec::new(),
        parent: Vec::new(),
    };
    let mut seen = vec![false; n];

    // Allocates a new binary-tree node.
    fn alloc(tree: &mut BinaryTree, original: Option<usize>, parent: Option<usize>) -> usize {
        let id = tree.original.len();
        tree.original.push(original);
        tree.children.push([None, None]);
        tree.parent.push(parent);
        id
    }

    fn attach_child(tree: &mut BinaryTree, parent: usize, child: usize) {
        let slot = tree.children[parent]
            .iter_mut()
            .find(|s| s.is_none())
            .expect("binary gadget never exceeds two children");
        *slot = Some(child);
    }

    let bt_root = alloc(&mut tree, Some(root), None);
    seen[root] = true;

    // Work items: a binary parent node and the slice of original children
    // still to hang beneath it (at most two slots available), borrowed
    // from `children`.
    let mut work: Vec<(usize, &[usize])> = vec![(bt_root, &children[root])];
    while let Some((bt_parent, orig_children)) = work.pop() {
        match orig_children.len() {
            0 => {}
            1 | 2 => {
                for &orig in orig_children {
                    assert!(orig < n, "child {orig} out of bounds for {n} nodes");
                    assert!(!seen[orig], "node {orig} reached twice: not a tree");
                    seen[orig] = true;
                    let bt_child = alloc(&mut tree, Some(orig), Some(bt_parent));
                    attach_child(&mut tree, bt_parent, bt_child);
                    work.push((bt_child, &children[orig]));
                }
            }
            c => {
                // Balanced split under two gadget slots; a half of size 1
                // attaches directly, a larger half gets a dummy.
                let mid = c / 2;
                for half in [&orig_children[..mid], &orig_children[mid..]] {
                    if half.len() == 1 {
                        let orig = half[0];
                        assert!(orig < n, "child {orig} out of bounds for {n} nodes");
                        assert!(!seen[orig], "node {orig} reached twice: not a tree");
                        seen[orig] = true;
                        let bt_child = alloc(&mut tree, Some(orig), Some(bt_parent));
                        attach_child(&mut tree, bt_parent, bt_child);
                        work.push((bt_child, &children[orig]));
                    } else {
                        let dummy = alloc(&mut tree, None, Some(bt_parent));
                        attach_child(&mut tree, bt_parent, dummy);
                        work.push((dummy, half));
                    }
                }
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects original ids of real nodes in the binary tree.
    fn real_ids(bt: &BinaryTree) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..bt.len()).filter_map(|i| bt.original(i)).collect();
        ids.sort_unstable();
        ids
    }

    /// Verifies the real-ancestor invariant against the original tree.
    fn check_ancestry(bt: &BinaryTree, children: &[Vec<usize>]) {
        let mut orig_parent = vec![None; children.len()];
        for (p, kids) in children.iter().enumerate() {
            for &k in kids {
                orig_parent[k] = Some(p);
            }
        }
        for node in 0..bt.len() {
            if let Some(orig) = bt.original(node) {
                let expected = orig_parent[orig];
                let actual = bt.real_parent(node).map(|p| bt.original(p).unwrap());
                assert_eq!(actual, expected, "ancestry broken at original node {orig}");
            }
        }
    }

    #[test]
    fn single_node_tree() {
        let bt = binarize(0, &[vec![]]);
        assert_eq!(bt.len(), 1);
        assert_eq!(bt.real_count(), 1);
        assert_eq!(bt.dummy_count(), 0);
        assert_eq!(bt.root(), 0);
        assert_eq!(bt.parent(0), None);
    }

    #[test]
    fn binary_tree_needs_no_dummies() {
        let children = vec![vec![1, 2], vec![], vec![3], vec![]];
        let bt = binarize(0, &children);
        assert_eq!(bt.dummy_count(), 0);
        assert_eq!(bt.real_count(), 4);
        check_ancestry(&bt, &children);
    }

    #[test]
    fn three_children_insert_one_dummy() {
        let children = vec![vec![1, 2, 3], vec![], vec![], vec![]];
        let bt = binarize(0, &children);
        assert_eq!(bt.real_count(), 4);
        assert_eq!(bt.dummy_count(), 1);
        check_ancestry(&bt, &children);
        // Every node has at most 2 children by representation; root's
        // children: one real + one dummy, or two gadget slots.
        let root_kids: Vec<usize> = bt.children[bt.root()].iter().flatten().copied().collect();
        assert_eq!(root_kids.len(), 2);
    }

    #[test]
    fn wide_fanout_dummy_count_bounded() {
        // Star with 9 leaves: at most 7 dummies (c - 2), depth ⌈log2 9⌉.
        let mut children = vec![Vec::new(); 10];
        children[0] = (1..10).collect();
        let bt = binarize(0, &children);
        assert_eq!(bt.real_count(), 10);
        assert!(
            bt.dummy_count() <= 7,
            "too many dummies: {}",
            bt.dummy_count()
        );
        check_ancestry(&bt, &children);
        // Depth of any leaf at most 1 + ceil(log2 9) = 5.
        for node in 0..bt.len() {
            let mut depth = 0;
            let mut cur = node;
            while let Some(p) = bt.parent(cur) {
                cur = p;
                depth += 1;
            }
            assert!(depth <= 5, "leaf too deep: {depth}");
        }
    }

    #[test]
    fn parents_come_before_children() {
        let children = vec![vec![1, 2, 3], vec![4], vec![], vec![], vec![]];
        let bt = binarize(0, &children);
        assert_eq!(bt.parent(bt.root()), None);
        for node in 1..bt.len() {
            let parent = bt.parent(node).expect("only the root lacks a parent");
            assert!(parent < node, "parent {parent} after its child {node}");
            assert!(bt.children[parent].contains(&Some(node)));
        }
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 50k-node path: binarize must stay iterative.
        let n = 50_000;
        let mut children = vec![Vec::new(); n];
        for (i, kids) in children.iter_mut().enumerate().take(n - 1) {
            kids.push(i + 1);
        }
        let bt = binarize(0, &children);
        assert_eq!(bt.len(), n);
        assert_eq!(bt.real_count(), n);
    }

    #[test]
    fn real_ids_preserved_exactly() {
        let children = vec![
            vec![3, 1],
            vec![2],
            vec![],
            vec![4, 5, 6],
            vec![],
            vec![],
            vec![],
        ];
        let bt = binarize(0, &children);
        assert_eq!(real_ids(&bt), vec![0, 1, 2, 3, 4, 5, 6]);
        check_ancestry(&bt, &children);
    }

    #[test]
    #[should_panic(expected = "reached twice")]
    fn non_tree_input_panics() {
        // Node 2 has two parents.
        let children = vec![vec![1, 2], vec![2], vec![]];
        binarize(0, &children);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_root_panics() {
        binarize(5, &[vec![]]);
    }

    #[test]
    fn unreachable_nodes_are_ignored() {
        // Node 2 is disconnected; the tree contains only 0 and 1.
        let children = vec![vec![1], vec![], vec![]];
        let bt = binarize(0, &children);
        assert_eq!(bt.real_count(), 2);
        assert_eq!(real_ids(&bt), vec![0, 1]);
    }
}
