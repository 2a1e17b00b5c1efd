//! One-bit-per-node sets, visited in ascending node order: the round
//! frontier of the wide MFC engine and the LT engine's candidates.

/// An empty set over nodes `0..n`.
pub(crate) fn empty(n: usize) -> Vec<u64> {
    vec![0; n.div_ceil(64)]
}

/// Adds node `i` to the set.
#[inline]
pub(crate) fn insert(bitmap: &mut [u64], i: usize) {
    let word = bitmap.get_mut(i / 64).expect("members are node ids");
    *word |= 1 << (i % 64);
}

/// Empties the set, calling `visit` on each member in ascending order.
#[inline]
pub(crate) fn drain(bitmap: &mut [u64], mut visit: impl FnMut(usize)) {
    for (w, word) in bitmap.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}
