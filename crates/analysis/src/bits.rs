//! A fixed-width bitset over dense ids — the representation of every
//! dataflow lattice commlint solves.

/// A set of ids in `0..len`, stored one bit per id. Sets built for the
/// same universe have the same width, so the word-wise operations below
/// never need to resize.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet(Vec<u64>);

/// Words needed for `len` bits.
pub fn words(len: usize) -> usize {
    len.div_ceil(64)
}

impl BitSet {
    /// The empty set over `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet(vec![0; words(len)])
    }

    pub fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    pub fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    pub fn intersect_with(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }

    /// Removes every member of `other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= !b;
        }
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations_work_across_word_boundaries() {
        let mut a = BitSet::new(130);
        for i in [0, 63, 64, 129] {
            a.insert(i);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        let mut b = BitSet::new(130);
        b.insert(64);
        b.insert(100);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![0, 63, 64, 100, 129]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![64]);
        a.subtract(&b);
        a.remove(0);
        assert!(!a.contains(0) && !a.contains(64) && a.contains(63));
        assert_eq!(a.iter().count(), 2);
    }
}
