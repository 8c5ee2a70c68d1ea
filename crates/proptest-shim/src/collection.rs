//! Collection strategies: `vec` and `btree_set`.

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Inclusive bounds on a generated collection's length.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> SizeRange {
        SizeRange {
            min: exact,
            max: exact,
        }
    }
}

impl SizeRange {
    fn sample(self, rng: &mut TestRng) -> usize {
        self.min + rng.below((self.max - self.min + 1) as u64) as usize
    }
}

/// A `Vec` of values from `element`, with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// A `BTreeSet` of values from `element` whose size lands in `size`
/// (best-effort: duplicates are retried a bounded number of times, so a
/// narrow element domain may yield a smaller set).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.sample(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < 100 * (target + 1) {
            set.insert(self.element.sample(rng));
            attempts += 1;
        }
        set
    }
}
