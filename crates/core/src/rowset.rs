//! Sets of global row indices, kept as sorted disjoint half-open ranges.
//!
//! A node owns one contiguous block ([`crate::dist::Distribution::rows_of`]
//! is a range); row sets hold what need not be contiguous: a transfer
//! schedule's legs, ghost needs and keep sets, and the rows an array holds.

use std::fmt;
use std::ops::Range;

/// A set of `usize` row indices stored as sorted, disjoint, non-adjacent
/// half-open ranges.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct RowSet {
    ranges: Vec<Range<usize>>,
}

impl RowSet {
    /// The empty set.
    pub fn new() -> Self {
        RowSet::default()
    }

    /// A single contiguous range.
    pub fn from_range(r: Range<usize>) -> Self {
        let mut s = RowSet::new();
        s.insert_range(r);
        s
    }

    /// From arbitrary (possibly unsorted, overlapping) ranges.
    pub fn from_ranges(rs: impl IntoIterator<Item = Range<usize>>) -> Self {
        let mut s = RowSet::new();
        for r in rs {
            s.insert_range(r);
        }
        s
    }

    /// Inserts a range, merging as needed.
    pub fn insert_range(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        // Find all ranges overlapping or adjacent to `r` and coalesce.
        let lo = self.ranges.partition_point(|x| x.end < r.start);
        let hi = self.ranges.partition_point(|x| x.start <= r.end);
        let mut start = r.start;
        let mut end = r.end;
        if lo < hi {
            start = start.min(self.ranges[lo].start);
            end = end.max(self.ranges[hi - 1].end);
        }
        self.ranges.splice(lo..hi, std::iter::once(start..end));
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|r| r.len()).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, row: usize) -> bool {
        let i = self.ranges.partition_point(|r| r.end <= row);
        self.ranges.get(i).is_some_and(|r| r.start <= row)
    }

    /// The disjoint ranges, sorted.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Iterates all rows in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|r| r.clone())
    }

    /// Smallest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.ranges.first().map(|r| r.start)
    }

    /// Largest member, if any.
    pub fn last(&self) -> Option<usize> {
        self.ranges.last().map(|r| r.end - 1)
    }

    /// Set union.
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        for r in &other.ranges {
            out.insert_range(r.clone());
        }
        out
    }

    /// Set intersection.
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        let mut out = RowSet::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = &self.ranges[i];
            let b = &other.ranges[j];
            let lo = a.start.max(b.start);
            let hi = a.end.min(b.end);
            if lo < hi {
                out.ranges.push(lo..hi);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn diff(&self, other: &RowSet) -> RowSet {
        let mut out = RowSet::new();
        for a in &self.ranges {
            let mut cur = a.start;
            let end = a.end;
            // Walk other's ranges overlapping [cur, end).
            let mut j = other.ranges.partition_point(|r| r.end <= cur);
            while cur < end {
                match other.ranges.get(j) {
                    Some(b) if b.start < end => {
                        if b.start > cur {
                            out.ranges.push(cur..b.start);
                        }
                        cur = cur.max(b.end);
                        j += 1;
                    }
                    _ => {
                        out.ranges.push(cur..end);
                        cur = end;
                    }
                }
            }
        }
        out
    }

    /// Restricts to `0..limit`.
    pub fn clamp(&self, limit: usize) -> RowSet {
        self.intersect(&RowSet::from_range(0..limit))
    }
}

impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowSet[")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}..{}", r.start, r.end)?;
        }
        write!(f, "]")
    }
}

impl FromIterator<usize> for RowSet {
    /// Sort–dedup–coalesce: O(n log n) on arbitrary input instead of the
    /// O(n²) worst case of per-element `insert_range` splicing.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut rows: Vec<usize> = iter.into_iter().collect();
        rows.sort_unstable();
        rows.dedup();
        let mut ranges: Vec<Range<usize>> = Vec::new();
        for i in rows {
            match ranges.last_mut() {
                Some(r) if r.end == i => r.end = i + 1,
                _ => ranges.push(i..i + 1),
            }
        }
        RowSet { ranges }
    }
}

#[cfg(test)]
// Single-range arrays are exactly what `ranges()` assertions compare against.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_merge() {
        let mut s = RowSet::new();
        s.insert_range(5..10);
        s.insert_range(0..3);
        s.insert_range(3..5); // adjacent: merges everything
        assert_eq!(s.ranges(), &[0..10]);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn overlapping_insert() {
        let mut s = RowSet::from_range(0..5);
        s.insert_range(3..8);
        assert_eq!(s.ranges(), &[0..8]);
        s.insert_range(20..25);
        s.insert_range(10..15);
        assert_eq!(s.ranges(), &[0..8, 10..15, 20..25]);
        s.insert_range(7..21);
        assert_eq!(s.ranges(), &[0..25]);
    }

    #[test]
    fn contains_and_iter() {
        let s = RowSet::from_ranges([2..4, 8..10]);
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert!(s.contains(9));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 3, 8, 9]);
        assert_eq!(s.first(), Some(2));
        assert_eq!(s.last(), Some(9));
    }

    #[test]
    fn union_intersect_diff() {
        let a = RowSet::from_ranges([0..10, 20..30]);
        let b = RowSet::from_ranges([5..25]);
        assert_eq!(a.union(&b).ranges(), &[0..30]);
        assert_eq!(a.intersect(&b).ranges(), &[5..10, 20..25]);
        assert_eq!(a.diff(&b).ranges(), &[0..5, 25..30]);
        assert_eq!(b.diff(&a).ranges(), &[10..20]);
    }

    #[test]
    fn diff_with_empty() {
        let a = RowSet::from_range(3..7);
        let e = RowSet::new();
        assert_eq!(a.diff(&e), a);
        assert_eq!(e.diff(&a), e);
        assert_eq!(a.intersect(&e), e);
    }

    #[test]
    fn clamp() {
        let s = RowSet::from_ranges([0..4, 6..12]);
        assert_eq!(s.clamp(8).ranges(), &[0..4, 6..8]);
        assert_eq!(s.clamp(0).ranges(), &[] as &[Range<usize>]);
    }

    #[test]
    fn from_iterator_collects() {
        let s: RowSet = [5usize, 1, 2, 9, 3].into_iter().collect();
        assert_eq!(s.ranges(), &[1..4, 5..6, 9..10]);
    }

    /// The one-pass constructor must agree with a `BTreeSet` oracle on
    /// random inputs: same members, and ranges that are sorted, disjoint,
    /// non-adjacent, and non-empty (the representation invariant).
    #[test]
    fn one_pass_builders_match_btreeset_oracle() {
        use std::collections::BTreeSet;

        let invariant_holds = |s: &RowSet| {
            s.ranges().iter().all(|r| r.start < r.end)
                && s.ranges().windows(2).all(|w| w[0].end < w[1].start)
        };
        dynmpi_testkit::check("rowset-one-pass-oracle", |rng| {
            // FromIterator on unsorted input with duplicates.
            let n = rng.range_usize(0, 40);
            let rows: Vec<usize> = (0..n).map(|_| rng.range_usize(0, 30)).collect();
            let s: RowSet = rows.iter().copied().collect();
            let oracle: BTreeSet<usize> = rows.into_iter().collect();
            assert_eq!(s.iter().collect::<BTreeSet<_>>(), oracle);
            assert_eq!(s.len(), oracle.len());
            assert!(invariant_holds(&s), "{s:?}");
        });
    }

    #[test]
    fn empty_range_noop() {
        let mut s = RowSet::new();
        s.insert_range(5..5);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.first(), None);
    }
}
