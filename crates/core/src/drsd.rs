//! (Deferred) Regular Section Descriptors.
//!
//! RSDs describe an array reference as `start : end` (§2.2, after Havlak
//! & Kennedy; every section here has unit stride). *Deferred* RSDs leave
//! the bounds as expressions over the partitioned loop's bounds,
//! evaluated at run time once the loop bounds for a node are known —
//! which is what lets Dyn-MPI know, for any distribution, exactly which
//! rows each node touches and therefore what must move on redistribution
//! (§4.4).

use std::ops::Range;

/// A bound expression deferred until loop bounds are known.
///
/// Evaluation receives the node's partitioned loop bounds `[lo, hi]`
/// (inclusive, in global row indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// `loop start + offset` (e.g. `B[start_iter - 1]` ⇒ `Start(-1)`).
    Start(i64),
    /// `loop end + offset` (e.g. `B[end_iter + 1]` ⇒ `End(1)`).
    End(i64),
}

impl Bound {
    fn eval(self, lo: i64, hi: i64) -> i64 {
        match self {
            Bound::Start(off) => lo + off,
            Bound::End(off) => hi + off,
        }
    }
}

/// Access mode of an array reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    Read,
    Write,
    ReadWrite,
}

/// A deferred regular section descriptor over the distributed (first)
/// dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Drsd {
    pub start: Bound,
    pub end: Bound,
}

impl Drsd {
    /// The identity section: exactly the rows the loop iterates
    /// (`A[i]` in the loop body).
    pub fn iter_space() -> Drsd {
        Drsd::with_halo(0)
    }

    /// The loop rows widened by a halo on each side (`B[i-1] … B[i+1]` ⇒
    /// `with_halo(1)`): the nearest-neighbor read pattern.
    pub fn with_halo(h: i64) -> Drsd {
        Drsd {
            start: Bound::Start(-h),
            end: Bound::End(h),
        }
    }

    /// Conservative bounding interval of [`Drsd::eval`] over *any* loop
    /// ranges contained in `[first, last]`: a half-open row interval
    /// guaranteed to contain every row the section can touch for a node
    /// whose owned rows start at `first` and end at `last`. O(1) bound
    /// arithmetic — the redistribution scheduler uses it to skip schedule
    /// pairs whose rows cannot intersect without evaluating any section.
    ///
    /// Conservativeness: for a sub-range `[rlo, rhi] ⊆ [first, last]`,
    /// every start bound is minimized at `(first, first)` and every end
    /// bound maximized at `(last, last)` (the expressions are monotone in
    /// both loop bounds), so the interval returned here contains
    /// `eval(rlo, rhi, nrows)` — including its clamping behavior — for
    /// every such sub-range.
    pub fn envelope(&self, first: usize, last: usize, nrows: usize) -> Option<(usize, usize)> {
        if last < first {
            return None;
        }
        let s = self.start.eval(first as i64, first as i64);
        let e = self.end.eval(last as i64, last as i64);
        if e < s {
            return None;
        }
        let lo = s.max(0) as usize;
        let hi = ((e.max(0) as usize) + 1).min(nrows);
        (lo < hi).then_some((lo, hi))
    }

    /// Evaluates the descriptor for a node whose partitioned loop covers
    /// global rows `[lo, hi]` inclusive, clamped to `0..nrows`.
    /// An empty loop range (`hi < lo`) yields an empty range.
    pub fn eval(&self, lo: usize, hi: usize, nrows: usize) -> Range<usize> {
        if hi < lo {
            return 0..0;
        }
        let s = self.start.eval(lo as i64, hi as i64);
        let e = self.end.eval(lo as i64, hi as i64);
        if e < s {
            return 0..0;
        }
        let s = s.max(0) as usize;
        s..(e.max(0) as usize + 1).min(nrows).max(s)
    }
}

/// One array reference in a phase: which array, how it is accessed, and
/// the section it touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayAccess {
    pub array: usize,
    pub mode: AccessMode,
    pub drsd: Drsd,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_space_matches_loop() {
        let d = Drsd::iter_space();
        assert_eq!(d.eval(3, 7, 100), 3..8);
    }

    #[test]
    fn halo_extends_and_clamps() {
        let d = Drsd::with_halo(1);
        assert_eq!(d.eval(3, 7, 100), 3 - 1..9);
        // Clamped at both array edges.
        assert_eq!(d.eval(0, 7, 100), 0..9);
        assert_eq!(d.eval(90, 99, 100), 89..100);
    }

    #[test]
    fn empty_loop_is_empty() {
        let d = Drsd::with_halo(1);
        assert!(d.eval(5, 4, 100).is_empty());
    }

    #[test]
    fn inverted_bounds_are_empty() {
        // A negative halo narrows the section; past the loop's middle it
        // leaves nothing.
        let d = Drsd::with_halo(-3);
        assert!(d.eval(10, 14, 100).is_empty());
        assert_eq!(d.eval(10, 16, 100), 13..14);
    }

    #[test]
    fn negative_start_clamps_to_zero() {
        let d = Drsd::with_halo(3);
        assert_eq!(d.eval(0, 2, 100), 0..6);
    }

    #[test]
    fn envelope_contains_eval_for_every_subrange() {
        dynmpi_testkit::check("drsd-envelope-superset", |rng| {
            let nrows = rng.range_usize(1, 60);
            let bound = |rng: &mut dynmpi_testkit::Rng| match rng.range_u32(0, 2) {
                0 => Bound::Start(rng.range_i64(-6, 7)),
                _ => Bound::End(rng.range_i64(-6, 7)),
            };
            let d = Drsd {
                start: bound(rng),
                end: bound(rng),
            };
            let first = rng.range_usize(0, nrows);
            let last = rng.range_usize(first, nrows);
            let env = d.envelope(first, last, nrows);
            // Every sub-range's evaluation must land inside the envelope.
            for _ in 0..8 {
                let rlo = rng.range_usize(first, last + 1);
                let rhi = rng.range_usize(rlo, last + 1);
                let rows = d.eval(rlo, rhi, nrows);
                if !rows.is_empty() {
                    let (lo, hi) = env.expect("non-empty eval needs an envelope");
                    assert!(
                        rows.start >= lo && rows.end <= hi,
                        "{d:?} {rows:?} vs {env:?}"
                    );
                }
            }
        });
    }
}
