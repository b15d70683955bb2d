//! The redistributable-array abstraction.
//!
//! All arrays registered with Dyn-MPI must support allocating, dropping,
//! packing and unpacking whole *extended rows* (§4.1), so the runtime can
//! effect any redistribution with one code path for dense and sparse data.

use std::any::Any;

use crate::rowset::RowSet;

/// Counters describing the memory work a redistribution caused — the
/// quantities compared in the paper's Figure 3 discussion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes newly allocated.
    pub bytes_allocated: u64,
    /// Bytes copied between buffers (beyond the message payloads
    /// themselves).
    pub bytes_copied: u64,
    /// Individual allocation calls.
    pub allocations: u64,
}

impl AllocStats {
    pub fn add(&mut self, other: AllocStats) {
        self.bytes_allocated += other.bytes_allocated;
        self.bytes_copied += other.bytes_copied;
        self.allocations += other.allocations;
    }
}

/// A distributed array whose first dimension can be redistributed.
pub trait RedistArray: Any {
    /// Global first-dimension extent.
    fn nrows(&self) -> usize;

    /// Ensures storage exists for `rows` (no-op for rows already
    /// present). Dense rows allocate zero-filled; sparse rows allocate
    /// empty.
    fn alloc_rows(&mut self, rows: &RowSet);

    /// Serializes `rows` (which must all be present) into a message
    /// payload. When `take` is set, the rows' storage is released — they
    /// are leaving this node.
    fn pack_rows(&mut self, rows: &RowSet, take: bool) -> Vec<u8>;

    /// Materializes `rows` from a payload produced by `pack_rows` on the
    /// sending node.
    fn unpack_rows(&mut self, rows: &RowSet, bytes: &[u8]);

    /// Releases storage for `rows` (no longer owned, not needed as
    /// ghosts).
    fn drop_rows(&mut self, rows: &RowSet);

    /// Which rows currently have storage (owned + ghosts).
    fn present_rows(&self) -> RowSet;

    /// Memory-operation counters accumulated so far.
    fn alloc_stats(&self) -> AllocStats;

    /// Dynamic downcast support.
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Metadata recorded when an array is registered (the
/// `DMPI_register_*_array` calls of §2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayMeta {
    pub name: String,
    pub kind: ArrayKind,
    pub nrows: usize,
}

/// Dense (vector-of-extended-rows) or sparse (vector-of-sparse-rows) layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayKind {
    Dense,
    Sparse,
}

impl ArrayMeta {
    pub fn dense(name: impl Into<String>, nrows: usize) -> Self {
        ArrayMeta {
            name: name.into(),
            kind: ArrayKind::Dense,
            nrows,
        }
    }

    pub fn sparse(name: impl Into<String>, nrows: usize) -> Self {
        ArrayMeta {
            name: name.into(),
            kind: ArrayKind::Sparse,
            nrows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut a = AllocStats::default();
        a.add(AllocStats {
            bytes_allocated: 10,
            bytes_copied: 5,
            allocations: 1,
        });
        a.add(AllocStats {
            bytes_allocated: 1,
            bytes_copied: 2,
            allocations: 3,
        });
        assert_eq!(
            a,
            AllocStats {
                bytes_allocated: 11,
                bytes_copied: 7,
                allocations: 4
            }
        );
    }

    #[test]
    fn meta_constructors() {
        let m = ArrayMeta::dense("A", 100);
        assert_eq!(m.kind, ArrayKind::Dense);
        assert_eq!(m.nrows, 100);
        assert_eq!(ArrayMeta::sparse("S", 7).kind, ArrayKind::Sparse);
    }
}
