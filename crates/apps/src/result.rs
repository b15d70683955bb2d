//! Common per-rank result type for the benchmark applications.

use dynmpi::{DenseMatrix, DynMpi, PhaseId, RowSet, RuntimeEvent};
use dynmpi_comm::HostMeters;

/// What one rank reports after running an application.
///
/// `Default` is the "no result" value: the simulator substitutes it for
/// a rank whose node fail-stopped mid-run (`checksum: None`,
/// `participating: false`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppResult {
    /// Application-level checksum (identical across ranks; used to prove
    /// adaptation never changes answers). `None` when the numerical
    /// kernel was skipped.
    pub checksum: Option<f64>,
    /// Wall (virtual) seconds per phase cycle on this rank.
    pub cycle_times: Vec<f64>,
    /// Adaptation events this rank recorded.
    pub events: Vec<RuntimeEvent>,
    /// Total seconds this rank spent inside redistribution.
    pub redist_seconds: f64,
    /// Whether this rank was still participating at the end.
    pub participating: bool,
    /// Rows this rank owned at the end.
    pub final_rows: usize,
    /// This rank's share of the final state's digest: a wrapping sum over
    /// the rows it owns at the end of a per-row FNV-1a of
    /// `(global row, row bits)`. The ranks' shares add up (wrapping) to
    /// a value that does not depend on how rows were distributed, so two
    /// runs that end with the same grid bit for bit agree on it, and two
    /// that do not differ but for a 64-bit hash collision. Jacobi, SOR
    /// and particle compute it (the first two when their kernel ran); it
    /// is 0 otherwise, and for CG, whose answer depends on summation order
    /// (EXPERIMENTS.md, "State digest").
    pub state_digest: u64,
}

impl AppResult {
    /// What `rt`'s rank reports at the end of a run, with `phase` the
    /// phase whose rows it owns.
    pub(crate) fn new<T: HostMeters>(
        rt: &DynMpi<'_, T>,
        phase: PhaseId,
        checksum: Option<f64>,
        state_digest: u64,
    ) -> Self {
        AppResult {
            checksum,
            cycle_times: rt.local_cycle_times().to_vec(),
            events: rt.events().to_vec(),
            redist_seconds: rt.redistribution_seconds(),
            participating: rt.participating(),
            final_rows: rt.my_rows(phase).len(),
            state_digest,
        }
    }

    /// Sum of this rank's cycle times.
    pub fn total_time(&self) -> f64 {
        self.cycle_times.iter().sum()
    }
}

/// Row `i`'s term of [`AppResult::state_digest`]: FNV-1a over 64-bit
/// words, the global row index first, then each value's bits.
fn row_digest(i: usize, row: &[f64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    row.iter()
        .fold(word(OFFSET, i as u64), |h, v| word(h, v.to_bits()))
}

/// This rank's checksum term (the sum of each row's sum over `rows`) and
/// its [`AppResult::state_digest`] share, in one pass over the rows.
pub(crate) fn checksum_and_digest(m: &DenseMatrix<f64>, rows: &RowSet) -> (f64, u64) {
    let mut digest = 0u64;
    let sum = rows
        .iter()
        .map(|i| {
            let row = m.row(i);
            digest = digest.wrapping_add(row_digest(i, row));
            row.iter().sum::<f64>()
        })
        .sum();
    (sum, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_sums() {
        let r = AppResult {
            checksum: Some(1.0),
            cycle_times: vec![0.5, 0.25],
            events: vec![],
            redist_seconds: 0.0,
            participating: true,
            final_rows: 10,
            state_digest: 0,
        };
        assert!((r.total_time() - 0.75).abs() < 1e-12);
    }
}
