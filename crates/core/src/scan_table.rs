//! Linear scan of the embedding table (§IV-A1, §V-A2).

use crate::{EmbeddingGenerator, Technique};
use secemb_tensor::Matrix;
use secemb_trace::tracer::{self, regions};

/// Oblivious linear scan: every query reads the *entire* table and blends
/// the matching row into the output with constant-time selection.
///
/// `O(n)` per query — the paper's best choice for *small* tables, where a
/// full scan costs less than either an ORAM path access or DHE's matrix
/// stack (Fig. 4), and one half of the DLRM hybrid scheme.
#[derive(Clone, Debug)]
pub struct LinearScan {
    table: Matrix,
}

impl LinearScan {
    /// Wraps a trained `n × dim` table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: Matrix) -> Self {
        assert!(!table.is_empty(), "LinearScan: empty table");
        LinearScan { table }
    }

    /// The underlying table.
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// Shared-reference batch scan (for the threading harness): each index
    /// triggers one full-table scan, as in the paper's AVX implementation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn generate_batch_ref(&self, indices: &[u64]) -> Matrix {
        let dim = self.table.cols();
        let table_bytes = (self.table.len() * 4) as u32;
        let mut out = Matrix::zeros(indices.len(), dim);
        for (b, &idx) in indices.iter().enumerate() {
            tracer::read(regions::TABLE, 0, table_bytes);
            secemb_obliv::scan::scan_copy_row(self.table.as_slice(), dim, idx, out.row_mut(b));
        }
        out
    }

    /// Splits the batch across `threads` OS threads, each scanning the
    /// shared table — the configuration knob behind the paper's Fig. 6
    /// observation that more threads shift the scan/DHE threshold upward
    /// (better cache reuse of the table across queries).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or any index is out of range.
    pub fn generate_batch_threaded(&self, indices: &[u64], threads: usize) -> Matrix {
        assert!(threads > 0, "threads must be positive");
        if threads == 1 || indices.len() <= 1 {
            return self.generate_batch_ref(indices);
        }
        let dim = self.table.cols();
        let mut out = Matrix::zeros(indices.len(), dim);
        let chunk = indices.len().div_ceil(threads);
        let out_slice = out.as_mut_slice();
        crossbeam::thread::scope(|s| {
            for (idx_chunk, out_chunk) in
                indices.chunks(chunk).zip(out_slice.chunks_mut(chunk * dim))
            {
                s.spawn(move |_| {
                    // Worker threads have no active trace session; the scan
                    // itself is identical to the single-threaded path.
                    for (i, &idx) in idx_chunk.iter().enumerate() {
                        secemb_obliv::scan::scan_copy_row(
                            self.table.as_slice(),
                            dim,
                            idx,
                            &mut out_chunk[i * dim..(i + 1) * dim],
                        );
                    }
                });
            }
        })
        .expect("scan worker panicked");
        out
    }
}

impl EmbeddingGenerator for LinearScan {
    fn dim(&self) -> usize {
        self.table.cols()
    }

    fn num_embeddings(&self) -> u64 {
        self.table.rows() as u64
    }

    fn generate_batch(&mut self, indices: &[u64]) -> Matrix {
        self.generate_batch_ref(indices)
    }

    fn generate_batch_threaded(&mut self, indices: &[u64], threads: usize) -> Matrix {
        LinearScan::generate_batch_threaded(self, indices, threads)
    }

    fn technique(&self) -> Technique {
        Technique::LinearScan
    }

    fn memory_bytes(&self) -> u64 {
        (self.table.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_trace::check;

    fn scan() -> LinearScan {
        LinearScan::new(Matrix::from_fn(32, 4, |r, c| (r * 10 + c) as f32))
    }

    #[test]
    fn matches_direct_lookup() {
        let mut s = scan();
        let direct = crate::IndexLookup::new(s.table().clone()).generate_batch(&[7, 31, 0]);
        let scanned = s.generate_batch(&[7, 31, 0]);
        assert_eq!(direct, scanned);
    }

    #[test]
    fn trace_is_index_independent() {
        let mut s = scan();
        let verdict = check::compare_traces(&[0u64, 13, 31], |&idx| {
            s.generate_batch(&[idx]);
        });
        assert!(verdict.is_oblivious());
    }

    #[test]
    fn empty_batch() {
        let mut s = scan();
        assert_eq!(s.generate_batch(&[]).shape(), (0, 4));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn oob_panics() {
        scan().generate_batch(&[32]);
    }
}
