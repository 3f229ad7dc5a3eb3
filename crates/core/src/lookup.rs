//! The non-secure baseline: direct table indexing.

use crate::{EmbeddingGenerator, Technique};
use secemb_tensor::Matrix;
use secemb_trace::tracer::{self, regions};

/// Direct embedding-table lookup — what `torch.nn.Embedding` does.
///
/// Fast (`O(1)` per query) but **leaks the index**: the only memory touched
/// is the secret row, which the trace recorder faithfully reports and the
/// Fig. 3 attack simulation recovers.
#[derive(Clone, Debug)]
pub struct IndexLookup {
    table: Matrix,
}

impl IndexLookup {
    /// Wraps a trained `n × dim` table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: Matrix) -> Self {
        assert!(!table.is_empty(), "IndexLookup: empty table");
        IndexLookup { table }
    }

    /// The underlying table.
    pub fn table(&self) -> &Matrix {
        &self.table
    }
}

impl EmbeddingGenerator for IndexLookup {
    fn dim(&self) -> usize {
        self.table.cols()
    }

    fn num_embeddings(&self) -> u64 {
        self.table.rows() as u64
    }

    fn generate_batch(&mut self, indices: &[u64]) -> Matrix {
        let dim = self.table.cols();
        let n = self.table.rows() as u64;
        let row_bytes = (dim * 4) as u32;
        let mut out = Matrix::zeros(indices.len(), dim);
        for (b, &idx) in indices.iter().enumerate() {
            assert!(idx < n, "IndexLookup: index {idx} out of range");
            tracer::read(regions::TABLE, idx * row_bytes as u64, row_bytes);
            out.row_mut(b).copy_from_slice(self.table.row(idx as usize));
        }
        out
    }

    fn technique(&self) -> Technique {
        Technique::IndexLookup
    }

    fn memory_bytes(&self) -> u64 {
        (self.table.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_trace::check;

    fn lookup() -> IndexLookup {
        IndexLookup::new(Matrix::from_fn(16, 4, |r, c| (r * 10 + c) as f32))
    }

    #[test]
    fn returns_requested_rows() {
        let mut l = lookup();
        let out = l.generate_batch(&[3, 0, 15]);
        assert_eq!(out.row(0), &[30.0, 31.0, 32.0, 33.0]);
        assert_eq!(out.row(2), &[150.0, 151.0, 152.0, 153.0]);
        assert_eq!(l.generate(5), vec![50.0, 51.0, 52.0, 53.0]);
    }

    #[test]
    fn leaks_the_index() {
        let mut l = lookup();
        let verdict = check::compare_traces(&[0u64, 9], |&idx| {
            l.generate_batch(&[idx]);
        });
        assert!(!verdict.is_oblivious(), "direct lookup must leak");
        assert!(
            !verdict.is_page_oblivious(64),
            "even coarse channels see it"
        );
    }

    #[test]
    fn metadata() {
        let l = lookup();
        assert_eq!(l.dim(), 4);
        assert_eq!(l.num_embeddings(), 16);
        assert_eq!(l.memory_bytes(), 16 * 4 * 4);
        assert_eq!(lookup().technique(), Technique::IndexLookup);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        lookup().generate_batch(&[16]);
    }
}
