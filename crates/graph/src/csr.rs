
use crate::checked::{idx, mem_idx};
use crate::VertexId;

/// In-memory compressed sparse row graph (paper §III, Fig. 1a).
///
/// `row_ptr` has `n + 1` entries; the out-edges of vertex `v` are
/// `col_idx[row_ptr[v] .. row_ptr[v+1]]`. Optional per-edge weights sit in
/// `weights` at the same offsets (the paper's `val` vector).
///
/// Following the paper's evaluation setup, application graphs are usually
/// *undirected*: "for an edge, each of its end vertices appears in the
/// neighboring list of the other end vertex" (§VI) — i.e. every edge is
/// stored in both directions, so the out-adjacency doubles as the
/// in-adjacency and the out-degree equals the in-degree.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    row_ptr: Vec<u64>,
    col_idx: Vec<VertexId>,
    weights: Option<Vec<f32>>,
}

impl Csr {
    /// Build directly from the three vectors. Panics on malformed input —
    /// this is the constructor of last resort; prefer [`crate::EdgeListBuilder`].
    pub fn from_parts(row_ptr: Vec<u64>, col_idx: Vec<VertexId>, weights: Option<Vec<f32>>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr needs at least one entry");
        assert_eq!(row_ptr.last().map(|&e| mem_idx(e)), Some(col_idx.len()));
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr must be monotone");
        if let Some(w) = &weights {
            assert_eq!(w.len(), col_idx.len());
        }
        let n = row_ptr.len() - 1;
        assert!(
            col_idx.iter().all(|&c| idx(c) < n),
            "column index out of range"
        );
        Csr { row_ptr, col_idx, weights }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of (directed) edges stored.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        mem_idx(self.row_ptr[idx(v) + 1] - self.row_ptr[idx(v)])
    }

    /// Out-neighbors of `v`.
    pub fn out_edges(&self, v: VertexId) -> &[VertexId] {
        let lo = mem_idx(self.row_ptr[idx(v)]);
        let hi = mem_idx(self.row_ptr[idx(v) + 1]);
        &self.col_idx[lo..hi]
    }

    /// Edge weights of `v` (if the graph carries weights).
    pub fn out_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let lo = mem_idx(self.row_ptr[idx(v)]);
        let hi = mem_idx(self.row_ptr[idx(v) + 1]);
        Some(&w[lo..hi])
    }

    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// The full weights vector (parallel to `col_idx`), if present.
    pub fn weights_all(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    pub fn col_idx(&self) -> &[VertexId] {
        &self.col_idx
    }

    /// In-degrees of every vertex (counting multiplicity). For the
    /// undirected graphs of the evaluation this equals the out-degree
    /// vector, but directed graphs are fully supported.
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut d = vec![0u64; self.num_vertices()];
        for &c in &self.col_idx {
            d[idx(c)] += 1;
        }
        d
    }

    /// Iterate `(src, dst)` over all stored edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.out_edges(v as VertexId)
                .iter()
                .map(move |&d| (v as VertexId, d))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example graph of the paper's Fig. 1a:
    /// edges (1→2,4), (3→1,2), (6→1,2,3,4,5) with weights.
    pub fn paper_fig1_graph() -> Csr {
        // Vertices 0..=6; vertex 0 unused to keep the paper's 1-based ids.
        let mut row_ptr = vec![0u64];
        let mut col = Vec::new();
        let mut val = Vec::new();
        let adj: [&[(u32, f32)]; 7] = [
            &[],
            &[(2, 4.0), (4, 2.0)],
            &[],
            &[(1, 8.0), (2, 4.0)],
            &[],
            &[],
            &[(1, 3.0), (2, 5.0), (3, 3.0), (4, 2.0), (5, 1.0)],
        ];
        for a in adj {
            for &(d, w) in a {
                col.push(d);
                val.push(w);
            }
            row_ptr.push(col.len() as u64);
        }
        Csr::from_parts(row_ptr, col, Some(val))
    }

    #[test]
    fn fig1_shape() {
        let g = paper_fig1_graph();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.out_edges(6), &[1, 2, 3, 4, 5]);
        assert_eq!(g.out_weights(3).unwrap(), &[8.0, 4.0]);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(6), 5);
    }

    #[test]
    fn in_degrees_count_incoming() {
        let g = paper_fig1_graph();
        let d = g.in_degrees();
        // Vertex 1 receives from 3 and 6; vertex 2 from 1, 3, 6.
        assert_eq!(d[1], 2);
        assert_eq!(d[2], 3);
        assert_eq!(d[6], 0);
    }

    #[test]
    fn edges_iterator_matches_adjacency() {
        let g = paper_fig1_graph();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), 9);
        assert!(e.contains(&(6, 5)));
        assert!(e.contains(&(1, 2)));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_column() {
        let _ = Csr::from_parts(vec![0, 1], vec![5], None);
    }

    #[test]
    #[should_panic]
    fn rejects_non_monotone_row_ptr() {
        let _ = Csr::from_parts(vec![0, 2, 1], vec![0, 1], None);
    }
}
