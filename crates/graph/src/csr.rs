
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

    /// A 64-bit FNV-1a fingerprint of the graph: eight FNV-1a lanes, each
    /// of `row_ptr`, `col_idx` and the weights' bits dealt to them from
    /// lane 0 one little-endian 8-byte word at a time (a row pointer, or
    /// two ids or weights, the first in the low half), and the lanes'
    /// states folded by FNV-1a in lane order. Independent lanes keep it at
    /// memory speed (≈ 1.4 ms for the 3.7 M edges of CF-17), so every store
    /// computes it; a checkpoint records it to refuse a resume on another
    /// graph (DESIGN.md §11).
    pub fn fingerprint(&self) -> u64 {
        let mut lanes = [FNV_BASIS; 8];
        deal::<u64, 1>(&mut lanes, &self.row_ptr, |w| w[0]);
        let pair = |w: &[u32]| u64::from(w[0]) | w.get(1).map_or(0, |&hi| u64::from(hi) << 32);
        deal::<u32, 2>(&mut lanes, &self.col_idx, pair);
        if let Some(weights) = &self.weights {
            let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
            deal::<u32, 2>(&mut lanes, &bits, pair);
        }
        lanes.iter().fold(FNV_BASIS, |h, &lane| (h ^ lane).wrapping_mul(FNV_PRIME))
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

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Feed `items` to the eight FNV-1a `lanes`, `N` items a word (`word`
/// builds it from up to `N` of them), word `k` to lane `k mod 8`
/// ([`Csr::fingerprint`]).
fn deal<T, const N: usize>(lanes: &mut [u64; 8], items: &[T], word: impl Fn(&[T]) -> u64) {
    let chunks = items.chunks_exact(8 * N);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (lane, w) in lanes.iter_mut().zip(chunk.chunks_exact(N)) {
            *lane = (*lane ^ word(w)).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, w) in lanes.iter_mut().zip(rest.chunks(N)) {
        *lane = (*lane ^ word(w)).wrapping_mul(FNV_PRIME);
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

    /// The fingerprint is the plain definition — each array's words dealt
    /// to eight FNV-1a lanes from lane 0, the lanes folded — on graphs whose
    /// arrays end mid-chunk and on odd id counts, tells apart graphs that
    /// differ in one id or one weight, and is pinned on Fig. 1a's graph:
    /// checkpoints on disk record it.
    #[test]
    fn fingerprint_is_eight_fnv1a_lanes_of_the_csr_words() {
        fn plain(g: &Csr) -> u64 {
            let fnv = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
            let pairs = |v: Vec<u32>| -> Vec<u64> {
                let word = |p: &[u32]| u64::from(p[0]) | p.get(1).map_or(0, |&h| u64::from(h) << 32);
                v.chunks(2).map(word).collect()
            };
            let mut lanes = [FNV_BASIS; 8];
            let bits = g.weights_all().map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            let ids = pairs(g.col_idx().to_vec());
            for words in [g.row_ptr().to_vec(), ids, pairs(bits.unwrap_or_default())] {
                for (k, w) in words.into_iter().enumerate() {
                    lanes[k % 8] = fnv(lanes[k % 8], w);
                }
            }
            lanes.iter().fold(FNV_BASIS, |h, &l| fnv(h, l))
        }
        let fig1 = paper_fig1_graph();
        let ring = |n: u32, shift: u32| {
            let row_ptr = (0..=u64::from(n)).map(|v| 3 * v).collect();
            let col = (0..n).flat_map(|v| (1..=3).map(move |d| (v + d * shift) % n)).collect();
            Csr::from_parts(row_ptr, col, None)
        };
        for g in [&fig1, &ring(37, 1), &ring(101, 5), &ring(8, 3)] {
            assert_eq!(g.fingerprint(), plain(g));
        }
        assert_ne!(ring(37, 1).fingerprint(), ring(37, 2).fingerprint());
        let (row_ptr, col) = (fig1.row_ptr().to_vec(), fig1.col_idx().to_vec());
        let mut val = fig1.weights_all().unwrap().to_vec();
        val[3] += 1.0;
        assert_ne!(Csr::from_parts(row_ptr, col, Some(val)).fingerprint(), fig1.fingerprint());
        assert_eq!(fig1.fingerprint(), 0x4365_4127_9E8C_ED00);
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
