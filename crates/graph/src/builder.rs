use crate::checked::{idx, mem_idx, to_u64};
use crate::{Csr, VertexId};

/// Accumulates an edge list and builds a [`Csr`].
///
/// Input edges may arrive in any order and may contain duplicates and
/// self-loops; `dedup` / `drop_self_loops` control whether they survive.
/// `symmetrize` inserts the reverse of every edge — the paper's datasets are
/// undirected with both directions materialized (§VI).
#[derive(Debug, Default, Clone)]
pub struct EdgeListBuilder {
    edges: Vec<(VertexId, VertexId)>,
    weights: Option<Vec<f32>>,
    num_vertices: usize,
    symmetrize: bool,
    dedup: bool,
    drop_self_loops: bool,
}

impl EdgeListBuilder {
    pub fn new(num_vertices: usize) -> Self {
        EdgeListBuilder {
            num_vertices,
            ..Default::default()
        }
    }

    /// Store the reverse of every edge as well (undirected graph).
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// Remove duplicate (src, dst) pairs when building.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Remove v→v edges when building.
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            self.weights.is_none(),
            "cannot mix weighted and unweighted pushes"
        );
        assert!(idx(src) < self.num_vertices && idx(dst) < self.num_vertices);
        self.edges.push((src, dst));
    }

    pub fn push_weighted(&mut self, src: VertexId, dst: VertexId, w: f32) {
        assert!(idx(src) < self.num_vertices && idx(dst) < self.num_vertices);
        let weights = self.weights.get_or_insert_with(Vec::new);
        assert_eq!(
            weights.len(),
            self.edges.len(),
            "cannot mix weighted and unweighted pushes"
        );
        self.edges.push((src, dst));
        weights.push(w);
    }

    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Build the CSR by one counting sort by source that takes both
    /// directions of each kept edge: a degree count, then a forward pass that
    /// puts each kept edge in its source's row and, with `symmetrize`, a
    /// reverse pass that puts its reverse in its destination's row. A row so
    /// lists its pushed edges in insertion order, then (symmetrized) the
    /// reverses of the edges into it in insertion order. With `dedup` each
    /// row is then sorted and deduplicated in place and the rows closed up,
    /// so its neighbours are ascending. O(V + E) plus the per-row sorts: the
    /// edge list is never doubled and never sorted whole.
    pub fn build(self) -> Csr {
        assert!(
            !(self.dedup && self.weights.is_some()),
            "dedup of weighted edges is ambiguous; dedup before pushing"
        );
        let n = self.num_vertices;
        let kept = |&(s, d): &(VertexId, VertexId)| !(self.drop_self_loops && s == d);
        let mut row_ptr = vec![0u64; n + 1];
        for &(s, d) in self.edges.iter().filter(|e| kept(e)) {
            row_ptr[idx(s) + 1] += 1;
            if self.symmetrize {
                row_ptr[idx(d) + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }

        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0; mem_idx(row_ptr[n])];
        let mut weights = self.weights.as_ref().map(|_| vec![0.0f32; col_idx.len()]);
        let mut place = |row: VertexId, to: VertexId, i: usize| {
            let slot = mem_idx(cursor[idx(row)]);
            cursor[idx(row)] += 1;
            col_idx[slot] = to;
            if let (Some(src_w), Some(dst_w)) = (self.weights.as_ref(), weights.as_mut()) {
                dst_w[slot] = src_w[i];
            }
        };
        let kept_edges = || self.edges.iter().enumerate().filter(|(_, e)| kept(e));
        for (i, &(s, d)) in kept_edges() {
            place(s, d, i);
        }
        if self.symmetrize {
            for (i, &(s, d)) in kept_edges() {
                place(d, s, i);
            }
        }
        if self.dedup {
            sort_dedup_rows(&mut row_ptr, &mut col_idx);
        }
        Csr::from_parts(row_ptr, col_idx, weights)
    }
}

/// Sort and deduplicate every row of a CSR in place, moving each row down
/// to close the gaps the duplicates leave and rewriting `row_ptr` to match.
fn sort_dedup_rows(row_ptr: &mut [u64], col_idx: &mut Vec<VertexId>) {
    let mut write = 0usize;
    let mut start = 0usize;
    for row_end in row_ptr.iter_mut().skip(1) {
        let end = mem_idx(*row_end);
        col_idx[start..end].sort_unstable();
        for read in start..end {
            if read == start || col_idx[read] != col_idx[read - 1] {
                col_idx[write] = col_idx[read];
                write += 1;
            }
        }
        *row_end = to_u64(write);
        start = end;
    }
    col_idx.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_insertion_order() {
        let mut b = EdgeListBuilder::new(4);
        b.push(2, 3);
        b.push(0, 1);
        b.push(0, 3);
        b.push(0, 2);
        let g = b.build();
        assert_eq!(g.out_edges(0), &[1, 3, 2]);
        assert_eq!(g.out_edges(2), &[3]);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut b = EdgeListBuilder::new(3).symmetrize(true);
        b.push(0, 1);
        b.push(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_edges(1), &[2, 0]);
        // Undirected: in-degree equals out-degree.
        let ind = g.in_degrees();
        for v in 0..3u32 {
            assert_eq!(ind[v as usize] as usize, g.degree(v));
        }
    }

    #[test]
    fn dedup_and_self_loops() {
        let mut b = EdgeListBuilder::new(3).dedup(true).drop_self_loops(true);
        b.push(0, 1);
        b.push(0, 1);
        b.push(1, 1);
        b.push(2, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_edges(0), &[1]);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn weights_follow_edges() {
        let mut b = EdgeListBuilder::new(3).symmetrize(true);
        b.push_weighted(0, 1, 2.5);
        b.push_weighted(1, 2, 7.0);
        let g = b.build();
        assert_eq!(g.out_weights(0).unwrap(), &[2.5]);
        assert_eq!(g.out_weights(1).unwrap(), &[7.0, 2.5]);
        assert_eq!(g.out_weights(2).unwrap(), &[7.0]);
    }

    /// The build before the one-pass counting sort, kept as the oracle:
    /// drop self-loops, append the reverses, sort and dedup the whole list,
    /// then a stable counting sort by source. `flags` is `[symmetrize,
    /// dedup, drop_self_loops]`.
    fn oracle(
        n: usize,
        edges: &[(VertexId, VertexId, f32)],
        weighted: bool,
        flags: [bool; 3],
    ) -> Csr {
        let [symmetrize, dedup, drop_self_loops] = flags;
        let mut list: Vec<_> =
            edges.iter().copied().filter(|&(s, d, _)| !(drop_self_loops && s == d)).collect();
        if symmetrize {
            let reverses: Vec<_> = list.iter().map(|&(s, d, w)| (d, s, w)).collect();
            list.extend(reverses);
        }
        if dedup {
            list.sort_unstable_by_key(|&(s, d, _)| (s, d));
            list.dedup_by_key(|&mut (s, d, _)| (s, d));
        }
        let mut rows = vec![Vec::new(); n];
        for (s, d, w) in list {
            rows[idx(s)].push((d, w));
        }
        let row_ptr = std::iter::once(0)
            .chain(rows.iter().scan(0, |end, row| {
                *end += to_u64(row.len());
                Some(*end)
            }))
            .collect();
        let col_idx = rows.iter().flatten().map(|&(d, _)| d).collect();
        // A builder turns weighted at its first weighted push.
        let weighted = weighted && !edges.is_empty();
        let weights = weighted.then(|| rows.iter().flatten().map(|&(_, w)| w).collect());
        Csr::from_parts(row_ptr, col_idx, weights)
    }

    #[test]
    fn build_matches_the_oracle_for_every_flag_combination() {
        let mut rng = crate::Rng(0xB011_D0C5);
        for _ in 0..200 {
            // Few vertices, so duplicates and self-loops are common.
            let n = 1 + rng.below(24);
            let edges: Vec<(VertexId, VertexId, f32)> = (0..rng.below(100) / 2)
                .map(|_| {
                    let s = VertexId::try_from(rng.below(n)).unwrap();
                    let d = VertexId::try_from(rng.below(n)).unwrap();
                    (s, d, f32::from(u16::try_from(rng.below(1000)).unwrap()) / 8.0)
                })
                .collect();
            for bits in 0..8u8 {
                let flags = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                for weighted in [false, true] {
                    if weighted && flags[1] {
                        continue; // refused: `weighted_dedup_is_refused`
                    }
                    let mut b = EdgeListBuilder::new(n)
                        .symmetrize(flags[0])
                        .dedup(flags[1])
                        .drop_self_loops(flags[2]);
                    for &(s, d, w) in &edges {
                        if weighted {
                            b.push_weighted(s, d, w);
                        } else {
                            b.push(s, d);
                        }
                    }
                    assert_eq!(
                        b.build(),
                        oracle(n, &edges, weighted, flags),
                        "n {n}, flags {flags:?}, weighted {weighted}, edges {edges:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dedup of weighted edges is ambiguous")]
    fn weighted_dedup_is_refused() {
        let mut b = EdgeListBuilder::new(2).dedup(true);
        b.push_weighted(0, 1, 1.0);
        b.build();
    }

    #[test]
    fn empty_graph() {
        let g = EdgeListBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5u32 {
            assert!(g.out_edges(v).is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_vertex() {
        let mut b = EdgeListBuilder::new(2);
        b.push(0, 2);
    }
}
