use crate::checked::{idx, mem_idx};
use crate::{Adjacency, IntervalId, StoredGraph, VertexIntervals, VertexId};
use mlvc_ssd::DeviceError;

/// One graph mutation generated during vertex processing (paper §V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructuralUpdate {
    AddEdge { src: VertexId, dst: VertexId },
    RemoveEdge { src: VertexId, dst: VertexId },
}

impl StructuralUpdate {
    pub fn src(&self) -> VertexId {
        match *self {
            StructuralUpdate::AddEdge { src, .. } | StructuralUpdate::RemoveEdge { src, .. } => src,
        }
    }
}

/// Buffer of pending structural updates, segregated by the *source* vertex
/// interval (whose CSR partition they will be merged into).
///
/// The paper: "Instead of merging each update directly into the vertex
/// interval's graph data, we batch several structural updates for a vertex
/// interval and merge them into the graph data after a certain threshold
/// number of structural updates. ... The Graph Loader unit always accesses
/// these buffered updates to fetch the most current graph data" (§V-E).
#[derive(Debug, Clone)]
pub struct StructuralUpdateBuffer {
    intervals: VertexIntervals,
    pending: Vec<Vec<StructuralUpdate>>,
    threshold: usize,
}

impl StructuralUpdateBuffer {
    /// `threshold`: pending updates per interval that trigger a merge.
    pub fn new(intervals: VertexIntervals, threshold: usize) -> Self {
        assert!(threshold >= 1);
        let n = intervals.num_intervals();
        StructuralUpdateBuffer {
            intervals,
            pending: vec![Vec::new(); n],
            threshold,
        }
    }

    pub fn threshold(&self) -> usize {
        self.threshold
    }

    pub fn push(&mut self, u: StructuralUpdate) {
        let i = self.intervals.interval_of(u.src());
        self.pending[idx(i)].push(u);
    }

    pub fn total_pending(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    pub fn pending_for(&self, i: IntervalId) -> &[StructuralUpdate] {
        &self.pending[idx(i)]
    }

    /// Apply pending updates for vertex `v` to its freshly loaded adjacency,
    /// in insertion order (the loader's "most current graph data" view).
    pub fn patch_adjacency(&self, v: VertexId, edges: &mut Vec<VertexId>) {
        let i = self.intervals.interval_of(v);
        for u in &self.pending[idx(i)] {
            match *u {
                StructuralUpdate::AddEdge { src, dst } if src == v => edges.push(dst),
                StructuralUpdate::RemoveEdge { src, dst } if src == v => {
                    if let Some(pos) = edges.iter().position(|&e| e == dst) {
                        edges.remove(pos);
                    }
                }
                _ => {}
            }
        }
    }

    /// Bring interval `i`'s freshly loaded arena (vertices ascending) up to
    /// date: [`Self::patch_adjacency`] on exactly the vertices the pending
    /// updates name, so an interval nothing is pending for costs nothing.
    pub fn patch(&self, i: IntervalId, adj: &mut Adjacency) {
        let mut named: Vec<VertexId> = self.pending[idx(i)].iter().map(|u| u.src()).collect();
        named.sort_unstable();
        named.dedup();
        for v in named {
            if let Ok(k) = adj.vertices().binary_search_by_key(&v, |a| a.v) {
                let mut edges = adj.edges(k).to_vec();
                self.patch_adjacency(v, &mut edges);
                adj.replace_edges(k, &edges);
            }
        }
    }

    /// Merge every interval whose pending count crossed the threshold into
    /// its CSR partition (read → patch → rewrite). Returns the number of
    /// intervals merged. Call at superstep end (paper: "graph structure
    /// updates in a superstep can be applied at the end of the superstep").
    pub fn merge_over_threshold(&mut self, graph: &StoredGraph) -> Result<usize, DeviceError> {
        let ids: Vec<IntervalId> = self
            .intervals
            .iter_ids()
            .filter(|&i| self.pending[idx(i)].len() >= self.threshold)
            .collect();
        for &i in &ids {
            self.merge_interval(graph, i)?;
        }
        Ok(ids.len())
    }

    /// Force-merge everything (e.g. at run end, so the stored graph equals
    /// the logical graph).
    pub fn merge_all(&mut self, graph: &StoredGraph) -> Result<usize, DeviceError> {
        let ids: Vec<IntervalId> = self
            .intervals
            .iter_ids()
            .filter(|&i| !self.pending[idx(i)].is_empty())
            .collect();
        for &i in &ids {
            self.merge_interval(graph, i)?;
        }
        Ok(ids.len())
    }

    fn merge_interval(&mut self, graph: &StoredGraph, i: IntervalId) -> Result<(), DeviceError> {
        let start = self.intervals.start(i);
        let (rowptr, colidx, _w) = graph.read_interval(i)?;
        let mut adj: Vec<Vec<VertexId>> = (0..self.intervals.len_of(i))
            .map(|k| colidx[mem_idx(rowptr[k])..mem_idx(rowptr[k + 1])].to_vec())
            .collect();
        for u in self.pending[idx(i)].drain(..) {
            match u {
                StructuralUpdate::AddEdge { src, dst } => adj[idx(src - start)].push(dst),
                StructuralUpdate::RemoveEdge { src, dst } => {
                    let list = &mut adj[idx(src - start)];
                    if let Some(pos) = list.iter().position(|&e| e == dst) {
                        list.remove(pos);
                    }
                }
            }
        }
        graph.rewrite_interval(i, &adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeListBuilder;
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    fn setup() -> (StoredGraph, StructuralUpdateBuffer) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(8);
        for v in 0..8u32 {
            b.push(v, (v + 1) % 8);
        }
        let g = b.build();
        let iv = VertexIntervals::uniform(8, 2);
        let sg = StoredGraph::store_with(&ssd, &g, "s", iv.clone()).unwrap();
        (sg, StructuralUpdateBuffer::new(iv, 4))
    }

    #[test]
    fn patch_shows_pending_adds_and_removes() {
        let (_sg, mut buf) = setup();
        buf.push(StructuralUpdate::AddEdge { src: 1, dst: 5 });
        buf.push(StructuralUpdate::RemoveEdge { src: 1, dst: 2 });
        let mut edges = vec![2u32];
        buf.patch_adjacency(1, &mut edges);
        assert_eq!(edges, vec![5]);
        // Other vertices in the same interval are unaffected.
        let mut other = vec![3u32];
        buf.patch_adjacency(2, &mut other);
        assert_eq!(other, vec![3]);
    }

    #[test]
    fn below_threshold_does_not_merge() {
        let (sg, mut buf) = setup();
        buf.push(StructuralUpdate::AddEdge { src: 0, dst: 3 });
        assert_eq!(buf.merge_over_threshold(&sg).unwrap(), 0);
        assert_eq!(buf.total_pending(), 1);
        // The stored CSR is unchanged...
        assert_eq!(sg.to_csr().unwrap().out_edges(0), &[1]);
        // ...but the loader view (patch) already includes the edge.
        let mut edges = vec![1u32];
        buf.patch_adjacency(0, &mut edges);
        assert_eq!(edges, vec![1, 3]);
    }

    #[test]
    fn threshold_triggers_merge_into_csr() {
        let (sg, mut buf) = setup();
        for d in [3, 4, 5] {
            buf.push(StructuralUpdate::AddEdge { src: 0, dst: d });
        }
        buf.push(StructuralUpdate::RemoveEdge { src: 1, dst: 2 });
        assert_eq!(buf.merge_over_threshold(&sg).unwrap(), 1);
        assert_eq!(buf.total_pending(), 0);
        let csr = sg.to_csr().unwrap();
        assert_eq!(csr.out_edges(0), &[1, 3, 4, 5]);
        assert!(csr.out_edges(1).is_empty());
        assert_eq!(sg.num_edges(), 8 + 3 - 1);
    }

    #[test]
    fn merge_only_touches_crossing_intervals() {
        let (sg, mut buf) = setup();
        // Interval 0 (vertices 0..4) crosses; interval 1 does not.
        for d in [2, 3, 4, 5] {
            buf.push(StructuralUpdate::AddEdge { src: 0, dst: d });
        }
        buf.push(StructuralUpdate::AddEdge { src: 6, dst: 0 });
        assert_eq!(buf.merge_over_threshold(&sg).unwrap(), 1);
        assert_eq!(buf.total_pending(), 1);
        assert_eq!(buf.pending_for(1).len(), 1);
    }

    #[test]
    fn merge_all_flushes_everything() {
        let (sg, mut buf) = setup();
        buf.push(StructuralUpdate::AddEdge { src: 0, dst: 7 });
        buf.push(StructuralUpdate::AddEdge { src: 7, dst: 0 });
        assert_eq!(buf.merge_all(&sg).unwrap(), 2);
        let csr = sg.to_csr().unwrap();
        assert_eq!(csr.out_edges(0), &[1, 7]);
        assert_eq!(csr.out_edges(7), &[0, 0]);
    }

    #[test]
    fn remove_nonexistent_edge_is_noop() {
        let (sg, mut buf) = setup();
        buf.push(StructuralUpdate::RemoveEdge { src: 0, dst: 99 });
        buf.merge_all(&sg).unwrap();
        assert_eq!(sg.to_csr().unwrap().out_edges(0), &[1]);
    }

    #[test]
    fn batched_merge_equals_eager_merge() {
        // Invariant from DESIGN.md: threshold-batched merging must produce
        // the same final graph as applying every update immediately.
        let (sg_batched, mut buf) = setup();
        let (sg_eager, mut eager_buf) = setup();
        let updates = [
            StructuralUpdate::AddEdge { src: 0, dst: 4 },
            StructuralUpdate::RemoveEdge { src: 1, dst: 2 },
            StructuralUpdate::AddEdge { src: 5, dst: 1 },
            StructuralUpdate::AddEdge { src: 0, dst: 6 },
            StructuralUpdate::RemoveEdge { src: 0, dst: 4 },
        ];
        for u in updates {
            buf.push(u);
            eager_buf.push(u);
            eager_buf.merge_all(&sg_eager).unwrap(); // eager: merge after every update
        }
        buf.merge_all(&sg_batched).unwrap();
        assert_eq!(sg_batched.to_csr().unwrap(), sg_eager.to_csr().unwrap());
    }
}
