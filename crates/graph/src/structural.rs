use crate::checked::idx;
use crate::{Adjacency, IntervalId, VertexIntervals, VertexId};

/// What a mutation does to the edge `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutationOp {
    /// Ensure the edge is present. If `dst` is already an out-neighbor of
    /// `src` the adjacency list is left completely untouched (no reorder,
    /// no duplicate), so replaying an acknowledged batch is a no-op.
    Add,
    /// Delete every occurrence of the edge. Removing an absent edge is a
    /// no-op, for the same replay-idempotence reason.
    Remove,
}

/// One requested edge mutation: a client's batch record (DESIGN.md §17) or
/// a structural update a vertex program made while running (paper §V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeMutation {
    pub src: VertexId,
    pub dst: VertexId,
    pub op: MutationOp,
}

impl EdgeMutation {
    pub fn add(src: VertexId, dst: VertexId) -> Self {
        EdgeMutation { src, dst, op: MutationOp::Add }
    }

    pub fn remove(src: VertexId, dst: VertexId) -> Self {
        EdgeMutation { src, dst, op: MutationOp::Remove }
    }
}

/// Collapse a batch to one operation per `(src, dst)` pair — the last
/// request wins, matching the order the client issued them. Output is
/// sorted by `(src, dst)` so downstream processing is deterministic
/// regardless of request interleaving within the batch.
pub fn dedup_last_wins(muts: &[EdgeMutation]) -> Vec<EdgeMutation> {
    let mut last: std::collections::BTreeMap<(VertexId, VertexId), MutationOp> =
        std::collections::BTreeMap::new();
    for m in muts {
        last.insert((m.src, m.dst), m.op);
    }
    last.into_iter()
        .map(|((src, dst), op)| EdgeMutation { src, dst, op })
        .collect()
}

/// Apply one vertex's deduplicated mutations to its adjacency list.
///
/// The upsert rule: surviving old neighbors keep their order; effective
/// additions are appended in ascending `dst` order. Returns the new list
/// plus the effective `(added dsts, removed dsts)` — `removed` counts
/// pairs, not occurrences (a duplicated edge disappears as one pair).
pub fn upsert_adjacency(
    old: &[VertexId],
    adds: &[VertexId],
    removes: &[VertexId],
) -> (Vec<VertexId>, Vec<VertexId>, Vec<VertexId>) {
    let removed_set: std::collections::BTreeSet<VertexId> = removes.iter().copied().collect();
    let old_set: std::collections::BTreeSet<VertexId> = old.iter().copied().collect();
    let new_adj: Vec<VertexId> =
        old.iter().copied().filter(|d| !removed_set.contains(d)).collect();
    let mut eff_added: Vec<VertexId> =
        adds.iter().copied().filter(|d| !old_set.contains(d)).collect();
    eff_added.sort_unstable();
    eff_added.dedup();
    let eff_removed: Vec<VertexId> =
        removed_set.iter().copied().filter(|d| old_set.contains(d)).collect();
    let mut out = new_adj;
    out.extend_from_slice(&eff_added);
    (out, eff_added, eff_removed)
}

/// The structural updates a running program has made and no merge has
/// written yet, segregated by the *source* vertex interval (whose CSR
/// partition they will be merged into).
///
/// The paper: "Instead of merging each update directly into the vertex
/// interval's graph data, we batch several structural updates for a vertex
/// interval and merge them into the graph data after a certain threshold
/// number of structural updates. ... The Graph Loader unit always accesses
/// these buffered updates to fetch the most current graph data" (§V-E).
///
/// The buffer only holds the pending set and shows it to the loader
/// ([`Self::patch`]); the one CSR rewriter is `mlvc-mutate`'s commit, which
/// [`Self::take`] hands the pending lists to.
#[derive(Debug, Clone)]
pub struct StructuralUpdateBuffer {
    intervals: VertexIntervals,
    pending: Vec<Vec<EdgeMutation>>,
    threshold: usize,
}

impl StructuralUpdateBuffer {
    /// `threshold`: pending updates per interval that make it due for a
    /// merge (at least 1).
    pub fn new(intervals: VertexIntervals, threshold: usize) -> Self {
        let n = intervals.num_intervals();
        StructuralUpdateBuffer {
            intervals,
            pending: vec![Vec::new(); n],
            threshold: threshold.max(1),
        }
    }

    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Queue `u`; its source must be a vertex of the partition.
    pub fn push(&mut self, u: EdgeMutation) {
        let i = self.intervals.interval_of(u.src);
        self.pending[idx(i)].push(u);
    }

    /// Whether an update of `v`'s own adjacency is pending — the stored
    /// list (and any copy of it) is not `v`'s current one until a merge.
    pub fn names(&self, v: VertexId) -> bool {
        self.pending[idx(self.intervals.interval_of(v))].iter().any(|u| u.src == v)
    }

    /// Bring interval `i`'s freshly loaded adjacency (vertices ascending,
    /// edges as stored) up to date: each vertex the pending updates name
    /// gets `upsert_adjacency(stored, last-op-wins(pending))` — exactly the
    /// list the merge will write, so a merge moves bytes and never changes
    /// what a program sees. Only a list that is rewritten is materialised;
    /// an interval nothing is pending for costs nothing.
    pub fn patch(&self, i: IntervalId, adj: &mut Adjacency) {
        let ops = dedup_last_wins(&self.pending[idx(i)]);
        for of_v in ops.chunk_by(|a, b| a.src == b.src) {
            if let Ok(k) = adj.vertices().binary_search_by_key(&of_v[0].src, |a| a.v) {
                let dsts = |op| of_v.iter().filter(move |m| m.op == op).map(|m| m.dst);
                let adds: Vec<VertexId> = dsts(MutationOp::Add).collect();
                let removes: Vec<VertexId> = dsts(MutationOp::Remove).collect();
                let (edges, _, _) = upsert_adjacency(&adj.edges(k).to_vec(), &adds, &removes);
                adj.replace_edges(k, &edges);
            }
        }
    }

    /// Hand over the pending list (arrival order) of every interval holding
    /// at least `min` updates, indexed by interval; the others stay pending
    /// and come back empty. `take(self.threshold())` is the superstep-end
    /// merge set (paper: "graph structure updates in a superstep can be
    /// applied at the end of the superstep"), `take(1)` everything.
    pub fn take(&mut self, min: usize) -> Vec<Vec<EdgeMutation>> {
        self.pending
            .iter_mut()
            .map(|p| if p.len() >= min { std::mem::take(p) } else { Vec::new() })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeListBuilder, GraphLoader, StoredGraph};
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

    /// The loader view of `v` under `buf`.
    fn view(sg: &StoredGraph, buf: &StructuralUpdateBuffer, v: VertexId) -> Vec<VertexId> {
        let i = sg.intervals().interval_of(v);
        let adj = GraphLoader::new().load_active(sg, i, &[v], false, Some(buf)).unwrap();
        adj.edges(0).to_vec()
    }

    #[test]
    fn patch_shows_pending_adds_and_removes() {
        let (sg, mut buf) = setup();
        buf.push(EdgeMutation::add(1, 5));
        buf.push(EdgeMutation::remove(1, 2));
        assert_eq!(view(&sg, &buf, 1), vec![5]);
        assert!(buf.names(1));
        // Other vertices in the same interval are unaffected.
        assert_eq!(view(&sg, &buf, 2), vec![3]);
        assert!(!buf.names(2));
    }

    #[test]
    fn patch_follows_the_upsert_rule() {
        let (sg, mut buf) = setup();
        // Ensure-present: a stored edge is not doubled, however often asked.
        buf.push(EdgeMutation::add(0, 1));
        buf.push(EdgeMutation::add(0, 1));
        // Last op wins per edge; additions land ascending at the tail.
        buf.push(EdgeMutation::add(0, 7));
        buf.push(EdgeMutation::add(0, 3));
        buf.push(EdgeMutation::add(0, 5));
        buf.push(EdgeMutation::remove(0, 5));
        assert_eq!(view(&sg, &buf, 0), vec![1, 3, 7]);
        // The stored CSR is unchanged until a merge.
        assert_eq!(sg.to_csr().unwrap().out_edges(0), &[1]);
    }

    #[test]
    fn take_hands_over_only_intervals_at_the_minimum() {
        let (_sg, mut buf) = setup();
        // Interval 0 (vertices 0..4) reaches the threshold; interval 1 not.
        for d in [2, 3, 4, 5] {
            buf.push(EdgeMutation::add(0, d));
        }
        buf.push(EdgeMutation::add(6, 0));
        let due = buf.take(buf.threshold());
        assert_eq!(due[0].len(), 4);
        assert!(due[1].is_empty());
        let rest = buf.take(1);
        assert!(rest[0].is_empty());
        assert_eq!(rest[1], vec![EdgeMutation::add(6, 0)]);
        assert!(buf.take(1).iter().all(Vec::is_empty), "nothing left pending");
    }

    #[test]
    fn zero_threshold_is_raised_to_one() {
        let (_sg, buf) = setup();
        assert_eq!(StructuralUpdateBuffer::new(buf.intervals.clone(), 0).threshold(), 1);
    }
}
