//! Edge mutation batches: the client-facing add/remove records, the
//! last-op-wins deduplication rule, and the pure upsert applied to an
//! adjacency list — shared by the on-device merge, the in-memory golden
//! path (`apply_to_csr`), and the tests that pin them against each other.
//! The records and the two pure functions live in `mlvc-graph`, beside the
//! structural-update buffer whose loader view is defined by them.

use mlvc_graph::checked::to_u64;
pub use mlvc_graph::{dedup_last_wins, upsert_adjacency, EdgeMutation, MutationOp};
use mlvc_graph::{Csr, VertexId};

use crate::error::MutationError;

/// What a merge changed, for incremental re-convergence: the edges that
/// actually appeared or disappeared (requests that were already satisfied
/// are dropped), plus the sorted, deduplicated endpoints of those edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationDelta {
    /// Edges now present that were absent before the merge.
    pub added: Vec<(VertexId, VertexId)>,
    /// Edges now absent that were present before the merge.
    pub removed: Vec<(VertexId, VertexId)>,
    /// Endpoints of the effective changes, sorted and deduplicated — the
    /// vertices whose adjacency or reachability may have changed.
    pub dirty: Vec<VertexId>,
}

impl MutationDelta {
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Validate that every endpoint of `muts` addresses a vertex of an
/// `num_vertices`-vertex graph.
pub fn validate_range(muts: &[EdgeMutation], num_vertices: usize) -> Result<(), MutationError> {
    let limit = to_u64(num_vertices);
    for m in muts {
        for v in [m.src, m.dst] {
            if u64::from(v) >= limit {
                return Err(MutationError::OutOfRange { v, num_vertices });
            }
        }
    }
    Ok(())
}

/// Golden in-memory path: apply a batch to a CSR and return the mutated
/// graph plus the effective delta. This is the semantics the on-device
/// merge must match bit-for-bit (`tests/mutation_equivalence.rs` pins the
/// two against each other through full engine runs).
pub fn apply_to_csr(
    base: &Csr,
    muts: &[EdgeMutation],
) -> Result<(Csr, MutationDelta), MutationError> {
    if base.has_weights() {
        return Err(MutationError::WeightedUnsupported);
    }
    validate_range(muts, base.num_vertices())?;
    let deduped = dedup_last_wins(muts);

    let mut delta = MutationDelta::default();
    let mut row_ptr: Vec<u64> = vec![0];
    let mut col_idx: Vec<VertexId> = Vec::with_capacity(base.num_edges());
    let mut k = 0usize;
    for v in 0..base.num_vertices() {
        let vid = to_u64(v);
        // The deduped batch is sorted by (src, dst): this vertex's slice.
        let lo = k;
        while k < deduped.len() && u64::from(deduped[k].src) == vid {
            k += 1;
        }
        let ops = &deduped[lo..k];
        let old = base.out_edges(idx_to_vertex(v)?);
        if ops.is_empty() {
            col_idx.extend_from_slice(old);
        } else {
            let adds: Vec<VertexId> =
                ops.iter().filter(|m| m.op == MutationOp::Add).map(|m| m.dst).collect();
            let removes: Vec<VertexId> =
                ops.iter().filter(|m| m.op == MutationOp::Remove).map(|m| m.dst).collect();
            let (new_adj, eff_added, eff_removed) = upsert_adjacency(old, &adds, &removes);
            let src = idx_to_vertex(v)?;
            delta.added.extend(eff_added.iter().map(|&d| (src, d)));
            delta.removed.extend(eff_removed.iter().map(|&d| (src, d)));
            col_idx.extend_from_slice(&new_adj);
        }
        row_ptr.push(to_u64(col_idx.len()));
    }
    finish_dirty(&mut delta);
    Ok((Csr::from_parts(row_ptr, col_idx, None), delta))
}

/// Fill `delta.dirty` from the effective edge lists (sorted, deduplicated).
pub(crate) fn finish_dirty(delta: &mut MutationDelta) {
    let mut dirty: Vec<VertexId> = delta
        .added
        .iter()
        .chain(delta.removed.iter())
        .flat_map(|&(s, d)| [s, d])
        .collect();
    dirty.sort_unstable();
    dirty.dedup();
    delta.dirty = dirty;
}

fn idx_to_vertex(v: usize) -> Result<VertexId, MutationError> {
    Ok(mlvc_graph::checked::to_u32("vertex id", v)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_last_op_per_pair() {
        let muts = [
            EdgeMutation::add(1, 2),
            EdgeMutation::remove(1, 2),
            EdgeMutation::add(3, 4),
            EdgeMutation::add(1, 2),
        ];
        let d = dedup_last_wins(&muts);
        assert_eq!(d, vec![EdgeMutation::add(1, 2), EdgeMutation::add(3, 4)]);
    }

    #[test]
    fn upsert_is_idempotent_and_order_preserving() {
        let old = [7u32, 3, 9];
        let (adj, added, removed) = upsert_adjacency(&old, &[3, 5, 1], &[9, 100]);
        assert_eq!(adj, vec![7, 3, 1, 5], "survivors keep order, adds sorted at tail");
        assert_eq!(added, vec![1, 5], "3 was already present");
        assert_eq!(removed, vec![9], "100 was absent");
        // Replay: applying the same ops to the result changes nothing.
        let (again, added2, removed2) = upsert_adjacency(&adj, &[3, 5, 1], &[9, 100]);
        assert_eq!(again, adj);
        assert!(added2.is_empty() && removed2.is_empty());
    }

    #[test]
    fn upsert_removes_all_occurrences() {
        let (adj, _, removed) = upsert_adjacency(&[4, 2, 4, 4], &[], &[4]);
        assert_eq!(adj, vec![2]);
        assert_eq!(removed, vec![4], "one pair even with three occurrences");
    }

    #[test]
    fn apply_to_csr_matches_manual() {
        let mut b = mlvc_graph::EdgeListBuilder::new(4);
        b.push(0, 1);
        b.push(0, 2);
        b.push(2, 3);
        let base = b.build();
        let (g, delta) = apply_to_csr(
            &base,
            &[
                EdgeMutation::add(0, 3),
                EdgeMutation::remove(0, 2),
                EdgeMutation::add(1, 1), // self-loop
                EdgeMutation::remove(3, 0), // absent
                EdgeMutation::add(2, 3), // already present
            ],
        )
        .unwrap();
        assert_eq!(g.out_edges(0), &[1, 3]);
        assert_eq!(g.out_edges(1), &[1]);
        assert_eq!(g.out_edges(2), &[3]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(delta.added, vec![(0, 3), (1, 1)]);
        assert_eq!(delta.removed, vec![(0, 2)]);
        assert_eq!(delta.dirty, vec![0, 1, 2, 3]);
    }

    #[test]
    fn out_of_range_and_weighted_are_typed_errors() {
        let mut b = mlvc_graph::EdgeListBuilder::new(2);
        b.push(0, 1);
        let base = b.build();
        let err = apply_to_csr(&base, &[EdgeMutation::add(0, 9)]).unwrap_err();
        assert!(matches!(err, MutationError::OutOfRange { v: 9, .. }));

        let mut wb = mlvc_graph::EdgeListBuilder::new(2);
        wb.push_weighted(0, 1, 1.5);
        let weighted = wb.build();
        let err = apply_to_csr(&weighted, &[EdgeMutation::add(1, 0)]).unwrap_err();
        assert_eq!(err, MutationError::WeightedUnsupported);
    }
}
