//! # mlvc-graph — graph storage for MultiLogVC
//!
//! Implements the storage side of the paper (§III, §V-B2, §V-E):
//!
//! * an in-memory [`Csr`] (compressed sparse row) representation with a
//!   builder from edge lists;
//! * [`VertexIntervals`] — the contiguous vertex groups that everything in
//!   MultiLogVC is organized around. Interval sizes are chosen so that, under
//!   the paper's conservative assumption of one update per in-edge, all
//!   updates bound to one interval fit in the memory allocated for sorting
//!   (§V-A1);
//! * [`StoredGraph`] — the CSR laid out on the simulated SSD, partitioned
//!   *per interval* (each interval owns its own row-pointer and column-index
//!   extents) so that structural updates merge locally (§V-E), every page in
//!   the [`page`] format: a self-describing header, then entries bit-packed
//!   at a width observed from the graph;
//! * [`GraphLoader`] — the Graph Loader Unit (§V-B2): given the active vertex
//!   set it reads **only the SSD pages containing active vertex data**, and
//!   records per-page utilization — the raw material for the paper's Fig. 3
//!   and for the edge-log optimizer's page-efficiency predictor;
//! * [`StructuralUpdateBuffer`] — a running program's pending graph
//!   mutations, batched per interval and shown to the loader until a merge
//!   (§V-E), with the edge-mutation record and the upsert rule a merge
//!   applies ([`EdgeMutation`], [`dedup_last_wins`], [`upsert_adjacency`]);
//!   the merge itself — the one CSR rewriter — is `mlvc-mutate`'s commit.

mod builder;
mod csr;
mod intervals;
mod loader;
pub mod page;
mod stored;
mod structural;
mod view;

/// Checked width conversions shared across the format crates.
pub use mlvc_ssd::checked;

pub use builder::EdgeListBuilder;
pub use csr::Csr;
pub use intervals::{IntervalId, VertexIntervals};
pub use loader::{AdjVertex, Adjacency, GraphLoader, PageUsage, RowPtrs};
pub use stored::{
    read_partition, write_partitions, IntervalCsr, PartitionWrite, StoredGraph, UPDATE_BYTES,
};
pub use view::{Edges, Entry, ListView, Packed, Segment, Weights};
pub use structural::{
    dedup_last_wins, upsert_adjacency, EdgeMutation, MutationOp, StructuralUpdateBuffer,
};

/// Vertex identifier. The paper uses 4-byte vertex ids (§VI).
pub type VertexId = u32;

/// xorshift64*: this crate sits below `mlvc-gen`, so its seeded tests draw
/// from their own generator.
#[cfg(test)]
struct Rng(u64);

#[cfg(test)]
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
