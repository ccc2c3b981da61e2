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
//!   extents) so that structural updates merge locally (§V-E);
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
mod stored;
mod structural;
mod view;

/// Checked width conversions shared across the format crates.
pub use mlvc_ssd::checked;

pub use builder::EdgeListBuilder;
pub use csr::Csr;
pub use intervals::{IntervalId, VertexIntervals};
pub use loader::{AdjVertex, Adjacency, GraphLoader, PageUsage};
pub use stored::{read_u32s, read_u64s, write_partition, StoredGraph, UPDATE_BYTES};
pub use view::{Edges, Entry, ListView, Segment, Weights};
pub use structural::{
    dedup_last_wins, upsert_adjacency, EdgeMutation, MutationOp, StructuralUpdateBuffer,
};

/// Vertex identifier. The paper uses 4-byte vertex ids (§VI).
pub type VertexId = u32;

/// Bytes of one row-pointer entry on storage (paper §VI: "8-byte data type
/// for the rowPtr vector").
pub const ROW_PTR_BYTES: usize = 8;

/// Bytes of one column-index (adjacency) entry on storage (paper §VI:
/// "4 bytes for the vertex id").
pub const COL_IDX_BYTES: usize = 4;

/// Bytes of one edge-weight entry on storage.
pub const WEIGHT_BYTES: usize = 4;
