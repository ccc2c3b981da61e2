//! # mlvc-mutate — streaming graph mutation service
//!
//! The third leg of the roadmap's "mutable, multi-tenant, and
//! distributed": live add/remove-edge batches against a stored graph,
//! with results indistinguishable from rebuilding the graph cold.
//!
//! * [`EdgeMutation`] / [`MutationOp`] — the client-facing batch records.
//!   Semantics are *ensure-present* / *remove-all-occurrences* with
//!   last-op-wins deduplication per `(src, dst)` pair, so replaying an
//!   acknowledged batch is always a no-op.
//! * [`MutationLog`] — per-interval on-device delta buckets in the
//!   multi-log page format, with memory-pressure eviction accounting;
//!   [`MutationLog::merge`] folds them into the stored CSR partitions
//!   under the PR-2 data-before-manifest protocol (shadow extents → CRC'd
//!   manifest in rotating slots → install → retire),
//!   [`MutationLog::commit`] puts a running program's own structural
//!   updates through the same stages (the engine's only CSR rewriter), and
//!   [`MutationLog::recover`] replays the newest committed merge after a
//!   crash — the CSR is always the pre- or post-merge one, never torn.
//! * [`MutationDelta`] — the *effective* changes a merge made, feeding
//!   incremental re-convergence: only vertices whose adjacency actually
//!   changed (and their targets) need re-activation.
//! * [`apply_to_csr`] — the in-memory golden semantics the on-device
//!   merge is pinned against, also used by the CLI's `--out` export.
//!
//! See DESIGN.md §17 for the log format, the merge commit protocol, and
//! the incremental activation rule.

mod batch;
mod error;
mod log;

pub use batch::{
    apply_to_csr, dedup_last_wins, upsert_adjacency, validate_range, EdgeMutation, MutationDelta,
    MutationOp,
};
pub use error::MutationError;
pub use log::{IngestStats, MergeOutcome, MutationConfig, MutationLog, MutationStats};
