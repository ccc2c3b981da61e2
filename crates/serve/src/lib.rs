//! `mlvc-serve` — multi-tenant serving daemon for the MultiLogVC engine.
//!
//! Out-of-core graph engines are usually driven one job at a time, but a
//! flash device that sustains one job's bandwidth can serve many: most of
//! each job's device traffic is re-reading the same immutable CSR
//! intervals. This crate turns the single-run engine into a long-running
//! daemon (`mlvc serve`) that schedules many concurrent jobs — different
//! apps, datasets, and budgets — against **one** simulated device:
//!
//! * **Admission control** ([`Budget`]): every job reserves its memory
//!   against a global budget for its whole lifetime. Requests that could
//!   never fit are rejected with a typed [`RejectReason`]; requests that
//!   merely don't fit *now* queue until running jobs release memory. The
//!   RAII [`Reservation`] releases on any exit path, so a crashed job
//!   cannot strand budget.
//! * **Shared page cache** (`mlvc_ssd::PageCache`, attached by the
//!   [`Daemon`]): a CLOCK-evicted, request-merging cache in front of the
//!   device. Concurrent jobs faulting the same graph page issue one
//!   device read; per-tenant hit/miss/bytes-saved counters attribute the
//!   savings. Hits charge nothing to a job's I/O accounting, so the
//!   identity `hits + cached device reads == uncached device reads`
//!   holds exactly per tenant.
//! * **Isolation**: each job runs on a tenant *view* of the device —
//!   private stats and fault state over shared storage — and tags its
//!   on-device artifacts (multi-logs, edge logs, checkpoints) with its
//!   job id, so runs never collide. Results are bit-identical to a
//!   standalone `mlvc run` of the same configuration.
//! * **Observability**: per-job metrics registries roll up into one
//!   daemon-wide Prometheus text snapshot
//!   ([`Daemon::prometheus_rollup`]), every series labeled with its job;
//!   the daemon counts every completed job and keeps the registries of
//!   the most recent ones only.
//!
//! * **Live mutations**: a `mutate` op ingests edge add/remove batches
//!   into each dataset's on-device mutation log (`mlvc_mutate`).
//!   Ingest happens on the dispatcher thread, so a client's
//!   mutate-then-run sequence is ordered; merging the log into the CSR
//!   is the explicit [`Daemon::merge_mutations`] call, which requires
//!   quiescence (no jobs reading that dataset). See DESIGN.md §17.
//!
//! Protocol and transport live in [`protocol`]: one JSON object per line
//! in, one reply event per line out (`accepted`/`queued`/`rejected`/
//! `done`/`failed`/`mutated`). See DESIGN.md §15.

mod admission;
mod daemon;
mod protocol;

pub use admission::{Budget, Reservation, MIN_JOB_BYTES};
pub use daemon::{
    Daemon, JobError, JobOutcome, JobResult, ServeConfig, MAX_MUTATION_EDGES,
};
pub use protocol::{
    accepted_line, done_line, failed_line, mutated_line, queued_line, rejected_line, JobRequest,
    MutationRequest, RejectReason, Request,
};
