//! # mlvc-core — the MultiLogVC engine and vertex-centric API
//!
//! Ties the substrates together into the system of the paper:
//!
//! * [`VertexProgram`] / [`VertexCtx`] — the vertex-centric programming
//!   model (§V-F): a per-vertex processing function receiving the vertex
//!   id, its value, **all** incoming messages individually, and its
//!   adjacency; `SendUpdate` communication; self-deactivation with
//!   automatic reactivation on message receipt; optional `combine` operator
//!   for associative+commutative algorithms; graph mutation calls.
//! * [`MultiLogEngine`] — Algorithm 1 of the paper: per superstep, fuse and
//!   load interval logs, sort & group in memory, extract active vertices,
//!   load their adjacency selectively from the CSR (or the edge log), run
//!   the processing function in parallel, route outgoing updates through
//!   the multi-log, and feed the edge-log optimizer's predictors.
//! * [`Engine`] — an engine-neutral run interface, implemented here and by
//!   the GraphChi / GraFBoost baseline crates so that identical application
//!   code runs on every engine (the paper's evaluation methodology).
//! * [`RunReport`] — per-superstep activity, I/O, and simulated-time
//!   statistics; the raw material for every figure in the evaluation.

mod api;
mod checkpoint;
mod config;
mod engine;
mod merge;
mod reference;
mod report;
mod tiering;
mod trace;

pub use api::{
    Combine, InitActive, Reconverge, SendSink, VertexCtx, VertexOutputs, VertexProgram,
};
pub use config::{
    compute_ns, ConfigError, EngineConfig, TieringConfig, EDGELOG_PCT, EDGE_SCAN_NS,
    MSG_PROCESS_NS, MULTILOG_PCT, SORT_NS, SORT_PCT,
};
pub use engine::{actives_for_interval, MultiLogEngine};
pub use reference::ReferenceEngine;
pub use report::{RunReport, SuperstepStats};

// Re-exported so applications depend on one crate for the full API surface.
pub use mlvc_log::Update;
pub use mlvc_mutate::{
    EdgeMutation, IngestStats, MergeOutcome, MutationConfig, MutationDelta, MutationError,
    MutationLog, MutationOp, MutationStats,
};
pub use mlvc_obs::MetricsSnapshot;
pub use mlvc_ssd::sync;

use mlvc_graph::VertexId;

/// Engine-neutral execution interface. `run` executes up to
/// `max_supersteps` supersteps (the paper caps evaluation at 15, §VII) or
/// until convergence (no pending messages and no self-activated vertices).
pub trait Engine {
    /// Engine name used in experiment output ("MultiLogVC", "GraphChi", …).
    fn name(&self) -> &'static str;

    /// Execute `prog` from a fresh state and return the run's statistics.
    fn run(&mut self, prog: &dyn VertexProgram, max_supersteps: usize) -> RunReport;

    /// Final per-vertex state array (encoded u64 per vertex), valid after
    /// `run`.
    fn states(&self) -> &[u64];

    /// Decoded convenience accessor.
    fn state_of(&self, v: VertexId) -> u64 {
        self.states()[v as usize]
    }
}
