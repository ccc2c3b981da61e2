//! # mlvc-apps — the paper's six evaluation applications
//!
//! Written once against the engine-neutral [`mlvc_core::VertexProgram`]
//! trait, so the identical code runs on MultiLogVC, the GraphChi baseline,
//! and the GraFBoost baseline (where its combine restriction allows).
//!
//! Two classes, as in the paper (§VII):
//!
//! * **Merging updates acceptable** (associative + commutative `combine`
//!   provided): [`Bfs`], [`PageRank`]. These run on all three engines.
//! * **Merging updates not possible** (every message consumed
//!   individually): [`Cdlp`] (community detection by label propagation),
//!   [`Coloring`] (speculative greedy coloring), [`Mis`] (Luby's maximal
//!   independent set), [`RandomWalk`] (DrunkardMob-style walks). These run
//!   on MultiLogVC and GraphChi, plus the *adapted* GraFBoost variant that
//!   keeps all updates in its single log.
//!
//! All randomized programs draw from [`mlvc_core::VertexCtx::rand_u64`],
//! a deterministic per-(run, vertex, superstep) stream, so results are
//! identical across engines — the engine-agreement tests depend on it.

mod bfs;
mod cdlp;
mod coloring;
mod kcore;
mod mis;
mod pagerank;
mod rw;
mod sssp;
mod validate;
mod wcc;

pub use bfs::Bfs;
pub use cdlp::Cdlp;
pub use coloring::Coloring;
pub use kcore::{coreness_reference, KCore};
pub use mis::{Mis, MisState};
pub use pagerank::PageRank;
pub use rw::RandomWalk;
pub use sssp::Sssp;
pub use validate::{
    bfs_reference, dijkstra_reference, is_maximal_independent_set, is_proper_coloring,
    pagerank_reference,
};
pub use wcc::Wcc;

use mlvc_core::VertexProgram;
use mlvc_graph::VertexId;

/// Why [`by_name`] could not construct a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// No application is registered under this name.
    Unknown(String),
    /// The application reads edge weights and the graph has none.
    NeedsWeights(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Unknown(name) => write!(f, "unknown app {name}"),
            AppError::NeedsWeights(name) => write!(f, "{name} needs a weighted graph"),
        }
    }
}

impl std::error::Error for AppError {}

/// The application registry: a fresh program, at the paper's default
/// parameters, for the name the CLI, the serving protocol and the figure
/// harness all use. `source` seeds the single-source programs (BFS, SSSP);
/// `weighted` says whether the graph it will run on carries edge weights.
pub fn by_name(
    name: &str,
    weighted: bool,
    source: VertexId,
) -> Result<Box<dyn VertexProgram>, AppError> {
    Ok(match name {
        "bfs" => Box::new(Bfs::new(source)),
        "pagerank" => Box::new(PageRank::default()),
        "cdlp" => Box::new(Cdlp),
        "coloring" => Box::new(Coloring::new()),
        "mis" => Box::new(Mis),
        "randomwalk" => Box::new(RandomWalk::default()),
        "wcc" => Box::new(Wcc),
        "kcore" => Box::new(KCore::new()),
        "sssp" if weighted => Box::new(Sssp::new(source)),
        "sssp" => return Err(AppError::NeedsWeights(name.to_string())),
        other => return Err(AppError::Unknown(other.to_string())),
    })
}

/// Pack an `f64` payload into the opaque message/state word.
#[inline]
pub fn pack_f64(x: f64) -> u64 {
    x.to_bits()
}

/// Unpack an `f64` payload.
#[inline]
pub fn unpack_f64(bits: u64) -> f64 {
    f64::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_every_name_and_types_its_refusals() {
        for name in
            ["bfs", "pagerank", "cdlp", "coloring", "mis", "randomwalk", "wcc", "kcore", "sssp"]
        {
            let app = by_name(name, true, 3).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(app.name(), name, "registry name is the program's report name");
        }
        assert_eq!(by_name("sssp", false, 0).err(), Some(AppError::NeedsWeights("sssp".into())));
        assert_eq!(by_name("nope", true, 0).err(), Some(AppError::Unknown("nope".into())));
        let refusal = AppError::NeedsWeights("sssp".into());
        assert_eq!(refusal.to_string(), "sssp needs a weighted graph");
    }

    #[test]
    fn f64_roundtrip() {
        for x in [0.0, 1.0, -3.5, 0.15, f64::MAX] {
            assert_eq!(unpack_f64(pack_f64(x)), x);
        }
    }
}
