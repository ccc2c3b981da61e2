//! # mlvc-gen — synthetic graph generators and dataset registry
//!
//! The paper evaluates on com-friendster (SNAP) and the Yahoo WebScope 2002
//! web graph — 3.6 B and 12.9 B edge datasets that are proprietary or far
//! beyond this environment. Per the reproduction plan (DESIGN.md §2) we
//! substitute deterministic synthetic graphs with the same *structural*
//! properties the paper's arguments rest on:
//!
//! * **power-law degree distributions** (RMAT) — these drive the paper's
//!   read-amplification analysis ("the vast majority of SSD pages contain
//!   the out-edges of multiple vertices", §IV-C);
//! * **undirected edges materialized in both directions** (§VI);
//! * a **social-like** dataset (`cf_mini`, dense, low diameter) and a
//!   **web-like** dataset (`yws_mini`, sparser, higher diameter, more
//!   skewed) standing in for com-friendster and YahooWebScope.
//!
//! All generators take an explicit seed and use the in-repo deterministic
//! RNG ([`rng::SeededRng`], xoshiro256++) so outputs are reproducible
//! across platforms, runs, and dependency upgrades.

mod ba;
mod datasets;
mod er;
mod rmat;
pub mod rng;
mod sbm;
mod simple;
mod stats;

pub use ba::{barabasi_albert, check_barabasi_albert};
pub use datasets::{cf_mini, yws_mini, Dataset};
pub use er::{check_erdos_renyi, erdos_renyi};
pub use rmat::{rmat, RmatParams};
pub use sbm::{sbm, sbm_community, SbmParams};
pub use simple::{complete, cycle, grid, path, star};
pub use stats::{degree_stats, DegreeStats};

/// Assert a generator's precondition through its public check, whose
/// message the panic carries: a bad parameter is the caller's bug here, and
/// a caller that wants an error calls the check first.
fn require(check: Result<(), String>) {
    assert!(check.is_ok(), "{}", check.err().unwrap_or_default());
}
