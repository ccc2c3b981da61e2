//! # mlvc-bench — the paper's evaluation, regenerated
//!
//! Every table and figure of the paper's evaluation (§VIII), plus the
//! ablations of the extensions, on the scaled-down datasets (DESIGN.md
//! §2/§4). One [`Rig`] builds every run (graph, intervals, device config,
//! engine config → a fresh device with MultiLogVC, GraphChi or GraFBoost on
//! it); every figure is a [`Section`] of rows; one binary prints them:
//! `figures [section…]`, with no argument the whole report, which is
//! committed as `results_run_all.md` and held there byte for byte by
//! `scripts/check.sh`. `tests/paper_claims.rs` reads the same sections'
//! columns to hold each figure's shape. Host wall-clock and everything the
//! serving, mutation and cache paths cost is measured by the `benchmark/`
//! ledger, not here.
//!
//! Scaling knobs come from the environment so the suite can be rerun at
//! larger sizes:
//!
//! * `MLVC_SCALE` — log2 vertex count of the CF stand-in (default 14;
//!   YWS uses `MLVC_SCALE + 1` with web skew);
//! * `MLVC_MEM_KB` — host memory budget in KiB (default 2048, preserving
//!   the paper's graph ≫ memory regime at the default scale);
//! * `MLVC_STEPS` — superstep cap (default 15, the paper's cap);
//! * `MLVC_SEED` — RNG seed (default 42).

pub mod figures;
pub mod rig;
pub mod table;

pub use rig::{Rig, Settings};
pub use table::{Cell, Section};
