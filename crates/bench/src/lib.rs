//! # mlvc-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VIII) on
//! the scaled-down datasets (DESIGN.md §2/§4). Each `fig*` function
//! returns a Markdown section; the `table1`/`fig2`…`fig10` binaries print
//! one each, and `run_all` concatenates everything (the content recorded
//! in EXPERIMENTS.md).
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

pub mod cache_bench;
pub mod figures;
pub mod harness;
pub mod micro;
pub mod mutate_bench;
pub mod serve_bench;

pub use harness::Settings;
