//! Adaptive memory-tiering benchmark (DESIGN.md §18) — the BENCH_cache
//! trajectory.
//!
//! Holds the *total* extra DRAM budget fixed and sweeps how it is spent:
//!
//! - **cache** — the whole budget as a page cache (the no-pin baseline
//!   the reduction floor is against).
//! - **cache+pin** — half cache, half pin budget (the shipped default for
//!   `mlvc run --cache-kb --pin-budget-kb`).
//! - **cache+maxpin** — an eighth of the budget as cache, the rest as pin
//!   budget. Under the engine's pure-scan traffic the cache share earns
//!   almost nothing beyond what pinning and retention capture, so this
//!   split is where the tiering thesis shows up strongest.
//!
//! The pin budget is spent two ways by the engine (DESIGN.md §18): the
//! hottest intervals' CSR extents are pinned, and whatever the topology
//! ranking leaves unspent retains the tail of freshly flushed update-log
//! pages — both reloads the engine would otherwise pay as device reads
//! every superstep.
//!
//! Measured on PageRank and WCC: device pages actually read (the flash
//! channel traffic the paper's evaluation is about), cache hit/miss/
//! eviction counters, and the read reduction of each split against the
//! no-pin baseline. Every configuration must produce bit-identical states
//! to an uncached run — the cache is an I/O optimization, never a
//! semantic one. Every counter is a pure function of the workload (the
//! engine touches the cache on its owner thread only, DESIGN.md §12), so
//! the numbers — and the CI floor on `best_read_reduction` — repeat
//! exactly at any thread count. Emitted as `BENCH_cache.json` by the
//! `bench_cache` bin.
//!
//! Extra knob: `MLVC_CACHE_KB` — the total tiering budget in KiB. The
//! default 8192 (512 device pages) is on the order of the default
//! workload's per-superstep read working set (~530 pages for PageRank).
//! That is the strongest comparison for the baseline: a cache this size
//! could in principle hold nearly everything a superstep re-reads, yet
//! the scan order defeats its replacement policy, while spending the
//! same bytes on pinned topology plus retained log tails captures the
//! reuse deterministically.

use std::sync::Arc;

use mlvc_core::{Engine, MultiLogEngine, TieringConfig, VertexProgram};
use mlvc_gen::Dataset;
use mlvc_graph::StoredGraph;
use mlvc_ssd::{Ssd, SsdConfig};

use crate::harness::Settings;

/// One tiering split of the fixed budget.
pub struct CacheRow {
    pub split: &'static str,
    pub cache_kb: usize,
    pub pin_kb: usize,
    pub pages_read: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub pinned_pages: usize,
    /// `1 - pages_read / baseline_pages_read` against the no-pin row of
    /// the same workload.
    pub reduction: f64,
}

/// One workload's sweep over the tiering splits.
pub struct CacheWorkload {
    pub app: &'static str,
    pub dataset: &'static str,
    /// Device reads with no cache at all (context, not the baseline).
    pub uncached_pages_read: u64,
    /// Device reads of the no-pin row (the reduction baseline).
    pub baseline_pages_read: u64,
    pub rows: Vec<CacheRow>,
}

impl CacheWorkload {
    /// Largest device-read reduction any split achieves over the no-pin
    /// baseline (the ≥ 0.25 floor the perf gate enforces).
    pub fn best_reduction(&self) -> f64 {
        self.rows.iter().map(|r| r.reduction).fold(0.0, f64::max)
    }
}

pub struct CacheBenchReport {
    pub threads: usize,
    /// Total tiering DRAM budget, KiB (`MLVC_CACHE_KB`).
    pub budget_kb: usize,
    pub workloads: Vec<CacheWorkload>,
}

impl CacheBenchReport {
    /// Hand-rolled JSON (the workspace is dependency-free).
    pub fn to_json(&self, s: &Settings) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"cache_tiering\",\n");
        out.push_str(&format!("  \"scale\": {},\n", s.scale));
        out.push_str(&format!("  \"memory_kb\": {},\n", s.memory_bytes >> 10));
        out.push_str(&format!("  \"budget_kb\": {},\n", self.budget_kb));
        out.push_str(&format!("  \"supersteps_cap\": {},\n", s.supersteps));
        out.push_str(&format!("  \"seed\": {},\n", s.seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str("  \"workloads\": [\n");
        for (k, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"app\": \"{}\", \"dataset\": \"{}\", \
                 \"uncached_pages_read\": {}, \"baseline_pages_read\": {}, \
                 \"best_read_reduction\": {:.3}, \"rows\": [\n",
                w.app,
                w.dataset,
                w.uncached_pages_read,
                w.baseline_pages_read,
                w.best_reduction()
            ));
            for (j, r) in w.rows.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"split\": \"{}\", \"cache_kb\": {}, \"pin_kb\": {}, \
                     \"pages_read\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
                     \"cache_evictions\": {}, \"pinned_pages\": {}, \
                     \"read_reduction\": {:.3}}}{}\n",
                    r.split,
                    r.cache_kb,
                    r.pin_kb,
                    r.pages_read,
                    r.hits,
                    r.misses,
                    r.evictions,
                    r.pinned_pages,
                    r.reduction,
                    if j + 1 < w.rows.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if k + 1 < self.workloads.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Markdown section for `run_all` / EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("## BENCH: adaptive memory tiering (device reads)\n\n");
        out.push_str(&format!(
            "A fixed {} KiB DRAM budget split between a scan-resistant 2Q page cache \
             and a pin budget the engine spends on hot-interval CSR extents plus \
             retained log tails (DESIGN.md §18). Reduction is device pages read vs \
             the no-pin row; every split produces bit-identical states.\n\n",
            self.budget_kb
        ));
        out.push_str(
            "| app | dataset | split | cache KiB | pin KiB | pages read | hits | \
             evictions | pinned | reduction |\n\
             |---|---|---|---|---|---|---|---|---|---|\n",
        );
        for w in &self.workloads {
            for r in &w.rows {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.1}% |\n",
                    w.app,
                    w.dataset,
                    r.split,
                    r.cache_kb,
                    r.pin_kb,
                    r.pages_read,
                    r.hits,
                    r.evictions,
                    r.pinned_pages,
                    100.0 * r.reduction
                ));
            }
            out.push_str(&format!(
                "\n{}/{}: best reduction {:.1}% (uncached run reads {} pages).\n\n",
                w.app,
                w.dataset,
                100.0 * w.best_reduction(),
                w.uncached_pages_read
            ));
        }
        out
    }
}

/// Cache counters of one run: (hits, misses, evictions, pinned pages).
type CacheCounters = (u64, u64, u64, usize);

/// Run one workload under one tiering split on a fresh device; returns
/// (final states, device pages read, cache counters if a cache was on).
fn tiered_run(
    s: &Settings,
    d: &Dataset,
    prog: &dyn VertexProgram,
    tiering: TieringConfig,
) -> (Vec<u64>, u64, Option<CacheCounters>) {
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let sg = StoredGraph::store_with(&ssd, &d.graph, "g", s.intervals(&d.graph)).unwrap();
    ssd.stats().reset();
    let cfg = s.engine_config().with_tiering(tiering);
    let mut eng = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
    eng.run(prog, s.supersteps);
    let pages_read = ssd.stats().snapshot().pages_read;
    let cache = ssd.cache().map(|c| {
        let cs = c.snapshot();
        let t = cs.tenant(ssd.tenant());
        (t.hits, t.misses, cs.evictions, cs.pinned_pages)
    });
    (eng.states().to_vec(), pages_read, cache)
}

/// Total tiering budget in bytes (`MLVC_CACHE_KB`, default 8192 KiB).
pub fn budget_from_env() -> usize {
    std::env::var("MLVC_CACHE_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8192)
        << 10
}

/// Run the benchmark: PageRank and WCC on the CF dataset, three splits of
/// the fixed budget each, plus an uncached context run.
pub fn run(s: &Settings) -> CacheBenchReport {
    let budget = budget_from_env();
    let progs: Vec<(&'static str, Box<dyn VertexProgram>)> = vec![
        ("pagerank", Box::new(mlvc_apps::PageRank::new(0.85, 1e-4))),
        ("wcc", Box::new(mlvc_apps::Wcc)),
    ];
    let d = &s.datasets()[0];
    let splits: [(&'static str, usize, usize); 3] = [
        ("cache", budget, 0),
        ("cache+pin", budget / 2, budget / 2),
        ("cache+maxpin", budget / 8, budget - budget / 8),
    ];
    let mut workloads = Vec::new();
    for (app, prog) in &progs {
        let (base_states, uncached_pages_read, _) =
            tiered_run(s, d, prog.as_ref(), TieringConfig::default());
        let mut rows = Vec::new();
        let mut baseline_pages_read = 0u64;
        for (name, cache_bytes, pin_bytes) in splits {
            let tiering = TieringConfig { cache_bytes, pin_budget_bytes: pin_bytes };
            let (states, pages_read, cache) = tiered_run(s, d, prog.as_ref(), tiering);
            assert_eq!(
                states, base_states,
                "{app}/{name}: tiering must not change results"
            );
            if name == "cache" {
                baseline_pages_read = pages_read;
            }
            let (hits, misses, evictions, pinned_pages) = cache.unwrap_or_default();
            rows.push(CacheRow {
                split: name,
                cache_kb: cache_bytes >> 10,
                pin_kb: pin_bytes >> 10,
                pages_read,
                hits,
                misses,
                evictions,
                pinned_pages,
                reduction: 0.0,
            });
        }
        for r in &mut rows {
            r.reduction = 1.0 - r.pages_read as f64 / baseline_pages_read.max(1) as f64;
        }
        workloads.push(CacheWorkload {
            app,
            dataset: d.name,
            uncached_pages_read,
            baseline_pages_read,
            rows,
        });
    }
    CacheBenchReport { threads: mlvc_par::max_threads(), budget_kb: budget >> 10, workloads }
}

/// Run, write `BENCH_cache.json` into the working directory, and return
/// the Markdown section (the `run_all` entry point).
pub fn section(s: &Settings) -> String {
    let report = run(s);
    std::fs::write("BENCH_cache.json", report.to_json(s)).expect("write BENCH_cache.json");
    report.to_markdown()
}
