//! One function per table, figure and ablation of the evaluation. Each
//! builds its runs on the one [`Rig`] and returns a [`Section`]: the
//! regenerated rows under the paper's reported shape.

use std::sync::Arc;

use mlvc_core::{Engine, RunReport, TieringConfig, VertexProgram};
use mlvc_graph::{Csr, VertexId};
use mlvc_ssd::{FtlConfig, FtlModel, FtlOp, Ssd, SsdConfig};

use crate::rig::{Rig, Settings};
use crate::table::{Cell, Section};

/// What regenerates one section.
pub type SectionFn = fn(&Settings) -> Section;

/// Every section, in report order, under the name `figures` takes.
pub static SECTIONS: [(&str, SectionFn); 15] = [
    ("table1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablation_edgelog", ablation_edgelog),
    ("ablation_channels", ablation_channels),
    ("ablation_async", ablation_async),
    ("ablation_ftl", ablation_ftl),
    ("ablation_checkpoint", ablation_checkpoint),
    ("tiering", tiering),
];

/// What `figures [section…]` prints: the named sections, or with no name
/// the whole report under its settings header.
pub fn report(s: &Settings, names: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let mut picked = Vec::new();
    for name in names {
        let section = SECTIONS.iter().find(|(key, _)| key == name).ok_or_else(|| {
            let known: Vec<&str> = SECTIONS.iter().map(|(key, _)| *key).collect();
            format!("unknown section {name:?}; one of: {}", known.join(" "))
        })?;
        picked.push(section);
    }
    if names.is_empty() {
        out += &format!(
            "# MultiLogVC — regenerated evaluation\n\n\
             Settings: scale {} (CF), {} KiB memory, {} supersteps, seed {}.\n\n",
            s.scale,
            s.memory_bytes >> 10,
            s.supersteps,
            s.seed
        );
        picked.extend(SECTIONS.iter());
    }
    for (_, section) in picked {
        out += &format!("{}\n", section(s));
    }
    Ok(out)
}

/// The paper's six applications, by their `mlvc_apps::by_name` names.
const APPS: [&str; 6] = ["bfs", "pagerank", "cdlp", "coloring", "mis", "randomwalk"];

/// A fresh instance of a registered application; BFS starts at the hub.
fn app(name: &str, g: &Csr) -> Box<dyn VertexProgram> {
    mlvc_apps::by_name(name, g.has_weights(), best_source(g)).expect("a registered application")
}

/// Run `app` on the engine a rig terminal just built.
fn run(built: (Arc<Ssd>, impl Engine), app: &dyn VertexProgram, steps: usize) -> RunReport {
    let (_, mut engine) = built;
    engine.run(app, steps)
}

/// One application on MultiLogVC and on GraphChi, same rig.
fn run_pair(rig: &Rig, name: &str, steps: usize) -> (RunReport, RunReport) {
    let app = app(name, rig.graph);
    (run(rig.mlvc(), app.as_ref(), steps), run(rig.graphchi(), app.as_ref(), steps))
}

/// Highest-degree vertex — a BFS source with a large reachable set.
pub fn best_source(g: &Csr) -> VertexId {
    (0..g.num_vertices() as VertexId).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

/// A low-degree vertex on the periphery of the giant component — a BFS
/// source whose frontier grows slowly, stretching the traversal over many
/// supersteps (the paper's small-traversal-fraction regime).
pub fn peripheral_source(g: &Csr) -> VertexId {
    let levels = mlvc_apps::bfs_reference(g, best_source(g));
    // Farthest vertex from the hub that is still connected to it.
    (0..g.num_vertices() as VertexId)
        .filter_map(|v| levels[v as usize].map(|l| (v, l)))
        .max_by_key(|&(v, l)| (l, std::cmp::Reverse(g.degree(v))))
        .map_or(0, |(v, _)| v)
}

/// Table I: dataset inventory (scaled stand-ins).
pub fn table1(s: &Settings) -> Section {
    let mut out = Section::new(
        "Table I — datasets",
        "",
        &[
            "Dataset",
            "Stands for",
            "Vertices",
            "Edges (stored)",
            "Max deg",
            "Mean deg",
            "Top-1% edge share",
        ],
    );
    for d in s.datasets() {
        let st = mlvc_gen::degree_stats(&d.graph);
        out.row(vec![
            Cell::text(d.name),
            Cell::text(d.stands_for),
            Cell::int(st.num_vertices as u64),
            Cell::int(st.num_edges as u64),
            Cell::int(st.max_degree as u64),
            Cell::fixed(st.mean_degree, 1),
            Cell::fixed(st.top1pct_edge_share, 2),
        ]);
    }
    out
}

/// Fig. 2: active vertices / edges per superstep for graph coloring.
pub fn fig2(s: &Settings) -> Section {
    let mut out = Section::new(
        "Fig. 2 — active vertices and edges over supersteps (graph coloring)",
        "Paper shape: both fractions shrink dramatically as supersteps progress.",
        &["Dataset", "Superstep", "Active vertices / V", "Updates / E"],
    );
    for d in s.datasets() {
        let g = &d.graph;
        let r = run(s.rig(g).mlvc(), app("coloring", g).as_ref(), s.supersteps);
        for st in &r.supersteps {
            out.row(vec![
                Cell::text(d.name),
                Cell::int(st.superstep as u64),
                Cell::fixed(st.active_vertices as f64 / g.num_vertices() as f64, 4),
                Cell::fixed(st.messages_processed as f64 / g.num_edges() as f64, 4),
            ]);
        }
    }
    out
}

/// Fig. 3: fraction of accessed column-index pages with <10% utilization.
pub fn fig3(s: &Settings) -> Section {
    let mut out = Section::new(
        "Fig. 3 — accessed graph pages with <10% utilization",
        "Paper shape: a large share (~32% avg) of accessed pages are barely used.",
        &["Dataset", "App", "Pages accessed", "Inefficient (<10%)", "Share"],
    );
    for d in s.datasets() {
        let g = &d.graph;
        // Edge log off: the raw CSR access pattern.
        let rig = Rig { engine: s.engine_config().with_edge_log(false), ..s.rig(g) };
        for name in APPS {
            let r = run(rig.mlvc(), app(name, g).as_ref(), s.supersteps);
            let acc: u64 = r.supersteps.iter().map(|x| x.colidx_pages_accessed).sum();
            let bad: u64 = r.supersteps.iter().map(|x| x.colidx_pages_inefficient).sum();
            out.row(vec![
                Cell::text(d.name),
                Cell::text(name),
                Cell::int(acc),
                Cell::int(bad),
                Cell::pct(bad as f64 / acc.max(1) as f64, 1),
            ]);
        }
    }
    out
}

/// Fraction of the reachable set visited after `steps` BFS supersteps,
/// given every vertex's BFS level.
fn bfs_fraction_at(levels: &[Option<u64>], steps: usize) -> f64 {
    let reachable = levels.iter().flatten().count();
    let visited = levels.iter().flatten().filter(|&&l| (l as usize) < steps).count();
    visited as f64 / reachable.max(1) as f64
}

/// Fig. 5a/5b/5c: BFS vs traversal fraction — speedup, page ratio, split.
/// Each row caps the run at a superstep count; the achieved traversal
/// fraction is the x-axis of the paper's plot.
pub fn fig5(s: &Settings) -> Section {
    let d = s.cf(); // the paper plots BFS on traversal fractions of one graph at a time
    let g = &d.graph;
    let src = peripheral_source(g);
    let levels = mlvc_apps::bfs_reference(g, src);
    let max_level = levels.iter().flatten().max().copied().unwrap_or(1) as usize;
    let mut out = Section::new(
        format!("Fig. 5 — BFS ({} dataset, source {src})", d.name),
        "Paper shape: speedup is largest for small traversal fractions (page ratio ~90×\n\
         at 0.1 falling to ~6× at full traversal; avg speedup 17.8×); storage time is\n\
         ~75–90% for MultiLogVC and ~95%+ for GraphChi.",
        &[
            "Fraction traversed",
            "Supersteps",
            "Speedup (5a)",
            "Page ratio GChi/MLVC (5b)",
            "MLVC storage % (5c)",
            "GChi storage %",
        ],
    );
    let rig = s.rig(g);
    let app = mlvc_apps::Bfs::new(src);
    for steps in 2..=(max_level + 1) {
        let rm = run(rig.mlvc(), &app, steps);
        let rg = run(rig.graphchi(), &app, steps);
        out.row(vec![
            Cell::fixed(bfs_fraction_at(&levels, steps), 3),
            Cell::int(steps as u64),
            Cell::times(rm.speedup_over(&rg)),
            Cell::times(rg.total_pages() as f64 / rm.total_pages().max(1) as f64),
            Cell::pct(rm.storage_fraction(), 0),
            Cell::pct(rg.storage_fraction(), 0),
        ]);
    }
    out
}

/// Fig. 6a–e: per-application speedup over GraphChi.
pub fn fig6(s: &Settings) -> Section {
    let mut out = Section::new(
        format!("Fig. 6 — application speedup over GraphChi ({} supersteps)", s.supersteps),
        "Paper averages: PR 1.2×, CDLP 1.7×, GC 1.38×, MIS 3.2×, RW 6×.",
        &["Dataset", "App", "MLVC time (ms, sim)", "GraphChi time (ms, sim)", "Speedup"],
    );
    for d in s.datasets() {
        let rig = s.rig(&d.graph);
        for name in &APPS[1..] {
            // BFS is Fig. 5.
            let (rm, rg) = run_pair(&rig, name, s.supersteps);
            out.row(vec![
                Cell::text(d.name),
                Cell::text(*name),
                Cell::ms(rm.total_sim_time_ns()),
                Cell::ms(rg.total_sim_time_ns()),
                Cell::times(rm.speedup_over(&rg)),
            ]);
        }
    }
    out
}

/// Fig. 7a–d: per-superstep relative performance (GraphChi time / MLVC
/// time per superstep).
pub fn fig7(s: &Settings) -> Section {
    let mut out = Section::new(
        "Fig. 7 — per-superstep speedup over GraphChi",
        "Paper shape: early supersteps (many active vertices, big logs) are at or below\n\
         parity; later supersteps favor MultiLogVC strongly.",
        &["Dataset", "App", "Superstep", "Speedup"],
    );
    for d in s.datasets() {
        let rig = s.rig(&d.graph);
        for name in &APPS[1..5] {
            // Fig. 7 plots PR, CDLP, GC, MIS.
            let (rm, rg) = run_pair(&rig, name, s.supersteps);
            for (m, g) in rm.supersteps.iter().zip(&rg.supersteps) {
                out.row(vec![
                    Cell::text(d.name),
                    Cell::text(*name),
                    Cell::int(m.superstep as u64),
                    Cell::times(g.sim_time_ns() as f64 / m.sim_time_ns().max(1) as f64),
                ]);
            }
        }
    }
    out
}

/// Fig. 8: GraFBoost comparison — PR first iteration, plus adapted
/// GraFBoost running graph coloring.
pub fn fig8(s: &Settings) -> Section {
    let mut out = Section::new(
        "Fig. 8 — MultiLogVC vs GraFBoost",
        "Paper: PR first iteration 2.8× average (4× on the larger YWS — external sort\n\
         of the big log dominates); adapted GraFBoost on coloring: 2.72× (CF) / 2.67× (YWS).",
        &["Dataset", "Experiment", "MLVC (ms, sim)", "GraFBoost (ms, sim)", "Speedup"],
    );
    // PR first iteration needs the paper's regime: the whole-graph update
    // log is *many* times the sort budget (3.6 B edges × 16 B vs 1 GB in
    // the paper, ~60:1), so the single-log engine pays run generation and
    // multi-pass merging, and in-chunk sort-reduce barely dedups (each
    // chunk covers a small slice of the vertex space). Run two sizes up
    // with an eighth of the memory to land in that ratio.
    let s8 = Settings {
        scale: s.scale + 2,
        memory_bytes: (s.memory_bytes / 8).max(64 << 10),
        ..*s
    };
    let experiments = [
        (&s8, " (scale +2)", "pagerank", "pagerank (1st iter)", 2),
        (s, "", "coloring", "coloring (adapted GraFBoost)", s.supersteps),
    ];
    for (s, suffix, name, label, steps) in experiments {
        for d in s.datasets() {
            let rig = s.rig(&d.graph);
            let rm = run(rig.mlvc(), app(name, &d.graph).as_ref(), steps);
            let rf = run(rig.grafboost(), app(name, &d.graph).as_ref(), steps);
            out.row(vec![
                Cell::text(format!("{}{suffix}", d.name)),
                Cell::text(label),
                Cell::ms(rm.total_sim_time_ns()),
                Cell::ms(rf.total_sim_time_ns()),
                Cell::times(rm.speedup_over(&rf)),
            ]);
        }
    }
    out
}

/// Fig. 9: edge-log optimizer prediction accuracy per application.
pub fn fig9(s: &Settings) -> Section {
    let mut out = Section::new(
        "Fig. 9 — correctly predicted inefficient pages",
        "Paper: ~34% of inefficiently used pages predicted on average; lower for\n\
         fast-converging CDLP/GC, higher for apps with sustained activity.",
        &["Dataset", "App", "Inefficient pages", "Predicted correctly", "Accuracy"],
    );
    for d in s.datasets() {
        let rig = s.rig(&d.graph);
        for name in APPS {
            let r = run(rig.mlvc(), app(name, &d.graph).as_ref(), s.supersteps);
            let el = r.edgelog.unwrap_or_default();
            out.row(vec![
                Cell::text(d.name),
                Cell::text(name),
                Cell::int(el.actual_inefficient_pages),
                Cell::int(el.correctly_predicted_pages),
                el.prediction_accuracy().map_or(Cell::text("n/a"), |a| Cell::pct(a, 0)),
            ]);
        }
    }
    out
}

/// Fig. 10: memory scalability — MIS speedup over GraphChi at 1×/4×/8×
/// the base memory budget.
pub fn fig10(s: &Settings) -> Section {
    let mut out = Section::new(
        "Fig. 10 — memory scalability (MIS)",
        "Paper: speedup over GraphChi stays about the same as memory grows\n\
         (≈5–10% improvement at larger budgets).",
        &["Dataset", "Memory", "Speedup over GraphChi"],
    );
    for d in s.datasets() {
        // Adding host memory does not re-ingest the graph: the on-SSD
        // interval layout stays the base setting's, as in the paper.
        let base = s.rig(&d.graph);
        for mult in [1usize, 4, 8] {
            let sm = Settings { memory_bytes: s.memory_bytes * mult, ..*s };
            let rig = Rig { engine: sm.engine_config(), ..base.clone() };
            let (rm, rg) = run_pair(&rig, "mis", s.supersteps);
            out.row(vec![
                Cell::text(d.name),
                Cell::text(format!("{} KiB", sm.memory_bytes >> 10)),
                Cell::times(rm.speedup_over(&rg)),
            ]);
        }
    }
    out
}

/// Extension (DESIGN.md §8): edge-log optimizer ablation — same runs with
/// the optimizer on/off.
pub fn ablation_edgelog(s: &Settings) -> Section {
    let mut out = Section::new(
        "Ablation — edge-log optimizer on/off",
        "",
        &["Dataset", "App", "Pages read (on)", "Pages read (off)", "Sim time on/off"],
    );
    // Longer horizon than the figures: the optimizer's opportunity
    // (sparse, repeatedly-active tails) grows as runs converge.
    let steps = s.supersteps * 2;
    for d in s.datasets() {
        let g = &d.graph;
        let rig_on = s.rig(g);
        let rig_off = Rig { engine: s.engine_config().with_edge_log(false), ..rig_on.clone() };
        for name in APPS {
            if name == "pagerank" {
                continue; // threshold-0.4 PR has too few supersteps to stage logs
            }
            let (_, mut on) = rig_on.mlvc();
            let r_on = on.run(app(name, g).as_ref(), steps);
            let (_, mut off) = rig_off.mlvc();
            let r_off = off.run(app(name, g).as_ref(), steps);
            assert_eq!(on.states(), off.states(), "{name}: ablation changed results");
            out.row(vec![
                Cell::text(d.name),
                Cell::text(name),
                Cell::int(r_on.total_pages_read()),
                Cell::int(r_off.total_pages_read()),
                Cell::fixed(
                    r_on.total_sim_time_ns() as f64 / r_off.total_sim_time_ns().max(1) as f64,
                    3,
                ),
            ]);
        }
    }
    out
}

/// Extension (DESIGN.md §8): flash channel-count sweep — how much of the
/// multi-log design's benefit rides on channel parallelism.
pub fn ablation_channels(s: &Settings) -> Section {
    let mut out = Section::new(
        "Ablation — flash channel count (BFS + PageRank, CF)",
        "Logs are striped across all channels (paper §V-A3), so simulated time should\n\
         fall with channel count on both engines, with ratios roughly preserved.",
        &["Channels", "App", "MLVC sim ms", "GraphChi sim ms", "Speedup"],
    );
    let d = s.cf();
    for channels in [1usize, 4, 8] {
        let rig = Rig { ssd: SsdConfig::default().with_channels(channels), ..s.rig(&d.graph) };
        for name in &APPS[..2] {
            let (rm, rg) = run_pair(&rig, name, s.supersteps);
            out.row(vec![
                Cell::int(channels as u64),
                Cell::text(*name),
                Cell::ms(rm.total_sim_time_ns()),
                Cell::ms(rg.total_sim_time_ns()),
                Cell::times(rm.speedup_over(&rg)),
            ]);
        }
    }
    out
}

/// Extension (DESIGN.md §8): synchronous vs asynchronous computation model
/// (paper §V-F) on monotone algorithms.
pub fn ablation_async(s: &Settings) -> Section {
    let mut out = Section::new(
        "Ablation — synchronous vs asynchronous model (WCC)",
        "Async delivers current-superstep updates to later intervals (§V-F), cutting\n\
         supersteps on monotone algorithms at identical results.",
        &["Dataset", "Model", "Supersteps", "Sim ms", "Results equal"],
    );
    for d in s.datasets() {
        let mut sync_states = Vec::new();
        for (model, async_mode) in [("sync", false), ("async", true)] {
            let rig = Rig { engine: s.engine_config().with_async(async_mode), ..s.rig(&d.graph) };
            let (_, mut e) = rig.mlvc();
            let r = e.run(&mlvc_apps::Wcc, 500);
            let equal = if async_mode {
                (e.states() == sync_states.as_slice()).to_string()
            } else {
                sync_states = e.states().to_vec();
                String::new()
            };
            out.row(vec![
                Cell::text(d.name),
                Cell::text(model),
                Cell::int(r.supersteps.len() as u64),
                Cell::ms(r.total_sim_time_ns()),
                Cell::text(equal),
            ]);
        }
    }
    out
}

/// Peak number of simultaneously live logical pages in a write/trim trace.
fn peak_live(trace: &[FtlOp]) -> usize {
    let mut live = std::collections::HashSet::new();
    let mut peak = 0;
    for op in trace {
        match op {
            FtlOp::Write(l) => {
                live.insert(*l);
                peak = peak.max(live.len());
            }
            FtlOp::Trim(l) => {
                live.remove(l);
            }
        }
    }
    peak
}

/// Extension (DESIGN.md §8): device-level write amplification. Replays
/// each engine's host write/trim trace through the FTL model — the
/// append-and-trim multi-log should stay near WA 1.0 while GraphChi's
/// in-place shard rewrites force GC relocations.
pub fn ablation_ftl(s: &Settings) -> Section {
    let mut out = Section::new(
        "Ablation — device write amplification (FTL replay, PageRank, CF)",
        "Host write/trim traces of a full run replayed through a page-mapping FTL with\n\
         greedy GC. Multi-log writes are append-then-trim (flash friendly, paper §IV-A);\n\
         GraphChi overwrites shard pages in place.",
        &["Engine", "Host writes", "Physical writes", "GC relocations", "Write amplification"],
    );
    let d = s.cf();
    // Traces include the graph ingest: the cold resident CSR / shard data
    // is exactly what pins erase blocks and creates GC pressure.
    let rig = Rig { trace: true, ..s.rig(&d.graph) };
    let app = mlvc_apps::PageRank::new(0.85, 0.01);
    fn traced(built: (Arc<Ssd>, impl Engine), app: &dyn VertexProgram, steps: usize) -> Vec<FtlOp> {
        let (ssd, mut engine) = built;
        engine.run(app, steps);
        ssd.take_trace()
    }
    let mlvc = traced(rig.mlvc(), &app, s.supersteps);
    let graphchi = traced(rig.graphchi(), &app, s.supersteps);
    // One device geometry for both engines: the larger peak live footprint
    // at ~85% occupancy — the regime where GC pressure is realistic.
    let pages_per_block = 64usize;
    let peak = peak_live(&mlvc).max(peak_live(&graphchi));
    let blocks = (((peak as f64 / 0.85) / pages_per_block as f64).ceil() as usize).max(8);
    for (name, trace) in [("MultiLogVC", mlvc), ("GraphChi", graphchi)] {
        let mut ftl = FtlModel::new(FtlConfig { pages_per_block, blocks, gc_low_watermark: 2 });
        ftl.replay(&trace).expect("the device is sized from the traces' peak footprint");
        let st = ftl.stats();
        out.row(vec![
            Cell::text(name),
            Cell::int(st.host_writes),
            Cell::int(st.physical_writes),
            Cell::int(st.gc_relocations),
            Cell::fixed(st.write_amplification(), 3),
        ]);
    }
    out
}

/// Extension (DESIGN.md §11): checkpoint overhead vs cadence. Runs BFS
/// and PageRank on CF with crash-consistency checkpoints every k
/// supersteps and reports the write and simulated-time overhead over the
/// checkpoint-free baseline. Results must be identical at every cadence —
/// checkpointing is pure overhead, never a behavior change.
pub fn ablation_checkpoint(s: &Settings) -> Section {
    let mut out = Section::new(
        "Ablation — checkpoint cadence (crash recovery, CF)",
        "Crash-consistent checkpoints (vertex values + active set + pending multi-log\n\
         extents, A/B manifest slots) written every k supersteps. Overheads are relative\n\
         to the k = off baseline of the same app.",
        &["App", "Cadence", "Checkpoints", "Pages written", "Write overhead", "Sim time overhead"],
    );
    let d = s.cf();
    let overhead = |x: u64, base: u64| {
        let o = (x as f64 - base as f64) / base.max(1) as f64;
        Cell::new(format!("{:+.1}%", 100.0 * o), o)
    };
    for name in &APPS[..2] {
        let mut baseline: Option<(u64, u64, Vec<u64>)> = None;
        for cadence in [None, Some(8usize), Some(4), Some(2), Some(1)] {
            let mut rig = s.rig(&d.graph);
            rig.engine.checkpoint_every = cadence;
            let (_, mut e) = rig.mlvc();
            let r = e.run(app(name, &d.graph).as_ref(), s.supersteps);
            let (written, sim) = (r.total_pages_written(), r.total_sim_time_ns());
            let (w0, t0, states0) =
                baseline.get_or_insert_with(|| (written, sim, e.states().to_vec()));
            assert_eq!(
                e.states(),
                states0.as_slice(),
                "{name}: checkpointing changed results at cadence {cadence:?}"
            );
            out.row(vec![
                Cell::text(*name),
                Cell::text(cadence.map_or("off".to_string(), |k| format!("every {k}"))),
                Cell::int(r.supersteps.iter().filter(|st| st.checkpointed).count() as u64),
                Cell::int(written),
                overhead(written, *w0),
                overhead(sim, *t0),
            ]);
        }
    }
    out
}

/// The extra DRAM the tiering sweep splits between cache and pins: 512
/// device pages, on the order of the default workload's per-superstep read
/// working set (~530 pages for PageRank). That is the strongest comparison
/// for the all-cache row: a cache this size could in principle hold nearly
/// everything a superstep re-reads, yet the scan order defeats its
/// replacement policy, while the same bytes spent on pinned topology plus
/// retained log tails capture the reuse deterministically.
const TIERING_BUDGET: usize = 8 << 20;

/// Extension (DESIGN.md §18): adaptive memory tiering. Holds the extra
/// DRAM budget fixed and sweeps how it is spent — all of it page cache (the
/// row the reduction is against), half cache and half pin budget (what
/// `mlvc run --cache-kb --pin-budget-kb` ships), or an eighth cache and the
/// rest pins. The engine spends a pin budget on the hottest intervals' CSR
/// extents and, with what the topology ranking leaves, on the tails of
/// freshly flushed log pages. Every counter is a pure function of the
/// workload (the engine touches the cache on its owner thread only,
/// DESIGN.md §12), so the rows repeat exactly at any thread count.
pub fn tiering(s: &Settings) -> Section {
    let mut out = Section::new(
        "Memory tiering — device reads under a fixed DRAM budget (CF)",
        &format!(
            "A fixed {} KiB of extra DRAM split between a scan-resistant 2Q page cache and a\n\
             pin budget the engine spends on hot-interval CSR extents plus retained log tails\n\
             (DESIGN.md §18). Reduction is device pages read against the all-cache row of the\n\
             same app; every split produces bit-identical states.",
            TIERING_BUDGET >> 10
        ),
        &[
            "App",
            "Split",
            "Cache KiB",
            "Pin KiB",
            "Pages read",
            "Hits",
            "Evictions",
            "Pinned",
            "Reduction",
        ],
    );
    let d = s.cf();
    let splits = [
        ("none", 0, 0),
        ("cache", TIERING_BUDGET, 0),
        ("cache+pin", TIERING_BUDGET / 2, TIERING_BUDGET / 2),
        ("cache+maxpin", TIERING_BUDGET / 8, TIERING_BUDGET - TIERING_BUDGET / 8),
    ];
    let progs: [(&str, Box<dyn VertexProgram>); 2] = [
        ("pagerank", Box::new(mlvc_apps::PageRank::new(0.85, 1e-4))),
        ("wcc", Box::new(mlvc_apps::Wcc)),
    ];
    for (name, prog) in &progs {
        let mut untiered_states = Vec::new();
        let mut all_cache_reads = 0u64;
        for (split, cache_bytes, pin_budget_bytes) in splits {
            let tiering = TieringConfig { cache_bytes, pin_budget_bytes };
            let rig = Rig { engine: s.engine_config().with_tiering(tiering), ..s.rig(&d.graph) };
            let (ssd, mut e) = rig.mlvc();
            e.run(prog.as_ref(), s.supersteps);
            let pages_read = ssd.stats().snapshot().pages_read;
            let (hits, evictions, pinned) = ssd.cache().map_or((0, 0, 0), |c| {
                let cs = c.snapshot();
                (cs.tenant(ssd.tenant()).hits, cs.evictions, cs.pinned_pages as u64)
            });
            match split {
                "none" => untiered_states = e.states().to_vec(),
                "cache" => all_cache_reads = pages_read,
                _ => {}
            }
            assert_eq!(e.states(), untiered_states, "{name}/{split}: tiering changed results");
            out.row(vec![
                Cell::text(*name),
                Cell::text(split),
                Cell::int((cache_bytes >> 10) as u64),
                Cell::int((pin_budget_bytes >> 10) as u64),
                Cell::int(pages_read),
                Cell::int(hits),
                Cell::int(evictions),
                Cell::int(pinned),
                if split == "none" {
                    Cell::text("—")
                } else {
                    Cell::pct(1.0 - pages_read as f64 / all_cache_reads.max(1) as f64, 1)
                },
            ]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Settings {
        Settings { scale: 8, memory_bytes: 128 << 10, supersteps: 8, seed: 7 }
    }

    /// Every section runs at mini scale, has rows, and sits in the full
    /// report in `SECTIONS` order; a named section is printed exactly as the
    /// full report has it.
    #[test]
    fn every_section_renders_and_a_named_one_is_its_slice_of_the_report() {
        let s = tiny();
        let full = report(&s, &[]).unwrap();
        assert!(full.starts_with("# MultiLogVC — regenerated evaluation\n\nSettings: scale 8 "));
        let mut at = 0;
        for (name, section) in &SECTIONS {
            let sec = section(&s);
            assert!(sec.rows.len() >= 2, "{name}: rows expected");
            let printed = format!("{sec}\n");
            let found = full[at..].find(&printed);
            at += found.unwrap_or_else(|| panic!("{name}: missing or out of order"));
        }
        let named = report(&s, &["fig2".to_string(), "table1".to_string()]).unwrap();
        assert_eq!(named, format!("{}\n{}\n", fig2(&s), table1(&s)), "in the order asked");
        assert!(report(&s, &["fig4".to_string()]).unwrap_err().contains("one of: table1 fig2"));
    }

    #[test]
    fn checkpoint_ablation_has_a_baseline_row_per_app_and_counts_checkpoints() {
        let sec = ablation_checkpoint(&tiny());
        assert_eq!(sec.texts("App").iter().filter(|a| **a == "bfs").count(), 5);
        let off = sec.filter("Cadence", "off");
        assert_eq!(off.values("Checkpoints"), [0.0, 0.0]);
        assert_eq!(off.values("Write overhead"), [0.0, 0.0]);
        let dense = sec.filter("Cadence", "every 1");
        assert!(dense.values("Checkpoints").iter().all(|&c| c >= 1.0));
    }

    #[test]
    fn best_source_is_a_hub() {
        assert_eq!(best_source(&mlvc_gen::star(10)), 0);
    }

    #[test]
    fn bfs_fraction_is_monotone_in_supersteps() {
        let g = mlvc_gen::cf_mini(9, 3).graph;
        let levels = mlvc_apps::bfs_reference(&g, best_source(&g));
        let f2 = bfs_fraction_at(&levels, 2);
        let f5 = bfs_fraction_at(&levels, 5);
        let f50 = bfs_fraction_at(&levels, 50);
        assert!(f2 <= f5 && f5 <= f50);
        assert!((f50 - 1.0).abs() < 1e-12, "everything reachable visited: {f50}");
    }

    #[test]
    fn peripheral_source_is_far_from_hub() {
        let g = mlvc_gen::cf_mini(9, 3).graph;
        let levels = mlvc_apps::bfs_reference(&g, best_source(&g));
        let max_level = levels.iter().flatten().max().copied().unwrap();
        assert_eq!(levels[peripheral_source(&g) as usize], Some(max_level));
    }
}
