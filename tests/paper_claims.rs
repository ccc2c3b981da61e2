//! The paper's claims as assertions. The first half holds headline shapes
//! on small hand-built regimes; the second half reads the columns of the
//! very sections `figures` prints (`mlvc_bench::figures`) and holds one
//! shape per figure, with thresholds set from `results_run_all.md`.

use mlvc_bench::{figures, Rig, Section, Settings};
use multilogvc::apps::{Bfs, Coloring, Mis, PageRank};
use multilogvc::core::{Engine, EngineConfig, RunReport, VertexProgram};
use multilogvc::graph::{Csr, VertexIntervals};
use multilogvc::ssd::SsdConfig;

/// The small regimes' rig: eight uniform intervals, the default device.
fn rig(g: &Csr, mem: usize) -> Rig<'_> {
    Rig::new(
        g,
        VertexIntervals::uniform(g.num_vertices(), 8),
        SsdConfig::default(),
        EngineConfig::default().with_memory(mem),
    )
}

fn mlvc_run(g: &Csr, app: &dyn VertexProgram, steps: usize, mem: usize) -> RunReport {
    rig(g, mem).mlvc().1.run(app, steps)
}

fn gchi_run(g: &Csr, app: &dyn VertexProgram, steps: usize, mem: usize) -> RunReport {
    rig(g, mem).graphchi().1.run(app, steps)
}

const MEM: usize = 1 << 20;

/// §I / Fig. 5: BFS touching a small part of the graph reads far fewer
/// pages on MultiLogVC than on shard-loading GraphChi.
#[test]
fn claim_bfs_sparse_traversal_page_advantage() {
    let g = mlvc_gen::cf_mini(12, 17).graph;
    let app = Bfs::new(0);
    let rm = mlvc_run(&g, &app, 3, MEM);
    let rg = gchi_run(&g, &app, 3, MEM);
    assert!(
        rg.total_pages() as f64 > 2.5 * rm.total_pages() as f64,
        "GraphChi {} vs MultiLogVC {} pages",
        rg.total_pages(),
        rm.total_pages()
    );
    assert!(rm.speedup_over(&rg) > 1.5);
}

/// §II-B / Fig. 2: the active set shrinks dramatically over supersteps.
#[test]
fn claim_active_set_shrinks() {
    let g = mlvc_gen::cf_mini(11, 2).graph;
    let r = mlvc_run(&g, &Coloring::new(), 40, MEM);
    // Active vertices shrink (Fig. 2 major axis)...
    let first_v = r.supersteps.first().unwrap().active_vertices;
    let last_v = r.supersteps.last().unwrap().active_vertices;
    assert!(last_v * 2 <= first_v, "vertices {first_v} -> {last_v}");
    // ...and active edges (updates sent over edges, the minor axis) shrink
    // dramatically — this is what drives the I/O advantage.
    let first_m = r.supersteps[1].messages_processed;
    let last_m = r.supersteps.last().unwrap().messages_processed;
    assert!(last_m * 5 < first_m, "messages {first_m} -> {last_m}");
}

/// Fig. 6d: MIS — probabilistic selection keeps few vertices active, so
/// MultiLogVC wins clearly.
#[test]
fn claim_mis_speedup() {
    let g = mlvc_gen::cf_mini(11, 5).graph;
    let rm = mlvc_run(&g, &Mis, 15, MEM);
    let rg = gchi_run(&g, &Mis, 15, MEM);
    assert!(
        rm.speedup_over(&rg) > 1.5,
        "MIS speedup {}",
        rm.speedup_over(&rg)
    );
}

/// Fig. 5c: storage access dominates execution time on both engines.
#[test]
fn claim_storage_time_dominates() {
    let g = mlvc_gen::cf_mini(11, 9).graph;
    let rm = mlvc_run(&g, &PageRank::default(), 15, MEM);
    let rg = gchi_run(&g, &PageRank::default(), 15, MEM);
    assert!(rm.storage_fraction() > 0.5, "MLVC {:.2}", rm.storage_fraction());
    assert!(rg.storage_fraction() > 0.7, "GChi {:.2}", rg.storage_fraction());
}

/// Fig. 8: once the single log outgrows memory, GraFBoost pays for the
/// external sort and MultiLogVC wins — and the gap *widens* as memory
/// shrinks relative to the log.
#[test]
fn claim_grafboost_external_sort_gap() {
    let g = mlvc_gen::cf_mini(12, 3).graph;
    let app = PageRank::new(0.85, 1e-3);
    let gfb_time = |mem: usize| rig(&g, mem).grafboost().1.run(&app, 2).total_sim_time_ns();
    let rm = mlvc_run(&g, &app, 2, 256 << 10);
    let tight = gfb_time(256 << 10);
    let roomy = gfb_time(32 << 20);
    assert!(
        tight > roomy,
        "external sort must cost more under memory pressure: {tight} vs {roomy}"
    );
    assert!(
        (tight as f64) > 1.2 * rm.total_sim_time_ns() as f64,
        "MultiLogVC {} vs GraFBoost {}",
        rm.total_sim_time_ns(),
        tight
    );
}

/// §V-C: the edge-log optimizer serves active vertices' adjacency from
/// the log without changing results. It does not pay in reads at any scale
/// this repository runs (`results_run_all.md`, edge-log ablation: the same
/// pages on 6 of 10 rows, up to 17 more on 3, 3 fewer on 1, at 1.000–1.043×
/// the simulated time; here 360 pages on vs 359 off), so what is held is
/// that it works and that its cost stays small: within 2 % of the pages and
/// 10 % of the simulated time of the run without it.
#[test]
fn claim_edge_log_serves_adjacency_without_changing_results() {
    let g = mlvc_gen::cf_mini(11, 4).graph;
    let run = |enable: bool| {
        let mut r = rig(&g, MEM);
        r.engine.enable_edge_log = enable;
        let (_, mut e) = r.mlvc();
        let r = e.run(&Coloring::new(), 15);
        (e.states().to_vec(), r)
    };
    let (s_on, r_on) = run(true);
    let (s_off, r_off) = run(false);
    assert_eq!(s_on, s_off, "optimizer must not change results");
    let hits: u64 = r_on.supersteps.iter().map(|s| s.edge_log_hits).sum();
    assert!(hits > 0, "optimizer should serve some vertices from the log");
    let (p_on, p_off) = (r_on.total_pages_read() as f64, r_off.total_pages_read() as f64);
    assert!(p_on <= 1.02 * p_off, "pages read: {p_on} on vs {p_off} off");
    let (t_on, t_off) = (r_on.total_sim_time_ns() as f64, r_off.total_sim_time_ns() as f64);
    assert!(t_on <= 1.10 * t_off, "simulated time: {t_on} on vs {t_off} off");
}

// ---- One shape per figure, read off the sections `figures` prints ----------
//
// The figure sections run at half the recorded scale on both axes (scale 13,
// 1 MiB: the same graph-to-memory ratio as `results_run_all.md`'s scale 14,
// 2 MiB) so that the debug-build suite stays in seconds; the tiering sweep
// runs at the recorded settings, where its fixed 8 MiB budget is sized. Each
// comment gives the numbers the threshold was set from: first those of
// `results_run_all.md`, then those of this scale.

fn half_scale() -> Settings {
    Settings { scale: 13, memory_bytes: 1 << 20, ..Settings::default() }
}

/// `column` of the one row of `sec` for `dataset` and `app`.
fn cell(sec: &Section, dataset: &str, app: &str, column: &str) -> f64 {
    let v = sec.filter("Dataset", dataset).filter("App", app).values(column);
    assert_eq!(v.len(), 1, "{dataset}/{app}: one row expected");
    v[0]
}

/// Fig. 3: barely-used pages are what a sparse, scattered active set reads
/// and what a dense one does not. Random walk 80.3 % / 74.4 % (here 80.6 % /
/// 69.6 %) against a 50 % floor; PageRank and CDLP at most 1.1 % (here
/// 2.0 %) against a 5 % ceiling.
#[test]
fn claim_fig3_inefficient_pages_follow_sparse_activity() {
    let sec = figures::fig3(&half_scale());
    for d in ["CF", "YWS"] {
        let rw = cell(&sec, d, "randomwalk", "Share");
        assert!(rw > 0.5, "{d}: random walk's inefficient share {rw}");
        for app in ["pagerank", "cdlp"] {
            let dense = cell(&sec, d, app, "Share");
            assert!(dense < 0.05, "{d}: {app}'s inefficient share {dense}");
        }
    }
}

/// Fig. 6: MultiLogVC beats GraphChi on every application, by the most on
/// random walk. Smallest speedup 2.85× (here 2.88×) against 1×; random
/// walk 9.55× / 8.69× against the next best 4.37× / 3.98× (here 6.25× /
/// 6.18× against 3.93× / 3.84×). The paper's order below random walk — MIS,
/// then CDLP, coloring, PageRank — is not reproduced and not asserted.
#[test]
fn claim_fig6_every_app_beats_graphchi_and_random_walk_leads() {
    let sec = figures::fig6(&half_scale());
    assert_eq!(sec.rows.len(), 10, "five applications on two datasets");
    for d in ["CF", "YWS"] {
        let of = sec.filter("Dataset", d);
        let rw = cell(&sec, d, "randomwalk", "Speedup");
        for (app, x) in of.texts("App").into_iter().zip(of.values("Speedup")) {
            assert!(x > 1.0, "{d}/{app}: {x}x");
            assert!(app == "randomwalk" || x < rw, "{d}: {app} {x}x vs random walk {rw}x");
        }
    }
}

/// Fig. 7: the advantage grows as the active set shrinks. MIS supersteps 1–2
/// (everything active) reach at most 2.21× (here 2.35×); every later
/// superstep is at least 4.69× (here 4.08×).
#[test]
fn claim_fig7_mis_late_supersteps_beat_early_ones() {
    let sec = figures::fig7(&half_scale());
    for d in ["CF", "YWS"] {
        let x = sec.filter("Dataset", d).filter("App", "mis").values("Speedup");
        assert!(x.len() > 4, "{d}: MIS runs {} supersteps", x.len());
        let early = x[..2].iter().copied().fold(f64::MIN, f64::max);
        let late = x[2..].iter().copied().fold(f64::MAX, f64::min);
        assert!(late > early, "{d}: late minimum {late}x vs early maximum {early}x");
    }
}

/// Fig. 9: where activity repeats, history predicts it. MIS accuracy 45 % /
/// 49 % (here 49 % / 46 %) against a 25 % floor. BFS on CF (0 %) is the
/// opposite case and is not asserted.
#[test]
fn claim_fig9_mis_inefficient_pages_are_predicted() {
    let sec = figures::fig9(&half_scale());
    for d in ["CF", "YWS"] {
        let acc = cell(&sec, d, "mis", "Accuracy");
        assert!(acc > 0.25, "{d}: MIS prediction accuracy {acc}");
    }
}

/// Fig. 10: the speedup over GraphChi does not depend on host memory. MIS at
/// 1× / 4× / 8× memory spreads 2.3 % (CF) and 1.3 % (YWS) (here 3.1 % and
/// 3.2 %) against the paper's 10 %.
#[test]
fn claim_fig10_speedup_is_flat_in_memory() {
    let sec = figures::fig10(&half_scale());
    for d in ["CF", "YWS"] {
        let x = sec.filter("Dataset", d).values("Speedup over GraphChi");
        assert_eq!(x.len(), 3, "{d}: 1x, 4x, 8x memory");
        let (lo, hi) = x.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(hi / lo < 1.10, "{d}: {lo}x to {hi}x");
    }
}

/// DESIGN.md §18: at a fixed DRAM budget, pinning beats caching. The best
/// split cuts device reads 59.4 % (PageRank) and 45.3 % (WCC) against the
/// all-cache row; the floor is 25 %. Every split spends exactly the budget
/// and every pin budget lands pins.
#[test]
fn claim_tiering_cuts_device_reads_by_a_quarter() {
    let sec = figures::tiering(&Settings::default());
    for app in ["pagerank", "wcc"] {
        let of = sec.filter("App", app);
        assert_eq!(of.texts("Split"), ["none", "cache", "cache+pin", "cache+maxpin"]);
        let spent: Vec<f64> =
            of.values("Cache KiB").iter().zip(of.values("Pin KiB")).map(|(c, p)| c + p).collect();
        assert_eq!(spent, [0.0, 8192.0, 8192.0, 8192.0], "{app}: every split spends the budget");
        let pinned = of.values("Pinned");
        assert!(pinned[1] == 0.0 && pinned[2] > 0.0 && pinned[3] > 0.0, "{app}: {pinned:?}");
        let best = of.values("Reduction")[1..].iter().copied().fold(f64::MIN, f64::max);
        assert!((0.25..1.0).contains(&best), "{app}: best read reduction {best}");
    }
}
