//! Cross-engine agreement: the same vertex program must produce identical
//! results on MultiLogVC, the GraphChi baseline, and (where its model
//! allows) the GraFBoost baseline — the property that makes the paper's
//! performance comparison meaningful.

use std::sync::Arc;

use multilogvc::apps::{Bfs, Cdlp, Coloring, KCore, Mis, PageRank, RandomWalk, Sssp, Wcc};
use multilogvc::core::{
    Combine, ConfigError, Engine, EngineConfig, InitActive, MultiLogEngine, ReferenceEngine,
    RunReport, SendSink, TraceRecord, Update, VertexCtx, VertexProgram,
};
use multilogvc::grafboost::GrafBoostEngine;
use multilogvc::graph::{Csr, EdgeListBuilder, StoredGraph, VertexId, VertexIntervals, Weights};
use multilogvc::graphchi::GraphChiEngine;
use multilogvc::ssd::{DeviceError, Ssd, SsdConfig};

fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("cf_mini", mlvc_gen::cf_mini(9, 11).graph),
        ("yws_mini", mlvc_gen::yws_mini(8, 11).graph),
        ("grid", mlvc_gen::grid(12, 13)),
        ("sbm", mlvc_gen::sbm(
            mlvc_gen::SbmParams { n: 300, communities: 3, intra_degree: 8.0, inter_degree: 0.7 },
            5,
        )),
    ]
}

fn run_three(csr: &Csr, prog: &dyn VertexProgram, steps: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let iv = VertexIntervals::uniform(csr.num_vertices(), 5);
    let cfg = EngineConfig::default().with_memory(512 << 10);

    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, csr, "m", iv.clone()).unwrap();
    let mut m = MultiLogEngine::new(ssd, sg, cfg.clone());
    m.run(prog, steps);

    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let mut g = GraphChiEngine::new(ssd, csr, iv.clone(), cfg.clone()).unwrap();
    g.run(prog, steps);

    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, csr, "f", iv).unwrap();
    let mut f = GrafBoostEngine::new(ssd, sg, cfg);
    f.run(prog, steps);

    (m.states().to_vec(), g.states().to_vec(), f.states().to_vec())
}

/// A program that reads edge weights, on a graph stored without them, is
/// refused where the run starts by every engine — the same typed error with
/// the same stable code in `RunReport::interrupted`, no superstep run, no
/// panic in a worker. (The baselines store no weights at all, so they refuse
/// it on a weighted graph too.)
#[test]
fn a_weighted_program_on_a_weightless_graph_is_refused_by_every_engine() {
    let plain = mlvc_gen::grid(6, 6);
    let weighted = {
        let mut b = EdgeListBuilder::new(plain.num_vertices());
        plain.edges().for_each(|(s, d)| b.push_weighted(s, d, 1.0));
        b.build()
    };
    let refusal = DeviceError::from(ConfigError::NeedsWeights { app: "sssp" });
    assert_eq!(refusal.code(), "needs-weights");
    let refused = |r: RunReport, engine: &str| {
        assert_eq!(r.interrupted.as_ref(), Some(&refusal), "{engine}");
        assert!(r.supersteps.is_empty() && !r.converged, "{engine}");
    };
    let iv = VertexIntervals::uniform(plain.num_vertices(), 3);
    let cfg = EngineConfig::default();
    let mem = || Arc::new(Ssd::new(SsdConfig::test_small()));
    for (csr, baselines_only) in [(&plain, false), (&weighted, true)] {
        let ssd = mem();
        let sg = StoredGraph::store_with(&ssd, csr, "m", iv.clone()).unwrap();
        let mut m = MultiLogEngine::new(ssd, sg, cfg.clone());
        let mut reference = ReferenceEngine::new(csr.clone(), cfg.seed);
        if baselines_only {
            assert!(m.run(&Sssp::new(0), 50).converged);
            assert!(reference.run(&Sssp::new(0), 50).converged);
            assert_eq!(m.states(), reference.states());
        } else {
            refused(m.run(&Sssp::new(0), 50), "MultiLogVC");
            refused(reference.run(&Sssp::new(0), 50), "Reference");
        }
        let mut g = GraphChiEngine::new(mem(), csr, iv.clone(), cfg.clone()).unwrap();
        refused(g.run(&Sssp::new(0), 50), "GraphChi");
        let ssd = mem();
        let sg = StoredGraph::store_with(&ssd, csr, "f", iv.clone()).unwrap();
        refused(GrafBoostEngine::new(ssd, sg, cfg.clone()).run(&Sssp::new(0), 50), "GraFBoost");
    }
}

#[test]
fn bfs_agrees_everywhere() {
    for (name, g) in graphs() {
        let (m, c, f) = run_three(&g, &Bfs::new(1), 60);
        assert_eq!(m, c, "{name}: MultiLogVC vs GraphChi");
        assert_eq!(m, f, "{name}: MultiLogVC vs GraFBoost");
    }
}

#[test]
fn cdlp_agrees_everywhere() {
    for (name, g) in graphs() {
        let (m, c, f) = run_three(&g, &Cdlp, 12);
        assert_eq!(m, c, "{name}: MultiLogVC vs GraphChi");
        assert_eq!(m, f, "{name}: MultiLogVC vs adapted GraFBoost");
    }
}

#[test]
fn coloring_agrees_and_is_proper() {
    for (name, g) in graphs() {
        let iv = VertexIntervals::uniform(g.num_vertices(), 5);
        let cfg = EngineConfig::default().with_memory(512 << 10);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "m", iv.clone()).unwrap();
        let mut m = MultiLogEngine::new(ssd, sg, cfg.clone());
        let rm = m.run(&Coloring::new(), 500);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut c = GraphChiEngine::new(ssd, &g, iv, cfg).unwrap();
        let rc = c.run(&Coloring::new(), 500);
        assert!(rm.converged && rc.converged, "{name} must converge");
        assert_eq!(m.states(), c.states(), "{name}");
        let colors: Vec<u32> = m.states().iter().map(|&s| s as u32).collect();
        assert!(mlvc_apps::is_proper_coloring(&g, &colors), "{name}");
    }
}

#[test]
fn mis_agrees_and_is_maximal() {
    for (name, g) in graphs() {
        let (m, c, f) = run_three(&g, &Mis, 300);
        assert_eq!(m, c, "{name}");
        assert_eq!(m, f, "{name}");
        let in_set: Vec<bool> = m
            .iter()
            .map(|&s| mlvc_apps::Mis::state(s) == mlvc_apps::MisState::InSet)
            .collect();
        assert!(
            mlvc_apps::is_maximal_independent_set(&g, &in_set),
            "{name}: MIS invalid"
        );
    }
}

#[test]
fn pagerank_agrees_within_tolerance() {
    for (name, g) in graphs() {
        let (m, c, f) = run_three(&g, &PageRank::new(0.85, 1e-9), 120);
        for v in 0..g.num_vertices() {
            let a = PageRank::rank(m[v]);
            let b = PageRank::rank(c[v]);
            let d = PageRank::rank(f[v]);
            assert!((a - b).abs() < 1e-8, "{name} v={v}: {a} vs {b}");
            assert!((a - d).abs() < 1e-8, "{name} v={v}: {a} vs {d}");
        }
    }
}

#[test]
fn wcc_agrees_everywhere_including_reference() {
    for (name, g) in graphs() {
        let (m, c, f) = run_three(&g, &Wcc, 80);
        assert_eq!(m, c, "{name}: MultiLogVC vs GraphChi");
        assert_eq!(m, f, "{name}: MultiLogVC vs GraFBoost");
        let mut r = ReferenceEngine::new(g.clone(), 0xC0FFEE);
        r.run(&Wcc, 80);
        assert_eq!(m, r.states(), "{name}: MultiLogVC vs Reference");
    }
}

#[test]
fn kcore_agrees_and_matches_peeling() {
    for (name, g) in graphs() {
        let (m, c, f) = run_three(&g, &KCore::new(), 200);
        assert_eq!(m, c, "{name}: MultiLogVC vs GraphChi");
        assert_eq!(m, f, "{name}: MultiLogVC vs adapted GraFBoost");
        let expect = multilogvc::apps::coreness_reference(&g);
        let got: Vec<u32> = m.iter().map(|&s| KCore::coreness(s)).collect();
        assert_eq!(got, expect, "{name}: coreness vs peeling reference");
    }
}

#[test]
fn reference_engine_agrees_on_every_app() {
    let g = mlvc_gen::cf_mini(9, 11).graph;
    // Two instances per app: programs with per-run auxiliary state (the
    // coloring/k-core neighbor maps) must not be shared across engines.
    type AppPair = (Box<dyn VertexProgram>, Box<dyn VertexProgram>, usize);
    let apps: Vec<AppPair> = vec![
        (Box::new(Bfs::new(1)), Box::new(Bfs::new(1)), 60),
        (Box::new(Cdlp), Box::new(Cdlp), 12),
        (Box::new(Mis), Box::new(Mis), 300),
        (Box::new(Coloring::new()), Box::new(Coloring::new()), 500),
        (Box::new(KCore::new()), Box::new(KCore::new()), 200),
        (Box::new(Wcc), Box::new(Wcc), 80),
    ];
    for (app_m, app_r, steps) in apps {
        let iv = VertexIntervals::uniform(g.num_vertices(), 5);
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let sg = StoredGraph::store_with(&ssd, &g, "m", iv).unwrap();
        let mut m = MultiLogEngine::new(ssd, sg, EngineConfig::default().with_memory(512 << 10));
        m.run(app_m.as_ref(), steps);
        let mut r = ReferenceEngine::new(g.clone(), 0xC0FFEE);
        r.run(app_r.as_ref(), steps);
        assert_eq!(m.states(), r.states(), "app {}", app_r.name());
    }
}

/// `g` with a deterministic weight on every edge, for the programs that
/// need one.
fn with_weights(g: &Csr) -> Csr {
    let mut b = EdgeListBuilder::new(g.num_vertices());
    for v in 0..g.num_vertices() as VertexId {
        for &d in g.out_edges(v) {
            b.push_weighted(v, d, 1.0 + ((v ^ d) % 7) as f32);
        }
    }
    b.build()
}

/// Declares a `combine` and keeps every vertex active through superstep 5
/// whether or not anything arrived, while only a rotating third of the
/// vertices send: most active vertices of a superstep have an empty inbox,
/// next to neighbours whose messages the decode folded.
struct Pulse;

impl VertexProgram for Pulse {
    fn name(&self) -> &'static str {
        "pulse"
    }
    fn init_state(&self, v: VertexId) -> u64 {
        u64::from(v)
    }
    fn init_active(&self, _num_vertices: usize) -> InitActive {
        InitActive::All
    }
    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let got = ctx.msgs().iter().map(|m| m.data).fold(0, u64::wrapping_add);
        let state = ctx.state().rotate_left(5) ^ got;
        ctx.set_state(state);
        if ctx.superstep() < 6 {
            ctx.keep_active();
            if ctx.vertex() as usize % 3 == ctx.superstep() % 3 {
                ctx.send_all(state);
            }
        }
    }
    fn combine(&self) -> Option<Combine> {
        Some(u64::wrapping_add as Combine)
    }
    fn reads_src(&self) -> bool {
        false
    }
}

/// Forwards a program but strips its `combine` operator, so the engine's
/// optional reduction path can be toggled without touching the app.
struct NoCombine(Box<dyn VertexProgram>);

impl VertexProgram for NoCombine {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init_state(&self, v: VertexId) -> u64 {
        self.0.init_state(v)
    }
    fn init_active(&self, num_vertices: usize) -> InitActive {
        self.0.init_active(num_vertices)
    }
    fn process(&self, ctx: &mut VertexCtx<'_>) {
        self.0.process(ctx)
    }
    fn combine(&self) -> Option<Combine> {
        None
    }
    fn needs_weights(&self) -> bool {
        self.0.needs_weights()
    }
    fn reads_src(&self) -> bool {
        self.0.reads_src()
    }
}

/// Forwards a program but hands its `process` every incoming message with
/// `src` replaced by the sentinel a source-less log page decodes to — what
/// `reads_src() == false` asks the engine to do. Outputs are copied back,
/// and the inner context is built with the outer run's seed so the random
/// streams match.
struct DropSrc {
    inner: Box<dyn VertexProgram>,
    seed: u64,
}

impl VertexProgram for DropSrc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init_state(&self, v: VertexId) -> u64 {
        self.inner.init_state(v)
    }
    fn init_active(&self, num_vertices: usize) -> InitActive {
        self.inner.init_active(num_vertices)
    }
    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let msgs: Vec<Update> =
            ctx.msgs().iter().map(|m| Update { src: VertexId::MAX, ..*m }).collect();
        let edges = ctx.edges().to_vec();
        let weights = ctx.weights().map(|w| w.to_vec());
        let mut sink = SendSink::flat();
        let mut inner = VertexCtx::new(
            ctx.vertex(),
            ctx.superstep(),
            ctx.num_vertices(),
            ctx.state(),
            &msgs,
            &edges,
            weights.as_ref().map(Weights::from),
            self.seed,
            &mut sink,
        );
        self.inner.process(&mut inner);
        let out = inner.into_outputs();
        ctx.set_state(out.state);
        for u in &sink.buffers()[0] {
            ctx.send(u.dest, u.data);
        }
        if out.keep_active {
            ctx.keep_active();
        }
    }
    fn combine(&self) -> Option<Combine> {
        self.inner.combine()
    }
    fn needs_weights(&self) -> bool {
        self.inner.needs_weights()
    }
}

/// `reads_src` honesty: every shipped app that declares it does not read
/// `Update::src` computes bit-identical states when the sources really are
/// gone — with its combiner and with every message delivered singly. Some
/// app that does read it must notice, or the wrapper tests nothing (MIS
/// only breaks priority ties by `src`, so not every reader does).
#[test]
fn apps_that_disclaim_src_do_not_read_it() {
    const SEED: u64 = 0xC0FFEE;
    let g = mlvc_gen::cf_mini(9, 11).graph;
    let weighted = with_weights(&g);
    type Factory = Box<dyn Fn() -> Box<dyn VertexProgram>>;
    let apps: Vec<(usize, Factory)> = vec![
        (60, Box::new(|| Box::new(Bfs::new(1)))),
        (12, Box::new(|| Box::new(Cdlp))),
        (500, Box::new(|| Box::new(Coloring::new()))),
        (200, Box::new(|| Box::new(KCore::new()))),
        (300, Box::new(|| Box::new(Mis))),
        (20, Box::new(|| Box::new(PageRank::new(0.85, 1e-9)))),
        (25, Box::new(|| Box::new(RandomWalk::new(4, 1, 20)))),
        (200, Box::new(|| Box::new(Sssp::new(1)))),
        (80, Box::new(|| Box::new(Wcc))),
    ];
    let run = |prog: &dyn VertexProgram, steps: usize| {
        let graph = if prog.needs_weights() { weighted.clone() } else { g.clone() };
        let mut r = ReferenceEngine::new(graph, SEED);
        r.run(prog, steps);
        r.states().to_vec()
    };
    let mut disclaimers = Vec::new();
    let mut readers_that_noticed = 0;
    for (steps, make) in apps {
        let name = make().name();
        let dropped = run(&DropSrc { inner: make(), seed: SEED }, steps);
        if make().reads_src() {
            readers_that_noticed += usize::from(run(make().as_ref(), steps) != dropped);
            continue;
        }
        disclaimers.push(name);
        assert_eq!(run(make().as_ref(), steps), dropped, "{name} claims not to read src");
        let single = run(&NoCombine(make()), steps);
        let single_dropped =
            run(&NoCombine(Box::new(DropSrc { inner: make(), seed: SEED })), steps);
        assert_eq!(single, single_dropped, "{name} without its combiner");
    }
    assert_eq!(disclaimers, ["bfs", "cdlp", "pagerank", "randomwalk", "sssp", "wcc"]);
    assert!(readers_that_noticed > 0, "dropping src changed no src-reading app");
}

/// One MultiLogVC run with the observability layer on, returning final
/// states plus the per-superstep trace.
fn run_obs(
    csr: &Csr,
    prog: &dyn VertexProgram,
    steps: usize,
    async_mode: bool,
) -> (Vec<u64>, Vec<TraceRecord>) {
    let iv = VertexIntervals::uniform(csr.num_vertices(), 5);
    let cfg = EngineConfig::default()
        .with_memory(512 << 10)
        .with_async(async_mode)
        .with_obs(true);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, csr, "x", iv).unwrap();
    let mut e = MultiLogEngine::new(ssd, sg, cfg);
    let r = e.run(prog, steps);
    assert_eq!(
        r.trace.len(),
        r.supersteps.len() + 1,
        "seed record + one per superstep"
    );
    (e.states().to_vec(), r.trace)
}

/// Field-by-field trace comparison so a mismatch names the culprit
/// instead of dumping two 23-field structs.
fn assert_traces_eq(a: &[TraceRecord], b: &[TraceRecord], ctx: &str) {
    assert_eq!(a.len(), b.len(), "trace length: {ctx}");
    for (x, y) in a.iter().zip(b) {
        for ((name, xv), (_, yv)) in x.fields().iter().zip(y.fields().iter()) {
            assert_eq!(
                xv, yv,
                "field {name} diverges at superstep {}: {ctx}",
                x.superstep
            );
        }
    }
}

/// The trace with the simulated-time fields zeroed: queue depth and the
/// number of batches in flight change when reads are charged and how much
/// of them compute hides, while every count (pages, bytes, messages, log
/// activity, FTL) must not move.
fn trace_modulo_sim_time(trace: &[TraceRecord]) -> Vec<TraceRecord> {
    trace
        .iter()
        .map(|r| TraceRecord { sim_time_ns: 0, io_wait_ns: 0, max_inflight: 0, ..*r })
        .collect()
}

/// The trace with the fields the combine toggle legitimately changes
/// zeroed out: the post-reduction delivery count, the compute time derived
/// from it, and the queue waits that compute time could or could not hide;
/// everything else must be invariant.
fn trace_modulo_combine(trace: &[TraceRecord]) -> Vec<TraceRecord> {
    trace
        .iter()
        .map(|r| TraceRecord {
            messages_delivered: 0,
            sim_time_ns: 0,
            io_wait_ns: 0,
            max_inflight: 0,
            ..*r
        })
        .collect()
}

/// Execution-mode cross-product {sync/async}×{combine}, over every app that
/// declares a `combine`, one that cannot, and one that keeps vertices
/// active without messages: final states are bit-identical within each
/// computation model — and, synchronous, to the reference engine's sort
/// then reduce — and the combine toggle changes only the delivery count and
/// its derived compute time. BFS additionally reaches the same vertex set
/// across sync/async, with async levels bounded below by the sync
/// (shortest) ones.
#[test]
fn obs_trace_invariant_across_async_combine() {
    let g = mlvc_gen::cf_mini(9, 11).graph;
    let weighted = with_weights(&g);
    type Factory = Box<dyn Fn() -> Box<dyn VertexProgram>>;
    let apps: Vec<(&str, usize, Factory)> = vec![
        ("bfs", 60, Box::new(|| Box::new(Bfs::new(1)))),
        ("pagerank", 20, Box::new(|| Box::new(PageRank::new(0.85, 1e-9)))),
        ("wcc", 80, Box::new(|| Box::new(Wcc))),
        ("sssp", 200, Box::new(|| Box::new(Sssp::new(1)))),
        ("pulse", 12, Box::new(|| Box::new(Pulse))),
        ("coloring", 200, Box::new(|| Box::new(Coloring::new()))),
    ];
    for (name, steps, make) in apps {
        let g = if make().needs_weights() { &weighted } else { &g };
        let mut sync_states: Option<Vec<u64>> = None;
        for async_mode in [false, true] {
            let (states, trace) = run_obs(g, make().as_ref(), steps, async_mode);
            let (stripped_states, stripped_trace) =
                run_obs(g, &NoCombine(make()), steps, async_mode);
            assert_eq!(states, stripped_states, "{name} async={async_mode}: combine changed states");
            assert_traces_eq(
                &trace_modulo_combine(&trace),
                &trace_modulo_combine(&stripped_trace),
                &format!("combine leaks into I/O accounting: {name} async={async_mode}"),
            );
            if make().combine().is_some() {
                let delivered = |t: &[TraceRecord]| t.iter().map(|r| r.messages_delivered).sum::<u64>();
                assert!(
                    delivered(&trace) < delivered(&stripped_trace),
                    "{name} async={async_mode}: the fold merged nothing"
                );
            }
            if async_mode {
                if name == "bfs" {
                    // Async BFS settles on first touch, and a same-superstep
                    // cascade can arrive before the true frontier — so a
                    // level is the length of *some* path (>= the sync
                    // shortest level), and reachability is identical.
                    let sync = sync_states.as_ref().unwrap();
                    for (v, (&a, &s)) in states.iter().zip(sync).enumerate() {
                        assert_eq!(
                            Bfs::level(a).is_some(),
                            Bfs::level(s).is_some(),
                            "reachability differs at vertex {v}"
                        );
                        assert!(a >= s, "async level below shortest at vertex {v}");
                    }
                }
            } else {
                if name == "coloring" {
                    let colors: Vec<u32> = states.iter().map(|&s| s as u32).collect();
                    assert!(mlvc_apps::is_proper_coloring(g, &colors));
                }
                let mut r = ReferenceEngine::new(g.clone(), 0xC0FFEE);
                r.run(make().as_ref(), steps);
                assert_eq!(states, r.states(), "{name}: MultiLogVC vs Reference");
                sync_states = Some(states);
            }
        }
    }
}

/// One MultiLogVC run with explicit queue-depth / in-flight-batch knobs
/// (observability on).
fn run_obs_queued(
    csr: &Csr,
    prog: &dyn VertexProgram,
    steps: usize,
    async_mode: bool,
    queue_depth: usize,
    inflight: usize,
) -> (Vec<u64>, Vec<TraceRecord>) {
    let iv = VertexIntervals::uniform(csr.num_vertices(), 5);
    let cfg = EngineConfig::default()
        .with_memory(512 << 10)
        .with_async(async_mode)
        .with_queue_depth(queue_depth)
        .with_inflight_batches(inflight)
        .with_obs(true);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let sg = StoredGraph::store_with(&ssd, csr, "q", iv).unwrap();
    let mut e = MultiLogEngine::new(ssd, sg, cfg);
    let r = e.run(prog, steps);
    (e.states().to_vec(), r.trace)
}

/// Queue-knob determinism (DESIGN.md §12), in both computation models —
/// they share the fetch path: states are bit-identical across
/// the full worker-threads × queue-depth × in-flight-batches cross-product;
/// traces are bit-identical across thread counts at any fixed (depth, K),
/// and across (depth, K) bit-identical modulo the simulated-time fields
/// (`sim_time_ns`, `io_wait_ns`, `max_inflight`) — deeper queues and more
/// batches in flight may only move *time*, never a count. And the time
/// they move goes one way: at a fixed K, the simulated time the owner
/// spends blocked on the queue does not grow as the per-channel queues
/// deepen.
#[test]
fn states_and_traces_invariant_across_queue_depth_and_inflight() {
    let g = mlvc_gen::cf_mini(9, 11).graph;
    type Factory = Box<dyn Fn() -> Box<dyn VertexProgram>>;
    let apps: Vec<(&str, usize, Factory)> = vec![
        ("bfs", 60, Box::new(|| Box::new(Bfs::new(1)))),
        ("pagerank", 15, Box::new(|| Box::new(PageRank::new(0.85, 1e-9)))),
        ("coloring", 200, Box::new(|| Box::new(Coloring::new()))),
    ];
    // (queue depth, K) -> (states, trace), from the first thread count.
    type Baseline = ((usize, usize), Vec<u64>, Vec<TraceRecord>);
    // Every app under both computation models.
    let legs = apps.iter().flat_map(|app| [false, true].map(|async_mode| (app, async_mode)));
    for ((name, steps, make), async_mode) in legs {
        let mut base: Vec<Baseline> = Vec::new();
        for threads in [1usize, 2, 8] {
            mlvc_par::set_thread_override(Some(threads));
            for qd in [1usize, 4, 16] {
                for k in [1usize, 4] {
                    let prog = make();
                    let (st, tr) = run_obs_queued(&g, prog.as_ref(), *steps, async_mode, qd, k);
                    let ctx = format!("{name} async={async_mode} threads={threads} qd={qd} k={k}");
                    match base.iter().find(|(key, _, _)| *key == (qd, k)) {
                        None => base.push(((qd, k), st, tr)),
                        Some((_, st0, tr0)) => {
                            // Same (depth, K), different thread count: the
                            // whole trace — including every time field —
                            // must be bit-identical.
                            assert_eq!(&st, st0, "states diverge: {ctx}");
                            assert_traces_eq(tr0, &tr, &ctx);
                        }
                    }
                }
            }
        }
        mlvc_par::set_thread_override(None);
        let (_, st0, tr0) = &base[0];
        for ((qd, k), st, tr) in &base[1..] {
            let ctx = format!("{name} async={async_mode} qd={qd} k={k} vs qd=1 k=1");
            assert_eq!(st, st0, "states diverge across queue knobs: {ctx}");
            assert_traces_eq(
                &trace_modulo_sim_time(tr0),
                &trace_modulo_sim_time(tr),
                &ctx,
            );
        }
        for k in [1usize, 4] {
            let wait: Vec<u64> = [1usize, 4, 16]
                .iter()
                .map(|&qd| {
                    let (_, _, tr) = base.iter().find(|(key, _, _)| *key == (qd, k)).unwrap();
                    tr.iter().map(|r| r.io_wait_ns).sum()
                })
                .collect();
            assert!(
                wait[0] >= wait[1] && wait[1] >= wait[2],
                "{name} async={async_mode} k={k}: io_wait_ns grew with queue depth 1 -> 4 -> 16: {wait:?}"
            );
        }
    }
}

/// Mutations leg of the agreement cross-product: after an edge batch,
/// all three engines still agree on the *mutated* graph, and MultiLogVC's
/// incremental path (merge + re-converge) lands on those same states —
/// so a mutated-and-re-converged deployment is indistinguishable from
/// rebuilding and recomputing everywhere.
#[test]
fn mutated_graphs_agree_across_engines_and_paths() {
    use multilogvc::mutate::{apply_to_csr, EdgeMutation, MutationConfig, MutationLog};
    for (name, g) in graphs() {
        let n = g.num_vertices() as u32;
        let mut muts: Vec<EdgeMutation> = (0..20u32)
            .map(|i| {
                let (s, d) = (i.wrapping_mul(131) % n, i.wrapping_mul(251 + i) % n);
                if i % 4 == 0 { EdgeMutation::remove(s, d) } else { EdgeMutation::add(s, d) }
            })
            .collect();
        // One guaranteed-effective removal: the first stored edge.
        if !g.col_idx().is_empty() {
            let v = g.row_ptr().iter().position(|&p| p > 0).unwrap_or(1) as u32 - 1;
            muts.push(EdgeMutation::remove(v, g.col_idx()[0]));
        }
        let (mutated, _delta) = apply_to_csr(&g, &muts).unwrap();

        let bfs = Bfs::new(1);
        for (app, steps) in [(&Wcc as &dyn VertexProgram, 80), (&bfs as &dyn VertexProgram, 60)] {
            let (m, c, f) = run_three(&mutated, app, steps);
            assert_eq!(m, c, "{name}/{}: MultiLogVC vs GraphChi on mutated", app.name());
            assert_eq!(m, f, "{name}/{}: MultiLogVC vs GraFBoost on mutated", app.name());

            let iv = VertexIntervals::uniform(g.num_vertices(), 5);
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let sg = Arc::new(StoredGraph::store_with(&ssd, &g, "inc", iv.clone()).unwrap());
            let mut eng = MultiLogEngine::with_shared_graph(
                Arc::clone(&ssd),
                Arc::clone(&sg),
                EngineConfig::default().with_memory(512 << 10),
            );
            eng.run(app, steps);
            let mut mlog =
                MutationLog::new(Arc::clone(&ssd), iv, MutationConfig::default(), "inc").unwrap();
            mlog.ingest(&muts).unwrap();
            eng.attach_mutations(Arc::new(multilogvc::ssd::sync::Mutex::new(mlog))).unwrap();
            let inc = eng.reconverge(app, steps);
            assert!(inc.interrupted.is_none(), "{name}/{}", app.name());
            assert_eq!(
                eng.states(),
                m.as_slice(),
                "{name}/{}: incremental vs cold-everywhere",
                app.name()
            );
            assert_eq!(sg.to_csr().unwrap(), mutated, "{name}/{}", app.name());
        }
    }
}

#[test]
fn random_walk_visit_totals_agree() {
    for (name, g) in graphs() {
        let app = RandomWalk::new(50, 2, 10);
        let (m, c, f) = run_three(&g, &app, 20);
        let tm: u64 = m.iter().sum();
        let tc: u64 = c.iter().sum();
        let tf: u64 = f.iter().sum();
        assert_eq!(tm, tc, "{name}: MultiLogVC vs GraphChi totals");
        assert_eq!(tm, tf, "{name}: MultiLogVC vs GraFBoost totals");
    }
}
