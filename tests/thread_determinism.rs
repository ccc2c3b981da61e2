//! Thread-count determinism: the engine (queued batch fetch + parallel
//! update scatter, DESIGN.md §12) must produce bit-identical vertex states,
//! per-superstep message counts *and* — with tiering on — whole traces,
//! cache counters included, for any worker thread count. This is the
//! guarantee the unit tests cannot check — a scatter-order or consume-order
//! bug shows up only when multiple workers race.
//!
//! The thread-count override is process-global: test functions sweeping it
//! side by side would no longer pin the thread count they claim to — the
//! determinism sweep would still pass (determinism is exactly what it
//! asserts), the who-decodes-what test would not — so the two tests of this
//! file take turns on [`OVERRIDE`].

use std::sync::Arc;

use multilogvc::apps::{Bfs, Coloring, PageRank, RandomWalk, Wcc};
use multilogvc::core::{
    Engine, EngineConfig, InitActive, MultiLogEngine, TieringConfig, TraceRecord, VertexCtx,
    VertexProgram,
};
use multilogvc::graph::{StoredGraph, VertexId, VertexIntervals};
use multilogvc::prelude::RmatParams;
use multilogvc::ssd::sync::Mutex;
use multilogvc::ssd::{Page, Ssd, SsdConfig};

/// Held by a test for as long as it sets the thread-count override.
static OVERRIDE: Mutex<()> = Mutex::new(());

/// Per-superstep fingerprint: (messages consumed, messages sent, actives).
type StepCounts = Vec<(u64, u64, u64)>;

/// Graph shape of one sweep: R-MAT scale, interval count, engine memory
/// and superstep cap.
#[derive(Clone, Copy)]
struct Shape {
    scale: u32,
    intervals: usize,
    memory: usize,
    steps: usize,
}

/// Many small intervals under tight memory: supersteps split into several
/// fused batches, so the fetch workers are genuinely exercised. Every
/// interval stays below the engine's fork threshold, so process and
/// scatter run on the owner thread.
const SMALL: Shape = Shape { scale: 10, intervals: 16, memory: 64 << 10, steps: 40 };
/// Two intervals of 4096 vertices: an all-active superstep brings each
/// well over the fork threshold, so the parallel process and scatter
/// stages are what runs.
const WIDE: Shape = Shape { scale: 13, intervals: 2, memory: 1 << 20, steps: 6 };

fn run_once(prog: &dyn VertexProgram, async_mode: bool, shape: Shape) -> (Vec<u64>, StepCounts) {
    let g = mlvc_gen::rmat(RmatParams::social(shape.scale, 8), 0xD7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let iv = VertexIntervals::uniform(g.num_vertices(), shape.intervals);
    let sg = StoredGraph::store_with(&ssd, &g, "det", iv).unwrap();
    let cfg = EngineConfig::default().with_memory(shape.memory).with_async(async_mode);
    let mut eng = MultiLogEngine::new(ssd, sg, cfg);
    let r = eng.run(prog, shape.steps);
    assert!(r.interrupted.is_none());
    let steps = r
        .supersteps
        .iter()
        .map(|s| (s.messages_processed, s.messages_sent, s.active_vertices))
        .collect();
    (eng.states().to_vec(), steps)
}

/// One tiered PageRank run on the `SMALL` shape, observability on: a cache
/// of a handful of frames (so the replacement policy evicts all the time)
/// plus a pin budget (so topology pins and retained log tails come and go
/// with every consume). Under the asynchronous model the same fetch path
/// runs, with the write side drained into every inbox besides; PageRank is
/// not a valid asynchronous algorithm, but what is held here is that the
/// run is the same run at every thread count, not what it computes.
fn run_tiered(inflight_batches: usize, async_mode: bool) -> (Vec<u64>, Vec<TraceRecord>) {
    let g = mlvc_gen::rmat(RmatParams::social(SMALL.scale, 8), 0xD7);
    let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
    let page = ssd.page_size();
    let iv = VertexIntervals::uniform(g.num_vertices(), SMALL.intervals);
    let sg = StoredGraph::store_with(&ssd, &g, "det", iv).unwrap();
    let cfg = EngineConfig::default()
        .with_memory(SMALL.memory)
        .with_inflight_batches(inflight_batches)
        .with_async(async_mode)
        .with_obs(true)
        .with_tiering(TieringConfig { cache_bytes: 6 * page, pin_budget_bytes: 24 * page });
    let mut eng = MultiLogEngine::new(ssd, sg, cfg);
    let r = eng.run(&PageRank::new(0.85, 1e-4), 12);
    assert!(r.interrupted.is_none());
    (eng.states().to_vec(), r.trace)
}

/// The tiered leg: at a fixed K, in either computation model, states and
/// the whole trace — including `cache_evictions`, `pinned_pages` and the
/// `ftl_*` fields — are equal across thread counts and across repeated runs.
fn tiered_traces_bit_identical_across_thread_counts() {
    for (k, async_mode) in [(1usize, false), (4, false), (1, true), (4, true)] {
        let mut baseline: Option<(Vec<u64>, Vec<TraceRecord>)> = None;
        for threads in [1usize, 2, 8] {
            for rep in 0..2 {
                multilogvc::par::set_thread_override(Some(threads));
                let got = run_tiered(k, async_mode);
                multilogvc::par::set_thread_override(None);
                let ctx = format!(
                    "tiered pagerank k={k} async={async_mode} threads={threads} rep={rep}"
                );
                let Some(base) = &baseline else {
                    let evictions: u64 = got.1.iter().map(|t| t.cache_evictions).sum();
                    assert!(evictions > 0, "{ctx}: the cache never evicted");
                    assert!(got.1.iter().any(|t| t.pinned_pages > 0), "{ctx}: nothing pinned");
                    assert!(got.1.iter().any(|t| t.fused_batches > 1), "{ctx}: one batch only");
                    baseline = Some(got);
                    continue;
                };
                assert_eq!(base.0, got.0, "{ctx}: states differ");
                assert_eq!(base.1.len(), got.1.len(), "{ctx}: trace length differs");
                for (a, b) in base.1.iter().zip(&got.1) {
                    assert_eq!(a, b, "{ctx}: trace differs at superstep {}", a.superstep);
                }
            }
        }
    }
}

/// What one mixed-sends run leaves behind: states, trace, pending log pages.
type MixedRun = (Vec<u64>, Vec<TraceRecord>, Vec<Page>);

/// Mixes both send shapes in one `process` call — a `send`, a `send_all`,
/// another `send` — and folds its inbox in delivery order, so a message
/// that changes place within its destination's run changes the state.
struct MixedSends;

impl VertexProgram for MixedSends {
    fn name(&self) -> &'static str {
        "mixed-sends"
    }
    fn init_state(&self, v: VertexId) -> u64 {
        v as u64
    }
    fn init_active(&self, _n: usize) -> InitActive {
        InitActive::All
    }
    fn process(&self, ctx: &mut VertexCtx<'_>) {
        let h = ctx.msgs().iter().fold(ctx.state(), |h, m| {
            h.wrapping_mul(0x100_0000_01B3).wrapping_add(m.data ^ ((m.src as u64) << 32))
        });
        ctx.set_state(h);
        let (first, last) = (ctx.edges().get(0), ctx.edges().iter().last());
        if let Some(d) = first {
            ctx.send(d, h);
        }
        ctx.send_all(h ^ 1);
        if let Some(d) = last {
            ctx.send(d, h ^ 2);
        }
    }
}

/// The send-sink leg, on both sides of the engine's fork threshold: states,
/// the whole trace, and the raw pages of the logs left pending when the run
/// stops at its cap are equal across thread counts.
fn mixed_sends_log_pages_bit_identical_across_thread_counts() {
    for shape in [SMALL, WIDE] {
        let mut baseline: Option<MixedRun> = None;
        for threads in [1usize, 2, 8] {
            multilogvc::par::set_thread_override(Some(threads));
            let g = mlvc_gen::rmat(RmatParams::social(shape.scale, 8), 0xD7);
            let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
            let iv = VertexIntervals::uniform(g.num_vertices(), shape.intervals);
            let sg = StoredGraph::store_with(&ssd, &g, "det", iv).unwrap();
            let cfg = EngineConfig::default().with_memory(shape.memory).with_obs(true);
            let mut eng = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
            let r = eng.run(&MixedSends, 4);
            multilogvc::par::set_thread_override(None);
            assert!(r.interrupted.is_none() && !r.converged);
            let mut log_pages = Vec::new();
            for i in 0..shape.intervals {
                for side in ["a", "b"] {
                    let f = ssd.lookup(&format!("mlvc.mlog.{i}.{side}")).unwrap();
                    log_pages.extend(ssd.read_all(f, |_| 0).unwrap());
                }
            }
            assert!(!log_pages.is_empty(), "the capped run must leave logs pending");
            let got: MixedRun = (eng.states().to_vec(), r.trace, log_pages);
            let ctx = format!("mixed sends, scale {}, {threads} threads", shape.scale);
            let Some(base) = &baseline else {
                baseline = Some(got);
                continue;
            };
            assert_eq!(base.0, got.0, "{ctx}: states differ");
            assert_eq!(base.1, got.1, "{ctx}: traces differ");
            assert!(base.2 == got.2, "{ctx}: pending log pages differ");
        }
    }
}

/// Threads only where something can overlap (DESIGN.md §12): the owner
/// decodes every fused batch nobody could have been given — all of them on a
/// one-thread engine and at K = 1, the first of every superstep otherwise —
/// and a look-ahead worker is spawned for each of the rest. Held on the
/// per-run counters, not `mlvc_par::spawn_count`: that one is process-wide
/// and the test binary runs its tests side by side.
#[test]
fn a_one_thread_engine_spawns_no_thread() {
    let _turn = OVERRIDE.lock();
    let g = mlvc_gen::rmat(RmatParams::social(SMALL.scale, 8), 0xD7);
    let progs: [(&str, Box<dyn VertexProgram>, bool); 3] = [
        ("pagerank", Box::new(PageRank::new(0.85, 1e-4)), false),
        ("randomwalk", Box::new(RandomWalk::new(4, 1, 20)), false),
        ("wcc", Box::new(Wcc), true),
    ];
    for (name, prog, async_mode) in &progs {
        for threads in [1usize, 2, 8] {
            for k in [1usize, 2, 4] {
                multilogvc::par::set_thread_override(Some(threads));
                // Capped at the hardware: a one-core box never looks ahead.
                let looks_ahead = multilogvc::par::max_threads() > 1 && k > 1;
                let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
                let iv = VertexIntervals::uniform(g.num_vertices(), SMALL.intervals);
                let sg = StoredGraph::store_with(&ssd, &g, "det", iv).unwrap();
                let cfg = EngineConfig::default()
                    .with_memory(SMALL.memory)
                    .with_inflight_batches(k)
                    .with_async(*async_mode)
                    .with_obs(true);
                let mut eng = MultiLogEngine::new(ssd, sg, cfg);
                let r = eng.run(prog.as_ref(), 12);
                multilogvc::par::set_thread_override(None);
                assert!(r.interrupted.is_none());
                let ctx = format!("{name} threads={threads} k={k}");
                // Trace record 0 is the seeding phase.
                assert_eq!(r.trace.len(), r.supersteps.len() + 1, "{ctx}");
                for (s, t) in r.supersteps.iter().zip(&r.trace[1..]) {
                    let ctx = format!("{ctx} superstep {}", s.superstep);
                    assert_eq!(s.batches_inline + s.batches_handed_off, t.fused_batches, "{ctx}");
                    if looks_ahead {
                        assert_eq!(s.batches_inline, t.fused_batches.min(1), "{ctx}");
                    } else {
                        assert_eq!(s.batches_handed_off, 0, "{ctx}");
                    }
                }
                // The walk's sparse frontier fits one fused batch a
                // superstep: nothing to look ahead to at any thread count.
                let [inline, handed_off] = r.batch_totals();
                let several = inline + handed_off > r.supersteps.len() as u64;
                assert_eq!(several, *name != "randomwalk", "{ctx}: fused batches per superstep");
                assert_eq!(handed_off > 0, looks_ahead && several, "{ctx}");
            }
        }
    }
}

#[test]
fn states_and_message_counts_bit_identical_across_thread_counts() {
    let _turn = OVERRIDE.lock();
    tiered_traces_bit_identical_across_thread_counts();
    mixed_sends_log_pages_bit_identical_across_thread_counts();
    let progs: Vec<(&str, Box<dyn VertexProgram>)> = vec![
        ("bfs", Box::new(Bfs::new(0))),
        ("pagerank", Box::new(PageRank::new(0.85, 1e-4))),
        ("coloring", Box::new(Coloring::new())),
    ];
    for (name, prog) in &progs {
        for (async_mode, shape) in [(false, SMALL), (true, SMALL), (false, WIDE)] {
            // Only monotone algorithms are valid under the asynchronous
            // model (see `EngineConfig::async_mode`); of the three, that
            // is BFS.
            if *name != "bfs" && async_mode {
                continue;
            }
            let mut baseline: Option<(Vec<u64>, StepCounts)> = None;
            for threads in [1usize, 2, 8] {
                multilogvc::par::set_thread_override(Some(threads));
                let got = run_once(prog.as_ref(), async_mode, shape);
                multilogvc::par::set_thread_override(None);
                match &baseline {
                    None => baseline = Some(got),
                    Some(base) => {
                        assert_eq!(
                            base.0, got.0,
                            "{name} (async={async_mode}, scale {}): states differ at \
                             {threads} threads",
                            shape.scale
                        );
                        assert_eq!(
                            base.1, got.1,
                            "{name} (async={async_mode}, scale {}): per-superstep counts \
                             differ at {threads} threads",
                            shape.scale
                        );
                    }
                }
            }
        }
    }
}
