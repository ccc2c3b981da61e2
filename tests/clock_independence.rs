//! The page stream does not depend on the clock (DESIGN.md §5, §12): device
//! timing changes *when* I/O happens, never *what* is read or written.
//! Each benchmark workload's shape at test scale — `pr-cf`, `rw-cf`,
//! `pr-cf-tiered` and `wcc-mutate` — and each Fig. 6 application runs on a
//! device of 1, 4 and 8 channels, the one timing parameter the device
//! exposes. States and every per-superstep trace count must be equal at
//! every channel count; only the time fields may differ (`sim_time_ns`,
//! `io_wait_ns`, and `max_inflight`, which counts in-flight dispatches).
//! Up to 8 channels the multi-log's eviction batch is 64 pages whatever
//! the width (DESIGN.md §12), so nothing but the clock can move.

use std::sync::Arc;

use multilogvc::apps::{self, PageRank, RandomWalk, Wcc};
use multilogvc::core::{
    Engine, EngineConfig, MultiLogEngine, RunReport, TieringConfig, VertexProgram,
};
use multilogvc::gen::rng::SeededRng;
use multilogvc::graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use multilogvc::mutate::{EdgeMutation, MutationConfig, MutationLog};
use multilogvc::ssd::sync::Mutex;
use multilogvc::ssd::{Ssd, SsdConfig};

/// `cf_mini` scale of every shape, and the engine budget: `pr-cf`'s 4 MiB at
/// scale 17, shrunk with the graph, so the logs evict and retention holds
/// as they do there.
const SCALE: u32 = 13;
const BUDGET: usize = 256 << 10;
const STEPS: usize = 30;
const CHANNELS: [usize; 3] = [1, 4, 8];
const UNTIMED: [&str; 3] = ["sim_time_ns", "io_wait_ns", "max_inflight"];

/// What one run is, clock aside: its states and, per phase, every trace
/// count but the time fields.
type Stream = (Vec<u64>, Vec<Vec<(&'static str, u64)>>);

fn counts(r: &RunReport) -> Vec<Vec<(&'static str, u64)>> {
    assert!(r.interrupted.is_none(), "{:?}", r.interrupted);
    let keep = |(name, _): &(&str, u64)| !UNTIMED.contains(name);
    r.phases().map(|s| s.trace_fields().into_iter().filter(keep).collect()).collect()
}

fn graph() -> Csr {
    mlvc_gen::cf_mini(SCALE, 42).graph
}

fn config() -> EngineConfig {
    EngineConfig::default().with_memory(BUDGET).with_seed(42)
}

fn engine(g: &Csr, channels: usize, cfg: EngineConfig) -> (Arc<Ssd>, MultiLogEngine) {
    let iv = VertexIntervals::for_graph(g, UPDATE_BYTES, cfg.sort_budget());
    let ssd = Arc::new(Ssd::new(SsdConfig::default().with_channels(channels)));
    let stored = StoredGraph::store_with(&ssd, g, "clock", iv).unwrap();
    (Arc::clone(&ssd), MultiLogEngine::new(ssd, stored, cfg))
}

/// One program on a fresh device: states, counts, and the run's time.
fn run(g: &Csr, channels: usize, cfg: EngineConfig, prog: &dyn VertexProgram) -> (Stream, u64) {
    let (_, mut eng) = engine(g, channels, cfg);
    let r = eng.run(prog, STEPS);
    ((eng.states().to_vec(), counts(&r)), r.total_sim_time_ns())
}

/// Runs `shape` at every channel count and holds its streams equal. The
/// clock must have moved, or the sweep compared one device three times.
/// Returns the stream, for the caller to check the shape is what it names.
fn same_stream_at_every_width(what: &str, shape: impl Fn(usize) -> (Stream, u64)) -> Stream {
    let mut runs: Vec<(Stream, u64)> = CHANNELS.iter().map(|&c| shape(c)).collect();
    let ((states, phases), narrow_ns) = &runs[0];
    for (&c, ((s, p), ns)) in CHANNELS.iter().zip(&runs).skip(1) {
        assert_eq!(states, s, "{what}: states differ at {c} channels");
        assert_eq!(phases.len(), p.len(), "{what}: phase count differs at {c} channels");
        for (k, (a, b)) in phases.iter().zip(p).enumerate() {
            assert_eq!(a, b, "{what}: phase {k} differs at {c} channels");
        }
        assert!(ns < narrow_ns, "{what}: {c} channels took {ns} ns, 1 took {narrow_ns}");
    }
    runs.swap_remove(0).0
}

/// A trace count summed over the phases of a stream.
fn total(stream: &Stream, field: &str) -> u64 {
    stream.1.iter().flatten().filter(|(name, _)| *name == field).map(|(_, v)| v).sum()
}

#[test]
fn pr_cf_reads_and_writes_the_same_pages_at_every_width() {
    let g = graph();
    let s = same_stream_at_every_width("pr-cf", |c| run(&g, c, config(), &PageRank::default()));
    assert!(total(&s, "log_evictions") > 0, "pr-cf: the log never evicted");
}

#[test]
fn rw_cf_reads_and_writes_the_same_pages_at_every_width() {
    let g = graph();
    let walk = RandomWalk::new(4, 1, 20);
    same_stream_at_every_width("rw-cf", |c| run(&g, c, config(), &walk));
}

#[test]
fn pr_cf_tiered_reads_and_writes_the_same_pages_at_every_width() {
    let g = graph();
    let tiering = TieringConfig { cache_bytes: BUDGET / 2, pin_budget_bytes: BUDGET * 7 / 2 };
    let cfg = config().with_tiering(tiering);
    let s = same_stream_at_every_width("pr-cf-tiered", |c| {
        run(&g, c, cfg.clone(), &PageRank::default())
    });
    for field in ["log_pages_retained", "pinned_hits"] {
        assert!(total(&s, field) > 0, "pr-cf-tiered: no {field}");
    }
}

/// `wcc-mutate`: the base WCC, then rounds of a mutation batch ingested
/// and re-converged on the same device. Every round's counts, and what its
/// merge did, are part of the stream.
#[test]
fn wcc_mutate_reads_and_writes_the_same_pages_at_every_width() {
    let g = graph();
    let s = same_stream_at_every_width("wcc-mutate", |c| {
        let (ssd, mut eng) = engine(&g, c, config());
        let base = eng.run(&Wcc, STEPS);
        let (mut phases, mut ns) = (counts(&base), base.total_sim_time_ns());
        let iv = eng.graph().intervals().clone();
        let log = MutationLog::new(ssd, iv, MutationConfig::default(), "clock").unwrap();
        let log = Arc::new(Mutex::new(log));
        eng.attach_mutations(Arc::clone(&log)).unwrap();
        for round in 0..3 {
            log.lock().ingest(&batch(&g, round, 256)).unwrap();
            let r = eng.reconverge(&Wcc, STEPS);
            let m = r.mutations.unwrap_or_default();
            phases.push(vec![
                ("edges_added", m.edges_added),
                ("edges_removed", m.edges_removed),
                ("intervals_merged", m.intervals_merged),
                ("log_pages_flushed", m.log_pages_flushed),
            ]);
            phases.extend(counts(&r));
            ns += r.total_sim_time_ns();
        }
        ((eng.states().to_vec(), phases), ns)
    });
    for field in ["edges_added", "edges_removed"] {
        assert!(total(&s, field) > 0, "wcc-mutate: no {field}");
    }
}

/// The Fig. 6 applications (BFS is Fig. 5's), as `figures` builds them.
#[test]
fn fig6_apps_read_and_write_the_same_pages_at_every_width() {
    let g = graph();
    for name in ["pagerank", "cdlp", "coloring", "mis", "randomwalk"] {
        same_stream_at_every_width(name, |c| {
            let prog = apps::by_name(name, g.has_weights(), 0).unwrap();
            run(&g, c, config(), prog.as_ref())
        });
    }
}

/// Three adds of random pairs to one remove of a stored edge, seeded by
/// the round.
fn batch(g: &Csr, round: u64, len: usize) -> Vec<EdgeMutation> {
    let mut rng = SeededRng::seed_from_u64(0xC10C ^ round);
    let n = g.num_vertices() as u32;
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.25) {
                let slot = rng.gen_range(0..g.num_edges() as u64) as usize;
                let src = g.row_ptr().partition_point(|&p| p as usize <= slot) - 1;
                EdgeMutation::remove(src as u32, g.col_idx()[slot])
            } else {
                EdgeMutation::add(rng.gen_range(0..n), rng.gen_range(0..n))
            }
        })
        .collect()
}
